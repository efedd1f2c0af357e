//! The session execution API: incremental, cache-aware pipeline runs
//! against catalog graph handles.
//!
//! [`SgSession`] is the execution front door the serving layer, the tuner
//! and the bench harness drive. It probes the [`StageCache`] for the
//! **longest already-computed prefix** of a [`PipelineSpec`] and runs the
//! stage loop of [`Pipeline::apply`](crate::Pipeline::apply) from there,
//! publishing every new prefix; probing and publishing are all it adds.
//! Each stage's output graph is exposed in the returned [`SessionRun`].
//!
//! # Determinism and bit-identity
//!
//! Pipelines are pure functions of `(graph, spec, seed)` and stage seeds
//! are positional ([`Pipeline::stage_seed`](crate::Pipeline::stage_seed)),
//! so a cache hit returns the exact bytes a cold
//! [`Pipeline::apply`](crate::Pipeline::apply) run would produce — at any
//! `SG_THREADS`. The only observable difference is the per-stage `cached`
//! flag and wall-clock time. `tests/session_cache.rs` pins this contract.

use crate::cache::{prefix_hash, CachedPrefix, StageCache, StageKey};
use crate::catalog::{GraphCatalog, GraphHandle};
use crate::pipeline::{Prefix, StageReport};
use crate::scheme::{SchemeParams, SchemeRegistry};
use crate::spec::PipelineSpec;
use sg_graph::{CsrGraph, VertexId};
use std::sync::Arc;
use std::time::Duration;

/// One stage of a [`SessionRun`].
#[derive(Clone, Debug)]
pub struct StageOutcome {
    /// The stage's report; for cached stages the wall time is the
    /// originally measured one.
    pub report: StageReport,
    /// Whether the stage was served from the cache instead of executed.
    pub cached: bool,
    /// The stage's output graph. Always present for executed stages and
    /// for the last stage of a cached prefix; `None` only for an interior
    /// cached stage whose own prefix entry has been evicted since.
    pub graph: Option<Arc<CsrGraph>>,
}

/// Outcome of one session run: the final graph, the composed vertex
/// mapping, per-stage outcomes (with intermediate graphs), and cache
/// accounting.
#[derive(Clone, Debug)]
pub struct SessionRun {
    /// Final output graph.
    pub graph: Arc<CsrGraph>,
    /// Composition of every stage's old→new relabelling (`None` =
    /// identity), indexed by pipeline-input vertex ids.
    pub vertex_mapping: Option<Arc<Vec<Option<VertexId>>>>,
    /// Vertex count of the pipeline input.
    pub original_vertices: usize,
    /// Edge count of the pipeline input.
    pub original_edges: usize,
    /// Per-stage outcomes, in execution order.
    pub stages: Vec<StageOutcome>,
}

impl SessionRun {
    /// Stages served from the cache.
    pub fn stages_cached(&self) -> usize {
        self.stages.iter().filter(|s| s.cached).count()
    }

    /// Stages actually executed by this run.
    pub fn stages_executed(&self) -> usize {
        self.stages.len() - self.stages_cached()
    }

    /// Sum of the per-stage wall times (cached stages contribute their
    /// originally measured time, so this is comparable to a cold run).
    pub fn elapsed(&self) -> Duration {
        self.stages.iter().map(|s| s.report.elapsed).sum()
    }

    /// Remaining-edge ratio `m'/m`.
    pub fn compression_ratio(&self) -> f64 {
        if self.original_edges == 0 {
            1.0
        } else {
            self.graph.num_edges() as f64 / self.original_edges as f64
        }
    }
}

/// The session: a catalog, a registry, and a stage cache, shareable across
/// threads (all methods take `&self`; clones share all three).
#[derive(Clone)]
pub struct SgSession {
    catalog: Arc<GraphCatalog>,
    registry: Arc<SchemeRegistry>,
    cache: Arc<StageCache>,
}

impl SgSession {
    /// A session over `catalog` and `registry` with a default-capacity
    /// stage cache.
    pub fn new(catalog: Arc<GraphCatalog>, registry: Arc<SchemeRegistry>) -> Self {
        Self::with_cache(catalog, registry, Arc::new(StageCache::new()))
    }

    /// A session with an explicit (possibly shared) stage cache.
    pub fn with_cache(
        catalog: Arc<GraphCatalog>,
        registry: Arc<SchemeRegistry>,
        cache: Arc<StageCache>,
    ) -> Self {
        Self { catalog, registry, cache }
    }

    /// The graph catalog.
    pub fn catalog(&self) -> &Arc<GraphCatalog> {
        &self.catalog
    }

    /// The scheme registry.
    pub fn registry(&self) -> &Arc<SchemeRegistry> {
        &self.registry
    }

    /// The stage cache.
    pub fn cache(&self) -> &Arc<StageCache> {
        &self.cache
    }

    /// Evicts `name` from the catalog and purges its cache entries.
    /// Returns the evicted handle and the number of cache entries dropped.
    pub fn evict(&self, name: &str) -> Option<(GraphHandle, usize)> {
        let handle = self.catalog.remove(name)?;
        let purged = self.cache.purge_graph(handle.id());
        Some((handle, purged))
    }

    /// Runs `spec` against the graph registered under `name`.
    pub fn run_named(
        &self,
        name: &str,
        spec: &PipelineSpec,
        seed: u64,
    ) -> Result<SessionRun, String> {
        let handle =
            self.catalog.get(name).ok_or_else(|| format!("no graph loaded as '{name}'"))?;
        self.run(&handle, spec, seed)
    }

    /// Runs `spec` against `handle` with pipeline seed `seed`, reusing the
    /// longest cached chain prefix.
    pub fn run(
        &self,
        handle: &GraphHandle,
        spec: &PipelineSpec,
        seed: u64,
    ) -> Result<SessionRun, String> {
        self.run_with_base(handle, spec, &SchemeParams::new(), seed)
    }

    /// [`SgSession::run`] with shared base parameters layered under every
    /// stage's own (the CLI's `--p`/`--k`/… flags). The spec is
    /// [resolved](PipelineSpec::resolve) first, so the cache key reflects
    /// the *effective* per-stage configuration — two invocations that
    /// would run different scheme parameters can never share an entry.
    /// The schemes are instantiated after the probe, and only when a stage
    /// must execute: a parameter value a factory rejects fails the run
    /// after its probe, and a spec served whole from the cache passed its
    /// factories when it first ran.
    pub fn run_with_base(
        &self,
        handle: &GraphHandle,
        spec: &PipelineSpec,
        base: &SchemeParams,
        seed: u64,
    ) -> Result<SessionRun, String> {
        let resolved = spec.resolve(&self.registry, base)?;
        let n = resolved.len();
        let mut run_span = sg_obs::span!("session.run", stages = n, seed = seed);
        if sg_obs::metrics_enabled() {
            sg_obs::global().counter("session.runs").inc();
        }
        // `keys[len - 1]` addresses the prefix of the first `len` stages.
        let keys: Vec<StageKey> = (1..=n)
            .map(|len| StageKey { graph: handle.id(), prefix: prefix_hash(&resolved, len), seed })
            .collect();

        // Longest cached prefix, probed from the full chain down.
        let mut prefix = Prefix::default();
        let mut outcomes: Vec<StageOutcome> = Vec::with_capacity(n);
        for len in (1..=n).rev() {
            // Scheme-keyed hit/miss attribution: each probe is charged to
            // the scheme ending the probed prefix (observation only).
            let probe_scheme = resolved.stages[len - 1].name.as_str();
            let Some(hit) = self.cache.get(&keys[len - 1]) else {
                if sg_obs::metrics_enabled() {
                    sg_obs::global().counter(&format!("core.cache.miss.{probe_scheme}")).inc();
                }
                continue;
            };
            if sg_obs::metrics_enabled() {
                let reg = sg_obs::global();
                reg.counter(&format!("core.cache.hit.{probe_scheme}")).inc();
                reg.counter("session.stages_cached").add(len as u64);
                for stage in resolved.stages.iter().take(len) {
                    reg.counter(&format!("session.stage_cached.{}", stage.name)).inc();
                }
            }
            for (i, report) in hit.reports.iter().enumerate() {
                let graph = if i + 1 == len {
                    Some(Arc::clone(&hit.graph))
                } else {
                    self.cache.peek(&keys[i]).map(|c| c.graph)
                };
                outcomes.push(StageOutcome { report: report.clone(), cached: true, graph });
            }
            prefix = Prefix {
                graph: Some(hit.graph),
                mapping: hit.mapping,
                reports: hit.reports.to_vec(),
            };
            break;
        }
        let cached = prefix.reports.len();

        // Execute the divergent suffix, publishing each new prefix. A full
        // hit executes nothing, so it instantiates no scheme either.
        let end = if cached == n {
            prefix
        } else {
            resolved.instantiate(&self.registry)?.run_from(handle.graph(), seed, prefix, |p| {
                let graph = p.graph.clone().expect("an executed stage has an output");
                self.cache.insert(
                    keys[p.reports.len() - 1],
                    CachedPrefix {
                        graph: Arc::clone(&graph),
                        mapping: p.mapping.clone(),
                        reports: Arc::new(p.reports.clone()),
                    },
                );
                let report = p.reports.last().expect("an executed stage has a report").clone();
                outcomes.push(StageOutcome { report, cached: false, graph: Some(graph) });
            })
        };

        if run_span.is_recording() {
            run_span.arg("cached", cached.to_string());
            run_span.arg("executed", (n - cached).to_string());
        }
        Ok(SessionRun {
            graph: end.graph.unwrap_or_else(|| Arc::clone(handle.graph_arc())),
            vertex_mapping: end.mapping,
            original_vertices: handle.graph().num_vertices(),
            original_edges: handle.graph().num_edges(),
            stages: outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    fn session_over(g: CsrGraph) -> (SgSession, GraphHandle) {
        let catalog = Arc::new(GraphCatalog::new());
        let handle = catalog.insert("g", g, "test").expect("insert");
        let session = SgSession::new(catalog, Arc::new(SchemeRegistry::with_defaults()));
        (session, handle)
    }

    fn cold(spec: &str, g: &CsrGraph, seed: u64) -> crate::PipelineResult {
        PipelineSpec::parse(spec)
            .expect("parses")
            .build(&SchemeRegistry::with_defaults())
            .expect("builds")
            .apply(g, seed)
    }

    #[test]
    fn session_run_matches_cold_pipeline_apply() {
        let g = generators::rmat_graph500(9, 8, 3);
        let (session, handle) = session_over(g.clone());
        for spec_text in ["uniform:p=0.4", "spanner:k=4,lowdeg,uniform:p=0.5"] {
            let spec = PipelineSpec::parse(spec_text).expect("parses");
            let run = session.run(&handle, &spec, 42).expect("runs");
            let reference = cold(spec_text, &g, 42);
            assert_eq!(run.graph.edge_slice(), reference.result.graph.edge_slice());
            assert_eq!(
                run.vertex_mapping.as_deref().cloned(),
                reference.result.vertex_mapping,
                "composed mappings agree"
            );
            assert_eq!(run.stages_executed(), spec.len());
            assert_eq!(run.stages_cached(), 0);
        }
    }

    #[test]
    fn shared_prefixes_skip_stages_and_stay_bit_identical() {
        let g = generators::planted_triangles(&generators::erdos_renyi(500, 1500, 5), 400, 6);
        let (session, handle) = session_over(g.clone());
        let a = PipelineSpec::parse("spanner:k=4,lowdeg,uniform:p=0.5").expect("parses");
        let b = PipelineSpec::parse("spanner:k=4,lowdeg,cut:k=2").expect("parses");

        let first = session.run(&handle, &a, 7).expect("cold run");
        assert_eq!(first.stages_executed(), 3);

        let second = session.run(&handle, &b, 7).expect("warm run");
        assert_eq!(second.stages_cached(), 2, "shared prefix served from cache");
        assert_eq!(second.stages_executed(), 1, "only the divergent suffix ran");
        let reference = cold("spanner:k=4,lowdeg,cut:k=2", &g, 7);
        assert_eq!(second.graph.edge_slice(), reference.result.graph.edge_slice());
        assert_eq!(second.vertex_mapping.as_deref().cloned(), reference.result.vertex_mapping);

        // Exact repeat: everything cached, bytes still identical.
        let third = session.run(&handle, &a, 7).expect("fully cached");
        assert_eq!(third.stages_cached(), 3);
        assert_eq!(third.stages_executed(), 0);
        let reference = cold("spanner:k=4,lowdeg,uniform:p=0.5", &g, 7);
        assert_eq!(third.graph.edge_slice(), reference.result.graph.edge_slice());

        // A different seed shares nothing.
        let reseeded = session.run(&handle, &a, 8).expect("new seed");
        assert_eq!(reseeded.stages_cached(), 0, "seed is part of the cache key");
    }

    #[test]
    fn per_stage_intermediate_graphs_are_exposed() {
        let g = generators::barabasi_albert(300, 4, 9);
        let (session, handle) = session_over(g.clone());
        let spec = PipelineSpec::parse("spanner:k=4,uniform:p=0.5").expect("parses");
        let run = session.run(&handle, &spec, 11).expect("runs");
        // Stage 0's intermediate equals a direct single-stage run.
        let stage0 = run.stages[0].graph.as_ref().expect("executed stage exposes its graph");
        let direct = cold("spanner:k=4", &g, 11);
        assert_eq!(stage0.edge_slice(), direct.result.graph.edge_slice());
        // The last stage's graph is the final graph.
        let last = run.stages[1].graph.as_ref().expect("last stage graph");
        assert_eq!(last.edge_slice(), run.graph.edge_slice());
        // Cached re-run still exposes the intermediates (all prefixes are
        // cached by the cold run).
        let warm = session.run(&handle, &spec, 11).expect("warm");
        assert!(warm.stages.iter().all(|s| s.graph.is_some()));
    }

    #[test]
    fn base_parameters_are_part_of_the_cache_identity() {
        let g = generators::erdos_renyi(400, 1600, 13);
        let (session, handle) = session_over(g.clone());
        let spec = PipelineSpec::parse("uniform").expect("parses");
        let mut base_a = SchemeParams::new();
        base_a.set("p", "0.3");
        let mut base_b = SchemeParams::new();
        base_b.set("p", "0.7");
        let a = session.run_with_base(&handle, &spec, &base_a, 5).expect("a");
        let b = session.run_with_base(&handle, &spec, &base_b, 5).expect("b");
        assert_ne!(a.graph.edge_slice(), b.graph.edge_slice(), "different p must not collide");
        assert_eq!(b.stages_cached(), 0);
        // And each matches its cold equivalent.
        assert_eq!(a.graph.edge_slice(), cold("uniform:p=0.3", &g, 5).result.graph.edge_slice());
        assert_eq!(b.graph.edge_slice(), cold("uniform:p=0.7", &g, 5).result.graph.edge_slice());
    }

    #[test]
    fn eviction_purges_the_cache_and_run_named_errors() {
        let g = generators::cycle(50);
        let (session, handle) = session_over(g);
        let spec = PipelineSpec::parse("uniform:p=0.5").expect("parses");
        session.run_named("g", &spec, 1).expect("runs by name");
        let (evicted, purged) = session.evict("g").expect("evicts");
        assert_eq!(evicted.id(), handle.id());
        assert_eq!(purged, 1, "the one cached prefix is purged");
        let err = session.run_named("g", &spec, 1).unwrap_err();
        assert!(err.contains("no graph loaded"), "{err}");
        // The old handle still works (ref-counted), just cold.
        let rerun = session.run(&handle, &spec, 1).expect("handle outlives eviction");
        assert_eq!(rerun.stages_cached(), 0);
    }

    #[test]
    fn empty_specs_are_the_identity() {
        let g = generators::grid(6, 6);
        let (session, handle) = session_over(g.clone());
        let run = session.run(&handle, &PipelineSpec::default(), 3).expect("runs");
        assert_eq!(run.graph.edge_slice(), g.edge_slice());
        assert!(run.stages.is_empty());
        assert_eq!(run.compression_ratio(), 1.0);
    }

    #[test]
    fn invalid_specs_error_before_touching_the_cache() {
        let g = generators::cycle(10);
        let (session, handle) = session_over(g);
        let unknown = PipelineSpec::parse("nope").expect("parses syntactically");
        assert!(session.run(&handle, &unknown, 0).unwrap_err().contains("unknown scheme"));
        let bad_key = PipelineSpec::parse("lowdeg:p=0.5").expect("parses syntactically");
        assert!(session.run(&handle, &bad_key, 0).unwrap_err().contains("accepts: none"));
        assert_eq!(session.cache().stats().entries, 0);
    }
}
