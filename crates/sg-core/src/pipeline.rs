//! Chained compression pipelines — the paper's kernel-combining model.
//!
//! Slim Graph kernels are designed to compose: a spanner can strip long
//! cycles, low-degree removal can then delete the exposed leaves, and a
//! final uniform sample can trim the rest. A [`Pipeline`] is built from a
//! [`PipelineSpec`] and runs its [`CompressionScheme`] stages in order,
//! feeding each stage the previous stage's output, composing old→new
//! vertex relabellings across stages, and recording a per-stage
//! [`StageReport`].
//!
//! One stage loop runs every chain: [`Pipeline::apply`] from stage 0,
//! [`SgSession`](crate::SgSession) from its longest cached prefix. Each
//! executed stage records a `session.stage` span and `session.stage*` metrics.
//!
//! Determinism: stage `i` derives its seed from `(seed, i)`, so a pipeline
//! run is bit-reproducible, and a single-stage pipeline is bit-identical to
//! calling the scheme's `apply` directly.

use crate::engine::CompressionResult;
use crate::scheme::CompressionScheme;
use crate::spec::PipelineSpec;
use sg_graph::prng::mix64;
use sg_graph::{CsrGraph, VertexId};
use std::sync::Arc;
use std::time::Duration;

/// Per-stage statistics recorded by [`Pipeline::apply`].
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Registry name of the stage's scheme.
    pub name: String,
    /// Human-readable label of the stage's scheme.
    pub label: String,
    /// Vertices entering the stage.
    pub input_vertices: usize,
    /// Edges entering the stage.
    pub input_edges: usize,
    /// Vertices leaving the stage.
    pub output_vertices: usize,
    /// Edges leaving the stage.
    pub output_edges: usize,
    /// Stage wall-clock time.
    pub elapsed: Duration,
}

impl StageReport {
    /// Remaining-edge ratio of this stage.
    pub fn compression_ratio(&self) -> f64 {
        if self.input_edges == 0 {
            1.0
        } else {
            self.output_edges as f64 / self.input_edges as f64
        }
    }
}

/// Outcome of a pipeline run: the end-to-end [`CompressionResult`]
/// (original counts refer to the *pipeline input*; `vertex_mapping` is the
/// composition of every stage's relabelling) plus per-stage reports.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Composed end-to-end result.
    pub result: CompressionResult,
    /// One report per stage, in execution order.
    pub stages: Vec<StageReport>,
}

/// A built chain of compression schemes: the [resolved](PipelineSpec::resolve)
/// spec it was built from, next to one scheme per stage. Built only by
/// [`PipelineSpec::build_with_base`].
pub struct Pipeline {
    pub(crate) spec: PipelineSpec,
    pub(crate) schemes: Vec<Box<dyn CompressionScheme>>,
}

/// Where a chain run stands after its first `reports.len()` stages.
#[derive(Default)]
pub(crate) struct Prefix {
    /// The last stage's output; `None` while no stage has run.
    pub(crate) graph: Option<Arc<CsrGraph>>,
    /// The stages' relabellings composed (`None` = identity).
    pub(crate) mapping: Option<Arc<Vec<Option<VertexId>>>>,
    /// One report per stage run so far.
    pub(crate) reports: Vec<StageReport>,
}

impl Pipeline {
    /// The stages' schemes, in execution order.
    pub fn stages(&self) -> &[Box<dyn CompressionScheme>] {
        &self.schemes
    }

    /// Stage labels joined with `->`.
    pub fn label(&self) -> String {
        self.schemes.iter().map(|s| s.label()).collect::<Vec<_>>().join(" -> ")
    }

    /// The deterministic seed handed to stage `index` of a run seeded with
    /// `seed`. Stage 0 receives `seed` itself, so one-stage pipelines are
    /// bit-identical to a direct `scheme.apply(g, seed)`.
    pub fn stage_seed(seed: u64, index: usize) -> u64 {
        if index == 0 {
            seed
        } else {
            mix64(seed ^ mix64(index as u64))
        }
    }

    /// Runs every stage in order over `g`: the cold path. A session run
    /// of the same `(graph, spec, seed)` resumes the same stage loop from
    /// a cached prefix and is bit-identical to this.
    pub fn apply(&self, g: &CsrGraph, seed: u64) -> PipelineResult {
        let end = self.run_from(g, seed, Prefix::default(), |_| {});
        PipelineResult {
            result: CompressionResult {
                graph: end.graph.map_or_else(|| g.clone(), unshared),
                original_edges: g.num_edges(),
                original_vertices: g.num_vertices(),
                elapsed: end.reports.iter().map(|r| r.elapsed).sum(),
                vertex_mapping: end.mapping.map(unshared),
            },
            stages: end.reports,
        }
    }

    /// The one stage loop. Runs stages `prefix.reports.len()..` over
    /// `prefix` (over `input` while no stage has run), and hands each new
    /// prefix to `publish`. A stage's graph is dropped once the next
    /// stage's output replaces it, unless `publish` kept a clone.
    pub(crate) fn run_from(
        &self,
        input: &CsrGraph,
        seed: u64,
        mut prefix: Prefix,
        mut publish: impl FnMut(&Prefix),
    ) -> Prefix {
        let stages = self.spec.stages.iter().zip(&self.schemes).enumerate();
        for (index, (stage, scheme)) in stages.skip(prefix.reports.len()) {
            let g = prefix.graph.as_deref().unwrap_or(input);
            let mut span = sg_obs::span!("session.stage", scheme = stage.name, index = index);
            // With the tracking allocator profiling, bracket the stage so
            // its span (and a per-scheme counter) carries the allocation
            // cost of that compression scheme. Process-wide counters:
            // under concurrency the delta includes other threads' churn.
            let alloc_before =
                sg_obs::alloc::profiling_enabled().then(|| sg_obs::alloc::stats().allocated_bytes);
            let r = scheme.apply(g, Self::stage_seed(seed, index));
            let report = StageReport {
                name: scheme.name().to_string(),
                label: scheme.label(),
                input_vertices: g.num_vertices(),
                input_edges: g.num_edges(),
                output_vertices: r.graph.num_vertices(),
                output_edges: r.graph.num_edges(),
                elapsed: r.elapsed,
            };
            if let Some(before) = alloc_before {
                let delta = sg_obs::alloc::stats().allocated_bytes.saturating_sub(before);
                if span.is_recording() {
                    span.arg("alloc_bytes", delta.to_string());
                }
                if sg_obs::metrics_enabled() {
                    sg_obs::global()
                        .counter(&format!("session.stage_alloc_bytes.{}", stage.name))
                        .add(delta);
                }
            }
            drop(span);
            if sg_obs::metrics_enabled() {
                let reg = sg_obs::global();
                reg.counter("session.stages_executed").inc();
                reg.counter(&format!("session.stage_executed.{}", stage.name)).inc();
                reg.histogram("session.stage_ms").observe(report.elapsed);
            }
            prefix.mapping = match (prefix.mapping, r.vertex_mapping) {
                (so_far, None) => so_far,
                (None, Some(next)) => Some(Arc::new(next)),
                (Some(first), Some(next)) => Some(Arc::new(
                    first.iter().map(|mid| mid.and_then(|m| next[m as usize])).collect(),
                )),
            };
            prefix.graph = Some(Arc::new(r.graph));
            prefix.reports.push(report);
            publish(&prefix);
        }
        prefix
    }
}

/// Takes a cold run's output out of its `Arc` — never a copy: with nothing
/// published, the run holds the only reference.
fn unshared<T>(arc: Arc<T>) -> T {
    Arc::try_unwrap(arc).unwrap_or_else(|_| panic!("a cold run shares no stage output"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{SchemeRegistry, Uniform};
    use sg_graph::generators;

    fn build(spec: &str) -> Pipeline {
        PipelineSpec::parse(spec).expect("parses").build(&SchemeRegistry::with_defaults()).unwrap()
    }

    fn three_stage() -> Pipeline {
        build("spanner:k=4,lowdeg,uniform:p=0.3")
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let g = generators::erdos_renyi(100, 400, 1);
        let empty = PipelineSpec::default().build(&SchemeRegistry::with_defaults()).unwrap();
        let out = empty.apply(&g, 7);
        assert_eq!(out.result.graph.edge_slice(), g.edge_slice());
        assert!(out.stages.is_empty());
        assert_eq!(out.result.compression_ratio(), 1.0);
    }

    #[test]
    fn single_stage_matches_direct_apply() {
        let g = generators::rmat_graph500(10, 8, 3);
        let direct = crate::scheme::CompressionScheme::apply(&Uniform { p: 0.4 }, &g, 99);
        let piped = build("uniform:p=0.4").apply(&g, 99);
        assert_eq!(direct.graph.edge_slice(), piped.result.graph.edge_slice());
    }

    #[test]
    fn stages_chain_and_reports_are_consistent() {
        let g = generators::planted_triangles(&generators::erdos_renyi(400, 1200, 5), 400, 6);
        let out = three_stage().apply(&g, 11);
        assert_eq!(out.stages.len(), 3);
        assert_eq!(out.stages[0].input_edges, g.num_edges());
        for pair in out.stages.windows(2) {
            assert_eq!(pair[0].output_edges, pair[1].input_edges);
            assert_eq!(pair[0].output_vertices, pair[1].input_vertices);
        }
        let last = out.stages.last().expect("three stages");
        assert_eq!(last.output_edges, out.result.graph.num_edges());
        assert!(out.result.graph.num_edges() < g.num_edges());
        assert_eq!(out.result.original_edges, g.num_edges());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let g = generators::rmat_graph500(10, 8, 13);
        let a = three_stage().apply(&g, 42);
        let b = three_stage().apply(&g, 42);
        assert_eq!(a.result.graph.edge_slice(), b.result.graph.edge_slice());
        let c = three_stage().apply(&g, 43);
        assert_ne!(
            a.result.graph.edge_slice(),
            c.result.graph.edge_slice(),
            "different seeds should differ"
        );
    }

    #[test]
    fn vertex_mappings_compose_across_stages() {
        // star(6): lowdeg removes the 5 leaves, leaving the hub; a second
        // lowdeg stage then removes the now-isolated hub.
        let g = generators::star(6);
        let one = build("lowdeg").apply(&g, 1);
        let mapping = one.result.vertex_mapping.expect("vertex scheme maps");
        assert_eq!(mapping[0], Some(0));
        assert!(mapping[1..].iter().all(Option::is_none));

        let two = build("lowdeg,lowdeg").apply(&g, 1);
        let mapping = two.result.vertex_mapping.expect("composed mapping");
        assert_eq!(mapping.len(), 6, "mapping is indexed by pipeline-input ids");
        assert!(mapping.iter().all(Option::is_none), "everything removed");
        assert_eq!(two.result.graph.num_vertices(), 0);
    }

    #[test]
    fn stage_seeds_differ_between_stages() {
        let seeds: Vec<u64> = (0..4).map(|i| Pipeline::stage_seed(7, i)).collect();
        assert_eq!(seeds[0], 7);
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "stage seeds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn label_joins_stages() {
        assert_eq!(three_stage().label(), "spanner (k=4) -> lowdeg -> uniform (p=0.3)");
    }
}
