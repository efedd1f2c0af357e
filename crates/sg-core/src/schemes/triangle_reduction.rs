//! Triangle Reduction (TR) — the compression class proposed by the paper
//! (§4.3).
//!
//! A fraction `p` of triangles is sampled u.a.r.; from each sampled triangle
//! `x ∈ {1, 2}` edges are removed. Variants:
//!
//! * **Plain p-x-TR** — remove `x` edges chosen u.a.r. (Listing 1,
//!   `p-1-reduction`),
//! * **Edge-Once (EO)** — each edge is considered at most once: a sampled
//!   triangle whose edges were all unconsidered claims all three and deletes
//!   `x`; triangles touching a considered edge are skipped. Reduced
//!   triangles are therefore *edge-disjoint*, which is what makes connected
//!   components (and, with max-weight choice, the exact MST weight)
//!   provably survive (§6.1),
//! * **Count-Triangles (CT)** — EO plus ordering: triangles are processed
//!   starting from edges that belong to the fewest triangles, removing such
//!   edges first (Figure 6's `CT-0.5-1-TR`),
//! * **max-weight choice** — remove the heaviest edge, preserving the MST
//!   weight exactly,
//! * **Collapse** — contract each sampled triangle into a single vertex
//!   (changes the vertex set; maximal storage reduction).
//!
//! Partitioned executors (engine chunks, `sg-dist` ranks, federation shards)
//! split the canonical edge ids: a triangle belongs to its edge `e_uv`.

use crate::context::{DetRand, SgContext};
use crate::engine::{CompressionResult, Engine};
use crate::kernel::{Triangle, TriangleKernel};
use sg_algos::tc;
use sg_algos::union_find::UnionFind;
use sg_graph::prng::mix64;
use sg_graph::{CsrGraph, EdgeId, EdgeList, VertexId, Weight};
use std::time::Instant;

/// Which edge(s) of a sampled triangle are removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeChoice {
    /// Uniformly random edge (the basic TR of Listing 1).
    Random,
    /// The maximum-weight edge — preserves the exact MST weight.
    MaxWeight,
    /// The edge contained in the fewest triangles (the CT variant).
    FewestTriangles,
}

/// Whether edges may be considered by more than one kernel instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Every sampled triangle acts independently.
    Plain,
    /// Edge-Once: reduced triangles are forced edge-disjoint.
    EdgeOnce,
}

/// Full TR configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrConfig {
    /// Probability of sampling (reducing) a triangle.
    pub p: f64,
    /// Edges removed per sampled triangle (1 or 2).
    pub x: usize,
    /// Consideration discipline.
    pub discipline: Discipline,
    /// Edge-selection rule.
    pub choice: EdgeChoice,
}

impl TrConfig {
    /// Basic Triangle p-1-Reduction.
    pub fn plain_1(p: f64) -> Self {
        Self { p, x: 1, discipline: Discipline::Plain, choice: EdgeChoice::Random }
    }

    /// Triangle p-2-Reduction (more aggressive).
    pub fn plain_2(p: f64) -> Self {
        Self { p, x: 2, discipline: Discipline::Plain, choice: EdgeChoice::Random }
    }

    /// Edge-Once p-1-TR.
    pub fn edge_once_1(p: f64) -> Self {
        Self { p, x: 1, discipline: Discipline::EdgeOnce, choice: EdgeChoice::Random }
    }

    /// CT variant: Edge-Once plus fewest-triangles-first ordering.
    pub fn count_triangles(p: f64) -> Self {
        Self { p, x: 1, discipline: Discipline::EdgeOnce, choice: EdgeChoice::FewestTriangles }
    }

    /// EO p-1-TR removing the maximum-weight edge (exact MST preservation).
    pub fn max_weight(p: f64) -> Self {
        Self { p, x: 1, discipline: Discipline::EdgeOnce, choice: EdgeChoice::MaxWeight }
    }

    /// The one TR parameter check (NaN fails the range test): the registry
    /// turns a failure into a `bad-spec`, every TR executor asserts it.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p) {
            return Err(format!("TR parameter p must be in [0, 1], got {}", self.p));
        }
        if self.x != 1 && self.x != 2 {
            return Err(format!("TR parameter x must be 1 or 2, got {}", self.x));
        }
        Ok(())
    }

    /// Scheme label matching the paper's naming (`EO-0.5-1-TR`, …).
    pub fn label(&self) -> String {
        let prefix = match (self.discipline, self.choice) {
            (Discipline::Plain, _) => "",
            (Discipline::EdgeOnce, EdgeChoice::FewestTriangles) => "CT-",
            (Discipline::EdgeOnce, _) => "EO-",
        };
        format!("{prefix}{}-{}-TR", self.p, self.x)
    }
}

/// Deterministic per-triangle key for sampling decisions. Public so the
/// sharded executors in sg-dist draw the *same* randomness per triangle as
/// the in-process kernel — the single source of truth for TR sampling.
#[inline]
pub fn triangle_key(t: &Triangle) -> u64 {
    mix64(t.u as u64 ^ mix64(t.v as u64 ^ mix64(t.w as u64)))
}

/// Whether triangle `t` is sampled for reduction at probability `p` under
/// `rand`. This is the exact sampling rule of
/// [`TriangleReductionKernel::process`]; sg-dist ranks call it so sharded
/// runs stay bit-identical to `scheme.apply`.
#[inline]
pub fn triangle_sampled(t: &Triangle, p: f64, rand: DetRand) -> bool {
    1.0 - p < rand.unit(triangle_key(t), 1)
}

/// Orders a triangle's edges by `choice`; the first `x` are deletion
/// candidates. `weight_of` supplies edge weights (only consulted by
/// [`EdgeChoice::MaxWeight`]); `tri_counts` supplies per-edge triangle
/// counts (required by [`EdgeChoice::FewestTriangles`]). Shared between the
/// in-process kernel and the sharded executors so both rank identically.
pub fn ranked_triangle_edges(
    t: &Triangle,
    choice: EdgeChoice,
    rand: DetRand,
    weight_of: impl Fn(EdgeId) -> Weight,
    tri_counts: Option<&[u64]>,
) -> [EdgeId; 3] {
    let mut edges = t.edges();
    match choice {
        EdgeChoice::Random => {
            let key = triangle_key(t);
            // Deterministic random rotation + swap = uniform permutation.
            let r = rand.below(key, 2, 6);
            let perm: [usize; 3] = match r {
                0 => [0, 1, 2],
                1 => [0, 2, 1],
                2 => [1, 0, 2],
                3 => [1, 2, 0],
                4 => [2, 0, 1],
                _ => [2, 1, 0],
            };
            edges = [edges[perm[0]], edges[perm[1]], edges[perm[2]]];
        }
        EdgeChoice::MaxWeight => {
            edges.sort_unstable_by(|&a, &b| weight_of(b).total_cmp(&weight_of(a)).then(b.cmp(&a)));
        }
        EdgeChoice::FewestTriangles => {
            let counts = tri_counts.expect("CT requires counts");
            edges.sort_unstable_by_key(|&e| (counts[e as usize], e));
        }
    }
    edges
}

/// Calls `f` on every sampled triangle whose `e_uv` is a canonical edge in
/// `edges`, in canonical `(u, v, w)` order — the triangles one part (an
/// `sg-dist` rank, a federation shard) owns and reduces. Sequential; the
/// call owns the one [`tc::RowScratch`] its part needs.
pub fn for_sampled_triangles(
    g: &CsrGraph,
    p: f64,
    rand: DetRand,
    edges: impl IntoIterator<Item = EdgeId>,
    mut f: impl FnMut(Triangle),
) {
    let mut scratch = tc::RowScratch::new(g);
    for e_uv in edges {
        tc::for_triangles_on_edge(&mut scratch, e_uv, &mut |t: Triangle| {
            if triangle_sampled(&t, p, rand) {
                f(t);
            }
        });
    }
}

/// Plain TR over the part's sampled triangles: calls `delete(e)` once per
/// sampled triangle and chosen edge (so an edge shared by two sampled
/// triangles may be reported twice). An `sg-dist` rank routes each call to
/// the edge's owner; a federation shard collects them into its deletion
/// list.
pub fn plain_tr_deletions(
    g: &CsrGraph,
    cfg: TrConfig,
    rand: DetRand,
    tri_counts: Option<&[u64]>,
    edges: impl IntoIterator<Item = EdgeId>,
    mut delete: impl FnMut(EdgeId),
) {
    for_sampled_triangles(g, cfg.p, rand, edges, |t| {
        let ranked = ranked_triangle_edges(&t, cfg.choice, rand, |e| g.edge_weight(e), tri_counts);
        ranked.iter().take(cfg.x).for_each(|&e| delete(e));
    });
}

/// The Edge-Once commit of one sampled triangle, given the `considered`
/// flags it observes on its edges: `claim(e, delete)` marks `e` considered
/// and, when `delete`, deleted. The in-process kernel reads and writes the
/// [`SgContext`] bitsets; an `sg-dist` rank reads the flags its edge owners
/// reported and sends each claim to the owner.
pub fn edge_once_commit(
    t: &Triangle,
    cfg: TrConfig,
    rand: DetRand,
    weight_of: impl Fn(EdgeId) -> Weight,
    tri_counts: Option<&[u64]>,
    considered: impl Fn(EdgeId) -> bool,
    mut claim: impl FnMut(EdgeId, bool),
) {
    let ranked = || ranked_triangle_edges(t, cfg.choice, rand, &weight_of, tri_counts);
    if cfg.choice == EdgeChoice::FewestTriangles {
        // CT: each edge is considered at most once, and edges in the fewest
        // triangles are removed first. A sampled triangle deletes its first
        // x still-unconsidered edges in rank order — so overlapping
        // triangles spread their deletions over *distinct* edges, which is
        // why CT consistently yields smaller m than plain p-1-TR (Figure 6,
        // right).
        for e in ranked().into_iter().filter(|&e| !considered(e)).take(cfg.x) {
            claim(e, true);
        }
    } else {
        // Protective EO: a sampled triangle proceeds only when *all three*
        // edges are unconsidered, then claims them and deletes x. Reduced
        // triangles are therefore edge-disjoint — the assumption under
        // which §6.1 proves CC preservation, ≤2× stretch, and (with the
        // max-weight choice) exact MST weight. (Listing 1's EO kernel is
        // ambiguous on this point; we pick the reading that realizes the
        // paper's stated guarantees.)
        if t.edges().iter().any(|&e| considered(e)) {
            return; // some edge already claimed by another triangle
        }
        let ranked = ranked();
        for e in t.edges() {
            claim(e, ranked[..cfg.x].contains(&e));
        }
    }
}

/// The TR compression kernel (`p-1-reduction` / `p-1-reduction-EO` of
/// Listing 1, generalized over x and the edge choice).
pub struct TriangleReductionKernel {
    cfg: TrConfig,
    /// Per-edge triangle counts; required by [`EdgeChoice::FewestTriangles`].
    tri_counts: Option<Vec<u64>>,
}

impl TriangleReductionKernel {
    /// Builds the kernel, precomputing per-edge triangle counts when the CT
    /// choice needs them.
    pub fn new(g: &CsrGraph, cfg: TrConfig) -> Self {
        cfg.validate().expect("valid TR configuration");
        let tri_counts =
            (cfg.choice == EdgeChoice::FewestTriangles).then(|| edge_triangle_counts(g));
        Self { cfg, tri_counts }
    }

    /// Orders the triangle's edges by the configured choice; the first `x`
    /// are deleted.
    fn ranked_edges(&self, t: &Triangle, sg: &SgContext<'_>) -> [EdgeId; 3] {
        ranked_triangle_edges(
            t,
            self.cfg.choice,
            sg.rand(),
            |e| sg.graph.edge_weight(e),
            self.tri_counts.as_deref(),
        )
    }

    /// Reduces one *sampled* triangle under the configured discipline.
    fn reduce(&self, t: &Triangle, sg: &SgContext<'_>) {
        match self.cfg.discipline {
            Discipline::Plain => {
                let ranked = self.ranked_edges(t, sg);
                for &e in ranked.iter().take(self.cfg.x) {
                    sg.del_edge(e);
                }
            }
            Discipline::EdgeOnce => edge_once_commit(
                t,
                self.cfg,
                sg.rand(),
                |e| sg.graph.edge_weight(e),
                self.tri_counts.as_deref(),
                |e| sg.edge_considered(e),
                |e, delete| {
                    sg.consider_edge_once(e);
                    if delete {
                        sg.del_edge(e);
                    }
                },
            ),
        }
    }
}

impl TriangleKernel for TriangleReductionKernel {
    fn parallel(&self) -> bool {
        // Edge-Once semantics are enforced via a deterministic sequential
        // pass over the canonically ordered triangle stream.
        self.cfg.discipline == Discipline::Plain
    }

    fn process(&self, t: &Triangle, sg: &SgContext<'_>) {
        if triangle_sampled(t, self.cfg.p, sg.rand()) {
            self.reduce(t, sg);
        }
    }
}

/// Per-edge triangle participation counts.
pub fn edge_triangle_counts(g: &CsrGraph) -> Vec<u64> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let counts: Vec<AtomicU64> = (0..g.num_edges()).map(|_| AtomicU64::new(0)).collect();
    tc::for_each_triangle(g, |t| {
        for e in t.edges() {
            counts[e as usize].fetch_add(1, Ordering::Relaxed);
        }
    });
    counts.into_iter().map(|a| a.into_inner()).collect()
}

/// Runs Triangle Reduction with the given configuration. Plain TR streams
/// every triangle through the engine in parallel. The Edge-Once family (EO,
/// max-weight, CT) is order-sensitive: it collects only the *sampled*
/// triangles — in parallel, one vector per chunk of canonical edge ids,
/// already in canonical `(u, v, w)` order because the ids are — and commits
/// them sequentially, chunk after chunk. Only CT, which re-sorts the stream,
/// pays for a concatenated copy of the sampled list.
pub fn triangle_reduce(g: &CsrGraph, cfg: TrConfig, seed: u64) -> CompressionResult {
    let kernel = TriangleReductionKernel::new(g, cfg);
    if cfg.discipline == Discipline::Plain {
        return Engine::new(seed).run_triangle_kernel(g, &kernel);
    }
    let start = Instant::now();
    let sg = SgContext::new(g, seed);
    let rand = sg.rand();
    let sampled = |t: &Triangle| triangle_sampled(t, cfg.p, rand);
    if let Some(counts) = &kernel.tri_counts {
        // CT processes triangles starting from the rarest edges.
        let mut tris = tc::collect_triangles(g, sampled);
        tris.sort_by_key(|t| {
            let c = t.edges().map(|e| counts[e as usize]);
            (*c.iter().min().expect("three edges"), t.u, t.v, t.w)
        });
        tris.iter().for_each(|t| kernel.reduce(t, &sg));
    } else {
        let chunks = tc::collect_triangle_chunks(g, sampled);
        chunks.iter().flatten().for_each(|t| kernel.reduce(t, &sg));
    }
    CompressionResult::of(g, g.filter_edges(|e| !sg.edge_deleted(e)), None, start)
}

/// Triangle p-Reduction by Collapse: each sampled triangle is contracted to
/// a single vertex (§4.3). Changes the vertex set; parallel edges merge and
/// self-loops vanish during re-canonicalization.
pub fn triangle_collapse(g: &CsrGraph, p: f64, seed: u64) -> CompressionResult {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let start = Instant::now();
    let rand = DetRand::new(seed);
    let mut uf = UnionFind::new(g.num_vertices());
    let chunks = tc::collect_triangle_chunks(g, |t| triangle_sampled(t, p, rand));
    for t in chunks.iter().flatten() {
        uf.union(t.u, t.v);
        uf.union(t.v, t.w);
    }
    // Compact representative ids.
    let n = g.num_vertices();
    let mut new_id: Vec<Option<VertexId>> = vec![None; n];
    let mut next: VertexId = 0;
    for v in 0..n as VertexId {
        let r = uf.find(v);
        if new_id[r as usize].is_none() {
            new_id[r as usize] = Some(next);
            next += 1;
        }
    }
    let mapping: Vec<Option<VertexId>> =
        (0..n as VertexId).map(|v| new_id[uf.find(v) as usize]).collect();
    let mut el = EdgeList::with_capacity(next as usize, g.num_edges());
    for (_, u, v) in g.edge_iter() {
        let (nu, nv) = (
            mapping[u as usize].expect("all vertices mapped"),
            mapping[v as usize].expect("all vertices mapped"),
        );
        if nu != nv {
            el.edges.push((nu, nv));
        }
    }
    CompressionResult::of(g, CsrGraph::from_edge_list(el), Some(mapping), start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_algos::cc::connected_components;
    use sg_algos::mst::minimum_spanning_forest;
    use sg_graph::generators;

    fn triangle_rich() -> CsrGraph {
        generators::planted_triangles(&generators::erdos_renyi(800, 1600, 1), 1200, 2)
    }

    #[test]
    fn plain_p1_full_reduction_kills_all_triangles() {
        let g = triangle_rich();
        let r = triangle_reduce(&g, TrConfig::plain_1(1.0), 3);
        assert_eq!(tc::count_triangles(&r.graph), 0);
        assert!(r.edges_removed() > 0);
    }

    #[test]
    fn p_zero_is_identity() {
        let g = triangle_rich();
        let r = triangle_reduce(&g, TrConfig::plain_1(0.0), 4);
        assert_eq!(r.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn eo_preserves_connected_components_deterministically() {
        // §6.1 "Others": EO forces reduced triangles to be edge-disjoint, so
        // every deleted edge leaves a 2-path behind — CC is exactly
        // preserved, for any p and seed.
        for seed in [5, 6, 7] {
            let g = triangle_rich();
            let before = connected_components(&g).num_components;
            let r = triangle_reduce(&g, TrConfig::edge_once_1(1.0), seed);
            let after = connected_components(&r.graph).num_components;
            assert_eq!(before, after, "seed {seed}");
        }
    }

    #[test]
    fn eo_shortest_paths_stretch_at_most_two() {
        // §6.1: at most one edge deleted per (edge-disjoint) triangle, so
        // s-t distances at most double.
        let g = generators::watts_strogatz(300, 5, 0.1, 8);
        let r = triangle_reduce(&g, TrConfig::edge_once_1(1.0), 9);
        let before = sg_algos::sssp::dijkstra(&g, 0);
        let after = sg_algos::sssp::dijkstra(&r.graph, 0);
        for (b, a) in before.iter().zip(&after) {
            if b.is_finite() {
                assert!(a.is_finite(), "disconnected by EO-TR");
                assert!(*a <= 2.0 * *b + 1e-9, "stretch violated: {b} -> {a}");
            }
        }
    }

    #[test]
    fn max_weight_choice_preserves_mst_weight() {
        let g = generators::with_random_weights(&triangle_rich(), 1.0, 100.0, 10);
        let before = minimum_spanning_forest(&g).total_weight;
        let r = triangle_reduce(&g, TrConfig::max_weight(1.0), 11);
        assert!(r.edges_removed() > 0);
        let after = minimum_spanning_forest(&r.graph).total_weight;
        assert!((before - after).abs() < 1e-3, "MST weight changed: {before} -> {after}");
    }

    #[test]
    fn p2_removes_more_than_p1() {
        let g = triangle_rich();
        let r1 = triangle_reduce(&g, TrConfig::plain_1(0.7), 12);
        let r2 = triangle_reduce(&g, TrConfig::plain_2(0.7), 12);
        assert!(r2.edges_removed() > r1.edges_removed());
    }

    #[test]
    fn ct_removes_more_than_plain_at_fixed_p() {
        // Figure 6 (right): the CT variant consistently delivers smaller m
        // than simple p-1-TR for fixed p = 0.5 — plain TR wastes samples
        // re-deleting edges of overlapping triangles, while CT spreads each
        // sampled triangle's deletion to a fresh edge.
        let g = generators::planted_triangles(&generators::erdos_renyi(600, 1200, 13), 3000, 14);
        let plain = triangle_reduce(&g, TrConfig::plain_1(0.5), 15);
        let ct = triangle_reduce(&g, TrConfig::count_triangles(0.5), 15);
        assert!(
            ct.graph.num_edges() < plain.graph.num_edges(),
            "CT {} vs plain {}",
            ct.graph.num_edges(),
            plain.graph.num_edges()
        );
        // Protective EO trades compression for its §6.1 guarantees: it
        // removes no more than plain, but still compresses.
        let eo = triangle_reduce(&g, TrConfig::edge_once_1(0.5), 15);
        assert!(eo.edges_removed() > 0);
        assert!(eo.graph.num_edges() >= plain.graph.num_edges());
    }

    #[test]
    fn collapse_shrinks_vertex_set() {
        let g = triangle_rich();
        let r = triangle_collapse(&g, 0.8, 16);
        assert!(r.graph.num_vertices() < g.num_vertices());
        let mapping = r.vertex_mapping.expect("collapse relabels");
        // Mapping must be total and within bounds.
        for m in &mapping {
            let id = m.expect("collapse never removes vertices outright");
            assert!((id as usize) < r.graph.num_vertices());
        }
    }

    #[test]
    fn collapse_preserves_connectivity() {
        let g = triangle_rich();
        let before = connected_components(&g).num_components;
        let r = triangle_collapse(&g, 0.5, 17);
        let after = connected_components(&r.graph).num_components;
        // Contraction can only merge components' vertices, never split.
        assert!(after <= before);
        // Vertices drop but components of the *collapsed* graph match the
        // originals (contraction is connectivity-preserving).
        assert_eq!(before - after, 0, "collapse changed component count");
    }

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(TrConfig::plain_1(0.5).label(), "0.5-1-TR");
        assert_eq!(TrConfig::edge_once_1(0.5).label(), "EO-0.5-1-TR");
        assert_eq!(TrConfig::count_triangles(0.5).label(), "CT-0.5-1-TR");
    }

    #[test]
    fn deterministic() {
        let g = triangle_rich();
        let a = triangle_reduce(&g, TrConfig::edge_once_1(0.6), 18);
        let b = triangle_reduce(&g, TrConfig::edge_once_1(0.6), 18);
        assert_eq!(a.graph.edge_slice(), b.graph.edge_slice());
    }

    use sg_graph::CsrGraph;
}
