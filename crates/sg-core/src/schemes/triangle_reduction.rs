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
//! **One decision per triangle.** [`decide_triangle`] hashes the triangle
//! once ([`triangle_key`]) and derives both "sampled?" and the ranked edges
//! from that key; every executor — the engine's chunks, `sg-dist`'s ranks,
//! federation shards, collapse — calls it and nothing else decides.
//!
//! **Executors.** Partitioned executors split the canonical edge ids: a
//! triangle belongs to its edge `e_uv`, and `sg_algos::tc` hands each edge's
//! triangles over as one slice. Over a slice the decisions are appended
//! without a data-dependent branch (`Kept::append`): every triangle's
//! result is written through an index into a pre-sized buffer and the index
//! advances by what is kept — a 50 % coin is a branch no predictor learns.
//!
//! * **Plain** — state-free, so each chunk of canonical edges collects its
//!   deletions into a plain list of edge ids; the lists are OR-ed into one
//!   bitset and the survivors filtered. No atomic is touched: one atomic
//!   read-modify-write per sampled triangle inside the probe loop cost more
//!   than the rest of the decision (see `sg_algos::tc`).
//! * **Ordered (EO, max-weight, CT)** — each chunk keeps only its sampled
//!   triangles, as ranked 12-byte edge triples in canonical `(u, v, w)`
//!   order (a `Triangle` is 24 bytes), and one sequential pass commits them
//!   chunk after chunk through [`edge_once_commit`] against two plain
//!   bitsets (considered, deleted). CT wants the order `(min count, u, v, w)`:
//!   a triple is ranked by `(count, id)`, so its first edge carries the
//!   triangle's min count, and a *stable* sort by that count of the
//!   canonical stream leaves ties in `(u, v, w)` order — that very order.

use crate::context::DetRand;
use crate::engine::{CompressionResult, EdgeBits};
use crate::kernel::Triangle;
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

    /// Scheme label matching the paper's naming (`EO-0.5-1-TR`, …); the
    /// max-weight edge choice is `MW-`.
    pub fn label(&self) -> String {
        let prefix = match (self.discipline, self.choice) {
            (Discipline::Plain, _) => "",
            (Discipline::EdgeOnce, EdgeChoice::FewestTriangles) => "CT-",
            (Discipline::EdgeOnce, EdgeChoice::MaxWeight) => "MW-",
            (Discipline::EdgeOnce, _) => "EO-",
        };
        format!("{prefix}{}-{}-TR", self.p, self.x)
    }
}

/// Deterministic per-triangle key for sampling decisions — the single
/// source of truth for TR randomness, hashed once per triangle by
/// [`decide_triangle`].
#[inline]
pub fn triangle_key(t: &Triangle) -> u64 {
    mix64(t.u as u64 ^ mix64(t.v as u64 ^ mix64(t.w as u64)))
}

/// The six orders of a triangle's edges; [`EdgeChoice::Random`] picks one
/// with a uniform draw in `0..6` — a random rotation plus swap.
const PERMUTATIONS: [[usize; 3]; 6] =
    [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];

/// The TR decision for triangle `t`: whether it is sampled at `cfg.p`
/// under `rand`, and its edges ranked by `cfg.choice` — a sampled
/// triangle's first `x` are its deletion candidates. Random ranks by a
/// uniform permutation, max-weight by `weight_of` (heaviest first, ties to
/// the larger id), CT by `tri_counts` (rarest first, ties to the smaller
/// id). Both halves come from one [`triangle_key`]. Pure: every executor
/// gets the same answer for the same triangle.
#[inline]
pub fn decide_triangle(
    t: &Triangle,
    cfg: TrConfig,
    rand: DetRand,
    weight_of: impl Fn(EdgeId) -> Weight,
    tri_counts: Option<&[u64]>,
) -> (bool, [EdgeId; 3]) {
    let key = triangle_key(t);
    let sampled = 1.0 - cfg.p < rand.unit(key, 1);
    let mut edges = t.edges();
    match cfg.choice {
        EdgeChoice::Random => {
            edges = PERMUTATIONS[rand.below(key, 2, 6) as usize].map(|i| edges[i])
        }
        EdgeChoice::MaxWeight => {
            edges.sort_unstable_by(|&a, &b| weight_of(b).total_cmp(&weight_of(a)).then(b.cmp(&a)));
        }
        EdgeChoice::FewestTriangles => {
            let counts = tri_counts.expect("CT requires counts");
            edges.sort_unstable_by_key(|&e| (counts[e as usize], e));
        }
    }
    (sampled, edges)
}

/// A list appended to without a data-dependent branch: `items` may run
/// ahead of the list's `len` (the tail is scratch), so [`Kept::append`]
/// writes all of a triangle's items through an index and advances the
/// index by what it keeps.
struct Kept<T> {
    items: Vec<T>,
    len: usize,
}

impl<T: Copy + Default> Kept<T> {
    fn new() -> Self {
        Self { items: Vec::new(), len: 0 }
    }

    /// Appends, triangle by triangle of `tris`, the first `kept` of the `N`
    /// items `f` returns. Room for all of them is made first: one branch
    /// per slice, none per triangle.
    #[inline]
    fn append<const N: usize>(
        &mut self,
        tris: &[Triangle],
        f: impl Fn(&Triangle) -> ([T; N], usize),
    ) {
        let end = self.len + N * tris.len();
        if self.items.len() < end {
            self.items.resize(end, T::default());
        }
        let mut len = self.len;
        for t in tris {
            let (items, kept) = f(t);
            self.items[len..len + N].copy_from_slice(&items);
            len += kept;
        }
        self.len = len;
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }

    fn into_vec(mut self) -> Vec<T> {
        self.items.truncate(self.len);
        self.items
    }
}

/// Plain TR over one slice of triangles: appends the first `x` ranked edges
/// of every sampled triangle to a deletion list (so an edge shared by two
/// sampled triangles may be listed twice).
fn plain_deletions<'a>(
    g: &'a CsrGraph,
    cfg: TrConfig,
    rand: DetRand,
    tri_counts: Option<&'a [u64]>,
) -> impl Fn(&mut Kept<EdgeId>, &[Triangle]) + Sync + 'a {
    move |deletions, tris| {
        deletions.append(tris, |t| {
            let (sampled, ranked) = decide_triangle(t, cfg, rand, |e| g.edge_weight(e), tri_counts);
            (ranked, usize::from(sampled) * cfg.x)
        })
    }
}

/// Plain TR over the triangles one part owns (`e_uv` in `edges`): the
/// part's deletion list, in canonical triangle order, repeats included. An
/// `sg-dist` rank routes each entry to the edge's owner; a federation shard
/// sorts and deduplicates it into its reply.
pub fn plain_tr_deletions(
    g: &CsrGraph,
    cfg: TrConfig,
    rand: DetRand,
    tri_counts: Option<&[u64]>,
    edges: impl IntoIterator<Item = EdgeId>,
) -> Vec<EdgeId> {
    let append = plain_deletions(g, cfg, rand, tri_counts);
    let mut deletions = Kept::new();
    tc::for_triangles_in(g, edges, |tris| append(&mut deletions, tris));
    deletions.into_vec()
}

/// Calls `f` with every sampled triangle whose `e_uv` is a canonical edge in
/// `edges` and its ranked edges, in canonical `(u, v, w)` order — the
/// triangles an `sg-dist` rank reduces under the Edge-Once protocol.
/// Sequential; the call owns the one row scratch its part needs.
pub fn for_sampled_triangles(
    g: &CsrGraph,
    cfg: TrConfig,
    rand: DetRand,
    tri_counts: Option<&[u64]>,
    edges: impl IntoIterator<Item = EdgeId>,
    mut f: impl FnMut(&Triangle, [EdgeId; 3]),
) {
    tc::for_triangles_in(g, edges, |tris| {
        for t in tris {
            let (sampled, ranked) = decide_triangle(t, cfg, rand, |e| g.edge_weight(e), tri_counts);
            if sampled {
                f(t, ranked);
            }
        }
    });
}

/// The Edge-Once commit of one sampled triangle with edges `ranked` (as
/// [`decide_triangle`] ranks them), given whether each is already
/// considered: calls `claim(e, delete)` for every edge it marks considered
/// and, when `delete`, deleted. The engine reads and writes two plain
/// bitsets in one sequential pass; an `sg-dist` rank reads the flags its
/// edge owners reported and sends each claim to the owner.
pub fn edge_once_commit(
    ranked: [EdgeId; 3],
    considered: [bool; 3],
    cfg: TrConfig,
    mut claim: impl FnMut(EdgeId, bool),
) {
    if cfg.choice == EdgeChoice::FewestTriangles {
        // CT: each edge is considered at most once, and edges in the fewest
        // triangles are removed first. A sampled triangle deletes its first
        // x still-unconsidered edges in rank order — so overlapping
        // triangles spread their deletions over *distinct* edges, which is
        // why CT consistently yields smaller m than plain p-1-TR (Figure 6,
        // right).
        let fresh = ranked.into_iter().zip(considered).filter(|&(_, seen)| !seen);
        fresh.take(cfg.x).for_each(|(e, _)| claim(e, true));
    } else if !considered.contains(&true) {
        // Protective EO: a sampled triangle proceeds only when *all three*
        // edges are unconsidered, then claims them and deletes x. Reduced
        // triangles are therefore edge-disjoint — the assumption under
        // which §6.1 proves CC preservation, ≤2× stretch, and (with the
        // max-weight choice) exact MST weight. (Listing 1's EO kernel is
        // ambiguous on this point; we pick the reading that realizes the
        // paper's stated guarantees.)
        ranked.into_iter().enumerate().for_each(|(i, e)| claim(e, i < cfg.x));
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

/// Runs Triangle Reduction with the given configuration on the pool — what
/// `crate::run_plan` does with a triangle plan (see the module docs for the
/// two executors). Plain TR collects one deletion list per chunk of
/// canonical edges in parallel; the Edge-Once family (EO, max-weight, CT)
/// collects the ranked sampled triangles per chunk in parallel and commits
/// them sequentially, chunk after chunk — only CT, which re-sorts the
/// stream, pays for a concatenated copy.
pub(crate) fn triangle_reduce(g: &CsrGraph, cfg: TrConfig, seed: u64) -> CompressionResult {
    cfg.validate().expect("valid TR configuration");
    let counts = (cfg.choice == EdgeChoice::FewestTriangles).then(|| edge_triangle_counts(g));
    let counts = counts.as_deref();
    let start = Instant::now();
    let rand = DetRand::new(seed);
    let mut deleted = EdgeBits::new(g.num_edges());
    if cfg.discipline == Discipline::Plain {
        let lists = tc::fold_triangles(g, Kept::new, plain_deletions(g, cfg, rand, counts));
        lists.iter().flat_map(Kept::as_slice).for_each(|&e| deleted.set(e));
    } else {
        let chunks = tc::fold_triangles(g, Kept::new, |kept, tris| {
            kept.append(tris, |t| {
                let (sampled, ranked) = decide_triangle(t, cfg, rand, |e| g.edge_weight(e), counts);
                ([ranked], usize::from(sampled))
            })
        });
        let mut considered = EdgeBits::new(g.num_edges());
        let commit = |ranked: [EdgeId; 3]| {
            edge_once_commit(ranked, ranked.map(|e| considered.get(e)), cfg, |e, delete| {
                considered.set(e);
                if delete {
                    deleted.set(e);
                }
            })
        };
        let stream = chunks.iter().flat_map(Kept::as_slice).copied();
        if let Some(counts) = counts {
            // CT processes triangles starting from the rarest edges.
            let mut stream: Vec<[EdgeId; 3]> = stream.collect();
            stream.sort_by_key(|ranked| counts[ranked[0] as usize]);
            stream.into_iter().for_each(commit);
        } else {
            stream.for_each(commit);
        }
    }
    CompressionResult::of(g, g.filter_edges(|e| !deleted.get(e)), None, start)
}

/// Triangle p-Reduction by Collapse: each sampled triangle is contracted to
/// a single vertex (§4.3). Changes the vertex set; parallel edges merge and
/// self-loops vanish during re-canonicalization. The body of the
/// `collapse` scheme's `apply`.
pub(crate) fn triangle_collapse(g: &CsrGraph, p: f64, seed: u64) -> CompressionResult {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let start = Instant::now();
    let (cfg, rand) = (TrConfig::plain_1(p), DetRand::new(seed));
    let chunks = tc::fold_triangles(g, Kept::new, |kept, tris| {
        kept.append(tris, |t| {
            let (sampled, _) = decide_triangle(t, cfg, rand, |_| 1.0, None);
            ([[t.u, t.v, t.w]], usize::from(sampled))
        })
    });
    let mut uf = UnionFind::new(g.num_vertices());
    for &[u, v, w] in chunks.iter().flat_map(Kept::as_slice) {
        uf.union(u, v);
        uf.union(v, w);
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
        assert_eq!(TrConfig::max_weight(0.5).label(), "MW-0.5-1-TR");
    }

    #[test]
    fn deterministic() {
        let g = triangle_rich();
        let a = triangle_reduce(&g, TrConfig::edge_once_1(0.6), 18);
        let b = triangle_reduce(&g, TrConfig::edge_once_1(0.6), 18);
        assert_eq!(a.graph.edge_slice(), b.graph.edge_slice());
    }

    #[test]
    fn one_key_draws_the_coin_and_the_permutation() {
        // Listing 1's coin and a uniform permutation, both keyed by the one
        // triangle key; max-weight and CT rank by their tables instead.
        let g = generators::with_random_weights(&triangle_rich(), 1.0, 100.0, 19);
        let counts = edge_triangle_counts(&g);
        let rand = DetRand::new(20);
        let tris = tc::list_triangles(&g);
        let (mut sampled, mut firsts) = (0usize, [0usize; 3]);
        for t in &tris {
            let key = triangle_key(t);
            let coin = 1.0 - 0.4 < rand.unit(key, 1);
            let weight = |e: EdgeId| g.edge_weight(e);
            let decide = |choice| {
                let cfg = TrConfig { choice, ..TrConfig::plain_1(0.4) };
                decide_triangle(t, cfg, rand, weight, Some(&counts))
            };
            let (s, ranked) = decide(EdgeChoice::Random);
            assert_eq!(s, coin);
            let perm = PERMUTATIONS[rand.below(key, 2, 6) as usize];
            assert_eq!(ranked, perm.map(|i| t.edges()[i]));
            firsts[perm[0]] += 1;
            sampled += usize::from(s);
            let (s, heaviest_first) = decide(EdgeChoice::MaxWeight);
            assert_eq!(s, coin);
            assert!(heaviest_first.windows(2).all(|p| weight(p[0]) >= weight(p[1])));
            let (s, rarest_first) = decide(EdgeChoice::FewestTriangles);
            assert_eq!(s, coin);
            assert!(rarest_first
                .windows(2)
                .all(|p| counts[p[0] as usize] <= counts[p[1] as usize]));
        }
        let n = tris.len();
        assert!(sampled.abs_diff(4 * n / 10) < n / 20, "{sampled} of {n} sampled at p = 0.4");
        assert!(firsts.iter().all(|&f| f.abs_diff(n / 3) < n / 20), "first edges {firsts:?}");
    }

    #[test]
    fn edge_once_commit_claims_by_discipline() {
        let claims = |considered, cfg| {
            let mut out = Vec::new();
            edge_once_commit([7, 8, 9], considered, cfg, |e, delete| out.push((e, delete)));
            out
        };
        // Protective EO: all three unconsidered → claim all, delete the first x.
        let eo = TrConfig::edge_once_1(1.0);
        assert_eq!(claims([false; 3], eo), [(7, true), (8, false), (9, false)]);
        let eo2 = TrConfig { x: 2, ..eo };
        assert_eq!(claims([false; 3], eo2), [(7, true), (8, true), (9, false)]);
        assert!(claims([false, false, true], eo).is_empty());
        // CT: the first x unconsidered edges in rank order, each deleted.
        let ct = TrConfig::count_triangles(1.0);
        assert_eq!(claims([true, false, false], ct), [(8, true)]);
        assert_eq!(claims([true, false, false], TrConfig { x: 2, ..ct }), [(8, true), (9, true)]);
        assert!(claims([true; 3], ct).is_empty());
    }

    #[test]
    fn kept_list_is_the_concatenation_of_what_each_triangle_keeps() {
        // Slices of different lengths, an empty one, and kept counts 0..=N:
        // every item is written, only the kept prefix of each survives.
        let t = |w| Triangle { u: 0, v: 1, w, e_uv: 0, e_vw: w, e_uw: w + 100 };
        let slices: [Vec<Triangle>; 4] =
            [(2..5).map(t).collect(), vec![], (5..6).map(t).collect(), (6..40).map(t).collect()];
        let mut kept = Kept::new();
        let mut expected = Vec::new();
        for tris in &slices {
            kept.append(tris, |t| ([t.w, t.e_uw], t.w as usize % 3));
            for t in tris {
                expected.extend([t.w, t.e_uw].into_iter().take(t.w as usize % 3));
            }
            assert_eq!(kept.as_slice(), expected);
        }
        assert_eq!(kept.into_vec(), expected);
    }

    use sg_graph::CsrGraph;
}
