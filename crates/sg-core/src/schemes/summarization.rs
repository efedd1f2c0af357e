//! Lossy ϵ-summarization (§4.5.4) — a SWeG-style scheme \[141\].
//!
//! Vertices are merged into *supervertices* by generalized Jaccard
//! similarity (minhash-grouped, with the SWeG threshold schedule
//! `θ(t) = 1/(1+t)`); dense inter-supervertex edge groups become
//! *superedges*. Exactness is retained through two correction sets: edges a
//! superedge over-covers (`corrections_minus`) and edges no superedge covers
//! (`corrections_plus`) — Listing 1's `derive_summary` kernel state. The
//! lossy knob ϵ drops up to `ϵ·m` corrections from each set, bounding the
//! symmetric difference of the reconstruction by `2ϵm` (Table 3's
//! `m ± 2ϵm` row).
//!
//! Four phases over flat, sorted arrays:
//!
//! 1. **Group.** Each iteration hashes every alive supervertex's
//!    neighbourhood in parallel and sorts the `(minhash, supervertex)`
//!    pairs: runs of equal hash are the candidate groups, members ascending.
//! 2. **Score and merge.** Inside a group the smallest id is the
//!    representative and every later member is scored against the *running*
//!    union of what it absorbed so far — sequential by definition. Across
//!    groups nothing is shared: the groups partition the alive
//!    supervertices, and a group reads and replaces only its own members'
//!    state, held in vectors indexed by vertex id (a neighbourhood nobody
//!    merged into is the borrowed CSR row). So all groups are scored in
//!    parallel against the state the iteration began with and committed
//!    afterwards; the outcome cannot depend on the order in which, or the
//!    thread on which, a group was handled — the workspace's determinism
//!    contract by construction rather than by an ordered reduction.
//! 3. **Encode.** The edges are sorted once by `(supervertex pair, edge)`;
//!    each run is one pair. A run covering more than half of its pair's
//!    potential becomes a superedge whose missing pairs are found by binary
//!    search in the run itself; any other run goes to `corrections_plus`.
//!    The ϵ budget then drops corrections and whole superedge groups in a
//!    seeded pseudo-random order.
//! 4. **Reconstruct** ([`Summary::decompress`]), on sorted vectors. The
//!    reconstruction is **unweighted** — input weights are dropped — and
//!    keeps all `n` input vertices, merged or isolated.

use crate::engine::CompressionResult;
use rayon::prelude::*;
use sg_graph::prng::mix64;
use sg_graph::{CsrGraph, EdgeList, VertexId};
use std::ops::Range;
use std::time::Instant;

type Edge = (VertexId, VertexId);

/// Merge iterations of the registry's `summary` scheme and of
/// [`SummarizationConfig::default`] (SWeG uses tens; clusters converge fast
/// at our scales).
pub const MAX_MERGE_ITERATIONS: usize = 8;

/// Configuration for ϵ-summarization.
#[derive(Clone, Copy, Debug)]
pub struct SummarizationConfig {
    /// Error knob: up to `ϵ·m` corrections dropped from each correction set.
    pub epsilon: f64,
    /// Maximum merge iterations.
    pub max_iterations: usize,
    /// Seed for minhash grouping and correction dropping.
    pub seed: u64,
}

impl Default for SummarizationConfig {
    fn default() -> Self {
        Self { epsilon: 0.0, max_iterations: MAX_MERGE_ITERATIONS, seed: 0 }
    }
}

/// A graph summary: supervertices + superedges + corrections.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Supervertex id per original vertex.
    pub supervertex_of: Vec<u32>,
    /// Member lists per supervertex.
    pub supervertices: Vec<Vec<VertexId>>,
    /// Superedges `(a, b)` with `a <= b`; `a == b` encodes an internal
    /// near-clique.
    pub superedges: Vec<(u32, u32)>,
    /// Edges that exist but are not covered by any superedge.
    pub corrections_plus: Vec<Edge>,
    /// Non-edges covered by a superedge (to delete on decompression).
    pub corrections_minus: Vec<Edge>,
    /// Corrections irreversibly dropped by the ϵ knob.
    pub dropped_plus: usize,
    /// Dropped minus-corrections.
    pub dropped_minus: usize,
    /// Merge iterations executed.
    pub iterations: usize,
    original_vertices: usize,
    original_edges: usize,
}

impl Summary {
    /// Storage cost in "edge units": superedges plus retained corrections
    /// (what the summary actually stores).
    pub fn storage_cost(&self) -> usize {
        self.superedges.len() + self.corrections_plus.len() + self.corrections_minus.len()
    }

    /// Number of supervertices.
    pub fn num_supervertices(&self) -> usize {
        self.supervertices.len()
    }

    /// Reconstructs the (approximate) graph the summary encodes: every
    /// superedge expanded, `corrections_minus` removed, `corrections_plus`
    /// added. Unweighted, on all `n` input vertices; with `ϵ = 0` its edges
    /// are exactly the input's.
    pub fn decompress(&self) -> CsrGraph {
        let mut edges: Vec<Edge> =
            Vec::with_capacity(self.superedges.len() + self.corrections_plus.len());
        for &pair in &self.superedges {
            for_member_pairs(&self.supervertices, pair, |p| edges.push(p));
        }
        if !self.corrections_minus.is_empty() {
            let mut minus: Vec<Edge> =
                self.corrections_minus.iter().map(|&(u, v)| ordered(u, v)).collect();
            minus.sort_unstable();
            edges.retain(|e| minus.binary_search(e).is_err());
        }
        edges.extend(self.corrections_plus.iter().map(|&(u, v)| ordered(u, v)));
        // Sorted here: unless a pair repeats, the builder's one scan finds
        // the list canonical and neither copies nor sorts it.
        edges.sort_unstable();
        CsrGraph::from_edge_list(EdgeList {
            num_vertices: self.original_vertices,
            edges,
            weights: None,
        })
    }

    /// Symmetric difference between the reconstruction and `original`
    /// (the accuracy the ϵ bound guards).
    pub fn reconstruction_error(&self, original: &CsrGraph) -> usize {
        let recon = self.decompress();
        let (a, b) = (original.edge_slice(), recon.edge_slice());
        a.len() + b.len() - 2 * intersection_len(a, b, 0).expect("zero is always reached")
    }

    /// Edge count of the input graph.
    pub fn original_edges(&self) -> usize {
        self.original_edges
    }
}

fn ordered(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// A pair as one word: it sorts like the tuple at half the comparisons, and
/// it is the element id the seeded drop orders hash.
fn pack((a, b): (u32, u32)) -> u64 {
    (a as u64) << 32 | b as u64
}

/// `|a ∩ b|` of two strictly ascending slices, or `None` as soon as it is
/// certain to stay below `need`: an element one side steps over is one the
/// intersection cannot contain.
fn intersection_len<T: Ord>(a: &[T], b: &[T], need: usize) -> Option<usize> {
    let (spare_a, spare_b) = (a.len().checked_sub(need)?, b.len().checked_sub(need)?);
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        // Branch-free: which side advances is a coin flip to the predictor.
        let (le, ge) = (a[i] <= b[j], a[i] >= b[j]);
        i += usize::from(le);
        j += usize::from(ge);
        inter += usize::from(le && ge);
        if i - inter > spare_a || j - inter > spare_b {
            return None;
        }
    }
    (inter >= need).then_some(inter)
}

/// Whether the Jaccard similarity of two ascending vertex sets is at least
/// `threshold` (two empty sets are identical).
fn jaccard_reaches(a: &[VertexId], b: &[VertexId], threshold: f64) -> bool {
    let total = a.len() + b.len();
    // `|a ∩ b| / (total − |a ∩ b|) ≥ threshold` takes an intersection of
    // `threshold · total / (1 + threshold)`. One less absorbs the rounding;
    // the walk gives up once even that is out of reach, which settles most
    // candidates by their sizes alone.
    let need = ((threshold * total as f64 / (1.0 + threshold)) as usize).saturating_sub(1);
    total == 0
        || intersection_len(a, b, need)
            .is_some_and(|inter| inter as f64 / (total - inter) as f64 >= threshold)
}

/// Writes `a ∪ b` (both ascending) into `out`.
fn union_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Calls `f` on every vertex pair the superedge `(a, b)` covers, as a
/// canonical edge: all of `A × B`, or the `|A|·(|A|−1)/2` internal pairs
/// when `a == b`.
fn for_member_pairs(supervertices: &[Vec<VertexId>], (a, b): (u32, u32), mut f: impl FnMut(Edge)) {
    let (ma, mb) = (&supervertices[a as usize], &supervertices[b as usize]);
    for (i, &u) in ma.iter().enumerate() {
        let partners = if a == b { &ma[i + 1..] } else { &mb[..] };
        partners.iter().for_each(|&v| f(ordered(u, v)));
    }
}

/// Supervertex state of the merge loop, in vectors indexed by vertex id.
struct MergeState<'g> {
    g: &'g CsrGraph,
    /// `parent[s] == s` while `s` represents a supervertex; an absorbed
    /// representative points at the (smaller) one that absorbed it.
    parent: Vec<u32>,
    /// The representatives, ascending.
    alive: Vec<u32>,
    /// Neighbourhood of a representative that absorbed others; empty for
    /// one that never did, whose neighbourhood is still its CSR row.
    merged: Vec<Vec<VertexId>>,
}

/// The merges one chunk of groups accepted: the new neighbourhood of every
/// representative that absorbed something, and `(absorbed, into)` pairs.
#[derive(Default)]
struct Merges {
    unions: Vec<(u32, Vec<VertexId>)>,
    absorbed: Vec<(u32, u32)>,
}

impl<'g> MergeState<'g> {
    fn new(g: &'g CsrGraph) -> Self {
        let n = g.num_vertices();
        let ids: Vec<u32> = (0..n as u32).collect();
        Self { g, parent: ids.clone(), alive: ids, merged: vec![Vec::new(); n] }
    }

    fn neighbourhood(&self, s: u32) -> &[VertexId] {
        let merged = &self.merged[s as usize];
        if merged.is_empty() {
            self.g.neighbors(s)
        } else {
            merged
        }
    }

    /// Phase 1: the sorted `(minhash, supervertex)` pairs of the alive
    /// supervertices; a run of equal hash is a group, smallest id first.
    fn minhash_pairs(&self, seed: u64, t: usize) -> Vec<(u64, u32)> {
        let salt = seed ^ (t as u64) << 32;
        let mut pairs: Vec<(u64, u32)> = self
            .alive
            .par_iter()
            .map(|&s| {
                let hashes = self.neighbourhood(s).iter().map(|&u| mix64(salt ^ u as u64));
                (hashes.min().unwrap_or(mix64(seed ^ s as u64)), s)
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Phase 2, against the frozen state: each group's later members scored
    /// in order against the running union of its first; groups in parallel.
    fn score(&self, groups: &[&[(u64, u32)]], threshold: f64) -> Vec<Merges> {
        groups
            .par_iter()
            .fold(
                || (Merges::default(), Vec::new()),
                |(mut out, mut next), group| {
                    let (rep, mut union) = (group[0].1, Vec::new());
                    for &(_, s) in &group[1..] {
                        let a = if union.is_empty() { self.neighbourhood(rep) } else { &union };
                        let b = self.neighbourhood(s);
                        if jaccard_reaches(a, b, threshold) {
                            union_into(a, b, &mut next);
                            std::mem::swap(&mut union, &mut next);
                            out.absorbed.push((s, rep));
                        }
                    }
                    if !union.is_empty() {
                        out.unions.push((rep, union));
                    }
                    (out, next)
                },
            )
            .map(|(out, _)| out)
            .collect()
    }

    /// Commits scored merges; returns how many supervertices were absorbed.
    fn commit(&mut self, chunks: Vec<Merges>) -> usize {
        let mut merges = 0;
        for chunk in chunks {
            merges += chunk.absorbed.len();
            for (rep, union) in chunk.unions {
                self.merged[rep as usize] = union;
            }
            for (s, rep) in chunk.absorbed {
                self.parent[s as usize] = rep;
                self.merged[s as usize] = Vec::new();
            }
        }
        let parent = &self.parent;
        self.alive.retain(|&s| parent[s as usize] == s);
        merges
    }

    /// One iteration of the merge loop at SWeG's threshold `θ(t) = 1/(1+t)`.
    fn iterate(&mut self, seed: u64, t: usize) -> usize {
        let pairs = self.minhash_pairs(seed, t);
        let groups: Vec<&[(u64, u32)]> =
            pairs.chunk_by(|x, y| x.0 == y.0).filter(|group| group.len() > 1).collect();
        let merges = self.score(&groups, 1.0 / (1.0 + t as f64));
        self.commit(merges)
    }

    /// Ends the merge loop: the dense supervertex id (rank of its
    /// representative) of every vertex.
    fn into_supervertex_of(self) -> Vec<u32> {
        // An absorber is smaller than what it absorbs, so ascending order
        // meets every parent already rewritten to its root's dense id.
        let (mut sv, mut roots) = (self.parent, 0);
        for v in 0..sv.len() {
            let p = sv[v] as usize;
            sv[v] = if p == v { roots } else { sv[p] };
            roots += u32::from(p == v);
        }
        sv
    }
}

/// A dense supervertex pair: a superedge unless the ϵ budget drops it.
struct Code {
    pair: (u32, u32),
    /// Number of edges the pair actually contains.
    present: usize,
    /// Its missing pairs, as a range of the shared `minus` list.
    minus: Range<usize>,
}

/// Phase 3 (the `derive_summary` kernel per cluster pair): a run of the
/// `(supervertex pair, edge)` order holding more than half of the pairs its
/// supervertices span becomes a [`Code`] with the pairs it lacks as `minus`
/// corrections (`SG.superedge` returning `(se, inter)`), any other run's
/// edges are `plus` corrections. Returns `(codes, minus, plus)`, each in
/// pair order, then edge order.
fn encode(
    g: &CsrGraph,
    supervertex_of: &[u32],
    supervertices: &[Vec<VertexId>],
) -> (Vec<Code>, Vec<Edge>, Vec<Edge>) {
    let sv = |v: VertexId| supervertex_of[v as usize];
    let mut keyed: Vec<(u64, Edge)> = g
        .edge_slice()
        .par_iter()
        .map(|&(u, v)| (pack(ordered(sv(u), sv(v))), ordered(u, v)))
        .collect();
    keyed.sort_unstable();
    let (mut codes, mut minus, mut plus) = (Vec::new(), Vec::new(), Vec::new());
    for run in keyed.chunk_by(|x, y| x.0 == y.0) {
        let (u, v) = run[0].1;
        let pair @ (a, b) = ordered(sv(u), sv(v));
        let (na, nb) = (supervertices[a as usize].len(), supervertices[b as usize].len());
        let potential = if a == b { na * (na - 1) / 2 } else { na * nb };
        if 2 * run.len() <= potential {
            plus.extend(run.iter().map(|x| x.1));
            continue;
        }
        let start = minus.len();
        // A full run (every 1 × 1 pair is one) has nothing to look for.
        if run.len() < potential {
            for_member_pairs(supervertices, pair, |p| {
                if run.binary_search_by_key(&p, |x| x.1).is_err() {
                    minus.push(p);
                }
            });
        }
        codes.push(Code { pair, present: run.len(), minus: start..minus.len() });
    }
    (codes, minus, plus)
}

/// Builds a summary of `g` (the convergence loop of Listing 2: construct
/// mapping, run kernels, repeat until converged).
pub fn summarize(g: &CsrGraph, cfg: SummarizationConfig) -> Summary {
    assert!(cfg.epsilon >= 0.0, "epsilon must be non-negative");
    let m = g.num_edges();

    let mut state = MergeState::new(g);
    let mut iterations = 0;
    for t in 0..cfg.max_iterations {
        iterations = t + 1;
        if state.iterate(cfg.seed, t) == 0 {
            break;
        }
    }
    let mut supervertices: Vec<Vec<VertexId>> = vec![Vec::new(); state.alive.len()];
    let supervertex_of = state.into_supervertex_of();
    for (v, &s) in supervertex_of.iter().enumerate() {
        supervertices[s as usize].push(v as VertexId);
    }

    let (mut codes, minus, mut corrections_plus) = encode(g, &supervertex_of, &supervertices);

    // --- Lossy drop (the ϵ knob) ------------------------------------------
    // Two mechanisms, matching §4.5.4: (a) `summary_select` drops
    // intra/inter correction entries, and (b) `SG.superedge` drops sampled
    // edge groups outright. Each consumes an ϵ·m edge-loss budget, keeping
    // the reconstruction's symmetric difference within 2ϵm (Table 3).
    let budget = (cfg.epsilon * m as f64).floor() as usize;
    let dropped_plus = drop_corrections(&mut corrections_plus, budget, cfg.seed ^ 0x9);
    // (b): drop whole sampled superedge groups, smallest first, while the
    // remaining plus-budget allows (losing `present` edges per group).
    let mut superedge_budget = budget - dropped_plus;
    if superedge_budget > 0 {
        codes.sort_by_cached_key(|c| (c.present, mix64(cfg.seed ^ 0xB ^ pack(c.pair))));
        codes.retain(|c| {
            let dropped = superedge_budget >= c.present; // edges lost, corrections freed
            superedge_budget -= if dropped { c.present } else { 0 };
            !dropped
        });
        codes.sort_unstable_by_key(|c| c.pair);
    }
    let dropped_plus = budget - superedge_budget;
    let superedges: Vec<(u32, u32)> = codes.iter().map(|c| c.pair).collect();
    let mut corrections_minus: Vec<Edge> =
        codes.iter().flat_map(|c| &minus[c.minus.clone()]).copied().collect();
    corrections_minus.sort_unstable();
    let dropped_minus = drop_corrections(&mut corrections_minus, budget, cfg.seed ^ 0xA);

    Summary {
        supervertex_of,
        supervertices,
        superedges,
        corrections_plus,
        corrections_minus,
        dropped_plus,
        dropped_minus,
        iterations,
        original_vertices: g.num_vertices(),
        original_edges: m,
    }
}

/// Drops up to `budget` corrections pseudo-randomly (deterministic per
/// seed) and leaves the rest sorted; returns the number dropped.
fn drop_corrections(corrections: &mut Vec<Edge>, budget: usize, seed: u64) -> usize {
    if budget == 0 || corrections.is_empty() {
        return 0;
    }
    let drop = budget.min(corrections.len());
    // The victims are the `drop` smallest in a seeded random order; each
    // key is hashed once and nothing but the cut needs that order.
    let mut keyed: Vec<(u64, Edge)> =
        corrections.iter().map(|&e| (mix64(seed ^ pack(e)), e)).collect();
    if drop < keyed.len() {
        keyed.select_nth_unstable(drop);
    }
    corrections.clear();
    corrections.extend(keyed[drop..].iter().map(|x| x.1));
    corrections.sort_unstable();
    drop
}

/// Runs summarization and reconstructs the approximate graph so downstream
/// algorithms can run on it (what stage 2 measures).
pub fn summarize_to_graph(g: &CsrGraph, cfg: SummarizationConfig) -> (Summary, CompressionResult) {
    let start = Instant::now();
    let summary = summarize(g, cfg);
    let graph = summary.decompress();
    (summary, CompressionResult::of(g, graph, None, start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;
    use sg_graph::CsrGraph;

    fn cfg(eps: f64, seed: u64) -> SummarizationConfig {
        SummarizationConfig { epsilon: eps, max_iterations: 8, seed }
    }

    #[test]
    fn lossless_roundtrip() {
        // ϵ = 0: the summary must reconstruct the exact input graph.
        for seed in [1, 2] {
            let g = generators::barabasi_albert(400, 4, seed);
            let s = summarize(&g, cfg(0.0, seed));
            let recon = s.decompress();
            assert_eq!(recon.edge_slice(), g.edge_slice(), "seed {seed}");
            assert_eq!(s.reconstruction_error(&g), 0);
        }
    }

    #[test]
    fn twins_merge_into_supervertex() {
        // Two vertices with identical neighborhoods must land in one
        // supervertex at threshold 1.0 (iteration 0).
        let mut edges = Vec::new();
        for hub in 2..8u32 {
            edges.push((0, hub));
            edges.push((1, hub));
        }
        let g = CsrGraph::from_pairs(8, &edges);
        let s = summarize(&g, cfg(0.0, 3));
        assert_eq!(s.supervertex_of[0], s.supervertex_of[1]);
        assert!(s.num_supervertices() < 8);
    }

    #[test]
    fn epsilon_bounds_symmetric_difference() {
        // Table 3: lossy ϵ-summary has m ± 2ϵm edges; symmetric difference
        // of the reconstruction is at most 2ϵm.
        let g = generators::watts_strogatz(500, 5, 0.05, 4);
        let m = g.num_edges() as f64;
        for eps in [0.01, 0.05, 0.1] {
            let s = summarize(&g, cfg(eps, 5));
            let err = s.reconstruction_error(&g) as f64;
            assert!(err <= 2.0 * eps * m + 1e-9, "eps {eps}: err {err} > {}", 2.0 * eps * m);
        }
    }

    #[test]
    fn higher_epsilon_drops_more() {
        let g = generators::barabasi_albert(600, 5, 6);
        let lo = summarize(&g, cfg(0.02, 7));
        let hi = summarize(&g, cfg(0.2, 7));
        assert!(hi.dropped_plus + hi.dropped_minus >= lo.dropped_plus + lo.dropped_minus);
    }

    #[test]
    fn storage_cost_reported() {
        let g = generators::barabasi_albert(300, 3, 8);
        let s = summarize(&g, cfg(0.0, 9));
        assert!(s.storage_cost() > 0);
        // Lossless storage never needs more than m + superedges units.
        assert!(s.corrections_plus.len() <= g.num_edges());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_pairs(0, &[]);
        let s = summarize(&g, cfg(0.1, 10));
        assert_eq!(s.num_supervertices(), 0);
        assert_eq!(s.decompress().num_edges(), 0);
    }

    #[test]
    fn summarize_to_graph_reports_sizes() {
        let g = generators::barabasi_albert(300, 4, 11);
        let (s, r) = summarize_to_graph(&g, cfg(0.1, 12));
        assert_eq!(r.original_edges, g.num_edges());
        // Reconstruction within the ±2ϵm band.
        let band = 2.0 * 0.1 * g.num_edges() as f64;
        let diff = (r.graph.num_edges() as f64 - g.num_edges() as f64).abs();
        assert!(diff <= band + 1e-9, "diff {diff} band {band}");
        assert!(s.iterations >= 1);
    }

    #[test]
    fn deterministic() {
        let g = generators::barabasi_albert(300, 3, 13);
        let a = summarize(&g, cfg(0.05, 14));
        let b = summarize(&g, cfg(0.05, 14));
        assert_eq!(a.decompress().edge_slice(), b.decompress().edge_slice());
    }

    /// Four planted 12-vertex blocks — near-cliques and near-bicliques with
    /// ~15 % of their edges missing — plus noise edges and isolated
    /// vertices: small, yet merges, `minus` corrections and internal
    /// superedges all occur.
    fn blocks(seed: u64) -> CsrGraph {
        let mut edges = Vec::new();
        for base in [0u32, 12, 24, 36] {
            let split = base + 2 + (mix64(seed ^ base as u64) % 5) as u32;
            for u in base..base + 12 {
                for v in u + 1..base + 12 {
                    let spanned = base % 24 == 0 || (u < split) != (v < split);
                    if spanned && sg_graph::prng::unit_f64(seed, pack((u, v))) >= 0.15 {
                        edges.push((u, v));
                    }
                }
            }
        }
        let noise = |i: u64| (mix64(seed ^ i) % 60) as u32;
        edges.extend((0..20).map(|i| (noise(2 * i), noise(2 * i + 1))));
        CsrGraph::from_pairs(60, &edges)
    }

    /// What the merge loop has decided so far: parents, representatives and
    /// each representative's neighbourhood.
    fn snapshot(state: &MergeState) -> (Vec<u32>, Vec<u32>, Vec<Vec<VertexId>>) {
        let rows = state.alive.iter().map(|&s| state.neighbourhood(s).to_vec()).collect();
        (state.parent.clone(), state.alive.clone(), rows)
    }

    #[test]
    fn group_order_and_thread_count_do_not_change_the_merge() {
        // The only test in this binary that turns the process-global knob.
        let mut merging = 0;
        for seed in 0..40 {
            let g = blocks(seed);
            let (mut forward, mut backward) = (MergeState::new(&g), MergeState::new(&g));
            for t in 0..MAX_MERGE_ITERATIONS {
                rayon::set_num_threads(1);
                let merged = forward.iterate(seed, t);
                rayon::set_num_threads(8);
                let pairs = backward.minhash_pairs(seed, t);
                let mut groups: Vec<_> = pairs.chunk_by(|x, y| x.0 == y.0).collect();
                groups.retain(|group| group.len() > 1);
                groups.reverse();
                let merges = backward.score(&groups, 1.0 / (1.0 + t as f64));
                backward.commit(merges);
                rayon::set_num_threads(0);
                assert_eq!(snapshot(&forward), snapshot(&backward), "seed {seed}, iteration {t}");
                if merged == 0 {
                    break;
                }
            }
            merging += usize::from(forward.alive.len() < 60);
            assert_eq!(forward.into_supervertex_of(), summarize(&g, cfg(0.0, seed)).supervertex_of);
        }
        assert!(merging >= 20, "only {merging} of 40 graphs merged anything");
    }

    #[test]
    fn dense_pairs_list_exactly_the_missing_pairs() {
        // (vertices, supervertex of each, edges removed from the K_{3,4} /
        // K_5 the supervertices span): one superedge, `minus` = the removed.
        let cases: [(&[u32], &[Edge]); 2] =
            [(&[0, 0, 0, 1, 1, 1, 1], &[(0, 4), (2, 6)]), (&[0, 0, 0, 0, 0], &[(1, 3)])];
        for (supervertex_of, removed) in cases {
            let n = supervertex_of.len() as u32;
            let internal = supervertex_of.iter().all(|&s| s == 0);
            let spanned = |u: u32, v: u32| {
                internal || supervertex_of[u as usize] != supervertex_of[v as usize]
            };
            let all = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|&(u, v)| spanned(u, v));
            let edges: Vec<Edge> = all.clone().filter(|e| !removed.contains(e)).collect();
            let g = CsrGraph::from_pairs(n as usize, &edges);
            let mut supervertices = vec![Vec::new(); if internal { 1 } else { 2 }];
            (0..n).for_each(|v| supervertices[supervertex_of[v as usize] as usize].push(v));
            let (codes, minus, plus) = encode(&g, supervertex_of, &supervertices);
            let brute_force: Vec<Edge> = all.filter(|&(u, v)| !g.has_edge(u, v)).collect();
            assert_eq!((codes.len(), plus.len()), (1, 0));
            assert_eq!(codes[0].pair, (0, if internal { 0 } else { 1 }));
            assert_eq!((codes[0].present, codes[0].minus.clone()), (edges.len(), 0..removed.len()));
            assert_eq!(minus, brute_force);
            assert_eq!(minus, removed);
        }
    }

    /// Set-semantics reconstruction: expand superedges, remove `minus`, add
    /// `plus`.
    fn oracle(s: &Summary) -> std::collections::BTreeSet<Edge> {
        let mut edges = std::collections::BTreeSet::new();
        for &(a, b) in &s.superedges {
            for &u in &s.supervertices[a as usize] {
                for &v in &s.supervertices[b as usize] {
                    if u != v {
                        edges.insert(ordered(u, v));
                    }
                }
            }
        }
        s.corrections_minus
            .iter()
            .for_each(|e| assert!(edges.remove(e), "minus {e:?} not covered"));
        edges.extend(&s.corrections_plus);
        edges
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn grouping_partitions_the_alive_supervertices(seed in 0u64..10_000) {
            let g = blocks(seed);
            let mut state = MergeState::new(&g);
            for t in 0..4 {
                let pairs = state.minhash_pairs(seed, t);
                // Strictly ascending pairs: hashes ascend across groups, ids within.
                assert!(pairs.windows(2).all(|w| w[0] < w[1]));
                let mut members: Vec<u32> = pairs.iter().map(|p| p.1).collect();
                members.sort_unstable();
                assert_eq!(&members, &state.alive);
                state.iterate(seed, t);
                let roots: Vec<u32> = (0..60).filter(|&v| state.parent[v as usize] == v).collect();
                assert_eq!(&roots, &state.alive);
            }
        }

        #[test]
        fn decompress_is_the_set_semantics_of_the_summary(seed in 0u64..10_000, eps in 0.0f64..0.6) {
            let g = blocks(seed);
            let s = summarize(&g, cfg(eps, seed));
            let expected = oracle(&s);
            let recon = s.decompress();
            assert!(recon.edge_slice().iter().eq(&expected));
            assert_eq!((recon.num_vertices(), recon.is_weighted()), (60, false));
            let original: std::collections::BTreeSet<Edge> = g.edge_slice().iter().copied().collect();
            assert_eq!(s.reconstruction_error(&g), expected.symmetric_difference(&original).count());
        }

        #[test]
        fn epsilon_zero_round_trips_exactly(seed in 0u64..10_000, iterations in 1usize..10) {
            let g = blocks(seed);
            let s = summarize(&g, SummarizationConfig { epsilon: 0.0, max_iterations: iterations, seed });
            assert_eq!(s.decompress().edge_slice(), g.edge_slice());
            assert_eq!((s.dropped_plus, s.dropped_minus, s.reconstruction_error(&g)), (0, 0, 0));
        }
    }
}
