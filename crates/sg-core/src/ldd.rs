//! Low-diameter decomposition (Miller–Peng–Xu style \[111\]).
//!
//! Every vertex draws an exponential shift `δ_v ~ Exp(β)`; vertex `v` joins
//! the cluster of the center `u` minimizing `dist(u, v) - δ_u`. Clusters
//! have diameter `O(log n / β)` w.h.p. and each edge is cut with probability
//! `O(β)`. The spanner kernel (§4.5.3) instantiates `β = ln(n)/k`, giving
//! the `O(k)`-spanner trade-off: larger `k` → larger clusters → fewer
//! surviving edges.
//!
//! **The race, in rounds.** The decomposition is a race: vertex `v` wakes up
//! as a center at key `start_v = δ_max - δ_v`, a vertex claimed at key `d`
//! proposes its center to every unclaimed neighbour at key `d + 1.0`, and a
//! vertex goes to the smallest `(key, center)` ever proposed for it. Edges
//! have unit length, so this needs no priority queue — it is Miller, Peng
//! and Xu's breadth-first search with delayed starts. Round `t` holds the
//! candidates `(key, vertex, center)` with `⌊key⌋ = t`: the wake-ups of that
//! round plus the proposals made for it. One pass keeps the smallest
//! `(key, center)` per unclaimed vertex (two `n`-sized arrays and the list
//! of vertices touched), then the newly claimed vertices are expanded once,
//! each proposal going to the vector of the round its key falls in.
//! `O(n + m)` after one sort of the wake-ups by round.
//!
//! **Why this is the heap race.** The reference (`ldd/heap_race.rs`, the
//! implementation this replaced, kept for the tests) pops `(key, v, center)`
//! triples in order and gives a vertex to its first pop — the smallest
//! `(key, center)` among the candidates pushed for it. A claim at key `d`
//! only ever pushes `d + 1.0 ≥ ⌊d⌋ + 1`, i.e. into a *later* round, so when
//! round `t` is resolved every candidate with `⌊key⌋ = t` is already there
//! and none of them can tie with or undercut a claim of an earlier round:
//! taking the per-vertex minimum of the round's candidates together is the
//! same function as popping them one by one. The keys are the same `f64`s
//! because both sides compute `start_c + 1.0 + 1.0 + …` hop by hop. The heap
//! tests "is `w` still unclaimed?" at pop time and the rounds at the end of
//! the round; the difference is only in candidates for vertices claimed
//! within that same round, which lose either way.
//!
//! **Trap 1 — a proposal's round comes from its key.** `⌊d + 1.0⌋` is not
//! always `⌊d⌋ + 1`: just below an integer the sum rounds up to it
//! (`1.9999999999999998 + 1.0 == 3.0`), so a proposal made in round `t` lands
//! in round `t + 1` or, rarely, `t + 2` — never further, `d < t + 1` gives
//! `d + 1.0 ≤ t + 2`. Three live vectors (this round and the two after it)
//! are therefore enough, and the round is always computed, never assumed.
//!
//! **Trap 2 — nothing is sized by `δ_max`.** `spanner:k=` is user input up
//! to `f64::MAX`; [`ldd_for_spanner`] floors `β` at `1e-6`, where the race
//! spans ≈ 10⁷ rounds of which at most `3 n` do anything. No array, vector
//! of vectors or loop bound depends on the number of rounds: the wake-ups
//! are one `n`-entry vector sorted by round, and whenever no candidate is
//! live the race jumps straight to the round of the next wake-up.

use crate::mapping::VertexMapping;
use sg_graph::prng::unit_f64;
use sg_graph::{CsrGraph, VertexId};

#[cfg(test)]
pub(crate) mod heap_race;

/// Shifts stay below this. A chain of claims is shorter than n ≤ 2^32 hops,
/// so every key stays below 2^52 — far inside the range where `d + 1.0 > d`
/// and `⌊d⌋` is exact.
const MAX_SHIFT: f64 = (1u64 << 51) as f64;

/// One entry of the race: `center` proposes to claim `vertex` at `key`.
#[derive(Clone, Copy)]
struct Candidate {
    key: f64,
    vertex: VertexId,
    center: VertexId,
}

/// Computes a low-diameter decomposition with parameter `beta`.
///
/// Vertex `u` enters the race with start key `δ_max - δ_u`; the first center
/// to reach a vertex claims it (see the module docs for the race itself).
///
/// Memory: five `n`-sized arrays (start keys, wake-ups, claim keys, owners,
/// the round's claims) and the candidate vectors, which over the
/// whole race receive one entry per vertex plus at most one per adjacency
/// slot — ≤ `2 m + n` entries of 16 bytes in total, fewer alive at once.
/// Nothing grows with `1 / beta`.
///
/// # Panics
/// If `beta` is not positive, or so small (below ≈ 2e-14) that the shifts
/// leave the range in which keys one apart are distinct `f64`s.
pub fn low_diameter_decomposition(g: &CsrGraph, beta: f64, seed: u64) -> VertexMapping {
    assert!(beta > 0.0, "beta must be positive");
    let n = g.num_vertices();
    if n == 0 {
        return VertexMapping::from_assignment(Vec::new());
    }
    // Exponential shifts: δ = -ln(1 - U) / β, deterministic per vertex.
    let mut start: Vec<f64> =
        (0..n as u64).map(|v| -(1.0 - unit_f64(seed ^ 0x1dd, v)).ln() / beta).collect();
    let delta_max = start.iter().copied().fold(0.0f64, f64::max);
    assert!(delta_max < MAX_SHIFT, "beta = {beta} is too small: shifts reach {delta_max}");
    for key in &mut start {
        *key = delta_max - *key;
    }
    VertexMapping::from_labels(&race(g, &start))
}

/// Runs the race in which vertex `v` wakes up at key `start[v]` (finite,
/// non-negative, below [`MAX_SHIFT`]) and returns the center that claimed
/// each vertex.
fn race(g: &CsrGraph, start: &[f64]) -> Vec<VertexId> {
    let n = start.len();
    // `as u64` is ⌊key⌋: keys are non-negative and below 2^52.
    let mut wake: Vec<(u64, VertexId)> =
        start.iter().enumerate().map(|(v, &key)| (key as u64, v as VertexId)).collect();
    // By round only: the order inside a round cannot matter (a round takes
    // per-vertex minima), and with few distinct rounds this sort is linear.
    wake.sort_unstable_by_key(|&(round, _)| round);
    let mut wake = wake.into_iter().peekable();

    // The smallest (key, center) proposed for each vertex so far; a vertex
    // is unclaimed while its key is infinite.
    let mut claim_key = vec![f64::INFINITY; n];
    let mut owner: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut claimed: Vec<VertexId> = Vec::new();
    // The candidates of round `t` and of the two rounds after it.
    let mut live: [Vec<Candidate>; 3] = Default::default();
    let mut t = 0;
    loop {
        if live.iter().all(Vec::is_empty) {
            let Some(&(next_wake, _)) = wake.peek() else { break };
            t = next_wake;
        }
        let [current, next, after_next] = &mut live;
        while let Some((_, v)) = wake.next_if(|&(round, _)| round == t) {
            current.push(Candidate { key: start[v as usize], vertex: v, center: v });
        }
        // A vertex claimed in an earlier round holds a key below `t`, which
        // no candidate of this round can beat or tie.
        for &Candidate { key, vertex, center } in current.iter() {
            let v = vertex as usize;
            if key < claim_key[v] || (key == claim_key[v] && center < owner[v]) {
                if claim_key[v] == f64::INFINITY {
                    claimed.push(vertex);
                }
                claim_key[v] = key;
                owner[v] = center;
            }
        }
        current.clear();
        for &v in &claimed {
            let key = claim_key[v as usize] + 1.0;
            let center = owner[v as usize];
            let round = match key as u64 - t {
                1 => &mut *next,
                2 => &mut *after_next,
                ahead => unreachable!("a unit step from round {t} landed {ahead} rounds ahead"),
            };
            for &w in g.neighbors(v) {
                if claim_key[w as usize] == f64::INFINITY {
                    round.push(Candidate { key, vertex: w, center });
                }
            }
        }
        claimed.clear();
        live.rotate_left(1);
        t += 1;
    }
    owner
}

/// LDD instantiated for an O(k)-spanner.
///
/// Calibration note: the textbook choice `β = ln(n)/k` makes cluster counts
/// collapse like `n^{1/k}`, which on low-diameter synthetic graphs jumps
/// from "all singletons" to "one giant cluster" between k = 2 and k = 8 —
/// no k-gradation survives. `β = 1.5·√(ln(n)/k)` decays the granularity
/// smoothly and reproduces the paper's observed sweep (edge removal rising
/// from ≈20% at k = 2 towards the spanning-forest floor at k = 128) while
/// keeping the defining monotonicity: larger k → larger clusters → fewer
/// edges, more stretch. Measured by the `fig7` and `bfs-critical` tables
/// of `sg-bench` (`reproduce --table <id>`).
pub fn ldd_for_spanner(g: &CsrGraph, k: f64, seed: u64) -> VertexMapping {
    let n = g.num_vertices().max(2) as f64;
    let beta = (1.5 * (n.ln() / k.max(1.0)).sqrt()).max(1e-6);
    low_diameter_decomposition(g, beta, seed)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::heap_race::{heap_race, start_keys};
    use super::*;
    use sg_algos::cc::connected_components;
    use sg_graph::generators;
    use sg_graph::types::NO_EDGE;

    /// The inputs both reference sweeps run on (this module's and the
    /// spanner kernel's): skewed, dense, 1 000+ components, lattice, small
    /// world, the two extreme trees, and the degenerate sizes.
    pub(crate) fn sweep_graphs() -> Vec<(&'static str, CsrGraph)> {
        let isolated = |n| CsrGraph::from_pairs(n, &[]);
        let sparse = generators::erdos_renyi(3_000, 1_500, 3);
        assert!(connected_components(&sparse).num_components > 1_000);
        vec![
            ("rmat", generators::rmat_graph500(11, 8, 1)),
            ("dense er", generators::erdos_renyi(600, 6_000, 2)),
            ("sparse er", sparse),
            ("grid", generators::grid(40, 40)),
            ("watts-strogatz", generators::watts_strogatz(500, 4, 0.1, 4)),
            ("path", generators::path(300)),
            ("star", generators::star(200)),
            ("isolated", isolated(50)),
            ("one vertex", isolated(1)),
            ("no vertex", isolated(0)),
        ]
    }

    #[test]
    fn partition_is_valid() {
        let g = generators::erdos_renyi(400, 1600, 1);
        let m = low_diameter_decomposition(&g, 0.5, 2);
        assert!(m.validate());
    }

    #[test]
    fn clusters_are_connected() {
        let g = generators::grid(12, 12);
        let m = low_diameter_decomposition(&g, 0.4, 3);
        // Every cluster must induce a connected subgraph (claims propagate
        // along edges from the center).
        let mut parent_edge = vec![NO_EDGE; g.num_vertices()];
        let mut queue = Vec::new();
        for (cid, members) in m.clusters.iter().enumerate() {
            let tree_edges = sg_algos::spanning::cluster_spanning_tree_by(
                &g,
                members,
                |v| m.assignment[v as usize] == cid as u32,
                &mut parent_edge,
                &mut queue,
            );
            assert_eq!(tree_edges, members.len() - 1, "cluster not connected");
        }
    }

    #[test]
    fn large_beta_gives_many_small_clusters() {
        let g = generators::grid(15, 15);
        let fine = low_diameter_decomposition(&g, 4.0, 4);
        let coarse = low_diameter_decomposition(&g, 0.05, 4);
        assert!(fine.num_clusters() > coarse.num_clusters());
    }

    #[test]
    fn spanner_k_controls_granularity() {
        let g = generators::rmat_graph500(10, 8, 5);
        let k2 = ldd_for_spanner(&g, 2.0, 6);
        let k32 = ldd_for_spanner(&g, 32.0, 6);
        assert!(k2.num_clusters() >= k32.num_clusters());
    }

    #[test]
    fn empty_graph() {
        let g = sg_graph::CsrGraph::from_pairs(0, &[]);
        let m = low_diameter_decomposition(&g, 1.0, 1);
        assert_eq!(m.num_clusters(), 0);
    }

    #[test]
    fn deterministic() {
        let g = generators::erdos_renyi(200, 800, 9);
        let a = low_diameter_decomposition(&g, 0.7, 11);
        let b = low_diameter_decomposition(&g, 0.7, 11);
        assert_eq!(a.assignment, b.assignment);
    }

    /// The rounds against the heap race, vertex for vertex, from "every
    /// vertex its own cluster" (β = 50) to "one cluster per component after
    /// ≈ 10⁷ mostly idle rounds" (β = 1e-6).
    #[test]
    fn rounds_match_the_heap_race() {
        for (label, g) in &sweep_graphs() {
            let n = g.num_vertices();
            let components = connected_components(g).num_components;
            for beta in [1e-6, 1e-3, 0.05, 0.13, 0.4, 0.7, 1.7, 4.0, 50.0] {
                for seed in 0..6 {
                    let start = start_keys(n, beta, seed);
                    let expected = heap_race(g, &start);
                    assert_eq!(race(g, &start), expected, "{label}, beta {beta}, seed {seed}");
                    let mapping = low_diameter_decomposition(g, beta, seed);
                    assert_eq!(
                        mapping.assignment,
                        VertexMapping::from_labels(&expected).assignment
                    );
                    if beta == 50.0 {
                        assert_eq!(mapping.num_clusters(), n, "{label}: not all singletons");
                    }
                    if beta == 1e-6 {
                        assert_eq!(
                            mapping.num_clusters(),
                            components,
                            "{label}: split a component"
                        );
                    }
                }
            }
        }
    }

    /// Trap 1 and the tie-break, by hand. On the path 0 – 1 – 2, vertex 2
    /// wakes at the largest double below 2 (round 1) and its proposal to
    /// vertex 1 rounds up to key 3.0 — *two* rounds ahead; vertex 0 wakes at
    /// 2.0 (round 2) and proposes to vertex 1 at 3.0 too, one round ahead and
    /// later in the vector. The keys tie, so the smaller center wins.
    #[test]
    fn a_proposal_can_land_two_rounds_ahead_and_ties_go_to_the_smaller_center() {
        let below_two = 2.0 - f64::EPSILON;
        assert_eq!(below_two as u64, 1);
        assert_eq!(below_two + 1.0, 3.0);
        let g = generators::path(3);
        let start = [2.0, 10.0, below_two];
        assert_eq!(race(&g, &start), [0, 0, 2]);
        assert_eq!(heap_race(&g, &start), [0, 0, 2]);
        // Without the tie (vertex 0 a little late) vertex 2 gets there first.
        let start = [2.5, 10.0, below_two];
        assert_eq!(race(&g, &start), [0, 2, 2]);
        assert_eq!(heap_race(&g, &start), [0, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn a_beta_that_exhausts_f64_precision_is_refused() {
        low_diameter_decomposition(&generators::path(4), 1e-300, 1);
    }
}
