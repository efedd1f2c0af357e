//! The paper's kernels written once, sequentially and per element, as
//! naively as the paper writes them: the reference the optimised executors
//! (the engine's chunks, `sg-dist`'s ranks, federation shards) are checked
//! against. An oracle shares only the schemes' random draws — `DetRand`
//! keyed by the edge id or by `triangle_key`, the LDD's exponential shifts —
//! so a disagreement says which side left the paper. The oracles:
//! - Listing 1's edge kernels: [`uniform`], [`spectral`] (both Υ variants,
//!   with and without `reweight`), and [`cut`] (Nagamochi–Ibaraki forests);
//! - the vertex kernel [`low_degree`];
//! - §4.3's [`triangle_reduction`] (every discipline and edge choice) and
//!   [`triangle_collapse`], over the naive triangle listing [`triangles`];
//! - §4.5.3's [`ldd`] (Miller–Peng–Xu: [`heap_race`] from [`start_keys`],
//!   β from [`spanner_beta`]) and [`spanner`] ([`derive_spanner`] on it);
//! - connectivity: [`components`] and [`bfs_depths`].
//!
//! [`scheme`] runs the oracle of a registry scheme by name: every one but
//! those in [`WITHOUT_ORACLE`] (`summary`). The contract harness's `Oracle`
//! axis runs it, so a test binary that declares `mod contract;` declares
//! `mod oracle;` too. Each test binary uses some of the oracles.
#![allow(dead_code)]

use sg_core::kernel::Triangle;
use sg_core::schemes::{triangle_key, Discipline, EdgeChoice, TrConfig};
use sg_core::DetRand;
use sg_graph::prng::unit_f64;
use sg_graph::{CsrGraph, EdgeId, EdgeList, VertexId, Weight};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Old→new vertex ids of a scheme that removes or merges vertices.
pub type Mapping = Vec<Option<VertexId>>;

/// The registry schemes with no oracle.
pub const WITHOUT_ORACLE: [&str; 1] = ["summary"];

/// The oracle of registry scheme `name` at `seed`, read off `params` — the
/// built scheme's own `(key, value)` pairs, every default filled in: the
/// graph, and the old→new map when the scheme rewrites the vertex set.
///
/// # Panics
/// On a name with no oracle: a newly registered scheme gets one here or
/// joins [`WITHOUT_ORACLE`].
pub fn scheme(
    g: &CsrGraph,
    name: &str,
    params: &[(&str, String)],
    seed: u64,
) -> (CsrGraph, Option<Mapping>) {
    let get = |key: &str| params.iter().find(|(k, _)| *k == key).expect(key).1.as_str();
    let num = |key: &str| get(key).parse::<f64>().expect("a number");
    let tr = |discipline, choice| {
        let cfg = TrConfig { p: num("p"), x: num("x") as usize, discipline, choice };
        triangle_reduction(g, cfg, seed)
    };
    let with_map = |(graph, map): (CsrGraph, Mapping)| (graph, Some(map));
    let graph = match name {
        "uniform" => uniform(g, num("p"), seed),
        "spectral" => {
            spectral(g, num("p"), get("variant") == "avgdeg", get("reweight") == "true", seed)
        }
        "cut" => cut(g, num("k") as u32),
        "spanner" => spanner(g, num("k"), seed),
        "tr" => tr(Discipline::Plain, EdgeChoice::Random),
        "tr-eo" => tr(Discipline::EdgeOnce, EdgeChoice::Random),
        "tr-mw" => tr(Discipline::EdgeOnce, EdgeChoice::MaxWeight),
        "tr-ct" => tr(Discipline::EdgeOnce, EdgeChoice::FewestTriangles),
        "collapse" => return with_map(triangle_collapse(g, num("p"), seed)),
        "lowdeg" => return with_map(low_degree(g)),
        other => panic!("`{other}` has no oracle"),
    };
    (graph, None)
}

/// Row `v` of `g` as `(neighbour, edge id)` pairs, in row order.
fn row(g: &CsrGraph, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
    g.neighbors(v).iter().copied().zip(g.neighbor_edge_ids(v).iter().copied())
}

/// The graph on `n` vertices with the surviving `edges` of `g`: directed as
/// `g` is, weighted as `g` is or once a survivor was `reweighted`.
fn graph_of(
    g: &CsrGraph,
    n: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
    reweighted: bool,
) -> CsrGraph {
    let weighted = g.is_weighted() || reweighted && !edges.is_empty();
    let mut list = EdgeList::from_weighted(n, edges);
    if !weighted {
        list.weights = None;
    }
    if g.is_directed() {
        CsrGraph::from_edge_list_directed(list)
    } else {
        CsrGraph::from_edge_list(list)
    }
}

/// `g` with the edges `weight` gives a weight to, each carrying that weight.
fn keep_edges(
    g: &CsrGraph,
    reweighted: bool,
    weight: impl Fn(EdgeId) -> Option<Weight>,
) -> CsrGraph {
    let edges = g.edge_iter().filter_map(|(e, u, v)| weight(e).map(|w| (u, v, w))).collect();
    graph_of(g, g.num_vertices(), edges, reweighted)
}

/// Listing 1's `random_uniform`: edge `e` goes when `1 - p < rand`, the
/// draw keyed by `e`.
pub fn uniform(g: &CsrGraph, p: f64, seed: u64) -> CsrGraph {
    let rand = DetRand::new(seed);
    keep_edges(g, false, |e| (1.0 - p >= rand.unit(e.into(), 0)).then(|| g.edge_weight(e)))
}

/// Listing 1's `spectral_sparsify`: edge `{u, v}` stays with probability
/// `p_e = min(1, Υ / min(d_u, d_v))`, Υ = `p·ln n` or (`avg_degree`)
/// `p·2m/n`, the draw keyed by `e`; with `reweight` a survivor weighs
/// `w / p_e`.
pub fn spectral(g: &CsrGraph, p: f64, avg_degree: bool, reweight: bool, seed: u64) -> CsrGraph {
    let rand = DetRand::new(seed);
    let upsilon =
        if avg_degree { p * g.average_degree() } else { p * (g.num_vertices().max(2) as f64).ln() };
    keep_edges(g, reweight, |e| {
        let (u, v) = g.edge_endpoints(e);
        let stays = (upsilon / g.degree(u).min(g.degree(v)).max(1) as f64).min(1.0);
        let w = g.edge_weight(e);
        match (stays < rand.unit(e.into(), 0), reweight) {
            (true, _) => None,
            (false, true) => Some(w * (1.0 / stays) as Weight),
            (false, false) => Some(w),
        }
    })
}

/// Nagamochi–Ibaraki: the union of the first `k` spanning forests, each
/// grown by one union-find pass over the edges no earlier forest took, in
/// edge-id order. Stops early once a pass takes nothing.
pub fn cut(g: &CsrGraph, k: u32) -> CsrGraph {
    let mut taken = vec![false; g.num_edges()];
    for _ in 0..k {
        let mut parent: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        let root = |parent: &[VertexId], mut x: VertexId| {
            while parent[x as usize] != x {
                x = parent[x as usize];
            }
            x
        };
        let forest = taken.iter().filter(|&&t| t).count();
        for (e, u, v) in g.edge_iter() {
            let (a, b) = (root(&parent, u), root(&parent, v));
            if !taken[e as usize] && a != b {
                (parent[a as usize], taken[e as usize]) = (b, true);
            }
        }
        if taken.iter().filter(|&&t| t).count() == forest {
            break;
        }
    }
    keep_edges(g, false, |e| taken[e as usize].then(|| g.edge_weight(e)))
}

/// Listing 1's `low_degree`: every vertex of degree ≤ 1 goes with its
/// edges; the survivors are renumbered in id order. Returns the graph and
/// the old→new map.
pub fn low_degree(g: &CsrGraph) -> (CsrGraph, Mapping) {
    let mut survivors = 0;
    let map: Mapping = (0..g.num_vertices() as VertexId)
        .map(|v| (g.degree(v) > 1).then(|| (survivors, survivors += 1).0))
        .collect();
    let renamed = |(e, u, v): (EdgeId, VertexId, VertexId)| {
        Some((map[u as usize]?, map[v as usize]?, g.edge_weight(e)))
    };
    let edges = g.edge_iter().filter_map(renamed).collect();
    (graph_of(g, survivors as usize, edges, false), map)
}

/// Every triangle `u < v < w` of `g`, in that order, with its edge ids:
/// `v` from `u`'s row, `w` from `v`'s, and `u`'s row binary-searched for
/// `w`.
pub fn triangles(g: &CsrGraph) -> Vec<Triangle> {
    let mut all = Vec::new();
    for u in 0..g.num_vertices() as VertexId {
        for (v, e_uv) in row(g, u).filter(|&(v, _)| v > u) {
            for (w, e_vw) in row(g, v).filter(|&(w, _)| w > v) {
                if let Some(e_uw) = g.find_edge(u, w) {
                    all.push(Triangle { u, v, w, e_uv, e_vw, e_uw });
                }
            }
        }
    }
    all
}

/// Listing 1's coin: `if rand < p` with the draw keyed by the triangle.
fn sampled(t: &Triangle, p: f64, rand: DetRand) -> bool {
    1.0 - p < rand.unit(triangle_key(t), 1)
}

/// §4.3's Triangle p-x-Reduction. Every sampled triangle, in `(u, v, w)`
/// order — Count-Triangles: rarest edge first — ranks its edges and deletes
/// the first `x`. Edge-Once: a triangle touching a considered edge is
/// skipped, otherwise all three become considered; Count-Triangles instead
/// deletes (and considers) its first `x` unconsidered edges.
pub fn triangle_reduction(g: &CsrGraph, cfg: TrConfig, seed: u64) -> CsrGraph {
    let (rand, m) = (DetRand::new(seed), g.num_edges());
    let all = triangles(g);
    let mut count = vec![0u64; m];
    all.iter().flat_map(|t| t.edges()).for_each(|e| count[e as usize] += 1);
    let mut queue: Vec<Triangle> = all.into_iter().filter(|t| sampled(t, cfg.p, rand)).collect();
    if cfg.choice == EdgeChoice::FewestTriangles {
        queue.sort_by_key(|t| {
            (t.edges().map(|e| count[e as usize]).iter().min().copied(), t.u, t.v, t.w)
        });
    }
    let (mut deleted, mut considered) = (vec![false; m], vec![false; m]);
    for t in &queue {
        let mut edges = t.edges();
        match cfg.choice {
            EdgeChoice::Random => {
                let [a, b, c] = edges;
                let perms = [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]];
                edges = perms[rand.below(triangle_key(t), 2, 6) as usize];
            }
            EdgeChoice::MaxWeight => edges
                .sort_by(|&a, &b| g.edge_weight(b).total_cmp(&g.edge_weight(a)).then(b.cmp(&a))),
            EdgeChoice::FewestTriangles => edges.sort_by_key(|&e| (count[e as usize], e)),
        }
        let fresh: Vec<_> = edges.into_iter().filter(|&e| !considered[e as usize]).collect();
        let chosen = match (cfg.discipline, cfg.choice) {
            (Discipline::Plain, _) => &edges[..cfg.x],
            (_, EdgeChoice::FewestTriangles) => &fresh[..cfg.x.min(fresh.len())],
            _ if fresh.len() < 3 => continue,
            _ => {
                edges.iter().for_each(|&e| considered[e as usize] = true);
                &edges[..cfg.x]
            }
        };
        chosen.iter().for_each(|&e| (deleted[e as usize], considered[e as usize]) = (true, true));
    }
    keep_edges(g, false, |e| (!deleted[e as usize]).then(|| g.edge_weight(e)))
}

/// §4.3's Triangle p-Reduction by Collapse: every sampled triangle merges
/// its corners' classes into one vertex, named by the class's smallest
/// member; survivors are numbered in that order, edges inside a class
/// vanish and parallel ones merge. Returns the graph and the old→new map.
pub fn triangle_collapse(g: &CsrGraph, p: f64, seed: u64) -> (CsrGraph, Vec<Option<VertexId>>) {
    let (rand, n) = (DetRand::new(seed), g.num_vertices() as VertexId);
    let mut class: Vec<VertexId> = (0..n).collect();
    let mut members: Vec<Vec<VertexId>> = (0..n).map(|v| vec![v]).collect();
    for t in triangles(g).iter().filter(|t| sampled(t, p, rand)) {
        let old = [t.u, t.v, t.w].map(|x| class[x as usize]);
        let merged = *old.iter().min().expect("three corners");
        for c in old.into_iter().filter(|&c| c != merged) {
            let moved = std::mem::take(&mut members[c as usize]);
            moved.iter().for_each(|&v| class[v as usize] = merged);
            members[merged as usize].extend(moved);
        }
    }
    let names: Vec<VertexId> = (0..n).filter(|&v| class[v as usize] == v).collect();
    let id = |v: VertexId| names.binary_search(&class[v as usize]).expect("named") as VertexId;
    let pairs = g.edge_slice().iter().map(|&(a, b)| (id(a), id(b))).filter(|(a, b)| a != b);
    let graph = CsrGraph::from_edge_list(EdgeList::from_pairs(names.len(), pairs));
    (graph, (0..n).map(|v| Some(id(v))).collect())
}

/// Weak components by flood fill from each unlabelled vertex in id order:
/// the first id to reach a component, its minimum, labels it.
pub fn components(g: &CsrGraph) -> Vec<VertexId> {
    let mut label = vec![VertexId::MAX; g.num_vertices()];
    for s in 0..g.num_vertices() as VertexId {
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            if label[u as usize] == VertexId::MAX {
                label[u as usize] = s;
                stack.extend(g.neighbors(u).iter().chain(g.in_neighbors(u)));
            }
        }
    }
    label
}

/// Hop distance from `root` along out-arcs, by a FIFO queue; `u32::MAX`
/// where `root` does not reach.
pub fn bfs_depths(g: &CsrGraph, root: VertexId) -> Vec<u32> {
    let mut depth = vec![u32::MAX; g.num_vertices()];
    depth[root as usize] = 0;
    let mut queue = VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if depth[v as usize] == u32::MAX {
                depth[v as usize] = depth[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    depth
}

/// Total-order f64 key for heaps.
#[derive(Clone, Copy, PartialEq)]
struct Key(f64);
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("keys are never NaN")
    }
}

/// The start keys `δ_max - δ_v` of an `n`-vertex race, `δ_v ~ Exp(beta)`.
pub fn start_keys(n: usize, beta: f64, seed: u64) -> Vec<f64> {
    let shifts: Vec<f64> =
        (0..n as u64).map(|v| -(1.0 - unit_f64(seed ^ 0x1dd, v)).ln() / beta).collect();
    let delta_max = shifts.iter().copied().fold(0.0f64, f64::max);
    shifts.iter().map(|shift| delta_max - shift).collect()
}

/// Multi-source Dijkstra over unit-length edges in which vertex `v` enters
/// at key `start[v]`: the first center to reach a vertex claims it. Returns
/// the claiming center of every vertex.
pub fn heap_race(g: &CsrGraph, start: &[f64]) -> Vec<VertexId> {
    let mut owner: Vec<u32> = vec![u32::MAX; start.len()];
    let mut heap: BinaryHeap<Reverse<(Key, VertexId, VertexId)>> = BinaryHeap::new();
    for (v, &key) in start.iter().enumerate() {
        heap.push(Reverse((Key(key), v as VertexId, v as VertexId)));
    }
    while let Some(Reverse((Key(d), v, center))) = heap.pop() {
        if owner[v as usize] != u32::MAX {
            continue;
        }
        owner[v as usize] = center;
        for &w in g.neighbors(v) {
            if owner[w as usize] == u32::MAX {
                heap.push(Reverse((Key(d + 1.0), w, center)));
            }
        }
    }
    owner
}

/// Miller, Peng and Xu's decomposition: every vertex's center, by the heap
/// race from the shifted start keys.
pub fn ldd(g: &CsrGraph, beta: f64, seed: u64) -> Vec<VertexId> {
    heap_race(g, &start_keys(g.num_vertices(), beta, seed))
}

/// The spanner's β on `n` vertices: `1.5·√(ln n / k)`, `n` and `k` floored
/// at 2 and 1, β at `1e-6`.
pub fn spanner_beta(n: usize, k: f64) -> f64 {
    (1.5 * ((n.max(2) as f64).ln() / k.max(1.0)).sqrt()).max(1e-6)
}

/// §4.5.3's O(k)-spanner: [`derive_spanner`] over the [`ldd`] at
/// [`spanner_beta`].
pub fn spanner(g: &CsrGraph, k: f64, seed: u64) -> CsrGraph {
    derive_spanner(g, &ldd(g, spanner_beta(g.num_vertices(), k), seed))
}

/// Listing 1's `derive_spanner` over the clusters `cluster` labels (each
/// label below `n`): inside a cluster only the BFS tree from its smallest
/// member, rows read in order, stays. Across clusters each vertex keeps its
/// smallest-id edge to each neighbouring cluster, and an edge survives only
/// if neither endpoint prunes it.
pub fn derive_spanner(g: &CsrGraph, cluster: &[VertexId]) -> CsrGraph {
    let n = g.num_vertices();
    let (mut tree, mut pruned) = (vec![false; g.num_edges()], vec![false; g.num_edges()]);
    let (mut rooted, mut reached) = (vec![false; n], vec![false; n]);
    for root in 0..n as VertexId {
        let c = cluster[root as usize];
        if std::mem::replace(&mut rooted[c as usize], true) {
            continue;
        }
        reached[root as usize] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for (w, e) in row(g, u).filter(|&(w, _)| cluster[w as usize] == c) {
                if !std::mem::replace(&mut reached[w as usize], true) {
                    tree[e as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    for v in 0..n as VertexId {
        let across = || row(g, v).filter(|&(u, _)| cluster[u as usize] != cluster[v as usize]);
        let mut smallest = BTreeMap::new();
        for (u, e) in across() {
            let s = smallest.entry(cluster[u as usize]).or_insert(e);
            *s = e.min(*s);
        }
        across().for_each(|(u, e)| pruned[e as usize] |= smallest[&cluster[u as usize]] != e);
    }
    keep_edges(g, false, |e| {
        let (u, v) = g.edge_endpoints(e);
        let kept = if cluster[u as usize] == cluster[v as usize] {
            tree[e as usize]
        } else {
            !pruned[e as usize]
        };
        kept.then(|| g.edge_weight(e))
    })
}
