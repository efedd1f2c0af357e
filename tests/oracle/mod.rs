//! The paper's kernels written once, sequentially and per element, as
//! naively as the paper writes them: the reference the optimised executors
//! (the engine's chunks, `sg-dist`'s ranks, federation shards) are checked
//! against. An oracle shares only the schemes' random draws — `DetRand` keyed
//! by `triangle_key` — so a disagreement says which side left the paper.
//! Each test binary uses some of them.
#![allow(dead_code)]

use sg_algos::tc::{list_triangles, Triangle};
use sg_core::schemes::{triangle_key, Discipline, EdgeChoice, TrConfig};
use sg_core::DetRand;
use sg_graph::{CsrGraph, EdgeList, VertexId};
use std::collections::VecDeque;

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
    let all = list_triangles(g);
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
    g.filter_edges(|e| !deleted[e as usize])
}

/// §4.3's Triangle p-Reduction by Collapse: every sampled triangle merges
/// its corners' classes into one vertex, named by the class's smallest
/// member; survivors are numbered in that order, edges inside a class
/// vanish and parallel ones merge. Returns the graph and the old→new map.
pub fn triangle_collapse(g: &CsrGraph, p: f64, seed: u64) -> (CsrGraph, Vec<Option<VertexId>>) {
    let (rand, n) = (DetRand::new(seed), g.num_vertices() as VertexId);
    let mut class: Vec<VertexId> = (0..n).collect();
    for t in list_triangles(g).iter().filter(|t| sampled(t, p, rand)) {
        let old = [t.u, t.v, t.w].map(|x| class[x as usize]);
        let merged = *old.iter().min().expect("three corners");
        class.iter_mut().filter(|c| old.contains(c)).for_each(|c| *c = merged);
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
