//! k-core decomposition and degeneracy ordering.
//!
//! Table 3 reasons about the coloring number via arboricity
//! (α ≤ C_G ≤ 2α, §6.1); this module supplies the degeneracy ordering used
//! by greedy coloring.

use sg_graph::{CsrGraph, VertexId};

/// Result of the peeling decomposition.
#[derive(Clone, Debug)]
pub struct CoreResult {
    /// Core number per vertex.
    pub core: Vec<u32>,
    /// Degeneracy (maximum core number).
    pub degeneracy: u32,
    /// Vertices in peeling order (non-decreasing core number) — the reverse
    /// of this is the degeneracy ordering used by greedy coloring.
    pub order: Vec<VertexId>,
}

/// Classic O(n + m) bucket-peeling core decomposition (Matula–Beck).
pub fn core_decomposition(g: &CsrGraph) -> CoreResult {
    let n = g.num_vertices();
    if n == 0 {
        return CoreResult { core: Vec::new(), degeneracy: 0, order: Vec::new() };
    }
    let mut degree: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort vertices by degree.
    let mut bin_start = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin_start[d + 1] += 1;
    }
    for i in 0..=max_deg {
        bin_start[i + 1] += bin_start[i];
    }
    let mut pos = vec![0usize; n];
    let mut order: Vec<VertexId> = vec![0; n];
    {
        let mut cursor = bin_start.clone();
        for v in 0..n {
            let d = degree[v];
            pos[v] = cursor[d];
            order[cursor[d]] = v as VertexId;
            cursor[d] += 1;
        }
    }

    let mut core = vec![0u32; n];
    let mut degeneracy = 0u32;
    for i in 0..n {
        let v = order[i];
        let dv = degree[v as usize];
        core[v as usize] = dv as u32;
        degeneracy = degeneracy.max(dv as u32);
        for &u in g.neighbors(v) {
            let du = degree[u as usize];
            if du > dv {
                // Move u one bucket down: swap with first element of its bin.
                let pu = pos[u as usize];
                let first = bin_start[du];
                let wfirst = order[first];
                order.swap(pu, first);
                pos[u as usize] = first;
                pos[wfirst as usize] = pu;
                bin_start[du] += 1;
                degree[u as usize] -= 1;
            }
        }
        // Advance the bin boundary past the peeled vertex.
        bin_start[dv] = bin_start[dv].max(i + 1);
    }
    CoreResult { core, degeneracy, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn tree_has_degeneracy_one() {
        let g = generators::path(10);
        let r = core_decomposition(&g);
        assert_eq!(r.degeneracy, 1);
        assert!(r.core.iter().all(|&c| c <= 1));
    }

    #[test]
    fn complete_graph_core() {
        let g = generators::complete(5);
        let r = core_decomposition(&g);
        assert_eq!(r.degeneracy, 4);
        assert!(r.core.iter().all(|&c| c == 4));
    }

    #[test]
    fn cycle_core_two() {
        let g = generators::cycle(7);
        let r = core_decomposition(&g);
        assert_eq!(r.degeneracy, 2);
    }

    #[test]
    fn order_is_permutation() {
        let g = generators::erdos_renyi(300, 900, 2);
        let r = core_decomposition(&g);
        let mut seen = vec![false; 300];
        for &v in &r.order {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
