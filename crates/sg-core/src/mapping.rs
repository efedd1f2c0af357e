//! Vertex → subgraph mappings (§4.5.2).
//!
//! Subgraph schemes first decompose the graph into disjoint clusters; the
//! decomposition is captured by a [`VertexMapping`]. The one mapping built
//! here is the low-diameter decomposition in [`crate::ldd`], used by
//! spanners; graph summarization groups vertices by minhash inside
//! `schemes/summarization.rs` instead.

use rustc_hash::FxHashMap;
use sg_graph::VertexId;

/// A partition of the vertex set into disjoint clusters.
#[derive(Clone, Debug)]
pub struct VertexMapping {
    /// `assignment[v]` = cluster index of `v`.
    pub assignment: Vec<u32>,
    /// Member lists per cluster.
    pub clusters: Vec<Vec<VertexId>>,
}

impl VertexMapping {
    /// Builds a mapping from a per-vertex assignment (cluster ids must be
    /// dense `0..k`).
    pub fn from_assignment(assignment: Vec<u32>) -> Self {
        let k = assignment.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut clusters = vec![Vec::new(); k];
        for (v, &c) in assignment.iter().enumerate() {
            clusters[c as usize].push(v as VertexId);
        }
        Self { assignment, clusters }
    }

    /// Builds a mapping from raw (possibly sparse) cluster labels,
    /// densifying them.
    pub fn from_labels(labels: &[u32]) -> Self {
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        let mut assignment = Vec::with_capacity(labels.len());
        for &l in labels {
            let next = remap.len() as u32;
            let id = *remap.entry(l).or_insert(next);
            assignment.push(id);
        }
        Self::from_assignment(assignment)
    }

    /// Number of clusters (the paper's `SG.sgr_cnt`).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster of vertex `v`.
    pub fn cluster_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Checks the partition invariant (every vertex in exactly the cluster
    /// its assignment says).
    pub fn validate(&self) -> bool {
        let mut seen = vec![false; self.assignment.len()];
        for (c, members) in self.clusters.iter().enumerate() {
            for &v in members {
                if seen[v as usize] || self.assignment[v as usize] != c as u32 {
                    return false;
                }
                seen[v as usize] = true;
            }
        }
        seen.into_iter().all(|b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_from_assignment_validates() {
        let m = VertexMapping::from_assignment(vec![0, 0, 1, 2, 1]);
        assert_eq!(m.num_clusters(), 3);
        assert!(m.validate());
        assert_eq!(m.cluster_of(4), 1);
    }

    #[test]
    fn from_labels_densifies() {
        let m = VertexMapping::from_labels(&[7, 7, 42, 9]);
        assert_eq!(m.num_clusters(), 3);
        assert!(m.validate());
    }
}
