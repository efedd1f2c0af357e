//! Edge-list staging area.
//!
//! All graph construction funnels through [`EdgeList`]: generators emit raw
//! pairs, `canonicalize` turns them into the unique undirected form the CSR
//! builder expects (no self-loops, `u < v`, sorted, deduplicated), and
//! [`crate::CsrGraph::from_edge_list`] materializes the final structure.

use crate::types::{VertexId, Weight};
use rayon::prelude::*;

/// A growable list of (possibly weighted) edges plus the vertex-count bound.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    /// Number of vertices (ids are `0..num_vertices`).
    pub num_vertices: usize,
    /// Edge endpoints. For undirected graphs order is irrelevant until
    /// canonicalization.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Optional per-edge weights, parallel to `edges`.
    pub weights: Option<Vec<Weight>>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self { num_vertices, edges: Vec::new(), weights: None }
    }

    /// Creates an edge list with preallocated capacity.
    pub fn with_capacity(num_vertices: usize, capacity: usize) -> Self {
        Self { num_vertices, edges: Vec::with_capacity(capacity), weights: None }
    }

    /// Creates an unweighted edge list directly from pairs.
    pub fn from_pairs(
        num_vertices: usize,
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Self {
        Self { num_vertices, edges: pairs.into_iter().collect(), weights: None }
    }

    /// Creates a weighted edge list from `(u, v, w)` triples.
    pub fn from_weighted(
        num_vertices: usize,
        triples: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Self {
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        for (u, v, w) in triples {
            edges.push((u, v));
            weights.push(w);
        }
        Self { num_vertices, edges, weights: Some(weights) }
    }

    /// Number of (raw, possibly duplicated) edges currently stored.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends an unweighted edge. Panics if the list is weighted.
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        assert!(self.weights.is_none(), "cannot push unweighted edge into weighted list");
        self.edges.push((u, v));
    }

    /// Appends a weighted edge. Converts an empty unweighted list to weighted.
    pub fn push_weighted(&mut self, u: VertexId, v: VertexId, w: Weight) {
        if self.weights.is_none() {
            assert!(self.edges.is_empty(), "cannot mix weighted and unweighted edges");
            self.weights = Some(Vec::new());
        }
        self.edges.push((u, v));
        self.weights.as_mut().expect("weights allocated above").push(w);
    }

    /// Canonicalizes the list for an *undirected* graph:
    ///
    /// 1. drops self-loops,
    /// 2. orients every edge so `u < v`,
    /// 3. sorts and deduplicates (keeping the first weight of a duplicate).
    ///
    /// After this call each undirected edge appears exactly once, which is the
    /// contract [`crate::CsrGraph::from_edge_list`] relies on to assign
    /// canonical edge ids. A list that already has that form — what every
    /// scheme that filters or monotonically relabels a canonical list hands
    /// in — is recognised in one scan and left as it is: no copy, no sort.
    pub fn canonicalize_undirected(&mut self) {
        if self.is_canonical(|u, v| u < v) {
            return;
        }
        let weighted = self.weights.is_some();
        if weighted {
            let weights = self.weights.take().expect("checked above");
            let mut combined: Vec<((VertexId, VertexId), Weight)> = self
                .edges
                .par_iter()
                .zip(weights.par_iter())
                .filter(|(&(u, v), _)| u != v)
                .map(|(&(u, v), &w)| (if u < v { (u, v) } else { (v, u) }, w))
                .collect();
            combined.par_sort_unstable_by(|a, b| a.0.cmp(&b.0));
            combined.dedup_by_key(|e| e.0);
            let (edges, weights): (Vec<_>, Vec<_>) = combined.into_iter().unzip();
            self.edges = edges;
            self.weights = Some(weights);
        } else {
            let mut edges: Vec<(VertexId, VertexId)> = self
                .edges
                .par_iter()
                .filter(|&&(u, v)| u != v)
                .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
                .collect();
            edges.par_sort_unstable();
            edges.dedup();
            self.edges = edges;
        }
    }

    /// Canonicalizes for a *directed* graph: drops self-loops, sorts by
    /// (source, target), deduplicates. An already canonical list is left as
    /// it is, as in [`EdgeList::canonicalize_undirected`].
    pub fn canonicalize_directed(&mut self) {
        if self.is_canonical(|u, v| u != v) {
            return;
        }
        let weighted = self.weights.is_some();
        if weighted {
            let weights = self.weights.take().expect("checked above");
            let mut combined: Vec<((VertexId, VertexId), Weight)> = self
                .edges
                .par_iter()
                .zip(weights.par_iter())
                .filter(|(&(u, v), _)| u != v)
                .map(|(&e, &w)| (e, w))
                .collect();
            combined.par_sort_unstable_by(|a, b| a.0.cmp(&b.0));
            combined.dedup_by_key(|e| e.0);
            let (edges, weights): (Vec<_>, Vec<_>) = combined.into_iter().unzip();
            self.edges = edges;
            self.weights = Some(weights);
        } else {
            let mut edges: Vec<(VertexId, VertexId)> =
                self.edges.par_iter().filter(|&&(u, v)| u != v).copied().collect();
            edges.par_sort_unstable();
            edges.dedup();
            self.edges = edges;
        }
    }

    /// One scan: every pair is `oriented` and the pairs strictly ascend, i.e.
    /// canonicalization would change nothing.
    fn is_canonical(&self, oriented: impl Fn(VertexId, VertexId) -> bool) -> bool {
        let mut previous = None;
        self.edges.iter().all(|&(u, v)| {
            let ascends = previous.is_none_or(|p| p < (u, v));
            previous = Some((u, v));
            ascends && oriented(u, v)
        })
    }

    /// Largest endpoint id + 1, or 0 when empty. Used to validate
    /// `num_vertices`.
    pub fn max_vertex_bound(&self) -> usize {
        self.edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_removes_self_loops_and_duplicates() {
        let mut el = EdgeList::from_pairs(4, vec![(0, 1), (1, 0), (2, 2), (3, 1), (1, 3)]);
        el.canonicalize_undirected();
        assert_eq!(el.edges, vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn canonicalize_orders_endpoints() {
        let mut el = EdgeList::from_pairs(3, vec![(2, 0), (1, 2)]);
        el.canonicalize_undirected();
        assert_eq!(el.edges, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn weighted_canonicalization_keeps_first_weight() {
        let mut el = EdgeList::from_weighted(3, vec![(0, 1, 2.0), (1, 0, 9.0), (1, 2, 1.0)]);
        el.canonicalize_undirected();
        assert_eq!(el.edges, vec![(0, 1), (1, 2)]);
        let w = el.weights.expect("weighted list");
        assert_eq!(w.len(), 2);
        assert_eq!(w[1], 1.0);
        // Either duplicate's weight is acceptable; both candidates came from
        // the same undirected edge.
        assert!(w[0] == 2.0 || w[0] == 9.0);
    }

    #[test]
    fn directed_canonicalization_keeps_both_directions() {
        let mut el = EdgeList::from_pairs(3, vec![(0, 1), (1, 0), (1, 0)]);
        el.canonicalize_directed();
        assert_eq!(el.edges, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn canonical_input_comes_back_untouched() {
        // Same allocation, so nothing was copied or sorted.
        let mut el = EdgeList::from_pairs(4, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        let allocation = el.edges.as_ptr();
        el.canonicalize_undirected();
        assert_eq!(el.edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        assert_eq!(el.edges.as_ptr(), allocation);

        let mut el = EdgeList::from_weighted(3, vec![(0, 1, 2.0), (0, 2, 9.0), (1, 2, 1.0)]);
        let allocation = el.weights.as_ref().expect("weighted list").as_ptr();
        el.canonicalize_undirected();
        assert_eq!(el.edges, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(el.weights.as_deref(), Some(&[2.0, 9.0, 1.0][..]));
        assert_eq!(el.weights.as_ref().expect("weighted list").as_ptr(), allocation);

        // Directed: u > v is canonical too, as long as the pairs ascend.
        let mut el = EdgeList::from_pairs(3, vec![(0, 1), (1, 0), (2, 1)]);
        let allocation = el.edges.as_ptr();
        el.canonicalize_directed();
        assert_eq!(el.edges, vec![(0, 1), (1, 0), (2, 1)]);
        assert_eq!(el.edges.as_ptr(), allocation);

        let mut el = EdgeList::new(5);
        el.canonicalize_undirected();
        el.canonicalize_directed();
        assert!(el.is_empty() && el.num_vertices == 5);
    }

    #[test]
    fn nearly_canonical_input_is_still_canonicalized() {
        // One swapped pair sorts.
        let mut el = EdgeList::from_pairs(4, vec![(0, 1), (1, 2), (0, 3), (2, 3)]);
        el.canonicalize_undirected();
        assert_eq!(el.edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        // One reversed pair in sorted position is oriented (and then sorts).
        let mut el = EdgeList::from_pairs(4, vec![(0, 1), (2, 1), (2, 3)]);
        el.canonicalize_undirected();
        assert_eq!(el.edges, vec![(0, 1), (1, 2), (2, 3)]);
        // An adjacent duplicate dedups, keeping the first weight.
        let mut el = EdgeList::from_weighted(3, vec![(0, 1, 2.0), (0, 1, 9.0), (1, 2, 1.0)]);
        el.canonicalize_undirected();
        assert_eq!(el.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(el.weights, Some(vec![2.0, 1.0]));
        // A self-loop in sorted position is dropped, directed or not.
        for directed in [false, true] {
            let mut el = EdgeList::from_pairs(3, vec![(0, 1), (1, 1), (1, 2)]);
            if directed {
                el.canonicalize_directed();
            } else {
                el.canonicalize_undirected();
            }
            assert_eq!(el.edges, vec![(0, 1), (1, 2)]);
        }
    }

    #[test]
    fn push_weighted_roundtrip() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 0.5);
        el.push_weighted(1, 2, 1.5);
        assert_eq!(el.len(), 2);
        assert_eq!(el.weights.as_ref().map(|w| w.len()), Some(2));
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixing_weighted_and_unweighted_panics() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push_weighted(1, 2, 1.0);
    }

    #[test]
    fn max_vertex_bound_empty() {
        let el = EdgeList::new(0);
        assert_eq!(el.max_vertex_bound(), 0);
    }
}
