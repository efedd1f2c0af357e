//! Compressed-Sparse-Row graph with canonical edge identifiers.
//!
//! The structure mirrors GAPBS: an `offsets` array of length `n + 1` and a
//! flat `targets` array. The Slim Graph-specific addition is `slot_edge`: for
//! every adjacency *slot* it stores the canonical id of the underlying edge,
//! so the two directions of an undirected edge share one id. Compression
//! kernels mark canonical ids for deletion in an atomic bitset and the engine
//! then calls [`CsrGraph::filter_edges`] to materialize the compressed graph.

use crate::edge_list::EdgeList;
use crate::storage::Section;
use crate::types::{EdgeId, VertexId, Weight};
use rayon::prelude::*;

/// An immutable CSR graph (undirected or directed), optionally weighted.
///
/// Every array is a [`Section`]: owned when the graph was built in memory,
/// borrowed when it was loaded zero-copy from an `.sgr` mapping (`sg-store`).
/// Both behave identically; a mapped graph is still `Clone + Send + Sync`.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    directed: bool,
    num_vertices: usize,
    /// Out-adjacency offsets (`num_vertices + 1` entries).
    offsets: Section<usize>,
    /// Out-adjacency targets, sorted within each row.
    targets: Section<VertexId>,
    /// Canonical edge id per out-adjacency slot.
    slot_edge: Section<EdgeId>,
    /// Canonical edges: `edges[e] = (u, v)` with `u < v` for undirected
    /// graphs and `(src, dst)` for directed graphs.
    edges: Section<(VertexId, VertexId)>,
    /// Optional canonical edge weights.
    weights: Option<Section<Weight>>,
    /// In-adjacency (directed graphs only): offsets, sources, edge id.
    in_offsets: Option<Section<usize>>,
    in_targets: Option<Section<VertexId>>,
    in_slot_edge: Option<Section<EdgeId>>,
}

/// The raw arrays of a [`CsrGraph`], used by external loaders (the
/// `sg-store` crate) to assemble a graph around borrowed or owned sections.
/// Consumed by [`CsrGraph::from_parts`], which validates every structural
/// invariant before the graph is usable.
pub struct CsrParts {
    /// Whether the arrays describe a directed graph.
    pub directed: bool,
    /// Number of vertices `n`.
    pub num_vertices: usize,
    /// Out-adjacency offsets (`n + 1` entries, `offsets[0] == 0`).
    pub offsets: Section<usize>,
    /// Out-adjacency targets (`2m` slots undirected, `m` directed).
    pub targets: Section<VertexId>,
    /// Canonical edge id per out-adjacency slot (parallel to `targets`).
    pub slot_edge: Section<EdgeId>,
    /// Canonical edges, lexicographically sorted, `u < v` when undirected.
    pub edges: Section<(VertexId, VertexId)>,
    /// Optional canonical edge weights (length `m`).
    pub weights: Option<Section<Weight>>,
    /// In-adjacency offsets (directed graphs only).
    pub in_offsets: Option<Section<usize>>,
    /// In-adjacency sources (directed graphs only).
    pub in_targets: Option<Section<VertexId>>,
    /// Canonical edge id per in-adjacency slot (directed graphs only).
    pub in_slot_edge: Option<Section<EdgeId>>,
}

impl CsrGraph {
    /// Builds an *undirected* graph from an edge list. The list is
    /// canonicalized (self-loops dropped, `u < v`, deduplicated) if needed.
    pub fn from_edge_list(mut el: EdgeList) -> Self {
        el.canonicalize_undirected();
        Self::from_canonical(el, false)
    }

    /// Builds a *directed* graph from an edge list.
    pub fn from_edge_list_directed(mut el: EdgeList) -> Self {
        el.canonicalize_directed();
        Self::from_canonical(el, true)
    }

    /// Convenience constructor from unweighted pairs (undirected).
    pub fn from_pairs(num_vertices: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        Self::from_edge_list(EdgeList::from_pairs(num_vertices, pairs.iter().copied()))
    }

    /// Convenience constructor from weighted triples (undirected).
    pub fn from_weighted_pairs(
        num_vertices: usize,
        triples: &[(VertexId, VertexId, Weight)],
    ) -> Self {
        Self::from_edge_list(EdgeList::from_weighted(num_vertices, triples.iter().copied()))
    }

    fn from_canonical(el: EdgeList, directed: bool) -> Self {
        let n = el.num_vertices.max(el.max_vertex_bound());
        let edges = el.edges;
        let weights = el.weights;
        let m = edges.len();
        assert!(m <= EdgeId::MAX as usize, "graph exceeds EdgeId capacity");

        if directed {
            // Out-CSR: edges are sorted by (src, dst), so rows are sorted.
            let mut offsets = vec![0usize; n + 1];
            for &(u, _) in &edges {
                offsets[u as usize + 1] += 1;
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let targets: Vec<VertexId> = edges.iter().map(|&(_, v)| v).collect();
            let slot_edge: Vec<EdgeId> = (0..m as EdgeId).collect();

            // In-CSR: counting sort by destination; for a fixed destination
            // sources arrive in increasing order, so rows are sorted.
            let mut in_offsets = vec![0usize; n + 1];
            for &(_, v) in &edges {
                in_offsets[v as usize + 1] += 1;
            }
            for i in 0..n {
                in_offsets[i + 1] += in_offsets[i];
            }
            let mut cursor = in_offsets.clone();
            let mut in_targets = vec![0 as VertexId; m];
            let mut in_slot_edge = vec![0 as EdgeId; m];
            for (e, &(u, v)) in edges.iter().enumerate() {
                let c = &mut cursor[v as usize];
                in_targets[*c] = u;
                in_slot_edge[*c] = e as EdgeId;
                *c += 1;
            }

            Self {
                directed,
                num_vertices: n,
                offsets: offsets.into(),
                targets: targets.into(),
                slot_edge: slot_edge.into(),
                edges: edges.into(),
                weights: weights.map(Section::from),
                in_offsets: Some(in_offsets.into()),
                in_targets: Some(in_targets.into()),
                in_slot_edge: Some(in_slot_edge.into()),
            }
        } else {
            // Undirected: both directions in one CSR. Canonical edges have
            // u < v; a row's backward targets (from the v side) are all
            // smaller than the row vertex and arrive in increasing order, the
            // forward targets are all larger and also increasing, so each row
            // ends up sorted without an explicit sort.
            let mut offsets = vec![0usize; n + 1];
            for &(u, v) in &edges {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let slots = 2 * m;
            let mut targets = vec![0 as VertexId; slots];
            let mut slot_edge = vec![0 as EdgeId; slots];
            let mut cursor = offsets.clone();
            // Pass 1: backward entries (row v gets target u < v).
            for (e, &(u, v)) in edges.iter().enumerate() {
                let c = &mut cursor[v as usize];
                targets[*c] = u;
                slot_edge[*c] = e as EdgeId;
                *c += 1;
            }
            // Pass 2: forward entries (row u gets target v > u).
            for (e, &(u, v)) in edges.iter().enumerate() {
                let c = &mut cursor[u as usize];
                targets[*c] = v;
                slot_edge[*c] = e as EdgeId;
                *c += 1;
            }

            Self {
                directed,
                num_vertices: n,
                offsets: offsets.into(),
                targets: targets.into(),
                slot_edge: slot_edge.into(),
                edges: edges.into(),
                weights: weights.map(Section::from),
                in_offsets: None,
                in_targets: None,
                in_slot_edge: None,
            }
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of canonical edges `m` (undirected edges counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `v` (total degree for undirected graphs).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// In-degree of `v`. Equals [`CsrGraph::degree`] for undirected graphs.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        match &self.in_offsets {
            Some(off) => off[v as usize + 1] - off[v as usize],
            None => self.degree(v),
        }
    }

    /// Sorted out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Canonical edge ids of the out-adjacency slots of `v`, parallel to
    /// [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        &self.slot_edge[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Sorted in-neighbors of `v` (directed graphs; falls back to
    /// out-neighbors for undirected graphs).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        match (&self.in_offsets, &self.in_targets) {
            (Some(off), Some(tgt)) => &tgt[off[v as usize]..off[v as usize + 1]],
            _ => self.neighbors(v),
        }
    }

    /// Endpoints of canonical edge `e` (`u < v` when undirected).
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e as usize]
    }

    /// All canonical edges.
    #[inline]
    pub fn edge_slice(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Weight of canonical edge `e` (1.0 for unweighted graphs).
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> Weight {
        match &self.weights {
            Some(w) => w[e as usize],
            None => 1.0,
        }
    }

    /// Canonical weight slice, if weighted.
    #[inline]
    pub fn weight_slice(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Binary-searches the adjacency of `u` for `v`; returns the canonical
    /// edge id when the edge exists.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let row = self.neighbors(u);
        let idx = row.binary_search(&v).ok()?;
        Some(self.neighbor_edge_ids(u)[idx])
    }

    /// True when the edge `u -> v` (or `{u, v}` if undirected) exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Sum of canonical edge weights (`m` for unweighted graphs).
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.par_iter().map(|&x| x as f64).sum(),
            None => self.edges.len() as f64,
        }
    }

    /// Average degree `2m/n` (undirected) or `m/n` (directed).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            return 0.0;
        }
        let dir_slots = if self.directed { self.edges.len() } else { 2 * self.edges.len() };
        dir_slots as f64 / self.num_vertices as f64
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices as VertexId)
            .into_par_iter()
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Converts back to a canonical edge list (cloning edges and weights).
    pub fn to_edge_list(&self) -> EdgeList {
        EdgeList {
            num_vertices: self.num_vertices,
            edges: self.edges.to_vec(),
            weights: self.weights.as_ref().map(|w| w.to_vec()),
        }
    }

    /// Materializes the subgraph that keeps exactly the canonical edges for
    /// which `keep(e)` is true. Vertex set (and ids) are unchanged — this is
    /// the engine's compaction step after kernels marked deletions.
    pub fn filter_edges(&self, keep: impl Fn(EdgeId) -> bool + Sync) -> CsrGraph {
        let kept_ids: Vec<u32> =
            (0..self.edges.len() as EdgeId).into_par_iter().filter(|&e| keep(e)).collect();
        let edges: Vec<(VertexId, VertexId)> =
            kept_ids.par_iter().map(|&e| self.edges[e as usize]).collect();
        let weights =
            self.weights.as_ref().map(|w| kept_ids.par_iter().map(|&e| w[e as usize]).collect());
        let el = EdgeList { num_vertices: self.num_vertices, edges, weights };
        // Canonical order is preserved by filtering, so rebuild directly.
        Self::from_canonical(el, self.directed)
    }

    /// Materializes the subgraph after *reweighting*: keeps edge `e` iff
    /// `decide(e)` returns `Some(weight)`, with the new weight attached. Used
    /// by spectral sparsification, which must reweight survivors by `1/p_e`.
    pub fn filter_reweight(&self, decide: impl Fn(EdgeId) -> Option<Weight> + Sync) -> CsrGraph {
        let kept: Vec<(EdgeId, Weight)> = (0..self.edges.len() as EdgeId)
            .into_par_iter()
            .filter_map(|e| decide(e).map(|w| (e, w)))
            .collect();
        let edges: Vec<(VertexId, VertexId)> =
            kept.par_iter().map(|&(e, _)| self.edges[e as usize]).collect();
        let weights: Vec<Weight> = kept.par_iter().map(|&(_, w)| w).collect();
        let el = EdgeList { num_vertices: self.num_vertices, edges, weights: Some(weights) };
        Self::from_canonical(el, self.directed)
    }

    /// Removes the vertices flagged in `removed` (and all incident edges),
    /// relabelling survivors compactly. Returns the new graph and the
    /// old-id → new-id map (`None` entries are removed vertices).
    pub fn remove_vertices(&self, removed: &[bool]) -> (CsrGraph, Vec<Option<VertexId>>) {
        assert_eq!(removed.len(), self.num_vertices);
        let mut mapping: Vec<Option<VertexId>> = vec![None; self.num_vertices];
        let mut next: VertexId = 0;
        for v in 0..self.num_vertices {
            if !removed[v] {
                mapping[v] = Some(next);
                next += 1;
            }
        }
        let mut el = EdgeList::with_capacity(next as usize, self.edges.len());
        if self.weights.is_some() {
            el.weights = Some(Vec::with_capacity(self.edges.len()));
        }
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            if let (Some(nu), Some(nv)) = (mapping[u as usize], mapping[v as usize]) {
                el.edges.push((nu, nv));
                if let Some(w) = &mut el.weights {
                    w.push(self.weights.as_ref().expect("weighted").get(e).copied().unwrap_or(1.0));
                }
            }
        }
        (Self::from_canonical_unsorted(el, self.directed), mapping)
    }

    /// Builds from an edge list that is unique but possibly unsorted after
    /// relabelling.
    fn from_canonical_unsorted(mut el: EdgeList, directed: bool) -> Self {
        if directed {
            el.canonicalize_directed();
        } else {
            el.canonicalize_undirected();
        }
        Self::from_canonical(el, directed)
    }

    /// Iterates over all canonical edges as `(edge_id, u, v)`.
    pub fn edge_iter(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.edges.iter().enumerate().map(|(e, &(u, v))| (e as EdgeId, u, v))
    }

    /// Parallel iterator over canonical edge ids.
    pub fn par_edge_ids(&self) -> rayon::range::Iter<u32> {
        (0..self.edges.len() as EdgeId).into_par_iter()
    }

    /// Raw out-adjacency offsets (`n + 1` entries) — serializer view.
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw out-adjacency target array — serializer view.
    #[inline]
    pub fn csr_targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Raw canonical-edge-id-per-slot array — serializer view.
    #[inline]
    pub fn csr_slot_edges(&self) -> &[EdgeId] {
        &self.slot_edge
    }

    /// Raw in-adjacency offsets (directed graphs only) — serializer view.
    #[inline]
    pub fn in_csr_offsets(&self) -> Option<&[usize]> {
        self.in_offsets.as_deref()
    }

    /// Raw in-adjacency source array (directed graphs only).
    #[inline]
    pub fn in_csr_targets(&self) -> Option<&[VertexId]> {
        self.in_targets.as_deref()
    }

    /// Raw canonical-edge-id-per-in-slot array (directed graphs only).
    #[inline]
    pub fn in_csr_slot_edges(&self) -> Option<&[EdgeId]> {
        self.in_slot_edge.as_deref()
    }

    /// True when every CSR array (weights and in-adjacency included, when
    /// present) borrows from an external mapping instead of owning a `Vec` —
    /// the zero-copy invariant of `sg-store`'s `MmapGraph` loader.
    pub fn is_fully_mapped(&self) -> bool {
        self.offsets.is_mapped()
            && self.targets.is_mapped()
            && self.slot_edge.is_mapped()
            && self.edges.is_mapped()
            && self.weights.as_ref().is_none_or(Section::is_mapped)
            && self.in_offsets.as_ref().is_none_or(Section::is_mapped)
            && self.in_targets.as_ref().is_none_or(Section::is_mapped)
            && self.in_slot_edge.as_ref().is_none_or(Section::is_mapped)
    }

    /// Assembles a graph from raw (owned or mapped) CSR arrays, validating
    /// every structural invariant the rest of the workspace relies on:
    /// offset monotonicity, array lengths, sorted rows, canonical
    /// lexicographic edge order, and slot↔edge endpoint consistency. A
    /// hostile or corrupt `.sgr` file can therefore never build a graph that
    /// panics or reads out of bounds later — it is rejected here.
    pub fn from_parts(p: CsrParts) -> Result<Self, String> {
        let n = p.num_vertices;
        let m = p.edges.len();
        if m > EdgeId::MAX as usize {
            return Err("edge count exceeds EdgeId capacity".into());
        }
        if n > 0 && n - 1 > VertexId::MAX as usize {
            return Err("vertex count exceeds VertexId capacity".into());
        }
        let slots = if p.directed { m } else { 2 * m };
        let rows = n.checked_add(1).ok_or("vertex count overflow")?;
        if p.offsets.len() != rows {
            return Err(format!("offsets length {} != n + 1 = {rows}", p.offsets.len()));
        }
        if p.offsets[0] != 0 {
            return Err("offsets[0] != 0".into());
        }
        if !p.offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets not monotone".into());
        }
        if p.offsets[n] != slots {
            return Err(format!("offsets[n] = {} != slot count {slots}", p.offsets[n]));
        }
        if p.targets.len() != slots || p.slot_edge.len() != slots {
            return Err("targets/slot_edge length mismatch".into());
        }
        if let Some(w) = &p.weights {
            if w.len() != m {
                return Err(format!("weights length {} != m = {m}", w.len()));
            }
        }
        let endpoints_ok = p.edges.as_slice().par_iter().all(|&(u, v)| {
            (u as usize) < n && (v as usize) < n && if p.directed { u != v } else { u < v }
        });
        if !endpoints_ok {
            return Err("edge endpoints out of bounds or non-canonical".into());
        }
        if !p.edges.windows(2).all(|w| w[0] < w[1]) {
            return Err("edges not in strict canonical order".into());
        }
        let row_ok = |offsets: &[usize], targets: &[VertexId], slot_edge: &[EdgeId], invert| {
            (0..n).into_par_iter().all(|v| {
                let (lo, hi) = (offsets[v], offsets[v + 1]);
                let (row, ids) = (&targets[lo..hi], &slot_edge[lo..hi]);
                row.windows(2).all(|w| w[0] < w[1])
                    && row.iter().zip(ids).all(|(&t, &e)| {
                        (e as usize) < m && {
                            let v = v as VertexId;
                            let want = match (p.directed, invert) {
                                (false, _) => (v.min(t), v.max(t)),
                                (true, false) => (v, t),
                                (true, true) => (t, v),
                            };
                            p.edges[e as usize] == want
                        }
                    })
            })
        };
        if !row_ok(&p.offsets, &p.targets, &p.slot_edge, false) {
            return Err("out-adjacency rows inconsistent with canonical edges".into());
        }
        match (p.directed, &p.in_offsets, &p.in_targets, &p.in_slot_edge) {
            (false, None, None, None) => {}
            (true, Some(io), Some(it), Some(ie)) => {
                if io.len() != rows || io[0] != 0 || !io.windows(2).all(|w| w[0] <= w[1]) {
                    return Err("in-offsets malformed".into());
                }
                if io[n] != m || it.len() != m || ie.len() != m {
                    return Err("in-adjacency length mismatch".into());
                }
                if !row_ok(io, it, ie, true) {
                    return Err("in-adjacency rows inconsistent with canonical edges".into());
                }
            }
            (false, ..) => return Err("undirected graph carries in-adjacency".into()),
            (true, ..) => return Err("directed graph missing in-adjacency".into()),
        }
        Ok(Self {
            directed: p.directed,
            num_vertices: n,
            offsets: p.offsets,
            targets: p.targets,
            slot_edge: p.slot_edge,
            edges: p.edges,
            weights: p.weights,
            in_offsets: p.in_offsets,
            in_targets: p.in_targets,
            in_slot_edge: p.in_slot_edge,
        })
    }

    /// Bytes needed by the CSR arrays (storage-cost accounting for Table 2).
    pub fn storage_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.len() * size_of::<usize>()
            + self.targets.len() * size_of::<VertexId>()
            + self.slot_edge.len() * size_of::<EdgeId>()
            + self.edges.len() * size_of::<(VertexId, VertexId)>()
            + self.weights.as_ref().map_or(0, |w| w.len() * size_of::<Weight>())
            + self.in_offsets.as_ref().map_or(0, |o| o.len() * size_of::<usize>())
            + self.in_targets.as_ref().map_or(0, |t| t.len() * size_of::<VertexId>())
            + self.in_slot_edge.as_ref().map_or(0, |t| t.len() * size_of::<EdgeId>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 0-2 triangle; 2-3 tail.
        CsrGraph::from_pairs(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_directed());
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn rows_are_sorted_and_ids_consistent() {
        let g = triangle_plus_tail();
        for v in 0..4u32 {
            let row = g.neighbors(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} not sorted: {row:?}");
            for (idx, &t) in row.iter().enumerate() {
                let e = g.neighbor_edge_ids(v)[idx];
                let (a, b) = g.edge_endpoints(e);
                assert!((a, b) == (v.min(t), v.max(t)));
            }
        }
    }

    #[test]
    fn both_directions_share_edge_id() {
        let g = triangle_plus_tail();
        let e1 = g.find_edge(0, 2).expect("edge exists");
        let e2 = g.find_edge(2, 0).expect("edge exists");
        assert_eq!(e1, e2);
    }

    #[test]
    fn filter_edges_drops_marked() {
        let g = triangle_plus_tail();
        let victim = g.find_edge(0, 1).expect("edge exists");
        let h = g.filter_edges(|e| e != victim);
        assert_eq!(h.num_edges(), 3);
        assert!(!h.has_edge(0, 1));
        assert!(h.has_edge(2, 3));
        assert_eq!(h.num_vertices(), 4);
    }

    #[test]
    fn filter_reweight_attaches_weights() {
        let g = triangle_plus_tail();
        let h = g.filter_reweight(|e| if e % 2 == 0 { Some(2.5) } else { None });
        assert!(h.is_weighted());
        assert_eq!(h.num_edges(), 2);
        for (e, _, _) in h.edge_iter() {
            assert_eq!(h.edge_weight(e), 2.5);
        }
    }

    #[test]
    fn remove_vertices_relabels() {
        let g = triangle_plus_tail();
        let (h, map) = g.remove_vertices(&[false, true, false, false]);
        assert_eq!(h.num_vertices(), 3);
        // Edges among survivors: (0,2) and (2,3) -> relabelled.
        assert_eq!(h.num_edges(), 2);
        assert_eq!(map[1], None);
        let n0 = map[0].expect("kept");
        let n2 = map[2].expect("kept");
        assert!(h.has_edge(n0, n2));
    }

    #[test]
    fn directed_graph_has_in_adjacency() {
        let el = EdgeList::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]);
        let g = CsrGraph::from_edge_list_directed(el);
        assert!(g.is_directed());
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn weighted_graph_weight_lookup() {
        let g = CsrGraph::from_weighted_pairs(3, &[(0, 1, 0.5), (1, 2, 2.0)]);
        assert!(g.is_weighted());
        let e = g.find_edge(1, 2).expect("edge exists");
        assert_eq!(g.edge_weight(e), 2.0);
        assert!((g.total_weight() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_pairs(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices_preserved() {
        let g = CsrGraph::from_pairs(10, &[(0, 1)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn storage_bytes_positive() {
        let g = triangle_plus_tail();
        assert!(g.storage_bytes() > 0);
    }
}
