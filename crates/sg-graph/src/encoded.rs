//! Compressed adjacency storage: delta+varint rows and bitmap rows.
//!
//! WebGraph-style encoding (Boldi & Vigna; the paper's storage discussion in
//! §6): each sorted adjacency row is stored either as LEB128 varints of
//! first-target + gaps (sparse rows) or as an `n`-bit bitmap (dense rows,
//! selected when `64·degree > n`, i.e. when the bitmap is smaller than raw
//! u32 targets). [`EncodedCsr`] is the encoded counterpart of
//! [`CsrGraph`]: same vertex ids, same canonical edge ids (forward
//! enumeration order), owned or mmap-backed sections, iterated through
//! [`NeighborCursor`] so kernels never materialize raw CSR.
//!
//! Determinism: row class and row content depend only on `(row, n)`; decode
//! order is a pure function of the row index, so every kernel result is
//! bit-identical to the raw-CSR run at any `SG_THREADS`.

use crate::edge_list::EdgeList;
use crate::storage::Section;
use crate::types::{EdgeId, VertexId, Weight};
use crate::view::{write_varint, BitmapCursor, DeltaCursor, GraphView, NeighborCursor};
use crate::CsrGraph;
use rayon::prelude::*;

/// How one adjacency row is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowClass {
    /// Gap-encoded LEB128 varints (first target absolute, then gaps).
    Delta,
    /// `ceil(n/64)` little-endian u64 words, bit `t` set iff `t` is a
    /// neighbor.
    Bitmap,
}

/// Row-class selection rule, fixed at write time and re-derived at read
/// time from the degrees section: bitmap iff `64·degree > n` (the bitmap is
/// then smaller than `degree` raw u32 targets).
#[inline]
pub fn row_class(degree: usize, num_vertices: usize) -> RowClass {
    if (degree as u64) * 64 > num_vertices as u64 {
        RowClass::Bitmap
    } else {
        RowClass::Delta
    }
}

/// Bytes of one bitmap row for an `n`-vertex graph.
#[inline]
pub fn bitmap_row_bytes(num_vertices: usize) -> usize {
    num_vertices.div_ceil(64) * 8
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-sensitive pair hash used by the cross-section consistency checks.
#[inline]
fn pair_hash(a: VertexId, b: VertexId) -> u64 {
    splitmix64((u64::from(a) << 32) | u64::from(b))
}

/// One encoded adjacency structure (out- or in-rows): per-row byte offsets
/// into a shared blob, per-row degrees, and the blob itself. All three are
/// [`Section`]s, so they can borrow from an `.sgr` mapping.
#[derive(Clone, Debug)]
pub struct EncodedAdjacency {
    num_vertices: usize,
    /// Byte offset of each row in `blob` (`n + 1` entries).
    row_starts: Section<usize>,
    /// Degree of each row (`n` entries).
    degrees: Section<u32>,
    /// Concatenated encoded rows.
    blob: Section<u8>,
}

impl EncodedAdjacency {
    /// Encodes sorted rows. Each yielded slice must be strictly increasing
    /// with targets `< num_vertices` (the `CsrGraph` row invariant).
    pub fn from_rows<'r>(num_vertices: usize, rows: impl Iterator<Item = &'r [VertexId]>) -> Self {
        let mut row_starts = Vec::with_capacity(num_vertices + 1);
        let mut degrees = Vec::with_capacity(num_vertices);
        let mut blob = Vec::new();
        row_starts.push(0usize);
        for row in rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
            degrees.push(row.len() as u32);
            match row_class(row.len(), num_vertices) {
                RowClass::Delta => {
                    let mut prev = 0;
                    for (i, &t) in row.iter().enumerate() {
                        write_varint(&mut blob, if i == 0 { t } else { t - prev });
                        prev = t;
                    }
                }
                RowClass::Bitmap => {
                    let base = blob.len();
                    blob.resize(base + bitmap_row_bytes(num_vertices), 0);
                    for &t in row {
                        blob[base + t as usize / 8] |= 1 << (t % 8);
                    }
                }
            }
            row_starts.push(blob.len());
        }
        assert_eq!(row_starts.len(), num_vertices + 1, "one row per vertex required");
        Self {
            num_vertices,
            row_starts: row_starts.into(),
            degrees: degrees.into(),
            blob: blob.into(),
        }
    }

    /// Assembles an encoded adjacency from raw (owned or mapped) sections,
    /// validating every row: byte ranges in bounds and monotone, delta rows
    /// strictly increasing below `n` with no truncated or over-long varint,
    /// bitmap rows exactly `ceil(n/64)` words with popcount matching the
    /// degree and no bit at or above `n`. A hostile `.sgr` file is rejected
    /// here instead of misbehaving in a kernel later.
    pub fn from_parts(
        num_vertices: usize,
        row_starts: Section<usize>,
        degrees: Section<u32>,
        blob: Section<u8>,
    ) -> Result<Self, String> {
        let n = num_vertices;
        if row_starts.len() != n + 1 {
            return Err(format!("row index length {} != n + 1 = {}", row_starts.len(), n + 1));
        }
        if degrees.len() != n {
            return Err(format!("degrees length {} != n = {n}", degrees.len()));
        }
        if row_starts[0] != 0 {
            return Err("row index does not start at 0".into());
        }
        if !row_starts.windows(2).all(|w| w[0] <= w[1]) {
            return Err("row index not monotone".into());
        }
        if row_starts[n] != blob.len() {
            return Err(format!("row index end {} != blob length {}", row_starts[n], blob.len()));
        }
        let adj = Self { num_vertices, row_starts, degrees, blob };
        let rows_ok = (0..n).into_par_iter().all(|v| adj.validate_row(v));
        if !rows_ok {
            return Err("encoded adjacency row invalid (truncated varint, gap overflow, \
                        or malformed bitmap)"
                .into());
        }
        Ok(adj)
    }

    fn validate_row(&self, v: usize) -> bool {
        let degree = self.degrees[v] as usize;
        if degree > self.num_vertices {
            return false;
        }
        let bytes = self.row_bytes(v as VertexId);
        match row_class(degree, self.num_vertices) {
            RowClass::Delta => {
                let mut pos = 0;
                let mut prev: u64 = 0;
                for i in 0..degree {
                    let Some(gap) = crate::view::read_varint(bytes, &mut pos) else {
                        return false;
                    };
                    if i > 0 && gap == 0 {
                        return false; // duplicate target
                    }
                    prev = if i == 0 { u64::from(gap) } else { prev + u64::from(gap) };
                    if prev >= self.num_vertices as u64 {
                        return false; // gap overflow past n
                    }
                }
                pos == bytes.len() // no trailing garbage
            }
            RowClass::Bitmap => {
                if bytes.len() != bitmap_row_bytes(self.num_vertices) {
                    return false; // over- or undersized bitmap
                }
                let mut popcount = 0usize;
                for (w, chunk) in bytes.chunks_exact(8).enumerate() {
                    let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                    let base = w * 64;
                    // Bits at or above n must be clear.
                    if base + 64 > self.num_vertices {
                        let valid = self.num_vertices.saturating_sub(base);
                        if valid < 64 && (word >> valid) != 0 {
                            return false;
                        }
                    }
                    popcount += word.count_ones() as usize;
                }
                popcount == degree
            }
        }
    }

    /// Number of rows (== vertices).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Degree of row `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.degrees[v as usize] as usize
    }

    /// Encoded bytes of row `v`.
    #[inline]
    pub fn row_bytes(&self, v: VertexId) -> &[u8] {
        &self.blob[self.row_starts[v as usize]..self.row_starts[v as usize + 1]]
    }

    /// Cursor over row `v`.
    #[inline]
    pub fn cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        let degree = self.degrees[v as usize];
        let bytes = self.row_bytes(v);
        match row_class(degree as usize, self.num_vertices) {
            RowClass::Delta => NeighborCursor::Delta(DeltaCursor::new(bytes, degree)),
            RowClass::Bitmap => NeighborCursor::Bitmap(BitmapCursor::new(bytes)),
        }
    }

    /// Raw row-index section (serializer view).
    #[inline]
    pub fn row_starts(&self) -> &[usize] {
        &self.row_starts
    }

    /// Raw degrees section (serializer view).
    #[inline]
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Raw blob section (serializer view).
    #[inline]
    pub fn blob(&self) -> &[u8] {
        &self.blob
    }

    /// Bytes held by the three sections (8-byte row index entries).
    pub fn encoded_bytes(&self) -> usize {
        self.row_starts.len() * 8 + self.degrees.len() * 4 + self.blob.len()
    }

    fn is_mapped(&self) -> bool {
        self.row_starts.is_mapped() && self.degrees.is_mapped() && self.blob.is_mapped()
    }
}

/// Per-direction encoded sections handed to [`EncodedCsr::from_parts`] by
/// loaders.
pub struct EncodedAdjacencyParts {
    /// Byte offset of each row (`n + 1` entries).
    pub row_starts: Section<usize>,
    /// Degree of each row (`n` entries).
    pub degrees: Section<u32>,
    /// Concatenated encoded rows.
    pub blob: Section<u8>,
}

/// The encoded counterpart of [`CsrGraph`]: adjacency stored as
/// delta+varint / bitmap rows, canonical edge ids defined by forward
/// enumeration order (identical to the raw graph's ids), optional weights
/// indexed by canonical id. Kernels iterate it through [`GraphView`].
#[derive(Clone, Debug)]
pub struct EncodedCsr {
    directed: bool,
    num_edges: usize,
    out_adj: EncodedAdjacency,
    /// In-adjacency (directed graphs only).
    in_adj: Option<EncodedAdjacency>,
    /// Canonical edge weights, if weighted.
    weights: Option<Section<Weight>>,
}

impl EncodedCsr {
    /// Encodes a raw graph. The canonical edge ids of the result are the
    /// same as `g`'s (forward enumeration order == lexicographic canonical
    /// order).
    pub fn from_graph(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let out_adj = EncodedAdjacency::from_rows(n, (0..n as VertexId).map(|v| g.neighbors(v)));
        let in_adj = g
            .is_directed()
            .then(|| EncodedAdjacency::from_rows(n, (0..n as VertexId).map(|v| g.in_neighbors(v))));
        Self {
            directed: g.is_directed(),
            num_edges: g.num_edges(),
            out_adj,
            in_adj,
            weights: g.weight_slice().map(|w| Section::from(w.to_vec())),
        }
    }

    /// Assembles an encoded graph from raw sections, validating each
    /// adjacency structurally (see [`EncodedAdjacency::from_parts`]) and the
    /// directions against each other: the out-rows must describe exactly
    /// `m` edges, the undirected adjacency must be symmetric, and a
    /// directed in-adjacency must be the exact transpose of the out-rows
    /// (checked with an order-sensitive pair hash, one decode pass, no
    /// materialization). Self-loops are rejected.
    pub fn from_parts(
        directed: bool,
        num_vertices: usize,
        num_edges: usize,
        out: EncodedAdjacencyParts,
        in_: Option<EncodedAdjacencyParts>,
        weights: Option<Section<Weight>>,
    ) -> Result<Self, String> {
        if num_edges > EdgeId::MAX as usize {
            return Err("edge count exceeds EdgeId capacity".into());
        }
        let out_adj =
            EncodedAdjacency::from_parts(num_vertices, out.row_starts, out.degrees, out.blob)?;
        let slot_total: u64 = out_adj.degrees().par_iter().map(|&d| u64::from(d)).sum();
        let expected_slots = if directed { num_edges as u64 } else { 2 * num_edges as u64 };
        if slot_total != expected_slots {
            return Err(format!("degree sum {slot_total} != expected slots {expected_slots}"));
        }
        if let Some(w) = &weights {
            if w.len() != num_edges {
                return Err(format!("weights length {} != m = {num_edges}", w.len()));
            }
        }
        let in_adj = match (directed, in_) {
            (false, None) => None,
            (true, Some(p)) => {
                Some(EncodedAdjacency::from_parts(num_vertices, p.row_starts, p.degrees, p.blob)?)
            }
            (false, Some(_)) => return Err("undirected graph carries in-adjacency".into()),
            (true, None) => return Err("directed graph missing in-adjacency".into()),
        };
        let g = Self { directed, num_edges, out_adj, in_adj, weights };
        g.check_cross_consistency()?;
        Ok(g)
    }

    /// One parallel decode pass over all rows: rejects self-loops and
    /// verifies symmetry (undirected) or out/in transposition (directed)
    /// via commutative sums of an order-sensitive pair hash.
    fn check_cross_consistency(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if !self.directed {
            // Each undirected edge {u, v} must appear as forward slot
            // (u, v) with v > u and backward slot (v, u): equal counts and
            // equal hash-sums over ordered pairs (min, max).
            let (fwd_cnt, bwd_cnt, fwd_hash, bwd_hash, no_loops) = (0..n as VertexId)
                .into_par_iter()
                .map(|v| {
                    let (mut fc, mut bc) = (0u64, 0u64);
                    let (mut fh, mut bh) = (0u64, 0u64);
                    let mut clean = true;
                    self.out_adj.cursor(v).for_each(|t| {
                        if t == v {
                            clean = false;
                        } else if t > v {
                            fc += 1;
                            fh = fh.wrapping_add(pair_hash(v, t));
                        } else {
                            bc += 1;
                            bh = bh.wrapping_add(pair_hash(t, v));
                        }
                    });
                    (fc, bc, fh, bh, clean)
                })
                .reduce(
                    || (0, 0, 0, 0, true),
                    |a, b| {
                        (
                            a.0 + b.0,
                            a.1 + b.1,
                            a.2.wrapping_add(b.2),
                            a.3.wrapping_add(b.3),
                            a.4 && b.4,
                        )
                    },
                );
            if !no_loops {
                return Err("self-loop in encoded adjacency".into());
            }
            if fwd_cnt != self.num_edges as u64 || bwd_cnt != self.num_edges as u64 {
                return Err("undirected adjacency is not symmetric (slot counts)".into());
            }
            if fwd_hash != bwd_hash {
                return Err("undirected adjacency is not symmetric".into());
            }
        } else {
            let in_adj = self.in_adj.as_ref().expect("directed graph has in-adjacency");
            let in_slots: u64 = in_adj.degrees().par_iter().map(|&d| u64::from(d)).sum();
            if in_slots != self.num_edges as u64 {
                return Err("in-adjacency slot count != m".into());
            }
            let hash_of = |adj: &EncodedAdjacency, invert: bool| {
                (0..n as VertexId)
                    .into_par_iter()
                    .map(|v| {
                        let mut h = 0u64;
                        let mut clean = true;
                        adj.cursor(v).for_each(|t| {
                            if t == v {
                                clean = false;
                            }
                            let (src, dst) = if invert { (t, v) } else { (v, t) };
                            h = h.wrapping_add(pair_hash(src, dst));
                        });
                        (h, clean)
                    })
                    .reduce(|| (0, true), |a, b| (a.0.wrapping_add(b.0), a.1 && b.1))
            };
            let (out_hash, out_clean) = hash_of(&self.out_adj, false);
            let (in_hash, in_clean) = hash_of(in_adj, true);
            if !out_clean || !in_clean {
                return Err("self-loop in encoded adjacency".into());
            }
            if out_hash != in_hash {
                return Err("in-adjacency is not the transpose of out-adjacency".into());
            }
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_adj.num_vertices()
    }

    /// Number of canonical edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
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

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_adj.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        match &self.in_adj {
            Some(a) => a.degree(v),
            None => self.degree(v),
        }
    }

    /// Cursor over the out-row of `v`.
    #[inline]
    pub fn cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        self.out_adj.cursor(v)
    }

    /// Cursor over the in-row of `v` (out-row when undirected).
    #[inline]
    pub fn in_cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        match &self.in_adj {
            Some(a) => a.cursor(v),
            None => self.cursor(v),
        }
    }

    /// Weight of canonical edge `e` (1.0 when unweighted).
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

    /// The out-adjacency sections (serializer view).
    #[inline]
    pub fn out_adjacency(&self) -> &EncodedAdjacency {
        &self.out_adj
    }

    /// The in-adjacency sections, when directed (serializer view).
    #[inline]
    pub fn in_adjacency(&self) -> Option<&EncodedAdjacency> {
        self.in_adj.as_ref()
    }

    /// Decodes back to a raw [`CsrGraph`]; canonical edge ids, weights and
    /// adjacency are bit-identical to the graph that was encoded.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut edges = Vec::with_capacity(self.num_edges);
        for v in 0..n as VertexId {
            self.cursor(v).for_each(|t| {
                if self.directed || t > v {
                    edges.push((v, t));
                }
            });
        }
        let el =
            EdgeList { num_vertices: n, edges, weights: self.weights.as_ref().map(|w| w.to_vec()) };
        if self.directed {
            CsrGraph::from_edge_list_directed(el)
        } else {
            CsrGraph::from_edge_list(el)
        }
    }

    /// Bytes of the adjacency sections alone (row index + degrees + blob,
    /// both directions) — the quantity `slimgraph stats` prints next to
    /// the raw offsets + targets + slot ids it replaces.
    pub fn adjacency_bytes(&self) -> usize {
        self.out_adj.encoded_bytes() + self.in_adj.as_ref().map_or(0, |a| a.encoded_bytes())
    }

    /// Total resident bytes (adjacency sections plus weights).
    pub fn storage_bytes(&self) -> usize {
        self.adjacency_bytes()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }

    /// True when every section borrows from an external mapping (the
    /// zero-copy invariant of `sg-store`'s encoded mmap loader).
    pub fn is_fully_mapped(&self) -> bool {
        self.out_adj.is_mapped()
            && self.in_adj.as_ref().is_none_or(EncodedAdjacency::is_mapped)
            && self.weights.as_ref().is_none_or(Section::is_mapped)
    }
}

impl GraphView for EncodedCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        EncodedCsr::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        EncodedCsr::num_edges(self)
    }

    #[inline]
    fn is_directed(&self) -> bool {
        EncodedCsr::is_directed(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        EncodedCsr::degree(self, v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        EncodedCsr::in_degree(self, v)
    }

    #[inline]
    fn cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        EncodedCsr::cursor(self, v)
    }

    #[inline]
    fn in_cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        EncodedCsr::in_cursor(self, v)
    }

    #[inline]
    fn edge_weight(&self, e: EdgeId) -> Weight {
        EncodedCsr::edge_weight(self, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn assert_rows_match(g: &CsrGraph, enc: &EncodedCsr) {
        for v in 0..g.num_vertices() as VertexId {
            let decoded: Vec<VertexId> = enc.cursor(v).collect();
            assert_eq!(decoded, g.neighbors(v), "row {v}");
            let decoded_in: Vec<VertexId> = enc.in_cursor(v).collect();
            assert_eq!(decoded_in, g.in_neighbors(v), "in-row {v}");
            assert_eq!(enc.degree(v), g.degree(v));
            assert_eq!(enc.in_degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn round_trip_er() {
        let g = generators::erdos_renyi(300, 1200, 3);
        let enc = EncodedCsr::from_graph(&g);
        assert_eq!(enc.num_edges(), g.num_edges());
        assert_rows_match(&g, &enc);
        let back = enc.to_csr();
        assert_eq!(back.edge_slice(), g.edge_slice());
        assert_eq!(back.csr_offsets(), g.csr_offsets());
        assert_eq!(back.csr_targets(), g.csr_targets());
    }

    #[test]
    fn round_trip_dense_uses_bitmap_rows() {
        // Star hub has degree n-1 > n/64: bitmap row exercised.
        let g = generators::star(200);
        let enc = EncodedCsr::from_graph(&g);
        assert_eq!(row_class(g.degree(0), 200), RowClass::Bitmap);
        assert_eq!(row_class(g.degree(1), 200), RowClass::Delta);
        assert_rows_match(&g, &enc);
        assert_eq!(enc.to_csr().edge_slice(), g.edge_slice());
    }

    #[test]
    fn round_trip_directed_weighted() {
        let el = EdgeList::from_weighted(
            5,
            vec![(0, 1, 0.5), (1, 2, 1.5), (2, 0, 2.5), (3, 4, 3.5), (0, 4, 4.5)],
        );
        let g = CsrGraph::from_edge_list_directed(el);
        let enc = EncodedCsr::from_graph(&g);
        assert!(enc.is_directed() && enc.is_weighted());
        assert_rows_match(&g, &enc);
        let back = enc.to_csr();
        assert_eq!(back.edge_slice(), g.edge_slice());
        assert_eq!(back.weight_slice(), g.weight_slice());
    }

    #[test]
    fn from_parts_accepts_own_encoding() {
        let g = generators::barabasi_albert(400, 6, 5);
        let enc = EncodedCsr::from_graph(&g);
        let parts = EncodedAdjacencyParts {
            row_starts: enc.out_adjacency().row_starts().to_vec().into(),
            degrees: enc.out_adjacency().degrees().to_vec().into(),
            blob: enc.out_adjacency().blob().to_vec().into(),
        };
        let rebuilt =
            EncodedCsr::from_parts(false, g.num_vertices(), g.num_edges(), parts, None, None)
                .expect("valid encoding round-trips");
        assert_rows_match(&g, &rebuilt);
    }

    #[test]
    fn from_parts_rejects_truncated_varint() {
        let g = generators::erdos_renyi(64, 200, 1);
        let enc = EncodedCsr::from_graph(&g);
        let mut blob = enc.out_adjacency().blob().to_vec();
        let last = blob.len() - 1;
        blob[last] |= 0x80; // final byte now demands a continuation
        let parts = EncodedAdjacencyParts {
            row_starts: enc.out_adjacency().row_starts().to_vec().into(),
            degrees: enc.out_adjacency().degrees().to_vec().into(),
            blob: blob.into(),
        };
        let err = EncodedCsr::from_parts(false, 64, g.num_edges(), parts, None, None)
            .expect_err("truncated varint rejected");
        assert!(err.contains("row invalid"), "{err}");
    }

    #[test]
    fn from_parts_rejects_gap_overflow() {
        // Row 0 of a 2-vertex graph claiming target gap 200 (>= n).
        let mut blob = Vec::new();
        write_varint(&mut blob, 200);
        let parts = EncodedAdjacencyParts {
            row_starts: vec![0usize, blob.len(), blob.len()].into(),
            degrees: vec![1u32, 0].into(),
            blob: blob.into(),
        };
        let err = EncodedCsr::from_parts(false, 2, 1, parts, None, None)
            .expect_err("gap overflow rejected");
        assert!(err.contains("row invalid"), "{err}");
    }

    #[test]
    fn from_parts_rejects_malformed_bitmap() {
        let g = generators::star(200);
        let enc = EncodedCsr::from_graph(&g);
        // Oversize the hub's bitmap row by 8 bytes.
        let hub_end = enc.out_adjacency().row_starts()[1];
        let mut blob = enc.out_adjacency().blob().to_vec();
        blob.splice(hub_end..hub_end, std::iter::repeat_n(0u8, 8));
        let row_starts: Vec<usize> = enc
            .out_adjacency()
            .row_starts()
            .iter()
            .enumerate()
            .map(|(i, &s)| if i >= 1 { s + 8 } else { s })
            .collect();
        let parts = EncodedAdjacencyParts {
            row_starts: row_starts.into(),
            degrees: enc.out_adjacency().degrees().to_vec().into(),
            blob: blob.into(),
        };
        let err = EncodedCsr::from_parts(false, 200, g.num_edges(), parts, None, None)
            .expect_err("oversized bitmap rejected");
        assert!(err.contains("row invalid"), "{err}");
    }

    #[test]
    fn from_parts_rejects_asymmetry() {
        // Vertex 0 claims neighbor 1, but vertex 1 is empty; vertex 2
        // claims neighbor 1 instead. Slot counts balance (one forward, one
        // backward), so only the pair-hash check can catch it.
        let n = 200;
        let mut blob = Vec::new();
        write_varint(&mut blob, 1); // row 0: [1]
        let r1 = blob.len();
        write_varint(&mut blob, 1); // row 2: [1]
        let mut row_starts = vec![0usize, r1, r1, blob.len()];
        row_starts.resize(n + 1, blob.len());
        let mut degrees = vec![1u32, 0, 1];
        degrees.resize(n, 0);
        let parts = EncodedAdjacencyParts {
            row_starts: row_starts.into(),
            degrees: degrees.into(),
            blob: blob.into(),
        };
        let err = EncodedCsr::from_parts(false, n, 1, parts, None, None)
            .expect_err("asymmetric adjacency rejected");
        assert!(err.contains("symmetric"), "{err}");
    }

    #[test]
    fn adjacency_bytes_smaller_than_raw_on_social_graph() {
        let g = generators::barabasi_albert(5000, 8, 7);
        let enc = EncodedCsr::from_graph(&g);
        let raw_adj =
            g.csr_offsets().len() * 8 + g.csr_targets().len() * 4 + g.csr_slot_edges().len() * 4;
        assert!(
            enc.adjacency_bytes() * 2 <= raw_adj,
            "encoded {} vs raw {raw_adj}",
            enc.adjacency_bytes()
        );
    }

    use crate::EdgeList;
}
