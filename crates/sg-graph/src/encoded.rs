//! Compressed adjacency storage: Stream VByte delta rows and bitmap rows.
//!
//! WebGraph-style gap coding (Boldi & Vigna; the paper's storage discussion
//! in §6) in a layout that decodes without a per-byte branch: each sorted
//! adjacency row is stored either as a Stream VByte array of gaps (sparse
//! rows; Lemire, Kurz, Rupp, IPL 2018 — `ceil(d/4)` control bytes holding
//! four 2-bit length codes each, then the gaps in their minimal
//! little-endian lengths) or as an `n`-bit bitmap (dense rows, selected
//! when `64·degree > n`, i.e. when the bitmap is smaller than raw u32
//! targets). [`EncodedCsr`] is the encoded
//! counterpart of [`CsrGraph`]: same vertex ids, same canonical edge ids
//! (forward enumeration order), owned or mmap-backed sections, iterated
//! through [`NeighborCursor`] so kernels never materialize raw CSR.
//!
//! No row index is stored: a row's byte length follows from its degree (and,
//! for a delta row, its control bytes), so [`EncodedAdjacency::from_parts`]
//! derives the `n + 1` row offsets in one pass over the control bytes, as
//! part of the validation every load runs.
//!
//! Determinism: row class and row content depend only on `(row, n)` — one
//! graph has exactly one encoding; decode order is a pure function of the
//! row index, so every kernel result is bit-identical to the raw-CSR run at
//! any `SG_THREADS`.

use crate::edge_list::EdgeList;
use crate::storage::Section;
use crate::types::{EdgeId, VertexId, Weight};
use crate::view::{
    delta_row_bytes, delta_row_is_valid, delta_row_span, write_delta_row, BitmapCursor,
    DeltaCursor, GraphView, NeighborCursor,
};
use crate::CsrGraph;
use rayon::prelude::*;

/// How one adjacency row is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowClass {
    /// Stream VByte gaps (the first from 0, then to the previous target).
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

/// One encoded adjacency structure (out- or in-rows): per-row degrees and
/// the blob of encoded rows — both [`Section`]s, so they can borrow from an
/// `.sgr` mapping — plus the per-row byte offsets into the blob, which are
/// derived, never stored.
#[derive(Clone, Debug)]
pub struct EncodedAdjacency {
    num_vertices: usize,
    /// Byte offset of each row in `blob` (`n + 1` entries).
    row_starts: Vec<usize>,
    /// Degree of each row (`n` entries).
    degrees: Section<u32>,
    /// Concatenated encoded rows.
    blob: Section<u8>,
}

/// Runs of whole rows the encoder writes in parallel: a few per worker, so
/// a run of hub rows does not hold the others up.
const ENCODE_RUNS: usize = 16;

/// Bytes row `row` takes in the blob.
#[inline]
fn encoded_row_bytes(row: &[VertexId], num_vertices: usize) -> usize {
    match row_class(row.len(), num_vertices) {
        RowClass::Delta => delta_row_bytes(row),
        RowClass::Bitmap => bitmap_row_bytes(num_vertices),
    }
}

impl EncodedAdjacency {
    /// Encodes the rows of a CSR adjacency: row `v` is
    /// `targets[offsets[v]..offsets[v + 1]]`, strictly increasing with
    /// targets `< num_vertices` (the `CsrGraph` row invariant). A parallel
    /// sizing pass lays the rows out; the blob is then written in one
    /// exact-size allocation, runs of whole rows in parallel. A row's bytes
    /// depend on the row alone, so the split cannot move a bit.
    pub fn from_csr(num_vertices: usize, offsets: &[usize], targets: &[VertexId]) -> Self {
        let n = num_vertices;
        assert_eq!(offsets.len(), n + 1, "one row per vertex required");
        let row = |v: usize| &targets[offsets[v]..offsets[v + 1]];
        let lens: Vec<usize> =
            (0..n).into_par_iter().map(|v| encoded_row_bytes(row(v), n)).collect();
        let mut row_starts = Vec::with_capacity(n + 1);
        let mut end = 0;
        row_starts.push(end);
        for len in lens {
            end += len;
            row_starts.push(end);
        }
        let mut blob = vec![0u8; end];
        let mut runs = Vec::with_capacity(ENCODE_RUNS);
        let mut rest = blob.as_mut_slice();
        for k in 0..ENCODE_RUNS {
            let rows = k * n / ENCODE_RUNS..(k + 1) * n / ENCODE_RUNS;
            let (run, tail) = rest.split_at_mut(row_starts[rows.end] - row_starts[rows.start]);
            runs.push((rows, run));
            rest = tail;
        }
        runs.par_iter_mut().for_each(|(rows, run)| {
            let mut at = 0;
            for v in rows.clone() {
                let (row, len) = (row(v), row_starts[v + 1] - row_starts[v]);
                let out = &mut run[at..at + len];
                at += len;
                match row_class(row.len(), n) {
                    RowClass::Delta => write_delta_row(row, out),
                    RowClass::Bitmap => {
                        for &t in row {
                            out[t as usize / 8] |= 1 << (t % 8);
                        }
                    }
                }
            }
        });
        let degrees: Vec<u32> = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        Self { num_vertices, row_starts, degrees: degrees.into(), blob: blob.into() }
    }

    /// Assembles an encoded adjacency from raw (owned or mapped) sections.
    /// Derives the row offsets from the degrees and the control bytes
    /// (every row must end inside the blob, and the last exactly at its
    /// end), then validates every row: delta rows strictly increasing below
    /// `n` with minimal lengths and no stray length code, bitmap rows by
    /// popcount against the degree and no bit at or above `n`. A hostile
    /// `.sgr` file is rejected here instead of misbehaving in a kernel later.
    pub fn from_parts(
        num_vertices: usize,
        degrees: Section<u32>,
        blob: Section<u8>,
    ) -> Result<Self, String> {
        let n = num_vertices;
        if degrees.len() != n {
            return Err(format!("degrees length {} != n = {n}", degrees.len()));
        }
        let row_starts = derive_row_starts(n, &degrees, &blob)?;
        let adj = Self { num_vertices, row_starts, degrees, blob };
        let rows_ok = (0..n).into_par_iter().all(|v| adj.validate_row(v));
        if !rows_ok {
            return Err("encoded adjacency row invalid (truncated group, non-minimal length, \
                        stray length code, gap overflow, or malformed bitmap)"
                .into());
        }
        Ok(adj)
    }

    fn validate_row(&self, v: usize) -> bool {
        let degree = self.degrees[v];
        match row_class(degree as usize, self.num_vertices) {
            RowClass::Delta => {
                delta_row_is_valid(&self.blob[self.row_starts[v]..], degree, self.num_vertices)
            }
            RowClass::Bitmap => {
                let bytes = self.row_bytes(v as VertexId);
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
                popcount == degree as usize
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

    /// Cursor over row `v`. A delta cursor's slice runs on to the end of
    /// the blob, so its group loads stay in bounds past the row's end.
    #[inline]
    pub fn cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        let degree = self.degrees[v as usize];
        match row_class(degree as usize, self.num_vertices) {
            RowClass::Delta => NeighborCursor::Delta(DeltaCursor::new(
                &self.blob[self.row_starts[v as usize]..],
                degree,
            )),
            RowClass::Bitmap => NeighborCursor::Bitmap(BitmapCursor::new(self.row_bytes(v))),
        }
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

    /// Bytes the stored sections take on disk: degrees and blob (the
    /// derived row offsets are not stored).
    pub fn encoded_bytes(&self) -> usize {
        self.degrees.len() * 4 + self.blob.len()
    }

    /// Whether both stored sections borrow from a mapping.
    fn is_mapped(&self) -> bool {
        self.degrees.is_mapped() && self.blob.is_mapped()
    }
}

/// Derives the byte offset of every row (`n + 1` entries) from the degrees
/// and, for delta rows, the control bytes: one sequential pass that reads
/// `ceil(d/4)` bytes of a delta row and none of a bitmap row. Fails when a
/// degree exceeds `n`, a row would end past the blob, or bytes are left
/// after the last row.
fn derive_row_starts(n: usize, degrees: &[u32], blob: &[u8]) -> Result<Vec<usize>, String> {
    let invalid = |v: usize, what: &str| format!("encoded adjacency row invalid: row {v} {what}");
    let mut row_starts = Vec::with_capacity(n + 1);
    let mut at = 0usize;
    for (v, &degree) in degrees.iter().enumerate() {
        row_starts.push(at);
        let degree = degree as usize;
        if degree > n {
            return Err(invalid(v, "has more neighbors than there are vertices"));
        }
        let len = match row_class(degree, n) {
            RowClass::Delta => {
                let ctrl = blob
                    .get(at..at + degree.div_ceil(4))
                    .ok_or_else(|| invalid(v, "ends past the blob"))?;
                delta_row_span(ctrl, degree)
            }
            RowClass::Bitmap => bitmap_row_bytes(n),
        };
        at = at
            .checked_add(len)
            .filter(|&end| end <= blob.len())
            .ok_or_else(|| invalid(v, "ends past the blob"))?;
    }
    if at != blob.len() {
        return Err(format!(
            "encoded adjacency row invalid: {} bytes after the last row",
            blob.len() - at
        ));
    }
    row_starts.push(at);
    Ok(row_starts)
}

/// Per-direction encoded sections handed to [`EncodedCsr::from_parts`] by
/// loaders.
pub struct EncodedAdjacencyParts {
    /// Degree of each row (`n` entries).
    pub degrees: Section<u32>,
    /// Concatenated encoded rows.
    pub blob: Section<u8>,
}

/// The encoded counterpart of [`CsrGraph`]: adjacency stored as
/// Stream VByte delta rows / bitmap rows, canonical edge ids defined by forward
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
        let out_adj = EncodedAdjacency::from_csr(n, g.csr_offsets(), g.csr_targets());
        let in_adj = g
            .in_csr_offsets()
            .zip(g.in_csr_targets())
            .map(|(offsets, targets)| EncodedAdjacency::from_csr(n, offsets, targets));
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
        let out_adj = EncodedAdjacency::from_parts(num_vertices, out.degrees, out.blob)?;
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
            (true, Some(p)) => Some(EncodedAdjacency::from_parts(num_vertices, p.degrees, p.blob)?),
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

    /// Bytes of the stored adjacency sections alone (degrees + blob, both
    /// directions) — the quantity `slimgraph stats` prints next to the raw
    /// offsets + targets + slot ids it replaces.
    pub fn adjacency_bytes(&self) -> usize {
        self.out_adj.encoded_bytes() + self.in_adj.as_ref().map_or(0, |a| a.encoded_bytes())
    }

    /// Total resident bytes (adjacency sections plus weights).
    pub fn storage_bytes(&self) -> usize {
        self.adjacency_bytes()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }

    /// True when every stored section borrows from an external mapping (the
    /// zero-copy invariant of `sg-store`'s encoded mmap loader). The derived
    /// row offsets are owned and do not count.
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
    use crate::view::{delta_row_bytes, write_delta_row};

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

    /// The out-adjacency sections of `enc`, as a loader would hand them over.
    fn out_parts(enc: &EncodedCsr) -> EncodedAdjacencyParts {
        EncodedAdjacencyParts {
            degrees: enc.out_adjacency().degrees().to_vec().into(),
            blob: enc.out_adjacency().blob().to_vec().into(),
        }
    }

    /// Delta rows of an `n`-vertex graph, encoded as the writer does.
    fn delta_rows(n: usize, rows: &[&[VertexId]]) -> EncodedAdjacencyParts {
        let mut degrees = vec![0u32; n];
        let mut blob = Vec::new();
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(row_class(row.len(), n), RowClass::Delta);
            degrees[v] = row.len() as u32;
            let at = blob.len();
            blob.resize(at + delta_row_bytes(row), 0);
            write_delta_row(row, &mut blob[at..]);
        }
        EncodedAdjacencyParts { degrees: degrees.into(), blob: blob.into() }
    }

    #[test]
    fn from_parts_accepts_own_encoding() {
        let g = generators::barabasi_albert(400, 6, 5);
        let enc = EncodedCsr::from_graph(&g);
        let (n, m) = (g.num_vertices(), g.num_edges());
        let rebuilt = EncodedCsr::from_parts(false, n, m, out_parts(&enc), None, None)
            .expect("valid encoding round-trips");
        assert_rows_match(&g, &rebuilt);
        // The derived row offsets are the ones the encoder laid out.
        for v in 0..n as VertexId {
            assert_eq!(rebuilt.out_adjacency().row_bytes(v), enc.out_adjacency().row_bytes(v));
        }
    }

    #[test]
    fn from_parts_rejects_truncated_varint() {
        // Every row of a 2 000-vertex BA graph is a delta row; dropping the
        // blob's last byte cuts the last row's last value short.
        let g = generators::barabasi_albert(2000, 6, 1);
        let enc = EncodedCsr::from_graph(&g);
        let mut parts = out_parts(&enc);
        let blob = enc.out_adjacency().blob();
        parts.blob = blob[..blob.len() - 1].to_vec().into();
        let err = EncodedCsr::from_parts(false, 2000, g.num_edges(), parts, None, None)
            .expect_err("truncated value rejected");
        assert!(err.contains("row invalid"), "{err}");
    }

    #[test]
    fn from_parts_rejects_gap_overflow() {
        // Row 0 of a 100-vertex graph claiming target 200 (>= n).
        let parts = delta_rows(100, &[&[200]]);
        let err = EncodedCsr::from_parts(false, 100, 1, parts, None, None)
            .expect_err("gap overflow rejected");
        assert!(err.contains("row invalid"), "{err}");
    }

    #[test]
    fn from_parts_rejects_malformed_bitmap() {
        let g = generators::star(200);
        let enc = EncodedCsr::from_graph(&g);
        // Oversize the hub's bitmap row by 8 bytes: the rows after it shift
        // and the blob ends 8 bytes after the last derived row end.
        let hub_end = enc.out_adjacency().row_bytes(0).len();
        let mut blob = enc.out_adjacency().blob().to_vec();
        blob.splice(hub_end..hub_end, std::iter::repeat_n(0u8, 8));
        let mut parts = out_parts(&enc);
        parts.blob = blob.into();
        let err = EncodedCsr::from_parts(false, 200, g.num_edges(), parts, None, None)
            .expect_err("oversized bitmap rejected");
        assert!(err.contains("row invalid"), "{err}");
        // A bit past n (bit 200 of the hub's 256-bit row).
        let mut blob = enc.out_adjacency().blob().to_vec();
        blob[200 / 8] |= 1;
        let mut parts = out_parts(&enc);
        parts.blob = blob.into();
        let err = EncodedCsr::from_parts(false, 200, g.num_edges(), parts, None, None)
            .expect_err("bitmap bit past n rejected");
        assert!(err.contains("row invalid"), "{err}");
    }

    #[test]
    fn from_parts_rejects_asymmetry() {
        // Vertex 0 claims neighbor 1, but vertex 1 is empty; vertex 2
        // claims neighbor 1 instead. Slot counts balance (one forward, one
        // backward), so only the pair-hash check can catch it.
        let parts = delta_rows(200, &[&[1], &[], &[1]]);
        let err = EncodedCsr::from_parts(false, 200, 1, parts, None, None)
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
