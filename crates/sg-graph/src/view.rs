//! One iteration API over raw and encoded adjacency: [`NeighborCursor`]
//! and the [`GraphView`] trait.
//!
//! Slim Graph's storage pillar (§6) argues compression should pay off for
//! *processing*, not just disk. That only works if kernels can run over an
//! encoded graph without first materializing raw CSR, which in turn needs a
//! single row-iteration abstraction: `CsrGraph` hands out borrowed slices,
//! [`crate::encoded::EncodedCsr`] decodes Stream VByte delta rows or bitmap
//! rows on the fly. A delta row's control byte gives the lengths of four
//! gaps, so a whole group decodes with four masked `u32` loads and no
//! per-byte branch (Lemire, Kurz, Rupp, "Stream VByte", IPL 2018). The
//! cursor drains whole groups into 64-lane chunks or straight into a
//! closure, and decode order is a pure function of the row index — parallel
//! runs stay bit-identical at any `SG_THREADS`.
//!
//! The delta-row codec lives here too: the writer (`delta_row_bytes`,
//! `write_delta_row`), the byte length a row's control bytes imply
//! (`delta_row_span`) and the strict check loaders run before any kernel
//! sees a row (`delta_row_is_valid`).

use crate::types::{VertexId, Weight};
use crate::CsrGraph;

/// Lanes per decode chunk: one cache line of u32 targets times four, small
/// enough to live on the stack, large enough to amortize dispatch.
pub const CURSOR_CHUNK: usize = 64;

/// Keeps the low `code + 1` bytes of a little-endian `u32` load.
const GAP_MASK: [u32; 4] = [0xff, 0xffff, 0xff_ffff, 0xffff_ffff];

/// Minimal little-endian byte length of a gap (1–4).
#[inline]
fn gap_bytes(gap: u32) -> usize {
    4 - (gap | 1).leading_zeros() as usize / 8
}

/// Bytes of a strictly increasing row stored as a delta row: `ceil(d/4)`
/// control bytes plus each gap in its minimal length.
pub(crate) fn delta_row_bytes(row: &[VertexId]) -> usize {
    let mut prev = 0;
    let mut data = 0;
    for &t in row {
        data += gap_bytes(t - prev);
        prev = t;
    }
    row.len().div_ceil(4) + data
}

/// Writes a strictly increasing row as a delta row into `out`, which must be
/// exactly [`delta_row_bytes`]`(row)` long. Value `i` is the gap to the
/// previous target (the first is the gap from 0) in its minimal length; the
/// length code `len - 1` sits in bits `2·(i%4)..` of control byte `i/4`, and
/// the unused fields of the last control byte stay zero — so a row has
/// exactly one encoding.
pub(crate) fn write_delta_row(row: &[VertexId], out: &mut [u8]) {
    let (ctrl, data) = out.split_at_mut(row.len().div_ceil(4));
    let (mut at, mut prev) = (0, 0);
    for (group, ctrl) in row.chunks(4).zip(ctrl) {
        let mut codes = 0;
        for (lane, &t) in group.iter().enumerate() {
            let gap = t - prev;
            prev = t;
            let len = gap_bytes(gap);
            codes |= ((len - 1) as u8) << (2 * lane);
            // A full-width store's spare bytes are overwritten by the next
            // value; only the row's last few bytes go one at a time.
            match data.get_mut(at..at + 4) {
                Some(word) => word.copy_from_slice(&gap.to_le_bytes()),
                None => {
                    for (k, byte) in data[at..at + len].iter_mut().enumerate() {
                        *byte = (gap >> (8 * k)) as u8;
                    }
                }
            }
            at += len;
        }
        *ctrl = codes;
    }
    debug_assert_eq!(at, data.len(), "out must be delta_row_bytes(row) long");
}

/// Byte length of a delta row of `degree` values, read from its
/// `ceil(degree/4)` control bytes `ctrl`: the control bytes plus `code + 1`
/// data bytes per value, plus the code of any unused field of the last
/// control byte (zero in a valid row; [`delta_row_is_valid`] rejects
/// others).
pub(crate) fn delta_row_span(ctrl: &[u8], degree: usize) -> usize {
    let codes: usize = ctrl
        .iter()
        .map(|&c| ((c & 0x55).count_ones() + 2 * (c & 0xaa).count_ones()) as usize)
        .sum();
    ctrl.len() + degree + codes
}

/// Whether the delta row of `degree` values at the start of `bytes` is the
/// one valid encoding of `degree` strictly increasing targets below `n`: its
/// [`delta_row_span`] fits in `bytes`, no gap after the first is zero, the
/// last target is below `n`, every length is minimal and the unused fields
/// of the last control byte are zero.
///
/// The row is decoded by the same [`DeltaCursor`] kernels use. The span
/// counts `code + 1` bytes per value plus any unused field's code, and a
/// stored length `code + 1` is never shorter than the minimal length of the
/// value it yields; so the last two conditions hold exactly when the span
/// equals the control bytes plus the minimal lengths of the decoded gaps.
pub(crate) fn delta_row_is_valid(bytes: &[u8], degree: u32, n: usize) -> bool {
    let ctrl_len = (degree as usize).div_ceil(4);
    let Some(ctrl) = bytes.get(..ctrl_len) else { return false };
    let span = delta_row_span(ctrl, degree as usize);
    if bytes.len() < span {
        return false; // truncated: the row runs past its bytes
    }
    let (mut count, mut minimal, mut last, mut prev) = (0, ctrl_len, 0u64, 0u32);
    let mut zero_gap = false;
    DeltaCursor::new(bytes, degree).for_each(|t| {
        let gap = t.wrapping_sub(prev);
        zero_gap |= count > 0 && gap == 0;
        minimal += gap_bytes(gap);
        last += u64::from(gap);
        prev = t;
        count += 1;
    });
    count == degree && !zero_gap && minimal == span && (degree == 0 || last < n as u64)
}

/// Loads the gap stored at `at` with length code `code`: one bounds-checked
/// `u32` load masked to `code + 1` bytes (the bytes past the value belong
/// to the row's next value or to the next row), or a byte-wise load in the
/// last three bytes of the blob. `None` when the value itself runs past.
#[inline(always)]
fn load_gap(bytes: &[u8], at: usize, code: u8) -> Option<u32> {
    if let Some(word) = bytes.get(at..at + 4) {
        let word = u32::from_le_bytes(word.try_into().expect("4-byte window"));
        return Some(word & GAP_MASK[usize::from(code & 3)]);
    }
    let tail = bytes.get(at..at + usize::from(code) + 1)?;
    Some(tail.iter().rev().fold(0, |v, &b| v << 8 | u32::from(b)))
}

/// Streaming decoder over one Stream VByte delta row: `ceil(d/4)` control
/// bytes, then the gaps (the first from 0), value `i`'s length code
/// (`bytes - 1`) in bits `2·(i%4)..` of control byte `i/4`. `next` decodes one value; `fold` / `for_each` and
/// [`NeighborCursor::next_chunk`] run whole groups of four.
#[derive(Clone, Debug)]
pub struct DeltaCursor<'a> {
    /// From the row's first control byte to the end of the blob: group
    /// loads may read up to 3 bytes past the row, which their masks drop.
    bytes: &'a [u8],
    /// Values decoded so far.
    index: u32,
    /// Values in the row.
    degree: u32,
    /// Offset of the next value's first data byte.
    data: usize,
    /// Last target decoded (0 before the first: the first gap is from 0).
    prev: u32,
}

impl<'a> DeltaCursor<'a> {
    /// Creates a cursor over the `degree`-value delta row at the start of
    /// `bytes`; `bytes` may run on past the row.
    #[inline]
    pub fn new(bytes: &'a [u8], degree: u32) -> Self {
        Self { bytes, index: 0, degree, data: (degree as usize).div_ceil(4), prev: 0 }
    }

    /// Values not yet decoded.
    #[inline]
    fn remaining(&self) -> u32 {
        self.degree - self.index
    }

    /// Decodes the first `lanes` (1–4) values of the group at the cursor,
    /// which must sit on a group boundary with at least `lanes` values left;
    /// the rest of the returned array is scratch. The loads of all four
    /// fields stay inside the blob (a short last group's unused fields are
    /// zero: one byte each), so a partial group decodes like a full one.
    /// `None`, and the cursor exhausted, when the group runs past the blob.
    /// Callers pass `lanes` as a constant where they can.
    #[inline(always)]
    fn next_group(&mut self, lanes: usize) -> Option<[VertexId; 4]> {
        debug_assert!(self.index.is_multiple_of(4) && (1..=4).contains(&lanes));
        debug_assert!(lanes <= self.remaining() as usize);
        let group = self.decode_group(lanes);
        if group.is_none() {
            self.index = self.degree;
        }
        group
    }

    #[inline(always)]
    fn decode_group(&mut self, lanes: usize) -> Option<[VertexId; 4]> {
        let ctrl = *self.bytes.get(self.index as usize / 4)?;
        let codes = [ctrl & 3, (ctrl >> 2) & 3, (ctrl >> 4) & 3, ctrl >> 6];
        let o1 = usize::from(codes[0]) + 1;
        let o2 = o1 + usize::from(codes[1]) + 1;
        let o3 = o2 + usize::from(codes[2]) + 1;
        let offsets = [0, o1, o2, o3, o3 + usize::from(codes[3]) + 1];
        let at = self.data;
        let mut gaps = [0u32; 4];
        match self.bytes.get(at..at + 16) {
            // Four u32 loads from one window, each masked to its length.
            Some(window) => {
                for lane in 0..4 {
                    let word = &window[offsets[lane]..offsets[lane] + 4];
                    let word = u32::from_le_bytes(word.try_into().expect("4-byte word"));
                    gaps[lane] = word & GAP_MASK[usize::from(codes[lane] & 3)];
                }
            }
            // The blob's last bytes: only the lanes the row has, each load
            // falling back to bytes where a full word would run past.
            None => {
                for lane in 0..lanes {
                    gaps[lane] = load_gap(self.bytes, at + offsets[lane], codes[lane])?;
                }
            }
        }
        let mut targets = [0u32; 4];
        let mut prev = self.prev;
        for (target, gap) in targets.iter_mut().zip(gaps) {
            prev = prev.wrapping_add(gap);
            *target = prev;
        }
        self.data = at + offsets[lanes];
        self.index += lanes as u32;
        self.prev = targets[lanes - 1];
        Some(targets)
    }

    /// Decodes into `out` until it is full or the row ends, whole groups at
    /// a time once on a group boundary; returns how many values it wrote.
    #[inline(always)]
    fn fill(&mut self, out: &mut [VertexId]) -> usize {
        let mut filled = 0;
        while filled < out.len() && !self.index.is_multiple_of(4) {
            let Some(t) = self.next() else { return filled };
            out[filled] = t;
            filled += 1;
        }
        while filled + 4 <= out.len() && self.remaining() >= 4 {
            let Some(group) = self.next_group(4) else { return filled };
            out[filled..filled + 4].copy_from_slice(&group);
            filled += 4;
        }
        let lanes = (self.remaining() as usize).min(out.len() - filled);
        if lanes > 0 {
            let Some(group) = self.next_group(lanes) else { return filled };
            out[filled..filled + lanes].copy_from_slice(&group[..lanes]);
            filled += lanes;
        }
        filled
    }
}

impl Iterator for DeltaCursor<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.index == self.degree {
            return None;
        }
        let i = self.index as usize;
        let decoded = self.bytes.get(i / 4).and_then(|&ctrl| {
            let code = (ctrl >> (2 * (i % 4))) & 3;
            Some((load_gap(self.bytes, self.data, code)?, usize::from(code) + 1))
        });
        let Some((gap, len)) = decoded else {
            // Loaders reject such rows up front; a cursor simply stops.
            self.index = self.degree;
            return None;
        };
        self.data += len;
        self.index += 1;
        // Wrapping add keeps the loop branch-light; loaders guarantee the
        // accumulated value never exceeds n.
        self.prev = self.prev.wrapping_add(gap);
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining() as usize))
    }

    /// Whole groups (and so `for_each`): finishes a group `next` left open,
    /// then decodes four values per control byte, the row's last partial
    /// group included.
    #[inline]
    fn fold<B, F: FnMut(B, VertexId) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        while !self.index.is_multiple_of(4) {
            let Some(t) = self.next() else { return acc };
            acc = f(acc, t);
        }
        while self.remaining() >= 4 {
            let Some([t0, t1, t2, t3]) = self.next_group(4) else { return acc };
            acc = f(acc, t0);
            acc = f(acc, t1);
            acc = f(acc, t2);
            acc = f(acc, t3);
        }
        let lanes = self.remaining() as usize;
        if lanes > 0 {
            let Some(group) = self.next_group(lanes) else { return acc };
            for &t in &group[..lanes] {
                acc = f(acc, t);
            }
        }
        acc
    }
}

/// Streaming decoder over one bitmap row: `ceil(n/64)` little-endian u64
/// words stored as bytes (rows are byte-addressed, so words are read with
/// `from_le_bytes` rather than cast).
#[derive(Clone, Debug)]
pub struct BitmapCursor<'a> {
    bytes: &'a [u8],
    word_idx: usize,
    current: u64,
}

impl<'a> BitmapCursor<'a> {
    /// Creates a cursor over a bitmap row (`bytes.len()` multiple of 8).
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut c = Self { bytes, word_idx: 0, current: 0 };
        c.current = c.load_word(0);
        c
    }

    #[inline]
    fn load_word(&self, idx: usize) -> u64 {
        match self.bytes.get(idx * 8..idx * 8 + 8) {
            Some(w) => u64::from_le_bytes(w.try_into().expect("8-byte window")),
            None => 0,
        }
    }
}

impl Iterator for BitmapCursor<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx * 8 >= self.bytes.len() {
                return None;
            }
            self.current = self.load_word(self.word_idx);
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.word_idx * 64) as VertexId + bit)
    }
}

/// A cursor over one adjacency row, regardless of how the row is stored.
///
/// Raw CSR rows iterate a borrowed slice with zero overhead; encoded rows
/// decode on the fly. [`NeighborCursor::for_each`] is the hot-loop entry
/// point: it drains the row through a [`CURSOR_CHUNK`]-lane stack buffer.
#[derive(Clone, Debug)]
pub enum NeighborCursor<'a> {
    /// Borrowed raw row (sorted target slice).
    Slice(&'a [VertexId]),
    /// Stream VByte delta row.
    Delta(DeltaCursor<'a>),
    /// Bitmap row for dense vertices.
    Bitmap(BitmapCursor<'a>),
}

impl<'a> NeighborCursor<'a> {
    /// The raw slice, when the row is stored uncompressed.
    #[inline]
    pub fn as_slice(&self) -> Option<&'a [VertexId]> {
        match self {
            NeighborCursor::Slice(s) => Some(s),
            _ => None,
        }
    }

    /// Decodes up to [`CURSOR_CHUNK`] targets into `buf`, returning how many
    /// lanes were filled (0 when the row is exhausted).
    #[inline]
    pub fn next_chunk(&mut self, buf: &mut [VertexId; CURSOR_CHUNK]) -> usize {
        match self {
            NeighborCursor::Slice(s) => {
                let take = s.len().min(CURSOR_CHUNK);
                buf[..take].copy_from_slice(&s[..take]);
                *s = &s[take..];
                take
            }
            NeighborCursor::Delta(c) => {
                // Decode on a copy the registers can hold; store it once.
                let mut local = c.clone();
                let filled = local.fill(buf);
                *c = local;
                filled
            }
            NeighborCursor::Bitmap(c) => {
                let mut filled = 0;
                while filled < CURSOR_CHUNK {
                    match c.next() {
                        Some(t) => {
                            buf[filled] = t;
                            filled += 1;
                        }
                        None => break,
                    }
                }
                filled
            }
        }
    }

    /// Appends the targets left in the row to `buf`: a slice or a whole
    /// Stream VByte group at a time, bitmap rows bit by bit.
    #[inline]
    pub(crate) fn append_to(self, buf: &mut Vec<VertexId>) {
        match self {
            NeighborCursor::Slice(s) => buf.extend_from_slice(s),
            NeighborCursor::Delta(mut c) => {
                let start = buf.len();
                buf.resize(start + c.remaining() as usize, 0);
                let filled = c.fill(&mut buf[start..]);
                buf.truncate(start + filled); // only a row loaders reject stops short
            }
            NeighborCursor::Bitmap(c) => c.for_each(|t| buf.push(t)),
        }
    }

    /// Applies `f` to every target in row order. Slices iterate directly;
    /// encoded rows run dedicated decode loops (whole Stream VByte groups,
    /// word-at-a-time bitmap scan).
    #[inline]
    pub fn for_each<F: FnMut(VertexId)>(self, mut f: F) {
        match self {
            NeighborCursor::Slice(s) => {
                for &t in s {
                    f(t);
                }
            }
            NeighborCursor::Delta(c) => c.for_each(f),
            NeighborCursor::Bitmap(c) => {
                let BitmapCursor { bytes, word_idx, current } = c;
                let mut cur = current;
                let mut wi = word_idx;
                loop {
                    while cur != 0 {
                        let bit = cur.trailing_zeros();
                        cur &= cur - 1;
                        f((wi * 64) as VertexId + bit);
                    }
                    wi += 1;
                    match bytes.get(wi * 8..wi * 8 + 8) {
                        Some(w) => cur = u64::from_le_bytes(w.try_into().expect("8-byte window")),
                        None => break,
                    }
                }
            }
        }
    }
}

impl Iterator for NeighborCursor<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            NeighborCursor::Slice(s) => {
                let (&first, rest) = s.split_first()?;
                *s = rest;
                Some(first)
            }
            NeighborCursor::Delta(c) => c.next(),
            NeighborCursor::Bitmap(c) => c.next(),
        }
    }
}

/// Read access to a graph's structure through row cursors — the single
/// iteration API shared by [`CsrGraph`] (raw slices) and
/// [`crate::encoded::EncodedCsr`] (decode-on-the-fly). Bandwidth-bound
/// kernels in `sg-algos` are generic over this trait.
pub trait GraphView: Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;
    /// Number of canonical edges `m`.
    fn num_edges(&self) -> usize;
    /// Whether the graph is directed.
    fn is_directed(&self) -> bool;
    /// Out-degree of `v` (total degree for undirected graphs).
    fn degree(&self, v: VertexId) -> usize;
    /// In-degree of `v` (equals [`GraphView::degree`] when undirected).
    fn in_degree(&self, v: VertexId) -> usize;
    /// Cursor over the sorted out-neighbors of `v`.
    fn cursor(&self, v: VertexId) -> NeighborCursor<'_>;
    /// Cursor over the sorted in-neighbors of `v` (out-neighbors when
    /// undirected).
    fn in_cursor(&self, v: VertexId) -> NeighborCursor<'_>;
    /// Weight of canonical edge `e` (1.0 when unweighted).
    fn edge_weight(&self, e: crate::types::EdgeId) -> Weight;

    /// The out-row of `v` as a contiguous slice: borrowed directly from raw
    /// CSR, or decoded into `buf` for encoded rows. Algorithms that need
    /// random access within a row (e.g. sorted intersection) use this.
    fn row_into<'b>(&'b self, v: VertexId, buf: &'b mut Vec<VertexId>) -> &'b [VertexId] {
        let cursor = self.cursor(v);
        match cursor.as_slice() {
            Some(s) => s,
            None => {
                buf.clear();
                cursor.append_to(buf);
                buf.as_slice()
            }
        }
    }
}

impl<G: GraphView> GraphView for &G {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        (**self).is_directed()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        (**self).in_degree(v)
    }

    #[inline]
    fn cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        (**self).cursor(v)
    }

    #[inline]
    fn in_cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        (**self).in_cursor(v)
    }

    #[inline]
    fn edge_weight(&self, e: crate::types::EdgeId) -> Weight {
        (**self).edge_weight(e)
    }

    #[inline]
    fn row_into<'b>(&'b self, v: VertexId, buf: &'b mut Vec<VertexId>) -> &'b [VertexId] {
        (**self).row_into(v, buf)
    }
}

impl<G: GraphView + Send> GraphView for std::sync::Arc<G> {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        (**self).is_directed()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        (**self).in_degree(v)
    }

    #[inline]
    fn cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        (**self).cursor(v)
    }

    #[inline]
    fn in_cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        (**self).in_cursor(v)
    }

    #[inline]
    fn edge_weight(&self, e: crate::types::EdgeId) -> Weight {
        (**self).edge_weight(e)
    }

    #[inline]
    fn row_into<'b>(&'b self, v: VertexId, buf: &'b mut Vec<VertexId>) -> &'b [VertexId] {
        (**self).row_into(v, buf)
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn is_directed(&self) -> bool {
        CsrGraph::is_directed(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        CsrGraph::in_degree(self, v)
    }

    #[inline]
    fn cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        NeighborCursor::Slice(self.neighbors(v))
    }

    #[inline]
    fn in_cursor(&self, v: VertexId) -> NeighborCursor<'_> {
        NeighborCursor::Slice(self.in_neighbors(v))
    }

    #[inline]
    fn edge_weight(&self, e: crate::types::EdgeId) -> Weight {
        CsrGraph::edge_weight(self, e)
    }

    #[inline]
    fn row_into<'b>(&'b self, v: VertexId, _buf: &'b mut Vec<VertexId>) -> &'b [VertexId] {
        self.neighbors(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(row: &[u32]) -> Vec<u8> {
        let mut bytes = vec![0; delta_row_bytes(row)];
        write_delta_row(row, &mut bytes);
        bytes
    }

    #[test]
    fn varint_round_trip() {
        // Gaps on both sides of every length boundary, a first target of 0,
        // and the u32 ceiling.
        let gaps = [0u32, 1, 255, 256, 65_535, 65_536, (1 << 24) - 1, 1 << 24, 7, 1];
        let mut row = Vec::new();
        let mut t = 0u32;
        for (i, &g) in gaps.iter().enumerate() {
            t += if i == 0 { g } else { g.max(1) };
            row.push(t);
        }
        row.push(u32::MAX);
        let bytes = encode(&row);
        let ctrl_len = row.len().div_ceil(4);
        assert_eq!(delta_row_span(&bytes[..ctrl_len], row.len()), bytes.len());
        // Minimal lengths: 1,1,1,2,2,3,3,4,1,1 data bytes, then the gap to
        // u32::MAX in 4.
        assert_eq!(bytes.len() - ctrl_len, 1 + 1 + 1 + 2 + 2 + 3 + 3 + 4 + 1 + 1 + 4);
        let decoded: Vec<u32> = DeltaCursor::new(&bytes, row.len() as u32).collect();
        assert_eq!(decoded, row);
        assert!(delta_row_is_valid(&bytes, row.len() as u32, u32::MAX as usize + 1));
    }

    #[test]
    fn varint_rejects_truncated_and_overlong() {
        let row = [3u32, 300, 301, 70_000, 70_001];
        let bytes = encode(&row);
        let n = 100_000;
        assert!(delta_row_is_valid(&bytes, 5, n));
        // Truncated: the last data byte is missing.
        assert!(!delta_row_is_valid(&bytes[..bytes.len() - 1], 5, n));
        // Overlong: gap 5 stored in two bytes (code 1) instead of one.
        assert!(!delta_row_is_valid(&[0b01, 5, 0], 1, n));
        assert!(delta_row_is_valid(&[0b00, 5], 1, n));
        // A length code set for a value the row does not have.
        assert!(!delta_row_is_valid(&[0b0100, 5, 0], 1, n));
        // A zero gap after the first value (a duplicate target).
        assert!(!delta_row_is_valid(&[0, 5, 0], 2, n));
        // A first target of 0 is fine; a last target at n is not.
        assert!(delta_row_is_valid(&[0, 0, 1], 2, n));
        assert!(!delta_row_is_valid(&encode(&[1, n as u32]), 2, n));
        // A degree the bytes cannot even hold the control bytes for.
        assert!(!delta_row_is_valid(&[], 1, n));
        // Whatever follows the row is not the row's business.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0xff; 3]);
        assert!(delta_row_is_valid(&padded, 5, n));
    }

    #[test]
    fn delta_cursor_decodes_gaps() {
        let row = [3u32, 4, 9, 1000];
        let bytes = encode(&row);
        let decoded: Vec<u32> = DeltaCursor::new(&bytes, row.len() as u32).collect();
        assert_eq!(decoded, row);
    }

    #[test]
    fn bitmap_cursor_yields_set_bits() {
        let mut bytes = vec![0u8; 16]; // 128-bit bitmap
        for bit in [0usize, 5, 63, 64, 127] {
            bytes[bit / 8] |= 1 << (bit % 8);
        }
        let decoded: Vec<u32> = BitmapCursor::new(&bytes).collect();
        assert_eq!(decoded, vec![0, 5, 63, 64, 127]);
    }

    #[test]
    fn cursor_chunking_matches_iteration() {
        let targets: Vec<u32> = (0..333).map(|i| i * 3).collect();
        let mut cursor = NeighborCursor::Slice(&targets);
        let mut buf = [0u32; CURSOR_CHUNK];
        let mut collected = Vec::new();
        loop {
            let filled = cursor.next_chunk(&mut buf);
            if filled == 0 {
                break;
            }
            collected.extend_from_slice(&buf[..filled]);
        }
        assert_eq!(collected, targets);
        let mut via_for_each = Vec::new();
        NeighborCursor::Slice(&targets).for_each(|t| via_for_each.push(t));
        assert_eq!(via_for_each, targets);
    }

    #[test]
    fn csr_graph_view_cursor_matches_neighbors() {
        let g = crate::generators::erdos_renyi(50, 200, 7);
        for v in 0..50u32 {
            let via_cursor: Vec<u32> = GraphView::cursor(&g, v).collect();
            assert_eq!(via_cursor, g.neighbors(v));
            let mut buf = Vec::new();
            assert_eq!(GraphView::row_into(&g, v, &mut buf), g.neighbors(v));
        }
    }
}
