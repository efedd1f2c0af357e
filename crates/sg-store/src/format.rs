//! The `.sgr` container format: header, section table, checksum, and the
//! little-endian encode/decode helpers shared by the writer and both
//! loaders.
//!
//! Layout (all integers little-endian, every section 8-byte aligned):
//!
//! ```text
//! offset  size  field
//!      0     8  magic   "SLIMSGR1"
//!      8     4  version (1 = raw CSR, 3 = encoded adjacency)
//!     12     4  flags   bit 0 = directed, bit 1 = weighted
//!     16     8  n       vertex count
//!     24     8  m       canonical edge count
//!     32     8  checksum (word-wise FNV-1a over section payloads, in order)
//!     40     4  section count
//!     44     4  reserved (0)
//!     48   24k  section table: k × { id u32, reserved u32, off u64, len u64 }
//!      …        sections, each starting 8-byte aligned, zero padding between
//! ```
//!
//! Sections appear in canonical id order and their byte lengths are fully
//! determined by `(n, m, flags)` — except v3's row blobs, which the encoded
//! loader validates row by row — so a parser can validate the table without
//! trusting it. The checksum covers section payload bytes only (padding and
//! header excluded); header fields are instead structurally validated.

use std::borrow::Cow;
use std::io;

/// `"SLIMSGR1"` read as a little-endian `u64`.
pub const SGR_MAGIC: u64 = u64::from_le_bytes(*b"SLIMSGR1");
/// Container version 1: raw CSR sections.
pub const SGR_VERSION: u32 = 1;
/// Container version 3: encoded adjacency (Stream VByte delta rows and
/// bitmap rows, no stored row index). Version 2 — LEB128 rows with a stored
/// `u64` row index — is no longer read; every reader rejects it at the
/// header version check, naming the version.
pub const SGR_VERSION_V3: u32 = 3;
/// Directed-graph flag bit.
pub const FLAG_DIRECTED: u32 = 1;
/// Weighted-graph flag bit.
pub const FLAG_WEIGHTED: u32 = 1 << 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 48;
/// Length of one section-table entry in bytes.
pub const SECTION_ENTRY_LEN: usize = 24;

/// Seed of the checksum (the FNV-1a 64 offset basis).
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Section identifiers, in canonical file order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// Out-adjacency offsets, `u64 × (n + 1)`.
    Offsets = 1,
    /// Out-adjacency targets, `u32 × slots` (`slots = 2m` undirected, `m` directed).
    Targets = 2,
    /// Canonical edge id per out slot, `u32 × slots`.
    SlotEdges = 3,
    /// Canonical edges, `(u32, u32) × m`.
    Edges = 4,
    /// Canonical edge weights, `f32 × m` (weighted graphs only).
    Weights = 5,
    /// In-adjacency offsets, `u64 × (n + 1)` (directed only).
    InOffsets = 6,
    /// In-adjacency sources, `u32 × m` (directed only).
    InTargets = 7,
    /// Canonical edge id per in slot, `u32 × m` (directed only).
    InSlotEdges = 8,
    /// Out-row degrees, `u32 × n` (v3 only).
    Degrees = 9,
    /// Concatenated encoded out-rows, variable length (v3 only). Ids 10
    /// and 13 were version 2's row indexes; v3 derives them at load.
    AdjBlob = 11,
    /// In-row degrees, `u32 × n` (v3 + directed only).
    InDegrees = 12,
    /// Concatenated encoded in-rows, variable length (v3 + directed only).
    InAdjBlob = 14,
}

/// The v1 section set implied by a flag combination, in canonical order.
pub fn expected_sections(directed: bool, weighted: bool) -> Vec<SectionId> {
    let mut ids =
        vec![SectionId::Offsets, SectionId::Targets, SectionId::SlotEdges, SectionId::Edges];
    if weighted {
        ids.push(SectionId::Weights);
    }
    if directed {
        ids.extend([SectionId::InOffsets, SectionId::InTargets, SectionId::InSlotEdges]);
    }
    ids
}

/// The v3 section set implied by a flag combination, in canonical
/// (ascending-id) order. v3 stores no raw targets/slot-edge/edge sections:
/// canonical edges and their ids are reconstructed from the encoded rows by
/// forward enumeration, which *is* the canonical lexicographic order. Nor
/// does it store a row index: the loader derives one from the degrees and
/// the rows' control bytes.
pub fn expected_sections_v3(directed: bool, weighted: bool) -> Vec<SectionId> {
    let mut ids = Vec::new();
    if weighted {
        ids.push(SectionId::Weights);
    }
    ids.extend([SectionId::Degrees, SectionId::AdjBlob]);
    if directed {
        ids.extend([SectionId::InDegrees, SectionId::InAdjBlob]);
    }
    ids
}

/// On-disk byte length of `id` for a graph with the given shape.
/// Outer `None` signals arithmetic overflow (hostile header on a small
/// platform); inner `None` marks variable-length sections (the v3 blobs),
/// whose bounds are checked against the file and whose content the encoded
/// loader validates row by row.
pub fn expected_len(id: SectionId, n: usize, m: usize, directed: bool) -> Option<Option<usize>> {
    match id {
        SectionId::Offsets | SectionId::InOffsets => n.checked_add(1)?.checked_mul(8).map(Some),
        SectionId::Targets | SectionId::SlotEdges => {
            let slots = if directed { m } else { m.checked_mul(2)? };
            slots.checked_mul(4).map(Some)
        }
        SectionId::Edges => m.checked_mul(8).map(Some),
        SectionId::Weights | SectionId::InTargets | SectionId::InSlotEdges => {
            m.checked_mul(4).map(Some)
        }
        SectionId::Degrees | SectionId::InDegrees => n.checked_mul(4).map(Some),
        SectionId::AdjBlob | SectionId::InAdjBlob => Some(None),
    }
}

/// Updates the container checksum with one section payload. The digest is a
/// word-wise FNV-1a variant: full little-endian `u64` words are folded in at
/// once (8× fewer multiplies than byte-wise FNV at identical dispersion for
/// this use), trailing bytes byte-wise.
pub fn checksum_update(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("chunk is 8 bytes"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Checksum seed (exposed so tests can recompute digests independently).
pub fn checksum_seed() -> u64 {
    FNV_SEED
}

/// One parsed section-table entry.
#[derive(Clone, Copy, Debug)]
pub struct RawSection {
    /// Section id (already matched against the canonical order).
    pub id: SectionId,
    /// Payload byte offset from the start of the file (8-aligned).
    pub off: usize,
    /// Payload byte length.
    pub len: usize,
}

/// Parsed and validated header + section table of an `.sgr` buffer.
#[derive(Clone, Debug)]
pub struct SgrToc {
    /// Directed flag.
    pub directed: bool,
    /// Weighted flag.
    pub weighted: bool,
    /// Vertex count.
    pub n: usize,
    /// Canonical edge count.
    pub m: usize,
    /// Stored checksum (verify with [`verify_checksum`]).
    pub checksum: u64,
    /// Sections in canonical order.
    pub sections: Vec<RawSection>,
}

impl SgrToc {
    /// Payload bytes of section `id`. Panics if absent — callers only ask
    /// for sections the flag validation guarantees.
    pub fn section<'d>(&self, data: &'d [u8], id: SectionId) -> &'d [u8] {
        let s = self
            .sections
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("validated toc lacks section {id:?}"));
        &data[s.off..s.off + s.len]
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn rd_u32(d: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(d[at..at + 4].try_into().expect("caller checked bounds"))
}

fn rd_u64(d: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(d[at..at + 8].try_into().expect("caller checked bounds"))
}

/// Reads the magic and version of an `.sgr` buffer without parsing the
/// rest — the dispatch point for loaders that accept both versions.
pub fn peek_version(data: &[u8]) -> io::Result<u32> {
    if data.len() < 12 {
        return Err(bad("truncated header"));
    }
    if rd_u64(data, 0) != SGR_MAGIC {
        return Err(bad("bad magic (not an .sgr file)"));
    }
    Ok(rd_u32(data, 8))
}

/// Parses and validates the header and section table of a **v1** (raw CSR)
/// `.sgr` buffer; rejects any other version, including v3.
///
/// Every field is checked against what `(n, m, flags)` imply — section ids,
/// order, byte lengths, alignment, and file bounds — with checked arithmetic
/// throughout, so a hostile header can neither wrap a bounds computation nor
/// provoke an oversized allocation.
pub fn parse_toc(data: &[u8]) -> io::Result<SgrToc> {
    parse_toc_version(data, SGR_VERSION)
}

/// [`parse_toc`] for **v3** (encoded adjacency) buffers.
pub fn parse_toc_v3(data: &[u8]) -> io::Result<SgrToc> {
    parse_toc_version(data, SGR_VERSION_V3)
}

fn parse_toc_version(data: &[u8], want_version: u32) -> io::Result<SgrToc> {
    if data.len() < HEADER_LEN {
        return Err(bad("truncated header"));
    }
    if rd_u64(data, 0) != SGR_MAGIC {
        return Err(bad("bad magic (not an .sgr file)"));
    }
    let version = rd_u32(data, 8);
    if version != want_version {
        return Err(bad(format!("unsupported .sgr version {version}")));
    }
    let flags = rd_u32(data, 12);
    if flags & !(FLAG_DIRECTED | FLAG_WEIGHTED) != 0 {
        return Err(bad(format!("unknown flag bits {flags:#x}")));
    }
    let directed = flags & FLAG_DIRECTED != 0;
    let weighted = flags & FLAG_WEIGHTED != 0;
    let n = usize::try_from(rd_u64(data, 16)).map_err(|_| bad("vertex count overflow"))?;
    let m = usize::try_from(rd_u64(data, 24)).map_err(|_| bad("edge count overflow"))?;
    // Compared in u64: `u32::MAX as usize + 1` would itself overflow on
    // 32-bit targets.
    if n as u64 > u32::MAX as u64 + 1 {
        return Err(bad("vertex count exceeds VertexId capacity"));
    }
    if m > u32::MAX as usize {
        return Err(bad("edge count exceeds EdgeId capacity"));
    }
    let checksum = rd_u64(data, 32);
    let count = rd_u32(data, 40) as usize;

    let expect = if want_version == SGR_VERSION_V3 {
        expected_sections_v3(directed, weighted)
    } else {
        expected_sections(directed, weighted)
    };
    if count != expect.len() {
        return Err(bad(format!(
            "expected {} sections for these flags, found {count}",
            expect.len()
        )));
    }
    let table_end = HEADER_LEN
        .checked_add(count.checked_mul(SECTION_ENTRY_LEN).ok_or_else(|| bad("table overflow"))?)
        .ok_or_else(|| bad("table overflow"))?;
    if data.len() < table_end {
        return Err(bad("truncated section table"));
    }

    let mut sections = Vec::with_capacity(count);
    let mut min_off = table_end;
    for (i, &id) in expect.iter().enumerate() {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        if rd_u32(data, at) != id as u32 {
            return Err(bad(format!("section {i} is not {id:?} (canonical order required)")));
        }
        let off =
            usize::try_from(rd_u64(data, at + 8)).map_err(|_| bad("section offset overflow"))?;
        let len =
            usize::try_from(rd_u64(data, at + 16)).map_err(|_| bad("section length overflow"))?;
        if off % 8 != 0 {
            return Err(bad(format!("section {id:?} offset {off} not 8-byte aligned")));
        }
        if off < min_off {
            return Err(bad(format!("section {id:?} overlaps the preceding section or table")));
        }
        let end = off.checked_add(len).ok_or_else(|| bad("section bounds overflow"))?;
        if end > data.len() {
            return Err(bad(format!("section {id:?} extends past end of file")));
        }
        let want = expected_len(id, n, m, directed)
            .ok_or_else(|| bad("section size overflow for this platform"))?;
        if let Some(want) = want {
            if len != want {
                return Err(bad(format!("section {id:?} length {len}, expected {want}")));
            }
        }
        min_off = end;
        sections.push(RawSection { id, off, len });
    }
    Ok(SgrToc { directed, weighted, n, m, checksum, sections })
}

/// Verifies the stored checksum against the section payloads.
pub fn verify_checksum(data: &[u8], toc: &SgrToc) -> io::Result<()> {
    let mut h = FNV_SEED;
    for s in &toc.sections {
        h = checksum_update(h, &data[s.off..s.off + s.len]);
    }
    if h != toc.checksum {
        return Err(bad(format!(
            "checksum mismatch: stored {:#018x}, computed {h:#018x}",
            toc.checksum
        )));
    }
    Ok(())
}

// --- little-endian slice encoding -----------------------------------------

// The edge section is written and mmap-read through the same
// reinterpretation of `[(u32, u32)]`, which makes the two ends consistent on
// any tuple layout; the *owned* decoder and any foreign reader additionally
// need the nominal field order, so writing through the cast is gated on this
// probe (and on a little-endian target). Size and alignment are compile-time
// facts:
const _: () = assert!(
    std::mem::size_of::<(u32, u32)>() == 8 && std::mem::align_of::<(u32, u32)>() == 4,
    "(u32, u32) layout assumption violated"
);

/// True when `(u32, u32)` is laid out as the nominal little-endian
/// `u0 v0` byte sequence the format specifies — the gate for writing and
/// mmap-borrowing the edge section without per-element conversion.
pub fn pair_layout_is_nominal() -> bool {
    let probe: (u32, u32) = (1, 2);
    // SAFETY: reading the bytes of an initialized (u32, u32) — both fields
    // plain integers, size asserted to 8 above, no padding possible.
    let bytes =
        unsafe { std::slice::from_raw_parts((&probe as *const (u32, u32)).cast::<u8>(), 8) };
    bytes == [1, 0, 0, 0, 2, 0, 0, 0]
}

/// Reinterprets a plain-old-data slice as raw bytes.
///
/// # Safety
///
/// `T` must have no padding bytes and no validity requirements beyond its
/// bit pattern (holds for the section scalar types used here).
unsafe fn raw_bytes<T: Copy>(s: &[T]) -> &[u8] {
    std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s))
}

/// Encodes `u32`s as little-endian bytes, borrowing on LE targets.
pub fn bytes_of_u32s(s: &[u32]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: u32 is padding-free plain-old data.
        Cow::Borrowed(unsafe { raw_bytes(s) })
    } else {
        Cow::Owned(s.iter().flat_map(|v| v.to_le_bytes()).collect())
    }
}

/// Encodes `f32`s as little-endian bytes, borrowing on LE targets.
pub fn bytes_of_f32s(s: &[f32]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: f32 is padding-free plain-old data.
        Cow::Borrowed(unsafe { raw_bytes(s) })
    } else {
        Cow::Owned(s.iter().flat_map(|v| v.to_le_bytes()).collect())
    }
}

/// Encodes `usize` offsets as little-endian `u64` bytes, borrowing on
/// 64-bit LE targets.
pub fn bytes_of_usizes(s: &[usize]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") && std::mem::size_of::<usize>() == 8 {
        // SAFETY: usize is padding-free plain-old data; width checked above.
        Cow::Borrowed(unsafe { raw_bytes(s) })
    } else {
        Cow::Owned(s.iter().flat_map(|&v| (v as u64).to_le_bytes()).collect())
    }
}

/// Encodes canonical edge pairs as the nominal `u v` little-endian
/// sequence, borrowing when the in-memory layout already matches.
pub fn bytes_of_pairs(s: &[(u32, u32)]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") && pair_layout_is_nominal() {
        // SAFETY: size/align asserted above, layout probed to match, no
        // padding (size == 2 × field size).
        Cow::Borrowed(unsafe { raw_bytes(s) })
    } else {
        Cow::Owned(
            s.iter()
                .flat_map(|&(u, v)| {
                    let mut b = [0u8; 8];
                    b[..4].copy_from_slice(&u.to_le_bytes());
                    b[4..].copy_from_slice(&v.to_le_bytes());
                    b
                })
                .collect(),
        )
    }
}

// --- little-endian slice decoding (owned loader + non-borrowable cases) ---

/// Decodes a `u32` section.
pub fn decode_u32s(b: &[u8]) -> Vec<u32> {
    b.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes"))).collect()
}

/// Decodes an `f32` section.
pub fn decode_f32s(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("chunk is 4 bytes"))).collect()
}

/// Decodes a `u64` offsets section into `usize`, rejecting values that do
/// not fit the platform (32-bit hosts confronting a >4 GiB graph).
pub fn decode_usizes(b: &[u8]) -> io::Result<Vec<usize>> {
    b.chunks_exact(8)
        .map(|c| {
            let v = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
            usize::try_from(v).map_err(|_| bad("offset value exceeds platform usize"))
        })
        .collect()
}

/// Decodes the canonical edge section.
pub fn decode_pairs(b: &[u8]) -> Vec<(u32, u32)> {
    b.chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_is_the_ascii_tag() {
        assert_eq!(&SGR_MAGIC.to_le_bytes(), b"SLIMSGR1");
    }

    #[test]
    fn checksum_words_and_tail_bytes_differ_from_plain_fnv() {
        // Word folding must still distinguish permutations and tails.
        let a = checksum_update(checksum_seed(), &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let b = checksum_update(checksum_seed(), &[1, 2, 3, 4, 5, 6, 7, 9, 8]);
        let c = checksum_update(checksum_seed(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let u = vec![0u32, 1, u32::MAX, 42];
        assert_eq!(decode_u32s(&bytes_of_u32s(&u)), u);
        let f = vec![0.0f32, -1.5, f32::MAX];
        assert_eq!(decode_f32s(&bytes_of_f32s(&f)), f);
        let o = vec![0usize, 7, 1 << 33];
        assert_eq!(decode_usizes(&bytes_of_usizes(&o)).expect("fits"), o);
        let p = vec![(0u32, 1u32), (7, 9)];
        assert_eq!(decode_pairs(&bytes_of_pairs(&p)), p);
    }

    #[test]
    fn expected_lens_use_checked_arithmetic() {
        // A hostile m near usize::MAX must yield None, not a wrapped size.
        assert_eq!(expected_len(SectionId::Edges, 10, usize::MAX / 2, false), None);
        assert_eq!(expected_len(SectionId::Targets, 10, usize::MAX / 3, false), None);
        assert_eq!(expected_len(SectionId::Offsets, 4, 2, false), Some(Some(40)));
        assert_eq!(expected_len(SectionId::Targets, 4, 2, false), Some(Some(16)));
        assert_eq!(expected_len(SectionId::Targets, 4, 2, true), Some(Some(8)));
        // v3 sections: fixed lengths from n, variable-length blobs.
        assert_eq!(expected_len(SectionId::Degrees, 4, 2, false), Some(Some(16)));
        assert_eq!(expected_len(SectionId::AdjBlob, 4, 2, false), Some(None));
    }

    #[test]
    fn v3_section_order_is_ascending_ids() {
        for &(directed, weighted) in &[(false, false), (false, true), (true, false), (true, true)] {
            let ids = expected_sections_v3(directed, weighted);
            assert!(ids.windows(2).all(|w| (w[0] as u32) < (w[1] as u32)));
        }
    }
}
