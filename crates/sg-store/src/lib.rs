//! # sg-store — zero-copy binary CSR container for Slim Graph
//!
//! Slim Graph's evaluation runs at billions-of-edges scale; rebuilding a CSR
//! from an edge list on every load caps inputs far below that. This crate
//! defines `.sgr`, an aligned, versioned, checksummed on-disk container
//! holding the *final* CSR arrays of a [`CsrGraph`] — offsets, targets,
//! slot→edge ids, canonical edges, optional weights, and the in-adjacency of
//! directed graphs — so loading is a validation pass, not a rebuild.
//!
//! Two loaders are provided:
//!
//! * [`load_sgr`] — the owned heap loader: decodes every section into
//!   ordinary `Vec`s. Works everywhere, costs one copy.
//! * [`MmapGraph`] — the zero-copy loader: maps the file read-only (direct
//!   libc FFI on unix, see [`mmap`]) and hands the CSR arrays to
//!   [`CsrGraph`] as *borrowed* [`sg_graph::Section`]s pointing straight
//!   into the mapping. No section is copied; the mapping is shared by every
//!   clone of the graph (and, via `sg-dist`, by every simulated rank) and
//!   unmapped when the last reference drops. Algorithms, schemes, and
//!   pipelines observe bit-identical data either way.
//!
//! File layout (details in [`format`](mod@format)):
//!
//! ```text
//! ┌────────────────────────────────────────────┐
//! │ header: magic "SLIMSGR1" · version · flags │ 48 B
//! │         n · m · checksum · section count   │
//! ├────────────────────────────────────────────┤
//! │ section table: { id, offset, length } × k  │ 24 B each
//! ├────────────────────────────────────────────┤
//! │ offsets    u64 × (n+1)   ─ 8-byte aligned  │
//! │ targets    u32 × slots                     │
//! │ slot_edge  u32 × slots                     │
//! │ edges      2×u32 × m                       │
//! │ weights    f32 × m          (if weighted)  │
//! │ in_offsets/in_targets/in_slot_edge         │
//! │                             (if directed)  │
//! └────────────────────────────────────────────┘
//! ```
//!
//! Integrity: a word-wise FNV-1a checksum over all section payloads is
//! verified by both loaders (a read-only streaming pass — no copy;
//! skippable for trusted files via [`Verify::Trusted`], e.g.
//! `slimgraph --no-verify`), and
//! [`CsrGraph::from_parts`] then validates every structural invariant
//! (offset monotonicity, sorted rows, canonical edge order, slot↔edge
//! consistency), so a corrupt or hostile file is rejected at load time
//! rather than crashing an algorithm later.
//!
//! Borrowing is gated on the facts that make it sound — little-endian
//! target, pointer-width match for the `u64` offset sections, 8-byte file
//! alignment (mmap bases are page-aligned) — and every section falls back
//! to an owned decode when a gate fails, so the loaders are correct on any
//! platform and merely fastest on 64-bit little-endian unix.

pub mod format;
pub mod mmap;

use format::{RawSection, SectionId, SgrToc};
use mmap::Mmap;
use sg_graph::{
    CsrGraph, CsrParts, EncodedAdjacencyParts, EncodedCsr, GraphView, NeighborCursor, Section,
};
use std::any::Any;
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// --- writer ---------------------------------------------------------------

fn collect_sections(g: &CsrGraph) -> Vec<(SectionId, Cow<'_, [u8]>)> {
    let mut out = vec![
        (SectionId::Offsets, format::bytes_of_usizes(g.csr_offsets())),
        (SectionId::Targets, format::bytes_of_u32s(g.csr_targets())),
        (SectionId::SlotEdges, format::bytes_of_u32s(g.csr_slot_edges())),
        (SectionId::Edges, format::bytes_of_pairs(g.edge_slice())),
    ];
    if let Some(w) = g.weight_slice() {
        out.push((SectionId::Weights, format::bytes_of_f32s(w)));
    }
    if let (Some(o), Some(t), Some(s)) =
        (g.in_csr_offsets(), g.in_csr_targets(), g.in_csr_slot_edges())
    {
        out.push((SectionId::InOffsets, format::bytes_of_usizes(o)));
        out.push((SectionId::InTargets, format::bytes_of_u32s(t)));
        out.push((SectionId::InSlotEdges, format::bytes_of_u32s(s)));
    }
    out
}

fn collect_sections_v2(enc: &EncodedCsr) -> Vec<(SectionId, Cow<'_, [u8]>)> {
    let mut out = Vec::new();
    if let Some(w) = enc.weight_slice() {
        out.push((SectionId::Weights, format::bytes_of_f32s(w)));
    }
    let adj = enc.out_adjacency();
    out.push((SectionId::Degrees, format::bytes_of_u32s(adj.degrees())));
    out.push((SectionId::RowIndex, format::bytes_of_usizes(adj.row_starts())));
    out.push((SectionId::AdjBlob, Cow::Borrowed(adj.blob())));
    if let Some(adj) = enc.in_adjacency() {
        out.push((SectionId::InDegrees, format::bytes_of_u32s(adj.degrees())));
        out.push((SectionId::InRowIndex, format::bytes_of_usizes(adj.row_starts())));
        out.push((SectionId::InAdjBlob, Cow::Borrowed(adj.blob())));
    }
    out
}

/// Writes one `.sgr` container (either version — the section list decides).
fn write_container<W: Write>(
    w: &mut W,
    version: u32,
    directed: bool,
    weighted: bool,
    n: usize,
    m: usize,
    sections: &[(SectionId, Cow<'_, [u8]>)],
) -> io::Result<u64> {
    let table_end = format::HEADER_LEN + sections.len() * format::SECTION_ENTRY_LEN;

    // Lay out sections (8-aligned) and fold the checksum in one pass.
    let mut entries = Vec::with_capacity(sections.len());
    let mut checksum = format::checksum_seed();
    let mut off = table_end;
    for (id, bytes) in sections {
        debug_assert_eq!(off % 8, 0);
        entries.push((*id as u32, off as u64, bytes.len() as u64));
        checksum = format::checksum_update(checksum, bytes);
        off += bytes.len() + padding(bytes.len());
    }
    let total = off as u64;

    let mut flags = 0u32;
    if directed {
        flags |= format::FLAG_DIRECTED;
    }
    if weighted {
        flags |= format::FLAG_WEIGHTED;
    }
    w.write_all(&format::SGR_MAGIC.to_le_bytes())?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(n as u64).to_le_bytes())?;
    w.write_all(&(m as u64).to_le_bytes())?;
    w.write_all(&checksum.to_le_bytes())?;
    w.write_all(&(sections.len() as u32).to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    for (id, off, len) in &entries {
        w.write_all(&id.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        w.write_all(&off.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?;
    }
    for (_, bytes) in sections {
        w.write_all(bytes)?;
        w.write_all(&[0u8; 8][..padding(bytes.len())])?;
    }
    Ok(total)
}

/// Serializes `g` into the v1 (raw CSR) `.sgr` format; returns bytes written.
pub fn write_sgr<W: Write>(g: &CsrGraph, w: &mut W) -> io::Result<u64> {
    let sections = collect_sections(g);
    write_container(
        w,
        format::SGR_VERSION,
        g.is_directed(),
        g.is_weighted(),
        g.num_vertices(),
        g.num_edges(),
        &sections,
    )
}

/// Serializes an encoded graph into the v2 `.sgr` format; returns bytes
/// written.
pub fn write_sgr_encoded<W: Write>(enc: &EncodedCsr, w: &mut W) -> io::Result<u64> {
    let sections = collect_sections_v2(enc);
    write_container(
        w,
        format::SGR_VERSION_V2,
        enc.is_directed(),
        enc.is_weighted(),
        enc.num_vertices(),
        enc.num_edges(),
        &sections,
    )
}

/// Adjacency encoding selector for the `.sgr` writers (CLI `--encoding`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Encoding {
    /// v1 container: raw CSR sections.
    #[default]
    Raw,
    /// v2 container: delta+varint rows, bitmap rows for dense vertices.
    Delta,
    /// Whichever version yields the smaller file for this graph.
    Auto,
}

impl Encoding {
    /// Parses a CLI value (`raw` / `delta` / `auto`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(Self::Raw),
            "delta" => Some(Self::Delta),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }
}

/// Serializes `g` with the requested [`Encoding`]; returns bytes written.
/// `Auto` encodes once, compares total payload bytes, and writes the
/// smaller container.
pub fn write_sgr_with<W: Write>(g: &CsrGraph, w: &mut W, encoding: Encoding) -> io::Result<u64> {
    match encoding {
        Encoding::Raw => write_sgr(g, w),
        Encoding::Delta => write_sgr_encoded(&EncodedCsr::from_graph(g), w),
        Encoding::Auto => {
            let enc = EncodedCsr::from_graph(g);
            let raw_payload: usize = collect_sections(g).iter().map(|(_, b)| b.len()).sum();
            let v2_payload: usize = collect_sections_v2(&enc).iter().map(|(_, b)| b.len()).sum();
            if v2_payload < raw_payload {
                write_sgr_encoded(&enc, w)
            } else {
                write_sgr(g, w)
            }
        }
    }
}

fn padding(len: usize) -> usize {
    (8 - len % 8) % 8
}

/// Saves `g` as a v1 `.sgr` file; returns bytes written.
pub fn save_sgr(g: &CsrGraph, path: impl AsRef<Path>) -> io::Result<u64> {
    save_sgr_with(g, path, Encoding::Raw)
}

/// Saves `g` with the requested [`Encoding`]; returns bytes written.
pub fn save_sgr_with(g: &CsrGraph, path: impl AsRef<Path>, encoding: Encoding) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    let n = write_sgr_with(g, &mut w, encoding)?;
    w.flush()?;
    Ok(n)
}

/// Serializes `g` into an in-memory v1 `.sgr` image (tests, network
/// shipping).
pub fn to_sgr_bytes(g: &CsrGraph) -> Vec<u8> {
    to_sgr_bytes_with(g, Encoding::Raw)
}

/// [`to_sgr_bytes`] with an explicit [`Encoding`].
pub fn to_sgr_bytes_with(g: &CsrGraph, encoding: Encoding) -> Vec<u8> {
    let mut buf = Vec::new();
    write_sgr_with(g, &mut buf, encoding).expect("Vec<u8> writes are infallible");
    buf
}

// --- loaders --------------------------------------------------------------

/// How a section travels from file bytes into a [`Section`]: borrowed
/// straight out of the anchored mapping when the type-level gates allow,
/// decoded into an owned `Vec` otherwise.
fn make_section<T, D>(
    data: &[u8],
    raw: RawSection,
    anchor: Option<&Arc<Mmap>>,
    borrowable: bool,
    decode: D,
) -> io::Result<Section<T>>
where
    T: Copy + Send + Sync + 'static,
    D: FnOnce(&[u8]) -> io::Result<Vec<T>>,
{
    let bytes = &data[raw.off..raw.off + raw.len];
    if let Some(map) = anchor {
        let size = std::mem::size_of::<T>();
        if borrowable
            && raw.len.is_multiple_of(size)
            && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
        {
            let count = raw.len / size;
            let keep = Arc::clone(map);
            let anchor: Arc<dyn Any + Send + Sync> = keep;
            // SAFETY: `bytes` lies inside the mapping owned by `anchor`
            // (read-only for its whole lifetime), the pointer is aligned and
            // spans exactly `count` elements (checked above), and `T` is
            // plain-old data whose on-disk width equals `size_of::<T>()`
            // (the `borrowable` gate).
            return Ok(unsafe {
                Section::from_raw_parts(anchor, bytes.as_ptr().cast::<T>(), count)
            });
        }
    }
    Ok(decode(bytes)?.into())
}

/// Assembles a [`CsrGraph`] from a parsed, checksum-verified `.sgr` buffer.
/// With `anchor` set, sections borrow from the mapping wherever sound.
fn assemble(data: &[u8], toc: &SgrToc, anchor: Option<&Arc<Mmap>>) -> io::Result<CsrGraph> {
    let le = cfg!(target_endian = "little");
    let usize_ok = le && std::mem::size_of::<usize>() == 8;
    let pairs_ok = le && format::pair_layout_is_nominal();
    let raw = |id: SectionId| -> RawSection {
        *toc.sections.iter().find(|s| s.id == id).expect("validated toc has the section")
    };
    let u32_sec = |id| make_section(data, raw(id), anchor, le, |b| Ok(format::decode_u32s(b)));
    let usize_sec = |id| make_section(data, raw(id), anchor, usize_ok, format::decode_usizes);

    let parts = CsrParts {
        directed: toc.directed,
        num_vertices: toc.n,
        offsets: usize_sec(SectionId::Offsets)?,
        targets: u32_sec(SectionId::Targets)?,
        slot_edge: u32_sec(SectionId::SlotEdges)?,
        edges: make_section(data, raw(SectionId::Edges), anchor, pairs_ok, |b| {
            Ok(format::decode_pairs(b))
        })?,
        weights: if toc.weighted {
            Some(make_section(data, raw(SectionId::Weights), anchor, le, |b| {
                Ok(format::decode_f32s(b))
            })?)
        } else {
            None
        },
        in_offsets: toc.directed.then(|| usize_sec(SectionId::InOffsets)).transpose()?,
        in_targets: toc.directed.then(|| u32_sec(SectionId::InTargets)).transpose()?,
        in_slot_edge: toc.directed.then(|| u32_sec(SectionId::InSlotEdges)).transpose()?,
    };
    CsrGraph::from_parts(parts).map_err(|e| bad(format!("invalid .sgr contents: {e}")))
}

/// Assembles an [`EncodedCsr`] from a parsed, checksum-verified v2 buffer.
/// With `anchor` set, sections borrow from the mapping wherever sound; the
/// blob sections (`u8`, alignment 1) always borrow when anchored.
fn assemble_encoded(
    data: &[u8],
    toc: &SgrToc,
    anchor: Option<&Arc<Mmap>>,
) -> io::Result<EncodedCsr> {
    let le = cfg!(target_endian = "little");
    let usize_ok = le && std::mem::size_of::<usize>() == 8;
    let raw = |id: SectionId| -> RawSection {
        *toc.sections.iter().find(|s| s.id == id).expect("validated toc has the section")
    };
    let adjacency = |degrees: SectionId,
                     row_index: SectionId,
                     blob: SectionId|
     -> io::Result<EncodedAdjacencyParts> {
        Ok(EncodedAdjacencyParts {
            row_starts: make_section(
                data,
                raw(row_index),
                anchor,
                usize_ok,
                format::decode_usizes,
            )?,
            degrees: make_section(data, raw(degrees), anchor, le, |b| Ok(format::decode_u32s(b)))?,
            blob: make_section(data, raw(blob), anchor, true, |b| Ok(b.to_vec()))?,
        })
    };
    let out = adjacency(SectionId::Degrees, SectionId::RowIndex, SectionId::AdjBlob)?;
    let in_ = toc
        .directed
        .then(|| adjacency(SectionId::InDegrees, SectionId::InRowIndex, SectionId::InAdjBlob))
        .transpose()?;
    let weights = toc
        .weighted
        .then(|| {
            make_section(data, raw(SectionId::Weights), anchor, le, |b| Ok(format::decode_f32s(b)))
        })
        .transpose()?;
    EncodedCsr::from_parts(toc.directed, toc.n, toc.m, out, in_, weights)
        .map_err(|e| bad(format!("invalid .sgr v2 contents: {e}")))
}

/// How much integrity checking a load performs.
///
/// Both modes parse and structurally validate the header/section table and
/// run [`CsrGraph::from_parts`]'s full invariant validation (offset
/// monotonicity, sorted rows, canonical edge order, slot↔edge
/// consistency) — a corrupt or hostile file is rejected either way.
/// [`Verify::Trusted`] only skips the word-wise checksum pass over the
/// section payloads, the one remaining O(file) scan, for files the caller
/// just wrote or otherwise trusts end-to-end.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Verify {
    /// Verify the container checksum before assembling (the default).
    #[default]
    Checksum,
    /// Skip the checksum pass; structural validation still runs.
    Trusted,
}

/// Owned heap loader: decodes an in-memory `.sgr` image into a [`CsrGraph`]
/// backed by ordinary `Vec`s.
pub fn load_sgr_bytes(data: &[u8]) -> io::Result<CsrGraph> {
    load_sgr_bytes_with(data, Verify::Checksum)
}

/// [`load_sgr_bytes`] with an explicit [`Verify`] mode. Accepts both
/// container versions: a v2 image is decoded to the bit-identical raw
/// graph ([`EncodedCsr::to_csr`]); use [`load_sgr_encoded_bytes`] to keep
/// the encoded form.
pub fn load_sgr_bytes_with(data: &[u8], verify: Verify) -> io::Result<CsrGraph> {
    if format::peek_version(data)? == format::SGR_VERSION_V2 {
        return Ok(load_sgr_encoded_bytes_with(data, verify)?.to_csr());
    }
    let toc = format::parse_toc(data)?;
    if verify == Verify::Checksum {
        format::verify_checksum(data, &toc)?;
    }
    assemble(data, &toc, None)
}

/// Owned loader for v2 images: decodes into an [`EncodedCsr`] whose rows
/// kernels traverse without materializing raw CSR.
pub fn load_sgr_encoded_bytes(data: &[u8]) -> io::Result<EncodedCsr> {
    load_sgr_encoded_bytes_with(data, Verify::Checksum)
}

/// [`load_sgr_encoded_bytes`] with an explicit [`Verify`] mode.
pub fn load_sgr_encoded_bytes_with(data: &[u8], verify: Verify) -> io::Result<EncodedCsr> {
    let toc = format::parse_toc_v2(data)?;
    if verify == Verify::Checksum {
        format::verify_checksum(data, &toc)?;
    }
    assemble_encoded(data, &toc, None)
}

/// Owned loader for v2 files: reads `path` fully and decodes the encoded
/// graph.
pub fn load_sgr_encoded(path: impl AsRef<Path>) -> io::Result<EncodedCsr> {
    load_sgr_encoded_with(path, Verify::Checksum)
}

/// [`load_sgr_encoded`] with an explicit [`Verify`] mode.
pub fn load_sgr_encoded_with(path: impl AsRef<Path>, verify: Verify) -> io::Result<EncodedCsr> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    load_sgr_encoded_bytes_with(&data, verify)
}

/// Owned heap loader: reads `path` fully and decodes it.
pub fn load_sgr(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    load_sgr_with(path, Verify::Checksum)
}

/// [`load_sgr`] with an explicit [`Verify`] mode.
pub fn load_sgr_with(path: impl AsRef<Path>, verify: Verify) -> io::Result<CsrGraph> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    load_sgr_bytes_with(&data, verify)
}

/// A [`CsrGraph`] served zero-copy out of a read-only file mapping.
///
/// The CSR sections borrow directly from the mapping (no full-file copy);
/// the mapping itself is reference-counted, so the graph — and any clone of
/// it, including [`MmapGraph::into_graph`]'s result — keeps it alive, and
/// multiple consumers (e.g. `sg-dist` rank threads) share one mapping.
///
/// Derefs to [`CsrGraph`], so it drops into any API taking `&CsrGraph`.
pub struct MmapGraph {
    graph: CsrGraph,
}

impl MmapGraph {
    /// Maps `path` read-only, verifies checksum + structure, and builds the
    /// borrowed-section graph.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, Verify::Checksum)
    }

    /// [`MmapGraph::open`] with an explicit [`Verify`] mode.
    /// [`Verify::Trusted`] skips only the checksum scan — on a large
    /// mapping that is the difference between touching every page at open
    /// and faulting pages in lazily as algorithms reach them. Structural
    /// validation still runs and still rejects corrupt files.
    pub fn open_with(path: impl AsRef<Path>, verify: Verify) -> io::Result<Self> {
        let file = File::open(path)?;
        let map = Arc::new(Mmap::map(&file)?);
        if format::peek_version(&map)? == format::SGR_VERSION_V2 {
            // A v2 file decodes to the bit-identical raw graph; the heap
            // copy means the mapping can be dropped right after. Callers
            // who want the zero-copy *encoded* form use [`MmapEncoded`].
            let enc = MmapEncoded::from_mapping(map, verify)?;
            return Ok(Self { graph: enc.encoded().to_csr() });
        }
        let toc = format::parse_toc(&map)?;
        if verify == Verify::Checksum {
            // The checksum pass streams the file front to back — tell the
            // kernel so read-ahead runs ahead of the scan; restore the
            // default policy afterwards (MADV_SEQUENTIAL is sticky, and
            // the algorithms served from this mapping access it randomly).
            map.advise_sequential();
            let verified = format::verify_checksum(&map, &toc);
            map.advise_normal();
            verified?;
        }
        // Section windows are about to be validated (and then served to
        // algorithms): fault them in eagerly instead of page-by-page.
        // Best-effort hints; a kernel that ignores them changes nothing.
        for section in &toc.sections {
            map.advise_willneed(section.off, section.len);
        }
        let graph = assemble(&map, &toc, Some(&map))?;
        Ok(Self { graph })
    }

    /// The loaded graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Unwraps into the graph; the mapping stays alive behind the sections.
    pub fn into_graph(self) -> CsrGraph {
        self.graph
    }

    /// True when every CSR section borrows from the mapping (the zero-copy
    /// fast path — always taken on 64-bit little-endian unix).
    pub fn is_zero_copy(&self) -> bool {
        self.graph.is_fully_mapped()
    }
}

impl Deref for MmapGraph {
    type Target = CsrGraph;
    fn deref(&self) -> &CsrGraph {
        &self.graph
    }
}

impl GraphView for MmapGraph {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }
    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
    fn is_directed(&self) -> bool {
        self.graph.is_directed()
    }
    fn degree(&self, v: sg_graph::VertexId) -> usize {
        self.graph.degree(v)
    }
    fn in_degree(&self, v: sg_graph::VertexId) -> usize {
        self.graph.in_degree(v)
    }
    fn cursor(&self, v: sg_graph::VertexId) -> NeighborCursor<'_> {
        GraphView::cursor(&self.graph, v)
    }
    fn in_cursor(&self, v: sg_graph::VertexId) -> NeighborCursor<'_> {
        GraphView::in_cursor(&self.graph, v)
    }
    fn edge_weight(&self, e: sg_graph::EdgeId) -> sg_graph::Weight {
        self.graph.edge_weight(e)
    }
}

/// An [`EncodedCsr`] served zero-copy out of a read-only v2 file mapping:
/// the row index, degrees, and encoded blob borrow directly from the
/// mapping, so resident memory is the (compressed) file itself. Kernels
/// traverse it through [`GraphView`] — decode happens on the fly, per row.
pub struct MmapEncoded {
    enc: EncodedCsr,
}

impl MmapEncoded {
    /// Maps `path` read-only, verifies checksum + structure, and builds the
    /// borrowed-section encoded graph.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, Verify::Checksum)
    }

    /// [`MmapEncoded::open`] with an explicit [`Verify`] mode (same
    /// trade-off as [`MmapGraph::open_with`]).
    pub fn open_with(path: impl AsRef<Path>, verify: Verify) -> io::Result<Self> {
        let file = File::open(path)?;
        let map = Arc::new(Mmap::map(&file)?);
        Self::from_mapping(map, verify)
    }

    fn from_mapping(map: Arc<Mmap>, verify: Verify) -> io::Result<Self> {
        let toc = format::parse_toc_v2(&map)?;
        if verify == Verify::Checksum {
            map.advise_sequential();
            let verified = format::verify_checksum(&map, &toc);
            map.advise_normal();
            verified?;
        }
        for section in &toc.sections {
            map.advise_willneed(section.off, section.len);
        }
        let enc = assemble_encoded(&map, &toc, Some(&map))?;
        Ok(Self { enc })
    }

    /// The loaded encoded graph.
    pub fn encoded(&self) -> &EncodedCsr {
        &self.enc
    }

    /// Unwraps into the encoded graph; the mapping stays alive behind the
    /// sections.
    pub fn into_encoded(self) -> EncodedCsr {
        self.enc
    }

    /// True when every encoded section borrows from the mapping.
    pub fn is_zero_copy(&self) -> bool {
        self.enc.is_fully_mapped()
    }
}

impl Deref for MmapEncoded {
    type Target = EncodedCsr;
    fn deref(&self) -> &EncodedCsr {
        &self.enc
    }
}

impl GraphView for MmapEncoded {
    fn num_vertices(&self) -> usize {
        self.enc.num_vertices()
    }
    fn num_edges(&self) -> usize {
        self.enc.num_edges()
    }
    fn is_directed(&self) -> bool {
        self.enc.is_directed()
    }
    fn degree(&self, v: sg_graph::VertexId) -> usize {
        self.enc.degree(v)
    }
    fn in_degree(&self, v: sg_graph::VertexId) -> usize {
        self.enc.in_degree(v)
    }
    fn cursor(&self, v: sg_graph::VertexId) -> NeighborCursor<'_> {
        self.enc.cursor(v)
    }
    fn in_cursor(&self, v: sg_graph::VertexId) -> NeighborCursor<'_> {
        self.enc.in_cursor(v)
    }
    fn edge_weight(&self, e: sg_graph::EdgeId) -> sg_graph::Weight {
        self.enc.edge_weight(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn bytes_roundtrip_preserves_structure() {
        let g = generators::erdos_renyi(200, 600, 7);
        let img = to_sgr_bytes(&g);
        assert_eq!(img.len() % 8, 0, "file length stays 8-aligned");
        let h = load_sgr_bytes(&img).expect("load");
        assert_eq!(g.edge_slice(), h.edge_slice());
        assert_eq!(g.num_vertices(), h.num_vertices());
    }

    #[test]
    fn v2_bytes_roundtrip_is_bit_identical() {
        let g = generators::barabasi_albert(500, 6, 3);
        let img = to_sgr_bytes_with(&g, Encoding::Delta);
        assert_eq!(img.len() % 8, 0, "file length stays 8-aligned");
        // Transparent path: the generic loader decodes v2 to the raw graph.
        let h = load_sgr_bytes(&img).expect("load");
        assert_eq!(g.edge_slice(), h.edge_slice());
        assert_eq!(g.csr_offsets(), h.csr_offsets());
        assert_eq!(g.csr_targets(), h.csr_targets());
        assert_eq!(g.csr_slot_edges(), h.csr_slot_edges());
        // Encoded path: same structure through the cursor API.
        let enc = load_sgr_encoded_bytes(&img).expect("load encoded");
        assert_eq!(enc.num_edges(), g.num_edges());
        for v in 0..500u32 {
            let row: Vec<u32> = enc.cursor(v).collect();
            assert_eq!(row, g.neighbors(v), "row {v}");
        }
    }

    #[test]
    fn v2_directed_weighted_roundtrip() {
        let el = sg_graph::EdgeList::from_weighted(
            6,
            [(0, 1, 2.0), (1, 2, 0.5), (2, 0, 1.5), (4, 5, 3.0)],
        );
        let g = CsrGraph::from_edge_list_directed(el);
        let img = to_sgr_bytes_with(&g, Encoding::Delta);
        let h = load_sgr_bytes(&img).expect("load");
        assert_eq!(g.edge_slice(), h.edge_slice());
        assert_eq!(g.weight_slice(), h.weight_slice());
        assert_eq!(g.in_csr_targets(), h.in_csr_targets());
    }

    #[test]
    fn auto_encoding_picks_the_smaller_container() {
        // A social-style graph compresses well: auto must pick v2.
        let g = generators::barabasi_albert(2000, 8, 1);
        let auto = to_sgr_bytes_with(&g, Encoding::Auto);
        let raw = to_sgr_bytes(&g);
        let delta = to_sgr_bytes_with(&g, Encoding::Delta);
        assert!(delta.len() < raw.len());
        assert_eq!(auto.len(), delta.len());
        assert_eq!(format::peek_version(&auto).expect("header"), format::SGR_VERSION_V2);
    }

    #[test]
    fn version_mismatch_is_rejected_both_ways() {
        let g = generators::erdos_renyi(50, 100, 1);
        let v1 = to_sgr_bytes(&g);
        let v2 = to_sgr_bytes_with(&g, Encoding::Delta);
        let err = load_sgr_encoded_bytes(&v1).expect_err("v1 into v2 loader");
        assert!(err.to_string().contains("unsupported .sgr version"), "{err}");
        let err = format::parse_toc(&v2).expect_err("v2 into v1 parser");
        assert!(err.to_string().contains("unsupported .sgr version"), "{err}");
    }
}
