//! The `.sgr` v3 adjacency (Stream VByte sparse rows, bitmap dense rows).
//! Raw-vs-encoded bit-identity is the contract harness's `Encoded` axis
//! (`tests/contract/`), split between the first two tests. The rest is what
//! only the codec has: every decode boundary in front of a cursor, heap and
//! mmap; hostile sections aimed at the validators (stray length codes,
//! truncated groups, gap overflow, non-minimal lengths, malformed bitmaps,
//! wrong container versions); and a seeded loop of byte-flip, truncation
//! and length-field mutations — each must end in a clean rejection or a
//! valid graph, never a panic, never a garbage graph.

mod contract;
mod oracle;

use contract::{directed, encoded_twins, tmp};
use slimgraph::graph::view::CURSOR_CHUNK;
use slimgraph::graph::{
    generators, CsrGraph, EdgeList, EncodedAdjacencyParts, EncodedCsr, Section, VertexId,
};
use slimgraph::serve::graph_digest;
use slimgraph::store::{
    format, load_sgr, load_sgr_bytes, load_sgr_encoded_bytes, load_sgr_encoded_bytes_with,
    save_sgr_with, to_sgr_bytes, to_sgr_bytes_with, Encoding, MmapEncoded, Verify,
};

/// The kernels over both encoded twins (heap-decoded and mapped) of every
/// kernel case the `Encoded` axis accepts, at 1 and 4 threads.
#[test]
fn kernels_bit_identical_raw_vs_encoded() {
    contract::check_where(contract::Axis::Encoded, contract::Case::is_kernels);
}

/// Every scheme and chain of the table on the mapped v3 twin, decoded, at
/// 1 and 4 threads.
#[test]
fn every_registry_scheme_and_pipeline_identical_after_v3_round_trip() {
    contract::check_where(contract::Axis::Encoded, |case| !case.is_kernels());
}

#[test]
fn v3_files_load_transparently_as_raw_graphs() {
    let er = generators::erdos_renyi(1200, 6000, 0x6107);
    let g = generators::with_random_weights(&er, 0.5, 4.5, 11);
    let path = tmp("transparent.sgr");
    save_sgr_with(&g, &path, Encoding::Delta).expect("save v3");
    let back = load_sgr(&path).expect("v1-style entry point accepts v3");
    assert_eq!(g.csr_offsets(), back.csr_offsets());
    assert_eq!(graph_digest(&g), graph_digest(&back), "edges and weight bits");
}

// --- decode boundaries ----------------------------------------------------

/// Vertices of the boundary graph: gaps up to 65 536 stay below `n`, and
/// every row of degree ≤ 66 stays delta-class (64 · 66 < n).
const BOUNDARY_N: usize = 150_000;

/// A directed graph whose out-rows put every decode boundary in front of
/// the cursor: degrees 0–9 and 63–66 (group tails against the 64-lane
/// chunk), a first target of 0, gaps at 255 / 256 and 65 535 / 65 536 (the
/// 1-, 2- and 3-byte lengths; the 4-byte boundary needs a 2²⁴-vertex graph
/// and is covered by the codec's own unit tests), and a last row that ends
/// exactly at the blob's end, where the group loads fall back to bytes.
fn boundary_graph() -> CsrGraph {
    let mut pairs = Vec::new();
    let mut v = 0u32;
    for degree in (0..=9).chain(63..=66) {
        // Four rows per degree: where the row starts and which wide gap it
        // carries vary, the small gaps cycle through the 1/2-byte boundary.
        for (first, wide) in [(0u32, 0u32), (65_535, 0), (0, 65_536), (65_536, 65_535)] {
            let mut t = first;
            for i in 0..degree {
                if i > 0 {
                    t += if i == 1 && wide > 0 { wide } else { [1, 255, 256][i % 3] };
                }
                pairs.push((v, t));
            }
            v += 1;
        }
    }
    let last = BOUNDARY_N as u32 - 1;
    for t in [0, 255, 511, 65_535 + 511, 65_535 + 767] {
        pairs.push((last, t));
    }
    CsrGraph::from_edge_list_directed(EdgeList::from_pairs(BOUNDARY_N, pairs))
}

/// Every way a kernel drains a cursor, against the raw row: `collect`
/// (`next`), `for_each`, `next_chunk`, and `k` single `next` calls followed
/// by one `next_chunk` and a `for_each` over what is left.
fn assert_cursor_drains_match(
    raw: &[VertexId],
    open: impl Fn() -> slimgraph::graph::NeighborCursor<'static>,
    what: &str,
) {
    let collected: Vec<VertexId> = open().collect();
    assert_eq!(collected, raw, "{what}: next");
    let mut via_for_each = Vec::new();
    open().for_each(|t| via_for_each.push(t));
    assert_eq!(via_for_each, raw, "{what}: for_each");
    let mut buf = [0; CURSOR_CHUNK];
    let mut cursor = open();
    let mut chunked = Vec::new();
    loop {
        let filled = cursor.next_chunk(&mut buf);
        if filled == 0 {
            break;
        }
        chunked.extend_from_slice(&buf[..filled]);
    }
    assert_eq!(chunked, raw, "{what}: next_chunk");
    for k in 0..=6 {
        let mut cursor = open();
        let mut mixed: Vec<VertexId> = cursor.by_ref().take(k).collect();
        let filled = cursor.next_chunk(&mut buf);
        mixed.extend_from_slice(&buf[..filled]);
        cursor.for_each(|t| mixed.push(t));
        assert_eq!(mixed, raw, "{what}: {k} x next, next_chunk, for_each");
    }
}

#[test]
fn decode_boundaries_match_raw_heap_and_mmap() {
    let g = boundary_graph();
    let path = tmp("boundaries.sgr");
    save_sgr_with(&g, &path, Encoding::Delta).expect("save v3");
    let twins = encoded_twins(&path);
    let adjacency = twins[1].1.out_adjacency();
    let last = (BOUNDARY_N - 1) as VertexId;
    assert_eq!(
        adjacency.row_bytes(last).as_ptr_range().end,
        adjacency.blob().as_ptr_range().end,
        "the last row ends at the blob's end"
    );
    for (label, e) in twins {
        // The cursors borrow `e`; leaking one small graph per twin keeps
        // the helper's opener free of lifetimes.
        let e: &'static EncodedCsr = Box::leak(Box::new(e));
        for v in (0..g.num_vertices() as VertexId).filter(|&v| g.degree(v) > 0 || v < 60) {
            assert_cursor_drains_match(g.neighbors(v), || e.cursor(v), &format!("{label} {v}"));
        }
        for v in (0..g.num_vertices() as VertexId).filter(|&v| g.in_degree(v) > 0) {
            let what = format!("{label} in {v}");
            assert_cursor_drains_match(g.in_neighbors(v), || e.in_cursor(v), &what);
        }
    }
}

// --- hostile sections ------------------------------------------------------

/// One row of `degree` values encoded as `blob`, the other `n - 1` rows
/// empty. `n` is large enough that a small degree stays delta-class.
fn one_row_parts(n: usize, blob: Vec<u8>, degree: u32) -> EncodedAdjacencyParts {
    let mut degrees = vec![0u32; n];
    degrees[0] = degree;
    EncodedAdjacencyParts { degrees: Section::from(degrees), blob: Section::from(blob) }
}

/// Rejected by the row checks, before any cross-row check runs.
fn expect_rejected(parts: EncodedAdjacencyParts, n: usize, what: &str) {
    let err = EncodedCsr::from_parts(false, n, 1, parts, None, None)
        .err()
        .unwrap_or_else(|| panic!("{what} must be rejected"));
    assert!(err.contains("row invalid"), "{what} must fail the row checks, got: {err}");
}

#[test]
fn hostile_rows_are_rejected_not_decoded() {
    // A delta row is ceil(d/4) control bytes, then the gaps; value i's
    // length code (bytes - 1) sits in bits 2(i%4).. of control byte i/4.
    // The well-formed row [5] is [0b00, 5]: it passes the row checks (and
    // fails only the cross-row ones, having no partner row).
    let err = EncodedCsr::from_parts(false, 100, 1, one_row_parts(100, vec![0, 5], 1), None, None)
        .expect_err("one half of an edge");
    assert!(!err.contains("row invalid"), "the row itself is valid, got: {err}");
    // A set unused control field: value 1's code in a degree-1 row.
    expect_rejected(one_row_parts(100, vec![0b0100, 5, 0], 1), 100, "unused control field");
    // Data truncated mid-group: four 2-byte values announced, five bytes
    // of data present.
    expect_rejected(one_row_parts(100, vec![0x55, 1, 0, 2, 0, 3], 4), 100, "truncated group");
    // A value at or past n: target 200 >= n = 100.
    expect_rejected(one_row_parts(100, vec![0, 200], 1), 100, "value past n");
    // A zero gap after the first value: a duplicate neighbor.
    expect_rejected(one_row_parts(100, vec![0, 5, 0], 2), 100, "zero gap");
    // Trailing bytes after the row its control bytes describe.
    expect_rejected(one_row_parts(100, vec![0, 5, 1, 7], 2), 100, "trailing row bytes");
    // A non-minimal length: gap 5 stored in two bytes.
    expect_rejected(one_row_parts(100, vec![0b01, 5, 0], 1), 100, "non-minimal length");
    // A derived row end past the blob: eight values need two control
    // bytes, the blob holds one.
    expect_rejected(one_row_parts(100, vec![0], 8), 100, "row end past the blob");
    // Bitmap-class row (64 * degree > n) with the wrong byte length:
    // bitmap_row_bytes(128) = 16, so 24 blob bytes leave 8 after the rows.
    expect_rejected(one_row_parts(128, vec![0u8; 24], 20), 128, "oversized bitmap");
    // Bitmap with a bit set at or past n (bit 100 of an n = 96 bitmap).
    let mut bm = vec![0u8; 16];
    bm[12] = 0x10; // bit 100
    bm[0] = 0x01; // bit 0
    expect_rejected(one_row_parts(96, bm, 2), 96, "bitmap bit past n");
}

#[test]
fn container_versions_reject_cleanly_both_ways() {
    let g = generators::barabasi_albert(1500, 4, 0x6106);
    let v1 = to_sgr_bytes(&g);
    let v3 = to_sgr_bytes_with(&g, Encoding::Delta);

    // The v3-only entry point must reject a v1 image...
    let err = load_sgr_encoded_bytes(&v1).expect_err("v3 reader must reject v1");
    assert!(err.to_string().contains("version"), "got: {err}");
    // ...and an unknown future version must be rejected by every reader.
    let mut v4 = v3.clone();
    v4[8] = 4;
    assert!(load_sgr_bytes(&v4).is_err(), "raw reader must reject version 4");
    assert!(load_sgr_encoded_bytes(&v4).is_err(), "encoded reader must reject version 4");
    // Version 2 (LEB128 rows, stored row index) is no longer read: every
    // reader names the version it refused.
    let mut v2 = v3.clone();
    v2[8] = 2;
    let path = tmp("version-2.sgr");
    std::fs::write(&path, &v2).expect("write v2 image");
    let errors = [
        load_sgr_bytes(&v2).err(),
        load_sgr_encoded_bytes(&v2).err(),
        load_sgr(&path).err(),
        MmapEncoded::open(&path).err(),
        slimgraph::store::MmapGraph::open(&path).err(),
    ];
    for err in errors {
        let err = err.expect("every reader rejects version 2");
        assert!(err.to_string().contains("version 2"), "got: {err}");
    }

    // A flipped payload byte must fail the checksum, not decode quietly.
    // Inter-section padding is under 8 bytes and always shares its aligned
    // word with payload, so corrupting one full aligned word mid-file is
    // guaranteed to touch checksummed bytes.
    let mut corrupt = v3.clone();
    let word = (corrupt.len() / 2) & !7;
    for b in &mut corrupt[word..word + 8] {
        *b ^= 0xff;
    }
    assert!(load_sgr_bytes(&corrupt).is_err(), "corrupt v3 payload must fail verification");
}

// --- seeded mutations --------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small valid v3 image: both row classes, and (directed, weighted) the
/// in-row and weight sections too.
fn mutation_bases() -> [Vec<u8>; 2] {
    let undirected = generators::barabasi_albert(700, 2, 0x6108);
    let directed = generators::with_random_weights(&directed(), 0.5, 4.5, 12);
    [to_sgr_bytes_with(&undirected, Encoding::Delta), to_sgr_bytes_with(&directed, Encoding::Delta)]
}

/// One mutation of `base`: a byte flip, a truncation, or a length field —
/// a section-table length, the header's `n` or `m`, or one row's degree —
/// moved by a small amount. Returns the image and what was done.
fn mutate(base: &[u8], rng: &mut u64) -> (Vec<u8>, String) {
    let mut img = base.to_vec();
    let r = splitmix(rng);
    let at = (r >> 8) as usize % img.len();
    let delta = [1i64, -1, 4, -4, 8, -8, 1 << 20][(r >> 40) as usize % 7];
    let bump = |img: &mut [u8], field: usize, width: usize| {
        let mut bytes = [0u8; 8];
        bytes[..width].copy_from_slice(&img[field..field + width]);
        let moved = (u64::from_le_bytes(bytes) as i64).wrapping_add(delta) as u64;
        img[field..field + width].copy_from_slice(&moved.to_le_bytes()[..width]);
    };
    match r % 4 {
        0 => {
            let flip = (splitmix(rng) % 255 + 1) as u8;
            img[at] ^= flip;
            (img, format!("flip byte {at} by {flip:#04x}"))
        }
        1 => {
            img.truncate(at);
            (img, format!("truncate to {at} bytes"))
        }
        2 => {
            let toc = format::parse_toc_v3(base).expect("base image parses");
            let entry = (r >> 16) as usize % (toc.sections.len() + 2);
            let field = if entry < toc.sections.len() {
                format::HEADER_LEN + entry * format::SECTION_ENTRY_LEN + 16
            } else {
                16 + 8 * (entry - toc.sections.len()) // n, then m
            };
            bump(&mut img, field, 8);
            (img, format!("move header field at {field} by {delta}"))
        }
        _ => {
            let toc = format::parse_toc_v3(base).expect("base image parses");
            let degrees = toc
                .sections
                .iter()
                .filter(|s| {
                    matches!(s.id, format::SectionId::Degrees | format::SectionId::InDegrees)
                })
                .nth((r >> 16) as usize % if toc.directed { 2 } else { 1 })
                .expect("a degree section");
            let field = degrees.off + 4 * ((r >> 24) as usize % (degrees.len / 4));
            bump(&mut img, field, 4);
            (img, format!("move the degree at {field} by {delta}"))
        }
    }
}

/// What a loader may return for a mutated image: an error, or a graph that
/// passed validation — its rows decode to strictly increasing targets
/// below `n`, and it is the one encoding of the graph it decodes to.
/// Returns whether the image was accepted.
fn assert_valid_or_rejected(loaded: std::io::Result<EncodedCsr>, what: &str) -> bool {
    let Ok(e) = loaded else { return false };
    let n = e.num_vertices();
    for v in 0..n as VertexId {
        for (cursor, degree) in [(e.cursor(v), e.degree(v)), (e.in_cursor(v), e.in_degree(v))] {
            let row: Vec<VertexId> = cursor.collect();
            assert_eq!(row.len(), degree, "{what}: row {v} decodes short");
            assert!(row.windows(2).all(|w| w[0] < w[1]), "{what}: row {v} unsorted");
            assert!(row.iter().all(|&t| (t as usize) < n), "{what}: row {v} past n");
        }
    }
    let again = EncodedCsr::from_graph(&e.to_csr());
    let sections = |e: &EncodedCsr| {
        let adj = [Some(e.out_adjacency()), e.in_adjacency()];
        adj.map(|a| a.map(|a| (a.degrees().to_vec(), a.blob().to_vec())))
    };
    assert!(sections(&again) == sections(&e), "{what}: accepted a non-canonical encoding");
    true
}

fn mutation_loop(cases: usize, seed: u64) {
    let bases = mutation_bases();
    let path = tmp(&format!("mutation-{seed}.sgr"));
    let mut rng = seed;
    let mut accepted = 0;
    for case in 0..cases {
        let base = &bases[case % bases.len()];
        let (img, how) = mutate(base, &mut rng);
        let what = format!("case {case} (seed {seed}): {how}");
        let outcome = std::panic::catch_unwind(|| {
            let trusted = load_sgr_encoded_bytes_with(&img, Verify::Trusted);
            let ok = assert_valid_or_rejected(trusted, &what);
            assert_valid_or_rejected(load_sgr_encoded_bytes(&img), &what);
            std::fs::write(&path, &img).expect("write mutated image");
            let mapped = MmapEncoded::open_with(&path, Verify::Trusted).map(|m| m.into_encoded());
            assert_eq!(assert_valid_or_rejected(mapped, &what), ok, "{what}: heap and mmap differ");
            ok
        });
        match outcome {
            Ok(ok) => accepted += usize::from(ok),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panic!("{what}: {msg}");
            }
        }
    }
    // Flips in weights or padding load; most structural mutations do not.
    assert!(0 < accepted && accepted < cases / 2, "{accepted} of {cases} mutations accepted");
}

#[test]
fn mutated_images_are_rejected_or_valid() {
    mutation_loop(2_000, 0x5eed_0001);
}

/// The stress twin: `cargo test --release --test encoding_equivalence --
/// --ignored` (CI runs it).
#[test]
#[ignore]
fn mutated_images_are_rejected_or_valid_stress() {
    mutation_loop(100_000, 0x5eed_0002);
}
