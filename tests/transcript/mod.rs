//! What the transcript suites (`serve_transcript`, `cli_transcript`)
//! share: a scratch directory, textual masking of JSON values, and the
//! compare step. A transcript is compared whole with
//! `tests/transcripts/<name>.txt`; on a mismatch the panic names the first
//! differing line and the `<name>.actual` file it left under [`tmp`]. Copy
//! that file over the expected transcript only for an intended change.

/// JSON values that legitimately differ between runs: wall times, uptimes,
/// temp-dir paths, ephemeral worker addresses, the process-wide graph id
/// counter, and a daemon's registry snapshot (which also holds the
/// process-wide registry other tests move).
pub const MASKED: &[&str] = &[
    "ms",
    "total_ms",
    "uptime_ms",
    "queue_wait_ms",
    "service_ms",
    "graph_id",
    "source",
    "path",
    "output",
    "addr",
    "counters",
    "gauges",
    "histograms",
];

/// A path under this test process's scratch directory.
pub fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("slimgraph-transcripts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

/// Byte length of the JSON value `text` starts with.
fn value_len(text: &str) -> usize {
    let (mut depth, mut in_str, mut i) = (0usize, false, 0usize);
    let bytes = text.as_bytes();
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            match b {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' | b',' if depth == 0 => return i, // end of a bare scalar
                b'}' | b']' => depth -= 1,
                _ => {}
            }
        }
        i += 1;
        if depth == 0 && !in_str && matches!(b, b'"' | b'}' | b']') {
            return i; // closed a top-level string or container
        }
    }
    i
}

/// Replaces the value after every `"key":` in `line` with `"*"`, leaving
/// every other byte as it was written.
pub fn mask(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(&needle) {
        let value = at + needle.len();
        out.push_str(&rest[..value]);
        out.push_str("\"*\"");
        rest = &rest[value + value_len(&rest[value..])..];
    }
    out.push_str(rest);
    out
}

/// [`mask`] for every key of [`MASKED`] and of `extra`.
pub fn mask_all(line: &str, extra: &[&str]) -> String {
    MASKED.iter().chain(extra).fold(line.to_string(), |line, key| mask(&line, key))
}

/// Compares the transcript `got` with `expected`, the contents of
/// `tests/transcripts/<name>.txt`; on a mismatch leaves `got` as
/// `<name>.actual` under [`tmp`] and panics naming the first differing line.
pub fn finish(name: &str, got: &str, expected: &str) {
    if got == expected {
        return;
    }
    let actual = tmp(&format!("{name}.actual"));
    std::fs::write(&actual, got).expect("write actual transcript");
    let line = got
        .lines()
        .zip(expected.lines())
        .position(|(got, want)| got != want)
        .unwrap_or_else(|| got.lines().count().min(expected.lines().count()));
    panic!(
        "transcript '{name}' differs from tests/transcripts/{name}.txt at line {}:\n  got:  {}\n  want: {}\n(full actual transcript: {actual})",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of transcript>"),
        expected.lines().nth(line).unwrap_or("<end of transcript>"),
    );
}
