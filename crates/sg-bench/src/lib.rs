//! # sg-bench — harness utilities shared by the experiment binaries
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (each binary's header names its experiment — `E5` is
//! `fig7_spanner_degrees`, `E9` is `bfs_critical_edges` — and what it expects).
//! This library holds the shared pieces: stage-2 algorithm timing, relative
//! runtime differences (Figure 5's y-axis), and plain-text table rendering.

use sg_algos::{bfs, cc, pagerank, tc};
use sg_core::{CompressionScheme, SchemeParams, SchemeRegistry};
use sg_graph::CsrGraph;
use std::time::{Duration, Instant};

/// Instantiates a registry scheme for an experiment binary, panicking on
/// unknown names or bad parameters (harness code wants loud failures).
pub fn scheme(
    registry: &SchemeRegistry,
    name: &str,
    params: &[(&str, &str)],
) -> Box<dyn CompressionScheme> {
    registry
        .create(name, &SchemeParams::from_pairs(params))
        .unwrap_or_else(|e| panic!("building scheme '{name}': {e}"))
}

/// Median wall time of `runs` executions (first run discarded as warmup
/// when `runs > 1`, mirroring the paper's warmup policy).
pub fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    assert!(runs >= 1);
    if runs > 1 {
        f(); // warmup
    }
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let s = Instant::now();
            f();
            s.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The stage-2 algorithm set of Figure 5.
pub const FIG5_ALGORITHMS: [&str; 4] = ["BFS", "CC", "PR", "TC"];

/// Runs one Figure 5 algorithm and returns its wall time.
pub fn run_algorithm(name: &str, g: &CsrGraph) -> Duration {
    match name {
        "BFS" => {
            // The highest-degree vertex: stable across compression, and
            // the component it reaches is large.
            let root = sg_metrics::max_degree_vertex(g);
            median_time(3, || {
                bfs::bfs_parallel(g, root);
            })
        }
        "CC" => median_time(3, || {
            cc::connected_components(g);
        }),
        "PR" => median_time(3, || {
            pagerank::pagerank(
                g,
                pagerank::PageRankConfig { max_iterations: 20, ..Default::default() },
            );
        }),
        "TC" => median_time(3, || {
            tc::count_triangles(g);
        }),
        other => panic!("unknown algorithm {other}"),
    }
}

/// Figure 5's y-axis: relative difference between runtimes over the
/// compressed and the original graph (positive = speedup).
pub fn relative_runtime_diff(original: Duration, compressed: Duration) -> f64 {
    let o = original.as_secs_f64();
    if o == 0.0 {
        return 0.0;
    }
    (o - compressed.as_secs_f64()) / o
}

/// Renders an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// One benchmark measurement in the machine-readable schema the experiment
/// binaries emit under `--json` (so CI can track perf/accuracy
/// trajectories): workload, scheme/pipeline label, parameters, compression
/// ratio, and per-stage wall times.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Workload identifier (generator preset or input file).
    pub workload: String,
    /// Scheme/pipeline label (or the measured operation for non-scheme
    /// benchmarks, e.g. `load:mmap`).
    pub label: String,
    /// Parameters as `(key, value)` strings.
    pub params: Vec<(String, String)>,
    /// Compression ratio `m'/m` where applicable.
    pub ratio: Option<f64>,
    /// Per-stage wall times in milliseconds, in execution order.
    pub timings_ms: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Serializes the record as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"workload\":\"{}\"", json_escape(&self.workload)));
        out.push_str(&format!(",\"label\":\"{}\"", json_escape(&self.label)));
        out.push_str(",\"params\":{");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        out.push_str("},\"ratio\":");
        out.push_str(&json_number(self.ratio));
        out.push_str(",\"timings_ms\":{");
        for (i, (stage, ms)) in self.timings_ms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(stage), json_number(Some(*ms))));
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    sg_obs::trace::escape_into(&mut out, s);
    out
}

fn json_number(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

/// Renders records as a JSON array, one object per line (log-friendly,
/// still valid JSON for CI consumers).
pub fn render_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.to_json());
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// True when the binary was invoked with `--json` (machine-readable output
/// instead of the plain-text table).
pub fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Formats a fraction as a fixed-width value.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "22".into()]],
        );
        assert!(t.contains("long-name"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn algorithms_all_run() {
        let g = generators::erdos_renyi(500, 2000, 1);
        for a in FIG5_ALGORITHMS {
            let d = run_algorithm(a, &g);
            assert!(d.as_nanos() > 0);
        }
    }

    #[test]
    fn scheme_helper_builds_from_registry() {
        let registry = SchemeRegistry::with_defaults();
        let s = scheme(&registry, "uniform", &[("p", "0.3")]);
        assert_eq!(s.name(), "uniform");
        assert_eq!(s.label(), "uniform (p=0.3)");
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn scheme_helper_panics_loudly_on_unknown_names() {
        scheme(&SchemeRegistry::with_defaults(), "nope", &[]);
    }

    #[test]
    fn bench_record_serializes_to_stable_json() {
        let r = BenchRecord {
            workload: "ba-1k".into(),
            label: "uniform (p=0.5)".into(),
            params: vec![("p".into(), "0.5".into()), ("seed".into(), "7".into())],
            ratio: Some(0.5),
            timings_ms: vec![("compress".into(), 12.5), ("pagerank".into(), 3.25)],
        };
        assert_eq!(
            r.to_json(),
            "{\"workload\":\"ba-1k\",\"label\":\"uniform (p=0.5)\",\
             \"params\":{\"p\":\"0.5\",\"seed\":\"7\"},\"ratio\":0.5,\
             \"timings_ms\":{\"compress\":12.5,\"pagerank\":3.25}}"
        );
        let arr = render_json(&[r.clone(), r]);
        assert!(arr.starts_with("[\n") && arr.ends_with(']'));
        assert_eq!(arr.matches("\"workload\"").count(), 2);
    }

    #[test]
    fn json_escaping_and_non_finite_numbers() {
        let r = BenchRecord {
            workload: "a\"b\\c\nd".into(),
            label: String::new(),
            params: vec![],
            ratio: Some(f64::NAN),
            timings_ms: vec![],
        };
        let j = r.to_json();
        assert!(j.contains("a\\\"b\\\\c\\nd"));
        assert!(j.contains("\"ratio\":null"), "non-finite numbers become null: {j}");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn relative_diff_sign() {
        let o = Duration::from_millis(100);
        assert!(relative_runtime_diff(o, Duration::from_millis(50)) > 0.0);
        assert!(relative_runtime_diff(o, Duration::from_millis(200)) < 0.0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
