//! # sg-bench — the paper's tables and figures, from one registry
//!
//! [`tables::TABLES`] holds one function per table or figure of the
//! paper's evaluation — Tables 2, 3, 5 and 6, Figs. 5–8, §7.2's
//! critical-edge, reordered-pair and disconnection results, §7.1's
//! weighted TR, §7.4's low-rank comparison and routine timing, and an
//! `sg-tune` search. Each function only computes rows: it takes every
//! graph it uses by name from a [`tables::GraphSource`] and returns
//! [`Table`] values whose columns are marked deterministic or timing.
//! The `reproduce` binary runs them on [`tables::paper_graph`] and prints
//! them; `tests/paper_tables.rs` runs them on small graphs of the same
//! families and pins every deterministic column byte for byte.
//!
//! This file holds the `Table` value, its plain-text rendering, and the
//! stage-2 algorithm timing of Figure 5.

pub mod tables;

use sg_algos::{bfs, cc, pagerank, tc};
use sg_core::{CompressionScheme, SchemeParams, SchemeRegistry};
use sg_graph::CsrGraph;
use std::time::{Duration, Instant};

/// The verdict cell of a check whose bound does not hold; `reproduce`
/// exits non-zero when any table contains one.
pub const VIOLATED: &str = "VIOLATED";

/// One column of a [`Table`].
#[derive(Clone, Debug)]
pub struct Column {
    pub name: &'static str,
    /// A wall time or a value derived from one: it differs between runs,
    /// so the transcript test leaves it out.
    pub timing: bool,
}

/// One table or figure panel: a title, columns, rows of cells, and notes.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub columns: Vec<Column>,
    pub rows: Vec<Vec<String>>,
    /// Lines printed under the rows; none of them depends on a timing.
    pub notes: Vec<String>,
}

impl Table {
    /// A table with `columns` in order, of which those named in `timing`
    /// are timing columns.
    pub fn new(title: impl Into<String>, columns: &[&'static str], timing: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns
                .iter()
                .map(|&name| Column { name, timing: timing.contains(&name) })
                .collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Number of [`VIOLATED`] cells.
    pub fn violations(&self) -> usize {
        self.rows.iter().flatten().filter(|c| *c == VIOLATED).count()
    }

    /// Title, aligned rows and notes; timing columns only when `timings`.
    pub fn render(&self, timings: bool) -> String {
        let keep: Vec<usize> =
            (0..self.columns.len()).filter(|&i| timings || !self.columns[i].timing).collect();
        let headers: Vec<&str> = keep.iter().map(|&i| self.columns[i].name).collect();
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| keep.iter().map(|&i| r[i].clone()).collect()).collect();
        let mut out = format!("== {} ==\n\n{}", self.title, render_table(&headers, &rows));
        if !self.notes.is_empty() {
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

/// Instantiates a registry scheme for a table, panicking on unknown names
/// or bad parameters (harness code wants loud failures).
pub(crate) fn scheme(
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
pub(crate) fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
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
pub(crate) const FIG5_ALGORITHMS: [&str; 4] = ["BFS", "CC", "PR", "TC"];

/// Runs one Figure 5 algorithm and returns its wall time.
pub(crate) fn run_algorithm(name: &str, g: &CsrGraph) -> Duration {
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
pub(crate) fn relative_runtime_diff(original: Duration, compressed: Duration) -> f64 {
    let o = original.as_secs_f64();
    if o == 0.0 {
        return 0.0;
    }
    (o - compressed.as_secs_f64()) / o
}

/// Renders an aligned plain-text table.
pub(crate) fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
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

/// Formats a fraction as a fixed-width value.
pub(crate) fn f3(x: f64) -> String {
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
    fn render_leaves_timing_columns_out_when_asked() {
        let mut t = Table::new("t", &["scheme", "ms", "m'/m"], &["ms"]);
        t.rows.push(vec!["uniform".into(), "12.5".into(), "0.500".into()]);
        t.rows.push(vec!["tr".into(), "7.0".into(), VIOLATED.into()]);
        t.notes.push("a note".into());
        assert!(t.render(true).contains("12.5"));
        let det = t.render(false);
        assert!(!det.contains("12.5") && !det.contains("ms"), "{det}");
        assert!(det.starts_with("== t ==\n\n") && det.ends_with("VIOLATED\n\na note\n\n"), "{det}");
        assert_eq!(t.violations(), 1);
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
