//! E7 — Table 3: empirical validation of the theoretical bounds.
//!
//! For each (compression scheme × graph property) cell of Table 3 that
//! admits a checkable bound, measures the property before/after compression
//! and reports whether the paper's bound holds. Deterministic bounds must
//! hold exactly; expectation/w.h.p. bounds are checked with slack.
//!
//! Run: `cargo run --release -p sg-bench --bin tab3_bounds`

use sg_algos::{cc, coloring, diameter, matching, mis, mst, sssp, tc};
use sg_bench::{json_requested, render_json, render_table, BenchRecord};
use sg_core::schemes::uniform_sample;
use sg_core::schemes::{
    remove_low_degree, spanner, spectral_sparsify, summarize, triangle_reduce, SummarizationConfig,
    TrConfig, UpsilonVariant,
};
use sg_graph::generators;
use sg_graph::CsrGraph;

struct Check {
    scheme: &'static str,
    property: &'static str,
    bound: String,
    measured: String,
    holds: bool,
}

fn check(
    out: &mut Vec<Check>,
    scheme: &'static str,
    property: &'static str,
    bound: impl Into<String>,
    measured: impl Into<String>,
    holds: bool,
) {
    out.push(Check { scheme, property, bound: bound.into(), measured: measured.into(), holds });
}

fn test_graph(seed: u64) -> CsrGraph {
    generators::planted_triangles(&generators::erdos_renyi(1500, 4500, seed), 3000, seed ^ 1)
}

fn main() {
    let seed = 0x7AB3;
    let mut checks: Vec<Check> = Vec::new();

    // ---------------- EO p-1-Triangle Reduction row ----------------------
    {
        let g = test_graph(seed);
        let p = 1.0;
        let r = triangle_reduce(&g, TrConfig::edge_once_1(p), seed);
        let h = &r.graph;

        // |V| unchanged.
        check(
            &mut checks,
            "EO p-1-TR",
            "|V|",
            "n",
            format!("{} -> {}", g.num_vertices(), h.num_vertices()),
            g.num_vertices() == h.num_vertices(),
        );
        // #CC preserved (deterministic under edge-disjoint reduction).
        let c0 = cc::connected_components(&g).num_components;
        let c1 = cc::connected_components(h).num_components;
        check(&mut checks, "EO p-1-TR", "#CC", "= C", format!("{c0} -> {c1}"), c0 == c1);
        // Shortest path stretch <= 2 (here: from a fixed root).
        let d0 = sssp::dijkstra(&g, 0);
        let d1 = sssp::dijkstra(h, 0);
        let stretch_ok = d0
            .iter()
            .zip(&d1)
            .all(|(a, b)| !a.is_finite() || (b.is_finite() && *b <= 2.0 * *a + 1e-9));
        check(&mut checks, "EO p-1-TR", "s-t path", "<= 2P", "all pairs from root", stretch_ok);
        // Diameter <= 2D (via double sweep lower bounds both sides).
        let dd0 = diameter::diameter_double_sweep(&g, 0);
        let dd1 = diameter::diameter_double_sweep(h, 0);
        check(
            &mut checks,
            "EO p-1-TR",
            "Diameter",
            "<= 2D (+slack)",
            format!("{dd0} -> {dd1}"),
            dd1 as f64 <= 2.0 * dd0 as f64 + 2.0,
        );
        // Max degree >= d/2.
        check(
            &mut checks,
            "EO p-1-TR",
            "Max degree",
            ">= d/2",
            format!("{} -> {}", g.max_degree(), h.max_degree()),
            h.max_degree() * 2 >= g.max_degree(),
        );
        // Matching >= 2/3 MC (expectation; use best-of greedy as estimate).
        let m0 = matching::best_greedy_matching(&g, 5, seed).size();
        let m1 = matching::best_greedy_matching(h, 5, seed).size();
        check(
            &mut checks,
            "EO p-1-TR",
            "Matching",
            ">= (2/3) MC (expect., slack 0.6)",
            format!("{m0} -> {m1}"),
            m1 as f64 >= 0.6 * m0 as f64,
        );
        // Coloring number >= CG/3 (expectation): greedy coloring proxy.
        let col0 = coloring::greedy_coloring(&g).num_colors;
        let col1 = coloring::greedy_coloring(h).num_colors;
        check(
            &mut checks,
            "EO p-1-TR",
            "Coloring",
            ">= CG/3 (proxy)",
            format!("{col0} -> {col1}"),
            col1 as f64 >= col0 as f64 / 3.0 - 1.0,
        );
        // Triangles <= (1 - p/d)T — weaker sanity: T decreases.
        let t0 = tc::count_triangles(&g);
        let t1 = tc::count_triangles(h);
        check(&mut checks, "EO p-1-TR", "#Triangles", "<= T", format!("{t0} -> {t1}"), t1 <= t0);
        // MST weight preserved with max-weight choice.
        let gw = generators::with_random_weights(&g, 1.0, 100.0, seed ^ 2);
        let w0 = mst::minimum_spanning_forest(&gw).total_weight;
        let rw = triangle_reduce(&gw, TrConfig::max_weight(1.0), seed);
        let w1 = mst::minimum_spanning_forest(&rw.graph).total_weight;
        check(
            &mut checks,
            "EO p-1-TR (maxw)",
            "MST weight",
            "= W exactly",
            format!("{w0:.1} -> {w1:.1}"),
            (w0 - w1).abs() < 1e-3,
        );
    }

    // ---------------- Simple p-sampling row -------------------------------
    {
        let g = test_graph(seed ^ 3);
        let p = 0.3;
        let r = uniform_sample(&g, p, seed);
        let h = &r.graph;
        check(
            &mut checks,
            "Uniform p",
            "|E|",
            "(1-p)m ±3%",
            format!("{} -> {}", g.num_edges(), h.num_edges()),
            (h.num_edges() as f64 - (1.0 - p) * g.num_edges() as f64).abs()
                < 0.03 * g.num_edges() as f64,
        );
        let d0 = g.average_degree();
        let d1 = h.average_degree();
        check(
            &mut checks,
            "Uniform p",
            "Avg degree",
            "(1-p)d ±5%",
            format!("{d0:.2} -> {d1:.2}"),
            (d1 - (1.0 - p) * d0).abs() < 0.05 * d0,
        );
        let t0 = tc::count_triangles(&g) as f64;
        let t1 = tc::count_triangles(h) as f64;
        check(
            &mut checks,
            "Uniform p",
            "#Triangles",
            "(1-p)^3 T ±15%",
            format!("{t0} -> {t1}"),
            (t1 - (1.0f64 - p).powi(3) * t0).abs() < 0.15 * t0.max(1.0),
        );
        let c0 = cc::connected_components(&g).num_components;
        let c1 = cc::connected_components(h).num_components;
        check(
            &mut checks,
            "Uniform p",
            "#CC",
            "<= C + pm",
            format!("{c0} -> {c1}"),
            c1 as f64 <= c0 as f64 + p * g.num_edges() as f64,
        );
        let is0 = mis::best_greedy_mis(&g, 3, seed).len();
        let is1 = mis::best_greedy_mis(h, 3, seed).len();
        check(
            &mut checks,
            "Uniform p",
            "Max indep. set",
            "non-decreasing (proxy)",
            format!("{is0} -> {is1}"),
            is1 + is0 / 20 >= is0, // greedy proxy: allow 5% noise
        );
        let m0 = matching::best_greedy_matching(&g, 3, seed).size();
        let m1 = matching::best_greedy_matching(h, 3, seed).size();
        check(
            &mut checks,
            "Uniform p",
            "Matching",
            ">= (1-p)MC (slack 5%)",
            format!("{m0} -> {m1}"),
            m1 as f64 >= (1.0 - p) * m0 as f64 * 0.95,
        );
    }

    // ---------------- Spectral sparsifier row -----------------------------
    {
        let g = generators::barabasi_albert(3000, 6, seed ^ 4);
        let r = spectral_sparsify(&g, 0.6, UpsilonVariant::LogN, true, seed);
        let h = &r.graph;
        let c0 = cc::connected_components(&g).num_components;
        let c1 = cc::connected_components(h).num_components;
        check(
            &mut checks,
            "Spectral",
            "#CC",
            "= C w.h.p. (slack +2)",
            format!("{c0} -> {c1}"),
            c1 <= c0 + 2,
        );
        check(
            &mut checks,
            "Spectral",
            "Max degree",
            ">= d/2(1+eps) [weighted]",
            format!("{} -> {}", g.max_degree(), h.max_degree()),
            // Weighted degree of the max-degree vertex stays within 2x:
            // each kept edge has weight 1/p_e, unbiased per vertex.
            weighted_degree_ok(&g, h),
        );
        check(
            &mut checks,
            "Spectral",
            "|E|",
            "O~(n/eps^2): sub-linear vs m",
            format!("{} -> {}", g.num_edges(), h.num_edges()),
            h.num_edges() < g.num_edges(),
        );
    }

    // ---------------- O(k)-spanner row -------------------------------------
    {
        let g = generators::rmat_graph500(12, 10, seed ^ 5);
        let k = 8.0;
        let r = spanner(&g, k, seed);
        let h = &r.graph;
        let c0 = cc::connected_components(&g).num_components;
        let c1 = cc::connected_components(h).num_components;
        check(&mut checks, "Spanner k", "#CC", "= C", format!("{c0} -> {c1}"), c0 == c1);
        let d0 = sssp::dijkstra(&g, sg_metrics::max_degree_vertex(&g));
        let d1 = sssp::dijkstra(h, sg_metrics::max_degree_vertex(&g));
        let bound = 2.0 * k * (g.num_vertices() as f64).ln();
        let stretch_ok = d0
            .iter()
            .zip(&d1)
            .all(|(a, b)| !a.is_finite() || (b.is_finite() && *b <= bound * a.max(1.0)));
        check(
            &mut checks,
            "Spanner k",
            "s-t path",
            "O(k log n) stretch",
            "all pairs from hub",
            stretch_ok,
        );
        check(
            &mut checks,
            "Spanner k",
            "Max degree",
            "<= d",
            format!("{} -> {}", g.max_degree(), h.max_degree()),
            h.max_degree() <= g.max_degree(),
        );
        let t0 = tc::count_triangles(&g);
        let t1 = tc::count_triangles(h);
        check(
            &mut checks,
            "Spanner k",
            "#Triangles",
            "O(n^{1+2/k}): strong drop",
            format!("{t0} -> {t1}"),
            t1 < t0 / 2,
        );
    }

    // ---------------- remove k deg-1 vertices row --------------------------
    {
        // k = 1 preferential attachment yields a tree-like graph with many
        // degree-1 leaves — the kernel's target population.
        let g = generators::planted_triangles(
            &generators::barabasi_albert(2000, 1, seed ^ 6),
            200,
            seed ^ 7,
        );
        let r = remove_low_degree(&g, seed);
        let h = &r.graph;
        let k = g.num_vertices() - h.num_vertices();
        check(
            &mut checks,
            "remove deg<=1",
            "|V|,|E|",
            "n-k, m-k' (k'<=k)",
            format!("k={k}, m {} -> {}", g.num_edges(), h.num_edges()),
            h.num_edges() + k >= g.num_edges(),
        );
        check(
            &mut checks,
            "remove deg<=1",
            "Max degree",
            "<= d",
            format!("{} -> {}", g.max_degree(), h.max_degree()),
            h.max_degree() <= g.max_degree(),
        );
        let t0 = tc::count_triangles(&g);
        let t1 = tc::count_triangles(h);
        check(&mut checks, "remove deg<=1", "#Triangles", "= T", format!("{t0} -> {t1}"), t0 == t1);
        let dd0 = diameter::diameter_double_sweep(&g, 0);
        let dd1 = diameter::diameter_double_sweep(h, 0);
        check(
            &mut checks,
            "remove deg<=1",
            "Diameter",
            ">= D - 2",
            format!("{dd0} -> {dd1}"),
            dd1 + 2 >= dd0.saturating_sub(2),
        );
    }

    // ---------------- Lossy eps-summary row --------------------------------
    {
        let g = generators::watts_strogatz(1200, 5, 0.05, seed ^ 7);
        let eps = 0.1;
        let s = summarize(&g, SummarizationConfig { epsilon: eps, seed, ..Default::default() });
        let err = s.reconstruction_error(&g) as f64;
        let bound = 2.0 * eps * g.num_edges() as f64;
        check(
            &mut checks,
            "eps-summary",
            "|E|",
            "m +/- 2 eps m",
            format!("sym.diff {err} vs bound {bound:.0}"),
            err <= bound + 1e-9,
        );
    }

    // ---------------- Render -------------------------------------------------
    if json_requested() {
        let records: Vec<BenchRecord> = checks
            .iter()
            .map(|c| BenchRecord {
                workload: "tab3-suite".into(),
                label: format!("{} / {}", c.scheme, c.property),
                params: vec![
                    ("bound".into(), c.bound.clone()),
                    ("measured".into(), c.measured.clone()),
                    ("verdict".into(), if c.holds { "OK".into() } else { "VIOLATED".into() }),
                ],
                ratio: None,
                timings_ms: Vec::new(),
            })
            .collect();
        println!("{}", render_json(&records));
        let violations = checks.iter().filter(|c| !c.holds).count();
        if violations > 0 {
            std::process::exit(1);
        }
        return;
    }
    println!("== Table 3: bound validation ==\n");
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.scheme.to_string(),
                c.property.to_string(),
                c.bound.clone(),
                c.measured.clone(),
                if c.holds { "OK".into() } else { "VIOLATED".into() },
            ]
        })
        .collect();
    println!("{}", render_table(&["scheme", "property", "bound", "measured", "verdict"], &rows));
    let violations = checks.iter().filter(|c| !c.holds).count();
    println!("{} checks, {} violations", checks.len(), violations);
    if violations > 0 {
        std::process::exit(1);
    }
}

/// Weighted max degree of the sparsifier should be within 2x of the
/// original degree at the original max-degree vertex.
fn weighted_degree_ok(g: &CsrGraph, h: &CsrGraph) -> bool {
    let v = sg_metrics::max_degree_vertex(g);
    let orig = g.degree(v) as f64;
    let weighted: f64 = h.neighbor_edge_ids(v).iter().map(|&e| h.edge_weight(e) as f64).sum();
    weighted >= orig / 2.5 && weighted <= orig * 2.5
}
