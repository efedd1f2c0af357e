//! The registry: one function per table or figure of the paper's
//! evaluation, each computing rows and nothing else.
//!
//! A function takes every graph it uses by name from a [`GraphSource`]:
//! the `reproduce` binary passes [`paper_graph`], the transcript test
//! passes small graphs of the same families under the same names. Seeds,
//! scheme parameters and the order of rows and columns are part of each
//! table, so the same source gives the same deterministic cells at any
//! `SG_THREADS`.

use crate::{
    f3, median_time, relative_runtime_diff, run_algorithm, scheme, Table, FIG5_ALGORITHMS, VIOLATED,
};
use sg_algos::pagerank::pagerank_default;
use sg_algos::{bc, cc, coloring, diameter, matching, mis, mst, sssp, tc};
use sg_core::ldd::low_diameter_decomposition;
use sg_core::scheme::{LowDegree, Spanner, Spectral, TriangleReduction, Uniform};
use sg_core::schemes::{summarize, SummarizationConfig, TrConfig, UpsilonVariant};
use sg_core::{CompressionScheme, SchemeRegistry};
use sg_graph::generators::{self, presets};
use sg_graph::properties::DegreeDistribution;
use sg_graph::CsrGraph;

/// Where a table gets its graphs: a name in, a graph out.
pub type GraphSource = dyn Fn(&str) -> CsrGraph;

/// A registry function.
pub type Producer = fn(&GraphSource) -> Vec<Table>;

/// Every table by id (`reproduce --table <id>`), in the order `reproduce`
/// prints them.
pub const TABLES: [(&str, Producer); 15] = [
    ("tab2", tab2),
    ("tab3", tab3),
    ("tab5", tab5),
    ("tab6", tab6),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("weighted-tr", weighted_tr),
    ("bfs-critical", bfs_critical),
    ("reordered-pairs", reordered_pairs),
    ("cc-disconnection", cc_disconnection),
    ("lowrank", lowrank),
    ("timing", timing),
    ("tune", tune),
];

/// The registry function for `id`.
pub fn producer(id: &str) -> Option<Producer> {
    TABLES.iter().find(|(name, _)| *name == id).map(|&(_, f)| f)
}

/// The paper-scale graphs: every preset of [`presets::by_name`], plus the
/// graphs built for one table only.
pub fn paper_graph(name: &str) -> CsrGraph {
    if let Some(g) = presets::by_name(name) {
        return g;
    }
    use generators::{barabasi_albert, erdos_renyi, planted_triangles, rmat_graph500};
    // Table 3 derives each graph's seed from its own seed.
    let s3: u64 = 0x7AB3;
    let er = |seed: u64| planted_triangles(&erdos_renyi(1500, 4500, seed), 3000, seed ^ 1);
    // Figure 8: the five largest graphs as R-MAT analogs.
    let fig8 = |scale: u32, ef: usize| rmat_graph500(scale, ef, 0xF18 ^ scale as u64);
    match name {
        "planted-rmat13" => planted_triangles(&rmat_graph500(13, 10, 0x7AB2), 20_000, 0x7AB2),
        "tab3-eo-tr" => er(s3),
        "tab3-uniform" => er(s3 ^ 3),
        "tab3-spectral" => barabasi_albert(3000, 6, s3 ^ 4),
        "tab3-spanner" => rmat_graph500(12, 10, s3 ^ 5),
        // k = 1 preferential attachment is tree-like, with many degree-1
        // leaves: the population the kernel removes.
        "tab3-lowdeg" => planted_triangles(&barabasi_albert(2000, 1, s3 ^ 6), 200, s3 ^ 7),
        "tab3-summary" => generators::watts_strogatz(1200, 5, 0.05, s3 ^ 7),
        "h-wdc-like" => fig8(16, 16),
        "h-deu-like" => fig8(16, 12),
        "h-duk-like" => fig8(15, 16),
        "h-clu-like" => fig8(15, 12),
        "h-dgh-like" => fig8(15, 8),
        "ba-1200" => barabasi_albert(1200, 5, 0x10A),
        "ba-n5000-k4" => barabasi_albert(5000, 4, 0x70E),
        other => panic!("no paper graph named '{other}'"),
    }
}

/// Table 2: remaining edges against the paper's closed forms,
/// weighted/directed support, and storage.
fn tab2(graph: &GraphSource) -> Vec<Table> {
    let seed = 0x7AB2;
    let g = graph("planted-rmat13");
    let n = g.num_vertices() as f64;
    let m = g.num_edges() as f64;
    let t = tc::count_triangles(&g) as f64;
    let (p, k, eps) = (0.4, 8.0, 0.1);
    let registry = SchemeRegistry::with_defaults();
    let (p_s, k_s, eps_s) = (p.to_string(), k.to_string(), eps.to_string());
    let schemes: Vec<(Box<dyn CompressionScheme>, String)> = vec![
        (
            scheme(&registry, "spectral", &[("p", &p_s), ("reweight", "true")]),
            "prop. to max(log n, ...) * n".to_string(),
        ),
        (scheme(&registry, "uniform", &[("p", &p_s)]), format!("(1-p)m = {:.0}", (1.0 - p) * m)),
        (
            scheme(&registry, "tr", &[("p", &p_s)]),
            // §6.1: at least pT/(3d) edges deleted in expectation.
            format!("<= m - pT/(3d) = {:.0}", m - p * t / (3.0 * g.max_degree() as f64)),
        ),
        (
            scheme(&registry, "spanner", &[("k", &k_s)]),
            format!("O(n^(1+1/k) log k) ~ {:.0}", n.powf(1.0 + 1.0 / k)),
        ),
        (
            scheme(&registry, "summary", &[("epsilon", &eps_s)]),
            format!("m +/- 2 eps m = {:.0}±{:.0}", m, 2.0 * eps * m),
        ),
    ];
    let mut table = Table::new(
        "Table 2: remaining edges against the paper's closed forms",
        &["scheme", "#remaining edges (paper form)", "measured m'", "m'/m", "ms", "bytes"],
        &["ms"],
    );
    for (scheme, formula) in schemes {
        let r = scheme.apply(&g, seed);
        table.rows.push(vec![
            scheme.label(),
            formula,
            format!("{}", r.graph.num_edges()),
            format!("{:.3}", r.compression_ratio()),
            format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
            format!("{}", r.graph.storage_bytes()),
        ]);
    }
    // Storage accounting of the summary representation itself.
    let s = summarize(&g, SummarizationConfig { epsilon: eps, max_iterations: 6, seed });
    table.notes = vec![
        format!("workload: n = {n}, m = {m}, T = {t}"),
        format!(
            "summary representation: {} supervertices, {} superedges, {}+{} corrections, storage {} edge-units vs m = {}",
            s.num_supervertices(),
            s.superedges.len(),
            s.corrections_plus.len(),
            s.corrections_minus.len(),
            s.storage_cost(),
            g.num_edges()
        ),
        "weighted/directed support: spectral W; uniform W,D; TR W; spanner -; summary -".into(),
    ];
    vec![table]
}

/// Table 3: each (scheme × property) cell that admits a checkable bound,
/// measured before and after compression. Deterministic bounds must hold
/// exactly; expectation and w.h.p. bounds are checked with the slack the
/// bound column states.
fn tab3(graph: &GraphSource) -> Vec<Table> {
    let seed = 0x7AB3;
    let mut table = Table::new(
        "Table 3: bound validation",
        &["scheme", "property", "bound", "measured", "verdict"],
        &[],
    );
    let mut check = |scheme: &str, property: &str, bound: &str, measured: &str, holds: bool| {
        let verdict = if holds { "OK" } else { VIOLATED };
        table.rows.push([scheme, property, bound, measured, verdict].map(String::from).to_vec());
    };

    // EO p-1-Triangle Reduction.
    {
        let g = graph("tab3-eo-tr");
        let r = TriangleReduction { cfg: TrConfig::edge_once_1(1.0) }.apply(&g, seed);
        let h = &r.graph;
        let (n0, n1) = (g.num_vertices(), h.num_vertices());
        check("EO p-1-TR", "|V|", "n", &format!("{n0} -> {n1}"), n0 == n1);
        // Edge-disjoint reduction keeps every component.
        let c0 = cc::connected_components(&g).num_components;
        let c1 = cc::connected_components(h).num_components;
        check("EO p-1-TR", "#CC", "= C", &format!("{c0} -> {c1}"), c0 == c1);
        // Stretch <= 2 on every path from a fixed root.
        let d0 = sssp::dijkstra(&g, 0);
        let d1 = sssp::dijkstra(h, 0);
        let stretch_ok = d0
            .iter()
            .zip(&d1)
            .all(|(a, b)| !a.is_finite() || (b.is_finite() && *b <= 2.0 * *a + 1e-9));
        check("EO p-1-TR", "s-t path", "<= 2P", "all pairs from root", stretch_ok);
        // Double-sweep lower bounds on both sides.
        let dd0 = diameter::diameter_double_sweep(&g, 0);
        let dd1 = diameter::diameter_double_sweep(h, 0);
        let holds = dd1 as f64 <= 2.0 * dd0 as f64 + 2.0;
        check("EO p-1-TR", "Diameter", "<= 2D (+slack)", &format!("{dd0} -> {dd1}"), holds);
        let (x0, x1) = (g.max_degree(), h.max_degree());
        check("EO p-1-TR", "Max degree", ">= d/2", &format!("{x0} -> {x1}"), x1 * 2 >= x0);
        // An expectation bound: best-of greedy matchings as the estimate.
        let m0 = matching::best_greedy_matching(&g, 5, seed).size();
        let m1 = matching::best_greedy_matching(h, 5, seed).size();
        check(
            "EO p-1-TR",
            "Matching",
            ">= (2/3) MC (expect., slack 0.6)",
            &format!("{m0} -> {m1}"),
            m1 as f64 >= 0.6 * m0 as f64,
        );
        // An expectation bound; greedy coloring as the proxy.
        let col0 = coloring::greedy_coloring(&g).num_colors;
        let col1 = coloring::greedy_coloring(h).num_colors;
        check(
            "EO p-1-TR",
            "Coloring",
            ">= CG/3 (proxy)",
            &format!("{col0} -> {col1}"),
            col1 as f64 >= col0 as f64 / 3.0 - 1.0,
        );
        // The bound is (1 - p/d)T; this checks the weaker "T decreases".
        let t0 = tc::count_triangles(&g);
        let t1 = tc::count_triangles(h);
        check("EO p-1-TR", "#Triangles", "<= T", &format!("{t0} -> {t1}"), t1 <= t0);
        // The max-weight choice keeps the MST weight.
        let gw = generators::with_random_weights(&g, 1.0, 100.0, seed ^ 2);
        let w0 = mst::minimum_spanning_forest(&gw).total_weight;
        let rw = TriangleReduction { cfg: TrConfig::max_weight(1.0) }.apply(&gw, seed);
        let w1 = mst::minimum_spanning_forest(&rw.graph).total_weight;
        check(
            "EO p-1-TR (maxw)",
            "MST weight",
            "= W exactly",
            &format!("{w0:.1} -> {w1:.1}"),
            (w0 - w1).abs() < 1e-3,
        );
    }

    // Simple p-sampling.
    {
        let g = graph("tab3-uniform");
        let p = 0.3;
        let r = Uniform { p }.apply(&g, seed);
        let h = &r.graph;
        let (e0, e1) = (g.num_edges() as f64, h.num_edges() as f64);
        check(
            "Uniform p",
            "|E|",
            "(1-p)m ±3%",
            &format!("{e0} -> {e1}"),
            (e1 - (1.0 - p) * e0).abs() < 0.03 * e0,
        );
        let d0 = g.average_degree();
        let d1 = h.average_degree();
        check(
            "Uniform p",
            "Avg degree",
            "(1-p)d ±5%",
            &format!("{d0:.2} -> {d1:.2}"),
            (d1 - (1.0 - p) * d0).abs() < 0.05 * d0,
        );
        let t0 = tc::count_triangles(&g) as f64;
        let t1 = tc::count_triangles(h) as f64;
        check(
            "Uniform p",
            "#Triangles",
            "(1-p)^3 T ±15%",
            &format!("{t0} -> {t1}"),
            (t1 - (1.0f64 - p).powi(3) * t0).abs() < 0.15 * t0.max(1.0),
        );
        let c0 = cc::connected_components(&g).num_components;
        let c1 = cc::connected_components(h).num_components;
        check(
            "Uniform p",
            "#CC",
            "<= C + pm",
            &format!("{c0} -> {c1}"),
            c1 as f64 <= c0 as f64 + p * e0,
        );
        // Greedy proxy: 5% noise allowed.
        let is0 = mis::best_greedy_mis(&g, 3, seed).len();
        let is1 = mis::best_greedy_mis(h, 3, seed).len();
        check(
            "Uniform p",
            "Max indep. set",
            "non-decreasing (proxy)",
            &format!("{is0} -> {is1}"),
            is1 + is0 / 20 >= is0,
        );
        let m0 = matching::best_greedy_matching(&g, 3, seed).size();
        let m1 = matching::best_greedy_matching(h, 3, seed).size();
        check(
            "Uniform p",
            "Matching",
            ">= (1-p)MC (slack 5%)",
            &format!("{m0} -> {m1}"),
            m1 as f64 >= (1.0 - p) * m0 as f64 * 0.95,
        );
    }

    // Spectral sparsifier.
    {
        let g = graph("tab3-spectral");
        let r = Spectral { p: 0.6, variant: UpsilonVariant::LogN, reweight: true }.apply(&g, seed);
        let h = &r.graph;
        let c0 = cc::connected_components(&g).num_components;
        let c1 = cc::connected_components(h).num_components;
        check("Spectral", "#CC", "= C w.h.p. (slack +2)", &format!("{c0} -> {c1}"), c1 <= c0 + 2);
        // The weighted degree of the original max-degree vertex stays
        // within 2.5x: each kept edge weighs 1/p_e, unbiased per vertex.
        let v = sg_metrics::max_degree_vertex(&g);
        let orig = g.degree(v) as f64;
        let weighted: f64 = h.neighbor_edge_ids(v).iter().map(|&e| h.edge_weight(e) as f64).sum();
        check(
            "Spectral",
            "Max degree",
            ">= d/2(1+eps) [weighted]",
            &format!("{} -> {}", g.max_degree(), h.max_degree()),
            weighted >= orig / 2.5 && weighted <= orig * 2.5,
        );
        let (e0, e1) = (g.num_edges(), h.num_edges());
        check("Spectral", "|E|", "O~(n/eps^2): sub-linear vs m", &format!("{e0} -> {e1}"), e1 < e0);
    }

    // O(k)-spanner.
    {
        let g = graph("tab3-spanner");
        let k = 8.0;
        let r = Spanner { k }.apply(&g, seed);
        let h = &r.graph;
        let c0 = cc::connected_components(&g).num_components;
        let c1 = cc::connected_components(h).num_components;
        check("Spanner k", "#CC", "= C", &format!("{c0} -> {c1}"), c0 == c1);
        let hub = sg_metrics::max_degree_vertex(&g);
        let d0 = sssp::dijkstra(&g, hub);
        let d1 = sssp::dijkstra(h, hub);
        let bound = 2.0 * k * (g.num_vertices() as f64).ln();
        let stretch_ok = d0
            .iter()
            .zip(&d1)
            .all(|(a, b)| !a.is_finite() || (b.is_finite() && *b <= bound * a.max(1.0)));
        check("Spanner k", "s-t path", "O(k log n) stretch", "all pairs from hub", stretch_ok);
        let (x0, x1) = (g.max_degree(), h.max_degree());
        check("Spanner k", "Max degree", "<= d", &format!("{x0} -> {x1}"), x1 <= x0);
        let t0 = tc::count_triangles(&g);
        let t1 = tc::count_triangles(h);
        check(
            "Spanner k",
            "#Triangles",
            "O(n^{1+2/k}): strong drop",
            &format!("{t0} -> {t1}"),
            t1 < t0 / 2,
        );
    }

    // Removing k vertices of degree <= 1.
    {
        let g = graph("tab3-lowdeg");
        let r = LowDegree.apply(&g, seed);
        let h = &r.graph;
        let k = g.num_vertices() - h.num_vertices();
        check(
            "remove deg<=1",
            "|V|,|E|",
            "n-k, m-k' (k'<=k)",
            &format!("k={k}, m {} -> {}", g.num_edges(), h.num_edges()),
            h.num_edges() + k >= g.num_edges(),
        );
        let (x0, x1) = (g.max_degree(), h.max_degree());
        check("remove deg<=1", "Max degree", "<= d", &format!("{x0} -> {x1}"), x1 <= x0);
        let t0 = tc::count_triangles(&g);
        let t1 = tc::count_triangles(h);
        check("remove deg<=1", "#Triangles", "= T", &format!("{t0} -> {t1}"), t0 == t1);
        let dd0 = diameter::diameter_double_sweep(&g, 0);
        let dd1 = diameter::diameter_double_sweep(h, 0);
        check("remove deg<=1", "Diameter", ">= D - 2", &format!("{dd0} -> {dd1}"), dd1 + 2 >= dd0);
    }

    // Lossy eps-summary.
    {
        let g = graph("tab3-summary");
        let eps = 0.1;
        let s = summarize(&g, SummarizationConfig { epsilon: eps, seed, ..Default::default() });
        let err = s.reconstruction_error(&g) as f64;
        let bound = 2.0 * eps * g.num_edges() as f64;
        check(
            "eps-summary",
            "|E|",
            "m +/- 2 eps m",
            &format!("sym.diff {err} vs bound {bound:.0}"),
            err <= bound + 1e-9,
        );
    }

    let summary = format!("{} checks, {} violations", table.rows.len(), table.violations());
    table.notes.push(summary);
    vec![table]
}

/// Table 5: KL divergence between the PageRank distributions of the
/// original and the compressed graph.
fn tab5(graph: &GraphSource) -> Vec<Table> {
    let seed = 0x7AB5;
    let registry = SchemeRegistry::with_defaults();
    let schemes = [
        ("EO-0.8-1-TR", scheme(&registry, "tr-eo", &[("p", "0.8")])),
        ("EO-1.0-1-TR", scheme(&registry, "tr-eo", &[("p", "1.0")])),
        ("Unif(0.2)", scheme(&registry, "uniform", &[("p", "0.2")])),
        ("Unif(0.5)", scheme(&registry, "uniform", &[("p", "0.5")])),
        ("Span(k=2)", scheme(&registry, "spanner", &[("k", "2")])),
        ("Span(k=16)", scheme(&registry, "spanner", &[("k", "16")])),
        ("Span(k=128)", scheme(&registry, "spanner", &[("k", "128")])),
    ];
    let mut columns = vec!["graph"];
    columns.extend(schemes.iter().map(|&(name, _)| name));
    let mut table = Table::new("Table 5: KL divergence of PageRank distributions", &columns, &[]);
    for name in ["s-you", "h-hud", "l-dbl", "v-skt", "v-usa"] {
        let g = graph(name);
        let base = pagerank_default(&g).scores;
        let mut row = vec![name.to_string()];
        for (_, scheme) in &schemes {
            let compressed = pagerank_default(&scheme.apply(&g, seed).graph).scores;
            row.push(format!("{:.4}", sg_metrics::kl_divergence(&base, &compressed)));
        }
        table.rows.push(row);
    }
    table.notes.push("(lower = closer to the original PageRank distribution)".into());
    vec![table]
}

/// Table 6: average triangles per vertex after compression.
fn tab6(graph: &GraphSource) -> Vec<Table> {
    let seed = 0x7AB6;
    let registry = SchemeRegistry::with_defaults();
    let schemes = [
        ("0.2-1-TR", scheme(&registry, "tr", &[("p", "0.2")])),
        ("0.9-1-TR", scheme(&registry, "tr", &[("p", "0.9")])),
        ("Unif(0.8)", scheme(&registry, "uniform", &[("p", "0.8")])),
        ("Unif(0.5)", scheme(&registry, "uniform", &[("p", "0.5")])),
        ("Unif(0.2)", scheme(&registry, "uniform", &[("p", "0.2")])),
        ("Span(k=2)", scheme(&registry, "spanner", &[("k", "2")])),
        ("Span(k=16)", scheme(&registry, "spanner", &[("k", "16")])),
        ("Span(k=128)", scheme(&registry, "spanner", &[("k", "128")])),
        ("Spec(0.5)", scheme(&registry, "spectral", &[("p", "0.5")])),
        ("Spec(0.05)", scheme(&registry, "spectral", &[("p", "0.05")])),
        ("Spec(0.005)", scheme(&registry, "spectral", &[("p", "0.005")])),
    ];
    let tpv = |g: &CsrGraph| tc::count_triangles(g) as f64 / g.num_vertices().max(1) as f64;
    let mut columns = vec!["graph", "Original"];
    columns.extend(schemes.iter().map(|&(name, _)| name));
    let mut table = Table::new("Table 6: average triangles per vertex", &columns, &[]);
    let graphs = [
        "s-you", "s-flx", "s-flc", "s-cds", "s-lib", "s-pok", "h-dbp", "h-hud", "l-cit", "l-dbl",
        "v-ewk", "v-skt",
    ];
    for name in graphs {
        let g = graph(name);
        let mut row = vec![name.to_string(), f3(tpv(&g))];
        row.extend(schemes.iter().map(|(_, scheme)| f3(tpv(&scheme.apply(&g, seed).graph))));
        table.rows.push(row);
    }
    vec![table]
}

/// Figure 5: for three graphs spanning the paper's triangles-per-vertex
/// regimes, each kernel class's parameter sweep — the compression ratio
/// (the figure's color scale) and the relative runtime difference of BFS,
/// CC, PR and TC over the compressed graph (its y-axis).
fn fig5(graph: &GraphSource) -> Vec<Table> {
    let seed = 0xF15;
    let registry = SchemeRegistry::with_defaults();
    let sweep = |name: &str, key: &str, values: &[f64]| -> Vec<Box<dyn CompressionScheme>> {
        values.iter().map(|v| scheme(&registry, name, &[(key, &v.to_string())])).collect()
    };
    let panels = [
        (
            "Edge kernels: spectral sparsification (p log(n) variant)",
            sweep("spectral", "p", &[0.005, 0.01, 0.05, 0.1, 0.5]),
        ),
        (
            "Edge kernels: random uniform sampling",
            sweep("uniform", "p", &[0.1, 0.3, 0.5, 0.7, 0.9]),
        ),
        ("Triangle kernels: Triangle p-1-Reduction", sweep("tr", "p", &[0.1, 0.3, 0.5, 0.7, 0.9])),
        ("Subgraph kernels: O(k)-spanners", sweep("spanner", "k", &[2.0, 8.0, 32.0, 128.0])),
        (
            "Subgraph kernels: lossy summarization (error bound eps)",
            sweep("summary", "epsilon", &[0.0, 0.1, 0.4, 0.7]),
        ),
    ];
    let graphs: Vec<(&str, CsrGraph)> =
        ["s-cds", "s-pok", "v-ewk"].into_iter().map(|name| (name, graph(name))).collect();
    let diffs = ["dBFS", "dCC", "dPR", "dTC"];
    let mut columns = vec!["graph", "scheme", "m'/m"];
    columns.extend(diffs);
    let mut tables = Vec::new();
    for (title, schemes) in panels {
        let mut table = Table::new(format!("Figure 5 panel: {title}"), &columns, &diffs);
        for (name, g) in &graphs {
            // Stage-2 runtimes on the original graph.
            let base: Vec<_> = FIG5_ALGORITHMS.iter().map(|a| run_algorithm(a, g)).collect();
            for scheme in &schemes {
                let r = scheme.apply(g, seed);
                let mut row = vec![name.to_string(), scheme.label(), f3(r.compression_ratio())];
                for (a, &t0) in FIG5_ALGORITHMS.iter().zip(&base) {
                    row.push(f3(relative_runtime_diff(t0, run_algorithm(a, &r.graph))));
                }
                table.rows.push(row);
            }
        }
        table.notes.push(
            "(d<alg> = relative runtime difference vs the uncompressed graph; positive = faster)"
                .into(),
        );
        tables.push(table);
    }
    tables
}

/// Figure 6: compression ratios of scheme variants — spectral
/// sparsification with Υ proportional to the average degree or to log n
/// (left), and plain, CT and EO Triangle 0.5-1-Reduction (right).
fn fig6(graph: &GraphSource) -> Vec<Table> {
    let seed = 0xF16;
    let mut left = Table::new(
        "Figure 6 (left): spectral sparsification variants, p = 0.5",
        &["graph", "spectral-avgdeg", "spectral-logn"],
        &[],
    );
    // The last two suite entries are aliases at this scale.
    let graphs = [
        ("h-dbp", "h-dbp"),
        ("h-dit", "h-dit"),
        ("h-hud", "h-hud"),
        ("l-cit", "l-cit"),
        ("m-twt", "m-twt"),
        ("s-frs", "s-frs"),
        ("s-lib", "s-lib"),
        ("s-ljn-sub", "s-you"),
        ("s-ork-sub", "s-pok"),
        ("v-skt", "v-skt"),
    ];
    for (label, name) in graphs {
        let g = graph(name);
        let mut row = vec![label.to_string()];
        for variant in [UpsilonVariant::AvgDegree, UpsilonVariant::LogN] {
            let r = Spectral { p: 0.5, variant, reweight: false }.apply(&g, seed);
            row.push(f3(r.edge_reduction()));
        }
        left.rows.push(row);
    }
    let mut right = Table::new(
        "Figure 6 (right): Triangle Reduction variants, p = 0.5",
        &["graph", "0.5-1-TR", "CT-0.5-1-TR", "EO-0.5-1-TR"],
        &[],
    );
    for name in ["s-you", "s-pok", "s-flc", "h-hud", "v-ewk"] {
        let g = graph(name);
        let mut row = vec![name.to_string()];
        for cfg in
            [TrConfig::plain_1(0.5), TrConfig::count_triangles(0.5), TrConfig::edge_once_1(0.5)]
        {
            row.push(f3(TriangleReduction { cfg }.apply(&g, seed).edge_reduction()));
        }
        right.rows.push(row);
    }
    right.notes = vec![
        "(edge reduction = fraction of edges removed; Fig. 6's y-axis)".into(),
        "note: EO here is the protective edge-disjoint variant that realizes the".into(),
        "paper's §6.1 guarantees; it trades some reduction for them (see the module docs".into(),
        "of sg-core's schemes/triangle_reduction.rs)".into(),
    ];
    vec![left, right]
}

/// Figure 7: degree distributions before compression and under spanners
/// with k ∈ {2, 32}, with the raw series of one graph for re-plotting.
fn fig7(graph: &GraphSource) -> Vec<Table> {
    let seed = 0xF17;
    let ks = [2.0, 32.0];
    let mut table = Table::new(
        "Figure 7: spanner impact on degree distributions",
        &["graph", "variant", "m", "max_deg", "#degrees", "pl_exp", "pl_R2"],
        &[],
    );
    let describe = |table: &mut Table, name: &str, variant: &str, g: &CsrGraph| {
        let dist = DegreeDistribution::of(g);
        let fit = dist.power_law_fit();
        table.rows.push(vec![
            name.to_string(),
            variant.to_string(),
            g.num_edges().to_string(),
            g.max_degree().to_string(),
            dist.support_size().to_string(),
            fit.map_or("-".into(), |f| format!("{:.2}", f.exponent)),
            fit.map_or("-".into(), |f| format!("{:.3}", f.r2)),
        ]);
        fit.map(|f| f.r2)
    };
    let graphs = ["h-dit", "m-twt", "s-frs"];
    let mut raised = [0; 2];
    for name in graphs {
        let g = graph(name);
        let before = describe(&mut table, name, "original", &g);
        for (i, k) in ks.into_iter().enumerate() {
            let spanner = Spanner { k }.apply(&g, seed).graph;
            let after = describe(&mut table, name, &format!("spanner k={k}"), &spanner);
            raised[i] += usize::from(after > before);
        }
    }
    table.notes = vec![
        "(pl_R2 = R² of the log-log power-law fit; the paper reads a higher R² under spanners"
            .into(),
        " as a 'strengthened' power law)".into(),
        format!(
            "here: k = 2 raises pl_R2 on {} of {n} graphs, k = 32 on {} of {n}",
            raised[0],
            raised[1],
            n = graphs.len()
        ),
    ];
    let g = graph("m-twt");
    let mut series = Table::new(
        "Figure 7 series (m-twt): fraction of vertices per degree",
        &["degree", "fraction_original", "fraction_k2", "fraction_k32"],
        &[],
    );
    let orig = DegreeDistribution::of(&g);
    let dists: Vec<DegreeDistribution> =
        ks.iter().map(|&k| DegreeDistribution::of(&Spanner { k }.apply(&g, seed).graph)).collect();
    let lookup = |d: &DegreeDistribution, deg: usize| -> String {
        let f = d.fractions().iter().find(|&&(x, _)| x == deg).map_or(0.0, |&(_, f)| f);
        format!("{f:.6}")
    };
    for &(deg, _) in orig.entries.iter().take(40) {
        let mut row = vec![deg.to_string(), lookup(&orig, deg)];
        row.extend(dists.iter().map(|d| lookup(d, deg)));
        series.rows.push(row);
    }
    vec![table, series]
}

/// Figure 8: distributed uniform sampling of the five largest graphs
/// (p ∈ {0.4, 0.7}) with ranks simulated as threads: the number of
/// distinct degrees before and after.
fn fig8(graph: &GraphSource) -> Vec<Table> {
    let seed = 0xF18;
    let registry = SchemeRegistry::with_defaults();
    let mut table = Table::new(
        "Figure 8: distributed uniform sampling (simulated ranks)",
        &["graph", "n", "m", "ranks", "#degrees", "#degrees p=0.4", "#degrees p=0.7"],
        &[],
    );
    let graphs = [
        ("h-wdc-like", 10),
        ("h-deu-like", 8),
        ("h-duk-like", 6),
        ("h-clu-like", 5),
        ("h-dgh-like", 4),
    ];
    for (name, ranks) in graphs {
        let g = graph(name);
        let mut row = vec![
            name.to_string(),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            format!("{ranks}"),
            format!("{}", DegreeDistribution::of(&g).support_size()),
        ];
        for p in [0.4, 0.7] {
            let uniform = scheme(&registry, "uniform", &[("p", &p.to_string())]);
            let dist = sg_dist::distributed_compress(&g, uniform.as_ref(), ranks, seed)
                .expect("uniform has an edge plan");
            row.push(format!("{}", dist.degree_histogram().len()));
            let owned = dist.ranks.iter().map(|r| r.owned_edges);
            let spread = owned.clone().max().unwrap_or(0) - owned.min().unwrap_or(0);
            assert!(spread <= 1, "imbalanced shards");
        }
        table.rows.push(row);
    }
    table
        .notes
        .push("(#degrees = distinct degree values; paper: sampling removes the clutter)".into());
    vec![table]
}

/// §7.1: max-weight Triangle Reduction on weighted graphs — compression,
/// MST weight error, and the MST and SSSP speedups.
fn weighted_tr(graph: &GraphSource) -> Vec<Table> {
    let seed = 0xE13;
    let workloads = [
        ("v-usa (road)", graph("v-usa")),
        ("v-ewk (weighted)", generators::with_random_weights(&graph("v-ewk"), 1.0, 100.0, seed)),
    ];
    let mut table = Table::new(
        "§7.1: Triangle Reduction on weighted graphs",
        &["graph", "scheme", "m'/m", "MST weight err", "MST speedup", "SSSP speedup"],
        &["MST speedup", "SSSP speedup"],
    );
    for (name, g) in workloads {
        for p in [0.5, 0.9] {
            let r = TriangleReduction { cfg: TrConfig::max_weight(p) }.apply(&g, seed);
            let w0 = mst::minimum_spanning_forest(&g).total_weight;
            let w1 = mst::minimum_spanning_forest(&r.graph).total_weight;
            let mst_time = |h: &CsrGraph| {
                median_time(3, || {
                    mst::minimum_spanning_forest(h);
                })
            };
            let root = sg_metrics::max_degree_vertex(&g);
            let sssp_time = |h: &CsrGraph| {
                median_time(3, || {
                    sssp::delta_stepping_auto(h, root);
                })
            };
            let (t_mst0, t_mst1) = (mst_time(&g), mst_time(&r.graph));
            let (t_sssp0, t_sssp1) = (sssp_time(&g), sssp_time(&r.graph));
            table.rows.push(vec![
                name.to_string(),
                format!("maxw-{p}-1-TR"),
                f3(r.compression_ratio()),
                format!("{:.4}", (w1 - w0).abs() / w0.max(1.0)),
                f3(relative_runtime_diff(t_mst0, t_mst1)),
                f3(relative_runtime_diff(t_sssp0, t_sssp1)),
            ]);
        }
    }
    table.notes.push(
        "(paper: road networks barely compress under TR; max-weight TR keeps the MST weight)"
            .into(),
    );
    vec![table]
}

/// §7.2: BFS critical edges kept by O(k)-spanners, averaged over three
/// LDD seeds (single runs vary when an exponential shift lands on a
/// mega-hub) and three BFS roots per seed.
fn bfs_critical(graph: &GraphSource) -> Vec<Table> {
    let mut table = Table::new(
        "§7.2: BFS critical-edge preservation under O(k)-spanners",
        &["graph", "k", "edges removed", "critical edges kept", "root spread"],
        &[],
    );
    let seeds = [7u64, 99, 1234];
    for name in ["s-pok", "v-ewk"] {
        let g = graph(name);
        for k in [2.0, 8.0, 32.0, 128.0] {
            let mut removed = 0.0;
            let mut ratios = Vec::new();
            for &seed in &seeds {
                let r = Spanner { k }.apply(&g, seed);
                removed += r.edge_reduction();
                for i in 0..3u64 {
                    let root = sg_graph::prng::bounded_u64(seed, i, 3, g.num_vertices() as u64);
                    ratios.push(sg_metrics::critical_edge_preservation(&g, &r.graph, root as u32));
                }
            }
            let removed = removed / seeds.len() as f64;
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let spread = ratios.iter().fold(0.0f64, |a, b| a.max((b - mean).abs()));
            table.rows.push(vec![
                name.to_string(),
                format!("{k}"),
                format!("{:.0}%", removed * 100.0),
                format!("{:.0}%", mean * 100.0),
                format!("{spread:.2}"),
            ]);
        }
    }
    table.notes.push("(paper s-pok reference: 21/73/89/95% removed -> 96/75/57/27% kept)".into());
    vec![table]
}

/// §7.2: the reordered-pairs metric for triangle counts and betweenness,
/// between schemes that remove the same number of edges in expectation.
fn reordered_pairs(graph: &GraphSource) -> Vec<Table> {
    use sg_metrics::{reordered_neighbor_fraction, reordered_pair_fraction};
    let seed = 0x12E0;
    let mut table = Table::new(
        "§7.2: reordered pairs after equal-budget compression",
        &[
            "graph",
            "edges removed",
            "TC flips spec",
            "TC flips unif",
            "BC flips spec",
            "BC flips unif",
            "nbr TC spec",
            "nbr TC unif",
        ],
        &[],
    );
    let graphs = ["s-pok", "l-dbl"];
    let mut spectral_better = Vec::new();
    for name in graphs {
        let g = graph(name);
        // Spectral fixes the edge budget; uniform is matched to it.
        let spec =
            Spectral { p: 0.4, variant: UpsilonVariant::LogN, reweight: false }.apply(&g, seed);
        let budget = spec.edge_reduction();
        let (spec, unif) = (spec.graph, Uniform { p: budget }.apply(&g, seed ^ 1).graph);
        let tpv = |h: &CsrGraph| -> Vec<f64> {
            tc::triangles_per_vertex(h).iter().map(|&x| x as f64).collect()
        };
        // Sampled sources keep betweenness tractable.
        let bc = |h: &CsrGraph| bc::betweenness_sampled(h, 64, seed);
        let (tc0, bc0) = (tpv(&g), bc(&g));
        let (tc_spec, tc_unif) = (tpv(&spec), tpv(&unif));
        let tc_flips = [&tc_spec, &tc_unif].map(|after| reordered_pair_fraction(&tc0, after));
        if tc_flips[0] < tc_flips[1] {
            spectral_better.push(name);
        }
        table.rows.push(vec![
            name.to_string(),
            format!("{:.0}%", budget * 100.0),
            format!("{:.4}", tc_flips[0]),
            format!("{:.4}", tc_flips[1]),
            format!("{:.4}", reordered_pair_fraction(&bc0, &bc(&spec))),
            format!("{:.4}", reordered_pair_fraction(&bc0, &bc(&unif))),
            format!("{:.4}", reordered_neighbor_fraction(&g, &tc0, &tc_spec)),
            format!("{:.4}", reordered_neighbor_fraction(&g, &tc0, &tc_unif)),
        ]);
    }
    table.notes = vec![
        "(flip fractions: |PRE|/n^2 for full metric, per-edge for the neighbor variant;".into(),
        " paper: spectral keeps the TC ordering better than uniform sampling at equal budget)"
            .into(),
        format!(
            "here: spectral flips fewer TC pairs than uniform on {} of {} graphs ({})",
            spectral_better.len(),
            graphs.len(),
            spectral_better.join(", ")
        ),
    ];
    vec![table]
}

/// §7.2: components after compression, uniform sampling and
/// summarization matched to spectral sparsification's edge budget.
fn cc_disconnection(graph: &GraphSource) -> Vec<Table> {
    let seed = 0xCC14;
    let registry = SchemeRegistry::with_defaults();
    let mut table = Table::new(
        "§7.2: components after compression (schemes at comparable budgets)",
        &["graph", "scheme", "removed", "#CC before", "#CC after", "delta"],
        &[],
    );
    let components = |g: &CsrGraph| cc::connected_components(g).num_components;
    for name in ["s-pok", "s-you"] {
        let g = graph(name);
        let base_cc = components(&g);
        let spec = scheme(&registry, "spectral", &[("p", "0.4")]).apply(&g, seed);
        let budget = (spec.edge_reduction() * 1000.0).round() / 1000.0;
        let run = |s: Box<dyn CompressionScheme>| {
            let r = s.apply(&g, seed);
            (s.label(), components(&r.graph), r.edge_reduction())
        };
        let rows = [
            run(scheme(&registry, "uniform", &[("p", &budget.to_string())])),
            (
                format!("Spectral (matched, -{:.0}%)", budget * 100.0),
                components(&spec.graph),
                spec.edge_reduction(),
            ),
            run(scheme(&registry, "summary", &[("epsilon", &(budget / 2.0).to_string())])),
            run(scheme(&registry, "tr-eo", &[("p", "1.0")])),
            run(scheme(&registry, "spanner", &[("k", "8")])),
            run(scheme(&registry, "cut", &[("k", "2")])),
        ];
        for (label, comps, removed) in rows {
            table.rows.push(vec![
                name.to_string(),
                label,
                format!("{:.0}%", removed * 100.0),
                base_cc.to_string(),
                comps.to_string(),
                format!("{:+}", comps as i64 - base_cc as i64),
            ]);
        }
    }
    table.notes = vec![
        "(paper: spanners and EO-TR keep #CC; uniform sampling and spectral sparsification".into(),
        " disconnect, spectral far less; summarization acts like uniform sampling. The cut".into(),
        " sparsifier keeps every cut of value <= k, so #CC too)".into(),
    ];
    vec![table]
}

/// §7.4: low-rank approximation of the adjacency matrix, whole-graph and
/// per LDD cluster, against uniform sampling's loss.
fn lowrank(graph: &GraphSource) -> Vec<Table> {
    use sg_lowrank::{clustered_lowrank, lowrank_approximation};
    let seed = 0x10A;
    let g = graph("ba-1200");
    let mut whole = Table::new(
        "§7.4: low-rank approximation, whole-graph truncated decomposition",
        &["rank", "error rate", "false+", "false-", "storage vs CSR"],
        &[],
    );
    for rank in [4, 16, 64] {
        let r = lowrank_approximation(&g, rank, seed);
        whole.rows.push(vec![
            format!("{rank}"),
            format!("{:.2}", r.error_rate()),
            format!("{}", r.false_positives),
            format!("{}", r.false_negatives),
            format!("{:.2}x", r.storage_overhead()),
        ]);
    }
    let (n, m) = (g.num_vertices(), g.num_edges());
    whole.notes.push(format!("workload: BA graph, n = {n}, m = {m}"));
    let mut clustered = Table::new(
        "§7.4: low-rank approximation, clustered variant (LDD clusters)",
        &["rank", "#clusters", "error rate", "storage vs CSR"],
        &[],
    );
    let mapping = low_diameter_decomposition(&g, 0.2, seed);
    for rank in [4, 16] {
        let r = clustered_lowrank(&g, &mapping.clusters, rank, seed);
        clustered.rows.push(vec![
            format!("{rank}"),
            format!("{}", mapping.num_clusters()),
            format!("{:.2}", r.error_rate()),
            format!("{:.2}x", r.storage_overhead()),
        ]);
    }
    let u = Uniform { p: 0.5 }.apply(&g, seed);
    clustered.notes = vec![
        format!(
            "reference: uniform sampling p=0.5 -> edge 'error' = {:.2} of m, storage {:.2}x CSR",
            u.edge_reduction(),
            u.graph.storage_bytes() as f64 / g.storage_bytes() as f64
        ),
        "(paper: low-rank error rates far exceed the sampling loss at comparable storage)".into(),
    ];
    vec![whole, clustered]
}

/// §7.4: compression-routine timing, median of three runs.
///
/// The paper's order of the edge, subgraph and triangle schemes holds:
/// the spanner's decomposition is a breadth-first race in rounds over
/// flat vectors and its kernel runs on per-worker scratch
/// (`sg_core::ldd`, O(n + m)), so it costs about twice a sampling pass —
/// the paper's "> 20 % slower than the edge kernels" — and plain TR,
/// which probes each edge's rows from the shorter side
/// (Σₑ min(d(u), d(v)) row steps, `sg_algos::tc`), takes several times
/// the spanner's time. The ordered variants enumerate like plain TR and
/// commit only the sampled triangles sequentially; CT-TR first counts
/// every edge's triangles (a second enumeration, one atomic add per
/// triangle edge) and re-sorts the sampled list, so it is the slowest TR.
///
/// One departure from §7.4: summarization, which the paper reports more
/// than 200 % slower than TR ("iterations + complex design"), takes about
/// as long as TR here (`summary / tr` 0.6–1.2 on a 2-vCPU host at 1 and 4
/// threads). Its merge loop scores its minhash groups in parallel and
/// settles most candidates by their sizes, and the encoding is one sort of
/// the edges by supervertex pair instead of a hash map of per-pair sets.
fn timing(graph: &GraphSource) -> Vec<Table> {
    let seed = 0x71E;
    let g = graph("v-ewk");
    let registry = SchemeRegistry::with_defaults();
    let schemes = [
        scheme(&registry, "uniform", &[("p", "0.5")]),
        scheme(&registry, "spectral", &[("p", "0.5")]),
        scheme(&registry, "spanner", &[("k", "8")]),
        scheme(&registry, "tr", &[("p", "0.5")]),
        scheme(&registry, "tr-eo", &[("p", "0.5")]),
        scheme(&registry, "tr-ct", &[("p", "0.5")]),
        scheme(&registry, "summary", &[("epsilon", "0.1")]),
    ];
    let mut table = Table::new(
        "§7.4: compression-routine timing",
        &["scheme", "median ms", "vs sampling", "m'/m"],
        &["median ms", "vs sampling"],
    );
    let mut medians: Vec<(&str, f64)> = Vec::new();
    for scheme in &schemes {
        // Three runs at seeds seed, seed ^ 1 and seed ^ 2; m'/m is the
        // run at `seed`.
        let runs: Vec<_> = (0..3u64).map(|rep| scheme.apply(&g, seed ^ rep)).collect();
        let mut times: Vec<f64> = runs.iter().map(|r| r.elapsed.as_secs_f64() * 1e3).collect();
        times.sort_by(f64::total_cmp);
        let med = times[1];
        let base = medians.first().map_or(med, |&(_, ms)| ms);
        medians.push((scheme.name(), med));
        table.rows.push(vec![
            scheme.label(),
            format!("{med:.1}"),
            format!("{:.1}x", med / base),
            format!("{:.3}", runs[0].compression_ratio()),
        ]);
    }
    table.notes = vec![
        format!("workload: v-ewk-like, n = {}, m = {}", g.num_vertices(), g.num_edges()),
        "(paper: sampling <= spectral < spanner < TR; spanner >20% slower than the edge".into(),
        " kernels; summarization >200% slower than TR)".into(),
    ];
    let median = |name: &str| medians.iter().find(|(n, _)| *n == name).expect("scheme ran").1;
    let mut ratios =
        Table::new("§7.4: measured time ratios", &["ratio", "measured"], &["measured"]);
    for (a, b) in [
        ("spanner", "uniform"),
        ("tr", "spanner"),
        ("tr-eo", "tr"),
        ("tr-ct", "tr"),
        ("summary", "tr"),
    ] {
        ratios.rows.push(vec![format!("{a} / {b}"), format!("{:.2}", median(a) / median(b))]);
    }
    vec![table, ratios]
}

/// The cost and outcome of an `sg-tune` search for the smallest chain
/// whose PageRank KL stays within 0.1 bits.
fn tune(graph: &GraphSource) -> Vec<Table> {
    use sg_tune::{Target, TuneConfig};
    let workload = "ba-n5000-k4";
    let g = graph(workload);
    let registry = std::sync::Arc::new(SchemeRegistry::with_defaults());
    let target = Target::parse("pagerank-kl<=0.1").expect("valid target");
    let mut cfg = TuneConfig::new(g.num_edges() / 2, target, 0x70E);
    cfg.max_depth = 2;
    cfg.rounds = 1;
    // A tractable chain alphabet: one scheme per kernel class that
    // PageRank responds to.
    cfg.schemes = Some(vec!["uniform".into(), "spanner".into(), "lowdeg".into()]);
    let start = std::time::Instant::now();
    let outcome = sg_tune::tune(&g, &registry, &cfg).expect("search runs");
    let search_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut search = Table::new(
        "Auto-tuning search (sg-tune)",
        &["workload", "m", "target", "budget edges", "evaluated", "frontier points", "search ms"],
        &["search ms"],
    );
    search.rows.push(vec![
        workload.to_string(),
        g.num_edges().to_string(),
        target.render(),
        cfg.budget_edges.to_string(),
        outcome.evaluated.to_string(),
        outcome.frontier.len().to_string(),
        format!("{search_ms:.0}"),
    ]);
    search.notes.push(match &outcome.winner {
        Some(w) => format!(
            "winner: {} -> {} edges ({:.1}% kept), KL {:.5} bits, seed {}",
            w.rendered,
            w.edges,
            w.ratio * 100.0,
            w.metric,
            w.seed
        ),
        None => "winner: none (target infeasible within the budget)".into(),
    });
    let mut frontier =
        Table::new("Auto-tuning frontier", &["spec", "edges", "m'/m", "pagerank-kl"], &[]);
    for p in outcome.frontier.points() {
        frontier.rows.push(vec![
            p.rendered.clone(),
            p.edges.to_string(),
            format!("{:.3}", p.ratio),
            format!("{:.5}", p.metric),
        ]);
    }
    vec![search, frontier]
}
