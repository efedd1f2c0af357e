//! E13 — §7.1: TR on weighted graphs — MST and SSSP behaviour.
//!
//! Expected shape (paper): on very sparse road networks TR's compression
//! ratio and speedups are low (few triangles); MST runtime is mostly
//! n-bound and barely changes; SSSP speedups track BFS-style gains on
//! triangle-rich graphs; the max-weight TR variant preserves MST weight
//! exactly.
//!
//! Run: `cargo run --release -p sg-bench --bin weighted_tr`

use sg_algos::{mst, sssp};
use sg_bench::{f3, json_requested, median_time, render_json, render_table, BenchRecord};
use sg_core::schemes::{triangle_reduce, TrConfig};
use sg_graph::generators::{self, presets};

fn main() {
    let seed = 0xE13;
    let workloads = vec![
        ("v-usa (road)", presets::v_usa_like()),
        (
            "v-ewk (weighted)",
            generators::with_random_weights(&presets::v_ewk_like(), 1.0, 100.0, seed),
        ),
    ];
    let json = json_requested();
    if !json {
        println!("== Triangle Reduction on weighted graphs ==\n");
    }
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (name, g) in workloads {
        for p in [0.5, 0.9] {
            let r = triangle_reduce(&g, TrConfig::max_weight(p), seed);
            let w0 = mst::minimum_spanning_forest(&g).total_weight;
            let w1 = mst::minimum_spanning_forest(&r.graph).total_weight;
            let t_mst0 = median_time(3, || {
                mst::minimum_spanning_forest(&g);
            });
            let t_mst1 = median_time(3, || {
                mst::minimum_spanning_forest(&r.graph);
            });
            let root = sg_metrics::max_degree_vertex(&g);
            let t_sssp0 = median_time(3, || {
                sssp::delta_stepping_auto(&g, root);
            });
            let t_sssp1 = median_time(3, || {
                sssp::delta_stepping_auto(&r.graph, root);
            });
            records.push(BenchRecord {
                workload: name.to_string(),
                label: format!("maxw-{p}-1-TR"),
                params: vec![
                    ("seed".into(), seed.to_string()),
                    ("mst_weight_err".into(), format!("{:.6}", (w1 - w0).abs() / w0.max(1.0))),
                ],
                ratio: Some(r.compression_ratio()),
                timings_ms: vec![
                    ("mst_before".into(), t_mst0.as_secs_f64() * 1e3),
                    ("mst_after".into(), t_mst1.as_secs_f64() * 1e3),
                    ("sssp_before".into(), t_sssp0.as_secs_f64() * 1e3),
                    ("sssp_after".into(), t_sssp1.as_secs_f64() * 1e3),
                ],
            });
            rows.push(vec![
                name.to_string(),
                format!("maxw-{p}-1-TR"),
                f3(r.compression_ratio()),
                format!("{:.4}", (w1 - w0).abs() / w0.max(1.0)),
                f3(sg_bench::relative_runtime_diff(t_mst0, t_mst1)),
                f3(sg_bench::relative_runtime_diff(t_sssp0, t_sssp1)),
            ]);
        }
        eprintln!("done: {name}");
    }
    if json {
        println!("{}", render_json(&records));
        return;
    }
    println!(
        "{}",
        render_table(
            &["graph", "scheme", "m'/m", "MST weight err", "MST speedup", "SSSP speedup"],
            &rows
        )
    );
    println!("(road networks barely compress under TR; MST weight error must be ~0)");
}
