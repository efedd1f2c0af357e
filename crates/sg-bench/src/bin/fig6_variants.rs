//! E2 — Figure 6: compression-ratio analysis of scheme *variants*.
//!
//! Left panel: spectral sparsification with Υ proportional to the average
//! degree vs to log(n), across a suite of graphs of different classes.
//! Right panel: plain vs CT vs EO Triangle 0.5-1-Reduction.
//!
//! Run: `cargo run --release -p sg-bench --bin fig6_variants`

use sg_bench::{f3, json_requested, render_json, render_table, BenchRecord};
use sg_core::schemes::{spectral_sparsify, triangle_reduce, TrConfig, UpsilonVariant};
use sg_graph::generators::presets;

fn main() {
    let json = json_requested();
    let seed = 0xF16;
    let mut records = Vec::new();
    if !json {
        println!("== Figure 6 (left): spectral sparsification variants, p = 0.5 ==\n");
    }
    let graphs = [
        "h-dbp",
        "h-dit",
        "h-hud",
        "l-cit",
        "m-twt",
        "s-frs",
        "s-lib",
        "s-ljn-sub",
        "s-ork-sub",
        "v-skt",
    ];
    let mut rows = Vec::new();
    for name in graphs {
        // Two suite entries are aliases at our scale.
        let g = match name {
            "s-ljn-sub" => presets::s_you_like(),
            "s-ork-sub" => presets::s_pok_like(),
            other => presets::by_name(other).expect("preset exists"),
        };
        let avg = spectral_sparsify(&g, 0.5, UpsilonVariant::AvgDegree, false, seed);
        let logn = spectral_sparsify(&g, 0.5, UpsilonVariant::LogN, false, seed);
        for (label, r) in [("spectral-avgdeg (p=0.5)", &avg), ("spectral-logn (p=0.5)", &logn)] {
            records.push(BenchRecord {
                workload: name.to_string(),
                label: label.to_string(),
                params: vec![("seed".into(), seed.to_string())],
                ratio: Some(r.compression_ratio()),
                timings_ms: Vec::new(),
            });
        }
        rows.push(vec![name.to_string(), f3(avg.edge_reduction()), f3(logn.edge_reduction())]);
    }
    if !json {
        println!("{}", render_table(&["graph", "spectral-avgdeg", "spectral-logn"], &rows));
        println!("\n== Figure 6 (right): Triangle Reduction variants, p = 0.5 ==\n");
    }
    let tr_graphs = ["s-you", "s-pok", "s-flc", "h-hud", "v-ewk"];
    let mut rows = Vec::new();
    for name in tr_graphs {
        let g = presets::by_name(name).expect("preset exists");
        let plain = triangle_reduce(&g, TrConfig::plain_1(0.5), seed);
        let ct = triangle_reduce(&g, TrConfig::count_triangles(0.5), seed);
        let eo = triangle_reduce(&g, TrConfig::edge_once_1(0.5), seed);
        for (label, r) in [("0.5-1-TR", &plain), ("CT-0.5-1-TR", &ct), ("EO-0.5-1-TR", &eo)] {
            records.push(BenchRecord {
                workload: name.to_string(),
                label: label.to_string(),
                params: vec![("seed".into(), seed.to_string())],
                ratio: Some(r.compression_ratio()),
                timings_ms: Vec::new(),
            });
        }
        rows.push(vec![
            name.to_string(),
            f3(plain.edge_reduction()),
            f3(ct.edge_reduction()),
            f3(eo.edge_reduction()),
        ]);
    }
    if json {
        println!("{}", render_json(&records));
        return;
    }
    println!("{}", render_table(&["graph", "0.5-1-TR", "CT-0.5-1-TR", "EO-0.5-1-TR"], &rows));
    println!("(edge reduction = fraction of edges removed; Fig. 6's y-axis)");
    println!("note: EO here is the protective edge-disjoint variant that realizes the");
    println!("paper's §6.1 guarantees; it trades some reduction for them (see the module docs");
    println!("of sg-core's schemes/triangle_reduction.rs)");
}
