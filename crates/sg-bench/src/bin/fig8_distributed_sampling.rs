//! E6 — Figure 8: distributed uniform sampling of the largest graphs.
//!
//! The paper compresses the five largest public graphs with the distributed
//! edge-kernel pipeline (p ∈ {0.4, 0.7}) and inspects degree distributions:
//! sampling "removes the clutter" (shrinks the number of distinct degrees)
//! while preserving the distribution's overall shape. Here the five graphs
//! are large R-MAT analogs and ranks are simulated threads with the same
//! rank counts ratioed down (see sg-dist).
//!
//! Run: `cargo run --release -p sg-bench --bin fig8_distributed_sampling`

use sg_bench::{json_requested, render_json, render_table, scheme, BenchRecord};
use sg_core::SchemeRegistry;
use sg_dist::distributed_compress;
use sg_graph::generators;
use sg_graph::properties::DegreeDistribution;

fn main() {
    let seed = 0xF18;
    // (name, scale, edge_factor, ranks) — mirrors h-wdc … h-dgh ordering.
    let specs = [
        ("h-wdc-like", 16u32, 16usize, 10usize),
        ("h-deu-like", 16, 12, 8),
        ("h-duk-like", 15, 16, 6),
        ("h-clu-like", 15, 12, 5),
        ("h-dgh-like", 15, 8, 4),
    ];
    let registry = SchemeRegistry::with_defaults();
    let json = json_requested();
    if !json {
        println!("== Figure 8: distributed uniform sampling (simulated ranks) ==\n");
    }
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (name, scale, ef, ranks) in specs {
        let g = generators::rmat_graph500(scale, ef, seed ^ scale as u64);
        let orig = DegreeDistribution::of(&g);
        let mut row = vec![
            name.to_string(),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            format!("{ranks}"),
            format!("{}", orig.support_size()),
        ];
        for p in [0.4, 0.7] {
            let uniform = scheme(&registry, "uniform", &[("p", &p.to_string())]);
            let dist = distributed_compress(&g, uniform.as_ref(), ranks, seed)
                .expect("uniform has an edge plan");
            let hist_support = dist.degree_histogram().len();
            row.push(format!("{hist_support}"));
            records.push(BenchRecord {
                workload: name.to_string(),
                label: format!("distributed-uniform (p={p})"),
                params: vec![
                    ("seed".into(), seed.to_string()),
                    ("ranks".into(), ranks.to_string()),
                    ("support_before".into(), orig.support_size().to_string()),
                    ("support_after".into(), hist_support.to_string()),
                ],
                ratio: None,
                timings_ms: Vec::new(),
            });
            // Sanity: per-rank ownership balanced.
            let max_owned = dist.ranks.iter().map(|r| r.owned_edges).max().unwrap_or(0);
            let min_owned = dist.ranks.iter().map(|r| r.owned_edges).min().unwrap_or(0);
            assert!(max_owned - min_owned <= 1, "imbalanced shards");
        }
        rows.push(row);
        eprintln!("done: {name}");
    }
    if json {
        println!("{}", render_json(&records));
        return;
    }
    println!(
        "{}",
        render_table(
            &["graph", "n", "m", "ranks", "#degrees", "#degrees p=0.4", "#degrees p=0.7"],
            &rows
        )
    );
    println!("(#degrees = distinct degree values; sampling removes scatter -> fewer)");
}
