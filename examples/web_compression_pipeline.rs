//! Distributed compression of a web-scale crawl (simulated).
//!
//! Mirrors the paper's §7.3 pipeline: a hyperlink-like graph is partitioned
//! across ranks, each rank executes the uniform-sampling edge kernel over
//! its shard, and the root gathers the decisions and materializes the
//! compressed graph. The binary also shows the storage effect by serializing
//! both graphs with sg-graph's binary format.
//!
//! Run: `cargo run --release -p slimgraph --example web_compression_pipeline`

use sg_core::{SchemeParams, SchemeRegistry};
use sg_dist::distributed_compress;
use sg_graph::properties::DegreeDistribution;
use sg_graph::{generators, io};

fn main() {
    // A skewed hyperlink-like crawl (scale down of h-wdc).
    let crawl = generators::rmat_graph500(15, 12, 77);
    println!("crawl: n = {}, m = {}", crawl.num_vertices(), crawl.num_edges());

    let ranks = 8;
    let registry = SchemeRegistry::with_defaults();
    for p in ["0.4", "0.7"] {
        let uniform =
            registry.create("uniform", &SchemeParams::from_pairs(&[("p", p)])).expect("registered");
        let dist = distributed_compress(&crawl, uniform.as_ref(), ranks, 5)
            .expect("uniform has an edge plan");
        println!("\n== distributed sampling p = {p} over {ranks} ranks ==");
        for r in &dist.ranks {
            println!(
                "  rank {:>2}: owned {:>7} edges, kept {:>7}",
                r.rank, r.owned_edges, r.kept_edges
            );
        }
        let orig_support = DegreeDistribution::of(&crawl).support_size();
        println!(
            "  degree-distribution support: {} -> {} distinct degrees (clutter removed)",
            orig_support,
            dist.degree_histogram().len()
        );
        let before = io::to_binary(&crawl).len();
        let after = io::to_binary(&dist.result.graph).len();
        println!(
            "  serialized size: {:.1} MiB -> {:.1} MiB ({:.0}% saved)",
            before as f64 / (1 << 20) as f64,
            after as f64 / (1 << 20) as f64,
            (1.0 - after as f64 / before as f64) * 100.0
        );
    }
    println!("\n(the paper's distributed runs reduced Web Data Commons 2012 by 30-70%)");
}
