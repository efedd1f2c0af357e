//! Quickstart: compress a graph, run an algorithm, measure the accuracy.
//!
//! This is the 60-second tour of the Slim Graph pipeline:
//!   1. build (or load) a graph,
//!   2. stage 1 — apply a compression scheme (its kernel runs on the engine),
//!   3. stage 2 — run a graph algorithm on the compressed graph,
//!   4. analytics — quantify the information loss with a Slim Graph metric.
//!
//! Run: `cargo run --release -p slimgraph --example quickstart`

use sg_algos::pagerank::pagerank_default;
use sg_core::scheme::Uniform;
use sg_core::{CompressionScheme, PipelineSpec, SchemeParams, SchemeRegistry};
use sg_graph::generators;
use sg_metrics::kl_divergence;

fn main() {
    // 1. A seeded social-network-like workload (use sg_graph::io to load
    //    your own edge lists instead).
    let graph = generators::barabasi_albert(10_000, 5, 42);
    println!("input: n = {}, m = {}", graph.num_vertices(), graph.num_edges());

    // 2. Stage 1 — lossy compression. Here: remove 30% of edges uniformly.
    //    A scheme is a value; `apply` runs its kernel on the engine.
    let compressed = Uniform { p: 0.3 }.apply(&graph, 7);
    println!(
        "uniform p=0.3: kept {} edges ({:.1}% of original) in {:.1} ms",
        compressed.graph.num_edges(),
        compressed.compression_ratio() * 100.0,
        compressed.elapsed.as_secs_f64() * 1e3
    );

    // 3. Stage 2 — run PageRank on both graphs.
    let pr_original = pagerank_default(&graph);
    let pr_compressed = pagerank_default(&compressed.graph);

    // 4. Analytics — KL divergence between the two rank distributions.
    let kl = kl_divergence(&pr_original.scores, &pr_compressed.scores);
    println!("KL(original || compressed) = {kl:.4} bits");

    // The SchemeRegistry resolves schemes by name, so harness code sweeps
    // them generically — try EO Triangle Reduction, which preserves
    // connected components:
    let registry = SchemeRegistry::with_defaults();
    let tr = registry
        .create("tr-eo", &SchemeParams::from_pairs(&[("p", "0.8")]))
        .expect("tr-eo is registered")
        .apply(&graph, 7);
    let pr_tr = pagerank_default(&tr.graph);
    println!(
        "EO-0.8-1-TR: kept {:.1}% of edges, KL = {:.4} bits",
        tr.compression_ratio() * 100.0,
        kl_divergence(&pr_original.scores, &pr_tr.scores)
    );

    // Schemes chain into pipelines — the paper's kernel-combining model.
    // Strip long cycles with a spanner, drop the exposed leaves, then trim
    // uniformly; each stage reports its own statistics.
    let pipeline = PipelineSpec::parse("spanner:k=8,lowdeg,uniform:p=0.2")
        .and_then(|spec| spec.build(&registry))
        .expect("pipeline spec builds");
    let out = pipeline.apply(&graph, 7);
    println!("\npipeline: {}", pipeline.label());
    for (i, stage) in out.stages.iter().enumerate() {
        println!(
            "  stage {}: {} m {} -> {}",
            i + 1,
            stage.label,
            stage.input_edges,
            stage.output_edges
        );
    }
    println!(
        "  total: kept {:.1}% of edges in {:.1} ms",
        out.result.compression_ratio() * 100.0,
        out.result.elapsed.as_secs_f64() * 1e3
    );
}
