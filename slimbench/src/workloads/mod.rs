//! The six workloads. Each stresses different layers, so that for every
//! optimisation one workload exercises its mechanism and another bypasses it.

pub mod compress_cold;
pub mod fed_fanout;
pub mod kernels_encoded;
pub mod passes;
pub mod serve;
pub mod served;
pub mod sharded_ranks;

use crate::common::{Cfg, Outcome};

/// The program's `SG_THREADS` setting for a workload, chosen so that a
/// window never has more than two runnable threads whatever the host's core
/// count: 2 where a single caller drives the parallel kernels, 1 where two
/// ranks, daemon workers or federation shards already run side by side.
pub fn sg_threads(workload: &str) -> &'static str {
    match workload {
        "compress_cold" | "kernels_encoded" => "2",
        _ => "1",
    }
}

/// `(name, why it exists)`, in the order `--all` runs them.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("compress_cold", "7 cold CLI-shaped jobs per pass (load, build, apply, save): scheme bodies and engine do the work, sg-store reads and writes, no cache or daemon"),
    ("kernels_encoded", "PageRank, BFS, 4x CC and triangles over a mapped .sgr v2 with no CSR built: kernels and row decode dominate, no scheme or daemon runs"),
    ("serve_hot", "2 closed-loop clients re-ask 4 prefix-sharing specs at one seed: every stage is a cache read, so the sg-serve shell is nearly all the latency"),
    ("serve_miss", "same daemon, 16 MiB cache, fresh seed per request, 30% analyze: every stage executes, is inserted and evicts; the shell is a few percent"),
    ("sharded_ranks", "distributed_compress at 2 ranks for uniform, tr, tr-eo, lowdeg: the sg-dist superstep exchange does the work; messages and supersteps are exact"),
    ("fed_fanout", "1 closed-loop client asks a coordinator with 2 worker daemons for single-stage compress: per-shard connect, replica digest check and merge in fed.rs"),
];

pub fn run(name: &str, cfg: &Cfg) -> Option<Outcome> {
    Some(match name {
        "compress_cold" => compress_cold::run(cfg),
        "kernels_encoded" => kernels_encoded::run(cfg),
        "serve_hot" => served::run(cfg, served::Shape::Hot),
        "serve_miss" => served::run(cfg, served::Shape::Miss),
        "sharded_ranks" => sharded_ranks::run(cfg),
        "fed_fanout" => fed_fanout::run(cfg),
        _ => return None,
    })
}
