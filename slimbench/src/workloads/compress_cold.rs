//! `compress_cold` — the paper's §7.4 experiment. One op is one cold,
//! CLI-shaped job: load the input `.sgr` (checksummed), parse and build the
//! spec, apply it, save the result with `Encoding::Auto`. A pass runs seven
//! jobs, one per scheme class. No cache, no daemon: the scheme bodies and
//! the engine do nearly all the work, and `sg-store` both reads and writes.

use super::passes;
use crate::common::{self, derive, timed, Cfg, Fidelity, Outcome, Slice};
use crate::layer_span;
use crate::tracebuf;
use sg_core::{PipelineSpec, SchemeRegistry};
use sg_graph::{generators, CsrGraph};
use sg_store::{Encoding, Verify};
use std::time::Instant;

/// One job per scheme class, in the order a pass runs them.
const JOBS: [&str; 7] = [
    "uniform:p=0.5",
    "spectral:p=0.5",
    "lowdeg",
    "spanner:k=8",
    "tr:p=0.5",
    "tr-eo:p=0.5",
    "summary:epsilon=0.1",
];

const SEED_GRAPH: u64 = 0xC01D_0001;
const SEED_PASS: u64 = 0xC01D_0002;

struct Env {
    input: CsrGraph,
    input_path: String,
    generate_ms: f64,
}

/// What one executed job left behind.
struct Job {
    ms: f64,
    digest: String,
    file_bytes: u64,
    scheme_ms: f64,
}

struct Pass {
    /// Which of the distinct passes (seeds) this was.
    plan: usize,
    alloc_mb: f64,
    jobs: Vec<Job>,
}

fn setup(cfg: &Cfg) -> Env {
    // R-MAT: skewed hubs. At scale 15 the raw adjacency (4.9 MB) is larger
    // than the host's 4 MiB L2.
    let scale = cfg.size(15, 9);
    let (input, generate_ms) =
        timed(|| generators::rmat_graph500(scale, 10, derive(cfg.seed, SEED_GRAPH, 0)));
    let input_path = cfg.path("compress_cold-input.sgr");
    sg_store::save_sgr(&input, &input_path).expect("write the input .sgr");
    Env { input, input_path, generate_ms }
}

fn output_path(cfg: &Cfg, plan: usize, job: usize) -> String {
    cfg.path(&format!("compress_cold-out-{plan}-{job}.sgr"))
}

/// One pass: the seven jobs, each timed from load to save. Digesting the
/// output for the correctness gate happens between jobs, off the clock.
/// While spans are recorded the allocator profile is on too.
fn run_pass(cfg: &Cfg, env: &Env, registry: &SchemeRegistry, index: usize, plans: usize) -> Pass {
    let plan = index % plans;
    let seed = derive(cfg.seed, SEED_PASS, plan as u64);
    sg_obs::alloc::set_profiling(sg_obs::trace::trace_enabled());
    let alloc_before = sg_obs::alloc::stats().allocated_bytes;
    let mut jobs = Vec::with_capacity(JOBS.len());
    for (j, spec) in JOBS.iter().enumerate() {
        let op = tracebuf::op_scope(&format!("compress_cold-{index}-{j}"));
        let start = Instant::now();
        let graph = {
            let _s = layer_span!("sg-store.load_heap");
            sg_store::load_sgr_with(&env.input_path, Verify::Checksum).expect("load the input")
        };
        let pipeline = {
            let _s = layer_span!("sg-core.spec_build");
            PipelineSpec::parse(spec).and_then(|s| s.build(registry)).expect("spec builds")
        };
        let result = {
            let _s = layer_span!("sg-core.apply");
            pipeline.apply(&graph, seed)
        };
        let file_bytes = {
            let _s = layer_span!("sg-store.save_auto");
            sg_store::save_sgr_with(&result.result.graph, output_path(cfg, plan, j), Encoding::Auto)
                .expect("save the output")
        };
        let ms = common::ms_since(start);
        drop(op);
        jobs.push(Job {
            ms,
            digest: common::digest_hex(&result.result.graph),
            file_bytes,
            scheme_ms: result.stages[0].elapsed.as_secs_f64() * 1e3,
        });
    }
    let alloc = sg_obs::alloc::stats().allocated_bytes.saturating_sub(alloc_before);
    sg_obs::alloc::set_profiling(false);
    Pass { plan, alloc_mb: alloc as f64 / 1e6, jobs }
}

fn job_ms(passes: &[Pass]) -> Vec<f64> {
    passes.iter().flat_map(|p| &p.jobs).map(|j| j.ms).collect()
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let registry = SchemeRegistry::with_defaults();
    let (env, setup_s) = common::repeat_setup(cfg, || setup(cfg), drop);
    out.set_median("setup_s", &setup_s);
    let plans = cfg.size(3, 1);

    // Warm-up: plan 0, so its digests must reappear in the window.
    let warm_up = run_pass(cfg, &env, &registry, 0, plans);
    let measured = passes::measure(cfg, plans, |i| run_pass(cfg, &env, &registry, i, plans));
    let slices: Vec<Slice> = measured
        .window
        .iter()
        .map(|p| Slice::of_pass(p.jobs.iter().map(|j| j.ms).collect()))
        .collect();
    out.set_op_timings(&slices);

    // Correctness gate. The files on disk are the product: reload each
    // distinct output, check the paper invariants on it, and require every
    // executed job to have produced exactly those bytes.
    let input_components = common::components(&env.input);
    let mut input_triangles = None;
    let mut fidelity = Fidelity::new(&env.input);
    let mut bytes_written = 0u64;
    let mut on_disk: Vec<Result<String, String>> = Vec::with_capacity(plans * JOBS.len());
    for plan in 0..plans {
        for (j, spec) in JOBS.iter().enumerate() {
            let path = output_path(cfg, plan, j);
            let verdict = sg_store::load_sgr_with(&path, Verify::Checksum)
                .map_err(|e| format!("{spec}: reloading {path}: {e}"))
                .and_then(|output| {
                    common::check_invariants(
                        spec,
                        &env.input,
                        &output,
                        input_components,
                        &mut input_triangles,
                    )?;
                    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                    bytes_written += file_bytes;
                    fidelity.add(&env.input, &output, Some(file_bytes));
                    fidelity.add_kl(&output);
                    Ok(common::digest_hex(&output))
                });
            on_disk.push(verdict);
        }
    }
    for pass in measured.window.iter().chain(&measured.untraced).chain([&warm_up]) {
        for (j, job) in pass.jobs.iter().enumerate() {
            out.check(on_disk[pass.plan * JOBS.len() + j].clone().and_then(|expected| {
                if job.digest == expected {
                    Ok(())
                } else {
                    Err(format!("{}: job wrote {}, file holds {expected}", JOBS[j], job.digest))
                }
            }));
        }
    }
    fidelity.report(&mut out);
    out.set("peak_rss_mb", common::peak_rss_mb(), 1);

    if let Some(trace) = &measured.trace {
        let traced = &measured.window;
        out.set_trace_overhead(&job_ms(traced), &job_ms(&measured.untraced));
        trace.report(&mut out);
        out.set("sg-graph.generate_ms", env.generate_ms, 1);
        out.set_median("sg-store.load_heap_ms", &trace.durations_ms("bench.sg-store.load_heap"));
        let saves = trace.durations_ms("bench.sg-store.save_auto");
        out.set_median("sg-store.save_auto_ms", &saves);
        let build_us: Vec<f64> =
            trace.durations_ms("bench.sg-core.spec_build").iter().map(|ms| ms * 1e3).collect();
        out.set_median("sg-core.spec_build_us", &build_us);
        let trusted: Vec<f64> = (0..5)
            .map(|_| timed(|| sg_store::load_sgr_with(&env.input_path, Verify::Trusted)).1)
            .collect();
        out.set_median("sg-store.load_trusted_ms", &trusted);
        out.set("sg-store.bytes_written", bytes_written as f64, 1);
        let traced_bytes: u64 = traced.iter().flat_map(|p| &p.jobs).map(|j| j.file_bytes).sum();
        out.set(
            "sg-store.write_mb_per_s",
            traced_bytes as f64 / 1e6 / (saves.iter().sum::<f64>() / 1e3),
            saves.len(),
        );
        for (j, spec) in JOBS.iter().enumerate() {
            let scheme = spec.split(':').next().unwrap_or(spec);
            let ms: Vec<f64> = traced.iter().map(|p| p.jobs[j].scheme_ms).collect();
            out.set_median(&format!("sg-core.scheme_ms.{scheme}"), &ms);
        }
        let alloc: Vec<f64> = traced.iter().map(|p| p.alloc_mb).collect();
        out.set_median("sg-core.alloc_mb_per_pass", &alloc);
        trace.keep(cfg, "compress_cold");
    }
    out
}
