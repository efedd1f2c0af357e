//! What every workload shares: the run configuration, the outcome record,
//! seed derivation, the correctness helpers and the storage-axis metrics.

use crate::measure;
use sg_algos::{cc, pagerank, tc};
use sg_core::{PipelineSpec, SchemeRegistry};
use sg_graph::prng::mix64;
use sg_graph::CsrGraph;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One run of one workload.
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured window; the window also never ends before
    /// every distinct op of the workload has run once.
    pub seconds: f64,
    pub traced: bool,
    /// The `--smoke` size: same code paths and checks, tiny inputs.
    pub smoke: bool,
    /// Test hook: one expected digest is flipped, so the gate must trip.
    pub corrupt_expected: bool,
    /// Scratch directory for generated inputs and written outputs.
    pub work: PathBuf,
    /// Where a traced run leaves its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

impl Cfg {
    /// `full` at benchmark size, `smoke` under `--smoke`.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    pub fn path(&self, file: &str) -> String {
        self.work.join(file).to_string_lossy().into_owned()
    }
}

/// A value derived from the run seed: `stream` names the consumer (graph
/// generator, request seeds, parameter grid…), `index` the element.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix64(index)))
}

/// What a workload reports. Metric names are looked up in
/// [`crate::schema`] for their unit; `samples` is how many measurements
/// stand behind the value (1 for an exact count).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human report.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, (f64, usize)>,
    /// Distribution of the op times of the measured window.
    pub op_ms: Option<measure::Summary>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.insert(name.to_string(), (value, samples));
    }

    /// Median of `samples_ms`, when there are any.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if !samples.is_empty() {
            self.set(name, measure::median(samples), samples.len());
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Counts one checked op: `Err` marks it failed.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.fail(message);
        }
    }

    /// Traced run: how much slower the median op was with spans on.
    pub fn set_trace_overhead(&mut self, traced_ms: &[f64], untraced_ms: &[f64]) {
        let base = measure::median(untraced_ms);
        let share = (measure::median(traced_ms) - base) / base;
        self.set("sg-obs.trace_overhead_share", share, traced_ms.len());
    }

    /// The timing metrics every workload shares. The window comes in
    /// slices — one per pass, or ten equal stretches of a request loop.
    /// `op_p50_ms` is the median over every op; `op_p95_ms` and `ops_per_s`
    /// are medians over the slices of each slice's 95th percentile and rate,
    /// so a stall shorter than half the window moves neither.
    pub fn set_op_timings(&mut self, slices: &[Slice]) {
        let all = measure::sorted(slices.iter().flat_map(|s| s.op_ms.iter().copied()).collect());
        let busy: Vec<&Slice> = slices.iter().filter(|s| !s.op_ms.is_empty()).collect();
        let p95: Vec<f64> = busy
            .iter()
            .map(|s| measure::percentile(&measure::sorted(s.op_ms.clone()), 95.0))
            .collect();
        let rate: Vec<f64> = busy.iter().map(|s| s.op_ms.len() as f64 / s.seconds).collect();
        self.op_ms = Some(measure::summarize(&all));
        self.set("op_p50_ms", measure::percentile(&all, 50.0), all.len());
        self.set("op_p95_ms", measure::median(&p95), all.len());
        self.set("ops_per_s", measure::median(&rate), all.len());
    }
}

/// One stretch of a measured window: its op times and its length.
pub struct Slice {
    pub op_ms: Vec<f64>,
    pub seconds: f64,
}

impl Slice {
    /// A pass as a slice: its ops ran back to back on one thread.
    pub fn of_pass(op_ms: Vec<f64>) -> Slice {
        let seconds = op_ms.iter().sum::<f64>() / 1e3;
        Slice { op_ms, seconds }
    }
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `f` in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms_since(start))
}

/// Sets up five times (once under `--smoke`) — `setup_s` is the median —
/// tearing down all but the last environment, and returns that one with
/// every set-up time in seconds.
pub fn repeat_setup<E>(
    cfg: &Cfg,
    mut build: impl FnMut() -> E,
    mut teardown: impl FnMut(E),
) -> (E, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    for _ in 0..cfg.size(5, 1) {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let (env, ms) = timed(&mut build);
        times.push(ms / 1e3);
        last = Some(env);
    }
    (last.expect("at least one set-up"), times)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The cold library path every served, sharded or federated result is
/// checked against.
pub fn cold_apply(registry: &SchemeRegistry, spec: &str, g: &CsrGraph, seed: u64) -> CsrGraph {
    let pipeline = PipelineSpec::parse(spec)
        .and_then(|s| s.build(registry))
        .unwrap_or_else(|e| panic!("benchmark spec '{spec}' must build: {e}"));
    pipeline.apply(g, seed).result.graph
}

pub fn digest_hex(g: &CsrGraph) -> String {
    format!("{:016x}", sg_serve::graph_digest(g))
}

pub fn components(g: &CsrGraph) -> usize {
    cc::connected_components(g).num_components
}

pub fn max_degree_vertex(g: &CsrGraph) -> u32 {
    (0..g.num_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap_or(0)
}

/// The paper invariants of one scheme's output, by the scheme that made it.
/// `input_triangles` is counted lazily: only `tr` needs it.
pub fn check_invariants(
    spec: &str,
    input: &CsrGraph,
    output: &CsrGraph,
    input_components: usize,
    input_triangles: &mut Option<u64>,
) -> Result<(), String> {
    // A chain's later stages undo a single scheme's guarantee.
    let scheme = if spec.contains(',') { "" } else { spec.split(':').next().unwrap_or(spec) };
    let param = |key: &str| {
        spec.split(':')
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse::<f64>().ok())
    };
    match scheme {
        "tr-eo" | "spanner" => {
            let got = components(output);
            if got != input_components {
                return Err(format!("{spec}: {got} components, input has {input_components}"));
            }
        }
        "uniform" => {
            // `p` is the removal probability, so `1 - p` of the edges stay.
            let p = param("p").unwrap_or(0.5);
            let kept = output.num_edges() as f64 / input.num_edges() as f64;
            if (kept - (1.0 - p)).abs() > 0.02 {
                return Err(format!(
                    "{spec}: kept {kept:.4} of the edges, expected {:.2}",
                    1.0 - p
                ));
            }
        }
        "tr" => {
            let before = *input_triangles.get_or_insert_with(|| tc::count_triangles(input));
            let after = tc::count_triangles(output);
            if after > before {
                return Err(format!("{spec}: triangles rose from {before} to {after}"));
            }
        }
        _ => {}
    }
    if output.num_vertices() > input.num_vertices() {
        return Err(format!("{spec}: output has more vertices than the input"));
    }
    Ok(())
}

/// The paper's other axis, accumulated over a workload's distinct ops so
/// that the three metrics repeat exactly for a seed however long the
/// window ran: edges kept, bytes per stored edge of the outputs in `.sgr`
/// (`Encoding::Auto`), and PageRank divergence of vertex-preserving outputs.
pub struct Fidelity {
    input_pagerank: Vec<f64>,
    in_edges: u64,
    out_edges: u64,
    out_bytes: u64,
    kl_bits: Vec<f64>,
}

impl Fidelity {
    pub fn new(input: &CsrGraph) -> Self {
        Self {
            input_pagerank: pagerank::pagerank_default(input).scores,
            in_edges: 0,
            out_edges: 0,
            out_bytes: 0,
            kl_bits: Vec::new(),
        }
    }

    /// Adds one distinct op's output to the edge and byte sums.
    /// `stored_bytes` is the size of the file the workload wrote for it;
    /// `None` encodes it here.
    pub fn add(&mut self, input: &CsrGraph, output: &CsrGraph, stored_bytes: Option<u64>) {
        self.in_edges += input.num_edges() as u64;
        self.out_edges += output.num_edges() as u64;
        self.out_bytes += stored_bytes.unwrap_or_else(|| {
            sg_store::to_sgr_bytes_with(output, sg_store::Encoding::Auto).len() as u64
        });
    }

    /// KL(PageRank of the input ‖ PageRank of `output`) in bits, when the
    /// output kept the vertex set.
    pub fn kl_of(&self, output: &CsrGraph) -> Option<f64> {
        (output.num_vertices() == self.input_pagerank.len()).then(|| {
            let after = pagerank::pagerank_default(output).scores;
            sg_metrics::kl_divergence(&self.input_pagerank, &after)
        })
    }

    /// Adds [`Fidelity::kl_of`] `output` to the mean.
    pub fn add_kl(&mut self, output: &CsrGraph) {
        self.kl_bits.extend(self.kl_of(output));
    }

    /// A divergence the program computed itself (`analyze` responses).
    pub fn add_reported_kl(&mut self, bits: f64) {
        self.kl_bits.push(bits);
    }

    pub fn report(&self, out: &mut Outcome) {
        let outputs = self.kl_bits.len().max(1);
        out.set("kept_edge_share", self.out_edges as f64 / self.in_edges as f64, 1);
        out.set("out_bytes_per_edge", self.out_bytes as f64 / self.out_edges as f64, 1);
        out.set("pagerank_kl_bits", self.kl_bits.iter().sum::<f64>() / outputs as f64, outputs);
    }
}
