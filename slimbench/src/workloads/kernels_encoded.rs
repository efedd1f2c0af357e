//! `kernels_encoded` — stage 2 of the paper on succinct storage. Set-up
//! slims a Barabási–Albert graph once and stores it as `.sgr` v2. A pass
//! maps that file and runs PageRank, BFS, 4× connected components and
//! triangle counting over the encoded rows, with no CSR materialised; each
//! of those eight steps is one op. The kernels and `sg-graph` row decode
//! dominate; no scheme runs in the window.

use super::passes;
use crate::common::{self, derive, timed, Cfg, Fidelity, Outcome, Slice};
use crate::layer_span;
use crate::measure::median;
use crate::tracebuf;
use sg_algos::{bfs, cc, pagerank, tc};
use sg_core::SchemeRegistry;
use sg_graph::view::CURSOR_CHUNK;
use sg_graph::{generators, CsrGraph, EncodedCsr, GraphView};
use sg_store::{MmapEncoded, Verify};
use std::hint::black_box;
use std::io::Write as _;

/// Stage 1 of the paper, run once in set-up: the graph the kernels see.
const SLIM_SPEC: &str = "uniform:p=0.2";
/// The ops of one pass, in order.
const STEPS: [&str; 8] = ["open", "pr", "bfs", "cc", "cc", "cc", "cc", "tc"];

const SEED_GRAPH: u64 = 0xE2C0_0001;
const SEED_SLIM: u64 = 0xE2C0_0002;

const PAGERANK: pagerank::PageRankConfig =
    pagerank::PageRankConfig { damping: 0.85, max_iterations: 20, tolerance: 1e-9 };

struct Env {
    original: CsrGraph,
    slim: CsrGraph,
    path: String,
    file_bytes: u64,
    root: u32,
    generate_ms: f64,
    encode_ms: f64,
}

/// What the four kernels returned, in the form that must be bit-equal
/// between the encoded and the raw graph.
struct Answers {
    pagerank: Vec<f64>,
    pagerank_iterations: usize,
    bfs_depth: Vec<u32>,
    components: Vec<u32>,
    triangles: u64,
}

impl Answers {
    /// Per kernel step (`pr`, `bfs`, `cc`, `tc`), whether `self` agrees.
    fn agrees_with(&self, reference: &Answers) -> [bool; 4] {
        [
            self.pagerank == reference.pagerank
                && self.pagerank_iterations == reference.pagerank_iterations,
            self.bfs_depth == reference.bfs_depth,
            self.components == reference.components,
            self.triangles == reference.triangles,
        ]
    }
}

fn setup(cfg: &Cfg) -> Env {
    // The slimmed graph's raw adjacency is 23 MB and its encoded file 8 MB,
    // against a 4 MiB L2.
    let n = cfg.size(200_000, 2_000);
    let (original, generate_ms) =
        timed(|| generators::barabasi_albert(n, 8, derive(cfg.seed, SEED_GRAPH, 0)));
    let slim = common::cold_apply(
        &SchemeRegistry::with_defaults(),
        SLIM_SPEC,
        &original,
        derive(cfg.seed, SEED_SLIM, 0),
    );
    let (encoded, encode_ms) = timed(|| EncodedCsr::from_graph(&slim));
    let path = cfg.path("kernels_encoded-slim.sgr");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create .sgr"));
    let file_bytes = sg_store::write_sgr_encoded(&encoded, &mut file).expect("write .sgr v2");
    file.flush().expect("flush .sgr v2");
    let root = common::max_degree_vertex(&slim);
    Env { original, slim, path, file_bytes, root, generate_ms, encode_ms }
}

/// Runs `f` as one op called `<pass>-<step>` when `pass` names one (the
/// raw-CSR twin runs outside any op), and times it.
fn step<T>(pass: Option<usize>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _op = pass.map(|index| tracebuf::op_scope(&format!("kernels_encoded-{index}-{name}")));
    timed(f)
}

/// The four kernels over any graph view, each under its own layer span;
/// returns the answers and the seven step times in ms.
fn kernels<G: GraphView>(g: &G, root: u32, pass: Option<usize>) -> (Answers, [f64; 7]) {
    let (pr, pr_ms) = step(pass, "pr", || {
        let _s = layer_span!("sg-algos.pr");
        pagerank::pagerank(g, PAGERANK)
    });
    let (reach, bfs_ms) = step(pass, "bfs", || {
        let _s = layer_span!("sg-algos.bfs");
        bfs::bfs_parallel(g, root)
    });
    let mut cc_ms = [0.0; 4];
    let mut labels = Vec::new();
    for (repeat, ms) in cc_ms.iter_mut().enumerate() {
        (labels, *ms) = step(pass, &format!("cc{repeat}"), || {
            let _s = layer_span!("sg-algos.cc");
            cc::connected_components(g).labels
        });
    }
    let (triangles, tc_ms) = step(pass, "tc", || {
        let _s = layer_span!("sg-algos.tc");
        tc::count_triangles(g)
    });
    let answers = Answers {
        pagerank: pr.scores,
        pagerank_iterations: pr.iterations,
        bfs_depth: reach.depth,
        components: labels,
        triangles,
    };
    let [cc0, cc1, cc2, cc3] = cc_ms;
    (answers, [pr_ms, bfs_ms, cc0, cc1, cc2, cc3, tc_ms])
}

struct Pass {
    /// Times of the eight [`STEPS`], in ms.
    step_ms: [f64; 8],
    /// Whether each step's result was right.
    right: [bool; 8],
}

/// One pass: map the file (checksummed), run the kernels over it, and
/// compare with the raw-CSR answers off the clock.
fn run_pass(env: &Env, reference: &Answers, index: usize) -> Pass {
    let (mapped, open_ms) = step(Some(index), "open", || {
        let _s = layer_span!("sg-store.open_encoded");
        MmapEncoded::open_with(&env.path, Verify::Checksum).expect("open the .sgr v2")
    });
    let (answers, [pr, bfs, cc0, cc1, cc2, cc3, tc]) = kernels(&mapped, env.root, Some(index));
    let opened = mapped.num_edges() == env.slim.num_edges();
    let [pr_ok, bfs_ok, cc_ok, tc_ok] = answers.agrees_with(reference);
    Pass {
        step_ms: [open_ms, pr, bfs, cc0, cc1, cc2, cc3, tc],
        right: [opened, pr_ok, bfs_ok, cc_ok, cc_ok, cc_ok, cc_ok, tc_ok],
    }
}

fn step_ms(passes: &[Pass]) -> Vec<f64> {
    passes.iter().flat_map(|p| p.step_ms).collect()
}

/// Decodes every row through `next_chunk`; returns the slots seen.
fn row_sweep<G: GraphView>(g: &G) -> u64 {
    let mut buf = [0u32; CURSOR_CHUNK];
    let (mut slots, mut sink) = (0u64, 0u64);
    for v in 0..g.num_vertices() as u32 {
        let mut cursor = g.cursor(v);
        loop {
            let filled = cursor.next_chunk(&mut buf);
            if filled == 0 {
                break;
            }
            slots += filled as u64;
            sink = sink.wrapping_add(u64::from(buf[filled - 1]));
        }
    }
    black_box(sink);
    slots
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (env, setup_s) = common::repeat_setup(cfg, || setup(cfg), drop);
    out.set_median("setup_s", &setup_s);

    // The raw-CSR twin gives the reference answers.
    let (reference, first_raw_ms) = kernels(&env.slim, env.root, None);
    run_pass(&env, &reference, 0); // warm-up
    let measured = passes::measure(cfg, 1, |i| run_pass(&env, &reference, i));
    let slices: Vec<Slice> =
        measured.window.iter().map(|p| Slice::of_pass(p.step_ms.to_vec())).collect();
    out.set_op_timings(&slices);
    for pass in measured.window.iter().chain(&measured.untraced) {
        for (name, right) in STEPS.iter().zip(pass.right) {
            let verdict = if right {
                Ok(())
            } else {
                Err(format!("{name}: encoded result differs from raw CSR"))
            };
            out.check(verdict);
        }
    }

    let mut fidelity = Fidelity::new(&env.original);
    fidelity.add(&env.original, &env.slim, Some(env.file_bytes));
    fidelity.add_kl(&env.slim);
    fidelity.report(&mut out);
    out.set("peak_rss_mb", common::peak_rss_mb(), 1);

    if let Some(trace) = &measured.trace {
        let traced = &measured.window;
        out.set_trace_overhead(&step_ms(traced), &step_ms(&measured.untraced));
        trace.report(&mut out);
        let mut raw_ms = vec![first_raw_ms];
        raw_ms.extend((0..2).map(|_| kernels(&env.slim, env.root, None).1));
        // Step columns of `kernels`: pr, bfs, 4x cc (summed), tc.
        let per_kernel = |ms: &[f64]| [ms[0], ms[1], ms[2..6].iter().sum(), ms[6]];
        let (mut encoded_sum, mut raw_sum) = (0.0, 0.0);
        for (k, name) in ["pr", "bfs", "cc", "tc"].iter().enumerate() {
            let encoded: Vec<f64> = traced.iter().map(|p| per_kernel(&p.step_ms[1..])[k]).collect();
            let raw: Vec<f64> = raw_ms.iter().map(|ms| per_kernel(ms)[k]).collect();
            encoded_sum += median(&encoded);
            raw_sum += median(&raw);
            out.set_median(&format!("sg-algos.{name}_ms"), &encoded);
            out.set_median(&format!("sg-algos.{name}_raw_ms"), &raw);
        }
        out.set("sg-algos.encoded_over_raw", encoded_sum / raw_sum, traced.len());
        out.set("sg-algos.pr_iterations", reference.pagerank_iterations as f64, 1);
        let slots = 2 * env.slim.num_edges() as u64;
        let bfs_slots: u64 = (0..env.slim.num_vertices() as u32)
            .filter(|&v| reference.bfs_depth[v as usize] != bfs::UNREACHABLE)
            .map(|v| env.slim.degree(v) as u64)
            .sum();
        // Adjacency slots PageRank and BFS read, computed from their results.
        let visited = reference.pagerank_iterations as u64 * slots + bfs_slots;
        out.set("sg-algos.edges_visited", visited as f64, 1);

        let opens: Vec<f64> = traced.iter().map(|p| p.step_ms[0]).collect();
        out.set_median("sg-store.open_encoded_ms", &opens);
        let read_rate = env.file_bytes as f64 / 1e6 / (median(&opens) / 1e3);
        out.set("sg-store.read_mb_per_s", read_rate, opens.len());
        out.set("sg-store.bytes_read", env.file_bytes as f64, 1);
        let v1_bytes = sg_store::to_sgr_bytes(&env.slim).len();
        out.set("sg-store.encoded_over_raw_bytes", env.file_bytes as f64 / v1_bytes as f64, 1);

        out.set("sg-graph.generate_ms", env.generate_ms, 1);
        out.set("sg-graph.encode_ms", env.encode_ms, 1);
        let mapped = MmapEncoded::open_with(&env.path, Verify::Trusted).expect("open the .sgr v2");
        let encoded: Vec<f64> = (0..3).map(|_| timed(|| row_sweep(&mapped)).1).collect();
        let raw: Vec<f64> = (0..3).map(|_| timed(|| row_sweep(&env.slim)).1).collect();
        out.set_median("sg-graph.row_sweep_encoded_ms", &encoded);
        out.set_median("sg-graph.row_sweep_raw_ms", &raw);
        out.set("sg-graph.decode_edges_per_s", slots as f64 / (median(&encoded) / 1e3), 3);
        out.set("sg-graph.decode_over_raw", median(&encoded) / median(&raw), 3);
        out.set("sg-graph.edges_decoded", row_sweep(&mapped) as f64, 1);
        trace.keep(cfg, "kernels_encoded");
    }
    out
}
