//! slimbench — the one seeded benchmark every performance claim about this
//! repository is measured with. See `README.md` beside this package.
//!
//! ```text
//! slimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (driver contract)
//! slimbench --all --seed <n> [--traced] [--smoke] [--out FILE]         every workload, one child each
//! slimbench --compare A.jsonl B.jsonl                                  two result sets against the bounds
//! ```

mod common;
mod compare;
mod measure;
mod schema;
mod tracebuf;
mod workloads;

use common::{Cfg, Outcome};
use sg_serve::Json;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

// The shipped `slimgraph` binary installs the same allocator; profiling is
// switched on only while a traced window runs.
#[global_allocator]
static ALLOC: sg_obs::TrackingAlloc = sg_obs::TrackingAlloc;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    corrupt_expected: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    benchmark_json: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { benchmark_json: PathBuf::from("BENCHMARK.json"), ..Args::default() };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--all" => args.all = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            // Test hook: flips one expected digest, so the gate must trip.
            "--corrupt-expected" => args.corrupt_expected = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--benchmark-json" => args.benchmark_json = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("slimbench: error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare::run(&args.benchmark_json, a, b)
    } else if args.all {
        run_all(&args)
    } else if let Some(workload) = &args.workload {
        run_one(&args, workload)
    } else {
        Err("give --workload <name>, --all, or --compare A B".to_string())
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("slimbench: error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload in this process. Prints a human table, a
/// `#detail` line for `--all`, and last the driver's result line.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    std::env::set_var("SG_THREADS", workloads::sg_threads(workload));
    let work = PathBuf::from(".slimbench_work").join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 0.15 } else { 10.0 }),
        traced: args.traced,
        smoke: args.smoke,
        corrupt_expected: args.corrupt_expected,
        work: work.clone(),
        trace_out: args.trace_out.clone(),
    };
    let outcome = workloads::run(workload, &cfg);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".slimbench_work"); // only if no other run is using it
    let outcome = outcome.ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {workload}; there are {}", names.join(", "))
    })?;

    let declared = if args.traced { schema::PER_LAYER } else { schema::END_TO_END };
    let mut metrics = Json::obj();
    for def in declared {
        let value = match outcome.metrics.get(def.name) {
            Some(&(value, _)) if value.is_finite() => value,
            // A layer this workload does not exercise spent nothing.
            None if args.traced => 0.0,
            _ => return Err(format!("{workload} did not measure {}", def.name)),
        };
        metrics = metrics.with(
            def.name,
            Json::obj().with("value", Json::f64(value)).with("unit", Json::str(def.unit)),
        );
    }
    print_table(workload, &outcome);
    println!("#detail {}", detail_json(workload, &cfg, &outcome).render());
    let correct = outcome.failed == 0;
    let line = Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::u64(outcome.attempted.max(1)))
        .with("failed", Json::u64(outcome.failed))
        .with("metrics", metrics);
    println!("{}", line.render());
    Ok(correct)
}

fn print_table(workload: &str, outcome: &Outcome) {
    println!("== {workload}: {} ops checked, {} failed ==", outcome.attempted, outcome.failed);
    for message in &outcome.failures {
        println!("  FAILED: {message}");
    }
    if let Some(s) = &outcome.op_ms {
        // The tail is printed only where at least ten samples lie beyond it.
        let tail = s.tail.map_or(String::new(), |(p, ms)| format!(", p{p} {ms:.3}"));
        println!(
            "  op time: median {:.3} ms [q1 {:.3}, q3 {:.3}]{tail}, n={}",
            s.p50, s.q1, s.q3, s.n
        );
    }
    for (name, (value, samples)) in &outcome.metrics {
        let unit = schema::unit_of(name).unwrap_or("?");
        println!("  {name:<34} {value:>16.6} {unit:<6} n={samples}");
    }
}

/// Everything a run measured, with sample counts — one line of a result set.
fn detail_json(workload: &str, cfg: &Cfg, outcome: &Outcome) -> Json {
    let mut metrics = Json::obj();
    for (name, (value, samples)) in &outcome.metrics {
        let unit = schema::unit_of(name).unwrap_or_else(|| panic!("{name} is not in the schema"));
        metrics = metrics.with(
            name,
            Json::obj()
                .with("value", Json::f64(*value))
                .with("unit", Json::str(unit))
                .with("samples", Json::u64(*samples as u64)),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .with("workload", Json::str(workload))
        .with("seed", Json::u64(cfg.seed))
        .with("seconds", Json::f64(cfg.seconds))
        .with("traced", Json::Bool(cfg.traced))
        .with("smoke", Json::Bool(cfg.smoke))
        .with("nproc", Json::u64(nproc as u64))
        .with("sg_threads", Json::str(workloads::sg_threads(workload)))
        .with("attempted", Json::u64(outcome.attempted))
        .with("failed", Json::u64(outcome.failed))
        .with("fail_share", Json::f64(outcome.failed as f64 / outcome.attempted.max(1) as f64))
        .with("metrics", metrics)
}

/// Every workload, each in a child process of its own so that `peak_rss_mb`
/// is that workload's. Appends each child's `#detail` line to `--out`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all_correct = true;
    for (workload, _) in workloads::WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", workload, "--seed", &args.seed.to_string()]);
        child.args(["--trace", if args.traced { "1" } else { "0" }]);
        if let Some(seconds) = args.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        if args.smoke {
            child.arg("--smoke");
        }
        if args.corrupt_expected {
            child.arg("--corrupt-expected");
        }
        if let Some(dir) = &args.trace_out {
            child.arg("--trace-out").arg(dir);
        }
        // `output` waits for the child to end.
        let done = child.output().map_err(|e| format!("running {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&done.stdout);
        std::io::stderr().write_all(&done.stderr).ok();
        let detail = stdout.lines().find_map(|l| l.strip_prefix("#detail "));
        for line in stdout.lines().filter(|l| !l.starts_with('#') && !l.starts_with('{')) {
            println!("{line}");
        }
        all_correct &= done.status.success();
        let Some(detail) = detail else {
            return Err(format!("{workload} ended with {} and no result", done.status));
        };
        if let Some(path) = &args.out {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            writeln!(file, "{detail}").map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    println!("{}", if all_correct { "all workloads correct" } else { "FAILED: fail_share > 0" });
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(name: &str, traced: bool, corrupt_expected: bool) -> Cfg {
        let work = std::env::temp_dir()
            .join(format!("slimbench-test-{}-{name}-{traced}", std::process::id()));
        std::fs::create_dir_all(&work).expect("scratch dir");
        Cfg { seed: 7, seconds: 0.1, traced, smoke: true, corrupt_expected, work, trace_out: None }
    }

    /// The bit-rot guard: every workload at `--smoke` size, untraced and
    /// traced — same code paths and checks as the full size.
    #[test]
    fn smoke_runs_every_workload_correctly() {
        // Spans and the allocation profile are process-wide: one test, in order.
        std::env::set_var("SG_THREADS", "2");
        for (name, _) in workloads::WORKLOADS {
            for traced in [false, true] {
                let cfg = smoke_cfg(name, traced, false);
                let outcome = workloads::run(name, &cfg).expect("known workload");
                let _ = std::fs::remove_dir_all(&cfg.work);
                assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
                assert!(outcome.attempted >= 1, "{name} checked no op");
                for def in schema::END_TO_END {
                    let value = outcome.metrics.get(def.name).map(|m| m.0);
                    assert!(
                        value.is_some_and(|v| v.is_finite() && v > 0.0),
                        "{name}: {} = {value:?}",
                        def.name
                    );
                }
                for metric in outcome.metrics.keys() {
                    assert!(schema::unit_of(metric).is_some(), "{name}: {metric} has no unit");
                }
                if traced {
                    assert_eq!(outcome.metrics["sg-obs.spans_dropped"].0, 0.0, "{name}");
                    assert!(outcome.metrics["sg-obs.spans_recorded"].0 > 0.0, "{name}");
                }
            }
        }
        // A wrong expected digest must fail ops, which makes the command
        // exit non-zero (`run_one` returns `Ok(false)`).
        let cfg = smoke_cfg("serve_hot", false, true);
        let outcome = workloads::run("serve_hot", &cfg).expect("known workload");
        let _ = std::fs::remove_dir_all(&cfg.work);
        assert!(outcome.failed > 0, "a corrupted expected digest went unnoticed");
    }
}
