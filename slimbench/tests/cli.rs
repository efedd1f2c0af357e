//! The command as the driver and `run.sh` use it: exit codes, the shape of
//! the result line, and `--compare` on result sets the command wrote.

use std::path::Path;
use std::process::{Command, Output};

fn slimbench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slimbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("slimbench starts")
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("slimbench-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).lines().last().unwrap_or_default().to_string()
}

#[test]
fn result_line_has_the_contract_keys_and_declared_metrics() {
    let dir = scratch("line");
    for (trace, first_metric) in [("0", "\"setup_s\""), ("1", "\"sg-store.self_ms\"")] {
        let run = slimbench(
            &dir,
            &[
                "--workload",
                "sharded_ranks",
                "--smoke",
                "--seed",
                "5",
                "--seconds",
                "0.1",
                "--trace",
                trace,
            ],
        );
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        let line = last_line(&run);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{line}");
        assert!(line.contains(",\"failed\":0,\"metrics\":{"), "{line}");
        assert!(line.contains(&format!("\"metrics\":{{{first_metric}:{{\"value\":")), "{line}");
    }
    assert!(!dir.join(".slimbench_work").exists(), "scratch files are removed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_wrong_expected_digest_makes_the_command_fail() {
    let dir = scratch("corrupt");
    let run = slimbench(&dir, &["--workload", "serve_hot", "--smoke", "--corrupt-expected"]);
    assert_eq!(run.status.code(), Some(1));
    assert!(last_line(&run).starts_with("{\"correct\":false,"), "{}", last_line(&run));
    let all = slimbench(&dir, &["--all", "--smoke", "--corrupt-expected"]);
    assert_eq!(all.status.code(), Some(1), "--all must fail when one workload does");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_are_refused() {
    let dir = scratch("args");
    for args in [&["--workload", "nope"][..], &["--seconds", "0"], &["--trace", "2"], &[]] {
        let run = slimbench(&dir, args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).contains("slimbench: error:"), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_reads_the_sets_all_writes() {
    let dir = scratch("compare");
    let benchmark_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    for _ in 0..2 {
        let all = slimbench(&dir, &["--all", "--smoke", "--seed", "9", "--out", "set.jsonl"]);
        assert!(all.status.success(), "{}", String::from_utf8_lossy(&all.stdout));
    }
    let set = std::fs::read_to_string(dir.join("set.jsonl")).expect("result set");
    assert_eq!(set.lines().count(), 12, "one line per workload and run");
    // Two runs are too few to resolve anything: every row must say so.
    let compare = slimbench(
        &dir,
        &["--compare", "set.jsonl", "set.jsonl", "--benchmark-json", benchmark_json],
    );
    assert_eq!(compare.status.code(), Some(1));
    let table = String::from_utf8_lossy(&compare.stdout).to_string();
    assert_eq!(table.matches("unresolved").count(), 6 * 8, "{table}");
    std::fs::remove_dir_all(&dir).ok();
}
