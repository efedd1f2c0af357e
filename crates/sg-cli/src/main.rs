//! The `slimgraph` binary: [`sg_cli::run`] over the process's arguments,
//! writing to stdout.

use std::process::ExitCode;

/// The sg-obs tracking allocator wraps the system allocator for the
/// whole binary. It is inert (one relaxed load per call) until
/// `--alloc-profile` turns profiling on; results are bit-identical
/// either way (see docs/OBSERVABILITY.md).
#[global_allocator]
static ALLOC: sg_obs::alloc::TrackingAlloc = sg_obs::alloc::TrackingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Not `stdout().lock()`: a `serve` daemon's workers print their
    // transcript lines to stdout while `run` blocks in the accept loop.
    match sg_cli::run(&argv, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("slimgraph: error: {e}");
            eprintln!("run `slimgraph help` for usage");
            ExitCode::FAILURE
        }
    }
}
