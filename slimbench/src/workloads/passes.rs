//! The window loop shared by the three pass workloads (`compress_cold`,
//! `kernels_encoded`, `sharded_ranks`): a pass is a fixed sequence of jobs,
//! each job one op, and passes repeat until the window is over.

use crate::common::Cfg;
use crate::tracebuf::TraceLog;
use std::time::Instant;

/// Runs `pass(first)`, `pass(first + 1)`, … until at least `min` passes ran
/// and `seconds` passed.
pub fn run_passes<P>(
    first: usize,
    min: usize,
    seconds: f64,
    mut pass: impl FnMut(usize) -> P,
) -> Vec<P> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass(first + passes.len()));
    }
    passes
}

pub struct Measured<P> {
    /// The passes of the measured window.
    pub window: Vec<P>,
    /// Traced run only: the spans of the window, and a shorter untraced
    /// stretch run after it for the tracing overhead.
    pub trace: Option<TraceLog>,
    pub untraced: Vec<P>,
}

/// The measured window: at least `min` passes (every distinct one) over
/// `cfg.seconds`. A traced run spends 70% of the time traced and the rest
/// untraced.
pub fn measure<P>(cfg: &Cfg, min: usize, mut pass: impl FnMut(usize) -> P) -> Measured<P> {
    if !cfg.traced {
        let window = run_passes(0, min, cfg.seconds, &mut pass);
        return Measured { window, trace: None, untraced: Vec::new() };
    }
    let mut trace = TraceLog::start();
    let window = run_passes(0, min, cfg.seconds * 0.7, &mut pass);
    trace.stop();
    let untraced = run_passes(window.len(), 1, cfg.seconds * 0.3, &mut pass);
    Measured { window, trace: Some(trace), untraced }
}
