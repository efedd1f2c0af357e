//! `slimgraph` — command-line front end for the Slim Graph pipeline.
//!
//! ```text
//! slimgraph compress --input g.txt --scheme uniform --p 0.3 --output out.bin
//! slimgraph compress --input g.txt --scheme spanner,lowdeg,uniform --p 0.5 --output out.bin
//! slimgraph analyze  --input g.txt --scheme spanner --k 8
//! slimgraph stats    --input g.txt
//! slimgraph generate --kind rmat --scale 12 --output g.txt
//! slimgraph serve    --listen 127.0.0.1:7461
//! slimgraph client   --connect 127.0.0.1:7461 --op load --name g --path g.sgr
//! ```
//!
//! Arguments are parsed by hand (no CLI dependency); see `slimgraph help`.
//! [`run`] is the whole command line: the `slimgraph` binary calls it with
//! its stdout, `tests/cli_transcript.rs` with a buffer.

mod args;
mod commands;

pub use commands::run;
