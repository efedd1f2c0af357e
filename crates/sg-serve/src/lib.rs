//! # sg-serve — compression-as-a-service for Slim Graph
//!
//! The serving story the ROADMAP asks for: a daemon that loads a graph
//! **once** and answers `compress`/`analyze` pipeline requests over a
//! socket, with cached stage outputs. It is a thin network shell around
//! the `sg-core` session API — [`sg_core::GraphCatalog`] holds the loaded
//! graphs, [`sg_core::SgSession`] executes pipeline specs, and the shared
//! [`sg_core::StageCache`] lets requests that agree on a chain prefix
//! recompute only the divergent suffix (bit-identically to a cold run:
//! pipelines are pure functions of `(graph, spec, seed)`).
//!
//! ## Front-line shape
//!
//! The connection layer is a fixed acceptor feeding a **bounded worker
//! pool** (`--workers`) through a bounded queue: overload yields a
//! stable `busy` error with `retry_after_ms` instead of unbounded
//! threads, per-frame read deadlines and a max-frame cap kill
//! slow-loris and oversized clients, token auth (constant-time compare)
//! gates non-loopback binds, and per-peer byte quotas bound each
//! client's catalog/cache footprint.
//!
//! ## Protocol (v2, the one version served)
//!
//! Line-delimited JSON over TCP or a unix socket — one request per line,
//! one response per line, in order; a request declaring any other `"v"`
//! is answered with the `version` error. The canonical reference (schema,
//! versioning, error codes) is `docs/PROTOCOL.md`; in brief:
//!
//! | op | effect |
//! |----|--------|
//! | `ping` | liveness probe |
//! | `load` | register a server-side graph file under a name (load-once) |
//! | `upload` | chunked, digest-verified client-side graph transfer into the catalog |
//! | `compress` | run a pipeline spec; report shape/digest/per-stage timings, optionally write the result server-side |
//! | `analyze` | `compress` + accuracy metrics vs the loaded original |
//! | `stats` | server-wide stats (graphs, cache, pool, clients, uploads) or one graph's structure |
//! | `metrics` | full sg-obs snapshot — counters, gauges, cumulative latency histograms (see `docs/OBSERVABILITY.md`) |
//! | `slowlog` | the slow-request ring — op, trace id, queue wait, service ms per request over `--slow-ms` |
//! | `shard_run` | one federation shard of a single-stage spec against the local replica (see [`fed`]) |
//! | `federation` | federation topology + live worker reachability (`standalone` on plain daemons) |
//! | `evict` | drop a graph and its cache entries, and/or clear the cache |
//! | `shutdown` | stop accepting and drain in-flight connections |
//!
//! Responses embed per-request timing (`total_ms`,
//! per-stage `ms`) and cache accounting (`stages_cached`, per-stage
//! `cached`), plus a `checksum` — an FNV-1a content digest
//! ([`graph_digest`]) a client can compare against a local run to verify
//! byte-equality without shipping the graph back.
//!
//! ## Example (in-process)
//!
//! ```no_run
//! use sg_serve::{Client, Json, ServeConfig, Server};
//!
//! let server = Server::bind(&ServeConfig::default()).unwrap();
//! let addr = server.local_addr().to_string();
//! let daemon = std::thread::spawn(move || server.run());
//! let mut client = Client::connect(&addr).unwrap();
//! let response = client
//!     .request(&Client::request_for("load")
//!         .with("name", Json::str("g"))
//!         .with("path", Json::str("/data/graph.sgr")))
//!     .unwrap();
//! assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
//! client.request(&Client::request_for("shutdown")).unwrap();
//! daemon.join().unwrap().unwrap();
//! ```
//!
//! ## Federation
//!
//! A daemon started with a [`FedConfig`] (`slimgraph serve --coordinator
//! --worker-addr a,b`) becomes a *coordinator*: federable single-stage
//! `compress`/`analyze` requests are split into one `shard_run`
//! sub-request per worker daemon, replica digests are verified, and the
//! merged result is bit-identical to a local run (same `checksum`).
//! Workers are stock daemons — no special configuration. See [`fed`] and
//! `docs/FEDERATION.md`.
//!
//! The CLI front ends are `slimgraph serve` (daemon) and `slimgraph
//! client` (one-shot requests and scripted sessions).

pub mod b64;
pub mod client;
pub mod fed;
pub mod json;
pub mod net;
pub mod pool;
pub mod proto;
pub mod quota;
pub mod server;
pub mod slowlog;
pub mod upload;

pub use client::Client;
pub use fed::FedConfig;
pub use json::Json;
pub use proto::{ErrorCode, ProtoError, Request, PROTOCOL_VERSION};
pub use server::{graph_digest, snapshot_json, ServeConfig, Server};
pub use slowlog::{SlowLog, SlowRecord};
