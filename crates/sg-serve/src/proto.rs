//! The wire protocol: line-delimited JSON requests/responses.
//!
//! One request per line, one response per line, in order. Every request
//! is a JSON object with an `"op"` field; `"v"` (protocol version,
//! default [`PROTOCOL_VERSION`]) and `"id"` (echoed verbatim into the
//! response) are optional. Responses always carry `"v"`, the echoed
//! `"id"` (when given), and `"ok"`; failures add an `"error"` object with
//! a stable machine-readable `code` and a human `message`, plus
//! `retry_after_ms` for `busy`.
//!
//! This build speaks exactly one version, [`PROTOCOL_VERSION`]: a request
//! declaring any other `"v"` is answered with code `version`.
//!
//! The full message schema is documented in `docs/PROTOCOL.md` at the
//! repository root; this module is the single point where request syntax
//! is validated and where the response envelope is built, so the daemon
//! and any embedded consumer agree on both.

use crate::json::Json;

/// The protocol version spoken by this build. Requests carrying any
/// other `"v"` are rejected with code `version`.
pub const PROTOCOL_VERSION: u64 = 2;

/// Machine-readable error codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, missing/ill-typed fields.
    BadRequest,
    /// Unsupported protocol version.
    Version,
    /// Unknown `"op"`.
    UnknownOp,
    /// `"graph"` names nothing in the catalog.
    UnknownGraph,
    /// The pipeline spec failed to parse/validate.
    BadSpec,
    /// Filesystem or socket failure while serving the request.
    Io,
    /// Admission control rejected the connection; retry later.
    Busy,
    /// The daemon requires a `"token"` and none (or a wrong one) came.
    AuthRequired,
    /// The peer's catalog or cache byte budget is exhausted.
    QuotaExceeded,
    /// A request line exceeded the daemon's max frame size.
    FrameTooLarge,
    /// The connection blew its read deadline mid-frame (slow-loris).
    Timeout,
    /// Uploaded bytes hash to a different digest than declared.
    DigestMismatch,
    /// A federation shard failed on every configured worker (death,
    /// timeout, or a worker-side error) after the bounded retry budget.
    FedShardFailed,
    /// A worker's replica digests differently than the coordinator's
    /// graph — the federation would merge shards of different inputs.
    FedDigestMismatch,
    /// The request's handler panicked. The worker and the connection
    /// survive; what the request changed before the panic is unspecified.
    Internal,
}

impl ErrorCode {
    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Version => "version",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::UnknownGraph => "unknown-graph",
            ErrorCode::BadSpec => "bad-spec",
            ErrorCode::Io => "io",
            ErrorCode::Busy => "busy",
            ErrorCode::AuthRequired => "auth-required",
            ErrorCode::QuotaExceeded => "quota-exceeded",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::DigestMismatch => "digest-mismatch",
            ErrorCode::FedShardFailed => "fed-shard-failed",
            ErrorCode::FedDigestMismatch => "fed-digest-mismatch",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A protocol-level failure: code plus human-readable message.
#[derive(Clone, Debug)]
pub struct ProtoError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable message.
    pub message: String,
    /// For `busy`: suggested client backoff before reconnecting.
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into(), retry_after_ms: None }
    }

    /// A `busy` rejection advising the client to retry after `ms`.
    pub fn busy(ms: u64) -> Self {
        Self {
            code: ErrorCode::Busy,
            message: "all workers busy; retry later".to_string(),
            retry_after_ms: Some(ms),
        }
    }
}

/// One phase of a chunked client-side graph upload.
#[derive(Clone, Debug)]
pub enum UploadPhase {
    /// Open (or resume) an upload slot for `name`.
    Begin {
        /// Total byte length of the graph file being transferred.
        total_bytes: u64,
        /// Expected fnv1a graph digest (hex, as printed by `stats`).
        digest: String,
        /// Storage format of the uploaded bytes (`text`/`bin`/`sgr`),
        /// else inferred from the upload's catalog name.
        format: Option<String>,
    },
    /// Append `data` (base64) at `offset`; out-of-order offsets rejected.
    Chunk {
        /// Byte offset of this chunk within the file.
        offset: u64,
        /// Base64-encoded chunk payload.
        data: String,
    },
    /// All bytes sent: verify digest, load, insert into the catalog.
    Commit,
    /// Drop the partial upload.
    Abort,
}

/// A parsed request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Register a graph file under a name (load-once).
    Load {
        /// Catalog name.
        name: String,
        /// Server-side path.
        path: String,
        /// Explicit storage format (`text`/`bin`/`sgr`), else inferred.
        format: Option<String>,
        /// Skip the `.sgr` checksum pass (trusted files).
        no_verify: bool,
    },
    /// Chunked client-side graph transfer into the catalog.
    Upload {
        /// Catalog name the finished graph will be registered under.
        name: String,
        /// Which phase of the transfer this request advances.
        phase: UploadPhase,
    },
    /// Run a compression pipeline against a loaded graph.
    Compress {
        /// Catalog name of the input graph.
        graph: String,
        /// Pipeline spec in the CLI syntax.
        spec: String,
        /// Pipeline seed.
        seed: u64,
        /// Server-side path to write the compressed graph to.
        output: Option<String>,
        /// Storage format of `output`.
        output_format: Option<String>,
    },
    /// Compress and report accuracy metrics vs the loaded original.
    Analyze {
        /// Catalog name of the input graph.
        graph: String,
        /// Pipeline spec in the CLI syntax.
        spec: String,
        /// Pipeline seed.
        seed: u64,
    },
    /// Server-wide stats, or structural stats of one graph.
    Stats {
        /// Restrict to one loaded graph.
        graph: Option<String>,
    },
    /// Observability snapshot: every counter, gauge, and latency
    /// histogram the daemon and its libraries recorded.
    Metrics,
    /// The slow-request log: the retained ring of requests whose
    /// service time met the daemon's `--slow-ms` threshold.
    Slowlog,
    /// Compute one federation shard of a single-stage spec against the
    /// full local replica of `graph`. Answered by *worker* daemons;
    /// coordinators fan a `compress`/`analyze` out into these.
    ShardRun {
        /// Catalog name of the replica to shard against.
        graph: String,
        /// Single-stage pipeline spec in the CLI syntax.
        spec: String,
        /// Stage seed (stage 0 of a pipeline run uses the seed verbatim).
        seed: u64,
        /// This request's shard index, `0..shards`.
        shard: usize,
        /// Total shard count of the federated run.
        shards: usize,
    },
    /// Federation topology and worker health of this daemon.
    Federation,
    /// Drop a graph (and its cache entries) and/or clear the stage cache.
    Evict {
        /// Graph to evict.
        graph: Option<String>,
        /// Also/only clear the whole stage cache.
        cache: bool,
    },
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// Parsed request envelope: the operation plus what the shell needs to
/// route, authenticate and observe it without looking inside.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The operation.
    pub request: Request,
    /// Client-chosen correlation id, echoed verbatim.
    pub id: Option<Json>,
    /// Auth token, when the client sent one.
    pub token: Option<String>,
    /// The request's `"op"` as sent (per-op metrics, transcript, slowlog).
    pub op: String,
    /// The catalog name the request targets, when it names one.
    pub graph: Option<String>,
}

/// A `bad-request`: malformed JSON, missing or ill-typed fields, and
/// requests that are well-formed but cannot apply.
pub(crate) fn bad_request(message: impl Into<String>) -> ProtoError {
    ProtoError::new(ErrorCode::BadRequest, message)
}

/// Reads optional field `key` through `get` (absent and `null` are
/// `None`); `what` names the expected type in the error.
fn field<T>(
    obj: &Json,
    key: &str,
    what: &str,
    get: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            get(v).map(Some).ok_or_else(|| bad_request(format!("field '{key}' must be {what}")))
        }
    }
}

fn required<T>(value: Option<T>, key: &str) -> Result<T, ProtoError> {
    value.ok_or_else(|| bad_request(format!("missing field '{key}'")))
}

fn str_field(obj: &Json, key: &str) -> Result<Option<String>, ProtoError> {
    field(obj, key, "a string", |v| v.as_str().map(str::to_string))
}

fn require_str(obj: &Json, key: &str) -> Result<String, ProtoError> {
    required(str_field(obj, key)?, key)
}

fn bool_field(obj: &Json, key: &str, default: bool) -> Result<bool, ProtoError> {
    Ok(field(obj, key, "a boolean", Json::as_bool)?.unwrap_or(default))
}

fn u64_field(obj: &Json, key: &str, default: u64) -> Result<u64, ProtoError> {
    Ok(field(obj, key, "an unsigned integer", Json::as_u64)?.unwrap_or(default))
}

fn require_u64(obj: &Json, key: &str) -> Result<u64, ProtoError> {
    required(field(obj, key, "an unsigned integer", Json::as_u64)?, key)
}

fn parse_upload(value: &Json, name: String) -> Result<Request, ProtoError> {
    let phase = match require_str(value, "phase")?.as_str() {
        "begin" => UploadPhase::Begin {
            total_bytes: require_u64(value, "total_bytes")?,
            digest: require_str(value, "digest")?,
            format: str_field(value, "format")?,
        },
        "chunk" => UploadPhase::Chunk {
            offset: require_u64(value, "offset")?,
            data: require_str(value, "data")?,
        },
        "commit" => UploadPhase::Commit,
        "abort" => UploadPhase::Abort,
        other => {
            return Err(bad_request(format!(
                "unknown upload phase '{other}' (begin/chunk/commit/abort)"
            )))
        }
    };
    Ok(Request::Upload { name, phase })
}

/// Parses one request line into its envelope.
pub fn parse_request(line: &str) -> Result<Envelope, ProtoError> {
    let value = Json::parse(line).map_err(|e| bad_request(format!("invalid JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(bad_request("request must be a JSON object"));
    }
    let id = value.get("id").cloned();
    let version = u64_field(&value, "v", PROTOCOL_VERSION)?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::new(
            ErrorCode::Version,
            format!(
                "unsupported protocol version {version} \
                 (this daemon speaks version {PROTOCOL_VERSION} only)"
            ),
        ));
    }
    let token = str_field(&value, "token")?;
    let op = require_str(&value, "op")?;
    // The catalog name the request targets, noted as its field is read.
    let mut graph = None;
    let mut target = |key: &str| -> Result<String, ProtoError> {
        let name = require_str(&value, key)?;
        graph = Some(name.clone());
        Ok(name)
    };
    let request = match op.as_str() {
        "ping" => Request::Ping,
        "load" => Request::Load {
            name: target("name")?,
            path: require_str(&value, "path")?,
            format: str_field(&value, "format")?,
            no_verify: bool_field(&value, "no_verify", false)?,
        },
        "upload" => parse_upload(&value, target("name")?)?,
        "compress" => Request::Compress {
            graph: target("graph")?,
            spec: require_str(&value, "spec")?,
            seed: u64_field(&value, "seed", 42)?,
            output: str_field(&value, "output")?,
            output_format: str_field(&value, "output_format")?,
        },
        "analyze" => Request::Analyze {
            graph: target("graph")?,
            spec: require_str(&value, "spec")?,
            seed: u64_field(&value, "seed", 42)?,
        },
        "stats" => {
            graph = str_field(&value, "graph")?;
            Request::Stats { graph: graph.clone() }
        }
        "metrics" => Request::Metrics,
        "slowlog" => Request::Slowlog,
        "shard_run" => {
            let shard = require_u64(&value, "shard")? as usize;
            let shards = require_u64(&value, "shards")? as usize;
            if shards == 0 || shard >= shards {
                return Err(bad_request(format!("shard {shard} out of range for {shards} shards")));
            }
            Request::ShardRun {
                graph: target("graph")?,
                spec: require_str(&value, "spec")?,
                seed: u64_field(&value, "seed", 42)?,
                shard,
                shards,
            }
        }
        "federation" => Request::Federation,
        "evict" => {
            graph = str_field(&value, "graph")?;
            let cache = bool_field(&value, "cache", false)?;
            if graph.is_none() && !cache {
                return Err(bad_request("evict needs 'graph' and/or 'cache': true"));
            }
            Request::Evict { graph: graph.clone(), cache }
        }
        "shutdown" => Request::Shutdown,
        other => {
            return Err(ProtoError::new(ErrorCode::UnknownOp, format!("unknown op '{other}'")))
        }
    };
    Ok(Envelope { request, id, token, op, graph })
}

/// Builds the one response envelope: `{"v":…,"id":…,"ok":…}` first, then
/// a success's body fields in the handler's order, or the `error` object.
pub fn response(id: Option<Json>, outcome: Result<Json, ProtoError>) -> Json {
    let mut fields = vec![("v".to_string(), Json::u64(PROTOCOL_VERSION))];
    fields.extend(id.map(|id| ("id".to_string(), id)));
    fields.push(("ok".to_string(), Json::Bool(outcome.is_ok())));
    match outcome {
        Ok(Json::Obj(body)) => fields.extend(body),
        Ok(_) => panic!("a response body is a JSON object"),
        Err(err) => {
            let mut error = Json::obj()
                .with("code", Json::str(err.code.name()))
                .with("message", Json::str(err.message));
            if let Some(ms) = err.retry_after_ms {
                error = error.with("retry_after_ms", Json::u64(ms));
            }
            fields.push(("error".to_string(), error));
        }
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let cases = [
            ("{\"op\":\"ping\"}", "ping"),
            ("{\"op\":\"load\",\"name\":\"g\",\"path\":\"/x.sgr\"}", "load"),
            (
                "{\"op\":\"upload\",\"name\":\"g\",\"phase\":\"begin\",\
                 \"total_bytes\":10,\"digest\":\"abc\"}",
                "upload",
            ),
            (
                "{\"op\":\"upload\",\"name\":\"g\",\"phase\":\"chunk\",\"offset\":0,\"data\":\"\"}",
                "upload",
            ),
            ("{\"op\":\"upload\",\"name\":\"g\",\"phase\":\"commit\"}", "upload"),
            ("{\"op\":\"upload\",\"name\":\"g\",\"phase\":\"abort\"}", "upload"),
            ("{\"op\":\"compress\",\"graph\":\"g\",\"spec\":\"uniform:p=0.5\"}", "compress"),
            ("{\"op\":\"analyze\",\"graph\":\"g\",\"spec\":\"lowdeg\",\"seed\":7}", "analyze"),
            ("{\"op\":\"stats\"}", "stats"),
            ("{\"op\":\"metrics\"}", "metrics"),
            ("{\"op\":\"slowlog\"}", "slowlog"),
            (
                "{\"op\":\"shard_run\",\"graph\":\"g\",\"spec\":\"tr:p=0.5\",\
                 \"shard\":1,\"shards\":4}",
                "shard_run",
            ),
            ("{\"op\":\"federation\"}", "federation"),
            ("{\"op\":\"evict\",\"graph\":\"g\"}", "evict"),
            ("{\"op\":\"evict\",\"cache\":true}", "evict"),
            ("{\"op\":\"shutdown\"}", "shutdown"),
        ];
        for (line, expect) in cases {
            let env = parse_request(line).unwrap_or_else(|e| panic!("{line}: {}", e.message));
            assert_eq!(env.op, expect);
            // The envelope names the target graph exactly when the op has one.
            let names_graph = line.contains("\"graph\":") || line.contains("\"name\":");
            assert_eq!(env.graph.as_deref(), names_graph.then_some("g"), "{line}");
        }
    }

    #[test]
    fn defaults_and_ids() {
        let env = parse_request(
            "{\"v\":2,\"id\":\"req-9\",\"op\":\"compress\",\"graph\":\"g\",\"spec\":\"lowdeg\"}",
        )
        .expect("parses");
        assert_eq!(env.id, Some(Json::Str("req-9".into())));
        assert!(env.token.is_none());
        match env.request {
            Request::Compress { seed, output, .. } => {
                assert_eq!(seed, 42, "seed defaults to 42");
                assert!(output.is_none());
            }
            other => panic!("wrong op: {other:?}"),
        }
        // Numeric ids echo too.
        let env = parse_request("{\"id\":7,\"op\":\"ping\"}").expect("parses");
        assert_eq!(env.id, Some(Json::u64(7)));
        // Tokens ride the envelope, not the op.
        let env = parse_request("{\"op\":\"ping\",\"token\":\"sesame\"}").expect("parses");
        assert_eq!(env.token.as_deref(), Some("sesame"));
    }

    #[test]
    fn version_negotiation() {
        // One version is spoken; an absent `v` means that version.
        for line in
            ["{\"op\":\"ping\"}", "{\"v\":2,\"op\":\"ping\"}", "{\"v\":null,\"op\":\"ping\"}"]
        {
            assert_eq!(parse_request(line).expect(line).op, "ping");
        }
        // Anything else: the stable `version` code, naming what is spoken.
        for v in [0, 1, 3, 99] {
            let err =
                parse_request(&format!("{{\"v\":{v},\"op\":\"ping\"}}")).expect_err("rejects");
            assert_eq!(err.code, ErrorCode::Version, "v={v}");
            assert!(
                err.message.contains(&format!("version {v}"))
                    && err.message.contains(&format!("version {PROTOCOL_VERSION} only")),
                "{}",
                err.message
            );
        }
        // The version is checked before the op: no op is "newer" than a request.
        let err = parse_request("{\"v\":1,\"op\":\"metrics\"}").expect_err("rejects");
        assert_eq!(err.code, ErrorCode::Version);
        let err = parse_request("{\"v\":\"2\",\"op\":\"ping\"}").expect_err("rejects");
        assert_eq!(err.code, ErrorCode::BadRequest, "an ill-typed v is a malformed request");
    }

    #[test]
    fn rejections_carry_stable_codes() {
        let cases = [
            ("not json", ErrorCode::BadRequest),
            ("[1,2]", ErrorCode::BadRequest),
            ("{\"op\":\"frobnicate\"}", ErrorCode::UnknownOp),
            ("{\"v\":99,\"op\":\"ping\"}", ErrorCode::Version),
            ("{\"op\":\"load\",\"name\":\"g\"}", ErrorCode::BadRequest),
            ("{\"op\":\"compress\",\"graph\":\"g\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"compress\",\"graph\":\"g\",\"spec\":\"x\",\"seed\":\"x\"}",
                ErrorCode::BadRequest,
            ),
            ("{\"op\":\"evict\"}", ErrorCode::BadRequest),
            ("{\"op\":1}", ErrorCode::BadRequest),
            ("{\"op\":\"upload\",\"name\":\"g\"}", ErrorCode::BadRequest),
            ("{\"op\":\"upload\",\"name\":\"g\",\"phase\":\"sideways\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"upload\",\"name\":\"g\",\"phase\":\"chunk\",\"data\":\"\"}",
                ErrorCode::BadRequest,
            ),
            ("{\"op\":\"ping\",\"token\":7}", ErrorCode::BadRequest),
            ("{\"op\":\"shard_run\",\"graph\":\"g\",\"spec\":\"tr\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"shard_run\",\"graph\":\"g\",\"spec\":\"tr\",\
                 \"shard\":3,\"shards\":2}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"shard_run\",\"graph\":\"g\",\"spec\":\"tr\",\
                 \"shard\":0,\"shards\":0}",
                ErrorCode::BadRequest,
            ),
        ];
        for (line, code) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code, code, "{line}: {}", err.message);
        }
    }

    #[test]
    fn responses_envelope_correctly() {
        let id = Json::Str("a".into());
        let ok = response(Some(id), Ok(Json::obj().with("pong", Json::Bool(true))));
        assert_eq!(ok.render(), "{\"v\":2,\"id\":\"a\",\"ok\":true,\"pong\":true}");
        assert_eq!(response(None, Ok(Json::obj())).render(), "{\"v\":2,\"ok\":true}");
        let err = response(None, Err(ProtoError::new(ErrorCode::UnknownGraph, "no 'g'")));
        assert_eq!(
            err.render(),
            "{\"v\":2,\"ok\":false,\"error\":{\"code\":\"unknown-graph\",\"message\":\"no 'g'\"}}"
        );
        let busy = response(Some(Json::u64(7)), Err(ProtoError::busy(250)));
        assert_eq!(
            busy.render(),
            "{\"v\":2,\"id\":7,\"ok\":false,\"error\":{\"code\":\"busy\",\
             \"message\":\"all workers busy; retry later\",\"retry_after_ms\":250}}"
        );
    }
}
