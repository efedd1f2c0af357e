//! A small blocking protocol client, shared by `slimgraph client`, the
//! integration tests, and the CI smoke script.

use crate::b64;
use crate::json::Json;
use crate::net::Stream;
use crate::proto::PROTOCOL_VERSION;
use crate::server::graph_digest;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

/// Default chunk payload size for [`Client::upload`]: 256 KiB of raw
/// bytes per frame (~341 KiB base64), comfortably under the daemon's
/// default 4 MiB frame cap.
pub const DEFAULT_UPLOAD_CHUNK: usize = 256 << 10;

/// One protocol connection. Requests are answered in order; every call
/// writes one line and blocks for one response line.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
    token: Option<String>,
}

impl Client {
    /// Connects to `addr` (`host:port` or `unix:/path`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::over(Stream::connect(addr)?)
    }

    /// Dials `addr` once, giving up after `timeout`, and bounds every
    /// read and write on the connection by the same `timeout` — the
    /// federation coordinator's view of a worker: a dead one is refused
    /// at once, a black-holed or hung one costs at most `timeout` per
    /// step, and either becomes a retryable I/O error.
    pub(crate) fn connect_bounded(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        let mut client = Client::over(Stream::dial(addr, Some(timeout))?)?;
        client.set_timeout(Some(timeout))?;
        Ok(client)
    }

    fn over(stream: Stream) -> std::io::Result<Client> {
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, token: None })
    }

    /// [`Client::connect`] retrying for up to `patience` (for scripts that
    /// race a freshly spawned daemon's bind).
    pub fn connect_with_patience(addr: &str, patience: Duration) -> std::io::Result<Client> {
        let deadline = std::time::Instant::now() + patience;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// Attaches the auth token sent (by [`Client::request`]) with every
    /// subsequent request against a `--token`-protected daemon.
    pub fn set_token(&mut self, token: Option<String>) {
        self.token = token;
    }

    /// Bounds every subsequent read and write on this connection.
    /// `None` restores fully blocking I/O.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
    }

    /// Sends one raw request line and returns the raw response line.
    pub fn request_line(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.trim().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("sending request: {e}"))?;
        let mut response = String::new();
        let n =
            self.reader.read_line(&mut response).map_err(|e| format!("reading response: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(response.trim().to_string())
    }

    /// Sends a request value and parses the response. The configured
    /// token (if any) is injected unless the request already carries one.
    pub fn request(&mut self, request: &Json) -> Result<Json, String> {
        let line = match &self.token {
            Some(token) if request.get("token").is_none() => {
                request.clone().with("token", Json::str(token.clone())).render()
            }
            _ => request.render(),
        };
        let line = self.request_line(&line)?;
        Json::parse(&line).map_err(|e| format!("invalid response JSON: {e} in {line}"))
    }

    /// Builds a request envelope for `op` (protocol version included).
    pub fn request_for(op: &str) -> Json {
        Json::obj().with("v", Json::u64(PROTOCOL_VERSION)).with("op", Json::str(op))
    }

    /// Uploads the graph file at `path` into the daemon's catalog as
    /// `name` via the chunked v2 `upload` op: the graph is loaded
    /// locally to compute the expected [`graph_digest`], the raw file
    /// bytes are streamed in `chunk_bytes`-sized base64 frames (resuming
    /// from the server's reported offset when a previous attempt was cut
    /// off), and the commit response — returned here — proves the
    /// daemon's copy digests identically. `format` names the file's
    /// storage format (`text`/`bin`/`sgr`), else it is inferred from
    /// `path`.
    pub fn upload(
        &mut self,
        name: &str,
        path: &str,
        format: Option<&str>,
        chunk_bytes: usize,
    ) -> Result<Json, String> {
        let graph = sg_core::catalog::load_graph(path, format, false)?;
        let digest = format!("{:016x}", graph_digest(&graph));
        drop(graph);
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        // The declared format must survive the server-side reload of the
        // spool (whose temp path has no useful extension), so resolve it
        // from the path now rather than letting the server guess.
        let format = sg_core::GraphFormat::resolve(path, format)?.name();
        let begin = self.request(
            &Client::request_for("upload")
                .with("name", Json::str(name))
                .with("phase", Json::str("begin"))
                .with("total_bytes", Json::u64(bytes.len() as u64))
                .with("digest", Json::str(digest))
                .with("format", Json::str(format)),
        )?;
        if begin.get("ok") != Some(&Json::Bool(true)) {
            return Ok(begin); // surface the server's error envelope
        }
        let mut offset = begin.get("offset").and_then(Json::as_u64).unwrap_or(0) as usize;
        let chunk_bytes = chunk_bytes.max(1);
        while offset < bytes.len() {
            let end = (offset + chunk_bytes).min(bytes.len());
            let response = self.request(
                &Client::request_for("upload")
                    .with("name", Json::str(name))
                    .with("phase", Json::str("chunk"))
                    .with("offset", Json::u64(offset as u64))
                    .with("data", Json::str(b64::encode(&bytes[offset..end]))),
            )?;
            if response.get("ok") != Some(&Json::Bool(true)) {
                return Ok(response);
            }
            offset = response.get("received").and_then(Json::as_u64).unwrap_or(end as u64) as usize;
        }
        self.request(
            &Client::request_for("upload")
                .with("name", Json::str(name))
                .with("phase", Json::str("commit")),
        )
    }
}
