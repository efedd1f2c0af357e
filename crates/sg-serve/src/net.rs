//! Transport abstraction: one listener/stream pair covering TCP and unix
//! domain sockets, so the server loop and the blocking client are written
//! once.
//!
//! Addresses are plain strings: `host:port` for TCP, `unix:/path/to.sock`
//! for unix sockets (rejected off unix targets).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// Prefix selecting the unix-socket transport in listen/connect strings.
pub const UNIX_PREFIX: &str = "unix:";

/// A connected byte stream over either transport.
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `addr` (`host:port` or `unix:/path`).
    pub fn connect(addr: &str) -> io::Result<Stream> {
        Stream::dial(addr, None)
    }

    /// [`Stream::connect`], giving up on a TCP address after `timeout`
    /// when one is set (a unix socket connects or fails at once, and a
    /// refused address fails at once either way).
    pub(crate) fn dial(addr: &str, timeout: Option<Duration>) -> io::Result<Stream> {
        if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            return Ok(Stream::Unix(UnixStream::connect(path)?));
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets are not available on this platform ({path})"),
            ));
        }
        let stream = match timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => tcp_within(addr, timeout)?,
        };
        // Request/response lines are tiny; Nagle + delayed ACK would add
        // ~40ms per turn on loopback.
        stream.set_nodelay(true)?;
        Ok(Stream::Tcp(stream))
    }

    /// An independently readable/writable handle to the same connection.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Bounds blocking reads so the server can poll its shutdown flag.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bounds blocking writes so a client that stops draining its receive
    /// buffer cannot pin a worker forever.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Half-closes the write side (FIN, not RST), so a final response line
    /// already in flight survives the close even if the peer writes
    /// afterwards.
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    /// Stable identity of the remote peer for quota accounting: the remote
    /// IP for TCP (port excluded — one user opens many connections), the
    /// literal `"unix"` for unix-domain peers (same-host trust domain).
    pub fn peer_id(&self) -> String {
        match self {
            Stream::Tcp(s) => {
                s.peer_addr().map_or_else(|_| "unknown".to_string(), |a| a.ip().to_string())
            }
            #[cfg(unix)]
            Stream::Unix(_) => "unix".to_string(),
        }
    }
}

/// `TcpStream::connect` with a per-address timeout: tries every address
/// `addr` resolves to, returning the last failure.
fn tcp_within(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last =
        io::Error::new(io::ErrorKind::InvalidInput, format!("{addr} resolves to no address"));
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound accept socket over either transport.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (keeps its path for cleanup and self-wake).
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    /// Binds `addr` (`host:port`, e.g. `127.0.0.1:0` for an ephemeral
    /// port, or `unix:/path`). A stale unix socket file is replaced.
    pub fn bind(addr: &str) -> io::Result<Listener> {
        if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                // A leftover socket file from a dead daemon would fail the
                // bind — but unconditionally unlinking would silently
                // strand a *live* daemon. Probe first: only a path nobody
                // answers on is stale and safe to remove.
                if std::path::Path::new(path).exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a daemon is already listening on {path}"),
                        ));
                    }
                    let _ = std::fs::remove_file(path);
                }
                return Ok(Listener::Unix(UnixListener::bind(path)?, path.to_string()));
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets are not available on this platform ({path})"),
            ));
        }
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// The connectable address of this listener (resolved ephemeral port
    /// for TCP, `unix:/path` for unix).
    pub fn local_addr(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(format!("{UNIX_PREFIX}{path}")),
        }
    }

    /// Blocks for the next connection.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true); // small-frame protocol, see connect()
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_roundtrip_on_ephemeral_port() {
        let listener = Listener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            let mut buf = [0u8; 4];
            conn.read_exact(&mut buf).expect("read");
            conn.write_all(&buf).expect("echo");
        });
        let mut client = Stream::connect(&addr).expect("connect");
        client.write_all(b"ping").expect("send");
        let mut back = [0u8; 4];
        client.read_exact(&mut back).expect("recv");
        assert_eq!(&back, b"ping");
        server.join().expect("server thread");
    }

    #[cfg(unix)]
    #[test]
    fn binding_over_a_live_unix_socket_is_refused() {
        let dir = std::env::temp_dir().join("sg-serve-net-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("live.sock");
        let addr = format!("unix:{}", path.display());
        let first = Listener::bind(&addr).expect("first bind");
        let err = match Listener::bind(&addr) {
            Err(err) => err,
            Ok(_) => panic!("second bind over a live socket must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        assert!(path.exists(), "the live daemon's socket file must survive");
        drop(first);
        // A *stale* file (nobody listening) is replaced silently.
        std::os::unix::net::UnixListener::bind(&path).expect("recreate file");
        // (listener dropped immediately: the file is now stale)
        let rebound = Listener::bind(&addr).expect("stale socket is reclaimed");
        drop(rebound);
    }

    #[cfg(unix)]
    #[test]
    fn unix_roundtrip_and_socket_file_cleanup() {
        let dir = std::env::temp_dir().join("sg-serve-net-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("echo.sock");
        let addr = format!("unix:{}", path.display());
        let listener = Listener::bind(&addr).expect("bind");
        assert_eq!(listener.local_addr().expect("addr"), addr);
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            let mut buf = [0u8; 2];
            conn.read_exact(&mut buf).expect("read");
            conn.write_all(&buf).expect("echo");
            // listener drops here
        });
        let mut client = Stream::connect(&addr).expect("connect");
        client.write_all(b"ok").expect("send");
        let mut back = [0u8; 2];
        client.read_exact(&mut back).expect("recv");
        server.join().expect("server thread");
        assert!(!path.exists(), "socket file removed on listener drop");
    }
}
