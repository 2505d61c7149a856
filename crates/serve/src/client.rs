//! A small blocking client for the serving protocol.
//!
//! Used by `ltt client`, the `loadgen` load generator, and the
//! integration tests (the router talks to its backends through
//! [`Backend::rpc`](crate::Backend::rpc) instead). One [`Client`] is one
//! connection; requests can be pipelined ([`Client::send`] several lines,
//! then [`Client::recv`] the replies) or issued RPC-style with
//! [`Client::call`].
//!
//! By default every operation blocks indefinitely — correct for a trusted
//! local daemon, wrong for a fleet where a backend can wedge. Use
//! [`Client::connect_timeout`] and [`Client::set_read_timeout`] (or the
//! CLI's `--timeout-ms`) to bound the wait: an expired timeout surfaces
//! as an [`io::Error`](std::io::Error) of kind
//! [`TimedOut`](std::io::ErrorKind::TimedOut) /
//! [`WouldBlock`](std::io::ErrorKind::WouldBlock), which callers can map
//! to a structured `timeout` error instead of hanging forever.

use crate::wire::{decode, Json};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking connection to an `ltt-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server, waiting as long as the OS allows.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a bound on the connection-establishment wait. Each
    /// resolved address gets up to `timeout`; the first success wins.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let mut last_err = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Client::from_stream(stream),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Bounds every subsequent [`recv`](Client::recv) (and the read half
    /// of [`call`](Client::call)): a server silent for `timeout` yields a
    /// `TimedOut`/`WouldBlock` error instead of blocking forever. `None`
    /// restores the unbounded default.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// The peer address of the underlying connection.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.writer.peer_addr()
    }

    /// Sends one request line without waiting for the reply.
    pub fn send(&mut self, request: &Json) -> std::io::Result<()> {
        writeln!(self.writer, "{}", request.encode())?;
        self.writer.flush()
    }

    /// Receives the next response line; `Ok(None)` on a clean EOF (the
    /// server closed the connection).
    ///
    /// With a read timeout armed, a mid-line timeout is an error — the
    /// connection's framing can no longer be trusted for pipelining, so
    /// callers should drop the client rather than retry the read.
    pub fn recv(&mut self) -> std::io::Result<Option<Json>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            return decode(line.trim())
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
        }
    }

    /// One request, one reply (the RPC shape).
    pub fn call(&mut self, request: &Json) -> std::io::Result<Json> {
        self.send(request)?;
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )
        })
    }
}

/// Whether an I/O error is a timeout expiring (as opposed to a transport
/// failure) — the read-timeout kinds differ across platforms.
pub fn is_timeout(error: &std::io::Error) -> bool {
    matches!(error.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock)
}
