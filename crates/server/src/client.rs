//! A blocking, connection-reusing client for `cc-server`.
//!
//! One [`Client`] owns one TCP connection and a pair of reusable
//! encode/decode buffers; every call is a single request/response
//! round-trip on that connection, so a loop of operations allocates
//! nothing in steady state. The client is deliberately synchronous — it
//! is the building block of the load generator and the integration
//! tests, and N concurrent clients are N `Client` values on N threads.
//!
//! Every request frame carries a `seq` tag the server echoes on the
//! response; the simple call API verifies the echo, and the **pipelined
//! mode** ([`Client::pipeline_send`] / [`Client::pipeline_recv`], with
//! [`Pipeline`] doing the exactly-once window bookkeeping) issues a
//! window of tagged requests before reaping any responses — one
//! connection, many requests in flight, no per-request round-trip
//! stall. Pipelined I/O bypasses the retry policy: a failure mid-window
//! leaves in-flight requests in an unknown state that only the caller
//! can reconcile.
//!
//! A server answering `BUSY` closes the connection, and a saturated or
//! briefly unreachable server surfaces as a connect/read failure. Both
//! are *transient*: [`Client::with_retry`] arms a bounded
//! retry-with-exponential-backoff loop (reconnecting between attempts)
//! so a caller rides out short saturation windows with a hard bound on
//! total wait. The default policy is a single attempt — errors surface
//! immediately, exactly as before.

use crate::frame::{self, FrameError};
use crate::proto::{ProtoError, Request, Response, Status};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bounded retry policy for transient failures (`BUSY` answers,
/// connect/read timeouts, connection resets).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per call (first try + retries); clamped ≥ 1.
    pub attempts: u32,
    /// Backoff before retry `n` is `base_delay << (n - 1)`.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    /// One attempt: no retry, errors surface immediately.
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// The worst-case total time spent sleeping between attempts (the
    /// hard bound a caller of a saturated server is promised, excluding the
    /// per-attempt I/O time itself).
    pub fn max_backoff_total(&self) -> Duration {
        let mut total = Duration::ZERO;
        for attempt in 1..self.attempts.max(1) {
            total += backoff(self.base_delay, attempt);
        }
        total
    }
}

/// Backoff before retry `attempt` (1-based): exponential, capped so a
/// huge attempt count cannot overflow into an absurd sleep.
fn backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << (attempt - 1).min(10))
}

/// Transient transport failures worth a reconnect-and-retry: the server
/// closing a rejected connection, a connect refused while the accept
/// loop is wedged, or a read/connect timeout.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::UnexpectedEof
    )
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes the server closing mid-response).
    Io(io::Error),
    /// The server answered `BUSY`: it is at its connection cap and the
    /// request was not executed. Retry later, ideally with backoff.
    Busy,
    /// The server answered `ERR` with this message.
    Server(String),
    /// The response violated the protocol (bad frame, unknown status,
    /// unexpected payload shape).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Busy => write!(f, "server busy: connection cap reached"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// A blocking connection to a `cc-server`.
pub struct Client {
    stream: TcpStream,
    /// Resolved peer address, kept for retry reconnects (the server
    /// closes a connection it answered `BUSY`).
    addr: SocketAddr,
    /// Request body staging (reused).
    send: Vec<u8>,
    /// Response body landing zone (reused).
    recv: Vec<u8>,
    max_frame: usize,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    /// Next request tag; `0` is reserved for unsolicited server frames.
    next_seq: u32,
}

impl Client {
    /// Connect. `TCP_NODELAY` is set — every call is a full round-trip.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            addr,
            send: Vec::new(),
            recv: Vec::new(),
            max_frame: frame::DEFAULT_MAX_FRAME,
            timeout: None,
            retry: RetryPolicy::default(),
            next_seq: 1,
        })
    }

    /// Allocate the next request tag, skipping the reserved `0`.
    fn alloc_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq = match self.next_seq.wrapping_add(1) {
            frame::SEQ_UNSOLICITED => 1,
            n => n,
        };
        seq
    }

    /// Cap the response frames this client will accept.
    pub fn with_max_frame(mut self, bytes: usize) -> Client {
        self.max_frame = bytes.max(frame::LEN_PREFIX);
        self
    }

    /// Arm bounded retry-with-backoff on `BUSY` answers and transient
    /// transport failures: up to `attempts` total tries per call, with
    /// exponential backoff starting at `base_delay` and a reconnect
    /// before each retry. Total sleep is bounded by
    /// [`RetryPolicy::max_backoff_total`].
    pub fn with_retry(mut self, attempts: u32, base_delay: Duration) -> Client {
        self.retry = RetryPolicy {
            attempts: attempts.max(1),
            base_delay,
        };
        self
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Bound how long a call may wait on the server before erroring
    /// with a timeout (`None` = wait forever, the default). Survives
    /// retry reconnects.
    pub fn set_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.timeout = t;
        self.stream.set_read_timeout(t)?;
        self.stream.set_write_timeout(t)
    }

    /// Replace the connection ahead of a retry (the server closes
    /// `BUSY` connections, and a torn stream can't be reused).
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = match self.timeout {
            Some(t) => TcpStream::connect_timeout(&self.addr, t)?,
            None => TcpStream::connect(self.addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        self.stream = stream;
        Ok(())
    }

    /// One wire round-trip; the response body lands in `self.recv`.
    /// The response must echo the request's tag — the only unsolicited
    /// frames (tag 0) a server sends are `BUSY`/`ERR` ahead of a close,
    /// which map to their own outcomes.
    fn call_once(&mut self, req: &Request<'_>) -> Result<Status, ClientError> {
        let seq = self.alloc_seq();
        self.send.clear();
        req.encode(&mut self.send);
        frame::write_frame(&mut self.stream, seq, &self.send)?;
        let resp_seq = frame::read_frame(&mut self.stream, &mut self.recv, self.max_frame)?;
        let status = Response::decode(&self.recv)?.status;
        if resp_seq != seq
            && !(resp_seq == frame::SEQ_UNSOLICITED && matches!(status, Status::Busy | Status::Err))
        {
            return Err(ClientError::Protocol(format!(
                "response tag mismatch: sent {seq}, got {resp_seq}"
            )));
        }
        Ok(status)
    }

    /// Pipelined send: encode and write one tagged request *without*
    /// waiting for its response, returning the tag to reap later with
    /// [`Client::pipeline_recv`]. No retry is applied.
    pub fn pipeline_send(&mut self, req: &Request<'_>) -> Result<u32, ClientError> {
        let seq = self.alloc_seq();
        self.send.clear();
        req.encode(&mut self.send);
        frame::write_frame(&mut self.stream, seq, &self.send)?;
        Ok(seq)
    }

    /// Pipelined receive: read the next tagged response, leaving its
    /// payload in `out` (cleared first). Returns `(seq, status)`; the
    /// caller matches `seq` against its outstanding window (see
    /// [`Pipeline`]). An unsolicited `BUSY` (tag 0) surfaces as
    /// [`ClientError::Busy`].
    pub fn pipeline_recv(&mut self, out: &mut Vec<u8>) -> Result<(u32, Status), ClientError> {
        let seq = frame::read_frame(&mut self.stream, &mut self.recv, self.max_frame)?;
        let resp = Response::decode(&self.recv)?;
        if seq == frame::SEQ_UNSOLICITED {
            return match resp.status {
                Status::Busy => Err(ClientError::Busy),
                Status::Err => Err(ClientError::Server(
                    String::from_utf8_lossy(resp.payload).into_owned(),
                )),
                other => Err(ClientError::Protocol(format!(
                    "unsolicited response with status {other:?}"
                ))),
            };
        }
        out.clear();
        out.extend_from_slice(resp.payload);
        Ok((seq, resp.status))
    }

    /// Round-trip with the retry policy applied: `BUSY` answers and
    /// transient transport errors reconnect and try again (with
    /// backoff) until the attempts run out; the last outcome is then
    /// returned as-is. The response body is left in `self.recv`.
    fn call(&mut self, req: &Request<'_>) -> Result<Status, ClientError> {
        let attempts = self.retry.attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let outcome = self.call_once(req);
            let retryable = match &outcome {
                Ok(Status::Busy) => true,
                Err(ClientError::Io(e)) => is_transient(e),
                _ => false,
            };
            if !retryable || attempt >= attempts {
                return outcome;
            }
            std::thread::sleep(backoff(self.retry.base_delay, attempt));
            if let Err(e) = self.reconnect() {
                if !is_transient(&e) {
                    return Err(ClientError::Io(e));
                }
                // A transient reconnect failure consumes the next
                // attempt too; keep the loop bounded.
                if attempt + 1 >= attempts {
                    return Err(ClientError::Io(e));
                }
                attempt += 1;
            }
        }
    }

    /// The response payload from the last [`Client::call`].
    fn payload(&self) -> Result<&[u8], ClientError> {
        Ok(Response::decode(&self.recv)?.payload)
    }

    /// Common tail: map `BUSY`/`ERR` to errors, pass anything else on.
    fn expect_plain(&self, status: Status) -> Result<Status, ClientError> {
        match status {
            Status::Busy => Err(ClientError::Busy),
            Status::Err => Err(ClientError::Server(
                String::from_utf8_lossy(self.payload()?).into_owned(),
            )),
            other => Ok(other),
        }
    }

    /// Store `page` under `key`.
    pub fn put(&mut self, key: u64, page: &[u8]) -> Result<(), ClientError> {
        let status = self.call(&Request::Put { key, page })?;
        match self.expect_plain(status)? {
            Status::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected PUT status {other:?}"
            ))),
        }
    }

    /// Fetch `key` into `out` (resized to the page). Returns `false` on
    /// a miss.
    pub fn get(&mut self, key: u64, out: &mut Vec<u8>) -> Result<bool, ClientError> {
        let status = self.call(&Request::Get { key })?;
        match self.expect_plain(status)? {
            Status::Ok => {
                out.clear();
                out.extend_from_slice(self.payload()?);
                Ok(true)
            }
            Status::NotFound => Ok(false),
            other => Err(ClientError::Protocol(format!(
                "unexpected GET status {other:?}"
            ))),
        }
    }

    /// Remove `key`. Returns whether it existed.
    pub fn del(&mut self, key: u64) -> Result<bool, ClientError> {
        let status = self.call(&Request::Del { key })?;
        match self.expect_plain(status)? {
            Status::Ok => Ok(true),
            Status::NotFound => Ok(false),
            other => Err(ClientError::Protocol(format!(
                "unexpected DEL status {other:?}"
            ))),
        }
    }

    /// Block until the server's store has drained its spill writer.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        let status = self.call(&Request::Flush)?;
        match self.expect_plain(status)? {
            Status::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected FLUSH status {other:?}"
            ))),
        }
    }

    /// Round-trip probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let status = self.call(&Request::Ping)?;
        match self.expect_plain(status)? {
            Status::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected PING status {other:?}"
            ))),
        }
    }

    /// The server's telemetry snapshot in Prometheus text format
    /// (store metrics under `cc_store_*`, wire metrics under
    /// `cc_server_*`).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let status = self.call(&Request::Stats)?;
        match self.expect_plain(status)? {
            Status::Ok => String::from_utf8(self.payload()?.to_vec())
                .map_err(|_| ClientError::Protocol("STATS payload is not UTF-8".into())),
            other => Err(ClientError::Protocol(format!(
                "unexpected STATS status {other:?}"
            ))),
        }
    }

    /// An on-demand flight-recorder dump: recent spans and anomaly
    /// events as a JSON document. An untraced server answers `{}`.
    pub fn dump(&mut self) -> Result<String, ClientError> {
        let status = self.call(&Request::Dump)?;
        match self.expect_plain(status)? {
            Status::Ok => String::from_utf8(self.payload()?.to_vec())
                .map_err(|_| ClientError::Protocol("DUMP payload is not UTF-8".into())),
            other => Err(ClientError::Protocol(format!(
                "unexpected DUMP status {other:?}"
            ))),
        }
    }
}

/// Window bookkeeping for pipelined calls on one [`Client`]: tracks the
/// outstanding tags and enforces that every response reaps exactly one
/// of them — a duplicate, unknown, or already-reaped tag is a protocol
/// violation. Responses may complete in any order.
#[derive(Debug, Default)]
pub struct Pipeline {
    outstanding: std::collections::HashSet<u32>,
}

impl Pipeline {
    /// An empty window.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Requests sent and not yet reaped.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Send one tagged request into the window.
    pub fn send(&mut self, client: &mut Client, req: &Request<'_>) -> Result<u32, ClientError> {
        let seq = client.pipeline_send(req)?;
        if !self.outstanding.insert(seq) {
            return Err(ClientError::Protocol(format!(
                "tag {seq} reused while still in flight"
            )));
        }
        Ok(seq)
    }

    /// Reap one response from the window (any completion order). The
    /// payload lands in `out`; the returned tag identifies which
    /// request completed.
    pub fn recv(
        &mut self,
        client: &mut Client,
        out: &mut Vec<u8>,
    ) -> Result<(u32, Status), ClientError> {
        let (seq, status) = client.pipeline_recv(out)?;
        if !self.outstanding.remove(&seq) {
            return Err(ClientError::Protocol(format!(
                "response tag {seq} was not in flight (duplicate or unknown)"
            )));
        }
        Ok((seq, status))
    }
}
