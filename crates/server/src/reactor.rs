//! The server's engine: a reactor is one thread, a readiness loop, and
//! a per-connection state machine; a server runs one reactor per CPU.
//!
//! A reactor multiplexes its connections over a nonblocking readiness
//! loop ([`crate::event::EventBackend`]): sockets are only touched when
//! the kernel says they are ready, so ten thousand idle connections
//! cost ten thousand fds and some buffer bytes — not ten thousand
//! threads.
//!
//! Every reactor registers its own clone of the one listening socket,
//! but only while no other reactor holds fewer connections: left to
//! race, the thread that wakes first drains a whole connect burst before
//! its peers are scheduled, and every connection lands on one core. The
//! kernel wakes all listening reactors on a pending connection; each
//! accepts at most one per wake-up, and a reactor that loses the race
//! sees `WouldBlock`. A connection stays on the reactor that accepted
//! it for its whole life, so no connection state is shared between
//! threads — only the [`Service`] (striped counters, the global
//! admission count) and the store.
//!
//! Each connection walks the classic state machine
//!
//! ```text
//!   ReadHeader → ReadBody → Execute → WriteResponse
//!        ^                               |
//!        +------------- next frame ------+
//! ```
//!
//! driven by the total decoders in [`crate::frame`] and
//! [`crate::proto`]. Because input is parsed out of an accumulation
//! buffer, the protocol is naturally **pipelined**: a burst of `W`
//! tagged request frames is executed back-to-back and the `W` tagged
//! responses are staged into one write buffer — no per-request
//! round-trip, no reordering hazard (each response carries its
//! request's `seq`).
//!
//! Operational contract, checked by the integration suite on both the
//! epoll and the poll(2) backend:
//!
//! - **Counted admission** — at most [`crate::ServerConfig::max_conns`]
//!   connections across all reactors; the next accept is answered
//!   `BUSY` (tag 0) and closed.
//! - **Idle timeout** — wall-clock, enforced by a coarse timer wheel;
//!   an idle connection is closed and counted once.
//! - **Malformed input** — counts, best-effort `ERR`, close. Nothing on
//!   the wire can panic the reactor.
//! - **Backpressure** — a peer that writes requests but never reads
//!   responses stops being parsed (and read) once
//!   [`WRITE_BACKPRESSURE`] bytes of responses are queued; parsing
//!   resumes as its buffer drains.
//! - **Buffer hygiene** — after a burst, read/write buffers above
//!   [`crate::ServerConfig::buffer_high_water`] are shrunk back, so one
//!   max-size frame does not pin its worst-case allocation per
//!   connection forever.
//! - **Graceful shutdown** — stop accepting, finish every started
//!   frame, flush every staged response, then close; bounded by a drain
//!   deadline.

use crate::event::{new_backend, BackendKind, Event, EventBackend, Interest, WakeHandle, Waker};
use crate::frame::{self, FrameError, HEADER_LEN, SEQ_UNSOLICITED};
use crate::proto::{Request, Status};
use crate::service::Service;
use crate::ServerConfig;
use cc_telemetry::trace::{sop, tier as trace_tier, AnomalyKind, Span};
use cc_util::Slab;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registration token of the accept listener.
const TOKEN_LISTENER: usize = usize::MAX;
/// Registration token of the shutdown waker.
const TOKEN_WAKER: usize = usize::MAX - 1;
/// Socket read granularity: bytes appended to the accumulation buffer
/// per `read` call.
const READ_CHUNK: usize = 16 << 10;
/// Staged-response bytes beyond which a connection stops being read
/// and parsed until the peer drains its responses.
pub(crate) const WRITE_BACKPRESSURE: usize = 1 << 20;
/// Hard cap on how long a drain-shutdown waits for started frames.
const DRAIN_CAP: Duration = Duration::from_secs(5);

/// Malformed-frame classes (the `b` value of a `malformed` wire event).
pub(crate) mod malformed_class {
    /// EOF inside a frame (truncated header or body).
    pub const TRUNCATED: u64 = 1;
    /// Length prefix above the configured frame ceiling.
    pub const OVERSIZED: u64 = 2;
    /// Frame arrived whole but the body failed protocol decoding.
    pub const UNDECODABLE: u64 = 3;
}

/// Where a connection is in its request cycle (observable in tests;
/// the transitions are the documented state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for (the rest of) an 8-byte frame header.
    ReadHeader,
    /// Header complete; waiting for the declared body bytes.
    ReadBody,
    /// Responses staged and not yet fully written.
    WriteResponse,
}

/// Why a connection is being torn down (close-side accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// Peer closed cleanly between frames.
    Peer,
    /// Idle deadline expired.
    Idle,
    /// Server shutting down.
    Shutdown,
    /// Framing or protocol violation.
    Malformed,
    /// Transport error.
    Error,
}

/// The socket-independent half of a connection: buffers, the parse
/// cursor, and the state machine. Split out so the frame-walking logic
/// is unit-testable without a live socket.
pub(crate) struct Wire {
    /// Accumulated unparsed input; `rpos..len` is live.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Staged responses; `wpos..len` is unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests executed on this connection.
    requests: u64,
    state: ConnState,
}

impl Wire {
    pub(crate) fn new() -> Wire {
        Wire {
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            requests: 0,
            state: ConnState::ReadHeader,
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn state(&self) -> ConnState {
        self.state
    }

    pub(crate) fn requests(&self) -> u64 {
        self.requests
    }

    /// Response bytes staged and not yet written to the socket.
    pub(crate) fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether unparsed input remains (after [`Wire::drain_requests`],
    /// anything left is a partial frame — or frames parked behind
    /// backpressure).
    pub(crate) fn has_unparsed(&self) -> bool {
        self.rpos < self.rbuf.len()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn read_buf_capacity(&self) -> usize {
        self.rbuf.capacity()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn write_buf_capacity(&self) -> usize {
        self.wbuf.capacity()
    }

    /// Append raw bytes as if read from the socket (tests and the
    /// socket read path both land here).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn ingest(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
    }

    /// Reserve `READ_CHUNK` spare bytes and return the writable tail
    /// for a socket read; pair with [`Wire::commit`].
    fn read_tail(&mut self) -> &mut [u8] {
        let old = self.rbuf.len();
        self.rbuf.resize(old + READ_CHUNK, 0);
        &mut self.rbuf[old..]
    }

    /// Keep `n` bytes of the tail handed out by [`Wire::read_tail`].
    fn commit(&mut self, n: usize) {
        let len = self.rbuf.len();
        self.rbuf.truncate(len - READ_CHUNK + n);
    }

    /// Parse and execute every complete frame currently buffered,
    /// staging tagged responses. Stops early under write backpressure.
    /// Returns the close reason when the stream is unrecoverable
    /// (malformed input) — the staged `ERR` still flushes first.
    pub(crate) fn drain_requests(
        &mut self,
        service: &Service,
        cfg: &ServerConfig,
        stripe: usize,
        conn_id: u64,
        scratch: &mut Vec<u8>,
    ) -> Option<CloseReason> {
        let fail = loop {
            if self.pending_out() > WRITE_BACKPRESSURE {
                break None;
            }
            let parsed = match frame::parse_frame(&self.rbuf[self.rpos..], cfg.max_frame_bytes) {
                Ok(Some(p)) => p,
                Ok(None) => break None,
                Err(FrameError::Oversized { .. }) => {
                    // The header (and so the tag) is visible whenever
                    // at least 8 bytes arrived; echo it if we can.
                    let avail = &self.rbuf[self.rpos..];
                    let seq = if avail.len() >= HEADER_LEN {
                        u32::from_le_bytes(avail[4..8].try_into().expect("checked length"))
                    } else {
                        SEQ_UNSOLICITED
                    };
                    service.malformed(stripe, conn_id, malformed_class::OVERSIZED);
                    self.stage_err(seq, "frame exceeds size limit");
                    break Some(CloseReason::Malformed);
                }
                Err(_) => unreachable!("parse_frame only fails Oversized"),
            };
            let body = &self.rbuf[self.rpos + parsed.body.start..self.rpos + parsed.body.end];
            match Request::decode(body) {
                Ok(req) => {
                    let op = req.opcode();
                    let t0 = Instant::now();
                    let (status, tctx) = service.handle(stripe, conn_id, &req, scratch);
                    let f0 = tctx.sampled().then(Instant::now);
                    frame::append_frame(&mut self.wbuf, parsed.seq, 1 + scratch.len(), |b| {
                        b.push(status as u8);
                        b.extend_from_slice(scratch);
                    });
                    if let (Some(tr), Some(f0)) = (service.tracer(), f0) {
                        // Reply flush on this backend is the staging of
                        // the tagged frame; the socket write happens
                        // asynchronously when the peer is writable.
                        tr.record(
                            stripe,
                            &Span {
                                trace_id: tctx.trace_id,
                                span_id: tr.alloc_span(),
                                parent: tctx.parent_span,
                                op: sop::REPLY_FLUSH,
                                tier: trace_tier::NONE,
                                codec: op as u8,
                                status: status as u8,
                                start_ns: tr.now_ns(f0),
                                queue_ns: 0,
                                service_ns: f0.elapsed().as_nanos() as u64,
                                arg: (1 + scratch.len()) as u64,
                            },
                        );
                    }
                    service.record_latency(op, t0.elapsed().as_nanos() as u64, tctx.trace_id);
                    self.requests += 1;
                    self.rpos += parsed.consumed;
                }
                Err(e) => {
                    service.malformed(stripe, conn_id, malformed_class::UNDECODABLE);
                    self.stage_err(parsed.seq, &e.to_string());
                    self.rpos += parsed.consumed;
                    break Some(CloseReason::Malformed);
                }
            }
        };
        self.update_state();
        fail
    }

    /// The peer half-closed its stream. A partial frame left behind is
    /// a truncation (counted, answered `ERR`); complete silence between
    /// frames is a clean close.
    pub(crate) fn note_eof(
        &mut self,
        service: &Service,
        stripe: usize,
        conn_id: u64,
    ) -> CloseReason {
        if self.has_unparsed() {
            service.malformed(stripe, conn_id, malformed_class::TRUNCATED);
            self.stage_err(SEQ_UNSOLICITED, "truncated frame");
            CloseReason::Malformed
        } else {
            CloseReason::Peer
        }
    }

    fn stage_err(&mut self, seq: u32, msg: &str) {
        frame::append_frame(&mut self.wbuf, seq, 1 + msg.len(), |b| {
            b.push(Status::Err as u8);
            b.extend_from_slice(msg.as_bytes());
        });
        self.update_state();
    }

    fn update_state(&mut self) {
        let unparsed = self.rbuf.len() - self.rpos;
        self.state = if unparsed >= HEADER_LEN {
            // A complete header is buffered: we are mid-body (either
            // waiting for bytes or parked behind backpressure).
            ConnState::ReadBody
        } else if unparsed > 0 {
            ConnState::ReadHeader
        } else if self.pending_out() > 0 {
            ConnState::WriteResponse
        } else {
            ConnState::ReadHeader
        };
    }

    /// Compact the consumed read prefix and shrink over-grown buffers
    /// back to the configured high-water mark once they empty.
    pub(crate) fn housekeeping(&mut self, high_water: usize) {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        frame::shrink_to_high_water(&mut self.rbuf, high_water);
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            frame::shrink_to_high_water(&mut self.wbuf, high_water);
        }
    }

    /// Flush staged responses to `w` until done or `WouldBlock`.
    /// `Ok(true)` means everything staged has been written.
    fn flush_to(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match w.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    conn_id: u64,
    wire: Wire,
    interest: Interest,
    last_active: Instant,
    /// Set when the connection must close as soon as its staged output
    /// flushes.
    close_after_flush: Option<CloseReason>,
    /// When this connection was parked behind write backpressure
    /// (parsing paused); reset on any flush progress. Tracing only.
    parked_since: Option<Instant>,
    /// Pending output observed when the park episode started (or last
    /// made progress) — the stall sweep compares against it.
    parked_pending: usize,
    /// A backpressure-stall anomaly already fired for this episode.
    stall_reported: bool,
}

/// The readiness loop. Owns its listener clone, its registered
/// connections, and its timer wheel; runs on one dedicated thread.
pub(crate) struct Reactor {
    /// This reactor's telemetry stripe (and its index in the server).
    stripe: usize,
    backend: Box<dyn EventBackend>,
    listener: Option<TcpListener>,
    /// The listener is registered with `backend` (see
    /// [`Reactor::balance_accept`]).
    listening: bool,
    waker: Waker,
    service: Arc<Service>,
    cfg: Arc<ServerConfig>,
    shutdown: Arc<AtomicBool>,
    conns: Slab<Conn>,
    wheel: TimerWheel,
    scratch: Vec<u8>,
    events: Vec<Event>,
    draining: bool,
    drain_deadline: Instant,
}

impl Reactor {
    /// Build the reactor: nonblocking listener + waker registered with
    /// the chosen readiness backend. Returns the waker handle the
    /// server uses to interrupt [`Reactor::run`] at shutdown.
    pub(crate) fn new(
        kind: BackendKind,
        stripe: usize,
        listener: TcpListener,
        service: Arc<Service>,
        cfg: Arc<ServerConfig>,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<(Reactor, crate::event::WakeHandle)> {
        listener.set_nonblocking(true)?;
        let mut backend = new_backend(kind)?;
        backend.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let waker = Waker::new()?;
        backend.register(waker.reader_fd(), TOKEN_WAKER, Interest::READ)?;
        let handle = waker.handle()?;
        let now = Instant::now();
        let wheel = TimerWheel::new(cfg.idle_timeout, now);
        Ok((
            Reactor {
                stripe,
                backend,
                listener: Some(listener),
                listening: true,
                waker,
                service,
                cfg,
                shutdown,
                conns: Slab::new(),
                wheel,
                scratch: Vec::new(),
                events: Vec::with_capacity(256),
                draining: false,
                drain_deadline: now,
            },
            handle,
        ))
    }

    /// Drive the loop until shutdown completes its drain. `peers` holds
    /// every reactor's wake handle, indexed by stripe.
    pub(crate) fn run(mut self, peers: Arc<[WakeHandle]>) {
        let mut expired: Vec<(usize, u64)> = Vec::new();
        loop {
            self.balance_accept(&peers);
            let timeout = self.wheel.granularity.min(Duration::from_millis(100));
            let mut events = std::mem::take(&mut self.events);
            if let Err(e) = self.backend.poll(&mut events, Some(timeout)) {
                // A failing poll leaves no readiness source at all;
                // treat it as fatal and drain out.
                debug_assert!(false, "event backend poll failed: {e}");
                self.shutdown.store(true, Ordering::Relaxed);
            }
            let mut accept_ready = false;
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.conn_ready(token, ev),
                }
            }
            events.clear();
            self.events = events;
            // Accept after serving existing connections: a token freed
            // and reused this batch must not see the old fd's events.
            if accept_ready && !self.draining {
                self.accept_ready();
            }

            let now = Instant::now();
            if !self.draining && self.shutdown.load(Ordering::Relaxed) {
                self.begin_drain(now);
            }
            self.tick_timers(now, &mut expired);
            self.sweep_stalled_parks(now);
            if self.draining {
                if self.conns.is_empty() {
                    break;
                }
                if now >= self.drain_deadline {
                    let tokens: Vec<usize> = self.conns.iter().map(|(t, _)| t).collect();
                    for t in tokens {
                        self.close(t, CloseReason::Shutdown);
                    }
                    break;
                }
            }
        }
    }

    /// Accept one pending connection, applying the server-wide
    /// admission cap. One per wake-up, so [`Reactor::balance_accept`]
    /// runs between accepts; the listener is level-triggered, so the rest
    /// of a burst is still reported ready.
    fn accept_ready(&mut self) {
        let Some(listener) = self.listener.as_ref() else {
            return;
        };
        // Errors (`WouldBlock`, or a connection reset before accept)
        // leave nothing to do until the next readiness.
        if let Ok((stream, _)) = listener.accept() {
            if self.service.try_admit(self.cfg.max_conns) {
                self.admit(stream);
            } else {
                self.reject_busy(stream);
            }
        }
    }

    /// Listen only while no other reactor holds fewer connections. Some
    /// reactor always holds the fewest, so some reactor always listens:
    /// one that stops wakes its peers, which re-check before their next
    /// poll. Connects arriving in between wait in the kernel's queue.
    fn balance_accept(&mut self, peers: &[WakeHandle]) {
        let Some(listener) = self.listener.as_ref() else {
            return;
        };
        let mine = self.service.reactor_load(self.stripe);
        let fewest = (0..peers.len()).all(|r| self.service.reactor_load(r) >= mine);
        if fewest == self.listening {
            return;
        }
        let fd = listener.as_raw_fd();
        let changed = if fewest {
            self.backend.register(fd, TOKEN_LISTENER, Interest::READ)
        } else {
            self.backend.deregister(fd)
        };
        if changed.is_ok() {
            self.listening = fewest;
            if !fewest {
                for (r, peer) in peers.iter().enumerate() {
                    if r != self.stripe {
                        peer.wake();
                    }
                }
            }
        }
    }

    /// Over-admission answer: `BUSY` (tag 0), then close. The socket
    /// was just accepted, so the best-effort write into an empty send
    /// buffer does not block the loop.
    fn reject_busy(&mut self, mut stream: TcpStream) {
        let conn_id = self.service.next_conn_id();
        self.service.busy_rejected(self.stripe, conn_id);
        let _ = stream.set_nonblocking(true);
        let _ = frame::write_frame(&mut stream, SEQ_UNSOLICITED, &[Status::Busy as u8]);
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// Register an admitted connection (its slot is already reserved).
    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.service.cancel_admission();
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn_id = self.service.next_conn_id();
        let now = Instant::now();
        let token = self.conns.insert(Conn {
            stream,
            conn_id,
            wire: Wire::new(),
            interest: Interest::READ,
            last_active: now,
            close_after_flush: None,
            parked_since: None,
            parked_pending: 0,
            stall_reported: false,
        });
        let fd = self.conns[token].stream.as_raw_fd();
        if self.backend.register(fd, token, Interest::READ).is_err() {
            // Registration failure: the connection was never served.
            self.conns.remove(token);
            self.service.cancel_admission();
            return;
        }
        self.service.conn_opened(self.stripe, conn_id);
        self.wheel
            .schedule(now + self.cfg.idle_timeout, token, conn_id);
    }

    /// Dispatch readiness on a connection token. Stale tokens (closed
    /// earlier in this batch) are skipped.
    fn conn_ready(&mut self, token: usize, ev: Event) {
        if !self.conns.contains(token) {
            return;
        }
        if ev.error {
            self.close(token, CloseReason::Error);
            return;
        }
        let mut eof = false;
        if ev.readable {
            let conn = &mut self.conns[token];
            // Don't grow the buffer for a peer we've stopped serving.
            if conn.close_after_flush.is_none() {
                conn.last_active = Instant::now();
                loop {
                    let tail = conn.wire.read_tail();
                    match conn.stream.read(tail) {
                        Ok(0) => {
                            conn.wire.commit(0);
                            eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.wire.commit(n);
                            if conn.wire.pending_out() > WRITE_BACKPRESSURE {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            conn.wire.commit(0);
                            break;
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {
                            conn.wire.commit(0);
                        }
                        Err(_) => {
                            conn.wire.commit(0);
                            self.close(token, CloseReason::Error);
                            return;
                        }
                    }
                }
            }
        }
        self.advance(token, eof);
    }

    /// Execute buffered frames, flush staged responses, settle interest
    /// and close state. The one place every connection event funnels
    /// through.
    fn advance(&mut self, token: usize, eof: bool) {
        let Reactor {
            stripe,
            conns,
            service,
            cfg,
            scratch,
            ..
        } = self;
        let stripe = *stripe;
        let Some(conn) = conns.get_mut(token) else {
            return;
        };

        if conn.close_after_flush.is_none() {
            if let Some(reason) =
                conn.wire
                    .drain_requests(service, cfg, stripe, conn.conn_id, scratch)
            {
                conn.close_after_flush = Some(reason);
            } else if eof {
                conn.close_after_flush = Some(conn.wire.note_eof(service, stripe, conn.conn_id));
            } else if self.draining && !conn.wire.has_unparsed() {
                // Between frames during a drain: nothing started, done.
                conn.close_after_flush = Some(CloseReason::Shutdown);
            }
        }

        // Flush, then re-drain: flushing can drop pending output back
        // below the backpressure cap while complete frames sit parked
        // in the read buffer. The peer may have nothing left to send,
        // so no further readable event will arrive — parsing must
        // resume here or the connection stalls. Loop until parsing
        // makes no progress (partial frame) or the cap is hit again.
        let mut flushed;
        loop {
            flushed = match conn.wire.flush_to(&mut conn.stream) {
                Ok(done) => done,
                Err(_) => {
                    self.close(token, CloseReason::Error);
                    return;
                }
            };
            if conn.close_after_flush.is_some()
                || !conn.wire.has_unparsed()
                || conn.wire.pending_out() > WRITE_BACKPRESSURE
            {
                break;
            }
            let before = conn.wire.requests();
            if let Some(reason) =
                conn.wire
                    .drain_requests(service, cfg, stripe, conn.conn_id, scratch)
            {
                conn.close_after_flush = Some(reason);
            } else if conn.wire.requests() == before {
                break;
            }
        }
        conn.wire.housekeeping(cfg.buffer_high_water);

        if flushed {
            if let Some(reason) = conn.close_after_flush {
                self.close(token, reason);
                return;
            }
        }

        // Park/unpark bookkeeping (tracing only): a connection is parked
        // while backpressure pauses its parsing. The park itself becomes
        // a span when it ends; a park that stops making progress is the
        // stall sweep's business (see `sweep_stalled_parks`).
        if let Some(tr) = service.tracer() {
            let parked =
                conn.close_after_flush.is_none() && conn.wire.pending_out() > WRITE_BACKPRESSURE;
            match (parked, conn.parked_since) {
                (true, None) => {
                    conn.parked_since = Some(Instant::now());
                    conn.parked_pending = conn.wire.pending_out();
                    conn.stall_reported = false;
                }
                (false, Some(since)) => {
                    tr.record(
                        stripe,
                        &Span {
                            trace_id: 0,
                            span_id: tr.alloc_span(),
                            parent: 0,
                            op: sop::PARK,
                            tier: trace_tier::NONE,
                            codec: 0,
                            status: 0,
                            start_ns: tr.now_ns(since),
                            queue_ns: 0,
                            service_ns: since.elapsed().as_nanos() as u64,
                            arg: conn.conn_id,
                        },
                    );
                    conn.parked_since = None;
                    conn.stall_reported = false;
                }
                _ => {}
            }
        }

        // Interest: writable while output is pending; readable unless
        // the peer is parked behind backpressure or being closed.
        let want = Interest {
            readable: conn.close_after_flush.is_none()
                && conn.wire.pending_out() <= WRITE_BACKPRESSURE,
            writable: !flushed,
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = want;
            if self.backend.reregister(fd, token, want).is_err() {
                self.close(token, CloseReason::Error);
            }
        }
    }

    fn close(&mut self, token: usize, reason: CloseReason) {
        let conn = self.conns.remove(token);
        let _ = self.backend.deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.service.conn_closed(
            self.stripe,
            conn.conn_id,
            conn.wire.requests(),
            reason == CloseReason::Idle,
        );
    }

    /// Fire a backpressure-stall anomaly for any parked connection whose
    /// staged output has made no flush progress for the tracer's stall
    /// window — a peer that pipelines requests but stopped reading
    /// responses. Reported once per park episode; the poll timeout
    /// bounds detection latency to ~100 ms past the window.
    fn sweep_stalled_parks(&mut self, now: Instant) {
        let Some(tr) = self.service.tracer().cloned() else {
            return;
        };
        let stall = tr.stall_after();
        for (_, conn) in self.conns.iter_mut() {
            let Some(since) = conn.parked_since else {
                continue;
            };
            let pending = conn.wire.pending_out();
            if pending < conn.parked_pending {
                // The peer drained something: restart the window.
                conn.parked_since = Some(now);
                conn.parked_pending = pending;
                conn.stall_reported = false;
            } else if !conn.stall_reported && now.saturating_duration_since(since) >= stall {
                tr.anomaly(
                    AnomalyKind::BackpressureStall,
                    0,
                    conn.conn_id,
                    pending as u64,
                );
                conn.stall_reported = true;
            }
        }
    }

    /// Stop accepting and put every quiescent connection on the way
    /// out; started frames get until the drain deadline.
    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = now + self.cfg.idle_timeout.min(DRAIN_CAP);
        if let Some(listener) = self.listener.take() {
            if self.listening {
                let _ = self.backend.deregister(listener.as_raw_fd());
            }
        }
        let tokens: Vec<usize> = self.conns.iter().map(|(t, _)| t).collect();
        for token in tokens {
            self.advance(token, false);
        }
    }

    /// Advance the timer wheel; expire idle connections, reschedule the
    /// rest (lazy deadlines: activity only bumps `last_active`).
    fn tick_timers(&mut self, now: Instant, expired: &mut Vec<(usize, u64)>) {
        expired.clear();
        self.wheel.advance(now, expired);
        for &(token, conn_id) in expired.iter() {
            let Some(conn) = self.conns.get(token) else {
                continue;
            };
            if conn.conn_id != conn_id {
                continue; // token reused since this entry was scheduled
            }
            let deadline = conn.last_active + self.cfg.idle_timeout;
            if now >= deadline {
                self.close(token, CloseReason::Idle);
            } else {
                self.wheel.schedule(deadline, token, conn_id);
            }
        }
    }
}

/// A coarse hashed timing wheel. Entries are `(token, conn_id)` pairs;
/// expiry is *lazy* — the reactor revalidates the real deadline when a
/// slot fires and reschedules if the connection was active since. Cost
/// is O(1) per scheduled timer, independent of connection count.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(usize, u64)>>,
    granularity: Duration,
    cursor: usize,
    cursor_time: Instant,
}

impl TimerWheel {
    /// Size the wheel to cover `span` (the idle timeout) with 16–64
    /// ticks of at least 1 ms and at most 250 ms.
    pub(crate) fn new(span: Duration, now: Instant) -> TimerWheel {
        let granularity = (span / 16)
            .max(Duration::from_millis(1))
            .min(Duration::from_millis(250));
        let ticks = (span.as_nanos() / granularity.as_nanos().max(1)) as usize + 2;
        TimerWheel {
            slots: vec![Vec::new(); ticks],
            granularity,
            cursor: 0,
            cursor_time: now,
        }
    }

    /// Schedule `(token, id)` to fire at (or just after) `deadline`.
    pub(crate) fn schedule(&mut self, deadline: Instant, token: usize, id: u64) {
        let delta = deadline.saturating_duration_since(self.cursor_time);
        // Round up and land one tick late rather than early: lazy
        // revalidation tolerates late, never early-forgets.
        let ticks = (delta.as_nanos() / self.granularity.as_nanos().max(1)) as usize + 1;
        let ticks = ticks.min(self.slots.len() - 1).max(1);
        let slot = (self.cursor + ticks) % self.slots.len();
        self.slots[slot].push((token, id));
    }

    /// Advance to `now`, draining every slot whose time has passed.
    pub(crate) fn advance(&mut self, now: Instant, out: &mut Vec<(usize, u64)>) {
        while self.cursor_time + self.granularity <= now {
            self.cursor_time += self.granularity;
            self.cursor = (self.cursor + 1) % self.slots.len();
            out.append(&mut self.slots[self.cursor]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::store::{CompressedStore, StoreConfig};
    use cc_server_test_helpers::*;

    /// In-crate test helpers (kept in a module so unit tests read
    /// cleanly).
    mod cc_server_test_helpers {
        use super::*;

        pub fn service() -> Service {
            let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(8 << 20)));
            Service::new(store, 1)
        }

        pub fn put_frame(seq: u32, key: u64, page: &[u8]) -> Vec<u8> {
            let mut body = Vec::new();
            Request::Put { key, page }.encode(&mut body);
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, seq, &body).unwrap();
            wire
        }

        pub fn get_frame(seq: u32, key: u64) -> Vec<u8> {
            let mut body = Vec::new();
            Request::Get { key }.encode(&mut body);
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, seq, &body).unwrap();
            wire
        }

        /// Parse every staged response out of a wire's write buffer.
        pub fn staged_responses(wire_bytes: &[u8]) -> Vec<(u32, Status, Vec<u8>)> {
            let mut out = Vec::new();
            let mut pos = 0;
            while let Some(p) = frame::parse_frame(&wire_bytes[pos..], 1 << 20).unwrap() {
                let body = &wire_bytes[pos + p.body.start..pos + p.body.end];
                let resp = crate::proto::Response::decode(body).unwrap();
                out.push((p.seq, resp.status, resp.payload.to_vec()));
                pos += p.consumed;
            }
            assert_eq!(pos, wire_bytes.len(), "trailing junk in write buffer");
            out
        }
    }

    fn test_cfg() -> ServerConfig {
        ServerConfig::default()
    }

    /// The per-connection state machine walks
    /// ReadHeader → ReadBody → Execute → WriteResponse as bytes arrive,
    /// at every byte-boundary split.
    #[test]
    fn state_machine_transitions_byte_by_byte() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();
        let page = vec![0xAB; 512];
        let burst = put_frame(1, 7, &page);

        let mut w = Wire::new();
        assert_eq!(w.state(), ConnState::ReadHeader);
        for (i, &b) in burst.iter().enumerate() {
            w.ingest(&[b]);
            assert!(w
                .drain_requests(&service, &cfg, 0, 0, &mut scratch)
                .is_none());
            let expect = if i + 1 < HEADER_LEN {
                ConnState::ReadHeader
            } else if i + 1 < burst.len() {
                ConnState::ReadBody
            } else {
                ConnState::WriteResponse
            };
            assert_eq!(w.state(), expect, "after byte {i}");
        }
        assert_eq!(w.requests(), 1);
        let resps = staged_responses(&w.wbuf);
        assert_eq!(resps, vec![(1, Status::Ok, Vec::new())]);
    }

    /// A pipelined burst executes back-to-back with tags echoed in
    /// order, one staged write buffer for the whole window.
    #[test]
    fn pipelined_burst_executes_all_tags() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();
        let page = vec![0x5A; 256];

        let mut burst = Vec::new();
        for seq in 1..=8u32 {
            burst.extend_from_slice(&put_frame(seq, seq as u64, &page));
        }
        for seq in 9..=16u32 {
            burst.extend_from_slice(&get_frame(seq, (seq - 8) as u64));
        }
        let mut w = Wire::new();
        w.ingest(&burst);
        assert!(w
            .drain_requests(&service, &cfg, 0, 0, &mut scratch)
            .is_none());
        assert_eq!(w.requests(), 16);
        let resps = staged_responses(&w.wbuf);
        assert_eq!(resps.len(), 16);
        for (i, (seq, status, payload)) in resps.iter().enumerate() {
            assert_eq!(*seq, i as u32 + 1);
            assert_eq!(*status, Status::Ok);
            if i >= 8 {
                assert_eq!(payload, &page, "GET seq {seq} returned wrong bytes");
            }
        }
    }

    /// Satellite regression: after a max-size frame passes through, the
    /// retained buffers shrink back to the high-water mark — a burst of
    /// large PUTs must not pin worst-case memory per connection.
    #[test]
    fn buffers_shrink_to_high_water_after_large_frame() {
        let service = service();
        let cfg = test_cfg();
        let hw = 16 << 10;
        let mut scratch = Vec::new();
        // A page well above the high-water mark (and its GET response).
        let page = vec![0xCD; 256 << 10];

        let mut w = Wire::new();
        w.ingest(&put_frame(1, 1, &page));
        w.ingest(&get_frame(2, 1));
        assert!(w
            .drain_requests(&service, &cfg, 0, 0, &mut scratch)
            .is_none());
        assert!(
            w.read_buf_capacity() > hw,
            "test needs the burst to out-grow the mark"
        );
        // Responses drain (as if the socket accepted everything)...
        let mut sink = Vec::new();
        assert!(w.flush_to(&mut sink).unwrap());
        let resps = staged_responses(&sink);
        assert_eq!(resps[1].2, page, "GET must round-trip before shrink");
        // ...and housekeeping returns both buffers to the mark.
        w.housekeeping(hw);
        assert!(
            w.read_buf_capacity() <= hw,
            "read buffer capacity {} stuck above high-water {hw}",
            w.read_buf_capacity()
        );
        assert!(
            w.write_buf_capacity() <= hw,
            "write buffer capacity {} stuck above high-water {hw}",
            w.write_buf_capacity()
        );
        // And the connection still serves afterwards.
        w.ingest(&get_frame(3, 1));
        assert!(w
            .drain_requests(&service, &cfg, 0, 0, &mut scratch)
            .is_none());
        assert_eq!(w.requests(), 3);
    }

    /// Backpressure: a peer that pipelines requests but never reads
    /// stops being parsed once the staged output crosses the cap, and
    /// resumes (exactly once per frame) after draining.
    #[test]
    fn write_backpressure_pauses_parsing() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();
        let page = vec![0x11; 128 << 10];
        let mut w = Wire::new();
        w.ingest(&put_frame(1, 1, &page));
        assert!(w
            .drain_requests(&service, &cfg, 0, 0, &mut scratch)
            .is_none());
        // Stage GET responses until the cap trips.
        let mut seq = 2u32;
        while w.pending_out() <= WRITE_BACKPRESSURE {
            w.ingest(&get_frame(seq, 1));
            assert!(w
                .drain_requests(&service, &cfg, 0, 0, &mut scratch)
                .is_none());
            seq += 1;
        }
        let executed = w.requests();
        // More arrivals are buffered, not executed.
        w.ingest(&get_frame(seq, 1));
        w.ingest(&get_frame(seq + 1, 1));
        assert!(w
            .drain_requests(&service, &cfg, 0, 0, &mut scratch)
            .is_none());
        assert_eq!(w.requests(), executed, "parsed past the backpressure cap");
        assert!(w.has_unparsed());
        // Drain the socket side; parsing resumes and catches up.
        let mut sink = Vec::new();
        assert!(w.flush_to(&mut sink).unwrap());
        w.housekeeping(cfg.buffer_high_water);
        assert!(w
            .drain_requests(&service, &cfg, 0, 0, &mut scratch)
            .is_none());
        assert_eq!(w.requests(), executed + 2);
        assert!(!w.has_unparsed());
    }

    /// Malformed frames stage a tagged ERR and report an unrecoverable
    /// close; EOF mid-frame is a truncation, between frames a clean
    /// close.
    #[test]
    fn malformed_and_eof_classification() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();

        // Undecodable body: tag echoed on the ERR.
        let mut w = Wire::new();
        let mut junk = Vec::new();
        frame::write_frame(&mut junk, 42, &[99]).unwrap();
        w.ingest(&junk);
        assert_eq!(
            w.drain_requests(&service, &cfg, 0, 0, &mut scratch),
            Some(CloseReason::Malformed)
        );
        let resps = staged_responses(&w.wbuf);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].0, 42);
        assert_eq!(resps[0].1, Status::Err);

        // Oversized prefix.
        let mut w = Wire::new();
        w.ingest(&(u32::MAX).to_le_bytes());
        w.ingest(&7u32.to_le_bytes());
        assert_eq!(
            w.drain_requests(&service, &cfg, 0, 0, &mut scratch),
            Some(CloseReason::Malformed)
        );

        // EOF with half a header: truncation.
        let mut w = Wire::new();
        w.ingest(&[1, 2, 3]);
        assert!(w
            .drain_requests(&service, &cfg, 0, 0, &mut scratch)
            .is_none());
        assert_eq!(w.note_eof(&service, 0, 0), CloseReason::Malformed);

        // EOF between frames: clean close.
        let mut w = Wire::new();
        w.ingest(&get_frame(1, 5));
        assert!(w
            .drain_requests(&service, &cfg, 0, 0, &mut scratch)
            .is_none());
        assert_eq!(w.note_eof(&service, 0, 0), CloseReason::Peer);

        let snap = service.snapshot();
        assert_eq!(snap.counter("malformed_frames"), Some(3));
    }

    /// The timer wheel fires entries at (or just after) their deadline,
    /// never early, across reschedules.
    #[test]
    fn timer_wheel_fires_late_never_early() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(160), t0);
        let mut out = Vec::new();

        wheel.schedule(t0 + Duration::from_millis(50), 1, 11);
        wheel.schedule(t0 + Duration::from_millis(120), 2, 22);

        // Before the first deadline: nothing fires.
        wheel.advance(t0 + Duration::from_millis(30), &mut out);
        assert!(out.is_empty());
        // Past the first (+ a full tick of slack for lazy rounding).
        wheel.advance(t0 + Duration::from_millis(80), &mut out);
        assert_eq!(out, vec![(1, 11)]);
        out.clear();
        wheel.advance(t0 + Duration::from_millis(160), &mut out);
        assert_eq!(out, vec![(2, 22)]);
    }
}
