//! `cc-server` — a concurrent TCP cache service over the
//! [`CompressedStore`].
//!
//! The compression cache grew up: Douglis's in-kernel compressed tier is
//! today deployed as a *networked* cache service (ZipCache's DRAM/SSD
//! tiers, TMTS's software-defined far memory), and this crate is that
//! serving surface for the workspace. A [`Server`] runs one engine:
//! `N` evented reactors ([`reactor`]), where `N` is the host's available
//! parallelism. Each reactor is a single-threaded readiness loop over
//! nonblocking sockets ([`event`]: epoll on Linux, poll(2) fallback)
//! with its own clone of the one listening socket, registered while no
//! peer holds fewer connections; the reactor that accepts a connection
//! owns it for its life. Connections
//! cost buffers, not threads, so thousands of mostly-idle connections
//! are cheap, the seq-tagged framing lets one connection pipeline a
//! window of requests, and store work spreads over the cores because the
//! connections spread over the reactors.
//!
//! All reactors share the protocol ([`proto`], [`frame`]: PUT / GET /
//! DEL / FLUSH / STATS / PING / DUMP in tagged, length-prefixed frames),
//! the request dispatcher and wire telemetry ([`service`], one counter
//! stripe per reactor), and one global admission count
//! ([`ServerConfig::max_conns`]; the connection beyond it is answered
//! `BUSY`). Idle connections time out on wall-clock deadlines, and
//! shutdown drains every started frame. STATS returns the store's and
//! server's Prometheus snapshots verbatim, so the service is scrapeable
//! from day one. A blocking, connection-reusing [`Client`] (with a
//! pipelined mode) lives in [`client`].
//!
//! ```no_run
//! use cc_core::store::{CompressedStore, StoreConfig};
//! use cc_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(64 << 20)));
//! let server = Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.put(7, &[0xAB; 4096]).unwrap();
//! let mut page = Vec::new();
//! assert!(client.get(7, &mut page).unwrap());
//! assert_eq!(page, vec![0xAB; 4096]);
//! println!("{}", client.stats().unwrap()); // Prometheus text
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod event;
pub mod frame;
pub mod proto;
pub(crate) mod reactor;
pub mod service;

pub use client::{Client, ClientError, Pipeline, RetryPolicy};
pub use event::BackendKind;
pub use proto::{Opcode, ProtoError, Request, Response, Status};
pub use service::Service;

use cc_core::store::CompressedStore;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which readiness mechanism the reactors poll with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerBackend {
    /// The platform backend (epoll on Linux).
    #[default]
    Evented,
    /// The portable poll(2) backend — the only one on non-epoll
    /// platforms, and the reference the tests hold epoll to.
    EventedPoll,
}

impl ServerBackend {
    /// Parse a CLI-style backend name (`evented`, `evented-poll`).
    pub fn parse(s: &str) -> Option<ServerBackend> {
        match s {
            "evented" => Some(ServerBackend::Evented),
            "evented-poll" => Some(ServerBackend::EventedPoll),
            _ => None,
        }
    }

    /// The CLI-style name (`evented` / `evented-poll`).
    pub fn name(self) -> &'static str {
        match self {
            ServerBackend::Evented => "evented",
            ServerBackend::EventedPoll => "evented-poll",
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which readiness mechanism the reactors use.
    pub backend: ServerBackend,
    /// Admission cap: connections open at once, across every reactor.
    /// The next accept beyond it is answered `BUSY`.
    pub max_conns: usize,
    /// Ceiling on a request frame body; a length prefix above this is
    /// malformed and closes the connection.
    pub max_frame_bytes: usize,
    /// A connection with no new frame for this long is closed.
    pub idle_timeout: Duration,
    /// Per-connection buffers above this capacity are shrunk back once
    /// they empty, so a burst of max-size frames doesn't pin worst-case
    /// memory per connection. `0` disables shrinking.
    pub buffer_high_water: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            backend: ServerBackend::default(),
            max_conns: 1024,
            max_frame_bytes: frame::DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(30),
            buffer_high_water: 64 << 10,
        }
    }
}

impl ServerConfig {
    /// Choose the readiness mechanism.
    pub fn with_backend(mut self, backend: ServerBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Override the connection cap (clamped to at least 1).
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Override the frame-size ceiling.
    pub fn with_max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes.max(frame::LEN_PREFIX);
        self
    }

    /// Override the idle-connection timeout.
    pub fn with_idle_timeout(mut self, t: Duration) -> Self {
        self.idle_timeout = t;
        self
    }

    /// Override the per-connection buffer high-water mark (`0`
    /// disables shrinking).
    pub fn with_buffer_high_water(mut self, bytes: usize) -> Self {
        self.buffer_high_water = bytes;
        self
    }
}

/// A running cache server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, drains in-flight requests,
/// joins every reactor, and flushes the store's spill writer.
pub struct Server {
    service: Arc<Service>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// One per reactor, indexed by stripe; the reactors share them too.
    wakers: Arc<[event::WakeHandle]>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start one
    /// reactor per available CPU.
    pub fn spawn(
        store: Arc<CompressedStore>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let reactors = std::thread::available_parallelism().map_or(1, |n| n.get());
        Server::spawn_reactors(store, addr, cfg, reactors)
    }

    /// [`Server::spawn`] with an explicit reactor count, so tests can pin
    /// cross-reactor behaviour on any host. Reactor `i` writes telemetry
    /// stripe `i`.
    pub(crate) fn spawn_reactors(
        store: Arc<CompressedStore>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
        reactors: usize,
    ) -> std::io::Result<Server> {
        let reactors = reactors.max(1);
        let cfg = Arc::new(ServerConfig {
            max_conns: cfg.max_conns.max(1),
            ..cfg
        });
        let kind = match cfg.backend {
            ServerBackend::Evented => BackendKind::Platform,
            ServerBackend::EventedPoll => BackendKind::Poll,
        };
        let listener = TcpListener::bind(addr)?;
        let service = Arc::new(Service::new(store, reactors));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut built = Vec::with_capacity(reactors);
        let mut wakers = Vec::with_capacity(reactors);
        for stripe in 0..reactors {
            let (reactor, waker) = reactor::Reactor::new(
                kind,
                stripe,
                listener.try_clone()?,
                Arc::clone(&service),
                Arc::clone(&cfg),
                Arc::clone(&shutdown),
            )?;
            built.push(reactor);
            wakers.push(waker);
        }
        let mut server = Server {
            service,
            local_addr: listener.local_addr()?,
            shutdown,
            wakers: wakers.into(),
            threads: Vec::with_capacity(reactors),
        };
        // On an early return `server` drops, which stops and joins the
        // reactors already running.
        for (stripe, reactor) in built.into_iter().enumerate() {
            let peers = Arc::clone(&server.wakers);
            let handle = std::thread::Builder::new()
                .name(format!("cc-server-reactor-{stripe}"))
                .spawn(move || reactor.run(peers))?;
            server.threads.push(handle);
        }
        Ok(server)
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service state: wire telemetry, open-connection gauge,
    /// the store handle, and the STATS renderer.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// complete and its response flush, join all reactors, then drain
    /// the store's spill writer. Idempotent via [`Drop`].
    pub fn shutdown(self) {
        // Drop runs the teardown.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for waker in self.wakers.iter() {
            waker.wake();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // The paper's cleaner must not be left with queued work: an
        // orderly server exit leaves every accepted PUT durable. A dead
        // writer (degraded store) already reverted the pending entries
        // to memory; nothing more a teardown can do about it.
        let _ = self.service.store().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::wstat;
    use cc_core::store::StoreConfig;
    use std::net::TcpStream;
    use std::sync::Barrier;
    use std::time::Instant;

    /// One PING round-trip on a raw connection.
    fn ping(stream: &mut TcpStream) -> (u32, Status) {
        let mut body = Vec::new();
        Request::Ping.encode(&mut body);
        frame::write_frame(stream, 1, &body).expect("write PING");
        frame::read_frame(stream, &mut body, frame::DEFAULT_MAX_FRAME)
            .map(|seq| (seq, Response::decode(&body).expect("decodes").status))
            .expect("PING answered")
    }

    /// Admission is one count shared by every reactor: 2×`max_conns`
    /// concurrent connects against three reactors admit exactly
    /// `max_conns`, and every other connection reads a tag-0 `BUSY` —
    /// although the admitted connections landed on more than one
    /// reactor.
    #[test]
    fn admission_is_global_across_reactors() {
        const REACTORS: usize = 3;
        const MAX: usize = 8;
        for backend in [ServerBackend::Evented, ServerBackend::EventedPoll] {
            let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
            let cfg = ServerConfig::default()
                .with_backend(backend)
                .with_max_conns(MAX);
            let server =
                Server::spawn_reactors(store, "127.0.0.1:0", cfg, REACTORS).expect("spawn server");
            let addr = server.local_addr();
            let service = Arc::clone(server.service());

            let barrier = Arc::new(Barrier::new(2 * MAX));
            let connects: Vec<_> = (0..2 * MAX)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        TcpStream::connect(addr).expect("connect")
                    })
                })
                .collect();
            let mut pending: Vec<TcpStream> = connects
                .into_iter()
                .map(|h| h.join().expect("connect thread"))
                .collect();

            // Every rejected peer holds a BUSY frame; the rest are
            // admitted and get nothing unsolicited. Collect the BUSY
            // ones as their frames arrive.
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut busy = 0;
            while busy < MAX {
                assert!(
                    Instant::now() < deadline,
                    "{backend:?}: only {busy} BUSY frames"
                );
                let mut rest = Vec::new();
                for mut s in pending {
                    s.set_nonblocking(true).expect("nonblocking");
                    let readable = s.peek(&mut [0u8; 1]).is_ok_and(|n| n > 0);
                    s.set_nonblocking(false).expect("blocking");
                    if !readable {
                        rest.push(s);
                        continue;
                    }
                    let mut body = Vec::new();
                    let seq = frame::read_frame(&mut s, &mut body, frame::DEFAULT_MAX_FRAME)
                        .expect("BUSY frame");
                    assert_eq!(seq, frame::SEQ_UNSOLICITED, "{backend:?}: BUSY tag");
                    assert_eq!(Response::decode(&body).unwrap().status, Status::Busy);
                    busy += 1;
                }
                pending = rest;
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(pending.len(), MAX, "{backend:?}: extra connections");
            for s in &mut pending {
                assert_eq!(ping(s), (1, Status::Ok), "{backend:?}: admitted conn");
            }

            let tel = service.telemetry();
            let snap = service.snapshot();
            assert_eq!(snap.counter("conns_opened"), Some(MAX as u64));
            assert_eq!(snap.counter("busy_rejected"), Some(MAX as u64));
            assert_eq!(service.open_connections(), MAX as u64);
            let stripes_used = (0..REACTORS)
                .filter(|&r| tel.counter_on(r, wstat::CONNS_OPENED) > 0)
                .count();
            assert!(
                stripes_used > 1,
                "{backend:?}: every admitted connection landed on one reactor"
            );

            drop(pending);
            server.shutdown();
            assert_eq!(service.open_connections(), 0, "{backend:?}: gauge leaked");
            let snap = service.snapshot();
            assert_eq!(snap.counter("conns_closed"), Some(MAX as u64));
        }
    }
}
