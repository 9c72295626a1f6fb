//! End-to-end tests against a live `cc-server` on loopback.
//!
//! Covers the service-layer contract the unit tests cannot: concurrent
//! integrity under a mixed workload (every GET verified against a
//! shadow model, the store budget watched throughout), saturation
//! answering `BUSY` with the rejection visible in the wire counters,
//! each malformed-input class closing the connection with `ERR` without
//! panicking the engine, wall-clock idle-timeout reaping, pipelined
//! windows round-tripping tagged responses, STATS being a parseable
//! Prometheus payload, graceful shutdown leaving the store flushed and
//! readable — and the `open_connections` gauge returning to zero on
//! every path.
//!
//! Where the contract is backend-independent, the same scenario runs
//! with the reactors on epoll and on the poll(2) fallback.

use cc_core::store::{CompressedStore, StoreConfig};
use cc_server::frame::{self, FrameError};
use cc_server::proto::Request;
use cc_server::{
    Client, ClientError, Pipeline, Response, Server, ServerBackend, ServerConfig, Status,
};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PAGE: usize = 1024;

/// Every readiness backend the integration contract must hold on.
const ALL_BACKENDS: [ServerBackend; 2] = [ServerBackend::Evented, ServerBackend::EventedPoll];

/// Deterministic page content for `(key, version)`; half the versions
/// compress well, the rest are noise.
fn fill_page(key: u64, version: u64, buf: &mut [u8]) {
    let salt =
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    if version.is_multiple_of(2) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((salt as usize + i / 7) % 61) as u8 + b' ';
        }
    } else {
        let mut x = salt | 1;
        for b in buf.iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 33) as u8;
        }
    }
}

fn spill_server(budget: usize, cfg: ServerConfig, tag: &str) -> (Server, Arc<CompressedStore>) {
    let path =
        std::env::temp_dir().join(format!("cc-server-test-{tag}-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = Arc::new(CompressedStore::new(StoreConfig::with_spill(budget, &path)));
    let server = Server::spawn(Arc::clone(&store), "127.0.0.1:0", cfg).expect("spawn server");
    (server, store)
}

/// Shut the server down and assert the satellite invariant: every
/// opened connection was closed — the gauge is zero and the counters
/// balance.
fn shutdown_and_check_gauge(server: Server, what: &str) {
    let service = Arc::clone(server.service());
    server.shutdown();
    assert_eq!(
        service.open_connections(),
        0,
        "{what}: open_connections gauge leaked"
    );
    let snap = service.snapshot();
    assert_eq!(
        snap.counter("conns_opened"),
        snap.counter("conns_closed"),
        "{what}: open/close counters unbalanced"
    );
}

/// 4 client threads × mixed ops, every GET checked byte-for-byte
/// against a per-thread shadow map, zero mismatches, and the store's
/// resident bytes never exceed the budget.
fn mixed_load(backend: ServerBackend, ops: u64, tag: &str) {
    const THREADS: usize = 4;
    const KEYS_PER_THREAD: u64 = 256;
    const BUDGET: usize = 256 << 10; // well under the working set: spill exercised

    let (server, store) = spill_server(BUDGET, ServerConfig::default().with_backend(backend), tag);
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                max_seen = max_seen.max(store.stats().resident_bytes);
            }
            max_seen
        })
    };

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                let base = t as u64 * KEYS_PER_THREAD;
                let mut shadow: HashMap<u64, u64> = HashMap::new();
                let mut version = 0u64;
                let mut rng = t as u64 + 1;
                let mut page = vec![0u8; PAGE];
                let mut expect = vec![0u8; PAGE];
                let mut out = Vec::with_capacity(PAGE);
                let mut next = || {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    rng >> 33
                };
                for op in 0..ops {
                    let key = base + next() % KEYS_PER_THREAD;
                    match next() % 10 {
                        0..=4 => {
                            version += 1;
                            fill_page(key, version, &mut page);
                            client.put(key, &page).expect("put");
                            shadow.insert(key, version);
                        }
                        5..=8 => {
                            let hit = client.get(key, &mut out).expect("get");
                            match (hit, shadow.get(&key).copied()) {
                                (true, Some(v)) => {
                                    fill_page(key, v, &mut expect);
                                    assert_eq!(
                                        out, expect,
                                        "thread {t} op {op}: GET({key}) returned wrong bytes"
                                    );
                                }
                                (false, None) => {}
                                (hit, expected) => panic!(
                                    "thread {t} op {op}: GET({key}) hit={hit} but shadow={expected:?}"
                                ),
                            }
                        }
                        _ => {
                            let existed = client.del(key).expect("del");
                            assert_eq!(
                                existed,
                                shadow.remove(&key).is_some(),
                                "thread {t} op {op}: DEL({key}) existed-bit disagrees with shadow"
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let max_resident = watcher.join().expect("watcher panicked");
    assert!(
        max_resident <= BUDGET as u64,
        "store budget exceeded under load: saw {max_resident} resident bytes, budget {BUDGET}"
    );

    let snap = server.service().snapshot();
    let wire = |n: &str| snap.counter(n).unwrap_or(0);
    assert_eq!(wire("malformed_frames"), 0);
    assert_eq!(wire("busy_rejected"), 0);
    assert_eq!(wire("conns_opened"), THREADS as u64);
    assert_eq!(
        wire("req_put") + wire("req_get") + wire("req_del"),
        THREADS as u64 * ops
    );
    assert_eq!(snap.event_count("conn_open"), Some(THREADS as u64));
    shutdown_and_check_gauge(server, tag);
}

/// The mixed-load integrity scenario on the poll(2) fallback reactor.
#[test]
fn concurrent_integrity_under_mixed_load() {
    mixed_load(ServerBackend::EventedPoll, 5_000, "integrity-poll");
}

/// The mixed-load integrity scenario on the default epoll reactor.
#[test]
fn concurrent_integrity_evented_backend() {
    mixed_load(ServerBackend::Evented, 5_000, "integrity-ev");
}

/// Reads one response frame (with its tag) off a raw connection.
fn read_response(stream: &mut TcpStream) -> Result<(u32, Status, Vec<u8>), FrameError> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut body = Vec::new();
    let seq = frame::read_frame(stream, &mut body, frame::DEFAULT_MAX_FRAME)?;
    let resp = Response::decode(&body).expect("response decodes");
    Ok((seq, resp.status, resp.payload.to_vec()))
}

/// Counted admission, observable on the wire: with `max_conns = 1` and
/// one connection registered, the next accept is answered `BUSY` (tag
/// 0) and closed, the rejection shows in both the counter and the event
/// ring — and admitted traffic is untouched.
#[test]
fn evented_admission_answers_busy() {
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default()
                .with_backend(backend)
                .with_max_conns(1),
        )
        .expect("spawn server");
        let addr = server.local_addr();

        let mut holder = Client::connect(addr).expect("connect holder");
        holder.ping().expect("ping");

        let mut extra = TcpStream::connect(addr).expect("connect extra");
        let (seq, status, payload) = read_response(&mut extra).expect("read BUSY frame");
        assert_eq!(seq, frame::SEQ_UNSOLICITED, "BUSY must carry tag 0");
        assert_eq!(status, Status::Busy, "{backend:?}");
        assert!(payload.is_empty());
        let mut rest = Vec::new();
        assert!(
            matches!(
                frame::read_frame(&mut extra, &mut rest, frame::DEFAULT_MAX_FRAME),
                Err(FrameError::Closed)
            ),
            "{backend:?}: rejected connection should be closed after BUSY"
        );

        let snap = server.service().snapshot();
        assert_eq!(snap.counter("busy_rejected"), Some(1), "{backend:?}");
        assert_eq!(snap.event_count("busy"), Some(1), "{backend:?}");

        // Releasing the held slot frees admission for the next client.
        holder.ping().expect("holder still served");
        drop(holder);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match Client::connect(addr).and_then_ping() {
                Ok(()) => break,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("{backend:?}: slot never freed after close: {e}"),
            }
        }
        shutdown_and_check_gauge(server, "evented admission");
    }
}

/// Small helper so the retry loop above reads cleanly.
trait AndThenPing {
    fn and_then_ping(self) -> Result<(), ClientError>;
}
impl AndThenPing for std::io::Result<Client> {
    fn and_then_ping(self) -> Result<(), ClientError> {
        let mut c = self.map_err(ClientError::Io)?;
        c.ping()
    }
}

/// The client's bounded retry-with-backoff rides out a saturation
/// window. With the only connection slot held, a no-retry client gets
/// `BUSY` immediately; a retrying client keeps reconnecting with backoff
/// and succeeds once the holder releases the slot — within the policy's
/// `max_backoff_total` bound (plus I/O slack). A retrying client
/// against a *permanently* saturated server still fails, in bounded
/// time.
#[test]
fn client_retry_rides_out_saturation() {
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
    let server = Server::spawn(
        store,
        "127.0.0.1:0",
        ServerConfig::default().with_max_conns(1),
    )
    .expect("spawn server");
    let addr = server.local_addr();

    // Occupy the only slot (the completed PING proves admission).
    let holder = {
        let mut c = Client::connect(addr).expect("connect holder");
        c.ping().expect("ping");
        c
    };

    // Default policy (one attempt): BUSY surfaces immediately.
    match Client::connect(addr).expect("connect no-retry").ping() {
        Err(ClientError::Busy) | Err(ClientError::Io(_)) => {}
        other => panic!("expected immediate BUSY without retry, got {other:?}"),
    }

    // Exhausted retries against a server that never frees up: the failure
    // is still BUSY and the total wait respects the backoff bound.
    let mut capped = Client::connect(addr)
        .expect("connect capped")
        .with_retry(4, Duration::from_millis(2));
    let bound = capped.retry_policy().max_backoff_total();
    assert_eq!(bound, Duration::from_millis(2 + 4 + 8));
    let start = std::time::Instant::now();
    match capped.ping() {
        Err(ClientError::Busy) | Err(ClientError::Io(_)) => {}
        other => panic!("expected BUSY after exhausting retries, got {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < bound + Duration::from_secs(5),
        "retry loop unbounded: {elapsed:?} for bound {bound:?}"
    );

    // Release the slot mid-retry: the retrying client must succeed.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        drop(holder);
    });
    let mut retrier = Client::connect(addr)
        .expect("connect retrier")
        .with_retry(10, Duration::from_millis(10));
    let start = std::time::Instant::now();
    retrier
        .ping()
        .expect("retrying client should succeed once the slot frees up");
    let elapsed = start.elapsed();
    let bound = retrier.retry_policy().max_backoff_total() + Duration::from_secs(10);
    assert!(elapsed < bound, "retry took {elapsed:?}, bound {bound:?}");
    release.join().expect("release thread");

    // The retried connection is a normal, reusable connection.
    retrier.put(9, &vec![0x5A; PAGE]).expect("put after retry");
    let mut out = Vec::new();
    assert!(retrier.get(9, &mut out).expect("get after retry"));
    assert_eq!(out, vec![0x5A; PAGE]);
    drop(retrier);
    shutdown_and_check_gauge(server, "client retry");
}

/// Every malformed-input class on every backend: the server answers
/// `ERR`, closes the connection, bumps `malformed_frames`, and keeps
/// serving new connections (no engine panics).
#[test]
fn malformed_frames_close_with_err_and_count() {
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default().with_backend(backend),
        )
        .expect("spawn server");
        let addr = server.local_addr();
        let service = Arc::clone(server.service());
        let malformed = || service.snapshot().counter("malformed_frames").unwrap_or(0);

        let expect_err_then_close = |stream: &mut TcpStream, what: &str| {
            let (_seq, status, payload) = read_response(stream)
                .unwrap_or_else(|e| panic!("{backend:?} {what}: expected ERR frame, got {e}"));
            assert_eq!(status, Status::Err, "{backend:?} {what}: wrong status");
            assert!(
                !payload.is_empty(),
                "{backend:?} {what}: ERR should carry a message"
            );
            let mut rest = Vec::new();
            assert!(
                matches!(
                    frame::read_frame(stream, &mut rest, frame::DEFAULT_MAX_FRAME),
                    Err(FrameError::Closed)
                ),
                "{backend:?} {what}: connection should be closed after ERR"
            );
        };

        // Malformed frames are answered with ERR, counted, and the
        // counter classes agree with the event ring afterwards.
        {
            use std::io::Write as _;

            // 1. Truncated header: half a header, then EOF.
            let before = malformed();
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&[7, 0]).expect("write partial header");
            s.shutdown(std::net::Shutdown::Write).expect("half-close");
            expect_err_then_close(&mut s, "truncated header");
            assert_eq!(malformed(), before + 1, "truncated header not counted");

            // 2. Oversized length prefix: rejected before any body
            // allocation, as soon as the header is visible.
            let before = malformed();
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&u32::MAX.to_le_bytes()).expect("write length");
            s.write_all(&1u32.to_le_bytes()).expect("write seq");
            expect_err_then_close(&mut s, "oversized prefix");
            assert_eq!(malformed(), before + 1, "oversized prefix not counted");

            // 3. Unknown opcode: a whole, well-framed body that fails
            // decoding; the ERR echoes the frame's tag.
            let before = malformed();
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, 99, &[42]).expect("encode frame");
            s.write_all(&wire).expect("write frame");
            let (seq, status, payload) = read_response(&mut s)
                .unwrap_or_else(|e| panic!("{backend:?} unknown opcode: expected ERR, got {e}"));
            assert_eq!(seq, 99, "{backend:?}: ERR must echo the request tag");
            assert_eq!(status, Status::Err);
            assert!(!payload.is_empty());
            let mut rest = Vec::new();
            assert!(matches!(
                frame::read_frame(&mut s, &mut rest, frame::DEFAULT_MAX_FRAME),
                Err(FrameError::Closed)
            ));
            assert_eq!(malformed(), before + 1, "unknown opcode not counted");

            // 4. Truncated body: header promises more bytes than arrive.
            let before = malformed();
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&16u32.to_le_bytes()).expect("write length");
            s.write_all(&2u32.to_le_bytes()).expect("write seq");
            s.write_all(&[1, 2, 3]).expect("write partial body");
            s.shutdown(std::net::Shutdown::Write).expect("half-close");
            expect_err_then_close(&mut s, "truncated body");
            assert_eq!(malformed(), before + 1, "truncated body not counted");
        }

        // The events agree with the counter, and the server still
        // serves.
        let snap = service.snapshot();
        assert_eq!(
            snap.event_count("malformed"),
            snap.counter("malformed_frames")
        );
        let mut client = Client::connect(addr).expect("connect after abuse");
        client.ping().expect("server survived malformed input");
        client.put(1, &vec![3u8; PAGE]).expect("put works");
        let mut out = Vec::new();
        assert!(client.get(1, &mut out).expect("get works"));
        assert_eq!(out, vec![3u8; PAGE]);
        drop(client);
        shutdown_and_check_gauge(server, "malformed frames");
    }
}

/// Satellite: the idle timeout is wall-clock on every backend. A
/// connection idle for exactly `timeout + ε` is closed — the close
/// lands near the deadline, not rounded up in 20 ms read-step quanta —
/// and is counted exactly once.
#[test]
fn idle_timeout_is_wall_clock_and_counted_once() {
    const TIMEOUT: Duration = Duration::from_millis(250);
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default()
                .with_backend(backend)
                .with_idle_timeout(TIMEOUT),
        )
        .expect("spawn server");
        let addr = server.local_addr();
        let service = Arc::clone(server.service());

        // Raw connection: one PING round-trip (activity), then silence.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut body = Vec::new();
        Request::Ping.encode(&mut body);
        frame::write_frame(&mut s, 1, &body).expect("write ping");
        let mut resp = Vec::new();
        assert_eq!(
            frame::read_frame(&mut s, &mut resp, frame::DEFAULT_MAX_FRAME).expect("pong"),
            1
        );
        let idle_from = std::time::Instant::now();

        // The server closes from its side at timeout + ε: the blocking
        // read observes EOF. `ε` tolerances: the server's idle clock
        // started marginally before ours (it saw the frame before we
        // read the response), and CI schedulers add delay on top.
        use std::io::Read as _;
        let mut junk = [0u8; 16];
        let n = s.read(&mut junk).expect("EOF, not an error");
        let elapsed = idle_from.elapsed();
        assert_eq!(n, 0, "{backend:?}: expected server-side close");
        assert!(
            elapsed >= TIMEOUT.saturating_sub(Duration::from_millis(60)),
            "{backend:?}: closed {elapsed:?} into an idle period of {TIMEOUT:?} — too early"
        );
        assert!(
            elapsed <= TIMEOUT + Duration::from_millis(500),
            "{backend:?}: idle close took {elapsed:?}, deadline {TIMEOUT:?} — not wall-clock"
        );

        // Counted exactly once, and it stays that way.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = service.snapshot();
            if snap.counter("idle_timeouts") == Some(1) && snap.counter("conns_closed") == Some(1) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{backend:?}: idle timeout never counted: {:?}",
                snap.counters
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(120));
        let snap = service.snapshot();
        assert_eq!(
            snap.counter("idle_timeouts"),
            Some(1),
            "{backend:?}: idle timeout double-counted"
        );
        assert_eq!(
            snap.counter("conns_closed"),
            Some(1),
            "{backend:?}: close double-counted"
        );
        shutdown_and_check_gauge(server, "idle timeout");
    }
}

/// A pipelined window over a live server: W tagged requests issued
/// before any response is reaped, every response matched to its tag
/// exactly once, GET payloads byte-for-byte — on every backend. (A
/// window large enough to trip write backpressure is in `bp_repro.rs`.)
#[test]
fn pipelined_window_roundtrips_tagged_responses() {
    const WINDOW: usize = 32;
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(16 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default().with_backend(backend),
        )
        .expect("spawn server");
        let addr = server.local_addr();

        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut pipe = Pipeline::new();
        let mut page = vec![0u8; PAGE];

        // Window of PUTs, all in flight before the first reap.
        let mut tags: HashMap<u32, u64> = HashMap::new();
        for key in 0..WINDOW as u64 {
            fill_page(key, key + 1, &mut page);
            let seq = pipe
                .send(&mut client, &Request::Put { key, page: &page })
                .expect("pipeline PUT");
            tags.insert(seq, key);
        }
        assert_eq!(pipe.in_flight(), WINDOW);
        let mut out = Vec::new();
        for _ in 0..WINDOW {
            let (seq, status) = pipe.recv(&mut client, &mut out).expect("reap PUT");
            assert_eq!(status, Status::Ok, "{backend:?}: PUT tag {seq} failed");
            assert!(
                tags.contains_key(&seq),
                "{backend:?}: unknown PUT tag {seq}"
            );
        }
        assert_eq!(pipe.in_flight(), 0);

        // Window of GETs; every payload must match its tag's key.
        let mut expect = vec![0u8; PAGE];
        tags.clear();
        for key in 0..WINDOW as u64 {
            let seq = pipe
                .send(&mut client, &Request::Get { key })
                .expect("pipeline GET");
            tags.insert(seq, key);
        }
        for _ in 0..WINDOW {
            let (seq, status) = pipe.recv(&mut client, &mut out).expect("reap GET");
            assert_eq!(status, Status::Ok, "{backend:?}: GET tag {seq} failed");
            let key = tags[&seq];
            fill_page(key, key + 1, &mut expect);
            assert_eq!(
                out, expect,
                "{backend:?}: GET({key}) corrupted under pipelining"
            );
        }

        // The connection is still a normal connection afterwards.
        client.ping().expect("ping after pipelined windows");
        drop(client);
        shutdown_and_check_gauge(server, "pipelined window");
    }
}

/// STATS over the wire is a parseable Prometheus payload carrying both
/// the store's and the server's metric families, schema-identical to
/// the in-process snapshot renderers.
#[test]
fn stats_is_scrapeable_prometheus() {
    let (server, store) = spill_server(64 << 10, ServerConfig::default(), "stats");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let mut page = vec![0u8; PAGE];
    for key in 0..64 {
        fill_page(key, key + 1, &mut page);
        client.put(key, &page).expect("put");
    }
    // One word-patterned page routes through the BDI codec under the
    // default adaptive policy, so the per-codec counters are live.
    for (i, w) in page.chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&(0x4400_0000_0000u64 + (i as u64 * 3) % 90).to_le_bytes());
    }
    client.put(64, &page).expect("put bdi page");
    let mut out = Vec::new();
    client.get(3, &mut out).expect("get");
    client.get(64, &mut out).expect("get bdi page");
    assert_eq!(out, page, "bdi page corrupted over the wire");
    let text = client.stats().expect("stats");

    assert!(text.contains("cc_store_compressed_total"), "{text}");
    assert!(text.contains("cc_server_req_put_total 65"), "{text}");
    assert!(text.contains("cc_server_req_get_total 2"), "{text}");
    // Per-codec routing counters and latency histograms are part of the
    // STATS surface, and the sweep above exercised both codecs.
    assert!(text.contains("cc_store_puts_bdi_total 1"), "{text}");
    assert!(text.contains("cc_store_codec_fallbacks_total"), "{text}");
    assert!(
        text.contains("cc_store_compress_lzrw1_latency_ns"),
        "{text}"
    );
    assert!(text.contains("cc_store_compress_bdi_latency_ns"), "{text}");
    assert!(
        text.contains("cc_store_decompress_bdi_latency_ns"),
        "{text}"
    );
    let puts_lzrw1 = text
        .lines()
        .find_map(|l| l.strip_prefix("cc_store_puts_lzrw1_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("cc_store_puts_lzrw1_total missing");
    assert!(puts_lzrw1 > 0, "no puts routed to lzrw1: {text}");
    // The recovery telemetry surface is part of the schema even on a
    // non-persistent store (all zero here, live after a warm restart).
    for series in [
        "cc_store_extents_recovered_total",
        "cc_store_journal_records_replayed_total",
        "cc_store_torn_tail_discarded_total",
        "cc_store_stale_generation_dropped_total",
        "cc_store_journal_records_written_total",
        "cc_store_clean_recoveries_total",
        "cc_store_recovery_duration_latency_ns",
    ] {
        assert!(
            text.contains(series),
            "missing recovery series {series}: {text}"
        );
    }
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut parts = line.split_whitespace();
        let (name, value, extra) = (parts.next(), parts.next(), parts.next());
        assert!(
            name.is_some() && value.is_some() && extra.is_none(),
            "unparseable line: {line:?}"
        );
        assert!(
            value.unwrap().parse::<f64>().is_ok(),
            "non-numeric value: {line:?}"
        );
    }
    // Same metric names, same order as the in-process renderers (the
    // schema the cc_telemetry::Exporter writes).
    let names = |t: &str| {
        t.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
            .collect::<Vec<_>>()
    };
    let mut local = store.telemetry_snapshot().to_prometheus("cc_store");
    local.push_str(&server.service().snapshot().to_prometheus("cc_server"));
    assert_eq!(names(&text), names(&local), "STATS schema drifted");
    drop(client);
    shutdown_and_check_gauge(server, "stats");
}

/// Warm restart over the wire: a persistent store is filled through
/// one server, sealed by an orderly shutdown, reopened with
/// [`CompressedStore::open_existing`], and a *fresh* server over the
/// recovered store answers GETs for every spilled key byte-for-byte —
/// zero PUTs issued to the second server, and the clean fast path
/// (no extent re-scan) taken on open. The recovery counters are live
/// in the warm server's STATS payload.
#[test]
fn warm_restarted_server_serves_gets_without_reput() {
    use cc_core::store::HitTier;
    const BUDGET: usize = 16 << 10; // tiny: most of the working set spills
    const KEYS: u64 = 96;
    let path = std::env::temp_dir().join(format!("cc-server-test-warm-{}.bin", std::process::id()));
    let map = path.with_extension("bin.map");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&map);

    // Cold run: fill through the wire, flush, snapshot the spill set.
    let store = Arc::new(CompressedStore::new(
        StoreConfig::with_spill(BUDGET, &path).with_persistent(true),
    ));
    let server = Server::spawn(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
        .expect("spawn cold server");
    let mut client = Client::connect(server.local_addr()).expect("connect cold");
    let mut page = vec![0u8; PAGE];
    for key in 0..KEYS {
        fill_page(key, key + 7, &mut page);
        client.put(key, &page).expect("cold put");
    }
    client.flush().expect("cold flush");
    let durable: Vec<u64> = (0..KEYS)
        .filter(|&k| store.peek_tier(k) == Some(HitTier::Spill))
        .collect();
    assert!(
        durable.len() > KEYS as usize / 2,
        "budget too generous — only {} of {KEYS} keys spilled",
        durable.len()
    );
    drop(client);
    shutdown_and_check_gauge(server, "warm-restart cold phase");
    drop(store); // last reference: the spill writer drains and seals clean

    // Warm run: recover from the files alone and serve immediately.
    let reopened = Arc::new(
        CompressedStore::open_existing(StoreConfig::with_spill(BUDGET, &path)).expect("warm open"),
    );
    let stats = reopened.stats();
    assert_eq!(
        stats.clean_recoveries, 1,
        "orderly shutdown did not seal clean"
    );
    assert_eq!(
        stats.recovery_extents_verified, 0,
        "clean start took the slow extent scan"
    );
    assert!(
        stats.extents_recovered >= durable.len() as u64,
        "recovered {} extents, expected at least {}",
        stats.extents_recovered,
        durable.len()
    );
    let server = Server::spawn(
        Arc::clone(&reopened),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("spawn warm server");
    let mut client = Client::connect(server.local_addr()).expect("connect warm");
    let mut out = Vec::new();
    let mut expect = vec![0u8; PAGE];
    for &key in &durable {
        fill_page(key, key + 7, &mut expect);
        assert!(
            client.get(key, &mut out).expect("warm get"),
            "durable key {key} missing after warm restart"
        );
        assert_eq!(out, expect, "warm restart served wrong bytes for key {key}");
    }
    let text = client.stats().expect("warm stats");
    let recovered = text
        .lines()
        .find_map(|l| l.strip_prefix("cc_store_extents_recovered_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("cc_store_extents_recovered_total missing");
    assert!(recovered >= durable.len() as u64, "{text}");
    assert!(text.contains("cc_store_clean_recoveries_total 1"), "{text}");
    let snap = server.service().snapshot();
    assert_eq!(snap.counter("req_put"), Some(0), "warm server saw a re-PUT");
    assert_eq!(
        snap.counter("req_get"),
        Some(durable.len() as u64),
        "GET count drifted"
    );
    drop(client);
    shutdown_and_check_gauge(server, "warm-restart warm phase");
    drop(reopened);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&map);
}

/// Graceful shutdown drains the spill writer on every backend: every
/// acknowledged PUT is readable from the store afterwards, and the
/// listener is gone.
#[test]
fn shutdown_flushes_store_and_stops_listening() {
    const BUDGET: usize = 32 << 10; // force most pages through the spill writer
    for backend in ALL_BACKENDS {
        let (server, store) = spill_server(
            BUDGET,
            ServerConfig::default().with_backend(backend),
            &format!("shutdown-{}", backend.name()),
        );
        let addr = server.local_addr();
        let mut client = Client::connect(addr).expect("connect");
        let mut page = vec![0u8; PAGE];
        for key in 0..128 {
            fill_page(key, key + 7, &mut page);
            client.put(key, &page).expect("put");
        }
        drop(client);
        shutdown_and_check_gauge(server, "shutdown flush");

        // Acknowledged data survives: the writer was flushed on the way
        // out.
        let mut out = vec![0u8; PAGE];
        let mut expect = vec![0u8; PAGE];
        for key in 0..128 {
            assert!(
                store.get(key, &mut out).expect("get after shutdown"),
                "{backend:?}: key {key} lost by shutdown"
            );
            fill_page(key, key + 7, &mut expect);
            assert_eq!(
                out, expect,
                "{backend:?}: key {key} corrupted across shutdown"
            );
        }
        // The listener is gone: connects are refused (or at best reset
        // without service).
        match Client::connect(addr) {
            Err(_) => {}
            Ok(mut c) => assert!(
                c.ping().is_err(),
                "{backend:?}: server still serving after shutdown"
            ),
        }
    }
}

/// Satellite: connection churn over every close path — clean closes,
/// mid-frame aborts, malformed frames — leaves the `open_connections`
/// gauge at zero while the server is still running, on every backend.
#[test]
fn gauge_survives_connection_churn() {
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default()
                .with_backend(backend)
                .with_idle_timeout(Duration::from_secs(30)),
        )
        .expect("spawn server");
        let addr = server.local_addr();
        let service = Arc::clone(server.service());

        for round in 0..10 {
            match round % 3 {
                // Clean: one request, orderly close.
                0 => {
                    let mut c = Client::connect(addr).expect("connect");
                    c.ping().expect("ping");
                }
                // Abort mid-frame: half a header, then drop.
                1 => {
                    use std::io::Write as _;
                    let mut s = TcpStream::connect(addr).expect("connect");
                    s.write_all(&[9, 0, 0]).expect("partial header");
                    // Dropped here: FIN mid-frame on the server side.
                }
                // Malformed: well-framed junk body.
                _ => {
                    use std::io::Write as _;
                    let mut s = TcpStream::connect(addr).expect("connect");
                    let mut wire = Vec::new();
                    frame::write_frame(&mut wire, 5, &[77]).expect("frame");
                    s.write_all(&wire).expect("write");
                    let _ = read_response(&mut s);
                }
            }
        }

        // All churned connections settle closed while the server runs.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if service.open_connections() == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{backend:?}: gauge stuck at {} after churn",
                service.open_connections()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = service.snapshot();
        assert_eq!(snap.counter("conns_opened"), snap.counter("conns_closed"));
        shutdown_and_check_gauge(server, "gauge churn");
    }
}
