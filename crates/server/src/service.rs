//! Request dispatch over the store, plus the server's wire telemetry.
//!
//! One [`Service`] is shared by every reactor. It owns a
//! [`cc_telemetry::Telemetry`] instance built from the same
//! striped-counter / latency-histogram / event-ring types the store
//! uses, one stripe per reactor so request counting never contends, and
//! the open-connection gauge that doubles as the server-wide admission
//! count. STATS
//! responses concatenate the store's Prometheus snapshot (prefix
//! `cc_store`) with the server's own (prefix `cc_server`), both rendered
//! by [`cc_telemetry::Snapshot::to_prometheus`] — the exact schema the
//! [`cc_telemetry::Exporter`] emits, so a scraper cannot tell the
//! difference.

use crate::proto::{Opcode, Request, Status};
use cc_core::store::{CompressedStore, StoreError};
use cc_telemetry::trace::{sop, tier, Span, TraceCtx, Tracer};
use cc_telemetry::{Snapshot, Telemetry, TelemetrySpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wire-level counter indices (striped per reactor).
pub mod wstat {
    /// PUT requests executed.
    pub const REQ_PUT: usize = 0;
    /// GET requests executed.
    pub const REQ_GET: usize = 1;
    /// DEL requests executed.
    pub const REQ_DEL: usize = 2;
    /// FLUSH requests executed.
    pub const REQ_FLUSH: usize = 3;
    /// STATS requests executed.
    pub const REQ_STATS: usize = 4;
    /// PING requests executed.
    pub const REQ_PING: usize = 5;
    /// Connections rejected with BUSY at the admission cap.
    pub const BUSY_REJECTED: usize = 6;
    /// Frames that failed framing or protocol decoding.
    pub const MALFORMED_FRAMES: usize = 7;
    /// Connections admitted and registered with a reactor.
    pub const CONNS_OPENED: usize = 8;
    /// Connections closed (any reason).
    pub const CONNS_CLOSED: usize = 9;
    /// Connections closed by the idle timeout.
    pub const IDLE_TIMEOUTS: usize = 10;
    /// DUMP requests executed.
    pub const REQ_DUMP: usize = 11;
    /// Counter name table, index-aligned with the constants above.
    pub const NAMES: &[&str] = &[
        "req_put",
        "req_get",
        "req_del",
        "req_flush",
        "req_stats",
        "req_ping",
        "busy_rejected",
        "malformed_frames",
        "conns_opened",
        "conns_closed",
        "idle_timeouts",
        "req_dump",
    ];
}

/// Per-opcode latency histogram indices: `Opcode as usize - 1`.
pub mod wop {
    /// Operation name table, index-aligned with [`crate::proto::Opcode`].
    pub const NAMES: &[&str] = &["put", "get", "del", "flush", "stats", "ping", "dump"];
}

/// Wire event kinds pushed into the server's event ring.
pub mod wevent {
    /// `a` = connection id.
    pub const CONN_OPEN: usize = 0;
    /// `a` = connection id, `b` = requests served on it.
    pub const CONN_CLOSE: usize = 1;
    /// `a` = connection id rejected at admission.
    pub const BUSY: usize = 2;
    /// `a` = connection id, `b` = malformed-frame class: 1 truncated,
    /// 2 oversized, 3 undecodable.
    pub const MALFORMED: usize = 3;
    /// Event name table.
    pub const NAMES: &[&str] = &["conn_open", "conn_close", "busy", "malformed"];
}

const SERVER_TELEMETRY: TelemetrySpec = TelemetrySpec {
    counters: wstat::NAMES,
    ops: wop::NAMES,
    events: wevent::NAMES,
};

/// Shared per-server state: the store handle, wire telemetry, and the
/// open-connection gauge.
pub struct Service {
    store: Arc<CompressedStore>,
    tel: Telemetry,
    /// Shared with the store (see [`cc_core::store::StoreConfig::with_tracer`]):
    /// wire-level spans and store spans land in the same rings, so a
    /// sampled request yields one tree from accept to spill.
    tracer: Option<Arc<Tracer>>,
    open_conns: AtomicU64,
    next_conn_id: AtomicU64,
}

impl Service {
    /// Build a service over `store` with one counter stripe per
    /// reactor.
    pub fn new(store: Arc<CompressedStore>, reactors: usize) -> Service {
        let tracer = store.tracer().cloned();
        Service {
            store,
            tel: Telemetry::new(SERVER_TELEMETRY, reactors),
            tracer,
            open_conns: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<CompressedStore> {
        &self.store
    }

    /// The request tracer inherited from the store, if tracing is on.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The server's wire telemetry (request counters, per-opcode latency
    /// histograms, connection events).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Connections currently being served.
    pub fn open_connections(&self) -> u64 {
        self.open_conns.load(Ordering::Relaxed)
    }

    /// A snapshot of the wire telemetry with the open-connection gauge
    /// attached.
    pub fn snapshot(&self) -> Snapshot {
        self.tel
            .snapshot()
            .gauge("open_connections", self.open_connections())
    }

    /// The STATS payload: the store's Prometheus snapshot followed by
    /// the server's, schema-identical to what an
    /// [`cc_telemetry::Exporter`] in Prometheus mode writes.
    pub fn stats_text(&self) -> String {
        let mut text = self.store.telemetry_snapshot().to_prometheus("cc_store");
        text.push_str(&self.snapshot().to_prometheus("cc_server"));
        text
    }

    pub(crate) fn next_conn_id(&self) -> u64 {
        self.next_conn_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserve one of `max` connection slots. The open-connection gauge
    /// *is* the admitted count, so admission is global across reactors
    /// with no second atomic. A `true` is paired with exactly one
    /// [`Service::conn_closed`], or with [`Service::cancel_admission`]
    /// if the connection is never served.
    pub(crate) fn try_admit(&self, max: usize) -> bool {
        self.open_conns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < max as u64).then_some(n + 1)
            })
            .is_ok()
    }

    /// Give back a slot from [`Service::try_admit`] whose connection
    /// failed before it was served.
    pub(crate) fn cancel_admission(&self) {
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections reactor `stripe` holds open: its stripe's opens minus
    /// its closes.
    pub(crate) fn reactor_load(&self, stripe: usize) -> u64 {
        let opened = self.tel.counter_on(stripe, wstat::CONNS_OPENED);
        opened.saturating_sub(self.tel.counter_on(stripe, wstat::CONNS_CLOSED))
    }

    /// Count an admitted connection (its slot is already held).
    pub(crate) fn conn_opened(&self, stripe: usize, conn_id: u64) {
        self.tel.count(stripe, wstat::CONNS_OPENED, 1);
        self.tel.event(wevent::CONN_OPEN, conn_id, 0);
    }

    pub(crate) fn conn_closed(&self, stripe: usize, conn_id: u64, requests: u64, idle: bool) {
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
        self.tel.count(stripe, wstat::CONNS_CLOSED, 1);
        if idle {
            self.tel.count(stripe, wstat::IDLE_TIMEOUTS, 1);
        }
        self.tel.event(wevent::CONN_CLOSE, conn_id, requests);
    }

    pub(crate) fn busy_rejected(&self, stripe: usize, conn_id: u64) {
        self.tel.count(stripe, wstat::BUSY_REJECTED, 1);
        self.tel.event(wevent::BUSY, conn_id, 0);
    }

    pub(crate) fn malformed(&self, stripe: usize, conn_id: u64, class: u64) {
        self.tel.count(stripe, wstat::MALFORMED_FRAMES, 1);
        self.tel.event(wevent::MALFORMED, conn_id, class);
    }

    pub(crate) fn record_latency(&self, op: Opcode, ns: u64, trace: u64) {
        self.tel.record_traced(op as usize - 1, ns, trace);
    }

    /// Execute one request. The response payload is written into `out`
    /// (cleared first); the returned status plus `out` form the response
    /// body. Never panics on store errors — they become [`Status::Err`]
    /// with the error text as payload.
    ///
    /// Sampling happens here, at the wire: a sampled request gets a root
    /// `request` span (with the opcode and connection id) and its store
    /// work records child spans under it. The returned [`TraceCtx`] is
    /// that root's child context ([`TraceCtx::NONE`] when unsampled) —
    /// callers tag reply-flush spans and latency exemplars with it.
    pub(crate) fn handle(
        &self,
        stripe: usize,
        conn_id: u64,
        req: &Request<'_>,
        out: &mut Vec<u8>,
    ) -> (Status, TraceCtx) {
        out.clear();
        let tr = self.tracer.as_deref();
        let rctx = tr.map_or(TraceCtx::NONE, |t| t.sample());
        let t0 = rctx.sampled().then(Instant::now);
        let root = tr.map_or(0, |t| t.new_span(rctx));
        let ctx = rctx.child(root);
        let (counter, status) = match req {
            Request::Put { key, page } => {
                let status = match self.store.put_traced(*key, page, ctx) {
                    Ok(()) => Status::Ok,
                    Err(e) => err_status(e, out),
                };
                (wstat::REQ_PUT, status)
            }
            Request::Get { key } => {
                let status = match self.store.page_size() {
                    // Nothing has ever been stored: every key misses.
                    None => Status::NotFound,
                    Some(ps) => {
                        out.resize(ps, 0);
                        match self.store.get_traced(*key, out, ctx) {
                            Ok(true) => Status::Ok,
                            Ok(false) => {
                                out.clear();
                                Status::NotFound
                            }
                            Err(e) => err_status(e, out),
                        }
                    }
                };
                (wstat::REQ_GET, status)
            }
            Request::Del { key } => {
                let status = if self.store.remove(*key) {
                    Status::Ok
                } else {
                    Status::NotFound
                };
                (wstat::REQ_DEL, status)
            }
            Request::Flush => {
                let status = match self.store.flush() {
                    Ok(()) => Status::Ok,
                    Err(e) => err_status(e, out),
                };
                (wstat::REQ_FLUSH, status)
            }
            Request::Stats => {
                out.extend_from_slice(self.stats_text().as_bytes());
                (wstat::REQ_STATS, Status::Ok)
            }
            Request::Ping => (wstat::REQ_PING, Status::Ok),
            Request::Dump => {
                match tr {
                    Some(t) => out.extend_from_slice(t.dump_json("on-demand").as_bytes()),
                    // Untraced server: an empty-but-valid document, so
                    // clients need not special-case the response.
                    None => out.extend_from_slice(b"{}"),
                }
                (wstat::REQ_DUMP, Status::Ok)
            }
        };
        self.tel.count(stripe, counter, 1);
        if let (Some(t), Some(t0)) = (tr, t0) {
            t.record(
                stripe,
                &Span {
                    trace_id: rctx.trace_id,
                    span_id: root,
                    parent: 0,
                    op: sop::REQUEST,
                    tier: tier::NONE,
                    codec: req.opcode() as u8,
                    status: status as u8,
                    start_ns: t.now_ns(t0),
                    queue_ns: 0,
                    service_ns: t0.elapsed().as_nanos() as u64,
                    arg: conn_id,
                },
            );
        }
        (status, ctx)
    }
}

fn err_status(e: StoreError, out: &mut Vec<u8>) -> Status {
    out.clear();
    use std::fmt::Write as _;
    let mut msg = String::new();
    let _ = write!(msg, "{e}");
    out.extend_from_slice(msg.as_bytes());
    Status::Err
}
