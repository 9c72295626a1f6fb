//! Low-overhead telemetry for the compression-cache workspace.
//!
//! Douglis's evaluation hinges on measured internals — compression
//! ratios, cleaner activity, page-in/page-out latencies (Tables 2/3) —
//! and the software-defined compressed tiers descended from the paper
//! (zswap and friends) are tuned entirely from continuously exported
//! tier-split telemetry. This crate is that layer for the workspace:
//!
//! - [`CounterBank`] — striped, cache-padded monotonic counters. One
//!   relaxed `fetch_add` per increment, per-field-exact aggregation on
//!   read (no more lock-and-copy stats structs).
//! - [`AtomicHistogram`] — fixed-size log-bucketed latency histograms
//!   sharing `cc_util::Histogram`'s bucket scheme; recording is
//!   wait-free and allocation-free, reading yields p50/p90/p99/max.
//! - [`EventRing`] — a lock-free bounded MPMC ring of structured
//!   events with sequence numbers and accurate drop counting; full
//!   rings drop (and count) rather than block or overwrite.
//! - [`Snapshot`] / [`Exporter`] — aggregate everything on demand and
//!   render it as JSON, Prometheus text, or an aligned table, either
//!   synchronously or from a background timer thread.
//! - [`schema!`] — declares each name table (counters, ops, events,
//!   span codes) once, one row per entry: the row yields the index
//!   constant and the exported name, and for a counter table the
//!   statistics struct field too.
//!
//! The [`Telemetry`] facade bundles one of each behind a single handle.
//! Its hot-path cost budget: a counter bump is one uncontended atomic
//! add on a private cache line; a histogram record is four; an event is
//! one CAS plus three stores. The `storebench --smoke` CI gate measures
//! the end-to-end overhead on the store's mixed zipfian workload and
//! fails the build if instrumentation costs more than 5%.

#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod ring;
mod schema;
pub mod snapshot;
pub mod trace;

pub use counters::CounterBank;
pub use hist::{AtomicHistogram, HistSummary};
pub use ring::{Event, EventRing};
pub use snapshot::{ExportFormat, ExportTarget, Exporter, Snapshot};
pub use trace::{
    AnomalyKind, DumpSink, Span, SpanBuilder, SpanRing, TraceCtx, Tracer, TracerBuilder,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime};

/// Static description of what a [`Telemetry`] instance tracks: the
/// counter, operation (latency histogram), and event-kind name tables.
/// Indices into these slices are the handles the instrumented code uses.
#[derive(Debug, Clone, Copy)]
pub struct TelemetrySpec {
    /// Monotonic counter names.
    pub counters: &'static [&'static str],
    /// Timed-operation names (one latency histogram each).
    pub ops: &'static [&'static str],
    /// Structured event-kind names.
    pub events: &'static [&'static str],
}

/// Default event-ring capacity (events kept between snapshots).
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// One telemetry instance: a counter bank, a latency histogram per
/// operation, cumulative event counts, and the event ring.
///
/// Counters are always live (they are the system's statistics of
/// record). Latency sampling and event capture can be disabled at
/// construction ([`Telemetry::timing_enabled`]); instrumented code
/// checks that flag before calling the clock, so a disabled instance
/// costs nothing but the counter adds.
pub struct Telemetry {
    spec: TelemetrySpec,
    timing: bool,
    counters: CounterBank,
    ops: Box<[AtomicHistogram]>,
    event_counts: Box<[AtomicU64]>,
    ring: EventRing,
    started: Instant,
}

impl Telemetry {
    /// Create an instance with `stripes` counter stripes (typically the
    /// shard count) and the default ring capacity.
    pub fn new(spec: TelemetrySpec, stripes: usize) -> Self {
        Self::with_options(spec, stripes, DEFAULT_RING_CAPACITY, true)
    }

    /// Create an instance choosing the ring capacity and whether latency
    /// sampling / event capture start enabled.
    pub fn with_options(
        spec: TelemetrySpec,
        stripes: usize,
        ring_capacity: usize,
        timing: bool,
    ) -> Self {
        Telemetry {
            spec,
            timing,
            counters: CounterBank::new(stripes, spec.counters),
            ops: (0..spec.ops.len())
                .map(|_| AtomicHistogram::new())
                .collect(),
            event_counts: (0..spec.events.len()).map(|_| AtomicU64::new(0)).collect(),
            ring: EventRing::new(ring_capacity),
            started: Instant::now(),
        }
    }

    /// The name tables this instance was built with.
    pub fn spec(&self) -> &TelemetrySpec {
        &self.spec
    }

    /// Whether latency sampling and event capture are enabled. Hot paths
    /// check this before calling `Instant::now()`; cold paths (the spill
    /// writer, GC) record unconditionally.
    #[inline]
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Bump `counter` by `n` on `stripe`. Always live.
    #[inline]
    pub fn count(&self, stripe: usize, counter: usize, n: u64) {
        self.counters.add(stripe, counter, n);
    }

    /// Aggregated sum of `counter` across stripes.
    pub fn counter_sum(&self, counter: usize) -> u64 {
        self.counters.sum(counter)
    }

    /// `counter`'s value on one stripe: which writer did the counting.
    pub fn counter_on(&self, stripe: usize, counter: usize) -> u64 {
        self.counters.get(stripe, counter)
    }

    /// Record a latency sample (nanoseconds) for `op`.
    #[inline]
    pub fn record(&self, op: usize, ns: u64) {
        self.ops[op].record(ns);
    }

    /// Record a latency sample for `op` carrying a trace id (0 =
    /// untraced) so the histogram can retain tail exemplars; see
    /// [`AtomicHistogram::record_traced`].
    #[inline]
    pub fn record_traced(&self, op: usize, ns: u64, trace: u64) {
        self.ops[op].record_traced(ns, trace);
    }

    /// Seconds since this instance was created.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Percentile summary of `op`'s histogram.
    pub fn op_summary(&self, op: usize) -> HistSummary {
        self.ops[op].summary()
    }

    /// Record a structured event: bumps the cumulative per-kind count
    /// and pushes into the ring (dropping, counted, if full). Returns
    /// the event's sequence number if the ring accepted it.
    #[inline]
    pub fn event(&self, kind: usize, a: u64, b: u64) -> Option<u64> {
        self.event_counts[kind].fetch_add(1, Ordering::Relaxed);
        self.ring.push(kind as u32, a, b)
    }

    /// Direct access to the event ring (tests, custom drains).
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Take a snapshot: counter sums, op summaries, cumulative event
    /// counts, and the drained ring window since the last snapshot.
    /// Starts with an `uptime_seconds` gauge and the wall-clock
    /// timestamp; further gauges are appended by the caller via
    /// [`Snapshot::gauge`].
    pub fn snapshot(&self) -> Snapshot {
        let mut recent = Vec::new();
        self.ring.drain(&mut recent);
        Snapshot {
            counters: self.counters.sums(),
            gauges: vec![("uptime_seconds", self.uptime_seconds())],
            ops: self
                .spec
                .ops
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, self.ops[i].summary()))
                .collect(),
            events: self
                .spec
                .events
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, self.event_counts[i].load(Ordering::Relaxed)))
                .collect(),
            recent,
            events_dropped: self.ring.dropped(),
            events_recorded: self.ring.recorded(),
            taken_unix_s: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: TelemetrySpec = TelemetrySpec {
        counters: &["puts", "gets"],
        ops: &["put", "get"],
        events: &["evict", "gc"],
    };

    #[test]
    fn end_to_end_snapshot() {
        let tel = Telemetry::new(SPEC, 4);
        assert!(tel.timing_enabled());
        tel.count(0, 0, 3);
        tel.count(3, 1, 2);
        tel.record(0, 150);
        tel.record(0, 250);
        tel.record(1, 50);
        assert_eq!(tel.event(1, 7, 8), Some(0));
        assert_eq!(tel.event(0, 1, 2), Some(1));
        let snap = tel.snapshot().gauge("resident_bytes", 999);
        assert_eq!(snap.counter("puts"), Some(3));
        assert_eq!(snap.counter("gets"), Some(2));
        assert_eq!(snap.op("put").unwrap().count, 2);
        assert_eq!(snap.op("get").unwrap().max, 50);
        assert_eq!(snap.event_count("gc"), Some(1));
        assert_eq!(snap.event_count("evict"), Some(1));
        assert_eq!(snap.recent.len(), 2);
        assert_eq!(snap.recent[0].kind, 1);
        assert_eq!(snap.gauges[0].0, "uptime_seconds");
        assert_eq!(snap.gauges.last(), Some(&("resident_bytes", 999)));
        assert!(snap.taken_unix_s > 0);
        // The window drains: a second snapshot sees no new events but
        // keeps the cumulative counts.
        let snap2 = tel.snapshot();
        assert!(snap2.recent.is_empty());
        assert_eq!(snap2.event_count("gc"), Some(1));
    }

    #[test]
    fn disabled_timing_flag() {
        let tel = Telemetry::with_options(SPEC, 1, 16, false);
        assert!(!tel.timing_enabled());
        // Counters still work; that is the contract.
        tel.count(0, 0, 1);
        assert_eq!(tel.counter_sum(0), 1);
    }

    #[test]
    fn event_counts_survive_ring_drops() {
        let tel = Telemetry::with_options(SPEC, 1, 2, true);
        for i in 0..10 {
            tel.event(0, i, 0);
        }
        let snap = tel.snapshot();
        // Cumulative count includes dropped pushes; the ring window and
        // drop counter reconcile exactly.
        assert_eq!(snap.event_count("evict"), Some(10));
        assert_eq!(snap.recent.len() as u64 + snap.events_dropped, 10);
    }
}
