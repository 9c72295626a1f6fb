//! The closed-loop measured phases: ops straight into a
//! `CompressedStore`, or pipelined over one `cc-server` connection. Each
//! op is timed from the client's side and every GET is checked against
//! the model.

use crate::gen::{Kind, OpGen, PAGE};
use crate::model::{Expect, Model};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use cc_core::store::{CompressedStore, StoreStats};
use cc_server::{Client, Pipeline, Request, Status};
use std::time::{Duration, Instant};

/// When a phase stops issuing ops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Time(Duration),
    Ops(u64),
}

impl Limit {
    fn reached(self, issued: u64, started: Instant) -> bool {
        match self {
            Limit::Time(d) => started.elapsed() >= d,
            Limit::Ops(n) => issued >= n,
        }
    }
}

/// Root-span totals of one op kind in a traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct RootAgg {
    pub count: u64,
    pub root_ns: u64,
    /// Part of the root time covered by spill-medium child spans.
    pub child_ns: u64,
}

/// The first puts of a phase, kept for the codec replay: (key, version).
const PUT_LOG_CAP: usize = 4096;

/// A timed phase is cut into windows of this length. Its throughput and
/// latency percentiles are the medians of the windows' own figures, so a
/// burst of outside load does not decide the number.
pub const WINDOW: Duration = Duration::from_secs(1);

/// How often a timed phase samples the stored-bytes figure. The spill
/// file grows with dead bytes and shrinks at each compaction, so the
/// figure is the mean of many samples, not a value at one instant.
const STORED_EVERY: Duration = Duration::from_millis(100);

/// Windows in which the hypervisor held the virtual CPUs (steal time)
/// for more than this share of their time measure the host, not the
/// program. The medians leave them out, unless that would leave fewer
/// than a third of the windows.
const STEAL_MAX: f64 = 0.05;

/// System-wide (steal, total) CPU time from the first line of
/// `/proc/stat`, in clock ticks; (0, 0) where it cannot be read.
fn host_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    match fields.get(7) {
        Some(&steal) => (steal, fields.iter().sum()),
        None => (0, 0),
    }
}

/// Figures of one window of a phase.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Share of the host's CPU time stolen during the window.
    steal: f64,
    ops_per_s: f64,
    /// p50 and p99 by kind, nanoseconds.
    p50: [u64; 3],
    p99: [u64; 3],
}

#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// GETs whose bytes (or miss) the model did not admit.
    pub mismatches: u64,
    pub wall: Duration,
    /// Client-observed latency samples in nanoseconds, by [`Kind`].
    pub lat: [Vec<u64>; 3],
    pub roots: [RootAgg; 3],
    pub put_log: Vec<(u64, u32)>,
    /// Where each kind's samples end at each window boundary, when, and
    /// the host's CPU ticks then; the first entry marks the start.
    cuts: Vec<([usize; 3], Duration, (u64, u64))>,
    windows: Vec<Window>,
    /// Stored bytes per user byte, sampled every [`STORED_EVERY`].
    stored: Vec<f64>,
}

impl Phase {
    /// Completed ops per second over the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64()
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.lat[kind as usize].len() as u64
    }

    /// Mark the start of the first window.
    fn start(&mut self) -> Instant {
        self.cuts.push(([0; 3], Duration::ZERO, host_ticks()));
        Instant::now()
    }

    /// Close a window when a timed phase crosses a boundary.
    fn tick(&mut self, started: Instant, limit: Limit, store: &CompressedStore, model: &Model) {
        let Limit::Time(d) = limit else { return };
        let at = started.elapsed();
        let next = WINDOW * self.cuts.len() as u32;
        if at >= next && next + WINDOW / 2 <= d {
            self.cuts
                .push((self.lat.each_ref().map(Vec::len), at, host_ticks()));
        }
        if at >= STORED_EVERY * (self.stored.len() as u32 + 1) {
            self.stored.push(stored_per_user(&store.stats(), model));
        }
    }

    /// Close the last window and sort the samples (each window's own
    /// slice first, for its percentiles, then the whole phase).
    fn finish(&mut self, started: Instant, store: &CompressedStore, model: &Model) {
        self.wall = started.elapsed();
        self.stored.push(stored_per_user(&store.stats(), model));
        self.cuts
            .push((self.lat.each_ref().map(Vec::len), self.wall, host_ticks()));
        for pair in self.cuts.windows(2) {
            let ((from, since, t0), (cut, at, t1)) = (pair[0], pair[1]);
            let mut w = Window {
                steal: ratio((t1.0 - t0.0) as f64, (t1.1 - t0.1) as f64),
                ops_per_s: 0.0,
                p50: [0; 3],
                p99: [0; 3],
            };
            let mut ops = 0;
            for k in 0..3 {
                let slice = &mut self.lat[k][from[k]..cut[k]];
                slice.sort_unstable();
                w.p50[k] = percentile(slice, 50.0);
                w.p99[k] = percentile(slice, 99.0);
                ops += slice.len();
            }
            w.ops_per_s = ops as f64 / (at - since).as_secs_f64();
            self.windows.push(w);
        }
        for lat in &mut self.lat {
            lat.sort_unstable();
        }
    }

    /// One line per window: ops/s, get p99 (us) and host steal, for the
    /// run's notes.
    pub fn window_summary(&self) -> String {
        let g = Kind::Get as usize;
        let parts: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                let p99 = w.p99[g] as f64 / 1e3;
                format!("{:.0}/{p99:.0}/{:.0}%", w.ops_per_s, w.steal * 100.0)
            })
            .collect();
        parts.join(" ")
    }

    /// Whole-phase percentile of one kind's latency, nanoseconds.
    pub fn pct(&self, kind: Kind, p: f64) -> u64 {
        percentile(&self.lat[kind as usize], p)
    }

    fn log_put(&mut self, model: &Model, key: u64) {
        if self.put_log.len() < PUT_LOG_CAP {
            self.put_log.push((key, model.versions(key) - 1));
        }
    }
}

/// The windows of `phases` the medians use, and how many there were in
/// all (see [`STEAL_MAX`]).
fn counted_windows(phases: &[Phase]) -> (Vec<&Window>, usize) {
    let all: Vec<&Window> = phases.iter().flat_map(|p| &p.windows).collect();
    let calm: Vec<&Window> = all
        .iter()
        .copied()
        .filter(|w| w.steal <= STEAL_MAX)
        .collect();
    let n = all.len();
    (if calm.len() * 3 >= n { calm } else { all }, n)
}

/// How many windows of `phases` the medians use, out of how many.
pub fn windows_counted(phases: &[Phase]) -> (usize, usize) {
    let (used, n) = counted_windows(phases);
    (used.len(), n)
}

/// Median, over the counted windows of `phases`, of one window figure.
fn window_median(phases: &[Phase], figure: impl Fn(&Window) -> f64) -> f64 {
    let v: Vec<f64> = counted_windows(phases).0.into_iter().map(figure).collect();
    median(&v)
}

/// Median over the windows of `phases` of their completed ops per second.
pub fn median_ops_per_s(phases: &[Phase]) -> f64 {
    window_median(phases, |w| w.ops_per_s)
}

/// Median over the windows of `phases` of each window's p50 or p99 of
/// one kind, nanoseconds.
pub fn median_pct(phases: &[Phase], kind: Kind, p99: bool) -> f64 {
    let k = kind as usize;
    window_median(phases, |w| if p99 { w.p99[k] } else { w.p50[k] } as f64)
}

/// Mean of the stored-bytes samples of `phases`.
pub fn mean_stored(phases: &[Phase]) -> f64 {
    let v: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.stored.iter().copied())
        .collect();
    ratio(v.iter().sum(), v.len() as f64)
}

/// Bytes the store keeps per byte of live user data.
pub fn stored_per_user(st: &StoreStats, model: &Model) -> f64 {
    ratio(
        (st.resident_bytes + st.bytes_on_spill) as f64,
        (model.live_keys() * PAGE) as f64,
    )
}

/// Put every key once, in key order. Returns the number of failed puts.
pub fn prefill(store: &CompressedStore, model: &mut Model) -> u64 {
    let mut page = vec![0u8; PAGE];
    let mut failed = 0;
    for key in 0..model.len() as u64 {
        model.next_put(key, &mut page);
        let ok = store.put(key, &page).is_ok();
        model.put_done(key, ok);
        failed += u64::from(!ok);
    }
    failed
}

/// Drive `store` directly until `limit`.
pub fn store_phase(
    store: &CompressedStore,
    model: &mut Model,
    ops: &mut OpGen,
    limit: Limit,
    tracer: Option<&Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    phase.lat[Kind::Get as usize].reserve(1 << 20);
    let mut page = vec![0u8; PAGE];
    let mut out = vec![0u8; PAGE];
    let started = phase.start();
    while !limit.reached(phase.attempted, started) {
        let (kind, key) = ops.next_op();
        if kind == Kind::Put {
            model.next_put(key, &mut page);
            phase.log_put(model, key);
        }
        let mut exec = || match kind {
            Kind::Put => store.put(key, &page).map(|()| true),
            Kind::Get => store.get(key, &mut out),
            Kind::Del => Ok(store.remove(key)),
        };
        let (result, ns) = match tracer {
            None => {
                let t0 = Instant::now();
                let r = exec();
                (r, t0.elapsed().as_nanos() as u64)
            }
            Some(t) => {
                let (r, ns, child_ns) = t.root(kind.name(), phase.attempted + 1, exec);
                let agg = &mut phase.roots[kind as usize];
                agg.count += 1;
                agg.root_ns += ns;
                agg.child_ns += child_ns;
                (r, ns)
            }
        };
        phase.attempted += 1;
        match (kind, result) {
            (_, Err(_)) => {
                phase.failed += 1;
                if kind == Kind::Put {
                    model.put_done(key, false);
                }
                continue;
            }
            (Kind::Put, Ok(_)) => model.put_done(key, true),
            (Kind::Get, Ok(hit)) => {
                if !model.check(key, hit.then_some(&out[..])) {
                    phase.mismatches += 1;
                }
            }
            (Kind::Del, Ok(_)) => model.delete(key),
        }
        phase.lat[kind as usize].push(ns);
        phase.tick(started, limit, store, model);
    }
    phase.finish(started, store, model);
    phase
}

/// One request in the pipeline window.
struct Pending {
    seq: u32,
    kind: Kind,
    key: u64,
    expect: Expect,
    sent: Instant,
}

/// Drive the server over `client` with up to `window` requests in
/// flight until `limit`; `store` is the server's, read only for its
/// stored-bytes figure. One connection serves requests in order, so the
/// model applies each op when it is sent and a GET is judged against the
/// state at that moment. A transport or protocol error ends the phase.
pub fn wire_phase(
    client: &mut Client,
    store: &CompressedStore,
    model: &mut Model,
    ops: &mut OpGen,
    limit: Limit,
    window: usize,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    phase.lat[Kind::Get as usize].reserve(1 << 20);
    let mut pipe = Pipeline::new();
    let mut pending: Vec<Pending> = Vec::with_capacity(window);
    let mut page = vec![0u8; PAGE];
    let mut out = Vec::with_capacity(PAGE);
    let started = phase.start();
    loop {
        while pending.len() < window && !limit.reached(phase.attempted, started) {
            let (kind, key) = ops.next_op();
            let expect = model.expect(key);
            let req = match kind {
                Kind::Put => {
                    model.next_put(key, &mut page);
                    phase.log_put(model, key);
                    model.put_done(key, true);
                    Request::Put { key, page: &page }
                }
                Kind::Get => Request::Get { key },
                Kind::Del => {
                    model.delete(key);
                    Request::Del { key }
                }
            };
            let sent = Instant::now();
            let seq = pipe
                .send(client, &req)
                .map_err(|e| format!("pipelined send: {e}"))?;
            phase.attempted += 1;
            pending.push(Pending {
                seq,
                kind,
                key,
                expect,
                sent,
            });
        }
        if pending.is_empty() {
            break;
        }
        let (seq, status) = pipe
            .recv(client, &mut out)
            .map_err(|e| format!("pipelined recv: {e}"))?;
        let done = Instant::now();
        let at = pending
            .iter()
            .position(|p| p.seq == seq)
            .ok_or_else(|| format!("response tag {seq} matches no pending request"))?;
        let p = pending.swap_remove(at);
        let ns = (done - p.sent).as_nanos() as u64;
        if let Some(t) = tracer {
            t.finished(p.kind.name(), u64::from(p.seq), p.sent, done);
            let agg = &mut phase.roots[p.kind as usize];
            agg.count += 1;
            agg.root_ns += ns;
        }
        let ok = match (p.kind, status) {
            (Kind::Get, Status::Ok) => {
                if !model.admits(p.key, p.expect, Some(&out)) {
                    phase.mismatches += 1;
                }
                true
            }
            (Kind::Get, Status::NotFound) => {
                if !model.admits(p.key, p.expect, None) {
                    phase.mismatches += 1;
                }
                true
            }
            (Kind::Put, Status::Ok) | (Kind::Del, Status::Ok | Status::NotFound) => true,
            (Kind::Put, _) => {
                model.put_done(p.key, false);
                false
            }
            _ => false,
        };
        if ok {
            phase.lat[p.kind as usize].push(ns);
        } else {
            phase.failed += 1;
        }
        phase.tick(started, limit, store, model);
    }
    phase.finish(started, store, model);
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(steal: f64, ops_per_s: f64) -> Window {
        Window {
            steal,
            ops_per_s,
            p50: [0; 3],
            p99: [0; 3],
        }
    }

    #[test]
    fn stolen_windows_are_left_out_unless_too_few_remain() {
        let mut phase = Phase {
            windows: vec![window(0.0, 10.0), window(0.01, 12.0), window(0.5, 1.0)],
            ..Phase::default()
        };
        let one = std::slice::from_mut(&mut phase);
        assert_eq!(windows_counted(one), (2, 3));
        assert_eq!(median_ops_per_s(one), 11.0);
        one[0].windows = vec![
            window(0.5, 1.0),
            window(0.5, 2.0),
            window(0.5, 3.0),
            window(0.0, 9.0),
        ];
        assert_eq!(windows_counted(one), (4, 4));
        assert_eq!(median_ops_per_s(one), 2.5);
    }

    #[test]
    fn host_steal_never_exceeds_total() {
        let (steal, total) = host_ticks();
        assert!(steal <= total);
    }
}
