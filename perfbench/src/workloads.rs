//! The three workloads and how each run turns them into metrics.
//!
//! - `resident_zipf`: in-memory store, the compressed set fits the
//!   budget but the raw set does not (the paper's plateau).
//! - `spill_churn`: persistent spill file under a tiny budget, with
//!   deletes; ends with a clean shutdown, a timed reopen and a full GET
//!   sweep judged by the recovery contract.
//! - `wire_pipelined`: the TCP service over loopback, one connection
//!   with a fixed pipeline window, mostly hot GETs.
//!
//! A `--trace 0` run sets up several times (median `setup_s`), measures
//! three untraced sub-phases on three of those set-ups and reports the
//! end-to-end metrics over their pooled windows. A `--trace 1`
//! run measures the same op stream twice, untraced then traced, and
//! reports the per-layer split plus the tracing overhead.

use crate::alloc::live_bytes;
use crate::gen::{Kind, OpGen, PAGE};
use crate::model::{Model, RestartSweep};
use crate::phase::{
    mean_stored, median_ops_per_s, median_pct, prefill, store_phase, windows_counted, wire_phase,
    Limit, Phase,
};
use crate::report::Report;
use crate::stats::{median, percentile, ratio};
use crate::trace::{MediumStats, TimedMedium, Tracer};
use crate::{bench_dir, Args, Workload};
use cc_compress::{CodecPolicy, CodecSet, ThresholdPolicy};
use cc_core::medium::FileMedium;
use cc_core::store::{CompressedStore, StoreConfig, StoreStats};
use cc_server::{Client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes and op mix of one workload.
struct Spec {
    keys: usize,
    budget: usize,
    zipf_s: f64,
    put_pct: u64,
    get_pct: u64,
    /// Set-ups per `--trace 0` run (about 1.5 s in all); `setup_s` is
    /// their median.
    setup_reps: usize,
}

fn spec(w: Workload) -> Spec {
    match w {
        // 32 MB raw under 16 MB: fits only compressed.
        Workload::ResidentZipf => Spec {
            keys: 8192,
            budget: 16 << 20,
            zipf_s: 0.99,
            put_pct: 20,
            get_pct: 80,
            setup_reps: 9,
        },
        // 64 MB raw under 2 MB: nearly everything lives on the spill file.
        Workload::SpillChurn => Spec {
            keys: 16384,
            budget: 2 << 20,
            zipf_s: 0.6,
            put_pct: 50,
            get_pct: 40,
            setup_reps: 5,
        },
        // 4 MB raw under 16 MB: everything stays resident.
        Workload::WirePipelined => Spec {
            keys: 1024,
            budget: 16 << 20,
            zipf_s: 0.99,
            put_pct: 10,
            get_pct: 90,
            setup_reps: 15,
        },
    }
}

impl Spec {
    /// Op stream `stream` of `seed`. The phases of a `--trace 1` run all
    /// replay stream 1, so untraced, traced and direct-store phases issue
    /// the same ops.
    fn ops(&self, seed: u64, stream: u64) -> OpGen {
        OpGen::new(
            seed,
            stream,
            self.keys,
            self.zipf_s,
            self.put_pct,
            self.get_pct,
        )
    }
}

/// A `--trace 0` run measures this many sub-phases of `--seconds / 3`,
/// each on its own freshly set-up store with its own op stream, and pools
/// their windows. Consecutive stores differ in spill layout and
/// compaction rhythm as much as separate runs do, so pooling three keeps
/// one store from deciding a run's figures.
const SUBPHASES: usize = 3;

/// Requests in flight on the one wire connection.
const PIPELINE_DEPTH: usize = 8;

pub fn run(args: &Args) -> Report {
    let mut r = Report::new(args.trace);
    r.note(format!(
        "perfbench workload={} seed={} seconds={} trace={} cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    let scratch = Scratch::new(args);
    match (args.workload, args.trace) {
        (Workload::WirePipelined, false) => wire_e2e(args, &mut r),
        (Workload::WirePipelined, true) => wire_layers(args, &mut r),
        (_, false) => store_e2e(args, &mut r, &scratch),
        (_, true) => store_layers(args, &mut r, &scratch),
    }
    let failed_frac = ratio(r.failed as f64, r.attempted as f64);
    if args.trace {
        r.set("failed_op_frac", failed_frac);
    }
    r.note(format!(
        "ops attempted {} failed {} (failed_op_frac {failed_frac:.6})",
        r.attempted, r.failed
    ));
    r
}

/// A per-run scratch directory inside the benchmark's own directory,
/// removed when the run ends.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(args: &Args) -> Scratch {
        let root = bench_dir().join(".tmp").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        Scratch { root }
    }

    fn dir(&self, tag: &str) -> PathBuf {
        let d = self.root.join(tag);
        std::fs::create_dir_all(&d).expect("create scratch directory");
        d
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn spill_cfg(spec: &Spec, dir: &Path) -> StoreConfig {
    StoreConfig::with_spill(spec.budget, dir.join("spill")).with_persistent(true)
}

/// A store set up and prefilled for `resident_zipf` or `spill_churn`.
struct StoreRig {
    store: CompressedStore,
    model: Model,
    dir: Option<PathBuf>,
    /// Spill data and journal timings (traced `spill_churn` only).
    media: Option<(Arc<MediumStats>, Arc<MediumStats>)>,
}

impl StoreRig {
    /// Construct, prefill every key, drain the spill writer.
    fn build(
        args: &Args,
        scratch: &Scratch,
        tag: &str,
        tracer: Option<&Arc<Tracer>>,
        r: &mut Report,
    ) -> StoreRig {
        let spec = spec(args.workload);
        let (store, dir, media) = match args.workload {
            Workload::SpillChurn => {
                let dir = scratch.dir(tag);
                let cfg = spill_cfg(&spec, &dir);
                match tracer {
                    None => (CompressedStore::new(cfg), Some(dir), None),
                    Some(t) => {
                        let open = |name: &str| {
                            FileMedium::create(dir.join(name)).expect("create spill media")
                        };
                        let (data, ds) = TimedMedium::new(open("spill"), "medium", Arc::clone(t));
                        let (journal, js) =
                            TimedMedium::new(open("spill.map"), "journal", Arc::clone(t));
                        let store = CompressedStore::with_persistent_media(
                            cfg,
                            Arc::new(data),
                            Arc::new(journal),
                        )
                        .expect("open persistent store over timed media");
                        (store, Some(dir), Some((ds, js)))
                    }
                }
            }
            _ => (
                CompressedStore::new(StoreConfig::in_memory(spec.budget)),
                None,
                None,
            ),
        };
        let mut model = Model::new(args.seed, spec.keys);
        r.attempted += spec.keys as u64;
        r.failed += prefill(&store, &mut model);
        r.require(store.flush().is_ok(), "flush after prefill");
        StoreRig {
            store,
            model,
            dir,
            media,
        }
    }

    /// Shut the store down and drop it. Returns the heap bytes that went
    /// with it (live heap before minus after) and the model.
    fn teardown(self) -> (i64, Model, Option<PathBuf>) {
        let StoreRig {
            store, model, dir, ..
        } = self;
        let before = live_bytes();
        store.shutdown();
        drop(store);
        (before - live_bytes(), model, dir)
    }
}

fn remove_dir(dir: Option<PathBuf>) {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Fold a phase's op counts into the run and check its GETs.
fn absorb(r: &mut Report, phase: &Phase, what: &str) {
    r.attempted += phase.attempted;
    r.failed += phase.failed;
    r.require(
        phase.mismatches == 0,
        &format!(
            "{what}: {} GETs returned bytes the model does not admit",
            phase.mismatches
        ),
    );
    r.note(format!(
        "{what}: {:.3} s, {:.0} ops/s; samples get {} put {} del {}; whole-phase p50/p99 us get {:.2}/{:.2} put {:.2}/{:.2}",
        phase.wall.as_secs_f64(),
        phase.ops_per_s(),
        phase.count(Kind::Get),
        phase.count(Kind::Put),
        phase.count(Kind::Del),
        us(phase.pct(Kind::Get, 50.0)),
        us(phase.pct(Kind::Get, 99.0)),
        us(phase.pct(Kind::Put, 50.0)),
        us(phase.pct(Kind::Put, 99.0)),
    ));
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end latency and throughput metrics of a measured phase.
fn set_latency(r: &mut Report, phases: &[Phase]) {
    for phase in phases {
        r.note(format!(
            "windows (ops/s / get p99 us / host steal): {}",
            phase.window_summary()
        ));
    }
    let (used, all) = windows_counted(phases);
    r.note(format!(
        "medians over {used} of {all} windows (windows with host steal above 5% left out)"
    ));
    r.set("ops_per_s", median_ops_per_s(phases));
    r.set("get_p50_us", median_pct(phases, Kind::Get, false) / 1e3);
    r.set("get_p99_us", median_pct(phases, Kind::Get, true) / 1e3);
    r.set("put_p50_us", median_pct(phases, Kind::Put, false) / 1e3);
    r.set("put_p99_us", median_pct(phases, Kind::Put, true) / 1e3);
    r.set("stored_bytes_per_user_byte", mean_stored(phases));
}

fn set_setup(r: &mut Report, setup: &[f64]) {
    r.set("setup_s", median(setup));
    let list: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
    r.note(format!("setup_s samples [{}]", list.join(", ")));
}

fn store_e2e(args: &Args, r: &mut Report, scratch: &Scratch) {
    let spec = spec(args.workload);
    let limit = Limit::Time(Duration::from_secs(args.seconds) / SUBPHASES as u32);
    let (mut setup, mut phases, mut heaps) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..spec.setup_reps.max(SUBPHASES) {
        let t0 = Instant::now();
        let mut rig = StoreRig::build(args, scratch, &format!("setup{rep}"), None, r);
        setup.push(t0.elapsed().as_secs_f64());
        if rep >= SUBPHASES {
            remove_dir(rig.teardown().2);
            continue;
        }
        let mut ops = spec.ops(args.seed, rep as u64 + 1);
        let phase = store_phase(&rig.store, &mut rig.model, &mut ops, limit, None);
        absorb(r, &phase, &format!("measured sub-phase {rep}"));
        r.require(rig.store.flush().is_ok(), "flush after the measured phase");
        let resident = rig.store.stats().resident_bytes;
        let (heap, model, dir) = rig.teardown();
        heaps.push(heap as f64 / spec.budget as f64);
        r.note(format!(
            "heap owned by the store {heap} B, store-accounted resident {resident} B, budget {} B",
            spec.budget
        ));
        if let Some(dir) = &dir {
            reopen_and_sweep(&spec, dir, &model, r);
        }
        remove_dir(dir);
        phases.push(phase);
    }
    set_setup(r, &setup);
    set_latency(r, &phases);
    r.set("heap_per_budget", median(&heaps));
}

/// Reopen a shut-down persistent store and GET every key. Under the
/// recovery contract each GET may miss or return some version ever put
/// under the key; stale versions and resurrected deletes are counted,
/// and bytes never put fail the run. Returns (reopen ms, extents
/// recovered, sweep counts).
fn reopen_and_sweep(
    spec: &Spec,
    dir: &Path,
    model: &Model,
    r: &mut Report,
) -> (f64, u64, RestartSweep) {
    let t0 = Instant::now();
    let store = match CompressedStore::open_existing(spill_cfg(spec, dir)) {
        Ok(s) => s,
        Err(e) => {
            r.require(false, &format!("open_existing: {e}"));
            return (0.0, 0, RestartSweep::default());
        }
    };
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered = store.stats().extents_recovered;
    let mut sweep = RestartSweep::default();
    let mut out = vec![0u8; PAGE];
    for key in 0..spec.keys as u64 {
        r.attempted += 1;
        match store.get(key, &mut out) {
            Ok(hit) => sweep.add(model.judge(key, hit.then_some(&out[..]))),
            Err(_) => r.failed += 1,
        }
    }
    store.shutdown();
    r.note(format!(
        "reopen {reopen_ms:.2} ms, {recovered} extents recovered; sweep: exact {} absent {} stale {} resurrected {} lost {} corrupt {}",
        sweep.exact, sweep.absent, sweep.stale, sweep.resurrected, sweep.lost, sweep.corrupt
    ));
    r.require(
        sweep.passed(),
        "post-restart sweep: bytes never put under their key",
    );
    (reopen_ms, recovered, sweep)
}

fn store_layers(args: &Args, r: &mut Report, scratch: &Scratch) {
    let spec = spec(args.workload);
    let half = Limit::Time(Duration::from_millis(args.seconds * 500));

    let mut rig = StoreRig::build(args, scratch, "untraced", None, r);
    let plain = store_phase(
        &rig.store,
        &mut rig.model,
        &mut spec.ops(args.seed, 1),
        half,
        None,
    );
    absorb(r, &plain, "untraced phase");
    remove_dir(rig.teardown().2);

    let tracer = Tracer::new();
    let mut rig = StoreRig::build(args, scratch, "traced", Some(&tracer), r);
    if let Some((data, journal)) = &rig.media {
        data.reset();
        journal.reset();
    }
    let before = rig.store.stats();
    let traced = store_phase(
        &rig.store,
        &mut rig.model,
        &mut spec.ops(args.seed, 1),
        half,
        Some(&tracer),
    );
    absorb(r, &traced, "traced phase");
    r.require(rig.store.flush().is_ok(), "flush after the traced phase");
    let after = rig.store.stats();
    set_store_counts(r, &before, &after, &traced);
    if let Some((data, journal)) = &rig.media {
        set_medium(r, data, journal, &traced, &before, &after);
    }
    r.set("mem.resident_bytes", after.resident_bytes as f64);
    // Held past the teardown, so the timing samples are not counted as
    // heap the store owned.
    let _media = rig.media.clone();
    let (heap, model, dir) = rig.teardown();
    r.set("mem.heap_bytes", heap as f64);

    if let Some(dir) = &dir {
        let (ms, recovered, sweep) = reopen_and_sweep(&spec, dir, &model, r);
        r.set("persist.reopen_ms", ms);
        r.set("persist.extents_recovered", recovered as f64);
        r.set("persist.stale_after_reopen", sweep.stale as f64);
        r.set("persist.resurrected_after_reopen", sweep.resurrected as f64);
        r.set("persist.lost_after_reopen", sweep.lost as f64);
    }
    remove_dir(dir);
    codec_replay(r, &model, &traced.put_log);
    finish_trace(args, r, &tracer, &plain, &traced);
}

/// Counter deltas over the traced phase, from `stats()`.
fn set_store_counts(r: &mut Report, a: &StoreStats, b: &StoreStats, phase: &Phase) {
    let d = |f: fn(&StoreStats) -> u64| f(b).saturating_sub(f(a)) as f64;
    let gets = phase.count(Kind::Get) as f64;
    let puts = phase.count(Kind::Put) as f64;
    r.set("store.hit_hot_frac", ratio(d(|s| s.hits_hot), gets));
    r.set("store.hit_warm_frac", ratio(d(|s| s.hits_memory), gets));
    r.set("store.hit_spill_frac", ratio(d(|s| s.hits_spill), gets));
    r.set("store.miss_frac", ratio(d(|s| s.misses), gets));
    let promoted = d(|s| s.promotions);
    let rejected = d(|s| s.promotions_rejected);
    r.set("tier.promotions", promoted);
    r.set(
        "tier.promotions_rejected_frac",
        ratio(rejected, promoted + rejected),
    );
    r.set(
        "tier.demotions",
        d(|s| s.demoted_hot) + d(|s| s.demoted_warm),
    );
    r.set("tier.demoter_passes", d(|s| s.demoter_passes));
    r.set(
        "codec.ratio",
        ratio(
            d(|s| s.lzrw1_in_bytes) + d(|s| s.bdi_in_bytes),
            d(|s| s.lzrw1_out_bytes) + d(|s| s.bdi_out_bytes),
        ),
    );
    let (bdi, lz) = (d(|s| s.puts_bdi), d(|s| s.puts_lzrw1));
    r.set("codec.bdi_share", ratio(bdi, bdi + lz));
    r.set(
        "codec.fallbacks_per_put",
        ratio(d(|s| s.codec_fallbacks), puts),
    );
    let (raw, comp) = (d(|s| s.stored_raw), d(|s| s.compressed));
    r.set("codec.stored_raw_frac", ratio(raw, raw + comp));
    r.set(
        "spill.entries_per_batch",
        ratio(d(|s| s.spilled), d(|s| s.spill_batches)),
    );
    r.set("gc.runs", d(|s| s.gc_runs));
    r.set(
        "gc.bytes_relocated_per_put_byte",
        ratio(d(|s| s.gc_bytes_relocated), puts * PAGE as f64),
    );
    r.set("gc.pause_max_ms", b.gc_pause_max_ns as f64 / 1e6);
}

/// Spill data and journal medium figures over the traced phase.
fn set_medium(
    r: &mut Report,
    data: &MediumStats,
    journal: &MediumStats,
    phase: &Phase,
    a: &StoreStats,
    b: &StoreStats,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let puts = phase.count(Kind::Put) as f64;
    r.set(
        "medium.write_bytes_per_put_byte",
        ratio(data.write_bytes.load(Relaxed) as f64, puts * PAGE as f64),
    );
    r.set("medium.writes", data.writes.load(Relaxed) as f64);
    r.set(
        "medium.write_us_p50",
        us(percentile(&data.write_ns(), 50.0)),
    );
    r.set(
        "medium.busy_frac",
        ratio(
            data.busy_ns.load(Relaxed) as f64,
            phase.wall.as_nanos() as f64,
        ),
    );
    r.set("medium.read_us_p50", us(percentile(&data.read_ns(), 50.0)));
    let spill_hits = b.hits_spill.saturating_sub(a.hits_spill) as f64;
    r.set(
        "medium.reads_per_spill_hit",
        ratio(data.op_reads.load(Relaxed) as f64, spill_hits),
    );
    r.set(
        "journal.write_bytes_per_put",
        ratio(journal.write_bytes.load(Relaxed) as f64, puts),
    );
    r.set("journal.flushes", journal.flushes.load(Relaxed) as f64);
}

/// Replay the traced phase's put stream through the codec layer alone,
/// under the default policy and threshold: compress and decompress
/// times per page, and a round-trip check.
fn codec_replay(r: &mut Report, model: &Model, log: &[(u64, u32)]) {
    let mut set = CodecSet::new();
    let (mut page, mut sealed, mut out) = (vec![0u8; PAGE], Vec::new(), Vec::new());
    let (mut comp, mut decomp) = (Vec::with_capacity(log.len()), Vec::with_capacity(log.len()));
    let mut bad = 0;
    for &(key, version) in log {
        model.page(key, version, &mut page);
        let t0 = Instant::now();
        let sel = set.compress_with_policy(
            CodecPolicy::default(),
            ThresholdPolicy::default(),
            &page,
            &mut sealed,
        );
        comp.push(t0.elapsed().as_nanos() as u64);
        let t1 = Instant::now();
        let res = set.decompress(sel.codec, &sealed, &mut out, PAGE);
        decomp.push(t1.elapsed().as_nanos() as u64);
        if res.is_err() || out != page {
            bad += 1;
        }
    }
    comp.sort_unstable();
    decomp.sort_unstable();
    r.set("codec.compress_ns_p50", percentile(&comp, 50.0) as f64);
    r.set("codec.decompress_ns_p50", percentile(&decomp, 50.0) as f64);
    r.note(format!(
        "codec replay: {} pages, {bad} failed the round trip",
        log.len()
    ));
    r.require(bad == 0, "codec replay round trip");
}

/// Span breakdown per op kind, tracing overhead, and the span dump.
fn finish_trace(args: &Args, r: &mut Report, tracer: &Tracer, plain: &Phase, traced: &Phase) {
    for kind in Kind::ALL {
        let agg = traced.roots[kind as usize];
        let name = kind.name();
        let share = ratio(agg.child_ns as f64, agg.root_ns as f64);
        r.set(
            &format!("span.{name}.root_mean_us"),
            ratio(agg.root_ns as f64, agg.count as f64) / 1e3,
        );
        r.set(&format!("span.{name}.medium_share"), share);
        r.set(
            &format!("span.{name}.self_share"),
            if agg.count > 0 { 1.0 - share } else { 0.0 },
        );
    }
    r.set(
        "trace.overhead_frac",
        1.0 - ratio(traced.ops_per_s(), plain.ops_per_s()),
    );
    let dir = bench_dir().join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok((kept, dropped)) => r.note(format!(
            "spans: {kept} written to {} ({dropped} beyond the cap)",
            path.display()
        )),
        Err(e) => r.note(format!("spans not written: {e}")),
    }
}

/// A server over an in-memory store, one connected client, prefilled.
struct WireRig {
    store: Arc<CompressedStore>,
    server: Server,
    client: Client,
    model: Model,
}

impl WireRig {
    fn build(args: &Args, r: &mut Report) -> WireRig {
        let spec = spec(Workload::WirePipelined);
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(spec.budget)));
        let server = Server::spawn(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
            .expect("bind a loopback port");
        let mut client = Client::connect(server.local_addr()).expect("connect to the server");
        let mut model = Model::new(args.seed, spec.keys);
        let mut page = vec![0u8; PAGE];
        for key in 0..spec.keys as u64 {
            model.next_put(key, &mut page);
            let ok = client.put(key, &page).is_ok();
            model.put_done(key, ok);
            r.attempted += 1;
            r.failed += u64::from(!ok);
        }
        r.require(client.flush().is_ok(), "FLUSH after prefill");
        WireRig {
            store,
            server,
            client,
            model,
        }
    }

    /// Disconnect, shut the server down and drop the store. Returns the
    /// heap bytes that went with them, and the model.
    fn teardown(self) -> (i64, Model) {
        let WireRig {
            store,
            server,
            client,
            model,
        } = self;
        let before = live_bytes();
        drop(client);
        server.shutdown();
        drop(store);
        (before - live_bytes(), model)
    }

    fn phase(
        &mut self,
        args: &Args,
        stream: u64,
        limit: Limit,
        tracer: Option<&Tracer>,
        r: &mut Report,
        what: &str,
    ) -> Phase {
        let spec = spec(Workload::WirePipelined);
        let mut ops = spec.ops(args.seed, stream);
        let phase = wire_phase(
            &mut self.client,
            &self.store,
            &mut self.model,
            &mut ops,
            limit,
            PIPELINE_DEPTH,
            tracer,
        )
        .unwrap_or_else(|e| {
            r.require(false, &format!("{what}: {e}"));
            Phase::default()
        });
        absorb(r, &phase, what);
        r.require(
            self.client.flush().is_ok(),
            &format!("FLUSH after the {what}"),
        );
        phase
    }
}

fn wire_e2e(args: &Args, r: &mut Report) {
    let spec = spec(Workload::WirePipelined);
    let limit = Limit::Time(Duration::from_secs(args.seconds) / SUBPHASES as u32);
    let (mut setup, mut phases, mut heaps) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..spec.setup_reps.max(SUBPHASES) {
        let t0 = Instant::now();
        let mut rig = WireRig::build(args, r);
        setup.push(t0.elapsed().as_secs_f64());
        if rep >= SUBPHASES {
            rig.teardown();
            continue;
        }
        let what = format!("measured sub-phase {rep}");
        let phase = rig.phase(args, rep as u64 + 1, limit, None, r, &what);
        let resident = rig.store.stats().resident_bytes;
        let (heap, _) = rig.teardown();
        heaps.push(heap as f64 / spec.budget as f64);
        r.note(format!(
            "heap owned by the store and server {heap} B, store-accounted resident {resident} B, budget {} B",
            spec.budget
        ));
        phases.push(phase);
    }
    set_setup(r, &setup);
    set_latency(r, &phases);
    r.set("heap_per_budget", median(&heaps));
}

/// A value from the STATS payload (Prometheus text), by exact series.
fn prom_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

fn wire_layers(args: &Args, r: &mut Report) {
    let spec = spec(Workload::WirePipelined);
    let half = Limit::Time(Duration::from_millis(args.seconds * 500));

    let mut rig = WireRig::build(args, r);
    let plain = rig.phase(args, 1, half, None, r, "untraced phase");
    match rig.client.stats() {
        Ok(text) => {
            for (metric, op) in [("server.get_p50_us", "get"), ("server.put_p50_us", "put")] {
                let series = format!("cc_server_{op}_latency_ns{{quantile=\"0.5\"}}");
                r.set(metric, prom_value(&text, &series).unwrap_or(0.0) / 1e3);
            }
        }
        Err(e) => r.require(false, &format!("STATS: {e}")),
    }
    rig.teardown();

    // The identical op stream on a fresh store, with no wire.
    let store = CompressedStore::new(StoreConfig::in_memory(spec.budget));
    let mut model = Model::new(args.seed, spec.keys);
    r.attempted += spec.keys as u64;
    r.failed += prefill(&store, &mut model);
    let mut ops = spec.ops(args.seed, 1);
    let direct = store_phase(
        &store,
        &mut model,
        &mut ops,
        Limit::Ops(plain.attempted),
        None,
    );
    absorb(r, &direct, "direct-store replay");
    drop(store);
    let per_op = |p: &Phase| ratio(p.wall.as_nanos() as f64, p.attempted as f64);
    r.set("server.ns_per_op", per_op(&plain));
    r.set("store.ns_per_op_direct", per_op(&direct));
    r.set("wire.overhead_ns_per_op", per_op(&plain) - per_op(&direct));

    let tracer = Tracer::new();
    let mut rig = WireRig::build(args, r);
    let before = rig.store.stats();
    let traced = rig.phase(args, 1, half, Some(&tracer), r, "traced phase");
    let after = rig.store.stats();
    set_store_counts(r, &before, &after, &traced);
    r.set("mem.resident_bytes", after.resident_bytes as f64);
    let (heap, model) = rig.teardown();
    r.set("mem.heap_bytes", heap as f64);
    codec_replay(r, &model, &traced.put_log);
    finish_trace(args, r, &tracer, &plain, &traced);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_value_reads_one_exact_series() {
        let text = "# TYPE x summary\ncc_server_get_latency_ns{quantile=\"0.5\"} 1536\n\
                    cc_server_get_latency_ns{quantile=\"0.99\"} 9000\n";
        assert_eq!(
            prom_value(text, "cc_server_get_latency_ns{quantile=\"0.5\"}"),
            Some(1536.0)
        );
        assert_eq!(
            prom_value(text, "cc_server_put_latency_ns{quantile=\"0.5\"}"),
            None
        );
    }

    #[test]
    fn working_sets_sit_where_each_workload_needs_them() {
        let raw = |w| spec(w).keys * PAGE;
        let resident = spec(Workload::ResidentZipf);
        assert!(
            raw(Workload::ResidentZipf) > resident.budget,
            "raw set must not fit"
        );
        assert!(raw(Workload::SpillChurn) >= 16 * spec(Workload::SpillChurn).budget);
        assert!(raw(Workload::WirePipelined) < spec(Workload::WirePipelined).budget);
    }
}
