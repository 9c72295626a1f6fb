//! A standalone, thread-safe compressed page store — the paper's idea as
//! a modern library API.
//!
//! The simulator in this workspace reproduces the 1993 system; this
//! module is the same mechanism packaged the way its descendants (zram,
//! zswap, the macOS/Windows compressed memory managers) expose it: a
//! bounded in-memory store that keeps pages compressed, with spill of the
//! coldest entries to a backing file handled by a background writer
//! thread — the §4.2 cleaner, for real this time.
//!
//! # Concurrency
//!
//! The store is **lock-striped**: keys hash onto a power-of-two number of
//! shards (default: one per hardware thread), each with its own entry
//! map, LRU spill ordering, and buffer pool behind its own mutex. The
//! global memory budget is enforced through a single atomic byte counter
//! using compare-and-swap reservation, so `stats().resident_bytes` never
//! exceeds the configured budget, while puts and gets on different shards
//! proceed fully in parallel. Compression and decompression always run
//! outside any shard lock, on thread-local reusable buffers, so the
//! steady-state hot path performs no heap allocation.
//!
//! # Spill pipeline
//!
//! Evicted entries travel through a batched write pipeline that mirrors
//! the paper's §4.3 backing-store interface: the writer thread coalesces
//! queued entries into [`StoreConfig::spill_batch_bytes`]-sized batches
//! (32 KB by default, the paper's batch size) and issues one seek + one
//! write per batch, publishing each entry's `{offset, len}` only after
//! the batch is durable. Removed or replaced spilled entries leave dead
//! bytes behind; when the dead fraction of the file crosses
//! [`StoreConfig::gc_dead_ratio`] the writer compacts live extents toward
//! the file head and truncates — the paper's fragment garbage collection.
//! Pages that are a single repeated machine word (zswap's "same-filled"
//! pages) bypass the compressor entirely and are stored as an 8-byte
//! pattern with zero residency cost.
//!
//! # Tiering
//!
//! Placement across the three tiers — **hot** (uncompressed-resident,
//! a get is a memcpy), **warm** (compressed-in-memory), **cold**
//! (spilled) — is decided per entry by a pluggable
//! [`crate::tier::TierPolicy`]. Every put and get bumps a global
//! operation clock and stamps the entry, giving each page a cheap
//! generation-counter age; the put path's sampled compressibility probe
//! is recorded per entry so later demotion reuses it instead of
//! re-probing. The default policy
//! ([`crate::tier::RecencyCompressibility`]) admits incompressible
//! pages hot, promotes warm/cold pages back to hot on rapid re-access
//! (never evicting to do so — promotion only proceeds when the extra
//! bytes fit the budget outright), and relies on a background demoter
//! thread that, under budget pressure, compresses aged hot pages down
//! to warm and spills aged warm pages cold.
//! [`crate::tier::CompressAll`] reproduces the flat pre-tiering store
//! exactly (no hot tier, no demoter thread), and
//! [`crate::tier::PaperThreshold`] reproduces the paper's 4:3 rule as
//! a pure admission-time split.
//!
//! # Fault model
//!
//! The spill path assumes the medium *lies* (see [`crate::medium`]):
//! every extent on the file carries a self-verifying header (magic,
//! payload length, generation, codec id, and a CRC-32 covering both the
//! header fields and the compressed payload) written at batch-commit
//! time, so a corrupted or misdirected read is detected and surfaced as
//! [`StoreError::Corrupt`] — never decompressed into a user page, and
//! never decoded with a codec other than the one that sealed it.
//!
//! # Codec selection
//!
//! Each put selects a codec under [`StoreConfig::codec_policy`]
//! (default adaptive): a cheap sampled probe classifies the page and
//! routes word-regular pages to the single-pass BDI codec, everything
//! else to LZRW1, with automatic fallback when the probe mispredicts.
//! The chosen [`cc_compress::CodecId`] is recorded in the entry and
//! sealed into any spill extent; per-codec put counts, achieved bytes,
//! and compress/decompress latency histograms flow through telemetry. Transient read/write failures get bounded retry with
//! exponential backoff ([`StoreConfig::with_spill_retry`]); after
//! [`StoreConfig::degrade_after`] consecutive hard batch failures the
//! store enters **degraded mode**: spill is disabled, eviction becomes
//! clean-page *shedding* (dropping the coldest entries — cache-miss
//! semantics — to stay under budget), and a probation loop re-probes the
//! medium every [`StoreConfig::probe_interval`], re-enabling spill once
//! a canary write/read round-trips. The transitions are counted and
//! ring-logged, and [`CompressedStore::is_degraded`] exposes the gauge.
//!
//! # Telemetry
//!
//! Every store carries a [`cc_telemetry::Telemetry`] instance:
//! [`StoreStats`] is assembled from its shard-striped counter bank (so a
//! stats read takes no shard lock and no field can tear), put/get/spill
//! I/O and GC pauses feed lock-free latency histograms, and structural
//! events (batch commits, GC passes, evictions, threshold rejects,
//! same-filled elisions) flow through a bounded lossy event ring. Get a
//! [`cc_telemetry::Snapshot`] via [`CompressedStore::telemetry_snapshot`];
//! disable the sampling (never the counters) with
//! [`StoreConfig::with_telemetry`].
//!
//! ```
//! use cc_core::store::{CompressedStore, StoreConfig};
//!
//! let store = CompressedStore::new(StoreConfig::in_memory(16 * 1024 * 1024));
//! let page = vec![7u8; 4096];
//! store.put(42, &page).unwrap();
//! let mut out = vec![0u8; 4096];
//! assert!(store.get(42, &mut out).unwrap());
//! assert_eq!(out, page);
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::medium::{FileMedium, SpillMedium};
use crate::persist::{
    self, jkind, JournalRecord, Persist, PersistState, RecoverError, Superblock,
    SUPERBLOCK_RESERVED,
};
use crate::tier::{PlacementQuery, TierDecision, TierPolicy};
use cc_compress::{
    expand_same_filled, probe_bdi, same_filled_pattern, CodecId, CodecPolicy, CodecSet,
    ThresholdPolicy,
};
use cc_telemetry::trace::{sop, tier as strier, AnomalyKind, Span, TraceCtx, Tracer};
use cc_telemetry::{Telemetry, TelemetrySpec};
use cc_util::{Crc32, LruList};

/// Counter indices into the store's [`TelemetrySpec`] (one striped,
/// cache-padded atomic per shard per counter — the statistics of record,
/// live even when latency sampling is disabled).
mod tstat {
    pub const COMPRESSED: usize = 0;
    pub const STORED_RAW: usize = 1;
    pub const SAME_FILLED: usize = 2;
    pub const HITS_MEMORY: usize = 3;
    pub const HITS_SPILL: usize = 4;
    pub const MISSES: usize = 5;
    pub const SPILLED: usize = 6;
    pub const SPILL_BATCHES: usize = 7;
    pub const GC_RUNS: usize = 8;
    pub const GC_BYTES_RELOCATED: usize = 9;
    pub const SPILL_FALLBACK_RESIDENT: usize = 10;
    pub const SHED_PAGES: usize = 11;
    pub const CORRUPT_DETECTED: usize = 12;
    pub const IO_RETRIES: usize = 13;
    pub const DEGRADED_ENTERED: usize = 14;
    pub const DEGRADED_RECOVERED: usize = 15;
    pub const MEDIUM_PROBES: usize = 16;
    pub const PUTS_LZRW1: usize = 17;
    pub const PUTS_BDI: usize = 18;
    pub const CODEC_FALLBACKS: usize = 19;
    pub const LZRW1_IN_BYTES: usize = 20;
    pub const LZRW1_OUT_BYTES: usize = 21;
    pub const BDI_IN_BYTES: usize = 22;
    pub const BDI_OUT_BYTES: usize = 23;
    pub const HITS_HOT: usize = 24;
    pub const PUTS_HOT: usize = 25;
    pub const PROMOTIONS: usize = 26;
    pub const PROMOTIONS_REJECTED: usize = 27;
    pub const DEMOTED_HOT: usize = 28;
    pub const DEMOTED_WARM: usize = 29;
    pub const DEMOTER_PASSES: usize = 30;
    pub const EXTENTS_RECOVERED: usize = 31;
    pub const JOURNAL_RECORDS_REPLAYED: usize = 32;
    pub const TORN_TAIL_DISCARDED: usize = 33;
    pub const STALE_GENERATION_DROPPED: usize = 34;
    pub const RECOVERY_EXTENTS_VERIFIED: usize = 35;
    pub const JOURNAL_RECORDS_WRITTEN: usize = 36;
    pub const JOURNAL_COMPACTIONS: usize = 37;
    pub const CLEAN_RECOVERIES: usize = 38;
    pub const NAMES: &[&str] = &[
        "compressed",
        "stored_raw",
        "same_filled",
        "hits_memory",
        "hits_spill",
        "misses",
        "spilled",
        "spill_batches",
        "gc_runs",
        "gc_bytes_relocated",
        "spill_fallback_resident",
        "shed_pages",
        "corrupt_detected",
        "io_retries",
        "degraded_entered",
        "degraded_recovered",
        "medium_probes",
        "puts_lzrw1",
        "puts_bdi",
        "codec_fallbacks",
        "lzrw1_in_bytes",
        "lzrw1_out_bytes",
        "bdi_in_bytes",
        "bdi_out_bytes",
        "hits_hot",
        "puts_hot",
        "promotions",
        "promotions_rejected",
        "demoted_hot",
        "demoted_warm",
        "demoter_passes",
        "extents_recovered",
        "journal_records_replayed",
        "torn_tail_discarded",
        "stale_generation_dropped",
        "recovery_extents_verified",
        "journal_records_written",
        "journal_compactions",
        "clean_recoveries",
    ];
}

/// Timed-operation indices (one lock-free latency histogram each).
mod top {
    pub const PUT: usize = 0;
    pub const GET_MEMORY: usize = 1;
    pub const GET_SAME_FILLED: usize = 2;
    pub const GET_SPILL: usize = 3;
    pub const SPILL_WRITE: usize = 4;
    pub const SPILL_READ: usize = 5;
    pub const GC_PAUSE: usize = 6;
    pub const COMPRESS_LZRW1: usize = 7;
    pub const COMPRESS_BDI: usize = 8;
    pub const DECOMPRESS_LZRW1: usize = 9;
    pub const DECOMPRESS_BDI: usize = 10;
    pub const GET_HOT: usize = 11;
    pub const PROMOTE: usize = 12;
    pub const DEMOTE_PAUSE: usize = 13;
    pub const RECOVERY: usize = 14;
    pub const NAMES: &[&str] = &[
        "put",
        "get_memory",
        "get_same_filled",
        "get_spill",
        "spill_write",
        "spill_read",
        "gc_pause",
        "compress_lzrw1",
        "compress_bdi",
        "decompress_lzrw1",
        "decompress_bdi",
        "get_hot",
        "promote",
        "demote_pause",
        "recovery_duration",
    ];
}

/// Structured event kinds pushed into the telemetry ring.
mod tevent {
    /// `a` = entries in the batch, `b` = batch bytes.
    pub const BATCH_COMMIT: usize = 0;
    /// `a` = bytes relocated, `b` = pause nanoseconds.
    pub const GC_RUN: usize = 1;
    /// `a` = victim key, `b` = compressed bytes spilled.
    pub const EVICT: usize = 2;
    /// `a` = key, `b` = bytes stored raw after the threshold rejected
    /// the compressed form.
    pub const THRESHOLD_REJECT: usize = 3;
    /// `a` = key, `b` = the repeated 8-byte pattern.
    pub const SAME_FILLED: usize = 4;
    /// `a` = consecutive hard batch failures at the transition, `b` = 0.
    pub const DEGRADE: usize = 5;
    /// `a` = probes issued while degraded, `b` = 0.
    pub const RECOVER: usize = 6;
    /// `a` = key shed, `b` = compressed bytes dropped.
    pub const SHED: usize = 7;
    /// `a` = key, `b` = file offset of the extent that failed
    /// verification.
    pub const CORRUPT: usize = 8;
    /// `a` = key promoted to hot, `b` = source tier
    /// ([`cc_telemetry::trace::tier`] code).
    pub const PROMOTE: usize = 9;
    /// `a` = pages demoted by one demoter pass, `b` = pass nanoseconds.
    pub const DEMOTE: usize = 10;
    /// Warm restart: `a` = extents recovered from the spill file,
    /// `b` = recovery duration in nanoseconds.
    pub const RECOVERY: usize = 11;
    pub const NAMES: &[&str] = &[
        "batch_commit",
        "gc_run",
        "evict",
        "threshold_reject",
        "same_filled",
        "degrade",
        "recover",
        "shed",
        "corrupt",
        "promote",
        "demote",
        "recovery",
    ];
}

/// The store's telemetry layout: shard-striped counters, per-operation
/// latency histograms, and the structured event kinds above.
const STORE_TELEMETRY: TelemetrySpec = TelemetrySpec {
    counters: tstat::NAMES,
    ops: top::NAMES,
    events: tevent::NAMES,
};

/// Configuration of a [`CompressedStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Maximum bytes of compressed data held in memory. Beyond this, the
    /// coldest entries are spilled (if a spill file is configured) or
    /// puts fail with [`StoreError::OutOfMemory`].
    pub memory_budget: usize,
    /// Optional spill file path; created/truncated on open.
    pub spill_path: Option<PathBuf>,
    /// Keep-compressed threshold; pages failing it are stored raw (they
    /// still count against the budget — exactly the paper's accounting).
    pub threshold: ThresholdPolicy,
    /// Which codec(s) the put path may use. The default,
    /// [`CodecPolicy::Adaptive`], probes each page and runs the BDI
    /// word-pattern codec when it predicts a win, LZRW1 otherwise;
    /// `Lzrw1Only` reproduces the paper's single-codec behavior and
    /// `BdiOnly` is the ablation arm. The chosen codec's id is recorded
    /// in the entry and sealed into any spill extent, so a policy change
    /// between runs never misdecodes existing data.
    pub codec_policy: CodecPolicy,
    /// Number of lock-striped shards, rounded up to a power of two.
    /// `0` (the default) sizes the striping to the hardware parallelism.
    pub shards: usize,
    /// Target bytes per coalesced spill batch. The writer thread packs
    /// queued entries until a batch reaches this size (or the queue goes
    /// briefly idle) and writes it with a single seek + write. Default is
    /// the paper's §4.3 batch size, 32 KB.
    pub spill_batch_bytes: usize,
    /// Dead-space fraction of the spill file (`spill_dead_bytes /
    /// bytes_on_spill`) beyond which the writer compacts live extents
    /// toward the file head and truncates. Default `0.5`.
    pub gc_dead_ratio: f64,
    /// Whether latency sampling and hot-path event capture are enabled
    /// (default `true`). Counters stay live either way — [`StoreStats`]
    /// is always exact — and the writer thread's batch/GC timings are
    /// always recorded since they are off the data path.
    pub telemetry: bool,
    /// Total attempts (first try + retries) for a spill read or batch
    /// write before the failure is treated as hard. Default 3; clamped
    /// to at least 1.
    pub spill_retry_attempts: u32,
    /// Backoff before retry `n` is `spill_retry_base << (n - 1)`
    /// (exponential). Default 500 µs.
    pub spill_retry_base: Duration,
    /// Consecutive *hard* batch-write failures (each already having
    /// exhausted its retries) after which the store enters degraded
    /// mode. Default 3.
    pub degrade_after: u32,
    /// While degraded, the writer probes the medium with a canary
    /// write/read round-trip at this interval, re-enabling spill on
    /// success. Default 50 ms.
    pub probe_interval: Duration,
    /// Optional request tracer / flight recorder. When set, sampled
    /// requests record causal spans (put/get, compress, spill queue +
    /// write, spill read, GC) and store anomalies (corruption,
    /// degraded-mode entry, long GC pauses) trigger automatic dumps.
    /// Share the same instance with the server (the service picks it up
    /// from the store) so one trace covers wire and store.
    pub tracer: Option<Arc<Tracer>>,
    /// Hot/warm/cold placement policy (see [`crate::tier`]). The
    /// default, [`crate::tier::RecencyCompressibility`], keeps
    /// incompressible and rapidly re-accessed pages uncompressed in the
    /// hot tier and ages them back down under pressure;
    /// [`crate::tier::CompressAll`] reproduces the flat pre-tiering
    /// store exactly.
    pub tier_policy: Arc<dyn TierPolicy>,
    /// How often the background demoter wakes to sweep for aged hot and
    /// warm pages (only spawned when the policy wants aging at all;
    /// budget-pressure evictions also nudge it awake early). Default
    /// 5 ms.
    pub demote_interval: Duration,
    /// Make the spill tier crash-safe and warm-restartable: a
    /// checksummed superblock heads the spill file and every durable
    /// spill batch group-commits its locations to a sibling
    /// `<spill_path>.map` journal, so [`CompressedStore::open_existing`]
    /// can rebuild the cold tier after a crash or restart. Default
    /// `false` (the spill file is scratch space that dies with the
    /// process).
    pub persistent: bool,
}

/// The paper's §4.3 write-back batch size.
const DEFAULT_SPILL_BATCH: usize = 32 * 1024;

/// Default total attempts for a spill read or batch write.
const DEFAULT_RETRY_ATTEMPTS: u32 = 3;

/// Default base backoff between spill I/O retries.
const DEFAULT_RETRY_BASE: Duration = Duration::from_micros(500);

/// Default consecutive hard batch failures before degrading.
const DEFAULT_DEGRADE_AFTER: u32 = 3;

/// Default medium re-probe interval while degraded.
const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_millis(50);

/// Default background demoter wake interval.
const DEFAULT_DEMOTE_INTERVAL: Duration = Duration::from_millis(5);

impl StoreConfig {
    /// Memory-only store with the paper's 4:3 threshold.
    pub fn in_memory(memory_budget: usize) -> Self {
        StoreConfig {
            memory_budget,
            spill_path: None,
            threshold: ThresholdPolicy::default(),
            codec_policy: CodecPolicy::default(),
            shards: 0,
            spill_batch_bytes: DEFAULT_SPILL_BATCH,
            gc_dead_ratio: 0.5,
            telemetry: true,
            spill_retry_attempts: DEFAULT_RETRY_ATTEMPTS,
            spill_retry_base: DEFAULT_RETRY_BASE,
            degrade_after: DEFAULT_DEGRADE_AFTER,
            probe_interval: DEFAULT_PROBE_INTERVAL,
            tracer: None,
            tier_policy: crate::tier::default_policy(),
            demote_interval: DEFAULT_DEMOTE_INTERVAL,
            persistent: false,
        }
    }

    /// Store with a spill file for overflow.
    pub fn with_spill(memory_budget: usize, path: impl Into<PathBuf>) -> Self {
        StoreConfig {
            spill_path: Some(path.into()),
            ..StoreConfig::in_memory(memory_budget)
        }
    }

    /// Make the spill tier crash-safe (see [`StoreConfig::persistent`]).
    /// Open a fresh store with [`CompressedStore::new`] and a restart
    /// survivor with [`CompressedStore::open_existing`].
    pub fn with_persistent(mut self, on: bool) -> Self {
        self.persistent = on;
        self
    }

    /// Override the codec-selection policy (see
    /// [`StoreConfig::codec_policy`]). The bench harness sweeps
    /// `lzrw1-only` / `adaptive` / `bdi-only` through this.
    pub fn with_codec_policy(mut self, policy: CodecPolicy) -> Self {
        self.codec_policy = policy;
        self
    }

    /// Override the shard count (rounded up to a power of two; `1` gives
    /// the pre-striping behavior of one global lock, useful as a
    /// scaling baseline).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Override the spill batch target (clamped to at least one byte, so
    /// `1` degenerates to one-entry-per-write, useful as a baseline).
    pub fn with_spill_batch_bytes(mut self, bytes: usize) -> Self {
        self.spill_batch_bytes = bytes.max(1);
        self
    }

    /// Override the dead-space ratio that triggers spill-file compaction.
    /// Values ≥ 1.0 effectively disable GC.
    pub fn with_gc_dead_ratio(mut self, ratio: f64) -> Self {
        self.gc_dead_ratio = ratio.max(0.0);
        self
    }

    /// Enable or disable latency sampling and hot-path event capture
    /// (counters are unaffected). `false` is the baseline the bench
    /// harness compares against to measure telemetry overhead.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Override the spill I/O retry policy: `attempts` total tries
    /// (clamped to at least 1) with exponential backoff starting at
    /// `base`.
    pub fn with_spill_retry(mut self, attempts: u32, base: Duration) -> Self {
        self.spill_retry_attempts = attempts.max(1);
        self.spill_retry_base = base;
        self
    }

    /// Override how many consecutive hard batch failures trigger
    /// degraded mode (clamped to at least 1).
    pub fn with_degrade_after(mut self, n: u32) -> Self {
        self.degrade_after = n.max(1);
        self
    }

    /// Override the degraded-mode medium re-probe interval.
    pub fn with_probe_interval(mut self, t: Duration) -> Self {
        self.probe_interval = t;
        self
    }

    /// Attach a request tracer / flight recorder (see
    /// [`StoreConfig::tracer`]).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Override the tier placement policy (see
    /// [`StoreConfig::tier_policy`]). The bench harness sweeps
    /// `compress-all` / `paper-threshold` / `recency` through this.
    pub fn with_tier_policy(mut self, policy: Arc<dyn TierPolicy>) -> Self {
        self.tier_policy = policy;
        self
    }

    /// Override the background demoter wake interval (see
    /// [`StoreConfig::demote_interval`]).
    pub fn with_demote_interval(mut self, t: Duration) -> Self {
        self.demote_interval = t;
        self
    }

    /// The shard count this config will actually build: the requested
    /// count (or available parallelism when unset), rounded up to a
    /// power of two and clamped to `1..=256`.
    pub fn resolved_shards(&self) -> usize {
        let n = if self.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8)
        } else {
            self.shards
        };
        n.next_power_of_two().clamp(1, 256)
    }
}

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// The memory budget is exhausted and no spill file is configured.
    OutOfMemory,
    /// Page size differs from the store's page size (fixed at first put).
    BadPageSize {
        /// Size the store was created with.
        expected: usize,
        /// Size offered.
        got: usize,
    },
    /// The store has been shut down ([`CompressedStore::shutdown`]) — or
    /// its spill writer died — and this operation needed it. Reads and
    /// puts that fit in memory still succeed.
    ShuttingDown,
    /// A spilled extent failed self-verification (bad magic, length or
    /// generation mismatch, or CRC-32 failure) on every retry. The
    /// entry has been dropped — a subsequent get misses instead of
    /// returning garbage.
    Corrupt,
    /// Spill-file I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfMemory => write!(f, "compressed store memory budget exhausted"),
            StoreError::BadPageSize { expected, got } => {
                write!(f, "page size mismatch: store uses {expected}, got {got}")
            }
            StoreError::ShuttingDown => {
                write!(f, "store is shutting down; spill writer stopped")
            }
            StoreError::Corrupt => {
                write!(f, "spilled extent failed verification; entry dropped")
            }
            StoreError::Io(e) => write!(f, "spill I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Which tier served a successful [`CompressedStore::get_tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// Served by memcpy from the uncompressed-resident hot tier; no
    /// decompression at all.
    Hot,
    /// Served from compressed bytes resident in memory (including entries
    /// still queued for the writer thread).
    Memory,
    /// Reconstructed from an 8-byte same-filled pattern; no decompression.
    SameFilled,
    /// Read back from the spill file.
    Spill,
}

/// Counters (all monotonic except the byte gauges).
///
/// Assembled from the store's telemetry counter bank: every field is an
/// independent per-shard-striped atomic summed at read time, so a
/// snapshot is per-field exact — no shard locks are taken and no field
/// can tear, even while every shard is being hammered.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Pages stored compressed.
    pub compressed: u64,
    /// Pages stored raw (failed the threshold).
    pub stored_raw: u64,
    /// Admitted pages whose stored form was sealed by LZRW1.
    pub puts_lzrw1: u64,
    /// Admitted pages whose stored form was sealed by the BDI codec.
    pub puts_bdi: u64,
    /// Adaptive-policy probe mispredictions: the probe chose BDI but its
    /// real output missed the admit bound, so LZRW1 ran as well.
    pub codec_fallbacks: u64,
    /// Original bytes of pages admitted under LZRW1 (with
    /// [`StoreStats::lzrw1_out_bytes`], the codec's achieved ratio).
    pub lzrw1_in_bytes: u64,
    /// Sealed bytes produced by LZRW1 for admitted pages.
    pub lzrw1_out_bytes: u64,
    /// Original bytes of pages admitted under BDI.
    pub bdi_in_bytes: u64,
    /// Sealed bytes produced by BDI for admitted pages.
    pub bdi_out_bytes: u64,
    /// Pages detected as a single repeated word and stored as an 8-byte
    /// pattern, bypassing the compressor and the memory budget.
    pub same_filled: u64,
    /// Puts placed (or kept) uncompressed in the hot tier by the tier
    /// policy — re-puts of fresh hot pages skip the compressor entirely.
    pub puts_hot: u64,
    /// Gets served by memcpy from the hot tier.
    pub hits_hot: u64,
    /// Warm or cold pages decompressed back into the hot tier on
    /// re-access.
    pub promotions: u64,
    /// Promotions the policy asked for that the store declined — the
    /// uncompressed bytes did not fit the budget without eviction, or
    /// the entry changed while the budget was being reserved.
    pub promotions_rejected: u64,
    /// Hot pages the demoter (or budget-pressure eviction) compressed
    /// down to warm or shipped cold.
    pub demoted_hot: u64,
    /// Warm pages the background demoter spilled cold by age (pressure
    /// evictions on the put path are counted in
    /// [`StoreStats::spilled`], not here).
    pub demoted_warm: u64,
    /// Background demoter sweeps that ran (pressure gates open).
    pub demoter_passes: u64,
    /// Gets served from memory.
    pub hits_memory: u64,
    /// Gets served from the spill file.
    pub hits_spill: u64,
    /// Gets for unknown keys.
    pub misses: u64,
    /// Entries spilled to disk.
    pub spilled: u64,
    /// Coalesced batches the spill writer has committed
    /// (`spilled / spill_batches` is the achieved batching factor).
    pub spill_batches: u64,
    /// Spill-file compaction passes completed.
    pub gc_runs: u64,
    /// Bytes of live extents physically copied by compaction passes
    /// (extents already at their compacted position are not counted).
    pub gc_bytes_relocated: u64,
    /// Longest single compaction pass observed, in nanoseconds.
    pub gc_pause_max_ns: u64,
    /// Entries reverted to memory residence because their batch write
    /// hard-failed (the [`SPILL_FAILED`] fallback path).
    pub spill_fallback_resident: u64,
    /// Entries dropped outright (cache-miss semantics) to restore the
    /// budget — degraded-mode eviction and post-fallback shedding.
    pub shed_pages: u64,
    /// Spilled-extent verification failures detected (each one is a
    /// read that would have returned garbage without the header).
    pub corrupt_detected: u64,
    /// Spill I/O retries issued after transient read/write failures.
    pub io_retries: u64,
    /// Transitions into degraded mode.
    pub degraded_entered: u64,
    /// Recoveries out of degraded mode (successful probation probes).
    pub degraded_recovered: u64,
    /// Canary probes issued against the medium while degraded.
    pub medium_probes: u64,
    /// Whether the store is currently degraded (spill disabled,
    /// memory-only with shedding).
    pub degraded: bool,
    /// Current spill-file size in bytes (gauge).
    pub bytes_on_spill: u64,
    /// Bytes in the spill file belonging to removed or replaced entries,
    /// reclaimable by the next compaction (gauge).
    pub spill_dead_bytes: u64,
    /// Current bytes resident in memory across the hot and warm tiers,
    /// never above the configured budget.
    pub resident_bytes: u64,
    /// Uncompressed bytes currently resident in the hot tier (gauge;
    /// included in [`StoreStats::resident_bytes`]).
    pub hot_bytes: u64,
    /// Sealed bytes currently resident in the warm tier (gauge;
    /// included in [`StoreStats::resident_bytes`]).
    pub warm_bytes: u64,
    /// Cold extents recovered from the spill file at open
    /// ([`CompressedStore::open_existing`]) and served without re-PUT.
    pub extents_recovered: u64,
    /// Location-map journal records replayed during recovery.
    pub journal_records_replayed: u64,
    /// Torn journal tails and unverifiable extents discarded by
    /// recovery (each one would have been garbage if served).
    pub torn_tail_discarded: u64,
    /// Journal records dropped by generation arbitration during replay
    /// (superseded puts, out-of-date relocations).
    pub stale_generation_dropped: u64,
    /// Extents re-read and CRC-verified during recovery. Zero after a
    /// clean shutdown — the fast warm start skipped the scan.
    pub recovery_extents_verified: u64,
    /// Location records group-committed to the journal since open.
    pub journal_records_written: u64,
    /// Journal compaction passes (epoch flips) since open.
    pub journal_compactions: u64,
    /// Opens that took the clean-shutdown fast path (0 or 1 for this
    /// store; summable across restarts by an aggregator).
    pub clean_recoveries: u64,
    /// Wall-clock nanoseconds the recovery replay + verification took
    /// at open (0 when this store was not opened from existing media).
    pub recovery_ns: u64,
}

enum Residence {
    /// The hot tier: the page's raw uncompressed bytes (not a sealed
    /// block — no method byte), tracked on the shard's hot LRU and
    /// counted against the budget at full page size. A get is a memcpy.
    Hot {
        data: Vec<u8>,
        handle: cc_util::LruHandle,
    },
    /// Compressed (or raw) bytes in memory, LRU-tracked, counted against
    /// the budget.
    Memory {
        data: Vec<u8>,
        handle: cc_util::LruHandle,
    },
    /// The whole page is one repeated 8-byte word; nothing is stored but
    /// the pattern. Never LRU-tracked or spilled: reconstructing it is
    /// cheaper than any I/O, and it occupies no budget.
    SameFilled { pattern: u64 },
    /// Handed to the writer; data still readable until the write lands.
    /// The generation ties the eventual completion to *this* hand-off: a
    /// key can be replaced and re-spilled while an older job is still
    /// queued, and the stale completion must not be believed.
    Spilling { data: Arc<Vec<u8>>, gen: u64 },
    /// On the spill file. `len` is the full extent length — the
    /// [`EXTENT_HEADER`]-byte self-verifying header plus the compressed
    /// payload. The generation survives from the spill job so a reader
    /// can detect (and retry across) a concurrent replacement even if GC
    /// relocates extents while its read is in flight, and is also sealed
    /// into the header so a misdirected read is caught by verification.
    Spilled { offset: u64, len: u32, gen: u64 },
}

struct Entry {
    residence: Residence,
    orig_len: u32,
    /// [`CodecId`] (as its wire byte) that sealed this entry's bytes.
    /// Decode always dispatches on this — never on guessing — and it is
    /// also sealed into the spill extent header so the two can be
    /// cross-checked after a read. Hot entries record [`CodecId::Raw`]
    /// (nothing is sealed while hot).
    codec: u8,
    /// The put path's sampled BDI-probe verdict for these exact page
    /// bytes: 0 = not probed (non-adaptive policy), 1 = predicted BDI,
    /// 2 = predicted not-BDI. Demotion hands this back to the codec
    /// layer so aging a hot page never re-probes it.
    probe: u8,
    /// Gets served since the last put of this key (saturating). The
    /// promotion signal: re-access frequency within the recency window.
    gets: u16,
    /// Low 32 bits of the store's operation clock when this entry was
    /// last put or got. Ages are wrapping differences on this — at one
    /// op per clock tick a 32-bit window is ~4 billion operations deep,
    /// far past any policy's idle threshold.
    last_touch: u32,
    /// Whether this key has a location record in the persistence
    /// journal (set when a spill job is queued, kept across promotion).
    /// Removing or replacing a journaled key must enqueue a tombstone,
    /// or recovery would resurrect it. Always `false` on
    /// non-persistent stores.
    journaled: bool,
}

/// Entry probe-byte encoding of the put path's `Option<bool>` verdict.
fn probe_code(hint: Option<bool>) -> u8 {
    match hint {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    }
}

/// Decode [`probe_code`] back into the codec layer's hint form.
fn probe_hint(code: u8) -> Option<bool> {
    match code {
        1 => Some(true),
        2 => Some(false),
        _ => None,
    }
}

/// Multiplicative hasher for the per-shard entry maps: the keys are
/// already well-mixed page numbers, so SipHash's DoS resistance only
/// costs cycles here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, k: u64) {
        // splitmix64 finalizer — full avalanche in three multiplies.
        let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

type EntryMap = HashMap<u64, Entry, BuildHasherDefault<KeyHasher>>;

/// Max pooled buffers per shard; beyond this, freed buffers are dropped.
const POOL_CAP: usize = 64;

struct Shard {
    entries: EntryMap,
    /// Coldest-first spill ordering over the keys with `Memory` residence.
    lru: LruList<u64>,
    /// Coldest-first demotion ordering over the keys with `Hot`
    /// residence. Kept separate from `lru` so pressure eviction can
    /// prefer warm victims (already compressed — spilling them is
    /// cheap) and only then start compressing hot ones.
    lru_hot: LruList<u64>,
    /// Recycled entry buffers: steady-state puts allocate nothing.
    pool: Vec<Vec<u8>>,
    /// Clone of the cleaner channel (kept per shard so no shared `Sender`
    /// needs to be `Sync`); `None` once shut down or without a spill file.
    tx: Option<Sender<SpillJob>>,
}

impl Shard {
    fn acquire_buf(&mut self, contents: &[u8]) -> Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(contents);
        buf
    }

    fn release_buf(&mut self, buf: Vec<u8>) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(buf);
        }
    }
}

/// Pad shards to their own cache lines so hot per-shard state on
/// neighbouring shards does not false-share.
#[repr(align(128))]
struct Padded<T>(T);

/// An entry handed to the writer thread. The file offset is chosen by the
/// writer at batch-commit time, not by the producer — that is what lets
/// the writer pack many entries into one contiguous write and lets GC
/// reset the allocation cursor.
struct SpillJob {
    key: u64,
    gen: u64,
    /// Codec id byte, sealed into the extent header alongside the data.
    codec: u8,
    /// Uncompressed page length, journaled so recovery can restore the
    /// entry (and re-learn the store's page size) without decoding.
    orig_len: u32,
    data: Arc<Vec<u8>>,
    /// Trace context of the sampled put that queued this job
    /// ([`TraceCtx::NONE`] for background eviction / unsampled puts):
    /// the writer records a `spill_write` span under it.
    ctx: TraceCtx,
    /// When the job was queued — the writer splits queue-wait from
    /// service time in the span. Set iff `ctx` is sampled.
    queued: Option<Instant>,
}

/// Span bookkeeping for one traced store operation: its span id and
/// start instant (see [`StoreCore::op_trace`]).
struct OpTrace {
    span: u32,
    t0: Instant,
}

/// What a store operation reports back for its span: the tier it
/// resolved to and the codec involved.
#[derive(Default)]
struct TraceOut {
    tier: u8,
    codec: u8,
}

/// Completion offset reported when the batch write itself failed.
const SPILL_FAILED: u64 = u64::MAX;

/// Magic leading every on-file extent header. The low nibble is the
/// format version: `..E001` was the PR 5 codec-less layout (20-byte
/// header, CRC over the payload only); `..E002` added the codec id byte
/// and widened the CRC to cover the header fields too. Old-format
/// extents fail the magic check and surface as [`StoreError::Corrupt`]
/// instead of being decoded with a guessed codec.
const EXTENT_MAGIC: u32 = 0xCC5E_E002;

/// Bytes of self-verifying header preceding every spilled payload:
/// `magic: u32 | payload_len: u32 | gen: u64 | codec: u8 | pad: [u8; 3] |
/// crc: u32`, all little-endian. The CRC covers the first
/// [`EXTENT_CRC_OFFSET`] header bytes *and* the payload, so a flipped
/// codec id is a verification failure — decoding with the wrong codec is
/// impossible by construction, not merely unlikely.
pub(crate) const EXTENT_HEADER: usize = 24;

/// Offset of the CRC field inside the header; everything before it is
/// covered by the CRC.
const EXTENT_CRC_OFFSET: usize = 20;

/// Append `payload`'s extent (header + payload) to `buf`. The CRC is
/// computed here, at batch-commit time — the last moment the writer
/// still holds the payload bytes it is about to trust to the medium.
pub(crate) fn encode_extent(buf: &mut Vec<u8>, gen: u64, codec: u8, payload: &[u8]) {
    let start = buf.len();
    buf.extend_from_slice(&EXTENT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&gen.to_le_bytes());
    buf.push(codec);
    buf.extend_from_slice(&[0u8; 3]);
    let mut h = Crc32::new();
    h.update(&buf[start..start + EXTENT_CRC_OFFSET]);
    h.update(payload);
    buf.extend_from_slice(&h.finish().to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Check `ext` (a full extent as read back) against the generation and
/// codec id the entry map says live there. Any mismatch — magic/version,
/// length, generation, codec, or CRC over header + payload — means the
/// bytes must not be decompressed. The codec is checked twice over: the
/// header byte must equal the entry's recorded id, *and* the CRC covers
/// that byte, so neither a flipped header nor a stale entry can route
/// the payload to the wrong decoder.
pub(crate) fn verify_extent(ext: &[u8], gen: u64, codec: u8) -> bool {
    if ext.len() < EXTENT_HEADER {
        return false;
    }
    let magic = u32::from_le_bytes(ext[0..4].try_into().expect("4-byte slice"));
    let plen = u32::from_le_bytes(ext[4..8].try_into().expect("4-byte slice")) as usize;
    let hgen = u64::from_le_bytes(ext[8..16].try_into().expect("8-byte slice"));
    let hcodec = ext[16];
    let crc = u32::from_le_bytes(
        ext[EXTENT_CRC_OFFSET..EXTENT_HEADER]
            .try_into()
            .expect("4-byte slice"),
    );
    let mut h = Crc32::new();
    h.update(&ext[..EXTENT_CRC_OFFSET]);
    h.update(&ext[EXTENT_HEADER..]);
    magic == EXTENT_MAGIC
        && hgen == gen
        && hcodec == codec
        && plen == ext.len() - EXTENT_HEADER
        && crc == h.finish()
}

/// Backoff before retry `attempt` (1-based): `base << (attempt - 1)`,
/// capped to keep a misconfigured attempt count from sleeping forever.
fn backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << (attempt - 1).min(10))
}

/// A durable (or failed) write the store must fold into its entry maps.
struct Completion {
    key: u64,
    gen: u64,
    /// File offset, or [`SPILL_FAILED`].
    offset: u64,
    len: u32,
}

/// Scratch space reused across calls on each thread: the codec set
/// (LZRW1's hash table lives here) plus compression, staging, and
/// decompression buffers. `comp` is sized by
/// [`CodecSet::max_compressed_len`] for the active policy on every
/// compress — each codec's own worst case, not LZRW1's.
struct Scratch {
    codecs: CodecSet,
    comp: Vec<u8>,
    stage: Vec<u8>,
    decomp: Vec<u8>,
    /// Demotion's compression output. Separate from `comp` because hot
    /// demotion can run *inside* a put's eviction loop on the same
    /// thread, while the put's own sealed bytes are still parked in
    /// `comp` waiting for budget.
    demote: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        codecs: CodecSet::new(),
        comp: Vec::new(),
        stage: Vec::new(),
        decomp: Vec::new(),
        demote: Vec::new(),
    });
}

/// Everything shared between the public handle and the writer thread:
/// the shards, the budget gauge, and the spill-file bookkeeping.
struct StoreCore {
    cfg: StoreConfig,
    shards: Vec<Padded<Mutex<Shard>>>,
    shard_mask: u64,
    /// Bytes with `Hot` or `Memory` residence across all shards. Budget
    /// is enforced by CAS reservation on this counter, so it never
    /// exceeds `cfg.memory_budget` (outside the spill-failure recovery
    /// path).
    resident: AtomicUsize,
    /// Uncompressed bytes with `Hot` residence (gauge; a subset of
    /// `resident`, which stays the reservation authority).
    hot_resident: AtomicUsize,
    /// Sealed bytes with `Memory` residence (gauge; the other subset).
    warm_resident: AtomicUsize,
    /// Global operation clock: every put and get bumps it, and entries
    /// stamp `last_touch` with the value — the tier policies'
    /// generation-counter aging. Each op's value is unique, which is
    /// what lets promotion revalidate "the entry I served is still the
    /// entry I'm swapping" by comparing stamps.
    touch_clock: AtomicU64,
    /// Demoter shutdown flag, under the condvar's mutex.
    demote_stop: Mutex<bool>,
    /// Wakes the demoter early (budget-pressure evictions) or for
    /// shutdown; it otherwise sleeps `cfg.demote_interval` per pass.
    demote_cv: Condvar,
    /// Fixed at first put; 0 = not yet fixed.
    page_size: AtomicUsize,
    /// Generation stamp for spill jobs.
    next_gen: AtomicU64,
    /// The spill medium, shared by the writer thread and all readers
    /// (positioned I/O — no seek cursor to contend on).
    medium: Option<Arc<dyn SpillMedium>>,
    /// Set when spill is disabled after consecutive hard medium
    /// failures (or a writer death). Eviction sheds instead of
    /// spilling until the probation probe clears it.
    degraded: AtomicBool,
    /// Set when the writer thread has exited — normally (shutdown /
    /// drop) or by panic. With this set, `Spilling` entries that have
    /// no completion yet will never get one.
    writer_dead: AtomicBool,
    /// Completed writes, published by the writer after each batch.
    done: Mutex<Vec<Completion>>,
    /// Counters, latency histograms, and the event ring. Counters are
    /// striped by shard index and are the statistics of record behind
    /// [`StoreStats`]; sampling obeys [`StoreConfig::telemetry`].
    tel: Telemetry,
    /// Current spill-file length (the writer's allocation cursor).
    spill_file_bytes: AtomicU64,
    /// Bytes on the spill file belonging to removed/replaced entries.
    /// Approximate under concurrent churn (it can momentarily lag removes
    /// racing a compaction) but self-correcting: GC subtracts exactly
    /// what it physically reclaimed.
    spill_dead_bytes: AtomicU64,
    /// Persistence state (`Some` iff [`StoreConfig::persistent`]): the
    /// location-map journal and its append position. The superblock
    /// lives at the head of the spill medium itself.
    persist: Option<Persist>,
}

/// The thread-safe compressed page store. Cloneable handles are not
/// provided; share it behind an `Arc`.
pub struct CompressedStore {
    core: Arc<StoreCore>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
    demoter: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The location-map journal lives beside the spill file: `<spill>.map`.
fn journal_path(path: &std::path::Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".map");
    PathBuf::from(os)
}

/// Everything a persistent open hands to [`CompressedStore::build`]: the
/// journal medium, the resume position, and (for an existing file) the
/// recovered entry set with how long recovery took.
struct PersistSetup {
    journal: Arc<dyn SpillMedium>,
    state: PersistState,
    recovery: Option<(persist::Recovery, Duration)>,
}

impl CompressedStore {
    /// Open a store.
    ///
    /// With [`StoreConfig::persistent`], the spill file gains a
    /// superblock and a `<spill_path>.map` location journal; both are
    /// created fresh (truncating any previous state — use
    /// [`CompressedStore::open_existing`] to warm-restart instead).
    ///
    /// # Panics
    ///
    /// Panics if the spill file (or, when persistent, the journal file
    /// or initial superblock) cannot be created.
    pub fn new(cfg: StoreConfig) -> Self {
        let medium = cfg.spill_path.as_ref().map(|path| {
            Arc::new(FileMedium::create(path).expect("create spill file")) as Arc<dyn SpillMedium>
        });
        if cfg.persistent {
            let path = cfg
                .spill_path
                .clone()
                .expect("persistent store needs a spill path");
            let journal =
                Arc::new(FileMedium::create(journal_path(&path)).expect("create spill journal"))
                    as Arc<dyn SpillMedium>;
            let medium = medium.expect("persistent store needs a spill medium");
            let state = Self::init_persistent(&*medium).expect("write initial superblock");
            return Self::build(
                cfg,
                Some(medium),
                Some(PersistSetup {
                    journal,
                    state,
                    recovery: None,
                }),
            );
        }
        Self::build(cfg, medium, None)
    }

    /// Open a store over an explicit [`SpillMedium`] — a fault injector,
    /// an in-memory medium, anything. `cfg.spill_path` is ignored (the
    /// medium *is* the spill backing); everything else applies as usual.
    /// Non-persistent; see [`CompressedStore::with_persistent_media`].
    pub fn with_medium(cfg: StoreConfig, medium: Arc<dyn SpillMedium>) -> Self {
        Self::build(cfg, Some(medium), None)
    }

    /// Reopen a persistent store from its existing spill file and
    /// journal, recovering every durably-committed cold extent: replay
    /// the location journal, arbitrate generations, re-verify extents
    /// (skipped entirely after a clean shutdown), and serve GETs for
    /// the survivors immediately — no re-PUT. `cfg.persistent` is
    /// implied. Fails with [`StoreError::Corrupt`] if no superblock
    /// slot decodes or the file was written under a different
    /// codec/format fingerprint.
    pub fn open_existing(mut cfg: StoreConfig) -> Result<Self, StoreError> {
        cfg.persistent = true;
        let path = cfg
            .spill_path
            .clone()
            .expect("persistent store needs a spill path");
        let medium = Arc::new(FileMedium::open(&path)?) as Arc<dyn SpillMedium>;
        let journal = Arc::new(FileMedium::open(journal_path(&path))?) as Arc<dyn SpillMedium>;
        Self::open_with(cfg, medium, journal)
    }

    /// Open a *fresh* persistent store over explicit media (the spill
    /// data medium and the location-journal medium) — fault injectors,
    /// in-memory media, anything. `cfg.spill_path` is ignored.
    pub fn with_persistent_media(
        mut cfg: StoreConfig,
        data: Arc<dyn SpillMedium>,
        journal: Arc<dyn SpillMedium>,
    ) -> Result<Self, StoreError> {
        cfg.persistent = true;
        let state = Self::init_persistent(&*data)?;
        Ok(Self::build(
            cfg,
            Some(data),
            Some(PersistSetup {
                journal,
                state,
                recovery: None,
            }),
        ))
    }

    /// [`CompressedStore::open_existing`] over explicit media: recover
    /// whatever the media already hold. This is the crash-recovery
    /// test entry point — cut the media mid-run, then reopen them here.
    pub fn open_existing_with_media(
        mut cfg: StoreConfig,
        data: Arc<dyn SpillMedium>,
        journal: Arc<dyn SpillMedium>,
    ) -> Result<Self, StoreError> {
        cfg.persistent = true;
        Self::open_with(cfg, data, journal)
    }

    /// Write the initial superblock of a fresh persistent store.
    fn init_persistent(data: &dyn SpillMedium) -> Result<PersistState, StoreError> {
        let sb = Superblock {
            seq: 1,
            page_size: 0,
            codec_fpr: persist::codec_fingerprint(),
            clean: false,
            epoch: 0,
            journal_start: 0,
            data_cursor: SUPERBLOCK_RESERVED,
            journal_tail: 0,
        };
        persist::write_superblock(data, &sb)?;
        Ok(PersistState {
            tail: 0,
            epoch: 0,
            start: 0,
            sb_seq: 1,
            pending: Vec::new(),
        })
    }

    fn open_with(
        cfg: StoreConfig,
        data: Arc<dyn SpillMedium>,
        journal: Arc<dyn SpillMedium>,
    ) -> Result<Self, StoreError> {
        let t0 = Instant::now();
        let rec = persist::recover(&*data, &*journal).map_err(|e| match e {
            RecoverError::Io(e) => StoreError::Io(e),
            other => {
                // Not an I/O problem: the file itself is unusable
                // (missing/destroyed superblock or format mismatch).
                // Surface it as corruption rather than guessing.
                let _ = other;
                StoreError::Corrupt
            }
        })?;
        // Mark the file dirty *before* serving: if we crash from here
        // on, the next open must not trust the old clean seal.
        let sb_seq = rec.sb_seq + 1;
        persist::write_superblock(
            &*data,
            &Superblock {
                seq: sb_seq,
                page_size: rec.page_size,
                codec_fpr: persist::codec_fingerprint(),
                clean: false,
                epoch: rec.epoch,
                journal_start: rec.journal_start,
                data_cursor: rec.data_cursor,
                journal_tail: rec.journal_tail,
            },
        )?;
        let state = PersistState {
            tail: rec.journal_tail,
            epoch: rec.epoch,
            start: rec.journal_start,
            sb_seq,
            pending: Vec::new(),
        };
        Ok(Self::build(
            cfg,
            Some(data),
            Some(PersistSetup {
                journal,
                state,
                recovery: Some((rec, t0.elapsed())),
            }),
        ))
    }

    fn build(
        cfg: StoreConfig,
        medium: Option<Arc<dyn SpillMedium>>,
        psetup: Option<PersistSetup>,
    ) -> Self {
        let (tx, rx) = match &medium {
            Some(_) => {
                let (tx, rx): (Sender<SpillJob>, Receiver<SpillJob>) = channel();
                (Some(tx), Some(rx))
            }
            None => (None, None),
        };
        let nshards = cfg.resolved_shards();
        let shards = (0..nshards)
            .map(|_| {
                Padded(Mutex::new(Shard {
                    entries: EntryMap::default(),
                    lru: LruList::new(),
                    lru_hot: LruList::new(),
                    pool: Vec::new(),
                    tx: tx.clone(),
                }))
            })
            .collect();
        drop(tx);
        let tel = Telemetry::with_options(
            STORE_TELEMETRY,
            nshards,
            cc_telemetry::DEFAULT_RING_CAPACITY,
            cfg.telemetry,
        );
        let (persist_handle, recovery) = match psetup {
            Some(p) => (Some(Persist::new(p.journal, p.state)), p.recovery),
            None => (None, None),
        };
        // Extent space starts past the superblock region on persistent
        // media; the legacy scratch layout keeps its base of 0.
        let init_cursor = match (&recovery, &persist_handle) {
            (Some((rec, _)), _) => rec.data_cursor,
            (None, Some(_)) => SUPERBLOCK_RESERVED,
            (None, None) => 0,
        };
        let core = Arc::new(StoreCore {
            cfg,
            shards,
            shard_mask: nshards as u64 - 1,
            resident: AtomicUsize::new(0),
            hot_resident: AtomicUsize::new(0),
            warm_resident: AtomicUsize::new(0),
            touch_clock: AtomicU64::new(0),
            demote_stop: Mutex::new(false),
            demote_cv: Condvar::new(),
            page_size: AtomicUsize::new(0),
            next_gen: AtomicU64::new(0),
            medium,
            degraded: AtomicBool::new(false),
            writer_dead: AtomicBool::new(false),
            done: Mutex::new(Vec::new()),
            tel,
            spill_file_bytes: AtomicU64::new(init_cursor),
            spill_dead_bytes: AtomicU64::new(0),
            persist: persist_handle,
        });
        if let Some((rec, took)) = recovery {
            let mut live_bytes = 0u64;
            for e in &rec.entries {
                let idx = core.shard_index(e.key);
                let mut shard = core.shards[idx].0.lock().expect("shard poisoned");
                shard.entries.insert(
                    e.key,
                    Entry {
                        residence: Residence::Spilled {
                            offset: e.offset,
                            len: e.len,
                            gen: e.gen,
                        },
                        orig_len: e.orig_len,
                        codec: e.codec,
                        probe: 0,
                        gets: 0,
                        last_touch: 0,
                        journaled: true,
                    },
                );
                live_bytes += e.len as u64;
            }
            // Resume generations above everything the journal has seen
            // (ABA safety across the restart) and restore the gauges.
            core.next_gen.store(rec.max_lsn + 1, Ordering::Relaxed);
            if rec.page_size != 0 {
                core.page_size
                    .store(rec.page_size as usize, Ordering::Relaxed);
            }
            core.spill_dead_bytes.store(
                rec.data_cursor
                    .saturating_sub(SUPERBLOCK_RESERVED)
                    .saturating_sub(live_bytes),
                Ordering::Relaxed,
            );
            let c = &rec.counts;
            core.tel
                .count(0, tstat::EXTENTS_RECOVERED, c.extents_recovered);
            core.tel.count(
                0,
                tstat::JOURNAL_RECORDS_REPLAYED,
                c.journal_records_replayed,
            );
            core.tel
                .count(0, tstat::TORN_TAIL_DISCARDED, c.torn_tail_discarded);
            core.tel.count(
                0,
                tstat::STALE_GENERATION_DROPPED,
                c.stale_generation_dropped,
            );
            core.tel
                .count(0, tstat::RECOVERY_EXTENTS_VERIFIED, c.extents_verified);
            if rec.clean {
                core.tel.count(0, tstat::CLEAN_RECOVERIES, 1);
            }
            let ns = took.as_nanos() as u64;
            core.tel.record(top::RECOVERY, ns);
            let _ = core.tel.event(tevent::RECOVERY, c.extents_recovered, ns);
        }
        let writer = match (&core.medium, rx) {
            (Some(medium), Some(rx)) => {
                let writer_core = Arc::clone(&core);
                let medium = Arc::clone(medium);
                let exit_core = Arc::clone(&core);
                Some(
                    std::thread::Builder::new()
                        .name("cc-store-cleaner".into())
                        .spawn(move || {
                            // A panic anywhere in the writer (including
                            // inside a hostile medium) must not strand
                            // `flush()` callers: mark the thread dead so
                            // flush can reclaim orphaned jobs, and
                            // degrade the store so eviction sheds
                            // instead of queueing into the void.
                            let body = std::panic::AssertUnwindSafe(move || {
                                SpillWriter {
                                    core: writer_core,
                                    medium,
                                    cursor: init_cursor,
                                    consecutive_failures: 0,
                                    probes: 0,
                                }
                                .run(rx)
                            });
                            let result = std::panic::catch_unwind(body);
                            exit_core.writer_dead.store(true, Ordering::Relaxed);
                            if result.is_err() {
                                exit_core.enter_degraded(0);
                            }
                        })
                        .expect("spawn cleaner thread"),
                )
            }
            _ => None,
        };
        // The demoter only exists for policies that age pages at all;
        // CompressAll / PaperThreshold stores carry zero extra threads.
        let demoter = core.cfg.tier_policy.wants_demoter().then(|| {
            let demote_core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("cc-store-demoter".into())
                .spawn(move || demote_core.demoter_loop())
                .expect("spawn demoter thread")
        });
        CompressedStore {
            core,
            writer: Mutex::new(writer),
            demoter: Mutex::new(demoter),
        }
    }

    /// Number of lock stripes in use.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// The page size this store serves, fixed by the first successful
    /// put; `None` while the store has never stored anything. Callers
    /// that must size an output buffer before a [`CompressedStore::get`]
    /// (e.g. a network service) read it from here.
    pub fn page_size(&self) -> Option<usize> {
        match self.core.page_size.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Store (or replace) `key`'s page.
    pub fn put(&self, key: u64, page: &[u8]) -> Result<(), StoreError> {
        self.core.put(key, page, TraceCtx::NONE)
    }

    /// Like [`CompressedStore::put`], recording causal spans under `ctx`
    /// when the request is sampled (and a tracer is configured).
    pub fn put_traced(&self, key: u64, page: &[u8], ctx: TraceCtx) -> Result<(), StoreError> {
        self.core.put(key, page, ctx)
    }

    /// Fetch `key`'s page into `out` (must be page-sized). Returns false
    /// if the key is unknown.
    pub fn get(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError> {
        Ok(self.core.get(key, out, TraceCtx::NONE)?.is_some())
    }

    /// Like [`CompressedStore::get`], recording causal spans under `ctx`
    /// when the request is sampled (and a tracer is configured).
    pub fn get_traced(&self, key: u64, out: &mut [u8], ctx: TraceCtx) -> Result<bool, StoreError> {
        Ok(self.core.get(key, out, ctx)?.is_some())
    }

    /// Like [`CompressedStore::get`], but reports which tier served the
    /// hit — the uncompressed hot tier, compressed memory, the
    /// same-filled fast path, or the spill file.
    pub fn get_tier(&self, key: u64, out: &mut [u8]) -> Result<Option<HitTier>, StoreError> {
        self.core.get(key, out, TraceCtx::NONE)
    }

    /// Which tier `key` currently resides in, without reading the page
    /// or touching any recency state. `None` if the key is unknown.
    /// Recovery tests use this to prove a warm restart serves from the
    /// spill tier (no re-PUT happened); `Spilling` reports as
    /// [`HitTier::Memory`] since that is where a read would be served.
    pub fn peek_tier(&self, key: u64) -> Option<HitTier> {
        self.core.absorb_completed_spills();
        let shard = self.core.shard(key);
        shard.entries.get(&key).map(|e| match e.residence {
            Residence::Hot { .. } => HitTier::Hot,
            Residence::Memory { .. } | Residence::Spilling { .. } => HitTier::Memory,
            Residence::SameFilled { .. } => HitTier::SameFilled,
            Residence::Spilled { .. } => HitTier::Spill,
        })
    }

    /// The configured request tracer, if any (see
    /// [`StoreConfig::with_tracer`]). The server's service shares this
    /// instance so wire spans and store spans join into one trace.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.core.cfg.tracer.as_ref()
    }

    /// Remove a key (e.g. the page was freed). Returns whether it existed.
    pub fn remove(&self, key: u64) -> bool {
        self.core.absorb_completed_spills();
        let mut shard = self.core.shard(key);
        self.core.remove_locked(&mut shard, key)
    }

    /// Whether the store currently knows `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.core.absorb_completed_spills();
        self.core.shard(key).entries.contains_key(&key)
    }

    /// Number of stored pages (memory + spill).
    pub fn len(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| s.0.lock().expect("shard poisoned").entries.len())
            .sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters, aggregated across shards.
    pub fn stats(&self) -> StoreStats {
        self.core.stats()
    }

    /// Whether the store is currently in degraded mode: spill disabled
    /// after consecutive hard medium failures (or a writer death),
    /// eviction shedding the coldest entries instead. Clears itself
    /// when the probation probe finds the medium healthy again.
    pub fn is_degraded(&self) -> bool {
        self.core.degraded.load(Ordering::Relaxed)
    }

    /// The store's telemetry instance: striped counters, per-operation
    /// latency histograms (`put`, `get_memory`, `get_same_filled`,
    /// `get_spill`, `spill_write`, `spill_read`, `gc_pause`), and the
    /// structured event ring.
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.tel
    }

    /// A full telemetry snapshot — counter sums, latency summaries,
    /// event counts, the ring window since the last snapshot — with the
    /// store's byte gauges attached. Feed it to
    /// [`cc_telemetry::Snapshot::to_json`], `to_prometheus`, or
    /// `render_text`, or hand a closure over it to
    /// [`cc_telemetry::Exporter::spawn`].
    pub fn telemetry_snapshot(&self) -> cc_telemetry::Snapshot {
        self.core.absorb_completed_spills();
        self.core
            .tel
            .snapshot()
            .gauge(
                "resident_bytes",
                self.core.resident.load(Ordering::Relaxed) as u64,
            )
            .gauge(
                "hot_resident_bytes",
                self.core.hot_resident.load(Ordering::Relaxed) as u64,
            )
            .gauge(
                "warm_resident_bytes",
                self.core.warm_resident.load(Ordering::Relaxed) as u64,
            )
            .gauge(
                "bytes_on_spill",
                self.core.spill_file_bytes.load(Ordering::Relaxed),
            )
            .gauge(
                "spill_dead_bytes",
                self.core.spill_dead_bytes.load(Ordering::Relaxed),
            )
            .gauge(
                "degraded",
                self.core.degraded.load(Ordering::Relaxed) as u64,
            )
    }

    /// Block until the cleaner has drained all pending spills (tests and
    /// orderly shutdown). Entries sitting in a partially-filled batch are
    /// committed by the writer's bounded linger, so this terminates even
    /// mid-batch. If the writer thread has died (panicked medium), the
    /// orphaned in-flight entries are reverted to memory residence, the
    /// budget is restored by shedding, and [`StoreError::ShuttingDown`]
    /// is returned — a flush never hangs on a dead writer.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.core.flush()
    }

    /// Drain pending spills, stop the cleaner thread, and join it. The
    /// store remains readable; further puts that need to spill fail
    /// with [`StoreError::ShuttingDown`].
    pub fn shutdown(&self) {
        let _ = self.core.flush();
        self.stop_demoter();
        for s in &self.core.shards {
            s.0.lock().expect("shard poisoned").tx = None;
        }
        if let Some(handle) = self.writer.lock().expect("writer handle poisoned").take() {
            let _ = handle.join();
        }
    }

    /// Signal the demoter thread to exit and join it (idempotent). Runs
    /// before the spill writer teardown so a mid-sweep demotion never
    /// races the channel closing.
    fn stop_demoter(&self) {
        *self.core.demote_stop.lock().expect("demoter flag poisoned") = true;
        self.core.demote_cv.notify_all();
        if let Some(handle) = self.demoter.lock().expect("demoter handle poisoned").take() {
            let _ = handle.join();
        }
    }

    /// Run one demotion sweep inline on the calling thread, exactly as
    /// the background demoter would (same policy age and pressure
    /// gates). Returns `(hot pages demoted, warm pages spilled)`.
    /// Deterministic tests and benches use this instead of sleeping for
    /// the thread.
    pub fn demote_now(&self) -> (u64, u64) {
        self.core.demote_pass()
    }
}

impl Drop for CompressedStore {
    fn drop(&mut self) {
        self.stop_demoter();
        // Closing every Sender clone stops the writer.
        for s in &self.core.shards {
            s.0.lock().expect("shard poisoned").tx = None;
        }
        if let Some(handle) = self.writer.lock().expect("writer handle poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl StoreCore {
    #[inline]
    fn shard_index(&self, key: u64) -> usize {
        // splitmix64 finalizer: decorrelates the shard choice from any
        // key-assignment pattern (sequential keys, strided keys, ...).
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & self.shard_mask) as usize
    }

    #[inline]
    fn shard(&self, key: u64) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index(key)]
            .0
            .lock()
            .expect("shard poisoned")
    }

    fn has_spill(&self) -> bool {
        self.medium.is_some()
    }

    /// Flip into degraded mode (idempotent); `failures` is the
    /// consecutive hard-failure count at the transition, for the event.
    fn enter_degraded(&self, failures: u64) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.tel.count(0, tstat::DEGRADED_ENTERED, 1);
            self.tel.event(tevent::DEGRADE, failures, 0);
            if let Some(tr) = self.cfg.tracer.as_deref() {
                tr.anomaly(AnomalyKind::Degraded, 0, failures, 0);
            }
        }
    }

    /// Leave degraded mode (idempotent); `probes` is how many canary
    /// probes it took, for the event.
    fn exit_degraded(&self, probes: u64) {
        if self.degraded.swap(false, Ordering::Relaxed) {
            self.tel.count(0, tstat::DEGRADED_RECOVERED, 1);
            self.tel.event(tevent::RECOVER, probes, 0);
        }
    }

    /// Start a latency sample iff sampling is enabled — the hot paths
    /// never call the clock when telemetry is off.
    #[inline]
    fn sample_start(&self) -> Option<Instant> {
        if self.tel.timing_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish a latency sample started by [`StoreCore::sample_start`].
    #[inline]
    fn sample_end(&self, op: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.tel.record(op, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Like [`StoreCore::sample_end`], tagging the sample with the
    /// request's trace id so the histogram keeps tail exemplars.
    #[inline]
    fn sample_end_traced(&self, op: usize, t0: Option<Instant>, ctx: TraceCtx) {
        if let Some(t0) = t0 {
            self.tel
                .record_traced(op, t0.elapsed().as_nanos() as u64, ctx.trace_id);
        }
    }

    /// Start tracing one store operation under a sampled request:
    /// allocates the operation's span id and stamps its start. `None`
    /// when the request is unsampled or no tracer is configured —
    /// callers skip all span work in that case.
    #[inline]
    fn op_trace(&self, ctx: TraceCtx) -> Option<OpTrace> {
        if !ctx.sampled() {
            return None;
        }
        let tr = self.cfg.tracer.as_deref()?;
        Some(OpTrace {
            span: tr.alloc_span(),
            t0: Instant::now(),
        })
    }

    /// Record the span opened by [`StoreCore::op_trace`].
    fn finish_op(&self, ot: OpTrace, ctx: TraceCtx, op: u8, tout: &TraceOut, status: u8, key: u64) {
        let Some(tr) = self.cfg.tracer.as_deref() else {
            return;
        };
        tr.record(
            self.shard_index(key),
            &Span {
                trace_id: ctx.trace_id,
                span_id: ot.span,
                parent: ctx.parent_span,
                op,
                tier: tout.tier,
                codec: tout.codec,
                status,
                start_ns: tr.now_ns(ot.t0),
                queue_ns: 0,
                service_ns: ot.t0.elapsed().as_nanos() as u64,
                arg: key,
            },
        );
    }

    /// Record a leaf child span under `ctx` spanning `t0 → now` (no-op
    /// when unsampled, untimed, or untraced).
    #[allow(clippy::too_many_arguments)]
    fn child_span(
        &self,
        ctx: TraceCtx,
        t0: Option<Instant>,
        op: u8,
        tier: u8,
        codec: u8,
        status: u8,
        arg: u64,
        stripe: usize,
    ) {
        let (Some(t0), true) = (t0, ctx.sampled()) else {
            return;
        };
        let Some(tr) = self.cfg.tracer.as_deref() else {
            return;
        };
        tr.record(
            stripe,
            &Span {
                trace_id: ctx.trace_id,
                span_id: tr.alloc_span(),
                parent: ctx.parent_span,
                op,
                tier,
                codec,
                status,
                start_ns: tr.now_ns(t0),
                queue_ns: 0,
                service_ns: t0.elapsed().as_nanos() as u64,
                arg,
            },
        );
    }

    /// Store or replace `key`'s page, recording a `store_put` span (and
    /// children) when `ctx` is sampled.
    fn put(&self, key: u64, page: &[u8], ctx: TraceCtx) -> Result<(), StoreError> {
        match self.op_trace(ctx) {
            None => self.put_inner(key, page, TraceCtx::NONE, &mut TraceOut::default()),
            Some(ot) => {
                let mut tout = TraceOut::default();
                let res = self.put_inner(key, page, ctx.child(ot.span), &mut tout);
                self.finish_op(ot, ctx, sop::STORE_PUT, &tout, res.is_err() as u8, key);
                res
            }
        }
    }

    fn put_inner(
        &self,
        key: u64,
        page: &[u8],
        ctx: TraceCtx,
        tout: &mut TraceOut,
    ) -> Result<(), StoreError> {
        let t0 = self.sample_start();
        let now = self.touch_clock.fetch_add(1, Ordering::Relaxed) as u32;
        // Fix the page size (or reject a mismatch) before compressing.
        match self
            .page_size
            .compare_exchange(0, page.len(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => {}
            Err(ps) if ps == page.len() => {}
            Err(ps) => {
                return Err(StoreError::BadPageSize {
                    expected: ps,
                    got: page.len(),
                })
            }
        }

        // Same-filled fast path: a repeated-word page never touches the
        // compressor, the budget, or the buffer pool — the pattern *is*
        // the stored form.
        if let Some(pattern) = same_filled_pattern(page) {
            tout.tier = strier::SAME_FILLED;
            tout.codec = CodecId::SameFilled.as_u8();
            let shard_idx = self.shard_index(key);
            let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            self.remove_locked(&mut shard, key);
            shard.entries.insert(
                key,
                Entry {
                    residence: Residence::SameFilled { pattern },
                    orig_len: page.len() as u32,
                    codec: CodecId::SameFilled.as_u8(),
                    probe: 0,
                    gets: 0,
                    last_touch: now,
                    journaled: false,
                },
            );
            drop(shard);
            self.tel.count(shard_idx, tstat::SAME_FILLED, 1);
            if self.tel.timing_enabled() {
                self.tel.event(tevent::SAME_FILLED, key, pattern);
            }
            self.sample_end_traced(top::PUT, t0, ctx);
            return Ok(());
        }

        // Probe compressibility once, here, for both the tier decision
        // and codec selection — the entry records the verdict so a later
        // demotion of this page never probes again.
        let hint = (self.cfg.codec_policy == CodecPolicy::Adaptive)
            .then(|| probe_bdi(page, self.cfg.threshold.max_compressed_len(page.len())));

        // Keep-hot fast path: a re-put of a still-fresh hot page can
        // stay hot, replacing the raw bytes in place and skipping the
        // compressor entirely — the demoter will seal it if it ever
        // goes cold. Gated on the policy's capability flag so flat
        // policies pay no extra lock acquisition.
        if self.cfg.tier_policy.may_keep_hot() {
            let shard_idx = self.shard_index(key);
            let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            if let Some(e) = shard.entries.get_mut(&key) {
                if let Residence::Hot { data, handle } = &mut e.residence {
                    if data.len() == page.len() {
                        let q = PlacementQuery {
                            key,
                            page_len: page.len(),
                            sealed_len: page.len(),
                            admitted: false,
                            age: now.wrapping_sub(e.last_touch) as u64,
                            gets: e.gets as u32,
                            was_hot: true,
                            pressure_pct: self.pressure_pct(),
                        };
                        if self.cfg.tier_policy.keep_hot(&q) {
                            data.copy_from_slice(page);
                            let handle = *handle;
                            e.probe = probe_code(hint);
                            e.gets = 0;
                            e.last_touch = now;
                            shard.lru_hot.touch(handle);
                            drop(shard);
                            tout.tier = strier::HOT;
                            tout.codec = CodecId::Raw.as_u8();
                            self.tel.count(shard_idx, tstat::PUTS_HOT, 1);
                            self.sample_end_traced(top::PUT, t0, ctx);
                            return Ok(());
                        }
                    }
                }
            }
        }

        // Compress outside any lock, into this thread's reusable buffer.
        // The policy picks the codec (probe → BDI or LZRW1), the
        // threshold then admits or rewrites the buffer as a stored block;
        // either way the selection names exactly the codec that sealed
        // what sits in `comp`.
        let timing = self.tel.timing_enabled();
        let (sel, comp_ns) = SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            let ct0 = (timing || ctx.sampled()).then(Instant::now);
            let sel = s.codecs.compress_with_hint(
                self.cfg.codec_policy,
                self.cfg.threshold,
                page,
                &mut s.comp,
                hint,
            );
            (sel, ct0.map(|t| t.elapsed().as_nanos() as u64))
        });
        let len = sel.len;
        tout.codec = sel.codec.as_u8();
        if let (Some(ns), true) = (comp_ns, ctx.sampled()) {
            if let Some(tr) = self.cfg.tracer.as_deref() {
                tr.record(
                    self.shard_index(key),
                    &Span {
                        trace_id: ctx.trace_id,
                        span_id: tr.alloc_span(),
                        parent: ctx.parent_span,
                        op: sop::COMPRESS,
                        tier: strier::NONE,
                        codec: sel.codec.as_u8(),
                        status: sel.fell_back as u8,
                        start_ns: tr.elapsed_ns().saturating_sub(ns),
                        queue_ns: 0,
                        service_ns: ns,
                        arg: key,
                    },
                );
            }
        }

        let shard_idx = self.shard_index(key);
        let mut shard = self.shard(key);
        // Capture the outgoing entry's recency metadata before replacing
        // it — the placement query describes the key's history, not just
        // this put.
        let (prev_age, prev_gets, was_hot) = match shard.entries.get(&key) {
            Some(e) => (
                now.wrapping_sub(e.last_touch) as u64,
                e.gets as u32,
                matches!(e.residence, Residence::Hot { .. }),
            ),
            None => (u64::MAX, 0, false),
        };
        self.remove_locked(&mut shard, key);
        if sel.fell_back {
            self.tel.count(shard_idx, tstat::CODEC_FALLBACKS, 1);
        }
        match sel.codec {
            CodecId::Lzrw1 => {
                self.tel.count(shard_idx, tstat::COMPRESSED, 1);
                self.tel.count(shard_idx, tstat::PUTS_LZRW1, 1);
                self.tel
                    .count(shard_idx, tstat::LZRW1_IN_BYTES, page.len() as u64);
                self.tel
                    .count(shard_idx, tstat::LZRW1_OUT_BYTES, len as u64);
                if let Some(ns) = comp_ns.filter(|_| timing) {
                    self.tel.record(top::COMPRESS_LZRW1, ns);
                }
            }
            CodecId::Bdi => {
                self.tel.count(shard_idx, tstat::COMPRESSED, 1);
                self.tel.count(shard_idx, tstat::PUTS_BDI, 1);
                self.tel
                    .count(shard_idx, tstat::BDI_IN_BYTES, page.len() as u64);
                self.tel.count(shard_idx, tstat::BDI_OUT_BYTES, len as u64);
                if let Some(ns) = comp_ns.filter(|_| timing) {
                    self.tel.record(top::COMPRESS_BDI, ns);
                }
            }
            _ => {
                debug_assert_eq!(sel.codec, CodecId::Raw, "unexpected put codec");
                self.tel.count(shard_idx, tstat::STORED_RAW, 1);
                if timing {
                    self.tel.event(tevent::THRESHOLD_REJECT, key, len as u64);
                }
            }
        }

        // Ask the tier policy where the sealed page should live. Hot
        // placement stores the raw page bytes, so it reserves the full
        // page size; the sealed bytes in `comp` are kept around either
        // way (they are what spills if reservation fails outright).
        let place_hot = matches!(
            self.cfg.tier_policy.admit(&PlacementQuery {
                key,
                page_len: page.len(),
                sealed_len: len,
                admitted: sel.admitted,
                age: prev_age,
                gets: prev_gets,
                was_hot,
                pressure_pct: self.pressure_pct(),
            }),
            TierDecision::Hot
        );
        let need = if place_hot { page.len() } else { len };

        // Reserve budget for the new entry before publishing it. The CAS
        // keeps `resident` at or below the budget at every instant.
        let mut reserved = true;
        'reserve: loop {
            let mut cur = self.resident.load(Ordering::Relaxed);
            while cur + need <= self.cfg.memory_budget {
                match self.resident.compare_exchange_weak(
                    cur,
                    cur + need,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break 'reserve,
                    Err(actual) => cur = actual,
                }
            }
            match self.make_room(shard_idx, &mut shard)? {
                Progress::Evicted => continue,
                Progress::NoVictim => {
                    // Nothing left to evict (everything is already
                    // spilling, or the page alone exceeds the budget):
                    // bypass residence and spill this entry directly.
                    reserved = false;
                    break;
                }
                Progress::Blocked => {
                    // Victims may exist on shards other putters hold.
                    // Release ours so the system can make progress, then
                    // retry from scratch.
                    drop(shard);
                    std::thread::yield_now();
                    shard = self.shard(key);
                }
            }
        }

        if !reserved {
            if shard.tx.is_none() {
                // Straight-to-spill needed but the writer is gone (the
                // store was shut down): fail the put instead of
                // panicking. The old entry was already removed above —
                // acceptable for a store that is being torn down.
                drop(shard);
                return Err(StoreError::ShuttingDown);
            }
            if self.degraded.load(Ordering::Relaxed) {
                // Spill is disabled and nothing was evictable: the
                // memory-only store is genuinely full.
                drop(shard);
                return Err(StoreError::OutOfMemory);
            }
        }
        tout.tier = match (reserved, place_hot) {
            (true, true) => strier::HOT,
            (true, false) => strier::MEMORY,
            (false, _) => strier::SPILL,
        };
        let residence = SCRATCH.with(|c| -> Result<Residence, StoreError> {
            let s = &mut *c.borrow_mut();
            let compressed = &s.comp[..len];
            if reserved && place_hot {
                // Hot tier: keep the raw page; the sealed bytes are
                // discarded (the demoter re-seals from the recorded
                // probe hint if this page ever ages out).
                let data = shard.acquire_buf(page);
                let handle = shard.lru_hot.push_mru(key);
                self.hot_resident.fetch_add(page.len(), Ordering::Relaxed);
                self.tel.count(shard_idx, tstat::PUTS_HOT, 1);
                Ok(Residence::Hot { data, handle })
            } else if reserved {
                self.warm_resident.fetch_add(len, Ordering::Relaxed);
                let data = shard.acquire_buf(compressed);
                let handle = shard.lru.push_mru(key);
                Ok(Residence::Memory { data, handle })
            } else {
                // Straight-to-spill path (see above): never resident.
                let data = Arc::new(compressed.to_vec());
                let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
                let tx = shard.tx.as_ref().expect("checked above");
                if tx
                    .send(SpillJob {
                        key,
                        gen,
                        codec: sel.codec.as_u8(),
                        orig_len: page.len() as u32,
                        data: Arc::clone(&data),
                        ctx,
                        queued: ctx.sampled().then(Instant::now),
                    })
                    .is_err()
                {
                    // The receiver is gone without a shutdown(): the
                    // writer panicked. Degrade and fail this put.
                    self.writer_dead.store(true, Ordering::Relaxed);
                    self.enter_degraded(0);
                    return Err(StoreError::ShuttingDown);
                }
                self.tel.count(shard_idx, tstat::SPILLED, 1);
                Ok(Residence::Spilling { data, gen })
            }
        });
        let residence = match residence {
            Ok(r) => r,
            Err(e) => {
                drop(shard);
                return Err(e);
            }
        };
        let hot = matches!(residence, Residence::Hot { .. });
        // A straight-to-spill entry is already in the writer's queue,
        // so its location will hit the journal: it must tombstone on
        // removal.
        let journaled = matches!(residence, Residence::Spilling { .. });
        shard.entries.insert(
            key,
            Entry {
                residence,
                orig_len: page.len() as u32,
                // A hot entry holds raw page bytes, not the sealed form
                // the selection describes.
                codec: if hot {
                    CodecId::Raw.as_u8()
                } else {
                    sel.codec.as_u8()
                },
                probe: probe_code(hint),
                gets: 0,
                last_touch: now,
                journaled,
            },
        );
        drop(shard);
        self.sample_end_traced(top::PUT, t0, ctx);
        Ok(())
    }

    /// Fetch `key`'s page, recording a `store_get` span (and a
    /// `spill_read` child for disk hits) when `ctx` is sampled.
    fn get(&self, key: u64, out: &mut [u8], ctx: TraceCtx) -> Result<Option<HitTier>, StoreError> {
        match self.op_trace(ctx) {
            None => self.get_inner(key, out, TraceCtx::NONE, &mut TraceOut::default()),
            Some(ot) => {
                let mut tout = TraceOut::default();
                let res = self.get_inner(key, out, ctx.child(ot.span), &mut tout);
                self.finish_op(ot, ctx, sop::STORE_GET, &tout, res.is_err() as u8, key);
                res
            }
        }
    }

    fn get_inner(
        &self,
        key: u64,
        out: &mut [u8],
        ctx: TraceCtx,
        tout: &mut TraceOut,
    ) -> Result<Option<HitTier>, StoreError> {
        self.absorb_completed_spills();
        let t0 = self.sample_start();
        let now = self.touch_clock.fetch_add(1, Ordering::Relaxed) as u32;
        let shard_idx = self.shard_index(key);
        // Transient spill-read failures (I/O errors, corrupt extents)
        // consumed so far by this get; bounded by the retry policy.
        let mut io_attempts: u32 = 0;
        // The loop retries a disk hit whose extent was replaced or
        // relocated by GC while the read was in flight (unbounded: each
        // pass observes real progress by another thread) and transient
        // I/O failures (bounded by `spill_retry_attempts`); every other
        // arm returns on the first pass.
        loop {
            let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            let Some(entry) = shard.entries.get_mut(&key) else {
                drop(shard);
                self.tel.count(shard_idx, tstat::MISSES, 1);
                return Ok(None);
            };
            let orig_len = entry.orig_len as usize;
            let codec = entry.codec;
            if out.len() != orig_len {
                return Err(StoreError::BadPageSize {
                    expected: orig_len,
                    got: out.len(),
                });
            }
            // Stamp the access for the tier policies: the age the
            // promotion decision sees is the gap this get closed, and
            // the unique clock stamp doubles as the promotion
            // revalidation token.
            let age = now.wrapping_sub(entry.last_touch) as u64;
            entry.last_touch = now;
            entry.gets = entry.gets.saturating_add(1);
            let gets = entry.gets as u32;
            tout.codec = codec;
            match &entry.residence {
                Residence::Hot { data, handle } => {
                    tout.tier = strier::HOT;
                    out.copy_from_slice(data);
                    let handle = *handle;
                    shard.lru_hot.touch(handle);
                    drop(shard);
                    self.tel.count(shard_idx, tstat::HITS_HOT, 1);
                    self.sample_end_traced(top::GET_HOT, t0, ctx);
                    return Ok(Some(HitTier::Hot));
                }
                Residence::SameFilled { pattern } => {
                    tout.tier = strier::SAME_FILLED;
                    let pattern = *pattern;
                    drop(shard);
                    expand_same_filled(out, pattern);
                    self.tel.count(shard_idx, tstat::HITS_MEMORY, 1);
                    self.sample_end_traced(top::GET_SAME_FILLED, t0, ctx);
                    return Ok(Some(HitTier::SameFilled));
                }
                Residence::Memory { data, handle } => {
                    tout.tier = strier::MEMORY;
                    // Copy the (small) compressed bytes out under the lock
                    // so decompression runs without it.
                    let handle = *handle;
                    let sealed_len = data.len();
                    SCRATCH.with(|c| {
                        let s = &mut *c.borrow_mut();
                        s.stage.clear();
                        s.stage.extend_from_slice(data);
                    });
                    shard.lru.touch(handle);
                    drop(shard);
                    self.decompress_staged(codec, orig_len, out);
                    self.tel.count(shard_idx, tstat::HITS_MEMORY, 1);
                    self.sample_end_traced(top::GET_MEMORY, t0, ctx);
                    let q = PlacementQuery {
                        key,
                        page_len: orig_len,
                        sealed_len,
                        admitted: codec != CodecId::Raw.as_u8(),
                        age,
                        gets,
                        was_hot: false,
                        pressure_pct: self.pressure_pct(),
                    };
                    if self.cfg.tier_policy.promote(&q) {
                        self.try_promote(key, shard_idx, now, strier::MEMORY, out, ctx);
                    }
                    return Ok(Some(HitTier::Memory));
                }
                Residence::Spilling { data, .. } => {
                    tout.tier = strier::MEMORY;
                    let data = Arc::clone(data);
                    drop(shard);
                    self.decompress_into(codec, &data, orig_len, out);
                    self.tel.count(shard_idx, tstat::HITS_MEMORY, 1);
                    self.sample_end_traced(top::GET_MEMORY, t0, ctx);
                    return Ok(Some(HitTier::Memory));
                }
                Residence::Spilled { offset, len, gen } => {
                    tout.tier = strier::SPILL;
                    let (offset, len, gen) = (*offset, *len, *gen);
                    drop(shard);
                    let rspan_t0 = ctx.sampled().then(Instant::now);
                    let rt0 = self.sample_start();
                    let io = self.read_spill(offset, len);
                    self.sample_end(top::SPILL_READ, rt0);
                    // Validate after the read: if the entry still names
                    // this exact extent, GC cannot have clobbered it (it
                    // republishes an extent, under this shard's lock,
                    // before any byte of its old home is overwritten).
                    let shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
                    let valid = matches!(
                        shard.entries.get(&key).map(|e| &e.residence),
                        Some(Residence::Spilled {
                            offset: o,
                            len: l,
                            gen: g
                        }) if *o == offset && *l == len && *g == gen
                    );
                    drop(shard);
                    if !valid {
                        continue;
                    }
                    // Transient I/O failure: bounded retry with backoff.
                    if let Err(e) = io {
                        self.child_span(
                            ctx,
                            rspan_t0,
                            sop::SPILL_READ,
                            strier::SPILL,
                            codec,
                            1,
                            offset,
                            shard_idx,
                        );
                        io_attempts += 1;
                        if io_attempts >= self.cfg.spill_retry_attempts.max(1) {
                            return Err(e);
                        }
                        self.tel.count(shard_idx, tstat::IO_RETRIES, 1);
                        std::thread::sleep(backoff(self.cfg.spill_retry_base, io_attempts));
                        continue;
                    }
                    // Verify AFTER revalidation: a torn read caused by a
                    // legitimate GC relocation took the `continue` above
                    // and never reaches here, so a failure now is real
                    // corruption — count it, never decompress it.
                    if !self.verify_staged(gen, codec) {
                        self.tel.count(shard_idx, tstat::CORRUPT_DETECTED, 1);
                        if self.tel.timing_enabled() {
                            self.tel.event(tevent::CORRUPT, key, offset);
                        }
                        self.child_span(
                            ctx,
                            rspan_t0,
                            sop::SPILL_READ,
                            strier::SPILL,
                            codec,
                            2,
                            offset,
                            shard_idx,
                        );
                        if let Some(tr) = self.cfg.tracer.as_deref() {
                            tr.anomaly(AnomalyKind::Corrupt, ctx.trace_id, key, offset);
                        }
                        io_attempts += 1;
                        if io_attempts >= self.cfg.spill_retry_attempts.max(1) {
                            // Persistent corruption: drop the entry (if
                            // it still names this extent) so later gets
                            // miss and can refill, instead of serving
                            // the same garbage forever.
                            let mut shard =
                                self.shards[shard_idx].0.lock().expect("shard poisoned");
                            let same = matches!(
                                shard.entries.get(&key).map(|e| &e.residence),
                                Some(Residence::Spilled {
                                    offset: o,
                                    len: l,
                                    gen: g
                                }) if *o == offset && *l == len && *g == gen
                            );
                            if same {
                                self.remove_locked(&mut shard, key);
                            }
                            return Err(StoreError::Corrupt);
                        }
                        self.tel.count(shard_idx, tstat::IO_RETRIES, 1);
                        std::thread::sleep(backoff(self.cfg.spill_retry_base, io_attempts));
                        continue;
                    }
                    self.child_span(
                        ctx,
                        rspan_t0,
                        sop::SPILL_READ,
                        strier::SPILL,
                        codec,
                        0,
                        offset,
                        shard_idx,
                    );
                    self.tel.count(shard_idx, tstat::HITS_SPILL, 1);
                    self.decompress_staged(codec, orig_len, out);
                    self.sample_end_traced(top::GET_SPILL, t0, ctx);
                    let q = PlacementQuery {
                        key,
                        page_len: orig_len,
                        sealed_len: len as usize,
                        admitted: codec != CodecId::Raw.as_u8(),
                        age,
                        gets,
                        was_hot: false,
                        pressure_pct: self.pressure_pct(),
                    };
                    if self.cfg.tier_policy.promote(&q) {
                        self.try_promote(key, shard_idx, now, strier::SPILL, out, ctx);
                    }
                    return Ok(Some(HitTier::Spill));
                }
            }
        }
    }

    fn stats(&self) -> StoreStats {
        self.absorb_completed_spills();
        let resident = self.resident.load(Ordering::Relaxed) as u64;
        StoreStats {
            compressed: self.tel.counter_sum(tstat::COMPRESSED),
            stored_raw: self.tel.counter_sum(tstat::STORED_RAW),
            puts_lzrw1: self.tel.counter_sum(tstat::PUTS_LZRW1),
            puts_bdi: self.tel.counter_sum(tstat::PUTS_BDI),
            codec_fallbacks: self.tel.counter_sum(tstat::CODEC_FALLBACKS),
            lzrw1_in_bytes: self.tel.counter_sum(tstat::LZRW1_IN_BYTES),
            lzrw1_out_bytes: self.tel.counter_sum(tstat::LZRW1_OUT_BYTES),
            bdi_in_bytes: self.tel.counter_sum(tstat::BDI_IN_BYTES),
            bdi_out_bytes: self.tel.counter_sum(tstat::BDI_OUT_BYTES),
            same_filled: self.tel.counter_sum(tstat::SAME_FILLED),
            puts_hot: self.tel.counter_sum(tstat::PUTS_HOT),
            hits_hot: self.tel.counter_sum(tstat::HITS_HOT),
            promotions: self.tel.counter_sum(tstat::PROMOTIONS),
            promotions_rejected: self.tel.counter_sum(tstat::PROMOTIONS_REJECTED),
            demoted_hot: self.tel.counter_sum(tstat::DEMOTED_HOT),
            demoted_warm: self.tel.counter_sum(tstat::DEMOTED_WARM),
            demoter_passes: self.tel.counter_sum(tstat::DEMOTER_PASSES),
            hits_memory: self.tel.counter_sum(tstat::HITS_MEMORY),
            hits_spill: self.tel.counter_sum(tstat::HITS_SPILL),
            misses: self.tel.counter_sum(tstat::MISSES),
            spilled: self.tel.counter_sum(tstat::SPILLED),
            spill_batches: self.tel.counter_sum(tstat::SPILL_BATCHES),
            gc_runs: self.tel.counter_sum(tstat::GC_RUNS),
            gc_bytes_relocated: self.tel.counter_sum(tstat::GC_BYTES_RELOCATED),
            gc_pause_max_ns: self.tel.op_summary(top::GC_PAUSE).max,
            spill_fallback_resident: self.tel.counter_sum(tstat::SPILL_FALLBACK_RESIDENT),
            shed_pages: self.tel.counter_sum(tstat::SHED_PAGES),
            corrupt_detected: self.tel.counter_sum(tstat::CORRUPT_DETECTED),
            io_retries: self.tel.counter_sum(tstat::IO_RETRIES),
            degraded_entered: self.tel.counter_sum(tstat::DEGRADED_ENTERED),
            degraded_recovered: self.tel.counter_sum(tstat::DEGRADED_RECOVERED),
            medium_probes: self.tel.counter_sum(tstat::MEDIUM_PROBES),
            degraded: self.degraded.load(Ordering::Relaxed),
            bytes_on_spill: self.spill_file_bytes.load(Ordering::Relaxed),
            spill_dead_bytes: self.spill_dead_bytes.load(Ordering::Relaxed),
            resident_bytes: resident,
            hot_bytes: self.hot_resident.load(Ordering::Relaxed) as u64,
            warm_bytes: self.warm_resident.load(Ordering::Relaxed) as u64,
            extents_recovered: self.tel.counter_sum(tstat::EXTENTS_RECOVERED),
            journal_records_replayed: self.tel.counter_sum(tstat::JOURNAL_RECORDS_REPLAYED),
            torn_tail_discarded: self.tel.counter_sum(tstat::TORN_TAIL_DISCARDED),
            stale_generation_dropped: self.tel.counter_sum(tstat::STALE_GENERATION_DROPPED),
            recovery_extents_verified: self.tel.counter_sum(tstat::RECOVERY_EXTENTS_VERIFIED),
            journal_records_written: self.tel.counter_sum(tstat::JOURNAL_RECORDS_WRITTEN),
            journal_compactions: self.tel.counter_sum(tstat::JOURNAL_COMPACTIONS),
            clean_recoveries: self.tel.counter_sum(tstat::CLEAN_RECOVERIES),
            recovery_ns: self.tel.op_summary(top::RECOVERY).max,
        }
    }

    /// Read `len` bytes at `offset` into this thread's staging buffer.
    fn read_spill(&self, offset: u64, len: u32) -> Result<(), StoreError> {
        SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            s.stage.clear();
            s.stage.resize(len as usize, 0);
            self.medium
                .as_ref()
                .expect("spilled entry without spill medium")
                .read_at(&mut s.stage, offset)?;
            Ok(())
        })
    }

    /// Verify the staged extent against `gen` and the entry's recorded
    /// `codec`; on success strip the header so only the payload remains
    /// staged for decompression.
    fn verify_staged(&self, gen: u64, codec: u8) -> bool {
        SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            if !verify_extent(&s.stage, gen, codec) {
                return false;
            }
            s.stage.drain(..EXTENT_HEADER);
            true
        })
    }

    /// Record a decompression latency sample on the per-codec histogram.
    #[inline]
    fn record_decompress(&self, codec: CodecId, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        // Raw blocks are a memcpy, not a codec — they are excluded so the
        // per-codec histograms measure real decode work.
        let op = match codec {
            CodecId::Bdi => top::DECOMPRESS_BDI,
            CodecId::Lzrw1 => top::DECOMPRESS_LZRW1,
            _ => return,
        };
        self.tel.record(op, t0.elapsed().as_nanos() as u64);
    }

    /// Decompress this thread's staging buffer into `out`, dispatching on
    /// the entry's recorded codec id.
    fn decompress_staged(&self, codec: u8, orig_len: usize, out: &mut [u8]) {
        let id = CodecId::from_u8(codec).expect("unknown codec id in entry");
        let t0 = self.sample_start();
        SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            let Scratch {
                codecs,
                stage,
                decomp,
                ..
            } = &mut *s;
            codecs
                .decompress(id, stage, decomp, orig_len)
                .expect("corrupt page in store");
            out.copy_from_slice(decomp);
        });
        self.record_decompress(id, t0);
    }

    fn decompress_into(&self, codec: u8, data: &[u8], orig_len: usize, out: &mut [u8]) {
        let id = CodecId::from_u8(codec).expect("unknown codec id in entry");
        let t0 = self.sample_start();
        SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            let Scratch { codecs, decomp, .. } = &mut *s;
            codecs
                .decompress(id, data, decomp, orig_len)
                .expect("corrupt page in store");
            out.copy_from_slice(decomp);
        });
        self.record_decompress(id, t0);
    }

    /// Persistence hook for every path that removes (or supersedes) an
    /// entry: if the key has a location record in the journal, queue a
    /// tombstone with a fresh LSN so recovery cannot resurrect it. The
    /// LSN is allocated while the caller still holds the key's shard
    /// lock, which is what makes the per-key LSN order exact even when
    /// the tombstone reaches the journal before the PUT it supersedes.
    fn tombstone_if_journaled(&self, journaled: bool, key: u64) {
        if !journaled {
            return;
        }
        if let Some(p) = &self.persist {
            let lsn = self.next_gen.fetch_add(1, Ordering::Relaxed);
            p.enqueue_tombstone(key, lsn);
        }
    }

    fn remove_locked(&self, shard: &mut Shard, key: u64) -> bool {
        match shard.entries.remove(&key) {
            Some(e) => {
                self.tombstone_if_journaled(e.journaled, key);
                match e.residence {
                    Residence::Hot { data, handle } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.hot_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        shard.lru_hot.remove(handle);
                        shard.release_buf(data);
                    }
                    Residence::Memory { data, handle } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        shard.lru.remove(handle);
                        shard.release_buf(data);
                    }
                    Residence::Spilled { len, .. } => {
                        // The extent's bytes stay behind on the file as
                        // dead space; the gauge feeds the GC trigger.
                        self.spill_dead_bytes
                            .fetch_add(len as u64, Ordering::Relaxed);
                    }
                    // An in-flight job's bytes become dead when its now-
                    // orphaned completion is absorbed; same-filled entries
                    // occupy nothing anywhere.
                    Residence::Spilling { .. } | Residence::SameFilled { .. } => {}
                }
                true
            }
            None => false,
        }
    }

    /// Evict one cold entry to free budget: spill it if a spill file is
    /// configured, otherwise fail. Prefers the local (already locked)
    /// shard; falls back to try-locking the others so two concurrent
    /// putters can never deadlock.
    fn make_room(&self, local_idx: usize, local: &mut Shard) -> Result<Progress, StoreError> {
        // Budget pressure reached the foreground path: give the
        // background demoter an early wakeup so it sweeps aged entries
        // before the next put has to.
        self.demote_cv.notify_one();
        if self.evict_one(local) {
            return Ok(Progress::Evicted);
        }
        let mut blocked = false;
        for (i, other) in self.shards.iter().enumerate() {
            if i == local_idx {
                continue;
            }
            match other.0.try_lock() {
                Ok(mut guard) => {
                    if self.evict_one(&mut guard) {
                        return Ok(Progress::Evicted);
                    }
                }
                Err(_) => blocked = true,
            }
        }
        if self.has_spill() {
            // No victim reachable right now; the caller spills directly.
            Ok(Progress::NoVictim)
        } else if blocked {
            // Couldn't inspect every shard; the caller must release its
            // lock and retry rather than conclude out-of-memory.
            Ok(Progress::Blocked)
        } else {
            Err(StoreError::OutOfMemory)
        }
    }

    /// Free budget from `shard`: spill its coldest warm entry (already
    /// sealed — the cheapest victim), else compress-and-demote its
    /// coldest hot entry. When degraded, shed instead. Returns false if
    /// nothing on this shard can make progress.
    fn evict_one(&self, shard: &mut Shard) -> bool {
        let warm_victim = shard.lru.peek_lru().map(|(_, &k)| k);
        let Some(tx) = shard.tx.clone() else {
            // No writer (memory-only store, or shut down): warm pages
            // have nowhere to go, but a hot page whose compressed form
            // is smaller can still be squeezed down to warm in place.
            if self.degraded.load(Ordering::Relaxed) {
                return false;
            }
            if let Some((_, &victim)) = shard.lru_hot.peek_lru() {
                return matches!(
                    self.demote_hot_locked(shard, victim, None),
                    DemoteOutcome::Warm
                );
            }
            return false;
        };
        if self.degraded.load(Ordering::Relaxed) {
            // Degraded: the medium can't be trusted with this page, but
            // the budget still must be honored. Shedding drops the
            // coldest entry entirely — cache-miss semantics.
            return self.shed_one(shard);
        }
        let Some(victim) = warm_victim else {
            // Only hot entries left: compress the coldest and demote it
            // (to warm when compression frees memory, straight to the
            // spill channel otherwise — guaranteed progress either way).
            if let Some((_, &victim)) = shard.lru_hot.peek_lru() {
                return matches!(
                    self.demote_hot_locked(shard, victim, Some(&tx)),
                    DemoteOutcome::Warm | DemoteOutcome::Spilled
                );
            }
            return false;
        };
        let entry = shard.entries.get_mut(&victim).expect("lru/map sync");
        let codec = entry.codec;
        let orig_len = entry.orig_len;
        let was_journaled = entry.journaled;
        let Residence::Memory { data, handle } = &mut entry.residence else {
            unreachable!("LRU entry not in memory")
        };
        let handle = *handle;
        let data = Arc::new(std::mem::take(data));
        let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        entry.residence = Residence::Spilling {
            data: Arc::clone(&data),
            gen,
        };
        entry.journaled = self.persist.is_some();
        shard.lru.remove(handle);
        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
        self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
        let len = data.len() as u64;
        if tx
            .send(SpillJob {
                key: victim,
                gen,
                codec,
                orig_len,
                data,
                ctx: TraceCtx::NONE,
                queued: None,
            })
            .is_err()
        {
            // The writer died without a shutdown() (panic): degrade, and
            // shed the victim we just flipped to `Spilling` — its job
            // will never be received, let alone completed.
            self.writer_dead.store(true, Ordering::Relaxed);
            self.enter_degraded(0);
            shard.entries.remove(&victim);
            // The job never reached the journal, but an older location
            // record for this key may still be live there.
            self.tombstone_if_journaled(was_journaled, victim);
            let idx = self.shard_index(victim);
            self.tel.count(idx, tstat::SHED_PAGES, 1);
            if self.tel.timing_enabled() {
                self.tel.event(tevent::SHED, victim, len);
            }
            return true;
        }
        self.tel.count(self.shard_index(victim), tstat::SPILLED, 1);
        if self.tel.timing_enabled() {
            self.tel.event(tevent::EVICT, victim, len);
        }
        true
    }

    /// Drop `shard`'s coldest memory entry entirely (degraded-mode
    /// eviction and post-fallback budget repair) — the coldest warm
    /// entry first (already compressed, cheapest to refill), then the
    /// coldest hot one. Returns false if the shard has no in-memory
    /// entries.
    fn shed_one(&self, shard: &mut Shard) -> bool {
        let victim = match shard.lru.peek_lru() {
            Some((_, &k)) => k,
            None => match shard.lru_hot.peek_lru() {
                Some((_, &k)) => k,
                None => return false,
            },
        };
        let entry = shard.entries.remove(&victim).expect("lru/map sync");
        self.tombstone_if_journaled(entry.journaled, victim);
        let data = match entry.residence {
            Residence::Memory { data, handle } => {
                self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                shard.lru.remove(handle);
                data
            }
            Residence::Hot { data, handle } => {
                self.hot_resident.fetch_sub(data.len(), Ordering::Relaxed);
                shard.lru_hot.remove(handle);
                data
            }
            _ => unreachable!("LRU entry not in memory"),
        };
        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
        let idx = self.shard_index(victim);
        self.tel.count(idx, tstat::SHED_PAGES, 1);
        if self.tel.timing_enabled() {
            self.tel.event(tevent::SHED, victim, data.len() as u64);
        }
        shard.release_buf(data);
        true
    }

    /// Resident bytes as a percentage of the budget, saturated to 100 —
    /// the pressure signal the tier policies and the demoter gates read.
    fn pressure_pct(&self) -> u8 {
        let budget = self.cfg.memory_budget.max(1);
        ((self.resident.load(Ordering::Relaxed).min(budget) * 100) / budget) as u8
    }

    /// Decompress-back-to-hot promotion of `key`, whose just-served
    /// page bytes are in `page`. Promotion never evicts: the budget
    /// delta is CAS-reserved outright and the promotion is abandoned
    /// (counted) when it doesn't fit. The entry must still carry this
    /// get's unique `now` stamp — any interleaved put or get stamps its
    /// own clock value, so a stale swap is impossible.
    fn try_promote(
        &self,
        key: u64,
        shard_idx: usize,
        now: u32,
        src_tier: u8,
        page: &[u8],
        ctx: TraceCtx,
    ) {
        let t0 = self.sample_start();
        let pt0 = ctx.sampled().then(Instant::now);
        let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
        let Some(e) = shard.entries.get(&key) else {
            return;
        };
        if e.last_touch != now {
            self.tel.count(shard_idx, tstat::PROMOTIONS_REJECTED, 1);
            return;
        }
        // Net budget delta: the raw page comes in, the warm sealed
        // bytes (if that's where it lives) go out. A spilled source
        // frees nothing in memory.
        let freed = match &e.residence {
            Residence::Memory { data, .. } => data.len() as i64,
            Residence::Spilled { .. } => 0,
            // Already hot, in flight to disk, or same-filled (which is
            // strictly cheaper than hot): nothing to do.
            _ => return,
        };
        let delta = page.len() as i64 - freed;
        if delta > 0 {
            let delta = delta as usize;
            let mut cur = self.resident.load(Ordering::Relaxed);
            loop {
                if cur + delta > self.cfg.memory_budget {
                    drop(shard);
                    self.tel.count(shard_idx, tstat::PROMOTIONS_REJECTED, 1);
                    return;
                }
                match self.resident.compare_exchange_weak(
                    cur,
                    cur + delta,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        } else {
            self.resident
                .fetch_sub((-delta) as usize, Ordering::Relaxed);
        }
        let mut e = shard.entries.remove(&key).expect("checked above");
        match e.residence {
            Residence::Memory { data, handle } => {
                self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                shard.lru.remove(handle);
                shard.release_buf(data);
            }
            Residence::Spilled { len, .. } => {
                // The extent stays behind as dead bytes for GC.
                self.spill_dead_bytes
                    .fetch_add(len as u64, Ordering::Relaxed);
            }
            _ => unreachable!("checked above"),
        }
        let data = shard.acquire_buf(page);
        let handle = shard.lru_hot.push_mru(key);
        e.residence = Residence::Hot { data, handle };
        e.codec = CodecId::Raw.as_u8();
        shard.entries.insert(key, e);
        drop(shard);
        self.hot_resident.fetch_add(page.len(), Ordering::Relaxed);
        self.tel.count(shard_idx, tstat::PROMOTIONS, 1);
        if self.tel.timing_enabled() {
            self.tel.event(tevent::PROMOTE, key, src_tier as u64);
        }
        self.sample_end(top::PROMOTE, t0);
        self.child_span(
            ctx,
            pt0,
            sop::PROMOTE,
            src_tier,
            CodecId::Raw.as_u8(),
            0,
            key,
            shard_idx,
        );
    }

    /// Compress `shard`'s hot entry `key` (reusing its recorded probe
    /// verdict — no re-probe) and demote it: to warm residence when the
    /// sealed form is smaller, else to the spill channel when one is
    /// available. `Kept` means neither helped; the entry is cycled to
    /// the hot MRU end so a bounded sweep doesn't re-grind it.
    fn demote_hot_locked(
        &self,
        shard: &mut Shard,
        key: u64,
        tx: Option<&Sender<SpillJob>>,
    ) -> DemoteOutcome {
        let shard_idx = self.shard_index(key);
        let Some(e) = shard.entries.get(&key) else {
            return DemoteOutcome::Kept;
        };
        let hint = probe_hint(e.probe);
        let Residence::Hot { data, .. } = &e.residence else {
            return DemoteOutcome::Kept;
        };
        let orig_len = data.len();
        // Seal under the shard lock: the demoter touches one entry per
        // lock hold, and compressing outside the lock would need a page
        // copy plus revalidation — more overhead than it saves on a
        // background path.
        let sel = SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            let Scratch { codecs, demote, .. } = &mut *s;
            codecs.compress_with_hint(
                self.cfg.codec_policy,
                self.cfg.threshold,
                data,
                demote,
                hint,
            )
        });
        if sel.len < orig_len {
            // Hot → warm: swap the raw page for its sealed form at the
            // *cold* end of the warm LRU (an aged page stays first in
            // line for the next spill).
            let sealed = SCRATCH.with(|c| shard.acquire_buf(&c.borrow().demote[..sel.len]));
            let mut e = shard.entries.remove(&key).expect("checked above");
            let Residence::Hot { data, handle } = e.residence else {
                unreachable!("checked above")
            };
            shard.lru_hot.remove(handle);
            let handle = shard.lru.push_lru(key);
            e.residence = Residence::Memory {
                data: sealed,
                handle,
            };
            e.codec = sel.codec.as_u8();
            shard.entries.insert(key, e);
            shard.release_buf(data);
            self.resident
                .fetch_sub(orig_len - sel.len, Ordering::Relaxed);
            self.hot_resident.fetch_sub(orig_len, Ordering::Relaxed);
            self.warm_resident.fetch_add(sel.len, Ordering::Relaxed);
            self.tel.count(shard_idx, tstat::DEMOTED_HOT, 1);
            DemoteOutcome::Warm
        } else if let Some(tx) = tx {
            // Incompressible (that's usually why it was hot): hand the
            // sealed bytes straight to the spill writer.
            let sealed = Arc::new(SCRATCH.with(|c| c.borrow().demote[..sel.len].to_vec()));
            let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
            let mut e = shard.entries.remove(&key).expect("checked above");
            let Residence::Hot { data, handle } = e.residence else {
                unreachable!("checked above")
            };
            shard.lru_hot.remove(handle);
            e.residence = Residence::Spilling {
                data: Arc::clone(&sealed),
                gen,
            };
            e.codec = sel.codec.as_u8();
            let was_journaled = e.journaled;
            e.journaled = self.persist.is_some();
            shard.entries.insert(key, e);
            shard.release_buf(data);
            self.resident.fetch_sub(orig_len, Ordering::Relaxed);
            self.hot_resident.fetch_sub(orig_len, Ordering::Relaxed);
            if tx
                .send(SpillJob {
                    key,
                    gen,
                    codec: sel.codec.as_u8(),
                    orig_len: orig_len as u32,
                    data: sealed,
                    ctx: TraceCtx::NONE,
                    queued: None,
                })
                .is_err()
            {
                // Writer died mid-demotion: degrade and shed the victim,
                // exactly as the warm eviction path does.
                self.writer_dead.store(true, Ordering::Relaxed);
                self.enter_degraded(0);
                shard.entries.remove(&key);
                self.tombstone_if_journaled(was_journaled, key);
                self.tel.count(shard_idx, tstat::SHED_PAGES, 1);
                if self.tel.timing_enabled() {
                    self.tel.event(tevent::SHED, key, sel.len as u64);
                }
                return DemoteOutcome::Spilled;
            }
            self.tel.count(shard_idx, tstat::SPILLED, 1);
            self.tel.count(shard_idx, tstat::DEMOTED_HOT, 1);
            DemoteOutcome::Spilled
        } else {
            // Nothing to gain and nowhere to spill: cycle it so the
            // caller's bounded walk moves on.
            if let Some(e) = shard.entries.get(&key) {
                if let Residence::Hot { handle, .. } = &e.residence {
                    let handle = *handle;
                    shard.lru_hot.touch(handle);
                }
            }
            DemoteOutcome::Kept
        }
    }

    /// One bounded demotion sweep across every shard. Hot entries idle
    /// past the policy's `hot_idle` window are compressed down to warm
    /// (or straight to spill if incompressible); warm entries idle past
    /// `warm_idle` are handed to the spill writer. Each list is gated
    /// on its own pressure threshold so an under-budget store does no
    /// work at all. Returns `(hot_demoted, warm_demoted)`.
    fn demote_pass(&self) -> (u64, u64) {
        let policy = &self.cfg.tier_policy;
        let pressure = self.pressure_pct();
        let hot_idle = policy.hot_idle();
        let warm_idle = policy.warm_idle();
        let do_hot = hot_idle != u64::MAX && pressure >= policy.hot_demote_pressure_pct();
        let do_warm = warm_idle != u64::MAX
            && pressure >= policy.warm_demote_pressure_pct()
            && self.has_spill()
            && !self.degraded.load(Ordering::Relaxed);
        if !do_hot && !do_warm {
            return (0, 0);
        }
        let t0 = Instant::now();
        let now = self.touch_clock.load(Ordering::Relaxed) as u32;
        let (mut hot_n, mut warm_n) = (0u64, 0u64);
        for (shard_idx, slot) in self.shards.iter().enumerate() {
            let mut shard = slot.0.lock().expect("shard poisoned");
            if do_hot {
                for _ in 0..DEMOTE_SHARD_BATCH {
                    let Some((_, &victim)) = shard.lru_hot.peek_lru() else {
                        break;
                    };
                    let age = shard
                        .entries
                        .get(&victim)
                        .map(|e| now.wrapping_sub(e.last_touch) as u64)
                        .unwrap_or(0);
                    if age < hot_idle {
                        break;
                    }
                    let tx = shard.tx.clone();
                    match self.demote_hot_locked(&mut shard, victim, tx.as_ref()) {
                        DemoteOutcome::Warm | DemoteOutcome::Spilled => hot_n += 1,
                        DemoteOutcome::Kept => {}
                    }
                }
            }
            if do_warm {
                for _ in 0..DEMOTE_SHARD_BATCH {
                    let Some((_, &victim)) = shard.lru.peek_lru() else {
                        break;
                    };
                    let age = shard
                        .entries
                        .get(&victim)
                        .map(|e| now.wrapping_sub(e.last_touch) as u64)
                        .unwrap_or(0);
                    if age < warm_idle {
                        break;
                    }
                    if !self.evict_one(&mut shard) {
                        break;
                    }
                    self.tel.count(shard_idx, tstat::DEMOTED_WARM, 1);
                    warm_n += 1;
                }
            }
        }
        self.tel.count(0, tstat::DEMOTER_PASSES, 1);
        let pause = t0.elapsed().as_nanos() as u64;
        self.tel.record(top::DEMOTE_PAUSE, pause);
        if self.tel.timing_enabled() {
            self.tel.event(tevent::DEMOTE, hot_n + warm_n, pause);
        }
        if let Some(tr) = self.cfg.tracer.as_deref() {
            // Background span, same idiom as the GC pause: trace 0, no
            // parent, `arg` = pages demoted this pass.
            tr.record(
                0,
                &Span {
                    trace_id: 0,
                    span_id: tr.alloc_span(),
                    parent: 0,
                    op: sop::DEMOTE,
                    tier: strier::NONE,
                    codec: 0,
                    status: 0,
                    start_ns: tr.now_ns(t0),
                    queue_ns: 0,
                    service_ns: pause,
                    arg: hot_n + warm_n,
                },
            );
        }
        (hot_n, warm_n)
    }

    /// Body of the `cc-store-demoter` thread: sleep `demote_interval`
    /// (or until a pressured put kicks the condvar), then run one
    /// [`Self::demote_pass`]. Exits when `shutdown()`/`Drop` sets
    /// `demote_stop`.
    fn demoter_loop(&self) {
        loop {
            let guard = self.demote_stop.lock().expect("demoter stop poisoned");
            if *guard {
                return;
            }
            let (guard, _) = self
                .demote_cv
                .wait_timeout(guard, self.cfg.demote_interval)
                .expect("demoter stop poisoned");
            if *guard {
                return;
            }
            drop(guard);
            self.demote_pass();
        }
    }

    /// Shed coldest entries across shards until `resident` is back at or
    /// under the budget — the repair step after the spill-failure
    /// fallback path pushed it over. Takes one shard lock at a time.
    fn shed_to_budget(&self) {
        loop {
            if self.resident.load(Ordering::Relaxed) <= self.cfg.memory_budget {
                return;
            }
            let mut progress = false;
            for s in &self.shards {
                if self.resident.load(Ordering::Relaxed) <= self.cfg.memory_budget {
                    return;
                }
                let mut guard = s.0.lock().expect("shard poisoned");
                if self.shed_one(&mut guard) {
                    progress = true;
                }
            }
            if !progress {
                // Nothing left to shed (the overshoot is entirely
                // in-flight or already gone); leave the gauge to the
                // next absorb.
                return;
            }
        }
    }

    /// Fold completed writer jobs into the entry maps. A completion only
    /// lands if the entry is still waiting on that exact generation —
    /// replaced-and-respilled keys ignore stale completions, whose bytes
    /// on the file are accounted dead.
    ///
    /// The done-list lock is held across the entire fold (not just the
    /// drain): GC relies on "after my own absorb returns, every committed
    /// offset is published" to take a complete live-extent snapshot, and
    /// releasing the lock before publishing would let a concurrent
    /// absorber (e.g. `flush`) publish a pre-GC offset after GC has
    /// compacted and truncated that region. Lock order is done → shard,
    /// everywhere.
    fn absorb_completed_spills(&self) {
        if !self.has_spill() {
            return;
        }
        let mut over_budget = false;
        let mut done = self.done.lock().expect("done list poisoned");
        for c in done.drain(..) {
            let mut shard = self.shard(c.key);
            let Some(e) = shard.entries.get_mut(&c.key) else {
                // Removed while its write was queued: the write landed
                // anyway (unless it failed) and its bytes are dead.
                if c.offset != SPILL_FAILED {
                    self.spill_dead_bytes
                        .fetch_add(c.len as u64, Ordering::Relaxed);
                }
                continue;
            };
            let data = match &e.residence {
                Residence::Spilling { gen, data } if *gen == c.gen => Arc::clone(data),
                _ => {
                    // Replaced (and possibly re-spilled under a newer
                    // generation) while this write was queued.
                    if c.offset != SPILL_FAILED {
                        self.spill_dead_bytes
                            .fetch_add(c.len as u64, Ordering::Relaxed);
                    }
                    continue;
                }
            };
            if c.offset == SPILL_FAILED {
                // Write failed: fall back to memory residence. This is
                // the one path that may push `resident` past the budget
                // transiently — the alternative is losing the page. The
                // overshoot is counted, and repaired by shedding the
                // coldest entries once the drain completes.
                let handle = shard.lru.push_mru(c.key);
                let bytes = data.len();
                let buf = Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone());
                let e = shard.entries.get_mut(&c.key).expect("just looked up");
                e.residence = Residence::Memory { data: buf, handle };
                let shard_idx = self.shard_index(c.key);
                drop(shard);
                self.tel.count(shard_idx, tstat::SPILL_FALLBACK_RESIDENT, 1);
                self.warm_resident.fetch_add(bytes, Ordering::Relaxed);
                if self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes
                    > self.cfg.memory_budget
                {
                    over_budget = true;
                }
            } else {
                e.residence = Residence::Spilled {
                    offset: c.offset,
                    len: c.len,
                    gen: c.gen,
                };
            }
        }
        drop(done);
        if over_budget {
            // Shed after releasing the done lock: shedding only needs
            // shard locks, and the overshoot window stays bounded by the
            // batches the writer failed while this drain ran.
            self.shed_to_budget();
        }
    }

    fn flush(&self) -> Result<(), StoreError> {
        loop {
            self.absorb_completed_spills();
            let pending = self.shards.iter().any(|s| {
                s.0.lock()
                    .expect("shard poisoned")
                    .entries
                    .values()
                    .any(|e| matches!(e.residence, Residence::Spilling { .. }))
            });
            if !pending {
                // Durability barrier for the journal too: any tombstones
                // queued by removes ride out with the flush, so a crash
                // after a successful flush can never resurrect a key the
                // caller saw removed before the barrier.
                if let Some(p) = &self.persist {
                    let n = p.commit_pending().map_err(StoreError::Io)?;
                    if n > 0 {
                        self.tel.count(0, tstat::JOURNAL_RECORDS_WRITTEN, n);
                    }
                }
                return Ok(());
            }
            if self.writer_dead.load(Ordering::Relaxed) {
                // The writer is gone but jobs are still in flight: their
                // completions will never arrive. Revert them to memory
                // residence (the data is still held by the `Spilling`
                // Arc), restore the budget by shedding, and report the
                // truth instead of spinning forever.
                self.reclaim_orphaned_spilling();
                self.shed_to_budget();
                return Err(StoreError::ShuttingDown);
            }
            std::thread::yield_now();
        }
    }

    /// Convert every `Spilling` entry whose completion can never arrive
    /// (dead writer) back to memory residence. Counted on the same
    /// fallback counter as failed-batch reverts — either way the entry
    /// went back to memory because the medium let it down.
    fn reclaim_orphaned_spilling(&self) {
        // One more absorb first: completions the writer *did* publish
        // before dying must win over the blanket revert.
        self.absorb_completed_spills();
        for s in &self.shards {
            let mut shard = s.0.lock().expect("shard poisoned");
            let orphaned: Vec<u64> = shard
                .entries
                .iter()
                .filter(|(_, e)| matches!(e.residence, Residence::Spilling { .. }))
                .map(|(&k, _)| k)
                .collect();
            for key in orphaned {
                let handle = shard.lru.push_mru(key);
                let e = shard.entries.get_mut(&key).expect("just listed");
                let old = std::mem::replace(&mut e.residence, Residence::SameFilled { pattern: 0 });
                let Residence::Spilling { data, .. } = old else {
                    unreachable!("just filtered")
                };
                let bytes = data.len();
                let buf = Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone());
                e.residence = Residence::Memory { data: buf, handle };
                self.resident.fetch_add(bytes, Ordering::Relaxed);
                self.warm_resident.fetch_add(bytes, Ordering::Relaxed);
                let idx = self.shard_index(key);
                self.tel.count(idx, tstat::SPILL_FALLBACK_RESIDENT, 1);
            }
        }
    }
}

enum Progress {
    Evicted,
    NoVictim,
    Blocked,
}

/// What [`StoreCore::demote_hot_locked`] did with its victim.
enum DemoteOutcome {
    /// Compressed in place to warm residence (freed `orig - sealed`).
    Warm,
    /// Handed to the spill writer (freed the whole raw page).
    Spilled,
    /// Nothing freed and nowhere to spill; cycled to the hot MRU end.
    Kept,
}

/// Per-LRU-list cap on entries each demoter pass inspects per shard —
/// bounds the time a pass holds any one shard lock, so foreground puts
/// and gets never stall behind a long sweep.
const DEMOTE_SHARD_BATCH: usize = 8;

/// How long the writer holds a partially-filled batch open waiting for
/// more jobs. Bounds both the batching opportunity and the extra latency
/// `flush()` can observe for an entry caught mid-batch.
const BATCH_LINGER: Duration = Duration::from_micros(200);

/// The background spill thread: drains the job channel, packs entries
/// into [`StoreConfig::spill_batch_bytes`] batches written with a single
/// positioned write each, and runs spill-file compaction between
/// batches. It is the sole allocator of file space (`cursor`), which is
/// what makes both contiguous batch packing and post-GC cursor reset
/// race-free. It also owns the degraded-mode state machine: consecutive
/// hard batch failures flip the store degraded; while degraded it fails
/// queued jobs immediately (no medium traffic) and probes the medium
/// with a canary round-trip every [`StoreConfig::probe_interval`],
/// re-enabling spill on success.
struct SpillWriter {
    core: Arc<StoreCore>,
    medium: Arc<dyn SpillMedium>,
    cursor: u64,
    /// Hard batch failures (each already retried) since the last
    /// success; crossing `degrade_after` degrades the store.
    consecutive_failures: u32,
    /// Canary probes issued during the current degraded episode.
    probes: u64,
}

/// A job staged into the current batch: its place in the batch buffer
/// plus the identity its completion must carry. `len` is the full
/// extent length (header + payload) as it will live on the file.
struct StagedJob {
    key: u64,
    gen: u64,
    rel: usize,
    len: usize,
    codec: u8,
    /// Uncompressed page length, carried into the journal PUT record.
    orig_len: u32,
    /// Trace context carried over from the [`SpillJob`] (sampled
    /// straight-to-spill puts only).
    ctx: TraceCtx,
    queued: Option<Instant>,
}

impl SpillWriter {
    fn run(mut self, rx: Receiver<SpillJob>) {
        self.run_loop(rx);
        // Channel closed: every queued job has been committed (mpsc
        // drains before disconnecting). Seal the clean-shutdown bit —
        // after the final batch and its journal records are durable,
        // never before.
        self.seal();
    }

    /// Orderly-exit seal: commit any pending tombstones, then write the
    /// superblock with the clean bit, final cursor, and journal tail so
    /// the next open can trust the journal without re-scanning extents.
    /// Best-effort — any failure leaves the file unclean, which is
    /// always safe (recovery just takes the verifying path).
    fn seal(&mut self) {
        let Some(p) = &self.core.persist else { return };
        match p.commit_pending() {
            Ok(n) => {
                if n > 0 {
                    self.core.tel.count(0, tstat::JOURNAL_RECORDS_WRITTEN, n);
                }
            }
            Err(_) => return,
        }
        let page_size = self.core.page_size.load(Ordering::Relaxed) as u32;
        let _ = p.seal_clean(&*self.medium, self.cursor, page_size);
    }

    fn run_loop(&mut self, rx: Receiver<SpillJob>) {
        let target = self.core.cfg.spill_batch_bytes.max(1);
        let mut buf: Vec<u8> = Vec::with_capacity(target * 2);
        let mut staged: Vec<StagedJob> = Vec::new();
        loop {
            if self.core.degraded.load(Ordering::Relaxed) {
                // Probation: producers shed instead of spilling, but
                // jobs queued before the transition (or raced onto it)
                // still arrive — fail them immediately so their pages
                // revert to memory rather than waiting on a medium we
                // don't trust. Between arrivals, probe.
                match rx.recv_timeout(self.core.cfg.probe_interval) {
                    Ok(job) => self.fail_job(job),
                    Err(RecvTimeoutError::Timeout) => self.probe(),
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                continue;
            }
            // Block for the first job of each batch, then coalesce
            // whatever else is queued (lingering briefly for stragglers)
            // into one write.
            let Ok(first) = rx.recv() else { return };
            buf.clear();
            staged.clear();
            Self::stage(&mut buf, &mut staged, first);
            let deadline = Instant::now() + BATCH_LINGER;
            let mut disconnected = false;
            while buf.len() < target {
                match rx.try_recv() {
                    Ok(j) => Self::stage(&mut buf, &mut staged, j),
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                    Err(TryRecvError::Empty) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match rx.recv_timeout(deadline - now) {
                            Ok(j) => Self::stage(&mut buf, &mut staged, j),
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => {
                                disconnected = true;
                                break;
                            }
                        }
                    }
                }
            }
            self.commit_batch(&buf, &staged);
            self.maybe_gc();
            if disconnected {
                return;
            }
        }
    }

    /// Frame `job` into the batch as a self-verifying extent: header
    /// (with the payload CRC, computed here at commit time) + payload.
    fn stage(buf: &mut Vec<u8>, staged: &mut Vec<StagedJob>, job: SpillJob) {
        let rel = buf.len();
        encode_extent(buf, job.gen, job.codec, &job.data);
        staged.push(StagedJob {
            key: job.key,
            gen: job.gen,
            rel,
            len: buf.len() - rel,
            codec: job.codec,
            orig_len: job.orig_len,
            ctx: job.ctx,
            queued: job.queued,
        });
    }

    /// Publish an immediate `SPILL_FAILED` completion for a job received
    /// while degraded.
    fn fail_job(&self, job: SpillJob) {
        let mut done = self.core.done.lock().expect("done list poisoned");
        done.push(Completion {
            key: job.key,
            gen: job.gen,
            offset: SPILL_FAILED,
            len: (job.data.len() + EXTENT_HEADER) as u32,
        });
    }

    /// One canary write/read round-trip at the cursor (unallocated
    /// space: the next batch overwrites it). Success ends probation.
    fn probe(&mut self) {
        self.probes += 1;
        self.core.tel.count(0, tstat::MEDIUM_PROBES, 1);
        let canary = *b"cc-medium-probe!";
        let mut back = [0u8; 16];
        let ok = self.medium.write_at(&canary, self.cursor).is_ok()
            && self.medium.flush().is_ok()
            && self.medium.read_at(&mut back, self.cursor).is_ok()
            && back == canary;
        if ok {
            self.consecutive_failures = 0;
            self.core.exit_degraded(self.probes);
            self.probes = 0;
        }
    }

    /// Write the batch at `base` with bounded retry and exponential
    /// backoff; transient failures are counted as retries.
    fn write_with_retry(&self, buf: &[u8], base: u64) -> bool {
        let attempts = self.core.cfg.spill_retry_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                self.core.tel.count(0, tstat::IO_RETRIES, 1);
                std::thread::sleep(backoff(self.core.cfg.spill_retry_base, attempt));
            }
            if self.medium.write_at(buf, base).is_ok() && self.medium.flush().is_ok() {
                return true;
            }
        }
        false
    }

    /// Write one coalesced batch at the cursor and publish per-entry
    /// completions. Entries become visible as `Spilled` only after the
    /// whole batch is on the file. A hard failure (retries exhausted)
    /// reports `SPILL_FAILED` for every member and advances the
    /// degraded-mode countdown.
    fn commit_batch(&mut self, buf: &[u8], staged: &[StagedJob]) {
        let base = self.cursor;
        // Always timed: this thread is off the data path, and the write
        // histogram is what the bench gates sanity-check.
        let t0 = Instant::now();
        let mut ok = self.write_with_retry(buf, base);
        if ok {
            // Group-commit the location records *after* the data is
            // durable: a journal record must never point at bytes that
            // were not written. If the journal append fails the whole
            // batch fails — the data bytes are orphaned at an
            // unadvanced cursor and the next batch overwrites them.
            ok = self.journal_batch(base, staged);
        }
        if ok {
            self.consecutive_failures = 0;
            self.cursor += buf.len() as u64;
            self.core
                .spill_file_bytes
                .store(self.cursor, Ordering::Relaxed);
            self.core
                .tel
                .record(top::SPILL_WRITE, t0.elapsed().as_nanos() as u64);
            self.core.tel.count(0, tstat::SPILL_BATCHES, 1);
            self.core
                .tel
                .event(tevent::BATCH_COMMIT, staged.len() as u64, buf.len() as u64);
        } else {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.core.cfg.degrade_after.max(1) {
                self.core.enter_degraded(self.consecutive_failures as u64);
            }
        }
        // Spans for sampled members: queue wait (enqueue to batch start)
        // split from service time (the shared batch write).
        if let Some(tr) = self.core.cfg.tracer.as_deref() {
            let write_ns = t0.elapsed().as_nanos() as u64;
            for j in staged.iter().filter(|j| j.ctx.sampled()) {
                let queue_ns = j
                    .queued
                    .map_or(0, |q| t0.saturating_duration_since(q).as_nanos() as u64);
                tr.record(
                    0,
                    &Span {
                        trace_id: j.ctx.trace_id,
                        span_id: tr.alloc_span(),
                        parent: j.ctx.parent_span,
                        op: sop::SPILL_WRITE,
                        tier: strier::SPILL,
                        codec: j.codec,
                        status: !ok as u8,
                        start_ns: tr.now_ns(t0),
                        queue_ns,
                        service_ns: write_ns,
                        arg: if ok { base + j.rel as u64 } else { j.key },
                    },
                );
            }
        }
        let mut done = self.core.done.lock().expect("done list poisoned");
        for j in staged {
            // A failed batch reports SPILL_FAILED for every member: the
            // store reverts those entries to memory residence rather than
            // losing data or hanging `flush` on completions that never
            // come.
            let offset = if ok {
                base + j.rel as u64
            } else {
                SPILL_FAILED
            };
            done.push(Completion {
                key: j.key,
                gen: j.gen,
                offset,
                len: j.len as u32,
            });
        }
    }

    /// Append one journal PUT record per staged job, plus any tombstones
    /// queued by foreground removes, in a single group-committed write.
    /// Returns `true` on success (or when the store is not persistent).
    fn journal_batch(&self, base: u64, staged: &[StagedJob]) -> bool {
        let Some(p) = &self.core.persist else {
            return true;
        };
        let puts: Vec<JournalRecord> = staged
            .iter()
            .map(|j| JournalRecord {
                kind: jkind::PUT,
                lsn: j.gen,
                key: j.key,
                offset: base + j.rel as u64,
                len: j.len as u32,
                orig_len: j.orig_len,
                codec: j.codec,
            })
            .collect();
        match p.append_commit(&puts) {
            Ok(n) => {
                self.core.tel.count(0, tstat::JOURNAL_RECORDS_WRITTEN, n);
                true
            }
            Err(_) => false,
        }
    }

    /// Compact the spill file if enough of it is dead. Runs between
    /// batches on this thread — the sole producer of completions and the
    /// sole writer of the file — which is what makes the live-extent
    /// snapshot complete and the cursor reset safe.
    ///
    /// Persistent stores add a crash discipline on top: each move
    /// journals a relocation record *before* the copy that might clobber
    /// an earlier extent's old home, a destination is never allowed to
    /// overlap its own source (the old copy stays the fallback until the
    /// new one is provably complete), and the file is truncated only
    /// after every relocation is journaled. A crash at any byte of the
    /// sweep therefore resolves every extent to exactly one valid copy.
    fn maybe_gc(&mut self) {
        let dead = self.core.spill_dead_bytes.load(Ordering::Relaxed);
        let min_dead = self.core.cfg.spill_batch_bytes.max(1) as u64;
        // Persistent files reserve the superblock region below the data;
        // compaction packs down to that floor, never into it.
        let floor = if self.core.persist.is_some() {
            SUPERBLOCK_RESERVED
        } else {
            0
        };
        if self.cursor <= floor || dead < min_dead {
            return;
        }
        if (dead as f64) < self.core.cfg.gc_dead_ratio * (self.cursor - floor) as f64 {
            return;
        }
        // Absorb pending completions first: entries only become `Spilled`
        // through completions, no new ones can appear while this thread
        // is sweeping, and absorb holds the done-list lock across its
        // publishes — so once this call returns, no other absorber is
        // mid-publish and the snapshot below sees every live extent.
        self.core.absorb_completed_spills();
        // Pause clock + relocation meter: the paper's cleaner cost, the
        // modern system's GC stall. Always timed (writer thread).
        let t0 = Instant::now();
        let mut moved = 0u64;
        let mut extents: Vec<(u64, u64, u32, u64, u8, u32)> = Vec::new();
        for s in &self.core.shards {
            let guard = s.0.lock().expect("shard poisoned");
            for (&k, e) in &guard.entries {
                if let Residence::Spilled { offset, len, gen } = e.residence {
                    extents.push((k, offset, len, gen, e.codec, e.orig_len));
                }
            }
        }
        extents.sort_unstable_by_key(|&(_, off, ..)| off);
        let old_len = self.cursor;
        let mut new_cursor = floor;
        let mut buf = Vec::new();
        // Post-sweep location of every surviving extent — the snapshot a
        // journal compaction rewrites the map file from.
        let mut live: Vec<JournalRecord> = Vec::new();
        for (key, old_off, len, gen, codec, orig_len) in extents {
            let record = |offset: u64| JournalRecord {
                kind: jkind::PUT,
                lsn: gen,
                key,
                offset,
                len,
                orig_len,
                codec,
            };
            if old_off == new_cursor {
                // Already compact; nothing to move.
                new_cursor += len as u64;
                live.push(record(old_off));
                continue;
            }
            if floor != 0 && new_cursor + len as u64 > old_off {
                // Persistent non-overlap rule: the destination would
                // reach into the source, destroying the only valid copy
                // before the new one is complete. Leave it in place and
                // accept the gap — a later pass, with more dead space
                // ahead of it, will move it cleanly.
                new_cursor = old_off + len as u64;
                live.push(record(old_off));
                continue;
            }
            buf.resize(len as usize, 0);
            if self.medium.read_at(&mut buf, old_off).is_err() {
                // Abort mid-GC: extents moved so far are already
                // republished and valid; the rest stay where they were.
                return;
            }
            // Copy + republish under the owning shard's lock. A reader
            // validates its (offset, len, gen) snapshot under this same
            // lock *after* its file read, so it can never accept bytes a
            // compaction write clobbered: any clobber of a region implies
            // the extent that lived there was republished first.
            let mut shard = self.core.shard(key);
            let Some(e) = shard.entries.get_mut(&key) else {
                continue; // removed since the snapshot: now dead, skip
            };
            match &mut e.residence {
                Residence::Spilled {
                    offset,
                    len: l,
                    gen: g,
                } if *offset == old_off && *l == len && *g == gen => {
                    // Relocate verbatim, corrupt or not: a live extent
                    // must keep a unique home (skipping it would let a
                    // later relocation clobber it), and the reader's
                    // verification is the integrity authority.
                    //
                    // Persistent: journal the relocation *before* the
                    // copy. Writes hit the platter in issue order under
                    // the power-loss model, so by the time this copy can
                    // clobber an earlier extent's old home, that earlier
                    // extent's own copy and RELOC record are both ahead
                    // of it in the stream — recovery always finds one
                    // valid copy (new if the copy landed, old otherwise,
                    // via the record's previous-offset fallback).
                    if let Some(p) = &self.core.persist {
                        let reloc = JournalRecord {
                            kind: jkind::RELOC,
                            lsn: gen,
                            key,
                            offset: new_cursor,
                            len,
                            orig_len,
                            codec,
                        };
                        match p.append_commit(&[reloc]) {
                            Ok(n) => {
                                self.core.tel.count(0, tstat::JOURNAL_RECORDS_WRITTEN, n);
                            }
                            // Journal down: stop relocating. Everything
                            // moved so far is journaled and republished;
                            // the rest stays put. No truncation.
                            Err(_) => return,
                        }
                    }
                    if self.medium.write_at(&buf, new_cursor).is_err() {
                        return;
                    }
                    *offset = new_cursor;
                    live.push(record(new_cursor));
                    new_cursor += len as u64;
                    moved += len as u64;
                }
                // Replaced since the snapshot: its bytes are dead, skip.
                _ => {}
            }
        }
        let _ = self.medium.flush();
        let _ = self.medium.set_len(new_cursor);
        self.cursor = new_cursor;
        let reclaimed = old_len - new_cursor;
        // Saturating: removes racing the sweep may have counted bytes this
        // pass already reclaimed.
        let _ =
            self.core
                .spill_dead_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                    Some(d.saturating_sub(reclaimed))
                });
        self.core
            .spill_file_bytes
            .store(new_cursor, Ordering::Relaxed);
        let pause = t0.elapsed().as_nanos() as u64;
        self.core.tel.record(top::GC_PAUSE, pause);
        self.core.tel.count(0, tstat::GC_RUNS, 1);
        self.core.tel.count(0, tstat::GC_BYTES_RELOCATED, moved);
        self.core.tel.event(tevent::GC_RUN, moved, pause);
        if let Some(tr) = self.core.cfg.tracer.as_deref() {
            // Background span: no request trace owns a GC run.
            tr.record(
                0,
                &Span {
                    trace_id: 0,
                    span_id: tr.alloc_span(),
                    parent: 0,
                    op: sop::GC,
                    tier: strier::SPILL,
                    codec: 0,
                    status: 0,
                    start_ns: tr.now_ns(t0),
                    queue_ns: 0,
                    service_ns: pause,
                    arg: moved,
                },
            );
            if pause > tr.gc_pause_threshold().as_nanos() as u64 {
                tr.anomaly(AnomalyKind::GcPause, 0, moved, pause);
            }
        }
        // The sweep shrank the data file and `live` is a complete
        // post-sweep location snapshot — the one moment a journal
        // compaction (rewriting the map file from the snapshot instead
        // of its full history) is both cheap and obviously correct.
        if let Some(p) = &self.core.persist {
            let page_size = self.core.page_size.load(Ordering::Relaxed) as u32;
            if let Ok(true) = p.maybe_compact(&*self.medium, new_cursor, page_size, &live) {
                self.core.tel.count(0, tstat::JOURNAL_COMPACTIONS, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(tag: u8) -> Vec<u8> {
        let mut p = vec![0u8; 4096];
        for (i, b) in p.iter_mut().enumerate() {
            *b = tag.wrapping_add((i / 97) as u8);
        }
        p
    }

    fn temp_path(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("ccstore-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        (dir.clone(), dir.join("spill.bin"))
    }

    fn cleanup(dir: std::path::PathBuf, path: std::path::PathBuf) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir(dir);
    }

    #[test]
    fn extent_header_roundtrip_and_tamper_detection() {
        let payload: Vec<u8> = (0..777u32).map(|i| (i * 13 % 251) as u8).collect();
        let codec = CodecId::Lzrw1.as_u8();
        let mut ext = Vec::new();
        encode_extent(&mut ext, 42, codec, &payload);
        assert_eq!(ext.len(), EXTENT_HEADER + payload.len());
        assert!(verify_extent(&ext, 42, codec));
        assert_eq!(&ext[EXTENT_HEADER..], &payload[..]);
        // Wrong generation: a stale or misdirected read.
        assert!(!verify_extent(&ext, 43, codec));
        // Wrong codec: the entry and the extent disagree about how the
        // payload was sealed — never decode.
        assert!(!verify_extent(&ext, 42, CodecId::Bdi.as_u8()));
        // Truncated extent (torn write).
        assert!(!verify_extent(&ext[..ext.len() - 1], 42, codec));
        assert!(!verify_extent(&ext[..EXTENT_HEADER - 1], 42, codec));
        // Any single bit flip — header (including the codec byte and its
        // padding) or payload — is caught.
        let mut tampered = ext.clone();
        for byte in 0..ext.len() {
            for bit in 0..8 {
                tampered[byte] ^= 1 << bit;
                assert!(
                    !verify_extent(&tampered, 42, codec),
                    "flip at {byte}:{bit} undetected"
                );
                tampered[byte] ^= 1 << bit;
            }
        }
        assert_eq!(tampered, ext);
    }

    /// Regression (format versioning): a PR 5-era extent — 20-byte header
    /// without a codec id, CRC over the payload only, magic `..E001` —
    /// must be rejected outright, not misdecoded with a guessed codec.
    #[test]
    fn old_format_extent_is_rejected_as_corrupt() {
        let payload: Vec<u8> = (0..777u32).map(|i| (i * 13 % 251) as u8).collect();
        let gen = 42u64;
        let mut v1 = Vec::new();
        v1.extend_from_slice(&0xCC5E_E001u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&gen.to_le_bytes());
        v1.extend_from_slice(&cc_util::crc32(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        for codec in 0..=u8::MAX {
            assert!(
                !verify_extent(&v1, gen, codec),
                "v1 extent accepted under codec {codec}"
            );
        }
    }

    /// A page of 8-byte words clustered near one base — the BDI sweet
    /// spot (pointer-array-like data that LZRW1 handles poorly).
    fn bdi_page(tag: u8) -> Vec<u8> {
        let base = 0x7f00_dead_0000u64 + ((tag as u64) << 16);
        let mut p = Vec::with_capacity(4096);
        for i in 0..512u64 {
            p.extend_from_slice(&(base + (i * 37 + tag as u64 * 11) % 120).to_le_bytes());
        }
        p
    }

    #[test]
    fn adaptive_policy_routes_bdi_pages_and_falls_back() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        assert_eq!(store.core.cfg.codec_policy, CodecPolicy::Adaptive);
        let mut out = vec![0u8; 4096];
        // Word-patterned pages go through BDI...
        for k in 0..16u64 {
            store.put(k, &bdi_page(k as u8)).unwrap();
        }
        // ...while byte-ramp pages (not BDI-able) take LZRW1.
        for k in 16..32u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.puts_bdi, 16, "{s:?}");
        assert_eq!(s.puts_lzrw1, 16, "{s:?}");
        // BDI packs 512 clustered words into ~523 bytes.
        assert!(s.bdi_out_bytes < s.bdi_in_bytes / 4, "{s:?}");
        for k in 0..16u64 {
            assert!(store.get(k, &mut out).unwrap());
            assert_eq!(out, bdi_page(k as u8), "key {k}");
        }
        for k in 16..32u64 {
            assert!(store.get(k, &mut out).unwrap());
            assert_eq!(out, page(k as u8), "key {k}");
        }
    }

    #[test]
    fn codec_policy_pins_the_codec() {
        let mut out = vec![0u8; 4096];
        // lzrw1-only never runs BDI, even on its best-case input.
        let store = CompressedStore::new(
            StoreConfig::in_memory(1 << 20).with_codec_policy(CodecPolicy::Lzrw1Only),
        );
        for k in 0..8u64 {
            store.put(k, &bdi_page(k as u8)).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.puts_bdi, 0, "{s:?}");
        assert!(s.puts_lzrw1 + s.stored_raw == 8, "{s:?}");
        for k in 0..8u64 {
            assert!(store.get(k, &mut out).unwrap());
            assert_eq!(out, bdi_page(k as u8), "key {k}");
        }
        // bdi-only runs BDI everywhere; non-BDI-able pages degrade to
        // stored-raw inside the BDI stream but still roundtrip.
        let store = CompressedStore::new(
            StoreConfig::in_memory(1 << 20).with_codec_policy(CodecPolicy::BdiOnly),
        );
        for k in 0..8u64 {
            store.put(k, &bdi_page(k as u8)).unwrap();
        }
        store.put(99, &page(7)).unwrap();
        let s = store.stats();
        assert_eq!(s.puts_lzrw1, 0, "{s:?}");
        assert_eq!(s.puts_bdi, 8, "{s:?}");
        for k in 0..8u64 {
            assert!(store.get(k, &mut out).unwrap());
            assert_eq!(out, bdi_page(k as u8), "key {k}");
        }
        assert!(store.get(99, &mut out).unwrap());
        assert_eq!(out, page(7));
    }

    #[test]
    fn codec_id_survives_spill_and_gc() {
        let (dir, path) = temp_path("codecid");
        {
            // Tiny budget + tiny batches + aggressive GC: BDI-sealed
            // extents are spilled, relocated by compaction, and must still
            // decode with the codec recorded at seal time.
            let store = CompressedStore::new(
                StoreConfig::with_spill(4 * 1024, &path)
                    .with_spill_batch_bytes(2 * 1024)
                    .with_gc_dead_ratio(0.3),
            );
            const KEYS: u64 = 24;
            let mut last_round = 0u64;
            for round in 0..200u64 {
                for k in 0..KEYS {
                    // Mix codecs so relocated batches carry both ids.
                    if k % 2 == 0 {
                        store.put(k, &bdi_page((k + round) as u8)).unwrap();
                    } else {
                        store.put(k, &page((k + round) as u8)).unwrap();
                    }
                }
                last_round = round;
                if round >= 39 {
                    store.flush().unwrap();
                    if store.stats().gc_runs > 0 {
                        break;
                    }
                }
            }
            let s = store.stats();
            assert!(s.gc_runs > 0, "churn never triggered GC: {s:?}");
            assert!(s.puts_bdi > 0 && s.puts_lzrw1 > 0, "{s:?}");
            let mut out = vec![0u8; 4096];
            let mut disk_hits = 0;
            for k in 0..KEYS {
                let tier = store.get_tier(k, &mut out).unwrap();
                assert!(tier.is_some(), "key {k} lost");
                let want = if k % 2 == 0 {
                    bdi_page((k + last_round) as u8)
                } else {
                    page((k + last_round) as u8)
                };
                assert_eq!(out, want, "key {k} corrupted");
                if tier == Some(HitTier::Spill) {
                    disk_hits += 1;
                }
            }
            assert!(disk_hits > 0, "nothing read back from disk: {s:?}");
            assert_eq!(store.stats().corrupt_detected, 0);
        }
        cleanup(dir, path);
    }

    #[test]
    fn put_get_roundtrip() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        for k in 0..32u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        let mut out = vec![0u8; 4096];
        for k in 0..32u64 {
            assert!(store.get(k, &mut out).unwrap());
            assert_eq!(out, page(k as u8), "key {k}");
        }
        assert!(!store.get(999, &mut out).unwrap());
        let s = store.stats();
        assert_eq!(s.compressed, 32);
        assert_eq!(s.misses, 1);
        assert!(s.resident_bytes > 0 && s.resident_bytes < 32 * 4096);
    }

    #[test]
    fn replace_and_remove() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        store.put(1, &page(1)).unwrap();
        store.put(1, &page(2)).unwrap();
        let mut out = vec![0u8; 4096];
        store.get(1, &mut out).unwrap();
        assert_eq!(out, page(2));
        assert!(store.remove(1));
        assert!(!store.remove(1));
        assert!(store.is_empty());
        assert_eq!(store.stats().resident_bytes, 0);
    }

    #[test]
    fn raw_pages_counted_and_returned() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        let mut rng = cc_util::SplitMix64::new(5);
        let noise: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        store.put(7, &noise).unwrap();
        assert_eq!(store.stats().stored_raw, 1);
        let mut out = vec![0u8; 4096];
        assert!(store.get(7, &mut out).unwrap());
        assert_eq!(out, noise);
    }

    #[test]
    fn out_of_memory_without_spill() {
        let store = CompressedStore::new(StoreConfig::in_memory(2048));
        let mut rng = cc_util::SplitMix64::new(9);
        let noise: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        let err = store.put(1, &noise).unwrap_err();
        assert!(matches!(err, StoreError::OutOfMemory));
    }

    #[test]
    fn page_size_is_enforced() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        store.put(1, &page(1)).unwrap();
        let err = store.put(2, &vec![0u8; 2048]).unwrap_err();
        assert!(matches!(err, StoreError::BadPageSize { .. }));
    }

    #[test]
    fn shard_count_resolves_to_power_of_two() {
        for (requested, expect) in [(1, 1), (2, 2), (3, 4), (8, 8), (9, 16)] {
            let store =
                CompressedStore::new(StoreConfig::in_memory(1 << 20).with_shards(requested));
            assert_eq!(store.shard_count(), expect, "requested {requested}");
        }
        let auto = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        assert!(auto.shard_count().is_power_of_two());
    }

    #[test]
    fn single_shard_still_works() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20).with_shards(1));
        for k in 0..64u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        let mut out = vec![0u8; 4096];
        for k in 0..64u64 {
            assert!(store.get(k, &mut out).unwrap());
            assert_eq!(out, page(k as u8));
        }
    }

    #[test]
    fn same_filled_detection() {
        // Repeated word, any alignment of content.
        assert_eq!(same_filled_pattern(&[0u8; 4096]), Some(0));
        let word = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let repeated: Vec<u8> = word.iter().copied().cycle().take(4096).collect();
        assert_eq!(
            same_filled_pattern(&repeated),
            Some(u64::from_ne_bytes(word))
        );
        // Length not a multiple of the word: tail must match the prefix.
        let odd: Vec<u8> = word.iter().copied().cycle().take(4093).collect();
        assert_eq!(same_filled_pattern(&odd), Some(u64::from_ne_bytes(word)));
        let mut bad_tail = odd.clone();
        *bad_tail.last_mut().unwrap() ^= 1;
        assert_eq!(same_filled_pattern(&bad_tail), None);
        // One byte off anywhere defeats the pattern.
        let mut near = repeated.clone();
        near[2048] ^= 0x80;
        assert_eq!(same_filled_pattern(&near), None);
        // Shorter than a word: all-equal qualifies.
        assert_eq!(
            same_filled_pattern(&[9u8; 5]),
            Some(u64::from_ne_bytes([9; 8]))
        );
        assert_eq!(same_filled_pattern(&[9, 9, 8, 9, 9]), None);
        assert_eq!(same_filled_pattern(&[]), None);
    }

    #[test]
    fn same_filled_pages_bypass_compressor_and_budget() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        store.put(1, &vec![0u8; 4096]).unwrap();
        store.put(2, &vec![0xABu8; 4096]).unwrap();
        let word: Vec<u8> = [1u8, 2, 3, 4, 5, 6, 7, 8]
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        store.put(3, &word).unwrap();
        let s = store.stats();
        assert_eq!(s.same_filled, 3);
        assert_eq!(s.compressed, 0);
        assert_eq!(s.resident_bytes, 0, "same-filled pages cost no budget");
        let mut out = vec![0u8; 4096];
        assert_eq!(
            store.get_tier(1, &mut out).unwrap(),
            Some(HitTier::SameFilled)
        );
        assert_eq!(out, vec![0u8; 4096]);
        assert!(store.get(2, &mut out).unwrap());
        assert_eq!(out, vec![0xABu8; 4096]);
        assert!(store.get(3, &mut out).unwrap());
        assert_eq!(out, word);
        // Replacing a same-filled page with a normal one and back works.
        store.put(1, &page(5)).unwrap();
        assert!(store.get(1, &mut out).unwrap());
        assert_eq!(out, page(5));
        store.put(1, &vec![7u8; 4096]).unwrap();
        assert_eq!(
            store.get_tier(1, &mut out).unwrap(),
            Some(HitTier::SameFilled)
        );
        assert_eq!(out, vec![7u8; 4096]);
    }

    #[test]
    fn same_filled_odd_page_size_roundtrip() {
        // 1021 is not a multiple of 8: the pattern tail is partial.
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        let word = [0xDEu8, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4];
        let pg: Vec<u8> = word.iter().copied().cycle().take(1021).collect();
        store.put(1, &pg).unwrap();
        assert_eq!(store.stats().same_filled, 1);
        let mut out = vec![0u8; 1021];
        assert_eq!(
            store.get_tier(1, &mut out).unwrap(),
            Some(HitTier::SameFilled)
        );
        assert_eq!(out, pg);
        // A near-pattern of the same size takes the compressor path.
        let mut near = pg.clone();
        near[500] ^= 1;
        store.put(2, &near).unwrap();
        let s = store.stats();
        assert_eq!(s.same_filled, 1);
        assert_eq!(s.compressed + s.stored_raw, 1);
        assert!(store.get(2, &mut out).unwrap());
        assert_eq!(out, near);
    }

    #[test]
    fn spills_to_file_and_reads_back() {
        let (dir, path) = temp_path("test");
        {
            // Budget fits only a handful of compressed pages.
            let store = CompressedStore::new(StoreConfig::with_spill(8 * 1024, &path));
            for k in 0..64u64 {
                store.put(k, &page(k as u8)).unwrap();
            }
            store.flush().unwrap();
            let s = store.stats();
            assert!(s.spilled > 0, "must have spilled: {s:?}");
            assert!(s.resident_bytes <= 8 * 1024);
            assert!(s.spill_batches > 0, "spills imply batches: {s:?}");
            assert!(s.bytes_on_spill > 0);
            let mut out = vec![0u8; 4096];
            for k in 0..64u64 {
                assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
                assert_eq!(out, page(k as u8), "key {k} corrupted");
            }
            assert!(store.stats().hits_spill > 0);
        }
        cleanup(dir, path);
    }

    #[test]
    fn spill_batches_coalesce_entries() {
        let (dir, path) = temp_path("batch");
        {
            // Budget of ~2 compressed pages: nearly every put evicts, and
            // the single-threaded put loop outruns the 200 µs linger, so
            // the writer must pack multiple entries per batch.
            let store = CompressedStore::new(StoreConfig::with_spill(4 * 1024, &path));
            for k in 0..256u64 {
                store.put(k, &page(k as u8)).unwrap();
            }
            store.flush().unwrap();
            let s = store.stats();
            assert!(s.spilled >= 200, "expected heavy spilling: {s:?}");
            let per_batch = s.spilled as f64 / s.spill_batches.max(1) as f64;
            assert!(
                per_batch >= 2.0,
                "writer failed to coalesce: {} spills in {} batches",
                s.spilled,
                s.spill_batches
            );
            let mut out = vec![0u8; 4096];
            for k in 0..256u64 {
                assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
                assert_eq!(out, page(k as u8), "key {k} corrupted");
            }
        }
        cleanup(dir, path);
    }

    #[test]
    fn flush_makes_partial_batch_readable() {
        let (dir, path) = temp_path("midbatch");
        {
            // A batch target far larger than the data guarantees the
            // entries sit in a partially-filled batch; flush() must still
            // make them durable and readable.
            let store = CompressedStore::new(
                StoreConfig::with_spill(4 * 1024, &path).with_spill_batch_bytes(1 << 20),
            );
            for k in 0..8u64 {
                store.put(k, &page(k as u8)).unwrap();
            }
            store.flush().unwrap();
            let s = store.stats();
            assert!(s.spilled > 0, "must have spilled: {s:?}");
            // After flush, nothing is mid-air: every spilled entry must be
            // servable from the file.
            let mut out = vec![0u8; 4096];
            let mut disk_hits = 0;
            for k in 0..8u64 {
                let tier = store.get_tier(k, &mut out).unwrap();
                assert!(tier.is_some(), "key {k} lost");
                assert_eq!(out, page(k as u8), "key {k} corrupted");
                if tier == Some(HitTier::Spill) {
                    disk_hits += 1;
                }
            }
            assert!(disk_hits > 0, "flush left no entries on disk: {s:?}");
        }
        cleanup(dir, path);
    }

    #[test]
    fn remove_and_replace_account_dead_bytes() {
        let (dir, path) = temp_path("dead");
        {
            // GC disabled so the gauge is observable without compaction.
            let store = CompressedStore::new(
                StoreConfig::with_spill(4 * 1024, &path).with_gc_dead_ratio(1e9),
            );
            for k in 0..32u64 {
                store.put(k, &page(k as u8)).unwrap();
            }
            store.flush().unwrap();
            assert_eq!(store.stats().spill_dead_bytes, 0);
            // Removing spilled entries strands their extents.
            for k in 0..8u64 {
                assert!(store.remove(k));
            }
            let after_remove = store.stats().spill_dead_bytes;
            assert!(after_remove > 0, "removes must strand dead bytes");
            // Replacing spilled entries strands their old extents too.
            for k in 8..16u64 {
                store.put(k, &page(100 + k as u8)).unwrap();
            }
            store.flush().unwrap();
            let after_replace = store.stats().spill_dead_bytes;
            assert!(
                after_replace > after_remove,
                "replaces must strand dead bytes: {after_remove} -> {after_replace}"
            );
        }
        cleanup(dir, path);
    }

    #[test]
    fn gc_compacts_dead_space_and_preserves_data() {
        let (dir, path) = temp_path("gc");
        {
            // Tiny batches + aggressive ratio so compaction triggers
            // repeatedly under replace churn.
            let store = CompressedStore::new(
                StoreConfig::with_spill(4 * 1024, &path)
                    .with_spill_batch_bytes(2 * 1024)
                    .with_gc_dead_ratio(0.3),
            );
            const KEYS: u64 = 24;
            let mut total_spilled_bytes = 0u64;
            let mut last_round = 0u64;
            // 40 rounds of whole-keyspace replacement normally trigger
            // several GC passes, but on a loaded host the writer can lag:
            // queued spill jobs are superseded before they commit, so no
            // dead bytes strand and the trigger never fires. Flushing
            // between extra rounds forces the writer to catch up, making
            // the next round's replaces strand real extents — bounded so
            // a genuinely broken trigger still fails.
            for round in 0..200u64 {
                for k in 0..KEYS {
                    store.put(k, &page((k + round) as u8)).unwrap();
                    total_spilled_bytes += 1024; // rough lower bound per put
                }
                last_round = round;
                if round >= 39 {
                    store.flush().unwrap();
                    if store.stats().gc_runs > 0 {
                        break;
                    }
                }
            }
            let s = store.stats();
            assert!(s.gc_runs > 0, "churn never triggered GC: {s:?}");
            // The file must stay near the live working set, far below the
            // total bytes ever written through it.
            assert!(
                s.bytes_on_spill < total_spilled_bytes / 4,
                "file not compacted: {} bytes on spill, ~{} written",
                s.bytes_on_spill,
                total_spilled_bytes
            );
            // Every key survives compaction with its latest contents.
            let mut out = vec![0u8; 4096];
            for k in 0..KEYS {
                assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
                assert_eq!(out, page((k + last_round) as u8), "key {k} corrupted");
            }
            // The on-disk file really is the size the gauge reports.
            let fs_len = std::fs::metadata(&path).unwrap().len();
            let s = store.stats();
            assert!(
                fs_len <= s.bytes_on_spill + store.core.cfg.spill_batch_bytes as u64 * 2,
                "fs={fs_len} gauge={}",
                s.bytes_on_spill
            );
        }
        cleanup(dir, path);
    }

    #[test]
    fn telemetry_snapshot_covers_tiers_and_events() {
        let (dir, path) = temp_path("tel");
        {
            let store = CompressedStore::new(
                StoreConfig::with_spill(8 * 1024, &path).with_spill_batch_bytes(2 * 1024),
            );
            for k in 0..64u64 {
                store.put(k, &page(k as u8)).unwrap();
            }
            store.put(100, &vec![0u8; 4096]).unwrap();
            store.flush().unwrap();
            let mut out = vec![0u8; 4096];
            for k in 0..64u64 {
                assert!(store.get(k, &mut out).unwrap());
            }
            assert_eq!(
                store.get_tier(100, &mut out).unwrap(),
                Some(HitTier::SameFilled)
            );
            assert!(!store.get(999, &mut out).unwrap());

            let snap = store.telemetry_snapshot();
            assert_eq!(snap.counter("compressed"), Some(64));
            assert_eq!(snap.counter("same_filled"), Some(1));
            assert_eq!(snap.counter("misses"), Some(1));
            assert_eq!(snap.op("put").unwrap().count, 65);
            assert!(snap.op("get_memory").unwrap().count > 0);
            assert_eq!(snap.op("get_same_filled").unwrap().count, 1);
            assert!(snap.op("get_spill").unwrap().count > 0, "{snap:?}");
            assert!(snap.op("spill_write").unwrap().count > 0);
            assert!(snap.op("spill_read").unwrap().count > 0);
            assert!(snap.event_count("batch_commit").unwrap() > 0);
            assert!(snap.event_count("evict").unwrap() > 0);
            assert!(!snap.recent.is_empty());
            let g = snap.op("get_spill").unwrap();
            assert!(g.p50 <= g.p99 && g.p99 <= g.max, "{g:?}");
            assert!(snap.gauges.iter().any(|(n, _)| *n == "bytes_on_spill"));
            // Stats and telemetry are the same counters, not two books.
            let s = store.stats();
            assert_eq!(s.compressed, 64);
            assert_eq!(s.hits_spill, snap.counter("hits_spill").unwrap());
        }
        cleanup(dir, path);
    }

    #[test]
    fn telemetry_disabled_keeps_stats_exact() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20).with_telemetry(false));
        for k in 0..16u64 {
            store.put(k, &page(k as u8)).unwrap();
        }
        let mut out = vec![0u8; 4096];
        for k in 0..16u64 {
            assert!(store.get(k, &mut out).unwrap());
        }
        let s = store.stats();
        assert_eq!(s.compressed, 16);
        assert_eq!(s.hits_memory, 16);
        let snap = store.telemetry_snapshot();
        assert_eq!(snap.op("put").unwrap().count, 0, "sampling must be off");
        assert_eq!(snap.counter("compressed"), Some(16), "counters stay live");
        assert_eq!(snap.event_count("evict"), Some(0));
    }

    #[test]
    fn shutdown_then_reads_still_work() {
        let (dir, path) = temp_path("shut");
        {
            let store = CompressedStore::new(StoreConfig::with_spill(8 * 1024, &path));
            for k in 0..32u64 {
                store.put(k, &page(k as u8)).unwrap();
            }
            store.shutdown();
            let mut out = vec![0u8; 4096];
            for k in 0..32u64 {
                assert!(store.get(k, &mut out).unwrap(), "key {k} lost");
                assert_eq!(out, page(k as u8));
            }
        }
        cleanup(dir, path);
    }

    #[test]
    fn concurrent_threads_round_trip() {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(64 << 20)));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let base = t * 10_000;
                let mut out = vec![0u8; 4096];
                for i in 0..500u64 {
                    let key = base + i;
                    store.put(key, &page((key % 251) as u8)).unwrap();
                    // Read back a key written earlier by this thread.
                    let probe = base + i / 2;
                    assert!(store.get(probe, &mut out).unwrap());
                    assert_eq!(out, page((probe % 251) as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 8 * 500);
    }

    #[test]
    fn concurrent_with_spill_pressure() {
        let (dir, path) = temp_path("mt");
        {
            let store = Arc::new(CompressedStore::new(StoreConfig::with_spill(
                16 * 1024,
                &path,
            )));
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let store = Arc::clone(&store);
                handles.push(std::thread::spawn(move || {
                    let base = t * 1000;
                    let mut out = vec![0u8; 4096];
                    for i in 0..200u64 {
                        store
                            .put(base + i, &page(((base + i) % 251) as u8))
                            .unwrap();
                        if i % 3 == 0 {
                            let probe = base + i / 2;
                            assert!(store.get(probe, &mut out).unwrap(), "{probe}");
                            assert_eq!(out, page((probe % 251) as u8));
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            store.flush().unwrap();
            let mut out = vec![0u8; 4096];
            for t in 0..4u64 {
                for i in 0..200u64 {
                    let key = t * 1000 + i;
                    assert!(store.get(key, &mut out).unwrap(), "key {key} lost");
                    assert_eq!(out, page((key % 251) as u8), "key {key} corrupted");
                }
            }
        }
        cleanup(dir, path);
    }

    #[test]
    fn page_size_exposed_after_first_put() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        assert_eq!(store.page_size(), None);
        store.put(1, &page(1)).unwrap();
        assert_eq!(store.page_size(), Some(4096));
    }

    #[test]
    fn put_after_shutdown_fails_instead_of_panicking() {
        let (dir, path) = temp_path("shutdown-put");
        {
            // Budget of ~1 compressed page: puts beyond the first must
            // go through the (stopped) spill writer.
            let store = CompressedStore::new(StoreConfig::with_spill(4 * 1024, &path));
            for k in 0..16u64 {
                store.put(k, &page(k as u8)).unwrap();
            }
            store.shutdown();
            // Reads keep working after shutdown.
            let mut out = vec![0u8; 4096];
            assert!(store.get(3, &mut out).unwrap());
            assert_eq!(out, page(3));
            // A put that needs the writer reports ShuttingDown.
            let mut err = None;
            for k in 100..164u64 {
                if let Err(e) = store.put(k, &page(k as u8)) {
                    err = Some(e);
                    break;
                }
            }
            assert!(
                matches!(err, Some(StoreError::ShuttingDown)),
                "expected ShuttingDown, got {err:?}"
            );
        }
        cleanup(dir, path);
    }

    /// An incompressible page (uniform noise) — the tier policies send
    /// these hot because compressing them buys nothing.
    fn noise_page(seed: u64) -> Vec<u8> {
        let mut rng = cc_util::SplitMix64::new(seed.wrapping_mul(2) + 1);
        (0..4096).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn incompressible_puts_land_hot_and_hit_without_decode() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        let mut out = vec![0u8; 4096];
        for k in 0..8u64 {
            store.put(k, &noise_page(k)).unwrap();
        }
        let s = store.stats();
        // The put still ran the compressor (threshold counters are tier-
        // independent); the raw bytes are what got kept.
        assert_eq!(s.puts_hot, 8, "{s:?}");
        assert_eq!(s.stored_raw, 8, "{s:?}");
        assert_eq!(s.hot_bytes, 8 * 4096, "{s:?}");
        assert_eq!(s.warm_bytes, 0, "{s:?}");
        assert_eq!(s.hot_bytes + s.warm_bytes, s.resident_bytes, "{s:?}");
        for k in 0..8u64 {
            assert_eq!(store.get_tier(k, &mut out).unwrap(), Some(HitTier::Hot));
            assert_eq!(out, noise_page(k), "key {k}");
        }
        assert_eq!(store.stats().hits_hot, 8);
    }

    #[test]
    fn reaccessed_warm_page_is_promoted_to_hot() {
        let store = CompressedStore::new(StoreConfig::in_memory(1 << 20));
        let mut out = vec![0u8; 4096];
        store.put(1, &page(1)).unwrap();
        // Compressible → warm on put; the first get serves from warm.
        assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Memory));
        assert_eq!(out, page(1));
        // The second recent get crosses the promotion bar (gets >= 2).
        assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Memory));
        let s = store.stats();
        assert_eq!(s.promotions, 1, "{s:?}");
        assert_eq!(s.hot_bytes, 4096, "{s:?}");
        assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Hot));
        assert_eq!(out, page(1));
    }

    #[test]
    fn compress_all_policy_reproduces_flat_store() {
        let (dir, path) = temp_path("tier-flat");
        {
            let store = CompressedStore::new(
                StoreConfig::with_spill(1 << 20, &path)
                    .with_tier_policy(Arc::new(crate::tier::CompressAll)),
            );
            let mut out = vec![0u8; 4096];
            for k in 0..8u64 {
                store.put(k, &noise_page(k)).unwrap();
                store.put(100 + k, &page(k as u8)).unwrap();
            }
            for _ in 0..4 {
                for k in 0..8u64 {
                    assert!(store.get(k, &mut out).unwrap());
                    assert!(store.get(100 + k, &mut out).unwrap());
                }
            }
            let s = store.stats();
            assert_eq!(s.puts_hot, 0, "{s:?}");
            assert_eq!(s.hits_hot, 0, "{s:?}");
            assert_eq!(s.promotions, 0, "{s:?}");
            assert_eq!(s.hot_bytes, 0, "{s:?}");
            assert_eq!(s.warm_bytes, s.resident_bytes, "{s:?}");
            store.shutdown();
        }
        cleanup(dir, path);
    }

    #[test]
    fn paper_threshold_policy_splits_on_admission_only() {
        let store = CompressedStore::new(
            StoreConfig::in_memory(1 << 20).with_tier_policy(Arc::new(crate::tier::PaperThreshold)),
        );
        let mut out = vec![0u8; 4096];
        store.put(1, &noise_page(1)).unwrap();
        store.put(2, &page(2)).unwrap();
        assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Hot));
        assert_eq!(store.get_tier(2, &mut out).unwrap(), Some(HitTier::Memory));
        // The 4:3 rule is static: no amount of re-access promotes.
        for _ in 0..8 {
            assert_eq!(store.get_tier(2, &mut out).unwrap(), Some(HitTier::Memory));
        }
        assert_eq!(store.stats().promotions, 0);
    }

    /// The full lifecycle under an aggressive recency policy: a promoted
    /// hot page is demoted back to warm by an explicit pass, aged out to
    /// the spill file by the next, and climbs back to hot on re-access —
    /// byte-identical at every step.
    #[test]
    fn demote_now_cycles_hot_to_warm_to_cold_and_back() {
        let (dir, path) = temp_path("tier-cycle");
        {
            let policy = crate::tier::RecencyCompressibility {
                hot_idle: 1,
                // One step above hot_idle so a single pass demotes hot →
                // warm without cascading straight on to the spill file.
                warm_idle: 2,
                hot_demote_pressure_pct: 0,
                warm_demote_pressure_pct: 0,
                ..Default::default()
            };
            let store = CompressedStore::new(
                StoreConfig::with_spill(1 << 20, &path)
                    .with_tier_policy(Arc::new(policy))
                    // Only the explicit demote_now() passes below run, so
                    // every counter assertion is deterministic.
                    .with_demote_interval(Duration::from_secs(3600)),
            );
            let mut out = vec![0u8; 4096];
            store.put(1, &page(1)).unwrap();
            store.get(1, &mut out).unwrap();
            store.get(1, &mut out).unwrap();
            let s = store.stats();
            assert_eq!(s.promotions, 1, "{s:?}");
            assert_eq!(s.hot_bytes, 4096, "{s:?}");

            // Hot → warm: the page is compressible, so demotion reseals
            // it in place (no spill traffic yet).
            let (hot_n, _) = store.demote_now();
            let s = store.stats();
            assert_eq!(hot_n, 1, "{s:?}");
            assert_eq!(s.demoted_hot, 1, "{s:?}");
            assert_eq!(s.hot_bytes, 0, "{s:?}");
            assert!(s.warm_bytes > 0, "{s:?}");
            assert_eq!(s.hot_bytes + s.warm_bytes, s.resident_bytes, "{s:?}");

            // Age is measured on the op clock, so tick it with an
            // unrelated put before the warm → cold pass.
            store.put(99, &page(99)).unwrap();
            let (_, warm_n) = store.demote_now();
            store.flush().unwrap();
            let s = store.stats();
            assert_eq!(warm_n, 1, "{s:?}");
            assert_eq!(s.demoted_warm, 1, "{s:?}");
            assert_eq!(s.hot_bytes, 0, "{s:?}");

            // Cold → hot: the disk hit re-stamps it (its lifetime get
            // count already cleared the bar), so the very next access
            // promotes — and the bytes came through the cycle intact.
            assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Spill));
            assert_eq!(out, page(1));
            assert_eq!(store.get_tier(1, &mut out).unwrap(), Some(HitTier::Hot));
            assert_eq!(out, page(1));
            assert_eq!(store.stats().promotions, 2);
            store.shutdown();
        }
        cleanup(dir, path);
    }
}
