//! Entries, shards and the put/get data paths: the per-key residence
//! state, the lock-striped shard maps, budget reservation, eviction
//! and shedding.

use super::*;

pub(super) enum Residence {
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

pub(super) struct Entry {
    pub(super) residence: Residence,
    pub(super) orig_len: u32,
    /// [`CodecId`] (as its wire byte) that sealed this entry's bytes.
    /// Decode always dispatches on this — never on guessing — and it is
    /// also sealed into the spill extent header so the two can be
    /// cross-checked after a read. Hot entries record [`CodecId::Raw`]
    /// (nothing is sealed while hot).
    pub(super) codec: u8,
    /// The put path's sampled BDI-probe verdict for these exact page
    /// bytes: 0 = not probed (non-adaptive policy), 1 = predicted BDI,
    /// 2 = predicted not-BDI. Demotion hands this back to the codec
    /// layer so aging a hot page never re-probes it.
    pub(super) probe: u8,
    /// Gets served since the last put of this key (saturating). The
    /// promotion signal: re-access frequency within the recency window.
    pub(super) gets: u16,
    /// Low 32 bits of the store's operation clock when this entry was
    /// last put or got. Ages are wrapping differences on this — at one
    /// op per clock tick a 32-bit window is ~4 billion operations deep,
    /// far past any policy's idle threshold.
    pub(super) last_touch: u32,
    /// Whether this key has a location record in the persistence
    /// journal (set when a spill job is queued, kept across promotion).
    /// Removing or replacing a journaled key must enqueue a tombstone,
    /// or recovery would resurrect it. Always `false` on
    /// non-persistent stores.
    pub(super) journaled: bool,
}

/// Entry probe-byte encoding of the put path's `Option<bool>` verdict.
pub(super) fn probe_code(hint: Option<bool>) -> u8 {
    match hint {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    }
}

/// Decode [`probe_code`] back into the codec layer's hint form.
pub(super) fn probe_hint(code: u8) -> Option<bool> {
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
pub(super) struct KeyHasher(u64);

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

pub(super) type EntryMap = HashMap<u64, Entry, BuildHasherDefault<KeyHasher>>;

pub(super) struct Shard {
    pub(super) entries: EntryMap,
    /// Coldest-first spill ordering over the keys with `Memory` residence.
    pub(super) lru: LruList<u64>,
    /// Coldest-first demotion ordering over the keys with `Hot`
    /// residence. Kept separate from `lru` so pressure eviction can
    /// prefer warm victims (already compressed — spilling them is
    /// cheap) and only then start compressing hot ones.
    pub(super) lru_hot: LruList<u64>,
    /// Clone of the cleaner channel (kept per shard so no shared `Sender`
    /// needs to be `Sync`); `None` once shut down or without a spill file.
    pub(super) tx: Option<Sender<SpillJob>>,
}

/// Pad shards to their own cache lines so hot per-shard state on
/// neighbouring shards does not false-share.
#[repr(align(128))]
pub(super) struct Padded<T>(pub(super) T);

/// Scratch space reused across calls on each thread: the codec set
/// (LZRW1's hash table lives here) plus compression, staging, and
/// decompression buffers. `comp` is sized by
/// [`CodecSet::max_compressed_len`] for the active policy on every
/// compress — each codec's own worst case, not LZRW1's.
pub(super) struct Scratch {
    pub(super) codecs: CodecSet,
    pub(super) comp: Vec<u8>,
    pub(super) stage: Vec<u8>,
    pub(super) decomp: Vec<u8>,
    /// Demotion's compression output. Separate from `comp` because hot
    /// demotion can run *inside* a put's eviction loop on the same
    /// thread, while the put's own sealed bytes are still parked in
    /// `comp` waiting for budget.
    pub(super) demote: Vec<u8>,
}

thread_local! {
    pub(super) static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        codecs: CodecSet::new(),
        comp: Vec::new(),
        stage: Vec::new(),
        decomp: Vec::new(),
        demote: Vec::new(),
    });
}

pub(super) enum Progress {
    Evicted,
    NoVictim,
    Blocked,
}

impl StoreCore {
    pub(super) fn put_inner(
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
        // compressor, the budget, or the heap — the pattern *is*
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
        let (sel, comp) = SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            let ct0 = (timing || ctx.sampled()).then(Instant::now);
            let sel = s.codecs.compress_with_hint(
                self.cfg.codec_policy,
                self.cfg.threshold,
                page,
                &mut s.comp,
                hint,
            );
            (sel, ct0.map(|t| (t, t.elapsed().as_nanos() as u64)))
        });
        let comp_ns = comp.map(|(_, ns)| ns);
        let len = sel.len;
        tout.codec = sel.codec.as_u8();
        if let (Some((ct0, ns)), true, Some(tr)) = (comp, ctx.sampled(), self.cfg.tracer.as_deref())
        {
            tr.span(ctx, sop::COMPRESS, ct0)
                .codec(sel.codec.as_u8())
                .status(sel.fell_back as u8)
                .service_ns(ns)
                .arg(key)
                .record(self.shard_index(key));
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
                let data = page.to_vec();
                let handle = shard.lru_hot.push_mru(key);
                self.hot_resident.fetch_add(page.len(), Ordering::Relaxed);
                self.tel.count(shard_idx, tstat::PUTS_HOT, 1);
                Ok(Residence::Hot { data, handle })
            } else if reserved {
                self.warm_resident.fetch_add(len, Ordering::Relaxed);
                let data = compressed.to_vec();
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

    pub(super) fn get_inner(
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
                    self.sample_end_traced(top::SPILL_READ, rt0, TraceCtx::NONE);
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
                        self.spill_read_span(ctx, rspan_t0, codec, 1, offset, shard_idx);
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
                        self.spill_read_span(ctx, rspan_t0, codec, 2, offset, shard_idx);
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
                    self.spill_read_span(ctx, rspan_t0, codec, 0, offset, shard_idx);
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

    /// Record a decompression latency sample on the per-codec histogram.
    #[inline]
    pub(super) fn record_decompress(&self, codec: CodecId, t0: Option<Instant>) {
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
    pub(super) fn decompress_staged(&self, codec: u8, orig_len: usize, out: &mut [u8]) {
        let stage = SCRATCH.with(|c| std::mem::take(&mut c.borrow_mut().stage));
        self.decompress_into(codec, &stage, orig_len, out);
        SCRATCH.with(|c| c.borrow_mut().stage = stage);
    }

    /// Decompress `data`, sealed by `codec`, into `out`.
    pub(super) fn decompress_into(&self, codec: u8, data: &[u8], orig_len: usize, out: &mut [u8]) {
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

    pub(super) fn remove_locked(&self, shard: &mut Shard, key: u64) -> bool {
        match shard.entries.remove(&key) {
            Some(e) => {
                self.tombstone_if_journaled(e.journaled, key);
                match e.residence {
                    Residence::Hot { data, handle } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.hot_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        shard.lru_hot.remove(handle);
                    }
                    Residence::Memory { data, handle } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        shard.lru.remove(handle);
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
    pub(super) fn make_room(
        &self,
        local_idx: usize,
        local: &mut Shard,
    ) -> Result<Progress, StoreError> {
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
    pub(super) fn evict_one(&self, shard: &mut Shard) -> bool {
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
    pub(super) fn shed_one(&self, shard: &mut Shard) -> bool {
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
        true
    }
}
