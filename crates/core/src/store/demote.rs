//! Tier movement: promotion of re-accessed pages to hot, and the
//! background demoter that ages hot pages to warm and warm pages cold.

use super::*;

/// What [`StoreCore::demote_hot_locked`] did with its victim.
pub(super) enum DemoteOutcome {
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
pub(super) const DEMOTE_SHARD_BATCH: usize = 8;

impl StoreCore {
    /// Resident bytes as a percentage of the budget, saturated to 100 —
    /// the pressure signal the tier policies and the demoter gates read.
    pub(super) fn pressure_pct(&self) -> u8 {
        let budget = self.cfg.memory_budget.max(1);
        ((self.resident.load(Ordering::Relaxed).min(budget) * 100) / budget) as u8
    }

    /// Decompress-back-to-hot promotion of `key`, whose just-served
    /// page bytes are in `page`. Promotion never evicts: the budget
    /// delta is CAS-reserved outright and the promotion is abandoned
    /// (counted) when it doesn't fit. The entry must still carry this
    /// get's unique `now` stamp — any interleaved put or get stamps its
    /// own clock value, so a stale swap is impossible.
    pub(super) fn try_promote(
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
            }
            Residence::Spilled { len, .. } => {
                // The extent stays behind as dead bytes for GC.
                self.spill_dead_bytes
                    .fetch_add(len as u64, Ordering::Relaxed);
            }
            _ => unreachable!("checked above"),
        }
        let data = page.to_vec();
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
        self.sample_end_traced(top::PROMOTE, t0, TraceCtx::NONE);
        if let (Some(pt0), Some(tr)) = (pt0, self.cfg.tracer.as_deref()) {
            tr.span(ctx, sop::PROMOTE, pt0)
                .tier(src_tier)
                .codec(CodecId::Raw.as_u8())
                .arg(key)
                .record(shard_idx);
        }
    }

    /// Compress `shard`'s hot entry `key` (reusing its recorded probe
    /// verdict — no re-probe) and demote it: to warm residence when the
    /// sealed form is smaller, else to the spill channel when one is
    /// available. `Kept` means neither helped; the entry is cycled to
    /// the hot MRU end so a bounded sweep doesn't re-grind it.
    pub(super) fn demote_hot_locked(
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
            let sealed = SCRATCH.with(|c| c.borrow().demote[..sel.len].to_vec());
            let mut e = shard.entries.remove(&key).expect("checked above");
            let Residence::Hot { handle, .. } = e.residence else {
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
            let Residence::Hot { handle, .. } = e.residence else {
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
    pub(super) fn demote_pass(&self) -> (u64, u64) {
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
            tr.span(TraceCtx::NONE, sop::DEMOTE, t0)
                .service_ns(pause)
                .arg(hot_n + warm_n)
                .record(0);
        }
        (hot_n, warm_n)
    }

    /// Body of the `cc-store-demoter` thread: sleep `demote_interval`
    /// (or until a pressured put kicks the condvar), then run one
    /// [`Self::demote_pass`]. Exits when `shutdown()`/`Drop` sets
    /// `demote_stop`.
    pub(super) fn demoter_loop(&self) {
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
}
