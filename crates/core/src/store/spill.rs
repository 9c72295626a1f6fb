//! The spill tier: the self-verifying extent codec, the batching
//! writer thread with its retry, degraded-mode probing, journaling and
//! compaction (GC), and the store-side completion and flush plumbing.

use super::*;

/// An entry handed to the writer thread. The file offset is chosen by the
/// writer at batch-commit time, not by the producer — that is what lets
/// the writer pack many entries into one contiguous write and lets GC
/// reset the allocation cursor.
pub(super) struct SpillJob {
    pub(super) key: u64,
    pub(super) gen: u64,
    /// Codec id byte, sealed into the extent header alongside the data.
    pub(super) codec: u8,
    /// Uncompressed page length, journaled so recovery can restore the
    /// entry (and re-learn the store's page size) without decoding.
    pub(super) orig_len: u32,
    pub(super) data: Arc<Vec<u8>>,
    /// Trace context of the sampled put that queued this job
    /// ([`TraceCtx::NONE`] for background eviction / unsampled puts):
    /// the writer records a `spill_write` span under it.
    pub(super) ctx: TraceCtx,
    /// When the job was queued — the writer splits queue-wait from
    /// service time in the span. Set iff `ctx` is sampled.
    pub(super) queued: Option<Instant>,
}

/// Completion offset reported when the batch write itself failed.
pub(super) const SPILL_FAILED: u64 = u64::MAX;

/// Magic leading every on-file extent header. The low nibble is the
/// format version: `..E001` was the PR 5 codec-less layout (20-byte
/// header, CRC over the payload only); `..E002` added the codec id byte
/// and widened the CRC to cover the header fields too. Old-format
/// extents fail the magic check and surface as [`StoreError::Corrupt`]
/// instead of being decoded with a guessed codec.
pub(super) const EXTENT_MAGIC: u32 = 0xCC5E_E002;

/// Bytes of self-verifying header preceding every spilled payload:
/// `magic: u32 | payload_len: u32 | gen: u64 | codec: u8 | pad: [u8; 3] |
/// crc: u32`, all little-endian. The CRC covers the first
/// [`EXTENT_CRC_OFFSET`] header bytes *and* the payload, so a flipped
/// codec id is a verification failure — decoding with the wrong codec is
/// impossible by construction, not merely unlikely.
pub(crate) const EXTENT_HEADER: usize = 24;

/// Offset of the CRC field inside the header; everything before it is
/// covered by the CRC.
pub(super) const EXTENT_CRC_OFFSET: usize = 20;

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
pub(super) fn backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << (attempt - 1).min(10))
}

/// A durable (or failed) write the store must fold into its entry maps.
pub(super) struct Completion {
    pub(super) key: u64,
    pub(super) gen: u64,
    /// File offset, or [`SPILL_FAILED`].
    pub(super) offset: u64,
    pub(super) len: u32,
}

/// How long the writer holds a partially-filled batch open waiting for
/// more jobs. Bounds both the batching opportunity and the extra latency
/// `flush()` can observe for an entry caught mid-batch.
pub(super) const BATCH_LINGER: Duration = Duration::from_micros(200);

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
pub(super) struct SpillWriter {
    pub(super) core: Arc<StoreCore>,
    pub(super) medium: Arc<dyn SpillMedium>,
    pub(super) cursor: u64,
    /// Hard batch failures (each already retried) since the last
    /// success; crossing `degrade_after` degrades the store.
    pub(super) consecutive_failures: u32,
    /// Canary probes issued during the current degraded episode.
    pub(super) probes: u64,
}

/// A job staged into the current batch: its place in the batch buffer
/// plus the identity its completion must carry. `len` is the full
/// extent length (header + payload) as it will live on the file.
pub(super) struct StagedJob {
    pub(super) key: u64,
    pub(super) gen: u64,
    pub(super) rel: usize,
    pub(super) len: usize,
    pub(super) codec: u8,
    /// Uncompressed page length, carried into the journal PUT record.
    pub(super) orig_len: u32,
    /// Trace context carried over from the [`SpillJob`] (sampled
    /// straight-to-spill puts only).
    pub(super) ctx: TraceCtx,
    pub(super) queued: Option<Instant>,
}

impl SpillWriter {
    pub(super) fn run(mut self, rx: Receiver<SpillJob>) {
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
    pub(super) fn seal(&mut self) {
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

    pub(super) fn run_loop(&mut self, rx: Receiver<SpillJob>) {
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
    pub(super) fn stage(buf: &mut Vec<u8>, staged: &mut Vec<StagedJob>, job: SpillJob) {
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
    pub(super) fn fail_job(&self, job: SpillJob) {
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
    pub(super) fn probe(&mut self) {
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
    pub(super) fn write_with_retry(&self, buf: &[u8], base: u64) -> bool {
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
    pub(super) fn commit_batch(&mut self, buf: &[u8], staged: &[StagedJob]) {
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
                tr.span(j.ctx, sop::SPILL_WRITE, t0)
                    .tier(strier::SPILL)
                    .codec(j.codec)
                    .status(!ok as u8)
                    .queue_ns(queue_ns)
                    .service_ns(write_ns)
                    .arg(if ok { base + j.rel as u64 } else { j.key })
                    .record(0);
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
    pub(super) fn journal_batch(&self, base: u64, staged: &[StagedJob]) -> bool {
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
    pub(super) fn maybe_gc(&mut self) {
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
            tr.span(TraceCtx::NONE, sop::GC, t0)
                .tier(strier::SPILL)
                .service_ns(pause)
                .arg(moved)
                .record(0);
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

impl StoreCore {
    /// Read `len` bytes at `offset` into this thread's staging buffer.
    pub(super) fn read_spill(&self, offset: u64, len: u32) -> Result<(), StoreError> {
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
    pub(super) fn verify_staged(&self, gen: u64, codec: u8) -> bool {
        SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            if !verify_extent(&s.stage, gen, codec) {
                return false;
            }
            s.stage.drain(..EXTENT_HEADER);
            true
        })
    }

    /// Persistence hook for every path that removes (or supersedes) an
    /// entry: if the key has a location record in the journal, queue a
    /// tombstone with a fresh LSN so recovery cannot resurrect it. The
    /// LSN is allocated while the caller still holds the key's shard
    /// lock, which is what makes the per-key LSN order exact even when
    /// the tombstone reaches the journal before the PUT it supersedes.
    pub(super) fn tombstone_if_journaled(&self, journaled: bool, key: u64) {
        if !journaled {
            return;
        }
        if let Some(p) = &self.persist {
            let lsn = self.next_gen.fetch_add(1, Ordering::Relaxed);
            p.enqueue_tombstone(key, lsn);
        }
    }

    /// Shed coldest entries across shards until `resident` is back at or
    /// under the budget — the repair step after the spill-failure
    /// fallback path pushed it over. Takes one shard lock at a time.
    pub(super) fn shed_to_budget(&self) {
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
    pub(super) fn absorb_completed_spills(&self) {
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

    pub(super) fn flush(&self) -> Result<(), StoreError> {
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
    pub(super) fn reclaim_orphaned_spilling(&self) {
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
