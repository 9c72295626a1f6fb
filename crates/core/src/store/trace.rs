//! Request-trace plumbing: latency sampling, per-operation spans, and
//! the traced entry points every put and get goes through.

use super::*;

/// What a store operation reports back for its span: the tier it
/// resolved to and the codec involved.
#[derive(Default)]
pub(super) struct TraceOut {
    pub(super) tier: u8,
    pub(super) codec: u8,
}

impl StoreCore {
    /// Start a latency sample iff sampling is enabled — the hot paths
    /// never call the clock when telemetry is off.
    #[inline]
    pub(super) fn sample_start(&self) -> Option<Instant> {
        if self.tel.timing_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish a latency sample started by [`StoreCore::sample_start`],
    /// tagging it with the request's trace id (0 for untraced work) so
    /// the histogram keeps tail exemplars.
    #[inline]
    pub(super) fn sample_end_traced(&self, op: usize, t0: Option<Instant>, ctx: TraceCtx) {
        if let Some(t0) = t0 {
            self.tel
                .record_traced(op, t0.elapsed().as_nanos() as u64, ctx.trace_id);
        }
    }

    /// Record a `spill_read` child span under `ctx` spanning `t0 → now`
    /// (no-op when unsampled or untraced).
    pub(super) fn spill_read_span(
        &self,
        ctx: TraceCtx,
        t0: Option<Instant>,
        codec: u8,
        status: u8,
        offset: u64,
        stripe: usize,
    ) {
        if let (Some(t0), true, Some(tr)) = (t0, ctx.sampled(), self.cfg.tracer.as_deref()) {
            tr.span(ctx, sop::SPILL_READ, t0)
                .tier(strier::SPILL)
                .codec(codec)
                .status(status)
                .arg(offset)
                .record(stripe);
        }
    }

    /// Run one store operation on `key`, recording an `op` span around
    /// it when `ctx` is sampled and a tracer is configured. `body` gets
    /// the context its child spans go under ([`TraceCtx::NONE`] when
    /// untraced) and reports the tier and codec the operation resolved.
    fn traced<T>(
        &self,
        ctx: TraceCtx,
        op: u8,
        key: u64,
        body: impl FnOnce(TraceCtx, &mut TraceOut) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut tout = TraceOut::default();
        let Some(tr) = self.cfg.tracer.as_deref().filter(|_| ctx.sampled()) else {
            return body(TraceCtx::NONE, &mut tout);
        };
        let (span, t0) = (tr.alloc_span(), Instant::now());
        let res = body(ctx.child(span), &mut tout);
        tr.span(ctx, op, t0)
            .id(span)
            .tier(tout.tier)
            .codec(tout.codec)
            .status(res.is_err() as u8)
            .arg(key)
            .record(self.shard_index(key));
        res
    }

    /// Store or replace `key`'s page, recording a `store_put` span (and
    /// children) when `ctx` is sampled.
    pub(super) fn put(&self, key: u64, page: &[u8], ctx: TraceCtx) -> Result<(), StoreError> {
        self.traced(ctx, sop::STORE_PUT, key, |ctx, tout| {
            self.put_inner(key, page, ctx, tout)
        })
    }

    /// Fetch `key`'s page, recording a `store_get` span (and a
    /// `spill_read` child for disk hits) when `ctx` is sampled.
    pub(super) fn get(
        &self,
        key: u64,
        out: &mut [u8],
        ctx: TraceCtx,
    ) -> Result<Option<HitTier>, StoreError> {
        self.traced(ctx, sop::STORE_GET, key, |ctx, tout| {
            self.get_inner(key, out, ctx, tout)
        })
    }
}
