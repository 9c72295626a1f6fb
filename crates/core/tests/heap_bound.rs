//! The memory budget bounds the heap, not just the `resident_bytes`
//! gauge.
//!
//! `resident_bytes` counts stored bytes; the process pays for whatever
//! the allocator hands out. This test counts every live heap byte with
//! its own global allocator (it is the only test in this binary, so
//! nothing else allocates concurrently), fills an in-memory store with
//! mixed-compressibility pages, overwrites them many times so stored
//! sizes keep changing, and checks that the heap the store owns stays
//! within the budget plus a stated overhead for entry metadata, the
//! event ring, histograms and per-thread codec scratch.

use cc_core::store::{CompressedStore, StoreConfig, StoreError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes: every allocation's requested size, minus frees.
static LIVE: AtomicIsize = AtomicIsize::new(0);

#[global_allocator]
static ALLOC: Counting = Counting;

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the only
// addition is a relaxed counter update, which touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr`/`layout` came from `System` via this allocator;
        // the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

const PAGE: usize = 4096;
const BUDGET: usize = 4 << 20;
const KEYS: u64 = 2400;
const OVERWRITES: u64 = 24_000;

/// Heap the store may own beyond its budget, as a fraction of the
/// budget. Here the pages fill ~0.8 of the budget and everything else
/// the store allocates — entry map and LRU metadata for 2400 entries,
/// telemetry counters, histograms and event ring, each thread's codec
/// scratch — adds ~0.16, so the store owns ~0.94x in all. Entries that
/// keep page-sized capacity behind short compressed payloads (a pool of
/// recycled buffers does this) push it to ~1.85x.
const OVERHEAD_BOUND: f64 = 0.15;

/// Page `key` at `version`, written into `buf`. One key in eight is
/// noise (incompressible, stored raw in the hot tier); the rest are
/// runs whose length, and so whose compressed size, changes with the
/// version, plus word-patterned pages for the BDI codec.
fn fill(key: u64, version: u64, buf: &mut [u8]) {
    let mut x =
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    match key % 8 {
        0 => buf.iter_mut().for_each(|b| *b = next() as u8),
        1 => {
            for (i, w) in buf.chunks_exact_mut(8).enumerate() {
                w.copy_from_slice(
                    &(0x4400_0000_0000 + (i as u64 * 3 + version) % 90).to_le_bytes(),
                );
            }
        }
        _ => {
            let run = 2 + (version % 13) as usize;
            let mut byte = next() as u8;
            for (i, b) in buf.iter_mut().enumerate() {
                if i % run == 0 {
                    byte = next() as u8;
                }
                *b = byte;
            }
        }
    }
}

fn put(store: &CompressedStore, key: u64, page: &[u8]) {
    match store.put(key, page) {
        Ok(()) | Err(StoreError::OutOfMemory) => {}
        Err(e) => panic!("put({key}) failed: {e}"),
    }
}

#[test]
fn heap_stays_within_budget_under_overwrite_churn() {
    let mut page = vec![0u8; PAGE];
    let before = LIVE.load(Ordering::Relaxed);
    let store = CompressedStore::new(StoreConfig::in_memory(BUDGET));
    for key in 0..KEYS {
        fill(key, 0, &mut page);
        put(&store, key, &page);
    }
    for i in 0..OVERWRITES {
        let key = i.wrapping_mul(7919) % KEYS;
        fill(key, 1 + i / KEYS, &mut page);
        put(&store, key, &page);
    }
    store.flush().expect("flush");
    let owned = (LIVE.load(Ordering::Relaxed) - before) as f64;
    let s = store.stats();
    let limit = BUDGET as f64 * (1.0 + OVERHEAD_BOUND);
    eprintln!(
        "heap owned {owned:.0} B = {:.3} x budget; resident {} B ({} hot, {} warm) over {} pages",
        owned / BUDGET as f64,
        s.resident_bytes,
        s.hot_bytes,
        s.warm_bytes,
        store.len(),
    );
    assert!(
        s.resident_bytes as f64 > BUDGET as f64 * 0.5,
        "store too empty for the bound to mean anything: {s:?}"
    );
    assert!(
        owned <= limit,
        "store owns {owned:.0} heap bytes, over budget x {:.2} = {limit:.0}",
        1.0 + OVERHEAD_BOUND
    );
}
