//! Golden telemetry schema: every exported name, in order.
//!
//! Scrapers, dashboards and the BENCH harnesses key on these strings,
//! so a rename or a reorder of any counter, histogram, event, gauge or
//! span code is a breaking change. This test pins the full ordered
//! list of Prometheus series in a STATS payload (store and server), the
//! counter/op/event/gauge keys of the store's and the server's JSON
//! snapshots, and the span `op`/`tier` code-to-name tables.

use cc_core::store::{CompressedStore, StoreConfig};
use cc_server::Service;
use cc_telemetry::trace::{sop, tier};
use std::sync::Arc;

/// The distinct series names of a Prometheus payload, in first-seen
/// order (quantile labels and `# HELP`/`# TYPE` lines dropped).
fn series_names(text: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let name = line
            .split(['{', ' '])
            .next()
            .expect("sample line has a name")
            .to_string();
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// The keys of one top-level object section (`"counters"`, `"ops"`,
/// ...) of a [`cc_telemetry::Snapshot::to_json`] document, in order.
fn json_section_keys(json: &str, section: &str) -> Vec<String> {
    let open = format!("\"{section}\": {{");
    let mut lines = json.lines().skip_while(|l| l.trim() != open);
    assert!(lines.next().is_some(), "section {section} missing: {json}");
    lines
        .take_while(|l| !l.trim_start().starts_with('}'))
        .map(|l| l.split('"').nth(1).expect("quoted key").to_string())
        .collect()
}

fn check(what: &str, got: &[String], want: &[&str]) {
    assert_eq!(
        got, want,
        "{what} drifted from the golden schema; got:\n{got:#?}"
    );
}

const STORE_COUNTERS: &[&str] = &[
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

const STORE_GAUGES: &[&str] = &[
    "uptime_seconds",
    "resident_bytes",
    "hot_resident_bytes",
    "warm_resident_bytes",
    "bytes_on_spill",
    "spill_dead_bytes",
    "degraded",
];

const STORE_OPS: &[&str] = &[
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

const STORE_EVENTS: &[&str] = &[
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

const SERVER_COUNTERS: &[&str] = &[
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

const SERVER_GAUGES: &[&str] = &["uptime_seconds", "open_connections"];

const SERVER_OPS: &[&str] = &["put", "get", "del", "flush", "stats", "ping", "dump"];

const SERVER_EVENTS: &[&str] = &["conn_open", "conn_close", "busy", "malformed"];

/// The Prometheus series one snapshot section renders to, in the order
/// [`cc_telemetry::Snapshot::to_prometheus`] writes them.
fn prometheus_series(
    prefix: &str,
    counters: &[&str],
    gauges: &[&str],
    ops: &[&str],
    events: &[&str],
) -> Vec<String> {
    let mut out = Vec::new();
    out.extend(counters.iter().map(|n| format!("{prefix}_{n}_total")));
    out.extend(gauges.iter().map(|n| format!("{prefix}_{n}")));
    for n in ops {
        for suffix in ["", "_sum", "_count", "_max"] {
            out.push(format!("{prefix}_{n}_latency_ns{suffix}"));
        }
    }
    out.extend(events.iter().map(|n| format!("{prefix}_event_{n}_total")));
    out.push(format!("{prefix}_events_dropped_total"));
    out.push(format!("{prefix}_snapshot_timestamp_seconds"));
    out
}

#[test]
fn stats_series_names_are_pinned() {
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(1 << 20)));
    store.put(1, &[7u8; 4096]).expect("put");
    let service = Service::new(Arc::clone(&store), 2);
    let got = series_names(&service.stats_text());
    let mut want = prometheus_series(
        "cc_store",
        STORE_COUNTERS,
        STORE_GAUGES,
        STORE_OPS,
        STORE_EVENTS,
    );
    want.extend(prometheus_series(
        "cc_server",
        SERVER_COUNTERS,
        SERVER_GAUGES,
        SERVER_OPS,
        SERVER_EVENTS,
    ));
    let want: Vec<&str> = want.iter().map(String::as_str).collect();
    check("STATS series", &got, &want);
}

#[test]
fn json_snapshot_keys_are_pinned() {
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(1 << 20)));
    let service = Service::new(Arc::clone(&store), 1);
    let sections: [(&str, &[&str], &[&str]); 4] = [
        ("counters", STORE_COUNTERS, SERVER_COUNTERS),
        ("gauges", STORE_GAUGES, SERVER_GAUGES),
        ("ops", STORE_OPS, SERVER_OPS),
        ("events", STORE_EVENTS, SERVER_EVENTS),
    ];
    let store_json = store.telemetry_snapshot().to_json(0);
    let server_json = service.snapshot().to_json(2);
    for (section, store_keys, server_keys) in sections {
        check(
            &format!("store JSON {section}"),
            &json_section_keys(&store_json, section),
            store_keys,
        );
        check(
            &format!("server JSON {section}"),
            &json_section_keys(&server_json, section),
            server_keys,
        );
    }
}

#[test]
fn span_code_names_are_pinned() {
    let ops: Vec<String> = (0..=12).map(|c| format!("{c}={}", sop::name(c))).collect();
    check(
        "span op codes",
        &ops,
        &[
            "0=?",
            "1=request",
            "2=store_put",
            "3=store_get",
            "4=compress",
            "5=spill_write",
            "6=spill_read",
            "7=gc",
            "8=reply_flush",
            "9=park",
            "10=promote",
            "11=demote",
            "12=?",
        ],
    );
    let pinned = [
        (sop::REQUEST, 1),
        (sop::STORE_PUT, 2),
        (sop::STORE_GET, 3),
        (sop::COMPRESS, 4),
        (sop::SPILL_WRITE, 5),
        (sop::SPILL_READ, 6),
        (sop::GC, 7),
        (sop::REPLY_FLUSH, 8),
        (sop::PARK, 9),
        (sop::PROMOTE, 10),
        (sop::DEMOTE, 11),
        (tier::NONE, 0),
        (tier::MEMORY, 1),
        (tier::SAME_FILLED, 2),
        (tier::SPILL, 3),
        (tier::HOT, 4),
    ];
    for (i, (code, want)) in pinned.into_iter().enumerate() {
        assert_eq!(code, want, "code #{i} renumbered");
    }
    let tiers: Vec<String> = (0..=5).map(|c| format!("{c}={}", tier::name(c))).collect();
    check(
        "span tier codes",
        &tiers,
        &[
            "0=none",
            "1=memory",
            "2=same_filled",
            "3=spill",
            "4=hot",
            "5=?",
        ],
    );
}
