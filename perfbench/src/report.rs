//! The metric tables and the result line. Every metric a run emits is
//! declared here with its unit; `BENCHMARK.json` at the repository root
//! lists the same names.

use std::collections::BTreeMap;

/// End-to-end metrics, emitted by `--trace 0` runs on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("setup_s", "s"),
    ("heap_per_budget", "ratio"),
    ("stored_bytes_per_user_byte", "ratio"),
];

/// Per-layer metrics, emitted by `--trace 1` runs on every workload; a
/// layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_op_frac", "ratio"),
    ("store.hit_hot_frac", "ratio"),
    ("store.hit_warm_frac", "ratio"),
    ("store.hit_spill_frac", "ratio"),
    ("store.miss_frac", "ratio"),
    ("tier.promotions", "count"),
    ("tier.promotions_rejected_frac", "ratio"),
    ("tier.demotions", "count"),
    ("tier.demoter_passes", "count"),
    ("codec.ratio", "ratio"),
    ("codec.bdi_share", "ratio"),
    ("codec.fallbacks_per_put", "ratio"),
    ("codec.stored_raw_frac", "ratio"),
    ("codec.compress_ns_p50", "ns"),
    ("codec.decompress_ns_p50", "ns"),
    ("spill.entries_per_batch", "ratio"),
    ("gc.runs", "count"),
    ("gc.bytes_relocated_per_put_byte", "ratio"),
    ("gc.pause_max_ms", "ms"),
    ("medium.write_bytes_per_put_byte", "ratio"),
    ("medium.writes", "count"),
    ("medium.write_us_p50", "us"),
    ("medium.busy_frac", "ratio"),
    ("medium.read_us_p50", "us"),
    ("medium.reads_per_spill_hit", "ratio"),
    ("journal.write_bytes_per_put", "B"),
    ("journal.flushes", "count"),
    ("persist.reopen_ms", "ms"),
    ("persist.extents_recovered", "count"),
    ("persist.stale_after_reopen", "count"),
    ("persist.resurrected_after_reopen", "count"),
    ("persist.lost_after_reopen", "count"),
    ("server.ns_per_op", "ns"),
    ("store.ns_per_op_direct", "ns"),
    ("wire.overhead_ns_per_op", "ns"),
    ("server.get_p50_us", "us"),
    ("server.put_p50_us", "us"),
    ("span.get.root_mean_us", "us"),
    ("span.get.medium_share", "ratio"),
    ("span.get.self_share", "ratio"),
    ("span.put.root_mean_us", "us"),
    ("span.put.medium_share", "ratio"),
    ("span.put.self_share", "ratio"),
    ("span.del.root_mean_us", "us"),
    ("span.del.medium_share", "ratio"),
    ("span.del.self_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("mem.heap_bytes", "B"),
    ("mem.resident_bytes", "B"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The metrics of one run. Starts with every metric of its table at 0;
/// setting a name outside the table is a bug in the benchmark.
pub struct Report {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed ahead of the result.
    notes: Vec<String>,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        let table = if trace { PER_LAYER } else { END_TO_END };
        assert!(
            table.iter().all(|&(n, _)| valid_name(n)),
            "invalid metric name"
        );
        Report {
            table,
            values: table.iter().map(|&(n, _)| (n, 0.0)).collect(),
            correct: true,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's table"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record an output check; any failure makes the run incorrect.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// The metrics as `name value unit` lines, then the one-line JSON
    /// result (which must be the last line of standard output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(line);
            out.push('\n');
        }
        for &(name, unit) in self.table {
            out.push_str(&format!("{name:<36} {:>16.4} {unit}\n", self.values[name]));
        }
        let metrics: Vec<String> = self
            .table
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.values[name]
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(name.len() <= 64, "{name} too long");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"name\": \"").count();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = crate::Workload::ALL.len();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_is_last_and_carries_every_metric() {
        let mut r = Report::new(false);
        r.set("ops_per_s", 1234.5);
        r.set("get_p50_us", f64::NAN);
        r.attempted = 10;
        let text = r.render();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(last.contains("\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(last.contains("\"get_p50_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert_eq!(last.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in this run's table")]
    fn unknown_metric_is_a_bug() {
        Report::new(true).set("ops_per_s", 1.0);
    }
}
