//! Metric names and units: the contract `BENCHMARK.json` restates (a unit
//! test keeps the two in step).

/// One end-to-end metric: what a user of the grid would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit (`vms` = virtual milliseconds of the 2005 cost model).
    pub unit: &'static str,
    /// Direction: `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. Never past 10 %: a metric whose
    /// measured A/A spread cannot hold that is reported per layer instead
    /// (README, "Noise study").
    pub bound: f64,
}

impl EndToEnd {
    /// Whether the metric is wall-clock time of the query path, where the
    /// scatter threads' wake-up regime shows.
    pub fn times_queries(&self) -> bool {
        matches!(self.unit, "1/s" | "us")
    }
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// End-to-end metrics, printed by `--trace 0` on every workload. Wall-clock
/// ones are reference-speed medians over rounds; see the README glossary.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.1),
    e2e("queries_per_s", "1/s", true, 0.1),
    e2e("query_p50_us", "us", false, 0.1),
    e2e("virtual_ms_per_query", "vms", false, 0.005),
    e2e("wire_kb_per_query", "KiB", false, 0.005),
    e2e("peak_rss_mb", "MiB", false, 0.05),
];

/// Per-layer metrics, printed by `--trace 1` on every workload. A layer a
/// workload does not exercise reads 0 — which is the point: it shows what
/// that workload bypasses.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sqlkit.parse_us", "us"),
    ("sqlkit.optimize_us", "us"),
    ("sqlkit.exec_us", "us"),
    ("sqlkit.rows_scanned_per_row_returned", "ratio"),
    ("sqlkit.batches_per_query", "count"),
    ("sqlkit.rows_materialized_per_query", "count"),
    ("core.decompose_us", "us"),
    ("core.reduce_us", "us"),
    ("core.integrate_us", "us"),
    ("core.result_to_wire_us", "us"),
    ("core.query_p95_us", "us"),
    ("core.glue_us", "us"),
    ("core.replayed_share_pct", "%"),
    ("core.subqueries_per_query", "count"),
    ("core.remote_forwards_per_query", "count"),
    ("core.connections_opened_per_query", "count"),
    ("core.pooled_hits_per_query", "count"),
    ("core.rls_lookups_per_query", "count"),
    ("core.reductions_shipped_per_query", "count"),
    ("core.bytes_saved_per_query", "bytes"),
    ("core.virt_plan_ms", "vms"),
    ("core.virt_rls_ms", "vms"),
    ("core.virt_connect_ms", "vms"),
    ("core.virt_execute_ms", "vms"),
    ("core.virt_integrate_ms", "vms"),
    ("core.virt_serialize_ms", "vms"),
    ("core.virt_resilience_ms", "vms"),
    ("core.note_replication_us", "us"),
    ("rls.lookup_us", "us"),
    ("clarens.encode_us", "us"),
    ("clarens.decode_us", "us"),
    ("clarens.wire_bytes_per_query", "bytes"),
    ("vendors.connect_us", "us"),
    ("vendors.query_us", "us"),
    ("poolral.execute_us", "us"),
    ("storage.insert_rows_per_s", "1/s"),
    ("storage.wal_records_per_cycle", "count"),
    ("warehouse.ingest_cycle_ms", "ms"),
    ("warehouse.freshness_virtual_ms", "vms"),
    ("warehouse.etl_ms", "ms"),
    ("warehouse.repl_poll_ms", "ms"),
    ("warehouse.polls_per_cycle", "count"),
    ("warehouse.rows_applied_per_cycle", "count"),
    ("warehouse.rows_applied_per_source_row", "ratio"),
    ("warehouse.virt_etl_ms", "vms"),
    ("warehouse.virt_repl_ms", "vms"),
    ("obs.tracing_overhead_pct", "%"),
    ("ntuple.generate_ms", "ms"),
    ("warehouse.etl_load_ms", "ms"),
    ("warehouse.materialize_ms", "ms"),
    ("xspec.register_ms", "ms"),
    ("harness.calib_ms", "ms"),
    ("harness.thread_wake_us", "us"),
    ("harness.unpinned_queries_per_s", "1/s"),
    ("harness.unpinned_thread_wake_us", "us"),
    ("harness.cpus_allowed", "count"),
    ("harness.raw_queries_per_s", "1/s"),
    ("harness.raw_setup_s", "s"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.rounds", "count"),
    ("harness.samples", "count"),
    ("harness.failed_share", "ratio"),
];

/// Values for one of the two tables above, in table order.
#[derive(Debug, Clone)]
pub struct MetricSet {
    table: Vec<(&'static str, &'static str)>,
    values: Vec<f64>,
}

impl MetricSet {
    fn zeros(table: Vec<(&'static str, &'static str)>) -> MetricSet {
        MetricSet {
            values: vec![0.0; table.len()],
            table,
        }
    }

    /// Every end-to-end metric, at zero.
    pub fn end_to_end() -> MetricSet {
        MetricSet::zeros(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    /// Every per-layer metric, at zero.
    pub fn per_layer() -> MetricSet {
        MetricSet::zeros(PER_LAYER.to_vec())
    }

    /// Set `name`. Panics on a name the table does not have or a value
    /// that is not finite — both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric `{name}`"));
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values[i] = value;
    }

    /// `(name, value, unit)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((n, u), v)| (*n, *v, *u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Workload;

    /// Names under `"key": [` of BENCHMARK.json, in order.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(json, "per_layer"), layers);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(names_in(json, "workloads"), workloads);
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "{entry}");
        }
        for (name, unit) in PER_LAYER {
            let better = if unit.ends_with("/s") {
                "higher"
            } else {
                "lower"
            };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "{entry}");
        }
        assert!(json.contains(&format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS)));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
        for (name, unit) in e2e.chain(PER_LAYER.iter().copied()) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert!(
            widest <= 0.1 && END_TO_END[0].bound == widest,
            "no bound past 10 %, and setup_s has the widest"
        );
    }

    #[test]
    fn metric_set_keeps_table_order_and_defaults_to_zero() {
        let mut m = MetricSet::end_to_end();
        m.set("query_p50_us", 12.5);
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got[0], ("setup_s", 0.0, "s"));
        assert_eq!(got[2], ("query_p50_us", 12.5, "us"));
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn metric_set_rejects_unknown_names() {
        MetricSet::end_to_end().set("nope", 1.0);
    }
}
