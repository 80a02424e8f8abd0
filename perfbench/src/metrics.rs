//! The metric catalogue and the result line the runner prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a test holds the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported figure: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Figures of an untraced run (`--trace 0`), printed for every
/// workload. "Write" is compress, put-to-close or a served put, and
/// "read" is decompress, open-plus-gets or a served get; see
/// `perfbench/WORKLOADS.md`. Tail percentiles are summary lines, not
/// metrics: on a machine that slows in phases, a pooled tail jumps
/// between the phases from run to run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("ratio", "x"),
    def("write_mbps", "MB/s"),
    def("read_mbps", "MB/s"),
    def("write_p50_ms", "ms"),
    def("read_p50_ms", "ms"),
];

/// Figures of a traced run (`--trace 1`), printed for every workload;
/// a layer the workload does not drive from the benchmark reads 0.
/// `/round` figures are per traced round of fixed work.
pub const PER_LAYER: &[MetricDef] = &[
    def("simd.hist_gbps", "GB/s"),
    def("simd.partition2_gbps", "GB/s"),
    def("simd.reassemble2_gbps", "GB/s"),
    def("simd.xxh64_gbps", "GB/s"),
    def("analyzer.busy_s", "s/round"),
    def("analyzer.compressible_col_frac", "frac"),
    def("eupa.busy_s", "s/round"),
    def("eupa.trials_per_decision", "count"),
    def("eupa.decision_changes", "count/round"),
    def("partitioner.busy_s", "s/round"),
    def("partitioner.solver_bytes_frac", "frac"),
    def("codecs.deflate_compress_mbps", "MB/s"),
    def("codecs.deflate_decompress_mbps", "MB/s"),
    def("codecs.bwt_compress_mbps", "MB/s"),
    def("codecs.bwt_decompress_mbps", "MB/s"),
    def("store.put_wait_s", "s/round"),
    def("store.close_s", "s/round"),
    def("store.overlap", "x"),
    def("store.open_s", "s/round"),
    def("store.get_busy_s", "s/round"),
    def("server.lock_wait_share", "frac"),
    def("server.store_put_share", "frac"),
    def("server.wal_fsync_share", "frac"),
    def("server.commit_share", "frac"),
    def("server.payload_read_share", "frac"),
    def("server.busy_retries_per_put", "count"),
    def("server.commits", "count/round"),
    def("server.wire_lock_s", "s/round"),
    def("core.wal_append_p50_ms", "ms"),
    def("core.wal_append_p99_ms", "ms"),
    def("core.store_put_busy_s", "s/round"),
    def("core.commit_max_ms", "ms"),
    def("core.get_committed_p50_ms", "ms"),
    def("core.get_overlay_hit_frac", "frac"),
    def("trace.overhead_frac", "frac"),
];

/// Whether `name` matches `[A-Za-z0-9_.-]+` and starts with a letter
/// or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }

    /// Set every name of `defs` not yet recorded to 0: the layer was
    /// not driven by this workload.
    pub fn fill_unmeasured(&mut self, defs: &[MetricDef]) {
        for d in defs {
            self.values.entry(d.name).or_insert(0.0);
        }
    }
}

/// The final JSON line: `correct`, `attempted`, `failed`, and exactly
/// the metrics of `defs`, each with its unit. Fails when a metric is
/// missing, extra, or not a finite number.
pub fn result_line(
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    metrics: &Metrics,
) -> Result<String, String> {
    if let Some(extra) = metrics.names().find(|n| defs.iter().all(|d| d.name != *n)) {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut body = String::new();
    for (i, d) in defs.iter().enumerate() {
        let value = metrics
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        if i > 0 {
            body.push_str(", ");
        }
        // `{}` on f64 prints the shortest round-trip decimal, never an
        // exponent, so every digit survives as valid JSON.
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, value, d.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0 && attempted > 0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_matches_the_pattern_and_is_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are unique");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn result_line_requires_exactly_the_catalogue() {
        let defs = &END_TO_END[..2];
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        assert!(result_line(1, 0, defs, &m).is_err(), "missing metric");
        m.set("peak_rss_mb", 12.25);
        let line = result_line(3, 0, defs, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 12.25, \"unit\": \"MB\"}}}"
        );
        m.set("ratio", 2.0);
        assert!(result_line(1, 0, defs, &m).is_err(), "extra metric");
    }
}
