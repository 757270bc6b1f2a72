//! Metric names, units, order statistics, and the result line.
//!
//! `BENCHMARK.json` at the repo root is the contract; the two tables
//! here are the harness's copy of its metric names and units, in the
//! same order. `--smoke` checks that the two agree (see `suite.rs`).

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, emitted by every workload
/// with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("ingest_points_per_s", "1/s"),
    ("recall", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, emitted by every workload
/// with `--trace 1`. A layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("family.query_hash_us", "us"),
    ("family.data_hash_us", "us"),
    ("family.k", "count"),
    ("family.l", "count"),
    ("table.build_s", "s"),
    ("table.candidates_us", "us"),
    ("table.walk_self_us", "us"),
    ("table.tables_probed", "count"),
    ("table.candidates_retrieved", "count"),
    ("table.distinct_candidates", "count"),
    ("table.duplicates", "count"),
    ("table.dup_ratio", "ratio"),
    ("kernels.verify_ns_per_candidate", "ns"),
    ("kernels.candidates_per_call", "count"),
    ("frontend.query_us", "us"),
    ("frontend.verify_self_us", "us"),
    ("frontend.distance_computations", "count"),
    ("frontend.useful_ratio", "ratio"),
    ("frontend.retrieval_limit", "count"),
    ("dynamic.candidates_us", "us"),
    ("dynamic.sealed_segments", "count"),
    ("dynamic.delta_rows", "count"),
    ("dynamic.tombstones", "count"),
    ("dynamic.seal_ms", "ms"),
    ("dynamic.compact_ms", "ms"),
    ("shard.snapshot_ns", "ns"),
    ("shard.candidates_us", "us"),
    ("shard.new_scratch_us", "us"),
    ("shard.epochs_published", "count"),
    ("batch.apply_us", "us"),
    ("batch.ops_per_commit", "count"),
    ("batch.noop_commits", "count"),
    ("protocol.encode_request_ns", "ns"),
    ("protocol.decode_request_ns", "ns"),
    ("protocol.encode_response_ns", "ns"),
    ("protocol.decode_response_ns", "ns"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("server.info_rtt_us", "us"),
    ("server.query_rtt_us", "us"),
    ("server.residual_us", "us"),
    ("server.error_responses", "count"),
    ("client.verify_us", "us"),
    ("client.query_p50_us", "us"),
    ("client.query_p99_us", "us"),
    ("client.query_p999_us", "us"),
    ("client.write_batch_p50_us", "us"),
    ("client.write_batch_p99_us", "us"),
    ("client.pinned", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.ledger_gap_share", "ratio"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// All correctness checks passed.
    pub correct: bool,
    /// Operations attempted (requests, batch passes' queries, sweep rows).
    pub attempted: u64,
    /// I/O or status errors plus answers violating the query contract.
    pub failed: u64,
    /// Gated or per-layer metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Informational `key value` facts printed beside the metrics
    /// (sample counts, checkpoint checksums, parameters).
    pub info: Vec<(String, String)>,
    /// Human-readable reasons `correct` is false.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// A correctness check: unless `ok`, the run is incorrect and `what`
    /// says why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// The run's value of `name`, if it was measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The human-readable lines (`workload metric value unit`, then the
    /// informational facts), followed by the one-line JSON result the
    /// driver reads. `schema` fixes which metrics appear and in which
    /// order; one the workload did not measure is a harness bug.
    pub fn render(&self, workload: &str, schema: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::new();
        let mut json = String::new();
        for (i, &(name, unit)) in schema.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("{workload}: metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("{workload}: metric {name} is {value}"));
            }
            writeln!(out, "{workload} {name} {value} {unit}").ok();
            if i > 0 {
                json.push_str(", ");
            }
            write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .ok();
        }
        for (key, value) in &self.info {
            writeln!(out, "{workload} info.{key} {value} -").ok();
        }
        for problem in &self.problems {
            writeln!(out, "{workload} PROBLEM {problem}").ok();
        }
        writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct, self.attempted, self.failed
        )
        .ok();
        Ok(out)
    }
}

/// Median of a sample (sorts it); the mean of the middle two when the
/// count is even.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    quantile_us(ns, 0.5)
}

/// `p`-quantile (nearest rank) of nanosecond samples, in microseconds;
/// 0 for an empty sample.
pub fn quantile_us(ns: &[u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let us: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    dsh_math::stats::percentile(&us, p)
}

/// Mean of a count over queries.
pub fn mean(total: u64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the definition the driver applies to ten runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j-th of the n+1 gaps, clamped to the sample.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median_us(&[3000, 1000, 2000]), 2.0);
        assert_eq!(quantile_us(&[], 0.99), 0.0);
    }
}
