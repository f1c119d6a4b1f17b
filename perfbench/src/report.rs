//! The metric catalogue and the result line.
//!
//! Every run prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! (`--trace 0`) reports every end-to-end metric; a traced run
//! (`--trace 1`) reports every per-layer metric. Each workload reports the
//! whole catalogue: a per-layer metric of a layer the workload never calls
//! reads 0. Lines before the result line name each workload's metrics as
//! the workload's users know them (for example `link_pairs_per_s`).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. `README.md` maps each to its
/// meaning on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("quality", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("blocking.index_build_ms", "ms"),
    ("blocking.probe_us_per_query", "us"),
    ("blocking.candidates_per_query", "count"),
    ("blocking.match_yield", "ratio"),
    ("live_index.upsert_us", "us"),
    ("live_index.snapshot_ms", "ms"),
    ("live_index.rebuilds_per_link", "ratio"),
    ("encode.us_per_pair_cold", "us"),
    ("encode.us_per_pair_warm", "us"),
    ("encode.cache_hit_rate", "ratio"),
    ("encode.matrix_mb", "MB"),
    ("encode.interned_tokens", "count"),
    ("forward.us_per_pair", "us"),
    ("forward.flops_per_pair", "flop"),
    ("forward.gflops", "GFLOP/s"),
    ("forward.classifier_flop_share", "ratio"),
    ("forward.classifier_gemm_share", "ratio"),
    ("gemm.gflops", "GFLOP/s"),
    ("pipeline.self_ms", "ms"),
    ("link.forward_share", "ratio"),
    ("link.encode_share", "ratio"),
    ("link.blocking_share", "ratio"),
    ("drift.assess_ms", "ms"),
    ("drift.share_of_engine", "ratio"),
    ("engine.link_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.backlog_end", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.write_p50_ms", "ms"),
    ("serve.low_rate_p50_ms", "ms"),
    ("serve.low_rate_p90_ms", "ms"),
    ("loadgen.lag_p90_ms", "ms"),
    ("train.encode_ms", "ms"),
    ("train.epoch_ms", "ms"),
    ("train.attention_ms", "ms"),
    ("mem.plan_pool.peak_mb", "MB"),
    ("mem.encode_cache.peak_mb", "MB"),
    ("mem.snapshot.peak_mb", "MB"),
    ("mem.graph.peak_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.base_ms", "ms"),
];

/// Bytes per MiB, for every `_mb` metric.
pub const MIB: f64 = 1024.0 * 1024.0;

/// One run's results: metric values, operation counts, failed checks.
pub struct Report {
    traced: bool,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

impl Report {
    /// An empty report for an untraced (`false`) or traced run. A traced
    /// report starts with every per-layer metric at 0.
    pub fn new(traced: bool) -> Self {
        let values = if traced {
            PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect()
        } else {
            BTreeMap::new()
        };
        Self { traced, values, lines: Vec::new(), attempted: 0, failed: 0, failures: Vec::new() }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Sets a metric of this run's catalogue. Metrics of the other
    /// catalogue are ignored, so a workload can set both unconditionally.
    ///
    /// # Panics
    ///
    /// On a name in neither catalogue: that is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalogue");
        if catalogue(self.traced).iter().any(|(n, _)| *n == name) {
            self.values.insert(name, value);
        }
    }

    /// Adds a human-readable line naming a workload-level metric.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name} = {value:.6} {unit}"));
    }

    /// Adds a free-form human-readable line.
    pub fn note_line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Counts one attempted operation; `ok = false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a failed output check; the run then reports
    /// `"correct": false` and counts one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.failures.push(what());
        }
    }

    /// Attempted operations so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed operations so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Renders the human lines followed by the result line. Missing or
    /// non-finite metrics make the run incorrect.
    pub fn render(&self, workload: &str) -> String {
        let mut failures = self.failures.clone();
        let mut metrics = Vec::new();
        for (name, unit) in catalogue(self.traced) {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    failures.push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    failures.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(&format!("[{workload}] {line}\n"));
        }
        for f in &failures {
            out.push_str(&format!("[{workload}] CHECK FAILED: {f}\n"));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            failures.is_empty() && self.failed == 0,
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
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn untraced_report_lists_exactly_the_end_to_end_metrics() {
        let mut r = Report::new(false);
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.set("forward.gflops", 3.0); // other catalogue: ignored
        r.op(true);
        let out = r.render("w");
        let last = out.lines().last().expect("result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(!last.contains("forward.gflops"));
        assert_eq!(last.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn missing_metric_or_failed_check_makes_the_run_incorrect() {
        let mut r = Report::new(false);
        r.set("setup_s", 1.0);
        assert!(r.render("w").lines().last().expect("line").contains("\"correct\": false"));

        let mut r = Report::new(true);
        r.check(false, || "digest differs".into());
        let out = r.render("w");
        assert!(out.contains("CHECK FAILED: digest differs"));
        assert!(out.lines().last().expect("line").contains("\"failed\": 1"));
    }
}
