//! Metric names, run metadata and the output schema.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports every [`END_TO_END`] metric; a traced run every
//! [`PER_LAYER`] metric. The lines before it are a human-readable table
//! (value, unit, sample median, interquartile spread and sample count)
//! and the run metadata.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Summary;

/// End-to-end metrics, reported by every workload (see the README for
/// how each one is read on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gstg_frame_ms_p50", "ms"),
    ("gstg_frame_ms_p90", "ms"),
    ("baseline_frame_ms_p50", "ms"),
    ("baseline_frame_ms_p90", "ms"),
    ("render_latency_ms_p50", "ms"),
    ("render_latency_ms_p99", "ms"),
    ("render_slo_attainment", "share"),
    ("stream_first_frame_ms_p50", "ms"),
    ("stream_frame_gap_ms_p50", "ms"),
    ("stream_frame_gap_ms_p99", "ms"),
    ("stream_fps", "1/s"),
];

/// Per-layer metrics, reported by the traced run of every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("render.preprocess_ms", "ms"),
    ("render.identify_ms", "ms"),
    ("render.sort_ms", "ms"),
    ("render.raster_ms", "ms"),
    ("render.tile_intersections", "count"),
    ("render.sort_keys", "count"),
    ("gstg.preprocess_ms", "ms"),
    ("gstg.identify_ms", "ms"),
    ("gstg.sort_ms", "ms"),
    ("gstg.raster_ms", "ms"),
    ("gstg.sort_keys", "count"),
    ("gstg.bitmask_tests", "count"),
    ("gstg.bitmask_filter_ops", "count"),
    ("core.alpha_computations", "count"),
    ("core.blend_operations", "count"),
    ("core.blend_per_alpha", "ratio"),
    ("core.early_exits", "count"),
    ("core.footprint_bytes", "bytes"),
    ("engine.register_ms", "ms"),
    ("engine.submit_us", "us"),
    ("engine.wait_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.completed", "count"),
    ("engine.rejected", "count"),
    ("engine.degraded", "count"),
    ("engine.queue_high_water", "count"),
    ("engine.scene_hits", "count"),
    ("lod.ladder_build_ms", "ms"),
    ("scene.encode_ms", "ms"),
    ("scene.decode_ms", "ms"),
    ("server.ttfb_ms", "ms"),
    ("server.body_ms", "ms"),
    ("server.parse_us", "us"),
    ("server.encode_us", "us"),
    ("server.digest_us", "us"),
    ("server.write_us", "us"),
    ("server.requests", "count"),
    ("server.ok", "count"),
    ("server.overloaded", "count"),
    ("server.bytes_out", "bytes"),
    ("server.generator_lateness_ms_p99", "ms"),
    ("trace.untraced_frame_ms", "ms"),
    ("trace.traced_frame_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("tradeoff.sort_keys_ratio", "ratio"),
    ("tradeoff.sort_ms_ratio", "ratio"),
    ("tradeoff.identify_ms_ratio", "ratio"),
    ("tradeoff.frame_ms_ratio", "ratio"),
];

/// The metric names one mode must report.
pub fn schema(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Outcome tallies and correctness failures of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failed one records why.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.fail(what());
        }
    }

    /// Counts `count` operations that succeeded.
    pub fn passed(&mut self, count: u64) {
        self.attempted += count;
    }

    /// Records a correctness failure that is not an operation (a
    /// reconciliation mismatch, an invalid measurement).
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 32 {
            self.failures.push(message);
        }
    }

    /// Checks that two counters agree exactly.
    pub fn reconcile(&mut self, name: &str, left: u64, right: u64) {
        if left != right {
            self.fail(format!("reconciliation: {name}: {left} != {right}"));
        }
    }
}

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Summary>,
}

impl Metrics {
    fn set(&mut self, name: &'static str, summary: Summary) {
        self.values.insert(name, summary);
    }

    /// Sets a metric from its samples, reporting their `quantile`.
    pub fn percentile(&mut self, name: &'static str, samples: &[f64], quantile: f64) {
        if let Some(summary) = Summary::percentile(samples, quantile) {
            self.set(name, summary);
        }
    }

    pub fn single(&mut self, name: &'static str, value: f64, n: usize) {
        self.set(name, Summary::single(value, n));
    }

    /// Merges per-round metrics: each metric's value is the median of its
    /// round values, its quartiles are theirs, and its sample count is
    /// the total over the rounds.
    pub fn merge_rounds(&mut self, rounds: &[Metrics]) {
        let mut names: Vec<&'static str> = rounds
            .iter()
            .flat_map(|r| r.values.keys().copied())
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let values: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.values.get(name))
                .map(|s| s.value)
                .collect();
            let n = rounds
                .iter()
                .filter_map(|r| r.values.get(name))
                .map(|s| s.n)
                .sum();
            if let Some(summary) = Summary::percentile(&values, 0.5) {
                self.set(name, Summary { n, ..summary });
            }
        }
    }

    /// Names of `schema` metrics that are missing or not finite.
    pub fn missing(&self, schema: &[(&str, &str)]) -> Vec<String> {
        schema
            .iter()
            .filter(|(name, _)| !self.values.get(name).is_some_and(|s| s.value.is_finite()))
            .map(|(name, _)| (*name).to_string())
            .collect()
    }

    /// The human-readable table for `schema`.
    pub fn table(&self, schema: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{:<34} {:>14} {:<6} {:>14} {:>9} {:>7}\n",
            "metric", "value", "unit", "median", "iqr/med", "n"
        );
        for (name, unit) in schema {
            if let Some(s) = self.values.get(name) {
                let _ = writeln!(
                    out,
                    "{name:<34} {:>14.4} {unit:<6} {:>14.4} {:>8.1}% {:>7}",
                    s.value,
                    s.median,
                    100.0 * s.spread(),
                    s.n
                );
            }
        }
        out
    }

    /// The final result line, restricted to `schema`'s metrics.
    pub fn result_line(&self, schema: &[(&str, &str)], tally: &Tally, correct: bool) -> String {
        let metrics: Vec<String> = schema
            .iter()
            .filter_map(|(name, unit)| {
                let value = self.values.get(name)?.value;
                Some(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(value)
                ))
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            tally.attempted.max(1),
            tally.failed,
            metrics.join(",")
        )
    }

    /// Sample counts behind each reported metric, for the metadata block.
    pub fn sample_counts(&self, schema: &[(&str, &str)]) -> String {
        let counts: Vec<String> = schema
            .iter()
            .filter_map(|(name, _)| Some(format!("\"{name}\":{}", self.values.get(name)?.n)))
            .collect();
        format!("{{{}}}", counts.join(","))
    }
}

/// A finite float in full precision (Rust's shortest round-trip form);
/// non-finite values cannot be JSON and are reported as 0.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        let text = format!("{value}");
        if text.contains(['.', 'e', 'E']) {
            text
        } else {
            format!("{text}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and build facts that every result carries.
pub struct RunMetadata {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_commit: String,
}

impl RunMetadata {
    /// Reads the host facts from the running system and the checkout the
    /// benchmark runs in (the commit is unknown outside a git checkout).
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The commit `HEAD` names in `./.git`, read without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|line| {
            let (commit, name) = line.split_once(' ')?;
            (name == reference).then(|| commit.to_string())
        })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(schema: &[(&'static str, &str)]) -> Metrics {
        let mut metrics = Metrics::default();
        for (index, (name, _)) in schema.iter().enumerate() {
            metrics.single(name, 1.5 + index as f64, 3);
        }
        metrics
    }

    #[test]
    fn schema_names_are_unique_and_well_formed() {
        for schema in [END_TO_END, PER_LAYER] {
            let mut names: Vec<&str> = schema.iter().map(|(name, _)| *name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), schema.len());
            for (name, unit) in schema {
                assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
                assert!(!unit.is_empty() && unit.len() <= 16);
            }
        }
        assert_eq!(END_TO_END.len(), 13);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_reported() {
        let mut metrics = filled(END_TO_END);
        assert!(metrics.missing(END_TO_END).is_empty());
        metrics.single("stream_fps", f64::NAN, 1);
        assert_eq!(metrics.missing(END_TO_END), vec!["stream_fps".to_string()]);
        assert_eq!(Metrics::default().missing(PER_LAYER).len(), PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        for trace in [false, true] {
            let schema = schema(trace);
            let metrics = filled(schema);
            let tally = Tally {
                attempted: 10,
                failed: 0,
                failures: Vec::new(),
            };
            let line = metrics.result_line(schema, &tally, true);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{")
            );
            for (name, unit) in schema {
                assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
                assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
            }
            let parsed = splat_server::parse_json(&line).expect("valid JSON");
            let object = parsed.get("metrics").expect("metrics object");
            for (name, _) in schema {
                assert!(object.get(name).and_then(|m| m.get("value")).is_some());
            }
        }
    }

    #[test]
    fn rounds_merge_to_their_median_with_all_samples() {
        let rounds: Vec<Metrics> = [3.0, 1.0, 200.0]
            .into_iter()
            .map(|value| {
                let mut metrics = Metrics::default();
                metrics.single("stream_fps", value, 10);
                metrics
            })
            .collect();
        let mut merged = Metrics::default();
        merged.merge_rounds(&rounds);
        let summary = merged.values.get("stream_fps").expect("merged");
        assert_eq!((summary.value, summary.n), (3.0, 30));
        assert_eq!((summary.q1, summary.q3), (1.0, 200.0));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::INFINITY), "0.0");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn tally_counts_failures() {
        let mut tally = Tally::default();
        tally.op(true, || unreachable!());
        tally.passed(3);
        tally.op(false, || "bad digest".to_string());
        tally.reconcile("ok", 3, 3);
        tally.reconcile("completed", 3, 4);
        assert_eq!((tally.attempted, tally.failed), (5, 1));
        assert_eq!(tally.failures.len(), 2);
    }
}
