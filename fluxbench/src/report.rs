//! The metric catalog and the result line.

/// A metric's name and unit, as `BENCHMARK.json` declares them.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, printed by the timed run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("ack_p50_ms", "ms"),
    ("mean_error_m", "m"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    ("fluxd.request_decode_ns", "ns"),
    ("fluxd.response_encode_ns", "ns"),
    ("fluxd.bytes_in_per_round", "B"),
    ("fluxd.bytes_out_per_round", "B"),
    ("fluxd.acks_per_read", "count"),
    ("fluxd.credit_waits", "count"),
    ("fluxd.residence_us_p50", "us"),
    ("ack.p90_ms", "ms"),
    ("ack.p99_ms", "ms"),
    ("ack.tail_ms", "ms"),
    ("ack.samples", "count"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("loadgen.rounds_offered", "count"),
    ("loadgen.rounds_acked", "count"),
    ("grid.submit_ns", "ns"),
    ("grid.drain_ms_p50", "ms"),
    ("grid.drain_ms_p99", "ms"),
    ("grid.rounds_per_drain", "count"),
    ("grid.parallel_efficiency", "fraction"),
    ("grid.peak_resident_sessions", "count"),
    ("grid.hibernated_bytes_per_session", "B"),
    ("grid.evictions_per_round", "1/round"),
    ("grid.revivals_per_round", "1/round"),
    ("checkpoint.compact_encode_us", "us"),
    ("checkpoint.compact_decode_us", "us"),
    ("checkpoint.compact_bytes", "B"),
    ("session.ingest_us", "us"),
    ("session.self_us", "us"),
    ("smc.step_us", "us"),
    ("smc.samples_predicted_per_round", "1/round"),
    ("smc.frozen_fraction", "fraction"),
    ("smc.degenerate_fallbacks_per_round", "1/round"),
    ("solver.evals_per_round", "1/round"),
    ("solver.combo_evals_per_round", "1/round"),
    ("solver.us_per_eval", "us"),
    ("solver.gram_builds_per_round", "1/round"),
    ("solver.cols_reused_per_round", "1/round"),
    ("linalg.nnls_solves_per_round", "1/round"),
    ("linalg.nnls_warm_hit_rate", "fraction"),
    ("fluxpar.tasks_per_round", "1/round"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "fraction"),
];

/// One run's result: the metrics of its mode plus the self-check verdict.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name, in catalog order once complete.
    pub values: Vec<(&'static str, f64)>,
    /// Rounds (operations) attempted.
    pub attempted: u64,
    /// Rounds that failed or were refused.
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
    /// Measured figures that are not metrics of the mode, for the log.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records a check failure.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Orders the values as `catalog` lists them, flagging any metric that
    /// is missing, extra or not a finite number.
    pub fn finish(&mut self, catalog: &[Metric]) {
        let mut ordered = Vec::with_capacity(catalog.len());
        for &(name, _) in catalog {
            match self.values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => ordered.push((name, v)),
                Some(_) => {
                    self.problems.push(format!("{name} is not finite"));
                    ordered.push((name, 0.0));
                }
                None => self.problems.push(format!("{name} was not measured")),
            }
        }
        for (name, _) in &self.values {
            if !catalog.iter().any(|(n, _)| n == name) {
                self.problems.push(format!("{name} is not in the catalog"));
            }
        }
        self.values = ordered;
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self, catalog: &[Metric]) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|&(name, value)| {
                let unit = catalog
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |(_, u)| u);
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(json: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        json[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalog: &[Metric]) -> Vec<(String, String)> {
        catalog
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let json = benchmark_json();
        let workloads: Vec<&str> = json["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn finish_flags_missing_extra_and_non_finite_metrics() {
        let catalog: &[Metric] = &[("a", "s"), ("b", "ms"), ("c", "B")];
        let mut report = Report::default();
        report.set("b", 2.0);
        report.set("a", 1.5);
        report.set("c", f64::NAN);
        report.set("z", 3.0);
        report.finish(catalog);
        let names: Vec<&str> = report.values.iter().map(|v| v.0).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(report.problems.len(), 2, "{:?}", report.problems);
        assert!(!report.correct());
        let line = report.json(catalog);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"a\":{\"value\":1.5,\"unit\":\"s\"}"));
        serde_json::from_str::<serde_json::Value>(&line).expect("result line is JSON");
    }
}
