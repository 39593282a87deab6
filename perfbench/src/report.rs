//! Metric names, the per-run report and the final JSON line.
//!
//! The expected names are fixed here, once: a run that fails to produce one
//! of them is marked incorrect rather than printing a short result, and the
//! tests compare these lists with `BENCHMARK.json`.

use std::fmt::Write as _;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["sim-d4", "predict-d4"];

/// End-to-end metrics `(name, unit)` every workload's untraced run prints.
/// `vector_ms` is one vector through the workload's single-vector call,
/// `group_vectors_per_s` the throughput of its call for a set of vectors.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("vector_ms", "ms"),
    ("group_vectors_per_s", "1/s"),
];

/// Inference precisions, in the order their metrics are named.
pub const PRECISIONS: [&str; 3] = ["f32", "f16", "int8"];

/// Per-layer metrics `(name, unit)` every traced run prints.
pub fn per_layer_expected() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("grid.build_ms", "ms"),
        ("grid.stamp_ms", "ms"),
        ("grid.nodes", "count"),
        ("sparse.analyze_ms", "ms"),
        ("sparse.factor_ms", "ms"),
        ("sparse.nnz_l", "count"),
        ("sparse.supernodes", "count"),
        ("sparse.solve_k1_ms", "ms"),
        ("sparse.solve_k4_ms_per_rhs", "ms"),
        ("sparse.solve_gbps_computed", "GB/s"),
        ("sim.run_s", "s"),
        ("sim.batch4_s_per_vector", "s"),
        ("sim.cg_iterations_per_step", "count"),
        ("sim.solve_share", "ratio"),
        ("compress.spatial_ms", "ms"),
        ("compress.temporal_us", "us"),
        ("compress.kept_maps", "count"),
        ("features.distance_ms", "ms"),
        ("model.stats_ms", "ms"),
        ("model.macs_per_map", "count"),
    ];
    let per_precision: &[(&str, &str)] = &[
        ("model.fusion_ms_per_map", "ms"),
        ("model.prediction_ms", "ms"),
        ("model.distance_ms", "ms"),
        ("model.unattributed_ms", "ms"),
        ("model.predict_ms", "ms"),
    ];
    let serve: &[(&str, &str)] = &[
        ("serve.predict_p50_ms", "ms"),
        ("serve.predict_p95_ms", "ms"),
        ("serve.simulate_p50_ms", "ms"),
        ("serve.queue_ms_p50", "ms"),
        ("serve.compute_ms_p50", "ms"),
        ("serve.batch_width_mean", "count"),
        ("serve.http_ms_p50", "ms"),
        ("serve.parse_ms", "ms"),
        ("serve.encode_ms", "ms"),
        ("serve.simulate_queue_ms_p50", "ms"),
        ("serve.generator_lag_ms_p95", "ms"),
        ("serve.rejected", "count"),
        ("serve.errors", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for &(n, u) in per_precision {
        out.extend(PRECISIONS.iter().map(|p| (format!("{n}.{p}"), u)));
    }
    out.extend(serve.iter().map(|&(n, u)| (n.to_string(), u)));
    for op in ["counter_add", "observe", "span"] {
        out.extend(
            ["t1", "t2"]
                .iter()
                .map(|t| (format!("telemetry.{op}_ns.{t}"), "ns")),
        );
    }
    out.push(("trace.overhead_pct".to_string(), "%"));
    out.push(("trace.spans".to_string(), "count"));
    out
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Everything one run reports: operation counts, failed checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(String, String, f64)>,
}

impl Report {
    /// Counts `n` attempted operations.
    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a check; a failed one counts as a failed operation and its
    /// message is printed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Number of failed checks so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Sets a metric (a later value for the same name replaces it).
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), unit.to_string(), value));
    }

    /// Looks a metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// Renders the final result line with exactly the `expected` metrics.
    /// A missing, non-finite or misnamed expected metric is a failed check.
    pub fn finish(mut self, expected: &[(String, &str)]) -> (String, bool) {
        let mut body = String::new();
        for (name, unit) in expected {
            let value = self.get(name);
            let ok = valid_name(name) && value.is_some_and(f64::is_finite);
            self.check(ok, || {
                format!("metric {name} missing or not finite: {value:?}")
            });
            if !body.is_empty() {
                body.push(',');
            }
            let shown = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            let _ = write!(
                body,
                "\"{name}\":{{\"value\":{shown:?},\"unit\":\"{unit}\"}}"
            );
        }
        let failed = self.failed();
        let correct = failed == 0;
        let line = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{body}}}}}",
            self.attempted.max(1),
        );
        (line, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric name the benchmark's specification lists, verbatim,
    /// except two kinds of rename. Every workload prints every end-to-end
    /// metric, so the workload-specific ones are shared: `vector_ms` stands
    /// for `sim_vector_s` and `predict_f32_ms`, `group_vectors_per_s` for
    /// `sim_group_vectors_per_s`; whole f16 and int8 predicts are the per-layer
    /// `model.predict_ms.*`. The served latencies are per-layer metrics
    /// of the traced run's serve session (`serve.predict_p50_ms` for the
    /// specification's `serve_predict_p50_ms`, and so on) rather than
    /// end-to-end metrics of a gated workload of their own.
    const LISTED: &[&str] = &[
        "setup_s",
        "peak_rss_mb",
        "vector_ms",
        "group_vectors_per_s",
        "serve.predict_p50_ms",
        "serve.predict_p95_ms",
        "serve.simulate_p50_ms",
        "grid.build_ms",
        "grid.stamp_ms",
        "grid.nodes",
        "sparse.analyze_ms",
        "sparse.factor_ms",
        "sparse.nnz_l",
        "sparse.supernodes",
        "sparse.solve_k1_ms",
        "sparse.solve_k4_ms_per_rhs",
        "sparse.solve_gbps_computed",
        "sim.run_s",
        "sim.batch4_s_per_vector",
        "sim.cg_iterations_per_step",
        "sim.solve_share",
        "compress.spatial_ms",
        "compress.temporal_us",
        "compress.kept_maps",
        "features.distance_ms",
        "model.fusion_ms_per_map.f32",
        "model.fusion_ms_per_map.f16",
        "model.fusion_ms_per_map.int8",
        "model.stats_ms",
        "model.prediction_ms.f32",
        "model.prediction_ms.f16",
        "model.prediction_ms.int8",
        "model.distance_ms.f32",
        "model.distance_ms.f16",
        "model.distance_ms.int8",
        "model.unattributed_ms.f32",
        "model.unattributed_ms.f16",
        "model.unattributed_ms.int8",
        "model.predict_ms.f32",
        "model.predict_ms.f16",
        "model.predict_ms.int8",
        "model.macs_per_map",
        "serve.queue_ms_p50",
        "serve.compute_ms_p50",
        "serve.batch_width_mean",
        "serve.http_ms_p50",
        "serve.parse_ms",
        "serve.encode_ms",
        "serve.simulate_queue_ms_p50",
        "serve.generator_lag_ms_p95",
        "serve.rejected",
        "serve.errors",
        "telemetry.counter_add_ns.t1",
        "telemetry.counter_add_ns.t2",
        "telemetry.observe_ns.t1",
        "telemetry.observe_ns.t2",
        "telemetry.span_ns.t1",
        "telemetry.span_ns.t2",
    ];

    fn all_names() -> Vec<String> {
        let mut names: Vec<String> = per_layer_expected().into_iter().map(|(n, _)| n).collect();
        names.extend(E2E.iter().map(|(n, _)| n.to_string()));
        names
    }

    #[test]
    fn every_metric_name_is_valid() {
        for name in all_names() {
            assert!(valid_name(&name), "{name}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn every_listed_name_is_expected_in_some_output() {
        let names = all_names();
        for listed in LISTED {
            assert!(
                names.iter().any(|n| n == listed),
                "{listed} is never printed"
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = pdn_eval::jsonl::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = E2E
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_expected()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn finish_marks_a_missing_metric_as_a_failed_check() {
        let expected = vec![("a_ms".to_string(), "ms"), ("b_ms".to_string(), "ms")];
        let mut r = Report::default();
        r.attempted(3);
        r.metric("a_ms", "ms", 1.5);
        let (line, correct) = r.finish(&expected);
        assert!(!correct);
        assert!(
            line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"),
            "{line}"
        );

        let mut r = Report::default();
        r.attempted(2);
        r.metric("a_ms", "ms", 1.5);
        r.metric("b_ms", "ms", 0.25);
        let (line, correct) = r.finish(&expected);
        assert!(correct);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":{\"a_ms\":{\"value\":1.5,\
             \"unit\":\"ms\"},\"b_ms\":{\"value\":0.25,\"unit\":\"ms\"}}}"
        );
    }
}
