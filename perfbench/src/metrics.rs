//! The benchmark's metric catalog: every name it reports, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step. What each per-layer metric should move, and on
//! which workload, is in `perfbench/METRICS.md`.

/// End-to-end metrics (`--trace 0`), measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tasks_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("accuracy.rf", "ratio"),
    ("accuracy.csvm", "ratio"),
    ("accuracy.knn", "ratio"),
    ("accuracy.cnn", "ratio"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ecg.features_s", "s"),
    ("dislib.pca.fit_s", "s"),
    ("dislib.pca.transform_s", "s"),
    ("dislib.rf.cv_s", "s"),
    ("dislib.csvm.cv_s", "s"),
    ("dislib.knn.cv_s", "s"),
    ("nnet.cnn.cv_s", "s"),
    ("body.pca_eigh_s", "s"),
    ("body.ds_gram_s", "s"),
    ("body.rf_build_tree_s", "s"),
    ("body.csvm_s", "s"),
    ("body.cnn_fold_s", "s"),
    ("body.knn_query_s", "s"),
    ("body.total_s", "s"),
    ("runtime.tasks", "count"),
    ("runtime.submit_s", "s"),
    ("runtime.wait_s", "s"),
    ("runtime.overhead_us_per_task", "us"),
    ("runtime.queue_wait_us", "us"),
    ("runtime.worker_idle_frac", "ratio"),
    ("runtime.driver_stall_s", "s"),
    ("runtime.inout_steal_ratio", "ratio"),
    ("runtime.peak_in_flight", "count"),
    ("runtime.speedup_vs_inline", "ratio"),
    ("obs.overhead_frac", "ratio"),
    ("pool.hit_ratio", "ratio"),
    ("dist.launch_s", "s"),
    ("dist.shutdown_s", "s"),
    ("dist.body_s", "s"),
    ("dist.overhead_ms_per_task", "ms"),
    ("dist.peer_pulls", "count"),
    ("dist.peer_pull_bytes", "bytes"),
    ("dist.relay_bytes", "bytes"),
    ("dist.fetch_failures", "count"),
    ("dist.retries", "count"),
    ("dist.des_makespan_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.explained_frac", "ratio"),
];

/// Span names recorded inside a job, and the per-layer metric that
/// sums their durations.
pub const SPAN_METRICS: &[(&str, &str)] = &[
    ("ecg.features", "ecg.features_s"),
    ("dislib.pca.fit", "dislib.pca.fit_s"),
    ("dislib.pca.transform", "dislib.pca.transform_s"),
    ("dislib.rf.cv", "dislib.rf.cv_s"),
    ("dislib.csvm.cv", "dislib.csvm.cv_s"),
    ("dislib.knn.cv", "dislib.knn.cv_s"),
    ("nnet.cnn.cv", "nnet.cnn.cv_s"),
    ("runtime.submit", "runtime.submit_s"),
    ("runtime.wait", "runtime.wait_s"),
];

/// A metric name as the result format allows it: starts with a letter
/// or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit as the result format allows it: at most 16 of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskrt::json::Value;

    #[test]
    fn name_rules() {
        for good in [
            "wall_s",
            "accuracy.rf",
            "runtime.overhead_us_per_task",
            "9x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "wall(s)", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ratio"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for (_, metric) in SPAN_METRICS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .expect("metric list")
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k| m.field(k).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }
}
