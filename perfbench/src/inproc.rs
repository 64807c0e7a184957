//! Shared by the in-process workloads: the threaded runtime they run
//! on, and the per-layer numbers read from its counters and trace.

use taskrt::{ExecMode, Runtime, RuntimeConfig, Trace};

/// Worker threads: the driver thread runs tasks while it waits, so
/// workers plus driver use every CPU and no more.
pub fn workers() -> usize {
    crate::host::nproc().saturating_sub(1).max(1)
}

/// The threaded runtime a user gets by default; with `obs` false,
/// metrics and telemetry are off.
pub fn runtime(obs: bool) -> Runtime {
    Runtime::with_config(RuntimeConfig {
        mode: ExecMode::Threads(workers()),
        nested_mode: ExecMode::Inline,
        metrics: obs,
        telemetry: obs,
        ..RuntimeConfig::default()
    })
}

/// `linalg::pool` hit/miss counters at one instant.
#[derive(Clone, Copy)]
pub struct PoolMark(u64, u64);

impl PoolMark {
    pub fn now() -> Self {
        let (hits, misses, _) = linalg::pool::global_stats();
        PoolMark(hits, misses)
    }

    /// Hit ratio of the pool since `self`.
    pub fn hit_ratio_since(self) -> f64 {
        let now = Self::now();
        let (h, m) = (now.0 - self.0, now.1 - self.1);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Task-body seconds by kind, summed over top-level records (a nested
/// task's body already contains its children's).
fn body_s(trace: &Trace, kind: impl Fn(&str) -> bool) -> f64 {
    trace
        .records
        .iter()
        .filter(|r| kind(&r.name))
        .map(|r| r.duration_s)
        .sum()
}

/// Per-layer numbers of one finished job on `rt`; `wall_s` is the job's
/// wall time and `pool` the pool counters at its start.
pub fn layers(rt: &Runtime, wall_s: f64, pool: PoolMark) -> Vec<(&'static str, f64)> {
    let pool_hit = pool.hit_ratio_since();
    // Count before `finish`, whose barrier submits a marker.
    let tasks = rt.task_count() as f64;
    let trace = rt.finish();
    let stats = rt.stats();
    let tables = rt.table_stats();
    let workers = workers() as f64;
    let total = body_s(&trace, |_| true);
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    vec![
        ("body.pca_eigh_s", body_s(&trace, |k| k == "pca_eigh")),
        ("body.ds_gram_s", body_s(&trace, |k| k == "ds_gram")),
        (
            "body.rf_build_tree_s",
            body_s(&trace, |k| k == "rf_build_tree"),
        ),
        ("body.csvm_s", body_s(&trace, |k| k.starts_with("csvm_"))),
        ("body.cnn_fold_s", body_s(&trace, |k| k == "cnn_fold")),
        ("body.knn_query_s", body_s(&trace, |k| k == "knn_query")),
        ("body.total_s", total),
        ("runtime.tasks", tasks),
        (
            "runtime.overhead_us_per_task",
            per((wall_s * (workers + 1.0) - total) * 1e6, tasks),
        ),
        (
            "runtime.queue_wait_us",
            per(stats.queue_wait_s * 1e6, stats.queued_tasks as f64),
        ),
        (
            "runtime.worker_idle_frac",
            per(stats.worker_idle_s, wall_s * workers),
        ),
        ("runtime.driver_stall_s", stats.driver_stall_s),
        (
            "runtime.inout_steal_ratio",
            per(
                stats.inout_steals as f64,
                (stats.inout_steals + stats.inout_copies) as f64,
            ),
        ),
        ("runtime.peak_in_flight", tables.peak_in_flight as f64),
        ("pool.hit_ratio", pool_hit),
    ]
}
