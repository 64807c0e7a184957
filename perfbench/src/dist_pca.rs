//! `dist_pca`: `dislib::pca_plan` over `taskrt::dist` on a seeded
//! 65536×64 matrix in 2048-row bands, k = 8, on a freshly launched
//! cluster of worker processes each job (`DistRuntime` runs one plan per
//! cluster).
//!
//! The wire codec, the peer/relay data plane and per-task dispatch RPCs
//! do the work; the 64×64 eigensolve is negligible. (The `dist` bin's
//! d = 256 shape is avoided: there `dpca_eigh` dominates and this
//! workload would measure `eigh` a second time.)

use crate::rng::SplitMix;
use crate::spans::Spans;
use crate::{JobOut, Workload};
use dislib::pca_dist::{pca_plan, register_pca_kinds};
use linalg::Matrix;
use std::sync::Arc;
use std::time::Instant;
use taskrt::dist::{fingerprint, DistConfig, DistReport, DistRuntime, KindRegistry, Plan};
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::telemetry::divergence;

const ROWS: usize = 65536;
const COLS: usize = 64;
const BLOCK_ROWS: usize = 2048;
const K: usize = 8;
/// Per-task driver dispatch cost fed to the DES replay: the `dist`
/// bin's constant, so `dist.des_makespan_ratio` reads on the same scale.
const DISPATCH_OVERHEAD_S: f64 = 800e-6;

/// The kind registry shared by the driver and its worker processes.
pub fn registry() -> Arc<KindRegistry> {
    let mut reg = KindRegistry::new();
    register_pca_kinds(&mut reg);
    Arc::new(reg)
}

/// Worker processes: nproc, and at least two so that peer-to-peer
/// pulls happen.
fn workers() -> usize {
    crate::host::nproc().max(2)
}

/// Columns with distinct scales, so the covariance has a clear
/// spectrum.
fn input_matrix(seed: u64) -> Matrix {
    let mut g = SplitMix::new(seed);
    let scale: Vec<f64> = (0..COLS).map(|c| 1.0 / (1.0 + c as f64 / 8.0)).collect();
    let data = (0..ROWS * COLS)
        .map(|i| g.normal() * scale[i % COLS])
        .collect();
    Matrix::from_vec(ROWS, COLS, data)
}

pub struct DistPca {
    seed: u64,
    registry: Arc<KindRegistry>,
    oracle: Vec<u8>,
    inline_wall_s: f64,
}

pub struct Ready {
    plan: Plan,
    rt: DistRuntime,
    launch_s: f64,
}

pub struct Done {
    plan_len: usize,
    rt: DistRuntime,
    report: Result<DistReport, String>,
    launch_s: f64,
}

impl DistPca {
    /// Runs the plan inline once: the fingerprint oracle.
    pub fn new(seed: u64, registry: Arc<KindRegistry>) -> Self {
        let (plan, _) = pca_plan(&input_matrix(seed), BLOCK_ROWS, K);
        let t = Instant::now();
        let inline = plan
            .run_inline(&registry)
            .expect("inline PCA plan runs on generated inputs");
        let inline_wall_s = t.elapsed().as_secs_f64();
        DistPca {
            seed,
            registry,
            oracle: fingerprint(&inline),
            inline_wall_s,
        }
    }
}

/// A distributed job is correct when its outputs are bit-identical to
/// the inline oracle and teardown left no worker and no socket behind.
pub fn verify(
    fp: &[u8],
    oracle: &[u8],
    shutdown: &taskrt::dist::ShutdownReport,
    workers: usize,
) -> Result<(), String> {
    if fp != oracle {
        return Err("distributed outputs differ from Plan::run_inline".into());
    }
    if shutdown.workers_spawned != workers || shutdown.workers_reaped != workers {
        return Err(format!(
            "reaped {} of {} workers ({} spawned)",
            shutdown.workers_reaped, workers, shutdown.workers_spawned
        ));
    }
    if !shutdown.sock_dir_removed {
        return Err("socket directory left behind".into());
    }
    Ok(())
}

fn report_layers(
    report: &DistReport,
    spec: &ClusterSpec,
    wall_s: f64,
    launch_s: f64,
    shutdown_s: f64,
) -> Vec<(&'static str, f64)> {
    let s = &report.stats;
    let body: f64 = report.trace.records.iter().map(|r| r.duration_s).sum();
    let tasks = report.trace.records.len() as f64;
    let sim = simulate(
        &report.trace,
        spec,
        &SimOptions {
            dispatch_overhead_s: DISPATCH_OVERHEAD_S,
            ..SimOptions::default()
        },
    );
    vec![
        ("body.total_s", body),
        ("runtime.tasks", tasks),
        ("dist.launch_s", launch_s),
        ("dist.shutdown_s", shutdown_s),
        ("dist.body_s", body),
        (
            "dist.overhead_ms_per_task",
            (wall_s * workers() as f64 - body) * 1e3 / tasks.max(1.0),
        ),
        ("dist.peer_pulls", s.peer_pulls as f64),
        ("dist.peer_pull_bytes", s.peer_pull_bytes as f64),
        ("dist.relay_bytes", s.relay_bytes as f64),
        ("dist.fetch_failures", s.fetch_failures as f64),
        ("dist.retries", s.retries as f64),
        (
            "dist.des_makespan_ratio",
            divergence(&report.trace, &sim).makespan_ratio,
        ),
    ]
}

impl Workload for DistPca {
    type Ready = Ready;
    type Done = Done;

    fn inline_wall_s(&self) -> f64 {
        self.inline_wall_s
    }

    fn in_process(&self) -> bool {
        false
    }

    fn setup(&self, _obs: bool, sp: &mut Spans) -> Ready {
        let (plan, _) = pca_plan(&input_matrix(self.seed), BLOCK_ROWS, K);
        let t = Instant::now();
        let rt = sp.span("dist.launch", |_| {
            DistRuntime::launch(DistConfig::with_workers(workers()), &self.registry)
                .expect("worker processes launch")
        });
        Ready {
            plan,
            rt,
            launch_s: t.elapsed().as_secs_f64(),
        }
    }

    fn job(&self, mut r: Ready, sp: &mut Spans) -> Done {
        let report = sp.span("dist.run", |_| r.rt.run(&r.plan, &self.registry));
        Done {
            plan_len: r.plan.len(),
            rt: r.rt,
            report,
            launch_s: r.launch_s,
        }
    }

    fn finish(&self, d: Done, wall_s: f64, sp: &mut Spans) -> JobOut {
        let spec = d.rt.cluster_spec();
        let t = Instant::now();
        let shutdown = sp.span("dist.shutdown", |_| d.rt.shutdown());
        let shutdown_s = t.elapsed().as_secs_f64();
        let (check, layers) = match &d.report {
            Err(e) => (Err(format!("distributed run failed: {e}")), Vec::new()),
            Ok(report) => (
                verify(
                    &fingerprint(&report.outputs),
                    &self.oracle,
                    &shutdown,
                    workers(),
                ),
                if sp.enabled() {
                    report_layers(report, &spec, wall_s, d.launch_s, shutdown_s)
                } else {
                    Vec::new()
                },
            ),
        };
        JobOut {
            tasks: d.plan_len as u64,
            accuracy: Vec::new(),
            check,
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskrt::dist::ShutdownReport;

    fn clean(workers: usize) -> ShutdownReport {
        ShutdownReport {
            workers_spawned: workers,
            workers_reaped: workers,
            workers_force_killed: 0,
            sock_dir_removed: true,
        }
    }

    #[test]
    fn altered_fingerprint_or_leak_fails() {
        let oracle = vec![1u8, 2, 3, 4];
        assert!(verify(&oracle, &oracle, &clean(2), 2).is_ok());
        let mut fp = oracle.clone();
        fp[2] ^= 0x80;
        assert!(verify(&fp, &oracle, &clean(2), 2).is_err());
        let mut leaked = clean(2);
        leaked.workers_reaped = 1;
        assert!(verify(&oracle, &oracle, &leaked, 2).is_err());
        let mut sock = clean(2);
        sock.sock_dir_removed = false;
        assert!(verify(&oracle, &oracle, &sock, 2).is_err());
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        assert_eq!(input_matrix(7), input_matrix(7));
        assert_ne!(input_matrix(7), input_matrix(8));
    }
}
