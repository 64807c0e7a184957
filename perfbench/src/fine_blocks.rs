//! `fine_blocks`: the paper's KNN stage (StandardScaler + KNN, 5-fold
//! CV) on a seeded 2000×32 feature matrix in 8-row ds-array blocks.
//!
//! ~109k tiny tasks per job: per-task submission, dispatch, tables,
//! telemetry and sync do the work, kernels almost none.

use crate::check::same_predictions;
use crate::inproc::{self, PoolMark};
use crate::rng::SplitMix;
use crate::screening::scaled_knn;
use crate::spans::Spans;
use crate::{JobOut, Workload};
use dislib::model_selection::{take, KFold};
use linalg::Matrix;
use std::time::Instant;
use taskrt::Runtime;

const ROWS: usize = 2000;
const COLS: usize = 32;
const BLOCK_ROWS: usize = 8;
const K_FOLDS: usize = 5;
/// Distance between the two class means, per feature, in noise
/// standard deviations: the classes overlap, so KNN is not trivial.
const CLASS_SHIFT: f64 = 0.25;

/// Two Gaussian classes, labels drawn with equal odds.
fn inputs(seed: u64) -> (Matrix, Vec<u8>) {
    let mut g = SplitMix::new(seed);
    let mut x = Matrix::zeros(ROWS, COLS);
    let mut y = Vec::with_capacity(ROWS);
    for r in 0..ROWS {
        let label = (g.next_u64() & 1) as u8;
        let shift = f64::from(label) * CLASS_SHIFT;
        for v in x.row_mut(r) {
            *v = g.normal() + shift;
        }
        y.push(label);
    }
    (x, y)
}

pub struct FineBlocks {
    seed: u64,
    truths: Vec<Vec<u8>>,
    oracle: Vec<Vec<u8>>,
    inline_wall_s: f64,
}

pub struct Done {
    rt: Runtime,
    preds: Vec<Vec<u8>>,
    pool: PoolMark,
}

impl FineBlocks {
    /// Runs the inline oracle job once.
    pub fn new(seed: u64) -> Self {
        let (x, y) = inputs(seed);
        let rt = Runtime::new();
        let t = Instant::now();
        let oracle = job(&rt, &x, &y, seed, &mut Spans::new(false));
        let inline_wall_s = t.elapsed().as_secs_f64();
        let truths = kfold(seed)
            .split(ROWS)
            .into_iter()
            .map(|(_, test)| test.iter().map(|&i| y[i]).collect())
            .collect();
        FineBlocks {
            seed,
            truths,
            oracle,
            inline_wall_s,
        }
    }
}

fn kfold(seed: u64) -> KFold {
    KFold {
        k: K_FOLDS,
        shuffle: true,
        seed,
    }
}

fn job(rt: &Runtime, x: &Matrix, y: &[u8], seed: u64, sp: &mut Spans) -> Vec<Vec<u8>> {
    sp.span("dislib.knn.cv", |sp| {
        kfold(seed)
            .split(x.rows())
            .into_iter()
            .map(|(train, test)| {
                let (xtr, ytr) = take(x, y, &train);
                let (xte, _) = take(x, y, &test);
                let preds = sp.span("runtime.submit", |_| {
                    scaled_knn(rt, xtr, &ytr, xte, BLOCK_ROWS)
                });
                sp.span("runtime.wait", |_| {
                    preds
                        .into_iter()
                        .flat_map(|p| rt.wait(p).to_vec())
                        .collect()
                })
            })
            .collect()
    })
}

impl Workload for FineBlocks {
    type Ready = (Runtime, Matrix, Vec<u8>);
    type Done = Done;

    fn inline_wall_s(&self) -> f64 {
        self.inline_wall_s
    }

    fn in_process(&self) -> bool {
        true
    }

    fn setup(&self, obs: bool, _sp: &mut Spans) -> Self::Ready {
        let (x, y) = inputs(self.seed);
        (inproc::runtime(obs), x, y)
    }

    fn job(&self, (rt, x, y): Self::Ready, sp: &mut Spans) -> Done {
        let pool = PoolMark::now();
        let preds = job(&rt, &x, &y, self.seed, sp);
        Done { rt, preds, pool }
    }

    fn finish(&self, d: Done, wall_s: f64, sp: &mut Spans) -> JobOut {
        JobOut {
            tasks: d.rt.task_count() as u64,
            accuracy: vec![(
                "accuracy.knn",
                dislib::accuracy(&self.truths.concat(), &d.preds.concat()),
            )],
            check: same_predictions("knn", &d.preds, &self.oracle),
            layers: if sp.enabled() {
                inproc::layers(&d.rt, wall_s, d.pool)
            } else {
                Vec::new()
            },
        }
    }
}
