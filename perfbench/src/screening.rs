//! `screening`: the paper's Table I workflow at `Scale::Small`.
//!
//! Cohort (set-up) → STFT design matrix → blocked PCA → 5-fold CV of
//! RandomForest(40), CascadeSVM, KNN (with StandardScaler) and the
//! nested CNN, all on one threaded runtime. Parameters follow the
//! repository's pipeline defaults: 60×256 blocks, 160 components.
//! The eigensolver and estimator kernels do the work; the scheduler
//! does almost none.
//!
//! `screening` crops the spectrogram at [`CROP_HZ`]; `screening_full`
//! keeps the preset's 50 Hz crop (1078 features), whose job time is
//! too noisy on a shared host to gate on (see `METRICS.md`).

use crate::check::same_predictions;
use crate::inproc::{self, PoolMark};
use crate::spans::Spans;
use crate::{JobOut, Workload};
use dislib::csvm::{CascadeSvm, CascadeSvmParams};
use dislib::knn::{KnnClassifier, KnnParams};
use dislib::model_selection::{take, KFold};
use dislib::pca::{Components, Pca};
use dislib::rf::{RandomForest, RfParams};
use dislib::scaler::StandardScaler;
use dsarray::{DsArray, DsLabels};
use ecg::{Dataset, DatasetSpec, Recording, Scale};
use linalg::Matrix;
use nnet::{FoldData, Network, ParallelConfig, TrainParams};
use std::time::Instant;
use taskrt::{Handle, Runtime};

/// STFT crop of `screening`: 9 frequency bins, 441 features. The
/// 441² covariance (1.6 MB) stays inside a 2 MiB per-core L2, where
/// the preset's 1078² one (9.3 MB) does not.
pub const CROP_HZ: f64 = 20.0;

const N_COMPONENTS: usize = 160;
const BLOCK_ROWS: usize = 60;
const BLOCK_COLS: usize = 256;
const K_FOLDS: usize = 5;
const RF_TREES: usize = 40;
/// RBF width multiplier on `gamma_scale` for the CascadeSVM.
const CSVM_GAMMA_MULT: f64 = 18.0;

/// Per-fold predictions of each estimator, plus the fold truths.
pub struct Predictions {
    truths: Vec<Vec<u8>>,
    rf: Vec<Vec<u8>>,
    csvm: Vec<Vec<u8>>,
    knn: Vec<Vec<u8>>,
    cnn: Vec<Vec<u8>>,
}

impl Predictions {
    fn by_estimator(&self) -> [(&'static str, &Vec<Vec<u8>>); 4] {
        [
            ("accuracy.rf", &self.rf),
            ("accuracy.csvm", &self.csvm),
            ("accuracy.knn", &self.knn),
            ("accuracy.cnn", &self.cnn),
        ]
    }
}

pub struct Screening {
    spec: DatasetSpec,
    oracle: Predictions,
    inline_wall_s: f64,
}

pub struct Done {
    rt: Runtime,
    preds: Predictions,
    pool: PoolMark,
}

impl Screening {
    /// Builds the cohort and runs the inline oracle job once.
    /// `crop_hz`, when given, replaces the preset's STFT crop.
    pub fn new(seed: u64, crop_hz: Option<f64>) -> Self {
        let mut spec = DatasetSpec::at_scale(Scale::Small).with_seed(seed);
        if crop_hz.is_some() {
            spec.max_freq_hz = crop_hz;
        }
        let recordings = Dataset::build_recordings(&spec);
        let rt = Runtime::new();
        let t = Instant::now();
        let oracle = job(&rt, &spec, &recordings, &mut Spans::new(false));
        let inline_wall_s = t.elapsed().as_secs_f64();
        Screening {
            spec,
            oracle,
            inline_wall_s,
        }
    }
}

impl Workload for Screening {
    type Ready = (Runtime, Vec<Recording>);
    type Done = Done;

    fn inline_wall_s(&self) -> f64 {
        self.inline_wall_s
    }

    fn in_process(&self) -> bool {
        true
    }

    fn setup(&self, obs: bool, _sp: &mut Spans) -> Self::Ready {
        (inproc::runtime(obs), Dataset::build_recordings(&self.spec))
    }

    fn job(&self, (rt, recordings): Self::Ready, sp: &mut Spans) -> Done {
        let pool = PoolMark::now();
        let preds = job(&rt, &self.spec, &recordings, sp);
        Done { rt, preds, pool }
    }

    fn finish(&self, d: Done, wall_s: f64, sp: &mut Spans) -> JobOut {
        let check = d
            .preds
            .by_estimator()
            .iter()
            .zip(self.oracle.by_estimator())
            .try_for_each(|((name, got), (_, want))| same_predictions(name, got, want))
            .and_then(|()| {
                if d.preds.truths == self.oracle.truths {
                    Ok(())
                } else {
                    Err("fold truths differ from the oracle's".into())
                }
            });
        JobOut {
            tasks: d.rt.task_count() as u64,
            accuracy: d
                .preds
                .by_estimator()
                .map(|(name, p)| {
                    (
                        name,
                        dislib::accuracy(&d.preds.truths.concat(), &p.concat()),
                    )
                })
                .to_vec(),
            check,
            layers: if sp.enabled() {
                inproc::layers(&d.rt, wall_s, d.pool)
            } else {
                Vec::new()
            },
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

/// One screening job on `rt`: features, PCA, four cross-validations.
fn job(rt: &Runtime, spec: &DatasetSpec, recordings: &[Recording], sp: &mut Spans) -> Predictions {
    let (x, y, _) = sp.span("ecg.features", |_| {
        ecg::features::build_design_matrix(recordings, &spec.stft, spec.max_freq_hz)
    });
    let xp = pca(rt, x, sp);
    let folds = kfold(spec.seed).split(xp.rows());
    let truths = folds
        .iter()
        .map(|(_, test)| test.iter().map(|&i| y[i]).collect())
        .collect();
    Predictions {
        truths,
        rf: sp.span("dislib.rf.cv", |sp| rf(rt, &xp, &y, &folds, spec.seed, sp)),
        csvm: sp.span("dislib.csvm.cv", |sp| csvm(rt, &xp, &y, &folds, sp)),
        knn: sp.span("dislib.knn.cv", |sp| knn(rt, &xp, &y, &folds, sp)),
        cnn: sp.span("nnet.cnn.cv", |sp| cnn(rt, &xp, &y, spec.seed, sp)),
    }
}

fn pca(rt: &Runtime, x: Matrix, sp: &mut Spans) -> Matrix {
    let k = N_COMPONENTS.min(x.cols());
    let (dist, pca) = sp.span("dislib.pca.fit", |sp| {
        let fitted = sp.span("runtime.submit", |_| {
            let dist = DsArray::from_matrix_owned(rt, x, BLOCK_ROWS, BLOCK_COLS);
            let pca = Pca::fit(rt, &dist, Components::Count(k));
            (dist, pca)
        });
        // `transform` reads the components on the driver; waiting here
        // keeps the eigensolver inside the fit span.
        sp.span("runtime.wait", |_| drop(rt.wait(fitted.1.components)));
        fitted
    });
    sp.span("dislib.pca.transform", |sp| {
        let projected = sp.span("runtime.submit", |_| pca.transform(rt, &dist));
        sp.span("runtime.wait", |_| projected.collect(rt))
    })
}

type Folds = [(Vec<usize>, Vec<usize>)];

fn wait_all(rt: &Runtime, preds: Vec<Handle<Vec<u8>>>, sp: &mut Spans) -> Vec<u8> {
    sp.span("runtime.wait", |_| {
        preds
            .into_iter()
            .flat_map(|p| rt.wait(p).to_vec())
            .collect()
    })
}

fn rf(
    rt: &Runtime,
    xp: &Matrix,
    y: &[u8],
    folds: &Folds,
    seed: u64,
    sp: &mut Spans,
) -> Vec<Vec<u8>> {
    let params = RfParams {
        n_estimators: RF_TREES,
        distr_depth: 0,
        seed,
        task_cores: 4,
        ..Default::default()
    };
    folds
        .iter()
        .map(|(train, test)| {
            let (xtr, ytr) = take(xp, y, train);
            let (xte, _) = take(xp, y, test);
            let pred = sp.span("runtime.submit", |_| {
                let forest = RandomForest::fit(rt, rt.put(xtr), rt.put(ytr), params);
                forest.predict(rt, rt.put(xte))
            });
            wait_all(rt, vec![pred], sp)
        })
        .collect()
}

fn csvm(rt: &Runtime, xp: &Matrix, y: &[u8], folds: &Folds, sp: &mut Spans) -> Vec<Vec<u8>> {
    let params = CascadeSvmParams {
        svc: dislib::SvcParams {
            c: 0.5,
            kernel: linalg::Kernel::Rbf {
                gamma: CSVM_GAMMA_MULT * linalg::kernels::gamma_scale(xp),
            },
            ..Default::default()
        },
        ..Default::default()
    };
    folds
        .iter()
        .map(|(train, test)| {
            let (xtr, ytr) = take(xp, y, train);
            let (xte, _) = take(xp, y, test);
            let preds = sp.span("runtime.submit", |_| {
                let cols = xtr.cols();
                let dtr = DsArray::from_matrix_owned(rt, xtr, BLOCK_ROWS, cols);
                let ltr = DsLabels::from_slice(rt, &ytr, BLOCK_ROWS);
                let model = CascadeSvm::fit(rt, &dtr, &ltr, params);
                let dte = DsArray::from_matrix_owned(rt, xte, BLOCK_ROWS, cols);
                model.predict(rt, &dte)
            });
            wait_all(rt, preds, sp)
        })
        .collect()
}

fn knn(rt: &Runtime, xp: &Matrix, y: &[u8], folds: &Folds, sp: &mut Spans) -> Vec<Vec<u8>> {
    // Half the CSVM block size, as in the paper (250 vs 500).
    let rb = BLOCK_ROWS / 2;
    folds
        .iter()
        .map(|(train, test)| {
            let (xtr, ytr) = take(xp, y, train);
            let (xte, _) = take(xp, y, test);
            let preds = sp.span("runtime.submit", |_| scaled_knn(rt, xtr, &ytr, xte, rb));
            wait_all(rt, preds, sp)
        })
        .collect()
}

/// StandardScaler + KNN on one fold, `rb`-row blocks; returns the
/// per-block prediction handles. Shared with `fine_blocks`.
pub fn scaled_knn(
    rt: &Runtime,
    xtr: Matrix,
    ytr: &[u8],
    xte: Matrix,
    rb: usize,
) -> Vec<Handle<Vec<u8>>> {
    let cols = xtr.cols();
    let dtr = DsArray::from_matrix_owned(rt, xtr, rb, cols);
    let ltr = DsLabels::from_slice(rt, ytr, rb);
    let (scaler, scaled_tr) = StandardScaler::fit_transform(rt, &dtr);
    let model = KnnClassifier::fit(rt, &scaled_tr, &ltr, KnnParams::default());
    let dte = DsArray::from_matrix_owned(rt, xte, rb, cols);
    let scaled_te = scaler.transform(rt, &dte);
    model.predict(rt, &scaled_te)
}

fn cnn(rt: &Runtime, xp: &Matrix, y: &[u8], seed: u64, sp: &mut Spans) -> Vec<Vec<u8>> {
    let cfg = ParallelConfig {
        epochs: 7,
        workers: 4,
        gpus_per_task: 1,
        train: TrainParams {
            lr: 0.03,
            momentum: 0.9,
            batch_size: 4,
            seed,
        },
    };
    // Standardize the PCA scores for the network: dominant components
    // have arbitrarily large variance, which stalls SGD.
    let means = xp.col_means();
    let stds = xp.col_stds(&means);
    let mut xn = xp.clone();
    for r in 0..xn.rows() {
        for (c, v) in xn.row_mut(r).iter_mut().enumerate() {
            *v = (*v - means[c]) / stds[c].max(1e-9);
        }
    }
    let net0 = Network::afib_cnn(xp.cols(), seed);
    let results = sp.span("runtime.submit", |_| {
        // One chained `cnn_partition` task per fold: the master splits
        // the dataset serially, as in the paper's nested workflow.
        let full = rt.put((xn, y.to_vec()));
        let mut prev: Option<Handle<FoldData>> = None;
        let mut handles = Vec::new();
        for (train_idx, test_idx) in kfold(seed).split(xp.rows()) {
            let make = move |d: &(Matrix, Vec<u8>)| {
                let (x_train, y_train) = take(&d.0, &d.1, &train_idx);
                let (x_test, y_test) = take(&d.0, &d.1, &test_idx);
                FoldData {
                    x_train,
                    y_train,
                    x_test,
                    y_test,
                }
            };
            let h = match prev {
                None => rt.task("cnn_partition").run1(full, make),
                Some(p) => rt
                    .task("cnn_partition")
                    .run2(full, p, move |d, _prev: &FoldData| make(d)),
            };
            prev = Some(h);
            handles.push(h);
        }
        nnet::train_kfold_nested_handles(rt, handles, &net0, &cfg)
    });
    sp.span("runtime.wait", |_| {
        results
            .into_iter()
            .map(|h| rt.wait(h).predictions.clone())
            .collect()
    })
}
