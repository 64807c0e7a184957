//! C-Support Vector Classification via Sequential Minimal Optimization.
//!
//! This is the scikit-learn `SVC` stand-in used *inside* each
//! CascadeSVM task (paper §III-C1: "each of these tasks use
//! scikit-learn's SVC internally for training"). The solver is SMO over
//! a precomputed Gram matrix — cascade subsets are block-sized (≤ a few
//! hundred samples) — with a random partner for each KKT violator and
//! Platt's error cache: every `E_i = f(x_i) - y_i` is kept current by
//! one O(m) pass over two rows of the Gram matrix after each accepted
//! pair step, instead of an O(m) recomputation on every KKT check.

use linalg::{Kernel, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// SVC hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SvcParams {
    /// Soft-margin penalty.
    pub c: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Number of consecutive zero-update sweeps before declaring
    /// convergence.
    pub max_passes: usize,
    /// Hard iteration cap (sweeps).
    pub max_sweeps: usize,
    /// RNG seed for the partner-choice heuristic.
    pub seed: u64,
}

impl Default for SvcParams {
    fn default() -> Self {
        Self {
            c: 1.0,
            kernel: Kernel::Rbf { gamma: 0.1 },
            tol: 1e-3,
            max_passes: 5,
            max_sweeps: 200,
            seed: 0,
        }
    }
}

/// A trained support-vector classifier.
#[derive(Debug, Clone)]
pub struct SvcModel {
    /// Support vectors (rows).
    pub support_vectors: Matrix,
    /// Original 0/1 labels of the support vectors.
    pub support_labels: Vec<u8>,
    /// Per-SV coefficient `alpha_i * y_i` with `y in {-1, +1}`.
    pub dual_coef: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
    /// Kernel (needed at prediction time).
    pub kernel: Kernel,
}

impl taskrt::Payload for SvcModel {
    fn approx_bytes(&self) -> usize {
        self.support_vectors.approx_bytes()
            + self.support_labels.len()
            + self.dual_coef.len() * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()
    }
}

impl SvcModel {
    /// Signed decision value for one sample (positive ⇒ class 1).
    pub fn decision(&self, x: &[f64]) -> f64 {
        let mut acc = self.intercept;
        for (i, &coef) in self.dual_coef.iter().enumerate() {
            acc += coef * self.kernel.eval(self.support_vectors.row(i), x);
        }
        acc
    }

    /// Predicted 0/1 label for one sample.
    pub fn predict_one(&self, x: &[f64]) -> u8 {
        u8::from(self.decision(x) > 0.0)
    }

    /// Predicted labels for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<u8> {
        (0..x.rows()).map(|r| self.predict_one(x.row(r))).collect()
    }

    /// Number of support vectors.
    pub fn n_support(&self) -> usize {
        self.support_labels.len()
    }
}

/// SMO working state over a precomputed Gram matrix `k` (exactly
/// symmetric, so row `i` is column `i`), with Platt's error cache:
/// `err[i] = f(x_i) - y_i`, `f(x_i) = b + sum_j alpha_j y_j K_ij`.
struct Smo<'a> {
    k: &'a Matrix,
    ys: &'a [f64],
    c: f64,
    alpha: Vec<f64>,
    b: f64,
    err: Vec<f64>,
}

impl<'a> Smo<'a> {
    /// All alphas and `b` start at zero, so every `f(x_i)` is zero.
    fn new(k: &'a Matrix, ys: &'a [f64], c: f64) -> Self {
        Self {
            k,
            ys,
            c,
            alpha: vec![0.0; ys.len()],
            b: 0.0,
            err: ys.iter().map(|&y| -y).collect(),
        }
    }

    /// One analytic pair step on `(i, j)`: clip `alpha_j` to the box,
    /// move `alpha_i` along the equality constraint, pick `b`, then
    /// refresh every cached error in one O(m) pass over rows `i` and
    /// `j` of K. Returns `false`, changing nothing, when the pair
    /// cannot move (empty box, non-negative curvature, or a step below
    /// `1e-5`).
    fn step(&mut self, i: usize, j: usize) -> bool {
        let (k, ys, c) = (self.k, self.ys, self.c);
        let (ei, ej) = (self.err[i], self.err[j]);
        let (ai_old, aj_old) = (self.alpha[i], self.alpha[j]);
        let (lo, hi) = if ys[i] != ys[j] {
            ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
        } else {
            ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
        };
        if (hi - lo).abs() < 1e-12 {
            return false;
        }
        let eta = 2.0 * k.get(i, j) - k.get(i, i) - k.get(j, j);
        if eta >= 0.0 {
            return false;
        }
        let mut aj = aj_old - ys[j] * (ei - ej) / eta;
        aj = aj.clamp(lo, hi);
        if (aj - aj_old).abs() < 1e-5 {
            return false;
        }
        let ai = ai_old + ys[i] * ys[j] * (aj_old - aj);
        self.alpha[i] = ai;
        self.alpha[j] = aj;
        let b = self.b;
        let b1 = b - ei - ys[i] * (ai - ai_old) * k.get(i, i) - ys[j] * (aj - aj_old) * k.get(i, j);
        let b2 = b - ej - ys[i] * (ai - ai_old) * k.get(i, j) - ys[j] * (aj - aj_old) * k.get(j, j);
        self.b = if ai > 0.0 && ai < c {
            b1
        } else if aj > 0.0 && aj < c {
            b2
        } else {
            0.5 * (b1 + b2)
        };
        let (di, dj, db) = (ys[i] * (ai - ai_old), ys[j] * (aj - aj_old), self.b - b);
        for ((e, &kil), &kjl) in self.err.iter_mut().zip(k.row(i)).zip(k.row(j)) {
            *e += di * kil + dj * kjl + db;
        }
        true
    }

    /// Recomputes every `f(x_i) - y_i` from scratch and checks the
    /// cache against it, to rounding relative to the terms summed.
    #[cfg(debug_assertions)]
    fn assert_error_cache(&self) {
        for (i, &cached) in self.err.iter().enumerate() {
            let (mut f, mut scale) = (self.b, 1.0 + self.b.abs());
            for ((&a, &y), &kij) in self.alpha.iter().zip(self.ys).zip(self.k.row(i)) {
                f += a * y * kij;
                scale += (a * kij).abs();
            }
            let exact = f - self.ys[i];
            assert!(
                (exact - cached).abs() <= 1e-9 * scale,
                "SMO error cache drifted at sample {i}: cached {cached}, exact {exact}"
            );
        }
    }
}

/// Trains an SVC on `x` (rows = samples) with 0/1 labels `y`.
///
/// # Panics
/// Panics if `x` is empty, lengths mismatch, or only one class is
/// present (the cascade never produces such subsets for balanced data;
/// callers must guard degenerate folds).
pub fn fit_svc(x: &Matrix, y: &[u8], params: &SvcParams) -> SvcModel {
    let m = x.rows();
    assert_eq!(m, y.len(), "sample/label count mismatch");
    assert!(m >= 2, "need at least two samples");
    let ys: Vec<f64> = y.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();
    assert!(
        ys.iter().any(|&v| v > 0.0) && ys.iter().any(|&v| v < 0.0),
        "SVC requires both classes present"
    );

    let k = params.kernel.gram(x, x);
    let mut smo = Smo::new(&k, &ys, params.c);
    let mut rng = StdRng::seed_from_u64(params.seed);

    let mut passes = 0;
    let mut sweeps = 0;
    while passes < params.max_passes && sweeps < params.max_sweeps {
        sweeps += 1;
        let mut changed = 0;
        for (i, &yi) in ys.iter().enumerate() {
            let r = yi * smo.err[i];
            let alpha_i = smo.alpha[i];
            if (r < -params.tol && alpha_i < params.c) || (r > params.tol && alpha_i > 0.0) {
                // Random partner j != i.
                let mut j = rng.random_range(0..m - 1);
                if j >= i {
                    j += 1;
                }
                // When it cannot move, Platt's second choice: the
                // partner with the largest |E_i - E_j|, then every other
                // one in turn. A sweep without a step is then a fixed
                // point, not a run of unlucky draws.
                let stepped = smo.step(i, j) || {
                    let ei = smo.err[i];
                    let gap = |l: usize| (ei - smo.err[l]).abs();
                    let best = (0..m)
                        .filter(|&l| l != i)
                        .max_by(|&p, &q| gap(p).total_cmp(&gap(q)))
                        .expect("m >= 2");
                    (best != j && smo.step(i, best))
                        || (1..m)
                            .map(|off| (j + off) % m)
                            .any(|l| l != i && l != best && smo.step(i, l))
                };
                if stepped {
                    changed += 1;
                }
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }
    #[cfg(debug_assertions)]
    smo.assert_error_cache();
    let Smo { alpha, b, .. } = smo;

    // Extract support vectors (alpha > threshold).
    let sv_idx: Vec<usize> = (0..m).filter(|&i| alpha[i] > 1e-8).collect();
    // Degenerate guard: keep at least one sample of each class so the
    // cascade's merged sets stay trainable.
    let sv_idx = if sv_idx.is_empty() {
        vec![
            ys.iter().position(|&v| v > 0.0).unwrap(),
            ys.iter().position(|&v| v < 0.0).unwrap(),
        ]
    } else {
        sv_idx
    };

    let support_vectors = x.take_rows(&sv_idx);
    let support_labels: Vec<u8> = sv_idx.iter().map(|&i| y[i]).collect();
    let dual_coef: Vec<f64> = sv_idx.iter().map(|&i| alpha[i] * ys[i]).collect();
    SvcModel {
        support_vectors,
        support_labels,
        dual_coef,
        intercept: b,
        kernel: params.kernel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::testutil::blobs;

    #[test]
    fn separates_blobs_linear() {
        let (x, y) = blobs(40, 2.0, 1);
        let params = SvcParams {
            kernel: Kernel::Linear,
            ..Default::default()
        };
        let model = fit_svc(&x, &y, &params);
        let pred = model.predict(&x);
        assert!(accuracy(&y, &pred) > 0.97, "acc={}", accuracy(&y, &pred));
    }

    /// The returned model meets the dual's KKT conditions on its own
    /// training set within `tol`: `y f(x) >= 1` off the support set,
    /// `= 1` for free support vectors, `<= 1` at the `C` bound.
    fn assert_kkt(x: &Matrix, y: &[u8], params: &SvcParams) {
        let model = fit_svc(x, y, params);
        let tol = params.tol;
        for (i, &label) in y.iter().enumerate() {
            let margin = if label == 1 { 1.0 } else { -1.0 } * model.decision(x.row(i));
            let alpha = (0..model.n_support())
                .find(|&s| model.support_vectors.row(s) == x.row(i))
                .map_or(0.0, |s| model.dual_coef[s].abs());
            if alpha == 0.0 {
                assert!(
                    margin >= 1.0 - tol,
                    "sample {i} off the support set: y f = {margin}"
                );
            } else if alpha >= params.c - 1e-8 {
                assert!(margin <= 1.0 + tol, "sample {i} at C: y f = {margin}");
            } else {
                assert!((margin - 1.0).abs() <= tol, "free SV {i}: y f = {margin}");
            }
        }
    }

    #[test]
    fn fitted_models_satisfy_kkt_within_tol() {
        let (x, y) = blobs(40, 2.0, 1);
        let linear = SvcParams {
            kernel: Kernel::Linear,
            ..Default::default()
        };
        assert_kkt(&x, &y, &linear);
        let (x, y) = blobs(40, 2.0, 2);
        let rbf = SvcParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        assert_kkt(&x, &y, &rbf);
    }

    #[test]
    fn separates_blobs_rbf() {
        let (x, y) = blobs(40, 2.0, 2);
        let params = SvcParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        let model = fit_svc(&x, &y, &params);
        assert!(accuracy(&y, &model.predict(&x)) > 0.97);
    }

    #[test]
    fn rbf_solves_xor() {
        // XOR is not linearly separable; RBF must handle it.
        let rows = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.1, 0.1],
            vec![0.9, 0.9],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
        ];
        let y = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let x = Matrix::from_rows(&rows);
        let params = SvcParams {
            c: 10.0,
            kernel: Kernel::Rbf { gamma: 3.0 },
            ..Default::default()
        };
        let model = fit_svc(&x, &y, &params);
        assert_eq!(model.predict(&x), y);
    }

    #[test]
    fn support_vectors_are_subset() {
        let (x, y) = blobs(30, 1.0, 3);
        let model = fit_svc(&x, &y, &SvcParams::default());
        assert!(model.n_support() >= 2);
        assert!(model.n_support() <= x.rows());
        assert_eq!(model.dual_coef.len(), model.n_support());
        // Margin-interior points of well-separated blobs are not SVs.
        let (x2, y2) = blobs(50, 3.0, 4);
        let m2 = fit_svc(
            &x2,
            &y2,
            &SvcParams {
                kernel: Kernel::Linear,
                ..Default::default()
            },
        );
        assert!(m2.n_support() < x2.rows() / 2, "n_sv={}", m2.n_support());
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(20, 1.5, 5);
        let a = fit_svc(&x, &y, &SvcParams::default());
        let b = fit_svc(&x, &y, &SvcParams::default());
        assert_eq!(a.dual_coef, b.dual_coef);
        assert_eq!(a.intercept, b.intercept);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn rejects_single_class() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let _ = fit_svc(&x, &[1, 1], &SvcParams::default());
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let (x, y) = blobs(20, 2.0, 6);
        let model = fit_svc(&x, &y, &SvcParams::default());
        for r in 0..x.rows() {
            let d = model.decision(x.row(r));
            assert_eq!(u8::from(d > 0.0), model.predict_one(x.row(r)));
        }
        let _ = y;
    }
}
