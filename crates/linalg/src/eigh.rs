//! Symmetric eigendecomposition (`numpy.linalg.eigh` replacement).
//!
//! The implementation is the classical two-phase dense symmetric solver,
//! a port of the EISPACK/JAMA routines:
//!
//! 1. **Householder tridiagonalization** (`tred2`): reduce the symmetric
//!    input `A` to tridiagonal form `T = Q^T A Q`, accumulating the
//!    orthogonal transform `Q`.
//! 2. **Implicit-shift QL iteration** (`tql2`): diagonalize `T`, applying
//!    the rotations to `Q` so its columns become eigenvectors.
//!
//! [`eigh`] runs that algorithm on the **transpose** of the JAMA working
//! matrix, so every inner loop — the symmetric matrix-vector product
//! and rank-2 update of the reduction, and each QL rotation — walks a
//! contiguous row instead of a stride-`n` column, and it accumulates
//! `Q` from compact-WY panels of `PANEL` reflectors applied through the
//! blocked GEMM ([`Matrix::matmul`]) rather than one rank-1 update per
//! reflector. The reduction keeps JAMA's summation order, so the
//! tridiagonal — and with it every QL rotation and every eigenvalue —
//! is bit-identical to [`eigh_reference`], the unchanged JAMA port kept
//! as the parity oracle. Only the eigenvectors differ, by the rounding
//! of the re-associated reflector product, and their signs agree (see
//! `DESIGN.md` §5.17).
//!
//! Eigenvalues are returned in **ascending** order (as `numpy.linalg.eigh`
//! does); [`EighResult::top`] hands PCA the leading components in
//! descending order.

use crate::matrix::{dot, Matrix};

/// Reflectors per compact-WY panel of the `Q` accumulation.
const PANEL: usize = 64;

/// Result of [`eigh`]: `a = vectors * diag(values) * vectors^T`.
#[derive(Debug, Clone)]
pub struct EighResult {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per **column**, aligned with
    /// `values`.
    pub vectors: Matrix,
}

impl EighResult {
    /// The `k` largest eigenpairs in descending eigenvalue order:
    /// an `n x k` matrix of eigenvectors (one per column) and their
    /// eigenvalues. Copies only the `k` kept columns.
    ///
    /// # Panics
    /// Panics if `k` exceeds the matrix order.
    pub fn top(&self, k: usize) -> (Matrix, Vec<f64>) {
        let n = self.values.len();
        assert!(k <= n, "top({k}) of an order-{n} eigendecomposition");
        let mut vectors = Matrix::zeros(n, k);
        for r in 0..n {
            let src = &self.vectors.row(r)[n - k..];
            for (dst, &v) in vectors.row_mut(r).iter_mut().zip(src.iter().rev()) {
                *dst = v;
            }
        }
        let values = self.values.iter().rev().take(k).copied().collect();
        (vectors, values)
    }
}

/// Computes the eigendecomposition of a real symmetric matrix.
///
/// The input is symmetrized internally (`(A + A^T) / 2`), so slight
/// asymmetry from floating-point accumulation is tolerated.
///
/// # Panics
/// Panics if `a` is not square, or if the QL iteration exceeds 50
/// iterations for a single eigenvalue (which only happens for non-finite
/// input).
pub fn eigh(a: &Matrix) -> EighResult {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2.
        return unsafe { eigh_avx2(a) };
    }
    solve(a)
}

/// [`solve`] compiled with 256-bit vectors. AVX2 alone (no FMA) and
/// no reassociation: every result is bit-identical to the baseline
/// build, only the loops run twice as wide.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn eigh_avx2(a: &Matrix) -> EighResult {
    solve(a)
}

/// The body of [`eigh`]; inlined, with the phases below, into each
/// build of it.
#[inline(always)]
fn solve(a: &Matrix) -> EighResult {
    let (mut w, mut d, mut e) = symmetrized(a);
    let n = d.len();
    if n == 0 {
        return EighResult {
            values: d,
            vectors: w,
        };
    }
    // `w` is the transpose of JAMA's working matrix `V`; the
    // symmetrized input is its own transpose, so no copy is needed.
    tred2(&mut w, &mut d, &mut e);
    tql2(&mut w, &mut d, &mut e);
    // Rows of `w` are the eigenvectors: transpose while sorting.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| d[x].partial_cmp(&d[y]).expect("finite eigenvalues"));
    let mut vectors = Matrix::from_pool(n, n);
    let out = vectors.as_mut_slice();
    for (new_col, &old) in order.iter().enumerate() {
        for (r, &v) in w.row(old).iter().enumerate() {
            out[r * n + new_col] = v;
        }
    }
    w.into_pool();
    EighResult {
        values: order.iter().map(|&i| d[i]).collect(),
        vectors,
    }
}

/// `(A + A^T) / 2` in a pooled working matrix, plus the diagonal and
/// sub-diagonal scratch: PCA calls eigh once per fitted model, but
/// repeated fits (CV folds, benches) recycle the `n*n` buffer.
fn symmetrized(a: &Matrix) -> (Matrix, Vec<f64>, Vec<f64>) {
    assert_eq!(a.rows(), a.cols(), "eigh requires a square matrix");
    let n = a.rows();
    let mut v = Matrix::from_pool(n, n);
    for r in 0..n {
        for c in 0..n {
            v.set(r, c, 0.5 * (a.get(r, c) + a.get(c, r)));
        }
    }
    (v, vec![0.0; n], vec![0.0; n])
}

/// Householder reduction to tridiagonal form on `w = V^T`. On exit `w`
/// holds `Q^T` (`Q` the accumulated orthogonal transform), `d` the
/// diagonal and `e` the sub-diagonal (`e[0] == 0`).
#[inline(always)]
fn tred2(w: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w.get(j, n - 1);
    }

    for i in (1..n).rev() {
        let mut scale = 0.0;
        let mut h = 0.0;
        for dk in &d[..i] {
            scale += dk.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for (j, dj) in d[..i].iter_mut().enumerate() {
                *dj = w.get(j, i - 1);
                w.set(j, i, 0.0);
                w.set(i, j, 0.0);
            }
        } else {
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // Row i stores the Householder vector; `e = A d` over the
            // reduced matrix, which lives in the upper triangle of
            // `w`'s leading `i x i` block.
            w.row_mut(i)[..i].copy_from_slice(&d[..i]);
            let mut j0 = 0;
            while j0 < i {
                let rows = (i - j0).min(4);
                symv_rows(w, d, e, j0, rows, i);
                j0 += rows;
            }
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            // Rank-2 update A -= d e^T + e d^T, one contiguous row each.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w.row_mut(j)[j..i];
                for ((x, &ek), &dk) in row.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *x -= f * ek + g * dk;
                }
                d[j] = w.get(j, i - 1);
                w.set(j, i, 0.0);
            }
        }
        d[i] = h;
    }

    // Reflector `i` (`i < n - 1`) sits in row `i + 1`, columns `0..=i`,
    // with `h = d[i + 1]`; the strict upper triangle is already zero.
    // Save the tridiagonal's diagonal and start `Q^T` from identity.
    let tau: Vec<f64> = d[1..]
        .iter()
        .map(|&h| if h != 0.0 { 1.0 / h } else { 0.0 })
        .collect();
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w.get(j, j);
        w.set(j, j, 1.0);
    }
    // Q^T = H_0 H_1 ... H_{n-2}, applied a panel at a time from the
    // right, so each panel only touches the leading block it spans.
    let mut s = 0;
    while s + 1 < n {
        let end = (s + PANEL).min(n - 1);
        apply_panel(w, &tau, s, end);
        s = end;
    }
    e[0] = 0.0;
}

/// Rows `j0 .. j0 + rows` (at most four) of the symmetric product
/// `e = A d` in [`tred2`]: row `j`'s dot product with `d` lands in
/// `e[j]`, and its AXPY `e[k] += A[j][k] * d[j]` feeds the later rows.
/// Every sum runs in JAMA's order — `e[j]` plus the diagonal term, then
/// ascending `k`; each `e[k]` takes rows in ascending order — so the
/// reduction is bit-identical to [`eigh_reference`]'s. Interleaving
/// four rows' dependent chains hides the add latency that bounds one.
#[inline(always)]
fn symv_rows(w: &Matrix, d: &[f64], e: &mut [f64], j0: usize, rows: usize, i: usize) {
    let mut g = [0.0f64; 4];
    let mut f = [0.0f64; 4];
    // The triangle k < j0 + rows, where the later rows' chains start.
    for t in 0..rows {
        let k = j0 + t;
        for r in 0..t {
            let wrk = w.get(j0 + r, k);
            g[r] += wrk * d[k];
            e[k] += wrk * f[r];
        }
        f[t] = d[k];
        g[t] = e[k] + w.get(k, k) * f[t];
    }
    let k0 = j0 + rows;
    let dk = &d[k0..i];
    if rows == 4 {
        let r: [&[f64]; 4] = std::array::from_fn(|t| &w.row(j0 + t)[k0..i]);
        for (t, &dv) in dk.iter().enumerate() {
            g[0] += r[0][t] * dv;
            g[1] += r[1][t] * dv;
            g[2] += r[2][t] * dv;
            g[3] += r[3][t] * dv;
        }
    } else {
        for (t, gt) in g[..rows].iter_mut().enumerate() {
            for (&wv, &dv) in w.row(j0 + t)[k0..i].iter().zip(dk) {
                *gt += wv * dv;
            }
        }
    }
    for t in 0..rows {
        for (ek, &wv) in e[k0..i].iter_mut().zip(&w.row(j0 + t)[k0..i]) {
            *ek += wv * f[t];
        }
        e[j0 + t] = g[t];
    }
}

/// Multiplies the leading `end x end` block of `w` on the right by the
/// product `H_s ... H_{end-1}` of the reflectors stored in rows
/// `s + 1 ..= end`, written in compact-WY form `I - Y T Y^T`
/// (`Y` = the reflectors as columns, `T` upper triangular).
#[inline(always)]
fn apply_panel(w: &mut Matrix, tau: &[f64], s: usize, end: usize) {
    let k = end - s;
    // Y^T: reflector s+t in row t, zero-padded to `end` columns. Moving
    // the reflectors out leaves identity rows behind.
    let mut yt = Matrix::from_pool(k, end);
    for t in 0..k {
        let i = s + t;
        let src = &mut w.row_mut(i + 1)[..=i];
        if tau[i] != 0.0 {
            yt.row_mut(t)[..=i].copy_from_slice(src);
        }
        src.fill(0.0);
    }
    // Forward column-wise T (LAPACK `dlarft`):
    // T[0..t, t] = -tau_t * T[0..t, 0..t] * (Y[:, 0..t]^T y_t).
    let mut tm = Matrix::zeros(k, k);
    let mut z = vec![0.0; k];
    for t in 0..k {
        for (r, zr) in z[..t].iter_mut().enumerate() {
            // y_r vanishes past row s + r.
            let len = s + r + 1;
            *zr = dot(&yt.row(r)[..len], &yt.row(t)[..len]);
        }
        for r in 0..t {
            let acc: f64 = (r..t).map(|q| tm.get(r, q) * z[q]).sum();
            tm.set(r, t, -tau[s + t] * acc);
        }
        tm.set(t, t, tau[s + t]);
    }
    // B <- B - ((B Y) T) Y^T on the leading block B = diag(W, I),
    // W the s x s product of the earlier panels: B Y stacks W Y_top
    // on Y's own bottom rows.
    let y = yt.transpose();
    let by = if s == 0 {
        y
    } else {
        let mut prev = Matrix::from_pool(s, s);
        for r in 0..s {
            prev.row_mut(r).copy_from_slice(&w.row(r)[..s]);
        }
        let top = prev.matmul(&y.slice_rows(0, s));
        prev.into_pool();
        top.vstack(&y.slice_rows(s, end))
    };
    let byt = by.matmul(&tm);
    let update = byt.matmul(&yt);
    for r in 0..end {
        for (x, &u) in w.row_mut(r)[..end].iter_mut().zip(update.row(r)) {
            *x -= u;
        }
    }
    for m in [yt, byt, update] {
        m.into_pool();
    }
}

/// Implicit-shift QL iteration on the tridiagonal (`d`, `e`), rotating
/// the rows of `w = Q^T` into eigenvectors.
#[inline(always)]
fn tql2(w: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;

    let mut f = 0.0;
    let mut tst1: f64 = 0.0;
    let eps = 2.0_f64.powi(-52);
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                assert!(iter <= 50, "eigh: QL iteration failed to converge");

                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in &mut d[l + 2..] {
                    *di -= h;
                }
                f += h;

                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (lo, hi) = w.as_mut_slice().split_at_mut((i + 1) * n);
                    let (wi, wi1) = (&mut lo[i * n..], &mut hi[..n]);
                    for (x, y) in wi.iter_mut().zip(wi1.iter_mut()) {
                        let h = *y;
                        *y = s * *x + c * h;
                        *x = c * *x - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

/// The unmodified JAMA port: column-walking loops, one rank-1 update
/// per reflector in the `Q` accumulation. Kept as the parity oracle
/// for [`eigh`] (its eigenvalues, residuals and eigenvector signs) and
/// as the baseline of the `perf` bin's `eigh` section.
pub fn eigh_reference(a: &Matrix) -> EighResult {
    let (mut v, mut d, mut e) = symmetrized(a);
    if d.is_empty() {
        return EighResult {
            values: d,
            vectors: v,
        };
    }
    tred2_reference(&mut v, &mut d, &mut e);
    tql2_reference(&mut v, &mut d, &mut e);
    sort_ascending(&mut v, &mut d);
    EighResult {
        values: d,
        vectors: v,
    }
}

// Index-based loops below mirror the EISPACK/JAMA reference code; the
// clippy `needless_range_loop` shape is kept intentionally for auditability.
#[allow(clippy::needless_range_loop)]
/// Householder reduction to tridiagonal form. On exit `v` holds the
/// accumulated orthogonal transform, `d` the diagonal and `e` the
/// sub-diagonal (`e[0] == 0`).
fn tred2_reference(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = v.get(n - 1, j);
    }

    for i in (1..n).rev() {
        let mut scale = 0.0;
        let mut h = 0.0;
        for k in 0..i {
            scale += d[k].abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v.get(i - 1, j);
                v.set(i, j, 0.0);
                v.set(j, i, 0.0);
            }
        } else {
            for k in 0..i {
                d[k] /= scale;
                h += d[k] * d[k];
            }
            let mut f = d[i - 1];
            let mut g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for ej in e.iter_mut().take(i) {
                *ej = 0.0;
            }

            for j in 0..i {
                f = d[j];
                v.set(j, i, f);
                g = e[j] + v.get(j, j) * f;
                for k in (j + 1)..i {
                    g += v.get(k, j) * d[k];
                    e[k] += v.get(k, j) * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                for k in j..i {
                    let val = v.get(k, j) - (f * e[k] + g * d[k]);
                    v.set(k, j, val);
                }
                d[j] = v.get(i - 1, j);
                v.set(i, j, 0.0);
            }
        }
        d[i] = h;
    }

    // Accumulate transformations.
    for i in 0..n.saturating_sub(1) {
        v.set(n - 1, i, v.get(i, i));
        v.set(i, i, 1.0);
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v.get(k, i + 1) / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v.get(k, i + 1) * v.get(k, j);
                }
                for k in 0..=i {
                    let val = v.get(k, j) - g * d[k];
                    v.set(k, j, val);
                }
            }
        }
        for k in 0..=i {
            v.set(k, i + 1, 0.0);
        }
    }
    for j in 0..n {
        d[j] = v.get(n - 1, j);
        v.set(n - 1, j, 0.0);
    }
    v.set(n - 1, n - 1, 1.0);
    e[0] = 0.0;
}

#[allow(clippy::needless_range_loop)]
/// Implicit-shift QL iteration on the tridiagonal (`d`, `e`), rotating
/// the columns of `v` into eigenvectors.
fn tql2_reference(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0;
    let mut tst1: f64 = 0.0;
    let eps = 2.0_f64.powi(-52);
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                assert!(iter <= 50, "eigh: QL iteration failed to converge");

                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in d.iter_mut().take(n).skip(l + 2) {
                    *di -= h;
                }
                f += h;

                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    for k in 0..n {
                        h = v.get(k, i + 1);
                        v.set(k, i + 1, s * v.get(k, i) + c * h);
                        v.set(k, i, c * v.get(k, i) - s * h);
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

/// Sorts eigenvalues ascending and permutes eigenvector columns to match.
fn sort_ascending(v: &mut Matrix, d: &mut [f64]) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("finite eigenvalues"));
    let old_d = d.to_vec();
    let old_v = std::mem::replace(v, Matrix::from_pool(n, n));
    for (new_col, &old_col) in order.iter().enumerate() {
        d[new_col] = old_d[old_col];
        for r in 0..n {
            v.set(r, new_col, old_v.get(r, old_col));
        }
    }
    old_v.into_pool();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reconstruct(res: &EighResult) -> Matrix {
        let n = res.values.len();
        let mut lam = Matrix::zeros(n, n);
        for (i, &v) in res.values.iter().enumerate() {
            lam.set(i, i, v);
        }
        res.vectors.matmul(&lam).matmul(&res.vectors.transpose())
    }

    #[test]
    fn eigh_diagonal_matrix() {
        let a = Matrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let r = eigh(&a);
        assert!((r.values[0] - 1.0).abs() < 1e-12);
        assert!((r.values[1] - 2.0).abs() < 1e-12);
        assert!((r.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let r = eigh(&a);
        assert!((r.values[0] - 1.0).abs() < 1e-12);
        assert!((r.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_reconstructs_input() {
        let a = Matrix::from_fn(6, 6, |r, c| {
            let x = (r as f64 + 1.0) * (c as f64 + 1.0);
            (x * 0.37).sin() + if r == c { 4.0 } else { 0.0 }
        });
        let sym = Matrix::from_fn(6, 6, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)));
        let res = eigh(&sym);
        let back = reconstruct(&res);
        assert!(
            sym.max_abs_diff(&back) < 1e-9,
            "diff={}",
            sym.max_abs_diff(&back)
        );
    }

    #[test]
    fn eigh_vectors_orthonormal() {
        let a = Matrix::from_fn(5, 5, |r, c| 1.0 / (1.0 + r as f64 + c as f64));
        let res = eigh(&a);
        let vtv = res.vectors.t_matmul(&res.vectors);
        let eye = Matrix::identity(5);
        assert!(vtv.max_abs_diff(&eye) < 1e-10);
    }

    #[test]
    fn eigh_empty_and_single() {
        let r = eigh(&Matrix::zeros(0, 0));
        assert!(r.values.is_empty());
        let r = eigh(&Matrix::from_vec(1, 1, vec![7.5]));
        assert_eq!(r.values, vec![7.5]);
    }

    #[test]
    fn eigh_trace_equals_eigenvalue_sum() {
        let a = Matrix::from_fn(8, 8, |r, c| ((r * c) as f64 * 0.11).cos());
        let sym = Matrix::from_fn(8, 8, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)));
        let res = eigh(&sym);
        let trace: f64 = (0..8).map(|i| sym.get(i, i)).sum();
        let sum: f64 = res.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn top_copies_descending_columns() {
        let a = Matrix::from_fn(7, 7, |r, c| {
            ((r + 2 * c) as f64 * 0.3).sin() + ((2 * r + c) as f64 * 0.3).sin()
        });
        let res = eigh(&a);
        let (vecs, vals) = res.top(3);
        assert_eq!(vals, vec![res.values[6], res.values[5], res.values[4]]);
        for r in 0..7 {
            for c in 0..3 {
                assert_eq!(
                    vecs.get(r, c).to_bits(),
                    res.vectors.get(r, 6 - c).to_bits()
                );
            }
        }
        assert_eq!(res.top(0).0.shape(), (7, 0));
    }

    /// SplitMix64 uniform in `[-1, 1)`: fixtures independent of `rand`.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn random_symmetric(n: usize, seed: &mut u64) -> Matrix {
        let raw = Matrix::from_fn(n, n, |_, _| uniform(seed));
        Matrix::from_fn(n, n, |r, c| 0.5 * (raw.get(r, c) + raw.get(c, r)))
    }

    /// Parity fixtures: 0 random symmetric; 1 rank-deficient covariance
    /// (fewer rows than features, like the screening PCA's 400 x 441);
    /// 2 diagonal; 3 eigenvalues repeated in triples; 4 a rank-one
    /// update of the identity (one eigenvalue, `n - 1` times).
    fn fixture(kind: usize, n: usize, seed: u64) -> Matrix {
        let mut st = seed;
        match kind {
            0 => random_symmetric(n, &mut st),
            1 => {
                let rows = (n * 9 / 10).max(1);
                let x = Matrix::from_fn(rows, n, |_, c| uniform(&mut st) * (1.0 + (c % 5) as f64));
                let mut cov = x.t_matmul(&x);
                cov.scale(1.0 / rows as f64);
                cov
            }
            2 => {
                let diag: Vec<f64> = (0..n).map(|_| 10.0 * uniform(&mut st)).collect();
                Matrix::from_fn(n, n, |r, c| if r == c { diag[r] } else { 0.0 })
            }
            3 => {
                let q = eigh_reference(&random_symmetric(n, &mut st)).vectors;
                let mut ql = q.clone();
                for r in 0..n {
                    for (c, v) in ql.row_mut(r).iter_mut().enumerate() {
                        *v *= (c / 3) as f64 - 2.0;
                    }
                }
                let a = ql.matmul(&q.transpose());
                Matrix::from_fn(n, n, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)))
            }
            _ => {
                let u: Vec<f64> = (0..n).map(|_| uniform(&mut st)).collect();
                Matrix::from_fn(n, n, |r, c| u[r] * u[c] + if r == c { 2.0 } else { 0.0 })
            }
        }
    }

    /// `||A V - V diag(values)||_F / ||A||_F` and `max |V^T V - I|`.
    fn residuals(a: &Matrix, res: &EighResult) -> (f64, f64) {
        let n = res.values.len();
        let av = a.matmul(&res.vectors);
        let lam = Matrix::from_fn(n, n, |r, c| res.vectors.get(r, c) * res.values[c]);
        let mut diff = av.clone();
        diff.scale(-1.0);
        diff.add_assign(&lam);
        let ortho = res
            .vectors
            .t_matmul(&res.vectors)
            .max_abs_diff(&Matrix::identity(n));
        (diff.fro_norm() / a.fro_norm().max(f64::MIN_POSITIVE), ortho)
    }

    /// Checks [`eigh`] against the [`eigh_reference`] oracle.
    fn assert_parity(a: &Matrix) {
        let n = a.rows();
        let (got, want) = (eigh(a), eigh_reference(a));
        let lmax = want
            .values
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        // The tridiagonal is JAMA's bit for bit, so are the eigenvalues.
        for (g, w) in got.values.iter().zip(&want.values) {
            assert_eq!(g.to_bits(), w.to_bits(), "eigenvalue {g} vs oracle {w}");
        }
        for res in [&got, &want] {
            let (resid, ortho) = residuals(a, res);
            assert!(resid <= 1e-10, "||AV - V diag(w)|| / ||A|| = {resid:e}");
            assert!(ortho <= 1e-12, "max |V^T V - I| = {ortho:e}");
        }
        // Isolated eigenvalues have a unique eigenvector up to sign, and
        // the shared reflector convention fixes the sign too.
        for c in 0..n {
            let below = if c > 0 {
                want.values[c] - want.values[c - 1]
            } else {
                f64::INFINITY
            };
            let above = if c + 1 < n {
                want.values[c + 1] - want.values[c]
            } else {
                f64::INFINITY
            };
            if below.min(above) / lmax <= 1e-6 {
                continue;
            }
            for r in 0..n {
                let (g, w) = (got.vectors.get(r, c), want.vectors.get(r, c));
                assert!(
                    (g - w).abs() <= 1e-8,
                    "column {c} row {r}: {g} vs oracle {w}"
                );
            }
        }
    }

    #[test]
    fn eigh_matches_reference_on_every_fixture_and_panel_remainder() {
        for n in [1, 2, 31, 32, 33, 65, 130] {
            for kind in 0..5 {
                assert_parity(&fixture(kind, n, 7 + n as u64));
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_build_is_bit_identical_to_baseline() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        for n in [1, 2, 33, 65, 130] {
            for kind in 0..5 {
                let a = fixture(kind, n, 11);
                // SAFETY: AVX2 support was just checked.
                let (base, wide) = (solve(&a), unsafe { eigh_avx2(&a) });
                let bits = |r: &EighResult| -> Vec<u64> {
                    r.values
                        .iter()
                        .chain(r.vectors.as_slice())
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&base), bits(&wide), "n={n} kind={kind}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn prop_eigh_matches_reference(
            size in 0usize..7,
            kind in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            let n = [1, 2, 31, 32, 33, 65, 130][size];
            assert_parity(&fixture(kind, n, seed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_eigh_reconstruction(seed_vals in proptest::collection::vec(-3.0f64..3.0, 16)) {
            let raw = Matrix::from_vec(4, 4, seed_vals);
            let sym = Matrix::from_fn(4, 4, |r, c| 0.5 * (raw.get(r, c) + raw.get(c, r)));
            let res = eigh(&sym);
            let back = reconstruct(&res);
            prop_assert!(sym.max_abs_diff(&back) < 1e-8);
        }

        #[test]
        fn prop_eigh_values_sorted(seed_vals in proptest::collection::vec(-3.0f64..3.0, 25)) {
            let raw = Matrix::from_vec(5, 5, seed_vals);
            let sym = Matrix::from_fn(5, 5, |r, c| 0.5 * (raw.get(r, c) + raw.get(c, r)));
            let res = eigh(&sym);
            for w in res.values.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }
}
