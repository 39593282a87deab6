//! Relaxed modified incomplete Cholesky — MIC(0) — preconditioner.
//!
//! The factor keeps the sparsity of `A`'s lower triangle, as zero-fill
//! IC(0) does, but every fill entry the pattern drops is subtracted, scaled
//! by [`MIC_RELAXATION`], from the diagonals of both its rows. The row sums
//! of `L Lᵀ` then track those of `A`, which removes the smooth error modes
//! IC(0) leaves to the outer iteration: on the PDN companion matrices
//! warm-started CG needs about a third fewer iterations per time stamp
//! (paper §2: one solve per time stamp, so this is most of sign-off cost).
//!
//! The sweeps multiply by a stored reciprocal diagonal instead of dividing,
//! so their dependency chains run at multiply latency, and index the factor
//! with `u32` to halve the index stream.

use crate::cg::Preconditioner;
use crate::csr::CsrMatrix;
use crate::error::{SolveError, SparseResult};

/// The relaxation ω of the diagonal compensation. At ω = 1 (pure MIC) the
/// DC matrix, whose interior rows sum to zero, drives pivots to zero: the
/// factor breaks down or CG needs several times IC(0)'s iterations. At
/// ω = 0.95 the factor stays positive on every preset and keeps most of
/// MIC's cut on the transient matrix (EXPERIMENTS.md, "Relaxed MIC(0)").
pub const MIC_RELAXATION: f64 = 0.95;

/// The MIC(0) factor `L` (lower triangular, same sparsity as the lower
/// triangle of `A`), applied as the preconditioner `M⁻¹ = (L Lᵀ)⁻¹`.
///
/// # Example
///
/// ```
/// use pdn_sparse::coo::CooMatrix;
/// use pdn_sparse::ichol::IncompleteCholesky;
/// use pdn_sparse::cg::Preconditioner;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0);
/// coo.push(1, 1, 16.0);
/// let a = coo.to_csr();
/// // For a diagonal matrix nothing is dropped: M⁻¹ r = A⁻¹ r.
/// let pre = IncompleteCholesky::factor(&a).unwrap();
/// let mut z = vec![0.0; 2];
/// pre.apply(&[4.0, 16.0], &mut z);
/// assert_eq!(z, vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    n: usize,
    // Strict lower triangle of L in CSR (columns ascending), for the
    // forward sweep.
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
    // The same entries in CSC (Lᵀ by rows, rows ascending), for the
    // backward sweep.
    t_indptr: Vec<u32>,
    t_indices: Vec<u32>,
    t_values: Vec<f64>,
    // 1 / L[i][i].
    inv_diag: Vec<f64>,
}

/// `v` as a `u32` factor index, or the error naming what overflowed.
fn index32(v: usize, what: &str) -> SparseResult<u32> {
    u32::try_from(v).map_err(|_| SolveError::DimensionMismatch {
        detail: format!("ichol: {what} {v} exceeds the 32-bit factor index range"),
    })
}

/// Transposes an `n × n` compressed triangle, CSR to CSC or back. Walking
/// the source in order leaves the indices of each output line ascending.
fn transpose(
    n: usize,
    ptr: &[u32],
    idx: &[u32],
    vals: &[f64],
) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
    let mut t_ptr = vec![0u32; n + 1];
    for &i in idx {
        t_ptr[i as usize + 1] += 1;
    }
    for i in 0..n {
        t_ptr[i + 1] += t_ptr[i];
    }
    let mut t_idx = vec![0u32; idx.len()];
    let mut t_vals = vec![0.0; idx.len()];
    let mut next = t_ptr.clone();
    for line in 0..n {
        for p in ptr[line] as usize..ptr[line + 1] as usize {
            let i = idx[p] as usize;
            let q = next[i] as usize;
            t_idx[q] = line as u32;
            t_vals[q] = vals[p];
            next[i] += 1;
        }
    }
    (t_ptr, t_idx, t_vals)
}

impl IncompleteCholesky {
    /// Computes the relaxed MIC(0) factorization (ω = [`MIC_RELAXATION`])
    /// of a symmetric positive-definite matrix. Only the lower triangle of
    /// `a` is read.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] on pivot breakdown and
    /// [`SolveError::DimensionMismatch`] for non-square input or a factor
    /// too large for 32-bit indices.
    pub fn factor(a: &CsrMatrix) -> SparseResult<IncompleteCholesky> {
        Self::factor_relaxed(a, MIC_RELAXATION)
    }

    /// The factorization at relaxation `omega`: 0 is IC(0), 1 is MIC(0).
    fn factor_relaxed(a: &CsrMatrix, omega: f64) -> SparseResult<IncompleteCholesky> {
        if a.n_rows() != a.n_cols() {
            return Err(SolveError::DimensionMismatch {
                detail: format!("ichol of {}x{} matrix", a.n_rows(), a.n_cols()),
            });
        }
        let n = a.n_rows();
        index32(n, "dimension")?;

        // The diagonal and strict lower triangle of A, which the
        // elimination overwrites with the factor; it walks the triangle
        // column by column, so it holds it in CSC.
        let mut diag = vec![0.0; n];
        let mut colptr = vec![0u32; n + 1];
        for (i, d) in diag.iter_mut().enumerate() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j < i {
                    colptr[j + 1] += 1;
                } else if j == i {
                    *d = v;
                }
            }
        }
        let mut nnz = 0usize;
        for c in colptr.iter_mut().skip(1) {
            nnz += *c as usize;
            *c = index32(nnz, "non-zero count")?;
        }
        let mut rows = vec![0u32; nnz];
        let mut vals = vec![0.0; nnz];
        {
            let mut next = colptr.clone();
            for i in 0..n {
                let (cols, a_vals) = a.row(i);
                for (&j, &v) in cols.iter().zip(a_vals) {
                    if j >= i {
                        break;
                    }
                    let p = next[j] as usize;
                    rows[p] = i as u32;
                    vals[p] = v;
                    next[j] += 1;
                }
            }
        }

        // Right-looking elimination, column by column. Each pair of rows
        // i > j below the pivot contributes L[i][k]·L[j][k] to (i, j): kept
        // if (i, j) is in the pattern, otherwise moved (times ω) onto the
        // diagonals of rows i and j.
        for k in 0..n {
            let pivot = diag[k];
            if pivot <= 0.0 {
                pdn_core::telemetry::counter_add("sparse.ichol.breakdowns", 1);
                return Err(SolveError::NotPositiveDefinite { row: k, pivot });
            }
            let lkk = pivot.sqrt();
            // Later columns update only rows below k, so the pivot's slot
            // is free to hold the reciprocal the sweeps multiply by.
            diag[k] = 1.0 / lkk;
            let (lo, hi) = (colptr[k] as usize, colptr[k + 1] as usize);
            for v in &mut vals[lo..hi] {
                *v /= lkk;
            }
            for p in lo..hi {
                let j = rows[p] as usize;
                let ljk = vals[p];
                diag[j] -= ljk * ljk;
                let (jlo, jhi) = (colptr[j] as usize, colptr[j + 1] as usize);
                for q in p + 1..hi {
                    let i = rows[q];
                    let prod = vals[q] * ljk;
                    match rows[jlo..jhi].binary_search(&i) {
                        Ok(s) => vals[jlo + s] -= prod,
                        Err(_) => {
                            diag[i as usize] -= omega * prod;
                            diag[j] -= omega * prod;
                        }
                    }
                }
            }
        }

        // The forward sweep reads the factor by rows.
        let (indptr, indices, values) = transpose(n, &colptr, &rows, &vals);
        pdn_core::telemetry::counter_add("sparse.ichol.factorizations", 1);
        Ok(IncompleteCholesky {
            n,
            indptr,
            indices,
            values,
            t_indptr: colptr,
            t_indices: rows,
            t_values: vals,
            inv_diag: diag,
        })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Row `i` of the strict lower factor (forward sweep) as
    /// `(columns, values)`.
    fn lower_row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.indptr[i] as usize, self.indptr[i + 1] as usize);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Row `i` of the strict upper factor `Lᵀ` (backward sweep) as
    /// `(columns, values)`.
    fn upper_row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.t_indptr[i] as usize, self.t_indptr[i + 1] as usize);
        (&self.t_indices[lo..hi], &self.t_values[lo..hi])
    }

    /// Solves `L Lᵀ z = r` (forward then backward substitution).
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the factor size.
    pub fn solve_into(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n, "solve: r length mismatch");
        assert_eq!(z.len(), self.n, "solve: z length mismatch");
        // Forward: L y = r.
        for i in 0..self.n {
            let (cols, vals) = self.lower_row(i);
            let mut s = r[i];
            for (&c, &v) in cols.iter().zip(vals) {
                s -= v * z[c as usize];
            }
            z[i] = s * self.inv_diag[i];
        }
        // Backward: Lᵀ x = y.
        for i in (0..self.n).rev() {
            let (cols, vals) = self.upper_row(i);
            let mut s = z[i];
            for (&c, &v) in cols.iter().zip(vals) {
                s -= v * z[c as usize];
            }
            z[i] = s * self.inv_diag[i];
        }
    }

    /// Solves `L Lᵀ Z = R` for `k` interleaved right-hand sides
    /// (`r[i * k + t]` is entry `i` of vector `t`), streaming the factor
    /// once per row for all vectors. Per vector, the operations match
    /// [`solve_into`] exactly, so each column is bitwise identical to a
    /// separate single-vector solve.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or lengths are not `dim() * k`.
    pub fn solve_multi_into(&self, r: &[f64], z: &mut [f64], k: usize) {
        assert!(k > 0, "solve_multi: k must be positive");
        assert_eq!(r.len(), self.n * k, "solve_multi: r length mismatch");
        assert_eq!(z.len(), self.n * k, "solve_multi: z length mismatch");
        // Common batch widths get a compile-time k so the running block
        // stays in registers across each row's update loop.
        match k {
            2 => self.solve_multi_fixed::<2>(r, z),
            3 => self.solve_multi_fixed::<3>(r, z),
            4 => self.solve_multi_fixed::<4>(r, z),
            8 => self.solve_multi_fixed::<8>(r, z),
            _ => self.solve_multi_generic(r, z, k),
        }
    }

    fn solve_multi_generic(&self, r: &[f64], z: &mut [f64], k: usize) {
        let mut s = vec![0.0f64; k];
        for i in 0..self.n {
            let (cols, vals) = self.lower_row(i);
            s.copy_from_slice(&r[i * k..(i + 1) * k]);
            for (&c, &v) in cols.iter().zip(vals) {
                let zb = &z[c as usize * k..][..k];
                for t in 0..k {
                    s[t] -= v * zb[t];
                }
            }
            let d = self.inv_diag[i];
            for t in 0..k {
                z[i * k + t] = s[t] * d;
            }
        }
        for i in (0..self.n).rev() {
            let (cols, vals) = self.upper_row(i);
            s.copy_from_slice(&z[i * k..(i + 1) * k]);
            for (&c, &v) in cols.iter().zip(vals) {
                let zb = &z[c as usize * k..][..k];
                for t in 0..k {
                    s[t] -= v * zb[t];
                }
            }
            let d = self.inv_diag[i];
            for t in 0..k {
                z[i * k + t] = s[t] * d;
            }
        }
    }

    /// [`solve_multi_generic`](Self::solve_multi_generic) with the batch
    /// width fixed at compile time: identical operations in identical
    /// order, with the `[f64; K]` block held in registers.
    fn solve_multi_fixed<const K: usize>(&self, r: &[f64], z: &mut [f64]) {
        for i in 0..self.n {
            let (cols, vals) = self.lower_row(i);
            let mut s: [f64; K] = r[i * K..(i + 1) * K].try_into().unwrap();
            for (&c, &v) in cols.iter().zip(vals) {
                let zb: &[f64; K] = z[c as usize * K..][..K].try_into().unwrap();
                for (sv, &zv) in s.iter_mut().zip(zb) {
                    *sv -= v * zv;
                }
            }
            let d = self.inv_diag[i];
            for (t, &sv) in s.iter().enumerate() {
                z[i * K + t] = sv * d;
            }
        }
        for i in (0..self.n).rev() {
            let (cols, vals) = self.upper_row(i);
            let mut s: [f64; K] = z[i * K..(i + 1) * K].try_into().unwrap();
            for (&c, &v) in cols.iter().zip(vals) {
                let zb: &[f64; K] = z[c as usize * K..][..K].try_into().unwrap();
                for (sv, &zv) in s.iter_mut().zip(zb) {
                    *sv -= v * zv;
                }
            }
            let d = self.inv_diag[i];
            for (t, &sv) in s.iter().enumerate() {
                z[i * K + t] = sv * d;
            }
        }
    }
}

impl Preconditioner for IncompleteCholesky {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve_into(r, z);
    }

    fn apply_multi(&self, r: &[f64], z: &mut [f64], k: usize) {
        self.solve_multi_into(r, z, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn laplacian_path(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn exact_on_tridiagonal() {
        // A tridiagonal matrix has no dropped fill, so MIC(0) is the
        // exact Cholesky factorization: applying it solves the system.
        let a = laplacian_path(6);
        let pre = IncompleteCholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        let b = a.mul_vec(&x_true);
        let mut z = vec![0.0; 6];
        pre.solve_into(&b, &mut z);
        for (zi, ti) in z.iter().zip(&x_true) {
            assert!((zi - ti).abs() < 1e-12, "{zi} vs {ti}");
        }
    }

    #[test]
    fn matches_dense_cholesky_when_no_fill() {
        let a = laplacian_path(5);
        let pre = IncompleteCholesky::factor(&a).unwrap();
        let dense = crate::dense::DenseMatrix::from_rows(
            &a.to_dense().iter().map(|r| r.as_slice()).collect::<Vec<_>>(),
        );
        let chol = dense.cholesky().unwrap();
        let b = vec![1.0, 0.0, -1.0, 2.0, 0.5];
        let mut z = vec![0.0; 5];
        pre.solve_into(&b, &mut z);
        let x = chol.solve(&b);
        for (zi, xi) in z.iter().zip(&x) {
            assert!((zi - xi).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            IncompleteCholesky::factor(&a),
            Err(SolveError::NotPositiveDefinite { row: 1, .. })
        ));
    }

    #[test]
    fn rejects_rectangular() {
        let coo = CooMatrix::new(2, 3);
        assert!(matches!(
            IncompleteCholesky::factor(&coo.to_csr()),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    /// `n × n` 5-point grid Laplacian with `shift` added to each diagonal.
    fn grid(n: usize, shift: f64) -> CsrMatrix {
        let idx = |r: usize, c: usize| r * n + c;
        let mut coo = CooMatrix::new(n * n, n * n);
        for r in 0..n {
            for c in 0..n {
                coo.push(idx(r, c), idx(r, c), shift);
                if r + 1 < n {
                    coo.stamp_conductance(Some(idx(r, c)), Some(idx(r + 1, c)), 1.0);
                }
                if c + 1 < n {
                    coo.stamp_conductance(Some(idx(r, c)), Some(idx(r, c + 1)), 1.0);
                }
            }
        }
        coo.to_csr()
    }

    /// `L Lᵀ x`, from the factor's two stored triangles.
    fn llt_mul(pre: &IncompleteCholesky, x: &[f64]) -> Vec<f64> {
        let n = pre.dim();
        let diag: Vec<f64> = pre.inv_diag.iter().map(|d| 1.0 / d).collect();
        // y = Lᵀ x.
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let (cols, vals) = pre.upper_row(i);
                diag[i] * x[i] + cols.iter().zip(vals).map(|(&c, v)| v * x[c as usize]).sum::<f64>()
            })
            .collect();
        // L y.
        (0..n)
            .map(|i| {
                let (cols, vals) = pre.lower_row(i);
                diag[i] * y[i] + cols.iter().zip(vals).map(|(&c, v)| v * y[c as usize]).sum::<f64>()
            })
            .collect()
    }

    #[test]
    fn unrelaxed_mic_preserves_row_sums() {
        // At ω = 1 every dropped fill entry lands on the diagonal, so
        // L Lᵀ 1 = A 1; at ω = 0 (IC(0)) the grid's dropped fill shows.
        let a = grid(6, 0.3);
        let ones = vec![1.0; a.n_rows()];
        let want = a.mul_vec(&ones);
        let dev = |omega: f64| {
            let got = llt_mul(&IncompleteCholesky::factor_relaxed(&a, omega).unwrap(), &ones);
            got.iter().zip(&want).map(|(g, w)| (g - w).abs()).fold(0.0, f64::max)
        };
        assert!(dev(1.0) < 1e-12, "MIC(0) row sums drift by {}", dev(1.0));
        assert!(dev(0.0) > 0.1, "IC(0) should not preserve row sums: {}", dev(0.0));
        assert!(dev(MIC_RELAXATION) < dev(0.0));
    }

    #[test]
    fn relaxed_mic_cuts_cg_iterations_against_ic0() {
        use crate::cg::{solve, CgOptions};
        let a = grid(24, 0.01);
        let b: Vec<f64> = (0..a.n_rows()).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let opts = CgOptions::default();
        let iters = |pre: IncompleteCholesky| solve(&a, &b, &pre, &opts).unwrap().iterations;
        let ic0 = iters(IncompleteCholesky::factor_relaxed(&a, 0.0).unwrap());
        let mic = iters(IncompleteCholesky::factor(&a).unwrap());
        assert!(mic < ic0, "relaxed MIC(0) took {mic} iterations, IC(0) {ic0}");
    }

    #[test]
    fn incomplete_on_2d_grid_is_close() {
        // 2-D 5-point Laplacian has fill; MIC(0) is inexact but should still
        // be a decent approximation: ‖A (LLᵀ)⁻¹ b − b‖ ≪ ‖b‖.
        let n = 4;
        let a = grid(n, 4.2);
        let pre = IncompleteCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 3) as f64 - 1.0).collect();
        let mut z = vec![0.0; n * n];
        pre.solve_into(&b, &mut z);
        let az = a.mul_vec(&z);
        let err: f64 = az.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(err / nb < 0.5, "MIC(0) too inaccurate: {}", err / nb);
    }
}
