//! Sparse direct Cholesky factorization (up-looking, elimination-tree
//! based — the classic CSparse `cs_chol` algorithm).
//!
//! For the repeated solves of transient analysis (same matrix, hundreds of
//! right-hand sides, paper §2) a direct factorization amortizes beautifully:
//! one factorization, then two sparse triangular solves per time stamp.
//! Combine with [`crate::amd::amd`] to keep fill-in bounded on mesh-like
//! PDN matrices.

use crate::csr::CsrMatrix;
use crate::error::{SolveError, SparseResult};

/// A sparse Cholesky factor `A = L Lᵀ`, stored column-compressed with the
/// diagonal entry first in every column.
///
/// # Example
///
/// ```
/// use pdn_sparse::coo::CooMatrix;
/// use pdn_sparse::cholesky::SparseCholesky;
///
/// let mut coo = CooMatrix::new(3, 3);
/// for i in 0..3 { coo.push(i, i, 4.0); }
/// coo.push(0, 1, 1.0); coo.push(1, 0, 1.0);
/// coo.push(1, 2, 1.0); coo.push(2, 1, 1.0);
/// let a = coo.to_csr();
/// let chol = SparseCholesky::factor(&a).unwrap();
/// let x_true = vec![1.0, -2.0, 0.5];
/// let b = a.mul_vec(&x_true);
/// let x = chol.solve(&b);
/// for (xi, ti) in x.iter().zip(&x_true) {
///     assert!((xi - ti).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    /// Column pointers of L.
    colptr: Vec<usize>,
    /// Row indices of L (diagonal first per column, rest unsorted).
    rowind: Vec<usize>,
    /// Values of L.
    values: Vec<f64>,
}

/// Computes the elimination tree of a symmetric matrix (upper triangle
/// read via the row pattern). `parent[j] == usize::MAX` marks a root.
pub fn elimination_tree(a: &CsrMatrix) -> Vec<usize> {
    let n = a.n_rows();
    let mut parent = vec![usize::MAX; n];
    let mut ancestor = vec![usize::MAX; n];
    for k in 0..n {
        let (cols, _) = a.row(k);
        for &i in cols.iter().filter(|&&i| i < k) {
            // Walk from i up to the root, path-compressing to k.
            let mut j = i;
            while ancestor[j] != usize::MAX && ancestor[j] != k {
                let next = ancestor[j];
                ancestor[j] = k;
                j = next;
            }
            if ancestor[j] == usize::MAX {
                ancestor[j] = k;
                parent[j] = k;
            }
        }
    }
    parent
}

/// Computes the nonzero pattern of row `k` of `L` (the reach of row `k`'s
/// sub-diagonal entries in the elimination tree). Returns the pattern in
/// topological (ascending-elimination) order.
fn ereach(a: &CsrMatrix, k: usize, parent: &[usize], marked: &mut [usize], stack: &mut Vec<usize>) -> Vec<usize> {
    stack.clear();
    let mut pattern = Vec::new();
    marked[k] = k;
    let (cols, _) = a.row(k);
    for &i in cols.iter().filter(|&&i| i < k) {
        // Climb the etree from i until we hit a marked node.
        let mut len = 0;
        let mut j = i;
        while marked[j] != k {
            stack.push(j);
            len += 1;
            marked[j] = k;
            j = parent[j];
            debug_assert!(j != usize::MAX, "etree truncated");
        }
        // The climbed path is root-ward; reverse it onto the pattern so the
        // final pattern is topologically ordered per subtree.
        let start = stack.len() - len;
        pattern.extend(stack.drain(start..).rev());
    }
    pattern.sort_unstable();
    pattern
}

impl SparseCholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Apply a fill-reducing permutation first
    /// ([`CsrMatrix::permute_symmetric`]) for large mesh matrices.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] on pivot breakdown and
    /// [`SolveError::DimensionMismatch`] for non-square input.
    pub fn factor(a: &CsrMatrix) -> SparseResult<SparseCholesky> {
        if a.n_rows() != a.n_cols() {
            return Err(SolveError::DimensionMismatch {
                detail: format!("cholesky of {}x{} matrix", a.n_rows(), a.n_cols()),
            });
        }
        let n = a.n_rows();
        let parent = elimination_tree(a);

        // --- symbolic pass: column counts of L ---
        let mut counts = vec![1usize; n]; // diagonal
        {
            let mut marked = vec![usize::MAX; n];
            let mut stack = Vec::new();
            for k in 0..n {
                for j in ereach(a, k, &parent, &mut marked, &mut stack) {
                    counts[j] += 1;
                }
            }
        }
        let mut colptr = vec![0usize; n + 1];
        for j in 0..n {
            colptr[j + 1] = colptr[j] + counts[j];
        }
        let nnz = colptr[n];
        let mut rowind = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        // Next free slot per column; slot 0 of each column is the diagonal.
        let mut next = colptr.clone();
        for j in 0..n {
            rowind[next[j]] = j;
            next[j] += 1;
        }

        // --- numeric pass: up-looking row Cholesky ---
        let mut x = vec![0.0f64; n]; // dense scatter of row k
        let mut marked = vec![usize::MAX; n];
        let mut stack = Vec::new();
        for k in 0..n {
            let pattern = ereach(a, k, &parent, &mut marked, &mut stack);
            // Scatter the upper-triangular part of row k of A.
            let (cols, vals) = a.row(k);
            let mut d = 0.0;
            for (&i, &v) in cols.iter().zip(vals) {
                use std::cmp::Ordering;
                match i.cmp(&k) {
                    Ordering::Less => x[i] = v,
                    Ordering::Equal => d = v,
                    Ordering::Greater => {}
                }
            }
            // Eliminate along the pattern in topological order.
            for &j in &pattern {
                let xj = x[j];
                x[j] = 0.0;
                let diag = values[colptr[j]];
                let lkj = xj / diag;
                // x -= lkj * L[:, j] (strictly-below-diagonal entries
                // computed so far).
                for p in colptr[j] + 1..next[j] {
                    x[rowind[p]] -= values[p] * lkj;
                }
                d -= lkj * lkj;
                // Append L[k][j] to column j.
                rowind[next[j]] = k;
                values[next[j]] = lkj;
                next[j] += 1;
            }
            if d <= 0.0 {
                pdn_core::telemetry::counter_add("sparse.cholesky.breakdowns", 1);
                return Err(SolveError::NotPositiveDefinite { row: k, pivot: d });
            }
            values[colptr[k]] = d.sqrt();
        }
        pdn_core::telemetry::counter_add("sparse.cholesky.factorizations", 1);
        Ok(SparseCholesky { n, colptr, rowind, values })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros in `L` (a fill-in measure).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factor dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A x = b` in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the factor dimension.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "solve: length mismatch");
        // Forward: L y = b (column-oriented).
        for j in 0..self.n {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            x[j] /= self.values[lo];
            let xj = x[j];
            for p in lo + 1..hi {
                x[self.rowind[p]] -= self.values[p] * xj;
            }
        }
        // Backward: Lᵀ z = y.
        for j in (0..self.n).rev() {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            let mut s = x[j];
            for p in lo + 1..hi {
                s -= self.values[p] * x[self.rowind[p]];
            }
            x[j] = s / self.values[lo];
        }
    }

    /// Solves `A X = B` for `k` right-hand sides in one pass, in place.
    ///
    /// `x` holds the vectors interleaved: entry `t` of vector `v` lives at
    /// `x[t * k + v]`. The factor `L` is streamed once per column for all
    /// `k` vectors (the paper-§2 amortization: transient analysis is many
    /// solves against one matrix), instead of `k` times, so the factor's
    /// memory traffic is paid once per block.
    ///
    /// Each vector sees exactly the operations of [`solve_in_place`] in the
    /// same order, so results are bitwise identical to `k` sequential solves.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `x.len() != dim() * k`.
    pub fn solve_multi_in_place(&self, x: &mut [f64], k: usize) {
        assert!(k > 0, "solve_multi: k must be positive");
        assert_eq!(x.len(), self.n * k, "solve_multi: length mismatch");
        // Common batch widths get a compile-time k so the per-column block
        // stays in registers through the scatter/gather loops.
        match k {
            2 => return self.solve_multi_fixed::<2>(x),
            3 => return self.solve_multi_fixed::<3>(x),
            4 => return self.solve_multi_fixed::<4>(x),
            8 => return self.solve_multi_fixed::<8>(x),
            _ => {}
        }
        // Forward: L Y = B, column-oriented; row blocks of k stay adjacent.
        for j in 0..self.n {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            let d = self.values[lo];
            // Split so the optimizer knows x[j] and x[rowind[p] > j] blocks
            // never alias (L is strictly lower below the diagonal slot).
            let (head, tail) = x.split_at_mut((j + 1) * k);
            let xj = &mut head[j * k..];
            for x in xj.iter_mut() {
                *x /= d;
            }
            for p in lo + 1..hi {
                let v = self.values[p];
                let row = &mut tail[(self.rowind[p] - j - 1) * k..][..k];
                for t in 0..k {
                    row[t] -= v * xj[t];
                }
            }
        }
        // Backward: Lᵀ Z = Y, accumulating all k dot products per column.
        let mut s = vec![0.0f64; k];
        for j in (0..self.n).rev() {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            s.copy_from_slice(&x[j * k..(j + 1) * k]);
            for p in lo + 1..hi {
                let v = self.values[p];
                let row = &x[self.rowind[p] * k..][..k];
                for t in 0..k {
                    s[t] -= v * row[t];
                }
            }
            let d = self.values[lo];
            for t in 0..k {
                x[j * k + t] = s[t] / d;
            }
        }
    }

    /// [`solve_multi_in_place`](Self::solve_multi_in_place) with the batch
    /// width fixed at compile time: identical operations in identical
    /// order, with the `[f64; K]` block held in registers.
    fn solve_multi_fixed<const K: usize>(&self, x: &mut [f64]) {
        for j in 0..self.n {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            let d = self.values[lo];
            let (head, tail) = x.split_at_mut((j + 1) * K);
            let xj: &mut [f64; K] = (&mut head[j * K..]).try_into().unwrap();
            for t in xj.iter_mut() {
                *t /= d;
            }
            for p in lo + 1..hi {
                let v = self.values[p];
                let row: &mut [f64; K] =
                    (&mut tail[(self.rowind[p] - j - 1) * K..][..K]).try_into().unwrap();
                for (rv, &xv) in row.iter_mut().zip(xj.iter()) {
                    *rv -= v * xv;
                }
            }
        }
        for j in (0..self.n).rev() {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            let mut s: [f64; K] = x[j * K..(j + 1) * K].try_into().unwrap();
            for p in lo + 1..hi {
                let v = self.values[p];
                let row: &[f64; K] = x[self.rowind[p] * K..][..K].try_into().unwrap();
                for (sv, &xv) in s.iter_mut().zip(row) {
                    *sv -= v * xv;
                }
            }
            let d = self.values[lo];
            for (t, &sv) in s.iter().enumerate() {
                x[j * K + t] = sv / d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use proptest::prelude::*;

    fn grid_laplacian(rows: usize, cols: usize, shift: f64) -> CsrMatrix {
        let idx = |r: usize, c: usize| r * cols + c;
        let n = rows * cols;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..rows {
            for c in 0..cols {
                coo.push(idx(r, c), idx(r, c), shift);
                if r + 1 < rows {
                    coo.stamp_conductance(Some(idx(r, c)), Some(idx(r + 1, c)), 1.0);
                }
                if c + 1 < cols {
                    coo.stamp_conductance(Some(idx(r, c)), Some(idx(r, c + 1)), 1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn elimination_tree_of_tridiagonal_is_a_path() {
        let a = grid_laplacian(1, 6, 1.0);
        let parent = elimination_tree(&a);
        assert_eq!(parent, vec![1, 2, 3, 4, 5, usize::MAX]);
    }

    #[test]
    fn factor_matches_dense_on_grid() {
        let a = grid_laplacian(5, 4, 0.7);
        let chol = SparseCholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..20).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let b = a.mul_vec(&x_true);
        let x = chol.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn rejects_indefinite_and_rectangular() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 1.0);
        assert!(matches!(
            SparseCholesky::factor(&coo.to_csr()),
            Err(SolveError::NotPositiveDefinite { .. })
        ));
        let rect = CooMatrix::new(2, 3).to_csr();
        assert!(matches!(
            SparseCholesky::factor(&rect),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn amd_reduces_fill_on_shuffled_grid() {
        use crate::amd::amd;
        let a = grid_laplacian(12, 12, 0.5);
        let n = a.n_rows();
        // Scramble, then compare fill with and without AMD.
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by_key(|&v| (v * 37) % n);
        let shuffled = a.permute_symmetric(&perm);
        let plain = SparseCholesky::factor(&shuffled).unwrap();
        let ordered = shuffled.permute_symmetric(&amd(&shuffled));
        let better = SparseCholesky::factor(&ordered).unwrap();
        assert!(
            better.nnz() < plain.nnz(),
            "amd fill {} should beat shuffled fill {}",
            better.nnz(),
            plain.nnz()
        );
    }

    #[test]
    fn multi_rhs_solve_is_bitwise_identical_to_sequential() {
        use crate::vecops::{deinterleave_into, interleave};
        let a = grid_laplacian(6, 5, 0.4);
        let n = a.n_rows();
        let chol = SparseCholesky::factor(&a).unwrap();
        for k in [1usize, 2, 4, 7] {
            let rhs: Vec<Vec<f64>> = (0..k)
                .map(|t| (0..n).map(|i| ((i * (t + 2)) % 9) as f64 - 4.0 + t as f64 * 0.5).collect())
                .collect();
            let singles: Vec<Vec<f64>> = rhs.iter().map(|b| chol.solve(b)).collect();
            let refs: Vec<&[f64]> = rhs.iter().map(|v| v.as_slice()).collect();
            let mut multi = vec![0.0; n * k];
            interleave(&refs, &mut multi);
            chol.solve_multi_in_place(&mut multi, k);
            let mut col = vec![0.0; n];
            for (t, expected) in singles.iter().enumerate() {
                deinterleave_into(&multi, k, t, &mut col);
                assert_eq!(&col, expected, "k={k}: vector {t} differs (bitwise)");
            }
        }
    }

    #[test]
    fn repeated_solves_are_consistent_with_cg() {
        use crate::cg::{self, CgOptions};
        use crate::ichol::IncompleteCholesky;
        let a = grid_laplacian(7, 7, 0.3);
        let chol = SparseCholesky::factor(&a).unwrap();
        let pre = IncompleteCholesky::factor(&a).unwrap();
        for seed in 0..5 {
            let b: Vec<f64> = (0..49).map(|i| ((i * (seed + 3)) % 11) as f64 - 5.0).collect();
            let direct = chol.solve(&b);
            let iterative = cg::solve(&a, &b, &pre, &CgOptions::default()).unwrap().x;
            for (d, i) in direct.iter().zip(&iterative) {
                assert!((d - i).abs() < 1e-7, "{d} vs {i}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_spd_round_trip(n in 2usize..25, seed in 0u64..100) {
            use rand::{Rng as _, SeedableRng as _};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut coo = CooMatrix::new(n, n);
            let mut row_sums = vec![0.0; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.25) {
                        let g = rng.gen_range(0.1..2.0);
                        coo.push(i, j, -g);
                        coo.push(j, i, -g);
                        row_sums[i] += g;
                        row_sums[j] += g;
                    }
                }
            }
            for (i, &rs) in row_sums.iter().enumerate() {
                coo.push(i, i, rs + rng.gen_range(0.1..1.0));
            }
            let a = coo.to_csr();
            let chol = SparseCholesky::factor(&a).unwrap();
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b = a.mul_vec(&x_true);
            let x = chol.solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-8);
            }
        }
    }
}
