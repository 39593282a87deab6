//! Small dense-vector kernels shared by the iterative solvers.

/// Dot product.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(pdn_sparse::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y = x + beta * y` (the CG direction update).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Maximum absolute entry (∞-norm).
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Packs `k` equal-length vectors into the interleaved multi-RHS layout used
/// by the batched solvers: entry `i` of vector `t` lands at `dst[i * k + t]`.
///
/// # Panics
///
/// Panics if `srcs` is empty, the sources differ in length, or `dst` is not
/// exactly `len * k` long.
pub fn interleave(srcs: &[&[f64]], dst: &mut [f64]) {
    let k = srcs.len();
    assert!(k > 0, "interleave: no sources");
    let n = srcs[0].len();
    assert!(srcs.iter().all(|s| s.len() == n), "interleave: ragged sources");
    assert_eq!(dst.len(), n * k, "interleave: dst length mismatch");
    for (t, src) in srcs.iter().enumerate() {
        for (i, &v) in src.iter().enumerate() {
            dst[i * k + t] = v;
        }
    }
}

/// Extracts vector `t` from the interleaved multi-RHS layout.
///
/// # Panics
///
/// Panics if `k == 0`, `t >= k`, `src.len()` is not a multiple of `k`, or
/// `dst` has the wrong length.
pub fn deinterleave_into(src: &[f64], k: usize, t: usize, dst: &mut [f64]) {
    assert!(k > 0 && t < k, "deinterleave: bad vector index {t} of {k}");
    assert_eq!(src.len() % k, 0, "deinterleave: src not a multiple of k");
    assert_eq!(dst.len(), src.len() / k, "deinterleave: dst length mismatch");
    for (i, d) in dst.iter_mut().enumerate() {
        *d = src[i * k + t];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xpby_updates_direction() {
        let mut p = vec![1.0, 2.0];
        xpby(&[10.0, 20.0], 0.5, &mut p);
        assert_eq!(p, vec![10.5, 21.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-7.0, 4.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_checks_length() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
