use std::error::Error;
use std::fmt;

use crate::{Matrix, Triplets};

/// Error returned when a matrix is singular to working precision.
///
/// Carries the pivot column at which elimination failed, which for MNA
/// systems usually identifies a floating node or a loop of ideal sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// The elimination step (column) at which no usable pivot was found.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular to working precision at column {}",
            self.column
        )
    }
}

impl Error for SingularMatrixError {}

/// Error returned by [`LuFactors::factor`] / [`LuFactors::factor_into`].
///
/// Factorization can fail for three reasons: the input is not even square
/// (a structural error — the assembled system is over- or
/// under-determined), elimination hit a zero pivot (a numerical error —
/// the matrix is singular to working precision), or the input carries a
/// NaN/Inf entry (upstream corruption — typically an overflowed device
/// evaluation). All are data-dependent conditions for callers assembling
/// matrices from user netlists, so they surface as `Err` rather than
/// panicking, and NaNs are caught here instead of propagating silently
/// through [`LuFactors::solve_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorError {
    /// The matrix is not square, so no LU factorization exists.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// The matrix is singular to working precision.
    Singular(SingularMatrixError),
    /// The matrix holds a NaN or infinite entry, so elimination would
    /// only spread the corruption.
    NonFinite {
        /// Row of the first non-finite entry encountered.
        row: usize,
        /// Column of the first non-finite entry encountered.
        col: usize,
    },
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::NotSquare { rows, cols } => {
                write!(f, "cannot factor a non-square {rows}x{cols} matrix")
            }
            FactorError::Singular(e) => e.fmt(f),
            FactorError::NonFinite { row, col } => {
                write!(f, "matrix holds a non-finite entry at ({row}, {col})")
            }
        }
    }
}

impl Error for FactorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FactorError::Singular(e) => Some(e),
            FactorError::NotSquare { .. } | FactorError::NonFinite { .. } => None,
        }
    }
}

impl From<SingularMatrixError> for FactorError {
    fn from(e: SingularMatrixError) -> Self {
        FactorError::Singular(e)
    }
}

/// LU factorization with partial pivoting (`P·A = L·U`).
///
/// Factor once, then call [`LuFactors::solve_into`] for each right-hand
/// side. This is exactly the pattern of a fixed-timestep linear transient
/// solver: the MNA matrix is constant, only the excitation changes every
/// step.
///
/// # Example
///
/// ```
/// use amsvp_linalg::{LuFactors, Matrix};
///
/// # fn main() -> Result<(), amsvp_linalg::FactorError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
/// let lu = LuFactors::factor(&a)?;
/// let mut x = [0.0; 2];
/// lu.solve_into(&[4.0, 3.0], &mut x);
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: solve uses `b[perm[i]]`.
    perm: Vec<usize>,
    /// Sign of the permutation, used by [`LuFactors::det`].
    perm_sign: f64,
}

/// Pivots smaller than this (relative to the largest element in the column)
/// are treated as zero. Shared with the sparse backend so the two report
/// singularity at the same threshold.
pub(crate) const PIVOT_EPS: f64 = 1e-13;

impl LuFactors {
    /// Factors the square matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`FactorError::NotSquare`] when `a` is not square;
    /// * [`FactorError::NonFinite`] when `a` holds a NaN/Inf entry;
    /// * [`FactorError::Singular`] if no acceptable pivot exists at some
    ///   elimination step.
    pub fn factor(a: &Matrix) -> Result<Self, FactorError> {
        if !a.is_square() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if let Some((row, col)) = first_non_finite(a) {
            return Err(FactorError::NonFinite { row, col });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..a.rows()).collect();
        let perm_sign = eliminate(&mut lu, &mut perm)?;
        Ok(LuFactors {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Re-factors `a` into this value's existing storage, so Newton loops
    /// can refresh their factorization without allocating. The dimension
    /// may differ from the previous factorization (buffers grow as
    /// needed).
    ///
    /// # Errors
    ///
    /// Returns [`FactorError`] as [`LuFactors::factor`] does; on a
    /// [`FactorError::NotSquare`] or [`FactorError::NonFinite`] input the
    /// stored factors are untouched, while after
    /// [`FactorError::Singular`] they are invalid and must not be used
    /// for [`LuFactors::solve_into`] until a subsequent factorization
    /// succeeds.
    pub fn factor_into(&mut self, a: &Matrix) -> Result<(), FactorError> {
        if !a.is_square() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if let Some((row, col)) = first_non_finite(a) {
            return Err(FactorError::NonFinite { row, col });
        }
        self.lu.copy_from(a);
        self.perm.clear();
        self.perm.extend(0..a.rows());
        self.perm_sign = eliminate(&mut self.lu, &mut self.perm)?;
        Ok(())
    }

    /// Re-factors the system accumulated in `a` into this value's
    /// existing storage — the dense implementation of
    /// [`Factorization::refactor`](crate::Factorization::refactor).
    ///
    /// The stamps are accumulated in push order into zeroed storage, which
    /// is exactly how the solver cores historically filled their dense
    /// work matrix, so the resulting factors (and every later solve) are
    /// bit-identical to the pre-seam code path.
    ///
    /// # Errors
    ///
    /// As [`LuFactors::factor`]. On [`FactorError::NotSquare`] the stored
    /// factors are untouched; after any other error they are invalid
    /// until a subsequent factorization succeeds.
    pub fn refactor(&mut self, a: &Triplets) -> Result<(), FactorError> {
        if a.rows() != a.cols() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if self.lu.rows() != n || self.lu.cols() != n {
            self.lu = Matrix::zeros(n, n);
        } else {
            self.lu.clear();
        }
        for (i, j, v) in a.iter() {
            self.lu.stamp(i, j, v);
        }
        if let Some((row, col)) = first_non_finite(&self.lu) {
            return Err(FactorError::NonFinite { row, col });
        }
        self.perm.clear();
        self.perm.extend(0..n);
        self.perm_sign = eliminate(&mut self.lu, &mut self.perm)?;
        Ok(())
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`, writing the solution into a caller-provided buffer
    /// to avoid per-step allocation in transient loops.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()` or `x.len() != self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        assert_eq!(x.len(), n, "solution dimension mismatch");
        // Forward substitution with permutation: L·y = P·b.
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            let row = self.lu.row(i);
            for (j, xj) in x.iter().enumerate().take(i) {
                acc -= row[j] * xj;
            }
            x[i] = acc;
        }
        // Back substitution: U·x = y.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = x[i];
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                acc -= row[j] * xj;
            }
            x[i] = acc / row[i];
        }
    }

    /// Solves `A·x = b` for `lanes` right-hand sides at once, sharing the
    /// stored factors — the structure-of-arrays kernel of lane-batched
    /// transient sweeps over one linearization.
    ///
    /// `b` and `x` are laid out `[row][lane]` with the lane index
    /// contiguous (`b[i * lanes + l]`), so the inner lane loops run over
    /// adjacent memory and auto-vectorize.
    ///
    /// # Determinism
    ///
    /// Lane `l`'s solution is **bit-identical** to
    /// `solve_into(&b_lane_l, ..)`: per lane the substitution performs the
    /// same multiply/subtract sequence in the same order; only the loop
    /// nesting changes. Batched sweeps rely on this to reproduce scalar
    /// waveforms exactly, and a single lane (whose layout is the scalar
    /// one) runs [`LuFactors::solve_into`] itself.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from `self.dim() * lanes`,
    /// or `acc.len() != lanes`.
    pub fn solve_lanes_into(&self, b: &[f64], x: &mut [f64], lanes: usize, acc: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n * lanes, "rhs lane-block dimension mismatch");
        assert_eq!(x.len(), n * lanes, "solution lane-block dimension mismatch");
        assert_eq!(acc.len(), lanes, "accumulator lane count mismatch");
        if lanes == 1 {
            return self.solve_into(b, x);
        }
        // Forward substitution with permutation: L·y = P·b.
        for i in 0..n {
            acc.copy_from_slice(&b[self.perm[i] * lanes..(self.perm[i] + 1) * lanes]);
            let row = self.lu.row(i);
            for (j, &lij) in row.iter().enumerate().take(i) {
                let xj = &x[j * lanes..(j + 1) * lanes];
                for (a, v) in acc.iter_mut().zip(xj) {
                    *a -= lij * v;
                }
            }
            x[i * lanes..(i + 1) * lanes].copy_from_slice(acc);
        }
        // Back substitution: U·x = y.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            acc.copy_from_slice(&x[i * lanes..(i + 1) * lanes]);
            for (j, &uij) in row.iter().enumerate().skip(i + 1) {
                let xj = &x[j * lanes..(j + 1) * lanes];
                for (a, v) in acc.iter_mut().zip(xj) {
                    *a -= uij * v;
                }
            }
            let uii = row[i];
            for (xi, a) in x[i * lanes..(i + 1) * lanes].iter_mut().zip(acc.iter()) {
                *xi = a / uii;
            }
        }
    }

    /// Determinant of the original matrix (product of U's diagonal, signed
    /// by the permutation parity).
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Returns the position of the first NaN/Inf entry of `a`, if any.
fn first_non_finite(a: &Matrix) -> Option<(usize, usize)> {
    for i in 0..a.rows() {
        if let Some(j) = a.row(i).iter().position(|v| !v.is_finite()) {
            return Some((i, j));
        }
    }
    None
}

/// Gaussian elimination with partial pivoting, in place over `lu` (which
/// holds the matrix on entry and the combined factors on exit) and `perm`.
/// Returns the permutation sign. The input was scanned for NaN/Inf before
/// this runs, but elimination itself can overflow to infinity; the pivot
/// scan re-checks the active column so such corruption still surfaces as
/// [`FactorError::NonFinite`] instead of poisoning the factors.
fn eliminate(lu: &mut Matrix, perm: &mut [usize]) -> Result<f64, FactorError> {
    let n = lu.rows();
    let mut perm_sign = 1.0;
    let scale = lu.max_abs().max(1.0);

    for k in 0..n {
        // Partial pivoting: pick the largest |value| in column k at or
        // below the diagonal.
        let mut pivot_row = k;
        let mut pivot_val = lu[(k, k)].abs();
        for i in k..n {
            let v = lu[(i, k)].abs();
            if !v.is_finite() {
                return Err(FactorError::NonFinite { row: i, col: k });
            }
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val <= PIVOT_EPS * scale {
            return Err(FactorError::Singular(SingularMatrixError { column: k }));
        }
        if pivot_row != k {
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let factor = lu[(i, k)] / pivot;
            lu[(i, k)] = factor;
            if factor != 0.0 {
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
    }
    Ok(perm_sign)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    /// Allocating convenience over `solve_into` for test brevity (the
    /// public API is buffer-based only).
    fn solve(lu: &LuFactors, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        lu.solve_into(b, &mut x);
        x
    }

    #[test]
    fn solve_identity() {
        let lu = LuFactors::factor(&Matrix::identity(3)).unwrap();
        assert_close(&solve(&lu, &[1.0, 2.0, 3.0]), &[1.0, 2.0, 3.0], 1e-14);
        assert_eq!(lu.dim(), 3);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the first diagonal position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        assert_close(&solve(&lu, &[5.0, 7.0]), &[7.0, 5.0], 1e-14);
    }

    #[test]
    fn refactor_from_triplets_matches_factor_bitwise() {
        // `refactor` stamps push-order into zeroed storage — it must
        // reproduce the dense factor of the accumulated matrix bit for
        // bit (the golden-corpus stability contract of the seam).
        let mut t = Triplets::new(3, 3);
        t.push(2, 0, 1.5);
        t.push(0, 0, 0.5);
        t.push(0, 0, 0.25); // duplicate accumulates
        t.push(1, 1, -2.0);
        t.push(0, 2, 3.0);
        t.push(2, 2, 1.0);
        t.push(1, 0, 0.125);
        let mut lu = LuFactors::factor(&Matrix::identity(3)).unwrap();
        lu.refactor(&t).unwrap();
        let fresh = LuFactors::factor(&t.to_dense()).unwrap();
        let b = [1.0, 2.0, 3.0];
        let (mut x1, mut x2) = ([0.0; 3], [0.0; 3]);
        lu.solve_into(&b, &mut x1);
        fresh.solve_into(&b, &mut x2);
        for (a, b) in x1.iter().zip(&x2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Error taxonomy flows through unchanged.
        let rect = Triplets::new(2, 3);
        assert_eq!(
            lu.refactor(&rect).unwrap_err(),
            FactorError::NotSquare { rows: 2, cols: 3 }
        );
        let mut nan = Triplets::new(2, 2);
        nan.push(0, 0, 1.0);
        nan.push(1, 1, f64::NAN);
        assert_eq!(
            lu.refactor(&nan).unwrap_err(),
            FactorError::NonFinite { row: 1, col: 1 }
        );
    }

    #[test]
    fn singular_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let err = LuFactors::factor(&a).unwrap_err();
        assert_eq!(
            err,
            FactorError::Singular(SingularMatrixError { column: 1 })
        );
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn non_square_factor_is_an_error_not_a_panic() {
        let rect = Matrix::zeros(2, 3);
        assert_eq!(
            LuFactors::factor(&rect).unwrap_err(),
            FactorError::NotSquare { rows: 2, cols: 3 }
        );
        // factor_into on a non-square input leaves the old factors usable.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut lu = LuFactors::factor(&a).unwrap();
        let err = lu.factor_into(&rect).unwrap_err();
        assert_eq!(err, FactorError::NotSquare { rows: 2, cols: 3 });
        assert!(err.to_string().contains("non-square"));
        let x = solve(&lu, &[5.0, 10.0]);
        let back = a.mul_vec(&x);
        assert_close(&back, &[5.0, 10.0], 1e-12);
    }

    #[test]
    fn non_finite_entry_is_reported_not_propagated() {
        let mut a = Matrix::identity(3);
        a[(1, 2)] = f64::NAN;
        assert_eq!(
            LuFactors::factor(&a).unwrap_err(),
            FactorError::NonFinite { row: 1, col: 2 }
        );
        a[(1, 2)] = f64::INFINITY;
        let err = LuFactors::factor(&a).unwrap_err();
        assert_eq!(err, FactorError::NonFinite { row: 1, col: 2 });
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn factor_into_keeps_old_factors_on_non_finite_input() {
        let good = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut bad = Matrix::identity(2);
        bad[(0, 0)] = f64::NAN;
        let mut lu = LuFactors::factor(&good).unwrap();
        assert_eq!(
            lu.factor_into(&bad).unwrap_err(),
            FactorError::NonFinite { row: 0, col: 0 }
        );
        // The stored factors still describe `good`.
        let x = solve(&lu, &[5.0, 10.0]);
        assert_close(&good.mul_vec(&x), &[5.0, 10.0], 1e-12);
    }

    #[test]
    fn det_matches_known() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[2.0, 4.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        assert!((lu.det() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn det_sign_with_permutation() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_into_reuses_buffer() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let mut x = vec![0.0; 2];
        lu.solve_into(&[5.0, 10.0], &mut x);
        let back = a.mul_vec(&x);
        assert_close(&back, &[5.0, 10.0], 1e-12);
    }

    #[test]
    fn factor_into_reuses_storage_and_matches_factor() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[3.0, 1.0], &[2.0, 4.0]]);
        let mut lu = LuFactors::factor(&a).unwrap();
        lu.factor_into(&b).unwrap();
        let fresh = LuFactors::factor(&b).unwrap();
        assert_close(
            &solve(&lu, &[5.0, 10.0]),
            &solve(&fresh, &[5.0, 10.0]),
            1e-14,
        );
        assert!((lu.det() - fresh.det()).abs() < 1e-12);
        // Dimension changes are allowed: buffers grow to fit.
        lu.factor_into(&Matrix::identity(3)).unwrap();
        assert_eq!(lu.dim(), 3);
        assert_close(&solve(&lu, &[1.0, 2.0, 3.0]), &[1.0, 2.0, 3.0], 1e-14);
    }

    #[test]
    fn factor_into_reports_singular() {
        let good = Matrix::identity(2);
        let bad = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut lu = LuFactors::factor(&good).unwrap();
        let err = lu.factor_into(&bad).unwrap_err();
        assert_eq!(
            err,
            FactorError::Singular(SingularMatrixError { column: 1 })
        );
    }

    #[test]
    fn solve_lanes_matches_scalar_bitwise() {
        // Moderate deterministic system with pivoting, solved for several
        // lanes at once; each lane must reproduce the scalar solve bit for
        // bit (the batched-sweep determinism contract).
        let n = 12;
        let lanes = 7;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 0xDEADBEEF_u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[((i + 1) % n, i)] += n as f64; // off-diagonal dominance forces swaps
        }
        let lu = LuFactors::factor(&a).unwrap();
        let mut b_soa = vec![0.0; n * lanes];
        for v in b_soa.iter_mut() {
            *v = next();
        }
        let mut x_soa = vec![0.0; n * lanes];
        let mut acc = vec![0.0; lanes];
        lu.solve_lanes_into(&b_soa, &mut x_soa, lanes, &mut acc);
        for l in 0..lanes {
            let b_lane: Vec<f64> = (0..n).map(|i| b_soa[i * lanes + l]).collect();
            let x_lane = solve(&lu, &b_lane);
            for i in 0..n {
                assert_eq!(
                    x_lane[i].to_bits(),
                    x_soa[i * lanes + l].to_bits(),
                    "lane {l} row {i}: scalar {} vs batched {}",
                    x_lane[i],
                    x_soa[i * lanes + l]
                );
            }
        }
    }

    #[test]
    fn residual_small_on_moderate_system() {
        // Deterministic pseudo-random SPD-ish matrix.
        let n = 24;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 0x12345678_u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += n as f64; // diagonal dominance
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = solve(&LuFactors::factor(&a).unwrap(), &b);
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }
}
