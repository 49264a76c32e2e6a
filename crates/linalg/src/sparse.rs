//! Sparse LU with one-time symbolic analysis and pattern-reusing numeric
//! refactorization — the scale-out path of the `Factorization` seam.
//!
//! [`SparseLu::analyze`] performs the expensive, once-per-model work on a
//! [`Triplets`] accumulator: duplicate coordinates are coalesced into a
//! compressed column structure, a **maximum transversal** pairs each row
//! with a column it has a structural nonzero in, a fill-reducing
//! **minimum-degree** ordering is computed on the symmetrized pattern of
//! the row-matched matrix (graph node `k` is column `k` together with the
//! row matched to it, so the order does not depend on how equations and
//! unknowns happen to be numbered), and a left-looking
//! Gilbert–Peierls factorization with partial pivoting discovers the exact
//! fill-in pattern of `L` and `U`. Everything that depends only on the
//! *structure* — the column order, the pivot sequence, the fill slots, and
//! the scatter map from raw triplet pushes to compressed values — is frozen
//! at that point.
//!
//! [`SparseLu::refactor`] then rewrites the numeric values of `L` and `U`
//! in place, with **no allocation and no symbolic work**, as long as the
//! caller stamps the same coordinate sequence (the Newton-loop case: values
//! change every rebuild, structure never does). The `FactorError::{Singular,
//! NonFinite}` taxonomy of the dense path is preserved: inputs are scanned
//! for NaN/Inf before elimination and pivots are re-checked against the
//! same `PIVOT_EPS`-relative threshold. When the frozen pivot sequence
//! degrades (a pivot far smaller than its column) or the coordinate
//! sequence changes (a topology switch), `refactor` transparently falls
//! back to a fresh analysis instead of returning garbage.
//!
//! Solves are **scratch-free**: the row permutation and the column order
//! are pre-composed into the stored factor indices, so forward/backward
//! substitution works directly in the caller's `x` buffer. This is what
//! lets many threads share one factorization (`&self`) and what makes the
//! lane-batched [`SparseLu::solve_lanes_into`] bit-identical per lane to
//! the scalar solve.

use crate::lu::PIVOT_EPS;
use crate::{FactorError, SingularMatrixError, Triplets};

/// A refactorization pivot whose magnitude falls below this fraction of
/// its column's largest entry triggers a fresh analysis (new pivot
/// sequence) rather than silently amplifying roundoff.
const PIVOT_QUALITY: f64 = 1e-3;

/// Sentinel for "row not yet pivoted" during factorization.
const UNSET: usize = usize::MAX;

/// Monotonic lifetime statistics of a [`SparseLu`], for the
/// `linalg.sparse.{analyze,refactor,fill}` observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseStats {
    /// Completed symbolic analyses (including internal re-analyses).
    pub analyze: u64,
    /// Completed pattern-reusing numeric refactorizations.
    pub refactor: u64,
    /// Cumulative nonzeros of `L + U` over all analyses (fill-in included).
    pub fill: u64,
}

/// Sparse LU factors with a frozen symbolic pattern.
///
/// See the [module docs](self) for the analyze/refactor life cycle. Built
/// from the same [`Triplets`] stamps as the dense path:
///
/// ```
/// use amsvp_linalg::{SparseLu, Triplets};
///
/// # fn main() -> Result<(), amsvp_linalg::FactorError> {
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 4.0);
/// t.push(0, 1, 1.0);
/// t.push(1, 0, 2.0);
/// t.push(1, 1, 3.0);
/// let mut lu = SparseLu::analyze(&t)?;
/// let mut x = [0.0; 2];
/// lu.solve_into(&[9.0, 13.0], &mut x);
/// assert!((x[0] - 1.4).abs() < 1e-12);
/// assert!((x[1] - 3.4).abs() < 1e-12);
///
/// // Same coordinates, new values: numeric-only refactorization.
/// t.clear();
/// t.push(0, 0, 1.0);
/// t.push(0, 1, 0.0);
/// t.push(1, 0, 0.0);
/// t.push(1, 1, 2.0);
/// lu.refactor(&t)?;
/// lu.solve_into(&[3.0, 8.0], &mut x);
/// assert!((x[0] - 3.0).abs() < 1e-12);
/// assert!((x[1] - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Raw `(row, col)` push sequence the analysis assumed; a mismatch on
    /// refactor means the stamping structure changed and forces re-analysis.
    coords: Vec<(usize, usize)>,
    /// Raw entry `k` accumulates into `a_vals[scatter[k]]`.
    scatter: Vec<usize>,
    /// Coalesced values of `A`, column-major in *original* column order.
    a_vals: Vec<f64>,
    /// Column pointers over `a_vals`, indexed by original column.
    a_colptr: Vec<usize>,
    /// Original `(row, col)` of each `a_vals` slot (NonFinite reporting).
    a_coord: Vec<(usize, usize)>,
    /// Pivot position of each `a_vals` slot's row (`pinv[row]`).
    a_rowpos: Vec<usize>,
    /// Column order, the minimum-degree order of the row-matched pattern:
    /// position `j` eliminates original column `q[j]`, and the solution
    /// of position `j` lands in `x[q[j]]`.
    q: Vec<usize>,
    /// Row pivots: position `k` eliminates original row `rowperm[k]`.
    rowperm: Vec<usize>,
    /// `L` (unit diagonal implicit), per pivot position, fixed pattern.
    l_colptr: Vec<usize>,
    /// Position-space row of each `L` entry (strictly below its column).
    l_pos: Vec<usize>,
    /// `q[l_pos]` pre-composed so solves write straight into `x`.
    l_tgt: Vec<usize>,
    l_val: Vec<f64>,
    /// Strictly-upper `U` per column, rows ascending; diagonal separate.
    u_colptr: Vec<usize>,
    u_pos: Vec<usize>,
    u_tgt: Vec<usize>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
    /// Numeric work vector in position space; only `&mut self` methods
    /// touch it, so shared (`&self`) solves stay thread-safe.
    work: Vec<f64>,
    /// Set while the stored factors do not describe any matrix (a failed
    /// refactor); the next refactor re-analyzes from scratch.
    poisoned: bool,
    stats: SparseStats,
}

impl SparseLu {
    /// Symbolically analyzes and numerically factors `a`.
    ///
    /// # Errors
    ///
    /// * [`FactorError::NotSquare`] when the accumulator is not square;
    /// * [`FactorError::NonFinite`] when a pushed value (or an accumulated
    ///   sum) is NaN/Inf;
    /// * [`FactorError::Singular`] when no acceptable pivot exists for
    ///   some column (reported by *original* column index).
    pub fn analyze(a: &Triplets) -> Result<Self, FactorError> {
        let mut lu = SparseLu {
            n: 0,
            coords: Vec::new(),
            scatter: Vec::new(),
            a_vals: Vec::new(),
            a_colptr: Vec::new(),
            a_coord: Vec::new(),
            a_rowpos: Vec::new(),
            q: Vec::new(),
            rowperm: Vec::new(),
            l_colptr: Vec::new(),
            l_pos: Vec::new(),
            l_tgt: Vec::new(),
            l_val: Vec::new(),
            u_colptr: Vec::new(),
            u_pos: Vec::new(),
            u_tgt: Vec::new(),
            u_val: Vec::new(),
            u_diag: Vec::new(),
            work: Vec::new(),
            poisoned: true,
            stats: SparseStats::default(),
        };
        lu.reanalyze(a)?;
        Ok(lu)
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Nonzeros of `L + U` (fill-in and the unit diagonal included).
    pub fn factor_nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.n
    }

    /// Lifetime analyze/refactor/fill tallies (monotonic).
    pub fn stats(&self) -> SparseStats {
        self.stats
    }

    /// Zeroes the statistics — used when cloning a compile-time template
    /// into a run-time instance so per-run counters start from zero.
    pub fn reset_stats(&mut self) {
        self.stats = SparseStats::default();
    }

    /// Rewrites the numeric factors for new values stamped over the same
    /// coordinate sequence. No allocation, no symbolic work in the steady
    /// state. A changed coordinate sequence or a degraded pivot falls back
    /// to a full re-analysis transparently.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::analyze`]. Unlike dense
    /// [`LuFactors::factor_into`](crate::LuFactors::factor_into), the
    /// stored factors are invalid after *any* error until a subsequent
    /// call succeeds.
    pub fn refactor(&mut self, a: &Triplets) -> Result<(), FactorError> {
        if a.rows() != a.cols() {
            self.poisoned = true;
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if self.poisoned || !self.coords_match(a) {
            return self.reanalyze(a);
        }
        if let Some((row, col)) = first_non_finite_raw(a) {
            self.poisoned = true;
            return Err(FactorError::NonFinite { row, col });
        }
        self.scatter_values(a)?;
        match self.refactor_numeric() {
            Ok(()) => {
                self.stats.refactor += 1;
                Ok(())
            }
            // The frozen pivot sequence no longer suits the values (or a
            // marginal pivot fails where a fresh choice may not): re-pivot.
            Err(_) => self.reanalyze(a),
        }
    }

    /// Solves `A·x = b` using the stored factors, writing into `x`.
    ///
    /// Needs no internal scratch: many threads may solve through one
    /// shared factorization concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()` or `x.len() != self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        assert_eq!(x.len(), n, "solution dimension mismatch");
        // Gather P·b, stored at the final (column-order) slot of each
        // position so the substitutions can work in place in `x`.
        for k in 0..n {
            x[self.q[k]] = b[self.rowperm[k]];
        }
        // Forward substitution: L·y = P·b (unit diagonal).
        for k in 0..n {
            let xk = x[self.q[k]];
            for p in self.l_colptr[k]..self.l_colptr[k + 1] {
                x[self.l_tgt[p]] -= self.l_val[p] * xk;
            }
        }
        // Back substitution: U·z = y; z lands in original order via `q`.
        for j in (0..n).rev() {
            let xj = x[self.q[j]] / self.u_diag[j];
            x[self.q[j]] = xj;
            for p in self.u_colptr[j]..self.u_colptr[j + 1] {
                x[self.u_tgt[p]] -= self.u_val[p] * xj;
            }
        }
    }

    /// Solves `lanes` right-hand sides at once over the `[row][lane]`
    /// layout of lane-batched sweeps. Per lane the multiply/subtract
    /// sequence is identical to [`SparseLu::solve_into`], so each lane's
    /// solution is **bit-identical** to its scalar twin.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from `self.dim() * lanes`,
    /// or `acc.len() != lanes`.
    pub fn solve_lanes_into(&self, b: &[f64], x: &mut [f64], lanes: usize, acc: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n * lanes, "rhs lane-block dimension mismatch");
        assert_eq!(x.len(), n * lanes, "solution lane-block dimension mismatch");
        assert_eq!(acc.len(), lanes, "accumulator lane count mismatch");
        for k in 0..n {
            let (src, dst) = (self.rowperm[k] * lanes, self.q[k] * lanes);
            x[dst..dst + lanes].copy_from_slice(&b[src..src + lanes]);
        }
        for k in 0..n {
            let qk = self.q[k] * lanes;
            acc.copy_from_slice(&x[qk..qk + lanes]);
            for p in self.l_colptr[k]..self.l_colptr[k + 1] {
                let (lv, tgt) = (self.l_val[p], self.l_tgt[p] * lanes);
                for (l, a) in acc.iter().enumerate() {
                    x[tgt + l] -= lv * a;
                }
            }
        }
        for j in (0..n).rev() {
            let (ud, qj) = (self.u_diag[j], self.q[j] * lanes);
            for (l, a) in acc.iter_mut().enumerate() {
                *a = x[qj + l] / ud;
            }
            x[qj..qj + lanes].copy_from_slice(acc);
            for p in self.u_colptr[j]..self.u_colptr[j + 1] {
                let (uv, tgt) = (self.u_val[p], self.u_tgt[p] * lanes);
                for (l, a) in acc.iter().enumerate() {
                    x[tgt + l] -= uv * a;
                }
            }
        }
    }

    /// Whether `a`'s raw push sequence matches the analyzed one.
    fn coords_match(&self, a: &Triplets) -> bool {
        a.len() == self.coords.len()
            && a.iter()
                .zip(&self.coords)
                .all(|((i, j, _), &(ci, cj))| i == ci && j == cj)
    }

    /// Zeroes `a_vals` and re-accumulates the raw values through the
    /// scatter map — the same left-to-right order every time, so repeated
    /// stamps of the same values reproduce the same sums bit for bit.
    /// Reports accumulated-to-NonFinite slots (overflowing sums).
    fn scatter_values(&mut self, a: &Triplets) -> Result<(), FactorError> {
        self.a_vals.iter_mut().for_each(|v| *v = 0.0);
        for (k, (_, _, v)) in a.iter().enumerate() {
            self.a_vals[self.scatter[k]] += v;
        }
        for (p, v) in self.a_vals.iter().enumerate() {
            if !v.is_finite() {
                let (row, col) = self.a_coord[p];
                self.poisoned = true;
                return Err(FactorError::NonFinite { row, col });
            }
        }
        Ok(())
    }

    /// Full symbolic + numeric analysis of `a`, reusing `self`'s identity
    /// (and statistics) but rebuilding every structure.
    fn reanalyze(&mut self, a: &Triplets) -> Result<(), FactorError> {
        self.poisoned = true;
        if a.rows() != a.cols() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if let Some((row, col)) = first_non_finite_raw(a) {
            return Err(FactorError::NonFinite { row, col });
        }
        let n = a.rows();
        self.n = n;

        // --- Coalesce: sorted CSC over original columns + scatter map. ---
        self.coords.clear();
        self.coords.extend(a.iter().map(|(i, j, _)| (i, j)));
        let mut order: Vec<usize> = (0..self.coords.len()).collect();
        // Stable on the push index so duplicate accumulation order is the
        // push order (matches dense stamping).
        order.sort_by_key(|&k| (self.coords[k].1, self.coords[k].0, k));
        self.scatter.clear();
        self.scatter.resize(self.coords.len(), 0);
        self.a_coord.clear();
        self.a_colptr.clear();
        self.a_colptr.resize(n + 1, 0);
        for &k in &order {
            let (i, j) = self.coords[k];
            if self.a_coord.last() != Some(&(i, j)) {
                self.a_coord.push((i, j));
                self.a_colptr[j + 1] += 1;
            }
            self.scatter[k] = self.a_coord.len() - 1;
        }
        for j in 0..n {
            self.a_colptr[j + 1] += self.a_colptr[j];
        }
        let nnz = self.a_coord.len();
        self.a_vals.clear();
        self.a_vals.resize(nnz, 0.0);
        self.scatter_values(a)?;

        // --- Fill-reducing column order: pair each row with a column it
        // touches, then minimum degree on the row-matched pattern, so
        // graph node k stands for column k and the row matched to it. ---
        let row_col = max_transversal(n, &self.a_coord);
        let matched: Vec<(usize, usize)> =
            self.a_coord.iter().map(|&(i, j)| (row_col[i], j)).collect();
        min_degree_order(n, &matched, &mut self.q);

        // --- Gilbert–Peierls left-looking LU with partial pivoting. ---
        let scale = self
            .a_vals
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v.abs()))
            .max(1.0);
        let mut pinv = vec![UNSET; n];
        self.rowperm.clear();
        self.rowperm.resize(n, 0);
        // Per pivot position: original rows of L's below-diagonal entries,
        // in the fixed numeric-update order discovered here.
        let mut lrows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut lvals: Vec<Vec<f64>> = vec![Vec::new(); n];
        // Per position j: the pivot positions k of U(:, j)'s entries.
        let mut urows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut x = vec![0.0; n]; // numeric work, original-row indexed
        let mut visited = vec![usize::MAX; n];
        let mut reach: Vec<usize> = Vec::new(); // DFS postorder
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

        for j in 0..n {
            let c = self.q[j];
            // Symbolic: rows reachable from A(:, c) through finished L
            // columns; postorder gives a dependency-respecting order.
            reach.clear();
            for p in self.a_colptr[c]..self.a_colptr[c + 1] {
                let r0 = self.a_coord[p].0;
                if visited[r0] == j {
                    continue;
                }
                visited[r0] = j;
                dfs_stack.push((r0, 0));
                while let Some(top) = dfs_stack.last_mut() {
                    let r = top.0;
                    let k = pinv[r];
                    let deps: &[usize] = if k == UNSET { &[] } else { &lrows[k] };
                    let mut next = None;
                    while top.1 < deps.len() {
                        let cand = deps[top.1];
                        top.1 += 1;
                        if visited[cand] != j {
                            next = Some(cand);
                            break;
                        }
                    }
                    match next {
                        Some(cand) => {
                            visited[cand] = j;
                            dfs_stack.push((cand, 0));
                        }
                        None => {
                            dfs_stack.pop();
                            reach.push(r);
                        }
                    }
                }
            }
            // Numeric: sparse triangular solve for column j.
            for &r in &reach {
                x[r] = 0.0;
            }
            for p in self.a_colptr[c]..self.a_colptr[c + 1] {
                x[self.a_coord[p].0] = self.a_vals[p];
            }
            for idx in (0..reach.len()).rev() {
                let r = reach[idx];
                let k = pinv[r];
                if k == UNSET {
                    continue;
                }
                let xr = x[r];
                for (i, lv) in lrows[k].iter().zip(&lvals[k]) {
                    x[*i] -= lv * xr;
                }
            }
            // Partial pivot among the not-yet-pivoted reached rows.
            let mut pivot_row = UNSET;
            let mut pivot_abs = 0.0;
            for idx in (0..reach.len()).rev() {
                let r = reach[idx];
                if pinv[r] != UNSET {
                    continue;
                }
                let v = x[r].abs();
                if !v.is_finite() {
                    return Err(FactorError::NonFinite { row: r, col: c });
                }
                if pivot_row == UNSET || v > pivot_abs {
                    pivot_abs = v;
                    pivot_row = r;
                }
            }
            if pivot_row == UNSET || pivot_abs <= PIVOT_EPS * scale {
                return Err(FactorError::Singular(SingularMatrixError { column: c }));
            }
            pinv[pivot_row] = j;
            self.rowperm[j] = pivot_row;
            let pivot = x[pivot_row];
            for idx in (0..reach.len()).rev() {
                let r = reach[idx];
                if pinv[r] == UNSET {
                    lrows[j].push(r);
                    lvals[j].push(x[r] / pivot);
                } else if pinv[r] < j {
                    urows[j].push(pinv[r]);
                }
            }
            urows[j].sort_unstable();
        }

        // --- Freeze position-space structures for refactor and solve. ---
        self.a_rowpos.clear();
        self.a_rowpos
            .extend(self.a_coord.iter().map(|&(i, _)| pinv[i]));
        self.l_colptr.clear();
        self.l_colptr.push(0);
        self.l_pos.clear();
        self.l_tgt.clear();
        for col in lrows.iter().take(n) {
            for &r in col {
                self.l_pos.push(pinv[r]);
                self.l_tgt.push(self.q[pinv[r]]);
            }
            self.l_colptr.push(self.l_pos.len());
        }
        self.l_val.clear();
        self.l_val.resize(self.l_pos.len(), 0.0);
        self.u_colptr.clear();
        self.u_colptr.push(0);
        self.u_pos.clear();
        self.u_tgt.clear();
        for col in urows.iter().take(n) {
            for &k in col {
                self.u_pos.push(k);
                self.u_tgt.push(self.q[k]);
            }
            self.u_colptr.push(self.u_pos.len());
        }
        self.u_val.clear();
        self.u_val.resize(self.u_pos.len(), 0.0);
        self.u_diag.clear();
        self.u_diag.resize(n, 0.0);
        self.work.clear();
        self.work.resize(n, 0.0);

        // One canonical numeric pass: values produced here and by every
        // later pattern-reusing refactor follow the identical operation
        // order, so analyze-then-solve and refactor-then-solve agree bit
        // for bit on identical inputs.
        self.refactor_numeric()?;
        self.poisoned = false;
        self.stats.analyze += 1;
        self.stats.fill += self.factor_nnz() as u64;
        Ok(())
    }

    /// Numeric-only factorization over the frozen pattern. Errors reflect
    /// the frozen pivot sequence failing; [`SparseLu::refactor`] treats
    /// them as a cue to re-analyze.
    fn refactor_numeric(&mut self) -> Result<(), FactorError> {
        let n = self.n;
        let scale = self
            .a_vals
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v.abs()))
            .max(1.0);
        for j in 0..n {
            let c = self.q[j];
            // Zero the work vector over this column's frozen pattern only.
            for p in self.u_colptr[j]..self.u_colptr[j + 1] {
                self.work[self.u_pos[p]] = 0.0;
            }
            self.work[j] = 0.0;
            for p in self.l_colptr[j]..self.l_colptr[j + 1] {
                self.work[self.l_pos[p]] = 0.0;
            }
            for p in self.a_colptr[c]..self.a_colptr[c + 1] {
                self.work[self.a_rowpos[p]] = self.a_vals[p];
            }
            // Left-looking update: ascending pivot positions is a valid
            // dependency order, and it is *fixed*, which is what makes
            // repeated refactors of equal values bit-reproducible.
            for p in self.u_colptr[j]..self.u_colptr[j + 1] {
                let k = self.u_pos[p];
                let ukj = self.work[k];
                self.u_val[p] = ukj;
                for pp in self.l_colptr[k]..self.l_colptr[k + 1] {
                    self.work[self.l_pos[pp]] -= self.l_val[pp] * ukj;
                }
            }
            let pivot = self.work[j];
            let mut colmax = pivot.abs();
            for p in self.l_colptr[j]..self.l_colptr[j + 1] {
                colmax = colmax.max(self.work[self.l_pos[p]].abs());
            }
            if !colmax.is_finite() {
                self.poisoned = true;
                return Err(FactorError::NonFinite {
                    row: self.rowperm[j],
                    col: c,
                });
            }
            if pivot.abs() <= PIVOT_EPS * scale || pivot.abs() < PIVOT_QUALITY * colmax {
                self.poisoned = true;
                return Err(FactorError::Singular(SingularMatrixError { column: c }));
            }
            self.u_diag[j] = pivot;
            for p in self.l_colptr[j]..self.l_colptr[j + 1] {
                self.l_val[p] = self.work[self.l_pos[p]] / pivot;
            }
        }
        self.poisoned = false;
        Ok(())
    }
}

/// First NaN/Inf among the raw pushed values, in push order.
fn first_non_finite_raw(a: &Triplets) -> Option<(usize, usize)> {
    a.iter()
        .find(|(_, _, v)| !v.is_finite())
        .map(|(i, j, _)| (i, j))
}

/// Maximum transversal (MC21): pairs each row `i` with a column
/// `row_col[i]` in which it has a structural nonzero, so that the
/// row-permuted pattern has a zero-free diagonal. Rows are matched in
/// index order; each first tries a cheap assignment (its next unmatched
/// column, a pointer that only moves forward), then a depth-first search
/// for an augmenting path through matched columns, run on an explicit
/// stack. Worst case O(n·nnz). `coords` may repeat entries and come in
/// any order; the result is a deterministic function of the sequence.
///
/// A structurally singular pattern has no full matching: its leftover
/// rows are paired with the leftover columns in index order, so
/// `row_col` is always a permutation (the factorization then reports the
/// singularity itself).
fn max_transversal(n: usize, coords: &[(usize, usize)]) -> Vec<usize> {
    // Row-wise pattern: row `i`'s columns are `cols[ptr[i]..ptr[i + 1]]`.
    let mut ptr = vec![0usize; n + 1];
    for &(i, _) in coords {
        ptr[i + 1] += 1;
    }
    for i in 0..n {
        ptr[i + 1] += ptr[i];
    }
    let mut fill = ptr.clone();
    let mut cols = vec![0usize; coords.len()];
    for &(i, j) in coords {
        cols[fill[i]] = j;
        fill[i] += 1;
    }

    let mut row_col = vec![UNSET; n];
    let mut col_row = vec![UNSET; n];
    // Cheap-assignment cursor per row; DFS cursor per row on the stack.
    let mut cheap = ptr[..n].to_vec();
    let mut next = vec![0usize; n];
    // `seen[j] == root`: column `j` was already tried for this root.
    let mut seen = vec![UNSET; n];
    let mut stack = Vec::new();
    for root in 0..n {
        stack.push(root);
        next[root] = ptr[root];
        while let Some(&i) = stack.last() {
            let mut free = None;
            while cheap[i] < ptr[i + 1] {
                let j = cols[cheap[i]];
                cheap[i] += 1;
                if col_row[j] == UNSET {
                    free = Some(j);
                    break;
                }
            }
            if let Some(mut j) = free {
                // Augment: each row on the path takes the column the row
                // above it on the stack held until now.
                for &r in stack.iter().rev() {
                    let held = std::mem::replace(&mut row_col[r], j);
                    col_row[j] = r;
                    j = held;
                }
                stack.clear();
                break;
            }
            // Every column of `i` is matched: descend through an untried
            // one into the row holding it, or give up on `i`.
            let mut child = None;
            while next[i] < ptr[i + 1] {
                let j = cols[next[i]];
                next[i] += 1;
                if seen[j] != root {
                    seen[j] = root;
                    child = Some(col_row[j]);
                    break;
                }
            }
            match child {
                Some(r) => {
                    next[r] = ptr[r];
                    stack.push(r);
                }
                None => {
                    stack.pop();
                }
            }
        }
    }
    // Structurally singular: pair the leftovers in index order.
    let mut free_cols = (0..n).filter(|&j| col_row[j] == UNSET);
    for c in row_col.iter_mut().filter(|c| **c == UNSET) {
        *c = free_cols.next().expect("as many free columns as free rows");
    }
    row_col
}

/// Exact minimum-degree ordering on the pattern of `A + Aᵀ` (no
/// supernodes, aggressive absorption or approximate degrees — circuit
/// matrices at VP scale do not need them). Each step eliminates the live
/// node of smallest degree in the current elimination graph, ties toward
/// the smallest index, and joins its neighbors into a clique. Writes the
/// column order into `q`: position `j` eliminates original column `q[j]`.
///
/// The elimination graph is held explicitly, one neighbor set per live
/// node (unsorted, duplicate-free), so memory is O(n + Σ degree). A
/// neighbor's new set is a union built over a generation-stamped marker
/// array into one reused scratch list that is then swapped with the old
/// set: no sort and no fresh allocation per step. An eliminated node's
/// set is released at once. Selection is a linear scan.
fn min_degree_order(n: usize, coords: &[(usize, usize)], q: &mut Vec<usize>) {
    q.clear();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(i, j) in coords {
        if i != j {
            adj[i].push(j);
            adj[j].push(i);
        }
    }
    // `mark[w] == stamp`: `w` is excluded from (or already in) the set
    // being built under the current stamp.
    let mut mark = vec![0usize; n];
    let mut stamp = 0;
    for list in &mut adj {
        stamp += 1;
        list.retain(|&w| std::mem::replace(&mut mark[w], stamp) != stamp);
    }
    // Degree of each live node; `usize::MAX` marks an eliminated one.
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut merged = Vec::new();
    for _ in 0..n {
        let v = (0..n)
            .min_by_key(|&v| (degree[v], v))
            .expect("one live node remains per step");
        q.push(v);
        degree[v] = usize::MAX;
        // Live sets hold live nodes only (plus `v`, until this step ends),
        // so each neighbor's new set is its old one minus `v` and the
        // clique, plus the clique minus itself.
        let nbrs = std::mem::take(&mut adj[v]);
        stamp += 1;
        mark[v] = stamp;
        for &u in &nbrs {
            mark[u] = stamp;
        }
        for &u in &nbrs {
            merged.clear();
            merged.extend(adj[u].iter().copied().filter(|&w| mark[w] != stamp));
            merged.extend(nbrs.iter().copied().filter(|&w| w != u));
            degree[u] = merged.len();
            std::mem::swap(&mut adj[u], &mut merged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LuFactors;

    /// Deterministic LCG in [-0.5, 0.5).
    fn rng(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }

    /// A diagonally-dominant sparse band system with some random spray.
    fn band_system(n: usize, seed: u64) -> Triplets {
        let mut t = Triplets::new(n, n);
        let mut s = seed;
        for i in 0..n {
            t.push(i, i, 4.0 + rng(&mut s));
            if i + 1 < n {
                t.push(i, i + 1, rng(&mut s));
                t.push(i + 1, i, rng(&mut s));
            }
            let far = (i * 7 + 3) % n;
            if far != i {
                t.push(i, far, 0.25 * rng(&mut s));
            }
        }
        t
    }

    fn solve_dense(t: &Triplets, b: &[f64]) -> Vec<f64> {
        let lu = LuFactors::factor(&t.to_dense()).unwrap();
        let mut x = vec![0.0; b.len()];
        lu.solve_into(b, &mut x);
        x
    }

    #[test]
    fn matches_dense_on_band_system() {
        let n = 40;
        let t = band_system(n, 0xA5A5);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut slu = SparseLu::analyze(&t).unwrap();
        let mut x = vec![0.0; n];
        slu.solve_into(&b, &mut x);
        let xd = solve_dense(&t, &b);
        for (a, d) in x.iter().zip(&xd) {
            assert!((a - d).abs() < 1e-10, "sparse {a} vs dense {d}");
        }
        assert_eq!(slu.dim(), n);
        assert!(slu.factor_nnz() >= 3 * n - 2);
        assert_eq!(slu.stats().analyze, 1);
        // Refactor with new values over the same stamps.
        let mut t2 = Triplets::new(n, n);
        for (i, j, v) in t.iter() {
            t2.push(i, j, v * 1.5 + if i == j { 1.0 } else { 0.0 });
        }
        slu.refactor(&t2).unwrap();
        slu.solve_into(&b, &mut x);
        let xd2 = solve_dense(&t2, &b);
        for (a, d) in x.iter().zip(&xd2) {
            assert!((a - d).abs() < 1e-10);
        }
        assert_eq!(slu.stats().refactor, 1);
    }

    #[test]
    fn needs_pivoting_zero_diagonal() {
        // Anti-diagonal: every pivot requires a row swap.
        let mut t = Triplets::new(3, 3);
        t.push(0, 2, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(0, 0, 1e-20); // numerically useless diagonal entry
        let slu = SparseLu::analyze(&t).unwrap();
        let mut x = [0.0; 3];
        slu.solve_into(&[2.0, 6.0, 8.0], &mut x);
        let xd = solve_dense(&t, &[2.0, 6.0, 8.0]);
        for (a, d) in x.iter().zip(&xd) {
            assert!((a - d).abs() < 1e-10);
        }
    }

    #[test]
    fn duplicate_stamps_accumulate_like_dense() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 0.5);
        t.push(1, 1, 2.0);
        t.push(0, 1, 0.25);
        t.push(1, 0, -0.25);
        let slu = SparseLu::analyze(&t).unwrap();
        let mut x = [0.0; 2];
        slu.solve_into(&[1.75, 1.75], &mut x);
        let xd = solve_dense(&t, &[1.75, 1.75]);
        for (a, d) in x.iter().zip(&xd) {
            assert!((a - d).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_same_values_is_bit_identical() {
        let n = 30;
        let t = band_system(n, 0xBEEF);
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut slu = SparseLu::analyze(&t).unwrap();
        let mut x1 = vec![0.0; n];
        slu.solve_into(&b, &mut x1);
        slu.refactor(&t).unwrap();
        let mut x2 = vec![0.0; n];
        slu.solve_into(&b, &mut x2);
        for (a, b) in x1.iter().zip(&x2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pattern_change_reanalyzes_transparently() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        let mut slu = SparseLu::analyze(&t).unwrap();
        assert_eq!(slu.stats().analyze, 1);
        // New stamping structure (an off-diagonal appears).
        let mut t2 = Triplets::new(2, 2);
        t2.push(0, 0, 2.0);
        t2.push(0, 1, 1.0);
        t2.push(1, 1, 3.0);
        slu.refactor(&t2).unwrap();
        assert_eq!(slu.stats().analyze, 2, "coordinate change must re-analyze");
        let mut x = [0.0; 2];
        slu.solve_into(&[4.0, 3.0], &mut x);
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn value_swing_repivots_instead_of_failing() {
        // Frozen pivots favor the diagonal; afterwards the diagonal
        // collapses to ~0 and the off-diagonal dominates — the numeric
        // refactor must fall back to a fresh analysis, not error out.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 10.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 10.0);
        let mut slu = SparseLu::analyze(&t).unwrap();
        let mut t2 = Triplets::new(2, 2);
        t2.push(0, 0, 1e-16);
        t2.push(0, 1, 1.0);
        t2.push(1, 0, 1.0);
        t2.push(1, 1, 1e-16);
        slu.refactor(&t2).unwrap();
        assert!(slu.stats().analyze >= 2);
        let mut x = [0.0; 2];
        slu.solve_into(&[1.0, 2.0], &mut x);
        let xd = solve_dense(&t2, &[1.0, 2.0]);
        for (a, d) in x.iter().zip(&xd) {
            assert!((a - d).abs() < 1e-9);
        }
    }

    #[test]
    fn error_taxonomy_matches_dense() {
        let rect = Triplets::new(2, 3);
        assert_eq!(
            SparseLu::analyze(&rect).unwrap_err(),
            FactorError::NotSquare { rows: 2, cols: 3 }
        );
        let mut nan = Triplets::new(2, 2);
        nan.push(0, 0, 1.0);
        nan.push(1, 1, f64::NAN);
        assert_eq!(
            SparseLu::analyze(&nan).unwrap_err(),
            FactorError::NonFinite { row: 1, col: 1 }
        );
        let mut sing = Triplets::new(2, 2);
        sing.push(0, 0, 1.0);
        sing.push(0, 1, 2.0);
        sing.push(1, 0, 2.0);
        sing.push(1, 1, 4.0);
        assert!(matches!(
            SparseLu::analyze(&sing).unwrap_err(),
            FactorError::Singular(_)
        ));
        // A structurally empty column is singular too.
        let mut hole = Triplets::new(2, 2);
        hole.push(0, 0, 1.0);
        hole.push(1, 0, 1.0);
        assert!(matches!(
            SparseLu::analyze(&hole).unwrap_err(),
            FactorError::Singular(_)
        ));
    }

    #[test]
    fn recovers_after_failed_refactor() {
        let t = band_system(12, 7);
        let mut slu = SparseLu::analyze(&t).unwrap();
        let mut bad = Triplets::new(12, 12);
        for (i, j, v) in t.iter() {
            bad.push(i, j, if i == 3 && j == 3 { f64::INFINITY } else { v });
        }
        assert!(matches!(
            slu.refactor(&bad).unwrap_err(),
            FactorError::NonFinite { .. }
        ));
        // The next good refactor must fully recover (re-analysis path).
        slu.refactor(&t).unwrap();
        let b: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let mut x = vec![0.0; 12];
        slu.solve_into(&b, &mut x);
        let xd = solve_dense(&t, &b);
        for (a, d) in x.iter().zip(&xd) {
            assert!((a - d).abs() < 1e-10);
        }
    }

    #[test]
    fn lane_solves_are_bitwise_scalar() {
        let n = 25;
        let lanes = 6;
        let t = band_system(n, 0x1234);
        let slu = SparseLu::analyze(&t).unwrap();
        let mut s = 99u64;
        let b_soa: Vec<f64> = (0..n * lanes).map(|_| rng(&mut s)).collect();
        let mut x_soa = vec![0.0; n * lanes];
        let mut acc = vec![0.0; lanes];
        slu.solve_lanes_into(&b_soa, &mut x_soa, lanes, &mut acc);
        for l in 0..lanes {
            let b_lane: Vec<f64> = (0..n).map(|i| b_soa[i * lanes + l]).collect();
            let mut x_lane = vec![0.0; n];
            slu.solve_into(&b_lane, &mut x_lane);
            for i in 0..n {
                assert_eq!(
                    x_lane[i].to_bits(),
                    x_soa[i * lanes + l].to_bits(),
                    "lane {l} row {i}"
                );
            }
        }
    }

    /// The textbook ordering `min_degree_order` must reproduce exactly:
    /// sorted adjacency lists, re-collected, re-sorted and re-deduplicated
    /// for every neighbor of every eliminated node.
    fn min_degree_order_textbook(n: usize, coords: &[(usize, usize)]) -> Vec<usize> {
        let mut q = Vec::new();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, j) in coords {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        let mut eliminated = vec![false; n];
        let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        for _ in 0..n {
            let v = (0..n)
                .filter(|&v| !eliminated[v])
                .min_by_key(|&v| (degree[v], v))
                .expect("one uneliminated node remains per step");
            q.push(v);
            eliminated[v] = true;
            let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            for &u in &nbrs {
                let mut merged: Vec<usize> = adj[u]
                    .iter()
                    .copied()
                    .filter(|&w| !eliminated[w])
                    .chain(nbrs.iter().copied().filter(|&w| w != u))
                    .collect();
                merged.sort_unstable();
                merged.dedup();
                degree[u] = merged.len();
                adj[u] = merged;
            }
        }
        q
    }

    /// Deterministic xorshift64* generator.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, bound: usize) -> usize {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as usize % bound.max(1)
        }
    }

    /// A random `n × n` coordinate pattern of one of five shapes, chosen
    /// by `shape`: asymmetric scatter, scatter with duplicate pushes,
    /// diagonal only, disconnected blocks, or scatter plus a dense hub
    /// row or column.
    fn random_pattern(rng: &mut XorShift, shape: usize, n: usize) -> Vec<(usize, usize)> {
        let mut c = Vec::new();
        if n == 0 {
            return c;
        }
        let scatter = |rng: &mut XorShift, c: &mut Vec<_>, per_row: usize| {
            for _ in 0..n * per_row / 2 {
                c.push((rng.below(n), rng.below(n)));
            }
        };
        match shape {
            0 => {
                let per_row = 1 + rng.below(3);
                scatter(rng, &mut c, per_row);
            }
            1 => {
                scatter(rng, &mut c, 2);
                for k in 0..c.len() {
                    if rng.below(3) == 0 {
                        c.push(c[k]);
                    }
                }
                c.extend((0..n).flat_map(|i| [(i, i), (i, i)]));
            }
            2 => c.extend((0..n).map(|i| (i, i))),
            3 => {
                let mut start = 0;
                while start < n {
                    let len = (1 + rng.below(24)).min(n - start);
                    for i in start..start + len {
                        c.push((i, i));
                        c.push((i, start + rng.below(len)));
                        c.push((start + rng.below(len), i));
                    }
                    start += len;
                }
            }
            _ => {
                scatter(rng, &mut c, 1);
                let hub = rng.below(n);
                let row = rng.below(2) == 0;
                c.extend((0..n).map(|k| if row { (hub, k) } else { (k, hub) }));
            }
        }
        c
    }

    #[test]
    fn min_degree_order_matches_textbook_oracle() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut q = Vec::new();
        for case in 0..240 {
            let n = match case {
                0..=4 => case,
                _ => rng.below(301),
            };
            let coords = random_pattern(&mut rng, case % 5, n);
            min_degree_order(n, &coords, &mut q);
            assert_eq!(
                q,
                min_degree_order_textbook(n, &coords),
                "case {case}: shape {}, n = {n}",
                case % 5
            );
        }
    }

    #[test]
    fn tridiagonal_has_no_fill() {
        // A pure band: minimum degree must keep elimination fill-free
        // (L and U stay within the band), the whole point of ordering.
        let n = 50;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        let slu = SparseLu::analyze(&t).unwrap();
        assert!(
            slu.factor_nnz() <= 3 * n,
            "tridiagonal fill blew up: {} nonzeros",
            slu.factor_nnz()
        );
    }

    /// A seeded random permutation of `0..n` (Fisher–Yates).
    fn permutation(rng: &mut XorShift, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            p.swap(k, rng.below(k + 1));
        }
        p
    }

    #[test]
    fn row_scrambled_band_has_no_fill() {
        // The same band with its equations listed in a scrambled order,
        // as `amsim` lists them: the row matching must undo the scramble
        // before the ordering, or `A + Aᵀ` pairs unrelated rows and
        // columns and the fill grows.
        let n = 200;
        let perm = permutation(&mut XorShift(0x5EED_F00D), n);
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(perm[i], i, 4.0);
            if i + 1 < n {
                t.push(perm[i], i + 1, -1.0);
                t.push(perm[i + 1], i, -1.0);
            }
        }
        let slu = SparseLu::analyze(&t).unwrap();
        assert!(
            slu.factor_nnz() <= 3 * n,
            "row-scrambled tridiagonal fill blew up: {} nonzeros",
            slu.factor_nnz()
        );
    }

    #[test]
    fn max_transversal_matches_every_row_of_a_nonsingular_pattern() {
        let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
        for case in 0..240 {
            let n = match case {
                0..=4 => case,
                _ => rng.below(301),
            };
            // Planting a permutation makes every pattern structurally
            // nonsingular, so a full matching exists.
            let perm = permutation(&mut rng, n);
            let mut coords = random_pattern(&mut rng, case % 5, n);
            coords.extend((0..n).map(|i| (i, perm[i])));
            let row_col = max_transversal(n, &coords);
            let mut hit = vec![false; n];
            for (i, &c) in row_col.iter().enumerate() {
                assert!(c < n && !hit[c], "case {case}: column {c} reused");
                hit[c] = true;
                assert!(
                    coords.contains(&(i, c)),
                    "case {case}: row {i} matched to column {c} it does not touch"
                );
            }
            assert_eq!(row_col.len(), n, "case {case}");
        }
    }

    #[test]
    fn structurally_singular_patterns_stay_singular() {
        // An empty column and an empty row: no full matching exists, the
        // leftovers are paired by index and elimination reports it.
        let n = 6;
        let mut no_col = Triplets::new(n, n);
        let mut no_row = Triplets::new(n, n);
        for i in 0..n {
            for j in [i, (i + 1) % n] {
                if j != 2 {
                    no_col.push(i, j, 1.0 + (i + j) as f64);
                }
                if i != 4 {
                    no_row.push(i, j, 1.0 + (i * j) as f64);
                }
            }
        }
        for t in [&no_col, &no_row] {
            assert!(matches!(
                SparseLu::analyze(t).unwrap_err(),
                FactorError::Singular(_)
            ));
        }
        let mut sorted = max_transversal(n, &no_col.pattern());
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
