//! The `Factorization` seam: one API over dense and sparse direct solvers.
//!
//! Solver cores ([`amsim`'s Newton loop, `eln`'s fixed-matrix transient)
//! talk to their linear algebra exclusively through [`Factorization`]:
//! analyze once per compiled model, refactor on every Jacobian rebuild,
//! solve (scalar or lane-batched) every iteration. [`AnyLu`] is the
//! concrete handle they store — a two-variant enum rather than a trait
//! object, because factors are cloned into run-time instances and solved
//! through `&self` from many threads, and static dispatch keeps the
//! per-iteration solve calls free of vtable indirection.
//!
//! Backends are picked per compiled model by [`SolverKind`]: `Auto` (the
//! default) runs the sparse analysis and keeps it when its measured L+U
//! fill beats the dense n² ([`AnyLu::resolve`]), `Dense`/`Sparse` force a
//! backend. The dense path through this seam reproduces the historical
//! `LuFactors` behavior **bit for bit** — same stamp accumulation order,
//! same elimination — which is what keeps dense waveforms byte-stable
//! across the redesign.

use crate::{FactorError, LuFactors, SparseLu, SparseStats, Triplets};

/// Backend selection for the [`Factorization`] seam.
///
/// `Auto` resolves at model-compile time from the fill a trial sparse
/// analysis of the assembled system measures ([`AnyLu::resolve`]); the
/// resolved choice is then fixed for the model's lifetime (clones,
/// instances, and batch lanes inherit it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Keep [`SolverKind::Sparse`] when its L+U fill beats the dense n²,
    /// else [`SolverKind::Dense`] (see [`AnyLu::resolve`]).
    #[default]
    Auto,
    /// Dense LU with partial pivoting ([`LuFactors`]).
    Dense,
    /// Sparse LU with a frozen symbolic pattern ([`SparseLu`]).
    Sparse,
}

/// `Auto` keeps the sparse backend when `FILL_WEIGHT · fill ≤ n²`: a
/// sparse solve walks `fill` stored L+U entries through index arrays, a
/// dense one all n² entries in tight loops, so a sparse entry may cost
/// up to `FILL_WEIGHT` dense ones. Calibrated on the corpus in DESIGN.md
/// §12: at RC1's fill/n² of 0.52 the backends tie within host noise and
/// RC1 keeps its dense bits; from the diode clamp's 0.43 down, every
/// corpus circuit steps faster sparse.
const FILL_WEIGHT: usize = 2;

/// Whether a system of dimension `n` whose L+U holds `fill` entries
/// solves cheaper on the sparse backend.
fn sparse_wins(n: usize, fill: usize) -> bool {
    FILL_WEIGHT * fill <= n * n
}

/// Direct-solver factorization of a square system assembled as
/// [`Triplets`] stamps.
///
/// The life cycle is *analyze once, refactor many, solve often*:
///
/// * [`Factorization::analyze`] does everything that may allocate or make
///   structural decisions (orderings, fill patterns);
/// * [`Factorization::refactor`] renews the numeric factors after the
///   caller re-stamped the same structure with new values (Newton
///   rebuilds, time-step changes) — steady-state allocation-free;
/// * [`Factorization::solve_into`] / [`Factorization::solve_lanes_into`]
///   take `&self` and no internal scratch, so one factorization may serve
///   many threads and lanes concurrently.
pub trait Factorization: Sized {
    /// Builds a factorization from scratch, choosing structure and
    /// performing the first numeric factorization.
    ///
    /// # Errors
    ///
    /// [`FactorError::NotSquare`], [`FactorError::NonFinite`], or
    /// [`FactorError::Singular`] exactly as the dense
    /// [`LuFactors::factor`] taxonomy defines them.
    fn analyze(a: &Triplets) -> Result<Self, FactorError>;

    /// Renews the numeric factors for freshly stamped values.
    ///
    /// # Errors
    ///
    /// As [`Factorization::analyze`]; after an error the factors must be
    /// treated as invalid until a subsequent call succeeds.
    fn refactor(&mut self, a: &Triplets) -> Result<(), FactorError>;

    /// Dimension of the factored system.
    fn dim(&self) -> usize;

    /// Solves `A·x = b` into the caller's buffer. Panics on dimension
    /// mismatch.
    fn solve_into(&self, b: &[f64], x: &mut [f64]);

    /// Solves `lanes` right-hand sides over the `[row][lane]` SoA layout;
    /// per lane bit-identical to [`Factorization::solve_into`]. `acc` is
    /// caller scratch of length `lanes`. Panics on dimension mismatch.
    fn solve_lanes_into(&self, b: &[f64], x: &mut [f64], lanes: usize, acc: &mut [f64]);
}

impl Factorization for LuFactors {
    fn analyze(a: &Triplets) -> Result<Self, FactorError> {
        // `to_dense` stamps in push order — the accumulation order the
        // historical dense path used, preserved for bit-identity.
        if a.rows() != a.cols() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        LuFactors::factor(&a.to_dense())
    }

    fn refactor(&mut self, a: &Triplets) -> Result<(), FactorError> {
        LuFactors::refactor(self, a)
    }

    fn dim(&self) -> usize {
        LuFactors::dim(self)
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        LuFactors::solve_into(self, b, x);
    }

    fn solve_lanes_into(&self, b: &[f64], x: &mut [f64], lanes: usize, acc: &mut [f64]) {
        LuFactors::solve_lanes_into(self, b, x, lanes, acc);
    }
}

impl Factorization for SparseLu {
    fn analyze(a: &Triplets) -> Result<Self, FactorError> {
        SparseLu::analyze(a)
    }

    fn refactor(&mut self, a: &Triplets) -> Result<(), FactorError> {
        SparseLu::refactor(self, a)
    }

    fn dim(&self) -> usize {
        SparseLu::dim(self)
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        SparseLu::solve_into(self, b, x);
    }

    fn solve_lanes_into(&self, b: &[f64], x: &mut [f64], lanes: usize, acc: &mut [f64]) {
        SparseLu::solve_lanes_into(self, b, x, lanes, acc);
    }
}

/// A dense-or-sparse factorization behind one concrete, cloneable type —
/// what the solver cores store in compiled models, workspaces, and batch
/// lanes.
///
/// ```
/// use amsvp_linalg::{AnyLu, Factorization, SolverKind, Triplets};
///
/// # fn main() -> Result<(), amsvp_linalg::FactorError> {
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(0, 1, 1.0);
/// t.push(1, 0, 1.0);
/// t.push(1, 1, 4.0);
/// // L+U of a full 2×2 holds all 4 entries: Auto resolves to Dense.
/// let lu = AnyLu::analyze_with(SolverKind::Auto, &t)?;
/// assert_eq!(lu.kind(), SolverKind::Dense);
/// let mut x = [0.0; 2];
/// lu.solve_into(&[3.0, 5.0], &mut x);
/// assert_eq!(x, [1.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum AnyLu {
    /// Dense LU with partial pivoting.
    Dense(LuFactors),
    /// Sparse LU over a frozen symbolic pattern (boxed: the symbolic
    /// tables dwarf the dense handle, and `AnyLu` values are moved and
    /// cloned when models are instantiated).
    Sparse(Box<SparseLu>),
}

impl AnyLu {
    /// Analyzes `a` on `kind`'s backend, resolving [`SolverKind::Auto`]
    /// as [`AnyLu::resolve`] does.
    pub fn analyze_with(kind: SolverKind, a: &Triplets) -> Result<AnyLu, FactorError> {
        AnyLu::resolve(kind, a, || <LuFactors as Factorization>::analyze(a)).1
    }

    /// Resolves `kind` for the system `a` and factors `a` on the resolved
    /// backend, which is returned (never `Auto`) beside the factors or
    /// the error that backend's factorization met.
    ///
    /// `Dense` calls `dense`, the caller's dense factorization of `a`;
    /// `Sparse` analyzes `a`. `Auto` analyzes `a` sparse and keeps those
    /// factors when `FILL_WEIGHT · fill ≤ n²` (`FILL_WEIGHT` = 2, see
    /// DESIGN.md §12), with `fill` the L+U entry count
    /// ([`SparseLu::factor_nnz`]); otherwise it drops them and calls
    /// `dense`. When the trial analysis fails, `a`'s structural nonzero
    /// count, a lower bound on fill, stands in for it.
    pub fn resolve(
        kind: SolverKind,
        a: &Triplets,
        dense: impl FnOnce() -> Result<LuFactors, FactorError>,
    ) -> (SolverKind, Result<AnyLu, FactorError>) {
        let sparse = |lu: SparseLu| AnyLu::Sparse(Box::new(lu));
        match kind {
            SolverKind::Dense => (SolverKind::Dense, dense().map(AnyLu::Dense)),
            SolverKind::Sparse => (SolverKind::Sparse, SparseLu::analyze(a).map(sparse)),
            SolverKind::Auto => {
                let trial = SparseLu::analyze(a);
                let fill = trial
                    .as_ref()
                    .map_or_else(|_| a.pattern().len(), SparseLu::factor_nnz);
                if sparse_wins(a.rows(), fill) {
                    (SolverKind::Sparse, trial.map(sparse))
                } else {
                    (SolverKind::Dense, dense().map(AnyLu::Dense))
                }
            }
        }
    }

    /// The backend this factorization runs on (never `Auto`).
    pub fn kind(&self) -> SolverKind {
        match self {
            AnyLu::Dense(_) => SolverKind::Dense,
            AnyLu::Sparse(_) => SolverKind::Sparse,
        }
    }

    /// Sparse-backend statistics; zeros on the dense backend (the dense
    /// path has no analyze/fill notion — its counters live in the solver
    /// cores).
    pub fn sparse_stats(&self) -> SparseStats {
        match self {
            AnyLu::Dense(_) => SparseStats::default(),
            AnyLu::Sparse(s) => s.stats(),
        }
    }

    /// Zeroes the sparse statistics — called when a compile-time template
    /// factorization is cloned into a run-time instance, so instance
    /// counters report run-time work only.
    pub fn reset_stats(&mut self) {
        if let AnyLu::Sparse(s) = self {
            s.reset_stats();
        }
    }
}

impl Factorization for AnyLu {
    /// Auto-selects the backend from measured fill ([`AnyLu::resolve`]).
    fn analyze(a: &Triplets) -> Result<Self, FactorError> {
        AnyLu::analyze_with(SolverKind::Auto, a)
    }

    fn refactor(&mut self, a: &Triplets) -> Result<(), FactorError> {
        #[cfg(feature = "fault-inject")]
        if let Some(e) = crate::fault::take_refactor_failure() {
            return Err(e);
        }
        match self {
            AnyLu::Dense(f) => f.refactor(a),
            AnyLu::Sparse(f) => f.refactor(a),
        }
    }

    fn dim(&self) -> usize {
        match self {
            AnyLu::Dense(f) => f.dim(),
            AnyLu::Sparse(f) => f.dim(),
        }
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        match self {
            AnyLu::Dense(f) => f.solve_into(b, x),
            AnyLu::Sparse(f) => f.solve_into(b, x),
        }
    }

    fn solve_lanes_into(&self, b: &[f64], x: &mut [f64], lanes: usize, acc: &mut [f64]) {
        match self {
            AnyLu::Dense(f) => f.solve_lanes_into(b, x, lanes, acc),
            AnyLu::Sparse(f) => f.solve_lanes_into(b, x, lanes, acc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(n: usize) -> Triplets {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0 + i as f64 * 0.01);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t
    }

    /// The corpus as `Auto` sees it: dimension and L+U fill of each
    /// circuit's zero-state stamp, and the backend the rule picks.
    /// `tests/substrate_differential.rs` pins the same numbers end to end.
    const CORPUS: [(&str, usize, usize, SolverKind); 7] = [
        ("RC1", 5, 13, SolverKind::Dense),
        ("CLAMP", 7, 21, SolverKind::Sparse),
        ("2IN", 10, 29, SolverKind::Sparse),
        ("OA", 15, 51, SolverKind::Sparse),
        ("RC20", 100, 377, SolverKind::Sparse),
        ("RC30", 150, 577, SolverKind::Sparse),
        ("RC250", 1250, 4797, SolverKind::Sparse),
    ];

    #[test]
    fn fill_rule_over_the_corpus() {
        for (label, n, fill, want) in CORPUS {
            let sparse = want == SolverKind::Sparse;
            assert_eq!(sparse_wins(n, fill), sparse, "{label}: n {n}, fill {fill}");
        }
    }

    #[test]
    fn auto_keeps_the_trial_analysis_only_when_sparse() {
        // Tridiagonal: fill 3n − 2 against n², sparse from n = 6 on.
        let band = system(20);
        let (kind, lu) = AnyLu::resolve(SolverKind::Auto, &band, || {
            panic!("a sparse resolution never factors dense")
        });
        let lu = lu.unwrap();
        assert_eq!((kind, lu.kind()), (SolverKind::Sparse, SolverKind::Sparse));
        assert_eq!(lu.sparse_stats().analyze, 1, "the trial is the analysis");
        assert_eq!(lu.sparse_stats().fill, 58);

        // Full 3×3: fill 9 = n², dense; the trial factors are dropped.
        let mut full = Triplets::new(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                full.push(i, j, if i == j { 4.0 } else { 1.0 });
            }
        }
        let (kind, lu) = AnyLu::resolve(SolverKind::Auto, &full, || {
            <LuFactors as Factorization>::analyze(&full)
        });
        let lu = lu.unwrap();
        assert_eq!((kind, lu.kind()), (SolverKind::Dense, SolverKind::Dense));
        assert_eq!(lu.sparse_stats(), SparseStats::default());

        // Forced kinds pass through whatever the fill says.
        assert_eq!(
            AnyLu::analyze_with(SolverKind::Dense, &band)
                .unwrap()
                .kind(),
            SolverKind::Dense
        );
        assert_eq!(
            AnyLu::analyze_with(SolverKind::Sparse, &full)
                .unwrap()
                .kind(),
            SolverKind::Sparse
        );
    }

    #[test]
    fn auto_resolves_from_structure_when_the_stamp_does_not_factor() {
        // A zero row makes both stamps singular. The structural nonzero
        // count stands in for the fill the failed trial could not measure.
        let mut ladder = system(200);
        ladder.push(7, 7, -(3.0 + 7.0 * 0.01));
        ladder.push(7, 6, 1.0);
        ladder.push(7, 8, 1.0);
        let (kind, lu) = AnyLu::resolve(SolverKind::Auto, &ladder, || {
            panic!("598 nonzeros in 200² resolve sparse")
        });
        assert_eq!(kind, SolverKind::Sparse);
        assert!(matches!(lu, Err(FactorError::Singular(_))), "{lu:?}");

        let mut full = Triplets::new(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                full.push(i, j, 1.0);
            }
        }
        let (kind, lu) = AnyLu::resolve(SolverKind::Auto, &full, || {
            <LuFactors as Factorization>::analyze(&full)
        });
        assert_eq!(kind, SolverKind::Dense);
        assert!(matches!(lu, Err(FactorError::Singular(_))), "{lu:?}");
    }

    #[test]
    fn backends_agree_through_the_trait() {
        let t = system(20);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut dense = AnyLu::analyze_with(SolverKind::Dense, &t).unwrap();
        let mut sparse = AnyLu::analyze_with(SolverKind::Sparse, &t).unwrap();
        assert_eq!(dense.kind(), SolverKind::Dense);
        assert_eq!(sparse.kind(), SolverKind::Sparse);
        assert_eq!(dense.dim(), 20);
        assert_eq!(sparse.dim(), 20);
        let mut xd = vec![0.0; 20];
        let mut xs = vec![0.0; 20];
        dense.solve_into(&b, &mut xd);
        sparse.solve_into(&b, &mut xs);
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-12, "dense {d} vs sparse {s}");
        }
        // Refactor both with scaled values; they must stay in agreement.
        let mut t2 = Triplets::new(20, 20);
        for (i, j, v) in t.iter() {
            t2.push(i, j, v * 2.0);
        }
        dense.refactor(&t2).unwrap();
        sparse.refactor(&t2).unwrap();
        dense.solve_into(&b, &mut xd);
        sparse.solve_into(&b, &mut xs);
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_reset_on_instance_clone() {
        let t = system(10);
        let template = AnyLu::analyze_with(SolverKind::Sparse, &t).unwrap();
        assert_eq!(template.sparse_stats().analyze, 1);
        let mut instance = template.clone();
        instance.reset_stats();
        assert_eq!(instance.sparse_stats(), SparseStats::default());
        instance.refactor(&t).unwrap();
        assert_eq!(instance.sparse_stats().refactor, 1);
        assert_eq!(instance.sparse_stats().analyze, 0);
        // Dense backends report zeros and tolerate resets.
        let mut dense = AnyLu::analyze_with(SolverKind::Dense, &t).unwrap();
        dense.reset_stats();
        assert_eq!(dense.sparse_stats(), SparseStats::default());
    }
}
