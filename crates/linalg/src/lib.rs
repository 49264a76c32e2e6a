//! Linear algebra kernel used by the MNA-based solvers: dense and sparse
//! LU behind one [`Factorization`] seam.
//!
//! This crate provides exactly the operations the electrical solvers in this
//! workspace need:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the usual arithmetic.
//! * [`Triplets`] — a coordinate-format builder that accumulates MNA stamps;
//!   the common input of both factorization backends.
//! * [`LuFactors`] — dense LU with partial pivoting (the smallest
//!   systems, such as the one-stage RC ladder, whose L+U fills half the
//!   dense square or more).
//! * [`SparseLu`] — sparse LU with one-time symbolic analysis (row
//!   matching, minimum-degree ordering, frozen fill pattern) and
//!   allocation-free numeric refactorization (every system whose L+U
//!   fill beats the dense n²: 2IN, OA, RC20, the diode clamp and the
//!   RC500-class ladders).
//! * [`Factorization`] / [`AnyLu`] / [`SolverKind`] — the backend seam:
//!   `analyze` once per model, `refactor` per Jacobian rebuild,
//!   `solve_into` / `solve_lanes_into` per iteration, with `Auto`
//!   keeping the sparse analysis when its measured L+U fill beats the
//!   dense n².
//! * Vector helpers ([`norm2`], [`norm_inf`], [`nrmse`]) including the
//!   normalized root-mean-square error metric the paper reports.
//!
//! # Example
//!
//! ```
//! use amsvp_linalg::{AnyLu, Factorization, SolverKind, Triplets};
//!
//! # fn main() -> Result<(), amsvp_linalg::FactorError> {
//! let mut t = Triplets::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 2.0);
//! t.push(1, 1, 3.0);
//! let lu = AnyLu::analyze_with(SolverKind::Auto, &t)?;
//! let mut x = [0.0; 2];
//! lu.solve_into(&[9.0, 13.0], &mut x);
//! assert!((x[0] - 1.4).abs() < 1e-12);
//! assert!((x[1] - 3.4).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod factorization;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod lu;
mod matrix;
mod sparse;
mod triplet;
mod vector;

pub use factorization::{AnyLu, Factorization, SolverKind};
pub use lu::{FactorError, LuFactors, SingularMatrixError};
pub use matrix::Matrix;
pub use sparse::{SparseLu, SparseStats};
pub use triplet::Triplets;
pub use vector::{axpy, dot, norm2, norm_inf, nrmse, rmse, scale};
