//! A conservative Verilog-AMS transient simulator — the reference
//! ("ELDO/Questa") substrate of the paper's experiments.
//!
//! Unlike the abstraction pipeline, which extracts only the equations
//! feeding the outputs of interest, this simulator does what the paper's
//! §III-B describes commercial analog solvers doing: it keeps **every**
//! dipole equation plus the implicit energy-conservation laws as one
//! square system of differential-algebraic equations
//!
//! ```text
//! F(x(t), ẋ(t), u(t)) = 0
//! ```
//!
//! and resolves it at every time step with a Newton iteration. Residuals
//! and symbolically differentiated Jacobian entries are compiled to
//! [`expr::vm`] bytecode over a flat slot array at build time, and the LU
//! factorization is reused across iterations and steps until the
//! convergence rate stalls (modified Newton). "The sparse linear solver
//! and device evaluation are two most serious bottlenecks in this kind of
//! simulators" — this crate keeps exactly that cost structure (a full
//! conservative DAE solve per step), made as fast as the structure
//! allows, which is what the generated models are benchmarked against.
//!
//! There is one Newton engine, the lane-batched [`BatchInstance`]; a
//! single run ([`Instance`]) is lane 0 of a one-lane batch.
//!
//! [`cosim`] runs a simulator instance on its own thread in lockstep with
//! a digital kernel, reproducing the synchronization cost of commercial
//! co-simulation (Questa + ELDO in the paper's Table III).
//!
//! # Example
//!
//! ```
//! use amsim::Simulation;
//!
//! let src = "
//! module rc(in, out);
//!   input in; output out;
//!   parameter real R = 5k;
//!   parameter real C = 25n;
//!   electrical in, out, gnd;
//!   ground gnd;
//!   branch (in, out) res;
//!   branch (out, gnd) cap;
//!   analog begin
//!     V(res) <+ R * I(res);
//!     I(cap) <+ C * ddt(V(cap));
//!   end
//! endmodule";
//! let module = vams_parser::parse_module(src)?;
//! let tau = 5e3 * 25e-9;
//! let mut sim = Simulation::new(&module).dt(tau / 100.0).output("V(out)").build()?;
//! for _ in 0..100 {
//!     sim.step(&[1.0]);
//! }
//! let analytic = 1.0 - (-1.0_f64).exp();
//! assert!((sim.output(0) - analytic).abs() < 5e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod batch;
pub mod cosim;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod sim;

pub use batch::{BatchInstance, BatchInstanceBuilder, InputFrame};
pub use sim::{
    validate_overrides, AmsError, CompiledModel, Instance, InstanceBuilder, RecoveryPolicy,
    Simulation, Snapshot, StepControl,
};

// Re-exported so call sites can pick a backend via
// [`Simulation::solver`] without depending on the linalg crate directly.
pub use linalg::SolverKind;
