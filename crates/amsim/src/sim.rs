use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use amsvp_core::acquire::acquire;
use amsvp_core::{conservative_relations, AbstractError, OutputSpec};
use expr::vm::{self, Program};
use expr::Expr;
use linalg::{AnyLu, Factorization, LuFactors, SolverKind, Triplets};
use netlist::{QExpr, Quantity};
use obs::Obs;
use vams_ast::Module;

use crate::BatchInstance;

/// Errors from the reference simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum AmsError {
    /// The module could not be lowered.
    Acquire(AbstractError),
    /// The DAE system is not square — the description is over- or
    /// under-constrained.
    NotSquare {
        /// Number of equations found.
        equations: usize,
        /// Number of unknown quantities found.
        unknowns: usize,
    },
    /// The Newton Jacobian is singular.
    Singular,
    /// Newton iteration failed to converge.
    NoConvergence {
        /// Simulated time at which convergence failed.
        time: f64,
        /// Newton iterations spent before giving up.
        iterations: u32,
        /// Best residual infinity-norm seen across the iterations.
        residual_norm: f64,
        /// Time step the failing solve was attempted at (the nominal
        /// step, or the backed-off sub-step under adaptive stepping).
        dt: f64,
    },
    /// A Newton iterate produced a NaN/Inf residual or Jacobian entry —
    /// silent numerical corruption converted into a typed error.
    NonFinite {
        /// Simulated time at which the corruption was detected.
        time: f64,
        /// Newton iteration (1-based) that produced the non-finite value.
        iteration: u32,
        /// Best *finite* residual infinity-norm seen before corruption
        /// (infinity when the very first evaluation was already bad).
        residual_norm: f64,
    },
    /// An output spec does not name a quantity of the module.
    UnknownOutput {
        /// The requested spec, as written (`"V(ghost)"`).
        spec: String,
        /// Name of the module that defines no such quantity.
        module: String,
    },
    /// The time step must be positive and finite.
    InvalidTimeStep {
        /// The offending step, in seconds.
        dt: f64,
    },
    /// The Newton convergence tolerance must be positive and finite.
    InvalidTolerance {
        /// The offending tolerance.
        tol: f64,
    },
    /// An adaptive step-control configuration is inconsistent: `min_dt`
    /// must be positive, finite, and no larger than the nominal step.
    InvalidStepControl {
        /// The offending floor, in seconds.
        min_dt: f64,
        /// The nominal step it must not exceed, in seconds.
        dt: f64,
    },
    /// The co-simulation worker thread terminated (panicked or was shut
    /// down) while a step was outstanding.
    CosimDisconnected,
}

impl fmt::Display for AmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmsError::Acquire(e) => write!(f, "acquisition failed: {e}"),
            AmsError::NotSquare {
                equations,
                unknowns,
            } => write!(
                f,
                "DAE system is not square: {equations} equations, {unknowns} unknowns"
            ),
            AmsError::Singular => write!(f, "newton jacobian is singular"),
            AmsError::NoConvergence {
                time,
                iterations,
                residual_norm,
                dt,
            } => write!(
                f,
                "newton iteration did not converge at t = {time} s after {iterations} \
                 iterations (dt = {dt} s, best residual norm {residual_norm:e})"
            ),
            AmsError::NonFinite {
                time,
                iteration,
                residual_norm,
            } => write!(
                f,
                "non-finite value in newton iteration {iteration} at t = {time} s \
                 (best residual norm {residual_norm:e})"
            ),
            AmsError::UnknownOutput { spec, module } => write!(
                f,
                "module `{module}` defines no quantity matching output spec `{spec}`"
            ),
            AmsError::InvalidTimeStep { dt } => {
                write!(f, "invalid time step {dt}; must be positive and finite")
            }
            AmsError::InvalidTolerance { tol } => {
                write!(
                    f,
                    "invalid newton tolerance {tol}; must be positive and finite"
                )
            }
            AmsError::InvalidStepControl { min_dt, dt } => {
                write!(
                    f,
                    "invalid step control: min_dt {min_dt} must be positive, finite \
                     and no larger than the nominal step {dt}"
                )
            }
            AmsError::CosimDisconnected => {
                write!(f, "co-simulation worker thread disconnected")
            }
        }
    }
}

impl Error for AmsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AmsError::Acquire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AbstractError> for AmsError {
    fn from(e: AbstractError) -> Self {
        AmsError::Acquire(e)
    }
}

/// Adaptive time-stepping policy: retry a rejected step with a halved
/// `dt` (geometric backoff), then regrow toward the nominal step after a
/// streak of accepted first-try steps.
///
/// Attach one with [`Simulation::step_control`] (model default) or
/// [`InstanceBuilder::step_control`] (per-run override). Without one,
/// stepping is strictly fixed-`dt` and a Newton failure surfaces
/// immediately — the pre-existing behavior.
///
/// `ddt`/`idt` history is only committed on *accepted* sub-steps, so a
/// rejection resamples the discretized operators consistently: the retry
/// at `dt/2` sees exactly the history of the last accepted state, never a
/// half-updated one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepControl {
    /// Backoff floor: a retry below this step gives up, surfacing the
    /// last solver error.
    pub min_dt: f64,
    /// Consecutive rejections tolerated within one nominal step before
    /// giving up (each rejection halves the sub-step).
    pub max_retries: u32,
    /// Accepted first-try sub-steps required before the sub-step doubles
    /// back toward the nominal `dt`.
    pub grow_streak: u32,
}

impl StepControl {
    /// A policy with the given backoff floor and the default budget:
    /// 16 retries, regrow after 4 clean accepts.
    pub fn new(min_dt: f64) -> StepControl {
        StepControl {
            min_dt,
            max_retries: 16,
            grow_streak: 4,
        }
    }

    /// Overrides the consecutive-rejection budget (clamped to at least 1).
    #[must_use]
    pub fn max_retries(mut self, n: u32) -> StepControl {
        self.max_retries = n.max(1);
        self
    }

    /// Overrides the accepted-streak length that triggers regrowth
    /// (clamped to at least 1).
    #[must_use]
    pub fn grow_streak(mut self, n: u32) -> StepControl {
        self.grow_streak = n.max(1);
        self
    }

    /// Checks the policy against a nominal step.
    ///
    /// # Errors
    ///
    /// [`AmsError::InvalidStepControl`] when `min_dt` is not positive and
    /// finite, or exceeds `dt`.
    pub fn validate(&self, dt: f64) -> Result<(), AmsError> {
        if !(self.min_dt.is_finite() && self.min_dt > 0.0 && self.min_dt <= dt) {
            return Err(AmsError::InvalidStepControl {
                min_dt: self.min_dt,
                dt,
            });
        }
        Ok(())
    }
}

/// Checks per-run solver overrides against a nominal step `dt`: a Newton
/// tolerance must be finite and positive, and a step control must pass
/// [`StepControl::validate`]; `None` always passes. The compiled model,
/// both instance builders, the sweeps and the fleet all apply this one
/// rule.
///
/// # Errors
///
/// [`AmsError::InvalidTolerance`] for a bad tolerance (checked first),
/// else [`AmsError::InvalidStepControl`] for a bad step control.
pub fn validate_overrides(
    newton_tol: Option<f64>,
    step_control: Option<StepControl>,
    dt: f64,
) -> Result<(), AmsError> {
    match newton_tol {
        Some(tol) if !(tol.is_finite() && tol > 0.0) => Err(AmsError::InvalidTolerance { tol }),
        _ => step_control.map_or(Ok(()), |sc| sc.validate(dt)),
    }
}

/// Automatic-recovery policy for faulted sweep scenarios.
///
/// When a scenario faults under a sweep that enables recovery, the
/// engine escalates through a deterministic ladder instead of retiring
/// the scenario: resume from the last periodic [`Snapshot`] under a
/// *tightened* step control, restart from `t = 0` under the tightened
/// control, then restart on a fallback solver backend. This type holds
/// the knobs; the ladder itself lives in the sweep layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Periodic snapshot cadence in nominal steps; `0` disables
    /// checkpoints (the resume rung is skipped, restart rungs remain).
    pub snapshot_every_n_steps: u64,
    /// Total recovery attempts allowed per scenario across all rungs;
    /// `0` disables the ladder entirely.
    pub max_recoveries: u32,
    /// Factor applied to [`StepControl::min_dt`] when tightening
    /// (clamped into `(0, 1]`; smaller means a deeper backoff floor).
    pub min_dt_scale: f64,
    /// Added to [`StepControl::max_retries`] when tightening.
    pub extra_retries: u32,
}

impl Default for RecoveryPolicy {
    /// Checkpoint every 64 steps, at most 3 recoveries, backoff floor
    /// ×1/4 with 8 extra retries on recovery rungs.
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            snapshot_every_n_steps: 64,
            max_recoveries: 3,
            min_dt_scale: 0.25,
            extra_retries: 8,
        }
    }
}

impl RecoveryPolicy {
    /// The step control a recovery rung runs under: the backoff floor
    /// scaled down and the retry budget raised. Fixed-`dt` scenarios
    /// (`None`) stay fixed-`dt` — injected transients are rescued by the
    /// replay itself, and tightening must never change the accept/reject
    /// decisions of steps the original run accepted.
    pub fn tightened(&self, sc: Option<StepControl>) -> Option<StepControl> {
        let scale = if self.min_dt_scale > 0.0 && self.min_dt_scale <= 1.0 {
            self.min_dt_scale
        } else {
            1.0
        };
        sc.map(|sc| StepControl {
            min_dt: (sc.min_dt * scale).max(f64::MIN_POSITIVE),
            max_retries: sc.max_retries.saturating_add(self.extra_retries),
            grow_streak: sc.grow_streak,
        })
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Placeholder {
    /// `ddt` history: value of the operand at the previous step.
    Ddt(usize),
    /// `idt` accumulator state.
    Idt(usize),
    /// The current integration step `h` — a slot, not a compile-time
    /// constant, so adaptive stepping can rescale the discretization
    /// without recompiling.
    Dt,
    /// `1/h`, kept as its own slot so residual evaluation performs no
    /// division the fixed-dt bytecode did not.
    InvDt,
}

/// One compiled Jacobian entry `dF_i/dx_col`.
#[derive(Debug, Clone)]
pub(crate) enum JacEntry {
    /// Symbolic derivative compiled to VM bytecode.
    Symbolic(Program),
    /// No closed form in the operator set: central differencing of the
    /// residual program at evaluation time (perturbs the unknown's slot
    /// in place — no buffer cloning).
    Numeric,
}

/// Immutable compiled artifact of one Verilog-AMS module: the discretized
/// equation system, its VM bytecode programs, the symbolic Jacobian, the
/// slot layout, and an LU factorization of the Jacobian evaluated at the
/// all-zero initial state.
///
/// A `CompiledModel` is plain data (`Send + Sync`) and is shared between
/// any number of per-run [`Instance`]s via [`Arc`], so lowering,
/// discretization, symbolic differentiation and bytecode compilation are
/// paid **once per sweep** instead of once per run. Build one with
/// [`Simulation::compile`], then spawn runs with
/// [`CompiledModel::instance`] / [`CompiledModel::instance_builder`].
pub struct CompiledModel {
    pub(crate) dt: f64,
    /// Default Newton convergence tolerance for instances of this model.
    pub(crate) newton_tol: f64,
    pub(crate) unknowns: Vec<Quantity>,
    pub(crate) index: BTreeMap<Quantity, usize>,
    /// Discretized residual equations `F_i = 0` (tree form — the oracle).
    pub(crate) equations: Vec<QExpr>,
    /// Compiled residual programs, one per equation.
    pub(crate) programs: Vec<Program>,
    /// Compiled Jacobian: per equation, `(column, entry)`.
    pub(crate) jacobian: Vec<Vec<(usize, JacEntry)>>,
    pub(crate) placeholders: BTreeMap<Quantity, Placeholder>,
    /// Compiled `ddt`/`idt` operand programs (history refresh on accept).
    pub(crate) ddt_progs: Vec<Program>,
    pub(crate) idt_progs: Vec<Program>,
    /// Offset of the input segment in the slot array (= unknown count).
    pub(crate) input_off: usize,
    /// Offset of the `ddt` history segment in the slot array.
    pub(crate) ddt_off: usize,
    /// Offset of the `idt` accumulator segment in the slot array.
    pub(crate) idt_off: usize,
    /// Slot of the current step `h`; `dt_slot + 1` holds `1/h`.
    pub(crate) dt_slot: usize,
    /// Total slot count:
    /// `[unknowns | inputs | ddt prev | idt state | h | 1/h]`.
    pub(crate) slot_count: usize,
    /// Default adaptive-stepping policy for instances; `None` means
    /// fixed-`dt` stepping.
    pub(crate) step_control: Option<StepControl>,
    pub(crate) input_names: Vec<String>,
    pub(crate) output_indices: Vec<usize>,
    /// Deepest operand stack any compiled program needs.
    pub(crate) max_stack: usize,
    /// Factorization of the Jacobian at the all-zero slot state, computed
    /// at compile time so every instance starts from the same
    /// deterministic linearization (modified Newton refreshes it only on
    /// a stall). `None` when the zero-state Jacobian is singular —
    /// instances then factor lazily at their first step, as builds always
    /// did.
    pub(crate) init_lu: Option<AnyLu>,
    /// Resolved linear-solver backend (never [`SolverKind::Auto`]):
    /// chosen at compile time from the L+U fill of the zero-state
    /// Jacobian's sparse analysis, or forced via [`Simulation::solver`].
    /// Every instance and batch lane of this model solves through it.
    pub(crate) backend: SolverKind,
    /// Stable content hash of the compiled artifact (see
    /// [`CompiledModel::model_hash`]).
    pub(crate) model_hash: u64,
}

/// Compiled-bytecode Newton/backward-Euler transient simulator over the
/// full conservative equation system of one Verilog-AMS module: the
/// mutable per-run half of a [`CompiledModel`].
///
/// An `Instance` is lane 0 of a one-lane [`BatchInstance`], the crate's
/// one Newton engine, whose kernels take their scalar forms at one lane.
/// It adds the scalar conveniences: flat inputs and outputs, a `Result`
/// per step, and a run that stays usable after an error. It holds only
/// run state and borrows everything immutable from its `Arc`'d model, so
/// creating one is allocation-cheap and many can step concurrently on
/// different threads. Until its first refactor an instance solves
/// through the model's shared zero-state factors, and its snapshots
/// share them too; an instance from [`Simulation::build`] starts on its
/// own copy, which carries the compile-time work on its counters. The
/// tree-walk interpreter is kept as an oracle
/// ([`Instance::residuals_tree`]), checked in debug builds at every
/// Newton iteration.
///
/// See the [crate-level documentation](crate) for the role this plays in
/// the reproduction and an example.
pub struct Instance {
    batch: BatchInstance,
}

/// Captured LU state of a snapshot: either "the run was still on the
/// model's shared zero-state factors" (cheap — nothing to copy) or a
/// private clone of factors the run had already refreshed, together with
/// the modified-Newton validity flag.
#[derive(Clone)]
pub(crate) enum SnapshotLu {
    /// The run had never factored privately: a restored lane goes back
    /// onto the model's `init_lu` (when present) with the recorded
    /// validity, eligible for the shared multi-RHS solve fast path.
    Shared { valid: bool },
    /// Private factors, cloned at snapshot time with their sparse-work
    /// stats reset (the parent run already reported that work).
    Private { lu: AnyLu, valid: bool },
}

/// Cheap checkpoint of one transient run (one batch lane): everything
/// a resumed simulation needs to continue **bit-identically** with a run
/// that never stopped.
///
/// Captures the flat slot block
/// `[unknowns | inputs | ddt prev | idt state | h | 1/h]` (the idt
/// accumulators and ddt history live inside it), the committed unknown
/// vectors, the adaptive-step controller state (current sub-step and
/// grow streak), the LU validity (`SnapshotLu`), and watermarks of the
/// monotone work counters so forked runs can report path-cumulative
/// totals without double-counting prefix work.
///
/// Take one with [`Instance::snapshot`] or
/// [`BatchInstance::snapshot_lane`](crate::BatchInstance::snapshot_lane);
/// resume with [`Instance::restore`] or fan out with
/// [`BatchInstance::fork_from`](crate::BatchInstance::fork_from).
/// Snapshots are `Clone + Send + Sync` and tied to their originating
/// [`CompiledModel`] (restoring onto a different model panics).
#[derive(Clone)]
pub struct Snapshot {
    pub(crate) model: Arc<CompiledModel>,
    /// Flat scalar slot state at the checkpoint.
    pub(crate) slots: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) x_prev: Vec<f64>,
    pub(crate) newton_tol: f64,
    pub(crate) step_control: Option<StepControl>,
    pub(crate) cur_dt: f64,
    pub(crate) accept_streak: u32,
    pub(crate) time: f64,
    /// Watermark: nominal steps completed on the captured path.
    pub(crate) steps: u64,
    /// Watermark: Newton iterations spent on the captured path.
    pub(crate) newton_iters: u64,
    pub(crate) lu: SnapshotLu,
}

impl Snapshot {
    /// Simulated time at the checkpoint, in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Nominal steps the captured run had completed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Newton iterations the captured run had spent.
    pub fn newton_iterations(&self) -> u64 {
        self.newton_iters
    }

    /// The compiled model this checkpoint belongs to.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// Whether the checkpoint carries private LU factors (as opposed to
    /// still riding the model's shared zero-state factorization).
    pub fn owns_factors(&self) -> bool {
        matches!(self.lu, SnapshotLu::Private { .. })
    }
}

/// Builder for an [`Instance`] reference transient.
///
/// Mirrors the workspace builder idiom (`new(...)` → chained setters →
/// `build()`):
///
/// ```
/// use amsim::Simulation;
///
/// let src = "
/// module rc(in, out);
///   input in; output out;
///   electrical in, out, gnd; ground gnd;
///   branch (in, out) res;
///   branch (out, gnd) cap;
///   analog begin
///     V(res) <+ 5k * I(res);
///     I(cap) <+ 25n * ddt(V(cap));
///   end
/// endmodule";
/// let module = vams_parser::parse_module(src)?;
/// let mut sim = Simulation::new(&module)
///     .dt(1e-6)
///     .output("V(out)")
///     .build()?;
/// sim.step(&[1.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use = "call build() to construct the simulator"]
#[derive(Debug)]
pub struct Simulation<'m> {
    module: &'m Module,
    dt: f64,
    newton_tol: f64,
    step_control: Option<StepControl>,
    outputs: Vec<OutputSpec>,
    solver: SolverKind,
    obs: Obs,
}

impl<'m> Simulation<'m> {
    /// Starts a reference simulation of `module` with a 1 µs step;
    /// override with the chained setters.
    pub fn new(module: &'m Module) -> Self {
        Simulation {
            module,
            dt: 1e-6,
            newton_tol: DEFAULT_NEWTON_TOL,
            step_control: None,
            outputs: Vec::new(),
            solver: SolverKind::Auto,
            obs: Obs::none(),
        }
    }

    /// Selects the linear-solver backend of the compiled model. The
    /// default, [`SolverKind::Auto`], resolves at compile time from the
    /// zero-state Jacobian's sparse analysis, kept when its L+U fill beats
    /// the dense n² (RC1 stays on the dense kernel, 2IN and up go
    /// sparse); [`SolverKind::Dense`] / [`SolverKind::Sparse`] force a
    /// backend.
    pub fn solver(mut self, kind: SolverKind) -> Self {
        self.solver = kind;
        self
    }

    /// Sets the fixed time step in seconds.
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Sets the Newton convergence tolerance (relative update norm at
    /// which an iteration is accepted; default `1e-10`). Individual runs
    /// can override it again via [`InstanceBuilder::newton_tol`].
    pub fn newton_tol(mut self, tol: f64) -> Self {
        self.newton_tol = tol;
        self
    }

    /// Enables adaptive time stepping with the given retry/backoff policy
    /// as the default for every instance of the compiled model (override
    /// per run via [`InstanceBuilder::step_control`]). Without this,
    /// stepping stays strictly fixed-`dt`.
    pub fn step_control(mut self, sc: impl Into<Option<StepControl>>) -> Self {
        self.step_control = sc.into();
        self
    }

    /// Adds an observed output (`"V(out)"`, `"I(cap)"`, or a variable
    /// name). May be called repeatedly; without any call, the module's
    /// first `output` port is observed.
    pub fn output(mut self, spec: impl Into<OutputSpec>) -> Self {
        self.outputs.push(spec.into());
        self
    }

    /// Attaches an instrumentation collector; the simulator reports
    /// `amsim.steps`, `amsim.newton_iterations`, `amsim.jacobian.builds`,
    /// `amsim.lu.factorizations`, `amsim.jacobian.reuse_hits` and
    /// `amsim.jacobian.refactor` through it.
    pub fn collector(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Lowers the module into its full DAE system and prepares a
    /// single-run Newton solver.
    ///
    /// Equivalent to [`Simulation::compile`] followed by spawning one
    /// [`Instance`]; the compile-time Jacobian build/factorization is
    /// accounted on the returned instance's counters, so single-run
    /// callers observe exactly the counter totals they always did.
    ///
    /// # Errors
    ///
    /// * [`AmsError::Acquire`] when the module cannot be lowered;
    /// * [`AmsError::NotSquare`] for ill-posed descriptions;
    /// * [`AmsError::UnknownOutput`] for bad output specs;
    /// * [`AmsError::InvalidTimeStep`] for a bad `dt`;
    /// * [`AmsError::InvalidTolerance`] for a bad `newton_tol`.
    pub fn build(self) -> Result<Instance, AmsError> {
        let model = Arc::new(compile_model(
            self.module,
            self.dt,
            self.newton_tol,
            self.step_control,
            self.outputs,
            self.solver,
            &Obs::none(),
        )?);
        let tol = model.newton_tol;
        let sc = model.step_control;
        Ok(Instance::with_model(model, self.obs, tol, sc, true))
    }

    /// Lowers and compiles the module into an immutable, thread-shareable
    /// [`CompiledModel`] without creating any run state.
    ///
    /// The one-off compile cost (a Jacobian assembly plus LU factorization
    /// at the zero state) is reported to the attached collector as
    /// `amsim.jacobian.builds` / `amsim.lu.factorizations`, so a sweep of
    /// N instances over one model reports the same compile counters as a
    /// single run. Its wall time is split into two timers:
    /// `amsim.compile.lower` (acquisition, discretization, residual and
    /// Jacobian programs, the zero-state stamp) and
    /// `amsim.compile.analyze` (ordering, symbolic analysis and the first
    /// numeric factorization).
    ///
    /// # Errors
    ///
    /// As for [`Simulation::build`].
    pub fn compile(self) -> Result<Arc<CompiledModel>, AmsError> {
        let model = compile_model(
            self.module,
            self.dt,
            self.newton_tol,
            self.step_control,
            self.outputs,
            self.solver,
            &self.obs,
        )?;
        if self.obs.enabled() {
            if model.init_lu.is_some() {
                self.obs.add("amsim.jacobian.builds", 1);
                self.obs.add("amsim.lu.factorizations", 1);
            }
            if let Some(lu) = &model.init_lu {
                let stats = lu.sparse_stats();
                if stats.analyze > 0 {
                    self.obs.add("linalg.sparse.analyze", stats.analyze);
                    self.obs.add("linalg.sparse.fill", stats.fill);
                }
            }
        }
        Ok(Arc::new(model))
    }
}

/// Default Newton convergence tolerance (relative update norm).
const DEFAULT_NEWTON_TOL: f64 = 1e-10;

/// Builder for additional [`Instance`]s of a [`CompiledModel`], obtained
/// from [`CompiledModel::instance_builder`]. Lets per-run settings (the
/// collector, the Newton tolerance) differ between runs of one compiled
/// artifact — the shape of a scenario sweep.
#[must_use = "call build() to construct the instance"]
pub struct InstanceBuilder {
    model: Arc<CompiledModel>,
    obs: Obs,
    newton_tol: f64,
    step_control: Option<StepControl>,
}

impl InstanceBuilder {
    /// Attaches an instrumentation collector (see
    /// [`Simulation::collector`] for the reported names).
    pub fn collector(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the Newton convergence tolerance for this run only.
    pub fn newton_tol(mut self, tol: f64) -> Self {
        self.newton_tol = tol;
        self
    }

    /// Overrides the adaptive-stepping policy for this run only — pass a
    /// [`StepControl`] to enable retry/backoff, or `None` to force
    /// fixed-`dt` stepping even when the model carries a default.
    pub fn step_control(mut self, sc: impl Into<Option<StepControl>>) -> Self {
        self.step_control = sc.into();
        self
    }

    /// Creates the run instance.
    ///
    /// # Errors
    ///
    /// * [`AmsError::InvalidTolerance`] when the tolerance override is
    ///   not positive and finite;
    /// * [`AmsError::InvalidStepControl`] when the step-control override
    ///   is inconsistent with the model's nominal step.
    pub fn build(self) -> Result<Instance, AmsError> {
        validate_overrides(Some(self.newton_tol), self.step_control, self.model.dt)?;
        Ok(Instance::with_model(
            self.model,
            self.obs,
            self.newton_tol,
            self.step_control,
            false,
        ))
    }
}

impl CompiledModel {
    /// Time step the model was discretized at, in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of unknowns in the DAE system.
    pub fn dim(&self) -> usize {
        self.unknowns.len()
    }

    /// Input names in `step` order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Number of observed outputs.
    pub fn output_count(&self) -> usize {
        self.output_indices.len()
    }

    /// Default Newton convergence tolerance for instances of this model.
    pub fn newton_tol(&self) -> f64 {
        self.newton_tol
    }

    /// Default adaptive-stepping policy for instances of this model
    /// (`None` means fixed-`dt`).
    pub fn step_control(&self) -> Option<StepControl> {
        self.step_control
    }

    /// The linear-solver backend this model's instances solve through,
    /// resolved at compile time (never [`SolverKind::Auto`]).
    pub fn solver_kind(&self) -> SolverKind {
        self.backend
    }

    /// Cheap, stable content hash of the compiled artifact.
    ///
    /// Computed once at compile time (FNV-1a over the discretized
    /// equations, unknown/input layout, outputs, `dt`, tolerance, step
    /// control, and resolved backend), so two independent compiles of the
    /// same module with the same settings — even in different processes —
    /// agree, while any numerically meaningful difference changes the
    /// hash. The serve daemon keys its model cache on it and clients can
    /// use it to verify a resubmission hit the same artifact.
    pub fn model_hash(&self) -> u64 {
        self.model_hash
    }

    /// Spawns a run instance with the model's default tolerance,
    /// step-control policy and no collector — the cheap path for sweep
    /// workers.
    pub fn instance(self: &Arc<Self>) -> Instance {
        Instance::with_model(
            Arc::clone(self),
            Obs::none(),
            self.newton_tol,
            self.step_control,
            false,
        )
    }

    /// Starts an [`InstanceBuilder`] for a run with per-run settings.
    pub fn instance_builder(self: &Arc<Self>) -> InstanceBuilder {
        InstanceBuilder {
            model: Arc::clone(self),
            obs: Obs::none(),
            newton_tol: self.newton_tol,
            step_control: self.step_control,
        }
    }
}

/// Stamps the Jacobian at the current slot state into `jt` as coordinate
/// triplets. The push order is fixed by the compiled Jacobian layout, so
/// every rebuild produces the same coordinate sequence — the contract
/// that lets the sparse backend reuse its frozen pattern without
/// re-analysis. Symbolic entries evaluate their compiled program; numeric
/// fallbacks centrally difference the residual program, perturbing the
/// unknown's slot in place (no buffer cloning).
pub(crate) fn stamp_jacobian(
    jacobian: &[Vec<(usize, JacEntry)>],
    programs: &[Program],
    slots: &mut [f64],
    stack: &mut Vec<f64>,
    jt: &mut Triplets,
) {
    jt.clear();
    for (i, row) in jacobian.iter().enumerate() {
        for (col, entry) in row {
            let v = match entry {
                JacEntry::Symbolic(prog) => prog.eval(slots, stack),
                JacEntry::Numeric => {
                    let saved = slots[*col];
                    let h = 1e-7 * (1.0 + saved.abs());
                    slots[*col] = saved + h;
                    let fp = programs[i].eval(slots, stack);
                    slots[*col] = saved - h;
                    let fm = programs[i].eval(slots, stack);
                    slots[*col] = saved;
                    (fp - fm) / (2.0 * h)
                }
            };
            jt.push(i, *col, v);
        }
    }
}

/// Lowers, discretizes and compiles `module` into a [`CompiledModel`] —
/// the immutable half shared by every run.
fn compile_model(
    module: &Module,
    dt: f64,
    newton_tol: f64,
    step_control: Option<StepControl>,
    output_specs: Vec<OutputSpec>,
    solver: SolverKind,
    obs: &Obs,
) -> Result<CompiledModel, AmsError> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(AmsError::InvalidTimeStep { dt });
    }
    validate_overrides(Some(newton_tol), step_control, dt)?;
    let lower_start = obs.enabled().then(Instant::now);
    let model = acquire(module)?;
    let mut zeros: Vec<QExpr> = conservative_relations(&model)?
        .into_iter()
        .map(|r| r.zero)
        .collect();
    // Signal-flow variables join the system as explicit equations.
    for (name, def) in &model.folded_vars {
        zeros.push(Expr::var(Quantity::var(name.clone())) - def.clone());
    }

    // Unknowns: every non-input quantity referenced anywhere.
    let mut index: BTreeMap<Quantity, usize> = BTreeMap::new();
    for z in &zeros {
        for q in z.variables() {
            if !q.is_input() && !index.contains_key(&q) {
                index.insert(q, 0);
            }
        }
    }
    let unknowns: Vec<Quantity> = index.keys().cloned().collect();
    for (i, q) in unknowns.iter().enumerate() {
        *index.get_mut(q).expect("just built") = i;
    }
    if zeros.len() != unknowns.len() {
        return Err(AmsError::NotSquare {
            equations: zeros.len(),
            unknowns: unknowns.len(),
        });
    }

    // Discretize: replace analog operators with history placeholders.
    let mut placeholders = BTreeMap::new();
    let mut ddt_inner = Vec::new();
    let mut idt_inner = Vec::new();
    let equations: Vec<QExpr> = zeros
        .iter()
        .map(|z| discretize(z, &mut placeholders, &mut ddt_inner, &mut idt_inner).simplified())
        .collect();

    // Slot layout: [unknowns | inputs | ddt history | idt state | h | 1/h].
    // The step slots exist even for purely algebraic systems so every
    // instance can treat them uniformly.
    let n = unknowns.len();
    let input_names = model.inputs.clone();
    let input_off = n;
    let ddt_off = input_off + input_names.len();
    let idt_off = ddt_off + ddt_inner.len();
    let dt_slot = idt_off + idt_inner.len();
    let slot_count = dt_slot + 2;

    // Bytecode compiler over the slot layout. Discretization removed
    // every `ddt`/`idt`, and every variable is an unknown, an input,
    // or a history placeholder, so compilation cannot fail on
    // well-formed systems.
    let compile = |e: &QExpr| -> Program {
        vm::compile(e, &mut |q: &Quantity, delay: u32| {
            if delay != 0 {
                return None;
            }
            if let Some(ph) = placeholders.get(q) {
                return Some(match ph {
                    Placeholder::Ddt(k) => (ddt_off + k) as u32,
                    Placeholder::Idt(k) => (idt_off + k) as u32,
                    Placeholder::Dt => dt_slot as u32,
                    Placeholder::InvDt => (dt_slot + 1) as u32,
                });
            }
            match q {
                Quantity::Input(name) => input_names
                    .iter()
                    .position(|i| i == name)
                    .map(|i| (input_off + i) as u32),
                other => index.get(other).map(|&i| i as u32),
            }
        })
        .expect("discretized equations compile by construction")
    };

    let programs: Vec<Program> = equations.iter().map(&compile).collect();
    let ddt_progs: Vec<Program> = ddt_inner.iter().map(&compile).collect();
    let idt_progs: Vec<Program> = idt_inner.iter().map(&compile).collect();

    // Compiled symbolic Jacobian; entries the derivative algebra
    // cannot express fall back to in-place central differencing of the
    // residual program.
    let jacobian: Vec<Vec<(usize, JacEntry)>> = equations
        .iter()
        .map(|eq| {
            eq.current_variables()
                .into_iter()
                .filter_map(|q| {
                    if q.is_input() || placeholders.contains_key(&q) {
                        return None;
                    }
                    let col = index[&q];
                    let entry = match eq.derivative(&q) {
                        Some(d) => JacEntry::Symbolic(compile(&d)),
                        None => JacEntry::Numeric,
                    };
                    Some((col, entry))
                })
                .collect()
        })
        .collect();

    let max_stack = programs
        .iter()
        .chain(&ddt_progs)
        .chain(&idt_progs)
        .map(Program::max_stack)
        .chain(jacobian.iter().flatten().filter_map(|(_, e)| match e {
            JacEntry::Symbolic(p) => Some(p.max_stack()),
            JacEntry::Numeric => None,
        }))
        .max()
        .unwrap_or(0);

    // Resolve the observed outputs against the unknown index.
    let mut specs = output_specs;
    if specs.is_empty() {
        let first = model
            .outputs
            .first()
            .cloned()
            .ok_or_else(|| AmsError::UnknownOutput {
                spec: "<no output port>".to_string(),
                module: module.name.clone(),
            })?;
        specs.push(OutputSpec::Potential(first));
    }
    let mut output_indices = Vec::with_capacity(specs.len());
    for spec in &specs {
        let unknown = || AmsError::UnknownOutput {
            spec: spec.to_string(),
            module: module.name.clone(),
        };
        let q = spec.resolve(&model).map_err(|_| unknown())?;
        output_indices.push(index.get(&q).copied().ok_or_else(unknown)?);
    }

    // Factor the Jacobian once at the all-zero state, so every instance
    // starts from the same linearization no matter which worker spawns
    // it first (scheduling-independent, hence bit-reproducible sweeps).
    let mut slots = vec![0.0; slot_count];
    slots[dt_slot] = dt;
    slots[dt_slot + 1] = 1.0 / dt;
    let mut stack = Vec::with_capacity(max_stack);
    let mut jt = Triplets::new(n, n);
    stamp_jacobian(&jacobian, &programs, &mut slots, &mut stack, &mut jt);
    // Resolve `Auto` once, from the fill of the zero-state stamp's sparse
    // analysis: the backend is part of the compiled artifact, so every
    // instance and batch lane of this model solves the same way.
    let analyze_start = lower_start.map(|t0| {
        obs.time("amsim.compile.lower", t0.elapsed().as_secs_f64());
        Instant::now()
    });
    let (backend, init_lu) =
        AnyLu::resolve(solver, &jt, || <LuFactors as Factorization>::analyze(&jt));
    let init_lu = init_lu.ok();
    if let Some(t0) = analyze_start {
        obs.time("amsim.compile.analyze", t0.elapsed().as_secs_f64());
    }

    // Stable content hash over everything that determines the model's
    // numerics: the discretized equations, the slot layout, the solve
    // configuration. Two compiles of the same module with the same
    // settings — in the same process or not — produce the same hash, so
    // model caches (the serve daemon's LRU) and resubmission checks can
    // key on it cheaply.
    let mut hasher = Fnv1a::new();
    hasher.write(module.name.as_bytes());
    hasher.write_u64(dt.to_bits());
    hasher.write_u64(newton_tol.to_bits());
    hasher.write(format!("{step_control:?}").as_bytes());
    hasher.write(format!("{backend:?}").as_bytes());
    for q in &unknowns {
        hasher.write(format!("{q:?}").as_bytes());
    }
    for name in &input_names {
        hasher.write(name.as_bytes());
    }
    for &i in &output_indices {
        hasher.write_u64(i as u64);
    }
    for eq in &equations {
        hasher.write(format!("{eq:?}").as_bytes());
    }
    let model_hash = hasher.finish();

    Ok(CompiledModel {
        dt,
        newton_tol,
        unknowns,
        index,
        equations,
        programs,
        jacobian,
        placeholders,
        ddt_progs,
        idt_progs,
        input_off,
        ddt_off,
        idt_off,
        dt_slot,
        slot_count,
        step_control,
        input_names,
        output_indices,
        max_stack,
        init_lu,
        backend,
        model_hash,
    })
}

/// The 64-bit FNV-1a hash — tiny, dependency-free, and stable across
/// processes and platforms (unlike `std::hash`, whose `DefaultHasher` is
/// explicitly unstable between releases).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separate fields so ("ab","c") and ("a","bc") hash differently.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl CompiledModel {
    /// Tree-walk evaluation of `e` over one flat slot block — the oracle
    /// the compiled programs are checked against.
    pub(crate) fn eval_tree(&self, slots: &[f64], e: &QExpr) -> f64 {
        e.eval(&mut |q: &Quantity, _| {
            if let Some(ph) = self.placeholders.get(q) {
                return Some(
                    slots[match ph {
                        Placeholder::Ddt(k) => self.ddt_off + k,
                        Placeholder::Idt(k) => self.idt_off + k,
                        Placeholder::Dt => self.dt_slot,
                        Placeholder::InvDt => self.dt_slot + 1,
                    }],
                );
            }
            match q {
                Quantity::Input(n) => self
                    .input_names
                    .iter()
                    .position(|i| i == n)
                    .map(|i| slots[self.input_off + i]),
                other => self.index.get(other).map(|&i| slots[i]),
            }
        })
        .expect("all leaves resolvable by construction")
    }
}

impl Instance {
    /// Builds the per-run state over a compiled model. When `seed` is set
    /// the compile-time Jacobian build/factorization is accounted on this
    /// instance (the single-run [`Simulation::build`] path): the lane
    /// starts on its own copy of the zero-state factors, sparse-analysis
    /// stats included. Sweep instances leave it unset because
    /// [`Simulation::compile`] already reported that work.
    fn with_model(
        model: Arc<CompiledModel>,
        obs: Obs,
        newton_tol: f64,
        step_control: Option<StepControl>,
        seed: bool,
    ) -> Instance {
        let mut batch = BatchInstance::with_model(model, obs, vec![newton_tol], vec![step_control]);
        if let (true, Some(lu)) = (seed, &batch.model.init_lu) {
            batch.lane[0].lu = Some(lu.clone());
            batch.jacobian_builds = 1;
            batch.lu_factorizations = 1;
        }
        Instance { batch }
    }

    /// Reports counter deltas (`amsim.steps`, `amsim.newton_iterations`,
    /// `amsim.jacobian.builds`, `amsim.lu.factorizations`,
    /// `amsim.jacobian.reuse_hits`, `amsim.jacobian.refactor`, the
    /// `amsim.step.*`, `linalg.sparse.*` and `amsim.snapshot.*` families)
    /// to the attached collector. Called automatically on drop; call
    /// explicitly to snapshot mid-run.
    pub fn flush_counters(&mut self) {
        self.batch.flush_solver_counters();
    }

    /// Captures a checkpoint of the current run state: slots (ddt/idt
    /// history and the reserved `h`/`1/h` slots included), committed
    /// unknowns, adaptive-step controller state, LU validity and the
    /// step/Newton watermarks of the run's path (after a
    /// [`Instance::restore`], the path continues from the restored
    /// snapshot's watermarks). Factors the run refreshed privately are
    /// cloned with their sparse stats reset — this run has already
    /// reported that work; a run still on the model's shared zero-state
    /// factors shares them with the snapshot.
    ///
    /// `&mut self` only for the `amsim.snapshot.taken` counter; the run
    /// state is untouched and stepping may continue immediately.
    pub fn snapshot(&mut self) -> Snapshot {
        self.batch.snapshot_lane(0)
    }

    /// Rewinds this run to a checkpoint taken from the **same** compiled
    /// model. Subsequent steps are bit-identical to a run that reached
    /// the checkpoint and never stopped: the slot block replays the exact
    /// ddt/idt history, the adaptive controller resumes its sub-step and
    /// grow streak, and the captured factors (validity included) are
    /// reinstated, so the modified-Newton refresh schedule is preserved.
    ///
    /// Work counters stay monotone — they are never rewound, so an
    /// attached [`Obs`] collector cannot double-count. After rewinding
    /// the *same* instance, per-run accessors such as
    /// [`Instance::newton_iterations`] keep counting from the high-water
    /// mark; forked lanes seeded via
    /// [`BatchInstance::fork_from`](crate::BatchInstance::fork_from)
    /// instead report path-cumulative totals from the snapshot's
    /// watermarks.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a different compiled model.
    pub fn restore(&mut self, snap: &Snapshot) {
        assert!(
            Arc::ptr_eq(&self.batch.model, &snap.model),
            "Instance::restore: snapshot belongs to a different compiled model"
        );
        self.batch.restore_lane(0, snap);
        self.batch.snapshots_restored += 1;
    }

    /// Replaces the adaptive-stepping policy mid-run. `None` switches to
    /// strict fixed-`dt` stepping and resets the sub-step to the nominal
    /// `dt` (and the regrow streak to zero), so a run that had backed off
    /// solves its next step at the nominal `dt` it advances time by.
    /// [`Instance::restore`] reinstates the *snapshot's* policy, so the
    /// recovery ladder calls this right after restoring to resume under a
    /// tightened control.
    ///
    /// # Errors
    ///
    /// [`AmsError::InvalidStepControl`] when the policy does not
    /// validate against the model's nominal `dt`; the current policy is
    /// left unchanged.
    pub fn set_step_control(&mut self, sc: Option<StepControl>) -> Result<(), AmsError> {
        let dt = self.dt();
        if let Some(sc) = &sc {
            sc.validate(dt)?;
        }
        let lane = &mut self.batch.lane[0];
        lane.step_control = sc;
        if sc.is_none() {
            lane.cur_dt = dt;
            lane.accept_streak = 0;
        }
        Ok(())
    }

    /// Checkpoints taken from this run (performance counter).
    pub fn snapshots_taken(&self) -> u64 {
        self.batch.snapshots_taken
    }

    /// Checkpoints restored into this run (performance counter).
    pub fn snapshots_restored(&self) -> u64 {
        self.batch.snapshots_restored
    }

    /// Time step in seconds.
    pub fn dt(&self) -> f64 {
        self.batch.model.dt
    }

    /// The shared compiled artifact this run steps over.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.batch.model
    }

    /// Newton convergence tolerance for this run.
    pub fn newton_tol(&self) -> f64 {
        self.batch.lane[0].newton_tol
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.batch.lane[0].time
    }

    /// Input names in `step` order.
    pub fn input_names(&self) -> &[String] {
        &self.batch.model.input_names
    }

    /// Newton iterations performed so far (performance counter).
    pub fn newton_iterations(&self) -> u64 {
        self.batch.newton_iters
    }

    /// Jacobian assemblies so far (performance counter). With the
    /// modified-Newton strategy this counts actual rebuilds, not
    /// iterations; see [`Instance::jacobian_reuse_hits`].
    pub fn jacobian_builds(&self) -> u64 {
        self.batch.jacobian_builds
    }

    /// LU factorizations so far. Factorization follows every Jacobian
    /// build, so this currently tracks [`Instance::jacobian_builds`];
    /// it is counted separately because the obs report distinguishes
    /// assembly cost from factorization cost.
    pub fn lu_factorizations(&self) -> u64 {
        self.batch.lu_factorizations
    }

    /// Newton iterations that reused an existing LU factorization instead
    /// of rebuilding the Jacobian (performance counter).
    pub fn jacobian_reuse_hits(&self) -> u64 {
        self.batch.jacobian_reuse_hits
    }

    /// Factorization refreshes forced by the convergence-stall test
    /// (performance counter).
    pub fn jacobian_refactors(&self) -> u64 {
        self.batch.jacobian_refactors
    }

    /// Sub-steps rejected by the adaptive controller (robustness counter).
    pub fn steps_rejected(&self) -> u64 {
        self.batch.steps_rejected
    }

    /// Backoff retries spent (robustness counter). Equal to
    /// [`Instance::steps_rejected`] minus the rejections that
    /// exhausted their budget.
    pub fn step_retries(&self) -> u64 {
        self.batch.step_retries
    }

    /// Times the sub-step was halved (robustness counter).
    pub fn dt_shrinks(&self) -> u64 {
        self.batch.dt_shrinks
    }

    /// Times the sub-step was doubled back toward nominal (robustness
    /// counter).
    pub fn dt_grows(&self) -> u64 {
        self.batch.dt_grows
    }

    /// Adaptive-stepping policy for this run (`None` means fixed-`dt`).
    pub fn step_control(&self) -> Option<StepControl> {
        self.batch.lane[0].step_control
    }

    /// Current adaptive sub-step in seconds (the nominal `dt` unless the
    /// controller has backed off).
    pub fn current_dt(&self) -> f64 {
        self.batch.lane[0].cur_dt
    }

    /// Number of unknowns in the DAE system.
    pub fn dim(&self) -> usize {
        self.batch.dim()
    }

    /// Value of output `i` after the last step.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn output(&self, i: usize) -> f64 {
        self.batch.output(i, 0)
    }

    /// Value of an arbitrary quantity.
    pub fn value(&self, q: &Quantity) -> Option<f64> {
        self.batch.model.index.get(q).map(|&i| self.batch.x[i])
    }

    /// Evaluates every residual at the current internal state through the
    /// compiled VM programs (the production hot path).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn residuals_vm(&mut self, out: &mut [f64]) {
        let b = &mut self.batch;
        assert_eq!(out.len(), b.model.programs.len(), "residual dimension");
        for (o, prog) in out.iter_mut().zip(&b.model.programs) {
            *o = prog.eval(&b.slots, &mut b.scalar_stack);
        }
    }

    /// Evaluates every residual at the current internal state by walking
    /// the expression trees (the debug oracle the VM path is validated
    /// against; not used for stepping).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn residuals_tree(&self, out: &mut [f64]) {
        let m = &self.batch.model;
        assert_eq!(out.len(), m.equations.len(), "residual dimension");
        for (o, eq) in out.iter_mut().zip(&m.equations) {
            *o = m.eval_tree(&self.batch.slots, eq);
        }
    }

    /// Maximum Newton iterations per step. Higher than the classic fresh-
    /// Jacobian budget because modified Newton trades extra (cheap)
    /// iterations for skipped factorizations.
    pub(crate) const MAX_NEWTON_ITERS: u32 = 50;

    /// Iterations a factorization may serve without converging before a
    /// refresh is forced regardless of the contraction rate.
    pub(crate) const MAX_STALE_ITERS: u32 = 8;

    /// Advances the simulation by one nominal step.
    ///
    /// The Newton loop is allocation-free: residuals and Jacobian entries
    /// evaluate through compiled VM programs into preallocated buffers,
    /// and the LU factorization is *reused* across iterations and
    /// accepted steps (modified Newton). The factorization refreshes only
    /// when the iteration stalls — when the update norm stops contracting
    /// — or after a fixed number of reuses (`MAX_STALE_ITERS`) without
    /// convergence. Linear systems therefore factor exactly once for an
    /// entire transient.
    ///
    /// With a [`StepControl`] attached, a failed solve is retried with a
    /// geometrically halved sub-step (inputs held at their step values —
    /// zero-order hold) until the interval `[t, t + dt]` closes, the
    /// retry budget is exhausted, or the backoff floor is hit; the
    /// sub-step then regrows toward nominal after a streak of clean
    /// accepts. Rejections and step rescaling are reported as
    /// `amsim.step.{rejected,retries,dt_shrink,dt_grow}` counters plus an
    /// `amsim.dt` histogram of accepted sub-steps.
    ///
    /// # Errors
    ///
    /// [`AmsError::NoConvergence`] / [`AmsError::Singular`] /
    /// [`AmsError::NonFinite`] on solver failure (after exhausting the
    /// backoff budget, if adaptive). On error the instance remains at its
    /// last accepted state — under adaptive control that can lie strictly
    /// inside the nominal interval (inspect [`Instance::time`]) — and
    /// the next call steps on from there.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the declared input count.
    pub fn try_step(&mut self, inputs: &[f64]) -> Result<(), AmsError> {
        assert_eq!(inputs.len(), self.input_names().len(), "input arity");
        self.batch.try_step(inputs);
        // The batch retires a faulted lane; a scalar run hands the error
        // to its caller and stays usable.
        let lane = &mut self.batch.lane[0];
        match lane.error.take() {
            None => Ok(()),
            Some(e) => {
                lane.active = true;
                Err(e)
            }
        }
    }

    /// Advances the simulation by one step.
    ///
    /// # Panics
    ///
    /// Panics on Newton failure (see [`Instance::try_step`]) or input
    /// arity mismatch.
    pub fn step(&mut self, inputs: &[f64]) {
        self.try_step(inputs)
            .unwrap_or_else(|e| panic!("amsim step failed: {e}"));
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        self.flush_counters();
        // The inner batch flushes again on its own drop, adding the
        // `amsim.batch.*` families a scalar run does not report.
        self.batch.obs = Obs::none();
    }
}

/// Replaces `ddt`/`idt` with backward-Euler forms over history
/// placeholders (`__amsim_ddt{k}` / `__amsim_idt{k}` variables). The step
/// itself enters as the placeholder variables `__amsim_dt` / `__amsim_invdt`
/// — slots, not constants — so an adaptive controller can rescale the
/// discretization at run time without recompiling. The symbolic Jacobian
/// is unaffected: placeholders are held constant by the derivative
/// algebra, exactly as the history terms always were.
fn discretize(
    e: &QExpr,
    placeholders: &mut BTreeMap<Quantity, Placeholder>,
    ddt_inner: &mut Vec<QExpr>,
    idt_inner: &mut Vec<QExpr>,
) -> QExpr {
    match e {
        Expr::Num(_) | Expr::Var(_) | Expr::Prev(..) => e.clone(),
        Expr::Neg(a) => -discretize(a, placeholders, ddt_inner, idt_inner),
        Expr::Bin(op, a, b) => Expr::bin(
            *op,
            discretize(a, placeholders, ddt_inner, idt_inner),
            discretize(b, placeholders, ddt_inner, idt_inner),
        ),
        Expr::Call(f, args) => Expr::Call(
            *f,
            args.iter()
                .map(|a| discretize(a, placeholders, ddt_inner, idt_inner))
                .collect(),
        ),
        Expr::Cond(c, t, el) => Expr::cond(
            discretize(c, placeholders, ddt_inner, idt_inner),
            discretize(t, placeholders, ddt_inner, idt_inner),
            discretize(el, placeholders, ddt_inner, idt_inner),
        ),
        Expr::Ddt(inner) => {
            let inner = discretize(inner, placeholders, ddt_inner, idt_inner);
            let k = ddt_inner.len();
            let q = Quantity::var(format!("__amsim_ddt{k}"));
            placeholders.insert(q.clone(), Placeholder::Ddt(k));
            ddt_inner.push(inner.clone());
            let inv_dt = Quantity::var(DT_INV_NAME);
            placeholders.insert(inv_dt.clone(), Placeholder::InvDt);
            (inner - Expr::var(q)) * Expr::var(inv_dt)
        }
        Expr::Idt(inner) => {
            let inner = discretize(inner, placeholders, ddt_inner, idt_inner);
            let k = idt_inner.len();
            let q = Quantity::var(format!("__amsim_idt{k}"));
            placeholders.insert(q.clone(), Placeholder::Idt(k));
            idt_inner.push(inner.clone());
            let dt_q = Quantity::var(DT_NAME);
            placeholders.insert(dt_q.clone(), Placeholder::Dt);
            Expr::var(q) + Expr::var(dt_q) * inner
        }
    }
}

/// Reserved variable name backed by the `h` slot.
const DT_NAME: &str = "__amsim_dt";
/// Reserved variable name backed by the `1/h` slot.
const DT_INV_NAME: &str = "__amsim_invdt";

#[cfg(test)]
mod tests {
    use super::*;
    use vams_parser::parse_module;

    const RC1: &str = "module rc(in, out);
        input in; output out;
        parameter real R = 5k;
        parameter real C = 25n;
        electrical in, out, gnd;
        ground gnd;
        branch (in, out) res;
        branch (out, gnd) cap;
        analog begin
          V(res) <+ R * I(res);
          I(cap) <+ C * ddt(V(cap));
        end
      endmodule";

    #[test]
    fn model_hash_is_stable_and_discriminating() {
        let m = parse_module(RC1).unwrap();
        let compile = |dt: f64| {
            Simulation::new(&m)
                .dt(dt)
                .output("V(out)")
                .compile()
                .unwrap()
        };
        // Two independent compiles of the same module + settings agree.
        assert_eq!(compile(1e-6).model_hash(), compile(1e-6).model_hash());
        // A numerically meaningful difference changes the hash.
        assert_ne!(compile(1e-6).model_hash(), compile(2e-6).model_hash());
        let other = parse_module(&amsvp_core::circuits::rc_ladder(2)).unwrap();
        let other = Simulation::new(&other)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        assert_ne!(compile(1e-6).model_hash(), other.model_hash());
        // Tolerance and step-control differences are part of the key too.
        let tol = Simulation::new(&m)
            .dt(1e-6)
            .newton_tol(1e-7)
            .output("V(out)")
            .compile()
            .unwrap();
        assert_ne!(compile(1e-6).model_hash(), tol.model_hash());
    }

    #[test]
    fn rc_step_response() {
        let m = parse_module(RC1).unwrap();
        let tau = 5e3 * 25e-9;
        let mut sim = Simulation::new(&m)
            .dt(tau / 200.0)
            .output("V(out)")
            .build()
            .unwrap();
        for _ in 0..200 {
            sim.step(&[1.0]);
        }
        let analytic = 1.0 - (-1.0_f64).exp();
        assert!((sim.output(0) - analytic).abs() < 3e-3);
        assert!((sim.time() - tau).abs() < 1e-12);
        // Linear system: one Newton iteration reaches machine precision,
        // the second confirms convergence.
        assert!(sim.newton_iterations() <= 2 * 200 + 2);
    }

    #[test]
    fn system_dimensions_are_square() {
        let m = parse_module(RC1).unwrap();
        let sim = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .build()
            .unwrap();
        // RC1: unknowns = V[res], I[res], V[cap], I[cap], V(out) = 5.
        assert_eq!(sim.dim(), 5);
        assert_eq!(sim.input_names(), &["in".to_string()]);
    }

    #[test]
    fn branch_quantities_observable() {
        let m = parse_module(RC1).unwrap();
        let mut sim = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .output("I(cap)")
            .build()
            .unwrap();
        sim.step(&[1.0]);
        let out = sim.output(0);
        let icap = sim.output(1);
        // KCL: the cap current equals the resistor current (in−out)/R.
        assert!((icap - (1.0 - out) / 5e3).abs() < 1e-9);
        assert_eq!(sim.value(&Quantity::node_v("out")), Some(out));
    }

    #[test]
    fn nonlinear_diode_converges() {
        // Diode + resistor: V(d) across an exponential device.
        let m = parse_module(
            "module dio(in, out);
               input in; output out;
               electrical in, out, gnd;
               ground gnd;
               branch (in, out) r;
               branch (out, gnd) d;
               analog begin
                 V(r) <+ 1k * I(r);
                 I(d) <+ 1e-12 * (exp(V(d) / 0.02585) - 1);
               end
             endmodule",
        )
        .unwrap();
        let mut sim = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .build()
            .unwrap();
        sim.step(&[0.7]);
        let vd = sim.output(0);
        // Diode drop in a sane region; the current balances through R.
        assert!(vd > 0.3 && vd < 0.7, "diode voltage {vd}");
        let ir = (0.7 - vd) / 1e3;
        let id = 1e-12 * ((vd / 0.02585).exp() - 1.0);
        assert!((ir - id).abs() < 1e-9 * ir.abs().max(1e-12));
    }

    #[test]
    fn vm_residuals_match_tree_oracle() {
        // Nonlinear (exp) plus piecewise clipping: exercises Call, Select
        // and the ddt history slots through both evaluation paths.
        let m = parse_module(
            "module clipamp(in, out);
               input in; output out;
               electrical in, out, mid, gnd;
               ground gnd;
               branch (in, mid) r;
               branch (mid, gnd) d;
               branch (mid, gnd) c;
               real v;
               analog begin
                 v = 10 * V(mid, gnd);
                 if (v > 1.0) v = 1.0;
                 else if (v < -1.0) v = -1.0;
                 V(r) <+ 1k * I(r);
                 I(d) <+ 1e-9 * (exp(V(d) / 0.1) - 1);
                 I(c) <+ 10n * ddt(V(c));
                 V(out, gnd) <+ v;
               end
             endmodule",
        )
        .unwrap();
        let mut sim = Simulation::new(&m)
            .dt(1e-7)
            .output("V(out)")
            .build()
            .unwrap();
        let n = sim.dim();
        let mut vm_out = vec![0.0; n];
        let mut tree_out = vec![0.0; n];
        for k in 0..50 {
            sim.step(&[0.02 * k as f64]);
            sim.residuals_vm(&mut vm_out);
            sim.residuals_tree(&mut tree_out);
            for (i, (a, b)) in vm_out.iter().zip(&tree_out).enumerate() {
                let scale = 1.0 + a.abs().max(b.abs());
                assert!(
                    (a - b).abs() <= 1e-12 * scale,
                    "step {k} residual {i}: vm {a} vs tree {b}"
                );
            }
        }
    }

    #[test]
    fn linear_circuit_factors_once() {
        let m = parse_module(RC1).unwrap();
        let mut sim = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .build()
            .unwrap();
        for k in 0..100 {
            sim.step(&[if k < 50 { 1.0 } else { 0.0 }]);
        }
        // Modified Newton on a linear system: the Jacobian is constant, so
        // the single compile-time build/factorization serves the whole
        // transient and every iteration is a reuse.
        assert_eq!(sim.jacobian_builds(), 1);
        assert_eq!(sim.lu_factorizations(), 1);
        assert_eq!(sim.jacobian_refactors(), 0);
        assert_eq!(sim.jacobian_reuse_hits(), sim.newton_iterations());
    }

    #[test]
    fn counters_report_under_split_names() {
        let obs = Obs::recording();
        let m = parse_module(RC1).unwrap();
        {
            let mut sim = Simulation::new(&m)
                .dt(1e-6)
                .output("V(out)")
                .collector(obs.clone())
                .build()
                .unwrap();
            for _ in 0..10 {
                sim.step(&[1.0]);
            }
        } // drop flushes
        let report = obs.report().unwrap();
        assert_eq!(report.counter("amsim.steps"), 10);
        assert!(report.counter("amsim.newton_iterations") > 0);
        assert_eq!(report.counter("amsim.jacobian.builds"), 1);
        assert_eq!(report.counter("amsim.lu.factorizations"), 1);
        assert!(report.counter("amsim.jacobian.reuse_hits") > 0);
        assert_eq!(report.counter("amsim.jacobian.refactor"), 0);
    }

    #[test]
    fn nonlinear_stall_triggers_refactor() {
        // Strongly nonlinear diode with a large input swing: the first
        // step's factorization cannot serve the later bias points, so the
        // stall detector must refresh at least once.
        let m = parse_module(
            "module dio(in, out);
               input in; output out;
               electrical in, out, gnd;
               ground gnd;
               branch (in, out) r;
               branch (out, gnd) d;
               analog begin
                 V(r) <+ 1k * I(r);
                 I(d) <+ 1e-12 * (exp(V(d) / 0.02585) - 1);
               end
             endmodule",
        )
        .unwrap();
        let mut sim = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .build()
            .unwrap();
        for k in 0..20 {
            sim.step(&[0.05 * k as f64]);
        }
        assert!(sim.jacobian_refactors() > 0, "stall test never fired");
        assert!(
            sim.lu_factorizations() < sim.newton_iterations(),
            "factorization reuse must skip some iterations"
        );
        // The final operating point still balances currents.
        let vd = sim.output(0);
        let ir = (0.95 - vd) / 1e3;
        let id = 1e-12 * ((vd / 0.02585).exp() - 1.0);
        assert!((ir - id).abs() < 1e-9 * ir.abs().max(1e-12));
    }

    #[test]
    fn output_specs_validated() {
        let m = parse_module(RC1).unwrap();
        assert!(matches!(
            Simulation::new(&m).dt(1e-6).output("V(ghost)").build(),
            Err(AmsError::UnknownOutput { .. })
        ));
        assert!(matches!(
            Simulation::new(&m).dt(-1.0).output("V(out)").build(),
            Err(AmsError::InvalidTimeStep { .. })
        ));
        assert!(matches!(
            Simulation::new(&m).newton_tol(0.0).output("V(out)").build(),
            Err(AmsError::InvalidTolerance { .. })
        ));
    }

    #[test]
    fn compiled_model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledModel>();
        assert_send_sync::<Arc<CompiledModel>>();
        // Instances migrate between threads (cosim already relies on it).
        fn assert_send<T: Send>() {}
        assert_send::<Instance>();
    }

    #[test]
    fn instance_matches_monolithic_build() {
        // compile() + instance() must reproduce build() bit for bit.
        let m = parse_module(RC1).unwrap();
        let mut whole = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .build()
            .unwrap();
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let mut inst = model.instance();
        for k in 0..100 {
            let u = if k < 50 { 1.0 } else { 0.25 };
            whole.step(&[u]);
            inst.step(&[u]);
            assert_eq!(whole.output(0).to_bits(), inst.output(0).to_bits());
        }
        // The instance never rebuilt: the compile-time LU served it all.
        assert_eq!(inst.jacobian_builds(), 0);
        assert_eq!(inst.jacobian_reuse_hits(), inst.newton_iterations());
    }

    #[test]
    fn one_model_shared_across_threads() {
        let m = parse_module(RC1).unwrap();
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let mut reference = model.instance();
        for _ in 0..50 {
            reference.step(&[1.0]);
        }
        let expected = reference.output(0);
        let results: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let model = &model;
                    s.spawn(move || {
                        let mut inst = model.instance();
                        for _ in 0..50 {
                            inst.step(&[1.0]);
                        }
                        inst.output(0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn compile_reports_one_build_for_many_instances() {
        let obs = Obs::recording();
        let m = parse_module(RC1).unwrap();
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .collector(obs.clone())
            .compile()
            .unwrap();
        for _ in 0..8 {
            let mut inst = model
                .instance_builder()
                .collector(obs.clone())
                .build()
                .unwrap();
            for _ in 0..10 {
                inst.step(&[1.0]);
            }
        }
        let report = obs.report().unwrap();
        // Linear circuit: the compile-time build is the only one, no
        // matter how many instances ran.
        assert_eq!(report.counter("amsim.jacobian.builds"), 1);
        assert_eq!(report.counter("amsim.lu.factorizations"), 1);
        assert_eq!(report.counter("amsim.steps"), 80);
    }

    #[test]
    fn loose_tolerance_spends_fewer_iterations() {
        let m = parse_module(
            "module dio(in, out);
               input in; output out;
               electrical in, out, gnd;
               ground gnd;
               branch (in, out) r;
               branch (out, gnd) d;
               analog begin
                 V(r) <+ 1k * I(r);
                 I(d) <+ 1e-12 * (exp(V(d) / 0.02585) - 1);
               end
             endmodule",
        )
        .unwrap();
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let run = |tol: f64| {
            let mut inst = model.instance_builder().newton_tol(tol).build().unwrap();
            for k in 0..10 {
                inst.step(&[0.07 * k as f64]);
            }
            (inst.newton_iterations(), inst.output(0))
        };
        let (tight_iters, tight_v) = run(1e-10);
        let (loose_iters, loose_v) = run(1e-4);
        assert!(
            loose_iters < tight_iters,
            "loose {loose_iters} vs tight {tight_iters}"
        );
        // Both land on the same operating point to the loose tolerance.
        assert!((tight_v - loose_v).abs() < 1e-3, "{tight_v} vs {loose_v}");
        assert!(matches!(
            model.instance_builder().newton_tol(f64::NAN).build(),
            Err(AmsError::InvalidTolerance { .. })
        ));
    }

    #[test]
    fn signal_flow_vars_join_the_system() {
        let m = parse_module(
            "module amp(i, o); input i; output o;
               electrical i, o, gnd; ground gnd;
               real y;
               analog begin
                 y = 3 * V(i, gnd);
                 V(o, gnd) <+ y;
               end
             endmodule",
        )
        .unwrap();
        let mut sim = Simulation::new(&m).dt(1e-6).output("V(o)").build().unwrap();
        sim.step(&[0.5]);
        assert!((sim.output(0) - 1.5).abs() < 1e-9);
    }

    /// Purely algebraic stiff divider: no state, so no step size can
    /// soften the input jump — Newton fails at any `dt`.
    const STIFF_DIODE: &str = "module dio(in, out);
        input in; output out;
        electrical in, out, gnd;
        ground gnd;
        branch (in, out) r;
        branch (out, gnd) d;
        analog begin
          V(r) <+ 1k * I(r);
          I(d) <+ 1p * (exp(V(d) / 5m) - 1);
        end
      endmodule";

    /// Stiff diode clamp *with* a capacitor: backward Euler at a small
    /// sub-step stiffens the cap conductance `C/h`, which limits how far
    /// the output can move per solve — adaptive backoff rescues it.
    const STIFF_CLAMP: &str = "module clamp(in, out);
        input in; output out;
        electrical in, out, gnd;
        ground gnd;
        branch (in, out) r;
        branch (out, gnd) d;
        branch (out, gnd) c;
        analog begin
          V(r) <+ 1k * I(r);
          I(d) <+ 1p * (exp(V(d) / 5m) - 1);
          I(c) <+ 1n * ddt(V(c));
        end
      endmodule";

    #[test]
    fn adaptive_control_is_bit_transparent_on_benign_circuits() {
        // A linear circuit never rejects, so an adaptive instance must
        // reproduce the fixed-dt trajectory bit for bit with zero
        // rejection/backoff activity.
        let m = parse_module(RC1).unwrap();
        let mut fixed = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .build()
            .unwrap();
        let mut adaptive = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .step_control(StepControl::new(1e-12))
            .build()
            .unwrap();
        for k in 0..200 {
            let u = if (k / 40) % 2 == 0 { 1.0 } else { 0.0 };
            fixed.step(&[u]);
            adaptive.step(&[u]);
            assert_eq!(fixed.output(0).to_bits(), adaptive.output(0).to_bits());
        }
        assert_eq!(fixed.time().to_bits(), adaptive.time().to_bits());
        assert_eq!(adaptive.steps_rejected(), 0);
        assert_eq!(adaptive.step_retries(), 0);
        assert_eq!(adaptive.dt_shrinks(), 0);
        assert_eq!(adaptive.dt_grows(), 0);
        assert_eq!(adaptive.current_dt(), 1e-6);
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        let m = parse_module(RC1).unwrap();
        let mut sim = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .build()
            .unwrap();
        sim.step(&[1.0]);
        let before = sim.output(0);
        let err = sim.try_step(&[f64::NAN]).unwrap_err();
        assert!(
            matches!(err, AmsError::NonFinite { iteration: 1, .. }),
            "want NonFinite at iteration 1, got {err}"
        );
        // The failure neither advanced time nor corrupted accepted state.
        assert_eq!(sim.output(0).to_bits(), before.to_bits());
        assert!((sim.time() - 1e-6).abs() < 1e-18);
        assert!(sim.try_step(&[1.0]).is_ok(), "solver must recover");
    }

    #[test]
    fn no_convergence_carries_residual_and_dt() {
        // Sharp diode (thermal voltage 5 mV) hit with a full-scale step:
        // damped-free Newton descends ~5 mV per iteration from the
        // overshoot and cannot close within the iteration cap.
        let m = parse_module(STIFF_DIODE).unwrap();
        let mut sim = Simulation::new(&m)
            .dt(1e-4)
            .output("V(out)")
            .build()
            .unwrap();
        match sim.try_step(&[1.0]) {
            Err(AmsError::NoConvergence {
                iterations,
                residual_norm,
                dt,
                ..
            }) => {
                assert_eq!(iterations, Instance::MAX_NEWTON_ITERS);
                assert!(
                    residual_norm.is_finite() && residual_norm > 0.0,
                    "best residual {residual_norm}"
                );
                assert_eq!(dt, 1e-4);
            }
            other => panic!("want NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_stepping_rescues_the_stiff_diode() {
        let m = parse_module(STIFF_CLAMP).unwrap();
        let obs = Obs::recording();
        let mut sim = Simulation::new(&m)
            .dt(1e-4)
            .output("V(out)")
            .step_control(StepControl::new(1e-9))
            .collector(obs.clone())
            .build()
            .unwrap();
        for _ in 0..5 {
            sim.try_step(&[1.0]).expect("adaptive run must complete");
        }
        assert!(sim.steps_rejected() > 0, "stiff edge must reject");
        assert!(sim.dt_shrinks() > 0);
        assert!(sim.dt_grows() > 0, "dt must regrow after the edge");
        assert!((sim.time() - 5e-4).abs() < 1e-15, "time {}", sim.time());
        // Operating point: diode clamps out at IS·(exp(v/VT)−1) = (1−v)/R.
        let vd = sim.output(0);
        let id = 1e-12 * ((vd / 5e-3).exp() - 1.0);
        assert!(((1.0 - vd) / 1e3 - id).abs() < 1e-8, "clamp at {vd}");
        drop(sim);
        let report = obs.report().unwrap();
        assert!(report.counter("amsim.step.rejected") > 0);
        assert!(report.counter("amsim.step.retries") > 0);
        assert!(report.counter("amsim.step.dt_shrink") > 0);
        assert!(report.counter("amsim.step.dt_grow") > 0);
        let hist = &report.timers["amsim.dt"];
        assert!(
            hist.count > 5,
            "sub-step histogram must see more accepts than nominal steps"
        );
    }

    #[test]
    fn step_control_is_validated() {
        let m = parse_module(RC1).unwrap();
        for bad in [0.0, -1e-9, f64::NAN, 1e-3] {
            let err = Simulation::new(&m)
                .dt(1e-6)
                .output("V(out)")
                .step_control(StepControl::new(bad))
                .build()
                .err()
                .expect("invalid step control must be rejected");
            assert!(
                matches!(err, AmsError::InvalidStepControl { .. }),
                "min_dt {bad}: got {err}"
            );
        }
        // Instance builders re-validate their override.
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        assert!(matches!(
            model
                .instance_builder()
                .step_control(StepControl::new(1e-2))
                .build(),
            Err(AmsError::InvalidStepControl { .. })
        ));
    }

    #[test]
    fn instance_builder_can_disable_model_step_control() {
        let m = parse_module(STIFF_CLAMP).unwrap();
        let model = Simulation::new(&m)
            .dt(1e-4)
            .output("V(out)")
            .step_control(StepControl::new(1e-9))
            .compile()
            .unwrap();
        assert!(model.step_control().is_some());
        // Default instances inherit the model's control and survive.
        let mut inherits = model.instance();
        assert!(inherits.try_step(&[1.0]).is_ok());
        // An explicit `None` forces fixed-dt semantics back on.
        let mut fixed = model.instance_builder().step_control(None).build().unwrap();
        assert!(matches!(
            fixed.try_step(&[1.0]),
            Err(AmsError::NoConvergence { .. })
        ));
    }

    #[test]
    fn switching_to_fixed_dt_after_backoff_steps_at_the_nominal_dt() {
        let m = parse_module(&amsvp_core::circuits::diode_clamp()).unwrap();
        let mut sim = Simulation::new(&m)
            .dt(1e-4)
            .output("V(out)")
            .step_control(StepControl::new(1e-12))
            .build()
            .unwrap();
        sim.try_step(&[5.0]).unwrap();
        assert!(sim.current_dt() < 1e-4, "the 5 V edge must back off");
        sim.set_step_control(None).unwrap();
        let before = sim.output(0);
        sim.try_step(&[0.0]).unwrap();
        // τ = RC = 1 µs: one backward-Euler step of 100 µs divides V(out)
        // by at least 101 — unless the solve ran at the backed-off step.
        let after = sim.output(0);
        assert!(
            after.abs() < 0.02 * before.abs(),
            "V(out) {before} -> {after} after one fixed 100 µs step"
        );
        assert_eq!(sim.current_dt(), 1e-4);
        assert!((sim.time() - 2e-4).abs() < 1e-15, "time {}", sim.time());
    }

    #[test]
    fn backoff_budget_exhaustion_surfaces_the_solver_error() {
        let m = parse_module(STIFF_DIODE).unwrap();
        // min_dt only one halving away: the stiff edge cannot be rescued.
        let mut sim = Simulation::new(&m)
            .dt(1e-4)
            .output("V(out)")
            .step_control(StepControl::new(0.9e-4).max_retries(3))
            .build()
            .unwrap();
        let err = sim.try_step(&[1.0]).unwrap_err();
        assert!(matches!(err, AmsError::NoConvergence { .. }), "{err}");
        assert!(sim.steps_rejected() > 0);
        // Time stays at the last accepted boundary (here: the start).
        assert_eq!(sim.time(), 0.0);
    }

    #[test]
    fn matches_abstracted_model_on_rc() {
        use amsvp_core::Abstraction;
        let m = parse_module(RC1).unwrap();
        let tau = 5e3 * 25e-9;
        let dt = tau / 100.0;
        let mut reference = Simulation::new(&m).dt(dt).output("V(out)").build().unwrap();
        let mut abstracted = Abstraction::new(&m).dt(dt).build().unwrap();
        // Same discretization (backward Euler at the same step) ⇒ the two
        // must agree to solver tolerance, step by step.
        for k in 0..300 {
            let u = if (k / 100) % 2 == 0 { 1.0 } else { 0.0 };
            reference.step(&[u]);
            abstracted.step(&[u]);
            assert!(
                (reference.output(0) - abstracted.output(0)).abs() < 1e-8,
                "step {k}: {} vs {}",
                reference.output(0),
                abstracted.output(0)
            );
        }
    }
}
