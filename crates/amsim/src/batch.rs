//! Lane-batched transient execution: one [`CompiledModel`] stepped over
//! `L` scenario lanes at once — the crate's one Newton engine. A scalar
//! [`Instance`] is lane 0 of a one-lane batch.
//!
//! # Layout
//!
//! Every per-lane vector is stored structure-of-arrays with the lane
//! index contiguous: slot `s` of lane `l` lives at `slots[s * lanes + l]`.
//! A compiled program then evaluates over all lanes per opcode
//! ([`Program::eval_lanes`]) and the shared-factor linear solve runs over
//! all lanes per substitution row ([`Factorization::solve_lanes_into`]),
//! so the inner loops stride adjacent memory and auto-vectorize.
//!
//! At one lane the SoA block *is* the flat scalar layout
//! `[unknowns | inputs | ddt prev | idt state | h | 1/h]`. Both kernels
//! dispatch `lanes == 1` to their scalar forms ([`Program::eval`],
//! [`Factorization::solve_into`]), Jacobian stamping works on the slots
//! in place, and the lane's solve runs straight over the residual block
//! — no gather/scatter copies — so an [`Instance`] runs no width-one lane
//! loops.
//!
//! # Masking
//!
//! Lanes converge, reject and back off independently. A lane leaves the
//! Newton iteration the moment it converges or faults; the batched
//! residual pass still *computes* every lane (arithmetic on a retired
//! lane's stale slots is harmless — IEEE ops never trap) but masked lanes
//! are never *committed*: norms, factorization policy, state updates and
//! history refresh consult the per-lane masks. The wasted lane-iterations
//! are surfaced as the `amsim.batch.masked_iterations` counter next to
//! `amsim.batch.lanes`.
//!
//! # Determinism
//!
//! A lane's trajectory is **bit-identical** to a one-lane run (an
//! [`Instance`]) of the same scenario: per lane, the batch performs the
//! same IEEE-754 operations in the same order at every width — only the
//! loop nesting over lanes changes, never the arithmetic. Debug builds
//! check every solving lane after each batched residual pass against two
//! oracles: [`Program::eval`] on the lane's gathered slots (bitwise) and
//! the tree walk behind [`Instance::residuals_tree`] (to 1e-9).

use std::sync::Arc;

use linalg::{AnyLu, FactorError, Factorization, Triplets};
use obs::{CounterTracker, Obs};

use crate::sim::stamp_jacobian;
use crate::sim::{AmsError, CompiledModel, Instance, Snapshot, SnapshotLu, StepControl};

/// Per-lane solver state: everything one run keeps besides the (shared,
/// SoA) slot/iterate storage.
pub(crate) struct Lane {
    /// Newton convergence tolerance for this lane.
    pub(crate) newton_tol: f64,
    /// Adaptive-stepping policy; `None` keeps strict fixed-`dt` stepping.
    pub(crate) step_control: Option<StepControl>,
    /// Current adaptive sub-step `h ≤ dt`; persists across nominal steps
    /// so a stiff region stays backed off until the regrow streak fires.
    pub(crate) cur_dt: f64,
    /// Consecutive first-try accepted sub-steps (drives regrowth).
    pub(crate) accept_streak: u32,
    /// Lane-owned factors, allocated lazily the first time this lane
    /// refactors away from the model's shared zero-state factorization.
    /// `None` means the lane still solves through `CompiledModel::init_lu`
    /// — the case that enables the batched shared-factor solve.
    pub(crate) lu: Option<AnyLu>,
    /// Whether the lane's current factors (owned or shared) still
    /// describe a usable linearization. Survives across iterations *and*
    /// accepted steps (modified Newton).
    lu_valid: bool,
    /// Simulated time of the last accepted sub-step.
    pub(crate) time: f64,
    /// Nominal steps completed.
    steps: u64,
    /// Newton iterations spent by this lane.
    newton_iters: u64,
    /// Terminal fault, if the lane has been retired by one.
    pub(crate) error: Option<AmsError>,
    /// Whether the lane still participates in stepping.
    pub(crate) active: bool,

    // ---- driver scratch of the current nominal step ----
    /// Sub-step of the current attempt.
    h: f64,
    /// Part of the nominal interval not yet covered.
    remaining: f64,
    /// Consecutive rejections within this nominal step.
    rejects: u32,
    /// Lane time at the start of the nominal step.
    t_start: f64,
    /// Whether the lane still has to close this nominal step.
    stepping: bool,
    /// Whether the lane takes part in the current Newton iteration.
    solving: bool,
    /// Whether the current solve converged.
    converged: bool,
    /// Error of the current solve attempt, if it failed.
    fault: Option<AmsError>,
    /// Best residual infinity-norm of the current solve.
    best: f64,
    /// Previous update norm (stall test).
    prev_rel: f64,
    /// Iterations the current factors have served without converging.
    stale: u32,
    /// Whether this iteration refactored.
    fresh: bool,
}

impl Lane {
    /// Marks the lane failed for this sub-step attempt (the driver decides
    /// whether to back off or retire).
    fn fail(&mut self, e: AmsError) {
        self.fault = Some(e);
        self.solving = false;
    }

    /// Retires the lane with a terminal fault.
    fn retire_with(&mut self, e: AmsError) {
        self.error = Some(e);
        self.active = false;
        self.stepping = false;
    }

    /// A non-finite residual, update or Jacobian entry in `iteration` of
    /// the current solve.
    fn non_finite(&self, iteration: u32) -> AmsError {
        AmsError::NonFinite {
            time: self.time,
            iteration,
            residual_norm: self.best,
        }
    }
}

/// A batch of `L` independent runs of one [`CompiledModel`], stepped
/// together through lane-batched bytecode and linear algebra.
///
/// Obtain one via [`CompiledModel::batch_instance`] /
/// [`CompiledModel::batch_instance_builder`]. Inputs and outputs are
/// addressed `(index, lane)`; [`BatchInstance::try_step`] advances every
/// active lane by one nominal step. A faulted lane is retired to a typed
/// [`AmsError`] ([`BatchInstance::lane_error`]) without disturbing its
/// siblings; the `batch` module's source docs cover layout, masking and
/// the bit-determinism contract.
///
/// The Newton loop is allocation-free: every buffer it touches is
/// preallocated here, and each lane's LU factorization is *reused* across
/// iterations and accepted steps (modified Newton), refreshed only when
/// the iteration stalls.
pub struct BatchInstance {
    pub(crate) model: Arc<CompiledModel>,
    lanes: usize,
    /// SoA evaluation state, `[slot][lane]`:
    /// `[unknowns | inputs | ddt prev | idt state | h | 1/h]` × lanes.
    pub(crate) slots: Vec<f64>,
    /// Last accepted solution, `[unknown][lane]`.
    pub(crate) x: Vec<f64>,
    /// Warm-start / rewind state, `[unknown][lane]`.
    x_prev: Vec<f64>,
    pub(crate) lane: Vec<Lane>,

    // ---- shared scratch ----
    /// Residuals `[equation][lane]`, negated in place into the Newton rhs.
    res: Vec<f64>,
    /// Newton updates `[unknown][lane]`.
    delta: Vec<f64>,
    /// Batched VM operand stack (`[depth][lane]`).
    stack: Vec<f64>,
    /// Scalar VM stack for Jacobian stamping and the debug oracles.
    pub(crate) scalar_stack: Vec<f64>,
    /// One lane's slots gathered contiguously (Jacobian stamping, oracles).
    gather: Vec<f64>,
    /// Per-lane scalar solve rhs / solution (mixed-factor fallback path).
    lane_rhs: Vec<f64>,
    lane_delta: Vec<f64>,
    /// Row accumulator for the batched shared-factor solve (`lanes` wide).
    acc: Vec<f64>,
    /// Batched program output (`lanes` wide) for history refresh.
    lane_out: Vec<f64>,
    /// Jacobian triplet stamps, re-pushed per lane refactor in the fixed
    /// coordinate order the sparse backend's frozen pattern relies on.
    jt: Triplets,

    // ---- aggregate counters (sum over lanes; never rewound) ----
    pub(crate) steps: u64,
    pub(crate) newton_iters: u64,
    pub(crate) jacobian_builds: u64,
    pub(crate) lu_factorizations: u64,
    pub(crate) jacobian_reuse_hits: u64,
    pub(crate) jacobian_refactors: u64,
    pub(crate) steps_rejected: u64,
    pub(crate) step_retries: u64,
    pub(crate) dt_shrinks: u64,
    pub(crate) dt_grows: u64,
    /// Lane-iterations computed but masked out (lane already converged,
    /// faulted or retired while siblings kept iterating).
    masked_iters: u64,
    pub(crate) snapshots_taken: u64,
    pub(crate) snapshots_restored: u64,

    pub(crate) obs: Obs,
    obs_steps: CounterTracker,
    obs_newton: CounterTracker,
    obs_jacobian: CounterTracker,
    obs_factorizations: CounterTracker,
    obs_reuse_hits: CounterTracker,
    obs_refactors: CounterTracker,
    obs_rejected: CounterTracker,
    obs_retries: CounterTracker,
    obs_shrinks: CounterTracker,
    obs_grows: CounterTracker,
    obs_lanes: CounterTracker,
    obs_masked: CounterTracker,
    obs_sparse_analyze: CounterTracker,
    obs_sparse_refactor: CounterTracker,
    obs_sparse_fill: CounterTracker,
    obs_snap_taken: CounterTracker,
    obs_snap_restored: CounterTracker,
}

/// Builder for a [`BatchInstance`] with per-lane settings — the batched
/// analogue of [`InstanceBuilder`](crate::InstanceBuilder).
#[must_use = "call build() to construct the batch instance"]
pub struct BatchInstanceBuilder {
    model: Arc<CompiledModel>,
    obs: Obs,
    newton_tols: Vec<f64>,
    step_controls: Vec<Option<StepControl>>,
}

impl BatchInstanceBuilder {
    /// Attaches an instrumentation collector; the batch reports the same
    /// `amsim.*` counter families as an [`Instance`] (aggregated over
    /// lanes) plus `amsim.batch.lanes` and
    /// `amsim.batch.masked_iterations`.
    pub fn collector(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the Newton convergence tolerance for every lane.
    pub fn newton_tol(mut self, tol: f64) -> Self {
        self.newton_tols.fill(tol);
        self
    }

    /// Overrides the Newton convergence tolerance for one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_newton_tol(mut self, lane: usize, tol: f64) -> Self {
        self.newton_tols[lane] = tol;
        self
    }

    /// Overrides the adaptive-stepping policy for every lane — pass a
    /// [`StepControl`] to enable retry/backoff, or `None` to force
    /// fixed-`dt` stepping even when the model carries a default.
    pub fn step_control(mut self, sc: impl Into<Option<StepControl>>) -> Self {
        self.step_controls.fill(sc.into());
        self
    }

    /// Overrides the adaptive-stepping policy for one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_step_control(mut self, lane: usize, sc: impl Into<Option<StepControl>>) -> Self {
        self.step_controls[lane] = sc.into();
        self
    }

    /// Creates the batch instance.
    ///
    /// # Errors
    ///
    /// * [`AmsError::InvalidTolerance`] when any lane's tolerance is not
    ///   positive and finite;
    /// * [`AmsError::InvalidStepControl`] when any lane's step-control
    ///   override is inconsistent with the model's nominal step.
    pub fn build(self) -> Result<BatchInstance, AmsError> {
        for &tol in &self.newton_tols {
            if !(tol.is_finite() && tol > 0.0) {
                return Err(AmsError::InvalidTolerance { tol });
            }
        }
        for sc in self.step_controls.iter().flatten() {
            sc.validate(self.model.dt)?;
        }
        Ok(BatchInstance::with_model(
            self.model,
            self.obs,
            self.newton_tols,
            self.step_controls,
        ))
    }
}

impl CompiledModel {
    /// Spawns a lane-batched instance over `lanes` independent runs with
    /// the model's default tolerance and step-control policy in every
    /// lane and no collector — the cheap path for batched sweep workers.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn batch_instance(self: &Arc<Self>, lanes: usize) -> BatchInstance {
        self.batch_instance_builder(lanes)
            .build()
            .expect("model defaults validated at compile time")
    }

    /// Starts a [`BatchInstanceBuilder`] for a batch with per-lane
    /// settings.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn batch_instance_builder(self: &Arc<Self>, lanes: usize) -> BatchInstanceBuilder {
        assert!(lanes > 0, "a batch needs at least one lane");
        BatchInstanceBuilder {
            model: Arc::clone(self),
            obs: Obs::none(),
            newton_tols: vec![self.newton_tol; lanes],
            step_controls: vec![self.step_control; lanes],
        }
    }
}

impl BatchInstance {
    pub(crate) fn with_model(
        model: Arc<CompiledModel>,
        obs: Obs,
        newton_tols: Vec<f64>,
        step_controls: Vec<Option<StepControl>>,
    ) -> BatchInstance {
        let lanes = newton_tols.len();
        let n = model.unknowns.len();
        let mut slots = vec![0.0; model.slot_count * lanes];
        for l in 0..lanes {
            slots[model.dt_slot * lanes + l] = model.dt;
            slots[(model.dt_slot + 1) * lanes + l] = 1.0 / model.dt;
        }
        let lu_valid = model.init_lu.is_some();
        let lane: Vec<Lane> = newton_tols
            .into_iter()
            .zip(step_controls)
            .map(|(newton_tol, step_control)| Lane {
                newton_tol,
                step_control,
                cur_dt: model.dt,
                accept_streak: 0,
                lu: None,
                lu_valid,
                time: 0.0,
                steps: 0,
                newton_iters: 0,
                error: None,
                active: true,
                h: 0.0,
                remaining: 0.0,
                rejects: 0,
                t_start: 0.0,
                stepping: false,
                solving: false,
                converged: false,
                fault: None,
                best: 0.0,
                prev_rel: 0.0,
                stale: 0,
                fresh: false,
            })
            .collect();
        BatchInstance {
            lanes,
            slots,
            x: vec![0.0; n * lanes],
            x_prev: vec![0.0; n * lanes],
            lane,
            res: vec![0.0; n * lanes],
            delta: vec![0.0; n * lanes],
            stack: Vec::new(),
            scalar_stack: Vec::with_capacity(model.max_stack),
            gather: vec![0.0; model.slot_count],
            lane_rhs: vec![0.0; n],
            lane_delta: vec![0.0; n],
            acc: vec![0.0; lanes],
            lane_out: vec![0.0; lanes],
            jt: Triplets::new(n, n),
            steps: 0,
            newton_iters: 0,
            jacobian_builds: 0,
            lu_factorizations: 0,
            jacobian_reuse_hits: 0,
            jacobian_refactors: 0,
            steps_rejected: 0,
            step_retries: 0,
            dt_shrinks: 0,
            dt_grows: 0,
            masked_iters: 0,
            snapshots_taken: 0,
            snapshots_restored: 0,
            obs,
            obs_steps: CounterTracker::default(),
            obs_newton: CounterTracker::default(),
            obs_jacobian: CounterTracker::default(),
            obs_factorizations: CounterTracker::default(),
            obs_reuse_hits: CounterTracker::default(),
            obs_refactors: CounterTracker::default(),
            obs_rejected: CounterTracker::default(),
            obs_retries: CounterTracker::default(),
            obs_shrinks: CounterTracker::default(),
            obs_grows: CounterTracker::default(),
            obs_lanes: CounterTracker::default(),
            obs_masked: CounterTracker::default(),
            obs_sparse_analyze: CounterTracker::default(),
            obs_sparse_refactor: CounterTracker::default(),
            obs_sparse_fill: CounterTracker::default(),
            obs_snap_taken: CounterTracker::default(),
            obs_snap_restored: CounterTracker::default(),
            model,
        }
    }

    /// Seeds a fresh `lanes`-wide batch from one checkpoint: every lane
    /// starts at the snapshot's state (slots, committed unknowns,
    /// adaptive-step controller, LU validity) and the snapshot's
    /// tolerance/step-control settings, then diverges under its own
    /// inputs — the fan-out primitive tree-structured sweeps use at fork
    /// points.
    ///
    /// Per-lane step and Newton counters
    /// ([`BatchInstance::lane_steps`] /
    /// [`BatchInstance::lane_newton_iterations`]) resume from the
    /// snapshot's watermarks, so they report **path-cumulative** totals
    /// (shared prefix + own suffix) exactly as if the lane had run flat
    /// from `t = 0`. The aggregate counters reported to `obs` start at
    /// zero: only work this batch actually performs is flushed, keeping
    /// sweep-level counter conservation exact.
    ///
    /// A snapshot still on the model's shared zero-state factors
    /// ([`Snapshot::owns_factors`] `== false`) seeds lanes that keep the
    /// batched shared-factor multi-RHS solve fast path; private factors
    /// are cloned per lane.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn fork_from(snap: &Snapshot, lanes: usize, obs: Obs) -> BatchInstance {
        assert!(lanes > 0, "a batch needs at least one lane");
        let mut batch = BatchInstance::with_model(
            Arc::clone(&snap.model),
            obs,
            vec![snap.newton_tol; lanes],
            vec![snap.step_control; lanes],
        );
        for l in 0..lanes {
            batch.restore_lane(l, snap);
        }
        batch.snapshots_restored = lanes as u64;
        batch
    }

    /// Rewinds lane `l` to a checkpoint of the same model: the snapshot's
    /// flat slot block and unknowns are scattered into the lane's SoA
    /// column (the reserved `h`/`1/h` slots ride along, so the next
    /// step's changed-`h` test sees exactly the value an uninterrupted
    /// run would have had), the controller state, settings and
    /// step/Newton watermarks are reinstated, and the lane goes back onto
    /// the shared zero-state factors or a clone of the captured private
    /// ones. Aggregate counters are untouched.
    pub(crate) fn restore_lane(&mut self, l: usize, snap: &Snapshot) {
        let lanes = self.lanes;
        for (s, &v) in snap.slots.iter().enumerate() {
            self.slots[s * lanes + l] = v;
        }
        for (i, (&x, &x_prev)) in snap.x.iter().zip(&snap.x_prev).enumerate() {
            self.x[i * lanes + l] = x;
            self.x_prev[i * lanes + l] = x_prev;
        }
        let lane = &mut self.lane[l];
        lane.newton_tol = snap.newton_tol;
        lane.step_control = snap.step_control;
        lane.cur_dt = snap.cur_dt;
        lane.accept_streak = snap.accept_streak;
        lane.time = snap.time;
        lane.steps = snap.steps;
        lane.newton_iters = snap.newton_iters;
        (lane.lu, lane.lu_valid) = match &snap.lu {
            // `lu: None` keeps the lane eligible for the batched
            // multi-RHS solve through the shared factors.
            SnapshotLu::Shared { valid } => (None, *valid && self.model.init_lu.is_some()),
            SnapshotLu::Private { lu, valid } => (Some(lu.clone()), *valid),
        };
    }

    /// Captures a checkpoint of lane `l`: the lane's column of the SoA
    /// state gathered into a flat [`Snapshot`]. Valid on retired lanes
    /// too — retirement freezes state, it does not destroy it.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn snapshot_lane(&mut self, l: usize) -> Snapshot {
        assert!(l < self.lanes, "lane out of range");
        let lanes = self.lanes;
        let n = self.model.unknowns.len();
        let slots = (0..self.model.slot_count)
            .map(|s| self.slots[s * lanes + l])
            .collect();
        let x = (0..n).map(|i| self.x[i * lanes + l]).collect();
        let x_prev = (0..n).map(|i| self.x_prev[i * lanes + l]).collect();
        let lane = &self.lane[l];
        let lu = match &lane.lu {
            None => SnapshotLu::Shared {
                valid: lane.lu_valid,
            },
            // The clone's stats are reset: this run already reported
            // that factorization work.
            Some(owned) => {
                let mut owned = owned.clone();
                owned.reset_stats();
                SnapshotLu::Private {
                    lu: owned,
                    valid: lane.lu_valid,
                }
            }
        };
        self.snapshots_taken += 1;
        Snapshot {
            model: Arc::clone(&self.model),
            slots,
            x,
            x_prev,
            newton_tol: lane.newton_tol,
            step_control: lane.step_control,
            cur_dt: lane.cur_dt,
            accept_streak: lane.accept_streak,
            time: lane.time,
            steps: lane.steps,
            newton_iters: lane.newton_iters,
            lu,
        }
    }

    /// Number of lanes in the batch (fixed at construction).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lanes still participating in stepping.
    pub fn active_lanes(&self) -> usize {
        self.lane.iter().filter(|l| l.active).count()
    }

    /// Whether lane `l` still participates in stepping.
    pub fn lane_active(&self, l: usize) -> bool {
        self.lane[l].active
    }

    /// The typed fault that retired lane `l`, if any.
    pub fn lane_error(&self, l: usize) -> Option<&AmsError> {
        self.lane[l].error.as_ref()
    }

    /// Simulated time of lane `l`'s last accepted sub-step, in seconds.
    pub fn lane_time(&self, l: usize) -> f64 {
        self.lane[l].time
    }

    /// Newton iterations spent by lane `l` (performance counter).
    pub fn lane_newton_iterations(&self, l: usize) -> u64 {
        self.lane[l].newton_iters
    }

    /// Nominal steps completed by lane `l`.
    pub fn lane_steps(&self, l: usize) -> u64 {
        self.lane[l].steps
    }

    /// Value of output `i` in lane `l` after the last accepted step.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `l` is out of range.
    pub fn output(&self, i: usize, l: usize) -> f64 {
        assert!(l < self.lanes, "lane out of range");
        self.x[self.model.output_indices[i] * self.lanes + l]
    }

    /// The shared compiled artifact this batch steps over.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// Number of unknowns in the DAE system.
    pub fn dim(&self) -> usize {
        self.model.unknowns.len()
    }

    /// Lane-iterations computed but masked out so far (see module docs).
    pub fn masked_iterations(&self) -> u64 {
        self.masked_iters
    }

    /// Retires lane `l` without an error: it stops stepping (its state
    /// and outputs freeze at the last accepted sub-step) and its slot in
    /// every batched pass becomes masked overhead. Used when scenarios in
    /// one block want different step counts. Idempotent.
    pub fn retire(&mut self, l: usize) {
        self.lane[l].active = false;
    }

    /// Builds lane `l`'s Jacobian at its current slot state and refreshes
    /// its factors in place through the [`Factorization`] seam
    /// (pattern-reusing refactor on the sparse backend). The scalar
    /// stamping routine (and its in-place numeric differencing) runs on
    /// the lane's slots gathered contiguously — or, in a one-lane batch,
    /// on the slots themselves.
    fn build_and_factor_lane(&mut self, l: usize, iteration: u32) -> Result<(), AmsError> {
        let lanes = self.lanes;
        self.jacobian_builds += 1;
        let slots = if lanes == 1 {
            &mut self.slots
        } else {
            for s in 0..self.model.slot_count {
                self.gather[s] = self.slots[s * lanes + l];
            }
            &mut self.gather
        };
        stamp_jacobian(
            &self.model.jacobian,
            &self.model.programs,
            slots,
            &mut self.scalar_stack,
            &mut self.jt,
        );
        self.lu_factorizations += 1;
        // The first refactor clones the lane's factors from the model's
        // compile-time seed, so every lane (the sparse backend's pivot
        // sequence included) starts from the same deterministic point.
        // Later refactors refresh the clone in place.
        if self.lane[l].lu.is_none() {
            let mut lu = match &self.model.init_lu {
                Some(lu) => lu.clone(),
                // Zero-state Jacobian was singular: identity seed on the
                // model's backend, so refreshes can reuse the storage.
                None => {
                    let dim = self.model.unknowns.len().max(1);
                    let mut ident = Triplets::new(dim, dim);
                    for i in 0..dim {
                        ident.push(i, i, 1.0);
                    }
                    AnyLu::analyze_with(self.model.backend, &ident)
                        .expect("identity is never singular")
                }
            };
            lu.reset_stats();
            self.lane[l].lu = Some(lu);
        }
        #[cfg(feature = "fault-inject")]
        match crate::fault::active_for(l) {
            Some(crate::fault::SolverFault::RefactorSingular) => {
                linalg::fault::arm_refactor_failure(linalg::fault::RefactorFault::Singular)
            }
            Some(crate::fault::SolverFault::RefactorNonFinite) => {
                linalg::fault::arm_refactor_failure(linalg::fault::RefactorFault::NonFinite)
            }
            _ => {}
        }
        let lane = &mut self.lane[l];
        let r = lane
            .lu
            .as_mut()
            .expect("seeded just above")
            .refactor(&self.jt);
        lane.lu_valid = r.is_ok();
        r.map_err(|e| match e {
            FactorError::NonFinite { .. } => lane.non_finite(iteration),
            _ => AmsError::Singular,
        })
    }

    /// Asserts (debug builds only) that every solving lane's batched
    /// residual is bit-identical to [`Program::eval`] at the gathered
    /// lane state — the determinism contract the sweep layers build on —
    /// and agrees with the tree-walk oracle to 1e-9.
    #[cfg(debug_assertions)]
    fn debug_check_oracles(&mut self) {
        let lanes = self.lanes;
        for l in 0..lanes {
            if !self.lane[l].solving {
                continue;
            }
            // A poisoned residual intentionally disagrees with both
            // oracles — skip the faulted lane, its siblings still hold.
            #[cfg(feature = "fault-inject")]
            if matches!(
                crate::fault::active_for(l),
                Some(crate::fault::SolverFault::ResidualNan)
            ) {
                continue;
            }
            for s in 0..self.model.slot_count {
                self.gather[s] = self.slots[s * lanes + l];
            }
            let model = &self.model;
            for (i, (prog, eq)) in model.programs.iter().zip(&model.equations).enumerate() {
                let batch = self.res[i * lanes + l];
                let scalar = prog.eval(&self.gather, &mut self.scalar_stack);
                debug_assert!(
                    scalar.to_bits() == batch.to_bits(),
                    "batched residual {i} lane {l} diverged from scalar VM: \
                     {batch:?} vs {scalar:?}"
                );
                let tree = model.eval_tree(&self.gather, eq);
                let scale = 1.0 + tree.abs().max(batch.abs());
                // A diverged iterate legitimately produces non-finite
                // residuals (the solver's guard rejects them right after
                // this check); the oracle only demands both agree on them.
                debug_assert!(
                    (tree - batch).abs() <= 1e-9 * scale
                        || (tree.is_nan() && batch.is_nan())
                        || tree == batch,
                    "VM residual {i} lane {l} diverged from tree oracle: {batch} vs {tree}"
                );
            }
        }
    }

    /// Runs the Newton iteration over every lane flagged `solving`, with
    /// per-lane masking: a lane leaves the iteration when it converges
    /// (`converged`) or faults (`fault`); siblings keep iterating.
    ///
    /// Modified Newton: a lane factors only when it has no usable
    /// linearization, otherwise it reuses its factors; a reused
    /// factorization whose update norm stops halving, or that has served
    /// [`Instance::MAX_STALE_ITERS`] iterations, is refreshed at the
    /// current iterate on the next pass. A failed lane's slots hold the
    /// diverged iterate but its history, accepted state and time are
    /// untouched, so the driver can rewind it from `x_prev`.
    fn newton_solve_lanes(&mut self) {
        let lanes = self.lanes;
        let n = self.model.unknowns.len();
        for lane in &mut self.lane {
            lane.converged = false;
            lane.fault = None;
            if lane.solving {
                lane.best = f64::INFINITY;
                lane.prev_rel = f64::INFINITY;
                lane.stale = 0;
            }
        }
        // Injected faults (`fault-inject` builds): a residual fault
        // poisons the target lane of this solve's first residual pass, a
        // refactor fault invalidates the lane's factors so the forced
        // failure fires on its first factorization.
        #[cfg(feature = "fault-inject")]
        for (l, lane) in self.lane.iter_mut().enumerate() {
            if !lane.solving {
                continue;
            }
            match crate::fault::active_for(l) {
                Some(crate::fault::SolverFault::ResidualNan) => {
                    expr::fault::poison_next_eval_lane(l)
                }
                Some(
                    crate::fault::SolverFault::RefactorSingular
                    | crate::fault::SolverFault::RefactorNonFinite,
                ) => lane.lu_valid = false,
                None => {}
            }
        }
        for iter in 1..=Instance::MAX_NEWTON_ITERS {
            let mut solving = 0;
            for lane in self.lane.iter_mut().filter(|lane| lane.solving) {
                lane.newton_iters += 1;
                solving += 1;
            }
            if solving == 0 {
                return;
            }
            self.masked_iters += (lanes - solving) as u64;
            self.newton_iters += solving as u64;

            // Batched residual pass over every lane (masked lanes are
            // computed but never committed).
            for (i, prog) in self.model.programs.iter().enumerate() {
                prog.eval_lanes(
                    &self.slots,
                    lanes,
                    &mut self.stack,
                    &mut self.res[i * lanes..(i + 1) * lanes],
                );
            }
            #[cfg(debug_assertions)]
            self.debug_check_oracles();

            // Per-lane norm fold + modified-Newton factorization policy.
            // Finiteness is tracked separately: `f64::max` ignores NaN, so
            // folding alone would let a NaN residual pass as converged.
            for l in 0..lanes {
                let lane = &mut self.lane[l];
                if !lane.solving {
                    continue;
                }
                let mut res_norm: f64 = 0.0;
                let mut finite = true;
                for i in 0..n {
                    let v = self.res[i * lanes + l];
                    finite &= v.is_finite();
                    res_norm = res_norm.max(v.abs());
                }
                if !finite {
                    lane.lu_valid = false;
                    lane.fail(lane.non_finite(iter));
                    continue;
                }
                lane.best = lane.best.min(res_norm);
                lane.fresh = !lane.lu_valid;
                if lane.fresh {
                    if let Err(e) = self.build_and_factor_lane(l, iter) {
                        self.lane[l].fail(e);
                        continue;
                    }
                    self.lane[l].stale = 0;
                } else {
                    self.jacobian_reuse_hits += 1;
                    lane.stale += 1;
                }
            }
            if !self.lane.iter().any(|lane| lane.solving) {
                continue; // every lane resolved during the fold
            }

            // Solve J·δ = −F. Negate the residual in place as the rhs
            // (masked lanes included — their values are discarded). When
            // one factorization serves every solving lane — the model's
            // shared zero-state factors, or whichever factors the only
            // lane of a one-lane batch solves through — a single
            // multi-RHS solve covers the block; otherwise each solving
            // lane is gathered, solved through its own factors and
            // scattered back.
            self.res.iter_mut().for_each(|v| *v = -*v);
            let one_lu = if lanes == 1 {
                self.lane[0].lu.as_ref().or(self.model.init_lu.as_ref())
            } else if self
                .lane
                .iter()
                .all(|lane| !lane.solving || lane.lu.is_none())
            {
                self.model.init_lu.as_ref()
            } else {
                None
            };
            match one_lu {
                Some(lu) => lu.solve_lanes_into(&self.res, &mut self.delta, lanes, &mut self.acc),
                None => {
                    for (l, lane) in self.lane.iter().enumerate() {
                        if !lane.solving {
                            continue;
                        }
                        for i in 0..n {
                            self.lane_rhs[i] = self.res[i * lanes + l];
                        }
                        lane.lu
                            .as_ref()
                            .or(self.model.init_lu.as_ref())
                            .expect("a lane without owned factors solves through init_lu")
                            .solve_into(&self.lane_rhs, &mut self.lane_delta);
                        for i in 0..n {
                            self.delta[i * lanes + l] = self.lane_delta[i];
                        }
                    }
                }
            }

            // Per-lane update, divergence guard, convergence and stall
            // tests.
            for (l, lane) in self.lane.iter_mut().enumerate() {
                if !lane.solving {
                    continue;
                }
                let mut max_rel: f64 = 0.0;
                let mut update_finite = true;
                for i in 0..n {
                    let di = self.delta[i * lanes + l];
                    let xi = &mut self.slots[i * lanes + l];
                    *xi += di;
                    update_finite &= xi.is_finite();
                    max_rel = max_rel.max(di.abs() / (1.0 + xi.abs()));
                }
                if !update_finite {
                    lane.lu_valid = false;
                    lane.fail(lane.non_finite(iter));
                    continue;
                }
                if max_rel < lane.newton_tol {
                    lane.converged = true;
                    lane.solving = false;
                    continue;
                }
                let contracting = max_rel < 0.5 * lane.prev_rel;
                let stalled = !contracting || lane.stale >= Instance::MAX_STALE_ITERS;
                if !lane.fresh && stalled {
                    lane.lu_valid = false;
                    self.jacobian_refactors += 1;
                }
                lane.prev_rel = max_rel;
            }
        }
        // Lanes still solving exhausted the iteration budget; their stale
        // linearization is suspect.
        for lane in self.lane.iter_mut().filter(|lane| lane.solving) {
            lane.lu_valid = false;
            lane.fail(AmsError::NoConvergence {
                time: lane.time,
                iterations: Instance::MAX_NEWTON_ITERS,
                residual_norm: lane.best,
                dt: lane.h,
            });
        }
    }

    /// Commits every converged lane's iterate after a solve at its step
    /// `h`: refreshes the `ddt`/`idt` history (sequentially in `k` —
    /// later operands may reference earlier placeholders — batched over
    /// lanes), publishes the solution and advances lane time by `h`.
    ///
    /// History refresh happens **only** here: a rejected sub-step leaves
    /// the discretized operators exactly at the last accepted state, so a
    /// retry at a halved step resamples `ddt`/`idt` consistently instead
    /// of integrating a half-updated history.
    fn accept_lanes(&mut self) {
        if !self.lane.iter().any(|lane| lane.converged) {
            return;
        }
        let lanes = self.lanes;
        let model = &*self.model;
        let n = model.unknowns.len();
        for (k, prog) in model.ddt_progs.iter().enumerate() {
            prog.eval_lanes(&self.slots, lanes, &mut self.stack, &mut self.lane_out);
            let row = &mut self.slots[(model.ddt_off + k) * lanes..][..lanes];
            for ((slot, &v), lane) in row.iter_mut().zip(&self.lane_out).zip(&self.lane) {
                if lane.converged {
                    *slot = v;
                }
            }
        }
        for (k, prog) in model.idt_progs.iter().enumerate() {
            prog.eval_lanes(&self.slots, lanes, &mut self.stack, &mut self.lane_out);
            let row = &mut self.slots[(model.idt_off + k) * lanes..][..lanes];
            for ((slot, &v), lane) in row.iter_mut().zip(&self.lane_out).zip(&self.lane) {
                if lane.converged {
                    *slot += lane.h * v;
                }
            }
        }
        if self.lane.iter().all(|lane| lane.converged) {
            self.x.copy_from_slice(&self.slots[..n * lanes]);
            self.x_prev.copy_from_slice(&self.slots[..n * lanes]);
        } else {
            for i in 0..n {
                for (l, lane) in self.lane.iter().enumerate() {
                    if lane.converged {
                        let v = self.slots[i * lanes + l];
                        self.x[i * lanes + l] = v;
                        self.x_prev[i * lanes + l] = v;
                    }
                }
            }
        }
        for lane in self.lane.iter_mut().filter(|lane| lane.converged) {
            lane.time += lane.h;
        }
    }

    /// Advances every active lane by one nominal step and returns how
    /// many lanes completed it.
    ///
    /// `inputs` is a `[input][lane]` block (`input_count * lanes` values,
    /// lane index contiguous) held constant (zero-order hold) across any
    /// adaptive sub-steps. A fixed-`dt` lane runs one Newton solve at the
    /// nominal step and retires on failure. Under a [`StepControl`], a
    /// lane covers `[t, t + dt]` with sub-steps `dt / 2^k`: a failed
    /// solve retries at half the sub-step until the interval closes, the
    /// retry budget is exhausted or the backoff floor is hit, and the
    /// sub-step regrows toward nominal after a streak of clean accepts.
    /// Every lane then snaps to the exact nominal boundary
    /// `t_start + dt`. A lane that exhausts its budget (or faults without
    /// one) is retired with its typed error — inspect
    /// [`BatchInstance::lane_error`] — while siblings complete normally.
    /// Retired lanes are skipped (masked) and never contribute to the
    /// return count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != input_count * lanes`.
    pub fn try_step(&mut self, inputs: &[f64]) -> usize {
        let lanes = self.lanes;
        let n = self.model.unknowns.len();
        let n_inputs = self.model.input_names.len();
        assert_eq!(inputs.len(), n_inputs * lanes, "input lane-block arity");
        let off = self.model.input_off * lanes;
        self.slots[off..off + inputs.len()].copy_from_slice(inputs);
        let nominal = self.model.dt;
        let dt_slot = self.model.dt_slot * lanes;

        for lane in &mut self.lane {
            lane.stepping = lane.active;
            lane.remaining = nominal;
            lane.rejects = 0;
            lane.t_start = lane.time;
        }
        let mut completed = 0usize;

        loop {
            // Open the next sub-step attempt per lane: pick `h`, write the
            // step slots, rewind the iterate to the last accepted state.
            // Lanes whose interval has closed snap to the exact nominal
            // boundary. Every sub-step is `dt / 2^k`, so the remainder
            // reaches 0.0 exactly; the tolerance only guards float dust.
            let mut any = false;
            for (l, lane) in self.lane.iter_mut().enumerate() {
                if !lane.stepping {
                    continue;
                }
                if lane.remaining <= nominal * 1e-12 {
                    lane.time = lane.t_start + nominal;
                    lane.steps += 1;
                    lane.stepping = false;
                    self.steps += 1;
                    completed += 1;
                    continue;
                }
                any = true;
                let h = lane.cur_dt.min(lane.remaining);
                lane.h = h;
                // A changed step invalidates the lane's cached factors:
                // the discretized Jacobian depends on `h`.
                if self.slots[dt_slot + l] != h {
                    self.slots[dt_slot + l] = h;
                    self.slots[dt_slot + lanes + l] = 1.0 / h;
                    lane.lu_valid = false;
                }
                for i in 0..n {
                    self.slots[i * lanes + l] = self.x_prev[i * lanes + l];
                }
                lane.solving = true;
            }
            if !any {
                break;
            }

            self.newton_solve_lanes();
            self.accept_lanes();

            // Per-lane accept/reject bookkeeping.
            for lane in self.lane.iter_mut().filter(|lane| lane.stepping) {
                if lane.converged {
                    lane.remaining -= lane.h;
                    lane.rejects = 0;
                    if let Some(sc) = lane.step_control {
                        if self.obs.enabled() {
                            self.obs.time("amsim.dt", lane.h);
                        }
                        if lane.cur_dt < nominal {
                            lane.accept_streak += 1;
                            if lane.accept_streak >= sc.grow_streak {
                                lane.cur_dt = (2.0 * lane.cur_dt).min(nominal);
                                self.dt_grows += 1;
                                lane.accept_streak = 0;
                            }
                        }
                    }
                    continue;
                }
                let e = lane.fault.take().expect("attempted lane resolved");
                let Some(sc) = lane.step_control else {
                    // Fixed-dt lane: surface the failure immediately.
                    lane.retire_with(e);
                    continue;
                };
                self.steps_rejected += 1;
                lane.accept_streak = 0;
                lane.rejects += 1;
                let half = 0.5 * lane.h;
                if lane.rejects > sc.max_retries || half < sc.min_dt {
                    // Budget exhausted: retire with the last solver error.
                    // Lane state and time stay at the last accepted
                    // sub-step.
                    lane.retire_with(e);
                } else {
                    self.step_retries += 1;
                    lane.cur_dt = half;
                    self.dt_shrinks += 1;
                }
            }
        }
        completed
    }

    /// Reports counter deltas to the attached collector: the
    /// [`Instance`] `amsim.*` families aggregated over lanes, plus
    /// `amsim.batch.lanes` (lane slots provisioned by this batch) and
    /// `amsim.batch.masked_iterations`. Called automatically on drop.
    pub fn flush_counters(&mut self) {
        self.flush_solver_counters();
        if self.obs.enabled() {
            let (lanes, masked) = (self.lanes as u64, self.masked_iters);
            self.obs_lanes.flush(&self.obs, "amsim.batch.lanes", lanes);
            self.obs_masked
                .flush(&self.obs, "amsim.batch.masked_iterations", masked);
        }
    }

    /// The counter families an [`Instance`] reports: steps, Newton and
    /// Jacobian work, step control, sparse-backend work and snapshots.
    pub(crate) fn flush_solver_counters(&mut self) {
        if self.obs.enabled() {
            let (steps, newton, jacobian) = (self.steps, self.newton_iters, self.jacobian_builds);
            let (factorizations, reuse_hits, refactors) = (
                self.lu_factorizations,
                self.jacobian_reuse_hits,
                self.jacobian_refactors,
            );
            self.obs_steps.flush(&self.obs, "amsim.steps", steps);
            self.obs_newton
                .flush(&self.obs, "amsim.newton_iterations", newton);
            self.obs_jacobian
                .flush(&self.obs, "amsim.jacobian.builds", jacobian);
            self.obs_factorizations
                .flush(&self.obs, "amsim.lu.factorizations", factorizations);
            self.obs_reuse_hits
                .flush(&self.obs, "amsim.jacobian.reuse_hits", reuse_hits);
            self.obs_refactors
                .flush(&self.obs, "amsim.jacobian.refactor", refactors);
            let (rejected, retries, shrinks, grows) = (
                self.steps_rejected,
                self.step_retries,
                self.dt_shrinks,
                self.dt_grows,
            );
            self.obs_rejected
                .flush(&self.obs, "amsim.step.rejected", rejected);
            self.obs_retries
                .flush(&self.obs, "amsim.step.retries", retries);
            self.obs_shrinks
                .flush(&self.obs, "amsim.step.dt_shrink", shrinks);
            self.obs_grows.flush(&self.obs, "amsim.step.dt_grow", grows);
            // Sparse-backend work summed over lane-owned factors (all
            // zeros on the dense backend).
            let mut sparse = linalg::SparseStats::default();
            for lane in &self.lane {
                if let Some(lu) = &lane.lu {
                    let s = lu.sparse_stats();
                    sparse.analyze += s.analyze;
                    sparse.refactor += s.refactor;
                    sparse.fill += s.fill;
                }
            }
            self.obs_sparse_analyze
                .flush(&self.obs, "linalg.sparse.analyze", sparse.analyze);
            self.obs_sparse_refactor
                .flush(&self.obs, "linalg.sparse.refactor", sparse.refactor);
            self.obs_sparse_fill
                .flush(&self.obs, "linalg.sparse.fill", sparse.fill);
            let (taken, restored) = (self.snapshots_taken, self.snapshots_restored);
            self.obs_snap_taken
                .flush(&self.obs, "amsim.snapshot.taken", taken);
            self.obs_snap_restored
                .flush(&self.obs, "amsim.snapshot.restored", restored);
        }
    }
}

impl Drop for BatchInstance {
    fn drop(&mut self) {
        self.flush_counters();
    }
}

/// Owned staging buffer for [`BatchInstance::try_step`] inputs in the
/// batch's `[input][lane]` structure-of-arrays layout.
///
/// Callers that drive lanes from independent sources (one device per
/// lane, one stimulus per scenario) address samples by `(input, lane)`
/// instead of hand-rolling the `i * lanes + l` stride, and hand the
/// finished frame to `try_step` via [`InputFrame::as_slice`]. Values
/// persist across steps: a lane that is masked out keeps its last
/// written samples, which is harmless — retired lanes are never
/// committed.
#[derive(Debug, Clone)]
pub struct InputFrame {
    data: Vec<f64>,
    n_inputs: usize,
    lanes: usize,
}

impl InputFrame {
    /// A zero-filled frame for `n_inputs` model inputs over `lanes`
    /// lanes.
    pub fn new(n_inputs: usize, lanes: usize) -> InputFrame {
        InputFrame {
            data: vec![0.0; n_inputs * lanes],
            n_inputs,
            lanes,
        }
    }

    /// Number of lanes the frame spans.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of model inputs per lane.
    pub fn inputs(&self) -> usize {
        self.n_inputs
    }

    /// Writes input `i` of lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `l` is out of range.
    pub fn set(&mut self, i: usize, l: usize, v: f64) {
        assert!(i < self.n_inputs, "input out of range");
        assert!(l < self.lanes, "lane out of range");
        self.data[i * self.lanes + l] = v;
    }

    /// Drives every input of lane `l` with the same sample — the common
    /// case of a single stimulus broadcast to all of a device's inputs.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn broadcast(&mut self, l: usize, v: f64) {
        assert!(l < self.lanes, "lane out of range");
        for i in 0..self.n_inputs {
            self.data[i * self.lanes + l] = v;
        }
    }

    /// The frame in [`BatchInstance::try_step`]'s expected layout.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl BatchInstance {
    /// A zero-filled [`InputFrame`] shaped for this batch (the model's
    /// input count × the batch's lane count).
    pub fn input_frame(&self) -> InputFrame {
        InputFrame::new(self.model.input_names().len(), self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use vams_parser::parse_module;

    #[test]
    fn input_frame_addresses_the_soa_layout() {
        let mut frame = InputFrame::new(2, 3);
        assert_eq!(frame.inputs(), 2);
        assert_eq!(frame.lanes(), 3);
        frame.set(0, 1, 0.25);
        frame.set(1, 2, 0.5);
        assert_eq!(frame.as_slice(), &[0.0, 0.25, 0.0, 0.0, 0.0, 0.5]);
        frame.broadcast(0, 1.0);
        assert_eq!(frame.as_slice(), &[1.0, 0.25, 0.0, 1.0, 0.0, 0.5]);
    }

    const RC1: &str = "module rc(in, out);
        input in; output out;
        electrical in, out, gnd;
        ground gnd;
        branch (in, out) res;
        branch (out, gnd) cap;
        analog begin
          V(res) <+ 5k * I(res);
          I(cap) <+ 25n * ddt(V(cap));
        end
      endmodule";

    /// Stiff diode clamp: small sub-steps stiffen the cap conductance, so
    /// hard input swings reject at the nominal step and need backoff.
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

    /// Per-lane step amplitudes exercising distinct trajectories.
    fn amps(lanes: usize) -> Vec<f64> {
        (0..lanes).map(|l| 0.25 + 0.5 * l as f64).collect()
    }

    #[test]
    fn batch_matches_scalar_bitwise_on_linear_circuit() {
        let m = parse_module(RC1).unwrap();
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let lanes = 4;
        let amps = amps(lanes);
        let mut batch = model.batch_instance(lanes);
        let mut scalars: Vec<Instance> = (0..lanes).map(|_| model.instance()).collect();
        let mut inputs = vec![0.0; lanes];
        for k in 0..100 {
            for (l, a) in amps.iter().enumerate() {
                inputs[l] = if (k / 20) % 2 == 0 { *a } else { 0.0 };
            }
            let done = batch.try_step(&inputs);
            assert_eq!(done, lanes);
            for (l, s) in scalars.iter_mut().enumerate() {
                s.try_step(&inputs[l..=l]).unwrap();
                assert_eq!(
                    batch.output(0, l).to_bits(),
                    s.output(0).to_bits(),
                    "lane {l} step {k}"
                );
                assert_eq!(batch.lane_time(l).to_bits(), s.time().to_bits());
            }
        }
        for (l, s) in scalars.iter().enumerate() {
            assert_eq!(batch.lane_newton_iterations(l), s.newton_iterations());
            assert_eq!(batch.lane_steps(l), 100);
        }
        // A linear model keeps every lane on the shared zero-state
        // factors: no per-lane factorization ever happens.
        assert_eq!(batch.lu_factorizations, 0);
    }

    #[test]
    fn batch_matches_scalar_bitwise_under_adaptive_backoff() {
        let m = parse_module(STIFF_CLAMP).unwrap();
        let sc = StepControl::new(1e-12);
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .step_control(sc)
            .compile()
            .unwrap();
        let lanes = 3;
        // Lane amplitudes chosen so backoff activity differs per lane.
        let amps = [0.2, 1.0, 2.5];
        let mut batch = model.batch_instance(lanes);
        let mut scalars: Vec<Instance> = (0..lanes).map(|_| model.instance()).collect();
        let mut inputs = vec![0.0; lanes];
        for k in 0..40 {
            for (l, a) in amps.iter().enumerate() {
                inputs[l] = if (k / 10) % 2 == 0 { *a } else { 0.0 };
            }
            let done = batch.try_step(&inputs);
            assert_eq!(done, lanes, "step {k}");
            for (l, s) in scalars.iter_mut().enumerate() {
                s.try_step(&inputs[l..=l]).unwrap();
                assert_eq!(
                    batch.output(0, l).to_bits(),
                    s.output(0).to_bits(),
                    "lane {l} step {k}"
                );
                assert_eq!(batch.lane_time(l).to_bits(), s.time().to_bits());
            }
        }
        let scalar_iters: u64 = scalars.iter().map(Instance::newton_iterations).sum();
        assert_eq!(batch.newton_iters, scalar_iters);
        let scalar_rejected: u64 = scalars.iter().map(Instance::steps_rejected).sum();
        assert_eq!(batch.steps_rejected, scalar_rejected);
        assert!(batch.steps_rejected > 0, "want backoff activity");
        assert!(
            batch.masked_iterations() > 0,
            "lanes with different convergence depths must mask"
        );
    }

    #[test]
    fn faulted_lane_retires_without_disturbing_siblings() {
        let m = parse_module(STIFF_CLAMP).unwrap();
        // Fixed-dt stepping: the stiff lane has no backoff to rescue it.
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let lanes = 4;
        let bad = 2usize;
        let mut inputs = vec![0.0; lanes];
        let drive = |l: usize, k: usize| -> f64 {
            if l == bad {
                if k >= 5 {
                    80.0
                } else {
                    0.05
                }
            } else {
                0.02 + 0.03 * l as f64
            }
        };
        let mut batch = model.batch_instance(lanes);
        let mut scalars: Vec<Instance> = (0..lanes).map(|_| model.instance()).collect();
        let mut scalar_err = None;
        for k in 0..20 {
            for (l, slot) in inputs.iter_mut().enumerate() {
                *slot = drive(l, k);
            }
            batch.try_step(&inputs);
            for (l, s) in scalars.iter_mut().enumerate() {
                if l == bad {
                    if scalar_err.is_none() {
                        scalar_err = s.try_step(&inputs[l..=l]).err();
                    }
                    continue;
                }
                s.try_step(&inputs[l..=l]).unwrap();
                assert_eq!(
                    batch.output(0, l).to_bits(),
                    s.output(0).to_bits(),
                    "sibling lane {l} step {k}"
                );
            }
        }
        let scalar_err = scalar_err.expect("the stiff scenario must fail the scalar run too");
        assert!(!batch.lane_active(bad), "faulted lane must retire");
        assert_eq!(batch.active_lanes(), lanes - 1);
        assert_eq!(
            batch.lane_error(bad),
            Some(&scalar_err),
            "typed fault must match the scalar run's error"
        );
        // The faulted lane froze at its last accepted state and time.
        assert_eq!(batch.lane_steps(bad), 5);
        assert!(batch.masked_iterations() > 0);
    }

    #[test]
    fn batch_counters_report_through_obs() {
        let m = parse_module(RC1).unwrap();
        let obs = Obs::recording();
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let mut batch = model
            .batch_instance_builder(5)
            .collector(obs.clone())
            .build()
            .unwrap();
        batch.retire(4); // one masked lane from the start
        for _ in 0..10 {
            batch.try_step(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        }
        drop(batch);
        let report = obs.report().expect("recording collector has a report");
        assert_eq!(report.counter("amsim.batch.lanes"), 5);
        assert_eq!(report.counter("amsim.steps"), 4 * 10);
        assert!(report.counter("amsim.batch.masked_iterations") > 0);
        assert!(report.counter("amsim.newton_iterations") > 0);
    }

    #[test]
    fn per_lane_settings_validate() {
        let m = parse_module(RC1).unwrap();
        let model = Simulation::new(&m)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        assert!(matches!(
            model
                .batch_instance_builder(2)
                .lane_newton_tol(1, -1.0)
                .build(),
            Err(AmsError::InvalidTolerance { .. })
        ));
        assert!(matches!(
            model
                .batch_instance_builder(2)
                .lane_step_control(0, StepControl::new(1.0))
                .build(),
            Err(AmsError::InvalidStepControl { .. })
        ));
        // Per-lane tolerances actually take effect: a loose lane stops
        // iterating earlier than a tight one.
        let mut batch = model
            .batch_instance_builder(2)
            .lane_newton_tol(0, 1e-2)
            .lane_newton_tol(1, 1e-14)
            .build()
            .unwrap();
        for _ in 0..5 {
            batch.try_step(&[1.0, 1.0]);
        }
        assert!(batch.lane_newton_iterations(0) < batch.lane_newton_iterations(1));
    }
}
