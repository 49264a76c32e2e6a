use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use linalg::{
    AnyLu, FactorError, Factorization, LuFactors, Matrix, SolverKind, SparseStats, Triplets,
};
use obs::{CounterTracker, Obs};

use crate::network::{Component, ElnNetwork, NodeId, SourceId, SwitchId};
use crate::ComponentId;

/// Discretization method for the fixed-step transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// First-order implicit Euler — matches the abstraction pipeline.
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule — more accurate for smooth signals.
    Trapezoidal,
}

/// Errors from solver construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ElnError {
    /// The MNA matrix is singular (floating node, source loop, ...).
    Singular(linalg::SingularMatrixError),
    /// The stamped MNA matrix held a NaN/Inf entry when factoring.
    NonFinitePivot {
        /// Matrix row of the offending entry.
        row: usize,
        /// Matrix column of the offending entry.
        col: usize,
    },
    /// A transient solve produced a non-finite unknown.
    NonFiniteSolution {
        /// Simulation time at which the solve was attempted.
        time: f64,
        /// Index of the first non-finite unknown.
        index: usize,
    },
    /// The time step must be positive and finite.
    InvalidTimeStep(f64),
    /// The network has no nodes.
    Empty,
}

impl fmt::Display for ElnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElnError::Singular(e) => write!(f, "MNA system is singular: {e}"),
            ElnError::NonFinitePivot { row, col } => {
                write!(f, "MNA matrix holds a non-finite entry at ({row}, {col})")
            }
            ElnError::NonFiniteSolution { time, index } => {
                write!(
                    f,
                    "solve at t = {time} produced a non-finite unknown {index}"
                )
            }
            ElnError::InvalidTimeStep(dt) => {
                write!(f, "invalid time step {dt}; must be positive and finite")
            }
            ElnError::Empty => write!(f, "network has no nodes"),
        }
    }
}

impl Error for ElnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ElnError::Singular(e) => Some(e),
            _ => None,
        }
    }
}

impl From<linalg::SingularMatrixError> for ElnError {
    fn from(e: linalg::SingularMatrixError) -> Self {
        ElnError::Singular(e)
    }
}

impl From<linalg::FactorError> for ElnError {
    fn from(e: linalg::FactorError) -> Self {
        match e {
            linalg::FactorError::Singular(s) => ElnError::Singular(s),
            linalg::FactorError::NonFinite { row, col } => ElnError::NonFinitePivot { row, col },
            linalg::FactorError::NotSquare { .. } => {
                unreachable!("MNA matrices are square by construction")
            }
        }
    }
}

/// Immutable compiled artifact of one [`ElnNetwork`]: the stamped MNA
/// matrices discretized at a fixed step/method, LU-factored at the
/// network's initial switch state.
///
/// A `CompiledNet` is plain data (`Send + Sync`) shared between any number
/// of per-run [`ElnSolver`] instances via [`Arc`]; assembly and the
/// factorization are paid once per sweep instead of once per run. Build
/// one with [`Transient::compile`], then spawn runs with
/// [`CompiledNet::instance`] / [`CompiledNet::instance_with`].
#[derive(Debug)]
pub struct CompiledNet {
    dt: f64,
    method: Method,
    /// Number of node-voltage unknowns.
    n_nodes: usize,
    /// Total MNA dimension (nodes + branch-current rows).
    dim: usize,
    /// Branch-current unknowns: component index → row offset.
    branch_of: Vec<Option<usize>>,
    /// Factors of `G + C/dt` (or the trapezoidal companion) at the
    /// initial switch state, on the backend resolved at compile time from
    /// the system's measured fill or forced via [`Transient::solver`].
    lu: AnyLu,
    g: Matrix,
    c_over_dt: Matrix,
    /// Source component indices with their row info, for rhs builds.
    sources: Vec<ComponentId>,
    components: Vec<Component>,
    /// Switch component ids and their compile-time state.
    switches: Vec<ComponentId>,
    initial_switch_closed: Vec<bool>,
}

/// Per-instance copy of the system matrices, materialized the first time a
/// run diverges from the compiled switch state (copy-on-toggle). Runs that
/// never toggle a switch solve against the shared compiled factors and
/// allocate no matrix storage of their own.
#[derive(Debug, Clone)]
struct OwnedSystem {
    lu: AnyLu,
    g: Matrix,
    c_over_dt: Matrix,
}

/// Cheap checkpoint of one [`ElnSolver`] run: solution history, source
/// values, switch states and (when the run has toggled away from the
/// compiled topology) a clone of the copy-on-toggle factors. Restoring
/// resumes stepping **bit-identically** with a run that never stopped.
///
/// Take one with [`ElnSolver::snapshot`], resume with
/// [`ElnSolver::restore`]. Snapshots are `Clone + Send + Sync` and tied
/// to their originating [`CompiledNet`].
#[derive(Debug, Clone)]
pub struct ElnSnapshot {
    net: Arc<CompiledNet>,
    x: Vec<f64>,
    x_prev: Vec<f64>,
    source_values: Vec<f64>,
    prev_source_values: Vec<f64>,
    switch_closed: Vec<bool>,
    owned: Option<Box<OwnedSystem>>,
    time: f64,
    steps: u64,
}

impl ElnSnapshot {
    /// Simulated time at the checkpoint, in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps the captured run had completed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The compiled network this checkpoint belongs to.
    pub fn compiled(&self) -> &Arc<CompiledNet> {
        &self.net
    }

    /// Whether the checkpoint carries copy-on-toggle factors (the run
    /// had left the compiled switch state).
    pub fn owns_factors(&self) -> bool {
        self.owned.is_some()
    }
}

/// Fixed-timestep MNA transient solver for an [`ElnNetwork`]: the mutable
/// per-run half of a [`CompiledNet`].
///
/// The system matrix is factored once at compile time; each
/// [`ElnSolver::try_step`] performs a right-hand-side build plus one LU solve,
/// mirroring the cost profile of the SystemC-AMS ELN solver for linear,
/// fixed-step networks.
#[derive(Debug)]
pub struct ElnSolver {
    net: Arc<CompiledNet>,
    /// Copy-on-toggle matrices; `None` while this run is still at the
    /// compiled switch state.
    owned: Option<Box<OwnedSystem>>,
    /// Current solution vector.
    x: Vec<f64>,
    x_prev: Vec<f64>,
    /// Per-source value (set by [`ElnSolver::set_source`]).
    source_values: Vec<f64>,
    prev_source_values: Vec<f64>,
    switch_closed: Vec<bool>,
    rhs: Vec<f64>,
    /// Scratch for the `(C/dt)·x_prev` history product.
    hist: Vec<f64>,
    /// Scratch for the trapezoidal `G·x_prev` history product.
    gh: Vec<f64>,
    time: f64,
    steps: u64,
    refactorizations: u64,
    obs: Obs,
    obs_steps: CounterTracker,
    obs_refactorizations: CounterTracker,
    obs_sparse_analyze: CounterTracker,
    obs_sparse_refactor: CounterTracker,
    obs_sparse_fill: CounterTracker,
}

/// Builder for an [`ElnSolver`] fixed-step transient analysis.
///
/// Mirrors the workspace builder idiom (`new(...)` → chained setters →
/// `build()`):
///
/// ```
/// use amsvp_eln::{ElnNetwork, Method, Transient};
///
/// let mut net = ElnNetwork::new();
/// let a = net.node("a");
/// let vin = net.vsource("vin", a, ElnNetwork::GROUND);
/// net.resistor("r", a, ElnNetwork::GROUND, 1e3);
///
/// let mut solver = Transient::new(&net)
///     .dt(1e-6)
///     .method(Method::BackwardEuler)
///     .build()?;
/// solver.set_source(vin, 1.0);
/// solver.try_step()?;
/// # Ok::<(), amsvp_eln::ElnError>(())
/// ```
#[must_use = "call build() to construct the solver"]
#[derive(Debug)]
pub struct Transient<'n> {
    net: &'n ElnNetwork,
    dt: f64,
    method: Method,
    solver: SolverKind,
    obs: Obs,
}

impl<'n> Transient<'n> {
    /// Starts a transient analysis over `net` with a 1 µs step and
    /// backward Euler; override with the chained setters.
    pub fn new(net: &'n ElnNetwork) -> Self {
        Transient {
            net,
            dt: 1e-6,
            method: Method::default(),
            solver: SolverKind::Auto,
            obs: Obs::none(),
        }
    }

    /// Selects the linear-solver backend of the compiled network. The
    /// default, [`SolverKind::Auto`], resolves at compile time from the
    /// MNA system's sparse analysis, kept when its L+U fill beats the
    /// dense n²; [`SolverKind::Dense`] / [`SolverKind::Sparse`] force a
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

    /// Sets the discretization method.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Attaches an instrumentation collector; the solver reports
    /// `eln.steps`, `eln.refactorizations` and `eln.factor` through it.
    pub fn collector(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Assembles and factors the MNA system for a single run.
    ///
    /// Equivalent to [`Transient::compile`] followed by
    /// [`CompiledNet::instance_with`].
    ///
    /// # Errors
    ///
    /// * [`ElnError::InvalidTimeStep`] for a bad `dt`;
    /// * [`ElnError::Empty`] for a node-less network;
    /// * [`ElnError::Singular`] when the topology is ill-posed.
    pub fn build(self) -> Result<ElnSolver, ElnError> {
        let obs = self.obs.clone();
        Ok(self.compile()?.instance_with(obs))
    }

    /// Assembles and factors the MNA system into an immutable,
    /// thread-shareable [`CompiledNet`] without creating any run state.
    /// The one-off factorization cost is reported to the attached
    /// collector as the `eln.factor` timer.
    ///
    /// # Errors
    ///
    /// As for [`Transient::build`].
    pub fn compile(self) -> Result<Arc<CompiledNet>, ElnError> {
        Ok(Arc::new(compile_net(
            self.net,
            self.dt,
            self.method,
            self.solver,
            &self.obs,
        )?))
    }
}

/// Converts the structural nonzeros of a dense system matrix into
/// triplet stamps for the sparse backend (exact zeros are structurally
/// absent — a switch that opens removes its conductance from the
/// pattern, which the sparse refactor detects and re-analyzes).
fn dense_to_triplets(a: &Matrix) -> Triplets {
    let mut t = Triplets::new(a.rows(), a.cols());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let v = a[(i, j)];
            if v != 0.0 {
                t.push(i, j, v);
            }
        }
    }
    t
}

/// Refreshes `lu` from a dense system matrix. The dense backend factors
/// the matrix directly — bit-identical to the historical `factor_into`
/// path — while the sparse backend goes through triplet stamps and its
/// pattern-reusing refactor.
fn refactor_from_dense(lu: &mut AnyLu, a: &Matrix) -> Result<(), FactorError> {
    match lu {
        AnyLu::Dense(f) => f.factor_into(a),
        AnyLu::Sparse(_) => lu.refactor(&dense_to_triplets(a)),
    }
}

/// Assembles, discretizes and factors `net` into a [`CompiledNet`].
fn compile_net(
    net: &ElnNetwork,
    dt: f64,
    method: Method,
    solver: SolverKind,
    obs: &Obs,
) -> Result<CompiledNet, ElnError> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(ElnError::InvalidTimeStep(dt));
    }
    let n_nodes = net.node_count();
    if n_nodes == 0 {
        return Err(ElnError::Empty);
    }
    // Assign branch-current rows to components that need them.
    let mut branch_of = vec![None; net.components.len()];
    let mut next = n_nodes;
    for (i, c) in net.components.iter().enumerate() {
        if matches!(
            c,
            Component::Vsource { .. } | Component::Vcvs { .. } | Component::Inductor { .. }
        ) {
            branch_of[i] = Some(next);
            next += 1;
        }
    }
    let dim = next;
    let initial_switch_closed: Vec<bool> = net
        .switches
        .iter()
        .map(|&c| match net.components[c.0] {
            Component::Switch {
                initially_closed, ..
            } => initially_closed,
            _ => unreachable!("switch list holds switches"),
        })
        .collect();
    let (g, c_mat) = stamp_matrices(
        &net.components,
        &branch_of,
        dim,
        &net.switches,
        &initial_switch_closed,
    );

    let c_over_dt = &c_mat * (1.0 / dt);
    let a = match method {
        Method::BackwardEuler => &g + &c_over_dt,
        Method::Trapezoidal => &g + &(&c_mat * (2.0 / dt)),
    };
    let timer = obs.enabled().then(Instant::now);
    // Resolve `Auto` once, from the fill of the system's sparse analysis;
    // the backend is part of the compiled artifact. The dense path factors
    // the dense matrix directly (bit-identical to the historical behavior).
    let lu = AnyLu::resolve(solver, &dense_to_triplets(&a), || LuFactors::factor(&a)).1?;
    if let Some(start) = timer {
        obs.time("eln.factor", start.elapsed().as_secs_f64());
    }
    if obs.enabled() {
        let stats = lu.sparse_stats();
        if stats.analyze > 0 {
            obs.add("linalg.sparse.analyze", stats.analyze);
            obs.add("linalg.sparse.fill", stats.fill);
        }
    }
    Ok(CompiledNet {
        dt,
        method,
        n_nodes,
        dim,
        branch_of,
        lu,
        g,
        c_over_dt,
        sources: net.sources.clone(),
        components: net.components.clone(),
        switches: net.switches.clone(),
        initial_switch_closed,
    })
}

impl CompiledNet {
    /// Time step the network was discretized at, in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Discretization method the network was compiled with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Number of MNA unknowns (diagnostics).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of node-voltage unknowns.
    pub fn node_unknowns(&self) -> usize {
        self.n_nodes
    }

    /// The linear-solver backend this network's instances solve through,
    /// resolved at compile time (never [`SolverKind::Auto`]).
    pub fn solver_kind(&self) -> SolverKind {
        self.lu.kind()
    }

    /// Spawns a run instance with no collector — the cheap path for
    /// sweep workers.
    pub fn instance(self: &Arc<Self>) -> ElnSolver {
        self.instance_with(Obs::none())
    }

    /// Spawns a run instance reporting `eln.steps`,
    /// `eln.refactorizations` and `eln.factor` through `obs`.
    pub fn instance_with(self: &Arc<Self>, obs: Obs) -> ElnSolver {
        let dim = self.dim;
        ElnSolver {
            owned: None,
            x: vec![0.0; dim],
            x_prev: vec![0.0; dim],
            source_values: vec![0.0; self.sources.len()],
            prev_source_values: vec![0.0; self.sources.len()],
            switch_closed: self.initial_switch_closed.clone(),
            rhs: vec![0.0; dim],
            hist: vec![0.0; dim],
            gh: vec![0.0; dim],
            time: 0.0,
            steps: 0,
            refactorizations: 0,
            obs,
            obs_steps: CounterTracker::default(),
            obs_refactorizations: CounterTracker::default(),
            obs_sparse_analyze: CounterTracker::default(),
            obs_sparse_refactor: CounterTracker::default(),
            obs_sparse_fill: CounterTracker::default(),
            net: Arc::clone(self),
        }
    }
}

impl ElnSolver {
    /// The shared compiled artifact this run steps over.
    pub fn compiled(&self) -> &Arc<CompiledNet> {
        &self.net
    }

    /// Reports counter deltas (`eln.steps`, `eln.refactorizations`) to the
    /// attached collector. Called automatically on drop; call explicitly
    /// to snapshot counters mid-run.
    pub fn flush_counters(&mut self) {
        if self.obs.enabled() {
            let (steps, refactorizations) = (self.steps, self.refactorizations);
            self.obs_steps.flush(&self.obs, "eln.steps", steps);
            self.obs_refactorizations
                .flush(&self.obs, "eln.refactorizations", refactorizations);
            // Sparse-backend work of this run's copy-on-toggle factors
            // (the shared compile-time analyze is reported by `compile`).
            let sparse = match &self.owned {
                Some(o) => o.lu.sparse_stats(),
                None => SparseStats::default(),
            };
            self.obs_sparse_analyze
                .flush(&self.obs, "linalg.sparse.analyze", sparse.analyze);
            self.obs_sparse_refactor
                .flush(&self.obs, "linalg.sparse.refactor", sparse.refactor);
            self.obs_sparse_fill
                .flush(&self.obs, "linalg.sparse.fill", sparse.fill);
        }
    }

    /// Captures a checkpoint of the current run state. Copy-on-toggle
    /// factors (when materialized) are cloned with their sparse stats
    /// reset — this run has already reported that work.
    pub fn snapshot(&self) -> ElnSnapshot {
        let owned = self.owned.as_ref().map(|o| {
            let mut o = o.clone();
            o.lu.reset_stats();
            o
        });
        ElnSnapshot {
            net: Arc::clone(&self.net),
            x: self.x.clone(),
            x_prev: self.x_prev.clone(),
            source_values: self.source_values.clone(),
            prev_source_values: self.prev_source_values.clone(),
            switch_closed: self.switch_closed.clone(),
            owned,
            time: self.time,
            steps: self.steps,
        }
    }

    /// Rewinds this run to a checkpoint taken from the **same** compiled
    /// network. Subsequent steps are bit-identical to a run that reached
    /// the checkpoint and never stopped: solution history, source values,
    /// switch states and the solve path (shared compiled factors vs. the
    /// checkpoint's copy-on-toggle clone) are all reinstated. The step
    /// counter stays monotone so an attached collector cannot
    /// double-count; [`ElnSolver::steps`] keeps counting from the
    /// high-water mark after a same-instance rewind.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a different compiled
    /// network.
    pub fn restore(&mut self, snap: &ElnSnapshot) {
        assert!(
            Arc::ptr_eq(&self.net, &snap.net),
            "ElnSolver::restore: snapshot belongs to a different compiled network"
        );
        self.x.copy_from_slice(&snap.x);
        self.x_prev.copy_from_slice(&snap.x_prev);
        self.source_values.copy_from_slice(&snap.source_values);
        self.prev_source_values
            .copy_from_slice(&snap.prev_source_values);
        self.switch_closed.copy_from_slice(&snap.switch_closed);
        self.owned = snap.owned.clone();
        self.time = snap.time;
    }

    /// Opens or closes a digitally controlled switch. A state change
    /// re-stamps and re-factors the system matrix (the cost SystemC-AMS
    /// pays for `sca_de_rswitch` toggles too); steady states cost nothing.
    ///
    /// # Errors
    ///
    /// [`ElnError::Singular`] if the new topology is ill-posed.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn set_switch(&mut self, sw: SwitchId, closed: bool) -> Result<(), ElnError> {
        if self.switch_closed[sw.0] == closed {
            return Ok(());
        }
        self.switch_closed[sw.0] = closed;
        let dim = self.x.len();
        let (g, c_mat) = stamp_matrices(
            &self.net.components,
            &self.net.branch_of,
            dim,
            &self.net.switches,
            &self.switch_closed,
        );
        let dt = self.net.dt;
        let a = match self.net.method {
            Method::BackwardEuler => &g + &(&c_mat * (1.0 / dt)),
            Method::Trapezoidal => &g + &(&c_mat * (2.0 / dt)),
        };
        let timer = self.obs.enabled().then(Instant::now);
        // Copy-on-toggle: materialize per-run matrices the first time this
        // run leaves the compiled switch state; siblings sharing the
        // CompiledNet are unaffected.
        let net = &self.net;
        let owned = self.owned.get_or_insert_with(|| {
            let mut lu = net.lu.clone();
            // Run-time counters must not re-report compile-time work.
            lu.reset_stats();
            Box::new(OwnedSystem {
                lu,
                g: net.g.clone(),
                c_over_dt: net.c_over_dt.clone(),
            })
        });
        if let Err(e) = refactor_from_dense(&mut owned.lu, &a) {
            // Leave the solver usable: revert the toggle and restore the
            // factors of the previous (known-good) topology.
            self.switch_closed[sw.0] = !closed;
            let (g0, c0) = stamp_matrices(
                &self.net.components,
                &self.net.branch_of,
                dim,
                &self.net.switches,
                &self.switch_closed,
            );
            let a0 = match self.net.method {
                Method::BackwardEuler => &g0 + &(&c0 * (1.0 / dt)),
                Method::Trapezoidal => &g0 + &(&c0 * (2.0 / dt)),
            };
            let owned = self.owned.as_mut().expect("materialized above");
            refactor_from_dense(&mut owned.lu, &a0).expect("previous topology factored before");
            owned.g = g0;
            owned.c_over_dt = &c0 * (1.0 / dt);
            return Err(e.into());
        }
        if let Some(start) = timer {
            self.obs.time("eln.factor", start.elapsed().as_secs_f64());
        }
        owned.g = g;
        owned.c_over_dt = &c_mat * (1.0 / dt);
        self.refactorizations += 1;
        Ok(())
    }

    /// Whether a switch is currently closed.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn switch_closed(&self, sw: SwitchId) -> bool {
        self.switch_closed[sw.0]
    }

    /// Matrix refactorizations triggered by switch toggles.
    pub fn refactorizations(&self) -> u64 {
        self.refactorizations
    }

    /// Time step in seconds.
    pub fn dt(&self) -> f64 {
        self.net.dt
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Sets the value of an independent source for the next step.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn set_source(&mut self, s: SourceId, value: f64) {
        self.source_values[s.0] = value;
    }

    /// Voltage of a node (ground reads 0).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn node_voltage(&self, n: NodeId) -> f64 {
        if n.0 < 0 {
            0.0
        } else {
            self.x[n.0 as usize]
        }
    }

    /// Branch current of a component that carries a current unknown
    /// (voltage sources, VCVS, inductors); `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn branch_current(&self, c: ComponentId) -> Option<f64> {
        self.net.branch_of[c.0].map(|row| self.x[row])
    }

    /// Advances the network by one time step, surfacing divergence as a
    /// typed error.
    ///
    /// # Errors
    ///
    /// [`ElnError::NonFiniteSolution`] when any unknown comes back
    /// NaN/Inf. The solver then stays at the last accepted state — the
    /// solution vector, source history, time and step count are all
    /// untouched — so the caller can fix the inputs and retry.
    pub fn try_step(&mut self) -> Result<(), ElnError> {
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        // Source excitation. The trapezoidal companion form is
        // (G + 2C/h)·x_k = (2C/h − G)·x_{k−1} + b_k + b_{k−1}:
        // the *sum* of excitations, uniformly for every row (the −G·x_{k−1}
        // term cancels b_{k−1} on algebraic source rows).
        let blend = self.net.method == Method::Trapezoidal;
        for (k, &cid) in self.net.sources.iter().enumerate() {
            let v = if blend {
                self.source_values[k] + self.prev_source_values[k]
            } else {
                self.source_values[k]
            };
            match self.net.components[cid.0] {
                Component::Vsource { .. } => {
                    let b = self.net.branch_of[cid.0].expect("source branch");
                    self.rhs[b] += v;
                }
                Component::Isource { p, n } => {
                    if p.0 >= 0 {
                        self.rhs[p.0 as usize] -= v;
                    }
                    if n.0 >= 0 {
                        self.rhs[n.0 as usize] += v;
                    }
                }
                _ => unreachable!("only independent sources are registered"),
            }
        }
        // Resolve the system against this run's matrices: the shared
        // compiled ones, or the copy-on-toggle set after a switch event.
        let (lu, g, c_over_dt) = match &self.owned {
            Some(o) => (&o.lu, &o.g, &o.c_over_dt),
            None => (&self.net.lu, &self.net.g, &self.net.c_over_dt),
        };
        // History terms.
        match self.net.method {
            Method::BackwardEuler => {
                // rhs += (C/dt)·x_prev
                c_over_dt.mul_vec_into(&self.x_prev, &mut self.hist);
                for (r, h) in self.rhs.iter_mut().zip(&self.hist) {
                    *r += h;
                }
            }
            Method::Trapezoidal => {
                // rhs += (2C/dt)·x_prev − G·x_prev
                c_over_dt.mul_vec_into(&self.x_prev, &mut self.hist);
                g.mul_vec_into(&self.x_prev, &mut self.gh);
                for ((r, h), gterm) in self.rhs.iter_mut().zip(&self.hist).zip(&self.gh) {
                    *r += 2.0 * h - gterm;
                }
            }
        }
        lu.solve_into(&self.rhs, &mut self.x);
        if let Some(index) = self.x.iter().position(|v| !v.is_finite()) {
            // Divergence guard: rewind the scratch solution so observers
            // keep reading the last accepted state.
            self.x.copy_from_slice(&self.x_prev);
            return Err(ElnError::NonFiniteSolution {
                time: self.time,
                index,
            });
        }
        self.x_prev.copy_from_slice(&self.x);
        self.prev_source_values.copy_from_slice(&self.source_values);
        self.time += self.net.dt;
        self.steps += 1;
        Ok(())
    }

    /// Number of MNA unknowns (diagnostics).
    pub fn dim(&self) -> usize {
        self.x.len()
    }

    /// Number of node-voltage unknowns.
    pub fn node_unknowns(&self) -> usize {
        self.net.n_nodes
    }
}

impl Drop for ElnSolver {
    fn drop(&mut self) {
        self.flush_counters();
    }
}

/// Stamps the conductance and capacitance matrices for the component set,
/// with switches contributing `1/ron` or `1/roff` per their state.
fn stamp_matrices(
    components: &[Component],
    branch_of: &[Option<usize>],
    dim: usize,
    switches: &[ComponentId],
    switch_closed: &[bool],
) -> (Matrix, Matrix) {
    let mut g = Matrix::zeros(dim, dim);
    let mut c_mat = Matrix::zeros(dim, dim);
    let idx = |n: NodeId| -> Option<usize> { (n.0 >= 0).then_some(n.0 as usize) };
    let stamp = |m: &mut Matrix, r: Option<usize>, col: Option<usize>, v: f64| {
        if let (Some(r), Some(c)) = (r, col) {
            m.stamp(r, c, v);
        }
    };
    let stamp_conductance = |g: &mut Matrix, p: NodeId, n: NodeId, gval: f64| {
        let (p, n) = (idx(p), idx(n));
        stamp(g, p, p, gval);
        stamp(g, n, n, gval);
        stamp(g, p, n, -gval);
        stamp(g, n, p, -gval);
    };

    for (i, comp) in components.iter().enumerate() {
        match *comp {
            Component::Resistor { p, n, ohms } => {
                stamp_conductance(&mut g, p, n, 1.0 / ohms);
            }
            Component::Switch {
                p, n, ron, roff, ..
            } => {
                let k = switches
                    .iter()
                    .position(|c| c.0 == i)
                    .expect("switch registered");
                let ohms = if switch_closed[k] { ron } else { roff };
                stamp_conductance(&mut g, p, n, 1.0 / ohms);
            }
            Component::Capacitor { p, n, farads } => {
                stamp_conductance(&mut c_mat, p, n, farads);
            }
            Component::Inductor { p, n, henries } => {
                let b = branch_of[i].expect("inductors get branch rows");
                let (p, n) = (idx(p), idx(n));
                // Node equations: current enters p, leaves n.
                stamp(&mut g, p, Some(b), 1.0);
                stamp(&mut g, n, Some(b), -1.0);
                // Branch equation: V(p) − V(n) − L·dI/dt = 0.
                stamp(&mut g, Some(b), p, 1.0);
                stamp(&mut g, Some(b), n, -1.0);
                c_mat.stamp(b, b, -henries);
            }
            Component::Vsource { p, n } => {
                let b = branch_of[i].expect("sources get branch rows");
                let (p, n) = (idx(p), idx(n));
                stamp(&mut g, p, Some(b), 1.0);
                stamp(&mut g, n, Some(b), -1.0);
                stamp(&mut g, Some(b), p, 1.0);
                stamp(&mut g, Some(b), n, -1.0);
                // rhs row b gets the source value at run time.
            }
            Component::Isource { .. } => {
                // Pure rhs contribution.
            }
            Component::Vcvs { p, n, cp, cn, gain } => {
                let b = branch_of[i].expect("VCVS gets a branch row");
                let (p, n) = (idx(p), idx(n));
                let (cp, cn) = (idx(cp), idx(cn));
                stamp(&mut g, p, Some(b), 1.0);
                stamp(&mut g, n, Some(b), -1.0);
                // V(p) − V(n) − gain·(V(cp) − V(cn)) = 0.
                stamp(&mut g, Some(b), p, 1.0);
                stamp(&mut g, Some(b), n, -1.0);
                stamp(&mut g, Some(b), cp, -gain);
                stamp(&mut g, Some(b), cn, gain);
            }
            Component::Vccs { p, n, cp, cn, gm } => {
                let (p, n) = (idx(p), idx(n));
                let (cp, cn) = (idx(cp), idx(cn));
                stamp(&mut g, p, cp, gm);
                stamp(&mut g, p, cn, -gm);
                stamp(&mut g, n, cp, -gm);
                stamp(&mut g, n, cn, gm);
            }
        }
    }
    (g, c_mat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> (ElnNetwork, SourceId, crate::NodeId) {
        let mut net = ElnNetwork::new();
        let a = net.node("a");
        let out = net.node("out");
        let v = net.vsource("vin", a, ElnNetwork::GROUND);
        net.resistor("r", a, out, 5e3);
        net.capacitor("c", out, ElnNetwork::GROUND, 25e-9);
        (net, v, out)
    }

    #[test]
    fn rc_step_response_backward_euler() {
        let (net, v, out) = rc();
        let tau = 5e3 * 25e-9;
        let mut s = Transient::new(&net)
            .dt(tau / 1000.0)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        s.set_source(v, 1.0);
        for _ in 0..1000 {
            s.try_step().unwrap();
        }
        let analytic = 1.0 - (-1.0_f64).exp();
        assert!((s.node_voltage(out) - analytic).abs() < 1e-3);
        assert_eq!(s.steps(), 1000);
        assert!((s.time() - tau).abs() < 1e-12);
    }

    #[test]
    fn trapezoidal_beats_backward_euler_on_sine() {
        let (net, v, out) = rc();
        let tau = 5e3 * 25e-9;
        let omega = 2.0 * std::f64::consts::PI / (20.0 * tau);
        let dt = tau / 50.0;
        let steps = 4000;
        // Analytic steady-state response of the low-pass.
        let gain = 1.0 / (1.0 + (omega * tau).powi(2)).sqrt();
        let phase = -(omega * tau).atan();

        let run = |method: Method| {
            let mut s = Transient::new(&net).dt(dt).method(method).build().unwrap();
            let mut err: f64 = 0.0;
            for k in 0..steps {
                let t = (k + 1) as f64 * dt;
                s.set_source(v, (omega * t).sin());
                s.try_step().unwrap();
                if k > steps / 2 {
                    let expect = gain * (omega * t + phase).sin();
                    err = err.max((s.node_voltage(out) - expect).abs());
                }
            }
            err
        };
        let be = run(Method::BackwardEuler);
        let tr = run(Method::Trapezoidal);
        assert!(
            tr < be / 5.0,
            "trapezoidal ({tr:.2e}) must beat backward Euler ({be:.2e})"
        );
    }

    #[test]
    fn resistive_divider_is_exact() {
        let mut net = ElnNetwork::new();
        let a = net.node("a");
        let mid = net.node("mid");
        let v = net.vsource("vin", a, ElnNetwork::GROUND);
        let rtop = net.resistor("r1", a, mid, 1e3);
        net.resistor("r2", mid, ElnNetwork::GROUND, 3e3);
        let mut s = Transient::new(&net)
            .dt(1e-6)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        s.set_source(v, 4.0);
        s.try_step().unwrap();
        assert!((s.node_voltage(mid) - 3.0).abs() < 1e-12);
        // Source current flows from + through the circuit: 1 mA.
        let i = s.branch_current(rtop);
        assert_eq!(i, None, "resistors carry no explicit branch unknown");
        assert_eq!(s.node_unknowns(), 2);
    }

    #[test]
    fn vcvs_inverting_amplifier() {
        // in —R1— inm —R2— out, out driven by VCVS −1e5·V(inm).
        let mut net = ElnNetwork::new();
        let inp = net.node("in");
        let inm = net.node("inm");
        let out = net.node("out");
        let v = net.vsource("vin", inp, ElnNetwork::GROUND);
        net.resistor("r1", inp, inm, 1e3);
        net.resistor("r2", inm, out, 4e3);
        net.vcvs("op", out, ElnNetwork::GROUND, ElnNetwork::GROUND, inm, 1e5);
        let mut s = Transient::new(&net)
            .dt(1e-6)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        s.set_source(v, 1.0);
        s.try_step().unwrap();
        assert!((s.node_voltage(out) + 4.0).abs() < 1e-3, "gain −R2/R1");
    }

    #[test]
    fn vccs_converts_voltage_to_current() {
        // gm·V(in) into a load resistor: V(out) = −gm·R·V(in).
        let mut net = ElnNetwork::new();
        let inp = net.node("in");
        let out = net.node("out");
        let v = net.vsource("vin", inp, ElnNetwork::GROUND);
        net.vccs("g", out, ElnNetwork::GROUND, inp, ElnNetwork::GROUND, 1e-3);
        net.resistor("rl", out, ElnNetwork::GROUND, 2e3);
        let mut s = Transient::new(&net)
            .dt(1e-6)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        s.set_source(v, 1.0);
        s.try_step().unwrap();
        assert!((s.node_voltage(out) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn rl_circuit_current_rises() {
        // V —R—L— gnd: i(t) = V/R (1 − e^{−tR/L}).
        let mut net = ElnNetwork::new();
        let a = net.node("a");
        let b = net.node("b");
        let v = net.vsource("vin", a, ElnNetwork::GROUND);
        net.resistor("r", a, b, 100.0);
        let l = net.inductor("l", b, ElnNetwork::GROUND, 1e-3);
        let tau = 1e-3 / 100.0;
        let mut s = Transient::new(&net)
            .dt(tau / 1000.0)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        s.set_source(v, 1.0);
        for _ in 0..1000 {
            s.try_step().unwrap();
        }
        let i = s.branch_current(l).unwrap();
        let analytic = (1.0 / 100.0) * (1.0 - (-1.0_f64).exp());
        assert!((i - analytic).abs() < 1e-5, "{i} vs {analytic}");
    }

    #[test]
    fn switch_toggles_divider_ratio() {
        // vin —switch— out —rl— gnd: closed ⇒ divider, open ⇒ out ≈ 0.
        let mut net = ElnNetwork::new();
        let a = net.node("a");
        let out = net.node("out");
        let v = net.vsource("vin", a, ElnNetwork::GROUND);
        let sw = net.switch("sw", a, out, 1e3, 1e9, true);
        net.resistor("rl", out, ElnNetwork::GROUND, 1e3);
        let mut s = Transient::new(&net)
            .dt(1e-6)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        s.set_source(v, 2.0);
        s.try_step().unwrap();
        assert!((s.node_voltage(out) - 1.0).abs() < 1e-9, "closed: half");
        assert!(s.switch_closed(sw));
        s.set_switch(sw, false).unwrap();
        s.try_step().unwrap();
        assert!(s.node_voltage(out).abs() < 1e-5, "open: pulled to ground");
        assert_eq!(s.refactorizations(), 1);
        // Toggling to the same state is free.
        s.set_switch(sw, false).unwrap();
        assert_eq!(s.refactorizations(), 1);
        s.set_switch(sw, true).unwrap();
        s.try_step().unwrap();
        assert!((s.node_voltage(out) - 1.0).abs() < 1e-9, "closed again");
        assert_eq!(s.refactorizations(), 2);
    }

    #[test]
    fn failed_switch_toggle_recovers_and_matches_untoggled_run() {
        // vin —sw(closed)— out, with `out` reachable only through the
        // switch: an ideal open (roff = ∞) leaves `out` floating, so the
        // toggle must fail — and must not poison the solver. Regression
        // for the copy-on-toggle revert path: after the failure the run
        // must stay bit-identical to a sibling that never toggled.
        let mut net = ElnNetwork::new();
        let a = net.node("a");
        let out = net.node("out");
        let v = net.vsource("vin", a, ElnNetwork::GROUND);
        let sw = net.switch("sw", a, out, 1e3, f64::INFINITY, true);
        let compiled = Transient::new(&net)
            .dt(1e-6)
            .method(Method::BackwardEuler)
            .compile()
            .unwrap();
        let mut toggled = compiled.instance();
        let mut pristine = compiled.instance();
        for k in 0..5 {
            let u = 0.25 * k as f64;
            toggled.set_source(v, u);
            pristine.set_source(v, u);
            toggled.try_step().unwrap();
            pristine.try_step().unwrap();
        }
        let err = toggled
            .set_switch(sw, false)
            .expect_err("ideal open on a floating node must be singular");
        assert!(matches!(err, ElnError::Singular(_)), "{err}");
        assert!(
            toggled.switch_closed(sw),
            "failed toggle must restore the previous switch state"
        );
        assert_eq!(
            toggled.refactorizations(),
            0,
            "a reverted toggle is not a refactorization"
        );
        for k in 0..20 {
            let u = if k % 2 == 0 { 1.5 } else { -0.5 };
            toggled.set_source(v, u);
            pristine.set_source(v, u);
            toggled.try_step().unwrap();
            pristine.try_step().unwrap();
            assert_eq!(
                toggled.node_voltage(out).to_bits(),
                pristine.node_voltage(out).to_bits(),
                "step {k}: recovered run diverged from the untoggled sibling"
            );
        }
        assert_eq!(toggled.steps(), pristine.steps());
    }

    #[test]
    fn non_finite_source_is_a_typed_error_and_state_survives() {
        let (net, v, out) = rc();
        let mut s = Transient::new(&net)
            .dt(1e-6)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        s.set_source(v, 1.0);
        for _ in 0..10 {
            s.try_step().unwrap();
        }
        let v_before = s.node_voltage(out);
        let (t_before, n_before) = (s.time(), s.steps());
        s.set_source(v, f64::NAN);
        let err = s.try_step().expect_err("NaN excitation must fail");
        assert!(matches!(err, ElnError::NonFiniteSolution { .. }), "{err}");
        // The failed solve neither advanced time nor touched the state.
        assert_eq!(s.node_voltage(out).to_bits(), v_before.to_bits());
        assert_eq!(s.time(), t_before);
        assert_eq!(s.steps(), n_before);
        // The solver recovers once the excitation is sane again.
        s.set_source(v, 1.0);
        s.try_step().expect("solver must recover after the rewind");
        assert_eq!(s.steps(), n_before + 1);
    }

    #[test]
    fn compiled_net_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledNet>();
        assert_send_sync::<Arc<CompiledNet>>();
        fn assert_send<T: Send>() {}
        assert_send::<ElnSolver>();
    }

    #[test]
    fn instances_match_monolithic_build() {
        // compile() + instance() must reproduce build() bit for bit.
        let (net, v, out) = rc();
        let mut whole = Transient::new(&net)
            .dt(1e-7)
            .method(Method::Trapezoidal)
            .build()
            .unwrap();
        let compiled = Transient::new(&net)
            .dt(1e-7)
            .method(Method::Trapezoidal)
            .compile()
            .unwrap();
        let mut inst = compiled.instance();
        for k in 0..200 {
            let u = if (k / 40) % 2 == 0 { 1.0 } else { -0.5 };
            whole.set_source(v, u);
            inst.set_source(v, u);
            whole.try_step().unwrap();
            inst.try_step().unwrap();
            assert_eq!(
                whole.node_voltage(out).to_bits(),
                inst.node_voltage(out).to_bits()
            );
        }
        assert_eq!(compiled.dim(), whole.dim());
        assert_eq!(compiled.node_unknowns(), whole.node_unknowns());
    }

    #[test]
    fn switch_toggle_is_per_instance() {
        // A toggle in one run must not leak into siblings sharing the
        // compiled net (copy-on-toggle).
        let mut net = ElnNetwork::new();
        let a = net.node("a");
        let out = net.node("out");
        let v = net.vsource("vin", a, ElnNetwork::GROUND);
        let sw = net.switch("sw", a, out, 1e3, 1e9, true);
        net.resistor("rl", out, ElnNetwork::GROUND, 1e3);
        let compiled = Transient::new(&net).dt(1e-6).compile().unwrap();
        let mut toggled = compiled.instance();
        let mut untouched = compiled.instance();
        toggled.set_source(v, 2.0);
        untouched.set_source(v, 2.0);
        toggled.set_switch(sw, false).unwrap();
        toggled.try_step().unwrap();
        untouched.try_step().unwrap();
        assert!(toggled.node_voltage(out).abs() < 1e-5, "open: pulled down");
        assert!(
            (untouched.node_voltage(out) - 1.0).abs() < 1e-9,
            "sibling still sees the closed switch"
        );
        assert_eq!(toggled.refactorizations(), 1);
        assert_eq!(untouched.refactorizations(), 0);
        // And a fresh instance still starts from the compiled state.
        let mut fresh = compiled.instance();
        fresh.set_source(v, 2.0);
        fresh.try_step().unwrap();
        assert!((fresh.node_voltage(out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn construction_errors() {
        let (net, _, _) = rc();
        assert!(matches!(
            Transient::new(&net)
                .dt(0.0)
                .method(Method::BackwardEuler)
                .build(),
            Err(ElnError::InvalidTimeStep(_))
        ));
        assert!(matches!(
            Transient::new(&ElnNetwork::new()).dt(1e-9).build(),
            Err(ElnError::Empty)
        ));
        // Floating node → singular.
        let mut bad = ElnNetwork::new();
        let a = bad.node("a");
        let b = bad.node("b");
        bad.resistor("r", a, b, 1e3); // no ground reference at all
        let err = Transient::new(&bad)
            .dt(1e-9)
            .method(Method::BackwardEuler)
            .build()
            .unwrap_err();
        assert!(matches!(err, ElnError::Singular(_)));
        assert!(err.to_string().contains("singular"));
    }
}
