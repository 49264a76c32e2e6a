//! Work-stealing parallel scenario sweeps over shared compiled models.
//!
//! The paper's experiments (Tables I–III) are *sweeps*: the same circuit
//! simulated many times under varying stimuli, time steps, and solver
//! settings. Compiling a Verilog-AMS module — parsing, conservative-law
//! extraction, discretization, bytecode generation, symbolic Jacobian —
//! costs far more than any single transient run, so repeating it per run
//! would dominate a sweep. This crate exploits the model/instance split
//! introduced in [`amsim`] and [`eln`]: one immutable, `Send + Sync`
//! compiled model ([`amsim::CompiledModel`], [`eln::CompiledNet`]) is
//! compiled **once**, wrapped in an [`Arc`], and shared by every worker;
//! each scenario then pays only for a cheap per-run instance.
//!
//! [`SweepEngine`] shards scenarios across a pool of `std::thread` workers
//! with a work-stealing index counter: worker *w* is seeded with scenario
//! *w* and then claims the next unclaimed index with an atomic
//! `fetch_add`, so fast workers drain the queue while slow scenarios
//! never stall the pool. Every scenario records into its own
//! [`obs::Obs`] collector (no contention on a shared lock in the hot
//! loop); the engine merges the per-scenario reports **in scenario index
//! order** — together with sweep-level counters and wall-time histograms
//! — so the merged [`Report`] is identical regardless of worker count or
//! scheduling.
//!
//! Every batched AMS sweep ([`run_ams_sweep_batched`],
//! [`run_ams_sweep_recovering`], [`run_ams_sweep_tree`] and the `_with`
//! variants) runs through **one lane-block driver**: a job queue of up to
//! `lane_width` sibling segments per [`amsim::BatchInstance`]. A flat
//! scenario list is the depth-1 [`ScenarioTree`], and the batched sweep
//! is the recovering sweep with the ladder off. Observers get one event
//! per run of consecutive scenarios a block resolves ([`SweepEvent`]);
//! [`run_ams_sweep`] is the per-instance reference.
//!
//! # Example
//!
//! ```
//! use amsvp_sweep::SweepEngine;
//!
//! let engine = SweepEngine::new().workers(4);
//! let scenarios: Vec<u64> = (0..32).collect();
//! let outcome = engine.run(&scenarios, |ctx, s| {
//!     ctx.obs.add("work.items", 1);
//!     s * s
//! });
//! assert_eq!(outcome.results[5], 25);
//! assert_eq!(outcome.report.counter("work.items"), 32);
//! assert_eq!(outcome.report.counter("sweep.scenarios"), 32);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use amsim::{AmsError, BatchInstance, CompiledModel, Snapshot};
use amsvp_core::circuits::Stimulus;
use eln::{CompiledNet, ElnError, NodeId, SourceId};
use obs::{Obs, Report};

mod recovery;
pub use recovery::{
    run_ams_sweep_recovering, run_ams_sweep_recovering_with, FaultKind, FaultPlan, FaultSpec,
    Recovery, RecoveryAttempt, RecoveryRung,
};

/// Per-scenario step/wall-clock budget for fault-isolated sweeps.
///
/// A runaway scenario — an adaptive run grinding at `min_dt`, an
/// accidental infinite stimulus — must not starve its siblings of a
/// worker forever. The scenario body charges its progress through
/// [`ScenarioCtx::tick`]; once either cap is exceeded the scenario is cut
/// short with a [`BudgetExceeded`] record instead of an `Ok` result.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioBudget {
    max_steps: Option<u64>,
    max_wall: Option<f64>,
}

impl ScenarioBudget {
    /// No caps: [`ScenarioCtx::tick`] never fails.
    pub fn unlimited() -> ScenarioBudget {
        ScenarioBudget::default()
    }

    /// Caps the number of steps a scenario may charge via `tick`.
    #[must_use]
    pub fn max_steps(mut self, n: u64) -> ScenarioBudget {
        self.max_steps = Some(n);
        self
    }

    /// Caps a scenario's wall-clock time in seconds (checked at each
    /// `tick`, so a scenario that never ticks is not interrupted).
    #[must_use]
    pub fn max_wall(mut self, secs: f64) -> ScenarioBudget {
        self.max_wall = Some(secs);
        self
    }

    /// The step cap, if any.
    pub fn step_cap(&self) -> Option<u64> {
        self.max_steps
    }

    /// The wall-clock cap in seconds, if any.
    pub fn wall_cap(&self) -> Option<f64> {
        self.max_wall
    }

    /// Checks already-charged progress against both caps — the stateless
    /// core of [`ScenarioCtx::tick`], exposed so batched sweep bodies can
    /// keep **per-lane** accounts against one shared budget.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when `steps` passes `max_steps` or `wall`
    /// passes `max_wall`.
    pub fn check(&self, steps: u64, wall: f64) -> Result<(), BudgetExceeded> {
        let over_steps = self.max_steps.is_some_and(|cap| steps > cap);
        let over_wall = self.max_wall.is_some_and(|cap| wall > cap);
        if over_steps || over_wall {
            return Err(BudgetExceeded {
                steps,
                wall,
                max_steps: self.max_steps,
                max_wall: self.max_wall,
            });
        }
        Ok(())
    }
}

/// A scenario exceeded its [`ScenarioBudget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetExceeded {
    /// Steps charged when the budget tripped (first value past the cap).
    pub steps: u64,
    /// Wall-clock seconds elapsed when the budget tripped.
    pub wall: f64,
    /// The step cap in force, if any.
    pub max_steps: Option<u64>,
    /// The wall-clock cap in force (seconds), if any.
    pub max_wall: Option<f64>,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario budget exceeded: {} steps / {:.3} s against caps {:?} steps / {:?} s",
            self.steps, self.wall, self.max_steps, self.max_wall
        )
    }
}

impl Error for BudgetExceeded {}

/// Why a fault-isolated scenario body stopped early.
///
/// Scenario closures under [`SweepEngine::run_isolated`] return
/// `Result<R, SweepFault<E>>`; the `From<BudgetExceeded>` impl lets
/// [`ScenarioCtx::tick`]'s error propagate with `?`.
#[derive(Debug)]
pub enum SweepFault<E> {
    /// The domain solver failed (typed error from `amsim`/`eln`/...).
    Error(E),
    /// The per-scenario budget ran out.
    Budget(BudgetExceeded),
}

impl<E> From<BudgetExceeded> for SweepFault<E> {
    fn from(b: BudgetExceeded) -> Self {
        SweepFault::Budget(b)
    }
}

/// Per-scenario verdict of a fault-isolated sweep: exactly one of these
/// lands in [`SweepOutcome::results`] for every input index — faults are
/// *recorded*, never propagated, so one bad scenario cannot discard its
/// siblings' finished waveforms.
#[derive(Debug)]
pub enum ScenarioOutcome<R, E> {
    /// The scenario completed; its result.
    Ok(R),
    /// The scenario faulted but a rung of the recovery ladder completed
    /// it ([`run_ams_sweep_recovering`]); the result is **bit-identical**
    /// to the same scenario run from `t = 0` on the rung's configuration.
    Recovered {
        /// The completed run.
        result: R,
        /// The rung that rescued the scenario.
        rung: RecoveryRung,
        /// The failures that preceded the rescue: the original fault
        /// (`rung: None`) plus one entry per failed rung.
        attempts: Vec<RecoveryAttempt>,
    },
    /// The scenario returned a typed error.
    Failed {
        /// The original typed error.
        error: E,
        /// The recovery trail, when a ladder ran and gave up: the
        /// original fault (`rung: None`) plus one entry per failed rung.
        /// Empty under the non-recovering entry points.
        attempts: Vec<RecoveryAttempt>,
    },
    /// The scenario body panicked; the stringified payload.
    Panicked(String),
    /// The scenario exceeded its [`ScenarioBudget`].
    Budget(BudgetExceeded),
}

impl<R, E> ScenarioOutcome<R, E> {
    /// Whether the scenario completed on the first attempt.
    pub fn is_ok(&self) -> bool {
        matches!(self, ScenarioOutcome::Ok(_))
    }

    /// Whether a recovery rung completed the scenario.
    pub fn is_recovered(&self) -> bool {
        matches!(self, ScenarioOutcome::Recovered { .. })
    }

    /// The result, if the scenario completed on the first attempt.
    pub fn ok(&self) -> Option<&R> {
        match self {
            ScenarioOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the outcome into the result, if the scenario completed
    /// on the first attempt.
    pub fn into_ok(self) -> Option<R> {
        match self {
            ScenarioOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// The completed result, whether first-attempt or recovered.
    pub fn result(&self) -> Option<&R> {
        match self {
            ScenarioOutcome::Ok(r) | ScenarioOutcome::Recovered { result: r, .. } => Some(r),
            _ => None,
        }
    }

    /// Convenience shorthand for constructing a non-recovering failure.
    pub(crate) fn failed(error: E) -> Self {
        ScenarioOutcome::Failed {
            error,
            attempts: Vec::new(),
        }
    }
}

/// Per-scenario context handed to the sweep closure.
///
/// `obs` is a fresh recording collector owned by this scenario alone —
/// attach it to the instances the scenario builds; the engine folds it
/// into the merged sweep report afterwards.
pub struct ScenarioCtx {
    /// Index of the scenario in the input slice.
    pub index: usize,
    /// Worker that executes this scenario (0-based).
    pub worker: usize,
    /// Recording collector private to this scenario.
    pub obs: Obs,
    limits: ScenarioBudget,
    charged: Cell<u64>,
    started: Instant,
}

impl ScenarioCtx {
    /// Charges `steps` units of work against the scenario budget and
    /// checks both caps.
    ///
    /// Call once per solver step (or batch); under
    /// [`SweepEngine::run`] the budget is unlimited and this never fails.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] once the charged steps pass `max_steps` or the
    /// scenario's wall clock passes `max_wall`.
    pub fn tick(&self, steps: u64) -> Result<(), BudgetExceeded> {
        let charged = self.charged.get() + steps;
        self.charged.set(charged);
        let wall = if self.limits.max_wall.is_some() {
            self.started.elapsed().as_secs_f64()
        } else {
            0.0
        };
        self.limits.check(charged, wall)
    }
}

/// One finished unit of sweep work, handed to the incremental result
/// observer of [`SweepEngine::run_isolated_with`],
/// [`run_ams_sweep_batched_with`] or [`run_ams_sweep_recovering_with`]
/// **before** the final merge.
///
/// Scalar sweeps deliver one scenario per event (`results.len() == 1`,
/// `first_index` = the scenario index). Batched sweeps deliver one
/// event per maximal run of consecutive leaves a lane-block resolves
/// (`first_index` = the run's first scenario index, `results` in input
/// order), with the block's report on its first event and an empty
/// report on any later one. Every flat sweep is a depth-1 forest whose
/// blocks resolve whole runs, so there that is one event per
/// lane-block. Events arrive in **completion order** —
/// scheduling-dependent by nature; a streaming consumer that needs a
/// deterministic byte stream must reorder on `first_index` (the
/// per-scenario payloads themselves are bit-identical for any worker
/// count, so index order is all it takes).
///
/// `report` is the unit's private [`Obs`] snapshot, taken **after** the
/// scenario body finished — including instance `Drop`/`flush_counters`
/// — so a faulted scenario's partial solver counters are already in it
/// when the observer fires (the same guarantee merged reports have).
pub struct SweepEvent<'a, R> {
    /// Input index of the first scenario this event covers.
    pub first_index: usize,
    /// One result per covered scenario, in input order.
    pub results: &'a [R],
    /// The unit's instrumentation snapshot (counters already flushed).
    pub report: &'a Report,
    /// Worker that executed the unit (scheduling-dependent).
    pub worker: usize,
}

/// Everything a finished sweep produces.
pub struct SweepOutcome<R> {
    /// One result per scenario, in input order.
    pub results: Vec<R>,
    /// The per-scenario instrumentation reports, in input order.
    pub scenario_reports: Vec<Report>,
    /// All scenario reports merged in index order, plus the sweep-level
    /// `sweep.*` counters and timers (see [`SweepEngine::run`]).
    pub report: Report,
    /// Wall-clock duration of the whole sweep in seconds.
    pub wall: f64,
    /// Number of workers the sweep actually used.
    pub workers: usize,
}

/// A work-stealing scenario-sweep engine over a fixed worker pool.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    workers: usize,
}

impl SweepEngine {
    /// An engine sized to the machine's available parallelism.
    pub fn new() -> SweepEngine {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SweepEngine { workers }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> SweepEngine {
        self.workers = n.max(1);
        self
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Runs `f` once per scenario across the worker pool and merges the
    /// per-scenario reports.
    ///
    /// Scheduling: worker *w* starts on scenario *w*, then repeatedly
    /// claims the lowest unclaimed index (atomic `fetch_add`) until the
    /// queue is empty — so with at least as many scenarios as workers,
    /// every worker executes at least one scenario.
    ///
    /// The merged [`SweepOutcome::report`] contains, beyond the summed
    /// scenario counters and timers:
    ///
    /// * `sweep.scenarios` — number of scenarios executed;
    /// * `sweep.workers` — pool size;
    /// * `sweep.worker.{w}.scenarios` — scenarios executed by worker *w*
    ///   (scheduling-dependent; everything else is not);
    /// * `sweep.scenario` — wall-time histogram over individual
    ///   scenarios, observed in index order;
    /// * `sweep.wall` — one observation: the whole sweep's wall time.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` once all workers have stopped.
    pub fn run<S, R, F>(&self, scenarios: &[S], f: F) -> SweepOutcome<R>
    where
        S: Sync,
        R: Send,
        F: Fn(&ScenarioCtx, &S) -> R + Sync,
    {
        self.run_with_budget(scenarios, ScenarioBudget::unlimited(), f, |_| {})
    }

    /// Runs `f` once per scenario with full fault isolation: the body is
    /// wrapped in [`std::panic::catch_unwind`] and charged against a
    /// per-scenario [`ScenarioBudget`] (via [`ScenarioCtx::tick`]), so a
    /// panicking, diverging, or runaway scenario yields a typed
    /// [`ScenarioOutcome`] in its slot instead of tearing down the pool.
    ///
    /// On top of [`SweepEngine::run`]'s counters, the merged report tallies
    /// `sweep.scenarios.{ok,failed,panicked,budget}` — all four keys are
    /// always present, so downstream dashboards see stable schemas.
    ///
    /// Surviving scenarios keep the bit-identical-for-any-worker-count
    /// guarantee: faults are per-index records merged in input order, not
    /// scheduling-dependent state.
    pub fn run_isolated<S, R, E, F>(
        &self,
        scenarios: &[S],
        budget: &ScenarioBudget,
        f: F,
    ) -> SweepOutcome<ScenarioOutcome<R, E>>
    where
        S: Sync,
        R: Send,
        E: Send,
        F: Fn(&ScenarioCtx, &S) -> Result<R, SweepFault<E>> + Sync,
    {
        self.run_isolated_with(scenarios, budget, f, |_| {})
    }

    /// [`SweepEngine::run_isolated`] with an incremental result observer:
    /// `observe` fires on the caller's thread once per finished scenario,
    /// in completion order, **before** the final merge — the seam a
    /// streaming consumer (the serve daemon) taps to emit per-scenario
    /// records without buffering the whole sweep.
    ///
    /// Each [`SweepEvent`] carries the scenario's own report snapshot,
    /// taken after the body returned (instance drops included), so a
    /// faulted scenario's partial solver counters are visible at observe
    /// time. The returned [`SweepOutcome`] is identical to
    /// [`SweepEngine::run_isolated`]'s.
    pub fn run_isolated_with<S, R, E, F, O>(
        &self,
        scenarios: &[S],
        budget: &ScenarioBudget,
        f: F,
        observe: O,
    ) -> SweepOutcome<ScenarioOutcome<R, E>>
    where
        S: Sync,
        R: Send,
        E: Send,
        F: Fn(&ScenarioCtx, &S) -> Result<R, SweepFault<E>> + Sync,
        O: FnMut(SweepEvent<'_, ScenarioOutcome<R, E>>),
    {
        let mut out = self.run_with_budget(
            scenarios,
            *budget,
            |ctx, s| match catch_unwind(AssertUnwindSafe(|| f(ctx, s))) {
                Ok(Ok(r)) => ScenarioOutcome::Ok(r),
                Ok(Err(SweepFault::Error(e))) => ScenarioOutcome::failed(e),
                Ok(Err(SweepFault::Budget(b))) => ScenarioOutcome::Budget(b),
                Err(payload) => ScenarioOutcome::Panicked(panic_message(payload)),
            },
            observe,
        );
        merge_fault_tally(&mut out.report, &out.results, false);
        out
    }

    /// Runs `f` once per **lane-block** of up to `lane_width` scenarios
    /// (threads × lanes): blocks are work-stolen across the pool exactly
    /// like scenarios under [`SweepEngine::run`], and the body returns
    /// one result per scenario in its block, in block order.
    ///
    /// The `ctx` handed to the body belongs to the whole block: its
    /// `index` is the block's **first** scenario index and its `obs`
    /// collector records for the block; the merged report attaches each
    /// block's report at that first index, so the merge order — and hence
    /// the merged [`Report`] — is independent of worker count and
    /// scheduling, same as the scalar path.
    ///
    /// Beyond [`SweepEngine::run`]'s `sweep.scenarios` / `sweep.workers` /
    /// `sweep.worker.{w}.scenarios` counters (which keep counting
    /// *scenarios*, not blocks), the merged report gains:
    ///
    /// * `sweep.batch.blocks` — number of lane-blocks executed;
    /// * `sweep.block` — wall-time histogram over blocks (replaces the
    ///   per-scenario `sweep.scenario` histogram, which a batched run
    ///   cannot observe).
    ///
    /// # Panics
    ///
    /// Panics if the body returns a result count different from its
    /// block's scenario count; propagates panics from `f` once all
    /// workers have stopped. (Fault isolation *within* a block is the
    /// body's job, as in the fleet runner's device blocks.)
    pub fn run_batched<S, R, F>(&self, scenarios: &[S], lane_width: usize, f: F) -> SweepOutcome<R>
    where
        S: Sync,
        R: Send,
        F: Fn(&ScenarioCtx, &[S]) -> Vec<R> + Sync,
    {
        let lane_width = lane_width.max(1);
        let workers = self.workers;
        let n = scenarios.len();
        let blocks: Vec<&[S]> = scenarios.chunks(lane_width).collect();
        let nb = blocks.len();
        let start = Instant::now();

        let next = AtomicUsize::new(workers.min(nb));
        let (tx, rx) = mpsc::channel::<(usize, usize, Vec<R>, Report, f64)>();

        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let mut scenario_reports = vec![Report::default(); n];
        let mut block_secs = vec![0.0_f64; nb];
        let mut per_worker = vec![0u64; workers];

        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                let blocks = &blocks;
                scope.spawn(move || {
                    let mut b = if w < nb { w } else { usize::MAX };
                    while b < nb {
                        let ctx = ScenarioCtx {
                            index: b * lane_width,
                            worker: w,
                            obs: Obs::recording(),
                            limits: ScenarioBudget::unlimited(),
                            charged: Cell::new(0),
                            started: Instant::now(),
                        };
                        let t0 = Instant::now();
                        let rs = f(&ctx, blocks[b]);
                        assert_eq!(
                            rs.len(),
                            blocks[b].len(),
                            "batched body must return one result per scenario in the block"
                        );
                        let secs = t0.elapsed().as_secs_f64();
                        let report = ctx.obs.report().unwrap_or_default();
                        if tx.send((b, w, rs, report, secs)).is_err() {
                            return;
                        }
                        b = next.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            drop(tx);
            for (b, w, rs, report, secs) in rx {
                let base = b * lane_width;
                per_worker[w] += rs.len() as u64;
                for (i, r) in rs.into_iter().enumerate() {
                    debug_assert!(
                        results[base + i].is_none(),
                        "scenario {} ran twice",
                        base + i
                    );
                    results[base + i] = Some(r);
                }
                scenario_reports[base] = report;
                block_secs[b] = secs;
            }
        });

        let wall = start.elapsed().as_secs_f64();

        // Merge in index order (block reports sit at their block's first
        // scenario index) so the merged report is bit-identical
        // regardless of which worker ran which block.
        let mut report = Report::default();
        for r in &scenario_reports {
            report.merge(r);
        }
        let sweep_obs = Obs::recording();
        sweep_obs.add("sweep.scenarios", n as u64);
        sweep_obs.add("sweep.workers", workers as u64);
        sweep_obs.add("sweep.batch.blocks", nb as u64);
        for (w, count) in per_worker.iter().enumerate() {
            sweep_obs.add(&format!("sweep.worker.{w}.scenarios"), *count);
        }
        for secs in &block_secs {
            sweep_obs.time("sweep.block", *secs);
        }
        sweep_obs.time("sweep.wall", wall);
        report.merge(&sweep_obs.report().unwrap_or_default());

        let results = results
            .into_iter()
            .map(|r| r.expect("every scenario index is covered by exactly one block"))
            .collect();
        SweepOutcome {
            results,
            scenario_reports,
            report,
            wall,
            workers,
        }
    }

    fn run_with_budget<S, R, F, O>(
        &self,
        scenarios: &[S],
        budget: ScenarioBudget,
        f: F,
        mut observe: O,
    ) -> SweepOutcome<R>
    where
        S: Sync,
        R: Send,
        F: Fn(&ScenarioCtx, &S) -> R + Sync,
        O: FnMut(SweepEvent<'_, R>),
    {
        let workers = self.workers;
        let n = scenarios.len();
        let start = Instant::now();

        // Next index to steal. Workers 0..min(workers, n) are seeded with
        // their own index, so stealing starts past the seeds.
        let next = AtomicUsize::new(workers.min(n));
        let (tx, rx) = mpsc::channel::<(usize, usize, R, Report, f64)>();

        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let mut scenario_reports = vec![Report::default(); n];
        let mut scenario_secs = vec![0.0_f64; n];
        let mut per_worker = vec![0u64; workers];

        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut idx = if w < n { w } else { usize::MAX };
                    while idx < n {
                        let ctx = ScenarioCtx {
                            index: idx,
                            worker: w,
                            obs: Obs::recording(),
                            limits: budget,
                            charged: Cell::new(0),
                            started: Instant::now(),
                        };
                        let t0 = Instant::now();
                        let result = f(&ctx, &scenarios[idx]);
                        let secs = t0.elapsed().as_secs_f64();
                        let report = ctx.obs.report().unwrap_or_default();
                        if tx.send((idx, w, result, report, secs)).is_err() {
                            return;
                        }
                        idx = next.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            drop(tx);
            // Drain completions on the caller's thread while workers run.
            for (idx, w, result, report, secs) in rx {
                observe(SweepEvent {
                    first_index: idx,
                    results: std::slice::from_ref(&result),
                    report: &report,
                    worker: w,
                });
                debug_assert!(results[idx].is_none(), "scenario {idx} ran twice");
                results[idx] = Some(result);
                scenario_reports[idx] = report;
                scenario_secs[idx] = secs;
                per_worker[w] += 1;
            }
        });

        let wall = start.elapsed().as_secs_f64();

        // Merge in index order so the merged report is bit-identical
        // regardless of which worker ran which scenario.
        let mut report = Report::default();
        for r in &scenario_reports {
            report.merge(r);
        }
        let sweep_obs = Obs::recording();
        sweep_obs.add("sweep.scenarios", n as u64);
        sweep_obs.add("sweep.workers", workers as u64);
        for (w, count) in per_worker.iter().enumerate() {
            sweep_obs.add(&format!("sweep.worker.{w}.scenarios"), *count);
        }
        for secs in &scenario_secs {
            sweep_obs.time("sweep.scenario", *secs);
        }
        sweep_obs.time("sweep.wall", wall);
        report.merge(&sweep_obs.report().unwrap_or_default());

        let results = results
            .into_iter()
            .map(|r| r.expect("every scenario index is claimed exactly once"))
            .collect();
        SweepOutcome {
            results,
            scenario_reports,
            report,
            wall,
            workers,
        }
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

/// Stringifies a panic payload: `panic!("...")` payloads are `String` or
/// `&'static str`; anything else gets a placeholder.
///
/// Public so callers that build their own fault-isolated block bodies on
/// [`SweepEngine::run_batched`] (the fleet runner does) record the same
/// payload text in their [`ScenarioOutcome::Panicked`] slots as the
/// built-in sweeps.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// Per-outcome counts of a fault-isolated run — the tally behind the
/// `sweep.scenarios.{ok,failed,panicked,budget}` counters, generalized
/// over the counter namespace so other units of isolation (the fleet
/// runner's *devices*) report the same stable schema under their own
/// prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Scenarios that completed on the first attempt.
    pub ok: u64,
    /// Scenarios a recovery rung completed.
    pub recovered: u64,
    /// Scenarios that returned a typed error.
    pub failed: u64,
    /// Scenarios whose body panicked.
    pub panicked: u64,
    /// Scenarios that exceeded their [`ScenarioBudget`].
    pub budget: u64,
}

impl OutcomeTally {
    /// Tallies one outcome slice.
    pub fn of<R, E>(results: &[ScenarioOutcome<R, E>]) -> OutcomeTally {
        let mut t = OutcomeTally::default();
        for r in results {
            match r {
                ScenarioOutcome::Ok(_) => t.ok += 1,
                ScenarioOutcome::Recovered { .. } => t.recovered += 1,
                ScenarioOutcome::Failed { .. } => t.failed += 1,
                ScenarioOutcome::Panicked(_) => t.panicked += 1,
                ScenarioOutcome::Budget(_) => t.budget += 1,
            }
        }
        t
    }

    /// Total outcomes tallied — always the input slice's length, so
    /// `ok + recovered + failed + panicked + budget == N` is the
    /// conservation law every fault-isolated run must satisfy.
    pub fn total(&self) -> u64 {
        self.ok + self.recovered + self.failed + self.panicked + self.budget
    }

    /// Folds the tally into `report` as `{prefix}.{ok,failed,panicked,
    /// budget}` — all four keys always present, so downstream dashboards
    /// see stable schemas. `with_recovered` additionally emits
    /// `{prefix}.recovered`; only the recovering entry point
    /// ([`run_ams_sweep_recovering`]) opts in, so every pre-existing
    /// sweep keeps its historical report schema exactly.
    pub fn merge_into(&self, report: &mut Report, prefix: &str, with_recovered: bool) {
        let fault_obs = Obs::recording();
        fault_obs.add(&format!("{prefix}.ok"), self.ok);
        if with_recovered {
            fault_obs.add(&format!("{prefix}.recovered"), self.recovered);
        }
        fault_obs.add(&format!("{prefix}.failed"), self.failed);
        fault_obs.add(&format!("{prefix}.panicked"), self.panicked);
        fault_obs.add(&format!("{prefix}.budget"), self.budget);
        report.merge(&fault_obs.report().unwrap_or_default());
    }
}

/// Folds the per-scenario fault tally into `report` under the sweep's
/// historical `sweep.scenarios.*` namespace.
fn merge_fault_tally<R, E>(
    report: &mut Report,
    results: &[ScenarioOutcome<R, E>],
    with_recovered: bool,
) {
    OutcomeTally::of(results).merge_into(report, "sweep.scenarios", with_recovered);
}

// ------------------------------------------------------- amsim scenarios

/// One conservative-simulator run: a stimulus, a step count, and
/// optional per-scenario solver overrides.
pub struct AmsScenario {
    /// Scenario label, carried through to [`AmsRun::name`].
    pub name: String,
    /// Stimulus driving every model input.
    pub stim: Box<dyn Stimulus + Send + Sync>,
    /// Number of nominal-dt transient steps.
    pub steps: usize,
    /// Newton tolerance override; `None` keeps the model's tolerance.
    pub newton_tol: Option<f64>,
    /// Adaptive step-control override; `None` keeps the model's control
    /// (which may itself be fixed-dt).
    pub step_control: Option<amsim::StepControl>,
}

/// Result of one [`AmsScenario`].
#[derive(Debug)]
pub struct AmsRun {
    /// The scenario label.
    pub name: String,
    /// `output(0)` after every step.
    pub waveform: Vec<f64>,
    /// Newton iterations the run spent.
    pub newton_iters: u64,
}

/// Sweeps `scenarios` over one shared compiled Verilog-AMS model, fault
/// isolated: the result slot of a scenario that fails Newton, exceeds
/// `budget`, or panics holds a typed [`ScenarioOutcome`] record while its
/// siblings' waveforms survive untouched.
///
/// The model is compiled once by the caller ([`amsim::Simulation::compile`])
/// and only cheap [`amsim::Instance`]s are created per scenario — the
/// merged report's `amsim.jacobian.builds` therefore stays at the
/// compile-time value no matter how many scenarios run. Instances flush
/// their counters on drop, so even a faulted scenario's partial solver
/// counters reach the merged report.
///
/// This is the per-instance reference the batched sweeps are tested
/// against; it does not go through the lane-block driver.
///
/// # Errors
///
/// [`AmsError::InvalidTolerance`] / [`AmsError::InvalidStepControl`] if
/// any scenario's override is ill-formed (checked up front, before any
/// worker starts — configuration mistakes are the caller's bug and fail
/// the sweep; only *runtime* faults are isolated).
pub fn run_ams_sweep(
    engine: &SweepEngine,
    model: &Arc<CompiledModel>,
    scenarios: &[AmsScenario],
    budget: &ScenarioBudget,
) -> Result<SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>, AmsError> {
    Forest::of_scenarios(scenarios).check(&[model.dt()])?;
    let dt = model.dt();
    let n_inputs = model.input_names().len();
    Ok(engine.run_isolated(scenarios, budget, move |ctx, sc| {
        let mut builder = model.instance_builder().collector(ctx.obs.clone());
        if let Some(tol) = sc.newton_tol {
            builder = builder.newton_tol(tol);
        }
        if let Some(ctrl) = sc.step_control {
            builder = builder.step_control(ctrl);
        }
        let mut inst = builder.build().expect("overrides validated up front");
        let mut inputs = vec![0.0; n_inputs];
        let mut waveform = Vec::with_capacity(sc.steps);
        for k in 0..sc.steps {
            ctx.tick(1)?;
            let u = sc.stim.value(k as f64 * dt);
            inputs.iter_mut().for_each(|v| *v = u);
            inst.try_step(&inputs).map_err(SweepFault::Error)?;
            waveform.push(inst.output(0));
        }
        let newton_iters = inst.newton_iterations();
        inst.flush_counters();
        Ok(AmsRun {
            name: sc.name.clone(),
            waveform,
            newton_iters,
        })
    }))
}

/// Sweeps `scenarios` over one shared compiled Verilog-AMS model in
/// **lane-blocks** of up to `lane_width` scenarios per
/// [`amsim::BatchInstance`] (threads × lanes): each worker advances a
/// whole block per batched bytecode pass instead of one scenario at a
/// time.
///
/// This is [`run_ams_sweep_recovering`] with the recovery ladder off
/// (`max_recoveries: 0`): the scenarios run through the one lane-block
/// driver as a depth-1 forest, every scenario a childless root.
///
/// Every lane's waveform is **bit-identical** to the same scenario under
/// [`run_ams_sweep`] — the batch performs the scalar path's IEEE ops in
/// the scalar order, per lane — so `lane_width` (like the worker count)
/// is a pure performance knob. Fault isolation is per **lane**: a lane
/// that fails Newton is retired by the batch with its typed
/// [`AmsError`], a panicking stimulus is caught around that lane's
/// sample alone, and the shared `budget` is accounted per lane
/// ([`ScenarioBudget::check`]) — siblings in the same block finish
/// normally in all three cases. `max_wall` is charged per lane too:
/// stimulus-sampling time goes to the sampling lane alone and each
/// batched solve's time is split evenly over the lanes that entered it,
/// so a slow sibling cannot trip a healthy lane's wall cap.
///
/// The merged report carries the scalar sweep's `amsim.*` and
/// `sweep.scenarios.{ok,failed,panicked,budget}` families plus the
/// batch counters `amsim.batch.{lanes,masked_iterations}` and
/// `sweep.batch.blocks`.
///
/// # Errors
///
/// As for [`run_ams_sweep`]: ill-formed per-scenario overrides fail the
/// sweep up front, before any worker starts.
pub fn run_ams_sweep_batched(
    engine: &SweepEngine,
    model: &Arc<CompiledModel>,
    scenarios: &[AmsScenario],
    lane_width: usize,
    budget: &ScenarioBudget,
) -> Result<SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>, AmsError> {
    run_ams_sweep_batched_with(engine, model, scenarios, lane_width, budget, |_| {})
}

/// [`run_ams_sweep_batched`] with an incremental result observer:
/// `observe` fires once per finished lane-block with that block's
/// [`ScenarioOutcome`]s and its counter snapshot, before the final
/// merge (see [`SweepEvent`]). The driver flushes the block's batch
/// instance counters **before** the event, so its report already
/// contains every lane's partial `amsim.*` counters — including lanes
/// that faulted, panicked, or tripped the budget mid-block (the
/// `Drop`-flush guarantee merged reports have, extended to the stream).
pub fn run_ams_sweep_batched_with<O>(
    engine: &SweepEngine,
    model: &Arc<CompiledModel>,
    scenarios: &[AmsScenario],
    lane_width: usize,
    budget: &ScenarioBudget,
    observe: O,
) -> Result<SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>, AmsError>
where
    O: FnMut(SweepEvent<'_, ScenarioOutcome<AmsRun, AmsError>>),
{
    run_ams_sweep_recovering_with(
        engine,
        model,
        scenarios,
        lane_width,
        budget,
        &Recovery::disabled(),
        observe,
    )
}

// ----------------------------------------------------- scenario trees

/// One stimulus segment of a scenario tree: `steps` nominal-dt steps
/// driven by `stim` (sampled at **absolute** simulation time), then a
/// fork into `children`. A segment with no children is a leaf and
/// produces one [`AmsRun`] whose waveform spans the whole root-to-leaf
/// path.
pub struct ScenarioSegment {
    /// Segment label; a leaf's label becomes [`AmsRun::name`].
    pub name: String,
    /// Stimulus driving every model input over this segment. Sampled at
    /// absolute time `t = (global step index) · dt`, so moving a segment
    /// boundary never changes what any path sees.
    pub stim: Box<dyn Stimulus + Send + Sync>,
    /// Nominal-dt steps this segment contributes to every path below it.
    pub steps: usize,
    /// Divergent continuations; empty makes this segment a leaf.
    pub children: Vec<ScenarioSegment>,
}

/// One root of a [`ScenarioTree`]: a segment tree plus the solver
/// overrides for **every** path below it. Overrides are per root by
/// construction — forked lanes inherit them through the snapshot, so a
/// path cannot change tolerance or step policy mid-run (which would
/// break bit-identity with the flat sweep).
pub struct TreeScenario {
    /// Newton tolerance override; `None` keeps the model's tolerance.
    pub newton_tol: Option<f64>,
    /// Adaptive step-control override; `None` keeps the model's control.
    pub step_control: Option<amsim::StepControl>,
    /// The root stimulus segment.
    pub segment: ScenarioSegment,
}

/// A forest of stimulus segments for [`run_ams_sweep_tree`]: shared
/// prefixes are simulated **once** and children fork from a snapshot at
/// each segment boundary.
///
/// Leaves are indexed depth-first, left to right — result slot `i` of
/// the tree sweep is the `i`-th leaf in that order. A flat
/// `Vec<AmsScenario>` converts into the equivalent depth-1 forest via
/// `From`, making the tree API a strict superset of the flat one.
pub struct ScenarioTree {
    /// The independent root scenarios.
    pub roots: Vec<TreeScenario>,
}

impl ScenarioTree {
    /// Total segments in the forest.
    pub fn node_count(&self) -> usize {
        Forest::of_tree(self).nodes.len()
    }

    /// Total leaves — the number of result slots a tree sweep produces.
    pub fn leaf_count(&self) -> usize {
        Forest::of_tree(self).leaves
    }
}

impl From<Vec<AmsScenario>> for ScenarioTree {
    /// A flat scenario list is a depth-1 forest: every scenario becomes
    /// a childless root, so [`run_ams_sweep_tree`] degenerates to the
    /// flat batched sweep (same results, same per-scenario budget
    /// accounting, leaf order = input order).
    fn from(scenarios: Vec<AmsScenario>) -> ScenarioTree {
        ScenarioTree {
            roots: scenarios
                .into_iter()
                .map(|sc| TreeScenario {
                    newton_tol: sc.newton_tol,
                    step_control: sc.step_control,
                    segment: ScenarioSegment {
                        name: sc.name,
                        stim: sc.stim,
                        steps: sc.steps,
                        children: Vec::new(),
                    },
                })
                .collect(),
        }
    }
}

/// Sweeps a [`ScenarioTree`] over one shared compiled Verilog-AMS model,
/// simulating every shared prefix **once**: a segment with children runs
/// as a single lane, snapshots at its end
/// ([`BatchInstance::snapshot_lane`]), and fans the children out into
/// fresh lane-blocks seeded from that checkpoint
/// ([`BatchInstance::fork_from`]). Subtrees are work-stolen by the
/// engine's pool, so independent branches simulate concurrently.
///
/// Results land in **leaf order** (depth-first, left to right), one
/// [`ScenarioOutcome`] per leaf. Every leaf's waveform is
/// **bit-identical** to the same root-to-leaf path simulated flat from
/// `t = 0` — the snapshot replays the exact ddt/idt history, adaptive-dt
/// state and factorization validity, and stimuli are sampled at absolute
/// time — so tree structure (like `lane_width` and the worker count) is
/// a pure performance knob. The flat sweeps run through the same driver
/// as depth-1 forests, so a flat `Vec<AmsScenario>` converted via
/// `ScenarioTree::from` reproduces [`run_ams_sweep_batched`] exactly.
///
/// **Budgets** are charged against each lane's own path: a step of a
/// segment shared by `s` leaves charges `1/s` of a step to the lane
/// (the flat sweep would have charged it `s` times across those leaves),
/// and wall time is attributed like the batched sweep — sampling to the
/// sampling lane, each solve split over its entering lanes — divided by
/// the same share. A depth-1 tree therefore degenerates to the flat
/// accounting. **Fault isolation** is per subtree: a fault (Newton,
/// panic, budget) on a segment retires only that lane and records the
/// fault in every leaf slot below it; sibling subtrees are untouched.
///
/// The merged report carries the batched sweep's families plus
/// `sweep.tree.nodes` (static segment count),
/// `sweep.tree.forks` (segments that completed and fanned out) and
/// `sweep.tree.prefix_steps_saved` (nominal steps the flat sweep would
/// have re-simulated: `Σ steps · (leaves_below − 1)` over forked
/// segments), and `amsim.snapshot.{taken,restored}` from the solver
/// layer. `sweep.scenarios` counts leaves.
///
/// # Errors
///
/// As for [`run_ams_sweep`]: ill-formed per-root overrides fail the
/// sweep up front, before any worker starts.
pub fn run_ams_sweep_tree(
    engine: &SweepEngine,
    model: &Arc<CompiledModel>,
    tree: &ScenarioTree,
    lane_width: usize,
    budget: &ScenarioBudget,
) -> Result<SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>, AmsError> {
    let forest = Forest::of_tree(tree);
    forest.check(&[model.dt()])?;
    let mut out = forest.run(
        engine,
        model,
        lane_width,
        budget,
        &Recovery::disabled(),
        |_| {},
    );
    out.report
        .counters
        .insert("sweep.tree.nodes".to_string(), forest.nodes.len() as u64);
    Ok(out)
}

// ------------------------------------------------- the lane-block driver

/// Flattened view of one segment, in depth-first preorder. Borrows the
/// caller's name, stimulus and overrides, so a `&[AmsScenario]` becomes
/// depth-1 nodes without moving or cloning a boxed stimulus.
struct FlatNode<'t> {
    name: &'t str,
    stim: &'t (dyn Stimulus + Send + Sync),
    /// Nominal-dt steps of this segment.
    steps: usize,
    /// Root overrides, copied down so root-chunk jobs can build lanes.
    newton_tol: Option<f64>,
    step_control: Option<amsim::StepControl>,
    /// Preorder ids of the segment's children.
    children: Vec<usize>,
    /// Absolute step index at which this segment starts.
    k0: usize,
    /// First leaf index below this node (leaves below any node are
    /// contiguous in depth-first order).
    first_leaf: usize,
    /// Number of leaves below this node (≥ 1); the amortization share
    /// for budget charging.
    leaves_below: usize,
}

/// A scenario forest flattened for the driver.
#[derive(Default)]
struct Forest<'t> {
    /// Every segment, in depth-first preorder.
    nodes: Vec<FlatNode<'t>>,
    /// Preorder ids of the roots, in input order.
    roots: Vec<usize>,
    /// Total leaves — the number of result slots.
    leaves: usize,
}

impl<'t> Forest<'t> {
    /// A flat scenario list as the depth-1 forest: every scenario is a
    /// childless root, so node id = leaf index = scenario index.
    fn of_scenarios(scenarios: &'t [AmsScenario]) -> Forest<'t> {
        let nodes: Vec<FlatNode<'t>> = scenarios
            .iter()
            .enumerate()
            .map(|(i, sc)| FlatNode {
                name: &sc.name,
                stim: sc.stim.as_ref(),
                steps: sc.steps,
                newton_tol: sc.newton_tol,
                step_control: sc.step_control,
                children: Vec::new(),
                k0: 0,
                first_leaf: i,
                leaves_below: 1,
            })
            .collect();
        Forest {
            roots: (0..nodes.len()).collect(),
            leaves: nodes.len(),
            nodes,
        }
    }

    fn of_tree(tree: &'t ScenarioTree) -> Forest<'t> {
        let mut forest = Forest::default();
        for root in &tree.roots {
            let id = forest.push(&root.segment, 0, (root.newton_tol, root.step_control));
            forest.roots.push(id);
        }
        forest
    }

    /// Appends `seg` and its subtree in preorder, starting at absolute
    /// step `k0`, and returns the segment's id. Leaves are numbered in
    /// visiting order, so a subtree fault maps to a leaf range.
    /// `overrides` are the root's `(newton_tol, step_control)`.
    fn push(
        &mut self,
        seg: &'t ScenarioSegment,
        k0: usize,
        overrides: (Option<f64>, Option<amsim::StepControl>),
    ) -> usize {
        let id = self.nodes.len();
        let first_leaf = self.leaves;
        self.nodes.push(FlatNode {
            name: &seg.name,
            stim: seg.stim.as_ref(),
            steps: seg.steps,
            newton_tol: overrides.0,
            step_control: overrides.1,
            children: Vec::new(),
            k0,
            first_leaf,
            leaves_below: 0,
        });
        if seg.children.is_empty() {
            self.leaves += 1;
        } else {
            self.nodes[id].children = seg
                .children
                .iter()
                .map(|child| self.push(child, k0 + seg.steps, overrides))
                .collect();
        }
        self.nodes[id].leaves_below = self.leaves - first_leaf;
        id
    }

    /// Rejects ill-formed solver overrides before any worker starts:
    /// configuration mistakes are the caller's bug and fail the sweep;
    /// only *runtime* faults are isolated. Each step control is validated
    /// against every nominal `dt` in `dts` (one per model a lane may run
    /// on).
    fn check(&self, dts: &[f64]) -> Result<(), AmsError> {
        for node in &self.nodes {
            if let Some(tol) = node.newton_tol {
                if !(tol.is_finite() && tol > 0.0) {
                    return Err(AmsError::InvalidTolerance { tol });
                }
            }
            if let Some(ctrl) = node.step_control {
                for &dt in dts {
                    ctrl.validate(dt)?;
                }
            }
        }
        Ok(())
    }
}

/// One chunk of sibling segments simulated as one [`BatchInstance`]:
/// either a root chunk (fresh lanes from `t = 0`) or a fork chunk
/// seeded from the parent's snapshot.
struct Job {
    /// Preorder node ids, ≤ `lane_width` of them, one per lane.
    nodes: Vec<usize>,
    /// Checkpoint to fork from; `None` for root chunks.
    snap: Option<Arc<Snapshot>>,
    /// Waveform of the shared prefix (chained back to the root).
    prefix: Option<Arc<WaveSeg>>,
    /// Amortized budget steps already charged to this path at entry.
    charged: f64,
    /// Wall seconds already attributed to this path at entry.
    wall: f64,
}

/// One segment's worth of `output(0)` samples, chained to its parent —
/// leaves concatenate the chain into a full root-to-leaf waveform.
struct WaveSeg {
    parent: Option<Arc<WaveSeg>>,
    samples: Vec<f64>,
}

/// The root-to-leaf waveform of `path_len` samples: the prefix chain
/// followed by `own` (returned as is for a root, which has no prefix).
fn path_waveform(prefix: &Option<Arc<WaveSeg>>, own: Vec<f64>, path_len: usize) -> Vec<f64> {
    fn append(wave: &mut Vec<f64>, seg: &WaveSeg) {
        if let Some(parent) = &seg.parent {
            append(wave, parent);
        }
        wave.extend_from_slice(&seg.samples);
    }
    let Some(prefix) = prefix else { return own };
    let mut wave = Vec::with_capacity(path_len);
    append(&mut wave, prefix);
    wave.extend_from_slice(&own);
    wave
}

/// Why a lane stopped early. Recorded once on the faulting lane; every
/// leaf below it gets the matching outcome, unless the recovery ladder
/// takes a `Failed` or `Panicked` lane over.
enum LaneFault {
    Failed(AmsError),
    Panicked(String),
    Budget(BudgetExceeded),
}

impl LaneFault {
    fn outcome(&self) -> ScenarioOutcome<AmsRun, AmsError> {
        match self {
            LaneFault::Failed(e) => ScenarioOutcome::failed(e.clone()),
            LaneFault::Panicked(msg) => ScenarioOutcome::Panicked(msg.clone()),
            LaneFault::Budget(b) => ScenarioOutcome::Budget(*b),
        }
    }
}

/// One lane of a running job: its segment, its samples so far, and its
/// per-lane accounts.
struct LaneRun<'a> {
    node: &'a FlatNode<'a>,
    /// This segment's `output(0)` samples.
    waveform: Vec<f64>,
    /// A fault the batch cannot see (stimulus panic, budget trip,
    /// cancellation); Newton faults live on the batch lane itself.
    fault: Option<LaneFault>,
    /// Budget accounts continue the path's: a step of a segment shared
    /// by `s` leaves charges 1/s of a step (and 1/s of the measured wall
    /// share), amortizing prefix cost exactly over its beneficiaries.
    /// Each lane is charged only for time spent on its own behalf, so a
    /// slow sibling cannot trip a healthy lane's `max_wall`.
    charged: f64,
    wall: f64,
    /// Whether the lane entered the current batched solve.
    in_solve: bool,
    /// Last periodic checkpoint, with the waveform length at capture
    /// time (= the nominal step the resume rung restarts at).
    checkpoint: Option<(Snapshot, usize)>,
    /// The fault plan's pick, keyed by the lane's first leaf (the
    /// scenario index at depth 1) so the same scenarios fault at any
    /// lane width; always `None` unless `fault-inject` is compiled in.
    plan: Option<FaultSpec>,
}

impl LaneRun<'_> {
    /// Charges one step of this lane's segment and checks both caps.
    fn charge(&mut self, budget: &ScenarioBudget) -> Result<(), BudgetExceeded> {
        self.charged += 1.0 / self.node.leaves_below as f64;
        budget.check(self.charged.round() as u64, self.wall)
    }

    /// The budget verdict of a cancelled lane: its accounts as they
    /// stand, against the caps in force.
    fn killed(&self, budget: &ScenarioBudget) -> BudgetExceeded {
        BudgetExceeded {
            steps: self.charged.round() as u64,
            wall: self.wall,
            max_steps: budget.step_cap(),
            max_wall: budget.wall_cap(),
        }
    }

    /// The fault planned for local step `k`, if any.
    fn planned(&self, k: usize) -> Option<FaultKind> {
        self.plan
            .filter(|spec| spec.step == k as u64)
            .map(|spec| spec.kind)
    }
}

/// The outcomes of one run of consecutive leaves, starting at the given
/// leaf index.
type LeafRun = (usize, Vec<ScenarioOutcome<AmsRun, AmsError>>);

/// Appends `outcome` for `leaf`, extending the last run when it is
/// consecutive.
fn push_leaf(runs: &mut Vec<LeafRun>, leaf: usize, outcome: ScenarioOutcome<AmsRun, AmsError>) {
    match runs.last_mut() {
        Some((first, outcomes)) if *first + outcomes.len() == leaf => outcomes.push(outcome),
        _ => runs.push((leaf, vec![outcome])),
    }
}

/// Work queue for jobs. Jobs *create* jobs (a finished prefix fans its
/// children out), so the pool tracks outstanding work explicitly:
/// workers sleep on the condvar while the queue is empty but running
/// jobs may still fork, and exit once no job is queued or running.
struct JobQueue {
    /// `(queued jobs, jobs created but not yet completed)`.
    state: Mutex<(VecDeque<Job>, usize)>,
    cv: Condvar,
}

impl JobQueue {
    /// Claims a job, blocking while outstanding jobs may still fork new
    /// ones; `None` once the whole forest is drained.
    fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = s.0.pop_front() {
                return Some(job);
            }
            if s.1 == 0 {
                return None;
            }
            s = self.cv.wait(s).expect("job queue poisoned");
        }
    }

    /// Enqueues fork jobs created by a running (still-outstanding) job.
    fn push(&self, jobs: Vec<Job>) {
        let mut s = self.state.lock().expect("job queue poisoned");
        s.1 += jobs.len();
        s.0.extend(jobs);
        drop(s);
        self.cv.notify_all();
    }
}

/// Marks a claimed job finished when dropped — on return and when the
/// job panics, so the panic propagates out of the sweep instead of
/// leaving the other workers waiting for a count that never reaches
/// zero. Wakes sleepers once the forest is drained so they can exit.
struct Claimed<'q>(&'q JobQueue);

impl Drop for Claimed<'_> {
    fn drop(&mut self) {
        // May run while unwinding, so it must not panic: a poisoned lock
        // is recovered, since every update leaves the state valid.
        let mut s = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.1 -= 1;
        let drained = s.1 == 0;
        drop(s);
        if drained {
            self.0.cv.notify_all();
        }
    }
}

/// What every job of one sweep shares.
struct Driver<'a> {
    model: &'a Arc<CompiledModel>,
    nodes: &'a [FlatNode<'a>],
    lane_width: usize,
    budget: &'a ScenarioBudget,
    recovery: &'a Recovery,
}

impl Forest<'_> {
    /// The one lane-block driver behind every batched AMS sweep: flat
    /// sweeps are depth-1 forests, the plain batched sweep is the
    /// recovering one with the ladder off, and tree sweeps fork shared
    /// prefixes. Root chunks of up to `lane_width` roots seed a job queue;
    /// a job that finishes a shared segment pushes its children's chunks.
    ///
    /// Results land in leaf order. A job's report is attached at its first
    /// node's first leaf, and `observe` fires on the caller's thread once per
    /// maximal run of consecutive leaves a job resolves, with the job's
    /// report on the first event (one event per lane-block at depth 1).
    fn run<O>(
        &self,
        engine: &SweepEngine,
        model: &Arc<CompiledModel>,
        lane_width: usize,
        budget: &ScenarioBudget,
        recovery: &Recovery,
        mut observe: O,
    ) -> SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>
    where
        O: FnMut(SweepEvent<'_, ScenarioOutcome<AmsRun, AmsError>>),
    {
        let lane_width = lane_width.max(1);
        let workers = engine.worker_count();
        let start = Instant::now();
        let driver = Driver {
            model,
            nodes: &self.nodes,
            lane_width,
            budget,
            recovery,
        };
        // Seed the queue with root chunks; running jobs push the forks.
        let roots: VecDeque<Job> = self
            .roots
            .chunks(lane_width)
            .map(|nodes| Job {
                nodes: nodes.to_vec(),
                snap: None,
                prefix: None,
                charged: 0.0,
                wall: 0.0,
            })
            .collect();
        let outstanding = roots.len();
        let queue = JobQueue {
            state: Mutex::new((roots, outstanding)),
            cv: Condvar::new(),
        };
        let (tx, rx) = mpsc::channel::<(usize, usize, Vec<LeafRun>, Report, f64)>();

        let mut results: Vec<Option<ScenarioOutcome<AmsRun, AmsError>>> =
            Vec::with_capacity(self.leaves);
        results.resize_with(self.leaves, || None);
        let mut scenario_reports = vec![Report::default(); self.leaves];
        let mut per_worker = vec![0u64; workers];
        // `(first node id, report, secs)` per job, placed in node-id order
        // after the run so the merged report never depends on scheduling.
        let mut job_reports: Vec<(usize, Report, f64)> = Vec::new();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let queue = &queue;
                let driver = &driver;
                scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        let _claimed = Claimed(queue);
                        let t0 = Instant::now();
                        let obs = Obs::recording();
                        let (runs, forks) = driver.run_job(&job, &obs);
                        let secs = t0.elapsed().as_secs_f64();
                        let report = obs.report().unwrap_or_default();
                        let disconnected = tx.send((job.nodes[0], w, runs, report, secs)).is_err();
                        // Children go in before this job completes, so the
                        // outstanding count never transiently hits zero.
                        queue.push(forks);
                        if disconnected {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            let empty = Report::default();
            for (node0, w, runs, report, secs) in rx {
                for (i, (first, outcomes)) in runs.iter().enumerate() {
                    observe(SweepEvent {
                        first_index: *first,
                        results: outcomes,
                        report: if i == 0 { &report } else { &empty },
                        worker: w,
                    });
                }
                for (first, outcomes) in runs {
                    per_worker[w] += outcomes.len() as u64;
                    for (leaf, outcome) in (first..).zip(outcomes) {
                        debug_assert!(results[leaf].is_none(), "leaf {leaf} resolved twice");
                        results[leaf] = Some(outcome);
                    }
                }
                job_reports.push((node0, report, secs));
            }
        });

        let wall = start.elapsed().as_secs_f64();

        // Two jobs can share a first leaf (a prefix and its first fork
        // chunk), so reports land in node-id order: the first moves into the
        // slot, later ones merge into it.
        job_reports.sort_by_key(|(node0, _, _)| *node0);
        let sweep_obs = Obs::recording();
        sweep_obs.add("sweep.batch.blocks", job_reports.len() as u64);
        for (node0, job_report, secs) in job_reports {
            sweep_obs.time("sweep.block", secs);
            let slot = &mut scenario_reports[self.nodes[node0].first_leaf];
            if slot.counters.is_empty() && slot.timers.is_empty() {
                *slot = job_report;
            } else {
                slot.merge(&job_report);
            }
        }
        let mut report = Report::default();
        for r in &scenario_reports {
            report.merge(r);
        }
        sweep_obs.add("sweep.scenarios", self.leaves as u64);
        sweep_obs.add("sweep.workers", workers as u64);
        for (w, count) in per_worker.iter().enumerate() {
            sweep_obs.add(&format!("sweep.worker.{w}.scenarios"), *count);
        }
        sweep_obs.time("sweep.wall", wall);
        report.merge(&sweep_obs.report().unwrap_or_default());

        let results: Vec<ScenarioOutcome<AmsRun, AmsError>> = results
            .into_iter()
            .map(|r| r.expect("every leaf is resolved by exactly one job"))
            .collect();
        // Same stable fault-tally schema as the scalar isolated sweep.
        merge_fault_tally(&mut report, &results, driver.ladder());

        SweepOutcome {
            results,
            scenario_reports,
            report,
            wall,
            workers,
        }
    }
}

impl Driver<'_> {
    /// Whether faulted lanes climb the recovery ladder. Only the flat
    /// recovering sweep enables it, so a laddered lane is always a whole
    /// scenario run from `t = 0`.
    fn ladder(&self) -> bool {
        self.recovery.policy.max_recoveries > 0
    }

    /// Runs one [`Job`]: steps its sibling segments as a lane-block, then
    /// classifies each lane into leaf outcomes (returned as runs of
    /// consecutive leaves) or fork jobs (returned for the queue).
    fn run_job(&self, job: &Job, obs: &Obs) -> (Vec<LeafRun>, Vec<Job>) {
        let n_lanes = job.nodes.len();
        let mut batch = match &job.snap {
            Some(snap) => BatchInstance::fork_from(snap, n_lanes, obs.clone()),
            None => {
                let mut builder = self
                    .model
                    .batch_instance_builder(n_lanes)
                    .collector(obs.clone());
                for (l, &id) in job.nodes.iter().enumerate() {
                    if let Some(tol) = self.nodes[id].newton_tol {
                        builder = builder.lane_newton_tol(l, tol);
                    }
                    if let Some(ctrl) = self.nodes[id].step_control {
                        builder = builder.lane_step_control(l, ctrl);
                    }
                }
                builder.build().expect("overrides validated up front")
            }
        };
        let dt = self.model.dt();
        let budget = self.budget;
        let track_wall = budget.wall_cap().is_some();
        let snap_every = if self.ladder() {
            self.recovery.policy.snapshot_every_n_steps
        } else {
            0
        };
        let cancel = self.recovery.cancel.as_deref();
        let mut lanes: Vec<LaneRun<'_>> = job
            .nodes
            .iter()
            .map(|&id| {
                let node = &self.nodes[id];
                LaneRun {
                    node,
                    waveform: Vec::with_capacity(node.steps),
                    fault: None,
                    charged: job.charged,
                    wall: job.wall,
                    in_solve: false,
                    checkpoint: None,
                    plan: if cfg!(feature = "fault-inject") {
                        self.recovery
                            .plan
                            .fault_for(node.first_leaf, node.steps as u64)
                    } else {
                        None
                    },
                }
            })
            .collect();
        let max_steps = lanes.iter().map(|lane| lane.node.steps).max().unwrap_or(0);
        let mut inputs = batch.input_frame();
        let mut cancelled = false;
        for k in 0..max_steps {
            cancelled = cancelled || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
            // Sample every healthy lane's stimulus, catching panics and
            // charging the budget per lane so one bad lane never poisons
            // its block.
            for (l, lane) in lanes.iter_mut().enumerate() {
                if lane.fault.is_some() || !batch.lane_active(l) {
                    continue;
                }
                let node = lane.node;
                if k >= node.steps {
                    // Shorter sibling: done — mask it out of the block.
                    batch.retire(l);
                    continue;
                }
                if cancelled {
                    // Hard kill: a budget verdict, never a ladder entry.
                    lane.fault = Some(LaneFault::Budget(lane.killed(budget)));
                    batch.retire(l);
                    continue;
                }
                if let Err(b) = lane.charge(budget) {
                    lane.fault = Some(LaneFault::Budget(b));
                    batch.retire(l);
                    continue;
                }
                // Planned stimulus faults fire inside the timed sample,
                // so a stall is charged to the lane's wall account.
                let injected = lane.planned(k);
                if let Some(kind @ (FaultKind::StimulusPanic | FaultKind::StimulusStall { .. })) =
                    injected
                {
                    obs.add(&format!("fault.injected.{}", kind.name()), 1);
                }
                let sample_t0 = track_wall.then(Instant::now);
                // Absolute-time sampling: the same instant a flat run
                // samples at step `k0 + k`.
                let t = (node.k0 + k) as f64 * dt;
                match catch_unwind(AssertUnwindSafe(|| {
                    match injected {
                        Some(FaultKind::StimulusPanic) => {
                            panic!("injected stimulus panic at step {k}")
                        }
                        Some(FaultKind::StimulusStall { millis }) => {
                            std::thread::sleep(std::time::Duration::from_millis(millis));
                        }
                        _ => {}
                    }
                    node.stim.value(t)
                })) {
                    Ok(u) => inputs.broadcast(l, u),
                    Err(payload) => {
                        lane.fault = Some(LaneFault::Panicked(panic_message(payload)));
                        batch.retire(l);
                    }
                }
                if let Some(t0) = sample_t0 {
                    lane.wall += t0.elapsed().as_secs_f64() / node.leaves_below as f64;
                }
            }
            let solving = batch.active_lanes();
            if solving == 0 {
                break;
            }
            for (l, lane) in lanes.iter_mut().enumerate() {
                lane.in_solve = batch.lane_active(l);
            }
            // Arm this step's planned solver faults around the one
            // nominal batched step. The guard drops right after, so
            // ladder replays never re-inject.
            #[cfg(feature = "fault-inject")]
            let guard = {
                let mut armed: Vec<(usize, amsim::fault::SolverFault)> = Vec::new();
                for (l, lane) in lanes.iter().enumerate() {
                    let Some(kind) = lane.planned(k).filter(|_| lane.in_solve) else {
                        continue;
                    };
                    let sf = match kind {
                        FaultKind::ResidualNan => amsim::fault::SolverFault::ResidualNan,
                        FaultKind::RefactorSingular => amsim::fault::SolverFault::RefactorSingular,
                        FaultKind::RefactorNonFinite => {
                            amsim::fault::SolverFault::RefactorNonFinite
                        }
                        _ => continue,
                    };
                    obs.add(&format!("fault.injected.{}", kind.name()), 1);
                    armed.push((l, sf));
                }
                amsim::fault::inject(&armed)
            };
            let solve_t0 = track_wall.then(Instant::now);
            batch.try_step(inputs.as_slice());
            #[cfg(feature = "fault-inject")]
            drop(guard);
            if let Some(t0) = solve_t0 {
                let split = t0.elapsed().as_secs_f64() / solving as f64;
                for lane in lanes.iter_mut().filter(|lane| lane.in_solve) {
                    lane.wall += split / lane.node.leaves_below as f64;
                }
            }
            for (l, lane) in lanes.iter_mut().enumerate() {
                if k < lane.node.steps && lane.fault.is_none() && batch.lane_active(l) {
                    lane.waveform.push(batch.output(0, l));
                }
            }
            // Periodic checkpoints feed the resume rung. Snapshots read
            // (never mutate) lane state, so healthy waveforms stay
            // bit-identical to a run without them.
            if snap_every > 0 && (k as u64 + 1).is_multiple_of(snap_every) {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    if k + 1 < lane.node.steps && lane.fault.is_none() && batch.lane_active(l) {
                        lane.checkpoint = Some((batch.snapshot_lane(l), lane.waveform.len()));
                    }
                }
            }
        }

        let mut runs: Vec<LeafRun> = Vec::new();
        let mut forks: Vec<Job> = Vec::new();
        for (l, lane) in lanes.iter_mut().enumerate() {
            let node = lane.node;
            let fault = lane
                .fault
                .take()
                .or_else(|| batch.lane_error(l).map(|e| LaneFault::Failed(e.clone())));
            match fault {
                // Budget verdicts (cancellations included) are final.
                Some(fault @ (LaneFault::Failed(_) | LaneFault::Panicked(_))) if self.ladder() => {
                    let outcome = recovery::run_ladder(self, lane, fault, obs);
                    push_leaf(&mut runs, node.first_leaf, outcome);
                }
                // A fault retires the whole subtree: every leaf below
                // gets the record, and no children are forked.
                Some(fault) => {
                    for leaf in node.first_leaf..node.first_leaf + node.leaves_below {
                        push_leaf(&mut runs, leaf, fault.outcome());
                    }
                }
                None if node.children.is_empty() => {
                    let run = AmsRun {
                        name: node.name.to_string(),
                        waveform: path_waveform(
                            &job.prefix,
                            std::mem::take(&mut lane.waveform),
                            node.k0 + node.steps,
                        ),
                        // Path-cumulative: fork_from seeds the lane from
                        // the snapshot's watermark, so this equals the
                        // flat run's count for the same root-to-leaf path.
                        newton_iters: batch.lane_newton_iterations(l),
                    };
                    push_leaf(&mut runs, node.first_leaf, ScenarioOutcome::Ok(run));
                }
                None => {
                    // Healthy internal segment: checkpoint once, fan
                    // children out.
                    let snap = Arc::new(batch.snapshot_lane(l));
                    let prefix = Arc::new(WaveSeg {
                        parent: job.prefix.clone(),
                        samples: std::mem::take(&mut lane.waveform),
                    });
                    obs.add("sweep.tree.forks", 1);
                    obs.add(
                        "sweep.tree.prefix_steps_saved",
                        node.steps as u64 * (node.leaves_below as u64 - 1),
                    );
                    for chunk in node.children.chunks(self.lane_width) {
                        forks.push(Job {
                            nodes: chunk.to_vec(),
                            snap: Some(Arc::clone(&snap)),
                            prefix: Some(Arc::clone(&prefix)),
                            charged: lane.charged,
                            wall: lane.wall,
                        });
                    }
                }
            }
        }
        batch.flush_counters();
        (runs, forks)
    }
}

// --------------------------------------------------------- eln scenarios

/// One ELN transient run: a stimulus on a chosen source, probed at one
/// node.
pub struct ElnScenario {
    /// Scenario label, carried through to [`ElnRun::name`].
    pub name: String,
    /// Stimulus driving [`ElnSweepSpec::source`].
    pub stim: Box<dyn Stimulus + Send + Sync>,
    /// Number of fixed-dt transient steps.
    pub steps: usize,
}

/// Which source an ELN sweep drives and which node it probes.
#[derive(Debug, Clone, Copy)]
pub struct ElnSweepSpec {
    /// Source every scenario's stimulus is applied to.
    pub source: SourceId,
    /// Node whose voltage is sampled after every step.
    pub probe: NodeId,
}

/// Result of one [`ElnScenario`].
#[derive(Debug)]
pub struct ElnRun {
    /// The scenario label.
    pub name: String,
    /// Probe-node voltage after every step.
    pub waveform: Vec<f64>,
}

/// Sweeps `scenarios` over one shared compiled ELN network, fault
/// isolated like [`run_ams_sweep`]: a diverging, over-budget, or
/// panicking scenario becomes a [`ScenarioOutcome`] record in its slot.
///
/// The MNA system is assembled and LU-factored once by the caller
/// ([`eln::Transient::compile`]); each scenario only clones per-run state.
pub fn run_eln_sweep(
    engine: &SweepEngine,
    net: &Arc<CompiledNet>,
    spec: ElnSweepSpec,
    scenarios: &[ElnScenario],
    budget: &ScenarioBudget,
) -> SweepOutcome<ScenarioOutcome<ElnRun, ElnError>> {
    let dt = net.dt();
    engine.run_isolated(scenarios, budget, move |ctx, sc| {
        let mut solver = net.instance_with(ctx.obs.clone());
        let mut waveform = Vec::with_capacity(sc.steps);
        for k in 0..sc.steps {
            ctx.tick(1)?;
            solver.set_source(spec.source, sc.stim.value(k as f64 * dt));
            solver.try_step().map_err(SweepFault::Error)?;
            waveform.push(solver.node_voltage(spec.probe));
        }
        solver.flush_counters();
        Ok(ElnRun {
            name: sc.name.clone(),
            waveform,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsvp_core::circuits::{rc_ladder, PiecewiseConstant};

    #[test]
    fn runs_every_scenario_exactly_once_in_order() {
        let engine = SweepEngine::new().workers(3);
        let scenarios: Vec<u64> = (0..17).collect();
        let out = engine.run(&scenarios, |ctx, s| {
            ctx.obs.add("touched", 1);
            (ctx.index as u64, s * 2)
        });
        assert_eq!(out.workers, 3);
        assert_eq!(out.results.len(), 17);
        for (i, (idx, doubled)) in out.results.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*doubled, 2 * i as u64);
        }
        assert_eq!(out.report.counter("touched"), 17);
        assert_eq!(out.report.counter("sweep.scenarios"), 17);
        assert_eq!(out.report.counter("sweep.workers"), 3);
        let per_worker: u64 = (0..3)
            .map(|w| out.report.counter(&format!("sweep.worker.{w}.scenarios")))
            .sum();
        assert_eq!(per_worker, 17);
        assert_eq!(out.report.timers["sweep.scenario"].count, 17);
        assert_eq!(out.report.timers["sweep.wall"].count, 1);
    }

    #[test]
    fn tolerates_more_workers_than_scenarios() {
        let engine = SweepEngine::new().workers(8);
        let scenarios = [10usize, 20];
        let out = engine.run(&scenarios, |_, s| s + 1);
        assert_eq!(out.results, vec![11, 21]);
        assert_eq!(out.report.counter("sweep.scenarios"), 2);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let engine = SweepEngine::new().workers(2);
        let scenarios: [u8; 0] = [];
        let out = engine.run(&scenarios, |_, s| *s);
        assert!(out.results.is_empty());
        assert_eq!(out.report.counter("sweep.scenarios"), 0);
    }

    #[test]
    fn scenario_reports_stay_separate_and_merge() {
        let engine = SweepEngine::new().workers(2);
        let scenarios: Vec<u64> = vec![1, 2, 3];
        let out = engine.run(&scenarios, |ctx, s| ctx.obs.add("n", *s));
        assert_eq!(out.scenario_reports[0].counter("n"), 1);
        assert_eq!(out.scenario_reports[1].counter("n"), 2);
        assert_eq!(out.scenario_reports[2].counter("n"), 3);
        assert_eq!(out.report.counter("n"), 6);
    }

    #[test]
    fn ams_sweep_shares_one_compiled_model() {
        let module = vams_parser::parse_module(&rc_ladder(1)).unwrap();
        let obs = Obs::recording();
        let model = amsim::Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .collector(obs.clone())
            .compile()
            .unwrap();
        let scenarios: Vec<AmsScenario> = (0..6)
            .map(|i| AmsScenario {
                name: format!("s{i}"),
                stim: Box::new(PiecewiseConstant::seeded(i as u64 + 1, 4, 2e-5, 0.0, 1.0)),
                steps: 50,
                newton_tol: None,
                step_control: None,
            })
            .collect();
        let out = run_ams_sweep(
            &SweepEngine::new().workers(3),
            &model,
            &scenarios,
            &ScenarioBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 6);
        for outcome in &out.results {
            let run = outcome.ok().expect("healthy scenarios complete");
            assert_eq!(run.waveform.len(), 50);
            assert!(run.newton_iters > 0);
        }
        // The compile itself reported exactly one Jacobian build; none of
        // the six scenario instances added another.
        let mut merged = obs.report().unwrap();
        merged.merge(&out.report);
        assert_eq!(merged.counter("amsim.jacobian.builds"), 1);
    }

    #[test]
    fn ams_sweep_rejects_bad_tolerance_up_front() {
        let module = vams_parser::parse_module(&rc_ladder(1)).unwrap();
        let model = amsim::Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let scenarios = vec![AmsScenario {
            name: "bad".into(),
            stim: Box::new(PiecewiseConstant::seeded(1, 2, 1e-5, 0.0, 1.0)),
            steps: 10,
            newton_tol: Some(0.0),
            step_control: None,
        }];
        let err = run_ams_sweep(
            &SweepEngine::new().workers(1),
            &model,
            &scenarios,
            &ScenarioBudget::unlimited(),
        );
        assert!(matches!(err, Err(AmsError::InvalidTolerance { .. })));

        let scenarios = vec![AmsScenario {
            name: "bad-control".into(),
            stim: Box::new(PiecewiseConstant::seeded(1, 2, 1e-5, 0.0, 1.0)),
            steps: 10,
            newton_tol: None,
            step_control: Some(amsim::StepControl::new(1.0)),
        }];
        let err = run_ams_sweep(
            &SweepEngine::new().workers(1),
            &model,
            &scenarios,
            &ScenarioBudget::unlimited(),
        );
        assert!(matches!(err, Err(AmsError::InvalidStepControl { .. })));
    }

    #[test]
    fn panicking_scenario_is_contained() {
        let engine = SweepEngine::new().workers(4);
        let scenarios: Vec<u64> = (0..16).collect();
        let out = engine.run_isolated::<_, _, (), _>(
            &scenarios,
            &ScenarioBudget::unlimited(),
            |ctx, s| {
                ctx.obs.add("body.entered", 1);
                if *s == 7 {
                    panic!("injected failure in scenario {s}");
                }
                Ok(s * s)
            },
        );
        assert_eq!(out.results.len(), 16);
        for (i, r) in out.results.iter().enumerate() {
            if i == 7 {
                match r {
                    ScenarioOutcome::Panicked(msg) => {
                        assert!(msg.contains("injected failure"), "payload lost: {msg}")
                    }
                    other => panic!("slot 7: want Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(*r.ok().expect("healthy slot"), (i * i) as u64);
            }
        }
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 15);
        assert_eq!(out.report.counter("sweep.scenarios.panicked"), 1);
        assert_eq!(out.report.counter("sweep.scenarios.failed"), 0);
        assert_eq!(out.report.counter("sweep.scenarios.budget"), 0);
        // The panicking body still entered and its obs merged.
        assert_eq!(out.report.counter("body.entered"), 16);
    }

    #[test]
    fn typed_failures_land_in_their_slot() {
        let engine = SweepEngine::new().workers(2);
        let scenarios: Vec<u64> = (0..8).collect();
        let out = engine.run_isolated(&scenarios, &ScenarioBudget::unlimited(), |_, s| {
            if s % 3 == 0 {
                Err(SweepFault::Error(format!("no solution for {s}")))
            } else {
                Ok(*s)
            }
        });
        let failed: Vec<usize> = out
            .results
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, ScenarioOutcome::Failed { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![0, 3, 6]);
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 5);
        assert_eq!(out.report.counter("sweep.scenarios.failed"), 3);
    }

    #[test]
    fn step_budget_cuts_runaway_scenarios() {
        let engine = SweepEngine::new().workers(2);
        let scenarios: Vec<u64> = (0..4).collect();
        let budget = ScenarioBudget::unlimited().max_steps(10);
        let out = engine.run_isolated::<_, _, (), _>(&scenarios, &budget, |ctx, s| {
            // Scenario 2 never stops on its own.
            let steps = if *s == 2 { u64::MAX } else { 5 };
            let mut done = 0u64;
            while done < steps {
                ctx.tick(1)?;
                done += 1;
            }
            Ok(done)
        });
        for (i, r) in out.results.iter().enumerate() {
            if i == 2 {
                match r {
                    ScenarioOutcome::Budget(b) => {
                        assert_eq!(b.steps, 11, "tripped on the first step past the cap");
                        assert_eq!(b.max_steps, Some(10));
                    }
                    other => panic!("slot 2: want Budget, got {other:?}"),
                }
            } else {
                assert_eq!(*r.ok().expect("within budget"), 5);
            }
        }
        assert_eq!(out.report.counter("sweep.scenarios.budget"), 1);
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 3);
    }

    #[test]
    fn eln_sweep_isolates_divergence() {
        let mut net = eln::ElnNetwork::new();
        let a = net.node("a");
        let out_node = net.node("out");
        let v = net.vsource("vin", a, eln::ElnNetwork::GROUND);
        net.resistor("r", a, out_node, 5e3);
        net.capacitor("c", out_node, eln::ElnNetwork::GROUND, 25e-9);
        let compiled = eln::Transient::new(&net).dt(1e-6).compile().unwrap();
        struct NanAt(usize, usize);
        impl Stimulus for NanAt {
            fn value(&self, t: f64) -> f64 {
                let k = (t / 1e-6).round() as usize;
                if self.0 == 1 && k >= self.1 {
                    f64::NAN
                } else {
                    1.0
                }
            }
        }
        let scenarios: Vec<ElnScenario> = (0..4)
            .map(|i| ElnScenario {
                name: format!("e{i}"),
                stim: Box::new(NanAt(i, 3)),
                steps: 8,
            })
            .collect();
        let spec = ElnSweepSpec {
            source: v,
            probe: out_node,
        };
        let out = run_eln_sweep(
            &SweepEngine::new().workers(2),
            &compiled,
            spec,
            &scenarios,
            &ScenarioBudget::unlimited(),
        );
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 3);
        assert_eq!(out.report.counter("sweep.scenarios.failed"), 1);
        match &out.results[1] {
            ScenarioOutcome::Failed {
                error: ElnError::NonFiniteSolution { .. },
                ..
            } => {}
            other => panic!("slot 1: want NonFiniteSolution, got {other:?}"),
        }
        for i in [0usize, 2, 3] {
            assert_eq!(out.results[i].ok().expect("healthy").waveform.len(), 8);
        }
    }

    #[test]
    fn batched_sweep_matches_scalar_bitwise_for_any_lane_width_and_workers() {
        let module = vams_parser::parse_module(&rc_ladder(2)).unwrap();
        let model = amsim::Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let mk = || -> Vec<AmsScenario> {
            (0..13)
                .map(|i| AmsScenario {
                    name: format!("s{i}"),
                    stim: Box::new(PiecewiseConstant::seeded(i as u64 + 1, 4, 2e-5, 0.0, 1.0)),
                    steps: 40,
                    newton_tol: if i % 3 == 0 { Some(1e-8) } else { None },
                    step_control: None,
                })
                .collect()
        };
        let scalar = run_ams_sweep(
            &SweepEngine::new().workers(2),
            &model,
            &mk(),
            &ScenarioBudget::unlimited(),
        )
        .unwrap();
        for (lane_width, workers) in [(1usize, 1usize), (4, 2), (8, 8), (13, 3)] {
            let batched = run_ams_sweep_batched(
                &SweepEngine::new().workers(workers),
                &model,
                &mk(),
                lane_width,
                &ScenarioBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(
                batched.report.counter("sweep.batch.blocks"),
                13u64.div_ceil(lane_width as u64),
                "lane_width {lane_width}"
            );
            assert_eq!(batched.report.counter("amsim.batch.lanes"), 13);
            assert_eq!(batched.report.counter("sweep.scenarios"), 13);
            assert_eq!(batched.report.counter("sweep.scenarios.ok"), 13);
            for (i, (b, s)) in batched.results.iter().zip(&scalar.results).enumerate() {
                let (b, s) = (b.ok().unwrap(), s.ok().unwrap());
                assert_eq!(b.newton_iters, s.newton_iters, "scenario {i}");
                assert_eq!(b.waveform.len(), s.waveform.len());
                for (k, (x, y)) in b.waveform.iter().zip(&s.waveform).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "scenario {i} step {k}: lane_width {lane_width} workers {workers}"
                    );
                }
            }
            // The shared amsim counter families are conserved: batching
            // changes scheduling, never the per-scenario work.
            for c in [
                "amsim.steps",
                "amsim.newton_iterations",
                "amsim.jacobian.reuse_hits",
            ] {
                assert_eq!(
                    batched.report.counter(c),
                    scalar.report.counter(c),
                    "{c} at lane_width {lane_width}"
                );
            }
        }
    }

    #[test]
    fn observer_sees_every_scenario_once_with_its_report() {
        let engine = SweepEngine::new().workers(3);
        let scenarios: Vec<u64> = (0..17).collect();
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let out = engine.run_isolated_with::<_, _, (), _, _>(
            &scenarios,
            &ScenarioBudget::unlimited(),
            |ctx, s| {
                ctx.obs.add("unit.work", *s);
                Ok(s * 3)
            },
            |ev| {
                assert_eq!(ev.results.len(), 1, "scalar events cover one scenario");
                seen.push((ev.first_index, ev.report.counter("unit.work")));
            },
        );
        assert_eq!(seen.len(), 17);
        seen.sort_by_key(|(i, _)| *i);
        for (i, (idx, work)) in seen.iter().enumerate() {
            assert_eq!(*idx, i, "every index observed exactly once");
            assert_eq!(*work, i as u64, "event carries the scenario's own report");
        }
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 17);
    }

    /// The result-callback seam's flush guarantee: by the time a block's
    /// event fires, the batch instance's counters — including a faulted
    /// lane's partial steps — are already flushed into the event report,
    /// exactly like they reach merged reports via `Drop`/`flush_counters`.
    #[test]
    fn observer_events_carry_faulted_lanes_partial_counters() {
        let module = vams_parser::parse_module(&rc_ladder(1)).unwrap();
        let model = amsim::Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        struct PanicAt(usize);
        impl Stimulus for PanicAt {
            fn value(&self, t: f64) -> f64 {
                let k = (t / 1e-6).round() as usize;
                if k >= self.0 {
                    panic!("injected stimulus panic at step {k}");
                }
                1.0
            }
        }
        // One block of 4: lane 1 panics at step 5 of 20, siblings finish.
        let scenarios: Vec<AmsScenario> = (0..4)
            .map(|i| AmsScenario {
                name: format!("s{i}"),
                stim: if i == 1 {
                    Box::new(PanicAt(5))
                } else {
                    Box::new(PiecewiseConstant::seeded(i as u64 + 1, 3, 1e-5, 0.0, 1.0))
                },
                steps: 20,
                newton_tol: None,
                step_control: None,
            })
            .collect();
        let mut events = 0usize;
        let out = run_ams_sweep_batched_with(
            &SweepEngine::new().workers(1),
            &model,
            &scenarios,
            4,
            &ScenarioBudget::unlimited(),
            |ev| {
                events += 1;
                assert_eq!(ev.first_index, 0);
                assert_eq!(ev.results.len(), 4);
                assert!(matches!(ev.results[1], ScenarioOutcome::Panicked(_)));
                // The faulted lane ran 5 steps before panicking; the
                // event report must already include them (block total =
                // 3 × 20 survivors + 5 partial).
                assert_eq!(ev.report.counter("amsim.steps"), 65);
                assert!(ev.report.counter("amsim.newton_iterations") > 0);
            },
        )
        .unwrap();
        assert_eq!(events, 1, "one block, one event");
        // The merged report agrees with what the event saw.
        assert_eq!(out.report.counter("amsim.steps"), 65);
        assert_eq!(out.report.counter("sweep.scenarios.panicked"), 1);
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 3);
    }

    #[test]
    fn batched_sweep_accounts_budget_per_lane() {
        let module = vams_parser::parse_module(&rc_ladder(1)).unwrap();
        let model = amsim::Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        // Scenario 1 wants 30 steps against a 10-step cap; its block
        // siblings stay within budget and must be unaffected.
        let scenarios: Vec<AmsScenario> = [8usize, 30, 8, 8]
            .iter()
            .enumerate()
            .map(|(i, &steps)| AmsScenario {
                name: format!("s{i}"),
                stim: Box::new(PiecewiseConstant::seeded(i as u64 + 1, 3, 1e-5, 0.0, 1.0)),
                steps,
                newton_tol: None,
                step_control: None,
            })
            .collect();
        let budget = ScenarioBudget::unlimited().max_steps(10);
        let out = run_ams_sweep_batched(
            &SweepEngine::new().workers(2),
            &model,
            &scenarios,
            4,
            &budget,
        )
        .unwrap();
        match &out.results[1] {
            ScenarioOutcome::Budget(b) => {
                assert_eq!(b.steps, 11, "tripped on the first step past the cap");
                assert_eq!(b.max_steps, Some(10));
            }
            other => panic!("slot 1: want Budget, got {other:?}"),
        }
        for i in [0usize, 2, 3] {
            assert_eq!(
                out.results[i].ok().expect("within budget").waveform.len(),
                8
            );
        }
        assert_eq!(out.report.counter("sweep.scenarios.budget"), 1);
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 3);
    }

    #[test]
    fn batched_engine_runs_generic_blocks() {
        let engine = SweepEngine::new().workers(3);
        let scenarios: Vec<u64> = (0..11).collect();
        let out = engine.run_batched(&scenarios, 4, |ctx, block| {
            ctx.obs.add("blocks.seen", 1);
            block.iter().map(|s| s * 2).collect()
        });
        assert_eq!(out.results, (0..11).map(|s| s * 2).collect::<Vec<_>>());
        assert_eq!(out.report.counter("sweep.batch.blocks"), 3);
        assert_eq!(out.report.counter("blocks.seen"), 3);
        assert_eq!(out.report.counter("sweep.scenarios"), 11);
        let per_worker: u64 = (0..3)
            .map(|w| out.report.counter(&format!("sweep.worker.{w}.scenarios")))
            .sum();
        assert_eq!(per_worker, 11);
        assert_eq!(out.report.timers["sweep.block"].count, 3);
        // Empty input: no blocks, no results.
        let empty: [u64; 0] = [];
        let out = engine.run_batched(&empty, 4, |_, block| block.to_vec());
        assert!(out.results.is_empty());
        assert_eq!(out.report.counter("sweep.batch.blocks"), 0);
    }

    /// Stimulus that switches sources at `t0` — the flat-run equivalent
    /// of a segment boundary in a scenario tree.
    struct SwitchAt {
        t0: f64,
        before: Box<dyn Stimulus + Send + Sync>,
        after: Box<dyn Stimulus + Send + Sync>,
    }

    impl Stimulus for SwitchAt {
        fn value(&self, t: f64) -> f64 {
            if t < self.t0 {
                self.before.value(t)
            } else {
                self.after.value(t)
            }
        }
    }

    const TREE_DT: f64 = 1e-6;
    const SEG_STEPS: usize = 10;

    fn tree_model() -> Arc<CompiledModel> {
        let module = vams_parser::parse_module(&rc_ladder(2)).unwrap();
        amsim::Simulation::new(&module)
            .dt(TREE_DT)
            .output("V(out)")
            .compile()
            .unwrap()
    }

    fn seg_stim(seed: u64) -> Box<dyn Stimulus + Send + Sync> {
        Box::new(PiecewiseConstant::seeded(seed, 4, 3.0 * TREE_DT, 0.0, 1.0))
    }

    /// Two-level test forest (6 nodes, 4 leaves): a shared root, three
    /// children, the first child itself forking into two grandchildren.
    ///
    /// ```text
    /// root ─┬─ c0 ─┬─ g0
    ///       │      └─ g1
    ///       ├─ c1
    ///       └─ c2
    /// ```
    fn two_level_tree() -> ScenarioTree {
        let grandchildren = vec![
            ScenarioSegment {
                name: "g0".into(),
                stim: seg_stim(20),
                steps: SEG_STEPS,
                children: Vec::new(),
            },
            ScenarioSegment {
                name: "g1".into(),
                stim: seg_stim(21),
                steps: SEG_STEPS,
                children: Vec::new(),
            },
        ];
        ScenarioTree {
            roots: vec![TreeScenario {
                newton_tol: Some(1e-8),
                step_control: None,
                segment: ScenarioSegment {
                    name: "root".into(),
                    stim: seg_stim(99),
                    steps: SEG_STEPS,
                    children: vec![
                        ScenarioSegment {
                            name: "c0".into(),
                            stim: seg_stim(10),
                            steps: SEG_STEPS,
                            children: grandchildren,
                        },
                        ScenarioSegment {
                            name: "c1".into(),
                            stim: seg_stim(11),
                            steps: SEG_STEPS,
                            children: Vec::new(),
                        },
                        ScenarioSegment {
                            name: "c2".into(),
                            stim: seg_stim(12),
                            steps: SEG_STEPS,
                            children: Vec::new(),
                        },
                    ],
                },
            }],
        }
    }

    /// The flat scenarios equivalent to [`two_level_tree`]'s four
    /// root-to-leaf paths.
    fn two_level_flat() -> Vec<AmsScenario> {
        flat_paths(&[
            ("g0", 10, Some(20)),
            ("g1", 10, Some(21)),
            ("c1", 11, None),
            ("c2", 12, None),
        ])
    }

    /// Flat runs of root-to-leaf paths under a root seeded 99: each path
    /// is `(leaf name, middle seed, optional last seed)`, stitched with
    /// [`SwitchAt`] at the segment boundaries so every path samples the
    /// identical stimulus values its tree leaf sees.
    fn flat_paths(paths: &[(&str, u64, Option<u64>)]) -> Vec<AmsScenario> {
        let t1 = SEG_STEPS as f64 * TREE_DT;
        let t2 = 2.0 * t1;
        let leaf = |name: &str, mid: u64, last: Option<u64>| -> AmsScenario {
            let after: Box<dyn Stimulus + Send + Sync> = match last {
                Some(seed) => Box::new(SwitchAt {
                    t0: t2,
                    before: seg_stim(mid),
                    after: seg_stim(seed),
                }),
                None => seg_stim(mid),
            };
            AmsScenario {
                name: name.into(),
                stim: Box::new(SwitchAt {
                    t0: t1,
                    before: seg_stim(99),
                    after,
                }),
                steps: SEG_STEPS * if last.is_some() { 3 } else { 2 },
                newton_tol: Some(1e-8),
                step_control: None,
            }
        };
        paths
            .iter()
            .map(|&(name, mid, last)| leaf(name, mid, last))
            .collect()
    }

    fn segment(name: &str, seed: u64, children: Vec<ScenarioSegment>) -> ScenarioSegment {
        ScenarioSegment {
            name: name.into(),
            stim: seg_stim(seed),
            steps: SEG_STEPS,
            children,
        }
    }

    /// A forest whose middle sibling forks (6 nodes, 4 leaves): a chunk
    /// of all three siblings resolves the non-consecutive leaves 0 and 3
    /// and leaves the gap to `b`'s children.
    ///
    /// ```text
    /// root ─┬─ a
    ///       ├─ b ─┬─ b0
    ///       │     └─ b1
    ///       └─ c
    /// ```
    fn middle_fork_tree() -> ScenarioTree {
        let b = segment(
            "b",
            31,
            vec![segment("b0", 40, vec![]), segment("b1", 41, vec![])],
        );
        let children = vec![segment("a", 30, vec![]), b, segment("c", 32, vec![])];
        ScenarioTree {
            roots: vec![TreeScenario {
                newton_tol: Some(1e-8),
                step_control: None,
                segment: segment("root", 99, children),
            }],
        }
    }

    #[test]
    fn tree_sweep_depth1_conversion_matches_batched_sweep_bitwise() {
        let model = tree_model();
        let mk = || -> Vec<AmsScenario> {
            (0..7)
                .map(|i| AmsScenario {
                    name: format!("s{i}"),
                    stim: seg_stim(i as u64 + 1),
                    steps: 25,
                    newton_tol: if i % 2 == 0 { Some(1e-8) } else { None },
                    step_control: None,
                })
                .collect()
        };
        let flat = run_ams_sweep_batched(
            &SweepEngine::new().workers(2),
            &model,
            &mk(),
            4,
            &ScenarioBudget::unlimited(),
        )
        .unwrap();
        let tree = ScenarioTree::from(mk());
        assert_eq!(tree.node_count(), 7);
        assert_eq!(tree.leaf_count(), 7);
        for workers in [1usize, 2, 8] {
            let out = run_ams_sweep_tree(
                &SweepEngine::new().workers(workers),
                &model,
                &tree,
                4,
                &ScenarioBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(out.results.len(), 7);
            assert_eq!(out.report.counter("sweep.scenarios"), 7);
            assert_eq!(out.report.counter("sweep.scenarios.ok"), 7);
            assert_eq!(out.report.counter("sweep.tree.nodes"), 7);
            // Depth-1: no shared prefixes, so nothing forks or is saved.
            assert_eq!(out.report.counter("sweep.tree.forks"), 0);
            assert_eq!(out.report.counter("sweep.tree.prefix_steps_saved"), 0);
            assert_eq!(out.report.counter("amsim.snapshot.taken"), 0);
            for (i, (t, f)) in out.results.iter().zip(&flat.results).enumerate() {
                let (t, f) = (t.ok().unwrap(), f.ok().unwrap());
                assert_eq!(t.name, f.name);
                assert_eq!(t.newton_iters, f.newton_iters, "leaf {i}");
                let tb: Vec<u64> = t.waveform.iter().map(|v| v.to_bits()).collect();
                let fb: Vec<u64> = f.waveform.iter().map(|v| v.to_bits()).collect();
                assert_eq!(tb, fb, "leaf {i} at {workers} workers");
            }
            for c in ["amsim.steps", "amsim.newton_iterations"] {
                assert_eq!(out.report.counter(c), flat.report.counter(c), "{c}");
            }
        }
    }

    #[test]
    fn tree_sweep_forked_paths_match_flat_runs_bitwise() {
        let model = tree_model();
        let flat = run_ams_sweep_batched(
            &SweepEngine::new().workers(2),
            &model,
            &two_level_flat(),
            4,
            &ScenarioBudget::unlimited(),
        )
        .unwrap();
        let tree = two_level_tree();
        assert_eq!(tree.node_count(), 6);
        assert_eq!(tree.leaf_count(), 4);
        let mut reference: Option<Vec<(String, u64)>> = None;
        for (workers, lane_width) in [(1usize, 1usize), (2, 2), (8, 4)] {
            let out = run_ams_sweep_tree(
                &SweepEngine::new().workers(workers),
                &model,
                &tree,
                lane_width,
                &ScenarioBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(out.results.len(), 4);
            assert_eq!(out.report.counter("sweep.scenarios.ok"), 4);
            assert_eq!(out.report.counter("sweep.tree.nodes"), 6);
            // Two segments fan out: the root (4 leaves below) and c0 (2).
            assert_eq!(out.report.counter("sweep.tree.forks"), 2);
            assert_eq!(
                out.report.counter("sweep.tree.prefix_steps_saved"),
                (SEG_STEPS * 3 + SEG_STEPS) as u64
            );
            assert_eq!(out.report.counter("amsim.snapshot.taken"), 2);
            assert_eq!(out.report.counter("amsim.snapshot.restored"), 5);
            for (i, (t, f)) in out.results.iter().zip(&flat.results).enumerate() {
                let (t, f) = (t.ok().unwrap(), f.ok().unwrap());
                assert_eq!(t.name, f.name, "leaf order is depth-first");
                assert_eq!(t.newton_iters, f.newton_iters, "leaf {i} path-cumulative");
                assert_eq!(t.waveform.len(), f.waveform.len());
                let tb: Vec<u64> = t.waveform.iter().map(|v| v.to_bits()).collect();
                let fb: Vec<u64> = f.waveform.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    tb, fb,
                    "leaf {i}: forked waveform must be byte-identical to flat"
                );
            }
            // Solver-work counters are scheduling-independent. Only the
            // scheduling-dependent per-worker tallies and the job count
            // (`sweep.batch.blocks` follows lane_width chunking) vary.
            let stable: Vec<(String, u64)> = out
                .report
                .counters
                .iter()
                .filter(|(k, _)| !k.starts_with("sweep.worker") && *k != "sweep.batch.blocks")
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            match &reference {
                None => reference = Some(stable),
                Some(r) => assert_eq!(&stable, r, "{workers} workers / {lane_width} lanes"),
            }
            let per_worker: u64 = (0..workers)
                .map(|w| out.report.counter(&format!("sweep.worker.{w}.scenarios")))
                .sum();
            assert_eq!(per_worker, 4, "every leaf resolved exactly once");
        }

        // A sibling chunk whose middle segment forks: at lane width 4 the
        // chunk [a, b, c] resolves leaves 0 and 3 as two runs, and b's
        // children fill leaves 1 and 2 from a later job.
        let flat = run_ams_sweep_batched(
            &SweepEngine::new().workers(2),
            &model,
            &flat_paths(&[
                ("a", 30, None),
                ("b0", 31, Some(40)),
                ("b1", 31, Some(41)),
                ("c", 32, None),
            ]),
            4,
            &ScenarioBudget::unlimited(),
        )
        .unwrap();
        let tree = middle_fork_tree();
        for lane_width in [1usize, 4] {
            let out = run_ams_sweep_tree(
                &SweepEngine::new().workers(2),
                &model,
                &tree,
                lane_width,
                &ScenarioBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(out.report.counter("sweep.scenarios.ok"), 4);
            for (i, (t, f)) in out.results.iter().zip(&flat.results).enumerate() {
                let (t, f) = (t.ok().unwrap(), f.ok().unwrap());
                assert_eq!(t.name, f.name, "leaf {i} at lane width {lane_width}");
                assert_eq!(t.newton_iters, f.newton_iters, "leaf {i} path-cumulative");
                let tb: Vec<u64> = t.waveform.iter().map(|v| v.to_bits()).collect();
                let fb: Vec<u64> = f.waveform.iter().map(|v| v.to_bits()).collect();
                assert_eq!(tb, fb, "leaf {i} at lane width {lane_width}");
            }
            // Each job's report sits at its first node's first leaf. At
            // width 1: root+a at leaf 0, b+b0 at 1, b1 at 2, c at 3; at
            // width 4: root+[a, b, c] at leaf 0 and [b0, b1] at 1.
            let slot_steps: Vec<u64> = out
                .scenario_reports
                .iter()
                .map(|r| r.counter("amsim.steps"))
                .collect();
            let want = if lane_width == 1 {
                [20, 20, 10, 10]
            } else {
                [40, 20, 0, 0]
            };
            assert_eq!(slot_steps, want, "lane width {lane_width}");
        }
    }

    #[test]
    fn tree_sweep_amortizes_budget_over_shared_prefix() {
        let model = tree_model();
        // Each root-to-leaf path simulates 2·SEG_STEPS steps, but the
        // root is shared by two leaves, so a lane's own account is
        // SEG_STEPS/2 + SEG_STEPS = 15 charged steps.
        let tree = ScenarioTree {
            roots: vec![TreeScenario {
                newton_tol: None,
                step_control: None,
                segment: ScenarioSegment {
                    name: "root".into(),
                    stim: seg_stim(99),
                    steps: SEG_STEPS,
                    children: vec![
                        ScenarioSegment {
                            name: "a".into(),
                            stim: seg_stim(1),
                            steps: SEG_STEPS,
                            children: Vec::new(),
                        },
                        ScenarioSegment {
                            name: "b".into(),
                            stim: seg_stim(2),
                            steps: SEG_STEPS,
                            children: Vec::new(),
                        },
                    ],
                },
            }],
        };
        // A 15-step cap covers the amortized path cost: both leaves pass
        // where the flat 20-step path would have tripped.
        let out = run_ams_sweep_tree(
            &SweepEngine::new().workers(2),
            &model,
            &tree,
            2,
            &ScenarioBudget::unlimited().max_steps(15),
        )
        .unwrap();
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 2);
        // A cap below the amortized cost still trips — on the lane's own
        // account, not the block clock.
        let out = run_ams_sweep_tree(
            &SweepEngine::new().workers(2),
            &model,
            &tree,
            2,
            &ScenarioBudget::unlimited().max_steps(12),
        )
        .unwrap();
        assert_eq!(out.report.counter("sweep.scenarios.budget"), 2);
        for r in &out.results {
            match r {
                ScenarioOutcome::Budget(b) => assert_eq!(b.steps, 13),
                other => panic!("want Budget, got {other:?}"),
            }
        }
    }

    #[test]
    fn tree_sweep_fault_retires_only_its_subtree() {
        struct PanicAt(f64);
        impl Stimulus for PanicAt {
            fn value(&self, t: f64) -> f64 {
                assert!(t < self.0, "injected tree stimulus failure at t = {t}");
                0.5
            }
        }
        let model = tree_model();
        // The faulting segment has two leaves below it: both slots must
        // carry the panic record while the sibling subtree survives.
        let tree = ScenarioTree {
            roots: vec![TreeScenario {
                newton_tol: None,
                step_control: None,
                segment: ScenarioSegment {
                    name: "root".into(),
                    stim: seg_stim(99),
                    steps: SEG_STEPS,
                    children: vec![
                        ScenarioSegment {
                            name: "bad".into(),
                            stim: Box::new(PanicAt((SEG_STEPS + 3) as f64 * TREE_DT)),
                            steps: SEG_STEPS,
                            children: vec![
                                ScenarioSegment {
                                    name: "bad-0".into(),
                                    stim: seg_stim(1),
                                    steps: SEG_STEPS,
                                    children: Vec::new(),
                                },
                                ScenarioSegment {
                                    name: "bad-1".into(),
                                    stim: seg_stim(2),
                                    steps: SEG_STEPS,
                                    children: Vec::new(),
                                },
                            ],
                        },
                        ScenarioSegment {
                            name: "good".into(),
                            stim: seg_stim(3),
                            steps: SEG_STEPS,
                            children: Vec::new(),
                        },
                    ],
                },
            }],
        };
        for workers in [1usize, 2, 8] {
            let out = run_ams_sweep_tree(
                &SweepEngine::new().workers(workers),
                &model,
                &tree,
                2,
                &ScenarioBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(out.results.len(), 3);
            for i in [0usize, 1] {
                match &out.results[i] {
                    ScenarioOutcome::Panicked(msg) => {
                        assert!(msg.contains("injected tree stimulus failure"), "{msg}");
                    }
                    other => panic!("leaf {i}: want Panicked, got {other:?}"),
                }
            }
            let good = out.results[2].ok().expect("sibling subtree survives");
            assert_eq!(good.name, "good");
            assert_eq!(good.waveform.len(), 2 * SEG_STEPS);
            assert_eq!(out.report.counter("sweep.scenarios.ok"), 1);
            assert_eq!(out.report.counter("sweep.scenarios.panicked"), 2);
            assert_eq!(out.report.counter("sweep.scenarios"), 3);
        }
    }

    /// A panic that escapes a lane's own `catch_unwind` — here a panic
    /// payload whose `Drop` panics again while the lane records it —
    /// propagates out of the sweep instead of leaving the pool's other
    /// workers waiting on a job that never completes.
    #[test]
    fn escaping_panic_propagates_from_flat_and_tree_sweeps() {
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                panic!("panic payload dropped");
            }
        }
        struct Detonate;
        impl Stimulus for Detonate {
            fn value(&self, _t: f64) -> f64 {
                std::panic::panic_any(Bomb)
            }
        }
        for tree in [false, true] {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let model = tree_model();
                let scenarios = vec![AmsScenario {
                    name: "bomb".into(),
                    stim: Box::new(Detonate),
                    steps: SEG_STEPS,
                    newton_tol: None,
                    step_control: None,
                }];
                let engine = SweepEngine::new().workers(2);
                let budget = ScenarioBudget::unlimited();
                let swept = catch_unwind(AssertUnwindSafe(|| {
                    if tree {
                        let tree = ScenarioTree::from(scenarios);
                        run_ams_sweep_tree(&engine, &model, &tree, 1, &budget).map(drop)
                    } else {
                        run_ams_sweep_batched(&engine, &model, &scenarios, 1, &budget).map(drop)
                    }
                }));
                let _ = tx.send(swept.is_err());
            });
            let panicked = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("tree = {tree}: sweep still blocked after 10 s"));
            assert!(panicked, "tree = {tree}: the escaping panic must propagate");
        }
    }

    #[test]
    fn tree_sweep_empty_forest_is_fine() {
        let model = tree_model();
        let tree = ScenarioTree { roots: Vec::new() };
        let out = run_ams_sweep_tree(
            &SweepEngine::new().workers(4),
            &model,
            &tree,
            8,
            &ScenarioBudget::unlimited(),
        )
        .unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.report.counter("sweep.scenarios"), 0);
        assert_eq!(out.report.counter("sweep.tree.nodes"), 0);
    }
}
