//! Work-stealing parallel scenario sweeps over shared compiled models.
//!
//! The paper's experiments (Tables I–III) are *sweeps*: the same circuit
//! simulated many times under varying stimuli, time steps, and solver
//! settings. Compiling a Verilog-AMS module — parsing, conservative-law
//! extraction, discretization, bytecode generation, symbolic Jacobian —
//! costs far more than any single transient run, so repeating it per run
//! would dominate a sweep. This crate exploits the model/instance split
//! introduced in [`amsim`]: one immutable, `Send + Sync` compiled model
//! ([`amsim::CompiledModel`]) is compiled **once**, wrapped in an
//! [`Arc`], and shared by every worker; each scenario then pays only for
//! a cheap per-run instance.
//!
//! [`run_ams_sweep`] is the one AMS sweep entry: it runs a
//! [`ScenarioTree`] under [`SweepOptions`] (lane width, per-scenario
//! budget, optional recovery ladder) and hands each finished unit of work
//! to an observer. A flat scenario list is the depth-1 tree
//! (`ScenarioTree::from`). Every pool job steps up to `lane_width`
//! sibling segments as one [`amsim::BatchInstance`] — one lane-block
//! driver for flat, recovering and forking sweeps alike — and a job that
//! finishes a shared prefix queues its children's chunks.
//!
//! [`SweepEngine::run_batched`] is the generic block entry on the same
//! pool (the fleet runner's). Worker *w* starts on job *w* and then pops
//! the queue, so fast workers drain it while slow jobs never stall the
//! pool (a pool of one works on the calling thread). Every job records
//! into its own [`obs::Obs`] collector (no contention on a shared lock in
//! the hot loop); the engine merges the job reports **in key order** —
//! together with sweep-level counters and wall-time histograms — so the
//! merged [`Report`] is identical regardless of worker count or
//! scheduling.
//!
//! # Example
//!
//! ```
//! use amsvp_sweep::SweepEngine;
//!
//! let engine = SweepEngine::new().workers(4);
//! let scenarios: Vec<u64> = (0..32).collect();
//! let outcome = engine.run_batched(&scenarios, 8, |obs, block| {
//!     obs.add("work.items", block.len() as u64);
//!     block.iter().map(|s| s * s).collect()
//! });
//! assert_eq!(outcome.results[5], 25);
//! assert_eq!(outcome.report.counter("work.items"), 32);
//! assert_eq!(outcome.report.counter("sweep.batch.blocks"), 4);
//! ```

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use amsim::{AmsError, BatchInstance, CompiledModel, Snapshot};
use amsvp_core::circuits::Stimulus;
use obs::{Obs, Report};

mod recovery;
pub use recovery::{FaultKind, FaultPlan, FaultSpec, Recovery, RecoveryAttempt, RecoveryRung};

/// Per-scenario step/wall-clock budget for fault-isolated sweeps.
///
/// A runaway scenario — an adaptive run grinding at `min_dt`, an
/// accidental infinite stimulus — must not starve its siblings of a
/// worker forever. The sweep charges each lane's progress before every
/// step; once either cap is exceeded the scenario is cut short with a
/// [`BudgetExceeded`] record instead of an `Ok` result.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioBudget {
    max_steps: Option<u64>,
    max_wall: Option<f64>,
}

impl ScenarioBudget {
    /// No caps: [`ScenarioBudget::check`] never fails.
    pub fn unlimited() -> ScenarioBudget {
        ScenarioBudget::default()
    }

    /// Caps the number of steps a scenario may charge.
    #[must_use]
    pub fn max_steps(mut self, n: u64) -> ScenarioBudget {
        self.max_steps = Some(n);
        self
    }

    /// Caps a scenario's wall-clock time in seconds (checked before each
    /// step, so a step that never returns is not interrupted).
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

    /// Checks already-charged progress against both caps, exposed so
    /// block bodies on [`SweepEngine::run_batched`] (the fleet runner's)
    /// keep **per-lane** accounts against one shared budget, as the AMS
    /// sweep does.
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

/// Per-scenario verdict of a fault-isolated sweep: exactly one of these
/// lands in [`SweepOutcome::results`] for every input index — faults are
/// *recorded*, never propagated, so one bad scenario cannot discard its
/// siblings' finished waveforms.
#[derive(Debug)]
pub enum ScenarioOutcome<R, E> {
    /// The scenario completed; its result.
    Ok(R),
    /// The scenario faulted but a rung of the recovery ladder completed
    /// it ([`SweepOptions::recovery`]); the result is **bit-identical**
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
        /// Empty when no ladder ran.
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

/// One finished unit of sweep work, handed to the observer of
/// [`run_ams_sweep`] **before** the final merge.
///
/// A lane-block delivers one event per maximal run of consecutive leaves
/// it resolves (`first_index` = the run's first leaf index, `results` in
/// leaf order), with the block's report on its first event and an empty
/// report on any later one. A flat sweep's blocks resolve whole runs, so
/// there that is one event per lane-block; a block that only runs a
/// shared prefix resolves no leaf and fires no event (its counters reach
/// the merged report alone). Events arrive in **completion order** — scheduling-dependent by nature; a streaming consumer that
/// needs a deterministic byte stream must reorder on `first_index` (the
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
}

/// Everything a finished sweep produces.
pub struct SweepOutcome<R> {
    /// One result per scenario, in input order.
    pub results: Vec<R>,
    /// Every job's report merged in key order, plus the sweep-level
    /// `sweep.*` counters and timers (see [`SweepEngine::run_batched`]).
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

    /// Runs `f` once per **lane-block** of up to `lane_width` scenarios
    /// (threads × lanes), one pool job per block: the body gets the
    /// block's own recording collector and returns one result per
    /// scenario in its block, in block order. Fault isolation *within* a
    /// block is the body's job: `vp::run_fleet`'s body catches each
    /// device's panics and charges its budget per lane.
    ///
    /// With at least as many blocks as workers, every worker runs at
    /// least one. The merged [`SweepOutcome::report`] is the block
    /// reports merged in block order — independent of worker count and
    /// scheduling — plus:
    ///
    /// * `sweep.scenarios` — number of scenarios executed;
    /// * `sweep.workers` — pool size;
    /// * `sweep.worker.{w}.scenarios` — scenarios executed by worker *w*
    ///   (scheduling-dependent; everything else is not);
    /// * `sweep.batch.blocks` — number of lane-blocks executed;
    /// * `sweep.block` — wall-time histogram over blocks, observed in
    ///   block order;
    /// * `sweep.wall` — one observation: the whole sweep's wall time.
    ///
    /// # Panics
    ///
    /// Panics if the body returns a result count different from its
    /// block's scenario count; propagates panics from `f`, with their
    /// payload, once all workers have stopped.
    pub fn run_batched<S, R, F>(&self, scenarios: &[S], lane_width: usize, f: F) -> SweepOutcome<R>
    where
        S: Sync,
        R: Send,
        F: Fn(&Obs, &[S]) -> Vec<R> + Sync,
    {
        let lane_width = lane_width.max(1);
        let firsts = (0..scenarios.len()).step_by(lane_width);
        let seeds = firsts.zip(scenarios.chunks(lane_width)).collect();
        let run = |(first, block): (usize, &[S]), obs: &Obs| {
            let results = f(obs, block);
            assert_eq!(
                results.len(),
                block.len(),
                "batched body must return one result per scenario in the block"
            );
            JobOutput::at(first, results)
        };
        run_pool(self.workers, scenarios.len(), seeds, run, |_| {})
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

// --------------------------------------------------------------- the pool

/// What one pool job produced.
struct JobOutput<J, R> {
    /// Merge key, unique per job: job reports merge, and the per-job
    /// timer observes, in key order, so the merged report never depends
    /// on scheduling.
    key: usize,
    /// The job's results as runs of consecutive slots, each with its
    /// first slot.
    runs: Vec<(usize, Vec<R>)>,
    /// Follow-up jobs (a finished tree prefix forks its children).
    forks: Vec<J>,
}

impl<J, R> JobOutput<J, R> {
    /// A lane-block that fills the consecutive slots from `first` and
    /// forks nothing.
    fn at(first: usize, results: Vec<R>) -> Self {
        JobOutput {
            key: first,
            runs: vec![(first, results)],
            forks: Vec::new(),
        }
    }
}

/// The pool's job queue. Jobs *create* jobs (a finished prefix fans its
/// children out), so the pool tracks outstanding work explicitly:
/// workers sleep on the condvar while the queue is empty but running
/// jobs may still fork, and exit once no job is queued or running.
struct JobQueue<J> {
    /// `(queued jobs, jobs created but not yet completed)`.
    state: Mutex<(VecDeque<J>, usize)>,
    cv: Condvar,
}

impl<J> JobQueue<J> {
    /// Claims a job, blocking while outstanding jobs may still fork new
    /// ones; `None` once every job has completed.
    fn pop(&self) -> Option<J> {
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

    /// Enqueues follow-up jobs created by a running (still-outstanding)
    /// job.
    fn push(&self, jobs: Vec<J>) {
        if jobs.is_empty() {
            return;
        }
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
/// zero. Wakes sleepers once every job has completed so they can exit.
struct Claimed<'q, J>(&'q JobQueue<J>);

impl<J> Drop for Claimed<'_, J> {
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

/// A finished pool job: `(worker, output, report, seconds)`.
type Finished<J, R> = (usize, JobOutput<J, R>, Report, f64);

/// Pool worker `w`: runs `first`, then pops `queue` until every job has
/// completed, handing each finished job to `done`; stops early when
/// `done` returns false.
fn work<J, R, F>(
    w: usize,
    mut first: Option<J>,
    queue: &JobQueue<J>,
    run: &F,
    mut done: impl FnMut(Finished<J, R>) -> bool,
) where
    F: Fn(J, &Obs) -> JobOutput<J, R>,
{
    while let Some(job) = first.take().or_else(|| queue.pop()) {
        let _claimed = Claimed(queue);
        let t0 = Instant::now();
        let obs = Obs::recording();
        let mut output = run(job, &obs);
        let secs = t0.elapsed().as_secs_f64();
        let report = obs.report().unwrap_or_default();
        // Forks go in before this job completes, so the outstanding count
        // never transiently hits zero.
        queue.push(std::mem::take(&mut output.forks));
        if !done((w, output, report, secs)) {
            return;
        }
    }
}

/// The crate's one scheduler: runs `seeds`, and every job they fork, on
/// `workers` scoped threads, or on the caller's thread when `workers` is
/// 1, and assembles `slots` results in index order.
///
/// Worker *w* starts on seed *w*, then pops the queue, so with at least
/// as many seeds as workers every worker runs at least one job. Each job
/// records into its own `Obs::recording()` collector. Finished jobs
/// reach the caller's thread in completion order, where `observe` fires
/// once per run of results, with the job's report on the first event.
///
/// The merged report is the job reports in key order plus
/// `sweep.scenarios` (= `slots`), `sweep.workers`,
/// `sweep.worker.{w}.scenarios`, `sweep.batch.blocks` (= jobs), one
/// `sweep.block` wall-time observation per job in key order, and
/// `sweep.wall`.
///
/// A panic that escapes a job propagates, with its payload, once every
/// worker has stopped: the [`Claimed`] guard completes the job, so no
/// worker waits for it.
fn run_pool<J, R, F, O>(
    workers: usize,
    slots: usize,
    seeds: Vec<J>,
    run: F,
    mut observe: O,
) -> SweepOutcome<R>
where
    J: Send,
    R: Send,
    F: Fn(J, &Obs) -> JobOutput<J, R> + Sync,
    O: FnMut(SweepEvent<'_, R>),
{
    let start = Instant::now();
    let outstanding = seeds.len();
    // Split the seeds off the deque itself: on rustc 1.95's std, a deque
    // collected from a partly consumed `vec::IntoIter` corrupts its
    // elements once it grows.
    let mut queued = VecDeque::from(seeds);
    let mut firsts: Vec<Option<J>> = (0..workers).map(|_| queued.pop_front()).collect();
    let queue = JobQueue {
        state: Mutex::new((queued, outstanding)),
        cv: Condvar::new(),
    };
    let mut results: Vec<Option<R>> = Vec::with_capacity(slots);
    results.resize_with(slots, || None);
    let mut per_worker = vec![0u64; workers];
    // `(key, report, secs)` per job, merged in key order after the run
    // so the merged report never depends on scheduling.
    let mut jobs: Vec<(usize, Report, f64)> = Vec::new();
    let empty = Report::default();
    // Takes in one finished job, on the caller's thread.
    let mut finish = |(w, output, report, secs): Finished<J, R>| {
        for (i, (first, run)) in output.runs.iter().enumerate() {
            observe(SweepEvent {
                first_index: *first,
                results: run,
                report: if i == 0 { &report } else { &empty },
            });
        }
        for (first, run) in output.runs {
            per_worker[w] += run.len() as u64;
            for (slot, r) in (first..).zip(run) {
                debug_assert!(results[slot].is_none(), "slot {slot} resolved twice");
                results[slot] = Some(r);
            }
        }
        jobs.push((output.key, report, secs));
    };

    if workers == 1 {
        // A pool of one works on the caller's thread: no thread per
        // sweep, and no memory that one thread allocates and another
        // frees, which would leave each allocator arena's footprint to
        // the timing between them.
        work(0, firsts.pop().flatten(), &queue, &run, |done| {
            finish(done);
            true
        });
    } else {
        let (tx, rx) = mpsc::channel::<Finished<J, R>>();
        let escaped = std::thread::scope(|scope| {
            let handles: Vec<_> = firsts
                .into_iter()
                .enumerate()
                .map(|(w, first)| {
                    let tx = tx.clone();
                    let (queue, run) = (&queue, &run);
                    scope.spawn(move || work(w, first, queue, run, |done| tx.send(done).is_ok()))
                })
                .collect();
            drop(tx);
            rx.into_iter().for_each(&mut finish);
            // `scope` waits for the workers' closures, not for their
            // threads to exit. Joining them does, so no worker outlives
            // the sweep to race the next sweep's workers for an arena.
            handles
                .into_iter()
                .fold(None, |escaped, h| escaped.or(h.join().err()))
        });
        if let Some(payload) = escaped {
            std::panic::resume_unwind(payload);
        }
    }

    let wall = start.elapsed().as_secs_f64();

    jobs.sort_by_key(|&(key, ..)| key);
    let mut report = Report::default();
    let sweep_obs = Obs::recording();
    sweep_obs.add("sweep.batch.blocks", jobs.len() as u64);
    for (_, job_report, secs) in jobs {
        sweep_obs.time("sweep.block", secs);
        report.merge(&job_report);
    }
    sweep_obs.add("sweep.scenarios", slots as u64);
    sweep_obs.add("sweep.workers", workers as u64);
    for (w, count) in per_worker.iter().enumerate() {
        sweep_obs.add(&format!("sweep.worker.{w}.scenarios"), *count);
    }
    sweep_obs.time("sweep.wall", wall);
    report.merge(&sweep_obs.report().unwrap_or_default());

    let results = results
        .into_iter()
        .map(|r| r.expect("every slot is resolved by exactly one job"))
        .collect();
    SweepOutcome {
        results,
        report,
        wall,
        workers,
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
    /// `{prefix}.recovered`; only a sweep whose recovery ladder is on
    /// opts in, so every other sweep keeps its historical report schema
    /// exactly.
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

/// What [`run_ams_sweep`] runs with besides the model and the tree.
#[derive(Clone, Default)]
pub struct SweepOptions {
    /// Sibling segments per [`amsim::BatchInstance`] (threads × lanes;
    /// `0` counts as 1). Like the worker count, a pure performance knob.
    pub lane_width: usize,
    /// The per-scenario step/wall budget, charged per lane.
    pub budget: ScenarioBudget,
    /// The recovery ladder, fault plan and kill switch; `None` runs
    /// without any of them.
    pub recovery: Option<Recovery>,
}

/// Sweeps a [`ScenarioTree`] over one shared compiled Verilog-AMS model:
/// the one AMS sweep entry. A flat `Vec<AmsScenario>` is the depth-1
/// tree (`ScenarioTree::from`); a caller with no observer passes
/// `|_| {}`.
///
/// The model is compiled once by the caller ([`amsim::Simulation::compile`]);
/// every pool job steps up to `lane_width` sibling segments as one
/// [`amsim::BatchInstance`], so the merged `amsim.jacobian.builds` stays
/// at the compile-time value however many scenarios run. Every shared
/// prefix is simulated **once**: a segment with children runs as a
/// single lane, snapshots at its end ([`BatchInstance::snapshot_lane`]),
/// and fans its children out into fresh lane-blocks seeded from that
/// checkpoint ([`BatchInstance::fork_from`]). Subtrees are work-stolen by
/// the engine's pool, so independent branches simulate concurrently.
///
/// Results land in **leaf order** (depth-first, left to right), one
/// [`ScenarioOutcome`] per leaf. Every leaf's waveform is
/// **bit-identical** to the same root-to-leaf path run alone from
/// `t = 0` on one lane — a lane performs the one-lane path's IEEE ops in
/// the same order, the snapshot replays the exact ddt/idt history,
/// adaptive-dt state and factorization validity, and stimuli are sampled
/// at absolute time — so tree structure, `lane_width` and the worker
/// count are pure performance knobs.
///
/// **Fault isolation** is per lane: a lane that fails Newton is retired
/// by the batch with its typed [`AmsError`], a panicking stimulus is
/// caught around that lane's sample alone, and a fault on a segment
/// records itself in every leaf slot below it; siblings are untouched.
/// **Budgets** are charged against each lane's own path: a step of a
/// segment shared by `s` leaves charges `1/s` of a step, and wall time is
/// attributed per lane — sampling to the sampling lane, each batched
/// solve split evenly over the lanes that entered it — divided by the
/// same share, so a slow sibling cannot trip a healthy lane's
/// `max_wall`. At depth 1 that is plain per-scenario accounting.
///
/// **Recovery** ([`SweepOptions::recovery`]): the ladder, its periodic
/// checkpoints and the fault plan act on childless roots only — whole
/// scenarios from `t = 0`, which is every lane of a flat sweep. A lane
/// that faults with a typed error or a panic climbs the ladder (see
/// [`Recovery`]) and reports [`ScenarioOutcome::Recovered`] or a
/// `Failed` outcome with its attempt trail. A fault on a shared prefix or
/// a forked segment stays final, and budget verdicts are never laddered.
/// The kill switch cuts every running lane.
///
/// `observe` fires on the caller's thread for every finished lane-block,
/// outcomes and flushed counters included (see [`SweepEvent`]).
///
/// The merged report carries, beyond [`SweepEngine::run_batched`]'s
/// `sweep.*` families:
///
/// * the `amsim.*` solver counters and `amsim.batch.{lanes,
///   masked_iterations}`;
/// * `sweep.scenarios.{ok,failed,panicked,budget}` (all four always
///   present), plus `sweep.scenarios.recovered` when the ladder is on;
/// * `sweep.tree.forks` (segments that completed and fanned out) and
///   `sweep.tree.prefix_steps_saved` (nominal steps a flat sweep would
///   have re-simulated: `Σ steps · (leaves_below − 1)` over forked
///   segments), with `amsim.snapshot.{taken,restored}`;
/// * with recovery, `recovery.attempts.*`, `recovery.recovered.*`,
///   `recovery.gave_up` and, in a `fault-inject` build, `fault.injected.*`.
///
/// `sweep.scenarios` counts leaves.
///
/// # Errors
///
/// [`AmsError::InvalidTolerance`] / [`AmsError::InvalidStepControl`] if
/// any root's override is ill-formed for the model's `dt` or the recovery
/// fallback's (checked up front, before any worker starts —
/// configuration mistakes are the caller's bug and fail the sweep; only
/// *runtime* faults are isolated).
pub fn run_ams_sweep<O>(
    engine: &SweepEngine,
    model: &Arc<CompiledModel>,
    tree: &ScenarioTree,
    options: &SweepOptions,
    observe: O,
) -> Result<SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>, AmsError>
where
    O: FnMut(SweepEvent<'_, ScenarioOutcome<AmsRun, AmsError>>),
{
    Forest::of_tree(tree).run(engine, model, options, observe)
}

/// [`run_ams_sweep`] of a flat scenario list, with no recovery and no
/// observer. Kept for the `perf` benchmark until it calls
/// [`run_ams_sweep`] itself.
///
/// # Errors
///
/// As for [`run_ams_sweep`].
pub fn run_ams_sweep_batched(
    engine: &SweepEngine,
    model: &Arc<CompiledModel>,
    scenarios: &[AmsScenario],
    lane_width: usize,
    budget: &ScenarioBudget,
) -> Result<SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>, AmsError> {
    run_ams_sweep_batched_with(engine, model, scenarios, lane_width, budget, |_| {})
}

/// [`run_ams_sweep`] of a flat scenario list, with no recovery. Kept for
/// the `perf` benchmark until it calls [`run_ams_sweep`] itself.
///
/// # Errors
///
/// As for [`run_ams_sweep`].
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
    let options = SweepOptions {
        lane_width,
        budget: *budget,
        recovery: None,
    };
    Forest::of_scenarios(scenarios).run(engine, model, &options, observe)
}

/// [`run_ams_sweep`] with no recovery and no observer. Kept for the
/// `perf` benchmark until it calls [`run_ams_sweep`] itself.
///
/// # Errors
///
/// As for [`run_ams_sweep`].
pub fn run_ams_sweep_tree(
    engine: &SweepEngine,
    model: &Arc<CompiledModel>,
    tree: &ScenarioTree,
    lane_width: usize,
    budget: &ScenarioBudget,
) -> Result<SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>, AmsError> {
    let options = SweepOptions {
        lane_width,
        budget: *budget,
        recovery: None,
    };
    run_ams_sweep(engine, model, tree, &options, |_| {})
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
/// break bit-identity with the same path run from `t = 0`).
pub struct TreeScenario {
    /// Newton tolerance override; `None` keeps the model's tolerance.
    pub newton_tol: Option<f64>,
    /// Adaptive step-control override; `None` keeps the model's control.
    pub step_control: Option<amsim::StepControl>,
    /// The root stimulus segment.
    pub segment: ScenarioSegment,
}

/// A forest of stimulus segments for [`run_ams_sweep`]: shared prefixes
/// are simulated **once** and children fork from a snapshot at each
/// segment boundary.
///
/// Leaves are indexed depth-first, left to right — result slot `i` of
/// the sweep is the `i`-th leaf in that order. A flat `Vec<AmsScenario>`
/// converts into the equivalent depth-1 forest via `From`.
pub struct ScenarioTree {
    /// The independent root scenarios.
    pub roots: Vec<TreeScenario>,
}

impl ScenarioTree {
    /// Total segments in the forest.
    pub fn node_count(&self) -> usize {
        Forest::of_tree(self).nodes.len()
    }

    /// Total leaves — the number of result slots a sweep produces.
    pub fn leaf_count(&self) -> usize {
        Forest::of_tree(self).leaves
    }
}

impl From<Vec<AmsScenario>> for ScenarioTree {
    /// A flat scenario list is a depth-1 forest: every scenario becomes
    /// a childless root (leaf order = input order).
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
            for &dt in dts {
                amsim::validate_overrides(node.newton_tol, node.step_control, dt)?;
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
/// takes a `Failed` or `Panicked` whole-scenario lane over.
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
    /// Whether the lane is a whole scenario from `t = 0` (a childless
    /// root), the only kind the recovery ladder takes over.
    whole: bool,
    /// Last periodic checkpoint, with the waveform length at capture
    /// time (= the nominal step the resume rung restarts at).
    checkpoint: Option<(Snapshot, usize)>,
    /// The fault plan's pick for a whole-scenario lane, keyed by its leaf
    /// index so the same scenarios fault at any lane width; always `None`
    /// unless `fault-inject` is compiled in.
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

/// What every job of one sweep shares.
struct Driver<'a> {
    model: &'a Arc<CompiledModel>,
    nodes: &'a [FlatNode<'a>],
    lane_width: usize,
    budget: &'a ScenarioBudget,
    recovery: Option<&'a Recovery>,
}

impl Forest<'_> {
    /// The one lane-block driver behind every AMS sweep: flat sweeps are
    /// depth-1 forests, and deeper forests fork shared prefixes. Checks
    /// the overrides, then seeds the pool with root chunks of up to
    /// `lane_width` roots; a job that finishes a shared segment pushes its
    /// children's chunks.
    ///
    /// Results land in leaf order, and job reports merge in first-node
    /// order. `observe` fires on the caller's thread once per maximal run
    /// of consecutive leaves a job resolves, with the job's report on the
    /// first event (one event per lane-block at depth 1).
    fn run<O>(
        &self,
        engine: &SweepEngine,
        model: &Arc<CompiledModel>,
        options: &SweepOptions,
        observe: O,
    ) -> Result<SweepOutcome<ScenarioOutcome<AmsRun, AmsError>>, AmsError>
    where
        O: FnMut(SweepEvent<'_, ScenarioOutcome<AmsRun, AmsError>>),
    {
        let recovery = options.recovery.as_ref();
        let fallback = recovery.and_then(|r| r.fallback.as_ref());
        self.check(&[model.dt(), fallback.map_or(model.dt(), |fb| fb.dt())])?;
        let lane_width = options.lane_width.max(1);
        let driver = Driver {
            model,
            nodes: &self.nodes,
            lane_width,
            budget: &options.budget,
            recovery,
        };
        // Seed the pool with root chunks; running jobs push the forks.
        let roots = self
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
        let run = |job: Job, obs: &Obs| {
            let (runs, forks) = driver.run_job(&job, obs);
            JobOutput {
                key: job.nodes[0],
                runs,
                forks,
            }
        };
        let mut out = run_pool(engine.worker_count(), self.leaves, roots, run, observe);
        let ladder = driver.ladder().is_some();
        OutcomeTally::of(&out.results).merge_into(&mut out.report, "sweep.scenarios", ladder);
        Ok(out)
    }
}

impl Driver<'_> {
    /// The recovery policy, when its ladder is on (`max_recoveries > 0`).
    fn ladder(&self) -> Option<&Recovery> {
        self.recovery.filter(|r| r.policy.max_recoveries > 0)
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
        let snap_every = self.ladder().map_or(0, |r| r.policy.snapshot_every_n_steps);
        let cancel = self.recovery.and_then(|r| r.cancel.as_deref());
        let mut lanes: Vec<LaneRun<'_>> = job
            .nodes
            .iter()
            .map(|&id| {
                let node = &self.nodes[id];
                // The ladder, its checkpoints and the fault plan act on
                // whole scenarios from `t = 0` only: childless roots.
                let whole = job.snap.is_none() && node.children.is_empty();
                LaneRun {
                    node,
                    waveform: Vec::with_capacity(node.steps),
                    fault: None,
                    charged: job.charged,
                    wall: job.wall,
                    in_solve: false,
                    whole,
                    checkpoint: None,
                    plan: self
                        .recovery
                        .filter(|_| cfg!(feature = "fault-inject") && whole)
                        .and_then(|r| r.plan.fault_for(node.first_leaf, node.steps as u64)),
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
                    let live = lane.fault.is_none() && batch.lane_active(l);
                    if lane.whole && k + 1 < lane.node.steps && live {
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
            match (fault, self.ladder().filter(|_| lane.whole)) {
                // Budget verdicts (cancellations included) are final.
                (Some(fault @ (LaneFault::Failed(_) | LaneFault::Panicked(_))), Some(recovery)) => {
                    let outcome = recovery::run_ladder(self, recovery, lane, fault, obs);
                    push_leaf(&mut runs, node.first_leaf, outcome);
                }
                // A fault retires the whole subtree: every leaf below
                // gets the record, and no children are forked.
                (Some(fault), _) => {
                    for leaf in node.first_leaf..node.first_leaf + node.leaves_below {
                        push_leaf(&mut runs, leaf, fault.outcome());
                    }
                }
                (None, _) if node.children.is_empty() => {
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
                (None, _) => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use amsvp_core::circuits::{rc_ladder, PiecewiseConstant};

    /// A pool of one starts no thread: every job runs on the caller's
    /// thread.
    #[test]
    fn one_worker_pool_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let blocks: Vec<usize> = (0..9).collect();
        let out = SweepEngine::new()
            .workers(1)
            .run_batched(&blocks, 2, |_, block| {
                vec![std::thread::current().id(); block.len()]
            });
        assert_eq!(out.results, vec![caller; 9]);
        assert_eq!(out.report.counter("sweep.worker.0.scenarios"), 9);
    }

    #[test]
    fn runs_every_scenario_exactly_once_in_order() {
        let engine = SweepEngine::new().workers(3);
        let scenarios: Vec<u64> = (0..17).collect();
        let out = engine.run_batched(&scenarios, 1, |obs, block| {
            obs.add("touched", 1);
            block.iter().map(|s| (*s, s * 2)).collect()
        });
        assert_eq!(out.workers, 3);
        assert_eq!(out.results.len(), 17);
        for (i, (s, doubled)) in out.results.iter().enumerate() {
            assert_eq!(*s, i as u64, "slot {i} holds another scenario's result");
            assert_eq!(*doubled, 2 * i as u64);
        }
        assert_eq!(out.report.counter("touched"), 17);
        assert_eq!(out.report.counter("sweep.scenarios"), 17);
        assert_eq!(out.report.counter("sweep.workers"), 3);
        let per_worker: u64 = (0..3)
            .map(|w| out.report.counter(&format!("sweep.worker.{w}.scenarios")))
            .sum();
        assert_eq!(per_worker, 17);
        assert_eq!(out.report.timers["sweep.block"].count, 17);
        assert_eq!(out.report.timers["sweep.wall"].count, 1);
    }

    #[test]
    fn tolerates_more_workers_than_scenarios() {
        let engine = SweepEngine::new().workers(8);
        let scenarios = [10usize, 20];
        let out = engine.run_batched(&scenarios, 1, |_, block| {
            block.iter().map(|s| s + 1).collect()
        });
        assert_eq!(out.results, vec![11, 21]);
        assert_eq!(out.report.counter("sweep.scenarios"), 2);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let engine = SweepEngine::new().workers(2);
        let scenarios: [u8; 0] = [];
        let out = engine.run_batched(&scenarios, 4, |_, block| block.to_vec());
        assert!(out.results.is_empty());
        assert_eq!(out.report.counter("sweep.scenarios"), 0);
        assert_eq!(out.report.counter("sweep.batch.blocks"), 0);
    }

    /// Options for a plain sweep at `lane_width`: no budget, no recovery.
    fn lanes(lane_width: usize) -> SweepOptions {
        SweepOptions {
            lane_width,
            ..SweepOptions::default()
        }
    }

    /// `scenarios` as a flat sweep: 2 workers, 4 lanes.
    fn flat_sweep(
        model: &Arc<CompiledModel>,
        scenarios: Vec<AmsScenario>,
    ) -> SweepOutcome<ScenarioOutcome<AmsRun, AmsError>> {
        let engine = SweepEngine::new().workers(2);
        let tree = ScenarioTree::from(scenarios);
        run_ams_sweep(&engine, model, &tree, &lanes(4), |_| {}).unwrap()
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
        let tree = ScenarioTree::from(scenarios);
        let out = run_ams_sweep(
            &SweepEngine::new().workers(3),
            &model,
            &tree,
            &lanes(1),
            |_| {},
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
        for tol in [0.0, f64::NAN, f64::INFINITY] {
            let scenarios = vec![AmsScenario {
                name: "bad".into(),
                stim: Box::new(PiecewiseConstant::seeded(1, 2, 1e-5, 0.0, 1.0)),
                steps: 10,
                newton_tol: Some(tol),
                step_control: None,
            }];
            let tree = ScenarioTree::from(scenarios);
            let err = run_ams_sweep(
                &SweepEngine::new().workers(1),
                &model,
                &tree,
                &lanes(1),
                |_| {},
            );
            assert!(
                matches!(err, Err(AmsError::InvalidTolerance { .. })),
                "tolerance {tol}"
            );
        }

        let scenarios = vec![AmsScenario {
            name: "bad-control".into(),
            stim: Box::new(PiecewiseConstant::seeded(1, 2, 1e-5, 0.0, 1.0)),
            steps: 10,
            newton_tol: None,
            step_control: Some(amsim::StepControl::new(1.0)),
        }];
        let tree = ScenarioTree::from(scenarios);
        let err = run_ams_sweep(
            &SweepEngine::new().workers(1),
            &model,
            &tree,
            &lanes(1),
            |_| {},
        );
        assert!(matches!(err, Err(AmsError::InvalidStepControl { .. })));
    }

    /// Lane width and worker count are pure performance knobs: every
    /// lane-block layout reproduces the one-lane, one-worker sweep (the
    /// scalar path: `amsim::Instance` is lane 0 of a one-lane batch) bit
    /// for bit, with the same solver work. A flat list is the depth-1
    /// forest, so nothing forks.
    #[test]
    fn batched_sweep_matches_scalar_bitwise_for_any_lane_width_and_workers() {
        let module = vams_parser::parse_module(&rc_ladder(2)).unwrap();
        let model = amsim::Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .unwrap();
        let tree = ScenarioTree::from(
            (0..13)
                .map(|i| AmsScenario {
                    name: format!("s{i}"),
                    stim: Box::new(PiecewiseConstant::seeded(i as u64 + 1, 4, 2e-5, 0.0, 1.0)),
                    steps: 40,
                    newton_tol: if i % 3 == 0 { Some(1e-8) } else { None },
                    step_control: None,
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(tree.node_count(), 13);
        assert_eq!(tree.leaf_count(), 13);
        let sweep = |workers: usize, lane_width: usize| {
            let engine = SweepEngine::new().workers(workers);
            run_ams_sweep(&engine, &model, &tree, &lanes(lane_width), |_| {}).unwrap()
        };
        let scalar = sweep(1, 1);
        for (lane_width, workers) in [(1usize, 2usize), (4, 2), (8, 8), (13, 3)] {
            let batched = sweep(workers, lane_width);
            assert_eq!(
                batched.report.counter("sweep.batch.blocks"),
                13u64.div_ceil(lane_width as u64),
                "lane_width {lane_width}"
            );
            assert_eq!(batched.report.counter("amsim.batch.lanes"), 13);
            assert_eq!(batched.report.counter("sweep.scenarios"), 13);
            assert_eq!(batched.report.counter("sweep.scenarios.ok"), 13);
            // Depth 1: no shared prefixes, so nothing forks or is saved.
            assert_eq!(batched.report.counter("sweep.tree.forks"), 0);
            assert_eq!(batched.report.counter("sweep.tree.prefix_steps_saved"), 0);
            assert_eq!(batched.report.counter("amsim.snapshot.taken"), 0);
            for (i, (b, s)) in batched.results.iter().zip(&scalar.results).enumerate() {
                let (b, s) = (b.ok().unwrap(), s.ok().unwrap());
                assert_eq!(b.name, s.name);
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
        let out = run_ams_sweep(
            &SweepEngine::new().workers(1),
            &model,
            &ScenarioTree::from(scenarios),
            &lanes(4),
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
        let options = SweepOptions {
            lane_width: 4,
            budget: ScenarioBudget::unlimited().max_steps(10),
            recovery: None,
        };
        let out = run_ams_sweep(
            &SweepEngine::new().workers(2),
            &model,
            &ScenarioTree::from(scenarios),
            &options,
            |_| {},
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
        let out = engine.run_batched(&scenarios, 4, |obs, block| {
            obs.add("blocks.seen", 1);
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
    fn tree_sweep_forked_paths_match_flat_runs_bitwise() {
        let model = tree_model();
        let flat = flat_sweep(&model, two_level_flat());
        let tree = two_level_tree();
        assert_eq!(tree.node_count(), 6);
        assert_eq!(tree.leaf_count(), 4);
        let mut reference: Option<Vec<(String, u64)>> = None;
        for (workers, lane_width) in [(1usize, 1usize), (2, 2), (8, 4)] {
            let engine = SweepEngine::new().workers(workers);
            let out = run_ams_sweep(&engine, &model, &tree, &lanes(lane_width), |_| {}).unwrap();
            assert_eq!(out.results.len(), 4);
            assert_eq!(out.report.counter("sweep.scenarios.ok"), 4);
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
        let flat = flat_sweep(
            &model,
            flat_paths(&[
                ("a", 30, None),
                ("b0", 31, Some(40)),
                ("b1", 31, Some(41)),
                ("c", 32, None),
            ]),
        );
        let tree = middle_fork_tree();
        for lane_width in [1usize, 4] {
            let mut events = Vec::new();
            let out = run_ams_sweep(
                &SweepEngine::new().workers(2),
                &model,
                &tree,
                &lanes(lane_width),
                |ev| {
                    let steps = ev.report.counter("amsim.steps");
                    events.push((ev.first_index, ev.results.len(), steps));
                },
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
            // One event per run of leaves a job resolves, with the job's
            // report on its first run only. Prefix-only jobs (root, and b
            // at width 1) resolve no leaf and fire no event. At width 4
            // the chunk [a, b, c] fires for leaf 0 with its 30 steps and
            // for leaf 3 with an empty report.
            events.sort_unstable();
            let want = if lane_width == 1 {
                vec![(0, 1, 10), (1, 1, 10), (2, 1, 10), (3, 1, 10)]
            } else {
                vec![(0, 1, 30), (1, 2, 20), (3, 1, 0)]
            };
            assert_eq!(events, want, "lane width {lane_width}");
            assert_eq!(out.report.counter("amsim.steps"), 60);
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
        let capped = |steps: u64| SweepOptions {
            lane_width: 2,
            budget: ScenarioBudget::unlimited().max_steps(steps),
            recovery: None,
        };
        let engine = SweepEngine::new().workers(2);
        let out = run_ams_sweep(&engine, &model, &tree, &capped(15), |_| {}).unwrap();
        assert_eq!(out.report.counter("sweep.scenarios.ok"), 2);
        // A cap below the amortized cost still trips — on the lane's own
        // account, not the block clock.
        let out = run_ams_sweep(&engine, &model, &tree, &capped(12), |_| {}).unwrap();
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
            let engine = SweepEngine::new().workers(workers);
            let out = run_ams_sweep(&engine, &model, &tree, &lanes(2), |_| {}).unwrap();
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

    /// A panic that escapes a job's own `catch_unwind` — here a panic
    /// payload whose `Drop` panics again while the sweep records it (in a
    /// root job of a flat sweep, or a fork job of a tree), or a
    /// `run_batched` body, which isolates nothing — propagates out of the
    /// sweep instead of leaving the pool's other workers waiting on a job
    /// that never completes.
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
        for case in ["flat", "tree", "blocks"] {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let model = tree_model();
                let bomb = || ScenarioSegment {
                    name: "bomb".into(),
                    stim: Box::new(Detonate),
                    steps: SEG_STEPS,
                    children: Vec::new(),
                };
                let root = |segment| TreeScenario {
                    newton_tol: None,
                    step_control: None,
                    segment,
                };
                let engine = SweepEngine::new().workers(2);
                let swept = catch_unwind(AssertUnwindSafe(|| match case {
                    "flat" | "tree" => {
                        let seg = if case == "flat" {
                            bomb()
                        } else {
                            segment("prefix", 99, vec![bomb(), segment("tail", 1, vec![])])
                        };
                        let tree = ScenarioTree {
                            roots: vec![root(seg)],
                        };
                        run_ams_sweep(&engine, &model, &tree, &lanes(1), |_| {}).map(drop)
                    }
                    _ => {
                        let blocks: Vec<usize> = (0..4).collect();
                        engine.run_batched(&blocks, 1, |_, block| {
                            assert_ne!(block[0], 2, "injected block panic");
                            block.to_vec()
                        });
                        Ok(())
                    }
                }));
                let _ = tx.send(swept.err().map(panic_message));
            });
            let escaped = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{case}: sweep still blocked after 10 s"))
                .unwrap_or_else(|| panic!("{case}: the escaping panic must propagate"));
            let cause = if case == "blocks" {
                "injected block panic"
            } else {
                "panic payload dropped"
            };
            assert!(escaped.contains(cause), "{case}: propagated `{escaped}`");
        }
    }

    #[test]
    fn tree_sweep_empty_forest_is_fine() {
        let model = tree_model();
        let tree = ScenarioTree { roots: Vec::new() };
        let engine = SweepEngine::new().workers(4);
        let out = run_ams_sweep(&engine, &model, &tree, &lanes(8), |_| {}).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.report.counter("sweep.scenarios"), 0);
        assert_eq!(tree.node_count(), 0);
    }
}
