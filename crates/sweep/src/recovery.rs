//! Deterministic fault plans and the automatic recovery ladder.
//!
//! Both are seams of the one lane-block driver behind
//! [`crate::run_ams_sweep`], switched on by [`crate::SweepOptions::recovery`].
//! They act on whole scenarios from `t = 0` only — childless roots,
//! which is every lane of a flat sweep. A fault on a shared prefix or a
//! forked segment of a deeper forest stays final.
//!
//! * **Fault injection** ([`FaultPlan`]): planned failures — a poisoned
//!   residual, a singular/non-finite refactorization, a panicking or
//!   stalling stimulus — fired at an exact `(scenario, step)` through
//!   the production error paths (`amsim::fault`, `expr::fault`,
//!   `linalg::fault`). The plan is *pure*: which scenarios fault, with
//!   which kind, at which step depends only on `(plan, index, steps)`,
//!   never on worker count, lane width, or scheduling. Arming is
//!   compiled out unless the `fault-inject` cargo feature is enabled;
//!   the plan types themselves always exist so configuration layers
//!   (the serve daemon) can parse and carry them unconditionally.
//!
//! * **The recovery ladder** ([`Recovery`]): a lane that faults is not
//!   retired outright — the driver escalates deterministically, on the
//!   worker that ran the block:
//!
//!   1. **Resume** — restore the lane's last periodic
//!      [`amsim::Snapshot`] into a scalar [`amsim::Instance`] (demoting
//!      it out of the batch) and replay under a *tightened* step control
//!      ([`RecoveryPolicy::tightened`]: smaller `min_dt` floor, more
//!      in-step retries).
//!   2. **Restart** — fresh scalar instance from `t = 0` under the
//!      tightened control.
//!   3. **Backend** — fresh scalar instance from `t = 0` on the
//!      fallback compiled model (typically the same circuit recompiled
//!      onto the dense solver backend).
//!
//!   Rungs that don't apply (no checkpoint yet, no fallback configured)
//!   are skipped; the ladder is truncated to
//!   [`RecoveryPolicy::max_recoveries`] attempts. Every replayed step
//!   is charged against the same per-lane [`crate::ScenarioBudget`] account as
//!   the nominal run, so recovery cannot spend past the caps. Budget
//!   trips are never laddered: the budget is the outer cap.
//!
//! A scenario rescued at rung *r* reports
//! [`ScenarioOutcome::Recovered`] with a waveform **bit-identical** to
//! the same scenario run from `t = 0` on rung *r*'s configuration:
//! snapshots replay exact solver state (PR 7), batch lanes are
//! bit-equal to scalar runs (PR 5), and tightening only moves the
//! give-up point — it never changes the accept/reject decision of a
//! step the looser control accepted.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amsim::{AmsError, CompiledModel, RecoveryPolicy};
use obs::Obs;

use crate::{panic_message, AmsRun, BudgetExceeded, Driver, LaneFault, LaneRun, ScenarioOutcome};

// ------------------------------------------------------------ fault plans

/// A failure mode the fault plan can inject into one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The residual evaluation returns NaN at the planned step
    /// (surfaces as [`AmsError::NonFinite`]).
    ResidualNan,
    /// The Jacobian refactorization at the planned step reports a
    /// singular matrix (surfaces as [`AmsError::Singular`]).
    RefactorSingular,
    /// The Jacobian refactorization at the planned step reports a
    /// non-finite entry (surfaces as [`AmsError::NonFinite`]).
    RefactorNonFinite,
    /// The stimulus sample at the planned step panics.
    StimulusPanic,
    /// The stimulus sample at the planned step stalls for `millis`
    /// milliseconds — the lane stays healthy but burns wall clock
    /// (exercises `max_wall` budgets and the serve watchdog). Only
    /// available through targeted plans, never the seeded rotation.
    StimulusStall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

impl FaultKind {
    /// Stable lower-case label, used in `fault.injected.*` counter keys
    /// and serve's job configuration.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::ResidualNan => "residual_nan",
            FaultKind::RefactorSingular => "refactor_singular",
            FaultKind::RefactorNonFinite => "refactor_non_finite",
            FaultKind::StimulusPanic => "stimulus_panic",
            FaultKind::StimulusStall { .. } => "stimulus_stall",
        }
    }
}

/// One planned injection: `kind` fires at nominal step `step` of its
/// scenario (a step index at or past the scenario's end never fires).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The failure mode to force.
    pub kind: FaultKind,
    /// Nominal step index at which it fires.
    pub step: u64,
}

/// A deterministic injection plan over a sweep's scenario indices.
///
/// Two layers compose: explicit per-index targets ([`FaultPlan::target`],
/// which win) and a seeded pseudo-random rotation ([`FaultPlan::seeded`])
/// that faults roughly one scenario in `period` via a scenario-indexed
/// xorshift hash. [`FaultPlan::fault_for`] is a pure function of the
/// plan and `(index, steps)`, so the same plan over the same scenario
/// list injects identically at any worker count or lane width.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    targeted: BTreeMap<usize, FaultSpec>,
    /// `(seed, period)`; `None` disables the seeded layer.
    seeded: Option<(u64, u64)>,
}

impl FaultPlan {
    /// An empty plan: injects nothing.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Plans `spec` for scenario `index` (overriding any seeded pick).
    #[must_use]
    pub fn target(mut self, index: usize, spec: FaultSpec) -> FaultPlan {
        self.targeted.insert(index, spec);
        self
    }

    /// Enables the seeded layer: roughly one scenario in `period` gets a
    /// fault, with the victim set, fault kind, and firing step all drawn
    /// from an xorshift hash of `(seed, index)`. `period == 0` disables
    /// the layer.
    #[must_use]
    pub fn seeded(mut self, seed: u64, period: u64) -> FaultPlan {
        self.seeded = (period > 0).then_some((seed, period));
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.targeted.is_empty() && self.seeded.is_none()
    }

    /// The fault planned for scenario `index` of `steps` nominal steps,
    /// if any. Pure — depends only on the plan and the arguments.
    pub fn fault_for(&self, index: usize, steps: u64) -> Option<FaultSpec> {
        if let Some(spec) = self.targeted.get(&index) {
            return Some(*spec);
        }
        let (seed, period) = self.seeded?;
        let h = xorshift64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if !h.is_multiple_of(period) {
            return None;
        }
        // The seeded rotation only deals recoverable solver/stimulus
        // faults; stalls are a targeted-only tool.
        let kind = match (h >> 8) % 4 {
            0 => FaultKind::ResidualNan,
            1 => FaultKind::RefactorSingular,
            2 => FaultKind::RefactorNonFinite,
            _ => FaultKind::StimulusPanic,
        };
        Some(FaultSpec {
            kind,
            step: (h >> 16) % steps.max(1),
        })
    }
}

/// Splitmix-seeded xorshift64; 0 is the xorshift fixed point, so seeds
/// are nudged off it.
fn xorshift64(mut x: u64) -> u64 {
    x = x.max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

// -------------------------------------------------------------- the ladder

/// The rung of the recovery ladder that rescued (or tried to rescue) a
/// scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Restored the last periodic checkpoint into a scalar instance and
    /// resumed under the tightened step control.
    Resume,
    /// Re-ran from `t = 0` on a scalar instance under the tightened
    /// control.
    Restart,
    /// Re-ran from `t = 0` on the fallback compiled model under the
    /// tightened control.
    Backend,
}

impl RecoveryRung {
    /// Stable lower-case label, used in `recovery.*` counter keys and
    /// serve's stream records.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryRung::Resume => "resume",
            RecoveryRung::Restart => "restart",
            RecoveryRung::Backend => "backend",
        }
    }
}

/// One failed attempt in a scenario's recovery trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryAttempt {
    /// The rung that failed; `None` marks the original, pre-ladder fault.
    pub rung: Option<RecoveryRung>,
    /// Stringified error of the attempt (panic payloads are prefixed
    /// with `panic: `).
    pub error: String,
}

/// The recovery seams of one sweep ([`crate::SweepOptions::recovery`]):
/// ladder policy, fallback backend, fault plan, and an external kill
/// switch.
///
/// The default — ladder enabled with [`RecoveryPolicy::default`], no
/// fallback, empty plan, no cancel token — recovers via resume/restart
/// only and injects nothing. A rescued scenario reports
/// [`ScenarioOutcome::Recovered`] with the rescuing rung and the attempt
/// trail; one that exhausts every rung reports `Failed` with the trail.
/// On top of the plain sweep's counters, the merged report tallies
/// `sweep.scenarios.recovered` (ladder on only),
/// `recovery.attempts.{resume,restart,backend}`,
/// `recovery.recovered.{resume,restart,backend}`, `recovery.gave_up`,
/// and — with the `fault-inject` feature — `fault.injected.*`, all
/// merged in key order, so the report is scheduling-independent.
#[derive(Clone, Default)]
pub struct Recovery {
    /// Snapshot cadence, rung budget, and tightening knobs.
    /// `max_recoveries == 0` disables the ladder *and* periodic
    /// checkpoints, leaving the fault plan and the kill switch: with an
    /// empty plan, results and report are bit-identical to a sweep
    /// without recovery.
    pub policy: RecoveryPolicy,
    /// Model the backend rung re-runs on — typically the same circuit
    /// recompiled onto the dense solver. Must share the nominal `dt`
    /// and input/output interface with the primary model; `None` skips
    /// the rung.
    pub fallback: Option<Arc<CompiledModel>>,
    /// Deterministic fault plan over leaf indices. Carried (and
    /// parseable) always; armed only when the `fault-inject` feature is
    /// compiled in, and only on whole-scenario lanes.
    pub plan: FaultPlan,
    /// Cooperative kill switch: once set, every still-running lane —
    /// nominal or mid-rung — is cut with a [`ScenarioOutcome::Budget`]
    /// verdict at its next step boundary. This is the serve watchdog's
    /// hard-kill path; killed scenarios are *not* laddered.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// Escalates one faulted lane through the applicable rungs; returns the
/// lane's final outcome. `seed` is the lane's original fault (a typed
/// error or a panic; budget verdicts are never laddered).
pub(crate) fn run_ladder(
    driver: &Driver<'_>,
    recovery: &Recovery,
    lane: &mut LaneRun<'_>,
    seed: LaneFault,
    obs: &Obs,
) -> ScenarioOutcome<AmsRun, AmsError> {
    let mut attempts = vec![RecoveryAttempt {
        rung: None,
        error: match &seed {
            LaneFault::Failed(e) => e.to_string(),
            LaneFault::Panicked(msg) => format!("panic: {msg}"),
            LaneFault::Budget(b) => b.to_string(),
        },
    }];
    let mut rungs: Vec<RecoveryRung> = Vec::new();
    if lane.checkpoint.is_some() {
        rungs.push(RecoveryRung::Resume);
    }
    rungs.push(RecoveryRung::Restart);
    if recovery.fallback.is_some() {
        rungs.push(RecoveryRung::Backend);
    }
    rungs.truncate(recovery.policy.max_recoveries as usize);

    for rung in rungs {
        obs.add(&format!("recovery.attempts.{}", rung.name()), 1);
        match catch_unwind(AssertUnwindSafe(|| {
            replay_rung(driver, recovery, rung, lane, obs)
        })) {
            Ok(Ok(run)) => {
                obs.add(&format!("recovery.recovered.{}", rung.name()), 1);
                return ScenarioOutcome::Recovered {
                    result: run,
                    rung,
                    attempts,
                };
            }
            Ok(Err(RungFault::Error(e))) => {
                attempts.push(RecoveryAttempt {
                    rung: Some(rung),
                    error: e.to_string(),
                });
            }
            Ok(Err(RungFault::Budget(b))) => {
                // The budget is the outer cap: exhausting it mid-rung
                // ends the scenario with the budget verdict (which, like
                // every `Budget` outcome, carries no attempt trail).
                obs.add("recovery.gave_up", 1);
                return ScenarioOutcome::Budget(b);
            }
            Err(payload) => {
                obs.add("recovery.gave_up", 1);
                return ScenarioOutcome::Panicked(panic_message(payload));
            }
        }
    }
    obs.add("recovery.gave_up", 1);
    match seed {
        LaneFault::Failed(error) => ScenarioOutcome::Failed { error, attempts },
        other => other.outcome(),
    }
}

/// Why one rung's replay stopped short.
enum RungFault {
    Error(AmsError),
    Budget(BudgetExceeded),
}

/// Replays one scenario on one rung's configuration, charging the
/// lane's budget account per step. Panics (from the stimulus or the
/// solver) propagate to the `catch_unwind` in [`run_ladder`].
fn replay_rung(
    driver: &Driver<'_>,
    recovery: &Recovery,
    rung: RecoveryRung,
    lane: &mut LaneRun<'_>,
    obs: &Obs,
) -> Result<AmsRun, RungFault> {
    let model = match rung {
        RecoveryRung::Backend => recovery
            .fallback
            .as_ref()
            .expect("backend rung only enters the ladder with a fallback"),
        _ => driver.model,
    };
    let node = lane.node;
    let mut builder = model.instance_builder().collector(obs.clone());
    if let Some(tol) = node.newton_tol {
        builder = builder.newton_tol(tol);
    }
    if let Some(ctrl) = node.step_control {
        builder = builder.step_control(ctrl);
    }
    let mut inst = builder.build().expect("overrides validated up front");
    let mut waveform = Vec::with_capacity(node.steps);
    let start_k = match rung {
        RecoveryRung::Resume => {
            let (snap, wave_len) = lane
                .checkpoint
                .as_ref()
                .expect("resume rung only enters the ladder with a checkpoint");
            inst.restore(snap);
            waveform.extend_from_slice(&lane.waveform[..*wave_len]);
            *wave_len
        }
        _ => 0,
    };
    // `restore` reinstates the snapshot's control; every rung then
    // tightens whatever policy is in force. Tightening never changes
    // the accept/reject decision of a step the looser control accepted,
    // which is what keeps a resumed waveform bit-identical to a full
    // tightened run from `t = 0`.
    let tightened = recovery.policy.tightened(inst.step_control());
    inst.set_step_control(tightened).map_err(RungFault::Error)?;
    let dt = model.dt();
    let track_wall = driver.budget.wall_cap().is_some();
    let mut inputs = vec![0.0; model.input_names().len()];
    for k in start_k..node.steps {
        lane.charge(driver.budget).map_err(RungFault::Budget)?;
        if recovery
            .cancel
            .as_deref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            return Err(RungFault::Budget(lane.killed(driver.budget)));
        }
        let t0 = track_wall.then(Instant::now);
        let u = node.stim.value(k as f64 * dt);
        inputs.iter_mut().for_each(|v| *v = u);
        let stepped = inst.try_step(&inputs);
        if let Some(t0) = t0 {
            lane.wall += t0.elapsed().as_secs_f64();
        }
        stepped.map_err(RungFault::Error)?;
        waveform.push(inst.output(0));
    }
    // A resumed run's per-run counter starts at zero (fresh instance);
    // the snapshot's watermark restores the path-cumulative total the
    // flat run would report.
    let newton_iters = match &lane.checkpoint {
        Some((snap, _)) if rung == RecoveryRung::Resume => {
            snap.newton_iterations() + inst.newton_iterations()
        }
        _ => inst.newton_iterations(),
    };
    inst.flush_counters();
    Ok(AmsRun {
        name: node.name.to_string(),
        waveform,
        newton_iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_pure_and_seed_sensitive() {
        let plan = FaultPlan::new().seeded(42, 8);
        let a: Vec<Option<FaultSpec>> = (0..256).map(|i| plan.fault_for(i, 100)).collect();
        let b: Vec<Option<FaultSpec>> = (0..256).map(|i| plan.fault_for(i, 100)).collect();
        assert_eq!(a, b, "fault_for is a pure function of (plan, index)");
        let hits = a.iter().flatten().count();
        assert!(
            hits > 8 && hits < 96,
            "period 8 over 256 scenarios should fault a deterministic minority, got {hits}"
        );
        for spec in a.iter().flatten() {
            assert!(spec.step < 100, "seeded steps land inside the scenario");
        }
        let other = FaultPlan::new().seeded(43, 8);
        let c: Vec<Option<FaultSpec>> = (0..256).map(|i| other.fault_for(i, 100)).collect();
        assert_ne!(a, c, "different seeds pick different victims");
    }

    #[test]
    fn targeted_faults_override_the_seeded_layer() {
        let spec = FaultSpec {
            kind: FaultKind::StimulusStall { millis: 5 },
            step: 3,
        };
        let plan = FaultPlan::new().seeded(7, 2).target(11, spec);
        assert_eq!(plan.fault_for(11, 100), Some(spec));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
        assert!(
            FaultPlan::new().seeded(1, 0).is_empty(),
            "period 0 disables the seeded layer"
        );
    }
}
