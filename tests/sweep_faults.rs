//! Acceptance scenario for fault-isolated sweeps: 64 diode-clamp
//! scenarios with two injected faults — one panicking stimulus, one
//! non-convergent fixed-dt run — must yield 62 bit-identical waveforms
//! plus 2 typed fault records for any worker count, with no lost or
//! duplicated indices.

use std::sync::Arc;

use amsim::{AmsError, CompiledModel, Simulation, StepControl};
use amsvp_core::circuits::{diode_clamp, PiecewiseConstant, SquareWave, Stimulus};
use obs::Report;
use sweep::{
    run_ams_sweep, AmsScenario, ScenarioBudget, ScenarioOutcome, ScenarioTree, SweepEngine,
    SweepOptions, SweepOutcome,
};

const DT: f64 = 1e-4;
const STEPS: usize = 30;
const N: usize = 64;
const PANIC_AT: usize = 13;
const DIVERGE_AT: usize = 37;

/// Stimulus that blows up mid-run: drives 0.8 V, then panics once the
/// requested time is reached — simulating a buggy user waveform.
struct PanicAt(f64);

impl Stimulus for PanicAt {
    fn value(&self, t: f64) -> f64 {
        assert!(t < self.0, "injected stimulus failure at t = {t}");
        0.8
    }
}

fn compile_clamp() -> Arc<CompiledModel> {
    let module = vams_parser::parse_module(&diode_clamp()).unwrap();
    Simulation::new(&module)
        .dt(DT)
        .output("V(out)")
        .compile()
        .unwrap()
}

fn scenarios() -> Vec<AmsScenario> {
    (0..N)
        .map(|i| {
            if i == PANIC_AT {
                AmsScenario {
                    name: format!("s{i}-panic"),
                    stim: Box::new(PanicAt(5.0 * DT)),
                    steps: STEPS,
                    newton_tol: None,
                    step_control: Some(StepControl::new(1e-9).max_retries(20)),
                }
            } else if i == DIVERGE_AT {
                // Fixed-dt (no step control) against a full-scale edge:
                // deterministic NoConvergence on the first step.
                AmsScenario {
                    name: format!("s{i}-diverge"),
                    stim: Box::new(SquareWave {
                        period: 20.0 * DT,
                        high: 1.0,
                        low: 0.8,
                    }),
                    steps: STEPS,
                    newton_tol: None,
                    step_control: None,
                }
            } else {
                AmsScenario {
                    name: format!("s{i}"),
                    stim: Box::new(PiecewiseConstant::seeded(
                        i as u64 + 1,
                        5,
                        6.0 * DT,
                        0.0,
                        0.8,
                    )),
                    steps: STEPS,
                    newton_tol: None,
                    step_control: Some(StepControl::new(1e-9).max_retries(20)),
                }
            }
        })
        .collect()
}

type ClampOutcome = SweepOutcome<ScenarioOutcome<sweep::AmsRun, AmsError>>;

/// `scenarios` swept on `workers` in lane-blocks of `lane_width` under
/// `budget`.
fn sweep(
    workers: usize,
    lane_width: usize,
    budget: ScenarioBudget,
    scenarios: Vec<AmsScenario>,
) -> ClampOutcome {
    let options = SweepOptions {
        lane_width,
        budget,
        recovery: None,
    };
    let engine = SweepEngine::new().workers(workers);
    run_ams_sweep(
        &engine,
        &compile_clamp(),
        &ScenarioTree::from(scenarios),
        &options,
        |_| {},
    )
    .unwrap()
}

fn ok_waveform_bits(out: &ClampOutcome) -> Vec<(usize, Vec<u64>)> {
    out.results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            r.ok()
                .map(|run| (i, run.waveform.iter().map(|v| v.to_bits()).collect()))
        })
        .collect()
}

/// Merged counters with the scheduling-dependent `sweep.workers` /
/// `sweep.worker.*` family stripped; everything else — solver work and
/// the fault tallies included — must not depend on worker count.
fn stable_counters(report: &Report) -> Vec<(String, u64)> {
    report
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with("sweep.worker"))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// One-lane blocks: each scenario alone on the scalar path.
#[test]
fn two_faults_sixty_two_survivors_any_worker_count() {
    let runs: Vec<ClampOutcome> = [1usize, 2, 8]
        .into_iter()
        .map(|w| sweep(w, 1, ScenarioBudget::unlimited(), scenarios()))
        .collect();

    for (run, w) in runs.iter().zip([1usize, 2, 8]) {
        assert_eq!(run.results.len(), N, "{w} workers: no lost indices");
        // Fault records land exactly where they were injected.
        match &run.results[PANIC_AT] {
            ScenarioOutcome::Panicked(msg) => assert!(
                msg.contains("injected stimulus failure"),
                "{w} workers: panic payload lost: {msg}"
            ),
            other => panic!("{w} workers, slot {PANIC_AT}: want Panicked, got {other:?}"),
        }
        match &run.results[DIVERGE_AT] {
            ScenarioOutcome::Failed {
                error:
                    AmsError::NoConvergence {
                        residual_norm, dt, ..
                    },
                ..
            } => {
                assert!(residual_norm.is_finite() && *residual_norm > 0.0);
                assert_eq!(*dt, DT);
            }
            other => panic!("{w} workers, slot {DIVERGE_AT}: want NoConvergence, got {other:?}"),
        }
        // Fault tallies and per-worker conservation.
        assert_eq!(run.report.counter("sweep.scenarios.ok"), (N - 2) as u64);
        assert_eq!(run.report.counter("sweep.scenarios.failed"), 1);
        assert_eq!(run.report.counter("sweep.scenarios.panicked"), 1);
        assert_eq!(run.report.counter("sweep.scenarios.budget"), 0);
        assert_eq!(run.report.counter("sweep.scenarios"), N as u64);
        let per_worker: u64 = (0..w)
            .map(|i| run.report.counter(&format!("sweep.worker.{i}.scenarios")))
            .sum();
        assert_eq!(per_worker, N as u64, "{w} workers: scenario conservation");
        // Healthy adaptive scenarios exercised the backoff machinery.
        assert!(run.report.counter("amsim.step.rejected") > 0);
        assert!(run.report.counter("amsim.step.dt_grow") > 0);
    }

    // Survivors are bit-identical across worker counts, and so are the
    // scheduling-independent merged counters (the faulted scenarios'
    // partial counters flush on instance drop, deterministically).
    let reference_waves = ok_waveform_bits(&runs[0]);
    assert_eq!(reference_waves.len(), N - 2);
    let reference_counters = stable_counters(&runs[0].report);
    for run in &runs[1..] {
        assert_eq!(ok_waveform_bits(run), reference_waves);
        assert_eq!(stable_counters(&run.report), reference_counters);
    }
}

#[test]
fn batched_two_faults_retire_only_their_lanes_any_worker_count() {
    // Same 64 scenarios through the lane-batched engine: the panicking
    // stimulus and the divergent fixed-dt run each land *inside* an
    // 8-lane block, and must retire only their own lane — the blocks'
    // sibling lanes finish with waveforms bit-identical to the one-lane
    // (scalar) sweep, for any worker count.
    const LANE_WIDTH: usize = 8;
    let scalar = sweep(1, 1, ScenarioBudget::unlimited(), scenarios());
    let runs: Vec<ClampOutcome> = [1usize, 2, 8]
        .into_iter()
        .map(|w| sweep(w, LANE_WIDTH, ScenarioBudget::unlimited(), scenarios()))
        .collect();

    for (run, w) in runs.iter().zip([1usize, 2, 8]) {
        assert_eq!(run.results.len(), N, "{w} workers: no lost indices");
        match &run.results[PANIC_AT] {
            ScenarioOutcome::Panicked(msg) => assert!(
                msg.contains("injected stimulus failure"),
                "{w} workers: panic payload lost: {msg}"
            ),
            other => panic!("{w} workers, slot {PANIC_AT}: want Panicked, got {other:?}"),
        }
        match &run.results[DIVERGE_AT] {
            ScenarioOutcome::Failed {
                error:
                    AmsError::NoConvergence {
                        residual_norm, dt, ..
                    },
                ..
            } => {
                assert!(residual_norm.is_finite() && *residual_norm > 0.0);
                assert_eq!(*dt, DT);
            }
            other => panic!("{w} workers, slot {DIVERGE_AT}: want NoConvergence, got {other:?}"),
        }
        // Fault tallies, batch bookkeeping, per-worker conservation.
        assert_eq!(run.report.counter("sweep.scenarios.ok"), (N - 2) as u64);
        assert_eq!(run.report.counter("sweep.scenarios.failed"), 1);
        assert_eq!(run.report.counter("sweep.scenarios.panicked"), 1);
        assert_eq!(run.report.counter("sweep.scenarios.budget"), 0);
        assert_eq!(run.report.counter("sweep.scenarios"), N as u64);
        assert_eq!(run.report.counter("amsim.batch.lanes"), N as u64);
        assert_eq!(
            run.report.counter("sweep.batch.blocks"),
            (N / LANE_WIDTH) as u64
        );
        let per_worker: u64 = (0..w)
            .map(|i| run.report.counter(&format!("sweep.worker.{i}.scenarios")))
            .sum();
        assert_eq!(per_worker, N as u64, "{w} workers: scenario conservation");
    }

    // Survivors are bit-identical to the scalar sweep: the faulted
    // lanes' masked siblings never see a perturbed operand.
    let scalar_waves = ok_waveform_bits(&scalar);
    assert_eq!(scalar_waves.len(), N - 2);
    for run in &runs {
        assert_eq!(ok_waveform_bits(run), scalar_waves);
    }

    // Solver-work conservation against the one-lane sweep: every
    // counter outside the blocking-structure families (amsim.* solver
    // work, fault tallies) must come out of the batched sweep unchanged —
    // batching only regroups the arithmetic. `sweep.batch.blocks` and
    // `amsim.batch.masked_iterations` follow the lane width, checked
    // above.
    let scalar_counters = stable_counters(&scalar.report);
    for (run, w) in runs.iter().zip([1usize, 2, 8]) {
        for (key, want) in scalar_counters
            .iter()
            .filter(|(k, _)| k != "sweep.batch.blocks" && k != "amsim.batch.masked_iterations")
        {
            assert_eq!(
                run.report.counter(key),
                *want,
                "{w} workers: counter `{key}` not conserved under batching"
            );
        }
    }
    // And the batched runs agree with each other exactly, batch
    // counters included — scheduling must not leak into any tally.
    let reference = stable_counters(&runs[0].report);
    for run in &runs[1..] {
        assert_eq!(stable_counters(&run.report), reference);
    }
}

/// Stimulus that stalls on every sample — a stand-in for an expensive
/// user waveform (table lookup, co-simulation round-trip, …).
struct SlowStim(std::time::Duration);

impl Stimulus for SlowStim {
    fn value(&self, _t: f64) -> f64 {
        std::thread::sleep(self.0);
        0.8
    }
}

#[test]
fn batched_wall_budget_charges_each_lane_from_its_own_account() {
    // Lane 0 carries a stimulus that sleeps ~25 ms per sample; lane 1 is
    // an ordinary fast scenario sharing the same 2-lane block. With a
    // wall cap well below lane 0's sampling cost, only lane 0 may trip:
    // wall time is charged per lane (sampling to the sampling lane,
    // solve time split over the lanes that entered the solve), so a slow
    // sibling must not consume a healthy lane's budget. Under the old
    // shared-block clock both lanes would have come back as Budget.
    let ctrl = Some(StepControl::new(1e-9).max_retries(20));
    let scenarios = vec![
        AmsScenario {
            name: "slow".into(),
            stim: Box::new(SlowStim(std::time::Duration::from_millis(25))),
            steps: STEPS,
            newton_tol: None,
            step_control: ctrl,
        },
        AmsScenario {
            name: "fast".into(),
            stim: Box::new(PiecewiseConstant::seeded(1, 5, 6.0 * DT, 0.0, 0.8)),
            steps: STEPS,
            newton_tol: None,
            step_control: ctrl,
        },
    ];
    let out = sweep(1, 2, ScenarioBudget::unlimited().max_wall(0.15), scenarios);
    match &out.results[0] {
        ScenarioOutcome::Budget(b) => {
            assert_eq!(b.max_wall, Some(0.15), "slow lane trips the wall cap");
            assert!(b.wall > 0.15);
        }
        other => panic!("slot 0: want Budget, got {other:?}"),
    }
    match &out.results[1] {
        ScenarioOutcome::Ok(run) => {
            assert_eq!(run.waveform.len(), STEPS, "fast lane runs to completion");
        }
        other => panic!("slot 1: want Ok, got {other:?}"),
    }
    assert_eq!(out.report.counter("sweep.scenarios.ok"), 1);
    assert_eq!(out.report.counter("sweep.scenarios.budget"), 1);
}

#[test]
fn step_budget_records_typed_outcome() {
    // Healthy scenarios only, but a cap below the per-scenario step
    // count: every slot must come back as a Budget record, tripped on
    // the first tick past the cap.
    let cap = (STEPS / 2) as u64;
    let scenarios: Vec<AmsScenario> = (0..4)
        .map(|i| AmsScenario {
            name: format!("b{i}"),
            stim: Box::new(PiecewiseConstant::seeded(
                i as u64 + 1,
                5,
                6.0 * DT,
                0.0,
                0.8,
            )),
            steps: STEPS,
            newton_tol: None,
            step_control: Some(StepControl::new(1e-9).max_retries(20)),
        })
        .collect();
    let out = sweep(2, 1, ScenarioBudget::unlimited().max_steps(cap), scenarios);
    assert_eq!(out.report.counter("sweep.scenarios.budget"), 4);
    for (i, r) in out.results.iter().enumerate() {
        match r {
            ScenarioOutcome::Budget(b) => {
                assert_eq!(b.steps, cap + 1, "slot {i} trips right past the cap");
                assert_eq!(b.max_steps, Some(cap));
            }
            other => panic!("slot {i}: want Budget, got {other:?}"),
        }
    }
}
