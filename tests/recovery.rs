//! Acceptance tests for the recovery ladder (ISSUE 9): recovered
//! scenarios must be bit-identical to from-`t=0` reruns on the rung's
//! configuration at any worker count and lane width, the ladder must be
//! bit-transparent when disabled, and failed scenarios must carry their
//! attempt trail.
//!
//! The injection-driven tests are gated on the `fault-inject` feature
//! (`cargo test --features fault-inject --test recovery`); the
//! transparency and trail tests run in every configuration.

use std::sync::Arc;

use amsim::{AmsError, CompiledModel, RecoveryPolicy, Simulation, StepControl};
use amsvp_core::circuits::{diode_clamp, PiecewiseConstant, SquareWave};
use obs::Report;
use sweep::{
    run_ams_sweep_batched, run_ams_sweep_recovering, AmsScenario, Recovery, ScenarioBudget,
    ScenarioOutcome, SweepEngine, SweepOutcome,
};

const DT: f64 = 1e-4;
const STEPS: usize = 40;
const N: usize = 24;

fn compile_clamp(kind: amsim::SolverKind) -> Arc<CompiledModel> {
    let module = vams_parser::parse_module(&diode_clamp()).unwrap();
    Simulation::new(&module)
        .dt(DT)
        .output("V(out)")
        .solver(kind)
        .compile()
        .unwrap()
}

fn healthy_scenarios() -> Vec<AmsScenario> {
    (0..N)
        .map(|i| AmsScenario {
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
        })
        .collect()
}

#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
type ClampOutcome = SweepOutcome<ScenarioOutcome<sweep::AmsRun, AmsError>>;

/// Merged counters minus the scheduling-dependent `sweep.worker*` family.
fn stable_counters(report: &Report) -> Vec<(String, u64)> {
    report
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with("sweep.worker"))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Runs one scenario from `t = 0` on `model` with the policy-tightened
/// step control — the reference a `Recovered` waveform must match bit
/// for bit (the ladder's own replay path is deliberately not reused).
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
fn reference_run(
    model: &Arc<CompiledModel>,
    sc: &AmsScenario,
    policy: &RecoveryPolicy,
) -> Vec<u64> {
    let mut builder = model.instance_builder();
    if let Some(tol) = sc.newton_tol {
        builder = builder.newton_tol(tol);
    }
    if let Some(ctrl) = sc.step_control {
        builder = builder.step_control(ctrl);
    }
    let mut inst = builder.build().unwrap();
    inst.set_step_control(policy.tightened(inst.step_control()))
        .unwrap();
    let n_inputs = model.input_names().len();
    let dt = model.dt();
    let mut wave = Vec::with_capacity(sc.steps);
    for k in 0..sc.steps {
        let u = sc.stim.value(k as f64 * dt);
        inst.try_step(&vec![u; n_inputs]).unwrap();
        wave.push(inst.output(0).to_bits());
    }
    wave
}

/// Disabled ladder (`max_recoveries: 0`) is bit-transparent: results and
/// merged counters are indistinguishable from the plain batched sweep.
#[test]
fn disabled_ladder_is_bit_transparent() {
    let model = compile_clamp(amsim::SolverKind::Auto);
    let engine = SweepEngine::new().workers(4);
    let budget = ScenarioBudget::unlimited();
    let plain = run_ams_sweep_batched(&engine, &model, &healthy_scenarios(), 8, &budget).unwrap();
    let recovery = Recovery {
        policy: RecoveryPolicy {
            max_recoveries: 0,
            ..RecoveryPolicy::default()
        },
        ..Recovery::default()
    };
    let laddered =
        run_ams_sweep_recovering(&engine, &model, &healthy_scenarios(), 8, &budget, &recovery)
            .unwrap();

    assert_eq!(plain.results.len(), laddered.results.len());
    for (a, b) in plain.results.iter().zip(&laddered.results) {
        let (a, b) = (a.ok().unwrap(), b.ok().unwrap());
        assert_eq!(a.newton_iters, b.newton_iters);
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.waveform), bits(&b.waveform));
    }
    assert_eq!(
        stable_counters(&plain.report),
        stable_counters(&laddered.report),
        "disabled ladder must not even change the counter key set"
    );
}

/// A persistently-failing scenario exhausts the ladder and reports the
/// full attempt trail: the original fault plus one entry per rung.
#[test]
fn exhausted_ladder_carries_attempt_trail() {
    let model = compile_clamp(amsim::SolverKind::Auto);
    let mut scenarios = healthy_scenarios();
    // Fixed-dt against a full-scale edge: deterministic NoConvergence
    // on every attempt, on either backend.
    scenarios[5] = AmsScenario {
        name: "diverge".into(),
        stim: Box::new(SquareWave {
            period: 20.0 * DT,
            high: 1.0,
            low: 0.8,
        }),
        steps: STEPS,
        newton_tol: None,
        step_control: None,
    };
    let recovery = Recovery {
        policy: RecoveryPolicy::default(),
        fallback: Some(compile_clamp(amsim::SolverKind::Dense)),
        ..Recovery::default()
    };
    let out = run_ams_sweep_recovering(
        &SweepEngine::new().workers(4),
        &model,
        &scenarios,
        8,
        &ScenarioBudget::unlimited(),
        &recovery,
    )
    .unwrap();

    match &out.results[5] {
        ScenarioOutcome::Failed { error, attempts } => {
            assert!(matches!(error, AmsError::NoConvergence { .. }));
            // Original fault (no rung), then the divergence happens at
            // step 0 — before any checkpoint — so the resume rung is
            // skipped: restart, then backend switch.
            let rungs: Vec<_> = attempts.iter().map(|a| a.rung).collect();
            assert_eq!(
                rungs,
                vec![
                    None,
                    Some(sweep::RecoveryRung::Restart),
                    Some(sweep::RecoveryRung::Backend)
                ]
            );
        }
        other => panic!("want Failed with trail, got {other:?}"),
    }
    assert_eq!(out.report.counter("recovery.attempts.restart"), 1);
    assert_eq!(out.report.counter("recovery.attempts.backend"), 1);
    assert_eq!(out.report.counter("recovery.gave_up"), 1);
    assert_eq!(out.report.counter("sweep.scenarios.failed"), 1);
    assert_eq!(out.report.counter("sweep.scenarios.ok"), (N - 1) as u64);
}

#[cfg(feature = "fault-inject")]
mod injected {
    use super::*;
    use sweep::{FaultKind, FaultPlan, FaultSpec, RecoveryRung};

    const RESUME_AT: [usize; 2] = [3, 7];
    const RESTART_AT: [usize; 2] = [11, 17];

    fn plan() -> FaultPlan {
        // Faults past the first checkpoint (cadence 8) recover on the
        // resume rung; faults before it skip to the restart rung.
        FaultPlan::new()
            .target(
                3,
                FaultSpec {
                    kind: FaultKind::ResidualNan,
                    step: 13,
                },
            )
            .target(
                7,
                FaultSpec {
                    kind: FaultKind::RefactorSingular,
                    step: 21,
                },
            )
            .target(
                11,
                FaultSpec {
                    kind: FaultKind::RefactorNonFinite,
                    step: 2,
                },
            )
            .target(
                17,
                FaultSpec {
                    kind: FaultKind::StimulusPanic,
                    step: 5,
                },
            )
    }

    /// An injected stall is charged to the stalling lane's own wall
    /// account: 300 ms at step 2 against a 0.15 s cap trips that lane's
    /// budget on its next step, while its block siblings finish.
    #[test]
    fn injected_stall_trips_only_its_lanes_wall_budget() {
        let model = compile_clamp(amsim::SolverKind::Auto);
        let recovery = Recovery {
            plan: FaultPlan::new().target(
                0,
                FaultSpec {
                    kind: FaultKind::StimulusStall { millis: 300 },
                    step: 2,
                },
            ),
            ..Recovery::default()
        };
        let scenarios: Vec<AmsScenario> = healthy_scenarios().into_iter().take(4).collect();
        let out = run_ams_sweep_recovering(
            &SweepEngine::new().workers(1),
            &model,
            &scenarios,
            4,
            &ScenarioBudget::unlimited().max_wall(0.15),
            &recovery,
        )
        .unwrap();
        match &out.results[0] {
            ScenarioOutcome::Budget(b) => {
                assert_eq!(b.max_wall, Some(0.15));
                assert!(b.wall > 0.15, "the stall is on the lane's account: {b:?}");
            }
            other => panic!("slot 0: want Budget, got {other:?}"),
        }
        for (i, r) in out.results.iter().enumerate().skip(1) {
            let run = r
                .ok()
                .unwrap_or_else(|| panic!("slot {i}: want Ok, got {r:?}"));
            assert_eq!(run.waveform.len(), STEPS);
        }
        assert_eq!(out.report.counter("fault.injected.stimulus_stall"), 1);
        assert_eq!(out.report.counter("sweep.scenarios.budget"), 1);
    }

    /// Injected faults recover on the expected rung, the recovered
    /// waveforms are bit-identical to from-`t=0` reruns on the rung's
    /// configuration, and nothing depends on the schedule: workers
    /// 1/2/8 × lane widths 1/8 all produce identical bits and counters.
    #[test]
    fn recovered_bit_identical_to_rung_config_from_t0_any_schedule() {
        let model = compile_clamp(amsim::SolverKind::Auto);
        let policy = RecoveryPolicy {
            snapshot_every_n_steps: 8,
            ..RecoveryPolicy::default()
        };
        let recovery = Recovery {
            policy,
            fallback: Some(compile_clamp(amsim::SolverKind::Dense)),
            plan: plan(),
            ..Recovery::default()
        };

        let mut runs: Vec<(usize, usize, ClampOutcome)> = Vec::new();
        for w in [1usize, 2, 8] {
            for lanes in [1usize, 8] {
                let out = run_ams_sweep_recovering(
                    &SweepEngine::new().workers(w),
                    &model,
                    &healthy_scenarios(),
                    lanes,
                    &ScenarioBudget::unlimited(),
                    &recovery,
                )
                .unwrap();
                runs.push((w, lanes, out));
            }
        }

        for (w, lanes, out) in &runs {
            let tag = format!("{w} workers × {lanes} lanes");
            assert_eq!(out.results.len(), N, "{tag}: no lost indices");
            for (i, r) in out.results.iter().enumerate() {
                let scenarios = healthy_scenarios();
                match r {
                    ScenarioOutcome::Recovered {
                        result,
                        rung,
                        attempts,
                    } => {
                        let want_rung = if RESUME_AT.contains(&i) {
                            RecoveryRung::Resume
                        } else if RESTART_AT.contains(&i) {
                            RecoveryRung::Restart
                        } else {
                            panic!("{tag}: unexpected recovery at index {i}");
                        };
                        assert_eq!(*rung, want_rung, "{tag}: rung at index {i}");
                        assert_eq!(attempts.len(), 1, "{tag}: one-shot fault, one attempt");
                        let reference = reference_run(&model, &scenarios[i], &policy);
                        let got: Vec<u64> = result.waveform.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            got, reference,
                            "{tag}: recovered waveform at index {i} diverges from \
                             the from-t=0 rerun on the rung's configuration"
                        );
                    }
                    ScenarioOutcome::Ok(_) => assert!(
                        !RESUME_AT.contains(&i) && !RESTART_AT.contains(&i),
                        "{tag}: index {i} should have faulted"
                    ),
                    other => panic!("{tag}: index {i}: unexpected outcome {other:?}"),
                }
            }
            assert_eq!(out.report.counter("sweep.scenarios.recovered"), 4);
            assert_eq!(out.report.counter("sweep.scenarios.ok"), (N - 4) as u64);
            assert_eq!(out.report.counter("recovery.recovered.resume"), 2);
            assert_eq!(out.report.counter("recovery.recovered.restart"), 2);
            assert_eq!(out.report.counter("recovery.gave_up"), 0);
            assert_eq!(out.report.counter("fault.injected.residual_nan"), 1);
            assert_eq!(out.report.counter("fault.injected.refactor_singular"), 1);
            assert_eq!(out.report.counter("fault.injected.refactor_non_finite"), 1);
            assert_eq!(out.report.counter("fault.injected.stimulus_panic"), 1);
        }

        // Scheduling independence: every (workers × lanes) combination
        // agrees bit-for-bit on results and on the merged counters.
        let (_, _, first) = &runs[0];
        let bits = |out: &ClampOutcome| -> Vec<Vec<u64>> {
            out.results
                .iter()
                .map(|r| {
                    r.result()
                        .map(|run| run.waveform.iter().map(|v| v.to_bits()).collect())
                        .unwrap_or_default()
                })
                .collect()
        };
        for (w, lanes, out) in &runs[1..] {
            assert_eq!(
                bits(first),
                bits(out),
                "{w} workers × {lanes} lanes: waveform bits diverge from 1×1"
            );
        }
        // Counters are scheduling-independent: any worker count merges
        // to the same totals. (Lane width legitimately changes the
        // blocking-structure counters — `sweep.batch.blocks`,
        // `amsim.batch.masked_iterations` — so compare per width.)
        for lane_width in [1usize, 8] {
            let same_width: Vec<_> = runs.iter().filter(|(_, l, _)| *l == lane_width).collect();
            let (_, _, base) = same_width[0];
            for (w, _, out) in &same_width[1..] {
                assert_eq!(
                    stable_counters(&base.report),
                    stable_counters(&out.report),
                    "{w} workers × {lane_width} lanes: merged counters schedule-dependent"
                );
            }
        }
    }
}
