//! Acceptance tests for the recovery ladder: recovered scenarios must be
//! bit-identical to from-`t=0` reruns on the rung's configuration at any
//! worker count and lane width, the ladder must be bit-transparent when
//! disabled (and on a deep forest, where it acts on childless roots
//! only), and failed scenarios must carry their attempt trail.
//!
//! The injection-driven tests are gated on the `fault-inject` feature
//! (`cargo test --features fault-inject --test recovery`); the
//! transparency and trail tests run in every configuration.

use std::sync::Arc;

use amsim::{AmsError, CompiledModel, RecoveryPolicy, Simulation, StepControl};
use amsvp_core::circuits::{diode_clamp, PiecewiseConstant, SquareWave};
use obs::Report;
use sweep::{
    run_ams_sweep, AmsScenario, Recovery, ScenarioBudget, ScenarioOutcome, ScenarioSegment,
    ScenarioTree, SweepEngine, SweepOptions, SweepOutcome, TreeScenario,
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

fn stim(seed: u64) -> Box<PiecewiseConstant> {
    Box::new(PiecewiseConstant::seeded(seed, 5, 6.0 * DT, 0.0, 0.8))
}

fn control() -> Option<StepControl> {
    Some(StepControl::new(1e-9).max_retries(20))
}

fn healthy_scenarios() -> Vec<AmsScenario> {
    (0..N)
        .map(|i| AmsScenario {
            name: format!("s{i}"),
            stim: stim(i as u64 + 1),
            steps: STEPS,
            newton_tol: None,
            step_control: control(),
        })
        .collect()
}

/// A deep clamp forest of four leaves: childless roots at leaves 0 and
/// 3 (whole scenarios, seeded like `healthy_scenarios()[0]` and `[4]`),
/// and a half-length prefix forking into leaves 1 and 2.
fn deep_forest() -> ScenarioTree {
    let seg =
        |name: &str, seed: u64, steps: usize, children: Vec<ScenarioSegment>| ScenarioSegment {
            name: name.into(),
            stim: stim(seed),
            steps,
            children,
        };
    let root = |segment| TreeScenario {
        newton_tol: None,
        step_control: control(),
        segment,
    };
    let forks = vec![
        seg("fork1", 3, STEPS / 2, vec![]),
        seg("fork2", 4, STEPS / 2, vec![]),
    ];
    ScenarioTree {
        roots: vec![
            root(seg("s0", 1, STEPS, vec![])),
            root(seg("prefix", 2, STEPS / 2, forks)),
            root(seg("s4", 5, STEPS, vec![])),
        ],
    }
}

type ClampOutcome = SweepOutcome<ScenarioOutcome<sweep::AmsRun, AmsError>>;

/// `tree` swept on `workers` in lane-blocks of `lane_width` under
/// `budget` and `recovery`.
fn sweep(
    model: &Arc<CompiledModel>,
    workers: usize,
    lane_width: usize,
    tree: &ScenarioTree,
    budget: ScenarioBudget,
    recovery: Option<&Recovery>,
) -> ClampOutcome {
    let options = SweepOptions {
        lane_width,
        budget,
        recovery: recovery.cloned(),
    };
    let engine = SweepEngine::new().workers(workers);
    run_ams_sweep(&engine, model, tree, &options, |_| {}).unwrap()
}

/// Every leaf's waveform bits, recovered results included; empty for a
/// leaf with no result.
fn bits(out: &ClampOutcome) -> Vec<Vec<u64>> {
    out.results
        .iter()
        .map(|r| {
            r.result()
                .map(|run| run.waveform.iter().map(|v| v.to_bits()).collect())
                .unwrap_or_default()
        })
        .collect()
}

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
/// merged counters are indistinguishable from a sweep without recovery.
#[test]
fn disabled_ladder_is_bit_transparent() {
    let model = compile_clamp(amsim::SolverKind::Auto);
    let tree = ScenarioTree::from(healthy_scenarios());
    let budget = ScenarioBudget::unlimited();
    let plain = sweep(&model, 4, 8, &tree, budget, None);
    let recovery = Recovery {
        policy: RecoveryPolicy {
            max_recoveries: 0,
            ..RecoveryPolicy::default()
        },
        ..Recovery::default()
    };
    let laddered = sweep(&model, 4, 8, &tree, budget, Some(&recovery));

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
    let tree = ScenarioTree::from(scenarios);
    let out = sweep(
        &model,
        4,
        8,
        &tree,
        ScenarioBudget::unlimited(),
        Some(&recovery),
    );

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

/// Recovery on a deep forest with an empty plan changes no result: the
/// ladder's periodic checkpoints ride on the two childless roots alone
/// (four each at cadence 8 over 40 steps), and the prefix and its forks
/// run as they do without recovery.
#[test]
fn recovery_on_a_deep_forest_is_bit_transparent() {
    let model = compile_clamp(amsim::SolverKind::Auto);
    let recovery = Recovery {
        policy: RecoveryPolicy {
            snapshot_every_n_steps: 8,
            ..RecoveryPolicy::default()
        },
        fallback: Some(compile_clamp(amsim::SolverKind::Dense)),
        ..Recovery::default()
    };
    let tree = deep_forest();
    let budget = ScenarioBudget::unlimited();
    for (workers, lanes) in [(1usize, 1usize), (2, 3)] {
        let tag = format!("{workers} workers × {lanes} lanes");
        let plain = sweep(&model, workers, lanes, &tree, budget, None);
        let laddered = sweep(&model, workers, lanes, &tree, budget, Some(&recovery));
        assert!(plain.results.iter().all(|r| r.is_ok()), "{tag}");
        assert!(laddered.results.iter().all(|r| r.is_ok()), "{tag}");
        assert_eq!(bits(&plain), bits(&laddered), "{tag}: waveform bits");
        for (a, b) in plain.results.iter().zip(&laddered.results) {
            assert_eq!(a.ok().unwrap().newton_iters, b.ok().unwrap().newton_iters);
        }
        for key in ["amsim.steps", "amsim.newton_iterations"] {
            assert_eq!(
                plain.report.counter(key),
                laddered.report.counter(key),
                "{tag}: counter `{key}`"
            );
        }
        assert_eq!(
            laddered.report.counter("amsim.snapshot.taken"),
            plain.report.counter("amsim.snapshot.taken") + 8,
            "{tag}: checkpoints on childless roots only"
        );
    }
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
        let tree = ScenarioTree::from(scenarios);
        let budget = ScenarioBudget::unlimited().max_wall(0.15);
        let out = sweep(&model, 1, 4, &tree, budget, Some(&recovery));
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

    /// Eight faults over all four kinds, among them one at step 0 and one
    /// at step 30: (scenario index, kind, nominal step). The four at or
    /// past the first checkpoint recover on the resume rung, the four
    /// before it on the restart rung.
    const EIGHT_FAULTS: [(usize, FaultKind, u64); 8] = [
        (1, FaultKind::ResidualNan, 13),
        (7, FaultKind::RefactorSingular, 21),
        (13, FaultKind::RefactorNonFinite, 17),
        (19, FaultKind::ResidualNan, 30),
        (2, FaultKind::RefactorNonFinite, 2),
        (8, FaultKind::StimulusPanic, 5),
        (14, FaultKind::ResidualNan, 0),
        (20, FaultKind::RefactorSingular, 4),
    ];
    const EIGHT_RESUME_AT: [usize; 4] = [1, 7, 13, 19];
    const EIGHT_RESTART_AT: [usize; 4] = [2, 8, 14, 20];

    fn eight_fault_plan() -> FaultPlan {
        EIGHT_FAULTS
            .iter()
            .fold(FaultPlan::new(), |plan, &(index, kind, step)| {
                plan.target(index, FaultSpec { kind, step })
            })
    }

    /// Runs `recovery` at workers 1/2/8 × lane widths 1/8 and checks what
    /// holds for any plan: no index is lost, each planned fault recovers
    /// on its rung bit-identical to the from-`t=0` rerun on that rung's
    /// configuration, every other scenario is `Ok`, and neither the bits
    /// nor the merged counters depend on the schedule. Returns the runs
    /// as `(workers, lane width, outcome)` for the plan's own counters.
    fn run_every_schedule(
        model: &Arc<CompiledModel>,
        recovery: &Recovery,
        resume_at: &[usize],
        restart_at: &[usize],
    ) -> Vec<(usize, usize, ClampOutcome)> {
        let policy = recovery.policy;
        let tree = ScenarioTree::from(healthy_scenarios());
        let mut runs: Vec<(usize, usize, ClampOutcome)> = Vec::new();
        for w in [1usize, 2, 8] {
            for lanes in [1usize, 8] {
                let budget = ScenarioBudget::unlimited();
                let out = sweep(model, w, lanes, &tree, budget, Some(recovery));
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
                        let want_rung = if resume_at.contains(&i) {
                            RecoveryRung::Resume
                        } else if restart_at.contains(&i) {
                            RecoveryRung::Restart
                        } else {
                            panic!("{tag}: unexpected recovery at index {i}");
                        };
                        assert_eq!(*rung, want_rung, "{tag}: rung at index {i}");
                        assert_eq!(attempts.len(), 1, "{tag}: one-shot fault, one attempt");
                        let reference = reference_run(model, &scenarios[i], &policy);
                        let got: Vec<u64> = result.waveform.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            got, reference,
                            "{tag}: recovered waveform at index {i} diverges from \
                             the from-t=0 rerun on the rung's configuration"
                        );
                    }
                    ScenarioOutcome::Ok(_) => assert!(
                        !resume_at.contains(&i) && !restart_at.contains(&i),
                        "{tag}: index {i} should have faulted"
                    ),
                    other => panic!("{tag}: index {i}: unexpected outcome {other:?}"),
                }
            }
        }

        // Scheduling independence: every (workers × lanes) combination
        // agrees bit-for-bit on results and on the merged counters.
        let (_, _, first) = &runs[0];
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
        runs
    }

    /// Injected faults recover on the expected rung, the recovered
    /// waveforms are bit-identical to from-`t=0` reruns on the rung's
    /// configuration, and nothing depends on the schedule: workers
    /// 1/2/8 × lane widths 1/8 all produce identical bits and counters.
    /// Two plans: four faults with the dense fallback on hand, and
    /// eight with none, whose rung attempts must come out exact.
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
        for (_, _, out) in run_every_schedule(&model, &recovery, &RESUME_AT, &RESTART_AT) {
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

        // No fallback: a fault the first two rungs did not absorb would
        // fail its scenario instead of reaching a backend rung.
        let recovery = Recovery {
            policy,
            plan: eight_fault_plan(),
            ..Recovery::default()
        };
        for (w, lanes, out) in
            run_every_schedule(&model, &recovery, &EIGHT_RESUME_AT, &EIGHT_RESTART_AT)
        {
            let tag = format!("{w} workers × {lanes} lanes");
            for (key, want) in [
                ("sweep.scenarios", N as u64),
                ("sweep.scenarios.ok", (N - 8) as u64),
                ("sweep.scenarios.recovered", 8),
                ("sweep.scenarios.failed", 0),
                ("sweep.scenarios.panicked", 0),
                ("sweep.scenarios.budget", 0),
                ("recovery.attempts.resume", 4),
                ("recovery.recovered.resume", 4),
                ("recovery.attempts.restart", 4),
                ("recovery.recovered.restart", 4),
                ("recovery.attempts.backend", 0),
                ("recovery.gave_up", 0),
                ("fault.injected.residual_nan", 3),
                ("fault.injected.refactor_singular", 2),
                ("fault.injected.refactor_non_finite", 2),
                ("fault.injected.stimulus_panic", 1),
            ] {
                assert_eq!(out.report.counter(key), want, "{tag}: counter `{key}`");
            }
            let per_worker: u64 = (0..w)
                .map(|i| out.report.counter(&format!("sweep.worker.{i}.scenarios")))
                .sum();
            assert_eq!(per_worker, N as u64, "{tag}: scenario conservation");
        }
    }

    /// On a deep forest the plan fires on childless roots only. Leaf 0
    /// (a whole scenario) faults past its first checkpoint and resumes,
    /// leaf 3 panics before it and restarts, both bit-identical to the
    /// from-`t=0` rerun; the target on leaf 1, which lies under a fork,
    /// never fires, so that leaf comes back `Ok` and equal to the
    /// unplanned run.
    #[test]
    fn planned_faults_fire_on_childless_roots_only() {
        let model = compile_clamp(amsim::SolverKind::Auto);
        let policy = RecoveryPolicy {
            snapshot_every_n_steps: 8,
            ..RecoveryPolicy::default()
        };
        let plan = FaultPlan::new()
            .target(
                0,
                FaultSpec {
                    kind: FaultKind::ResidualNan,
                    step: 13,
                },
            )
            .target(
                1,
                FaultSpec {
                    kind: FaultKind::RefactorSingular,
                    step: 5,
                },
            )
            .target(
                3,
                FaultSpec {
                    kind: FaultKind::StimulusPanic,
                    step: 2,
                },
            );
        let recovery = Recovery {
            policy,
            plan,
            ..Recovery::default()
        };
        let tree = deep_forest();
        let budget = ScenarioBudget::unlimited();
        let unplanned = sweep(&model, 1, 1, &tree, budget, None);
        let scenarios = healthy_scenarios();
        for (workers, lanes) in [(1usize, 1usize), (2, 3), (2, 8)] {
            let tag = format!("{workers} workers × {lanes} lanes");
            let out = sweep(&model, workers, lanes, &tree, budget, Some(&recovery));
            for (leaf, rung, scenario) in [
                (0, RecoveryRung::Resume, &scenarios[0]),
                (3, RecoveryRung::Restart, &scenarios[4]),
            ] {
                match &out.results[leaf] {
                    ScenarioOutcome::Recovered {
                        result, rung: r, ..
                    } => {
                        assert_eq!(*r, rung, "{tag}: rung at leaf {leaf}");
                        let got: Vec<u64> = result.waveform.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, reference_run(&model, scenario, &policy), "{tag}");
                    }
                    other => panic!("{tag}: leaf {leaf}: want Recovered, got {other:?}"),
                }
            }
            for leaf in [1, 2] {
                assert!(
                    out.results[leaf].is_ok(),
                    "{tag}: leaf {leaf} under the fork"
                );
                assert_eq!(
                    bits(&out)[leaf],
                    bits(&unplanned)[leaf],
                    "{tag}: leaf {leaf}"
                );
            }
            assert_eq!(
                out.report.counter("fault.injected.residual_nan"),
                1,
                "{tag}"
            );
            assert_eq!(
                out.report.counter("fault.injected.stimulus_panic"),
                1,
                "{tag}"
            );
            assert_eq!(
                out.report.counter("fault.injected.refactor_singular"),
                0,
                "{tag}"
            );
            assert_eq!(out.report.counter("sweep.scenarios.recovered"), 2, "{tag}");
        }
    }
}
