//! Stress the sweep pool: many more scenarios than workers, and block
//! bodies short enough that workers race on the job queue constantly.
//! Every scenario must run exactly once and land in its slot, and both
//! paths onto the pool must keep every worker busy.

use std::sync::atomic::{AtomicU64, Ordering};

use amsvp_core::circuits::{rc_ladder, PiecewiseConstant};
use obs::{Obs, Report};
use sweep::{run_ams_sweep, AmsScenario, ScenarioTree, SweepEngine, SweepOptions};

/// Options for one-lane blocks: one scenario per pool job.
fn one_lane() -> SweepOptions {
    SweepOptions {
        lane_width: 1,
        ..SweepOptions::default()
    }
}

#[test]
fn two_hundred_scenarios_none_lost_none_duplicated() {
    const N: usize = 200;
    const WORKERS: usize = 8;
    let engine = SweepEngine::new().workers(WORKERS);
    let scenarios: Vec<u64> = (0..N as u64).collect();
    let executions = AtomicU64::new(0);

    // One-scenario blocks: every scenario is a pool job of its own.
    let out = engine.run_batched(&scenarios, 1, |obs, block| {
        executions.fetch_add(1, Ordering::Relaxed);
        obs.add("stress.runs", 1);
        // Tiny but non-trivial body: keep the queue contended.
        block
            .iter()
            .map(|s| (0..*s % 7).sum::<u64>() + s * 3)
            .collect()
    });

    assert_eq!(executions.load(Ordering::Relaxed), N as u64);
    assert_eq!(out.results.len(), N);
    for (i, r) in out.results.iter().enumerate() {
        let s = i as u64;
        assert_eq!(
            *r,
            (0..s % 7).sum::<u64>() + s * 3,
            "slot {i} holds the wrong result"
        );
    }
    assert_eq!(out.report.counter("stress.runs"), N as u64);
    assert_eq!(out.report.counter("sweep.scenarios"), N as u64);
    assert_eq!(out.report.counter("sweep.workers"), WORKERS as u64);
    let per_worker: u64 = (0..WORKERS)
        .map(|w| out.report.counter(&format!("sweep.worker.{w}.scenarios")))
        .sum();
    assert_eq!(
        per_worker, N as u64,
        "per-worker tallies must cover every scenario"
    );
    assert_eq!(out.report.timers["sweep.block"].count, N as u64);
}

#[test]
fn stress_with_real_instances_keeps_slots_straight() {
    // Same property through the amsim glue: 200 short transient runs over
    // one shared compiled model, each with a distinct seeded stimulus.
    let module = vams_parser::parse_module(&rc_ladder(1)).unwrap();
    let model = amsim::Simulation::new(&module)
        .dt(1e-6)
        .output("V(out)")
        .compile()
        .unwrap();
    let scenarios: Vec<AmsScenario> = (0..200)
        .map(|i| AmsScenario {
            name: format!("run-{i}"),
            stim: Box::new(PiecewiseConstant::seeded(i as u64 + 1, 3, 5e-6, 0.0, 1.0)),
            steps: 12,
            newton_tol: None,
            step_control: None,
        })
        .collect();
    let out = run_ams_sweep(
        &SweepEngine::new().workers(8),
        &model,
        &ScenarioTree::from(scenarios),
        &one_lane(),
        |_| {},
    )
    .unwrap();
    assert_eq!(out.results.len(), 200);
    for (i, outcome) in out.results.iter().enumerate() {
        let run = outcome.ok().expect("healthy scenarios complete");
        assert_eq!(
            run.name,
            format!("run-{i}"),
            "slot {i} holds another scenario's run"
        );
        assert_eq!(run.waveform.len(), 12);
    }
    // 200 instances each stepped 12 times, all visible in the merged report.
    assert_eq!(out.report.counter("amsim.steps"), 200 * 12);
}

/// A 16-scenario RC1 tolerance sweep on 4 workers, run both ways onto
/// the pool: as a depth-1 forest of one-lane blocks (`run_ams_sweep`),
/// and as one-scenario blocks of a generic body
/// (`SweepEngine::run_batched`). Worker *w* starts on job *w*, so with 16
/// jobs every worker runs at least one on both paths; the model is
/// compiled once however many scenarios run.
#[test]
fn every_pool_path_keeps_every_worker_busy_and_compiles_once() {
    const SCENARIOS: usize = 16;
    const WORKERS: usize = 4;
    const STEPS: usize = 500;
    const DT: f64 = 1e-6;
    let module = vams_parser::parse_module(&rc_ladder(1)).unwrap();
    let compile_obs = Obs::recording();
    let model = amsim::Simulation::new(&module)
        .dt(DT)
        .output("V(out)")
        .collector(compile_obs.clone())
        .compile()
        .unwrap();
    let compile = compile_obs.report().unwrap();
    let scenarios = || -> Vec<AmsScenario> {
        (0..SCENARIOS)
            .map(|i| AmsScenario {
                name: format!("rc1/{i}"),
                stim: Box::new(PiecewiseConstant::seeded(i as u64 + 1, 5, 5e-5, 0.0, 1.0)),
                steps: STEPS,
                newton_tol: Some(if i % 2 == 0 { 1e-10 } else { 1e-7 }),
                step_control: None,
            })
            .collect()
    };
    let engine = SweepEngine::new().workers(WORKERS);
    let check = |path: &str, report: &Report| {
        let mut merged = compile.clone();
        merged.merge(report);
        assert_eq!(
            merged.counter("sweep.scenarios"),
            SCENARIOS as u64,
            "{path}"
        );
        assert_eq!(merged.counter("sweep.workers"), WORKERS as u64, "{path}");
        for w in 0..WORKERS {
            assert!(
                merged.counter(&format!("sweep.worker.{w}.scenarios")) >= 1,
                "{path}: worker {w} executed no scenarios"
            );
        }
        assert_eq!(
            merged.counter("amsim.jacobian.builds"),
            1,
            "{path}: compile-once violated"
        );
        assert_eq!(
            merged.counter("amsim.steps"),
            (SCENARIOS * STEPS) as u64,
            "{path}"
        );
    };

    let tree = ScenarioTree::from(scenarios());
    let forest = run_ams_sweep(&engine, &model, &tree, &one_lane(), |_| {}).unwrap();
    assert_eq!(forest.results.len(), SCENARIOS);
    assert_eq!(
        forest.report.counter("sweep.scenarios.ok"),
        SCENARIOS as u64
    );
    assert_eq!(forest.report.timers["sweep.block"].count, SCENARIOS as u64);
    check("run_ams_sweep", &forest.report);

    let scenarios = scenarios();

    let blocks = engine.run_batched(&scenarios, 1, |obs, block| {
        block
            .iter()
            .map(|sc| {
                let mut inst = model
                    .instance_builder()
                    .collector(obs.clone())
                    .newton_tol(sc.newton_tol.unwrap())
                    .build()
                    .unwrap();
                for k in 0..sc.steps {
                    inst.step(&[sc.stim.value(k as f64 * DT)]);
                }
                inst.output(0)
            })
            .collect()
    });
    for (i, (y, r)) in blocks.results.iter().zip(&forest.results).enumerate() {
        let last = r.ok().unwrap().waveform.last().unwrap();
        assert_eq!(y.to_bits(), last.to_bits(), "scenario {i}");
    }
    check("SweepEngine::run_batched", &blocks.report);
}
