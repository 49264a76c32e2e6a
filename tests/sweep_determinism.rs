//! The sweep engine must be a pure parallelization: worker count and
//! scheduling may change *who* runs a scenario, but never its result.
//!
//! Bit-identical waveforms across 1/2/8 workers hold because every
//! scenario gets its own instance of one shared compiled model — the
//! initial LU factors are computed once at compile time, so no run's
//! numerical path depends on which worker (or how many) executed it.

use std::sync::Arc;

use amsim::{CompiledModel, Simulation, SolverKind, StepControl};
use amsvp_core::circuits::{diode_clamp, rc_ladder, PiecewiseConstant};
use obs::{Obs, Report};
use sweep::{
    run_ams_sweep, AmsScenario, ScenarioOutcome, ScenarioTree, SweepEngine, SweepOptions,
    SweepOutcome,
};

const DIODE: &str = "module dio(in, out);
   input in; output out;
   electrical in, out, gnd;
   ground gnd;
   branch (in, out) r;
   branch (out, gnd) d;
   analog begin
     V(r) <+ 1k * I(r);
     I(d) <+ 1e-9 * (exp(V(d) / 0.1) - 1);
   end
 endmodule";

fn compile(source: &str, dt: f64) -> Arc<CompiledModel> {
    compile_with(source, dt, SolverKind::Auto)
}

fn compile_with(source: &str, dt: f64, kind: SolverKind) -> Arc<CompiledModel> {
    let module = vams_parser::parse_module(source).unwrap();
    Simulation::new(&module)
        .dt(dt)
        .output("V(out)")
        .solver(kind)
        .compile()
        .unwrap()
}

/// A mixed bag of scenarios: random stimuli, several tolerance choices.
/// `hi` bounds the drive. The diode uses the soft-exponential variant
/// (VT = 0.1 V): plain Newton on the stiff 25.85 mV diode can exceed the
/// iteration cap on arbitrary level jumps, which is a solver property,
/// not a scheduling one.
fn scenarios(n: usize, steps: usize, hold: f64, hi: f64) -> Vec<AmsScenario> {
    (0..n)
        .map(|i| AmsScenario {
            name: format!("s{i}"),
            stim: Box::new(PiecewiseConstant::seeded(
                1 + i as u64,
                6,
                hold,
                0.0,
                if i % 2 == 0 { hi } else { 0.8 * hi },
            )),
            steps,
            newton_tol: match i % 3 {
                0 => None,
                1 => Some(1e-9),
                _ => Some(1e-6),
            },
            step_control: None,
        })
        .collect()
}

/// Merged counters with the scheduling-dependent `sweep.*` family
/// stripped: everything left must not depend on the worker count.
fn solver_counters(report: &Report) -> Vec<(String, u64)> {
    report
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with("sweep."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

type AmsOutcome = SweepOutcome<ScenarioOutcome<sweep::AmsRun, amsim::AmsError>>;

/// `scenarios` swept on `workers` in lane-blocks of `lane_width`; width 1
/// is the scalar path, one scenario per Newton solve.
fn sweep(
    model: &Arc<CompiledModel>,
    workers: usize,
    lane_width: usize,
    scenarios: Vec<AmsScenario>,
) -> AmsOutcome {
    let options = SweepOptions {
        lane_width,
        ..SweepOptions::default()
    };
    let engine = SweepEngine::new().workers(workers);
    run_ams_sweep(
        &engine,
        model,
        &ScenarioTree::from(scenarios),
        &options,
        |_| {},
    )
    .unwrap()
}

fn waveform_bits(outcome: &AmsOutcome) -> Vec<Vec<u64>> {
    outcome
        .results
        .iter()
        .map(|r| {
            let run = r.ok().expect("healthy scenarios complete");
            run.waveform.iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

#[test]
fn worker_count_never_changes_results() {
    for (label, source, dt, steps, hi) in [
        ("RC1", rc_ladder(1), 1e-6, 300, 1.0),
        ("diode", DIODE.to_string(), 1e-6, 200, 0.75),
    ] {
        let model = compile(&source, dt);
        let runs: Vec<AmsOutcome> = [1usize, 2, 8]
            .into_iter()
            .map(|w| sweep(&model, w, 1, scenarios(12, steps, 40.0 * dt, hi)))
            .collect();

        let reference_waves = waveform_bits(&runs[0]);
        let reference_counters = solver_counters(&runs[0].report);
        for run in &runs[1..] {
            assert_eq!(
                waveform_bits(run),
                reference_waves,
                "{label}: waveforms must be bit-identical for any worker count"
            );
            assert_eq!(
                solver_counters(&run.report),
                reference_counters,
                "{label}: merged solver counters must not depend on scheduling"
            );
        }
        // The scenarios genuinely differ from each other (the sweep is
        // not comparing twelve copies of one run).
        assert_ne!(reference_waves[0], reference_waves[1]);
    }
}

#[test]
fn model_is_compiled_once_no_matter_the_sweep_size() {
    let source = rc_ladder(1);
    let builds_for = |n_scenarios: usize| {
        let obs = Obs::recording();
        let module = vams_parser::parse_module(&source).unwrap();
        let model = Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .collector(obs.clone())
            .compile()
            .unwrap();
        let out = sweep(&model, 4, 1, scenarios(n_scenarios, 50, 2e-5, 1.0));
        let mut merged = obs.report().unwrap();
        merged.merge(&out.report);
        merged.counter("amsim.jacobian.builds")
    };
    let one = builds_for(1);
    let many = builds_for(64);
    assert_eq!(one, 1, "a single-scenario sweep compiles the model once");
    assert_eq!(
        many, one,
        "64 scenarios must not trigger any additional Jacobian builds"
    );
}

/// Determinism must survive the sparse backend: a 30-stage ladder (150
/// unknowns, which `Auto` resolves sparse) swept in one-lane (scalar) and
/// 8-lane blocks at 1/2/8 workers produces one bit-exact answer. The sparse pivot
/// sequence and fill pattern are frozen per compiled model, so neither
/// lane packing nor scheduling can perturb the elimination order.
#[test]
fn sparse_backend_sweeps_are_deterministic() {
    let model = compile_with(&rc_ladder(30), 1e-3, SolverKind::Auto);
    assert_eq!(
        model.solver_kind(),
        SolverKind::Sparse,
        "RC30 must auto-select the sparse backend for this test to mean anything"
    );
    // 12 scenarios over 8-wide lanes: one full lane block plus an uneven
    // 4-lane remainder.
    let scen = || scenarios(12, 100, 25e-3, 1.0);

    let reference = sweep(&model, 1, 1, scen());
    let reference_waves = waveform_bits(&reference);
    let reference_counters = solver_counters(&reference.report);
    assert_ne!(reference_waves[0], reference_waves[1]);

    for workers in [1usize, 2, 8] {
        let scalar = sweep(&model, workers, 1, scen());
        assert_eq!(
            waveform_bits(&scalar),
            reference_waves,
            "sparse scalar sweep at {workers} workers drifted"
        );
        assert_eq!(
            solver_counters(&scalar.report),
            reference_counters,
            "sparse solver counters at {workers} workers drifted"
        );

        let batched = sweep(&model, workers, 8, scen());
        assert_eq!(
            waveform_bits(&batched),
            reference_waves,
            "8-lane sparse batched sweep at {workers} workers drifted from the scalar path"
        );
    }
}

/// The factorization backend is an implementation detail of the linear
/// solve: swapping it must not change how the simulation *works* — same
/// steps, same Newton iterations, same number of factorizations — only
/// how each factorization is carried out. The sparse run additionally
/// reports its own `linalg.sparse.*` counters; the dense run reports
/// none.
#[test]
fn factorization_backend_conserves_solver_counters() {
    let run = |kind: SolverKind| {
        let model = compile_with(&rc_ladder(30), 1e-3, kind);
        assert_eq!(model.solver_kind(), kind);
        sweep(&model, 2, 1, scenarios(8, 100, 25e-3, 1.0))
    };
    let dense = run(SolverKind::Dense);
    let sparse = run(SolverKind::Sparse);

    let amsim_counters = |r: &Report| {
        r.counters
            .iter()
            .filter(|(k, _)| k.starts_with("amsim."))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        amsim_counters(&dense.report),
        amsim_counters(&sparse.report),
        "amsim.* counters must be conserved across factorization backends"
    );

    assert_eq!(
        dense.report.counter("linalg.sparse.refactor"),
        0,
        "the dense backend must not report sparse counters"
    );
    assert_eq!(
        sparse.report.counter("linalg.sparse.refactor"),
        sparse.report.counter("amsim.lu.factorizations"),
        "every run-time factorization on the sparse path is a pattern-reusing refactor"
    );
    assert_eq!(
        sparse.report.counter("linalg.sparse.analyze"),
        0,
        "instances inherit the frozen symbolic analysis; no run-time re-analysis on a \
         fixed-pattern ladder"
    );
}

/// The stiff diode clamp under adaptive stepping, forced onto the sparse
/// backend despite its small dimension: Newton retries, dt backoff, and
/// refactor-on-stall all route through `SparseLu::refactor`, and the
/// waveform stays within rounding of the dense reference.
#[test]
fn sparse_backend_handles_nonlinear_adaptive_stepping() {
    let src = diode_clamp();
    let dt = 1e-4;
    let steps = 60;
    let stim = PiecewiseConstant::seeded(3, 5, 6.0 * dt, 0.0, 0.8);
    let waveform = |kind: SolverKind| {
        let model = compile_with(&src, dt, kind);
        assert_eq!(model.solver_kind(), kind);
        let mut inst = model
            .instance_builder()
            .step_control(StepControl::new(1e-9).max_retries(20))
            .build()
            .unwrap();
        (0..steps)
            .map(|k| {
                inst.try_step(&[stim.value(k as f64 * dt)]).unwrap();
                inst.output(0)
            })
            .collect::<Vec<f64>>()
    };
    let dense = waveform(SolverKind::Dense);
    let sparse = waveform(SolverKind::Sparse);
    let err = {
        let sum_sq: f64 = dense
            .iter()
            .zip(&sparse)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (sum_sq / dense.len() as f64).sqrt()
    };
    assert!(
        err <= 1e-12,
        "diode clamp: dense vs sparse RMSE {err:.3e} exceeds 1e-12"
    );
}
