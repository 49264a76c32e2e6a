//! CI smoke check for lane-batched sweep execution — the headline
//! benchmark of the batching work.
//!
//! Sweeps RC20 × 64 scenarios through `run_ams_sweep` twice at the same
//! worker count: once in one-lane blocks (the scalar path: one scenario
//! per Newton solve) and once in lane-blocks of 16. Asserts that
//!
//! * every batched waveform is **bit-identical** to its one-lane twin
//!   (the determinism contract — same IEEE ops, same order, per lane);
//! * the batch counters (`amsim.batch.lanes`, `sweep.batch.blocks`)
//!   and the conserved `amsim.*` families are right;
//! * the batched sweep is at least `MIN_SPEEDUP`× faster at equal
//!   workers (the whole point of evaluating one bytecode pass over a
//!   lane-block: the shared-factor triangular solves and residual
//!   programs run over contiguous `[slot][lane]` memory).
//!
//! Writes the merged batched report as `BENCH_batch_smoke.json`. Exits nonzero
//! on any violation.

use amsvp_core::circuits::{rc_ladder, PiecewiseConstant};
use obs::Obs;
use std::time::Instant;
use sweep::{run_ams_sweep, AmsScenario, ScenarioTree, SweepEngine, SweepOptions};

const SCENARIOS: usize = 64;
const WORKERS: usize = 4;
const LANE_WIDTH: usize = 16;
const STEPS: usize = 400;
const MIN_SPEEDUP: f64 = 2.0;

fn scenarios(n: usize) -> ScenarioTree {
    let flat: Vec<AmsScenario> = (0..n)
        .map(|i| AmsScenario {
            name: format!("rc20/{i}"),
            stim: Box::new(PiecewiseConstant::seeded(i as u64 + 1, 5, 5e-5, 0.0, 1.0)),
            steps: STEPS,
            newton_tol: None,
            step_control: None,
        })
        .collect();
    ScenarioTree::from(flat)
}

fn lanes(lane_width: usize) -> SweepOptions {
    SweepOptions {
        lane_width,
        ..SweepOptions::default()
    }
}

fn main() {
    let module = vams_parser::parse_module(&rc_ladder(20)).expect("RC20 parses");
    let model = amsim::Simulation::new(&module)
        .dt(1e-6)
        .output("V(out)")
        .compile()
        .expect("RC20 compiles");
    let engine = SweepEngine::new().workers(WORKERS);
    let sweep = |tree: &ScenarioTree, lane_width: usize| {
        run_ams_sweep(&engine, &model, tree, &lanes(lane_width), |_| {})
    };

    // Warm-up (page in the model, stabilize frequencies), then measure.
    sweep(&scenarios(WORKERS), 1).expect("warm-up runs");

    let tree = scenarios(SCENARIOS);
    let t0 = Instant::now();
    let scalar = sweep(&tree, 1).expect("one-lane sweep runs");
    let scalar_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let batched = sweep(&tree, LANE_WIDTH).expect("batched sweep runs");
    let batched_secs = t0.elapsed().as_secs_f64();
    let speedup = scalar_secs / batched_secs;

    let compile_obs = Obs::recording();
    compile_obs.add("bench.scenarios", SCENARIOS as u64);
    let mut report = compile_obs.report().expect("recording collector reports");
    report.merge(&batched.report);
    report
        .write_json("BENCH_batch_smoke.json")
        .expect("BENCH_batch_smoke.json is writable");

    let mut failures = Vec::new();
    // Bit-identity: every batched waveform equals its scalar twin.
    let mut mismatches = 0usize;
    for (i, (b, s)) in batched.results.iter().zip(&scalar.results).enumerate() {
        let (b, s) = match (b.ok(), s.ok()) {
            (Some(b), Some(s)) => (b, s),
            _ => {
                failures.push(format!("scenario {i} did not complete in both sweeps"));
                continue;
            }
        };
        if b.waveform.len() != s.waveform.len() {
            failures.push(format!("scenario {i}: waveform lengths differ"));
            continue;
        }
        mismatches += b
            .waveform
            .iter()
            .zip(&s.waveform)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
    }
    if mismatches != 0 {
        failures.push(format!(
            "{mismatches} waveform samples differ between one-lane and batched sweeps \
             (bit-identity is a design requirement, not a tolerance)"
        ));
    }
    if batched.report.counter("sweep.scenarios.ok") != SCENARIOS as u64 {
        failures.push(format!(
            "counter `sweep.scenarios.ok` is {}, want {SCENARIOS}",
            batched.report.counter("sweep.scenarios.ok")
        ));
    }
    if batched.report.counter("amsim.batch.lanes") != SCENARIOS as u64 {
        failures.push(format!(
            "counter `amsim.batch.lanes` is {}, want {SCENARIOS}",
            batched.report.counter("amsim.batch.lanes")
        ));
    }
    let blocks = (SCENARIOS as u64).div_ceil(LANE_WIDTH as u64);
    if batched.report.counter("sweep.batch.blocks") != blocks {
        failures.push(format!(
            "counter `sweep.batch.blocks` is {}, want {blocks}",
            batched.report.counter("sweep.batch.blocks")
        ));
    }
    for c in ["amsim.steps", "amsim.newton_iterations"] {
        if batched.report.counter(c) != scalar.report.counter(c) {
            failures.push(format!(
                "counter `{c}` not conserved: batched {} vs one-lane {}",
                batched.report.counter(c),
                scalar.report.counter(c)
            ));
        }
    }
    // RC20 is linear: every lane stays on the shared zero-state factors,
    // so batching must not introduce a single extra factorization.
    if batched.report.counter("amsim.lu.factorizations") != 0 {
        failures.push(format!(
            "counter `amsim.lu.factorizations` is {}, want 0 (shared-factor path lost)",
            batched.report.counter("amsim.lu.factorizations")
        ));
    }
    if speedup < MIN_SPEEDUP {
        failures.push(format!(
            "batched sweep speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor \
             (one-lane {scalar_secs:.3}s vs batched {batched_secs:.3}s at {WORKERS} workers)"
        ));
    }

    println!(
        "batch_smoke: RC20 x {SCENARIOS} scenarios, {WORKERS} workers, lane width {LANE_WIDTH}"
    );
    println!("  one-lane {scalar_secs:>8.3} s");
    println!("  batched  {batched_secs:>8.3} s  ({speedup:.2}x)");
    println!(
        "  masked iterations: {}",
        batched.report.counter("amsim.batch.masked_iterations")
    );

    if failures.is_empty() {
        println!("batch_smoke: OK");
    } else {
        for f in &failures {
            eprintln!("batch_smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
