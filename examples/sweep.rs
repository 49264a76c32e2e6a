//! Parallel, lane-batched and forking sweeps over the RC20 ladder, all
//! through the one sweep entry, `sweep::run_ams_sweep`.
//!
//! Compiles the 20-stage RC ladder **once**, then:
//!
//! 1. runs 64 scenarios — a Newton-tolerance ladder crossed with
//!    seeded-random piecewise-constant stimuli — in one-lane blocks on 1
//!    and on 4 workers, then in lane-blocks of 16 on 4 workers (16
//!    scenarios advancing together per batched bytecode pass over
//!    `[slot][lane]` memory);
//! 2. runs 32 scenarios that agree on their first 1500 steps as a flat
//!    list (every scenario re-simulates the shared prefix) and as a
//!    `ScenarioTree` (the prefix runs once, and the 32 tails fork from a
//!    snapshot of it).
//!
//! Worker count, lane width and tree structure are pure performance
//! knobs: every waveform is asserted bit-identical across them. Speedups
//! are printed, and asserted only on request.
//!
//! ```text
//! cargo run --release --example sweep
//! AMSVP_ASSERT_SPEEDUP=1 cargo run --release --example sweep
//! ```

use std::sync::Arc;

use amsim::CompiledModel;
use amsvp_core::circuits::{rc_ladder, PiecewiseConstant, Stimulus};
use obs::Obs;
use sweep::{
    run_ams_sweep, AmsScenario, ScenarioOutcome, ScenarioSegment, ScenarioTree, SweepEngine,
    SweepOptions, SweepOutcome, TreeScenario,
};

const DT: f64 = 50e-9;
const STEPS: usize = 2000;
const SCENARIOS: usize = 64;
const WORKERS: usize = 4;
const LANE_WIDTH: usize = 16;
const PREFIX_STEPS: usize = 1500;
const TAIL_STEPS: usize = 500;
const FORKS: usize = 32;

type Outcome = SweepOutcome<ScenarioOutcome<sweep::AmsRun, amsim::AmsError>>;

fn tolerance_sweep() -> ScenarioTree {
    let tolerances = [1e-12, 1e-10, 1e-8, 1e-6];
    let scenarios: Vec<AmsScenario> = (0..SCENARIOS)
        .map(|i| AmsScenario {
            name: format!(
                "rc20/tol{}/seed{}",
                i % tolerances.len(),
                i / tolerances.len()
            ),
            stim: Box::new(PiecewiseConstant::seeded(
                1 + (i / tolerances.len()) as u64,
                8,
                500.0 * DT,
                -0.5,
                1.0,
            )),
            steps: STEPS,
            newton_tol: Some(tolerances[i % tolerances.len()]),
            step_control: None,
        })
        .collect();
    ScenarioTree::from(scenarios)
}

fn prefix_stim() -> PiecewiseConstant {
    PiecewiseConstant::seeded(7, 8, 400.0 * DT, -0.5, 1.0)
}

fn tail_stim(i: usize) -> PiecewiseConstant {
    PiecewiseConstant::seeded(100 + i as u64, 8, 400.0 * DT, -0.5, 1.0)
}

/// One shared 1500-step prefix forking into 32 tails.
fn forked() -> ScenarioTree {
    ScenarioTree {
        roots: vec![TreeScenario {
            newton_tol: None,
            step_control: None,
            segment: ScenarioSegment {
                name: "rc20/prefix".into(),
                stim: Box::new(prefix_stim()),
                steps: PREFIX_STEPS,
                children: (0..FORKS)
                    .map(|i| ScenarioSegment {
                        name: format!("rc20/tail{i}"),
                        stim: Box::new(tail_stim(i)),
                        steps: TAIL_STEPS,
                        children: Vec::new(),
                    })
                    .collect(),
            },
        }],
    }
}

/// The flat equivalent of [`forked`]: every scenario re-simulates the
/// prefix, with a stimulus stitched at the fork time (segments sample
/// absolute time, so both encodings drive identical inputs at every
/// step).
fn unforked() -> ScenarioTree {
    struct SwitchAt {
        t0: f64,
        before: PiecewiseConstant,
        after: PiecewiseConstant,
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
    let scenarios: Vec<AmsScenario> = (0..FORKS)
        .map(|i| AmsScenario {
            name: format!("rc20/tail{i}"),
            stim: Box::new(SwitchAt {
                t0: PREFIX_STEPS as f64 * DT,
                before: prefix_stim(),
                after: tail_stim(i),
            }),
            steps: PREFIX_STEPS + TAIL_STEPS,
            newton_tol: None,
            step_control: None,
        })
        .collect();
    ScenarioTree::from(scenarios)
}

fn sweep(model: &Arc<CompiledModel>, tree: &ScenarioTree, workers: usize, lanes: usize) -> Outcome {
    let options = SweepOptions {
        lane_width: lanes,
        ..SweepOptions::default()
    };
    let engine = SweepEngine::new().workers(workers);
    run_ams_sweep(&engine, model, tree, &options, |_| {}).expect("sweep runs")
}

fn waveform_bits(outcome: &Outcome) -> Vec<Vec<u64>> {
    outcome
        .results
        .iter()
        .map(|r| {
            let run = r.ok().expect("healthy scenarios complete");
            run.waveform.iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

/// Asserts `speedup ≥ floor` when `AMSVP_ASSERT_SPEEDUP=1`. Wall-clock
/// ratios depend on the host (core count, load, frequency scaling), so
/// correctness — the bit-identity checks — is asserted unconditionally
/// and speed only on request.
fn check_speedup(what: &str, speedup: f64, floor: f64) {
    if std::env::var("AMSVP_ASSERT_SPEEDUP").is_ok_and(|v| v == "1") {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(
            speedup >= floor,
            "AMSVP_ASSERT_SPEEDUP=1 on a {cores}-core host: {what} should be \
             ≥{floor}× faster (got {speedup:.2}×)"
        );
    }
}

fn main() {
    let module = vams_parser::parse_module(&rc_ladder(20)).expect("RC20 parses");
    let compile_obs = Obs::recording();
    let model = amsim::Simulation::new(&module)
        .dt(DT)
        .output("V(out)")
        .collector(compile_obs.clone())
        .compile()
        .expect("RC20 compiles");
    println!(
        "compiled RC20 once: {} unknowns, dt = {} s",
        model.dim(),
        model.dt()
    );

    // 1. Threads × lanes over one flat tolerance sweep.
    let tree = tolerance_sweep();
    let sequential = sweep(&model, &tree, 1, 1);
    let parallel = sweep(&model, &tree, WORKERS, 1);
    let batched = sweep(&model, &tree, WORKERS, LANE_WIDTH);
    assert_eq!(
        waveform_bits(&sequential),
        waveform_bits(&parallel),
        "parallel sweep must be bit-identical to the sequential one"
    );
    // The batch performs the one-lane path's IEEE operations in the same
    // order, per lane, so the waveforms match to the last bit.
    assert_eq!(
        waveform_bits(&parallel),
        waveform_bits(&batched),
        "batched sweep must be bit-identical to the one-lane one"
    );
    let mut merged = compile_obs.report().expect("recording collector");
    merged.merge(&batched.report);
    assert_eq!(
        merged.counter("amsim.jacobian.builds"),
        1,
        "64 scenarios share one compiled model: exactly one Jacobian build"
    );
    let threads = sequential.wall / parallel.wall;
    let lanes = parallel.wall / batched.wall;
    println!(
        "{SCENARIOS} scenarios × {STEPS} steps: 1 worker {:.2} s, {WORKERS} workers {:.2} s \
         ({threads:.2}×), {WORKERS} workers × {LANE_WIDTH} lanes {:.2} s ({lanes:.2}× more)",
        sequential.wall, parallel.wall, batched.wall
    );
    let blocks = &parallel.report.timers["sweep.block"];
    println!(
        "one-lane block wall time: mean {:.1} ms, min {:.1} ms, max {:.1} ms",
        blocks.mean() * 1e3,
        blocks.min * 1e3,
        blocks.max * 1e3
    );
    println!(
        "batch bookkeeping: {} blocks, {} lanes, {} masked iterations; solver work \
         (conserved): {} steps, {} Newton iterations",
        batched.report.counter("sweep.batch.blocks"),
        batched.report.counter("amsim.batch.lanes"),
        batched.report.counter("amsim.batch.masked_iterations"),
        batched.report.counter("amsim.steps"),
        batched.report.counter("amsim.newton_iterations"),
    );
    for w in 0..WORKERS {
        let key = format!("sweep.worker.{w}.scenarios");
        println!("worker {w}: {} scenarios", parallel.report.counter(&key));
    }

    // 2. A shared prefix simulated once: forking is a scheduling choice,
    // not a numerical one. A forked lane replays the exact machine state
    // the prefix lane had at the fork point, so every path matches the
    // flat run to the last bit.
    let tree = forked();
    let flat = sweep(&model, &unforked(), WORKERS, LANE_WIDTH);
    let fork = sweep(&model, &tree, WORKERS, LANE_WIDTH);
    assert_eq!(
        waveform_bits(&flat),
        waveform_bits(&fork),
        "tree sweep must be bit-identical to the flat one"
    );
    let forking = flat.wall / fork.wall;
    println!(
        "{FORKS} scenarios × {} steps, {PREFIX_STEPS} shared: flat {:.2} s, forked {:.2} s \
         ({forking:.2}×); {} nodes, {} forks, {} prefix steps saved, {} snapshot taken / \
         {} restored",
        PREFIX_STEPS + TAIL_STEPS,
        flat.wall,
        fork.wall,
        tree.node_count(),
        fork.report.counter("sweep.tree.forks"),
        fork.report.counter("sweep.tree.prefix_steps_saved"),
        fork.report.counter("amsim.snapshot.taken"),
        fork.report.counter("amsim.snapshot.restored"),
    );

    check_speedup(&format!("a {WORKERS}-worker sweep"), threads, 3.0);
    check_speedup("lane batching at equal workers on RC20", lanes, 1.5);
    check_speedup("forking a 75% shared prefix on RC20", forking, 1.5);
    if std::env::var("AMSVP_ASSERT_SPEEDUP").is_err() {
        println!("(speedup assertions skipped; opt in with AMSVP_ASSERT_SPEEDUP=1)");
    }
}
