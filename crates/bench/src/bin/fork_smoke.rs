//! CI smoke check for checkpoint/fork sweep execution — the headline
//! benchmark of the scenario-tree work.
//!
//! Sweeps RC20 × 64 scenarios that share the first 75% of their
//! stimulus (300 of 400 steps) through `run_ams_sweep` twice at the same
//! worker count and lane width: once as a flat list (every lane
//! re-simulates the shared prefix) and once as a scenario tree (the
//! prefix is simulated once and the 64 tails fork from a snapshot).
//! Asserts that
//!
//! * every forked waveform is **bit-identical** to its flat twin over
//!   all 400 samples (forking is a scheduling choice, not a numerical
//!   one);
//! * the tree has 65 nodes and its counters are exact: 1 fork,
//!   `sweep.tree.prefix_steps_saved = 300 · 63`, one snapshot taken and
//!   64 restores;
//! * the tree sweep is at least `MIN_SPEEDUP`× faster at equal workers
//!   (the whole point of forking: 63 redundant prefix simulations
//!   disappear).
//!
//! Writes the merged tree report as `BENCH_fork_smoke.json`. Exits
//! nonzero on any violation.

use amsvp_core::circuits::{rc_ladder, PiecewiseConstant, Stimulus};
use obs::Obs;
use std::time::Instant;
use sweep::{
    run_ams_sweep, AmsScenario, ScenarioSegment, ScenarioTree, SweepEngine, SweepOptions,
    TreeScenario,
};

const SCENARIOS: usize = 64;
const WORKERS: usize = 4;
const LANE_WIDTH: usize = 16;
const DT: f64 = 1e-6;
const PREFIX_STEPS: usize = 300;
const TAIL_STEPS: usize = 100;
const MIN_SPEEDUP: f64 = 2.0;

/// Stitches two stimuli at `t0`: the flat-sweep equivalent of a tree
/// path whose segment boundary sits at absolute time `t0`.
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

fn prefix_stim() -> PiecewiseConstant {
    PiecewiseConstant::seeded(7, 5, 5e-5, 0.0, 1.0)
}

fn tail_stim(i: usize) -> PiecewiseConstant {
    PiecewiseConstant::seeded(i as u64 + 100, 5, 5e-5, 0.0, 1.0)
}

fn flat_scenarios(n: usize) -> ScenarioTree {
    let flat: Vec<AmsScenario> = (0..n)
        .map(|i| AmsScenario {
            name: format!("rc20/tail{i}"),
            stim: Box::new(SwitchAt {
                t0: PREFIX_STEPS as f64 * DT,
                before: Box::new(prefix_stim()),
                after: Box::new(tail_stim(i)),
            }),
            steps: PREFIX_STEPS + TAIL_STEPS,
            newton_tol: None,
            step_control: None,
        })
        .collect();
    ScenarioTree::from(flat)
}

fn tree() -> ScenarioTree {
    ScenarioTree {
        roots: vec![TreeScenario {
            newton_tol: None,
            step_control: None,
            segment: ScenarioSegment {
                name: "rc20/prefix".into(),
                stim: Box::new(prefix_stim()),
                steps: PREFIX_STEPS,
                children: (0..SCENARIOS)
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

fn main() {
    let module = vams_parser::parse_module(&rc_ladder(20)).expect("RC20 parses");
    let model = amsim::Simulation::new(&module)
        .dt(DT)
        .output("V(out)")
        .compile()
        .expect("RC20 compiles");
    let engine = SweepEngine::new().workers(WORKERS);
    let options = SweepOptions {
        lane_width: LANE_WIDTH,
        ..SweepOptions::default()
    };
    let sweep = |tree: &ScenarioTree| run_ams_sweep(&engine, &model, tree, &options, |_| {});

    // Warm-up (page in the model, stabilize frequencies), then measure.
    sweep(&flat_scenarios(WORKERS)).expect("warm-up runs");

    let (flat_tree, forked_tree) = (flat_scenarios(SCENARIOS), tree());
    let t0 = Instant::now();
    let flat = sweep(&flat_tree).expect("flat batched sweep runs");
    let flat_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let forked = sweep(&forked_tree).expect("tree sweep runs");
    let forked_secs = t0.elapsed().as_secs_f64();
    let speedup = flat_secs / forked_secs;

    let compile_obs = Obs::recording();
    compile_obs.add("bench.scenarios", SCENARIOS as u64);
    let mut report = compile_obs.report().expect("recording collector reports");
    report.merge(&forked.report);
    report
        .write_json("BENCH_fork_smoke.json")
        .expect("BENCH_fork_smoke.json is writable");

    let mut failures = Vec::new();
    // Bit-identity: every forked waveform equals its flat twin from t=0.
    let mut mismatches = 0usize;
    for (i, (f, t)) in flat.results.iter().zip(&forked.results).enumerate() {
        let (f, t) = match (f.ok(), t.ok()) {
            (Some(f), Some(t)) => (f, t),
            _ => {
                failures.push(format!("scenario {i} did not complete in both sweeps"));
                continue;
            }
        };
        if f.name != t.name {
            failures.push(format!("scenario {i}: name {} vs {}", f.name, t.name));
        }
        if f.waveform.len() != t.waveform.len() {
            failures.push(format!("scenario {i}: waveform lengths differ"));
            continue;
        }
        mismatches += f
            .waveform
            .iter()
            .zip(&t.waveform)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
    }
    if mismatches != 0 {
        failures.push(format!(
            "{mismatches} waveform samples differ between flat and forked sweeps \
             (bit-identity is a design requirement, not a tolerance)"
        ));
    }
    if forked_tree.node_count() != SCENARIOS + 1 {
        failures.push(format!(
            "the tree has {} nodes, want {}",
            forked_tree.node_count(),
            SCENARIOS + 1
        ));
    }
    let want = [
        ("sweep.scenarios.ok", SCENARIOS as u64),
        ("sweep.tree.forks", 1),
        (
            "sweep.tree.prefix_steps_saved",
            (PREFIX_STEPS * (SCENARIOS - 1)) as u64,
        ),
        ("amsim.snapshot.taken", 1),
        ("amsim.snapshot.restored", SCENARIOS as u64),
    ];
    for (c, v) in want {
        if forked.report.counter(c) != v {
            failures.push(format!(
                "counter `{c}` is {}, want {v}",
                forked.report.counter(c)
            ));
        }
    }
    // RC20 is linear: every lane (root and forked) stays on the shared
    // zero-state factors, so forking must not introduce a refactor.
    if forked.report.counter("amsim.lu.factorizations") != 0 {
        failures.push(format!(
            "counter `amsim.lu.factorizations` is {}, want 0 (shared-factor path lost)",
            forked.report.counter("amsim.lu.factorizations")
        ));
    }
    if speedup < MIN_SPEEDUP {
        failures.push(format!(
            "tree sweep speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor \
             (flat {flat_secs:.3}s vs forked {forked_secs:.3}s at {WORKERS} workers)"
        ));
    }

    println!(
        "fork_smoke: RC20 x {SCENARIOS} scenarios, {}/{} shared prefix steps, \
         {WORKERS} workers, lane width {LANE_WIDTH}",
        PREFIX_STEPS,
        PREFIX_STEPS + TAIL_STEPS
    );
    println!("  flat    {flat_secs:>8.3} s");
    println!("  forked  {forked_secs:>8.3} s  ({speedup:.2}x)");
    println!(
        "  prefix steps saved: {}",
        forked.report.counter("sweep.tree.prefix_steps_saved")
    );

    if failures.is_empty() {
        println!("fork_smoke: OK");
    } else {
        for f in &failures {
            eprintln!("fork_smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
