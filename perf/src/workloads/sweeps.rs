//! `sweep_clamp` and `sweep_tree`: the two sides of the lane-batched
//! sweep engine.
//!
//! `sweep_clamp` sweeps a stiff diode clamp under adaptive step control:
//! nonlinear lanes refactor, reject and back off independently, so the
//! refactor path and lane masking carry the cost, and no prefix is
//! shared. `sweep_tree` sweeps RC20 scenario trees whose leaves share
//! 75 % of their steps: linear lanes stay on the shared zero-state
//! factors (no refactor ever), and snapshot/fork plus tree scheduling
//! carry the cost.

use std::sync::Arc;
use std::time::Instant;

use amsim::{CompiledModel, Instance, Simulation, StepControl};
use amsvp_core::circuits::{diode_clamp, rc_ladder, PiecewiseConstant, Stimulus};
use obs::Report;
use sweep::{
    run_ams_sweep_batched, run_ams_sweep_batched_with, run_ams_sweep_tree, AmsScenario,
    ScenarioBudget, ScenarioSegment, ScenarioTree, SweepEngine, SweepOutcome, TreeScenario,
};

use crate::harness::{self, fill, Outcome, RunConfig, StepProbe};
use crate::{stats, trace};

/// One sweep worker: on a 2-vCPU host the second vCPU's share swings
/// between none and most of a core over minutes, which moved a 2-worker
/// sweep's throughput by up to 1.7x between runs; one load thread keeps
/// the host's noise out of the comparison.
const WORKERS: usize = 1;

fn compile(source: &str, dt: f64, output: &str) -> Arc<CompiledModel> {
    let module = harness::parse(source);
    let _s = trace::span("amsim.compile", 0);
    Simulation::new(&module)
        .dt(dt)
        .output(output)
        .compile()
        .expect("benchmark circuits compile")
}

/// Sweep-layer figures accumulated over the traced rounds.
#[derive(Default)]
struct SweepLedger {
    report: Report,
    first_block_shares: Vec<f64>,
    probe: StepProbe,
}

impl SweepLedger {
    fn add(&mut self, report: &Report, first_block: f64, wall: f64) {
        self.report.merge(report);
        self.first_block_shares.push(first_block / wall);
    }

    fn layers(&self, out: &mut Outcome) {
        harness::setup_layers(out, &trace::spans(), None);
        harness::solver_layers(out, &self.probe, &self.report, "");
        out.layer("sweep.busy_share", busy_share(&self.report, "", WORKERS));
        out.layer(
            "sweep.first_block_share",
            stats::median(&self.first_block_shares).unwrap_or(0.0),
        );
    }
}

/// Σ block time over the pool's worker-seconds, from the `sweep.block`
/// and `sweep.wall` timers of (possibly several merged) sweep reports.
pub fn busy_share(report: &Report, prefix: &str, workers: usize) -> f64 {
    let t = |name: &str| {
        report
            .timers
            .get(&format!("{prefix}{name}"))
            .map_or(0.0, |t| t.total)
    };
    let wall = t("sweep.wall");
    if wall > 0.0 {
        t("sweep.block") / (workers as f64 * wall)
    } else {
        0.0
    }
}

// ------------------------------------------------------------ sweep_clamp

const CLAMP_DT: f64 = 1e-4;
const CLAMP_STEPS: usize = 400;
const CLAMP_SCENARIOS: usize = 64;
const CLAMP_LANES: usize = 8;
/// Scenarios compared bit for bit against scalar runs.
const CLAMP_SAMPLES: usize = 8;

fn clamp_control() -> StepControl {
    StepControl::new(1e-9).max_retries(20)
}

fn clamp_stim(cfg: &RunConfig, i: usize) -> PiecewiseConstant {
    PiecewiseConstant::seeded(
        cfg.stream(i as u64),
        CLAMP_STEPS / 5,
        5.0 * CLAMP_DT,
        0.0,
        0.8,
    )
}

pub fn clamp(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        unit: "scenarios",
        units_per_round: CLAMP_SCENARIOS as f64,
        ..Outcome::default()
    };
    let mut make = || {
        let model = compile(&diode_clamp(), CLAMP_DT, "V(out)");
        let scenarios: Vec<AmsScenario> = (0..CLAMP_SCENARIOS)
            .map(|i| AmsScenario {
                name: format!("clamp/{i}"),
                stim: Box::new(clamp_stim(cfg, i)),
                steps: CLAMP_STEPS,
                newton_tol: None,
                step_control: Some(clamp_control()),
            })
            .collect();
        (model, scenarios)
    };
    let (model, scenarios) = harness::repeat_setup(&mut out, &mut make);
    let engine = SweepEngine::new().workers(WORKERS);
    let budget = ScenarioBudget::unlimited();
    let mut ledger = SweepLedger::default();
    let mut last: Option<SweepOutcome<_>> = None;
    let round = |l: &mut SweepLedger, traced: bool, id: u64| {
        let _s = trace::span("sweep.run", id);
        last = None;
        let t0 = Instant::now();
        let mut first = None;
        let outcome =
            run_ams_sweep_batched_with(&engine, &model, &scenarios, CLAMP_LANES, &budget, |_| {
                first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
            })
            .expect("scenario overrides are valid");
        let failed = outcome.results.iter().filter(|r| !r.is_ok()).count() as u64;
        if traced {
            l.add(&outcome.report, first.unwrap_or(0.0), outcome.wall);
        }
        last = Some(outcome);
        failed
    };
    let probe = |l: &mut SweepLedger| {
        let _s = trace::span("amsim.step_probe", 0);
        let mut inst = model
            .instance_builder()
            .step_control(clamp_control())
            .build()
            .expect("valid step control");
        l.probe
            .time_steps(&mut inst, &clamp_stim(cfg, 0), CLAMP_STEPS)
            .expect("the probe replays a stimulus the workload ran");
        let snap = inst.snapshot();
        l.probe.time_residuals(&mut model.instance(), &snap, 4096);
    };
    harness::run_rounds(
        cfg,
        &mut out,
        (CLAMP_SCENARIOS as u64, "scenarios"),
        &mut ledger,
        round,
        probe,
        &mut make,
    );

    if let Some(outcome) = &last {
        let r = &outcome.report;
        let tally: u64 = ["ok", "failed", "panicked", "budget"]
            .iter()
            .map(|k| r.counter(&format!("sweep.scenarios.{k}")))
            .sum();
        out.check(tally == CLAMP_SCENARIOS as u64, || {
            format!("outcome tallies add up to {tally}, not {CLAMP_SCENARIOS}")
        });
        for i in sample_indices(CLAMP_SCENARIOS, CLAMP_SAMPLES) {
            let mut inst = model
                .instance_builder()
                .step_control(clamp_control())
                .build()
                .expect("valid step control");
            let scalar = scalar_wave(&mut inst, &clamp_stim(cfg, i), CLAMP_STEPS);
            let batched = outcome.results[i].ok().map(|r| r.waveform.as_slice());
            out.check(
                matches!((scalar, batched), (Some(a), Some(b)) if harness::bit_identical(&a, b)),
                || format!("clamp scenario {i}: batched lane differs from the scalar run"),
            );
        }
    }
    if cfg.traced {
        ledger.layers(&mut out);
    }
    out
}

/// `n` evenly spread indices below `len`.
fn sample_indices(len: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |k| k * len / n + (len / n) / 2)
}

fn scalar_wave(inst: &mut Instance, stim: &impl Stimulus, steps: usize) -> Option<Vec<f64>> {
    let dt = inst.dt();
    let mut inputs = vec![0.0; inst.input_names().len()];
    (0..steps)
        .map(|k| {
            fill(&mut inputs, stim, k as f64 * dt);
            inst.try_step(&inputs).ok().map(|()| inst.output(0))
        })
        .collect()
}

// ------------------------------------------------------------- sweep_tree

const TREE_DT: f64 = 1e-6;
const TREE_ROOTS: usize = 2;
const TREE_LEAVES: usize = 32;
const PREFIX_STEPS: usize = 1_200;
const TAIL_STEPS: usize = 400;
const TREE_LANES: usize = 16;
const TREE_SAMPLES: usize = 8;

fn prefix_stim(cfg: &RunConfig, root: usize) -> PiecewiseConstant {
    PiecewiseConstant::seeded(cfg.stream(root as u64), 6, 200.0 * TREE_DT, 0.0, 1.0)
}

fn tail_stim(cfg: &RunConfig, root: usize, leaf: usize) -> PiecewiseConstant {
    let stream = 1_000 + (root * TREE_LEAVES + leaf) as u64;
    PiecewiseConstant::seeded(cfg.stream(stream), 4, 100.0 * TREE_DT, 0.0, 1.0)
}

/// A tree leaf as a flat stimulus: the prefix, then the tail from the
/// segment boundary on (tree segments sample at absolute time).
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

fn build_tree(cfg: &RunConfig) -> ScenarioTree {
    ScenarioTree {
        roots: (0..TREE_ROOTS)
            .map(|r| TreeScenario {
                newton_tol: None,
                step_control: None,
                segment: ScenarioSegment {
                    name: format!("root{r}"),
                    stim: Box::new(prefix_stim(cfg, r)),
                    steps: PREFIX_STEPS,
                    children: (0..TREE_LEAVES)
                        .map(|l| ScenarioSegment {
                            name: format!("root{r}/leaf{l}"),
                            stim: Box::new(tail_stim(cfg, r, l)),
                            steps: TAIL_STEPS,
                            children: Vec::new(),
                        })
                        .collect(),
                },
            })
            .collect(),
    }
}

pub fn tree(cfg: &RunConfig) -> Outcome {
    let leaves = TREE_ROOTS * TREE_LEAVES;
    let mut out = Outcome {
        unit: "leaf scenarios",
        units_per_round: leaves as f64,
        ..Outcome::default()
    };
    let mut make = || (compile(&rc_ladder(20), TREE_DT, "V(n3)"), build_tree(cfg));
    let (model, tree) = harness::repeat_setup(&mut out, &mut make);
    let engine = SweepEngine::new().workers(WORKERS);
    let budget = ScenarioBudget::unlimited();
    let mut ledger = SweepLedger::default();
    let mut last: Option<SweepOutcome<_>> = None;
    let round = |l: &mut SweepLedger, traced: bool, id: u64| {
        let _s = trace::span("sweep.run_tree", id);
        last = None;
        let outcome =
            run_ams_sweep_tree(&engine, &model, &tree, TREE_LANES, &budget).expect("valid tree");
        let failed = outcome.results.iter().filter(|r| !r.is_ok()).count() as u64;
        if traced {
            // The tree sweep has no block observer; its first block is
            // not stamped and the share is reported from the flat sweeps.
            l.report.merge(&outcome.report);
        }
        last = Some(outcome);
        failed
    };
    let probe = |l: &mut SweepLedger| {
        let _s = trace::span("amsim.step_probe", 0);
        let mut inst = model.instance();
        l.probe
            .time_steps(&mut inst, &prefix_stim(cfg, 0), PREFIX_STEPS)
            .expect("the probe replays a stimulus the workload ran");
        let snap = inst.snapshot();
        l.probe.time_residuals(&mut model.instance(), &snap, 4096);
    };
    harness::run_rounds(
        cfg,
        &mut out,
        (leaves as u64, "leaf scenarios"),
        &mut ledger,
        round,
        probe,
        &mut make,
    );

    if let Some(outcome) = &last {
        let r = &outcome.report;
        let flat_steps = (leaves * (PREFIX_STEPS + TAIL_STEPS)) as u64;
        let conserved = r.counter("amsim.steps") + r.counter("sweep.tree.prefix_steps_saved");
        out.check(conserved == flat_steps, || {
            format!("amsim.steps + prefix_steps_saved = {conserved}, flat sweep steps {flat_steps}")
        });
        let lu = r.counter("amsim.lu.factorizations");
        out.check(lu == 0, || {
            format!("{lu} LU factorizations on a linear tree (shared-factor path lost)")
        });
        let picks: Vec<usize> = sample_indices(leaves, TREE_SAMPLES).collect();
        let flat: Vec<AmsScenario> = picks
            .iter()
            .map(|&i| {
                let (root, leaf) = (i / TREE_LEAVES, i % TREE_LEAVES);
                AmsScenario {
                    name: format!("flat{i}"),
                    stim: Box::new(SwitchAt {
                        t0: PREFIX_STEPS as f64 * TREE_DT,
                        before: prefix_stim(cfg, root),
                        after: tail_stim(cfg, root, leaf),
                    }),
                    steps: PREFIX_STEPS + TAIL_STEPS,
                    newton_tol: None,
                    step_control: None,
                }
            })
            .collect();
        let flat_out = run_ams_sweep_batched(&engine, &model, &flat, TREE_LANES, &budget)
            .expect("valid scenarios");
        for (k, &i) in picks.iter().enumerate() {
            let same = match (flat_out.results[k].ok(), outcome.results[i].ok()) {
                (Some(a), Some(b)) => harness::bit_identical(&a.waveform, &b.waveform),
                _ => false,
            };
            out.check(same, || {
                format!("tree leaf {i} differs from its flat run from t = 0")
            });
        }
    }
    if cfg.traced {
        ledger.layers(&mut out);
        let saved = ledger.report.counter("sweep.tree.prefix_steps_saved") as f64;
        let steps = ledger.report.counter("amsim.steps") as f64;
        out.layer("sweep.tree.shared_ratio", saved / (steps + saved));
    }
    out
}
