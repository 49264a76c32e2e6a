//! `fleet`: the holistic platform at scale.
//!
//! RC1 devices, each a MIPS CPU running the monitor firmware over the
//! APB bus and UART with its analog lane batched through one
//! `BatchInstance` per block of devices. Per-device analog work is tiny,
//! so ISS, bus and block scheduling should dominate; the traced run
//! splits a round's worker-seconds between a replay of the ISS, a replay
//! of the analog lanes, and the rest. The traced run also runs the same
//! fleet on two workers, the one place where the pool's sharding and its
//! shared report merging run concurrently.

use std::sync::Arc;
use std::time::Instant;

use amsim::{CompiledModel, Simulation};
use amsvp_core::circuits::{rc_ladder, PiecewiseConstant};
use obs::Report;
use vp::{
    monitor_firmware, run_fast_platform, run_fleet, DeviceScenario, FastAnalog, Firmware,
    FleetConfig, FleetOutcome, PlatformConfig,
};

use crate::harness::{self, Outcome, RunConfig, StepProbe};
use crate::workloads::sweeps::busy_share;
use crate::workloads::tables::iss_mips;
use crate::{stats, trace};

const DT: f64 = 1e-6;
const STEPS: usize = 1_000;
const DEVICES: usize = 512;
/// One worker, for the reason given in `sweeps.rs`.
const WORKERS: usize = 1;
/// Rounds of the traced run's two-worker leg.
const W2_ROUNDS: usize = 4;
const LANES: usize = 8;
/// Devices checked bit for bit against the single-platform fast build.
const SAMPLES: usize = 4;
/// Devices whose analog lanes the traced run replays (one block).
const REPLAY_DEVICES: usize = LANES;

fn stim(cfg: &RunConfig, i: usize) -> PiecewiseConstant {
    PiecewiseConstant::seeded(cfg.stream(i as u64), 5, 100.0 * DT, 0.0, 1.0)
}

struct Setup {
    model: Arc<CompiledModel>,
    config: FleetConfig,
    devices: Vec<DeviceScenario>,
}

fn setup(cfg: &RunConfig) -> Setup {
    let module = harness::parse(&rc_ladder(1));
    let model = {
        let _s = trace::span("amsim.compile", 0);
        Simulation::new(&module)
            .dt(DT)
            .output("V(out)")
            .compile()
            .expect("RC1 compiles")
    };
    let firmware = {
        let _s = trace::span("vp.firmware", 0);
        Firmware::from(monitor_firmware())
    };
    let devices = (0..DEVICES)
        .map(|i| DeviceScenario::new(format!("dev{i}"), stim(cfg, i), STEPS))
        .collect();
    Setup {
        model,
        config: FleetConfig::new(firmware)
            .workers(WORKERS)
            .lane_width(LANES),
        devices,
    }
}

#[derive(Default)]
struct Ledger {
    report: Report,
    /// Worker-seconds of the traced rounds (workers × wall).
    worker_secs: f64,
    instructions: u64,
    probe: StepProbe,
    iss_secs_per_instr: Vec<f64>,
    analog_secs_per_block: Vec<f64>,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        unit: "devices",
        units_per_round: DEVICES as f64,
        ..Outcome::default()
    };
    let s = harness::repeat_setup(&mut out, || setup(cfg));
    let mut ledger = Ledger::default();
    let mut last: Option<FleetOutcome> = None;
    let round = |l: &mut Ledger, traced: bool, id: u64| {
        let _s = trace::span("vp.run_fleet", id);
        // The previous round's outcome goes first, so two fleets' results
        // never share the peak.
        last = None;
        let outcome = run_fleet(&s.model, &s.config, &s.devices).expect("valid devices");
        let failed = outcome.devices.iter().filter(|d| !d.is_ok()).count() as u64;
        if traced {
            l.report.merge(&outcome.report);
            l.worker_secs += outcome.wall * outcome.workers as f64;
            l.instructions += outcome.report.counter("vp.device.instructions");
        }
        last = Some(outcome);
        failed
    };
    let probe = |l: &mut Ledger| {
        // ISS alone, for one device's instruction count.
        let per_device = (STEPS as f64 * DT / s.config.cpu_period.as_seconds()) as u64;
        let mips = iss_mips(s.config.firmware.words(), per_device);
        l.iss_secs_per_instr.push(1.0 / (mips * 1e6));
        // One block of analog lanes alone, same stimuli.
        l.analog_secs_per_block.push(analog_replay(&s, cfg));
        let _s = trace::span("amsim.step_probe", 0);
        let mut inst = s.model.instance();
        l.probe
            .time_steps(&mut inst, &stim(cfg, 0), STEPS)
            .expect("the probe replays a stimulus the workload ran");
        let snap = inst.snapshot();
        l.probe.time_residuals(&mut s.model.instance(), &snap, 4096);
    };
    harness::run_rounds(
        cfg,
        &mut out,
        (DEVICES as u64, "devices"),
        &mut ledger,
        round,
        probe,
        || setup(cfg),
    );

    if let Some(outcome) = &last {
        check(&s, cfg, outcome, &mut out);
        if cfg.traced {
            two_workers(&s, outcome, &mut out);
        }
    }
    if cfg.traced {
        layers(&ledger, &mut out);
    }
    out
}

/// The fleet on two workers: speed-up of the fastest round over the
/// one-worker rounds, the pool's busy share, and a check that sampled
/// devices match the one-worker outcome bit for bit. Per-layer only:
/// the second vCPU of a shared 2-vCPU host comes and goes, so this rate
/// carries no bound.
fn two_workers(s: &Setup, one: &FleetOutcome, out: &mut Outcome) {
    let config = s.config.clone().workers(2);
    let mut secs = Vec::with_capacity(W2_ROUNDS);
    let mut report = Report::default();
    let mut last = None;
    for _ in 0..W2_ROUNDS {
        let id = trace::next_id();
        let _s = trace::span("vp.run_fleet_w2", id);
        let outcome = run_fleet(&s.model, &config, &s.devices).expect("valid devices");
        let failed = outcome.devices.iter().filter(|d| !d.is_ok()).count() as u64;
        out.ops(DEVICES as u64, failed, "two-worker devices");
        secs.push(outcome.wall);
        report.merge(&outcome.report);
        last = Some(outcome);
    }
    let Some(two) = last else { return };
    for k in 0..SAMPLES {
        let i = k * DEVICES / SAMPLES + 3;
        let same = match (one.devices[i].ok(), two.devices[i].ok()) {
            (Some(a), Some(b)) => {
                harness::bit_identical(&a.waveform, &b.waveform) && a.report == b.report
            }
            _ => false,
        };
        out.check(same, || {
            format!("device {i} differs between the one- and two-worker fleets")
        });
    }
    let speedup = match (stats::steady(&out.round_secs), stats::steady(&secs)) {
        (Some(w1), Some(w2)) => w1 / w2,
        _ => 0.0,
    };
    out.layer("vp.fleet.w2_speedup", speedup);
    out.layer("sweep.w2.busy_share", busy_share(&report, "", 2));
}

/// Steps the first block's analog lanes alone through an 8-lane
/// `BatchInstance` (the inputs a device sees are its stimulus: the
/// monitor firmware never drives the DAC); returns the seconds taken.
fn analog_replay(s: &Setup, cfg: &RunConfig) -> f64 {
    let _s = trace::span("amsim.batch_replay", 0);
    let stims: Vec<PiecewiseConstant> = (0..REPLAY_DEVICES).map(|i| stim(cfg, i)).collect();
    let mut batch = s.model.batch_instance(REPLAY_DEVICES);
    let mut inputs = batch.input_frame();
    let t0 = Instant::now();
    for k in 0..STEPS {
        for (l, st) in stims.iter().enumerate() {
            inputs.broadcast(l, st.value(k as f64 * DT));
        }
        batch.try_step(inputs.as_slice());
    }
    std::hint::black_box(batch.output(0, 0));
    t0.elapsed().as_secs_f64()
}

fn layers(l: &Ledger, out: &mut Outcome) {
    harness::setup_layers(out, &trace::spans(), None);
    harness::solver_layers(out, &l.probe, &l.report, "");
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let iss = med(&l.iss_secs_per_instr) * l.instructions as f64;
    let blocks = l.report.counter("fleet.devices") as f64 / REPLAY_DEVICES as f64;
    let analog = med(&l.analog_secs_per_block) * blocks;
    let share = |secs: f64| secs / l.worker_secs;
    out.layer("vp.iss_mips", 1.0 / (med(&l.iss_secs_per_instr) * 1e6));
    out.layer("vp.fleet.iss_share", share(iss));
    out.layer("vp.fleet.analog_share", share(analog));
    out.layer("vp.fleet.other_share", 1.0 - share(iss) - share(analog));
    out.layer("sweep.busy_share", busy_share(&l.report, "", WORKERS));
}

/// A conservative-solver engine for the fast platform that records its
/// output after every step, so a device's waveform can be compared (the
/// platform takes the engine by value, hence the impl on `&mut`).
struct Recording {
    inst: amsim::Instance,
    wave: Vec<f64>,
}

impl FastAnalog for &mut Recording {
    fn dt(&self) -> f64 {
        self.inst.dt()
    }

    fn input_count(&self) -> usize {
        self.inst.input_names().len()
    }

    fn step_sample(&mut self, inputs: &[f64]) -> f64 {
        let y = self.inst.step_sample(inputs);
        self.wave.push(y);
        y
    }
}

fn check(s: &Setup, cfg: &RunConfig, outcome: &FleetOutcome, out: &mut Outcome) {
    let tally = outcome.tally();
    out.check(tally.total() == DEVICES as u64, || {
        format!("fleet tally covers {} of {DEVICES} devices", tally.total())
    });
    let builds = outcome.report.counter("amsim.jacobian.builds");
    out.check(builds == 0, || {
        format!("{builds} Jacobian builds during the fleet (model compiled once)")
    });
    for k in 0..SAMPLES {
        let i = k * DEVICES / SAMPLES + 7;
        let mut engine = Recording {
            inst: s.model.instance(),
            wave: Vec::with_capacity(STEPS),
        };
        let config =
            PlatformConfig::with_stimulus(s.config.firmware.words().to_vec(), stim(cfg, i));
        let report = run_fast_platform(&mut engine, &config, STEPS as f64 * DT);
        let same = outcome.devices[i].ok().is_some_and(|run| {
            harness::bit_identical(&run.waveform, &engine.wave)
                && run.report.uart == report.uart
                && run.report.instructions == report.instructions
        });
        out.check(same, || {
            format!("device {i} differs from its single-platform fast build")
        });
    }
}
