//! The paper's own experiment (Tables I-III), as three workloads.
//!
//! `table_conservative` runs the four circuits (2IN, RC1, RC20, OA) at
//! Δt = 50 ns on the two conservative levels: the reference solver
//! (`amsim::Instance`) and the hand-built ELN model inside the DE kernel.
//! `table_signal_flow` runs each circuit's abstracted model on the three
//! signal-flow levels: inside a TDF cluster, as a DE process, and in a
//! plain loop (the paper's C++ row). `table_platform` runs the MIPS+UART
//! platform with the monitor firmware on RC1 three ways: the DE-kernel
//! build, the fast build with the abstracted model, and the fast build
//! with the reference solver in the loop.
//!
//! Run lengths are fixed per (circuit, level) so that every run costs
//! about the same host time. Each level, and each platform build, thus
//! holds a half or a third of its workload's round: a level that slows
//! by a factor f lengthens its workload's round by at least (f − 1)/3.

use std::sync::Arc;
use std::time::Instant;

use amsim::{CompiledModel, Simulation};
use amsvp_core::circuits::{self, PiecewiseConstant, XorShift64};
use amsvp_core::{Abstraction, SignalFlowModel};
use de::{Kernel, SimTime};
use eln::{ElnNetwork, Method, NodeId, SourceId, Transient};
use obs::Obs;
use vp::{
    build_tdf_cluster, monitor_firmware, new_bridge, run_de_platform, run_fast_platform,
    AnalogIntegration, CompiledAnalog, ElnAnalog, PlatformConfig,
};

use crate::harness::{self, fill, Outcome, RunConfig, StepProbe};
use crate::trace;

const DT: f64 = 50e-9;
const OUTPUT: &str = "V(out)";

/// Integration levels of Tables I and II, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Ref,
    Eln,
    Tdf,
    De,
    Cpp,
}

impl Level {
    fn span(self) -> &'static str {
        match self {
            Level::Ref => "amsim.level_run",
            Level::Eln => "eln.level_run",
            Level::Tdf => "tdf.level_run",
            Level::De => "de.level_run",
            Level::Cpp => "core.level_run",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Level::Ref => "level.ref_msteps_per_s",
            Level::Eln => "level.eln_msteps_per_s",
            Level::Tdf => "level.tdf_msteps_per_s",
            Level::De => "level.de_msteps_per_s",
            Level::Cpp => "level.cpp_msteps_per_s",
        }
    }
}

/// The levels one workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Conservative,
    SignalFlow,
}

impl Group {
    fn levels(self) -> &'static [Level] {
        match self {
            Group::Conservative => &[Level::Ref, Level::Eln],
            Group::SignalFlow => &[Level::Tdf, Level::De, Level::Cpp],
        }
    }
}

/// Steps per run, by circuit and level (in `Level` order): each run
/// takes roughly 25 ms on a 2-vCPU x86-64 host, so every (circuit,
/// level) pair weighs about the same in its round (the RC20 reference
/// step costs ~25 µs, the 2IN loop step ~25 ns).
const STEPS: [(&str, [usize; 5]); 4] = [
    ("2IN", [72_000, 120_000, 240_000, 300_000, 900_000]),
    ("RC1", [80_000, 180_000, 240_000, 300_000, 900_000]),
    ("RC20", [1_200, 32_000, 60_000, 48_000, 48_000]),
    ("OA", [42_000, 120_000, 260_000, 320_000, 900_000]),
];

/// Index of RC20 in `STEPS`: the circuit the solver-layer metrics probe.
const RC20: usize = 2;

/// Steps compared against the reference in the accuracy checks.
const CHECK_STEPS: usize = 4_000;

/// Abstracted model vs reference: both discretize with backward Euler at
/// the same Δt, so they agree to rounding (RC20's small output swing
/// lets rounding reach 1.4e-9).
const MAX_NRMSE_ABSTRACTED: f64 = 1e-8;
/// Hand-built ELN vs reference (independent MNA formulation).
const MAX_NRMSE_ELN: f64 = 1e-5;

type ElnModel = (ElnNetwork, Vec<SourceId>, NodeId);

struct Circuit {
    label: &'static str,
    steps: [usize; 5],
    stim: PiecewiseConstant,
    /// The reference model: the conservative levels run it, the
    /// signal-flow checks compare against it.
    compiled: Arc<CompiledModel>,
    /// The hand-built ELN network (conservative levels only).
    eln: Option<ElnModel>,
    /// The abstracted model (signal-flow levels only).
    model: Option<SignalFlowModel>,
}

fn compile(module: &vams_ast::Module) -> Arc<CompiledModel> {
    let _s = trace::span("amsim.compile", 0);
    Simulation::new(module)
        .dt(DT)
        .output(OUTPUT)
        .compile()
        .expect("paper circuits compile")
}

fn abstract_model(module: &vams_ast::Module, pipeline: &Obs) -> SignalFlowModel {
    let _s = trace::span("core.abstract", 0);
    Abstraction::new(module)
        .dt(DT)
        .output(OUTPUT)
        .collector(pipeline.clone())
        .build()
        .expect("paper circuits abstract")
}

fn one_source((net, source, out): (ElnNetwork, SourceId, NodeId)) -> ElnModel {
    (net, vec![source], out)
}

fn setup(cfg: &RunConfig, group: Group, pipeline: &Obs) -> Vec<Circuit> {
    let sources = [
        circuits::two_inputs(),
        circuits::rc_ladder(1),
        circuits::rc_ladder(20),
        circuits::opamp(),
    ];
    let eln: [fn() -> ElnModel; 4] = [
        vp::two_inputs_eln,
        || one_source(vp::rc_ladder_eln(1)),
        || one_source(vp::rc_ladder_eln(20)),
        || one_source(vp::opamp_eln()),
    ];
    let conservative = group == Group::Conservative;
    sources
        .iter()
        .zip(eln)
        .zip(STEPS)
        .enumerate()
        .map(|(i, ((source, eln), (label, steps)))| {
            let module = harness::parse(source);
            Circuit {
                label,
                steps,
                stim: PiecewiseConstant::seeded(cfg.stream(i as u64), 8, 500.0 * DT, 0.0, 1.0),
                compiled: compile(&module),
                eln: conservative.then(eln),
                model: (!conservative).then(|| abstract_model(&module, pipeline)),
            }
        })
        .collect()
}

/// One run of `circuit` at `level`; returns the host time of the run
/// proper (construction excluded).
fn run_level(c: &Circuit, level: Level, obs: &Obs, id: u64) -> f64 {
    let n = c.steps[level as usize];
    let model = || c.model.clone().expect("set up for the signal-flow levels");
    let _s = trace::span(level.span(), id);
    match level {
        Level::Ref => {
            let mut inst = c
                .compiled
                .instance_builder()
                .collector(obs.clone())
                .build()
                .expect("default instance settings are valid");
            let mut inputs = vec![0.0; inst.input_names().len()];
            let t0 = Instant::now();
            for k in 0..n {
                fill(&mut inputs, &c.stim, k as f64 * DT);
                inst.try_step(&inputs).expect("paper circuits converge");
            }
            let secs = t0.elapsed().as_secs_f64();
            inst.flush_counters();
            secs
        }
        Level::Eln => {
            let (net, sources, out) = c.eln.as_ref().expect("set up for the ELN level");
            let solver = Transient::new(net)
                .dt(DT)
                .method(Method::BackwardEuler)
                .collector(obs.clone())
                .build()
                .expect("paper ELN networks assemble");
            let mut k = Kernel::new();
            k.set_collector(obs.clone());
            k.register(ElnAnalog::new(
                solver,
                sources.clone(),
                *out,
                new_bridge(),
                c.stim.clone(),
            ));
            let t0 = Instant::now();
            k.run_until(SimTime::from_seconds((n as f64 - 0.5) * DT))
                .expect("no delta loops");
            t0.elapsed().as_secs_f64()
        }
        Level::Tdf => {
            let mut exec = build_tdf_cluster(model(), new_bridge(), c.stim.clone())
                .expect("fixed TDF pipeline elaborates");
            exec.set_collector(obs.clone());
            let t0 = Instant::now();
            exec.run_until(SimTime::from_seconds(n as f64 * DT));
            t0.elapsed().as_secs_f64()
        }
        Level::De => {
            let mut k = Kernel::new();
            k.set_collector(obs.clone());
            k.register(CompiledAnalog::new(model(), new_bridge(), c.stim.clone()));
            let t0 = Instant::now();
            k.run_until(SimTime::from_seconds((n as f64 - 0.5) * DT))
                .expect("no delta loops");
            t0.elapsed().as_secs_f64()
        }
        Level::Cpp => {
            let mut model = model();
            let mut inputs = vec![0.0; model.input_names().len()];
            let t0 = Instant::now();
            for k in 0..n {
                fill(&mut inputs, &c.stim, k as f64 * DT);
                model.step(&inputs);
            }
            std::hint::black_box(model.output(0));
            t0.elapsed().as_secs_f64()
        }
    }
}

/// Host time and steps per level, accumulated over the rounds (a traced
/// run reports them), and the reference step probe.
#[derive(Default)]
struct Ledger {
    level_secs: [f64; 5],
    level_steps: [u64; 5],
    probe: StepProbe,
}

pub fn conservative(cfg: &RunConfig) -> Outcome {
    levels(cfg, Group::Conservative)
}

pub fn signal_flow(cfg: &RunConfig) -> Outcome {
    levels(cfg, Group::SignalFlow)
}

fn levels(cfg: &RunConfig, group: Group) -> Outcome {
    let mut out = Outcome {
        unit: "table passes",
        units_per_round: 1.0,
        ..Outcome::default()
    };
    let (pipeline, principal, levels_obs) = (cfg.obs(), cfg.obs(), cfg.obs());
    let circuits = harness::repeat_setup(&mut out, || setup(cfg, group, &pipeline));
    let runs = (circuits.len() * group.levels().len()) as u64;
    let mut ledger = Ledger::default();
    let round = |l: &mut Ledger, traced: bool, id: u64| {
        let none = Obs::none();
        let obs = if traced { &levels_obs } else { &none };
        for c in &circuits {
            for &level in group.levels() {
                let secs = run_level(c, level, obs, id);
                l.level_secs[level as usize] += secs;
                l.level_steps[level as usize] += c.steps[level as usize] as u64;
            }
        }
        0
    };
    let probe = |l: &mut Ledger| {
        let c = &circuits[RC20];
        let _s = trace::span("amsim.step_probe", 0);
        let mut inst = c
            .compiled
            .instance_builder()
            .collector(principal.clone())
            .build()
            .expect("default instance settings are valid");
        l.probe
            .time_steps(&mut inst, &c.stim, c.steps[Level::Ref as usize])
            .expect("the probe replays a stimulus the workload ran");
        inst.flush_counters();
        let snap = inst.snapshot();
        l.probe
            .time_residuals(&mut c.compiled.instance(), &snap, 4096);
    };
    harness::run_rounds(
        cfg,
        &mut out,
        (runs, "level runs"),
        &mut ledger,
        round,
        probe,
        || setup(cfg, group, &pipeline),
    );

    for c in &circuits {
        let reference = reference_wave(c, &mut out);
        match group {
            Group::Conservative => check_eln(c, &reference, &mut out),
            Group::SignalFlow => check_signal_flow(c, &reference, &mut out),
        }
    }
    if cfg.traced {
        harness::setup_layers(&mut out, &trace::spans(), pipeline.report().as_ref());
        let report = principal.report().unwrap_or_default();
        harness::solver_layers(&mut out, &ledger.probe, &report, "");
        for &level in group.levels() {
            let i = level as usize;
            let rate = ledger.level_steps[i] as f64 / (ledger.level_secs[i] * 1e6);
            out.layer(level.metric(), rate);
        }
    }
    out
}

/// The reference waveform over the first [`CHECK_STEPS`] samples.
fn reference_wave(c: &Circuit, out: &mut Outcome) -> Vec<f64> {
    let mut inst = c.compiled.instance();
    let mut inputs = vec![0.0; inst.input_names().len()];
    let mut ok = true;
    let wave = (0..CHECK_STEPS)
        .map(|k| {
            fill(&mut inputs, &c.stim, k as f64 * DT);
            ok &= inst.try_step(&inputs).is_ok();
            inst.output(0)
        })
        .collect();
    out.check(ok, || format!("{}: reference run failed", c.label));
    wave
}

fn check_eln(c: &Circuit, reference: &[f64], out: &mut Outcome) {
    let (net, sources, node) = c.eln.as_ref().expect("set up for the ELN level");
    let mut solver = Transient::new(net)
        .dt(DT)
        .method(Method::BackwardEuler)
        .build()
        .expect("paper ELN networks assemble");
    let mut ok = true;
    let eln: Vec<f64> = (0..CHECK_STEPS)
        .map(|k| {
            let u = c.stim.value(k as f64 * DT);
            for &src in sources {
                solver.set_source(src, u);
            }
            ok &= solver.try_step().is_ok();
            solver.node_voltage(*node)
        })
        .collect();
    let e = harness::nrmse(&eln, reference);
    out.check(ok && e <= MAX_NRMSE_ELN, || {
        format!(
            "{}: ELN vs reference NRMSE {e:.3e} > {MAX_NRMSE_ELN:.0e}",
            c.label
        )
    });
}

fn check_signal_flow(c: &Circuit, reference: &[f64], out: &mut Outcome) {
    let model = c.model.as_ref().expect("set up for the signal-flow levels");
    let mut looped = model.clone();
    let mut inputs = vec![0.0; looped.input_names().len()];
    let abstracted: Vec<f64> = (0..CHECK_STEPS)
        .map(|k| {
            fill(&mut inputs, &c.stim, k as f64 * DT);
            looped.step(&inputs);
            looped.output(0)
        })
        .collect();
    let e = harness::nrmse(&abstracted, reference);
    out.check(e <= MAX_NRMSE_ABSTRACTED, || {
        format!(
            "{}: abstracted model vs reference NRMSE {e:.3e} > {MAX_NRMSE_ABSTRACTED:.0e}",
            c.label
        )
    });

    // The DE process and the TDF cluster wrap the same model: after the
    // same steps they must publish the loop's last sample exactly.
    let want = abstracted[CHECK_STEPS - 1];
    let bridge = new_bridge();
    let mut k = Kernel::new();
    k.register(CompiledAnalog::new(
        model.clone(),
        bridge.clone(),
        c.stim.clone(),
    ));
    let de_ok = k
        .run_until(SimTime::from_seconds((CHECK_STEPS as f64 - 0.5) * DT))
        .is_ok();
    let (samples, de_out) = (bridge.borrow().samples, bridge.borrow().aout);
    out.check(
        de_ok && samples as usize == CHECK_STEPS && de_out.to_bits() == want.to_bits(),
        || {
            format!(
                "{}: DE level {samples} samples, {de_out} vs {want}",
                c.label
            )
        },
    );
    let bridge = new_bridge();
    match build_tdf_cluster(model.clone(), bridge.clone(), c.stim.clone()) {
        Ok(mut exec) => {
            exec.run_until(SimTime::from_seconds(CHECK_STEPS as f64 * DT));
            let (samples, tdf_out) = (bridge.borrow().samples, bridge.borrow().aout);
            out.check(
                samples as usize == CHECK_STEPS && tdf_out.to_bits() == want.to_bits(),
                || {
                    format!(
                        "{}: TDF level {samples} samples, {tdf_out} vs {want}",
                        c.label
                    )
                },
            );
        }
        Err(e) => out.check(false, || format!("{}: TDF cluster: {e}", c.label)),
    }
}

// ---------------------------------------------------------- table_platform

/// Simulated time of each platform build per round, sized so that each
/// takes roughly 70 ms of host time: the DE-kernel build runs 600 000
/// instructions at the 50 MHz CPU clock, the fast build 4 000 000, the
/// fast build with the reference solver 450 000.
const PLATFORM_DE_SECONDS: f64 = 12e-3;
const PLATFORM_FAST_SECONDS: f64 = 80e-3;
const PLATFORM_REF_SECONDS: f64 = 9e-3;

/// Simulated time over which the builds are compared.
const PLATFORM_CHECK_SECONDS: f64 = 2e-3;

/// The reference and the abstracted model in the fast build: final
/// analog samples agree to rounding (the monitor firmware never drives
/// the DAC, so the analog path does not depend on the CPU).
const MAX_PLATFORM_OUTPUT_DIFF: f64 = 1e-9;

struct Platform {
    model: SignalFlowModel,
    compiled: Arc<CompiledModel>,
    config: PlatformConfig<PiecewiseConstant>,
}

fn platform_setup(cfg: &RunConfig, pipeline: &Obs) -> Platform {
    let module = harness::parse(&circuits::rc_ladder(1));
    let model = abstract_model(&module, pipeline);
    let compiled = compile(&module);
    let firmware = {
        let _s = trace::span("vp.firmware", 0);
        monitor_firmware()
    };
    // Alternates a level in [0.7, 1) and one in [0, 0.3) every 250 µs
    // (two RC1 time constants), so the output crosses the monitor's
    // 0.5 V threshold twice a period for any seed.
    let mut rng = XorShift64::new(cfg.stream(99));
    let stim = PiecewiseConstant {
        hold: 250e-6,
        levels: vec![0.7 + 0.3 * rng.next_f64(), 0.3 * rng.next_f64()],
    };
    Platform {
        model,
        compiled,
        config: PlatformConfig::with_stimulus(firmware, stim),
    }
}

/// Host seconds and retired instructions per build, accumulated over the
/// rounds (a traced run reports them).
#[derive(Default)]
struct PlatformLedger {
    de: (f64, u64),
    fast: (f64, u64),
    reference: (f64, u64),
    activations_per_step: f64,
    probe: StepProbe,
}

pub fn platform(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        unit: "platform passes",
        units_per_round: 1.0,
        ..Outcome::default()
    };
    let (pipeline, principal) = (cfg.obs(), cfg.obs());
    let p = harness::repeat_setup(&mut out, || platform_setup(cfg, &pipeline));
    let mut ledger = PlatformLedger::default();
    let timed = |name: &'static str, id: u64, run: &mut dyn FnMut() -> vp::PlatformReport| {
        let _s = trace::span(name, id);
        let t0 = Instant::now();
        let report = run();
        (t0.elapsed().as_secs_f64(), report)
    };
    let round = |l: &mut PlatformLedger, traced: bool, id: u64| {
        let (de_secs, de) = timed("vp.de_platform", id, &mut || {
            run_de_platform(
                AnalogIntegration::CompiledDe(p.model.clone()),
                &p.config,
                SimTime::from_seconds(PLATFORM_DE_SECONDS - DT / 2.0),
            )
        });
        let (fast_secs, fast) = timed("vp.fast_platform", id, &mut || {
            run_fast_platform(p.model.clone(), &p.config, PLATFORM_FAST_SECONDS)
        });
        let obs = if traced {
            principal.clone()
        } else {
            Obs::none()
        };
        let (ref_secs, reference) = timed("vp.ref_platform", id, &mut || {
            let inst = p
                .compiled
                .instance_builder()
                .collector(obs.clone())
                .build()
                .expect("default instance settings are valid");
            run_fast_platform(inst, &p.config, PLATFORM_REF_SECONDS)
        });
        l.de.0 += de_secs;
        l.de.1 += de.instructions;
        l.fast.0 += fast_secs;
        l.fast.1 += fast.instructions;
        l.reference.0 += ref_secs;
        l.reference.1 += reference.instructions;
        l.activations_per_step = de.kernel_activations as f64 / f64::from(de.analog_samples.max(1));
        0
    };
    let probe = |l: &mut PlatformLedger| {
        let _s = trace::span("amsim.step_probe", 0);
        let mut inst = p.compiled.instance();
        let steps = (PLATFORM_CHECK_SECONDS / DT) as usize;
        l.probe
            .time_steps(&mut inst, &p.config.stimulus, steps)
            .expect("the probe replays a stimulus the workload ran");
        let snap = inst.snapshot();
        l.probe
            .time_residuals(&mut p.compiled.instance(), &snap, 4096);
    };
    harness::run_rounds(
        cfg,
        &mut out,
        (3, "platform runs"),
        &mut ledger,
        round,
        probe,
        || platform_setup(cfg, &pipeline),
    );

    check_platform(&p, &mut out);
    if cfg.traced {
        let l = &ledger;
        harness::setup_layers(&mut out, &trace::spans(), pipeline.report().as_ref());
        let report = principal.report().unwrap_or_default();
        harness::solver_layers(&mut out, &l.probe, &report, "");
        let mips = |(secs, instr): (f64, u64)| instr as f64 / (secs * 1e6);
        out.layer("vp.de_mips", mips(l.de));
        out.layer("vp.fast_mips", mips(l.fast));
        out.layer("vp.ref_mips", mips(l.reference));
        out.layer("de.activations_per_step", l.activations_per_step);
        out.layer("vp.iss_mips", iss_mips(&p.config.firmware, 200_000));
    }
    out
}

/// Simulated instructions per host microsecond of the bare ISS:
/// `CpuCore::step` on a `PlatformBus` loaded with `firmware`, for
/// `instructions` steps (the ADC reads a fixed 0 V, so the branch mix
/// differs slightly from a coupled run; the per-instruction cost does
/// not).
pub fn iss_mips(firmware: &[u32], instructions: u64) -> f64 {
    let uart = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut bus = vp::PlatformBus::new(uart, new_bridge());
    bus.load_words(0, firmware);
    let mut cpu = vp::CpuCore::new();
    let _s = trace::span("vp.iss_replay", 0);
    let t0 = Instant::now();
    for _ in 0..instructions {
        if cpu.halted() {
            break;
        }
        cpu.step(&mut bus);
    }
    cpu.retired() as f64 / (t0.elapsed().as_secs_f64() * 1e6)
}

/// Table III cross-build checks; they hold for any seed.
fn check_platform(p: &Platform, out: &mut Outcome) {
    let de = run_de_platform(
        AnalogIntegration::CompiledDe(p.model.clone()),
        &p.config,
        SimTime::from_seconds(PLATFORM_CHECK_SECONDS - DT / 2.0),
    );
    let fast = run_fast_platform(p.model.clone(), &p.config, PLATFORM_CHECK_SECONDS);
    out.check(
        de.uart == fast.uart && de.instructions.abs_diff(fast.instructions) <= 1,
        || {
            format!(
                "platform builds disagree: DE {} instructions / {:?}, fast {} / {:?}",
                de.instructions, de.uart, fast.instructions, fast.uart
            )
        },
    );
    out.check(!fast.uart.is_empty(), || {
        "the monitor firmware printed nothing over 2 ms".into()
    });
    let reference = run_fast_platform(p.compiled.instance(), &p.config, PLATFORM_CHECK_SECONDS);
    let diff = (reference.final_output - fast.final_output).abs();
    out.check(
        reference.analog_samples == fast.analog_samples && diff <= MAX_PLATFORM_OUTPUT_DIFF,
        || {
            format!(
                "fast build: reference solver ends at {} after {} samples, abstracted model at {} after {}",
                reference.final_output,
                reference.analog_samples,
                fast.final_output,
                fast.analog_samples
            )
        },
    );
}
