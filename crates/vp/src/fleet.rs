//! Fleet execution: N independent smart-system instances in one process.
//!
//! Each *device* is a full virtual platform — the MIPS CPU executing
//! firmware over the APB bus and UART, bridged to one analog component —
//! but the expensive artifacts are shared across the whole fleet the way
//! a sweep shares them across scenarios:
//!
//! * the analog model is one [`amsim::CompiledModel`] behind an `Arc`
//!   (bytecode, slot layout, zero-state factors compiled **once**);
//! * the firmware is one [`Firmware`] image behind an `Arc` (assembled
//!   once, loaded into every device's RAM from the same allocation).
//!
//! Devices are sharded across the work-stealing sweep pool in
//! lane-blocks ([`sweep::SweepEngine::run_batched`]); within a block,
//! every device's analog component is one lane of a shared
//! [`amsim::BatchInstance`], so a worker advances a whole block of
//! devices per batched bytecode pass. Per device the runner replicates
//! [`run_fast_platform`]'s interleaving exactly — fractional
//! `cycle_debt` CPU bursts, stimulus sampled at `t = k·dt` plus the
//! device's DAC feedback, output published to the device's bridge after
//! each analog step — so a one-device fleet is bit-identical to the fast
//! platform build on the [`amsim::Instance`] engine.
//!
//! # Determinism
//!
//! Every device's waveform, UART byte stream, and instruction count is
//! bit-identical for any worker count and any lane width: devices never
//! communicate, each lane performs the scalar path's IEEE operations in
//! the scalar order (the batch contract), and the merged report is
//! assembled in device index order. Only the scheduling-shaped counters
//! (`sweep.workers`, `sweep.worker.*`, `sweep.batch.blocks`) and wall
//! timers depend on the run configuration.
//!
//! # Fault isolation
//!
//! Faults retire only their own device, with a typed record in that
//! device's result slot ([`ScenarioOutcome`], generalized from scenarios
//! to devices): panicking firmware (illegal opcode) or a panicking
//! stimulus → [`ScenarioOutcome::Panicked`]; a diverging analog lane →
//! [`ScenarioOutcome::Failed`] with the solver's [`AmsError`]; a budget
//! trip → [`ScenarioOutcome::Budget`]. Sibling devices — including
//! lane-block siblings of the faulted device — finish with bit-identical
//! results, and `ok + failed + panicked + budget` always equals the
//! fleet size.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use amsim::{AmsError, CompiledModel, StepControl};
use amsvp_core::circuits::Stimulus;
use de::SimTime;
use obs::{Obs, Report};
use sweep::{panic_message, OutcomeTally, ScenarioBudget, ScenarioOutcome, SweepEngine};

use crate::bus::{input_sample, new_bridge, publish, PlatformBus, SharedBridge, SharedUart};
use crate::cpu::CpuCore;
use crate::firmware::Firmware;
use crate::platform::PlatformReport;

/// Fleet-wide execution parameters: the shared firmware image, the CPU
/// clock, and the sharding/budget knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// CPU clock period for every device (default 20 ns — 50 MHz).
    pub cpu_period: SimTime,
    /// Firmware image shared by every device that does not override it.
    pub firmware: Firmware,
    /// Worker threads the devices are sharded across (performance knob;
    /// results are bit-identical for any value).
    pub workers: usize,
    /// Devices per [`amsim::BatchInstance`] lane-block (performance
    /// knob; results are bit-identical for any value).
    pub lane_width: usize,
    /// Per-device step/wall budget ([`ScenarioBudget::check`], accounted
    /// per lane).
    pub budget: ScenarioBudget,
}

impl FleetConfig {
    /// Paper-default platform clock, one worker, 8-lane blocks, no
    /// budget.
    pub fn new(firmware: Firmware) -> FleetConfig {
        FleetConfig {
            cpu_period: SimTime::ns(20),
            firmware,
            workers: 1,
            lane_width: 8,
            budget: ScenarioBudget::unlimited(),
        }
    }

    /// Sets the worker count.
    #[must_use]
    pub fn workers(mut self, n: usize) -> FleetConfig {
        self.workers = n;
        self
    }

    /// Sets the lane width (devices per batch block).
    #[must_use]
    pub fn lane_width(mut self, n: usize) -> FleetConfig {
        self.lane_width = n;
        self
    }

    /// Sets the per-device budget.
    #[must_use]
    pub fn budget(mut self, budget: ScenarioBudget) -> FleetConfig {
        self.budget = budget;
        self
    }

    /// Sets the CPU clock period.
    #[must_use]
    pub fn cpu_period(mut self, period: SimTime) -> FleetConfig {
        self.cpu_period = period;
        self
    }
}

/// One device of the fleet: its stimulus, duration, and optional
/// per-device overrides.
pub struct DeviceScenario {
    /// Device label, carried through to [`DeviceRun::name`].
    pub name: String,
    /// Stimulus driving the device's analog input (summed with the
    /// device's own DAC feedback, as on the scalar platform).
    pub stim: Box<dyn Stimulus + Send + Sync>,
    /// Number of nominal-dt analog steps the device runs.
    pub steps: usize,
    /// Firmware override; `None` boots the fleet's shared image.
    pub firmware: Option<Firmware>,
    /// Newton tolerance override for this device's analog lane.
    pub newton_tol: Option<f64>,
    /// Adaptive step-control override for this device's analog lane.
    pub step_control: Option<StepControl>,
}

impl DeviceScenario {
    /// A device with no overrides: shared firmware, model-default solver
    /// settings.
    pub fn new(
        name: impl Into<String>,
        stim: impl Stimulus + Send + Sync + 'static,
        steps: usize,
    ) -> DeviceScenario {
        DeviceScenario {
            name: name.into(),
            stim: Box::new(stim),
            steps,
            firmware: None,
            newton_tol: None,
            step_control: None,
        }
    }
}

/// What one healthy device produced.
#[derive(Debug)]
pub struct DeviceRun {
    /// The device label.
    pub name: String,
    /// The device's platform report: UART bytes, retired instructions,
    /// analog sample count, final output (`kernel_activations` is 0 —
    /// fleet devices run the fast interleaved loop, no event queue).
    pub report: PlatformReport,
    /// `output(0)` after every analog step.
    pub waveform: Vec<f64>,
}

/// Per-device verdict: a completed [`DeviceRun`] or the typed fault that
/// retired the device.
pub type DeviceOutcome = ScenarioOutcome<DeviceRun, AmsError>;

/// Everything a finished fleet run produced.
pub struct FleetOutcome {
    /// One outcome per device, in input order.
    pub devices: Vec<DeviceOutcome>,
    /// Merged instrumentation: the per-block `amsim.*` / `sweep.*`
    /// families merged in device index order, the
    /// `fleet.devices{,.ok,.failed,.panicked,.budget}` tally, and the
    /// per-device platform counters aggregated under `vp.device.*`
    /// ([`Report::merge_prefixed`]).
    pub report: Report,
    /// Wall-clock duration of the whole fleet run in seconds.
    pub wall: f64,
    /// Number of workers the run actually used.
    pub workers: usize,
}

impl FleetOutcome {
    /// The fault tally over all device slots.
    pub fn tally(&self) -> OutcomeTally {
        OutcomeTally::of(&self.devices)
    }
}

/// One device's digital half plus its analog bridge: everything except
/// the analog lane, which lives in the block's shared batch.
struct DevicePlatform {
    cpu: CpuCore,
    bus: PlatformBus,
    bridge: SharedBridge,
    uart: SharedUart,
    cycle_debt: f64,
    waveform: Vec<f64>,
}

impl DevicePlatform {
    fn boot(firmware: &[u32], steps: usize) -> DevicePlatform {
        let uart: SharedUart = Rc::new(RefCell::new(Vec::new()));
        let bridge = new_bridge();
        let mut bus = PlatformBus::new(uart.clone(), bridge.clone());
        bus.load_words(0, firmware);
        DevicePlatform {
            cpu: CpuCore::new(),
            bus,
            bridge,
            uart,
            cycle_debt: 0.0,
            waveform: Vec::with_capacity(steps),
        }
    }
}

/// Runs `devices` smart-system instances over one shared compiled analog
/// model and one shared firmware image, sharded across
/// `config.workers` threads in lane-blocks of `config.lane_width`.
///
/// Device `i`'s result lands in slot `i` of [`FleetOutcome::devices`] —
/// an `Ok(DeviceRun)` or the typed fault that retired the device, never
/// a propagated error (see the module docs for the isolation and
/// determinism contracts).
///
/// # Errors
///
/// [`AmsError::InvalidTolerance`] / [`AmsError::InvalidStepControl`] if
/// any device's solver override is ill-formed — checked up front, before
/// any worker starts; configuration mistakes fail the fleet, only
/// *runtime* faults are isolated.
pub fn run_fleet(
    model: &Arc<CompiledModel>,
    config: &FleetConfig,
    devices: &[DeviceScenario],
) -> Result<FleetOutcome, AmsError> {
    let dt = model.dt();
    for d in devices {
        amsim::validate_overrides(d.newton_tol, d.step_control, dt)?;
    }
    let cycles_per_analog = dt / config.cpu_period.as_seconds();
    let engine = SweepEngine::new().workers(config.workers);
    let body = move |obs: &Obs, block: &[DeviceScenario]| {
        run_device_block(model, config, obs, block, dt, cycles_per_analog)
    };
    let out = engine.run_batched(devices, config.lane_width, body);

    let mut report = out.report;
    let fleet_obs = Obs::recording();
    fleet_obs.add("fleet.devices", devices.len() as u64);
    report.merge(&fleet_obs.report().unwrap_or_default());
    OutcomeTally::of(&out.results).merge_into(&mut report, "fleet.devices", false);
    // Per-device platform counters, aggregated under the `vp.device.*`
    // prefix in device index order — scheduling-independent like the
    // rest of the merge.
    for r in &out.results {
        if let Some(run) = r.result() {
            let dev_obs = Obs::recording();
            dev_obs.add("instructions", run.report.instructions);
            dev_obs.add("uart.bytes", run.report.uart.len() as u64);
            dev_obs.add("analog.samples", u64::from(run.report.analog_samples));
            report.merge_prefixed(&dev_obs.report().unwrap_or_default(), "vp.device.");
        }
    }

    Ok(FleetOutcome {
        devices: out.results,
        report,
        wall: out.wall,
        workers: out.workers,
    })
}

/// Advances one lane-block of devices to completion: the fast platform
/// loop per device, the analog lanes batched through one
/// [`amsim::BatchInstance`].
fn run_device_block(
    model: &Arc<CompiledModel>,
    config: &FleetConfig,
    obs: &Obs,
    block: &[DeviceScenario],
    dt: f64,
    cycles_per_analog: f64,
) -> Vec<DeviceOutcome> {
    let lanes = block.len();
    let mut builder = model.batch_instance_builder(lanes).collector(obs.clone());
    for (l, d) in block.iter().enumerate() {
        if let Some(tol) = d.newton_tol {
            builder = builder.lane_newton_tol(l, tol);
        }
        if let Some(ctrl) = d.step_control {
            builder = builder.lane_step_control(l, ctrl);
        }
    }
    let mut batch = builder.build().expect("overrides validated up front");
    let mut devs: Vec<DevicePlatform> = block
        .iter()
        .map(|d| {
            let image = d.firmware.as_ref().unwrap_or(&config.firmware);
            DevicePlatform::boot(image.words(), d.steps)
        })
        .collect();

    let track_wall = config.budget.wall_cap().is_some();
    let max_steps = block.iter().map(|d| d.steps).max().unwrap_or(0);
    // Faults the batch cannot see (CPU/stimulus panics, budget trips);
    // solver faults live on the batch's lanes themselves.
    let mut fault: Vec<Option<DeviceOutcome>> = (0..lanes).map(|_| None).collect();
    let mut charged = vec![0u64; lanes];
    let mut lane_wall = vec![0.0f64; lanes];
    let mut in_solve = vec![false; lanes];
    let mut inputs = batch.input_frame();
    for k in 0..max_steps {
        // Per device: burn this step's CPU cycles, then sample the
        // stimulus plus the device's DAC feedback — both inside one
        // catch_unwind so an illegal opcode or a panicking stimulus
        // retires only this device.
        for (l, d) in block.iter().enumerate() {
            if fault[l].is_some() || !batch.lane_active(l) {
                continue;
            }
            if k >= d.steps {
                // Shorter device: done — mask it out of the block.
                batch.retire(l);
                continue;
            }
            charged[l] += 1;
            if let Err(b) = config.budget.check(charged[l], lane_wall[l]) {
                fault[l] = Some(ScenarioOutcome::Budget(b));
                batch.retire(l);
                continue;
            }
            let sample_t0 = track_wall.then(Instant::now);
            let dev = &mut devs[l];
            match catch_unwind(AssertUnwindSafe(|| {
                // Bit-for-bit the fast platform's interleaving:
                // fractional cycle accounting, stimulus sampled at
                // t = k·dt.
                dev.cycle_debt += cycles_per_analog;
                dev.cpu.run_cycles(&mut dev.bus, &mut dev.cycle_debt);
                input_sample(&*d.stim, k as f64 * dt, &dev.bridge)
            })) {
                Ok(u) => inputs.broadcast(l, u),
                Err(payload) => {
                    fault[l] = Some(ScenarioOutcome::Panicked(panic_message(payload)));
                    batch.retire(l);
                }
            }
            if let Some(t0) = sample_t0 {
                lane_wall[l] += t0.elapsed().as_secs_f64();
            }
        }
        let solving = batch.active_lanes();
        if solving == 0 {
            break;
        }
        for (l, s) in in_solve.iter_mut().enumerate() {
            *s = batch.lane_active(l);
        }
        let solve_t0 = track_wall.then(Instant::now);
        batch.try_step(inputs.as_slice());
        if let Some(t0) = solve_t0 {
            let share = t0.elapsed().as_secs_f64() / solving as f64;
            for (l, _) in in_solve.iter().enumerate().filter(|(_, s)| **s) {
                lane_wall[l] += share;
            }
        }
        // Publish each healthy device's new output to its bridge (the
        // firmware's next ADC reads see it) and record the waveform.
        for (l, d) in block.iter().enumerate() {
            if k < d.steps && fault[l].is_none() && batch.lane_active(l) {
                let y = batch.output(0, l);
                let dev = &mut devs[l];
                publish(&dev.bridge, y);
                dev.waveform.push(y);
            }
        }
    }
    let results: Vec<DeviceOutcome> = block
        .iter()
        .enumerate()
        .zip(devs)
        .map(|((l, d), dev)| {
            if let Some(f) = fault[l].take() {
                return f;
            }
            if let Some(e) = batch.lane_error(l) {
                return ScenarioOutcome::Failed {
                    error: e.clone(),
                    attempts: Vec::new(),
                };
            }
            let (analog_samples, final_output) = {
                let b = dev.bridge.borrow();
                (b.samples, b.aout)
            };
            ScenarioOutcome::Ok(DeviceRun {
                name: d.name.clone(),
                report: PlatformReport {
                    uart: dev.uart.borrow().clone(),
                    instructions: dev.cpu.retired(),
                    analog_samples,
                    final_output,
                    kernel_activations: 0,
                },
                waveform: dev.waveform,
            })
        })
        .collect();
    batch.flush_counters();
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::monitor_firmware;
    use amsim::Simulation;
    use amsvp_core::circuits::{self, PiecewiseConstant};

    const DT: f64 = 1e-6;
    const STEPS: usize = 120;

    fn rc1_model() -> Arc<CompiledModel> {
        let m = vams_parser::parse_module(&circuits::rc_ladder(1)).unwrap();
        Simulation::new(&m)
            .dt(DT)
            .output("V(out)")
            .compile()
            .unwrap()
    }

    fn fleet_config() -> FleetConfig {
        FleetConfig::new(Firmware::from(monitor_firmware()))
    }

    fn devices(n: usize) -> Vec<DeviceScenario> {
        (0..n)
            .map(|i| {
                DeviceScenario::new(
                    format!("dev{i}"),
                    PiecewiseConstant::seeded(i as u64 + 1, 5, 12.0 * DT, 0.0, 1.0),
                    STEPS,
                )
            })
            .collect()
    }

    #[test]
    fn fleet_runs_every_device_and_tallies_conserve() {
        let model = rc1_model();
        let out = run_fleet(&model, &fleet_config().workers(2), &devices(10)).unwrap();
        assert_eq!(out.devices.len(), 10);
        let tally = out.tally();
        assert_eq!(tally.ok, 10);
        assert_eq!(tally.total(), 10);
        assert_eq!(out.report.counter("fleet.devices"), 10);
        assert_eq!(out.report.counter("fleet.devices.ok"), 10);
        assert_eq!(out.report.counter("fleet.devices.failed"), 0);
        assert_eq!(out.report.counter("sweep.scenarios"), 10);
        for r in &out.devices {
            let run = r.ok().expect("healthy fleet");
            assert_eq!(run.waveform.len(), STEPS);
            assert_eq!(run.report.analog_samples, STEPS as u32);
            assert!(run.report.instructions > 100, "CPU must have run");
            assert_eq!(run.report.kernel_activations, 0);
        }
        // Per-device counters aggregate under the vp.device.* prefix.
        let instructions: u64 = out
            .devices
            .iter()
            .map(|r| r.ok().unwrap().report.instructions)
            .sum();
        assert_eq!(out.report.counter("vp.device.instructions"), instructions);
        assert_eq!(
            out.report.counter("vp.device.analog.samples"),
            (10 * STEPS) as u64
        );
    }

    #[test]
    fn ragged_step_counts_retire_short_devices_cleanly() {
        let model = rc1_model();
        let mut devs = devices(3);
        devs[1].steps = STEPS / 3;
        let out = run_fleet(&model, &fleet_config().lane_width(3), &devs).unwrap();
        let lens: Vec<usize> = out
            .devices
            .iter()
            .map(|r| r.ok().unwrap().waveform.len())
            .collect();
        assert_eq!(lens, vec![STEPS, STEPS / 3, STEPS]);
    }

    #[test]
    fn invalid_override_fails_the_fleet_up_front() {
        let model = rc1_model();
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut devs = devices(2);
            devs[0].newton_tol = Some(bad);
            match run_fleet(&model, &fleet_config(), &devs).err() {
                Some(AmsError::InvalidTolerance { tol }) => {
                    assert_eq!(tol.to_bits(), bad.to_bits());
                }
                other => panic!("tolerance {bad}: want InvalidTolerance, got {other:?}"),
            }
        }
        let mut devs = devices(2);
        devs[1].step_control = Some(StepControl::new(2.0 * DT));
        match run_fleet(&model, &fleet_config(), &devs).err() {
            Some(AmsError::InvalidStepControl { min_dt, dt }) => {
                assert_eq!((min_dt, dt), (2.0 * DT, DT));
            }
            other => panic!("want InvalidStepControl, got {other:?}"),
        }
    }

    #[test]
    fn budget_cap_records_typed_outcomes() {
        let model = rc1_model();
        let cap = (STEPS / 2) as u64;
        let config = fleet_config().budget(ScenarioBudget::unlimited().max_steps(cap));
        let out = run_fleet(&model, &config, &devices(4)).unwrap();
        assert_eq!(out.tally().budget, 4);
        assert_eq!(out.report.counter("fleet.devices.budget"), 4);
        for (i, r) in out.devices.iter().enumerate() {
            match r {
                ScenarioOutcome::Budget(b) => {
                    assert_eq!(b.steps, cap + 1, "device {i} trips right past the cap");
                }
                other => panic!("device {i}: want Budget, got {other:?}"),
            }
        }
    }
}
