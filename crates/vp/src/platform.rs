//! Whole-platform assembly and execution (the Table III experiment).

use std::cell::RefCell;
use std::rc::Rc;

use amsim::cosim::CosimHandle;
use amsvp_core::circuits::{SquareWave, Stimulus};
use amsvp_core::SignalFlowModel;
use de::{Kernel, ProcCtx, Process, SimTime};
use eln::{ElnSolver, NodeId, SourceId};

use crate::analog::{build_tdf_cluster, CompiledAnalog, CosimAnalog, ElnAnalog, TdfClusterProcess};
use crate::bus::{input_sample, new_bridge, publish, PlatformBus, SharedUart};
use crate::cpu::CpuCore;

/// Platform parameters shared by both builds, generic over the analog
/// stimulus (default: the paper's square wave) — so a fleet can hand
/// every device its own seeded waveform without a parallel config type.
#[derive(Debug, Clone)]
pub struct PlatformConfig<S: Stimulus = SquareWave> {
    /// CPU clock period (default 20 ns — 50 MHz).
    pub cpu_period: SimTime,
    /// Stimulus applied to the analog component (default: the paper's
    /// 1 ms square wave).
    pub stimulus: S,
    /// Firmware image, loaded at address 0.
    pub firmware: Vec<u32>,
}

impl PlatformConfig {
    /// Config with paper defaults and the given firmware.
    pub fn new(firmware: Vec<u32>) -> Self {
        PlatformConfig {
            cpu_period: SimTime::ns(20),
            stimulus: SquareWave::paper(),
            firmware,
        }
    }
}

impl<S: Stimulus> PlatformConfig<S> {
    /// Config with paper defaults, the given firmware, and a custom
    /// stimulus.
    pub fn with_stimulus(firmware: Vec<u32>, stimulus: S) -> Self {
        PlatformConfig {
            cpu_period: SimTime::ns(20),
            stimulus,
            firmware,
        }
    }
}

/// How the analog component is integrated (one row of Table III).
// Constructed once per platform run, so the size spread between the ELN
// variant (solver + factors) and the others is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum AnalogIntegration {
    /// Abstracted model as a plain DE process ("SC-DE").
    CompiledDe(SignalFlowModel),
    /// Abstracted model inside a TDF cluster ("SC-AMS/TDF").
    Tdf(SignalFlowModel),
    /// Hand-built electrical linear network ("SC-AMS/ELN").
    Eln {
        /// The assembled MNA solver.
        solver: ElnSolver,
        /// Sources driven by the stimulus.
        sources: Vec<SourceId>,
        /// Observed output node.
        output: NodeId,
    },
    /// Conservative Verilog-AMS solver on its own thread, synchronized
    /// every analog step ("Verilog-AMS co-simulation").
    Cosim {
        /// Running solver handle.
        handle: CosimHandle,
        /// Number of analog inputs (all driven with the stimulus).
        inputs: usize,
        /// Analog step in seconds.
        dt: f64,
    },
}

/// What a platform run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformReport {
    /// Bytes the firmware transmitted over the UART.
    pub uart: Vec<u8>,
    /// Instructions the CPU retired.
    pub instructions: u64,
    /// Analog steps taken.
    pub analog_samples: u32,
    /// Final analog output sample (volts).
    pub final_output: f64,
    /// DE-kernel activations (0 for the fast build).
    pub kernel_activations: u64,
}

/// The CPU as a DE process: one instruction per clock activation.
struct CpuProcess {
    core: CpuCore,
    bus: PlatformBus,
    period: SimTime,
}

impl Process for CpuProcess {
    fn activate(&mut self, ctx: &mut ProcCtx<'_>) {
        if !self.core.halted() {
            self.core.step(&mut self.bus);
            ctx.notify_self_after(self.period);
        }
    }
}

/// Runs the discrete-event platform for `sim_time` with the chosen analog
/// integration.
///
/// # Panics
///
/// Panics if the kernel reports a zero-delay loop (impossible with this
/// fixed process set) or an analog solver fails mid-run.
pub fn run_de_platform<S>(
    integration: AnalogIntegration,
    config: &PlatformConfig<S>,
    sim_time: SimTime,
) -> PlatformReport
where
    S: Stimulus + Clone + 'static,
{
    let uart: SharedUart = Rc::new(RefCell::new(Vec::new()));
    let bridge = new_bridge();
    let mut kernel = Kernel::new();

    let mut bus = PlatformBus::new(uart.clone(), bridge.clone());
    bus.load_words(0, &config.firmware);
    let cpu_id = kernel.register(CpuProcess {
        core: CpuCore::new(),
        bus,
        period: config.cpu_period,
    });

    match integration {
        AnalogIntegration::CompiledDe(model) => {
            kernel.register(CompiledAnalog::new(
                model,
                bridge.clone(),
                config.stimulus.clone(),
            ));
        }
        AnalogIntegration::Tdf(model) => {
            let exec = build_tdf_cluster(model, bridge.clone(), config.stimulus.clone())
                .expect("fixed pipeline elaborates");
            kernel.register(TdfClusterProcess::new(exec));
        }
        AnalogIntegration::Eln {
            solver,
            sources,
            output,
        } => {
            kernel.register(ElnAnalog::new(
                solver,
                sources,
                output,
                bridge.clone(),
                config.stimulus.clone(),
            ));
        }
        AnalogIntegration::Cosim { handle, inputs, dt } => {
            kernel.register(CosimAnalog::new(
                handle,
                inputs,
                dt,
                bridge.clone(),
                config.stimulus.clone(),
            ));
        }
    }

    kernel
        .run_until(sim_time)
        .expect("platform has no delta loops");

    let instructions = kernel
        .process_ref::<CpuProcess>(cpu_id)
        .expect("cpu process type")
        .core
        .retired();
    let b = bridge.borrow();
    let uart_bytes = uart.borrow().clone();
    PlatformReport {
        uart: uart_bytes,
        instructions,
        analog_samples: b.samples,
        final_output: b.aout,
        kernel_activations: kernel.activations(),
    }
}

/// A fixed-step analog engine the fast (event-queue-free) platform build
/// can interleave with the CPU: the abstracted [`SignalFlowModel`] or a
/// conservative [`amsim::Instance`] over a shared compiled model.
///
/// The fleet runner batches the [`amsim::Instance`] form of this loop
/// over many devices ([`crate::run_fleet`]); per the lane≡scalar batch
/// contract, a one-device fleet reproduces [`run_fast_platform`] on the
/// instance engine bit for bit.
pub trait FastAnalog {
    /// Nominal analog step in seconds.
    fn dt(&self) -> f64;
    /// Number of analog inputs (all driven with the stimulus + DAC sum).
    fn input_count(&self) -> usize;
    /// Advances one nominal step and returns output 0.
    ///
    /// # Panics
    ///
    /// Implementations over fallible solvers panic on solver failure —
    /// the fast build, like the DE build, treats an analog fault as fatal
    /// (the fleet runner isolates faults per device instead).
    fn step_sample(&mut self, inputs: &[f64]) -> f64;
}

impl FastAnalog for SignalFlowModel {
    fn dt(&self) -> f64 {
        SignalFlowModel::dt(self)
    }

    fn input_count(&self) -> usize {
        self.input_names().len()
    }

    fn step_sample(&mut self, inputs: &[f64]) -> f64 {
        self.step(inputs);
        self.output(0)
    }
}

impl FastAnalog for amsim::Instance {
    fn dt(&self) -> f64 {
        amsim::Instance::dt(self)
    }

    fn input_count(&self) -> usize {
        self.input_names().len()
    }

    fn step_sample(&mut self, inputs: &[f64]) -> f64 {
        self.step(inputs);
        self.output(0)
    }
}

/// Runs the "pure C++" platform: a single loop interleaving CPU
/// instructions and compiled analog steps, with no event queue.
///
/// `sim_seconds` is the simulated duration; the CPU executes
/// `dt / cpu_period` instructions per analog step.
pub fn run_fast_platform<A, S>(
    mut model: A,
    config: &PlatformConfig<S>,
    sim_seconds: f64,
) -> PlatformReport
where
    A: FastAnalog,
    S: Stimulus,
{
    let uart: SharedUart = Rc::new(RefCell::new(Vec::new()));
    let bridge = new_bridge();
    let mut bus = PlatformBus::new(uart.clone(), bridge.clone());
    bus.load_words(0, &config.firmware);
    let mut cpu = CpuCore::new();

    let dt = model.dt();
    // Fractional cycle accounting keeps the CPU at exactly its clock rate
    // even when the analog step is not an integer multiple of the cycle.
    let cycles_per_analog = dt / config.cpu_period.as_seconds();
    let steps = (sim_seconds / dt).round() as usize;
    let n_inputs = model.input_count();
    let mut inputs = vec![0.0; n_inputs];
    let mut cycle_debt = 0.0_f64;

    for k in 0..steps {
        cycle_debt += cycles_per_analog;
        cpu.run_cycles(&mut bus, &mut cycle_debt);
        let u = input_sample(&config.stimulus, k as f64 * dt, &bridge);
        inputs.iter_mut().for_each(|v| *v = u);
        publish(&bridge, model.step_sample(&inputs));
    }

    let b = bridge.borrow();
    let uart_bytes = uart.borrow().clone();
    PlatformReport {
        uart: uart_bytes,
        instructions: cpu.retired(),
        analog_samples: b.samples,
        final_output: b.aout,
        kernel_activations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analog::rc_ladder_eln;
    use crate::firmware::monitor_firmware;
    use amsvp_core::{circuits, Abstraction};
    use eln::{Method, Transient};
    use vams_parser::parse_module;

    const DT: f64 = 50e-9;

    fn rc1_model() -> SignalFlowModel {
        let m = parse_module(&circuits::rc_ladder(1)).unwrap();
        Abstraction::new(&m).dt(DT).build().unwrap()
    }

    /// Expected UART traffic: with a 1 ms square wave and τ = 125 µs, the
    /// RC output crosses 0.5 V once per half period: '1' then '0', twice
    /// per period.
    fn check_report(r: &PlatformReport, sim_ms: f64) {
        let expected_crossings = (2.0 * sim_ms).round() as usize;
        assert!(
            r.uart.len() >= expected_crossings.saturating_sub(1)
                && r.uart.len() <= expected_crossings + 1,
            "uart {:?} vs expected ~{expected_crossings}",
            r.uart
        );
        // Alternating '1'/'0' starting with '1'.
        for (i, b) in r.uart.iter().enumerate() {
            let want = if i % 2 == 0 { b'1' } else { b'0' };
            assert_eq!(*b, want, "uart byte {i}");
        }
        assert!(r.instructions > 1000, "CPU must have run");
        assert!(r.analog_samples > 0);
    }

    #[test]
    fn fast_platform_monitors_crossings() {
        let config = PlatformConfig::new(monitor_firmware());
        let report = run_fast_platform(rc1_model(), &config, 2e-3);
        check_report(&report, 2.0);
        assert_eq!(report.kernel_activations, 0);
        // 2 ms at 50 ns per analog step.
        assert_eq!(report.analog_samples, 40_000);
    }

    #[test]
    fn de_platform_with_compiled_model_matches_fast() {
        let config = PlatformConfig::new(monitor_firmware());
        let fast = run_fast_platform(rc1_model(), &config, 2e-3);
        // Stop half an analog step early: kernel events at the end time
        // are inclusive, the fast loop's are not.
        let de = run_de_platform(
            AnalogIntegration::CompiledDe(rc1_model()),
            &config,
            SimTime::from_seconds(2e-3 - DT / 2.0),
        );
        check_report(&de, 2.0);
        assert!(de.kernel_activations > 0);
        // Same analog trajectory in both builds.
        assert!(
            (de.final_output - fast.final_output).abs() < 1e-9,
            "{} vs {}",
            de.final_output,
            fast.final_output
        );
        assert_eq!(de.uart, fast.uart);
    }

    #[test]
    fn de_platform_with_tdf_cluster() {
        let config = PlatformConfig::new(monitor_firmware());
        let report = run_de_platform(
            AnalogIntegration::Tdf(rc1_model()),
            &config,
            SimTime::from_seconds(2e-3),
        );
        check_report(&report, 2.0);
    }

    #[test]
    fn de_platform_with_eln() {
        let (net, src, out) = rc_ladder_eln(1);
        let solver = Transient::new(&net)
            .dt(DT)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        let config = PlatformConfig::new(monitor_firmware());
        let report = run_de_platform(
            AnalogIntegration::Eln {
                solver,
                sources: vec![src],
                output: out,
            },
            &config,
            SimTime::from_seconds(2e-3),
        );
        check_report(&report, 2.0);
    }

    #[test]
    fn de_platform_with_cosim() {
        // Coarser analog step keeps the reference solver affordable here.
        let dt = 1e-6;
        let m = parse_module(&circuits::rc_ladder(1)).unwrap();
        let sim = amsim::Simulation::new(&m)
            .dt(dt)
            .output("V(out)")
            .build()
            .unwrap();
        let handle = CosimHandle::spawn(sim, 1);
        let config = PlatformConfig::new(monitor_firmware());
        let report = run_de_platform(
            AnalogIntegration::Cosim {
                handle,
                inputs: 1,
                dt,
            },
            &config,
            SimTime::from_seconds(2e-3),
        );
        check_report(&report, 2.0);
    }

    #[test]
    fn firmware_prints_string_over_uart() {
        // Data-driven transmit loop: walks a NUL-terminated string through
        // a subroutine, exercising jal/jr, byte loads, and the UART.
        let firmware = crate::asm::assemble(
            "li $s1, 0x10000000
             la $s0, text
          next:
             lbu $a0, 0($s0)
             beq $a0, $zero, done
             jal putc
             addiu $s0, $s0, 1
             b next
          putc:
             sw $a0, 0($s1)
             jr $ra
          done:
             break
          text:
             .word 0x736d61      # 'a' 'm' 's' 0 (little endian)",
        )
        .unwrap();
        let config = PlatformConfig {
            cpu_period: SimTime::ns(20),
            stimulus: SquareWave {
                period: 1.0,
                high: 0.0,
                low: 0.0,
            },
            firmware,
        };
        let report = run_fast_platform(rc1_model(), &config, 50e-6);
        assert_eq!(report.uart, b"ams");
    }

    #[test]
    fn dac_feedback_path_reaches_analog_input() {
        // Firmware drives the DAC with a constant 0.25 V, stimulus is zero:
        // the analog RC settles to 0.25 V.
        let firmware = crate::asm::assemble(
            "li $t0, 0x20000000
             li $t1, 250000
             sw $t1, 4($t0)     # DAC = 0.25 V
          spin:
             b spin",
        )
        .unwrap();
        let config = PlatformConfig {
            cpu_period: SimTime::ns(20),
            stimulus: SquareWave {
                period: 1.0,
                high: 0.0,
                low: 0.0,
            },
            firmware,
        };
        let report = run_fast_platform(rc1_model(), &config, 2e-3);
        assert!(
            (report.final_output - 0.25).abs() < 1e-3,
            "RC settles to the DAC value, got {}",
            report.final_output
        );
    }
}
