//! The smart-system virtual platform of the paper's §V-B experiments:
//! a MIPS-based CPU executing firmware from memory, an APB-style bus with
//! a UART, and one analog component integrated at a selectable abstraction
//! level.
//!
//! The platform exists in two builds:
//!
//! * [`run_de_platform`] — every component is a process of the
//!   discrete-event kernel (the SystemC-style platform). The analog
//!   component plugs in at any of the paper's levels via
//!   [`AnalogIntegration`]: co-simulated conservative Verilog-AMS, ELN,
//!   TDF, or the abstracted discrete-event model.
//! * [`run_fast_platform`] — the "pure C++" build: a single interleaved
//!   loop stepping the CPU and the compiled analog model with no event
//!   queue at all, reproducing the fastest row of Table III.
//!
//! # Example
//!
//! ```
//! use amsvp_core::{circuits, Abstraction};
//! use amsvp_vp::{monitor_firmware, run_fast_platform, PlatformConfig};
//!
//! let module = vams_parser::parse_module(&circuits::rc_ladder(1))?;
//! let model = Abstraction::new(&module).dt(50e-9).build()?;
//! let config = PlatformConfig::new(monitor_firmware());
//! let report = run_fast_platform(model, &config, 2e-3); // 2 ms simulated
//! // The firmware reports threshold crossings of the analog output.
//! assert!(report.uart.len() >= 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

//!
//! Beyond the single platform, [`run_fleet`] scales the fast build to a
//! *fleet*: N independent smart-system instances in one process, sharing
//! one compiled analog model and one [`Firmware`] image, sharded across
//! the sweep pool with per-device fault isolation.

mod analog;
mod asm;
mod bus;
mod cpu;
mod firmware;
mod fleet;
mod platform;

pub use analog::{
    build_tdf_cluster, opamp_eln, rc_ladder_eln, two_inputs_eln, CompiledAnalog, CosimAnalog,
    ElnAnalog, TdfClusterProcess,
};
pub use asm::{assemble, AsmError};
pub use bus::{
    new_bridge, reg_to_volts, volts_to_reg, AnalogBridgeState, PlatformBus, SharedBridge,
    SharedUart, ADC_COUNT, ADC_DATA, ANALOG_BASE, DAC_DATA, RAM_BASE, RAM_SIZE, UART_BASE,
    UART_STATUS, UART_TX,
};
pub use cpu::{Bus32, CpuCore, Decoded};
pub use firmware::{monitor_firmware, Firmware, MONITOR_FIRMWARE};
pub use fleet::{run_fleet, DeviceOutcome, DeviceRun, DeviceScenario, FleetConfig, FleetOutcome};
pub use platform::{
    run_de_platform, run_fast_platform, AnalogIntegration, FastAnalog, PlatformConfig,
    PlatformReport,
};
