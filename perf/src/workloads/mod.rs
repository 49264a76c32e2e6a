//! The eight workloads. Each one sets up (timed, repeated), runs one
//! untimed warm-up round and timed rounds of fixed size, checks its
//! outputs, and in a traced run measures its per-layer ledger.

mod fleet;
mod rc250;
mod serve;
mod sweeps;
mod tables;

use crate::harness::{Outcome, RunConfig};

/// Runs workload `name` (validated against the spec table by `main`).
pub fn run(name: &str, cfg: &RunConfig) -> Outcome {
    match name {
        "table_conservative" => tables::conservative(cfg),
        "table_signal_flow" => tables::signal_flow(cfg),
        "table_platform" => tables::platform(cfg),
        "rc250" => rc250::run(cfg),
        "sweep_clamp" => sweeps::clamp(cfg),
        "sweep_tree" => sweeps::tree(cfg),
        "fleet" => fleet::run(cfg),
        "serve" => serve::run(cfg),
        other => unreachable!("workload `{other}` is not in the spec table"),
    }
}
