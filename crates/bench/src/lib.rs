//! Shared harness for reproducing every table of the paper.
//!
//! The criterion benches under `benches/` measure *per-step* costs of each
//! integration level; the printable harnesses here run *complete*
//! simulations with wall-clock timing and NRMSE computation, producing the
//! same rows as the paper's Tables I–III. The `examples/table*.rs`
//! binaries of the workspace print them.

use std::time::{Duration, Instant};

use amsim::Simulation;
use amsvp_core::circuits::{self, SquareWave};
use amsvp_core::{Abstraction, SignalFlowModel};
use de::{Kernel, SimTime};
use eln::{ElnNetwork, Method, NodeId, SourceId, Transient};
use obs::Obs;
use vams_ast::Module;
use vp::{build_tdf_cluster, new_bridge, CompiledAnalog, ElnAnalog};

/// One benchmark circuit with everything each integration level needs.
pub struct CircuitSpec {
    /// Paper label (2IN, RC1, RC20, OA).
    pub label: &'static str,
    /// Verilog-AMS source.
    pub source: String,
    /// Parsed module.
    pub module: Module,
    /// Number of analog inputs.
    pub inputs: usize,
    /// Hand-built ELN model: network, stimulus sources, output node.
    pub eln: (ElnNetwork, Vec<SourceId>, NodeId),
}

/// The paper's four benchmark circuits (§V-A).
pub fn paper_circuits() -> Vec<CircuitSpec> {
    let mk = |label: &'static str,
              source: String,
              inputs: usize,
              eln: (ElnNetwork, Vec<SourceId>, NodeId)| {
        let module = vams_parser::parse_module(&source).expect("fixtures parse");
        CircuitSpec {
            label,
            source,
            module,
            inputs,
            eln,
        }
    };
    let (n2, s2, o2) = vp::two_inputs_eln();
    let (nr1, sr1, or1) = vp::rc_ladder_eln(1);
    let (nr20, sr20, or20) = vp::rc_ladder_eln(20);
    let (noa, soa, ooa) = vp::opamp_eln();
    vec![
        mk("2IN", circuits::two_inputs(), 2, (n2, s2, o2)),
        mk("RC1", circuits::rc_ladder(1), 1, (nr1, vec![sr1], or1)),
        mk("RC20", circuits::rc_ladder(20), 1, (nr20, vec![sr20], or20)),
        mk("OA", circuits::opamp(), 1, (noa, vec![soa], ooa)),
    ]
}

/// Workload parameters (paper defaults: Δt = 50 ns, 1 ms square wave).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Time step in seconds.
    pub dt: f64,
    /// Simulated duration in seconds.
    pub sim_time: f64,
    /// Stimulus.
    pub stim: SquareWave,
}

impl Workload {
    /// The paper's Table I workload scaled to `sim_time` seconds
    /// (the paper used 100 ms; the full duration is practical but slow
    /// for the interpreted reference simulator).
    pub fn table1(sim_time: f64) -> Workload {
        Workload {
            dt: 50e-9,
            sim_time,
            stim: SquareWave::paper(),
        }
    }

    /// Number of steps in the workload.
    pub fn steps(&self) -> usize {
        (self.sim_time / self.dt).round() as usize
    }
}

/// Builds the abstracted model of a circuit at the workload's Δt.
pub fn abstracted_model(spec: &CircuitSpec, wl: &Workload) -> SignalFlowModel {
    abstracted_model_with(spec, wl, &Obs::none())
}

/// [`abstracted_model`] with an instrumentation collector attached, so
/// the pipeline reports per-phase timings (`pipeline/acquire`, ...).
pub fn abstracted_model_with(spec: &CircuitSpec, wl: &Workload, obs: &Obs) -> SignalFlowModel {
    Abstraction::new(&spec.module)
        .dt(wl.dt)
        .output("V(out)")
        .collector(obs.clone())
        .build()
        .expect("paper circuits abstract cleanly")
}

/// Integration levels of Tables I–III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Interpreted conservative reference (Verilog-AMS / ELDO stand-in).
    VamsRef,
    /// Hand-built ELN inside the DE kernel.
    Eln,
    /// Abstracted model inside a TDF cluster.
    Tdf,
    /// Abstracted model as a DE process.
    De,
    /// Abstracted model in a plain loop.
    Cpp,
}

impl Level {
    /// Paper row label.
    pub fn label(self) -> &'static str {
        match self {
            Level::VamsRef => "Verilog-AMS",
            Level::Eln => "SC-AMS/ELN",
            Level::Tdf => "SC-AMS/TDF",
            Level::De => "SC-DE",
            Level::Cpp => "C++",
        }
    }

    /// Generation method column of the paper (manual vs algorithmic).
    pub fn method(self) -> &'static str {
        match self {
            Level::VamsRef | Level::Eln => "manual",
            _ => "algo",
        }
    }
}

/// Runs one level of Table I/II in isolation and returns the wall time.
///
/// # Panics
///
/// Panics if a solver fails mid-run (paper circuits never do).
pub fn run_isolated(spec: &CircuitSpec, level: Level, wl: &Workload) -> Duration {
    run_isolated_with(spec, level, wl, &Obs::none())
}

/// [`run_isolated`] with an instrumentation collector: every substrate
/// reports its kernel counters (`de.*`, `tdf.*`, `eln.*`, `amsim.*`) and
/// the pipeline its per-phase timings.
///
/// # Panics
///
/// Panics if a solver fails mid-run (paper circuits never do).
pub fn run_isolated_with(spec: &CircuitSpec, level: Level, wl: &Workload, obs: &Obs) -> Duration {
    let steps = wl.steps();
    match level {
        Level::VamsRef => {
            let mut sim = Simulation::new(&spec.module)
                .dt(wl.dt)
                .output("V(out)")
                .collector(obs.clone())
                .build()
                .expect("lowers");
            let inputs = vec![0.0; spec.inputs];
            let start = Instant::now();
            let mut t = 0.0;
            let mut buf = inputs;
            for _ in 0..steps {
                let u = wl.stim.value(t);
                buf.iter_mut().for_each(|v| *v = u);
                sim.step(&buf);
                t += wl.dt;
            }
            sim.flush_counters();
            start.elapsed()
        }
        Level::Eln => {
            let (net, sources, out) = &spec.eln;
            let solver = Transient::new(net)
                .dt(wl.dt)
                .method(Method::BackwardEuler)
                .collector(obs.clone())
                .build()
                .expect("assembles");
            let bridge = new_bridge();
            let mut k = Kernel::new();
            k.set_collector(obs.clone());
            k.register(ElnAnalog::new(
                solver,
                sources.clone(),
                *out,
                bridge,
                wl.stim,
            ));
            let start = Instant::now();
            k.run_until(SimTime::from_seconds(wl.sim_time - wl.dt / 2.0))
                .expect("no delta loops");
            start.elapsed()
        }
        Level::Tdf => {
            let model = abstracted_model_with(spec, wl, obs);
            let bridge = new_bridge();
            let mut exec = build_tdf_cluster(model, bridge, wl.stim).expect("fixed pipeline");
            exec.set_collector(obs.clone());
            let start = Instant::now();
            exec.run_until(SimTime::from_seconds(wl.sim_time));
            start.elapsed()
        }
        Level::De => {
            let model = abstracted_model_with(spec, wl, obs);
            let bridge = new_bridge();
            let mut k = Kernel::new();
            k.set_collector(obs.clone());
            k.register(CompiledAnalog::new(model, bridge, wl.stim));
            let start = Instant::now();
            k.run_until(SimTime::from_seconds(wl.sim_time - wl.dt / 2.0))
                .expect("no delta loops");
            start.elapsed()
        }
        Level::Cpp => {
            let mut model = abstracted_model_with(spec, wl, obs);
            let mut buf = vec![0.0; spec.inputs];
            let start = Instant::now();
            let mut t = 0.0;
            for _ in 0..steps {
                let u = wl.stim.value(t);
                buf.iter_mut().for_each(|v| *v = u);
                model.step(&buf);
                t += wl.dt;
            }
            let elapsed = start.elapsed();
            obs.time("bench.cpp_loop", elapsed.as_secs_f64());
            elapsed
        }
    }
}

/// Waveform of the conservative reference, sampled every step.
pub fn reference_waveform(spec: &CircuitSpec, wl: &Workload, steps: usize) -> Vec<f64> {
    let mut sim = Simulation::new(&spec.module)
        .dt(wl.dt)
        .output("V(out)")
        .build()
        .expect("lowers");
    let mut buf = vec![0.0; spec.inputs];
    let mut out = Vec::with_capacity(steps);
    let mut t = 0.0;
    for _ in 0..steps {
        let u = wl.stim.value(t);
        buf.iter_mut().for_each(|v| *v = u);
        sim.step(&buf);
        out.push(sim.output(0));
        t += wl.dt;
    }
    out
}

/// Waveform of the abstracted model (identical numerics for TDF/DE/C++).
pub fn abstracted_waveform(spec: &CircuitSpec, wl: &Workload, steps: usize) -> Vec<f64> {
    let mut model = abstracted_model(spec, wl);
    let mut buf = vec![0.0; spec.inputs];
    let mut out = Vec::with_capacity(steps);
    let mut t = 0.0;
    for _ in 0..steps {
        let u = wl.stim.value(t);
        buf.iter_mut().for_each(|v| *v = u);
        model.step(&buf);
        out.push(model.output(0));
        t += wl.dt;
    }
    out
}

/// Waveform of the hand-built ELN model.
pub fn eln_waveform(spec: &CircuitSpec, wl: &Workload, steps: usize) -> Vec<f64> {
    let (net, sources, node) = &spec.eln;
    let mut solver = Transient::new(net)
        .dt(wl.dt)
        .method(Method::BackwardEuler)
        .build()
        .expect("assembles");
    let mut out = Vec::with_capacity(steps);
    let mut t = 0.0;
    for _ in 0..steps {
        let u = wl.stim.value(t);
        for &s in sources {
            solver.set_source(s, u);
        }
        solver.try_step().unwrap();
        out.push(solver.node_voltage(*node));
        t += wl.dt;
    }
    out
}

/// A formatted row of Table I/II.
#[derive(Debug, Clone)]
pub struct Row {
    /// Circuit label.
    pub circuit: &'static str,
    /// Integration level.
    pub level: Level,
    /// Wall-clock simulation time.
    pub wall: Duration,
    /// NRMSE vs the conservative reference (`None` for the reference row).
    pub nrmse: Option<f64>,
    /// Speed-up vs the table's baseline row.
    pub speedup: f64,
}

/// Computes the full Table I (all circuits × all levels) at a scaled
/// simulated time, including NRMSE over `accuracy_steps` samples.
pub fn table1_rows(sim_time: f64, accuracy_steps: usize) -> Vec<Row> {
    table1_rows_with(sim_time, accuracy_steps, &Obs::none())
}

/// [`table1_rows`] with an instrumentation collector threaded through
/// every level run; pair with [`obs::Obs::recording`] and
/// [`obs::Report::write_json`] to emit `BENCH_obs.json`.
pub fn table1_rows_with(sim_time: f64, accuracy_steps: usize, obs: &Obs) -> Vec<Row> {
    let wl = Workload::table1(sim_time);
    let mut rows = Vec::new();
    for spec in paper_circuits() {
        // NRMSE normalizes by the reference range, so the accuracy window
        // must contain at least one full stimulus period; shorten the
        // period if the window is smaller than the paper's 1 ms wave.
        let acc_wl = Workload {
            stim: SquareWave {
                period: wl.stim.period.min(accuracy_steps as f64 * wl.dt),
                ..wl.stim
            },
            ..wl
        };
        let reference = reference_waveform(&spec, &acc_wl, accuracy_steps);
        let abstracted = abstracted_waveform(&spec, &acc_wl, accuracy_steps);
        let eln = eln_waveform(&spec, &acc_wl, accuracy_steps);
        let nrmse_abs = linalg::nrmse(&abstracted, &reference);
        let nrmse_eln = linalg::nrmse(&eln, &reference);

        let baseline = run_isolated_with(&spec, Level::VamsRef, &wl, obs);
        for level in [
            Level::VamsRef,
            Level::Eln,
            Level::Tdf,
            Level::De,
            Level::Cpp,
        ] {
            let wall = if level == Level::VamsRef {
                baseline
            } else {
                run_isolated_with(&spec, level, &wl, obs)
            };
            let nrmse = match level {
                Level::VamsRef => None,
                Level::Eln => Some(nrmse_eln),
                _ => Some(nrmse_abs),
            };
            rows.push(Row {
                circuit: spec.label,
                level,
                wall,
                nrmse,
                speedup: baseline.as_secs_f64() / wall.as_secs_f64(),
            });
        }
    }
    rows
}

/// Computes Table II rows (no reference simulator; speed-ups vs ELN).
pub fn table2_rows(sim_time: f64) -> Vec<Row> {
    let wl = Workload::table1(sim_time);
    let mut rows = Vec::new();
    for spec in paper_circuits() {
        let baseline = run_isolated(&spec, Level::Eln, &wl);
        for level in [Level::Eln, Level::Tdf, Level::De, Level::Cpp] {
            let wall = if level == Level::Eln {
                baseline
            } else {
                run_isolated(&spec, level, &wl)
            };
            rows.push(Row {
                circuit: spec.label,
                level,
                wall,
                nrmse: None,
                speedup: baseline.as_secs_f64() / wall.as_secs_f64(),
            });
        }
    }
    rows
}

/// One row of Table III (whole-platform run).
#[derive(Debug, Clone)]
pub struct PlatformRow {
    /// Circuit label.
    pub circuit: &'static str,
    /// Integration description (paper row).
    pub level: &'static str,
    /// Wall-clock time of the platform run.
    pub wall: Duration,
    /// Speed-up vs the co-simulation baseline.
    pub speedup: f64,
    /// Instructions the CPU retired.
    pub instructions: u64,
    /// UART bytes the firmware transmitted.
    pub uart_bytes: usize,
}

/// Computes the full Table III: the virtual platform (MIPS + UART + APB +
/// analog component) with the analog side integrated at every level.
pub fn table3_rows(sim_time: f64) -> Vec<PlatformRow> {
    use amsim::cosim::CosimHandle;
    use vp::{
        monitor_firmware, run_de_platform, run_fast_platform, AnalogIntegration, PlatformConfig,
    };
    let wl = Workload::table1(sim_time);
    let config = PlatformConfig::new(monitor_firmware());
    let mut rows = Vec::new();
    for spec in paper_circuits() {
        let mut baseline = Duration::ZERO;
        type Runner<'a> = Box<dyn Fn() -> (vp::PlatformReport, Duration) + 'a>;
        let runners: Vec<(&'static str, Runner<'_>)> = vec![
            (
                "Verilog-AMS cosim",
                Box::new(|| {
                    let sim = Simulation::new(&spec.module)
                        .dt(wl.dt)
                        .output("V(out)")
                        .build()
                        .expect("lowers");
                    let handle = CosimHandle::spawn(sim, 1);
                    let start = Instant::now();
                    let report = run_de_platform(
                        AnalogIntegration::Cosim {
                            handle,
                            inputs: spec.inputs,
                            dt: wl.dt,
                        },
                        &config,
                        SimTime::from_seconds(sim_time),
                    );
                    (report, start.elapsed())
                }),
            ),
            (
                "SC-AMS/ELN",
                Box::new(|| {
                    let (net, sources, out) = &spec.eln;
                    let solver = Transient::new(net)
                        .dt(wl.dt)
                        .method(Method::BackwardEuler)
                        .build()
                        .expect("assembles");
                    let start = Instant::now();
                    let report = run_de_platform(
                        AnalogIntegration::Eln {
                            solver,
                            sources: sources.clone(),
                            output: *out,
                        },
                        &config,
                        SimTime::from_seconds(sim_time),
                    );
                    (report, start.elapsed())
                }),
            ),
            (
                "SC-AMS/TDF",
                Box::new(|| {
                    let model = abstracted_model(&spec, &wl);
                    let start = Instant::now();
                    let report = run_de_platform(
                        AnalogIntegration::Tdf(model),
                        &config,
                        SimTime::from_seconds(sim_time),
                    );
                    (report, start.elapsed())
                }),
            ),
            (
                "SC-DE",
                Box::new(|| {
                    let model = abstracted_model(&spec, &wl);
                    let start = Instant::now();
                    let report = run_de_platform(
                        AnalogIntegration::CompiledDe(model),
                        &config,
                        SimTime::from_seconds(sim_time),
                    );
                    (report, start.elapsed())
                }),
            ),
            (
                "C++",
                Box::new(|| {
                    let model = abstracted_model(&spec, &wl);
                    let start = Instant::now();
                    let report = run_fast_platform(model, &config, sim_time);
                    (report, start.elapsed())
                }),
            ),
        ];
        for (name, run) in runners {
            let (report, wall) = run();
            if baseline == Duration::ZERO {
                baseline = wall;
            }
            rows.push(PlatformRow {
                circuit: spec.label,
                level: name,
                wall,
                speedup: baseline.as_secs_f64() / wall.as_secs_f64(),
                instructions: report.instructions,
                uart_bytes: report.uart.len(),
            });
        }
    }
    rows
}

/// Formats Table III rows as an aligned text table.
pub fn format_platform_rows(title: &str, rows: &[PlatformRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<8} {:<20} {:>12} {:>9} {:>13} {:>6}",
        "Circuit", "Integration", "Wall [s]", "Speed-up", "Instructions", "UART"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:<20} {:>12.4} {:>8.1}x {:>13} {:>6}",
            r.circuit,
            r.level,
            r.wall.as_secs_f64(),
            r.speedup,
            r.instructions,
            r.uart_bytes
        );
    }
    out
}

/// Formats rows as an aligned text table.
pub fn format_rows(title: &str, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:>7} {:>12} {:>12} {:>9}",
        "Circuit", "Level", "Method", "Wall [s]", "NRMSE", "Speed-up"
    );
    for r in rows {
        let nrmse = r
            .nrmse
            .map(|e| format!("{e:.2e}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>7} {:>12.4} {:>12} {:>8.1}x",
            r.circuit,
            r.level.label(),
            r.level.method(),
            r.wall.as_secs_f64(),
            nrmse,
            r.speedup
        );
    }
    out
}

/// Minimal stand-in for a statistical benchmark harness (criterion is
/// not vendored): warms `f` up briefly, then times batches until ~50 ms
/// of samples accumulate, prints the mean per-iteration cost and returns
/// it in seconds.
///
/// Used by the plain-`main` programs under `benches/`.
pub fn microbench<R>(group: &str, name: &str, mut f: impl FnMut() -> R) -> f64 {
    let warm = Instant::now();
    let mut batch = 0u64;
    while batch < 5 || warm.elapsed() < Duration::from_millis(10) {
        std::hint::black_box(f());
        batch += 1;
    }
    let mut total = Duration::ZERO;
    let mut count = 0u64;
    while total < Duration::from_millis(50) {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        total += start.elapsed();
        count += batch;
    }
    let per = total.as_secs_f64() / count as f64;
    println!(
        "{group}/{name:<34} {:>12.0} ns/iter ({count} iters)",
        per * 1e9
    );
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_circuits_build_at_every_level() {
        let wl = Workload::table1(20e-6); // 400 steps — smoke test
        for spec in paper_circuits() {
            for level in [
                Level::VamsRef,
                Level::Eln,
                Level::Tdf,
                Level::De,
                Level::Cpp,
            ] {
                let wall = run_isolated(&spec, level, &wl);
                assert!(wall.as_nanos() > 0, "{} {:?}", spec.label, level);
            }
        }
    }

    #[test]
    fn accuracy_is_paper_grade() {
        // NRMSE of the abstracted models vs the conservative reference at
        // the same Δt: the paper reports 1e-5..1e-9; both backward-Euler
        // implementations agree far more tightly here because the
        // discretization is identical.
        // A faster stimulus keeps several transitions inside the window
        // (NRMSE normalizes by the reference range, which must span the
        // actual signal swing).
        let wl = Workload {
            dt: 50e-9,
            sim_time: 1e-3,
            stim: SquareWave {
                period: 20e-6,
                high: 1.0,
                low: 0.0,
            },
        };
        for spec in paper_circuits() {
            let steps = 2000;
            let reference = reference_waveform(&spec, &wl, steps);
            let abstracted = abstracted_waveform(&spec, &wl, steps);
            let e = linalg::nrmse(&abstracted, &reference);
            assert!(e < 1e-3, "{}: NRMSE {e}", spec.label);
            let eln = eln_waveform(&spec, &wl, steps);
            let e2 = linalg::nrmse(&eln, &reference);
            assert!(e2 < 1e-3, "{} ELN: NRMSE {e2}", spec.label);
        }
    }

    #[test]
    fn cpp_is_fastest_and_reference_is_slowest() {
        let wl = Workload::table1(100e-6); // 2000 steps
        let spec = &paper_circuits()[1]; // RC1
        let vams = run_isolated(spec, Level::VamsRef, &wl);
        let cpp = run_isolated(spec, Level::Cpp, &wl);
        let de = run_isolated(spec, Level::De, &wl);
        assert!(
            vams > cpp * 5,
            "reference ({vams:?}) must dwarf the compiled model ({cpp:?})"
        );
        assert!(vams > de, "reference slower than DE integration");
    }

    #[test]
    fn row_formatting_is_stable() {
        let rows = vec![Row {
            circuit: "RC1",
            level: Level::Cpp,
            wall: Duration::from_millis(40),
            nrmse: Some(4.6e-7),
            speedup: 12648.0,
        }];
        let text = format_rows("TABLE I", &rows);
        assert!(text.contains("TABLE I"));
        assert!(text.contains("RC1"));
        assert!(text.contains("C++"));
        assert!(text.contains("4.60e-7"));
        assert!(text.contains("12648.0x"));
    }
}
