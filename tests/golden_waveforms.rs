//! Golden-waveform corpus: the six benchmark circuits (Table I's 2IN,
//! RC1, RC20, OA, the stiff diode clamp, plus a 30-stage RC ladder)
//! simulated on the scalar path with fixed seeds, serialized to
//! `tests/golden/*.json`, and held bit-exact forever after. Under
//! `SolverKind::Auto` RC1 runs the dense factorization backend and the
//! others the sparse one.
//!
//! Every execution mode must reproduce the checked-in bits *exactly* —
//! f64 bit patterns, not tolerances:
//!
//! * the scalar [`amsim::Instance`] loop (the path that produced the
//!   corpus),
//! * a lane-batched [`amsim::BatchInstance`] carrying all scenarios of a
//!   circuit at once,
//! * [`sweep::run_ams_sweep`] in one-lane blocks at 1, 2, and 8
//!   workers, and with a lane width that splits the scenarios unevenly.
//!
//! A drift in any of them — an optimization that reorders IEEE ops, a
//! scheduling leak into numerics, a solver change that silently alters
//! results — fails this test before it reaches users.
//!
//! # Regenerating the corpus
//!
//! When a waveform change is *intended* (e.g. a deliberate solver
//! change), bless new goldens from the scalar path and commit the diff:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_waveforms
//! ```
//!
//! Review the diff of `tests/golden/*.json` like source: every changed
//! bit pattern is a changed simulation result.
//!
//! Waveforms are stored as 16-digit hex IEEE-754 bit patterns (not
//! decimal) so the corpus is exact by construction and diffs are
//! byte-stable across platforms and float-formatting changes.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use amsim::{CompiledModel, Simulation, StepControl};
use amsvp_core::circuits::{
    diode_clamp, opamp, rc_ladder, two_inputs, PiecewiseConstant, SquareWave,
};
use sweep::{run_ams_sweep, AmsScenario, ScenarioTree, SweepEngine, SweepOptions};
use vp::{monitor_firmware, run_fleet, DeviceScenario, Firmware, FleetConfig};

const STEPS: usize = 60;
const N_SCENARIOS: usize = 4;
/// Splits 4 scenarios as 3 + 1 — deliberately uneven.
const LANE_WIDTH: usize = 3;
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

struct Circuit {
    label: &'static str,
    src: String,
    dt: f64,
    /// Upper bound of the seeded piecewise-constant drive.
    hi: f64,
    /// Adaptive stepping for the stiff clamp; fixed dt elsewhere.
    step_control: Option<StepControl>,
}

fn corpus() -> Vec<Circuit> {
    let clamp_ctrl = StepControl::new(1e-9).max_retries(20);
    vec![
        Circuit {
            label: "2IN",
            src: two_inputs(),
            dt: 1e-6,
            hi: 1.0,
            step_control: None,
        },
        Circuit {
            label: "RC1",
            src: rc_ladder(1),
            dt: 1e-6,
            hi: 1.0,
            step_control: None,
        },
        // dt is coarse (500 µs vs the ~25 ms ladder diffusion time) so
        // `V(out)` swings within the 60-step window; at 1 µs it stayed
        // below 1e-24 V and the fixture pinned rounding noise.
        Circuit {
            label: "RC20",
            src: rc_ladder(20),
            dt: 5e-4,
            hi: 1.0,
            step_control: None,
        },
        Circuit {
            label: "OA",
            src: opamp(),
            dt: 1e-6,
            hi: 1.0,
            step_control: None,
        },
        Circuit {
            label: "CLAMP",
            src: diode_clamp(),
            dt: 1e-4,
            hi: 0.8,
            step_control: Some(clamp_ctrl),
        },
        // 30 stages → 150 unknowns with L+U fill 577: under
        // `SolverKind::Auto` every execution mode below runs the sparse
        // backend, pinning its pivot sequence bit-exactly. dt is coarse
        // (1 ms vs the ~56 ms ladder diffusion time) so `V(out)` resolves
        // visibly within the 60-step window.
        Circuit {
            label: "RC30",
            src: rc_ladder(30),
            dt: 1e-3,
            hi: 1.0,
            step_control: None,
        },
    ]
}

fn compile(c: &Circuit) -> Arc<CompiledModel> {
    let module = vams_parser::parse_module(&c.src).unwrap();
    Simulation::new(&module)
        .dt(c.dt)
        .output("V(out)")
        .compile()
        .unwrap()
}

fn stim(c: &Circuit, i: usize) -> PiecewiseConstant {
    PiecewiseConstant::seeded(i as u64 + 1, 5, 6.0 * c.dt, 0.0, c.hi)
}

fn scenarios(c: &Circuit) -> Vec<AmsScenario> {
    (0..N_SCENARIOS)
        .map(|i| AmsScenario {
            name: format!("{}/{i}", c.label),
            stim: Box::new(stim(c, i)),
            steps: STEPS,
            newton_tol: None,
            step_control: c.step_control,
        })
        .collect()
}

/// The scalar reference path: one [`amsim::Instance`] per scenario, the
/// stimulus broadcast to every model input — exactly the arithmetic
/// `run_ams_sweep` performs per lane.
fn scalar_waveforms(c: &Circuit, model: &Arc<CompiledModel>) -> Vec<Vec<u64>> {
    let n_inputs = model.input_names().len();
    (0..N_SCENARIOS)
        .map(|i| {
            let mut builder = model.instance_builder();
            if let Some(ctrl) = c.step_control {
                builder = builder.step_control(ctrl);
            }
            let mut inst = builder.build().unwrap();
            let s = stim(c, i);
            let mut wave = Vec::with_capacity(STEPS);
            for k in 0..STEPS {
                let u = s.value(k as f64 * c.dt);
                inst.try_step(&vec![u; n_inputs]).unwrap();
                wave.push(inst.output(0).to_bits());
            }
            wave
        })
        .collect()
}

/// All scenarios of a circuit in one [`amsim::BatchInstance`]; lane `l`
/// carries scenario `l`.
fn batched_waveforms(c: &Circuit, model: &Arc<CompiledModel>) -> Vec<Vec<u64>> {
    let n_inputs = model.input_names().len();
    let mut builder = model.batch_instance_builder(N_SCENARIOS);
    if let Some(ctrl) = c.step_control {
        builder = builder.step_control(ctrl);
    }
    let mut batch = builder.build().unwrap();
    let stims: Vec<PiecewiseConstant> = (0..N_SCENARIOS).map(|i| stim(c, i)).collect();
    let mut waves: Vec<Vec<u64>> = (0..N_SCENARIOS)
        .map(|_| Vec::with_capacity(STEPS))
        .collect();
    let mut inputs = vec![0.0; n_inputs * N_SCENARIOS];
    for k in 0..STEPS {
        for (l, s) in stims.iter().enumerate() {
            let u = s.value(k as f64 * c.dt);
            for i in 0..n_inputs {
                inputs[i * N_SCENARIOS + l] = u;
            }
        }
        assert_eq!(batch.try_step(&inputs), N_SCENARIOS);
        for (l, wave) in waves.iter_mut().enumerate() {
            wave.push(batch.output(0, l).to_bits());
        }
    }
    waves
}

fn golden_path(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{label}.json"))
}

fn render_golden(c: &Circuit, waves: &[Vec<u64>]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"circuit\": \"{}\",", c.label);
    let _ = writeln!(s, "  \"dt_bits\": \"{:016x}\",", c.dt.to_bits());
    let _ = writeln!(s, "  \"steps\": {STEPS},");
    let _ = writeln!(s, "  \"scenarios\": [");
    for (i, wave) in waves.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"seed\": {},", i + 1);
        let _ = writeln!(s, "      \"waveform_bits\": [");
        for (k, bits) in wave.iter().enumerate() {
            let comma = if k + 1 < wave.len() { "," } else { "" };
            let _ = writeln!(s, "        \"{bits:016x}\"{comma}");
        }
        let _ = writeln!(s, "      ]");
        let comma = if i + 1 < waves.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Minimal parser for the corpus files this test writes: one waveform
/// per `"waveform_bits"` array, entries as 16-digit hex bit patterns.
fn parse_golden(text: &str) -> Vec<Vec<u64>> {
    fn hex_strings(chunk: &str) -> Vec<u64> {
        // Quoted 16-hex-digit tokens up to the closing bracket.
        let body = chunk.split(']').next().unwrap_or("");
        body.split('"')
            .filter(|t| t.len() == 16 && t.bytes().all(|b| b.is_ascii_hexdigit()))
            .map(|t| u64::from_str_radix(t, 16).unwrap())
            .collect()
    }
    text.split("\"waveform_bits\"")
        .skip(1)
        .map(hex_strings)
        .collect()
}

fn assert_waves_eq(label: &str, mode: &str, got: &[Vec<u64>], golden: &[Vec<u64>]) {
    assert_eq!(
        got.len(),
        golden.len(),
        "{label}/{mode}: scenario count drifted from the golden corpus"
    );
    for (i, (g, want)) in got.iter().zip(golden).enumerate() {
        assert_eq!(g.len(), want.len(), "{label}/{mode}: scenario {i} length");
        for (k, (a, b)) in g.iter().zip(want).enumerate() {
            assert_eq!(
                a, b,
                "{label}/{mode}: scenario {i} sample {k}: {a:#018x} vs golden {b:#018x} \
                 (bit-exact waveform reproduction violated; if this change is intended, \
                 regenerate with BLESS_GOLDEN=1 and commit the corpus diff)"
            );
        }
    }
}

#[test]
fn all_execution_modes_reproduce_the_golden_corpus() {
    let bless = std::env::var("BLESS_GOLDEN").is_ok_and(|v| v == "1");
    for c in corpus() {
        let model = compile(&c);
        let scalar = scalar_waveforms(&c, &model);

        let path = golden_path(c.label);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, render_golden(&c, &scalar)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: golden file missing ({e}); generate the corpus with \
                 BLESS_GOLDEN=1 cargo test --test golden_waveforms",
                path.display()
            )
        });
        let golden = parse_golden(&text);
        assert_eq!(golden.len(), N_SCENARIOS, "{}: corpus shape", c.label);

        assert_waves_eq(c.label, "scalar", &scalar, &golden);
        assert_waves_eq(c.label, "batch", &batched_waveforms(&c, &model), &golden);

        for workers in WORKER_COUNTS {
            for (mode, lane_width) in [("sweep", 1), ("batched-sweep", LANE_WIDTH)] {
                let tree = ScenarioTree::from(scenarios(&c));
                let waves = sweep_waveforms(&c, &model, workers, lane_width, &tree, mode);
                assert_waves_eq(c.label, &format!("{mode}/w{workers}"), &waves, &golden);
            }
        }
    }
}

/// `tree` swept on `workers` in lane-blocks of `lane_width`, as waveform
/// bits in leaf order.
fn sweep_waveforms(
    c: &Circuit,
    model: &Arc<CompiledModel>,
    workers: usize,
    lane_width: usize,
    tree: &ScenarioTree,
    mode: &str,
) -> Vec<Vec<u64>> {
    let options = SweepOptions {
        lane_width,
        ..SweepOptions::default()
    };
    let engine = SweepEngine::new().workers(workers);
    let swept = run_ams_sweep(&engine, model, tree, &options, |_| {}).unwrap();
    swept
        .results
        .iter()
        .map(|r| {
            r.ok()
                .unwrap_or_else(|| panic!("{}: {mode} scenario failed", c.label))
                .waveform
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

/// Each scenario as a two-segment chain (20-step root, 40-step child
/// sampling the same stimulus at absolute time): every path crosses one
/// snapshot/fork boundary, so this pins the checkpoint/fork machinery —
/// including the sparse RC30 path and the adaptive CLAMP — to the same
/// golden bits as the uninterrupted runs.
fn chain_split_tree(c: &Circuit) -> sweep::ScenarioTree {
    const SPLIT: usize = 20;
    sweep::ScenarioTree {
        roots: (0..N_SCENARIOS)
            .map(|i| sweep::TreeScenario {
                newton_tol: None,
                step_control: c.step_control,
                segment: sweep::ScenarioSegment {
                    name: format!("{}/{i}/prefix", c.label),
                    stim: Box::new(stim(c, i)),
                    steps: SPLIT,
                    children: vec![sweep::ScenarioSegment {
                        name: format!("{}/{i}", c.label),
                        stim: Box::new(stim(c, i)),
                        steps: STEPS - SPLIT,
                        children: Vec::new(),
                    }],
                },
            })
            .collect(),
    }
}

#[test]
fn tree_sweep_modes_reproduce_the_golden_corpus() {
    for c in corpus() {
        let model = compile(&c);
        let path = golden_path(c.label);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: golden file missing ({e})", path.display()));
        let golden = parse_golden(&text);

        // Chain-split: every path forks once mid-transient. (A flat list,
        // the depth-1 tree, is the batched sweep mode above.)
        let tree = chain_split_tree(&c);
        for workers in WORKER_COUNTS {
            let waves = sweep_waveforms(&c, &model, workers, LANE_WIDTH, &tree, "tree-split");
            assert_waves_eq(c.label, &format!("tree-split/w{workers}"), &waves, &golden);
        }
    }
}

// ---------------------------------------------------------------------
// Fleet fixture: FLEET8 — eight full virtual platforms (CPU + firmware +
// UART + analog bridge) over one shared RC model, mixed square-wave and
// seeded piecewise-constant stimuli. Pins the *whole device payload* —
// waveform bits AND the firmware's UART byte stream — across worker
// counts and lane widths, so a numerics drift anywhere in the
// CPU/analog interleaving shows up as a corpus mismatch.
// ---------------------------------------------------------------------

const FLEET_LABEL: &str = "FLEET8";
const FLEET_DEVICES: usize = 8;
const FLEET_STEPS: usize = 200;
const FLEET_DT: f64 = 2e-6;
/// Splits 8 devices as 3 + 3 + 2 — deliberately uneven.
const FLEET_LANE_WIDTHS: [usize; 3] = [1, 3, 8];

fn fleet_model() -> Arc<CompiledModel> {
    let module = vams_parser::parse_module(&rc_ladder(1)).unwrap();
    Simulation::new(&module)
        .dt(FLEET_DT)
        .output("V(out)")
        .compile()
        .unwrap()
}

/// Even devices ride a slow square wave that crosses the monitor
/// firmware's 0.5 V threshold (so the UART stream is non-trivial); odd
/// devices get seeded piecewise-constant waves.
fn fleet_devices() -> Vec<DeviceScenario> {
    (0..FLEET_DEVICES)
        .map(|d| {
            if d % 2 == 0 {
                DeviceScenario::new(
                    format!("dev{d}"),
                    SquareWave {
                        period: 200.0 * FLEET_DT,
                        high: 1.0,
                        low: 0.0,
                    },
                    FLEET_STEPS,
                )
            } else {
                DeviceScenario::new(
                    format!("dev{d}"),
                    PiecewiseConstant::seeded(d as u64 + 1, 5, 25.0 * FLEET_DT, 0.0, 1.0),
                    FLEET_STEPS,
                )
            }
        })
        .collect()
}

/// One fleet run's comparable payload: per device, the waveform bit
/// patterns and the UART bytes the firmware emitted.
fn fleet_payload(workers: usize, lane_width: usize) -> Vec<(Vec<u64>, Vec<u8>)> {
    let model = fleet_model();
    let config = FleetConfig::new(Firmware::from(monitor_firmware()))
        .workers(workers)
        .lane_width(lane_width);
    let out = run_fleet(&model, &config, &fleet_devices()).unwrap();
    out.devices
        .iter()
        .enumerate()
        .map(|(d, r)| {
            let run = r.ok().unwrap_or_else(|| panic!("fleet device {d} faulted"));
            (
                run.waveform.iter().map(|v| v.to_bits()).collect(),
                run.report.uart.clone(),
            )
        })
        .collect()
}

fn render_fleet_golden(payload: &[(Vec<u64>, Vec<u8>)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"circuit\": \"{FLEET_LABEL}\",");
    let _ = writeln!(s, "  \"dt_bits\": \"{:016x}\",", FLEET_DT.to_bits());
    let _ = writeln!(s, "  \"steps\": {FLEET_STEPS},");
    let _ = writeln!(s, "  \"devices\": [");
    for (d, (wave, uart)) in payload.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"device\": {d},");
        let uart_hex: String = uart.iter().map(|b| format!("{b:02x}")).collect();
        let _ = writeln!(s, "      \"uart_hex\": \"{uart_hex}\",");
        let _ = writeln!(s, "      \"waveform_bits\": [");
        for (k, bits) in wave.iter().enumerate() {
            let comma = if k + 1 < wave.len() { "," } else { "" };
            let _ = writeln!(s, "        \"{bits:016x}\"{comma}");
        }
        let _ = writeln!(s, "      ]");
        let comma = if d + 1 < payload.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Companion to [`parse_golden`] for the fleet fixture: one UART byte
/// string per `"uart_hex"` field (possibly empty).
fn parse_fleet_uart(text: &str) -> Vec<Vec<u8>> {
    text.split("\"uart_hex\"")
        .skip(1)
        .map(|chunk| {
            let hex = chunk.split('"').nth(1).unwrap_or("");
            hex.as_bytes()
                .chunks(2)
                .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
                .collect()
        })
        .collect()
}

#[test]
fn fleet_reproduces_the_golden_corpus() {
    let bless = std::env::var("BLESS_GOLDEN").is_ok_and(|v| v == "1");
    let reference = fleet_payload(1, 1);
    let path = golden_path(FLEET_LABEL);
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render_fleet_golden(&reference)).unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: golden file missing ({e}); generate the corpus with \
             BLESS_GOLDEN=1 cargo test --test golden_waveforms",
            path.display()
        )
    });
    let golden_waves = parse_golden(&text);
    let golden_uart = parse_fleet_uart(&text);
    assert_eq!(golden_waves.len(), FLEET_DEVICES, "corpus shape");
    assert_eq!(golden_uart.len(), FLEET_DEVICES, "corpus shape");
    // At least one device must exercise the UART path, or the fixture
    // pins nothing about the digital half.
    assert!(
        golden_uart.iter().any(|u| !u.is_empty()),
        "FLEET8 fixture carries no UART traffic"
    );

    for workers in WORKER_COUNTS {
        for lane_width in FLEET_LANE_WIDTHS {
            let payload = fleet_payload(workers, lane_width);
            let mode = format!("fleet/w{workers}/l{lane_width}");
            let waves: Vec<Vec<u64>> = payload.iter().map(|(w, _)| w.clone()).collect();
            assert_waves_eq(FLEET_LABEL, &mode, &waves, &golden_waves);
            for (d, (_, uart)) in payload.iter().enumerate() {
                assert_eq!(
                    uart, &golden_uart[d],
                    "{FLEET_LABEL}/{mode}: device {d} UART stream drifted from the corpus"
                );
            }
        }
    }
}

#[test]
fn fleet_golden_file_is_well_formed() {
    let path = golden_path(FLEET_LABEL);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: unreadable golden file: {e}", path.display()));
    assert!(
        text.contains(&format!("\"circuit\": \"{FLEET_LABEL}\"")),
        "{}: circuit label missing",
        path.display()
    );
    assert!(
        text.contains(&format!("\"dt_bits\": \"{:016x}\"", FLEET_DT.to_bits())),
        "{}: dt drifted from the corpus",
        path.display()
    );
    let waves = parse_golden(&text);
    assert_eq!(waves.len(), FLEET_DEVICES, "{}", path.display());
    for (d, w) in waves.iter().enumerate() {
        assert_eq!(w.len(), FLEET_STEPS, "{}: device {d}", path.display());
    }
    assert_eq!(parse_fleet_uart(&text).len(), FLEET_DEVICES);
}

/// A fixture must watch a signal that moves: over its scenarios, `V(out)`
/// swings by at least this fraction of the stimulus bound `hi`. Below it
/// the file pins rounding noise, and a re-bless judges nothing.
const MIN_SWING: f64 = 1e-3;

#[test]
fn golden_fixtures_watch_a_moving_signal() {
    for c in corpus() {
        let path = golden_path(c.label);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: unreadable golden file: {e}", path.display()));
        let (lo, hi) = parse_golden(&text)
            .iter()
            .flatten()
            .map(|&bits| f64::from_bits(bits))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        let swing = hi - lo;
        assert!(
            swing >= MIN_SWING * c.hi,
            "{}: V(out) swings {swing:.3e} V over its scenarios, below {MIN_SWING:.0e} of \
             the {} V stimulus bound; pick a dt at which V(out) responds within {STEPS} steps",
            c.label,
            c.hi
        );
    }
}

#[test]
fn golden_corpus_files_are_well_formed() {
    // Independent of simulation: the six files exist, parse, and carry
    // the expected shape — so corpus corruption is reported as such
    // rather than as a waveform mismatch.
    for c in corpus() {
        let path = golden_path(c.label);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: unreadable golden file: {e}", path.display()));
        assert!(
            text.contains(&format!("\"circuit\": \"{}\"", c.label)),
            "{}: circuit label missing",
            path.display()
        );
        assert!(
            text.contains(&format!("\"dt_bits\": \"{:016x}\"", c.dt.to_bits())),
            "{}: dt drifted from the corpus",
            path.display()
        );
        let waves = parse_golden(&text);
        assert_eq!(waves.len(), N_SCENARIOS, "{}", path.display());
        for (i, w) in waves.iter().enumerate() {
            assert_eq!(w.len(), STEPS, "{}: scenario {i}", path.display());
        }
    }
}
