//! CI smoke check for the sparse factorization backend — the headline
//! benchmark of the `Factorization` seam.
//!
//! Runs the paper-scale RC500 ladder (2500 unknowns) through a 0.5 ms
//! transient at the nominal 1 µs step on both backends and asserts that
//!
//! * `SolverKind::Auto` resolves to Sparse for RC500 and RC20 and to
//!   Dense for RC1, whose L+U fills half its dense square (the fill
//!   rule);
//! * the sparse transient is at least `MIN_SPEEDUP`× faster than the
//!   dense one (the dense per-step cost is an O(n²) triangular solve;
//!   sparse is O(nnz + fill), near-linear on a ladder);
//! * the two waveforms agree to NRMSE ≤ `MAX_NRMSE` — the backend is an
//!   implementation detail, not a model change;
//! * solver-behavior counters (`amsim.steps`, `amsim.newton_iterations`,
//!   `amsim.lu.factorizations`) are conserved across backends;
//! * the `linalg.sparse.{analyze,refactor,fill}` counters are live: one
//!   frozen symbolic analysis per compile with nonzero fill, and (on a
//!   nonlinear circuit that rebuilds its Jacobian) one pattern-reusing
//!   refactor per factorization;
//! * sparse per-step cost scales near-linearly: RC500 costs at most
//!   `MAX_STEP_RATIO`× RC20 per step, against a 25× size ratio;
//! * the ordering keeps the ladder near-banded: RC500's L+U fill is at
//!   most `MAX_FILL_PER_UNKNOWN` entries per unknown (the row matching
//!   before the minimum-degree order is what holds it there).
//!
//! Writes the merged report as `BENCH_sparse_smoke.json`. Exits nonzero on any
//! violation.

use amsim::{Simulation, SolverKind, StepControl};
use amsvp_core::circuits::{diode_clamp, rc_ladder, PiecewiseConstant};
use obs::{Obs, Report};
use std::time::Instant;

const STEPS: usize = 500;
const DT: f64 = 1e-6;
const MIN_SPEEDUP: f64 = 20.0;
const MAX_NRMSE: f64 = 1e-12;
/// RC500/RC20 sparse per-step ceiling. The size ratio is 25×; the bound
/// leaves ~3× for cache-hierarchy drift in the residual/Jacobian
/// bytecode evaluation, which dominates the sparse per-step cost.
const MAX_STEP_RATIO: f64 = 80.0;
/// RC500 L+U fill ceiling per unknown. The row-matched minimum-degree
/// order gives 3.9; ordering `A + Aᵀ` directly, without the matching, gives 14.5.
const MAX_FILL_PER_UNKNOWN: f64 = 6.0;

struct TransientRun {
    dim: usize,
    wave: Vec<f64>,
    secs: f64,
    report: Report,
}

/// Compile `source` with a forced backend and run the transient,
/// capturing compile- and run-time counters in one report.
fn transient(
    source: &str,
    kind: SolverKind,
    output: &str,
    steps: usize,
    dt: f64,
    ctrl: Option<StepControl>,
) -> TransientRun {
    let obs = Obs::recording();
    let module = vams_parser::parse_module(source).expect("benchmark circuit parses");
    let model = Simulation::new(&module)
        .dt(dt)
        .output(output)
        .solver(kind)
        .collector(obs.clone())
        .compile()
        .expect("benchmark circuit compiles");
    assert_eq!(model.solver_kind(), kind, "forced backend not honored");
    let stim = PiecewiseConstant::seeded(1, 8, 100.0 * dt, 0.0, 1.0);
    let mut inst = model
        .instance_builder()
        .collector(obs.clone())
        .step_control(ctrl)
        .build()
        .expect("instance builds");
    let t0 = Instant::now();
    let wave: Vec<f64> = (0..steps)
        .map(|k| {
            inst.try_step(&[stim.value(k as f64 * dt)])
                .expect("step succeeds");
            inst.output(0)
        })
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    inst.flush_counters();
    TransientRun {
        dim: model.dim(),
        wave,
        secs,
        report: obs.report().expect("recording collector reports"),
    }
}

/// NRMSE with absolute-RMSE fallback for flat signals, matching the
/// differential test battery.
fn nrmse(a: &[f64], b: &[f64]) -> f64 {
    let mut sum_sq = 0.0;
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (&x, &y) in a.iter().zip(b) {
        sum_sq += (x - y) * (x - y);
        lo = lo.min(x.min(y));
        hi = hi.max(x.max(y));
    }
    let rmse = (sum_sq / a.len() as f64).sqrt();
    let range = hi - lo;
    if range > 1e-12 {
        rmse / range
    } else {
        rmse
    }
}

fn resolved_kind(source: &str) -> SolverKind {
    let module = vams_parser::parse_module(source).expect("circuit parses");
    Simulation::new(&module)
        .dt(DT)
        .output("V(out)")
        .compile()
        .expect("circuit compiles")
        .solver_kind()
}

fn main() {
    let mut failures = Vec::new();

    // The fill rule across the size spectrum.
    let rc500_src = rc_ladder(500);
    for (label, source, want) in [
        ("RC500", &rc500_src, SolverKind::Sparse),
        ("RC20", &rc_ladder(20), SolverKind::Sparse),
        ("RC1", &rc_ladder(1), SolverKind::Dense),
    ] {
        let got = resolved_kind(source);
        if got != want {
            failures.push(format!("Auto resolved {label} to {got:?}, want {want:?}"));
        }
    }

    // RC500 transient, both backends. `V(n3)` near the driven end
    // responds within the 0.5 ms window, so the NRMSE is not vacuous.
    let sparse = transient(&rc500_src, SolverKind::Sparse, "V(n3)", STEPS, DT, None);
    let dense = transient(&rc500_src, SolverKind::Dense, "V(n3)", STEPS, DT, None);
    let speedup = dense.secs / sparse.secs;
    if speedup < MIN_SPEEDUP {
        failures.push(format!(
            "RC500 sparse speedup {speedup:.1}x below the {MIN_SPEEDUP}x floor \
             (dense {:.3}s vs sparse {:.3}s over {STEPS} steps)",
            dense.secs, sparse.secs
        ));
    }
    let err = nrmse(&dense.wave, &sparse.wave);
    if err > MAX_NRMSE {
        failures.push(format!(
            "RC500 dense vs sparse NRMSE {err:.3e} exceeds {MAX_NRMSE:.0e}"
        ));
    }
    for c in [
        "amsim.steps",
        "amsim.newton_iterations",
        "amsim.lu.factorizations",
    ] {
        if dense.report.counter(c) != sparse.report.counter(c) {
            failures.push(format!(
                "counter `{c}` not conserved: dense {} vs sparse {}",
                dense.report.counter(c),
                sparse.report.counter(c)
            ));
        }
    }
    if sparse.report.counter("linalg.sparse.analyze") != 1 {
        failures.push(format!(
            "counter `linalg.sparse.analyze` is {}, want exactly 1 (one frozen \
             symbolic analysis per compile)",
            sparse.report.counter("linalg.sparse.analyze")
        ));
    }
    let fill_per_unknown = sparse.report.counter("linalg.sparse.fill") as f64 / sparse.dim as f64;
    if fill_per_unknown == 0.0 {
        failures.push("counter `linalg.sparse.fill` is 0; factor storage unaccounted".into());
    }
    if fill_per_unknown > MAX_FILL_PER_UNKNOWN {
        failures.push(format!(
            "RC500 L+U fill {fill_per_unknown:.1} per unknown exceeds \
             {MAX_FILL_PER_UNKNOWN} (the ladder is banded; the ordering lost it)"
        ));
    }
    if dense.report.counter("linalg.sparse.analyze") != 0 {
        failures.push("dense backend reported `linalg.sparse.analyze`".into());
    }

    // Refactor liveness: the stiff diode clamp under adaptive stepping
    // changes dt on retries, so the run must drive nonzero pattern-reusing
    // refactorizations, bounded by the factorization attempts (failed
    // attempts — NaN pivots at aggressive dt, answered by retry — count
    // as attempts, not as completed refactors; the linear-ladder sweep
    // tests pin the exact attempt/refactor identity).
    let dio = transient(
        &diode_clamp(),
        SolverKind::Sparse,
        "V(out)",
        60,
        1e-4,
        Some(StepControl::new(1e-9).max_retries(20)),
    );
    let refactors = dio.report.counter("linalg.sparse.refactor");
    let factorizations = dio.report.counter("amsim.lu.factorizations");
    if refactors == 0 || refactors > factorizations {
        failures.push(format!(
            "diode clamp refactor counter {refactors} (want nonzero and at most \
             amsim.lu.factorizations {factorizations})"
        ));
    }

    // Near-linear step-cost scaling: RC20 on the same forced-sparse path.
    let rc20 = transient(&rc_ladder(20), SolverKind::Sparse, "V(n3)", STEPS, DT, None);
    let per_step_ratio = sparse.secs / rc20.secs;
    if per_step_ratio > MAX_STEP_RATIO {
        failures.push(format!(
            "RC500/RC20 sparse per-step ratio {per_step_ratio:.1}x exceeds \
             {MAX_STEP_RATIO}x (size ratio is 25x; step cost must stay near-linear)"
        ));
    }

    let bench_obs = Obs::recording();
    bench_obs.add("bench.sparse.steps", STEPS as u64);
    bench_obs.add("bench.sparse.speedup_x100", (speedup * 100.0) as u64);
    bench_obs.add(
        "bench.sparse.step_ratio_x100",
        (per_step_ratio * 100.0) as u64,
    );
    let mut report = bench_obs.report().expect("recording collector reports");
    report.merge(&sparse.report);
    report.merge(&dio.report);
    report
        .write_json("BENCH_sparse_smoke.json")
        .expect("BENCH_sparse_smoke.json is writable");

    println!("sparse_smoke: RC500 transient, {STEPS} steps at dt {DT:.0e}");
    println!("  dense    {:>8.3} s", dense.secs);
    println!("  sparse   {:>8.3} s  ({speedup:.1}x)", sparse.secs);
    println!("  RC500/RC20 per-step ratio {per_step_ratio:.1}x (size ratio 25x)");
    println!(
        "  sparse counters: analyze {} refactor {} fill {} ({fill_per_unknown:.1} per unknown)",
        sparse.report.counter("linalg.sparse.analyze"),
        dio.report.counter("linalg.sparse.refactor"),
        sparse.report.counter("linalg.sparse.fill"),
    );

    if failures.is_empty() {
        println!("sparse_smoke: OK");
    } else {
        for f in &failures {
            eprintln!("sparse_smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
