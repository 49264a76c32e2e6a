//! Differential battery across simulation substrates.
//!
//! Every Table 1 circuit is driven with the *same* seeded-random
//! piecewise-constant stimulus on five substrates:
//!
//! * `sfm` — the abstracted [`amsvp_core::SignalFlowModel`] stepped in a
//!   plain loop (the exact semantics of the generated C++ class, which
//!   `tests/generated_cpp_compiles.rs` proves sample-identical);
//! * `de`  — the same model wrapped in a DE process inside the kernel;
//! * `tdf` — the same model inside a statically scheduled TDF cluster;
//! * `eln` — the hand-built electrical-linear-network MNA solver;
//! * `ams` — the conservative Verilog-AMS reference simulator.
//!
//! The first three share the model recurrence and must agree to rounding
//! (NRMSE ≤ 1e-12: only scheduling differs, not arithmetic). The last two
//! are independent implementations sharing only the backward-Euler
//! discretization, so they must agree to solver tolerance (NRMSE ≤ 1e-5).

use amsim::{Simulation, SolverKind};
use amsvp_core::circuits::{
    diode_clamp, opamp, paper_benchmarks, rc_ladder, two_inputs, PiecewiseConstant,
};
use amsvp_core::Abstraction;
use de::{Kernel, SimTime};
use eln::{ElnNetwork, Method, NodeId, SourceId, Transient};
use vp::{new_bridge, opamp_eln, rc_ladder_eln, two_inputs_eln, CompiledAnalog};

const STEPS: usize = 2500;

/// Per-circuit time step: the paper's 50 ns for the fast circuits, and a
/// coarser step for RC20 (τ/6 per stage; every substrate shares it), whose
/// 20-stage delay line barely responds within 2500 × 50 ns.
fn dt_for(label: &str) -> f64 {
    if label == "RC20" {
        20e-6
    } else {
        50e-9
    }
}

/// Root-mean-square error normalized by the value range of both
/// waveforms (falls back to absolute RMSE for all-flat signals).
fn nrmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "waveform lengths differ");
    assert!(!a.is_empty());
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

fn stim_for(circuit_index: usize, dt: f64) -> PiecewiseConstant {
    // 160 steps per level: long enough for the stiff opamp to settle,
    // short enough to exercise many transitions per run.
    PiecewiseConstant::seeded(0xC0FFEE + circuit_index as u64, 12, 160.0 * dt, -0.5, 1.0)
}

fn sfm_waveform(
    source: &str,
    n_inputs: usize,
    dt: f64,
    steps: usize,
    stim: &PiecewiseConstant,
) -> Vec<f64> {
    let module = vams_parser::parse_module(source).unwrap();
    let mut model = Abstraction::new(&module)
        .dt(dt)
        .output("V(out)")
        .build()
        .unwrap();
    let mut buf = vec![0.0; n_inputs];
    (0..steps)
        .map(|k| {
            let u = stim.value(k as f64 * dt);
            buf.iter_mut().for_each(|v| *v = u);
            model.step(&buf);
            model.output(0)
        })
        .collect()
}

fn de_waveform(source: &str, dt: f64, stim: &PiecewiseConstant) -> Vec<f64> {
    let module = vams_parser::parse_module(source).unwrap();
    let model = Abstraction::new(&module)
        .dt(dt)
        .output("V(out)")
        .build()
        .unwrap();
    let bridge = new_bridge();
    let mut kernel = Kernel::new();
    kernel.register(CompiledAnalog::new(model, bridge.clone(), stim.clone()));
    (0..STEPS)
        .map(|k| {
            // Half a step past activation k: the event at k·dt has fired,
            // the one at (k+1)·dt has not.
            kernel
                .run_until(SimTime::from_seconds((k as f64 + 0.5) * dt))
                .unwrap();
            bridge.borrow().aout
        })
        .collect()
}

fn tdf_waveform(source: &str, dt: f64, stim: &PiecewiseConstant) -> Vec<f64> {
    let module = vams_parser::parse_module(source).unwrap();
    let model = Abstraction::new(&module)
        .dt(dt)
        .output("V(out)")
        .build()
        .unwrap();
    let bridge = new_bridge();
    let mut exec = vp::build_tdf_cluster(model, bridge.clone(), stim.clone()).unwrap();
    (0..STEPS)
        .map(|_| {
            exec.run_iteration();
            bridge.borrow().aout
        })
        .collect()
}

fn eln_waveform(
    net: &ElnNetwork,
    sources: &[SourceId],
    out: NodeId,
    dt: f64,
    stim: &PiecewiseConstant,
) -> Vec<f64> {
    let mut solver = Transient::new(net)
        .dt(dt)
        .method(Method::BackwardEuler)
        .build()
        .unwrap();
    (0..STEPS)
        .map(|k| {
            let u = stim.value(k as f64 * dt);
            for &s in sources {
                solver.set_source(s, u);
            }
            solver.try_step().unwrap();
            solver.node_voltage(out)
        })
        .collect()
}

fn ams_waveform(source: &str, n_inputs: usize, dt: f64, stim: &PiecewiseConstant) -> Vec<f64> {
    let module = vams_parser::parse_module(source).unwrap();
    let mut sim = Simulation::new(&module)
        .dt(dt)
        .output("V(out)")
        .build()
        .unwrap();
    let mut buf = vec![0.0; n_inputs];
    (0..STEPS)
        .map(|k| {
            let u = stim.value(k as f64 * dt);
            buf.iter_mut().for_each(|v| *v = u);
            sim.step(&buf);
            sim.output(0)
        })
        .collect()
}

#[test]
fn substrates_agree_pairwise_on_table1_circuits() {
    type Fixture = (ElnNetwork, Vec<SourceId>, NodeId);
    let eln_fixtures: Vec<(&str, Fixture)> = {
        let (n2, s2, o2) = two_inputs_eln();
        let (nr1, sr1, or1) = rc_ladder_eln(1);
        let (nr20, sr20, or20) = rc_ladder_eln(20);
        let (noa, soa, ooa) = opamp_eln();
        vec![
            ("2IN", (n2, s2, o2)),
            ("RC1", (nr1, vec![sr1], or1)),
            ("RC20", (nr20, vec![sr20], or20)),
            ("OA", (noa, vec![soa], ooa)),
        ]
    };

    for (i, ((label, source, n_inputs), (elabel, (net, srcs, out)))) in
        paper_benchmarks().into_iter().zip(eln_fixtures).enumerate()
    {
        assert_eq!(label, elabel, "fixture order must match Table 1");
        let dt = dt_for(label);
        let stim = stim_for(i, dt);

        let waves = [
            ("sfm", sfm_waveform(&source, n_inputs, dt, STEPS, &stim)),
            ("de", de_waveform(&source, dt, &stim)),
            ("tdf", tdf_waveform(&source, dt, &stim)),
            ("eln", eln_waveform(&net, &srcs, out, dt, &stim)),
            ("ams", ams_waveform(&source, n_inputs, dt, &stim)),
        ];

        // The model-sharing substrates differ only in scheduling.
        const EXACT: f64 = 1e-12;
        // Independent solvers share only the discretization scheme.
        const CROSS: f64 = 1e-5;
        let family = |name: &str| matches!(name, "sfm" | "de" | "tdf");

        for (ai, (an, aw)) in waves.iter().enumerate() {
            for (bn, bw) in waves.iter().skip(ai + 1) {
                let tol = if family(an) && family(bn) {
                    EXACT
                } else {
                    CROSS
                };
                let err = nrmse(aw, bw);
                assert!(
                    err <= tol,
                    "{label}: {an} vs {bn} NRMSE {err:.3e} exceeds {tol:.0e}"
                );
            }
        }

        // Sanity: the random stimulus actually moved the circuit.
        let (lo, hi) = waves[0]
            .1
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        assert!(
            hi - lo > 0.1,
            "{label}: stimulus produced a nearly flat response ({lo}..{hi})"
        );
    }
}

/// Run the conservative AMS simulator with an explicit factorization
/// backend, returning the waveform and the backend the compile actually
/// selected.
fn ams_waveform_with(
    source: &str,
    n_inputs: usize,
    dt: f64,
    steps: usize,
    output: &str,
    stim: &PiecewiseConstant,
    kind: SolverKind,
) -> (Vec<f64>, SolverKind) {
    let module = vams_parser::parse_module(source).unwrap();
    let model = Simulation::new(&module)
        .dt(dt)
        .output(output)
        .solver(kind)
        .compile()
        .unwrap();
    let mut inst = model.instance();
    let mut buf = vec![0.0; n_inputs];
    let wave = (0..steps)
        .map(|k| {
            let u = stim.value(k as f64 * dt);
            buf.iter_mut().for_each(|v| *v = u);
            inst.try_step(&buf).unwrap();
            inst.output(0)
        })
        .collect();
    (wave, model.solver_kind())
}

/// The AMS simulator must produce the same waveform (to rounding) no
/// matter which factorization backend solves its Newton systems: dense
/// Gaussian elimination and the sparse pattern-reusing LU differ only in
/// elimination order, never in the system being solved.
#[test]
fn factorization_backends_agree_on_table1_circuits() {
    const EXACT: f64 = 1e-12;
    for (i, (label, source, n_inputs)) in paper_benchmarks().into_iter().enumerate() {
        let dt = dt_for(label);
        let stim = stim_for(i, dt);
        let (dense, dk) = ams_waveform_with(
            &source,
            n_inputs,
            dt,
            STEPS,
            "V(out)",
            &stim,
            SolverKind::Dense,
        );
        let (sparse, sk) = ams_waveform_with(
            &source,
            n_inputs,
            dt,
            STEPS,
            "V(out)",
            &stim,
            SolverKind::Sparse,
        );
        assert_eq!(dk, SolverKind::Dense, "{label}: forced Dense not honored");
        assert_eq!(sk, SolverKind::Sparse, "{label}: forced Sparse not honored");
        let err = nrmse(&dense, &sparse);
        assert!(
            err <= EXACT,
            "{label}: dense vs sparse backend NRMSE {err:.3e} exceeds {EXACT:.0e}"
        );
        // `Auto` is one of the forced paths, bit for bit: RC1's L+U fills
        // half its dense square and stays dense, OA's resolves sparse.
        let forced = match label {
            "RC1" => Some((SolverKind::Dense, &dense)),
            "OA" => Some((SolverKind::Sparse, &sparse)),
            _ => None,
        };
        if let Some((want, forced)) = forced {
            let (auto, ak) = ams_waveform_with(
                &source,
                n_inputs,
                dt,
                STEPS,
                "V(out)",
                &stim,
                SolverKind::Auto,
            );
            assert_eq!(ak, want, "{label}: Auto must resolve to {want:?}");
            let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&auto) == bits(forced),
                "{label}: Auto and {want:?} must be the same path bit for bit"
            );
        }
    }
}

/// `Auto` resolves each corpus circuit from the L+U fill of its
/// zero-state stamp: sparse when twice the fill is at most n². The table
/// is DESIGN.md §12's calibration table. A sparse resolution keeps its
/// trial as the one analysis; a dense one drops it and reports no
/// `linalg.sparse.*` counter, so each row's fill is also read from a
/// forced-sparse compile.
#[test]
fn auto_resolves_the_corpus_from_measured_fill() {
    let corpus = [
        ("RC1", rc_ladder(1), 5, 13, SolverKind::Dense),
        ("CLAMP", diode_clamp(), 7, 21, SolverKind::Sparse),
        ("2IN", two_inputs(), 10, 29, SolverKind::Sparse),
        ("OA", opamp(), 15, 51, SolverKind::Sparse),
        ("RC20", rc_ladder(20), 100, 377, SolverKind::Sparse),
        ("RC30", rc_ladder(30), 150, 577, SolverKind::Sparse),
    ];
    let compile = |source: &str, kind: SolverKind| {
        let module = vams_parser::parse_module(source).unwrap();
        let obs = obs::Obs::recording();
        let model = Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .solver(kind)
            .collector(obs.clone())
            .compile()
            .unwrap();
        (model, obs.report().unwrap())
    };
    for (label, source, n, fill, want) in corpus {
        let (model, report) = compile(&source, SolverKind::Auto);
        assert_eq!(model.dim(), n, "{label}: dimension");
        assert_eq!(model.solver_kind(), want, "{label}: Auto resolution");
        let kept = want == SolverKind::Sparse;
        assert_eq!(
            report.counter("linalg.sparse.analyze"),
            u64::from(kept),
            "{label}: analyses"
        );
        assert_eq!(
            report.counter("linalg.sparse.fill"),
            if kept { fill } else { 0 },
            "{label}: Auto's fill"
        );
        let (_, sparse) = compile(&source, SolverKind::Sparse);
        assert_eq!(sparse.counter("linalg.sparse.fill"), fill, "{label}: fill");
    }
}

/// When the zero-state Jacobian does not factor, compile still resolves
/// `Auto`, with the stamp's structural nonzero count standing in for the
/// fill. A chain of cubic conductors has no slope at zero volts, so its
/// middle node is undetermined there.
#[test]
fn auto_resolves_a_singular_zero_state_from_structure() {
    let src = "module cubic(in, out);
  input in; output out;
  parameter real G = 1m;
  electrical in, out, gnd;
  ground gnd;
  branch (in, out) g0;
  branch (out, gnd) g1;
  analog begin
    I(g0) <+ G * V(g0) * V(g0) * V(g0);
    I(g1) <+ G * V(g1) * V(g1) * V(g1);
  end
endmodule
";
    let module = vams_parser::parse_module(src).unwrap();
    let obs = obs::Obs::recording();
    let model = Simulation::new(&module)
        .dt(1e-6)
        .output("V(out)")
        .collector(obs.clone())
        .compile()
        .unwrap();
    let report = obs.report().unwrap();
    assert_eq!(
        report.counter("amsim.lu.factorizations"),
        0,
        "the zero-state stamp must not factor for this test to mean anything"
    );
    assert_eq!(report.counter("linalg.sparse.analyze"), 0);
    // Ten structural nonzeros in a 5×5 stamp: 2·10 ≤ 25.
    assert_eq!(model.dim(), 5);
    assert_eq!(model.solver_kind(), SolverKind::Sparse);
}

/// An oracle for both factorization backends that does not come from
/// another simulator: under backward Euler, RC1's `V(out)` follows
/// `v' = (v + a·u) / (1 + a)` with `a = Δt/RC` (R = 5 kΩ, C = 25 nF).
/// 1 000 steps of a seeded piecewise-constant input at each of three step
/// sizes, every sample within 1e-13 V of the recurrence.
#[test]
fn rc1_follows_the_exact_backward_euler_recurrence_on_both_backends() {
    const TOL: f64 = 1e-13;
    const RC: f64 = 5e3 * 25e-9;
    const STEPS: usize = 1000;
    let source = rc_ladder(1);
    for (seed, dt) in [(1, 50e-9), (2, 1e-6), (3, 20e-6)] {
        let stim = PiecewiseConstant::seeded(seed, 20, 50.0 * dt, -1.0, 1.0);
        let a = dt / RC;
        let mut v = 0.0;
        let exact: Vec<f64> = (0..STEPS)
            .map(|k| {
                v = (v + a * stim.value(k as f64 * dt)) / (1.0 + a);
                v
            })
            .collect();
        let (lo, hi) = exact
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        assert!(hi - lo > 1e-2, "dt {dt:e}: V(out) nearly flat ({lo}..{hi})");
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let (wave, _) = ams_waveform_with(&source, 1, dt, STEPS, "V(out)", &stim, kind);
            for (k, (got, want)) in wave.iter().zip(&exact).enumerate() {
                assert!(
                    (got - want).abs() <= TOL,
                    "{kind:?}, dt {dt:e}, step {k}: {got} vs exact {want} (|Δ| {:.2e})",
                    (got - want).abs()
                );
            }
        }
    }
}

/// The exact backward-Euler map of the RCn ladder's node voltages
/// (R = 5 kΩ, C = 25 nF): `(G + C/h)·v⁺ = C/h·v + e₁·u⁺/R`, where `G` is
/// tridiagonal with 2/R on the diagonal (1/R on the last node) and −1/R
/// beside it. Each step is solved by a Thomas elimination written out
/// here, so the oracle shares no code with the abstraction, the reference
/// simulator or `linalg`. Returns `V(out)` per step.
fn rc_ladder_backward_euler(n: usize, dt: f64, inputs: &[f64]) -> Vec<f64> {
    let g = 1.0 / 5e3;
    let c = 25e-9 / dt;
    let mut v = vec![0.0; n];
    let mut upper = vec![0.0; n];
    inputs
        .iter()
        .map(|&u| {
            // Forward sweep: v[i] + upper[i]·v[i+1] = rhs, stored in v.
            for i in 0..n {
                let mut pivot = c + if i + 1 < n { 2.0 * g } else { g };
                let mut rhs = c * v[i] + if i == 0 { g * u } else { 0.0 };
                if i > 0 {
                    pivot += g * upper[i - 1];
                    rhs += g * v[i - 1];
                }
                upper[i] = -g / pivot;
                v[i] = rhs / pivot;
            }
            for i in (0..n - 1).rev() {
                v[i] -= upper[i] * v[i + 1];
            }
            v[n - 1]
        })
        .collect()
}

fn span(wave: &[f64]) -> f64 {
    let (lo, hi) = wave
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    hi - lo
}

/// Abstracted ladders against their exact backward-Euler map, where
/// `V(out)` moves: RC2 and RC8 at 1 µs and RC20 at 20 µs, 2 000 steps of a
/// seeded piecewise-constant input each. Both the abstracted model and the
/// reference simulator stay within 1e-12 V of the map at every sample.
#[test]
fn abstracted_ladders_follow_the_exact_backward_euler_map() {
    const TOL: f64 = 1e-12;
    const STEPS: usize = 2000;
    for (seed, n, dt) in [(11, 2, 1e-6), (12, 8, 1e-6), (13, 20, 20e-6)] {
        let stim = PiecewiseConstant::seeded(seed, 8, 250.0 * dt, -1.0, 1.0);
        let inputs: Vec<f64> = (0..STEPS).map(|k| stim.value(k as f64 * dt)).collect();
        let exact = rc_ladder_backward_euler(n, dt, &inputs);
        assert!(
            span(&exact) >= 1e-3 * span(&inputs),
            "RC{n}, dt {dt:e}: V(out) swings only {:.2e} V",
            span(&exact)
        );
        let source = rc_ladder(n);
        let sfm = sfm_waveform(&source, 1, dt, STEPS, &stim);
        let (ams, _) = ams_waveform_with(&source, 1, dt, STEPS, "V(out)", &stim, SolverKind::Auto);
        for (k, want) in exact.iter().enumerate() {
            for (label, got) in [("abstracted", sfm[k]), ("amsim", ams[k])] {
                assert!(
                    (got - want).abs() <= TOL,
                    "RC{n} {label}, dt {dt:e}, step {k}: {got} vs exact {want} (|Δ| {:.2e})",
                    (got - want).abs()
                );
            }
        }
    }
}

/// RC20 at the paper's Δt = 50 ns: over 4 000 steps `V(out)` stays below
/// 3e-16 V, so the whole waveform lives in terms many orders of magnitude
/// below the input's. Dropping any of them shows here; NRMSE against the
/// exact map, normalized by the map's own swing, stays ≤ 1e-12.
#[test]
fn abstracted_rc20_keeps_its_exact_map_at_the_paper_step() {
    const DT: f64 = 50e-9;
    const STEPS: usize = 4000;
    let source = rc_ladder(20);
    for seed in [21, 22, 23] {
        let stim = PiecewiseConstant::seeded(seed, 12, 160.0 * DT, -0.5, 1.0);
        let inputs: Vec<f64> = (0..STEPS).map(|k| stim.value(k as f64 * DT)).collect();
        let exact = rc_ladder_backward_euler(20, DT, &inputs);
        let peak = exact.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        assert!(
            peak < 3e-16 && span(&exact) > 0.0,
            "seed {seed}: peak {peak:e}"
        );
        let sfm = sfm_waveform(&source, 1, DT, STEPS, &stim);
        let rmse = (sfm
            .iter()
            .zip(&exact)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / STEPS as f64)
            .sqrt();
        let e = rmse / span(&exact);
        assert!(
            e <= 1e-12,
            "seed {seed}: NRMSE {e:.3e} against the exact map"
        );
    }
}

/// DC gain: at Δt = 1 s, far above every time constant, 50 steps of a held
/// input leave each abstracted model at its DC operating point. The
/// ladders pass the input through; 2IN and OA settle at their finite-gain
/// (A₀ = 100k) solutions, solved here from the resistor values.
#[test]
fn abstracted_models_hold_their_dc_gain() {
    const DT: f64 = 1.0;
    const REL: f64 = 1e-9;
    let settle = |source: &str, inputs: &[f64]| {
        let module = vams_parser::parse_module(source).unwrap();
        let mut model = Abstraction::new(&module)
            .dt(DT)
            .output("V(out)")
            .build()
            .unwrap();
        for _ in 0..50 {
            model.step(inputs);
        }
        model.output(0)
    };
    let check = |label: &str, got: f64, want: f64| {
        assert!(
            (got - want).abs() <= REL * want.abs(),
            "{label}: V(out) {got} vs DC {want}"
        );
    };
    for n in [1, 8, 20] {
        check(&format!("RC{n}"), settle(&rc_ladder(n), &[0.73]), 0.73);
    }
    let a0 = 1e5;
    // 2IN: KCL at inm with V(out) = −A₀·V(inm).
    let (r1, r2, r3) = (3e3, 14e3, 10e3);
    let (u1, u2) = (0.7, -0.3);
    let vm = (u1 / r1 + u2 / r2) / (1.0 / r1 + 1.0 / r2 + (1.0 + a0) / r3);
    check("2IN", settle(&two_inputs(), &[u1, u2]), -a0 * vm);
    // OA: KCL at out (C1 open) gives V(out) = k·V(inm), with the source
    // node at −A₀·V(inm); KCL at inm then fixes V(inm).
    let (r1, r2, rin, rout) = (400.0, 1.6e3, 1e6, 20.0);
    let u = 0.5;
    let k = (1.0 / r2 - a0 / rout) / (1.0 / r2 + 1.0 / rout);
    let vm = (u / r1) / (1.0 / r1 + 1.0 / r2 + 1.0 / rin - k / r2);
    check("OA", settle(&opamp(), &[u]), k * vm);
}

/// Dense-vs-sparse differential on the RC ladder family, where the
/// sparse backend is the one `SolverKind::Auto` actually selects. The
/// release build runs the paper-scale RC500 (2500 unknowns); the debug
/// build substitutes an 80-stage ladder because the `Dense` leg factors a
/// 2500 × 2500 matrix, a cubic cost that dominates unoptimized runtime.
/// (The sparse leg's compile grows about 4× per doubling of the ladder,
/// from 9 ms at RC250 to 34 ms at RC500 in release, and also weighs on a
/// debug RC500.) `V(n3)` near the driven end responds well within the
/// window, making the comparison numerically meaningful.
#[test]
fn factorization_backends_agree_on_rc_ladder() {
    const EXACT: f64 = 1e-12;
    let stages = if cfg!(debug_assertions) { 80 } else { 500 };
    let steps = 400;
    let dt = 50e-6;
    let source = rc_ladder(stages);
    // Faster level switching than `stim_for`: 25 steps (1.25 ms) per level
    // so the 400-step window sees 16 levels and `V(n3)` swings visibly.
    let stim = PiecewiseConstant::seeded(0xC0FFEE + 7, 16, 25.0 * dt, -0.5, 1.0);
    let (dense, dk) = ams_waveform_with(&source, 1, dt, steps, "V(n3)", &stim, SolverKind::Dense);
    let (sparse, sk) = ams_waveform_with(&source, 1, dt, steps, "V(n3)", &stim, SolverKind::Auto);
    assert_eq!(
        dk,
        SolverKind::Dense,
        "RC{stages}: forced Dense not honored"
    );
    assert_eq!(
        sk,
        SolverKind::Sparse,
        "RC{stages}: Auto must resolve to Sparse"
    );
    let err = nrmse(&dense, &sparse);
    assert!(
        err <= EXACT,
        "RC{stages}: dense vs sparse backend NRMSE {err:.3e} exceeds {EXACT:.0e}"
    );
    // Sanity: the observed net actually moved.
    let (lo, hi) = dense
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    assert!(
        hi - lo > 0.1,
        "RC{stages}: V(n3) nearly flat ({lo}..{hi}); comparison is vacuous"
    );
}

/// The sparse column order is part of the numerics: it is the
/// minimum-degree order of the pattern after the row matching (maximum
/// transversal), so a different matching or a different minimum-degree
/// order changes the fill and the pivot sequence, hence every sparse
/// waveform bit. RC250's L+U fill (3.8 per unknown) pins the order, and
/// the compile reports one analysis plus its two phase timers.
#[test]
fn rc250_compile_pins_sparse_fill() {
    let module = vams_parser::parse_module(&rc_ladder(250)).unwrap();
    let obs = obs::Obs::recording();
    let model = Simulation::new(&module)
        .dt(1e-6)
        .output("V(n3)")
        .collector(obs.clone())
        .compile()
        .unwrap();
    assert_eq!(model.solver_kind(), SolverKind::Sparse);
    let report = obs.report().unwrap();
    assert_eq!(report.counter("linalg.sparse.fill"), 4_797);
    assert_eq!(report.counter("linalg.sparse.analyze"), 1);
    for phase in ["amsim.compile.lower", "amsim.compile.analyze"] {
        assert_eq!(report.timers[phase].count, 1, "{phase}");
    }
}

/// The ELN solver's backend seam: forced sparse and dense factorization
/// of the same MNA system agree to rounding under both integration
/// methods, and the copy-on-toggle switch path refactors correctly on
/// the sparse backend too.
#[test]
fn eln_backends_agree_on_rc_ladder() {
    const EXACT: f64 = 1e-12;
    let (net, src, out) = rc_ladder_eln(20);
    let dt = dt_for("RC20");
    let stim = stim_for(2, dt);
    for method in [Method::BackwardEuler, Method::Trapezoidal] {
        let mut waves = Vec::new();
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let compiled = Transient::new(&net)
                .dt(dt)
                .method(method)
                .solver(kind)
                .compile()
                .unwrap();
            assert_eq!(compiled.solver_kind(), kind, "forced backend not honored");
            let mut solver = compiled.instance();
            let wave: Vec<f64> = (0..STEPS)
                .map(|k| {
                    let u = stim.value(k as f64 * dt);
                    solver.set_source(src, u);
                    solver.try_step().unwrap();
                    solver.node_voltage(out)
                })
                .collect();
            waves.push(wave);
        }
        let err = nrmse(&waves[0], &waves[1]);
        assert!(
            err <= EXACT,
            "eln {method:?}: dense vs sparse NRMSE {err:.3e} exceeds {EXACT:.0e}"
        );
    }
}
