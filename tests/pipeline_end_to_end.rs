//! End-to-end integration tests: Verilog-AMS source in, validated
//! simulation behaviour and generated code out.

use amsvp_core::{circuits, codegen, Abstraction};

#[test]
fn rc_step_response_matches_analytic_solution() {
    let module = vams_parser::parse_module(&circuits::rc_ladder(1)).unwrap();
    let tau = 5e3 * 25e-9;
    let dt = tau / 1000.0;
    let mut model = Abstraction::new(&module).dt(dt).build().unwrap();
    // Charge for exactly 2τ and compare against 1 − e^{−t/τ} at several
    // checkpoints.
    for k in 1..=2000 {
        model.step(&[1.0]);
        if k % 500 == 0 {
            let t = k as f64 * dt;
            let analytic = 1.0 - (-t / tau).exp();
            assert!(
                (model.output(0) - analytic).abs() < 2e-3,
                "at t = {t}: {} vs {analytic}",
                model.output(0)
            );
        }
    }
}

#[test]
fn opamp_tracks_minus_four_times_input() {
    let module = vams_parser::parse_module(&circuits::opamp()).unwrap();
    let mut model = Abstraction::new(&module).dt(50e-9).build().unwrap();
    // Settle at +0.5 V, then at −0.25 V.
    for _ in 0..100_000 {
        model.step(&[0.5]);
    }
    assert!((model.output(0) + 2.0).abs() < 5e-3);
    for _ in 0..100_000 {
        model.step(&[-0.25]);
    }
    assert!((model.output(0) - 1.0).abs() < 5e-3);
}

#[test]
fn two_inputs_superposition_holds() {
    let module = vams_parser::parse_module(&circuits::two_inputs()).unwrap();
    let build = || Abstraction::new(&module).dt(1e-6).build().unwrap();
    let mut both = build();
    let mut only1 = build();
    let mut only2 = build();
    for _ in 0..10 {
        both.step(&[0.3, -0.8]);
        only1.step(&[0.3, 0.0]);
        only2.step(&[0.0, -0.8]);
    }
    // Linear circuit ⇒ superposition to solver precision.
    assert!(
        (both.output(0) - (only1.output(0) + only2.output(0))).abs() < 1e-9,
        "{} vs {} + {}",
        both.output(0),
        only1.output(0),
        only2.output(0)
    );
}

#[test]
fn generated_cpp_for_rc1_is_golden() {
    let module = vams_parser::parse_module(&circuits::rc_ladder(1)).unwrap();
    let model = Abstraction::new(&module)
        .dt(50e-9)
        .output("V(out)")
        .build()
        .unwrap();
    let cpp = codegen::cpp::generate(&model);
    let expected = "\
// Generated by amsvp: abstracted signal-flow model of `rc1`.
// Discretization time step: 5e-8 s (backward Euler).
#include <cmath>

class rc1_model {
public:
    double v_node_out = 0.0;
    double v_node_out_p1 = 0.0;
    double in_in = 0.0;

    double step(double in_in_sample) {
        in_in = in_in_sample;
        v_node_out = ((9.996001599360256e-1 * v_node_out_p1) + (3.9984006397441024e-4 * in_in));
        v_node_out_p1 = v_node_out;
        return v_node_out;
    }
};
";
    assert_eq!(cpp, expected, "golden C++ for RC1 changed:\n{cpp}");
}

#[test]
fn all_three_backends_emit_for_every_paper_circuit() {
    for (label, source, _) in circuits::paper_benchmarks() {
        let module = vams_parser::parse_module(&source).unwrap();
        let model = Abstraction::new(&module)
            .dt(50e-9)
            .output("V(out)")
            .build()
            .unwrap();
        for (kind, text) in [
            ("cpp", codegen::cpp::generate(&model)),
            ("systemc_de", codegen::systemc_de::generate(&model)),
            ("systemc_tdf", codegen::systemc_tdf::generate(&model)),
        ] {
            assert!(
                text.matches('{').count() == text.matches('}').count(),
                "{label}/{kind}: unbalanced braces"
            );
            assert!(text.len() > 200, "{label}/{kind}: suspiciously short");
        }
    }
}

#[test]
fn figure2_active_filter_clamps_through_full_pipeline() {
    let source = include_str!("../crates/vams-parser/tests/fixtures/active_filter.va");
    let module = vams_parser::parse_module(source).unwrap();
    let mut model = Abstraction::new(&module)
        .dt(50e-9)
        .output("V(out)")
        .build()
        .unwrap();
    // Strong positive input drives the inverting filter into the negative
    // rail; the signal-flow clamp holds it at −vmax.
    for _ in 0..400_000 {
        model.step(&[1.0]);
    }
    assert!(
        (model.output(0) + 2.5).abs() < 1e-6,
        "clamped at −2.5 V, got {}",
        model.output(0)
    );
    // Small input stays in the linear region: gain ≈ −R2/R1 = −4.
    model.reset();
    for _ in 0..400_000 {
        model.step(&[0.1]);
    }
    assert!(
        (model.output(0) + 0.4).abs() < 5e-3,
        "linear region gain −4, got {}",
        model.output(0)
    );
}

#[test]
fn rl_circuit_ddt_on_current_abstracts() {
    // The inductor law differentiates a *current* — exercises derivative
    // resolution on flow quantities: V(l) = L·di/dt.
    let src = "module rl(in, out);
        input in; output out;
        electrical in, out, gnd; ground gnd;
        branch (in, out) r;
        branch (out, gnd) l;
        analog begin
          V(r) <+ 100 * I(r);
          V(l) <+ 1m * ddt(I(l));
        end
      endmodule";
    let module = vams_parser::parse_module(src).unwrap();
    let tau = 1e-3 / 100.0; // L/R = 10 µs
    let dt = tau / 200.0;
    let mut m = amsvp_core::Abstraction::new(&module)
        .dt(dt)
        .output("V(out)")
        .build()
        .unwrap();
    // For a 1 V step, the inductor voltage decays as e^{−t/τ}.
    for k in 1..=400 {
        m.step(&[1.0]);
        if k % 100 == 0 {
            let t = k as f64 * dt;
            let expect = (-t / tau).exp();
            assert!(
                (m.output(0) - expect).abs() < 3e-3,
                "inductor voltage at t = {t}: {} vs {expect}",
                m.output(0)
            );
        }
    }
}

#[test]
fn multiple_outputs_stay_consistent() {
    let module = vams_parser::parse_module(&circuits::rc_ladder(2)).unwrap();
    let mut model = Abstraction::new(&module)
        .dt(1e-6)
        .output("V(out)")
        .output("V(n1)")
        .output("I(r0)")
        .build()
        .unwrap();
    for _ in 0..50 {
        model.step(&[1.0]);
    }
    let (out, n1, ir0) = (model.output(0), model.output(1), model.output(2));
    // The ladder divides monotonically while charging.
    assert!(n1 > out && out > 0.0, "monotone ladder: {n1} vs {out}");
    // Ohm's law on the first resistor connects the observables.
    assert!(
        (ir0 - (1.0 - n1) / 5e3).abs() < 1e-9,
        "I(r0) consistent with V(n1)"
    );
}

/// The Table I harness, run at a small size with a recording collector,
/// feeds every counter the benchmarks are graded on: a harness change
/// that stops reporting to its collector fails here.
#[test]
fn table1_harness_reports_every_graded_counter() {
    let obs = obs::Obs::recording();
    // 20 µs at Δt = 50 ns: 400 steps per circuit and level.
    let rows = amsvp::bench::table1_rows_with(20e-6, 400, &obs);
    assert!(!rows.is_empty(), "Table I produced no rows");

    let report = obs.report().expect("recording collector reports");
    for name in [
        "amsim.newton_iterations",
        "amsim.steps",
        "amsim.jacobian.builds",
        "amsim.lu.factorizations",
        "amsim.jacobian.reuse_hits",
        "eln.steps",
    ] {
        assert!(report.counter(name) > 0, "counter `{name}` missing or zero");
    }
    assert!(
        report.counter("amsim.lu.factorizations") <= report.counter("amsim.newton_iterations"),
        "more LU factorizations than Newton iterations"
    );
}
