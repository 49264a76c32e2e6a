//! The paper's benchmark circuits (§V-A, Figure 8) as Verilog-AMS sources,
//! plus the square-wave stimulus used throughout the evaluation.
//!
//! Circuit parameters follow the paper exactly:
//!
//! * **RCn** — a cascade of `n` RC stages, R = 5 kΩ, C = 25 nF;
//! * **2IN** — the two-input summing amplifier of Figure 8(a),
//!   R1 = 3 kΩ, R2 = 14 kΩ, R3 = 10 kΩ;
//! * **OA** — the operational amplifier of Figure 8(b), R1 = 400 Ω,
//!   R2 = 1.6 kΩ, C1 = 40 nF, Rin = 1 MΩ, Rout = 20 Ω.
//!
//! The op-amp gain stage is modeled as a voltage-controlled voltage source
//! with open-loop gain `A₀ = 100k`, the conventional first-order macro
//! model; the paper does not print its internal schematic.

use std::fmt::Write as _;

/// Square-wave stimulus (the paper uses a 1 ms period over ±amplitude).
///
/// # Example
///
/// ```
/// use amsvp_core::circuits::SquareWave;
///
/// let sq = SquareWave::paper(); // 1 ms period, 0/1 V
/// assert_eq!(sq.value(0.0), 1.0);
/// assert_eq!(sq.value(0.6e-3), 0.0);
/// assert_eq!(sq.value(1.1e-3), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquareWave {
    /// Full period in seconds.
    pub period: f64,
    /// Level during the first half period.
    pub high: f64,
    /// Level during the second half period.
    pub low: f64,
}

impl SquareWave {
    /// The paper's stimulus: 1 ms period, toggling between 0 V and 1 V.
    pub fn paper() -> Self {
        SquareWave {
            period: 1e-3,
            high: 1.0,
            low: 0.0,
        }
    }

    /// Sample the wave at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        let phase = (t / self.period).rem_euclid(1.0);
        if phase < 0.5 {
            self.high
        } else {
            self.low
        }
    }

    /// Iterator over `n` samples spaced `dt` apart, starting at `t = 0`.
    pub fn samples(&self, dt: f64, n: usize) -> impl Iterator<Item = f64> + '_ {
        (0..n).map(move |i| self.value(i as f64 * dt))
    }
}

/// A deterministic input waveform sampled at absolute time.
///
/// Implemented by [`SquareWave`] (the paper's stimulus) and
/// [`PiecewiseConstant`] (seeded-random levels for differential testing);
/// the virtual-platform TDF sources and the sweep engine are generic over
/// it so the same cluster wiring drives any input shape.
pub trait Stimulus {
    /// Sample the waveform at time `t` (seconds).
    fn value(&self, t: f64) -> f64;
}

impl Stimulus for SquareWave {
    fn value(&self, t: f64) -> f64 {
        SquareWave::value(self, t)
    }
}

impl<T: Stimulus + ?Sized> Stimulus for &T {
    fn value(&self, t: f64) -> f64 {
        (**self).value(t)
    }
}

/// Piecewise-constant waveform: level `k` holds over
/// `[k·hold, (k+1)·hold)`, repeating from the start after the last
/// segment. Built from a seeded PRNG ([`PiecewiseConstant::seeded`]) it
/// gives reproducible random stimuli that exercise input shapes the fixed
/// square wave never does.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseConstant {
    /// Duration of each segment in seconds.
    pub hold: f64,
    /// Segment levels, cycled over.
    pub levels: Vec<f64>,
}

impl PiecewiseConstant {
    /// Builds `segments` uniform random levels in `[lo, hi)` from an
    /// [`XorShift64`] stream seeded with `seed` — same seed, same wave.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0` or `hold` is not positive and finite.
    pub fn seeded(seed: u64, segments: usize, hold: f64, lo: f64, hi: f64) -> Self {
        assert!(segments > 0, "need at least one segment");
        assert!(hold.is_finite() && hold > 0.0, "hold must be positive");
        let mut rng = XorShift64::new(seed);
        let levels = (0..segments)
            .map(|_| lo + (hi - lo) * rng.next_f64())
            .collect();
        PiecewiseConstant { hold, levels }
    }

    /// Sample the waveform at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        let k = (t / self.hold).rem_euclid(self.levels.len() as f64) as usize;
        self.levels[k.min(self.levels.len() - 1)]
    }
}

impl Stimulus for PiecewiseConstant {
    fn value(&self, t: f64) -> f64 {
        PiecewiseConstant::value(self, t)
    }
}

/// The xorshift64* PRNG — the same tiny deterministic generator the
/// workspace property tests use, exposed here so stimulus construction and
/// scenario sampling share one implementation.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the stream (a zero seed is remapped to a fixed nonzero one,
    /// since xorshift has no zero state).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next draw mapped uniformly to `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Verilog-AMS source of an `n`-stage RC ladder (the paper's RCn).
///
/// The conservative MNA system has `5n` unknowns (per stage: two branch
/// voltages, two branch currents, one node), so the family doubles as
/// the scaling axis for the factorization backends: `SolverKind::Auto`
/// keeps the dense LU only for RC1, whose L+U fills half its dense
/// square, and resolves RC2 and up to the sparse pattern-reusing backend
/// (RC500 — 2500 unknowns — is the `sparse_smoke` headline benchmark).
/// Internal nets are named `n1..n{n-1}`, observable as e.g. `V(n3)`;
/// each stage contributes a τ = RC = 125 µs, and the signal diffuses, so
/// `V(out)` of a long ladder needs ~`n²·RC/2` to respond — observe a
/// near-input net when benchmarking short transients.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn rc_ladder(n: usize) -> String {
    assert!(n >= 1, "RC ladder needs at least one stage");
    let mut src = String::new();
    let _ = writeln!(src, "module rc{n}(in, out);");
    let _ = writeln!(src, "  input in; output out;");
    let _ = writeln!(src, "  parameter real R = 5k;");
    let _ = writeln!(src, "  parameter real C = 25n;");
    let mut nets = vec!["in".to_string()];
    for i in 1..n {
        nets.push(format!("n{i}"));
    }
    nets.push("out".to_string());
    nets.push("gnd".to_string());
    let _ = writeln!(src, "  electrical {};", nets.join(", "));
    let _ = writeln!(src, "  ground gnd;");
    for i in 0..n {
        let a = &nets[i];
        let b = &nets[i + 1];
        let _ = writeln!(src, "  branch ({a}, {b}) r{i};");
        let _ = writeln!(src, "  branch ({b}, gnd) c{i};");
    }
    let _ = writeln!(src, "  analog begin");
    for i in 0..n {
        let _ = writeln!(src, "    V(r{i}) <+ R * I(r{i});");
        let _ = writeln!(src, "    I(c{i}) <+ C * ddt(V(c{i}));");
    }
    let _ = writeln!(src, "  end");
    let _ = writeln!(src, "endmodule");
    src
}

/// Verilog-AMS source of the two-input summing amplifier (2IN,
/// Figure 8(a)): ideal-ish op-amp with R1/R2 input legs and R3 feedback.
///
/// Expected DC behaviour: `out ≈ −(R3/R1·in1 + R3/R2·in2)`.
pub fn two_inputs() -> String {
    "module two_inputs(in1, in2, out);
  input in1; input in2; output out;
  parameter real R1 = 3k;
  parameter real R2 = 14k;
  parameter real R3 = 10k;
  parameter real A0 = 100k;
  electrical in1, in2, inm, out, gnd;
  ground gnd;
  branch (in1, inm) b1;
  branch (in2, inm) b2;
  branch (inm, out) b3;
  analog begin
    V(b1) <+ R1 * I(b1);
    V(b2) <+ R2 * I(b2);
    V(b3) <+ R3 * I(b3);
    V(out, gnd) <+ -A0 * V(inm, gnd);
  end
endmodule
"
    .to_string()
}

/// Verilog-AMS source of the operational amplifier circuit (OA,
/// Figure 8(b)): inverting configuration with a first-order op-amp macro
/// model (input resistance, VCVS gain stage, output resistance, load
/// capacitance).
///
/// Expected DC behaviour: `out ≈ −(R2/R1)·in = −4·in`.
pub fn opamp() -> String {
    "module opamp(in, out);
  input in; output out;
  parameter real R1 = 400;
  parameter real R2 = 1.6k;
  parameter real C1 = 40n;
  parameter real Rin = 1M;
  parameter real Rout = 20;
  parameter real A0 = 100k;
  electrical in, inm, x, out, gnd;
  ground gnd;
  branch (in, inm) br1;
  branch (inm, out) br2;
  branch (inm, gnd) brin;
  branch (x, gnd) bsrc;
  branch (x, out) brout;
  branch (out, gnd) bc1;
  analog begin
    V(br1) <+ R1 * I(br1);
    V(br2) <+ R2 * I(br2);
    V(brin) <+ Rin * I(brin);
    V(bsrc) <+ -A0 * V(inm, gnd);
    V(brout) <+ Rout * I(brout);
    I(bc1) <+ C1 * ddt(V(bc1));
  end
endmodule
"
    .to_string()
}

/// Verilog-AMS source of a stiff diode clamp: `in —R— out`, with an
/// exponential diode (sharp thermal voltage `VT = 5 mV`) and a small
/// capacitor from `out` to ground.
///
/// The fixture is deliberately hostile to fixed-step Newton: a full-scale
/// input edge at `dt = 1e-4` puts the first iterate far up the diode
/// exponential, and the undamped iteration walks back only ~`VT` per
/// iteration — well past any sane iteration cap. Backward Euler at a
/// *small* step stiffens the capacitor companion conductance `C/dt`,
/// which bounds how far `out` can move per solve, so adaptive
/// retry/backoff rescues exactly this circuit while plain fixed-`dt`
/// stepping fails with `NoConvergence`.
pub fn diode_clamp() -> String {
    "module diode_clamp(in, out);
  input in; output out;
  parameter real R = 1k;
  parameter real C = 1n;
  parameter real IS = 1p;
  parameter real VT = 5m;
  electrical in, out, gnd;
  ground gnd;
  branch (in, out) br;
  branch (out, gnd) bd;
  branch (out, gnd) bc;
  analog begin
    V(br) <+ R * I(br);
    I(bd) <+ IS * (exp(V(bd) / VT) - 1);
    I(bc) <+ C * ddt(V(bc));
  end
endmodule
"
    .to_string()
}

/// The four benchmark circuits of Table I as `(label, source, inputs)`.
pub fn paper_benchmarks() -> Vec<(&'static str, String, usize)> {
    vec![
        ("2IN", two_inputs(), 2),
        ("RC1", rc_ladder(1), 1),
        ("RC20", rc_ladder(20), 1),
        ("OA", opamp(), 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Abstraction;
    use vams_parser::parse_module;

    #[test]
    fn square_wave_shape() {
        let sq = SquareWave::paper();
        assert_eq!(sq.value(0.0), 1.0);
        assert_eq!(sq.value(0.49e-3), 1.0);
        assert_eq!(sq.value(0.51e-3), 0.0);
        assert_eq!(sq.value(1.0e-3), 1.0);
        let samples: Vec<f64> = sq.samples(0.25e-3, 5).collect();
        assert_eq!(samples, vec![1.0, 1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn piecewise_constant_is_seed_deterministic() {
        let a = PiecewiseConstant::seeded(42, 8, 1e-4, -1.0, 1.0);
        let b = PiecewiseConstant::seeded(42, 8, 1e-4, -1.0, 1.0);
        let c = PiecewiseConstant::seeded(43, 8, 1e-4, -1.0, 1.0);
        assert_eq!(a, b, "same seed, same wave");
        assert_ne!(a, c, "different seed, different wave");
        for level in &a.levels {
            assert!((-1.0..1.0).contains(level), "level {level} out of range");
        }
        // Holds each level for `hold`, then cycles.
        assert_eq!(a.value(0.0), a.levels[0]);
        assert_eq!(a.value(0.99e-4), a.levels[0]);
        assert_eq!(a.value(1.01e-4), a.levels[1]);
        assert_eq!(a.value(8.5e-4), a.levels[0], "wraps after the last");
        // Trait and inherent sampling agree.
        fn through_trait<S: Stimulus>(s: &S, t: f64) -> f64 {
            s.value(t)
        }
        assert_eq!(through_trait(&a, 3.3e-4), a.value(3.3e-4));
        assert_eq!(
            through_trait(&SquareWave::paper(), 0.6e-3),
            SquareWave::paper().value(0.6e-3)
        );
    }

    #[test]
    fn xorshift_stream_is_reproducible_and_spread() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        let draws: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        for d in &draws {
            assert_eq!(*d, b.next_u64());
        }
        // Zero seed is remapped, not a stuck all-zero stream.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
        // f64 draws live in [0, 1) and are not constant.
        let mut r = XorShift64::new(123);
        let fs: Vec<f64> = (0..64).map(|_| r.next_f64()).collect();
        assert!(fs.iter().all(|f| (0.0..1.0).contains(f)));
        let mean = fs.iter().sum::<f64>() / fs.len() as f64;
        assert!((mean - 0.5).abs() < 0.2, "mean {mean} suspicious");
    }

    #[test]
    fn rc_ladder_sources_parse_and_scale() {
        for n in [1, 2, 5, 20] {
            let m = parse_module(&rc_ladder(n)).unwrap();
            assert_eq!(m.branches.len(), 2 * n);
            // Nodes: in, n1..n_{n−1}, out, gnd.
            assert_eq!(m.net_names().count(), n + 2);
        }
        // The paper quotes RC20 as 22 nodes and 41 branches (their count
        // includes the source branch added by the stimulus).
        let m = parse_module(&rc_ladder(20)).unwrap();
        assert_eq!(m.net_names().count(), 22);
        assert_eq!(m.branches.len(), 40);
    }

    #[test]
    fn two_inputs_gains_match_fig8a() {
        let m = parse_module(&two_inputs()).unwrap();
        let mut model = Abstraction::new(&m).dt(1e-6).build().unwrap();
        assert_eq!(model.input_names(), &["in1".to_string(), "in2".to_string()]);
        model.step(&[1.0, 0.0]);
        let g1 = model.output(0);
        assert!((g1 + 10.0 / 3.0).abs() < 2e-3, "in1 gain −R3/R1, got {g1}");
        model.reset();
        model.step(&[0.0, 1.0]);
        let g2 = model.output(0);
        assert!((g2 + 10.0 / 14.0).abs() < 2e-3, "in2 gain −R3/R2, got {g2}");
    }

    #[test]
    fn opamp_settles_to_inverting_gain() {
        let m = parse_module(&opamp()).unwrap();
        let mut model = Abstraction::new(&m).dt(50e-9).build().unwrap();
        // Settle well past the output pole (~Rout·C1 time scale).
        for _ in 0..200_000 {
            model.step(&[0.5]);
        }
        let v = model.output(0);
        assert!((v + 2.0).abs() < 5e-3, "−4 × 0.5 = −2, got {v}");
    }

    #[test]
    fn diode_clamp_parses_with_expected_topology() {
        let m = parse_module(&diode_clamp()).unwrap();
        // in, out, gnd / resistor + diode + capacitor branches.
        assert_eq!(m.net_names().count(), 3);
        assert_eq!(m.branches.len(), 3);
    }

    #[test]
    fn diode_clamp_reports_its_nonlinear_loop() {
        // The exponential diode closes a nonlinear loop through V(out); the
        // error names it, not a fallback candidate's exhausted chain.
        let m = parse_module(&diode_clamp()).unwrap();
        let err = Abstraction::new(&m).dt(1e-6).build().unwrap_err();
        assert_eq!(
            err.root(),
            &crate::AbstractError::NonlinearLoop {
                quantity: crate::Quantity::node_v("out")
            },
            "{err}"
        );
    }

    #[test]
    fn paper_benchmark_set_is_complete() {
        let benches = paper_benchmarks();
        let labels: Vec<_> = benches.iter().map(|(l, _, _)| *l).collect();
        assert_eq!(labels, vec!["2IN", "RC1", "RC20", "OA"]);
        for (label, src, inputs) in benches {
            let m = parse_module(&src).unwrap();
            let model = Abstraction::new(&m)
                .dt(50e-9)
                .build()
                .unwrap_or_else(|e| panic!("{label} must abstract cleanly: {e}"));
            assert_eq!(model.input_names().len(), inputs, "{label} input count");
        }
    }
}
