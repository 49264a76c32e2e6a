//! Analog integration styles: the same analog component embedded in the
//! platform at every abstraction level of the paper's Table III.
//!
//! Each integration is a DE process that advances the analog solution by
//! one analog time step per activation, reading the stimulus (plus any
//! CPU-driven DAC contribution) and publishing the output sample to the
//! [`SharedBridge`]:
//!
//! * [`CompiledAnalog`] — the abstracted signal-flow model compiled to
//!   register programs (the "SC-DE" row);
//! * [`TdfClusterProcess`] + [`build_tdf_cluster`] — the abstracted model
//!   wrapped in a statically scheduled TDF cluster (the "SC-AMS/TDF" row);
//! * [`ElnAnalog`] — a hand-built electrical-linear-network model solved by
//!   MNA every step (the "SC-AMS/ELN" row; the paper also wrote these
//!   manually);
//! * [`CosimAnalog`] — the full conservative Verilog-AMS simulator on its
//!   own thread, synchronized every analog step (the "Verilog-AMS
//!   co-simulation" rows).

use amsim::cosim::CosimHandle;
use amsvp_core::circuits::{SquareWave, Stimulus};
use amsvp_core::SignalFlowModel;
use de::{ProcCtx, Process, SimTime};
use eln::{ElnNetwork, ElnSolver, NodeId, SourceId};
use tdf::{InPort, Io, OutPort, TdfExecutor, TdfGraph, TdfModule};

use crate::bus::{input_sample, publish, SharedBridge};

// ---------------------------------------------------------------- SC-DE

/// The abstracted model as a plain DE process (the paper's SystemC-DE
/// integration).
pub struct CompiledAnalog<S: Stimulus = SquareWave> {
    model: SignalFlowModel,
    bridge: SharedBridge,
    stim: S,
    dt: f64,
    step: SimTime,
    k: u64,
    inputs: Vec<f64>,
}

impl<S: Stimulus> CompiledAnalog<S> {
    /// Wraps a compiled model; all model inputs are driven with the same
    /// stimulus sample.
    pub fn new(model: SignalFlowModel, bridge: SharedBridge, stim: S) -> Self {
        let dt = model.dt();
        let inputs = vec![0.0; model.input_names().len()];
        CompiledAnalog {
            model,
            bridge,
            stim,
            dt,
            step: SimTime::from_seconds(dt),
            k: 0,
            inputs,
        }
    }
}

impl<S: Stimulus + 'static> Process for CompiledAnalog<S> {
    fn activate(&mut self, ctx: &mut ProcCtx<'_>) {
        // t = k·dt (not accumulated) so every integration level samples
        // the stimulus at bit-identical times.
        let t = self.k as f64 * self.dt;
        let u = input_sample(&self.stim, t, &self.bridge);
        self.inputs.iter_mut().for_each(|v| *v = u);
        self.model.step(&self.inputs);
        publish(&self.bridge, self.model.output(0));
        self.k += 1;
        ctx.notify_self_after(self.step);
    }
}

// ----------------------------------------------------------------- TDF

/// TDF stimulus source: a [`Stimulus`] waveform plus DAC contribution.
pub struct TdfStimulus<S: Stimulus = SquareWave> {
    out: OutPort,
    stim: S,
    bridge: SharedBridge,
    dt: f64,
    k: u64,
}

impl<S: Stimulus + 'static> TdfModule for TdfStimulus<S> {
    fn processing(&mut self, io: &mut Io<'_>) {
        // t = k·dt for bit-identical sampling across integration levels.
        let t = self.k as f64 * self.dt;
        let _ = io.time();
        let u = input_sample(&self.stim, t, &self.bridge);
        io.write(self.out, 0, u);
        self.k += 1;
    }
}

/// The abstracted model as a TDF module.
pub struct TdfSignalFlow {
    inp: InPort,
    out: OutPort,
    model: SignalFlowModel,
    inputs: Vec<f64>,
}

impl TdfModule for TdfSignalFlow {
    fn processing(&mut self, io: &mut Io<'_>) {
        let u = io.read(self.inp, 0);
        self.inputs.iter_mut().for_each(|v| *v = u);
        self.model.step(&self.inputs);
        io.write(self.out, 0, self.model.output(0));
    }
}

/// TDF sink publishing samples to the bridge.
pub struct TdfBridgeSink {
    inp: InPort,
    bridge: SharedBridge,
}

impl TdfModule for TdfBridgeSink {
    fn processing(&mut self, io: &mut Io<'_>) {
        publish(&self.bridge, io.read(self.inp, 0));
    }
}

/// Builds the three-module TDF cluster (stimulus → model → sink) around an
/// abstracted model.
///
/// # Errors
///
/// Propagates TDF elaboration errors (none expected for this fixed
/// pipeline).
pub fn build_tdf_cluster<S: Stimulus + 'static>(
    model: SignalFlowModel,
    bridge: SharedBridge,
    stim: S,
) -> Result<TdfExecutor, tdf::TdfError> {
    let dt = SimTime::from_seconds(model.dt());
    let mut g = TdfGraph::new();
    let src_out = g.out_port(1);
    let m_in = g.in_port(1);
    let m_out = g.out_port(1);
    let sink_in = g.in_port(1);
    g.connect(src_out, m_in, 0);
    g.connect(m_out, sink_in, 0);
    let n_inputs = model.input_names().len();
    let src = g.add_module_named(
        "stimulus",
        TdfStimulus {
            out: src_out,
            stim,
            bridge: bridge.clone(),
            dt: model.dt(),
            k: 0,
        },
        &[],
        &[src_out],
    );
    g.add_module_named(
        "model",
        TdfSignalFlow {
            inp: m_in,
            out: m_out,
            model,
            inputs: vec![0.0; n_inputs],
        },
        &[m_in],
        &[m_out],
    );
    g.add_module_named(
        "sink",
        TdfBridgeSink {
            inp: sink_in,
            bridge,
        },
        &[sink_in],
        &[],
    );
    g.set_timestep(src, dt);
    g.build()
}

/// DE process advancing a TDF cluster one period per activation (how
/// SystemC-AMS nests TDF clusters in the SystemC scheduler).
pub struct TdfClusterProcess {
    exec: TdfExecutor,
    period: SimTime,
}

impl TdfClusterProcess {
    /// Wraps an elaborated cluster.
    pub fn new(exec: TdfExecutor) -> Self {
        let period = exec.period();
        TdfClusterProcess { exec, period }
    }
}

impl Process for TdfClusterProcess {
    fn activate(&mut self, ctx: &mut ProcCtx<'_>) {
        self.exec.run_iteration();
        ctx.notify_self_after(self.period);
    }
}

// ----------------------------------------------------------------- ELN

/// A hand-built ELN model advanced in lockstep with the kernel (the
/// paper's manually written SystemC-AMS/ELN integration).
pub struct ElnAnalog<S: Stimulus = SquareWave> {
    solver: ElnSolver,
    sources: Vec<SourceId>,
    out: NodeId,
    bridge: SharedBridge,
    stim: S,
    step: SimTime,
    k: u64,
}

impl<S: Stimulus> ElnAnalog<S> {
    /// Wraps an ELN solver; every listed source is driven with the same
    /// stimulus sample.
    pub fn new(
        solver: ElnSolver,
        sources: Vec<SourceId>,
        out: NodeId,
        bridge: SharedBridge,
        stim: S,
    ) -> Self {
        let step = SimTime::from_seconds(solver.dt());
        ElnAnalog {
            solver,
            sources,
            out,
            bridge,
            stim,
            step,
            k: 0,
        }
    }
}

impl<S: Stimulus + 'static> Process for ElnAnalog<S> {
    fn activate(&mut self, ctx: &mut ProcCtx<'_>) {
        let t = self.k as f64 * self.solver.dt();
        let u = input_sample(&self.stim, t, &self.bridge);
        for &s in &self.sources {
            self.solver.set_source(s, u);
        }
        self.solver
            .try_step()
            .unwrap_or_else(|e| panic!("eln analog step failed: {e}"));
        publish(&self.bridge, self.solver.node_voltage(self.out));
        self.k += 1;
        ctx.notify_self_after(self.step);
    }
}

// --------------------------------------------------------------- Cosim

/// Lockstep co-simulation with the conservative Verilog-AMS solver on its
/// own thread — one full synchronization round trip per analog step.
pub struct CosimAnalog<S: Stimulus = SquareWave> {
    handle: CosimHandle,
    n_inputs: usize,
    bridge: SharedBridge,
    stim: S,
    dt: f64,
    step: SimTime,
    k: u64,
}

impl<S: Stimulus> CosimAnalog<S> {
    /// Wraps a running co-simulation handle stepping at `dt` seconds.
    pub fn new(
        handle: CosimHandle,
        n_inputs: usize,
        dt: f64,
        bridge: SharedBridge,
        stim: S,
    ) -> Self {
        CosimAnalog {
            handle,
            n_inputs,
            bridge,
            stim,
            dt,
            step: SimTime::from_seconds(dt),
            k: 0,
        }
    }
}

impl<S: Stimulus + 'static> Process for CosimAnalog<S> {
    fn activate(&mut self, ctx: &mut ProcCtx<'_>) {
        let t = self.k as f64 * self.dt;
        let u = input_sample(&self.stim, t, &self.bridge);
        let inputs = vec![u; self.n_inputs];
        let outputs = self
            .handle
            .step(&inputs)
            .expect("co-simulated solver failed");
        publish(&self.bridge, outputs[0]);
        self.k += 1;
        ctx.notify_self_after(self.step);
    }
}

// --------------------------------------------- manual ELN circuit models

/// Hand-built ELN model of the RCn ladder (R = 5 kΩ, C = 25 nF).
///
/// Returns the network, the stimulus source, and the output node —
/// mirroring the paper's manually written SystemC-AMS/ELN models.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn rc_ladder_eln(n: usize) -> (ElnNetwork, SourceId, NodeId) {
    assert!(n >= 1, "RC ladder needs at least one stage");
    let mut net = ElnNetwork::new();
    let input = net.node("in");
    let src = net.vsource("vin", input, ElnNetwork::GROUND);
    let mut prev = input;
    let mut out = input;
    for i in 0..n {
        let node = net.node(format!("n{}", i + 1));
        net.resistor(format!("r{i}"), prev, node, 5e3);
        net.capacitor(format!("c{i}"), node, ElnNetwork::GROUND, 25e-9);
        prev = node;
        out = node;
    }
    (net, src, out)
}

/// Hand-built ELN model of the 2IN summing amplifier of Figure 8(a)
/// (both inputs tied to the same source, as in the platform stimulus).
pub fn two_inputs_eln() -> (ElnNetwork, Vec<SourceId>, NodeId) {
    let mut net = ElnNetwork::new();
    let in1 = net.node("in1");
    let in2 = net.node("in2");
    let inm = net.node("inm");
    let out = net.node("out");
    let s1 = net.vsource("v1", in1, ElnNetwork::GROUND);
    let s2 = net.vsource("v2", in2, ElnNetwork::GROUND);
    net.resistor("r1", in1, inm, 3e3);
    net.resistor("r2", in2, inm, 14e3);
    net.resistor("r3", inm, out, 10e3);
    net.vcvs("op", out, ElnNetwork::GROUND, ElnNetwork::GROUND, inm, 1e5);
    (net, vec![s1, s2], out)
}

/// Hand-built ELN model of the OA operational-amplifier circuit of
/// Figure 8(b).
pub fn opamp_eln() -> (ElnNetwork, SourceId, NodeId) {
    let mut net = ElnNetwork::new();
    let inp = net.node("in");
    let inm = net.node("inm");
    let x = net.node("x");
    let out = net.node("out");
    let src = net.vsource("vin", inp, ElnNetwork::GROUND);
    net.resistor("r1", inp, inm, 400.0);
    net.resistor("r2", inm, out, 1.6e3);
    net.resistor("rin", inm, ElnNetwork::GROUND, 1e6);
    net.vcvs("gain", x, ElnNetwork::GROUND, ElnNetwork::GROUND, inm, 1e5);
    net.resistor("rout", x, out, 20.0);
    net.capacitor("c1", out, ElnNetwork::GROUND, 40e-9);
    (net, src, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::new_bridge;
    use de::Kernel;
    use eln::{Method, Transient};
    use vams_parser::parse_module;

    fn rc1_model(dt: f64) -> SignalFlowModel {
        let m = parse_module(&amsvp_core::circuits::rc_ladder(1)).unwrap();
        amsvp_core::Abstraction::new(&m).dt(dt).build().unwrap()
    }

    #[test]
    fn compiled_analog_tracks_square_wave() {
        let tau = 5e3 * 25e-9;
        let dt = tau / 50.0;
        let bridge = new_bridge();
        let stim = SquareWave {
            period: 20.0 * tau,
            high: 1.0,
            low: 0.0,
        };
        let mut k = Kernel::new();
        k.register(CompiledAnalog::new(rc1_model(dt), bridge.clone(), stim));
        // After several τ at constant high input, the output approaches 1.
        k.run_until(SimTime::from_seconds(8.0 * tau)).unwrap();
        let v = bridge.borrow().aout;
        assert!((v - 1.0).abs() < 2e-3, "settled output, got {v}");
        assert!(bridge.borrow().samples >= 400);
    }

    #[test]
    fn tdf_cluster_matches_de_integration() {
        let tau = 5e3 * 25e-9;
        let dt = tau / 50.0;
        let stim = SquareWave::paper();

        // DE integration. The kernel processes events at the end time
        // inclusively, so stop half a step early for exactly 200 steps.
        let bridge_de = new_bridge();
        let mut k = Kernel::new();
        k.register(CompiledAnalog::new(rc1_model(dt), bridge_de.clone(), stim));
        k.run_until(SimTime::from_seconds(199.5 * dt)).unwrap();

        // TDF integration: run the cluster the same number of periods.
        let bridge_tdf = new_bridge();
        let mut exec = build_tdf_cluster(rc1_model(dt), bridge_tdf.clone(), stim).unwrap();
        exec.run_until(SimTime::from_seconds(200.0 * dt));

        let a = bridge_de.borrow().aout;
        let b = bridge_tdf.borrow().aout;
        assert!(
            (a - b).abs() < 1e-9,
            "same model, same stimulus ⇒ same samples: {a} vs {b}"
        );
    }

    #[test]
    fn eln_ladder_matches_abstracted_model() {
        let tau = 5e3 * 25e-9;
        let dt = tau / 100.0;
        let (net, src, out) = rc_ladder_eln(1);
        let solver = Transient::new(&net)
            .dt(dt)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        let bridge = new_bridge();
        let stim = SquareWave::paper();
        let mut k = Kernel::new();
        k.register(ElnAnalog::new(solver, vec![src], out, bridge.clone(), stim));
        // Stop half a step early: events at the end time are inclusive.
        k.run_until(SimTime::from_seconds(299.5 * dt)).unwrap();
        let eln_v = bridge.borrow().aout;

        let mut model = rc1_model(dt);
        for i in 0..300 {
            model.step(&[stim.value(i as f64 * dt)]);
        }
        assert!(
            (eln_v - model.output(0)).abs() < 1e-9,
            "backward Euler at same dt must agree: {eln_v} vs {}",
            model.output(0)
        );
    }

    #[test]
    fn eln_fixtures_have_expected_gains() {
        // 2IN at DC: out = −(10/3 + 10/14) when both inputs are 1 V.
        let (net, sources, out) = two_inputs_eln();
        let mut s = Transient::new(&net)
            .dt(1e-6)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        for &src in &sources {
            s.set_source(src, 1.0);
        }
        s.try_step().unwrap();
        let want = -(10.0 / 3.0 + 10.0 / 14.0);
        assert!((s.node_voltage(out) - want).abs() < 2e-3);

        // OA settles to −4×input.
        let (net, src, out) = opamp_eln();
        let mut s = Transient::new(&net)
            .dt(50e-9)
            .method(Method::BackwardEuler)
            .build()
            .unwrap();
        s.set_source(src, 0.5);
        for _ in 0..100_000 {
            s.try_step().unwrap();
        }
        assert!((s.node_voltage(out) + 2.0).abs() < 5e-3);
    }

    #[test]
    fn cosim_analog_runs_in_kernel() {
        let m = parse_module(&amsvp_core::circuits::rc_ladder(1)).unwrap();
        let tau = 5e3 * 25e-9;
        let dt = tau / 50.0;
        let sim = amsim::Simulation::new(&m)
            .dt(dt)
            .output("V(out)")
            .build()
            .unwrap();
        let handle = CosimHandle::spawn(sim, 1);
        let bridge = new_bridge();
        let mut k = Kernel::new();
        k.register(CosimAnalog::new(
            handle,
            1,
            dt,
            bridge.clone(),
            SquareWave {
                period: 1.0, // effectively constant high
                high: 1.0,
                low: 0.0,
            },
        ));
        k.run_until(SimTime::from_seconds(100.0 * dt)).unwrap();
        let v = bridge.borrow().aout;
        // Two time constants of charging.
        let analytic = 1.0 - (-2.0_f64).exp();
        assert!((v - analytic).abs() < 2e-2, "{v} vs {analytic}");
    }
}
