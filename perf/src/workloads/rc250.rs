//! `rc250`: the one large system.
//!
//! A 250-stage RC ladder (1 250 unknowns; `SolverKind::Auto` resolves to
//! the sparse backend) as a scalar transient at 1 µs under a seeded
//! piecewise-constant input. Compile time grows about 8× per doubling of
//! the ladder, so this is the workload where set-up work shows; 250
//! stages keep a handful of set-up repetitions inside the run's time
//! budget (RC500 compiles for ~5.5 s on a 2-vCPU host).

use std::sync::Arc;
use std::time::Instant;

use amsim::{CompiledModel, Instance, Simulation, Snapshot, SolverKind};
use amsvp_core::circuits::{rc_ladder, PiecewiseConstant};
use obs::{Obs, Report};

use crate::harness::{self, fill, Outcome, RunConfig, StepProbe};
use crate::trace;

const STAGES: usize = 250;
const DT: f64 = 1e-6;
/// `V(n3)` sits near the driven end, so it responds within a round.
const OUTPUT: &str = "V(n3)";
const STEPS_PER_ROUND: usize = 1_000;
const DENSE_CHECK_STEPS: usize = 50;
const MAX_NRMSE_DENSE: f64 = 1e-12;

struct Setup {
    module: vams_ast::Module,
    model: Arc<CompiledModel>,
    /// Counters of this set-up's compile (`linalg.sparse.analyze`, fill).
    compile: Report,
}

fn setup() -> Setup {
    let module = harness::parse(&rc_ladder(STAGES));
    let obs = Obs::recording();
    let model = {
        let _s = trace::span("amsim.compile", 0);
        Simulation::new(&module)
            .dt(DT)
            .output(OUTPUT)
            .collector(obs.clone())
            .compile()
            .expect("the RC ladder compiles")
    };
    Setup {
        module,
        model,
        compile: obs.report().unwrap_or_default(),
    }
}

struct State {
    probe: StepProbe,
    steps_secs: f64,
    steps: u64,
    snap: Option<Snapshot>,
    probe_inst: Instance,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        unit: "steps",
        units_per_round: STEPS_PER_ROUND as f64,
        ..Outcome::default()
    };
    let s = harness::repeat_setup(&mut out, setup);
    let stim = PiecewiseConstant::seeded(cfg.stream(0), 8, 100.0 * DT, 0.0, 1.0);
    let principal = cfg.obs();
    let mut state = State {
        probe: StepProbe::default(),
        steps_secs: 0.0,
        steps: 0,
        snap: None,
        probe_inst: s.model.instance(),
    };
    let round = |st: &mut State, traced: bool, id: u64| {
        let obs = if traced {
            principal.clone()
        } else {
            Obs::none()
        };
        let mut inst = s
            .model
            .instance_builder()
            .collector(obs)
            .build()
            .expect("default instance settings are valid");
        let mut inputs = vec![0.0; inst.input_names().len()];
        let _s = trace::span("amsim.transient", id);
        let t0 = Instant::now();
        let mut failed = 0;
        for k in 0..STEPS_PER_ROUND {
            fill(&mut inputs, &stim, k as f64 * DT);
            // Traced rounds time every 64th step on its own.
            let s0 = (traced && k % 64 == 0).then(Instant::now);
            if inst.try_step(&inputs).is_err() {
                failed = 1;
                break;
            }
            if let Some(s0) = s0 {
                st.probe.step_secs += s0.elapsed().as_secs_f64();
                st.probe.steps += 1;
            }
        }
        if cfg.traced {
            st.steps_secs += t0.elapsed().as_secs_f64();
            st.steps += STEPS_PER_ROUND as u64;
        }
        if traced {
            st.snap = Some(inst.snapshot());
        }
        inst.flush_counters();
        failed
    };
    let probe = |st: &mut State| {
        if let Some(snap) = st.snap.take() {
            let _s = trace::span("expr.residual_probe", 0);
            st.probe.time_residuals(&mut st.probe_inst, &snap, 64);
        }
    };
    harness::run_rounds(
        cfg,
        &mut out,
        (1, "transients"),
        &mut state,
        round,
        probe,
        setup,
    );

    check(&s, &stim, &mut out);
    if cfg.traced {
        harness::setup_layers(&mut out, &trace::spans(), None);
        let mut report = principal.report().unwrap_or_default();
        let fill_key = "linalg.sparse.fill";
        report
            .counters
            .insert(fill_key.into(), s.compile.counter(fill_key));
        harness::solver_layers(&mut out, &state.probe, &report, "");
        out.layer(
            "level.ref_msteps_per_s",
            state.steps as f64 / (state.steps_secs * 1e6),
        );
    }
    out
}

fn check(s: &Setup, stim: &PiecewiseConstant, out: &mut Outcome) {
    out.check(s.model.solver_kind() == SolverKind::Sparse, || {
        format!(
            "Auto resolved RC{STAGES} to {:?}, want Sparse",
            s.model.solver_kind()
        )
    });
    let analyze = s.compile.counter("linalg.sparse.analyze");
    out.check(analyze == 1, || {
        format!("linalg.sparse.analyze is {analyze} per compile, want 1")
    });
    let dense = Simulation::new(&s.module)
        .dt(DT)
        .output(OUTPUT)
        .solver(SolverKind::Dense)
        .compile();
    let wave = |model: &Arc<CompiledModel>| -> Option<Vec<f64>> {
        let mut inst = model.instance();
        let mut inputs = vec![0.0; inst.input_names().len()];
        (0..DENSE_CHECK_STEPS)
            .map(|k| {
                fill(&mut inputs, stim, k as f64 * DT);
                inst.try_step(&inputs).ok().map(|()| inst.output(0))
            })
            .collect()
    };
    match (dense.ok().as_ref().and_then(wave), wave(&s.model)) {
        (Some(d), Some(sp)) => {
            let e = harness::nrmse(&sp, &d);
            out.check(e <= MAX_NRMSE_DENSE, || {
                format!("sparse vs dense NRMSE {e:.3e} over {DENSE_CHECK_STEPS} steps")
            });
        }
        _ => out.check(false, || "dense or sparse check transient failed".into()),
    }
}
