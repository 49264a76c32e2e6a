//! Ablation benchmarks for the design decisions DESIGN.md calls out:
//!
//! * MoC wrapper overhead: the same abstracted model stepped bare (the
//!   "C++" row), inside the TDF static schedule, and inside the DE kernel
//!   — isolating scheduler cost from numerics;
//! * ELN discretization method: backward Euler vs trapezoidal;
//! * implicit vs sequential (literal §IV-C) elaboration on RC1, the one
//!   circuit where both are stable;
//! * co-simulation synchronization: in-process stepping vs a full thread
//!   round trip per step;
//! * raw DE-kernel event throughput, with the default no-op collector and
//!   with a recording collector attached (the instrumentation ablation);
//! * the `SolverKind::Auto` crossover: each corpus circuit's step on the
//!   dense and the sparse LU, scalar and in 8- and 16-lane batches,
//!   beside the dimension and L+U fill the rule compares (DESIGN.md §12).

use amsim::cosim::CosimHandle;
use amsim::{Simulation, SolverKind, StepControl};
use amsvp_bench::{abstracted_model, microbench, paper_circuits, Workload};
use amsvp_core::circuits::{
    diode_clamp, opamp, rc_ladder, two_inputs, PiecewiseConstant, SquareWave,
};
use amsvp_core::{Abstraction, SolveMode};
use de::{Kernel, ProcCtx, Process, SimTime};
use eln::{Method, Transient};
use obs::Obs;
use vp::{build_tdf_cluster, new_bridge, CompiledAnalog};

fn moc_wrapper_overhead() {
    let wl = Workload::table1(1e-3);
    let spec = &paper_circuits()[1]; // RC1
    let stim = SquareWave::paper();

    {
        let mut model = abstracted_model(spec, &wl);
        let mut k = 0u64;
        microbench("ablation_moc_overhead", "bare_model_step", || {
            model.step(&[stim.value(k as f64 * wl.dt)]);
            k += 1;
        });
    }

    {
        let bridge = new_bridge();
        let mut exec = build_tdf_cluster(abstracted_model(spec, &wl), bridge, stim).unwrap();
        microbench("ablation_moc_overhead", "tdf_cluster_step", || {
            exec.run_iteration()
        });
    }

    {
        let bridge = new_bridge();
        let mut k = Kernel::new();
        k.register(CompiledAnalog::new(
            abstracted_model(spec, &wl),
            bridge,
            stim,
        ));
        let step = SimTime::from_seconds(wl.dt);
        let mut t = SimTime::ZERO;
        microbench("ablation_moc_overhead", "de_kernel_step", || {
            t += step;
            k.run_until(t).unwrap();
        });
    }
}

fn eln_method() {
    let spec = &paper_circuits()[2]; // RC20 — biggest MNA system
    let stim = SquareWave::paper();
    for (name, method) in [
        ("backward_euler", Method::BackwardEuler),
        ("trapezoidal", Method::Trapezoidal),
    ] {
        let (net, sources, out) = &spec.eln;
        let mut solver = Transient::new(net)
            .dt(50e-9)
            .method(method)
            .build()
            .unwrap();
        let mut k = 0u64;
        microbench("ablation_eln_method", name, || {
            let u = stim.value(k as f64 * 50e-9);
            for &s in sources {
                solver.set_source(s, u);
            }
            solver.try_step().unwrap();
            k += 1;
            solver.node_voltage(*out)
        });
    }
}

fn solve_mode() {
    let module = vams_parser::parse_module(&rc_ladder(1)).unwrap();
    for (name, mode) in [
        ("implicit", SolveMode::Implicit),
        ("sequential", SolveMode::Sequential),
    ] {
        microbench("ablation_solve_mode", &format!("elaborate_{name}"), || {
            Abstraction::new(&module)
                .dt(50e-9)
                .mode(mode)
                .output("V(out)")
                .assembly()
                .unwrap()
        });
        let mut model = Abstraction::new(&module)
            .dt(50e-9)
            .mode(mode)
            .output("V(out)")
            .build()
            .unwrap();
        microbench("ablation_solve_mode", &format!("step_{name}"), || {
            model.step(&[1.0]);
            model.output(0)
        });
    }
}

fn cosim_sync() {
    let spec = &paper_circuits()[1]; // RC1
    {
        let mut sim = Simulation::new(&spec.module)
            .dt(50e-9)
            .output("V(out)")
            .build()
            .unwrap();
        microbench("ablation_cosim_sync", "in_process_step", || {
            sim.step(&[1.0]);
            sim.output(0)
        });
    }
    {
        let sim = Simulation::new(&spec.module)
            .dt(50e-9)
            .output("V(out)")
            .build()
            .unwrap();
        let mut handle = CosimHandle::spawn(sim, 1);
        microbench("ablation_cosim_sync", "cosim_round_trip_step", || {
            handle.step(&[1.0]).unwrap()
        });
    }
}

fn kernel_throughput() {
    struct Ticker {
        period: SimTime,
    }
    impl Process for Ticker {
        fn activate(&mut self, ctx: &mut ProcCtx<'_>) {
            ctx.notify_self_after(self.period);
        }
    }
    // The no-op collector is the default; the recording variant bounds the
    // instrumentation cost when a collector is actually attached.
    for (name, obs) in [
        ("event_dispatch", Obs::none()),
        ("event_dispatch_recording", Obs::recording()),
    ] {
        let mut k = Kernel::new();
        k.set_collector(obs);
        k.register(Ticker {
            period: SimTime::ns(10),
        });
        let mut t = SimTime::ZERO;
        microbench("ablation_kernel", name, || {
            t += SimTime::ns(10);
            k.run_until(t).unwrap();
        });
    }
}

/// Per-lane-step cost of one compiled circuit, scalar and at 8 and 16
/// lanes, on one backend; returns the three costs in ns.
fn backend_step_costs(
    label: &str,
    model: &std::sync::Arc<amsim::CompiledModel>,
    stim: &PiecewiseConstant,
) -> [f64; 3] {
    let dt = model.dt();
    let kind = model.solver_kind();
    let n_inputs = model.input_names().len();
    let mut inst = model.instance();
    let mut u = vec![0.0; n_inputs];
    let mut k = 0u64;
    let name = format!("{label}/{kind:?}/scalar");
    let scalar = microbench("ablation_backend", &name, || {
        u.fill(stim.value(k as f64 * dt));
        k += 1;
        inst.try_step(&u).unwrap();
        inst.output(0)
    });
    let mut costs = [scalar * 1e9, 0.0, 0.0];
    for (slot, lanes) in [(1, 8), (2, 16)] {
        let mut batch = model.batch_instance(lanes);
        let mut inputs = vec![0.0; n_inputs * lanes];
        let mut k = 0u64;
        let name = format!("{label}/{kind:?}/lanes{lanes}");
        let per_batch = microbench("ablation_backend", &name, || {
            // Lane l replays the stimulus l steps late, so the lanes
            // carry different values through the same solves.
            for l in 0..lanes {
                let v = stim.value((k + l as u64) as f64 * dt);
                for i in 0..n_inputs {
                    inputs[i * lanes + l] = v;
                }
            }
            k += 1;
            assert_eq!(batch.try_step(&inputs), lanes);
            batch.output(0, 0)
        });
        costs[slot] = per_batch * 1e9 / lanes as f64;
    }
    costs
}

/// The `Auto` crossover: for each corpus circuit, the dimension n, the
/// L+U fill of its zero-state stamp, and the per-lane-step cost on each
/// backend. `Auto` keeps the sparse analysis when `2·fill ≤ n²`.
fn backend_crossover() {
    let clamp = StepControl::new(1e-9).max_retries(20);
    let corpus = [
        ("RC1", rc_ladder(1), 50e-9, 1.0, None),
        ("CLAMP", diode_clamp(), 1e-4, 0.8, Some(clamp)),
        ("2IN", two_inputs(), 50e-9, 1.0, None),
        ("OA", opamp(), 50e-9, 1.0, None),
        ("RC20", rc_ladder(20), 50e-9, 1.0, None),
        ("RC30", rc_ladder(30), 50e-9, 1.0, None),
    ];
    let mut rows = Vec::new();
    for (label, source, dt, hi, ctrl) in corpus {
        let module = vams_parser::parse_module(&source).unwrap();
        let stim = PiecewiseConstant::seeded(1, 5, 6.0 * dt, 0.0, hi);
        let compile = |kind: SolverKind, obs: Obs| {
            Simulation::new(&module)
                .dt(dt)
                .output("V(out)")
                .step_control(ctrl)
                .solver(kind)
                .collector(obs)
                .compile()
                .unwrap()
        };
        let obs = Obs::recording();
        let sparse_model = compile(SolverKind::Sparse, obs.clone());
        let fill = obs.report().unwrap().counter("linalg.sparse.fill");
        let n = sparse_model.dim();
        let auto = compile(SolverKind::Auto, Obs::none()).solver_kind();
        let dense = backend_step_costs(label, &compile(SolverKind::Dense, Obs::none()), &stim);
        let sparse = backend_step_costs(label, &sparse_model, &stim);
        rows.push((label, n, fill, auto, dense, sparse));
    }
    println!("\nns per lane-step, dense → sparse; Auto keeps sparse when 2·fill ≤ n²");
    println!(
        "circuit     n   fill  fill/n²  Auto    scalar              8 lanes             16 lanes"
    );
    for (label, n, fill, auto, d, s) in rows {
        let ratio = fill as f64 / (n * n) as f64;
        let pair = |i: usize| format!("{:>7.0} → {:>7.0}", d[i], s[i]);
        println!(
            "{label:<6} {n:>6} {fill:>6} {ratio:>8.2}  {:<6} {}   {}   {}",
            format!("{auto:?}"),
            pair(0),
            pair(1),
            pair(2)
        );
    }
}

fn main() {
    backend_crossover();
    moc_wrapper_overhead();
    eln_method();
    solve_mode();
    cosim_sync();
    kernel_throughput();
}
