//! What every workload shares: the run configuration, repeated set-up,
//! the warm-up plus timed-round loop, output checks, and the counters
//! that turn into solver-layer ratios.

use std::time::Instant;

use amsim::{Instance, Snapshot};
use amsvp_core::circuits::Stimulus;
use obs::{Obs, Report};

use crate::{spec, trace};

/// How one workload process runs.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Derives every stimulus and job of the run.
    pub seed: u64,
    /// Whether this is the traced run (per-layer ledger) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// When the workload started: set-ups and rounds together fill
    /// [`spec::RUN_SECONDS`] from here.
    pub started: Instant,
}

impl RunConfig {
    /// A seed for one named input stream of the run, so adding a stream
    /// never shifts another.
    pub fn stream(&self, stream: u64) -> u64 {
        let mut x = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x.max(1)
    }

    /// A recording collector in a traced run, the no-op one otherwise.
    pub fn obs(&self) -> Obs {
        if self.traced {
            Obs::recording()
        } else {
            Obs::none()
        }
    }
}

/// Everything a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (runs, scenarios, devices, jobs) plus checks.
    pub attempted: u64,
    /// Operations that failed plus checks that failed.
    pub failed: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Wall time of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Wall time of each untraced timed round.
    pub round_secs: Vec<f64>,
    /// Wall time of each traced round (traced runs only).
    pub traced_round_secs: Vec<f64>,
    /// Units of work (runs, steps, scenarios, devices, jobs) per round.
    pub units_per_round: f64,
    /// What one unit of work is, for the text output.
    pub unit: &'static str,
    /// Peak resident memory of the process without file-backed pages,
    /// read after the timed rounds, in MB.
    pub peak_anon_mb: f64,
    /// Per-layer metrics measured by the workload (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records one check: counted as attempted, and as failed with
    /// `message` unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(message());
        }
    }

    /// Records `n` operations of which `failed` did not complete.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{failed} of {n} {what} failed"));
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Set-up repetitions before the first round.
const SETUP_REPS: usize = 3;

/// Timed rounds a run makes at least, however long they take.
const MIN_ROUNDS: usize = 5;

/// During the rounds the set-up is repeated (result dropped) before a
/// round whenever the set-ups so far took less than this share of the
/// rounds' time, so the set-up estimate samples the whole run as the
/// round estimate does: the host's speed changes in phases of seconds,
/// and set-ups timed only at start moved 2× between runs.
const SETUP_SHARE: f64 = 1.0 / 3.0;

/// A repeated set-up runs back to back for at least this long and
/// records the mean per repetition, so one page fault or timer tick does
/// not decide a 100 µs sample.
const SETUP_BURST_SECS: f64 = 0.005;

/// Times back-to-back set-ups (one, then more until `burst` seconds have
/// passed) into `out` as one sample, the mean per set-up, each under a
/// `setup` span. Each result is dropped outside its timing before the
/// next set-up starts; the last one is returned with the burst's length.
fn time_setup<T>(out: &mut Outcome, f: &mut impl FnMut() -> T, burst: f64) -> (T, f64) {
    let start = Instant::now();
    let (mut secs, mut reps) = (0.0, 0u32);
    loop {
        let t0 = Instant::now();
        let v = {
            let _s = trace::span("setup", 0);
            f()
        };
        secs += t0.elapsed().as_secs_f64();
        reps += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= burst {
            out.setup_secs.push(secs / f64::from(reps));
            return (v, elapsed);
        }
    }
}

/// Runs the set-up [`SETUP_REPS`] times, recording each repetition's
/// wall time; returns the last result.
pub fn repeat_setup<T>(out: &mut Outcome, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        last = Some(time_setup(out, &mut f, 0.0).0);
    }
    last.expect("at least one set-up repetition")
}

/// One untimed warm-up round, then timed rounds until
/// [`spec::RUN_SECONDS`] have passed since the workload started (at
/// least [`MIN_ROUNDS`]), with the set-up repeated in between (see
/// [`SETUP_SHARE`]). A traced run alternates untraced and traced rounds
/// so the instrumentation's cost is measured in one process, and calls
/// `probe` after each traced round, outside the timing.
/// `round(state, traced, id)` returns the number of operations that
/// failed; `id` groups the round's spans.
pub fn run_rounds<S, T>(
    cfg: &RunConfig,
    out: &mut Outcome,
    (ops_per_round, what): (u64, &str),
    state: &mut S,
    mut round: impl FnMut(&mut S, bool, u64) -> u64,
    mut probe: impl FnMut(&mut S),
    mut setup: impl FnMut() -> T,
) {
    let failed = round(state, false, 0);
    out.ops(ops_per_round, failed, what);
    let mut setup_total: f64 = out.setup_secs.iter().sum();
    let mut round_total = 0.0;
    let mut i = 0usize;
    while i < MIN_ROUNDS || cfg.started.elapsed().as_secs_f64() < spec::RUN_SECONDS as f64 {
        if setup_total < SETUP_SHARE * round_total {
            trace::set_enabled(cfg.traced);
            let (_, secs) = time_setup(out, &mut setup, SETUP_BURST_SECS);
            setup_total += secs;
        }
        let traced = cfg.traced && i % 2 == 1;
        trace::set_enabled(traced);
        let id = trace::next_id();
        let t0 = Instant::now();
        let failed = round(state, traced, id);
        let end = Instant::now();
        trace::record("round", id, t0, end);
        let secs = (end - t0).as_secs_f64();
        round_total += secs;
        out.ops(ops_per_round, failed, what);
        if traced {
            out.traced_round_secs.push(secs);
            probe(state);
        } else {
            out.round_secs.push(secs);
        }
        i += 1;
    }
    trace::set_enabled(cfg.traced);
    out.peak_anon_mb = peak_anon_mb().unwrap_or(0.0);
}

/// `VmHWM − RssFile` of this process in MB (Linux `/proc`; `None`
/// elsewhere): the resident high-water mark without the binary's and
/// the libraries' file-backed pages, which take ~4 MB and which the page
/// cache maps in large folios or small pages from run to run. Text pages
/// are only ever added, so subtracting their count now, after the peak,
/// leaves the anonymous memory (heap and stacks) at the peak or slightly
/// less.
pub fn peak_anon_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = |key: &str| -> Option<f64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    };
    Some((kb("VmHWM:")? - kb("RssFile:")?) / 1024.0)
}

/// Drives every input of a model with one stimulus sample.
pub fn fill(inputs: &mut [f64], stim: &impl Stimulus, t: f64) {
    let u = stim.value(t);
    inputs.iter_mut().for_each(|v| *v = u);
}

/// NRMSE normalised by the reference range, falling back to the
/// absolute RMSE for a flat reference.
pub fn nrmse(signal: &[f64], reference: &[f64]) -> f64 {
    if signal.len() != reference.len() || signal.is_empty() {
        return f64::INFINITY;
    }
    linalg::nrmse(signal, reference)
}

/// Whether two waveforms agree bit for bit.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Cost of one `Instance::try_step` and of one `residuals_vm` pass on a
/// workload's principal model: the inputs of the solver-layer metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepProbe {
    /// Summed wall time of the timed steps, in seconds.
    pub step_secs: f64,
    /// Steps timed.
    pub steps: u64,
    /// Summed wall time of the timed residual passes, in seconds.
    pub residual_secs: f64,
    /// Residual passes timed.
    pub residuals: u64,
}

impl StepProbe {
    /// Times `passes` residual evaluations on `probe` rewound to `snap`
    /// (taken from the live run), so the live run is left untouched.
    pub fn time_residuals(&mut self, probe: &mut Instance, snap: &Snapshot, passes: u64) {
        probe.restore(snap);
        let mut out = vec![0.0; probe.dim()];
        let t0 = Instant::now();
        for _ in 0..passes {
            probe.residuals_vm(&mut out);
            std::hint::black_box(&out);
        }
        self.residual_secs += t0.elapsed().as_secs_f64();
        self.residuals += passes;
    }

    /// Steps `inst` through the first `steps` samples of `stim`, timing
    /// 64-step blocks (one clock read per block keeps the timer's own cost
    /// out of sub-microsecond steps).
    pub fn time_steps(
        &mut self,
        inst: &mut Instance,
        stim: &impl Stimulus,
        steps: usize,
    ) -> Result<(), amsim::AmsError> {
        let dt = inst.dt();
        let mut inputs = vec![0.0; inst.input_names().len()];
        for block in (0..steps).step_by(64) {
            let n = 64.min(steps - block);
            let t0 = Instant::now();
            for k in block..block + n {
                fill(&mut inputs, stim, k as f64 * dt);
                inst.try_step(&inputs)?;
            }
            self.step_secs += t0.elapsed().as_secs_f64();
            self.steps += n as u64;
        }
        Ok(())
    }
}

/// The solver-layer ledger shared by every workload: step and residual
/// cost from a [`StepProbe`], ratios from the `amsim.*` / `linalg.*`
/// counters of the workload's principal model, read from `report` under
/// `prefix` (`"jobs."` for a server report).
pub fn solver_layers(out: &mut Outcome, probe: &StepProbe, report: &Report, prefix: &str) {
    let c = |name: &str| report.counter(&format!("{prefix}{name}")) as f64;
    let step_ns = probe.step_secs / probe.steps.max(1) as f64 * 1e9;
    let residual_ns = probe.residual_secs / probe.residuals.max(1) as f64 * 1e9;
    let steps = c("amsim.steps").max(1.0);
    let newton = c("amsim.newton_iterations");
    let newton_per_step = newton / steps;
    let rejected = c("amsim.step.rejected");
    let masked = c("amsim.batch.masked_iterations");
    out.layer("amsim.step_ns", step_ns);
    out.layer("expr.residual_ns", residual_ns);
    out.layer(
        "expr.residual_share",
        newton_per_step * residual_ns / step_ns,
    );
    out.layer(
        "amsim.non_residual_ns",
        step_ns - newton_per_step * residual_ns,
    );
    out.layer("amsim.newton_per_step", newton_per_step);
    out.layer(
        "amsim.refactor_per_step",
        c("amsim.lu.factorizations") / steps,
    );
    out.layer("amsim.accept_ratio", steps / (steps + rejected));
    out.layer(
        "amsim.batch.masked_share",
        if masked > 0.0 {
            masked / (masked + newton)
        } else {
            0.0
        },
    );
    out.layer("linalg.sparse.fill", c("linalg.sparse.fill"));
    out.layer(
        "linalg.sparse.refactor_per_step",
        c("linalg.sparse.refactor") / steps,
    );
}

/// Set-up shares from the `setup`, `core.parse`, `core.abstract` and
/// `amsim.compile` spans, plus the per-call parse and compile cost, and
/// the abstraction pipeline's own phase split from the `pipeline/*`
/// timers of the collector attached to `Abstraction`.
pub fn setup_layers(out: &mut Outcome, spans: &[trace::Span], pipeline: Option<&Report>) {
    let (setup_us, _) = trace::total_us(spans, "setup");
    let (parse_us, parses) = trace::total_us(spans, "core.parse");
    let (abstract_us, _) = trace::total_us(spans, "core.abstract");
    let (compile_us, compiles) = trace::total_us(spans, "amsim.compile");
    let share = |us: f64| if setup_us > 0.0 { us / setup_us } else { 0.0 };
    out.layer("core.parse_us", parse_us / parses.max(1) as f64);
    out.layer(
        "amsim.compile_ms",
        compile_us / compiles.max(1) as f64 / 1e3,
    );
    out.layer("setup.parse_share", share(parse_us));
    out.layer("setup.abstract_share", share(abstract_us));
    out.layer("setup.compile_share", share(compile_us));
    let phases = [
        ("core.pipeline.acquire_share", "pipeline/acquire"),
        ("core.pipeline.enrich_share", "pipeline/enrich"),
        ("core.pipeline.assemble_share", "pipeline/assemble"),
        ("core.pipeline.codegen_share", "pipeline/codegen"),
    ];
    let secs = |timer: &str| {
        pipeline
            .and_then(|r| r.timers.get(timer))
            .map_or(0.0, |t| t.total)
    };
    let total: f64 = phases.iter().map(|(_, t)| secs(t)).sum();
    for (name, timer) in phases {
        out.layer(
            name,
            if total > 0.0 {
                secs(timer) / total
            } else {
                0.0
            },
        );
    }
}

/// Parses a module inside a `core.parse` span.
pub fn parse(source: &str) -> vams_ast::Module {
    let _s = trace::span("core.parse", 0);
    vams_parser::parse_module(source).expect("benchmark circuits parse")
}
