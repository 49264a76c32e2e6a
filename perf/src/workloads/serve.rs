//! `serve`: the one workload that crosses HTTP.
//!
//! An in-process `serve::Server` (one sweep worker, lane width 8) and one
//! closed-loop client on loopback: it submits its next job only once the
//! previous stream has ended, as sweep clients do. One client keeps the
//! load to one compute thread, for the reason given in `sweeps.rs`. A job
//! is 32 RC20 scenarios × 400 steps (~260 KB of JSON lines); exactly one
//! job in eight carries a time step the model cache has not seen, so
//! compiling on the request path stays in the mix. The traced run adds a
//! leg of two clients at once, so concurrent jobs, the server's shared
//! report and the model cache's lock are exercised too.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amsim::{CompiledModel, Simulation};
use amsvp_core::circuits::{rc_ladder, PiecewiseConstant};
use obs::Report;
use serve::json::{self, Json, JsonBuf};
use serve::{ServeConfig, Server};
use sweep::{run_ams_sweep_batched, AmsScenario, ScenarioBudget, SweepEngine};

use crate::harness::{self, Outcome, RunConfig, StepProbe};
use crate::workloads::sweeps::busy_share;
use crate::{stats, trace};

const DT: f64 = 1e-6;
const OUTPUT: &str = "V(n3)";
const SCENARIOS: usize = 32;
const STEPS: usize = 400;
const JOBS_PER_ROUND: usize = 2;
const LANES: usize = 8;
/// One job in this many uses a time step no earlier job used.
const MISS_EVERY: usize = 8;
/// One job in this many has some of its scenarios checked, among the
/// first `CHECK_JOBS * CHECK_EVERY` jobs (a fixed count keeps the kept
/// streams out of the peak-memory comparison between runs).
const CHECK_EVERY: usize = 16;
const CHECK_JOBS: usize = 4;
const CHECK_SCENARIOS: usize = 4;
/// Jobs each client submits in the traced run's two-client leg.
const C2_JOBS_PER_CLIENT: usize = 6;

struct Setup {
    source: String,
    model: Arc<CompiledModel>,
    server: Server,
}

fn setup() -> Setup {
    let source = rc_ladder(20);
    let module = harness::parse(&source);
    let model = {
        let _s = trace::span("amsim.compile", 0);
        Simulation::new(&module)
            .dt(DT)
            .output(OUTPUT)
            .compile()
            .expect("RC20 compiles")
    };
    let server = {
        let _s = trace::span("serve.start", 0);
        // Two cached models: the base Δt's stays hot while the one-off Δt
        // jobs evict each other, so the cache reaches its steady size
        // within the first rounds and peak memory does not grow with the
        // number of rounds a run completes.
        Server::start(ServeConfig {
            workers: 1,
            lane_width: LANES,
            max_jobs: 2,
            cache_models: 2,
            ..ServeConfig::default()
        })
        .expect("the server binds a loopback port")
    };
    Setup {
        source,
        model,
        server,
    }
}

/// The job inputs, all derived from the run seed and the job index.
struct Jobs {
    seed: RunConfig,
    miss_phase: usize,
}

impl Jobs {
    fn is_miss(&self, job: usize) -> bool {
        job % MISS_EVERY == self.miss_phase
    }

    /// Checked jobs use the base time step, so the set-up's model serves
    /// as the local reference.
    fn is_checked(&self, job: usize) -> bool {
        job < CHECK_JOBS * CHECK_EVERY && job % CHECK_EVERY == (self.miss_phase + 1) % MISS_EVERY
    }

    fn dt(&self, job: usize) -> f64 {
        if self.is_miss(job) {
            DT * (1.0 + (job + 1) as f64 * 1e-9)
        } else {
            DT
        }
    }

    /// Stimulus seed of scenario `i` of `job` (JSON numbers carry 53
    /// bits exactly).
    fn stim_seed(&self, job: usize, i: usize) -> u64 {
        let stream = 10_000 + (job * SCENARIOS + i) as u64;
        (self.seed.stream(stream) & ((1 << 53) - 1)).max(1)
    }

    fn stim(&self, job: usize, i: usize) -> PiecewiseConstant {
        PiecewiseConstant::seeded(self.stim_seed(job, i), 6, 50.0 * DT, 0.0, 1.0)
    }

    fn body(&self, source: &str, job: usize) -> String {
        let mut b = JsonBuf::new();
        b.begin_obj()
            .str_field("module", source)
            .f64_field("dt", self.dt(job))
            .str_field("output", OUTPUT)
            .u64_field("lane_width", LANES as u64);
        b.begin_arr("scenarios");
        for i in 0..SCENARIOS {
            b.begin_obj()
                .str_field("name", &format!("j{job}s{i}"))
                .u64_field("steps", STEPS as u64)
                .key("stim");
            b.begin_obj()
                .str_field("kind", "pwc")
                .u64_field("seed", self.stim_seed(job, i))
                .u64_field("segments", 6)
                .f64_field("hold", 50.0 * DT)
                .f64_field("lo", 0.0)
                .f64_field("hi", 1.0)
                .end_obj();
            b.end_obj();
        }
        b.end_arr();
        b.end_obj();
        b.into_string()
    }
}

/// What a client saw of one job.
struct JobResult {
    job: usize,
    latency: f64,
    first_record: f64,
    bytes: usize,
    /// The decoded stream, kept only for jobs picked for checking.
    body: Option<String>,
    error: Option<String>,
}

/// Submits one job and reads its stream to the end, stamping when the
/// first `scenario` record arrives.
fn post_job(addr: SocketAddr, body: &str, job: usize, keep: bool) -> JobResult {
    let id = trace::next_id();
    let t0 = Instant::now();
    let mut result = JobResult {
        job,
        latency: 0.0,
        first_record: 0.0,
        bytes: 0,
        body: None,
        error: None,
    };
    let raw = (|| -> std::io::Result<(Vec<u8>, Option<Instant>)> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        s.write_all(
            format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: perf\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )?;
        s.write_all(body.as_bytes())?;
        let mut raw = Vec::with_capacity(512 * 1024);
        let mut buf = [0u8; 64 * 1024];
        let mut first = None;
        const MARK: &[u8] = b"\"type\":\"scenario\"";
        loop {
            let n = s.read(&mut buf)?;
            if n == 0 {
                break;
            }
            let scan_from = raw.len().saturating_sub(MARK.len());
            raw.extend_from_slice(&buf[..n]);
            if first.is_none() && raw[scan_from..].windows(MARK.len()).any(|w| w == MARK) {
                first = Some(Instant::now());
            }
        }
        Ok((raw, first))
    })();
    let end = Instant::now();
    result.latency = (end - t0).as_secs_f64();
    trace::record("serve.job", id, t0, end);
    match raw {
        Ok((raw, first)) => {
            if let Some(f) = first {
                result.first_record = (f - t0).as_secs_f64();
                trace::record("serve.first_record", id, t0, f);
            }
            result.bytes = raw.len();
            match decode(&raw) {
                Ok(text) => {
                    result.error = stream_error(&text);
                    if keep {
                        result.body = Some(text);
                    }
                }
                Err(e) => result.error = Some(e),
            }
        }
        Err(e) => result.error = Some(format!("job {job}: {e}")),
    }
    result
}

/// Status check and chunked-transfer decoding of a whole response.
fn decode(raw: &[u8]) -> Result<String, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header")?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status = head.split(' ').nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("HTTP status {status}"));
    }
    let mut rest = &raw[head_end + 4..];
    let mut body = Vec::with_capacity(rest.len());
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk header")?;
        let size = std::str::from_utf8(&rest[..line_end])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .ok_or("bad chunk size")?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            break;
        }
        if rest.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        body.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
    String::from_utf8(body).map_err(|_| "stream is not UTF-8".into())
}

/// `None` when the stream ends with a `job.done` counting every
/// scenario as ok.
fn stream_error(text: &str) -> Option<String> {
    let last = text.lines().rev().find(|l| !l.is_empty())?;
    let rec = json::parse(last).ok()?;
    let done = rec.get("type").and_then(Json::as_str) == Some("job.done");
    let ok = rec.get("ok").and_then(Json::as_u64);
    if done && ok == Some(SCENARIOS as u64) {
        None
    } else {
        Some(format!("stream ended with {last}"))
    }
}

#[derive(Default)]
struct Ledger {
    latencies: Vec<f64>,
    first_records: Vec<f64>,
    bytes: usize,
    kept: Vec<JobResult>,
    probe: StepProbe,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        unit: "jobs",
        units_per_round: JOBS_PER_ROUND as f64,
        ..Outcome::default()
    };
    let s = harness::repeat_setup(&mut out, setup);
    let jobs = Jobs {
        seed: *cfg,
        miss_phase: (cfg.stream(7) % MISS_EVERY as u64) as usize,
    };
    let addr = s.server.local_addr();
    let mut next_job = 0usize;
    let mut ledger = Ledger::default();
    let round = |l: &mut Ledger, _traced: bool, _id: u64| {
        let mut failed = 0;
        for _ in 0..JOBS_PER_ROUND {
            let job = next_job;
            next_job += 1;
            let r = post_job(addr, &jobs.body(&s.source, job), job, jobs.is_checked(job));
            if r.error.is_some() {
                failed += 1;
            }
            l.latencies.push(r.latency);
            l.first_records.push(r.first_record);
            l.bytes += r.bytes;
            if r.body.is_some() || r.error.is_some() {
                l.kept.push(r);
            }
        }
        failed
    };
    let probe = |l: &mut Ledger| {
        let _s = trace::span("amsim.step_probe", 0);
        let mut inst = s.model.instance();
        l.probe
            .time_steps(&mut inst, &jobs.stim(1, 0), STEPS)
            .expect("the probe replays a stimulus the workload ran");
        let snap = inst.snapshot();
        l.probe.time_residuals(&mut s.model.instance(), &snap, 4096);
    };
    harness::run_rounds(
        cfg,
        &mut out,
        (JOBS_PER_ROUND as u64, "jobs"),
        &mut ledger,
        round,
        probe,
        setup,
    );

    check(&s, &jobs, &ledger, &mut out);
    if cfg.traced {
        // The one-client ledger is read before the two-client leg adds
        // its jobs to the server's report.
        layers(&mut out, &ledger, &s.server.report());
        two_clients(&s, &jobs, next_job, &ledger, &mut out);
    }
    let report = s.server.shutdown();
    let (accepted, completed) = (
        report.counter("serve.jobs.accepted"),
        report.counter("serve.jobs.completed"),
    );
    out.check(accepted == completed && accepted > 0, || {
        format!("server accepted {accepted} jobs but completed {completed}")
    });
    out
}

fn layers(out: &mut Outcome, l: &Ledger, report: &Report) {
    harness::setup_layers(out, &trace::spans(), None);
    harness::solver_layers(out, &l.probe, report, "jobs.");
    let total = |t: &str| report.timers.get(t).map_or(0.0, |t| t.total);
    let mean = |t: &str| report.timers.get(t).map_or(0.0, |t| t.mean());
    out.layer(
        "serve.sweep_share",
        total("jobs.sweep.wall") / total("serve.job"),
    );
    let (hits, misses) = (
        report.counter("serve.cache.hits") as f64,
        report.counter("serve.cache.misses") as f64,
    );
    out.layer("serve.cache.hit_ratio", hits / (hits + misses));
    let jobs_seen = l.latencies.len() as f64;
    out.layer("serve.kb_per_job", l.bytes as f64 / jobs_seen / 1024.0);
    let client_mean = l.latencies.iter().sum::<f64>() / jobs_seen;
    out.layer(
        "serve.client_gap_share",
        (client_mean - mean("serve.job")) / client_mean,
    );
    let p50 = stats::median(&l.latencies).unwrap_or(0.0);
    let (_, tail) = stats::tail(&l.latencies).unwrap_or((50.0, p50));
    out.layer("serve.job_tail_over_p50", tail / p50);
    out.layer(
        "serve.first_record_share",
        stats::median(&l.first_records).unwrap_or(0.0) / p50,
    );
    out.layer("sweep.busy_share", busy_share(report, "jobs.", 1));
}

/// Two closed-loop clients at once, each job on its own server thread
/// (the job cap of 2 admits both): throughput and median latency against
/// the one-client rounds. Per-layer only: the second vCPU of a shared
/// 2-vCPU host comes and goes, so these carry no bound.
fn two_clients(s: &Setup, jobs: &Jobs, first_job: usize, one: &Ledger, out: &mut Outcome) {
    let addr = s.server.local_addr();
    let t0 = Instant::now();
    let results: Vec<JobResult> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let results: Vec<JobResult> = (0..C2_JOBS_PER_CLIENT)
                        .map(|j| {
                            let job = first_job + 2 * j + c;
                            post_job(addr, &jobs.body(&s.source, job), job, false)
                        })
                        .collect();
                    trace::flush();
                    results
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let failed: Vec<&String> = results.iter().filter_map(|r| r.error.as_ref()).collect();
    out.ops(results.len() as u64, failed.len() as u64, "two-client jobs");
    out.failures.extend(failed.into_iter().cloned());
    let latencies: Vec<f64> = results.iter().map(|r| r.latency).collect();
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    out.layer(
        "serve.c2_speedup",
        results.len() as f64 / wall * p50(&one.latencies),
    );
    out.layer(
        "serve.c2.job_p50_over_c1",
        p50(&latencies) / p50(&one.latencies),
    );
}

/// Streamed waveforms of the kept jobs against a local batched sweep of
/// the same scenarios, bit for bit.
fn check(s: &Setup, jobs: &Jobs, l: &Ledger, out: &mut Outcome) {
    let engine = SweepEngine::new().workers(1);
    let checked = l.kept.iter().filter(|r| r.body.is_some()).count();
    out.check(checked > 0, || {
        "no streamed job was kept for checking".into()
    });
    for r in &l.kept {
        if let Some(e) = &r.error {
            out.failures.push(e.clone());
            continue;
        }
        let Some(text) = &r.body else { continue };
        let picks: Vec<usize> = (0..CHECK_SCENARIOS)
            .map(|k| k * SCENARIOS / CHECK_SCENARIOS + 3)
            .collect();
        let local: Vec<AmsScenario> = picks
            .iter()
            .map(|&i| AmsScenario {
                name: format!("j{}s{i}", r.job),
                stim: Box::new(jobs.stim(r.job, i)),
                steps: STEPS,
                newton_tol: None,
                step_control: None,
            })
            .collect();
        let local = run_ams_sweep_batched(
            &engine,
            &s.model,
            &local,
            LANES,
            &ScenarioBudget::unlimited(),
        )
        .expect("valid scenarios");
        let records: Vec<Json> = text.lines().filter_map(|l| json::parse(l).ok()).collect();
        for (k, &i) in picks.iter().enumerate() {
            let streamed = records.iter().find(|rec| {
                rec.get("type").and_then(Json::as_str) == Some("scenario")
                    && rec.get("index").and_then(Json::as_u64) == Some(i as u64)
            });
            let same = match (streamed, local.results[k].ok()) {
                (Some(rec), Some(run)) => {
                    let wave = rec.get("waveform").and_then(Json::as_array).unwrap_or(&[]);
                    wave.len() == run.waveform.len()
                        && wave
                            .iter()
                            .zip(&run.waveform)
                            .all(|(a, b)| a.as_f64().map(f64::to_bits) == Some(b.to_bits()))
                }
                _ => false,
            };
            out.check(same, || {
                format!(
                    "job {} scenario {i}: stream differs from a local sweep",
                    r.job
                )
            });
        }
    }
}
