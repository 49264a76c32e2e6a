//! Sweep-as-a-service: a std-only job server over the compiled-model
//! sweep engine.
//!
//! [`Server`] binds a [`std::net::TcpListener`] and accepts
//! scenario-sweep jobs over a minimal hand-rolled HTTP/1.1 + JSON
//! protocol (no external crates — the container that runs the virtual
//! platform is offline, like everything else in this workspace). A job
//! submits Verilog-AMS module source plus a list of stimulus scenarios;
//! the server
//!
//! 1. compiles the module **once** into an LRU [`cache::ModelCache`]
//!    keyed by a stable request-content hash (resubmitting the same
//!    module + settings is a cache hit — no reparse, no refactorization),
//! 2. shards the scenarios through [`sweep::run_ams_sweep`] on the
//!    work-stealing pool, and
//! 3. **streams** results back incrementally as chunked JSON-lines:
//!    one `scenario` record per scenario in input-index order, then a
//!    `job.report` counter snapshot and a `job.done` tally.
//!
//! # Stream determinism
//!
//! The byte stream of a job is a pure function of the request and the
//! server's `lane_width`: scenario records are reordered from the
//! engine's completion order back to input order, floats are written in
//! shortest round-trip form, and every scheduling-dependent value is
//! kept out of the stream (no worker ids, no `sweep.workers` /
//! `sweep.worker.*` counters, no timers, no wall-clock times). Running
//! the same job against servers with 1, 2, or 8 workers yields
//! byte-identical streams — the property `tests/streaming.rs` pins.
//!
//! # Quotas and backpressure
//!
//! Each job runs under a per-job [`ScenarioBudget`] (client-requested,
//! clamped by [`ServeConfig::max_steps_per_scenario`]). A server-wide
//! cap bounds concurrent jobs: when full, new submissions get `429` with
//! a `Retry-After` header instead of queueing unboundedly. Graceful
//! shutdown raises a drain flag — new jobs are rejected with a typed
//! `server.draining` record while in-flight jobs finish and flush; a
//! hard-drain deadline ([`Server::shutdown_within`]) truncates still-open
//! streams with the same typed record instead of dropping them mid-line.
//!
//! All server activity is observable through `serve.*` counters
//! (`serve.jobs.{accepted,rejected,completed,failed}`,
//! `serve.cache.{hits,misses,evictions}`, `serve.stream.records`, and
//! the `serve.job` wall-time histogram). Cache-miss compiles report into
//! the same server-wide collector, `amsim.compile.{lower,analyze}` phase
//! timers included, and never into a job's streamed counters; per-job
//! sweep reports are
//! additionally folded into the server report under a `jobs.` prefix via
//! [`obs::Report::merge_prefixed`].

pub mod cache;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod http;
pub mod json;

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use amsim::{RecoveryPolicy, SolverKind};
use amsvp_core::circuits::{PiecewiseConstant, SquareWave, Stimulus};
use cache::ModelCache;
use http::{ChunkedWriter, Limits, Request};
use json::{Json, JsonBuf};
use obs::{Obs, Report};
use sweep::{
    run_ams_sweep, AmsScenario, FaultKind, FaultPlan, FaultSpec, Recovery, ScenarioBudget,
    ScenarioOutcome, ScenarioTree, SweepEngine, SweepOptions,
};

/// Server tuning knobs. `Default` is sized for tests and local use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (the default, for tests).
    pub addr: String,
    /// Sweep workers per job (`0` = the engine's default).
    pub workers: usize,
    /// Lanes per batch block. Part of the stream-determinism contract:
    /// the same job on servers with equal `lane_width` streams identical
    /// bytes regardless of `workers`.
    pub lane_width: usize,
    /// Concurrent-job cap; submissions past it get `429` + `Retry-After`.
    pub max_jobs: usize,
    /// Concurrent-connection cap; connections past it get `503`.
    pub max_connections: usize,
    /// Compiled models kept in the LRU cache.
    pub cache_models: usize,
    /// Most scenarios one job may carry (`400` past it).
    pub max_scenarios: usize,
    /// Hard per-scenario step ceiling; client budgets are clamped to it.
    pub max_steps_per_scenario: u64,
    /// HTTP read caps (header/body size).
    pub limits: Limits,
    /// Socket read timeout (`408` when a request stalls past it).
    pub read_timeout: Option<Duration>,
    /// Seconds advertised in `Retry-After` on `429`.
    pub retry_after_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            lane_width: 4,
            max_jobs: 4,
            max_connections: 256,
            cache_models: 8,
            max_scenarios: 4096,
            max_steps_per_scenario: 1_000_000,
            limits: Limits::default(),
            read_timeout: Some(Duration::from_secs(30)),
            retry_after_secs: 1,
        }
    }
}

/// A running sweep server; dropping it (or calling
/// [`shutdown`](Server::shutdown)) drains and stops it.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

struct Shared {
    config: ServeConfig,
    local_addr: SocketAddr,
    obs: Obs,
    cache: ModelCache,
    /// Per-job sweep reports folded in under the `jobs.` prefix.
    job_reports: Mutex<Report>,
    jobs_running: AtomicUsize,
    next_job_id: AtomicU64,
    /// Reject new jobs; let in-flight ones finish.
    draining: AtomicBool,
    /// Truncate open streams at the next record boundary.
    hard_drain: AtomicBool,
    conns: Mutex<Conns>,
    conns_done: Condvar,
}

/// Connection bookkeeping shared by the accept loop and the handlers.
#[derive(Default)]
struct Conns {
    /// Connections holding a slot.
    open: usize,
    /// Handlers waiting for a connection, by index into the accept loop's
    /// handler list; the one that went idle last is last.
    idle: Vec<usize>,
}

impl Server {
    /// Binds `config.addr` and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ModelCache::new(config.cache_models),
            config,
            local_addr,
            obs: Obs::recording(),
            job_reports: Mutex::new(Report::default()),
            jobs_running: AtomicUsize::new(0),
            next_job_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            hard_drain: AtomicBool::new(false),
            conns: Mutex::new(Conns::default()),
            conns_done: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when `addr` used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A snapshot of the server-wide report: `serve.*` counters plus
    /// every finished job's sweep report merged under the `jobs.` prefix.
    pub fn report(&self) -> Report {
        // The server obs is always a recording collector, and a poisoned
        // report lock only means some job thread panicked mid-merge —
        // both degrade to the counters gathered so far, never a panic in
        // the caller asking for stats.
        let mut r = self.shared.obs.report().unwrap_or_default();
        let jobs = self
            .shared
            .job_reports
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        r.merge_prefixed(&jobs, "jobs.");
        r
    }

    /// Graceful drain: rejects new jobs, waits for every in-flight
    /// connection to finish, then stops the accept loop.
    pub fn shutdown(mut self) -> Report {
        self.drain(None);
        self.report_after_drain()
    }

    /// Drain with a hard deadline: after `deadline`, still-open streams
    /// are truncated at the next record boundary with a typed
    /// `server.draining` record (the chunked encoding is still finished
    /// cleanly, so clients see a well-formed — if shortened — stream).
    pub fn shutdown_within(mut self, deadline: Duration) -> Report {
        self.drain(Some(deadline));
        self.report_after_drain()
    }

    fn report_after_drain(mut self) -> Report {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let r = self.report();
        // Disarm the Drop path; the listener thread is already joined.
        self.shared.draining.store(true, Ordering::SeqCst);
        r
    }

    fn drain(&mut self, deadline: Option<Duration>) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // The accept loop may be parked in `accept`; poke it awake so it
        // observes the flag. A failed connect means it is already gone.
        let _ = TcpStream::connect(self.shared.local_addr);
        let start = Instant::now();
        // A poisoned connection count means a handler thread panicked
        // while holding it; the count itself stays valid (it is bumped
        // before and after the handler body), so drain proceeds on the
        // recovered guard instead of poisoning the shutdown path too.
        let mut conns = self
            .shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while conns.open > 0 {
            match deadline {
                Some(d) => {
                    let left = d.saturating_sub(start.elapsed());
                    if left.is_zero() {
                        self.shared.hard_drain.store(true, Ordering::SeqCst);
                        // Hard drain still waits: handlers notice the flag
                        // at the next record boundary and finish quickly.
                        let (g, _) = self
                            .shared
                            .conns_done
                            .wait_timeout(conns, Duration::from_millis(50))
                            .unwrap_or_else(PoisonError::into_inner);
                        conns = g;
                    } else {
                        let (g, _) = self
                            .shared
                            .conns_done
                            .wait_timeout(conns, left)
                            .unwrap_or_else(PoisonError::into_inner);
                        conns = g;
                    }
                }
                None => {
                    conns = self
                        .shared
                        .conns_done
                        .wait(conns)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.draining.load(Ordering::SeqCst) {
            self.drain(Some(Duration::from_secs(5)));
            if let Some(t) = self.accept_thread.take() {
                let _ = t.join();
            }
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Connection handlers, each fed through its own channel. A handler
    // that finishes a connection waits for the next one instead of
    // exiting, and a new connection goes to the handler that went idle
    // last, so a client that reconnects for every job is served by one
    // thread throughout. Threads that exit and start per connection would
    // leave the server's resident memory to how each exit races the
    // next thread's start: a thread still exiting holds on to its
    // allocator arena, and the new one grows another.
    let mut handlers: Vec<(mpsc::Sender<TcpStream>, thread::JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let idle = {
            let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            if conns.open >= shared.config.max_connections {
                drop(conns);
                let mut s = stream;
                let _ = http::write_response(
                    &mut s,
                    503,
                    "Service Unavailable",
                    &[],
                    "{\"type\":\"server.busy\",\"error\":\"connection limit reached\"}\n",
                );
                continue;
            }
            conns.open += 1;
            conns.idle.pop()
        };
        if let Some(i) = idle {
            // An idle handler is parked on its channel, so this cannot fail.
            let _ = handlers[i].0.send(stream);
            continue;
        }
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(stream);
        let i = handlers.len();
        let conn_shared = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                for stream in rx {
                    handle_connection(&stream, &conn_shared);
                    release_conn(&conn_shared, Some(i));
                    // The socket closes only now, so a client that
                    // reconnects once it sees the close finds this
                    // handler idle.
                    drop(stream);
                }
            });
        match spawned {
            Ok(h) => handlers.push((tx, h)),
            // Thread exhaustion must not leak the slot we just took, or
            // the drain path would wait on a connection that never ran.
            Err(_) => release_conn(&shared, None),
        }
    }
    // Only a drain ends the loop, and it waits for every slot anyway:
    // closing the channels stops the handlers, and joining them leaves
    // none running once the server has stopped.
    for (tx, h) in handlers {
        drop(tx);
        let _ = h.join();
    }
}

/// Gives a connection slot back and wakes the drain waiter; `handler`,
/// the index of the handler that held the slot, goes idle.
fn release_conn(shared: &Shared, handler: Option<usize>) {
    let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
    conns.open -= 1;
    conns.idle.extend(handler);
    shared.conns_done.notify_all();
}

fn handle_connection(stream: &TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    loop {
        let req = match http::read_request(&mut reader, &shared.config.limits) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                if let Some((status, reason)) = e.status() {
                    let mut b = JsonBuf::new();
                    b.begin_obj()
                        .str_field("type", "request.invalid")
                        .str_field("error", e.describe())
                        .end_obj();
                    let body = b.into_string() + "\n";
                    let _ = http::write_response(&mut writer, status, reason, &[], &body);
                }
                return;
            }
        };
        let close = req.wants_close();
        // With the `fault-inject` feature compiled in, an `x-fault`
        // request header wraps this response's write path in a faulty
        // stream (short writes, a mid-stream reset after N bytes, or a
        // stalled writer) so tests can drive the server's disconnect
        // handling deterministically. Compiled out otherwise.
        #[cfg(feature = "fault-inject")]
        let served = match fault::SocketFault::from_request(&req) {
            Some(plan) => {
                let mut fw = fault::FaultyStream::new(&mut writer, plan);
                handle_request(&req, &mut fw, shared)
            }
            None => handle_request(&req, &mut writer, shared),
        };
        #[cfg(not(feature = "fault-inject"))]
        let served = handle_request(&req, &mut writer, shared);
        if served.is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

fn handle_request<W: Write>(req: &Request, w: &mut W, shared: &Shared) -> io::Result<()> {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/v1/health") => {
            let mut b = JsonBuf::new();
            b.begin_obj()
                .str_field("status", "ok")
                .str_field(
                    "draining",
                    if shared.draining.load(Ordering::SeqCst) {
                        "true"
                    } else {
                        "false"
                    },
                )
                .end_obj();
            let body = b.into_string() + "\n";
            http::write_response(w, 200, "OK", &[], &body)
        }
        ("GET", "/v1/stats") => {
            let mut r = shared.obs.report().unwrap_or_default();
            let jobs = shared
                .job_reports
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            r.merge_prefixed(&jobs, "jobs.");
            drop(jobs);
            let body = r.to_json() + "\n";
            http::write_response(w, 200, "OK", &[], &body)
        }
        ("POST", "/v1/jobs") => handle_job(req, w, shared),
        _ => {
            let body = "{\"type\":\"request.invalid\",\"error\":\"no such endpoint\"}\n";
            http::write_response(w, 404, "Not Found", &[], body)
        }
    }
}

fn reject<W: Write>(w: &mut W, status: u16, reason: &str, kind: &str, msg: &str) -> io::Result<()> {
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("type", kind)
        .str_field("error", msg)
        .end_obj();
    let body = b.into_string() + "\n";
    http::write_response(w, status, reason, &[], &body)
}

fn handle_job<W: Write>(req: &Request, w: &mut W, shared: &Shared) -> io::Result<()> {
    if shared.draining.load(Ordering::SeqCst) {
        shared.obs.add("serve.jobs.rejected", 1);
        return reject(
            w,
            503,
            "Service Unavailable",
            "server.draining",
            "server is draining; resubmit elsewhere",
        );
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return reject(w, 400, "Bad Request", "job.invalid", "body is not UTF-8"),
    };
    let spec = match json::parse(body) {
        Ok(v) => v,
        Err(e) => {
            return reject(w, 400, "Bad Request", "job.invalid", &e.to_string());
        }
    };
    let job = match JobSpec::from_json(&spec, &shared.config) {
        Ok(j) => j,
        Err(msg) => return reject(w, 400, "Bad Request", "job.invalid", &msg),
    };

    // One slot per job, never over `max_jobs`: classic bounded
    // backpressure — the client is told to come back, nothing queues.
    let acquired = shared
        .jobs_running
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.config.max_jobs).then_some(n + 1)
        });
    if acquired.is_err() {
        shared.obs.add("serve.jobs.rejected", 1);
        let retry = shared.config.retry_after_secs.to_string();
        let mut b = JsonBuf::new();
        b.begin_obj()
            .str_field("type", "job.rejected")
            .str_field("error", "server at capacity; retry later")
            .end_obj();
        let body = b.into_string() + "\n";
        return http::write_response(
            w,
            429,
            "Too Many Requests",
            &[("Retry-After", &retry)],
            &body,
        );
    }
    let result = run_job(&job, w, shared);
    shared.jobs_running.fetch_sub(1, Ordering::SeqCst);
    result
}

fn compile_into_cache(
    job: &JobSpec,
    solver: SolverKind,
    key: u64,
    shared: &Shared,
) -> Result<(Arc<amsim::CompiledModel>, bool), String> {
    shared.cache.get_or_compile(key, &shared.obs, || {
        let module = vams_parser::parse_module(&job.module).map_err(|e| e.to_string())?;
        let mut sim = amsim::Simulation::new(&module)
            .dt(job.dt)
            .solver(solver)
            .collector(shared.obs.clone());
        if let Some(out) = &job.output {
            sim = sim.output(out.as_str());
        }
        if let Some(tol) = job.newton_tol {
            sim = sim.newton_tol(tol);
        }
        sim.compile().map_err(|e| e.to_string())
    })
}

fn run_job<W: Write>(job: &JobSpec, w: &mut W, shared: &Shared) -> io::Result<()> {
    let started = Instant::now();
    shared.obs.add("serve.jobs.accepted", 1);
    let job_id = shared.next_job_id.fetch_add(1, Ordering::SeqCst);

    let (model, cache_hit) = match compile_into_cache(job, job.solver, job.cache_key, shared) {
        Ok(pair) => pair,
        Err(msg) => {
            shared.obs.add("serve.jobs.failed", 1);
            return reject(w, 400, "Bad Request", "job.invalid", &msg);
        }
    };
    // The backend rung's model goes through the same LRU under the key a
    // plain dense-solver job of this module would use, so the recompile
    // is shared with (and by) ordinary submissions. A model that already
    // resolved dense has no other backend to fall back to.
    let fallback = match &job.recovery {
        Some(r) if r.fallback_dense && model.solver_kind() != SolverKind::Dense => {
            match compile_into_cache(job, SolverKind::Dense, job.dense_cache_key, shared) {
                Ok((m, _)) => Some(m),
                Err(msg) => {
                    shared.obs.add("serve.jobs.failed", 1);
                    return reject(w, 400, "Bad Request", "job.invalid", &msg);
                }
            }
        }
        _ => None,
    };

    let tree = ScenarioTree::from(job.build_scenarios(model.dt()));
    let mut stream = Stream {
        cw: ChunkedWriter::begin(&mut *w, 200, "OK")?,
        obs: &shared.obs,
        dead: false,
    };

    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("type", "job.accepted")
        .u64_field("job", job_id)
        .str_field("model_hash", &format!("{:016x}", model.model_hash()))
        .str_field("cache", if cache_hit { "hit" } else { "miss" })
        .u64_field("scenarios", tree.roots.len() as u64)
        .end_obj();
    stream.record(b);

    // Scenario records must come out in input-index order while the
    // engine completes blocks in whatever order workers finish them:
    // park early arrivals and drain the run whenever its head appears.
    let mut pending: BTreeMap<usize, String> = BTreeMap::new();
    let mut next_emit = 0usize;
    let engine = if shared.config.workers == 0 {
        SweepEngine::new()
    } else {
        SweepEngine::new().workers(shared.config.workers)
    };
    let names: Vec<&str> = job.scenarios.iter().map(|s| s.name.as_str()).collect();
    let recovering = job.recovery.is_some();
    let observe = |ev: sweep::SweepEvent<'_, ScenarioOutcome<sweep::AmsRun, amsim::AmsError>>| {
        if shared.hard_drain.load(Ordering::SeqCst) {
            return;
        }
        for (off, res) in ev.results.iter().enumerate() {
            let idx = ev.first_index + off;
            pending.insert(idx, scenario_record(idx, names[idx], res));
        }
        while let Some(rec) = pending.remove(&next_emit) {
            stream.record_str(&rec);
            next_emit += 1;
        }
    };
    let mut watchdog = None;
    let recovery = job.recovery.as_ref().map(|r| {
        let cancel = Arc::new(AtomicBool::new(false));
        watchdog = r
            .watchdog_secs
            .and_then(|secs| Watchdog::arm(secs, Arc::clone(&cancel)));
        Recovery {
            policy: r.policy,
            fallback,
            plan: r.plan.clone(),
            cancel: Some(cancel),
        }
    });
    let options = SweepOptions {
        lane_width: job.lane_width,
        budget: job.budget,
        recovery,
    };
    let outcome = run_ams_sweep(&engine, &model, &tree, &options, observe);
    let watchdog_fired = watchdog.take().is_some_and(Watchdog::disarm);

    match outcome {
        Ok(outcome) => {
            if shared.hard_drain.load(Ordering::SeqCst) {
                let mut b = JsonBuf::new();
                b.begin_obj()
                    .str_field("type", "server.draining")
                    .u64_field("job", job_id)
                    .str_field("error", "stream truncated by server drain")
                    .end_obj();
                stream.record(b);
            } else {
                let mut b = JsonBuf::new();
                b.begin_obj()
                    .str_field("type", "job.report")
                    .key("counters");
                b.begin_obj();
                for (k, v) in &outcome.report.counters {
                    if deterministic_counter(k) {
                        b.u64_field(k, *v);
                    }
                }
                b.end_obj();
                b.end_obj();
                stream.record(b);

                let mut tally = [0u64; 5];
                let mut by_rung = [0u64; 3];
                for r in &outcome.results {
                    let slot = match r {
                        ScenarioOutcome::Ok(_) => 0,
                        ScenarioOutcome::Failed { .. } => 1,
                        ScenarioOutcome::Panicked(_) => 2,
                        ScenarioOutcome::Budget(_) => 3,
                        ScenarioOutcome::Recovered { rung, .. } => {
                            by_rung[match rung {
                                sweep::RecoveryRung::Resume => 0,
                                sweep::RecoveryRung::Restart => 1,
                                sweep::RecoveryRung::Backend => 2,
                            }] += 1;
                            4
                        }
                    };
                    tally[slot] += 1;
                }
                // Recovering jobs summarize their rescues before the
                // terminal record; plain jobs keep the historical stream
                // byte-for-byte (no `recovered` field, no extra record).
                if recovering && tally[4] > 0 {
                    let mut b = JsonBuf::new();
                    b.begin_obj()
                        .str_field("type", "job.recovered")
                        .u64_field("job", job_id)
                        .u64_field("resume", by_rung[0])
                        .u64_field("restart", by_rung[1])
                        .u64_field("backend", by_rung[2])
                        .end_obj();
                    stream.record(b);
                }
                if watchdog_fired {
                    let mut b = JsonBuf::new();
                    b.begin_obj()
                        .str_field("type", "job.watchdog")
                        .u64_field("job", job_id)
                        .u64_field("killed", tally[3])
                        .end_obj();
                    stream.record(b);
                } else {
                    let mut b = JsonBuf::new();
                    b.begin_obj()
                        .str_field("type", "job.done")
                        .u64_field("job", job_id)
                        .u64_field("ok", tally[0]);
                    if recovering {
                        b.u64_field("recovered", tally[4]);
                    }
                    b.u64_field("failed", tally[1])
                        .u64_field("panicked", tally[2])
                        .u64_field("budget", tally[3])
                        .end_obj();
                    stream.record(b);
                }
            }
            if watchdog_fired {
                // Conservation contract: every accepted job lands in
                // exactly one of completed / watchdog / failed.
                shared.obs.add("serve.jobs.watchdog", 1);
            } else {
                shared.obs.add("serve.jobs.completed", 1);
            }
            shared
                .obs
                .time("serve.job", started.elapsed().as_secs_f64());
            shared
                .job_reports
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .merge(&outcome.report);
        }
        Err(e) => {
            // Scenario overrides are validated at parse time, so this is
            // a defensive path; it still ends the stream with a typed
            // record rather than a dangling chunk.
            let mut b = JsonBuf::new();
            b.begin_obj()
                .str_field("type", "job.error")
                .u64_field("job", job_id)
                .str_field("error", &e.to_string())
                .end_obj();
            stream.record(b);
            shared.obs.add("serve.jobs.failed", 1);
        }
    }
    let dead = stream.dead;
    stream.finish();
    if dead {
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "client disconnected mid-stream",
        ));
    }
    Ok(())
}

/// The streamed record writer: one chunk per JSON-lines record, counting
/// `serve.stream.records`. A write failure (client gone mid-stream)
/// flips `dead` and silences further writes — the sweep itself finishes
/// and is accounted normally; only the transport is abandoned.
struct Stream<'a, W: Write> {
    cw: ChunkedWriter<W>,
    obs: &'a Obs,
    dead: bool,
}

impl<W: Write> Stream<'_, W> {
    fn record(&mut self, b: JsonBuf) {
        self.record_str(b.as_str());
    }

    fn record_str(&mut self, rec: &str) {
        if self.dead {
            return;
        }
        let mut line = String::with_capacity(rec.len() + 1);
        line.push_str(rec);
        line.push('\n');
        if self.cw.write_chunk(&line).is_err() {
            self.dead = true;
        } else {
            self.obs.add("serve.stream.records", 1);
        }
    }

    fn finish(self) {
        if !self.dead {
            let _ = self.cw.finish();
        }
    }
}

/// Whether a merged-report counter is part of the deterministic stream
/// surface. Scheduling-dependent names are excluded so the `job.report`
/// record is identical for any worker count.
fn deterministic_counter(name: &str) -> bool {
    name != "sweep.workers" && !name.starts_with("sweep.worker.")
}

fn scenario_record(
    index: usize,
    name: &str,
    res: &ScenarioOutcome<sweep::AmsRun, amsim::AmsError>,
) -> String {
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("type", "scenario")
        .u64_field("index", index as u64)
        .str_field("name", name);
    match res {
        ScenarioOutcome::Ok(run) => {
            b.str_field("status", "ok")
                .u64_field("newton_iters", run.newton_iters);
            b.begin_arr("waveform");
            for v in &run.waveform {
                b.f64_elem(*v);
            }
            b.end_arr();
        }
        ScenarioOutcome::Recovered {
            result: run,
            rung,
            attempts,
        } => {
            b.str_field("status", "recovered")
                .str_field("rung", rung.name())
                .u64_field("attempts", attempts.len() as u64)
                .u64_field("newton_iters", run.newton_iters);
            b.begin_arr("waveform");
            for v in &run.waveform {
                b.f64_elem(*v);
            }
            b.end_arr();
        }
        ScenarioOutcome::Failed { error, attempts } => {
            b.str_field("status", "failed")
                .str_field("error", &error.to_string());
            // Plain jobs always have an empty trail, keeping their
            // stream bytes identical to the pre-recovery protocol.
            if !attempts.is_empty() {
                b.u64_field("attempts", attempts.len() as u64);
            }
        }
        ScenarioOutcome::Panicked(msg) => {
            b.str_field("status", "panicked").str_field("error", msg);
        }
        // Only the deterministic half of the budget verdict is streamed:
        // `steps` is exact, the wall clock is not.
        ScenarioOutcome::Budget(b_ex) => {
            b.str_field("status", "budget")
                .u64_field("steps", b_ex.steps);
        }
    }
    b.end_obj();
    b.into_string()
}

/// Per-job watchdog: a helper thread that trips the sweep's cancel
/// token once the job overruns its deadline, hard-killing every
/// still-running lane with a budget verdict at the next step boundary.
struct Watchdog {
    fired: Arc<AtomicBool>,
    done: Arc<(Mutex<bool>, Condvar)>,
    handle: thread::JoinHandle<()>,
}

impl Watchdog {
    /// Arms a watchdog that sets `cancel` after `secs` seconds unless
    /// disarmed first. `None` if the thread cannot be spawned — the job
    /// then simply runs unwatched rather than failing.
    fn arm(secs: f64, cancel: Arc<AtomicBool>) -> Option<Watchdog> {
        let fired = Arc::new(AtomicBool::new(false));
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = thread::Builder::new()
            .name("serve-watchdog".to_string())
            .spawn({
                let fired = Arc::clone(&fired);
                let done = Arc::clone(&done);
                move || {
                    let deadline = Duration::from_secs_f64(secs.max(0.0));
                    let start = Instant::now();
                    let (lock, cv) = &*done;
                    let mut finished = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    while !*finished {
                        let left = deadline.saturating_sub(start.elapsed());
                        if left.is_zero() {
                            fired.store(true, Ordering::SeqCst);
                            cancel.store(true, Ordering::SeqCst);
                            return;
                        }
                        let (g, _) = cv
                            .wait_timeout(finished, left)
                            .unwrap_or_else(PoisonError::into_inner);
                        finished = g;
                    }
                }
            })
            .ok()?;
        Some(Watchdog {
            fired,
            done,
            handle,
        })
    }

    /// Stops the watchdog and reports whether it fired.
    fn disarm(self) -> bool {
        {
            let (lock, cv) = &*self.done;
            let mut finished = lock.lock().unwrap_or_else(PoisonError::into_inner);
            *finished = true;
            cv.notify_all();
        }
        let _ = self.handle.join();
        self.fired.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// A validated job request.
struct JobSpec {
    module: String,
    dt: f64,
    output: Option<String>,
    newton_tol: Option<f64>,
    solver: SolverKind,
    lane_width: usize,
    budget: ScenarioBudget,
    scenarios: Vec<ScenarioSpec>,
    /// FNV-1a over everything that affects compilation — the model-cache
    /// key (scenarios deliberately excluded: they only affect instances).
    cache_key: u64,
    /// Cache key the same job would get with `solver: "dense"` — where
    /// the backend-switch rung's fallback model lives in the LRU.
    dense_cache_key: u64,
    /// Recovery-ladder configuration; `None` routes the legacy batched
    /// sweep path with byte-identical stream output.
    recovery: Option<JobRecovery>,
}

/// Recovery-ladder knobs carried by a job.
struct JobRecovery {
    policy: RecoveryPolicy,
    /// Compile a dense fallback model for the backend-switch rung.
    fallback_dense: bool,
    plan: FaultPlan,
    /// Hard deadline in seconds; overruns trip the sweep's cancel token.
    watchdog_secs: Option<f64>,
}

struct ScenarioSpec {
    name: String,
    steps: usize,
    newton_tol: Option<f64>,
    stim: StimSpec,
}

enum StimSpec {
    Const(f64),
    Square {
        period: f64,
        high: f64,
        low: f64,
    },
    Pwc {
        seed: u64,
        segments: usize,
        hold: f64,
        lo: f64,
        hi: f64,
    },
    /// Fault injection for the soak battery: the stimulus panics once
    /// simulated time reaches the given step.
    PanicAt {
        step: usize,
    },
}

/// A fixed-level stimulus.
struct ConstStim(f64);

impl Stimulus for ConstStim {
    fn value(&self, _t: f64) -> f64 {
        self.0
    }
}

/// Panics when sampled at or past `t_panic` — exercises the engine's
/// panic containment end to end from a hostile job.
struct PanicAtStim {
    t_panic: f64,
}

impl Stimulus for PanicAtStim {
    fn value(&self, t: f64) -> f64 {
        assert!(t < self.t_panic, "injected stimulus panic at t={t}");
        0.5
    }
}

impl JobSpec {
    fn from_json(v: &Json, config: &ServeConfig) -> Result<JobSpec, String> {
        let module = v
            .get("module")
            .and_then(Json::as_str)
            .ok_or("`module` (string) is required")?
            .to_string();
        let dt = match v.get("dt") {
            None => 1e-6,
            Some(d) => d.as_f64().ok_or("`dt` must be a number")?,
        };
        if !(dt.is_finite() && dt > 0.0) {
            return Err("`dt` must be a positive finite number".to_string());
        }
        let output = match v.get("output") {
            None => None,
            Some(o) => Some(o.as_str().ok_or("`output` must be a string")?.to_string()),
        };
        let newton_tol = parse_tol(v.get("newton_tol"), "newton_tol")?;
        let solver = match v.get("solver") {
            None => SolverKind::Auto,
            Some(s) => match s.as_str() {
                Some("auto") => SolverKind::Auto,
                Some("dense") => SolverKind::Dense,
                Some("sparse") => SolverKind::Sparse,
                _ => return Err("`solver` must be \"auto\", \"dense\" or \"sparse\"".to_string()),
            },
        };
        let lane_width = match v.get("lane_width") {
            None => config.lane_width,
            Some(l) => {
                let l = l
                    .as_u64()
                    .ok_or("`lane_width` must be a positive integer")?;
                if l == 0 || l > 64 {
                    return Err("`lane_width` must be between 1 and 64".to_string());
                }
                l as usize
            }
        };
        let mut budget = ScenarioBudget::unlimited().max_steps(config.max_steps_per_scenario);
        if let Some(bv) = v.get("budget") {
            if let Some(ms) = bv.get("max_steps") {
                let ms = ms.as_u64().ok_or("`budget.max_steps` must be an integer")?;
                budget = budget.max_steps(ms.min(config.max_steps_per_scenario));
            }
            if let Some(mw) = bv.get("max_wall") {
                let mw = mw.as_f64().ok_or("`budget.max_wall` must be a number")?;
                if !(mw.is_finite() && mw > 0.0) {
                    return Err("`budget.max_wall` must be positive".to_string());
                }
                budget = budget.max_wall(mw);
            }
        }
        let list = v
            .get("scenarios")
            .and_then(Json::as_array)
            .ok_or("`scenarios` (array) is required")?;
        if list.is_empty() {
            return Err("`scenarios` must not be empty".to_string());
        }
        if list.len() > config.max_scenarios {
            return Err(format!(
                "too many scenarios: {} (limit {})",
                list.len(),
                config.max_scenarios
            ));
        }
        let mut scenarios = Vec::with_capacity(list.len());
        for (i, sv) in list.iter().enumerate() {
            scenarios.push(ScenarioSpec::from_json(sv, i, config)?);
        }

        let recovery = JobRecovery::from_json(v)?;

        let key = |s: SolverKind| {
            let mut h = Fnv1a::new();
            h.write(module.as_bytes());
            h.write_u64(dt.to_bits());
            h.write(output.as_deref().unwrap_or("").as_bytes());
            h.write_u64(newton_tol.map(f64::to_bits).unwrap_or(u64::MAX));
            h.write(format!("{s:?}").as_bytes());
            h.finish()
        };

        Ok(JobSpec {
            cache_key: key(solver),
            dense_cache_key: key(SolverKind::Dense),
            module,
            dt,
            output,
            newton_tol,
            solver,
            lane_width,
            budget,
            scenarios,
            recovery,
        })
    }

    fn build_scenarios(&self, dt: f64) -> Vec<AmsScenario> {
        self.scenarios
            .iter()
            .map(|s| AmsScenario {
                name: s.name.clone(),
                stim: match &s.stim {
                    StimSpec::Const(v) => Box::new(ConstStim(*v)),
                    StimSpec::Square { period, high, low } => Box::new(SquareWave {
                        period: *period,
                        high: *high,
                        low: *low,
                    }),
                    StimSpec::Pwc {
                        seed,
                        segments,
                        hold,
                        lo,
                        hi,
                    } => Box::new(PiecewiseConstant::seeded(*seed, *segments, *hold, *lo, *hi)),
                    StimSpec::PanicAt { step } => Box::new(PanicAtStim {
                        t_panic: (*step as f64 - 0.5) * dt,
                    }),
                },
                steps: s.steps,
                newton_tol: s.newton_tol,
                step_control: None,
            })
            .collect()
    }
}

impl JobRecovery {
    /// Parses the recovery-related top-level keys. Any of `recovery`,
    /// `faults`, `fault_seed`/`fault_period` or `watchdog_secs` present
    /// enables the ladder path; all absent keeps the legacy pipeline.
    fn from_json(v: &Json) -> Result<Option<JobRecovery>, String> {
        let rv = v.get("recovery");
        let fv = v.get("faults");
        let seed = v.get("fault_seed");
        let period = v.get("fault_period");
        let wd = v.get("watchdog_secs");
        if rv.is_none() && fv.is_none() && seed.is_none() && period.is_none() && wd.is_none() {
            return Ok(None);
        }

        let mut policy = RecoveryPolicy::default();
        let mut fallback_dense = true;
        if let Some(rv) = rv {
            if let Some(n) = rv.get("max_recoveries") {
                let n = n
                    .as_u64()
                    .ok_or("`recovery.max_recoveries` must be an integer")?;
                policy.max_recoveries = n.min(u32::MAX as u64) as u32;
            }
            if let Some(n) = rv.get("snapshot_every") {
                policy.snapshot_every_n_steps = n
                    .as_u64()
                    .ok_or("`recovery.snapshot_every` must be an integer")?;
            }
            if let Some(n) = rv.get("min_dt_scale") {
                let s = n
                    .as_f64()
                    .ok_or("`recovery.min_dt_scale` must be a number")?;
                if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                    return Err("`recovery.min_dt_scale` must be in (0, 1]".to_string());
                }
                policy.min_dt_scale = s;
            }
            if let Some(n) = rv.get("extra_retries") {
                let n = n
                    .as_u64()
                    .ok_or("`recovery.extra_retries` must be an integer")?;
                policy.extra_retries = n.min(u32::MAX as u64) as u32;
            }
            match rv.get("fallback").map(Json::as_str) {
                None => {}
                Some(Some("dense")) => fallback_dense = true,
                Some(Some("none")) => fallback_dense = false,
                _ => return Err("`recovery.fallback` must be \"dense\" or \"none\"".to_string()),
            }
        }

        let mut plan = FaultPlan::new();
        if let Some(fv) = fv {
            let list = fv.as_array().ok_or("`faults` must be an array")?;
            for (i, f) in list.iter().enumerate() {
                let index = f
                    .get("index")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("`faults[{i}].index` (integer) is required"))?
                    as usize;
                let step = f
                    .get("step")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("`faults[{i}].step` (integer) is required"))?;
                let kind = match f.get("kind").and_then(Json::as_str) {
                    Some("residual_nan") => FaultKind::ResidualNan,
                    Some("refactor_singular") => FaultKind::RefactorSingular,
                    Some("refactor_non_finite") => FaultKind::RefactorNonFinite,
                    Some("stimulus_panic") => FaultKind::StimulusPanic,
                    Some("stimulus_stall") => FaultKind::StimulusStall {
                        millis: f.get("millis").and_then(Json::as_u64).unwrap_or(10),
                    },
                    _ => {
                        return Err(format!(
                            "`faults[{i}].kind` must be one of residual_nan, \
                             refactor_singular, refactor_non_finite, \
                             stimulus_panic, stimulus_stall"
                        ))
                    }
                };
                plan = plan.target(index, FaultSpec { kind, step });
            }
        }
        if seed.is_some() || period.is_some() {
            let s = seed
                .map(|s| s.as_u64().ok_or("`fault_seed` must be an integer"))
                .transpose()?
                .unwrap_or(0);
            let p = period
                .map(|p| p.as_u64().ok_or("`fault_period` must be an integer"))
                .transpose()?
                .unwrap_or(0);
            plan = plan.seeded(s, p);
        }

        let watchdog_secs = match wd {
            None => None,
            Some(w) => {
                let w = w.as_f64().ok_or("`watchdog_secs` must be a number")?;
                if !(w.is_finite() && w > 0.0) {
                    return Err("`watchdog_secs` must be positive".to_string());
                }
                Some(w)
            }
        };

        Ok(Some(JobRecovery {
            policy,
            fallback_dense,
            plan,
            watchdog_secs,
        }))
    }
}

impl ScenarioSpec {
    fn from_json(v: &Json, index: usize, config: &ServeConfig) -> Result<ScenarioSpec, String> {
        let name = match v.get("name") {
            None => format!("s{index}"),
            Some(n) => n
                .as_str()
                .ok_or(format!("scenario {index}: `name` must be a string"))?
                .to_string(),
        };
        let steps = v
            .get("steps")
            .and_then(Json::as_u64)
            .ok_or(format!("scenario {index}: `steps` (integer) is required"))?;
        if steps == 0 || steps > config.max_steps_per_scenario {
            return Err(format!(
                "scenario {index}: `steps` must be in 1..={}",
                config.max_steps_per_scenario
            ));
        }
        let newton_tol = parse_tol(
            v.get("newton_tol"),
            &format!("scenario {index}: newton_tol"),
        )?;
        let sv = v
            .get("stim")
            .ok_or(format!("scenario {index}: `stim` (object) is required"))?;
        let kind = sv
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("scenario {index}: `stim.kind` is required"))?;
        let num = |key: &str| -> Result<f64, String> {
            sv.get(key)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite())
                .ok_or(format!(
                    "scenario {index}: `stim.{key}` (finite number) is required for kind `{kind}`"
                ))
        };
        let stim = match kind {
            "const" => StimSpec::Const(num("value")?),
            "square" => {
                let period = num("period")?;
                if period <= 0.0 {
                    return Err(format!("scenario {index}: `stim.period` must be positive"));
                }
                StimSpec::Square {
                    period,
                    high: num("high")?,
                    low: num("low")?,
                }
            }
            "pwc" => {
                let seed = sv.get("seed").and_then(Json::as_u64).ok_or(format!(
                    "scenario {index}: `stim.seed` (integer) is required"
                ))?;
                let segments = sv
                    .get("segments")
                    .and_then(Json::as_u64)
                    .filter(|&s| s > 0 && s <= 65536)
                    .ok_or(format!(
                        "scenario {index}: `stim.segments` must be in 1..=65536"
                    ))? as usize;
                let hold = num("hold")?;
                if hold <= 0.0 {
                    return Err(format!("scenario {index}: `stim.hold` must be positive"));
                }
                StimSpec::Pwc {
                    seed,
                    segments,
                    hold,
                    lo: num("lo")?,
                    hi: num("hi")?,
                }
            }
            "panic_at" => {
                let step = sv.get("step").and_then(Json::as_u64).ok_or(format!(
                    "scenario {index}: `stim.step` (integer) is required"
                ))?;
                StimSpec::PanicAt {
                    step: step as usize,
                }
            }
            other => {
                return Err(format!(
                    "scenario {index}: unknown stim kind `{other}` \
                     (expected const, square, pwc or panic_at)"
                ))
            }
        };
        Ok(ScenarioSpec {
            name,
            steps: steps as usize,
            newton_tol,
            stim,
        })
    }
}

fn parse_tol(v: Option<&Json>, what: &str) -> Result<Option<f64>, String> {
    match v {
        None => Ok(None),
        Some(t) => {
            let t = t
                .as_f64()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or(format!("`{what}` must be a positive finite number"))?;
            Ok(Some(t))
        }
    }
}

/// FNV-1a, the same stable construction `amsim` uses for model hashes —
/// std's `DefaultHasher` is explicitly unstable across releases and a
/// cache key must not rotate under a toolchain bump.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// One-shot connections made one after another, each read to its
    /// close, are all served by the first handler: it goes idle before
    /// it closes the socket, so the next connection finds it idle.
    #[test]
    fn sequential_connections_reuse_one_handler() {
        let server = Server::start(ServeConfig::default()).expect("server starts");
        for _ in 0..4 {
            let mut s = TcpStream::connect(server.local_addr()).expect("connect");
            s.write_all(b"GET /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .expect("send");
            let mut response = Vec::new();
            s.read_to_end(&mut response).expect("read to the close");
            assert!(response.starts_with(b"HTTP/1.1 200"));
            let conns = server.shared.conns.lock().expect("no handler panicked");
            assert_eq!((conns.open, conns.idle.as_slice()), (0, &[0][..]));
        }
    }
}
