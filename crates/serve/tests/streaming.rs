//! Streaming determinism: a job's byte stream is a pure function of the
//! request and the server's `lane_width` — the worker count must leave
//! no fingerprint. Pinned two ways, over the golden corpus (dense RC1
//! and sparse RC30):
//!
//! 1. the concatenated streamed records are **byte-identical** across
//!    servers with 1, 2, and 8 workers, and
//! 2. the streamed waveforms and `job.report` counters equal a local
//!    batch run of the same scenarios bit-for-bit — the network path
//!    adds transport, never drift.

mod common;

use std::sync::Arc;

use amsvp_core::circuits::{diode_clamp, rc_ladder, PiecewiseConstant};
use amsvp_serve::json::{self, Json, JsonBuf};
use amsvp_serve::{ServeConfig, Server};
use sweep::{
    run_ams_sweep, AmsScenario, ScenarioBudget, ScenarioOutcome, ScenarioTree, SweepEngine,
    SweepOptions,
};

const LANE_WIDTH: usize = 4;
const STEPS: u64 = 40;
const BUDGET_STEPS: u64 = 40;

/// The job used throughout: a stimulus mix (seeded piecewise-constant,
/// square, const), one scenario that trips the step budget, and one that
/// panics mid-run — every record shape the stream can carry.
fn job_body(module: &str) -> String {
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("module", module)
        .f64_field("dt", 1e-6)
        .str_field("output", "V(out)")
        .u64_field("lane_width", LANE_WIDTH as u64);
    b.key("budget");
    b.begin_obj().u64_field("max_steps", BUDGET_STEPS).end_obj();
    b.begin_arr("scenarios");
    for i in 0..6u64 {
        b.begin_obj()
            .str_field("name", &format!("pwc{i}"))
            .u64_field("steps", STEPS)
            .key("stim");
        b.begin_obj()
            .str_field("kind", "pwc")
            .u64_field("seed", i + 1)
            .u64_field("segments", 5)
            .f64_field("hold", 5e-6)
            .f64_field("lo", 0.0)
            .f64_field("hi", 1.0)
            .end_obj();
        b.end_obj();
    }
    b.begin_obj()
        .str_field("name", "square")
        .u64_field("steps", STEPS)
        .key("stim");
    b.begin_obj()
        .str_field("kind", "square")
        .f64_field("period", 2e-5)
        .f64_field("high", 1.0)
        .f64_field("low", -0.5)
        .end_obj();
    b.end_obj();
    b.begin_obj()
        .str_field("name", "hold")
        .u64_field("steps", STEPS)
        .key("stim");
    b.begin_obj()
        .str_field("kind", "const")
        .f64_field("value", 0.75)
        .end_obj();
    b.end_obj();
    b.begin_obj()
        .str_field("name", "over-budget")
        .u64_field("steps", BUDGET_STEPS + 20)
        .key("stim");
    b.begin_obj()
        .str_field("kind", "const")
        .f64_field("value", 0.25)
        .end_obj();
    b.end_obj();
    b.begin_obj()
        .str_field("name", "hostile")
        .u64_field("steps", STEPS)
        .key("stim");
    b.begin_obj()
        .str_field("kind", "panic_at")
        .u64_field("step", 7)
        .end_obj();
    b.end_obj();
    b.end_arr();
    b.end_obj();
    b.into_string()
}

fn stream_with_workers(module: &str, workers: usize) -> String {
    let server = Server::start(ServeConfig {
        workers,
        lane_width: LANE_WIDTH,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let resp = common::post(server.local_addr(), "/v1/jobs", &job_body(module));
    assert_eq!(resp.status, 200, "job accepted: {}", resp.body);
    server.shutdown();
    resp.body
}

#[test]
fn stream_is_byte_identical_across_worker_counts() {
    for module in [rc_ladder(1), rc_ladder(30)] {
        let reference = stream_with_workers(&module, 1);
        for workers in [2usize, 8] {
            let stream = stream_with_workers(&module, workers);
            assert_eq!(
                stream, reference,
                "stream under {workers} workers diverged from the 1-worker bytes"
            );
        }
    }
}

#[test]
fn stream_matches_local_batch_run_bit_for_bit() {
    for module_src in [rc_ladder(1), rc_ladder(30)] {
        let stream = stream_with_workers(&module_src, 2);
        let records: Vec<Json> = stream
            .lines()
            .filter(|l| !l.is_empty())
            .map(|l| json::parse(l).expect("stream record parses"))
            .collect();

        // Local reference: the exact scenarios the job carries, run
        // through the sweep entry point directly.
        let module = vams_parser::parse_module(&module_src).expect("module parses");
        let model: Arc<_> = amsim::Simulation::new(&module)
            .dt(1e-6)
            .output("V(out)")
            .compile()
            .expect("module compiles");
        let mut scenarios: Vec<AmsScenario> = (0..6u64)
            .map(|i| AmsScenario {
                name: format!("pwc{i}"),
                stim: Box::new(PiecewiseConstant::seeded(i + 1, 5, 5e-6, 0.0, 1.0)),
                steps: STEPS as usize,
                newton_tol: None,
                step_control: None,
            })
            .collect();
        scenarios.push(AmsScenario {
            name: "square".into(),
            stim: Box::new(amsvp_core::circuits::SquareWave {
                period: 2e-5,
                high: 1.0,
                low: -0.5,
            }),
            steps: STEPS as usize,
            newton_tol: None,
            step_control: None,
        });
        struct Const(f64);
        impl amsvp_core::circuits::Stimulus for Const {
            fn value(&self, _t: f64) -> f64 {
                self.0
            }
        }
        scenarios.push(AmsScenario {
            name: "hold".into(),
            stim: Box::new(Const(0.75)),
            steps: STEPS as usize,
            newton_tol: None,
            step_control: None,
        });
        scenarios.push(AmsScenario {
            name: "over-budget".into(),
            stim: Box::new(Const(0.25)),
            steps: (BUDGET_STEPS + 20) as usize,
            newton_tol: None,
            step_control: None,
        });
        struct PanicAt(f64);
        impl amsvp_core::circuits::Stimulus for PanicAt {
            fn value(&self, t: f64) -> f64 {
                assert!(t < self.0, "injected stimulus panic at t={t}");
                0.5
            }
        }
        scenarios.push(AmsScenario {
            name: "hostile".into(),
            stim: Box::new(PanicAt((7.0 - 0.5) * 1e-6)),
            steps: STEPS as usize,
            newton_tol: None,
            step_control: None,
        });
        let options = SweepOptions {
            lane_width: LANE_WIDTH,
            budget: ScenarioBudget::unlimited().max_steps(BUDGET_STEPS),
            recovery: None,
        };
        let outcome = run_ams_sweep(
            &SweepEngine::new().workers(2),
            &model,
            &ScenarioTree::from(scenarios),
            &options,
            |_| {},
        )
        .expect("local sweep runs");

        // job.accepted leads and carries the model identity.
        assert_eq!(
            records[0].get("type").unwrap().as_str(),
            Some("job.accepted")
        );
        assert_eq!(
            records[0].get("model_hash").unwrap().as_str(),
            Some(format!("{:016x}", model.model_hash()).as_str())
        );
        assert_eq!(records[0].get("cache").unwrap().as_str(), Some("miss"));

        // One scenario record per input index, in order, matching the
        // local outcome bit for bit.
        let scenario_records: Vec<&Json> = records
            .iter()
            .filter(|r| r.get("type").unwrap().as_str() == Some("scenario"))
            .collect();
        assert_eq!(scenario_records.len(), outcome.results.len());
        for (i, (rec, local)) in scenario_records.iter().zip(&outcome.results).enumerate() {
            assert_eq!(rec.get("index").unwrap().as_u64(), Some(i as u64));
            match local {
                ScenarioOutcome::Ok(run) => {
                    assert_eq!(rec.get("status").unwrap().as_str(), Some("ok"));
                    assert_eq!(rec.get("name").unwrap().as_str(), Some(run.name.as_str()));
                    assert_eq!(
                        rec.get("newton_iters").unwrap().as_u64(),
                        Some(run.newton_iters)
                    );
                    let wave = rec.get("waveform").unwrap().as_array().unwrap();
                    assert_eq!(wave.len(), run.waveform.len());
                    for (streamed, local) in wave.iter().zip(&run.waveform) {
                        assert_eq!(
                            streamed.as_f64().unwrap().to_bits(),
                            local.to_bits(),
                            "scenario {i}: streamed float must round-trip bit-exactly"
                        );
                    }
                }
                ScenarioOutcome::Budget(b) => {
                    assert_eq!(rec.get("status").unwrap().as_str(), Some("budget"));
                    assert_eq!(rec.get("steps").unwrap().as_u64(), Some(b.steps));
                }
                ScenarioOutcome::Panicked(msg) => {
                    assert_eq!(rec.get("status").unwrap().as_str(), Some("panicked"));
                    assert_eq!(rec.get("error").unwrap().as_str(), Some(msg.as_str()));
                }
                ScenarioOutcome::Failed { error, .. } => {
                    assert_eq!(rec.get("status").unwrap().as_str(), Some("failed"));
                    assert_eq!(
                        rec.get("error").unwrap().as_str(),
                        Some(error.to_string().as_str())
                    );
                }
                ScenarioOutcome::Recovered { .. } => {
                    assert_eq!(rec.get("status").unwrap().as_str(), Some("recovered"));
                }
            }
        }

        // job.report equals the local merged report minus the
        // scheduling-dependent names (and timers, which carry wall time).
        let report_rec = records
            .iter()
            .find(|r| r.get("type").unwrap().as_str() == Some("job.report"))
            .expect("job.report record");
        let streamed = match report_rec.get("counters").unwrap() {
            Json::Obj(m) => m,
            other => panic!("counters must be an object, got {other:?}"),
        };
        let expected: Vec<(&String, &u64)> = outcome
            .report
            .counters
            .iter()
            .filter(|(k, _)| *k != "sweep.workers" && !k.starts_with("sweep.worker."))
            .collect();
        assert_eq!(streamed.len(), expected.len());
        for (k, v) in expected {
            assert_eq!(
                streamed.get(k).and_then(Json::as_u64),
                Some(*v),
                "counter {k} diverged between stream and local batch run"
            );
        }

        // job.done tallies the outcome mix: 8 ok, 1 budget, 1 panicked.
        let done = records.last().unwrap();
        assert_eq!(done.get("type").unwrap().as_str(), Some("job.done"));
        assert_eq!(done.get("ok").unwrap().as_u64(), Some(8));
        assert_eq!(done.get("budget").unwrap().as_u64(), Some(1));
        assert_eq!(done.get("panicked").unwrap().as_u64(), Some(1));
        assert_eq!(done.get("failed").unwrap().as_u64(), Some(0));
    }
}

#[test]
fn resubmitting_the_same_module_hits_the_model_cache() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let body = job_body(&rc_ladder(1));
    let first = common::post(server.local_addr(), "/v1/jobs", &body);
    let second = common::post(server.local_addr(), "/v1/jobs", &body);
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    let first_rec = json::parse(first.records()[0]).unwrap();
    let second_rec = json::parse(second.records()[0]).unwrap();
    assert_eq!(first_rec.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(second_rec.get("cache").unwrap().as_str(), Some("hit"));
    assert_eq!(
        first_rec.get("model_hash").unwrap().as_str(),
        second_rec.get("model_hash").unwrap().as_str()
    );
    let report = server.shutdown();
    assert_eq!(report.counter("serve.cache.misses"), 1);
    assert_eq!(report.counter("serve.cache.hits"), 1);
    assert_eq!(report.counter("serve.jobs.accepted"), 2);
    assert_eq!(report.counter("serve.jobs.completed"), 2);
}

/// A job with an empty `recovery` block over two seeded scenarios: the
/// ladder runs with its defaults, including the dense fallback.
fn recovery_job(module: &str) -> String {
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("module", module)
        .f64_field("dt", 1e-6)
        .str_field("output", "V(out)");
    b.key("recovery");
    b.begin_obj().end_obj();
    b.begin_arr("scenarios");
    for i in 0..2u64 {
        b.begin_obj()
            .str_field("name", &format!("pwc{i}"))
            .u64_field("steps", STEPS)
            .key("stim");
        b.begin_obj()
            .str_field("kind", "pwc")
            .u64_field("seed", i + 1)
            .u64_field("segments", 5)
            .f64_field("hold", 5e-6)
            .f64_field("lo", 0.0)
            .f64_field("hi", 1.0)
            .end_obj();
        b.end_obj();
    }
    b.end_arr();
    b.end_obj();
    b.into_string()
}

/// The backend rung's dense fallback is compiled only for a model that
/// resolved sparse: under `Auto` the RC1 job is already dense and costs
/// one compile, while the diode-clamp job resolves sparse and still gets
/// its fallback, a second cache entry.
#[test]
fn dense_fallback_is_compiled_only_for_sparse_models() {
    for (label, module, misses) in [("RC1", rc_ladder(1), 1), ("CLAMP", diode_clamp(), 2)] {
        let server = Server::start(ServeConfig::default()).expect("server starts");
        let resp = common::post(server.local_addr(), "/v1/jobs", &recovery_job(&module));
        assert_eq!(resp.status, 200, "{label}: job accepted: {}", resp.body);
        let report = server.shutdown();
        assert_eq!(report.counter("serve.cache.misses"), misses, "{label}");
        assert_eq!(report.counter("serve.jobs.completed"), 1, "{label}");
    }
}
