//! Protocol hardening: the hand-rolled HTTP/JSON surface against
//! malformed, truncated, and adversarial input over real sockets.
//! Invariant under test: hostile bytes yield a typed 4xx (or a clean
//! close when no response is possible) — never a panic, never a 5xx,
//! never a hung worker. After every battery the same server instance
//! must still answer `/v1/health` and drain cleanly.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use amsvp_core::circuits::{rc_ladder, XorShift64};
use amsvp_serve::http::Limits;
use amsvp_serve::json::{self, Json, JsonBuf};
use amsvp_serve::{ServeConfig, Server};

fn test_server() -> Server {
    Server::start(ServeConfig {
        limits: Limits {
            max_header_bytes: 2048,
            max_body_bytes: 4096,
        },
        read_timeout: Some(Duration::from_millis(250)),
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// Sends raw bytes, optionally half-closing early, and returns whatever
/// the server answered (empty on immediate close).
fn send_raw(server: &Server, bytes: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = s.write_all(bytes);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(response).ok()?;
    text.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

#[test]
fn malformed_requests_get_typed_4xx() {
    let server = test_server();
    let cases: &[(&[u8], u16)] = &[
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET / HTTP/2.0\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nNoColon\r\n\r\n", 400),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: zebra\r\n\r\n",
            400,
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            400,
        ),
        (b"\xff\xfe\xfd / HTTP/1.1\r\n\r\n", 400),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9999\r\n\r\n",
            413,
        ),
        (b"GET /nowhere HTTP/1.1\r\n\r\n", 404),
        // Body present but not JSON, or JSON but not a job.
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n}{(",
            400,
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            400,
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n\"\xf0\x28\"",
            400,
        ),
    ];
    for (bytes, want) in cases {
        let resp = send_raw(&server, bytes);
        assert_eq!(
            status_of(&resp),
            Some(*want),
            "wrong status for request {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    // Oversized header block: 431.
    let mut big = b"GET /v1/health HTTP/1.1\r\nX-Pad: ".to_vec();
    big.extend(std::iter::repeat_n(b'a', 4096));
    big.extend(b"\r\n\r\n");
    assert_eq!(status_of(&send_raw(&server, &big)), Some(431));

    assert_eq!(common::get(server.local_addr(), "/v1/health").status, 200);
    server.shutdown_within(Duration::from_secs(10));
}

#[test]
fn truncated_requests_never_hang_a_worker() {
    let server = test_server();
    for bytes in [
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"mod".as_slice(),
        b"GET /v1/health HTTP/1.1\r\nHos",
        b"P",
        b"",
    ] {
        // Half-close after the truncated prefix: the server sees EOF
        // mid-request and must drop the connection without panicking.
        let resp = send_raw(&server, bytes);
        if let Some(status) = status_of(&resp) {
            assert!((400..500).contains(&status), "got {status}");
        }
    }
    // A stalled connection (bytes withheld, socket left open) trips the
    // read timeout as a 408 instead of pinning the worker forever.
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.write_all(b"GET /v1/health HT").unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    assert_eq!(status_of(&out), Some(408));

    assert_eq!(common::get(server.local_addr(), "/v1/health").status, 200);
    server.shutdown_within(Duration::from_secs(10));
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = test_server();
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n\
          GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n\
          GET /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("responses");
    let text = String::from_utf8(raw).expect("UTF-8 responses");
    let statuses: Vec<&str> = text.matches("HTTP/1.1 200 OK").collect();
    assert_eq!(statuses.len(), 3, "three pipelined responses: {text}");
    assert!(text.contains("\"status\":\"ok\""));
    assert!(text.contains("counters"), "stats response present");
    server.shutdown_within(Duration::from_secs(10));
}

/// A cache-miss compile times its phases into the server-wide report
/// behind `/v1/stats`; the job's own stream stays timer-free, so it
/// remains a pure function of the request.
#[test]
fn compile_phase_timers_reach_stats_not_the_job_stream() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("module", &rc_ladder(1))
        .f64_field("dt", 1e-6)
        .str_field("output", "V(out)");
    b.begin_arr("scenarios");
    b.begin_obj()
        .str_field("name", "hold")
        .u64_field("steps", 10)
        .key("stim");
    b.begin_obj()
        .str_field("kind", "const")
        .f64_field("value", 0.5)
        .end_obj();
    b.end_obj();
    b.end_arr();
    b.end_obj();
    let job = common::post(server.local_addr(), "/v1/jobs", &b.into_string());
    assert_eq!(job.status, 200, "{}", job.body);
    assert!(!job.body.contains("amsim.compile"), "{}", job.body);
    let stats = common::get(server.local_addr(), "/v1/stats");
    for phase in ["amsim.compile.lower", "amsim.compile.analyze"] {
        assert!(stats.body.contains(phase), "{phase}: {}", stats.body);
    }
    let report = server.shutdown();
    for phase in ["amsim.compile.lower", "amsim.compile.analyze"] {
        assert_eq!(report.timers[phase].count, 1, "{phase}");
    }
}

#[test]
fn disconnect_mid_stream_is_absorbed() {
    // Default limits: the 48-scenario submission is a legitimate job,
    // only the client's half of the exchange is hostile here.
    let server = Server::start(ServeConfig {
        read_timeout: Some(Duration::from_millis(250)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    // A job big enough that the stream outlives the client: read a few
    // bytes of the response, then vanish.
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("module", &rc_ladder(1))
        .f64_field("dt", 1e-6)
        .str_field("output", "V(out)");
    b.begin_arr("scenarios");
    for i in 0..48u64 {
        b.begin_obj()
            .str_field("name", &format!("s{i}"))
            .u64_field("steps", 400)
            .key("stim");
        b.begin_obj()
            .str_field("kind", "pwc")
            .u64_field("seed", i + 1)
            .u64_field("segments", 4)
            .f64_field("hold", 1e-4)
            .f64_field("lo", 0.0)
            .f64_field("hi", 1.0)
            .end_obj();
        b.end_obj();
    }
    b.end_arr();
    b.end_obj();
    let body = b.into_string();
    {
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        write!(
            s,
            "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut first = [0u8; 64];
        s.read_exact(&mut first).expect("stream began");
        assert!(first.starts_with(b"HTTP/1.1 200 OK"));
        // Drop: client gone mid-stream.
    }
    // The job still completes and is accounted; the worker is released.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = common::get(server.local_addr(), "/v1/stats");
        assert_eq!(stats.status, 200);
        if stats.body.contains("\"serve.jobs.completed\": 1")
            || stats.body.contains("\"serve.jobs.completed\":1")
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never completed after client disconnect: {}",
            stats.body
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let report = server.shutdown_within(Duration::from_secs(10));
    assert_eq!(report.counter("serve.jobs.accepted"), 1);
    assert_eq!(report.counter("serve.jobs.completed"), 1);
}

#[test]
fn hard_drain_ends_streams_with_a_typed_record() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // A long job on one worker so the drain deadline can overtake it.
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("module", &rc_ladder(1))
        .f64_field("dt", 1e-6)
        .str_field("output", "V(out)");
    b.begin_arr("scenarios");
    for i in 0..128u64 {
        b.begin_obj()
            .str_field("name", &format!("s{i}"))
            .u64_field("steps", 1000)
            .key("stim");
        b.begin_obj()
            .str_field("kind", "const")
            .f64_field("value", 0.5)
            .end_obj();
        b.end_obj();
    }
    b.end_arr();
    b.end_obj();
    let body = b.into_string();
    let client = std::thread::spawn(move || common::post(addr, "/v1/jobs", &body));

    // Wait for the job to be accepted, then drain with an immediate
    // hard deadline.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = common::get(addr, "/v1/stats");
        if stats.body.contains("serve.jobs.accepted") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never accepted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = server.shutdown_within(Duration::from_millis(1));

    // The client still gets a well-formed chunked stream (the decoder in
    // `common` asserts the framing) that ends in a typed record — either
    // the drain marker or, if the sweep outran the deadline, job.done.
    let resp = client.join().expect("client thread");
    assert_eq!(resp.status, 200);
    let records = resp.records();
    let last = amsvp_serve::json::parse(records.last().expect("at least one record"))
        .expect("last record parses");
    let kind = last.get("type").unwrap().as_str().unwrap();
    assert!(
        kind == "server.draining" || kind == "job.done",
        "stream must end in a typed record, got {kind}"
    );
    // Hard drain never abandons the in-flight job's accounting.
    assert_eq!(report.counter("serve.jobs.accepted"), 1);
    assert_eq!(report.counter("serve.jobs.completed"), 1);
}

/// A job of `scenarios` × `steps` RC1 steps under seeded
/// piecewise-constant stimuli, whose waveforms stream as ~19-byte floats.
fn rc1_job(scenarios: u64, steps: u64) -> String {
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("module", &rc_ladder(1))
        .f64_field("dt", 1e-6)
        .str_field("output", "V(out)");
    b.begin_arr("scenarios");
    for i in 0..scenarios {
        b.begin_obj()
            .str_field("name", &format!("s{i}"))
            .u64_field("steps", steps)
            .key("stim");
        b.begin_obj()
            .str_field("kind", "pwc")
            .u64_field("seed", i + 1)
            .u64_field("segments", 5)
            .f64_field("hold", 5e-5)
            .f64_field("lo", 0.0)
            .f64_field("hi", 1.0)
            .end_obj();
        b.end_obj();
    }
    b.end_arr();
    b.end_obj();
    b.into_string()
}

/// Under a one-job cap, a submission while the slot is held bounces
/// deterministically: `429`, a `Retry-After` header and a typed
/// `job.rejected` body. The job holding the slot still streams to the
/// end.
#[test]
fn submission_past_the_job_cap_gets_a_typed_429() {
    let server = Server::start(ServeConfig {
        max_jobs: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");

    // The blocker's stream (~5 MB) outgrows what loopback sockets
    // buffer (about 4 MB on a stock Linux kernel). Its client sends the
    // job and reads nothing until the probe is answered, so the
    // server's writes stall and the job keeps the slot at no CPU cost.
    let blocker_body = rc1_job(32, 8192);
    let mut blocker = TcpStream::connect(server.local_addr()).expect("connect");
    blocker
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        blocker,
        "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{blocker_body}",
        blocker_body.len()
    )
    .expect("send blocker");

    // Probe only once the blocker is in the slot: nothing else submits,
    // so the first acceptance is the blocker's.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !common::get(server.local_addr(), "/v1/stats")
        .body
        .contains("serve.jobs.accepted")
    {
        assert!(
            std::time::Instant::now() < deadline,
            "blocking job was never accepted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let probe = common::post(server.local_addr(), "/v1/jobs", &rc1_job(1, 10));
    assert_eq!(probe.status, 429, "{}", probe.body);
    assert!(
        probe.header("Retry-After").is_some(),
        "429 must say when to retry"
    );
    let rejected = json::parse(probe.records()[0]).expect("429 body parses");
    assert_eq!(
        rejected.get("type").and_then(Json::as_str),
        Some("job.rejected")
    );

    // Reading its stream releases the blocker, which runs to the end.
    let held = common::read_response(&mut blocker);
    assert_eq!(held.status, 200);
    let done = json::parse(held.records().last().expect("blocker records")).unwrap();
    assert_eq!(done.get("type").and_then(Json::as_str), Some("job.done"));
    assert_eq!(done.get("ok").and_then(Json::as_u64), Some(32));

    let report = server.shutdown();
    assert_eq!(report.counter("serve.jobs.rejected"), 1);
    assert_eq!(report.counter("serve.jobs.accepted"), 1);
    assert_eq!(
        report.counter("serve.jobs.completed"),
        report.counter("serve.jobs.accepted")
    );
}

/// Seeded fuzz: random mutations of a valid submission (byte flips,
/// truncations, appended garbage) plus outright random bytes. Every
/// exchange must end in a 4xx, a clean close, or — for the rare mutant
/// that stays well-formed — a legitimate 2xx stream; never a 5xx and
/// never a stuck connection.
#[test]
fn fuzzed_requests_never_break_the_server() {
    let server = test_server();
    let mut valid_body = JsonBuf::new();
    valid_body
        .begin_obj()
        .str_field("module", &rc_ladder(1))
        .f64_field("dt", 1e-6)
        .str_field("output", "V(out)");
    valid_body.begin_arr("scenarios");
    valid_body
        .begin_obj()
        .str_field("name", "s0")
        .u64_field("steps", 10)
        .key("stim");
    valid_body
        .begin_obj()
        .str_field("kind", "const")
        .f64_field("value", 0.5)
        .end_obj();
    valid_body.end_obj();
    valid_body.end_arr();
    valid_body.end_obj();
    let body = valid_body.into_string();
    let template = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let template = template.as_bytes();

    let mut rng = XorShift64::new(0xF00D);
    for round in 0..300 {
        let mut bytes = template.to_vec();
        match rng.next_u64() % 4 {
            // Truncate somewhere.
            0 => bytes.truncate((rng.next_u64() as usize) % bytes.len()),
            // Flip a handful of bytes.
            1 => {
                for _ in 0..1 + rng.next_u64() % 8 {
                    let i = (rng.next_u64() as usize) % bytes.len();
                    bytes[i] = (rng.next_u64() & 0xff) as u8;
                }
            }
            // Random garbage of random length.
            2 => {
                let len = (rng.next_u64() as usize) % 512;
                bytes = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
            }
            // Valid request with trailing garbage pipelined behind it.
            _ => {
                let len = (rng.next_u64() as usize) % 64;
                bytes.extend((0..len).map(|_| (rng.next_u64() & 0xff) as u8));
            }
        }
        let resp = send_raw(&server, &bytes);
        if let Some(status) = status_of(&resp) {
            assert!(
                status < 500,
                "round {round}: server answered {status} to {:?}",
                String::from_utf8_lossy(&bytes)
            );
        }
    }

    // The server survived the battery: still healthy, still serving.
    assert_eq!(common::get(server.local_addr(), "/v1/health").status, 200);
    let report = server.shutdown_within(Duration::from_secs(10));
    assert_eq!(
        report.counter("serve.jobs.completed") + report.counter("serve.jobs.failed"),
        report.counter("serve.jobs.accepted"),
        "every accepted job must resolve"
    );
}
