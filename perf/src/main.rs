//! `perf` — the repository benchmark.
//!
//! ```text
//! perf [--workload W] [--seed N] [--trace 0|1|FILE]
//! perf --baseline FILE [--seed N]
//! ```
//!
//! With `--workload`, runs that one workload in this process and prints
//! one `workload metric value unit` line per metric, then the result as
//! one JSON object on the last line. Without it, re-executes itself once
//! per workload (so peak memory and warm caches stay separate) and exits
//! nonzero if any workload did. `--trace 1` (or a file name, which also
//! receives the spans as Chrome trace-event JSON) switches from the
//! end-to-end metrics to the per-layer ledger. `--baseline` runs every
//! workload [`BASELINE_RUNS`] times untraced and once traced and writes
//! the summary to FILE. See `README.md`.

mod harness;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use harness::{Outcome, RunConfig};
use serve::json::{self, Json, JsonBuf};
use spec::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const USAGE: &str = concat!(
    "usage: perf [--workload W] [--seed N] [--trace 0|1|FILE]\n",
    "       perf --baseline FILE [--seed N]"
);

/// Untraced runs per workload behind each baseline median.
const BASELINE_RUNS: usize = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// `"0"`, `"1"` or a trace file name.
    trace: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        trace: "0".into(),
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|s| s.name == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // Benchmark runners pass the run length they read from
            // `BENCHMARK.json`; a run of another length would not be
            // comparable with the baseline, so only that one is accepted.
            "--seconds" => {
                let s = value()?;
                if s.parse::<u64>() != Ok(RUN_SECONDS) {
                    return Err(format!("--seconds must be {RUN_SECONDS}, got `{s}`"));
                }
            }
            "--trace" => args.trace = value()?,
            "--baseline" => args.baseline = Some(value()?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.baseline.is_some() && (args.workload.is_some() || args.trace != "0") {
        return Err("--baseline runs every workload, traced and untraced".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(w) => run_one(w, &args, started),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-executes this binary once per workload (per run, with
/// `--baseline`), echoing each child's output and collecting its result.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut results: BTreeMap<&str, (Vec<Json>, Option<Json>)> = BTreeMap::new();
    for w in WORKLOADS {
        let traces: Vec<String> = match (&args.baseline, args.trace.as_str()) {
            (Some(_), _) => std::iter::repeat_n("0".to_string(), BASELINE_RUNS)
                .chain(["1".to_string()])
                .collect(),
            (None, "0" | "1") => vec![args.trace.clone()],
            (None, file) => vec![match file.strip_suffix(".json") {
                Some(stem) => format!("{stem}.{}.json", w.name),
                None => format!("{file}.{}", w.name),
            }],
        };
        for trace in traces {
            let child = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--trace", &trace])
                .stdout(Stdio::piped())
                .spawn();
            let mut child = match child {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("perf: cannot start workload {}: {e}", w.name);
                    ok = false;
                    continue;
                }
            };
            let mut last = String::new();
            if let Some(stdout) = child.stdout.take() {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    println!("{line}");
                    last = line;
                }
            }
            match child.wait() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("perf: workload {} exited with {s}", w.name);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("perf: waiting for workload {}: {e}", w.name);
                    ok = false;
                }
            }
            if let Ok(result) = json::parse(&last) {
                let entry = results.entry(w.name).or_default();
                if trace == "0" {
                    entry.0.push(result);
                } else {
                    entry.1 = Some(result);
                }
            }
        }
    }
    if let Some(file) = &args.baseline {
        let text = baseline_json(args.seed, &results);
        if let Err(e) = std::fs::write(file, text) {
            eprintln!("perf: cannot write {file}: {e}");
            ok = false;
        }
    }
    ok
}

/// The seed baseline: per workload and end-to-end metric the median,
/// quartiles and count over the untraced runs, and the traced run's
/// per-layer values.
fn baseline_json(seed: u64, results: &BTreeMap<&str, (Vec<Json>, Option<Json>)>) -> String {
    let value = |r: &Json, name: &str| -> Option<f64> {
        r.get("metrics")?.get(name)?.get("value")?.as_f64()
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut b = JsonBuf::new();
    b.begin_obj()
        .u64_field("seed", seed)
        .u64_field("runs", BASELINE_RUNS as u64)
        .u64_field("run_seconds", RUN_SECONDS)
        .str_field("host", &format!("{threads} x {cpu}"))
        .key("workloads")
        .begin_obj();
    for w in WORKLOADS {
        let (untraced, traced) = results
            .get(w.name)
            .map_or((&[][..], None), |(u, t)| (u.as_slice(), t.as_ref()));
        b.key(w.name).begin_obj().key("end_to_end").begin_obj();
        for m in END_TO_END {
            let v: Vec<f64> = untraced.iter().filter_map(|r| value(r, m.name)).collect();
            let (q1, q3) = stats::quartiles(&v).unwrap_or((0.0, 0.0));
            b.key(m.name)
                .begin_obj()
                .str_field("unit", m.unit)
                .f64_field("median", stats::median(&v).unwrap_or(0.0))
                .f64_field("q1", q1)
                .f64_field("q3", q3)
                .u64_field("n", v.len() as u64)
                .end_obj();
        }
        b.end_obj().key("per_layer").begin_obj();
        for m in PER_LAYER {
            let v = traced.and_then(|r| value(r, m.name)).unwrap_or(0.0);
            b.key(m.name)
                .begin_obj()
                .str_field("unit", m.unit)
                .f64_field("value", v)
                .end_obj();
        }
        b.end_obj().end_obj();
    }
    b.end_obj().end_obj();
    let mut text = b.into_string();
    text.push('\n');
    text
}

fn run_one(workload: &str, args: &Args, started: Instant) -> bool {
    let traced = args.trace != "0";
    trace::set_enabled(traced);
    let cfg = RunConfig {
        seed: args.seed,
        traced,
        started,
    };
    let mut out = workloads::run(workload, &cfg);
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
        println!("{workload} # {}", w.why);
    }

    let metrics: Vec<(&MetricSpec, f64)> = if traced {
        ledger(&mut out)
    } else {
        end_to_end(&mut out)
    };
    if traced && args.trace != "1" {
        let file = &args.trace;
        if let Err(e) = std::fs::write(file, trace::chrome_json(&trace::spans(), workload)) {
            out.check(false, || format!("cannot write trace file {file}: {e}"));
        }
    }
    for f in &out.failures {
        eprintln!("perf: {workload}: FAILED {f}");
    }
    for (m, v) in &metrics {
        println!("{workload} {} {v} {}", m.name, m.unit);
    }
    if !traced {
        println!(
            "{workload} # {} rounds of {} {}, round spread {:.3}; {} set-ups, set-up spread {:.3}",
            out.round_secs.len(),
            out.units_per_round,
            out.unit,
            stats::spread(&out.round_secs),
            out.setup_secs.len(),
            stats::spread(&out.setup_secs),
        );
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = m.bound.unwrap_or(0.0) * 100.0;
            println!(
                "{workload} # {}: {better} is better; a change worse by {bound:.0}% regresses",
                m.name
            );
        }
    }
    let correct = out.failed == 0;
    let mut b = JsonBuf::new();
    b.begin_obj()
        .u64_field("attempted", out.attempted)
        .u64_field("failed", out.failed)
        .key("metrics")
        .begin_obj();
    for (m, v) in &metrics {
        b.key(m.name)
            .begin_obj()
            .f64_field("value", *v)
            .str_field("unit", m.unit)
            .end_obj();
    }
    b.end_obj().end_obj();
    // `JsonBuf` writes no booleans: `correct` is spliced in as the
    // object's first field.
    let fields = b.into_string();
    println!("{{\"correct\":{correct},{}", &fields[1..]);
    correct
}

fn end_to_end(out: &mut Outcome) -> Vec<(&'static MetricSpec, f64)> {
    let metrics: Vec<(&MetricSpec, f64)> = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "work_per_s" => stats::round_rate(out.units_per_round, &out.round_secs),
                "setup_s" => stats::steady(&out.setup_secs),
                "peak_anon_mb" => Some(out.peak_anon_mb),
                other => unreachable!("end-to-end metric `{other}` has no definition"),
            };
            (m, v.unwrap_or(0.0))
        })
        .collect();
    for (m, v) in &metrics {
        out.check(v.is_finite() && *v > 0.0, || {
            format!(
                "end-to-end metric {} = {v} is not a positive number",
                m.name
            )
        });
    }
    metrics
}

fn ledger(out: &mut Outcome) -> Vec<(&'static MetricSpec, f64)> {
    let overhead = match (
        stats::steady(&out.traced_round_secs),
        stats::steady(&out.round_secs),
    ) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    out.layer("obs.overhead", overhead);
    for (name, _) in &out.layers {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "workload reported undeclared layer metric {name}"
        );
    }
    let time_unit = |u: &str| matches!(u, "ns" | "us" | "ms" | "s");
    PER_LAYER
        .iter()
        .map(|m| {
            let found = out
                .layers
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v);
            if found.is_none() && time_unit(m.unit) {
                out.check(false, || {
                    format!("per-layer time {} was not measured", m.name)
                });
            }
            let v = found.unwrap_or(0.0);
            if !v.is_finite() {
                out.check(false, || format!("per-layer metric {} = {v}", m.name));
            }
            (m, v)
        })
        .collect()
}
