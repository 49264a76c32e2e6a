//! The benchmark's tables: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same tables; a test keeps the two equal.

/// Seed used when `--seed` is not given (recorded in `baseline.json`).
pub const DEFAULT_SEED: u64 = 1;

/// Seconds one run measures: set-ups and timed rounds together, from
/// the workload's start.
pub const RUN_SECONDS: u64 = 14;

/// One workload: a name and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// One reported metric.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "table_conservative",
        why: "Tables I-II, conservative levels: 2IN/RC1/RC20/OA at 50 ns on the reference solver and on the ELN model in the DE kernel, half the round each",
    },
    WorkloadSpec {
        name: "table_signal_flow",
        why: "Tables I-II, signal-flow levels: the abstracted 2IN/RC1/RC20/OA models in a TDF cluster, as a DE process and in a C++ loop, a third of the round each",
    },
    WorkloadSpec {
        name: "table_platform",
        why: "Table III: the MIPS+UART platform with the monitor firmware on RC1, as DE-kernel build, fast build, and fast build on the reference solver, a third each",
    },
    WorkloadSpec {
        name: "rc250",
        why: "the one large system: a 1250-unknown sparse RC ladder whose compile dominates set-up and whose step is residual and sparse-LU bound",
    },
    WorkloadSpec {
        name: "sweep_clamp",
        why: "nonlinear lanes: a stiff diode clamp sweep on the refactor and step-control path, with masked lanes and no shared prefix",
    },
    WorkloadSpec {
        name: "sweep_tree",
        why: "linear lanes on shared factors: RC20 scenario trees, 75 % shared prefix, so snapshot/fork run and the refactor path is bypassed",
    },
    WorkloadSpec {
        name: "fleet",
        why: "the holistic platform at scale: RC1 devices running the monitor firmware, where ISS, bus and block scheduling meet the analog lanes",
    },
    WorkloadSpec {
        name: "serve",
        why: "the only path over HTTP: a closed-loop client, JSON waveform streams, and the model cache compiling on the request path",
    },
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("work_per_s", "1/s", true, 0.25),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_anon_mb", "MB", false, 0.10),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not cross reports a rate, share or count of 0;
/// every time-valued metric is measured on every workload.
pub const PER_LAYER: &[MetricSpec] = &[
    // Set-up, split by the public call that did the work.
    layer("core.parse_us", "us", false),
    layer("amsim.compile_ms", "ms", false),
    layer("setup.parse_share", "ratio", false),
    layer("setup.abstract_share", "ratio", false),
    layer("setup.compile_share", "ratio", false),
    layer("core.pipeline.acquire_share", "ratio", false),
    layer("core.pipeline.enrich_share", "ratio", false),
    layer("core.pipeline.assemble_share", "ratio", false),
    layer("core.pipeline.codegen_share", "ratio", false),
    // The reference solver on the workload's principal model.
    layer("amsim.step_ns", "ns", false),
    layer("expr.residual_ns", "ns", false),
    layer("expr.residual_share", "ratio", false),
    layer("amsim.non_residual_ns", "ns", false),
    layer("amsim.newton_per_step", "ratio", false),
    layer("amsim.refactor_per_step", "ratio", false),
    layer("amsim.accept_ratio", "ratio", true),
    layer("amsim.batch.masked_share", "ratio", false),
    layer("linalg.sparse.fill", "count", false),
    layer("linalg.sparse.refactor_per_step", "ratio", false),
    // Integration levels (Tables I-III).
    layer("level.ref_msteps_per_s", "Msteps/s", true),
    layer("level.eln_msteps_per_s", "Msteps/s", true),
    layer("level.tdf_msteps_per_s", "Msteps/s", true),
    layer("level.de_msteps_per_s", "Msteps/s", true),
    layer("level.cpp_msteps_per_s", "Msteps/s", true),
    layer("de.activations_per_step", "ratio", false),
    layer("vp.de_mips", "MIPS", true),
    layer("vp.fast_mips", "MIPS", true),
    layer("vp.ref_mips", "MIPS", true),
    layer("vp.iss_mips", "MIPS", true),
    layer("vp.fleet.iss_share", "ratio", false),
    layer("vp.fleet.analog_share", "ratio", false),
    layer("vp.fleet.other_share", "ratio", false),
    // Concurrency, measured but not bounded: the fleet on two workers
    // and two serve clients at once.
    layer("vp.fleet.w2_speedup", "ratio", true),
    layer("sweep.w2.busy_share", "ratio", true),
    layer("serve.c2_speedup", "ratio", true),
    layer("serve.c2.job_p50_over_c1", "ratio", false),
    // Sweep scheduling.
    layer("sweep.busy_share", "ratio", true),
    layer("sweep.first_block_share", "ratio", false),
    layer("sweep.tree.shared_ratio", "ratio", true),
    // Serving.
    layer("serve.sweep_share", "ratio", true),
    layer("serve.client_gap_share", "ratio", false),
    layer("serve.cache.hit_ratio", "ratio", true),
    layer("serve.kb_per_job", "KB", false),
    layer("serve.job_tail_over_p50", "ratio", false),
    layer("serve.first_record_share", "ratio", false),
    // Instrumentation cost: traced over untraced round time, minus 1.
    layer("obs.overhead", "ratio", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serve::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn metrics_of(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn table(specs: &[MetricSpec]) -> Vec<(String, String, String, Option<f64>)> {
        specs
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.into(), m.unit.into(), better.into(), m.bound)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_harness_tables() {
        let doc = benchmark_json();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(metrics_of(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(metrics_of(&doc, "per_layer"), table(PER_LAYER));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        assert_eq!(
            doc.get("paths").and_then(Json::as_array),
            Some(&[Json::Str("perf".into())][..])
        );
    }

    #[test]
    fn tables_respect_the_benchmark_format() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
