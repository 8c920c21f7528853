//! Every workload and metric name, once: the tables the run prints from,
//! `--aa` takes its bounds from, and `BENCHMARK.json` is rendered from
//! (a unit test holds the committed file equal to [`benchmark_json`]).

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; unused (0) for per-layer metrics, which are not gated.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    e2e(name, unit, higher, 0.0)
}

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 12;

/// (name, why it exists).
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "forkjoin_fib",
        "fib(27) by Ctx::join, no cutoff: zero leaf work, so join, frame, queue pop and steal are all of the time; dataflow, inject and foreach do nothing",
    ),
    (
        "dataflow_fine",
        "tiled Cholesky n=512 nb=16, 5984 tasks: about 1 us of runtime per 1.3 us kernel, the grain where dependency analysis and frame scans decide whether a data-flow runtime wins",
    ),
    (
        "dataflow_coarse",
        "same code at nb=64 (n=768, 364 tasks): kernels are over 90% of the time, so this is the bypass workload a runtime-layer change must not move and a kernel change must",
    ),
    (
        "replay_fine",
        "the dataflow_fine DAG recorded once and replayed, dataflow_pushes == 0 asserted: same frame/queue/steal layers without dependency analysis, isolates record",
    ),
    (
        "loops_short",
        "256 back-to-back foreach_chunks saxpy loops over 32Ki cache-resident f64: loop launch, thief wake-up, slice hand-out and join are most of the time",
    ),
    (
        "loops_skewed",
        "one compute-bound foreach_reduce over 2Mi iterations costing 1 to 64 LCG steps: launch is under 1%, on-demand splitting balances it, no memory bandwidth in the number",
    ),
    (
        "submit_jobs",
        "0.1 us root jobs through Runtime::submit: closed loop (256 in flight) gives capacity, open loop (100000 jobs/s, timed from the due time) gives what an independent caller waits",
    ),
];

pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "op/s", true, 0.20),
    e2e("overhead_ratio", "x", false, 0.15),
    e2e("job_latency_us_p50", "us", false, 0.20),
    e2e("peak_rss_mb", "MB", false, 0.20),
];

pub const PER_LAYER: [Metric; 50] = [
    // Derived from the workload's own traced rounds.
    layer("scale.speedup", "x", true),
    layer("dataflow.nonkernel_share", "ratio", false),
    layer("job_latency_us_p90", "us", false),
    layer("dataflow.pushes_per_iter", "count", false),
    layer("frame.promotions_per_iter", "count", false),
    layer("steal.attempts_per_kop", "count", false),
    layer("steal.hit_ratio", "ratio", true),
    layer("steal.stolen_share", "ratio", false),
    layer("foreach.chunks_per_loop", "count", false),
    layer("adaptive.splits_per_loop", "count", false),
    layer("inject.own_lane_share", "ratio", true),
    layer("trace.overhead_ratio", "x", false),
    layer("dataflow.bind_share", "ratio", false),
    // The ledger: the same probes in every traced run.
    layer("fastlane.join_ns", "ns", false),
    layer("forkjoin.cilk_join_ns", "ns", false),
    layer("alloc.per_join", "count", false),
    layer("ctx.spawn_ns", "ns", false),
    layer("alloc.per_task", "count", false),
    layer("ctx.builder_spawn_ns", "ns", false),
    layer("ctx.attr_spawn_ns", "ns", false),
    layer("frame.scope_ns", "ns", false),
    layer("dataflow.spawn1_ns", "ns", false),
    layer("dataflow.spawn3_ns", "ns", false),
    layer("handle.rename_ns", "ns", false),
    layer("linalg.gemm16_gflops", "Gflop/s", true),
    layer("linalg.gemm64_gflops", "Gflop/s", true),
    layer("record.record_us", "us", false),
    layer("record.groups", "count", false),
    layer("record.fused_tasks", "count", true),
    layer("record.replay_over_online", "x", false),
    layer("record.group_ns", "ns", false),
    layer("telemetry.enabled_cost_ratio", "x", false),
    layer("telemetry.enabled_cost_ratio_jobs", "x", false),
    layer("worker.park_wake_us_p50", "us", false),
    layer("alloc.per_job", "count", false),
    layer("inject.submit_ns_p50", "ns", false),
    layer("inject.submit_to_start_us_p50", "us", false),
    layer("inject.job_latency_us_p99", "us", false),
    layer("inject.job_latency_us_p999", "us", false),
    layer("inject.generator_late_us_p99", "us", false),
    layer("inject.backlog_max", "count", false),
    layer("foreach.launch_1w_ns", "ns", false),
    layer("alloc.per_loop", "count", false),
    layer("dataflow.chain_ns", "ns", false),
    layer("steal.handoff_us_p50", "us", false),
    layer("foreach.launch_us_p50", "us", false),
    layer("foreach.claim_ns", "ns", false),
    layer("foreach.imbalance", "x", false),
    layer("scale.workers", "count", true),
    layer("rounds", "count", true),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let entry = |m: &Metric, gated: bool| {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = if gated {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            m.name, m.unit
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(|m| entry(m, true)).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|m| entry(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--config\", \"xkbench/cargo-config.toml\", \"--manifest-path\", \
         \"xkbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"xkbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(well_formed(n, 64, "_.-"), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(seen.insert(n), "{n} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// Every name the binary prints is in `BENCHMARK.json` and the other
    /// way round: the file is this module, rendered.
    #[test]
    fn benchmark_json_is_the_rendered_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `xkbench --benchmark-json > BENCHMARK.json`"
        );
    }
}
