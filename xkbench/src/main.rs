//! `xkbench` — the repository's benchmark: one workload per paradigm and
//! grain, five end-to-end metrics, a per-layer ledger. See `README.md`
//! beside `Cargo.toml` for the glossary and the interaction table.
//!
//! One run (the form `BENCHMARK.json` names):
//! `xkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints a table and, as its last line, one JSON object with the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! `--all` runs every workload both ways, one fresh process at a time;
//! `--aa` runs the set twice and compares the two against the bounds;
//! `--quick` shrinks every window for a smoke run.

mod alloc;
mod jobs;
mod ledger;
mod names;
mod spans;
mod stats;
mod workloads;

use names::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spans::{Spans, ROOT};
use stats::{interleaved_rounds, now_ns, tail_percentile, Samples};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Workload, MANY, ONE, SEQ};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
const WARMUP: Duration = Duration::from_secs(1);
/// Share of `--seconds` a traced run spends on the workload's own rounds;
/// the ledger takes the rest.
const TRACED_WINDOW_SHARE: f64 = 1.0 / 3.0;
/// Timings behind each ledger median.
const LEDGER_SAMPLES: usize = 15;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    all: bool,
    aa: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: xkbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      xkbench --all|--aa [--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      xkbench --benchmark-json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.0).join(" ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        quick: false,
        all: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => o.workload = Some(it.next()?.clone()),
            "--seed" => o.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                o.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0 && *s <= 60.0)?
            }
            "--trace" => o.trace = Some(it.next()?.parse::<u8>().ok().filter(|t| *t <= 1)? == 1),
            "--traced" => o.trace = Some(true),
            "--quick" => o.quick = true,
            "--all" => o.all = true,
            "--aa" => o.aa = true,
            _ => return None,
        }
    }
    if let Some(w) = &o.workload {
        WORKLOADS.iter().find(|(n, _)| n == w)?;
    }
    if o.quick {
        o.seconds = 0.5;
    }
    Some(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--benchmark-json"] {
        print!("{}", names::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let Some(o) = parse(&args) else {
        return usage();
    };
    if o.all || o.aa {
        orchestrate(&o)
    } else if o.workload.is_some() {
        run_one(&o)
    } else {
        usage()
    }
}

// --- one run -----------------------------------------------------------

/// `W`: workers of the W-worker runtime, `clamp(nproc, 1, 4)`.
fn worker_count() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.clamp(1, 4))
}

/// Remove every `XKAAPI_*` variable, so the builder's defaults are the
/// configuration; returns the names removed. Runs before any thread
/// starts.
fn pin_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("XKAAPI_"))
        .collect();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a repository.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(h) => match h.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| r.to_string()),
            None => h,
        },
        None => "unknown".into(),
    }
}

/// Size of the last-level cache of cpu0 as sysfs spells it.
fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn build(name: &str, w: usize, seed: u64) -> Box<dyn Workload> {
    match name {
        "forkjoin_fib" => Box::new(workloads::ForkjoinFib::new(w)),
        "dataflow_fine" => Box::new(workloads::Dataflow::new(w, seed, 512, 16)),
        "dataflow_coarse" => Box::new(workloads::Dataflow::new(w, seed, 768, 64)),
        "replay_fine" => Box::new(workloads::Replay::new(w, seed, 512, 16)),
        "loops_short" => Box::new(workloads::LoopsShort::new(w, seed)),
        "loops_skewed" => Box::new(workloads::LoopsSkewed::new(w, seed)),
        "submit_jobs" => Box::new(jobs::SubmitJobs::new(w, seed)),
        _ => unreachable!("parse() checked the name"),
    }
}

/// Counters of the W-worker runtime whose deltas explain a workload, read
/// by name: one a later change renames reads as 0, it does not break the
/// build.
const COUNTERS: [&str; 10] = [
    "dataflow_pushes",
    "promotions",
    "steal_attempts",
    "steal_hits",
    "tasks_executed_own",
    "tasks_executed_stolen",
    "loop_chunks",
    "splits",
    "inject_own_lane",
    "inject_remote_lane",
];

#[derive(Default)]
struct Measured {
    /// Seconds per timed call, per variant.
    t: [Samples; 3],
    /// W-worker samples of the rounds with span recording on / off.
    many_on: Samples,
    many_off: Samples,
    rounds: usize,
    attempted: u64,
    failed: u64,
    /// Deltas of [`COUNTERS`] over the window.
    deltas: [u64; 10],
}

impl Measured {
    fn delta(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a name from COUNTERS");
        self.deltas[i] as f64
    }
}

/// Interleaved rounds for `window`. In a traced run, spans are recorded
/// on even rounds only, so the odd rounds price the tracing.
fn measure(w: &mut dyn Workload, window: Duration, spans: &mut Spans, traced: bool) -> Measured {
    let mut m = Measured::default();
    let read = |w: &dyn Workload| {
        let registry = w.pools().many.metrics();
        COUNTERS.map(|c| registry.get(c).unwrap_or(0))
    };
    let before = read(w);
    let variants = w.variants();
    let mut round_span = ROOT;
    m.rounds = interleaved_rounds(window, variants, |round, v| {
        let r = round as u32;
        if v == SEQ {
            spans.on = traced && round % 2 == 0;
            w.set_traced(spans.on);
            round_span = spans.open("round", ROOT, r);
        }
        let s = spans.open(w.prepare_name(v), round_span, r);
        w.prepare(v);
        spans.close(s);
        let t0 = now_ns();
        w.call(v);
        let t1 = now_ns();
        let call = spans.add(w.span_name(v), t0, t1, round_span, r, 0);
        w.drain_spans(spans, call, r);
        let s = spans.open("verify", round_span, r);
        let (attempted, failed) = w.verify(v);
        spans.close(s);
        m.attempted += attempted;
        m.failed += failed;
        let secs = (t1 - t0) as f64 / 1e9;
        if let Some(t) = m.t.get_mut(v) {
            t.push(secs);
        }
        if v == MANY {
            if spans.on {
                m.many_on.push(secs);
            } else {
                m.many_off.push(secs);
            }
        }
        if v + 1 == variants {
            spans.close(round_span);
        }
    });
    let after = read(w);
    for (d, (a, b)) in m.deltas.iter_mut().zip(after.iter().zip(before)) {
        *d = a - b;
    }
    m
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A measured metric: name, value, samples behind the value.
type Value = (&'static str, f64, usize);

fn print_metrics(table: &[Metric], values: &[Value]) {
    println!(
        "{:<36} {:>16} {:<8} {:>6} {:>6}",
        "metric", "value", "unit", "n", "bound"
    );
    for (name, v, n) in values {
        let m = table
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("{name} is not in the metric tables"));
        let bound = if m.bound > 0.0 {
            format!("{:.2}", m.bound)
        } else {
            "-".into()
        };
        println!(
            "{:<36} {:>16.4} {:<8} {:>6} {:>6}",
            name, v, m.unit, n, bound
        );
    }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &[Value],
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|v| v.0 == m.name)
                .unwrap_or_else(|| panic!("{} was not measured", m.name))
                .1;
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn run_one(o: &Opts) -> ExitCode {
    let removed = pin_environment();
    let name = o.workload.as_deref().expect("main() checked");
    let traced = o.trace.unwrap_or(false);
    let (nproc, w) = worker_count();
    let share = if traced { TRACED_WINDOW_SHARE } else { 1.0 };
    let window = Duration::from_secs_f64(o.seconds * share);
    let warmup = if o.quick {
        Duration::from_millis(100)
    } else {
        WARMUP
    };
    println!(
        "xkbench {name}  commit {}  nproc {nproc}  W {w}  LLC {}  seed {}  window {:.2} s  {}",
        commit(),
        llc_size(),
        o.seed,
        window.as_secs_f64(),
        if traced { "traced" } else { "untraced" }
    );
    if removed.is_empty() {
        println!("environment: no XKAAPI_* variable set");
    } else {
        println!("environment: removed {}", removed.join(" "));
    }

    // Set-up, several times over: runtimes, inputs from the seed, the
    // reference solution, recordings, and one checked call per variant.
    let mut setups = Samples::default();
    let mut wl: Option<Box<dyn Workload>> = None;
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..SETUP_REPS {
        drop(wl.take());
        let t = Instant::now();
        let mut fresh = build(name, w, o.seed);
        for v in 0..fresh.variants() {
            fresh.prepare(v);
            fresh.call(v);
            let (a, f) = fresh.verify(v);
            attempted += a;
            failed += f;
        }
        setups.push(t.elapsed().as_secs_f64());
        wl = Some(fresh);
    }
    let mut wl = wl.expect("SETUP_REPS >= 1");
    let mut spans = Spans::default();
    measure(&mut *wl, warmup, &mut spans, false);
    if let Some(l) = wl.job_latencies() {
        *l = Samples::default();
    }

    let mut m = measure(&mut *wl, window, &mut spans, traced);
    attempted += m.attempted;
    failed += m.failed;
    let mut problems: Vec<String> = Vec::new();
    if let Err(e) = wl.invariant() {
        problems.push(e);
    }
    let n = m.rounds;
    if n < 100 && !o.quick && !traced {
        println!("warning: {n} rounds in the window; p90 wants 100");
    }
    let [seq, one, many] = [SEQ, ONE, MANY].map(|v| m.t[v].p50());

    let (table, values): (&[Metric], Vec<Value>) = if !traced {
        let (lat50, lat_n) = match wl.job_latencies() {
            Some(l) => (l.p50(), l.len()),
            None => (many * 1e6, n),
        };
        let v = vec![
            ("setup_s", setups.p50(), SETUP_REPS),
            ("ops_per_s", ratio(wl.ops() as f64, many), n),
            ("overhead_ratio", ratio(one, seq), n),
            ("job_latency_us_p50", lat50, lat_n),
            ("peak_rss_mb", peak_rss_mb(), 1),
        ];
        (&END_TO_END, v)
    } else {
        let many_workers = wl.pools().many.num_workers() as f64;
        let iters = n as f64;
        let loops = iters * wl.loops() as f64;
        let executed = m.delta("tasks_executed_own") + m.delta("tasks_executed_stolen");
        let drained = m.delta("inject_own_lane") + m.delta("inject_remote_lane");
        let pushes = m.delta("dataflow_pushes") / iters;
        let lat90 = match wl.job_latencies() {
            Some(l) => l.p(90.0),
            None => m.t[MANY].p(90.0) * 1e6,
        };
        let mut v: Vec<Value> = [
            ("scale.speedup", ratio(one, many)),
            (
                "dataflow.nonkernel_share",
                1.0 - ratio(seq, many_workers * many),
            ),
            ("job_latency_us_p90", lat90),
            ("dataflow.pushes_per_iter", pushes),
            ("frame.promotions_per_iter", m.delta("promotions") / iters),
            (
                "steal.attempts_per_kop",
                ratio(m.delta("steal_attempts") * 1e3, iters * wl.ops() as f64),
            ),
            (
                "steal.hit_ratio",
                ratio(m.delta("steal_hits"), m.delta("steal_attempts")),
            ),
            (
                "steal.stolen_share",
                ratio(m.delta("tasks_executed_stolen"), executed),
            ),
            (
                "foreach.chunks_per_loop",
                ratio(m.delta("loop_chunks"), loops),
            ),
            ("adaptive.splits_per_loop", ratio(m.delta("splits"), loops)),
            (
                "inject.own_lane_share",
                ratio(m.delta("inject_own_lane"), drained),
            ),
            (
                "trace.overhead_ratio",
                ratio(m.many_on.p50(), m.many_off.p50()),
            ),
            ("scale.workers", w as f64),
            ("rounds", iters),
        ]
        .map(|(name, value)| (name, value, n))
        .to_vec();
        println!("\nself time per span name ({} spans):", spans.len());
        for (name, (count, ns)) in spans.self_times() {
            println!("  {name:<16} {count:>8} spans {:>12.3} ms", ns as f64 / 1e6);
        }
        match write_trace(name, &spans) {
            Ok(path) => println!("chrome trace: {path}"),
            Err(e) => problems.push(format!("trace file: {e}")),
        }
        // The ledger runs with the workload's runtimes gone: their idle
        // workers would show in its allocation counts and timings.
        drop(wl);
        let samples = if o.quick { 3 } else { LEDGER_SAMPLES };
        let ledger = ledger::run(w, o.seed, samples);
        // Share of a 1-worker call that dependency analysis explains: the
        // 3-access probe times the pushes the workload made.
        let spawn3 = ledger.metrics.iter().find(|v| v.0 == "dataflow.spawn3_ns");
        let bind_ns = pushes * spawn3.map_or(0.0, |v| v.1);
        v.push(("dataflow.bind_share", ratio(bind_ns, one * 1e9), n));
        v.extend(ledger.metrics);
        problems.extend(ledger.failures);
        (&PER_LAYER, v)
    };
    println!();
    print_metrics(table, &values);
    let tail = tail_percentile(n).map_or(String::new(), |p| {
        format!(", p{p} {:.4} ms", m.t[MANY].p(p) * 1e3)
    });
    println!(
        "call times over {n} rounds: seq p50 {:.4} ms, 1 worker p50 {:.4} ms, W workers p50 {:.4} ms{tail}",
        seq * 1e3,
        one * 1e3,
        many * 1e3
    );
    for p in &problems {
        println!("FAILED: {p}");
    }
    failed += problems.len() as u64;
    println!("ops_attempted {attempted}  ops_failed {failed}");
    println!(
        "{}",
        json_line(failed == 0, attempted, failed, table, &values)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Traces go beside the build: `<target>/xkbench/<workload>.trace.json`.
fn write_trace(workload: &str, spans: &Spans) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("the binary has no target directory")?
        .join("xkbench");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, spans.to_chrome_trace()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

// --- every workload, one fresh process at a time ------------------------

/// Value of metric `name` in a result line this binary printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find(',')?].parse().ok()
}

/// Run one child to its end; echo its output; return its result line if
/// it exited with 0.
fn child(o: &Opts, workload: &str, traced: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    println!();
    let last = text.lines().last()?.to_string();
    (out.status.success() && last.contains("\"correct\": true")).then_some(last)
}

fn orchestrate(o: &Opts) -> ExitCode {
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|n| o.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    let modes: &[bool] = match o.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let sets = if o.aa { 2 } else { 1 };
    let mut ok = true;
    // results[set][workload][mode]
    let mut results: Vec<Vec<Vec<Option<String>>>> = Vec::new();
    for _ in 0..sets {
        let mut set = Vec::new();
        for w in &selected {
            let lines: Vec<Option<String>> = modes.iter().map(|&t| child(o, w, t)).collect();
            ok &= lines.iter().all(Option::is_some);
            set.push(lines);
        }
        results.push(set);
    }
    if o.aa {
        ok &= compare_sets(o, &selected, modes, &results);
    }
    println!(
        "{}",
        if ok {
            "xkbench: all checks passed"
        } else {
            "xkbench: FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The A/A check: two sets of runs of the same code must agree within
/// each end-to-end metric's bound (skipped under `--quick`, whose windows
/// are too short to hold one), and the `alloc.*` counts must be equal.
fn compare_sets(
    o: &Opts,
    selected: &[&str],
    modes: &[bool],
    results: &[Vec<Vec<Option<String>>>],
) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (wi, w) in selected.iter().enumerate() {
        for (mi, &traced) in modes.iter().enumerate() {
            let (Some(a), Some(b)) = (&results[0][wi][mi], &results[1][wi][mi]) else {
                continue;
            };
            let table: Vec<&Metric> = if traced {
                PER_LAYER
                    .iter()
                    .filter(|m| m.name.starts_with("alloc."))
                    .collect()
            } else {
                END_TO_END.iter().collect()
            };
            for m in table {
                let (Some(x), Some(y)) = (metric_in(a, m.name), metric_in(b, m.name)) else {
                    println!("{w:<16} {:<24} missing from a result line", m.name);
                    ok = false;
                    continue;
                };
                // How much worse the second set reads, as a share of the first.
                let worse = if m.higher_is_better {
                    ratio(x - y, x)
                } else {
                    ratio(y - x, x)
                };
                let within = if traced {
                    x == y
                } else {
                    o.quick || worse <= m.bound
                };
                ok &= within;
                println!(
                    "{w:<16} {:<24} {x:>14.4} {y:>14.4} {:>7.1}% {:>6.2}{}",
                    m.name,
                    worse * 100.0,
                    m.bound,
                    if within { "" } else { "  <-- beyond the bound" }
                );
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let values: Vec<Value> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64, 1))
            .collect();
        let line = json_line(true, 0, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, v, _) in values {
            assert_eq!(metric_in(&line, name), Some(v), "{name}");
        }
        assert_eq!(metric_in(&line, "no_such_metric"), None);
    }

    #[test]
    fn arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload loops_short --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("loops_short"), 9, 3.0, Some(true))
        );
        assert!(parse(&args("--workload nope")).is_none());
        assert!(parse(&args("--trace 2")).is_none());
        assert!(parse(&args("--seconds 0")).is_none());
        assert_eq!(parse(&args("--all --quick")).unwrap().seconds, 0.5);
    }

    /// A quick run of every workload: outputs verify and every metric of
    /// the tables is measured, both ways.
    #[test]
    fn every_workload_builds_and_verifies() {
        for (name, _) in WORKLOADS {
            let mut w = build(name, 2, 5);
            let mut spans = Spans::default();
            let m = measure(&mut *w, Duration::from_millis(1), &mut spans, true);
            assert!(m.rounds >= 1 && m.attempted >= 3, "{name}");
            assert_eq!(m.failed, 0, "{name}");
            assert!(spans.len() > 3 * w.variants(), "{name}");
            assert_eq!(w.invariant(), Ok(()), "{name}");
        }
    }
}
