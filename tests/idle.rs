//! An idle runtime is asleep: once its workers have parked they make no
//! context switches at all (no park timeout, no polling). And a runtime of
//! W workers starts exactly W threads, all of them workers.
//!
//! One test in its own file, so it runs in a process of its own and no
//! other test's runtime shares the counters it reads.

/// Name and `voluntary_ctxt_switches` of every live `xkaapi-*` thread of
/// this process, keyed by thread id.
#[cfg(target_os = "linux")]
fn runtime_threads() -> std::collections::BTreeMap<String, (String, u64)> {
    let mut out = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let tid = entry.expect("task entry").file_name();
        let tid = tid.to_string_lossy().into_owned();
        let Ok(status) = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")) else {
            continue; // the thread exited meanwhile
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
                .unwrap_or_default()
                .to_owned()
        };
        let name = field("Name:");
        if name.starts_with("xkaapi-") {
            let n = field("voluntary_ctxt_switches:")
                .parse()
                .expect("switch count");
            out.insert(tid, (name, n));
        }
    }
    out
}

#[cfg(target_os = "linux")]
#[test]
fn idle_workers_make_no_context_switches() {
    use std::time::Duration;
    for workers in [1, 4] {
        let rt = xkaapi::core::Runtime::new(workers);
        assert_eq!(rt.scope(|c| c.join(|_| 1, |_| 2)), (1, 2));
        std::thread::sleep(Duration::from_millis(20));
        let before = runtime_threads();
        assert!(
            before
                .values()
                .all(|(name, _)| name.starts_with("xkaapi-worker-")),
            "a runtime thread that is not a worker: {before:?}"
        );
        assert_eq!(before.len(), workers, "runtime threads found: {before:?}");
        std::thread::sleep(Duration::from_millis(200));
        let after = runtime_threads();
        assert_eq!(
            before, after,
            "an idle W={workers} runtime woke its workers (voluntary context switches per thread)"
        );
    }
}
