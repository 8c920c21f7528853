//! The two environment variables [`xkaapi::core::Builder`] reads:
//! `XKAAPI_WORKERS` (a deployment setting) and `XKAAPI_TRACE` (the
//! observability switch). The environment overrides *defaults*, while an
//! explicit setter call always wins (code that sized structures to a
//! requested worker count must not be resized from the outside). Kept in
//! a dedicated integration-test binary: environment variables are
//! process-global, and this is the only test in this process, so mutating
//! them cannot race another test.

use std::process::Command;
use xkaapi::core::Runtime;

const TEST_NAME: &str = "env_vars_override_defaults_but_not_explicit_settings";

#[test]
fn env_vars_override_defaults_but_not_explicit_settings() {
    // Child mode (see the junk-value case below): this process was started
    // with junk values, which must be ignored with a warning.
    if std::env::var("XKAAPI_TRACE").as_deref() == Ok("maybe") {
        let rt = Runtime::builder().build();
        assert!(rt.num_workers() >= 1, "junk XKAAPI_WORKERS must fall back");
        assert!(
            !rt.tracing_enabled(),
            "junk XKAAPI_TRACE must fall back to off"
        );
        return;
    }

    // Baseline: no env, explicit worker count, tracing off by default.
    let rt = Runtime::builder().workers(2).build();
    assert_eq!(rt.num_workers(), 2);
    assert!(!rt.tracing_enabled(), "tracing defaults off");
    drop(rt);

    // Single-threaded at this point (no other test in this binary, the
    // runtime above has been dropped and its workers joined).
    std::env::set_var("XKAAPI_WORKERS", "3");
    std::env::set_var("XKAAPI_TRACE", "1");

    // Env overrides the defaults…
    let rt = Runtime::builder().build();
    assert_eq!(
        rt.num_workers(),
        3,
        "XKAAPI_WORKERS must override the default"
    );
    assert!(rt.tracing_enabled(), "XKAAPI_TRACE=1 must turn tracing on");
    // …and the overridden runtime still runs real work, and records it.
    let s = rt.foreach_reduce(0..1000, None, || 0u64, |a, i| *a += i as u64, |a, b| a + b);
    assert_eq!(s, 499_500);
    assert!(
        rt.take_trace().total_events() > 0,
        "the traced run recorded"
    );
    drop(rt);

    // …but never explicit calls: sized-to-request structures (custom
    // DistributedLanes, Reduction::with_slots) rely on this.
    let rt = Runtime::builder().workers(2).tracing(false).build();
    assert_eq!(
        rt.num_workers(),
        2,
        "explicit workers() must beat the environment"
    );
    assert!(
        !rt.tracing_enabled(),
        "explicit tracing(false) must beat XKAAPI_TRACE=1"
    );
    drop(rt);

    std::env::remove_var("XKAAPI_WORKERS");
    std::env::remove_var("XKAAPI_TRACE");

    // Malformed values are ignored with a one-line warning, not fatal.
    // Rerun this test in a child process whose environment carries junk,
    // so its stderr can be inspected.
    let out = Command::new(std::env::current_exe().unwrap())
        .args([TEST_NAME, "--exact", "--nocapture", "--test-threads=1"])
        .env("XKAAPI_WORKERS", "zero")
        .env("XKAAPI_TRACE", "maybe")
        .output()
        .expect("rerun the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed:\n{stderr}");
    for var in [r#"XKAAPI_WORKERS="zero""#, r#"XKAAPI_TRACE="maybe""#] {
        assert!(
            stderr.contains(&format!("xkaapi: ignoring invalid {var}")),
            "no warning for {var}:\n{stderr}"
        );
    }
}
