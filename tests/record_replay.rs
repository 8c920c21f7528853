//! Recorded-replay equivalence suite (ISSUE 7): a DAG captured by
//! `rt.record(...)` and replayed must be indistinguishable — result-wise —
//! from spawning the same tasks online, on **every** scheduler
//! configuration; repeated replays must be deterministic; and a replay
//! after mutating the input must observe the new values (handles are
//! re-read, not snapshotted).

use xkaapi::{RecordedDag, Runtime, Shared};
use xkaapi_bench::SchedPolicy;
use xkaapi_linalg::{cholesky_seq, RecordedCholesky, TiledMatrix};

/// A mixed DAG over several handles: exclusive chains, cross reads, and a
/// final join — enough structure for WAR/WAW edges, fusion and the
/// critical-path pass to all engage. Returns a schedule-independent
/// checksum.
fn spawn_online(rt: &Runtime, chains: usize, links: usize) -> u64 {
    let cells: Vec<Shared<u64>> = (0..chains).map(|i| Shared::new(i as u64 + 1)).collect();
    let sum = Shared::new(0u64);
    rt.scope(|ctx| {
        for (i, c) in cells.iter().enumerate() {
            for l in 0..links {
                let w = c.clone();
                let r = cells[(i + 1) % chains].clone();
                ctx.spawn([w.exclusive(), r.read()], move |t| {
                    let add = *t.read(&r) % 7 + l as u64;
                    let mut g = t.write(&w);
                    *g = g.wrapping_mul(3).wrapping_add(add);
                });
            }
        }
        let s = sum.clone();
        let all: Vec<_> = cells.to_vec();
        let accs: Vec<_> = cells
            .iter()
            .map(|c| c.read())
            .chain([s.exclusive()])
            .collect();
        ctx.spawn(accs, move |t| {
            let mut acc = 0u64;
            for c in &all {
                acc = acc.wrapping_mul(31).wrapping_add(*t.read(c));
            }
            *t.write(&s) = acc;
        });
    });
    *sum.get()
}

/// The same DAG captured with `rt.record`. Returns the DAG plus handles to
/// reset inputs and read the checksum between replays.
fn record_dag(
    rt: &Runtime,
    chains: usize,
    links: usize,
) -> (RecordedDag, Vec<Shared<u64>>, Shared<u64>) {
    let cells: Vec<Shared<u64>> = (0..chains).map(|i| Shared::new(i as u64 + 1)).collect();
    let sum = Shared::new(0u64);
    let dag = rt.record(|rec| {
        for (i, c) in cells.iter().enumerate() {
            for l in 0..links {
                let w = c.clone();
                let r = cells[(i + 1) % chains].clone();
                rec.spawn([w.exclusive(), r.read()], move |t| {
                    let add = *t.read(&r) % 7 + l as u64;
                    let mut g = t.write(&w);
                    *g = g.wrapping_mul(3).wrapping_add(add);
                });
            }
        }
        let s = sum.clone();
        let all: Vec<_> = cells.to_vec();
        let accs: Vec<_> = cells
            .iter()
            .map(|c| c.read())
            .chain([s.exclusive()])
            .collect();
        rec.spawn(accs, move |t| {
            let mut acc = 0u64;
            for c in &all {
                acc = acc.wrapping_mul(31).wrapping_add(*t.read(c));
            }
            *t.write(&s) = acc;
        });
    });
    (dag, cells, sum)
}

fn reset_cells(cells: &[Shared<u64>], base: u64) {
    // Quiescence contract: called between replays only.
    let rt = Runtime::new(1);
    rt.scope(|ctx| {
        for (i, c) in cells.iter().enumerate() {
            let w = c.clone();
            ctx.spawn([w.exclusive()], move |t| *t.write(&w) = i as u64 + base);
        }
    });
}

const CHAINS: usize = 6;
const LINKS: usize = 5;

#[test]
fn record_matches_online_on_every_scheduler_policy() {
    for policy in SchedPolicy::ALL {
        let rt = policy.build_runtime(4);
        let online = spawn_online(&rt, CHAINS, LINKS);
        let (dag, _cells, sum) = record_dag(&rt, CHAINS, LINKS);
        dag.replay(&rt);
        assert_eq!(
            *sum.get(),
            online,
            "recorded replay diverged from online scheduling under {}",
            policy.label()
        );
    }
}

#[test]
fn repeated_replays_are_deterministic() {
    let rt = Runtime::new(4);
    let (dag, cells, sum) = record_dag(&rt, CHAINS, LINKS);
    dag.replay(&rt);
    let first = *sum.get();
    for round in 0..5 {
        reset_cells(&cells, 1);
        dag.replay(&rt);
        assert_eq!(*sum.get(), first, "replay round {round} diverged");
    }
}

#[test]
fn replay_observes_mutated_input() {
    let rt = Runtime::new(4);
    let (dag, cells, sum) = record_dag(&rt, CHAINS, LINKS);
    dag.replay(&rt);
    let with_base_1 = *sum.get();
    reset_cells(&cells, 100);
    dag.replay(&rt);
    let with_base_100 = *sum.get();
    assert_ne!(
        with_base_1, with_base_100,
        "replay must re-read current handle data, not a snapshot"
    );
    // And it matches what online scheduling computes from the same inputs.
    let rt2 = Runtime::new(4);
    let cells2: Vec<Shared<u64>> = (0..CHAINS).map(|i| Shared::new(i as u64 + 100)).collect();
    let sum2 = Shared::new(0u64);
    rt2.scope(|ctx| {
        for (i, c) in cells2.iter().enumerate() {
            for l in 0..LINKS {
                let w = c.clone();
                let r = cells2[(i + 1) % CHAINS].clone();
                ctx.spawn([w.exclusive(), r.read()], move |t| {
                    let add = *t.read(&r) % 7 + l as u64;
                    let mut g = t.write(&w);
                    *g = g.wrapping_mul(3).wrapping_add(add);
                });
            }
        }
        let s = sum2.clone();
        let all: Vec<_> = cells2.to_vec();
        let accs: Vec<_> = cells2
            .iter()
            .map(|c| c.read())
            .chain([s.exclusive()])
            .collect();
        ctx.spawn(accs, move |t| {
            let mut acc = 0u64;
            for c in &all {
                acc = acc.wrapping_mul(31).wrapping_add(*t.read(c));
            }
            *t.write(&s) = acc;
        });
    });
    assert_eq!(*sum2.get(), with_base_100);
}

#[test]
fn recorded_cholesky_matches_online_on_every_scheduler_policy() {
    let orig = TiledMatrix::spd_random(96, 16, 7);
    let mut reference = orig.clone_matrix();
    cholesky_seq(&mut reference).unwrap();
    for policy in SchedPolicy::ALL {
        let rt = policy.build_runtime(4);
        let mut rec = RecordedCholesky::record(&rt, orig.clone_matrix());
        rec.replay(&rt).unwrap();
        assert_eq!(
            rec.result().max_abs_diff_lower(&reference),
            0.0,
            "recorded Cholesky diverged under {}",
            policy.label()
        );
        // Reload-and-replay: still bit-identical, and no replay binds a
        // single task into the data-flow engine.
        rt.reset_stats();
        for _ in 0..3 {
            rec.load(&orig);
            rec.replay(&rt).unwrap();
            assert_eq!(
                rec.result().max_abs_diff_lower(&reference),
                0.0,
                "reloaded replay diverged under {}",
                policy.label()
            );
        }
        assert_eq!(rt.stats().dataflow_pushes, 0, "under {}", policy.label());
    }
}

#[test]
fn replay_runs_zero_dependency_analysis() {
    let rt = Runtime::new(4);
    let (dag, cells, _sum) = record_dag(&rt, CHAINS, LINKS);
    dag.replay(&rt); // warm-up
    reset_cells(&cells, 1); // scopes above push analyzed tasks; reset after
    rt.reset_stats();
    for _ in 0..4 {
        dag.replay(&rt);
    }
    let stats = rt.stats();
    assert_eq!(
        stats.dataflow_pushes, 0,
        "replay re-ran dependency analysis"
    );
    assert!(stats.tasks_spawned > 0, "replay did execute tasks");
}
