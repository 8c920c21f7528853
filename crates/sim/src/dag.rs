//! Task-graph representation and the discrete-event scheduler simulation.
//!
//! A [`TaskDag`] is built from per-task access lists (the same
//! last-writer/readers analysis every runtime in this repository performs),
//! or from explicit phase groups for barrier-style schedules. The
//! [`simulate_dag`] engine then executes it in virtual time on a
//! [`Platform`] under one of three scheduling policies mirroring the
//! compared runtimes:
//!
//! * [`DagPolicy::WorkStealing`] — X-Kaapi: ready tasks live in the queue
//!   of the core that released them, idle cores steal (oldest first) paying
//!   a steal cost; concurrent thieves are served together when request
//!   aggregation is on;
//! * [`DagPolicy::CentralQueue`] — QUARK / libGOMP tasks: one global ready
//!   list whose accesses are *serialized* (a virtual lock), the contention
//!   point that collapses at fine grain;
//! * [`DagPolicy::Static`] — PLASMA-static: a fixed task→core map, no
//!   scheduling cost at all, progress-table waits;
//! * [`DagPolicy::Offload`] — an accelerator track: ready tasks feed a
//!   serialized launch engine that groups them into batches, the first
//!   task of each batch paying the kernel-launch latency, every task
//!   paying a per-task transfer cost; cores model the device's parallel
//!   execution lanes and successors are released by the asynchronous
//!   completion stream. This is the repository's only accelerator model:
//!   the runtime has no device, so launch latency, batch size and transfer
//!   cost are studied here as parameters (`DESIGN.md` §1).

use crate::platform::Platform;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One simulated task: pure-CPU time plus memory traffic.
#[derive(Clone, Copy, Debug)]
pub struct SimTask {
    /// CPU time at full speed, nanoseconds.
    pub work_ns: u64,
    /// Memory traffic, bytes (0 = compute-bound).
    pub bytes: u64,
}

/// A dependency graph of [`SimTask`]s.
pub struct TaskDag {
    /// Tasks, in sequential (program) order.
    pub tasks: Vec<SimTask>,
    succ: Vec<Vec<u32>>,
    npred: Vec<u32>,
}

impl TaskDag {
    /// Build from access lists: task `i` declares `(key, is_write)` pairs;
    /// edges follow the sequential-consistency rules (RAW, WAR, WAW).
    pub fn from_accesses(tasks: Vec<SimTask>, accesses: &[Vec<(u64, bool)>]) -> TaskDag {
        assert_eq!(tasks.len(), accesses.len());
        struct Track {
            last_writer: Option<u32>,
            readers: Vec<u32>,
        }
        let n = tasks.len();
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut npred: Vec<u32> = vec![0; n];
        let mut tracks: HashMap<u64, Track> = HashMap::new();
        let mut preds: Vec<u32> = Vec::new();
        for (i, acc) in accesses.iter().enumerate() {
            preds.clear();
            for &(key, write) in acc {
                let t = tracks.entry(key).or_insert(Track {
                    last_writer: None,
                    readers: Vec::new(),
                });
                if write {
                    preds.extend(t.last_writer);
                    preds.extend(t.readers.iter().copied());
                    t.last_writer = Some(i as u32);
                    t.readers.clear();
                } else {
                    preds.extend(t.last_writer);
                    t.readers.push(i as u32);
                }
            }
            preds.sort_unstable();
            preds.dedup();
            for &p in preds.iter() {
                if p as usize != i {
                    succ[p as usize].push(i as u32);
                    npred[i] += 1;
                }
            }
        }
        TaskDag { tasks, succ, npred }
    }

    /// Build from explicit phases: all tasks of phase `g` must finish
    /// before any task of phase `g+1` starts (the `taskwait` structure of
    /// the OpenMP-style codes). `phases[i]` is task `i`'s group.
    pub fn from_phases(tasks: Vec<SimTask>, phases: &[u32]) -> TaskDag {
        assert_eq!(tasks.len(), phases.len());
        let n = tasks.len();
        let mut by_phase: HashMap<u32, Vec<u32>> = HashMap::new();
        for (i, &g) in phases.iter().enumerate() {
            by_phase.entry(g).or_default().push(i as u32);
        }
        let mut groups: Vec<u32> = by_phase.keys().copied().collect();
        groups.sort_unstable();
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut npred: Vec<u32> = vec![0; n];
        // A barrier is all-to-all between consecutive phases. To keep the
        // edge count linear, insert a zero-cost virtual barrier task after
        // each phase: phase_a → barrier → phase_b.
        let mut tasks = tasks;
        for w in groups.windows(2) {
            let (a, b) = (w[0], w[1]);
            let bar = tasks.len() as u32;
            tasks.push(SimTask {
                work_ns: 0,
                bytes: 0,
            });
            succ.push(Vec::new());
            npred.push(0);
            for &x in &by_phase[&a] {
                succ[x as usize].push(bar);
                npred[bar as usize] += 1;
            }
            for &y in &by_phase[&b] {
                succ[bar as usize].push(y);
                npred[y as usize] += 1;
            }
        }
        TaskDag { tasks, succ, npred }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total CPU work (ns), ignoring memory effects.
    pub fn total_work_ns(&self) -> u64 {
        self.tasks.iter().map(|t| t.work_ns).sum()
    }

    /// Critical path length (ns), ignoring memory effects.
    pub fn critical_path_ns(&self) -> u64 {
        let n = self.len();
        let mut dist = vec![0u64; n];
        let mut indeg = self.npred.clone();
        let mut q: VecDeque<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut best = 0;
        while let Some(i) = q.pop_front() {
            let d = dist[i as usize] + self.tasks[i as usize].work_ns;
            best = best.max(d);
            for &s in &self.succ[i as usize] {
                dist[s as usize] = dist[s as usize].max(d);
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    q.push_back(s);
                }
            }
        }
        best
    }
}

/// Scheduling policy of the virtual runtime.
#[derive(Clone, Debug)]
pub enum DagPolicy {
    /// Distributed work stealing (X-Kaapi).
    WorkStealing {
        /// Cost of a successful steal operation (detection + transfer).
        steal_ns: u64,
        /// Per-task management overhead (spawn/claim/bookkeeping).
        task_overhead_ns: u64,
        /// Serve concurrent thieves in one combine (request aggregation).
        aggregation: bool,
        /// Sequential spawn rate of the master: task `i` cannot start
        /// before `i · spawn_ns` (the program-order creation stream).
        spawn_ns: u64,
    },
    /// One global ready list with serialized access (QUARK, libGOMP).
    CentralQueue {
        /// Serialized queue access cost (push or pop).
        queue_ns: u64,
        /// Per-task management overhead.
        task_overhead_ns: u64,
        /// Sequential insertion cost per task (QUARK's master thread does
        /// hash-based dependence analysis at insertion): task `i` cannot
        /// start before `i · insert_ns`.
        insert_ns: u64,
    },
    /// Fixed ownership, zero scheduling cost (PLASMA static).
    Static {
        /// Task → core assignment.
        owner: Vec<u32>,
    },
    /// Accelerator track: batched kernel launches behind a serialized
    /// engine. Cores stand in for the device's parallel execution lanes.
    Offload {
        /// Kernel-launch latency, paid once by the first task of each
        /// batch (the remaining `batch − 1` tasks ride the same launch).
        launch_ns: u64,
        /// Launch batch size (tasks per kernel launch); clamped to ≥ 1.
        batch: u64,
        /// Per-task transfer cost (H2D upload + D2H commit), paid between
        /// the launch and the task body.
        transfer_ns: u64,
    },
}

/// Result of a simulated schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct DagRun {
    /// Virtual makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Successful steals (work-stealing policy).
    pub steals: u64,
    /// Time cores spent waiting on the serialized queue (central policy)
    /// or the serialized launch engine (offload policy).
    pub queue_wait_ns: u64,
    /// Kernel launches issued (offload policy).
    pub launches: u64,
}

/// Simulate `dag` on `platform` under `policy`. Deterministic for a given
/// `seed` (used only for steal victim selection tie-breaking).
pub fn simulate_dag(platform: &Platform, dag: &TaskDag, policy: &DagPolicy, seed: u64) -> DagRun {
    let p = platform.cores;
    let n = dag.len();
    if n == 0 {
        return DagRun::default();
    }
    let mut npred = dag.npred.clone();
    // Per-core state.
    let mut core_busy_until = vec![0u64; p];
    let mut core_running: Vec<Option<u32>> = vec![None; p];
    let mut local_q: Vec<VecDeque<u32>> = vec![VecDeque::new(); p];
    let mut central_q: VecDeque<u32> = VecDeque::new();
    let mut static_q: Vec<VecDeque<u32>> = vec![VecDeque::new(); p];
    let mut device_q: VecDeque<u32> = VecDeque::new();
    let mut queue_free_at = 0u64;
    // Offload launch engine: serialized availability + pops left in the
    // batch opened by the last paid launch.
    let mut engine_free_at = 0u64;
    let mut batch_left = 0u64;
    let mut rng = seed | 1;
    let mut next_rand = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    // Initial ready tasks.
    let initial: Vec<u32> = (0..n as u32).filter(|&i| npred[i as usize] == 0).collect();
    match policy {
        DagPolicy::WorkStealing { .. } => {
            // Spawned by the master: they sit in core 0's frame.
            local_q[0].extend(initial.iter().copied());
        }
        DagPolicy::CentralQueue { .. } => central_q.extend(initial.iter().copied()),
        DagPolicy::Static { owner } => {
            for (c, q) in static_q.iter_mut().enumerate() {
                for i in 0..n as u32 {
                    if owner[i as usize] as usize % p == c {
                        q.push_back(i);
                    }
                }
            }
        }
        DagPolicy::Offload { .. } => device_q.extend(initial.iter().copied()),
    }
    let mut ready_flag = vec![false; n];
    for &i in &initial {
        ready_flag[i as usize] = true;
    }

    // Event queue of task completions: (time, seq, core, task).
    let mut events: BinaryHeap<Reverse<(u64, u64, u32, u32)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut finished = 0usize;
    let mut stats = DagRun::default();
    let mut mem_active_node = vec![0usize; platform.nodes()];
    let mut mem_active_total = 0usize;

    // Release gate: sequential creation stream of the master thread.
    let release_ns: u64 = match policy {
        DagPolicy::WorkStealing { spawn_ns, .. } => *spawn_ns,
        DagPolicy::CentralQueue { insert_ns, .. } => *insert_ns,
        DagPolicy::Static { .. } | DagPolicy::Offload { .. } => 0,
    };
    // Start a task on a core at `start`.
    macro_rules! start_task {
        ($core:expr, $task:expr, $start:expr) => {{
            let c = $core as usize;
            let t = $task as usize;
            let start = ($start).max(release_ns.saturating_mul(t as u64));
            let st = dag.tasks[t];
            let node = platform.node_of(c);
            let (a_node, a_tot) = if st.bytes > 0 {
                mem_active_node[node] += 1;
                mem_active_total += 1;
                (mem_active_node[node], mem_active_total)
            } else {
                (1, 1)
            };
            let dur = st.work_ns + platform.mem_ns(st.bytes, a_node, a_tot);
            let fin = start + dur.max(1);
            core_busy_until[c] = fin;
            core_running[c] = Some($task);
            seq += 1;
            events.push(Reverse((fin, seq, $core, $task)));
        }};
    }

    // Dispatch work to idle cores at time `now`. Returns true if something
    // was dispatched.
    macro_rules! dispatch {
        ($now:expr) => {{
            let now: u64 = $now;
            let mut any = false;
            loop {
                let mut dispatched = false;
                // Count idle cores for the aggregation model.
                let idle: Vec<usize> = (0..p)
                    .filter(|&c| core_running[c].is_none() && core_busy_until[c] <= now)
                    .collect();
                let n_idle = idle.len();
                for &c in &idle {
                    if core_running[c].is_some() {
                        continue;
                    }
                    match policy {
                        DagPolicy::WorkStealing {
                            steal_ns,
                            task_overhead_ns,
                            aggregation,
                            ..
                        } => {
                            // Local pop first.
                            if let Some(t) = local_q[c].pop_back() {
                                start_task!(c as u32, t, now + task_overhead_ns);
                                dispatched = true;
                                continue;
                            }
                            // Steal from the richest victim (random tie-break).
                            let mut best: Option<usize> = None;
                            let mut best_len = 0usize;
                            let off = (next_rand() % p as u64) as usize;
                            for k in 0..p {
                                let v = (k + off) % p;
                                if v != c && local_q[v].len() > best_len {
                                    best_len = local_q[v].len();
                                    best = Some(v);
                                }
                            }
                            if let Some(v) = best {
                                let t = local_q[v].pop_front().unwrap();
                                stats.steals += 1;
                                let cost = if *aggregation {
                                    *steal_ns
                                } else {
                                    // Unaggregated: concurrent thieves each
                                    // pay a detection pass on the victim.
                                    steal_ns * n_idle.max(1) as u64
                                };
                                start_task!(c as u32, t, now + cost + task_overhead_ns);
                                dispatched = true;
                            }
                        }
                        DagPolicy::CentralQueue {
                            queue_ns,
                            task_overhead_ns,
                            ..
                        } => {
                            if central_q.is_empty() {
                                continue;
                            }
                            // Serialized queue access.
                            let access = queue_free_at.max(now);
                            stats.queue_wait_ns += access - now;
                            queue_free_at = access + queue_ns;
                            let t = central_q.pop_front().unwrap();
                            start_task!(c as u32, t, access + queue_ns + task_overhead_ns);
                            dispatched = true;
                        }
                        DagPolicy::Static { .. } => {
                            if let Some(&t) = static_q[c].front() {
                                if ready_flag[t as usize] {
                                    static_q[c].pop_front();
                                    start_task!(c as u32, t, now);
                                    dispatched = true;
                                }
                            }
                        }
                        DagPolicy::Offload {
                            launch_ns,
                            batch,
                            transfer_ns,
                        } => {
                            if device_q.is_empty() {
                                continue;
                            }
                            // Serialized launch engine: the first task of
                            // each batch pays the launch latency, the next
                            // `batch − 1` pops ride the same launch.
                            let access = engine_free_at.max(now);
                            stats.queue_wait_ns += access - now;
                            if batch_left == 0 {
                                engine_free_at = access + launch_ns;
                                stats.launches += 1;
                                batch_left = (*batch).max(1);
                            } else {
                                engine_free_at = access;
                            }
                            batch_left -= 1;
                            let t = device_q.pop_front().unwrap();
                            start_task!(c as u32, t, engine_free_at + transfer_ns);
                            dispatched = true;
                        }
                    }
                }
                any |= dispatched;
                if !dispatched {
                    break;
                }
            }
            any
        }};
    }

    dispatch!(0);
    while finished < n {
        let Some(Reverse((now, _, core, task))) = events.pop() else {
            panic!("simulation deadlock: {finished}/{n} tasks finished");
        };
        // Retire.
        let c = core as usize;
        let t = task as usize;
        core_running[c] = None;
        if dag.tasks[t].bytes > 0 {
            mem_active_node[platform.node_of(c)] -= 1;
            mem_active_total -= 1;
        }
        finished += 1;
        stats.makespan_ns = stats.makespan_ns.max(now);
        // Release successors.
        for &s in &dag.succ[t] {
            npred[s as usize] -= 1;
            if npred[s as usize] == 0 {
                ready_flag[s as usize] = true;
                match policy {
                    DagPolicy::WorkStealing { .. } => local_q[c].push_back(s),
                    DagPolicy::CentralQueue { queue_ns, .. } => {
                        // Producer also pays the serialized push.
                        let access = queue_free_at.max(now);
                        stats.queue_wait_ns += access - now;
                        queue_free_at = access + queue_ns;
                        central_q.push_back(s);
                    }
                    DagPolicy::Static { .. } => {}
                    // The asynchronous completion stream re-enters the
                    // dataflow engine: successors become ready tasks on
                    // the device queue when the completion drains.
                    DagPolicy::Offload { .. } => device_q.push_back(s),
                }
            }
        }
        dispatch!(now);
    }
    stats
}

/// Row-cyclic owner map for the static policy (PLASMA-style), from a
/// "row" extractor over task indices.
pub fn cyclic_owner(n: usize, cores: usize, row_of: impl Fn(usize) -> usize) -> Vec<u32> {
    (0..n).map(|i| (row_of(i) % cores) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize, work: u64) -> TaskDag {
        let tasks = vec![
            SimTask {
                work_ns: work,
                bytes: 0
            };
            n
        ];
        let acc: Vec<Vec<(u64, bool)>> = (0..n).map(|_| vec![(7, true)]).collect();
        TaskDag::from_accesses(tasks, &acc)
    }

    fn independent(n: usize, work: u64) -> TaskDag {
        let tasks = vec![
            SimTask {
                work_ns: work,
                bytes: 0
            };
            n
        ];
        let acc: Vec<Vec<(u64, bool)>> = (0..n).map(|i| vec![(i as u64, true)]).collect();
        TaskDag::from_accesses(tasks, &acc)
    }

    #[test]
    fn dag_builder_edges() {
        let d = chain(5, 10);
        assert_eq!(d.critical_path_ns(), 50);
        assert_eq!(d.total_work_ns(), 50);
        let d = independent(5, 10);
        assert_eq!(d.critical_path_ns(), 10);
    }

    #[test]
    fn chain_cannot_speed_up() {
        let p = Platform::magny_cours(8);
        let d = chain(100, 1_000);
        let ws = DagPolicy::WorkStealing {
            steal_ns: 10,
            task_overhead_ns: 0,
            aggregation: true,
            spawn_ns: 0,
        };
        let r = simulate_dag(&p, &d, &ws, 1);
        assert!(r.makespan_ns >= d.critical_path_ns());
    }

    #[test]
    fn independent_tasks_scale() {
        let d = independent(4_800, 10_000);
        let ws = DagPolicy::WorkStealing {
            steal_ns: 200,
            task_overhead_ns: 50,
            aggregation: true,
            spawn_ns: 0,
        };
        let t1 = simulate_dag(&Platform::magny_cours(1), &d, &ws, 1).makespan_ns;
        let t8 = simulate_dag(&Platform::magny_cours(8), &d, &ws, 1).makespan_ns;
        let t48 = simulate_dag(&Platform::magny_cours(48), &d, &ws, 1).makespan_ns;
        let s8 = t1 as f64 / t8 as f64;
        let s48 = t1 as f64 / t48 as f64;
        assert!(s8 > 6.0, "8-core speedup {s8}");
        assert!(s48 > 30.0, "48-core speedup {s48}");
    }

    #[test]
    fn makespan_lower_bounds_hold() {
        let d = independent(1_000, 5_000);
        for cores in [1, 4, 16, 48] {
            let p = Platform::magny_cours(cores);
            let ws = DagPolicy::WorkStealing {
                steal_ns: 0,
                task_overhead_ns: 0,
                aggregation: true,
                spawn_ns: 0,
            };
            let r = simulate_dag(&p, &d, &ws, 3);
            let bound = d.total_work_ns() / cores as u64;
            assert!(r.makespan_ns >= bound, "work/p bound at {cores} cores");
            assert!(r.makespan_ns >= d.critical_path_ns());
        }
    }

    #[test]
    fn central_queue_collapses_at_fine_grain() {
        // Fine tasks: queue serialization dominates; WS must win clearly.
        let d = independent(20_000, 1_000);
        let p = Platform::magny_cours(48);
        let ws = DagPolicy::WorkStealing {
            steal_ns: 200,
            task_overhead_ns: 50,
            aggregation: true,
            spawn_ns: 0,
        };
        let cq = DagPolicy::CentralQueue {
            queue_ns: 250,
            task_overhead_ns: 50,
            insert_ns: 0,
        };
        let t_ws = simulate_dag(&p, &d, &ws, 1).makespan_ns;
        let r_cq = simulate_dag(&p, &d, &cq, 1);
        assert!(
            r_cq.makespan_ns > t_ws * 2,
            "central {} vs ws {}",
            r_cq.makespan_ns,
            t_ws
        );
        assert!(r_cq.queue_wait_ns > 0);
    }

    #[test]
    fn central_queue_fine_at_coarse_grain() {
        // Coarse tasks amortize the queue: within ~20 % of WS.
        let d = independent(960, 1_000_000);
        let p = Platform::magny_cours(48);
        let ws = DagPolicy::WorkStealing {
            steal_ns: 200,
            task_overhead_ns: 50,
            aggregation: true,
            spawn_ns: 0,
        };
        let cq = DagPolicy::CentralQueue {
            queue_ns: 250,
            task_overhead_ns: 50,
            insert_ns: 0,
        };
        let t_ws = simulate_dag(&p, &d, &ws, 1).makespan_ns;
        let t_cq = simulate_dag(&p, &d, &cq, 1).makespan_ns;
        assert!((t_cq as f64) < (t_ws as f64) * 1.2);
    }

    #[test]
    fn static_policy_executes_everything() {
        let d = independent(1_000, 2_000);
        let owner = cyclic_owner(1_000, 16, |i| i);
        let p = Platform::magny_cours(16);
        let r = simulate_dag(&p, &d, &DagPolicy::Static { owner }, 1);
        let perfect = d.total_work_ns() / 16;
        assert!(r.makespan_ns >= perfect);
        assert!(r.makespan_ns < perfect * 2);
    }

    #[test]
    fn phase_barriers_serialize_phases() {
        // 2 phases of 10 independent tasks; barrier DAG's critical path is
        // two tasks long.
        let tasks = vec![
            SimTask {
                work_ns: 100,
                bytes: 0
            };
            20
        ];
        let phases: Vec<u32> = (0..20).map(|i| (i / 10) as u32).collect();
        let d = TaskDag::from_phases(tasks, &phases);
        assert_eq!(d.critical_path_ns(), 200);
        let p = Platform::magny_cours(48);
        let ws = DagPolicy::WorkStealing {
            steal_ns: 0,
            task_overhead_ns: 0,
            aggregation: true,
            spawn_ns: 0,
        };
        let r = simulate_dag(&p, &d, &ws, 1);
        assert!(r.makespan_ns >= 200);
    }

    #[test]
    fn memory_bound_tasks_hit_bandwidth_ceiling() {
        // Tasks that stream 10 MB each: scaling stalls near the bandwidth
        // limit regardless of core count.
        let tasks: Vec<SimTask> = (0..960)
            .map(|_| SimTask {
                work_ns: 10_000,
                bytes: 10 << 20,
            })
            .collect();
        let acc: Vec<Vec<(u64, bool)>> = (0..960).map(|i| vec![(i as u64, true)]).collect();
        let d = TaskDag::from_accesses(tasks, &acc);
        let ws = DagPolicy::WorkStealing {
            steal_ns: 100,
            task_overhead_ns: 10,
            aggregation: true,
            spawn_ns: 0,
        };
        let t1 = simulate_dag(&Platform::magny_cours(1), &d, &ws, 1).makespan_ns;
        let t48 = simulate_dag(&Platform::magny_cours(48), &d, &ws, 1).makespan_ns;
        let s = t1 as f64 / t48 as f64;
        assert!(s < 12.0, "bandwidth-bound speedup should saturate, got {s}");
        assert!(s > 3.0, "but it should still scale some, got {s}");
    }

    #[test]
    fn offload_batching_amortizes_launch_latency() {
        // Fine-grained independent tasks: with batch=1 every task pays the
        // full launch latency on the serialized engine; batch=32 amortizes
        // it 32×. Same DAG, same device.
        let d = independent(4_800, 2_000);
        let p = Platform::magny_cours(48);
        let unbatched = DagPolicy::Offload {
            launch_ns: 5_000,
            batch: 1,
            transfer_ns: 100,
        };
        let batched = DagPolicy::Offload {
            launch_ns: 5_000,
            batch: 32,
            transfer_ns: 100,
        };
        let r1 = simulate_dag(&p, &d, &unbatched, 1);
        let r32 = simulate_dag(&p, &d, &batched, 1);
        assert_eq!(r1.launches, 4_800);
        assert!(r32.launches < 200, "batched launches {}", r32.launches);
        assert!(
            r32.makespan_ns * 3 < r1.makespan_ns,
            "batched {} vs unbatched {}",
            r32.makespan_ns,
            r1.makespan_ns
        );
    }

    #[test]
    fn offload_respects_dependencies_and_pays_transfers() {
        // A chain cannot beat its critical path plus one launch + transfer
        // per task (batching cannot help: each successor only becomes
        // ready when the previous completion drains).
        let d = chain(50, 10_000);
        let p = Platform::magny_cours(8);
        let off = DagPolicy::Offload {
            launch_ns: 1_000,
            batch: 8,
            transfer_ns: 500,
        };
        let r = simulate_dag(&p, &d, &off, 1);
        assert!(r.makespan_ns >= d.critical_path_ns() + 50 * 500);
        assert_eq!(r.launches, 7, "one launch per 8-batch window");
    }

    #[test]
    fn aggregation_helps_with_many_idle_thieves() {
        // Long dependency spine with occasional wide fan-out: many idle
        // cores hammer the same victim; without aggregation each pays a
        // full detection.
        let mut tasks = Vec::new();
        let mut acc: Vec<Vec<(u64, bool)>> = Vec::new();
        for g in 0..50u64 {
            tasks.push(SimTask {
                work_ns: 20_000,
                bytes: 0,
            });
            acc.push(vec![(0, true)]); // spine
            for j in 0..47u64 {
                tasks.push(SimTask {
                    work_ns: 4_000,
                    bytes: 0,
                });
                acc.push(vec![(0, false), (1000 + g * 100 + j, true)]);
            }
        }
        let d = TaskDag::from_accesses(tasks, &acc);
        let p = Platform::magny_cours(48);
        let on = DagPolicy::WorkStealing {
            steal_ns: 400,
            task_overhead_ns: 20,
            aggregation: true,
            spawn_ns: 0,
        };
        let off = DagPolicy::WorkStealing {
            steal_ns: 400,
            task_overhead_ns: 20,
            aggregation: false,
            spawn_ns: 0,
        };
        let t_on = simulate_dag(&p, &d, &on, 7).makespan_ns;
        let t_off = simulate_dag(&p, &d, &off, 7).makespan_ns;
        assert!(t_on < t_off, "aggregation on {t_on} vs off {t_off}");
    }
}
