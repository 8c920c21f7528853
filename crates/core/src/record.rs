//! Record-then-optimize-then-replay: ahead-of-time DAG scheduling
//! (`DESIGN.md` §7).
//!
//! X-Kaapi computes data-flow dependencies *online*, at every spawn. For
//! iterative workloads (tiled Cholesky sweeps, power iteration, solver
//! loops) the same DAG is rebuilt from scratch every iteration — pure
//! push-side overhead after the first pass. [`Runtime::record`] runs a
//! task-producing closure against a [`RecCtx`] that *captures* the spawns
//! instead of executing them, binds them through the ordinary
//! [`DataflowEngine`] once, and hands back an immutable [`RecordedDag`].
//!
//! Three ahead-of-time passes then optimize the schedule — leverage an
//! online scheduler structurally cannot have, because it discovers the
//! graph one task at a time:
//!
//! 1. **Critical-path priorities**: tasks on a longest source-to-sink path
//!    are stamped [`Priority::High`], tasks with large slack
//!    [`Priority::Low`], so replay drivers and their splitters run the
//!    critical path first.
//! 2. **Affinity clustering**: tasks inherit the dominant home NUMA node
//!    of the data they touch (writes weigh double), or their predecessors'
//!    node, as an [`Affinity::Node`] stamp — a replay splitter hands a
//!    thief the groups of its own node first.
//! 3. **Fusion**: straight-line chains of same-band, same-affinity tasks
//!    collapse into one replay group, cutting per-task push/steal overhead
//!    on fine-grained DAGs.
//!
//! [`RecordedDag::replay`] runs the groups as one adaptive task: each
//! participating worker runs a *driver* that takes ready groups from a
//! local list (highest band first, oldest first within a band), runs
//! their members in chain order, and appends the successors whose
//! predecessor countdown hit zero to the same list. Thieves reach a
//! driver through its splitter, which hands them the oldest half of the
//! list to start a driver of their own. Nothing is spawned per group and
//! nothing is analyzed: the `dataflow_pushes` stat stays flat. Recording
//! binds with renaming **disabled**: replayed bodies read and write the
//! handles' committed storage, so WAR/WAW edges must be kept — that is
//! the fusion/replay legality rule.
//!
//! Both the recorded schedule and an executed replay can be exported as
//! graphviz DOT and chrome-trace JSON (`about:tracing` /
//! `ui.perfetto.dev`), making schedules inspectable artifacts.

use crate::access::Access;
use crate::adaptive::Adaptive;
use crate::attrs::{Affinity, Priority, TaskAttrs, PRIORITY_BANDS};
use crate::ctx::{help_until, Ctx, RawCtx};
use crate::dataflow::DataflowEngine;
use crate::handle::Shared;
use crate::policy::RenamePolicy;
use crate::runtime::{RtInner, Runtime};
use crate::stats::WorkerStats;
use crate::steal::Grab;
use crate::telemetry::EventKind;
use crate::worker::Near;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A recorded task body: replayable any number of times, so `Fn` (not
/// `FnOnce`) and owning (`'static` — clone handles into the closure).
type RecBody = Arc<dyn for<'s> Fn(&mut Ctx<'s>) + Send + Sync>;

/// One captured spawn: accesses, attributes, body, optional display label.
pub(crate) struct RecDef {
    accesses: Box<[Access]>,
    attrs: TaskAttrs,
    body: RecBody,
    label: Option<String>,
}

/// The recording context handed to [`Runtime::record`]'s closure: it
/// mirrors [`Ctx`]'s spawn surface but *captures* tasks instead of running
/// them.
///
/// Recorded bodies execute later — possibly many times — so they must own
/// their captures (`'static`) and be re-runnable (`Fn`): clone handles into
/// the closure exactly like spawning from a scope.
pub struct RecCtx {
    defs: Vec<RecDef>,
}

impl RecCtx {
    /// Capture a task with default attributes — the recording counterpart
    /// of [`Ctx::spawn`].
    pub fn spawn<F>(&mut self, accesses: impl IntoIterator<Item = Access>, f: F)
    where
        F: for<'s> Fn(&mut Ctx<'s>) + Send + Sync + 'static,
    {
        self.defs.push(RecDef {
            accesses: accesses.into_iter().collect(),
            attrs: TaskAttrs::default(),
            body: Arc::new(f),
            label: None,
        });
    }

    /// Start building an attribute-carrying recorded task — the recording
    /// counterpart of [`Ctx::task`].
    pub fn task(&mut self) -> RecTaskBuilder<'_> {
        RecTaskBuilder {
            rec: self,
            accesses: Vec::new(),
            attrs: TaskAttrs::default(),
            label: None,
        }
    }

    /// Number of tasks captured so far.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// No task captured yet?
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

/// Builder for one recorded task, started with [`RecCtx::task`] (the
/// recording counterpart of [`crate::TaskBuilder`]).
#[must_use = "a RecTaskBuilder does nothing until .spawn"]
pub struct RecTaskBuilder<'r> {
    rec: &'r mut RecCtx,
    accesses: Vec<Access>,
    attrs: TaskAttrs,
    label: Option<String>,
}

impl RecTaskBuilder<'_> {
    /// Declare a whole-object read access on `h`.
    pub fn reads<T: ?Sized>(mut self, h: &Shared<T>) -> Self {
        self.accesses.push(h.read());
        self
    }

    /// Declare a whole-object write-only access on `h`.
    pub fn writes<T: ?Sized>(mut self, h: &Shared<T>) -> Self {
        self.accesses.push(h.write());
        self
    }

    /// Declare a whole-object exclusive read-write access on `h`.
    pub fn exclusive<T: ?Sized>(mut self, h: &Shared<T>) -> Self {
        self.accesses.push(h.exclusive());
        self
    }

    /// Declare an explicit access (regions, [`crate::Partitioned`] handles).
    pub fn access(mut self, a: Access) -> Self {
        self.accesses.push(a);
        self
    }

    /// Declare several explicit accesses at once.
    pub fn accesses(mut self, accs: impl IntoIterator<Item = Access>) -> Self {
        self.accesses.extend(accs);
        self
    }

    /// Set the priority band. A non-default priority is *pinned*: the
    /// critical-path pass only re-stamps recorded-`Normal` tasks.
    pub fn priority(mut self, p: Priority) -> Self {
        self.attrs.priority = p;
        self
    }

    /// Set the data-affinity request. A non-default affinity is *pinned*:
    /// the clustering pass only stamps [`Affinity::None`] tasks.
    pub fn affinity(mut self, a: Affinity) -> Self {
        self.attrs.affinity = a;
        self
    }

    /// Attach a display label (DOT / chrome-trace exports).
    pub fn label(mut self, l: impl Into<String>) -> Self {
        self.label = Some(l.into());
        self
    }

    /// Capture the task into the recording.
    pub fn spawn<F>(self, f: F)
    where
        F: for<'s> Fn(&mut Ctx<'s>) + Send + Sync + 'static,
    {
        let RecTaskBuilder {
            rec,
            accesses,
            attrs,
            label,
        } = self;
        rec.defs.push(RecDef {
            accesses: accesses.into_boxed_slice(),
            attrs,
            body: Arc::new(f),
            label,
        });
    }
}

/// What the recorder measured and the optimization passes did — one struct
/// per [`RecordedDag`], for tests, benches and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecordStats {
    /// Recorded tasks.
    pub tasks: usize,
    /// Dependency edges (after per-task dedup).
    pub edges: usize,
    /// Replay groups after fusion.
    pub groups: usize,
    /// Tasks living in a fused group of size `>= 2`.
    pub fused_tasks: usize,
    /// Longest source-to-sink path, in tasks.
    pub critical_path_len: usize,
    /// Tasks per priority band after the critical-path pass
    /// (`[high, normal, low]`).
    pub bands: [usize; 3],
    /// Tasks the affinity-clustering pass stamped with a node.
    pub affinity_stamped: usize,
}

/// One recorded task after optimization.
struct RecTask {
    body: RecBody,
    label: Option<String>,
}

/// One replay group (a fused chain, or a single task).
struct Group {
    /// Member task indices, in program (= chain) order.
    members: Vec<u32>,
    /// Band and affinity of the group (its first member's).
    attrs: TaskAttrs,
    /// Distinct predecessor groups.
    npred: u32,
    /// Distinct successor groups.
    succs: Vec<u32>,
}

struct DagInner {
    tasks: Vec<RecTask>,
    /// Per-task attributes after the optimization passes.
    attrs: Vec<TaskAttrs>,
    preds: Vec<Vec<u32>>,
    /// Longest path from a source to each task (in tasks, `>= 1`).
    top: Vec<u32>,
    groups: Vec<Group>,
    /// Group index of every task.
    group_of: Vec<u32>,
    stats: RecordStats,
}

/// An immutable, optimized task DAG produced by [`Runtime::record`]:
/// dependency analysis paid once, replayable any number of times.
///
/// Cloning is cheap (the DAG is shared); replays from clones are
/// independent executions.
///
/// ```
/// use xkaapi_core::{Runtime, Shared};
/// let rt = Runtime::new(2);
/// let h = Shared::new(0u64);
/// let (hw, hr) = (h.clone(), h.clone());
/// let dag = rt.record(move |r| {
///     let hw = hw.clone();
///     r.spawn([hw.exclusive()], move |t| *t.write(&hw) += 1);
/// });
/// dag.replay(&rt);
/// dag.replay(&rt);
/// assert_eq!(*hr.get(), 2);
/// ```
#[derive(Clone)]
pub struct RecordedDag {
    inner: Arc<DagInner>,
}

/// Largest fused-chain length: long enough to amortize push overhead,
/// short enough to keep steal granularity.
const FUSE_MAX: usize = 8;

impl RecordedDag {
    /// Bind the recorded defs once and run the three optimization passes.
    pub(crate) fn build(nodes: usize, defs: Vec<RecDef>) -> RecordedDag {
        let n = defs.len();
        // Renaming stays OFF: replayed bodies execute against the handles'
        // committed storage, so the recorded graph must keep every WAR/WAW
        // edge (the replay legality rule, `DESIGN.md` §7).
        let policy = RenamePolicy {
            enabled: false,
            max_live_slots: 8,
        };
        let mut eng = DataflowEngine::new();
        let mut preds: Vec<Vec<u32>> = Vec::with_capacity(n);
        for d in &defs {
            let b = eng.bind(&d.accesses, &policy);
            preds.push(eng.preds(b.index).to_vec());
        }
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p as usize].push(i as u32);
            }
        }
        let edges = preds.iter().map(|p| p.len()).sum();

        // Pass 1: critical path. Program order is a topological order
        // (every predecessor index is smaller), so two linear sweeps give
        // the longest path from sources (`top`) and to sinks (`bot`).
        let mut top = vec![1u32; n];
        for i in 0..n {
            for &p in &preds[i] {
                top[i] = top[i].max(top[p as usize] + 1);
            }
        }
        let mut bot = vec![1u32; n];
        for i in (0..n).rev() {
            for &s in &succs[i] {
                bot[i] = bot[i].max(bot[s as usize] + 1);
            }
        }
        let cp = top.iter().copied().max().unwrap_or(0);
        let mut attrs: Vec<TaskAttrs> = defs.iter().map(|d| d.attrs.clone()).collect();
        for i in 0..n {
            if attrs[i].priority == Priority::Normal {
                let slack = cp - (top[i] + bot[i] - 1);
                attrs[i].priority = if slack == 0 {
                    Priority::High
                } else if slack * 2 >= cp {
                    Priority::Low
                } else {
                    Priority::Normal
                };
            }
        }

        // Pass 2: affinity clustering — dominant home node of the data
        // touched (writes weigh double), else the predecessors' majority
        // node. Only meaningful on multi-node topologies, and recorded
        // affinities are pinned.
        let mut affinity_stamped = 0usize;
        if nodes > 1 {
            let mut weight = vec![0usize; nodes];
            for i in 0..n {
                if attrs[i].affinity != Affinity::None {
                    continue;
                }
                weight.iter_mut().for_each(|w| *w = 0);
                let mut any = false;
                for a in defs[i].accesses.iter() {
                    if let Some(hn) = a.home_node() {
                        if hn < nodes {
                            weight[hn] += if a.mode.writes() { 2 } else { 1 };
                            any = true;
                        }
                    }
                }
                if !any {
                    for &p in &preds[i] {
                        if let Affinity::Node(np) = attrs[p as usize].affinity {
                            weight[np] += 1;
                            any = true;
                        }
                    }
                }
                if any {
                    let best = (0..nodes).max_by_key(|&node| weight[node]).unwrap_or(0);
                    attrs[i].affinity = Affinity::Node(best);
                    affinity_stamped += 1;
                }
            }
        }

        // Pass 3: fusion — contract straight-line chains (single successor
        // whose single predecessor is the chain tail) of same-band,
        // same-affinity tasks into one replay group. Legality: the chain
        // members run back-to-back in dependency order inside one task, and
        // every cross-chain edge becomes a group edge below.
        let mut group_of = vec![u32::MAX; n];
        let mut members: Vec<Vec<u32>> = Vec::new();
        for i in 0..n {
            if group_of[i] != u32::MAX {
                continue;
            }
            let gid = members.len() as u32;
            group_of[i] = gid;
            let mut chain = vec![i as u32];
            let mut tail = i;
            while chain.len() < FUSE_MAX && succs[tail].len() == 1 {
                let nxt = succs[tail][0] as usize;
                if group_of[nxt] != u32::MAX
                    || preds[nxt].len() != 1
                    || attrs[nxt].band() != attrs[i].band()
                    || attrs[nxt].affinity != attrs[i].affinity
                {
                    break;
                }
                group_of[nxt] = gid;
                chain.push(nxt as u32);
                tail = nxt;
            }
            members.push(chain);
        }
        let ngroups = members.len();
        let mut gsuccs: Vec<Vec<u32>> = vec![Vec::new(); ngroups];
        let mut gnpred = vec![0u32; ngroups];
        for i in 0..n {
            let gi = group_of[i] as usize;
            for &s in &succs[i] {
                let gs = group_of[s as usize];
                if gs as usize != gi && !gsuccs[gi].contains(&gs) {
                    gsuccs[gi].push(gs);
                    gnpred[gs as usize] += 1;
                }
            }
        }
        let fused_tasks = members.iter().filter(|m| m.len() > 1).map(Vec::len).sum();
        let mut bands = [0usize; 3];
        for a in &attrs {
            bands[a.band() as usize] += 1;
        }
        let stats = RecordStats {
            tasks: n,
            edges,
            groups: ngroups,
            fused_tasks,
            critical_path_len: cp as usize,
            bands,
            affinity_stamped,
        };
        let groups = members
            .into_iter()
            .enumerate()
            .map(|(g, m)| Group {
                attrs: attrs[m[0] as usize].clone(),
                members: m,
                npred: gnpred[g],
                succs: std::mem::take(&mut gsuccs[g]),
            })
            .collect();
        RecordedDag {
            inner: Arc::new(DagInner {
                tasks: defs
                    .into_iter()
                    .map(|d| RecTask {
                        body: d.body,
                        label: d.label,
                    })
                    .collect(),
                attrs,
                preds,
                top,
                groups,
                group_of,
                stats,
            }),
        }
    }

    /// What the recorder and its optimization passes produced.
    pub fn stats(&self) -> RecordStats {
        self.inner.stats
    }

    /// Number of recorded tasks.
    pub fn len(&self) -> usize {
        self.inner.tasks.len()
    }

    /// Recorded nothing?
    pub fn is_empty(&self) -> bool {
        self.inner.tasks.is_empty()
    }

    /// Priority band the critical-path pass assigned to task `i`
    /// (0 = high; see [`crate::PRIORITY_BANDS`]).
    pub fn band_of(&self, i: usize) -> u8 {
        self.inner.attrs[i].band()
    }

    /// Affinity assigned to task `i` after the clustering pass.
    pub fn affinity_of(&self, i: usize) -> Affinity {
        self.inner.attrs[i].affinity
    }

    /// Predecessor task indices of task `i` (sorted, deduplicated).
    pub fn preds_of(&self, i: usize) -> &[u32] {
        &self.inner.preds[i]
    }

    /// Execute the recorded DAG once on `rt` — **without re-running
    /// dependency analysis** (the `dataflow_pushes` stat does not grow).
    /// The caller enters through [`Runtime::scope`] and runs groups
    /// itself; idle workers take part through the adaptive-task splitter.
    /// Blocks until every task completed, and re-raises the first panic
    /// of a member body. Replay any number of times: bodies observe the
    /// handles' *current* data (handles are re-read, not snapshotted).
    pub fn replay(&self, rt: &Runtime) {
        self.replay_impl(rt, false);
    }

    /// [`RecordedDag::replay`] plus an execution trace (start/duration/
    /// worker per replay group) for the chrome-trace / DOT exports.
    pub fn replay_traced(&self, rt: &Runtime) -> ReplayTrace {
        self.replay_impl(rt, true)
            .expect("traced replay returns a trace")
    }

    fn replay_impl(&self, rt: &Runtime, traced: bool) -> Option<ReplayTrace> {
        let dag = Arc::clone(&self.inner);
        if dag.tasks.is_empty() {
            return traced.then(ReplayTrace::default);
        }
        let mut roots = Ready::default();
        for (i, g) in dag.groups.iter().enumerate() {
            if g.npred == 0 {
                roots[g.attrs.band() as usize].push_back(i as u32);
            }
        }
        let topo = rt.topology();
        let run = Arc::new(ReplayRun {
            counters: dag.groups.iter().map(|g| AtomicU32::new(g.npred)).collect(),
            remaining: AtomicUsize::new(dag.groups.len()),
            node_of: (!topo.is_flat())
                .then(|| (0..topo.workers()).map(|w| topo.node_of(w)).collect()),
            epoch: Instant::now(),
            trace: traced.then(|| Mutex::new(Vec::new())),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            dag,
        });
        rt.scope(|ctx| {
            let raw = ctx.as_raw();
            let (rt, widx) = (&*raw.rt, raw.widx);
            drive(rt, widx, &run, roots, false);
            // Thieves' drivers may still hold groups: help until the last
            // one finished, like a foreach caller.
            help_until(rt, widx, || run.remaining.load(Ordering::Acquire) == 0);
        });
        if let Some(p) = run.panic.lock().take() {
            resume_unwind(p);
        }
        run.trace.as_ref().map(|t| ReplayTrace {
            events: std::mem::take(&mut *t.lock()),
        })
    }

    /// Graphviz DOT of the **recorded** schedule: one node per task,
    /// filled by assigned priority band, fused groups as clusters.
    pub fn to_dot(&self) -> String {
        let d = &*self.inner;
        let mut out = String::from(
            "digraph recorded {\n  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"monospace\"];\n",
        );
        for (g, grp) in d.groups.iter().enumerate() {
            let fused = grp.members.len() > 1;
            if fused {
                let _ = writeln!(
                    out,
                    "  subgraph cluster_{g} {{\n    label=\"group {g}\";\n    color=gray;"
                );
            }
            for &m in &grp.members {
                let i = m as usize;
                let _ = writeln!(
                    out,
                    "  {}t{i} [label=\"{}\\ncp {}\", fillcolor=\"{}\"];",
                    if fused { "  " } else { "" },
                    dot_escape(&self.task_label(i)),
                    d.top[i],
                    band_color(d.attrs[i].band()),
                );
            }
            if fused {
                out.push_str("  }\n");
            }
        }
        for (i, ps) in d.preds.iter().enumerate() {
            for &p in ps {
                let _ = writeln!(out, "  t{p} -> t{i};");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Graphviz DOT of an **executed** replay: the recorded structure
    /// annotated with each group's measured start time, duration and
    /// executing worker.
    pub fn executed_dot(&self, trace: &ReplayTrace) -> String {
        let d = &*self.inner;
        let mut by_group = vec![None; d.groups.len()];
        for e in &trace.events {
            by_group[e.group as usize] = Some(e);
        }
        let mut out = String::from(
            "digraph executed {\n  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"monospace\"];\n",
        );
        for (g, grp) in d.groups.iter().enumerate() {
            let timing = match by_group[g] {
                Some(e) => format!("@{}us +{}us w{}", e.start_us, e.dur_us, e.worker),
                None => "(not run)".to_string(),
            };
            let label: String = grp
                .members
                .iter()
                .map(|&m| self.task_label(m as usize))
                .collect::<Vec<_>>()
                .join("; ");
            let _ = writeln!(
                out,
                "  g{g} [label=\"{}\\n{}\", fillcolor=\"{}\"];",
                dot_escape(&label),
                timing,
                band_color(grp.attrs.band()),
            );
        }
        for (g, grp) in d.groups.iter().enumerate() {
            for &s in &grp.succs {
                let _ = writeln!(out, "  g{g} -> g{s};");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Chrome-trace JSON (`about:tracing` / Perfetto) of the **predicted**
    /// schedule: each task at its critical-path depth, one lane per
    /// assigned NUMA node.
    pub fn to_chrome_trace(&self) -> String {
        let d = &*self.inner;
        let mut out = String::from("{\"traceEvents\":[");
        for i in 0..d.tasks.len() {
            if i > 0 {
                out.push(',');
            }
            let tid = match d.attrs[i].affinity {
                Affinity::Node(n) => n as u64,
                _ => 0,
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":1000,\"args\":{{\"band\":{},\"group\":{}}}}}",
                json_escape(&self.task_label(i)),
                (d.top[i] as u64 - 1) * 1000,
                d.attrs[i].band(),
                d.group_of[i],
            );
        }
        out.push_str("]}");
        out
    }

    fn task_label(&self, i: usize) -> String {
        match &self.inner.tasks[i].label {
            Some(l) => l.clone(),
            None => format!("t{i}"),
        }
    }
}

/// Execution trace of one [`RecordedDag::replay_traced`] run.
#[derive(Default)]
pub struct ReplayTrace {
    events: Vec<TraceEvent>,
}

/// Timing of one executed replay group.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Replay-group index.
    pub group: u32,
    /// Start, microseconds since the replay epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Worker that executed the group.
    pub worker: u32,
}

impl ReplayTrace {
    /// Events of this replay, one per executed group.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Chrome-trace JSON (`about:tracing` / Perfetto) of the **measured**
    /// schedule: one lane per worker, real starts and durations.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"group {}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                e.group,
                e.worker,
                e.start_us,
                e.dur_us.max(1),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Shared state of one in-flight replay: fresh per call, so repeated and
/// concurrent replays of one DAG are independent.
struct ReplayRun {
    dag: Arc<DagInner>,
    /// Remaining predecessor groups, initialized from `Group::npred`.
    counters: Box<[AtomicU32]>,
    /// Groups not finished yet: the replay returns when it reaches zero.
    remaining: AtomicUsize,
    /// NUMA node of each worker, `None` on a flat topology.
    node_of: Option<Box<[usize]>>,
    epoch: Instant,
    trace: Option<Mutex<Vec<TraceEvent>>>,
    /// Set after any member body panicked: the rest of this replay's
    /// groups skip their bodies but keep the countdown protocol running,
    /// so every driver drains and the caller rethrows instead of hanging.
    poisoned: AtomicBool,
    /// The first member panic, re-raised by the replay caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Ready group ids, one queue per priority band, oldest first.
type Ready = [VecDeque<u32>; PRIORITY_BANDS];

/// One worker's part of a replay, registered as adaptive work while it
/// runs: the owner pops its ready groups, and a thief's splitter call
/// takes some of them to start a driver of its own.
struct Driver {
    run: Arc<ReplayRun>,
    /// Taken only by the owner and by the elected combiner thief.
    ready: Mutex<Ready>,
}

impl Adaptive for Driver {
    fn band(&self) -> u8 {
        let ready = self.ready.lock();
        ready
            .iter()
            .position(|b| !b.is_empty())
            .unwrap_or(PRIORITY_BANDS - 1) as u8
    }

    /// Each thief takes the oldest half of the pending groups (at least
    /// one), the highest band first; groups stamped with the thief's NUMA
    /// node go before any other.
    fn split(&self, thieves: &[usize], out: &mut Vec<Grab>) {
        let mut ready = self.ready.lock();
        for &thief in thieves {
            let pending: usize = ready.iter().map(VecDeque::len).sum();
            if pending == 0 {
                return;
            }
            let mut quota = (pending / 2).max(1);
            let mut share = Ready::default();
            if let Some(node_of) = &self.run.node_of {
                let home = Affinity::Node(node_of[thief]);
                let groups = &self.run.dag.groups;
                for (band, mine) in ready.iter_mut().zip(share.iter_mut()) {
                    band.retain(|&g| {
                        let take = quota > 0 && groups[g as usize].attrs.affinity == home;
                        if take {
                            mine.push_back(g);
                            quota -= 1;
                        }
                        !take
                    });
                }
            }
            for (band, mine) in ready.iter_mut().zip(share.iter_mut()) {
                let n = quota.min(band.len());
                mine.extend(band.drain(..n));
                quota -= n;
            }
            let run = Arc::clone(&self.run);
            out.push(Grab::Run(Box::new(
                move |rt: &Arc<RtInner>, widx: usize| {
                    drive(rt, widx, &run, share, true);
                },
            )));
        }
    }
}

/// Run a driver on worker `widx` until its ready list is empty. Each group
/// runs its members in chain order on one context, then counts down its
/// successors and pushes the ones that became ready onto this list; a
/// group moves between workers only through the splitter.
fn drive(rt: &Arc<RtInner>, widx: usize, run: &Arc<ReplayRun>, ready: Ready, stolen: bool) {
    let driver = Arc::new(Driver {
        run: Arc::clone(run),
        ready: Mutex::new(ready),
    });
    let ad: Arc<dyn Adaptive> = driver.clone();
    let worker = &rt.workers[widx];
    worker.register_adaptive(Arc::clone(&ad));
    let mut raw = RawCtx::new(rt, widx);
    raw.under.replay = true;
    let pop = |ready: &mut Ready| ready.iter_mut().find_map(VecDeque::pop_front);
    let (mut ran, mut with_attrs) = (0, 0);
    let mut next = pop(&mut driver.ready.lock());
    while let Some(gi) = next {
        let g = &run.dag.groups[gi as usize];
        ran += 1;
        with_attrs += u64::from(!g.attrs.is_default());
        run_group(rt, widx, &mut raw, run, gi);
        let mut ready = driver.ready.lock();
        let mut pushed = 0;
        for &s in &g.succs {
            if run.counters[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready[run.dag.groups[s as usize].attrs.band() as usize].push_back(s);
                pushed += 1;
            }
        }
        next = pop(&mut ready);
        let stealable: usize = ready.iter().map(VecDeque::len).sum();
        drop(ready);
        if pushed > 0 && stealable > 0 && rt.num_workers() > 1 {
            rt.notify_work(Near::Worker(widx), pushed.min(stealable));
        }
    }
    worker.deregister_adaptive(&ad);
    // Each group counts as one task, spawned and executed by its owner or
    // by a thief. The counts and `remaining` move once per driver, not per
    // group: the caller reads neither before `remaining` reaches zero.
    let stats = &worker.stats;
    WorkerStats::bump(&stats.tasks_spawned, ran);
    WorkerStats::bump(&stats.tasks_with_attrs, with_attrs);
    let executed = if stolen {
        &stats.tasks_executed_stolen
    } else {
        &stats.tasks_executed_own
    };
    WorkerStats::bump(executed, ran);
    run.remaining.fetch_sub(ran as usize, Ordering::AcqRel);
}

/// Run replay group `gi` on the driver context `raw`.
fn run_group(rt: &Arc<RtInner>, widx: usize, raw: &mut RawCtx, run: &ReplayRun, gi: u32) {
    let g = &run.dag.groups[gi as usize];
    let (band, worker) = (g.attrs.band(), &rt.workers[widx]);
    let stats = &worker.stats;
    // Traced, a group is a task span (`DESIGN.md` §9) with a ReplayGroup
    // instant inside it.
    let tele_t0 = rt.telemetry.enabled().then(|| {
        let t0 = crate::telemetry::tick();
        worker.tele.emit(t0, EventKind::TaskBegin, band, gi);
        worker.tele.emit(t0, EventKind::ReplayGroup, band, gi);
        t0
    });
    let t0 = run.trace.as_ref().map(|_| run.epoch.elapsed());
    // Panic isolation (`DESIGN.md` §8): a member panic poisons the
    // replay, and later groups skip their bodies but still count down
    // their successors, so every driver drains; the caller re-raises the
    // first payload.
    if run.poisoned.load(Ordering::Acquire) {
        WorkerStats::bump(&stats.tasks_poisoned, 1);
    } else {
        for &m in &g.members {
            let body = &*run.dag.tasks[m as usize].body;
            let res = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                crate::fault::on_task_execute(rt);
                raw.run_recorded(body)
            }));
            if res.is_err() {
                WorkerStats::bump(&stats.tasks_panicked, 1);
                crate::telemetry::emit_current(rt, widx, EventKind::Panic, band, gi);
            }
            // A body that spawned children syncs them here, before the
            // next member or any successor group can run.
            let fin = catch_unwind(AssertUnwindSafe(|| raw.finish()));
            if let Err(p) = res.and(fin) {
                run.panic.lock().get_or_insert(p);
                run.poisoned.store(true, Ordering::Release);
                break;
            }
        }
    }
    if let (Some(tr), Some(start)) = (&run.trace, t0) {
        let end = run.epoch.elapsed();
        tr.lock().push(TraceEvent {
            group: gi,
            start_us: start.as_micros() as u64,
            dur_us: end.saturating_sub(start).as_micros() as u64,
            worker: widx as u32,
        });
    }
    if let Some(t0) = tele_t0 {
        let t1 = crate::telemetry::tick();
        worker.tele.emit(t1, EventKind::TaskEnd, band, gi);
        worker.tele.start_to_done[band as usize].record(t1.saturating_sub(t0));
    }
}

impl Runtime {
    /// Record a task DAG without executing it (`DESIGN.md` §7): `f` runs
    /// once against a [`RecCtx`] whose spawns are captured, bound through
    /// the data-flow engine, and optimized ahead of time (critical-path
    /// priorities, affinity clustering, fusion). The returned
    /// [`RecordedDag`] replays any number of times with zero per-iteration
    /// dependency analysis.
    ///
    /// See [`RecordedDag`] for an example.
    pub fn record<F: FnOnce(&mut RecCtx)>(&self, f: F) -> RecordedDag {
        let mut rec = RecCtx { defs: Vec::new() };
        f(&mut rec);
        RecordedDag::build(self.topology().nodes(), rec.defs)
    }
}

fn band_color(band: u8) -> &'static str {
    match band {
        0 => "#f4cccc", // high: red-ish
        1 => "#cfe2f3", // normal: blue-ish
        _ => "#d9d9d9", // low: gray
    }
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Minimal JSON string escaping shared with the telemetry exporters
/// (`telemetry::TraceSession::to_chrome_trace`, `MetricsRegistry::to_json`).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(rt: &Runtime) -> (RecordedDag, Shared<u64>) {
        // a -> {b, c} -> d on one handle.
        let h = Shared::new(0u64);
        let (ha, hb, hc, hd) = (h.clone(), h.clone(), h.clone(), h.clone());
        let dag = rt.record(move |r| {
            let (a, b, c, d) = (ha.clone(), hb.clone(), hc.clone(), hd.clone());
            r.task()
                .exclusive(&a)
                .label("a")
                .spawn(move |t| *t.write(&a) += 1);
            r.task().reads(&b).label("b").spawn(move |t| {
                let _ = *t.read(&b);
            });
            r.task().reads(&c).label("c").spawn(move |t| {
                let _ = *t.read(&c);
            });
            r.task()
                .exclusive(&d)
                .label("d")
                .spawn(move |t| *t.write(&d) *= 10);
        });
        (dag, h)
    }

    #[test]
    fn record_captures_without_executing() {
        let rt = Runtime::new(1);
        let (dag, h) = diamond(&rt);
        assert_eq!(dag.len(), 4);
        assert_eq!(*h.get(), 0, "recording must not run bodies");
        let s = dag.stats();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 5, "a->b, a->c, b->d, c->d, a->d(WAW)");
        assert_eq!(s.critical_path_len, 3);
    }

    #[test]
    fn replay_executes_and_repeats() {
        let rt = Runtime::new(2);
        let (dag, h) = diamond(&rt);
        dag.replay(&rt);
        assert_eq!(*h.get(), 10);
        dag.replay(&rt);
        assert_eq!(*h.get(), 110, "replay re-reads current data");
    }

    #[test]
    fn replay_does_not_rerun_dependency_analysis() {
        let rt = Runtime::new(2);
        let (dag, _h) = diamond(&rt);
        dag.replay(&rt); // warm-up
        rt.reset_stats();
        for _ in 0..4 {
            dag.replay(&rt);
        }
        assert_eq!(
            rt.stats().dataflow_pushes,
            0,
            "replay spawns must carry no accesses"
        );
    }

    #[test]
    fn critical_path_tasks_get_high_band() {
        let rt = Runtime::new(1);
        // chain a->b->c (critical) plus isolated d: chain is High, d Low.
        let h = Shared::new(0u64);
        let i = Shared::new(0u64);
        let (h1, h2, h3, i1) = (h.clone(), h.clone(), h.clone(), i.clone());
        let dag = rt.record(move |r| {
            let (a, b, c, d) = (h1.clone(), h2.clone(), h3.clone(), i1.clone());
            r.spawn([a.exclusive()], move |t| *t.write(&a) += 1);
            r.spawn([b.exclusive()], move |t| *t.write(&b) += 1);
            r.spawn([c.exclusive()], move |t| *t.write(&c) += 1);
            r.spawn([d.exclusive()], move |t| *t.write(&d) += 1);
        });
        assert_eq!(dag.band_of(0), 0);
        assert_eq!(dag.band_of(1), 0);
        assert_eq!(dag.band_of(2), 0);
        assert_eq!(dag.band_of(3), 2, "full-slack task demoted");
        assert_eq!(dag.stats().bands, [3, 0, 1]);
    }

    #[test]
    fn fusion_contracts_chains() {
        let rt = Runtime::new(1);
        let h = Shared::new(1u64);
        let hs: Vec<_> = (0..6).map(|_| h.clone()).collect();
        let hr = h.clone();
        let dag = rt.record(move |r| {
            for hh in &hs {
                let w = hh.clone();
                r.spawn([w.exclusive()], move |t| *t.write(&w) *= 2);
            }
        });
        let s = dag.stats();
        assert_eq!(s.tasks, 6);
        assert_eq!(s.groups, 1, "one straight chain fuses into one group");
        assert_eq!(s.fused_tasks, 6);
        dag.replay(&rt);
        assert_eq!(*hr.get(), 64);
    }

    #[test]
    fn fusion_respects_the_cap() {
        let rt = Runtime::new(1);
        let h = Shared::new(0u64);
        let hs: Vec<_> = (0..20).map(|_| h.clone()).collect();
        let dag = rt.record(move |r| {
            for hh in &hs {
                let w = hh.clone();
                r.spawn([w.exclusive()], move |t| *t.write(&w) += 1);
            }
        });
        assert!(dag.stats().groups >= 20usize.div_ceil(FUSE_MAX));
        for g in &dag.inner.groups {
            assert!(g.members.len() <= FUSE_MAX);
        }
    }

    #[test]
    fn traced_replay_and_exports() {
        let rt = Runtime::new(2);
        let (dag, _h) = diamond(&rt);
        let trace = dag.replay_traced(&rt);
        assert_eq!(trace.events().len(), dag.stats().groups);
        let dot = dag.to_dot();
        assert!(dot.starts_with("digraph recorded {"));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.contains("\"a\\ncp 1\""));
        let xdot = dag.executed_dot(&trace);
        assert!(xdot.starts_with("digraph executed {"));
        assert!(xdot.contains("us w"));
        let ct = dag.to_chrome_trace();
        assert!(ct.starts_with("{\"traceEvents\":["));
        assert!(ct.ends_with("]}"));
        let rct = trace.to_chrome_trace();
        assert!(rct.contains("\"ph\":\"X\""));
    }

    #[test]
    fn empty_recording_is_fine() {
        let rt = Runtime::new(1);
        let dag = rt.record(|_| {});
        assert!(dag.is_empty());
        dag.replay(&rt);
        let t = dag.replay_traced(&rt);
        assert!(t.events().is_empty());
    }

    #[test]
    fn pinned_attrs_survive_passes() {
        let rt = Runtime::new(1);
        let h = Shared::new(0u64);
        let (h1, h2) = (h.clone(), h.clone());
        let dag = rt.record(move |r| {
            let (a, b) = (h1.clone(), h2.clone());
            r.task()
                .exclusive(&a)
                .priority(Priority::Low)
                .spawn(move |t| *t.write(&a) += 1);
            r.task()
                .exclusive(&b)
                .affinity(Affinity::Node(0))
                .spawn(move |t| *t.write(&b) += 1);
        });
        assert_eq!(dag.band_of(0), 2, "recorded priority is pinned");
        assert_eq!(dag.affinity_of(1), Affinity::Node(0));
    }
}
