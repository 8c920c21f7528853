//! Machine topology: worker → NUMA-node mapping and inter-node
//! distances, consumed by the steal layer for victim selection
//! (DESIGN.md §3).
//!
//! The representation is deliberately tiny — a worker→node map plus a
//! node×node [`DistanceMatrix`] in SLIT convention (10 = local, larger =
//! farther) — because it is shared verbatim with the simulator:
//! `xkaapi_sim::Platform::distance_matrix` builds the *same* type for the
//! paper's 48-core Magny-Cours model, so a victim-selection policy studied
//! on the simulated machine and one running on this host agree on what
//! "near" means.
//!
//! Construction, in order of preference:
//!
//! * [`Builder::topology`](crate::Builder::topology) — explicit, what
//!   benches and tests use to model a machine shape on any host;
//! * [`Topology::detect`] — `/sys/devices/system/node` on Linux (node
//!   `cpulist` + `distance` files), workers mapped round-robin over the
//!   online cores in node order;
//! * [`Topology::flat`] — the fallback everywhere else: one node, all
//!   distances local, on which hierarchical victim choice is uniform.

/// Node-to-node distance matrix in SLIT convention: `LOCAL` (10) on the
/// diagonal, larger values for farther nodes. Shared between the real
/// engine ([`Topology`]) and the simulator's platform model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    nodes: usize,
    /// Row-major `nodes × nodes` distances.
    dist: Vec<u32>,
}

impl DistanceMatrix {
    /// The SLIT "local" distance (a node to itself).
    pub const LOCAL: u32 = 10;
    /// The conventional one-hop remote distance.
    pub const REMOTE: u32 = 20;

    /// Uniform two-level matrix: `LOCAL` on the diagonal, `remote`
    /// everywhere else — the shape of every flat-remote NUMA machine and
    /// of the simulator's Magny-Cours model.
    pub fn two_level(nodes: usize, remote: u32) -> DistanceMatrix {
        assert!(nodes >= 1);
        let mut dist = vec![remote.max(Self::LOCAL + 1); nodes * nodes];
        for n in 0..nodes {
            dist[n * nodes + n] = Self::LOCAL;
        }
        DistanceMatrix { nodes, dist }
    }

    /// Matrix from explicit rows (e.g. parsed sysfs `distance` files).
    /// Every row must have `rows.len()` entries.
    pub fn from_rows(rows: &[Vec<u32>]) -> DistanceMatrix {
        let nodes = rows.len();
        assert!(nodes >= 1, "at least one node required");
        let mut dist = Vec::with_capacity(nodes * nodes);
        for row in rows {
            assert_eq!(row.len(), nodes, "distance matrix must be square");
            dist.extend_from_slice(row);
        }
        DistanceMatrix { nodes, dist }
    }

    /// Number of nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Distance between two nodes.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> u32 {
        self.dist[a * self.nodes + b]
    }
}

/// Worker → NUMA-node mapping plus the node [`DistanceMatrix`],
/// consulted by hierarchical victim choice ([`Steal`](crate::Steal)) on
/// every steal attempt (hot path: all lookups are array indexing).
#[derive(Clone, Debug)]
pub struct Topology {
    /// worker index → NUMA node.
    worker_node: Vec<usize>,
    /// node → workers on it (victim candidate sets, precomputed).
    node_workers: Vec<Vec<usize>>,
    dist: DistanceMatrix,
}

impl Topology {
    /// Single-node topology: every worker local to every other. The
    /// fallback shape; hierarchical victim choice is uniform here.
    pub fn flat(workers: usize) -> Topology {
        assert!(workers >= 1);
        Topology::from_parts(
            (0..workers).map(|_| 0).collect(),
            DistanceMatrix::two_level(1, DistanceMatrix::REMOTE),
        )
    }

    /// Two-level topology: `workers` split into nodes of `per_node`
    /// consecutive workers (the last node may be partial), local/remote
    /// distances in SLIT convention. This is the shape of the paper's
    /// Magny-Cours machine (8 nodes × 6 cores) and what benches use to
    /// model a NUMA machine on a flat host.
    pub fn two_level(workers: usize, per_node: usize) -> Topology {
        assert!(workers >= 1 && per_node >= 1);
        let nodes = workers.div_ceil(per_node);
        Topology::from_parts(
            (0..workers).map(|w| w / per_node).collect(),
            DistanceMatrix::two_level(nodes, DistanceMatrix::REMOTE),
        )
    }

    /// Topology from an explicit worker→node map and distance matrix.
    /// Node ids must be `< dist.nodes()`.
    pub fn with_distances(worker_node: Vec<usize>, dist: DistanceMatrix) -> Topology {
        Topology::from_parts(worker_node, dist)
    }

    fn from_parts(worker_node: Vec<usize>, dist: DistanceMatrix) -> Topology {
        assert!(!worker_node.is_empty(), "at least one worker required");
        let mut node_workers = vec![Vec::new(); dist.nodes()];
        for (w, &n) in worker_node.iter().enumerate() {
            assert!(n < dist.nodes(), "worker {w} on unknown node {n}");
            node_workers[n].push(w);
        }
        Topology {
            worker_node,
            node_workers,
            dist,
        }
    }

    /// Detect the host topology from `/sys/devices/system/node` (Linux),
    /// mapping `workers` round-robin over the online cores in node order.
    /// Falls back to [`Topology::flat`] when sysfs is absent or malformed
    /// (non-Linux, containers hiding sysfs, single-node machines parse
    /// fine and *are* flat).
    pub fn detect(workers: usize) -> Topology {
        assert!(workers >= 1);
        match detect_sysfs(workers) {
            Some(t) => t,
            None => Topology::flat(workers),
        }
    }

    /// Number of workers.
    #[inline]
    pub fn workers(&self) -> usize {
        self.worker_node.len()
    }

    /// Number of NUMA nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.dist.nodes()
    }

    /// NUMA node of a worker.
    #[inline]
    pub fn node_of(&self, worker: usize) -> usize {
        self.worker_node[worker]
    }

    /// Do two workers share a NUMA node?
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.worker_node[a] == self.worker_node[b]
    }

    /// SLIT distance between two *workers* (their nodes' distance).
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.dist.get(self.worker_node[a], self.worker_node[b])
    }

    /// Workers on a node (victim candidate set).
    #[inline]
    pub fn workers_on_node(&self, node: usize) -> &[usize] {
        &self.node_workers[node]
    }

    /// The node distance matrix.
    #[inline]
    pub fn distances(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// True when every worker shares one node (locality has nothing to
    /// exploit).
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.dist.nodes() == 1
    }
}

// ---------------------------------------------------------------------------
// sysfs detection

/// Parse a kernel cpulist ("0-5,12,14-17") into cpu ids.
fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in s.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                let a: usize = a.trim().parse().ok()?;
                let b: usize = b.trim().parse().ok()?;
                if a > b {
                    return None;
                }
                cpus.extend(a..=b);
            }
            None => cpus.push(part.trim().parse::<usize>().ok()?),
        }
    }
    Some(cpus)
}

/// Read `/sys/devices/system/node`: per-node `cpulist` and `distance`.
fn detect_sysfs(workers: usize) -> Option<Topology> {
    let base = std::path::Path::new("/sys/devices/system/node");
    let mut node_ids = Vec::new();
    for entry in std::fs::read_dir(base).ok()? {
        let name = entry.ok()?.file_name();
        let name = name.to_str()?;
        if let Some(id) = name.strip_prefix("node") {
            if let Ok(id) = id.parse::<usize>() {
                node_ids.push(id);
            }
        }
    }
    if node_ids.is_empty() {
        return None;
    }
    node_ids.sort_unstable();

    // (node position, cpu id) for every online cpu, and the SLIT rows.
    let mut cpus: Vec<(usize, usize)> = Vec::new();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for (pos, &id) in node_ids.iter().enumerate() {
        let dir = base.join(format!("node{id}"));
        let list = std::fs::read_to_string(dir.join("cpulist")).ok()?;
        for cpu in parse_cpulist(&list)? {
            cpus.push((pos, cpu));
        }
        let dist = std::fs::read_to_string(dir.join("distance")).ok()?;
        let row: Vec<u32> = dist
            .split_whitespace()
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        if row.len() != node_ids.len() {
            return None;
        }
        rows.push(row);
    }
    if cpus.is_empty() {
        return None;
    }
    // Node order first (the documented round-robin walks node 0's cores,
    // then node 1's, …), cpu id within a node: machines whose cpu ids
    // interleave nodes must not end up with interleaved worker→node maps.
    cpus.sort_unstable();

    let worker_node = (0..workers).map(|w| cpus[w % cpus.len()].0).collect();
    Some(Topology::from_parts(
        worker_node,
        DistanceMatrix::from_rows(&rows),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_one_node() {
        let t = Topology::flat(4);
        assert_eq!(t.workers(), 4);
        assert_eq!(t.nodes(), 1);
        assert!(t.is_flat());
        assert!(t.same_node(0, 3));
        assert_eq!(t.distance(0, 3), DistanceMatrix::LOCAL);
    }

    #[test]
    fn two_level_splits_consecutively() {
        let t = Topology::two_level(8, 4);
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(7), 1);
        assert!(t.same_node(1, 2));
        assert!(!t.same_node(3, 4));
        assert_eq!(t.distance(0, 1), DistanceMatrix::LOCAL);
        assert_eq!(t.distance(0, 5), DistanceMatrix::REMOTE);
        assert_eq!(t.workers_on_node(1), &[4, 5, 6, 7]);
    }

    #[test]
    fn two_level_partial_last_node() {
        let t = Topology::two_level(7, 3);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.workers_on_node(2), &[6]);
    }

    #[test]
    fn explicit_distances() {
        // 3 nodes in a line: 0 -10- 0, 0 -16- 1, 0 -22- 2.
        let d = DistanceMatrix::from_rows(&[vec![10, 16, 22], vec![16, 10, 16], vec![22, 16, 10]]);
        let t = Topology::with_distances(vec![0, 0, 1, 2], d);
        assert_eq!(t.distance(0, 2), 16);
        assert_eq!(t.distance(0, 3), 22);
    }

    #[test]
    fn cpulist_parser() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0,2,4-5"), Some(vec![0, 2, 4, 5]));
        assert_eq!(parse_cpulist("7"), Some(vec![7]));
        assert_eq!(parse_cpulist(" 0-1, 3 \n"), Some(vec![0, 1, 3]));
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("x"), None);
    }

    #[test]
    fn detect_never_panics_and_matches_worker_count() {
        let t = Topology::detect(5);
        assert_eq!(t.workers(), 5);
        assert!(t.nodes() >= 1);
        for w in 0..5 {
            assert!(t.node_of(w) < t.nodes());
        }
    }
}
