//! Collective algorithm IR: the single source of truth for every
//! collective algorithm in the stack.
//!
//! A collective is described once, as data: an ordered list of
//! [`Round`]s, each a set of [`Transfer`]s `(sender, receiver, bytes)`
//! that move concurrently. Rounds are barriers — round `r+1` starts only
//! when every transfer of round `r` has landed, exactly like the
//! synchronous ring/tree steps of NCCL's algorithms.
//!
//! A schedule is stored run-length: `(round, repeat)` runs whose
//! in-order expansion ([`CollSchedule::rounds`]) is the round list. A
//! ring collective is one run of `n` transfers, a hierarchical
//! all-reduce a handful, whatever the member count.
//!
//! Three layers consume one schedule:
//!
//! 1. the **engine executor** replays it flow-by-flow on [`crate::NetSim`]
//!    for full contention fidelity;
//! 2. the **analytic layer** folds it over a cost model: the uniform
//!    `latency + bytes/bw` link ([`CollSchedule::seconds_uniform`]), any
//!    per-transfer cost ([`CollSchedule::seconds_on`]) or the topology
//!    with per-node contention ([`estimate_on_topology`]). Every fold
//!    prices a run's round once and adds that cost `repeat` times, so it
//!    is bit-equal to pricing each expanded round;
//! 3. the **planner** (`holmes-parallel`'s NIC selection and placement
//!    search, `holmes`'s estimator, the engine's tensor-parallel compute
//!    model) scores candidate plans with the derived costs; there is no
//!    closed-form cost beside the fold.
//!
//! Algorithms: ring reduce-scatter / all-gather / all-reduce, binary-tree
//! all-reduce, pipelined ring broadcast, and the two-level
//! [`hierarchical_all_reduce`] for data-parallel groups that straddle
//! clusters (intra-cluster reduce-scatter on RDMA → inter-cluster
//! exchange over the Ethernet trunk → intra-cluster all-gather).

use holmes_topology::{DeviceCoord, LinkProfile, Rank, Topology};

/// Collective algorithm kinds understood by every layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollKind {
    /// Ring all-reduce: `2(n−1)` rounds of `V/n` chunks. Bandwidth-optimal.
    AllReduce,
    /// Binary-tree all-reduce: `2·⌊log₂n⌋` rounds of full-buffer hops
    /// over a binary heap. Latency-optimal — NCCL's choice for small
    /// messages.
    TreeAllReduce,
    /// Ring reduce-scatter: `n−1` rounds of `V/n` chunks.
    ReduceScatter,
    /// Ring all-gather: `n−1` rounds of `V/n` chunks.
    AllGather,
    /// Pipelined ring broadcast: `n−1` rounds of `V/(n−1)` chunks.
    Broadcast,
    /// Two-level all-reduce for groups spanning clusters: per-cluster ring
    /// reduce-scatter, slot-ring exchange across clusters, per-cluster
    /// ring all-gather. Keeps the bulk of the traffic on intra-cluster
    /// RDMA and spreads the bulk of the cross-cluster residue over every node's
    /// Ethernet uplink instead of serializing it through one flat ring.
    HierarchicalAllReduce,
    /// Parameter-server gradient push: the buffer is sharded across the
    /// group's first `servers` members (colocated parameter servers) and
    /// every member pushes each foreign shard to its server concurrently.
    /// One round of `(n−1)·s` transfers of `V/s` — the server-side incast
    /// is the PS bottleneck under contention.
    PsPush {
        /// Number of members (group prefix) acting as parameter servers.
        servers: u32,
    },
    /// Parameter-server parameter pull: mirror of [`CollKind::PsPush`] —
    /// each server broadcasts its `V/s` shard to every other member in
    /// one round of `s·(n−1)` transfers.
    PsPull {
        /// Number of members (group prefix) acting as parameter servers.
        servers: u32,
    },
}

impl CollKind {
    /// Build the round schedule for this algorithm over `devices` (in ring
    /// order) moving a `bytes`-sized buffer.
    ///
    /// `cluster_of` maps a rank to its cluster id; only
    /// [`CollKind::HierarchicalAllReduce`] consults it (pass `|_| 0` when
    /// the caller has no cluster structure — the hierarchical schedule
    /// then degenerates to a flat ring).
    pub fn schedule(
        self,
        devices: &[Rank],
        bytes: u64,
        cluster_of: impl Fn(Rank) -> u32,
    ) -> CollSchedule {
        match self {
            CollKind::AllReduce => ring_all_reduce(devices, bytes),
            CollKind::TreeAllReduce => tree_all_reduce(devices, bytes),
            CollKind::ReduceScatter => ring_reduce_scatter(devices, bytes),
            CollKind::AllGather => ring_all_gather(devices, bytes),
            CollKind::Broadcast => ring_broadcast(devices, bytes),
            CollKind::HierarchicalAllReduce => {
                let groups = partition_by_cluster(devices, cluster_of);
                hierarchical_all_reduce(&groups, bytes)
            }
            CollKind::PsPush { servers } => ps_push(devices, bytes, servers),
            CollKind::PsPull { servers } => ps_pull(devices, bytes, servers),
        }
    }

    /// Whether the schedule tolerates losing a member mid-flight: the
    /// parameter-server kinds are star-shaped (every transfer touches a
    /// server), so a lost member only stales its own contribution. Ring
    /// and tree schedules thread the buffer *through* every member and
    /// cannot complete without all of them.
    pub fn survives_member_loss(self) -> bool {
        matches!(self, CollKind::PsPush { .. } | CollKind::PsPull { .. })
    }
}

/// One point-to-point transfer inside a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank.
    pub to: Rank,
    /// Payload bytes.
    pub bytes: u64,
}

/// One synchronous step: all transfers move concurrently; the round ends
/// when the slowest lands.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Round {
    transfers: Vec<Transfer>,
}

impl Round {
    /// Build a round from explicit transfers. The algorithm constructors
    /// below are the normal producers; this entry point exists for
    /// verification tooling (`holmes-analysis` mutation tests build
    /// deliberately corrupted schedules with it).
    pub fn new(transfers: Vec<Transfer>) -> Self {
        Round { transfers }
    }

    /// The round's transfers.
    #[inline]
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }
}

/// An ordered list of rounds — the complete description of one collective
/// algorithm instance — stored run-length: each `(round, repeat)` run is
/// its round executed `repeat ≥ 1` times back to back. A ring is one run
/// however many members it has.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollSchedule {
    runs: Vec<(Round, u32)>,
}

impl CollSchedule {
    /// The empty schedule (degenerate groups: nothing to move).
    pub fn empty() -> Self {
        CollSchedule { runs: Vec::new() }
    }

    /// Build a schedule from explicit rounds, each a run of one. Like
    /// [`Round::new`] this is for verification tooling; production
    /// schedules come from the algorithm constructors /
    /// [`CollKind::schedule`].
    pub fn from_rounds(rounds: Vec<Round>) -> Self {
        CollSchedule {
            runs: rounds.into_iter().map(|round| (round, 1)).collect(),
        }
    }

    /// The rounds, in execution order, each run expanded.
    pub fn rounds(&self) -> impl Iterator<Item = &Round> + Clone {
        self.runs
            .iter()
            .flat_map(|(round, repeat)| std::iter::repeat_n(round, *repeat as usize))
    }

    /// Number of rounds.
    pub fn round_count(&self) -> u32 {
        self.runs.iter().map(|(_, repeat)| repeat).sum()
    }

    /// True when there is nothing to do (n ≤ 1 groups).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total bytes moved across all rounds and transfers.
    pub fn total_bytes(&self) -> u64 {
        self.runs
            .iter()
            .map(|(round, repeat)| {
                u64::from(*repeat) * round.transfers.iter().map(|t| t.bytes).sum::<u64>()
            })
            .sum()
    }

    /// Fold the schedule over a per-round cost: each run's round is priced
    /// once and its cost added `repeat` times, in order, from `0.0` — the
    /// same terms in the same order as pricing every expanded round, so
    /// the result is bit-equal to that per-round sum.
    fn fold(&self, mut round_cost: impl FnMut(&Round) -> f64) -> f64 {
        let mut total = 0.0f64;
        for (round, repeat) in &self.runs {
            let seconds = round_cost(round);
            for _ in 0..*repeat {
                total += seconds;
            }
        }
        total
    }

    /// Fold the schedule over a per-transfer cost model: each round costs
    /// the maximum of its transfer costs (they move concurrently), rounds
    /// serialize. This is the generic analytic evaluation of the IR.
    pub fn seconds_on(&self, mut transfer_cost: impl FnMut(&Transfer) -> f64) -> f64 {
        self.fold(|round| {
            round
                .transfers
                .iter()
                .map(&mut transfer_cost)
                .fold(0.0, f64::max)
        })
    }

    /// [`CollSchedule::seconds_on`] with a uniform `latency + bytes/bw`
    /// link model: how the planner, the estimator and the compute model
    /// price a ring over its [`crate::collective::ring_link`].
    pub fn seconds_uniform(&self, bandwidth_bytes_per_sec: f64, latency_s: f64) -> f64 {
        self.seconds_on(|t| latency_s + t.bytes as f64 / bandwidth_bytes_per_sec)
    }
}

/// Depth of the binary heap over `n` ranks (root at depth 0):
/// `⌊log₂n⌋`, `0` for the degenerate `n ≤ 1`. Shared by the schedule
/// constructor and the verifier's expected totals — the single definition
/// in the workspace (it used to exist twice, once per layer, and the
/// copies had drifted: a closed form said `⌈log₂n⌉` while the executor's
/// heap layout has no rank at that level for non-powers-of-two, leaving
/// its deepest round empty).
pub fn tree_depth(n: u32) -> u32 {
    if n <= 1 {
        return 0;
    }
    n.ilog2()
}

/// Group `devices` by cluster id, preserving first-seen cluster order and
/// per-cluster device order (so each group keeps the caller's ring order).
pub fn partition_by_cluster(devices: &[Rank], cluster_of: impl Fn(Rank) -> u32) -> Vec<Vec<Rank>> {
    let mut ids: Vec<u32> = Vec::new();
    let mut groups: Vec<Vec<Rank>> = Vec::new();
    for &d in devices {
        let c = cluster_of(d);
        match ids.iter().position(|&known| known == c) {
            Some(i) => groups[i].push(d),
            None => {
                ids.push(c);
                groups.push(vec![d]);
            }
        }
    }
    groups
}

/// A schedule of one run: `round` executed `repeat` times.
fn one_run(round: Round, repeat: u32) -> CollSchedule {
    CollSchedule {
        runs: vec![(round, repeat)],
    }
}

/// One round in which every rank sends `chunk` bytes to its ring successor
/// — the skeleton of all ring collectives.
fn ring_round(devices: &[Rank], chunk: u64) -> Round {
    let mut transfers = Vec::with_capacity(devices.len());
    push_ring_hops(devices, chunk, &mut transfers);
    Round { transfers }
}

/// Append one ring round's hops over `devices` to `transfers`.
fn push_ring_hops(devices: &[Rank], chunk: u64, transfers: &mut Vec<Transfer>) {
    let hop = |from, to| Transfer {
        from,
        to,
        bytes: chunk,
    };
    transfers.extend(devices.windows(2).map(|w| hop(w[0], w[1])));
    if let (Some(&last), Some(&first)) = (devices.last(), devices.first()) {
        transfers.push(hop(last, first));
    }
}

/// A member list's length. Members are ranks of one topology, so a list
/// never outgrows [`holmes_topology::MAX_DEVICES`].
#[expect(clippy::cast_possible_truncation, reason = "at most MAX_DEVICES")]
fn member_count(devices: &[Rank]) -> u32 {
    devices.len() as u32
}

/// Ring reduce-scatter: `n−1` rounds of `V/n` chunks.
pub fn ring_reduce_scatter(devices: &[Rank], bytes: u64) -> CollSchedule {
    let n = member_count(devices);
    if n <= 1 {
        return CollSchedule::empty();
    }
    one_run(ring_round(devices, bytes / u64::from(n)), n - 1)
}

/// Ring all-gather: `n−1` rounds of `V/n` chunks (the mirror image of
/// reduce-scatter — identical round structure).
pub fn ring_all_gather(devices: &[Rank], bytes: u64) -> CollSchedule {
    ring_reduce_scatter(devices, bytes)
}

/// Ring all-reduce = reduce-scatter + all-gather: `2(n−1)` rounds of
/// `V/n` chunks.
pub fn ring_all_reduce(devices: &[Rank], bytes: u64) -> CollSchedule {
    let n = member_count(devices);
    if n <= 1 {
        return CollSchedule::empty();
    }
    one_run(ring_round(devices, bytes / u64::from(n)), 2 * (n - 1))
}

/// Pipelined ring broadcast: `n−1` rounds of `V/(n−1)` chunks.
pub fn ring_broadcast(devices: &[Rank], bytes: u64) -> CollSchedule {
    let n = member_count(devices);
    if n <= 1 {
        return CollSchedule::empty();
    }
    one_run(ring_round(devices, bytes / u64::from(n - 1)), n - 1)
}

/// Binary-tree all-reduce over the binary-heap layout of `devices`:
/// `⌊log₂n⌋` reduce rounds climbing from the deepest level to the root,
/// then `⌊log₂n⌋` broadcast rounds descending back, each hop carrying the
/// full buffer. Every round is non-empty (heap level `l` always contains
/// index `2^l − 1`) and a run of one.
pub fn tree_all_reduce(devices: &[Rank], bytes: u64) -> CollSchedule {
    let n = member_count(devices);
    if n <= 1 {
        return CollSchedule::empty();
    }
    let depth = tree_depth(n);
    let level_of = |i: u32| (i + 1).ilog2();
    let rounds = (0..2 * depth)
        .map(|round| {
            let (level, upward) = if round < depth {
                (depth - round, true) // reduce: deepest level first
            } else {
                (round - depth + 1, false) // broadcast: shallow levels first
            };
            Round {
                transfers: (1..n)
                    .filter(|&i| level_of(i) == level)
                    .map(|i| {
                        let parent = (i - 1) / 2;
                        let (from, to) = if upward {
                            (devices[i as usize], devices[parent as usize])
                        } else {
                            (devices[parent as usize], devices[i as usize])
                        };
                        Transfer { from, to, bytes }
                    })
                    .collect(),
            }
        })
        .collect();
    CollSchedule::from_rounds(rounds)
}

/// Two-level hierarchical all-reduce over per-cluster groups (each group
/// in ring order; empty groups are skipped):
///
/// 1. **intra-cluster reduce-scatter** — every cluster runs its own ring
///    reduce-scatter (`n_c − 1` rounds of `V/n_c`), all clusters in
///    lockstep, entirely on intra-cluster links (RDMA where available);
/// 2. **inter-cluster exchange** — `s_max = max n_c` counterpart slot
///    rings across the `k` clusters all-reduce the scattered shards:
///    `2(k−1)` rounds of `V/(s_max·k)` per slot, the only traffic that
///    crosses the slow Ethernet trunk, spread over every node's uplink;
/// 3. **intra-cluster all-gather** — mirror of phase 1.
///
/// Each intra pass is one run per active-cluster set (the round only
/// changes when the pass reaches some cluster's `n_c − 1`) and the
/// exchange is one run of `2(k−1)`, so a group is a handful of distinct
/// rounds however many members it has. With one (non-empty) cluster this
/// degenerates to the flat ring all-reduce; with ≤ 1 total ranks the
/// schedule is empty.
#[expect(clippy::cast_possible_truncation, reason = "counts of member ranks")]
pub fn hierarchical_all_reduce(groups: &[Vec<Rank>], bytes: u64) -> CollSchedule {
    let groups: Vec<&[Rank]> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| g.as_slice())
        .collect();
    let total: usize = groups.iter().map(|g| g.len()).sum();
    if total <= 1 {
        return CollSchedule::empty();
    }
    if groups.len() == 1 {
        return ring_all_reduce(groups[0], bytes);
    }
    let k = groups.len();
    let s_max = groups.iter().map(|g| g.len()).max().unwrap_or(0);
    let mut runs = Vec::new();

    // Phase 1/3 skeleton: one lockstep intra-cluster ring pass; cluster c
    // is active while `r < n_c − 1`.
    let intra_pass = |runs: &mut Vec<(Round, u32)>| {
        let mut r = 0;
        while r + 1 < s_max {
            let active = groups.iter().filter(|g| r + 1 < g.len());
            // The largest cluster is active for every intra round.
            let end = active
                .clone()
                .map(|g| g.len() - 1)
                .min()
                .unwrap_or(s_max - 1);
            let mut transfers = Vec::with_capacity(active.clone().map(|g| g.len()).sum());
            for g in active {
                push_ring_hops(g, bytes / g.len() as u64, &mut transfers);
            }
            if !transfers.is_empty() {
                runs.push((Round { transfers }, (end - r) as u32));
            }
            r = end;
        }
    };

    intra_pass(&mut runs);

    // Phase 2: slot rings. Slot `i` all-reduces a `V/s_max` shard across
    // one representative per cluster (`g_c[i mod n_c]`), as a ring
    // all-reduce of k participants: `2(k−1)` rounds of `V/(s_max·k)`.
    let chunk = bytes / (s_max as u64 * k as u64);
    let transfers: Vec<Transfer> = (0..s_max)
        .flat_map(|slot| {
            let groups = &groups;
            (0..k).map(move |c| Transfer {
                from: groups[c][slot % groups[c].len()],
                to: groups[(c + 1) % k][slot % groups[(c + 1) % k].len()],
                bytes: chunk,
            })
        })
        .collect();
    runs.push((Round { transfers }, 2 * (k as u32 - 1)));

    intra_pass(&mut runs);
    CollSchedule { runs }
}

/// Effective server count for a PS group: at least one, at most the
/// group size.
fn ps_server_count(n: usize, servers: u32) -> usize {
    (servers.max(1) as usize).min(n)
}

/// Parameter-server gradient push: the group's first `servers` members
/// host `V/s` parameter shards; every member pushes each shard it does
/// not host to that shard's server. All pushes move concurrently (one
/// round) — the analytic fold and the executor's replay both see the
/// `(n−1)` -way incast on each server's downlink, which is exactly the
/// bottleneck that makes PS lose to all-reduce at scale.
pub fn ps_push(devices: &[Rank], bytes: u64, servers: u32) -> CollSchedule {
    let n = devices.len();
    if n <= 1 {
        return CollSchedule::empty();
    }
    let s = ps_server_count(n, servers);
    let chunk = bytes / s as u64;
    let transfers: Vec<Transfer> = (0..s)
        .flat_map(|j| {
            devices.iter().enumerate().filter_map(move |(i, &from)| {
                (i != j).then_some(Transfer {
                    from,
                    to: devices[j],
                    bytes: chunk,
                })
            })
        })
        .collect();
    one_run(Round { transfers }, 1)
}

/// Parameter-server parameter pull: mirror of [`ps_push`] — each server
/// fans its `V/s` shard out to every other member concurrently, so the
/// bottleneck is each server's `(n−1)`-way outcast.
pub fn ps_pull(devices: &[Rank], bytes: u64, servers: u32) -> CollSchedule {
    let n = devices.len();
    if n <= 1 {
        return CollSchedule::empty();
    }
    let s = ps_server_count(n, servers);
    let chunk = bytes / s as u64;
    let transfers: Vec<Transfer> = (0..s)
        .flat_map(|j| {
            devices.iter().enumerate().filter_map(move |(i, &to)| {
                (i != j).then_some(Transfer {
                    from: devices[j],
                    to,
                    bytes: chunk,
                })
            })
        })
        .collect();
    one_run(Round { transfers }, 1)
}

/// A round's transfers that share source node, destination node and
/// bytes: they read one link profile and the same contention counters, so
/// [`estimate_on_topology`] prices the group once and counts it `count`
/// times.
struct PairGroup {
    src: DeviceCoord,
    dst: DeviceCoord,
    src_node: u32,
    dst_node: u32,
    bytes: u64,
    count: u32,
    profile: LinkProfile,
}

/// Table slot with no group yet.
const NO_GROUP: u32 = u32::MAX;

/// Group `transfers` by (source node, destination node, bytes) into
/// `groups` in one pass: `table` is an open-addressing index of `groups`,
/// of which the first `(2·len).next_power_of_two()` slots serve this
/// round (reset here, so a round costs time linear in its size).
#[expect(
    clippy::cast_possible_truncation,
    reason = "fewer groups than u32::MAX"
)]
#[expect(clippy::expect_used, reason = "schedule ranks belong to `topo`")]
fn group_by_node_pair(
    topo: &Topology,
    transfers: &[Transfer],
    table: &mut [u32],
    groups: &mut Vec<PairGroup>,
) {
    let gpus_per_node = topo.gpus_per_node().max(1);
    let size = (2 * transfers.len()).next_power_of_two().max(2);
    let table = &mut table[..size];
    table.fill(NO_GROUP);
    groups.clear();
    let mask = size - 1;
    let shift = 64 - size.trailing_zeros();
    for t in transfers {
        let (src_node, dst_node) = (t.from.0 / gpus_per_node, t.to.0 / gpus_per_node);
        let key = (u64::from(src_node) << 32 | u64::from(dst_node)) ^ t.bytes.rotate_left(29);
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            let g = table[i];
            if g == NO_GROUP {
                table[i] = groups.len() as u32;
                let coord = |r| {
                    topo.coord(r)
                        .expect("schedule transfers reference ranks inside the topology")
                };
                groups.push(PairGroup {
                    src: coord(t.from),
                    dst: coord(t.to),
                    src_node,
                    dst_node,
                    bytes: t.bytes,
                    count: 1,
                    profile: topo
                        .link_between(t.from, t.to)
                        .expect("schedule ranks belong to the topology"),
                });
                break;
            }
            let group = &mut groups[g as usize];
            if (group.src_node, group.dst_node, group.bytes) == (src_node, dst_node, t.bytes) {
                group.count += 1;
                break;
            }
            i = (i + 1) & mask;
        }
    }
}

/// Evaluate a schedule against a concrete [`Topology`]'s per-link cost
/// model, including node-level contention: transfers of one round that
/// leave (or enter) the same node over the same transport share that
/// node's aggregate uplink (downlink), and RDMA traffic through an
/// oversubscribed cluster switch shares its bisection — mirroring how
/// [`crate::Fabric`] registers links for the flow-level simulator. Each
/// run's round is priced once, like [`CollSchedule::seconds_on`].
///
/// A round is priced per node pair: its transfers are grouped by (source
/// node, destination node, bytes) in linear time, and each group's link
/// profile, contention slots and transfer cost are evaluated once. This
/// is exact, not an approximation: pricing reads a rank only through its
/// node (every GPU of a node shares its NIC, Ethernet and intra-node
/// link), so a group's transfers all cost the same; the contention
/// counters are integer sums, to which a group adds its count; and the
/// round's `f64::max` over equal values depends on neither order nor
/// multiplicity. The result is bit-equal to pricing every transfer.
///
/// On an uncontended fabric this reduces to
/// [`CollSchedule::seconds_uniform`] at the bottleneck link's rate; under
/// contention it stays a close analytic proxy for the executor's
/// max-min-fair replay (the cross-validation tests bound the gap).
pub fn estimate_on_topology(topo: &Topology, schedule: &CollSchedule) -> f64 {
    let nodes = topo.device_count().div_ceil(topo.gpus_per_node().max(1)) as usize;
    let clusters = topo.cluster_count() as usize;
    let widest = schedule
        .runs
        .iter()
        .map(|(round, _)| round.transfers.len())
        .max()
        .unwrap_or(0);
    // Contention counters — `(node, rdma)` slots per node-level uplink and
    // downlink, one per cluster switch — and the grouping table, in one
    // buffer reused by every round. Only the slots a round touched are
    // reset after it.
    let mut scratch = vec![0u32; 4 * nodes + clusters + (2 * widest).next_power_of_two().max(2)];
    let (src, rest) = scratch.split_at_mut(2 * nodes);
    let (dst, rest) = rest.split_at_mut(2 * nodes);
    let (switch_flows, table) = rest.split_at_mut(clusters);
    let slot = |node: u32, rdma: bool| 2 * node as usize + usize::from(rdma);
    let mut groups = Vec::with_capacity(widest);
    schedule.fold(|round| {
        group_by_node_pair(topo, round.transfers(), table, &mut groups);
        // First pass: how many concurrent flows share each node-level
        // link.
        for g in &groups {
            if g.profile.kind.is_intra_node() {
                continue;
            }
            let rdma = g.profile.kind.is_rdma();
            src[slot(g.src_node, rdma)] += g.count;
            dst[slot(g.dst_node, rdma)] += g.count;
            if rdma {
                switch_flows[g.src.cluster.0 as usize] += g.count;
            }
        }
        // Second pass: per-group cost under fair sharing; the slowest
        // group bounds the round.
        let mut round_s = 0.0f64;
        for g in &groups {
            let profile = g.profile;
            let lat = profile.latency_ns as f64 * 1e-9;
            let mut bw = profile.bandwidth_bytes_per_sec;
            if !profile.kind.is_intra_node() {
                let rdma = profile.kind.is_rdma();
                let (ca, cb) = (g.src, g.dst);
                let cluster = &topo.clusters()[ca.cluster.0 as usize];
                let na = &cluster.nodes[ca.node.0 as usize];
                let nb = &topo.clusters()[cb.cluster.0 as usize].nodes[cb.node.0 as usize];
                let (up, down) = if rdma {
                    (
                        na.nic.node_uplink_bytes_per_sec(),
                        nb.nic.node_uplink_bytes_per_sec(),
                    )
                } else {
                    (
                        na.ethernet.node_uplink_bytes_per_sec(),
                        nb.ethernet.node_uplink_bytes_per_sec(),
                    )
                };
                let s = f64::from(src[slot(g.src_node, rdma)]);
                let d = f64::from(dst[slot(g.dst_node, rdma)]);
                bw = bw.min(up / s).min(down / d);
                if rdma && cluster.oversubscription > 1.0 {
                    let flows = f64::from(switch_flows[ca.cluster.0 as usize]);
                    bw = bw.min(cluster.switch_bisection_bytes_per_sec() / flows);
                }
            }
            round_s = round_s.max(lat + g.bytes as f64 / bw);
        }
        for g in &groups {
            if !g.profile.kind.is_intra_node() {
                let rdma = g.profile.kind.is_rdma();
                src[slot(g.src_node, rdma)] = 0;
                dst[slot(g.dst_node, rdma)] = 0;
                switch_flows[g.src.cluster.0 as usize] = 0;
            }
        }
        round_s
    })
}

/// [`estimate_on_topology`] for a [`CollKind`] over `devices`, deriving
/// the cluster partition from the topology — the planner-facing helper
/// behind NIC-selection scoring and the core estimator.
#[expect(clippy::expect_used, reason = "devices belong to `topo`")]
pub fn estimate_collective(topo: &Topology, kind: CollKind, devices: &[Rank], bytes: u64) -> f64 {
    let cluster_of = |r: Rank| {
        topo.coord(r)
            .expect("devices belong to the topology")
            .cluster
            .0
    };
    estimate_on_topology(topo, &kind.schedule(devices, bytes, cluster_of))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks(n: u32) -> Vec<Rank> {
        (0..n).map(Rank).collect()
    }

    const V: u64 = 1 << 28; // 256 MiB
    const BW: f64 = 1e9;
    const LAT: f64 = 1e-5;

    #[test]
    fn tree_depth_is_total_and_matches_the_heap() {
        assert_eq!(tree_depth(0), 0);
        assert_eq!(tree_depth(1), 0);
        assert_eq!(tree_depth(2), 1);
        assert_eq!(tree_depth(8), 3);
        assert_eq!(tree_depth(9), 3);
        assert_eq!(tree_depth(16), 4);
        assert_eq!(tree_depth(17), 4);
        // The depth must equal the deepest occupied heap level, so no
        // round of the tree schedule is ever empty (the old ⌈log₂n⌉
        // closed form over-counted by one for every non-power-of-two).
        for n in 2u32..200 {
            let deepest = (1..n).map(|i| (i + 1).ilog2()).max().unwrap();
            assert_eq!(tree_depth(n), deepest, "n = {n}");
            let s = tree_all_reduce(&ranks(n), V);
            assert_eq!(s.round_count(), 2 * tree_depth(n));
            assert!(
                s.rounds().all(|r| !r.transfers().is_empty()),
                "empty round at n = {n}"
            );
        }
    }

    #[test]
    fn degenerate_groups_yield_empty_schedules() {
        for kind in [
            CollKind::AllReduce,
            CollKind::TreeAllReduce,
            CollKind::ReduceScatter,
            CollKind::AllGather,
            CollKind::Broadcast,
            CollKind::HierarchicalAllReduce,
        ] {
            for n in [0, 1] {
                let s = kind.schedule(&ranks(n), V, |_| 0);
                assert!(s.is_empty(), "{kind:?} over {n} ranks");
                assert_eq!(s.seconds_uniform(BW, LAT), 0.0);
            }
        }
        // n = 2 is a *working* tree (1 up + 1 down round), not a panic.
        let tree = tree_all_reduce(&ranks(2), V);
        assert_eq!(tree.round_count(), 2);
    }

    #[test]
    fn ring_schedules_have_the_documented_shape() {
        let n = 8u32;
        let rs = ring_reduce_scatter(&ranks(n), V);
        assert_eq!(rs.round_count(), n - 1);
        assert_eq!(rs.runs.len(), 1, "a ring is one run");
        for round in rs.rounds() {
            assert_eq!(round.transfers().len(), n as usize);
            for t in round.transfers() {
                assert_eq!(t.bytes, V / u64::from(n));
                assert_eq!(t.to.0, (t.from.0 + 1) % n);
            }
        }
        assert_eq!(ring_all_reduce(&ranks(n), V).round_count(), 2 * (n - 1));
        assert_eq!(ring_broadcast(&ranks(n), V).round_count(), n - 1);
        assert_eq!(
            ring_broadcast(&ranks(n), V)
                .rounds()
                .next()
                .unwrap()
                .transfers()[0]
                .bytes,
            V / u64::from(n - 1)
        );
    }

    #[test]
    fn tree_schedule_reduces_then_broadcasts() {
        let n = 8u32;
        let s = tree_all_reduce(&ranks(n), V);
        assert_eq!(s.round_count(), 2 * tree_depth(n));
        // Every non-root rank sends to its parent exactly once (reduce) and
        // receives from it exactly once (broadcast), full buffer each time.
        let mut up = vec![0u32; n as usize];
        let mut down = vec![0u32; n as usize];
        for round in s.rounds() {
            for t in round.transfers() {
                assert_eq!(t.bytes, V);
                // Heap parents have smaller indices than their children.
                if t.from.0 > t.to.0 {
                    assert_eq!(t.to.0, (t.from.0 - 1) / 2);
                    up[t.from.0 as usize] += 1;
                } else {
                    assert_eq!(t.from.0, (t.to.0 - 1) / 2);
                    down[t.to.0 as usize] += 1;
                }
            }
        }
        assert_eq!(&up[1..], &[1; 7]);
        assert_eq!(&down[1..], &[1; 7]);
        assert_eq!(up[0] + down[0], 0);
    }

    #[test]
    fn hierarchical_phases_have_the_documented_shape() {
        let groups = vec![ranks(4), (4..8).map(Rank).collect()];
        let s = hierarchical_all_reduce(&groups, V);
        // 3 intra RS rounds + 2 inter rounds + 3 intra AG rounds.
        assert_eq!(s.round_count(), 3 + 2 + 3);
        // Inter rounds (indices 3, 4) carry V/(s_max·k) chunks across
        // clusters only; intra rounds never cross.
        for (i, round) in s.rounds().enumerate() {
            let inter = i == 3 || i == 4;
            for t in round.transfers() {
                let crosses = (t.from.0 < 4) != (t.to.0 < 4);
                assert_eq!(crosses, inter, "round {i}: {t:?}");
                if inter {
                    assert_eq!(t.bytes, V / (4 * 2));
                } else {
                    assert_eq!(t.bytes, V / 4);
                }
            }
        }
    }

    #[test]
    fn hierarchical_handles_unequal_and_singleton_clusters() {
        // Unequal: 4 + 2 ranks. s_max = 4, so group 1's members cover two
        // slots each; volumes stay consistent per slot.
        let s = hierarchical_all_reduce(&[ranks(4), vec![Rank(4), Rank(5)]], V);
        assert!(!s.is_empty());
        for round in s.rounds() {
            for t in round.transfers() {
                assert_ne!(t.from, t.to, "no self-transfers");
            }
        }
        // A singleton cluster skips the intra phases but joins every slot
        // ring of the exchange.
        let s = hierarchical_all_reduce(&[ranks(4), vec![Rank(9)]], V);
        let exchanged: u64 = s
            .rounds()
            .flat_map(|r| r.transfers())
            .filter(|t| t.from == Rank(9))
            .map(|t| t.bytes)
            .sum();
        // Rank 9 sends its whole buffer's worth across: 4 slots × 2 rounds
        // × V/8 = V.
        assert_eq!(exchanged, V);
        // One cluster only → flat ring fallback.
        let flat = hierarchical_all_reduce(&[ranks(4)], V);
        assert_eq!(flat, ring_all_reduce(&ranks(4), V));
    }

    #[test]
    fn single_rank_rings_are_free() {
        for n in [0, 1] {
            assert_eq!(ring_all_reduce(&ranks(n), V).seconds_uniform(BW, LAT), 0.0);
            assert_eq!(
                ring_reduce_scatter(&ranks(n), V).seconds_uniform(BW, LAT),
                0.0
            );
            assert_eq!(ring_all_gather(&ranks(n), V).seconds_uniform(BW, LAT), 0.0);
        }
    }

    #[test]
    fn allreduce_is_rs_then_ag() {
        // The all-reduce's rounds are the reduce-scatter's followed by the
        // all-gather's, so its fold is theirs up to summation order.
        let d = ranks(8);
        let ar = ring_all_reduce(&d, V).seconds_uniform(BW, LAT);
        let rs = ring_reduce_scatter(&d, V).seconds_uniform(BW, LAT);
        let ag = ring_all_gather(&d, V).seconds_uniform(BW, LAT);
        assert!((ar - (rs + ag)).abs() < 1e-12);
    }

    #[test]
    fn allreduce_traffic_approaches_2v_for_large_n() {
        // At zero latency, all-reduce time → 2·V·(n−1)/n ÷ BW.
        let gb = 1_000_000_000u64;
        let t = ring_all_reduce(&ranks(1000), gb).seconds_uniform(BW, 0.0);
        let ideal = 2.0 * (gb as f64) * 999.0 / 1000.0 / BW;
        assert!((t - ideal).abs() < 1e-9);
        assert!(t < 2.0 * gb as f64 / BW);
    }

    #[test]
    fn ring_cost_is_monotone_in_volume_latency_and_bandwidth() {
        let d = ranks(8);
        let seconds = |bytes, bw, lat| ring_all_reduce(&d, bytes).seconds_uniform(bw, lat);
        let base = seconds(V, BW, LAT);
        assert!(seconds(2 * V, BW, LAT) > base);
        assert!(seconds(V, BW, 10.0 * LAT) > base);
        assert!(seconds(V, 2.0 * BW, LAT) < base);
    }

    #[test]
    fn latency_term_scales_with_ring_size() {
        // With a zero-byte payload, cost is purely (n−1)·latency per phase.
        let t = ring_all_reduce(&ranks(5), 0).seconds_uniform(BW, LAT);
        assert!((t - 2.0 * 4.0 * LAT).abs() < 1e-12);
    }

    #[test]
    fn tree_beats_ring_for_small_buffers_and_loses_for_large() {
        // 64 ranks, 4 KiB: ring pays 126 latencies, tree pays 12.
        let seconds = |s: CollSchedule| s.seconds_uniform(BW, LAT);
        let small_ring = seconds(ring_all_reduce(&ranks(64), 4096));
        let small_tree = seconds(tree_all_reduce(&ranks(64), 4096));
        assert!(small_tree < small_ring, "{small_tree} vs {small_ring}");
        // 64 ranks, 1 GiB: ring moves 2·V·(63/64), tree moves 2·6·V.
        let big_ring = seconds(ring_all_reduce(&ranks(64), 1 << 30));
        let big_tree = seconds(tree_all_reduce(&ranks(64), 1 << 30));
        assert!(big_ring < big_tree, "{big_ring} vs {big_tree}");
    }

    #[test]
    fn schedule_dispatch_matches_constructors() {
        let d = ranks(6);
        assert_eq!(
            CollKind::AllReduce.schedule(&d, V, |_| 0),
            ring_all_reduce(&d, V)
        );
        assert_eq!(
            CollKind::TreeAllReduce.schedule(&d, V, |_| 0),
            tree_all_reduce(&d, V)
        );
        assert_eq!(
            CollKind::Broadcast.schedule(&d, V, |_| 0),
            ring_broadcast(&d, V)
        );
        // Hierarchical with a real cluster map partitions; with a constant
        // map it falls back to the flat ring.
        assert_eq!(
            CollKind::HierarchicalAllReduce.schedule(&d, V, |_| 0),
            ring_all_reduce(&d, V)
        );
        let split = CollKind::HierarchicalAllReduce.schedule(&d, V, |r| r.0 / 3);
        assert_eq!(
            split,
            hierarchical_all_reduce(&[ranks(3), (3..6).map(Rank).collect()], V)
        );
    }

    #[test]
    fn partition_preserves_order() {
        let devices: Vec<Rank> = vec![Rank(5), Rank(0), Rank(6), Rank(1)];
        let groups = partition_by_cluster(&devices, |r| r.0 / 4);
        assert_eq!(groups, vec![vec![Rank(5), Rank(6)], vec![Rank(0), Rank(1)]]);
    }

    #[test]
    fn estimate_on_topology_matches_uniform_fold_when_uncontended() {
        use holmes_topology::{presets, NicType};
        // A 2-rank cross-node ring: one flow per node uplink per round —
        // no contention, so the topology estimate equals the uniform fold
        // at the pairwise link rate.
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let devices = vec![Rank(0), Rank(8)];
        let link = topo.link_between(Rank(0), Rank(8)).unwrap();
        let s = ring_all_reduce(&devices, V);
        let est = estimate_on_topology(&topo, &s);
        let uniform =
            s.seconds_uniform(link.bandwidth_bytes_per_sec, link.latency_ns as f64 * 1e-9);
        assert!((est - uniform).abs() < 1e-12 * uniform.max(1.0));
    }

    #[test]
    fn explicit_rounds_are_priced_one_by_one_in_order() {
        use holmes_topology::{presets, NicType};
        // [A, A, B, A] as runs of one: each round adds its own cost, in
        // order, from zero.
        let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
        let a = ring_all_reduce(&ranks(32), V)
            .rounds()
            .next()
            .unwrap()
            .clone();
        let b = tree_all_reduce(&ranks(32), V)
            .rounds()
            .next()
            .unwrap()
            .clone();
        let price =
            |r: &Round| estimate_on_topology(&topo, &CollSchedule::from_rounds(vec![r.clone()]));
        let (pa, pb) = (price(&a), price(&b));
        assert_ne!(pa.to_bits(), pb.to_bits());
        let schedule = CollSchedule::from_rounds(vec![a.clone(), a.clone(), b, a]);
        assert_eq!(schedule.round_count(), 4);
        let folded = estimate_on_topology(&topo, &schedule);
        assert_eq!(folded.to_bits(), (0.0 + pa + pa + pb + pa).to_bits());
    }

    #[test]
    fn hierarchical_schedule_is_a_few_runs() {
        // Unequal clusters: the intra pass splits where the 2-member
        // cluster drops out, and the exchange is one repeated round.
        let groups = vec![ranks(5), vec![Rank(8), Rank(9)], vec![Rank(16)]];
        let s = hierarchical_all_reduce(&groups, V);
        let repeats: Vec<u32> = s.runs.iter().map(|(_, n)| *n).collect();
        assert_eq!(repeats, vec![1, 3, 4, 1, 3]);
        assert_eq!(s.round_count(), repeats.iter().sum::<u32>());
        assert_eq!(s.rounds().count(), s.round_count() as usize);
        assert!(hierarchical_all_reduce(&[ranks(1)], V).is_empty());
    }

    #[test]
    fn estimate_accounts_for_uplink_contention() {
        use holmes_topology::{presets, NicType};
        // 16 ranks across two clusters, flat ring: every round pushes the
        // boundary chunks through Ethernet. The hierarchical schedule must
        // score much cheaper on the same topology.
        let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
        let devices: Vec<Rank> = (0..32).map(Rank).collect();
        let flat = estimate_collective(&topo, CollKind::AllReduce, &devices, 1 << 30);
        let hier = estimate_collective(&topo, CollKind::HierarchicalAllReduce, &devices, 1 << 30);
        assert!(hier < 0.6 * flat, "hier {hier} vs flat {flat}");
    }
}
