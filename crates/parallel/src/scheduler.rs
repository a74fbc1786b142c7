//! Mapping logical ranks onto physical devices.
//!
//! The group algebra of Eqs. 1/3/4 fixes *which logical ranks* form each
//! parallel group; the scheduler decides *which physical GPU* each logical
//! rank runs on. That choice is the paper's core contribution: in a
//! heterogeneous NIC environment it determines whether data-parallel groups
//! land on RDMA-homogeneous device sets (fast) or straddle incompatible
//! NICs (forced down to Ethernet).

use holmes_topology::{ClusterId, Node, Rank, Topology};

use crate::groups::GroupLayout;

/// A bijection between logical ranks `0..N` and physical [`Rank`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceAssignment {
    /// `device_of[logical] = physical`.
    device_of: Vec<Rank>,
    /// `logical_of[physical.0] = logical`.
    logical_of: Vec<u32>,
}

impl DeviceAssignment {
    /// Build from a permutation `device_of[logical] = physical`.
    ///
    /// # Panics
    /// Panics if `device_of` is not a permutation of `0..len`.
    pub fn from_permutation(device_of: Vec<Rank>) -> Self {
        let n = device_of.len();
        let mut logical_of = vec![u32::MAX; n];
        for (logical, phys) in device_of.iter().enumerate() {
            let slot = &mut logical_of[phys.0 as usize];
            assert_eq!(*slot, u32::MAX, "device {phys} assigned twice");
            *slot = logical as u32;
        }
        DeviceAssignment {
            device_of,
            logical_of,
        }
    }

    /// The identity assignment over `n` devices.
    pub fn identity(n: u32) -> Self {
        Self::from_permutation((0..n).map(Rank).collect())
    }

    /// Physical device of a logical rank.
    #[inline]
    pub fn device_of(&self, logical: u32) -> Rank {
        self.device_of[logical as usize]
    }

    /// Logical rank running on a physical device.
    #[inline]
    pub fn logical_of(&self, device: Rank) -> u32 {
        self.logical_of[device.0 as usize]
    }

    /// Number of devices.
    #[inline]
    pub fn len(&self) -> u32 {
        self.device_of.len() as u32
    }

    /// Whether the assignment is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.device_of.is_empty()
    }

    /// Map a logical group to physical devices.
    pub fn map_group(&self, logical_group: &[u32]) -> Vec<Rank> {
        logical_group.iter().map(|&l| self.device_of(l)).collect()
    }

    /// Serialize as a launcher rank map: one line per logical rank,
    /// `logical=physical` (the format a `torchrun`/SLURM wrapper consumes
    /// to pin processes to devices).
    pub fn to_rank_map(&self) -> String {
        let mut out = String::with_capacity(self.device_of.len() * 8);
        for (logical, device) in self.device_of.iter().enumerate() {
            out.push_str(&format!(
                "{logical}={}
",
                device.0
            ));
        }
        out
    }

    /// Parse a rank map produced by [`DeviceAssignment::to_rank_map`].
    /// Lines must cover logical ranks `0..n` exactly once; blank lines and
    /// `#` comments are skipped.
    pub fn from_rank_map(text: &str) -> Result<Self, String> {
        let mut pairs = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (l, d) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected logical=physical", lineno + 1))?;
            let logical: u32 = l
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad logical rank: {e}", lineno + 1))?;
            let device: u32 = d
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad device rank: {e}", lineno + 1))?;
            pairs.push((logical, device));
        }
        if pairs.is_empty() {
            return Err("empty rank map".to_owned());
        }
        pairs.sort_unstable();
        let n = pairs.len() as u32;
        let mut device_of = Vec::with_capacity(pairs.len());
        for (expect, (logical, device)) in pairs.iter().enumerate() {
            if *logical != expect as u32 {
                return Err(format!(
                    "logical ranks must cover 0..{n} exactly once (saw {logical})"
                ));
            }
            if *device >= n {
                return Err(format!("device rank {device} out of range for {n} devices"));
            }
            device_of.push(Rank(*device));
        }
        // Permutation check (panics in from_permutation become errors).
        let mut seen = vec![false; device_of.len()];
        for d in &device_of {
            if std::mem::replace(&mut seen[d.0 as usize], true) {
                return Err(format!("device {} assigned twice", d.0));
            }
        }
        Ok(Self::from_permutation(device_of))
    }
}

/// A strategy producing a [`DeviceAssignment`] for a topology and layout.
pub trait Scheduler {
    /// Compute the assignment.
    fn assign(&self, topo: &Topology, layout: &GroupLayout) -> DeviceAssignment;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Megatron-LM's default: logical rank `i` runs on hostfile entry `i`.
///
/// Our [`Topology`] enumerates devices cluster-major, so this corresponds
/// to a well-ordered hostfile; see [`InterleavedScheduler`] for the
/// adversarial case.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialScheduler;

impl Scheduler for SequentialScheduler {
    fn assign(&self, topo: &Topology, _layout: &GroupLayout) -> DeviceAssignment {
        DeviceAssignment::identity(topo.device_count())
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

/// An adversarial hostfile: nodes alternate round-robin across clusters.
///
/// NIC-oblivious frameworks accept whatever order the job launcher emits;
/// with an interleaved order, *every* contiguous logical block mixes
/// clusters, so pipeline stages and data-parallel groups all straddle
/// incompatible NICs. Used in the ablation benches to quantify how much of
/// Holmes's win comes from ordering alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterleavedScheduler;

impl Scheduler for InterleavedScheduler {
    fn assign(&self, topo: &Topology, _layout: &GroupLayout) -> DeviceAssignment {
        // Gather per-cluster node lists (as global node indices).
        let g = topo.gpus_per_node();
        let mut per_cluster: Vec<Vec<u32>> = Vec::new();
        let mut next_node = 0u32;
        for cluster in topo.clusters() {
            let nodes = (next_node..next_node + cluster.nodes.len() as u32).collect();
            next_node += cluster.nodes.len() as u32;
            per_cluster.push(nodes);
        }
        // Round-robin nodes across clusters.
        let mut order: Vec<u32> = Vec::with_capacity(next_node as usize);
        let mut cursors = vec![0usize; per_cluster.len()];
        while order.len() < next_node as usize {
            for (c, nodes) in per_cluster.iter().enumerate() {
                if cursors[c] < nodes.len() {
                    order.push(nodes[cursors[c]]);
                    cursors[c] += 1;
                }
            }
        }
        let mut device_of = Vec::with_capacity((next_node * g) as usize);
        for node in order {
            for gpu in 0..g {
                device_of.push(Rank(node * g + gpu));
            }
        }
        DeviceAssignment::from_permutation(device_of)
    }

    fn name(&self) -> &'static str {
        "interleaved"
    }
}

/// The Holmes NIC-aware scheduler (§3.1.2 *Cross-Cluster Pipeline
/// Parallelism*).
///
/// Orders physical devices cluster-major so that each pipeline stage's
/// logical block `[s·t·d, (s+1)·t·d)` lands inside one cluster whenever
/// stage sizes permit. Consequences, exactly as the paper describes:
///
/// * pipeline parallel groups cross cluster boundaries — the only traffic
///   over slow Ethernet is the (small) stage-to-stage activation traffic;
/// * data parallel groups stay inside a single cluster, on homogeneous
///   RDMA NICs;
/// * tensor parallel groups stay inside a node on NVLink.
///
/// Clusters are ordered fastest-NIC-first so the Self-Adapting Partition
/// (Eq. 2) gives the earliest stages the most layers deterministically.
#[derive(Debug, Clone, Copy, Default)]
pub struct HolmesScheduler;

impl HolmesScheduler {
    /// Cluster visit order: descending by (effective NIC bandwidth, GPU
    /// peak TFLOPS, node count), so the order does not depend on how the
    /// clusters are listed unless they tie on all three (ties keep
    /// topology order).
    ///
    /// Public because this order doubles as the planning stack's *canonical
    /// relabeling*: the guided and exhaustive planners ([`crate::GuidedPlanner`],
    /// [`crate::search_cluster_orders`]) break cost ties toward the order that is
    /// lexicographically smallest after relabeling clusters by their
    /// position here, so "fastest-first" wins every tie and the heuristic,
    /// exhaustive, and guided strategies agree on one canonical winner.
    pub fn cluster_order(topo: &Topology) -> Vec<ClusterId> {
        let mut order: Vec<(f64, f64, usize, u32)> = topo
            .clusters()
            .iter()
            .zip(0..)
            .map(|(c, i)| {
                let fastest = |rate: fn(&Node) -> f64| c.nodes.iter().map(rate).fold(0.0, f64::max);
                let bw = fastest(|n| n.nic.effective_bytes_per_sec());
                (bw, fastest(|n| n.gpu.peak_tflops), c.nodes.len(), i)
            })
            .collect();
        order.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then(b.1.total_cmp(&a.1))
                .then(b.2.cmp(&a.2))
        });
        order.into_iter().map(|(.., i)| ClusterId(i)).collect()
    }
}

impl Scheduler for HolmesScheduler {
    fn assign(&self, topo: &Topology, _layout: &GroupLayout) -> DeviceAssignment {
        let mut device_of = Vec::with_capacity(topo.device_count() as usize);
        for cluster in Self::cluster_order(topo) {
            device_of.extend(topo.cluster_ranks(cluster));
        }
        DeviceAssignment::from_permutation(device_of)
    }

    fn name(&self) -> &'static str {
        "holmes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrees::ParallelDegrees;
    use holmes_topology::{presets, NicType};

    fn layout_for(topo: &Topology, t: u32, p: u32) -> GroupLayout {
        GroupLayout::new(ParallelDegrees::infer_data(t, p, topo.device_count()).unwrap())
    }

    #[test]
    fn identity_assignment_roundtrips() {
        let a = DeviceAssignment::identity(8);
        for l in 0..8 {
            assert_eq!(a.device_of(l), Rank(l));
            assert_eq!(a.logical_of(Rank(l)), l);
        }
        assert_eq!(a.len(), 8);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn non_permutation_rejected() {
        DeviceAssignment::from_permutation(vec![Rank(0), Rank(0)]);
    }

    #[test]
    fn rank_map_roundtrips() {
        let topo = presets::hybrid_two_cluster(2);
        let layout = layout_for(&topo, 1, 2);
        let a = HolmesScheduler.assign(&topo, &layout);
        let text = a.to_rank_map();
        let b = DeviceAssignment::from_rank_map(&text).unwrap();
        assert_eq!(a, b);
        // Comments and blank lines are tolerated.
        let commented = format!("# generated by holmes\n\n{text}");
        assert_eq!(DeviceAssignment::from_rank_map(&commented).unwrap(), a);
    }

    #[test]
    fn rank_map_rejects_malformed_input() {
        for (text, needle) in [
            ("", "empty"),
            ("0:1", "expected logical=physical"),
            ("0=0\n0=1", "exactly once"),
            ("0=0\n2=1", "exactly once"),
            ("0=0\n1=5", "out of range"),
            ("0=0\n1=0", "assigned twice"),
            ("x=0", "bad logical rank"),
            ("0=y", "bad device rank"),
        ] {
            let err = DeviceAssignment::from_rank_map(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn sequential_is_identity() {
        let topo = presets::hybrid_two_cluster(2);
        let layout = layout_for(&topo, 1, 2);
        let a = SequentialScheduler.assign(&topo, &layout);
        assert_eq!(a, DeviceAssignment::identity(32));
    }

    #[test]
    fn interleaved_alternates_clusters() {
        let topo = presets::hybrid_two_cluster(2);
        let layout = layout_for(&topo, 1, 2);
        let a = InterleavedScheduler.assign(&topo, &layout);
        // Logical node order: ib0, roce0, ib1, roce1. Logical ranks 0..8
        // are physical node 0 (IB), 8..16 physical node 2 (first RoCE node).
        assert_eq!(a.device_of(0), Rank(0));
        assert_eq!(a.device_of(8), Rank(16));
        assert_eq!(a.device_of(16), Rank(8));
        assert_eq!(a.device_of(24), Rank(24));
    }

    #[test]
    fn interleaved_handles_unequal_clusters() {
        let topo = presets::hybrid_split(3, 1);
        let layout = layout_for(&topo, 1, 2);
        let a = InterleavedScheduler.assign(&topo, &layout);
        // Order: ib0, roce0, ib1, ib2 — permutation must be complete.
        assert_eq!(a.len(), 32);
        let mut devices: Vec<u32> = (0..32).map(|l| a.device_of(l).0).collect();
        devices.sort();
        assert_eq!(devices, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn holmes_orders_clusters_fastest_first() {
        // Build RoCE first so topology order differs from speed order.
        let topo = holmes_topology::TopologyBuilder::new()
            .cluster("roce", 2, NicType::RoCE)
            .cluster("ib", 2, NicType::InfiniBand)
            .build()
            .unwrap();
        let layout = layout_for(&topo, 1, 2);
        let a = HolmesScheduler.assign(&topo, &layout);
        // Logical rank 0 must land on the InfiniBand cluster (devices 16..32).
        assert!(a.device_of(0).0 >= 16);
        assert!(a.device_of(16).0 < 16);
    }

    #[test]
    fn holmes_stages_align_with_clusters_on_hybrid() {
        let topo = presets::hybrid_two_cluster(2);
        let layout = layout_for(&topo, 1, 2); // t·d = 16 = cluster size
        let a = HolmesScheduler.assign(&topo, &layout);
        for stage in 0..2 {
            let devices: Vec<Rank> = a.map_group(&layout.stage_ranks(stage));
            let clusters: std::collections::BTreeSet<u32> = devices
                .iter()
                .map(|r| topo.coord(*r).unwrap().cluster.0)
                .collect();
            assert_eq!(clusters.len(), 1, "stage {stage} spans {clusters:?}");
        }
    }

    #[test]
    fn holmes_three_cluster_stage_alignment() {
        let topo = presets::table4_2r_2ib_2ib();
        let layout = layout_for(&topo, 1, 3); // p=3, t·d=16 per stage
        let a = HolmesScheduler.assign(&topo, &layout);
        for stage in 0..3 {
            let devices: Vec<Rank> = a.map_group(&layout.stage_ranks(stage));
            let clusters: std::collections::BTreeSet<u32> = devices
                .iter()
                .map(|r| topo.coord(*r).unwrap().cluster.0)
                .collect();
            assert_eq!(clusters.len(), 1, "stage {stage} spans {clusters:?}");
        }
    }

    #[test]
    fn all_schedulers_produce_permutations() {
        let topo = presets::table4_2r_2r_2ib();
        let layout = layout_for(&topo, 1, 3);
        for sched in [
            &SequentialScheduler as &dyn Scheduler,
            &InterleavedScheduler,
            &HolmesScheduler,
        ] {
            let a = sched.assign(&topo, &layout);
            let mut seen: Vec<u32> = (0..a.len()).map(|l| a.device_of(l).0).collect();
            seen.sort();
            assert_eq!(
                seen,
                (0..topo.device_count()).collect::<Vec<_>>(),
                "{}",
                sched.name()
            );
            // Inverse must agree.
            for l in 0..a.len() {
                assert_eq!(a.logical_of(a.device_of(l)), l);
            }
        }
    }
}
