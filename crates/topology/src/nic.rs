//! Network interface card (NIC) modelling.
//!
//! The paper distinguishes three NIC technologies (§2.1.1): InfiniBand and
//! RoCE — the two mutually *incompatible* RDMA implementations — and plain
//! Ethernet. Two devices can use RDMA between them only when both sit behind
//! the *same* RDMA technology and share a high-speed switch; every other
//! pairing is forced down to TCP over Ethernet.

use std::fmt;

/// The three NIC technologies considered by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NicType {
    /// Dedicated InfiniBand fabric (RDMA).
    InfiniBand,
    /// RDMA over Converged Ethernet (RDMA on an Ethernet fabric).
    RoCE,
    /// Plain Ethernet; only TCP/IP transport is available.
    Ethernet,
}

impl NicType {
    /// All NIC types, in the order the paper's tables list them.
    pub const ALL: [NicType; 3] = [NicType::InfiniBand, NicType::RoCE, NicType::Ethernet];

    /// Whether this NIC technology supports RDMA at all.
    #[inline]
    pub fn supports_rdma(self) -> bool {
        !matches!(self, NicType::Ethernet)
    }

    /// Whether two NICs of these types can establish an RDMA connection.
    ///
    /// InfiniBand and RoCE are *inherently incompatible* (§1): RDMA is only
    /// possible between identical RDMA technologies.
    #[inline]
    pub fn rdma_compatible(self, other: NicType) -> bool {
        self == other && self.supports_rdma()
    }

    /// Short label used in paper-style tables.
    pub fn label(self) -> &'static str {
        match self {
            NicType::InfiniBand => "InfiniBand",
            NicType::RoCE => "RoCE",
            NicType::Ethernet => "Ethernet",
        }
    }
}

impl fmt::Display for NicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Performance profile of a NIC.
///
/// `bandwidth_gbps` is the *line rate* the paper reports in Table 1
/// (200 Gb/s for both RDMA NICs, 25 Gb/s for Ethernet). `efficiency` is the
/// fraction of line rate achievable by bulk transfers under the NIC's
/// protocol: even at identical line rate, the paper measures RoCE well below
/// InfiniBand (Table 1: 160 vs 197 TFLOPS) because of PFC/ECN congestion
/// artifacts on converged Ethernet fabrics; TCP on plain Ethernet pays
/// kernel/stack overheads. Those protocol effects are folded into this single
/// factor, calibrated against Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicProfile {
    /// Which technology this NIC implements.
    pub nic_type: NicType,
    /// Line rate in gigabits per second.
    pub bandwidth_gbps: f64,
    /// One-way small-message latency in microseconds.
    pub latency_us: f64,
    /// Achievable fraction of line rate for bulk transfers, in `(0, 1]`.
    pub efficiency: f64,
    /// Number of NIC ports on a node. Modern GPU nodes (e.g. DGX A100)
    /// dedicate one RDMA port per GPU; commodity Ethernet nodes often share
    /// one or two ports across all GPUs.
    pub ports_per_node: u32,
    /// Compute-interference factor (≥ 1.0): how much slower GPU kernels run
    /// on nodes behind this NIC while training. Worse fabrics steal compute
    /// via NCCL proxy/SM contention, TCP stack CPU load, and stalls on
    /// straggling dependent transfers — Table 1 of the paper shows the
    /// *same* A100s achieving 197/160/122 TFLOPS behind IB/RoCE/Ethernet,
    /// far more spread than exposed collective time alone explains. This
    /// factor is calibrated against Table 1 (see `holmes::calibration`).
    pub compute_interference: f64,
}

impl NicProfile {
    /// Reference InfiniBand HDR profile (200 Gb/s, one port per GPU).
    pub fn infiniband_200g() -> Self {
        NicProfile {
            nic_type: NicType::InfiniBand,
            bandwidth_gbps: 200.0,
            latency_us: 2.0,
            efficiency: 0.92,
            ports_per_node: 2,
            compute_interference: 1.0,
        }
    }

    /// Reference RoCE v2 profile (200 Gb/s line rate, one port per GPU).
    ///
    /// The lower efficiency relative to InfiniBand reproduces the Table 1
    /// observation that RoCE at equal bandwidth delivers materially lower
    /// training throughput.
    pub fn roce_200g() -> Self {
        NicProfile {
            nic_type: NicType::RoCE,
            bandwidth_gbps: 200.0,
            latency_us: 4.0,
            efficiency: 0.25,
            ports_per_node: 2,
            compute_interference: 1.16,
        }
    }

    /// Reference data-center Ethernet profile (25 Gb/s, TCP only).
    pub fn ethernet_25g() -> Self {
        NicProfile {
            nic_type: NicType::Ethernet,
            bandwidth_gbps: 25.0,
            latency_us: 30.0,
            efficiency: 0.95,
            ports_per_node: 1,
            compute_interference: 1.03,
        }
    }

    /// The reference profile for a NIC type (used by topology presets).
    pub fn reference(nic_type: NicType) -> Self {
        match nic_type {
            NicType::InfiniBand => Self::infiniband_200g(),
            NicType::RoCE => Self::roce_200g(),
            NicType::Ethernet => Self::ethernet_25g(),
        }
    }

    /// Effective bulk bandwidth of one port in bytes per second.
    #[inline]
    pub fn effective_bytes_per_sec(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0 * self.efficiency
    }

    /// Aggregate effective node uplink bandwidth (all ports) in bytes/s.
    #[inline]
    pub fn node_uplink_bytes_per_sec(&self) -> f64 {
        self.effective_bytes_per_sec() * f64::from(self.ports_per_node)
    }

    /// One-way latency in nanoseconds (integral, for the simulator clock).
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "rounded, saturating")]
    pub fn latency_ns(&self) -> u64 {
        (self.latency_us * 1_000.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_compatibility_matrix() {
        use NicType::*;
        assert!(InfiniBand.rdma_compatible(InfiniBand));
        assert!(RoCE.rdma_compatible(RoCE));
        assert!(!InfiniBand.rdma_compatible(RoCE));
        assert!(!RoCE.rdma_compatible(InfiniBand));
        assert!(!Ethernet.rdma_compatible(Ethernet));
        assert!(!Ethernet.rdma_compatible(InfiniBand));
        assert!(!RoCE.rdma_compatible(Ethernet));
    }

    #[test]
    fn only_rdma_types_support_rdma() {
        assert!(NicType::InfiniBand.supports_rdma());
        assert!(NicType::RoCE.supports_rdma());
        assert!(!NicType::Ethernet.supports_rdma());
    }

    #[test]
    fn reference_profiles_match_table1_bandwidths() {
        // Table 1 lists 200 Gb/s for both RDMA NICs and 25 Gb/s for Ethernet.
        assert_eq!(NicProfile::infiniband_200g().bandwidth_gbps, 200.0);
        assert_eq!(NicProfile::roce_200g().bandwidth_gbps, 200.0);
        assert_eq!(NicProfile::ethernet_25g().bandwidth_gbps, 25.0);
    }

    #[test]
    fn roce_is_slower_than_ib_despite_equal_line_rate() {
        let ib = NicProfile::infiniband_200g();
        let roce = NicProfile::roce_200g();
        assert_eq!(ib.bandwidth_gbps, roce.bandwidth_gbps);
        assert!(ib.effective_bytes_per_sec() > roce.effective_bytes_per_sec());
    }

    #[test]
    fn effective_bandwidth_computation() {
        let nic = NicProfile {
            nic_type: NicType::Ethernet,
            bandwidth_gbps: 8.0,
            latency_us: 1.0,
            efficiency: 0.5,
            ports_per_node: 2,
            compute_interference: 1.0,
        };
        // 8 Gb/s = 1e9 B/s; 50% efficiency = 5e8 B/s per port.
        assert_eq!(nic.effective_bytes_per_sec(), 5e8);
        assert_eq!(nic.node_uplink_bytes_per_sec(), 1e9);
        assert_eq!(nic.latency_ns(), 1_000);
    }

    #[test]
    fn display_labels() {
        assert_eq!(NicType::InfiniBand.to_string(), "InfiniBand");
        assert_eq!(NicType::RoCE.to_string(), "RoCE");
        assert_eq!(NicType::Ethernet.to_string(), "Ethernet");
    }
}
