//! Emulations of the LLM training frameworks the paper compares (§4.2).

use holmes_engine::DpSyncStrategy;

use crate::config::HolmesConfig;

/// Which framework's behaviour to emulate.
///
/// Emulation is faithful at the *strategy* level — the properties the paper
/// attributes to each framework in a heterogeneous NIC environment:
///
/// | framework | device order | transport (hetero env) | partition | DP sync |
/// |---|---|---|---|---|
/// | Holmes | NIC-aware | per-group auto | self-adapting | overlapped |
/// | Megatron-LM | hostfile | common-denominator TCP | uniform | blocking all-reduce |
/// | Megatron-DeepSpeed | hostfile | common-denominator TCP | uniform | blocking ZeRO-1 (RS+AG) |
/// | Megatron-LLaMA | hostfile | common-denominator TCP | uniform | overlapped optimizer |
///
/// In *homogeneous* single-cluster environments every framework's NCCL can
/// use RDMA, so the baselines only differ by optimizer strategy there —
/// matching the paper, which only reports baseline gaps in heterogeneous
/// settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameworkKind {
    /// This paper's framework.
    Holmes,
    /// NVIDIA Megatron-LM (the paper's \[3\]).
    MegatronLm,
    /// Microsoft Megatron-DeepSpeed (the paper's \[1\]).
    MegatronDeepSpeed,
    /// Alibaba Megatron-LLaMA (the paper's \[2\]).
    MegatronLlama,
}

impl FrameworkKind {
    /// All frameworks, Holmes first (the order of Figure 6's bars).
    pub const ALL: [FrameworkKind; 4] = [
        FrameworkKind::Holmes,
        FrameworkKind::MegatronLm,
        FrameworkKind::MegatronDeepSpeed,
        FrameworkKind::MegatronLlama,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            FrameworkKind::Holmes => "Holmes",
            FrameworkKind::MegatronLm => "Megatron-LM",
            FrameworkKind::MegatronDeepSpeed => "Megatron-DeepSpeed",
            FrameworkKind::MegatronLlama => "Megatron-LLaMA",
        }
    }

    /// The Holmes-config equivalent of this framework's strategy set.
    /// (`None` flags map to baseline behaviours in the planner.)
    pub fn as_holmes_flags(self) -> HolmesConfig {
        match self {
            FrameworkKind::Holmes => HolmesConfig::full(),
            FrameworkKind::MegatronLm | FrameworkKind::MegatronDeepSpeed => HolmesConfig {
                cross_cluster_pp: false,
                auto_nic_selection: false,
                self_adapting_partition: false,
                overlapped_optimizer: false,
                ..HolmesConfig::default()
            },
            FrameworkKind::MegatronLlama => HolmesConfig {
                cross_cluster_pp: false,
                auto_nic_selection: false,
                self_adapting_partition: false,
                overlapped_optimizer: true,
                ..HolmesConfig::default()
            },
        }
    }

    /// Whether this framework uses a ZeRO-1-style distributed optimizer
    /// when the overlapped optimizer is off (DeepSpeed) rather than plain
    /// DDP all-reduce (Megatron-LM).
    pub fn uses_zero1(self) -> bool {
        matches!(self, FrameworkKind::MegatronDeepSpeed)
    }

    /// The gradient-sync strategy this framework falls back to when the
    /// overlapped optimizer is off. DeepSpeed's ZeRO-1 and Holmes's
    /// Megatron distributed optimizer both reduce-scatter and all-gather;
    /// plain Megatron-LM and -LLaMA use legacy DDP all-reduce.
    pub fn dp_fallback(self) -> DpSyncStrategy {
        if self.uses_zero1() || self == FrameworkKind::Holmes {
            DpSyncStrategy::DistributedOptimizer
        } else {
            DpSyncStrategy::AllReduce
        }
    }
}

impl std::fmt::Display for FrameworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holmes_enables_all_components() {
        let c = FrameworkKind::Holmes.as_holmes_flags();
        assert!(c.cross_cluster_pp && c.auto_nic_selection);
        assert!(c.self_adapting_partition && c.overlapped_optimizer);
    }

    #[test]
    fn megatron_llama_has_overlap_but_no_nic_awareness() {
        let c = FrameworkKind::MegatronLlama.as_holmes_flags();
        assert!(c.overlapped_optimizer);
        assert!(!c.auto_nic_selection && !c.cross_cluster_pp);
    }

    #[test]
    fn only_deepspeed_uses_zero1() {
        assert!(FrameworkKind::MegatronDeepSpeed.uses_zero1());
        assert!(!FrameworkKind::MegatronLm.uses_zero1());
        assert!(!FrameworkKind::Holmes.uses_zero1());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(FrameworkKind::Holmes.to_string(), "Holmes");
        assert_eq!(FrameworkKind::MegatronLlama.to_string(), "Megatron-LLaMA");
    }
}
