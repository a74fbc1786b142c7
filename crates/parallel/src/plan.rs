//! The assembled parallel plan consumed by the training engine.

use holmes_topology::{Rank, Topology};

use crate::degrees::ParallelDegrees;
use crate::groups::GroupLayout;
use crate::nic_selection::NicSelectionReport;
use crate::scheduler::DeviceAssignment;

/// Everything the engine needs to execute one training iteration:
/// the group algebra, the logical→physical mapping, and the pipeline
/// layer partition.
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    /// Group layout over logical ranks.
    pub layout: GroupLayout,
    /// Logical→physical device mapping.
    pub assignment: DeviceAssignment,
    /// Transformer layers assigned to each pipeline stage
    /// (`len == p`, sums to the model's layer count).
    pub stage_layers: Vec<u32>,
    /// Whether Megatron's scatter/gather optimization shrinks p2p
    /// activations by `t` (the paper enables it).
    pub scatter_gather: bool,
}

impl ParallelPlan {
    /// Construct a plan; validates stage count and layer totals lazily via
    /// debug assertions (the engine re-validates against the model).
    pub fn new(
        layout: GroupLayout,
        assignment: DeviceAssignment,
        stage_layers: Vec<u32>,
        scatter_gather: bool,
    ) -> Self {
        debug_assert_eq!(stage_layers.len(), layout.degrees().pipeline as usize);
        debug_assert_eq!(assignment.len(), layout.degrees().devices());
        ParallelPlan {
            layout,
            assignment,
            stage_layers,
            scatter_gather,
        }
    }

    /// Degrees shorthand.
    #[inline]
    pub fn degrees(&self) -> ParallelDegrees {
        self.layout.degrees()
    }

    /// Physical devices of pipeline parallel group `i`, stage order.
    pub fn pp_group_devices(&self, i: u32) -> Vec<Rank> {
        self.assignment.map_group(self.layout.pp_group(i))
    }

    /// Physical devices of data parallel group `i`.
    pub fn dp_group_devices(&self, i: u32) -> Vec<Rank> {
        self.assignment.map_group(self.layout.dp_group(i))
    }

    /// Physical devices on a pipeline stage.
    pub fn stage_devices(&self, stage: u32) -> Vec<Rank> {
        self.assignment.map_group(self.layout.stage_ranks(stage))
    }

    /// Pipeline stage of a physical device.
    pub fn stage_of_device(&self, device: Rank) -> u32 {
        self.layout.stage_of(self.assignment.logical_of(device))
    }

    /// Automatic-NIC-Selection analysis of this plan on a topology.
    pub fn nic_report(&self, topo: &Topology) -> NicSelectionReport {
        NicSelectionReport::analyze(topo, &self.layout, &self.assignment)
    }

    /// Total layers across stages.
    pub fn total_layers(&self) -> u32 {
        self.stage_layers.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::HolmesScheduler;
    use holmes_topology::presets;

    fn plan_on_hybrid() -> (Topology, ParallelPlan) {
        let topo = presets::hybrid_two_cluster(2);
        let degrees = ParallelDegrees::infer_data(1, 2, topo.device_count()).unwrap();
        let layout = GroupLayout::new(degrees);
        let assignment = HolmesScheduler::assign(&topo);
        let plan = ParallelPlan::new(layout, assignment, vec![17, 13], true);
        (topo, plan)
    }

    #[test]
    fn plan_group_queries_are_consistent() {
        let (_, plan) = plan_on_hybrid();
        let pp = plan.pp_group_devices(0);
        assert_eq!(pp.len(), 2);
        assert_eq!(plan.stage_of_device(pp[0]), 0);
        assert_eq!(plan.stage_of_device(pp[1]), 1);
    }

    #[test]
    fn stage_devices_cover_each_stage() {
        let (_, plan) = plan_on_hybrid();
        let s0 = plan.stage_devices(0);
        let s1 = plan.stage_devices(1);
        assert_eq!(s0.len(), 16);
        assert_eq!(s1.len(), 16);
        for d in &s0 {
            assert_eq!(plan.stage_of_device(*d), 0);
        }
    }

    #[test]
    fn nic_report_through_plan() {
        let (topo, plan) = plan_on_hybrid();
        assert_eq!(plan.nic_report(&topo).ethernet_groups, 0);
    }

    #[test]
    fn layer_totals() {
        let (_, plan) = plan_on_hybrid();
        assert_eq!(plan.total_layers(), 30);
    }
}
