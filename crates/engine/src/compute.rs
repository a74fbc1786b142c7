//! Per-stage compute-time model.
//!
//! Compute durations are analytic (FLOPs over an efficiency-adjusted device
//! rate) because GPU kernel timing is deterministic arithmetic — the paper's
//! variance all lives in the network, which we simulate event-by-event.
//! Tensor-parallel all-reduces run over NVLink inside one node; NVSwitch is
//! effectively non-blocking, so their cost is folded into the stage's
//! compute durations analytically.

use holmes_model::{layer_fwd_flops_per_sample, logit_fwd_flops_per_sample, GptConfig};
use holmes_netsim::algo::CollKind;
use holmes_topology::{GpuProfile, LinkProfile, Rank};

/// Forward/backward durations for one micro-batch on one device of a stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Seconds for one micro-batch forward.
    pub fwd_seconds: f64,
    /// Seconds for one micro-batch backward (compute convention: 2×fwd,
    /// plus the backward share of tensor-parallel communication).
    pub bwd_seconds: f64,
}

/// The compute-time model for a training job on a device type.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    cfg: GptConfig,
    gpu: GpuProfile,
    intra_link: LinkProfile,
    tensor_parallel: u32,
    micro_batch: u32,
    /// NIC-dependent compute-interference factor (≥ 1.0); see
    /// `holmes_topology::NicProfile::compute_interference`.
    interference: f64,
}

impl ComputeModel {
    /// Build a model for a job slice running with tensor parallel degree
    /// `t` on `gpu` devices joined by `intra_link`.
    pub fn new(
        cfg: GptConfig,
        gpu: GpuProfile,
        intra_link: LinkProfile,
        tensor_parallel: u32,
        micro_batch: u32,
    ) -> Self {
        Self::with_interference(cfg, gpu, intra_link, tensor_parallel, micro_batch, 1.0)
    }

    /// Like [`ComputeModel::new`] with a NIC-dependent compute-interference
    /// factor applied to forward/backward durations (calibrated against the
    /// paper's Table 1; see the topology crate's `NicProfile` docs).
    pub fn with_interference(
        cfg: GptConfig,
        gpu: GpuProfile,
        intra_link: LinkProfile,
        tensor_parallel: u32,
        micro_batch: u32,
        interference: f64,
    ) -> Self {
        assert!(tensor_parallel >= 1, "tensor parallel degree must be >= 1");
        assert!(micro_batch >= 1, "micro batch must be >= 1");
        assert!(interference >= 1.0, "interference factor must be >= 1.0");
        ComputeModel {
            cfg,
            gpu,
            intra_link,
            tensor_parallel,
            micro_batch,
            interference,
        }
    }

    /// Per-device forward FLOPs of one transformer layer for one
    /// micro-batch (tensor parallelism splits the GEMMs `t` ways).
    fn layer_fwd_flops(&self) -> f64 {
        f64::from(self.micro_batch) * layer_fwd_flops_per_sample(&self.cfg)
            / f64::from(self.tensor_parallel)
    }

    /// Tensor-parallel all-reduce seconds per layer per micro-batch, one
    /// direction (forward and backward each perform 2 all-reduces of
    /// `b·s·h` 16-bit activations in Megatron's partitioning).
    fn tp_comm_seconds_per_layer(&self) -> f64 {
        if self.tensor_parallel <= 1 {
            return 0.0;
        }
        let bytes = u64::from(self.micro_batch)
            * u64::from(self.cfg.seq_len)
            * u64::from(self.cfg.hidden_size)
            * 2;
        // Any t ranks: every hop of the ring runs over the intra-node link.
        let ranks: Vec<Rank> = (0..self.tensor_parallel).map(Rank).collect();
        2.0 * CollKind::AllReduce
            .schedule(&ranks, bytes, |_| 0)
            .seconds_uniform(
                self.intra_link.bandwidth_bytes_per_sec,
                self.intra_link.latency_ns as f64 * 1e-9,
            )
    }

    /// Durations for a stage holding `layers` transformer layers.
    /// `has_logit` adds the final logit projection (last stage).
    pub fn stage_cost(&self, layers: u32, has_logit: bool) -> StageCost {
        let layer_flops = self.layer_fwd_flops();
        // Efficiency set by per-layer kernel granularity.
        let eff = self.gpu.efficiency_for(layer_flops).max(1e-6);
        let rate = self.gpu.peak_tflops * 1e12 * eff;

        let mut fwd_flops = f64::from(layers) * layer_flops;
        if has_logit {
            fwd_flops += f64::from(self.micro_batch) * logit_fwd_flops_per_sample(&self.cfg)
                / f64::from(self.tensor_parallel);
        }
        let tp_comm = f64::from(layers) * self.tp_comm_seconds_per_layer();

        let fwd_seconds = (fwd_flops / rate + tp_comm) * self.interference;
        let bwd_seconds = (2.0 * fwd_flops / rate + tp_comm) * self.interference;
        StageCost {
            fwd_seconds,
            bwd_seconds,
        }
    }

    /// Optimizer step seconds for `local_params` parameters resident on the
    /// device. Adam is memory-bound: ~16 bytes of 32-bit state touched per
    /// parameter at the device's HBM rate (A100: ~1.5 TB/s effective).
    pub fn optimizer_seconds(&self, local_params: u64) -> f64 {
        const HBM_BYTES_PER_SEC: f64 = 1.5e12;
        const BYTES_TOUCHED_PER_PARAM: f64 = 16.0;
        local_params as f64 * BYTES_TOUCHED_PER_PARAM / HBM_BYTES_PER_SEC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(t: u32) -> ComputeModel {
        ComputeModel::new(
            GptConfig::paper_standard(30, 3072, 32),
            GpuProfile::a100_80g(),
            LinkProfile::nvlink(),
            t,
            4,
        )
    }

    #[test]
    fn interference_scales_stage_cost() {
        let cfg = GptConfig::paper_standard(30, 3072, 32);
        let base = ComputeModel::new(cfg, GpuProfile::a100_80g(), LinkProfile::nvlink(), 1, 4)
            .stage_cost(15, false);
        let slow = ComputeModel::with_interference(
            cfg,
            GpuProfile::a100_80g(),
            LinkProfile::nvlink(),
            1,
            4,
            1.10,
        )
        .stage_cost(15, false);
        assert!((slow.fwd_seconds / base.fwd_seconds - 1.10).abs() < 1e-9);
        assert!((slow.bwd_seconds / base.bwd_seconds - 1.10).abs() < 1e-9);
    }

    #[test]
    fn backward_costs_double_forward_compute() {
        let cost = model(1).stage_cost(15, false);
        assert!((cost.bwd_seconds / cost.fwd_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_layers_cost_more() {
        let m = model(1);
        assert!(m.stage_cost(20, false).fwd_seconds > m.stage_cost(10, false).fwd_seconds);
    }

    #[test]
    fn logit_stage_costs_extra() {
        let m = model(1);
        assert!(m.stage_cost(15, true).fwd_seconds > m.stage_cost(15, false).fwd_seconds);
    }

    #[test]
    fn tensor_parallel_reduces_time_sublinearly() {
        // t=8 divides the FLOPs by 8 but adds NVLink all-reduces and
        // reduces kernel efficiency: speedup must be positive but < 8×.
        let cfg = GptConfig::paper_standard(48, 8192, 64);
        let m1 = ComputeModel::new(cfg, GpuProfile::a100_80g(), LinkProfile::nvlink(), 1, 4);
        let m8 = ComputeModel::new(cfg, GpuProfile::a100_80g(), LinkProfile::nvlink(), 8, 4);
        let t1 = m1.stage_cost(24, false).fwd_seconds;
        let t8 = m8.stage_cost(24, false).fwd_seconds;
        assert!(t8 < t1, "t=8 must be faster per device");
        assert!(t8 > t1 / 8.0, "but not a perfect 8x");
    }

    #[test]
    fn no_tp_comm_for_t1() {
        let m = model(1);
        assert_eq!(m.tp_comm_seconds_per_layer(), 0.0);
    }

    #[test]
    fn realistic_pg1_stage_times() {
        // PG1 stage of 15 layers, micro-batch 4: the paper's 4-node IB run
        // achieves 197 TFLOPS/GPU ⇒ per-microbatch fwd must land in the
        // low tens of milliseconds.
        let cost = model(1).stage_cost(15, false);
        assert!(
            cost.fwd_seconds > 0.05 && cost.fwd_seconds < 0.4,
            "fwd = {}",
            cost.fwd_seconds
        );
    }

    #[test]
    fn optimizer_time_scales_with_params() {
        let m = model(1);
        let small = m.optimizer_seconds(1_000_000);
        let large = m.optimizer_seconds(1_800_000_000);
        assert!((large / small - 1800.0).abs() < 1.0);
        // 1.8B params ≈ 19 ms at 1.5 TB/s.
        assert!(large > 0.01 && large < 0.05, "large = {large}");
    }

    #[test]
    #[should_panic(expected = "tensor parallel")]
    fn zero_t_rejected() {
        ComputeModel::new(
            GptConfig::paper_standard(30, 3072, 32),
            GpuProfile::a100_80g(),
            LinkProfile::nvlink(),
            0,
            4,
        );
    }
}
