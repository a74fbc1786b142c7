//! Device-memory estimates: weights, gradients, optimizer states,
//! activations — used to validate that a parallel plan fits on the GPUs
//! (Table 2 uses t=8 for the 39.1 B models precisely because smaller `t`
//! does not fit on 80 GiB parts).

use crate::config::GptConfig;

/// Mixed-precision Adam footprint per parameter (bytes): 16-bit weight +
/// 16-bit gradient + 32-bit master weight + two 32-bit moments.
pub const BYTES_PER_PARAM_FULL: u64 = 2 + 2 + 4 + 4 + 4;

/// The optimizer-state share of [`BYTES_PER_PARAM_FULL`] (master + moments),
/// which ZeRO-1 / the distributed optimizer shards across data parallel
/// ranks.
pub const BYTES_PER_PARAM_OPTIM: u64 = 4 + 4 + 4;

/// Memory estimate for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// 16-bit weights + 16-bit gradients resident on the rank.
    pub weights_and_grads_bytes: u64,
    /// Optimizer state resident on the rank (after any sharding).
    pub optimizer_bytes: u64,
    /// Peak activation memory.
    pub activations_bytes: u64,
}

impl MemoryEstimate {
    /// Estimate for a rank holding `stage_params` parameters of the model,
    /// split `t` ways by tensor parallelism, with `in_flight_microbatches`
    /// micro-batches of activations resident on `layers_on_stage` layers,
    /// and optimizer states sharded over `optimizer_shards` ranks (1 = no
    /// distributed optimizer). With `full_recompute` only the
    /// layer-boundary activation of each in-flight micro-batch is stored;
    /// everything else is replayed in backward.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one memory-model input"
    )]
    pub fn for_rank(
        cfg: &GptConfig,
        stage_params: u64,
        tensor_parallel: u32,
        micro_batch: u32,
        in_flight_microbatches: u32,
        layers_on_stage: u32,
        optimizer_shards: u32,
        full_recompute: bool,
    ) -> MemoryEstimate {
        let t = u64::from(tensor_parallel.max(1));
        let local_params = stage_params / t;
        let weights_and_grads_bytes = local_params * (BYTES_PER_PARAM_FULL - BYTES_PER_PARAM_OPTIM);
        let optimizer_bytes =
            local_params * BYTES_PER_PARAM_OPTIM / u64::from(optimizer_shards.max(1));
        // Selective-recompute activation footprint per layer per sample:
        // ~34·s·h bytes (Korthikanti et al.'s bound, 16-bit, attention
        // recomputed), divided by t. Full recomputation keeps only the
        // 16-bit layer-boundary tensor (2·s·h).
        let per_layer_per_sample = if full_recompute {
            2 * u64::from(cfg.seq_len) * u64::from(cfg.hidden_size) / t
        } else {
            34 * u64::from(cfg.seq_len) * u64::from(cfg.hidden_size) / t
        };
        let activations_bytes = per_layer_per_sample
            * u64::from(micro_batch)
            * u64::from(in_flight_microbatches)
            * u64::from(layers_on_stage).max(1);
        MemoryEstimate {
            weights_and_grads_bytes,
            optimizer_bytes,
            activations_bytes,
        }
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.weights_and_grads_bytes + self.optimizer_bytes + self.activations_bytes
    }

    /// Whether the estimate fits in a device with `capacity_bytes`,
    /// leaving a fragmentation/workspace margin.
    pub fn fits_in(&self, capacity_bytes: u64) -> bool {
        // Keep ~10% headroom for CUDA context, NCCL buffers, fragmentation.
        self.total_bytes() <= capacity_bytes / 10 * 9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParameterGroup;
    use crate::params::parameter_count;

    const GIB80: u64 = 80 * 1024 * 1024 * 1024;

    #[test]
    fn pg7_requires_tensor_parallel_8() {
        // 39.1 B over p=2 stages: ~19.5 B params per stage. With t=1 the
        // weights alone (4 B/param resident) exceed 80 GiB; with t=8 the
        // paper's configuration fits.
        let pg = ParameterGroup::table2(7);
        let total = parameter_count(&pg.config);
        let stage = total / 2;
        let t1 = MemoryEstimate::for_rank(&pg.config, stage, 1, 4, 2, 24, 16, false);
        assert!(!t1.fits_in(GIB80), "t=1 must not fit");
        let t8 = MemoryEstimate::for_rank(&pg.config, stage, 8, 4, 2, 24, 16, false);
        assert!(
            t8.fits_in(GIB80),
            "t=8 should fit: {} GiB",
            t8.total_bytes() >> 30
        );
    }

    #[test]
    fn pg1_fits_without_tensor_parallelism() {
        let pg = ParameterGroup::table2(1);
        let stage = parameter_count(&pg.config) / 2;
        let est = MemoryEstimate::for_rank(&pg.config, stage, 1, 4, 2, 15, 16, false);
        assert!(est.fits_in(GIB80));
    }

    #[test]
    fn optimizer_sharding_reduces_footprint() {
        let pg = ParameterGroup::table2(3);
        let stage = parameter_count(&pg.config) / 2;
        let unsharded = MemoryEstimate::for_rank(&pg.config, stage, 1, 4, 2, 18, 1, false);
        let sharded = MemoryEstimate::for_rank(&pg.config, stage, 1, 4, 2, 18, 16, false);
        assert!(sharded.optimizer_bytes < unsharded.optimizer_bytes);
        assert_eq!(
            sharded.weights_and_grads_bytes,
            unsharded.weights_and_grads_bytes
        );
    }

    #[test]
    fn full_recompute_shrinks_activations() {
        let pg = ParameterGroup::table2(3);
        let stage = parameter_count(&pg.config) / 2;
        let normal = MemoryEstimate::for_rank(&pg.config, stage, 1, 4, 2, 18, 16, false);
        let recompute = MemoryEstimate::for_rank(&pg.config, stage, 1, 4, 2, 18, 16, true);
        assert!(recompute.activations_bytes * 10 < normal.activations_bytes);
        assert_eq!(
            recompute.weights_and_grads_bytes,
            normal.weights_and_grads_bytes
        );
    }

    #[test]
    fn per_param_byte_constants() {
        assert_eq!(BYTES_PER_PARAM_FULL, 16);
        assert_eq!(BYTES_PER_PARAM_OPTIM, 12);
    }
}
