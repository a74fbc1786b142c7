//! GPU accelerator modelling.

/// Performance profile of one GPU device.
///
/// The paper's experiments run on NVIDIA A100-80GB parts with a peak of
/// 312 teraFLOP/s at 16-bit precision (§4.1). Real kernels never reach peak;
/// the achievable fraction depends mostly on how large the per-kernel GEMMs
/// are, which in turn grows with micro-batch size and hidden size. We model
/// that with a saturating occupancy curve, calibrated so that the PG1
/// InfiniBand run of Table 1 lands near the reported 197 TFLOPS.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuProfile {
    /// Human-readable device name.
    pub name: String,
    /// Peak device throughput in teraFLOP/s (16-bit precision).
    pub peak_tflops: f64,
    /// Device memory capacity in GiB.
    pub memory_gib: f64,
    /// Asymptotic fraction of peak achievable by large GEMMs, in `(0, 1]`.
    pub max_efficiency: f64,
    /// Work granularity (in MFLOPs per kernel) at which efficiency reaches
    /// half of `max_efficiency`. Smaller kernels are less efficient.
    pub half_saturation_mflops: f64,
}

impl GpuProfile {
    /// NVIDIA A100-SXM4-80GB reference profile.
    pub fn a100_80g() -> Self {
        GpuProfile {
            name: "NVIDIA A100-80GB".to_owned(),
            peak_tflops: 312.0,
            memory_gib: 80.0,
            max_efficiency: 0.70,
            half_saturation_mflops: 2_000.0,
        }
    }

    /// NVIDIA V100-SXM2-32GB: the previous accelerator generation. Peak is
    /// 125 TFLOP/s at 16-bit precision with a lower achievable fraction
    /// (first-generation tensor cores) and a smaller half-saturation point
    /// (smaller GEMMs already fill the part).
    pub fn v100_32g() -> Self {
        GpuProfile {
            name: "NVIDIA V100-32GB".to_owned(),
            peak_tflops: 125.0,
            memory_gib: 32.0,
            max_efficiency: 0.62,
            half_saturation_mflops: 1_200.0,
        }
    }

    /// NVIDIA H100-SXM5-80GB: the next accelerator generation. Peak is
    /// 989 TFLOP/s at 16-bit precision; large kernels reach a higher
    /// fraction of peak, but the part needs much bigger GEMMs to saturate.
    pub fn h100_80g() -> Self {
        GpuProfile {
            name: "NVIDIA H100-80GB".to_owned(),
            peak_tflops: 989.0,
            memory_gib: 80.0,
            max_efficiency: 0.75,
            half_saturation_mflops: 6_000.0,
        }
    }

    /// Achieved fraction of peak for a kernel of `flops` floating-point
    /// operations (Michaelis–Menten saturation curve).
    #[inline]
    pub fn efficiency_for(&self, flops: f64) -> f64 {
        let mflops = flops / 1e6;
        self.max_efficiency * mflops / (mflops + self.half_saturation_mflops)
    }

    /// Wall-clock seconds to execute `flops` operations on this device.
    #[inline]
    pub fn compute_seconds(&self, flops: f64) -> f64 {
        if flops <= 0.0 {
            return 0.0;
        }
        let eff = self.efficiency_for(flops).max(1e-6);
        flops / (self.peak_tflops * 1e12 * eff)
    }

    /// Device memory capacity in bytes.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "floored, saturating")]
    pub fn memory_bytes(&self) -> u64 {
        (self.memory_gib * 1024.0 * 1024.0 * 1024.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_paper_peak() {
        let gpu = GpuProfile::a100_80g();
        assert_eq!(gpu.peak_tflops, 312.0);
        assert_eq!(gpu.memory_gib, 80.0);
    }

    #[test]
    fn efficiency_is_monotone_in_kernel_size() {
        let gpu = GpuProfile::a100_80g();
        let small = gpu.efficiency_for(1e8);
        let medium = gpu.efficiency_for(1e10);
        let large = gpu.efficiency_for(1e13);
        assert!(small < medium && medium < large);
        assert!(large <= gpu.max_efficiency);
    }

    #[test]
    fn efficiency_saturates_near_max() {
        let gpu = GpuProfile::a100_80g();
        // An enormous kernel should be within 1% of the asymptote.
        let eff = gpu.efficiency_for(1e15);
        assert!(eff > gpu.max_efficiency * 0.99);
    }

    #[test]
    fn compute_seconds_scales_superlinearly_down_for_small_kernels() {
        let gpu = GpuProfile::a100_80g();
        // Halving the work must less-than-halve the speed (efficiency drops),
        // so time reduction is sublinear.
        let t_big = gpu.compute_seconds(2e12);
        let t_small = gpu.compute_seconds(1e12);
        assert!(t_small > t_big / 2.0);
        assert!(t_small < t_big);
    }

    #[test]
    fn zero_flops_takes_zero_time() {
        assert_eq!(GpuProfile::a100_80g().compute_seconds(0.0), 0.0);
    }

    #[test]
    fn memory_bytes_conversion() {
        let gpu = GpuProfile::a100_80g();
        assert_eq!(gpu.memory_bytes(), 80 * 1024 * 1024 * 1024);
    }

    #[test]
    fn generations_order_by_peak_and_capacity() {
        let v100 = GpuProfile::v100_32g();
        let a100 = GpuProfile::a100_80g();
        let h100 = GpuProfile::h100_80g();
        assert!(v100.peak_tflops < a100.peak_tflops);
        assert!(a100.peak_tflops < h100.peak_tflops);
        assert!(v100.memory_bytes() < a100.memory_bytes());
        assert_eq!(h100.memory_bytes(), a100.memory_bytes());
        // A large stage-scale kernel must still run strictly faster on each
        // newer generation despite the efficiency-curve differences.
        for flops in [1e12, 1e13, 1e14] {
            assert!(v100.compute_seconds(flops) > a100.compute_seconds(flops));
            assert!(a100.compute_seconds(flops) > h100.compute_seconds(flops));
        }
    }
}
