//! Pipeline layer partitioning: Uniform vs Self-Adapting (Eq. 2).
//!
//! Both split `layers` transformer layers over pipeline stages with
//! (relative) effective speeds `stage_speeds`: the result sums to
//! `layers`, and every stage gets at least one layer when
//! `layers >= stages`.

/// Traditional uniform partition: `layers / p` each, remainder spread over
/// the earliest stages (Megatron-LM's default expects divisibility; the
/// remainder rule keeps us total-preserving for odd combinations).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformPartition;

impl UniformPartition {
    /// Layers per stage; only the number of speeds matters.
    #[expect(clippy::cast_possible_truncation, reason = "one per pipeline stage")]
    pub fn partition(&self, layers: u32, stage_speeds: &[f64]) -> Vec<u32> {
        let p = stage_speeds.len() as u32;
        assert!(p > 0, "at least one stage");
        let base = layers / p;
        let extra = layers % p;
        (0..p).map(|i| base + u32::from(i < extra)).collect()
    }
}

/// Self-Adapting Pipeline Partition (§3.1.2, Eq. 2).
///
/// ```
/// use holmes_parallel::SelfAdaptingPartition;
///
/// // Table 1 speeds: S(IB)=197, S(RoCE)=160; α=1.05; 30 layers:
/// // N_ib = ⌊1.05·197/357·30⌋ = 17, N_roce = 13.
/// let part = SelfAdaptingPartition { alpha: 1.05 };
/// assert_eq!(part.partition(30, &[197.0, 160.0]), vec![17, 13]);
/// ```
///
/// Stage `i` with speed `S_i` receives
/// `N_i = ⌊α · S_i / ΣS · N⌋` layers, processed fastest-stage-first, with
/// the final (slowest) stage taking the remainder — exactly the paper's
/// two-stage rule `N_ib = ⌊α·S(IB)/(S(IB)+S(RoCE))·N⌋`, `N_roce = N − N_ib`,
/// generalized to `p` stages. `α > 1` (the paper uses 1.05) deliberately
/// over-allocates to fast stages because the slow stage's NIC also slows
/// its data-parallel synchronization.
#[derive(Debug, Clone, Copy)]
pub struct SelfAdaptingPartition {
    /// The α hyper-parameter (paper default 1.05).
    pub alpha: f64,
}

impl Default for SelfAdaptingPartition {
    fn default() -> Self {
        SelfAdaptingPartition { alpha: 1.05 }
    }
}

impl SelfAdaptingPartition {
    /// Layers per stage under Eq. 2.
    ///
    /// # Panics
    /// Panics on empty or non-positive `stage_speeds`.
    #[expect(clippy::cast_possible_truncation, reason = "0 <= raw <= layers")]
    pub fn partition(&self, layers: u32, stage_speeds: &[f64]) -> Vec<u32> {
        let p = stage_speeds.len();
        assert!(p > 0, "at least one stage");
        assert!(
            stage_speeds.iter().all(|s| *s > 0.0),
            "stage speeds must be positive"
        );
        let total_speed: f64 = stage_speeds.iter().sum();

        // Visit stages fastest-first so the α over-allocation favours them;
        // the last-visited (slowest) stage absorbs the remainder.
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| {
            stage_speeds[b]
                .partial_cmp(&stage_speeds[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        let mut out = vec![0u32; p];
        let mut remaining = layers;
        let stages_left_min = |visited: usize| (p - visited - 1) as u32;
        for (visited, &i) in order.iter().enumerate() {
            let is_last = visited == p - 1;
            let want = if is_last {
                remaining
            } else {
                let raw = (self.alpha * stage_speeds[i] / total_speed * f64::from(layers)).floor();
                (raw as u32).min(remaining.saturating_sub(stages_left_min(visited)))
            };
            // Guarantee at least one layer per stage when feasible.
            let want = if layers >= p as u32 {
                want.max(1)
            } else {
                want
            };
            out[i] = want.min(remaining);
            remaining -= out[i];
        }
        debug_assert_eq!(out.iter().sum::<u32>(), layers);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_divides_evenly() {
        assert_eq!(UniformPartition.partition(30, &[1.0, 1.0]), vec![15, 15]);
        assert_eq!(
            UniformPartition.partition(36, &[1.0, 1.0, 1.0]),
            vec![12, 12, 12]
        );
    }

    #[test]
    fn uniform_spreads_remainder_to_early_stages() {
        assert_eq!(UniformPartition.partition(31, &[1.0, 1.0]), vec![16, 15]);
        assert_eq!(
            UniformPartition.partition(10, &[1.0, 1.0, 1.0]),
            vec![4, 3, 3]
        );
    }

    #[test]
    fn eq2_two_stage_example() {
        // Table 1 speeds: S(IB)=197, S(RoCE)=160, α=1.05, N=30 layers:
        // N_ib = ⌊1.05·197/357·30⌋ = ⌊17.38⌋ = 17, N_roce = 13.
        let part = SelfAdaptingPartition { alpha: 1.05 }.partition(30, &[197.0, 160.0]);
        assert_eq!(part, vec![17, 13]);
    }

    #[test]
    fn alpha_one_is_proportional() {
        let part = SelfAdaptingPartition { alpha: 1.0 }.partition(30, &[2.0, 1.0]);
        assert_eq!(part, vec![20, 10]);
    }

    #[test]
    fn equal_speeds_recover_uniform_with_alpha_one() {
        let sa = SelfAdaptingPartition { alpha: 1.0 }.partition(36, &[1.0, 1.0, 1.0]);
        assert_eq!(sa, vec![12, 12, 12]);
    }

    #[test]
    fn faster_stage_gets_more_layers() {
        for alpha in [1.0, 1.05, 1.2] {
            let part = SelfAdaptingPartition { alpha }.partition(36, &[197.0, 160.0, 122.0]);
            assert_eq!(part.iter().sum::<u32>(), 36);
            assert!(part[0] >= part[1] && part[1] >= part[2], "{part:?}");
        }
    }

    #[test]
    fn sum_is_preserved_even_when_alpha_overallocates() {
        // α large enough that floors alone would exceed the total.
        let part = SelfAdaptingPartition { alpha: 1.5 }.partition(40, &[1.0, 1.0]);
        assert_eq!(part.iter().sum::<u32>(), 40);
        assert!(part.iter().all(|&l| l >= 1));
    }

    #[test]
    fn every_stage_gets_a_layer_when_possible() {
        // Extreme skew: slowest stage must still receive ≥ 1 layer.
        let part = SelfAdaptingPartition { alpha: 1.05 }.partition(8, &[100.0, 1.0, 1.0]);
        assert_eq!(part.iter().sum::<u32>(), 8);
        assert!(part.iter().all(|&l| l >= 1), "{part:?}");
    }

    #[test]
    fn unsorted_speed_input_keeps_stage_positions() {
        // Slow stage first in the input: output must stay positional.
        let part = SelfAdaptingPartition { alpha: 1.05 }.partition(30, &[160.0, 197.0]);
        assert_eq!(part, vec![13, 17]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_rejected() {
        SelfAdaptingPartition::default().partition(10, &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stages_rejected() {
        UniformPartition.partition(10, &[]);
    }
}
