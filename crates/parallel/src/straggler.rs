//! Straggler-aware pipeline partitioning over heterogeneous stage speeds.
//!
//! Eq. 2 ([`crate::SelfAdaptingPartition`]) splits layers proportionally
//! to one calibrated scalar speed per stage — exact when every device in a
//! stage computes at the same rate, so a stage's time is linear in its
//! layer count. On a mixed-generation fleet that linearity breaks twice:
//!
//! * a stage's compute time is governed by its **slowest member** (every
//!   pipeline send waits for the straggler), so the per-layer cost is a
//!   `max` over member rates, not an average;
//! * stages pay **different fixed communication costs** (their DP groups'
//!   NIC-priced sync), which proportional splitting cannot see.
//!
//! [`StragglerAwarePartition`] therefore balances the *completion time*
//! `f_i = comm_i + n_i · sec_per_layer_i` directly: seed every stage with
//! one layer (when `layers ≥ p`), then give each remaining layer to the
//! stage whose finish time would grow the least — the greedy argmin of
//! `comm_i + (n_i + 1) · sec_per_layer_i`, lowest index on ties.
//!
//! The greedy result is **locally optimal**: when the bottleneck stage `b`
//! received its last layer (say as the `k`-th greedy pick), every other
//! stage `j` satisfied `f_b ≤ comm_j + (n_j(k)+1)·s_j ≤ comm_j +
//! (n_j+1)·s_j`, so moving any single layer off `b` cannot strictly lower
//! the bottleneck — exactly the invariant the analysis verifier's
//! skew-monotonicity rule checks.
//!
//! When every stage's `sec_per_layer` is bit-equal the completion-time
//! objective carries no information Eq. 2 lacks, so the partition
//! **delegates verbatim** to [`crate::SelfAdaptingPartition`] over the
//! stages' calibrated speeds — compute-uniform fleets reproduce the
//! historical Eq. 2 split bit-for-bit, α and all.

use crate::partition::SelfAdaptingPartition;

/// What the straggler-aware partition knows about one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageProfile {
    /// The stage's Eq. 2 calibrated speed (Table 1 NIC-coupled TFLOPS) —
    /// the delegation path's input when compute is uniform.
    pub speed_tflops: f64,
    /// Seconds the stage's *slowest* member needs per layer of work.
    pub sec_per_layer: f64,
    /// Fixed per-iteration communication charged to the stage (its worst
    /// DP group's NIC-priced sync), independent of the layer count.
    pub comm_seconds: f64,
}

impl StageProfile {
    /// The stage's finish time carrying `n` layers.
    fn finish_seconds(&self, n: u32) -> f64 {
        self.comm_seconds + f64::from(n) * self.sec_per_layer
    }
}

/// The Eq. 2 generalization for heterogeneous stage speeds: balance
/// per-stage completion times (`max` over members' compute plus the
/// stage's fixed communication) instead of splitting proportionally to
/// one scalar speed. See the module docs for the algorithm and its
/// bit-for-bit degeneration to [`SelfAdaptingPartition`].
#[derive(Debug, Clone, Copy)]
pub struct StragglerAwarePartition {
    /// The Eq. 2 α hyper-parameter, forwarded to the delegation path
    /// (paper default 1.05). The greedy path balances exact finish times
    /// and does not need the over-allocation knob.
    pub alpha: f64,
}

impl Default for StragglerAwarePartition {
    fn default() -> Self {
        StragglerAwarePartition { alpha: 1.05 }
    }
}

impl StragglerAwarePartition {
    /// Layers per stage for heterogeneous stage profiles. Sums to
    /// `layers`; every stage gets at least one layer when `layers ≥ p`.
    ///
    /// # Panics
    /// Panics on empty `stages` or any non-positive `sec_per_layer` /
    /// `speed_tflops`, or negative `comm_seconds`.
    #[expect(clippy::cast_possible_truncation, reason = "one per pipeline stage")]
    pub fn partition_stages(&self, layers: u32, stages: &[StageProfile]) -> Vec<u32> {
        let p = stages.len();
        assert!(p > 0, "at least one stage");
        assert!(
            stages
                .iter()
                .all(|s| s.sec_per_layer > 0.0 && s.speed_tflops > 0.0),
            "stage speeds must be positive"
        );
        assert!(
            stages.iter().all(|s| s.comm_seconds >= 0.0),
            "communication costs must be non-negative"
        );

        // Compute-uniform stages: the finish-time objective degenerates,
        // so reproduce Eq. 2 bit-for-bit over the calibrated speeds.
        let first = stages[0].sec_per_layer.to_bits();
        if stages.iter().all(|s| s.sec_per_layer.to_bits() == first) {
            let speeds: Vec<f64> = stages.iter().map(|s| s.speed_tflops).collect();
            return SelfAdaptingPartition { alpha: self.alpha }.partition(layers, &speeds);
        }

        let mut out = vec![0u32; p];
        let mut remaining = layers;
        // Feasibility seed: one layer per stage, matching the Eq. 2 rule
        // that every stage holds at least one layer when possible.
        if remaining >= p as u32 {
            out.iter_mut().for_each(|n| *n = 1);
            remaining -= p as u32;
        }
        for _ in 0..remaining {
            // Argmin of the post-assignment finish time; a strict `<`
            // keeps ties at the lowest stage index.
            let mut next = 0usize;
            for i in 1..p {
                let challenger = stages[i].finish_seconds(out[i] + 1);
                let incumbent = stages[next].finish_seconds(out[next] + 1);
                if challenger.total_cmp(&incumbent).is_lt() {
                    next = i;
                }
            }
            out[next] += 1;
        }
        debug_assert_eq!(out.iter().sum::<u32>(), layers);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles(specs: &[(f64, f64, f64)]) -> Vec<StageProfile> {
        specs
            .iter()
            .map(
                |&(speed_tflops, sec_per_layer, comm_seconds)| StageProfile {
                    speed_tflops,
                    sec_per_layer,
                    comm_seconds,
                },
            )
            .collect()
    }

    /// Max finish time of a candidate assignment.
    fn bottleneck(stages: &[StageProfile], out: &[u32]) -> f64 {
        stages
            .iter()
            .zip(out)
            .map(|(s, &n)| s.finish_seconds(n))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn uniform_compute_delegates_to_eq2_bitwise() {
        // Table 1 speeds with identical per-layer compute: exactly the
        // historical Eq. 2 split (17/13 on 30 layers).
        let stages = profiles(&[(197.0, 2e-3, 0.1), (160.0, 2e-3, 0.4)]);
        let got = StragglerAwarePartition::default().partition_stages(30, &stages);
        let eq2 = SelfAdaptingPartition { alpha: 1.05 }.partition(30, &[197.0, 160.0]);
        assert_eq!(got, eq2);
        assert_eq!(got, vec![17, 13]);
    }

    #[test]
    fn slower_compute_gets_fewer_layers() {
        // Stage 1's slowest member takes 4× longer per layer.
        let stages = profiles(&[(197.0, 1e-3, 0.0), (197.0, 4e-3, 0.0)]);
        let out = StragglerAwarePartition::default().partition_stages(30, &stages);
        assert_eq!(out.iter().sum::<u32>(), 30);
        assert!(out[0] > out[1], "{out:?}");
        // 4:1 rate ratio → ~24/6 split balances finish times.
        assert_eq!(out, vec![24, 6]);
    }

    #[test]
    fn heavy_communication_offloads_layers() {
        // Equal compute rates but distinct (so the greedy path runs);
        // stage 1 pays a large fixed comm term and must carry less.
        let stages = profiles(&[(197.0, 1e-3, 0.0), (197.0, 1.0001e-3, 2e-2)]);
        let out = StragglerAwarePartition::default().partition_stages(40, &stages);
        assert_eq!(out.iter().sum::<u32>(), 40);
        assert!(out[0] > out[1], "{out:?}");
    }

    #[test]
    fn every_stage_keeps_a_layer_when_feasible() {
        let stages = profiles(&[(989.0, 1e-4, 0.0), (125.0, 8e-4, 0.0), (125.0, 8e-4, 0.5)]);
        let out = StragglerAwarePartition::default().partition_stages(8, &stages);
        assert_eq!(out.iter().sum::<u32>(), 8);
        assert!(out.iter().all(|&n| n >= 1), "{out:?}");
    }

    #[test]
    fn fewer_layers_than_stages_still_conserves() {
        let stages = profiles(&[(197.0, 1e-3, 0.0), (197.0, 2e-3, 0.0), (197.0, 3e-3, 0.0)]);
        let out = StragglerAwarePartition::default().partition_stages(2, &stages);
        assert_eq!(out.iter().sum::<u32>(), 2);
        // Stage 0 at 2·1e-3 ties stage 1 at 1·2e-3 for the second layer;
        // ties resolve to the lowest index.
        assert_eq!(out, vec![2, 0, 0]);
    }

    #[test]
    fn greedy_is_locally_optimal() {
        // No single-layer move may strictly lower the bottleneck.
        let stages = profiles(&[
            (989.0, 2.0e-4, 1e-2),
            (312.0, 6.5e-4, 3e-2),
            (125.0, 1.6e-3, 5e-3),
        ]);
        let out = StragglerAwarePartition::default().partition_stages(36, &stages);
        assert_eq!(out.iter().sum::<u32>(), 36);
        let best = bottleneck(&stages, &out);
        for from in 0..stages.len() {
            for to in 0..stages.len() {
                if from == to || out[from] <= 1 {
                    continue;
                }
                let mut moved = out.clone();
                moved[from] -= 1;
                moved[to] += 1;
                assert!(
                    bottleneck(&stages, &moved) >= best - 1e-15,
                    "move {from}->{to} beat the greedy: {moved:?} vs {out:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stages_rejected() {
        StragglerAwarePartition::default().partition_stages(10, &[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_rate_rejected() {
        let stages = profiles(&[(197.0, 0.0, 0.0)]);
        StragglerAwarePartition::default().partition_stages(10, &stages);
    }
}
