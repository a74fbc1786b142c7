//! Megatron's interleaved (virtual-pipeline) schedule.
//!
//! Each device hosts `v` model *chunks* instead of one contiguous stage;
//! with `p` devices the model is split into `p·v` chunks and the warm-up
//! pattern interleaves chunks so the bubble shrinks from
//! `(p−1)/(m+p−1)` to roughly `(p−1)/(v·m+p−1)`. The paper's experiments
//! enable this schedule (§4.1). The engine's iteration builder expands
//! these units like every other schedule's, pricing each chunk on its own.

use super::Unit;

/// The interleaved schedule with `v` virtual chunks per device.
#[derive(Debug, Clone, Copy)]
pub struct Interleaved {
    /// Virtual pipeline size (model chunks per device), ≥ 1.
    pub virtual_stages: u32,
}

impl Interleaved {
    /// Construct; at `virtual_stages == 1` every unit is on chunk 0, but
    /// the warm-up is Megatron's `2(p−s−1)` units, deeper than 1F1B's.
    pub fn new(virtual_stages: u32) -> Self {
        assert!(virtual_stages >= 1, "need at least one virtual stage");
        Interleaved { virtual_stages }
    }

    /// Model chunk processed by unit `unit` on a `p`-deep pipeline
    /// (Megatron's `get_model_chunk_id`).
    fn chunk_of(&self, unit: u32, p: u32, forward: bool) -> u32 {
        let v = self.virtual_stages;
        let in_group = unit % (p * v);
        let chunk = in_group / p;
        if forward {
            chunk
        } else {
            v - 1 - chunk
        }
    }

    /// Micro-batch index processed by unit `unit`.
    fn mb_of(&self, unit: u32, p: u32) -> u32 {
        let v = self.virtual_stages;
        (unit / (p * v)) * p + unit % p
    }

    /// Full unit sequence for one device: warm-up forwards, 1F1B steady
    /// phase, backward cooldown — Megatron's
    /// `forward_backward_pipelining_with_interleaving` ordering.
    ///
    /// # Panics
    /// Panics unless `microbatches % stages == 0` (Megatron's requirement).
    pub fn units(&self, stage: u32, stages: u32, microbatches: u32) -> Vec<Unit> {
        let (p, v, m) = (stages, self.virtual_stages, microbatches);
        assert!(stage < p, "stage out of range");
        assert!(
            m % p == 0,
            "interleaved schedule requires microbatches ({m}) divisible by pipeline depth ({p})"
        );
        let total_units = m * v;
        let warmup = if p == 1 {
            total_units
        } else {
            ((p - stage - 1) * 2 + (v - 1) * p).min(total_units)
        };
        let mut out = Vec::with_capacity(2 * total_units as usize);
        for u in 0..warmup {
            out.push(Unit {
                chunk: self.chunk_of(u, p, true),
                mb: self.mb_of(u, p),
                forward: true,
            });
        }
        let steady = total_units - warmup;
        for i in 0..steady {
            let fu = warmup + i;
            out.push(Unit {
                chunk: self.chunk_of(fu, p, true),
                mb: self.mb_of(fu, p),
                forward: true,
            });
            out.push(Unit {
                chunk: self.chunk_of(i, p, false),
                mb: self.mb_of(i, p),
                forward: false,
            });
        }
        for u in steady..total_units {
            out.push(Unit {
                chunk: self.chunk_of(u, p, false),
                mb: self.mb_of(u, p),
                forward: false,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{assert_valid_units, peak_in_flight};

    #[test]
    fn units_cover_every_chunk_microbatch_pair() {
        for v in 1..=3u32 {
            for p in [2u32, 4] {
                for groups in 1..=3u32 {
                    let m = p * groups;
                    for s in 0..p {
                        let units = Interleaved::new(v).units(s, p, m);
                        assert_valid_units(&units, v, m);
                    }
                }
            }
        }
    }

    #[test]
    fn v1_warmup_is_deeper_than_1f1b() {
        // Megatron's interleaved warm-up is `2(p−s−1)` units even at v=1,
        // deeper than plain 1F1B's `p−s−1`, so more activations stay alive.
        let units = Interleaved::new(1).units(0, 4, 8);
        assert!(units.iter().all(|u| u.chunk == 0));
        assert!(units[..7].iter().all(|u| u.forward));
        assert!(!units[7].forward);
        assert_eq!(peak_in_flight(&units), 7);
        assert_eq!(peak_in_flight(&Interleaved::new(2).units(0, 4, 8)), 11);
    }

    #[test]
    #[should_panic(expected = "divisible by pipeline depth")]
    fn indivisible_microbatches_rejected() {
        Interleaved::new(2).units(0, 4, 6);
    }

    #[test]
    fn single_stage_pipeline_is_all_warmup() {
        let units = Interleaved::new(2).units(0, 1, 3);
        assert_valid_units(&units, 2, 3);
    }
}
