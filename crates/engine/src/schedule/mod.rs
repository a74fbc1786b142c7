//! Pipeline schedules: the order in which a stage processes forward and
//! backward units.
//!
//! Every schedule yields one [`Unit`] sequence per stage; the
//! [`crate::builder`] expands units into concrete ops (receives, computes,
//! sends) in one loop. Implemented schedules:
//!
//! * [`gpipe`] — all forwards, flush, all backwards (high activation
//!   memory, large bubble);
//! * [`one_f_one_b`] — PipeDream-Flush / 1F1B, the schedule Holmes builds
//!   on (§3.1.2 "similar to PipeDream-Flush"): a warm-up of `p−1−s`
//!   forwards, a steady phase alternating one-forward-one-backward, and a
//!   cooldown draining backwards. Keeps ≤ `p` micro-batches in flight.
//! * [`Interleaved`] — Megatron's interleaved virtual-pipeline schedule
//!   (each device hosts `v` model chunks); the paper's experiments enable
//!   it (§4.1).

mod interleaved;

pub use interleaved::Interleaved;

/// One unit of pipeline work for a stage: the forward or backward pass of
/// one micro-batch through one of the device's model chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Model chunk on this device (`0..v`; always 0 without interleaving).
    pub chunk: u32,
    /// Micro-batch index (`0..m`).
    pub mb: u32,
    /// Forward (`true`) or backward (`false`).
    pub forward: bool,
}

impl Unit {
    fn fwd(mb: u32) -> Unit {
        Unit {
            chunk: 0,
            mb,
            forward: true,
        }
    }

    fn bwd(mb: u32) -> Unit {
        Unit {
            chunk: 0,
            mb,
            forward: false,
        }
    }
}

/// GPipe (Huang et al., the paper's \[15\]): every stage runs all `m`
/// forwards, a synchronization flush, then all `m` backwards. Simple but
/// stores `m` micro-batches of activations and leaves a `2(p−1)` slot
/// bubble; included as the classical baseline schedule.
pub fn gpipe(microbatches: u32) -> Vec<Unit> {
    (0..microbatches)
        .map(Unit::fwd)
        .chain((0..microbatches).map(Unit::bwd))
        .collect()
}

/// PipeDream-Flush (Narayanan et al., the paper's \[24\]), a.k.a. 1F1B:
///
/// * warm-up: stage `s` runs `min(m, p−1−s)` forwards;
/// * steady state: alternate forward / backward, keeping at most
///   `p−s` micro-batches in flight;
/// * cooldown: drain the remaining backwards.
///
/// Same bubble as GPipe (`(p−1)/(m+p−1)` of the iteration) but activation
/// memory bounded by `p` micro-batches instead of `m`, which is why
/// Megatron-LM and Holmes use it.
///
/// # Panics
/// Panics unless `stage < stages`.
pub fn one_f_one_b(stage: u32, stages: u32, microbatches: u32) -> Vec<Unit> {
    assert!(stage < stages, "stage out of range");
    let m = microbatches;
    let warmup = (stages - 1 - stage).min(m);
    let steady = m - warmup;
    let mut units: Vec<Unit> = (0..warmup).map(Unit::fwd).collect();
    for i in 0..steady {
        units.push(Unit::fwd(warmup + i));
        units.push(Unit::bwd(i));
    }
    units.extend((steady..m).map(Unit::bwd));
    units
}

/// Most units whose activations are alive at once: the peak of forwards
/// run minus backwards run along the sequence.
pub fn peak_in_flight(units: &[Unit]) -> u32 {
    let mut alive = 0u32;
    let mut peak = 0u32;
    for u in units {
        if u.forward {
            alive += 1;
            peak = peak.max(alive);
        } else {
            alive -= 1;
        }
    }
    peak
}

#[cfg(test)]
pub(crate) fn assert_valid_units(units: &[Unit], chunks: u32, microbatches: u32) {
    use std::collections::HashSet;
    let mut fwd = HashSet::new();
    let mut bwd = HashSet::new();
    for u in units {
        assert!(u.chunk < chunks, "chunk out of range: {u:?}");
        assert!(u.mb < microbatches, "micro-batch out of range: {u:?}");
        if u.forward {
            assert!(fwd.insert((u.chunk, u.mb)), "duplicate forward {u:?}");
        } else {
            assert!(
                fwd.contains(&(u.chunk, u.mb)),
                "backward before forward: {u:?}"
            );
            assert!(bwd.insert((u.chunk, u.mb)), "duplicate backward {u:?}");
        }
    }
    assert_eq!(fwd.len() as u32, chunks * microbatches, "missing forwards");
    assert_eq!(bwd.len() as u32, chunks * microbatches, "missing backwards");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpipe_is_valid_and_runs_all_forwards_first() {
        let units = gpipe(5);
        assert_valid_units(&units, 1, 5);
        assert!(units[..5].iter().all(|u| u.forward));
        assert!(units[5..].iter().all(|u| !u.forward));
        assert_eq!(peak_in_flight(&units), 5);
    }

    #[test]
    fn one_f_one_b_valid_for_all_stage_and_m_combinations() {
        for p in 1..=6u32 {
            for m in 1..=12u32 {
                for s in 0..p {
                    assert_valid_units(&one_f_one_b(s, p, m), 1, m);
                }
            }
        }
    }

    #[test]
    fn last_stage_has_no_warmup() {
        // Last stage alternates F0 B0 F1 B1 …
        let units = one_f_one_b(3, 4, 6);
        assert_eq!(&units[..3], &[Unit::fwd(0), Unit::bwd(0), Unit::fwd(1)]);
    }

    #[test]
    fn first_stage_warmup_is_p_minus_1() {
        let units = one_f_one_b(0, 4, 6);
        assert_eq!(
            &units[..5],
            &[
                Unit::fwd(0),
                Unit::fwd(1),
                Unit::fwd(2),
                Unit::fwd(3),
                Unit::bwd(0)
            ]
        );
    }

    #[test]
    fn one_f_one_b_keeps_min_of_p_minus_s_and_m_in_flight() {
        for p in 1..=5u32 {
            for m in 1..=10u32 {
                for s in 0..p {
                    let peak = peak_in_flight(&one_f_one_b(s, p, m));
                    assert_eq!(peak, (p - s).min(m), "p={p} s={s} m={m}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "stage out of range")]
    fn invalid_stage_panics() {
        one_f_one_b(4, 4, 2);
    }
}
