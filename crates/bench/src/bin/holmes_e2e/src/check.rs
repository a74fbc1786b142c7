//! Output checks and the result digest.
//!
//! The timed run applies only cheap checks: finite, positive times and
//! TFLOPS, stage layers summing to the model, and bit-identity of every
//! repeat of an input with its first run. The traced run adds the full
//! verifiers (see `layers.rs`), whose defects count as failures.

/// What one query produced, reduced to what the checks and the digest need.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Plan quality in TFLOPS/GPU: simulated where the query simulates,
    /// estimated where it only plans.
    pub tflops: f64,
    /// Every reported duration that must be finite and positive.
    pub seconds: Vec<f64>,
    /// Layers per pipeline stage of the chosen plan.
    pub stage_layers: Vec<u32>,
    /// The model's layer count.
    pub model_layers: u32,
    /// FNV-1a over every result bit the query returned.
    pub digest: u64,
}

/// Finite, positive times and TFLOPS; stage layers sum to the model.
pub fn cheap(o: &Outcome) -> Result<(), String> {
    if !(o.tflops.is_finite() && o.tflops > 0.0) {
        return Err(format!(
            "TFLOPS/GPU {} is not finite and positive",
            o.tflops
        ));
    }
    if let Some(s) = o.seconds.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
        return Err(format!("reported time {s} s is not finite and positive"));
    }
    let sum: u32 = o.stage_layers.iter().sum();
    if sum != o.model_layers || o.stage_layers.contains(&0) {
        return Err(format!(
            "stage layers {:?} do not split the model's {} layers",
            o.stage_layers, o.model_layers
        ));
    }
    Ok(())
}

/// A repeat of an input must reproduce its first run bit for bit.
pub fn repeat(first: &Outcome, again: &Outcome) -> Result<(), String> {
    if first.digest == again.digest {
        Ok(())
    } else {
        Err(format!(
            "repeat differs from the first run: digest {:016x} vs {:016x}",
            again.digest, first.digest
        ))
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            tflops: 180.0,
            seconds: vec![7.5],
            stage_layers: vec![17, 13],
            model_layers: 30,
            digest: 1,
        }
    }

    #[test]
    fn cheap_checks_accept_a_sane_outcome() {
        assert_eq!(cheap(&outcome()), Ok(()));
    }

    #[test]
    fn cheap_checks_reject_bad_numbers_and_partitions() {
        let bad = [
            Outcome {
                tflops: f64::NAN,
                ..outcome()
            },
            Outcome {
                seconds: vec![0.0],
                ..outcome()
            },
            Outcome {
                seconds: vec![f64::INFINITY],
                ..outcome()
            },
            Outcome {
                stage_layers: vec![17, 12],
                ..outcome()
            },
            Outcome {
                stage_layers: vec![30, 0],
                ..outcome()
            },
        ];
        for o in bad {
            assert!(cheap(&o).is_err(), "{o:?}");
        }
    }

    #[test]
    fn repeats_must_match_bit_for_bit() {
        let a = outcome();
        assert!(repeat(&a, &a.clone()).is_ok());
        assert!(repeat(
            &a,
            &Outcome {
                digest: 2,
                ..a.clone()
            }
        )
        .is_err());
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the eight zero bytes of 0u64.
        assert_eq!(Fnv::new().u64(0).finish(), 0xa8c7_f832_281a_39c5);
        assert_ne!(Fnv::new().f64(0.0).finish(), Fnv::new().f64(-0.0).finish());
    }
}
