//! Fuzz properties for the topology spec parser, the boundary every CLI
//! flag and config file crosses: arbitrary input yields a topology or a
//! reason, never a panic, and every accepted spec builds a fleet of 1 to
//! `MAX_DEVICES` devices.

use holmes_topology::{parse_topology_spec, MAX_DEVICES};
use proptest::prelude::*;

/// A well-formed spec for the mutations to damage.
const SEED: &str = "ib:4+roce:2x8";

/// Parse `input`; an accepted spec must hold 1..=`MAX_DEVICES` devices.
fn check(input: &str) -> Result<(), TestCaseError> {
    if let Ok(topo) = parse_topology_spec(input) {
        let devices = topo.device_count();
        prop_assert!(
            (1..=MAX_DEVICES).contains(&devices),
            "{input:?} built {devices} devices"
        );
    }
    Ok(())
}

/// Bytes that keep random input close to a spec, so the parser gets
/// past its first token.
const SPECISH: &[u8] = b"ib:roce+eth:infiniband0123456789xX +\t-IBE\xc3\xa9\x00";

proptest! {
    /// Random bytes, decoded lossily.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Random strings over the spec grammar's own alphabet.
    #[test]
    fn specish_strings_never_panic(
        picks in prop::collection::vec(0usize..SPECISH.len(), 0..48),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| SPECISH[i]).collect();
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Near misses of a valid spec: overwrite, delete, insert or
    /// duplicate a run of grammar bytes, or truncate.
    #[test]
    fn near_miss_specs_never_panic(
        edits in prop::collection::vec(
            (0u8..5, 0usize..SEED.len() + 1, 0usize..SPECISH.len(), 1usize..4),
            1..4,
        ),
    ) {
        let mut bytes = SEED.as_bytes().to_vec();
        for (op, at, pick, len) in edits {
            let at = at % (bytes.len() + 1);
            let end = (at + len).min(bytes.len());
            let byte = SPECISH[pick];
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => {
                    bytes.drain(at..end);
                }
                2 => bytes.insert(at, byte),
                3 => {
                    let run = bytes[at..end].to_vec();
                    bytes.splice(at..at, run);
                }
                _ => bytes.truncate(at),
            }
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }
}

/// The unmutated seed parses to the fleet it names.
#[test]
fn seed_spec_parses() {
    let topo = parse_topology_spec(SEED).expect("the seed spec is valid");
    assert_eq!(topo.cluster_count(), 2);
    assert_eq!(topo.device_count(), 48);
}
