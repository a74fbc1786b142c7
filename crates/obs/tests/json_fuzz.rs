//! Fuzz properties for the JSON parser: arbitrary input yields `Ok` or a
//! typed `Err`, never a panic, and every accepted document survives a
//! `write` → `parse` round trip unchanged.

use holmes_obs::json::{parse, write};
use proptest::prelude::*;

/// A committed snapshot: real structure for the mutations to damage.
const SNAPSHOT: &str = include_str!("../../../BENCH_baseline/BENCH_resilience.json");

/// Parse `input`; when it parses, the value must write and re-parse to
/// itself.
fn check(input: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = parse(input) {
        let text = write(&value);
        let again = parse(&text).map_err(|e| {
            TestCaseError::Fail(format!("written form does not parse: {e}\n{text}"))
        })?;
        prop_assert_eq!(again, value);
    }
    Ok(())
}

/// Bytes that keep random input close to JSON, so the parser gets past
/// its first token.
const JSONISH: &[u8] = b"{}[]:,\"\\ntrufalse0123456789.-+eE \t\nu\xc3\xa9\x00\x7f";

proptest! {
    /// Random bytes, decoded lossily.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Random strings over JSON's own alphabet.
    #[test]
    fn jsonish_strings_never_panic(
        picks in prop::collection::vec(0usize..JSONISH.len(), 0..256),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSONISH[i]).collect();
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// A committed snapshot under byte-level mutations: overwrite, delete,
    /// insert, duplicate a run, or truncate.
    #[test]
    fn mutated_snapshots_never_panic(
        edits in prop::collection::vec((0u8..5, 0usize..SNAPSHOT.len(), 0u8..=255, 1usize..64), 1..8),
    ) {
        let mut bytes = SNAPSHOT.as_bytes().to_vec();
        for (op, at, byte, len) in edits {
            let at = at % (bytes.len() + 1);
            let end = (at + len).min(bytes.len());
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

/// The unmutated snapshot itself round-trips byte for byte.
#[test]
fn snapshot_round_trips() {
    let value = parse(SNAPSHOT).expect("committed snapshot parses");
    assert_eq!(write(&value), SNAPSHOT);
}
