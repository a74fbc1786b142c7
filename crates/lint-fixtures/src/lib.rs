//! Fixtures for the determinism lint (DESIGN.md §8).
//!
//! This crate inherits the workspace's full `[lints.clippy]` table, so
//! `cargo clippy --workspace --all-targets -- -D warnings` checks the
//! lint configuration itself. Each positive fixture carries an
//! `#[expect(clippy::..)]`: if its lint stops firing (a `clippy.toml`
//! entry gone, a clippy that no longer sees the case), the expectation
//! goes unfulfilled and clippy fails. The negative fixtures carry nothing:
//! if a lint starts firing on one, clippy fails too. An `#[expect]` turns
//! its own lint on, so whether the tables deny each lint is checked by
//! `tests/lint_tables.rs` instead.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// A deterministic hasher does not make iteration order meaningful.
pub type WordMap = HashMap<u32, u32, BuildHasherDefault<std::hash::DefaultHasher>>;

// Positive fixtures: each lint must fire.

/// hash-iter: a `for` loop over a hash map.
#[expect(clippy::iter_over_hash_type, reason = "positive fixture")]
pub fn hash_for_loop(m: &HashMap<u32, u32>) -> u32 {
    let mut last = 0;
    for (k, v) in m {
        last = k + v;
    }
    last
}

/// hash-iter: a custom-hasher map is still a hash map.
#[expect(clippy::iter_over_hash_type, reason = "positive fixture")]
pub fn custom_hasher_for_loop(m: &WordMap) -> u32 {
    let mut last = 0;
    for (k, v) in m {
        last = k + v;
    }
    last
}

/// hash-iter: `iter()` on a custom-hasher map.
#[expect(clippy::disallowed_methods, reason = "positive fixture")]
pub fn custom_hasher_iter(m: &WordMap) -> Vec<(&u32, &u32)> {
    m.iter().collect()
}

/// hash-iter: an adaptor chain over `keys()`, which no `for` loop shows.
#[expect(clippy::disallowed_methods, reason = "positive fixture")]
pub fn hash_keys_collect(m: &HashMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}

/// wall-clock: a host-clock read.
#[expect(clippy::disallowed_methods, reason = "positive fixture")]
pub fn wall_clock() -> Instant {
    Instant::now()
}

/// hot-path-panic: `unwrap`.
#[expect(clippy::unwrap_used, reason = "positive fixture")]
pub fn unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// hot-path-panic: `expect`, however short its message.
#[expect(clippy::expect_used, reason = "positive fixture")]
pub fn short_expect(x: Option<u32>) -> u32 {
    x.expect("oops")
}

/// float-eq: equality between two floats. `float_cmp` skips comparisons
/// with zero and functions whose name contains `eq`.
#[expect(clippy::float_cmp, reason = "positive fixture")]
pub fn same_time(a: f64, b: f64) -> bool {
    a == b
}

/// float-eq: inequality against a non-zero literal.
#[expect(clippy::float_cmp, reason = "positive fixture")]
pub fn not_literal(a: f64) -> bool {
    1.5 != a
}

/// lossy-cast: a byte quantity cast to `u32`.
#[expect(clippy::cast_possible_truncation, reason = "positive fixture")]
pub fn quantity_as_u32(total_bytes: u64) -> u32 {
    total_bytes as u32
}

/// lossy-cast: seconds narrowed to `f32`.
#[expect(clippy::cast_possible_truncation, reason = "positive fixture")]
pub fn seconds_as_f32(seconds: f64) -> f32 {
    seconds as f32
}

/// Exceptions are `#[expect]`: a bare `#[allow]` is refused.
#[expect(clippy::allow_attributes, reason = "positive fixture")]
#[allow(clippy::float_cmp, reason = "positive fixture")]
pub fn bare_allow(a: f64) -> bool {
    a == 1.5
}

/// Every exception states a reason.
#[expect(clippy::allow_attributes_without_reason, reason = "positive fixture")]
#[expect(clippy::float_cmp)]
pub fn unreasoned(a: f64) -> bool {
    a == 1.5
}

// Negative fixtures: no lint may fire.

/// Probing a hash map is not iterating it.
pub fn hash_indexing(m: &HashMap<u32, u32>) -> u32 {
    m[&1] + m.get(&2).copied().unwrap_or(0) + u32::from(m.contains_key(&3))
}

/// B-tree iteration is ordered.
pub fn btree_iteration(m: &BTreeMap<u32, u32>) -> u32 {
    let mut sum = 0;
    for (k, v) in m {
        sum += k + v;
    }
    sum + m.keys().sum::<u32>()
}

/// Tuple field access is not a float comparison.
pub fn tuple_fields(b: (u32, u32)) -> bool {
    b.0 == b.1
}

/// Widening casts cannot truncate.
pub fn widening(total_bytes: u64, n: u32) -> (f64, u64) {
    (total_bytes as f64, n as u64)
}

#[cfg(test)]
mod tests {
    /// Test code may unwrap (`allow-unwrap-in-tests`).
    #[test]
    fn tests_may_unwrap() {
        assert_eq!("3".parse::<u32>().ok().unwrap(), 3);
    }
}
