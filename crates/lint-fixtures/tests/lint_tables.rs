//! The determinism lint's tables deny each rule on the crates DESIGN.md §8
//! lists. The fixtures in `src/lib.rs` cannot show this: an
//! `#[expect(clippy::..)]` turns its own lint on, so it is fulfilled
//! whether or not a table denies the lint. This test reads the tables.

use std::collections::BTreeMap;
use std::path::Path;

/// Every lint of the full table: the five rules plus the two that make
/// each exception a reasoned `#[expect]`.
const FULL: &[&str] = &[
    "iter_over_hash_type",
    "disallowed_methods",
    "unwrap_used",
    "expect_used",
    "float_cmp",
    "cast_possible_truncation",
    "allow_attributes",
    "allow_attributes_without_reason",
];

/// wall-clock and float-eq, plus the exception rules.
const CLOCK_FLOAT: &[&str] = &[
    "disallowed_methods",
    "float_cmp",
    "allow_attributes",
    "allow_attributes_without_reason",
];

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `key = value` lines of one `[section]` of a TOML file.
fn section(text: &str, header: &str) -> BTreeMap<String, String> {
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once(" = "))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect()
}

fn assert_denies(rel: &str, header: &str, lints: &[&str]) {
    let table = section(&read(rel), header);
    for lint in lints {
        assert_eq!(
            table.get(*lint).map(String::as_str),
            Some("\"deny\""),
            "{rel} {header} must deny {lint}"
        );
    }
}

#[test]
fn tables_deny_each_rule_on_its_crates() {
    assert_denies("Cargo.toml", "[workspace.lints.clippy]", FULL);
    for krate in ["netsim", "engine", "obs", "parallel", "lint-fixtures"] {
        let rel = format!("crates/{krate}/Cargo.toml");
        let lints = section(&read(&rel), "[lints]");
        assert_eq!(
            lints.get("workspace").map(String::as_str),
            Some("true"),
            "{rel} must inherit the workspace table"
        );
    }
    for rel in [
        "Cargo.toml",
        "crates/core/Cargo.toml",
        "crates/model/Cargo.toml",
    ] {
        assert_denies(rel, "[lints.clippy]", CLOCK_FLOAT);
    }
    assert_denies("crates/topology/Cargo.toml", "[lints.clippy]", CLOCK_FLOAT);
    assert_denies(
        "crates/topology/Cargo.toml",
        "[lints.clippy]",
        &["cast_possible_truncation"],
    );
}

#[test]
fn clippy_toml_names_every_disallowed_method() {
    let config = read("clippy.toml");
    let hash = ["iter", "iter_mut", "keys", "values", "values_mut"]
        .into_iter()
        .chain(["into_keys", "into_values", "drain"])
        .map(|m| format!("std::collections::HashMap::{m}"));
    let set = ["iter", "drain"].map(|m| format!("std::collections::HashSet::{m}"));
    let clock = ["std::time::Instant::now", "std::time::SystemTime::now"].map(str::to_owned);
    for path in hash.chain(set).chain(clock) {
        assert!(
            config.contains(&format!("path = \"{path}\"")),
            "clippy.toml must disallow {path}"
        );
    }
    for key in [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
    ] {
        assert!(config.contains(key), "clippy.toml must set {key}");
    }
}
