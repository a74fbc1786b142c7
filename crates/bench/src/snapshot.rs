//! The one `BENCH_*.json` snapshot format: the builder every producer
//! writes through, and the gate `bench_diff` runs on every snapshot.
//!
//! A snapshot is a JSON object with three gated maps:
//!
//! * **`exact`** — any subtree of deterministic results (work counters,
//!   simulated times, plans, event logs, metric registries), compared
//!   value for value: any drift is a behaviour change, not noise.
//! * **`toleranced`** — `name → {"value": x, "better": "higher"|"lower"}`:
//!   machine-dependent wall-clock numbers, failing only on a slowdown
//!   beyond the gate's tolerance.
//! * **`bounds`** — `path → {"op": ">=" | ">" | "<" | "==", "limit": x,
//!   "scaled": bool}`: an absolute limit on the fresh number at a
//!   dot-separated path such as `toleranced.fleet64_plan_seconds.value`,
//!   whatever the baseline says. A `scaled` limit is multiplied by the
//!   gate's floor scale, and skipped when that scale is zero.
//!
//! Other top-level keys are ungated context. The gate reads every rule
//! from the baseline and fails a fresh snapshot whose toleranced names,
//! `better` directions or bounds differ from it, so a producer cannot
//! loosen its own gate. Gating a new section is a producer change only.

pub mod gate;

use holmes_obs::json::{self, Value};

/// Which direction of a toleranced value is an improvement.
#[derive(Debug, Clone, Copy)]
pub enum Better {
    /// Throughputs: a drop is a regression.
    Higher,
    /// Wall times: a rise is a regression.
    Lower,
}

/// A snapshot under construction.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    exact: Vec<(String, Value)>,
    toleranced: Vec<(String, Value)>,
    bounds: Vec<(String, Value)>,
    ungated: Vec<(String, Value)>,
}

impl Snapshot {
    /// Add `key` to the `exact` map.
    pub fn exact(&mut self, key: &str, value: impl Into<Value>) {
        self.exact.push((key.to_owned(), value.into()));
    }

    /// Add a toleranced measurement.
    pub fn toleranced(&mut self, name: &str, value: f64, better: Better) {
        let better = match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let row = json::obj([("value", value.into()), ("better", better.into())]);
        self.toleranced.push((name.to_owned(), row));
    }

    /// Bound the number at `path` by `op limit`.
    pub fn bound(&mut self, path: &str, op: &str, limit: f64, scaled: bool) {
        let rule = [
            ("op", op.into()),
            ("limit", limit.into()),
            ("scaled", scaled.into()),
        ];
        self.bounds.push((path.to_owned(), json::obj(rule)));
    }

    /// Add an ungated top-level key.
    pub fn ungated(&mut self, key: &str, value: impl Into<Value>) {
        self.ungated.push((key.to_owned(), value.into()));
    }

    /// The document: the three gated maps, then the ungated keys.
    pub fn into_value(self) -> Value {
        let mut doc = vec![
            ("exact".to_owned(), Value::Obj(self.exact)),
            ("toleranced".to_owned(), Value::Obj(self.toleranced)),
            ("bounds".to_owned(), Value::Obj(self.bounds)),
        ];
        doc.extend(self.ungated);
        Value::Obj(doc)
    }

    /// Write the document to `path` through [`json::write`].
    pub fn write(self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, json::write(&self.into_value()))
    }
}

/// `v` as printed with `decimals` decimal places: producers round a field
/// here to keep the precision it has always been printed with.
pub fn round(v: f64, decimals: usize) -> f64 {
    let text = format!("{v:.decimals$}");
    text.parse().expect("a formatted f64 parses back")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_keeps_the_printed_precision() {
        assert_eq!(round(9.918_971_889, 6), 9.918972);
        assert_eq!(round(315.560_202_991_8, 6).to_string(), "315.560203");
        assert_eq!(round(3_550_777.4, 0), 3_550_777.0);
    }
}
