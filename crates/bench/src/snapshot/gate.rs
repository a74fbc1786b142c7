//! The gate: one walker over the three maps of [`super`]'s format.

use holmes_obs::json::Value;

/// Accumulated verdict of gating snapshots against their baselines.
#[derive(Debug)]
pub struct Gate {
    tolerance: f64,
    floor_scale: f64,
    /// One message per failed check.
    pub violations: Vec<String>,
    /// Checks run so far.
    pub checks: u32,
}

/// The rules a snapshot states: toleranced names with their direction,
/// and the bounds.
fn rules(doc: &Value) -> (Vec<(&String, Option<&Value>)>, Option<&Value>) {
    let toleranced = doc.get("toleranced").and_then(Value::as_object);
    let directions = toleranced.unwrap_or_default().iter();
    let directions = directions.map(|(name, row)| (name, row.get("better")));
    (directions.collect(), doc.get("bounds"))
}

impl Gate {
    /// A gate allowing a `tolerance` relative slowdown (0.10 = 10%) on
    /// toleranced values, with scaled bounds multiplied by `floor_scale`.
    pub fn new(tolerance: f64, floor_scale: f64) -> Self {
        Gate {
            tolerance,
            floor_scale,
            violations: Vec::new(),
            checks: 0,
        }
    }

    /// Gate `fresh` against `base`, both snapshots of `file`. Failed checks
    /// land in [`Gate::violations`]; `Err` means the baseline is malformed.
    pub fn compare(&mut self, file: &str, base: &Value, fresh: &Value) -> Result<(), String> {
        let malformed = |what: String| Err(format!("{file}: malformed baseline: {what}"));
        let map = |key| base.get(key).and_then(Value::as_object);
        let (Some(exact), Some(toleranced), Some(bounds)) =
            (base.get("exact"), map("toleranced"), map("bounds"))
        else {
            return malformed("needs exact, toleranced and bounds maps".into());
        };
        let fresh_exact = fresh.get("exact").unwrap_or(&Value::Null);
        self.exact(&format!("{file}:exact"), exact, fresh_exact);
        if rules(fresh) != rules(base) {
            self.fail(format!(
                "{file}: toleranced names, directions or bounds differ from the baseline's"
            ));
        }
        for (name, row) in toleranced {
            let value = row.get("value").and_then(Value::as_f64);
            let higher = match row.get("better").and_then(Value::as_str) {
                Some("higher") => Some(true),
                Some("lower") => Some(false),
                _ => None,
            };
            let (Some(value), Some(higher)) = (value.filter(|v| positive(*v)), higher) else {
                return malformed(format!("{name} needs a positive value and a direction"));
            };
            let row = fresh.get("toleranced").and_then(|t| t.get(name));
            let fresh_value = row.and_then(|r| r.get("value")).and_then(Value::as_f64);
            self.within_tolerance(
                &format!("{file}:toleranced.{name}"),
                value,
                fresh_value,
                higher,
            );
        }
        for (path, rule) in bounds {
            let (Some(op), Some(limit), Some(&Value::Bool(scaled))) = (
                rule.get("op").and_then(Value::as_str),
                rule.get("limit").and_then(Value::as_f64),
                rule.get("scaled"),
            ) else {
                return malformed(format!("bound {path} needs op, limit and scaled"));
            };
            let holds: fn(f64, f64) -> bool = match op {
                ">=" => |v, limit| v >= limit,
                ">" => |v, limit| v > limit,
                "<" => |v, limit| v < limit,
                "==" => |v, limit| v == limit,
                _ => return malformed(format!("bound {path} has unknown op {op:?}")),
            };
            if scaled && self.floor_scale <= 0.0 {
                continue;
            }
            let limit = if scaled {
                limit * self.floor_scale
            } else {
                limit
            };
            self.checks += 1;
            match path
                .split('.')
                .try_fold(fresh, |v, key| v.get(key))
                .and_then(Value::as_f64)
            {
                Some(v) if holds(v, limit) => {}
                Some(v) => self.fail(format!("{file}:{path}: {v} breaks the bound {op} {limit}")),
                None => self.fail(format!("{file}:{path}: bounded number missing")),
            }
        }
        Ok(())
    }

    fn fail(&mut self, msg: String) {
        self.violations.push(msg);
    }

    /// Exact structural equality, recursing so the report names the first
    /// diverging path instead of dumping whole documents.
    fn exact(&mut self, path: &str, base: &Value, fresh: &Value) {
        self.checks += 1;
        match (base, fresh) {
            (Value::Obj(b), Value::Obj(f)) => {
                for (k, bv) in b {
                    match fresh.get(k) {
                        Some(fv) => self.exact(&format!("{path}.{k}"), bv, fv),
                        None => self.fail(format!("{path}.{k}: missing from fresh snapshot")),
                    }
                }
                for (k, _) in f.iter().filter(|(k, _)| base.get(k).is_none()) {
                    self.fail(format!("{path}.{k}: not present in baseline"));
                }
            }
            (Value::Arr(b), Value::Arr(f)) if b.len() != f.len() => {
                self.fail(format!("{path}: length changed {} -> {}", b.len(), f.len()));
            }
            (Value::Arr(b), Value::Arr(f)) => {
                for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                    self.exact(&format!("{path}[{i}]"), bv, fv);
                }
            }
            _ if base != fresh => {
                self.fail(format!(
                    "{path}: deterministic value changed {base:?} -> {fresh:?}"
                ));
            }
            _ => {}
        }
    }

    /// Fail when `fresh` is missing, not positive, or slower than `base`
    /// by more than the tolerance. The ratio formulation (slowdown factor
    /// rather than a capped percentage drop) keeps tolerances above 100%
    /// meaningful for throughputs: an 8x collapse is a 700% regression.
    fn within_tolerance(&mut self, path: &str, base: f64, fresh: Option<f64>, higher: bool) {
        self.checks += 1;
        let Some(fresh) = fresh.filter(|v| positive(*v)) else {
            self.fail(format!(
                "{path}: fresh value is missing or not positive ({fresh:?})"
            ));
            return;
        };
        let slowdown = if higher { base / fresh } else { fresh / base };
        if slowdown > 1.0 + self.tolerance {
            let (pct, tol) = ((slowdown - 1.0) * 100.0, self.tolerance * 100.0);
            self.fail(format!(
                "{path}: {pct:.1}% regression (baseline {base}, fresh {fresh}, tolerance {tol:.0}%)"
            ));
        }
    }
}

/// A usable measurement: finite and above zero.
fn positive(v: f64) -> bool {
    v > 0.0 && v.is_finite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Better, Snapshot};
    use holmes_obs::json;

    /// A snapshot with a section no producer writes, so every test below
    /// also shows the gate needs no code per section.
    fn synthetic() -> Value {
        let mut s = Snapshot::default();
        let section = [("events", 1494u64.into()), ("times", vec![0.1, 0.2].into())];
        s.exact("never_seen", json::obj(section));
        s.exact("counterexamples", 0u64);
        s.exact("speedup", 1.01);
        s.toleranced("rate", 1000.0, Better::Higher);
        s.toleranced("wall_seconds", 0.5, Better::Lower);
        s.bound("toleranced.rate.value", ">=", 400.0, true);
        s.bound("toleranced.wall_seconds.value", "<", 1.0, false);
        s.bound("exact.speedup", ">", 1.0, false);
        s.bound("exact.counterexamples", "==", 0.0, false);
        s.ungated("profile", "quick");
        s.into_value()
    }

    /// The object at dot-separated `path`.
    fn at<'a>(doc: &'a mut Value, path: &str) -> &'a mut Value {
        path.split('.').fold(doc, |v, key| match v {
            Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("{path}: {key} is not in an object"),
        })
    }

    fn fields<'a>(doc: &'a mut Value, path: &str) -> &'a mut Vec<(String, Value)> {
        match at(doc, path) {
            Value::Obj(fields) => fields,
            _ => panic!("{path} is not an object"),
        }
    }

    /// Violations of `fresh` under a 50% tolerance and a 0.5 floor scale.
    fn violations(fresh: &Value) -> Vec<String> {
        let mut gate = Gate::new(0.5, 0.5);
        gate.compare("BENCH_x.json", &synthetic(), fresh).unwrap();
        gate.violations
    }

    fn with(path: &str, v: impl Into<Value>) -> Value {
        let mut doc = synthetic();
        *at(&mut doc, path) = v.into();
        doc
    }

    #[test]
    fn identical_and_improved_snapshots_pass() {
        let mut gate = Gate::new(0.5, 1.0);
        gate.compare("BENCH_x.json", &synthetic(), &synthetic())
            .unwrap();
        assert_eq!(gate.violations, Vec::<String>::new());
        assert_eq!(
            gate.checks, 14,
            "8 exact nodes, 2 toleranced rows, 4 bounds"
        );
        let mut faster = with("toleranced.rate.value", 5000.0);
        *at(&mut faster, "toleranced.wall_seconds.value") = 0.01.into();
        *at(&mut faster, "profile") = "full".into();
        assert!(violations(&faster).is_empty());
    }

    #[test]
    fn one_ulp_on_an_exact_leaf_fails() {
        let nudged = f64::from_bits(1494f64.to_bits() + 1);
        let v = violations(&with("exact.never_seen.events", nudged));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("BENCH_x.json:exact.never_seen.events: deterministic"));
    }

    #[test]
    fn regressions_beyond_the_tolerance_fail() {
        assert!(violations(&with("toleranced.rate.value", 700.0)).is_empty());
        let v = violations(&with("toleranced.rate.value", 600.0));
        assert!(v.len() == 1 && v[0].contains("66.7% regression"), "{v:?}");
        let v = violations(&with("toleranced.wall_seconds.value", 0.8));
        assert!(v.len() == 1 && v[0].contains("60.0% regression"), "{v:?}");
    }

    #[test]
    fn missing_and_extra_keys_fail() {
        let differ = "toleranced names, directions or bounds differ from the baseline's";
        for (map, missing, extra) in [
            ("exact", "missing from fresh", "not present in baseline"),
            (
                "exact.never_seen",
                "missing from fresh",
                "not present in baseline",
            ),
            ("toleranced", differ, differ),
        ] {
            let mut fresh = synthetic();
            fields(&mut fresh, map).remove(0);
            let v = violations(&fresh);
            assert!(v.iter().any(|m| m.contains(missing)), "{map}: {v:?}");
            let mut fresh = synthetic();
            let row = json::obj([("value", 1.0.into()), ("better", "lower".into())]);
            fields(&mut fresh, map).push(("extra".to_owned(), row));
            let v = violations(&fresh);
            assert!(v.iter().any(|m| m.contains(extra)), "{map}: {v:?}");
        }
    }

    #[test]
    fn every_kind_of_bound_fails_when_broken() {
        let cases = [
            (
                "toleranced.rate.value",
                150.0,
                "150 breaks the bound >= 200",
            ),
            (
                "toleranced.wall_seconds.value",
                1.0,
                "1 breaks the bound < 1",
            ),
            ("exact.speedup", 1.0, "1 breaks the bound > 1"),
            ("exact.counterexamples", 1.0, "1 breaks the bound == 0"),
        ];
        for (path, value, message) in cases {
            let fresh = with(path, value);
            let mut gate = Gate::new(100.0, 0.5);
            gate.compare("BENCH_x.json", &synthetic(), &fresh).unwrap();
            let broken: Vec<_> = gate
                .violations
                .iter()
                .filter(|m| m.contains("bound"))
                .collect();
            assert_eq!(broken, [&format!("BENCH_x.json:{path}: {message}")]);
        }
        // A zero floor scale skips the scaled floor and only it.
        let mut gate = Gate::new(100.0, 0.0);
        gate.compare(
            "BENCH_x.json",
            &synthetic(),
            &with("toleranced.rate.value", 100.0),
        )
        .unwrap();
        assert!(gate.violations.is_empty(), "{:?}", gate.violations);
        assert_eq!(gate.checks, 13);
    }

    #[test]
    fn a_collapsed_measurement_fails_and_a_zero_baseline_is_malformed() {
        let mut gate = Gate::new(0.5, 0.0);
        let fresh = with("toleranced.rate.value", 0.0);
        gate.compare("BENCH_x.json", &synthetic(), &fresh).unwrap();
        assert!(gate.violations[0].contains("missing or not positive"));
        let err = gate
            .compare("BENCH_x.json", &fresh, &synthetic())
            .unwrap_err();
        assert!(err.contains("malformed baseline"), "{err}");
    }

    #[test]
    fn rules_that_differ_from_the_baseline_fail() {
        let differ =
            ["BENCH_x.json: toleranced names, directions or bounds differ from the baseline's"];
        assert_eq!(violations(&with("toleranced.rate.better", "lower")), differ);
        let mut loosened = synthetic();
        let speedup = &mut fields(&mut loosened, "bounds")[2].1;
        *at(speedup, "limit") = 0.5.into();
        assert_eq!(violations(&loosened), differ);
    }

    #[test]
    fn committed_baselines_are_byte_stable_and_pass_against_themselves() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline");
        for file in ["hetero", "netsim", "plansynth", "resilience"] {
            let file = format!("BENCH_{file}.json");
            let text = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
            let doc = json::parse(&text).unwrap();
            assert_eq!(json::write(&doc), text, "{file} is not in writer form");
            let mut gate = Gate::new(0.0, 1.0);
            gate.compare(&file, &doc, &doc).unwrap();
            assert!(gate.violations.is_empty(), "{file}: {:?}", gate.violations);
        }
    }
}
