//! Deterministic metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! Everything is keyed and exported in `BTreeMap` order, values are
//! integers or exact `f64` debug renderings, and nothing ever reads a
//! wall clock — two runs over the same inputs export byte-identical
//! JSON, which is what lets CI diff metrics exactly.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`; one final overflow bucket catches everything above the
/// last bound. Bounds are fixed at registration so the bucket layout —
/// and therefore the export — cannot depend on the observed data.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bucket edges, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`
    /// (the last entry is the overflow bucket).
    counts: Vec<u64>,
    /// Total observations.
    count: u64,
    /// Sum of observed values.
    sum: f64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bucket edges.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Fold another histogram's observations into this one.
    ///
    /// # Panics
    /// Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds.len(),
            other.bounds.len(),
            "histogram merge requires identical bucket layouts"
        );
        debug_assert!(self
            .bounds
            .iter()
            .zip(&other.bounds)
            .all(|(a, b)| (a - b).abs() <= f64::EPSILON * a.abs().max(b.abs()).max(1.0)));
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Default histogram bounds (seconds-scale quantities): powers of ten
/// from a microsecond to a kilosecond.
pub(crate) const DEFAULT_BOUNDS: &[f64] =
    &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3];

/// The metrics registry: named counters, gauges and histograms.
///
/// ```
/// use holmes_obs::Registry;
///
/// let mut r = Registry::default();
/// r.counter_add("netsim.flows_completed", 3);
/// r.gauge_set("engine.total_seconds", 1.25);
/// r.observe_default("engine.coll.wall_seconds", 0.004);
/// let json = r.to_json();
/// assert!(json.contains("\"netsim.flows_completed\": 3"));
/// assert_eq!(json, r.to_json(), "export is deterministic");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add `delta` to a named counter (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Current value of a counter (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a named gauge to an absolute value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Register a histogram with explicit bucket bounds. Re-registering
    /// an existing name keeps the original (observations survive).
    pub fn register_histogram(&mut self, name: &str, bounds: &[f64]) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Record an observation into a registered histogram, registering it
    /// with `DEFAULT_BOUNDS`-style decade buckets on first use.
    pub fn observe_default(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(DEFAULT_BOUNDS))
            .observe(value);
    }

    /// A registered histogram, by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold another registry into this one: counters and histogram
    /// buckets add, gauges overwrite (last writer wins).
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// The registry as a JSON tree: `counters`, `gauges` and `histograms`
    /// objects, keys in `BTreeMap` order, so the tree is a pure function
    /// of the recorded values.
    pub fn to_value(&self) -> Value {
        let histograms = self.histograms.iter().map(|(name, h)| {
            let fields = [
                ("bounds", h.bounds.clone().into()),
                ("counts", h.counts.clone().into()),
                ("count", h.count.into()),
                ("sum", h.sum.into()),
            ];
            (name.clone(), json::obj(fields))
        });
        json::obj([
            ("counters", named(&self.counters, |&c| c.into())),
            ("gauges", named(&self.gauges, |&g| g.into())),
            ("histograms", Value::Obj(histograms.collect())),
        ])
    }

    /// Deterministic JSON text export: [`json::write`] of
    /// [`Registry::to_value`].
    pub fn to_json(&self) -> String {
        json::write(&self.to_value())
    }
}

fn named<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> Value) -> Value {
    Value::Obj(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("x"), 0);
        r.counter_add("x", 2);
        r.counter_add("x", 3);
        assert_eq!(r.counter("x"), 5);
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_edge() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0 (inclusive)
        h.observe(5.0); // bucket 1
        h.observe(50.0); // overflow
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 56.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_bounds_are_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.observe_default("h", 0.5);
        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.observe_default("h", 2.0);
        b.gauge_set("g", 7.5);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), Some(7.5));
    }

    #[test]
    fn export_is_parseable_and_ordered() {
        let mut r = Registry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.gauge_set("mid", -0.25);
        let text = r.to_json();
        let a = text.find("a.first").unwrap();
        let z = text.find("z.last").unwrap();
        assert!(a < z, "keys must export in BTreeMap order");
        let v = json::parse(&text).expect("export parses");
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("a.first").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            v.get("gauges").unwrap().get("mid").and_then(Value::as_f64),
            Some(-0.25)
        );
    }

    /// Satellite: histogram bucket boundaries survive a JSON round trip.
    #[test]
    fn histogram_bounds_round_trip_through_json() {
        let bounds = [1e-6, 0.001, 0.1, 1.0, 2.5, 1e3];
        let mut r = Registry::new();
        r.register_histogram("rt", &bounds);
        for v in [0.0005, 0.05, 0.5, 2.0, 999.0, 1e6] {
            r.observe_default("rt", v); // existing bounds win
        }
        let text = r.to_json();
        let v = json::parse(&text).expect("parse");
        let h = v.get("histograms").unwrap().get("rt").unwrap();
        let parsed_bounds: Vec<f64> = h
            .get("bounds")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|b| b.as_f64().unwrap())
            .collect();
        // Bit-exact: `{:?}` emits the shortest string that parses back to
        // the same f64, and the parser folds digits through `str::parse`.
        assert_eq!(parsed_bounds.len(), bounds.len());
        for (p, b) in parsed_bounds.iter().zip(&bounds) {
            assert_eq!(p.to_bits(), b.to_bits(), "{p} vs {b}");
        }
        let counts: Vec<f64> = h
            .get("counts")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|c| c.as_f64().unwrap())
            .collect();
        assert_eq!(counts, vec![0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
    }
}
