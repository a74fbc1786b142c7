//! Spans around layer calls, recorded from outside the library.
//!
//! `layers.rs` is generic over [`Recorder`]. The timed run passes
//! [`NoTrace`], whose `span` is a plain call, so the end-to-end numbers
//! carry nothing but the whole-query timer. The traced run passes a
//! [`Trace`], which keeps every span in memory: one root `query` span per
//! query (its id, workload and input label), one child per layer call,
//! plus `probe` roots for work replayed outside the query's own time.
//! The spans are written as a Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::clock::cpu_seconds;

/// Receives the spans and counters a query produces.
pub trait Recorder {
    /// True for the traced run: queries then also run the verifiers,
    /// which are not on the release path today.
    const TRACED: bool;

    /// Run `f` as one call into the layer `name` (`<layer>.<call>`).
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;

    /// Add `value` to the work counter `name`.
    fn count(&mut self, name: &'static str, value: u64);
}

/// The timed run's recorder: records nothing.
pub struct NoTrace;

impl Recorder for NoTrace {
    const TRACED: bool = false;

    #[inline(always)]
    fn span<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }

    #[inline(always)]
    fn count(&mut self, _name: &'static str, _value: u64) {}
}

/// Name of the root span around one whole query.
pub const QUERY: &str = "query";
/// Name of a root span around work replayed outside any query's time.
pub const PROBE: &str = "probe";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Index of the enclosing span; `None` for roots.
    parent: Option<usize>,
    /// Index of the root this span hangs under (itself for roots).
    root: usize,
    query: usize,
    start_ns: u64,
    dur_ns: u64,
}

/// Sums over a trace's spans, split by the kind of root they hang under.
#[derive(Debug, Default)]
pub struct Totals {
    /// Number of query roots.
    pub queries: u64,
    /// Summed duration of the query roots.
    pub query_ns: u64,
    /// Summed duration of each layer call inside queries, by span name.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Summed self time of every layer call inside queries.
    pub layer_self_ns: u64,
    /// Summed duration of each call inside probes, by span name.
    pub probe_ns: BTreeMap<&'static str, u64>,
    /// Work counters.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Totals {
    /// Summed duration of the layer calls named `name`, in seconds.
    pub fn layer_s(&self, name: &str) -> f64 {
        self.layer_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Summed duration of the probe calls named `name`, in seconds.
    pub fn probe_s(&self, name: &str) -> f64 {
        self.probe_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Summed duration of every layer call of `layer` (`<layer>.*`).
    pub fn layer_prefix_s(&self, layer: &str) -> f64 {
        self.layer_ns
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, &ns)| ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The traced run's recorder.
pub struct Trace {
    /// Process CPU seconds when the trace began; span times are CPU
    /// nanoseconds since then.
    epoch: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Input label of each query, indexed by query id.
    labels: Vec<String>,
    counters: BTreeMap<&'static str, u64>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: cpu_seconds(),
            spans: Vec::new(),
            open: Vec::new(),
            labels: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        ((cpu_seconds() - self.epoch) * 1e9) as u64
    }

    fn begin(&mut self, name: &'static str) {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(index, |p| self.spans[p].root);
        let query = self.labels.len().saturating_sub(1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            root,
            query,
            start_ns,
            dur_ns: 0,
        });
        self.open.push(index);
    }

    fn end(&mut self) {
        if let Some(index) = self.open.pop() {
            let now = self.now_ns();
            let span = &mut self.spans[index];
            span.dur_ns = now.saturating_sub(span.start_ns);
        }
    }

    /// Open the root span of a new query.
    pub fn begin_query(&mut self, label: String) {
        self.close_all();
        self.labels.push(label);
        self.begin(QUERY);
    }

    /// Open a probe root for the current query.
    pub fn begin_probe(&mut self) {
        self.close_all();
        self.begin(PROBE);
    }

    /// Close every open span, innermost first. A query that panicked
    /// leaves its spans open; they end here.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Each span's duration minus the durations of its direct children.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.dur_ns);
            }
        }
        own
    }

    pub fn totals(&self) -> Totals {
        let own = self.self_times();
        let mut t = Totals {
            counters: self.counters.clone(),
            ..Totals::default()
        };
        for (span, &self_ns) in self.spans.iter().zip(&own) {
            let in_query = self.spans[span.root].name == QUERY;
            match (span.parent, in_query) {
                (None, true) => {
                    t.queries += 1;
                    t.query_ns += span.dur_ns;
                }
                (None, false) => {}
                (Some(_), true) => {
                    *t.layer_ns.entry(span.name).or_default() += span.dur_ns;
                    t.layer_self_ns += self_ns;
                }
                (Some(_), false) => *t.probe_ns.entry(span.name).or_default() += span.dur_ns,
            }
        }
        t
    }

    /// Write every span as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let cat = span.name.split('.').next().unwrap_or(span.name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"query\":{}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.query
            );
            if span.parent.is_none() {
                let _ = write!(
                    out,
                    ",\"workload\":\"{workload}\",\"input\":\"{}\"",
                    escape(&self.labels[span.query])
                );
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Recorder for Trace {
    const TRACED: bool = true;

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    fn count(&mut self, name: &'static str, value: u64) {
        *self.counters.entry(name).or_default() += value;
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, root: usize, dur_ns: u64) -> Span {
        Span {
            name,
            parent,
            root,
            query: 0,
            start_ns: 0,
            dur_ns,
        }
    }

    fn trace_of(spans: Vec<Span>) -> Trace {
        let mut t = Trace::new();
        t.labels.push("input".to_owned());
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // query 100 = plan 30 + execute 50 (of which 20 is a nested call).
        let t = trace_of(vec![
            span(QUERY, None, 0, 100),
            span("core.plan_for", Some(0), 0, 30),
            span("engine.execute", Some(0), 0, 50),
            span("netsim.drain", Some(2), 0, 20),
        ]);
        assert_eq!(t.self_times(), vec![20, 30, 30, 20]);
        let totals = t.totals();
        assert_eq!(totals.queries, 1);
        assert_eq!(totals.query_ns, 100);
        assert_eq!(totals.layer_self_ns, 80);
        assert_eq!(totals.layer_ns["engine.execute"], 50);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // Clock granularity can make children sum past their parent.
        let t = trace_of(vec![span(QUERY, None, 0, 10), span("a.b", Some(0), 0, 11)]);
        assert_eq!(t.self_times(), vec![0, 11]);
    }

    #[test]
    fn probes_stay_out_of_query_time() {
        let t = trace_of(vec![
            span(QUERY, None, 0, 40),
            span("core.plan_for", Some(0), 0, 40),
            span(PROBE, None, 2, 35),
            span("parallel.synth", Some(2), 2, 35),
        ]);
        let totals = t.totals();
        assert_eq!(totals.queries, 1);
        assert_eq!(totals.query_ns, 40);
        assert_eq!(totals.layer_self_ns, 40);
        assert!(!totals.layer_ns.contains_key("parallel.synth"));
        assert_eq!(totals.probe_ns["parallel.synth"], 35);
    }

    #[test]
    fn recorded_spans_nest_under_their_query() {
        let mut t = Trace::new();
        t.begin_query("a".to_owned());
        assert_eq!(t.span("core.plan_for", || 7), 7);
        t.count("engine.ops", 3);
        t.count("engine.ops", 4);
        t.begin_query("b".to_owned());
        t.span("engine.execute", || ());
        t.close_all();
        let totals = t.totals();
        assert_eq!(totals.queries, 2);
        assert_eq!(totals.counter("engine.ops"), 7);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.spans[3].query, 1);
    }
}
