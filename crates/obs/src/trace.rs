//! Cross-layer span/event sink and its Chrome-trace / JSONL exporters.
//!
//! Every layer of the stack reports into one [`TraceSink`]: the engine's
//! per-device op spans, netsim's per-flow and per-link spans, the
//! parallel layer's planning phase events, and the core runner's
//! scenario markers. Each [`Layer`] maps to one Chrome-trace *process*
//! (pid), so the merged file opens in `chrome://tracing` / Perfetto with
//! the layers stacked as separate named process groups sharing one time
//! axis.
//!
//! Times are simulated seconds from the event clock (or, for planning
//! events that have no simulated clock, a deterministic sequence
//! counter) — never a wall clock — so two runs over the same seed export
//! byte-identical bytes.

use std::fmt::Write as _;

/// Which layer of the stack recorded an event. Doubles as the
/// Chrome-trace process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Engine executor: per-device op spans (pid 0, tid = device rank).
    Engine,
    /// Netsim: per-flow transfer spans and per-link busy windows (pid 1,
    /// tid = flow id or link id).
    Netsim,
    /// Parallel planning: candidate scoring, group formation, replans
    /// (pid 2, synthetic planning clock).
    Parallel,
    /// Core runner / resilience scenarios (pid 3).
    Core,
}

impl Layer {
    /// All layers, pid order.
    pub const ALL: [Layer; 4] = [Layer::Engine, Layer::Netsim, Layer::Parallel, Layer::Core];

    /// Chrome-trace process id.
    pub fn pid(self) -> u32 {
        match self {
            Layer::Engine => 0,
            Layer::Netsim => 1,
            Layer::Parallel => 2,
            Layer::Core => 3,
        }
    }

    /// Process name shown by trace viewers.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Netsim => "netsim",
            Layer::Parallel => "parallel",
            Layer::Core => "core",
        }
    }
}

/// One completed span (`ph:"X"` in Chrome-trace terms).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Recording layer (trace process).
    pub layer: Layer,
    /// Trace thread within the layer (device rank, flow id, link id…).
    pub track: u64,
    /// Display name.
    pub name: String,
    /// Category (viewers colour by category).
    pub cat: String,
    /// Start, simulated seconds.
    pub start_seconds: f64,
    /// End, simulated seconds.
    pub end_seconds: f64,
    /// Extra `(key, raw JSON value)` pairs for the viewer's args pane.
    pub args: Vec<(String, String)>,
}

/// One instant event (`ph:"i"`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceInstant {
    /// Recording layer (trace process).
    pub layer: Layer,
    /// Trace thread within the layer.
    pub track: u64,
    /// Display name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Time, simulated seconds (or the synthetic planning clock).
    pub at_seconds: f64,
    /// Extra `(key, raw JSON value)` pairs.
    pub args: Vec<(String, String)>,
}

/// The span/event sink all layers record into.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    /// Completed spans, in insertion order.
    pub spans: Vec<TraceSpan>,
    /// Instant events, in insertion order.
    pub instants: Vec<TraceInstant>,
    /// Synthetic clock for planning-phase events (no simulated time
    /// exists while the planner runs): each tick is one microsecond on
    /// the trace axis, assigned in deterministic emission order.
    planning_seq: u64,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed span.
    pub fn span(
        &mut self,
        layer: Layer,
        track: u64,
        name: impl Into<String>,
        cat: &str,
        start_seconds: f64,
        end_seconds: f64,
    ) {
        self.spans.push(TraceSpan {
            layer,
            track,
            name: name.into(),
            cat: cat.to_owned(),
            start_seconds,
            end_seconds,
            args: Vec::new(),
        });
    }

    /// Record a completed span with viewer args (values must already be
    /// valid JSON fragments, e.g. `123` or `"ring"`).
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the Chrome trace event fields"
    )]
    pub fn span_with_args(
        &mut self,
        layer: Layer,
        track: u64,
        name: impl Into<String>,
        cat: &str,
        start_seconds: f64,
        end_seconds: f64,
        args: Vec<(String, String)>,
    ) {
        self.spans.push(TraceSpan {
            layer,
            track,
            name: name.into(),
            cat: cat.to_owned(),
            start_seconds,
            end_seconds,
            args,
        });
    }

    /// Record an instant event at a simulated time.
    pub fn instant(
        &mut self,
        layer: Layer,
        track: u64,
        name: impl Into<String>,
        cat: &str,
        at_seconds: f64,
    ) {
        self.instants.push(TraceInstant {
            layer,
            track,
            name: name.into(),
            cat: cat.to_owned(),
            at_seconds,
            args: Vec::new(),
        });
    }

    /// Record a planning-phase event on the synthetic planning clock
    /// (one deterministic microsecond per event, in emission order).
    /// Returns the tick it was assigned.
    pub fn planning_event(
        &mut self,
        layer: Layer,
        track: u64,
        name: impl Into<String>,
        cat: &str,
        args: Vec<(String, String)>,
    ) -> u64 {
        let tick = self.planning_seq;
        self.planning_seq += 1;
        self.instants.push(TraceInstant {
            layer,
            track,
            name: name.into(),
            cat: cat.to_owned(),
            at_seconds: tick as f64 * 1e-6,
            args,
        });
        tick
    }

    /// Total recorded spans.
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Total recorded instants.
    pub fn instant_count(&self) -> u64 {
        self.instants.len() as u64
    }

    /// The distinct layers with at least one record, pid order.
    pub fn layers_present(&self) -> Vec<Layer> {
        Layer::ALL
            .into_iter()
            .filter(|&l| {
                self.spans.iter().any(|s| s.layer == l)
                    || self.instants.iter().any(|i| i.layer == l)
            })
            .collect()
    }

    /// Serialize the merged trace to Chrome tracing JSON (array-of-events
    /// format, loadable in `chrome://tracing` and Perfetto). Emits one
    /// `process_name` metadata record per present layer, then every span,
    /// then every instant, all in deterministic order; times in
    /// microseconds as the format requires.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for layer in self.layers_present() {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                layer.pid(),
                layer.name(),
            ));
        }
        for s in &self.spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{}{}}}",
                crate::json::escape(&s.name),
                crate::json::escape(&s.cat),
                s.start_seconds * 1e6,
                (s.end_seconds - s.start_seconds) * 1e6,
                s.layer.pid(),
                s.track,
                render_args(&s.args),
            ));
        }
        for i in &self.instants {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
                 \"pid\":{},\"tid\":{}{}}}",
                crate::json::escape(&i.name),
                crate::json::escape(&i.cat),
                i.at_seconds * 1e6,
                i.layer.pid(),
                i.track,
                render_args(&i.args),
            ));
        }
        let mut out = String::from("[\n");
        let n = events.len();
        for (idx, ev) in events.into_iter().enumerate() {
            let comma = if idx + 1 == n { "" } else { "," };
            let _ = writeln!(out, "{ev}{comma}");
        }
        out.push(']');
        out
    }

    /// Serialize to a JSONL event log: one JSON object per line, spans
    /// first then instants, each in insertion order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"layer\":\"{}\",\"track\":{},\"name\":\"{}\",\
                 \"cat\":\"{}\",\"start\":{:.9},\"end\":{:.9}{}}}",
                s.layer.name(),
                s.track,
                crate::json::escape(&s.name),
                crate::json::escape(&s.cat),
                s.start_seconds,
                s.end_seconds,
                render_args(&s.args),
            );
        }
        for i in &self.instants {
            let _ = writeln!(
                out,
                "{{\"type\":\"instant\",\"layer\":\"{}\",\"track\":{},\"name\":\"{}\",\
                 \"cat\":\"{}\",\"at\":{:.9}{}}}",
                i.layer.name(),
                i.track,
                crate::json::escape(&i.name),
                crate::json::escape(&i.cat),
                i.at_seconds,
                render_args(&i.args),
            );
        }
        out
    }
}

fn render_args(args: &[(String, String)]) -> String {
    if args.is_empty() {
        return String::new();
    }
    let body: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", crate::json::escape(k), v))
        .collect();
    format!(",\"args\":{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn chrome_trace_is_wellformed_and_merges_layers() {
        let mut t = TraceSink::new();
        t.span(Layer::Engine, 0, "F0", "forward", 0.0, 0.5);
        t.span_with_args(
            Layer::Netsim,
            7,
            "flow#42",
            "netsim-flow",
            0.1,
            0.4,
            vec![("bytes".to_owned(), "1024".to_owned())],
        );
        t.planning_event(Layer::Parallel, 0, "group-formed", "nic-selection", vec![]);
        let trace = t.to_chrome_trace();
        let v = json::parse(&trace).expect("valid JSON array");
        let events = v.as_array().unwrap();
        // 3 process_name metadata + 2 spans + 1 instant.
        assert_eq!(events.len(), 6);
        assert!(trace.contains("\"name\":\"netsim\""));
        assert!(trace.contains("\"pid\":2"));
        assert!(trace.contains("\"args\":{\"bytes\":1024}"));
        assert_eq!(
            t.layers_present(),
            vec![Layer::Engine, Layer::Netsim, Layer::Parallel]
        );
    }

    #[test]
    fn planning_clock_ticks_deterministically() {
        let build = || {
            let mut t = TraceSink::new();
            for i in 0..5 {
                t.planning_event(Layer::Parallel, 0, format!("ev{i}"), "plan", vec![]);
            }
            t.to_chrome_trace()
        };
        assert_eq!(build(), build());
        let mut t = TraceSink::new();
        assert_eq!(t.planning_event(Layer::Parallel, 0, "a", "p", vec![]), 0);
        assert_eq!(t.planning_event(Layer::Parallel, 0, "b", "p", vec![]), 1);
    }

    #[test]
    fn jsonl_emits_one_parseable_object_per_line() {
        let mut t = TraceSink::new();
        t.span(Layer::Core, 1, "scenario", "run", 0.0, 2.0);
        t.instant(Layer::Core, 1, "fault", "resilience", 1.0);
        let log = t.to_jsonl();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = json::parse(line).expect("line parses");
            assert!(v.get("type").is_some());
        }
    }
}
