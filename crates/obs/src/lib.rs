//! # holmes-obs
//!
//! Unified, deterministic observability layer shared by the whole Holmes
//! stack (netsim / engine / parallel / core / bench).
//!
//! The paper's evaluation (§4) attributes iteration time to specific
//! causes — pipeline bubbles, exposed communication, slow-NIC DP groups.
//! Making that attribution possible across *every* layer requires one
//! sink type the layers agree on. This crate provides it, under two hard
//! constraints inherited from the rest of the workspace:
//!
//! * **Determinism.** Nothing here reads a wall clock or iterates an
//!   unordered map: exports are byte-identical across runs and machines
//!   for identical inputs, so CI can diff them exactly
//!   (`holmes-bench --bin bench_diff`). The determinism lint's clippy
//!   rules (DESIGN.md §8) hold this crate to that like the simulator.
//! * **Invisible to the run.** Instrumented code paths take the sink as
//!   an `Option` and only read simulation state, so an observed run
//!   performs exactly the events and float arithmetic of an un-observed
//!   one.
//!
//! Components:
//!
//! * [`Registry`] — counters, gauges and fixed-bucket [`Histogram`]s with
//!   a stable, BTreeMap-ordered JSON text export.
//! * [`TraceSink`] — cross-layer span/instant sink. Engine op spans,
//!   netsim flow/link spans and parallel planning events merge into one
//!   Chrome-trace / Perfetto file ([`TraceSink::to_chrome_trace`]) and a
//!   JSONL event log ([`TraceSink::to_jsonl`]), one process per
//!   [`Layer`].
//! * [`ObsSession`] — the `(Registry, TraceSink)` pair threaded through
//!   the stack's run entry points as `obs: Option<&mut ObsSession>`.
//! * [`ObsReport`] — the per-run structured-metrics snapshot the bench
//!   bins embed in `BENCH_netsim.json` / `BENCH_resilience.json`.
//! * [`json`] — a minimal hand-rolled JSON value tree, writer and parser
//!   (the workspace has no serde): every BENCH snapshot and registry
//!   export is written by it, and the bench-gate differ reads them back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod registry;
mod trace;

pub use registry::{Histogram, Registry};
pub use trace::{Layer, TraceInstant, TraceSink, TraceSpan};

/// The one sink type threaded through the stack: deterministic metrics
/// plus the cross-layer trace.
#[derive(Debug, Clone, Default)]
pub struct ObsSession {
    /// Counters / gauges / histograms.
    pub registry: Registry,
    /// Spans and instant events.
    pub trace: TraceSink,
}

impl ObsSession {
    /// A fresh, empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the metrics into an [`ObsReport`] (the trace is not part
    /// of the report — bench artifacts carry metrics, workflows upload
    /// the trace file separately).
    pub fn report(&self) -> ObsReport {
        ObsReport {
            metrics: self.registry.clone(),
        }
    }
}

/// Structured-metrics snapshot of one observed run, embedded by the
/// bench bins so CI can diff metric-by-metric instead of wall-clock-only.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// The deterministic metrics registry captured at the end of the run.
    pub metrics: Registry,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_report_snapshots_the_registry() {
        let mut s = ObsSession::new();
        s.registry.counter_add("a.b", 3);
        let report = s.report();
        assert_eq!(report.metrics.counter("a.b"), 3);
        // Snapshot, not a view: later increments don't retro-apply.
        s.registry.counter_add("a.b", 1);
        assert_eq!(report.metrics.counter("a.b"), 3);
    }
}
