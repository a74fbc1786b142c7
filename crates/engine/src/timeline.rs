//! Execution timelines: per-device op spans recorded by the executor.
//!
//! A timeline makes the simulated iteration *inspectable*: pipeline
//! bubbles, exposed communication and overlap windows become visible.
//! An observed run copies the spans into the session's merged trace
//! ([`holmes_obs::TraceSink::to_chrome_trace`]), one track per device.

use holmes_topology::Rank;

use crate::executor::CollKind;
use crate::ops::ComputeLabel;

/// What a recorded span was doing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// A compute op.
    Compute(ComputeLabel),
    /// Blocked receiving a pipeline message.
    RecvWait,
    /// Blocked waiting for a collective.
    CollWait(CollKind),
}

impl SpanKind {
    /// Display name for trace viewers.
    pub fn name(&self) -> String {
        match self {
            SpanKind::Compute(ComputeLabel::Forward { microbatch }) => format!("F{microbatch}"),
            SpanKind::Compute(ComputeLabel::Backward { microbatch }) => format!("B{microbatch}"),
            SpanKind::Compute(ComputeLabel::BackwardChunk { microbatch, chunk }) => {
                format!("B{microbatch}.{chunk}")
            }
            SpanKind::Compute(ComputeLabel::Optimizer) => "optimizer".to_owned(),
            SpanKind::RecvWait => "recv-wait".to_owned(),
            SpanKind::CollWait(CollKind::AllReduce) => "allreduce-wait".to_owned(),
            SpanKind::CollWait(CollKind::TreeAllReduce) => "tree-allreduce-wait".to_owned(),
            SpanKind::CollWait(CollKind::ReduceScatter) => "reduce-scatter-wait".to_owned(),
            SpanKind::CollWait(CollKind::AllGather) => "all-gather-wait".to_owned(),
            SpanKind::CollWait(CollKind::Broadcast) => "broadcast-wait".to_owned(),
            SpanKind::CollWait(CollKind::HierarchicalAllReduce) => "hier-allreduce-wait".to_owned(),
            SpanKind::CollWait(CollKind::PsPush { .. }) => "ps-push-wait".to_owned(),
            SpanKind::CollWait(CollKind::PsPull { .. }) => "ps-pull-wait".to_owned(),
        }
    }

    /// Trace category (colours spans by class in viewers).
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Compute(ComputeLabel::Optimizer) => "optimizer",
            SpanKind::Compute(l) if l.is_backward() => "backward",
            SpanKind::Compute(_) => "forward",
            SpanKind::RecvWait => "pipeline-wait",
            SpanKind::CollWait(_) => "collective-wait",
        }
    }
}

/// One recorded span on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Device the span ran on.
    pub device: Rank,
    /// What it was.
    pub kind: SpanKind,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
}

impl Span {
    /// Span duration in seconds.
    #[inline]
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A full execution timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// All spans, in completion order.
    pub spans: Vec<Span>,
}

impl Timeline {
    /// Spans of one device, in time order.
    pub fn device_spans(&self, device: Rank) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .spans
            .iter()
            .copied()
            .filter(|s| s.device == device)
            .collect();
        spans.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        spans
    }

    /// Total busy (non-wait) seconds of a device.
    pub fn device_busy_seconds(&self, device: Rank) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.device == device && matches!(s.kind, SpanKind::Compute(_)))
            .map(Span::seconds)
            .sum()
    }

    /// Fraction of `[0, horizon]` a device spends waiting (the bubble +
    /// exposed-communication fraction).
    pub fn device_wait_fraction(&self, device: Rank, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        let busy = self.device_busy_seconds(device);
        ((horizon - busy) / horizon).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(device: u32, kind: SpanKind, start: f64, end: f64) -> Span {
        Span {
            device: Rank(device),
            kind,
            start,
            end,
        }
    }

    fn fwd(mb: u32) -> SpanKind {
        SpanKind::Compute(ComputeLabel::Forward { microbatch: mb })
    }

    #[test]
    fn device_spans_are_filtered_and_sorted() {
        let tl = Timeline {
            spans: vec![
                span(1, fwd(1), 2.0, 3.0),
                span(0, fwd(0), 0.0, 1.0),
                span(1, fwd(0), 0.0, 1.0),
            ],
        };
        let d1 = tl.device_spans(Rank(1));
        assert_eq!(d1.len(), 2);
        assert!(d1[0].start <= d1[1].start);
    }

    #[test]
    fn busy_excludes_waits() {
        let tl = Timeline {
            spans: vec![
                span(0, fwd(0), 0.0, 1.0),
                span(0, SpanKind::RecvWait, 1.0, 3.0),
                span(0, SpanKind::Compute(ComputeLabel::Optimizer), 3.0, 3.5),
            ],
        };
        assert!((tl.device_busy_seconds(Rank(0)) - 1.5).abs() < 1e-12);
        assert!((tl.device_wait_fraction(Rank(0), 3.5) - 2.0 / 3.5).abs() < 1e-12);
        assert_eq!(tl.device_wait_fraction(Rank(0), 0.0), 0.0);
    }

    #[test]
    fn span_names_and_categories() {
        assert_eq!(fwd(7).name(), "F7");
        assert_eq!(
            SpanKind::Compute(ComputeLabel::BackwardChunk {
                microbatch: 2,
                chunk: 3
            })
            .name(),
            "B2.3"
        );
        assert_eq!(fwd(0).category(), "forward");
        assert_eq!(
            SpanKind::Compute(ComputeLabel::Backward { microbatch: 0 }).category(),
            "backward"
        );
        assert_eq!(SpanKind::RecvWait.category(), "pipeline-wait");
    }
}
