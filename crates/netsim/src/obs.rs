//! Flow-level observability records for [`crate::NetSim`].
//!
//! When enabled via [`crate::NetSim::enable_obs`], the simulator keeps a
//! record per activated logical flow (start → finish/cancel; a counted
//! entry of [`crate::FlowSpec::count`] flows expands into that many
//! identical records, and its park/resume instants likewise), an
//! edge-triggered
//! busy window per link (opened when the link's active-flow count leaves
//! zero, closed when it returns to zero, carrying the bytes moved over
//! the window), and an instant per park/resume transition of a flow
//! stalled on a dead link.
//!
//! These are plain data — the crate deliberately does not depend on the
//! sink types in `holmes-obs`; the engine layer converts records into
//! trace spans when it merges the layers. Everything is collected in
//! deterministic (flow-id / event) order by read-only hooks in the
//! engine, so observed and un-observed runs schedule identical events.

use std::collections::{BTreeMap, BTreeSet};

use crate::flow::FlowId;
use crate::link::LinkId;
use crate::time::SimTime;

/// How an observed flow left the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Delivered a [`crate::Completion::Flow`].
    Finished,
    /// Removed via [`crate::NetSim::cancel_flow`] while active.
    Cancelled,
    /// Still active when the report was taken.
    InFlight,
}

/// One activated flow's lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Simulator flow id.
    pub id: FlowId,
    /// Caller token from the [`crate::FlowSpec`].
    pub token: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// First link of the path, when the flow has one (used as the trace
    /// track so flows group by the link they enter the fabric on).
    pub first_link: Option<LinkId>,
    /// Activation time (end of the latency phase).
    pub start: SimTime,
    /// Finish / cancel / report time depending on `outcome`.
    pub end: SimTime,
    /// How the flow ended.
    pub outcome: FlowOutcome,
}

/// One contiguous busy window of a link: the span between its active-flow
/// count leaving and returning to zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkWindow {
    /// The link.
    pub link: LinkId,
    /// Window open (count 0 → 1).
    pub start: SimTime,
    /// Window close (count → 0, or report time for still-open windows).
    pub end: SimTime,
    /// Bytes attributed to the link within the window.
    pub bytes: f64,
}

/// A park or resume transition of a flow stalled on a dead link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkEvent {
    /// The flow.
    pub flow: FlowId,
    /// Its caller token.
    pub token: u64,
    /// When the transition was observed.
    pub at: SimTime,
    /// `true` for park (rate dropped to zero), `false` for resume.
    pub parked: bool,
}

/// Everything collected by an observed run, returned by
/// [`crate::NetSim::take_obs`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetObsReport {
    /// Per-flow lifetimes, in completion order (in-flight flows last, in
    /// id order).
    pub flows: Vec<FlowRecord>,
    /// Per-link busy windows, in close order (still-open windows last,
    /// in link order).
    pub link_windows: Vec<LinkWindow>,
    /// Park/resume instants, in observation order.
    pub park_events: Vec<ParkEvent>,
}

impl NetObsReport {
    /// Number of recorded flows with the given outcome.
    pub fn flows_with_outcome(&self, outcome: FlowOutcome) -> usize {
        self.flows.iter().filter(|f| f.outcome == outcome).count()
    }

    /// Number of park transitions (excluding resumes).
    pub fn parks(&self) -> usize {
        self.park_events.iter().filter(|p| p.parked).count()
    }
}

/// Internal collector owned by the simulator while observation is on.
#[derive(Debug, Default)]
pub(crate) struct NetObsState {
    /// Flow entries activated but not yet finished/cancelled, with the
    /// number of logical flows each stands for.
    open_flows: BTreeMap<FlowId, (FlowRecord, u32)>,
    /// Closed flow records, completion order.
    closed_flows: Vec<FlowRecord>,
    /// Links with an open busy window: `(opened_at, bytes_at_open)`.
    open_windows: BTreeMap<LinkId, (SimTime, f64)>,
    /// Closed busy windows, close order.
    closed_windows: Vec<LinkWindow>,
    /// Flows currently observed at rate zero.
    parked: BTreeSet<FlowId>,
    /// Park/resume instants, observation order.
    park_events: Vec<ParkEvent>,
}

impl NetObsState {
    pub(crate) fn on_flow_activated(
        &mut self,
        id: FlowId,
        token: u64,
        count: u32,
        bytes: u64,
        first_link: Option<LinkId>,
        now: SimTime,
    ) {
        let rec = FlowRecord {
            id,
            token,
            bytes,
            first_link,
            start: now,
            end: now,
            outcome: FlowOutcome::InFlight,
        };
        self.open_flows.insert(id, (rec, count));
    }

    pub(crate) fn on_flow_closed(&mut self, id: FlowId, now: SimTime, outcome: FlowOutcome) {
        if let Some((mut rec, count)) = self.open_flows.remove(&id) {
            rec.end = now;
            rec.outcome = outcome;
            push_copies(&mut self.closed_flows, rec, count);
        }
        self.parked.remove(&id);
    }

    pub(crate) fn on_link_window_opened(&mut self, link: LinkId, now: SimTime, bytes_so_far: f64) {
        self.open_windows.insert(link, (now, bytes_so_far));
    }

    pub(crate) fn on_link_window_closed(&mut self, link: LinkId, now: SimTime, bytes_so_far: f64) {
        if let Some((start, bytes_at_open)) = self.open_windows.remove(&link) {
            self.closed_windows.push(LinkWindow {
                link,
                start,
                end: now,
                bytes: bytes_so_far - bytes_at_open,
            });
        }
    }

    /// Record a park/resume transition for entry `id` (`count` logical
    /// flows) given its current rate.
    pub(crate) fn on_flow_rate(
        &mut self,
        id: FlowId,
        token: u64,
        count: u32,
        rate: f64,
        now: SimTime,
    ) {
        let is_parked = rate <= 0.0;
        let transition = if is_parked {
            self.parked.insert(id)
        } else {
            self.parked.remove(&id)
        };
        if transition {
            let event = ParkEvent {
                flow: id,
                token,
                at: now,
                parked: is_parked,
            };
            push_copies(&mut self.park_events, event, count);
        }
    }

    /// Drain into the public report, closing whatever is still open at
    /// `now`.
    pub(crate) fn into_report(mut self, now: SimTime, link_bytes: &[f64]) -> NetObsReport {
        let mut flows = std::mem::take(&mut self.closed_flows);
        for (_, (mut rec, count)) in std::mem::take(&mut self.open_flows) {
            rec.end = now;
            push_copies(&mut flows, rec, count);
        }
        let mut link_windows = std::mem::take(&mut self.closed_windows);
        for (link, (start, bytes_at_open)) in std::mem::take(&mut self.open_windows) {
            let bytes_so_far = link_bytes.get(link.0 as usize).copied().unwrap_or(0.0);
            link_windows.push(LinkWindow {
                link,
                start,
                end: now,
                bytes: bytes_so_far - bytes_at_open,
            });
        }
        NetObsReport {
            flows,
            link_windows,
            park_events: self.park_events,
        }
    }
}

/// Push `count` copies of `item`: one per logical flow of an entry.
fn push_copies<T: Clone>(out: &mut Vec<T>, item: T, count: u32) {
    out.extend(std::iter::repeat_n(item, count as usize));
}
