//! Conversion of executor results into the unified observability session.
//!
//! The engine is the layer where the stack's traces meet: the executor's
//! own per-device [`crate::timeline::Timeline`] spans and the simulator's
//! flow-level records ([`holmes_netsim::obs`]) both land here and are
//! folded into one [`ObsSession`] — engine spans under [`Layer::Engine`]
//! (one trace thread per device rank), netsim flows/links/parks under
//! [`Layer::Netsim`].
//!
//! Determinism note: [`crate::IterationReport`] stores per-kind
//! collective data in `HashMap`s, so everything here iterates kinds in
//! name-sorted order before touching the registry — float summation
//! order inside histograms must not depend on hash iteration.

use holmes_netsim::obs::{FlowOutcome, NetObsReport};
use holmes_obs::{Layer, ObsSession};

use crate::executor::IterationReport;

/// Trace-thread offset separating per-flow rows from per-link rows inside
/// the netsim layer (flows get `FLOW_TRACK_BASE + flow id`, link busy
/// windows get the raw link id). Flows overlap each other in time, so
/// each needs its own row; busy windows are non-overlapping per link by
/// construction (edge-triggered on the active-flow count).
const FLOW_TRACK_BASE: u64 = 10_000;

/// Fold one execution's outputs into the session, its fault counters
/// first (each added when non-zero). `report` is `None` when the run
/// failed (fault-degraded executions still contribute their counters and
/// netsim records); `net` is `None` when the simulator ran unobserved.
pub(crate) fn record_execution(
    session: &mut ObsSession,
    (retries, fallbacks): (u64, u64),
    report: Option<&IterationReport>,
    net: Option<&NetObsReport>,
) {
    if retries > 0 {
        session.registry.counter_add("engine.flow_retries", retries);
    }
    if fallbacks > 0 {
        session
            .registry
            .counter_add("engine.tcp_fallback_flows", fallbacks);
    }
    if let Some(report) = report {
        record_report(session, report);
    }
    if let Some(net) = net {
        record_netsim(session, net);
    }
}

fn record_report(session: &mut ObsSession, report: &IterationReport) {
    let reg = &mut session.registry;
    reg.gauge_set("engine.total_seconds", report.total_seconds);
    reg.gauge_set("engine.forward_seconds_max", report.forward_seconds_max);
    reg.gauge_set("engine.backward_seconds_max", report.backward_seconds_max);
    reg.gauge_set("engine.optimizer_seconds_max", report.optimizer_seconds_max);
    reg.counter_add("engine.devices", report.device_finish_seconds.len() as u64);
    reg.counter_add("engine.timeline_spans", report.timeline.spans.len() as u64);
    reg.counter_add("engine.fault_windows", report.fault_windows.len() as u64);
    reg.counter_add(
        "engine.degraded_conditions",
        report.degraded_conditions.len() as u64,
    );
    reg.counter_add("netsim.events", report.events);
    reg.counter_add("netsim.flows", report.flows);

    // Per-kind collective counts plus one wall-seconds histogram, kinds
    // visited in name order: the histogram's sum depends on the order.
    let mut kinds: Vec<_> = report.collective_wall_seconds.iter().collect();
    kinds.sort_by_key(|(k, _)| format!("{k:?}"));
    for (kind, walls) in kinds {
        reg.counter_add(&format!("engine.coll.{kind:?}"), walls.len() as u64);
        for w in walls {
            reg.observe_default("engine.coll_wall_seconds", *w);
        }
    }

    for span in &report.timeline.spans {
        session.trace.span(
            Layer::Engine,
            u64::from(span.device.0),
            span.kind.name(),
            span.kind.category(),
            span.start,
            span.end,
        );
    }
    for w in &report.fault_windows {
        session.trace.span_with_args(
            Layer::Netsim,
            u64::from(w.link.0),
            format!("fault {:?}", w.health),
            "netsim-fault",
            w.start_seconds,
            w.end_seconds,
            vec![("link".to_owned(), format!("{}", w.link.0))],
        );
    }
}

fn record_netsim(session: &mut ObsSession, net: &NetObsReport) {
    let reg = &mut session.registry;
    reg.counter_add(
        "netsim.flows_finished",
        net.flows_with_outcome(FlowOutcome::Finished) as u64,
    );
    reg.counter_add(
        "netsim.flows_cancelled",
        net.flows_with_outcome(FlowOutcome::Cancelled) as u64,
    );
    reg.counter_add("netsim.flow_parks", net.parks() as u64);
    reg.counter_add("netsim.link_busy_windows", net.link_windows.len() as u64);

    for f in &net.flows {
        let seconds = f.end.as_secs_f64() - f.start.as_secs_f64();
        reg.observe_default("netsim.flow_seconds", seconds);
        let outcome = match f.outcome {
            FlowOutcome::Finished => "finished",
            FlowOutcome::Cancelled => "cancelled",
            FlowOutcome::InFlight => "in-flight",
        };
        session.trace.span_with_args(
            Layer::Netsim,
            FLOW_TRACK_BASE + f.id.0,
            format!("flow#{} tok={}", f.id.0, f.token),
            "netsim-flow",
            f.start.as_secs_f64(),
            f.end.as_secs_f64(),
            vec![
                ("bytes".to_owned(), format!("{}", f.bytes)),
                ("outcome".to_owned(), format!("\"{outcome}\"")),
            ],
        );
    }
    for w in &net.link_windows {
        session.trace.span_with_args(
            Layer::Netsim,
            u64::from(w.link.0),
            format!("link#{} busy", w.link.0),
            "netsim-link",
            w.start.as_secs_f64(),
            w.end.as_secs_f64(),
            vec![("bytes".to_owned(), format!("{:.0}", w.bytes))],
        );
    }
    for p in &net.park_events {
        session.trace.instant(
            Layer::Netsim,
            FLOW_TRACK_BASE + p.flow.0,
            if p.parked {
                format!("park tok={}", p.token)
            } else {
                format!("resume tok={}", p.token)
            },
            if p.parked {
                "netsim-park"
            } else {
                "netsim-resume"
            },
            p.at.as_secs_f64(),
        );
    }
}
