//! Equivalence proptests: the production fast engine vs `RefSim`, the
//! naive reference implementation of the same settlement specification.
//!
//! Three drivers — `NetSim`, `RefSim` and `NetSim` with observation
//! enabled — go through identical call sequences — random flow sets,
//! scheduled fault transitions (including full outages that park flows),
//! timers and timer-triggered cancellations — and must emit
//! **byte-identical completion streams**, one line per logical flow,
//! integer-nanosecond timestamps included. This pins every moving part
//! the fast engine added: the event-queue ordering, the check register,
//! component-local water-filling, bitwise-skip rate assignment, the
//! slot-indexed finish and prediction heaps, twin groups (same-instant
//! identical flows simulated as one, which `RefSim` never merges) and
//! counted entries (`FlowSpec::count` flows started, completed and
//! cancelled as one, which `RefSim` spells as that many verbatim starts)
//! — and that observing a run, or taking its report mid-run, changes
//! none of it. The fast engine also runs every scenario twice and must
//! replay the same log, membership churn included. The observed run's
//! report must also hold its record invariants (one record per activated
//! logical flow, alternating park/resume transitions).
//!
//! Generator discipline: capacities and rate caps come from
//! well-separated round sets (powers of two × 1 GB/s, halved by degraded
//! states) so that distinct water-fill constraint values are never within
//! the historical `1e-9` tie threshold of each other without being
//! exactly equal — the one regime where component-local and global
//! settlement could legitimately group rounds differently. Pathless flows
//! are components of their own whose rate is their cap, so every
//! generator gives them irrational caps ([`PATHLESS_CAPS`]).

#![allow(
    clippy::cast_possible_truncation,
    clippy::expect_used,
    reason = "test code: exact comparisons and unwrapped fixtures"
)]

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use holmes_netsim::refsim::RefSim;
use holmes_netsim::{
    ChurnKind, Completion, FlowId, FlowOutcome, FlowSpec, LinkCapacity, LinkHealth, LinkId,
    NetObsReport, NetSim, SimDuration, SimTime,
};

/// Capacities all engines pick from: powers of two in GB/s.
const CAPS: [f64; 4] = [1e9, 2e9, 4e9, 8e9];
/// Per-flow rate caps (bytes/s) of flows with a path; `INFINITY` means
/// uncapped.
const RATE_CAPS: [f64; 4] = [f64::INFINITY, 0.5e9, 1e9, 2e9];
/// Rate caps of pathless flows, which form components of their own. A
/// pathless flow's rate is its cap, so a round cap could land within the
/// `1e-9` tie threshold of a float-residue link share elsewhere (`(8 −
/// 3·(2/3))/3` against 2, `(8 − 9·0.5)/5` against 0.7). These are
/// uncapped or irrational multiples of 1 GB/s, which no share of the
/// generators' small-denominator rationals comes near.
const PATHLESS_CAPS: [f64; 3] = [
    f64::INFINITY,
    1e9 / std::f64::consts::PI,
    1e9 / std::f64::consts::E,
];
/// Health transitions faults pick from.
const HEALTHS: [LinkHealth; 4] = [
    LinkHealth::Down,
    LinkHealth::Healthy,
    LinkHealth::Degraded { fraction: 0.5 },
    LinkHealth::Degraded { fraction: 0.25 },
];

/// Timer tokens at or above this value encode "cancel flow #(token-BASE)".
const CANCEL_BASE: u64 = 1_000_000;

/// Timer token of the mid-run probe (see [`SimLike::probe`]).
const PROBE: u64 = u64::MAX;

/// Sizes twin specs pick from: zero-byte flows, and sizes shared across
/// specs, so flows that are not twins often differ only in path or cap.
const TWIN_BYTES: [u64; 5] = [0, 1_000, 3_000_000, 7_000_000, 20_000_000];
/// Latencies twin specs pick from, in µs: few enough that unrelated
/// specs often start at one instant and share an activation batch.
const TWIN_LATENCY_US: [u64; 3] = [0, 5, 20];

/// Membership transitions churn events pick from.
const CHURN_KINDS: [ChurnKind; 3] = [
    ChurnKind::NodePreempt,
    ChurnKind::NodeJoin,
    ChurnKind::NodeDrain,
];

#[derive(Debug, Clone)]
struct Scenario {
    /// Link capacity indices into `CAPS`.
    links: Vec<usize>,
    /// (bytes, latency_us, first link, second link or same, cap index,
    /// pathless die — 0 means no path) per flow.
    flows: Vec<(u64, u64, usize, usize, usize, usize)>,
    /// (at_us, link, health index) per scheduled fault.
    faults: Vec<(u64, usize, usize)>,
    /// (delay_us, flow index) — a timer that cancels the flow when it
    /// fires.
    cancels: Vec<(u64, usize)>,
    /// (at_us, node, kind index) per membership event; node `n` owns the
    /// scenario's links `2n` and `2n+1` (mod link count), flipped
    /// atomically by the event.
    churn: Vec<(u64, usize, usize)>,
    /// When set, a probe timer fires after this many microseconds.
    probe_us: Option<u64>,
    /// Logical flows per entry of `flows`; an entry missing here counts
    /// one.
    counts: Vec<u32>,
}

impl Scenario {
    /// Logical flows entry `i` stands for.
    fn count(&self, i: usize) -> u32 {
        self.counts.get(i).copied().unwrap_or(1)
    }
}

/// Everything the drivers do, expressed over the common sim surface.
trait SimLike {
    /// The probe timer fired: an observed `NetSim` takes its report
    /// there, ending observation mid-run; other drivers do nothing.
    fn probe(&mut self) {}
    fn add_link(&mut self, cap: LinkCapacity) -> LinkId;
    fn start_flow(&mut self, spec: FlowSpec) -> FlowId;
    /// Start a counted entry: one counted start on `NetSim`, `count`
    /// verbatim starts on `RefSim`. Returns the ids to cancel it by.
    fn start_entry(&mut self, spec: FlowSpec) -> Vec<FlowId> {
        vec![self.start_flow(spec)]
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64);
    fn schedule_fault_at(&mut self, at: SimTime, link: LinkId, health: LinkHealth);
    fn schedule_churn_at(&mut self, at: SimTime, node: u32, kind: ChurnKind, links: &[LinkId]);
    fn cancel_flow(&mut self, id: FlowId) -> bool;
    /// Cancel an entry started by [`SimLike::start_entry`]; `RefSim`
    /// cancels its flows atomically.
    fn cancel_entry(&mut self, ids: &[FlowId]) -> bool {
        ids.iter().all(|&id| self.cancel_flow(id))
    }
    fn next(&mut self) -> Option<Completion>;
    fn now(&self) -> SimTime;
}

impl SimLike for NetSim {
    fn probe(&mut self) {
        self.take_obs();
    }
    fn add_link(&mut self, cap: LinkCapacity) -> LinkId {
        NetSim::add_link(self, cap)
    }
    fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        NetSim::start_flow(self, spec)
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        NetSim::set_timer(self, delay, token);
    }
    fn schedule_fault_at(&mut self, at: SimTime, link: LinkId, health: LinkHealth) {
        NetSim::schedule_fault_at(self, at, link, health);
    }
    fn schedule_churn_at(&mut self, at: SimTime, node: u32, kind: ChurnKind, links: &[LinkId]) {
        NetSim::schedule_churn_at(self, at, node, kind, links);
    }
    fn cancel_flow(&mut self, id: FlowId) -> bool {
        NetSim::cancel_flow(self, id)
    }
    fn next(&mut self) -> Option<Completion> {
        NetSim::next(self)
    }
    fn now(&self) -> SimTime {
        NetSim::now(self)
    }
}

impl SimLike for RefSim {
    fn add_link(&mut self, cap: LinkCapacity) -> LinkId {
        RefSim::add_link(self, cap)
    }
    fn start_entry(&mut self, spec: FlowSpec) -> Vec<FlowId> {
        let one = FlowSpec { count: 1, ..spec };
        (0..spec.count)
            .map(|_| RefSim::start_flow(self, one.clone()))
            .collect()
    }
    fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        RefSim::start_flow(self, spec)
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        RefSim::set_timer(self, delay, token);
    }
    fn schedule_fault_at(&mut self, at: SimTime, link: LinkId, health: LinkHealth) {
        RefSim::schedule_fault_at(self, at, link, health);
    }
    fn schedule_churn_at(&mut self, at: SimTime, node: u32, kind: ChurnKind, links: &[LinkId]) {
        RefSim::schedule_churn_at(self, at, node, kind, links);
    }
    fn cancel_flow(&mut self, id: FlowId) -> bool {
        RefSim::cancel_flow(self, id)
    }
    fn cancel_entry(&mut self, ids: &[FlowId]) -> bool {
        RefSim::cancel_flows(self, ids)
    }
    fn next(&mut self) -> Option<Completion> {
        RefSim::next(self)
    }
    fn now(&self) -> SimTime {
        RefSim::now(self)
    }
}

/// Indices of the scenario links flow `i` crosses, in path order.
fn flow_links(sc: &Scenario, i: usize) -> Vec<usize> {
    let (_, _, a, b, _, pathless_die) = sc.flows[i];
    if pathless_die == 0 {
        return Vec::new();
    }
    let (a, b) = (a % sc.links.len(), b % sc.links.len());
    if a == b {
        vec![a]
    } else {
        vec![a, b]
    }
}

/// Drive one simulator through the scenario, returning the full
/// completion log stamped with exact integer-nanosecond clocks, one line
/// per logical flow (flow ids are left out: a counted entry has one id on
/// `NetSim` and `count` on `RefSim`; tokens name the entry). Cancel
/// timers fire *through* the event stream, so every driver observes them
/// at identical instants.
fn run_scenario<S: SimLike>(sim: &mut S, sc: &Scenario) -> String {
    let links: Vec<LinkId> = sc
        .links
        .iter()
        .map(|&c| sim.add_link(LinkCapacity::new(CAPS[c])))
        .collect();
    for &(at_us, l, h) in &sc.faults {
        sim.schedule_fault_at(SimTime(at_us * 1_000), links[l % links.len()], HEALTHS[h]);
    }
    for &(at_us, node, kind) in &sc.churn {
        let mut owned: Vec<LinkId> = [2 * node, 2 * node + 1]
            .iter()
            .map(|&i| links[i % links.len()])
            .collect();
        owned.dedup();
        sim.schedule_churn_at(
            SimTime(at_us * 1_000),
            node as u32,
            CHURN_KINDS[kind % CHURN_KINDS.len()],
            &owned,
        );
    }
    let mut ids = Vec::new();
    for (token, &(bytes, lat_us, _, _, cap, _)) in sc.flows.iter().enumerate() {
        let path: Vec<LinkId> = flow_links(sc, token)
            .into_iter()
            .map(|l| links[l])
            .collect();
        let rate_cap = if path.is_empty() {
            PATHLESS_CAPS[cap % PATHLESS_CAPS.len()]
        } else {
            RATE_CAPS[cap]
        };
        ids.push(sim.start_entry(FlowSpec {
            path,
            bytes,
            latency: SimDuration::from_micros(lat_us),
            rate_cap,
            token: token as u64,
            count: sc.count(token),
        }));
    }
    for (i, &(delay_us, _)) in sc.cancels.iter().enumerate() {
        sim.set_timer(SimDuration::from_micros(delay_us), CANCEL_BASE + i as u64);
    }
    if let Some(probe_us) = sc.probe_us {
        sim.set_timer(SimDuration::from_micros(probe_us), PROBE);
    }
    let mut log = String::new();
    while let Some(c) = sim.next() {
        if let Completion::Timer { token } = c {
            if token == PROBE {
                sim.probe();
                log.push_str(&format!("probe @ {}ns\n", sim.now().0));
                continue;
            }
            if token >= CANCEL_BASE {
                let (_, flow_idx) = sc.cancels[(token - CANCEL_BASE) as usize];
                let cancelled = sim.cancel_entry(&ids[flow_idx % ids.len()]);
                log.push_str(&format!("cancel#{token} -> {cancelled}\n"));
                continue;
            }
        }
        log.push_str(&completion_lines(c, sim.now()));
    }
    log
}

/// Log lines of one completion: one per logical flow for a flow entry.
fn completion_lines(c: Completion, now: SimTime) -> String {
    match c {
        Completion::Flow { token, count, .. } => {
            format!("flow tok={token} @ {}ns\n", now.0).repeat(count as usize)
        }
        other => format!("{other:?} @ {}ns\n", now.0),
    }
}

fn observed_sim() -> NetSim {
    let mut sim = NetSim::new();
    sim.enable_obs();
    sim
}

/// Run the scenario on all three drivers and require byte-identical
/// streams — the fast engine twice, so every scenario also replays
/// byte-identically from the same input — then check the observed run's
/// report. A second observed run
/// takes its report from a probe timer at `probe_us`; its stream must
/// match the unobserved run with the same (no-op) probe.
fn check_all_drivers(sc: &Scenario, probe_us: u64) -> TestCaseResult {
    let plain = run_scenario(&mut NetSim::new(), sc);
    let replay = run_scenario(&mut NetSim::new(), sc);
    prop_assert_eq!(plain.as_bytes(), replay.as_bytes());
    let reference = run_scenario(&mut RefSim::new(), sc);
    prop_assert_eq!(plain.as_bytes(), reference.as_bytes());

    let mut observed = observed_sim();
    let observed_log = run_scenario(&mut observed, sc);
    prop_assert_eq!(observed_log.as_bytes(), plain.as_bytes());
    let report = observed.take_obs().expect("observation was enabled");
    check_report(sc, &observed_log, &observed, &report)?;

    let probed = Scenario {
        probe_us: Some(probe_us),
        ..sc.clone()
    };
    let probed_plain = run_scenario(&mut NetSim::new(), &probed);
    let probed_observed = run_scenario(&mut observed_sim(), &probed);
    prop_assert_eq!(probed_observed.as_bytes(), probed_plain.as_bytes());
    Ok(())
}

/// Record invariants of a drained observed run's report.
fn check_report(sc: &Scenario, log: &str, sim: &NetSim, report: &NetObsReport) -> TestCaseResult {
    // One record per activated logical flow: every entry's count except
    // for entries cancelled in their latency phase. A cancel at the
    // activation instant finds the entry active, since flow starts were
    // queued before the timers.
    let cancelled_pending: BTreeSet<usize> = sc
        .cancels
        .iter()
        .enumerate()
        .filter(|&(i, &(delay_us, flow))| {
            log.contains(&format!("cancel#{} -> true\n", CANCEL_BASE + i as u64))
                && delay_us < sc.flows[flow % sc.flows.len()].1
        })
        .map(|(_, &(_, flow))| flow % sc.flows.len())
        .collect();
    let activated: u32 = (0..sc.flows.len())
        .filter(|i| !cancelled_pending.contains(i))
        .map(|i| sc.count(i))
        .sum();
    prop_assert_eq!(report.flows.len(), activated as usize);
    // An entry's records share its id, its count of them.
    let mut records: BTreeMap<FlowId, (u64, u32)> = BTreeMap::new();
    for f in &report.flows {
        records.entry(f.id).or_insert((f.token, 0)).1 += 1;
    }
    for (id, &(token, n)) in &records {
        prop_assert_eq!(n, sc.count(token as usize), "records of {:?}", id);
    }
    let ids: BTreeSet<FlowId> = records.keys().copied().collect();
    prop_assert_eq!(
        report.flows_with_outcome(FlowOutcome::Finished) as u64,
        sim.flows_completed()
    );
    // Flows still open when the stream drained are exactly the parked
    // ones (in-flight records come last, in id order).
    let in_flight: Vec<u64> = report
        .flows
        .iter()
        .filter(|f| f.outcome == FlowOutcome::InFlight)
        .map(|f| f.token)
        .collect();
    prop_assert_eq!(in_flight, sim.parked_flow_tokens());

    // Each entry's park and resume transitions alternate, park first,
    // each one recorded once per logical flow of the entry.
    // (last transition, copies of it so far, copies due) per entry.
    let mut parked: BTreeMap<FlowId, (bool, u32, u32)> = BTreeMap::new();
    for p in &report.park_events {
        prop_assert!(
            ids.contains(&p.flow),
            "park event of unrecorded {:?}",
            p.flow
        );
        let due = sc.count(p.token as usize);
        let (was_parked, copies, _) = parked.get(&p.flow).copied().unwrap_or((false, due, due));
        if was_parked == p.parked && copies < due {
            parked.insert(p.flow, (was_parked, copies + 1, due));
            continue;
        }
        prop_assert!(
            was_parked != p.parked && copies == due,
            "{:?} repeated a parked={} transition",
            p.flow,
            p.parked
        );
        parked.insert(p.flow, (p.parked, 1, due));
    }
    for (id, &(_, copies, due)) in &parked {
        prop_assert_eq!(copies, due, "transition copies of {:?}", id);
    }
    for w in &report.link_windows {
        prop_assert!(w.start <= w.end && w.bytes >= 0.0, "bad window {:?}", w);
    }

    // Bytes are conserved per logical flow, twins included: a link
    // carried at most the bytes of the flows crossing it, and at least
    // those of the flows that finished on it, less each one's sub-byte
    // finishing residue.
    let finished: BTreeSet<u64> = report
        .flows
        .iter()
        .filter(|f| f.outcome == FlowOutcome::Finished)
        .map(|f| f.token)
        .collect();
    for l in 0..sc.links.len() {
        let carried: f64 = report
            .link_windows
            .iter()
            .filter(|w| w.link.0 as usize == l)
            .map(|w| w.bytes)
            .sum();
        let (mut most, mut least) = (0.0, 0.0);
        for (i, f) in sc.flows.iter().enumerate() {
            if flow_links(sc, i).contains(&l) {
                let n = f64::from(sc.count(i));
                most += n * f.0 as f64;
                if finished.contains(&(i as u64)) {
                    least += n * (f.0 as f64 - 0.5);
                }
            }
        }
        prop_assert!(
            carried <= most * (1.0 + 1e-9) + 1e-6 && carried >= least * (1.0 - 1e-9) - 1e-6,
            "link {} carried {} bytes, outside [{}, {}]",
            l,
            carried,
            least,
            most
        );
    }
    Ok(())
}

/// A twin spec as drawn: (bytes index, latency index, first link,
/// second link, cap index, pathless die).
type FlowDraw = (usize, usize, usize, usize, usize, usize);
/// A scenario flow row; see [`Scenario::flows`].
type FlowRow = (u64, u64, usize, usize, usize, usize);

/// Expand twin specs into a flow list: each `(spec, copies)` starts
/// `copies` times verbatim, and an xorshift stream seeded by `shuffle`
/// permutes the list so a group's ids interleave with other flows'.
///
/// Twins make many flows start and finish together, so rounds of
/// `cap / 3`-style shares come up often, and their float residues can
/// land within the `1e-9` tie threshold of an exact share in another
/// component — the near-tie where component-local and global settlement
/// legitimately differ. The expansion keeps to one linked component:
/// every path starts at link 0. Pathless flows (components of their own)
/// take a [`PATHLESS_CAPS`] cap, which no share comes near.
fn expand_twins(specs: &[(FlowDraw, usize)], mut shuffle: u64) -> Vec<FlowRow> {
    let mut flows = Vec::new();
    for &((bytes, lat, _, b, cap, pathless_die), copies) in specs {
        for _ in 0..copies {
            flows.push((
                TWIN_BYTES[bytes],
                TWIN_LATENCY_US[lat],
                0,
                b,
                cap,
                pathless_die,
            ));
        }
    }
    shuffle |= 1;
    for i in (1..flows.len()).rev() {
        shuffle ^= shuffle << 13;
        shuffle ^= shuffle >> 7;
        shuffle ^= shuffle << 17;
        flows.swap(i, (shuffle % (i as u64 + 1)) as usize);
    }
    flows
}

/// Expand counted entries into a flow list: entry `(pick, count)` starts
/// spec `specs[pick % specs.len()]` as one entry of `count` logical
/// flows. Entries drawing the same spec are twins of each other, so they
/// activate in one batch and later ones join the twin slot the first one
/// opened. Every path starts at link 0, as in [`expand_twins`].
fn expand_entries(specs: &[FlowDraw], entries: &[(usize, u32)]) -> (Vec<FlowRow>, Vec<u32>) {
    entries
        .iter()
        .map(|&(pick, count)| {
            let (bytes, lat, _, b, cap, pathless_die) = specs[pick % specs.len()];
            let row = (
                TWIN_BYTES[bytes],
                TWIN_LATENCY_US[lat],
                0,
                b,
                cap,
                pathless_die,
            );
            (row, count)
        })
        .unzip()
}

proptest! {
    /// The counted-entry pin: every entry stands for one to four logical
    /// flows, started on `NetSim` as one counted entry and on `RefSim` as
    /// that many verbatim starts. Entries drawn from a small spec pool
    /// often share path, bytes, latency and cap, so counted entries also
    /// join twin slots opened by other entries of the same batch. Cancels
    /// hit whole entries (the reference cancels each of its flows) in the
    /// latency phase and mid-transfer, the representative of a twin slot
    /// included; faults and churn park and revive them. The per-logical-
    /// flow completion streams must agree byte for byte, and the observed
    /// report must keep one record per logical flow.
    #[test]
    fn counted_entries_match_reference(
        links in prop::collection::vec(0usize..4, 1..4),
        specs in prop::collection::vec(
            (0usize..5, 0usize..3, 0usize..4, 0usize..4, 0usize..4, 0usize..3),
            1..5,
        ),
        entries in prop::collection::vec((0usize..8, 1u32..5), 1..10),
        faults in prop::collection::vec((0u64..30_000, 0usize..4, 0usize..4), 0..6),
        churn in prop::collection::vec((0u64..30_000, 0usize..4, 0usize..3), 0..3),
        cancels in prop::collection::vec(
            (prop_oneof![0u64..25, 0u64..30_000], 0usize..16),
            0..6,
        ),
        probe_us in 0u64..30_000,
    ) {
        let (flows, counts) = expand_entries(&specs, &entries);
        let sc = Scenario { links, flows, faults, cancels, churn, probe_us: None, counts };
        check_all_drivers(&sc, probe_us)?;
    }

    /// The twin pin: every spec starts one to four times with identical
    /// path, bytes, latency and cap, so the fast engine merges most
    /// activations into twin groups while `RefSim` runs each flow alone.
    /// Pathless, linked and zero-byte flows mix with non-twins on shared
    /// links; cancels hit single members (the group's representative too)
    /// in the latency phase and mid-transfer; faults and churn park and
    /// revive whole groups. All three drivers must agree byte for byte.
    #[test]
    fn twin_groups_match_reference(
        links in prop::collection::vec(0usize..4, 1..4),
        specs in prop::collection::vec(
            ((0usize..5, 0usize..3, 0usize..4, 0usize..4, 0usize..4, 0usize..3), 1usize..5),
            1..8,
        ),
        shuffle in 0u64..u64::MAX,
        faults in prop::collection::vec((0u64..30_000, 0usize..4, 0usize..4), 0..6),
        churn in prop::collection::vec((0u64..30_000, 0usize..4, 0usize..3), 0..3),
        cancels in prop::collection::vec(
            (prop_oneof![0u64..25, 0u64..30_000], 0usize..32),
            0..6,
        ),
        probe_us in 0u64..30_000,
    ) {
        let flows = expand_twins(&specs, shuffle);
        let sc = Scenario { links, flows, faults, cancels, churn, probe_us: None, counts: vec![] };
        check_all_drivers(&sc, probe_us)?;
    }

    /// The tentpole pin: fast engine (observed or not) and reference
    /// implementation emit byte-identical completion streams over random
    /// flow/fault/cancel schedules, fault parking included.
    #[test]
    fn fast_engine_matches_reference(
        links in prop::collection::vec(0usize..4, 1..4),
        flows in prop::collection::vec(
            (
                1_000u64..50_000_000,
                0u64..2_000,
                0usize..4,
                0usize..4,
                0usize..4,
                0usize..10,
            ),
            1..24,
        ),
        faults in prop::collection::vec((0u64..60_000, 0usize..4, 0usize..4), 0..8),
        cancels in prop::collection::vec((0u64..40_000, 0usize..24), 0..5),
        probe_us in 0u64..60_000,
    ) {
        let sc = Scenario { links, flows, faults, cancels, churn: vec![], probe_us: None, counts: vec![] };
        check_all_drivers(&sc, probe_us)?;
    }

    /// Same pin restricted to fault-heavy schedules: every flow crosses a
    /// link that goes down at least once, exercising park/revive and the
    /// dead-link pre-pass on both sides.
    #[test]
    fn parking_schedules_match_reference(
        nflows in 1usize..16,
        bytes in 1_000_000u64..50_000_000,
        down_us in 1u64..20_000,
        up_us in 20_001u64..80_000,
        probe_us in 0u64..80_000,
    ) {
        let sc = Scenario {
            links: vec![0, 1],
            flows: (0..nflows)
                .map(|i| (bytes + i as u64 * 7_919, (i as u64) * 13, 0, i % 2, 0, 1))
                .collect(),
            faults: vec![(down_us, 0, 0), (up_us, 0, 1)],
            cancels: vec![],
            churn: vec![],
            probe_us: None,
            counts: vec![],
        };
        check_all_drivers(&sc, probe_us)?;
    }

    /// The elastic pin: membership events (preempt / drain / rejoin)
    /// interleaved with flows, faults and cancels replay byte-identically
    /// on every driver. Churn events park and revive a node's links
    /// atomically and surface as first-class completions, so the log pins
    /// both the link effect and the event ordering.
    #[test]
    fn churn_schedules_match_reference(
        links in prop::collection::vec(0usize..4, 1..4),
        flows in prop::collection::vec(
            (
                1_000u64..50_000_000,
                0u64..2_000,
                0usize..4,
                0usize..4,
                0usize..4,
                0usize..10,
            ),
            1..16,
        ),
        faults in prop::collection::vec((0u64..60_000, 0usize..4, 0usize..4), 0..4),
        cancels in prop::collection::vec((0u64..40_000, 0usize..16), 0..3),
        churn in prop::collection::vec((0u64..60_000, 0usize..4, 0usize..3), 1..8),
        probe_us in 0u64..60_000,
    ) {
        let sc = Scenario { links, flows, faults, cancels, churn, probe_us: None, counts: vec![] };
        check_all_drivers(&sc, probe_us)?;
    }
}
