//! The discrete-event simulator core: the public [`NetSim`] surface and
//! its state container.
//!
//! The engine itself lives in `sim_fast.rs`: a binary-heap scheduler
//! ([`sched::EventQueue`], ordered by `(time, seq)`), incremental
//! per-component rate settlement, lazy `(rate, anchor)` flow progress in
//! the struct-of-arrays [`FlowArena`] (one slot per twin group), and
//! slot-indexed finish/prediction heaps instead of per-event full scans.
//! Its semantics are pinned by `RefSim` (a naive mirror of the same
//! settlement spec, one flow per flow) under proptest.
//!
//! Observation ([`NetSim::enable_obs`]) is a passive tap on that one
//! engine: hooks at its activation, settlement and detach points record
//! flow lifetimes, link busy windows and park/resume instants without
//! changing a single scheduled event or float operation.

use std::collections::{HashMap, VecDeque};

use crate::arena::{FlowArena, FlowWindow, SlotHeap};
use crate::churn::ChurnKind;
use crate::flow::{FlowId, FlowSpec};
use crate::hash::WordHash;
use crate::link::{LinkCapacity, LinkHealth, LinkId, LinkStats};
use crate::obs::{NetObsReport, NetObsState};
use crate::sched::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A completion delivered by [`NetSim::next`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completion {
    /// A flow finished transferring all of its bytes.
    Flow {
        /// The finished flow.
        id: FlowId,
        /// The caller token from the [`FlowSpec`].
        token: u64,
        /// Logical flows the entry stood for ([`FlowSpec::count`]).
        count: u32,
    },
    /// A timer set with [`NetSim::set_timer`] fired.
    Timer {
        /// The caller token.
        token: u64,
    },
    /// A scheduled fault event ([`NetSim::schedule_fault_at`]) took
    /// effect. The new health is already applied when the completion is
    /// delivered.
    Fault {
        /// Affected link.
        link: LinkId,
        /// Health state the link just entered.
        health: LinkHealth,
    },
    /// A scheduled membership event ([`NetSim::schedule_churn_at`]) took
    /// effect: every link of the node changed health *atomically* at this
    /// instant. The new health is already applied when the completion is
    /// delivered.
    Churn {
        /// Affected node (caller's node index; opaque to the simulator).
        node: u32,
        /// What happened to the node.
        kind: ChurnKind,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Payload {
    /// Latency phase of a flow ended; it starts consuming bandwidth.
    FlowStart(FlowId),
    /// User timer.
    Timer(u64),
    /// Scheduled link-health transition (index into the fault table).
    Fault(u32),
    /// Scheduled node-membership transition (index into the churn table).
    Churn(u32),
}

/// Sub-byte residue below which a flow counts as finished (absorbs float
/// rounding from rate recomputations).
pub(crate) const DONE_EPS: f64 = 0.5;

/// Finish-heap key: the predicted instant `remaining` crosses
/// [`DONE_EPS`], as fractional nanoseconds, in `total_cmp` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crossing(pub f64);

impl PartialEq for Crossing {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Crossing {}
impl Ord for Crossing {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for Crossing {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The fluid-flow network simulator.
///
/// Deterministic: identical call sequences produce identical event
/// timelines (ties broken by insertion order, flow iteration ordered by
/// [`FlowId`]).
///
/// ```
/// use holmes_netsim::{Completion, FlowSpec, LinkCapacity, NetSim, SimDuration};
///
/// let mut sim = NetSim::new();
/// let link = sim.add_link(LinkCapacity::new(1e9)); // 1 GB/s
/// sim.start_flow(FlowSpec {
///     path: vec![link],
///     bytes: 500_000_000,
///     latency: SimDuration::ZERO,
///     rate_cap: f64::INFINITY,
///     token: 42,
///     count: 1,
/// });
/// assert_eq!(
///     sim.next(),
///     Some(Completion::Flow { id: holmes_netsim::FlowId(0), token: 42, count: 1 })
/// );
/// assert!((sim.now().as_secs_f64() - 0.5).abs() < 1e-9); // 500 MB at 1 GB/s
/// ```
#[derive(Debug, Default)]
pub struct NetSim {
    pub(crate) now: SimTime,
    /// Effective per-link capacity: nominal × health factor. This is what
    /// the water-filling pass shares among flows.
    pub(crate) links: Vec<LinkCapacity>,
    /// Nominal (fault-free) per-link capacity.
    pub(crate) nominal: Vec<LinkCapacity>,
    /// Per-link health state machine driven by fault events.
    pub(crate) health: Vec<LinkHealth>,
    /// Cached effective capacity in bytes/ns (`bytes_per_sec * 1e-9`,
    /// the same product the water-fill computed historically), refreshed
    /// whenever capacity or health changes.
    pub(crate) cap_bpns: Vec<f64>,
    /// Count of links currently at/below the dead floor — gates the
    /// dead-link parking pre-pass without a scan.
    pub(crate) dead_links: u32,
    /// Scheduled fault transitions, referenced by `Payload::Fault` index.
    pub(crate) fault_table: Vec<(LinkId, LinkHealth)>,
    /// Scheduled churn transitions, referenced by `Payload::Churn` index:
    /// `(node, kind, links flipped atomically)`.
    pub(crate) churn_table: Vec<(u32, ChurnKind, Vec<LinkId>)>,
    /// Per-link accumulated traffic and busy time. Bytes are settled
    /// whenever a crossing flow's rate changes or it detaches, so they
    /// are complete whenever the link carries no flow (every busy-window
    /// edge) and final once the simulation drains.
    pub(crate) link_stats: Vec<LinkStats>,
    /// Per-link count of active logical flows crossing it (a twin group
    /// counts its multiplicity).
    pub(crate) link_nflows: Vec<u32>,
    /// Per-link busy-window open time (byte/busy accounting).
    pub(crate) link_open: Vec<SimTime>,
    /// Per-link list of active arena slots crossing it (component walks).
    /// Positions are mirrored in `FlowArena::link_pos`.
    pub(crate) link_flows: Vec<Vec<u32>>,
    /// Struct-of-arrays storage for flows past their latency phase, one
    /// slot per twin group.
    pub(crate) flows: FlowArena,
    /// Every started flow's state by id: latency-phase specs, tombstones
    /// and active members (lookup and id-ordered iteration).
    pub(crate) window: FlowWindow,
    /// Twin groups opened in the current `FlowStart` batch: twin key →
    /// (slot, id of the group's last member). Only ever probed, never
    /// iterated, so its hash order cannot reach the event order.
    pub(crate) twins: HashMap<[u64; 4], (u32, u64), WordHash>,
    pub(crate) queue: EventQueue<Payload>,
    pub(crate) backlog: VecDeque<Completion>,
    pub(crate) next_seq: u64,
    pub(crate) flows_completed: u64,
    pub(crate) engine_flows_completed: u64,
    pub(crate) events_processed: u64,
    /// Rates-check register: the single earliest predicted completion,
    /// kept outside the queue so superseded predictions never enter it.
    pub(crate) check: Option<(SimTime, u64)>,
    /// Eps-crossing instant of every slot transferring at a positive
    /// rate (and of zero-byte flows at activation).
    pub(crate) finish_heap: SlotHeap<Crossing>,
    /// Completion prediction of every slot transferring at a positive
    /// rate; its minimum backs the check register.
    pub(crate) pred_heap: SlotHeap<SimTime>,
    // Scratch: generation-stamped per-link water-fill state and component
    // worklists, reused to avoid per-call allocation on the hot path.
    pub(crate) wf_gen: u32,
    pub(crate) wf_link_stamp: Vec<u32>,
    pub(crate) wf_cap: Vec<f64>,
    pub(crate) wf_n: Vec<u32>,
    /// Per-link round stamp: equals `wf_round_gen` for links at the
    /// current round's bottleneck.
    pub(crate) wf_round: Vec<u64>,
    pub(crate) wf_round_gen: u64,
    pub(crate) comp_links: Vec<u32>,
    pub(crate) comp_flows: Vec<u32>,
    pub(crate) wf_unfixed: Vec<u32>,
    pub(crate) dirty_links: Vec<u32>,
    pub(crate) dirty_flows: Vec<u32>,
    /// Harvest scratch: `(id, token, slot, count, last member of its
    /// group)`.
    pub(crate) harvest: Vec<(u64, u64, u32, u32, bool)>,
    /// Flow-level observation collector; `None` (the default) skips every
    /// hook.
    pub(crate) obs: Option<Box<NetObsState>>,
}

impl NetSim {
    /// An empty simulator at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of logical flows that have fully completed (a counted
    /// entry counts its [`FlowSpec::count`]).
    #[inline]
    pub fn flows_completed(&self) -> u64 {
        self.flows_completed
    }

    /// Number of engine flows that have fully completed: a group of twin
    /// flows (activated at one instant with identical path, bytes and
    /// rate cap, counted entries included) is simulated as one engine
    /// flow and counts once here, while [`NetSim::flows_completed`]
    /// counts each of its logical flows.
    #[inline]
    pub fn engine_flows_completed(&self) -> u64 {
        self.engine_flows_completed
    }

    /// Number of events processed (diagnostic).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Event sequence numbers handed out so far: one per
    /// [`NetSim::start_flow`], [`NetSim::set_timer`] and scheduled fault or
    /// churn, plus one per refresh of the internal completion check. Two
    /// same-instant timers pop back to back exactly when no sequence
    /// number between theirs went to another event at that instant, so a
    /// caller that sees the mark move by more than its own calls knows
    /// the simulator scheduled something of its own in between.
    #[inline]
    pub fn seq_mark(&self) -> u64 {
        self.next_seq
    }

    /// Enable flow-level observation: per-flow lifetimes, per-link busy
    /// windows and park/resume instants accumulate until
    /// [`NetSim::take_obs`]. Observation only reads engine state, so an
    /// observed run schedules exactly the events of an unobserved one. It
    /// must be enabled before any flow or event activity so that every
    /// flow and window is recorded from its start. Idempotent.
    ///
    /// # Panics
    /// Panics when called after simulation activity began.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            assert!(
                self.inflight_flows() == 0 && self.events_processed == 0,
                "enable_obs must be called before simulation activity"
            );
            self.obs = Some(Box::default());
        }
    }

    /// Take the collected observability report (closing still-open flow
    /// records and link windows at the current time) and disable
    /// observation. `None` when observation was never enabled.
    pub fn take_obs(&mut self) -> Option<NetObsReport> {
        let state = self.obs.take()?;
        // Open windows close with the bytes in-flight flows moved since
        // their anchors, computed without settling them: moving an anchor
        // here would change the float operations of every later event.
        let mut bytes: Vec<f64> = self.link_stats.iter().map(|s| s.bytes).collect();
        for (_, member) in self.window.active() {
            let s = member.slot as usize;
            let elapsed = self.now.since(self.flows.anchor[s]).0 as f64;
            let moved = (self.flows.rate[s] * elapsed).min(self.flows.remaining[s]);
            for l in self.flows.path[s].as_slice() {
                for _ in 0..member.count {
                    bytes[l.0 as usize] += moved;
                }
            }
        }
        Some(state.into_report(self.now, &bytes))
    }

    /// Register a shared link and get its id.
    #[expect(clippy::cast_possible_truncation, reason = "LinkId is u32 by design")]
    pub fn add_link(&mut self, capacity: LinkCapacity) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(capacity);
        self.nominal.push(capacity);
        self.health.push(LinkHealth::Healthy);
        self.cap_bpns.push(capacity.bytes_per_sec * 1e-9);
        if capacity.is_dead() {
            self.dead_links += 1;
        }
        self.link_stats.push(LinkStats::default());
        self.link_nflows.push(0);
        self.link_open.push(SimTime::ZERO);
        self.link_flows.push(Vec::new());
        id
    }

    /// Accumulated traffic statistics of a link.
    ///
    /// Bytes are settled when a crossing flow's rate changes or it leaves
    /// the link, and busy time when the link goes idle, so mid-run reads
    /// may lag the current instant; after a full drain the totals are
    /// final.
    pub fn link_stats(&self, id: LinkId) -> Option<LinkStats> {
        self.link_stats.get(id.0 as usize).copied()
    }

    /// Current *effective* capacity of a registered link (nominal scaled
    /// by health).
    pub fn link_capacity(&self, id: LinkId) -> Option<LinkCapacity> {
        self.links.get(id.0 as usize).copied()
    }

    /// Nominal (fault-free) capacity of a registered link.
    pub fn link_nominal_capacity(&self, id: LinkId) -> Option<LinkCapacity> {
        self.nominal.get(id.0 as usize).copied()
    }

    /// Current health state of a registered link.
    pub fn link_health(&self, id: LinkId) -> Option<LinkHealth> {
        self.health.get(id.0 as usize).copied()
    }

    /// Apply an effective-capacity change at `self.links[i]`, keeping the
    /// bytes/ns cache and dead-link count in sync.
    pub(crate) fn set_effective_capacity(&mut self, i: usize, cap: LinkCapacity) {
        let was_dead = self.links[i].is_dead();
        self.links[i] = cap;
        self.cap_bpns[i] = cap.bytes_per_sec * 1e-9;
        let is_dead = cap.is_dead();
        if was_dead && !is_dead {
            self.dead_links -= 1;
        } else if !was_dead && is_dead {
            self.dead_links += 1;
        }
    }

    /// Re-set a link's *nominal* capacity. The link's health factor is
    /// re-applied, and the change takes effect at the next rate
    /// recomputation.
    pub fn set_link_capacity(&mut self, id: LinkId, capacity: LinkCapacity) {
        let i = id.0 as usize;
        if i < self.links.len() {
            self.nominal[i] = capacity;
            let eff = LinkCapacity::new(capacity.bytes_per_sec * self.health[i].capacity_factor());
            self.set_effective_capacity(i, eff);
            // Force re-fair-sharing for flows already in flight.
            self.recompute_link(id);
        }
    }

    /// Drive the link's health state machine: effective capacity becomes
    /// `nominal × health factor`. [`LinkHealth::Down`] parks affected
    /// flows (rate zero, no completion scheduled) until a later transition
    /// restores capacity.
    pub fn set_link_health(&mut self, id: LinkId, health: LinkHealth) {
        let i = id.0 as usize;
        if i < self.links.len() {
            self.health[i] = health;
            let eff = LinkCapacity::new(self.nominal[i].bytes_per_sec * health.capacity_factor());
            self.set_effective_capacity(i, eff);
            self.recompute_link(id);
        }
    }

    /// Re-share bandwidth in the component around a link whose capacity
    /// just changed.
    fn recompute_link(&mut self, id: LinkId) {
        self.dirty_links.clear();
        self.dirty_flows.clear();
        self.dirty_links.push(id.0);
        self.fast_recompute();
        self.fast_update_check();
    }

    /// Schedule a health transition to take effect at absolute time `at`
    /// (clamped to now). The transition is delivered through the normal
    /// event stream as a [`Completion::Fault`], after being applied.
    ///
    /// # Panics
    /// Panics if the link is unregistered.
    #[expect(clippy::cast_possible_truncation, reason = "fault indices are u32")]
    pub fn schedule_fault_at(&mut self, at: SimTime, link: LinkId, health: LinkHealth) {
        assert!(
            (link.0 as usize) < self.links.len(),
            "fault references unregistered link {link:?}"
        );
        let idx = self.fault_table.len() as u32;
        self.fault_table.push((link, health));
        let at = at.max(self.now);
        self.push_event(at, Payload::Fault(idx));
    }

    /// Schedule a node-membership transition at absolute time `at`
    /// (clamped to now): every link in `links` flips to
    /// [`ChurnKind::target_health`] *atomically* — one settle, one rate
    /// recomputation — and the event is delivered through the normal
    /// stream as a [`Completion::Churn`], after being applied. The node
    /// index is opaque to the simulator (callers map it to fabric links);
    /// an empty `links` makes the event a pure membership signal.
    ///
    /// # Panics
    /// Panics if any link is unregistered.
    #[expect(clippy::cast_possible_truncation, reason = "churn indices are u32")]
    pub fn schedule_churn_at(&mut self, at: SimTime, node: u32, kind: ChurnKind, links: &[LinkId]) {
        for link in links {
            assert!(
                (link.0 as usize) < self.links.len(),
                "churn references unregistered link {link:?}"
            );
        }
        let idx = self.churn_table.len() as u32;
        self.churn_table.push((node, kind, links.to_vec()));
        let at = at.max(self.now);
        self.push_event(at, Payload::Churn(idx));
    }

    /// Cancel an in-flight flow (either still in its latency phase or
    /// actively transferring). Returns `false` when the flow already
    /// completed or never existed. Bytes moved before cancellation stay
    /// attributed to link statistics; no completion is delivered.
    pub fn cancel_flow(&mut self, id: FlowId) -> bool {
        // A latency-phase flow's FlowStart event is still queued;
        // tombstone it.
        self.window.cancel_pending(id) || self.fast_cancel_active(id)
    }

    /// True when the simulation can make no further progress on its own
    /// while flows are still unfinished — every remaining flow is parked
    /// on dead links and no *live* event is queued. Tombstoned
    /// `FlowStart`s (cancelled pending flows) still physically sit in the
    /// queue but are no-ops, so they are excluded from the liveness
    /// count.
    pub fn stalled(&self) -> bool {
        self.backlog.is_empty()
            && self.window.active_count() > 0
            && self.check.is_none()
            && self.queue.len() == self.window.tombstone_count()
    }

    /// Tokens of flows currently parked at rate zero (in flow-id order),
    /// one per logical flow: a counted entry lists its token `count`
    /// times.
    pub fn parked_flow_tokens(&self) -> Vec<u64> {
        self.window
            .active()
            .filter(|(_, m)| self.flows.rate[m.slot as usize] <= 0.0)
            .flat_map(|(_, m)| std::iter::repeat_n(m.token, m.count as usize))
            .collect()
    }

    /// Number of currently in-flight flow entries (latency phase
    /// included); a counted entry counts once.
    pub fn inflight_flows(&self) -> usize {
        self.window.active_count() + self.window.pending_count()
    }

    /// Start a flow entry of [`FlowSpec::count`] identical logical flows;
    /// its one completion arrives later via [`NetSim::next`].
    ///
    /// # Panics
    /// Panics if the spec references an unregistered link or counts no
    /// flow.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.count >= 1, "a flow entry counts at least one flow");
        for link in &spec.path {
            assert!(
                (link.0 as usize) < self.links.len(),
                "flow references unregistered link {link:?}"
            );
        }
        let start = self.now + spec.latency;
        let id = self.window.start(spec);
        self.push_event(start, Payload::FlowStart(id));
        id
    }

    /// Add `by` logical flows to entry `id` while it is still in its
    /// latency phase; `false`, changing nothing, once it has started
    /// streaming or when its path is too long for netsim to merge twins.
    ///
    /// Exact when the caller would otherwise start `by` flows identical
    /// to `id` in path, bytes, latency and rate cap as the very next
    /// flows, with no other event scheduled at `id`'s start instant in
    /// between: those flows would join `id`'s twin group in the same
    /// `FlowStart` batch and complete right behind it, which is what one
    /// counted entry does ([`FlowSpec::count`]).
    pub fn extend_pending_flow(&mut self, id: FlowId, by: u32) -> bool {
        self.window.grow_pending(id, by)
    }

    /// True exactly when [`NetSim::extend_pending_flow`] would extend
    /// entry `id` now: it is still in its latency phase and its path is
    /// short enough to twin. Lets a caller check a set of entries before
    /// extending all of them or none.
    pub fn pending_flow_extends(&self, id: FlowId) -> bool {
        self.window.growable(id)
    }

    /// Schedule a timer completion after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        self.push_event(at, Payload::Timer(token));
    }

    /// Advance to, and return, the next completion. `None` when the
    /// simulation has fully drained.
    ///
    /// Deliberately named like `Iterator::next` — this *is* a pull-based
    /// event stream — but not implemented as `Iterator` because callers
    /// interleave `start_flow`/`set_timer` between pulls.
    #[expect(
        clippy::should_implement_trait,
        reason = "callers start flows between pulls"
    )]
    pub fn next(&mut self) -> Option<Completion> {
        self.next_fast()
    }

    /// Run until fully drained, collecting every completion.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut all = Vec::new();
        while let Some(c) = self.next() {
            all.push(c);
        }
        all
    }

    pub(crate) fn push_event(&mut self, time: SimTime, payload: Payload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(time.0, seq, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_with_link(bytes_per_sec: f64) -> (NetSim, LinkId) {
        let mut sim = NetSim::new();
        let link = sim.add_link(LinkCapacity::new(bytes_per_sec));
        (sim, link)
    }

    fn flow_on(link: LinkId, bytes: u64, token: u64) -> FlowSpec {
        FlowSpec {
            path: vec![link],
            bytes,
            latency: SimDuration::ZERO,
            rate_cap: f64::INFINITY,
            token,
            count: 1,
        }
    }

    #[test]
    fn single_flow_takes_bytes_over_bandwidth() {
        let (mut sim, link) = sim_with_link(1e9); // 1 GB/s
        sim.start_flow(flow_on(link, 1_000_000_000, 1));
        let c = sim.next().unwrap();
        assert_eq!(
            c,
            Completion::Flow {
                id: FlowId(0),
                token: 1,
                count: 1
            }
        );
        // 1 GB at 1 GB/s = 1 s.
        assert!((sim.now().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn latency_delays_start() {
        let (mut sim, link) = sim_with_link(1e9);
        let mut spec = flow_on(link, 1_000_000_000, 1);
        spec.latency = SimDuration::from_secs_f64(0.5);
        sim.start_flow(spec);
        sim.next().unwrap();
        assert!((sim.now().as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let (mut sim, link) = sim_with_link(1e9);
        sim.start_flow(flow_on(link, 500_000_000, 1));
        sim.start_flow(flow_on(link, 500_000_000, 2));
        let c1 = sim.next().unwrap();
        let t1 = sim.now().as_secs_f64();
        let c2 = sim.next().unwrap();
        let t2 = sim.now().as_secs_f64();
        // Both halves at 0.5 GB/s → both finish at 1 s.
        assert!((t1 - 1.0).abs() < 1e-6, "t1 = {t1}");
        assert!((t2 - 1.0).abs() < 1e-6, "t2 = {t2}");
        assert_ne!(c1, c2);
    }

    #[test]
    fn departing_flow_releases_bandwidth() {
        let (mut sim, link) = sim_with_link(1e9);
        // Short flow shares the first phase, long flow then speeds up:
        // phase 1: both at 0.5 GB/s until short (250 MB) finishes at 0.5 s.
        // phase 2: long has 750 MB left at 1 GB/s → finishes at 1.25 s.
        sim.start_flow(flow_on(link, 250_000_000, 1));
        sim.start_flow(flow_on(link, 1_000_000_000, 2));
        let first = sim.next().unwrap();
        assert_eq!(
            first,
            Completion::Flow {
                id: FlowId(0),
                token: 1,
                count: 1
            }
        );
        assert!((sim.now().as_secs_f64() - 0.5).abs() < 1e-6);
        sim.next().unwrap();
        assert!((sim.now().as_secs_f64() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn rate_cap_binds_below_link_share() {
        let (mut sim, link) = sim_with_link(1e9);
        let mut spec = flow_on(link, 500_000_000, 1);
        spec.rate_cap = 0.25e9; // one port
        sim.start_flow(spec);
        sim.next().unwrap();
        // 500 MB at 250 MB/s = 2 s despite the idle 1 GB/s link.
        assert!((sim.now().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn capped_flow_leaves_headroom_for_others() {
        let (mut sim, link) = sim_with_link(1e9);
        let mut capped = flow_on(link, 200_000_000, 1);
        capped.rate_cap = 0.2e9;
        sim.start_flow(capped);
        sim.start_flow(flow_on(link, 800_000_000, 2));
        // Max-min: capped takes 0.2 GB/s, other takes 0.8 GB/s → both 1 s.
        sim.next().unwrap();
        let t1 = sim.now().as_secs_f64();
        sim.next().unwrap();
        let t2 = sim.now().as_secs_f64();
        assert!((t1 - 1.0).abs() < 1e-6, "t1 = {t1}");
        assert!((t2 - 1.0).abs() < 1e-6, "t2 = {t2}");
    }

    #[test]
    fn multi_link_path_bounded_by_tightest_link() {
        let mut sim = NetSim::new();
        let fast = sim.add_link(LinkCapacity::new(10e9));
        let slow = sim.add_link(LinkCapacity::new(1e9));
        sim.start_flow(FlowSpec {
            path: vec![fast, slow],
            bytes: 1_000_000_000,
            latency: SimDuration::ZERO,
            rate_cap: f64::INFINITY,
            token: 0,
            count: 1,
        });
        sim.next().unwrap();
        assert!((sim.now().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pathless_flow_respects_rate_cap() {
        let mut sim = NetSim::new();
        sim.start_flow(FlowSpec::direct(1_000_000_000, SimDuration::ZERO, 2e9, 9));
        let c = sim.next().unwrap();
        assert_eq!(
            c,
            Completion::Flow {
                id: FlowId(0),
                token: 9,
                count: 1
            }
        );
        assert!((sim.now().as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = NetSim::new();
        sim.set_timer(SimDuration::from_micros(20), 2);
        sim.set_timer(SimDuration::from_micros(10), 1);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 1 }));
        assert_eq!(sim.next(), Some(Completion::Timer { token: 2 }));
        assert_eq!(sim.next(), None);
    }

    #[test]
    fn simultaneous_timers_fire_in_insertion_order() {
        let mut sim = NetSim::new();
        sim.set_timer(SimDuration::from_micros(10), 5);
        sim.set_timer(SimDuration::from_micros(10), 6);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 5 }));
        assert_eq!(sim.next(), Some(Completion::Timer { token: 6 }));
    }

    #[test]
    fn drain_returns_every_completion() {
        let (mut sim, link) = sim_with_link(1e9);
        for t in 0..5 {
            sim.start_flow(flow_on(link, 1_000_000, t));
        }
        sim.set_timer(SimDuration::from_micros(1), 99);
        let all = sim.drain();
        assert_eq!(all.len(), 6);
        assert_eq!(sim.inflight_flows(), 0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut sim, link) = sim_with_link(3e9);
            for t in 0..8 {
                let mut f = flow_on(link, 10_000_000 * (t + 1), t);
                f.latency = SimDuration::from_micros(t * 3);
                sim.start_flow(f);
            }
            let mut log = Vec::new();
            while let Some(c) = sim.next() {
                log.push((sim.now(), c));
            }
            log
        };
        assert_eq!(run(), run());
    }

    /// The canonical 8-flow staggered-start workload used by the
    /// determinism tests, rendered as a textual event log.
    fn staggered_event_log() -> String {
        let (mut sim, link) = sim_with_link(3e9);
        for t in 0..8 {
            let mut f = flow_on(link, 10_000_000 * (t + 1), t);
            f.latency = SimDuration::from_micros(t * 3);
            sim.start_flow(f);
        }
        let mut log = String::new();
        while let Some(c) = sim.next() {
            log.push_str(&format!("{:?} {:?}\n", sim.now(), c));
        }
        log
    }

    #[test]
    fn event_log_is_byte_identical_across_runs() {
        // Two fresh simulators over the same workload must render the
        // exact same bytes: flow-id iteration order (and therefore float
        // summation order) may not depend on arena slot assignment.
        assert_eq!(staggered_event_log(), staggered_event_log());
    }

    #[test]
    fn arena_slots_are_recycled_across_waves() {
        let (mut sim, link) = sim_with_link(1e9);
        // Wave 1: fill five slots, drain them all.
        for t in 0..5 {
            sim.start_flow(flow_on(link, 1_000_000, t));
        }
        assert_eq!(sim.drain().len(), 5);
        let slots_after_first_wave = sim.flows.capacity_slots();
        // Wave 2: same number of flows must reuse freed slots, not grow
        // the arena.
        for t in 5..10 {
            sim.start_flow(flow_on(link, 1_000_000, t));
        }
        assert_eq!(sim.drain().len(), 5);
        assert_eq!(sim.flows.capacity_slots(), slots_after_first_wave);
        assert_eq!(sim.flows.free_slots(), slots_after_first_wave);
        assert_eq!(sim.window.active_count(), 0);
    }

    #[test]
    fn link_flow_counts_return_to_zero_when_drained() {
        let mut sim = NetSim::new();
        let a = sim.add_link(LinkCapacity::new(1e9));
        let b = sim.add_link(LinkCapacity::new(2e9));
        for t in 0..4 {
            sim.start_flow(FlowSpec {
                path: vec![a, b],
                bytes: 1_000_000,
                latency: SimDuration::from_micros(t),
                rate_cap: f64::INFINITY,
                token: t,
                count: 1,
            });
        }
        sim.drain();
        assert_eq!(sim.link_nflows, vec![0, 0]);
        assert!(sim.link_flows.iter().all(Vec::is_empty));
    }

    #[test]
    fn capacity_change_mid_flight_slows_flows() {
        let (mut sim, link) = sim_with_link(1e9);
        sim.start_flow(flow_on(link, 1_000_000_000, 1));
        // Let the flow make progress to 0.5 s via a timer checkpoint.
        sim.set_timer(SimDuration::from_secs_f64(0.5), 0);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 0 }));
        sim.set_link_capacity(link, LinkCapacity::new(0.5e9));
        sim.next().unwrap();
        // 500 MB left at 0.5 GB/s → one more second: total 1.5 s.
        assert!((sim.now().as_secs_f64() - 1.5).abs() < 1e-3);
    }

    #[test]
    fn dead_link_parks_flows_instead_of_bogus_finish_times() {
        // Regression: a zero (or near-zero) capacity used to clamp to a
        // 1 mB/s floor, producing a "completion" ~30 simulated years out.
        // Now the flow parks: no completion event, no NaN/infinite time.
        let (mut sim, link) = sim_with_link(1e9);
        sim.start_flow(flow_on(link, 1_000_000_000, 1));
        sim.set_timer(SimDuration::from_secs_f64(0.25), 0);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 0 }));
        sim.set_link_health(link, LinkHealth::Down);
        assert_eq!(sim.next(), None, "parked flow must not complete");
        assert!(sim.stalled());
        assert_eq!(sim.parked_flow_tokens(), vec![1]);
        assert_eq!(sim.now(), SimTime(250_000_000), "time must not advance");
        // Revival: restoring health lets the remaining 750 MB finish at
        // the nominal rate. (The caller re-polls after reviving.)
        sim.set_link_health(link, LinkHealth::Healthy);
        assert!(!sim.stalled());
        let c = sim.next().unwrap();
        assert_eq!(
            c,
            Completion::Flow {
                id: FlowId(0),
                token: 1,
                count: 1
            }
        );
        assert!(
            (sim.now().as_secs_f64() - 1.0).abs() < 1e-3,
            "{}",
            sim.now()
        );
    }

    #[test]
    fn near_zero_capacity_counts_as_dead() {
        let (mut sim, link) = sim_with_link(1e9);
        sim.start_flow(flow_on(link, 1_000, 5));
        sim.set_link_capacity(link, LinkCapacity::new(1e-6));
        assert_eq!(sim.next(), None);
        assert!(sim.stalled());
        let t = sim.now().as_secs_f64();
        assert!(t.is_finite() && t == 0.0, "t = {t}");
    }

    #[test]
    fn degraded_health_scales_nominal_capacity() {
        let (mut sim, link) = sim_with_link(1e9);
        sim.set_link_health(link, LinkHealth::Degraded { fraction: 0.5 });
        assert_eq!(sim.link_capacity(link).unwrap().bytes_per_sec, 0.5e9);
        assert_eq!(sim.link_nominal_capacity(link).unwrap().bytes_per_sec, 1e9);
        sim.start_flow(flow_on(link, 500_000_000, 1));
        sim.next().unwrap();
        assert!((sim.now().as_secs_f64() - 1.0).abs() < 1e-6);
        // Nominal updates re-apply the health factor.
        sim.set_link_capacity(link, LinkCapacity::new(2e9));
        assert_eq!(sim.link_capacity(link).unwrap().bytes_per_sec, 1e9);
        sim.set_link_health(link, LinkHealth::Healthy);
        assert_eq!(sim.link_capacity(link).unwrap().bytes_per_sec, 2e9);
    }

    #[test]
    fn scheduled_faults_arrive_as_completions_in_order() {
        let (mut sim, link) = sim_with_link(1e9);
        // 1 GB flow; at 0.5 s the link halves; at 1.5 s it recovers.
        // Phase 1: 500 MB done. Phase 2 (0.5→1.5 s): 500 MB at 0.5 GB/s
        // → done exactly at 1.5 s. The recovery fault was enqueued before
        // the completion's rates check, so it pops first at the tie and
        // the harvested completion follows from the backlog.
        sim.start_flow(flow_on(link, 1_000_000_000, 7));
        sim.schedule_fault_at(
            SimTime(500_000_000),
            link,
            LinkHealth::Degraded { fraction: 0.5 },
        );
        sim.schedule_fault_at(SimTime(1_500_000_000), link, LinkHealth::Healthy);
        let log = sim.drain();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log[0],
            Completion::Fault {
                link,
                health: LinkHealth::Degraded { fraction: 0.5 }
            }
        );
        assert_eq!(
            log[1],
            Completion::Fault {
                link,
                health: LinkHealth::Healthy
            }
        );
        assert!(matches!(log[2], Completion::Flow { token: 7, .. }));
        assert_eq!(sim.link_health(link), Some(LinkHealth::Healthy));
    }

    #[test]
    fn flap_parks_then_revives_through_the_event_stream() {
        let (mut sim, link) = sim_with_link(1e9);
        sim.start_flow(flow_on(link, 1_000_000_000, 1));
        sim.schedule_fault_at(SimTime(500_000_000), link, LinkHealth::Down);
        sim.schedule_fault_at(SimTime(2_500_000_000), link, LinkHealth::Healthy);
        let log = sim.drain();
        // down, up, flow — the parked 500 MB resumes at 2.5 s, +0.5 s.
        assert_eq!(log.len(), 3);
        assert!(matches!(log[2], Completion::Flow { token: 1, .. }));
        assert!(
            (sim.now().as_secs_f64() - 3.0).abs() < 1e-6,
            "{}",
            sim.now()
        );
        assert!(!sim.stalled());
        assert_eq!(sim.inflight_flows(), 0);
    }

    #[test]
    fn cancel_active_flow_releases_bandwidth() {
        let (mut sim, link) = sim_with_link(1e9);
        let a = sim.start_flow(flow_on(link, 1_000_000_000, 1));
        sim.start_flow(flow_on(link, 500_000_000, 2));
        sim.set_timer(SimDuration::from_secs_f64(0.2), 9);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 9 }));
        assert!(sim.cancel_flow(a));
        assert!(!sim.cancel_flow(a), "double-cancel is a no-op");
        // Flow 2 had 400 MB left at 0.2 s; alone it finishes at 0.6 s.
        let c = sim.next().unwrap();
        assert!(matches!(c, Completion::Flow { token: 2, .. }));
        assert!((sim.now().as_secs_f64() - 0.6).abs() < 1e-3);
        assert_eq!(sim.next(), None);
        assert_eq!(sim.link_nflows, vec![0]);
    }

    #[test]
    fn cancel_pending_flow_tombstones_its_start() {
        let (mut sim, link) = sim_with_link(1e9);
        let mut f = flow_on(link, 1_000_000, 1);
        f.latency = SimDuration::from_micros(10);
        let id = sim.start_flow(f);
        assert!(sim.cancel_flow(id));
        assert_eq!(sim.next(), None);
        assert_eq!(sim.inflight_flows(), 0);
        assert_eq!(sim.flows_completed(), 0);
    }

    #[test]
    fn stalled_sees_through_tombstoned_flow_starts() {
        // Regression for the `pending_or_parked` edge: a tombstoned
        // FlowStart still physically in the queue used to make
        // `stalled()` report false while every real flow was parked.
        let (mut sim, link) = sim_with_link(1e9);
        sim.start_flow(flow_on(link, 1_000_000_000, 1));
        sim.set_timer(SimDuration::from_secs_f64(0.1), 0);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 0 }));
        // A far-future flow start, cancelled: its queued event is a
        // tombstone.
        let mut f = flow_on(link, 1_000, 2);
        f.latency = SimDuration::from_secs_f64(100.0);
        let ghost = sim.start_flow(f);
        assert!(sim.cancel_flow(ghost));
        // Park the only real flow.
        sim.set_link_health(link, LinkHealth::Down);
        assert!(
            sim.stalled(),
            "tombstoned FlowStart must not count as progress"
        );
        assert_eq!(sim.next(), None);
        assert!(sim.stalled(), "still stalled after the queue drains");
        // Revival clears the stall.
        sim.set_link_health(link, LinkHealth::Healthy);
        assert!(!sim.stalled());
        assert!(matches!(
            sim.next(),
            Some(Completion::Flow { token: 1, .. })
        ));
    }

    #[test]
    fn disjoint_components_settle_independently() {
        // Two flows on unrelated links: cancelling one must not disturb
        // the other's completion time (component-local recompute).
        let mut sim = NetSim::new();
        let a = sim.add_link(LinkCapacity::new(1e9));
        let b = sim.add_link(LinkCapacity::new(1e9));
        let fa = sim.start_flow(flow_on(a, 1_000_000_000, 1));
        sim.start_flow(flow_on(b, 500_000_000, 2));
        sim.set_timer(SimDuration::from_secs_f64(0.1), 9);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 9 }));
        assert!(sim.cancel_flow(fa));
        let c = sim.next().unwrap();
        assert!(matches!(c, Completion::Flow { token: 2, .. }));
        assert!((sim.now().as_secs_f64() - 0.5).abs() < 1e-6);
        assert_eq!(sim.next(), None);
    }

    #[test]
    #[should_panic(expected = "unregistered link")]
    fn unknown_link_panics() {
        let mut sim = NetSim::new();
        sim.start_flow(FlowSpec {
            path: vec![LinkId(7)],
            bytes: 1,
            latency: SimDuration::ZERO,
            rate_cap: f64::INFINITY,
            token: 0,
            count: 1,
        });
    }

    #[test]
    fn observed_run_collects_flow_and_link_records() {
        use crate::obs::FlowOutcome;
        let (mut sim, link) = sim_with_link(1e9);
        sim.enable_obs();
        sim.start_flow(flow_on(link, 500_000_000, 1));
        let cancelled = sim.start_flow(flow_on(link, 1_000_000_000, 2));
        sim.set_timer(SimDuration::from_secs_f64(0.1), 9);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 9 }));
        assert!(sim.cancel_flow(cancelled));
        sim.drain();
        let report = sim.take_obs().expect("obs was enabled");
        assert!(sim.take_obs().is_none(), "take_obs disables observation");
        assert_eq!(report.flows.len(), 2);
        assert_eq!(report.flows_with_outcome(FlowOutcome::Finished), 1);
        assert_eq!(report.flows_with_outcome(FlowOutcome::Cancelled), 1);
        let done = report
            .flows
            .iter()
            .find(|f| f.outcome == FlowOutcome::Finished)
            .unwrap();
        assert_eq!(done.token, 1);
        assert_eq!(done.first_link, Some(link));
        assert!(done.end > done.start);
        // One contiguous busy window (the cancel never idles the link),
        // accounting for the finished flow plus the cancelled flow's
        // partial progress.
        assert_eq!(report.link_windows.len(), 1);
        let w = report.link_windows[0];
        assert_eq!(w.link, link);
        assert!(w.bytes > 500_000_000.0, "bytes = {}", w.bytes);
        assert!(report.park_events.is_empty());
    }

    #[test]
    fn observation_does_not_change_the_event_log() {
        let run = |observe: bool| {
            let (mut sim, link) = sim_with_link(3e9);
            if observe {
                sim.enable_obs();
            }
            for t in 0..8 {
                let mut f = flow_on(link, 10_000_000 * (t + 1), t);
                f.latency = SimDuration::from_micros(t * 3);
                sim.start_flow(f);
            }
            let mut log = String::new();
            while let Some(c) = sim.next() {
                log.push_str(&format!("{:?} {:?}\n", sim.now(), c));
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn park_and_resume_are_observed() {
        let (mut sim, link) = sim_with_link(1e9);
        sim.enable_obs();
        sim.start_flow(flow_on(link, 1_000_000_000, 1));
        sim.set_timer(SimDuration::from_secs_f64(0.25), 0);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 0 }));
        sim.set_link_health(link, LinkHealth::Down);
        assert_eq!(sim.next(), None);
        sim.set_link_health(link, LinkHealth::Healthy);
        sim.drain();
        let report = sim.take_obs().unwrap();
        assert_eq!(report.parks(), 1);
        assert_eq!(report.park_events.len(), 2, "one park, one resume");
        assert!(report.park_events[0].parked);
        assert!(!report.park_events[1].parked);
        assert_eq!(report.park_events[0].at, SimTime(250_000_000));
    }

    #[test]
    fn twins_run_as_one_engine_flow_and_complete_in_id_order() {
        let (mut sim, link) = sim_with_link(1e9);
        // Ids 0, 2 and 3 are twins; id 1 differs only in size.
        sim.start_flow(flow_on(link, 1_000_000, 10));
        sim.start_flow(flow_on(link, 2_000_000, 11));
        sim.start_flow(flow_on(link, 1_000_000, 12));
        sim.start_flow(flow_on(link, 1_000_000, 13));
        sim.set_timer(SimDuration::from_micros(100), 99);
        assert_eq!(sim.next(), Some(Completion::Timer { token: 99 }));
        assert_eq!(sim.link_nflows, vec![4], "a group counts its members");
        assert_eq!(sim.flows.capacity_slots(), 2, "four flows, two slots");
        // Cancel the group's representative mid-transfer: the next id
        // takes over and the other twins keep their shared progress.
        assert!(sim.cancel_flow(FlowId(0)));
        assert!(!sim.cancel_flow(FlowId(0)));
        let tokens: Vec<u64> = sim
            .drain()
            .into_iter()
            .map(|c| match c {
                Completion::Flow { token, .. } => token,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tokens, vec![12, 13, 11]);
        assert_eq!(sim.flows_completed(), 3);
        assert_eq!(sim.engine_flows_completed(), 2);
        assert_eq!(sim.link_nflows, vec![0]);
        // 1 GB/s shared four ways for 100 µs, then three ways: the twins'
        // remaining 975,000 bytes take 2.925 ms; flow 1 then finishes
        // its last 1,000,000 bytes alone at 1 byte/ns.
        assert_eq!(sim.now(), SimTime(4_025_000));
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        let (mut sim, link) = sim_with_link(1e9);
        let mut f = flow_on(link, 0, 3);
        f.latency = SimDuration::from_micros(7);
        sim.start_flow(f);
        let c = sim.next().unwrap();
        assert_eq!(
            c,
            Completion::Flow {
                id: FlowId(0),
                token: 3,
                count: 1
            }
        );
        assert_eq!(sim.now(), SimTime(7_000));
    }
}
