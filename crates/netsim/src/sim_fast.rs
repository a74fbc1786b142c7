//! The engine of [`NetSim`]: incremental rate settlement.
//!
//! Semantics (the "anchor spec", mirrored by `RefSim` for equivalence
//! testing):
//!
//! * Each active flow carries `(remaining_at_anchor, rate, anchor)`.
//!   Progress is settled **only when its rate is reassigned to a bitwise
//!   different value**: `remaining -= rate · (now − anchor)`, then
//!   `anchor = now`. While the rate is unchanged the flow's completion
//!   prediction `anchor + max(1, ceil(remaining/rate))` is invariant, so
//!   it is computed once per rate change instead of once per event.
//! * Rates are recomputed only for the connected component (flows ↔
//!   links) reachable from the links/flows an event actually touched.
//!   Disjoint components cannot change their max-min allocation, so
//!   skipping them is exact (up to the historical `1e-9` threshold
//!   tie-grouping, which only differs when two components' bottleneck
//!   ratios are unequal yet within one part in 10⁹ — engineered
//!   capacities are either exactly equal or far apart).
//! * Finished flows are found through a min-heap of eps-crossing
//!   instants (`anchor + (remaining − DONE_EPS)/rate`) popped at every
//!   harvest event, preserving the historical "any flow at ≤ DONE_EPS
//!   finishes at any harvest event" early-finish rule. Heap entries are
//!   lazily invalidated by a per-slot epoch bumped on every rate change.
//! * A single `(time, seq)` check register holds the earliest valid
//!   completion prediction outside the event queue, so superseded
//!   predictions never enter the queue at all.
//!
//! Link statistics are settled at rate-change granularity and busy time
//! via 0↔1 flow-count window transitions; totals are final once the
//! simulation drains.
//!
//! Observation hooks sit at the settlement points and only read state:
//! flow records open in `fast_activate` and close in `fast_harvest` /
//! `fast_cancel_active`, link busy windows open and close at the 0↔1
//! `link_nflows` edges (where `link_stats` bytes are complete, since
//! every flow is settled before it detaches), and park/resume
//! transitions are scanned over the id-sorted component at the end of
//! `fast_recompute`.

use std::cmp::Reverse;

use crate::arena::PathVec;
use crate::flow::{FlowId, FlowSpec};
use crate::link::LinkCapacity;
use crate::obs::FlowOutcome;
use crate::sim::{Completion, FinishEntry, NetSim, Payload, PredEntry, DONE_EPS};
use crate::time::{SimDuration, SimTime};

impl NetSim {
    /// The event loop behind [`NetSim::next`].
    pub(crate) fn next_fast(&mut self) -> Option<Completion> {
        loop {
            if let Some(done) = self.backlog.pop_front() {
                return Some(done);
            }
            // Choose the earlier of the queue head and the check register
            // by the same (time, seq) order the old heap used.
            let take_check = match (self.queue.peek(), self.check) {
                (None, None) => return None,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(ev), Some((ct, cseq))) => (ct.0, cseq) < (ev.time, ev.seq),
            };
            if take_check {
                let (t, _) = self
                    .check
                    .take()
                    .expect("register non-empty (matched above)");
                self.events_processed += 1;
                debug_assert!(t >= self.now, "time must be monotone");
                self.now = t;
                self.dirty_links.clear();
                self.dirty_flows.clear();
                self.fast_harvest();
                self.fast_recompute();
                self.fast_update_check();
                continue;
            }
            let ev = self.queue.pop().expect("queue non-empty (matched above)");
            self.events_processed += 1;
            debug_assert!(ev.time >= self.now.0, "time must be monotone");
            self.now = SimTime(ev.time);
            match ev.item {
                Payload::Timer(token) => return Some(Completion::Timer { token }),
                Payload::FlowStart(id) => {
                    self.dirty_links.clear();
                    self.dirty_flows.clear();
                    self.fast_activate(id);
                    // Batch every other flow start at this same instant so
                    // rates are recomputed once, not per flow.
                    while let Some(peek) = self.queue.peek() {
                        if peek.time != self.now.0 {
                            break;
                        }
                        if let Payload::FlowStart(next_id) = peek.item {
                            self.queue.pop();
                            self.events_processed += 1;
                            self.fast_activate(next_id);
                        } else {
                            break;
                        }
                    }
                    self.fast_harvest();
                    self.fast_recompute();
                    self.fast_update_check();
                }
                Payload::Fault(idx) => {
                    let (link, health) = self.fault_table[idx as usize];
                    let i = link.0 as usize;
                    self.health[i] = health;
                    let eff =
                        LinkCapacity::new(self.nominal[i].bytes_per_sec * health.capacity_factor());
                    self.set_effective_capacity(i, eff);
                    self.dirty_links.clear();
                    self.dirty_flows.clear();
                    self.dirty_links.push(link.0);
                    self.fast_harvest();
                    self.fast_recompute();
                    self.fast_update_check();
                    return Some(Completion::Fault { link, health });
                }
                Payload::Churn(idx) => {
                    let (node, kind) = {
                        let (node, kind, _) = &self.churn_table[idx as usize];
                        (*node, *kind)
                    };
                    let health = kind.target_health();
                    self.dirty_links.clear();
                    self.dirty_flows.clear();
                    // All of the node's links flip at this one instant;
                    // the dirtied set seeds a single component recompute.
                    for k in 0..self.churn_table[idx as usize].2.len() {
                        let link = self.churn_table[idx as usize].2[k];
                        let i = link.0 as usize;
                        self.health[i] = health;
                        let eff = LinkCapacity::new(
                            self.nominal[i].bytes_per_sec * health.capacity_factor(),
                        );
                        self.set_effective_capacity(i, eff);
                        self.dirty_links.push(link.0);
                    }
                    self.fast_harvest();
                    self.fast_recompute();
                    self.fast_update_check();
                    return Some(Completion::Churn { node, kind });
                }
            }
        }
    }

    /// Activate a pending flow: arena insert, link membership, busy
    /// windows. Rate assignment happens in the subsequent recompute;
    /// zero-byte flows get an immediately-ripe finish entry so the
    /// harvest pass (which runs before the recompute) completes them at
    /// this same event.
    fn fast_activate(&mut self, id: FlowId) {
        let Some(spec) = self.pending.remove(&id) else {
            // Cancelled during its latency phase: the queued FlowStart is
            // a tombstoned no-op.
            assert!(
                self.cancelled_pending.remove(&id),
                "FlowStart for unknown pending flow"
            );
            return;
        };
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_flow_activated(
                id,
                spec.token,
                spec.bytes,
                spec.path.first().copied(),
                self.now,
            );
        }
        // Convert to bytes-per-nanosecond internally.
        let cap = if spec.rate_cap.is_finite() {
            (spec.rate_cap * 1e-9).max(1e-12)
        } else {
            f64::INFINITY
        };
        let FlowSpec {
            path, bytes, token, ..
        } = spec;
        let slot = self.flows.insert(
            id,
            token,
            bytes as f64,
            cap,
            PathVec::from_vec(path),
            self.now,
        );
        self.id_to_slot.insert(id.0, slot);
        self.fast_attach_links(slot);
        self.dirty_flows.push(slot);
        if bytes as f64 <= DONE_EPS {
            self.finish_heap.push(Reverse(FinishEntry {
                crossing: self.now.0 as f64,
                slot,
                epoch: self.flows.epoch[slot as usize],
            }));
        }
    }

    /// Register `slot` in every path link's flow list, maintaining the
    /// mirrored positions and opening busy windows on 0→1 transitions.
    fn fast_attach_links(&mut self, slot: u32) {
        let s = slot as usize;
        let npath = self.flows.path[s].as_slice().len();
        for j in 0..npath {
            let link = self.flows.path[s].as_slice()[j];
            let l = link.0 as usize;
            self.flows.link_pos[s].as_mut_slice()[j] = self.link_flows[l].len() as u32;
            self.link_flows[l].push(slot);
            if self.link_nflows[l] == 0 {
                self.link_open[l] = self.now;
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.on_link_window_opened(link, self.now, self.link_stats[l].bytes);
                }
            }
            self.link_nflows[l] += 1;
        }
    }

    /// Remove `slot` from every path link's flow list (fixing up the
    /// swapped entry's mirrored position), close busy windows on →0
    /// transitions, and mark the links dirty for the next recompute.
    fn fast_detach_links(&mut self, slot: u32) {
        let s = slot as usize;
        let npath = self.flows.path[s].as_slice().len();
        for j in 0..npath {
            let link = self.flows.path[s].as_slice()[j];
            let l = link.0 as usize;
            let p = self.flows.link_pos[s].as_slice()[j] as usize;
            self.link_flows[l].swap_remove(p);
            if p < self.link_flows[l].len() {
                // Fix the swapped-in flow's position mirror: it held the
                // old last index. Match on (link, old position) so flows
                // crossing the same link twice stay consistent.
                let moved = self.link_flows[l][p] as usize;
                let old_last = self.link_flows[l].len() as u32;
                let mn = self.flows.path[moved].as_slice().len();
                for j2 in 0..mn {
                    if self.flows.path[moved].as_slice()[j2].0 as usize == l
                        && self.flows.link_pos[moved].as_slice()[j2] == old_last
                    {
                        self.flows.link_pos[moved].as_mut_slice()[j2] = p as u32;
                        break;
                    }
                }
            }
            self.link_nflows[l] -= 1;
            if self.link_nflows[l] == 0 {
                let busy = self.now.since(self.link_open[l]).0 as f64;
                self.link_stats[l].busy_seconds += busy * 1e-9;
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.on_link_window_closed(link, self.now, self.link_stats[l].bytes);
                }
            }
            self.dirty_links.push(l as u32);
        }
    }

    /// Settle `slot`'s progress to `now` and attribute the moved bytes to
    /// its links. No-op when no time passed since its anchor.
    fn fast_settle_flow(&mut self, slot: u32) {
        let s = slot as usize;
        let elapsed = self.now.since(self.flows.anchor[s]).0 as f64;
        if elapsed > 0.0 {
            let rate = self.flows.rate[s];
            if rate > 0.0 {
                let moved = (rate * elapsed).min(self.flows.remaining[s]);
                self.flows.remaining[s] -= rate * elapsed;
                if self.flows.remaining[s] < 0.0 {
                    self.flows.remaining[s] = 0.0;
                }
                let npath = self.flows.path[s].as_slice().len();
                for j in 0..npath {
                    let l = self.flows.path[s].as_slice()[j].0 as usize;
                    self.link_stats[l].bytes += moved;
                }
            }
        }
        self.flows.anchor[s] = self.now;
    }

    /// Assign a freshly computed rate. Bitwise-equal reassignments are
    /// skipped entirely — the flow's anchor, prediction and heap entries
    /// all remain valid. On change: settle, bump the epoch (invalidating
    /// old heap entries) and push new finish/prediction entries.
    fn fast_assign_rate(&mut self, slot: u32, new_rate: f64) {
        let s = slot as usize;
        // Bitwise compare, deliberately not `==`: the skip is only sound
        // when the stored prediction is *identical*, and NaN must never
        // silently equal itself.
        if new_rate.to_bits() == self.flows.rate[s].to_bits() {
            return;
        }
        self.fast_settle_flow(slot);
        self.flows.rate[s] = new_rate;
        self.flows.epoch[s] = self.flows.epoch[s].wrapping_add(1);
        if new_rate > 0.0 {
            let rem = self.flows.remaining[s];
            let epoch = self.flows.epoch[s];
            let crossing = self.now.0 as f64 + (rem - DONE_EPS) / new_rate;
            self.finish_heap.push(Reverse(FinishEntry {
                crossing,
                slot,
                epoch,
            }));
            let ns = (rem / new_rate).ceil().min(1e18) as u64;
            let pred = self.now + SimDuration::from_nanos(ns.max(1));
            self.pred_heap
                .push(Reverse(PredEntry { pred, slot, epoch }));
        }
    }

    /// Complete every flow whose eps-crossing has passed, in flow-id
    /// order. Their links are pushed onto `dirty_links` for the
    /// subsequent recompute.
    fn fast_harvest(&mut self) {
        let now_f = self.now.0 as f64;
        let mut slots = std::mem::take(&mut self.harvest_slots);
        slots.clear();
        while let Some(&Reverse(top)) = self.finish_heap.peek() {
            let s = top.slot as usize;
            if !self.flows.live[s] || self.flows.epoch[s] != top.epoch {
                self.finish_heap.pop();
                continue;
            }
            if top.crossing <= now_f {
                self.finish_heap.pop();
                slots.push(top.slot);
            } else {
                break;
            }
        }
        if !slots.is_empty() {
            slots.sort_unstable_by_key(|&sl| self.flows.ids[sl as usize]);
            for &slot in &slots {
                let s = slot as usize;
                self.fast_settle_flow(slot);
                let id = FlowId(self.flows.ids[s]);
                let token = self.flows.tokens[s];
                self.fast_detach_links(slot);
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.on_flow_closed(id, self.now, FlowOutcome::Finished);
                }
                self.id_to_slot.remove(&id.0);
                self.flows.remove(slot);
                self.flows_completed += 1;
                self.backlog.push_back(Completion::Flow { id, token });
            }
        }
        self.harvest_slots = slots;
    }

    /// Cancel an actively transferring flow (the post-latency path of
    /// [`NetSim::cancel_flow`]).
    pub(crate) fn fast_cancel_active(&mut self, id: FlowId) -> bool {
        let Some(&slot) = self.id_to_slot.get(&id.0) else {
            return false;
        };
        self.dirty_links.clear();
        self.dirty_flows.clear();
        self.fast_settle_flow(slot);
        self.fast_detach_links(slot);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_flow_closed(id, self.now, FlowOutcome::Cancelled);
        }
        self.id_to_slot.remove(&id.0);
        self.flows.remove(slot);
        self.fast_recompute();
        self.fast_update_check();
        true
    }

    /// Recompute max-min fair rates for the connected component(s)
    /// reachable from `dirty_links` / `dirty_flows`.
    ///
    /// The water-fill is the historical global round loop restricted to
    /// the component: same share arithmetic (`cap_left / n`), same global
    /// minimum and `1e-9` threshold grouping, same id-ordered freeze and
    /// `cap_left` subtraction order — so every rate matches a global
    /// water-fill bit for bit while untouched components pay nothing.
    pub(crate) fn fast_recompute(&mut self) {
        if self.dirty_links.is_empty() && self.dirty_flows.is_empty() {
            return;
        }
        self.wf_gen = self.wf_gen.wrapping_add(1);
        let gen = self.wf_gen;
        if self.wf_link_stamp.len() < self.links.len() {
            self.wf_link_stamp
                .resize(self.links.len(), gen.wrapping_sub(1));
            self.wf_cap.resize(self.links.len(), 0.0);
            self.wf_n.resize(self.links.len(), 0);
            self.wf_round.resize(self.links.len(), 0);
        }

        // --- Component walk (flows ↔ links bipartite BFS) ---
        let mut comp_links = std::mem::take(&mut self.comp_links);
        let mut comp_flows = std::mem::take(&mut self.comp_flows);
        comp_links.clear();
        comp_flows.clear();
        for di in 0..self.dirty_links.len() {
            let l = self.dirty_links[di] as usize;
            if self.wf_link_stamp[l] != gen {
                self.wf_link_stamp[l] = gen;
                self.wf_cap[l] = self.cap_bpns[l];
                self.wf_n[l] = self.link_nflows[l];
                comp_links.push(l as u32);
            }
        }
        for di in 0..self.dirty_flows.len() {
            let fs = self.dirty_flows[di];
            let s = fs as usize;
            if !self.flows.live[s] || self.flows.visit[s] == gen {
                continue;
            }
            self.flows.visit[s] = gen;
            comp_flows.push(fs);
            let npath = self.flows.path[s].as_slice().len();
            for j in 0..npath {
                let l = self.flows.path[s].as_slice()[j].0 as usize;
                if self.wf_link_stamp[l] != gen {
                    self.wf_link_stamp[l] = gen;
                    self.wf_cap[l] = self.cap_bpns[l];
                    self.wf_n[l] = self.link_nflows[l];
                    comp_links.push(l as u32);
                }
            }
        }
        let mut li = 0;
        while li < comp_links.len() {
            let l = comp_links[li] as usize;
            li += 1;
            let mut fi = 0;
            while fi < self.link_flows[l].len() {
                let fs = self.link_flows[l][fi];
                fi += 1;
                let s = fs as usize;
                if self.flows.visit[s] == gen {
                    continue;
                }
                self.flows.visit[s] = gen;
                comp_flows.push(fs);
                let npath = self.flows.path[s].as_slice().len();
                for j in 0..npath {
                    let l2 = self.flows.path[s].as_slice()[j].0 as usize;
                    if self.wf_link_stamp[l2] != gen {
                        self.wf_link_stamp[l2] = gen;
                        self.wf_cap[l2] = self.cap_bpns[l2];
                        self.wf_n[l2] = self.link_nflows[l2];
                        comp_links.push(l2 as u32);
                    }
                }
            }
        }
        if comp_flows.is_empty() {
            self.comp_links = comp_links;
            self.comp_flows = comp_flows;
            return;
        }
        // Freeze order is flow-id order, like the historical pass.
        comp_flows.sort_unstable_by_key(|&sl| self.flows.ids[sl as usize]);

        // Working set of not-yet-frozen flows, compacted in place per
        // round exactly like the historical `unfixed` list.
        let mut unfixed = std::mem::take(&mut self.wf_unfixed);
        unfixed.clear();
        unfixed.extend_from_slice(&comp_flows);

        // --- Dead-link parking pre-pass (id order) ---
        if self.dead_links > 0 {
            let mut w = 0;
            for r in 0..unfixed.len() {
                let fs = unfixed[r];
                let s = fs as usize;
                let npath = self.flows.path[s].as_slice().len();
                let mut dead = false;
                for j in 0..npath {
                    if self.links[self.flows.path[s].as_slice()[j].0 as usize].is_dead() {
                        dead = true;
                        break;
                    }
                }
                if dead {
                    self.fast_assign_rate(fs, 0.0);
                    for j in 0..npath {
                        let l = self.flows.path[s].as_slice()[j].0 as usize;
                        self.wf_n[l] -= 1;
                    }
                } else {
                    unfixed[w] = fs;
                    w += 1;
                }
            }
            unfixed.truncate(w);
        }

        // --- Water-fill rounds over the component ---
        while !unfixed.is_empty() {
            // Tightest link share, then tightest flow cap — the same
            // global-minimum order as the historical pass.
            let mut bottleneck = f64::INFINITY;
            for &lc in &comp_links {
                let l = lc as usize;
                if self.wf_n[l] > 0 {
                    bottleneck = bottleneck.min(self.wf_cap[l] / f64::from(self.wf_n[l]));
                }
            }
            for &fs in &unfixed {
                bottleneck = bottleneck.min(self.flows.rate_cap[fs as usize]);
            }
            if !bottleneck.is_finite() {
                // Pathless, uncapped flows: the historical 1e6 bytes/ns
                // ("complete instantly at an enormous rate") fallback.
                bottleneck = 1e6;
            }
            let threshold = bottleneck * (1.0 + 1e-9);

            // Snapshot the bottleneck links *before* freezing so round
            // membership cannot shift as capacity is subtracted.
            self.wf_round_gen += 1;
            let round = self.wf_round_gen;
            for &lc in &comp_links {
                let l = lc as usize;
                if self.wf_n[l] > 0 && self.wf_cap[l] / f64::from(self.wf_n[l]) <= threshold {
                    self.wf_round[l] = round;
                }
            }

            // Freeze every flow bound by this constraint, compacting the
            // survivors in place; `wf_cap` subtraction happens in flow-id
            // order, bit-for-bit like the historical pass.
            let before = unfixed.len();
            let mut w = 0;
            for r in 0..unfixed.len() {
                let fs = unfixed[r];
                let s = fs as usize;
                let constrained_by_cap = self.flows.rate_cap[s] <= threshold;
                let npath = self.flows.path[s].as_slice().len();
                let mut constrained_by_link = false;
                for j in 0..npath {
                    if self.wf_round[self.flows.path[s].as_slice()[j].0 as usize] == round {
                        constrained_by_link = true;
                        break;
                    }
                }
                if constrained_by_cap || constrained_by_link {
                    let rate = self.flows.rate_cap[s].min(bottleneck);
                    self.fast_assign_rate(fs, rate);
                    let npath = self.flows.path[s].as_slice().len();
                    for j in 0..npath {
                        let l = self.flows.path[s].as_slice()[j].0 as usize;
                        self.wf_cap[l] = (self.wf_cap[l] - rate).max(0.0);
                        self.wf_n[l] -= 1;
                    }
                } else {
                    unfixed[w] = fs;
                    w += 1;
                }
            }
            if w == before {
                // Numerical corner: nothing matched the constraint.
                // Freeze everything at the bottleneck rate to guarantee
                // progress, like the historical pass.
                for &fs in &unfixed {
                    let rate = self.flows.rate_cap[fs as usize].min(bottleneck);
                    self.fast_assign_rate(fs, rate);
                }
                break;
            }
            unfixed.truncate(w);
        }
        // Park/resume transitions: only component flows can change rate,
        // and the id-sorted scan keeps same-instant events in flow-id
        // order.
        if let Some(obs) = self.obs.as_deref_mut() {
            for &fs in &comp_flows {
                let s = fs as usize;
                obs.on_flow_rate(
                    FlowId(self.flows.ids[s]),
                    self.flows.tokens[s],
                    self.flows.rate[s],
                    self.now,
                );
            }
        }
        self.wf_unfixed = unfixed;
        self.comp_links = comp_links;
        self.comp_flows = comp_flows;
    }

    /// Refresh the check register from the prediction heap: the earliest
    /// valid prediction, clamped one nanosecond into the future so a
    /// floating-point corner can never re-arm a check in the past.
    pub(crate) fn fast_update_check(&mut self) {
        self.check = None;
        while let Some(&Reverse(top)) = self.pred_heap.peek() {
            let s = top.slot as usize;
            if !self.flows.live[s] || self.flows.epoch[s] != top.epoch {
                self.pred_heap.pop();
                continue;
            }
            let t = top.pred.max(SimTime(self.now.0 + 1));
            let seq = self.next_seq;
            self.next_seq += 1;
            self.check = Some((t, seq));
            break;
        }
    }
}
