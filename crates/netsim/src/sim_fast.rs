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
//!   finishes at any harvest event" early-finish rule.
//! * A single `(time, seq)` check register holds the earliest completion
//!   prediction outside the event queue, so superseded predictions never
//!   enter the queue at all. Both heaps hold one entry per arena slot,
//!   moved in place on every rate change.
//! * **Twin groups.** Flows activated in one same-instant `FlowStart`
//!   batch with identical `(path, bytes, rate cap)` share one arena slot
//!   of multiplicity `k`. They are exact twins for life: every flow
//!   frozen in a water-fill round gets exactly that round's bottleneck
//!   (its cap is at least the bottleneck by construction), so twins are
//!   frozen in the same round at the same rate and keep one anchor and
//!   one remaining byte count. The group counts `k` in `link_nflows` and
//!   `wf_n`, and each round subtracts the bottleneck `k` times in place —
//!   the same operations, on equal operands, as `k` separate flows.
//!   Harvest fans the group out into one completion per member in
//!   flow-id order; cancelling one member credits its bytes and leaves
//!   the others' anchor alone. Merging happens only inside the batch: a
//!   timer between two `FlowStart`s at one instant splits the batch and
//!   takes a check seq, so twins from different batches stay apart.
//! * **Counted entries.** A member is a flow entry standing for
//!   `count ≥ 1` logical flows ([`crate::FlowSpec::count`]): `count`
//!   verbatim starts at one instant would carry one `(time, seq)` run of
//!   `FlowStart`s into one batch and one twin group, so the entry adds
//!   `count` to `mult` and `link_nflows` in one step, completes as one
//!   [`Completion::Flow`] carrying its count, and leaves its group whole
//!   on cancel. `flows_completed` and observation still count logical
//!   flows.
//!
//! Link statistics are settled at rate-change granularity and busy time
//! via 0↔1 flow-count window transitions; totals are final once the
//! simulation drains. A group settles its `k` members' bytes together,
//! so a link total can differ in the last ulp from settling them one by
//! one between other flows; no time depends on those bytes.
//!
//! Observation hooks sit at the settlement points, only read state and
//! still see one record per logical flow: flow records open in
//! `fast_activate` and close in `fast_harvest` / `fast_cancel_active`,
//! link busy windows open and close at the 0↔1 `link_nflows` edges
//! (where `link_stats` bytes are complete, since every flow is settled
//! before it detaches), and park/resume transitions are scanned over the
//! component's members in id order at the end of `fast_recompute`.

use crate::arena::{twin_key, Member, PathVec};
use crate::flow::FlowId;
use crate::link::LinkCapacity;
use crate::obs::FlowOutcome;
use crate::sim::{Completion, Crossing, NetSim, Payload, DONE_EPS};
use crate::time::{SimDuration, SimTime};

impl NetSim {
    /// The event loop behind [`NetSim::next`].
    #[expect(clippy::expect_used, reason = "follows the match that saw it")]
    pub(crate) fn next_fast(&mut self) -> Option<Completion> {
        loop {
            if let Some(done) = self.backlog.pop_front() {
                return Some(done);
            }
            // The earlier of the queue head and the check register, by the
            // same (time, seq) order: seqs are unique, so no tie remains.
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
                    self.twins.clear();
                    self.fast_activate(id);
                    // Batch every other flow start at this same instant so
                    // rates are recomputed once, not per flow.
                    let now = self.now.0;
                    while let Some(Payload::FlowStart(next_id)) =
                        self.queue.peek().filter(|e| e.time == now).map(|e| e.item)
                    {
                        self.queue.pop();
                        self.events_processed += 1;
                        self.fast_activate(next_id);
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

    /// Activate a pending flow. A flow identical in `(path, bytes, rate
    /// cap)` to one activated earlier in this batch joins that flow's twin
    /// group; any other gets an arena slot, link membership and busy
    /// windows. Rate assignment happens in the subsequent recompute;
    /// zero-byte flows get an immediately-ripe finish entry so the harvest
    /// pass (which runs before the recompute) completes them at this same
    /// event.
    fn fast_activate(&mut self, id: FlowId) {
        // `None`: cancelled during its latency phase, so the queued
        // FlowStart is a tombstoned no-op.
        let Some(spec) = self.window.activate(id) else {
            return;
        };
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_flow_activated(
                id,
                spec.token,
                spec.count,
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
        let key = twin_key(&spec.path, spec.bytes, cap);
        if let Some(group) = key.as_ref().and_then(|k| self.twins.get_mut(k)) {
            let (slot, last) = *group;
            group.1 = id.0;
            self.fast_join_twin(slot, last, id.0, spec.count);
            return;
        }
        let bytes = spec.bytes as f64;
        let slot = self.flows.insert(
            id,
            spec.count,
            bytes,
            cap,
            PathVec::from_vec(spec.path),
            self.now,
        );
        if let Some(member) = self.window.member_mut(id.0) {
            member.slot = slot;
        }
        if let Some(key) = key {
            self.twins.insert(key, (slot, id.0));
        }
        self.fast_attach_links(slot);
        self.dirty_flows.push(slot);
        if bytes <= DONE_EPS {
            self.finish_heap.set(slot, Crossing(self.now.0 as f64));
        }
    }

    /// Add entry `id` of `count` logical flows to the twin group in
    /// `slot`, behind its last member `last`. The group's links are
    /// already attached and their busy windows open; only the counts grow.
    fn fast_join_twin(&mut self, slot: u32, last: u64, id: u64, count: u32) {
        let s = slot as usize;
        if let Some(member) = self.window.member_mut(last) {
            member.next = Some(id);
        }
        if let Some(member) = self.window.member_mut(id) {
            member.slot = slot;
        }
        self.flows.mult[s] += count;
        for j in 0..self.flows.path[s].as_slice().len() {
            self.link_nflows[self.flows.path[s].as_slice()[j].0 as usize] += count;
        }
    }

    /// The members of `slot`'s twin group, in id order.
    fn members(&self, slot: u32) -> impl Iterator<Item = (u64, Member)> + '_ {
        let mut next = Some(self.flows.ids[slot as usize]);
        std::iter::from_fn(move || {
            let id = next?;
            let member = *self.window.member(id)?;
            next = member.next;
            Some((id, member))
        })
    }

    /// Register `slot` in every path link's flow list, maintaining the
    /// mirrored positions and opening busy windows on 0→1 transitions.
    #[expect(clippy::cast_possible_truncation, reason = "one per u32 arena slot")]
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
            self.link_nflows[l] += self.flows.mult[s];
        }
    }

    /// Remove `slot`'s whole group from every path link's flow list
    /// (fixing up the swapped entry's mirrored position), close busy
    /// windows on →0 transitions, and mark the links dirty for the next
    /// recompute.
    #[expect(clippy::cast_possible_truncation, reason = "one per u32 arena slot")]
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
            self.link_nflows[l] -= self.flows.mult[s];
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

    /// Attribute `moved` bytes to each of slot `s`'s links, once per
    /// member counted in `members`.
    fn credit_links(&mut self, s: usize, moved: f64, members: u32) {
        for j in 0..self.flows.path[s].as_slice().len() {
            let l = self.flows.path[s].as_slice()[j].0 as usize;
            for _ in 0..members {
                self.link_stats[l].bytes += moved;
            }
        }
    }

    /// Settle `slot`'s progress to `now` and attribute the moved bytes of
    /// every member to its links. No-op when no time passed since its
    /// anchor.
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
                self.credit_links(s, moved, self.flows.mult[s]);
            }
        }
        self.flows.anchor[s] = self.now;
    }

    /// Assign a freshly computed rate. Bitwise-equal reassignments are
    /// skipped entirely — the flow's anchor, prediction and heap entries
    /// all remain valid. On change: settle, then move the slot's finish
    /// and prediction entries (or drop them when it parks).
    #[expect(clippy::cast_possible_truncation, reason = "clamped to 1e18 ns")]
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
        if new_rate > 0.0 {
            let rem = self.flows.remaining[s];
            let crossing = self.now.0 as f64 + (rem - DONE_EPS) / new_rate;
            self.finish_heap.set(slot, Crossing(crossing));
            let ns = (rem / new_rate).ceil().min(1e18) as u64;
            self.pred_heap
                .set(slot, self.now + SimDuration::from_nanos(ns.max(1)));
        } else {
            self.finish_heap.remove(slot);
            self.pred_heap.remove(slot);
        }
    }

    /// Complete every flow whose eps-crossing has passed, in flow-id
    /// order. A twin group fans out into one completion per member entry
    /// and leaves its links with its last member, where harvesting the
    /// members one by one would detach the last of them. Detached links
    /// are pushed onto `dirty_links` for the subsequent recompute.
    fn fast_harvest(&mut self) {
        let now_f = self.now.0 as f64;
        let mut ripe = std::mem::take(&mut self.harvest);
        ripe.clear();
        while let Some((Crossing(crossing), slot)) = self.finish_heap.peek() {
            if crossing <= now_f {
                self.finish_heap.remove(slot);
                for (id, m) in self.members(slot) {
                    ripe.push((id, m.token, slot, m.count, m.next.is_none()));
                }
            } else {
                break;
            }
        }
        if !ripe.is_empty() {
            ripe.sort_unstable_by_key(|r| r.0);
            for &(id, token, slot, count, last) in &ripe {
                if last {
                    self.fast_release(slot);
                    self.engine_flows_completed += 1;
                }
                let id = FlowId(id);
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.on_flow_closed(id, self.now, FlowOutcome::Finished);
                }
                self.window.retire(id.0);
                self.flows_completed += u64::from(count);
                self.backlog
                    .push_back(Completion::Flow { id, token, count });
            }
        }
        self.harvest = ripe;
    }

    /// Settle `slot`'s whole group, detach it from its links, drop its
    /// heap entries and free the slot.
    fn fast_release(&mut self, slot: u32) {
        self.fast_settle_flow(slot);
        self.fast_detach_links(slot);
        self.finish_heap.remove(slot);
        self.pred_heap.remove(slot);
        self.flows.remove(slot);
    }

    /// Cancel an actively transferring flow entry, all of its logical
    /// flows at once (the post-latency path of [`NetSim::cancel_flow`]).
    pub(crate) fn fast_cancel_active(&mut self, id: FlowId) -> bool {
        let Some(&member) = self.window.member(id.0) else {
            return false;
        };
        let slot = member.slot;
        self.dirty_links.clear();
        self.dirty_flows.clear();
        if self.flows.mult[slot as usize] == member.count {
            self.fast_release(slot);
        } else {
            self.fast_leave_twin(id.0, member);
        }
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_flow_closed(id, self.now, FlowOutcome::Cancelled);
        }
        self.window.retire(id.0);
        self.fast_recompute();
        self.fast_update_check();
        true
    }

    /// Take member `id` out of a twin group that has other members. The
    /// bytes its logical flows moved since the shared anchor are credited
    /// to its links without settling the group, so the remaining members
    /// keep exactly the anchor and remaining bytes they would have alone;
    /// if `id` was the group's representative, the next member takes
    /// over.
    fn fast_leave_twin(&mut self, id: u64, member: Member) {
        let s = member.slot as usize;
        let elapsed = self.now.since(self.flows.anchor[s]).0 as f64;
        let rate = self.flows.rate[s];
        if elapsed > 0.0 && rate > 0.0 {
            let moved = (rate * elapsed).min(self.flows.remaining[s]);
            self.credit_links(s, moved, member.count);
        }
        self.flows.mult[s] -= member.count;
        for j in 0..self.flows.path[s].as_slice().len() {
            let l = self.flows.path[s].as_slice()[j].0;
            self.link_nflows[l as usize] -= member.count;
            self.dirty_links.push(l);
        }
        if self.flows.ids[s] == id {
            if let Some(next) = member.next {
                self.flows.ids[s] = next;
            }
            return;
        }
        let mut prev = self.flows.ids[s];
        while let Some(p) = self.window.member_mut(prev) {
            match p.next {
                Some(next) if next == id => {
                    p.next = member.next;
                    break;
                }
                Some(next) => prev = next,
                None => break,
            }
        }
    }

    /// Recompute max-min fair rates for the connected component(s)
    /// reachable from `dirty_links` / `dirty_flows`.
    ///
    /// The water-fill is the historical global round loop restricted to
    /// the component: same share arithmetic (`cap_left / n`), same global
    /// minimum and `1e-9` threshold grouping, same freeze rounds and
    /// `cap_left` subtractions — so every rate matches a global
    /// water-fill bit for bit while untouched components pay nothing.
    #[expect(clippy::cast_possible_truncation, reason = "LinkId is u32 by design")]
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
        // Freeze order is representative-id order, like the historical
        // pass. Within a round every frozen flow subtracts the same
        // bottleneck, so where a group's other members would have sat in
        // that order changes no `wf_cap` bit.
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
                        self.wf_n[l] -= self.flows.mult[s];
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
            // survivors in place. Each frozen flow's rate is the
            // bottleneck, subtracted once per group member.
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
                    let k = self.flows.mult[s];
                    for j in 0..npath {
                        let l = self.flows.path[s].as_slice()[j].0 as usize;
                        for _ in 0..k {
                            self.wf_cap[l] = (self.wf_cap[l] - rate).max(0.0);
                        }
                        self.wf_n[l] -= k;
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
        // and scanning their members in id order keeps same-instant
        // events in flow-id order.
        if self.obs.is_some() {
            let mut members: Vec<(u64, Member, f64)> = Vec::new();
            for &fs in &comp_flows {
                let rate = self.flows.rate[fs as usize];
                members.extend(self.members(fs).map(|(id, m)| (id, m, rate)));
            }
            members.sort_unstable_by_key(|m| m.0);
            if let Some(obs) = self.obs.as_deref_mut() {
                for (id, m, rate) in members {
                    obs.on_flow_rate(FlowId(id), m.token, m.count, rate, self.now);
                }
            }
        }
        self.wf_unfixed = unfixed;
        self.comp_links = comp_links;
        self.comp_flows = comp_flows;
    }

    /// Refresh the check register from the prediction heap: the earliest
    /// prediction, clamped one nanosecond into the future so a
    /// floating-point corner can never re-arm a check in the past.
    pub(crate) fn fast_update_check(&mut self) {
        self.check = self.pred_heap.peek().map(|(pred, _)| {
            let seq = self.next_seq;
            self.next_seq += 1;
            (pred.max(SimTime(self.now.0 + 1)), seq)
        });
    }
}
