//! Guided plan synthesis: best-first branch-and-bound over partial plans.
//!
//! [`crate::search_cluster_orders`] enumerates all `M!` cluster orders — fine as a
//! reference oracle at 2–4 clusters, hopeless at fleet scale. This module
//! replaces enumeration with an A*-style search over *partial plans*:
//!
//! * **State** — a prefix of the cluster visit order. Under the
//!   order-concatenation assignment ([`assignment_for_order`]) a prefix
//!   pins the devices of logical ranks `0..n`, which fully determines
//!   every data-parallel group whose members all fall below `n`. The
//!   state carries that pinned assignment and the exact cost of each
//!   determined group (the "NIC assignment so far"); degrees and the
//!   partition α enter one level up, where callers fix the
//!   [`GroupLayout`] per candidate `(t, p)`.
//! * **Bound** — the plan cost is a max-fold of per-group costs under one
//!   [`PlacementWorkload`] — gradient sync plus compute-straggler skew
//!   ([`crate::NicSelectionReport::dp_sync_cost_seconds`]) — so the fold
//!   over the *determined* groups is an admissible lower bound: adding
//!   groups can only raise a max of non-negative terms, and at a complete
//!   state the bound *is* the exact cost, bit-for-bit (`f64::max` over
//!   non-negative finite values is fold-order independent). When every
//!   cluster size is a multiple of the stage block `t·d`, each cluster
//!   hosts the same groups wherever it lands, so the fold additionally
//!   includes each unvisited cluster's own future group costs — the
//!   alignment floor that lets aligned fleets plan in `O(M²)` expansions.
//! * **Expansion order** — a min-heap keyed on `(bound, canonical prefix,
//!   seq)`. The canonical key is the prefix relabeled by
//!   [`HolmesScheduler::cluster_order`] position; because the bound is
//!   monotone along a path and a prefix is lexicographically below its
//!   extensions, keys strictly increase along every path, so the *first
//!   complete state popped* is the optimum with the canonical tie-break —
//!   the exact winner [`crate::search_cluster_orders`]'s `CanonicalBest` computes by
//!   enumeration.
//! * **Pruning** — three sound rules, all counted in [`SynthStats`]:
//!   *bound* (a successor whose bound reaches the heuristic incumbent can
//!   never beat it — the incumbent's canonical key `[0, 1, …]` is the
//!   global lexicographic minimum, so it also wins every cost tie);
//!   *dominance* (two states over the same cluster *set* whose partly
//!   placed DP groups hold the same member sets share all future costs,
//!   so the one with the larger `g` and larger canonical prefix is never
//!   part of the canonical winner; [`partial_signature`] keys those sets
//!   in O(clusters) per successor and is empty at boundaries that split
//!   no group); *symmetry* (structurally identical clusters are
//!   interchangeable, and the canonical winner visits the members of each
//!   such class in ascending canonical rank, so only the lowest-ranked
//!   unvisited member of each class is ever appended).
//!
//! The equivalence tests (and the proptest harness in the workspace
//! `tests/`) assert the guided winner matches the exhaustive winner —
//! identical order and bit-equal cost — on every preset small enough to
//! enumerate.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use holmes_netsim::WordHash;
use holmes_topology::{Cluster, ClusterId, Rank, Topology};

use crate::groups::GroupLayout;
use crate::nic_selection::DpGroupNic;
use crate::scheduler::HolmesScheduler;
use crate::search::{assignment_for_order, PlacementSearchResult};
use crate::skew::PlacementWorkload;

/// Position of every cluster in the canonical fastest-first order:
/// `speed_rank_of(topo)[cluster.0] = position` in
/// [`HolmesScheduler::cluster_order`]. This relabeling is the planning
/// stack's shared tie-break alphabet: among equal-cost orders every
/// strategy prefers the one whose relabeled sequence is lexicographically
/// smallest, which makes the heuristic's own order (relabeled `[0, 1, …]`)
/// the canonical winner of any tie it participates in.
#[expect(clippy::cast_possible_truncation, reason = "searches < 2^16 clusters")]
pub fn speed_rank_of(topo: &Topology) -> Vec<u16> {
    let order = HolmesScheduler::cluster_order(topo);
    let mut rank_of = vec![0u16; order.len()];
    for (pos, c) in order.iter().enumerate() {
        rank_of[c.0 as usize] = pos as u16;
    }
    rank_of
}

/// Search statistics of one guided synthesis run.
///
/// Every count is deterministic: expansion order is fixed by the
/// `(bound, canonical prefix, seq)` heap key and nothing in the search
/// consults randomness, thread timing, or the wall clock — the
/// determinism tests pin these counts per topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthStats {
    /// Partial plans popped from the frontier and expanded.
    pub expanded: u64,
    /// Successor states pushed onto the frontier.
    pub pushed: u64,
    /// Successors discarded because their admissible bound already met or
    /// exceeded the heuristic incumbent's cost.
    pub pruned_bound: u64,
    /// Successors discarded by dominance: an already-pushed state over
    /// the same cluster set, with the same partly placed DP-group member
    /// sets, was at least as cheap and canonically smaller.
    pub pruned_dominated: u64,
    /// Successors never generated because a structurally identical
    /// cluster with a smaller canonical rank was expanded instead.
    pub pruned_symmetry: u64,
    /// DP groups actually priced: one per distinct node pattern
    /// ([`DpGroupNic::node_pattern`]) the incumbent and the search met,
    /// every later lookup of the same pattern being a memo hit.
    pub priced: u64,
    /// True when no explored order strictly beat the heuristic incumbent,
    /// i.e. the fastest-first order is itself the canonical winner.
    pub heuristic_won: bool,
}

impl SynthStats {
    /// Total successors discarded across all three pruning rules.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_bound + self.pruned_dominated + self.pruned_symmetry
    }
}

/// One data-parallel group's logical members, ordered by the member that
/// determines it last (its maximum logical rank): the synthesis prices
/// group `det` the moment the order prefix covers rank `max_member`.
struct GroupSpec {
    members: Vec<u32>,
    max_member: u32,
}

fn group_specs(layout: &GroupLayout) -> Vec<GroupSpec> {
    let mut specs: Vec<GroupSpec> = (0..layout.dp_group_count())
        .map(|i| {
            let members = layout.dp_group(i);
            let max_member = members.iter().copied().max().unwrap_or(0);
            GroupSpec {
                members,
                max_member,
            }
        })
        .collect();
    // Stable: groups with the same last member stay in index order.
    specs.sort_by_key(|s| s.max_member);
    specs
}

/// Write the partial-group signature of a prefix that ends at logical
/// boundary `n` into `signature` (cleared first, so callers reuse one
/// buffer): with the visited mask, the dominance key of the prefix.
///
/// DP group `(q, m)` is logical ranks `q·t·d + j·t + m`, so only groups of
/// the stage block holding boundary `n` can be partly placed, and none is
/// when `d = 1` or `n` ends a block. A visited cluster that overlaps that
/// block sits at logical offset `off` and places its local devices
/// `first..` inside it, device `i` joining group `(off + i) mod t`. So one
/// `(speed rank, first, off mod t)` triple per overlapping cluster fixes
/// every partial group's placed member set. The walk goes backward from
/// the prefix end and stops at the block start, so it visits only the
/// overlapping clusters and sorts no member list.
#[expect(clippy::cast_possible_truncation, reason = "offsets inside one block")]
fn partial_signature(
    canon: &[u16],
    size_by_rank: &[usize],
    n: usize,
    (t, d): (usize, usize),
    signature: &mut Vec<(u16, u32, u32)>,
) {
    let block_start = n - n % (t * d);
    signature.clear();
    if d == 1 || block_start == n {
        return;
    }
    let mut end = n;
    for &rank in canon.iter().rev() {
        let off = end - size_by_rank[usize::from(rank)];
        let first = block_start.saturating_sub(off);
        signature.push((rank, first as u32, (off % t) as u32));
        if off <= block_start {
            break;
        }
        end = off;
    }
    signature.sort_unstable();
}

/// Exact per-cluster future group costs, available only when every
/// cluster's device count is a multiple of the stage block `t·d`. Then
/// every cluster occupies whole stage blocks wherever the order places
/// it, each of its groups' devices sit at fixed in-block offsets
/// (`m + j·t`, position-independent), and the max of those group costs is
/// a *floor* the cluster contributes to any completion — admissible, and
/// exact once the cluster is visited.
/// The skew term is included too: a group's straggler tax depends only on
/// its device *set*, which at aligned offsets is position-independent, so
/// the workload-priced floor stays admissible and exact.
fn aligned_solo_costs(
    topo: &Topology,
    layout: &GroupLayout,
    cluster_ranks: &[Vec<Rank>],
    costs: &mut GroupCosts<'_>,
) -> Option<Vec<f64>> {
    let degrees = layout.degrees();
    let (t, d) = (degrees.tensor as usize, degrees.data as usize);
    let block = t * d;
    if block == 0 {
        return None;
    }
    let aligned = topo
        .clusters()
        .iter()
        .all(|c| (c.gpu_count() as usize).is_multiple_of(block));
    if !aligned {
        return None;
    }
    let mut solo = Vec::with_capacity(cluster_ranks.len());
    for ranks in cluster_ranks {
        let mut worst = 0.0f64;
        for base in (0..ranks.len()).step_by(block) {
            for m in 0..t {
                worst = worst.max(costs.cost((0..d).map(|j| ranks[base + m + j * t])));
            }
        }
        solo.push(worst);
    }
    Some(solo)
}

/// One DP group's workload cost. The group index passed to
/// [`DpGroupNic::analyze_group`] is metadata only: the cost depends on the
/// member list, never on the index.
fn group_cost(topo: &Topology, members: Vec<Rank>, workload: PlacementWorkload) -> f64 {
    DpGroupNic::analyze_group(topo, 0, members).workload_cost_seconds(topo, workload)
}

/// Group costs memoized by node pattern for one synthesis call
/// ([`DpGroupNic::node_pattern`]): the same pattern recurs under every
/// order of its clusters and on each of the `t` GPUs of its nodes, and
/// its cost depends on neither (DESIGN.md §10).
struct GroupCosts<'a> {
    topo: &'a Topology,
    workload: PlacementWorkload,
    memo: HashMap<Vec<u32>, f64, WordHash>,
    /// Reused node-pattern buffer.
    pattern: Vec<u32>,
    /// Distinct patterns priced ([`SynthStats::priced`]).
    priced: u64,
}

impl GroupCosts<'_> {
    /// The cost of the group with physical `members`. A hit builds only
    /// the node pattern; a miss collects the member list and prices it.
    /// Debug builds re-price every hit and check the bits.
    fn cost(&mut self, members: impl Iterator<Item = Rank> + Clone) -> f64 {
        DpGroupNic::node_pattern(self.topo, members.clone(), &mut self.pattern);
        if let Some(&cost) = self.memo.get(self.pattern.as_slice()) {
            debug_assert_eq!(
                cost.to_bits(),
                group_cost(self.topo, members.collect(), self.workload).to_bits(),
                "group cost depends on more than its node pattern"
            );
            return cost;
        }
        self.priced += 1;
        let cost = group_cost(self.topo, members.collect(), self.workload);
        self.memo.insert(self.pattern.clone(), cost);
        cost
    }
}

/// Structurally identical clusters (same nodes, switch, oversubscription)
/// are interchangeable: swapping them in any order permutes identical
/// profile numbers, so every group cost — and therefore the plan cost —
/// is bit-identical. Names are labels, not structure.
fn clusters_interchangeable(a: &Cluster, b: &Cluster) -> bool {
    a.nodes == b.nodes
        && a.has_switch == b.has_switch
        && a.oversubscription.total_cmp(&b.oversubscription).is_eq()
}

/// Dominance frontiers keyed by (visited mask, interned
/// [`partial_signature`] id): the Pareto set over `(g, canon)` of the
/// states pushed with that key, each `canon` shared with its heap entry.
/// Only probed, never iterated.
type Frontiers = HashMap<(u128, usize), Vec<(f64, Rc<[u16]>)>, WordHash>;

/// A partial plan on the open list.
struct PartialPlan {
    /// Admissible lower bound on any completion's cost.
    bound: f64,
    /// Speed-rank-relabeled prefix: the canonical tie-break key, and the
    /// visit order itself (`canon[i]` is the position of the `i`-th
    /// visited cluster in [`HolmesScheduler::cluster_order`]). Shared
    /// with the state's dominance-frontier entry.
    canon: Rc<[u16]>,
    /// Insertion sequence number (final, total tie-break).
    seq: u64,
    /// Bitmask of visited clusters (`M ≤ 128`).
    used: u128,
    /// Number of logical ranks the prefix pins (`0..pinned`); the devices
    /// are the visited clusters' ranks concatenated in `canon` order.
    pinned: usize,
    /// Max-fold of the exact sync costs of fully determined DP groups.
    g: f64,
    /// Groups (in [`group_specs`] order) already priced into `g`.
    det: usize,
}

impl PartialEq for PartialPlan {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for PartialPlan {}
impl PartialOrd for PartialPlan {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PartialPlan {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| self.canon.cmp(&other.canon))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

fn result_for(
    topo: &Topology,
    cluster_order: Vec<ClusterId>,
    cost_seconds: f64,
    evaluated: u64,
) -> PlacementSearchResult {
    let assignment = assignment_for_order(topo, &cluster_order);
    PlacementSearchResult {
        cluster_order,
        assignment,
        cost_seconds,
        evaluated,
    }
}

/// Synthesize a placement by guided branch-and-bound, pricing each DP
/// group against `workload`: its gradient-sync cost *plus* its
/// compute-straggler skew at the workload's stage FLOPs (a bare `u64`
/// gradient volume is the zero-FLOPs workload, whose skew terms are
/// exactly `+0.0`). The skew term is non-negative and a function of the
/// group's device set alone, so the bound stays admissible and exact at
/// completion.
///
/// Returns the canonical winner — the same order, assignment, and
/// bit-equal cost [`crate::search_cluster_orders`] would find by
/// enumerating all `M!` orders — plus the search statistics.
///
/// Topologies beyond 128 clusters exceed the visited-set mask; the
/// heuristic order is returned unchanged (a valid plan, not certified
/// optimal) with `heuristic_won` set.
#[expect(clippy::cast_possible_truncation, reason = "c < cluster_count()")]
pub fn synthesize_placement(
    topo: &Topology,
    layout: &GroupLayout,
    workload: impl Into<PlacementWorkload>,
) -> (PlacementSearchResult, SynthStats) {
    let workload = workload.into();
    let m = topo.cluster_count() as usize;
    let heuristic_order = HolmesScheduler::cluster_order(topo);
    let specs = group_specs(layout);
    let mut stats = SynthStats::default();
    let mut evaluated: u64 = 1; // the heuristic incumbent

    let mut costs = GroupCosts {
        topo,
        workload,
        memo: HashMap::default(),
        pattern: Vec::new(),
        priced: 0,
    };
    // The incumbent folds the same per-group costs `cost_of_order` does,
    // through the memo: `f64::max` over non-negative finite values is
    // fold-order independent, so the bits agree.
    let heuristic = assignment_for_order(topo, &heuristic_order);
    let heuristic_cost = specs.iter().fold(0.0f64, |worst, spec| {
        worst.max(costs.cost(spec.members.iter().map(|&l| heuristic.device_of(l))))
    });

    if m <= 1 || m > 128 {
        stats.heuristic_won = true;
        stats.priced = costs.priced;
        return (
            result_for(topo, heuristic_order, heuristic_cost, evaluated),
            stats,
        );
    }

    let rank_of = speed_rank_of(topo);
    let cluster_ranks: Vec<Vec<Rank>> = (0..m)
        .map(|c| topo.cluster_ranks(ClusterId(c as u32)))
        .collect();
    let size_by_rank: Vec<usize> = heuristic_order
        .iter()
        .map(|c| cluster_ranks[c.0 as usize].len())
        .collect();
    let degrees = layout.degrees();
    let td = (degrees.tensor as usize, degrees.data as usize);

    let solo = aligned_solo_costs(topo, layout, &cluster_ranks, &mut costs);
    let h_of = |used: u128| -> f64 {
        match &solo {
            Some(costs) => costs
                .iter()
                .enumerate()
                .filter(|&(c, _)| used & (1u128 << c) == 0)
                .fold(0.0f64, |worst, (_, &cost)| worst.max(cost)),
            None => 0.0,
        }
    };

    // class_of[c] = smallest cluster index structurally identical to c.
    let clusters = topo.clusters();
    let mut class_of: Vec<usize> = (0..m).collect();
    for i in 0..m {
        if let Some(j) = (0..i)
            .filter(|&j| class_of[j] == j)
            .find(|&j| clusters_interchangeable(&clusters[i], &clusters[j]))
        {
            class_of[i] = j;
        }
    }

    let mut heap: BinaryHeap<Reverse<PartialPlan>> = BinaryHeap::new();
    // An entry dominates a candidate with the same key when it is at
    // least as cheap *and* canonically smaller — then every completion of
    // the candidate is matched by a no-worse, canonically smaller one.
    let mut frontier = Frontiers::default();
    let mut signature_ids: HashMap<Vec<(u16, u32, u32)>, usize, WordHash> = HashMap::default();
    let mut seq: u64 = 0;
    // Scratch reused by every expansion: the popped state's pinned
    // devices (successors truncate back to them), the candidate prefix
    // and its partial-group signature.
    let mut devices: Vec<Rank> = Vec::with_capacity(topo.device_count() as usize);
    let mut candidate: Vec<u16> = Vec::with_capacity(m);
    let mut signature: Vec<(u16, u32, u32)> = Vec::new();

    let root_bound = h_of(0);
    if root_bound.total_cmp(&heuristic_cost).is_lt() {
        heap.push(Reverse(PartialPlan {
            bound: root_bound,
            canon: Rc::from(&[][..]),
            seq,
            used: 0,
            pinned: 0,
            g: 0.0,
            det: 0,
        }));
        stats.pushed += 1;
    } else {
        stats.pruned_bound += 1;
    }

    let mut winner: Option<PartialPlan> = None;
    while let Some(Reverse(state)) = heap.pop() {
        debug_assert!(state.bound.total_cmp(&heuristic_cost).is_lt());
        if state.canon.len() == m {
            // First complete pop = minimal (cost, canonical order): keys
            // strictly increase along paths, so no cheaper or canonically
            // smaller completion can still be hiding behind an open node.
            evaluated += 1;
            winner = Some(state);
            break;
        }
        stats.expanded += 1;
        devices.clear();
        for &rank in state.canon.iter() {
            devices
                .extend_from_slice(&cluster_ranks[heuristic_order[usize::from(rank)].0 as usize]);
        }
        debug_assert_eq!(devices.len(), state.pinned);
        let mut seen_classes: u128 = 0;
        for c in 0..m {
            if state.used & (1u128 << c) != 0 {
                continue;
            }
            let class = class_of[c];
            if seen_classes & (1u128 << class) != 0 {
                stats.pruned_symmetry += 1;
                continue;
            }
            seen_classes |= 1u128 << class;

            devices.truncate(state.pinned);
            devices.extend_from_slice(&cluster_ranks[c]);
            let n_new = devices.len();
            let mut g = state.g;
            let mut det = state.det;
            while det < specs.len() && (specs[det].max_member as usize) < n_new {
                g = g.max(costs.cost(specs[det].members.iter().map(|&l| devices[l as usize])));
                det += 1;
            }
            let used = state.used | (1u128 << c);
            let bound = g.max(h_of(used));
            if bound.total_cmp(&heuristic_cost).is_ge() {
                stats.pruned_bound += 1;
                continue;
            }
            candidate.clear();
            candidate.extend_from_slice(&state.canon);
            candidate.push(rank_of[c]);
            partial_signature(&candidate, &size_by_rank, n_new, td, &mut signature);
            let next_id = signature_ids.len();
            let signature_id = match signature_ids.get(signature.as_slice()) {
                Some(&id) => id,
                None => {
                    signature_ids.insert(signature.clone(), next_id);
                    next_id
                }
            };
            let entries = frontier.entry((used, signature_id)).or_default();
            if entries
                .iter()
                .any(|(g2, c2)| g2.total_cmp(&g).is_le() && **c2 < *candidate)
            {
                stats.pruned_dominated += 1;
                continue;
            }
            entries.retain(|(g2, c2)| !(g.total_cmp(g2).is_le() && *candidate < **c2));
            let canon: Rc<[u16]> = Rc::from(candidate.as_slice());
            entries.push((g, Rc::clone(&canon)));
            seq += 1;
            stats.pushed += 1;
            heap.push(Reverse(PartialPlan {
                bound,
                canon,
                seq,
                used,
                pinned: n_new,
                g,
                det,
            }));
        }
    }
    stats.priced = costs.priced;

    match winner {
        Some(goal) => {
            let order = goal
                .canon
                .iter()
                .map(|&rank| heuristic_order[usize::from(rank)])
                .collect();
            (result_for(topo, order, goal.g, evaluated), stats)
        }
        None => {
            stats.heuristic_won = true;
            (
                result_for(topo, heuristic_order, heuristic_cost, evaluated),
                stats,
            )
        }
    }
}

/// Guided branch-and-bound synthesis behind a unit type: returns the
/// exhaustive oracle's exact winner without enumerating `M!` orders, and
/// scales to fleets where enumeration cannot go. The type exists because
/// the end-to-end benchmark (`holmes_e2e`) calls
/// [`GuidedPlanner::plan_workload_with_stats`] and passes `&GuidedPlanner`
/// to [`crate::replan_for_delta`]; everything else calls
/// [`synthesize_placement`] directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuidedPlanner;

impl GuidedPlanner {
    /// [`synthesize_placement`]: the placement plus the search statistics
    /// (expanded/pruned node counts — deterministic per topology).
    pub fn plan_workload_with_stats(
        &self,
        topo: &Topology,
        layout: &GroupLayout,
        workload: impl Into<PlacementWorkload>,
    ) -> (PlacementSearchResult, SynthStats) {
        synthesize_placement(topo, layout, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrees::ParallelDegrees;
    use crate::nic_selection::NicSelectionReport;
    use crate::search::{cost_of_order, search_cluster_orders};
    use holmes_topology::{presets, NicType};

    const GRAD: u64 = 1 << 32; // 4 GiB, PG-scale

    fn layout_for(topo: &Topology, t: u32, p: u32) -> GroupLayout {
        GroupLayout::new(ParallelDegrees::infer_data(t, p, topo.device_count()).unwrap())
    }

    fn assert_matches_exhaustive(topo: &Topology, t: u32, p: u32) {
        let layout = layout_for(topo, t, p);
        let exhaustive = search_cluster_orders(topo, &layout, GRAD);
        let (guided, _) = synthesize_placement(topo, &layout, GRAD);
        assert_eq!(
            guided.cluster_order, exhaustive.cluster_order,
            "t={t} p={p}"
        );
        assert_eq!(
            guided.cost_seconds.to_bits(),
            exhaustive.cost_seconds.to_bits(),
            "t={t} p={p}: guided {} vs exhaustive {}",
            guided.cost_seconds,
            exhaustive.cost_seconds
        );
        assert_eq!(guided.assignment, exhaustive.assignment);
    }

    #[test]
    fn guided_matches_exhaustive_on_every_preset() {
        for (topo, ps) in [
            (presets::hybrid_two_cluster(2), vec![1u32, 2]),
            (presets::hybrid_split(3, 1), vec![1, 2, 4]),
            (
                presets::same_nic_two_clusters(NicType::InfiniBand, 2),
                vec![1, 2],
            ),
            (presets::table4_2r_2r_2ib(), vec![1, 2, 3]),
            (presets::table4_2r_2ib_2ib(), vec![1, 2, 3]),
            (presets::table4_4r_4ib_4ib(), vec![2, 3]),
        ] {
            for p in ps {
                assert_matches_exhaustive(&topo, 1, p);
            }
        }
        // Non-trivial tensor degree too.
        assert_matches_exhaustive(&presets::table4_2r_2ib_2ib(), 2, 3);
        assert_matches_exhaustive(&presets::hybrid_two_cluster(2), 4, 2);
    }

    #[test]
    fn guided_breaks_ties_toward_the_heuristic_order() {
        // Aligned three-cluster preset: every order costs the same, so the
        // guided planner must return the fastest-first canonical order.
        let topo = presets::table4_2r_2ib_2ib();
        let layout = layout_for(&topo, 1, 3);
        let (result, stats) = synthesize_placement(&topo, &layout, GRAD);
        assert_eq!(result.cluster_order, HolmesScheduler::cluster_order(&topo));
        assert!(stats.heuristic_won);
    }

    #[test]
    fn guided_beats_heuristic_when_heuristic_is_suboptimal() {
        // If the guided planner reports a strict win, its cost must be
        // strictly below the heuristic's and must verify against a direct
        // re-score of the returned order.
        let topo = presets::table4_2r_2ib_2ib();
        let layout = layout_for(&topo, 1, 2); // unaligned: stages span clusters
        let (result, _) = synthesize_placement(&topo, &layout, GRAD);
        let rescored = cost_of_order(&topo, &layout, &result.cluster_order, GRAD.into());
        assert_eq!(result.cost_seconds.to_bits(), rescored.to_bits());
        let heuristic = HolmesScheduler::cluster_order(&topo);
        let heuristic_cost = cost_of_order(&topo, &layout, &heuristic, GRAD.into());
        assert!(result.cost_seconds.total_cmp(&heuristic_cost).is_le());
    }

    #[test]
    fn synthesis_statistics_are_deterministic() {
        let topo = presets::table4_4r_4ib_4ib();
        let layout = layout_for(&topo, 1, 2);
        let (r1, s1) = synthesize_placement(&topo, &layout, GRAD);
        let (r2, s2) = synthesize_placement(&topo, &layout, GRAD);
        assert_eq!(s1, s2);
        assert_eq!(r1.cluster_order, r2.cluster_order);
        assert_eq!(r1.cost_seconds.to_bits(), r2.cost_seconds.to_bits());
    }

    #[test]
    fn heuristic_exhaustive_and_guided_agree_on_small_topologies() {
        // All three agree here because the heuristic is optimal on the
        // aligned paper presets; the guided/exhaustive pair must agree
        // everywhere.
        let topo = presets::table4_2r_2r_2ib();
        let layout = layout_for(&topo, 1, 3);
        let heuristic = HolmesScheduler::cluster_order(&topo);
        let heuristic_cost = cost_of_order(&topo, &layout, &heuristic, GRAD.into());
        let exhaustive = search_cluster_orders(&topo, &layout, GRAD);
        let (guided, _) = synthesize_placement(&topo, &layout, GRAD);
        for r in [&exhaustive, &guided] {
            assert_eq!(r.cluster_order, heuristic);
            assert_eq!(r.cost_seconds.to_bits(), heuristic_cost.to_bits());
        }
    }

    #[test]
    fn single_cluster_synthesis_is_trivial() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let layout = layout_for(&topo, 1, 2);
        let (result, stats) = synthesize_placement(&topo, &layout, GRAD);
        assert_eq!(result.cluster_order, vec![ClusterId(0)]);
        assert_eq!(stats.expanded, 0);
        assert!(stats.heuristic_won);
    }

    #[test]
    fn guided_matches_exhaustive_under_compute_skew() {
        // The bound must stay admissible when every group cost carries a
        // straggler-skew term: the guided winner must still be the
        // exhaustive oracle's exact winner on mixed-generation fleets.
        let workload = PlacementWorkload::new(GRAD, 2.5e13);
        for (topo, ps) in [
            (presets::gen_mix_3c(), vec![1u32, 2, 3]),
            (presets::gen_split_2c(), vec![1, 2]),
            (presets::table4_2r_2ib_2ib(), vec![2, 3]),
        ] {
            for p in ps {
                let layout = layout_for(&topo, 1, p);
                let exhaustive = search_cluster_orders(&topo, &layout, workload);
                let (guided, _) = synthesize_placement(&topo, &layout, workload);
                assert_eq!(guided.cluster_order, exhaustive.cluster_order, "p={p}");
                assert_eq!(
                    guided.cost_seconds.to_bits(),
                    exhaustive.cost_seconds.to_bits(),
                    "p={p}: guided {} vs exhaustive {}",
                    guided.cost_seconds,
                    exhaustive.cost_seconds
                );
            }
        }
    }

    #[test]
    fn skew_pricing_prefers_generation_pure_dp_groups() {
        // Two NIC-identical clusters of different generations: gradient-only
        // pricing sees a tie, but once stage FLOPs enter, any order whose
        // DP groups straddle generations pays the straggler tax. The
        // aligned p=2 layout keeps each group inside one cluster, so its
        // workload cost must stay equal to its sync-only cost.
        let topo = presets::gen_split_2c();
        let layout = layout_for(&topo, 1, 2);
        let workload = PlacementWorkload::new(GRAD, 2.5e13);
        let priced = synthesize_placement(&topo, &layout, workload).0;
        let sync_only = synthesize_placement(&topo, &layout, GRAD).0;
        assert_eq!(
            priced.cost_seconds.to_bits(),
            sync_only.cost_seconds.to_bits(),
            "generation-pure groups must pay zero skew"
        );
        // An unaligned layout (p=1: one stage spans both generations)
        // must price a strictly positive skew term.
        let unaligned = layout_for(&topo, 1, 1);
        let priced = synthesize_placement(&topo, &unaligned, workload).0;
        let sync_only = synthesize_placement(&topo, &unaligned, GRAD).0;
        assert!(
            priced.cost_seconds > sync_only.cost_seconds,
            "generation-straddling groups must pay the straggler tax: {} vs {}",
            priced.cost_seconds,
            sync_only.cost_seconds
        );
    }

    #[test]
    fn partial_signature_keys_the_clusters_in_the_open_block() {
        // t = 2, d = 3: stage blocks of 6 ranks. Clusters of 4, 3 and 2
        // devices visited in speed-rank order end at boundary 9, inside
        // block [6, 12): rank 1 enters it at local device 2 from offset 4,
        // rank 2 whole from offset 7.
        let sizes = [4, 3, 2];
        let mut signature = Vec::new();
        partial_signature(&[0, 1, 2], &sizes, 9, (2, 3), &mut signature);
        assert_eq!(signature, vec![(1, 2, 0), (2, 0, 1)]);
        // A boundary that ends a block, or d = 1, splits no group.
        partial_signature(&[0, 2], &sizes, 6, (2, 3), &mut signature);
        assert!(signature.is_empty());
        partial_signature(&[0, 1, 2], &sizes, 9, (2, 1), &mut signature);
        assert!(signature.is_empty());
    }

    #[test]
    fn speed_rank_is_the_inverse_of_cluster_order() {
        let topo = presets::table4_2r_2ib_2ib();
        let order = HolmesScheduler::cluster_order(&topo);
        let rank = speed_rank_of(&topo);
        for (pos, c) in order.iter().enumerate() {
            assert_eq!(rank[c.0 as usize] as usize, pos);
        }
    }

    #[test]
    fn symmetry_pruning_collapses_identical_clusters() {
        // 4 identical clusters, aligned: the alignment floor makes every
        // bound equal the (tied) optimum, so the incumbent survives and
        // the search terminates immediately on the root bound.
        let topo = presets::three_cluster([
            (2, NicType::InfiniBand),
            (2, NicType::InfiniBand),
            (2, NicType::InfiniBand),
        ]);
        let layout = layout_for(&topo, 1, 3);
        let (result, stats) = synthesize_placement(&topo, &layout, GRAD);
        assert!(stats.heuristic_won);
        assert_eq!(result.cluster_order, HolmesScheduler::cluster_order(&topo));
        assert_eq!(stats.expanded, 0, "{stats:?}");
        // And the exhaustive oracle agrees on the winner.
        let exhaustive = search_cluster_orders(&topo, &layout, GRAD);
        assert_eq!(result.cluster_order, exhaustive.cluster_order);
        assert_eq!(
            result.cost_seconds.to_bits(),
            exhaustive.cost_seconds.to_bits()
        );
    }

    #[test]
    fn dp_group_cost_fold_is_order_independent() {
        // The bound's exactness at completion rests on max-folds over the
        // same group costs agreeing regardless of fold order.
        let topo = presets::table4_2r_2ib_2ib();
        let layout = layout_for(&topo, 1, 2);
        let order = HolmesScheduler::cluster_order(&topo);
        let assignment = assignment_for_order(&topo, &order);
        let report = NicSelectionReport::analyze(&topo, &layout, &assignment);
        let forward = report
            .groups
            .iter()
            .fold(0.0f64, |w, g| w.max(g.sync_cost_seconds(&topo, GRAD)));
        let reverse = report
            .groups
            .iter()
            .rev()
            .fold(0.0f64, |w, g| w.max(g.sync_cost_seconds(&topo, GRAD)));
        assert_eq!(forward.to_bits(), reverse.to_bits());
        assert_eq!(
            forward.to_bits(),
            report.dp_sync_cost_seconds(&topo, GRAD).to_bits()
        );
    }
}
