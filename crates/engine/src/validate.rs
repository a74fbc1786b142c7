//! Static validation of [`ExecutionSpec`]s.
//!
//! The executor detects deadlocks *dynamically* (the simulation drains with
//! blocked devices), but a structurally broken spec — an unmatched receive,
//! a collective op on a non-member, an id out of range — is cheaper to
//! catch before any simulation runs. Schedule generators are tested against
//! this validator. `execute` refuses every hard defect (all but unmatched
//! sends and receives) with [`crate::ExecError::InvalidSpec`] in every build
//! profile, through its own linear setup walk; this validator lists every
//! defect and is that walk's reference oracle.
//!
//! All bookkeeping uses `BTreeMap`/`BTreeSet`: a multi-defect spec must
//! report its errors in one deterministic (key-sorted) order, run to run —
//! iterating a `HashMap` here would leak `RandomState` into the error list
//! (and fail the determinism lint's `clippy::iter_over_hash_type`).

use std::collections::{BTreeMap, BTreeSet};

use holmes_topology::Rank;

use crate::executor::ExecutionSpec;
use crate::ops::{MsgKey, Op};

/// A structural defect in an execution spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A `Recv` whose `MsgKey` no `Send` produces.
    UnmatchedRecv(MsgKey),
    /// A `Send` whose `MsgKey` no `Recv` consumes (leaked transfer).
    UnmatchedSend(MsgKey),
    /// Two sends (or two recvs) share one key — delivery would be ambiguous.
    DuplicateKey(MsgKey),
    /// A send posted by a device other than `key.from`, or a recv on a
    /// device other than `key.to`.
    MisroutedOp(MsgKey),
    /// `CollStart`/`CollWait` references a collective id out of range.
    UnknownCollective(u32),
    /// A device issues ops for a collective it is not a member of.
    NotACollectiveMember {
        /// The collective id.
        id: u32,
        /// The offending device.
        device: Rank,
    },
    /// A member device never starts a collective it must participate in
    /// (every member appearing in any program must arrive or the launch
    /// blocks forever).
    MissingCollStart {
        /// The collective id.
        id: u32,
        /// The member that never arrives.
        device: Rank,
    },
    /// A `CollWait` with no preceding `CollStart` on the same device.
    WaitBeforeStart {
        /// The collective id.
        id: u32,
        /// The waiting device.
        device: Rank,
    },
    /// A device starts one collective twice: its second start would
    /// count as another member's arrival.
    RepeatedCollStart {
        /// The collective id.
        id: u32,
        /// The device starting it again.
        device: Rank,
    },
    /// A collective lists one device twice: it waits for one arrival
    /// per listed member, so it would never launch.
    DuplicateMember {
        /// The collective id.
        id: u32,
        /// The device listed again.
        device: Rank,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnmatchedRecv(k) => write!(f, "recv with no matching send: {k:?}"),
            SpecError::UnmatchedSend(k) => write!(f, "send with no matching recv: {k:?}"),
            SpecError::DuplicateKey(k) => write!(f, "duplicate message key: {k:?}"),
            SpecError::MisroutedOp(k) => write!(f, "op on the wrong device for key {k:?}"),
            SpecError::UnknownCollective(id) => write!(f, "unknown collective id {id}"),
            SpecError::NotACollectiveMember { id, device } => {
                write!(f, "{device} uses collective {id} without being a member")
            }
            SpecError::MissingCollStart { id, device } => {
                write!(f, "member {device} never starts collective {id}")
            }
            SpecError::WaitBeforeStart { id, device } => {
                write!(f, "{device} waits on collective {id} before starting it")
            }
            SpecError::RepeatedCollStart { id, device } => {
                write!(f, "{device} starts collective {id} twice")
            }
            SpecError::DuplicateMember { id, device } => {
                write!(f, "collective {id} lists {device} twice")
            }
        }
    }
}

/// Validate a spec; returns every defect found (empty = structurally sound).
#[expect(clippy::cast_possible_truncation, reason = "collective ids are u32")]
pub fn validate_spec(spec: &ExecutionSpec) -> Vec<SpecError> {
    let mut errors = Vec::new();
    let mut sends: BTreeMap<MsgKey, u32> = BTreeMap::new();
    let mut recvs: BTreeMap<MsgKey, u32> = BTreeMap::new();
    let mut members: Vec<BTreeSet<Rank>> = vec![BTreeSet::new(); spec.collectives.len()];
    for (id, c) in (0u32..).zip(&spec.collectives) {
        for &device in &c.devices {
            if !members[id as usize].insert(device) {
                errors.push(SpecError::DuplicateMember { id, device });
            }
        }
    }
    // Which devices actually appear in programs (a collective member with
    // no program at all cannot arrive).
    let mut started: Vec<BTreeSet<Rank>> = vec![BTreeSet::new(); spec.collectives.len()];
    let mut used: Vec<bool> = vec![false; spec.collectives.len()];

    for &(device, ref ops) in &spec.programs {
        let mut started_here: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match *op {
                Op::Send { key, .. } | Op::Recv { key } => {
                    let (owner, posted) = match op {
                        Op::Send { .. } => (key.from, &mut sends),
                        _ => (key.to, &mut recvs),
                    };
                    if owner != device {
                        errors.push(SpecError::MisroutedOp(key));
                    }
                    *posted.entry(key).or_insert(0) += 1;
                }
                Op::CollStart { id } | Op::CollWait { id } => {
                    let start = matches!(op, Op::CollStart { .. });
                    match members.get(id as usize) {
                        None => errors.push(SpecError::UnknownCollective(id)),
                        Some(m) if !m.contains(&device) => {
                            errors.push(SpecError::NotACollectiveMember { id, device })
                        }
                        Some(_) => {
                            used[id as usize] = true;
                            if start {
                                started[id as usize].insert(device);
                                if !started_here.insert(id) {
                                    errors.push(SpecError::RepeatedCollStart { id, device })
                                }
                            } else if !started_here.contains(&id) {
                                errors.push(SpecError::WaitBeforeStart { id, device })
                            }
                        }
                    }
                }
                Op::Compute { .. } => {}
            }
        }
    }

    for (&key, &count) in &sends {
        if count > 1 {
            errors.push(SpecError::DuplicateKey(key));
        }
        if !recvs.contains_key(&key) {
            errors.push(SpecError::UnmatchedSend(key));
        }
    }
    for (&key, &count) in &recvs {
        if count > 1 {
            errors.push(SpecError::DuplicateKey(key));
        }
        if !sends.contains_key(&key) {
            errors.push(SpecError::UnmatchedRecv(key));
        }
    }

    let programmed: BTreeSet<Rank> = spec.programs.iter().map(|(d, _)| *d).collect();
    for (id, m) in members.iter().enumerate() {
        if !used[id] {
            continue; // entirely unused collective: harmless
        }
        for &device in m {
            if programmed.contains(&device) && !started[id].contains(&device) {
                errors.push(SpecError::MissingCollStart {
                    id: id as u32,
                    device,
                });
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_iteration, EngineConfig, ScheduleKind};
    use crate::class_oracle::{built, dp_sync, nic, schedule};
    use crate::dp_sync::DpSyncStrategy;
    use crate::executor::{execute, CollKind, CollectiveSpec, ExecError};
    use crate::ops::{Channel, ComputeLabel};
    use holmes_model::ParameterGroup;
    use holmes_parallel::{
        GroupLayout, HolmesScheduler, ParallelDegrees, ParallelPlan, UniformPartition,
    };
    use holmes_topology::{presets, Rank};
    use proptest::prelude::*;

    fn key(from: u32, to: u32, mb: u32) -> MsgKey {
        MsgKey {
            from: Rank(from),
            to: Rank(to),
            channel: Channel::Activation,
            microbatch: mb,
            chunk: 0,
        }
    }

    #[test]
    fn builder_output_is_always_valid() {
        // Every depth × schedule × strategy × recompute combination the
        // builder can produce must pass static validation and execute.
        let topo = presets::hybrid_two_cluster(2);
        let pg = ParameterGroup::table2(1);
        let job = pg.job();
        let mut built = 0;
        for p in [1u32, 2, 4] {
            let degrees = ParallelDegrees::infer_data(1, p, topo.device_count()).unwrap();
            let layout = GroupLayout::new(degrees);
            let assignment = HolmesScheduler::assign(&topo);
            let layers = UniformPartition.partition(30, &vec![1.0; p as usize]);
            let plan = ParallelPlan::new(layout, assignment, layers, true);
            for schedule in [
                ScheduleKind::GPipe,
                ScheduleKind::OneFOneB,
                ScheduleKind::Interleaved { virtual_stages: 1 },
                ScheduleKind::Interleaved { virtual_stages: 2 },
                ScheduleKind::Interleaved { virtual_stages: 3 },
            ] {
                for dp_sync in [
                    DpSyncStrategy::AllReduce,
                    DpSyncStrategy::DistributedOptimizer,
                    DpSyncStrategy::overlapped(),
                    DpSyncStrategy::Zero3,
                    DpSyncStrategy::parameter_server(),
                ] {
                    for recompute_activations in [false, true] {
                        let cfg = EngineConfig {
                            schedule,
                            dp_sync,
                            recompute_activations,
                            ..EngineConfig::default()
                        };
                        let case =
                            format!("p={p} {schedule:?}/{dp_sync:?}/{recompute_activations}");
                        let spec = match build_iteration(&topo, &plan, &job, &cfg) {
                            Err(crate::builder::BuildError::InterleavedIndivisible { .. }) => {
                                continue
                            }
                            other => other.unwrap_or_else(|e| panic!("{case}: {e}")),
                        };
                        let errors = validate_spec(&spec);
                        assert!(errors.is_empty(), "{case}: {errors:?}");
                        crate::executor::execute(&topo, spec)
                            .unwrap_or_else(|e| panic!("{case}: {e}"));
                        built += 1;
                    }
                }
            }
        }
        assert!(built >= 100, "only {built} cells built");
    }

    /// The defects `execute` refuses: all but unmatched sends and
    /// receives, which it leaves to the run.
    fn hard(spec: &ExecutionSpec) -> Vec<SpecError> {
        validate_spec(spec)
            .into_iter()
            .filter(|d| !matches!(d, SpecError::UnmatchedRecv(_) | SpecError::UnmatchedSend(_)))
            .collect()
    }

    /// Apply one structural mutation to a built spec: re-home a send or
    /// receive onto another device (`kind` 0); move a `CollStart` to a
    /// non-member (1) or post a copy there (2); drop one (3), or its
    /// `CollWait`s too (4); swap one with its `CollWait` (5); or post it
    /// twice (6). `pick` chooses the op, `to` where it goes. Or repeat a
    /// member of collective `pick` at position `to` of its list (7).
    /// Returns false when the spec has no op the mutation applies to.
    fn mutate(spec: &mut ExecutionSpec, kind: u8, pick: usize, to: usize) -> bool {
        if kind == 7 {
            let colls = spec.collectives.len().max(1);
            let Some(c) = spec.collectives.get_mut(pick % colls) else {
                return false;
            };
            let member = c.devices[pick % c.devices.len()];
            c.devices.insert(to % (c.devices.len() + 1), member);
            return true;
        }
        let sites: Vec<(usize, usize)> = spec
            .programs
            .iter()
            .enumerate()
            .flat_map(|(p, (_, ops))| (0..ops.len()).map(move |i| (p, i)))
            .filter(|&(p, i)| match spec.programs[p].1[i] {
                Op::Send { .. } | Op::Recv { .. } => kind == 0,
                Op::CollStart { .. } => kind != 0,
                _ => false,
            })
            .collect();
        if sites.is_empty() || spec.programs.len() < 2 {
            return false;
        }
        let (p, i) = sites[pick % sites.len()];
        let programs = &mut spec.programs;
        let op = programs[p].1[i];
        let id = match op {
            Op::CollStart { id } => id,
            _ => u32::MAX,
        };
        let outsiders: Vec<usize> = match kind {
            0 => (0..programs.len()).filter(|&q| q != p).collect(),
            1 | 2 => {
                let members = &spec.collectives[id as usize].devices;
                let outside = |q: &usize| !members.contains(&programs[*q].0);
                (0..programs.len()).filter(outside).collect()
            }
            _ => Vec::new(),
        };
        match kind {
            0..=2 if outsiders.is_empty() => return false,
            0..=2 => {
                if kind != 2 {
                    programs[p].1.remove(i);
                }
                let q = outsiders[to % outsiders.len()];
                let at = to % (programs[q].1.len() + 1);
                programs[q].1.insert(at, op);
            }
            3 | 4 => {
                programs[p].1.remove(i);
                if kind == 4 {
                    programs[p].1.retain(|o| *o != Op::CollWait { id });
                }
            }
            5 => {
                let wait = Op::CollWait { id };
                let Some(j) = programs[p].1[i..].iter().position(|o| *o == wait) else {
                    return false;
                };
                programs[p].1.swap(i, i + j);
            }
            _ => {
                let len = programs[p].1.len();
                programs[p].1.insert(i + 1 + to % (len - i), op);
            }
        }
        true
    }

    proptest! {
        /// `execute` refuses a structurally mutated built iteration with
        /// one of the validator's hard defects exactly when the validator
        /// finds any, and runs the unmutated iteration.
        #[test]
        fn spec_mutations_are_refused_iff_validate_spec_finds_a_hard_defect(
            fleet in (0u8..4, 1u32..=4, nic()),
            shape in (
                prop::sample::select(vec![1u32, 2, 4]),
                prop::sample::select(vec![1u32, 2, 4]),
            ),
            (dp, sched) in (dp_sync(), schedule()),
            (kind, pick, to) in (0u8..8, 0usize..usize::MAX, 0usize..usize::MAX),
        ) {
            let cfg = EngineConfig {
                schedule: sched,
                dp_sync: dp,
                ..EngineConfig::default()
            };
            let fitted = built(fleet, shape, &cfg);
            prop_assume!(fitted.is_some());
            let (topo, mut spec) = fitted.expect("prop_assume! rejected shapes that do not fit");
            prop_assert!(execute(&topo, spec.clone()).is_ok());
            prop_assume!(mutate(&mut spec, kind, pick, to));
            let hard = hard(&spec);
            match execute(&topo, spec) {
                Err(ExecError::InvalidSpec(d)) => {
                    prop_assert!(hard.contains(&d), "{d} not in {hard:?}")
                }
                other => prop_assert!(
                    hard.is_empty(),
                    "{hard:?} but {:?}",
                    other.map(|r| r.total_seconds)
                ),
            }
        }
    }

    #[test]
    fn unmatched_recv_detected() {
        let spec = ExecutionSpec {
            programs: vec![(Rank(0), vec![Op::Recv { key: key(1, 0, 0) }])],
            collectives: vec![],
            transport: Default::default(),
        };
        assert_eq!(
            validate_spec(&spec),
            vec![SpecError::UnmatchedRecv(key(1, 0, 0))]
        );
    }

    #[test]
    fn unmatched_send_detected() {
        let spec = ExecutionSpec {
            programs: vec![(
                Rank(0),
                vec![Op::Send {
                    key: key(0, 1, 0),
                    bytes: 8,
                }],
            )],
            collectives: vec![],
            transport: Default::default(),
        };
        assert_eq!(
            validate_spec(&spec),
            vec![SpecError::UnmatchedSend(key(0, 1, 0))]
        );
    }

    #[test]
    fn misrouted_and_duplicate_detected() {
        let spec = ExecutionSpec {
            programs: vec![
                // Device 5 sending with from=0: misrouted.
                (
                    Rank(5),
                    vec![Op::Send {
                        key: key(0, 1, 0),
                        bytes: 8,
                    }],
                ),
                (
                    Rank(1),
                    vec![
                        Op::Recv { key: key(0, 1, 0) },
                        Op::Recv { key: key(0, 1, 0) },
                    ],
                ),
            ],
            collectives: vec![],
            transport: Default::default(),
        };
        let errors = validate_spec(&spec);
        assert!(errors.contains(&SpecError::MisroutedOp(key(0, 1, 0))));
        assert!(errors.contains(&SpecError::DuplicateKey(key(0, 1, 0))));
    }

    #[test]
    fn collective_defects_detected() {
        let coll = CollectiveSpec::new(CollKind::AllReduce, vec![Rank(0), Rank(1)], 8);
        let spec = ExecutionSpec {
            programs: vec![
                // Member 0 waits without starting.
                (Rank(0), vec![Op::CollWait { id: 0 }]),
                // Member 1 never shows up for the collective at all but has
                // a program.
                (
                    Rank(1),
                    vec![Op::Compute {
                        label: ComputeLabel::Optimizer,
                        seconds: 0.1,
                    }],
                ),
                // Device 2 is not a member; unknown id 7 too.
                (
                    Rank(2),
                    vec![Op::CollStart { id: 0 }, Op::CollStart { id: 7 }],
                ),
            ],
            collectives: vec![coll],
            transport: Default::default(),
        };
        let errors = validate_spec(&spec);
        assert!(errors.contains(&SpecError::WaitBeforeStart {
            id: 0,
            device: Rank(0)
        }));
        assert!(errors.contains(&SpecError::NotACollectiveMember {
            id: 0,
            device: Rank(2)
        }));
        assert!(errors.contains(&SpecError::UnknownCollective(7)));
        assert!(errors.contains(&SpecError::MissingCollStart {
            id: 0,
            device: Rank(0)
        }));
    }

    #[test]
    fn multi_defect_errors_are_deterministically_ordered() {
        // Several defects at once: the list must come out key-sorted and
        // identical across runs. The old HashMap bookkeeping emitted these
        // in RandomState order, so a multi-defect spec reported a different
        // first error every execution.
        let spec = ExecutionSpec {
            programs: vec![(
                Rank(0),
                vec![
                    Op::Send {
                        key: key(0, 3, 2),
                        bytes: 8,
                    },
                    Op::Send {
                        key: key(0, 1, 0),
                        bytes: 8,
                    },
                    Op::Send {
                        key: key(0, 2, 1),
                        bytes: 8,
                    },
                ],
            )],
            collectives: vec![],
            transport: Default::default(),
        };
        let first = validate_spec(&spec);
        assert_eq!(
            first,
            vec![
                SpecError::UnmatchedSend(key(0, 1, 0)),
                SpecError::UnmatchedSend(key(0, 2, 1)),
                SpecError::UnmatchedSend(key(0, 3, 2)),
            ]
        );
        for _ in 0..8 {
            assert_eq!(validate_spec(&spec), first);
        }
    }

    #[test]
    fn unused_collective_is_harmless() {
        let spec = ExecutionSpec {
            programs: vec![(Rank(0), vec![])],
            collectives: vec![CollectiveSpec::new(
                CollKind::AllReduce,
                vec![Rank(0), Rank(1)],
                8,
            )],
            transport: Default::default(),
        };
        assert!(validate_spec(&spec).is_empty());
    }
}
