//! Static validation of [`ExecutionSpec`]s.
//!
//! The executor detects deadlocks *dynamically* (the simulation drains with
//! blocked devices), but a structurally broken spec — an unmatched receive,
//! a collective op on a non-member, an id out of range — is cheaper to
//! catch before any simulation runs. Schedule generators are tested against
//! this validator, and `execute` debug-asserts it.
//!
//! All bookkeeping uses `BTreeMap`/`BTreeSet`: a multi-defect spec must
//! report its errors in one deterministic (key-sorted) order, run to run —
//! iterating a `HashMap` here would leak `RandomState` into the error list
//! (and trip `holmes-lint`'s hash-iteration rule).

use std::collections::{BTreeMap, BTreeSet};

use crate::executor::{CollectiveSpec, ExecutionSpec};
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
        device: holmes_topology::Rank,
    },
    /// A member device never starts a collective it must participate in
    /// (every member appearing in any program must arrive or the launch
    /// blocks forever).
    MissingCollStart {
        /// The collective id.
        id: u32,
        /// The member that never arrives.
        device: holmes_topology::Rank,
    },
    /// A `CollWait` with no preceding `CollStart` on the same device.
    WaitBeforeStart {
        /// The collective id.
        id: u32,
        /// The waiting device.
        device: holmes_topology::Rank,
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
        }
    }
}

/// Validate a spec; returns every defect found (empty = structurally sound).
pub fn validate_spec(spec: &ExecutionSpec) -> Vec<SpecError> {
    let mut errors = Vec::new();
    let mut sends: BTreeMap<MsgKey, u32> = BTreeMap::new();
    let mut recvs: BTreeMap<MsgKey, u32> = BTreeMap::new();
    let members: Vec<BTreeSet<holmes_topology::Rank>> = spec
        .collectives
        .iter()
        .map(|c: &CollectiveSpec| c.devices.iter().copied().collect())
        .collect();
    // Which devices actually appear in programs (a collective member with
    // no program at all cannot arrive).
    let mut started: Vec<BTreeSet<holmes_topology::Rank>> =
        vec![BTreeSet::new(); spec.collectives.len()];
    let mut used: Vec<bool> = vec![false; spec.collectives.len()];

    for (device, ops) in &spec.programs {
        let mut started_here: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match *op {
                Op::Send { key, .. } => {
                    if key.from != *device {
                        errors.push(SpecError::MisroutedOp(key));
                    }
                    *sends.entry(key).or_insert(0) += 1;
                }
                Op::Recv { key } => {
                    if key.to != *device {
                        errors.push(SpecError::MisroutedOp(key));
                    }
                    *recvs.entry(key).or_insert(0) += 1;
                }
                Op::CollStart { id } => match members.get(id as usize) {
                    None => errors.push(SpecError::UnknownCollective(id)),
                    Some(m) if !m.contains(device) => {
                        errors.push(SpecError::NotACollectiveMember {
                            id,
                            device: *device,
                        })
                    }
                    Some(_) => {
                        started[id as usize].insert(*device);
                        started_here.insert(id);
                        used[id as usize] = true;
                    }
                },
                Op::CollWait { id } => match members.get(id as usize) {
                    None => errors.push(SpecError::UnknownCollective(id)),
                    Some(m) if !m.contains(device) => {
                        errors.push(SpecError::NotACollectiveMember {
                            id,
                            device: *device,
                        })
                    }
                    Some(_) if !started_here.contains(&id) => {
                        used[id as usize] = true;
                        errors.push(SpecError::WaitBeforeStart {
                            id,
                            device: *device,
                        })
                    }
                    Some(_) => used[id as usize] = true,
                },
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

    let programmed: BTreeSet<holmes_topology::Rank> =
        spec.programs.iter().map(|(d, _)| *d).collect();
    for (id, m) in members.iter().enumerate() {
        if !used[id] {
            continue; // entirely unused collective: harmless
        }
        for device in m {
            if programmed.contains(device) && !started[id].contains(device) {
                errors.push(SpecError::MissingCollStart {
                    id: id as u32,
                    device: *device,
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
    use crate::dp_sync::DpSyncStrategy;
    use crate::executor::CollKind;
    use crate::ops::{Channel, ComputeLabel};
    use holmes_model::ParameterGroup;
    use holmes_parallel::{
        GroupLayout, HolmesScheduler, ParallelDegrees, ParallelPlan, PartitionStrategy, Scheduler,
        UniformPartition,
    };
    use holmes_topology::{presets, Rank};

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
            let assignment = HolmesScheduler.assign(&topo, &layout);
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
