//! Pins the executor's fault path: a fixed list of faulted executions,
//! each reduced to its error or to every report field the fault path
//! writes, hashed into one constant. Plans are drawn from a fixed seed,
//! so one plan may mix link faults, churn and stragglers; two hand-built
//! cells cover NIC deaths at the receiver and at both endpoints at once.

use holmes_netsim::SimTime;
use holmes_topology::{presets, NicType, Rank, Topology};
use proptest::strategy::Strategy;
use proptest::TestRng;

use crate::builder::{EngineConfig, ScheduleKind};
use crate::class_oracle::{built, fault_plan, raw_faults};
use crate::dp_sync::DpSyncStrategy;
use crate::executor::{execute_with_faults, ExecError, ExecutionSpec, TransportPolicy};
use crate::fault::{DegradedCondition, FaultPlan};
use crate::ops::{Channel, MsgKey, Op};

/// FNV-1a digest of every outcome line. Change it only together with a
/// deliberate change in fault-path behaviour.
const PINNED: u64 = 0x57e7_327d_9737_0d65;

/// One execution's outcome: the error, or every report field the fault
/// path writes, floats as bits.
fn outcome(r: &Result<crate::IterationReport, ExecError>) -> String {
    let r = match r {
        Err(e) => return format!("err {e:?}"),
        Ok(r) => r,
    };
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    format!(
        "total {} finish {:?} compute {:?} windows {:?} conditions {:?} retries {} tcp {} \
         events {} entries {}",
        r.total_seconds.to_bits(),
        bits(&r.device_finish_seconds),
        bits(&r.device_compute_seconds),
        r.fault_windows,
        r.degraded_conditions,
        r.flow_retries,
        r.tcp_fallback_flows,
        r.events,
        r.launch_entries,
    )
}

fn fnv(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// ~1 s of RDMA traffic from r0 to r8 on two IB nodes.
fn one_send() -> (Topology, ExecutionSpec) {
    let key = MsgKey {
        from: Rank(0),
        to: Rank(8),
        channel: Channel::Activation,
        microbatch: 0,
        chunk: 0,
    };
    let spec = ExecutionSpec {
        programs: vec![
            (
                Rank(0),
                vec![Op::Send {
                    key,
                    bytes: 23_000_000_000,
                }],
            ),
            (Rank(8), vec![Op::Recv { key }]),
        ],
        collectives: vec![],
        transport: TransportPolicy::Auto,
    };
    (presets::homogeneous(NicType::InfiniBand, 2), spec)
}

#[test]
fn faulted_executions_match_the_pinned_digest() {
    let cells = [
        (
            (0, 2, NicType::InfiniBand),
            (1, 2),
            DpSyncStrategy::AllReduce,
        ),
        (
            (1, 4, NicType::InfiniBand),
            (1, 2),
            DpSyncStrategy::parameter_server(),
        ),
        (
            (2, 4, NicType::RoCE),
            (2, 2),
            DpSyncStrategy::DistributedOptimizer,
        ),
        (
            (0, 4, NicType::InfiniBand),
            (1, 4),
            DpSyncStrategy::overlapped(),
        ),
        (
            (0, 2, NicType::RoCE),
            (1, 1),
            DpSyncStrategy::parameter_server(),
        ),
        ((1, 2, NicType::InfiniBand), (2, 1), DpSyncStrategy::Zero3),
    ];
    let mut rng = TestRng::seed_from_u64(0x6a09_e667_f3bc_c908);
    let mut lines = Vec::new();
    let mut mixed = 0;
    for (i, &(fleet, shape, dp_sync)) in cells.iter().enumerate() {
        for tcp in [false, true] {
            let cfg = EngineConfig {
                schedule: ScheduleKind::OneFOneB,
                dp_sync,
                transport: if tcp {
                    TransportPolicy::ForceTcpInterNode
                } else {
                    TransportPolicy::Auto
                },
                ..EngineConfig::default()
            };
            let (topo, spec) = built(fleet, shape, &cfg).expect("every pinned cell fits");
            // Draws spread over 3 s; squeeze them into the clean run so
            // faults land while traffic is in flight.
            let clean = crate::execute(&topo, spec.clone()).expect("every pinned cell runs");
            let squeeze = |at: &mut u64| *at = (*at as f64 * clean.total_seconds / 3.0) as u64;
            for draw in 0..12 {
                let mut raw = raw_faults().generate(&mut rng);
                raw.0.iter_mut().for_each(|f| squeeze(&mut f.0));
                raw.1.iter_mut().for_each(|c| squeeze(&mut c.0));
                let plan = fault_plan(&topo, raw);
                let all_three = !plan.link_faults.is_empty()
                    && !plan.churn.is_empty()
                    && !plan.stragglers.is_empty();
                mixed += u32::from(all_three);
                let r = execute_with_faults(&topo, spec.clone(), &plan);
                lines.push(format!("cell {i} tcp {tcp} draw {draw}: {}", outcome(&r)));
            }
        }
    }
    assert!(mixed >= 5, "only {mixed} plans mix all three fault kinds");

    // The receiver's NIC dies under the send, then both endpoints' NICs
    // die at one instant.
    let (topo, spec) = one_send();
    let mut receiver = FaultPlan::none();
    receiver.kill_nic(SimTime(200_000_000), 1);
    let r = execute_with_faults(&topo, spec.clone(), &receiver);
    let lost: Vec<u32> = r
        .as_ref()
        .expect("the receiver's NIC loss falls back to TCP")
        .degraded_conditions
        .iter()
        .filter_map(|c| match *c {
            DegradedCondition::LostNic { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    assert_eq!(lost, [1]);
    lines.push(format!("receiver nic: {}", outcome(&r)));
    let mut both = FaultPlan::none();
    both.kill_nic(SimTime(200_000_000), 1)
        .kill_nic(SimTime(200_000_000), 0);
    let r = execute_with_faults(&topo, spec, &both);
    let lost: Vec<u32> = r
        .as_ref()
        .expect("both NICs lost still fall back to TCP")
        .degraded_conditions
        .iter()
        .filter_map(|c| match *c {
            DegradedCondition::LostNic { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    assert_eq!(lost, [0, 1], "the sender's node is declared first");
    lines.push(format!("both nics: {}", outcome(&r)));

    let got = fnv(&lines);
    if got != PINNED {
        for l in &lines {
            eprintln!("{l}");
        }
    }
    assert_eq!(got, PINNED, "fault-path digest {got:#x}");
}
