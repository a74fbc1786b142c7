//! Micro-benchmarks of the discrete-event network simulator: event
//! throughput under max-min fair-share recomputation is what bounds how
//! many training configurations the harness can sweep.

use criterion::{black_box, BenchmarkId, Criterion};

use holmes_netsim::{FlowSpec, LinkCapacity, NetSim, SimDuration};

/// `flows` concurrent transfers over one shared link, drained to empty.
fn drain_shared_link(flows: u64) -> u64 {
    let mut sim = NetSim::new();
    let link = sim.add_link(LinkCapacity::new(100e9));
    for token in 0..flows {
        sim.start_flow(FlowSpec {
            path: vec![link],
            bytes: 1_000_000 * (token + 1),
            latency: SimDuration::from_micros(token % 7),
            rate_cap: 25e9,
            token,
            count: 1,
        });
    }
    let mut n = 0;
    while sim.next().is_some() {
        n += 1;
    }
    n
}

/// A mesh: `n` links, flows crossing random-ish pairs of links.
fn drain_mesh(links: u32, flows: u64) -> u64 {
    let mut sim = NetSim::new();
    let link_ids: Vec<_> = (0..links)
        .map(|_| sim.add_link(LinkCapacity::new(50e9)))
        .collect();
    for token in 0..flows {
        let a = link_ids[(token as usize * 7) % link_ids.len()];
        let b = link_ids[(token as usize * 13 + 1) % link_ids.len()];
        sim.start_flow(FlowSpec {
            path: vec![a, b],
            bytes: 5_000_000 + 1_000 * token,
            latency: SimDuration::from_micros(1),
            rate_cap: f64::INFINITY,
            token,
            count: 1,
        });
    }
    let mut n = 0;
    while sim.next().is_some() {
        n += 1;
    }
    n
}

/// Drain the reference collective workload once, returning the number of
/// simulator events processed and the wall-clock seconds it took. The
/// `bench` binary reports the ratio as events/sec in `BENCH_netsim.json`.
///
/// The workload models what the simulator actually serves: ring
/// all-reduce steps inside clusters of nodes with full-duplex NICs (a
/// dedicated egress and ingress link per node, so each ring step's flows
/// contend only pairwise) plus a trunk ring between cluster leaders.
/// Dirty-component rate settlement is the point of the fast engine, and
/// this measures it on representative traffic; the adversarial
/// all-to-all mesh (one giant coupled component, where every event pays
/// a full recompute no matter what) stays covered by the
/// `netsim/mesh_drain` criterion benchmarks above.
pub fn events_per_sec_probe() -> (u64, f64) {
    const CLUSTERS: usize = 4;
    const NODES: usize = 32;
    const STEPS: u64 = 6;
    let mut sim = NetSim::new();
    // Per-node egress/ingress NIC links, per-cluster trunk links.
    let tx: Vec<Vec<_>> = (0..CLUSTERS)
        .map(|_| {
            (0..NODES)
                .map(|_| sim.add_link(LinkCapacity::new(25e9)))
                .collect()
        })
        .collect();
    let rx: Vec<Vec<_>> = (0..CLUSTERS)
        .map(|_| {
            (0..NODES)
                .map(|_| sim.add_link(LinkCapacity::new(25e9)))
                .collect()
        })
        .collect();
    let trunks: Vec<_> = (0..CLUSTERS)
        .map(|_| sim.add_link(LinkCapacity::new(100e9)))
        .collect();
    let start = std::time::Instant::now();
    let mut token = 0u64;
    for step in 0..STEPS {
        // One ring step per cluster: node i sends its chunk to node i+1.
        for c in 0..CLUSTERS {
            for i in 0..NODES {
                sim.start_flow(FlowSpec {
                    path: vec![tx[c][i], rx[c][(i + 1) % NODES]],
                    bytes: 4_000_000 + 17_000 * (token % 29),
                    latency: SimDuration::from_micros((step + i as u64) % 5),
                    rate_cap: f64::INFINITY,
                    token,
                    count: 1,
                });
                token += 1;
            }
        }
        // Leader ring across the trunks.
        for c in 0..CLUSTERS {
            sim.start_flow(FlowSpec {
                path: vec![trunks[c], trunks[(c + 1) % CLUSTERS]],
                bytes: 24_000_000,
                latency: SimDuration::from_micros(step % 3),
                rate_cap: f64::INFINITY,
                token,
                count: 1,
            });
            token += 1;
        }
        while sim.next().is_some() {}
    }
    (sim.events_processed(), start.elapsed().as_secs_f64())
}

/// The large-topology scaling scenario: 8 clusters × 64 nodes (512 nodes,
/// 1024 NIC links, 8 trunks) running hierarchical all-reduce waves —
/// intra-cluster reduce-scatter rings, an inter-cluster leader ring, then
/// intra-cluster all-gather rings. Returns (events, wall seconds); the
/// `bench` binary reports `netsim_events_per_sec_large`.
pub fn large_topology_probe() -> (u64, f64) {
    const CLUSTERS: usize = 8;
    const NODES: usize = 64;
    const WAVES: u64 = 3;
    const RING_STEPS: u64 = 4;
    let mut sim = NetSim::new();
    let tx: Vec<Vec<_>> = (0..CLUSTERS)
        .map(|_| {
            (0..NODES)
                .map(|_| sim.add_link(LinkCapacity::new(25e9)))
                .collect()
        })
        .collect();
    let rx: Vec<Vec<_>> = (0..CLUSTERS)
        .map(|_| {
            (0..NODES)
                .map(|_| sim.add_link(LinkCapacity::new(25e9)))
                .collect()
        })
        .collect();
    let trunks: Vec<_> = (0..CLUSTERS)
        .map(|_| sim.add_link(LinkCapacity::new(100e9)))
        .collect();
    let start = std::time::Instant::now();
    let mut token = 0u64;
    let ring_steps = |sim: &mut NetSim, token: &mut u64, steps: u64, wave: u64| {
        for step in 0..steps {
            for (ctx, crx) in tx.iter().zip(&rx) {
                for i in 0..NODES {
                    sim.start_flow(FlowSpec {
                        path: vec![ctx[i], crx[(i + 1) % NODES]],
                        bytes: 2_000_000 + 13_000 * (*token % 31),
                        latency: SimDuration::from_micros((wave + step + (i as u64 % 7)) % 9),
                        rate_cap: f64::INFINITY,
                        token: *token,
                        count: 1,
                    });
                    *token += 1;
                }
            }
            while sim.next().is_some() {}
        }
    };
    for wave in 0..WAVES {
        // Reduce-scatter rings inside every cluster.
        ring_steps(&mut sim, &mut token, RING_STEPS, wave);
        // Inter-cluster all-reduce over the trunk leader ring.
        for step in 0..2u64 {
            for c in 0..CLUSTERS {
                sim.start_flow(FlowSpec {
                    path: vec![trunks[c], trunks[(c + 1) % CLUSTERS]],
                    bytes: 48_000_000,
                    latency: SimDuration::from_micros((wave + step) % 4),
                    rate_cap: f64::INFINITY,
                    token,
                    count: 1,
                });
                token += 1;
            }
            while sim.next().is_some() {}
        }
        // All-gather rings back inside the clusters.
        ring_steps(&mut sim, &mut token, RING_STEPS, wave + 1);
    }
    (sim.events_processed(), start.elapsed().as_secs_f64())
}

/// The paper cell [`twin_census`] counts: Table 4's 12-node
/// three-cluster fleet (4 RoCE + 4 IB + 4 IB nodes), Holmes at PG3.
pub const TWIN_CENSUS_CELL: &str = "table4_4r_4ib_4ib/pg3";

/// Twin and replica-class census of one observed iteration of
/// [`TWIN_CENSUS_CELL`]. All of it is deterministic.
#[derive(Debug, Clone, Copy)]
pub struct TwinCensus {
    /// Transfers the executor replays, one observation record each.
    pub logical_flows: u64,
    /// Counted netsim entries started for them: a collective round's
    /// transfers sharing source node, destination node and bytes start
    /// as one, and so do sends netsim would twin.
    pub launch_entries: u64,
    /// Flows netsim simulates after merging same-instant twins
    /// (identical path, bytes and rate cap).
    pub engine_flows: u64,
    /// Netsim events processed.
    pub events: u64,
    /// Devices with a program.
    pub devices: u64,
    /// How the executor grouped device wake-ups into replica classes.
    pub classes: holmes::engine::ClassCensus,
}

/// Run [`TWIN_CENSUS_CELL`] once, observed, and count it.
pub fn twin_census() -> TwinCensus {
    let mut session = holmes::obs::ObsSession::new();
    let run = holmes::run_framework(
        holmes::FrameworkKind::Holmes,
        &holmes_topology::presets::table4_4r_4ib_4ib(),
        3,
        Some(&mut session),
    )
    .expect("the twin-census cell simulates");
    TwinCensus {
        logical_flows: session.registry.counter("netsim.flows_finished"),
        launch_entries: run.report.launch_entries,
        engine_flows: run.report.flows,
        events: run.report.events,
        devices: run.report.device_finish_seconds.len() as u64,
        classes: run.report.classes,
    }
}

fn bench_shared_link(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim/shared_link_drain");
    for flows in [16u64, 64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &f| {
            b.iter(|| black_box(drain_shared_link(f)))
        });
    }
    g.finish();
}

fn bench_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim/mesh_drain");
    for &(links, flows) in &[(16u32, 64u64), (64, 256), (128, 512)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{links}l/{flows}f")),
            &(links, flows),
            |b, &(l, f)| b.iter(|| black_box(drain_mesh(l, f))),
        );
    }
    g.finish();
}

fn bench_timer_queue(c: &mut Criterion) {
    c.bench_function("netsim/timer_queue_10k", |b| {
        b.iter(|| {
            let mut sim = NetSim::new();
            for i in 0..10_000u64 {
                sim.set_timer(SimDuration::from_micros((i * 37) % 1000), i);
            }
            let mut n = 0;
            while sim.next().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

/// Run the whole netsim suite against `c`.
pub fn benches(c: &mut Criterion) {
    bench_shared_link(c);
    bench_mesh(c);
    bench_timer_queue(c);
}
