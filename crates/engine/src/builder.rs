//! Assembling plans into runnable iteration specs.

use holmes_model::{embedding_params, layer_params, CommVolumes, MemoryEstimate, TrainJob};
use holmes_netsim::SimDuration;
use holmes_parallel::{DpGroupNic, ParallelPlan};
use holmes_topology::{Rank, Topology};

use crate::compute::{ComputeModel, StageCost};
use crate::dp_sync::DpSyncStrategy;
use crate::executor::{
    execute_inner, CollKind, CollectiveSpec, ExecError, ExecutionSpec, IterationReport,
    TransportPolicy,
};
use crate::metrics::TrainingMetrics;
use crate::ops::{Channel, ComputeLabel, MsgKey, Op};
use crate::schedule::{gpipe, one_f_one_b, peak_in_flight, Interleaved, Unit};

/// Which pipeline schedule the engine expands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleKind {
    /// All-forward-then-all-backward.
    GPipe,
    /// PipeDream-Flush (the paper's base schedule).
    #[default]
    OneFOneB,
    /// Megatron's interleaved virtual-pipeline schedule with `v` model
    /// chunks per device (the paper's experiments enable it, §4.1).
    /// Requires `microbatches % p == 0`.
    Interleaved {
        /// Virtual pipeline size `v ≥ 1`.
        virtual_stages: u32,
    },
}

impl ScheduleKind {
    /// Model chunks per device: `v` for [`ScheduleKind::Interleaved`]
    /// (at least 1), 1 for every other schedule.
    pub fn virtual_stages(self) -> u32 {
        match self {
            ScheduleKind::Interleaved { virtual_stages } => virtual_stages.max(1),
            ScheduleKind::GPipe | ScheduleKind::OneFOneB => 1,
        }
    }

    /// Unit order for `stage` of a `p`-deep pipeline over `m` micro-batches.
    fn units(self, stage: u32, p: u32, m: u32) -> Vec<Unit> {
        match self {
            ScheduleKind::GPipe => gpipe(m),
            ScheduleKind::OneFOneB => one_f_one_b(stage, p, m),
            ScheduleKind::Interleaved { .. } => {
                Interleaved::new(self.virtual_stages()).units(stage, p, m)
            }
        }
    }
}

/// Engine configuration: schedule × DP sync × transport policy.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Gradient synchronization strategy.
    pub dp_sync: DpSyncStrategy,
    /// Transport selection (Holmes auto vs NIC-oblivious TCP fallback).
    pub transport: TransportPolicy,
    /// Full activation recomputation: trade one extra forward per
    /// micro-batch backward for activation memory (Megatron's
    /// `--recompute-activations`; backward cost becomes ~3× forward).
    pub recompute_activations: bool,
    /// Reject plans whose heaviest rank exceeds device memory (like real
    /// hardware would, with a CUDA OOM). Off by default so what-if sweeps
    /// can still report infeasible points.
    pub enforce_memory: bool,
    /// Upgrade flat all-reduces to the two-level hierarchical algorithm
    /// ([`crate::executor::CollKind::HierarchicalAllReduce`]) whenever a
    /// DP group straddles clusters and the transport is
    /// [`TransportPolicy::Auto`] — keeping the bulk of the gradient
    /// traffic on intra-cluster RDMA instead of dragging every ring round
    /// through the inter-cluster Ethernet hops. On by default; disable to
    /// reproduce the flat-ring baseline.
    pub hierarchical_cross_cluster: bool,
}

impl EngineConfig {
    /// The collective a data-parallel group actually runs for `kind`: a
    /// flat all-reduce over a group that spans clusters becomes
    /// [`CollKind::HierarchicalAllReduce`] when
    /// [`EngineConfig::hierarchical_cross_cluster`] is on and the
    /// transport is [`TransportPolicy::Auto`]; every other kind is kept.
    /// The builder emits this kind and the estimator prices it.
    pub fn upgrade_kind(&self, topo: &Topology, kind: CollKind, devices: &[Rank]) -> CollKind {
        if kind == CollKind::AllReduce
            && self.hierarchical_cross_cluster
            && self.transport == TransportPolicy::Auto
            && DpGroupNic::spans_clusters(topo, devices)
        {
            CollKind::HierarchicalAllReduce
        } else {
            kind
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            schedule: ScheduleKind::OneFOneB,
            dp_sync: DpSyncStrategy::overlapped(),
            transport: TransportPolicy::Auto,
            recompute_activations: false,
            enforce_memory: false,
            hierarchical_cross_cluster: true,
        }
    }
}

/// Errors assembling an iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// `global_batch` is not divisible into micro-batches across `d`
    /// replicas.
    BatchIndivisible {
        /// Global batch size.
        global_batch: u32,
        /// Data parallel degree.
        data_parallel: u32,
        /// Micro batch size.
        micro_batch: u32,
    },
    /// The plan's stage layer counts do not sum to the model's layers.
    LayerMismatch {
        /// Sum of plan stage layers.
        plan_layers: u32,
        /// Model layer count.
        model_layers: u32,
    },
    /// A rank's working set exceeds its device memory.
    OutOfMemory {
        /// Pipeline stage of the offending rank.
        stage: u32,
        /// Estimated bytes needed.
        needed_bytes: u64,
        /// Device capacity in bytes.
        capacity_bytes: u64,
    },
    /// The interleaved schedule requires `microbatches % p == 0`.
    InterleavedIndivisible {
        /// Micro-batches per replica.
        microbatches: u32,
        /// Pipeline depth.
        pipeline: u32,
    },
    /// The plan places a rank on a device the topology does not have
    /// (for example, a plan made for a larger fleet).
    RankOutsideTopology {
        /// The first out-of-topology rank in logical order.
        rank: Rank,
        /// Devices in the topology.
        devices: u32,
    },
    /// Execution failed (deadlock etc.).
    Exec(ExecError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BatchIndivisible {
                global_batch,
                data_parallel,
                micro_batch,
            } => write!(
                f,
                "global batch {global_batch} not divisible into micro-batches of \
                 {micro_batch} across {data_parallel} replicas"
            ),
            BuildError::LayerMismatch {
                plan_layers,
                model_layers,
            } => write!(
                f,
                "plan assigns {plan_layers} layers but the model has {model_layers}"
            ),
            BuildError::OutOfMemory {
                stage,
                needed_bytes,
                capacity_bytes,
            } => write!(
                f,
                "stage {stage} needs {:.1} GiB but the device has {:.1} GiB",
                *needed_bytes as f64 / (1u64 << 30) as f64,
                *capacity_bytes as f64 / (1u64 << 30) as f64,
            ),
            BuildError::InterleavedIndivisible {
                microbatches,
                pipeline,
            } => write!(
                f,
                "interleaved schedule requires micro-batches ({microbatches}) divisible by \
                 pipeline depth ({pipeline})"
            ),
            BuildError::RankOutsideTopology { rank, devices } => {
                write!(
                    f,
                    "plan rank {rank} is outside the topology ({devices} devices)"
                )
            }
            BuildError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// What one pipeline stage costs and needs, priced once for all its
/// devices by [`price_stages`].
#[derive(Debug, Clone)]
pub struct StagePrice {
    /// The compute model of the stage's slowest member, which prices the
    /// whole stage.
    pub model: ComputeModel,
    /// Per-chunk forward/backward costs (`v` chunks; one without
    /// interleaving), recompute applied.
    pub chunk_costs: Vec<StageCost>,
    /// The schedule's unit order for this stage.
    pub units: Vec<Unit>,
    /// Parameters the stage holds (the embedding on stage 0).
    pub params: u64,
    /// Seconds of one rank's optimizer step over its shard of `params`.
    pub optimizer_seconds: f64,
    /// Working set of one of the stage's ranks at its peak live units.
    pub memory: MemoryEstimate,
    /// Device memory of the stage's smallest member, which binds.
    pub capacity_bytes: u64,
}

impl StagePrice {
    /// Whether the stage's working set fits its smallest member.
    pub fn fits_memory(&self) -> bool {
        self.memory.fits_in(self.capacity_bytes)
    }
}

/// Micro-batches per replica of `job` across `d` data-parallel replicas,
/// or [`BuildError::BatchIndivisible`].
pub fn microbatches(job: &TrainJob, d: u32) -> Result<u32, BuildError> {
    job.microbatches_per_replica(d)
        .ok_or(BuildError::BatchIndivisible {
            global_batch: job.global_batch,
            data_parallel: d,
            micro_batch: job.micro_batch,
        })
}

/// Price every pipeline stage of a plan: compute model, chunk costs,
/// unit list, parameters and memory need, one [`StagePrice`] per stage.
///
/// This is the one stage pricer: [`build_iteration`] expands its units
/// and raises [`BuildError::OutOfMemory`] from its memory verdict, and
/// the autotuner reads the same verdict. It first runs the checks the
/// pricing relies on: batch divisibility, layer count, ranks inside the
/// topology and the interleaved schedule's divisibility.
#[expect(clippy::expect_used, reason = "ranks checked; stages non-empty")]
pub fn price_stages(
    topo: &Topology,
    plan: &ParallelPlan,
    job: &TrainJob,
    cfg: &EngineConfig,
) -> Result<Vec<StagePrice>, BuildError> {
    let degrees = plan.degrees();
    let (t, p, d) = (degrees.tensor, degrees.pipeline, degrees.data);
    let m = microbatches(job, d)?;
    if plan.total_layers() != job.config.num_layers {
        return Err(BuildError::LayerMismatch {
            plan_layers: plan.total_layers(),
            model_layers: job.config.num_layers,
        });
    }
    // Every stage and group maps logical ranks through this assignment,
    // so checking it once covers every device lookup.
    let devices = topo.device_count();
    if let Some(rank) = (0..plan.assignment.len())
        .map(|l| plan.assignment.device_of(l))
        .find(|r| r.0 >= devices)
    {
        return Err(BuildError::RankOutsideTopology { rank, devices });
    }
    let v = cfg.schedule.virtual_stages();
    if matches!(cfg.schedule, ScheduleKind::Interleaved { .. }) && m % p != 0 {
        return Err(BuildError::InterleavedIndivisible {
            microbatches: m,
            pipeline: p,
        });
    }

    let device = |rank: Rank| {
        topo.device(rank)
            .expect("plan ranks were checked against the topology")
    };
    let mut stages = Vec::with_capacity(p as usize);
    for stage in 0..p {
        let stage_devices = plan.stage_devices(stage);
        let layers = plan.stage_layers[stage as usize];
        // Every pipeline send waits for the stage's slowest member, so its
        // compute model prices the whole stage (the first member on ties).
        // Adjacent members on one node share its model: price it once.
        let (_, model) = stage_devices
            .chunk_by(|&a, &b| {
                let (a, b) = (device(a).coord, device(b).coord);
                (a.cluster, a.node) == (b.cluster, b.node)
            })
            .map(|members| {
                let rank = members[0];
                let coord = device(rank).coord;
                let node = &topo.clusters()[coord.cluster.0 as usize].nodes[coord.node.0 as usize];
                let model = ComputeModel::with_interference(
                    job.config,
                    node.gpu.clone(),
                    node.intra_link,
                    t,
                    job.micro_batch,
                    node.nic.compute_interference,
                );
                let cost = model.stage_cost(layers, stage == p - 1);
                (cost.fwd_seconds + cost.bwd_seconds, model)
            })
            .reduce(|slowest, next| {
                if next.0.total_cmp(&slowest.0).is_gt() {
                    next
                } else {
                    slowest
                }
            })
            .expect("stage has at least one device");
        // The stage's layers split across its `v` chunks, remainder to the
        // earliest chunks; the last *global* chunk `c·p + s` carries the
        // logit.
        let chunk_costs: Vec<StageCost> = (0..v)
            .map(|c| {
                let chunk_layers = layers / v + u32::from(c < layers % v);
                let mut cost = model.stage_cost(chunk_layers, c * p + stage == p * v - 1);
                if cfg.recompute_activations {
                    // Recompute replays the forward before each backward.
                    cost.bwd_seconds += cost.fwd_seconds;
                }
                cost
            })
            .collect();
        let units = cfg.schedule.units(stage, p, m);
        let mut params = u64::from(layers) * layer_params(&job.config);
        if stage == 0 {
            params += embedding_params(&job.config);
        }
        let optimizer_seconds = model
            .optimizer_seconds(params / u64::from(t) / u64::from(cfg.dp_sync.optimizer_shards(d)));
        // Peak live units, each holding the largest chunk's (chunk 0's)
        // activations: GPipe keeps all m, 1F1B `min(p − s, m)`.
        let memory = MemoryEstimate::for_rank(
            &job.config,
            params,
            t,
            job.micro_batch,
            peak_in_flight(&units),
            layers.div_ceil(v),
            cfg.dp_sync.optimizer_shards(d),
            cfg.recompute_activations,
        );
        // On a mixed-generation stage the V100's 32 GiB must hold the
        // shard, not the H100's 80 GiB.
        let capacity_bytes = stage_devices
            .iter()
            .map(|&r| device(r).gpu.memory_bytes())
            .min()
            .expect("stage has at least one device");
        stages.push(StagePrice {
            model,
            chunk_costs,
            units,
            params,
            optimizer_seconds,
            memory,
            capacity_bytes,
        });
    }
    Ok(stages)
}

/// A lower bound on the simulated iteration time of a clean run (no
/// stragglers), from compute alone: the slowest stage's forward and
/// backward ops plus its optimizer step. Every device of a stage runs
/// these ops one after another, so none finishes earlier, whatever its
/// communication does. Each op is rounded to integer nanoseconds exactly
/// as the executor's compute timer rounds it, so the bound holds bit for
/// bit.
#[expect(clippy::cast_possible_truncation, reason = "a few collectives")]
pub fn compute_floor_seconds(stages: &[StagePrice], cfg: &EngineConfig) -> f64 {
    let nanos = |seconds: f64| SimDuration::from_secs_f64(seconds).0;
    // An overlapping sync splits the final backward into one op per
    // pre-optimizer collective, as `build_iteration` does.
    let chunks = if cfg.dp_sync.overlaps_backward() {
        (cfg.dp_sync.pre_optimizer_collectives().len() as u32).max(1)
    } else {
        1
    };
    let stage_nanos = |stage: &StagePrice| {
        let last = stage.units.len().saturating_sub(1);
        let units: u64 = stage
            .units
            .iter()
            .enumerate()
            .map(|(idx, unit)| {
                let cost = &stage.chunk_costs[unit.chunk as usize];
                if unit.forward {
                    nanos(cost.fwd_seconds)
                } else if idx == last {
                    u64::from(chunks) * nanos(cost.bwd_seconds / f64::from(chunks))
                } else {
                    nanos(cost.bwd_seconds)
                }
            })
            .sum();
        units + nanos(stage.optimizer_seconds)
    };
    SimDuration(stages.iter().map(stage_nanos).max().unwrap_or(0)).as_secs_f64()
}

/// Build the full iteration spec (programs + collectives) for a plan.
#[expect(clippy::cast_possible_truncation, reason = "u32 counts; bytes floor")]
pub fn build_iteration(
    topo: &Topology,
    plan: &ParallelPlan,
    job: &TrainJob,
    cfg: &EngineConfig,
) -> Result<ExecutionSpec, BuildError> {
    let degrees = plan.degrees();
    let (t, p, d) = (degrees.tensor, degrees.pipeline, degrees.data);
    let v = cfg.schedule.virtual_stages();
    let stages = price_stages(topo, plan, job, cfg)?;
    if cfg.enforce_memory {
        if let Some((stage, price)) = stages.iter().enumerate().find(|(_, s)| !s.fits_memory()) {
            return Err(BuildError::OutOfMemory {
                stage: stage as u32,
                needed_bytes: price.memory.total_bytes(),
                capacity_bytes: price.capacity_bytes,
            });
        }
    }

    // Data-parallel collectives: one set of bucketed specs per DP group.
    let pre_fracs = cfg.dp_sync.pre_optimizer_collectives();
    let post_fracs = cfg.dp_sync.post_optimizer_collectives();
    let mut collectives = Vec::new();
    let dp_groups = plan.layout.dp_group_count();
    let mut pre_ids: Vec<Vec<u32>> = Vec::with_capacity(dp_groups as usize);
    let mut post_ids: Vec<Vec<u32>> = Vec::with_capacity(dp_groups as usize);
    let mut prologue_ids: Vec<Option<u32>> = Vec::with_capacity(dp_groups as usize);
    for g in 0..dp_groups {
        let devices = plan.dp_group_devices(g);
        let stage = g / t; // DP group g serves stage g div t (Eq. 4).
        let stage_params = stages[stage as usize].params;
        let grad_bytes = CommVolumes::dp_gradient_bytes(stage_params, t);
        // 16-bit parameter buffer gathered after the sharded step.
        let param_bytes = stage_params / u64::from(t) * 2;
        prologue_ids.push(if cfg.dp_sync.gathers_params_at_start() {
            let id = collectives.len() as u32;
            collectives.push(CollectiveSpec::new(
                crate::executor::CollKind::AllGather,
                devices.clone(),
                param_bytes,
            ));
            Some(id)
        } else {
            None
        });
        let mut pre = Vec::with_capacity(pre_fracs.len());
        for (kind, frac) in &pre_fracs {
            pre.push(collectives.len() as u32);
            collectives.push(CollectiveSpec {
                kind: cfg.upgrade_kind(topo, *kind, &devices),
                devices: devices.clone(),
                bytes: (grad_bytes as f64 * frac) as u64,
                channels: 1,
            });
        }
        let mut post = Vec::with_capacity(post_fracs.len());
        for (kind, frac) in &post_fracs {
            post.push(collectives.len() as u32);
            collectives.push(CollectiveSpec {
                kind: cfg.upgrade_kind(topo, *kind, &devices),
                devices: devices.clone(),
                bytes: (param_bytes as f64 * frac) as u64,
                channels: 1,
            });
        }
        pre_ids.push(pre);
        post_ids.push(post);
    }

    let act_bytes =
        CommVolumes::p2p_activation_bytes(&job.config, job.micro_batch, t, plan.scatter_gather);
    let stride = t * d;

    // Per-device programs, in logical-rank order. The model's global chunk
    // order is `gc = c·p + s`: activations flow `(c, p−1) → (c+1, 0)`
    // across the wrap boundary, gradients the reverse. Message keys carry
    // the *boundary's* earlier global chunk id so sender and receiver
    // agree. With `p = 1` every chunk is local and nothing is sent.
    let n = degrees.devices();
    let mut programs = Vec::with_capacity(n as usize);
    for logical in 0..n {
        let device = plan.assignment.device_of(logical);
        let stage = plan.layout.stage_of(logical);
        let dp_group = plan.layout.dp_group_of(logical) as usize;
        let (pre, post) = (&pre_ids[dp_group], &post_ids[dp_group]);
        let StagePrice {
            chunk_costs,
            units,
            optimizer_seconds,
            ..
        } = &stages[stage as usize];
        let dev_at = |s: u32| plan.assignment.device_of(logical % stride + s * stride);
        let prev = dev_at(if stage > 0 { stage - 1 } else { p - 1 });
        let next = dev_at(if stage + 1 < p { stage + 1 } else { 0 });
        // At most three ops per unit, plus the prologue, the chunked final
        // backward and the tail: never reallocates.
        let mut ops = Vec::with_capacity(3 * units.len() + 4 * (pre.len() + post.len()) + 3);
        if let Some(id) = prologue_ids[dp_group] {
            ops.push(Op::CollStart { id });
            ops.push(Op::CollWait { id });
        }
        for (idx, unit) in units.iter().enumerate() {
            let (mb, cost) = (unit.mb, &chunk_costs[unit.chunk as usize]);
            let gc = unit.chunk * p + stage;
            let has_prev = gc > 0 && prev != device;
            let has_next = gc + 1 < p * v && next != device;
            let key = |from, to, channel, chunk| MsgKey {
                from,
                to,
                channel,
                microbatch: mb,
                chunk,
            };
            if unit.forward {
                if has_prev {
                    ops.push(Op::Recv {
                        key: key(prev, device, Channel::Activation, gc - 1),
                    });
                }
                ops.push(Op::Compute {
                    label: ComputeLabel::Forward { microbatch: mb },
                    seconds: cost.fwd_seconds,
                });
                if has_next {
                    ops.push(Op::Send {
                        key: key(device, next, Channel::Activation, gc),
                        bytes: act_bytes,
                    });
                }
                continue;
            }
            if has_next {
                ops.push(Op::Recv {
                    key: key(next, device, Channel::Gradient, gc),
                });
            }
            if cfg.dp_sync.overlaps_backward() && idx + 1 == units.len() {
                // Chunk the final backward; a gradient bucket's
                // reduce-scatter launches after each chunk.
                let chunk_seconds = cost.bwd_seconds / f64::from((pre.len() as u32).max(1));
                for (k, &id) in pre.iter().enumerate() {
                    ops.push(Op::Compute {
                        label: ComputeLabel::BackwardChunk {
                            microbatch: mb,
                            chunk: k as u32,
                        },
                        seconds: chunk_seconds,
                    });
                    ops.push(Op::CollStart { id });
                }
            } else {
                ops.push(Op::Compute {
                    label: ComputeLabel::Backward { microbatch: mb },
                    seconds: cost.bwd_seconds,
                });
            }
            if has_prev {
                ops.push(Op::Send {
                    key: key(device, prev, Channel::Gradient, gc - 1),
                    bytes: act_bytes,
                });
            }
        }

        // Gradient synchronization + optimizer step + parameter gather.
        if !cfg.dp_sync.overlaps_backward() {
            ops.extend(pre.iter().map(|&id| Op::CollStart { id }));
        }
        ops.extend(pre.iter().map(|&id| Op::CollWait { id }));
        ops.push(Op::Compute {
            label: ComputeLabel::Optimizer,
            seconds: *optimizer_seconds,
        });
        ops.extend(post.iter().map(|&id| Op::CollStart { id }));
        ops.extend(post.iter().map(|&id| Op::CollWait { id }));
        programs.push((device, ops));
    }

    Ok(ExecutionSpec {
        programs,
        collectives,
        transport: cfg.transport,
    })
}

/// Build and execute one iteration, returning the report and metrics.
///
/// `faults` runs the iteration under a deterministic
/// [`crate::fault::FaultPlan`] (see
/// [`crate::executor::execute_with_faults`]). `obs` instruments it: the
/// session accumulates the merged engine + netsim trace, the execution's
/// metrics and the `engine.iteration_seconds` gauge. Observation never
/// changes the returned report or metrics.
pub fn simulate_iteration(
    topo: &Topology,
    plan: &ParallelPlan,
    job: &TrainJob,
    cfg: &EngineConfig,
    faults: Option<&crate::fault::FaultPlan>,
    mut obs: Option<&mut holmes_obs::ObsSession>,
) -> Result<(IterationReport, TrainingMetrics), BuildError> {
    let spec = build_iteration(topo, plan, job, cfg)?;
    let report = execute_inner(topo, spec, faults, obs.as_deref_mut()).map_err(BuildError::Exec)?;
    let metrics = TrainingMetrics::from_report(job, plan.degrees().devices(), &report);
    if let Some(session) = obs {
        session
            .registry
            .gauge_set("engine.iteration_seconds", metrics.iteration_seconds);
    }
    Ok((report, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::CollKind;
    use holmes_model::ParameterGroup;
    use holmes_parallel::{
        GroupLayout, HolmesScheduler, ParallelDegrees, ParallelPlan, SelfAdaptingPartition,
        UniformPartition,
    };
    use holmes_topology::{presets, NicType};

    /// PG `pg` on a topology, uniform partition, Holmes placement.
    fn plan_for(topo: &Topology, pg: u8) -> (ParallelPlan, TrainJob) {
        let group = ParameterGroup::table2(pg);
        let degrees = ParallelDegrees::infer_data(
            group.tensor_parallel,
            group.pipeline_parallel,
            topo.device_count(),
        )
        .unwrap();
        let layout = GroupLayout::new(degrees);
        let assignment = HolmesScheduler::assign(topo);
        let speeds = vec![1.0; degrees.pipeline as usize];
        let layers = UniformPartition.partition(group.config.num_layers, &speeds);
        let plan = ParallelPlan::new(layout, assignment, layers, true);
        (plan, group.job())
    }

    #[test]
    fn pg1_runs_on_homogeneous_ib_4_nodes() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for(&topo, 1);
        let (report, metrics) =
            simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None).unwrap();
        // Table 1: 197 TFLOPS / 99.23 samples/s. The simulator should land
        // in the right regime (calibration is checked tightly in the core
        // crate; here we just require physical plausibility).
        assert!(
            metrics.tflops_per_gpu > 120.0 && metrics.tflops_per_gpu < 280.0,
            "tflops = {}",
            metrics.tflops_per_gpu
        );
        assert!(report.total_seconds > 1.0 && report.total_seconds < 20.0);
        // Reduce-scatter collectives ran (overlapped optimizer default).
        assert!(report.reduce_scatter_seconds() > 0.0);
    }

    #[test]
    fn mixed_nic_stage_on_same_gpu_fleet_pays_for_its_slowest_member() {
        // One GPU generation; Holmes placement puts two IB nodes on stage 0
        // and the third IB node plus the RoCE node on stage 1.
        let topo = presets::hybrid_split(3, 1);
        assert!(topo.uniform_compute());
        let (plan, job) = plan_for(&topo, 1);
        assert_eq!((plan.degrees().tensor, plan.degrees().pipeline), (1, 2));
        let stage1 = plan.stage_devices(1);
        // Stage 1's forward price on its first member with this NIC.
        let priced = |nic| {
            let rank = *stage1
                .iter()
                .find(|&&r| topo.device(r).unwrap().nic_type == nic)
                .expect("stage 1 mixes IB and RoCE");
            let coord = topo.device(rank).unwrap().coord;
            let node = &topo.clusters()[coord.cluster.0 as usize].nodes[coord.node.0 as usize];
            ComputeModel::with_interference(
                job.config,
                node.gpu.clone(),
                node.intra_link,
                1,
                job.micro_batch,
                node.nic.compute_interference,
            )
            .stage_cost(plan.stage_layers[1], true)
            .fwd_seconds
        };
        let (ib, roce) = (priced(NicType::InfiniBand), priced(NicType::RoCE));
        assert!(roce > ib, "RoCE {roce} vs IB {ib}");
        let spec = build_iteration(&topo, &plan, &job, &EngineConfig::default()).unwrap();
        let mut forwards = 0;
        for (device, ops) in &spec.programs {
            if !stage1.contains(device) {
                continue;
            }
            for op in ops {
                if let Op::Compute {
                    label: ComputeLabel::Forward { .. },
                    seconds,
                } = op
                {
                    assert_eq!(seconds.to_bits(), roce.to_bits(), "device {device}");
                    forwards += 1;
                }
            }
        }
        assert!(forwards > 0);
    }

    #[test]
    fn ib_beats_roce_beats_ethernet() {
        let run = |nic| {
            let topo = presets::homogeneous(nic, 4);
            let (plan, job) = plan_for(&topo, 1);
            simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None)
                .unwrap()
                .1
                .tflops_per_gpu
        };
        let ib = run(NicType::InfiniBand);
        let roce = run(NicType::RoCE);
        let eth = run(NicType::Ethernet);
        assert!(ib > roce, "IB {ib} vs RoCE {roce}");
        assert!(roce > eth, "RoCE {roce} vs Ethernet {eth}");
    }

    #[test]
    fn hybrid_beats_ethernet_with_holmes() {
        let hybrid = presets::hybrid_two_cluster(2);
        let (plan, job) = plan_for(&hybrid, 1);
        let (_, m_hybrid) =
            simulate_iteration(&hybrid, &plan, &job, &EngineConfig::default(), None, None).unwrap();

        let eth = presets::homogeneous(NicType::Ethernet, 4);
        let (plan_e, job_e) = plan_for(&eth, 1);
        let (_, m_eth) =
            simulate_iteration(&eth, &plan_e, &job_e, &EngineConfig::default(), None, None)
                .unwrap();
        assert!(
            m_hybrid.tflops_per_gpu > m_eth.tflops_per_gpu,
            "hybrid {} vs ethernet {}",
            m_hybrid.tflops_per_gpu,
            m_eth.tflops_per_gpu
        );
    }

    #[test]
    fn forced_tcp_baseline_is_slower_on_hybrid() {
        let topo = presets::hybrid_two_cluster(2);
        let (plan, job) = plan_for(&topo, 1);
        let auto = simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None)
            .unwrap()
            .1;
        let tcp_cfg = EngineConfig {
            transport: TransportPolicy::ForceTcpInterNode,
            ..EngineConfig::default()
        };
        let tcp = simulate_iteration(&topo, &plan, &job, &tcp_cfg, None, None)
            .unwrap()
            .1;
        assert!(
            auto.tflops_per_gpu > tcp.tflops_per_gpu,
            "auto {} vs tcp {}",
            auto.tflops_per_gpu,
            tcp.tflops_per_gpu
        );
    }

    #[test]
    fn overlapped_optimizer_beats_blocking_distributed_optimizer() {
        let topo = presets::homogeneous(NicType::RoCE, 4);
        let (plan, job) = plan_for(&topo, 1);
        let overlapped =
            simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None)
                .unwrap()
                .1;
        let blocking_cfg = EngineConfig {
            dp_sync: DpSyncStrategy::DistributedOptimizer,
            ..EngineConfig::default()
        };
        let blocking = simulate_iteration(&topo, &plan, &job, &blocking_cfg, None, None)
            .unwrap()
            .1;
        assert!(
            overlapped.tflops_per_gpu > blocking.tflops_per_gpu,
            "overlapped {} vs blocking {}",
            overlapped.tflops_per_gpu,
            blocking.tflops_per_gpu
        );
    }

    #[test]
    fn one_f_one_b_beats_gpipe() {
        // Identical everything except the schedule: 1F1B and GPipe share
        // the same bubble in theory, but GPipe's flush serializes the
        // forward and backward phases across stages, so with DP sync at
        // the end 1F1B should be at least as fast.
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for(&topo, 1);
        let f1b = simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None)
            .unwrap()
            .0
            .total_seconds;
        let gp_cfg = EngineConfig {
            schedule: ScheduleKind::GPipe,
            ..EngineConfig::default()
        };
        let gp = simulate_iteration(&topo, &plan, &job, &gp_cfg, None, None)
            .unwrap()
            .0
            .total_seconds;
        assert!(f1b <= gp * 1.02, "1f1b {f1b} vs gpipe {gp}");
    }

    #[test]
    fn self_adapting_partition_beats_uniform_on_hybrid() {
        let topo = presets::hybrid_two_cluster(2);
        // Stage speeds from Table 1 TFLOPS: IB stage faster than RoCE stage.
        let speeds = [197.0, 160.0];
        let (plan_u, job) = plan_for(&topo, 1);
        let plan_sa = ParallelPlan {
            stage_layers: SelfAdaptingPartition::default()
                .partition(job.config.num_layers, &speeds),
            ..plan_u.clone()
        };
        let cfg = EngineConfig::default();
        let uni = simulate_iteration(&topo, &plan_u, &job, &cfg, None, None)
            .unwrap()
            .1;
        let sa = simulate_iteration(&topo, &plan_sa, &job, &cfg, None, None)
            .unwrap()
            .1;
        assert!(
            sa.tflops_per_gpu >= uni.tflops_per_gpu,
            "self-adapting {} vs uniform {}",
            sa.tflops_per_gpu,
            uni.tflops_per_gpu
        );
    }

    #[test]
    fn batch_indivisible_is_an_error() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, mut job) = plan_for(&topo, 1);
        job.global_batch = 7; // not divisible by d=16 × micro 4
        assert!(matches!(
            simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None),
            Err(BuildError::BatchIndivisible { .. })
        ));
    }

    #[test]
    fn plan_for_a_larger_fleet_is_a_typed_error() {
        let big = holmes_topology::parse_topology_spec("ib:4+roce:4").unwrap();
        let small = holmes_topology::parse_topology_spec("ib:4").unwrap();
        let (plan, job) = plan_for(&big, 1);
        let err = build_iteration(&small, &plan, &job, &EngineConfig::default()).unwrap_err();
        let BuildError::RankOutsideTopology { rank, devices } = err else {
            panic!("expected RankOutsideTopology, got {err:?}");
        };
        assert_eq!(devices, small.device_count());
        assert!(rank.0 >= devices && rank.0 < big.device_count(), "{rank}");
        assert!(err.to_string().contains("outside the topology"));
    }

    #[test]
    fn layer_mismatch_is_an_error() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (mut plan, job) = plan_for(&topo, 1);
        plan.stage_layers = vec![10, 10]; // model has 30
        assert!(matches!(
            simulate_iteration(&topo, &plan, &job, &EngineConfig::default(), None, None),
            Err(BuildError::LayerMismatch { .. })
        ));
    }

    #[test]
    fn allreduce_strategy_emits_allreduce_collectives() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for(&topo, 1);
        let cfg = EngineConfig {
            dp_sync: DpSyncStrategy::AllReduce,
            ..EngineConfig::default()
        };
        let spec = build_iteration(&topo, &plan, &job, &cfg).unwrap();
        assert!(spec
            .collectives
            .iter()
            .all(|c| c.kind == CollKind::AllReduce));
        // One collective per DP group (p·t = 2).
        assert_eq!(spec.collectives.len(), 2);
    }

    #[test]
    fn spanning_dp_group_upgrades_to_hierarchical_allreduce() {
        // p = 1 → one DP group over all 32 devices, straddling the two
        // clusters → the flat all-reduce upgrades to the hierarchical
        // algorithm (unless disabled or the transport is TCP-only).
        let topo = presets::same_nic_two_clusters(NicType::InfiniBand, 2);
        let group = ParameterGroup::table2(1);
        let degrees = ParallelDegrees::infer_data(1, 1, topo.device_count()).unwrap();
        let layout = GroupLayout::new(degrees);
        let assignment = HolmesScheduler::assign(&topo);
        let layers = UniformPartition.partition(group.config.num_layers, &[1.0]);
        let plan = ParallelPlan::new(layout, assignment, layers, true);
        let job = group.job();
        let build = |cfg: EngineConfig| build_iteration(&topo, &plan, &job, &cfg).unwrap();

        let cfg = EngineConfig {
            dp_sync: DpSyncStrategy::AllReduce,
            ..EngineConfig::default()
        };
        let spec = build(cfg);
        assert!(spec
            .collectives
            .iter()
            .all(|c| c.kind == CollKind::HierarchicalAllReduce));

        let spec = build(EngineConfig {
            hierarchical_cross_cluster: false,
            ..cfg
        });
        assert!(spec
            .collectives
            .iter()
            .all(|c| c.kind == CollKind::AllReduce));

        let spec = build(EngineConfig {
            transport: TransportPolicy::ForceTcpInterNode,
            ..cfg
        });
        assert!(spec
            .collectives
            .iter()
            .all(|c| c.kind == CollKind::AllReduce));

        // Non-spanning groups never upgrade, whatever the config says.
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for(&topo, 1);
        let spec = build_iteration(&topo, &plan, &job, &cfg).unwrap();
        assert!(spec
            .collectives
            .iter()
            .all(|c| c.kind == CollKind::AllReduce));
    }

    #[test]
    fn overlapped_strategy_emits_buckets() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for(&topo, 1);
        let spec = build_iteration(&topo, &plan, &job, &EngineConfig::default()).unwrap();
        // 2 DP groups × (8 RS buckets + 8 AG buckets).
        assert_eq!(spec.collectives.len(), 32);
        let rs = spec
            .collectives
            .iter()
            .filter(|c| c.kind == CollKind::ReduceScatter)
            .count();
        assert_eq!(rs, 16);
    }

    #[test]
    fn program_count_matches_devices() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for(&topo, 1);
        let spec = build_iteration(&topo, &plan, &job, &EngineConfig::default()).unwrap();
        assert_eq!(spec.programs.len(), 32);
    }
}

#[cfg(test)]
mod interleaved_tests {
    use super::*;
    use crate::executor::execute;
    use crate::ops::ComputeLabel;
    use holmes_model::{GptConfig, ParameterGroup, TrainJob};
    use holmes_parallel::{
        GroupLayout, HolmesScheduler, ParallelDegrees, ParallelPlan, UniformPartition,
    };
    use holmes_topology::{presets, NicType, Topology};

    fn small_job() -> TrainJob {
        TrainJob {
            config: GptConfig::paper_standard(12, 1024, 16),
            micro_batch: 2,
            global_batch: 256,
        }
    }

    fn plan_on(topo: &Topology, t: u32, p: u32, layers: u32) -> ParallelPlan {
        let degrees = ParallelDegrees::infer_data(t, p, topo.device_count()).unwrap();
        let layout = GroupLayout::new(degrees);
        let assignment = HolmesScheduler::assign(topo);
        let stage_layers = UniformPartition.partition(layers, &vec![1.0; p as usize]);
        ParallelPlan::new(layout, assignment, stage_layers, true)
    }

    #[test]
    fn interleaved_executes_without_deadlock_across_depths() {
        for (nodes, p) in [(2u32, 2u32), (4, 2), (4, 4)] {
            for v in [1u32, 2, 3] {
                let topo = presets::homogeneous(NicType::InfiniBand, nodes);
                let plan = plan_on(&topo, 1, p, 12);
                let job = small_job();
                let d = topo.device_count() / p;
                let m = job.microbatches_per_replica(d).unwrap();
                if !m.is_multiple_of(p) {
                    continue;
                }
                let cfg = EngineConfig {
                    schedule: ScheduleKind::Interleaved { virtual_stages: v },
                    ..EngineConfig::default()
                };
                let spec = build_iteration(&topo, &plan, &job, &cfg)
                    .unwrap_or_else(|e| panic!("build p={p} v={v}: {e}"));
                let report =
                    execute(&topo, spec).unwrap_or_else(|e| panic!("exec p={p} v={v}: {e}"));
                assert!(report.total_seconds > 0.0, "p={p} v={v}");
            }
        }
    }

    #[test]
    fn interleaved_compute_totals_match_1f1b() {
        // Same model, same micro-batches: total compute per device must be
        // identical regardless of interleaving (only the order changes).
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let plan = plan_on(&topo, 1, 2, 12);
        let job = small_job();
        let base = build_iteration(&topo, &plan, &job, &EngineConfig::default()).unwrap();
        let inter_cfg = EngineConfig {
            schedule: ScheduleKind::Interleaved { virtual_stages: 2 },
            ..EngineConfig::default()
        };
        let inter = build_iteration(&topo, &plan, &job, &inter_cfg).unwrap();
        let compute_total = |spec: &ExecutionSpec, dev: usize| -> f64 {
            spec.programs[dev]
                .1
                .iter()
                .map(|op| match op {
                    Op::Compute { seconds, label } if *label != ComputeLabel::Optimizer => *seconds,
                    _ => 0.0,
                })
                .sum()
        };
        for dev in [0usize, 16] {
            let a = compute_total(&base, dev);
            let b = compute_total(&inter, dev);
            assert!((a - b).abs() / a < 1e-9, "dev {dev}: {a} vs {b}");
        }
    }

    #[test]
    fn interleaving_reduces_bubble_when_microbatches_are_scarce() {
        // Few micro-batches per replica → big 1F1B bubble → interleaving
        // with v=3 must cut iteration time. This only pays off when
        // per-chunk compute dominates the extra p2p hops interleaving
        // introduces, so use a wide (compute-heavy) model.
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let plan = plan_on(&topo, 1, 4, 12);
        let job = TrainJob {
            config: GptConfig::paper_standard(12, 4096, 32),
            micro_batch: 2,
            global_batch: 64, // d=8 → m=4 = p: worst-case bubble
        };
        let run = |schedule| {
            let cfg = EngineConfig {
                schedule,
                ..EngineConfig::default()
            };
            let spec = build_iteration(&topo, &plan, &job, &cfg).unwrap();
            execute(&topo, spec).unwrap().total_seconds
        };
        let plain = run(ScheduleKind::OneFOneB);
        let interleaved = run(ScheduleKind::Interleaved { virtual_stages: 3 });
        assert!(
            interleaved < plain,
            "interleaved {interleaved} vs 1f1b {plain}"
        );
    }

    #[test]
    fn interleaved_rejects_indivisible_microbatches() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let plan = plan_on(&topo, 1, 4, 12);
        // d=8 → m = 96/8/2 = 6, not divisible by p=4.
        let job = TrainJob {
            config: GptConfig::paper_standard(12, 1024, 16),
            micro_batch: 2,
            global_batch: 96,
        };
        let cfg = EngineConfig {
            schedule: ScheduleKind::Interleaved { virtual_stages: 2 },
            ..EngineConfig::default()
        };
        assert!(matches!(
            build_iteration(&topo, &plan, &job, &cfg),
            Err(BuildError::InterleavedIndivisible {
                microbatches: 6,
                pipeline: 4
            })
        ));
    }

    #[test]
    fn interleaved_runs_the_paper_workload() {
        // PG1 on 4 nodes with v=2, as the paper's setup describes.
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let pg = ParameterGroup::table2(1);
        let plan = plan_on(&topo, 1, 2, 30);
        let cfg = EngineConfig {
            schedule: ScheduleKind::Interleaved { virtual_stages: 2 },
            ..EngineConfig::default()
        };
        let (report, metrics) =
            simulate_iteration(&topo, &plan, &pg.job(), &cfg, None, None).unwrap();
        assert!(metrics.tflops_per_gpu > 100.0 && metrics.tflops_per_gpu < 312.0);
        assert!(report.reduce_scatter_seconds() > 0.0);
    }

    #[test]
    fn single_stage_interleaved_degenerates() {
        // p=1: no pipeline traffic at all; chunks are local.
        let topo = presets::homogeneous(NicType::InfiniBand, 2);
        let plan = plan_on(&topo, 1, 1, 12);
        let job = small_job();
        let cfg = EngineConfig {
            schedule: ScheduleKind::Interleaved { virtual_stages: 4 },
            ..EngineConfig::default()
        };
        let spec = build_iteration(&topo, &plan, &job, &cfg).unwrap();
        // No sends/recvs in any program.
        assert!(spec.programs.iter().all(|(_, ops)| ops
            .iter()
            .all(|op| !matches!(op, Op::Send { .. } | Op::Recv { .. }))));
        execute(&topo, spec).unwrap();
    }
}

#[cfg(test)]
mod config_option_tests {
    use super::*;
    use crate::dp_sync::DpSyncStrategy;
    use crate::executor::execute;
    use holmes_model::ParameterGroup;
    use holmes_parallel::{
        GroupLayout, HolmesScheduler, ParallelDegrees, ParallelPlan, UniformPartition,
    };
    use holmes_topology::{presets, NicType};

    fn pg1_plan(topo: &holmes_topology::Topology) -> (ParallelPlan, holmes_model::TrainJob) {
        let pg = ParameterGroup::table2(1);
        let degrees = ParallelDegrees::infer_data(1, 2, topo.device_count()).unwrap();
        let layout = GroupLayout::new(degrees);
        let assignment = HolmesScheduler::assign(topo);
        let layers = UniformPartition.partition(30, &[1.0, 1.0]);
        (
            ParallelPlan::new(layout, assignment, layers, true),
            pg.job(),
        )
    }

    #[test]
    fn recompute_activations_slows_the_iteration_predictably() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = pg1_plan(&topo);
        for schedule in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { virtual_stages: 1 },
            ScheduleKind::Interleaved { virtual_stages: 2 },
        ] {
            let run = |recompute_activations| {
                let cfg = EngineConfig {
                    schedule,
                    recompute_activations,
                    ..EngineConfig::default()
                };
                simulate_iteration(&topo, &plan, &job, &cfg, None, None)
                    .unwrap()
                    .0
                    .total_seconds
            };
            let (base, recompute) = (run(false), run(true));
            // Backward goes from 2×fwd to 3×fwd: the compute-bound part
            // grows by ≈ 1/3; the full iteration by somewhat less.
            let ratio = recompute / base;
            assert!(
                (1.15..1.40).contains(&ratio),
                "{schedule:?}: recompute ratio {ratio} (base {base}, recompute {recompute})"
            );
        }
    }

    #[test]
    fn zero3_gathers_params_at_iteration_start() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = pg1_plan(&topo);
        let cfg = EngineConfig {
            dp_sync: DpSyncStrategy::Zero3,
            ..EngineConfig::default()
        };
        let spec = build_iteration(&topo, &plan, &job, &cfg).unwrap();
        // Prologue: every program starts with CollStart + CollWait of an
        // all-gather.
        for (_, ops) in &spec.programs {
            assert!(matches!(ops[0], Op::CollStart { .. }), "{:?}", &ops[..2]);
            assert!(matches!(ops[1], Op::CollWait { .. }));
        }
        let ag = spec
            .collectives
            .iter()
            .filter(|c| c.kind == crate::executor::CollKind::AllGather)
            .count();
        // One prologue AG per DP group, no post-optimizer AG.
        assert_eq!(ag, 2);
        execute(&topo, spec).unwrap();
    }

    #[test]
    fn zero3_is_slower_than_zero1_on_slow_networks() {
        let topo = presets::homogeneous(NicType::Ethernet, 4);
        let (plan, job) = pg1_plan(&topo);
        let run = |dp_sync| {
            let cfg = EngineConfig {
                dp_sync,
                ..EngineConfig::default()
            };
            simulate_iteration(&topo, &plan, &job, &cfg, None, None)
                .unwrap()
                .0
                .total_seconds
        };
        let zero1 = run(DpSyncStrategy::DistributedOptimizer);
        let zero3 = run(DpSyncStrategy::Zero3);
        // Same total collective volume (AG moved to the front), but the
        // prologue AG delays *all* compute instead of trailing it, so
        // ZeRO-3 cannot be faster here.
        assert!(zero3 >= zero1 * 0.98, "zero3 {zero3} vs zero1 {zero1}");
    }
}

#[cfg(test)]
mod memory_enforcement_tests {
    use super::*;
    use holmes_model::ParameterGroup;
    use holmes_parallel::{
        GroupLayout, HolmesScheduler, ParallelDegrees, ParallelPlan, UniformPartition,
    };
    use holmes_topology::{presets, NicType};

    fn plan_for_pg(
        topo: &holmes_topology::Topology,
        pg: u8,
        t: u32,
        p: u32,
    ) -> (ParallelPlan, holmes_model::TrainJob) {
        let group = ParameterGroup::table2(pg);
        let degrees = ParallelDegrees::infer_data(t, p, topo.device_count()).unwrap();
        let layout = GroupLayout::new(degrees);
        let assignment = HolmesScheduler::assign(topo);
        let layers = UniformPartition.partition(group.config.num_layers, &vec![1.0; p as usize]);
        (
            ParallelPlan::new(layout, assignment, layers, true),
            group.job(),
        )
    }

    #[test]
    fn pg7_without_tensor_parallelism_ooms() {
        // 39.1 B with t=1: weights alone exceed 80 GiB per stage.
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for_pg(&topo, 7, 1, 2);
        let cfg = EngineConfig {
            enforce_memory: true,
            ..EngineConfig::default()
        };
        assert!(matches!(
            build_iteration(&topo, &plan, &job, &cfg),
            Err(BuildError::OutOfMemory { stage: 0, .. })
        ));
    }

    #[test]
    fn pg7_with_t8_fits() {
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for_pg(&topo, 7, 8, 2);
        let cfg = EngineConfig {
            enforce_memory: true,
            ..EngineConfig::default()
        };
        assert!(build_iteration(&topo, &plan, &job, &cfg).is_ok());
    }

    #[test]
    fn interleaved_warmup_charges_more_activations_than_1f1b() {
        // Megatron's interleaved warm-up runs `2(p−s−1)` forwards before
        // the first backward, so stage 0 keeps 3 micro-batches alive at
        // p = 2 where 1F1B keeps 2. Both out of memory: compare the bill.
        let topo = presets::homogeneous(NicType::InfiniBand, 4);
        let (plan, job) = plan_for_pg(&topo, 7, 1, 2);
        let needed = |schedule| {
            let cfg = EngineConfig {
                schedule,
                enforce_memory: true,
                ..EngineConfig::default()
            };
            match build_iteration(&topo, &plan, &job, &cfg) {
                Err(BuildError::OutOfMemory {
                    stage: 0,
                    needed_bytes,
                    ..
                }) => needed_bytes,
                other => panic!("{schedule:?}: expected stage-0 OOM, got {other:?}"),
            }
        };
        let f1b = needed(ScheduleKind::OneFOneB);
        let inter = needed(ScheduleKind::Interleaved { virtual_stages: 1 });
        assert!(inter > f1b, "interleaved {inter} vs 1f1b {f1b}");
    }

    #[test]
    fn gpipe_needs_more_memory_than_1f1b() {
        // PG3 with t=1: 1F1B keeps ≤ p micro-batches alive and fits; GPipe
        // keeps all m = 24 and blows past 80 GiB.
        let topo = presets::homogeneous(NicType::InfiniBand, 8);
        let (plan, job) = plan_for_pg(&topo, 3, 1, 2);
        let f1b = EngineConfig {
            enforce_memory: true,
            ..EngineConfig::default()
        };
        assert!(build_iteration(&topo, &plan, &job, &f1b).is_ok());
        let gpipe = EngineConfig {
            schedule: ScheduleKind::GPipe,
            enforce_memory: true,
            ..EngineConfig::default()
        };
        assert!(matches!(
            build_iteration(&topo, &plan, &job, &gpipe),
            Err(BuildError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn recomputation_rescues_gpipe_memory() {
        let topo = presets::homogeneous(NicType::InfiniBand, 8);
        let (plan, job) = plan_for_pg(&topo, 3, 1, 2);
        let cfg = EngineConfig {
            schedule: ScheduleKind::GPipe,
            enforce_memory: true,
            recompute_activations: true,
            ..EngineConfig::default()
        };
        assert!(build_iteration(&topo, &plan, &job, &cfg).is_ok());
    }
}
