//! `holmes_sim` — command-line front end to the Holmes simulator.
//!
//! ```text
//! USAGE:
//!   holmes_sim [--env ENV] [--nodes N] [--pg K] [--framework F]
//!              [--iterations I] [--alpha A] [--trace FILE]
//!
//!   --env        infiniband | roce | ethernet | hybrid | ib+eth | roce+eth
//!                (default: hybrid)
//!   --topo       explicit topology spec, e.g. "ib:2x4+roce:2x4"
//!                (overrides --env/--nodes)
//!   --nodes      total node count, split evenly for two-cluster envs
//!                (default: 4)
//!   --pg         Table 2 parameter group 1..=8 (default: 1)
//!   --framework  holmes | megatron-lm | megatron-deepspeed | megatron-llama
//!                (default: holmes)
//!   --iterations simulate a multi-iteration run of this length
//!   --alpha      Self-Adapting Partition α (default: 1.05)
//!   --trace      write the merged engine + netsim Chrome-trace JSON of
//!                one iteration to FILE
//!   --json       print the result as a JSON object instead of text
//! ```

use std::process::ExitCode;

use holmes::engine::DpSyncStrategy;
use holmes::obs::ObsSession;
use holmes::topology::{presets, NicType, Node, Topology};
use holmes::{
    run_scenario, simulate_training_run, FrameworkKind, HolmesConfig, Scenario, TrainingRunConfig,
};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    env: String,
    topo: Option<String>,
    nodes: u32,
    pg: u8,
    framework: FrameworkKind,
    iterations: Option<u32>,
    /// Self-Adapting Partition α; `None` keeps Holmes's default. Only
    /// `--framework holmes` partitions adaptively.
    alpha: Option<f64>,
    trace: Option<String>,
    json: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            env: "hybrid".to_owned(),
            topo: None,
            nodes: 4,
            pg: 1,
            framework: FrameworkKind::Holmes,
            iterations: None,
            alpha: None,
            trace: None,
            json: false,
        }
    }
}

/// Parse arguments; pure so it is unit-testable.
fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--env" => args.env = value("--env")?,
            "--topo" => args.topo = Some(value("--topo")?),
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--pg" => {
                args.pg = value("--pg")?.parse().map_err(|e| format!("--pg: {e}"))?;
                if !(1..=8).contains(&args.pg) {
                    return Err("--pg must be 1..=8".to_owned());
                }
            }
            "--framework" => {
                args.framework = match value("--framework")?.as_str() {
                    "holmes" => FrameworkKind::Holmes,
                    "megatron-lm" => FrameworkKind::MegatronLm,
                    "megatron-deepspeed" => FrameworkKind::MegatronDeepSpeed,
                    "megatron-llama" => FrameworkKind::MegatronLlama,
                    other => return Err(format!("unknown framework '{other}'")),
                }
            }
            "--iterations" => {
                let iterations = value("--iterations")?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?;
                if iterations == 0 {
                    return Err("--iterations must be positive".to_owned());
                }
                args.iterations = Some(iterations);
            }
            "--alpha" => {
                let alpha: f64 = value("--alpha")?
                    .parse()
                    .map_err(|e| format!("--alpha: {e}"))?;
                if !(alpha.is_finite() && alpha > 0.0) {
                    return Err("--alpha must be finite and positive".to_owned());
                }
                args.alpha = Some(alpha);
            }
            "--trace" => args.trace = Some(value("--trace")?),
            "--json" => args.json = true,
            "--help" | "-h" => return Err("help".to_owned()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.alpha.is_some() && args.framework != FrameworkKind::Holmes {
        return Err(format!(
            "--alpha applies only to --framework holmes, not {}",
            args.framework
        ));
    }
    Ok(args)
}

/// The chosen framework's planner flags and gradient-sync fallback, with
/// `--alpha` applied to Holmes's Self-Adapting Partition.
fn framework_flags(args: &Args) -> (HolmesConfig, DpSyncStrategy) {
    let mut cfg = args.framework.as_holmes_flags();
    if let Some(alpha) = args.alpha {
        cfg.alpha = alpha;
    }
    (cfg, args.framework.dp_fallback())
}

/// Build the topology for an environment name.
fn build_topology(env: &str, nodes: u32) -> Result<Topology, String> {
    if nodes == 0 {
        return Err("--nodes must be positive".to_owned());
    }
    // Bound the fleet before any node is allocated.
    Topology::check_device_total(u64::from(nodes) * u64::from(Node::STANDARD_GPUS))
        .map_err(|e| e.to_string())?;
    let half = (nodes / 2).max(1);
    Ok(match env {
        "infiniband" | "ib" => presets::homogeneous(NicType::InfiniBand, nodes),
        "roce" => presets::homogeneous(NicType::RoCE, nodes),
        "ethernet" | "eth" => presets::homogeneous(NicType::Ethernet, nodes),
        "hybrid" => presets::hybrid_two_cluster(half),
        "ib+eth" => presets::same_nic_two_clusters(NicType::InfiniBand, half),
        "roce+eth" => presets::same_nic_two_clusters(NicType::RoCE, half),
        other => return Err(format!("unknown environment '{other}'")),
    })
}

fn run(args: Args) -> Result<(), String> {
    let topo = match &args.topo {
        Some(spec) => holmes::topology::parse_topology_spec(spec)?,
        None => build_topology(&args.env, args.nodes)?,
    };
    let gpus = topo.device_count();
    if !args.json {
        println!(
            "env={} nodes={} gpus={} pg={} framework={}",
            args.env,
            topo.node_count(),
            gpus,
            args.pg,
            args.framework
        );
    }

    let (cfg, fallback) = framework_flags(&args);
    let scenario = Scenario::new(topo, args.pg);
    // The trace is the merged engine + netsim session trace; observing
    // the run does not change its result.
    let mut session = args.trace.as_ref().map(|_| ObsSession::new());
    let result =
        run_scenario(&scenario, &cfg, fallback, session.as_mut()).map_err(|e| e.to_string())?;

    if args.json {
        let layers: Vec<String> = result.stage_layers.iter().map(u32::to_string).collect();
        println!(
            "{{\"framework\":\"{}\",\"gpus\":{},\"pg\":{},\"iteration_seconds\":{:.6},\
             \"tflops_per_gpu\":{:.3},\"samples_per_sec\":{:.3},\"stage_layers\":[{}],\
             \"rdma_dp_groups\":{},\"total_dp_groups\":{}}}",
            args.framework,
            gpus,
            args.pg,
            result.metrics.iteration_seconds,
            result.metrics.tflops_per_gpu,
            result.metrics.throughput_samples_per_sec,
            layers.join(","),
            result.nic.rdma_groups,
            result.nic.groups.len()
        );
    } else {
        println!(
            "iteration: {:.2} s | {:.1} TFLOPS/GPU | {:.2} samples/s | stage layers {:?}",
            result.metrics.iteration_seconds,
            result.metrics.tflops_per_gpu,
            result.metrics.throughput_samples_per_sec,
            result.stage_layers
        );
        println!(
            "NIC selection: {}/{} data-parallel groups on RDMA",
            result.nic.rdma_groups,
            result.nic.groups.len()
        );
    }

    if let (Some(path), Some(session)) = (&args.trace, &session) {
        std::fs::write(path, session.trace.to_chrome_trace())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("chrome trace written to {path}");
    }

    if let Some(iterations) = args.iterations {
        let report = simulate_training_run(
            &scenario,
            &cfg,
            fallback,
            &TrainingRunConfig {
                iterations,
                ..TrainingRunConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        println!(
            "{iterations}-iteration run: mean {:.2} s, p95 {:.2} s, {:.0} tokens/s",
            report.mean_seconds, report.p95_seconds, report.tokens_per_sec
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(argv) {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) if msg == "help" => {
            eprintln!("see module docs: holmes_sim --env hybrid --nodes 4 --pg 1");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_when_no_flags() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, Args::default());
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(&[
            "--env",
            "roce",
            "--nodes",
            "8",
            "--pg",
            "3",
            "--framework",
            "holmes",
            "--iterations",
            "20",
            "--alpha",
            "1.1",
            "--trace",
            "/tmp/t.json",
        ])
        .unwrap();
        assert_eq!(args.env, "roce");
        assert_eq!(args.nodes, 8);
        assert_eq!(args.pg, 3);
        assert_eq!(args.framework, FrameworkKind::Holmes);
        assert_eq!(args.iterations, Some(20));
        assert_eq!(args.alpha, Some(1.1));
        assert_eq!(args.trace.as_deref(), Some("/tmp/t.json"));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(parse(&["--pg", "9"]).is_err());
        assert!(parse(&["--pg"]).is_err());
        assert!(parse(&["--framework", "pytorch"]).is_err());
        assert!(parse(&["--nodes", "abc"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--iterations", "0"]).is_err());
        assert!(parse(&["--iterations", "-1"]).is_err());
        for alpha in ["nan", "NaN", "0", "-0", "-1", "inf", "-inf"] {
            assert!(parse(&["--alpha", alpha]).is_err(), "--alpha {alpha}");
        }
        // Fleets past `MAX_DEVICES` are refused before any allocation.
        assert!(build_topology("ib", 536_870_912).is_err());
        assert!(build_topology("hybrid", 536_870_912).is_err());
        assert!(holmes::topology::parse_topology_spec("ib:536870912").is_err());
        assert_eq!(parse(&["--iterations", "1"]).unwrap().iterations, Some(1));
        assert_eq!(parse(&["--alpha", "0.5"]).unwrap().alpha, Some(0.5));
        // α tunes Holmes's adaptive partition; no baseline has one.
        for framework in ["megatron-lm", "megatron-deepspeed", "megatron-llama"] {
            let err = parse(&["--framework", framework, "--alpha", "1.1"]).unwrap_err();
            assert!(err.contains("--alpha"), "{framework}: {err}");
            assert!(parse(&["--framework", framework]).is_ok());
        }
    }

    /// The multi-iteration run prices the chosen framework: jitter and
    /// warm-up only ever add time, so every framework's mean is at least
    /// its own single-iteration seconds (a run priced as Holmes would
    /// undercut the slower baselines).
    #[test]
    fn training_run_prices_the_chosen_framework() {
        let topo = build_topology("hybrid", 4).unwrap();
        for framework in FrameworkKind::ALL {
            let args = Args {
                framework,
                ..Args::default()
            };
            let (cfg, fallback) = framework_flags(&args);
            let scenario = Scenario::new(topo.clone(), args.pg);
            let single = run_scenario(&scenario, &cfg, fallback, None)
                .unwrap()
                .metrics
                .iteration_seconds;
            let run = TrainingRunConfig {
                iterations: 4,
                ..TrainingRunConfig::default()
            };
            let mean = simulate_training_run(&scenario, &cfg, fallback, &run)
                .unwrap()
                .mean_seconds;
            assert!(mean >= single, "{framework}: mean {mean} < single {single}");
        }
    }

    #[test]
    fn json_flag_parses() {
        assert!(parse(&["--json"]).unwrap().json);
        assert!(!parse(&[]).unwrap().json);
    }

    #[test]
    fn topo_spec_flag_parses() {
        let args = parse(&["--topo", "ib:2x4+roce:2x4"]).unwrap();
        assert_eq!(args.topo.as_deref(), Some("ib:2x4+roce:2x4"));
    }

    #[test]
    fn topologies_build_for_every_env_name() {
        for env in [
            "infiniband",
            "ib",
            "roce",
            "ethernet",
            "eth",
            "hybrid",
            "ib+eth",
            "roce+eth",
        ] {
            let topo = build_topology(env, 4).unwrap();
            assert!(topo.device_count() > 0, "{env}");
        }
        assert!(build_topology("token-ring", 4).is_err());
        assert!(build_topology("hybrid", 0).is_err());
    }

    /// Argument tokens the fuzz draws from: every flag, near misses of
    /// the flags, and values in and out of each flag's range. Node counts
    /// in range stay small so a case builds a small fleet; the
    /// out-of-range ones are refused before any allocation.
    #[rustfmt::skip]
    const TOKENS: &[&str] = &[
        // Flags, then near misses of them.
        "--env", "--topo", "--nodes", "--pg", "--framework", "--iterations", "--alpha",
        "--trace", "--json", "--help", "-h",
        "--Env", "-env", "--pg=3", "--node", "env", "--", "-", "", "--alpha1", "--json=1",
        // Environments and topology specs.
        "infiniband", "ib", "roce", "ethernet", "eth", "hybrid", "ib+eth", "roce+eth", "IB",
        "hybird", "ib:2x4+roce:2x4", "ib:4", "ib:536870912", "roce:0", "eth:2x0", "ib:", "+",
        // Counts: --pg is 1..=8, --nodes and --iterations are positive u32s.
        "0", "1", "2", "3", "7", "8", "9", "64", "255", "256", "131073", "536870912",
        "4294967295", "4294967296", "-1", "-3", "abc", "1e3",
        // Frameworks, then α values in and out of range.
        "holmes", "megatron-lm", "megatron-deepspeed", "megatron-llama", "pytorch",
        "1.05", "0.5", "-0", "nan", "NaN", "inf", "-inf", "1e308", "1e-320",
    ];

    /// Characters of the random tokens.
    const CHARS: &[char] = &[
        '-', '+', ':', 'x', 'i', 'b', 'e', '0', '1', '9', '.', ' ', 'é',
    ];

    proptest::proptest! {
        /// Random argument vectors: `parse_args`, then the topology the
        /// run would build, answer with a value or an error, never a
        /// panic, and an accepted fleet holds 1..=`MAX_DEVICES` devices.
        #[test]
        fn random_argument_vectors_never_panic(
            picks in proptest::prop::collection::vec(
                (0..TOKENS.len() + 1, proptest::prop::collection::vec(0..CHARS.len(), 0..8)),
                0..10,
            ),
        ) {
            let argv: Vec<String> = picks
                .iter()
                .map(|(i, chars)| match TOKENS.get(*i) {
                    Some(token) => (*token).to_owned(),
                    None => chars.iter().map(|&c| CHARS[c]).collect(),
                })
                .collect();
            let outcome = std::panic::catch_unwind(|| {
                let args = parse_args(argv.clone()).ok()?;
                let topo = match &args.topo {
                    Some(spec) => holmes::topology::parse_topology_spec(spec),
                    None => build_topology(&args.env, args.nodes),
                };
                topo.ok().map(|t| t.device_count())
            });
            proptest::prop_assert!(outcome.is_ok(), "{argv:?} panicked");
            if let Ok(Some(devices)) = outcome {
                proptest::prop_assert!(
                    (1..=holmes::topology::MAX_DEVICES).contains(&devices),
                    "{argv:?} built {devices} devices"
                );
            }
        }
    }
}
