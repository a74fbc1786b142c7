//! The four workloads: which inputs each one draws, and in what order.
//!
//! Nothing here touches the library. A workload is a list of distinct
//! cases (the inputs a user would ask about) plus a seeded, endless query
//! order over them: every round is a fresh SplitMix64 shuffle of all
//! cases. Runs stop only between rounds, so each case is measured equally
//! often and the latency mix does not drift with the seed or the run
//! length. Only `churn_whatif` draws case parameters (fault onset, victim
//! node) from the seed.

use std::fmt;

/// One closed-loop workload: a single client, no think time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper cells, parsed from spec strings, planned, built and
    /// simulated: `engine`/`netsim` do nearly all the work.
    PaperGrid,
    /// What-if planning on synthetic fleets, estimated but never
    /// simulated: `parallel::synth` does nearly all the work.
    FleetPlan,
    /// `autotune` on mixed-NIC and mixed-generation fleets: many plans
    /// and estimates plus parallel finalist simulations.
    AutotuneMix,
    /// A clean iteration, the same iteration under one fault, and a
    /// re-plan after membership churn.
    ChurnWhatif,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::FleetPlan,
        Workload::AutotuneMix,
        Workload::ChurnWhatif,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::FleetPlan => "fleet_plan",
            Workload::AutotuneMix => "autotune_mix",
            Workload::ChurnWhatif => "churn_whatif",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A framework emulation or a Table 5 ablation of Holmes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    Holmes,
    MegatronLm,
    MegatronDeepSpeed,
    MegatronLlama,
    WithoutSelfAdapting,
    WithoutOverlap,
    WithoutBoth,
}

impl Framework {
    const COMPARED: [Framework; 4] = [
        Framework::Holmes,
        Framework::MegatronLm,
        Framework::MegatronDeepSpeed,
        Framework::MegatronLlama,
    ];
    const ALL: [Framework; 7] = [
        Framework::Holmes,
        Framework::MegatronLm,
        Framework::MegatronDeepSpeed,
        Framework::MegatronLlama,
        Framework::WithoutSelfAdapting,
        Framework::WithoutOverlap,
        Framework::WithoutBoth,
    ];

    fn name(self) -> &'static str {
        match self {
            Framework::Holmes => "Holmes",
            Framework::MegatronLm => "Megatron-LM",
            Framework::MegatronDeepSpeed => "Megatron-DeepSpeed",
            Framework::MegatronLlama => "Megatron-LLaMA",
            Framework::WithoutSelfAdapting => "w/o-self-adapting",
            Framework::WithoutOverlap => "w/o-overlap",
            Framework::WithoutBoth => "w/o-both",
        }
    }
}

/// Where a case's topology comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoSource {
    /// A topology spec string such as `ib:2+roce:2`.
    Spec(String),
    SyntheticFleet(u32),
    FleetHetero(u32),
    GenMix3c,
    GenSplit2c,
    HybridSplit(u32, u32),
    Table4RoceIbIb,
}

impl fmt::Display for TopoSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoSource::Spec(spec) => f.write_str(spec),
            TopoSource::SyntheticFleet(c) => write!(f, "synthetic_fleet({c},2)"),
            TopoSource::FleetHetero(c) => write!(f, "fleet_hetero({c},2)"),
            TopoSource::GenMix3c => f.write_str("gen_mix_3c"),
            TopoSource::GenSplit2c => f.write_str("gen_split_2c"),
            TopoSource::HybridSplit(ib, roce) => write!(f, "hybrid_split({ib},{roce})"),
            TopoSource::Table4RoceIbIb => f.write_str("table4_2r_2ib_2ib"),
        }
    }
}

/// The fault a churn case injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    NicKill,
    TrunkDegrade,
    Preempt,
    Drain,
    Join,
    Straggler,
}

impl Fault {
    const ALL: [Fault; 6] = [
        Fault::NicKill,
        Fault::TrunkDegrade,
        Fault::Preempt,
        Fault::Drain,
        Fault::Join,
        Fault::Straggler,
    ];

    fn name(self) -> &'static str {
        match self {
            Fault::NicKill => "nic-kill",
            Fault::TrunkDegrade => "trunk-degrade",
            Fault::Preempt => "preempt",
            Fault::Drain => "drain",
            Fault::Join => "join",
            Fault::Straggler => "straggler",
        }
    }
}

/// Data-parallel gradient synchronization of a churn case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpSync {
    DistributedOptimizer,
    ParameterServer,
}

/// What a query does with its topology and parameter group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// parse → plan → build → execute under one framework.
    Grid(Framework),
    /// plan → estimate.
    Plan,
    /// autotune.
    Autotune,
    /// plan → clean run → faulted run → re-plan on membership churn.
    Churn {
        fault: Fault,
        /// Fault onset as a fraction of the clean iteration, in
        /// `[0.1, 0.9]`; stragglers use it to set their slowdown.
        onset: f64,
        /// Raw draw the victim node (or joined cluster) is taken from,
        /// modulo the topology's node (cluster) count.
        victim: u64,
        dp: DpSync,
    },
}

/// One distinct input.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    pub topo: TopoSource,
    /// Table 2 parameter group, 1–8.
    pub pg: u8,
    pub kind: Kind,
}

impl Case {
    /// A short human-readable label, carried on trace spans.
    pub fn label(&self) -> String {
        let head = format!("{} PG{}", self.topo, self.pg);
        match self.kind {
            Kind::Grid(fw) => format!("{head} {}", fw.name()),
            Kind::Plan => format!("{head} plan"),
            Kind::Autotune => format!("{head} autotune"),
            Kind::Churn {
                fault, onset, dp, ..
            } => {
                let dp = match dp {
                    DpSync::DistributedOptimizer => "dist-opt",
                    DpSync::ParameterServer => "ps",
                };
                format!("{head} {} u={onset:.3} {dp}", fault.name())
            }
        }
    }
}

/// SplitMix64 (Steele, Lea and Flood): a tiny, well-mixed generator whose
/// stream is fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-50 for
    /// the small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The distinct cases of a workload followed by its endless query order.
#[derive(Debug, Clone)]
pub struct QueryList {
    pub cases: Vec<Case>,
    rng: SplitMix64,
    round: Vec<usize>,
    pos: usize,
}

impl QueryList {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let cases = match workload {
            Workload::PaperGrid => paper_grid(),
            Workload::FleetPlan => fleet_plan(),
            Workload::AutotuneMix => autotune_mix(),
            Workload::ChurnWhatif => churn_whatif(&mut rng),
        };
        QueryList {
            cases,
            rng,
            round: Vec::new(),
            pos: 0,
        }
    }

    /// Index into `cases` of the next query.
    pub fn next_index(&mut self) -> usize {
        if self.pos == self.round.len() {
            self.round = (0..self.cases.len()).collect();
            // Fisher–Yates.
            for i in (1..self.round.len()).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.round[self.pos - 1]
    }
}

fn grid(spec: String, pg: u8, fw: Framework) -> Case {
    Case {
        topo: TopoSource::Spec(spec),
        pg,
        kind: Kind::Grid(fw),
    }
}

/// The cells of Tables 1, 3, 4 and 5 and Figures 6 and 7, each once.
fn paper_grid() -> Vec<Case> {
    let mut cells = Vec::new();
    // Table 1 (PG1 on 4 nodes of each NIC) is the 4-node PG1 column of
    // Table 3: PG1–4 on 4, 6 and 8 nodes of IB, RoCE, Ethernet and the
    // half-IB half-RoCE hybrid.
    for pg in 1..=4 {
        for n in [4, 6, 8] {
            for nic in ["ib", "roce", "eth"] {
                cells.push(grid(format!("{nic}:{n}"), pg, Framework::Holmes));
            }
            cells.push(grid(
                format!("ib:{}+roce:{}", n / 2, n / 2),
                pg,
                Framework::Holmes,
            ));
        }
    }
    // Table 4: PG5/6 on the three-cluster fleets and equal-size Ethernet.
    for pg in [5, 6] {
        for spec in [
            "roce:2+roce:2+ib:2",
            "roce:2+ib:2+ib:2",
            "roce:4+ib:4+ib:4",
            "eth:6",
            "eth:12",
        ] {
            cells.push(grid(spec.to_owned(), pg, Framework::Holmes));
        }
    }
    // Table 5 and Figure 6: PG3 on 4 IB + 4 RoCE nodes under every
    // framework and ablation (full Holmes is already a Table 3 cell).
    for fw in &Framework::ALL[1..] {
        cells.push(grid("ib:4+roce:4".to_owned(), 3, *fw));
    }
    // Figure 7: PG7 and PG8 on growing hybrid fleets, Holmes against the
    // three baselines.
    for (pg, nodes) in [(7u8, &[4u32, 8, 12][..]), (8, &[6, 12][..])] {
        for &n in nodes {
            for fw in Framework::COMPARED {
                cells.push(grid(format!("ib:{}+roce:{}", n / 2, n / 2), pg, fw));
            }
        }
    }
    cells
}

/// Fleets stop at 8 clusters: p=2 guided planning grows steeply with the
/// cluster count (46 ms at 8, 1.3 s at 12 and 23 s at 16 on a 2-vCPU
/// guest).
fn fleet_plan() -> Vec<Case> {
    let mut cases = Vec::new();
    for c in [4, 6, 8] {
        for topo in [TopoSource::SyntheticFleet(c), TopoSource::FleetHetero(c)] {
            for pg in [1, 3, 7] {
                cases.push(Case {
                    topo: topo.clone(),
                    pg,
                    kind: Kind::Plan,
                });
            }
        }
    }
    cases
}

fn autotune_mix() -> Vec<Case> {
    let mut cases = Vec::new();
    for topo in [
        TopoSource::GenMix3c,
        TopoSource::GenSplit2c,
        TopoSource::HybridSplit(4, 4),
        TopoSource::Table4RoceIbIb,
        TopoSource::FleetHetero(4),
    ] {
        for pg in [1, 3] {
            cases.push(Case {
                topo: topo.clone(),
                pg,
                kind: Kind::Autotune,
            });
        }
    }
    cases
}

/// Every topology × fault × DP strategy once, each with a seeded onset
/// and victim.
fn churn_whatif(rng: &mut SplitMix64) -> Vec<Case> {
    let mut cases = Vec::new();
    for topo in [
        TopoSource::Spec("ib:2+roce:2".to_owned()),
        TopoSource::Spec("ib:4+roce:4".to_owned()),
        TopoSource::GenSplit2c,
        TopoSource::GenMix3c,
    ] {
        for fault in Fault::ALL {
            for dp in [DpSync::DistributedOptimizer, DpSync::ParameterServer] {
                cases.push(Case {
                    topo: topo.clone(),
                    pg: 1,
                    kind: Kind::Churn {
                        fault,
                        onset: 0.1 + 0.8 * rng.unit(),
                        victim: rng.next_u64(),
                        dp,
                    },
                });
            }
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_queries(workload: Workload, seed: u64, n: usize) -> Vec<Case> {
        let mut list = QueryList::new(workload, seed);
        (0..n)
            .map(|_| {
                let i = list.next_index();
                list.cases[i].clone()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_queries_and_different_seed_different_queries() {
        for w in Workload::ALL {
            let n = 3 * QueryList::new(w, 42).cases.len();
            assert_eq!(first_queries(w, 42, n), first_queries(w, 42, n), "{w:?}");
            assert_ne!(first_queries(w, 42, n), first_queries(w, 7, n), "{w:?}");
        }
    }

    #[test]
    fn every_round_visits_every_case_once() {
        for w in Workload::ALL {
            let mut list = QueryList::new(w, 42);
            let n = list.cases.len();
            for _ in 0..3 {
                let mut seen: Vec<usize> = (0..n).map(|_| list.next_index()).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{w:?}");
            }
        }
    }

    #[test]
    fn paper_cells_are_distinct() {
        let cells = paper_grid();
        assert_eq!(cells.len(), 84);
        for (i, c) in cells.iter().enumerate() {
            assert!(!cells[..i].contains(c), "duplicate cell {}", c.label());
        }
    }

    #[test]
    fn churn_onsets_stay_inside_the_iteration() {
        for seed in [1, 7, 42, 1 << 40] {
            for case in QueryList::new(Workload::ChurnWhatif, seed).cases {
                let Kind::Churn { onset, .. } = case.kind else {
                    panic!("churn workload holds a non-churn case");
                };
                assert!((0.1..0.9).contains(&onset), "{onset}");
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }
}
