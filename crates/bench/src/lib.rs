//! # holmes-bench
//!
//! Benchmark harness regenerating every table and figure of the Holmes
//! paper's evaluation (§4). Each binary prints the paper's reported values
//! next to the values measured on the simulated substrate:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — PG1 on 4 nodes under IB / RoCE / Ethernet (calibration check) |
//! | `table2` | Table 2 — parameter groups + Eq. 5 parameter-count verification |
//! | `table3` | Table 3 — PG1–4 × 4 NIC envs × {4, 6, 8} nodes |
//! | `table4` | Table 4 — three-cluster environments, PG5/PG6 |
//! | `table5` | Table 5 — component ablation |
//! | `fig3`   | Figure 3 — grads-reduce-scatter op time |
//! | `fig4`   | Figure 4 — Case 2 cross-cluster throughput |
//! | `fig5`   | Figure 5 — Self-Adapting vs Uniform partition |
//! | `fig6`   | Figure 6 — Holmes vs mainstream frameworks |
//! | `fig7`   | Figure 7 — speedup ratio vs node count (PG7/PG8) |
//! | `all_experiments` | everything above, in EXPERIMENTS.md format |
//! | `resilience` | fault-injection family — clean vs flaky-trunk vs dying-NIC, written to `BENCH_resilience.json` |
//!
//! Criterion micro-benchmarks (`cargo bench`) cover the substrate itself:
//! group-formation algebra, netsim event throughput, collective execution,
//! and full-iteration simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod resilience;
pub mod snapshot;
pub mod suites;

pub use experiments::{all_experiment_sections, ExperimentSection};
