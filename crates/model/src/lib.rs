//! # holmes-model
//!
//! Transformer (GPT) model description and analytic cost formulas for the
//! Holmes reproduction.
//!
//! Everything the paper's evaluation reports is derived from two formulas
//! over the model architecture:
//!
//! * **Eq. 5** — parameter count
//!   `P = 12·l·h²·(1 + 13/(12h) + (V+s)/(12·l·h))`;
//! * **Eq. 6** — FLOPs per training iteration
//!   `F = 96·B·s·l·h²·(1 + s/(6h) + V/(16·l·h))`,
//!
//! with `l` layers, hidden size `h`, vocabulary `V = 51 200`, sequence
//! length `s = 2048`, global batch `B`. This crate implements those
//! formulas exactly, decomposes them into per-layer blocks (used by the
//! pipeline-partition strategies), and derives the memory footprints and
//! communication volumes (activation p2p, gradient synchronization, tensor
//! parallel all-reduces) that drive the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact bits"))]

mod blocks;
mod comm;
mod config;
mod flops;
mod memory;
mod params;

pub use blocks::{model_blocks, BlockKind, LayerBlock};
pub use comm::CommVolumes;
pub use config::{GptConfig, ParameterGroup, TrainJob};
pub use flops::{
    flops_per_iteration, layer_fwd_flops_per_sample, layer_train_flops_per_sample,
    logit_fwd_flops_per_sample,
};
pub use memory::{MemoryEstimate, BYTES_PER_PARAM_FULL, BYTES_PER_PARAM_OPTIM};
pub use params::{embedding_params, layer_params, parameter_count};
