//! The op vocabulary interpreted by the executor.
//!
//! Each device runs a linear program of [`Op`]s. Sends are *eager*
//! (non-blocking): the flow is posted as soon as the sender reaches the op,
//! and the matching [`Op::Recv`] completes once the flow has delivered and
//! the receiver has reached it. Collectives are split into a non-blocking
//! arrival ([`Op::CollStart`]) and a blocking [`Op::CollWait`]; the gap
//! between them is where communication/computation overlap happens.

use holmes_topology::Rank;

/// Message channel between pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Channel {
    /// Forward activations (stage `s` → `s+1`).
    Activation,
    /// Backward gradients (stage `s+1` → `s`).
    Gradient,
}

/// Unique key matching one send with one receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgKey {
    /// Sender device.
    pub from: Rank,
    /// Receiver device.
    pub to: Rank,
    /// Which pipeline channel.
    pub channel: Channel,
    /// Micro-batch index the payload belongs to.
    pub microbatch: u32,
    /// Global model-chunk id `c·p + s` of the boundary's earlier side
    /// (the stage index without interleaving); disambiguates transfers
    /// when a device hosts several virtual pipeline chunks.
    pub chunk: u32,
}

/// What a compute op represents (for metrics attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeLabel {
    /// Forward pass of one micro-batch through this device's stage.
    Forward {
        /// Micro-batch index.
        microbatch: u32,
    },
    /// Backward pass of one micro-batch.
    Backward {
        /// Micro-batch index.
        microbatch: u32,
    },
    /// A slice of the final micro-batch's backward (the Overlapped
    /// Distributed Optimizer launches a gradient bucket after each chunk).
    BackwardChunk {
        /// Micro-batch index.
        microbatch: u32,
        /// Chunk index within the backward.
        chunk: u32,
    },
    /// Optimizer parameter update.
    Optimizer,
}

impl ComputeLabel {
    /// Whether this label counts as backward work (chunks included).
    pub fn is_backward(self) -> bool {
        matches!(
            self,
            ComputeLabel::Backward { .. } | ComputeLabel::BackwardChunk { .. }
        )
    }
}

/// One instruction of a device program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Busy the device for a fixed duration.
    Compute {
        /// Attribution label.
        label: ComputeLabel,
        /// Duration in seconds.
        seconds: f64,
    },
    /// Post a point-to-point transfer (non-blocking).
    Send {
        /// Match key; `key.from` must be this device.
        key: MsgKey,
        /// Payload size.
        bytes: u64,
    },
    /// Block until the matching send's payload has arrived.
    Recv {
        /// Match key; `key.to` must be this device.
        key: MsgKey,
    },
    /// Announce arrival at collective `id` (non-blocking). The collective
    /// launches once every member has arrived.
    CollStart {
        /// Index into [`crate::ExecutionSpec::collectives`].
        id: u32,
    },
    /// Block until collective `id` has completed.
    CollWait {
        /// Index into [`crate::ExecutionSpec::collectives`].
        id: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_classify_backward() {
        assert!(ComputeLabel::Backward { microbatch: 0 }.is_backward());
        assert!(ComputeLabel::BackwardChunk {
            microbatch: 0,
            chunk: 1
        }
        .is_backward());
        assert!(!ComputeLabel::Forward { microbatch: 0 }.is_backward());
        assert!(!ComputeLabel::Optimizer.is_backward());
    }

    #[test]
    fn msg_keys_distinguish_channels_and_microbatches() {
        let base = MsgKey {
            from: Rank(0),
            to: Rank(1),
            channel: Channel::Activation,
            microbatch: 0,
            chunk: 0,
        };
        let grad = MsgKey {
            channel: Channel::Gradient,
            ..base
        };
        let mb1 = MsgKey {
            microbatch: 1,
            ..base
        };
        let c1 = MsgKey { chunk: 1, ..base };
        assert_ne!(base, grad);
        assert_ne!(base, mb1);
        assert_ne!(base, c1);
    }

    #[test]
    fn ops_are_small_and_copyable() {
        // The executor copies ops out of programs in its hot loop.
        assert!(std::mem::size_of::<Op>() <= 40);
        let op = Op::CollStart { id: 3 };
        let copy = op;
        assert_eq!(op, copy);
    }
}
