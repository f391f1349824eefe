//! Typed failures of the sharded executor.

use core::fmt;

use scan_core::ExecError;

/// Why a shard was declared lost for (part of) a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// The shard's kernel contained one or more panics and the job
    /// reported [`ExecError::WorkerLost`]. The shard itself is still
    /// alive.
    Panic,
    /// The shard did not reply within the configured watchdog window.
    /// It may still be alive (merely slow); its late reply, if any, is
    /// discarded.
    Watchdog,
    /// The shard replied with a result that failed the O(n)
    /// postcondition verification — a wrong per-shard total or wrong
    /// output elements.
    Lied,
    /// The shard's supervisor thread is gone: its job channel closed
    /// without a reply. The shard is dead for the rest of the
    /// executor's life.
    Disconnected,
}

impl fmt::Display for LossCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossCause::Panic => write!(f, "contained worker panic"),
            LossCause::Watchdog => write!(f, "watchdog timeout"),
            LossCause::Lied => write!(f, "failed output verification"),
            LossCause::Disconnected => write!(f, "supervisor thread gone"),
        }
    }
}

/// Errors reported by [`crate::ShardedExecutor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard was lost mid-run and the executor's recovery policy is
    /// [`crate::RecoveryPolicy::Fail`]. Under
    /// [`crate::RecoveryPolicy::Recover`] the loss is handled by
    /// re-executing the range on survivors instead.
    ShardLost {
        /// Index of the lost shard.
        shard: usize,
        /// What the executor observed.
        cause: LossCause,
    },
    /// Too few live shards to run sharded and the recovery policy is
    /// [`crate::RecoveryPolicy::Fail`]. Under
    /// [`crate::RecoveryPolicy::Recover`] the run degrades to the
    /// single-pool kernels instead.
    Degraded {
        /// Shards currently admitted by their breakers.
        live: usize,
        /// The configured `min_live` floor.
        need: usize,
    },
    /// The execution layer failed (deadline expired, cancelled). The
    /// whole run is abandoned — this is the caller's deadline, not a
    /// shard fault.
    Exec(ExecError),
    /// A precondition on the inputs was violated (e.g. a segment-head
    /// vector of the wrong length).
    Invalid(scan_core::Error),
}

impl From<ExecError> for ShardError {
    fn from(e: ExecError) -> Self {
        ShardError::Exec(e)
    }
}

impl ShardError {
    /// Fold a `scan-core` error into the shard error space: execution
    /// failures stay execution failures, everything else is an input
    /// problem.
    pub fn from_core(e: scan_core::Error) -> Self {
        match e {
            scan_core::Error::Exec(x) => ShardError::Exec(x),
            other => ShardError::Invalid(other),
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ShardLost { shard, cause } => {
                write!(f, "shard {shard} lost: {cause}")
            }
            ShardError::Degraded { live, need } => {
                write!(f, "degraded: {live} live shard(s), {need} required")
            }
            ShardError::Exec(e) => write!(f, "execution failed: {e}"),
            ShardError::Invalid(e) => write!(f, "invalid input: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = ShardError::ShardLost {
            shard: 2,
            cause: LossCause::Watchdog,
        };
        assert_eq!(e.to_string(), "shard 2 lost: watchdog timeout");
        let e = ShardError::ShardLost {
            shard: 0,
            cause: LossCause::Lied,
        };
        assert_eq!(e.to_string(), "shard 0 lost: failed output verification");
        let e = ShardError::Degraded { live: 1, need: 2 };
        assert_eq!(e.to_string(), "degraded: 1 live shard(s), 2 required");
        let e = ShardError::Exec(ExecError::DeadlineExceeded);
        assert_eq!(e.to_string(), "execution failed: deadline exceeded");
        let e = ShardError::Invalid(scan_core::Error::LengthMismatch {
            expected: 3,
            actual: 2,
        });
        assert_eq!(
            e.to_string(),
            "invalid input: length mismatch: expected 3, got 2"
        );
    }

    #[test]
    fn core_errors_split_into_exec_and_invalid() {
        assert_eq!(
            ShardError::from_core(scan_core::Error::Exec(ExecError::Cancelled)),
            ShardError::Exec(ExecError::Cancelled)
        );
        assert!(matches!(
            ShardError::from_core(scan_core::Error::EmptyInput { op: "x" }),
            ShardError::Invalid(_)
        ));
    }
}
