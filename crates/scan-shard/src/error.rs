//! Typed failures of the sharded executor.
//!
//! A lost shard is not among them: the executor recomputes every lost
//! range itself and reports the loss only in [`crate::ShardHealth`].
//! A run fails only on the caller's deadline or on invalid input.

use core::fmt;

use scan_core::ExecError;

/// Errors reported by [`crate::ShardedExecutor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
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
