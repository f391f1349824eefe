//! Error type for the checked (`try_*`) vector operations.

use core::fmt;

/// Execution-layer failures: a submission that could not run to
/// completion, as opposed to a precondition violation on its inputs.
///
/// These are produced by the fallible execution paths — the pool's
/// `try_run`, the `try_*` scan kernels, and anything routed through a
/// [`crate::deadline::ScanDeadline`] — and are wrapped into
/// [`Error::Exec`] at the public API boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// One or more worker tasks panicked. The panic was contained on
    /// the worker (the pool respawns it); the submission reports this
    /// typed error instead of replaying the payload.
    WorkerLost {
        /// Number of task panics observed within the submission.
        panics: u32,
    },
    /// The submission's deadline elapsed before it finished.
    DeadlineExceeded,
    /// The submission was explicitly cancelled via
    /// [`crate::deadline::ScanDeadline::cancel`].
    Cancelled,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerLost { panics } => {
                write!(f, "worker lost: {panics} task panic(s) contained")
            }
            ExecError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExecError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Errors reported by checked vector operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two vectors that must have equal length did not.
    LengthMismatch {
        /// Length of the first operand.
        expected: usize,
        /// Length of the offending operand.
        actual: usize,
    },
    /// A permute index vector contained the same destination twice.
    ///
    /// The paper (§2.1) requires all indices of a `permute` to be unique;
    /// on an EREW P-RAM a duplicate destination would be a concurrent
    /// write.
    DuplicateIndex {
        /// The destination index written more than once.
        index: usize,
    },
    /// An index pointed outside the destination vector.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// Length of the destination vector.
        len: usize,
    },
    /// A value did not fit in the bit width available for a simulated
    /// composite scan (see [`crate::simulate`]).
    WidthOverflow {
        /// Bits required.
        required: u32,
        /// Bits available.
        available: u32,
    },
    /// An operation that needs at least one element received none
    /// (e.g. `copy_first` of an empty vector).
    EmptyInput {
        /// The operation that was given an empty vector.
        op: &'static str,
    },
    /// A flag vector's true-count disagreed with the length it must
    /// describe (e.g. `flag_merge`'s true flags vs. `b.len()`).
    CountMismatch {
        /// The count the flags must produce.
        expected: usize,
        /// The count they actually produced.
        actual: usize,
    },
    /// A persisted carry checkpoint failed its digest check when a
    /// stream tried to resume from it (see [`crate::stream`]): the
    /// stored carry or chunk index was corrupted between save and
    /// restore, so resuming would silently mis-seed every element
    /// after the restart point.
    CheckpointCorrupt {
        /// Chunk index the corrupt checkpoint claimed.
        chunk: u64,
    },
    /// Resuming a stream required repositioning its chunk source at a
    /// mid-stream chunk, but the source does not support seeking
    /// (see [`crate::stream::ChunkSource::seek`]).
    SeekUnsupported {
        /// Chunk index the resume needed to seek to.
        chunk: u64,
    },
    /// The execution layer failed (worker panic, deadline, cancel).
    Exec(ExecError),
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        Error::Exec(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            Error::DuplicateIndex { index } => {
                write!(f, "duplicate permute destination index {index}")
            }
            Error::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for vector of length {len}")
            }
            Error::WidthOverflow {
                required,
                available,
            } => {
                write!(
                    f,
                    "composite scan needs {required} bits but only {available} are available"
                )
            }
            Error::EmptyInput { op } => {
                write!(f, "{op} of an empty vector")
            }
            Error::CountMismatch { expected, actual } => {
                write!(f, "flag count mismatch: expected {expected}, got {actual}")
            }
            Error::CheckpointCorrupt { chunk } => {
                write!(
                    f,
                    "carry checkpoint for chunk {chunk} failed its digest check"
                )
            }
            Error::SeekUnsupported { chunk } => {
                write!(f, "chunk source cannot seek to chunk {chunk} for resume")
            }
            Error::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias using [`Error`].
pub type Result<T> = core::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::LengthMismatch {
            expected: 4,
            actual: 3,
        };
        assert_eq!(e.to_string(), "length mismatch: expected 4, got 3");
        let e = Error::DuplicateIndex { index: 7 };
        assert_eq!(e.to_string(), "duplicate permute destination index 7");
        let e = Error::IndexOutOfBounds { index: 9, len: 4 };
        assert_eq!(
            e.to_string(),
            "index 9 out of bounds for vector of length 4"
        );
        let e = Error::WidthOverflow {
            required: 70,
            available: 64,
        };
        assert!(e.to_string().contains("70 bits"));
        let e = Error::EmptyInput { op: "copy" };
        assert_eq!(e.to_string(), "copy of an empty vector");
        let e = Error::CountMismatch {
            expected: 3,
            actual: 2,
        };
        assert_eq!(e.to_string(), "flag count mismatch: expected 3, got 2");
        let e = Error::CheckpointCorrupt { chunk: 12 };
        assert_eq!(
            e.to_string(),
            "carry checkpoint for chunk 12 failed its digest check"
        );
        let e = Error::SeekUnsupported { chunk: 5 };
        assert_eq!(
            e.to_string(),
            "chunk source cannot seek to chunk 5 for resume"
        );
        let e = Error::Exec(ExecError::DeadlineExceeded);
        assert_eq!(e.to_string(), "execution failed: deadline exceeded");
        let e = Error::Exec(ExecError::WorkerLost { panics: 2 });
        assert!(e.to_string().contains("2 task panic"));
        let e = Error::Exec(ExecError::Cancelled);
        assert_eq!(e.to_string(), "execution failed: cancelled");
    }

    #[test]
    fn exec_error_converts_into_error() {
        let e: Error = ExecError::Cancelled.into();
        assert_eq!(e, Error::Exec(ExecError::Cancelled));
    }
}
