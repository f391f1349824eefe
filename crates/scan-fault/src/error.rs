//! The unified error taxonomy of the fault layer, extending
//! [`scan_core::Error`] with verification outcomes.

use core::fmt;

/// Errors reported by the self-checking execution layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A precondition failure surfaced by the checked `try_*` layer
    /// (length mismatch, duplicate permute index, width overflow, …).
    Core(scan_core::Error),
    /// The scan postcondition verifier rejected an output: position
    /// `index` does not satisfy the exclusive-scan invariant.
    Corrupted {
        /// First output position violating the invariant.
        index: usize,
        /// Which invariant check failed.
        check: CorruptionKind,
    },
    /// Every backend in the fallback chain kept producing outputs the
    /// verifier rejected.
    RetriesExhausted {
        /// Total verification attempts made across the chain.
        attempts: u32,
    },
    /// Execution was abandoned by the resilience layer (deadline
    /// expiry, cancellation, or worker loss) before a verified output
    /// existed.
    Exec(scan_core::ExecError),
}

/// Which clause of the exclusive-scan invariant a corrupted output
/// violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// A segment head did not hold the operator identity.
    IdentityAtHead,
    /// An interior element was not `out[i-1] ⊕ a[i-1]`.
    Recurrence,
    /// Output length differed from input length.
    Length,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Core(e) => write!(f, "vector operation failed: {e}"),
            FaultError::Corrupted { index, check } => {
                let clause = match check {
                    CorruptionKind::IdentityAtHead => "segment head is not the identity",
                    CorruptionKind::Recurrence => "does not extend its predecessor",
                    CorruptionKind::Length => "output length differs from input",
                };
                write!(f, "scan output corrupted at position {index}: {clause}")
            }
            FaultError::RetriesExhausted { attempts } => {
                write!(
                    f,
                    "no backend produced a verifiable scan in {attempts} attempts"
                )
            }
            FaultError::Exec(e) => write!(f, "execution abandoned: {e}"),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Core(e) => Some(e),
            FaultError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<scan_core::Error> for FaultError {
    fn from(e: scan_core::Error) -> Self {
        FaultError::Core(e)
    }
}

impl From<scan_core::ExecError> for FaultError {
    fn from(e: scan_core::ExecError) -> Self {
        FaultError::Exec(e)
    }
}

/// Result alias using [`FaultError`].
pub type Result<T> = core::result::Result<T, FaultError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: FaultError = scan_core::Error::EmptyInput { op: "copy" }.into();
        assert_eq!(
            e.to_string(),
            "vector operation failed: copy of an empty vector"
        );
        assert!(std::error::Error::source(&e).is_some());

        let e = FaultError::Corrupted {
            index: 3,
            check: CorruptionKind::Recurrence,
        };
        assert_eq!(
            e.to_string(),
            "scan output corrupted at position 3: does not extend its predecessor"
        );
        assert!(std::error::Error::source(&e).is_none());

        let e = FaultError::RetriesExhausted { attempts: 9 };
        assert!(e.to_string().contains("9 attempts"));

        let e: FaultError = scan_core::ExecError::DeadlineExceeded.into();
        assert_eq!(e.to_string(), "execution abandoned: deadline exceeded");
        assert!(std::error::Error::source(&e).is_some());
    }
}
