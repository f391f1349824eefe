//! Typed errors for the serving layer.
//!
//! Every failure mode of the front door is an enum variant — nothing
//! panics across [`crate::ScanService::submit`], nothing hangs, and a
//! shed request costs O(1). The execution-layer reasons
//! ([`scan_core::ExecError`]: worker panic, deadline, cancel) pass
//! through unchanged so callers can match on them directly.

use core::fmt;
use scan_core::ExecError;

/// Why a submitted request did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control shed the request: the global queue or the
    /// tenant's share of it is full. Retry later (the queue is bounded
    /// by construction, so this is the *only* backpressure signal —
    /// the service never buffers unboundedly).
    Overloaded {
        /// Queue depth observed at admission time.
        depth: usize,
        /// Depth of the submitting tenant's own queue.
        tenant_depth: usize,
    },
    /// The request payload exceeds the configured per-request bound.
    RequestTooLarge {
        /// Payload length submitted.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The request was malformed (e.g. a `Pack` whose `values` and
    /// `keep` lengths disagree).
    Invalid(scan_core::Error),
    /// The execution layer failed: the request's deadline elapsed
    /// (in-queue or mid-execution), it was cancelled, or its work kept
    /// dying to contained worker panics after the retry budget.
    Exec(ExecError),
    /// The backend returned results that failed the service's O(n)
    /// postcondition verification, on the coalesced path *and* on
    /// every individual retry. The corrupted output was never
    /// delivered.
    Corrupted {
        /// Total verification failures observed for this request.
        attempts: u32,
    },
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded {
                depth,
                tenant_depth,
            } => write!(
                f,
                "overloaded: queue depth {depth} (tenant depth {tenant_depth}), request shed"
            ),
            ServiceError::RequestTooLarge { len, max } => {
                write!(
                    f,
                    "request of {len} elements exceeds the {max}-element bound"
                )
            }
            ServiceError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServiceError::Exec(e) => write!(f, "execution failed: {e}"),
            ServiceError::Corrupted { attempts } => write!(
                f,
                "backend produced unverifiable output ({attempts} attempt(s) rejected)"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Result alias for service calls.
pub type Result<T> = core::result::Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = ServiceError::Overloaded {
            depth: 9,
            tenant_depth: 4,
        };
        assert!(e.to_string().contains("depth 9"));
        assert!(e.to_string().contains("tenant depth 4"));
        let e = ServiceError::RequestTooLarge { len: 10, max: 5 };
        assert!(e.to_string().contains("10"));
        let e = ServiceError::Exec(ExecError::DeadlineExceeded);
        assert!(e.to_string().contains("deadline"));
        let e = ServiceError::Corrupted { attempts: 3 };
        assert!(e.to_string().contains("3 attempt"));
        let e = ServiceError::Invalid(scan_core::Error::LengthMismatch {
            expected: 2,
            actual: 1,
        });
        assert!(e.to_string().contains("length mismatch"));
    }

    #[test]
    fn exec_error_converts() {
        let e: ServiceError = ExecError::Cancelled.into();
        assert_eq!(e, ServiceError::Exec(ExecError::Cancelled));
    }
}
