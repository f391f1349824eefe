//! Request vocabulary of the front door.
//!
//! A [`ScanRequest`] is one small unit of work from one tenant: a
//! primitive scan (`+`/`max`) or a derived vector operation
//! (`enumerate`, `pack`) over a short slice. Everything here reduces
//! to an exclusive scan over mapped `u64` values — that reduction is
//! exactly what lets the coalescer fuse a whole window of requests
//! into one segmented scan (paper §2.3).

use scan_core::ScanDeadline;

use crate::backend::ScanKind;
use crate::error::ServiceError;

/// Identifies one tenant of the service. Fairness weights, per-tenant
/// admission caps, and per-tenant health counters key off this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl core::fmt::Display for TenantId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// The operation a request asks for. All results are delivered as
/// `Vec<u64>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOp {
    /// Exclusive `+-scan` of the payload.
    PlusScan(Vec<u64>),
    /// Exclusive `max-scan` of the payload.
    MaxScan(Vec<u64>),
    /// `enumerate` of a flag vector: position of each flag among the
    /// true flags (the exclusive `+-scan` of the 0/1 mapping).
    Enumerate(Vec<bool>),
    /// `pack`: the elements of `values` whose `keep` flag is set, in
    /// order.
    Pack {
        /// Elements to filter.
        values: Vec<u64>,
        /// Keep flags, one per element.
        keep: Vec<bool>,
    },
}

impl RequestOp {
    /// Number of elements this request contributes to a batch.
    pub fn len(&self) -> usize {
        match self {
            RequestOp::PlusScan(v) | RequestOp::MaxScan(v) => v.len(),
            RequestOp::Enumerate(f) => f.len(),
            RequestOp::Pack { values, .. } => values.len(),
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which primitive scan family executes this op. `Enumerate` and
    /// `Pack` ride the `+-scan` group (their scan input is the 0/1
    /// flag mapping).
    pub fn kind(&self) -> ScanKind {
        match self {
            RequestOp::MaxScan(_) => ScanKind::Max,
            _ => ScanKind::Sum,
        }
    }

    /// The `u64` values the underlying exclusive scan runs over.
    pub fn scan_input(&self) -> Vec<u64> {
        match self {
            RequestOp::PlusScan(v) | RequestOp::MaxScan(v) => v.clone(),
            RequestOp::Enumerate(f) => f.iter().map(|&b| u64::from(b)).collect(),
            RequestOp::Pack { keep, .. } => keep.iter().map(|&b| u64::from(b)).collect(),
        }
    }

    /// Turn the raw exclusive-scan output for this request's segment
    /// into the op's result.
    pub(crate) fn finish(&self, scanned: &[u64]) -> Vec<u64> {
        match self {
            RequestOp::PlusScan(_) | RequestOp::MaxScan(_) | RequestOp::Enumerate(_) => {
                scanned.to_vec()
            }
            RequestOp::Pack { values, keep } => {
                let n = values.len();
                if n == 0 {
                    return Vec::new();
                }
                let kept = (scanned[n - 1] as usize) + usize::from(keep[n - 1]);
                let mut out = vec![0u64; kept];
                for i in 0..n {
                    if keep[i] {
                        out[scanned[i] as usize] = values[i];
                    }
                }
                out
            }
        }
    }

    /// Structural validation (length agreement, payload bound).
    pub(crate) fn validate(&self, max_len: usize) -> Result<(), ServiceError> {
        if let RequestOp::Pack { values, keep } = self {
            if values.len() != keep.len() {
                return Err(ServiceError::Invalid(scan_core::Error::LengthMismatch {
                    expected: values.len(),
                    actual: keep.len(),
                }));
            }
        }
        if self.len() > max_len {
            return Err(ServiceError::RequestTooLarge {
                len: self.len(),
                max: max_len,
            });
        }
        Ok(())
    }
}

/// One submission: a tenant, an operation, and an optional
/// cancellation/deadline token.
///
/// The deadline is *propagated*, not polled: an expired token rejects
/// the request while it queues (without touching the batch it would
/// have joined), and a token cancelled mid-batch fails only this
/// request — co-batched requests from other tenants are unaffected.
#[derive(Debug, Clone)]
pub struct ScanRequest {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Requested operation.
    pub op: RequestOp,
    /// Optional per-request deadline/cancellation token.
    pub deadline: Option<ScanDeadline>,
}

impl ScanRequest {
    /// A request with no deadline.
    pub fn new(tenant: TenantId, op: RequestOp) -> Self {
        ScanRequest {
            tenant,
            op,
            deadline: None,
        }
    }

    /// Attach a deadline/cancellation token.
    pub fn with_deadline(mut self, deadline: ScanDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_inputs() {
        let p = RequestOp::PlusScan(vec![1, 2, 3]);
        assert_eq!(p.kind(), ScanKind::Sum);
        assert_eq!(p.scan_input(), vec![1, 2, 3]);
        let m = RequestOp::MaxScan(vec![5]);
        assert_eq!(m.kind(), ScanKind::Max);
        let e = RequestOp::Enumerate(vec![true, false, true]);
        assert_eq!(e.kind(), ScanKind::Sum);
        assert_eq!(e.scan_input(), vec![1, 0, 1]);
        let k = RequestOp::Pack {
            values: vec![10, 20, 30],
            keep: vec![false, true, true],
        };
        assert_eq!(k.scan_input(), vec![0, 1, 1]);
        assert_eq!(k.len(), 3);
        assert!(!k.is_empty());
    }

    #[test]
    fn pack_finish_gathers_kept_elements() {
        let k = RequestOp::Pack {
            values: vec![10, 20, 30, 40],
            keep: vec![true, false, true, true],
        };
        // Exclusive +-scan of [1,0,1,1]:
        let scanned = [0u64, 1, 1, 2];
        assert_eq!(k.finish(&scanned), vec![10, 30, 40]);
        let empty = RequestOp::Pack {
            values: vec![],
            keep: vec![],
        };
        assert_eq!(empty.finish(&[]), Vec::<u64>::new());
    }

    #[test]
    fn validation_catches_mismatch_and_oversize() {
        let bad = RequestOp::Pack {
            values: vec![1, 2],
            keep: vec![true],
        };
        assert!(matches!(
            bad.validate(100),
            Err(ServiceError::Invalid(
                scan_core::Error::LengthMismatch { .. }
            ))
        ));
        let big = RequestOp::PlusScan(vec![0; 10]);
        assert!(matches!(
            big.validate(5),
            Err(ServiceError::RequestTooLarge { len: 10, max: 5 })
        ));
        assert!(big.validate(10).is_ok());
    }

    #[test]
    fn tenant_display() {
        assert_eq!(TenantId(7).to_string(), "tenant-7");
    }
}
