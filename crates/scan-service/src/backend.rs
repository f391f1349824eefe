//! The execution seam between the front door and the scan engine.
//!
//! The service talks to hardware through exactly two calls: a
//! segmented scan for a coalesced batch and a flat scan for the
//! degraded one-request-one-kernel path. [`PoolBackend`] is the
//! production implementation (the `scan-core` worker-pool kernels);
//! tests substitute chaos-injecting wrappers at this boundary to
//! exercise the failure envelope — which is why the trait is
//! deliberately tiny and object-safe.

use scan_core::segmented::Segments;
use scan_core::{deadline, Error, Max, Scan, ScanDeadline, Sum};

/// The primitive scan a request group executes: scan-core's, the
/// same type the sharded executor takes.
pub use scan_core::ScanKind;

/// Executes batches for the service. Implementations must be safe to
/// call from whichever submitter thread is currently leading a batch.
pub trait BatchBackend: Send + Sync {
    /// One coalesced mega-batch: an exclusive segmented scan of
    /// `values` restarting at the heads of `segs`, under an optional
    /// batch-level deadline.
    fn seg_scan(
        &self,
        kind: ScanKind,
        values: &[u64],
        segs: &Segments,
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>>;

    /// One request on its own kernel (the degradation ladder's bottom
    /// rung), under the request's own deadline.
    fn scan_one(
        &self,
        kind: ScanKind,
        values: &[u64],
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>>;
}

/// Production backend: the `scan-core` blocked kernels on the
/// process-wide worker pool, with deadlines delivered through the
/// ambient [`scan_core::deadline`] scope.
#[derive(Debug, Default)]
pub struct PoolBackend;

/// Run `f` under `deadline` as the ambient [`scan_core::deadline`] scope.
fn scoped<R>(deadline: Option<&ScanDeadline>, f: impl FnOnce() -> R) -> R {
    match deadline {
        Some(d) => deadline::with_deadline(d, f),
        None => f(),
    }
}

impl BatchBackend for PoolBackend {
    fn seg_scan(
        &self,
        kind: ScanKind,
        values: &[u64],
        segs: &Segments,
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        scoped(deadline, || match kind {
            ScanKind::Sum => Scan::op::<Sum, u64>()
                .segments(segs)
                .try_run(values)
                .map(|r| r.0),
            ScanKind::Max => Scan::op::<Max, u64>()
                .segments(segs)
                .try_run(values)
                .map(|r| r.0),
        })
    }

    fn scan_one(
        &self,
        kind: ScanKind,
        values: &[u64],
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        scoped(deadline, || match kind {
            ScanKind::Sum => Scan::op::<Sum, u64>().try_run(values).map(|r| r.0),
            ScanKind::Max => Scan::op::<Max, u64>().try_run(values).map(|r| r.0),
        })
        .map_err(Error::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::ExecError;

    #[test]
    fn pool_backend_matches_reference() {
        let b = PoolBackend;
        let a = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let segs = Segments::from_lengths(&[3, 5]);
        assert_eq!(
            b.seg_scan(ScanKind::Sum, &a, &segs, None).unwrap(),
            vec![0, 3, 4, 0, 1, 6, 15, 17]
        );
        assert_eq!(
            b.seg_scan(ScanKind::Max, &a, &segs, None).unwrap(),
            vec![0, 3, 3, 0, 1, 5, 9, 9]
        );
        assert_eq!(
            b.scan_one(ScanKind::Sum, &a, None).unwrap(),
            scan_core::scan::<Sum, _>(&a)
        );
        assert_eq!(
            b.scan_one(ScanKind::Max, &a, None).unwrap(),
            scan_core::scan::<Max, _>(&a)
        );
    }

    #[test]
    fn deadline_propagates_through_the_scope() {
        let b = PoolBackend;
        let d = ScanDeadline::manual();
        d.cancel();
        let a = [1u64, 2, 3];
        let segs = Segments::single(3);
        assert_eq!(
            b.seg_scan(ScanKind::Sum, &a, &segs, Some(&d)),
            Err(scan_core::Error::Exec(ExecError::Cancelled))
        );
        assert_eq!(
            b.scan_one(ScanKind::Max, &a, Some(&d)),
            Err(scan_core::Error::Exec(ExecError::Cancelled))
        );
    }
}
