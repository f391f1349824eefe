//! Property tests: without chaos, the sharded executor is
//! observationally identical to the single-pool `scan-core` kernels —
//! flat and segmented, both operators, across shard counts, including
//! degenerate inputs (empty, shorter than the shard count).

use proptest::prelude::*;
use scan_core::{Max, Segments, Sum};
use scan_shard::{ScanKind, ShardConfig, ShardedExecutor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_equals_single_pool(
        shards in 1usize..=8,
        values in proptest::collection::vec(0u64..1000, 0..300),
        flags in proptest::collection::vec(any::<bool>(), 300),
    ) {
        let ex = ShardedExecutor::new(ShardConfig {
            shards,
            ..ShardConfig::default()
        });

        prop_assert_eq!(
            ex.scan(ScanKind::Sum, &values).unwrap(),
            scan_core::scan::<Sum, _>(&values)
        );
        prop_assert_eq!(
            ex.scan(ScanKind::Max, &values).unwrap(),
            scan_core::scan::<Max, _>(&values)
        );

        let heads: Vec<bool> = flags[..values.len()].to_vec();
        let segs = Segments::from_flags(heads.clone());
        prop_assert_eq!(
            ex.seg_scan(ScanKind::Sum, &values, &heads).unwrap(),
            scan_core::seg_scan::<Sum, u64>(&values, &segs)
        );
        prop_assert_eq!(
            ex.seg_scan(ScanKind::Max, &values, &heads).unwrap(),
            scan_core::seg_scan::<Max, u64>(&values, &segs)
        );

        let h = ex.health();
        prop_assert_eq!(h.losses, 0);
        prop_assert_eq!(h.degraded_runs, 0);
        prop_assert_eq!(h.inline_rescues, 0);
    }
}
