//! Large fresh outputs are advised onto transparent huge pages.
//!
//! Each case makes one output of at least 32 MiB, which the C allocator
//! maps fresh, so no flag left by an earlier allocation can satisfy the
//! check. The case then reads `/proc/self/smaps` and asserts that the
//! mapping holding the output's first whole 2 MiB-aligned page carries
//! `hg` (`MADV_HUGEPAGE`) in its `VmFlags`. The advice sets that flag
//! whether or not the kernel had huge pages free, so the check does not
//! depend on the host's memory. Every output is also checked against
//! its sequential oracle.
//!
//! At pool width 1 (`SCAN_CORE_THREADS=1`) the flat scan takes the
//! engine's sequential path, otherwise its blocked path.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::path::Path;
use std::sync::Arc;

use blelloch_scan::algorithms::sort::fused_radix::fused_radix_sort;
use blelloch_scan::core::parallel::seq_exclusive_scan_by;
use blelloch_scan::core::{scan, Sum};
use blelloch_scan::shard::{ScanKind, ShardConfig, ShardedExecutor};

/// 2^22 `u64`s: 32 MiB.
const N: usize = 1 << 22;
const HUGE_PAGE: usize = 2 << 20;

/// Whether the kernel offers transparent huge pages; prints why the
/// case is skipped when it does not.
fn thp_available() -> bool {
    let knob = "/sys/kernel/mm/transparent_hugepage/enabled";
    let ok = Path::new(knob).exists();
    if !ok {
        eprintln!("skipped: {knob} is absent, so this kernel has no transparent huge pages");
    }
    ok
}

/// The `VmFlags` of the mapping in `smaps` whose range holds `addr`.
fn vm_flags_at(smaps: &str, addr: usize) -> Option<&str> {
    let mut holds = false;
    for line in smaps.lines() {
        if let Some(flags) = line.strip_prefix("VmFlags:") {
            if holds {
                return Some(flags);
            }
        } else if let Some((lo, hi)) = line
            .split_once(' ')
            .and_then(|(range, _)| range.split_once('-'))
        {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                holds = (lo..hi).contains(&addr);
            }
        }
    }
    None
}

/// Assert that `out`'s first whole aligned huge page lies in a mapping
/// flagged `hg`.
fn assert_advised(what: &str, out: &[u64]) {
    let addr = out.as_ptr().addr();
    let page = addr.next_multiple_of(HUGE_PAGE);
    assert!(
        page + HUGE_PAGE <= addr + std::mem::size_of_val(out),
        "{what}: no whole aligned huge page in the output"
    );
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let flags =
        vm_flags_at(&smaps, page).unwrap_or_else(|| panic!("{what}: no mapping holds {page:#x}"));
    assert!(
        flags.split_whitespace().any(|f| f == "hg"),
        "{what}: the mapping at {page:#x} has VmFlags{flags}, without `hg`"
    );
}

/// `N` deterministic values below `bound`.
fn input(bound: u64) -> Vec<u64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        })
        .collect()
}

#[test]
fn flat_scan_output_is_advised() {
    if !thp_available() {
        return;
    }
    let x = input(1 << 32);
    let out = scan::<Sum, u64>(&x);
    assert_advised("scan::<Sum, u64>", &out);
    assert!(out == seq_exclusive_scan_by(&x, 0, |a, b| a + b));
}

#[test]
fn radix_sort_output_is_advised() {
    if !thp_available() {
        return;
    }
    let keys = input(1 << 8);
    // 2^22 keys of 8 bits: the sort splits first on every host, and the
    // split on all 8 bits writes the one fresh buffer and sorts them.
    let out = fused_radix_sort(&keys, 8);
    assert_advised("fused_radix_sort", &out);
    let mut want = keys;
    want.sort_unstable();
    assert!(out == want);
}

#[test]
fn sharded_scan_output_is_advised() {
    if !thp_available() {
        return;
    }
    let x = Arc::new(input(1 << 32));
    let exec = ShardedExecutor::new(ShardConfig::default());
    let out = exec.scan_arc(ScanKind::Sum, &x).expect("sharded scan");
    assert_advised("ShardedExecutor::scan_arc", &out);
    assert!(out == seq_exclusive_scan_by(&x[..], 0, |a, b| a + b));
}
