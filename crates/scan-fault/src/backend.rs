//! A deliberately faulty scan backend: the cycle-accurate tree circuit
//! with a [`FaultPlan`] injecting transient bit
//! flips while it runs.
//!
//! The backend honours the `PrimitiveScans` contract *interface* but
//! not its semantics — that is the point. Wrap it in a
//! [`CheckedExecutor`](crate::CheckedExecutor) to turn it back into a
//! trustworthy backend, or drive it bare to measure raw fault effects.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;

use scan_circuit::{FaultSite, OpKind, TreeScanCircuit};
use scan_core::simulate::PrimitiveScans;

use crate::plan::FaultPlan;

/// The tree circuit under a deterministic fault campaign.
#[derive(Debug)]
pub struct FaultyCircuitBackend {
    m_bits: u32,
    plan: FaultPlan,
    circuit: RefCell<Option<TreeScanCircuit>>,
    scan_index: Cell<u64>,
    flips: Cell<u64>,
    sites_hit: RefCell<HashSet<FaultSite>>,
}

impl FaultyCircuitBackend {
    /// A faulty backend over `m`-bit fields (1..=64) driven by `plan`.
    ///
    /// # Panics
    /// If `m_bits` is 0 or exceeds 64.
    pub fn new(m_bits: u32, plan: FaultPlan) -> Self {
        assert!((1..=64).contains(&m_bits), "field width must be 1..=64");
        FaultyCircuitBackend {
            m_bits,
            plan,
            circuit: RefCell::new(None),
            scan_index: Cell::new(0),
            flips: Cell::new(0),
            sites_hit: RefCell::new(HashSet::new()),
        }
    }

    /// Scans executed so far (clean and faulted).
    pub fn scans(&self) -> u64 {
        self.scan_index.get()
    }

    /// Bit flips that landed on real circuit state so far.
    pub fn flips(&self) -> u64 {
        self.flips.get()
    }

    /// Number of *distinct* circuit bits (fault sites) flipped so far
    /// — the campaign's coverage of the fault universe.
    pub fn distinct_sites_hit(&self) -> usize {
        self.sites_hit.borrow().len()
    }

    fn run(&self, op: OpKind, a: &[u64]) -> Vec<u64> {
        let index = self.scan_index.get();
        self.scan_index.set(index + 1);
        if a.is_empty() {
            return Vec::new();
        }
        let n = a.len().next_power_of_two();
        let mut slot = self.circuit.borrow_mut();
        if slot.as_ref().is_none_or(|c| c.n_leaves() < n) {
            *slot = None;
        }
        let circuit = slot.get_or_insert_with(|| TreeScanCircuit::new(n));
        let sites = circuit.fault_sites();
        let total_cycles = self.m_bits as u64
            + if circuit.levels() == 0 {
                0
            } else {
                2 * circuit.levels() as u64 - 1
            };
        let faults = self.plan.faults_for(index, &sites, total_cycles);
        let (run, applied) = circuit.scan_with_faults(op, a, self.m_bits, &faults);
        if applied > 0 {
            self.flips.set(self.flips.get() + applied as u64);
            let mut hit = self.sites_hit.borrow_mut();
            hit.extend(faults.iter().map(|f| f.site));
        }
        run.values
    }
}

impl PrimitiveScans for FaultyCircuitBackend {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        self.run(OpKind::Plus, a)
    }

    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        self.run(OpKind::Max, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::Sum;

    #[test]
    fn faulty_backend_is_deterministic() {
        let a: Vec<u64> = (0..32).map(|i| (i * 37) % 251).collect();
        let run = |seed: u64| {
            let b = FaultyCircuitBackend::new(64, FaultPlan::new(seed));
            let outs: Vec<Vec<u64>> = (0..8).map(|_| b.plus_scan(&a)).collect();
            (outs, b.flips())
        };
        assert_eq!(run(5), run(5), "same seed, same corruption");
        assert_eq!(run(5).0.len(), 8);
    }

    #[test]
    fn faults_corrupt_some_scans_and_coverage_accumulates() {
        let a: Vec<u64> = (0..64).map(|i| (i * 11) % 97).collect();
        let good = scan_core::scan::<Sum, _>(&a);
        let b = FaultyCircuitBackend::new(64, FaultPlan::new(99));
        let mut corrupted = 0;
        for _ in 0..50 {
            if b.plus_scan(&a) != good {
                corrupted += 1;
            }
        }
        assert!(corrupted > 5, "only {corrupted} of 50 faulted scans corrupted");
        assert!(b.flips() >= 40, "flips {} should land nearly every scan", b.flips());
        assert!(b.distinct_sites_hit() >= 20);
        assert_eq!(b.scans(), 50);
    }

    #[test]
    fn clean_plan_never_corrupts() {
        let a: Vec<u64> = (0..16).collect();
        let good = scan_core::scan::<Sum, _>(&a);
        // every(u64::MAX) faults only scan 0; skip it and the rest are
        // clean.
        let b = FaultyCircuitBackend::new(64, FaultPlan::new(1).every(u64::MAX));
        b.plus_scan(&a);
        for _ in 0..5 {
            assert_eq!(b.plus_scan(&a), good);
        }
    }
}
