//! The simulated hardware as a `PrimitiveScans` backend.
//!
//! `scan_core::simulate` builds every scan in the paper out of two
//! primitives. Plugging this backend in runs those constructions on the
//! cycle-accurate circuit — the full §3 + §3.4 stack, in software.

use std::cell::RefCell;

use scan_core::simulate::PrimitiveScans;

use crate::tree::{OpKind, TreeScanCircuit};

/// A [`PrimitiveScans`] implementation that executes every primitive on
/// the simulated tree circuit, growing the tree (by powers of two) as
/// needed and padding inputs with the identity.
///
/// Also counts the bit cycles consumed, so experiments can report
/// simulated hardware time.
#[derive(Debug)]
pub struct CircuitBackend {
    m_bits: u32,
    circuit: RefCell<Option<TreeScanCircuit>>,
    cycles: RefCell<u64>,
    scans: RefCell<u64>,
}

impl CircuitBackend {
    /// A backend operating on `m`-bit fields (1..=64).
    pub fn new(m_bits: u32) -> Self {
        assert!((1..=64).contains(&m_bits));
        CircuitBackend {
            m_bits,
            circuit: RefCell::new(None),
            cycles: RefCell::new(0),
            scans: RefCell::new(0),
        }
    }

    /// Total bit cycles consumed by all scans so far.
    pub fn cycles(&self) -> u64 {
        *self.cycles.borrow()
    }

    /// Number of primitive scans executed.
    pub fn scans(&self) -> u64 {
        *self.scans.borrow()
    }

    /// The field width in bits.
    pub fn m_bits(&self) -> u32 {
        self.m_bits
    }

    /// Health probe for supervised executors: run two tiny known scans
    /// through the circuit and verify them against the paper's expected
    /// outputs. `true` means the scan unit answered correctly; a
    /// quarantined backend can be re-probed with this before being
    /// re-admitted to a fallback chain.
    ///
    /// The probe exercises the real datapath (tree circuit, current
    /// field width) but costs only two 8-leaf scans, so it is cheap
    /// enough to call on a supervisor's probation schedule.
    pub fn self_check(&self) -> bool {
        let a = [2u64, 1, 2, 3, 5, 8, 13, 21];
        let mask = if self.m_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.m_bits) - 1
        };
        let a: Vec<u64> = a.iter().map(|&x| x & mask).collect();
        let plus_ok = self.plus_scan(&a)
            == scan_core::parallel::seq_exclusive_scan_by(&a, 0, |x, y| x.wrapping_add(y) & mask);
        let max_ok =
            self.max_scan(&a) == scan_core::parallel::seq_exclusive_scan_by(&a, 0, u64::max);
        plus_ok && max_ok
    }

    fn run(&self, op: OpKind, a: &[u64]) -> Vec<u64> {
        if a.is_empty() {
            return Vec::new();
        }
        let n = a.len().next_power_of_two();
        let mut slot = self.circuit.borrow_mut();
        let needs_new = slot.as_ref().is_none_or(|c| c.n_leaves() < n);
        if needs_new {
            *slot = None;
        }
        let circuit = slot.get_or_insert_with(|| TreeScanCircuit::new(n));
        let run = circuit.scan(op, a, self.m_bits);
        *self.cycles.borrow_mut() += run.cycles;
        *self.scans.borrow_mut() += 1;
        run.values
    }
}

impl PrimitiveScans for CircuitBackend {
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
    use scan_core::op::{Max, Min, Or, Sum};
    use scan_core::segmented::{seg_scan, Segments};
    use scan_core::simulate;

    #[test]
    fn primitives_match_software() {
        let b = CircuitBackend::new(16);
        let a = [5u64, 1, 3, 4, 3, 9, 2, 6, 100];
        assert_eq!(b.plus_scan(&a), scan_core::scan::<Sum, _>(&a));
        assert_eq!(b.max_scan(&a), scan_core::scan::<Max, _>(&a));
        assert_eq!(b.scans(), 2);
        assert!(b.cycles() > 0);
    }

    #[test]
    fn simulated_min_scan_on_hardware() {
        // min-scan = invert ∘ max-scan ∘ invert needs full-width fields.
        let b = CircuitBackend::new(64);
        let a = [7u64, 3, 9, 1];
        assert_eq!(
            simulate::min_scan_u64(&b, &a),
            scan_core::scan::<Min, _>(&a)
        );
    }

    #[test]
    fn simulated_or_scan_on_hardware() {
        let b = CircuitBackend::new(1);
        let a = [false, true, false, false, true];
        assert_eq!(simulate::or_scan(&b, &a), scan_core::scan::<Or, _>(&a));
    }

    #[test]
    fn figure16_on_hardware() {
        let b = CircuitBackend::new(16);
        let a = [5u64, 1, 3, 4, 3, 9, 2, 6];
        let segs = Segments::from_flags(vec![true, false, true, false, false, false, true, false]);
        let got = simulate::seg_max_scan_via_primitives(&b, &a, &segs, 8).unwrap();
        assert_eq!(got, seg_scan::<Max, _>(&a, &segs));
    }

    #[test]
    fn circuit_grows_and_is_reused() {
        let b = CircuitBackend::new(8);
        b.plus_scan(&[1, 2, 3]);
        b.plus_scan(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        b.plus_scan(&[1]);
        assert_eq!(b.scans(), 3);
    }

    #[test]
    fn self_check_passes_on_a_healthy_backend() {
        for m_bits in [1, 8, 16, 64] {
            let b = CircuitBackend::new(m_bits);
            assert!(b.self_check(), "m_bits={m_bits}");
        }
        // The probe uses the real datapath, so it is counted like any
        // other scan.
        let b = CircuitBackend::new(16);
        assert!(b.self_check());
        assert_eq!(b.scans(), 2);
    }

    #[test]
    fn empty_input() {
        let b = CircuitBackend::new(8);
        assert!(b.plus_scan(&[]).is_empty());
        assert_eq!(b.scans(), 0);
    }
}
