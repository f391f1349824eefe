//! The balanced binary tree of units, clocked cycle by cycle
//! (§3.1–§3.2, Figures 13 and 14).
//!
//! Operands enter the leaves one bit per clock (least-significant first
//! for `+-scan`, most-significant first for `max-scan`). Each unit
//! combines its children's bit streams with one [`SumStateMachine`],
//! stores the left child's stream in a [`ShiftRegister`] of length `2i`
//! (`i` = depth below the root), and on the way down combines the
//! parent's stream with the stored one using a second state machine.
//! The root's parent input is tied low, and because its shift register
//! has length 0 "the values ... are automatically reflected back down".
//!
//! After `m + 2 lg n - 1` clocks the exclusive scan has been delivered,
//! bit-serially, to all `n` leaves — the paper's `m + 2 lg n` pipeline
//! bound.

pub use crate::unit::OpKind;
use crate::unit::{ShiftRegister, SumStateMachine};

/// One internal node of the tree (Figure 14): two sum state machines, a
/// variable-length shift register, and the registered output wires.
#[derive(Debug, Clone)]
struct Unit {
    up_sm: SumStateMachine,
    down_sm: SumStateMachine,
    fifo: ShiftRegister,
    /// Registered single-bit wire toward the parent.
    up_out: bool,
    /// Registered single-bit wire toward the left child.
    left_out: bool,
    /// Registered single-bit wire toward the right child.
    right_out: bool,
}

impl Unit {
    fn new(depth: usize) -> Self {
        Unit {
            up_sm: SumStateMachine::new(),
            down_sm: SumStateMachine::new(),
            fifo: ShiftRegister::new(2 * depth),
            up_out: false,
            left_out: false,
            right_out: false,
        }
    }

    fn clear(&mut self) {
        self.up_sm.clear();
        self.down_sm.clear();
        self.fifo.clear();
        self.up_out = false;
        self.left_out = false;
        self.right_out = false;
    }
}

/// The result of one scan executed on the simulated hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitRun {
    /// The exclusive scan delivered at the leaves.
    pub values: Vec<u64>,
    /// Clock cycles from first operand bit in to last result bit out.
    pub cycles: u64,
}

/// A single bit of state or wiring inside one tree unit — the places a
/// transient upset (bit flip) can land. Units are named by their heap
/// index (`1` = root, unit `k` has children `2k`/`2k+1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// State bit `Q1` of the up-sweep sum state machine.
    UpQ1(usize),
    /// State bit `Q2` of the up-sweep sum state machine.
    UpQ2(usize),
    /// State bit `Q1` of the down-sweep sum state machine.
    DownQ1(usize),
    /// State bit `Q2` of the down-sweep sum state machine.
    DownQ2(usize),
    /// One cell of the unit's variable-length shift register; the
    /// second field is the cell's age (0 = next bit shifted out).
    FifoBit(usize, usize),
    /// The registered single-bit wire toward the parent.
    UpWire(usize),
    /// The registered single-bit wire toward the left child.
    LeftWire(usize),
    /// The registered single-bit wire toward the right child.
    RightWire(usize),
}

impl FaultSite {
    /// The heap index of the unit this site lives in.
    pub fn unit(self) -> usize {
        match self {
            FaultSite::UpQ1(k)
            | FaultSite::UpQ2(k)
            | FaultSite::DownQ1(k)
            | FaultSite::DownQ2(k)
            | FaultSite::FifoBit(k, _)
            | FaultSite::UpWire(k)
            | FaultSite::LeftWire(k)
            | FaultSite::RightWire(k) => k,
        }
    }
}

/// One transient fault: flip `site` immediately before clock cycle
/// `cycle` of a scan (cycle 0 is the cycle the first operand bit
/// enters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitFault {
    /// Clock cycle at which the upset occurs.
    pub cycle: u64,
    /// The bit that flips.
    pub site: FaultSite,
}

/// A cycle-accurate simulation of the scan tree over `n` leaves
/// (`n` a power of two; shorter inputs are padded with the identity).
#[derive(Debug, Clone)]
pub struct TreeScanCircuit {
    n_leaves: usize,
    levels: u32,
    /// Units in heap order: index 1 is the root; unit `k` has children
    /// `2k`/`2k+1` (units) or leaves `2k - n`/`2k - n + 1`.
    units: Vec<Unit>,
}

impl TreeScanCircuit {
    /// Build a circuit for `n_leaves` inputs.
    ///
    /// # Panics
    /// If `n_leaves` is zero or not a power of two.
    pub fn new(n_leaves: usize) -> Self {
        assert!(n_leaves > 0, "circuit needs at least one leaf");
        assert!(
            n_leaves.is_power_of_two(),
            "the balanced tree needs a power-of-two leaf count; pad with the identity"
        );
        let levels = n_leaves.trailing_zeros();
        let mut units = Vec::with_capacity(n_leaves);
        // Slot 0 unused; unit k at depth floor(lg k).
        units.push(Unit::new(0));
        for k in 1..n_leaves {
            let depth = (usize::BITS - 1 - k.leading_zeros()) as usize;
            units.push(Unit::new(depth));
        }
        TreeScanCircuit {
            n_leaves,
            levels,
            units,
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Tree depth in unit levels (`lg n`).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Assert the `Clear` line: reset every state machine, register and
    /// wire.
    pub fn clear(&mut self) {
        for u in &mut self.units[1..] {
            u.clear();
        }
    }

    /// Advance one clock. `leaf_in[p]` is the bit each leaf presents
    /// this cycle; returns the bit each leaf reads from its down wire.
    fn clock(&mut self, op: OpKind, leaf_in: &[bool]) -> Vec<bool> {
        let n = self.n_leaves;
        if n == 1 {
            // No units: a single processor's exclusive scan is the
            // identity stream.
            return vec![false];
        }
        // Phase 1: sample every input from the *current* registered
        // outputs (synchronous logic).
        let mut a_in = vec![false; n];
        let mut b_in = vec![false; n];
        let mut d_in = vec![false; n];
        for k in 1..n {
            let (a, b) = if 2 * k >= n {
                (leaf_in[2 * k - n], leaf_in[2 * k - n + 1])
            } else {
                (self.units[2 * k].up_out, self.units[2 * k + 1].up_out)
            };
            a_in[k] = a;
            b_in[k] = b;
            d_in[k] = if k == 1 {
                false // the root's parent input is tied low
            } else if k % 2 == 0 {
                self.units[k / 2].left_out
            } else {
                self.units[k / 2].right_out
            };
        }
        // Leaves read the *current* outputs of their parent units.
        let leaf_out: Vec<bool> = (0..n)
            .map(|p| {
                let parent = (n + p) / 2;
                if p % 2 == 0 {
                    self.units[parent].left_out
                } else {
                    self.units[parent].right_out
                }
            })
            .collect();
        // Phase 2: commit every register.
        for k in 1..n {
            let (a, b, d) = (a_in[k], b_in[k], d_in[k]);
            let u = &mut self.units[k];
            u.up_out = u.up_sm.step(op, a, b);
            let f = u.fifo.shift(a);
            u.left_out = d;
            u.right_out = u.down_sm.step(op, d, f);
        }
        leaf_out
    }

    /// Execute one scan: feed the `m_bits`-wide `values` through the
    /// tree bit-serially and collect the exclusive scan at the leaves.
    ///
    /// Values are padded with the identity up to the leaf count. For
    /// `Plus` the result is taken modulo `2^m_bits` (the machine
    /// operates on `m`-bit fields).
    ///
    /// # Panics
    /// If more values than leaves are supplied, a value does not fit in
    /// `m_bits`, or `m_bits` is 0 or exceeds 64.
    pub fn scan(&mut self, op: OpKind, values: &[u64], m_bits: u32) -> CircuitRun {
        assert!((1..=64).contains(&m_bits), "field width must be 1..=64");
        assert!(
            values.len() <= self.n_leaves,
            "{} values exceed {} leaves",
            values.len(),
            self.n_leaves
        );
        let mask = if m_bits == 64 {
            u64::MAX
        } else {
            (1u64 << m_bits) - 1
        };
        for &v in values {
            assert!(v & !mask == 0, "value {v} does not fit in {m_bits} bits");
        }
        self.scan_with_faults(op, values, m_bits, &[]).0
    }

    /// Non-panicking construction: every [`TreeScanCircuit::new`] panic
    /// becomes a typed error.
    pub fn try_new(n_leaves: usize) -> scan_core::Result<Self> {
        if n_leaves == 0 {
            return Err(scan_core::Error::EmptyInput { op: "tree circuit" });
        }
        if !n_leaves.is_power_of_two() {
            return Err(scan_core::Error::LengthMismatch {
                expected: n_leaves.next_power_of_two(),
                actual: n_leaves,
            });
        }
        Ok(Self::new(n_leaves))
    }

    /// Non-panicking variant of [`TreeScanCircuit::scan`]: every
    /// precondition failure becomes a typed error instead of a panic.
    pub fn try_scan(
        &mut self,
        op: OpKind,
        values: &[u64],
        m_bits: u32,
    ) -> scan_core::Result<CircuitRun> {
        if !(1..=64).contains(&m_bits) {
            return Err(scan_core::Error::WidthOverflow {
                required: m_bits.max(1),
                available: 64,
            });
        }
        if values.len() > self.n_leaves {
            return Err(scan_core::Error::LengthMismatch {
                expected: self.n_leaves,
                actual: values.len(),
            });
        }
        let mask = if m_bits == 64 {
            u64::MAX
        } else {
            (1u64 << m_bits) - 1
        };
        for &v in values {
            if v & !mask != 0 {
                return Err(scan_core::Error::WidthOverflow {
                    required: 64 - v.leading_zeros(),
                    available: m_bits,
                });
            }
        }
        Ok(self.scan_with_faults(op, values, m_bits, &[]).0)
    }

    /// Flip one bit of circuit state right now. Returns `true` when the
    /// flip landed on real state; `false` when the site does not exist
    /// in this circuit (unit index out of range, fifo cell beyond the
    /// register length, or any site on a single-leaf circuit) — such a
    /// fault is vacuously masked.
    pub fn apply_fault(&mut self, site: FaultSite) -> bool {
        let k = site.unit();
        if k == 0 || k >= self.units.len() {
            return false;
        }
        let u = &mut self.units[k];
        match site {
            FaultSite::UpQ1(_) => u.up_sm.flip_q1(),
            FaultSite::UpQ2(_) => u.up_sm.flip_q2(),
            FaultSite::DownQ1(_) => u.down_sm.flip_q1(),
            FaultSite::DownQ2(_) => u.down_sm.flip_q2(),
            FaultSite::FifoBit(_, age) => {
                if age >= u.fifo.len() {
                    return false;
                }
                u.fifo.flip_bit(age);
            }
            FaultSite::UpWire(_) => u.up_out = !u.up_out,
            FaultSite::LeftWire(_) => u.left_out = !u.left_out,
            FaultSite::RightWire(_) => u.right_out = !u.right_out,
        }
        true
    }

    /// Every distinct bit of state and registered wiring in the circuit
    /// — the complete fault universe for exhaustive or sampled
    /// injection campaigns.
    pub fn fault_sites(&self) -> Vec<FaultSite> {
        let mut sites = Vec::new();
        for k in 1..self.units.len() {
            sites.push(FaultSite::UpQ1(k));
            sites.push(FaultSite::UpQ2(k));
            sites.push(FaultSite::DownQ1(k));
            sites.push(FaultSite::DownQ2(k));
            for age in 0..self.units[k].fifo.len() {
                sites.push(FaultSite::FifoBit(k, age));
            }
            sites.push(FaultSite::UpWire(k));
            sites.push(FaultSite::LeftWire(k));
            sites.push(FaultSite::RightWire(k));
        }
        sites
    }

    /// Execute one scan while injecting transient faults: each fault
    /// flips its site immediately before its clock cycle executes.
    /// Returns the (possibly corrupted) run and the number of flips
    /// that landed on real state (faults scheduled past the run's last
    /// cycle or at nonexistent sites are dropped).
    ///
    /// Preconditions are the same as [`TreeScanCircuit::scan`] and are
    /// **not** re-checked here; call through `scan`/`try_scan` first or
    /// uphold them at the call site.
    pub fn scan_with_faults(
        &mut self,
        op: OpKind,
        values: &[u64],
        m_bits: u32,
        faults: &[CircuitFault],
    ) -> (CircuitRun, usize) {
        self.clear();
        let n = self.n_leaves;
        let m = m_bits as u64;
        // Result bit k reaches the leaves 2·levels - 1 cycles after the
        // operand bit k enters (one register per unit, up and down).
        let latency = if n == 1 {
            0
        } else {
            2 * self.levels as u64 - 1
        };
        let total_cycles = m + latency;
        let mut out = vec![0u64; n];
        let mut applied = 0usize;
        for t in 0..total_cycles {
            for fault in faults.iter().filter(|fl| fl.cycle == t) {
                if self.apply_fault(fault.site) {
                    applied += 1;
                }
            }
            // Operand bit index entering this cycle (identity bits after
            // the operand is exhausted).
            let leaf_in: Vec<bool> = (0..n)
                .map(|p| {
                    if t >= m {
                        return false;
                    }
                    let v = values.get(p).copied().unwrap_or(0);
                    let bit_index = match op {
                        OpKind::Plus => t,        // LSB first
                        OpKind::Max => m - 1 - t, // MSB first
                    };
                    (v >> bit_index) & 1 == 1
                })
                .collect();
            let leaf_out = self.clock(op, &leaf_in);
            // Result bit index leaving this cycle.
            if t >= latency {
                let k = t - latency;
                let bit_index = match op {
                    OpKind::Plus => k,
                    OpKind::Max => m - 1 - k,
                };
                for (p, &bit) in leaf_out.iter().enumerate() {
                    if bit {
                        out[p] |= 1 << bit_index;
                    }
                }
            }
        }
        out.truncate(values.len());
        (
            CircuitRun {
                values: out,
                cycles: total_cycles,
            },
            applied,
        )
    }

    /// The paper's pipeline bound for this circuit: `m + 2 lg n` cycles.
    pub fn cycle_bound(&self, m_bits: u32) -> u64 {
        m_bits as u64 + 2 * self.levels as u64
    }
}

/// A word-level trace of the two-sweep tree algorithm of §3.1 and
/// Figure 13, for inspection and for checking the bit-serial circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeScanTrace {
    /// Per-unit value stored on the up sweep ("a copy of the value from
    /// the left child"), heap order, slot 0 unused.
    pub stored_left: Vec<u64>,
    /// Per-unit value passed up ("⊕ on its two children units").
    pub up_value: Vec<u64>,
    /// Per-unit value received on the down sweep.
    pub down_value: Vec<u64>,
    /// The exclusive scan at the leaves.
    pub result: Vec<u64>,
    /// Word-level steps: `2 lg n` (up sweep + down sweep).
    pub steps: u64,
}

/// Run the word-level two-sweep tree scan (Figure 13). `values.len()`
/// must be a power of two.
pub fn tree_scan_trace(op: OpKind, values: &[u64], m_bits: u32) -> TreeScanTrace {
    let n = values.len();
    assert!(n.is_power_of_two() && n >= 1, "need a power-of-two input");
    let levels = n.trailing_zeros() as u64;
    let mut stored_left = vec![0u64; n.max(2)];
    let mut up_value = vec![0u64; n.max(2)];
    let mut down_value = vec![0u64; n.max(2)];
    if n == 1 {
        return TreeScanTrace {
            stored_left,
            up_value,
            down_value,
            result: vec![op.identity()],
            steps: 0,
        };
    }
    // Up sweep, deepest units first.
    for k in (1..n).rev() {
        let (a, b) = if 2 * k >= n {
            (values[2 * k - n], values[2 * k - n + 1])
        } else {
            (up_value[2 * k], up_value[2 * k + 1])
        };
        stored_left[k] = a;
        up_value[k] = op.apply(a, b, m_bits);
    }
    // Down sweep from the root.
    down_value[1] = op.identity();
    let mut result = vec![0u64; n];
    for k in 1..n {
        let left_down = down_value[k];
        let right_down = op.apply(down_value[k], stored_left[k], m_bits);
        if 2 * k >= n {
            result[2 * k - n] = left_down;
            result[2 * k - n + 1] = right_down;
        } else {
            down_value[2 * k] = left_down;
            down_value[2 * k + 1] = right_down;
        }
    }
    TreeScanTrace {
        stored_left,
        up_value,
        down_value,
        result,
        steps: 2 * levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ref_scan(op: OpKind, values: &[u64], m: u32) -> Vec<u64> {
        let mut out = Vec::with_capacity(values.len());
        let mut acc = op.identity();
        for &v in values {
            out.push(acc);
            acc = op.apply(acc, v, m);
        }
        out
    }

    #[test]
    fn figure13_style_plus_scan_on_8() {
        let values = [5u64, 1, 3, 4, 3, 9, 2, 6];
        let mut c = TreeScanCircuit::new(8);
        let run = c.scan(OpKind::Plus, &values, 8);
        assert_eq!(run.values, ref_scan(OpKind::Plus, &values, 8));
        // m + 2 lg n - 1 = 8 + 6 - 1
        assert_eq!(run.cycles, 13);
        assert!(run.cycles <= c.cycle_bound(8));
    }

    #[test]
    fn max_scan_on_8() {
        let values = [5u64, 1, 3, 4, 3, 9, 2, 6];
        let mut c = TreeScanCircuit::new(8);
        let run = c.scan(OpKind::Max, &values, 8);
        assert_eq!(run.values, vec![0, 5, 5, 5, 5, 5, 9, 9]);
    }

    #[test]
    fn single_leaf() {
        let mut c = TreeScanCircuit::new(1);
        let run = c.scan(OpKind::Plus, &[42], 8);
        assert_eq!(run.values, vec![0]);
        assert_eq!(run.cycles, 8);
    }

    #[test]
    fn two_leaves() {
        let mut c = TreeScanCircuit::new(2);
        let run = c.scan(OpKind::Plus, &[200, 100], 8);
        assert_eq!(run.values, vec![0, 200]);
        assert_eq!(run.cycles, 9); // m + 2·1 - 1
    }

    #[test]
    fn plus_scan_wraps_to_field_width() {
        let mut c = TreeScanCircuit::new(4);
        // 200 + 100 = 300 ≡ 44 (mod 256)
        let run = c.scan(OpKind::Plus, &[200, 100, 1, 1], 8);
        assert_eq!(run.values, vec![0, 200, 44, 45]);
    }

    #[test]
    fn padding_with_identity() {
        let mut c = TreeScanCircuit::new(8);
        let run = c.scan(OpKind::Plus, &[1, 2, 3], 8);
        assert_eq!(run.values, vec![0, 1, 3]);
    }

    #[test]
    fn circuit_matches_reference_across_sizes_and_widths() {
        let mut x = 7u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 32
        };
        for lg_n in [1u32, 2, 3, 4, 6, 8] {
            let n = 1usize << lg_n;
            for m in [1u32, 3, 8, 16, 32] {
                let mask = if m == 64 { u64::MAX } else { (1 << m) - 1 };
                let values: Vec<u64> = (0..n).map(|_| rng() & mask).collect();
                let mut c = TreeScanCircuit::new(n);
                for op in [OpKind::Plus, OpKind::Max] {
                    let run = c.scan(op, &values, m);
                    assert_eq!(
                        run.values,
                        ref_scan(op, &values, m),
                        "op={op:?} n={n} m={m}"
                    );
                    assert_eq!(run.cycles, m as u64 + 2 * lg_n as u64 - 1);
                }
            }
        }
    }

    #[test]
    fn circuit_reusable_across_runs() {
        let mut c = TreeScanCircuit::new(4);
        let r1 = c.scan(OpKind::Plus, &[1, 2, 3, 4], 8);
        let r2 = c.scan(OpKind::Max, &[4, 3, 2, 1], 8);
        let r3 = c.scan(OpKind::Plus, &[1, 2, 3, 4], 8);
        assert_eq!(r1.values, vec![0, 1, 3, 6]);
        assert_eq!(r2.values, vec![0, 4, 4, 4]);
        assert_eq!(r1, r3, "state fully cleared between runs");
    }

    #[test]
    fn sixty_four_bit_fields() {
        let values = [u64::MAX, 1, u64::MAX / 2, 0];
        let mut c = TreeScanCircuit::new(4);
        let run = c.scan(OpKind::Plus, &values, 64);
        assert_eq!(run.values, ref_scan(OpKind::Plus, &values, 64));
        let run = c.scan(OpKind::Max, &values, 64);
        assert_eq!(run.values, ref_scan(OpKind::Max, &values, 64));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        TreeScanCircuit::new(6);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_rejected() {
        TreeScanCircuit::new(2).scan(OpKind::Plus, &[256, 0], 8);
    }

    #[test]
    fn word_level_trace_matches_circuit() {
        let values = [3u64, 1, 7, 0, 4, 1, 6, 3];
        let trace = tree_scan_trace(OpKind::Plus, &values, 8);
        let mut c = TreeScanCircuit::new(8);
        let run = c.scan(OpKind::Plus, &values, 8);
        assert_eq!(trace.result, run.values);
        assert_eq!(trace.steps, 6); // 2 lg 8
                                    // Root stores the left subtree's sum and passes up the total.
        assert_eq!(trace.stored_left[1], 11);
        assert_eq!(trace.up_value[1], 25);
    }

    #[test]
    fn trace_single_element() {
        let t = tree_scan_trace(OpKind::Max, &[9], 8);
        assert_eq!(t.result, vec![0]);
        assert_eq!(t.steps, 0);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            TreeScanCircuit::try_new(0).unwrap_err(),
            scan_core::Error::EmptyInput { op: "tree circuit" }
        );
        assert_eq!(
            TreeScanCircuit::try_new(6).unwrap_err(),
            scan_core::Error::LengthMismatch {
                expected: 8,
                actual: 6
            }
        );
        assert!(TreeScanCircuit::try_new(8).is_ok());
    }

    #[test]
    fn try_scan_reports_typed_errors() {
        let mut c = TreeScanCircuit::new(4);
        assert_eq!(
            c.try_scan(OpKind::Plus, &[1], 0).unwrap_err(),
            scan_core::Error::WidthOverflow {
                required: 1,
                available: 64
            }
        );
        assert_eq!(
            c.try_scan(OpKind::Plus, &[1; 5], 8).unwrap_err(),
            scan_core::Error::LengthMismatch {
                expected: 4,
                actual: 5
            }
        );
        assert_eq!(
            c.try_scan(OpKind::Plus, &[256, 0], 8).unwrap_err(),
            scan_core::Error::WidthOverflow {
                required: 9,
                available: 8
            }
        );
        let run = c.try_scan(OpKind::Plus, &[1, 2, 3, 4], 8).unwrap();
        assert_eq!(run.values, vec![0, 1, 3, 6]);
    }

    #[test]
    fn empty_fault_list_matches_plain_scan() {
        let values = [5u64, 1, 3, 4, 3, 9, 2, 6];
        let mut c = TreeScanCircuit::new(8);
        let plain = c.scan(OpKind::Plus, &values, 8);
        let (faulted, applied) = c.scan_with_faults(OpKind::Plus, &values, 8, &[]);
        assert_eq!(plain, faulted);
        assert_eq!(applied, 0);
    }

    #[test]
    fn fault_site_universe_covers_every_unit() {
        let c = TreeScanCircuit::new(8);
        let sites = c.fault_sites();
        // 7 units × (4 state bits + 3 wires) + fifo cells (2·depth per
        // unit: 0 + 2·2 + 4·4 = 20).
        assert_eq!(sites.len(), 7 * 7 + 20);
        assert!(sites.iter().all(|s| (1..8).contains(&s.unit())));
        // Single-leaf circuit has no units, hence no fault sites.
        assert!(TreeScanCircuit::new(1).fault_sites().is_empty());
    }

    #[test]
    fn nonexistent_sites_are_rejected_as_masked() {
        let mut c = TreeScanCircuit::new(4);
        assert!(!c.apply_fault(FaultSite::UpQ1(0)));
        assert!(!c.apply_fault(FaultSite::UpQ1(99)));
        // Root fifo has length 0: any cell index misses.
        assert!(!c.apply_fault(FaultSite::FifoBit(1, 0)));
        assert!(c.apply_fault(FaultSite::UpQ1(1)));
    }

    #[test]
    fn injected_faults_never_panic_and_are_cleared_between_runs() {
        let values = [5u64, 1, 3, 4, 3, 9, 2, 6];
        let reference = ref_scan(OpKind::Plus, &values, 8);
        let mut c = TreeScanCircuit::new(8);
        let sites = c.fault_sites();
        let mut corrupted = 0usize;
        for (i, &site) in sites.iter().enumerate() {
            let fault = CircuitFault {
                cycle: (i % 13) as u64,
                site,
            };
            let (run, applied) = c.scan_with_faults(OpKind::Plus, &values, 8, &[fault]);
            assert_eq!(applied, 1, "site {site:?} should land");
            assert_eq!(run.values.len(), values.len());
            if run.values != reference {
                corrupted += 1;
            }
            // The fault is transient: the next clean run must recover.
            let clean = c.scan(OpKind::Plus, &values, 8);
            assert_eq!(clean.values, reference, "after fault at {site:?}");
        }
        // Most single-bit upsets in live state corrupt the output.
        assert!(corrupted > sites.len() / 4, "only {corrupted} corrupted");
    }

    #[test]
    fn faults_past_the_last_cycle_are_dropped() {
        let values = [1u64, 2, 3, 4];
        let mut c = TreeScanCircuit::new(4);
        let fault = CircuitFault {
            cycle: 10_000,
            site: FaultSite::UpQ1(1),
        };
        let (run, applied) = c.scan_with_faults(OpKind::Plus, &values, 8, &[fault]);
        assert_eq!(applied, 0);
        assert_eq!(run.values, ref_scan(OpKind::Plus, &values, 8));
    }
}
