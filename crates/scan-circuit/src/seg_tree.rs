//! Segmented scans in hardware: "some of the other scan operations,
//! such as the segmented scan operations, can be implemented directly
//! with little additional hardware" (§3, citing \[7]).
//!
//! The addition is exactly one flag path: each operand travels as an
//! `m + 1`-bit *frame* — the segment flag first, then the value bits.
//! A unit combining frames `(f_a, v_a)` and `(f_b, v_b)` applies the
//! associative segmented operator
//!
//! ```text
//! (f_a, v_a) ⊕seg (f_b, v_b) = (f_a | f_b, if f_b { v_b } else { v_a ⊕ v_b })
//! ```
//!
//! in serial form: when the right flag is set the unit simply passes
//! the right stream through (one mux); otherwise it runs the ordinary
//! sum state machine. The flag arriving first is what makes the
//! single-pass serial evaluation possible — one extra flip-flop and a
//! mux per state machine, the paper's "little additional hardware".
//!
//! Latency: `(m + 1) + 2 lg n − 1` bit cycles — one cycle over the
//! unsegmented circuit.

use crate::tree::CircuitRun;
use crate::unit::{OpKind, ShiftRegister, SumStateMachine};

/// One tree unit with the segmented frame path.
#[derive(Debug, Clone)]
struct SegUnit {
    up_sm: SumStateMachine,
    /// When set, the up path passes the right child's stream through.
    up_mode: bool,
    down_sm: SumStateMachine,
    /// When set, the down path passes the stored left stream through.
    down_mode: bool,
    fifo: ShiftRegister,
    up_out: bool,
    left_out: bool,
    right_out: bool,
}

impl SegUnit {
    fn new(depth: usize) -> Self {
        SegUnit {
            up_sm: SumStateMachine::new(),
            up_mode: false,
            down_sm: SumStateMachine::new(),
            down_mode: false,
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
        self.up_mode = false;
        self.down_mode = false;
        self.up_out = false;
        self.left_out = false;
        self.right_out = false;
    }
}

/// A scan tree whose operands carry a segment flag ahead of the value
/// bits, executing segmented `+-scan` / `max-scan` in one pass.
#[derive(Debug, Clone)]
pub struct SegTreeScanCircuit {
    n_leaves: usize,
    levels: u32,
    units: Vec<SegUnit>,
}

/// The result of a segmented circuit run: the raw pair-operator scan
/// (value plus or-of-flags) at every leaf, and the cycle count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegCircuitRun {
    /// Pair-scan value delivered to each leaf (before the head mask).
    pub raw_values: Vec<u64>,
    /// Or of the flags strictly left of each leaf.
    pub seen_flag: Vec<bool>,
    /// Total clock cycles.
    pub cycles: u64,
}

impl SegTreeScanCircuit {
    /// Build a segmented scan tree over `n_leaves` (power of two).
    ///
    /// # Panics
    /// If `n_leaves` is zero or not a power of two.
    pub fn new(n_leaves: usize) -> Self {
        assert!(n_leaves > 0 && n_leaves.is_power_of_two());
        let levels = n_leaves.trailing_zeros();
        let mut units = Vec::with_capacity(n_leaves);
        units.push(SegUnit::new(0));
        for k in 1..n_leaves {
            units.push(SegUnit::new(k.ilog2() as usize));
        }
        SegTreeScanCircuit {
            n_leaves,
            levels,
            units,
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Reset all state.
    pub fn clear(&mut self) {
        for u in &mut self.units[1..] {
            u.clear();
        }
    }

    /// Run one segmented scan: frames of `1 + m_bits` bits enter the
    /// leaves; the raw pair-operator exclusive scan leaves them.
    ///
    /// # Panics
    /// On length/width violations, as [`crate::tree::TreeScanCircuit`].
    pub fn run_raw(
        &mut self,
        op: OpKind,
        values: &[u64],
        flags: &[bool],
        m_bits: u32,
    ) -> SegCircuitRun {
        assert!((1..=64).contains(&m_bits));
        assert_eq!(values.len(), flags.len(), "values/flags length mismatch");
        assert!(values.len() <= self.n_leaves, "too many values");
        let mask = if m_bits == 64 {
            u64::MAX
        } else {
            (1u64 << m_bits) - 1
        };
        for &v in values {
            assert!(v & !mask == 0, "value {v} does not fit in {m_bits} bits");
        }
        self.clear();
        let n = self.n_leaves;
        let frame = m_bits as u64 + 1;
        if n == 1 {
            return SegCircuitRun {
                raw_values: vec![0; values.len()],
                seen_flag: vec![false; values.len()],
                cycles: frame,
            };
        }
        let levels = self.levels as u64;
        let latency = 2 * levels - 1;
        let total = frame + latency;
        let mut raw_values = vec![0u64; n];
        let mut seen_flag = vec![false; n];
        for t in 0..total {
            // Leaf inputs this cycle: bit `t` of the frame (flag first).
            let leaf_in: Vec<bool> = (0..n)
                .map(|p| {
                    if t >= frame {
                        return false;
                    }
                    if t == 0 {
                        return flags.get(p).copied().unwrap_or(false);
                    }
                    let v = values.get(p).copied().unwrap_or(0);
                    let k = t - 1; // value bit index within the frame
                    let bit_index = match op {
                        OpKind::Plus => k,
                        OpKind::Max => m_bits as u64 - 1 - k,
                    };
                    (v >> bit_index) & 1 == 1
                })
                .collect();
            // Sample phase (synchronous registers).
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
                    false
                } else if k % 2 == 0 {
                    self.units[k / 2].left_out
                } else {
                    self.units[k / 2].right_out
                };
            }
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
            // Commit phase. A unit at depth d sees up-frame bit
            // `t − (levels−1−d)` and down-frame bit `t − (levels+d−1)`
            // (mod frame); position 0 is the flag bit.
            for k in 1..n {
                let depth = k.ilog2() as u64;
                let (a, b, d) = (a_in[k], b_in[k], d_in[k]);
                let u = &mut self.units[k];
                // --- up path ---
                let up_arrival = (levels - 1 - depth) % frame;
                let up_pos = (t + frame - up_arrival) % frame;
                if up_pos == 0 {
                    u.up_sm.clear();
                    u.up_mode = b; // right flag set → pass right through
                    u.up_out = a | b;
                } else if u.up_mode {
                    u.up_out = b;
                } else {
                    u.up_out = u.up_sm.step(op, a, b);
                }
                let f = u.fifo.shift(a);
                // --- down path ---
                let down_arrival = (levels + depth - 1) % frame;
                let down_pos = (t + frame - down_arrival) % frame;
                u.left_out = d;
                if down_pos == 0 {
                    u.down_sm.clear();
                    u.down_mode = f; // stored left flag set → pass left
                    u.right_out = d | f;
                } else if u.down_mode {
                    u.right_out = f;
                } else {
                    u.right_out = u.down_sm.step(op, d, f);
                }
            }
            // Collect: leaf frame bit index is t − latency.
            if t >= latency {
                let pos = t - latency;
                if pos == 0 {
                    for (p, &bit) in leaf_out.iter().enumerate() {
                        seen_flag[p] = bit;
                    }
                } else {
                    let k = pos - 1;
                    let bit_index = match op {
                        OpKind::Plus => k,
                        OpKind::Max => m_bits as u64 - 1 - k,
                    };
                    for (p, &bit) in leaf_out.iter().enumerate() {
                        if bit {
                            raw_values[p] |= 1 << bit_index;
                        }
                    }
                }
            }
        }
        raw_values.truncate(values.len());
        seen_flag.truncate(values.len());
        SegCircuitRun {
            raw_values,
            seen_flag,
            cycles: total,
        }
    }

    /// Execute a full segmented exclusive scan: the circuit run plus
    /// the one-elementwise-step head mask (a segment head's exclusive
    /// result is the identity).
    pub fn seg_scan(
        &mut self,
        op: OpKind,
        values: &[u64],
        flags: &[bool],
        m_bits: u32,
    ) -> CircuitRun {
        let run = self.run_raw(op, values, flags, m_bits);
        let out: Vec<u64> = run
            .raw_values
            .iter()
            .enumerate()
            .map(|(i, &v)| if i == 0 || flags[i] { op.identity() } else { v })
            .collect();
        CircuitRun {
            values: out,
            cycles: run.cycles,
        }
    }

    /// The pipeline bound: `(m + 1) + 2 lg n` cycles.
    pub fn cycle_bound(&self, m_bits: u32) -> u64 {
        m_bits as u64 + 1 + 2 * self.levels as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_core::op::{Max, Sum};
    use scan_core::segmented::{seg_scan as sw_seg_scan, Segments};

    fn check(op: OpKind, values: &[u64], flags: &[bool], m: u32) {
        let n = values.len().next_power_of_two().max(1);
        let mut c = SegTreeScanCircuit::new(n);
        let run = c.seg_scan(op, values, flags, m);
        let segs = Segments::from_flags(flags.to_vec());
        let expect = match op {
            OpKind::Plus => {
                // Software seg-scan on the m-bit field (wrapping).
                let mask = if m == 64 { u64::MAX } else { (1 << m) - 1 };
                sw_seg_scan::<Sum, _>(values, &segs)
                    .into_iter()
                    .map(|x| x & mask)
                    .collect::<Vec<_>>()
            }
            OpKind::Max => sw_seg_scan::<Max, _>(values, &segs),
        };
        assert_eq!(
            run.values, expect,
            "op={op:?} values={values:?} flags={flags:?}"
        );
        assert!(run.cycles <= c.cycle_bound(m));
    }

    #[test]
    fn figure4_on_hardware() {
        let values = [5u64, 1, 3, 4, 3, 9, 2, 6];
        let flags = [true, false, true, false, false, false, true, false];
        check(OpKind::Plus, &values, &flags, 8);
        check(OpKind::Max, &values, &flags, 8);
    }

    #[test]
    fn single_segment_matches_unsegmented_circuit() {
        let values = [7u64, 2, 9, 4];
        let flags = [true, false, false, false];
        let mut seg = SegTreeScanCircuit::new(4);
        let seg_run = seg.seg_scan(OpKind::Plus, &values, &flags, 8);
        let mut plain = crate::tree::TreeScanCircuit::new(4);
        let plain_run = plain.scan(OpKind::Plus, &values, 8);
        assert_eq!(seg_run.values, plain_run.values);
        // One extra cycle for the flag bit.
        assert_eq!(seg_run.cycles, plain_run.cycles + 1);
    }

    #[test]
    fn every_leaf_its_own_segment() {
        let values = [3u64, 1, 4, 1];
        let flags = [true; 4];
        check(OpKind::Plus, &values, &flags, 8);
        check(OpKind::Max, &values, &flags, 8);
    }

    #[test]
    fn random_inputs_match_software() {
        let mut x = 9u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 33
        };
        for lg_n in [1u32, 2, 3, 4, 6] {
            let n = 1usize << lg_n;
            for m in [1u32, 4, 8, 16, 32] {
                let mask = if m == 64 { u64::MAX } else { (1 << m) - 1 };
                let values: Vec<u64> = (0..n).map(|_| rng() & mask).collect();
                let flags: Vec<bool> = (0..n).map(|_| rng() % 3 == 0).collect();
                check(OpKind::Plus, &values, &flags, m);
                check(OpKind::Max, &values, &flags, m);
            }
        }
    }

    #[test]
    fn single_leaf() {
        let mut c = SegTreeScanCircuit::new(1);
        let run = c.seg_scan(OpKind::Plus, &[9], &[false], 8);
        assert_eq!(run.values, vec![0]);
    }

    #[test]
    fn reusable_across_runs() {
        let mut c = SegTreeScanCircuit::new(4);
        let r1 = c.seg_scan(OpKind::Plus, &[1, 2, 3, 4], &[true, false, true, false], 8);
        c.seg_scan(OpKind::Max, &[9, 9, 9, 9], &[true, true, true, true], 8);
        let r3 = c.seg_scan(OpKind::Plus, &[1, 2, 3, 4], &[true, false, true, false], 8);
        assert_eq!(r1, r3);
    }

    #[test]
    fn hardware_overhead_is_one_cycle_per_scan() {
        // "Little additional hardware": the frame grows by one bit, the
        // tree by nothing.
        let c = SegTreeScanCircuit::new(64);
        assert_eq!(c.cycle_bound(32), 32 + 1 + 12);
    }
}
