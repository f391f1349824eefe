//! The building blocks of a tree unit (Figures 14 and 15): the sum
//! state machine and the variable-length shift register.

/// Which primitive the circuit executes — the `Op` control line of
/// Figure 15. "If the signal Op is true, the circuit executes a
/// max-scan. If the signal Op is false, the circuit executes a +-scan."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Serial integer addition; bits are fed **least** significant
    /// first.
    Plus,
    /// Serial integer maximum; bits are fed **most** significant first.
    Max,
}

impl OpKind {
    /// Word-level application of the operator (for checking the bit
    /// serial machines), truncated to `m` bits for `Plus`.
    pub fn apply(self, a: u64, b: u64, m_bits: u32) -> u64 {
        let mask = if m_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << m_bits) - 1
        };
        match self {
            OpKind::Plus => a.wrapping_add(b) & mask,
            OpKind::Max => a.max(b),
        }
    }

    /// The operator's identity.
    pub fn identity(self) -> u64 {
        0
    }
}

/// The sum state machine of Figure 15: three D-type flip-flops (two
/// state bits `Q1`, `Q2` and one registered output bit `S`) plus
/// combinational logic, shared between the two operations.
///
/// For a `+-scan` (Op low) only `Q1` is used, holding the carry of a
/// serial adder; bits stream least-significant first:
/// `S = A ⊕ B ⊕ Q1`, `Q1' = AB + AQ1 + BQ1`.
///
/// For a `max-scan` (Op high) the two state bits track whether the
/// comparison has been decided; bits stream most-significant first:
/// `Q1` set means `A` is greater, `Q2` set means `B` is greater, both
/// clear means equal so far. The output selects the winning stream (or
/// either while equal):
/// `S = A·Q1 + B·Q2 + (A + B)·Q̄1Q̄2`,
/// `Q1' = Q1 + A·B̄·Q̄2`, `Q2' = Q2 + Ā·B·Q̄1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumStateMachine {
    q1: bool,
    q2: bool,
}

impl SumStateMachine {
    /// A cleared machine (the `Clear` control signal of Figure 14).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset both state bits.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Advance one clock: consume one bit from each operand stream and
    /// emit one output bit.
    #[inline]
    pub fn step(&mut self, op: OpKind, a: bool, b: bool) -> bool {
        match op {
            OpKind::Plus => {
                let s = a ^ b ^ self.q1;
                self.q1 = (a & b) | (a & self.q1) | (b & self.q1);
                s
            }
            OpKind::Max => {
                let s = (a & self.q1) | (b & self.q2) | ((a | b) & !self.q1 & !self.q2);
                let q1n = self.q1 | (a & !b & !self.q2);
                let q2n = self.q2 | (!a & b & !self.q1);
                self.q1 = q1n;
                self.q2 = q2n;
                s
            }
        }
    }

    /// Current state bits `(Q1, Q2)` — exposed for the exhaustive logic
    /// tests.
    pub fn state(&self) -> (bool, bool) {
        (self.q1, self.q2)
    }

    /// Fault-injection hook: invert state bit `Q1` — a transient upset
    /// of the flip-flop (carry bit for `Plus`, "A is greater" flag for
    /// `Max`).
    pub fn flip_q1(&mut self) {
        self.q1 = !self.q1;
    }

    /// Fault-injection hook: invert state bit `Q2` (only consulted by
    /// `Max`; flipping it during a `+-scan` is a masked fault).
    pub fn flip_q2(&mut self) {
        self.q2 = !self.q2;
    }
}

/// The variable-length shift register of Figure 14: a first-in
/// first-out buffer shifting one bit per clock. "A unit at level `i`
/// from the top needs a register of length `2i` bits"; length 0 is a
/// combinational passthrough (the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftRegister {
    bits: Vec<bool>,
    head: usize,
}

impl ShiftRegister {
    /// A register of the given length, initially all zero.
    pub fn new(len: usize) -> Self {
        ShiftRegister {
            bits: vec![false; len],
            head: 0,
        }
    }

    /// The register's length in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True for the zero-length (passthrough) register.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// One clock: shift `input` in, return the bit shifted out (the bit
    /// inserted `len` clocks ago; `input` itself when `len == 0`).
    #[inline]
    pub fn shift(&mut self, input: bool) -> bool {
        if self.bits.is_empty() {
            return input;
        }
        let out = self.bits[self.head];
        self.bits[self.head] = input;
        self.head = (self.head + 1) % self.bits.len();
        out
    }

    /// Reset all stored bits to zero.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|b| *b = false);
        self.head = 0;
    }

    /// Fault-injection hook: invert the stored bit that is `age` shifts
    /// from the output end (`age = 0` is the next bit to be shifted
    /// out). A no-op on the zero-length passthrough register or when
    /// `age` exceeds the length — the fault lands on wiring that holds
    /// no state.
    pub fn flip_bit(&mut self, age: usize) {
        if age < self.bits.len() {
            let i = (self.head + age) % self.bits.len();
            self.bits[i] = !self.bits[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed two m-bit words through a state machine bit-serially and
    /// return the resulting word.
    fn run_serial(op: OpKind, a: u64, b: u64, m: u32) -> u64 {
        let mut sm = SumStateMachine::new();
        let mut out = 0u64;
        match op {
            OpKind::Plus => {
                for k in 0..m {
                    let s = sm.step(op, (a >> k) & 1 == 1, (b >> k) & 1 == 1);
                    out |= (s as u64) << k;
                }
            }
            OpKind::Max => {
                for k in (0..m).rev() {
                    let s = sm.step(op, (a >> k) & 1 == 1, (b >> k) & 1 == 1);
                    out |= (s as u64) << k;
                }
            }
        }
        out
    }

    #[test]
    fn serial_adder_exhaustive_8bit() {
        for a in 0..=255u64 {
            for b in 0..=255u64 {
                assert_eq!(
                    run_serial(OpKind::Plus, a, b, 8),
                    (a + b) & 0xFF,
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn serial_max_exhaustive_8bit() {
        for a in 0..=255u64 {
            for b in 0..=255u64 {
                assert_eq!(run_serial(OpKind::Max, a, b, 8), a.max(b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn serial_64bit_spot_checks() {
        let pairs = [
            (0u64, 0u64),
            (u64::MAX, 1),
            (0x8000_0000_0000_0000, 0x7FFF_FFFF_FFFF_FFFF),
            (123456789012345, 987654321098765),
        ];
        for (a, b) in pairs {
            assert_eq!(run_serial(OpKind::Plus, a, b, 64), a.wrapping_add(b));
            assert_eq!(run_serial(OpKind::Max, a, b, 64), a.max(b));
        }
    }

    #[test]
    fn max_state_transitions() {
        // MSB-first: 0b10 vs 0b01 — first bit decides A greater.
        let mut sm = SumStateMachine::new();
        assert_eq!(sm.state(), (false, false));
        let s = sm.step(OpKind::Max, true, false);
        assert!(s);
        assert_eq!(sm.state(), (true, false));
        // Once decided for A, B's bits are ignored.
        let s = sm.step(OpKind::Max, false, true);
        assert!(!s);
        assert_eq!(sm.state(), (true, false));
    }

    #[test]
    fn plus_carry_state() {
        let mut sm = SumStateMachine::new();
        // 1 + 1 (LSB): sum 0 carry 1.
        assert!(!sm.step(OpKind::Plus, true, true));
        assert_eq!(sm.state(), (true, false));
        // 0 + 0 + carry: sum 1 carry 0.
        assert!(sm.step(OpKind::Plus, false, false));
        assert_eq!(sm.state(), (false, false));
    }

    #[test]
    fn clear_resets() {
        let mut sm = SumStateMachine::new();
        sm.step(OpKind::Plus, true, true);
        sm.clear();
        assert_eq!(sm.state(), (false, false));
    }

    #[test]
    fn shift_register_delays_by_len() {
        let mut r = ShiftRegister::new(3);
        let inputs = [true, false, true, true, false, false, true];
        let mut outs = Vec::new();
        for &i in &inputs {
            outs.push(r.shift(i));
        }
        // First 3 outputs are the initial zeros; then inputs delayed by 3.
        assert_eq!(outs, vec![false, false, false, true, false, true, true]);
    }

    #[test]
    fn zero_length_register_is_passthrough() {
        let mut r = ShiftRegister::new(0);
        assert!(r.shift(true));
        assert!(!r.shift(false));
        assert!(r.is_empty());
    }

    #[test]
    fn register_clear() {
        let mut r = ShiftRegister::new(2);
        r.shift(true);
        r.shift(true);
        r.clear();
        assert!(!r.shift(false));
        assert!(!r.shift(false));
    }

    #[test]
    fn opkind_word_apply() {
        assert_eq!(OpKind::Plus.apply(200, 100, 8), 44);
        assert_eq!(OpKind::Max.apply(200, 100, 8), 200);
        assert_eq!(OpKind::Plus.apply(u64::MAX, 2, 64), 1);
        assert_eq!(OpKind::Plus.identity(), 0);
        assert_eq!(OpKind::Max.identity(), 0);
    }
}
