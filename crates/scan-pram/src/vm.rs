//! A PARIS-flavored vector instruction set.
//!
//! "The scan primitives have been implemented in microcode on the
//! Connection Machine System, are available in PARIS (the parallel
//! instruction set of the machine), and are used in a large number of
//! applications." This module gives the library the same shape: a
//! small register-based vector ISA whose instruction vocabulary is the
//! paper's — elementwise arithmetic, permutes, the two primitive scans,
//! segmented scans, and the derived operations — executed on the
//! step-counting [`Ctx`], so a program's step complexity is measured as
//! it runs.
//!
//! ```
//! use scan_pram::vm::{Instr, Vm};
//! use scan_pram::Model;
//!
//! // +-scan of [2 1 2 3]:
//! let mut vm = Vm::new(Model::Scan);
//! vm.load("a", vec![2, 1, 2, 3]);
//! vm.run(&[Instr::PlusScan { dst: "s", src: "a" }]).unwrap();
//! assert_eq!(vm.get("s").unwrap(), &[0, 2, 3, 5]);
//! ```

use std::collections::HashMap;

use scan_core::op::{Max, Min, Sum};
use scan_core::segmented::Segments;

use crate::ctx::Ctx;
use crate::model::Model;

/// Register names are static strings (mnemonics in a hand-written
/// program).
pub type Reg = &'static str;

/// The instruction vocabulary: the paper's vector operations. Each
/// variant's doc comment states its semantics; the operand fields are
/// uniformly `dst`/`src`/`a`/`b`/`idx`/`flags` register names.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `dst ← [c; len_of(src)]`.
    Const { dst: Reg, like: Reg, value: u64 },
    /// `dst ← [0, 1, 2, ...]` with the length of `like`.
    Iota { dst: Reg, like: Reg },
    /// `dst ← a + b` (wrapping).
    Add { dst: Reg, a: Reg, b: Reg },
    /// `dst ← a − b` (wrapping).
    Sub { dst: Reg, a: Reg, b: Reg },
    /// `dst ← min(a, b)` elementwise.
    MinV { dst: Reg, a: Reg, b: Reg },
    /// `dst ← max(a, b)` elementwise.
    MaxV { dst: Reg, a: Reg, b: Reg },
    /// `dst ← a & b`.
    And { dst: Reg, a: Reg, b: Reg },
    /// `dst ← a | b`.
    Or { dst: Reg, a: Reg, b: Reg },
    /// `dst ← a ^ b`.
    Xor { dst: Reg, a: Reg, b: Reg },
    /// `dst ← (a >> amount) & 1` — bit extraction (the radix sort's
    /// `A⟨i⟩`).
    Bit { dst: Reg, src: Reg, amount: u32 },
    /// `dst ← a < b` (0/1).
    Lt { dst: Reg, a: Reg, b: Reg },
    /// `dst ← a == b` (0/1).
    Eq { dst: Reg, a: Reg, b: Reg },
    /// `dst ← cond ? a : b` elementwise (`cond` is 0/1).
    Select { dst: Reg, cond: Reg, a: Reg, b: Reg },
    /// The exclusive `+-scan` primitive.
    PlusScan { dst: Reg, src: Reg },
    /// The exclusive `max-scan` primitive.
    MaxScan { dst: Reg, src: Reg },
    /// Segmented exclusive `+-scan`; `flags` is 0/1 head flags.
    SegPlusScan { dst: Reg, src: Reg, flags: Reg },
    /// Segmented exclusive `max-scan`.
    SegMaxScan { dst: Reg, src: Reg, flags: Reg },
    /// `dst ← enumerate(flags)` (flags are 0/1).
    Enumerate { dst: Reg, flags: Reg },
    /// `dst[idx[i]] ← src[i]` (indices must be a permutation).
    Permute { dst: Reg, src: Reg, idx: Reg },
    /// `dst[i] ← src[idx[i]]`.
    Gather { dst: Reg, src: Reg, idx: Reg },
    /// `dst ← pack(src, flags)` — the shorter kept vector.
    Pack { dst: Reg, src: Reg, flags: Reg },
    /// `dst ← split(src, flags)` (§2.2.1).
    Split { dst: Reg, src: Reg, flags: Reg },
    /// `dst ← +-reduce(src)` broadcast to every element
    /// (`+-distribute`).
    PlusDistribute { dst: Reg, src: Reg },
    /// `dst ← min-reduce(src)` broadcast (`min-distribute`).
    MinDistribute { dst: Reg, src: Reg },
}

/// Errors a program can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Instruction read a register that was never written.
    UndefinedRegister(&'static str),
    /// Two operands had different lengths.
    LengthMismatch {
        /// First operand length.
        a: usize,
        /// Second operand length.
        b: usize,
    },
    /// A permute's index vector was not a permutation.
    BadPermutation,
    /// The program charged more steps than its [`VmLimits`] budget.
    StepBudgetExceeded {
        /// The configured budget.
        budget: u64,
        /// Steps charged when the budget check fired.
        used: u64,
    },
    /// The registers hold more words than the [`VmLimits`] cap allows.
    MemoryBudgetExceeded {
        /// The configured cap, in 64-bit words.
        cap: usize,
        /// Words held when the cap check fired.
        used: usize,
    },
    /// A checked vector operation from `scan-core` failed.
    Core(scan_core::Error),
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::UndefinedRegister(r) => write!(f, "undefined register {r}"),
            VmError::LengthMismatch { a, b } => write!(f, "length mismatch: {a} vs {b}"),
            VmError::BadPermutation => write!(f, "index vector is not a permutation"),
            VmError::StepBudgetExceeded { budget, used } => {
                write!(
                    f,
                    "step budget exceeded: {used} steps charged, budget {budget}"
                )
            }
            VmError::MemoryBudgetExceeded { cap, used } => {
                write!(
                    f,
                    "register memory cap exceeded: {used} words held, cap {cap}"
                )
            }
            VmError::Core(e) => write!(f, "vector operation failed: {e}"),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<scan_core::Error> for VmError {
    fn from(e: scan_core::Error) -> Self {
        VmError::Core(e)
    }
}

/// Resource budgets enforced by [`Vm::run`] after every instruction.
///
/// `None` means unlimited (the default). A budget makes a runaway or
/// adversarial program fail with a typed [`VmError`] instead of looping
/// or exhausting memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmLimits {
    /// Maximum program steps (as charged by the model) a run may use.
    pub max_steps: Option<u64>,
    /// Maximum total 64-bit words held across all registers.
    pub max_register_words: Option<usize>,
}

impl VmLimits {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        VmLimits::default()
    }

    /// Cap the program-step budget.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Cap the total register memory, in 64-bit words.
    pub fn with_max_register_words(mut self, words: usize) -> Self {
        self.max_register_words = Some(words);
        self
    }
}

/// The vector machine: named registers over a step-counting [`Ctx`].
#[derive(Debug)]
pub struct Vm {
    regs: HashMap<&'static str, Vec<u64>>,
    ctx: Ctx,
    limits: VmLimits,
}

impl Vm {
    /// A machine with one processor per element under `model`.
    pub fn new(model: Model) -> Self {
        Vm {
            regs: HashMap::new(),
            ctx: Ctx::new(model),
            limits: VmLimits::default(),
        }
    }

    /// A machine over an existing context (e.g. with a fixed processor
    /// count).
    pub fn with_ctx(ctx: Ctx) -> Self {
        Vm {
            regs: HashMap::new(),
            ctx,
            limits: VmLimits::default(),
        }
    }

    /// A machine under `model` with resource budgets enforced by
    /// [`Vm::run`].
    pub fn with_limits(model: Model, limits: VmLimits) -> Self {
        let mut vm = Vm::new(model);
        vm.limits = limits;
        vm
    }

    /// Replace the resource budgets.
    pub fn set_limits(&mut self, limits: VmLimits) {
        self.limits = limits;
    }

    /// The active resource budgets.
    pub fn limits(&self) -> VmLimits {
        self.limits
    }

    /// Total 64-bit words currently held across all registers.
    pub fn register_words(&self) -> usize {
        self.regs.values().map(Vec::len).sum()
    }

    /// Write a register directly.
    pub fn load(&mut self, reg: &'static str, data: Vec<u64>) {
        self.regs.insert(reg, data);
    }

    /// Read a register.
    pub fn get(&self, reg: &'static str) -> Option<&[u64]> {
        self.regs.get(reg).map(Vec::as_slice)
    }

    /// The accumulated step statistics.
    pub fn stats(&self) -> &crate::stats::Stats {
        self.ctx.stats()
    }

    /// Total program steps charged.
    pub fn steps(&self) -> u64 {
        self.ctx.steps()
    }

    fn reg(&self, r: &'static str) -> Result<&Vec<u64>, VmError> {
        self.regs.get(r).ok_or(VmError::UndefinedRegister(r))
    }

    fn pair(&self, a: &'static str, b: &'static str) -> Result<(Vec<u64>, Vec<u64>), VmError> {
        let av = self.reg(a)?.clone();
        let bv = self.reg(b)?.clone();
        if av.len() != bv.len() {
            return Err(VmError::LengthMismatch {
                a: av.len(),
                b: bv.len(),
            });
        }
        Ok((av, bv))
    }

    fn flags_of(v: &[u64]) -> Vec<bool> {
        v.iter().map(|&x| x != 0).collect()
    }

    /// Execute one instruction.
    pub fn step(&mut self, instr: Instr) -> Result<(), VmError> {
        use Instr::*;
        match instr {
            Const { dst, like, value } => {
                let n = self.reg(like)?.len();
                let out = self.ctx.constant(n, value);
                self.regs.insert(dst, out);
            }
            Iota { dst, like } => {
                let n = self.reg(like)?.len();
                let out: Vec<u64> = self.ctx.iota(n).iter().map(|&i| i as u64).collect();
                self.regs.insert(dst, out);
            }
            Add { dst, a, b } => self.binop(dst, a, b, |x, y| x.wrapping_add(y))?,
            Sub { dst, a, b } => self.binop(dst, a, b, |x, y| x.wrapping_sub(y))?,
            MinV { dst, a, b } => self.binop(dst, a, b, u64::min)?,
            MaxV { dst, a, b } => self.binop(dst, a, b, u64::max)?,
            And { dst, a, b } => self.binop(dst, a, b, |x, y| x & y)?,
            Or { dst, a, b } => self.binop(dst, a, b, |x, y| x | y)?,
            Xor { dst, a, b } => self.binop(dst, a, b, |x, y| x ^ y)?,
            Lt { dst, a, b } => self.binop(dst, a, b, |x, y| u64::from(x < y))?,
            Eq { dst, a, b } => self.binop(dst, a, b, |x, y| u64::from(x == y))?,
            Bit { dst, src, amount } => {
                let s = self.reg(src)?.clone();
                let out = self.ctx.map(&s, move |x| (x >> amount) & 1);
                self.regs.insert(dst, out);
            }
            Select { dst, cond, a, b } => {
                let c = Self::flags_of(self.reg(cond)?);
                let (av, bv) = self.pair(a, b)?;
                if c.len() != av.len() {
                    return Err(VmError::LengthMismatch {
                        a: c.len(),
                        b: av.len(),
                    });
                }
                let out = self.ctx.select(&c, &av, &bv);
                self.regs.insert(dst, out);
            }
            PlusScan { dst, src } => {
                let s = self.reg(src)?.clone();
                let out = self.ctx.scan::<Sum, _>(&s);
                self.regs.insert(dst, out);
            }
            MaxScan { dst, src } => {
                let s = self.reg(src)?.clone();
                let out = self.ctx.scan::<Max, _>(&s);
                self.regs.insert(dst, out);
            }
            SegPlusScan { dst, src, flags } => {
                let (s, f) = self.pair(src, flags)?;
                let segs = Segments::from_flags(Self::flags_of(&f));
                let out = self.ctx.seg_scan::<Sum, _>(&s, &segs);
                self.regs.insert(dst, out);
            }
            SegMaxScan { dst, src, flags } => {
                let (s, f) = self.pair(src, flags)?;
                let segs = Segments::from_flags(Self::flags_of(&f));
                let out = self.ctx.seg_scan::<Max, _>(&s, &segs);
                self.regs.insert(dst, out);
            }
            Enumerate { dst, flags } => {
                let f = Self::flags_of(self.reg(flags)?);
                let out: Vec<u64> = self.ctx.enumerate(&f).iter().map(|&x| x as u64).collect();
                self.regs.insert(dst, out);
            }
            Permute { dst, src, idx } => {
                let (s, ix) = self.pair(src, idx)?;
                let indices: Vec<usize> = ix.iter().map(|&x| x as usize).collect();
                // Only a malformed index vector is a bad permutation; a
                // deadline or cancellation stays a typed core error.
                let out = scan_core::ops::try_permute(&s, &indices).map_err(|e| match e {
                    scan_core::Error::IndexOutOfBounds { .. }
                    | scan_core::Error::DuplicateIndex { .. }
                    | scan_core::Error::LengthMismatch { .. } => VmError::BadPermutation,
                    e => VmError::Core(e),
                })?;
                self.ctx.charge_permute_op(s.len());
                self.regs.insert(dst, out);
            }
            Gather { dst, src, idx } => {
                let s = self.reg(src)?.clone();
                let ix = self.reg(idx)?.clone();
                let indices: Vec<usize> = ix.iter().map(|&x| x as usize).collect();
                let out = scan_core::ops::try_gather(&s, &indices)?;
                self.ctx.charge_permute_op(indices.len());
                self.regs.insert(dst, out);
            }
            Pack { dst, src, flags } => {
                let (s, f) = self.pair(src, flags)?;
                let out = self.ctx.pack(&s, &Self::flags_of(&f));
                self.regs.insert(dst, out);
            }
            Split { dst, src, flags } => {
                let (s, f) = self.pair(src, flags)?;
                let out = self.ctx.split(&s, &Self::flags_of(&f));
                self.regs.insert(dst, out);
            }
            PlusDistribute { dst, src } => {
                let s = self.reg(src)?.clone();
                let out = self.ctx.distribute_op::<Sum, _>(&s);
                self.regs.insert(dst, out);
            }
            MinDistribute { dst, src } => {
                let s = self.reg(src)?.clone();
                let out = self.ctx.distribute_op::<Min, _>(&s);
                self.regs.insert(dst, out);
            }
        }
        Ok(())
    }

    fn binop(
        &mut self,
        dst: &'static str,
        a: &'static str,
        b: &'static str,
        f: impl Fn(u64, u64) -> u64 + Sync,
    ) -> Result<(), VmError> {
        let (av, bv) = self.pair(a, b)?;
        let out = self.ctx.zip(&av, &bv, f);
        self.regs.insert(dst, out);
        Ok(())
    }

    /// Execute a straight-line program, enforcing the machine's
    /// [`VmLimits`] after every instruction.
    pub fn run(&mut self, program: &[Instr]) -> Result<(), VmError> {
        for &i in program {
            self.step(i)?;
            self.check_budgets()?;
        }
        Ok(())
    }

    fn check_budgets(&self) -> Result<(), VmError> {
        if let Some(budget) = self.limits.max_steps {
            let used = self.ctx.steps();
            if used > budget {
                return Err(VmError::StepBudgetExceeded { budget, used });
            }
        }
        if let Some(cap) = self.limits.max_register_words {
            let used = self.register_words();
            if used > cap {
                return Err(VmError::MemoryBudgetExceeded { cap, used });
            }
        }
        Ok(())
    }
}

/// One pass of the split radix sort, as a PARIS-style program: extract
/// bit `bit`, then `split` on it (Figure 2's loop body).
pub fn radix_pass_program(bit: u32) -> Vec<Instr> {
    vec![
        Instr::Bit {
            dst: "flag",
            src: "keys",
            amount: bit,
        },
        Instr::Split {
            dst: "keys",
            src: "keys",
            flags: "flag",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_program() {
        let mut vm = Vm::new(Model::Scan);
        vm.load("a", vec![2, 1, 2, 3, 5, 8, 13, 21]);
        vm.run(&[Instr::PlusScan { dst: "s", src: "a" }]).unwrap();
        assert_eq!(vm.get("s").unwrap(), &[0, 2, 3, 5, 8, 13, 21, 34]);
        assert!(vm.steps() > 0);
    }

    #[test]
    fn radix_sort_as_a_program() {
        let mut vm = Vm::new(Model::Scan);
        vm.load("keys", vec![5, 7, 3, 1, 4, 2, 7, 2]);
        for bit in 0..3 {
            vm.run(&radix_pass_program(bit)).unwrap();
        }
        assert_eq!(vm.get("keys").unwrap(), &[1, 2, 2, 3, 4, 5, 7, 7]);
    }

    #[test]
    fn figure1_programs() {
        let mut vm = Vm::new(Model::Scan);
        vm.load("flags", vec![1, 0, 0, 1, 0, 1, 1, 0]);
        vm.run(&[Instr::Enumerate {
            dst: "e",
            flags: "flags",
        }])
        .unwrap();
        assert_eq!(vm.get("e").unwrap(), &[0, 1, 1, 1, 2, 2, 3, 4]);
        vm.load("b", vec![1, 1, 2, 1, 1, 2, 1, 1]);
        vm.run(&[Instr::PlusDistribute { dst: "d", src: "b" }])
            .unwrap();
        assert_eq!(vm.get("d").unwrap(), &[10; 8]);
    }

    #[test]
    fn segmented_program() {
        let mut vm = Vm::new(Model::Scan);
        vm.load("a", vec![5, 1, 3, 4, 3, 9, 2, 6]);
        vm.load("sb", vec![1, 0, 1, 0, 0, 0, 1, 0]);
        vm.run(&[
            Instr::SegPlusScan {
                dst: "ps",
                src: "a",
                flags: "sb",
            },
            Instr::SegMaxScan {
                dst: "ms",
                src: "a",
                flags: "sb",
            },
        ])
        .unwrap();
        assert_eq!(vm.get("ps").unwrap(), &[0, 5, 0, 3, 7, 10, 0, 2]);
        assert_eq!(vm.get("ms").unwrap(), &[0, 5, 0, 3, 4, 4, 0, 2]);
    }

    #[test]
    fn arithmetic_and_select() {
        let mut vm = Vm::new(Model::Scan);
        vm.load("a", vec![5, 1, 9]);
        vm.load("b", vec![2, 8, 9]);
        vm.run(&[
            Instr::Add {
                dst: "sum",
                a: "a",
                b: "b",
            },
            Instr::Lt {
                dst: "lt",
                a: "a",
                b: "b",
            },
            Instr::Select {
                dst: "min",
                cond: "lt",
                a: "a",
                b: "b",
            },
            Instr::MaxV {
                dst: "max",
                a: "a",
                b: "b",
            },
        ])
        .unwrap();
        assert_eq!(vm.get("sum").unwrap(), &[7, 9, 18]);
        assert_eq!(vm.get("lt").unwrap(), &[0, 1, 0]);
        assert_eq!(vm.get("min").unwrap(), &[2, 1, 9]);
        assert_eq!(vm.get("max").unwrap(), &[5, 8, 9]);
    }

    #[test]
    fn permute_and_gather_roundtrip() {
        let mut vm = Vm::new(Model::Scan);
        vm.load("a", vec![10, 11, 12, 13]);
        vm.load("idx", vec![2, 0, 3, 1]);
        vm.run(&[
            Instr::Permute {
                dst: "p",
                src: "a",
                idx: "idx",
            },
            Instr::Gather {
                dst: "back",
                src: "p",
                idx: "idx",
            },
        ])
        .unwrap();
        assert_eq!(vm.get("back").unwrap(), &[10, 11, 12, 13]);
    }

    #[test]
    fn errors_are_reported() {
        let mut vm = Vm::new(Model::Scan);
        assert_eq!(
            vm.step(Instr::PlusScan {
                dst: "x",
                src: "nope"
            }),
            Err(VmError::UndefinedRegister("nope"))
        );
        vm.load("a", vec![1, 2]);
        vm.load("b", vec![1]);
        assert!(matches!(
            vm.step(Instr::Add {
                dst: "c",
                a: "a",
                b: "b"
            }),
            Err(VmError::LengthMismatch { .. })
        ));
        vm.load("idx", vec![0, 0]);
        vm.load("two", vec![7, 8]);
        assert_eq!(
            vm.step(Instr::Permute {
                dst: "p",
                src: "two",
                idx: "idx"
            }),
            Err(VmError::BadPermutation)
        );
    }

    #[test]
    fn cancelled_deadline_is_a_core_error_for_permute_and_gather() {
        let mut vm = Vm::new(Model::Scan);
        vm.load("a", vec![10, 20, 30]);
        vm.load("idx", vec![2, 0, 1]);
        let d = scan_core::ScanDeadline::manual();
        d.cancel();
        let cancelled = Err(VmError::Core(scan_core::Error::Exec(
            scan_core::ExecError::Cancelled,
        )));
        scan_core::deadline::with_deadline(&d, || {
            let permute = vm.step(Instr::Permute {
                dst: "p",
                src: "a",
                idx: "idx",
            });
            assert_eq!(permute, cancelled);
            let gather = vm.step(Instr::Gather {
                dst: "g",
                src: "a",
                idx: "idx",
            });
            assert_eq!(gather, cancelled);
        });
    }

    #[test]
    fn gather_out_of_bounds_is_a_typed_core_error() {
        let mut vm = Vm::new(Model::Scan);
        vm.load("a", vec![1, 2, 3]);
        vm.load("idx", vec![0, 9, 1]);
        let err = vm
            .step(Instr::Gather {
                dst: "g",
                src: "a",
                idx: "idx",
            })
            .unwrap_err();
        assert_eq!(
            err,
            VmError::Core(scan_core::Error::IndexOutOfBounds { index: 9, len: 3 })
        );
        // The conversion also works via `?` / `From` directly.
        let via_from: VmError = scan_core::Error::DuplicateIndex { index: 2 }.into();
        assert!(matches!(via_from, VmError::Core(_)));
        // And the source chain reaches the core error.
        use std::error::Error as _;
        assert!(err.source().is_some());
    }

    #[test]
    fn step_budget_stops_runaway_programs() {
        let mut vm = Vm::with_limits(Model::Scan, VmLimits::unlimited().with_max_steps(5));
        vm.load("a", (0..64u64).collect());
        // Each scan charges steps; once the cumulative charge passes the
        // budget the run stops with the typed error instead of running
        // the rest of the program.
        let err = vm
            .run(&[
                Instr::PlusScan { dst: "s", src: "a" },
                Instr::PlusScan { dst: "t", src: "s" },
                Instr::PlusScan { dst: "u", src: "t" },
            ])
            .unwrap_err();
        match err {
            VmError::StepBudgetExceeded { budget, used } => {
                assert_eq!(budget, 5);
                assert!(used > 5);
            }
            other => panic!("expected StepBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn memory_cap_stops_register_growth() {
        let mut vm = Vm::with_limits(
            Model::Scan,
            VmLimits::unlimited().with_max_register_words(5),
        );
        vm.load("a", vec![1, 2, 3]);
        let err = vm
            .run(&[Instr::PlusScan { dst: "s", src: "a" }])
            .unwrap_err();
        assert_eq!(err, VmError::MemoryBudgetExceeded { cap: 5, used: 6 });
        assert_eq!(vm.register_words(), 6);
    }

    #[test]
    fn budgets_default_to_unlimited_and_display() {
        let mut vm = Vm::new(Model::Scan);
        assert_eq!(vm.limits(), VmLimits::default());
        vm.load("a", (0..128u64).collect());
        vm.run(&[Instr::PlusScan { dst: "s", src: "a" }]).unwrap();
        let e = VmError::StepBudgetExceeded { budget: 4, used: 9 };
        assert_eq!(
            e.to_string(),
            "step budget exceeded: 9 steps charged, budget 4"
        );
        let e = VmError::MemoryBudgetExceeded { cap: 2, used: 3 };
        assert_eq!(
            e.to_string(),
            "register memory cap exceeded: 3 words held, cap 2"
        );
        let e = VmError::Core(scan_core::Error::DuplicateIndex { index: 1 });
        assert!(e.to_string().contains("duplicate permute destination"));
    }

    #[test]
    fn step_counting_through_programs() {
        // The same program under two models: same registers, different
        // charges.
        let program = |model| {
            let mut vm = Vm::new(model);
            vm.load("keys", (0..256u64).rev().collect());
            for bit in 0..8 {
                vm.run(&radix_pass_program(bit)).unwrap();
            }
            (vm.get("keys").unwrap().to_vec(), vm.steps())
        };
        let (sorted_scan, steps_scan) = program(Model::Scan);
        let (sorted_erew, steps_erew) = program(Model::Erew);
        assert_eq!(sorted_scan, sorted_erew);
        assert_eq!(sorted_scan, (0..256u64).collect::<Vec<_>>());
        assert!(steps_erew > steps_scan);
    }
}
