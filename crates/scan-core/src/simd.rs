//! ISA dispatch and the line stores of `multi_split`'s staged scatter.
//!
//! This is the **only** module in the workspace allowed to mention
//! `is_x86_feature_detected!` or `cfg(target_feature)` (enforced by
//! `cargo xtask lint`, rule `simd-confinement`): every ISA-specific
//! path in the crate goes through the dispatch decision made here, and
//! everything outside this module stays ISA-agnostic.
//!
//! # Dispatch
//!
//! The ISA is detected once (cached in an atomic): AVX2 on `x86_64`
//! when the CPU reports it, scalar otherwise. `SCAN_CORE_SIMD=0` (or
//! `off`) in the environment pins [`Isa::Scalar`]. Scans, reductions,
//! segmented scans and flag counts run the engine's one scalar loop
//! under either answer; the pin changes only the line stores below.
//!
//! # Line stores
//!
//! `copy_line` and `line_fence` serve `multi_split`'s staged scatter:
//! one 64-byte line written with non-temporal stores, and the `sfence`
//! that must follow them. `stream_lines` is false under the scalar
//! pin, on non-`x86_64` targets and under Miri, where `copy_line` is a
//! plain copy.

use crate::sync::ConfigCell;

/// The instruction set the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// No vector ISA, or `SCAN_CORE_SIMD=0`: plain line stores.
    Scalar,
    /// AVX2 reported by the CPU: line stores may stream.
    Avx2,
}

impl Isa {
    /// Short name for logs and bench metadata.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

const ISA_UNKNOWN: usize = 0;
const ISA_SCALAR: usize = 1;
const ISA_AVX2: usize = 2;

/// Cached dispatch decision; 0 = not yet detected.
static ACTIVE: ConfigCell = ConfigCell::new(ISA_UNKNOWN);

/// The ISA the dispatcher selected, detecting and caching it on first
/// call. Honors `SCAN_CORE_SIMD=0`/`off` (scalar pin).
pub fn active_isa() -> Isa {
    match ACTIVE.get() {
        ISA_SCALAR => Isa::Scalar,
        ISA_AVX2 => Isa::Avx2,
        _ => {
            let isa = detect();
            let enc = match isa {
                Isa::Scalar => ISA_SCALAR,
                Isa::Avx2 => ISA_AVX2,
            };
            ACTIVE.set(enc);
            isa
        }
    }
}

/// Force the dispatch decision (benches and tests): `Some(Isa::Scalar)`
/// pins the plain line stores, `Some(Isa::Avx2)` the streamed ones,
/// `None` re-detects on the next [`active_isa`] call.
#[doc(hidden)]
pub fn set_isa_override(isa: Option<Isa>) {
    let enc = match isa {
        None => ISA_UNKNOWN,
        Some(Isa::Scalar) => ISA_SCALAR,
        Some(Isa::Avx2) => ISA_AVX2,
    };
    ACTIVE.set(enc);
}

fn detect() -> Isa {
    if matches!(
        std::env::var("SCAN_CORE_SIMD").as_deref().map(str::trim),
        Ok("0") | Ok("off") | Ok("OFF")
    ) {
        return Isa::Scalar;
    }
    detect_hw()
}

#[cfg(target_arch = "x86_64")]
fn detect_hw() -> Isa {
    if std::arch::is_x86_feature_detected!("avx2") {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_hw() -> Isa {
    Isa::Scalar
}

// ---------------------------------------------------------------------------
// Line stores for `multi_split`'s staged scatter.
// ---------------------------------------------------------------------------

/// Bytes in one staged output line: the cache line of every target the
/// crate tunes for.
pub(crate) const LINE: usize = 64;

/// Whether `multi_split`'s line copies may bypass the cache: on
/// `x86_64` outside Miri, when the dispatcher selected AVX2
/// (`SCAN_CORE_SIMD=0` pins the plain copy). Streaming stores are SSE2,
/// baseline on `x86_64`.
pub fn stream_lines() -> bool {
    cfg!(all(target_arch = "x86_64", not(miri))) && active_isa() == Isa::Avx2
}

/// Copy one [`LINE`]-byte line from `src` to `dst`. With `stream`, the
/// stores are non-temporal: they skip the read for ownership of `dst`'s
/// line, which a plain store of a line not in cache pays first.
///
/// # Safety
/// `src` and `dst` are valid for [`LINE`] bytes, 64-byte aligned, and
/// do not overlap. A thread that passes `stream = true` must call
/// [`line_fence`] before it or any other thread next accesses `dst`.
// SAFETY: callers keep the contract above; the blocks below cite it.
#[inline]
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(unused_variables))]
pub(crate) unsafe fn copy_line(dst: *mut u8, src: *const u8, stream: bool) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if stream {
        // SAFETY: the caller guarantees both ranges are valid, 64-byte
        // aligned (`movdqa` and `movntdq` need 16) and disjoint. The
        // block copies bytes as `memcpy` does: a staged line may hold
        // an element's padding, which an intrinsic load into an
        // integer vector would read as an uninitialized integer.
        unsafe {
            core::arch::asm!(
                "movdqa {a}, xmmword ptr [{src}]",
                "movdqa {b}, xmmword ptr [{src} + 16]",
                "movdqa {c}, xmmword ptr [{src} + 32]",
                "movdqa {d}, xmmword ptr [{src} + 48]",
                "movntdq xmmword ptr [{dst}], {a}",
                "movntdq xmmword ptr [{dst} + 16], {b}",
                "movntdq xmmword ptr [{dst} + 32], {c}",
                "movntdq xmmword ptr [{dst} + 48], {d}",
                src = in(reg) src,
                dst = in(reg) dst,
                a = out(xmm_reg) _,
                b = out(xmm_reg) _,
                c = out(xmm_reg) _,
                d = out(xmm_reg) _,
                options(nostack, preserves_flags),
            );
        }
        return;
    }
    // SAFETY: the caller guarantees both ranges are valid and disjoint.
    unsafe { core::ptr::copy_nonoverlapping(src, dst, LINE) };
}

/// The `sfence` that orders this thread's streaming [`copy_line`]
/// stores before its later stores, such as the pool's completion
/// signal. Rust's `core::arch` docs require it before any other access
/// to streamed memory. A no-op when `stream` is false.
#[inline]
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(unused_variables))]
pub(crate) fn line_fence(stream: bool) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if stream {
        // SAFETY: `sfence` has no operands and touches no memory; it
        // only orders this thread's earlier stores. It is left without
        // `nomem`, so the compiler keeps memory accesses on their side.
        unsafe { core::arch::asm!("sfence", options(nostack, preserves_flags)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_cached_and_overridable() {
        let first = active_isa();
        assert_eq!(active_isa(), first, "detection must be stable");
        set_isa_override(Some(Isa::Scalar));
        assert_eq!(active_isa(), Isa::Scalar);
        assert!(!stream_lines(), "scalar pin must keep line stores plain");
        set_isa_override(None);
        assert_eq!(active_isa(), first);
    }
}
