//! One kernel body, compiled for two instruction sets.
//!
//! The release build targets x86-64 baseline, whose packed arithmetic is
//! SSE2: two `f64` per instruction. Every x86-64 CPU of the last decade also
//! has AVX2, four `f64` per instruction. [`isa_twins!`](crate::isa_twins)
//! compiles a hot kernel twice — once for the baseline, once with AVX2
//! enabled — and picks the twin on every call from the CPU's feature bits,
//! so the binary stays portable and a host with AVX2 runs the wide one.
//!
//! Only `avx2` is enabled, never `fma`. Rust never fuses a multiply and an
//! add on its own, and IEEE-754 `add`, `sub`, `mul`, `div`, `sqrt` and
//! `max` round the same at every vector width, so both twins compute every
//! value bit for bit alike: the choice shows in the time and nowhere else.
//!
//! A twin runs AVX2 only in the code compiled *into* it: a function it calls
//! and the code generator does not inline runs as the baseline compiled it
//! (a closure trampoline around a pass gains nothing), and one that both
//! twins call has two callers, which is often what stops the inlining. So
//! each twin is a copy of the kernel's own text, with the kernel's slices
//! as its own parameters — which keeps the no-overlap guarantee the row
//! passes rely on (see the `rows` module) — and the hot loops must be in
//! that text or in `#[inline(always)]` helpers it calls.

/// Whether this CPU runs the AVX2 twins: `true` on an x86 CPU that reports
/// AVX2, `false` everywhere else.
#[inline]
pub fn avx2_detected() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// Defines a kernel function whose body is compiled twice — for the
/// target's baseline instruction set and with AVX2 — and which runs the
/// AVX2 twin when [`avx2_detected`] and the baseline
/// twin otherwise.
///
/// Beside the function `name` it defines a module `name` whose
/// `name::baseline(..)` is the baseline twin, so that a test can hold the
/// two to the same bits (on an AVX2 host `name(..)` is the other twin).
/// Parameters are plain `ident: Type` (no `self`, no generics); the body
/// sees the enclosing module's names. The function is `#[inline]` and each
/// twin `#[inline(never)]`, so leave inline attributes out; other attributes
/// (docs, lint allowances) apply to all three.
///
/// ```
/// paraspace_linalg::isa_twins! {
///     /// `out ← a·x + y`, element by element.
///     fn axpy(a: f64, x: &[f64], y: &[f64], out: &mut [f64]) {
///         for ((out, &x), &y) in out.iter_mut().zip(x).zip(y) {
///             *out = a * x + y;
///         }
///     }
/// }
///
/// let (x, y) = ([1.0, 2.0, 3.0], [0.5; 3]);
/// let (mut out, mut baseline) = ([0.0; 3], [0.0; 3]);
/// axpy(2.0, &x, &y, &mut out);
/// axpy::baseline(2.0, &x, &y, &mut baseline);
/// assert_eq!(out, [2.5, 4.5, 6.5]);
/// assert_eq!(out, baseline);
/// ```
#[macro_export]
macro_rules! isa_twins {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $crate::isa_twins! {
            $(#[$attr])*
            $vis fn $name($($arg: $ty),*) -> () $body
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty $body:block
    ) => {
        $(#[$attr])*
        #[inline]
        $vis fn $name($($arg: $ty),*) -> $ret {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            if $crate::avx2_detected() {
                // SAFETY: the AVX2 twin is compiled for AVX2 and nothing
                // else, and the CPU has just reported that it has AVX2.
                return unsafe { $name::avx2($($arg),*) };
            }
            $name::baseline($($arg),*)
        }

        #[doc = concat!("The two compiled twins of [`", stringify!($name), "()`].")]
        $vis mod $name {
            #[allow(unused_imports)]
            use super::*;

            $(#[$attr])*
            #[inline(never)]
            pub fn baseline($($arg: $ty),*) -> $ret $body

            $(#[$attr])*
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            #[target_feature(enable = "avx2")]
            #[inline(never)]
            pub(super) fn avx2($($arg: $ty),*) -> $ret $body
        }
    };
}
