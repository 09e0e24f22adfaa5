//! Shape-specialized inner loops: monomorphized row kernels for the
//! common star/box stencils.
//!
//! The VM tier amortizes dispatch, but still walks a generic instruction
//! list. For stencils whose per-term tap count is one of a fixed menu of
//! shapes (every catalog benchmark qualifies), we can do better: a
//! const-generic row kernel `accum_row::<T, NT>` where the tap count is a
//! compile-time constant, so the tap loop fully unrolls and the remaining
//! unit-stride point loop is exactly the shape LLVM auto-vectorizes. Each
//! tap's row is pre-sliced to the output length, which both removes the
//! bounds checks from the hot loop and proves the accesses disjoint
//! enough to vectorize.
//!
//! Evaluation order is the interpreter's, term by term:
//! `acc = acc + coeff * src[..]` from zero, then `out += weight * acc` —
//! so the tier is bit-identical to `CompiledStencil::apply_at`.
//!
//! Each kernel comes in two instantiations of the same body: the
//! baseline one (SSE2 on x86-64) and, on hosts where runtime detection
//! finds AVX2, one compiled with `avx2` enabled. Only `avx2` is enabled,
//! never `fma`, and Rust never contracts a multiply and an add into one
//! fused operation, so the wider vectors do the same per-lane operations
//! in the same order and the AVX2 rows are bit-identical too. Calling the
//! AVX2 instantiation is this module's one `unsafe` site.

use std::cell::Cell;
use std::fmt;

use crate::compiled::CompiledStencil;
use crate::grid::Scalar;

/// A monomorphized row kernel: accumulate one term's weighted tap sum
/// into `out` for a unit-stride row starting at flat index `base`.
pub type RowFn<T> = fn(&[(isize, T)], T, &[T], usize, &mut [T]);

/// Define a row kernel `$name::<T, NT>` with the given attributes. Each
/// use expands the same body with its own closures, so no helper
/// instance is shared between the baseline and the AVX2 kernels and the
/// compiler inlines and vectorizes each on its own.
macro_rules! row_kernel {
    ($(#[$attr:meta])* $name:ident) => {
        $(#[$attr])*
        fn $name<T: Scalar, const NT: usize>(
            taps: &[(isize, T)],
            weight: T,
            src: &[T],
            base: usize,
            out: &mut [T],
        ) {
            debug_assert_eq!(taps.len(), NT);
            let n = out.len();
            // One exact-length slice per tap: `rows[k][i]` is the value of
            // tap `k` at output point `i`. Fixed-size arrays keep the tap
            // loop unrollable.
            let rows: [&[T]; NT] = std::array::from_fn(|k| {
                let start = (base as isize + taps[k].0) as usize;
                &src[start..start + n]
            });
            let coeffs: [T; NT] = std::array::from_fn(|k| taps[k].1);
            for i in 0..n {
                let mut acc = T::default();
                for k in 0..NT {
                    acc = acc + coeffs[k] * rows[k][i];
                }
                out[i] = out[i] + weight * acc;
            }
        }
    };
}

row_kernel!(accum_row);

// Inlined into the AVX2 instantiation below. Its closures must carry no
// target features themselves, or they would not inline into
// `std::array::from_fn` and the tap loop would not vectorize.
#[cfg(target_arch = "x86_64")]
row_kernel!(
    #[inline(always)]
    accum_row_inlined
);

/// `accum_row` compiled with AVX2 enabled, behind a safe signature.
#[cfg(target_arch = "x86_64")]
fn accum_row_avx2<T: Scalar, const NT: usize>(
    taps: &[(isize, T)],
    weight: T,
    src: &[T],
    base: usize,
    out: &mut [T],
) {
    #[target_feature(enable = "avx2")]
    fn avx2<T: Scalar, const NT: usize>(
        taps: &[(isize, T)],
        weight: T,
        src: &[T],
        base: usize,
        out: &mut [T],
    ) {
        accum_row_inlined::<T, NT>(taps, weight, src, base, out)
    }
    // SAFETY: the only way to reach this function is through
    // `row_fn_for(_, RowIsa::Avx2)`, which asserts
    // `RowIsa::Avx2.is_available()`, i.e. that
    // `is_x86_feature_detected!("avx2")` holds on this host.
    unsafe { avx2::<T, NT>(taps, weight, src, base, out) }
}

/// The instruction set a specialized row kernel was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowIsa {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// x86-64 AVX2 (256-bit vectors), chosen only after runtime detection.
    Avx2,
}

impl RowIsa {
    /// Whether this host can run rows compiled for `self`.
    pub fn is_available(self) -> bool {
        match self {
            RowIsa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            RowIsa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            RowIsa::Avx2 => false,
        }
    }
}

impl fmt::Display for RowIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RowIsa::Baseline => "baseline",
            RowIsa::Avx2 => "avx2",
        })
    }
}

thread_local! {
    static FORCED_ISA: Cell<Option<RowIsa>> = const { Cell::new(None) };
}

/// The row ISA specialized stencils built on this thread use: the widest
/// the host supports, unless [`with_row_isa`] pins one.
pub fn row_isa() -> RowIsa {
    FORCED_ISA.get().unwrap_or(if RowIsa::Avx2.is_available() {
        RowIsa::Avx2
    } else {
        RowIsa::Baseline
    })
}

/// Run `f` with the row ISA of specialized stencils built on this thread
/// pinned to `isa`, so tests can difference both instantiations on one
/// host. `None` when the host cannot run `isa`.
#[doc(hidden)]
pub fn with_row_isa<R>(isa: RowIsa, f: impl FnOnce() -> R) -> Option<R> {
    if !isa.is_available() {
        return None;
    }
    let prev = FORCED_ISA.replace(Some(isa));
    let r = f();
    FORCED_ISA.set(prev);
    Some(r)
}

/// The supported tap counts. Covers stars and boxes through radius 4 in
/// 1D/2D and the full benchmark catalog (7, 9, 13, 27, 31, 121, 169, ...);
/// anything else falls back to the VM tier. Panics if this host cannot
/// run `isa` (see [`RowIsa::is_available`]).
pub(crate) fn row_fn_for<T: Scalar>(n_taps: usize, isa: RowIsa) -> Option<RowFn<T>> {
    // The AVX2 kernels' soundness rests on this check.
    assert!(
        isa.is_available(),
        "{isa} rows requested on a host without {isa}"
    );
    macro_rules! shapes {
        ($($nt:literal),+) => {
            match (isa, n_taps) {
                $( (RowIsa::Baseline, $nt) => Some(accum_row::<T, $nt> as RowFn<T>), )+
                $(
                    #[cfg(target_arch = "x86_64")]
                    (RowIsa::Avx2, $nt) => Some(accum_row_avx2::<T, $nt> as RowFn<T>),
                )+
                _ => None,
            }
        };
    }
    shapes!(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 17, 21, 25, 27, 31, 33, 49, 121, 125, 169)
}

struct SpecTerm<T> {
    dt: usize,
    weight: T,
    taps: Vec<(isize, T)>,
    row_fn: RowFn<T>,
}

/// A stencil where every term has a monomorphized row kernel.
pub struct SpecializedStencil<T> {
    terms: Vec<SpecTerm<T>>,
}

impl<T: Scalar> SpecializedStencil<T> {
    /// `None` when any term's tap count has no specialized shape — the
    /// caller then stays on the VM tier.
    pub fn try_from_compiled(c: &CompiledStencil<T>) -> Option<SpecializedStencil<T>> {
        let isa = row_isa();
        let mut terms = Vec::with_capacity(c.terms.len());
        for t in &c.terms {
            terms.push(SpecTerm {
                dt: t.dt,
                weight: t.weight,
                taps: t.taps.clone(),
                row_fn: row_fn_for::<T>(t.taps.len(), isa)?,
            });
        }
        Some(SpecializedStencil { terms })
    }

    /// Evaluate a unit-stride row: `out[i]` gets the update of the point
    /// at flat index `base + i`. Bit-identical to calling
    /// `CompiledStencil::apply_at` per point.
    pub fn run_row(&self, states: &[&[T]], base: usize, out: &mut [T]) {
        for o in out.iter_mut() {
            *o = T::default();
        }
        for term in &self.terms {
            (term.row_fn)(&term.taps, term.weight, states[term.dt - 1], base, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use msc_core::catalog::{benchmark, BenchmarkId};
    use msc_core::prelude::*;

    #[test]
    fn all_catalog_shapes_have_a_row_fn() {
        for b in all_benchmarks() {
            let p = b.program(&b.test_grid(), DType::F64, 2).unwrap();
            let g: Grid<f64> = Grid::for_tensor(&p.grid);
            let c = CompiledStencil::compile(&p, &g).unwrap();
            assert!(
                SpecializedStencil::try_from_compiled(&c).is_some(),
                "no specialized shape for {}",
                b.name
            );
        }
    }

    #[test]
    fn unsupported_tap_count_falls_back() {
        let isa = row_isa();
        assert!(row_fn_for::<f64>(10, isa).is_none());
        assert!(row_fn_for::<f64>(0, isa).is_none());
        assert!(row_fn_for::<f64>(7, isa).is_some());
    }

    fn rows_match_apply_at<T: Scalar>(isa: RowIsa) {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 10, 16], DType::F64, 2)
            .unwrap();
        let a: Grid<T> = Grid::random(&p.grid.shape, &p.grid.halo, 41);
        let b: Grid<T> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
        let c = CompiledStencil::compile(&p, &a).unwrap();
        let spec = with_row_isa(isa, || SpecializedStencil::try_from_compiled(&c))
            .expect("isa available")
            .unwrap();
        let states = [a.as_slice(), b.as_slice()];
        let base = a.layout().index(&[5, 4, 0]);
        let mut row = vec![T::default(); 16];
        spec.run_row(&states, base, &mut row);
        for (i, &got) in row.iter().enumerate() {
            let want = c.apply_at(&states, base + i);
            assert_eq!(
                got.to_f64().to_bits(),
                want.to_f64().to_bits(),
                "{isa} point {i}"
            );
        }
    }

    #[test]
    fn rows_are_bit_identical_to_apply_at() {
        for isa in [RowIsa::Baseline, RowIsa::Avx2] {
            if isa.is_available() {
                rows_match_apply_at::<f64>(isa);
                rows_match_apply_at::<f32>(isa);
            }
        }
    }

    #[test]
    fn pinned_isa_is_scoped_and_checked() {
        let detected = row_isa();
        assert_eq!(
            with_row_isa(RowIsa::Baseline, row_isa),
            Some(RowIsa::Baseline)
        );
        assert_eq!(row_isa(), detected);
        let avx2 = with_row_isa(RowIsa::Avx2, row_isa);
        assert_eq!(avx2.is_some(), RowIsa::Avx2.is_available());
        assert_eq!(row_isa(), detected);
    }
}
