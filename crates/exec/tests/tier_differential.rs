//! Differential test harness for the execution tiers (ISSUE 6 satellite):
//! every catalog benchmark runs the interpreter, the bytecode VM, and the
//! shape-specialized tier for several steps on random-seeded grids, and
//! the outputs must be **bit-identical** — same style as the pool
//! determinism suite, but across tiers instead of thread counts.
//!
//! The reference executor (serial interpreter) is the oracle; the tiled
//! interpreter run proves the tiling itself is exact, and the VM /
//! specialized runs prove each lowering preserves the interpreter's
//! evaluation order exactly (order of taps, order of terms, two-rounding
//! multiply-add). The specialized tier runs once per row ISA the host
//! supports: the baseline instantiation and, where detected, AVX2.

use msc_core::catalog::all_benchmarks;
use msc_core::prelude::*;
use msc_core::schedule::Schedule;
use msc_exec::specialized::{with_row_isa, RowIsa};
use msc_exec::{
    run_program, run_program_tier, Boundary, ExecTier, Executor, Grid, RunStats, Scalar,
};

const STEPS: usize = 4; // ≥ 3 per the issue; 4 exercises the ring twice

fn tiled_plan(p: &StencilProgram, threads: usize) -> Executor {
    let mut s = Schedule::default();
    let tile: Vec<usize> = p.grid.shape.iter().map(|&g| (g / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", threads);
    let plan = ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap();
    Executor::Tiled(plan)
}

fn run_tier<T: Scalar>(
    p: &StencilProgram,
    init: &Grid<T>,
    tier: ExecTier,
) -> (Grid<T>, RunStats) {
    run_program_tier(p, &tiled_plan(p, 4), init, Boundary::Dirichlet, tier).unwrap()
}

fn differential_catalog<T: Scalar>(seed: u64) {
    for isa in [RowIsa::Baseline, RowIsa::Avx2] {
        if with_row_isa(isa, || differential_catalog_on::<T>(seed, isa)).is_none() {
            println!("skipping {isa} rows: this host does not support {isa}");
        }
    }
}

fn differential_catalog_on<T: Scalar>(seed: u64, isa: RowIsa) {
    for b in all_benchmarks() {
        let p = b.program(&b.test_grid(), DType::F64, STEPS).unwrap();
        let init: Grid<T> = Grid::random(&p.grid.shape, &p.grid.halo, seed);
        let (oracle, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let (interp, si) = run_tier(&p, &init, ExecTier::Interp);
        let (vm, sv) = run_tier(&p, &init, ExecTier::Vm);
        let (spec, ss) = run_tier(&p, &init, ExecTier::Specialized);

        assert_eq!(
            interp.as_slice(),
            oracle.as_slice(),
            "{}: tiled interpreter differs from serial oracle",
            b.name
        );
        assert_eq!(
            vm.as_slice(),
            oracle.as_slice(),
            "{}: VM tier differs from interpreter",
            b.name
        );
        assert_eq!(
            spec.as_slice(),
            oracle.as_slice(),
            "{}: specialized tier ({isa} rows) differs from interpreter",
            b.name
        );

        // The counters must prove the requested tier actually ran.
        assert_eq!(si.vm_dispatches(), 0, "{}", b.name);
        assert_eq!(si.specialized_hits(), 0, "{}", b.name);
        assert!(sv.vm_dispatches() > 0, "{}: VM tier did not run", b.name);
        assert!(
            ss.specialized_hits() > 0,
            "{}: specialized tier did not run",
            b.name
        );
    }
}

#[test]
#[cfg_attr(miri, ignore)] // full catalog × 3 tiers × 4 steps is too slow under Miri
fn all_tiers_bit_identical_across_catalog_f64() {
    differential_catalog::<f64>(20260808);
}

#[test]
#[cfg_attr(miri, ignore)]
fn all_tiers_bit_identical_across_catalog_f32() {
    differential_catalog::<f32>(4242);
}

#[test]
#[cfg_attr(miri, ignore)]
fn auto_tier_matches_oracle_with_periodic_boundaries() {
    // Auto (the default everywhere) through a different boundary
    // condition, proving tier selection composes with halo rewrap.
    for b in all_benchmarks() {
        let p = b.program(&b.test_grid(), DType::F64, STEPS).unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 99);
        let (oracle, _) = run_program_tier(
            &p,
            &Executor::Reference,
            &init,
            Boundary::Periodic,
            ExecTier::Auto,
        )
        .unwrap();
        let (auto, stats) =
            run_program_tier(&p, &tiled_plan(&p, 4), &init, Boundary::Periodic, ExecTier::Auto)
                .unwrap();
        assert_eq!(auto.as_slice(), oracle.as_slice(), "{}", b.name);
        assert!(
            stats.specialized_hits() > 0,
            "{}: Auto should pick the specialized tier for catalog shapes",
            b.name
        );
    }
}
