//! Multi-timestep driver: owns the sliding-time-window ring of state
//! buffers (paper Figure 5) and dispatches each step to the selected
//! executor.

use std::borrow::Cow;

use crate::boundary::{self, Boundary};
use crate::grid::{Grid, Scalar};
use crate::tier::{ExecTier, TieredStencil};
use crate::{reference, spm, tiled};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::WindowPlan;
use msc_trace::{Counter, CounterSet, Profile};

/// Which execution strategy to use for each timestep.
#[derive(Debug, Clone)]
pub enum Executor {
    /// Naive serial loop nest.
    Reference,
    /// Tiled, multi-threaded, cache-based execution (Matrix/CPU style).
    Tiled(ExecPlan),
    /// Tiled execution staged through a bounded scratchpad with DMA
    /// (Sunway style). The capacity is the per-core SPM size.
    Spm { plan: ExecPlan, spm_capacity: usize },
}

/// Aggregate statistics of a run.
///
/// A thin view over the trace counter vocabulary: the driver accumulates
/// a [`CounterSet`] while stepping (the executors publish the same
/// numbers to the global tracer when tracing is enabled) and this struct
/// is projected out of it at the end via [`RunStats::from_counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    pub steps: usize,
    pub tiles_executed: u64,
    pub dma_get_bytes: u64,
    pub dma_put_bytes: u64,
    pub dma_rows: u64,
    pub spm_peak_bytes: usize,
    /// The full counter set the headline fields were projected from
    /// (also carries counters without a dedicated field, e.g. computed
    /// points).
    pub counters: CounterSet,
}

impl RunStats {
    /// Project the run-level fields out of a counter set.
    pub fn from_counters(c: &CounterSet) -> RunStats {
        RunStats {
            steps: c.get(Counter::Steps) as usize,
            tiles_executed: c.get(Counter::TilesExecuted),
            dma_get_bytes: c.get(Counter::DmaGetBytes),
            dma_put_bytes: c.get(Counter::DmaPutBytes),
            dma_rows: c.get(Counter::DmaRows),
            spm_peak_bytes: c.get(Counter::SpmPeakBytes) as usize,
            counters: *c,
        }
    }

    pub fn computed_points(&self) -> u64 {
        self.counters.get(Counter::ComputedPoints)
    }

    /// Chunk dispatches the VM tier performed (0 on other tiers).
    pub fn vm_dispatches(&self) -> u64 {
        self.counters.get(Counter::VmDispatches)
    }

    /// Rows the specialized tier executed (0 on other tiers).
    pub fn specialized_hits(&self) -> u64 {
        self.counters.get(Counter::SpecializedHits)
    }

    /// Wrap into a counters-only [`Profile`] for reporting.
    pub fn profile(&self, label: impl Into<String>) -> Profile {
        Profile::from_counters(label, self.counters)
    }
}

/// The sliding time window's state buffers (paper Figure 5).
///
/// Every slot starts out aliasing the seed, the boundary-applied initial
/// state: `init` itself under Dirichlet boundaries, one owned copy under
/// periodic ones. A slot gets its own buffer, a copy of the seed, only
/// when it is first written, so a Dirichlet run owns `window` grids, and
/// a run shorter than the window fewer.
pub(crate) struct WindowRing<'a, T: Clone> {
    plan: WindowPlan,
    max_dt: usize,
    seed: Cow<'a, Grid<T>>,
    /// `None`: the slot still holds the seed.
    slots: Vec<Option<Grid<T>>>,
}

impl<'a, T: Scalar> WindowRing<'a, T> {
    pub(crate) fn new(init: &'a Grid<T>, bc: Boundary, max_dt: usize) -> Result<Self> {
        let plan = WindowPlan::for_max_dt(max_dt)?;
        let seed = match bc {
            Boundary::Dirichlet => Cow::Borrowed(init),
            Boundary::Periodic => {
                let mut g = init.clone();
                boundary::apply(&mut g, bc);
                Cow::Owned(g)
            }
        };
        Ok(WindowRing {
            slots: (0..plan.window).map(|_| None).collect(),
            plan,
            max_dt,
            seed,
        })
    }

    /// Logical timestep that step `s` (counted from 0) computes.
    pub(crate) fn timestep(&self, s: usize) -> usize {
        self.max_dt + s
    }

    /// Take the buffer timestep `t` is written into: the slot's own
    /// buffer, or a fresh copy of the seed on the slot's first write.
    /// Return it with [`WindowRing::put`].
    pub(crate) fn take_output(&mut self, t: usize) -> Grid<T> {
        self.slots[self.plan.output_slot(t)]
            .take()
            .unwrap_or_else(|| self.seed.as_ref().clone())
    }

    /// The states `t - 1 ..= t - max_dt`, nearest first. The window is
    /// wider than `max_dt`, so none of them is `t`'s output slot.
    pub(crate) fn inputs(&self, t: usize) -> Vec<&Grid<T>> {
        (1..=self.max_dt).map(|dt| self.slot(t - dt)).collect()
    }

    /// Store the state computed for timestep `t`.
    pub(crate) fn put(&mut self, t: usize, out: Grid<T>) {
        self.slots[self.plan.output_slot(t)] = Some(out);
    }

    /// The state of timestep `t`, consuming the ring.
    pub(crate) fn into_state(mut self, t: usize) -> Grid<T> {
        match self.slots[self.plan.slot_of(t)].take() {
            Some(g) => g,
            None => self.seed.into_owned(),
        }
    }

    fn slot(&self, t: usize) -> &Grid<T> {
        self.slots[self.plan.slot_of(t)]
            .as_ref()
            .unwrap_or(self.seed.as_ref())
    }
}

/// Run `program.timesteps` updates starting from `init` (all window slots
/// cold-started with `init`), with Dirichlet boundaries (halos keep their
/// initial values). Returns the final state and run statistics.
pub fn run_program<T: Scalar>(
    program: &StencilProgram,
    executor: &Executor,
    init: &Grid<T>,
) -> Result<(Grid<T>, RunStats)> {
    run_program_tier(program, executor, init, Boundary::Dirichlet, ExecTier::Auto)
}

/// Like [`run_program`] with an explicit boundary condition and
/// execution tier: periodic runs re-wrap the halo of every freshly
/// computed state. The `Reference` executor always interprets (it is the
/// oracle the other tiers are differenced against), as does the SPM
/// executor (its tap lists are relinearized against tile-local layouts).
pub fn run_program_tier<T: Scalar>(
    program: &StencilProgram,
    executor: &Executor,
    init: &Grid<T>,
    boundary_cond: Boundary,
    tier: ExecTier,
) -> Result<(Grid<T>, RunStats)> {
    // Lint gate (target-independent passes): an unchecked-built program
    // with an insufficient halo or window must not reach the time loop —
    // or the bytecode compiler. Nothing below this line runs on a denied
    // program.
    msc_lint::check_deny(program, None)?;
    let tier = match executor {
        Executor::Reference | Executor::Spm { .. } => ExecTier::Interp,
        _ => tier,
    };
    let compiled = TieredStencil::compile(program, init, tier)?;
    let mut counters = CounterSet::new();
    // Compile time goes to the global tracer only: `RunStats` must stay
    // bit-identical between repeated runs, and wall-clock isn't.
    msc_trace::record(Counter::VmCompileNanos, compiled.compile_nanos);
    let mut ring = WindowRing::new(init, boundary_cond, compiled.max_dt)?;

    for s in 0..program.timesteps {
        let _step_span = msc_trace::span_arg("step", s as u64);
        let step_t0 = std::time::Instant::now();
        let t = ring.timestep(s);
        let mut out = ring.take_output(t);
        let inputs = ring.inputs(t);
        match executor {
            Executor::Reference => {
                reference::step(&compiled, &inputs, &mut out);
                counters.bump(Counter::TilesExecuted, 1);
                msc_trace::record(Counter::TilesExecuted, 1);
            }
            Executor::Tiled(plan) => {
                let tiles = tiled::step(&compiled, plan, &inputs, &mut out) as u64;
                counters.bump(Counter::TilesExecuted, tiles);
            }
            Executor::Spm { plan, spm_capacity } => {
                let s = spm::step(&compiled, plan, &inputs, &mut out, *spm_capacity)?;
                counters.merge(&s.counters());
            }
        }
        boundary::apply(&mut out, boundary_cond);
        ring.put(t, out);
        let (vm_d, spec_rows) = compiled.take_tier_counters();
        if vm_d > 0 {
            counters.bump(Counter::VmDispatches, vm_d);
            msc_trace::record(Counter::VmDispatches, vm_d);
        }
        if spec_rows > 0 {
            counters.bump(Counter::SpecializedHits, spec_rows);
            msc_trace::record(Counter::SpecializedHits, spec_rows);
        }
        counters.bump(Counter::Steps, 1);
        msc_trace::record(Counter::Steps, 1);
        let points: u64 = program.grid.shape.iter().product::<usize>() as u64;
        counters.bump(Counter::ComputedPoints, points);
        msc_trace::record(Counter::ComputedPoints, points);
        msc_trace::record_hist(
            msc_trace::Hist::StepWallNanos,
            step_t0.elapsed().as_nanos() as u64,
        );
    }

    let last = ring.timestep(program.timesteps) - 1;
    Ok((ring.into_state(last), RunStats::from_counters(&counters)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{max_rel_error, verify_against_reference};
    use msc_core::catalog::{all_benchmarks, benchmark, BenchmarkId};
    use msc_core::schedule::Schedule;

    fn tiled_plan(p: &StencilProgram, tile: &[usize], threads: usize) -> ExecPlan {
        let mut s = Schedule::default();
        s.tile(tile);
        s.parallel("xo", threads);
        ExecPlan::lower(&s, p.grid.ndim(), &p.grid.shape).unwrap()
    }

    #[test]
    fn multi_step_tiled_equals_reference_bitwise_fp64() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 12, 12], DType::F64, 6)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 77);
        let (a, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let plan = tiled_plan(&p, &[4, 6, 12], 4);
        let (b, st) = run_program(&p, &Executor::Tiled(plan), &init).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(st.steps, 6);
    }

    #[test]
    fn spm_execution_is_bit_identical_too() {
        let p = benchmark(BenchmarkId::S2d9ptStar)
            .program(&[20, 20], DType::F64, 5)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 123);
        let (a, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let plan = tiled_plan(&p, &[5, 10], 4);
        let (b, st) = run_program(
            &p,
            &Executor::Spm {
                plan,
                spm_capacity: 1 << 20,
            },
            &init,
        )
        .unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(st.dma_get_bytes > 0);
        assert!(st.spm_peak_bytes > 0);
    }

    /// The keep-everything scheme of paper Figure 5(b): one buffer per
    /// timestep, no ring, stepped by the serial interpreter.
    fn keep_everything<T: Scalar>(p: &StencilProgram, init: &Grid<T>, bc: Boundary) -> Grid<T> {
        let c = crate::CompiledStencil::compile(p, init).unwrap();
        let mut seed = init.clone();
        boundary::apply(&mut seed, bc);
        let mut states = vec![seed.clone(); c.max_dt];
        for _ in 0..p.timesteps {
            let mut out = seed.clone();
            let inputs: Vec<&Grid<T>> = states.iter().rev().take(c.max_dt).collect();
            reference::step(&c, &inputs, &mut out);
            boundary::apply(&mut out, bc);
            states.push(out);
        }
        states.pop().unwrap()
    }

    #[test]
    fn window_ring_matches_keep_everything_for_every_executor() {
        // Listing 1's t-1/t-2 combination: window 3. One step, fewer steps
        // than the window (slots still aliasing the seed) and more (every
        // slot recycled), under both boundary conditions.
        let b = benchmark(BenchmarkId::S2d9ptStar);
        let shape = [8, 10];
        for timesteps in [1, 2, 7] {
            let p = b.program(&shape, DType::F64, timesteps).unwrap();
            assert_eq!(p.stencil.max_dt(), 2);
            let plan = tiled_plan(&p, &[4, 5], 2);
            let executors = [
                Executor::Reference,
                Executor::Tiled(plan.clone()),
                Executor::Spm {
                    plan,
                    spm_capacity: 1 << 20,
                },
            ];
            for bc in [Boundary::Dirichlet, Boundary::Periodic] {
                let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 5);
                let before = init.clone();
                let oracle = keep_everything(&p, &init, bc);
                for exec in &executors {
                    for tier in [ExecTier::Interp, ExecTier::Auto] {
                        let (out, st) = run_program_tier(&p, exec, &init, bc, tier).unwrap();
                        assert_eq!(
                            out.as_slice(),
                            oracle.as_slice(),
                            "{exec:?} {bc:?} {tier:?} {timesteps} steps"
                        );
                        assert_eq!(st.steps, timesteps);
                    }
                }
                assert_eq!(init, before, "the run mutated init");
            }
        }
    }

    #[test]
    fn ring_aliases_the_seed_until_a_slot_is_written() {
        let mut init: Grid<f64> = Grid::random(&[5, 6], &[1, 1], 3);
        // A halo cell that a periodic wrap overwrites.
        init.as_mut_slice()[1] = -1.0;
        let before = init.clone();

        let ring = WindowRing::new(&init, Boundary::Dirichlet, 2).unwrap();
        let t = ring.timestep(0);
        assert!(ring.inputs(t).iter().all(|g| std::ptr::eq(*g, &init)));

        let mut ring = WindowRing::new(&init, Boundary::Periodic, 2).unwrap();
        let mut wrapped = init.clone();
        boundary::apply(&mut wrapped, Boundary::Periodic);
        assert_ne!(wrapped, init);
        let t = ring.timestep(0);
        for g in ring.inputs(t) {
            assert!(!std::ptr::eq(g, &init));
            assert_eq!(*g, wrapped, "inputs must see the wrapped seed");
        }
        // The first write takes a fresh copy of the wrapped seed, never
        // the seed itself.
        let mut out = ring.take_output(t);
        assert_eq!(out, wrapped);
        out.as_mut_slice().fill(7.0);
        ring.put(t, out);
        assert!(ring.inputs(t + 1)[0].as_slice().iter().all(|&v| v == 7.0));
        assert!(ring.into_state(t).as_slice().iter().all(|&v| v == 7.0));
        assert_eq!(init, before);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // the whole catalog is too slow under Miri
    fn paper_error_bounds_hold_for_all_benchmarks() {
        // §5.1: relative error < 1e-10 (fp64) and < 1e-5 (fp32) against
        // serial codes, over a multi-step run.
        for b in all_benchmarks() {
            let grid = b.test_grid();
            let p = b.program(&grid, DType::F64, 4).unwrap();
            let tile: Vec<usize> = grid.iter().map(|&g| (g / 2).max(1)).collect();
            let plan = tiled_plan(&p, &tile, 4);
            let e64 = verify_against_reference::<f64>(&p, &Executor::Tiled(plan.clone()), 5)
                .unwrap();
            assert!(e64 < 1e-10, "{}: fp64 err {e64}", b.name);
            let e32 =
                verify_against_reference::<f32>(&p, &Executor::Tiled(plan), 5).unwrap();
            assert!(e32 < 1e-5, "{}: fp32 err {e32}", b.name);
        }
    }

    #[test]
    fn explicit_tiers_are_bit_identical_and_counted() {
        let p = benchmark(BenchmarkId::S3d7ptStar)
            .program(&[12, 12, 12], DType::F64, 4)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 9);
        let plan = tiled_plan(&p, &[6, 6, 12], 2);
        let exec = Executor::Tiled(plan);
        let (oracle, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        let run = |tier| {
            run_program_tier(&p, &exec, &init, Boundary::Dirichlet, tier).unwrap()
        };
        let (gi, si) = run(ExecTier::Interp);
        let (gv, sv) = run(ExecTier::Vm);
        let (gs, ss) = run(ExecTier::Specialized);
        assert_eq!(gi.as_slice(), oracle.as_slice());
        assert_eq!(gv.as_slice(), oracle.as_slice());
        assert_eq!(gs.as_slice(), oracle.as_slice());
        assert_eq!(si.vm_dispatches(), 0);
        assert_eq!(si.specialized_hits(), 0);
        assert!(sv.vm_dispatches() > 0, "VM tier must count dispatches");
        assert_eq!(sv.specialized_hits(), 0);
        assert!(ss.specialized_hits() > 0, "specialized tier must count rows");
        assert_eq!(ss.vm_dispatches(), 0);
    }

    #[test]
    fn window_ring_differs_from_single_dependency() {
        // A two-dependency stencil must differ from the same kernel with a
        // single t-1 dependency after a few steps.
        let b = benchmark(BenchmarkId::S2d9ptBox);
        let p2 = b.program(&[16, 16], DType::F64, 4).unwrap();
        let p1 = StencilProgram::builder("single")
            .grid_2d("B", DType::F64, [16, 16], 1, 3)
            .kernel(b.kernel())
            .combine(&[(1, 1.0, b.name)])
            .timesteps(4)
            .build()
            .unwrap();
        let init: Grid<f64> = Grid::random(&p2.grid.shape, &p2.grid.halo, 31);
        let (a, _) = run_program(&p2, &Executor::Reference, &init).unwrap();
        let (b_, _) = run_program(&p1, &Executor::Reference, &init).unwrap();
        assert!(max_rel_error(&a, &b_) > 1e-6);
    }

    #[test]
    fn iterates_remain_bounded() {
        // Convex combination keeps values within the initial range.
        let p = benchmark(BenchmarkId::S3d13ptStar)
            .program(&[10, 10, 10], DType::F64, 20)
            .unwrap();
        let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 8);
        let (out, _) = run_program(&p, &Executor::Reference, &init).unwrap();
        out.for_each_interior(|pos| {
            let v = out.get(pos);
            assert!((0.0..=1.0).contains(&v), "unbounded at {pos:?}: {v}");
        });
    }
}
