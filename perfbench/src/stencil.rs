//! `sweep3d` and `halo3d`: the compile-and-run path of `mscc file.msc
//! --run` (single process) and `mscc file.msc --procs ...` (distributed),
//! driven in-process through each layer's public entry point.
//!
//! One repetition is the user's pipeline: parse → lint → plan → run →
//! verify → codegen. As in the CLI, the verify step runs the serial
//! interpreter oracle (`Executor::Reference`) on the same input every
//! repetition and compares the grids bit for bit, so `pipeline_s` pays
//! for it and `mpts_per_s` (the compute call alone) does not.

use std::sync::Arc;
use std::time::Instant;

use msc_comm::{build_decomp, run_distributed_opts, HaloExchange, RunOptions};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::prelude::*;
use msc_core::schedule::Target;
use msc_exec::driver::Executor;
use msc_exec::{run_program, Boundary, ExecTier, Grid, TieredStencil};
use msc_trace::{Counter, CounterSet, Hist, HistSet, TelemetryHub};

use crate::metrics::{lower_quartile, median, quantile, Values};
use crate::spans::Tracer;
use crate::{host, Budget, Outcome, Workload};

/// Shape of one stencil workload.
#[derive(Debug, Clone)]
pub struct StencilSpec {
    pub workload: Workload,
    pub shape: Vec<usize>,
    pub steps: usize,
    /// Tile factors of the (per-rank) execution plan.
    pub tile: Vec<usize>,
    /// Plan workers per process.
    pub width: usize,
    /// Process grid of a distributed run; `None` runs one process.
    pub procs: Option<Vec<usize>>,
}

impl StencilSpec {
    /// The paper's Listing 1 (3D 7-point star, two time dependencies,
    /// f64) on a 160³ grid: about 100 MiB of live state, far beyond the
    /// per-core L2, so the sweep is memory-bound. One process, a tiled
    /// plan `nproc` wide.
    pub fn sweep3d() -> StencilSpec {
        StencilSpec {
            workload: Workload::Sweep3d,
            shape: vec![160, 160, 160],
            steps: 10,
            tile: vec![16, 16, 160],
            width: host::nproc(),
            procs: None,
        }
    }

    /// The catalog's 3D 25-point star (reach 4) on a 16x40x40 grid over
    /// 2x1x1 ranks with one worker each. Each rank's 8x40x40 subdomain
    /// stays in its core's L2; with reach 4 it splits into one boundary
    /// and one interior tile, so the overlapped exchange runs every step.
    pub fn halo3d() -> StencilSpec {
        StencilSpec {
            workload: Workload::Halo3d,
            shape: vec![16, 40, 40],
            steps: 200,
            tile: vec![4, 40, 40],
            width: 1,
            procs: Some(vec![2, 1, 1]),
        }
    }

    /// Threads busy while the compute call runs: ranks × plan width.
    pub fn busy_threads(&self) -> usize {
        self.procs.as_ref().map_or(1, |p| p.iter().product()) * self.width
    }

    fn schedule(&self) -> Schedule {
        let mut s = Schedule::default();
        s.tile(&self.tile);
        s.parallel("xo", self.width);
        s
    }

    /// The `.msc` source the pipeline parses every repetition.
    pub fn source(&self) -> Result<String, String> {
        let program = match self.workload {
            Workload::Sweep3d => {
                let s = &self.shape;
                let t = &self.tile;
                return Ok(format!(
                    "stencil listing1 {{
    grid B: f64[{}, {}, {}] halo 1 window 3;
    kernel S = 0.4*B[0,0,0]
             + 0.1*B[-1,0,0] + 0.1*B[1,0,0]
             + 0.1*B[0,-1,0] + 0.1*B[0,1,0]
             + 0.1*B[0,0,-1] + 0.1*B[0,0,1];
    combine res[t] = 0.6*S[t-1] + 0.4*S[t-2];
    schedule {{
        tile {} {} {};
        reorder xo yo zo xi yi zi;
        parallel xo {};
    }}
    run {};
    target cpu;
}}
",
                    s[0], s[1], s[2], t[0], t[1], t[2], self.width, self.steps
                ));
            }
            _ => {
                let mut p = benchmark(BenchmarkId::S3d25ptStar)
                    .program(&self.shape, DType::F64, self.steps)
                    .map_err(|e| e.to_string())?;
                for k in &mut p.stencil.kernels {
                    k.schedule = self.schedule();
                }
                p
            }
        };
        Ok(msc_core::parse::to_msc_source(&program, Some(Target::Cpu)))
    }
}

enum Plan {
    Tiled(ExecPlan),
    Distributed {
        plan: ExecPlan,
        exchanger: HaloExchange,
    },
}

/// What one compute call reported.
struct RunCounts {
    /// Counters the result carries (`RunStats` / `CommStats`).
    counters: CounterSet,
    /// Histograms the result carries (`CommStats` only).
    hists: HistSet,
    steps: usize,
}

/// Per-repetition timings and counts.
struct Rep {
    traced: bool,
    pipeline_s: f64,
    parse_s: f64,
    lint_s: f64,
    plan_s: f64,
    compute_s: f64,
    verify_s: f64,
    emit_s: f64,
    points: u64,
    loc: u64,
    counters: CounterSet,
    hists: HistSet,
    /// The traced repetition's telemetry-hub counters and histograms.
    hub: Option<(CounterSet, HistSet)>,
}

const SETUP_REPEATS: usize = 9;

/// Run one stencil workload. In trace mode every other repetition is
/// traced (program telemetry hub on, benchmark spans recorded); the
/// untraced ones give the end-to-end figures and the tracing overhead.
pub fn run(
    spec: &StencilSpec,
    seed: u64,
    budget: Budget,
    trace: bool,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    host::check_thread_budget(spec.workload.name(), spec.busy_threads())?;
    let source = spec.source()?;
    let mut out = Outcome::default();

    // Set-up: parse + lint + plan + tier compile + grid initialisation,
    // repeated; the median is reported.
    let mut setup = Vec::new();
    let mut tier_compile = Vec::new();
    let mut init = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let program = parse_and_lint(&source)?;
        plan(spec, &program)?;
        let grid: Grid<f64> = Grid::random(&program.grid.shape, &program.grid.halo, seed);
        let t1 = Instant::now();
        TieredStencil::compile(&program, &grid, ExecTier::Auto).map_err(|e| e.to_string())?;
        tier_compile.push(t1.elapsed().as_secs_f64());
        setup.push(t0.elapsed().as_secs_f64());
        init = Some((program, grid));
    }
    let (program, init) = init.expect("at least one set-up repetition");

    let start = Instant::now();
    let mut reps = Vec::new();
    while budget.more(reps.len(), start) {
        let traced = trace && reps.len() % 2 == 1;
        let rep = pipeline(spec, &source, &init, reps.len() as u64, traced, tracer);
        out.check(rep.is_ok(), || {
            rep.as_ref().err().cloned().unwrap_or_default()
        });
        reps.push(rep);
    }
    let wall = start.elapsed().as_secs_f64();

    let ok = |traced: bool| reps.iter().flatten().filter(move |r| r.traced == traced);
    let plain: Vec<&Rep> = ok(false).collect();
    let traced: Vec<&Rep> = ok(true).collect();
    let med =
        |rs: &[&Rep], f: fn(&Rep) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());

    let v: &mut Values = &mut out.values;
    v.insert("setup_s", median(&setup));
    let low = |f: fn(&Rep) -> f64| lower_quartile(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    v.insert("pipeline_s", low(|r| r.pipeline_s));
    v.insert(
        "mpts_per_s",
        plain.first().map_or(0.0, |r| r.points as f64) / low(|r| r.compute_s) / 1e6,
    );
    // One caller runs pipelines back to back: its throughput is the
    // reciprocal of the pipeline wall.
    v.insert("jobs_per_s", 1.0 / v["pipeline_s"]);
    v.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));

    let stats =
        StencilStats::of(&program.stencil, program.grid.dtype).map_err(|e| e.to_string())?;
    // Computed, not measured: compulsory traffic of one point update —
    // one load per live input state plus one store.
    let bytes_per_point = ((stats.time_deps + 1) * program.grid.dtype.size_bytes()) as f64;
    v.insert("exec.bytes_per_point", bytes_per_point);
    v.insert(
        "exec.achieved_gbs",
        v["mpts_per_s"] * 1e6 * bytes_per_point / 1e9,
    );
    v.insert("exec.tier_compile_ms", median(&tier_compile) * 1e3);
    v.insert("host.busy_threads", spec.busy_threads() as f64);

    if let Some(last) = traced.last() {
        layer_values(spec, &program, &traced, last, v);
        let overhead = med(&traced, |r| r.pipeline_s) / med(&plain, |r| r.pipeline_s) - 1.0;
        v.insert("trace.overhead_pct", 100.0 * overhead);
    }
    out.notes.push(format!(
        "{}: {} repetition(s) in {wall:.1} s ({} traced), grid {:?} x {} steps, {} busy thread(s)",
        spec.workload.name(),
        reps.len(),
        traced.len(),
        spec.shape,
        spec.steps,
        spec.busy_threads()
    ));
    let compute: Vec<f64> = plain.iter().map(|r| r.compute_s * 1e3).collect();
    out.notes.push(format!(
        "untraced compute call ms: min {:.1} p25 {:.1} p50 {:.1} p75 {:.1} max {:.1} (n={})",
        quantile(&compute, 0.0),
        quantile(&compute, 0.25),
        quantile(&compute, 0.5),
        quantile(&compute, 0.75),
        quantile(&compute, 1.0),
        compute.len()
    ));
    Ok(out)
}

/// Per-layer values from the traced repetitions.
fn layer_values(
    spec: &StencilSpec,
    program: &StencilProgram,
    traced: &[&Rep],
    last: &Rep,
    v: &mut Values,
) {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let hub = |r: &Rep, c: Counter| r.hub.as_ref().map_or(0, |(cs, _)| cs.get(c)) as f64;
    let hub_hist = |r: &Rep, h: Hist| r.hub.as_ref().map(|(_, hs)| *hs.get(h)).unwrap_or_default();

    v.insert("core.parse_ms", med(&|r| r.parse_s) * 1e3);
    v.insert("core.plan_ms", med(&|r| r.plan_s) * 1e3);
    v.insert("lint.lint_ms", med(&|r| r.lint_s) * 1e3);
    v.insert("exec.compute_s", med(&|r| r.compute_s));
    v.insert("exec.verify_s", med(&|r| r.verify_s));
    v.insert("codegen.emit_ms", med(&|r| r.emit_s) * 1e3);
    v.insert("codegen.loc", last.loc as f64);
    v.insert("exec.computed_points", last.points as f64);
    v.insert(
        "exec.specialized_hits",
        last.counters.get(Counter::SpecializedHits) as f64,
    );
    v.insert(
        "exec.vm_dispatches",
        last.counters.get(Counter::VmDispatches) as f64,
    );
    v.insert(
        "exec.vm_compile_ms",
        med(&|r| hub(r, Counter::VmCompileNanos)) / 1e6,
    );
    v.insert("exec.pool_steals", med(&|r| hub(r, Counter::PoolSteals)));
    v.insert("exec.pool_parks", med(&|r| hub(r, Counter::PoolParks)));
    let workers = spec.busy_threads() as f64;
    v.insert(
        "exec.barrier_wait_share",
        med(&|r| hub(r, Counter::BarrierWaitNanos) / (r.compute_s * 1e9 * workers)),
    );
    let step = |r: &Rep, q: f64| hub_hist(r, Hist::StepWallNanos).quantile(q) as f64 / 1e6;
    v.insert("exec.step_ms_p50", med(&|r| step(r, 0.5)));
    v.insert("exec.step_ms_p99", med(&|r| step(r, 0.99)));

    if spec.procs.is_some() {
        let steps = program.timesteps.max(1) as f64;
        v.insert(
            "comm.halo_messages",
            last.counters.get(Counter::HaloMessages) as f64 / steps,
        );
        v.insert(
            "comm.halo_bytes",
            last.counters.get(Counter::HaloBytes) as f64 / steps,
        );
        v.insert("comm.pack_ms", med(&|r| hub(r, Counter::PackNanos)) / 1e6);
        v.insert(
            "comm.unpack_ms",
            med(&|r| hub(r, Counter::UnpackNanos)) / 1e6,
        );
        let wait = |r: &Rep, q: f64| r.hists.get(Hist::HaloWaitNanos).quantile(q) as f64 / 1e3;
        v.insert("comm.halo_wait_p50_us", med(&|r| wait(r, 0.5)));
        v.insert("comm.halo_wait_p99_us", med(&|r| wait(r, 0.99)));
        v.insert(
            "comm.overlap_ms",
            med(&|r| r.counters.get(Counter::OverlapNanos) as f64) / 1e6,
        );
        v.insert(
            "comm.comm_share",
            med(&|r| {
                let comm = hub(r, Counter::PackNanos)
                    + hub(r, Counter::UnpackNanos)
                    + r.hists.get(Hist::HaloWaitNanos).sum() as f64;
                comm / r.hists.get(Hist::StepWallNanos).sum().max(1) as f64
            }),
        );
    }
}

fn parse_and_lint(source: &str) -> Result<StencilProgram, String> {
    let program = msc_core::parse::parse_unchecked(source)
        .map_err(|e| e.to_string())?
        .program;
    let report = msc_lint::lint_program(&program, Some(Target::Cpu));
    if report.has_deny() {
        return Err(format!(
            "lint denied the workload program:\n{}",
            report.render()
        ));
    }
    Ok(program)
}

fn plan(spec: &StencilSpec, program: &StencilProgram) -> Result<Plan, String> {
    let ndim = program.grid.ndim();
    let err = |e: MscError| e.to_string();
    Ok(match &spec.procs {
        None => {
            Plan::Tiled(ExecPlan::lower(&spec.schedule(), ndim, &program.grid.shape).map_err(err)?)
        }
        Some(procs) => {
            let decomp = build_decomp(program, procs, Boundary::Dirichlet).map_err(err)?;
            let plan =
                ExecPlan::lower(&spec.schedule(), ndim, &decomp.sub_extent()).map_err(err)?;
            Plan::Distributed {
                plan,
                exchanger: HaloExchange::new(decomp),
            }
        }
    })
}

fn execute(
    program: &StencilProgram,
    plan: &Plan,
    init: &Grid<f64>,
    hub: Option<Arc<TelemetryHub>>,
) -> Result<(Grid<f64>, RunCounts), String> {
    match plan {
        Plan::Tiled(plan) => {
            let _guard = hub.map(msc_trace::install_thread_hub);
            let (grid, stats) = run_program(program, &Executor::Tiled(plan.clone()), init)
                .map_err(|e| e.to_string())?;
            Ok((
                grid,
                RunCounts {
                    counters: stats.counters,
                    hists: HistSet::default(),
                    steps: stats.steps,
                },
            ))
        }
        Plan::Distributed { plan, exchanger } => {
            let opts = RunOptions {
                max_restarts: 0,
                hub,
                ..RunOptions::default()
            };
            let (grid, stats) = run_distributed_opts(
                program,
                init,
                Boundary::Dirichlet,
                exchanger,
                None,
                &opts,
                |_| Ok(plan.clone()),
            )
            .map_err(|e| e.to_string())?;
            Ok((
                grid,
                RunCounts {
                    counters: stats.counters,
                    hists: stats.hists,
                    steps: stats.steps,
                },
            ))
        }
    }
}

/// One repetition of the user pipeline, timed layer by layer. A
/// verification mismatch returns `Err`.
fn pipeline(
    spec: &StencilSpec,
    source: &str,
    init: &Grid<f64>,
    op: u64,
    traced: bool,
    tr: &Tracer,
) -> Result<Rep, String> {
    let root = tr.root("pipeline", op, traced);
    let (parsed, parse_s) = tr.time(&root, "core.parse", || {
        msc_core::parse::parse_unchecked(source)
    });
    let program = parsed.map_err(|e| e.to_string())?.program;
    let (report, lint_s) = tr.time(&root, "lint.lint", || {
        msc_lint::lint_program(&program, Some(Target::Cpu))
    });
    if report.has_deny() {
        return Err(format!(
            "lint denied the workload program:\n{}",
            report.render()
        ));
    }
    let (plan, plan_s) = tr.time(&root, "core.plan", || plan(spec, &program));
    let plan = plan?;
    let hub = traced.then(|| {
        let h = TelemetryHub::new();
        h.set_enabled(true);
        h
    });
    let (ran, compute_s) = tr.time(&root, "exec.compute", || {
        execute(&program, &plan, init, hub.clone())
    });
    let (grid, counts) = ran?;
    let (verified, verify_s) = tr.time(&root, "exec.verify", || {
        run_program(&program, &Executor::Reference, init)
            .map(|(oracle, _)| grid.as_slice() == oracle.as_slice())
    });
    let same = verified.map_err(|e| e.to_string())?;
    let (pkg, emit_s) = tr.time(&root, "codegen.emit", || {
        msc_codegen::compile_to_source(&program, Target::Cpu)
    });
    let pkg = pkg.map_err(|e| e.to_string())?;
    drop(grid);
    let pipeline_s = tr.close(root);
    if !same {
        return Err(format!(
            "{} repetition {op}: result differs from the interpreter oracle",
            spec.workload.name()
        ));
    }
    Ok(Rep {
        traced,
        pipeline_s,
        parse_s,
        lint_s,
        plan_s,
        compute_s,
        verify_s,
        emit_s,
        points: program.grid.shape.iter().product::<usize>() as u64 * counts.steps as u64,
        loc: pkg.total_loc() as u64,
        counters: counts.counters,
        hists: counts.hists,
        hub: hub.map(|h| (h.snapshot(), h.snapshot_hists())),
    })
}
