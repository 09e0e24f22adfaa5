//! Online rank-recovery integration tests: a rank killed mid-run must be
//! healed *in place* — heartbeat silence turns into a suspect, a hot
//! spare adopts the dead rank's subdomain from its buddy's diskless
//! snapshot, survivors roll back to the same generation — and the final
//! grid must be **bit-identical** to the fault-free single-node run,
//! with zero world restarts.
//!
//! Fault schedules are seed-driven and deterministic; only the detection
//! *latency* is wall-clock dependent, never the recovered numerics.

use msc_comm::{
    build_decomp, run_distributed_opts, CommStats, FaultPlan, HaloExchange, HeartbeatConfig,
    ReliabilityConfig, RunOptions,
};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::driver::{run_program, Executor};
use msc_exec::{Boundary, ExecTier, Grid};
use msc_trace::Hist;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn simple_plan(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

/// A run over a 2x2 process grid on MSC's own halo exchanger.
fn run_2x2(
    p: &StencilProgram,
    init: &Grid<f64>,
    opts: &RunOptions,
) -> Result<(Grid<f64>, CommStats)> {
    let exchanger = HaloExchange::new(build_decomp(p, &[2, 2], Boundary::Dirichlet)?);
    run_distributed_opts(p, init, Boundary::Dirichlet, &exchanger, None, opts, simple_plan)
}

fn fast_reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        poll: Duration::from_millis(2),
        max_attempts: 80,
        ..ReliabilityConfig::default()
    }
}

/// A short detection window so the suite stays snappy; correctness must
/// not depend on the value (only test wall time does).
fn fast_heartbeat() -> HeartbeatConfig {
    HeartbeatConfig::from_millis(5).unwrap()
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msc_recovery_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kill rank 1 at its 4th exchange in a 2x2 world with one hot spare and
/// diskless buddy checkpoints every 2 steps, under the given execution
/// tier. Returns (result, stats) — callers assert the recovery contract.
fn run_killed_with_spare(tier: ExecTier) -> (Grid<f64>, msc_comm::CommStats, Grid<f64>) {
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 99);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(5).with_kill(1, 4))),
        reliability: fast_reliability(),
        checkpoint_every: 2, // no checkpoint_dir: purely diskless
        spare_ranks: 1,
        heartbeat: Some(fast_heartbeat()),
        tier,
        ..RunOptions::default()
    };
    let (out, stats) = run_2x2(&p, &init, &opts).unwrap();
    (out, stats, golden)
}

fn assert_online_recovery(out: &Grid<f64>, stats: &msc_comm::CommStats, golden: &Grid<f64>) {
    assert_eq!(
        golden.as_slice(),
        out.as_slice(),
        "recovered grid must be bit-identical to the fault-free run"
    );
    assert_eq!(stats.restarts, 0, "online recovery must not restart the world");
    assert!(stats.recoveries >= 1, "the kill must have been healed online");
    assert!(stats.rank_recoveries() >= 1, "recovery counter must fire");
    assert!(stats.buddy_bytes() > 0, "buddy replication must have run");
    // No heartbeat-count assertion here: a dropped endpoint is promoted
    // to a suspect immediately, so a fast kill can recover before the
    // beacon interval ever elapses. Beacon flow is asserted by the
    // long-running spare_world_without_failures unit test instead.
    assert!(
        stats.hists.get(Hist::DetectLatencyNanos).count() >= 1,
        "detection latency must land in the histogram"
    );
}

#[test]
fn spare_adopts_killed_rank_interp_tier() {
    let (out, stats, golden) = run_killed_with_spare(ExecTier::Interp);
    assert_online_recovery(&out, &stats, &golden);
}

#[test]
fn spare_adopts_killed_rank_vm_tier() {
    let (out, stats, golden) = run_killed_with_spare(ExecTier::Vm);
    assert_online_recovery(&out, &stats, &golden);
}

#[test]
fn spare_adopts_killed_rank_specialized_tier() {
    let (out, stats, golden) = run_killed_with_spare(ExecTier::Specialized);
    assert_online_recovery(&out, &stats, &golden);
}

#[test]
fn kill_before_first_snapshot_recovers_from_initial_state() {
    // The rank dies before any buddy generation exists: the recovery
    // source degrades to the initial state, every rank replays from
    // step 0, and the result is still bit-exact.
    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[12, 12], DType::F64, 4)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 21);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(8).with_kill(2, 1))),
        reliability: fast_reliability(),
        spare_ranks: 1,
        heartbeat: Some(fast_heartbeat()),
        ..RunOptions::default()
    };
    let (out, stats) = run_2x2(&p, &init, &opts).unwrap();
    assert_eq!(golden.as_slice(), out.as_slice());
    assert_eq!(stats.restarts, 0);
    assert!(stats.recoveries >= 1);
    assert_eq!(stats.checkpoint_bytes(), 0, "no disk store configured");
}

#[test]
fn heartbeat_without_spares_falls_back_to_disk_restart() {
    // Detection without adoption: the membership layer declares the
    // failure unrecoverable (no spare on the bench) and the driver falls
    // back to the classic checkpoint restart — still bit-exact, and the
    // two counters stay distinct: restarts == 1, recoveries == 0.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 13);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let dir = ckpt_dir("no_spare_fallback");
    let opts = RunOptions {
        chaos: Some(Arc::new(FaultPlan::new(5).with_kill(1, 4))),
        reliability: fast_reliability(),
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        max_restarts: 2,
        heartbeat: Some(fast_heartbeat()),
        ..RunOptions::default()
    };
    let (out, stats) = run_2x2(&p, &init, &opts).unwrap();
    assert_eq!(golden.as_slice(), out.as_slice());
    assert_eq!(stats.restarts, 1, "no spare: the kill must force a restart");
    assert_eq!(stats.recoveries, 0, "nothing was healed online");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_composes_with_channel_chaos() {
    // The full gauntlet: drops, duplicates, reordering, and corruption in
    // every channel, plus a kill healed by a hot spare. The reliability
    // protocol and the recovery protocol are orthogonal layers; the
    // result must still be bit-exact with zero restarts.
    let p = benchmark(BenchmarkId::S2d9ptBox)
        .program(&[16, 16], DType::F64, 6)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 42);
    let (golden, _) = run_program(&p, &Executor::Reference, &init).unwrap();
    let mut plan = FaultPlan::new(1337).with_kill(3, 3);
    plan.drop_p = 0.05;
    plan.dup_p = 0.03;
    plan.delay_p = 0.05;
    plan.corrupt_p = 0.03;
    let opts = RunOptions {
        chaos: Some(Arc::new(plan)),
        reliability: fast_reliability(),
        checkpoint_every: 2,
        spare_ranks: 1,
        heartbeat: Some(fast_heartbeat()),
        ..RunOptions::default()
    };
    let (out, stats) = run_2x2(&p, &init, &opts).unwrap();
    assert_eq!(golden.as_slice(), out.as_slice());
    assert_eq!(stats.restarts, 0);
    assert!(stats.recoveries >= 1);
    assert!(stats.faults_injected() > 0, "the chaos must have happened");
}

#[test]
fn two_spares_survive_repeated_runs_deterministically() {
    // Determinism of the recovered numerics: the same seeded kill healed
    // twice produces the same bits both times (wall-clock detection
    // latency varies; the grid must not).
    let run = || run_killed_with_spare(ExecTier::Auto);
    let (a, sa, golden) = run();
    let (b, sb, _) = run();
    assert_eq!(a.as_slice(), b.as_slice());
    assert_eq!(a.as_slice(), golden.as_slice());
    assert!(sa.recoveries >= 1 && sb.recoveries >= 1);
}
