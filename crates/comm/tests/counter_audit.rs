//! Counter-accounting audit for the distributed driver: every metric in
//! the gathered [`CommStats`] must be fed by exactly one sink. The
//! executors/exchanger bump a per-rank `CounterSet` (merged at gather)
//! *and* mirror into the process-global trace banks when tracing is
//! enabled — two parallel sinks, and each must see a value exactly once.
//!
//! This file is its own test binary on purpose: the global trace banks
//! are process-wide, so the tracing-enabled assertions below would race
//! any concurrently running test that also records counters.

use msc_comm::{build_decomp, run_distributed_opts, CommStats, HaloExchange, RunOptions};
use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::error::Result;
use msc_core::prelude::*;
use msc_core::schedule::plan::ExecPlan;
use msc_core::schedule::Schedule;
use msc_exec::{Boundary, Grid};
use msc_trace::Counter;
use std::sync::Mutex;

/// Tests in this binary still run on parallel threads; the trace banks
/// are process-global, so every test takes this lock.
static BANK_LOCK: Mutex<()> = Mutex::new(());

fn plan_halves(sub: &[usize]) -> Result<ExecPlan> {
    let mut s = Schedule::default();
    let tile: Vec<usize> = sub.iter().map(|&x| (x / 2).max(1)).collect();
    s.tile(&tile);
    s.parallel("xo", 2);
    ExecPlan::lower(&s, sub.len(), sub)
}

const RANKS: usize = 2;
const STEPS: usize = 2;

fn run(opts: &RunOptions) -> (Grid<f64>, CommStats) {
    let p = benchmark(BenchmarkId::S2d9ptStar)
        .program(&[8, 8], DType::F64, STEPS)
        .unwrap();
    let init: Grid<f64> = Grid::random(&p.grid.shape, &p.grid.halo, 77);
    let exchanger = HaloExchange::new(build_decomp(&p, &[RANKS, 1], Boundary::Dirichlet).unwrap());
    run_distributed_opts(&p, &init, Boundary::Dirichlet, &exchanger, None, opts, plan_halves)
        .unwrap()
}

/// Tiles each rank's plan yields per step: sub-grid [4, 8], tile [2, 4].
const TILES_PER_RANK_PER_STEP: u64 = (4 / 2) * (8 / 4);
const TRUE_TILES: u64 = RANKS as u64 * STEPS as u64 * TILES_PER_RANK_PER_STEP;

#[test]
fn merged_stats_count_each_tile_exactly_once() {
    let _g = BANK_LOCK.lock().unwrap();
    // Overlap on (default) and off must both account every tile once.
    for overlap in [true, false] {
        let opts = RunOptions {
            overlap,
            ..RunOptions::default()
        };
        let (_, stats) = run(&opts);
        assert_eq!(
            stats.tiles_executed(),
            TRUE_TILES,
            "overlap={overlap}: merged RunStats tile counter"
        );
        assert_eq!(stats.counters.get(Counter::Steps), STEPS as u64);
        assert_eq!(stats.counters.get(Counter::Ranks), RANKS as u64);
    }
}

#[test]
fn global_trace_sink_counts_each_tile_exactly_once() {
    let _g = BANK_LOCK.lock().unwrap();
    // The mirror sink: with tracing enabled, the process-global banks
    // must also see each tile exactly once (not once per sink).
    for overlap in [true, false] {
        msc_trace::reset_counters();
        msc_trace::set_enabled(true);
        let opts = RunOptions {
            overlap,
            ..RunOptions::default()
        };
        let (_, stats) = run(&opts);
        msc_trace::set_enabled(false);
        let snap = msc_trace::snapshot();
        assert_eq!(
            snap.get(Counter::TilesExecuted),
            TRUE_TILES,
            "overlap={overlap}: global trace tile counter"
        );
        // Halo traffic mirrors 1:1 as well.
        assert_eq!(
            snap.get(Counter::HaloMessages),
            stats.halo_messages(),
            "overlap={overlap}: global trace halo messages"
        );
        if overlap {
            assert!(snap.get(Counter::OverlapNanos) > 0, "overlap window recorded");
        }
    }
}

#[test]
fn checkpoint_bytes_match_files_on_disk() {
    let _g = BANK_LOCK.lock().unwrap();
    // CheckpointBytes is fed once per save: the merged counter must
    // equal the bytes actually sitting in the checkpoint directory.
    let dir = std::env::temp_dir().join("msc_counter_audit_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..RunOptions::default()
    };
    let (_, stats) = run(&opts);
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "grid"))
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert!(disk_bytes > 0, "checkpoints were written");
    assert_eq!(stats.checkpoint_bytes(), disk_bytes);
    assert!(stats.counters.get(Counter::CheckpointNanos) > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
