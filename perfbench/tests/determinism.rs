//! The benchmark's counts depend only on the seed: two runs with the same
//! seed count the same work, and a different seed draws a different
//! `mscd_mix` operation sequence. Runs here are small and fixed-length
//! (a repetition or operation budget, no time budget).

use std::path::{Path, PathBuf};

use perfbench::metrics::{Values, END_TO_END, PER_LAYER};
use perfbench::mix::{self, MixSpec};
use perfbench::spans::Tracer;
use perfbench::stencil::{self, StencilSpec};
use perfbench::{Budget, Workload};

fn repo() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn run_stencil(spec: &StencilSpec, seed: u64) -> Values {
    let budget = Budget {
        seconds: 0.0,
        min: 2,
    };
    let out =
        stencil::run(spec, seed, budget, true, &Tracer::new()).expect("stencil workload runs");
    assert_eq!((out.attempted, out.failed), (2, 0), "{:?}", out.notes);
    out.values
}

#[test]
fn sweep3d_counts_repeat_for_a_seed() {
    let spec = StencilSpec {
        workload: Workload::Sweep3d,
        shape: vec![24, 24, 24],
        steps: 3,
        tile: vec![8, 8, 24],
        width: 1,
        procs: None,
    };
    let (a, b) = (run_stencil(&spec, 5), run_stencil(&spec, 5));
    for key in [
        "exec.computed_points",
        "codegen.loc",
        "exec.specialized_hits",
    ] {
        assert_eq!(a[key], b[key], "{key}");
    }
    assert_eq!(a["exec.computed_points"], (24 * 24 * 24 * 3) as f64);
}

#[test]
fn halo3d_counts_repeat_for_a_seed() {
    let spec = StencilSpec {
        workload: Workload::Halo3d,
        shape: vec![16, 16, 16],
        steps: 4,
        tile: vec![4, 16, 16],
        width: 1,
        procs: Some(vec![2, 1, 1]),
    };
    let (a, b) = (run_stencil(&spec, 9), run_stencil(&spec, 9));
    for key in [
        "exec.computed_points",
        "comm.halo_messages",
        "comm.halo_bytes",
        "codegen.loc",
    ] {
        assert_eq!(a[key], b[key], "{key}");
    }
    assert!(a["comm.halo_messages"] > 0.0);
}

fn mix_spec(name: &str) -> MixSpec {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    MixSpec::new(dir, repo()).expect("lift corpus and deny fixtures are readable")
}

fn run_mix(spec: &MixSpec, seed: u64) -> (Values, Vec<Vec<mix::OpSpec>>) {
    let (out, seqs) = mix::run(spec, seed, 40, true, &Tracer::new()).expect("mix runs");
    assert_eq!(out.failed, 0, "{:?}", out.notes);
    (out.values, seqs)
}

#[test]
fn mscd_mix_sequence_and_cache_counts_repeat_for_a_seed() {
    let spec = mix_spec("det-same");
    let (a, seq_a) = run_mix(&spec, 11);
    let (b, seq_b) = run_mix(&spec, 11);
    assert_eq!(seq_a, seq_b);
    for key in [
        "service.cache_hits",
        "service.cache_misses",
        "service.ops",
        "lint.deny_count",
    ] {
        assert_eq!(a[key], b[key], "{key}");
    }
    assert_eq!(a["service.ops"], 80.0);
}

#[test]
fn a_different_seed_draws_a_different_mix() {
    let spec = mix_spec("det-other");
    assert_eq!(
        mix::op_sequence(&spec, 1, 0, 200),
        mix::op_sequence(&spec, 1, 0, 200)
    );
    assert_ne!(
        mix::op_sequence(&spec, 1, 0, 200),
        mix::op_sequence(&spec, 2, 0, 200)
    );
    assert_ne!(
        mix::op_sequence(&spec, 1, 0, 200),
        mix::op_sequence(&spec, 1, 1, 200)
    );
    let kinds = mix::op_sequence(&spec, 3, 0, 2000);
    let share = |k: &str| kinds.iter().filter(|o| o.kind() == k).count() as f64 / 2000.0;
    assert_eq!(
        [share("hit"), share("miss"), share("lift"), share("deny")],
        [0.5, 0.3, 0.1, 0.1]
    );
}

/// BENCHMARK.json lists exactly the metrics the benchmark prints, with
/// the same units.
#[test]
fn benchmark_json_matches_the_metric_vocabulary() {
    let text =
        std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json exists");
    let listed = text.matches("\"name\":").count();
    let workloads = text.matches("\"why\":").count();
    assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\", \"why\":", w.name())));
    }
}
