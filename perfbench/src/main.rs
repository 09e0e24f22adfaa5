//! perfbench command line:
//!
//! ```text
//! perfbench --workload <sweep3d|halo3d|mscd_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A human report goes to stderr; the last
//! line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end set with `--trace 0`, the
//! per-layer set with `--trace 1`). Exits 1 when any output was wrong.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use perfbench::spans::{self, Tracer};
use perfbench::{host, mix, stencil, stream, Budget, Outcome, Workload};

/// Where sockets and span files go, relative to the repository root.
const WORK_DIR: &str = ".bench_build/perfbench";

/// `mscd_mix` operations per client for each second of `--seconds`.
const MIX_OPS_PER_CLIENT_SECOND: f64 = 600.0;

/// Triad arrays: 3 x 128 MiB.
const STREAM_ELEMS: usize = 16 << 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    // Every workload needs the repository's sources; refuse early where
    // only the benchmark's own files exist.
    if !Path::new("crates").is_dir() || !Path::new("examples").is_dir() {
        return Err("run perfbench from the repository root".into());
    }
    match args.workload {
        Workload::Sweep3d | Workload::Halo3d => {
            let spec = if args.workload == Workload::Sweep3d {
                stencil::StencilSpec::sweep3d()
            } else {
                stencil::StencilSpec::halo3d()
            };
            let budget = Budget {
                seconds: args.seconds,
                min: 3,
            };
            stencil::run(&spec, args.seed, budget, args.trace, tracer)
        }
        Workload::MscdMix => {
            let spec = mix::MixSpec::new(PathBuf::from(WORK_DIR), Path::new("."))?;
            // A fixed count for a given --seconds, not a time budget: a
            // faster build finishes sooner instead of doing more work.
            let ops = ((args.seconds * MIX_OPS_PER_CLIENT_SECOND).ceil() as usize).max(1);
            mix::run(&spec, args.seed, ops, args.trace, tracer).map(|(out, _)| out)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let probe = args
        .trace
        .then(|| stream::triad(STREAM_ELEMS, host::nproc(), 5));
    let tracer = Tracer::new();
    let ticks = host::cpu_ticks();
    let result = run(&args, &tracer);
    let steal = ticks
        .zip(host::cpu_ticks())
        .map(|(a, b)| host::steal_pct(a, b));
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };

    let v = &mut out.values;
    if let Some(steal) = steal {
        v.insert("host.steal_pct", steal);
        out.notes.push(format!(
            "host: {steal:.1}% of CPU time was stolen by the hypervisor during the run"
        ));
    }
    let llc = host::llc_bytes().map(|b| b as f64 / (1 << 20) as f64);
    v.insert("host.nproc", host::nproc() as f64);
    v.insert("host.llc_mib", llc.unwrap_or(0.0));
    if let Some(p) = probe {
        v.insert("host.stream_gbs", p.gbs);
        v.insert("host.stream_mib", p.mib);
        let achieved = v.get("exec.achieved_gbs").copied().unwrap_or(0.0);
        v.insert("exec.roofline_pct", 100.0 * achieved / p.gbs);
        let rule = match llc {
            Some(l) if p.mib >= 4.0 * l => "meets",
            Some(_) => "does NOT meet",
            None => "cannot check (no LLC reported)",
        };
        out.notes.push(format!(
            "host: triad {:.2} GB/s over {:.0} MiB of arrays; LLC {:.0} MiB; {rule} the 4x-LLC rule",
            p.gbs,
            p.mib,
            llc.unwrap_or(0.0)
        ));
    }
    if args.trace {
        let spans = tracer.spans();
        let (by_name, roots) = spans::self_times(&spans);
        let unattributed = by_name.get("unattributed").copied().unwrap_or(0.0);
        out.values.insert(
            "trace.unattributed_pct",
            100.0 * unattributed / roots.max(1.0),
        );
        out.notes.push(format!(
            "self time along the blocking path:\n{}",
            spans::render_self_times(&spans)
        ));
        let path = PathBuf::from(WORK_DIR).join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match spans::write_jsonl(&path, &spans) {
            Ok(()) => out.notes.push(format!(
                "{} span(s) written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => out
                .notes
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }

    for note in &out.notes {
        eprintln!("{note}");
    }
    eprintln!(
        "fail_ratio {:.6} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        eprintln!(
            "  {name:<26} {:>16.6} {unit}",
            out.values.get(name).copied().unwrap_or(0.0)
        );
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, set, &out.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
