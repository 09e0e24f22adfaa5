//! `mscd_mix`: an in-process mscd daemon driven by closed-loop clients,
//! the path of `mscc submit` and `mscc lift`.
//!
//! Each client waits for every reply before sending its next request
//! (a closed loop: `mscc submit` callers wait). Its operations come from
//! a stream seeded by `--seed` and the client's index; of every ten:
//!
//! * five resubmit a catalog program compiled during warm-up (cache hit);
//! * three submit a fresh tile-factor variant of a catalog program under
//!   a name never used before (cache miss);
//! * one lifts a C nest from `examples/lift` and validates it, as `mscc
//!   lift` does, then submits the emitted `.msc` with `run=true`;
//! * one submits a deny fixture from `crates/lint/fixtures`, which must
//!   come back `Denied` with the fixture's expected MSC-L code.
//!
//! Each client runs a fixed number of operations, so every figure of a
//! run (peak memory and counts too) covers the same work on any build.
//! During the loop the clients only record what they sent and got back.
//! Once the wall is taken, every reply is checked against an in-process
//! parse → lint → plan → codegen of the same source (memoized per
//! source), so the check costs the daemon nothing. Compile, lint, lift,
//! cache and queue do the work and stencil compute does little.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use msc_core::catalog::{benchmark, BenchmarkId};
use msc_core::prelude::*;
use msc_core::schedule::Target;
use msc_service::{Client, Daemon, Request, Response, ServiceConfig, Submission};

use crate::metrics::{lower_quartile, median, quantile, Values};
use crate::spans::{timed, Tracer};
use crate::{host, Outcome, Rng};

/// Timesteps of the catalog programs (compiled, never run).
const CATALOG_STEPS: usize = 4;
const SETUP_REPEATS: usize = 21;
/// Closed-loop clients, each with one operation in flight: on its own
/// thread or on one daemon worker. Generated programs run with
/// `parallel` width 1, so this is the busy-thread count.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Directory for the daemon's socket.
    pub work_dir: PathBuf,
    /// `(file stem, C source)` of every nest in `examples/lift`.
    pub lift_sources: Vec<(String, String)>,
    /// `(source, expected code)` of every deny fixture.
    pub deny_fixtures: Vec<(String, String)>,
}

impl MixSpec {
    /// Read the lift corpus and deny fixtures under `repo`.
    pub fn new(work_dir: PathBuf, repo: &Path) -> Result<MixSpec, String> {
        let lift_sources = read_dir_sorted(&repo.join("examples/lift"), ".c")?
            .into_iter()
            .map(|(path, text)| {
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("lifted");
                (stem.to_string(), text)
            })
            .collect();
        let deny_fixtures = read_dir_sorted(&repo.join("crates/lint/fixtures"), ".deny.msc")?
            .into_iter()
            .map(|(path, text)| {
                let code = text
                    .lines()
                    .next()
                    .and_then(|l| l.strip_prefix("// expect: "))
                    .map(|c| c.trim().to_string())
                    .ok_or_else(|| format!("{} has no `// expect:` header", path.display()))?;
                Ok((text, code))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MixSpec {
            work_dir,
            lift_sources,
            deny_fixtures,
        })
    }
}

fn read_dir_sorted(dir: &Path, suffix: &str) -> Result<Vec<(PathBuf, String)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *{suffix} files in {}", dir.display()));
    }
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            Ok((p, text))
        })
        .collect()
}

/// One operation of a client's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpec {
    /// Resubmit warm-up program `base` (a catalog index).
    Hit { base: usize },
    /// A fresh variant of catalog program `bench`; `tag` makes its name
    /// unique.
    Miss {
        bench: usize,
        tile: Vec<usize>,
        tag: String,
    },
    /// Lift corpus nest `file`, validate, submit with `run=true`.
    Lift { file: usize },
    /// Submit deny fixture `fixture`.
    Deny { fixture: usize },
}

impl OpSpec {
    pub fn kind(&self) -> &'static str {
        match self {
            OpSpec::Hit { .. } => "hit",
            OpSpec::Miss { .. } => "miss",
            OpSpec::Lift { .. } => "lift",
            OpSpec::Deny { .. } => "deny",
        }
    }
}

/// The first `n` operations of client `client`'s stream for `seed`.
pub fn op_sequence(spec: &MixSpec, seed: u64, client: usize, n: usize) -> Vec<OpSpec> {
    OpStream::new(spec, seed, client).take(n).collect()
}

/// One client's operations. Every block of ten holds exactly five hits,
/// three misses, one lift and one deny, and each catalog program, lift
/// nest and deny fixture is drawn once per round of its own deck; the
/// seed picks the orders and the tile variants. Exact shares keep the
/// seed from moving the throughput: a lift costs about ten hits.
struct OpStream<'a> {
    spec: &'a MixSpec,
    rng: Rng,
    client: usize,
    next: usize,
    kinds: Vec<&'static str>,
    hits: Vec<usize>,
    misses: Vec<usize>,
    lifts: Vec<usize>,
    denies: Vec<usize>,
}

const BLOCK: [&str; 10] = [
    "hit", "hit", "hit", "hit", "hit", "miss", "miss", "miss", "lift", "deny",
];

impl<'a> OpStream<'a> {
    fn new(spec: &'a MixSpec, seed: u64, client: usize) -> OpStream<'a> {
        OpStream {
            spec,
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
            client,
            next: 0,
            kinds: Vec::new(),
            hits: Vec::new(),
            misses: Vec::new(),
            lifts: Vec::new(),
            denies: Vec::new(),
        }
    }
}

/// Pop the next card, reshuffling `0..n` into the deck when it runs out.
fn draw<T: Copy>(rng: &mut Rng, deck: &mut Vec<T>, fresh: impl FnOnce() -> Vec<T>) -> T {
    if deck.is_empty() {
        *deck = fresh();
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i + 1));
        }
    }
    deck.pop().expect("a deck is never empty after a refill")
}

impl Iterator for OpStream<'_> {
    type Item = OpSpec;

    fn next(&mut self) -> Option<OpSpec> {
        let ids = BenchmarkId::all();
        let rng = &mut self.rng;
        let kind = draw(rng, &mut self.kinds, || BLOCK.to_vec());
        let op = match kind {
            "hit" => OpSpec::Hit {
                base: draw(rng, &mut self.hits, || (0..ids.len()).collect()),
            },
            "miss" => {
                let bench = draw(rng, &mut self.misses, || (0..ids.len()).collect());
                let tile = benchmark(ids[bench])
                    .test_grid()
                    .iter()
                    .map(|&n| {
                        let divisors: Vec<usize> = (4..=n).filter(|d| n % d == 0).collect();
                        divisors[rng.below(divisors.len())]
                    })
                    .collect();
                OpSpec::Miss {
                    bench,
                    tile,
                    tag: format!("c{}_{}", self.client, self.next),
                }
            }
            "lift" => OpSpec::Lift {
                file: draw(rng, &mut self.lifts, || {
                    (0..self.spec.lift_sources.len()).collect()
                }),
            },
            _ => OpSpec::Deny {
                fixture: draw(rng, &mut self.denies, || {
                    (0..self.spec.deny_fixtures.len()).collect()
                }),
            },
        };
        self.next += 1;
        Some(op)
    }
}

/// Render a catalog program with the given tiles, `parallel` width 1.
fn catalog_source(bench: usize, tile: &[usize], name: &str) -> Result<String, String> {
    let b = benchmark(BenchmarkId::all()[bench]);
    let mut p = b
        .program(&b.test_grid(), DType::F64, CATALOG_STEPS)
        .map_err(|e| e.to_string())?;
    p.name = name.to_string();
    set_schedule(&mut p, tile);
    Ok(msc_core::parse::to_msc_source(&p, Some(Target::Cpu)))
}

fn set_schedule(p: &mut StencilProgram, tile: &[usize]) {
    let mut s = Schedule::default();
    s.tile(tile);
    s.parallel("xo", 1);
    for k in &mut p.stencil.kernels {
        k.schedule = s.clone();
    }
}

/// The warm-up program every `Hit` resubmits: catalog program `bench`
/// with half-extent tiles.
fn base_source(bench: usize) -> Result<String, String> {
    let b = benchmark(BenchmarkId::all()[bench]);
    let tile: Vec<usize> = b.test_grid().iter().map(|n| n / 2).collect();
    catalog_source(bench, &tile, b.name)
}

/// What the in-process oracle expects the daemon to answer.
#[derive(Debug, Clone)]
enum Expect {
    Done {
        loc: u64,
        files: Vec<String>,
        /// Tiles a `run=true` job executes.
        tiles: u64,
        steps: u64,
        points: u64,
    },
    Denied {
        codes: Vec<String>,
    },
}

/// Per-operation record: timings taken in the loop, what was sent and
/// received, and the counts the check fills in.
#[derive(Debug)]
struct OpRecord {
    op: OpSpec,
    /// Client and position in its stream.
    client: usize,
    index: usize,
    traced: bool,
    /// From the op's start (for lifts: before `lift_source`) to the reply.
    latency_s: f64,
    /// The request round trip alone.
    submit_s: f64,
    lift_s: f64,
    validate_s: f64,
    source: String,
    run: bool,
    resp: Result<Response, String>,
    /// Point updates a `run=true` job performed.
    points: u64,
    loc: Option<u64>,
    deny_findings: u64,
    /// A traced run job's own telemetry counters, by name, as the
    /// daemon reports them in `Done`.
    job_counters: Vec<(String, u64)>,
}

impl OpRecord {
    fn busy(&self) -> bool {
        matches!(self.resp, Ok(Response::Busy { .. }))
    }
}

/// Layer timings of the in-process oracle (only when it ran, not when
/// memoized).
#[derive(Debug, Default)]
struct OracleTimes {
    parse: Vec<f64>,
    lint: Vec<f64>,
    plan: Vec<f64>,
    emit: Vec<f64>,
}

struct ClientResult {
    ops: Vec<OpRecord>,
    /// Operations that failed before reaching the daemon.
    failures: Vec<String>,
    sequence: Vec<OpSpec>,
}

const KINDS: [&str; 4] = ["hit", "miss", "lift", "deny"];

/// Run the mix: `ops_per_client` operations from each client. Returns the
/// outcome and each client's operation sequence.
pub fn run(
    spec: &MixSpec,
    seed: u64,
    ops_per_client: usize,
    trace: bool,
    tracer: &Tracer,
) -> Result<(Outcome, Vec<Vec<OpSpec>>), String> {
    host::check_thread_budget("mscd_mix clients", CLIENTS)?;
    std::fs::create_dir_all(&spec.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", spec.work_dir.display()))?;
    static DAEMONS: AtomicU64 = AtomicU64::new(0);
    let socket = spec.work_dir.join(format!(
        "mscd-{}-{}.sock",
        std::process::id(),
        DAEMONS.fetch_add(1, Ordering::Relaxed)
    ));
    let workers = host::nproc();
    let cfg = ServiceConfig {
        socket: socket.clone(),
        workers,
        max_queue: 16,
        tenant_quota: 4,
        metrics_dir: None,
        pool_threads: 0,
    };

    // Set-up: Daemon::start until the first Pong, repeated; the last
    // daemon stays up for the run.
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let d = Daemon::start(cfg.clone())?;
        let mut c = Client::connect(&socket)?;
        match c.call(&Request::Ping)? {
            Response::Pong { .. } => {}
            other => return Err(format!("ping answered with {other:?}")),
        }
        setup.push(t0.elapsed().as_secs_f64());
        drop(c);
        if i + 1 < SETUP_REPEATS {
            d.stop();
            d.join();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up repetition");

    let mut out = Outcome::default();
    // Warm-up (untimed): compile every program a `Hit` resubmits.
    let bases: Vec<String> = (0..BenchmarkId::all().len())
        .map(base_source)
        .collect::<Result<_, _>>()?;
    {
        let mut c = Client::connect(&socket)?;
        for src in &bases {
            let r = c.call(&submit(src, false, "warmup"));
            out.check(matches!(r, Ok(Response::Done(_))), || {
                format!("warm-up submission answered {r:?}")
            });
        }
    }

    let start = Instant::now();
    let results: Vec<Result<ClientResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (bases, socket) = (&bases, &socket);
                s.spawn(move || {
                    client_loop(spec, seed, c, ops_per_client, trace, tracer, bases, socket)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    daemon.stop();
    let stats = daemon.join();

    // The check, after the timed loop: every reply against the
    // in-process answer for its source.
    let mut ops = Vec::new();
    let mut oracle = OracleTimes::default();
    let mut memo: HashMap<String, Expect> = HashMap::new();
    let mut sequences = Vec::new();
    for r in results {
        let r = r?;
        for why in r.failures {
            out.check(false, || why);
        }
        for mut rec in r.ops {
            let verdict = check(spec, &mut rec, &mut memo, &mut oracle);
            out.check(verdict.is_ok(), || {
                format!(
                    "client {} op {} ({}): {}",
                    rec.client,
                    rec.index,
                    rec.op.kind(),
                    verdict.clone().unwrap_err()
                )
            });
            ops.push(rec);
        }
        sequences.push(r.sequence);
    }

    let lat = |pred: &dyn Fn(&OpRecord) -> bool, f: fn(&OpRecord) -> f64| -> Vec<f64> {
        ops.iter().filter(|o| pred(o)).map(f).collect()
    };
    let runs: Vec<&OpRecord> = ops
        .iter()
        .filter(|o| o.op.kind() == "lift" && o.points > 0)
        .collect();
    // The lift-and-run path, per corpus nest: the lower quartile of its
    // untraced operations, so the figures do not depend on how often
    // each nest came up.
    let per_file = |f: fn(&OpRecord) -> f64| -> Vec<(f64, u64)> {
        (0..spec.lift_sources.len())
            .filter_map(|file| {
                let of_file: Vec<&&OpRecord> = runs
                    .iter()
                    .filter(|o| !o.traced && o.op == OpSpec::Lift { file })
                    .collect();
                let times: Vec<f64> = of_file.iter().map(|o| f(o)).collect();
                Some((lower_quartile(&times), of_file.first()?.points))
            })
            .collect()
    };
    let latency = per_file(|o| o.latency_s);
    let submits = per_file(|o| o.submit_s);
    let v: &mut Values = &mut out.values;
    v.insert("setup_s", median(&setup));
    v.insert(
        "pipeline_s",
        latency.iter().map(|(s, _)| s).sum::<f64>() / latency.len().max(1) as f64,
    );
    v.insert(
        "mpts_per_s",
        submits.iter().map(|(_, p)| *p as f64).sum::<f64>()
            / submits.iter().map(|(s, _)| s).sum::<f64>().max(1e-9)
            / 1e6,
    );
    v.insert("jobs_per_s", ops.len() as f64 / wall);
    v.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    v.insert("host.busy_threads", CLIENTS as f64);

    if trace {
        let traced = |o: &OpRecord| o.traced;
        let ms = |xs: Vec<f64>, q: f64| quantile(&xs, q) * 1e3;
        let all_traced = lat(&traced, |o| o.latency_s);
        v.insert("service.ops", ops.len() as f64);
        v.insert("service.submit_ms_p50", ms(all_traced.clone(), 0.5));
        v.insert("service.submit_ms_p99", ms(all_traced, 0.99));
        for (metric, kind) in [
            ("service.hit_ms_p50", "hit"),
            ("service.miss_ms_p50", "miss"),
            ("service.lift_ms_p50", "lift"),
            ("service.deny_ms_p50", "deny"),
        ] {
            v.insert(
                metric,
                ms(
                    lat(&|o| traced(o) && o.op.kind() == kind, |o| o.latency_s),
                    0.5,
                ),
            );
        }
        let lift_p50 =
            |f: fn(&OpRecord) -> f64| ms(lat(&|o| traced(o) && o.op.kind() == "lift", f), 0.5);
        v.insert("service.run_ms_p50", lift_p50(|o| o.submit_s));
        v.insert("lift.lift_ms", lift_p50(|o| o.lift_s));
        v.insert("lift.validate_ms", lift_p50(|o| o.validate_s));
        v.insert("core.parse_ms", median(&oracle.parse) * 1e3);
        v.insert("lint.lint_ms", median(&oracle.lint) * 1e3);
        v.insert("core.plan_ms", median(&oracle.plan) * 1e3);
        v.insert("codegen.emit_ms", median(&oracle.emit) * 1e3);
        v.insert(
            "codegen.loc",
            median(&lat(&|o| o.loc.is_some(), |o| o.loc.unwrap_or(0) as f64)),
        );
        v.insert(
            "lint.deny_count",
            ops.iter().map(|o| o.deny_findings).sum::<u64>() as f64,
        );
        v.insert(
            "exec.computed_points",
            runs.iter().map(|o| o.points).sum::<u64>() as f64,
        );
        let counter = |o: &OpRecord, name: &str| {
            o.job_counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v as f64)
        };
        let traced_runs: Vec<&&OpRecord> = runs.iter().filter(|o| o.traced).collect();
        for (metric, name) in [
            ("exec.specialized_hits", "specialized_hits"),
            ("exec.vm_dispatches", "vm_dispatches"),
        ] {
            v.insert(metric, traced_runs.iter().map(|o| counter(o, name)).sum());
        }
        let compile: Vec<f64> = traced_runs
            .iter()
            .map(|o| counter(o, "vm_compile_time") / 1e6)
            .collect();
        v.insert("exec.vm_compile_ms", median(&compile));
        v.insert(
            "service.busy",
            ops.iter().filter(|o| o.busy()).count() as f64,
        );
        v.insert("service.cache_hits", stats.cache_hits as f64);
        v.insert("service.cache_misses", stats.cache_misses as f64);
        v.insert(
            "service.cache_hit_ratio",
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        );
        v.insert("service.jobs_failed", stats.jobs_failed as f64);
        // Kinds differ a hundredfold in latency, so traced and untraced
        // latency are compared per kind, each weighted by its op count.
        // The daemon's per-job hubs run either way: this is the cost of
        // the benchmark's own spans.
        let (mut with, mut without) = (0.0, 0.0);
        for kind in KINDS {
            let of = |t: bool| lat(&|o| o.traced == t && o.op.kind() == kind, |o| o.latency_s);
            let (t, p) = (of(true), of(false));
            let n = (t.len() + p.len()) as f64;
            with += n * median(&t);
            without += n * median(&p);
        }
        v.insert("trace.overhead_pct", 100.0 * (with / without - 1.0));
        out.notes.push(format!(
            "service: {} hits / {} misses, {} done, {} denied, {} failed, {} rejected",
            stats.cache_hits,
            stats.cache_misses,
            stats.jobs_done,
            stats.jobs_denied,
            stats.jobs_failed,
            stats.jobs_rejected
        ));
    }
    let count = |k: &str| ops.iter().filter(|o| o.op.kind() == k).count();
    out.notes.push(format!(
        "mscd_mix: {} operation(s) in {wall:.1} s from {CLIENTS} closed-loop client(s) against {workers} worker(s): {} hit, {} miss, {} lift, {} deny; {} submit latency sample(s)",
        ops.len(),
        count("hit"),
        count("miss"),
        count("lift"),
        count("deny"),
        ops.len()
    ));
    Ok((out, sequences))
}

fn submit(source: &str, run: bool, tenant: &str) -> Request {
    Request::Submit(Submission {
        tenant: tenant.to_string(),
        source: source.to_string(),
        target: None,
        run,
        sleep_ms: 0,
    })
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    spec: &MixSpec,
    seed: u64,
    client: usize,
    n: usize,
    trace: bool,
    tr: &Tracer,
    bases: &[String],
    socket: &Path,
) -> Result<ClientResult, String> {
    let mut conn = Client::connect(socket)?;
    let tenant = format!("client{client}");
    let mut res = ClientResult {
        ops: Vec::with_capacity(n),
        failures: Vec::new(),
        sequence: Vec::with_capacity(n),
    };
    for (index, op) in OpStream::new(spec, seed, client).take(n).enumerate() {
        let traced = trace && index % 2 == 1;
        match one_op(
            spec,
            &op,
            (client, index),
            traced,
            tr,
            bases,
            &tenant,
            &mut conn,
        ) {
            Ok(rec) => res.ops.push(rec),
            Err(why) => res
                .failures
                .push(format!("client {client} op {index} ({}): {why}", op.kind())),
        }
        res.sequence.push(op);
    }
    Ok(res)
}

/// One operation, timed from the client. `Err` when it failed before
/// reaching the daemon; the reply itself is checked later.
#[allow(clippy::too_many_arguments)]
fn one_op(
    spec: &MixSpec,
    op: &OpSpec,
    (client, index): (usize, usize),
    traced: bool,
    tr: &Tracer,
    bases: &[String],
    tenant: &str,
    conn: &mut Client,
) -> Result<OpRecord, String> {
    let root = tr.root("op", ((client as u64) << 32) | index as u64, traced);
    let mut rec = OpRecord {
        op: op.clone(),
        client,
        index,
        traced,
        latency_s: 0.0,
        submit_s: 0.0,
        lift_s: 0.0,
        validate_s: 0.0,
        source: String::new(),
        run: false,
        resp: Err(String::new()),
        points: 0,
        loc: None,
        deny_findings: 0,
        job_counters: Vec::new(),
    };
    let t_op = Instant::now();
    let (source, run) = match op {
        OpSpec::Hit { base } => (bases[*base].clone(), false),
        OpSpec::Miss { bench, tile, tag } => {
            let name = format!("{}_{tag}", benchmark(BenchmarkId::all()[*bench]).name);
            let (src, _) = tr.time(&root, "core.render", || catalog_source(*bench, tile, &name));
            (src?, false)
        }
        OpSpec::Deny { fixture } => (spec.deny_fixtures[*fixture].0.clone(), false),
        OpSpec::Lift { file } => {
            let (stem, text) = &spec.lift_sources[*file];
            let (outcome, lift_s) =
                tr.time(&root, "lift.lift", || msc_lift::lift_source(text, stem));
            rec.lift_s = lift_s;
            let Some(mut lifted) = outcome.lifted.filter(|_| !outcome.report.has_deny()) else {
                return Err(format!(
                    "lift of {stem} denied:\n{}",
                    outcome.report.render()
                ));
            };
            let (valid, validate_s) = tr.time(&root, "lift.validate", || {
                msc_lift::validate(&lifted, &msc_lift::DEFAULT_SEEDS)
            });
            rec.validate_s = validate_s;
            if let Err(e) = valid {
                return Err(format!("lift of {stem} failed validation: {e}"));
            }
            let shape = lifted.program.grid.shape.clone();
            set_schedule(&mut lifted.program, &shape);
            let (src, _) = tr.time(&root, "core.render", || {
                msc_core::parse::to_msc_source(&lifted.program, Some(Target::Cpu))
            });
            (src, true)
        }
    };
    let t_submit = Instant::now();
    let (resp, submit_s) = tr.time(&root, "service.submit", || {
        conn.call(&submit(&source, run, tenant))
    });
    (rec.source, rec.run, rec.resp, rec.submit_s) = (source, run, resp, submit_s);
    rec.latency_s = if run {
        t_op.elapsed()
    } else {
        t_submit.elapsed()
    }
    .as_secs_f64();
    tr.close(root);
    Ok(rec)
}

/// Check one reply against the in-process answer for its source, and
/// fill in the counts the record reports.
fn check(
    spec: &MixSpec,
    rec: &mut OpRecord,
    memo: &mut HashMap<String, Expect>,
    oracle: &mut OracleTimes,
) -> Result<(), String> {
    let expect = match memo.get(&rec.source) {
        Some(e) => e.clone(),
        None => {
            let e = expected(&rec.source, rec.run, oracle)
                .map_err(|e| format!("in-process oracle failed: {e}"))?;
            memo.insert(rec.source.clone(), e.clone());
            e
        }
    };
    let resp = match &rec.resp {
        Ok(r) => r,
        Err(e) => return Err(format!("request failed: {e}")),
    };
    match (resp, &expect) {
        (Response::Busy { reason, .. }, _) => Err(format!("daemon busy ({})", reason.as_str())),
        (
            Response::Done(d),
            Expect::Done {
                loc,
                files,
                tiles,
                steps,
                points,
            },
        ) => {
            rec.loc = Some(d.loc);
            let want_hit = match rec.op {
                OpSpec::Hit { .. } => Some(true),
                OpSpec::Miss { .. } => Some(false),
                _ => None,
            };
            if d.loc != *loc || d.files != *files {
                return Err(format!(
                    "daemon emitted {} LoC {:?}, in-process codegen {loc} LoC {files:?}",
                    d.loc, d.files
                ));
            }
            if want_hit.is_some_and(|h| h != d.cache_hit) {
                return Err(format!(
                    "cache_hit {} for a {} operation",
                    d.cache_hit,
                    rec.op.kind()
                ));
            }
            if rec.run && (d.steps != Some(*steps) || d.tiles != Some(*tiles)) {
                return Err(format!(
                    "run reported steps {:?} tiles {:?}, expected {steps} and {tiles}",
                    d.steps, d.tiles
                ));
            }
            if rec.run {
                rec.points = *points;
                if rec.traced {
                    rec.job_counters = d.counters.clone();
                }
            }
            Ok(())
        }
        (Response::Denied { report, .. }, Expect::Denied { codes }) => {
            let got: Vec<String> = report
                .get("diagnostics")
                .and_then(|d| d.as_arr())
                .unwrap_or(&[])
                .iter()
                .filter(|d| d.get("severity").and_then(|s| s.as_str()) == Some("deny"))
                .filter_map(|d| d.get("code").and_then(|c| c.as_str()).map(str::to_string))
                .collect();
            rec.deny_findings = got.len() as u64;
            let want = match rec.op {
                OpSpec::Deny { fixture } => spec.deny_fixtures[fixture].1.as_str(),
                _ => "",
            };
            if got.iter().any(|c| c == want) && codes.iter().any(|c| c == want) {
                Ok(())
            } else {
                Err(format!(
                    "denied with {got:?} (in-process lint {codes:?}), expected {want}"
                ))
            }
        }
        (other, want) => Err(format!("daemon answered {other:?}, expected {want:?}")),
    }
}

/// The in-process answer for `source`: parse → lint → (plan) → codegen,
/// each call timed.
fn expected(source: &str, run: bool, t: &mut OracleTimes) -> Result<Expect, String> {
    let (parsed, parse_s) = timed(|| msc_core::parse::parse_unchecked(source));
    t.parse.push(parse_s);
    let parsed = parsed.map_err(|e| e.to_string())?;
    let program = parsed.program;
    let target = parsed.target.unwrap_or(Target::Cpu);
    let (report, lint_s) = timed(|| msc_lint::lint_program(&program, Some(target)));
    t.lint.push(lint_s);
    if report.has_deny() {
        let codes = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == msc_lint::Severity::Deny)
            .map(|d| d.code.as_str().to_string())
            .collect();
        return Ok(Expect::Denied { codes });
    }
    let (mut tiles, mut steps, mut points) = (0, 0, 0);
    if run {
        let k = &program.stencil.kernels[0];
        let (plan, plan_s) =
            timed(|| ExecPlan::lower(&k.schedule, program.grid.ndim(), &program.grid.shape));
        t.plan.push(plan_s);
        let plan = plan.map_err(|e| e.to_string())?;
        steps = program.timesteps as u64;
        tiles = plan.num_tiles() as u64 * steps;
        points = program.grid.shape.iter().product::<usize>() as u64 * steps;
    }
    let (pkg, emit_s) = timed(|| msc_codegen::compile_to_source(&program, target));
    t.emit.push(emit_s);
    let pkg = pkg.map_err(|e| e.to_string())?;
    Ok(Expect::Done {
        loc: pkg.total_loc() as u64,
        files: pkg.file_names().iter().map(|f| f.to_string()).collect(),
        tiles,
        steps,
        points,
    })
}
