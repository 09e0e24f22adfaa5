//! perfbench: the MSC benchmark. It drives the public entry points of
//! each layer from outside the program, times every call from its own
//! files, and checks every output. See README.md for the workloads and
//! for which layer metric should move which end-to-end metric.

pub mod host;
pub mod metrics;
pub mod mix;
pub mod spans;
pub mod stencil;
pub mod stream;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep3d,
    Halo3d,
    MscdMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sweep3d, Workload::Halo3d, Workload::MscdMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep3d => "sweep3d",
            Workload::Halo3d => "halo3d",
            Workload::MscdMix => "mscd_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long a run measures: at least `min` repetitions (operations per
/// client for `mscd_mix`), then more until `seconds` have passed.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min: usize,
}

impl Budget {
    /// Whether to run another unit of work after `done` of them, the
    /// first having started at `start`.
    pub fn more(&self, done: usize, start: std::time::Instant) -> bool {
        done < self.min || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// What one run of a workload measured. `values` holds every metric the
/// workload produced, by name; the caller prints the end-to-end or the
/// per-layer subset.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: metrics::Values,
    /// Human-readable report lines (printed to stderr).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; a failure also goes to the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator, so input streams
/// depend only on `--seed` and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
