//! STREAM-style triad (`a[i] = b[i] + s * c[i]`), the host-bandwidth
//! probe behind `exec.roofline_pct` (the paper's Fig. 9 method, applied
//! to the machine the benchmark runs on).

use std::time::Instant;

/// Measured host bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct StreamResult {
    /// Best triad bandwidth over the repetitions, counting 24 bytes per
    /// element (two loads and one store, no write-allocate), as STREAM
    /// does.
    pub gbs: f64,
    /// Total size of the three arrays.
    pub mib: f64,
}

/// Run the triad over three arrays of `elems` doubles each, split over
/// `threads` threads, `reps` times; report the best.
pub fn triad(elems: usize, threads: usize, reps: usize) -> StreamResult {
    let threads = threads.max(1);
    let mut a = vec![0.0f64; elems];
    let b = vec![1.0f64; elems];
    let c = vec![2.0f64; elems];
    let chunk = elems.div_ceil(threads);
    let mut best = f64::INFINITY;
    for rep in 0..reps.max(1) {
        let s = std::hint::black_box(3.0 + rep as f64);
        let t0 = Instant::now();
        std::thread::scope(|sc| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                sc.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    let bytes = 24.0 * elems as f64;
    StreamResult {
        gbs: bytes / best / 1e9,
        mib: bytes / (1 << 20) as f64,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn triad_reports_a_positive_bandwidth() {
        let r = super::triad(1 << 16, 2, 2);
        assert!(r.gbs > 0.0 && r.gbs.is_finite());
        assert_eq!(r.mib, 1.5);
    }
}
