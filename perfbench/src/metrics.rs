//! The metric vocabulary (names and units, mirrored in BENCHMARK.json),
//! the per-run value table, and the order statistics the workloads use.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports each of them from an
/// untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("mpts_per_s", "Mpts/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported from a traced run (`--trace 1`). The
/// prefix names the layer. A layer a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.parse_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("lint.lint_ms", "ms"),
    ("lint.deny_count", "count"),
    ("lift.lift_ms", "ms"),
    ("lift.validate_ms", "ms"),
    ("exec.tier_compile_ms", "ms"),
    ("exec.vm_compile_ms", "ms"),
    ("exec.specialized_hits", "count"),
    ("exec.vm_dispatches", "count"),
    ("exec.compute_s", "s"),
    ("exec.computed_points", "count"),
    ("exec.step_ms_p50", "ms"),
    ("exec.step_ms_p99", "ms"),
    ("exec.barrier_wait_share", "ratio"),
    ("exec.pool_steals", "count"),
    ("exec.pool_parks", "count"),
    ("exec.bytes_per_point", "B/pt"),
    ("exec.achieved_gbs", "GB/s"),
    ("exec.roofline_pct", "%"),
    ("exec.verify_s", "s"),
    ("host.stream_gbs", "GB/s"),
    ("host.stream_mib", "MiB"),
    ("host.llc_mib", "MiB"),
    ("host.nproc", "count"),
    ("host.busy_threads", "count"),
    ("host.steal_pct", "%"),
    ("comm.halo_messages", "count"),
    ("comm.halo_bytes", "B"),
    ("comm.pack_ms", "ms"),
    ("comm.unpack_ms", "ms"),
    ("comm.halo_wait_p50_us", "us"),
    ("comm.halo_wait_p99_us", "us"),
    ("comm.overlap_ms", "ms"),
    ("comm.comm_share", "ratio"),
    ("codegen.emit_ms", "ms"),
    ("codegen.loc", "count"),
    ("service.ops", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_p99", "ms"),
    ("service.hit_ms_p50", "ms"),
    ("service.miss_ms_p50", "ms"),
    ("service.lift_ms_p50", "ms"),
    ("service.deny_ms_p50", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.busy", "count"),
    ("service.jobs_failed", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Linear-interpolated quantile of `xs` (`q` in `0..=1`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The statistic of the end-to-end times of one run. On a shared host,
/// time taken by other tenants (stolen CPU, memory bandwidth) only ever
/// adds, and with two threads in lockstep a stall on either core stalls
/// both; the lower quartile of the repetitions follows the program more
/// closely than the median, and unlike the minimum it is not one extreme
/// sample.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

/// Render the result line the benchmark ends with: every metric of the
/// selected set, each with its unit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    set: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A finite number as JSON, with all its digits (Rust's shortest
/// round-trip form); non-finite values, which JSON cannot carry, as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut v = Values::new();
        v.insert("setup_s", 0.5);
        let line = result_json(true, 3, 0, END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
    }
}
