//! What the benchmark needs to know about the machine it runs on: core
//! count (the thread budget), cache sizes, and peak resident memory.

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuse a configuration whose busy threads exceed the cores: a number
/// measured that way measures the scheduler, not the program.
pub fn check_thread_budget(what: &str, busy: usize) -> Result<(), String> {
    let n = nproc();
    if busy > n {
        return Err(format!(
            "{what} needs {busy} busy threads but this host has {n} core(s); refusing to measure the scheduler"
        ));
    }
    Ok(())
}

/// Peak resident set of this process in MB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// `cpu` line of `/proc/stat`: time the hypervisor gave this guest's
/// cores to someone else, against all time.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings, in %.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Size in bytes of the largest cache of the given level that cpu0
/// reports through sysfs (`None` where sysfs has no cache topology).
pub fn cache_bytes(level: u32) -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .filter_map(|e| {
            let p = e.path();
            let lvl: u32 = std::fs::read_to_string(p.join("level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let size = std::fs::read_to_string(p.join("size")).ok()?;
            (lvl == level).then(|| parse_cache_size(size.trim()))?
        })
        .max()
}

/// The last-level cache: the highest level sysfs reports.
pub fn llc_bytes() -> Option<u64> {
    (1..=4).rev().find_map(cache_bytes)
}

fn parse_cache_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("2048K"), Some(2 << 20));
        assert_eq!(parse_cache_size("300M"), Some(300 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn budget_refuses_oversubscription() {
        assert!(check_thread_budget("t", nproc()).is_ok());
        assert!(check_thread_budget("t", nproc() + 1).is_err());
    }
}
