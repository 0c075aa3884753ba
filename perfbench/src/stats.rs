//! Exact percentiles over raw samples, and process resource readings.

/// The `p`-th percentile (`0 < p <= 100`) of `samples` by the nearest-rank
/// method: the smallest sample with at least `p`% of all samples at or
/// below it. Exact — no bucketing — so any shift in the distribution
/// shows. `None` for no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of real values (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Process user plus system CPU time so far, in microseconds.
///
/// Read from `/proc/self/stat` (fields 14 and 15, in clock ticks of the
/// kernel's fixed 100 Hz `USER_HZ`).
pub fn process_cpu_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may contain spaces; fields
    // are counted from after its closing parenthesis (field 3 onwards).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000)
}

/// The process's peak resident set size (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), Some(50));
        assert_eq!(percentile(&mut s, 99.0), Some(99));
        assert_eq!(percentile(&mut s, 100.0), Some(100));
        assert_eq!(percentile(&mut s, 0.5), Some(1));
        let mut s = vec![10, 20, 30, 40, 1000];
        assert_eq!(percentile(&mut s, 50.0), Some(30));
        assert_eq!(percentile(&mut s, 80.0), Some(40));
        assert_eq!(percentile(&mut s, 81.0), Some(1000));
        assert_eq!(percentile(&mut [7], 99.0), Some(7));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn a_ten_percent_shift_moves_the_percentiles_by_ten_percent() {
        let base: Vec<u64> = (0..10_000).map(|i| 1000 + i * 7 % 5000).collect();
        let mut shifted: Vec<u64> = base.iter().map(|v| v * 11 / 10).collect();
        let mut base = base;
        for p in [50.0, 99.0] {
            let a = percentile(&mut base, p).unwrap() as f64;
            let b = percentile(&mut shifted, p).unwrap() as f64;
            assert!((b / a - 1.1).abs() < 0.001, "p{p}: {a} -> {b}");
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn proc_readings_are_available() {
        assert!(process_cpu_us().is_some());
        assert!(peak_rss_kib().unwrap() > 0);
    }
}
