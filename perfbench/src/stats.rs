//! Small statistics helpers: smoothed percentiles, medians, scaling
//! exponents and the process's peak resident memory.

/// Half-width, in percentage points, of the rank window [`percentile`]
/// averages over.
pub const SMOOTHING: f64 = 5.0;

/// The `p`-th percentile (`0 < p <= 100`) of `samples`, smoothed: the
/// mean of the samples whose nearest rank lies within [`SMOOTHING`]
/// points of `p`. A run repeats a fixed mix of jobs, so a plain
/// nearest-rank percentile is one job's time and moves with that one
/// job's noise; the window averages over the jobs around it. `None` when
/// there are no samples. The input need not be sorted.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |q: f64| ((q * n as f64 / 100.0).ceil().max(1.0) as usize).min(n);
    let window = &sorted[rank(p - SMOOTHING) - 1..rank(p + SMOOTHING)];
    Some(window.iter().sum::<f64>() / window.len() as f64)
}

/// How many samples lie strictly above the `p`-th percentile, printed
/// beside it: run lengths are chosen to keep ten or more beyond p90.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    percentile(samples, p).map_or(0, |q| samples.iter().filter(|&&s| s > q).count())
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The least-squares slope of `ln y` over `ln x`: the exponent `k` of a
/// cost growing as `x^k`. `None` with fewer than two usable points.
pub fn exponent(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    Some(sxy / sxx)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 100.0), Some(7.0));
        // Ranks 2..=3 of 1..=4 lie within 5 points of p50; only the 4th
        // within 5 points of p90; the window clamps at either end.
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(percentile(&xs, 90.0), Some(4.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 1.0), Some(1.0));
        assert_eq!(percentile(&[2.0, 2.0, 2.0], 90.0), Some(2.0));
        // 1..=100: ranks 85..=95 around p90, mean 90, ten samples above.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(beyond(&hundred, 90.0), 10);
        assert_eq!(beyond(&[], 90.0), 0);
        // One outlier beside the window does not move it.
        let mut spiked = hundred.clone();
        spiked[99] = 1e9;
        assert_eq!(percentile(&spiked, 90.0), Some(90.0));
    }

    #[test]
    fn median_and_exponent() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let quadratic = [(1000.0, 1.0), (2000.0, 4.0), (4000.0, 16.0)];
        assert!((exponent(&quadratic).unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(exponent(&[(1000.0, 1.0)]), None);
        assert_eq!(exponent(&[(1000.0, 1.0), (1000.0, 2.0)]), None);
    }
}
