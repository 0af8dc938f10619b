//! Small helpers: order statistics, process memory and run metadata.

use std::path::Path;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The median of each column of equally long rows.
pub fn elementwise_median(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.first().map_or(0, Vec::len);
    (0..width)
        .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<f64>>()))
        .collect()
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of an ascending slice; 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Share of the total held by the slowest `fraction` of the samples (at
/// least one sample).
pub fn tail_share(samples: &[f64], fraction: f64) -> f64 {
    let total: f64 = samples.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let n = ((samples.len() as f64 * fraction).ceil() as usize).max(1);
    v[..n].iter().sum::<f64>() / total
}

/// Fisher–Yates shuffle driven by SplitMix64: the same seed always gives
/// the same order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// What one calibration pass takes on the reference machine (a 2-vCPU VM
/// at its quiet speed). Timings scaled by [`speed_scale`] read as seconds on
/// that machine.
pub const CALIBRATION_REFERENCE_S: f64 = 0.009;

/// The factor that turns a wall time measured between two calibration
/// passes into reference-machine time.
pub fn speed_scale(pass_before_s: f64, pass_after_s: f64) -> f64 {
    CALIBRATION_REFERENCE_S / ((pass_before_s + pass_after_s) / 2.0)
}

/// Keys the calibration kernel sorts and indexes per pass.
const CALIBRATION_KEYS: usize = 1 << 15;

/// Seconds one pass of the calibration kernel takes right now: sorting
/// pseudo-random keys and building and draining an ordered map of them,
/// branchy integer work like the scheduler's. It shares no code with the
/// program, so a change to the program never moves it; only the machine's
/// current speed does.
pub fn calibration_pass_s() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..CALIBRATION_KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let started = std::time::Instant::now();
    let mut map = std::collections::BTreeMap::new();
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k % 50_021, i);
    }
    keys.sort_unstable();
    let mut acc = keys[keys.len() / 2];
    for k in &keys {
        if let Some(v) = map.remove(&(k % 50_021)) {
            acc = acc.wrapping_add(v as u64);
        }
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted[..1], 0.99), 1.0);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((tail_share(&[1.0, 1.0, 2.0], 0.01) - 0.5).abs() < 1e-12);
        let rows = vec![vec![1.0, 9.0], vec![5.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(elementwise_median(&rows), vec![3.0, 4.0]);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..50).collect::<Vec<u32>>());
    }
}
