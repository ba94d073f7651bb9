//! Small numeric helpers: medians, the tail percentile, the output digest
//! and the process's memory high-water mark.

/// Percentiles the tail is chosen from, in per-mille, highest first. The
/// ladder stops at p99: beyond it a trial of tens of microseconds reads
/// host preemption rather than the workload.
const TAIL_LADDER: [u64; 2] = [990, 900];

/// Samples a tail percentile must leave above it to be reported.
const TAIL_BEYOND: usize = 10;

/// A tail percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in per-mille (990 is p99).
    pub permille: u64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
    /// Samples in the set.
    pub samples: usize,
}

impl Tail {
    /// `p99`, `p99.9`, ... for display.
    pub fn label(&self) -> String {
        if self.permille.is_multiple_of(10) {
            format!("p{}", self.permille / 10)
        } else {
            format!("p{}.{}", self.permille / 10, self.permille % 10)
        }
    }
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_BEYOND`] samples above it, or `None` when the set is too small
/// for any. `sorted` must be in ascending order.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&permille| {
        let rank = (permille as usize * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| Tail {
            permille,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

/// Median of an ascending sample set (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty set");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a over 64-bit words: a stable digest of simulated statistics.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 finaliser: derives independent per-trial seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
///
/// # Panics
///
/// Panics when the field cannot be read: the benchmark reports memory, so
/// a host without procfs cannot run it.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().expect("a kB count");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn ten_samples_have_no_tail() {
        assert_eq!(tail(&ramp(10)), None);
    }

    #[test]
    fn a_hundred_samples_give_p90() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.label().as_str(), t.value, t.beyond, t.samples), ("p90", 90.0, 10, 100));
    }

    #[test]
    fn a_thousand_samples_give_p99() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.label().as_str(), t.value, t.beyond, t.samples), ("p99", 990.0, 10, 1000));
    }

    #[test]
    fn the_rank_rounds_up_between_rungs() {
        // 150 samples: p99 leaves 1 above, p90 leaves 15.
        let t = tail(&ramp(150)).unwrap();
        assert_eq!((t.permille, t.value, t.beyond), (900, 135.0, 15));
        assert_eq!(tail(&ramp(99)), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }
}
