//! Summaries of measured samples: medians, the reportable tail, Q-error.

use mathkit::quantiles::nearest_rank;
use mathkit::total_cmp_f64;

/// Sorts a sample ascending. Every value is kept: an infinite Q-error
/// sorts last, so it raises the upper quantiles instead of leaving the
/// sample.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(total_cmp_f64);
    v
}

/// Nearest-rank quantile `q` (a fraction) of an unsorted sample; 0 when
/// the sample is empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    nearest_rank(&sorted(samples), q)
}

/// The median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The reportable tail of a latency sample: the highest percentile on
/// a ladder that still has at least [`TAIL_MIN_BEYOND`] samples beyond
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.9).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Minimum samples beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles the gated tail may be reported at, highest first. It
/// stops at p90: higher ones swung by more than the largest allowed bound
/// between runs of one seed on a shared 2-core host (see `README.md`).
pub const GATED_LADDER: [f64; 3] = [90.0, 75.0, 50.0];

/// The full ladder, reported as a note beside the gated tail.
pub const FULL_LADDER: [f64; 9] = [99.99, 99.95, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 50.0];

/// The highest `ladder` percentile (which must end at 50) with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(samples: &[f64], ladder: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    for &p in ladder {
        // The rank `nearest_rank` reads, and how many samples sit above it.
        let rank = (n.saturating_sub(1) as f64 * p / 100.0).round() as usize;
        let beyond = n.saturating_sub(rank + 1);
        if beyond >= TAIL_MIN_BEYOND || p == 50.0 {
            return Tail {
                percentile: p,
                value: nearest_rank(&s, p / 100.0),
                beyond,
                samples: n,
            };
        }
    }
    Tail {
        percentile: 50.0,
        value: nearest_rank(&s, 0.5),
        beyond: n / 2,
        samples: n,
    }
}

/// Q-error of an estimate against an actual: `max(e/a, a/e)`, ≥ 1.
/// Non-positive inputs yield infinity (an estimate that cannot be
/// compared is maximally wrong).
pub fn qerror(estimate: f64, actual: f64) -> f64 {
    if estimate > 0.0 && actual > 0.0 && estimate.is_finite() && actual.is_finite() {
        (estimate / actual).max(actual / estimate)
    } else {
        f64::INFINITY
    }
}

/// Most slices a run's latencies are cut into.
pub const SLICES: usize = 8;

/// Fewest samples in a slice: enough for p90 to keep [`TAIL_MIN_BEYOND`]
/// samples beyond it, so the reported percentile does not depend on how
/// many ops a run fitted.
pub const MIN_SLICE: usize = 100;

/// A run's per-op sample (in op order) cut into up to [`SLICES`] equal
/// consecutive slices of at least [`MIN_SLICE`] samples; a remainder
/// shorter than a slice is left out. The slices of a short run are one,
/// the whole sample.
pub fn slices(samples: &[f64]) -> std::slice::ChunksExact<'_, f64> {
    let n = (samples.len() / MIN_SLICE).clamp(1, SLICES);
    samples.chunks_exact((samples.len() / n).max(1))
}

/// The gated tail: each slice's tail is taken at the highest
/// [`GATED_LADDER`] percentile that leaves [`TAIL_MIN_BEYOND`] samples
/// beyond it in one slice (p90 once a run has 100 ops), and the median
/// over slices is reported. A host stall that spoils a slice or two does
/// not move it.
pub fn sliced_tail(samples: &[f64]) -> Tail {
    let first = tail(slices(samples).next().unwrap_or(samples), &GATED_LADDER);
    let values: Vec<f64> = slices(samples)
        .map(|c| nearest_rank(&sorted(c), first.percentile / 100.0))
        .collect();
    Tail {
        percentile: first.percentile,
        value: median(&values),
        beyond: first.beyond,
        samples: samples.len(),
    }
}

/// FNV-1a, folded into `h` — the placement digest's hash.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&v, &FULL_LADDER);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        let v: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(tail(&v, &FULL_LADDER).percentile, 99.99);
        assert_eq!(tail(&v, &GATED_LADDER).percentile, 90.0);
        assert_eq!(tail(&v[..60], &GATED_LADDER).percentile, 75.0);
        assert_eq!(tail(&[1.0, 2.0], &GATED_LADDER).percentile, 50.0);
    }

    #[test]
    fn sliced_tail_ignores_one_spoiled_slice() {
        let mut v: Vec<f64> = (0..8000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[..1000] {
            *x += 1e6;
        }
        let t = sliced_tail(&v);
        assert_eq!((t.percentile, t.beyond, t.samples), (90.0, 100, 8000));
        assert_eq!(t.value, 899.0);
        // 650 samples: six slices of 108, still at p90.
        let t = sliced_tail(&v[1000..1650]);
        assert_eq!((t.percentile, t.beyond), (90.0, 11));
    }

    #[test]
    fn qerror_is_symmetric_and_at_least_one() {
        assert_eq!(qerror(2.0, 1.0), 2.0);
        assert_eq!(qerror(1.0, 2.0), 2.0);
        assert_eq!(qerror(3.0, 3.0), 1.0);
        assert!(qerror(0.0, 1.0).is_infinite());
    }

    #[test]
    fn infinite_qerrors_stay_in_the_quantiles() {
        // A hundred Q-errors 1..=100; turning the k best into zero
        // estimates (infinite Q-error) raises the quantiles, and p90 is
        // infinite once more than a tenth of the sample is affected.
        let with_zeros = |k: u32| -> Vec<f64> {
            (1..=100)
                .map(|i| {
                    if i <= k {
                        qerror(0.0, 1.0)
                    } else {
                        f64::from(i)
                    }
                })
                .collect()
        };
        assert_eq!(quantile(&with_zeros(0), 0.5), 51.0);
        assert_eq!(quantile(&with_zeros(0), 0.9), 90.0);
        assert_eq!(quantile(&with_zeros(5), 0.5), 56.0);
        assert_eq!(quantile(&with_zeros(5), 0.9), 95.0);
        assert_eq!(quantile(&with_zeros(10), 0.9), 100.0);
        assert!(quantile(&with_zeros(11), 0.9).is_infinite());
    }
}
