//! Summary statistics used by every workload: median, quartiles, the tail
//! percentile, failure share and self time. Kept free of I/O so the unit
//! tests below pin the exact definitions the results are reported with.

/// Sorted copy of `xs` (NaN-free input assumed: every sample is a measured
/// duration or count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `xs`; the mean of the two middle values for an even count.
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so a
/// spread printed here matches the one an external checker computes.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// bound is compared against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// A tail latency: the highest percentile that still has at least ten
/// samples beyond it, with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `95.0`); `100.0` when fewer than twenty samples
    /// leave no percentile with ten beyond it, in which case `value` is the
    /// maximum seen.
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

/// Percentiles considered for the tail, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of sorted samples: the smallest value with at
/// least `pct`% of the samples at or below it.
fn nearest_rank(v: &[f64], pct: f64) -> (usize, f64) {
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (rank, v[rank - 1])
}

/// The highest percentile of [`TAIL_CANDIDATES`] with at least ten samples
/// ranked beyond it (nearest-rank). `None` for no samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for pct in TAIL_CANDIDATES {
        let (rank, value) = nearest_rank(&v, pct);
        if n - rank >= 10 {
            return Some(Tail { pct, value, n });
        }
    }
    Some(Tail {
        pct: 100.0,
        value: v[n - 1],
        n,
    })
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that its children cover. Children may overlap each other (concurrent
/// work) or stick out of the parent; only their union inside the parent
/// counts.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span bounds are never NaN"));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    ((pe - ps) - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), Some(0.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 (rank 90) leaves exactly 10 beyond, p95 only 5.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
        // 1000 samples: p99 leaves 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 99.0);
        // 20 samples: only the median leaves ten beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value), (50.0, 10.0));
        // Too few samples for any percentile: the maximum, labelled p100.
        let t = tail(&[3.0, 9.0, 4.0]).unwrap();
        assert_eq!((t.pct, t.value, t.n), (100.0, 9.0, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 40), 0.0);
        assert_eq!(failed_share(1, 4), 0.25);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 6.0)]), 5.0);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // Fully covered.
        assert_eq!(self_time((0.0, 4.0), &[(0.0, 4.0)]), 0.0);
    }
}
