//! Order statistics and the A/B verdict rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default exclusive method), so a spread computed here equals the one
//! the acceptance driver computes from the same values.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Five-number summary of a sample (never best-of-N: the median is the
/// reported value, the quartiles its spread).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty. A single value is its own
    /// median and quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&v);
        Some(Summary { n: v.len(), min: v[0], q1, median, q3, max: v[v.len() - 1] })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// `statistics.quantiles(sorted, n=4)` for ascending `sorted`.
fn quartiles_sorted(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Outcome of comparing one metric between a baseline and a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread exceeds the bound and the two samples'
    /// ranges overlap: the data cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares candidate `b` against baseline `a`. `bound` is the share of
/// the baseline median by which the metric may worsen.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.median == 0.0 {
        return if b.median == 0.0 { Verdict::Same } else { Verdict::Unresolved };
    }
    // Positive = the candidate is worse.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    let overlap = a.min <= b.max && b.min <= a.max;
    if a.spread().max(b.spread()) > bound && overlap {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let odd = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((odd.q1, odd.median, odd.q3), (1.5, 3.0, 4.5));
        assert_eq!((odd.n, odd.min, odd.max), (5, 1.0, 5.0));
        // statistics.quantiles([1,2,3,4,5,6], n=4) == [1.75, 3.5, 5.25]
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!((even.q1, even.median, even.q3), (1.75, 3.5, 5.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let two = Summary::of(&[20.0, 10.0]).unwrap();
        assert_eq!((two.q1, two.median, two.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let ten = Summary::of(&ten).unwrap();
        assert_eq!((ten.q1, ten.median, ten.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn single_and_empty_samples() {
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.spread()), (7.0, 7.0, 7.0, 0.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    fn tight(center: f64) -> Summary {
        Summary::of(&[center * 0.99, center, center * 1.01]).unwrap()
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        let base = tight(100.0);
        assert_eq!(verdict(&base, &tight(103.0), Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&base, &tight(120.0), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &tight(80.0), Better::Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &tight(120.0), Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &tight(80.0), Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn wide_overlapping_samples_are_unresolved() {
        let noisy_a = Summary::of(&[80.0, 100.0, 125.0]).unwrap();
        let noisy_b = Summary::of(&[90.0, 115.0, 140.0]).unwrap();
        assert!(noisy_a.spread() > 0.10);
        assert_eq!(verdict(&noisy_a, &noisy_b, Better::Lower, 0.10), Verdict::Unresolved);
        // Wide but disjoint: every candidate run is worse than every
        // baseline run, so the verdict resolves.
        let far = Summary::of(&[200.0, 240.0, 300.0]).unwrap();
        assert_eq!(verdict(&noisy_a, &far, Better::Lower, 0.10), Verdict::Worse);
    }
}
