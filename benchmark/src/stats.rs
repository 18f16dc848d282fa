//! Order statistics over a handful of samples.

/// Median, minimum, maximum and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarises `samples`; `None` when there are none. With an even count the
/// median is the mean of the two middle values.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        min: v[0],
        max: v[n - 1],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        let s = summarize(&[7.5]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn empty_has_no_summary() {
        assert_eq!(summarize(&[]), None);
    }
}
