//! Log-scale histograms for survey post-processing.
//!
//! The Reddit experiment (§5.7, Fig. 6) bins triangle timing deltas by
//! `ceil(log2(Δt))` and counts pairs `(ceil(log2(Δt_open)),
//! ceil(log2(Δt_close)))` in a joint distribution; the degree-metadata
//! experiment (§5.9) does the same with `ceil(log2(d(v)))` triples. These
//! types turn the raw `(bucket, count)` pairs a
//! [`DistCountingSet`](tripoll_ygm::container::DistCountingSet) gathers
//! into marginal and joint distributions with text renderings.

/// `ceil(log2(x))` as used by the paper's callbacks (Alg. 4).
///
/// `x = 0` is mapped to bucket 0 (the paper leaves simultaneous edges
/// unspecified; 0 and 1 share the first bucket here), `x = 1 → 0`,
/// `x = 2 → 1`, `x = 3 → 2`, `x = 4 → 2`, ...
#[inline]
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

/// A one-dimensional histogram over `u32` buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Builds from `(bucket, count)` pairs (e.g. a gathered counting set).
    pub fn from_pairs<I: IntoIterator<Item = (u32, u64)>>(pairs: I) -> Self {
        let mut h = Histogram::new();
        for (bucket, count) in pairs {
            h.add(bucket, count);
        }
        h
    }

    /// Adds `count` observations to `bucket`.
    pub fn add(&mut self, bucket: u32, count: u64) {
        let idx = bucket as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += count;
    }

    /// Count in `bucket`.
    pub fn count(&self, bucket: u32) -> u64 {
        self.counts.get(bucket as usize).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(bucket, count)` over non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b as u32, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, c) in other.iter() {
            self.add(b, c);
        }
    }

    /// ASCII bar rendering with log-scaled bars (the figure axes are
    /// log-scale), one line per bucket.
    pub fn render(&self, label: &str) -> String {
        let mut out = format!("{label}\n");
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let scale = |c: u64| {
            if c == 0 {
                0
            } else {
                // 1..=50 chars, log scaled.
                let frac = ((c as f64).ln() + 1.0) / ((max as f64).ln() + 1.0);
                (frac * 50.0).ceil() as usize
            }
        };
        for (b, c) in self.counts.iter().enumerate() {
            out.push_str(&format!("  2^{b:<3} | {:<50} {c}\n", "#".repeat(scale(*c))));
        }
        out
    }
}

/// A two-dimensional histogram over `(u32, u32)` bucket pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JointHistogram {
    counts: std::collections::BTreeMap<(u32, u32), u64>,
}

impl JointHistogram {
    /// Creates an empty joint histogram.
    pub fn new() -> Self {
        JointHistogram::default()
    }

    /// Builds from `((x_bucket, y_bucket), count)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = ((u32, u32), u64)>>(pairs: I) -> Self {
        let mut h = JointHistogram::new();
        for ((x, y), count) in pairs {
            h.add(x, y, count);
        }
        h
    }

    /// Adds `count` observations at `(x, y)`.
    pub fn add(&mut self, x: u32, y: u32, count: u64) {
        *self.counts.entry((x, y)).or_insert(0) += count;
    }

    /// Count at `(x, y)`.
    pub fn count(&self, x: u32, y: u32) -> u64 {
        self.counts.get(&(x, y)).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Marginal distribution over the x (first) coordinate.
    pub fn marginal_x(&self) -> Histogram {
        Histogram::from_pairs(self.counts.iter().map(|(&(x, _), &c)| (x, c)))
    }

    /// Marginal distribution over the y (second) coordinate.
    pub fn marginal_y(&self) -> Histogram {
        Histogram::from_pairs(self.counts.iter().map(|(&(_, y), &c)| (y, c)))
    }

    /// Iterates `((x, y), count)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Text heat map: rows are y buckets (descending), columns x buckets;
    /// cells are log10-scaled digits, '.' for empty — a terminal rendition
    /// of Fig. 6's joint distribution.
    pub fn render(&self, x_label: &str, y_label: &str) -> String {
        let (mut max_x, mut max_y) = (0u32, 0u32);
        for &(x, y) in self.counts.keys() {
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        let mut out = format!("{y_label} (rows, 2^y) vs {x_label} (cols, 2^x)\n");
        for y in (0..=max_y).rev() {
            out.push_str(&format!("  {y:>3} |"));
            for x in 0..=max_x {
                let c = self.count(x, y);
                let ch = if c == 0 {
                    '.'
                } else {
                    // digit = floor(log10(c)) capped at 9
                    let d = (c as f64).log10().floor() as u32;
                    char::from_digit(d.min(9), 10).unwrap()
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "       {}\n",
            (0..=max_x)
                .map(|x| char::from_digit(x % 10, 10).unwrap())
                .collect::<String>()
        ));
        out
    }

    /// CSV rendering: `x,y,count` lines (plot-ready).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,y,count\n");
        for ((x, y), c) in self.iter() {
            out.push_str(&format!("{x},{y},{c}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1 << 20), 20);
        assert_eq!(ceil_log2((1 << 20) + 1), 21);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        for value in [1, 7, 8] {
            h.add(ceil_log2(value), 1); // buckets 0, 3, 3
        }
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(9), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(0, 1), (3, 2)]);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::from_pairs([(0, 1), (2, 5)]);
        let b = Histogram::from_pairs([(2, 5), (4, 1)]);
        a.merge(&b);
        assert_eq!(a.count(2), 10);
        assert_eq!(a.count(4), 1);
        assert_eq!(a.total(), 12);
    }

    #[test]
    fn joint_histogram_marginals() {
        let j = JointHistogram::from_pairs([((0, 1), 2), ((0, 3), 4), ((2, 1), 1)]);
        assert_eq!(j.total(), 7);
        let mx = j.marginal_x();
        assert_eq!(mx.count(0), 6);
        assert_eq!(mx.count(2), 1);
        let my = j.marginal_y();
        assert_eq!(my.count(1), 3);
        assert_eq!(my.count(3), 4);
    }

    #[test]
    fn joint_open_le_close_property() {
        // Closure-time surveys guarantee open <= close; bucket monotone.
        let mut j = JointHistogram::new();
        for (open, close) in [(3u64, 10u64), (1, 1), (100, 5000)] {
            assert!(open <= close);
            j.add(ceil_log2(open), ceil_log2(close), 1);
        }
        for ((x, y), _) in j.iter() {
            assert!(x <= y, "open bucket {x} must not exceed close bucket {y}");
        }
    }

    #[test]
    fn renders_do_not_panic_and_mention_counts() {
        let h = Histogram::from_pairs([(0, 10), (5, 1000)]);
        let s = h.render("closing times");
        assert!(s.contains("closing times"));
        assert!(s.contains("1000"));

        let j = JointHistogram::from_pairs([((0, 0), 1), ((3, 5), 99)]);
        let r = j.render("open", "close");
        assert!(r.contains("open"));
        let csv = j.to_csv();
        assert!(csv.contains("3,5,99"));
    }

    #[test]
    fn empty_renders() {
        assert!(Histogram::new().render("x").contains('x'));
        assert_eq!(JointHistogram::new().total(), 0);
        let _ = JointHistogram::new().render("a", "b");
    }
}
