//! Interleaved pixel sequences — BSLC's static load balancing.
//!
//! Molnar et al. observe that sparse merging is load-unbalanced when one
//! processor's half-image holds more non-blank pixels than its partner's.
//! BSLC (Section 3.3, Figure 6) fixes this by exchanging *interleaved
//! sections* instead of contiguous halves: non-blank pixels are spread
//! almost evenly over both halves regardless of where the object projects.
//!
//! A [`StridedSeq`] denotes the arithmetic sequence of linear pixel indices
//! `{ start + i·stride : 0 ≤ i < count }`. Splitting it into even- and
//! odd-position subsequences doubles the stride, which is exactly the
//! per-stage halving binary-swap needs.

/// An arithmetic sequence of linear pixel indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StridedSeq {
    /// First index.
    pub start: usize,
    /// Distance between consecutive indices (≥ 1).
    pub stride: usize,
    /// Number of indices.
    pub count: usize,
}

impl StridedSeq {
    /// The dense sequence `0, 1, …, len−1` covering a whole image.
    pub fn dense(len: usize) -> Self {
        StridedSeq {
            start: 0,
            stride: 1,
            count: len,
        }
    }

    /// Splits into (even-position, odd-position) subsequences.
    ///
    /// Both children have stride `2 × self.stride`; the even child keeps
    /// `ceil(count / 2)` elements. Together they partition `self` exactly.
    pub fn split(self) -> (StridedSeq, StridedSeq) {
        let even = StridedSeq {
            start: self.start,
            stride: self.stride * 2,
            count: self.count.div_ceil(2),
        };
        let odd = StridedSeq {
            start: self.start + self.stride,
            stride: self.stride * 2,
            count: self.count / 2,
        };
        (even, odd)
    }

    /// The `i`-th index of the sequence.
    #[inline]
    pub fn index(&self, i: usize) -> usize {
        debug_assert!(i < self.count);
        self.start + i * self.stride
    }

    /// Iterates the linear indices in order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.count).map(move |i| self.index(i))
    }

    /// Whether the sequence contains linear index `idx`.
    pub fn contains(&self, idx: usize) -> bool {
        idx >= self.start
            && (idx - self.start).is_multiple_of(self.stride)
            && (idx - self.start) / self.stride < self.count
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_iterates_all() {
        let s = StridedSeq::dense(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn split_partitions_exactly() {
        let s = StridedSeq::dense(9);
        let (e, o) = s.split();
        assert_eq!(e.iter().collect::<Vec<_>>(), vec![0, 2, 4, 6, 8]);
        assert_eq!(o.iter().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
        assert_eq!(e.count + o.count, s.count);
    }

    #[test]
    fn nested_splits_stay_disjoint() {
        let s = StridedSeq::dense(16);
        let (e, o) = s.split();
        let (ee, eo) = e.split();
        let (oe, oo) = o.split();
        let mut all: Vec<usize> = ee
            .iter()
            .chain(eo.iter())
            .chain(oe.iter())
            .chain(oo.iter())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
        assert_eq!(ee.stride, 4);
    }

    #[test]
    fn contains_checks_membership() {
        let s = StridedSeq {
            start: 3,
            stride: 4,
            count: 3,
        }; // 3, 7, 11
        assert!(s.contains(3));
        assert!(s.contains(7));
        assert!(s.contains(11));
        assert!(!s.contains(15));
        assert!(!s.contains(4));
        assert!(!s.contains(0));
    }

    #[test]
    fn split_empty_and_single() {
        let empty = StridedSeq::dense(0);
        let (e, o) = empty.split();
        assert!(e.is_empty() && o.is_empty());
        let one = StridedSeq::dense(1);
        let (e, o) = one.split();
        assert_eq!(e.count, 1);
        assert_eq!(o.count, 0);
    }

    #[test]
    fn balanced_counts_after_log_splits() {
        // Splitting a dense sequence k times yields 2^k pieces whose counts
        // differ by at most 1 — the static load-balancing guarantee.
        let mut pieces = vec![StridedSeq::dense(1000)];
        for _ in 0..4 {
            pieces = pieces
                .into_iter()
                .flat_map(|p| {
                    let (a, b) = p.split();
                    [a, b]
                })
                .collect();
        }
        let counts: Vec<usize> = pieces.iter().map(|p| p.count).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 1000);
    }
}
