//! Abstraction over a PE's local sorted key set.

use reservoir_btree::{BPlusTree, SampleKey};

/// A PE-local sorted multiset of [`SampleKey`]s supporting the rank/select
/// queries the selection protocol needs. Implemented by the local-reservoir
/// B+ tree and by a plain sorted vector (tests, centralized baseline).
pub trait CandidateSet {
    /// Total number of keys.
    fn total(&self) -> u64;

    /// Number of keys `<= k`.
    fn count_le(&self, k: &SampleKey) -> u64;

    /// Number of keys `< k`.
    fn count_less(&self, k: &SampleKey) -> u64;

    /// The `r`-th smallest key (0-based) among keys **strictly greater**
    /// than `lo` (`None` = unbounded below).
    fn select_above(&self, lo: Option<&SampleKey>, r: u64) -> Option<SampleKey>;

    /// The `r`-th largest key (0-based) among keys **strictly less** than
    /// `hi` (`None` = unbounded above).
    fn select_below(&self, hi: Option<&SampleKey>, r: u64) -> Option<SampleKey>;

    /// Number of keys in the open interval `(lo, hi)`.
    fn count_in(&self, lo: Option<&SampleKey>, hi: Option<&SampleKey>) -> u64 {
        let below_hi = match hi {
            Some(h) => self.count_less(h),
            None => self.total(),
        };
        let at_most_lo = match lo {
            Some(l) => self.count_le(l),
            None => 0,
        };
        below_hi - at_most_lo
    }
}

impl<V> CandidateSet for BPlusTree<SampleKey, V> {
    fn total(&self) -> u64 {
        self.len() as u64
    }

    fn count_le(&self, k: &SampleKey) -> u64 {
        BPlusTree::count_le(self, k) as u64
    }

    fn count_less(&self, k: &SampleKey) -> u64 {
        self.rank(k) as u64
    }

    fn select_above(&self, lo: Option<&SampleKey>, r: u64) -> Option<SampleKey> {
        let base = match lo {
            Some(l) => BPlusTree::count_le(self, l) as u64,
            None => 0,
        };
        self.select((base + r) as usize).map(|(k, _)| *k)
    }

    fn select_below(&self, hi: Option<&SampleKey>, r: u64) -> Option<SampleKey> {
        let below = match hi {
            Some(h) => self.rank(h) as u64,
            None => self.len() as u64,
        };
        below
            .checked_sub(1 + r)
            .and_then(|idx| self.select(idx as usize).map(|(k, _)| *k))
    }
}

/// A sorted, deduplicated vector of keys — the simplest [`CandidateSet`].
#[derive(Clone, Debug, Default)]
pub struct SortedKeys(Vec<SampleKey>);

impl SortedKeys {
    /// Build from arbitrary keys; sorts and deduplicates.
    pub fn new(mut keys: Vec<SampleKey>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        SortedKeys(keys)
    }

    /// The underlying sorted keys.
    pub fn as_slice(&self) -> &[SampleKey] {
        &self.0
    }
}

impl CandidateSet for SortedKeys {
    fn total(&self) -> u64 {
        self.0.len() as u64
    }

    fn count_le(&self, k: &SampleKey) -> u64 {
        self.0.partition_point(|x| x <= k) as u64
    }

    fn count_less(&self, k: &SampleKey) -> u64 {
        self.0.partition_point(|x| x < k) as u64
    }

    fn select_above(&self, lo: Option<&SampleKey>, r: u64) -> Option<SampleKey> {
        let base = match lo {
            Some(l) => self.count_le(l),
            None => 0,
        };
        self.0.get((base + r) as usize).copied()
    }

    fn select_below(&self, hi: Option<&SampleKey>, r: u64) -> Option<SampleKey> {
        let below = match hi {
            Some(h) => self.count_less(h),
            None => self.0.len() as u64,
        };
        below
            .checked_sub(1 + r)
            .and_then(|idx| self.0.get(idx as usize).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(vals: &[f64]) -> SortedKeys {
        SortedKeys::new(
            vals.iter()
                .enumerate()
                .map(|(i, &v)| SampleKey::new(v, i as u64))
                .collect(),
        )
    }

    #[test]
    fn sorted_keys_rank_ops() {
        let s = keys(&[5.0, 1.0, 3.0, 9.0]);
        assert_eq!(s.total(), 4);
        let three = s.as_slice()[1];
        assert_eq!(three.key, 3.0);
        assert_eq!(s.count_le(&three), 2);
        assert_eq!(s.count_less(&three), 1);
    }

    #[test]
    fn select_above_and_below() {
        let s = keys(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let two = s.as_slice()[1];
        assert_eq!(s.select_above(None, 0).map(|k| k.key), Some(1.0));
        assert_eq!(s.select_above(Some(&two), 0).map(|k| k.key), Some(3.0));
        assert_eq!(s.select_above(Some(&two), 2).map(|k| k.key), Some(5.0));
        assert_eq!(s.select_above(Some(&two), 3), None);
        assert_eq!(s.select_below(None, 0).map(|k| k.key), Some(5.0));
        assert_eq!(s.select_below(Some(&two), 0).map(|k| k.key), Some(1.0));
        assert_eq!(s.select_below(Some(&two), 1), None);
    }

    #[test]
    fn count_in_open_interval() {
        let s = keys(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let one = s.as_slice()[0];
        let five = s.as_slice()[4];
        assert_eq!(s.count_in(None, None), 5);
        assert_eq!(s.count_in(Some(&one), None), 4);
        assert_eq!(s.count_in(None, Some(&five)), 4);
        assert_eq!(s.count_in(Some(&one), Some(&five)), 3);
    }

    #[test]
    fn btree_impl_matches_sorted_keys() {
        let vals = [7.0, 3.0, 11.0, 1.0, 5.0, 9.0];
        let sorted = keys(&vals);
        let mut tree: BPlusTree<SampleKey, ()> = BPlusTree::with_degree(4);
        for (i, &v) in vals.iter().enumerate() {
            tree.insert(SampleKey::new(v, i as u64), ());
        }
        for probe in sorted.as_slice() {
            assert_eq!(CandidateSet::count_le(&tree, probe), sorted.count_le(probe));
            assert_eq!(tree.count_less(probe), sorted.count_less(probe));
        }
        for r in 0..6 {
            assert_eq!(tree.select_above(None, r), sorted.select_above(None, r));
            assert_eq!(tree.select_below(None, r), sorted.select_below(None, r));
        }
        let lo = sorted.as_slice()[1];
        for r in 0..5 {
            assert_eq!(
                tree.select_above(Some(&lo), r),
                sorted.select_above(Some(&lo), r)
            );
            assert_eq!(
                tree.select_below(Some(&lo), r),
                sorted.select_below(Some(&lo), r)
            );
        }
    }
}
