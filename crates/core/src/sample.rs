//! Sample members and related helpers.

use reservoir_btree::SampleKey;
use reservoir_comm::Message;

/// One member of a reservoir sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleItem {
    /// The item's globally unique id.
    pub id: u64,
    /// The item's weight (1.0 for uniform sampling).
    pub weight: f64,
    /// The random variate that admitted the item; the sample is exactly the
    /// set of items with the `k` smallest keys seen so far.
    pub key: f64,
}

impl SampleItem {
    /// Reassemble from the reservoir's key/value representation.
    pub fn from_entry(key: &SampleKey, weight: f64) -> Self {
        SampleItem {
            id: key.id,
            weight,
            key: key.key,
        }
    }
}

/// A member travels as its three words: id, weight and key.
impl Message for SampleItem {
    fn words(&self) -> u64 {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_entry_copies_fields() {
        let k = SampleKey::new(0.25, 77);
        let s = SampleItem::from_entry(&k, 3.5);
        assert_eq!(s.id, 77);
        assert_eq!(s.weight, 3.5);
        assert_eq!(s.key, 0.25);
    }

    #[test]
    fn a_member_costs_the_words_of_its_fields() {
        let s = SampleItem::from_entry(&SampleKey::new(0.25, 77), 3.5);
        assert_eq!(s.words(), (s.id, s.weight, s.key).words());
    }
}
