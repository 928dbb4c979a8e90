//! Per-PE mini-batch production.

use reservoir_rng::{DefaultRng, SeedSequence, StreamKind};

use crate::gen::{IdStream, WeightGen};
use crate::Item;

/// Describes a distributed stream: how many PEs, how big the per-PE
/// batches are, and how weights are drawn.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// Number of PEs the stream is spread over.
    pub pes: usize,
    /// Items per PE per mini-batch (the paper's `b`).
    pub batch_size: usize,
    /// Weight distribution.
    pub weights: WeightGen,
    /// Master seed; every `(seed, pe)` pair yields an independent stream.
    pub seed: u64,
}

impl StreamSpec {
    /// A source for PE `pe` of this stream.
    pub fn source_for(&self, pe: usize) -> StreamSource {
        assert!(pe < self.pes, "PE {pe} out of range for {} PEs", self.pes);
        StreamSource {
            pe,
            batch_size: self.batch_size,
            weights: self.weights,
            rng: SeedSequence::new(self.seed).rng_for(pe, StreamKind::Workload),
            ids: IdStream::new(pe),
            batch_index: 0,
        }
    }

    /// All `pes` sources at once (handy for single-process drivers).
    pub fn sources(&self) -> Vec<StreamSource> {
        (0..self.pes).map(|pe| self.source_for(pe)).collect()
    }
}

/// Produces the mini-batches a single PE observes.
///
/// Batches are deterministic in `(seed, pe, batch_index)`, so distributed
/// runs are reproducible and different backends can replay identical input.
#[derive(Clone, Debug)]
pub struct StreamSource {
    pe: usize,
    batch_size: usize,
    weights: WeightGen,
    rng: DefaultRng,
    ids: IdStream,
    batch_index: u64,
}

impl StreamSource {
    /// Produce the next mini-batch into `buf` (cleared first); returns the
    /// batch index. Reusing one buffer avoids per-batch allocation — the
    /// mini-batch model's "only the current batch is in memory".
    pub fn next_batch_into(&mut self, buf: &mut Vec<Item>) -> u64 {
        buf.clear();
        buf.reserve(self.batch_size);
        let batch = self.batch_index;
        for _ in 0..self.batch_size {
            let w = self.weights.sample(self.pe, batch, &mut self.rng);
            buf.push(Item::new(self.ids.next_id(), w));
        }
        self.batch_index += 1;
        batch
    }

    /// Allocating convenience wrapper around [`Self::next_batch_into`].
    pub fn next_batch(&mut self) -> Vec<Item> {
        let mut buf = Vec::new();
        self.next_batch_into(&mut buf);
        buf
    }

    /// Produce a batch of a custom size into `buf` (cleared first),
    /// reusing the buffer like [`Self::next_batch_into`]; returns the
    /// batch index. Variable-size batches are allowed by the model
    /// ("b need not be the same across PEs and batches"), and hot loops
    /// with per-batch sizes must not pay a per-batch allocation.
    pub fn next_batch_of_into(&mut self, size: usize, buf: &mut Vec<Item>) -> u64 {
        buf.clear();
        buf.reserve(size);
        let batch = self.batch_index;
        for _ in 0..size {
            let w = self.weights.sample(self.pe, batch, &mut self.rng);
            buf.push(Item::new(self.ids.next_id(), w));
        }
        self.batch_index += 1;
        batch
    }

    /// Allocating convenience wrapper around [`Self::next_batch_of_into`].
    pub fn next_batch_of(&mut self, size: usize) -> Vec<Item> {
        let mut buf = Vec::new();
        self.next_batch_of_into(size, &mut buf);
        buf
    }

    /// Number of batches produced so far.
    pub fn batches_produced(&self) -> u64 {
        self.batch_index
    }

    /// The PE this source belongs to.
    pub fn pe(&self) -> usize {
        self.pe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(pes: usize, b: usize) -> StreamSpec {
        StreamSpec {
            pes,
            batch_size: b,
            weights: WeightGen::paper_uniform(),
            seed: 42,
        }
    }

    #[test]
    fn batches_have_requested_size_and_positive_weights() {
        let mut src = spec(4, 100).source_for(2);
        let batch = src.next_batch();
        assert_eq!(batch.len(), 100);
        assert!(batch.iter().all(|it| it.weight > 0.0 && it.weight <= 100.0));
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_pe() {
        let a: Vec<Item> = spec(2, 50).source_for(0).next_batch();
        let b: Vec<Item> = spec(2, 50).source_for(0).next_batch();
        assert_eq!(a, b);
        let c: Vec<Item> = spec(2, 50).source_for(1).next_batch();
        assert_ne!(
            a.iter().map(|i| i.weight.to_bits()).collect::<Vec<_>>(),
            c.iter().map(|i| i.weight.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ids_unique_across_batches_and_pes() {
        let spec = spec(3, 40);
        let mut seen = std::collections::HashSet::new();
        for pe in 0..3 {
            let mut src = spec.source_for(pe);
            for _ in 0..5 {
                for item in src.next_batch() {
                    assert!(seen.insert(item.id), "duplicate id {}", item.id);
                }
            }
        }
        assert_eq!(seen.len(), 3 * 5 * 40);
    }

    #[test]
    fn reusable_buffer_api() {
        let mut src = spec(1, 10).source_for(0);
        let mut buf = Vec::new();
        assert_eq!(src.next_batch_into(&mut buf), 0);
        assert_eq!(src.next_batch_into(&mut buf), 1);
        assert_eq!(buf.len(), 10);
        assert_eq!(src.batches_produced(), 2);
    }

    #[test]
    fn custom_batch_sizes() {
        let mut src = spec(1, 10).source_for(0);
        assert_eq!(src.next_batch_of(3).len(), 3);
        assert_eq!(src.next_batch_of(17).len(), 17);
    }

    #[test]
    fn custom_size_buffer_reuse_matches_allocating_variant() {
        let mut a = spec(1, 10).source_for(0);
        let mut b = spec(1, 10).source_for(0);
        let mut buf = Vec::new();
        assert_eq!(a.next_batch_of_into(5, &mut buf), 0);
        assert_eq!(buf, b.next_batch_of(5));
        assert_eq!(a.next_batch_of_into(9, &mut buf), 1);
        assert_eq!(buf, b.next_batch_of(9));
        assert_eq!(a.batches_produced(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pe_out_of_range() {
        let _ = spec(2, 10).source_for(2);
    }
}
