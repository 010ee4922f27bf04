//! `u64`-word bitsets for per-node flags.
//!
//! At `n = 2^20` a `Vec<bool>` flag column is a megabyte the round loop
//! streams through once per query; packed into `u64` words the same
//! column is 16 KiB, counts become `popcount`s, and "which nodes were
//! touched this round" queries skip 64 nodes per zero word. The engine
//! keeps its alive mask and contacted-this-round mask as [`BitSet`]s
//! ([`crate::Network`]), and the dynamic adversary tracks its crashed
//! and protected sets the same way ([`crate::churn`]).
//!
//! Semantics mirror a `Vec<bool>` of fixed length exactly — the
//! model-based proptest in `tests/layout_equivalence.rs` drives a
//! `BitSet` and a `Vec<bool>` through random op sequences and asserts
//! bit-for-bit agreement — so swapping the representation cannot move a
//! golden digest.

/// A fixed-length bitset over `u64` words.
#[derive(Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// A bitset of `len` bits, all clear.
    #[must_use]
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitset of `len` bits, all set.
    #[must_use]
    pub fn new_set(len: usize) -> Self {
        let mut s = BitSet {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Zeroes the unused high bits of the last word so popcounts and
    /// word scans never see phantom entries.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (same contract as slice indexing).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Sets bit `i` to `value`.
    #[inline]
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit.
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        self.mask_tail();
    }

    /// Number of set bits (a popcount per word — `len/64` operations).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the indices of set bits in increasing order, skipping 64
    /// bits per zero word.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// The backing words (tail bits beyond `len` are always zero).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits strictly below index `i` — the rank of `i`
    /// among the members (a popcount per word up to `i`'s).
    ///
    /// # Panics
    ///
    /// Panics if `i > len` (`i == len` counts every bit).
    #[must_use]
    pub fn rank_below(&self, i: usize) -> usize {
        assert!(i <= self.len, "bit {i} out of range 0..={}", self.len);
        let full: usize = self.words[..i / 64]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        match i % 64 {
            0 => full,
            tail => full + (self.words[i / 64] & ((1u64 << tail) - 1)).count_ones() as usize,
        }
    }

    /// Index of the `k`-th set bit in increasing order (`k = 0` is the
    /// lowest), or `None` when fewer than `k + 1` bits are set. The
    /// inverse of [`Self::rank_below`]: popcounts skip whole words, the
    /// last step walks one word.
    #[must_use]
    pub fn select(&self, k: usize) -> Option<usize> {
        let mut left = k;
        for (wi, &word) in self.words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if left < ones {
                let mut w = word;
                for _ in 0..left {
                    w &= w - 1;
                }
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
            left -= ones;
        }
        None
    }

    /// ORs `other` into `self` word by word and returns the resulting
    /// number of set bits, so a caller that maintains a count never
    /// re-scans.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn union_with(&mut self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "union of bitsets of unequal length");
        let mut ones = 0;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
            ones += w.count_ones() as usize;
        }
        ones
    }
}

/// `clone_from` reuses the destination's word buffer, so refreshing a
/// recycled snapshot from a live row allocates nothing once the buffer
/// has the capacity.
impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_sets_are_all_clear_or_all_set() {
        let clear = BitSet::new(130);
        assert_eq!(clear.len(), 130);
        assert_eq!(clear.count_ones(), 0);
        assert!((0..130).all(|i| !clear.get(i)));

        let set = BitSet::new_set(130);
        assert_eq!(set.count_ones(), 130);
        assert!((0..130).all(|i| set.get(i)));
        // Tail bits beyond len stay zero so popcount is exact.
        assert_eq!(set.words().last().copied().unwrap() >> 2, 0);
    }

    #[test]
    fn set_clear_assign_roundtrip() {
        let mut s = BitSet::new(100);
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(99);
        assert_eq!(s.count_ones(), 4);
        assert!(s.get(63) && s.get(64));
        s.clear(63);
        assert!(!s.get(63));
        s.assign(63, true);
        s.assign(0, false);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![63, 64, 99]);
    }

    #[test]
    fn clear_all_and_set_all() {
        let mut s = BitSet::new(65);
        s.set(64);
        s.clear_all();
        assert_eq!(s.count_ones(), 0);
        s.set_all();
        assert_eq!(s.count_ones(), 65);
        assert_eq!(s.iter_ones().count(), 65);
    }

    #[test]
    fn iter_ones_matches_gets() {
        let mut s = BitSet::new(200);
        for i in (0..200).step_by(7) {
            s.set(i);
        }
        let from_iter: Vec<usize> = s.iter_ones().collect();
        let from_get: Vec<usize> = (0..200).filter(|&i| s.get(i)).collect();
        assert_eq!(from_iter, from_get);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let s = BitSet::new(64);
        let _ = s.get(64);
    }

    #[test]
    fn exact_word_boundary_has_no_tail() {
        let s = BitSet::new_set(128);
        assert_eq!(s.count_ones(), 128);
        assert_eq!(s.words().len(), 2);
    }

    /// Lengths on, just past and between word boundaries, each with a
    /// sparse, a dense and a full membership pattern.
    fn kernel_cases() -> Vec<BitSet> {
        let mut cases = Vec::new();
        for len in [1, 2, 63, 64, 65, 127, 128, 129, 200] {
            for step in [1, 3, 7, 64] {
                let mut s = BitSet::new(len);
                for i in (0..len).step_by(step) {
                    s.set(i);
                }
                s.set(len - 1);
                cases.push(s);
            }
            cases.push(BitSet::new(len));
        }
        cases
    }

    #[test]
    fn rank_below_matches_a_naive_count() {
        for s in kernel_cases() {
            let len = s.len();
            let mut probes = vec![0, len - 1, len];
            probes.extend([63, 64, 65, 128].into_iter().filter(|&i| i <= len));
            for i in probes {
                let naive = (0..i).filter(|&j| s.get(j)).count();
                assert_eq!(s.rank_below(i), naive, "len {len}, below {i}");
            }
        }
    }

    #[test]
    fn select_finds_every_set_bit_and_nothing_past_the_last() {
        for s in kernel_cases() {
            let members: Vec<usize> = (0..s.len()).filter(|&i| s.get(i)).collect();
            for (k, &i) in members.iter().enumerate() {
                assert_eq!(s.select(k), Some(i), "len {}, k {k}", s.len());
                assert_eq!(s.rank_below(i), k, "select and rank_below are inverse");
            }
            assert_eq!(s.select(members.len()), None);
        }
    }

    #[test]
    fn union_with_ors_and_returns_the_new_count() {
        for len in [1, 64, 65, 130, 200] {
            let (mut evens, mut odds, mut thirds) =
                (BitSet::new(len), BitSet::new(len), BitSet::new(len));
            for i in 0..len {
                match i % 2 {
                    0 => evens.set(i),
                    _ => odds.set(i),
                }
                if i % 3 == 0 {
                    thirds.set(i);
                }
            }
            // Overlapping rows: only the new members count.
            let mut s = evens.clone();
            let naive = (0..len).filter(|&i| i % 2 == 0 || i % 3 == 0).count();
            assert_eq!(s.union_with(&thirds), naive, "len {len}");
            assert!((0..len).all(|i| s.get(i) == (i % 2 == 0 || i % 3 == 0)));
            assert_eq!(s.union_with(&thirds), naive, "idempotent");
            // Disjoint rows fill the set; the tail word stays masked.
            let mut s = evens.clone();
            assert_eq!(s.union_with(&odds), len);
            assert_eq!(s, BitSet::new_set(len));
        }
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn union_of_unequal_lengths_panics() {
        let _ = BitSet::new(64).union_with(&BitSet::new(65));
    }

    #[test]
    fn clone_from_reuses_the_buffer_and_copies_the_length() {
        let mut dst = BitSet::new_set(200);
        let src = BitSet::new(65);
        let before = dst.words().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(
            dst.words().as_ptr(),
            before,
            "no reallocation when shrinking"
        );
    }
}
