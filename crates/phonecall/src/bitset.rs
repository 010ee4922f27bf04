//! `u64`-word bit rows: one kernel home, two owners. Packed, a flag
//! column at `n = 2^20` is 16 KiB instead of a megabyte, counts are
//! popcounts and walks skip 64 bits per zero word.
//!
//! Each word loop is written once below: popcount, OR and AND, the
//! set-bit walk, rank and select over `&[u64]` rows whose bits past
//! their length are zero, and the masked AND-NOT transfer (which only a
//! matrix needs) as a [`BitMatrix`] method.
//! [`BitSet`] owns one row (the engine's alive and contacted masks, the
//! adversary's sets, a Name-Dropper node's known IDs); [`BitMatrix`]
//! owns `rows × cols` bits in one allocation (the traffic plan's known
//! rumors, the lower-bound knowledge graph, Name-Dropper's snapshots).
//! The model-based proptests in `tests/layout_equivalence.rs` pin both
//! against `Vec<bool>` rows, so the packing cannot move a golden digest.

/// Popcount of a row.
#[inline]
fn ones(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// Folds `src` into `dst` word by word with `op` (OR, AND). No count
/// rides along: the knowledge graph's squaring ORs rows in its inner
/// loop and never reads one.
#[inline]
fn merge(dst: &mut [u64], src: &[u64], op: impl Fn(u64, u64) -> u64) {
    assert_eq!(dst.len(), src.len(), "rows of unequal length");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = op(*d, s);
    }
}

/// Indices of the set bits in increasing order: one loop that skips
/// zero words and peels one bit per step (a `flat_map` over the words
/// cost the knowledge graph's squaring about a quarter of its time).
fn iter_ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let (mut wi, mut rest) = (0, row.first().copied().unwrap_or(0));
    std::iter::from_fn(move || {
        while rest == 0 {
            wi += 1;
            rest = *row.get(wi)?;
        }
        let bit = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        Some(wi * 64 + bit)
    })
}

/// Set bits strictly below index `i`.
fn rank_below(row: &[u64], i: usize) -> usize {
    let full = ones(&row[..i / 64]);
    match i % 64 {
        0 => full,
        tail => full + (row[i / 64] & ((1u64 << tail) - 1)).count_ones() as usize,
    }
}

/// Index of the `k`-th set bit (`k = 0` is the lowest): popcounts skip
/// whole words, the last step walks one word.
fn select(row: &[u64], k: usize) -> Option<usize> {
    let mut left = k;
    for (wi, &word) in row.iter().enumerate() {
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

/// A fixed-length bitset over `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
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
        let mut s = BitSet::new(len);
        s.set_all();
        s
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

    /// Bit `i`; panics if `i >= len`, like slice indexing.
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

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit (the tail past `len` stays zero).
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        let tail = self.len % 64;
        if tail != 0 {
            self.words[self.len / 64] = (1u64 << tail) - 1;
        }
    }

    /// Number of set bits (a popcount per word — `len/64` operations).
    #[must_use]
    #[inline]
    pub fn count_ones(&self) -> usize {
        ones(&self.words)
    }

    /// Iterates the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        iter_ones(&self.words)
    }

    /// The backing words (tail bits beyond `len` are always zero).
    #[must_use]
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits strictly below index `i` — the rank of `i`
    /// among the members. Panics if `i > len`.
    #[must_use]
    pub fn rank_below(&self, i: usize) -> usize {
        assert!(i <= self.len, "bit {i} out of range 0..={}", self.len);
        rank_below(&self.words, i)
    }

    /// Index of the `k`-th set bit (`k = 0` is the lowest), `None` past
    /// the last: the inverse of [`Self::rank_below`].
    #[must_use]
    pub fn select(&self, k: usize) -> Option<usize> {
        select(&self.words, k)
    }

    /// ORs a row of the same width (a [`BitSet::words`], a
    /// [`BitMatrix::row`]) into `self` and returns the new count, so a
    /// caller that maintains one never re-scans. Panics on unequal widths.
    #[inline]
    pub fn union_with(&mut self, row: &[u64]) -> usize {
        merge(&mut self.words, row, |d, s| d | s);
        self.count_ones()
    }

    /// ANDs a row of the same width into `self` and returns whether any
    /// bit is left (no popcount: a caller walking many rows stops at
    /// the first empty result).
    #[inline]
    pub fn intersect_with(&mut self, row: &[u64]) -> bool {
        merge(&mut self.words, row, |d, s| d & s);
        self.words.iter().any(|&w| w != 0)
    }
}

/// `rows × cols` bits in one row-major allocation, every row padded to
/// whole words (as wide as a [`BitSet`] of `cols` bits) with its tail
/// bits zero. Row and column indices past the shape panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    cols: usize,
    /// Words per row: `⌈cols / 64⌉`.
    stride: usize,
}

impl BitMatrix {
    /// A matrix of `rows × cols` bits, all clear.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * stride],
            rows,
            cols,
            stride,
        }
    }

    /// Number of rows.
    #[must_use]
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row `r`'s words.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of range 0..{}", self.rows);
        &self.words[r * self.stride..][..self.stride]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..][..self.stride]
    }

    /// Bit `c` of row `r`.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(c < self.cols, "column {c} out of range 0..{}", self.cols);
        (self.row(r)[c / 64] >> (c % 64)) & 1 != 0
    }

    /// Sets bit `c` of row `r`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        assert!(c < self.cols, "column {c} out of range 0..{}", self.cols);
        self.row_mut(r)[c / 64] |= 1u64 << (c % 64);
    }

    /// Number of set bits in row `r`.
    #[must_use]
    #[inline]
    pub fn count_row(&self, r: usize) -> usize {
        ones(self.row(r))
    }

    /// Overwrites row `r` with a row of the same width.
    #[inline]
    pub fn copy_row(&mut self, r: usize, src: &[u64]) {
        self.row_mut(r).copy_from_slice(src);
    }

    /// ORs into row `r` every row of `src` whose index is set in `sel`
    /// (a row of `src.rows()` bits): one row of a Boolean matrix product.
    #[inline]
    pub fn or_rows(&mut self, r: usize, src: &BitMatrix, sel: &[u64]) {
        let dst = self.row_mut(r);
        for v in iter_ones(sel) {
            merge(dst, src.row(v), |d, s| d | s);
        }
    }

    /// The masked AND-NOT transfer: counts the bits of `row(src) & mask`
    /// that row `dst` lacks and moves `min(count, cap)` of them into row
    /// `dst`: all when they fit, else the first `cap` in `order`, which
    /// must list every column of `mask`. Returns the count (0 when
    /// `src == dst`). Panics if a row is out of range or `mask` is not a
    /// row wide.
    #[inline]
    pub fn transfer(
        &mut self,
        src: usize,
        dst: usize,
        mask: &[u64],
        cap: usize,
        order: &[u32],
    ) -> usize {
        assert_eq!(mask.len(), self.stride, "mask of unequal width");
        let (w, s, d) = (&mut self.words, src * self.stride, dst * self.stride);
        let wanted = (0..mask.len())
            .map(|i| (w[s + i] & !w[d + i] & mask[i]).count_ones() as usize)
            .sum();
        if wanted <= cap {
            for (i, &m) in mask.iter().enumerate() {
                w[d + i] |= w[s + i] & m;
            }
        } else {
            let mut left = cap;
            for &c in order {
                if left == 0 {
                    break;
                }
                let (i, bit) = (c as usize / 64, 1u64 << (c % 64));
                if w[s + i] & !w[d + i] & mask[i] & bit != 0 {
                    w[d + i] |= bit;
                    left -= 1;
                }
            }
        }
        wanted
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
    fn set_and_clear_roundtrip() {
        let mut s = BitSet::new(100);
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(99);
        assert_eq!(s.count_ones(), 4);
        assert!(s.get(63) && s.get(64));
        s.clear(63);
        assert!(!s.get(63));
        s.set(63);
        s.clear(0);
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
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        // Column 64 of a 64-column matrix lies in the next row's word.
        let m = BitMatrix::new(2, 64);
        let _ = m.get(0, 64);
    }

    #[test]
    fn exact_word_boundary_has_no_tail() {
        let s = BitSet::new_set(128);
        assert_eq!(s.count_ones(), 128);
        assert_eq!(s.words().len(), 2);
    }

    /// Rows on, just past and between word boundaries, each with a
    /// sparse, a dense and a full membership pattern. The checks below
    /// run the row kernels on them directly: a `BitSet` and a
    /// `BitMatrix` row hand the kernels the same words, so one set of
    /// tail-word cases covers both owners.
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
                assert_eq!(rank_below(s.words(), i), naive, "len {len}, below {i}");
            }
        }
    }

    #[test]
    fn select_finds_every_set_bit_and_nothing_past_the_last() {
        for s in kernel_cases() {
            let members: Vec<usize> = (0..s.len()).filter(|&i| s.get(i)).collect();
            assert_eq!(iter_ones(s.words()).collect::<Vec<_>>(), members);
            assert_eq!(ones(s.words()), members.len());
            for (k, &i) in members.iter().enumerate() {
                assert_eq!(select(s.words(), k), Some(i), "len {}, k {k}", s.len());
                assert_eq!(
                    rank_below(s.words(), i),
                    k,
                    "select and rank_below are inverse"
                );
            }
            assert_eq!(select(s.words(), members.len()), None);
        }
    }

    /// OR, AND and the masked AND-NOT transfer over every pair of
    /// same-length cases, against per-bit answers.
    #[test]
    fn row_ops_match_per_bit_answers() {
        let cases = kernel_cases();
        for a in &cases {
            for b in cases.iter().filter(|b| b.len() == a.len()) {
                for mask in cases.iter().filter(|m| m.len() == a.len()) {
                    let len = a.len();
                    let bit = |s: &BitSet, i| s.get(i);
                    let union: Vec<bool> = (0..len).map(|i| bit(a, i) || bit(b, i)).collect();
                    let meet: Vec<bool> = (0..len).map(|i| bit(a, i) && bit(b, i)).collect();
                    let want = (0..len)
                        .filter(|&i| bit(b, i) && !bit(a, i) && bit(mask, i))
                        .count();
                    let of = |s: &BitSet| (0..len).map(|i| s.get(i)).collect::<Vec<_>>();

                    let mut or = a.clone();
                    assert_eq!(
                        or.union_with(b.words()),
                        union.iter().filter(|&&x| x).count()
                    );
                    assert_eq!(of(&or), union);
                    let mut and = a.clone();
                    assert_eq!(and.intersect_with(b.words()), meet.contains(&true));
                    assert_eq!(of(&and), meet);

                    // Row 0 takes from row 1. A binding cap moves the
                    // first `cap` wanted bits in `order` (here
                    // descending); a cap that fits moves them all.
                    let order: Vec<u32> = (0..len as u32).rev().collect();
                    let wanted: Vec<usize> = (0..len)
                        .rev()
                        .filter(|&i| bit(b, i) && !bit(a, i) && bit(mask, i))
                        .collect();
                    let m = mask.words();
                    for cap in [0, 1, want / 2, want] {
                        let mut mx = BitMatrix::new(2, len);
                        mx.copy_row(0, a.words());
                        mx.copy_row(1, b.words());
                        assert_eq!(mx.transfer(1, 0, m, cap, &order), want);
                        let mut expect: Vec<bool> = (0..len).map(|i| bit(a, i)).collect();
                        wanted.iter().take(cap).for_each(|&i| expect[i] = true);
                        let got: Vec<bool> = (0..len).map(|i| mx.get(0, i)).collect();
                        assert_eq!(got, expect, "len {len}, cap {cap}");
                        if cap == want {
                            assert_eq!(mx.transfer(1, 0, m, 1, &order), 0);
                            assert_eq!(mx.transfer(1, 1, m, 0, &order), 0, "self");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn union_of_unequal_lengths_panics() {
        let _ = BitSet::new(64).union_with(BitSet::new(65).words());
    }

    #[test]
    fn a_self_transfer_moves_nothing() {
        let mut m = BitMatrix::new(2, 70);
        m.set(1, 69);
        let all = BitSet::new_set(70);
        assert_eq!(m.transfer(1, 1, all.words(), usize::MAX, &[]), 0);
        assert_eq!(m.transfer(1, 0, all.words(), usize::MAX, &[]), 1);
        assert!(m.get(0, 69));
    }
}
