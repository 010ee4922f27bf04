//! Layout-equivalence proof for the packed per-node flag columns.
//!
//! PR 6 swapped the engine's `Vec<bool>` flag columns (alive mask,
//! touched-this-round mask, the adversary's crashed/protected sets) for
//! `u64`-word [`BitSet`]s. The swap is only legal if the bitset is
//! *semantically invisible*: every observable — membership, counts,
//! iteration order — must agree with the `Vec<bool>` it replaced, bit
//! for bit, or golden digests move. This model-based proptest drives a
//! `BitSet` and a `Vec<bool>` model through random op sequences and
//! asserts full-state agreement after every single op (referenced from
//! `bitset.rs`'s module docs). A second one does the same for a
//! [`BitMatrix`] against one `Vec<bool>` per row, over the row ops the
//! traffic plan, the knowledge graph and Name-Dropper use.

use phonecall::{BitMatrix, BitSet};
use proptest::prelude::*;

/// One step of the op language. Raw indices are reduced `% len` when a
/// sequence is applied, so every op lands in-bounds regardless of the
/// length it was drawn against (out-of-bounds is a panic contract,
/// covered by unit tests in `bitset.rs`).
#[derive(Clone, Debug)]
enum Op {
    Set(usize),
    Clear(usize),
    SetAll,
    ClearAll,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Single-bit ops dominate the mix (listed three times, so the
    // uniform union picks them 6:2 over the whole-set resets, which
    // would otherwise keep sequences from building interesting word
    // patterns).
    let op = prop_oneof![
        (0usize..1024).prop_map(Op::Set),
        (0usize..1024).prop_map(Op::Clear),
        (0usize..1024).prop_map(Op::Set),
        (0usize..1024).prop_map(Op::Clear),
        (0usize..1024).prop_map(Op::Set),
        (0usize..1024).prop_map(Op::Clear),
        Just(Op::SetAll),
        Just(Op::ClearAll),
    ];
    proptest::collection::vec(op, 1..200)
}

/// Every observable of the bitset against the model: per-index `get`,
/// the popcount, the set-index iteration (order included), and the tail
/// invariant (bits past `len` in the last word stay zero, so popcounts
/// can run over whole words).
fn assert_agrees(bits: &BitSet, model: &[bool]) {
    assert_eq!(bits.len(), model.len());
    for (i, &m) in model.iter().enumerate() {
        assert_eq!(bits.get(i), m, "bit {i} disagrees");
    }
    let expect_ones: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
    assert_eq!(bits.count_ones(), expect_ones.len());
    let got_ones: Vec<usize> = bits.iter_ones().collect();
    assert_eq!(got_ones, expect_ones, "iter_ones order or content");
    if let Some(&last) = bits.words().last() {
        let tail = model.len() % 64;
        if tail != 0 {
            assert_eq!(last >> tail, 0, "tail bits past len must stay zero");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Random op sequences over lengths that straddle word boundaries
    /// (1..=200 covers sub-word, exactly-word, and multi-word-with-tail
    /// layouts). The model is checked after *every* op, not just at the
    /// end, so a transiently corrupted word is caught at the op that
    /// corrupts it.
    #[test]
    fn bitset_matches_vec_bool_model(
        len in 1usize..=200,
        start_set in any::<bool>(),
        seq in ops(),
    ) {
        let mut bits = if start_set { BitSet::new_set(len) } else { BitSet::new(len) };
        let mut model = vec![start_set; len];
        assert_agrees(&bits, &model);
        for op in seq {
            match op {
                Op::Set(i) => { let i = i % len; bits.set(i); model[i] = true; }
                Op::Clear(i) => { let i = i % len; bits.clear(i); model[i] = false; }
                Op::SetAll => { bits.set_all(); model.fill(true); }
                Op::ClearAll => { bits.clear_all(); model.fill(false); }
            }
            assert_agrees(&bits, &model);
        }
    }

    /// Equality on `BitSet` is layout equality: two sets built by any
    /// op sequences agree under `==` exactly when their models do.
    #[test]
    fn bitset_eq_matches_model_eq(
        len in 1usize..=130,
        seq_a in ops(),
        seq_b in ops(),
    ) {
        let apply = |seq: &[Op]| {
            let mut bits = BitSet::new(len);
            let mut model = vec![false; len];
            for op in seq {
                match *op {
                    Op::Set(i) => { let i = i % len; bits.set(i); model[i] = true; }
                    Op::Clear(i) => { let i = i % len; bits.clear(i); model[i] = false; }
                    Op::SetAll => { bits.set_all(); model.fill(true); }
                    Op::ClearAll => { bits.clear_all(); model.fill(false); }
                }
            }
            (bits, model)
        };
        let (bits_a, model_a) = apply(&seq_a);
        let (bits_b, model_b) = apply(&seq_b);
        prop_assert_eq!(bits_a == bits_b, model_a == model_b);
    }
}

/// One step of the matrix op language. Each op packs its row, column
/// and cap choices into one `u64` draw (the vendored proptest has no
/// tuple strategies); [`apply`] reduces them to the matrix's shape.
#[derive(Clone, Debug)]
enum RowOp {
    Set(u64),
    Or(u64),
    Transfer(u64),
    Copy(u64),
}

fn row_ops() -> impl Strategy<Value = Vec<RowOp>> {
    // Sets dominate so rows fill up enough for ORs and transfers to
    // move bits; listing them three times weights the uniform union.
    let op = prop_oneof![
        any::<u64>().prop_map(RowOp::Set),
        any::<u64>().prop_map(RowOp::Set),
        any::<u64>().prop_map(RowOp::Set),
        any::<u64>().prop_map(RowOp::Or),
        any::<u64>().prop_map(RowOp::Transfer),
        any::<u64>().prop_map(RowOp::Copy),
    ];
    proptest::collection::vec(op, 1..300)
}

/// Applies `op` to the matrix and the model alike, checking each op's
/// return value against the model's answer.
fn apply(m: &mut BitMatrix, model: &mut [Vec<bool>], op: &RowOp) {
    let (rows, cols) = (model.len() as u64, model[0].len());
    let pick = |raw: u64, shift: u32| ((raw >> shift) % rows) as usize;
    match *op {
        RowOp::Set(raw) => {
            let (r, c) = (pick(raw, 0), (raw >> 32) as usize % cols);
            m.set(r, c);
            model[r][c] = true;
        }
        RowOp::Or(raw) => {
            // Row `dst` takes the OR of the rows the high bits select, read
            // from a copy taken before the op, as the knowledge graph does.
            let dst = pick(raw, 0);
            let sel = (raw >> 32) & ((1 << rows) - 1);
            let before = m.clone();
            m.or_rows(dst, &before, &[sel]);
            let old = model.to_vec();
            for (v, row) in old.iter().enumerate() {
                if sel >> v & 1 == 1 {
                    model[dst].iter_mut().zip(row).for_each(|(d, &s)| *d |= s);
                }
            }
        }
        RowOp::Transfer(raw) => {
            // The order walks the columns from a drawn start, wrapping.
            let (src, dst, mask) = (pick(raw, 0), pick(raw, 16), pick(raw, 32));
            let cap = (raw >> 48) as usize % (cols + 2);
            let start = (raw >> 40) as usize % cols;
            let order: Vec<u32> = (0..cols).map(|i| ((start + i) % cols) as u32).collect();
            let mask_words = m.row(mask).to_vec();
            let moving: Vec<usize> = order
                .iter()
                .map(|&c| c as usize)
                .filter(|&c| model[src][c] && !model[dst][c] && model[mask][c])
                .collect();
            assert_eq!(
                m.transfer(src, dst, &mask_words, cap, &order),
                moving.len(),
                "AND-NOT count"
            );
            moving
                .into_iter()
                .take(cap)
                .for_each(|c| model[dst][c] = true);
        }
        RowOp::Copy(raw) => {
            let (dst, src) = (pick(raw, 0), pick(raw, 16));
            let words = m.row(src).to_vec();
            m.copy_row(dst, &words);
            model[dst] = model[src].clone();
        }
    }
}

/// Every observable of every row against the model: per-bit `get`, the
/// row count, the set-column walk, the row width and the tail invariant.
fn assert_rows_agree(m: &BitMatrix, model: &[Vec<bool>]) {
    assert_eq!(m.rows(), model.len());
    for (r, row) in model.iter().enumerate() {
        let expect: Vec<usize> = (0..row.len()).filter(|&c| row[c]).collect();
        for (c, &b) in row.iter().enumerate() {
            assert_eq!(m.get(r, c), b, "row {r}, column {c}");
        }
        assert_eq!(m.count_row(r), expect.len(), "row {r} count");
        let words = m.row(r);
        assert_eq!(words.len(), row.len().div_ceil(64));
        if row.len() % 64 != 0 {
            assert_eq!(
                words[words.len() - 1] >> (row.len() % 64),
                0,
                "row {r} tail"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Random row-op sequences on widths at and around the word
    /// boundaries, with at least three rows so a row op that strays
    /// into a neighbour shows in the neighbour's model. Checked after
    /// every op.
    #[test]
    fn bit_matrix_matches_vec_bool_rows(
        rows in 3usize..=6,
        width in 0usize..6,
        seq in row_ops(),
    ) {
        let cols = [1, 63, 64, 65, 128, 129][width];
        let mut m = BitMatrix::new(rows, cols);
        let mut model = vec![vec![false; cols]; rows];
        assert_rows_agree(&m, &model);
        for op in &seq {
            apply(&mut m, &mut model, op);
            assert_rows_agree(&m, &model);
        }
    }
}
