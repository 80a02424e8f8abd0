//! Differential tests for the entropy-stage kernels.
//!
//! `package_merge` is checked against the textbook arena formulation
//! (packages as explicit trees, lists never cut, leaf depths counted by
//! walking the selected trees), kept here as the oracle. The BWT-alphabet
//! move-to-front is checked against a plain 257-entry list. Both kernels
//! must agree with their oracle exactly: the solver goldens pin bytes,
//! and these pin the kernels on inputs the goldens never reach.

use isobar_codecs::huffman::{package_merge, package_merge_into, PackageMergeScratch};
use isobar_codecs::mtf::{mtf_decode, mtf_encode, ALPHABET};
use proptest::prelude::*;

/// Oracle package-merge: arena of leaf/pair nodes, full lists, tree walk.
fn package_merge_oracle(freqs: &[u64], max_len: u8) -> Vec<u8> {
    enum Node {
        Leaf(u16),
        Pair(u32, u32),
    }
    let mut lengths = vec![0u8; freqs.len()];
    let mut leaves: Vec<(u64, u16)> = freqs
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f > 0)
        .map(|(sym, &f)| (f, sym as u16))
        .collect();
    match leaves.len() {
        0 => return lengths,
        1 => {
            lengths[leaves[0].1 as usize] = 1;
            return lengths;
        }
        _ => {}
    }
    leaves.sort_unstable();
    let mut arena = Vec::new();
    let mut singletons = Vec::new();
    for &(w, sym) in &leaves {
        arena.push(Node::Leaf(sym));
        singletons.push((w, arena.len() as u32 - 1));
    }
    let mut current = singletons.clone();
    for _ in 1..max_len {
        let mut packages = Vec::new();
        for pair in current.chunks_exact(2) {
            arena.push(Node::Pair(pair[0].1, pair[1].1));
            packages.push((pair[0].0 + pair[1].0, arena.len() as u32 - 1));
        }
        // Stable merge, packages first on ties.
        let mut merged = Vec::with_capacity(packages.len() + singletons.len());
        let (mut i, mut j) = (0, 0);
        while i < packages.len() && j < singletons.len() {
            if packages[i].0 <= singletons[j].0 {
                merged.push(packages[i]);
                i += 1;
            } else {
                merged.push(singletons[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&packages[i..]);
        merged.extend_from_slice(&singletons[j..]);
        current = merged;
    }
    let mut stack: Vec<u32> = current
        .iter()
        .take(2 * (leaves.len() - 1))
        .map(|&(_, idx)| idx)
        .collect();
    while let Some(idx) = stack.pop() {
        match arena[idx as usize] {
            Node::Leaf(sym) => lengths[sym as usize] += 1,
            Node::Pair(a, b) => {
                stack.push(a);
                stack.push(b);
            }
        }
    }
    lengths
}

/// Oracle MTF over a plain 257-entry list.
fn mtf_encode_oracle(input: &[u16]) -> Vec<u16> {
    let mut list: Vec<u16> = (0..ALPHABET as u16).collect();
    input
        .iter()
        .map(|&sym| {
            let rank = list.iter().position(|&s| s == sym).expect("in alphabet");
            list.copy_within(0..rank, 1);
            list[0] = sym;
            rank as u16
        })
        .collect()
}

/// Frequency vectors shaped to stress the merge: wide random weights,
/// heavy ties, powers of two (many exact package/leaf ties) and
/// Fibonacci-like runs (deep trees that hit the limit), each with
/// zeros mixed in.
fn freq_vectors() -> impl Strategy<Value = Vec<u64>> {
    let weight = prop_oneof![
        Just(0u64),
        1u64..1_000_000,
        prop_oneof![Just(1u64), Just(2), Just(3), Just(7)],
        (0u32..40).prop_map(|k| 1u64 << k),
        (0usize..60).prop_map(|k| {
            let (mut a, mut b) = (1u64, 1u64);
            for _ in 0..k {
                (a, b) = (b, a + b);
            }
            a
        }),
    ];
    proptest::collection::vec(weight, 1..=300)
}

/// Keep at most `2^max_len` nonzero symbols so the limit is feasible.
fn feasible(mut freqs: Vec<u64>, max_len: u8) -> Vec<u64> {
    let mut room = 1usize << max_len;
    for f in &mut freqs {
        if *f > 0 {
            if room == 0 {
                *f = 0;
            } else {
                room -= 1;
            }
        }
    }
    freqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn package_merge_matches_the_arena_oracle(
        freqs in freq_vectors(),
        limit in prop_oneof![Just(7u8), Just(9), Just(15), Just(20)],
    ) {
        let freqs = feasible(freqs, limit);
        prop_assert_eq!(package_merge(&freqs, limit), package_merge_oracle(&freqs, limit));
    }

    #[test]
    fn reused_scratch_matches_the_oracle_across_shapes(
        sets in proptest::collection::vec(
            (freq_vectors(), prop_oneof![Just(7u8), Just(9), Just(15), Just(20)]),
            1..6,
        ),
    ) {
        let mut scratch = PackageMergeScratch::new();
        for (freqs, limit) in sets {
            let freqs = feasible(freqs, limit);
            let mut lengths = vec![0xFF; freqs.len()];
            package_merge_into(&freqs, limit, &mut scratch, &mut lengths);
            prop_assert_eq!(lengths, package_merge_oracle(&freqs, limit));
        }
    }

    #[test]
    fn mtf_matches_the_plain_list(
        input in proptest::collection::vec(
            prop_oneof![0u16..ALPHABET as u16, 1u16..8, Just(0u16)],
            0..3000,
        ),
    ) {
        let ranks = mtf_encode(&input);
        prop_assert_eq!(&ranks, &mtf_encode_oracle(&input));
        prop_assert_eq!(mtf_decode(&ranks), input);
    }

    #[test]
    fn mtf_matches_with_the_sentinel_at_every_position(
        bytes in proptest::collection::vec(
            prop_oneof![any::<u8>(), 0u8..4],
            0..200,
        ),
    ) {
        // A BWT block holds exactly one sentinel; try every place for it.
        for at in 0..=bytes.len() {
            let mut input: Vec<u16> = bytes.iter().map(|&b| u16::from(b) + 1).collect();
            input.insert(at, 0);
            let ranks = mtf_encode(&input);
            prop_assert_eq!(&ranks, &mtf_encode_oracle(&input));
            prop_assert_eq!(mtf_decode(&ranks), input);
        }
    }
}

#[test]
fn package_merge_matches_the_oracle_at_the_edges() {
    let cases: Vec<(Vec<u64>, u8)> = vec![
        (vec![5], 1),
        (vec![1, 1], 1),
        (vec![0, 9, 0, 9], 1),
        (vec![1; 128], 7),
        (vec![1; 256], 8),
        ((0..286).map(|i| 1 + (1 << (i % 14))).collect(), 15),
        ((1..=40).map(|i| 1u64 << i).collect(), 20),
        (
            (0..258)
                .map(|i| if i % 3 == 0 { 0 } else { 1 + i })
                .collect(),
            20,
        ),
        (vec![u64::MAX / 1024; 300], 9),
    ];
    for (freqs, limit) in cases {
        assert_eq!(
            package_merge(&freqs, limit),
            package_merge_oracle(&freqs, limit),
            "{freqs:?} limit {limit}"
        );
    }
}
