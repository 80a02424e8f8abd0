//! Differential tests for the entropy-stage kernels and the decoders.
//!
//! `package_merge` is checked against the textbook arena formulation
//! (packages as explicit trees, lists never cut, leaf depths counted by
//! walking the selected trees), kept here as the oracle. The BWT-alphabet
//! move-to-front is checked against a plain 257-entry list. Both kernels
//! must agree with their oracle exactly: the solver goldens pin bytes,
//! and these pin the kernels on inputs the goldens never reach.
//!
//! The inflate token loop and the table-driven bzip2-class Huffman
//! decode are checked against bit-at-a-time oracles: the canonical
//! walk decoder, the per-token checked inflate with a byte-by-byte
//! match copy, and the bzip2-class block decode built on that walk,
//! each reading through a plain bit cursor. On valid, truncated and
//! bit-flipped streams the decoders must agree with their oracle on
//! `Ok` versus `Err`, and on `Ok` the bytes must be identical.

use isobar_codecs::bitio::{LsbBitWriter, MsbBitReader};
use isobar_codecs::bwt::{bwt_inverse, Bzip2Like};
use isobar_codecs::deflate::tables::*;
use isobar_codecs::deflate::{adler32, deflate_raw, inflate_raw, Deflate};
use isobar_codecs::huffman::{
    package_merge, package_merge_into, HuffmanDecoder, HuffmanEncoder, PackageMergeScratch,
};
use isobar_codecs::mtf::{mtf_decode, mtf_encode, ALPHABET};
use isobar_codecs::rle::{rle1_decode, zrle_decode_bounded};
use isobar_codecs::{Codec, CodecError, CompressionLevel};
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

// ---------------------------------------------------------------------
// Decoder oracles: bit-at-a-time, every read checked.

/// A bit cursor that reads one bit per call, in either bit order.
struct BitCursor<'a> {
    data: &'a [u8],
    bit: usize,
}

impl BitCursor<'_> {
    /// Next bit, LSB-first within each byte (DEFLATE order).
    fn lsb(&mut self) -> Result<u32, CodecError> {
        let byte = *self
            .data
            .get(self.bit / 8)
            .ok_or(CodecError::UnexpectedEof)?;
        self.bit += 1;
        Ok(u32::from(byte >> ((self.bit - 1) % 8)) & 1)
    }

    /// Next bit, MSB-first within each byte (bzip2 order).
    fn msb(&mut self) -> Result<u32, CodecError> {
        let byte = *self
            .data
            .get(self.bit / 8)
            .ok_or(CodecError::UnexpectedEof)?;
        self.bit += 1;
        Ok(u32::from(byte >> (7 - (self.bit - 1) % 8)) & 1)
    }

    /// `count` bits, the first stream bit lowest.
    fn lsb_bits(&mut self, count: u32) -> Result<u32, CodecError> {
        (0..count).try_fold(0, |v, i| Ok(v | self.lsb()? << i))
    }

    /// `count` bits, the first stream bit highest.
    fn msb_bits(&mut self, count: u32) -> Result<u32, CodecError> {
        (0..count).try_fold(0, |v, _| Ok(v << 1 | self.msb()?))
    }

    fn remaining_bits(&self) -> usize {
        (self.data.len() * 8).saturating_sub(self.bit)
    }
}

/// Canonical Huffman decoder that walks the code one bit at a time,
/// comparing against the first code of each length.
struct WalkDecoder {
    first_code: Vec<u32>,
    first_index: Vec<u32>,
    count: Vec<u32>,
    symbols: Vec<u16>,
}

impl WalkDecoder {
    /// Rejects over-subscribed length sets; accepts incomplete ones.
    fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        let mut count = vec![0u32; max_len + 1];
        for &len in lengths {
            count[len as usize] += 1;
        }
        count[0] = 0;
        let kraft: u64 = (1..=max_len)
            .map(|l| u64::from(count[l]) << (max_len - l))
            .sum();
        if max_len > 0 && kraft > 1u64 << max_len {
            return Err(CodecError::Corrupt("over-subscribed Huffman code"));
        }
        let (mut first_code, mut first_index) = (vec![0u32; max_len + 1], vec![0u32; max_len + 1]);
        let (mut code, mut index) = (0u32, 0u32);
        for len in 1..=max_len {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        let mut symbols = vec![0u16; index as usize];
        let mut next = first_index.clone();
        for (sym, &len) in lengths.iter().enumerate() {
            if len > 0 {
                symbols[next[len as usize] as usize] = sym as u16;
                next[len as usize] += 1;
            }
        }
        Ok(WalkDecoder {
            first_code,
            first_index,
            count,
            symbols,
        })
    }

    fn decode(
        &self,
        mut next_bit: impl FnMut() -> Result<u32, CodecError>,
    ) -> Result<u16, CodecError> {
        let mut code = 0u32;
        for len in 1..self.count.len() {
            code = (code << 1) | next_bit()?;
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < self.count[len] {
                return Ok(self.symbols[(self.first_index[len] + offset) as usize]);
            }
        }
        Err(CodecError::Corrupt("invalid Huffman code"))
    }
}

/// Oracle raw inflate: the decoded bytes and the bit position after
/// the final block.
fn inflate_oracle(data: &[u8]) -> Result<(Vec<u8>, usize), CodecError> {
    let mut r = BitCursor { data, bit: 0 };
    let mut out = Vec::new();
    loop {
        let is_final = r.lsb()? == 1;
        match r.lsb_bits(2)? {
            0 => {
                r.bit = r.bit.div_ceil(8) * 8;
                let len = r.lsb_bits(16)?;
                if len != !r.lsb_bits(16)? & 0xffff {
                    return Err(CodecError::Corrupt("stored block LEN/NLEN mismatch"));
                }
                for _ in 0..len {
                    out.push(r.lsb_bits(8)? as u8);
                }
            }
            1 => {
                let lit = WalkDecoder::from_lengths(&fixed_litlen_lengths())?;
                let dist = WalkDecoder::from_lengths(&fixed_dist_lengths())?;
                inflate_block_oracle(&mut r, &mut out, &lit, &dist)?;
            }
            2 => {
                let (lit, dist) = dynamic_header_oracle(&mut r)?;
                inflate_block_oracle(&mut r, &mut out, &lit, &dist)?;
            }
            _ => return Err(CodecError::Corrupt("reserved block type 11")),
        }
        if is_final {
            return Ok((out, r.bit));
        }
    }
}

fn dynamic_header_oracle(r: &mut BitCursor<'_>) -> Result<(WalkDecoder, WalkDecoder), CodecError> {
    let hlit = r.lsb_bits(5)? as usize + 257;
    let hdist = r.lsb_bits(5)? as usize + 1;
    let hclen = r.lsb_bits(4)? as usize + 4;
    let mut cl_lengths = [0u8; NUM_CODELEN];
    for &sym in CODELEN_ORDER.iter().take(hclen) {
        cl_lengths[sym] = r.lsb_bits(3)? as u8;
    }
    let cl = WalkDecoder::from_lengths(&cl_lengths)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        let (value, run) = match cl.decode(|| r.lsb())? {
            sym @ 0..=15 => (sym as u8, 1),
            16 => {
                let prev = *lengths
                    .last()
                    .ok_or(CodecError::Corrupt("repeat code with no previous length"))?;
                (prev, r.lsb_bits(2)? as usize + 3)
            }
            17 => (0, r.lsb_bits(3)? as usize + 3),
            18 => (0, r.lsb_bits(7)? as usize + 11),
            _ => return Err(CodecError::Corrupt("invalid code-length symbol")),
        };
        if lengths.len() + run > hlit + hdist {
            return Err(CodecError::Corrupt("code-length run overflows header"));
        }
        lengths.extend(std::iter::repeat_n(value, run));
    }
    Ok((
        WalkDecoder::from_lengths(&lengths[..hlit])?,
        WalkDecoder::from_lengths(&lengths[hlit..])?,
    ))
}

fn inflate_block_oracle(
    r: &mut BitCursor<'_>,
    out: &mut Vec<u8>,
    lit: &WalkDecoder,
    dist: &WalkDecoder,
) -> Result<(), CodecError> {
    loop {
        match lit.decode(|| r.lsb())? as usize {
            sym @ 0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            sym @ 257..=285 => {
                let idx = sym - 257;
                let len =
                    LENGTH_BASE[idx] as usize + r.lsb_bits(LENGTH_EXTRA[idx].into())? as usize;
                let dsym = dist.decode(|| r.lsb())? as usize;
                if dsym >= NUM_DIST {
                    return Err(CodecError::Corrupt("invalid distance symbol"));
                }
                let d = DIST_BASE[dsym] as usize + r.lsb_bits(DIST_EXTRA[dsym].into())? as usize;
                if d > out.len() {
                    return Err(CodecError::Corrupt("distance reaches before output start"));
                }
                for _ in 0..len {
                    out.push(out[out.len() - d]);
                }
            }
            _ => return Err(CodecError::Corrupt("invalid literal/length symbol")),
        }
    }
}

/// Oracle zlib decode: header, oracle inflate, Adler-32 trailer.
fn zlib_oracle(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    if data.len() < 6 {
        return Err(CodecError::UnexpectedEof);
    }
    let (cmf, flg) = (data[0], data[1]);
    if cmf & 0x0f != 8 || (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 || flg & 0x20 != 0 {
        return Err(CodecError::Corrupt("zlib header"));
    }
    let (out, end_bit) = inflate_oracle(&data[2..])?;
    let trailer = data[2 + end_bit.div_ceil(8)..]
        .get(..4)
        .ok_or(CodecError::UnexpectedEof)?;
    let expected = u32::from_be_bytes(trailer.try_into().unwrap());
    if expected != adler32(&out) {
        return Err(CodecError::Corrupt("adler mismatch"));
    }
    Ok(out)
}

/// Oracle bzip2-class decode, block by block, Huffman codes walked.
fn bzip2_oracle(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = BitCursor { data, bit: 0 };
    let num_blocks = r.msb_bits(32)? as usize;
    if num_blocks > data.len() * 8 + 1 {
        return Err(CodecError::Corrupt("implausible block count"));
    }
    let mut out = Vec::new();
    for _ in 0..num_blocks {
        bzip2_block_oracle(&mut r, &mut out)?;
    }
    if r.msb_bits(32)? != adler32(&out) {
        return Err(CodecError::Corrupt("adler mismatch"));
    }
    Ok(out)
}

fn bzip2_block_oracle(r: &mut BitCursor<'_>, out: &mut Vec<u8>) -> Result<(), CodecError> {
    const GROUP_SIZE: usize = 50;
    const MAX_TABLES: usize = 6;
    const MAX_CODE_LEN: i32 = 20;
    const MAX_RLE1_LEN: usize = 900 * 1024 + 900 * 1024 / 4;
    let bad = CodecError::Corrupt("bzip2 block");
    let rle1_len = r.msb_bits(32)? as usize;
    let num_symbols = r.msb_bits(32)? as usize;
    if rle1_len > MAX_RLE1_LEN || num_symbols > rle1_len + 1 || num_symbols > r.remaining_bits() {
        return Err(bad);
    }
    let n_tables = r.msb_bits(3)? as usize;
    if !(1..=MAX_TABLES).contains(&n_tables) {
        return Err(bad);
    }
    let mut decoders = Vec::new();
    for _ in 0..n_tables {
        let mut cur = r.msb_bits(5)? as i32;
        let mut lengths = [0u8; 258];
        for len in lengths.iter_mut() {
            while r.msb()? == 1 {
                cur += if r.msb()? == 0 { 1 } else { -1 };
                if !(1..=MAX_CODE_LEN).contains(&cur) {
                    return Err(bad);
                }
            }
            if !(1..=MAX_CODE_LEN).contains(&cur) {
                return Err(bad);
            }
            *len = cur as u8;
        }
        decoders.push(WalkDecoder::from_lengths(&lengths)?);
    }
    let mut order: Vec<u8> = (0..n_tables as u8).collect();
    let mut selectors = Vec::new();
    for _ in 0..num_symbols.div_ceil(GROUP_SIZE) {
        let mut rank = 0;
        while r.msb()? == 1 {
            rank += 1;
            if rank >= n_tables {
                return Err(bad);
            }
        }
        let sel = order.remove(rank);
        order.insert(0, sel);
        selectors.push(sel);
    }
    let mut symbols = Vec::new();
    for (g, &sel) in selectors.iter().enumerate() {
        for _ in 0..GROUP_SIZE.min(num_symbols - g * GROUP_SIZE) {
            symbols.push(decoders[sel as usize].decode(|| r.msb())?);
        }
    }
    let ranks = zrle_decode_bounded(&symbols, rle1_len + 1)?;
    if ranks.len() != rle1_len + 1 || ranks.iter().any(|&rk| rk as usize >= ALPHABET) {
        return Err(bad);
    }
    out.extend_from_slice(&rle1_decode(&bwt_inverse(&mtf_decode(&ranks))?));
    Ok(())
}

// ---------------------------------------------------------------------
// Inputs and damage for the decoder differentials.

/// Seeded bytes with the structures inflate must copy: literals,
/// periodic runs of period 1..=8 (overlapping matches), exact repeats
/// of an earlier stretch (`d == len`), and runs longer than 258.
fn structured_bytes() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..64).prop_map(|v| (0u8, v, 0usize)),
        (1usize..9, 3usize..600).prop_map(|(d, n)| (1u8, vec![0; d], n)),
        (3usize..259).prop_map(|n| (2u8, Vec::new(), n)),
        (259usize..2000).prop_map(|n| (3u8, Vec::new(), n)),
    ];
    proptest::collection::vec(piece, 0..24).prop_map(|pieces| {
        let mut out: Vec<u8> = Vec::new();
        for (kind, bytes, n) in pieces {
            match kind {
                0 => out.extend_from_slice(&bytes),
                // A period-d pattern drawn from the bytes so far.
                1 => {
                    let d = bytes.len();
                    let pattern: Vec<u8> = (0..d)
                        .map(|i| out.get(i * 7).copied().unwrap_or(i as u8 * 31))
                        .collect();
                    out.extend((0..n).map(|i| pattern[i % d]));
                }
                // An exact copy of the last `n` bytes: distance == length.
                2 if out.len() >= n => out.extend_from_within(out.len() - n..),
                2 => out.extend((0..n).map(|i| (i * 13) as u8)),
                _ => out.resize(out.len() + n, 0xAA),
            }
        }
        out
    })
}

fn level() -> impl Strategy<Value = CompressionLevel> {
    prop_oneof![
        Just(CompressionLevel::Fast),
        Just(CompressionLevel::Default),
        Just(CompressionLevel::Best),
    ]
}

/// Flip the given bits (positions wrap around the stream).
fn flip(stream: &[u8], flips: &[usize]) -> Vec<u8> {
    let mut out = stream.to_vec();
    if !out.is_empty() {
        for &bit in flips {
            let bit = bit % (out.len() * 8);
            out[bit / 8] ^= 1 << (bit % 8);
        }
    }
    out
}

/// The decoder and the oracle must agree on accept/reject and bytes.
fn agree(what: &str, got: Result<Vec<u8>, CodecError>, want: Result<Vec<u8>, CodecError>) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert!(got == want, "{what}: bytes differ"),
        (Err(_), Err(_)) => {}
        (got, want) => panic!(
            "{what}: decoder {:?} but oracle {:?}",
            got.map(|v| v.len()),
            want.map(|v| v.len())
        ),
    }
}

fn check_inflate(what: &str, stream: &[u8]) {
    let want = inflate_oracle(stream).map(|(out, _)| out);
    agree(what, inflate_raw(stream, 0), want);
}

fn check_zlib(what: &str, stream: &[u8]) {
    agree(
        what,
        Deflate::default().decompress(stream),
        zlib_oracle(stream),
    );
}

fn check_bzip2(what: &str, stream: &[u8]) {
    agree(
        what,
        Bzip2Like::default().decompress(stream),
        bzip2_oracle(stream),
    );
}

/// A fixed-Huffman block holding `tokens`: `(0, byte)` is a literal,
/// `(len, dist)` a match, whether or not the distance is valid.
fn fixed_block(tokens: &[(u16, u16)]) -> Vec<u8> {
    let lit = HuffmanEncoder::from_lengths(&fixed_litlen_lengths());
    let dist = HuffmanEncoder::from_lengths(&fixed_dist_lengths());
    let mut w = LsbBitWriter::new();
    w.write_bits(1, 1);
    w.write_bits(0b01, 2);
    for &(len, d) in tokens {
        if len == 0 {
            lit.write_lsb(&mut w, d as usize);
        } else {
            let (idx, extra, value) = length_code(len);
            lit.write_lsb(&mut w, 257 + idx);
            w.write_bits(value.into(), extra.into());
            let (code, extra, value) = dist_code(d);
            dist.write_lsb(&mut w, code);
            w.write_bits(value.into(), extra.into());
        }
    }
    lit.write_lsb(&mut w, EOB);
    w.finish()
}

fn token() -> impl Strategy<Value = (u16, u16)> {
    prop_oneof![
        (Just(0u16), 0u16..256),
        (Just(0u16), 0u16..256),
        (3u16..259, 1u16..9),
        (3u16..17).prop_map(|n| (n, n)),
        (prop_oneof![Just(258u16), Just(257), 3u16..258], 1u16..301),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inflate_matches_the_oracle_on_encoder_streams(
        data in structured_bytes(),
        level in level(),
        flips in proptest::collection::vec(any::<usize>(), 1..4),
        cut in any::<usize>(),
    ) {
        let raw = deflate_raw(&data, level);
        check_inflate("raw", &raw);
        prop_assert_eq!(inflate_raw(&raw, data.len()).unwrap(), data.clone());
        check_inflate("raw, flipped", &flip(&raw, &flips));
        check_inflate("raw, truncated", &raw[..cut % (raw.len() + 1)]);

        let zlib = Deflate::new(level).compress(&data);
        check_zlib("zlib", &zlib);
        check_zlib("zlib, flipped", &flip(&zlib, &flips));
        check_zlib("zlib, truncated", &zlib[..cut % (zlib.len() + 1)]);
    }

    #[test]
    fn inflate_matches_the_oracle_on_hand_built_matches(
        tokens in proptest::collection::vec(token(), 0..200),
        flips in proptest::collection::vec(any::<usize>(), 1..3),
    ) {
        let stream = fixed_block(&tokens);
        check_inflate("fixed block", &stream);
        check_inflate("fixed block, flipped", &flip(&stream, &flips));
    }

    #[test]
    fn bzip2_decode_matches_the_oracle(
        data in structured_bytes(),
        flips in proptest::collection::vec(any::<usize>(), 1..4),
        cut in any::<usize>(),
    ) {
        let stream = Bzip2Like::default().compress(&data);
        check_bzip2("bzip2", &stream);
        check_bzip2("bzip2, flipped", &flip(&stream, &flips));
        check_bzip2("bzip2, truncated", &stream[..cut % (stream.len() + 1)]);
    }

    #[test]
    fn msb_table_decode_matches_the_walk(
        freqs in freq_vectors(),
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // Arbitrary streams under limit-20 codes: symbols of more than
        // 10 bits, gaps of incomplete codes and the stream tail.
        let freqs = feasible(freqs, 20);
        let mut lengths = package_merge(&freqs, 20);
        if let Some(last) = lengths.iter_mut().rev().find(|l| **l > 1) {
            *last += 1; // sometimes leaves a gap
        }
        let table = HuffmanDecoder::from_lengths(&lengths).unwrap();
        let walk = WalkDecoder::from_lengths(&lengths).unwrap();
        let mut r = MsbBitReader::new(&bytes);
        let mut c = BitCursor { data: &bytes, bit: 0 };
        loop {
            let (got, want) = (table.decode_msb(&mut r), walk.decode(|| c.msb()));
            prop_assert_eq!(got.is_ok(), want.is_ok());
            match (got, want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                _ => break,
            }
            prop_assert_eq!(r.remaining_bits(), c.remaining_bits());
        }
    }
}

#[test]
fn decoders_match_the_oracle_at_every_truncation_point() {
    // Incompressible bytes take a stored block, a few bytes a fixed
    // block and skewed text a dynamic block; every block type is cut.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let noise: Vec<u8> = (0..200)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        })
        .collect();
    let text: Vec<u8> = (0..60u32)
        .flat_map(|i| format!("the fox {} jumps {}; ", i % 7, i * i % 11).into_bytes())
        .collect();
    let inputs: [&[u8]; 3] = [&noise, b"abcabcabcabd", &text];
    let mut block_types = Vec::new();
    for input in inputs {
        for level in CompressionLevel::ALL {
            let raw = deflate_raw(input, level);
            block_types.push((raw[0] >> 1) & 3);
            let zlib = Deflate::new(level).compress(input);
            let bzip2 = Bzip2Like::new(level).compress(input);
            for cut in 0..=raw.len() {
                check_inflate("raw", &raw[..cut]);
            }
            for cut in 0..=zlib.len() {
                check_zlib("zlib", &zlib[..cut]);
            }
            for cut in 0..=bzip2.len() {
                check_bzip2("bzip2", &bzip2[..cut]);
            }
        }
    }
    for block_type in 0..3 {
        assert!(
            block_types.contains(&block_type),
            "no stream opens with block type {block_type}: {block_types:?}"
        );
    }
}

#[test]
fn decoders_match_the_oracle_under_every_single_bit_flip() {
    let data: Vec<u8> = b"flip every bit of a short stream, flip every bit again"
        .iter()
        .chain(&[0u8; 300])
        .copied()
        .collect();
    for level in CompressionLevel::ALL {
        let raw = deflate_raw(&data, level);
        let bzip2 = Bzip2Like::new(level).compress(&data);
        for bit in 0..raw.len() * 8 {
            check_inflate("raw", &flip(&raw, &[bit]));
        }
        for bit in 0..bzip2.len() * 8 {
            check_bzip2("bzip2", &flip(&bzip2, &[bit]));
        }
    }
}
