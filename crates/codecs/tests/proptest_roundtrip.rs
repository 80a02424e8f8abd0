//! Property-based round-trip tests for every codec layer.
//!
//! The cardinal invariant of a lossless codec is
//! `decode(encode(x)) == x` for *all* inputs. Each layer of the two
//! solvers is tested independently and then end-to-end, over byte
//! vectors drawn from several distributions (uniform random bytes are a
//! poor proxy for scientific data, so low-entropy and run-heavy inputs
//! get their own strategies).

use isobar_codecs::bwt::{bwt_forward, bwt_inverse, Bzip2Like};
use isobar_codecs::codec::{Codec, CompressionLevel};
use isobar_codecs::deflate::{adler32, Deflate};
use isobar_codecs::huffman::{HuffmanDecoder, HuffmanEncoder};
use isobar_codecs::lz77::{detokenize, Matcher};
use isobar_codecs::mtf::{mtf_decode, mtf_encode};
use isobar_codecs::rle::{rle1_decode, rle1_encode, zrle_decode, zrle_encode};
use proptest::prelude::*;

/// Byte vectors with a mix of shapes: uniform, low-entropy (few distinct
/// values), and run-heavy.
fn byte_inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..4096),
        proptest::collection::vec(prop_oneof![Just(0u8), Just(1), Just(255)], 0..4096),
        proptest::collection::vec((any::<u8>(), 1usize..64), 0..128).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lz77_round_trips(data in byte_inputs(), level in 0usize..3) {
        let level = CompressionLevel::ALL[level];
        let mut scratch = isobar_codecs::lz77::MatcherScratch::default();
        let tokens = Matcher::new(&data, level, &mut scratch).tokenize();
        prop_assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn deflate_round_trips(data in byte_inputs(), level in 0usize..3) {
        let codec = Deflate::new(CompressionLevel::ALL[level]);
        let packed = codec.compress(&data);
        prop_assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn bzip2like_round_trips(data in byte_inputs(), level in 0usize..3) {
        let codec = Bzip2Like::new(CompressionLevel::ALL[level]);
        let packed = codec.compress(&data);
        prop_assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn bwt_round_trips(data in byte_inputs()) {
        let transformed = bwt_forward(&data);
        prop_assert_eq!(bwt_inverse(&transformed).unwrap(), data);
    }

    #[test]
    fn bwt_is_a_permutation_plus_sentinel(data in byte_inputs()) {
        let transformed = bwt_forward(&data);
        let mut bytes: Vec<u8> = transformed
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| (s - 1) as u8)
            .collect();
        let mut original = data.clone();
        bytes.sort_unstable();
        original.sort_unstable();
        prop_assert_eq!(bytes, original);
    }

    #[test]
    fn rle1_round_trips(data in byte_inputs()) {
        prop_assert_eq!(rle1_decode(&rle1_encode(&data)), data);
    }

    #[test]
    fn rle1_never_expands_much(data in byte_inputs()) {
        // Worst case: a count byte per 4 input bytes.
        let encoded = rle1_encode(&data);
        prop_assert!(encoded.len() <= data.len() + data.len() / 4 + 1);
    }

    #[test]
    fn mtf_round_trips(ranks in proptest::collection::vec(0u16..257, 0..2048)) {
        let encoded = mtf_encode(&ranks);
        prop_assert_eq!(mtf_decode(&encoded), ranks);
    }

    #[test]
    fn zrle_round_trips(ranks in proptest::collection::vec(0u16..257, 0..2048)) {
        let encoded = zrle_encode(&ranks);
        prop_assert_eq!(zrle_decode(&encoded), ranks);
    }

    #[test]
    fn huffman_round_trips_any_histogram(
        freqs in proptest::collection::vec(0u64..1000, 2..64),
        message in proptest::collection::vec(any::<u16>(), 0..512),
    ) {
        // Keep only symbols with nonzero frequency in the message.
        let present: Vec<usize> =
            freqs.iter().enumerate().filter(|(_, &f)| f > 0).map(|(s, _)| s).collect();
        prop_assume!(!present.is_empty());
        let message: Vec<usize> =
            message.iter().map(|&m| present[m as usize % present.len()]).collect();

        let enc = HuffmanEncoder::from_freqs(&freqs, 15);
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        let mut w = isobar_codecs::bitio::MsbBitWriter::new();
        for &sym in &message {
            enc.write_msb(&mut w, sym);
        }
        let bytes = w.finish();
        let mut r = isobar_codecs::bitio::MsbBitReader::new(&bytes);
        for &sym in &message {
            prop_assert_eq!(dec.decode_msb(&mut r).unwrap() as usize, sym);
        }
    }

    #[test]
    fn adler32_differs_on_single_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..256), idx in any::<proptest::sample::Index>(), bit in 0u8..8) {
        let i = idx.index(data.len());
        let mut flipped = data.clone();
        flipped[i] ^= 1 << bit;
        // Adler-32 is weak but must catch any single-bit flip.
        prop_assert_ne!(adler32(&data), adler32(&flipped));
    }

    #[test]
    fn deflate_compressed_size_is_bounded(data in byte_inputs()) {
        // Stored-block fallback bounds expansion: 5 bytes per 65535-byte
        // block + zlib framing.
        let packed = Deflate::default().compress(&data);
        prop_assert!(packed.len() <= data.len() + 5 * (data.len() / 65535 + 1) + 6 + 4);
    }

    #[test]
    fn decoders_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Random bytes must produce Ok or Err, never a panic.
        let _ = Deflate::default().decompress(&data);
        let _ = Bzip2Like::default().decompress(&data);
        let _ = isobar_codecs::pfor::pfor_decode(&data);
    }

    #[test]
    fn pfor_round_trips(values in proptest::collection::vec(any::<u64>(), 0..1024), delta in any::<bool>()) {
        use isobar_codecs::pfor::{pfor_decode, pfor_encode};
        let packed = pfor_encode(&values, delta);
        prop_assert_eq!(pfor_decode(&packed).unwrap(), values);
    }

    #[test]
    fn pfor_round_trips_smooth_series(
        start in any::<u64>(),
        steps in proptest::collection::vec(-1000i64..1000, 0..1024),
        delta in any::<bool>(),
    ) {
        use isobar_codecs::pfor::{pfor_decode, pfor_encode};
        let mut acc = start;
        let values: Vec<u64> = steps
            .iter()
            .map(|&s| {
                acc = acc.wrapping_add(s as u64);
                acc
            })
            .collect();
        let packed = pfor_encode(&values, delta);
        prop_assert_eq!(pfor_decode(&packed).unwrap(), values);
    }

    #[test]
    fn shuffle_round_trips(data in byte_inputs(), width in 1usize..16) {
        use isobar_codecs::shuffle::{shuffle, unshuffle};
        let n = data.len() / width;
        let data = &data[..n * width];
        prop_assert_eq!(unshuffle(&shuffle(data, width), width), data);
    }

    #[test]
    fn shuffled_codec_round_trips(data in byte_inputs(), width in 1usize..16) {
        use isobar_codecs::shuffle::ShuffledCodec;
        let n = data.len() / width;
        let data = &data[..n * width];
        let codec = ShuffledCodec::new(Deflate::default(), width);
        let packed = codec.compress(data);
        prop_assert_eq!(codec.decompress(&packed).unwrap(), data);
    }
}
