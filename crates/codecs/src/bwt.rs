//! The bzip2-class solver: RLE1 → BWT → MTF → zero-run RLE → Huffman.
//!
//! This is the reproduction's stand-in for the paper's "bzlib2". It
//! follows the same block-oriented architecture as bzip2: the input is
//! split into blocks (size set by [`CompressionLevel`]), each block is
//! run-length preconditioned, Burrows–Wheeler transformed (via the
//! linear-time SA-IS suffix array in [`crate::suffix`]), move-to-front
//! coded, zero-run coded in bijective base 2, and entropy coded with a
//! canonical Huffman table stored per block.
//!
//! Differences from the bzip2 file format (this codec defines its own
//! container; interoperability is not a goal): the BWT uses an explicit
//! sentinel instead of a stored rotation index, a single Huffman table
//! is used per block instead of six with selector streams, and the
//! integrity checksum is Adler-32 over the whole payload.

use crate::bitio::{MsbBitReader, MsbBitWriter};
use crate::codec::{Codec, CodecError, CodecId, CodecScratch, CompressionLevel};
use crate::deflate::adler32;
use crate::huffman::{HuffmanDecoder, HuffmanEncoder, PackageMergeScratch};
use crate::mtf::{mtf_decode, mtf_encode, ALPHABET as BWT_ALPHA};
use crate::rle::{rle1_decode, rle1_encode, zrle_decode_bounded, zrle_encode};
use crate::suffix::suffix_array_bytes;

/// Entropy alphabet: RUNA, RUNB, then MTF ranks 1..=256 shifted by one.
const ENTROPY_ALPHA: usize = 258;
/// Maximum Huffman code length for the entropy stage.
const MAX_CODE_LEN: u8 = 20;
/// Bits used to store each code length in the block header.
const LEN_FIELD_BITS: u32 = 5;

/// Burrows–Wheeler transform of `data`.
///
/// Returns the last column of the sorted rotations of `data + sentinel`,
/// as symbols over the 257-value `BWT_ALPHA` alphabet (byte `b` appears
/// as `b + 1`; the sentinel 0 appears exactly once). Output length is
/// `data.len() + 1`.
///
/// # Example
///
/// ```
/// use isobar_codecs::bwt::{bwt_forward, bwt_inverse};
///
/// let bwt = bwt_forward(b"banana");
/// // Rendered with '$' for the sentinel: the classic "annb$aa".
/// let rendered: String = bwt
///     .iter()
///     .map(|&s| if s == 0 { '$' } else { (s - 1) as u8 as char })
///     .collect();
/// assert_eq!(rendered, "annb$aa");
/// assert_eq!(bwt_inverse(&bwt).unwrap(), b"banana");
/// ```
pub fn bwt_forward(data: &[u8]) -> Vec<u16> {
    let sa = suffix_array_bytes(data);
    let n = sa.len(); // data.len() + 1
    let symbol_at = |i: usize| -> u16 {
        if i == n - 1 {
            0
        } else {
            data[i] as u16 + 1
        }
    };
    sa.iter()
        .map(|&pos| {
            let prev = if pos == 0 { n - 1 } else { pos as usize - 1 };
            symbol_at(prev)
        })
        .collect()
}

/// Inverse BWT: recover the original bytes from the last column.
///
/// Validates that the input contains exactly one sentinel and no symbol
/// outside the alphabet.
pub fn bwt_inverse(bwt: &[u16]) -> Result<Vec<u8>, CodecError> {
    if bwt.is_empty() {
        return Err(CodecError::Corrupt("empty BWT block"));
    }
    let n = bwt.len();
    let mut counts = [0u32; BWT_ALPHA];
    for &sym in bwt {
        if sym as usize >= BWT_ALPHA {
            return Err(CodecError::Corrupt("BWT symbol outside alphabet"));
        }
        counts[sym as usize] += 1;
    }
    if counts[0] != 1 {
        return Err(CodecError::Corrupt("BWT block must contain one sentinel"));
    }

    // first[c] = index in the sorted first column where symbol c starts.
    let mut first = [0u32; BWT_ALPHA + 1];
    for c in 0..BWT_ALPHA {
        first[c + 1] = first[c] + counts[c];
    }

    // LF mapping: lf[i] = first[bwt[i]] + rank of this occurrence.
    let mut next_rank = first;
    let mut lf = vec![0u32; n];
    for (i, &sym) in bwt.iter().enumerate() {
        lf[i] = next_rank[sym as usize];
        next_rank[sym as usize] += 1;
    }

    // Walk from the sentinel row (row 0 of the sorted matrix); each step
    // prepends one character.
    let mut out = vec![0u8; n - 1];
    let mut row = 0u32;
    for slot in out.iter_mut().rev() {
        let sym = bwt[row as usize];
        // A single sentinel does not guarantee a single cycle: a crafted
        // last column can close the LF walk early and revisit row 0.
        if sym == 0 {
            return Err(CodecError::Corrupt("BWT sentinel encountered mid-walk"));
        }
        *slot = (sym - 1) as u8;
        row = lf[row as usize];
    }
    if bwt[row as usize] != 0 {
        return Err(CodecError::Corrupt("BWT walk did not close its cycle"));
    }
    Ok(out)
}

/// The bzip2-class block codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bzip2Like {
    level: CompressionLevel,
}

impl Bzip2Like {
    /// Create the codec at the given effort level.
    pub fn new(level: CompressionLevel) -> Self {
        Bzip2Like { level }
    }

    /// The configured effort level.
    pub fn level(&self) -> CompressionLevel {
        self.level
    }

    /// Block size in bytes (bzip2 trades memory and speed for ratio the
    /// same way: 100k–900k by level).
    pub fn block_size(&self) -> usize {
        match self.level {
            CompressionLevel::Fast => 128 * 1024,
            CompressionLevel::Default => 512 * 1024,
            CompressionLevel::Best => 900 * 1024,
        }
    }
}

impl Codec for Bzip2Like {
    fn id(&self) -> CodecId {
        CodecId::Bzip2Like
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out, &mut CodecScratch::new());
        out
    }

    fn compress_into(&self, data: &[u8], out: &mut Vec<u8>, scratch: &mut CodecScratch) {
        // The output buffer and the Huffman table builds reuse their
        // memory across calls; the per-block BWT and MTF buffers still
        // allocate (see DESIGN.md — the suffix-array and MTF temporaries
        // dominate and are a planned follow-up).
        out.clear();
        let mut w = MsbBitWriter::with_prefix(std::mem::take(out));
        let num_blocks = if data.is_empty() {
            0
        } else {
            data.len().div_ceil(self.block_size())
        };
        w.write_bits(num_blocks as u32, 32);
        if !data.is_empty() {
            for block in data.chunks(self.block_size()) {
                encode_block(&mut w, block, &mut scratch.bwt);
            }
        }
        w.write_bits(adler32(data), 32);
        *out = w.finish();
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out, &mut CodecScratch::new())?;
        Ok(out)
    }

    fn decompress_into(
        &self,
        data: &[u8],
        out: &mut Vec<u8>,
        _scratch: &mut CodecScratch,
    ) -> Result<(), CodecError> {
        let mut r = MsbBitReader::new(data);
        let num_blocks = r.read_bits(32)? as usize;
        // Sanity bound: each block encodes at least a few bits.
        if num_blocks > data.len().saturating_mul(8) + 1 {
            return Err(CodecError::Corrupt("implausible block count"));
        }
        out.clear();
        for _ in 0..num_blocks {
            decode_block(&mut r, out)?;
        }
        let expected = r.read_bits(32)?;
        let actual = adler32(out);
        if expected != actual {
            return Err(CodecError::ChecksumMismatch { expected, actual });
        }
        Ok(())
    }
}

/// Symbols per selector group (bzip2's constant).
const GROUP_SIZE: usize = 50;
/// Maximum number of Huffman tables per block (bzip2's constant).
const MAX_TABLES: usize = 6;
/// Refinement passes when assigning groups to tables.
const TABLE_PASSES: usize = 4;
/// Per-symbol cost lanes: [`MAX_TABLES`] rounded up to a SIMD width.
const COST_LANES: usize = 8;

/// bzip2's table-count schedule by symbol count.
fn num_tables_for(n_syms: usize) -> usize {
    match n_syms {
        0..=199 => 2,
        200..=599 => 3,
        600..=1199 => 4,
        1200..=2399 => 5,
        _ => MAX_TABLES,
    }
}

/// [`build_tables`]' output and working memory, reused across blocks
/// and calls so table construction stays off the allocator once warm.
#[derive(Default)]
pub(crate) struct TableScratch {
    pm: PackageMergeScratch,
    encoders: Vec<HuffmanEncoder>,
    selectors: Vec<u8>,
}

/// Assign each 50-symbol group to one of `n_tables` Huffman tables and
/// build the tables, bzip2-style: start from a round-robin assignment,
/// then alternate "rebuild tables from their groups" and "reassign each
/// group to its cheapest table" for a few passes. The encoders land in
/// `t.encoders[..n_tables]`, the assignment in `t.selectors`.
///
/// A table is rebuilt only when its frequencies changed, and once no
/// table changed the passes stop: every later reassignment would be
/// identical, so the output equals running all passes.
fn build_tables(symbols: &[u16], n_tables: usize, t: &mut TableScratch) {
    t.selectors.clear();
    t.selectors
        .extend((0..symbols.len().div_ceil(GROUP_SIZE)).map(|g| (g % n_tables) as u8));
    if t.encoders.len() < MAX_TABLES {
        t.encoders.resize_with(MAX_TABLES, HuffmanEncoder::default);
    }
    let mut built = [[0u64; ENTROPY_ALPHA]; MAX_TABLES];
    // Code lengths per symbol, one lane per table, so a group's cost
    // under every table sums in one pass (≤ 50 × 20 bits fits a u16).
    let mut lens = [[0u16; COST_LANES]; ENTROPY_ALPHA];
    for pass in 0..TABLE_PASSES {
        // Rebuild each table from its assigned groups. The +1 floor
        // guarantees every symbol has a code in every table, so any
        // later reassignment stays encodable.
        let mut freqs = [[1u64; ENTROPY_ALPHA]; MAX_TABLES];
        for (group, &sel) in symbols.chunks(GROUP_SIZE).zip(&t.selectors) {
            for &sym in group {
                freqs[sel as usize][sym as usize] += 1;
            }
        }
        let mut changed = false;
        for table in 0..n_tables {
            if pass > 0 && freqs[table] == built[table] {
                continue;
            }
            changed = true;
            built[table] = freqs[table];
            let enc = &mut t.encoders[table];
            enc.rebuild_from_freqs(&freqs[table], MAX_CODE_LEN, &mut t.pm);
            for (sym, lanes) in lens.iter_mut().enumerate() {
                lanes[table] = u16::from(enc.len(sym));
            }
        }
        if !changed {
            break;
        }

        // Reassign each group to the cheapest table, the lowest index
        // on ties.
        for (group, sel) in symbols.chunks(GROUP_SIZE).zip(&mut t.selectors) {
            let mut cost = [0u16; COST_LANES];
            for &sym in group {
                for (c, &l) in cost.iter_mut().zip(&lens[sym as usize]) {
                    *c += l;
                }
            }
            let best = (1..n_tables).fold(0, |best, t| if cost[t] < cost[best] { t } else { best });
            *sel = best as u8;
        }
    }
}

/// Serialize one table's code lengths with bzip2's delta scheme: a
/// 5-bit starting length, then per symbol `10` (increment), `11`
/// (decrement), `0` (emit current and advance). Adjacent symbols have
/// similar lengths, so this averages ~1–2 bits/symbol versus 5 for
/// fixed fields.
fn write_delta_lengths(w: &mut MsbBitWriter, enc: &HuffmanEncoder) {
    let mut cur = enc.len(0) as i32;
    w.write_bits(cur as u32, LEN_FIELD_BITS);
    for sym in 0..ENTROPY_ALPHA {
        let len = enc.len(sym) as i32;
        while cur != len {
            w.write_bits(1, 1);
            if len > cur {
                w.write_bits(0, 1);
                cur += 1;
            } else {
                w.write_bits(1, 1);
                cur -= 1;
            }
        }
        w.write_bits(0, 1);
    }
}

/// Inverse of [`write_delta_lengths`].
fn read_delta_lengths(r: &mut MsbBitReader<'_>) -> Result<[u8; ENTROPY_ALPHA], CodecError> {
    let mut cur = r.read_bits(LEN_FIELD_BITS)? as i32;
    let mut lengths = [0u8; ENTROPY_ALPHA];
    for len in lengths.iter_mut() {
        loop {
            if r.read_bit()? == 0 {
                break;
            }
            if r.read_bit()? == 0 {
                cur += 1;
            } else {
                cur -= 1;
            }
            if !(1..=MAX_CODE_LEN as i32).contains(&cur) {
                return Err(CodecError::Corrupt("delta-coded length out of range"));
            }
        }
        if !(1..=MAX_CODE_LEN as i32).contains(&cur) {
            return Err(CodecError::Corrupt("delta-coded length out of range"));
        }
        *len = cur as u8;
    }
    Ok(lengths)
}

fn encode_block(w: &mut MsbBitWriter, block: &[u8], t: &mut TableScratch) {
    let rle1 = rle1_encode(block);
    let bwt = bwt_forward(&rle1);
    let ranks = mtf_encode(&bwt);
    let symbols = zrle_encode(&ranks);

    let n_tables = num_tables_for(symbols.len());
    build_tables(&symbols, n_tables, t);
    let (encoders, selectors) = (&t.encoders[..n_tables], &t.selectors);

    w.write_bits(rle1.len() as u32, 32);
    w.write_bits(symbols.len() as u32, 32);
    w.write_bits(n_tables as u32, 3);
    for enc in encoders {
        write_delta_lengths(w, enc);
    }
    // Selectors, move-to-front then unary coded (bzip2's scheme): the
    // MTF rank r is written as r one-bits and a terminating zero.
    let mut mtf_order: Vec<u8> = (0..n_tables as u8).collect();
    for &sel in selectors {
        let rank = mtf_order.iter().position(|&t| t == sel).expect("table");
        for _ in 0..rank {
            w.write_bits(1, 1);
        }
        w.write_bits(0, 1);
        mtf_order.copy_within(0..rank, 1);
        mtf_order[0] = sel;
    }
    for (group, &sel) in symbols.chunks(GROUP_SIZE).zip(selectors) {
        let enc = &encoders[sel as usize];
        for &sym in group {
            enc.write_msb(w, sym as usize);
        }
    }
}

/// Largest RLE1 stream any encoder level can emit per block: the
/// biggest block size (900 KiB at `Best`) times the worst-case RLE1
/// expansion (a +1 count byte per 4-byte run, 5/4). A corrupt header
/// claiming more is rejected before any allocation scales with it.
const MAX_RLE1_LEN: usize = 900 * 1024 + 900 * 1024 / 4;

fn decode_block(r: &mut MsbBitReader<'_>, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let rle1_len = r.read_bits(32)? as usize;
    let num_symbols = r.read_bits(32)? as usize;
    // The two 32-bit length fields are untrusted: bound them against
    // what the format and the remaining input could possibly produce
    // before they size any buffer.
    if rle1_len > MAX_RLE1_LEN {
        return Err(CodecError::Corrupt("block length exceeds format maximum"));
    }
    if num_symbols > rle1_len + 1 {
        // Every zero-run/literal symbol expands to at least one MTF
        // rank, and the rank stream is exactly rle1_len + 1 long.
        return Err(CodecError::Corrupt("symbol count exceeds block length"));
    }
    if num_symbols > r.remaining_bits() {
        // Every Huffman-coded symbol costs at least one input bit.
        return Err(CodecError::Corrupt("symbol count exceeds input size"));
    }
    let n_tables = r.read_bits(3)? as usize;
    if !(1..=MAX_TABLES).contains(&n_tables) {
        return Err(CodecError::Corrupt("bad Huffman table count"));
    }

    let mut decoders = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let lengths = read_delta_lengths(r)?;
        decoders.push(HuffmanDecoder::from_lengths(&lengths)?);
    }

    let n_groups = num_symbols.div_ceil(GROUP_SIZE);
    let mut mtf_order: Vec<u8> = (0..n_tables as u8).collect();
    let mut selectors = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let mut rank = 0usize;
        while r.read_bit()? == 1 {
            rank += 1;
            if rank >= n_tables {
                return Err(CodecError::Corrupt("selector rank out of range"));
            }
        }
        let sel = mtf_order[rank];
        mtf_order.copy_within(0..rank, 1);
        mtf_order[0] = sel;
        selectors.push(sel);
    }

    let mut symbols = Vec::with_capacity(num_symbols);
    for (g, &sel) in selectors.iter().enumerate() {
        let dec = &decoders[sel as usize];
        let in_group = GROUP_SIZE.min(num_symbols - g * GROUP_SIZE);
        for _ in 0..in_group {
            symbols.push(dec.decode_msb(r)?);
        }
    }

    let ranks = zrle_decode_bounded(&symbols, rle1_len + 1)?;
    if ranks.len() != rle1_len + 1 {
        return Err(CodecError::Corrupt("zero-run expansion length mismatch"));
    }
    if ranks.iter().any(|&rk| rk as usize >= BWT_ALPHA) {
        return Err(CodecError::Corrupt("MTF rank outside alphabet"));
    }
    let bwt = mtf_decode(&ranks);
    let rle1 = bwt_inverse(&bwt)?;
    out.extend_from_slice(&rle1_decode(&rle1));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bwt_known_example() {
        // "banana" + $ sorted rotations end-column is "annb$aa".
        let bwt = bwt_forward(b"banana");
        let rendered: Vec<char> = bwt
            .iter()
            .map(|&s| if s == 0 { '$' } else { (s - 1) as u8 as char })
            .collect();
        assert_eq!(rendered, vec!['a', 'n', 'n', 'b', '$', 'a', 'a']);
    }

    #[test]
    fn bwt_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"banana".to_vec(),
            b"mississippi".to_vec(),
            vec![0u8; 500],
            (0..=255u8).collect(),
            b"abcabcabcabc".repeat(50),
        ];
        for case in cases {
            let bwt = bwt_forward(&case);
            assert_eq!(bwt.len(), case.len() + 1);
            assert_eq!(bwt_inverse(&bwt).unwrap(), case, "case len {}", case.len());
        }
    }

    #[test]
    fn bwt_groups_symbols() {
        // On periodic text the BWT should have long runs — measure that
        // the number of adjacent changes drops versus the input.
        let data = b"the rain in spain stays mainly in the plain ".repeat(40);
        let bwt = bwt_forward(&data);
        let changes = |xs: &[u16]| xs.windows(2).filter(|w| w[0] != w[1]).count();
        let input_syms: Vec<u16> = data.iter().map(|&b| b as u16 + 1).collect();
        assert!(changes(&bwt) < changes(&input_syms) / 2);
    }

    #[test]
    fn bwt_inverse_rejects_garbage() {
        assert!(bwt_inverse(&[]).is_err());
        // No sentinel.
        assert!(bwt_inverse(&[5, 6, 7]).is_err());
        // Two sentinels.
        assert!(bwt_inverse(&[0, 5, 0]).is_err());
        // Symbol out of range.
        assert!(bwt_inverse(&[0, 300]).is_err());
    }

    fn round_trip(data: &[u8]) {
        for level in CompressionLevel::ALL {
            let codec = Bzip2Like::new(level);
            let packed = codec.compress(data);
            assert_eq!(
                codec.decompress(&packed).unwrap(),
                data,
                "level {level:?}, {} bytes",
                data.len()
            );
        }
    }

    #[test]
    fn codec_round_trips_basic_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"hello hello hello");
        round_trip(&vec![0xAB; 10_000]);
    }

    #[test]
    fn codec_round_trips_text() {
        let data = b"it was the best of times, it was the worst of times. ".repeat(1000);
        round_trip(&data);
        let packed = Bzip2Like::default().compress(&data);
        assert!(
            packed.len() * 10 < data.len(),
            "text should compress well: {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn codec_round_trips_pseudorandom_data() {
        let mut state = 42u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn codec_spans_multiple_blocks() {
        let codec = Bzip2Like::new(CompressionLevel::Fast);
        let data = b"block boundary test ".repeat(20_000); // 400 KB > 128 KiB blocks
        let packed = codec.compress(&data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corrupted_stream_is_rejected_or_harmless() {
        // A flipped bit must never yield silently wrong data: either
        // the decoder errors (structure or checksum) or the flip hit
        // dead space (e.g. a never-selected Huffman table) and the
        // output is still exactly right.
        let codec = Bzip2Like::default();
        let data = b"payload payload payload".repeat(100);
        let packed = codec.compress(&data);
        let mut rejected = 0usize;
        for pos in (0..packed.len()).step_by(7) {
            let mut bad = packed.clone();
            bad[pos] ^= 0x40;
            match codec.decompress(&bad) {
                Err(_) => rejected += 1,
                Ok(out) => assert_eq!(out, data, "silent corruption at byte {pos}"),
            }
        }
        // The overwhelming majority of flips must be detected.
        assert!(
            rejected * 10 >= (packed.len() / 7) * 8,
            "only {rejected} rejections"
        );
    }

    #[test]
    fn table_count_schedule_matches_bzip2() {
        assert_eq!(num_tables_for(0), 2);
        assert_eq!(num_tables_for(199), 2);
        assert_eq!(num_tables_for(200), 3);
        assert_eq!(num_tables_for(599), 3);
        assert_eq!(num_tables_for(600), 4);
        assert_eq!(num_tables_for(1199), 4);
        assert_eq!(num_tables_for(1200), 5);
        assert_eq!(num_tables_for(2400), 6);
        assert_eq!(num_tables_for(1_000_000), 6);
    }

    #[test]
    fn build_tables_covers_every_group_and_symbol() {
        // A bimodal stream: groups alternate between two disjoint
        // symbol distributions — exactly what multiple tables exploit.
        let mut symbols: Vec<u16> = Vec::new();
        for block in 0..40 {
            let base = if block % 2 == 0 { 2u16 } else { 120 };
            symbols.extend((0..50).map(|i| base + (i % 8) as u16));
        }
        let mut t = TableScratch::default();
        build_tables(&symbols, 3, &mut t);
        let (encoders, selectors) = (&t.encoders[..3], &t.selectors);
        assert_eq!(selectors.len(), 40);
        assert!(selectors.iter().all(|&s| s < 3));
        // Every symbol must be encodable under every table (the +1
        // frequency floor guarantees it).
        for enc in encoders {
            for sym in 0..ENTROPY_ALPHA {
                assert!(enc.len(sym) > 0, "symbol {sym} lacks a code");
            }
        }
        // The alternating halves should land on different tables.
        assert_ne!(selectors[0], selectors[1]);
    }

    #[test]
    fn multi_table_coding_beats_single_table_on_bimodal_blocks() {
        // Construct data whose BWT-MTF stream changes statistics along
        // the block: text-like section followed by binary-like section.
        let mut data = b"continuous prose with ordinary letter statistics. ".repeat(400);
        let mut state = 77u64;
        data.extend((0..20_000).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 59) as u8 // tiny alphabet, different distribution
        }));
        let packed = Bzip2Like::default().compress(&data);
        assert_eq!(Bzip2Like::default().decompress(&packed).unwrap(), data);

        // Single-table reference: force n_tables = 1 via a direct call.
        let rle1 = rle1_encode(&data);
        let bwt = bwt_forward(&rle1);
        let ranks = mtf_encode(&bwt);
        let symbols = zrle_encode(&ranks);
        let mut t = TableScratch::default();
        build_tables(&symbols, 1, &mut t);
        let single_payload_bits: u64 = symbols
            .iter()
            .map(|&s| t.encoders[0].len(s as usize) as u64)
            .sum();
        build_tables(&symbols, num_tables_for(symbols.len()), &mut t);
        let multi_payload_bits: u64 = symbols
            .chunks(GROUP_SIZE)
            .zip(&t.selectors)
            .flat_map(|(g, &sel)| g.iter().map(move |&s| (sel, s)))
            .map(|(sel, s)| t.encoders[sel as usize].len(s as usize) as u64)
            .sum();
        assert!(
            multi_payload_bits < single_payload_bits,
            "multi {multi_payload_bits} vs single {single_payload_bits} bits"
        );
    }

    #[test]
    fn delta_lengths_round_trip() {
        let freqs: Vec<u64> = (0..ENTROPY_ALPHA as u64).map(|i| 1 + i * i % 511).collect();
        let enc = HuffmanEncoder::from_freqs(&freqs, MAX_CODE_LEN);
        let mut w = MsbBitWriter::new();
        write_delta_lengths(&mut w, &enc);
        let bytes = w.finish();
        // Far below the 5-bit-per-symbol fixed encoding.
        assert!(bytes.len() * 8 < ENTROPY_ALPHA * 5);
        let mut r = MsbBitReader::new(&bytes);
        let lengths = read_delta_lengths(&mut r).unwrap();
        assert_eq!(&lengths[..], enc.lengths());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let codec = Bzip2Like::default();
        let packed = codec.compress(b"something long enough to truncate meaningfully");
        for cut in [0, 2, packed.len() / 2] {
            assert!(codec.decompress(&packed[..cut]).is_err(), "cut {cut}");
        }
    }
}
