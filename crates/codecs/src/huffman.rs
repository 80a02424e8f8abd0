//! Canonical Huffman coding with length-limited code construction.
//!
//! Both solvers entropy-code with canonical Huffman codes: DEFLATE limits
//! code lengths to 15 bits (7 for the code-length alphabet), the bzip2
//! codec to 20. Lengths are computed with the package-merge algorithm,
//! which is optimal under a length limit — unlike the heuristic
//! "build-then-flatten" approach, it never produces a suboptimal Kraft
//! packing. The bzip2 codec builds up to 24 tables per block, so the
//! list-based package-merge here tracks weights only, cuts every list
//! at 2·(n−1) items, and re-merges only what changed from one level to
//! the next.

use crate::bitio::{LsbBitReader, LsbBitWriter, MsbBitReader, MsbBitWriter};
use crate::codec::CodecError;

/// Maximum supported code length (fits the `u32` code registers).
pub const MAX_SUPPORTED_LEN: u8 = 24;

/// Reusable working memory for [`package_merge_into`].
///
/// Every list package-merge builds is cut at 2·(n−1) items, so the
/// buffers are bounded by the alphabet size times the length limit;
/// after one warm-up run they never grow again and repeated code
/// constructions stay off the allocator.
#[derive(Default)]
pub struct PackageMergeScratch {
    /// Nonzero-weight symbols as `(weight, symbol)`, sorted.
    leaves: Vec<(u64, u16)>,
    /// The same leaves' weights, then two `u64::MAX` sentinels.
    weights: Vec<u64>,
    /// The current level's merged list, weights only, and the next.
    current: Vec<u64>,
    next: Vec<u64>,
    /// The current level's pairs, summed (the next level's packages),
    /// then two `u64::MAX` sentinels.
    packages: Vec<u64>,
    /// Where the last merge placed each package.
    package_at: Vec<usize>,
    /// Per level, per list position: 1 where the merge took a leaf, 0
    /// where it took a package.
    is_leaf: Vec<u8>,
}

impl PackageMergeScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compute optimal length-limited code lengths for `freqs`.
///
/// Returns one length per symbol; symbols with zero frequency get length
/// 0 (no code). If only one symbol occurs it is assigned length 1, as
/// both container formats require at least one bit per symbol.
///
/// # Panics
///
/// Panics if `max_len` is 0, exceeds [`MAX_SUPPORTED_LEN`], or cannot
/// accommodate the number of distinct symbols (`2^max_len` codes).
pub fn package_merge(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    package_merge_into(
        freqs,
        max_len,
        &mut PackageMergeScratch::default(),
        &mut lengths,
    );
    lengths
}

/// [`package_merge`] writing into caller-owned `lengths` and borrowing
/// all intermediate lists from `scratch`.
///
/// `lengths` must have exactly one slot per symbol; it is fully
/// overwritten.
pub fn package_merge_into(
    freqs: &[u64],
    max_len: u8,
    s: &mut PackageMergeScratch,
    lengths: &mut [u8],
) {
    assert!((1..=MAX_SUPPORTED_LEN).contains(&max_len));
    assert_eq!(lengths.len(), freqs.len(), "one length slot per symbol");
    let PackageMergeScratch {
        leaves,
        weights,
        current,
        next,
        packages,
        package_at,
        is_leaf,
    } = s;
    lengths.fill(0);
    leaves.clear();
    leaves.extend(
        freqs
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0)
            .map(|(sym, &f)| (f, sym as u16)),
    );
    let n = leaves.len();
    match n {
        0 => return,
        1 => {
            lengths[leaves[0].1 as usize] = 1;
            return;
        }
        n => assert!(
            (n as u64) <= 1u64 << max_len,
            "{n} symbols cannot fit in {max_len}-bit codes"
        ),
    }
    leaves.sort_unstable();

    // Level 0 is the leaves alone; level k merges the pairs of level
    // k−1 (packages) with the leaves, packages first on ties. Only the
    // cheapest 2·(n−1) items of the top level are selected, and a
    // selected prefix never needs more than 2·(n−1) items of the level
    // below, so every list is cut there. Weights are all the merge
    // needs; the per-position leaf flag records its order.
    let cap = 2 * (n - 1);
    let levels = max_len as usize;
    if is_leaf.len() < levels * cap {
        is_leaf.resize(levels * cap, 0);
    }
    package_at.resize(cap, 0);
    weights.clear();
    weights.extend(leaves.iter().map(|&(w, _)| w));
    weights.extend([u64::MAX; 2]);
    current.clear();
    current.extend_from_slice(&weights[..n.min(cap)]);
    is_leaf[..current.len()].fill(1);
    packages.clear();
    // Each level is a function of the one below. Where the current
    // level repeats the one below it for `same` items, the first
    // `same / 2` packages repeat too, so the next merge repeats this
    // one until it has taken them; only the rest is merged afresh.
    // Once a whole level repeats, every higher level repeats it.
    let (mut same, mut taken, mut top) = (0, 0, 0);
    for level in 1..levels {
        let kept = same / 2;
        packages.truncate(kept);
        packages.extend(
            current[2 * kept..]
                .chunks_exact(2)
                .map(|pair| pair[0] + pair[1]),
        );
        let len = cap.min(packages.len() + n);
        packages.extend([u64::MAX; 2]);
        let start = match kept {
            0 => 0,
            k if k <= taken => package_at[k - 1] + 1,
            _ => current.len(),
        };
        let (below, flags) = is_leaf[(level - 1) * cap..(level + 1) * cap].split_at_mut(cap);
        flags[..start].copy_from_slice(&below[..start]);
        next.clear();
        next.extend_from_slice(&current[..start]);
        next.resize(len, 0);
        // Branch-free merge: each side's next candidate is loaded
        // before the comparison decides which side advances (the
        // sentinels keep those loads in bounds).
        let (mut p, mut l) = (kept, start - kept);
        let (mut package, mut leaf) = (packages[p], weights[l]);
        for (at, (item, flag)) in next.iter_mut().zip(flags).enumerate().skip(start) {
            let take_leaf = leaf < package;
            *item = if take_leaf { leaf } else { package };
            *flag = take_leaf as u8;
            package_at[p] = at;
            let (next_package, next_leaf) = (packages[p + 1], weights[l + 1]);
            p += !take_leaf as usize;
            l += take_leaf as usize;
            package = if take_leaf { package } else { next_package };
            leaf = if take_leaf { next_leaf } else { leaf };
        }
        taken = p;
        same = start
            + next[start..]
                .iter()
                .zip(&current[start..])
                .take_while(|(a, b)| a == b)
                .count();
        let repeated = same == len && len == current.len();
        std::mem::swap(current, next);
        top = level;
        if repeated {
            break;
        }
    }

    // Walk down from the top: a level's selected prefix is some leaves
    // plus its first p packages, whose children are the first 2p items
    // one level down. The leaves a level selects are a prefix of the
    // sorted leaves, shrinking with depth, and a leaf's code length is
    // the number of levels that select it.
    let mut selected = [0usize; MAX_SUPPORTED_LEN as usize + 1];
    let mut take = cap;
    for (depth, selected) in selected[..levels].iter_mut().enumerate() {
        let at = (levels - 1 - depth).min(top) * cap;
        *selected = is_leaf[at..at + take]
            .iter()
            .map(|&f| f as usize)
            .sum::<usize>();
        take = 2 * (take - *selected);
    }
    for depth in 0..levels {
        for &(_, sym) in &leaves[selected[depth + 1]..selected[depth]] {
            lengths[sym as usize] = depth as u8 + 1;
        }
    }
}

/// Assign canonical code values to `lengths` (RFC 1951 §3.2.2 rules:
/// shorter codes first, ties broken by symbol order).
///
/// Returns the code value for each symbol, MSB-first. Symbols with
/// length 0 get code 0 (unused).
pub fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut codes = Vec::new();
    canonical_codes_into(lengths, &mut codes);
    codes
}

/// [`canonical_codes`] writing into a caller-owned buffer. The per-length
/// bookkeeping lives in stack arrays, so a warm `codes` buffer makes the
/// whole assignment allocation-free.
pub fn canonical_codes_into(lengths: &[u8], codes: &mut Vec<u32>) {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    debug_assert!(max_len <= MAX_SUPPORTED_LEN);
    let mut len_count = [0u32; MAX_SUPPORTED_LEN as usize + 1];
    for &len in lengths {
        len_count[len as usize] += 1;
    }
    len_count[0] = 0;
    let mut next_code = [0u32; MAX_SUPPORTED_LEN as usize + 2];
    let mut code = 0u32;
    for len in 1..=max_len as usize {
        code = (code + len_count[len - 1]) << 1;
        next_code[len] = code;
    }
    codes.clear();
    codes.extend(lengths.iter().map(|&len| {
        if len == 0 {
            0
        } else {
            let c = next_code[len as usize];
            next_code[len as usize] += 1;
            c
        }
    }));
}

/// Reverse the low `len` bits of `code` (for LSB-first bit streams).
#[inline]
pub fn reverse_bits(code: u32, len: u8) -> u32 {
    code.reverse_bits() >> (32 - len as u32)
}

/// Encoding table: canonical codes plus their bit-reversed twins so the
/// hot path has no per-symbol reversal.
///
/// An encoder can be rebuilt in place ([`HuffmanEncoder::rebuild_from_freqs`],
/// [`HuffmanEncoder::rebuild_from_lengths`]): the internal tables are
/// reused, so rebuilding for a same-sized alphabet never allocates.
#[derive(Debug, Clone, Default)]
pub struct HuffmanEncoder {
    lengths: Vec<u8>,
    /// Canonical (MSB-first) code values.
    codes: Vec<u32>,
    /// Bit-reversed codes for LSB-first (DEFLATE) streams.
    rev_codes: Vec<u32>,
}

impl HuffmanEncoder {
    /// Build an encoder from per-symbol code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let mut enc = HuffmanEncoder::default();
        enc.rebuild_from_lengths(lengths);
        enc
    }

    /// Build optimal length-limited lengths from frequencies, then the
    /// encoder for them.
    pub fn from_freqs(freqs: &[u64], max_len: u8) -> Self {
        Self::from_lengths(&package_merge(freqs, max_len))
    }

    /// Replace this encoder's code with one built from `lengths`,
    /// reusing the internal tables.
    pub fn rebuild_from_lengths(&mut self, lengths: &[u8]) {
        self.lengths.clear();
        self.lengths.extend_from_slice(lengths);
        self.assign_codes();
    }

    /// Replace this encoder's code with an optimal length-limited one
    /// for `freqs`, borrowing package-merge working memory from `pm`.
    pub fn rebuild_from_freqs(&mut self, freqs: &[u64], max_len: u8, pm: &mut PackageMergeScratch) {
        self.lengths.clear();
        self.lengths.resize(freqs.len(), 0);
        package_merge_into(freqs, max_len, pm, &mut self.lengths);
        self.assign_codes();
    }

    /// Fill both code tables from `self.lengths`.
    fn assign_codes(&mut self) {
        canonical_codes_into(&self.lengths, &mut self.codes);
        self.rev_codes.clear();
        self.rev_codes
            .extend(self.codes.iter().zip(&self.lengths).map(|(&c, &l)| {
                if l == 0 {
                    0
                } else {
                    reverse_bits(c, l)
                }
            }));
    }

    /// Code length for `sym` (0 = unused symbol).
    #[inline]
    pub fn len(&self, sym: usize) -> u8 {
        self.lengths[sym]
    }

    /// Per-symbol code lengths.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Canonical MSB-first code value for `sym`.
    #[inline]
    pub fn code(&self, sym: usize) -> u32 {
        self.codes[sym]
    }

    /// Emit `sym` into an LSB-first (DEFLATE) stream.
    #[inline]
    pub fn write_lsb(&self, w: &mut LsbBitWriter, sym: usize) {
        debug_assert!(self.lengths[sym] > 0, "symbol {sym} has no code");
        w.write_bits(self.rev_codes[sym], self.lengths[sym] as u32);
    }

    /// Bit-reversed (LSB-first) code and its length for `sym`, for
    /// callers that fuse the code with trailing extra bits into a single
    /// [`LsbBitWriter::write_bits`] call.
    #[inline]
    pub fn code_lsb(&self, sym: usize) -> (u32, u32) {
        debug_assert!(self.lengths[sym] > 0, "symbol {sym} has no code");
        (self.rev_codes[sym], self.lengths[sym] as u32)
    }

    /// Emit `sym` into an MSB-first (bzip2) stream.
    #[inline]
    pub fn write_msb(&self, w: &mut MsbBitWriter, sym: usize) {
        debug_assert!(self.lengths[sym] > 0, "symbol {sym} has no code");
        w.write_bits(self.codes[sym], self.lengths[sym] as u32);
    }

    /// Total encoded size in bits of a message with the given symbol
    /// frequencies — used for block-type cost comparisons.
    pub fn cost_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(&self.lengths)
            .map(|(&f, &l)| f * l as u64)
            .sum()
    }
}

/// Count the codes of each length (index 0 counts nothing) after
/// checking that every length is at most `limit` and that the set is
/// not over-subscribed (Kraft sum > 1), which could otherwise make two
/// codes ambiguous. Incomplete sets pass (DEFLATE permits them for
/// distance codes); decoders report reads that fall in the gap as
/// [`CodecError::Corrupt`].
fn length_counts(
    lengths: &[u8],
    limit: u8,
) -> Result<[u32; MAX_SUPPORTED_LEN as usize + 1], CodecError> {
    debug_assert!(limit <= MAX_SUPPORTED_LEN);
    let mut count = [0u32; MAX_SUPPORTED_LEN as usize + 1];
    for &len in lengths {
        if len > limit {
            return Err(CodecError::Corrupt("code length exceeds supported maximum"));
        }
        count[len as usize] += 1;
    }
    count[0] = 0;
    // Kraft check, scaled by 2^MAX_SUPPORTED_LEN to stay in integers.
    let kraft: u64 = count
        .iter()
        .enumerate()
        .map(|(len, &c)| (c as u64) << (MAX_SUPPORTED_LEN as usize - len))
        .sum();
    if kraft > 1u64 << MAX_SUPPORTED_LEN {
        return Err(CodecError::Corrupt("over-subscribed Huffman code"));
    }
    Ok(count)
}

/// Bits resolved by the lookup table of [`HuffmanDecoder`].
const MSB_TABLE_BITS: u32 = 10;

/// Canonical decoder for MSB-first (bzip2) streams.
///
/// A `2^10`-entry table, indexed by the next 10 stream bits, resolves
/// every code of up to 10 bits in one probe. Longer codes (the bzip2
/// codec allows 20 bits) and reads at the stream tail fall back to the
/// canonical search: the next `max_len` bits are compared against the
/// first code of each length in turn.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// `sym << 8 | len` per 10-bit window; 0 where no code of at most
    /// 10 bits matches.
    table: Vec<u32>,
    /// `first_code[len]` — canonical value of the first code of `len` bits.
    first_code: Vec<u32>,
    /// `first_index[len]` — index into `symbols` of that first code.
    first_index: Vec<u32>,
    /// Number of codes of each length.
    count: Vec<u32>,
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u16>,
    max_len: u8,
}

impl HuffmanDecoder {
    /// Build a decoder from per-symbol code lengths.
    ///
    /// Rejects over-subscribed length sets; incomplete sets are
    /// accepted and reads that fall in the gap surface as
    /// [`CodecError::Corrupt`].
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let count = length_counts(lengths, MAX_SUPPORTED_LEN)?[..=max_len as usize].to_vec();

        let mut first_code = vec![0u32; max_len as usize + 1];
        let mut first_index = vec![0u32; max_len as usize + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=max_len as usize {
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

        // Each code of `len` ≤ 10 bits owns the 2^(10 - len) windows
        // that start with it.
        let mut table = vec![0u32; 1 << MSB_TABLE_BITS];
        for len in 1..=max_len.min(MSB_TABLE_BITS as u8) as usize {
            let shift = MSB_TABLE_BITS as usize - len;
            for rank in 0..count[len] {
                let sym = symbols[(first_index[len] + rank) as usize];
                let code = (first_code[len] + rank) as usize;
                table[code << shift..(code + 1) << shift].fill(u32::from(sym) << 8 | len as u32);
            }
        }

        Ok(HuffmanDecoder {
            table,
            first_code,
            first_index,
            count,
            symbols,
            max_len,
        })
    }

    /// Decode one symbol from an MSB-first (bzip2) stream.
    #[inline]
    pub fn decode_msb(&self, r: &mut MsbBitReader<'_>) -> Result<u16, CodecError> {
        let entry = self.table[r.peek_bits(MSB_TABLE_BITS) as usize];
        let len = entry & 0xff;
        if len != 0 && r.consume(len).is_ok() {
            return Ok((entry >> 8) as u16);
        }
        // A code longer than the table, a gap, or the stream tail: try
        // each length's canonical range on one zero-filled peek.
        let max_len = u32::from(self.max_len);
        let window = r.peek_bits(max_len);
        for len in 1..=max_len {
            let l = len as usize;
            let offset = (window >> (max_len - len)).wrapping_sub(self.first_code[l]);
            if offset < self.count[l] {
                r.consume(len)?;
                return Ok(self.symbols[(self.first_index[l] + offset) as usize]);
            }
        }
        Err(CodecError::Corrupt("invalid Huffman code"))
    }
}

/// Bits resolved by the primary lookup table of [`FastDecoder`].
pub const FAST_ROOT_BITS: u32 = 10;

#[derive(Debug, Clone, Copy, Default)]
struct FastEntry {
    /// Decoded symbol, or base index into the secondary table when
    /// `escape` is set.
    sym: u16,
    /// Bits to consume (full code length); 0 marks an unassigned slot
    /// of an incomplete code.
    len: u8,
    /// Slot requires a secondary-table lookup.
    escape: bool,
}

/// Table-driven canonical Huffman decoder for LSB-first (DEFLATE)
/// streams: one `2^10` primary lookup resolves codes up to 10 bits in a
/// single probe; longer codes (≤ 15 in DEFLATE) escape to per-prefix
/// secondary tables. This is the classic zlib `inflate` structure and
/// decodes several times faster than bit-at-a-time walking.
#[derive(Debug, Clone)]
pub struct FastDecoder {
    primary: Vec<FastEntry>,
    secondary: Vec<FastEntry>,
}

impl FastDecoder {
    /// Build from per-symbol code lengths (max length ≤ 15).
    ///
    /// Same validity rules as [`HuffmanDecoder::from_lengths`]:
    /// over-subscribed sets are rejected, incomplete sets decode to
    /// [`CodecError::Corrupt`] when a gap is hit.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        length_counts(lengths, 15)?;
        let codes = canonical_codes(lengths);

        let mut primary = vec![FastEntry::default(); 1 << FAST_ROOT_BITS];

        // Short codes: fill every primary slot whose low `len` bits
        // match the bit-reversed code.
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            if len == 0 || len as u32 > FAST_ROOT_BITS {
                continue;
            }
            let rev = reverse_bits(code, len) as usize;
            let stride = 1usize << len;
            let mut slot = rev;
            while slot < primary.len() {
                primary[slot] = FastEntry {
                    sym: sym as u16,
                    len,
                    escape: false,
                };
                slot += stride;
            }
        }

        // Long codes: group by their first FAST_ROOT_BITS stream bits.
        let mut secondary: Vec<FastEntry> = Vec::new();
        let root_mask = (1usize << FAST_ROOT_BITS) - 1;
        let mut groups: std::collections::BTreeMap<usize, Vec<u16>> =
            std::collections::BTreeMap::new();
        for (sym, &len) in lengths.iter().enumerate() {
            if len as u32 > FAST_ROOT_BITS {
                let rev = reverse_bits(codes[sym], len) as usize;
                groups.entry(rev & root_mask).or_default().push(sym as u16);
            }
        }
        for (prefix, syms) in groups {
            let sub_bits = syms
                .iter()
                .map(|&s| lengths[s as usize] as u32 - FAST_ROOT_BITS)
                .max()
                .ok_or(CodecError::Corrupt("empty escape group"))?;
            let base = secondary.len();
            secondary.resize(base + (1usize << sub_bits), FastEntry::default());
            for &sym in &syms {
                let len = lengths[sym as usize];
                let rev = reverse_bits(codes[sym as usize], len) as usize;
                let high = rev >> FAST_ROOT_BITS; // bits after the root window
                let stride = 1usize << (len as u32 - FAST_ROOT_BITS);
                let mut slot = high;
                while slot < 1usize << sub_bits {
                    secondary[base + slot] = FastEntry {
                        sym,
                        len,
                        escape: false,
                    };
                    slot += stride;
                }
            }
            primary[prefix] = FastEntry {
                sym: base as u16,
                len: sub_bits as u8,
                escape: true,
            };
        }

        Ok(FastDecoder { primary, secondary })
    }

    /// Resolve the code at the bottom of `bits` (stream order, next bit
    /// lowest) to `(symbol, length)`; length 0 marks a gap of an
    /// incomplete code. `bits` must hold the next 15 stream bits.
    #[inline]
    pub(crate) fn resolve(&self, bits: u64) -> (u16, u32) {
        let mut entry = self.primary[bits as usize & ((1 << FAST_ROOT_BITS) - 1)];
        if entry.escape {
            let sub = (bits >> FAST_ROOT_BITS) as usize & ((1 << entry.len) - 1);
            entry = self.secondary[entry.sym as usize + sub];
        }
        (entry.sym, entry.len as u32)
    }

    /// Decode one symbol from an LSB-first stream.
    #[inline]
    pub fn decode_lsb(&self, r: &mut LsbBitReader<'_>) -> Result<u16, CodecError> {
        // Past the end of input the peek zero-fills: a truncated stream
        // lands in a gap or fails to consume.
        let (sym, len) = self.resolve(r.peek_bits(15) as u64);
        if len == 0 {
            return Err(CodecError::Corrupt("invalid Huffman code"));
        }
        r.consume(len)?;
        Ok(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kraft_sum(lengths: &[u8]) -> f64 {
        lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 0.5f64.powi(l as i32))
            .sum()
    }

    #[test]
    fn package_merge_handles_trivial_alphabets() {
        assert_eq!(package_merge(&[], 15), Vec::<u8>::new());
        assert_eq!(package_merge(&[0, 0, 0], 15), vec![0, 0, 0]);
        assert_eq!(package_merge(&[0, 7, 0], 15), vec![0, 1, 0]);
        // Two symbols: one bit each regardless of skew.
        assert_eq!(package_merge(&[1, 1000], 15), vec![1, 1]);
    }

    #[test]
    fn package_merge_matches_unlimited_huffman_on_balanced_input() {
        // Uniform frequencies over a power-of-two alphabet: all lengths
        // equal log2(n).
        let lens = package_merge(&[5; 8], 15);
        assert!(lens.iter().all(|&l| l == 3));
    }

    #[test]
    fn package_merge_respects_length_limit() {
        // Fibonacci-ish frequencies force deep trees without a limit.
        let freqs: Vec<u64> = vec![1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377];
        for limit in [4u8, 5, 8, 15] {
            let lens = package_merge(&freqs, limit);
            assert!(lens.iter().all(|&l| l <= limit), "limit {limit}: {lens:?}");
            let k = kraft_sum(&lens);
            assert!(k <= 1.0 + 1e-12, "limit {limit}: Kraft sum {k}");
        }
    }

    #[test]
    fn package_merge_is_optimal_against_entropy() {
        // The weighted length must be within 1 bit/symbol of entropy
        // when the limit is generous (standard Huffman bound).
        let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
        let total: u64 = freqs.iter().sum();
        let lens = package_merge(&freqs, 15);
        let avg_len: f64 = freqs
            .iter()
            .zip(&lens)
            .map(|(&f, &l)| f as f64 * l as f64)
            .sum::<f64>()
            / total as f64;
        let entropy: f64 = freqs
            .iter()
            .map(|&f| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        assert!(avg_len >= entropy - 1e-9);
        assert!(avg_len < entropy + 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn package_merge_rejects_impossible_limits() {
        package_merge(&[1; 9], 3);
    }

    #[test]
    fn rebuilt_encoder_matches_fresh_build_across_scratch_reuse() {
        // One scratch and one encoder carried across differently-shaped
        // alphabets must produce the same tables as fresh builds.
        let mut pm = PackageMergeScratch::new();
        let mut enc = HuffmanEncoder::default();
        let freq_sets: Vec<Vec<u64>> = vec![
            (0..64u64).map(|i| 1 + (i * 37) % 101).collect(),
            vec![0; 300],
            (0..286u64).map(|i| i % 5).collect(),
            vec![0, 42, 0],
            vec![1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144],
        ];
        for freqs in &freq_sets {
            enc.rebuild_from_freqs(freqs, 15, &mut pm);
            let fresh = HuffmanEncoder::from_freqs(freqs, 15);
            assert_eq!(enc.lengths(), fresh.lengths(), "freqs {freqs:?}");
            for sym in 0..freqs.len() {
                assert_eq!(enc.code(sym), fresh.code(sym), "sym {sym}");
            }
        }
    }

    #[test]
    fn canonical_codes_follow_rfc1951_example() {
        // RFC 1951 §3.2.2 worked example: lengths (3,3,3,3,3,2,4,4)
        // produce codes 010..111, 00, 1110, 1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        assert_eq!(
            codes,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    #[test]
    fn reverse_bits_matches_manual_reversal() {
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10000000, 8), 0b00000001);
    }

    #[test]
    fn encode_decode_round_trip_lsb_and_msb() {
        let freqs: Vec<u64> = (0..64u64).map(|i| 1 + (i * 37) % 101).collect();
        let enc = HuffmanEncoder::from_freqs(&freqs, 15);
        let lsb = FastDecoder::from_lengths(enc.lengths()).unwrap();
        let msb = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();

        let message: Vec<usize> = (0..4096).map(|i| (i * 17 + i / 7) % 64).collect();

        let mut lw = LsbBitWriter::new();
        let mut mw = MsbBitWriter::new();
        for &sym in &message {
            enc.write_lsb(&mut lw, sym);
            enc.write_msb(&mut mw, sym);
        }
        let lbytes = lw.finish();
        let mbytes = mw.finish();

        let mut lr = LsbBitReader::new(&lbytes);
        let mut mr = MsbBitReader::new(&mbytes);
        for &sym in &message {
            assert_eq!(lsb.decode_lsb(&mut lr).unwrap() as usize, sym);
            assert_eq!(msb.decode_msb(&mut mr).unwrap() as usize, sym);
        }
    }

    #[test]
    fn decoder_rejects_oversubscribed_lengths() {
        // Three 1-bit codes cannot coexist.
        assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn decoder_accepts_incomplete_code_but_flags_gap() {
        // Single 2-bit code: valid (DEFLATE allows it for distances),
        // but a read hitting the unassigned space must error.
        let dec = HuffmanDecoder::from_lengths(&[2]).unwrap();
        let mut w = MsbBitWriter::new();
        w.write_bits(0b11, 2); // canonical code for the symbol is 00
        w.write_bits(0, 6);
        let bytes = w.finish();
        let mut r = MsbBitReader::new(&bytes);
        assert!(dec.decode_msb(&mut r).is_err());
    }

    #[test]
    fn cost_bits_matches_sum_of_lengths() {
        let freqs = [10u64, 1, 0, 5];
        let enc = HuffmanEncoder::from_freqs(&freqs, 15);
        let expected: u64 = freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * enc.len(s) as u64)
            .sum();
        assert_eq!(enc.cost_bits(&freqs), expected);
    }

    #[test]
    fn table_decoders_resolve_codes_on_both_sides_of_the_window() {
        // Skewed frequencies over a large alphabet force code lengths
        // on both sides of the 10-bit table window: the LSB decoder's
        // secondary tables and the MSB decoder's bit walk.
        let freqs: Vec<u64> = (0..286u64).map(|i| 1 + (1 << (i % 14))).collect();
        let enc = HuffmanEncoder::from_freqs(&freqs, 15);
        assert!(
            enc.lengths().iter().any(|&l| l > 10),
            "need long codes to exercise the secondary tables"
        );
        assert!(enc.lengths().iter().any(|&l| (1..=10).contains(&l)));
        let lsb = FastDecoder::from_lengths(enc.lengths()).unwrap();
        let msb = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();

        let message: Vec<usize> = (0..20_000).map(|i| (i * 131 + i / 3) % 286).collect();
        let mut lw = LsbBitWriter::new();
        let mut mw = MsbBitWriter::new();
        for &sym in &message {
            enc.write_lsb(&mut lw, sym);
            enc.write_msb(&mut mw, sym);
        }
        let (lbytes, mbytes) = (lw.finish(), mw.finish());

        let mut lr = LsbBitReader::new(&lbytes);
        let mut mr = MsbBitReader::new(&mbytes);
        for &sym in &message {
            assert_eq!(lsb.decode_lsb(&mut lr).unwrap() as usize, sym);
            assert_eq!(msb.decode_msb(&mut mr).unwrap() as usize, sym);
        }
    }

    #[test]
    fn fast_decoder_rejects_truncation_and_gaps() {
        let enc = HuffmanEncoder::from_freqs(&[5u64, 3, 2, 1, 1], 15);
        let fast = FastDecoder::from_lengths(enc.lengths()).unwrap();
        // Empty stream: the peek zero-fills, consume must fail (or the
        // zero pattern is an unassigned slot).
        let mut r = LsbBitReader::new(&[]);
        assert!(fast.decode_lsb(&mut r).is_err());

        // Incomplete code: single 2-bit code leaves gaps.
        let fast = FastDecoder::from_lengths(&[2]).unwrap();
        let mut w = LsbBitWriter::new();
        w.write_bits(0b11, 2);
        w.write_bits(0, 6);
        let bytes = w.finish();
        let mut r = LsbBitReader::new(&bytes);
        assert!(fast.decode_lsb(&mut r).is_err());
    }

    #[test]
    fn fast_decoder_rejects_unsupported_lengths() {
        // A 16-bit code is fine for the generic decoder but outside the
        // fast decoder's supported range.
        let mut lengths = vec![1u8];
        lengths.push(16);
        assert!(FastDecoder::from_lengths(&lengths).is_err());
        assert!(HuffmanDecoder::from_lengths(&lengths).is_ok());
    }

    #[test]
    fn single_symbol_alphabet_round_trips() {
        let enc = HuffmanEncoder::from_freqs(&[0, 42, 0], 15);
        assert_eq!(enc.len(1), 1);
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        let mut w = MsbBitWriter::new();
        for _ in 0..17 {
            enc.write_msb(&mut w, 1);
        }
        let bytes = w.finish();
        let mut r = MsbBitReader::new(&bytes);
        for _ in 0..17 {
            assert_eq!(dec.decode_msb(&mut r).unwrap(), 1);
        }
    }
}
