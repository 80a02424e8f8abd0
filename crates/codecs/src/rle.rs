//! Run-length encoding stages of the bzip2-class solver.
//!
//! Two distinct RLE stages, matching bzip2's structure:
//!
//! * **RLE1** ([`rle1_encode`]/[`rle1_decode`]) runs on raw bytes before
//!   the BWT. Runs of 4–259 identical bytes become the 4 bytes plus a
//!   count byte. Its original purpose in bzip2 was to protect the sorter
//!   from degenerate repeats; we keep it for format fidelity and because
//!   it cheaply shrinks constant byte-columns.
//! * **RLE2** ([`zrle_encode`]/[`zrle_decode_bounded`]) runs on MTF ranks after
//!   the BWT. Zero runs dominate there, so runs are written in bijective
//!   base 2 using two symbols RUNA/RUNB, exactly like bzip2; nonzero
//!   ranks are shifted up by one.

/// Threshold after which RLE1 inserts an explicit count byte.
const RLE1_RUN: usize = 4;
/// Longest run one count byte can extend (4 literal + count in 0..=255).
const RLE1_MAX: usize = RLE1_RUN + 255;

/// RLE1: collapse runs of ≥ 4 identical bytes into `bbbb` + count.
pub fn rle1_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 128 + 8);
    let mut i = 0usize;
    while i < data.len() {
        let byte = data[i];
        let mut run = 1usize;
        while run < RLE1_MAX && i + run < data.len() && data[i + run] == byte {
            run += 1;
        }
        if run >= RLE1_RUN {
            out.extend(std::iter::repeat_n(byte, RLE1_RUN));
            out.push((run - RLE1_RUN) as u8);
        } else {
            out.extend(std::iter::repeat_n(byte, run));
        }
        i += run;
    }
    out
}

/// Inverse of [`rle1_encode`].
pub fn rle1_decode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0usize;
    let mut run = 0usize;
    let mut prev: Option<u8> = None;
    while i < data.len() {
        let byte = data[i];
        i += 1;
        if prev == Some(byte) {
            run += 1;
        } else {
            run = 1;
            prev = Some(byte);
        }
        out.push(byte);
        if run == RLE1_RUN {
            // Next byte is the extension count.
            let extra = data.get(i).copied().unwrap_or(0) as usize;
            i += 1;
            out.extend(std::iter::repeat_n(byte, extra));
            run = 0;
            prev = None;
        }
    }
    out
}

/// RLE2 symbol: RUNA (contributes `2^k`) in bijective base-2 runs.
pub const RUNA: u16 = 0;
/// RLE2 symbol: RUNB (contributes `2·2^k`) in bijective base-2 runs.
pub const RUNB: u16 = 1;

/// Zero-run encode MTF ranks: zero runs become RUNA/RUNB sequences
/// (bijective base 2), nonzero ranks `r` become symbol `r + 1`.
///
/// The output alphabet is `0..alphabet_size + 1`: RUNA, RUNB, then the
/// shifted ranks `2..=alphabet_size`.
pub fn zrle_encode(ranks: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(ranks.len() / 2 + 8);
    let mut zero_run = 0u64;
    for &rank in ranks {
        if rank == 0 {
            zero_run += 1;
        } else {
            flush_zero_run(&mut out, &mut zero_run);
            out.push(rank + 1);
        }
    }
    flush_zero_run(&mut out, &mut zero_run);
    out
}

fn flush_zero_run(out: &mut Vec<u16>, run: &mut u64) {
    // Bijective base 2: n = Σ dᵢ·2^i with dᵢ ∈ {1, 2};
    // digit 1 → RUNA, digit 2 → RUNB, least significant first.
    let mut n = *run;
    while n > 0 {
        if n & 1 == 1 {
            out.push(RUNA);
            n = (n - 1) / 2;
        } else {
            out.push(RUNB);
            n = (n - 2) / 2;
        }
    }
    *run = 0;
}

/// Inverse of [`zrle_encode`] with an output-size bound, so corrupt or
/// adversarial run lengths fail cleanly instead of exhausting memory.
pub fn zrle_decode_bounded(
    symbols: &[u16],
    max_len: usize,
) -> Result<Vec<u16>, crate::codec::CodecError> {
    let overflow = crate::codec::CodecError::Corrupt("zero-run expansion exceeds bound");
    let mut out = Vec::with_capacity(symbols.len().min(max_len));
    let mut i = 0usize;
    while i < symbols.len() {
        if symbols[i] <= RUNB {
            // Decode one bijective base-2 number.
            let mut run = 0u64;
            let mut place = 1u64;
            while i < symbols.len() && symbols[i] <= RUNB {
                run = run
                    .checked_add(
                        place
                            .checked_mul(symbols[i] as u64 + 1)
                            .ok_or(overflow.clone())?,
                    )
                    .ok_or(overflow.clone())?;
                place = place.saturating_mul(2);
                i += 1;
            }
            if run > (max_len - out.len()) as u64 {
                return Err(overflow);
            }
            out.extend(std::iter::repeat_n(0u16, run as usize));
        } else {
            if out.len() >= max_len {
                return Err(overflow);
            }
            out.push(symbols[i] - 1);
            i += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rle1_round_trip(data: &[u8]) {
        let encoded = rle1_encode(data);
        assert_eq!(rle1_decode(&encoded), data, "input {data:?}");
    }

    #[test]
    fn rle1_short_runs_pass_through() {
        rle1_round_trip(b"");
        rle1_round_trip(b"abc");
        rle1_round_trip(b"aabbcc");
        rle1_round_trip(b"aaab");
        assert_eq!(rle1_encode(b"aaab"), b"aaab");
    }

    #[test]
    fn rle1_collapses_long_runs() {
        let data = vec![b'x'; 100];
        let encoded = rle1_encode(&data);
        assert_eq!(encoded, vec![b'x', b'x', b'x', b'x', 96]);
        rle1_round_trip(&data);
    }

    #[test]
    fn rle1_exact_threshold_runs() {
        // Runs of exactly 4 need a zero count byte.
        rle1_round_trip(b"aaaa");
        assert_eq!(rle1_encode(b"aaaa"), vec![b'a', b'a', b'a', b'a', 0]);
        rle1_round_trip(b"aaaab");
        rle1_round_trip(b"baaaa");
    }

    #[test]
    fn rle1_runs_longer_than_one_count_byte() {
        for len in [259usize, 260, 300, 518, 519, 1000] {
            rle1_round_trip(&vec![7u8; len]);
        }
    }

    #[test]
    fn rle1_mixed_content() {
        let mut data = Vec::new();
        for i in 0..50u8 {
            data.extend(std::iter::repeat_n(i, 1 + (i as usize * 13) % 40));
        }
        rle1_round_trip(&data);
    }

    fn zrle_round_trip(ranks: &[u16]) {
        let encoded = zrle_encode(ranks);
        let decoded = zrle_decode_bounded(&encoded, ranks.len()).unwrap();
        assert_eq!(decoded, ranks, "input {ranks:?}");
    }

    #[test]
    fn zrle_basic_round_trips() {
        zrle_round_trip(&[]);
        zrle_round_trip(&[0]);
        zrle_round_trip(&[5]);
        zrle_round_trip(&[0, 0, 0, 7, 0, 0, 1, 2, 3]);
    }

    #[test]
    fn zrle_bijective_base2_runs() {
        // Run lengths 1..=6 encode as A, B, AA, BA, AB, BB.
        assert_eq!(zrle_encode(&[0]), vec![RUNA]);
        assert_eq!(zrle_encode(&[0, 0]), vec![RUNB]);
        assert_eq!(zrle_encode(&[0, 0, 0]), vec![RUNA, RUNA]);
        assert_eq!(zrle_encode(&[0, 0, 0, 0]), vec![RUNB, RUNA]);
        assert_eq!(zrle_encode(&[0; 5]), vec![RUNA, RUNB]);
        assert_eq!(zrle_encode(&[0; 6]), vec![RUNB, RUNB]);
    }

    #[test]
    fn zrle_long_zero_runs_are_logarithmic() {
        let ranks = vec![0u16; 1_000_000];
        let encoded = zrle_encode(&ranks);
        assert!(encoded.len() <= 20, "got {} symbols", encoded.len());
        zrle_round_trip(&ranks);
    }

    #[test]
    fn zrle_nonzero_ranks_are_shifted() {
        assert_eq!(zrle_encode(&[1, 2, 3]), vec![2, 3, 4]);
    }

    #[test]
    fn zrle_all_run_lengths_up_to_100() {
        for len in 1..=100usize {
            let mut ranks = vec![0u16; len];
            ranks.push(9);
            zrle_round_trip(&ranks);
        }
    }
}
