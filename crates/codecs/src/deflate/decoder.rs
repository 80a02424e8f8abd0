//! DEFLATE decoder (inflate): bit stream → bytes (RFC 1951).

use std::sync::OnceLock;

use crate::bitio::LsbBitReader;
use crate::codec::CodecError;
use crate::huffman::FastDecoder;

use super::tables::*;

/// Decompress a raw DEFLATE stream (no zlib wrapper).
///
/// `size_hint` pre-sizes the output buffer when the caller knows the
/// decompressed size (the zlib wrapper does not carry one; ISOBAR's
/// container does). The hint may come from an untrusted length field,
/// so the pre-allocation is capped at DEFLATE's maximum expansion of
/// the actual input (1 bit per output byte plus slack, ~1032×): a lying
/// hint costs only incremental growth while decoding, never an
/// up-front allocation the stream cannot back.
pub fn inflate_raw(data: &[u8], size_hint: usize) -> Result<Vec<u8>, CodecError> {
    let mut r = LsbBitReader::new(data);
    let max_expansion = data.len().saturating_mul(1040).saturating_add(256);
    let mut out = Vec::with_capacity(size_hint.min(max_expansion));
    inflate_into(&mut r, &mut out)?;
    Ok(out)
}

/// Decompress from an existing reader into `out`; leaves the reader
/// positioned after the final block (byte-aligned trailing data such as
/// checksums can then be read).
pub fn inflate_into(r: &mut LsbBitReader<'_>, out: &mut Vec<u8>) -> Result<(), CodecError> {
    loop {
        let is_final = r.read_bit()? == 1;
        match r.read_bits(2)? {
            0b00 => read_stored_block(r, out)?,
            0b01 => {
                let (lit, dist) = fixed_decoders();
                read_compressed_block(r, out, lit, dist)?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_header(r)?;
                read_compressed_block(r, out, &lit, &dist)?;
            }
            _ => return Err(CodecError::Corrupt("reserved block type 11")),
        }
        if is_final {
            return Ok(());
        }
    }
}

/// The fixed-Huffman block decoders (RFC 1951 §3.2.6), built once.
fn fixed_decoders() -> &'static (FastDecoder, FastDecoder) {
    static FIXED: OnceLock<(FastDecoder, FastDecoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let build = |lengths: &[u8]| FastDecoder::from_lengths(lengths).expect("complete code");
        (build(&fixed_litlen_lengths()), build(&fixed_dist_lengths()))
    })
}

fn read_stored_block(r: &mut LsbBitReader<'_>, out: &mut Vec<u8>) -> Result<(), CodecError> {
    r.align_to_byte();
    let mut header = [0u8; 4];
    r.read_bytes(&mut header)?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if len != !nlen {
        return Err(CodecError::Corrupt("stored block LEN/NLEN mismatch"));
    }
    let start = out.len();
    out.resize(start + len as usize, 0);
    r.read_bytes(&mut out[start..])?;
    Ok(())
}

fn read_dynamic_header(r: &mut LsbBitReader<'_>) -> Result<(FastDecoder, FastDecoder), CodecError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > NUM_LITLEN || hdist > NUM_DIST + 2 {
        return Err(CodecError::Corrupt("dynamic header counts out of range"));
    }

    let mut cl_lengths = [0u8; NUM_CODELEN];
    for &sym in CODELEN_ORDER.iter().take(hclen) {
        cl_lengths[sym] = r.read_bits(3)? as u8;
    }
    let cl_decoder = FastDecoder::from_lengths(&cl_lengths)?;

    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0usize;
    while i < lengths.len() {
        let sym = cl_decoder.decode_lsb(r)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(CodecError::Corrupt("repeat code with no previous length"));
                }
                let prev = lengths[i - 1];
                let run = r.read_bits(2)? as usize + 3;
                fill_run(&mut lengths, &mut i, prev, run)?;
            }
            17 => {
                let run = r.read_bits(3)? as usize + 3;
                fill_run(&mut lengths, &mut i, 0, run)?;
            }
            18 => {
                let run = r.read_bits(7)? as usize + 11;
                fill_run(&mut lengths, &mut i, 0, run)?;
            }
            _ => return Err(CodecError::Corrupt("invalid code-length symbol")),
        }
    }

    let lit = FastDecoder::from_lengths(&lengths[..hlit])?;
    let dist = FastDecoder::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn fill_run(lengths: &mut [u8], i: &mut usize, value: u8, run: usize) -> Result<(), CodecError> {
    if *i + run > lengths.len() {
        return Err(CodecError::Corrupt("code-length run overflows header"));
    }
    lengths[*i..*i + run].fill(value);
    *i += run;
    Ok(())
}

/// Decode one Huffman-coded block's tokens until end-of-block.
///
/// Each token comes from one refill of the bit buffer: the
/// literal/length code, its extra bits, the distance code and its
/// extra bits take at most 15 + 5 + 15 + 13 = 48 of the ≥ 56 buffered
/// bits. Past the end of input the buffer reads as zeros, and one
/// check after each token turns such an over-read into
/// [`CodecError::UnexpectedEof`].
fn read_compressed_block(
    r: &mut LsbBitReader<'_>,
    out: &mut Vec<u8>,
    lit: &FastDecoder,
    dist: &FastDecoder,
) -> Result<(), CodecError> {
    loop {
        r.refill();
        let (sym, n) = lit.resolve(r.buffered());
        if n == 0 {
            return Err(CodecError::Corrupt("invalid Huffman code"));
        }
        r.take(n);
        match sym as usize {
            sym @ 0..=255 => out.push(sym as u8),
            256 if r.overran() => return Err(CodecError::UnexpectedEof),
            256 => return Ok(()),
            sym @ 257..=285 => {
                let idx = sym - 257;
                let len = LENGTH_BASE[idx] as usize + r.take(LENGTH_EXTRA[idx] as u32) as usize;
                let (dsym, n) = dist.resolve(r.buffered());
                if n == 0 {
                    return Err(CodecError::Corrupt("invalid Huffman code"));
                }
                r.take(n);
                let dsym = dsym as usize;
                if dsym >= NUM_DIST {
                    return Err(CodecError::Corrupt("invalid distance symbol"));
                }
                let d = DIST_BASE[dsym] as usize + r.take(DIST_EXTRA[dsym] as u32) as usize;
                if d > out.len() {
                    return Err(CodecError::Corrupt("distance reaches before output start"));
                }
                copy_match(out, d, len);
            }
            _ => return Err(CodecError::Corrupt("invalid literal/length symbol")),
        }
        if r.overran() {
            return Err(CodecError::UnexpectedEof);
        }
    }
}

/// Append the `len` bytes that start `d` bytes back (`1 ≤ d ≤ out.len()`).
///
/// The copy overlaps its own output when `d < len`, repeating the last
/// `d` bytes. A run of one byte is a fill; otherwise each slice copy
/// takes a whole number of periods from `out.len() - d`, which doubles
/// the pattern per copy. `d ≥ len` is a single copy.
fn copy_match(out: &mut Vec<u8>, d: usize, len: usize) {
    let start = out.len() - d;
    if d == 1 {
        let byte = out[start];
        out.resize(out.len() + len, byte);
        return;
    }
    let end = out.len() + len;
    out.reserve(len);
    while out.len() < end {
        let chunk = (out.len() - start).min(end - out.len());
        out.extend_from_within(start..start + chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::super::encoder::deflate_raw;
    use super::*;
    use crate::codec::CompressionLevel;

    fn round_trip(data: &[u8]) {
        for level in CompressionLevel::ALL {
            let packed = deflate_raw(data, level);
            let unpacked = inflate_raw(&packed, data.len()).unwrap();
            assert_eq!(unpacked, data, "level {level:?}, {} bytes", data.len());
        }
    }

    #[test]
    fn round_trips_basic_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"hello, hello, hello world");
        round_trip(&[0u8; 100_000]);
    }

    #[test]
    fn round_trips_text_like_data() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(2000);
        round_trip(&data);
    }

    #[test]
    fn round_trips_pseudorandom_data() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..300_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn round_trips_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        round_trip(&data);
    }

    #[test]
    fn round_trips_multi_block_input() {
        // Force more than one 65536-token block with incompressible data.
        let mut state = 1u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn truncated_stream_reports_eof() {
        let packed = deflate_raw(
            b"some reasonably long input to compress",
            CompressionLevel::Default,
        );
        for cut in [0, 1, packed.len() / 2, packed.len() - 1] {
            let err = inflate_raw(&packed[..cut], 0).unwrap_err();
            assert!(
                matches!(err, CodecError::UnexpectedEof | CodecError::Corrupt(_)),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn reserved_block_type_is_rejected() {
        // BFINAL=1, BTYPE=11.
        let err = inflate_raw(&[0b0000_0111], 0).unwrap_err();
        assert_eq!(err, CodecError::Corrupt("reserved block type 11"));
    }

    #[test]
    fn stored_block_len_nlen_mismatch_is_rejected() {
        // BFINAL=1, BTYPE=00, then bogus LEN/NLEN.
        let stream = [0b0000_0001, 0x05, 0x00, 0x00, 0x00];
        let err = inflate_raw(&stream, 0).unwrap_err();
        assert_eq!(err, CodecError::Corrupt("stored block LEN/NLEN mismatch"));
    }

    #[test]
    fn distance_before_output_start_is_rejected() {
        // Hand-build a fixed-Huffman block whose first token is a match:
        // any distance then reaches before the start of output.
        use crate::bitio::LsbBitWriter;
        use crate::huffman::HuffmanEncoder;
        let lit = HuffmanEncoder::from_lengths(&fixed_litlen_lengths());
        let dist = HuffmanEncoder::from_lengths(&fixed_dist_lengths());
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        lit.write_lsb(&mut w, 257); // length 3, no extra bits
        dist.write_lsb(&mut w, 0); // distance 1, no extra bits
        lit.write_lsb(&mut w, 256);
        let stream = w.finish();
        let err = inflate_raw(&stream, 0).unwrap_err();
        assert_eq!(
            err,
            CodecError::Corrupt("distance reaches before output start")
        );
    }
}
