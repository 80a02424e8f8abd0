//! Golden tests pinning the exact bytes both solvers emit.
//!
//! The container goldens pin one Deflate-Default stream; nothing else
//! freezes what the solvers write. These tests hash the output of
//! `Bzip2Like` and `Deflate` at every level over fixed seeded inputs:
//! empty, constant bytes, 1 KiB, 16 KiB (the EUPA trial sample size),
//! and a 3 MB input that spans several blocks at every level. A
//! performance change to the Huffman builder, the table assignment or
//! the move-to-front stage must leave every hash unchanged; a diff here
//! means the solver changed its output, not just its speed.

use isobar_codecs::bwt::Bzip2Like;
use isobar_codecs::codec::{Codec, CompressionLevel};
use isobar_codecs::deflate::Deflate;
use isobar_codecs::xxhash::xxh64;

/// Seeded bytes with the shapes the solvers see in practice: a slow
/// random walk (BWT-friendly runs), repeated phrases (long LZ77
/// matches) and plain noise, switching every 4 KiB.
fn seeded(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let phrase = b"checkpoint density field, step 0042, rank 0007; ";
    let mut walk = 128u8;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let region = out.len() / 4096;
        let byte = match region % 3 {
            0 => {
                walk = walk.wrapping_add((next() % 5) as u8).wrapping_sub(2);
                walk
            }
            1 => phrase[out.len() % phrase.len()] ^ ((next() % 64 == 0) as u8),
            _ => (next() >> 56) as u8,
        };
        out.push(byte);
    }
    out
}

fn inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("empty", Vec::new()),
        ("constant", vec![0x2A; 100_000]),
        ("1k", seeded(1024, 0x1111)),
        ("16k", seeded(16 * 1024, 0x1616)),
        ("3m", seeded(3 << 20, 0x3333)),
    ]
}

/// `(input, level, compressed length, xxh64 of the compressed bytes)`.
type Pin = (&'static str, CompressionLevel, usize, u64);

fn check(codec_name: &str, make: impl Fn(CompressionLevel) -> Box<dyn Codec>, pins: &[Pin]) {
    let inputs = inputs();
    let mut failures = Vec::new();
    for &(name, level, len, hash) in pins {
        let data = &inputs.iter().find(|(n, _)| *n == name).expect("input").1;
        let codec = make(level);
        let packed = codec.compress(data);
        assert_eq!(
            codec.decompress(&packed).expect("decodes"),
            *data,
            "{codec_name} {level:?} {name} round trip"
        );
        let got = (packed.len(), xxh64(&packed, 0));
        if got != (len, hash) {
            failures.push(format!(
                "(\"{name}\", CompressionLevel::{level:?}, {}, 0x{:016x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{codec_name} output changed; actual pins:\n{}",
        failures.join("\n")
    );
}

#[test]
fn bzip2like_output_is_pinned() {
    use CompressionLevel::*;
    check(
        "Bzip2Like",
        |level| Box::new(Bzip2Like::new(level)),
        &[
            ("empty", Fast, 8, 0x9f1ffc793b8a47da),
            ("empty", Default, 8, 0x9f1ffc793b8a47da),
            ("empty", Best, 8, 0x9f1ffc793b8a47da),
            ("constant", Fast, 103, 0x1a9b1e3567302d1f),
            ("constant", Default, 103, 0x1a9b1e3567302d1f),
            ("constant", Best, 103, 0x1a9b1e3567302d1f),
            ("1k", Fast, 684, 0x2b82769c4b0c38d5),
            ("1k", Default, 684, 0x2b82769c4b0c38d5),
            ("1k", Best, 684, 0x2b82769c4b0c38d5),
            ("16k", Fast, 9057, 0x2f56cca16a387e5e),
            ("16k", Default, 9057, 0x2f56cca16a387e5e),
            ("16k", Best, 9057, 0x2f56cca16a387e5e),
            ("3m", Fast, 1557759, 0xdbc331c372dcbd23),
            ("3m", Default, 1494781, 0xb6396d3794eb8e8a),
            ("3m", Best, 1481688, 0xdb09c56bde0707aa),
        ],
    );
}

#[test]
fn deflate_output_is_pinned() {
    use CompressionLevel::*;
    check(
        "Deflate",
        |level| Box::new(Deflate::new(level)),
        &[
            ("empty", Fast, 11, 0x7d8f6afbd132c126),
            ("empty", Default, 11, 0x551eee4565ffc69e),
            ("empty", Best, 11, 0xfbb6c1011b3b4f02),
            ("constant", Fast, 460, 0xc111e7c5d76b1bfc),
            ("constant", Default, 120, 0x618d3c02d852fa6f),
            ("constant", Best, 120, 0xe2a01618711d65ce),
            ("1k", Fast, 810, 0xad334c0da5c445e8),
            ("1k", Default, 743, 0xed2e72eeedb9f8fe),
            ("1k", Best, 743, 0x771c1071a9fdff19),
            ("16k", Fast, 10808, 0x18c56c5133ac47c4),
            ("16k", Default, 9894, 0x1e31e3917db3e903),
            ("16k", Best, 9858, 0x26349e35959d6c61),
            ("3m", Fast, 1938266, 0x5e3e068ece531747),
            ("3m", Default, 1840328, 0x30d4d1bd5b965f51),
            ("3m", Best, 1822601, 0x889a2a6ecd050baf),
        ],
    );
}
