//! Integrity walking (`fsck`) and best-effort recovery (`salvage`).
//!
//! The decode pipeline is strict: the first structural defect or
//! checksum mismatch aborts the whole operation. This module is the
//! permissive counterpart for operators holding damaged media:
//!
//! - [`fsck_container`] / [`fsck_stream`] walk a container without
//!   decoding payloads, verify every embedded chunk checksum, and
//!   report per-chunk health. Version-1 inputs carry no chunk
//!   checksums; their chunks are reported as legacy/unverifiable
//!   rather than pass or fail.
//! - [`salvage_decompress`] decodes everything it can, zero-filling
//!   the regions covered by damaged chunks so that every intact chunk
//!   lands at its original offset (bit-exact).
//! - [`salvage_container`] re-encodes the salvaged bytes into a fresh,
//!   fully valid container with the same shape.
//!
//! # Resync rules (see also docs/FORMAT.md)
//!
//! Every salvage walk in the workspace — containers and streams here,
//! store records and write-ahead journals in their own crates — runs on
//! [`resync_walk`]; each format supplies only its anchor test. When a
//! chunk record fails to parse or verify, the walk probes forward one
//! byte at a time looking for the next *anchor*: an offset
//! where a structurally valid chunk header is followed by payload
//! bytes that match its embedded XXH64 checksum. A false anchor would
//! need a valid mode byte, an element count within the header's chunk
//! size, a mask no wider than the element, consistent length fields,
//! *and* a 64-bit checksum match over the claimed payload — vanishing
//! odds in damaged or random bytes. Version-1 records carry no
//! checksum, so legacy anchors are structural-only and resync is
//! correspondingly weaker.
//!
//! Lost output positions are reconstructed by element accounting:
//! every non-final chunk holds exactly `chunk_elements` elements, so
//! with `R` recovered records out of `N = ceil(total / chunk_elements)`
//! expected, `N − R` chunks are missing. Each damaged region absorbs
//! at least one missing chunk; any surplus is attributed to the
//! longest damaged regions first (earliest wins ties). With a single
//! damaged region — the common case — the attribution is exact.

use crate::container::{ChunkRecord, Header, HEADER_LEN, VERSION};
use crate::error::IsobarError;
use crate::pipeline::{decode_chunk_record, IsobarCompressor, IsobarOptions, PipelineScratch};
use crate::stream::{STREAM_HEADER_LEN, STREAM_TRAILER_LEN};
use isobar_codecs::{codec_for, CodecId};
use isobar_linearize::Linearization;
use isobar_telemetry::{Counter, Recorder};

/// Most bytes of zero fill [`salvage_decompress`] will invent per byte
/// of evidence (input bytes plus output bytes backed by surviving
/// records). A header claiming more is refused as damaged: the output
/// would be over 99.9% invented.
pub const MAX_FILL_RATIO: u64 = 1024;

/// Health of one chunk record as seen by `fsck`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkHealth {
    /// Structure and embedded checksum both check out.
    Verified,
    /// Structurally valid version-1 record: it carries no checksum, so
    /// payload integrity cannot be proven without a full decode
    /// ("legacy, unverifiable").
    LegacyUnverifiable,
}

/// One walked chunk record.
#[derive(Debug, Clone, Copy)]
pub struct ChunkStatus {
    /// Byte offset of the record in the container or stream.
    pub offset: u64,
    /// Elements the record claims.
    pub elements: u32,
    /// Verification outcome.
    pub health: ChunkHealth,
}

/// A contiguous byte range the walker could not account for.
#[derive(Debug, Clone, Copy)]
pub struct DamageRegion {
    /// Byte offset where parsing or verification first failed.
    pub offset: u64,
    /// Bytes skipped before the next anchor (or end of input).
    pub len: u64,
}

/// What `fsck` found. `damage.is_empty()` means the input is clean —
/// or, for legacy inputs, at least structurally whole.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Format version byte from the header.
    pub version: u8,
    /// Every chunk record the walker recognized, in file order.
    pub chunks: Vec<ChunkStatus>,
    /// Byte regions lost to damage.
    pub damage: Vec<DamageRegion>,
    /// Chunks the element accounting says existed but were not found
    /// (0 when `damage` is empty).
    pub missing_chunks: u64,
    /// Whether the input predates embedded chunk checksums.
    pub legacy: bool,
}

impl FsckReport {
    /// No damage found. Legacy inputs can still be `clean` — the walk
    /// only proves structure for them, which is all v1 offers.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && self.missing_chunks == 0
    }
}

/// What `salvage` recovered.
#[derive(Debug, Clone, Copy, Default)]
pub struct SalvageReport {
    /// Chunk records decoded bit-exact.
    pub chunks_recovered: u64,
    /// Chunks replaced with zero fill (damaged, undecodable, or
    /// missing entirely).
    pub chunks_lost: u64,
    /// Output bytes that are zero fill rather than recovered data.
    pub bytes_lost: u64,
    /// Damaged byte regions the walker skipped.
    pub damage_regions: u64,
}

impl SalvageReport {
    /// True when every chunk came back.
    pub fn is_complete(&self) -> bool {
        self.chunks_lost == 0
    }
}

/// One step of a [`resync_walk`]: an accepted item or a skipped gap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Walked<T> {
    /// `try_at` accepted the bytes starting at `offset`.
    Item {
        /// Absolute offset of the item in the walked data.
        offset: usize,
        /// What `try_at` returned for it.
        item: T,
    },
    /// A maximal run of bytes where every probe was rejected.
    Gap {
        /// Absolute offset of the first skipped byte.
        offset: usize,
        /// Bytes skipped.
        len: usize,
    },
}

/// The checksum-anchor resync walk every salvage path shares (see
/// docs/FORMAT.md, "Resync walk").
///
/// Starting at `start`, ask `try_at(pos)` for an item at `pos`; it
/// returns the item and the absolute offset just past it. On success
/// the walk jumps to that end, otherwise it probes the next byte. An
/// end at or before `pos`, or past the data, counts as a rejection, so
/// the walk always moves forward and terminates. `visit` sees items
/// and maximal gaps in order; together they tile `data[start..]`
/// exactly, and no two gaps are adjacent.
pub fn resync_walk<T>(
    data: &[u8],
    start: usize,
    mut try_at: impl FnMut(usize) -> Option<(T, usize)>,
    mut visit: impl FnMut(Walked<T>),
) {
    let mut pos = start;
    let mut gap_start = None;
    while pos < data.len() {
        match try_at(pos).filter(|(_, end)| *end > pos && *end <= data.len()) {
            Some((item, end)) => {
                if let Some(offset) = gap_start.take() {
                    visit(Walked::Gap {
                        offset,
                        len: pos - offset,
                    });
                }
                visit(Walked::Item { offset: pos, item });
                pos = end;
            }
            None => {
                gap_start.get_or_insert(pos);
                pos += 1;
            }
        }
    }
    if let Some(offset) = gap_start {
        visit(Walked::Gap {
            offset,
            len: data.len() - offset,
        });
    }
}

/// Try to parse (and, where the format allows, verify) a batch chunk
/// record at `pos`. Returns the record and the offset just past it, or
/// `None` if the bytes there are not a believable record.
fn try_anchor(data: &[u8], pos: usize, header: &Header) -> Option<(ChunkRecord, usize)> {
    let (record, used) = ChunkRecord::read_bounded(
        &data[pos..],
        header.width as usize,
        header.chunk_elements,
        header.version,
        true,
        pos as u64,
    )
    .ok()?;
    // An empty record is structurally valid but can never appear in
    // healthy output.
    if record.elements == 0 {
        return None;
    }
    Some((record, pos + used))
}

/// The per-chunk verdict `fsck` reports for a recognized record.
fn chunk_status(offset: usize, record: &ChunkRecord, legacy: bool) -> ChunkStatus {
    ChunkStatus {
        offset: offset as u64,
        elements: record.elements,
        health: if legacy {
            ChunkHealth::LegacyUnverifiable
        } else {
            ChunkHealth::Verified
        },
    }
}

fn damage(offset: usize, len: usize) -> DamageRegion {
    DamageRegion {
        offset: offset as u64,
        len: len as u64,
    }
}

/// Walk + verify a batch container without decoding payloads.
///
/// Errors only when the file header itself is unusable; damage past
/// the header is what the report is *for*.
pub fn fsck_container(data: &[u8]) -> Result<FsckReport, IsobarError> {
    let header = Header::read(data).map_err(|e| e.at(0))?;
    let legacy = header.version < VERSION;
    let mut report = FsckReport {
        version: header.version,
        chunks: Vec::new(),
        damage: Vec::new(),
        missing_chunks: 0,
        legacy,
    };
    resync_walk(
        data,
        HEADER_LEN,
        |pos| try_anchor(data, pos, &header),
        |walked| match walked {
            Walked::Item { offset, item } => {
                report.chunks.push(chunk_status(offset, &item, legacy))
            }
            Walked::Gap { offset, len } => report.damage.push(damage(offset, len)),
        },
    );
    report.missing_chunks = missing_chunks(&header, report.chunks.len() as u64);
    Ok(report)
}

/// Walk + verify a stream (`ISBS`) without decoding payloads.
pub fn fsck_stream(data: &[u8]) -> Result<FsckReport, IsobarError> {
    let (version, width) = read_stream_header(data)?;
    let legacy = version < crate::stream::STREAM_VERSION;
    let mut report = FsckReport {
        version,
        chunks: Vec::new(),
        damage: Vec::new(),
        missing_chunks: 0,
        legacy,
    };
    resync_walk(
        data,
        STREAM_HEADER_LEN,
        |pos| try_frame(data, pos, version, width),
        |walked| match walked {
            // The record starts past the one-byte frame marker.
            Walked::Item {
                offset,
                item: Frame::Chunk(record),
            } => report
                .chunks
                .push(chunk_status(offset + 1, &record, legacy)),
            Walked::Item {
                item: Frame::Trailer,
                ..
            } => {}
            Walked::Gap { offset, len } => report.damage.push(damage(offset, len)),
        },
    );
    Ok(report)
}

/// Decode a damaged batch container, zero-filling what cannot be
/// recovered so every intact chunk lands at its original offset.
///
/// Errors only when the file header is unusable or the geometry
/// (width, total length) is nonsensical — a total length more than
/// [`MAX_FILL_RATIO`] times the surviving evidence counts — otherwise
/// the output always has exactly `total_len` bytes.
pub fn salvage_decompress(data: &[u8]) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
    salvage_decompress_recorded(data, &mut Recorder::new())
}

/// [`salvage_decompress`] recording telemetry — each lost chunk bumps
/// [`Counter::ChunksSkippedCorrupt`] — into a caller-held recorder.
pub fn salvage_decompress_recorded(
    data: &[u8],
    recorder: &mut Recorder,
) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
    let header = Header::read(data).map_err(|e| e.at(0))?;
    let width = header.width as usize;
    if header.total_len % width as u64 != 0 {
        return Err(IsobarError::Corrupt("total length not element-aligned"));
    }
    let total_elements = header.total_len / width as u64;
    let codec = codec_for(header.codec, header.level);
    let mut segments = Vec::new();
    resync_walk(
        data,
        HEADER_LEN,
        |pos| try_anchor(data, pos, &header),
        |walked| segments.push(walked),
    );

    // Element accounting: how many whole chunks vanished, and how many
    // to attribute to each damaged region (longest-first).
    // `elements_ahead` counts elements still owed to records not yet
    // emitted — used to clamp zero fill so a gap can never push
    // recovered data past its slot.
    let (records, mut elements_ahead) = segments.iter().fold((0u64, 0u64), |(n, e), s| match s {
        Walked::Item { item, .. } => (n + 1, e + item.elements as u64),
        Walked::Gap { .. } => (n, e),
    });
    let gap_shares = share_missing(&segments, missing_chunks(&header, records));
    // The zero fill follows the header's total length, which damage can
    // inflate without bound: cap it against the evidence at hand.
    let backed = elements_ahead * width as u64;
    let evidence = backed.saturating_add(data.len() as u64);
    if header.total_len.saturating_sub(backed) > evidence.saturating_mul(MAX_FILL_RATIO) {
        return Err(IsobarError::Corrupt(
            "total length implausible for the surviving data",
        ));
    }

    let mut out = Vec::with_capacity(header.total_len as usize);
    let mut report = SalvageReport::default();
    let mut scratch = PipelineScratch::new();
    let mut gap_index = 0usize;
    let mut chunk_index = 0u32;

    for seg in &segments {
        match seg {
            Walked::Item { item: record, .. } => {
                elements_ahead -= record.elements as u64;
                let produced = out.len();
                let decoded = decode_chunk_record(
                    record,
                    width,
                    chunk_index,
                    codec.as_ref(),
                    header.linearization,
                    &mut out,
                    &mut scratch,
                    recorder,
                )
                .is_ok();
                if decoded {
                    report.chunks_recovered += 1;
                } else {
                    // Checksum passed (or legacy) but the payload
                    // would not decode: fall back to this chunk's
                    // worth of zeros.
                    out.truncate(produced);
                    let fill = record.elements as usize * width;
                    out.resize(produced + fill, 0);
                    report.chunks_lost += 1;
                    report.bytes_lost += fill as u64;
                    recorder.incr(Counter::ChunksSkippedCorrupt);
                }
                chunk_index += 1;
            }
            Walked::Gap { .. } => {
                let share = gap_shares[gap_index];
                gap_index += 1;
                report.damage_regions += 1;
                let produced_elements = (out.len() / width) as u64;
                let budget = total_elements
                    .saturating_sub(produced_elements)
                    .saturating_sub(elements_ahead);
                let fill_elements = (share * header.chunk_elements as u64).min(budget);
                let fill = (fill_elements * width as u64) as usize;
                out.resize(out.len() + fill, 0);
                report.chunks_lost += share;
                report.bytes_lost += fill as u64;
                for _ in 0..share {
                    recorder.incr(Counter::ChunksSkippedCorrupt);
                }
            }
        }
    }
    // Accounting shortfalls (e.g. damage at the very end of the file)
    // land as trailing zero fill; overshoot cannot happen because gaps
    // are budget-clamped and records were length-validated.
    if (out.len() as u64) < header.total_len {
        let pad = header.total_len as usize - out.len();
        out.resize(header.total_len as usize, 0);
        report.bytes_lost += pad as u64;
    }
    out.truncate(header.total_len as usize);
    Ok((out, report))
}

/// Rebuild a damaged batch container into a fresh, fully valid
/// current-version container: salvage the bytes ([`salvage_decompress`]),
/// then re-encode them with the original geometry (width, chunk size,
/// solver, linearization). Recovered chunks keep their exact contents;
/// damaged spans become well-formed chunks of zeros.
pub fn salvage_container(data: &[u8]) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
    salvage_container_recorded(data, &mut Recorder::new())
}

/// [`salvage_container`] recording telemetry into a caller-held
/// recorder.
pub fn salvage_container_recorded(
    data: &[u8],
    recorder: &mut Recorder,
) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
    let header = Header::read(data).map_err(|e| e.at(0))?;
    let (bytes, report) = salvage_decompress_recorded(data, recorder)?;
    let compressor = IsobarCompressor::new(IsobarOptions {
        codec_override: Some(header.codec),
        linearization_override: Some(header.linearization),
        level: header.level,
        chunk_elements: header.chunk_elements as usize,
        ..Default::default()
    });
    let packed = compressor.compress(&bytes, header.width as usize)?;
    Ok((packed, report))
}

/// Decode a damaged stream (`ISBS`), skipping frames that fail
/// verification. Streams do not record their chunk geometry in the
/// header, so — unlike [`salvage_decompress`] — lost frames cannot be
/// zero-filled in place; their data is simply absent from the output.
pub fn salvage_stream_recorded(
    data: &[u8],
    recorder: &mut Recorder,
) -> Result<(Vec<u8>, SalvageReport), IsobarError> {
    let (version, width) = read_stream_header(data)?;
    let codec = CodecId::from_u8(data[6]).map_err(IsobarError::Codec)?;
    let level =
        crate::container::level_from_u8(data[7]).ok_or(IsobarError::Corrupt("bad level byte"))?;
    let linearization =
        Linearization::from_u8(data[8]).ok_or(IsobarError::Corrupt("bad linearization"))?;
    let solver = codec_for(codec, level);

    let mut out = Vec::new();
    let mut report = SalvageReport::default();
    let mut scratch = PipelineScratch::new();
    let mut chunk_index = 0u32;
    resync_walk(
        data,
        STREAM_HEADER_LEN,
        |pos| try_frame(data, pos, version, width),
        |walked| match walked {
            Walked::Item {
                item: Frame::Chunk(record),
                ..
            } => {
                let produced = out.len();
                let ok = decode_chunk_record(
                    &record,
                    width as usize,
                    chunk_index,
                    solver.as_ref(),
                    linearization,
                    &mut out,
                    &mut scratch,
                    recorder,
                )
                .is_ok();
                if ok {
                    report.chunks_recovered += 1;
                } else {
                    out.truncate(produced);
                    report.chunks_lost += 1;
                    recorder.incr(Counter::ChunksSkippedCorrupt);
                }
                chunk_index += 1;
            }
            Walked::Item {
                item: Frame::Trailer,
                ..
            } => {}
            Walked::Gap { len, .. } => {
                report.damage_regions += 1;
                report.chunks_lost += 1;
                report.bytes_lost += len as u64;
                recorder.incr(Counter::ChunksSkippedCorrupt);
            }
        },
    );
    Ok((out, report))
}

/// Parse and sanity-check the 9-byte stream header; returns
/// `(version, width)`.
fn read_stream_header(data: &[u8]) -> Result<(u8, u8), IsobarError> {
    if data.len() < STREAM_HEADER_LEN {
        return Err(IsobarError::Truncated);
    }
    if data[..4] != crate::stream::STREAM_MAGIC {
        return Err(IsobarError::Corrupt("bad stream magic"));
    }
    let version = data[4];
    if version != crate::stream::STREAM_VERSION && version != crate::stream::STREAM_LEGACY_VERSION {
        return Err(IsobarError::Corrupt("unsupported stream version"));
    }
    let width = data[5];
    if width == 0 || width > 64 {
        return Err(IsobarError::Corrupt("bad element width"));
    }
    Ok((version, width))
}

/// A frame recognized mid-stream.
enum Frame {
    /// Chunk frame; its record starts one byte in, past the marker.
    Chunk(ChunkRecord),
    /// End-of-stream trailer, which ends exactly at EOF.
    Trailer,
}

/// Try to read a frame at `pos`: a chunk marker followed by a
/// verifiable record, or a trailer marker exactly one trailer from
/// EOF. Returns the frame and the offset just past it.
fn try_frame(data: &[u8], pos: usize, version: u8, width: u8) -> Option<(Frame, usize)> {
    match data[pos] {
        1 => {
            let (record, used) = ChunkRecord::read_bounded(
                &data[pos + 1..],
                width as usize,
                u32::MAX,
                version,
                true,
                (pos + 1) as u64,
            )
            .ok()?;
            if record.elements == 0 {
                return None;
            }
            Some((Frame::Chunk(record), pos + 1 + used))
        }
        // Only believe a trailer marker when the remaining bytes are
        // exactly one trailer — anything else is damage.
        0 if data.len() - pos == STREAM_TRAILER_LEN => Some((Frame::Trailer, data.len())),
        _ => None,
    }
}

/// Expected-minus-found whole chunks, from the header's geometry.
fn missing_chunks(header: &Header, found: u64) -> u64 {
    let width = header.width as u64;
    if width == 0 || header.chunk_elements == 0 {
        return 0;
    }
    let total_elements = header.total_len / width;
    let expected = total_elements.div_ceil(header.chunk_elements as u64);
    expected.saturating_sub(found)
}

/// Attribute `missing` whole chunks across the walk's damaged regions:
/// one each, then the surplus to the longest region (earliest wins
/// ties). Returns one share per gap, in walk order.
fn share_missing<T>(segments: &[Walked<T>], missing: u64) -> Vec<u64> {
    let gaps: Vec<usize> = segments
        .iter()
        .filter_map(|s| match s {
            Walked::Gap { len, .. } => Some(*len),
            Walked::Item { .. } => None,
        })
        .collect();
    let mut shares: Vec<u64> = (0..gaps.len() as u64)
        .map(|i| u64::from(i < missing))
        .collect();
    let longest = (0..gaps.len()).max_by_key(|&i| (gaps[i], std::cmp::Reverse(i)));
    if let Some(longest) = longest {
        shares[longest] += missing.saturating_sub(gaps.len() as u64);
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::CHUNK_HEADER_LEN;
    use crate::pipeline::{IsobarCompressor, IsobarOptions};
    use crate::stream::IsobarWriter;
    use isobar_codecs::CompressionLevel;
    use std::io::Write as _;

    fn mixed_data(elements: usize) -> Vec<u8> {
        (0..elements as u64)
            .flat_map(|i| {
                (((i / 7) << 32) | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes()
            })
            .collect()
    }

    fn small_chunk_container() -> (Vec<u8>, Vec<u8>) {
        let data = mixed_data(1024);
        let packed = IsobarCompressor::new(IsobarOptions {
            chunk_elements: 256,
            ..Default::default()
        })
        .compress(&data, 8)
        .expect("compress");
        (packed, data)
    }

    /// Byte offset of chunk record `n` (0-based) in a container.
    fn record_offset(packed: &[u8], n: usize) -> usize {
        let header = Header::read(packed).unwrap();
        let mut pos = HEADER_LEN;
        for _ in 0..n {
            let (_, used) = ChunkRecord::read_bounded(
                &packed[pos..],
                header.width as usize,
                header.chunk_elements,
                header.version,
                true,
                pos as u64,
            )
            .unwrap();
            pos += used;
        }
        pos
    }

    #[test]
    fn fsck_reports_clean_container() {
        let (packed, _) = small_chunk_container();
        let report = fsck_container(&packed).expect("header");
        assert!(report.is_clean());
        assert_eq!(report.chunks.len(), 4);
        assert!(!report.legacy);
        assert!(report
            .chunks
            .iter()
            .all(|c| c.health == ChunkHealth::Verified));
    }

    #[test]
    fn fsck_pinpoints_damaged_chunk() {
        let (mut packed, _) = small_chunk_container();
        let second = record_offset(&packed, 1);
        packed[second + CHUNK_HEADER_LEN + 3] ^= 0xFF; // payload bit rot
        let report = fsck_container(&packed).expect("header");
        assert!(!report.is_clean());
        assert_eq!(report.chunks.len(), 3, "three chunks still verify");
        assert_eq!(report.missing_chunks, 1);
        assert_eq!(report.damage.len(), 1);
        assert_eq!(report.damage[0].offset, second as u64);
    }

    #[test]
    fn salvage_recovers_intact_chunks_bit_exact() {
        let (mut packed, data) = small_chunk_container();
        let second = record_offset(&packed, 1);
        let third = record_offset(&packed, 2);
        packed[second + CHUNK_HEADER_LEN] ^= 0xFF;
        let (out, report) = salvage_decompress(&packed).expect("salvage");
        assert_eq!(out.len(), data.len());
        // Chunks 0, 2, 3 (each 256 elements x 8 bytes) are bit-exact.
        let cs = 256 * 8;
        assert_eq!(&out[..cs], &data[..cs], "chunk 0 recovered");
        assert_eq!(&out[2 * cs..], &data[2 * cs..], "chunks 2-3 recovered");
        assert!(out[cs..2 * cs].iter().all(|&b| b == 0), "chunk 1 zeroed");
        assert_eq!(report.chunks_recovered, 3);
        assert_eq!(report.chunks_lost, 1);
        assert_eq!(report.bytes_lost, cs as u64);
        let _ = third;
    }

    #[test]
    fn salvage_survives_damage_spanning_record_header() {
        // Destroy the second record's *header* (not just payload): the
        // walker must resync on the third record's checksum anchor.
        let (mut packed, data) = small_chunk_container();
        let second = record_offset(&packed, 1);
        for b in &mut packed[second..second + CHUNK_HEADER_LEN] {
            *b = 0xAA;
        }
        let (out, report) = salvage_decompress(&packed).expect("salvage");
        let cs = 256 * 8;
        assert_eq!(out.len(), data.len());
        assert_eq!(&out[..cs], &data[..cs]);
        assert_eq!(&out[2 * cs..], &data[2 * cs..]);
        assert_eq!(report.chunks_recovered, 3);
        assert_eq!(report.damage_regions, 1);
    }

    #[test]
    fn salvage_zero_fill_is_bounded_by_the_evidence() {
        let (mut packed, data) = small_chunk_container();
        // One extra chunk's worth of claimed length is plausible damage:
        // it comes back as trailing zero fill.
        let grown = data.len() as u64 + 256 * 8;
        packed[16..24].copy_from_slice(&grown.to_le_bytes());
        let (out, report) = salvage_decompress(&packed).expect("salvage");
        assert_eq!(out.len() as u64, grown);
        assert_eq!(&out[..data.len()], &data[..]);
        assert_eq!(report.bytes_lost, 256 * 8);
        // A terabyte claim is refused instead of allocated.
        packed[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(salvage_decompress(&packed).is_err());
    }

    #[test]
    fn salvage_container_rebuilds_valid_container() {
        let (mut packed, data) = small_chunk_container();
        let second = record_offset(&packed, 1);
        packed[second + CHUNK_HEADER_LEN] ^= 0xFF;
        let (rebuilt, report) = salvage_container(&packed).expect("salvage");
        assert_eq!(report.chunks_lost, 1);
        // The rebuilt container must pass a strict, verifying decode.
        let out = IsobarCompressor::default()
            .decompress(&rebuilt)
            .expect("rebuilt container is fully valid");
        let cs = 256 * 8;
        assert_eq!(&out[..cs], &data[..cs]);
        assert_eq!(&out[2 * cs..], &data[2 * cs..]);
        assert!(fsck_container(&rebuilt).unwrap().is_clean());
    }

    #[test]
    fn salvage_of_clean_container_is_lossless() {
        let (packed, data) = small_chunk_container();
        let (out, report) = salvage_decompress(&packed).expect("salvage");
        assert_eq!(out, data);
        assert!(report.is_complete());
        assert_eq!(report.chunks_recovered, 4);
    }

    #[test]
    fn fsck_flags_legacy_as_unverifiable() {
        use crate::container::{ChunkMode, LEGACY_VERSION};
        use isobar_codecs::deflate::adler32;
        let original: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(3)).collect();
        let codec = codec_for(CodecId::Deflate, CompressionLevel::Default);
        let header = Header {
            version: LEGACY_VERSION,
            width: 2,
            codec: CodecId::Deflate,
            level: CompressionLevel::Default,
            linearization: Linearization::Row,
            preference: 0,
            chunk_elements: 100,
            total_len: original.len() as u64,
            checksum: adler32(&original),
        };
        let record = ChunkRecord {
            mode: ChunkMode::Passthrough,
            elements: 100,
            mask: 0,
            compressed: codec.compress(&original),
            incompressible: Vec::new(),
        };
        let mut bytes = Vec::new();
        header.write(&mut bytes);
        record.write_legacy(&mut bytes);

        let report = fsck_container(&bytes).expect("header");
        assert!(report.legacy);
        assert!(report.is_clean(), "structurally whole");
        assert_eq!(report.chunks[0].health, ChunkHealth::LegacyUnverifiable);

        // And legacy containers salvage too (structural anchors only).
        let (out, rep) = salvage_decompress(&bytes).expect("salvage");
        assert_eq!(out, original);
        assert!(rep.is_complete());
    }

    #[test]
    fn stream_fsck_and_salvage() {
        let data = mixed_data(1024);
        let mut writer = IsobarWriter::new(
            Vec::new(),
            8,
            IsobarOptions {
                chunk_elements: 256,
                ..Default::default()
            },
        )
        .expect("writer");
        writer.write_all(&data).expect("write");
        let mut bytes = writer.finish().expect("finish");

        let report = fsck_stream(&bytes).expect("header");
        assert!(report.is_clean());
        assert_eq!(report.chunks.len(), 4);

        // Damage the second frame's payload.
        let at = report.chunks[1].offset as usize + CHUNK_HEADER_LEN;
        bytes[at] ^= 0xFF;
        let report = fsck_stream(&bytes).expect("header");
        assert_eq!(report.chunks.len(), 3);
        assert_eq!(report.damage.len(), 1);

        // Salvage drops the damaged frame, keeps the other three.
        let (out, rep) = salvage_stream_recorded(&bytes, &mut Recorder::new()).expect("salvage");
        let cs = 256 * 8;
        assert_eq!(out.len(), 3 * cs);
        assert_eq!(&out[..cs], &data[..cs]);
        assert_eq!(&out[cs..], &data[2 * cs..]);
        assert_eq!(rep.chunks_recovered, 3);
    }
}
