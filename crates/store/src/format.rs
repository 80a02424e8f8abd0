//! On-disk layout constants and the index entry record.
//!
//! Version history:
//!
//! - v1: 16-byte trailer, index entries without checksums.
//! - v2: every index entry carries the XXH64 of its container bytes,
//!   and the trailer carries the XXH64 of the encoded index region.
//!   Version-1 stores are still read; their entries surface
//!   `checksum == 0` and are exempt from verification ("legacy,
//!   unverifiable").
//! - v3 (current sharded layout): a store is a **directory** — a
//!   `MANIFEST` file (magic `ISSM`) naming N segment files (magic
//!   `ISSG`), each appended by an independent writer. The manifest
//!   embeds the whole index (entries carry a segment ordinal) and is
//!   swapped in atomically, making it the single commit point. See
//!   [`crate::manifest`] and `docs/FORMAT.md`. Single-file v1/v2
//!   stores are still fully readable, but nothing writes them any
//!   more.

use crate::error::StoreError;
use isobar_codecs::xxhash::xxh64;

/// Store file magic: "ISST".
pub const MAGIC: [u8; 4] = *b"ISST";
/// Trailer magic: "ISSX".
pub const TRAILER_MAGIC: [u8; 4] = *b"ISSX";
/// Version of the single-file checksummed stores that earlier releases
/// wrote. Read-only now: every store this crate writes is version 3.
pub const VERSION: u8 = 2;
/// The checksum-less store version this build still reads.
pub const LEGACY_VERSION: u8 = 1;
/// The sharded (directory) store version written by
/// [`crate::ShardedStoreWriter`].
pub const V3_VERSION: u8 = 3;
/// Segment file magic: "ISSG".
pub const SEGMENT_MAGIC: [u8; 4] = *b"ISSG";
/// Segment trailer magic: "ISGX".
pub const SEGMENT_TRAILER_MAGIC: [u8; 4] = *b"ISGX";
/// Segment header size: magic (4) + version (1) + shard ordinal (2) +
/// reserved (1).
pub const SEGMENT_HEADER_LEN: usize = 8;
/// Segment trailer size: data length (8) + record count (4) + trailer
/// XXH64 (8) + magic (4).
pub const SEGMENT_TRAILER_LEN: usize = 24;
/// Manifest file magic: "ISSM".
pub const MANIFEST_MAGIC: [u8; 4] = *b"ISSM";
/// Manifest trailer magic: "ISMX".
pub const MANIFEST_TRAILER_MAGIC: [u8; 4] = *b"ISMX";
/// Manifest header size: magic (4) + version (1) + reserved (3).
pub const MANIFEST_HEADER_LEN: usize = 8;
/// Manifest trailer size: manifest XXH64 (8) + magic (4).
pub const MANIFEST_TRAILER_LEN: usize = 12;
/// File name of the manifest inside a version-3 store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Segment file name for one generation and shard:
/// `g<generation:016x>-s<shard:03>.seg`. Generations never collide, so
/// a rewrite's fresh segments coexist with the committed ones until
/// the manifest swap.
pub fn segment_file_name(generation: u64, shard: u16) -> String {
    format!("g{generation:016x}-s{shard:03}.seg")
}

/// Whether `name` looks like a segment file — used by fsck to spot
/// orphan segments no manifest references.
pub fn is_segment_file_name(name: &str) -> bool {
    name.starts_with('g') && name.ends_with(".seg")
}

/// Serialize the record header that precedes each embedded container:
/// `name_len u16 | name | step u32 | width u8 | container_len u64`.
/// Segments use the record grammar of the read-only single-file
/// format unchanged, so one salvage walk parses both.
pub fn encode_record_header(name: &str, step: u32, width: u8, container_len: u64) -> Vec<u8> {
    let name = name.as_bytes();
    let mut out = Vec::with_capacity(2 + name.len() + 4 + 1 + 8);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&step.to_le_bytes());
    out.push(width);
    out.extend_from_slice(&container_len.to_le_bytes());
    out
}
/// Seed for every XXH64 checksum in the store format.
pub const CHECKSUM_SEED: u64 = 0;
/// Version-2 trailer size: index offset (8) + entry count (4) +
/// index XXH64 (8) + magic (4).
pub const TRAILER_LEN: usize = 24;
/// Version-1 trailer size: index offset (8) + entry count (4) +
/// magic (4).
pub const TRAILER_V1_LEN: usize = 16;
/// Smallest possible serialized version-1 [`IndexEntry`]: name length
/// prefix (2), empty name, step (4), width (1), offset (8),
/// container_len (8), raw_len (8). A valid lower bound for both
/// versions (version 2 adds 8 checksum bytes), used to bound a claimed
/// entry count against the index region's actual size before
/// allocating for it.
pub const MIN_ENTRY_LEN: usize = 2 + 4 + 1 + 8 + 8 + 8;

/// Trailer size for a given store version.
pub fn trailer_len(version: u8) -> usize {
    if version >= 2 {
        TRAILER_LEN
    } else {
        TRAILER_V1_LEN
    }
}

/// XXH64 over a container's bytes — the per-entry integrity checksum
/// embedded in version-2 indexes.
pub fn entry_checksum(container: &[u8]) -> u64 {
    xxh64(container, CHECKSUM_SEED)
}

/// One index entry: where to find one variable of one time step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Variable name.
    pub name: String,
    /// Simulation time step.
    pub step: u32,
    /// Element width the variable was written with.
    pub width: u8,
    /// File offset of the record's ISOBAR container.
    pub offset: u64,
    /// Length of the ISOBAR container in bytes.
    pub container_len: u64,
    /// Uncompressed variable size in bytes.
    pub raw_len: u64,
    /// XXH64 of the container bytes (version 2). Zero when the entry
    /// was read from a version-1 index, which carries no checksums.
    pub checksum: u64,
}

impl IndexEntry {
    /// Serialize into `out` in the current ([`VERSION`]) layout.
    pub fn write(&self, out: &mut Vec<u8>) {
        self.write_common(out);
        out.extend_from_slice(&self.checksum.to_le_bytes());
    }

    /// Serialize in the [`LEGACY_VERSION`] (checksum-less) layout.
    /// Only meaningful for back-compat fixtures.
    pub fn write_legacy(&self, out: &mut Vec<u8>) {
        self.write_common(out);
    }

    fn write_common(&self, out: &mut Vec<u8>) {
        let name = self.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.push(self.width);
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.container_len.to_le_bytes());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
    }

    /// Parse one current-version entry from the front of `data`;
    /// returns the entry and bytes consumed.
    pub fn read(data: &[u8]) -> Result<(IndexEntry, usize), StoreError> {
        Self::read_versioned(data, VERSION)
    }

    /// Parse one entry in the layout of `version`. Version-1 entries
    /// carry no checksum; the field comes back 0.
    pub fn read_versioned(data: &[u8], version: u8) -> Result<(IndexEntry, usize), StoreError> {
        if data.len() < 2 {
            return Err(StoreError::Corrupt("index entry truncated"));
        }
        let name_len = u16::from_le_bytes(data[..2].try_into().expect("2 bytes")) as usize;
        let checksum_len = if version >= 2 { 8 } else { 0 };
        let fixed_after_name = 4 + 1 + 8 + 8 + 8 + checksum_len;
        let total = 2 + name_len + fixed_after_name;
        if data.len() < total {
            return Err(StoreError::Corrupt("index entry truncated"));
        }
        let name = std::str::from_utf8(&data[2..2 + name_len])
            .map_err(|_| StoreError::Corrupt("index entry name is not UTF-8"))?
            .to_string();
        let rest = &data[2 + name_len..];
        let checksum = if version >= 2 {
            u64::from_le_bytes(rest[29..37].try_into().expect("8 bytes"))
        } else {
            0
        };
        Ok((
            IndexEntry {
                name,
                step: u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")),
                width: rest[4],
                offset: u64::from_le_bytes(rest[5..13].try_into().expect("8 bytes")),
                container_len: u64::from_le_bytes(rest[13..21].try_into().expect("8 bytes")),
                raw_len: u64::from_le_bytes(rest[21..29].try_into().expect("8 bytes")),
                checksum,
            },
            total,
        ))
    }

    /// Compression ratio achieved for this variable.
    pub fn ratio(&self) -> f64 {
        if self.container_len == 0 {
            1.0
        } else {
            self.raw_len as f64 / self.container_len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> IndexEntry {
        IndexEntry {
            name: "potential_nl".into(),
            step: 300_000,
            width: 8,
            offset: 123_456_789,
            container_len: 42_000,
            raw_len: 64_000,
            checksum: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn entry_round_trips() {
        let mut buf = Vec::new();
        demo().write(&mut buf);
        buf.extend_from_slice(&[0xAA; 3]); // trailing data untouched
        let (entry, consumed) = IndexEntry::read(&buf).unwrap();
        assert_eq!(entry, demo());
        assert_eq!(consumed, buf.len() - 3);
    }

    #[test]
    fn legacy_entry_round_trips_without_checksum() {
        let mut buf = Vec::new();
        demo().write_legacy(&mut buf);
        let (entry, consumed) = IndexEntry::read_versioned(&buf, LEGACY_VERSION).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(entry.checksum, 0, "v1 entries surface checksum 0");
        assert_eq!(
            entry,
            IndexEntry {
                checksum: 0,
                ..demo()
            }
        );
    }

    #[test]
    fn truncated_entries_are_rejected() {
        let mut buf = Vec::new();
        demo().write(&mut buf);
        for cut in [0, 1, 5, buf.len() - 1] {
            assert!(IndexEntry::read(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn non_utf8_names_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        buf.extend_from_slice(&[0u8; 37]);
        assert!(matches!(
            IndexEntry::read(&buf),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn ratio_is_raw_over_container() {
        assert!((demo().ratio() - 64_000.0 / 42_000.0).abs() < 1e-12);
    }

    #[test]
    fn empty_name_round_trips() {
        let entry = IndexEntry {
            name: String::new(),
            ..demo()
        };
        let mut buf = Vec::new();
        entry.write(&mut buf);
        assert_eq!(IndexEntry::read(&buf).unwrap().0, entry);
    }

    #[test]
    fn entry_checksum_is_xxh64_of_container_bytes() {
        let container = b"ISBR-shaped bytes";
        assert_eq!(entry_checksum(container), xxh64(container, CHECKSUM_SEED));
        assert_ne!(entry_checksum(container), entry_checksum(b"other bytes"));
    }
}
