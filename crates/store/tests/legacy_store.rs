//! Back-compat: version-1 (pre-checksum) stores must keep opening and
//! decoding, and fsck must classify them as legacy rather than damaged.
//!
//! The fixture is hand-assembled from the frozen v1 emitters — a v1
//! store head, a record wrapping a v1 (pre-checksum) container, a
//! checksum-less index entry, and the 16-byte v1 trailer — so these
//! tests keep proving back-compat even after the current writer moves
//! on.

mod common;

use common::TestDir;
use isobar::container::{ChunkMode, ChunkRecord, Header, LEGACY_VERSION as CONTAINER_V1};
use isobar::Linearization;
use isobar_codecs::{codec_for, CodecId, CompressionLevel};
use isobar_store::{
    fsck_store, EntryHealth, IndexEntry, StoreReader, LEGACY_VERSION, MAGIC, TRAILER_MAGIC,
    TRAILER_V1_LEN,
};

/// A v1 (pre-checksum) ISOBAR container holding bytes 0..128.
fn legacy_container() -> (Vec<u8>, Vec<u8>) {
    let original: Vec<u8> = (0..128u8).collect();
    let codec = codec_for(CodecId::Deflate, CompressionLevel::Default);
    let header = Header {
        version: CONTAINER_V1,
        width: 2,
        codec: CodecId::Deflate,
        level: CompressionLevel::Default,
        linearization: Linearization::Row,
        preference: 0,
        chunk_elements: 64,
        total_len: original.len() as u64,
        checksum: isobar_codecs::deflate::adler32(&original),
    };
    let record = ChunkRecord {
        mode: ChunkMode::Passthrough,
        elements: 64,
        mask: 0,
        compressed: codec.compress(&original),
        incompressible: Vec::new(),
    };
    let mut bytes = Vec::new();
    header.write(&mut bytes);
    record.write_legacy(&mut bytes);
    (bytes, original)
}

/// Hand-assemble a complete version-1 store holding one variable.
fn legacy_store_bytes() -> (Vec<u8>, Vec<u8>) {
    let (container, original) = legacy_container();
    let name = b"density";
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(LEGACY_VERSION);

    // One record: name_len u16 | name | step u32 | width u8 |
    // container_len u64 | container.
    bytes.extend_from_slice(&(name.len() as u16).to_le_bytes());
    bytes.extend_from_slice(name);
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.push(2);
    bytes.extend_from_slice(&(container.len() as u64).to_le_bytes());
    let container_offset = bytes.len() as u64;
    bytes.extend_from_slice(&container);

    // Checksum-less v1 index entry, then the 16-byte v1 trailer.
    let index_offset = bytes.len() as u64;
    let entry = IndexEntry {
        name: String::from_utf8(name.to_vec()).unwrap(),
        step: 0,
        width: 2,
        offset: container_offset,
        container_len: container.len() as u64,
        raw_len: original.len() as u64,
        checksum: 0,
    };
    entry.write_legacy(&mut bytes);
    bytes.extend_from_slice(&index_offset.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&TRAILER_MAGIC);
    (bytes, original)
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &b| {
        (acc ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn legacy_store_bytes_are_bit_stable() {
    // The v1 emitters are frozen; if this fingerprint drifts, the
    // back-compat tests below stop proving anything.
    let (bytes, _) = legacy_store_bytes();
    let fingerprint = fnv(&bytes);
    let expected = 0x893c_44f5_523b_ed2au64; // regenerate only with a v1 layout change (never)
    assert_eq!(
        fingerprint,
        expected,
        "legacy store fixture drifted: {fingerprint:#018x} (len {})",
        bytes.len()
    );
    // Structure sanity: trailer magic sits exactly TRAILER_V1_LEN from
    // the end — a v1 store has no index-checksum field.
    assert_eq!(&bytes[bytes.len() - 4..], &TRAILER_MAGIC);
    assert_eq!(bytes.len() - TRAILER_V1_LEN, {
        let at = bytes.len() - TRAILER_V1_LEN;
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize + {
            let mut probe = Vec::new();
            IndexEntry {
                name: "density".into(),
                step: 0,
                width: 2,
                offset: 0,
                container_len: 0,
                raw_len: 0,
                checksum: 0,
            }
            .write_legacy(&mut probe);
            probe.len()
        }
    });
}

#[test]
fn legacy_store_still_opens_and_decodes() {
    let (bytes, original) = legacy_store_bytes();
    let dir = TestDir::new("legacy-decode");
    let path = dir.join("store.isst");
    std::fs::write(&path, &bytes).unwrap();
    // The default, verifying open must accept a v1 store: there are no
    // checksums to verify, not a verification failure.
    let reader = StoreReader::open(&path).expect("v1 store must keep opening");
    assert_eq!(reader.version(), LEGACY_VERSION);
    assert_eq!(reader.entries().len(), 1);
    assert_eq!(
        reader.entries()[0].checksum,
        0,
        "v1 entries surface checksum 0"
    );
    assert_eq!(reader.get(0, "density").unwrap(), original);
}

#[test]
fn legacy_store_fsck_reports_legacy_unverifiable() {
    let (bytes, _) = legacy_store_bytes();
    let dir = TestDir::new("legacy-fsck");
    let path = dir.join("store.isst");
    std::fs::write(&path, &bytes).unwrap();
    let report = fsck_store(&path).unwrap();
    assert!(report.is_clean(), "structurally sound v1 store is clean");
    assert!(report.legacy, "v1 store must be flagged legacy");
    assert_eq!(report.version, LEGACY_VERSION);
    assert_eq!(
        report.entries[0].health,
        EntryHealth::LegacyUnverifiable,
        "v1 container in a v1 store has nothing to verify against"
    );
}

#[test]
fn legacy_store_damage_is_still_detected_structurally() {
    // No checksums — but a stomped container magic still fails the
    // embedded decoder, and fsck still calls the entry damaged.
    let (bytes, _) = legacy_store_bytes();
    let dir = TestDir::new("legacy-damage");
    let path = dir.join("store.isst");
    let mut bad = bytes.clone();
    // Container starts right after head (5) + record header (2+7+4+1+8).
    let container_at = 5 + 2 + 7 + 4 + 1 + 8;
    bad[container_at] = b'X';
    std::fs::write(&path, &bad).unwrap();
    let reader = StoreReader::open(&path).unwrap();
    assert!(reader.get(0, "density").is_err());
    let report = fsck_store(&path).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.entries[0].health, EntryHealth::Damaged);
}
