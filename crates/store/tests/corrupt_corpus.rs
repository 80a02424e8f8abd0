//! Corrupt-input corpus for the checkpoint store: one specimen per
//! documented defect class of the on-disk layout (head, index, trailer),
//! each asserting the specific `StoreError::Corrupt` message promised in
//! `docs/FORMAT.md`. Companion to `crates/isobar/tests/corrupt_corpus.rs`,
//! which covers the embedded container and stream formats.

mod common;

use common::TestDir;
use isobar::telemetry::{Counter, ENABLED};
use isobar::Recorder;
use isobar_codecs::xxhash::xxh64;
use isobar_store::{StoreError, StoreReader, TRAILER_LEN};

/// A small, valid, closed version-2 store with two variables, `u` at
/// step 0 and `v` at step 1, each holding `demo_data(700)` — written by
/// an earlier release with Speed preference and 512-element chunks.
const PRISTINE: &[u8] = include_bytes!("fixtures/v2_corpus.isst");

fn demo_data(elements: usize) -> Vec<u8> {
    (0..elements as u64)
        .flat_map(|i| (((i / 5) << 32) | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).to_le_bytes())
        .collect()
}

/// Write `bytes` to a scratch file, open it through the telemetry
/// entry point, and return the error plus the rejection count.
fn open_corrupt(name: &str, bytes: &[u8]) -> (StoreError, u64) {
    let dir = TestDir::new(name);
    let path = dir.join("store.isst");
    std::fs::write(&path, bytes).expect("write specimen");
    let mut recorder = Recorder::new();
    let err = StoreReader::open_recorded(&path, &mut recorder)
        .expect_err("corrupt specimen must be rejected");
    (
        err,
        recorder.snapshot().counter(Counter::StoreCorruptRejected),
    )
}

#[track_caller]
fn assert_corrupt(name: &str, bytes: &[u8], expected: &str) {
    let (err, rejected) = open_corrupt(name, bytes);
    match err {
        StoreError::Corrupt(what) => assert_eq!(what, expected),
        other => panic!("expected Corrupt({expected:?}), got {other:?}"),
    }
    if ENABLED {
        assert_eq!(rejected, 1, "rejection must bump the telemetry counter");
    }
}

#[test]
fn store_too_short() {
    // Below head + trailer there is no room for a store at all.
    assert_corrupt("short", &[0u8; 12], "file too short for a store");
}

#[test]
fn store_bad_magic() {
    let mut s = PRISTINE.to_vec();
    s[0] = b'X';
    assert_corrupt("magic", &s, "bad store magic");
}

#[test]
fn store_unsupported_version() {
    let mut s = PRISTINE.to_vec();
    s[4] = 9;
    assert_corrupt("version", &s, "unsupported store version");
}

#[test]
fn store_missing_trailer_magic() {
    // Stomp the closing "ISSX": the store looks unclosed / torn.
    let mut s = PRISTINE.to_vec();
    let at = s.len() - 4;
    s[at] = b'?';
    assert_corrupt("trailer-magic", &s, "missing trailer (store not closed?)");
}

#[test]
fn store_torn_trailer_is_rejected() {
    // Cutting into the trailer shifts the magic out of place.
    let s = PRISTINE;
    let torn = &s[..s.len() - 5];
    let (err, _) = open_corrupt("torn", torn);
    assert!(matches!(err, StoreError::Corrupt(_)));
}

#[test]
fn store_index_offset_outside_file() {
    let mut s = PRISTINE.to_vec();
    let at = s.len() - TRAILER_LEN;
    s[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_corrupt("index-offset", &s, "index offset outside data region");
}

#[test]
fn store_index_offset_inside_head() {
    // An offset pointing into the 5-byte head would alias header bytes
    // as index entries.
    let mut s = PRISTINE.to_vec();
    let at = s.len() - TRAILER_LEN;
    s[at..at + 8].copy_from_slice(&2u64.to_le_bytes());
    let (err, _) = open_corrupt("index-in-head", &s);
    assert!(matches!(err, StoreError::Corrupt(_)));
}

#[test]
fn store_entry_count_exceeds_index() {
    // The claimed entry count must fit in the index region before the
    // reader allocates for it — this was the OOM-on-corrupt-trailer bug.
    let mut s = PRISTINE.to_vec();
    let at = s.len() - TRAILER_LEN + 8;
    s[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_corrupt("entry-count", &s, "entry count exceeds index size");
}

#[test]
fn store_entry_range_outside_data_region() {
    // Find the first index entry's container offset field and point it
    // past the index: the entry's byte range leaves the data region.
    let s = PRISTINE;
    let trailer_at = s.len() - TRAILER_LEN;
    let index_offset =
        u64::from_le_bytes(s[trailer_at..trailer_at + 8].try_into().unwrap()) as usize;
    // IndexEntry layout: name_len u16 | step u32 | width u8 | offset u64 | ...
    let name_len = u16::from_le_bytes(s[index_offset..index_offset + 2].try_into().unwrap());
    let offset_at = index_offset + 2 + name_len as usize + 4 + 1;
    let mut bad = s.to_vec();
    bad[offset_at..offset_at + 8].copy_from_slice(&(s.len() as u64).to_le_bytes());
    // The tamper rewrites index bytes, so the index checksum catches it
    // first under the default verifying open…
    let (err, _) = open_corrupt("entry-range", &bad);
    assert!(err.is_checksum_mismatch(), "got {err:?}");
    // …and the structural range check still catches it when
    // verification is off.
    let dir = TestDir::new("entry-range-noverify");
    let path = dir.join("store.isst");
    std::fs::write(&path, &bad).expect("write specimen");
    let err = StoreReader::open_with_verify(&path, false)
        .expect_err("range check is structural, not checksum-dependent");
    assert!(
        matches!(err, StoreError::Corrupt("entry range outside data region")),
        "got {err:?}"
    );
}

#[test]
fn store_index_bit_flip_fails_index_checksum() {
    // One flipped bit anywhere in the index region must be caught by
    // the trailer's index checksum before any entry drives a seek.
    let s = PRISTINE;
    let trailer_at = s.len() - TRAILER_LEN;
    let index_offset = u64::from_le_bytes(s[trailer_at..trailer_at + 8].try_into().unwrap());
    let mut bad = s.to_vec();
    bad[index_offset as usize + 7] ^= 0x04;
    let (err, rejected) = open_corrupt("index-bit-flip", &bad);
    match err {
        StoreError::ChecksumMismatch { offset, .. } => assert_eq!(offset, index_offset),
        other => panic!("expected index checksum mismatch, got {other:?}"),
    }
    if ENABLED {
        assert_eq!(rejected, 1, "rejection must bump the telemetry counter");
    }
}

#[test]
fn store_corrupt_variable_payload_counts_rejection() {
    // A store that opens fine but whose record bytes were damaged must
    // surface the embedded container's typed error through `get` and
    // bump the store-side rejection counter.
    let s = PRISTINE;
    let dir = TestDir::new("payload");
    let path = dir.join("store.isst");
    std::fs::write(&path, s).expect("write specimen");
    // Locate the first variable's container through the intact index
    // and stomp its magic byte.
    let offset = {
        let reader = StoreReader::open(&path).expect("index is intact");
        reader.entry(0, "u").expect("entry exists").offset
    };
    let mut damaged = s.to_vec();
    damaged[offset as usize] = b'X';
    std::fs::write(&path, &damaged).expect("rewrite specimen");
    let reader = StoreReader::open(&path).expect("index is intact");
    let mut recorder = Recorder::new();
    let err = reader
        .get_recorded(0, "u", &mut recorder)
        .expect_err("damaged payload must be rejected");
    // The per-entry container checksum catches the damage before the
    // decoder ever parses the container.
    assert!(err.is_checksum_mismatch(), "got {err:?}");
    if ENABLED {
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter(Counter::StoreCorruptRejected), 1);
        assert_eq!(snapshot.counter(Counter::ChecksumMismatches), 1);
    }
    // With verification off the damage falls through to the embedded
    // container decoder, which rejects it structurally.
    let reader = StoreReader::open_with_verify(&path, false).expect("index is intact");
    let err = reader
        .get(0, "u")
        .expect_err("decoder still rejects the stomped magic");
    assert!(matches!(err, StoreError::Isobar(_)), "got {err:?}");
}

#[test]
fn intact_store_round_trips() {
    assert_eq!(
        xxh64(PRISTINE, 0),
        0x5c23_f4df_7922_5542,
        "fixture bytes changed"
    );
    let dir = TestDir::new("roundtrip");
    let path = dir.join("store.isst");
    std::fs::write(&path, PRISTINE).expect("write");
    let reader = StoreReader::open(&path).expect("pristine store opens");
    assert_eq!(reader.get(0, "u").expect("u decodes"), demo_data(700));
    assert_eq!(reader.get(1, "v").expect("v decodes"), demo_data(700));
}
