//! Offset-verified golden test for the version-3 store layout.
//!
//! Parses a real sharded store with the raw offsets documented in
//! `docs/FORMAT.md` — no store code on the read side — so the spec
//! cannot silently drift from what `ShardedStoreWriter` emits.

mod common;

use common::TestDir;
use isobar::IsobarOptions;
use isobar_store::{ShardedOptions, ShardedStoreWriter};

fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(b[at..at + 2].try_into().unwrap())
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

#[test]
fn v3_store_matches_documented_offsets() {
    let dir = TestDir::new("v3-golden-offsets");
    let payload: Vec<u8> = (0..4096u32)
        .flat_map(|i| (i as u64).to_le_bytes())
        .collect();
    let writer = ShardedStoreWriter::create(
        &dir,
        IsobarOptions::default(),
        ShardedOptions {
            shards: 1,
            queue_depth: 1,
        },
    )
    .unwrap();
    writer.put(9, "density", payload.clone(), 8).unwrap();
    let report = writer.close().unwrap();
    assert_eq!(report.generation, 0);
    assert_eq!(report.segments_committed, 1);

    // --- Segment file: g<generation:016x>-s<shard:03>.seg ---
    let seg_name = "g0000000000000000-s000.seg";
    let seg = std::fs::read(dir.join(seg_name)).unwrap();
    // Header: magic "ISSG", version 3, shard u16, reserved zero byte.
    assert_eq!(&seg[0..4], b"ISSG");
    assert_eq!(seg[4], 3);
    assert_eq!(u16_at(&seg, 5), 0);
    assert_eq!(seg[7], 0);
    // First record at offset 8: name_len u16 | name | step u32 |
    // width u8 | container_len u64 | ISBR container.
    assert_eq!(u16_at(&seg, 8), 7); // "density"
    assert_eq!(&seg[10..17], b"density");
    assert_eq!(u32_at(&seg, 17), 9); // step
    assert_eq!(seg[21], 8); // width
    let container_len = u64_at(&seg, 22);
    let container_at = 30;
    assert_eq!(&seg[container_at..container_at + 4], b"ISBR");
    // Trailer (last 24 bytes): data_len u64 | record_count u32 |
    // xxh64 of those 12 bytes | magic "ISGX".
    let trailer_at = seg.len() - 24;
    let data_len = u64_at(&seg, trailer_at);
    assert_eq!(data_len, container_at as u64 + container_len);
    assert_eq!(data_len, trailer_at as u64); // records end where the trailer begins
    assert_eq!(u32_at(&seg, trailer_at + 8), 1); // record_count
    assert_eq!(
        u64_at(&seg, trailer_at + 12),
        isobar_codecs::xxhash::xxh64(&seg[trailer_at..trailer_at + 12], 0)
    );
    assert_eq!(&seg[trailer_at + 20..], b"ISGX");

    // --- Manifest ---
    let man = std::fs::read(dir.join("MANIFEST")).unwrap();
    // Header: magic "ISSM", version 3, three reserved zero bytes,
    // generation u64, segment count u16.
    assert_eq!(&man[0..4], b"ISSM");
    assert_eq!(man[4], 3);
    assert_eq!(&man[5..8], &[0, 0, 0]);
    assert_eq!(u64_at(&man, 8), 0); // generation
    assert_eq!(u16_at(&man, 16), 1); // segment count
                                     // Segment row: name_len u16 | file name | data_len u64 |
                                     // record_count u32.
    let mut pos = 18;
    assert_eq!(u16_at(&man, pos) as usize, seg_name.len());
    pos += 2;
    assert_eq!(&man[pos..pos + seg_name.len()], seg_name.as_bytes());
    pos += seg_name.len();
    assert_eq!(u64_at(&man, pos), data_len);
    pos += 8;
    assert_eq!(u32_at(&man, pos), 1);
    pos += 4;
    // Entry region: count u32, then segment ordinal u16 + v2 index
    // entry (name_len u16 | name | step u32 | width u8 | offset u64 |
    // container_len u64 | raw_len u64 | checksum u64).
    assert_eq!(u32_at(&man, pos), 1);
    pos += 4;
    assert_eq!(u16_at(&man, pos), 0); // segment ordinal
    pos += 2;
    assert_eq!(u16_at(&man, pos), 7);
    pos += 2;
    assert_eq!(&man[pos..pos + 7], b"density");
    pos += 7;
    assert_eq!(u32_at(&man, pos), 9); // step
    pos += 4;
    assert_eq!(man[pos], 8); // width
    pos += 1;
    assert_eq!(u64_at(&man, pos), container_at as u64); // segment-relative offset
    pos += 8;
    assert_eq!(u64_at(&man, pos), container_len);
    pos += 8;
    assert_eq!(u64_at(&man, pos), payload.len() as u64); // raw_len
    pos += 8;
    let container = &seg[container_at..container_at + container_len as usize];
    assert_eq!(
        u64_at(&man, pos),
        isobar_codecs::xxhash::xxh64(container, 0)
    );
    pos += 8;
    // Trailer: xxh64 of every preceding byte + magic "ISMX".
    assert_eq!(pos, man.len() - 12);
    assert_eq!(
        u64_at(&man, pos),
        isobar_codecs::xxhash::xxh64(&man[..pos], 0)
    );
    assert_eq!(&man[man.len() - 4..], b"ISMX");
}
