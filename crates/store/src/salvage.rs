//! Store-level fsck and salvage.
//!
//! A store has two independent failure surfaces: the data region
//! (individual containers) and the index region (the trailer index of a
//! single-file store, the manifest of a directory). Fsck reports both;
//! salvage recovers every intact record it can find into a fresh
//! version-3 store, rebuilding the index from a forward record walk
//! when the original one is unusable.
//!
//! # Resync rules for a lost index
//!
//! Both formats share one record grammar, so one walk serves both; a
//! format only contributes its header length (5 bytes for a single
//! file, 8 for a segment) and its file list. The walk itself is the
//! shared [`isobar::salvage::resync_walk`]; this module supplies the
//! anchor test. Each record embeds an ISOBAR container, whose `"ISBR"`
//! magic acts as an anchor. For a
//! magic at file position `m`, the record header ends exactly at `m`,
//! so its start is `m - 15 - name_len`; the walk tries every
//! `name_len` whose length prefix at that start agrees, then demands a
//! UTF-8 name, a plausible element width, and a container length that
//! fits in the file. Accepted candidates are confirmed by a strict
//! (verifying) decompress — a false anchor has to forge the container
//! checksums to survive, so misidentified records do not reach the
//! salvaged output.

use crate::error::StoreError;
use crate::format::{
    entry_checksum, is_segment_file_name, IndexEntry, LEGACY_VERSION, MAGIC, MANIFEST_FILE,
    SEGMENT_HEADER_LEN, V3_VERSION,
};
use crate::manifest::Manifest;
use crate::reader::StoreReader;
use crate::sharded::{ShardedOptions, ShardedStoreWriter};
use isobar::salvage::{resync_walk, Walked};
use isobar::{IsobarCompressor, IsobarOptions};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::Read as _;
use std::path::Path;

/// Verification outcome for one store entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryHealth {
    /// The entry's bytes match an embedded checksum (the version-2
    /// index checksum, or the container's own chunk checksums).
    Verified,
    /// Structurally sound, but neither the store index nor the
    /// container carries checksums — a pre-checksum legacy record.
    LegacyUnverifiable,
    /// The entry's bytes contradict a checksum or fail structural
    /// validation.
    Damaged,
}

/// Fsck status of one store entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryStatus {
    /// Simulation time step.
    pub step: u32,
    /// Variable name.
    pub name: String,
    /// File offset of the entry's container.
    pub offset: u64,
    /// Verification outcome.
    pub health: EntryHealth,
}

/// What [`fsck_store`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFsckReport {
    /// Store format version (1, 2, or 3).
    pub version: u8,
    /// Whether the index region (or, for version 3, the manifest)
    /// itself is damaged or unreadable. When true, `entries` may be
    /// empty even though data records exist.
    pub index_damaged: bool,
    /// Per-entry status, in index order.
    pub entries: Vec<EntryStatus>,
    /// Whether any part of the store predates embedded checksums.
    pub legacy: bool,
    /// Version 3 only: segment-shaped files in the store directory
    /// (including `.wip` journals) that the manifest does not
    /// reference — droppings of a crashed or in-flight writer.
    /// Harmless; compaction sweeps them.
    pub orphan_files: usize,
    /// Version 3 only: entries shadowed by a later put of the same
    /// `(step, variable)`. Dead weight, reclaimed by compaction.
    pub superseded_entries: usize,
}

impl StoreFsckReport {
    /// True when the index is intact and no entry is damaged. Legacy
    /// (unverifiable) entries do not make a store unclean — they are
    /// structurally sound, merely unprovable.
    pub fn is_clean(&self) -> bool {
        !self.index_damaged
            && self
                .entries
                .iter()
                .all(|e| e.health != EntryHealth::Damaged)
    }

    /// Number of entries that failed verification.
    pub fn damaged_entries(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.health == EntryHealth::Damaged)
            .count()
    }
}

/// What [`salvage_store`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSalvageReport {
    /// Records copied intact into the output store.
    pub entries_recovered: usize,
    /// Records that could not be recovered.
    pub entries_lost: usize,
    /// Whether the index was rebuilt from a forward record walk
    /// because the original was unusable.
    pub index_rebuilt: bool,
}

impl StoreSalvageReport {
    /// True when nothing was lost.
    pub fn is_complete(&self) -> bool {
        self.entries_lost == 0
    }
}

/// Health of one container according to the strongest available
/// evidence: the version-2 index checksum when the store carries one,
/// otherwise the container's own embedded checksums via
/// [`isobar::salvage::fsck_container`].
fn container_health(version: u8, entry: &IndexEntry, container: &[u8]) -> EntryHealth {
    if version >= 2 {
        return if entry_checksum(container) == entry.checksum {
            EntryHealth::Verified
        } else {
            EntryHealth::Damaged
        };
    }
    match isobar::salvage::fsck_container(container) {
        Ok(report) if report.is_clean() => {
            if report.legacy {
                EntryHealth::LegacyUnverifiable
            } else {
                EntryHealth::Verified
            }
        }
        _ => EntryHealth::Damaged,
    }
}

/// Walk a store and verify every entry without decompressing payloads.
/// A directory is checked as a version-3 sharded store, a file as a
/// single-file store.
///
/// Never fails on damage — damage is the report's content. Errors are
/// reserved for I/O failures and files that are not stores at all.
pub fn fsck_store(path: impl AsRef<Path>) -> Result<StoreFsckReport, StoreError> {
    let path = path.as_ref();
    let (version, orphan_files) = if path.is_dir() {
        (V3_VERSION, count_orphans(path)?)
    } else {
        // A file without the store magic is a usage error, not damage.
        let mut head = [0u8; 5];
        let n = std::fs::File::open(path)?.read(&mut head)?;
        if n < 5 || head[..4] != MAGIC {
            return Err(StoreError::Corrupt("not a store file (bad magic)"));
        }
        (head[4], 0)
    };
    let opened = match StoreReader::open(path) {
        Ok(reader) => Some((reader, false)),
        Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
        // Index or manifest checksum mismatch, or structural damage:
        // retry without verification to enumerate what we still can.
        Err(_) => StoreReader::open_with_verify(path, false)
            .ok()
            .map(|reader| (reader, true)),
    };
    let mut report = match opened {
        Some((reader, index_damaged)) => {
            let mut report = fsck_entries(version, index_damaged, &reader)?;
            if version == V3_VERSION {
                report.superseded_entries = reader.superseded_count();
            }
            report
        }
        None => StoreFsckReport {
            version,
            index_damaged: true,
            entries: Vec::new(),
            legacy: version == LEGACY_VERSION,
            orphan_files: 0,
            superseded_entries: 0,
        },
    };
    report.orphan_files = orphan_files;
    Ok(report)
}

/// Segment-shaped files in `dir` (counting `.wip` journals) that its
/// manifest does not name. When the manifest cannot be decoded at all,
/// every segment file is unreferenced (and recoverable only by the
/// salvage walk).
fn count_orphans(dir: &Path) -> Result<usize, StoreError> {
    let referenced: HashSet<String> = match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => Manifest::decode(&bytes, false)
            .map(|m| m.segments.into_iter().map(|s| s.file_name).collect())
            .unwrap_or_default(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashSet::new(),
        Err(e) => return Err(e.into()),
    };
    let mut orphans = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let stem = name.strip_suffix(".wip").unwrap_or(name);
        if is_segment_file_name(stem) && !referenced.contains(name) {
            orphans += 1;
        }
    }
    Ok(orphans)
}

fn fsck_entries(
    version: u8,
    index_damaged: bool,
    reader: &StoreReader,
) -> Result<StoreFsckReport, StoreError> {
    let mut entries = Vec::with_capacity(reader.entries().len());
    let mut legacy = version == LEGACY_VERSION;
    for entry in reader.entries() {
        let health = match reader.get_container(entry) {
            Ok(container) => container_health(version, entry, &container),
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(_) => EntryHealth::Damaged,
        };
        legacy |= health == EntryHealth::LegacyUnverifiable;
        entries.push(EntryStatus {
            step: entry.step,
            name: entry.name.clone(),
            offset: entry.offset,
            health,
        });
    }
    Ok(StoreFsckReport {
        version,
        index_damaged,
        entries,
        legacy,
        orphan_files: 0,
        superseded_entries: 0,
    })
}

/// Copy every recoverable record of the store at `input` (a version-3
/// directory or a version-1/2 file) into a fresh single-shard
/// version-3 store at `output`.
///
/// With a usable index, intact containers are copied byte-for-byte (no
/// decompress/recompress round trip). When the live version of a
/// `(step, variable)` is damaged, older superseded versions of the same
/// key are tried newest-first — a version-3 supersede history doubles
/// as a recovery ladder. A single-file store's index is usable only if
/// it verifies; a directory's manifest only has to decode.
///
/// With an unusable index, records are rediscovered by the forward
/// walk described in the module docs — over the single file, or over
/// every segment file of a directory (including `.wip` journals of a
/// crashed writer) in generation order. Each candidate must survive a
/// strict verifying decompress before it is admitted, and the newest
/// surviving version of each key wins. The output is always a
/// complete, current-version store — opening it verifies clean.
pub fn salvage_store(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
) -> Result<StoreSalvageReport, StoreError> {
    let input = input.as_ref();
    let reader = if input.is_dir() {
        StoreReader::open_with_verify(input, false).ok()
    } else if fsck_store(input)?.index_damaged {
        None
    } else {
        Some(StoreReader::open_with_verify(input, false)?)
    };
    let writer = ShardedStoreWriter::create(
        output,
        IsobarOptions::default(),
        ShardedOptions {
            shards: 1,
            ..Default::default()
        },
    )?;
    let report = match reader {
        Some(reader) => copy_indexed(&reader, &writer)?,
        None => walk_records(input, &writer)?,
    };
    writer.close()?;
    Ok(report)
}

/// Copy the newest intact version of every key `reader` indexes.
fn copy_indexed(
    reader: &StoreReader,
    writer: &ShardedStoreWriter,
) -> Result<StoreSalvageReport, StoreError> {
    // Group index positions by key; index order is put order, so the
    // last position of a key is its live version.
    let mut order: Vec<(u32, String)> = Vec::new();
    let mut versions: HashMap<(u32, String), Vec<usize>> = HashMap::new();
    for (at, entry) in reader.entries().iter().enumerate() {
        let key = (entry.step, entry.name.clone());
        match versions.entry(key.clone()) {
            Entry::Occupied(mut o) => o.get_mut().push(at),
            Entry::Vacant(v) => {
                v.insert(vec![at]);
                order.push(key);
            }
        }
    }
    let mut recovered = 0usize;
    for key in &order {
        for &at in versions[key].iter().rev() {
            let entry = &reader.entries()[at];
            let container = match reader.get_container(entry) {
                Ok(c) => c,
                Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                Err(_) => continue,
            };
            if container_health(reader.version(), entry, &container) == EntryHealth::Damaged {
                continue;
            }
            writer.put_container(
                entry.step,
                &entry.name,
                entry.width,
                container,
                entry.raw_len,
            )?;
            recovered += 1;
            break;
        }
    }
    Ok(StoreSalvageReport {
        entries_recovered: recovered,
        entries_lost: order.len() - recovered,
        index_rebuilt: false,
    })
}

/// Rediscover records without an index: walk the single store file
/// past its head, or every segment-shaped file of a directory past its
/// header, in name order (names sort by generation).
fn walk_records(
    input: &Path,
    writer: &ShardedStoreWriter,
) -> Result<StoreSalvageReport, StoreError> {
    let (files, head_len) = if input.is_dir() {
        let mut files = Vec::new();
        for dirent in std::fs::read_dir(input)? {
            let path = dirent?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if is_segment_file_name(name.strip_suffix(".wip").unwrap_or(name)) {
                files.push(path);
            }
        }
        files.sort();
        (files, SEGMENT_HEADER_LEN)
    } else {
        (vec![input.to_path_buf()], MAGIC.len() + 1)
    };

    let verifier = IsobarCompressor::new(IsobarOptions {
        verify: true,
        ..Default::default()
    });
    struct Found {
        step: u32,
        name: String,
        width: u8,
        container: Vec<u8>,
        raw_len: u64,
    }
    // One slot per key, in first-appearance order; a later version of
    // the key (a later generation, or later in put order) overwrites it.
    let mut found: Vec<Found> = Vec::new();
    let mut slot: HashMap<(u32, String), usize> = HashMap::new();
    let mut lost = 0usize;
    for file in &files {
        let data = std::fs::read(file)?;
        // `ISBR` cannot overlap itself, so byte-wise probing meets the
        // same anchors a magic search would.
        let try_at = |m: usize| {
            if !data[m..].starts_with(&isobar::container::MAGIC) {
                return None;
            }
            let record = record_at(&data, head_len, m)?;
            let end = m + record.container_len;
            match verifier.decompress(&data[m..end]) {
                Ok(raw) => Some(((record, raw.len() as u64), end)),
                Err(_) => {
                    lost += 1;
                    None
                }
            }
        };
        resync_walk(&data, head_len, try_at, |walked| {
            let Walked::Item {
                offset,
                item: (record, raw_len),
            } = walked
            else {
                return;
            };
            let version = Found {
                step: record.step,
                name: record.name.to_string(),
                width: record.width,
                container: data[offset..offset + record.container_len].to_vec(),
                raw_len,
            };
            match slot.entry((record.step, version.name.clone())) {
                Entry::Occupied(o) => found[*o.get()] = version,
                Entry::Vacant(v) => {
                    v.insert(found.len());
                    found.push(version);
                }
            }
        });
    }
    let recovered = found.len();
    for f in found {
        writer.put_container(f.step, &f.name, f.width, f.container, f.raw_len)?;
    }
    Ok(StoreSalvageReport {
        entries_recovered: recovered,
        entries_lost: lost,
        index_rebuilt: true,
    })
}

struct WalkRecord<'a> {
    step: u32,
    name: &'a str,
    width: u8,
    container_len: usize,
}

/// Try to interpret the container magic at `m` as the payload of a
/// store record, reconstructing the record header that precedes it.
fn record_at(data: &[u8], head_len: usize, m: usize) -> Option<WalkRecord<'_>> {
    // Fixed header tail between the name and the container:
    // step u32 | width u8 | container_len u64.
    const TAIL: usize = 4 + 1 + 8;
    let max_name = m.checked_sub(head_len + 2 + TAIL)?;
    for name_len in 0..=max_name.min(u16::MAX as usize) {
        let start = m - TAIL - name_len - 2;
        let claimed = u16::from_le_bytes(data[start..start + 2].try_into().ok()?) as usize;
        if claimed != name_len {
            continue;
        }
        let name = match std::str::from_utf8(&data[start + 2..start + 2 + name_len]) {
            Ok(n) => n,
            Err(_) => continue,
        };
        let tail = &data[start + 2 + name_len..m];
        let step = u32::from_le_bytes(tail[..4].try_into().ok()?);
        let width = tail[4];
        let container_len = u64::from_le_bytes(tail[5..13].try_into().ok()?);
        if width == 0 || width > 64 {
            continue;
        }
        if container_len == 0 || (m as u64).checked_add(container_len)? > data.len() as u64 {
            continue;
        }
        return Some(WalkRecord {
            step,
            name,
            width,
            container_len: container_len as usize,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{CHECKSUM_SEED, TRAILER_LEN};
    use crate::test_dir::TestDir;
    use isobar_codecs::xxhash::xxh64;

    fn payload(len: usize, phase: u64) -> Vec<u8> {
        (0..len)
            .map(|i| (((i as u64).wrapping_mul(2654435761) >> (phase % 13)) & 0xFF) as u8)
            .collect()
    }

    /// A version-2 store written by an earlier release: `density` and
    /// `potential` at step 0, and at step 3 a width-1 `tricky` variable
    /// whose payload contains two false `"ISBR"` anchors. Pinned and
    /// decoded bit-exactly by `tests/store_integration.rs`.
    const V2_DEMO: &[u8] = include_bytes!("../tests/fixtures/v2_demo.isst");

    fn tricky() -> Vec<u8> {
        let mut data = payload(16 * 1024, 3);
        data[4096..4100].copy_from_slice(b"ISBR");
        data[8192..8196].copy_from_slice(b"ISBR");
        data
    }

    /// The fixture's entries with their regenerated payloads.
    fn demo_entries() -> Vec<(u32, &'static str, Vec<u8>)> {
        vec![
            (0, "density", payload(16 * 1024, 1)),
            (0, "potential", payload(16 * 1024, 7)),
            (3, "tricky", tricky()),
        ]
    }

    fn index_offset(bytes: &[u8]) -> usize {
        let trailer_at = bytes.len() - TRAILER_LEN;
        u64::from_le_bytes(bytes[trailer_at..trailer_at + 8].try_into().unwrap()) as usize
    }

    /// `out` must be a version-3 directory that fscks clean and serves
    /// exactly `expected`.
    fn assert_clean_v3(out: &Path, expected: &[(u32, &str, Vec<u8>)]) {
        assert!(out.is_dir(), "salvage output is a version-3 directory");
        let report = fsck_store(out).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.version, V3_VERSION);
        let restored = StoreReader::open(out).unwrap();
        assert_eq!(
            restored.entries().len(),
            expected.len(),
            "no phantom records"
        );
        for (step, name, data) in expected {
            assert_eq!(&restored.get(*step, name).unwrap(), data, "{name}@{step}");
        }
    }

    #[test]
    fn clean_store_fscks_clean() {
        let scratch = TestDir::new("clean");
        let path = scratch.join("store.isst");
        std::fs::write(&path, V2_DEMO).unwrap();
        let report = fsck_store(&path).unwrap();
        assert!(report.is_clean());
        assert!(!report.legacy);
        assert_eq!(report.version, crate::format::VERSION);
        assert_eq!(report.entries.len(), 3);
        assert!(report
            .entries
            .iter()
            .all(|e| e.health == EntryHealth::Verified));
    }

    #[test]
    fn container_damage_is_reported_and_salvaged_around() {
        let scratch = TestDir::new("damaged");
        let path = scratch.join("store.isst");
        let out = scratch.join("salvaged");
        let mut entries = demo_entries();

        // Flip one byte in the middle of the first entry's container.
        std::fs::write(&path, V2_DEMO).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        let victim = reader.entries()[0].clone();
        let survivor = reader.entries()[1].clone();
        drop(reader);
        let mut bytes = V2_DEMO.to_vec();
        let hit = (victim.offset + victim.container_len / 2) as usize;
        bytes[hit] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let report = fsck_store(&path).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.damaged_entries(), 1);
        assert_eq!(report.entries[0].health, EntryHealth::Damaged);
        assert_eq!(report.entries[1].health, EntryHealth::Verified);

        // The verifying reader refuses the damaged entry…
        let reader = StoreReader::open(&path).unwrap();
        let err = reader.get(victim.step, &victim.name).unwrap_err();
        assert!(err.is_checksum_mismatch(), "got {err}");
        // …but still serves the intact one.
        assert_eq!(
            reader.get(survivor.step, &survivor.name).unwrap(),
            entries[1].2
        );
        drop(reader);

        let salvage = salvage_store(&path, &out).unwrap();
        assert_eq!(salvage.entries_recovered, 2);
        assert_eq!(salvage.entries_lost, 1);
        assert!(!salvage.index_rebuilt);
        entries.remove(0);
        assert_clean_v3(&out, &entries);
    }

    #[test]
    fn index_damage_triggers_record_walk_rebuild() {
        let scratch = TestDir::new("badindex");
        let path = scratch.join("store.isst");
        let out = scratch.join("salvaged");

        // Flip a byte inside the first index entry's name.
        let mut bytes = V2_DEMO.to_vec();
        let at = index_offset(&bytes) + 3;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // Default (verifying) open refuses the store outright.
        let err = StoreReader::open(&path).unwrap_err();
        assert!(err.is_checksum_mismatch(), "got {err}");

        let report = fsck_store(&path).unwrap();
        assert!(!report.is_clean());

        let salvage = salvage_store(&path, &out).unwrap();
        assert!(salvage.index_rebuilt);
        assert_eq!(salvage.entries_recovered, 3);
        assert!(salvage.is_complete());
        assert_clean_v3(&out, &demo_entries());
    }

    #[test]
    fn index_checksum_damage_is_a_checksum_mismatch_at_index_offset() {
        let scratch = TestDir::new("trailersum");
        let path = scratch.join("store.isst");
        let mut bytes = V2_DEMO.to_vec();
        let index_offset = index_offset(&bytes) as u64;
        // Corrupt the stored index checksum itself.
        let trailer_at = bytes.len() - TRAILER_LEN;
        bytes[trailer_at + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match StoreReader::open(&path).unwrap_err() {
            StoreError::ChecksumMismatch { offset, .. } => assert_eq!(offset, index_offset),
            other => panic!("expected checksum mismatch, got {other}"),
        }
        // Verification off trusts structure and still opens.
        assert!(StoreReader::open_with_verify(&path, false).is_ok());
    }

    #[test]
    fn record_walk_ignores_false_anchors() {
        // A container whose *payload* happens to contain the bytes
        // "ISBR" must not yield a phantom record: the reconstructed
        // header will not parse into a record whose container passes a
        // verifying decompress.
        let scratch = TestDir::new("falseanchor");
        let path = scratch.join("store.isst");
        let out = scratch.join("salvaged");

        // Break the index so salvage must walk records.
        let mut bytes = V2_DEMO.to_vec();
        let at = index_offset(&bytes);
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let salvage = salvage_store(&path, &out).unwrap();
        assert!(salvage.index_rebuilt);
        assert_eq!(salvage.entries_recovered, 3);
        assert_eq!(salvage.entries_lost, 0);
        let restored = StoreReader::open(&out).unwrap();
        assert_eq!(restored.get(3, "tricky").unwrap(), tricky());
        assert_clean_v3(&out, &demo_entries());
    }

    #[test]
    fn entry_checksum_matches_format_helper() {
        let container = b"arbitrary container stand-in";
        assert_eq!(entry_checksum(container), xxh64(container, CHECKSUM_SEED));
    }

    fn write_demo_v3(dir: &Path, generations: u32) -> Vec<u8> {
        let mut last = Vec::new();
        for g in 0..generations {
            let writer = ShardedStoreWriter::create(
                dir,
                IsobarOptions::default(),
                ShardedOptions {
                    shards: 2,
                    ..Default::default()
                },
            )
            .unwrap();
            let data = payload(16 * 1024, 1 + g as u64);
            writer.put(0, "density", data.clone(), 8).unwrap();
            writer
                .put(0, "potential", payload(16 * 1024, 7 + g as u64), 8)
                .unwrap();
            writer.close().unwrap();
            last = data;
        }
        last
    }

    #[test]
    fn v3_store_fscks_clean_and_counts_supersedes() {
        let dir = TestDir::new("v3-clean");
        write_demo_v3(&dir, 2);
        let report = fsck_store(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.version, V3_VERSION);
        assert_eq!(report.entries.len(), 4, "both generations enumerated");
        assert_eq!(report.superseded_entries, 2);
        assert_eq!(report.orphan_files, 0);
    }

    #[test]
    fn v3_fsck_counts_orphan_droppings() {
        let dir = TestDir::new("v3-orphans");
        write_demo_v3(&dir, 1);
        // A crashed writer's droppings: an unreferenced sealed segment
        // and a torn .wip journal.
        std::fs::write(dir.join("g0000000000000007-s000.seg"), b"ISSGx").unwrap();
        std::fs::write(dir.join("g0000000000000007-s001.seg.wip"), b"IS").unwrap();
        let report = fsck_store(&dir).unwrap();
        assert!(report.is_clean(), "orphans are not damage");
        assert_eq!(report.orphan_files, 2);
    }

    #[test]
    fn v3_salvage_falls_back_to_superseded_version_of_damaged_entry() {
        let scratch = TestDir::new("v3-fallback");
        let dir = scratch.join("store");
        let out = scratch.join("salvaged");
        write_demo_v3(&dir, 2);

        // Damage the *live* (generation-1) version of "density" on
        // disk; the generation-0 version should be salvaged instead.
        let reader = StoreReader::open_with_verify(&dir, false).unwrap();
        let positions: Vec<usize> = reader
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.name == "density")
            .map(|(at, _)| at)
            .collect();
        assert_eq!(positions.len(), 2);
        let live = reader.entries()[*positions.last().unwrap()].clone();
        let live_seg = reader
            .segment_file_name(&reader.entries()[*positions.last().unwrap()])
            .unwrap()
            .to_string();
        let old = reader.entries()[positions[0]].clone();
        drop(reader);
        let seg_path = dir.join(&live_seg);
        let mut bytes = std::fs::read(&seg_path).unwrap();
        bytes[(live.offset + live.container_len / 2) as usize] ^= 0x40;
        std::fs::write(&seg_path, &bytes).unwrap();

        let report = salvage_store(&dir, &out).unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(report.entries_recovered, 2);
        assert!(!report.index_rebuilt);

        let restored = StoreReader::open(&out).unwrap();
        // The salvaged "density" is the generation-0 payload.
        let reader = StoreReader::open_with_verify(&dir, false).unwrap();
        assert_eq!(
            restored.get(0, "density").unwrap(),
            IsobarCompressor::new(IsobarOptions::default())
                .decompress(
                    &reader
                        .get_container(&reader.entries()[positions[0]])
                        .unwrap()
                )
                .unwrap(),
            "fell back to the superseded version at offset {}",
            old.offset
        );
    }

    #[test]
    fn v3_salvage_rebuilds_from_segments_when_manifest_is_gone() {
        let scratch = TestDir::new("v3-nomanifest");
        let dir = scratch.join("store");
        let out = scratch.join("salvaged");
        let newest_density = write_demo_v3(&dir, 2);
        let segment_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .is_some_and(is_segment_file_name)
            })
            .count();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        let report = fsck_store(&dir).unwrap();
        assert!(report.index_damaged);
        assert_eq!(
            report.orphan_files, segment_files,
            "all segments now unreferenced"
        );

        let salvage = salvage_store(&dir, &out).unwrap();
        assert!(salvage.index_rebuilt);
        assert_eq!(salvage.entries_recovered, 2, "one live version per key");
        assert_eq!(salvage.entries_lost, 0);

        let restored = StoreReader::open(&out).unwrap();
        assert_eq!(
            restored.get(0, "density").unwrap(),
            newest_density,
            "newest generation wins the walk"
        );
    }
}
