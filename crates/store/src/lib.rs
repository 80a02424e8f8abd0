#![warn(missing_docs)]

//! In-situ checkpoint store built on ISOBAR-compress.
//!
//! The paper motivates ISOBAR with checkpoint/restart pipelines: a
//! simulation periodically dumps named variables (density, potential,
//! particle phase, …) and must write them faster than the file system
//! can absorb raw data — losslessly, because a perturbed restart
//! diverges. This crate provides the minimal storage substrate that
//! workflow needs, in the spirit of the ADIOS ecosystem the paper's
//! authors work in:
//!
//! * [`ShardedStoreWriter`] — the only store writer. It appends
//!   variables step by step into a version-3 store *directory*: N
//!   independent segment pipelines (codec thread + I/O thread each, so
//!   compression overlaps `fdatasync`), committed crash-consistently by
//!   a two-phase manifest rename (see the [`ShardedStoreWriter`] docs).
//! * [`StoreReader`] — random access by `(step, variable)` without
//!   touching unrelated data, via a checksummed index. Reads version-3
//!   directories with positioned reads (`pread`) and the single-file
//!   version-1/2 stores earlier releases wrote. Integrity verification
//!   is on by default.
//! * [`fsck_store`] / [`salvage_store`] — damage reporting and
//!   best-effort recovery of intact records from a damaged store of any
//!   version, always into a fresh version-3 store.
//! * [`compact_store`] — reclaim superseded entries and sweep
//!   unreferenced segment files from a version-3 store.
//!
//! # Single-file format (versions 1 and 2; read-only, all little-endian)
//!
//! ```text
//! magic "ISST" | version u8            (2, or 1 for legacy)
//! repeated records:
//!   name_len u16 | name bytes | step u32 | width u8 |
//!   container_len u64 | ISOBAR container
//! index (written at close):
//!   per entry: name_len u16 | name | step u32 | width u8 |
//!              offset u64 | container_len u64 | raw_len u64 |
//!              container_xxh64 u64            (v2 only)
//! trailer: index_offset u64 | entry_count u32 |
//!          index_xxh64 u64 |                  (v2 only)
//!          magic "ISSX"
//! ```
//!
//! Releases before the sharded store wrote these files; this crate
//! only reads them (and `isobar store migrate` lifts them to version
//! 3). Version-1 stores (no checksums, 16-byte trailer) are still read;
//! their entries surface `checksum == 0` and are reported by fsck as
//! "legacy, unverifiable".
//!
//! # Directory format (version 3)
//!
//! A version-3 store is a *directory*: a `MANIFEST` file (magic
//! `"ISSM"`) holding the segment table and the full index, plus one or
//! more segment files `g<generation>-s<shard>.seg` (magic `"ISSG"`)
//! each carrying the same record grammar as above behind an 8-byte
//! header and ahead of a checksummed 24-byte trailer. Writers append a
//! *generation*: new segments plus a rewritten manifest, committed by
//! the atomic rename of `MANIFEST.wip` over `MANIFEST`. Duplicate
//! `(step, variable)` pairs are allowed across generations — the
//! latest wins, and [`compact_store`] reclaims the shadowed versions.
//! See `docs/FORMAT.md` for the byte-level grammar.
//!
//! # Example
//!
//! ```no_run
//! use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreReader};
//! use isobar::{IsobarOptions, Preference};
//!
//! # fn demo(density: &[u8], potential: &[u8]) -> Result<(), isobar_store::StoreError> {
//! let writer = ShardedStoreWriter::create(
//!     "run.isst.d",
//!     IsobarOptions {
//!         preference: Preference::Speed,
//!         ..Default::default()
//!     },
//!     ShardedOptions::default(),
//! )?;
//! writer.put(0, "density", density.to_vec(), 8)?;
//! writer.put(0, "potential", potential.to_vec(), 8)?;
//! writer.close()?;
//!
//! let reader = StoreReader::open("run.isst.d")?;
//! let restored = reader.get(0, "density")?;
//! assert_eq!(restored, density);
//! # Ok(()) }
//! ```

mod compact;
mod error;
mod format;
mod manifest;
mod reader;
mod salvage;
mod sharded;
mod vfs;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_dir;

pub use compact::{compact_store, compact_store_background, compact_store_recorded, CompactReport};
pub use error::StoreError;
pub use format::{
    entry_checksum, is_segment_file_name, segment_file_name, trailer_len, IndexEntry,
    CHECKSUM_SEED, LEGACY_VERSION, MAGIC, MANIFEST_FILE, MANIFEST_HEADER_LEN, MANIFEST_MAGIC,
    MANIFEST_TRAILER_LEN, MANIFEST_TRAILER_MAGIC, MIN_ENTRY_LEN, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
    SEGMENT_TRAILER_LEN, SEGMENT_TRAILER_MAGIC, TRAILER_LEN, TRAILER_MAGIC, TRAILER_V1_LEN,
    V3_VERSION, VERSION,
};
pub use manifest::{
    decode_segment_header, decode_segment_trailer, encode_segment_header, encode_segment_trailer,
    Manifest, ManifestEntry, SegmentMeta,
};
pub use reader::StoreReader;
pub use salvage::{
    fsck_store, salvage_store, EntryHealth, EntryStatus, StoreFsckReport, StoreSalvageReport,
};
pub use sharded::{ShardedCommitReport, ShardedOptions, ShardedStoreWriter};
pub use vfs::{RealFile, RealFs, StoreFile, StoreFs};
