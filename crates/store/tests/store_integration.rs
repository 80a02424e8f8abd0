//! Integration tests for the checkpoint store: a simulated multi-step,
//! multi-variable run written in-situ and restored variable by
//! variable, plus the read-only single-file (version-2) format that
//! earlier releases wrote, read back from a committed fixture.

mod common;

use common::TestDir;
use isobar::{EupaSelector, IsobarOptions, Preference};
use isobar_codecs::xxhash::xxh64;
use isobar_datasets::catalog;
use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreError, StoreReader, VERSION};

/// A version-2 single-file store written by an earlier release (see
/// [`v2_demo_entries`] for its contents).
const V2_DEMO: &[u8] = include_bytes!("fixtures/v2_demo.isst");

fn options() -> IsobarOptions {
    IsobarOptions {
        preference: Preference::Speed,
        chunk_elements: 20_000,
        eupa: EupaSelector {
            sample_elements: 1024,
            sample_blocks: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A fresh version-3 store in a test directory of its own.
fn create(name: &str) -> (TestDir, ShardedStoreWriter) {
    let dir = TestDir::new(name);
    let writer = ShardedStoreWriter::create(
        &dir,
        options(),
        ShardedOptions {
            shards: 2,
            queue_depth: 2,
        },
    )
    .unwrap();
    (dir, writer)
}

fn payload(len: usize, phase: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (((i as u64).wrapping_mul(2654435761) >> (phase % 13)) & 0xFF) as u8)
        .collect()
}

/// What `fixtures/v2_demo.isst` holds, regenerated: two width-8
/// variables at step 0, and a width-1 variable at step 3 whose payload
/// carries two false `"ISBR"` container anchors for the salvage walk.
fn v2_demo_entries() -> Vec<(u32, &'static str, u8, Vec<u8>)> {
    let mut tricky = payload(16 * 1024, 3);
    tricky[4096..4100].copy_from_slice(b"ISBR");
    tricky[8192..8196].copy_from_slice(b"ISBR");
    vec![
        (0, "density", 8, payload(16 * 1024, 1)),
        (0, "potential", 8, payload(16 * 1024, 7)),
        (3, "tricky", 1, tricky),
    ]
}

#[test]
fn v2_demo_fixture_is_pinned_and_decodes_bit_exactly() {
    assert_eq!(
        xxh64(V2_DEMO, 0),
        0x63a9_7c20_79ba_c3d4,
        "fixture bytes changed"
    );
    let dir = TestDir::new("v2-demo");
    let path = dir.join("store.isst");
    std::fs::write(&path, V2_DEMO).unwrap();
    let reader = StoreReader::open(&path).unwrap();
    assert_eq!(reader.version(), VERSION);
    let expected = v2_demo_entries();
    assert_eq!(reader.entries().len(), expected.len());
    for (entry, (step, name, width, data)) in reader.entries().iter().zip(&expected) {
        assert_eq!((entry.step, entry.name.as_str()), (*step, *name));
        assert_eq!(entry.width, *width);
        assert_eq!(entry.raw_len, data.len() as u64);
        assert_eq!(&reader.get(*step, name).unwrap(), data, "{name}@{step}");
    }
    assert!(matches!(
        reader.get(1, "density"),
        Err(StoreError::NotFound { .. })
    ));
}

#[test]
fn checkpoint_run_round_trips_every_variable() {
    let variables = ["zion", "zeon", "phi"];
    let steps = 4u32;
    let spec = catalog::spec("gts_chkp_zion").unwrap();

    let (dir, writer) = create("run");
    let mut originals = Vec::new();
    for step in 0..steps {
        for (v, name) in variables.iter().enumerate() {
            let ds = spec.generate(25_000, (step as u64) << 8 | v as u64);
            writer.put(step, name, ds.bytes.clone(), 8).unwrap();
            originals.push((step, *name, ds.bytes));
        }
    }
    let report = writer.close().unwrap();
    assert_eq!(report.new_entries.len(), (steps as usize) * variables.len());
    for (entry, (_, _, bytes)) in report.new_entries.iter().zip(&originals) {
        assert_eq!(entry.raw_len as usize, bytes.len());
        assert!(entry.container_len < entry.raw_len, "compression happened");
    }

    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(reader.steps(), vec![0, 1, 2, 3]);
    assert_eq!(reader.variables(), variables.to_vec());
    assert!(reader.overall_ratio() > 1.0);

    // Random access in arbitrary order.
    for (step, name, bytes) in originals.iter().rev() {
        assert_eq!(&reader.get(*step, name).unwrap(), bytes, "{name}@{step}");
    }
}

#[test]
fn mixed_widths_per_variable() {
    let doubles = catalog::spec("flash_velx").unwrap().generate(20_000, 1);
    let floats = catalog::spec("s3d_temp").unwrap().generate(20_000, 2);
    let (dir, writer) = create("widths");
    writer.put(0, "velx", doubles.bytes.clone(), 8).unwrap();
    writer.put(0, "temp", floats.bytes.clone(), 4).unwrap();
    writer.close().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(reader.entry(0, "velx").unwrap().width, 8);
    assert_eq!(reader.entry(0, "temp").unwrap().width, 4);
    assert_eq!(reader.get(0, "velx").unwrap(), doubles.bytes);
    assert_eq!(reader.get(0, "temp").unwrap(), floats.bytes);
}

#[test]
fn missing_variables_are_not_found() {
    let (dir, writer) = create("missing");
    writer.put(0, "present", vec![0u8; 80], 8).unwrap();
    writer.close().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(matches!(
        reader.get(0, "absent"),
        Err(StoreError::NotFound { .. })
    ));
    assert!(matches!(
        reader.get(9, "present"),
        Err(StoreError::NotFound { .. })
    ));
}

#[test]
fn unclosed_store_is_rejected() {
    let (dir, writer) = create("unclosed");
    writer.put(0, "x", vec![1u8; 800], 8).unwrap();
    // Dropped without close(): the manifest swap never ran, so there
    // is no committed store and the reader refuses.
    drop(writer);
    assert!(matches!(
        StoreReader::open(&dir),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn truncated_store_is_rejected() {
    let dir = TestDir::new("trunc");
    for cut in [0usize, 4, V2_DEMO.len() / 2, V2_DEMO.len() - 1] {
        let cut_path = dir.join(format!("trunc-{cut}.isst"));
        std::fs::write(&cut_path, &V2_DEMO[..cut]).unwrap();
        assert!(StoreReader::open(&cut_path).is_err(), "cut {cut}");
    }
}

#[test]
fn empty_store_round_trips() {
    let (dir, writer) = create("empty");
    writer.close().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.entries().is_empty());
    assert!(reader.steps().is_empty());
    assert_eq!(reader.overall_ratio(), 1.0);
}

#[test]
fn store_telemetry_accounts_for_every_byte() {
    use isobar::telemetry::{Counter, ENABLED};

    let ds = catalog::spec("gts_chkp_zion").unwrap().generate(25_000, 7);
    let (_dir, writer) = create("telemetry");
    writer.put(0, "zion", ds.bytes.clone(), 8).unwrap();
    writer.put(1, "zion", ds.bytes.clone(), 8).unwrap();
    let report = writer.close().unwrap();
    let snap = report.telemetry;

    if !ENABLED {
        assert!(snap.is_empty());
        return;
    }

    let container_bytes: u64 = report.new_entries.iter().map(|e| e.container_len).sum();
    assert_eq!(snap.counter(Counter::StorePuts), 2);
    assert_eq!(
        snap.counter(Counter::StoreRawBytes),
        2 * ds.bytes.len() as u64
    );
    assert_eq!(snap.counter(Counter::StoreContainerBytes), container_bytes);
    assert!(snap.counter(Counter::StoreManifestBytes) > 0);
    // The underlying pipeline telemetry rides along.
    assert_eq!(snap.counter(Counter::EupaRuns), 2);
    assert!(snap.counter(Counter::AnalyzerBytes) >= 2 * ds.bytes.len() as u64);
}

#[test]
fn reader_is_shareable_across_threads() {
    let ds = catalog::spec("gts_phi_l").unwrap().generate(20_000, 3);
    let (dir, writer) = create("threads");
    for step in 0..4u32 {
        writer.put(step, "phi", ds.bytes.clone(), 8).unwrap();
    }
    writer.close().unwrap();
    let reader = std::sync::Arc::new(StoreReader::open(&dir).unwrap());
    let handles: Vec<_> = (0..4u32)
        .map(|step| {
            let reader = reader.clone();
            let want = ds.bytes.clone();
            std::thread::spawn(move || {
                assert_eq!(reader.get(step, "phi").unwrap(), want);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
