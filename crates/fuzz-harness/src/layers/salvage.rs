//! The salvage layer: the permissive walkers — container, stream and
//! write-ahead-journal salvage, all on the shared resync walk — under
//! the same fault injection as the strict decoders.

use super::{
    container_pool, mixed_u64, noise, smooth_f64, stream_pool, Artifact, Layer, ALLOC_SCALE,
};
use crate::rng::Rng;
use isobar::container::Header;
use isobar::salvage::{
    fsck_container, fsck_stream, salvage_decompress, salvage_stream_recorded, MAX_FILL_RATIO,
};
use isobar::Recorder;
use isobar_server::wal::{
    encode_record, parse_wal, WalRecord, WAL_HEADER_LEN, WAL_MAGIC, WAL_VERSION,
};

/// Allocation factor for the salvage layer: container salvage may
/// zero-fill up to [`MAX_FILL_RATIO`] bytes per byte of evidence.
const SALVAGE_ALLOC_SCALE: usize = MAX_FILL_RATIO as usize + ALLOC_SCALE;

/// Valid write-ahead journals; each artifact's `original` is its
/// records' payloads, concatenated.
fn wal_pool() -> Vec<Artifact> {
    let mut rng = Rng::new(0x3A1_F00D);
    let mk = |records: Vec<WalRecord>| {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&[WAL_VERSION, 0, 0, 0]);
        for rec in &records {
            bytes.extend_from_slice(&encode_record(rec));
        }
        Artifact {
            bytes,
            original: records.into_iter().flat_map(|r| r.payload).collect(),
        }
    };
    let rec = |tenant: &str, step: u32, name: &str, width: u8, payload: Vec<u8>| WalRecord {
        tenant: tenant.to_string(),
        step,
        name: name.to_string(),
        width,
        payload,
    };
    vec![
        mk(vec![
            rec("", 0, "density", 8, smooth_f64(128)),
            rec("", 1, "density", 8, smooth_f64(96)),
            rec("", 1, "potential", 8, mixed_u64(64, &mut rng)),
        ]),
        mk(vec![
            rec("acme", 3, "wide", 4, noise(1024, &mut rng)),
            rec("acme", 4, "empty", 1, Vec::new()),
        ]),
    ]
}

/// The permissive walkers under fault injection: container, stream and
/// journal salvage all run on the shared resync walk. A verdict is
/// `accepted` when the walk found nothing damaged, `rejected` when it
/// skipped damage or the header was refused. Every salvage must tile
/// its input; pristine inputs must come back bit-exact and undamaged.
pub(super) fn salvage_layer() -> Layer {
    let mut pool = container_pool();
    pool.extend(stream_pool());
    pool.extend(wal_pool());
    Layer {
        name: "salvage",
        pool,
        alloc_scale: SALVAGE_ALLOC_SCALE,
        decode: Box::new(|artifact, bytes, pristine| {
            let clean = match &artifact.bytes[..4] {
                b"ISBR" => salvage_container_case(artifact, bytes)?,
                b"ISBS" => salvage_stream_case(artifact, bytes)?,
                _ => salvage_wal_case(artifact, bytes)?,
            };
            if pristine && !clean {
                return Err("pristine input did not salvage bit-exact and undamaged".into());
            }
            Ok(clean)
        }),
    }
}

/// `Ok(true)` when the container salvages clean and bit-exact.
fn salvage_container_case(artifact: &Artifact, bytes: &[u8]) -> Result<bool, String> {
    let Ok(fsck) = fsck_container(bytes) else {
        return Ok(false);
    };
    let Ok((out, report)) = salvage_decompress(bytes) else {
        return Ok(false);
    };
    let total_len = Header::read(bytes).map_err(|e| e.to_string())?.total_len;
    if out.len() as u64 != total_len {
        return Err(format!(
            "container salvage produced {} bytes, header says {total_len}",
            out.len()
        ));
    }
    Ok(fsck.is_clean()
        && report.is_complete()
        && report.damage_regions == 0
        && out == artifact.original)
}

/// `Ok(true)` when the stream salvages clean and bit-exact.
fn salvage_stream_case(artifact: &Artifact, bytes: &[u8]) -> Result<bool, String> {
    let Ok(fsck) = fsck_stream(bytes) else {
        return Ok(false);
    };
    let Ok((out, report)) = salvage_stream_recorded(bytes, &mut Recorder::new()) else {
        return Ok(false);
    };
    Ok(fsck.is_clean()
        && report.is_complete()
        && report.damage_regions == 0
        && out == artifact.original)
}

/// `Ok(true)` when the journal parses with nothing skipped and every
/// payload intact.
fn salvage_wal_case(artifact: &Artifact, bytes: &[u8]) -> Result<bool, String> {
    let salvage = parse_wal(bytes);
    let header =
        if bytes.len() >= WAL_HEADER_LEN && bytes[..4] == WAL_MAGIC && bytes[4] == WAL_VERSION {
            WAL_HEADER_LEN
        } else {
            0
        };
    let framed: usize = salvage.records.iter().map(WalRecord::encoded_len).sum();
    if header + framed + salvage.skipped_bytes as usize != bytes.len() {
        return Err(format!(
            "journal walk does not tile its input: {header} header + {framed} framed + {} skipped != {}",
            salvage.skipped_bytes,
            bytes.len()
        ));
    }
    let payloads: Vec<u8> = salvage
        .records
        .into_iter()
        .flat_map(|r| r.payload)
        .collect();
    Ok(salvage.skipped_bytes == 0 && payloads == artifact.original)
}
