//! `checkpoint_store`: an in-situ checkpoint. Each round puts
//! `steps` x 3 variables, one corpus chunk each, through a
//! `ShardedStoreWriter` (Speed preference, min(nproc, 4) shards),
//! commits them with `close()`, then twice reopens the directory with
//! `StoreReader::open` and fetches and checks every entry.

use crate::corpus::Corpus;
use crate::env::{self, Scratch};
use crate::layers::{self, LayerTally, ReplayScratch};
use crate::stats::ratio;
use crate::tracer::{self, Tracer};
use crate::{latency_metrics, timed_setup, Config, Outcome, Rounds, Workload, MIN_SAMPLES};
use isobar::{IsobarOptions, Preference};
use isobar_store::{ShardedOptions, ShardedStoreWriter, StoreReader};
use std::path::Path;
use std::time::Instant;

/// Restore passes (open plus every get) per checkpoint round.
const RESTORE_PASSES: usize = 2;

fn writer_options() -> (IsobarOptions, ShardedOptions) {
    (
        IsobarOptions {
            preference: Preference::Speed,
            ..IsobarOptions::default()
        },
        ShardedOptions {
            shards: env::nproc().clamp(1, 4) as u16,
            ..ShardedOptions::default()
        },
    )
}

fn create(dir: &Path) -> Result<ShardedStoreWriter, String> {
    let (isobar, sharded) = writer_options();
    ShardedStoreWriter::create(dir, isobar, sharded)
        .map_err(|e| format!("creating store {}: {e}", dir.display()))
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    bytes: u64,
    stored_bytes: u64,
    put_wall_s: f64,
    /// Wall time of each restore pass (open plus every get).
    restore_s: Vec<f64>,
    put_ms: Vec<f64>,
    get_ms: Vec<f64>,
}

/// Write, commit, reopen and restore one checkpoint in `dir`, checking
/// every entry.
fn round(
    cfg: &Config,
    corpus: &Corpus,
    dir: &Path,
    t: &mut Tracer,
    req: &mut u64,
    out: &mut Outcome,
) -> Result<Round, String> {
    let mut r = Round::default();
    let writer = create(dir)?;
    let start = Instant::now();
    for step in 0..cfg.steps {
        for set in &corpus.sets {
            let data = set.chunk(step as usize).to_vec();
            let len = data.len() as u64;
            *req += 1;
            let t0 = Instant::now();
            let put = t.time("store.put", *req, len, || {
                writer.put(step, set.name, data, set.width)
            });
            r.put_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            r.bytes += len;
            out.check(put.is_ok(), || format!("put {step}/{}: {put:?}", set.name));
        }
    }
    *req += 1;
    let closed = t.time("store.close", *req, r.bytes, || writer.close());
    r.put_wall_s = start.elapsed().as_secs_f64();
    out.check(closed.is_ok(), || format!("close: {:?}", closed.err()));
    r.stored_bytes = env::dir_bytes(dir).map_err(|e| format!("sizing {}: {e}", dir.display()))?;

    // Two restore passes per checkpoint: the read side of a round is
    // short, and a second pass doubles what the run measures of it.
    for _ in 0..RESTORE_PASSES {
        let start = Instant::now();
        *req += 1;
        let reader = t.time("store.open", *req, 0, || StoreReader::open(dir));
        let reader = reader.map_err(|e| format!("opening {}: {e}", dir.display()))?;
        for step in 0..cfg.steps {
            for set in &corpus.sets {
                let expected = set.chunk(step as usize);
                *req += 1;
                let t0 = Instant::now();
                let got = t.time("store.get", *req, expected.len() as u64, || {
                    reader.get(step, set.name)
                });
                r.get_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.check(got.as_deref().is_ok_and(|g| g == expected), || {
                    format!("get {step}/{} did not return the put bytes", set.name)
                });
            }
        }
        r.restore_s.push(start.elapsed().as_secs_f64());
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(r)
}

/// The untraced run: whole checkpoint rounds until the time is up and
/// each operation type has [`MIN_SAMPLES`] samples.
pub fn timed(cfg: &Config, scratch: &Scratch) -> Result<Outcome, String> {
    // Set-up is corpus generation plus store start: the directory and
    // the shard pipelines. Dropping an unclosed writer sweeps its
    // journal files.
    let probe_dir = scratch.child("setup");
    let ((corpus, writer), setup_s) = timed_setup(
        cfg.setup_reps,
        || {
            let corpus = Corpus::generate(cfg.seed, cfg.chunk_elements, cfg.chunks);
            Ok((corpus, create(&probe_dir)?))
        },
        |(_, writer)| {
            drop(writer);
            Ok(())
        },
    )?;
    drop(writer);
    std::fs::remove_dir_all(&probe_dir).map_err(|e| format!("removing set-up store: {e}"))?;
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s);
    let mut t = Tracer::new(Instant::now(), 0);
    let mut req = 0;
    let mut total = Round::default();
    let (mut put_s, mut restore_s, mut restored) = (0.0, 0.0, 0u64);
    let mut start = Instant::now();
    for i in 0usize.. {
        let r = round(
            cfg,
            &corpus,
            &scratch.child(&format!("ckpt-{i}")),
            &mut t,
            &mut req,
            &mut out,
        )?;
        if i == 0 {
            // The warm-up checkpoint is checked but not timed.
            start = Instant::now();
            continue;
        }
        total.bytes += r.bytes;
        total.stored_bytes += r.stored_bytes;
        put_s += r.put_wall_s;
        restore_s += r.restore_s.iter().sum::<f64>();
        restored += r.bytes * r.restore_s.len() as u64;
        total.put_ms.extend(r.put_ms);
        total.get_ms.extend(r.get_ms);
        let enough = total.put_ms.len() >= MIN_SAMPLES;
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let m = &mut out.metrics;
    m.set(
        "ratio",
        ratio(total.bytes as f64, total.stored_bytes as f64),
    );
    m.set("write_mbps", total.bytes as f64 / 1e6 / put_s);
    m.set("read_mbps", restored as f64 / 1e6 / restore_s);
    latency_metrics("put", "write_p50_ms", &total.put_ms, m, &mut out.notes)?;
    latency_metrics("get", "read_p50_ms", &total.get_ms, m, &mut out.notes)?;
    out.notes.push(format!(
        "put_mbps {:.3} (first put to close) restore_mbps {:.3} (open + gets) over {} MB, {} shards",
        m.get("write_mbps").unwrap_or(0.0),
        m.get("read_mbps").unwrap_or(0.0),
        total.bytes / 1_000_000,
        writer_options().1.shards
    ));
    Ok(out)
}

/// The traced run: checkpoint rounds traced and untraced in turn. After
/// each traced round the same puts are compressed serially through the
/// layer replay, which gives `store.overlap`, and decoded back; then
/// each dataset's first chunk is probed.
pub fn traced(cfg: &Config, scratch: &Scratch) -> Result<Outcome, String> {
    let corpus = Corpus::generate(cfg.seed, cfg.chunk_elements, cfg.chunks);
    let mut out = Outcome::default();
    let mut t = Tracer::new(Instant::now(), 0);
    let mut tally = LayerTally::default();
    let mut rs = ReplayScratch::default();
    let mut rounds = Rounds::new(cfg.seconds);
    let mut req = 0u64;
    let (mut put_wall_s, mut serial_s) = (0.0, 0.0);
    let mut decoded = Vec::new();
    while let Some((i, traced)) = rounds.next_round() {
        t.set_on(traced);
        let start = Instant::now();
        let r = round(
            cfg,
            &corpus,
            &scratch.child(&format!("ckpt-{i}")),
            &mut t,
            &mut req,
            &mut out,
        )?;
        rounds.record(i, traced, start.elapsed().as_secs_f64());
        if !traced {
            continue;
        }
        put_wall_s += r.put_wall_s;
        req += 1;
        let serial = t.begin("store.serial_replay", req);
        for step in 0..cfg.steps {
            for set in &corpus.sets {
                let chunk = set.chunk(step as usize);
                let t0 = Instant::now();
                let enc = layers::compress(
                    &mut t,
                    req,
                    set.name,
                    chunk,
                    set.width,
                    Preference::Speed,
                    &mut tally,
                    &mut rs,
                )?;
                serial_s += t0.elapsed().as_secs_f64();
                // Decoding too puts the pipeline's read layers in this
                // workload's trace.
                layers::decompress(&mut t, req, &enc, set.width, &mut decoded, &mut rs)?;
                out.check(decoded == chunk, || {
                    format!("replay of {step}/{} did not round-trip", set.name)
                });
            }
        }
        t.end(serial, r.bytes);
        for set in &corpus.sets {
            req += 1;
            layers::probe_chunk(
                &mut t,
                req,
                set.name,
                set.chunk(0),
                set.width,
                Preference::Speed,
                &mut tally,
                &mut rs,
            )?;
        }
    }
    t.set_on(false);
    let path = crate::trace_path(cfg, scratch, Workload::CheckpointStore)?;
    let summary = tracer::finish(&t.into_spans(), &path)?;
    out.check(tally.probe_mismatches == 0, || {
        "a probe round trip failed".to_string()
    });
    let n = rounds.traced();
    let m = &mut out.metrics;
    layers::layer_metrics(&summary, &tally, n, m);
    m.set(
        "store.put_wait_s",
        ratio(summary.get("store.put").total_s, n),
    );
    m.set(
        "store.close_s",
        ratio(summary.get("store.close").total_s, n),
    );
    m.set("store.overlap", ratio(serial_s, put_wall_s));
    m.set("store.open_s", ratio(summary.get("store.open").total_s, n));
    m.set(
        "store.get_busy_s",
        ratio(summary.get("store.get").total_s, n),
    );
    m.set("trace.overhead_frac", rounds.overhead_frac());
    out.notes.push(format!(
        "trace {} spans in {}",
        summary.spans,
        path.display()
    ));
    out.notes.extend(tally.pick_lines());
    Ok(out)
}
