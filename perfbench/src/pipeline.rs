//! `pipeline_speed`: in-memory, single-threaded `IsobarCompressor`
//! compress then decompress of every corpus chunk, Speed preference.
//! No disk, lock or socket is involved.

use crate::corpus::Corpus;
use crate::env::Scratch;
use crate::layers::{self, LayerTally, ReplayScratch};
use crate::tracer::{self, Tracer};
use crate::{latency_metrics, timed_setup, Config, Outcome, Rounds, Workload, MIN_SAMPLES};
use isobar::{IsobarCompressor, PipelineScratch, Preference};
use std::time::Instant;

/// The untraced run: whole rounds over the corpus until the time is up
/// and each operation type has [`MIN_SAMPLES`] samples.
pub fn timed(cfg: &Config) -> Result<Outcome, String> {
    let (corpus, setup_s) = timed_setup(
        cfg.setup_reps,
        || Ok(Corpus::generate(cfg.seed, cfg.chunk_elements, cfg.chunks)),
        |_| Ok(()),
    )?;
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s);
    let compressor = IsobarCompressor::with_preference(Preference::Speed);
    let mut scratch = PipelineScratch::new();
    let mut tally = LayerTally::default();
    let order = corpus.round();

    let (mut in_bytes, mut out_bytes) = (0u64, 0u64);
    let (mut compress_s, mut decompress_s) = (0.0f64, 0.0f64);
    let (mut compress_ms, mut decompress_ms) = (Vec::new(), Vec::new());
    let mut start = Instant::now();
    for round in 0usize.. {
        let measured = round > 0; // round 0 warms caches and buffers
        for &(d, c) in &order {
            let set = &corpus.sets[d];
            let data = set.chunk(c);
            let t0 = Instant::now();
            let packed = compressor.compress_with_report_scratch(data, set.width, &mut scratch);
            let t_compress = t0.elapsed().as_secs_f64();
            let (packed, report) = match packed {
                Ok(ok) => ok,
                Err(e) => {
                    out.fail(format!("compress {}#{c}: {e}", set.name));
                    out.attempted += 1;
                    continue;
                }
            };
            let t1 = Instant::now();
            let back = compressor.decompress_with_scratch(&packed, &mut scratch);
            let t_decompress = t1.elapsed().as_secs_f64();
            if !measured {
                continue;
            }
            out.attempted += 1; // the compress
            out.check(back.as_deref() == Ok(data), || {
                format!("decompress {}#{c} did not reproduce the chunk", set.name)
            });
            tally.record_pick(set.name, report.codec, report.linearization);
            in_bytes += data.len() as u64;
            out_bytes += packed.len() as u64;
            compress_s += t_compress;
            decompress_s += t_decompress;
            compress_ms.push(t_compress * 1e3);
            decompress_ms.push(t_decompress * 1e3);
        }
        if !measured {
            start = Instant::now();
            continue;
        }
        let enough = compress_ms.len() >= MIN_SAMPLES;
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let m = &mut out.metrics;
    m.set("ratio", in_bytes as f64 / out_bytes.max(1) as f64);
    m.set("write_mbps", in_bytes as f64 / 1e6 / compress_s);
    m.set("read_mbps", in_bytes as f64 / 1e6 / decompress_s);
    latency_metrics("compress", "write_p50_ms", &compress_ms, m, &mut out.notes)?;
    latency_metrics(
        "decompress",
        "read_p50_ms",
        &decompress_ms,
        m,
        &mut out.notes,
    )?;
    out.notes.push(format!(
        "compress_mbps {:.3} decompress_mbps {:.3} over {} MB",
        m.get("write_mbps").unwrap_or(0.0),
        m.get("read_mbps").unwrap_or(0.0),
        in_bytes / 1_000_000
    ));
    out.notes.extend(tally.pick_lines());
    Ok(out)
}

/// The traced run: rounds over the corpus replayed layer by layer,
/// traced and untraced in turn, with kernel and solver probes on each
/// dataset's first chunk after every traced round.
pub fn traced(cfg: &Config, scratch: &Scratch) -> Result<Outcome, String> {
    let corpus = Corpus::generate(cfg.seed, cfg.chunk_elements, cfg.chunks);
    let mut out = Outcome::default();
    let mut t = Tracer::new(Instant::now(), 0);
    let mut tally = LayerTally::default();
    let mut rs = ReplayScratch::default();
    let mut decoded = Vec::new();
    let order = corpus.round();
    let mut rounds = Rounds::new(cfg.seconds);
    let mut req = 0u64;
    while let Some((round, traced)) = rounds.next_round() {
        t.set_on(traced);
        let start = Instant::now();
        for &(d, c) in &order {
            let set = &corpus.sets[d];
            let data = set.chunk(c);
            req += 1;
            let op = t.begin("pipeline.op", req);
            let result = layers::compress(
                &mut t,
                req,
                set.name,
                data,
                set.width,
                Preference::Speed,
                &mut tally,
                &mut rs,
            )
            .and_then(|enc| {
                layers::decompress(&mut t, req, &enc, set.width, &mut decoded, &mut rs)
            });
            t.end(op, data.len() as u64);
            out.check(result.is_ok() && decoded == data, || {
                format!("replay {}#{c}: {result:?}", set.name)
            });
        }
        rounds.record(round, traced, start.elapsed().as_secs_f64());
        if traced {
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
    }
    t.set_on(false);
    let path = crate::trace_path(cfg, scratch, Workload::PipelineSpeed)?;
    let summary = tracer::finish(&t.into_spans(), &path)?;
    out.check(tally.probe_mismatches == 0, || {
        "a probe round trip failed".to_string()
    });
    layers::layer_metrics(&summary, &tally, rounds.traced(), &mut out.metrics);
    out.metrics
        .set("trace.overhead_frac", rounds.overhead_frac());
    out.notes.push(format!(
        "trace {} spans in {}",
        summary.spans,
        path.display()
    ));
    out.notes.extend(tally.pick_lines());
    Ok(out)
}
