//! Layer-by-layer replay of one compress and decompress, and the kernel
//! and solver probes, for traced runs.
//!
//! [`compress`] and [`decompress`] repeat, through the public API and
//! for one chunk, the steps `IsobarCompressor` takes: analyze the head
//! chunk, let EUPA pick the solver and linearization, analyze the
//! chunk, partition it, run the solver; then solve back and reassemble.
//! Each call sits in its own span. [`probe`] times the SIMD kernels and
//! both solvers on a chunk and its solver stream.

use crate::metrics::Metrics;
use crate::stats::ratio;
use crate::tracer::{TraceSummary, Tracer};
use isobar::partitioner::{partition_into, reassemble_into};
use isobar::{
    Analyzer, CodecId, ColumnSelection, CompressionLevel, EupaSelector, Linearization, Preference,
};
use isobar_codecs::{codec_for, CodecScratch};
use isobar_simd::transpose::StreamLayout;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Counts gathered where the layer calls happen.
#[derive(Debug, Default)]
pub struct LayerTally {
    /// Byte columns the per-chunk analysis judged compressible.
    pub compressible_cols: u64,
    /// Byte columns analysed.
    pub cols: u64,
    /// EUPA decisions made.
    pub decisions: u64,
    /// EUPA trial compressions behind them.
    pub trials: u64,
    /// Decisions that differ from the previous one for the same dataset.
    pub decision_changes: u64,
    last_pick: BTreeMap<&'static str, (CodecId, Linearization)>,
    /// Decisions by `dataset codec/linearization`.
    pub picks: BTreeMap<String, u64>,
    /// Bytes handed to the partitioner (or straight to the solver).
    pub partition_in: u64,
    /// Bytes of those routed to the solver.
    pub solver_bytes: u64,
    /// Probe round trips that did not reproduce their input.
    pub probe_mismatches: u64,
}

impl LayerTally {
    /// Log one EUPA pick for `dataset`.
    pub fn record_pick(&mut self, dataset: &'static str, codec: CodecId, lin: Linearization) {
        self.decisions += 1;
        if let Some(prev) = self.last_pick.insert(dataset, (codec, lin)) {
            if prev != (codec, lin) {
                self.decision_changes += 1;
            }
        }
        *self
            .picks
            .entry(format!("{dataset} {codec}/{lin:?}"))
            .or_default() += 1;
    }

    /// One line per dataset and pick, for the run summary.
    pub fn pick_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .picks
            .iter()
            .map(|(pick, n)| format!("eupa pick {pick}: {n}"))
            .collect();
        lines.push(format!(
            "eupa decisions {}, changes {}",
            self.decisions, self.decision_changes
        ));
        lines
    }
}

/// Working buffers reused across replayed chunks.
#[derive(Default)]
pub struct ReplayScratch {
    codec: CodecScratch,
    solver_in: Vec<u8>,
}

/// One chunk as the replay encoded it.
pub struct Encoded {
    codec: CodecId,
    lin: Linearization,
    selection: ColumnSelection,
    partitioned: bool,
    compressed: Vec<u8>,
    incompressible: Vec<u8>,
    len: usize,
}

/// Compress one chunk layer by layer at the default solver level, with
/// a span per call.
#[allow(clippy::too_many_arguments)] // span context + chunk + preference + sinks
pub fn compress(
    t: &mut Tracer,
    req: u64,
    dataset: &'static str,
    data: &[u8],
    width: usize,
    preference: Preference,
    tally: &mut LayerTally,
    scratch: &mut ReplayScratch,
) -> Result<Encoded, String> {
    let len = data.len() as u64;
    let analyzer = Analyzer::default();
    let err = |e: isobar::IsobarError| format!("{dataset}: {e}");
    // EUPA samples under the head chunk's verdict; one chunk is its own
    // head. Undetermined data samples as all-compressible.
    let head = t
        .time("analyzer.analyze", req, len, || {
            analyzer.analyze(data, width)
        })
        .map_err(err)?;
    let eupa_selection = if head.is_improvable() {
        head
    } else {
        ColumnSelection::new(vec![true; width])
    };
    let selector = EupaSelector {
        level: CompressionLevel::Default,
        ..EupaSelector::default()
    };
    let decision = t.time("eupa.select", req, len, || {
        selector.select(data, width, &eupa_selection, preference)
    });
    tally.trials += decision.samples.len() as u64;
    tally.record_pick(dataset, decision.codec, decision.linearization);

    let selection = t
        .time("analyzer.analyze", req, len, || {
            analyzer.analyze(data, width)
        })
        .map_err(err)?;
    tally.cols += width as u64;
    tally.compressible_cols += selection.compressible().len() as u64;

    let codec = codec_for(decision.codec, CompressionLevel::Default);
    let lin = decision.linearization;
    let partitioned = selection.is_improvable();
    let mut incompressible = Vec::new();
    if partitioned {
        t.time("partitioner.partition", req, len, || {
            partition_into(
                data,
                width,
                &selection,
                lin,
                &mut scratch.solver_in,
                &mut incompressible,
            )
        });
    } else {
        scratch.solver_in.clear();
        scratch.solver_in.extend_from_slice(data);
    }
    tally.partition_in += len;
    tally.solver_bytes += scratch.solver_in.len() as u64;
    let mut compressed = Vec::new();
    t.time(
        "solver.compress",
        req,
        scratch.solver_in.len() as u64,
        || codec.compress_into(&scratch.solver_in, &mut compressed, &mut scratch.codec),
    );
    Ok(Encoded {
        codec: decision.codec,
        lin,
        selection,
        partitioned,
        compressed,
        incompressible,
        len: data.len(),
    })
}

/// Invert [`compress`] into `out`, with a span per call.
pub fn decompress(
    t: &mut Tracer,
    req: u64,
    enc: &Encoded,
    width: usize,
    out: &mut Vec<u8>,
    scratch: &mut ReplayScratch,
) -> Result<(), String> {
    let codec = codec_for(enc.codec, CompressionLevel::Default);
    let solved = t.time("solver.decompress", req, enc.len as u64, || {
        codec.decompress_into(&enc.compressed, &mut scratch.solver_in, &mut scratch.codec)
    });
    solved.map_err(|e| format!("solver decode: {e}"))?;
    if !enc.partitioned {
        out.clear();
        out.extend_from_slice(&scratch.solver_in);
        return Ok(());
    }
    if scratch.solver_in.len() + enc.incompressible.len() != enc.len {
        return Err("solver stream length mismatch".to_string());
    }
    out.clear();
    out.resize(enc.len, 0);
    t.time("partitioner.reassemble", req, enc.len as u64, || {
        reassemble_into(
            &scratch.solver_in,
            &enc.incompressible,
            width,
            &enc.selection,
            enc.lin,
            out,
        )
    });
    Ok(())
}

/// Time the SIMD kernels on `data` at the active tier, and both solvers
/// on its solver stream, checking each round trip. Span bytes are bytes
/// moved: the kernels count bytes read plus bytes written (the
/// histogram and the hash only read), the solvers count uncompressed
/// bytes.
pub fn probe(
    t: &mut Tracer,
    req: u64,
    data: &[u8],
    width: usize,
    enc: &Encoded,
    tally: &mut LayerTally,
) {
    let tier = isobar::active_kernel_tier();
    let len = data.len() as u64;
    let n = data.len() / width;
    let mut hists = Vec::new();
    t.time("simd.hist", req, len, || {
        isobar_simd::hist::byte_column_histograms(tier, data, width, &mut hists)
    });
    black_box(&hists);

    let a_cols = enc.selection.compressible();
    let b_cols = enc.selection.incompressible();
    let layout = match enc.lin {
        Linearization::Row => StreamLayout::RowMajor,
        Linearization::Column => StreamLayout::ColumnMajor,
    };
    let mut a = vec![0u8; n * a_cols.len()];
    let mut b = vec![0u8; n * b_cols.len()];
    t.time("simd.partition2", req, 2 * len, || {
        isobar_simd::transpose::partition2(
            tier, data, width, &a_cols, layout, &mut a, &b_cols, &mut b,
        )
    });
    let mut back = vec![0u8; data.len()];
    t.time("simd.reassemble2", req, 2 * len, || {
        isobar_simd::transpose::reassemble2(
            tier, &a, &a_cols, layout, &b, &b_cols, width, &mut back,
        )
    });
    tally.probe_mismatches += u64::from(back != data);
    let hash = t.time("simd.xxh64", req, len, || {
        isobar_codecs::xxhash::xxh64(black_box(data), 0)
    });
    black_box(hash);

    let stream: &[u8] = if enc.partitioned { &a } else { data };
    let mut scratch = CodecScratch::new();
    for (id, c_name, d_name) in [
        (
            CodecId::Deflate,
            "codecs.deflate_compress",
            "codecs.deflate_decompress",
        ),
        (
            CodecId::Bzip2Like,
            "codecs.bwt_compress",
            "codecs.bwt_decompress",
        ),
    ] {
        let codec = codec_for(id, CompressionLevel::Default);
        let mut packed = Vec::new();
        let mut unpacked = Vec::new();
        let slen = stream.len() as u64;
        t.time(c_name, req, slen, || {
            codec.compress_into(stream, &mut packed, &mut scratch)
        });
        let ok = t.time(d_name, req, slen, || {
            codec.decompress_into(&packed, &mut unpacked, &mut scratch)
        });
        tally.probe_mismatches += u64::from(ok.is_err() || unpacked != stream);
    }
}

/// Encode `data` through the replay and [`probe`] the kernels and
/// solvers on it, with the tracer on.
#[allow(clippy::too_many_arguments)] // span context + chunk + preference + sinks
pub fn probe_chunk(
    t: &mut Tracer,
    req: u64,
    dataset: &'static str,
    data: &[u8],
    width: usize,
    preference: Preference,
    tally: &mut LayerTally,
    rs: &mut ReplayScratch,
) -> Result<(), String> {
    let was_on = t.is_on();
    t.set_on(true);
    let enc = compress(t, req, dataset, data, width, preference, tally, rs)?;
    probe(t, req, data, width, &enc, tally);
    t.set_on(was_on);
    Ok(())
}

/// Per-layer figures of the preconditioner layers, from the trace and
/// the tally; busy times are per traced round.
pub fn layer_metrics(s: &TraceSummary, tally: &LayerTally, rounds: f64, m: &mut Metrics) {
    m.set("simd.hist_gbps", s.rate("simd.hist", 1e9));
    m.set("simd.partition2_gbps", s.rate("simd.partition2", 1e9));
    m.set("simd.reassemble2_gbps", s.rate("simd.reassemble2", 1e9));
    m.set("simd.xxh64_gbps", s.rate("simd.xxh64", 1e9));
    m.set(
        "analyzer.busy_s",
        ratio(s.get("analyzer.analyze").self_s, rounds),
    );
    m.set(
        "analyzer.compressible_col_frac",
        ratio(tally.compressible_cols as f64, tally.cols as f64),
    );
    m.set("eupa.busy_s", ratio(s.get("eupa.select").self_s, rounds));
    m.set(
        "eupa.trials_per_decision",
        ratio(tally.trials as f64, tally.decisions as f64),
    );
    m.set(
        "eupa.decision_changes",
        ratio(tally.decision_changes as f64, rounds),
    );
    m.set(
        "partitioner.busy_s",
        ratio(
            s.get("partitioner.partition").self_s + s.get("partitioner.reassemble").self_s,
            rounds,
        ),
    );
    m.set(
        "partitioner.solver_bytes_frac",
        ratio(tally.solver_bytes as f64, tally.partition_in as f64),
    );
    for (span, metric) in [
        ("codecs.deflate_compress", "codecs.deflate_compress_mbps"),
        (
            "codecs.deflate_decompress",
            "codecs.deflate_decompress_mbps",
        ),
        ("codecs.bwt_compress", "codecs.bwt_compress_mbps"),
        ("codecs.bwt_decompress", "codecs.bwt_decompress_mbps"),
    ] {
        m.set(metric, s.rate(span, 1e6));
    }
}
