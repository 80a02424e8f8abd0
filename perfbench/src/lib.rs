//! Seeded, closed-loop benchmark of the isobar stack.
//!
//! Three workloads drive the public APIs of `isobar`, `isobar-store`
//! and `isobar-server`, check every output bit-exactly, and report the
//! end-to-end metrics of [`metrics::END_TO_END`]. A traced run of the
//! same workload records spans around each layer call from this crate
//! and reports [`metrics::PER_LAYER`]. `perfbench/WORKLOADS.md` says
//! what each workload stresses and how each figure is defined.

pub mod corpus;
pub mod env;
pub mod layers;
pub mod metrics;
pub mod pipeline;
pub mod serve;
pub mod stats;
pub mod store;
pub mod tracer;

use metrics::Metrics;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory single-thread compress + decompress, Speed preference.
    PipelineSpeed,
    /// Sharded checkpoint write, commit, reopen and restore.
    CheckpointStore,
    /// In-process `isobar serve` under closed-loop put-then-get clients.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PipelineSpeed,
        Workload::CheckpointStore,
        Workload::ServeMixed,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineSpeed => "pipeline_speed",
            Workload::CheckpointStore => "checkpoint_store",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Least samples per operation type in an untraced run: the fewest
/// that hold a p90 with ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Sizes and durations of a run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured duration, seconds.
    pub seconds: f64,
    /// Elements per corpus chunk.
    pub chunk_elements: usize,
    /// Chunks per corpus dataset.
    pub chunks: usize,
    /// Set-ups per run; the median is reported.
    pub setup_reps: usize,
    /// Checkpoint steps (three variables each) per store round.
    pub steps: u32,
    /// Payload bytes per served put.
    pub slice_bytes: usize,
    /// Concurrent serve clients.
    pub clients: usize,
    /// Serve commit threshold, bytes.
    pub commit_threshold: u64,
    /// Put-then-get pairs per client per traced serve round.
    pub round_pairs: usize,
    /// Acked keys read back after the daemon drains.
    pub verify_sample: usize,
    /// Where traced runs write their Chrome trace; `None` keeps it in
    /// the run's scratch directory.
    pub trace_dir: Option<PathBuf>,
}

impl Config {
    /// The committed benchmark's sizes: paper-sized 375 000-element
    /// chunks, a 144 MB checkpoint, 256 KiB served payloads and the
    /// daemon's shipped 64 MiB commit threshold.
    pub fn full(seed: u64, seconds: f64) -> Config {
        Config {
            seed,
            seconds,
            chunk_elements: 375_000,
            chunks: 4,
            setup_reps: 9,
            steps: 16,
            slice_bytes: 256 << 10,
            clients: env::nproc(),
            commit_threshold: isobar_server::ServeOptions::default().commit_threshold,
            round_pairs: 250,
            verify_sample: 64,
            trace_dir: Some(PathBuf::from(".bench_out")),
        }
    }

    /// Tiny sizes for the test suite: every code path, in seconds.
    pub fn smoke(seed: u64) -> Config {
        Config {
            seconds: 0.05,
            chunk_elements: 4096,
            chunks: 2,
            setup_reps: 2,
            steps: 4,
            slice_bytes: 16 << 10,
            clients: 2,
            commit_threshold: 256 << 10,
            round_pairs: 30,
            verify_sample: 16,
            trace_dir: None,
            ..Config::full(seed, 0.05)
        }
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and checked.
    pub attempted: u64,
    /// Operations that failed or returned wrong bytes.
    pub failed: u64,
    /// First failure, for the log.
    pub first_error: Option<String>,
    /// Measured figures.
    pub metrics: Metrics,
    /// Summary lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// `fail_frac`: failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Run `setup` `reps` times and return the last result with the median
/// wall time. Earlier results go to `teardown`, outside the timing.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let reps = reps.max(1);
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if rep + 1 == reps {
            return Ok((value, stats::median(&times)));
        }
        teardown(value)?;
    }
    unreachable!("the last repetition returns")
}

/// Nearest-rank p50 of one operation type's latencies into `m` under
/// `name`, plus a summary line with the p90 and the highest reportable
/// percentile. Fails when the samples cannot hold a p90.
pub fn latency_metrics(
    label: &str,
    name: &'static str,
    samples_ms: &[f64],
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let (p50, p90, (p, v)) = match (
        stats::percentile(samples_ms, 50.0),
        stats::percentile(samples_ms, 90.0),
        stats::highest_reportable(samples_ms),
    ) {
        (Some(p50), Some(p90), Some(top)) => (p50, p90, top),
        _ => {
            return Err(format!(
                "{label}: {} samples cannot hold a p90 with {} beyond it",
                samples_ms.len(),
                stats::MIN_BEYOND
            ))
        }
    };
    m.set(name, p50);
    notes.push(format!(
        "{label} latency: n={} p50={p50:.3} ms p90={p90:.3} ms highest p{p}={v:.3} ms",
        samples_ms.len()
    ));
    Ok(())
}

/// Run `workload`, untraced (end-to-end metrics) or traced (per-layer
/// metrics), in a fresh scratch directory removed afterwards.
pub fn run(workload: Workload, cfg: &Config, traced: bool) -> Result<Outcome, String> {
    let scratch = env::Scratch::create(std::path::Path::new(env::SCRATCH_ROOT))
        .map_err(|e| format!("creating scratch directory: {e}"))?;
    let mut outcome = match (workload, traced) {
        (Workload::PipelineSpeed, false) => pipeline::timed(cfg)?,
        (Workload::PipelineSpeed, true) => pipeline::traced(cfg, &scratch)?,
        (Workload::CheckpointStore, false) => store::timed(cfg, &scratch)?,
        (Workload::CheckpointStore, true) => store::traced(cfg, &scratch)?,
        (Workload::ServeMixed, false) => serve::timed(cfg, &scratch)?,
        (Workload::ServeMixed, true) => serve::traced(cfg, &scratch)?,
    };
    if traced {
        outcome.metrics.fill_unmeasured(metrics::PER_LAYER);
    } else {
        outcome.metrics.set("peak_rss_mb", env::peak_rss_mb());
    }
    outcome.notes.push(format!(
        "fail_frac {} (failed/attempted ops)",
        outcome.fail_frac()
    ));
    Ok(outcome)
}

/// Path of the Chrome trace for a traced run of `workload`.
pub fn trace_path(
    cfg: &Config,
    scratch: &env::Scratch,
    workload: Workload,
) -> Result<PathBuf, String> {
    let dir = match &cfg.trace_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            dir.clone()
        }
        None => scratch.path().to_path_buf(),
    };
    Ok(dir.join(format!("{}-seed{}.trace.json", workload.name(), cfg.seed)))
}

/// A small seeded generator (SplitMix64) for workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The round schedule of a traced run. Round 0 warms caches and is not
/// compared; after it, traced and untraced rounds of the same fixed
/// work alternate until the run's time is up and each kind ran once.
/// Tracing overhead is the mean traced round over the mean untraced
/// round, minus 1.
pub struct Rounds {
    start: Instant,
    seconds: f64,
    next: usize,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
}

impl Rounds {
    /// A schedule lasting about `seconds`.
    pub fn new(seconds: f64) -> Rounds {
        Rounds {
            start: Instant::now(),
            seconds,
            next: 0,
            traced_walls: Vec::new(),
            untraced_walls: Vec::new(),
        }
    }

    /// The next round's index and whether it is traced, or `None` when
    /// the run is over.
    pub fn next_round(&mut self) -> Option<(usize, bool)> {
        let done = self.start.elapsed().as_secs_f64() >= self.seconds
            && !self.traced_walls.is_empty()
            && !self.untraced_walls.is_empty();
        if done {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some((i, i % 2 == 1))
    }

    /// Record round `i`'s wall time.
    pub fn record(&mut self, i: usize, traced: bool, wall_s: f64) {
        if i == 0 {
            return;
        }
        if traced {
            self.traced_walls.push(wall_s);
        } else {
            self.untraced_walls.push(wall_s);
        }
    }

    /// Rounds run so far, the warm-up included.
    pub fn total(&self) -> usize {
        self.next
    }

    /// Traced rounds run.
    pub fn traced(&self) -> f64 {
        self.traced_walls.len() as f64
    }

    /// `trace.overhead_frac`.
    pub fn overhead_frac(&self) -> f64 {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        stats::ratio(mean(&self.traced_walls), mean(&self.untraced_walls)) - 1.0
    }
}
