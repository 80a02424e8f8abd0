//! Benchmark runner.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline_speed|checkpoint_store|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints a `#` header with the machine
//! facts, summary lines, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use isobar_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use isobar_perfbench::{env, run, Config, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::full(args.seed, args.seconds);
    println!("# workload: {}", args.workload.name());
    println!(
        "# seed: {} seconds: {} trace: {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# nproc: {}", env::nproc());
    println!("# kernel_tier: {}", isobar::active_kernel_tier().name());
    println!("# git_rev: {}", env::git_rev());
    println!("# build_features: {}", env::build_features());
    println!("# scratch_fs: {}", env::fs_type(std::path::Path::new(".")));
    let outcome = match run(args.workload, &cfg, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    if let Some(e) = &outcome.first_error {
        eprintln!("perfbench: first failure: {e}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    match result_line(outcome.attempted, outcome.failed, defs, &outcome.metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
