//! A smoke-sized run of each workload, untraced and traced, checks
//! every output and prints a well-formed result.

use isobar_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use isobar_perfbench::{run, Config, Workload};

fn smoke(workload: Workload, seed: u64) {
    let cfg = Config::smoke(seed);
    for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
        let outcome = run(workload, &cfg, traced)
            .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name()));
        assert!(outcome.attempted > 0);
        assert_eq!(
            outcome.fail_frac(),
            0.0,
            "{} traced={traced}: {:?}",
            workload.name(),
            outcome.first_error
        );
        let line = result_line(outcome.attempted, outcome.failed, defs, &outcome.metrics)
            .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name()));
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        if !traced {
            for def in END_TO_END {
                let v = outcome.metrics.get(def.name).unwrap();
                assert!(v > 0.0, "{} {} = {v}", workload.name(), def.name);
            }
        }
    }
}

#[test]
fn pipeline_speed_smoke_run_has_no_failures() {
    smoke(Workload::PipelineSpeed, 1);
}

#[test]
fn checkpoint_store_smoke_run_has_no_failures() {
    smoke(Workload::CheckpointStore, 2);
}

#[test]
fn serve_mixed_smoke_run_has_no_failures() {
    smoke(Workload::ServeMixed, 3);
}
