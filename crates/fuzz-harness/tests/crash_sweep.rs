//! The full commit-protocol crash sweep, as an integration test.
//!
//! This is the acceptance gate for the store's crash-consistency
//! claim: a sharded writer killed at every single filesystem-operation
//! boundary of a new generation's commit — including mid-write, with
//! torn prefixes — must leave a directory from which the verifying
//! reader recovers exactly the old generation or exactly the new one,
//! in every combination of lost/survived unsynced data and directory
//! mutations. Each shard count in `SHARDED_SWEEP_SHARDS` gets its own
//! test.

use isobar_fuzz_harness::{crash, DEFAULT_SEED};

fn assert_sweep_holds(shards: u16) {
    assert!(crash::SHARDED_SWEEP_SHARDS.contains(&shards));
    let outcome = crash::crash_sweep_sharded(DEFAULT_SEED, shards).unwrap_or_else(|e| {
        panic!("{shards}-shard crash sweep violation (seed {DEFAULT_SEED:#018x}): {e}")
    });
    assert!(
        outcome.kill_points >= 40,
        "{shards}-shard sweep must cover the full two-phase commit, got {} kill points",
        outcome.kill_points
    );
    assert!(outcome.views_checked >= outcome.kill_points);
    assert!(
        outcome.real_runs >= 2,
        "both ends are anchored to real armed runs"
    );
    // Kills before the manifest swap leave the old generation; kills
    // after it leave the new one — the sweep must witness both.
    assert!(outcome.saw_old > 0 && outcome.saw_new > 0);
}

#[test]
fn sharded_commit_protocol_survives_kill_at_every_operation() {
    assert_sweep_holds(2);
}

#[test]
fn single_shard_commit_protocol_survives_kill_at_every_operation() {
    assert_sweep_holds(1);
}
