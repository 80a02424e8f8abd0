//! Reduced-count fuzz pass for `cargo test`: every layer must survive
//! structure-aware fault injection with zero panics and bounded
//! allocation, and the decode layers must keep their exact verdicts.
//! The full 10k-per-layer run is the fuzz binary
//! (`cargo run -p isobar-fuzz-harness --release`), which CI executes.
//!
//! This file installs the counting allocator as the global allocator,
//! so it must stay the only integration test in this binary (cargo
//! builds each top-level test file into its own executable).

use isobar::KernelSelection;
use isobar_fuzz_harness::{all_layers, alloc_track::PeakAlloc, DEFAULT_SEED};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// `(layer, accepted, rejected)` at `DEFAULT_SEED` × 400 iterations.
/// The mutator is seeded, so these counts are exact: a decoder that
/// starts accepting or rejecting a different input set moves them even
/// when it never panics. They are the same on every kernel tier.
const VERDICTS: [(&str, u64, u64); 8] = [
    ("container", 33, 367),
    ("stream", 28, 372),
    ("store", 7, 393),
    ("salvage", 5, 395),
    ("codec-deflate", 33, 367),
    ("codec-bzip2", 23, 377),
    ("raw-inflate", 119, 281),
    ("raw-bwt", 8, 392),
];

#[test]
fn every_layer_survives_fault_injection() {
    for selection in [KernelSelection::Auto, KernelSelection::Scalar] {
        isobar::set_kernels(selection);
        let mut pinned = 0;
        for layer in all_layers() {
            let outcome = layer
                .run(DEFAULT_SEED, 400)
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(outcome.iterations, 400);
            // A layer where no mutation is ever rejected would mean the
            // mutator is not reaching the decoder (RLE1 is the exception:
            // its decode is total, every input is a valid encoding).
            if layer.name() != "raw-rle1" {
                assert!(
                    outcome.rejected > 0,
                    "{}: no mutated input was ever rejected",
                    layer.name()
                );
            }
            if let Some(&(_, accepted, rejected)) =
                VERDICTS.iter().find(|(name, ..)| *name == layer.name())
            {
                assert_eq!(
                    (outcome.accepted, outcome.rejected),
                    (accepted, rejected),
                    "{} verdicts under {selection:?} kernels",
                    layer.name()
                );
                pinned += 1;
            }
        }
        assert_eq!(pinned, VERDICTS.len(), "a pinned layer is missing");
    }
}
