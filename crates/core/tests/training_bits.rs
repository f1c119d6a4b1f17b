//! Training-bits fence: `fit` must produce the same parameter and loss bits
//! as the committed hashes, for every variant, at every thread count.
//!
//! Forward and loss bits are pinned by the golden fixtures; this test pins
//! what training *writes*: every parameter after the last Adam step and
//! every epoch's mean loss. A training-path optimisation (backward pruning,
//! a new GEMM dispatch, a parallel optimizer) that changes one rounding
//! anywhere in the step shows up here as a hash mismatch.
//!
//! The expected hashes were captured before any such optimisation landed;
//! they change only with an intended, documented change to training
//! arithmetic.

use adamel::{fit, AdamelConfig, AdamelModel, Variant};
use adamel_data::{
    make_mel_split, EntityType, MelSplit, MusicConfig, MusicWorld, Scenario, SplitCounts,
};
use adamel_schema::Schema;
use adamel_tensor::parallel::with_threads;

/// Epochs per fit: enough for Adam's moments and the per-epoch attention
/// replays (zero/hyb) and support weights (few/hyb) to feed back into later
/// steps, short enough for a debug-build test.
const EPOCHS: usize = 4;

/// `(variant, config seed, expected FNV-1a hash of parameter and loss bits)`.
const EXPECTED: [(Variant, u64, u64); 4] = [
    (Variant::Base, 11, 0x6891_e416_4cde_0965),
    (Variant::Zero, 12, 0x52f6_a5b6_b1d5_8c1b),
    (Variant::Few, 13, 0x8663_5700_4a44_f37e),
    (Variant::Hyb, 14, 0x4643_36e2_7dde_fb2b),
];

fn fixture() -> (Schema, MelSplit) {
    let world = MusicWorld::generate(&MusicConfig::tiny(), 5);
    let records = world.records_of(EntityType::Artist, None);
    let split = make_mel_split(
        &records,
        "name",
        &[0, 1, 2],
        &[3, 4, 5, 6],
        Scenario::Overlapping,
        &SplitCounts::tiny(),
        1,
    );
    (world.schema().clone(), split)
}

/// 64-bit FNV-1a over a stream of `u32` words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Trains one model and hashes the bits of every parameter (in `ParamSet`
/// order), then every epoch loss.
fn trained_hash(schema: &Schema, split: &MelSplit, variant: Variant, seed: u64) -> u64 {
    let mut cfg = AdamelConfig::tiny().with_seed(seed);
    cfg.epochs = EPOCHS;
    let mut model = AdamelModel::new(cfg, schema.clone());
    let report = fit(
        &mut model,
        variant,
        &split.train,
        variant.uses_target().then_some(&split.test),
        variant.uses_support().then_some(&split.support),
    );
    assert_eq!(report.epoch_losses.len(), EPOCHS);
    let params = model.snapshot_params();
    let param_bits = params.iter().flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()));
    fnv1a(param_bits.chain(report.epoch_losses.iter().map(|v| v.to_bits())))
}

#[test]
fn fit_bits_match_committed_hashes_at_every_thread_count() {
    let (schema, split) = fixture();
    let mut mismatches = Vec::new();
    for (variant, seed, expected) in EXPECTED {
        let default = trained_hash(&schema, &split, variant, seed);
        if default != expected {
            mismatches.push(format!(
                "{} seed {seed}: got {default:#018x}, expected {expected:#018x}",
                variant.name()
            ));
        }
        for threads in [1, 2, 4] {
            let forced = with_threads(threads, || trained_hash(&schema, &split, variant, seed));
            assert_eq!(
                forced,
                default,
                "{} seed {seed}: bits at {threads} threads differ from the default dispatch",
                variant.name()
            );
        }
    }
    assert!(mismatches.is_empty(), "training bits moved:\n{}", mismatches.join("\n"));
}
