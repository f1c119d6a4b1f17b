//! Weight-stationary serving: the compiled plan packs each blocked weight
//! (every `V_j`, `W_att` and Θ.W1) once per parameter version. The first
//! served batch packs them; later batches pack nothing; after an optimizer
//! step the next replay repacks exactly those F + 2 weights, once.
//!
//! The obs counters are process-global, so this check lives in its own
//! test binary and its tests serialize on one lock.

use adamel::config::{AdamelConfig, Variant};
use adamel::train::fit;
use adamel::{AdamelModel, Linker, LinkerConfig};
use adamel_obs::TraceLevel;
use adamel_schema::{Domain, EntityPair, Record, Schema, SourceId};
use adamel_serve::{Engine, EngineConfig};
use adamel_tensor::gemm::MR;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

const NAMES: [&str; 4] = ["alpha beta", "alpha gamma", "beta gamma", "gamma delta"];

fn rec(source: u32, id: u64, name: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r
}

/// Eight labeled pairs: with the default mini-batch of 16 and one epoch,
/// `fit` takes exactly one Adam step.
fn train_domain() -> Domain {
    let mut train = Vec::new();
    for (i, n) in NAMES.iter().enumerate() {
        let id = i as u64;
        train.push(EntityPair::labeled(rec(0, id, n), rec(1, id, n), true));
        let other = NAMES[(i + 1) % NAMES.len()];
        train.push(EntityPair::labeled(rec(0, id, n), rec(1, id + 50, other), false));
    }
    Domain::new(train)
}

/// The default dims make all F + 2 weights blocked from `MR` rows up.
fn one_step_model() -> AdamelModel {
    let cfg = AdamelConfig { epochs: 1, ..AdamelConfig::default() };
    let mut model = AdamelModel::new(cfg, Schema::new(vec!["name".into()]));
    fit(&mut model, Variant::Base, &train_domain(), None, None);
    model
}

fn packs() -> u64 {
    adamel_obs::counter_value("gemm.pack_b").unwrap_or(0)
}

/// Runs `f` and returns how many `B` packs it performed.
fn packs_during(f: impl FnOnce()) -> u64 {
    let before = packs();
    f();
    packs() - before
}

#[test]
fn served_batches_after_the_first_pack_no_weights() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let model = one_step_model();
    let blocked_weights = model.extractor().num_features() as u64 + 2;
    let engine = Engine::new(
        Linker::new(model, LinkerConfig::default()),
        EngineConfig { drift: None, compute_threads: 0 },
    );
    engine.upsert(
        NAMES.iter().enumerate().map(|(i, n)| rec(1 + i as u32 % 2, 10 + i as u64, n)).collect(),
    );
    let queries = [rec(9, 1, "alpha beta"), rec(8, 2, "gamma alpha")];

    adamel_obs::set_forced(Some(TraceLevel::Spans));
    adamel_obs::report::reset();
    let mut per_batch = Vec::new();
    for _ in 0..3 {
        let mut candidates = 0;
        per_batch.push(packs_during(|| candidates = engine.link(&queries).candidates));
        assert!(candidates >= MR, "{candidates} candidates: too few rows for the blocked path");
    }
    adamel_obs::set_forced(None);
    adamel_obs::report::reset();

    assert_eq!(per_batch, [blocked_weights, 0, 0], "weight packs per served batch");
}

#[test]
fn an_optimizer_step_repacks_each_blocked_weight_once() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut model = one_step_model();
    let blocked_weights = model.extractor().num_features() as u64 + 2;
    let pairs: Vec<EntityPair> = train_domain().pairs;
    assert!(pairs.len() >= MR);

    adamel_obs::set_forced(Some(TraceLevel::Spans));
    adamel_obs::report::reset();
    let warm = packs_during(|| drop(model.predict(&pairs)));
    let steady = packs_during(|| drop(model.predict(&pairs)));
    // One more epoch over eight pairs is one Adam step; training itself packs
    // per call on the tape, so only the replays around it are counted.
    fit(&mut model, Variant::Base, &train_domain(), None, None);
    let after_step = packs_during(|| drop(model.predict(&pairs)));
    let after_that = packs_during(|| drop(model.predict(&pairs)));
    adamel_obs::set_forced(None);
    adamel_obs::report::reset();

    assert_eq!(
        [warm, steady, after_step, after_that],
        [blocked_weights, 0, blocked_weights, 0],
        "packs per replay: first, steady state, after one optimizer step, steady again"
    );
}
