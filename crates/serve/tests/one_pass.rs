//! One forward pass per served batch: with drift monitoring on, a `/link`
//! batch of fewer than 512 candidate pairs replays the compiled plan
//! exactly once. The drift baseline freeze and the per-source assessment
//! read the scores and attention rows the link already computed; neither
//! may run the network again.
//!
//! The obs counters are process-global, so this check lives in its own
//! test binary.

use adamel::config::{AdamelConfig, Variant};
use adamel::train::fit;
use adamel::{AdamelModel, Linker, LinkerConfig};
use adamel_obs::TraceLevel;
use adamel_schema::{Domain, EntityPair, Record, Schema, SourceId};
use adamel_serve::{DriftConfig, Engine, EngineConfig};

fn rec(source: u32, id: u64, name: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r
}

fn trained_model() -> AdamelModel {
    let names = ["alpha beta", "gamma delta", "epsilon zeta", "eta theta"];
    let mut model = AdamelModel::new(AdamelConfig::tiny(), Schema::new(vec!["name".into()]));
    let mut train = Vec::new();
    for (i, n) in names.iter().enumerate() {
        let id = i as u64;
        train.push(EntityPair::labeled(rec(0, id, n), rec(1, id, n), true));
        let other = names[(i + 1) % names.len()];
        train.push(EntityPair::labeled(rec(0, id, n), rec(1, id + 50, other), false));
    }
    fit(&mut model, Variant::Base, &Domain::new(train), None, None);
    model
}

fn replays() -> u64 {
    adamel_obs::counter_value("plan.replays").unwrap_or(0)
}

#[test]
fn a_served_batch_with_drift_on_replays_the_plan_once() {
    let drift = DriftConfig { seen_sources: [0u32, 1].into_iter().collect(), ..Default::default() };
    let engine = Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig { drift: Some(drift), compute_threads: 0 },
    );
    engine.upsert(vec![
        rec(1, 10, "alpha beta"),
        rec(1, 11, "gamma delta"),
        rec(2, 20, "alpha gamma"),
        rec(3, 30, "gamma beta"),
    ]);
    // Queries from two sources against a corpus of three: every batch
    // touches several sources, so a per-source re-score would show.
    let queries = [rec(9, 1, "alpha beta"), rec(8, 2, "gamma delta")];

    adamel_obs::set_forced(Some(TraceLevel::Spans));
    adamel_obs::report::reset();
    // The first batch also freezes the drift baseline; the second is
    // assessed against it.
    for batch in 0..2 {
        let before = replays();
        let outcome = engine.link(&queries);
        let after = replays();
        assert!(outcome.candidates > 0 && outcome.candidates < 512, "batch {batch}");
        assert_eq!(after - before, 1, "batch {batch}: plan replays per served batch");
    }
    let metrics = engine.metrics_json(0, 1);
    let drift_spans = adamel_obs::report::spans_with_prefix("drift");
    adamel_obs::set_forced(None);
    adamel_obs::report::reset();

    let events = adamel_obs::json::Json::parse(&metrics)
        .ok()
        .and_then(|v| v.get("counters")?.get("drift_events")?.as_u64());
    assert!(events.is_some_and(|n| n >= 4), "both batches were assessed: {events:?}");
    assert!(
        drift_spans.iter().any(|(path, span)| path == "drift" && span.contains("\"count\": 2")),
        "one fixed-name drift span per assessed batch: {drift_spans:?}"
    );
}
