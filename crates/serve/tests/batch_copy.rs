//! A served link copies O(batch) record bytes out of the corpus, not the
//! corpus: after a write, the next `/link` copies only its batch's distinct
//! candidates, and the `schema.live_index.snapshot.bytes` gauge says so.
//!
//! The memory ledger is process-global, so this check lives in its own
//! test binary.

use adamel::config::{AdamelConfig, Variant};
use adamel::train::fit;
use adamel::{AdamelModel, Linker, LinkerConfig};
use adamel_obs::TraceLevel;
use adamel_schema::{Domain, EntityPair, LiveIndex, Record, Schema, SourceId};
use adamel_serve::{Engine, EngineConfig};
use std::collections::BTreeSet;

const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

fn rec(source: u32, id: u64, name: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r
}

fn trained_model() -> AdamelModel {
    let names = ["alpha beta", "gamma delta", "epsilon alpha", "beta gamma"];
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

#[test]
fn a_link_after_a_write_copies_only_its_candidates() {
    let cfg = LinkerConfig::default();
    let limit = cfg.max_candidates_per_record;
    let engine = Engine::new(Linker::new(trained_model(), cfg.clone()), EngineConfig::default());
    let corpus: Vec<Record> = (0..200u64)
        .map(|i| {
            let i = i as usize;
            let name = format!("{} {}", VOCAB[i % 5], VOCAB[(i / 5) % 5]);
            rec(1 + (i % 3) as u32, i as u64, &name)
        })
        .collect();
    let (preload, write) = corpus.split_at(199);
    let queries = [rec(9, 1, "alpha beta"), rec(9, 2, "beta gamma"), rec(9, 3, "delta")];

    adamel_obs::set_forced(Some(TraceLevel::Spans));
    adamel_obs::report::reset();
    engine.upsert(preload.to_vec());
    engine.link(&queries);
    engine.upsert(write.to_vec());
    let outcome = engine.link(&queries);
    let copied = adamel_obs::mem::current("schema.live_index.snapshot.bytes");
    let corpus_gauge = adamel_obs::mem::current("schema.live_index.bytes");
    adamel_obs::set_forced(None);
    adamel_obs::report::reset();

    // A replica of the served index, for the candidates and byte counts
    // the engine should see.
    let mut replica = LiveIndex::new(cfg.block_attrs.clone());
    for r in &corpus {
        replica.upsert(r.clone());
    }
    let distinct: BTreeSet<_> = queries.iter().flat_map(|q| replica.candidates(q, limit)).collect();
    let batch_bytes: usize = distinct
        .iter()
        .filter_map(|&(s, id)| replica.get(s, id))
        .map(LiveIndex::record_bytes)
        .sum();
    assert_eq!(outcome.corpus_records, 200);
    assert_eq!(outcome.candidates, 3 * limit, "every query fills its candidate cap");
    assert!(distinct.len() < corpus.len());
    let copied = copied.expect("the link observed its copy") as usize;
    assert!(copied > 0);
    assert!(
        copied <= batch_bytes,
        "a link copied {copied} bytes; its distinct candidates hold {batch_bytes}"
    );
    assert_eq!(corpus_gauge, Some(replica.bytes() as u64), "corpus gauge after the write");
}
