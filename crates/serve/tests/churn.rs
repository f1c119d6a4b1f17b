//! Bit-identity under churn: a corpus that is written to between links
//! still serves every batch exactly as the offline pipeline links the same
//! queries against a key-ordered copy of the corpus.
//!
//! Inserts, same-key replacements and deletes interleave with links whose
//! queries share candidates, so a record reached from two queries must keep
//! one batch-local index for the pair order, score ties and one-to-one
//! reduction to come out as they do offline.

use adamel::config::{AdamelConfig, Variant};
use adamel::train::fit;
use adamel::{AdamelModel, Linker, LinkerConfig};
use adamel_schema::{Domain, EntityPair, Record, Schema, SourceId};
use adamel_serve::{Engine, EngineConfig};
use std::collections::BTreeMap;

const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

fn rec(source: u32, id: u64, name: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r
}

fn trained_model() -> AdamelModel {
    let names = ["alpha beta", "gamma delta", "epsilon zeta", "alpha gamma"];
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

/// A deterministic 64-bit LCG, so the write schedule needs no RNG crate.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn name(&mut self) -> String {
        let n = 1 + self.below(3);
        (0..n).map(|_| VOCAB[self.below(VOCAB.len())]).collect::<Vec<_>>().join(" ")
    }
}

type Row = (usize, u32, u64, u32);

fn served(engine: &Engine, queries: &[Record], corpus_len: usize) -> Vec<Row> {
    let outcome = engine.link(queries);
    assert_eq!(outcome.corpus_records, corpus_len);
    outcome.matches.iter().map(|m| (m.query, m.source, m.entity_id, m.score.to_bits())).collect()
}

fn offline(linker: &Linker, queries: &[Record], mirror: &BTreeMap<(u32, u64), Record>) -> Vec<Row> {
    let right: Vec<Record> = mirror.values().cloned().collect();
    linker
        .link(queries, &right)
        .iter()
        .map(|m| {
            let r = &right[m.right];
            let SourceId(source) = r.source;
            (m.left, source, r.entity_id, m.score.to_bits())
        })
        .collect()
}

fn churn(one_to_one: bool) {
    // A low threshold and a small candidate cap: most candidate pairs are
    // matches, and the cap cuts through runs of tied token counts.
    let cfg = LinkerConfig {
        threshold: 0.2,
        one_to_one,
        max_candidates_per_record: 5,
        ..LinkerConfig::default()
    };
    let engine = Engine::new(Linker::new(trained_model(), cfg.clone()), EngineConfig::default());
    let reference = Linker::new(trained_model(), cfg);
    // The first batch's two queries carry the same text, so they rank the
    // same records and tie on every score.
    let batches = [
        vec![rec(9, 1, "alpha beta"), rec(8, 1, "alpha beta"), rec(9, 2, "alpha gamma")],
        vec![rec(8, 2, "beta delta"), rec(8, 3, "gamma delta"), rec(9, 3, "alpha delta")],
    ];

    let mut rng = Lcg(7);
    let mut mirror: BTreeMap<(u32, u64), Record> = BTreeMap::new();
    let mut next_id = 0u64;
    let mut insert = |rng: &mut Lcg, mirror: &mut BTreeMap<(u32, u64), Record>| {
        let source = 1 + rng.below(3) as u32;
        next_id += 1;
        let r = rec(source, next_id, &rng.name());
        mirror.insert((source, next_id), r.clone());
        r
    };
    let preload: Vec<Record> = (0..16).map(|_| insert(&mut rng, &mut mirror)).collect();
    engine.upsert(preload);

    let mut compared = 0usize;
    for step in 0..60 {
        match step % 3 {
            0 => {
                let r = insert(&mut rng, &mut mirror);
                assert_eq!(engine.upsert(vec![r]), (1, 0));
            }
            1 => {
                let &(source, id) = mirror.keys().nth(rng.below(mirror.len())).expect("non-empty");
                let r = rec(source, id, &rng.name());
                mirror.insert((source, id), r.clone());
                assert_eq!(engine.upsert(vec![r]), (0, 1));
            }
            _ => {
                let &(source, id) = mirror.keys().nth(rng.below(mirror.len())).expect("non-empty");
                mirror.remove(&(source, id));
                assert_eq!(engine.delete(&[(SourceId(source), id)]), 1);
            }
        }
        for queries in &batches {
            let got = served(&engine, queries, mirror.len());
            let want = offline(&reference, queries, &mirror);
            assert_eq!(got, want, "step {step}, one_to_one {one_to_one}");
            compared += got.len();
        }
    }
    assert!(compared > 0, "the churn run never produced a match to compare");
}

#[test]
fn links_stay_bit_identical_to_offline_under_churn() {
    churn(false);
}

#[test]
fn one_to_one_links_stay_bit_identical_to_offline_under_churn() {
    churn(true);
}
