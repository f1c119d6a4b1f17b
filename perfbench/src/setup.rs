//! Seeded inputs shared by the workloads: the generated music world, its
//! MEL split, and a model trained on that split.

use crate::report::Report;
use crate::trace::Tracer;
use adamel::{fit, AdamelConfig, AdamelModel, Variant};
use adamel_bench::{MusicExperiment, Scale};
use adamel_data::{EntityType, MelSplit, MusicConfig, MusicWorld, Scenario};
use adamel_schema::{EntityPair, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The 7-website music world with `artists` artists, 2 albums per artist
/// and 2 tracks per album (the repro harness's shape).
pub fn music_world(artists: usize, seed: u64, tracer: &Tracer) -> MusicWorld {
    let cfg = MusicConfig {
        num_artists: artists,
        albums_per_artist: 2,
        tracks_per_album: 2,
        num_sources: 7,
        coverage: 0.85,
    };
    tracer.span("data.generate", || MusicWorld::generate(&cfg, seed))
}

/// The §5.2 artist split of `world`: sources 0–2 seen, 3–6 unseen,
/// overlapping scenario, 50 + 50 support pairs.
pub fn mel_split(
    world: MusicWorld,
    train_per_class: usize,
    test_per_class: usize,
    seed: u64,
) -> (MusicExperiment, MelSplit) {
    let scale = Scale {
        train_pairs_per_class: train_per_class,
        test_pairs_per_class: test_per_class,
        ..Scale::standard()
    };
    let exp = MusicExperiment { world, etype: EntityType::Artist };
    let split = exp.split(&scale, Scenario::Overlapping, false, seed);
    (exp, split)
}

/// `AdamelConfig::paper()` dimensions with a fixed epoch count. The paper's
/// learning rate (1e-4) is tuned for 100 epochs; a few epochs need 1e-3.
pub fn model_config(epochs: usize) -> AdamelConfig {
    AdamelConfig { epochs, learning_rate: 1e-3, ..AdamelConfig::paper() }
}

/// Trains an AdaMEL-hyb model on `split`. A traced run also times the
/// training layers through their public functions: the cold encode of the
/// three domains, the per-epoch remainder of `fit`, and one
/// `attention_encoded` pass over the target domain (Algorithm 1 line 5).
/// Returns the model and its final loss.
pub fn train_hyb(
    exp: &MusicExperiment,
    split: &MelSplit,
    epochs: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> (AdamelModel, f32) {
    let cfg = model_config(epochs);
    let mut model = AdamelModel::new(cfg.clone(), exp.schema());
    if !tracer.on() {
        let r =
            fit(&mut model, Variant::Hyb, &split.train, Some(&split.test), Some(&split.support));
        return (model, r.final_loss());
    }
    // `fit` encodes the three domains with a cold cache; a twin model with
    // the same extractor times that encode on its own.
    let twin = AdamelModel::new(cfg, exp.schema());
    let t = Instant::now();
    let (_, target_enc, _) = tracer.span("train.encode", || {
        (
            twin.encode(&split.train.pairs),
            twin.encode(&split.test.pairs),
            twin.encode(&split.support.pairs),
        )
    });
    let encode_ms = ms(t);
    let t = Instant::now();
    let r = tracer.span("train.fit", || {
        fit(&mut model, Variant::Hyb, &split.train, Some(&split.test), Some(&split.support))
    });
    let fit_ms = ms(t);
    let t = Instant::now();
    std::hint::black_box(tracer.span("train.attention", || model.attention_encoded(&target_enc)));
    report.set("train.encode_ms", encode_ms);
    report.set("train.epoch_ms", (fit_ms - encode_ms).max(0.0) / epochs.max(1) as f64);
    report.set("train.attention_ms", ms(t));
    (model, r.final_loss())
}

/// Seed of the world the linking workloads' model is trained on. The model
/// plays a deployed model: the same on every run, whatever records the
/// workload seed generates for it to link.
const DEPLOYED_SEED: u64 = 0x000a_dae1;

/// Artists in the deployed model's training world (the repro scale).
const DEPLOYED_ARTISTS: usize = 110;

/// The model the linking workloads serve: AdaMEL-hyb trained on a fixed
/// world, with its inference plan compiled so no timed call pays for it.
pub fn deployed_model(
    train_per_class: usize,
    test_per_class: usize,
    epochs: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> AdamelModel {
    let world = music_world(DEPLOYED_ARTISTS, DEPLOYED_SEED, tracer);
    let (exp, split) = mel_split(world, train_per_class, test_per_class, DEPLOYED_SEED);
    let (model, _) = train_hyb(&exp, &split, epochs, tracer, report);
    std::hint::black_box(model.predict(&split.test.pairs[..split.test.len().min(8)]));
    model
}

/// Pairs in the three training domains (train, target, support).
pub fn train_pairs(split: &MelSplit) -> usize {
    split.train.len() + split.test.len() + split.support.len()
}

/// `n` records drawn without replacement by a seeded shuffle, kept in
/// the world's order.
pub fn sample_records(records: &[Record], n: usize, seed: u64) -> Vec<Record> {
    let mut idx: Vec<usize> = (0..records.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    idx.truncate(n);
    idx.sort_unstable();
    idx.into_iter().map(|i| records[i].clone()).collect()
}

/// Artist records of the world whose source id satisfies `keep`: the
/// entity type the model is trained on.
pub fn records_from(world: &MusicWorld, keep: impl Fn(u32) -> bool) -> Vec<Record> {
    let mut artists = world.records_of(EntityType::Artist, None);
    artists.retain(|r| keep(r.source.0));
    artists
}

/// Matching-pair counts for an F1 against ground-truth `entity_id`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct F1Counts {
    /// Emitted matches whose two records share an entity.
    pub true_pos: u64,
    /// Emitted matches.
    pub emitted: u64,
    /// `(left, right)` pairs in the inputs that share an entity.
    pub relevant: u64,
}

impl F1Counts {
    /// Counts for `matches` (pairs of indices into `left` and `right`).
    pub fn of(
        left: &[Record],
        right: &[Record],
        matches: impl Iterator<Item = (usize, usize)>,
    ) -> Self {
        let mut per_entity = std::collections::HashMap::new();
        for r in right {
            *per_entity.entry(r.entity_id).or_insert(0u64) += 1;
        }
        let relevant =
            left.iter().map(|l| per_entity.get(&l.entity_id).copied().unwrap_or(0)).sum();
        let (mut true_pos, mut emitted) = (0, 0);
        for (li, ri) in matches {
            emitted += 1;
            if left[li].entity_id == right[ri].entity_id {
                true_pos += 1;
            }
        }
        Self { true_pos, emitted, relevant }
    }

    /// Adds another set of counts.
    pub fn add(&mut self, other: Self) {
        self.true_pos += other.true_pos;
        self.emitted += other.emitted;
        self.relevant += other.relevant;
    }

    /// Harmonic mean of precision and recall (0 when either is 0).
    pub fn f1(self) -> f64 {
        if self.true_pos == 0 {
            return 0.0;
        }
        let p = self.true_pos as f64 / self.emitted as f64;
        let r = self.true_pos as f64 / self.relevant as f64;
        2.0 * p * r / (p + r)
    }
}

/// Unlabeled pairs of each query with each of its candidates.
pub fn candidate_pairs(
    left: &[Record],
    right: &[Record],
    candidates: &[Vec<usize>],
) -> Vec<EntityPair> {
    left.iter()
        .zip(candidates)
        .flat_map(|(l, cands)| {
            cands.iter().map(|&ri| EntityPair::unlabeled(l.clone(), right[ri].clone()))
        })
        .collect()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamel_schema::SourceId;

    fn rec(source: u32, entity: u64) -> Record {
        Record::new(SourceId(source), entity)
    }

    #[test]
    fn f1_counts_every_relevant_pair() {
        let left = vec![rec(0, 1), rec(0, 2)];
        let right = vec![rec(3, 1), rec(4, 1), rec(3, 9)];
        let c = F1Counts::of(&left, &right, [(0, 0), (1, 2)].into_iter());
        assert_eq!((c.true_pos, c.emitted, c.relevant), (1, 2, 2));
        assert!((c.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_seeded_and_keeps_order() {
        let recs: Vec<Record> = (0..50).map(|i| rec(0, i)).collect();
        let a = sample_records(&recs, 10, 3);
        let b = sample_records(&recs, 10, 3);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0].entity_id < w[1].entity_id));
        assert_eq!(
            a.iter().map(|r| r.entity_id).collect::<Vec<_>>(),
            b.iter().map(|r| r.entity_id).collect::<Vec<_>>()
        );
    }
}
