//! The compiled inference plan must be invisible: replaying the tape-free
//! [`CompiledPlan`] program chunk by chunk must produce **bit-identical**
//! scores and attention distributions to recording one autograd graph over
//! the whole batch, at every chunk-boundary batch size, in every feature
//! mode, at every thread count, and after parameters change. The plan is
//! the only inference path: the uniform-attention ablation replays it too.

use adamel::config::AdamelConfig;
use adamel::model::AdamelModel;
use adamel::{fit, Variant};
use adamel_obs::TraceLevel;
use adamel_schema::{Domain, EntityPair, FeatureMode, Record, Schema, SourceId};
use adamel_tensor::{parallel, Graph, Matrix};

fn rec(source: u32, id: u64, name: &str, city: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r.set("city", city);
    r
}

/// `n` synthetic pairs mixing matches, non-matches, and missing values.
fn pairs_n(n: u64) -> Vec<EntityPair> {
    let names = ["acme corp", "globex", "initech", "umbrella", "hooli", "stark"];
    let cities = ["berlin", "tokyo", "lima", ""];
    (0..n)
        .map(|i| {
            let nm = names[(i % 6) as usize];
            let c = cities[(i % 4) as usize];
            let other = names[((i + 1) % 6) as usize];
            let left = rec(0, i, nm, c);
            let right = if i % 3 == 0 { rec(1, i, nm, c) } else { rec(1, i, other, c) };
            EntityPair::unlabeled(left, right)
        })
        .collect()
}

fn schema() -> Schema {
    Schema::new(vec!["name".into(), "city".into()])
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|v| v.to_bits()).collect()
}

/// The tape reference: one autograd graph recorded over the whole batch,
/// read as sigmoid scores and attention rows.
fn tape(m: &AdamelModel, encoded: &Matrix) -> (Vec<f32>, Matrix) {
    let mut g = Graph::new();
    let (attention, logits) = m.forward_graph(&mut g, encoded.clone());
    let scores = g.value(logits).as_slice().iter().map(|&z| 1.0 / (1.0 + (-z).exp())).collect();
    (scores, g.value(attention).clone())
}

/// Asserts plan and tape agree bit-for-bit on both inference surfaces.
fn assert_plan_matches_tape(m: &AdamelModel, n: u64, label: &str) {
    let encoded = m.encode(&pairs_n(n));
    let (tape_scores, tape_att) = tape(m, &encoded);

    let plan_scores = m.predict_encoded(&encoded);
    assert_eq!(
        bits(&plan_scores),
        bits(&tape_scores),
        "{label}: plan scores drifted from tape at n = {n}"
    );

    let plan_att = m.attention_encoded(&encoded);
    assert_eq!(plan_att.shape(), tape_att.shape(), "{label}: attention shape at n = {n}");
    assert_eq!(
        bits(plan_att.as_slice()),
        bits(tape_att.as_slice()),
        "{label}: plan attention drifted from tape at n = {n}"
    );
}

#[test]
fn plan_matches_tape_at_chunk_boundaries() {
    // One below, exactly at, one above, and a multiple of the 512-row chunk
    // size: every split point of the plan's chunk loop is exercised.
    let m = AdamelModel::new(AdamelConfig::tiny(), schema());
    for n in [511u64, 512, 513, 1024] {
        assert_plan_matches_tape(&m, n, "boundaries");
    }
}

#[test]
fn plan_matches_tape_across_feature_modes() {
    for mode in [FeatureMode::SharedOnly, FeatureMode::UniqueOnly, FeatureMode::Both] {
        let cfg = AdamelConfig::tiny().with_feature_mode(mode);
        let m = AdamelModel::new(cfg, schema());
        assert_plan_matches_tape(&m, 600, &format!("{mode:?}"));
    }
}

#[test]
fn plan_is_thread_count_invariant() {
    let m = AdamelModel::new(AdamelConfig::tiny(), schema());
    let encoded = m.encode(&pairs_n(1024));
    let base = parallel::with_threads(1, || m.predict_encoded(&encoded));
    let base_att = parallel::with_threads(1, || m.attention_encoded(&encoded));
    for t in [2, 4, 8] {
        let scores = parallel::with_threads(t, || m.predict_encoded(&encoded));
        assert_eq!(bits(&base), bits(&scores), "plan scores vary at {t} threads");
        let att = parallel::with_threads(t, || m.attention_encoded(&encoded));
        assert_eq!(
            bits(base_att.as_slice()),
            bits(att.as_slice()),
            "plan attention varies at {t} threads"
        );
    }
}

#[test]
fn uniform_attention_replays_the_plan() {
    // The ablation softmaxes a row of zeros, so its graph compiles like the
    // learned one: every call replays the plan and the attention is exactly
    // 1/F on both sides of a chunk boundary. Other tests in this binary may
    // replay concurrently while tracing is forced on; that can only add to
    // the count, never hide a replay.
    let cfg = AdamelConfig::tiny().with_uniform_attention(true);
    let m = AdamelModel::new(cfg, schema());
    let uniform = 1.0 / m.extractor().num_features() as f32;
    adamel_obs::set_forced(Some(TraceLevel::Spans));
    for n in [511u64, 512, 513] {
        let encoded = m.encode(&pairs_n(n));
        let before = adamel_obs::counter_value("plan.replays").unwrap_or(0);
        let (scores, att) = (m.predict_encoded(&encoded), m.attention_encoded(&encoded));
        let after = adamel_obs::counter_value("plan.replays").unwrap_or(0);
        assert!(after > before, "n = {n}: the ablation did not replay the plan");
        assert!(att.as_slice().iter().all(|&v| v == uniform), "n = {n}: attention is not 1/F");
        let (tape_scores, tape_att) = tape(&m, &encoded);
        assert_eq!(bits(&scores), bits(&tape_scores), "n = {n}: scores drifted from tape");
        assert_eq!(bits(att.as_slice()), bits(tape_att.as_slice()), "n = {n}: attention");
    }
    adamel_obs::set_forced(None);
}

#[test]
fn plan_stays_valid_after_training() {
    // Compile the plan against the freshly initialized parameters, then
    // mutate every parameter by training; the plan reads parameters live,
    // so replay must track the trained weights bit-for-bit.
    let mut m = AdamelModel::new(AdamelConfig::tiny(), schema());
    let before = m.predict(&pairs_n(16)); // forces plan compilation
    assert_eq!(before.len(), 16);

    let train: Vec<EntityPair> = pairs_n(24)
        .into_iter()
        .enumerate()
        .map(|(i, p)| EntityPair::labeled(p.left, p.right, i % 3 == 0))
        .collect();
    fit(&mut m, Variant::Base, &Domain::new(train), None, None);

    assert_plan_matches_tape(&m, 513, "post-training");

    // And after restoring a snapshot (best-model tracking path).
    let snapshot = m.snapshot_params();
    m.restore_params(&snapshot).expect("round-trip restore");
    assert_plan_matches_tape(&m, 40, "post-restore");
}

/// Asserts the fused single-pass outputs of [`AdamelModel::score`] equal
/// every single-output path and the tape reference bit for bit, at 1, 2
/// and 4 threads.
fn assert_fused_matches_single_outputs(m: &AdamelModel, n: u64, label: &str) {
    let pairs = pairs_n(n);
    let encoded = m.encode(&pairs);
    let (tape_scores, tape_att) = tape(m, &encoded);
    let scores = [m.predict_encoded(&encoded), tape_scores];
    let attention = [m.attention_encoded(&encoded), tape_att];
    for t in [1, 2, 4] {
        let scored = parallel::with_threads(t, || m.score(pairs.clone()));
        assert_eq!(scored.len(), pairs.len(), "{label}: pair count at {t} threads");
        for reference in &scores {
            assert_eq!(bits(scored.scores()), bits(reference), "{label}: scores at {t} threads");
        }
        for reference in &attention {
            assert_eq!(scored.attention().shape(), reference.shape(), "{label}: attention shape");
            assert_eq!(
                bits(scored.attention().as_slice()),
                bits(reference.as_slice()),
                "{label}: attention at {t} threads"
            );
        }
    }
}

#[test]
fn fused_score_matches_predict_and_attention_across_chunks_and_threads() {
    // 1100 rows span three 512-row chunks, the last one ragged.
    let m = AdamelModel::new(AdamelConfig::tiny(), schema());
    assert_fused_matches_single_outputs(&m, 1100, "learned");
    let cfg = AdamelConfig::tiny().with_uniform_attention(true);
    assert_fused_matches_single_outputs(&AdamelModel::new(cfg, schema()), 1100, "uniform");
}

#[test]
fn fused_score_of_no_pairs_is_empty() {
    let m = AdamelModel::new(AdamelConfig::tiny(), schema());
    let scored = m.score(Vec::new());
    assert!(scored.is_empty() && scored.scores().is_empty());
    assert_eq!(scored.attention().shape(), (0, m.extractor().num_features()));
}
