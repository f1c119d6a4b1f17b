//! The Monitor world's documented C1/C2/C3 fingerprint must trip exactly
//! the corresponding drift monitors on a seeded run.
//!
//! * Control (seen-vs-seen training pairs): no C-signal fires.
//! * Unseen target sources: C2 (the target-only attributes) and C3 (shifted
//!   `prod_type` vocabulary + unseen filler phrases) fire, C1 does not —
//!   unseen sources actually *render more* attributes than seen ones, which
//!   never render the five target-only attributes.
//! * Seen pairs degraded with extra missingness: C1 fires alone — dropping
//!   values cannot introduce new attributes or new tokens.

use adamel::drift::{
    js_divergence, kl_divergence, mean_row_entropy, DriftBaseline, DriftMonitor, DriftSignal,
    SourceDrift, SCORE_BINS,
};
use adamel::{fit, AdamelConfig, AdamelModel, Variant};
use adamel_data::{
    degrade_pairs, make_mel_split, MonitorConfig, MonitorWorld, Scenario, SplitCounts,
};
use adamel_metrics::ece;
use adamel_schema::{Domain, EntityPair, SourceId};
use std::collections::BTreeSet;
use std::sync::OnceLock;

const SEED: u64 = 7;

struct Fixture {
    model: AdamelModel,
    monitor: DriftMonitor,
    train: Domain,
    test: Domain,
}

/// One shared fixture: training is the expensive step, and sharing it also
/// guarantees `fit` (which emits ledger events when a sink is forced) has
/// finished before the round-trip test turns the ledger on.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(build_fixture)
}

fn build_fixture() -> Fixture {
    let world = MonitorWorld::generate(&MonitorConfig::tiny(), SEED);
    let seen = world.seen_sources();
    let unseen = world.unseen_sources();
    let records = world.records_for(None);
    let split = make_mel_split(
        &records,
        "page_title",
        &seen,
        &unseen,
        Scenario::Disjoint,
        &SplitCounts::tiny(),
        SEED,
    );
    let mut model = AdamelModel::new(AdamelConfig::tiny(), world.schema().clone());
    fit(&mut model, Variant::Base, &split.train, None, None);
    // Vocabulary and missing-rate baseline over *all* seen-source records,
    // so the control's OOV rate is exactly zero.
    let pool = world.records_for(Some(&seen));
    let baseline = DriftBaseline::build_with_pool(&model, &split.train, &pool);
    let monitor = DriftMonitor::new(baseline);
    Fixture { model, monitor, train: split.train, test: split.test }
}

const C_SIGNALS: [DriftSignal; 3] =
    [DriftSignal::MissingRate, DriftSignal::NewAttributes, DriftSignal::OovRate];

/// Asserts the model-level fields of `d` equal, bit for bit, a recompute
/// that re-encodes and re-scores the source's pairs on their own (one
/// `attention` and one `predict` call per source).
fn assert_matches_per_source_recompute(
    model: &AdamelModel,
    baseline: &DriftBaseline,
    target: &Domain,
    d: &SourceDrift,
) {
    let touches = |p: &EntityPair| p.left.source == d.source || p.right.source == d.source;
    let subset: Vec<EntityPair> = target.pairs.iter().filter(|p| touches(p)).cloned().collect();
    let att = model.attention(&subset);
    let mean = att.mean_rows();
    let scores = model.predict(&subset);
    let labels: Vec<bool> = subset.iter().map(EntityPair::ground_truth).collect();
    let mut hist = [0u64; SCORE_BINS];
    for &s in &scores {
        let s = if s.is_finite() { f64::from(s).clamp(0.0, 1.0) } else { 0.0 };
        hist[((s * SCORE_BINS as f64) as usize).min(SCORE_BINS - 1)] += 1;
    }
    let expected = [
        ("attention_kl", kl_divergence(mean.as_slice(), &baseline.mean_attention), d.attention_kl),
        ("attention_js", js_divergence(mean.as_slice(), &baseline.mean_attention), d.attention_js),
        ("attention_entropy", mean_row_entropy(&att), d.attention_entropy),
        ("ece", ece(&scores, &labels, SCORE_BINS), d.ece),
    ];
    for (field, want, got) in expected {
        assert_eq!(got.to_bits(), want.to_bits(), "source {:?} {field}: {got} vs {want}", d.source);
    }
    assert_eq!(d.score_hist, hist, "source {:?} score_hist", d.source);
    assert_eq!(d.pairs, subset.len(), "source {:?} pairs", d.source);
}

#[test]
fn assess_is_bit_identical_to_a_per_source_recompute() {
    let fx = fixture();
    // The uniform-attention ablation covers a second attention head (a
    // softmax over zero energies) through the single scoring pass.
    let uniform_cfg = AdamelConfig::tiny().with_uniform_attention(true);
    let uniform = AdamelModel::new(uniform_cfg, fx.model.extractor().schema().clone());
    let uniform_monitor = DriftMonitor::new(DriftBaseline::build(&uniform, &fx.train));
    let mut checked = 0;
    for (model, monitor) in [(&fx.model, &fx.monitor), (&uniform, &uniform_monitor)] {
        for target in [&fx.train, &fx.test] {
            let drifts = monitor.assess(model, target);
            let sources: Vec<SourceId> = drifts.iter().map(|d| d.source).collect();
            assert_eq!(sources, target.sources().into_iter().collect::<Vec<_>>());
            for d in &drifts {
                assert_matches_per_source_recompute(model, &monitor.baseline, target, d);
                checked += 1;
            }
        }
    }
    assert!(checked >= 8, "only {checked} sources checked");
}

#[test]
fn control_seen_pairs_trip_no_c_signal() {
    let fx = fixture();
    let drifts = fx.monitor.assess(&fx.model, &fx.train);
    assert!(!drifts.is_empty());
    for d in &drifts {
        for sig in C_SIGNALS {
            assert!(
                !d.warned(sig),
                "control source {:?} tripped {} (value {:?})",
                d.source,
                sig.name(),
                d.warnings,
            );
        }
        assert!((d.oov_rate).abs() < 1e-12, "control OOV should be exactly 0, got {}", d.oov_rate);
    }
}

#[test]
fn unseen_sources_trip_c2_and_c3_but_not_c1() {
    let fx = fixture();
    let drifts = fx.monitor.assess(&fx.model, &fx.test);
    assert!(!drifts.is_empty());
    let mut union_new: BTreeSet<String> = BTreeSet::new();
    for d in &drifts {
        assert!(
            d.warned(DriftSignal::NewAttributes),
            "unseen source {:?} did not trip C2: new_attributes={:?}",
            d.source,
            d.new_attributes,
        );
        assert!(
            d.warned(DriftSignal::OovRate),
            "unseen source {:?} did not trip C3: oov_rate={}",
            d.source,
            d.oov_rate,
        );
        assert!(
            !d.warned(DriftSignal::MissingRate),
            "unseen source {:?} tripped C1: missing {} vs baseline {}",
            d.source,
            d.missing_rate,
            d.baseline_missing_rate,
        );
        for a in &d.new_attributes {
            assert!(
                adamel_data::monitor::TARGET_ONLY_ATTRIBUTES.contains(&a.as_str()),
                "unexpected new attribute {a}",
            );
            union_new.insert(a.clone());
        }
    }
    // Across all unseen sources, the new attributes are exactly the world's
    // five target-only attributes.
    let expected: BTreeSet<String> =
        adamel_data::monitor::TARGET_ONLY_ATTRIBUTES.iter().map(|s| s.to_string()).collect();
    assert_eq!(union_new, expected);
}

#[test]
fn degraded_seen_pairs_trip_c1_alone() {
    let fx = fixture();
    let degraded = Domain::new(degrade_pairs(&fx.train.pairs, 0.5, SEED));
    let drifts = fx.monitor.assess(&fx.model, &degraded);
    assert!(!drifts.is_empty());
    for d in &drifts {
        assert!(
            d.warned(DriftSignal::MissingRate),
            "degraded source {:?} did not trip C1: missing {} vs baseline {}",
            d.source,
            d.missing_rate,
            d.baseline_missing_rate,
        );
        assert!(!d.warned(DriftSignal::NewAttributes), "degradation introduced attributes?");
        assert!(
            !d.warned(DriftSignal::OovRate),
            "degradation introduced tokens? oov={}",
            d.oov_rate,
        );
    }
}

#[test]
fn drift_warnings_round_trip_through_the_ledger() {
    let fx = fixture();
    let drifts = fx.monitor.assess(&fx.model, &fx.test);

    let path =
        std::env::temp_dir().join(format!("adamel-drift-ledger-{}.jsonl", std::process::id()));
    let path_str = path.to_string_lossy().into_owned();
    adamel_obs::runlog::set_forced_path(Some(&path_str));
    for d in &drifts {
        d.emit_runlog();
    }
    adamel_obs::runlog::flush();
    adamel_obs::runlog::set_forced_path(Some("")); // forced off for the rest of the process

    let text = std::fs::read_to_string(&path).expect("ledger file");
    let _ = std::fs::remove_file(&path);
    let mut drift_events = 0usize;
    let mut warn_signals: BTreeSet<String> = BTreeSet::new();
    for line in text.lines() {
        let v = adamel_obs::json::Json::parse(line).expect("ledger line parses");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(adamel_obs::runlog::SCHEMA),);
        match v.get("event").and_then(|e| e.as_str()) {
            Some("drift") => drift_events += 1,
            Some("warn") => {
                let sig = v.get("signal").and_then(|s| s.as_str()).expect("warn has signal");
                warn_signals.insert(sig.to_string());
            }
            other => panic!("unexpected ledger event {other:?}"),
        }
    }
    assert_eq!(drift_events, drifts.len());
    // The unseen fingerprint: C2 and C3 warnings present, C1 absent.
    assert!(warn_signals.contains("c2_new_attributes"), "signals: {warn_signals:?}");
    assert!(warn_signals.contains("c3_oov_rate"), "signals: {warn_signals:?}");
    assert!(!warn_signals.contains("c1_missing_rate"), "signals: {warn_signals:?}");
}
