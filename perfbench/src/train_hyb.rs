//! `train_hyb`: `fit(Variant::Hyb)` at paper dimensions on a music split,
//! for a fixed number of epochs, from a fresh model per sample.
//!
//! The re-training user. The only workload that runs autograd, Adam, the
//! backward GEMMs and the per-epoch attention and support-weight work; the
//! compiled inference plan only scores the test domain afterwards.

use crate::report::Report;
use crate::setup::{self, ms};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::Args;
use adamel::{evaluate_prauc, fit, AdamelModel, Variant};
use std::time::Instant;

struct Sizes {
    artists: usize,
    train_per_class: usize,
    test_per_class: usize,
    epochs: usize,
    setups: usize,
    min_samples: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                artists: 12,
                train_per_class: 20,
                test_per_class: 20,
                epochs: 1,
                setups: 2,
                min_samples: 2,
            }
        } else {
            Self {
                artists: 110,
                train_per_class: 150,
                test_per_class: 200,
                epochs: 2,
                setups: 9,
                min_samples: 3,
            }
        }
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report, tracer: &Tracer) {
    let sizes = Sizes::new(args.smoke);
    let setups = if report.traced() { 1 } else { sizes.setups };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..setups {
        let t = Instant::now();
        let world = setup::music_world(sizes.artists, args.seed, tracer);
        prepared =
            Some(setup::mel_split(world, sizes.train_per_class, sizes.test_per_class, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Some((exp, split)) = prepared else { return };
    report.set("data.generate_ms", tracer.total_ms("data.generate") / setups as f64);
    let pairs = setup::train_pairs(&split);
    let cfg = setup::model_config(sizes.epochs);

    if report.traced() {
        adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));
        let mut model = AdamelModel::new(cfg, exp.schema());
        let t = Instant::now();
        fit(&mut model, Variant::Hyb, &split.train, Some(&split.test), Some(&split.support));
        let base_ms = ms(t);
        adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
        adamel_obs::mem::reset_peaks();
        let (model, _) = setup::train_hyb(&exp, &split, sizes.epochs, tracer, report);
        report.set("trace.base_ms", base_ms);
        report.set("trace.overhead_ratio", tracer.total_ms("train.fit") / base_ms);
        report.set("encode.us_per_pair_cold", tracer.total_ms("train.encode") * 1e3 / pairs as f64);
        report.set("encode.interned_tokens", model.encode_cache_stats().interned_tokens as f64);
        crate::layers::mem_peaks(report);
        return;
    }

    let mut times = Vec::new();
    let mut results = Vec::new();
    let start = Instant::now();
    while times.len() < sizes.min_samples || start.elapsed().as_secs_f64() < args.seconds {
        let mut model = AdamelModel::new(cfg.clone(), exp.schema());
        let t = Instant::now();
        let r =
            fit(&mut model, Variant::Hyb, &split.train, Some(&split.test), Some(&split.support));
        times.push(ms(t));
        results.push((r.final_loss().to_bits(), evaluate_prauc(&model, &split.test).to_bits()));
    }
    let same = results.iter().all(|r| *r == results[0]);
    report.check(same, || format!("final loss or PRAUC bits differ across fits: {results:x?}"));
    let prauc = f64::from_bits(results[0].1);
    report.check(prauc.is_finite() && prauc > 0.0, || format!("test PRAUC is {prauc}"));

    let fit_ms = median(&times);
    let pairs_per_s = (sizes.epochs * pairs) as f64 / (fit_ms / 1e3);
    report.set("setup_s", median(&setup_s));
    report.set("pairs_per_s", pairs_per_s);
    report.set("op_p50_ms", fit_ms);
    report.set("op_p90_ms", quantile(&times, 0.9));
    report.set("quality", prauc);
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    report.set("ok_ratio", 1.0 - report.failed() as f64 / report.attempted().max(1) as f64);
    report.note_line(format!("sample_ms {times:.1?}"));
    report.note("train_pairs", pairs as f64, "pairs per epoch");
    report.note("train_pairs_per_s", pairs_per_s, "pairs/s");
    report.note("test_prauc", prauc, "ratio");
    report.note("final_loss", f64::from(f32::from_bits(results[0].0)), "loss");
}
