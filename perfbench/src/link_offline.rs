//! `link_offline`: one `Linker::link` call per sample, records of the seen
//! sources 0–2 against records of the unseen sources 3–6.
//!
//! The batch-linkage user. The forward pass does most of the work; every
//! call encodes cold (the encode cache is dropped before each sample, as
//! each batch brings new records).

use crate::report::{Report, MIB};
use crate::setup::{self, ms, F1Counts};
use crate::stats::{median, peak_rss_mb, quantile, Digest};
use crate::trace::Tracer;
use crate::Args;
use adamel::{Linker, LinkerConfig, MatchResult};
use adamel_schema::{BlockingIndex, Record};
use adamel_tensor::parallel;
use std::time::Instant;

struct Sizes {
    artists: usize,
    left: usize,
    right: usize,
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
                artists: 60,
                left: 100,
                right: 150,
                train_per_class: 100,
                test_per_class: 20,
                epochs: 3,
                setups: 2,
                min_samples: 2,
            }
        } else {
            Self {
                artists: 900,
                left: 1000,
                right: 2700,
                train_per_class: 100,
                test_per_class: 60,
                epochs: 3,
                setups: 3,
                min_samples: 4,
            }
        }
    }
}

/// One setup's product: the trained linker and its two record sides.
struct Prepared {
    linker: Linker,
    left: Vec<Record>,
    right: Vec<Record>,
}

fn prepare(sizes: &Sizes, seed: u64, tracer: &Tracer, report: &mut Report) -> Prepared {
    let world = setup::music_world(sizes.artists, seed, tracer);
    let left =
        setup::sample_records(&setup::records_from(&world, |s| s < 3), sizes.left, seed ^ 0x1e);
    let right =
        setup::sample_records(&setup::records_from(&world, |s| s >= 3), sizes.right, seed ^ 0x21);
    let model = setup::deployed_model(
        sizes.train_per_class,
        sizes.test_per_class,
        sizes.epochs,
        tracer,
        report,
    );
    Prepared { linker: Linker::new(model, LinkerConfig::default()), left, right }
}

fn block_attrs(linker: &Linker) -> Vec<&str> {
    linker.config().block_attrs.iter().map(String::as_str).collect()
}

/// Candidate lists exactly as `Linker::link` builds them.
fn candidates(linker: &Linker, left: &[Record], index: &BlockingIndex<'_>) -> Vec<Vec<usize>> {
    let attrs = block_attrs(linker);
    let cap = linker.config().max_candidates_per_record;
    parallel::parallel_map_collect(left.len(), cap * 64, |li| {
        index.candidates_for(&left[li], &attrs, cap)
    })
}

fn digest(matches: &[MatchResult]) -> u64 {
    let mut d = Digest::default();
    for m in matches {
        d.push(m.left as u64);
        d.push(m.right as u64);
        d.push(u64::from(m.score.to_bits()));
    }
    d.value()
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report, tracer: &Tracer) {
    let sizes = Sizes::new(args.smoke);
    let setups = if report.traced() { 1 } else { sizes.setups };
    let mut setup_s = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..setups {
        let t = Instant::now();
        prepared.push(prepare(&sizes, args.seed, tracer, report));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let first = &prepared[0];
    report.set("data.generate_ms", tracer.total_ms("data.generate") / setups as f64);
    let (left, right) = (&first.left, &first.right);
    let index = BlockingIndex::new(right, &block_attrs(&first.linker));
    let pairs: usize = candidates(&first.linker, left, &index).iter().map(Vec::len).sum();
    report.check(pairs > 0, || "blocking produced no candidate pairs".into());

    if report.traced() {
        traced(first, report, tracer);
        return;
    }

    // Samples rotate over the setups, so equal digests also show that
    // setup is deterministic.
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut counts = F1Counts::default();
    let start = Instant::now();
    while times.len() < sizes.min_samples || start.elapsed().as_secs_f64() < args.seconds {
        let p = &prepared[times.len() % prepared.len()];
        p.linker.model().clear_encode_cache();
        let t = Instant::now();
        let matches = p.linker.link(&p.left, &p.right);
        times.push(ms(t));
        digests.push(digest(&matches));
        counts = F1Counts::of(&p.left, &p.right, matches.iter().map(|m| (m.left, m.right)));
        report.check(!matches.is_empty(), || "link emitted no matches".into());
    }
    let f1 = counts.f1();
    let same = digests.iter().all(|d| *d == digests[0]);
    report.check(same, || format!("link digests differ across samples: {digests:x?}"));

    let link_ms = median(&times);
    let pairs_per_s = pairs as f64 / (link_ms / 1e3);
    report.set("setup_s", median(&setup_s));
    report.set("pairs_per_s", pairs_per_s);
    report.set("op_p50_ms", link_ms);
    report.set("op_p90_ms", quantile(&times, 0.9));
    report.set("quality", f1);
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    report.set("ok_ratio", 1.0 - report.failed() as f64 / report.attempted().max(1) as f64);
    report.note_line(format!("sample_ms {times:.1?}"));
    report.note("candidate_pairs", pairs as f64, "pairs");
    report.note("link_pairs_per_s", pairs_per_s, "pairs/s");
    report.note("link_f1", f1, "ratio");
    report.note_line(format!(
        "matches: {} emitted, {} true, {} true pairs in the inputs",
        counts.emitted, counts.true_pos, counts.relevant
    ));
}

/// The traced run, in two rounds: the workload untraced (the overhead
/// base), the workload traced, then each layer's public function on the
/// same input. Each figure is the median of its rounds.
fn traced(p: &Prepared, report: &mut Report, tracer: &Tracer) {
    let linker = &p.linker;
    let model = linker.model();
    let (left, right) = (&p.left, &p.right);
    let mut t: [Vec<f64>; 6] = Default::default();
    let (mut matches, mut pairs, mut matrix_mb) = (0, 0, 0.0);
    let mut time = |slot: usize, start: Instant| t[slot].push(ms(start));
    for _ in 0..2 {
        adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));
        model.clear_encode_cache();
        let start = Instant::now();
        std::hint::black_box(linker.link(left, right));
        time(0, start);
        adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
        adamel_obs::mem::reset_peaks();
        model.clear_encode_cache();
        let start = Instant::now();
        matches = tracer.span("link", || linker.link(left, right)).len();
        time(1, start);

        model.clear_encode_cache();
        let start = Instant::now();
        let attrs = block_attrs(linker);
        let index = tracer.span("blocking.index_build", || BlockingIndex::new(right, &attrs));
        time(2, start);
        let start = Instant::now();
        let cands = tracer.span("blocking.probe", || candidates(linker, left, &index));
        time(3, start);
        let batch = tracer.span("pipeline.pairs", || setup::candidate_pairs(left, right, &cands));
        let start = Instant::now();
        let encoded = tracer.span("encode.cold", || model.encode(&batch));
        time(4, start);
        let start = Instant::now();
        std::hint::black_box(tracer.span("forward", || model.predict_encoded(&encoded)));
        time(5, start);
        pairs = batch.len();
        matrix_mb = (encoded.rows() * encoded.cols() * 4) as f64 / MIB;
    }
    let [base_ms, link_ms, build_ms, probe_ms, encode_ms, forward_ms] = t.map(|v| median(&v));
    report.set("trace.base_ms", base_ms);
    report.set("trace.overhead_ratio", link_ms / base_ms);

    let n = pairs.max(1) as f64;
    let queries = left.len().max(1) as f64;
    let flops = model.per_row_flops() as f64;
    report.set("blocking.index_build_ms", build_ms);
    report.set("blocking.probe_us_per_query", probe_ms * 1e3 / queries);
    report.set("blocking.candidates_per_query", n / queries);
    report.set("blocking.match_yield", matches as f64 / n);
    report.set("encode.us_per_pair_cold", encode_ms * 1e3 / n);
    report.set("encode.matrix_mb", matrix_mb);
    report.set("encode.interned_tokens", model.encode_cache_stats().interned_tokens as f64);
    report.set("forward.us_per_pair", forward_ms * 1e3 / n);
    report.set("forward.flops_per_pair", flops);
    report.set("forward.gflops", flops * n / (forward_ms * 1e6));
    let layers_ms = build_ms + probe_ms + encode_ms + forward_ms;
    report.set("pipeline.self_ms", (link_ms - layers_ms).max(0.0));
    report.set("link.forward_share", forward_ms / link_ms);
    report.set("link.encode_share", encode_ms / link_ms);
    report.set("link.blocking_share", (build_ms + probe_ms) / link_ms);
    crate::layers::forward_gemms(model, tracer, report);
    crate::layers::mem_peaks(report);
    report.note("candidate_pairs", n, "pairs");
}
