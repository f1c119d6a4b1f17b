//! Emits `BENCH_parallel.json` (or `--out <path>`): serial-vs-parallel
//! timings for the matmul kernels (with achieved GFLOP/s per row), batch
//! pair encoding, and end-to-end prediction at 1/2/4/8 worker threads —
//! the latter measured both through the compiled inference plan
//! (`predict_plan`, also the headline `predict` row) and the local
//! graph-per-chunk reference [`predict_tape`]. Pair encoding is measured three
//! ways — `encode_pairs_cold` (record-level cache dropped before every
//! run), `encode_pairs` (the headline warm row), and `encode_pairs_cached`
//! (explicit warm phase whose hit/miss deltas feed the `"cache"` section:
//! hit-rate, distinct-record count, interned-token count). A `serve_latency`
//! row measures one `POST /link` round-trip through an in-process
//! `adamel-serve` daemon over a loopback socket, and `encode_build_cold`
//! isolates the vocabulary-build phase (intern + embed) from scratch.
//!
//! Every row also carries a `peak_bytes` column: after the timed reps
//! (tracing forced off), one untimed probe run at forced `spans` level
//! resets the memory-ledger peaks, reruns the workload, and reads
//! `mem::peak_total()`. A top-level `"mem"` section (`adamel-mem/v1`)
//! summarizes the max row peak and the final per-gauge peaks;
//! `adamel-report validate-bench --mem-baseline` gates on both.
//!
//! Thread counts are forced with [`parallel::with_threads`], which also
//! bypasses the serial-fallback FLOP threshold, so every row measures the
//! dispatch path it claims to. `host_parallelism` is recorded because
//! speedups are only meaningful relative to the physical cores available —
//! on a single-core container every multi-thread row just measures dispatch
//! overhead.
//!
//! With `--obs`, an instrumented exercise pass (encode, chunked predict,
//! attention, a small AdaMEL-hyb training run, and a `Linker::link` call)
//! runs after the timed benches and its `adamel-obs` span report is embedded
//! under the `"obs"` key. Timed benches always run with tracing forced off
//! so `ADAMEL_TRACE=full` cannot pollute the numbers; the exercise pass uses
//! the environment level (bumped to `full` if tracing is off).

use adamel::config::{AdamelConfig, Variant};
use adamel::model::AdamelModel;
use adamel::pipeline::{Linker, LinkerConfig};
use adamel::train::fit;
use adamel_schema::{Domain, EntityPair, Record, Schema, SourceId};
use adamel_tensor::{parallel, sanitize, Graph, Matrix};
use rand::{Rng, SeedableRng};
use std::time::Instant;

const THREADS: &[usize] = &[1, 2, 4, 8];
const MATMUL_M: usize = 4096;
const NUM_PAIRS: usize = 10_000;

/// `--smoke` sizes: same schema, small enough for a CI smoke test that
/// only checks the JSON shape, not the timings.
const SMOKE_THREADS: &[usize] = &[1, 2];
const SMOKE_MATMUL_M: usize = 128;
const SMOKE_NUM_PAIRS: usize = 200;

struct Row {
    kernel: &'static str,
    n: usize,
    threads: usize,
    ms: f64,
    /// Arithmetic work per run; 0 for rows that are not compute kernels
    /// (encoding, overhead pairs). Nonzero rows get a `gflops` column.
    flops: u64,
    /// Summed mem-gauge high-water mark of one untimed probe run (see
    /// [`bench()`]); the `adamel-report` memory gate trends this column.
    peak_bytes: u64,
}

/// Rows per chunk of the [`predict_tape`] reference: the model's inference
/// chunk size, so both predict rows split the batch identically.
const TAPE_CHUNK_ROWS: usize = 512;

/// The `predict_tape` reference: records a fresh autograd graph over every
/// [`TAPE_CHUNK_ROWS`] block on the parallel runtime and reads the scores
/// from it — the per-chunk graph construction the compiled plan removes.
fn predict_tape(model: &AdamelModel, encoded: &Matrix) -> Vec<f32> {
    let n = encoded.rows();
    let blocks = n.div_ceil(TAPE_CHUNK_ROWS);
    let chunks =
        parallel::parallel_map_collect(blocks, TAPE_CHUNK_ROWS * model.per_row_flops(), |b| {
            let start = b * TAPE_CHUNK_ROWS;
            let mut g = Graph::new();
            let chunk = encoded.slice_rows(start, TAPE_CHUNK_ROWS.min(n - start));
            let (_, logits) = model.forward_graph(&mut g, chunk);
            g.value(logits).as_slice().iter().map(|&z| 1.0 / (1.0 + (-z).exp())).collect::<Vec<_>>()
        });
    chunks.concat()
}

/// Best-of-`reps` wall time in milliseconds, with one untimed warm-up.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One untimed probe run of `f` at `Spans` level, returning the summed
/// mem-gauge high-water mark it produced. Peaks are windowed per probe
/// ([`adamel_obs::mem::reset_peaks`]), and the forced level is restored
/// to `Off` afterwards so timed reps never pay for the ledger.
fn probe_peak_bytes(mut f: impl FnMut()) -> u64 {
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
    adamel_obs::mem::reset_peaks();
    f();
    let peak = adamel_obs::mem::peak_total();
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));
    peak
}

/// Times `f` (tracing off) and then probes its memory footprint (one
/// extra run at `Spans`): the standard measurement for one bench row.
fn bench(reps: usize, mut f: impl FnMut()) -> (f64, u64) {
    let ms = time_ms(reps, &mut f);
    let peak_bytes = probe_peak_bytes(f);
    (ms, peak_bytes)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// 13-attribute schema with short multi-word values, mirroring the paper's
/// Adobe-domain attribute count.
fn synth_pairs(n: usize) -> (Schema, Vec<EntityPair>) {
    let attrs: Vec<String> = (0..13).map(|i| format!("attr{i:02}")).collect();
    let schema = Schema::new(attrs.clone());
    let vocab = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
        "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut pairs = Vec::with_capacity(n);
    for i in 0..n {
        let mut left = Record::new(SourceId(0), i as u64);
        let mut right = Record::new(SourceId(1), i as u64);
        for attr in &attrs {
            // ~10% of attribute values are missing on each side.
            if rng.gen_range(0u32..10) > 0 {
                let words: Vec<&str> =
                    (0..3).map(|_| vocab[rng.gen_range(0usize..vocab.len())]).collect();
                left.set(attr, words.join(" "));
                // Half the pairs share the value; half perturb one word.
                let mut rwords = words.clone();
                if rng.gen_range(0u32..2) == 0 {
                    rwords[0] = vocab[rng.gen_range(0usize..vocab.len())];
                }
                right.set(attr, rwords.join(" "));
            }
        }
        pairs.push(EntityPair::unlabeled(left, right));
    }
    (schema, pairs)
}

/// Runs every instrumented hot path once so the `--obs` report covers the
/// encode, attention, classifier, train-epoch, predict, and linking spans:
/// a small AdaMEL-hyb training run on a separable toy task, a chunked
/// (>512-row) predict over the synthetic paper-shaped pairs, an attention
/// pass, and an end-to-end `Linker::link` call.
fn run_obs_exercise(chunk_model: &AdamelModel, pairs: &[EntityPair]) {
    // Chunked predict + attention on the 13-attribute synthetic pairs
    // (600 rows > the 512-row chunk size, so the chunked path is exercised).
    let sample = &pairs[..600.min(pairs.len())];
    std::hint::black_box(chunk_model.predict(sample));
    std::hint::black_box(chunk_model.attention(&sample[..16.min(sample.len())]));

    // A tiny labeled task (same shape as the training unit tests) drives
    // the per-epoch telemetry: base/KL/support loss components, support
    // weights, and grad norms at `full`.
    let names = ["alpha beta", "gamma delta", "epsilon zeta", "eta theta", "iota kappa"];
    let rec = |source: u32, id: u64, name: &str| {
        let mut r = Record::new(SourceId(source), id);
        r.set("name", name);
        r
    };
    let mut train = Vec::new();
    let mut id = 0u64;
    for n in names {
        train.push(EntityPair::labeled(rec(0, id, n), rec(1, id, n), true));
        id += 1;
    }
    for (i, n) in names.iter().enumerate() {
        let other = names[(i + 1) % names.len()];
        train.push(EntityPair::labeled(rec(0, id, n), rec(1, id + 1, other), false));
        id += 2;
    }
    let target = Domain::new(
        train.iter().map(|p| EntityPair::unlabeled(p.left.clone(), p.right.clone())).collect(),
    );
    let support = Domain::new(train[..4].to_vec());
    let schema = Schema::new(vec!["name".into()]);
    let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
    fit(&mut model, Variant::Hyb, &Domain::new(train), Some(&target), Some(&support));

    // End-to-end linking: blocking + batch scoring + thresholding.
    let left: Vec<Record> =
        names.iter().enumerate().map(|(i, n)| rec(0, 100 + i as u64, n)).collect();
    let right: Vec<Record> =
        names.iter().enumerate().map(|(i, n)| rec(1, 200 + i as u64, n)).collect();
    let linker = Linker::new(model, LinkerConfig::default());
    std::hint::black_box(linker.link(&left, &right));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_parallel.json");
    let mut obs_mode = false;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--obs" => obs_mode = true,
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => {
                        eprintln!("perfjson: --out requires a path argument");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "perfjson: unknown argument `{other}` (expected --obs, --smoke, --out <path>)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let threads: &[usize] = if smoke { SMOKE_THREADS } else { THREADS };
    let matmul_m = if smoke { SMOKE_MATMUL_M } else { MATMUL_M };
    let num_pairs = if smoke { SMOKE_NUM_PAIRS } else { NUM_PAIRS };

    // Timed benches run with tracing forced off: a `full`-level environment
    // would otherwise add per-op span recording to every measured row.
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));

    let mut rows: Vec<Row> = Vec::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // --- matmul kernels at paper-scale inner dims (300 -> 256) ---
    let a = random_matrix(matmul_m, 300, &mut rng);
    let b = random_matrix(300, 256, &mut rng);
    let b_t = random_matrix(256, 300, &mut rng);
    let a_tall = random_matrix(matmul_m, 256, &mut rng);
    // All three variants compute an (m x 300)·(300 x 256)-shaped product.
    let gemm_flops = 2 * matmul_m as u64 * 300 * 256;
    for &t in threads {
        let (ms, peak_bytes) = bench(3, || {
            parallel::with_threads(t, || std::hint::black_box(a.matmul(&b)));
        });
        rows.push(Row {
            kernel: "matmul",
            n: matmul_m,
            threads: t,
            ms,
            flops: gemm_flops,
            peak_bytes,
        });
    }
    for &t in threads {
        let (ms, peak_bytes) = bench(3, || {
            parallel::with_threads(t, || std::hint::black_box(a.matmul_tn(&a_tall)));
        });
        rows.push(Row {
            kernel: "matmul_tn",
            n: matmul_m,
            threads: t,
            ms,
            flops: gemm_flops,
            peak_bytes,
        });
    }
    for &t in threads {
        let (ms, peak_bytes) = bench(3, || {
            parallel::with_threads(t, || std::hint::black_box(a.matmul_nt(&b_t)));
        });
        rows.push(Row {
            kernel: "matmul_nt",
            n: matmul_m,
            threads: t,
            ms,
            flops: gemm_flops,
            peak_bytes,
        });
    }

    // --- pair encoding and end-to-end prediction at paper dims ---
    let (schema, pairs) = synth_pairs(num_pairs);
    let model = AdamelModel::new(AdamelConfig::paper(), schema.clone());
    let extractor = model.extractor().clone();
    // Cold: the record-level cache is dropped before every run, so each
    // measurement pays full tokenize/hash/embed for every distinct record.
    for &t in threads {
        let (ms, peak_bytes) = bench(1, || {
            extractor.clear_cache();
            parallel::with_threads(t, || std::hint::black_box(extractor.encode_pairs(&pairs)));
        });
        rows.push(Row {
            kernel: "encode_pairs_cold",
            n: num_pairs,
            threads: t,
            ms,
            flops: 0,
            peak_bytes,
        });
    }
    // Cold vocabulary build in isolation: intern a batch of distinct
    // tokens into a fresh `TokenVocab` and compute every embedding row.
    // This is the `encode.embed_hash` hot spot (n-gram hashing per
    // first-seen token) without the rest of the encode pipeline, so cold
    // builds can be trended independently of cache behaviour.
    let build_tokens: Vec<String> =
        (0..if smoke { 500 } else { 5000 }).map(|i| format!("token{i:05}")).collect();
    for &t in threads {
        let (ms, peak_bytes) = bench(1, || {
            let mut vocab = adamel_text::TokenVocab::new(adamel_text::HashedFastText::new(300, 7));
            for tok in &build_tokens {
                vocab.intern_deferred(tok);
            }
            parallel::with_threads(t, || vocab.compute_pending());
            std::hint::black_box(vocab.len());
        });
        rows.push(Row {
            kernel: "encode_build_cold",
            n: build_tokens.len(),
            threads: t,
            ms,
            flops: 0,
            peak_bytes,
        });
    }
    // Warm the cache once, then measure the pure cached path. The headline
    // `encode_pairs` row also measures warm (time_ms warms up before
    // timing), keeping it comparable across pre/post-cache revisions.
    extractor.clear_cache();
    std::hint::black_box(extractor.encode_pairs(&pairs));
    for &t in threads {
        let (ms, peak_bytes) = bench(1, || {
            parallel::with_threads(t, || std::hint::black_box(extractor.encode_pairs(&pairs)));
        });
        rows.push(Row {
            kernel: "encode_pairs",
            n: num_pairs,
            threads: t,
            ms,
            flops: 0,
            peak_bytes,
        });
    }
    // Stats deltas around the cached phase give the report's hit-rate: with
    // a working cache every record reference here is a hit (rate 1.0).
    let cache_before = extractor.cache_stats();
    for &t in threads {
        let (ms, peak_bytes) = bench(1, || {
            parallel::with_threads(t, || std::hint::black_box(extractor.encode_pairs(&pairs)));
        });
        rows.push(Row {
            kernel: "encode_pairs_cached",
            n: num_pairs,
            threads: t,
            ms,
            flops: 0,
            peak_bytes,
        });
    }
    let cache_after = extractor.cache_stats();
    let warm_hits = cache_after.hits - cache_before.hits;
    let warm_misses = cache_after.misses - cache_before.misses;
    let warm_hit_rate = if warm_hits + warm_misses == 0 {
        0.0
    } else {
        warm_hits as f64 / (warm_hits + warm_misses) as f64
    };
    let encoded = extractor.encode_pairs(&pairs);
    let predict_flops = num_pairs as u64 * model.per_row_flops() as u64;
    for &t in threads {
        let (ms, peak_bytes) = bench(1, || {
            parallel::with_threads(t, || std::hint::black_box(model.predict_encoded(&encoded)));
        });
        rows.push(Row {
            kernel: "predict",
            n: num_pairs,
            threads: t,
            ms,
            flops: predict_flops,
            peak_bytes,
        });
    }

    // --- compiled-plan vs tape inference pair: `predict` above routes
    // through the plan, so `predict_plan` re-measures the same path under
    // its explicit name and `predict_tape` measures the local graph-per-chunk
    // reference. The bench gate requires plan <= tape * 1.10. ---
    for &t in threads {
        let (ms, peak_bytes) = bench(1, || {
            parallel::with_threads(t, || std::hint::black_box(model.predict_encoded(&encoded)));
        });
        rows.push(Row {
            kernel: "predict_plan",
            n: num_pairs,
            threads: t,
            ms,
            flops: predict_flops,
            peak_bytes,
        });
    }
    for &t in threads {
        let (ms, peak_bytes) = bench(1, || {
            parallel::with_threads(t, || std::hint::black_box(predict_tape(&model, &encoded)));
        });
        rows.push(Row {
            kernel: "predict_tape",
            n: num_pairs,
            threads: t,
            ms,
            flops: predict_flops,
            peak_bytes,
        });
    }

    // --- sanitizer overhead pair: the same single-thread prediction with
    // the numerics sanitizer forced off vs on. Off must be indistinguishable
    // from the plain predict row (one predictable branch per tape op); on
    // pays one extra pass over each op's output. ---
    sanitize::set_forced(Some(false));
    let (sanitize_off_ms, sanitize_off_peak) = bench(3, || {
        parallel::with_threads(1, || std::hint::black_box(model.predict_encoded(&encoded)));
    });
    rows.push(Row {
        kernel: "predict_sanitize_off",
        n: num_pairs,
        threads: 1,
        ms: sanitize_off_ms,
        flops: 0,
        peak_bytes: sanitize_off_peak,
    });
    sanitize::set_forced(Some(true));
    let (sanitize_on_ms, sanitize_on_peak) = bench(3, || {
        parallel::with_threads(1, || std::hint::black_box(model.predict_encoded(&encoded)));
    });
    rows.push(Row {
        kernel: "predict_sanitize_on",
        n: num_pairs,
        threads: 1,
        ms: sanitize_on_ms,
        flops: 0,
        peak_bytes: sanitize_on_peak,
    });
    sanitize::set_forced(None);

    // --- trace overhead pair: the same prediction with observability off vs
    // `full`. Off must be indistinguishable from plain predict (one relaxed
    // atomic load per probe); full pays a span per tape op. ---
    let (trace_off_ms, trace_off_peak) = bench(3, || {
        parallel::with_threads(1, || std::hint::black_box(model.predict_encoded(&encoded)));
    });
    rows.push(Row {
        kernel: "predict_trace_off",
        n: num_pairs,
        threads: 1,
        ms: trace_off_ms,
        flops: 0,
        peak_bytes: trace_off_peak,
    });
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Full));
    let trace_full_ms = time_ms(3, || {
        parallel::with_threads(1, || std::hint::black_box(model.predict_encoded(&encoded)));
    });
    let trace_full_peak = probe_peak_bytes(|| {
        parallel::with_threads(1, || std::hint::black_box(model.predict_encoded(&encoded)));
    });
    rows.push(Row {
        kernel: "predict_trace_full",
        n: num_pairs,
        threads: 1,
        ms: trace_full_ms,
        flops: 0,
        peak_bytes: trace_full_peak,
    });
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));

    // --- served link latency: one `POST /link` round-trip over a real
    // socket through the `adamel-serve` daemon — HTTP parse, LiveIndex
    // blocking, CompiledPlan scoring, JSONL response. Measured at a fixed
    // batch size on a loopback connection per rep, so the row tracks the
    // daemon's end-to-end overhead on top of the `predict` rows above. ---
    let serve_batch = if smoke { 4 } else { 16 };
    let serve_corpus = if smoke { 64 } else { 512 };
    let (serve_ms, serve_peak) = {
        use adamel_serve::{Engine, EngineConfig, RecordLine, Server, ServerConfig};
        use std::io::{Read as _, Write as _};
        let serve_model = AdamelModel::new(AdamelConfig::paper(), schema.clone());
        // The synthetic schema has no "name" attribute; block on attr00 so
        // candidates actually exist.
        let cfg = LinkerConfig { block_attrs: vec!["attr00".into()], ..LinkerConfig::default() };
        let engine = std::sync::Arc::new(Engine::new(
            Linker::new(serve_model, cfg),
            EngineConfig::default(),
        ));
        engine.upsert(pairs[..serve_corpus].iter().map(|p| p.right.clone()).collect());
        let server = Server::start(engine, ServerConfig::default())
            .unwrap_or_else(|e| panic!("serve bench: bind: {e}"));
        let addr = server.addr();
        let body: String = pairs[..serve_batch]
            .iter()
            .map(|p| {
                let line = RecordLine {
                    source: p.left.source.0,
                    entity_id: p.left.entity_id,
                    values: p.left.values.clone(),
                };
                line.to_json() + "\n"
            })
            .collect();
        let (ms, peak) = bench(if smoke { 2 } else { 5 }, || {
            let mut s = std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("serve bench: connect: {e}"));
            write!(
                s,
                "POST /link HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap_or_else(|e| panic!("serve bench: send: {e}"));
            let mut response = String::new();
            s.read_to_string(&mut response).unwrap_or_else(|e| panic!("serve bench: recv: {e}"));
            assert!(response.starts_with("HTTP/1.1 200"), "serve bench: {response}");
            std::hint::black_box(response.len());
        });
        server.shutdown().unwrap_or_else(|e| panic!("serve bench: shutdown: {e}"));
        (ms, peak)
    };
    rows.push(Row {
        kernel: "serve_latency",
        n: serve_batch,
        threads: 1,
        ms: serve_ms,
        flops: 0,
        peak_bytes: serve_peak,
    });

    // --- optional instrumented exercise pass (--obs) ---
    let obs_json = if obs_mode {
        // Hand control back to ADAMEL_TRACE; bump to `full` if that leaves
        // tracing off, so `--obs` alone still produces a useful report.
        adamel_obs::set_forced(None);
        if !adamel_obs::enabled() {
            adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Full));
        }
        adamel_obs::report::reset();
        run_obs_exercise(&model, &pairs);
        let json = adamel_obs::report::render_json();
        adamel_obs::set_forced(None);
        Some(json)
    } else {
        None
    };

    // --- emit JSON (hand-written: no serialization dependency) ---
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host_parallelism\": {},\n", parallel::host_parallelism()));
    out.push_str(&format!(
        "  \"sanitize\": {{\"off_ms\": {:.3}, \"on_ms\": {:.3}, \"on_over_off\": {:.3}}},\n",
        sanitize_off_ms,
        sanitize_on_ms,
        if sanitize_off_ms > 0.0 { sanitize_on_ms / sanitize_off_ms } else { 1.0 }
    ));
    out.push_str(&format!(
        "  \"trace\": {{\"off_ms\": {:.3}, \"full_ms\": {:.3}, \"full_over_off\": {:.3}}},\n",
        trace_off_ms,
        trace_full_ms,
        if trace_off_ms > 0.0 { trace_full_ms / trace_off_ms } else { 1.0 }
    ));
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}, \"distinct_records\": {}, \"interned_tokens\": {}}},\n",
        warm_hits,
        warm_misses,
        warm_hit_rate,
        cache_after.distinct_records,
        cache_after.interned_tokens
    ));
    // Memory summary: the largest per-row probe peak plus the final gauge
    // snapshot (probe runs populate the ledger even though timed reps stay
    // at forced Off, so this section never needs --obs).
    let max_row_peak = rows.iter().map(|r| r.peak_bytes).max().unwrap_or(0);
    out.push_str(&format!(
        "  \"mem\": {{\"schema\": \"adamel-mem/v1\", \"max_row_peak_bytes\": {max_row_peak}, \"gauges\": {{"
    ));
    for (i, (name, gauge)) in adamel_obs::mem::snapshot().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"current\": {}, \"peak\": {}}}",
            adamel_obs::json::escape(name),
            gauge.current,
            gauge.peak
        ));
    }
    out.push_str("}},\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let base = rows
            .iter()
            .find(|q| q.kernel == r.kernel && q.threads == 1)
            .map(|q| q.ms)
            .unwrap_or(r.ms);
        let speedup = if r.ms > 0.0 { base / r.ms } else { 1.0 };
        let gflops = if r.flops > 0 && r.ms > 0.0 { r.flops as f64 / (r.ms * 1e6) } else { 0.0 };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"threads\": {}, \"ms\": {:.3}, \"speedup\": {:.3}, \"gflops\": {:.3}, \"peak_bytes\": {}}}{}\n",
            r.kernel,
            r.n,
            r.threads,
            r.ms,
            speedup,
            gflops,
            r.peak_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if let Some(obs) = obs_json {
        out.push_str(",\n  \"obs\": ");
        out.push_str(&obs);
    }
    out.push_str("\n}\n");

    std::fs::write(&out_path, &out).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    print!("{out}");
    eprintln!("wrote {out_path}");
}
