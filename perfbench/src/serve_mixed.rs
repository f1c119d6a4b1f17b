//! `serve_mixed`: open-loop `/link` traffic at fixed rates, with
//! interleaved `POST`/`DELETE /records` writes, against `adamel-serve`.
//!
//! The online user. Drift monitoring is on, configured as the daemon
//! configures it. The corpus starts as records of the unseen sources 3–6;
//! `/link` batches draw queries from all seven sources. After every third
//! link a write inserts a held-back record, re-renders an existing one, or
//! deletes one, in turn. No two writes of a phase touch the same record,
//! so the corpus a phase leaves behind does not depend on the order in
//! which concurrent requests landed.

use crate::loadgen::{self, Outcome, Request};
use crate::report::Report;
use crate::setup::{self, ms, F1Counts};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::Args;
use adamel::{AdamelModel, DriftBaseline, DriftMonitor, Linker, LinkerConfig};
use adamel_data::music::render;
use adamel_data::MusicWorld;
use adamel_obs::json::Json;
use adamel_schema::{Domain, LiveIndex, Record, RecordKey, SourceId};
use adamel_serve::{DriftConfig, Engine, EngineConfig, RecordLine, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A phase is invalid when the generator's own lag p90 exceeds this share
/// of the gap between two links.
const MAX_LAG_SHARE: f64 = 0.1;
/// Requests still waiting to be sent when the last one fell due, beyond
/// which a phase has a growing backlog.
const MAX_BACKLOG: usize = loadgen::SENDERS;
/// Links per write.
const LINKS_PER_WRITE: usize = 3;

struct Sizes {
    artists: usize,
    corpus: usize,
    held_back: usize,
    query_pool: usize,
    batch: usize,
    probe: usize,
    train_per_class: usize,
    test_per_class: usize,
    epochs: usize,
    setups: usize,
    /// Open-loop `/link` rates, lowest first.
    rates: &'static [f64],
}

impl Sizes {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                artists: 16,
                corpus: 200,
                held_back: 60,
                query_pool: 80,
                batch: 2,
                probe: 8,
                train_per_class: 100,
                test_per_class: 20,
                epochs: 3,
                setups: 2,
                rates: &[10.0, 20.0],
            }
        } else {
            Self {
                artists: 1400,
                corpus: 4000,
                held_back: 600,
                query_pool: 800,
                batch: 4,
                probe: 32,
                train_per_class: 100,
                test_per_class: 60,
                epochs: 3,
                setups: 3,
                rates: &[10.0, 18.0, 26.0, 34.0],
            }
        }
    }
}

/// The corpus as the generator expects it, and the records it can insert.
struct Expected {
    present: BTreeMap<RecordKey, Record>,
    absent: VecDeque<Record>,
}

/// A write's effect on the expected corpus.
enum Effect {
    Put(Record),
    Remove(RecordKey),
}

/// A phase's requests; `effects[i]` belongs to `requests[i]`.
struct Schedule {
    requests: Vec<Request>,
    effects: Vec<Option<Effect>>,
}

fn key(r: &Record) -> RecordKey {
    (r.source, r.entity_id)
}

fn jsonl(records: &[Record]) -> String {
    records
        .iter()
        .map(|r| {
            let SourceId(source) = r.source;
            let values = r.values.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            RecordLine { source, entity_id: r.entity_id, values }.to_json() + "\n"
        })
        .collect()
}

struct Prepared {
    server: Server,
    /// Bit-identical twin of the served model, for offline reference links.
    reference: Linker,
    world: MusicWorld,
    expected: Expected,
    queries: Vec<Record>,
    /// Index of the next query batch.
    cursor: usize,
    /// Seen-source records the probes draw from.
    probe: Vec<Record>,
    /// Queries per probe request.
    probe_size: usize,
}

fn prepare(sizes: &Sizes, seed: u64, tracer: &Tracer, report: &mut Report) -> Prepared {
    let world = setup::music_world(sizes.artists, seed, tracer);
    let unseen = setup::records_from(&world, |s| s >= 3);
    let mut chosen = setup::sample_records(&unseen, sizes.corpus + sizes.held_back, seed ^ 0x5e);
    let held_back = chosen.split_off(sizes.corpus.min(chosen.len()));
    let corpus = chosen;
    let in_use: BTreeSet<RecordKey> = corpus.iter().chain(&held_back).map(key).collect();
    let mut others = setup::records_from(&world, |_| true);
    others.retain(|r| !in_use.contains(&key(r)));
    let queries = setup::sample_records(&others, sizes.query_pool, seed ^ 0x9a);
    let pool = sizes.probe * PROBE_REQUESTS * MAX_PHASES;
    let probe = setup::sample_records(&setup::records_from(&world, |s| s < 3), pool, seed ^ 0x77);

    let model = setup::deployed_model(
        sizes.train_per_class,
        sizes.test_per_class,
        sizes.epochs,
        tracer,
        report,
    );
    let mut bytes = Vec::new();
    adamel::save_model(&model, &mut bytes).expect("writing a model to memory cannot fail");
    let twin = adamel::load_model(&mut bytes.as_slice()).expect("a saved model loads back");

    // The daemon's drift configuration, with the training sources named.
    let drift = DriftConfig {
        seen_sources: [0, 1, 2].into(),
        dominance_threshold: 0.5,
        ..Default::default()
    };
    let engine = Arc::new(Engine::new(
        Linker::new(model, LinkerConfig::default()),
        EngineConfig { drift: Some(drift), compute_threads: 0 },
    ));
    engine.upsert(corpus.clone());
    let server = Server::start(engine, ServerConfig::default()).expect("bind a loopback port");
    // The first batch freezes the drift baseline.
    for i in 0..3 {
        let batch = batch_of(&queries, i, sizes.batch);
        let (status, _) = loadgen::http(server.addr(), "POST", "/link", &jsonl(&batch))
            .unwrap_or((0, String::new()));
        report.check(status == 200, || format!("warm-up /link returned {status}"));
    }
    let expected = Expected {
        present: corpus.into_iter().map(|r| (key(&r), r)).collect(),
        absent: held_back.into(),
    };
    Prepared {
        server,
        reference: Linker::new(twin, LinkerConfig::default()),
        world,
        expected,
        queries,
        // The warm-up sent batches 0..3.
        cursor: 3,
        probe,
        probe_size: sizes.probe,
    }
}

fn batch_of(queries: &[Record], i: usize, batch: usize) -> Vec<Record> {
    (0..batch).map(|j| queries[(i * batch + j) % queries.len()].clone()).collect()
}

/// Builds one phase: `links` `/link` requests `1/rate` apart, and a write
/// after every [`LINKS_PER_WRITE`] links.
fn schedule(
    p: &Prepared,
    rate: f64,
    links: usize,
    cursor: &mut usize,
    phase: u64,
    batch: usize,
) -> Schedule {
    let mut requests = Vec::new();
    let mut effects = Vec::new();
    let mut touched: BTreeSet<RecordKey> = BTreeSet::new();
    let mut absent = p.expected.absent.iter();
    let mut present =
        p.expected.present.iter().map(|(k, r)| (*k, r)).cycle().skip(phase as usize * 97);
    let mut writes = 0u64;
    for k in 0..links {
        let due = Duration::from_secs_f64(k as f64 / rate);
        let body = jsonl(&batch_of(&p.queries, *cursor, batch));
        *cursor += 1;
        requests.push(Request { method: "POST", path: "/link", body, due });
        effects.push(None);
        if (k + 1) % LINKS_PER_WRITE != 0 {
            continue;
        }
        let due = Duration::from_secs_f64((k as f64 + 0.5) / rate);
        let kind = writes % 3;
        writes += 1;
        let write = match kind {
            0 => absent.find(|r| !touched.contains(&key(r))).map(|r| {
                touched.insert(key(r));
                ("POST", jsonl(std::slice::from_ref(r)), Effect::Put(r.clone()))
            }),
            _ => {
                let limit = p.expected.present.len();
                present.by_ref().take(limit).find(|(k, _)| !touched.contains(k)).map(|(k, r)| {
                    touched.insert(k);
                    if kind == 1 {
                        let entity = &p.world.entities[r.entity_id as usize];
                        let style = &p.world.styles[r.source.0 as usize];
                        let mut rng = StdRng::seed_from_u64(
                            phase << 32 ^ r.entity_id << 3 ^ u64::from(r.source.0),
                        );
                        let fresh = render(entity, r.source, style, &mut rng);
                        ("POST", jsonl(std::slice::from_ref(&fresh)), Effect::Put(fresh))
                    } else {
                        let line = format!("{{\"source\": {}, \"entity_id\": {}}}\n", k.0 .0, k.1);
                        ("DELETE", line, Effect::Remove(k))
                    }
                })
            }
        };
        if let Some((method, body, effect)) = write {
            requests.push(Request { method, path: "/records", body, due });
            effects.push(Some(effect));
        }
    }
    Schedule { requests, effects }
}

fn apply(expected: &mut Expected, effects: impl Iterator<Item = Effect>) {
    for e in effects {
        match e {
            Effect::Put(r) => {
                let k = key(&r);
                expected.absent.retain(|a| key(a) != k);
                expected.present.insert(k, r);
            }
            Effect::Remove(k) => {
                if let Some(r) = expected.present.remove(&k) {
                    expected.absent.push_back(r);
                }
            }
        }
    }
}

/// Per-phase results.
#[derive(Default)]
struct Phase {
    rate: f64,
    sent: usize,
    ok: usize,
    failed: usize,
    rejected: usize,
    link_ms: Vec<f64>,
    write_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    backlog_end: usize,
    candidates: u64,
    matches: u64,
    rebuilds: usize,
    wall_ms: f64,
}

impl Phase {
    fn valid(&self) -> bool {
        quantile(&self.lag_ms, 0.9) <= MAX_LAG_SHARE * 1e3 / self.rate
    }

    fn meets(&self, limit_ms: f64) -> bool {
        self.valid()
            && self.failed == 0
            && self.backlog_end <= MAX_BACKLOG
            && quantile(&self.link_ms, 0.9) <= limit_ms
    }

    fn line(&self, name: &str) -> String {
        format!(
            "phase {name} rate={} sent={} ok={} failed={} rejected={} link_p50_ms={:.3} link_p90_ms={:.3} write_p50_ms={:.3} lag_p90_ms={:.3} backlog_end={} valid={}",
            self.rate,
            self.sent,
            self.ok,
            self.failed,
            self.rejected,
            median(&self.link_ms),
            quantile(&self.link_ms, 0.9),
            median(&self.write_ms),
            quantile(&self.lag_ms, 0.9),
            self.backlog_end,
            self.valid()
        )
    }
}

/// `(candidates, matches)` from a `/link` response's summary line.
fn summary(body: &str) -> Option<(u64, u64)> {
    let last = body.lines().rev().find(|l| !l.trim().is_empty())?;
    let s = Json::parse(last).ok()?;
    let s = s.get("summary")?;
    Some((s.get("candidates")?.as_u64()?, s.get("matches")?.as_u64()?))
}

fn summarize(rate: f64, reqs: &[Request], out: &[Outcome]) -> Phase {
    let mut ph = Phase { rate, sent: out.len(), ..Phase::default() };
    let last_due = out.last().map_or(0.0, |o| o.due_ms);
    let mut events: Vec<(f64, bool)> = Vec::new();
    for (req, o) in reqs.iter().zip(out) {
        let is_link = req.path == "/link";
        let counts = if is_link { summary(&o.body) } else { Some((0, 0)) };
        let ok = o.status == 200 && counts.is_some();
        if ok {
            ph.ok += 1;
        } else {
            ph.failed += 1;
        }
        if o.status == 429 {
            ph.rejected += 1;
        }
        if let Some(lag) = o.lag_ms {
            ph.lag_ms.push(lag);
        }
        if o.due_ms <= last_due && o.sent_ms > last_due {
            ph.backlog_end += 1;
        }
        // Failed requests miss the latency limit.
        let latency = if ok { o.latency_ms() } else { f64::INFINITY };
        if is_link {
            ph.link_ms.push(latency);
            let (c, m) = counts.unwrap_or((0, 0));
            ph.candidates += c;
            ph.matches += m;
            events.push((o.sent_ms, true));
        } else {
            ph.write_ms.push(latency);
            events.push((o.done_ms, false));
        }
        ph.wall_ms = ph.wall_ms.max(o.done_ms);
    }
    // A link rebuilds the corpus snapshot when a write completed after the
    // previous link began.
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut dirty = false;
    for (_, is_link) in events {
        if !is_link {
            dirty = true;
        } else if dirty {
            ph.rebuilds += 1;
            dirty = false;
        }
    }
    ph
}

/// Probe requests sent after each phase; each carries `Sizes::probe`
/// queries, and each phase probes with queries of its own.
const PROBE_REQUESTS: usize = 3;
/// Phases a run probes after, at most (the probe pool's size).
const MAX_PHASES: usize = 6;

/// `(query, source, entity_id, score_bits)` of one match.
type Match = (usize, u32, u64, u32);

/// The matches of a `/link` response body, in order.
fn served_matches(body: &str) -> Option<Vec<Match>> {
    body.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|l| l.get("summary").is_none())
        .map(|l| {
            let q = l.get("query")?.as_u64()? as usize;
            let s = u32::try_from(l.get("source")?.as_u64()?).ok()?;
            let e = l.get("entity_id")?.as_u64()?;
            let bits = u32::from_str_radix(l.get("score_bits")?.as_str()?, 16).ok()?;
            Some((q, s, e, bits))
        })
        .collect()
}

/// Sends the probe requests of phase `phase_no` with nothing in flight
/// and compares the served matches, bit for bit and in order, with offline
/// `Linker::link` over the corpus the generator expects. Returns F1 counts
/// against ground truth.
fn probe(p: &Prepared, report: &mut Report, phase: &str, phase_no: u64) -> F1Counts {
    let corpus: Vec<Record> = p.expected.present.values().cloned().collect();
    let index: BTreeMap<(u32, u64), usize> =
        corpus.iter().enumerate().map(|(i, r)| ((r.source.0, r.entity_id), i)).collect();
    let chunks: Vec<&[Record]> = p.probe.chunks(p.probe_size.max(1)).collect();
    let mut counts = F1Counts::default();
    for r in 0..PROBE_REQUESTS {
        let queries = chunks[(phase_no as usize * PROBE_REQUESTS + r) % chunks.len()];
        let offline: Vec<Match> = p
            .reference
            .link(queries, &corpus)
            .iter()
            .map(|m| {
                let hit = &corpus[m.right];
                (m.left, hit.source.0, hit.entity_id, m.score.to_bits())
            })
            .collect();
        let served = loadgen::http(p.server.addr(), "POST", "/link", &jsonl(queries))
            .map(|(status, body)| (status, served_matches(&body)));
        let same = matches!(&served, Ok((200, Some(m))) if *m == offline);
        report.check(same, || {
            format!("probe {r} after phase {phase}: served {served:?} != offline {offline:?}")
        });
        counts.add(F1Counts::of(
            queries,
            &corpus,
            offline.iter().filter_map(|(q, s, e, _)| Some((*q, *index.get(&(*s, *e))?))),
        ));
    }
    counts
}

/// Runs one phase, applies its writes to the expected corpus, and probes.
fn run_phase(
    p: &mut Prepared,
    sizes: &Sizes,
    rate: f64,
    secs: f64,
    closed: bool,
    phase_no: u64,
    report: &mut Report,
) -> (Phase, F1Counts) {
    // The closed loop gets more requests than it can send in time.
    let links =
        if closed { (secs * 400.0) as usize + 16 } else { ((rate * secs).round() as usize).max(1) };
    let first_batch = p.cursor;
    let mut cursor = p.cursor;
    let sched = schedule(p, rate, links, &mut cursor, phase_no, sizes.batch);
    let out = loadgen::run(
        p.server.addr(),
        &sched.requests,
        closed.then(|| Duration::from_secs_f64(secs)),
    );
    let ph = summarize(rate, &sched.requests, &out);
    // The next phase goes on with the first batch this one did not send.
    p.cursor = first_batch + ph.link_ms.len();
    report.ops(ph.sent as u64, ph.failed as u64);
    apply(&mut p.expected, sched.effects.into_iter().take(out.len()).flatten());
    let name = if closed { "closed".to_string() } else { format!("{rate}") };
    let f1 = probe(p, report, &name, phase_no);
    (ph, f1)
}

/// Runs the rate ladder, lowest rate first, then the closed loop, over
/// `secs` seconds: 30% at the lowest rate, 20% over the other rates and
/// 50% in the closed loop. Phases are numbered from `first`.
fn timeline(
    p: &mut Prepared,
    sizes: &Sizes,
    secs: f64,
    first: u64,
    report: &mut Report,
    f1: &mut F1Counts,
) -> (Vec<Phase>, Phase) {
    let others = (sizes.rates.len() - 1).max(1) as f64;
    let mut phases = Vec::new();
    for (i, &rate) in sizes.rates.iter().enumerate() {
        let share = if i == 0 { 0.3 } else { 0.2 / others };
        let (ph, counts) = run_phase(p, sizes, rate, secs * share, false, first + i as u64, report);
        f1.add(counts);
        phases.push(ph);
    }
    let n = first + sizes.rates.len() as u64;
    let (closed, counts) = run_phase(p, sizes, sizes.rates[0], secs * 0.5, true, n, report);
    f1.add(counts);
    (phases, closed)
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report, tracer: &Tracer) {
    let sizes = Sizes::new(args.smoke);
    let setups = if report.traced() { 1 } else { sizes.setups };
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..setups {
        let t = Instant::now();
        let next = prepare(&sizes, args.seed, tracer, report);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = prepared.replace(next) {
            let stopped = old.server.shutdown();
            report.check(stopped.is_ok(), || format!("server shutdown: {stopped:?}"));
        }
    }
    let Some(mut p) = prepared else { return };
    report.set("data.generate_ms", tracer.total_ms("data.generate") / setups as f64);
    let limit = args.serve_limit_ms;
    let mut replay_from = p.cursor;
    let mut f1 = F1Counts::default();
    let low = sizes.rates[0];

    let (phases, closed) = if report.traced() {
        // Base: the closed loop untraced; then the whole timeline traced.
        adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));
        let (base, _) = run_phase(&mut p, &sizes, low, args.seconds * 0.2, true, 0, report);
        adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
        adamel_obs::mem::reset_peaks();
        replay_from = p.cursor;
        let (phases, closed) = timeline(&mut p, &sizes, args.seconds * 0.6, 1, report, &mut f1);
        report.set("trace.base_ms", median(&base.link_ms));
        report.set("trace.overhead_ratio", median(&closed.link_ms) / median(&base.link_ms));
        (phases, closed)
    } else {
        timeline(&mut p, &sizes, args.seconds, 0, report, &mut f1)
    };

    let lowest = &phases[0];
    for (ph, rate) in phases.iter().zip(sizes.rates) {
        report.note_line(ph.line(&rate.to_string()));
    }
    report.note_line(closed.line("closed"));
    let max_rps = phases.iter().filter(|ph| ph.meets(limit)).map(|ph| ph.rate).fold(0.0, f64::max);
    let links = lowest.link_ms.len().max(1) as f64;
    report.set("serve.max_rps", max_rps);
    report.set("serve.write_p50_ms", median(&lowest.write_ms));
    report.set("serve.low_rate_p50_ms", median(&lowest.link_ms));
    report.set("serve.low_rate_p90_ms", quantile(&lowest.link_ms, 0.9));
    report.set("serve.rejected", phases.iter().map(|ph| ph.rejected as f64).sum());
    report.set(
        "serve.backlog_end",
        phases.iter().map(|ph| ph.backlog_end as f64).fold(0.0, f64::max),
    );
    report.set("loadgen.lag_p90_ms", quantile(&lowest.lag_ms, 0.9));
    report.set("live_index.rebuilds_per_link", lowest.rebuilds as f64 / links);
    report.set("blocking.match_yield", lowest.matches as f64 / lowest.candidates.max(1) as f64);

    if report.traced() {
        traced_layers(&p, &sizes, replay_from, median(&lowest.link_ms), tracer, report);
    } else {
        let pairs_per_s = closed.candidates as f64 / (closed.wall_ms / 1e3);
        report.set("setup_s", median(&setup_s));
        report.set("op_p50_ms", median(&closed.link_ms));
        report.set("op_p90_ms", quantile(&closed.link_ms, 0.9));
        report.set("pairs_per_s", pairs_per_s);
        report.set("quality", f1.f1());
        report.note("serve_p50_ms", median(&lowest.link_ms), "ms");
        report.note("serve_p90_ms", quantile(&lowest.link_ms, 0.9), "ms");
        report.note("serve_max_rps", max_rps, "1/s");
        report.note("serve_latency_limit_ms", limit, "ms");
        report.note("write_p50_ms", median(&lowest.write_ms), "ms");
        report.note("closed_loop_pairs_per_s", pairs_per_s, "pairs/s");
        report.note("closed_loop_p50_ms", median(&closed.link_ms), "ms");
        report.note("closed_loop_p90_ms", quantile(&closed.link_ms, 0.9), "ms");
        report.note("probe_f1", f1.f1(), "ratio");
    }
    let stopped = p.server.shutdown();
    report.check(stopped.is_ok(), || format!("server shutdown: {stopped:?}"));
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    report.set("ok_ratio", 1.0 - report.failed() as f64 / report.attempted().max(1) as f64);
}

/// Times each serving layer's public functions on the workload's inputs:
/// `Engine::link` without HTTP on the first batches of the traced timeline
/// (`replay_from` on), drift assessment, the live index, encode with the
/// cache history the served model had, and the forward pass.
fn traced_layers(
    p: &Prepared,
    sizes: &Sizes,
    replay_from: usize,
    client_p50_ms: f64,
    tracer: &Tracer,
    report: &mut Report,
) {
    let batches: Vec<Vec<Record>> =
        (replay_from..replay_from + 32).map(|i| batch_of(&p.queries, i, sizes.batch)).collect();
    let engine = p.server.engine();
    let mut engine_ms = Vec::new();
    for b in &batches {
        let t = Instant::now();
        tracer.span("engine.link", || std::hint::black_box(engine.link(b)));
        engine_ms.push(ms(t));
    }
    let engine_ms = median(&engine_ms);
    report.set("engine.link_ms", engine_ms);
    report.set("serve.overhead_ms", client_p50_ms - engine_ms);

    // A replica of the served index over the corpus the generator expects.
    let model: &AdamelModel = p.reference.model();
    let cfg = p.reference.config();
    let mut index = LiveIndex::new(cfg.block_attrs.clone());
    let records: Vec<Record> = p.expected.present.values().cloned().collect();
    let t = Instant::now();
    tracer.span("live_index.upsert", || {
        for r in &records {
            index.upsert(r.clone());
        }
    });
    report.set("live_index.upsert_us", ms(t) * 1e3 / records.len().max(1) as f64);
    let mut snap_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        tracer
            .span("live_index.snapshot", || std::hint::black_box((index.snapshot(), index.keys())));
        snap_ms.push(ms(t));
    }
    report.set("live_index.snapshot_ms", median(&snap_ms));
    let snapshot = index.snapshot();
    let keys = index.keys();
    let queries: Vec<&Record> = batches.iter().flatten().collect();
    let t = Instant::now();
    let cands: Vec<Vec<usize>> = tracer.span("blocking.probe", || {
        queries
            .iter()
            .map(|q| {
                index
                    .candidates(q, cfg.max_candidates_per_record)
                    .into_iter()
                    .filter_map(|k| keys.binary_search(&k).ok())
                    .collect()
            })
            .collect()
    });
    report.set("blocking.probe_us_per_query", ms(t) * 1e3 / queries.len().max(1) as f64);
    let total: usize = cands.iter().map(Vec::len).sum();
    report.set("blocking.candidates_per_query", total as f64 / queries.len().max(1) as f64);

    // The cache hit rate of the traced timeline's batches, replayed in the
    // order they were served after the batches served before them (probe
    // queries aside, and against the final corpus).
    let batch_pairs = |i: usize| {
        let b = batch_of(&p.queries, i, sizes.batch);
        let c: Vec<Vec<usize>> = b
            .iter()
            .map(|q| {
                let keys_of = index.candidates(q, cfg.max_candidates_per_record);
                keys_of.into_iter().filter_map(|k| keys.binary_search(&k).ok()).collect()
            })
            .collect();
        setup::candidate_pairs(&b, &snapshot, &c)
    };
    model.clear_encode_cache();
    for i in 0..replay_from {
        std::hint::black_box(model.encode(&batch_pairs(i)));
    }
    let before = model.encode_cache_stats();
    for i in replay_from..p.cursor {
        std::hint::black_box(model.encode(&batch_pairs(i)));
    }
    let after = model.encode_cache_stats();

    // Encode (now warm), forward and drift, batch by batch as the engine
    // scores them.
    let owned: Vec<Record> = queries.iter().map(|q| (*q).clone()).collect();
    let per_batch: Vec<_> = (replay_from..replay_from + 32).map(batch_pairs).collect();
    let (mut enc_ms, mut fwd_ms, mut assess_ms, mut n) = (0.0, 0.0, Vec::new(), 0usize);
    let baseline = DriftBaseline::build_with_pool(
        model,
        &Domain::new(per_batch[0].clone()),
        &owned[..sizes.batch],
    );
    let monitor = DriftMonitor::new(baseline);
    for pairs in per_batch.iter().filter(|p| !p.is_empty()) {
        let t = Instant::now();
        let enc = tracer.span("encode.warm", || model.encode(pairs));
        enc_ms += ms(t);
        let t = Instant::now();
        std::hint::black_box(tracer.span("forward", || model.predict_encoded(&enc)));
        fwd_ms += ms(t);
        let domain = Domain::new(pairs.clone());
        let t = Instant::now();
        std::hint::black_box(tracer.span("drift.assess", || monitor.assess(model, &domain)));
        assess_ms.push(ms(t));
        n += pairs.len();
    }
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let n = n.max(1) as f64;
    let flops = model.per_row_flops() as f64;
    report.set("encode.us_per_pair_warm", enc_ms * 1e3 / n);
    report.set("encode.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    report.set("encode.interned_tokens", after.interned_tokens as f64);
    report.set("forward.us_per_pair", fwd_ms * 1e3 / n);
    report.set("forward.flops_per_pair", flops);
    report.set("forward.gflops", flops * n / (fwd_ms * 1e6));
    report.set("drift.assess_ms", median(&assess_ms));
    report.set("drift.share_of_engine", median(&assess_ms) / engine_ms);
    crate::layers::forward_gemms(model, tracer, report);
    crate::layers::mem_peaks(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_is_parsed() {
        let body = "{\"query\": 0, \"source\": 3, \"entity_id\": 1, \"score\": 0.9, \"score_bits\": \"3f666666\"}\n\
                    {\"summary\": {\"queries\": 1, \"candidates\": 7, \"matches\": 1, \"corpus_records\": 9, \"trace_id\": 4}}\n";
        assert_eq!(summary(body), Some((7, 1)));
        assert_eq!(summary("not json"), None);
    }

    #[test]
    fn effects_move_records_between_present_and_absent() {
        let r = |s: u32, e: u64| Record::new(SourceId(s), e);
        let mut x =
            Expected { present: [((SourceId(3), 1), r(3, 1))].into(), absent: [r(4, 2)].into() };
        apply(&mut x, [Effect::Put(r(4, 2)), Effect::Remove((SourceId(3), 1))].into_iter());
        assert!(x.present.contains_key(&(SourceId(4), 2)));
        assert!(!x.present.contains_key(&(SourceId(3), 1)));
        assert_eq!(x.absent.len(), 1);
    }
}
