//! The AdaMEL-rs benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <link_offline|serve_mixed|train_hyb> --seed <n> --seconds <s> --trace <0|1> \
//!     [--serve-limit-ms <ms>] [--smoke] [--trace-dir <dir>]
//! ```
//!
//! The seed generates every input; the program under test receives only
//! those inputs. `--trace 0` measures the end-to-end metrics with tracing
//! off; `--trace 1` is the separate traced run that times each layer and
//! writes its spans to `--trace-dir` (default `perfbench/out`). `--smoke`
//! shrinks every input so a run takes seconds. The last line of standard
//! output is the result object; see `README.md` for the metrics.

mod layers;
mod link_offline;
mod loadgen;
mod report;
mod serve_mixed;
mod setup;
mod stats;
mod trace;
mod train_hyb;

use report::Report;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["link_offline", "serve_mixed", "train_hyb"];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    traced: bool,
    /// Smoke-sized inputs.
    pub smoke: bool,
    /// `/link` p90 latency limit for `serve.max_rps`.
    pub serve_limit_ms: f64,
    trace_dir: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        serve_limit_ms: 250.0,
        trace_dir: "perfbench/out".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--serve-limit-ms" => {
                a.serve_limit_ms = value()?.parse().map_err(|e| format!("--serve-limit-ms: {e}"))?
            }
            "--trace-dir" => a.trace_dir = value()?,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Tracing inside the program follows the run's mode, never the
    // environment.
    let level =
        if args.traced { adamel_obs::TraceLevel::Spans } else { adamel_obs::TraceLevel::Off };
    adamel_obs::set_forced(Some(level));
    let tracer = Tracer::new(args.traced);
    let mut report = Report::new(args.traced);
    match args.workload.as_str() {
        "link_offline" => link_offline::run(&args, &mut report, &tracer),
        "serve_mixed" => serve_mixed::run(&args, &mut report, &tracer),
        _ => train_hyb::run(&args, &mut report, &tracer),
    }
    if args.traced {
        report.note("threads", adamel_tensor::parallel::current_threads() as f64, "worker threads");
        let path = format!("{}/trace-{}-seed{}.jsonl", args.trace_dir, args.workload, args.seed);
        let written = std::fs::create_dir_all(&args.trace_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        report.check(written.is_ok(), || format!("writing {path}: {written:?}"));
        for (name, t) in tracer.totals() {
            report.note_line(format!(
                "span {name}: count={} total_ms={:.3} self_ms={:.3}",
                t.count, t.total_ms, t.self_ms
            ));
        }
    }
    print!("{}", report.render(&args.workload));
    ExitCode::SUCCESS
}
