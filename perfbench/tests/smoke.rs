//! Smoke-sized runs of every workload, untraced and traced, through the
//! benchmark binary: each run must pass its output checks and report
//! exactly its catalogue of metrics in the result line.

use adamel_obs::json::Json;
use std::process::Command;

const WORKLOADS: &[&str] = &["link_offline", "serve_mixed", "train_hyb"];

/// Runs one smoke workload and returns its parsed result line.
fn run(workload: &str, trace: &str) -> Json {
    let dir = format!("{}/trace-{workload}-{trace}", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_adamel-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .args(["--trace-dir", &dir])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: exit {:?}\n{stdout}", out.status);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"))
}

fn metric_names(result: &Json) -> Vec<String> {
    let metrics = result.get("metrics").and_then(Json::as_object).expect("metrics object");
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    metrics.keys().cloned().collect()
}

fn assert_correct(workload: &str, result: &Json) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{workload}: {result:?}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{workload}");
    assert!(result.get("attempted").and_then(Json::as_u64).is_some_and(|n| n >= 1), "{workload}");
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let mut expected = vec![
        "setup_s",
        "pairs_per_s",
        "op_p50_ms",
        "op_p90_ms",
        "quality",
        "peak_rss_mb",
        "ok_ratio",
    ];
    expected.sort_unstable();
    for w in WORKLOADS {
        let result = run(w, "0");
        assert_correct(w, &result);
        assert_eq!(metric_names(&result), expected, "{w}");
        let metrics = result.get("metrics").expect("metrics");
        for name in ["setup_s", "pairs_per_s", "op_p50_ms", "peak_rss_mb"] {
            let v = metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{w}: {name} = {v:?}");
        }
    }
}

#[test]
fn traced_runs_report_the_per_layer_metrics_of_their_layers() {
    // Layers each workload calls; their metrics must be measured (non-zero).
    let exercised: &[(&str, &[&str])] = &[
        (
            "link_offline",
            &[
                "blocking.index_build_ms",
                "encode.us_per_pair_cold",
                "forward.us_per_pair",
                "gemm.gflops",
                "train.epoch_ms",
            ],
        ),
        (
            "serve_mixed",
            &[
                "engine.link_ms",
                "drift.assess_ms",
                "live_index.upsert_us",
                "live_index.snapshot_ms",
                "encode.us_per_pair_warm",
            ],
        ),
        (
            "train_hyb",
            &["train.encode_ms", "train.epoch_ms", "train.attention_ms", "mem.graph.peak_mb"],
        ),
    ];
    for (w, names) in exercised {
        let result = run(w, "1");
        assert_correct(w, &result);
        let all = metric_names(&result);
        assert!(all.len() > 30, "{w}: only {} per-layer metrics", all.len());
        assert!(all.iter().any(|n| n == "trace.overhead_ratio"), "{w}");
        let metrics = result.get("metrics").expect("metrics");
        for name in *names {
            let v = metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{w}: {name} = {v:?}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_adamel-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
