//! The benchmark's own smoke test. It runs the `perfbench` binary and reads
//! the result line the way a caller does.
//!
//! Run it with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use hcrf_explore::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Loop count of the reduced runs.
const SMOKE_LOOPS: &str = "60";

/// End-to-end metrics that must repeat exactly from run to run.
const DETERMINISTIC: [&str; 5] = [
    "sum_ii",
    "fail_rate",
    "exec_cycles",
    "mem_traffic",
    "hier_speedup_gmean",
];

fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Run the benchmark and return its parsed last output line.
fn run(test: &str, args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--out")
        .arg(out_dir(test))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout
        .lines()
        .last()
        .expect("perfbench prints a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// `(name, unit)` of every metric BENCHMARK.json declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits_exactly(result: &Json, section: &str) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            (name.clone(), unit)
        })
        .collect();
    assert_eq!(emitted, declared(section), "metrics of {section}");
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for workload in ["table6_ideal", "fig6_real", "explore_sweep"] {
        let common = [
            "--workload",
            workload,
            "--loops",
            SMOKE_LOOPS,
            "--seconds",
            "0",
        ];
        let e2e = run("emitted", &[&common[..], &["--trace", "0"]].concat());
        assert_emits_exactly(&e2e, "end_to_end");
        let layers = run("emitted", &[&common[..], &["--trace", "1"]].concat());
        assert_emits_exactly(&layers, "per_layer");
        assert!(metric(&layers, "workloads.pairs") > 0.0);
    }
}

#[test]
fn deterministic_metrics_repeat_exactly_across_runs_and_orders() {
    for workload in ["table6_ideal", "fig6_real", "explore_sweep"] {
        let args = |seed: &'static str| {
            [
                "--workload",
                workload,
                "--loops",
                SMOKE_LOOPS,
                "--seconds",
                "0",
                "--trace",
                "0",
                "--seed",
                seed,
            ]
        };
        let first = run("repeat", &args("1"));
        let again = run("repeat", &args("1"));
        let reordered = run("repeat", &args("2"));
        assert!(metric(&first, "sum_ii") > 0.0);
        for name in DETERMINISTIC {
            let value = metric(&first, name);
            assert_eq!(value, metric(&again, name), "{workload}: {name}");
            assert_eq!(value, metric(&reordered, name), "{workload}: {name}");
        }
    }
}

#[test]
fn full_table6_reproduces_the_artifact_numbers() {
    let traced = run(
        "artifact",
        &[
            "--workload",
            "table6_ideal",
            "--seconds",
            "0",
            "--trace",
            "1",
        ],
    );
    assert_eq!(metric(&traced, "workloads.pairs"), 18870.0);
    assert_eq!(metric(&traced, "cfg.S64.sum_ii"), 5647.0);
    assert_eq!(metric(&traced, "cfg.8C16S16.sum_ii"), 28167.0);
    assert_eq!(metric(&traced, "cfg.8C16S16.failed"), 118.0);
    let failed: f64 = declared("per_layer")
        .iter()
        .filter(|(name, _)| name.starts_with("cfg.") && name.ends_with(".failed"))
        .map(|(name, _)| metric(&traced, name))
        .sum();
    assert_eq!(failed, 399.0);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("perfbench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
