//! The repository's benchmark: the paper's traffic, timed end to end and
//! per layer. See `perfbench/README.md` for the workloads, the metrics and
//! what each layer metric should move.
//!
//! ```text
//! perfbench --workload table6_ideal|fig6_real|explore_sweep
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--population-seed N] [--loops N] [--out DIR]
//! perfbench --record-baseline [--loops N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! makes the traced run that yields the per-layer metrics and a Perfetto
//! trace. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod traced;
mod util;
mod workload;

use hcrf::suite_fingerprint;
use hcrf_explore::json::Json;
use hcrf_telemetry::{Telemetry, Verbosity};
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;
use traced::{layer_metrics, traced_sweep, Metric, TRACE_CAPACITY};
use util::{
    calibration_pass_s, elementwise_median, median, nproc, peak_rss_mb, percentile, speed_scale,
};
use workload::{check_outputs, prepare, remove_stores, sweep, Params, Totals, Workload};

/// The standard suite's synthetic-population seed.
const DEFAULT_POPULATION_SEED: u64 = 0x1cf1_2003;

/// A second population, never used while tuning, that `--record-baseline`
/// measures beside the default.
const HELD_OUT_POPULATION_SEED: u64 = 0x2003_0ccc;

/// The build profile this binary was compiled in.
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Set-ups timed per round of an end-to-end run (the last one feeds the
/// round's sweep); `setup_s` is the median over every round.
const SETUPS_PER_ROUND: usize = 8;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    population_seed: u64,
    seconds: f64,
    trace: bool,
    loops: Option<usize>,
    out_dir: PathBuf,
    record_baseline: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload table6_ideal|fig6_real|explore_sweep [--seed N] \
         [--seconds S] [--trace 0|1] [--population-seed N] [--loops N] [--out DIR]\n\
         \x20      perfbench --record-baseline [--loops N]"
    );
    exit(2)
}

fn parse_cli() -> Cli {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    let mut cli = Cli {
        workload: None,
        seed: 0,
        population_seed: DEFAULT_POPULATION_SEED,
        seconds: 10.0,
        trace: false,
        loops: None,
        out_dir: target.join("perfbench"),
        record_baseline: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                cli.workload = Some(
                    Workload::parse(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--population-seed" => {
                cli.population_seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("bad --population-seed"))
            }
            "--seconds" => {
                cli.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                cli.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--loops" => {
                cli.loops = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage("bad --loops")),
                )
            }
            "--out" => cli.out_dir = PathBuf::from(value()),
            "--record-baseline" => cli.record_baseline = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    cli
}

/// Whether another round, expected to take as long as the last one, still
/// ends within `seconds` of `started`.
fn time_for_another(started: Instant, seconds: f64, last_round_s: f64) -> bool {
    started.elapsed().as_secs_f64() + last_round_s <= seconds
}

/// What one run measured and checked.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    /// Outputs that failed a check, by name.
    invalid: Vec<String>,
    /// Extra figures for the result file and the human report.
    notes: Vec<(&'static str, Json)>,
    pairs: usize,
}

/// Measure the end-to-end metrics with tracing off: repeat set-up + sweep
/// until `seconds` have passed, then run the output check.
fn run_end_to_end(params: &Params, seconds: f64) -> std::io::Result<Outcome> {
    let workload = params.workload;
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut sweep_s = Vec::new();
    let mut scaled_sweep_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut peak_rss = 0.0;
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut invalid = Vec::new();
    let mut reference = None;
    let mut pairs;
    let mut attempted = 0;
    loop {
        let round = Instant::now();
        let pass = calibration_pass_s();
        let mut prepared = None;
        let mut round_setup_s = Vec::with_capacity(SETUPS_PER_ROUND);
        for _ in 0..SETUPS_PER_ROUND {
            drop(prepared.take());
            let t = Instant::now();
            prepared = Some(prepare(params)?);
            round_setup_s.push(t.elapsed().as_secs_f64());
        }
        let scale = speed_scale(pass, calibration_pass_s());
        setup_s.extend(round_setup_s.iter().map(|t| t * scale));
        raw_setup_s.extend(round_setup_s);
        let prepared = prepared.expect("at least one set-up per round");
        pairs = prepared.pairs();
        let s = sweep(workload, prepared);
        attempted += pairs;
        sweep_s.push(s.wall_s);
        scaled_sweep_s.push(s.scaled_parts().sum::<f64>());
        warm_s.push(s.warm_s);
        samples.push(s.samples_us.clone());
        invalid.extend(s.invalid.iter().cloned());
        match &reference {
            None => {
                // Later sweeps only add allocator slack, so the peak is
                // taken over set-up and the first sweep.
                peak_rss = peak_rss_mb();
                reference = Some(s)
            }
            Some(r) if !r.same_decisions(&s) => invalid.push(format!(
                "sweep {} decided differently from sweep 1",
                sweep_s.len()
            )),
            Some(_) => {}
        }
        if !time_for_another(started, seconds, round.elapsed().as_secs_f64()) {
            break;
        }
    }
    remove_stores(&params.out_dir);
    let reference = reference.expect("at least one sweep ran");

    let check = check_outputs(params, &reference);
    invalid.extend(check.offending());

    let totals = Totals::of(&reference.rfs, &reference.aggregates);
    // Each pair's typical time is its median over the run's sweeps, which
    // drops a burst of machine noise that hit it in one sweep only.
    let mut per_pair = elementwise_median(&samples);
    let sweep = if workload == Workload::ExploreSweep {
        // Explore's samples are per-point means, which do not add up to
        // the sweep; its many short sweeps make the plain median robust.
        median(&scaled_sweep_s)
    } else {
        // Scheduling time pair by pair, plus the median of the rest of the
        // sweep (engine, fold, and the cache replay of real memory).
        let rest: Vec<f64> = scaled_sweep_s
            .iter()
            .zip(&samples)
            .map(|(wall, s)| wall - s.iter().sum::<f64>() * 1e-6)
            .collect();
        per_pair.iter().sum::<f64>() * 1e-6 + median(&rest)
    };
    per_pair.sort_by(f64::total_cmp);
    let metrics: Vec<Metric> = vec![
        ("setup_s".into(), median(&setup_s), "s"),
        ("sweep_s".into(), sweep, "s"),
        ("loop_p50_us".into(), percentile(&per_pair, 0.50), "us"),
        ("loop_p99_us".into(), percentile(&per_pair, 0.99), "us"),
        ("sum_ii".into(), totals.sum_ii as f64, "cycles"),
        (
            "fail_rate".into(),
            (totals.failed + check.invalid.len()) as f64 / totals.pairs.max(1) as f64,
            "ratio",
        ),
        ("exec_cycles".into(), totals.exec_cycles as f64, "cycles"),
        ("mem_traffic".into(), totals.mem_traffic as f64, "accesses"),
        ("hier_speedup_gmean".into(), totals.hier_speedup_gmean, "x"),
        ("peak_rss_mb".into(), peak_rss, "MB"),
    ];
    let mut notes = vec![
        ("invalid_outputs", Json::usize(invalid.len())),
        ("failed_pairs", Json::usize(totals.failed)),
        ("validated_schedules", Json::usize(check.validated)),
        ("loop_samples", Json::usize(per_pair.len())),
        ("raw_setup_s", Json::Num(median(&raw_setup_s))),
        ("raw_sweep_s", Json::Num(median(&sweep_s))),
        ("setup_samples_s", floats(&raw_setup_s)),
        ("sweep_samples_s", floats(&sweep_s)),
    ];
    if workload == Workload::ExploreSweep {
        notes.push(("warm_samples_s", floats(&warm_s)));
    }
    Ok(Outcome {
        metrics,
        attempted,
        invalid,
        notes,
        pairs,
    })
}

/// The traced run: alternate untraced and traced sweeps until `seconds`
/// have passed, require equal aggregates, and report the per-layer metrics
/// of the first traced sweep, whose trace is written next to the results.
fn run_traced(
    params: &Params,
    seconds: f64,
    trace_path: &std::path::Path,
) -> std::io::Result<Outcome> {
    let workload = params.workload;
    let started = Instant::now();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut invalid = Vec::new();
    let mut attempted = 0;
    let mut reference = None;
    let mut first = None;
    loop {
        let round = Instant::now();
        let prepared = prepare(params)?;
        let s = sweep(workload, prepared);
        untraced_s.push(s.scaled_parts().sum::<f64>());
        invalid.extend(s.invalid.iter().cloned());
        let telemetry = Telemetry::new(Verbosity::Silent, TRACE_CAPACITY);
        let pass = calibration_pass_s();
        let t = traced_sweep(params, &telemetry)?;
        traced_s.push(t.wall_s * speed_scale(pass, calibration_pass_s()));
        attempted += 2 * t.pairs;
        invalid.extend(t.invalid.iter().cloned());
        if s.rfs != t.rfs {
            invalid.push("the traced sweep evaluated a different point set".into());
        }
        for (a, b) in s.aggregates.iter().zip(&t.aggregates) {
            if a != b {
                invalid.push(format!(
                    "{}: traced aggregate differs from untraced",
                    a.config
                ));
            }
        }
        reference.get_or_insert(s);
        if first.is_none() {
            first = Some((t, telemetry));
        }
        if !time_for_another(started, seconds, round.elapsed().as_secs_f64()) {
            break;
        }
    }
    remove_stores(&params.out_dir);
    let reference = reference.expect("at least one sweep ran");
    let (mut traced, telemetry) = first.expect("at least one traced sweep ran");
    let check = check_outputs(params, &reference);
    invalid.extend(check.offending());
    traced.layers.validate_s = check.validate_s;

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let events = telemetry.write_chrome_trace(trace_path)?;
    let overhead = median(&traced_s) / median(&untraced_s).max(f64::MIN_POSITIVE);
    let totals = Totals::of(&traced.rfs, &traced.aggregates);
    let metrics = layer_metrics(&traced.layers, &totals, traced.wall_s, overhead);
    Ok(Outcome {
        metrics,
        attempted,
        invalid,
        notes: vec![
            ("trace_file", Json::str(trace_path.display().to_string())),
            ("trace_events", Json::usize(events)),
            (
                "trace_dropped_events",
                Json::u64(telemetry.dropped_events()),
            ),
            ("untraced_sweep_samples_s", floats(&untraced_s)),
            ("traced_sweep_samples_s", floats(&traced_s)),
        ],
        pairs: traced.pairs,
    })
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Num(x)).collect())
}

fn meta(params: &Params, cli: &Cli, pairs: usize) -> Json {
    let fingerprint = suite_fingerprint(&params.population());
    Json::obj(vec![
        ("benchmark", Json::str("perfbench")),
        ("workload", Json::str(params.workload.name())),
        ("seed", Json::u64(params.seed)),
        ("population_seed", Json::u64(params.population_seed)),
        (
            "held_out_population_seed",
            Json::u64(HELD_OUT_POPULATION_SEED),
        ),
        ("loops", Json::usize(params.loops)),
        ("pairs", Json::usize(pairs)),
        (
            "suite_fingerprint",
            Json::str(format!("{fingerprint:016x}")),
        ),
        ("workers", Json::usize(params.workload.workers())),
        ("nproc", Json::usize(nproc())),
        ("profile", Json::str(PROFILE)),
        ("git_commit", Json::str(util::git_commit())),
        ("seconds", Json::Num(cli.seconds)),
        ("trace", Json::Bool(cli.trace)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// `--record-baseline`: the deterministic end-to-end metrics of every
/// workload at the default and at the held-out population, as one JSON
/// document on standard output.
fn record_baseline(cli: &Cli) -> std::io::Result<()> {
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut seeds = Vec::new();
        for (role, population_seed) in [
            ("default", DEFAULT_POPULATION_SEED),
            ("held_out", HELD_OUT_POPULATION_SEED),
        ] {
            let params = Params {
                workload,
                seed: cli.seed,
                population_seed,
                loops: cli.loops.unwrap_or(workload.default_loops()),
                out_dir: cli.out_dir.clone(),
            };
            let prepared = prepare(&params)?;
            let fingerprint = suite_fingerprint(&params.population());
            let pairs = prepared.pairs();
            let s = sweep(workload, prepared);
            remove_stores(&params.out_dir);
            let t = Totals::of(&s.rfs, &s.aggregates);
            let per_config = s
                .rfs
                .iter()
                .zip(&s.aggregates)
                .map(|(rf, a)| {
                    (
                        rf.to_string(),
                        Json::obj(vec![
                            ("sum_ii", Json::u64(a.sum_ii)),
                            ("failed", Json::usize(a.failed_loops)),
                        ]),
                    )
                })
                .collect();
            seeds.push((
                role.to_string(),
                Json::obj(vec![
                    ("population_seed", Json::u64(population_seed)),
                    (
                        "suite_fingerprint",
                        Json::str(format!("{fingerprint:016x}")),
                    ),
                    ("pairs", Json::usize(pairs)),
                    ("workers", Json::usize(workload.workers())),
                    ("sum_ii", Json::u64(t.sum_ii)),
                    ("failed_pairs", Json::usize(t.failed)),
                    (
                        "fail_rate",
                        Json::Num(t.failed as f64 / t.pairs.max(1) as f64),
                    ),
                    ("exec_cycles", Json::u64(t.exec_cycles)),
                    ("mem_traffic", Json::u64(t.mem_traffic)),
                    ("hier_speedup_gmean", Json::Num(t.hier_speedup_gmean)),
                    ("per_config", Json::Obj(per_config)),
                ]),
            ));
        }
        workloads.push((workload.name().to_string(), Json::Obj(seeds)));
    }
    let doc = Json::obj(vec![
        (
            "note",
            Json::str(
                "deterministic end-to-end metrics at the default and the held-out population; \
                 regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- \
                 --record-baseline > perfbench/baseline.json`",
            ),
        ),
        ("profile", Json::str(PROFILE)),
        ("git_commit", Json::str(util::git_commit())),
        ("nproc", Json::usize(nproc())),
        ("workloads", Json::Obj(workloads)),
    ]);
    print!("{}", doc.to_pretty());
    Ok(())
}

fn main() {
    let cli = parse_cli();
    if cli.record_baseline {
        if let Err(e) = record_baseline(&cli) {
            eprintln!("perfbench: {e}");
            exit(1);
        }
        return;
    }
    let Some(workload) = cli.workload else {
        usage("--workload is required");
    };
    let params = Params {
        workload,
        seed: cli.seed,
        population_seed: cli.population_seed,
        loops: cli.loops.unwrap_or(workload.default_loops()),
        out_dir: cli.out_dir.clone(),
    };
    let stem = format!(
        "{}-seed{}-pop{}",
        workload.name(),
        params.seed,
        params.population_seed
    );
    let outcome = if cli.trace {
        run_traced(
            &params,
            cli.seconds,
            &params.out_dir.join(format!("{stem}.trace.json")),
        )
    } else {
        run_end_to_end(&params, cli.seconds)
    };
    let outcome = outcome.unwrap_or_else(|e| {
        remove_stores(&params.out_dir);
        eprintln!("perfbench: {e}");
        exit(1)
    });

    let meta = meta(&params, &cli, outcome.pairs);
    println!(
        "perfbench {} | seed {} | {} pairs | {} | tracing {}",
        workload.name(),
        params.seed,
        outcome.pairs,
        PROFILE,
        if cli.trace { "on" } else { "off" },
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<28} {value:>18.6} {unit}");
    }
    for (name, value) in &outcome.notes {
        if let Json::Arr(_) = value {
            continue;
        }
        println!("  {name:<28} {}", value.to_compact());
    }
    for pair in outcome.invalid.iter().take(20) {
        println!("  invalid: {pair}");
    }
    println!("meta {}", meta.to_compact());

    let mut record = vec![
        ("meta", meta),
        ("metrics", metrics_json(&outcome.metrics)),
        (
            "invalid",
            Json::Arr(outcome.invalid.iter().map(Json::str).collect()),
        ),
    ];
    record.extend(outcome.notes);
    let result_path = params
        .out_dir
        .join(format!("{stem}-trace{}.json", u8::from(cli.trace)));
    if let Err(e) = std::fs::create_dir_all(&params.out_dir)
        .and_then(|()| std::fs::write(&result_path, Json::obj(record).to_pretty()))
    {
        eprintln!("perfbench: cannot write {}: {e}", result_path.display());
        exit(1);
    }
    println!("result file: {}", result_path.display());

    let failed = outcome.invalid.len();
    let last = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::usize(outcome.attempted)),
        ("failed", Json::usize(failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    println!("{}", last.to_compact());
}
