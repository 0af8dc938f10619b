//! Scheduler performance-trajectory harness (`bench_sched`).
//!
//! Schedules the standard, ejection-churn and wide-window suites on four
//! configurations: the two that bound scheduler wall time (`4C16S64`, the
//! 2-FU hierarchical machine whose churn loops storm the backtracking paths,
//! and the `S128` monolithic control) and the paper's two headline
//! hierarchical organizations (`4C32S16`, `8C16S16`), where the multi-row
//! victim failures and the ladder-contract violations live. It writes
//! per-(suite, config) wall-time and work counters — ejections, guard
//! trips, infeasible cutoffs, II restarts — to a JSON trajectory file.
//! Committing the file after a scheduler-perf PR gives the next PR a
//! baseline to compare against without re-running the old code.
//!
//! Each sweep runs on the work-stealing [`hcrf_engine::Engine`] with pooled
//! `AttemptArena`s (`--threads N`, 0 = auto). Work counters are folded in
//! loop-index order and are bit-identical for any thread count; only wall
//! time depends on parallelism, so the resolved thread count is recorded in
//! the `meta` header and wall-time comparison across differing thread counts
//! is refused.
//!
//! With `--compare BASELINE.json` the harness becomes a regression gate: it
//! re-runs the sweeps at the baseline's suite sizes, requires every work
//! counter to match the baseline exactly (the scheduler is deterministic),
//! and requires wall time to stay within `--tolerance` (default 2.0×) of the
//! baseline when the recorded machine looks comparable (same logical core
//! count, same resolved thread count — a thread-count mismatch is a hard
//! conflict, exit 2, because the wall-time trajectory would be meaningless).
//!
//! `--only <suite>[/<config>]` narrows a run to one suite (or one sweep)
//! for quick iteration on a hot spot. A narrowed `--compare` gates only the
//! sweeps that actually ran — absent suites and configs are *skipped*, not
//! reported as regressions — and a narrowed run never overwrites the
//! default trajectory file (pass `--out` explicitly to write a partial
//! document).
//!
//! `--ablate` then reruns the same sweeps once with the reference scheduler
//! ([`IterativeScheduler::with_reference`]: every fast path swapped for its
//! paper-literal counterpart), prints its wall time as a ratio of the
//! default's, and exits 1 unless every sweep's `sum_ii` and `failed` equal
//! the default's.
//!
//! ```text
//! bench_sched [--loops N] [--churn N] [--wide N] [--threads 0]
//!             [--only SUITE[/CONFIG]] [--out BENCH_sched.json]
//!             [--compare BASELINE.json] [--tolerance 2.0] [--trace PATH]
//!             [--ablate]
//! ```

use hcrf_engine::Engine;
use hcrf_explore::json::Json;
use hcrf_ir::Loop;
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_sched::{ArenaPool, IterativeScheduler, PhaseTimings, SchedulerParams, SchedulerStats};
use hcrf_telemetry::{Telemetry, Verbosity, DEFAULT_TRACE_CAPACITY};
use hcrf_workloads::{churn_suite, suite::suite, wide_window_suite, SuiteParams};
use std::path::PathBuf;
use std::time::Instant;

const CONFIGS: [&str; 4] = ["4C16S64", "S128", "4C32S16", "8C16S16"];

struct Args {
    loops: usize,
    churn: usize,
    wide: usize,
    sizes_explicit: bool,
    only: Option<(String, Option<String>)>,
    threads: usize,
    out: PathBuf,
    out_explicit: bool,
    compare: Option<PathBuf>,
    tolerance: f64,
    trace_path: Option<PathBuf>,
    ablate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        loops: 128,
        churn: 16,
        wide: 8,
        sizes_explicit: false,
        only: None,
        threads: 0,
        out: PathBuf::from("BENCH_sched.json"),
        out_explicit: false,
        compare: None,
        tolerance: 2.0,
        trace_path: None,
        ablate: false,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("bench_sched: missing value for {}", argv[*i - 1]);
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--loops" => {
                args.loops = value(&mut i).parse().expect("--loops N");
                args.sizes_explicit = true;
            }
            "--churn" => {
                args.churn = value(&mut i).parse().expect("--churn N");
                args.sizes_explicit = true;
            }
            "--wide" => {
                args.wide = value(&mut i).parse().expect("--wide N");
                args.sizes_explicit = true;
            }
            "--only" => {
                let v = value(&mut i);
                let (suite, config) = match v.split_once('/') {
                    Some((s, c)) => (s.to_string(), Some(c.to_string())),
                    None => (v, None),
                };
                if !["standard", "churn", "wide"].contains(&suite.as_str()) {
                    eprintln!("bench_sched: --only: unknown suite '{suite}'");
                    std::process::exit(2);
                }
                if let Some(c) = &config {
                    if !CONFIGS.contains(&c.as_str()) {
                        eprintln!("bench_sched: --only: unknown config '{c}'");
                        std::process::exit(2);
                    }
                }
                args.only = Some((suite, config));
            }
            "--threads" => args.threads = value(&mut i).parse().expect("--threads N"),
            "--out" => {
                args.out = PathBuf::from(value(&mut i));
                args.out_explicit = true;
            }
            "--compare" => args.compare = Some(PathBuf::from(value(&mut i))),
            "--tolerance" => args.tolerance = value(&mut i).parse().expect("--tolerance X"),
            "--trace" => args.trace_path = Some(PathBuf::from(value(&mut i))),
            "--ablate" => args.ablate = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_sched [--loops N] [--churn N] [--wide N] [--threads 0] \
                     [--only SUITE[/CONFIG]] [--out PATH] [--compare BASELINE.json] \
                     [--tolerance 2.0] [--trace PATH] [--ablate]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("bench_sched: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// Aggregate counters of one (suite, config) sweep.
#[derive(Default)]
struct Sweep {
    wall_ms: f64,
    loops: u64,
    failed: u64,
    sum_ii: u64,
    stats: SchedulerStats,
    phases: PhaseTimings,
}

fn run_sweep(
    engine: &Engine,
    loops: &[Loop],
    config: &str,
    params: SchedulerParams,
    reference: bool,
    telemetry: &Telemetry,
) -> Sweep {
    let machine = MachineConfig::paper_baseline(RfOrganization::parse(config).unwrap());
    let mut sched = IterativeScheduler::new(machine, params).with_telemetry(telemetry.clone());
    if reference {
        sched = sched.with_reference();
    }
    let start = Instant::now();
    // Loops scheduled on the work-stealing engine with a pooled arena per
    // worker; the fold below walks the index-ordered results, so every
    // counter is bit-identical regardless of thread count.
    let run = engine.map_indexed(
        loops.len(),
        |_| ArenaPool::new(),
        |pool, ctx| sched.schedule_with_timings_pooled(&loops[ctx.group].ddg, pool),
    );
    let (results, _, _) = run.expect_complete();
    let mut sweep = Sweep::default();
    for (r, phases) in &results {
        sweep.loops += 1;
        sweep.failed += u64::from(r.failed);
        sweep.sum_ii += r.ii as u64;
        sweep.stats.attempts += r.stats.attempts;
        sweep.stats.ejections += r.stats.ejections;
        sweep.stats.guard_trips += r.stats.guard_trips;
        sweep.stats.infeasible_cutoffs += r.stats.infeasible_cutoffs;
        sweep.stats.ii_restarts += r.stats.ii_restarts;
        sweep.stats.ii_skips += r.stats.ii_skips;
        sweep.stats.arena_resets += r.stats.arena_resets;
        sweep.stats.budget_exhausts += r.stats.budget_exhausts;
        sweep.stats.warm_starts += r.stats.warm_starts;
        sweep.stats.warm_nodes_retained += r.stats.warm_nodes_retained;
        sweep.stats.pressure_refreshes += r.stats.pressure_refreshes;
        sweep.stats.fused_row_updates += r.stats.fused_row_updates;
        sweep.phases.absorb(phases);
    }
    sweep.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    sweep
}

fn ms(d: std::time::Duration) -> Json {
    Json::Num((d.as_secs_f64() * 1e6).round() / 1e3)
}

/// Work counters whose values must be bit-identical run-to-run (and hence
/// across compared runs at equal suite sizes): the scheduler is
/// deterministic, so any drift means the algorithm changed behaviour.
const EXACT_KEYS: [&str; 14] = [
    "loops",
    "failed",
    "sum_ii",
    "attempts",
    "ejections",
    "guard_trips",
    "infeasible_cutoffs",
    "ii_restarts",
    "ii_skips",
    "arena_resets",
    "budget_exhausts",
    "warm_starts",
    "warm_nodes_retained",
    // Row-maintenance volume is schedule-derived (span rows per placement
    // transaction), so it gates exactly. `pressure_refreshes` is recorded
    // but NOT gated: it counts refresh requests of the tracker's maintenance
    // policy, so a legitimate policy change moves it without changing any
    // schedule — mirroring its exclusion from SchedulerStats equality.
    "fused_row_updates",
];

fn sweep_json(sweep: &Sweep) -> Json {
    Json::obj(vec![
        ("wall_ms", Json::Num((sweep.wall_ms * 1e3).round() / 1e3)),
        ("loops", Json::u64(sweep.loops)),
        ("failed", Json::u64(sweep.failed)),
        ("sum_ii", Json::u64(sweep.sum_ii)),
        ("attempts", Json::u64(sweep.stats.attempts)),
        ("ejections", Json::u64(sweep.stats.ejections)),
        ("guard_trips", Json::u64(sweep.stats.guard_trips)),
        (
            "infeasible_cutoffs",
            Json::u64(sweep.stats.infeasible_cutoffs),
        ),
        ("ii_restarts", Json::u64(sweep.stats.ii_restarts as u64)),
        ("ii_skips", Json::u64(sweep.stats.ii_skips as u64)),
        ("arena_resets", Json::u64(sweep.stats.arena_resets as u64)),
        (
            "budget_exhausts",
            Json::u64(sweep.stats.budget_exhausts as u64),
        ),
        ("warm_starts", Json::u64(sweep.stats.warm_starts as u64)),
        (
            "warm_nodes_retained",
            Json::u64(sweep.stats.warm_nodes_retained),
        ),
        (
            "pressure_refreshes",
            Json::u64(sweep.stats.pressure_refreshes),
        ),
        (
            "fused_row_updates",
            Json::u64(sweep.stats.fused_row_updates),
        ),
        (
            "phase_ms",
            Json::obj(vec![
                ("graph_build", ms(sweep.phases.graph_build)),
                ("order", ms(sweep.phases.order)),
                ("warm_start", ms(sweep.phases.warm_start)),
                ("resets", ms(sweep.phases.resets)),
                ("attempts", ms(sweep.phases.attempts)),
            ]),
        ),
    ])
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn core_count() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0)
}

fn meta_json(args: &Args, threads: usize) -> Json {
    Json::obj(vec![
        ("git_commit", Json::str(git_commit())),
        ("core_count", Json::u64(core_count())),
        ("threads", Json::usize(threads)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "suite_sizes",
            Json::obj(vec![
                ("standard", Json::usize(args.loops)),
                ("churn", Json::usize(args.churn)),
                ("wide", Json::usize(args.wide)),
            ]),
        ),
    ])
}

/// Load the baseline, reconcile suite sizes, and describe machine
/// comparability. Exits on malformed baselines, explicit size conflicts,
/// or a thread-count mismatch (wall time at N threads cannot be compared
/// against a trajectory recorded at M threads).
fn load_baseline(args: &mut Args, threads: usize) -> (Json, bool) {
    let path = args.compare.clone().expect("compare mode");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("bench_sched: cannot read baseline {}: {e}", path.display());
        std::process::exit(2);
    });
    let baseline = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_sched: malformed baseline {}: {e}", path.display());
        std::process::exit(2);
    });
    let meta = baseline.get("meta");
    let sizes = meta
        .and_then(|m| m.get("suite_sizes"))
        .or_else(|| baseline.get("suite_sizes"));
    if let Some(sizes) = sizes {
        let get = |key: &str, fallback: usize| -> usize {
            sizes
                .get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .unwrap_or(fallback)
        };
        let (std_n, churn_n, wide_n) = (
            get("standard", args.loops),
            get("churn", args.churn),
            get("wide", args.wide),
        );
        if args.sizes_explicit {
            if (std_n, churn_n, wide_n) != (args.loops, args.churn, args.wide) {
                eprintln!(
                    "bench_sched: suite sizes ({}, {}, {}) do not match the baseline's \
                     ({std_n}, {churn_n}, {wide_n}); drop the explicit sizes or \
                     regenerate the baseline",
                    args.loops, args.churn, args.wide
                );
                std::process::exit(2);
            }
        } else {
            args.loops = std_n;
            args.churn = churn_n;
            args.wide = wide_n;
        }
    }
    // Wall-time comparability: the baseline must have been recorded in the
    // same profile on a machine with the same logical core count. Work
    // counters are machine-independent and are compared regardless.
    let mut comparable = true;
    match meta {
        Some(meta) => {
            let base_cores = meta.get("core_count").and_then(Json::as_u64).unwrap_or(0);
            let here = core_count();
            if base_cores != 0 && here != 0 && base_cores != here {
                eprintln!(
                    "bench_sched: warning: baseline recorded on a {base_cores}-core machine, \
                     this one has {here}; skipping the wall-time check"
                );
                comparable = false;
            }
            let base_threads = meta.get("threads").and_then(Json::as_u64).unwrap_or(0);
            if base_threads != 0 && base_threads != threads as u64 {
                eprintln!(
                    "bench_sched: baseline recorded at {base_threads} thread(s), this run \
                     resolves to {threads}; wall-time comparison would be meaningless. \
                     Re-run with --threads {base_threads} or regenerate the baseline."
                );
                std::process::exit(2);
            }
            let base_profile = meta.get("profile").and_then(Json::as_str).unwrap_or("");
            let profile = if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            };
            if !base_profile.is_empty() && base_profile != profile {
                eprintln!(
                    "bench_sched: warning: baseline profile '{base_profile}' vs current \
                     '{profile}'; skipping the wall-time check"
                );
                comparable = false;
            }
        }
        None => {
            eprintln!(
                "bench_sched: warning: baseline has no meta header (pre-gate format); \
                 skipping the wall-time check"
            );
            comparable = false;
        }
    }
    (baseline, comparable)
}

/// Compare the fresh sweeps against a baseline document. Returns the number
/// of violations (exact-counter mismatches plus wall-time regressions).
/// Sweeps absent from either side — a run narrowed with `--only`, or a
/// baseline predating a suite — are skipped, never counted as regressions.
fn compare_against(
    baseline: &Json,
    comparable: bool,
    tolerance: f64,
    suite_objs: &[(String, Json)],
) -> usize {
    let mut violations = 0usize;
    for (suite_name, configs) in suite_objs {
        for config in CONFIGS {
            let Some(current) = configs.get(config) else {
                continue;
            };
            let base = baseline
                .get("suites")
                .and_then(|s| s.get(suite_name))
                .and_then(|s| s.get(config));
            let Some(base) = base else {
                eprintln!("bench_sched: warning: baseline has no entry for {suite_name}/{config}");
                continue;
            };
            for key in EXACT_KEYS {
                let want = base.get(key).and_then(Json::as_u64);
                let got = current.get(key).and_then(Json::as_u64);
                if let (Some(want), Some(got)) = (want, got) {
                    if want != got {
                        eprintln!(
                            "REGRESSION {suite_name}/{config}: {key} changed \
                             {want} -> {got} (work counters must match exactly)"
                        );
                        violations += 1;
                    }
                }
            }
            if comparable {
                let base_ms = base.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
                let cur_ms = current.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
                if base_ms > 0.0 && cur_ms > base_ms * tolerance {
                    eprintln!(
                        "REGRESSION {suite_name}/{config}: wall time {cur_ms:.1} ms exceeds \
                         {tolerance:.2}x the baseline's {base_ms:.1} ms"
                    );
                    violations += 1;
                }
            }
        }
    }
    violations
}

fn main() {
    let mut args = parse_args();
    let engine = Engine::new(args.threads);
    let threads = engine.workers();
    let baseline = args
        .compare
        .is_some()
        .then(|| load_baseline(&mut args, threads));
    // The churn family climbs long II ladders by design; the other suites
    // use the default cap (identical to the equivalence tests).
    let default_params = SchedulerParams::default().without_schedule();
    let churn_params = SchedulerParams {
        max_ii: 256,
        ..default_params
    };
    let suites: [(&str, Vec<Loop>, SchedulerParams); 3] = [
        (
            "standard",
            suite(SuiteParams {
                total_loops: args.loops,
                ..Default::default()
            }),
            default_params,
        ),
        ("churn", churn_suite(args.churn), churn_params),
        ("wide", wide_window_suite(args.wide), default_params),
    ];
    let telemetry = if args.trace_path.is_some() {
        Telemetry::new(Verbosity::Silent, DEFAULT_TRACE_CAPACITY)
    } else {
        Telemetry::disabled()
    };

    println!("================================================================");
    println!("bench_sched — scheduler wall-time / work-counter trajectory");
    println!(
        "suites: standard({}) churn({}) wide({}) | configs: {} | threads: {threads}",
        args.loops,
        args.churn,
        args.wide,
        CONFIGS.join(", ")
    );
    println!("================================================================");

    let selected = |suite_name: &str, config: Option<&str>| match &args.only {
        None => true,
        Some((only_suite, only_config)) => {
            only_suite == suite_name
                && match (only_config, config) {
                    (Some(c), Some(config)) => c == config,
                    _ => true,
                }
        }
    };
    let mut suite_objs = Vec::new();
    // (wall ms, sum_ii, failed) of every default sweep, in run order.
    let mut defaults = Vec::new();
    for (suite_name, loops, params) in &suites {
        if !selected(suite_name, None) {
            continue;
        }
        let mut config_objs = Vec::new();
        for config in CONFIGS {
            if !selected(suite_name, Some(config)) {
                continue;
            }
            let sweep = run_sweep(&engine, loops, config, *params, false, &telemetry);
            defaults.push((sweep.wall_ms, sweep.sum_ii, sweep.failed));
            println!(
                "{suite_name:>8} / {config:<8} {:>9.1} ms | {:>9} ejections | {:>5} guard trips \
                 | {:>6} infeasible cutoffs | {:>6} II restarts | {:>5} II skips \
                 | {:>5} warm starts{}",
                sweep.wall_ms,
                sweep.stats.ejections,
                sweep.stats.guard_trips,
                sweep.stats.infeasible_cutoffs,
                sweep.stats.ii_restarts,
                sweep.stats.ii_skips,
                sweep.stats.warm_starts,
                if sweep.failed > 0 {
                    format!(" | {} failed", sweep.failed)
                } else {
                    String::new()
                },
            );
            println!(
                "{:>19} {:>9} pressure refreshes | {:>9} fused row updates",
                "", sweep.stats.pressure_refreshes, sweep.stats.fused_row_updates,
            );
            config_objs.push((config.to_string(), sweep_json(&sweep)));
        }
        suite_objs.push((suite_name.to_string(), Json::Obj(config_objs)));
    }

    if args.ablate {
        let default_ms: f64 = defaults.iter().map(|d| d.0).sum();
        let mut mismatches = 0usize;
        let mut wall_ms = 0.0;
        let mut expected = defaults.iter();
        for (suite_name, loops, params) in &suites {
            for config in CONFIGS {
                if !selected(suite_name, Some(config)) {
                    continue;
                }
                let sweep = run_sweep(
                    &engine,
                    loops,
                    config,
                    *params,
                    true,
                    &Telemetry::disabled(),
                );
                wall_ms += sweep.wall_ms;
                let &(_, sum_ii, failed) = expected.next().expect("same sweeps");
                if (sweep.sum_ii, sweep.failed) != (sum_ii, failed) {
                    eprintln!(
                        "ABLATION MISMATCH reference {suite_name}/{config}: sum_ii {} failed {} \
                         vs the default's {sum_ii} / {failed}",
                        sweep.sum_ii, sweep.failed
                    );
                    mismatches += 1;
                }
            }
        }
        println!(
            "ablate reference {:>9.1} ms = {:.2}x the default's {default_ms:.1} ms",
            wall_ms,
            wall_ms / default_ms.max(1e-9),
        );
        if mismatches > 0 {
            eprintln!("bench_sched: {mismatches} ablation sweep(s) changed a result");
            std::process::exit(1);
        }
    }

    if let Some(path) = args.trace_path.as_ref() {
        match telemetry.write_chrome_trace(path) {
            Ok(events) => println!("trace: {events} events -> {}", path.display()),
            Err(e) => eprintln!("bench_sched: failed to write trace {}: {e}", path.display()),
        }
    }

    if let Some((base, comparable)) = baseline {
        let violations = compare_against(&base, comparable, args.tolerance, &suite_objs);
        if violations > 0 {
            eprintln!("bench_sched: {violations} regression(s) against the baseline");
            std::process::exit(1);
        }
        println!(
            "compare: green against {} (exact counters{}; tolerance {:.2}x)",
            args.compare.as_ref().unwrap().display(),
            if comparable { " + wall time" } else { "" },
            args.tolerance,
        );
        if !args.out_explicit {
            return;
        }
    }

    if args.only.is_some() && !args.out_explicit {
        println!("narrowed run (--only); trajectory not written — pass --out to force");
        return;
    }

    let doc = Json::obj(vec![
        ("harness", Json::str("bench_sched")),
        (
            "note",
            Json::str(
                "end-to-end IterativeScheduler wall time and work counters per \
                 (suite, config); regenerate with `cargo run --release --bin bench_sched`",
            ),
        ),
        ("meta", meta_json(&args, threads)),
        (
            "suite_sizes",
            Json::obj(vec![
                ("standard", Json::usize(args.loops)),
                ("churn", Json::usize(args.churn)),
                ("wide", Json::usize(args.wide)),
            ]),
        ),
        ("suites", Json::Obj(suite_objs)),
    ]);
    match std::fs::write(&args.out, doc.to_pretty()) {
        Ok(()) => println!("trajectory written to {}", args.out.display()),
        Err(e) => {
            eprintln!("bench_sched: failed to write {}: {e}", args.out.display());
            std::process::exit(1);
        }
    }
}
