//! Design-space exploration CLI (`hcrf-explore` front end).
//!
//! Enumerates every realizable `xCy-Sz` register-file organization satisfying
//! the given constraints, evaluates each over the loop suite (serving repeat
//! points from the content-addressed result cache), and emits the Pareto
//! ranking as a terminal table plus JSON/CSV reports.
//!
//! ```text
//! explore [--clusters 1,2,4,8] [--regs 16..128] [--budget 160] [--min-regs 0]
//!         [--max-bank-ports N] [--scenario ideal|real] [--loops 96]
//!         [--threads 0] [--top 10] [--cache-dir target/explore/cache]
//!         [--no-cache] [--retries N] [--json PATH] [--csv PATH] [--quiet]
//!         [--verbose] [--trace PATH]
//! explore --fsck    [--cache-dir DIR]     # read-only store integrity scan
//! explore --compact [--cache-dir DIR]     # fold duplicates/damage away
//! ```
//!
//! `--regs` accepts either an inclusive range (`16..128`, expanded to the
//! powers of two it contains) or an explicit list (`16,24,32`). A second
//! identical invocation is answered almost entirely from the cache; the hit
//! count is reported at the end.
//!
//! `--retries N` switches the engine to the isolate failure policy: a
//! panicking loop task is retried up to N times, then its design point is
//! quarantined (reported in the failure manifest) instead of aborting the
//! sweep. `--fsck` scans the result store's segment (`results.seg`) without
//! modifying it and exits nonzero if it holds torn or corrupt bytes;
//! `--compact` rewrites the segment to exactly its live records.

use hcrf_engine::FailurePolicy;
use hcrf_explore::prelude::*;
use hcrf_telemetry::DEFAULT_TRACE_CAPACITY;
use hcrf_workloads::{suite::suite, SuiteParams};
use std::path::PathBuf;
use std::process::exit;

struct Args {
    space: DesignSpace,
    scenario: Scenario,
    loops: usize,
    threads: usize,
    top: usize,
    cache_dir: Option<PathBuf>,
    json_path: PathBuf,
    csv_path: PathBuf,
    verbosity: Verbosity,
    trace_path: Option<PathBuf>,
    retries: Option<u32>,
    fsck: bool,
    compact: bool,
}

// Large enough that spills/communication discriminate the organizations,
// small enough that a cold 38-point sweep stays around a minute per CPU.
const DEFAULT_LOOPS: usize = 96;

fn usage() -> ! {
    eprintln!(
        "usage: explore [--clusters 1,2,4,8] [--regs 16..128 | --regs 16,32,64] \
         [--budget 160] [--min-regs 0] [--max-bank-ports N] \
         [--scenario ideal|real] [--loops {DEFAULT_LOOPS}] [--threads 0] [--top 10] \
         [--cache-dir DIR] [--no-cache] [--retries N] [--json PATH] [--csv PATH] \
         [--quiet] [--verbose] [--trace PATH]\n\
         \x20      explore --fsck [--cache-dir DIR]\n\
         \x20      explore --compact [--cache-dir DIR]"
    );
    exit(2)
}

fn parse_u32_list(text: &str, flag: &str) -> Vec<u32> {
    let values: Option<Vec<u32>> = text.split(',').map(|p| p.trim().parse().ok()).collect();
    match values {
        Some(v) if !v.is_empty() => v,
        _ => {
            eprintln!("explore: invalid {flag} list '{text}'");
            usage()
        }
    }
}

/// `16..128` → the powers of two inside the inclusive range; `16,24` → as-is.
fn parse_regs(text: &str) -> Vec<u32> {
    if let Some((lo, hi)) = text.split_once("..") {
        let lo: u32 = lo.trim().parse().unwrap_or_else(|_| usage());
        let hi: u32 = hi
            .trim()
            .trim_start_matches('=')
            .parse()
            .unwrap_or_else(|_| usage());
        if lo == 0 || lo > hi {
            eprintln!("explore: empty register range '{text}'");
            usage();
        }
        let mut sizes = Vec::new();
        let mut size = lo.next_power_of_two();
        while size <= hi {
            sizes.push(size);
            size *= 2;
        }
        if sizes.is_empty() {
            eprintln!("explore: no power-of-two bank size inside '{text}' (use an explicit list)");
            usage();
        }
        sizes
    } else {
        parse_u32_list(text, "--regs")
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        space: DesignSpace::default(),
        scenario: Scenario::Ideal,
        loops: DEFAULT_LOOPS,
        threads: 0,
        top: 10,
        cache_dir: Some(PathBuf::from("target/explore/cache")),
        json_path: PathBuf::from("target/explore/pareto.json"),
        csv_path: PathBuf::from("target/explore/points.csv"),
        verbosity: Verbosity::Progress,
        trace_path: None,
        retries: None,
        fsck: false,
        compact: false,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--clusters" => {
                args.space.cluster_counts = parse_u32_list(&value(&mut i), "--clusters")
            }
            "--regs" => args.space.bank_sizes = parse_regs(&value(&mut i)),
            "--budget" => {
                args.space.max_total_regs = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--min-regs" => {
                args.space.min_total_regs = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--max-bank-ports" => {
                args.space.max_bank_ports = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--scenario" => {
                args.scenario = value(&mut i).parse().unwrap_or_else(|e| {
                    eprintln!("explore: {e}");
                    usage()
                })
            }
            "--loops" => args.loops = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => args.threads = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--top" => args.top = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value(&mut i))),
            "--no-cache" => args.cache_dir = None,
            "--json" => args.json_path = PathBuf::from(value(&mut i)),
            "--csv" => args.csv_path = PathBuf::from(value(&mut i)),
            "--quiet" => args.verbosity = Verbosity::Silent,
            "--verbose" => args.verbosity = Verbosity::Debug,
            "--trace" => args.trace_path = Some(PathBuf::from(value(&mut i))),
            "--retries" => args.retries = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--fsck" => args.fsck = true,
            "--compact" => args.compact = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("explore: unknown argument '{other}'");
                usage()
            }
        }
        i += 1;
    }
    args
}

fn write_report(path: &PathBuf, contents: String, what: &str) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, contents) {
        Ok(()) => println!("{what} report: {}", path.display()),
        Err(e) => eprintln!("explore: failed to write {}: {e}", path.display()),
    }
}

/// `explore --fsck`: read-only store integrity scan. Exit 0 when the
/// segment is clean, 1 when torn or corrupt bytes are present.
fn run_fsck(dir: &PathBuf) -> ! {
    match ResultCache::fsck(dir) {
        Ok(report) => {
            println!(
                "fsck {}: {} record(s), {} live key(s)",
                dir.display(),
                report.records,
                report.live_keys,
            );
            if report.quarantined_bytes > 0 {
                println!(
                    "  {} byte(s) in quarantine from previous recoveries",
                    report.quarantined_bytes
                );
            }
            if report.is_clean() {
                println!("  clean");
                exit(0);
            }
            println!(
                "  DAMAGE: {} corrupt record(s), {} torn tail byte(s) — reopen the store (or rerun explore) to recover",
                report.corrupt_records, report.torn_bytes,
            );
            exit(1);
        }
        Err(e) => {
            eprintln!("explore: fsck of {} failed: {e}", dir.display());
            exit(1);
        }
    }
}

/// `explore --compact`: open (recovering) and rewrite the store
/// to exactly its live records.
fn run_compact(dir: &PathBuf, verbosity: Verbosity) -> ! {
    let telemetry = Telemetry::reporter(verbosity);
    match ResultCache::open_traced(dir, &telemetry) {
        Ok(mut cache) => {
            let before = ResultCache::fsck(dir).map(|r| r.records).unwrap_or(0);
            match cache.compact() {
                Ok(()) => {
                    let after = ResultCache::fsck(dir).map(|r| r.records).unwrap_or(0);
                    println!(
                        "compacted {}: {} record(s) -> {} live record(s)",
                        dir.display(),
                        before,
                        after
                    );
                    exit(0);
                }
                Err(e) => {
                    eprintln!("explore: compaction of {} failed: {e}", dir.display());
                    exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("explore: cannot open store {}: {e}", dir.display());
            exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if args.fsck || args.compact {
        let Some(dir) = args.cache_dir.as_ref() else {
            eprintln!("explore: --fsck/--compact need a cache directory (omit --no-cache)");
            exit(2);
        };
        if args.fsck {
            run_fsck(dir);
        }
        run_compact(dir, args.verbosity);
    }
    let orgs = args.space.enumerate();
    if orgs.is_empty() {
        eprintln!("explore: the constraints admit no organization");
        exit(1);
    }
    println!("================================================================");
    println!("hcrf-explore — register-file design-space exploration");
    println!(
        "space: {} organizations (clusters {:?}, banks {:?}, {}..={} regs{})",
        orgs.len(),
        args.space.cluster_counts,
        args.space.bank_sizes,
        args.space.min_total_regs,
        args.space.max_total_regs,
        args.space
            .max_bank_ports
            .map(|p| format!(", <= {p} ports/bank"))
            .unwrap_or_default(),
    );
    println!(
        "workload: {} loops | scenario: {} | cache: {}",
        args.loops,
        args.scenario,
        args.cache_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".into()),
    );
    println!("================================================================");

    let loops = suite(SuiteParams {
        total_loops: args.loops,
        ..Default::default()
    });
    let telemetry = if args.trace_path.is_some() {
        Telemetry::new(args.verbosity, DEFAULT_TRACE_CAPACITY)
    } else {
        Telemetry::reporter(args.verbosity)
    };
    let mut cache = match args.cache_dir.as_ref() {
        Some(dir) => ResultCache::open_traced(dir, &telemetry).unwrap_or_else(|e| {
            eprintln!(
                "explore: cannot open cache dir {} ({e}); continuing without cache",
                dir.display()
            );
            ResultCache::disabled()
        }),
        None => ResultCache::disabled(),
    };
    let options = ExploreOptions {
        scenario: args.scenario,
        threads: args.threads,
        progress: args.verbosity >= Verbosity::Progress,
        failure: match args.retries {
            Some(retries) => FailurePolicy::Isolate { retries },
            None => FailurePolicy::FailFast,
        },
        ..Default::default()
    };
    let outcome = explore_traced(&orgs, &loops, &options, &mut cache, &telemetry);
    let report = build_report(&outcome);

    println!();
    print!("{}", report.format_table(args.top.min(report.points.len())));
    if report.points.len() > args.top {
        println!(
            "... and {} more (see the CSV/JSON reports)",
            report.points.len() - args.top
        );
    }
    println!();
    println!(
        "frontier ({} of {} points): {}",
        report.frontier.len(),
        report.points.len(),
        report.frontier.join(", ")
    );
    if !report.quarantined.is_empty() {
        println!(
            "quarantined: {} point(s) failed evaluation — see the failure manifest above",
            report.quarantined.len()
        );
    }
    let stats = outcome.cache;
    println!(
        "cache: {} hits, {} misses ({:.1}% hit rate), {} stored{} | wall time {:.2}s",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate(),
        stats.stores,
        if cache.stats().corrupt > 0 {
            format!(", {} corrupt entr(ies) quarantined", cache.stats().corrupt)
        } else {
            String::new()
        },
        outcome.wall_seconds,
    );
    write_report(&args.json_path, report.to_json().to_pretty(), "JSON");
    write_report(&args.csv_path, report.to_csv(), "CSV");
    if let Some(path) = args.trace_path.as_ref() {
        match telemetry.write_chrome_trace(path) {
            Ok(events) => println!("trace: {events} events -> {}", path.display()),
            Err(e) => eprintln!("explore: failed to write trace {}: {e}", path.display()),
        }
    }
    if args.verbosity >= Verbosity::Debug {
        print!("{}", telemetry.metrics_snapshot().render_text());
    }
}
