//! Schedule inspector: print the full modulo schedule (kernel table) the
//! MIRS_HC scheduler produces for one kernel on a hierarchical-clustered
//! machine, showing where the LoadR/StoreR communication operations land.
//!
//! Run with `cargo run --example schedule_inspector [kernel-name]`.
//! Pass `--trace PATH` to also export the scheduling run as a Chrome
//! trace-event JSON file (loadable in Perfetto / `chrome://tracing`) along
//! with a text timeline and the metrics-registry snapshot; the written JSON
//! is parsed back as a smoke check.

use hcrf::prelude::*;
use hcrf_sched::IterativeScheduler;
use hcrf_telemetry::DEFAULT_TRACE_CAPACITY;
use hcrf_workloads::all_kernels;
use std::path::PathBuf;

fn main() {
    let mut which = "lk1_hydro".to_string();
    let mut trace_path: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--trace" => {
                i += 1;
                let Some(path) = argv.get(i) else {
                    eprintln!("schedule_inspector: missing value for --trace");
                    std::process::exit(2);
                };
                trace_path = Some(PathBuf::from(path));
            }
            other => which = other.to_string(),
        }
        i += 1;
    }
    let kernels = all_kernels();
    let Some(kernel) = kernels.iter().find(|k| k.ddg.name == which) else {
        eprintln!("unknown kernel '{which}'. Available kernels:");
        for k in &kernels {
            eprintln!("  {}", k.ddg.name);
        }
        std::process::exit(1);
    };

    let config = ConfiguredMachine::from_name("4C16S64").expect("valid configuration");
    let telemetry = if trace_path.is_some() {
        Telemetry::new(Verbosity::Debug, DEFAULT_TRACE_CAPACITY)
    } else {
        Telemetry::disabled()
    };
    let result = IterativeScheduler::new(config.machine.clone(), SchedulerParams::default())
        .with_telemetry(telemetry.clone())
        .schedule(&kernel.ddg);
    println!(
        "kernel '{}' on 4C16S64: II={} (MII={}), {} stages, {} ops ({} original)\n",
        which, result.ii, result.mii, result.sc, result.total_ops, result.original_ops
    );

    let (Some(graph), Some(placements)) = (&result.final_graph, &result.placements) else {
        println!("schedule not kept");
        return;
    };
    // Group operations by kernel row.
    let mut rows: Vec<Vec<String>> = vec![Vec::new(); result.ii as usize];
    for (id, node) in graph.nodes() {
        let p = &placements[id.index()];
        let row = (p.cycle % result.ii) as usize;
        let stage = p.cycle / result.ii;
        rows[row].push(format!(
            "{}[c{} s{}]",
            node.kind.mnemonic(),
            p.cluster,
            stage
        ));
    }
    println!("modulo reservation table (one line per kernel cycle):");
    for (row, ops) in rows.iter().enumerate() {
        println!("  cycle {row:>2}: {}", ops.join("  "));
    }
    println!(
        "\nregister requirements: cluster banks {:?}, shared bank {}",
        result.max_live_cluster, result.max_live_shared
    );
    println!(
        "communication inserted: {} LoadR, {} StoreR (spill: {} loads, {} stores)",
        result.loadr_ops, result.storer_ops, result.spill_loads, result.spill_stores
    );
    println!(
        "scheduler work: {} attempts, {} ejections, {} ejection-guard trips, \
         {} infeasible cutoffs, {} II restarts",
        result.stats.attempts,
        result.stats.ejections,
        result.stats.guard_trips,
        result.stats.infeasible_cutoffs,
        result.stats.ii_restarts
    );
    println!(
        "ladder: {} II values skipped, {} arena resets, {} budget-limited attempts",
        result.stats.ii_skips, result.stats.arena_resets, result.stats.budget_exhausts
    );
    println!(
        "warm starts: {} ({} placements retained across II bumps)",
        result.stats.warm_starts, result.stats.warm_nodes_retained
    );
    println!(
        "engine: {} pressure refreshes, {} MRT row updates",
        result.stats.pressure_refreshes, result.stats.fused_row_updates
    );

    if let Some(path) = trace_path {
        println!("\ntrace timeline:");
        print!("{}", telemetry.text_timeline());
        println!("\nmetrics snapshot:");
        print!("{}", telemetry.metrics_snapshot().render_text());
        let events = match telemetry.write_chrome_trace(&path) {
            Ok(events) => events,
            Err(e) => {
                eprintln!(
                    "schedule_inspector: failed to write trace {}: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        };
        // Parse the file back to prove the export is well-formed JSON with
        // the expected trace-event shape (the CI smoke relies on this).
        let text = std::fs::read_to_string(&path).expect("trace file readable");
        let doc = hcrf_explore::json::Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("schedule_inspector: exported trace is not valid JSON: {e}");
            std::process::exit(1);
        });
        let parsed = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .unwrap_or_else(|| {
                eprintln!("schedule_inspector: exported trace has no traceEvents array");
                std::process::exit(1);
            })
            .len();
        if parsed != events {
            eprintln!(
                "schedule_inspector: trace round-trip mismatch ({events} written, {parsed} parsed)"
            );
            std::process::exit(1);
        }
        println!("trace ok: {events} events -> {}", path.display());
    }
}
