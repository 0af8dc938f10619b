//! The traced run: the same sweep, decomposed into each layer's public
//! calls, every call wrapped in a span of the benchmark's own. The spans go
//! to an `hcrf_telemetry` sink (exported as a Perfetto-loadable Chrome
//! trace); the per-layer metrics come from the span durations, from the
//! values the calls return (`ScheduleResult.stats`, `PhaseTimings`,
//! `MemorySimResult`, `ExploreOutcome`) and, inside `explore_traced`, from
//! the telemetry registry the program already publishes into.

use crate::util::{dir_bytes, tail_share};
use crate::workload::{warm_check, Params, Totals, Workload};
use hcrf::experiments::TABLE5_CONFIGS;
use hcrf::memory::kernel_accesses;
use hcrf::{fold_suite_aggregate, suite_fingerprint, ConfiguredMachine, LoopRun};
use hcrf_engine::Engine;
use hcrf_explore::{build_report, explore_traced, ResultCache};
use hcrf_ir::min_initiation_interval;
use hcrf_machine::RfOrganization;
use hcrf_memsim::{simulate_kernel, MemorySimResult};
use hcrf_perf::{LoopPerformance, SuiteAggregate};
use hcrf_sched::{ArenaPool, IterativeScheduler, PhaseTimings, SchedulerParams, SchedulerStats};
use hcrf_telemetry::{MetricsSnapshot, Telemetry, TraceBuf};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Trace-ring capacity of a traced run: room for every span of the largest
/// workload (two to four per pair) with margin.
pub const TRACE_CAPACITY: usize = 1 << 18;

/// Run `f` inside a span; returns its value and duration in seconds.
fn span<R>(
    buf: &mut TraceBuf,
    name: &'static str,
    cat: &'static str,
    label: Option<&str>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = buf.now_ns();
    let value = f();
    let seconds = buf.now_ns().saturating_sub(t0) as f64 * 1e-9;
    buf.span_labeled(name, cat, t0, label, &[]);
    (value, seconds)
}

fn add_stats(acc: &mut SchedulerStats, s: &SchedulerStats) {
    acc.attempts += s.attempts;
    acc.ejections += s.ejections;
    acc.ii_restarts += s.ii_restarts;
    acc.ii_skips += s.ii_skips;
    acc.arena_resets += s.arena_resets;
    acc.budget_exhausts += s.budget_exhausts;
    acc.guard_trips += s.guard_trips;
    acc.infeasible_cutoffs += s.infeasible_cutoffs;
    acc.warm_starts += s.warm_starts;
    acc.warm_nodes_retained += s.warm_nodes_retained;
    acc.pressure_refreshes += s.pressure_refreshes;
    acc.refresh_skips += s.refresh_skips;
    acc.fused_row_updates += s.fused_row_updates;
}

/// Per-layer figures of one traced sweep.
#[derive(Debug, Default)]
pub struct Layers {
    gen_s: f64,
    configure_s: f64,
    mii_s: f64,
    sum_mii: u64,
    phases: PhaseTimings,
    stats: SchedulerStats,
    /// Seconds inside `validate_schedule` (set by the caller's check).
    pub validate_s: f64,
    /// (scheduler seconds, failed) per pair.
    pair_times: Vec<(f64, bool)>,
    /// (name, scheduler seconds, ΣII, failed pairs) per configuration.
    per_config: Vec<(String, f64, u64, usize)>,
    access_gen_s: f64,
    replay_s: f64,
    accesses: u64,
    misses: u64,
    fold_s: f64,
    report_s: f64,
    sched_s: f64,
    workers: usize,
    engine_tasks: u64,
    engine_steals: u64,
    arena_rebinds: u64,
    enumerate_s: f64,
    fingerprint_s: f64,
    store_open_s: f64,
    warm_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    store_appends: u64,
    store_bytes: u64,
}

/// One traced sweep.
#[derive(Debug)]
pub struct Traced {
    /// Wall time of the sweep proper (comparable with the untraced sweep).
    pub wall_s: f64,
    /// Configurations or design points, in sweep order.
    pub rfs: Vec<RfOrganization>,
    /// Their aggregates.
    pub aggregates: Vec<SuiteAggregate>,
    /// Per-layer figures.
    pub layers: Layers,
    /// Outputs that failed a check inside the traced sweep, by name.
    pub invalid: Vec<String>,
    /// Pairs scheduled.
    pub pairs: usize,
}

/// What one pair's decomposed evaluation returns.
struct PairTrace {
    run: LoopRun,
    mii: u32,
    mii_s: f64,
    sched_s: f64,
    access_s: f64,
    replay_s: f64,
    sim: MemorySimResult,
}

/// Run one traced sweep of `params.workload` into `telemetry`.
pub fn traced_sweep(params: &Params, telemetry: &Telemetry) -> std::io::Result<Traced> {
    match params.workload {
        Workload::ExploreSweep => traced_explore(params, telemetry),
        _ => Ok(traced_paper(params, telemetry)),
    }
}

/// The `run_suite` sweep taken apart: workload generation, machine
/// configuration, then per configuration an engine run whose task calls the
/// IR's MII, the scheduler, the memory-access extraction and the cache
/// replay in turn (exactly what `run_loop_traced` does), then the fold.
fn traced_paper(params: &Params, telemetry: &Telemetry) -> Traced {
    let workload = params.workload;
    let options = workload.run_options();
    let mut buf = telemetry.trace_buf();
    let mut layers = Layers {
        workers: options.threads,
        ..Layers::default()
    };
    let (suite, gen_s) = span(&mut buf, "generate", "workloads", None, || params.suite());
    let (configs, configure_s) = span(&mut buf, "configure", "rfmodel", None, || {
        params
            .config_names()
            .iter()
            .map(|n| ConfiguredMachine::from_name(n).expect("paper configuration names parse"))
            .collect::<Vec<_>>()
    });
    layers.gen_s = gen_s;
    layers.configure_s = configure_s;
    telemetry.flush(&mut buf);

    let started = Instant::now();
    let sweep_t0 = buf.now_ns();
    let mut rfs = Vec::with_capacity(configs.len());
    let mut aggregates = Vec::with_capacity(configs.len());
    for config in &configs {
        let name = config.name();
        let config_t0 = buf.now_ns();
        let scheduler = IterativeScheduler::new(config.machine.clone(), options.scheduler);
        let engine = Engine::new(options.threads).with_telemetry(telemetry.clone());
        let run = engine.map_indexed(
            suite.len(),
            |_| ArenaPool::new(),
            |pool, ctx| {
                let l = &suite[ctx.group];
                let machine = &config.machine;
                let mut buf = telemetry.trace_buf();
                let label = Some(l.ddg.name.as_str());
                let (mii, mii_s) = span(&mut buf, "mii", "ir", label, || {
                    min_initiation_interval(&l.ddg, &machine.latencies, machine.resource_counts())
                });
                let ((schedule, phases), sched_s) =
                    span(&mut buf, "schedule", "sched", label, || {
                        scheduler.schedule_with_timings_pooled(&l.ddg, pool)
                    });
                let (mut access_s, mut replay_s) = (0.0, 0.0);
                let mut sim = MemorySimResult::default();
                let mut stall = 0;
                if options.real_memory && !schedule.failed {
                    let (accesses, s) = span(&mut buf, "access_gen", "memsim", label, || {
                        kernel_accesses(&schedule, machine, options.scheduler.binding_prefetch)
                    });
                    access_s = s;
                    (sim, replay_s) = span(&mut buf, "replay", "memsim", label, || {
                        simulate_kernel(
                            &accesses,
                            schedule.ii,
                            l.iterations,
                            config.cache_config(),
                            options.max_simulated_iterations,
                        )
                    });
                    stall = sim.scaled_stalls(l.iterations);
                }
                let performance = LoopPerformance::from_schedule(&schedule, l, stall);
                telemetry.flush(&mut buf);
                PairTrace {
                    run: LoopRun {
                        index: ctx.group,
                        schedule,
                        performance,
                        phases,
                    },
                    mii,
                    mii_s,
                    sched_s,
                    access_s,
                    replay_s,
                    sim,
                }
            },
        );
        let (pairs, pools, report) = run.expect_complete();
        layers.engine_tasks += report.tasks;
        layers.engine_steals += report.steals;
        layers.arena_rebinds += pools.iter().map(ArenaPool::rebinds).sum::<u64>();

        let mut config_sched_s = 0.0;
        let mut loops = Vec::with_capacity(pairs.len());
        for p in pairs {
            layers.mii_s += p.mii_s;
            layers.sum_mii += u64::from(p.mii);
            layers.phases.absorb(&p.run.phases);
            layers.sched_s += p.run.phases.total().as_secs_f64();
            add_stats(&mut layers.stats, &p.run.schedule.stats);
            layers.pair_times.push((p.sched_s, p.run.schedule.failed));
            layers.access_gen_s += p.access_s;
            layers.replay_s += p.replay_s;
            layers.accesses += p.sim.accesses;
            layers.misses += p.sim.misses;
            config_sched_s += p.sched_s;
            loops.push(p.run);
        }
        let ((aggregate, _), fold_s) = span(&mut buf, "fold", "perf", Some(&name), || {
            fold_suite_aggregate(config, &loops)
        });
        layers.fold_s += fold_s;
        layers.per_config.push((
            name.clone(),
            config_sched_s,
            aggregate.sum_ii,
            aggregate.failed_loops,
        ));
        buf.span_labeled(
            "config",
            "perfbench",
            config_t0,
            Some(&name),
            &[
                ("sum_ii", aggregate.sum_ii as i64),
                ("failed", aggregate.failed_loops as i64),
            ],
        );
        telemetry.flush(&mut buf);
        rfs.push(config.machine.rf);
        aggregates.push(aggregate);
    }
    let (_, report_s) = span(&mut buf, "report", "perf", None, || {
        black_box(Totals::of(&rfs, &aggregates))
    });
    layers.report_s = report_s;
    let wall_s = started.elapsed().as_secs_f64();
    buf.span("sweep", "perfbench", sweep_t0, &[]);
    telemetry.flush(&mut buf);
    Traced {
        wall_s,
        pairs: suite.len() * rfs.len(),
        rfs,
        aggregates,
        layers,
        invalid: Vec::new(),
    }
}

/// The explore sweep taken apart: enumeration, workload generation,
/// machine configuration, fingerprint, store open, the IR's MII over every
/// pair, the cold `explore_traced` and its report, then the warm rerun on
/// the reopened store.
fn traced_explore(params: &Params, telemetry: &Telemetry) -> std::io::Result<Traced> {
    let workload = params.workload;
    let options = workload.explore_options();
    let mut buf = telemetry.trace_buf();
    let (orgs, enumerate_s) = span(&mut buf, "enumerate", "explore", None, || params.orgs());
    let (suite, gen_s) = span(&mut buf, "generate", "workloads", None, || params.suite());
    let (machines, configure_s) = span(&mut buf, "configure", "rfmodel", None, || {
        orgs.iter()
            .map(|rf| ConfiguredMachine::from_rf(*rf))
            .collect::<Vec<_>>()
    });
    let (_, fingerprint_s) = span(&mut buf, "fingerprint", "explore", None, || {
        black_box(suite_fingerprint(&suite))
    });
    let store = params.fresh_store_dir()?;
    let (cache, store_open_s) = span(&mut buf, "store_open", "explore", None, || {
        ResultCache::open_traced(&store, telemetry)
    });
    let mut cache = cache?;
    let (sum_mii, mii_s) = span(&mut buf, "mii", "ir", None, || {
        machines
            .iter()
            .flat_map(|c| {
                suite.iter().map(move |l| {
                    let m = &c.machine;
                    u64::from(min_initiation_interval(
                        &l.ddg,
                        &m.latencies,
                        m.resource_counts(),
                    ))
                })
            })
            .sum::<u64>()
    });
    telemetry.flush(&mut buf);

    let started = Instant::now();
    let (cold, _) = span(&mut buf, "cold_sweep", "explore", None, || {
        explore_traced(&orgs, &suite, &options, &mut cache, telemetry)
    });
    let (_, report_s) = span(&mut buf, "report", "perf", None, || {
        black_box(build_report(&cold))
    });
    let wall_s = started.elapsed().as_secs_f64();
    drop(cache);
    let store_bytes = dir_bytes(&store);
    let (warm, warm_s) = span(&mut buf, "warm_sweep", "explore", None, || {
        ResultCache::open_traced(&store, telemetry)
            .map(|mut reopened| explore_traced(&orgs, &suite, &options, &mut reopened, telemetry))
    });
    telemetry.flush(&mut buf);
    let _ = std::fs::remove_dir_all(&store);

    let invalid = warm_check(&cold, &warm?, orgs.len());
    if telemetry.dropped_events() > 0 {
        eprintln!(
            "warning: the trace ring dropped {} events; the loop-span shares are partial",
            telemetry.dropped_events()
        );
    }
    let snapshot = telemetry.metrics_snapshot();
    let counter = |key: &str| snapshot.counter(key).unwrap_or(0);
    let layers = Layers {
        gen_s,
        configure_s,
        mii_s,
        sum_mii,
        phases: registry_phases(&snapshot),
        stats: registry_stats(&snapshot),
        pair_times: loop_spans(telemetry),
        per_config: cold
            .points
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    p.scheduling_seconds,
                    p.aggregate.sum_ii,
                    p.aggregate.failed_loops,
                )
            })
            .collect(),
        report_s,
        sched_s: cold.points.iter().map(|p| p.scheduling_seconds).sum(),
        workers: options.threads,
        engine_tasks: counter("engine.tasks"),
        engine_steals: counter("engine.steals"),
        arena_rebinds: counter("engine.arena_rebinds"),
        enumerate_s,
        fingerprint_s,
        store_open_s,
        warm_s,
        cache_hits: counter("explore.cache_hits"),
        cache_misses: counter("explore.cache_misses"),
        store_appends: counter("explore.store.appends"),
        store_bytes,
        ..Layers::default()
    };
    Ok(Traced {
        wall_s,
        pairs: suite.len() * cold.points.len(),
        rfs: cold.points.iter().map(|p| p.rf).collect(),
        aggregates: cold.points.iter().map(|p| p.aggregate.clone()).collect(),
        layers,
        invalid,
    })
}

/// Scheduler phase totals from the registry's `sched.phase.*_ms`
/// histograms (explore schedules inside the engine, out of the benchmark's
/// reach).
fn registry_phases(snapshot: &MetricsSnapshot) -> PhaseTimings {
    let total =
        |key: &str| Duration::from_secs_f64(snapshot.histogram(key).map_or(0.0, |h| h.sum) / 1e3);
    PhaseTimings {
        graph_build: total("sched.phase.graph_build_ms"),
        order: total("sched.phase.order_ms"),
        resets: total("sched.phase.resets_ms"),
        warm_start: total("sched.phase.warm_start_ms"),
        attempts: total("sched.phase.attempts_ms"),
    }
}

/// Scheduler work counters from the registry.
fn registry_stats(snapshot: &MetricsSnapshot) -> SchedulerStats {
    let c = |key: &str| snapshot.counter(key).unwrap_or(0);
    let c32 = |key: &str| u32::try_from(c(key)).unwrap_or(u32::MAX);
    SchedulerStats {
        attempts: c("sched.attempts"),
        ejections: c("sched.ejections"),
        ii_restarts: c32("sched.ii_restarts"),
        ii_skips: c32("sched.ii_skips"),
        arena_resets: c32("sched.arena_resets"),
        budget_exhausts: c32("sched.budget_exhausts"),
        guard_trips: c("sched.guard_trips"),
        infeasible_cutoffs: c("sched.infeasible_cutoffs"),
        warm_starts: c32("sched.warm_starts"),
        warm_nodes_retained: c("sched.warm_nodes_retained"),
        pressure_refreshes: c("pressure.refreshes"),
        refresh_skips: c("pressure.refresh_skips"),
        fused_row_updates: c("mrt.fused_row_updates"),
    }
}

/// (seconds, failed) of every `loop` span `run_loop_traced` recorded. A pair at
/// `max_ii` is a failed pair, exactly as `SuiteAggregate` scores it.
fn loop_spans(telemetry: &Telemetry) -> Vec<(f64, bool)> {
    let max_ii = i64::from(SchedulerParams::default().max_ii);
    telemetry
        .trace_snapshot()
        .iter()
        .filter(|e| e.name == "loop" && e.cat == "driver")
        .map(|e| {
            let failed = e.args().iter().any(|&(k, v)| k == "ii" && v == max_ii);
            (e.duration_ns() as f64 * 1e-9, failed)
        })
        .collect()
}

/// One metric: name, value and unit.
pub type Metric = (String, f64, &'static str);

/// Every per-layer metric of a traced sweep, in the documented order.
pub fn layer_metrics(
    layers: &Layers,
    totals: &Totals,
    wall_s: f64,
    overhead_ratio: f64,
) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));
    let pairs = totals.pairs.max(1) as f64;
    let s = &layers.stats;
    let p = &layers.phases;

    push("workloads.gen_s", layers.gen_s, "s");
    push("workloads.pairs", totals.pairs as f64, "count");
    push("rfmodel.configure_s", layers.configure_s, "s");
    push("ir.mii_s", layers.mii_s, "s");
    push("ir.sum_mii", layers.sum_mii as f64, "cycles");

    push("sched.graph_build_s", p.graph_build.as_secs_f64(), "s");
    push("sched.order_s", p.order.as_secs_f64(), "s");
    push("sched.resets_s", p.resets.as_secs_f64(), "s");
    push("sched.warm_start_s", p.warm_start.as_secs_f64(), "s");
    push("sched.attempts_s", p.attempts.as_secs_f64(), "s");

    push("sched.attempts", s.attempts as f64, "count");
    push("sched.ejections", s.ejections as f64, "count");
    push("sched.ii_restarts", f64::from(s.ii_restarts), "count");
    push("sched.ii_skips", f64::from(s.ii_skips), "count");
    push("sched.arena_resets", f64::from(s.arena_resets), "count");
    push(
        "sched.budget_exhausts",
        f64::from(s.budget_exhausts),
        "count",
    );
    push("sched.guard_trips", s.guard_trips as f64, "count");
    push(
        "sched.infeasible_cutoffs",
        s.infeasible_cutoffs as f64,
        "count",
    );
    push("sched.warm_starts", f64::from(s.warm_starts), "count");
    push(
        "sched.warm_nodes_retained",
        s.warm_nodes_retained as f64,
        "count",
    );
    push(
        "sched.pressure_refreshes",
        s.pressure_refreshes as f64,
        "count",
    );
    push("sched.refresh_skips", s.refresh_skips as f64, "count");
    push(
        "sched.fused_row_updates",
        s.fused_row_updates as f64,
        "count",
    );

    let refresh_requests = (s.pressure_refreshes + s.refresh_skips).max(1) as f64;
    let times: Vec<f64> = layers.pair_times.iter().map(|&(t, _)| t).collect();
    let total_time: f64 = times.iter().sum();
    let failed_time: f64 = layers
        .pair_times
        .iter()
        .filter(|&&(_, failed)| failed)
        .map(|&(t, _)| t)
        .sum();
    push(
        "sched.ii_gap",
        totals.sum_ii as f64 - layers.sum_mii as f64,
        "cycles",
    );
    push("sched.at_mii_ratio", totals.at_mii as f64 / pairs, "ratio");
    push(
        "sched.rungs_per_loop",
        f64::from(s.ii_restarts) / pairs,
        "rungs/pair",
    );
    push(
        "sched.refresh_skip_ratio",
        s.refresh_skips as f64 / refresh_requests,
        "ratio",
    );
    push(
        "sched.failed_time_share",
        if total_time > 0.0 {
            failed_time / total_time
        } else {
            0.0
        },
        "ratio",
    );
    push("sched.tail1_share", tail_share(&times, 0.01), "ratio");
    push("sched.validate_s", layers.validate_s, "s");

    for name in TABLE5_CONFIGS {
        let (sched_s, sum_ii, failed) = layers
            .per_config
            .iter()
            .find(|(n, ..)| n == name)
            .map_or((0.0, 0, 0), |&(_, t, ii, f)| (t, ii, f));
        push(&format!("cfg.{name}.sched_s"), sched_s, "s");
        push(&format!("cfg.{name}.sum_ii"), sum_ii as f64, "cycles");
        push(&format!("cfg.{name}.failed"), failed as f64, "count");
    }

    push("memsim.access_gen_s", layers.access_gen_s, "s");
    push("memsim.replay_s", layers.replay_s, "s");
    push("memsim.accesses", layers.accesses as f64, "count");
    push("memsim.misses", layers.misses as f64, "count");
    push(
        "memsim.miss_ratio",
        layers.misses as f64 / layers.accesses.max(1) as f64,
        "ratio",
    );
    push("memsim.stall_cycles", totals.stall_cycles as f64, "cycles");

    push("perf.fold_s", layers.fold_s, "s");
    push("perf.report_s", layers.report_s, "s");

    push(
        "engine.busy_ratio",
        layers.sched_s / (wall_s * layers.workers.max(1) as f64).max(f64::MIN_POSITIVE),
        "ratio",
    );
    push("engine.tasks", layers.engine_tasks as f64, "count");
    push("engine.steals", layers.engine_steals as f64, "count");
    push("engine.arena_rebinds", layers.arena_rebinds as f64, "count");

    push("explore.enumerate_s", layers.enumerate_s, "s");
    push("explore.fingerprint_s", layers.fingerprint_s, "s");
    push("explore.store_open_s", layers.store_open_s, "s");
    push("explore.warm_s", layers.warm_s, "s");
    push("explore.cache_hits", layers.cache_hits as f64, "count");
    push("explore.cache_misses", layers.cache_misses as f64, "count");
    push(
        "explore.store_appends",
        layers.store_appends as f64,
        "count",
    );
    push("explore.store_bytes", layers.store_bytes as f64, "bytes");

    push("trace.overhead_ratio", overhead_ratio, "ratio");
    m
}
