//! The scheduler's heap stays small: per-pair setup allocates nothing at
//! steady state, and a runaway II attempt cannot grow the heap without
//! bound.
//!
//! For every (loop, machine) pair the scheduler computes the MII once,
//! rebinds the pooled arena to the pair (working-graph clone, memory
//! interface, pristine mark, store reshape) and computes the priority order
//! at the first rung's reset. All of it refills buffers the pool already
//! owns. Once one pass over a suite has grown them, a second pass over the
//! same pairs must not allocate at all: a regression shows as a non-zero
//! count per pair. The machines share one pool and differ in cluster count
//! and organization: S64 is monolithic, 4C64 clustered, and 4C16S64 and
//! 8C16S16 are hierarchical, so their rebinds rebuild the memory interface.
//!
//! The same holds for whole schedules. The communication and spill chains
//! an attempt inserts, and the reset that truncates them, reuse buffers the
//! pool already owns: an inserted node gets no dependence-graph adjacency
//! lists. A warm start's snapshot and the buffers a kept kernel is built in
//! also live in the pool. So a second pass of full schedules allocates per
//! pair only what `finalize` builds for the result, plus the kept kernel's
//! four exact-size arrays when `keep_schedule` is on, a count that does not
//! grow with the chains the attempts inserted. The kept kernels hold
//! exactly the operations the result counts, at normalised cycles, and pass
//! `validate_schedule`.
//!
//! An attempt that keeps inserting communication chains grows its working
//! graph on every pop until the attempt cap stops it, so the cap bounds the
//! transient heap too. The full suite's pairs that reach the cap must each
//! schedule within a fixed heap peak.

use hcrf::driver::ConfiguredMachine;
use hcrf_ir::{Ddg, Loop, OpKind};
use hcrf_sched::{
    validate_schedule, ArenaPool, IterativeScheduler, ScheduleResult, SchedulerParams,
};
use hcrf_telemetry::{Telemetry, Verbosity};
use hcrf_workloads::{small_suite, suite::suite, SuiteParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of the current thread and
/// its live and peak heap bytes (the test harness runs other threads
/// alongside). A block freed on another thread than the one that allocated
/// it moves both threads' live counts, so only differences taken on one
/// thread are meaningful.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Record an allocation event that moves the live bytes by `delta`
/// (`count` is false for a free).
fn record(count: bool, delta: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + u64::from(count)));
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(true, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(true, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(true, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(false, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f` and return its result with the most heap bytes the current
/// thread held during it beyond what it held at the start.
fn heap_peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let out = f();
    let peak = PEAK_BYTES.with(Cell::get);
    (out, (peak - start) as u64)
}

/// One pass of per-pair setups over every (machine, loop) pair: the MII,
/// the pool's take (a rebind once the pool holds an arena) and the first
/// reset, order included. Returns the pairs that allocated, with counts.
fn setup_pass(
    pool: &mut ArenaPool,
    schedulers: &[(&str, IterativeScheduler)],
    loops: &[Loop],
) -> Vec<(String, String, u64)> {
    let mut allocating = Vec::new();
    for (name, scheduler) in schedulers {
        let machine = scheduler.machine();
        for l in loops {
            let before = allocations();
            let mii = scheduler.mii(&l.ddg, pool.recurrences());
            let mut arena = pool.take(&l.ddg, machine);
            arena.reset(mii, &machine.latencies);
            let count = allocations() - before;
            pool.put(arena);
            if count > 0 {
                allocating.push((name.to_string(), l.ddg.name.clone(), count));
            }
        }
    }
    allocating
}

#[test]
fn second_pass_of_per_pair_setup_allocates_nothing() {
    let loops = small_suite(60);
    let schedulers: Vec<(&str, IterativeScheduler)> = ["S64", "4C16S64", "4C64", "8C16S16"]
        .into_iter()
        .map(|name| {
            let machine = ConfiguredMachine::from_name(name).unwrap().machine;
            assert_eq!(
                machine.rf.is_hierarchical(),
                name.contains('S') && name.contains('C')
            );
            (
                name,
                IterativeScheduler::new(machine, SchedulerParams::default()),
            )
        })
        .collect();
    let mut pool = ArenaPool::new();
    let warm = setup_pass(&mut pool, &schedulers, &loops);
    assert!(
        !warm.is_empty(),
        "the warm-up pass must grow the buffers (is the counter live?)"
    );
    let steady = setup_pass(&mut pool, &schedulers, &loops);
    assert!(
        steady.is_empty(),
        "per-pair setup allocated at steady state in {} pairs, first (machine, loop, \
         allocations): {:?}",
        steady.len(),
        &steady[..steady.len().min(8)]
    );
    assert_eq!(pool.builds(), 1);
}

/// What one `finalize` allocates for a result on a machine with `clusters`
/// clusters: the result's one buffer (the cluster MaxLive vector; a result
/// names neither its loop nor its machine), the normalised placements, and
/// the batch MaxLive walk's rows (one per cluster plus four) and lifetime
/// list (at most four growth steps, up to 32 lifetimes: the most these
/// pairs reach). A result that also owned its loop and configuration names
/// made two more, which these bounds do not allow.
fn result_allocations(clusters: u32) -> u64 {
    10 + u64::from(clusters)
}

/// What a kept kernel adds: the box and its node, edge and placement
/// arrays, copied at exact size out of the pool's buffers.
const KERNEL_ALLOCATIONS: u64 = 4;

/// The machines the full-schedule tests run `small_suite(60)` on.
const FULL_SCHEDULE_CONFIGS: [&str; 4] = ["S32", "4C64", "4C16S16", "8C16S16"];

/// Spill storms of the default suite, with the machine each storms on:
/// every rung of these ladders up to the last runs its attempt into the
/// spill-round limit, inserting and truncating chains all the way.
const STORMS: [(&str, &str); 3] = [
    ("syn0220_fu", "S32"),
    ("syn0574_fu", "4C16S16"),
    ("syn0187_fu", "8C16S16"),
];

/// One scheduled pair of a full-schedule pass.
struct PairRun {
    config: &'static str,
    name: String,
    /// Allocations of the schedule call.
    allocations: u64,
    budget_exhausts: u32,
    warm_starts: u32,
}

/// Schedule `small_suite(60)` on every [`FULL_SCHEDULE_CONFIGS`] machine
/// plus the [`STORMS`] pairs, each through `check` on the scheduler built
/// from `params` (and `cold`), twice through one pool. Checks that the
/// passes agree and that every storm pair really storms, and returns the
/// second pass.
fn second_pass_of_full_schedules(
    params: SchedulerParams,
    cold: bool,
    mut check: impl FnMut(&str, &Ddg, &ScheduleResult),
) -> Vec<PairRun> {
    let schedulers: Vec<IterativeScheduler> = FULL_SCHEDULE_CONFIGS
        .iter()
        .map(|name| {
            let machine = ConfiguredMachine::from_name(name).unwrap().machine;
            let scheduler = IterativeScheduler::new(machine, params);
            if cold {
                scheduler.with_cold_attempts()
            } else {
                scheduler
            }
        })
        .collect();
    let small = small_suite(60);
    let full = suite(SuiteParams::default());
    let storm_ddg = |name: &str| {
        &full
            .iter()
            .find(|l| l.ddg.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the default suite"))
            .ddg
    };
    let mut pairs: Vec<(&IterativeScheduler, &'static str, &Ddg)> = Vec::new();
    for (scheduler, config) in schedulers.iter().zip(FULL_SCHEDULE_CONFIGS) {
        pairs.extend(small.iter().map(|l| (scheduler, config, &l.ddg)));
        for (name, storm_config) in STORMS {
            if storm_config == config {
                pairs.push((scheduler, config, storm_ddg(name)));
            }
        }
    }
    let mut pool = ArenaPool::new();
    let mut pass = || -> Vec<PairRun> {
        pairs
            .iter()
            .map(|&(scheduler, config, ddg)| {
                let before = allocations();
                let (result, _) = scheduler.schedule_with_timings_pooled(ddg, &mut pool);
                let allocations = allocations() - before;
                check(config, ddg, &result);
                PairRun {
                    config,
                    name: ddg.name.clone(),
                    allocations,
                    budget_exhausts: result.stats.budget_exhausts,
                    warm_starts: result.stats.warm_starts,
                }
            })
            .collect()
    };
    let warm = pass();
    let steady = pass();
    for (first, second) in warm.iter().zip(&steady) {
        assert_eq!(
            (first.budget_exhausts, first.warm_starts),
            (second.budget_exhausts, second.warm_starts),
            "{}@{}: the passes diverged",
            second.name,
            second.config
        );
    }
    for (name, config) in STORMS {
        let run = steady
            .iter()
            .find(|r| r.config == config && r.name == name)
            .expect("storm pair scheduled");
        assert!(
            run.budget_exhausts >= 5,
            "{name}@{config}: only {} budget-limited rungs, so it stresses nothing",
            run.budget_exhausts
        );
    }
    assert_eq!(pool.builds(), 1);
    steady
}

/// Assert that no pair of `runs` allocated more than `limit(clusters)`
/// times.
fn assert_allocations_at_most(runs: &[PairRun], limit: impl Fn(u32) -> u64) {
    let over: Vec<_> = runs
        .iter()
        .filter(|r| {
            let clusters = ConfiguredMachine::from_name(r.config)
                .unwrap()
                .machine
                .clusters();
            r.allocations > limit(clusters)
        })
        .map(|r| (r.config, &r.name, r.allocations, r.budget_exhausts))
        .collect();
    assert!(
        over.is_empty(),
        "{} pairs allocated more than their limit at steady state, first \
         (machine, loop, allocations, budget exhaustions): {:?}",
        over.len(),
        &over[..over.len().min(8)]
    );
}

#[test]
fn second_pass_of_full_schedules_allocates_only_for_the_result() {
    // A ladder finalizes at most twice, when the gap scan after a skip
    // replaces its first success. Attempts start cold: a debug build
    // rebuilds the store's tables after every warm start to cross-check
    // them, which allocates per restart by design (the release-only warm
    // variant below covers warm starts).
    let runs = second_pass_of_full_schedules(
        SchedulerParams::default().without_schedule(),
        true,
        |_, _, _| {},
    );
    assert_allocations_at_most(&runs, |clusters| 2 * result_allocations(clusters));
}

#[test]
fn second_pass_of_kept_full_schedules_allocates_only_for_the_result_and_its_kernel() {
    let runs = second_pass_of_full_schedules(SchedulerParams::default(), true, |_, _, _| {});
    assert_allocations_at_most(&runs, |clusters| {
        2 * (result_allocations(clusters) + KERNEL_ALLOCATIONS)
    });
}

/// Warm starts take their snapshot buffer from the pool, so a warm-started
/// ladder allocates nothing per restart either. Release builds only: a
/// debug build cross-checks the store after every warm remap, and that
/// check allocates by design.
#[cfg(not(debug_assertions))]
#[test]
fn second_pass_of_warm_started_full_schedules_allocates_only_for_the_result() {
    let runs = second_pass_of_full_schedules(
        SchedulerParams::default().without_schedule(),
        false,
        |_, _, _| {},
    );
    assert!(
        runs.iter().any(|r| r.warm_starts > 0),
        "no pair warm-starts, so this checks nothing the cold variant does not"
    );
    assert_allocations_at_most(&runs, |clusters| 2 * result_allocations(clusters));
}

#[test]
fn kept_kernels_hold_exactly_the_scheduled_operations() {
    let mut kept = 0;
    second_pass_of_full_schedules(SchedulerParams::default(), true, |config, ddg, r| {
        let pair = format!("{}@{config}", ddg.name);
        let Some(kernel) = &r.kernel else {
            assert!(r.failed, "{pair}: a successful schedule kept no kernel");
            return;
        };
        assert!(!r.failed, "{pair}: a failed schedule kept a kernel");
        kept += 1;
        let count = |kind: OpKind| kernel.nodes.iter().filter(|n| n.kind == kind).count() as u32;
        assert_eq!(kernel.nodes.len() as u32, r.total_ops, "{pair}: operations");
        assert_eq!(
            kernel.placements.len(),
            kernel.nodes.len(),
            "{pair}: placements"
        );
        assert_eq!(
            kernel.memory_ops() as u32,
            r.memory_ops,
            "{pair}: memory operations"
        );
        assert_eq!(count(OpKind::LoadR), r.loadr_ops, "{pair}: LoadR");
        assert_eq!(count(OpKind::StoreR), r.storer_ops, "{pair}: StoreR");
        assert_eq!(count(OpKind::Move), r.move_ops, "{pair}: Move");
        let first = kernel.placements.iter().map(|p| p.cycle).min();
        assert_eq!(first, Some(0), "{pair}: placements are not normalised");
        let machine = ConfiguredMachine::from_name(config).unwrap().machine;
        if let Err(e) = validate_schedule(ddg, &machine, r) {
            panic!("{pair}: {e}");
        }
    });
    assert!(kept > 0);
}

#[test]
fn attempt_cap_bounds_the_heap_of_storm_pairs() {
    const HEAP_PEAK_LIMIT: u64 = 3 << 20;
    let loops = suite(SuiteParams::default());
    // Every (loop, configuration) pair of the default suite × 15 Table 5
    // configurations with an attempt that reaches the cap. Their peaks are
    // 0.3–2.2 MB at the 8-budget cap; at 64 budgets they were 2.3–18.2 MB.
    for (name, config) in [
        ("syn0720_fu", "8C16S16"),
        ("syn0998_fu", "8C16S16"),
        ("syn0888_fu", "8C16S16"),
        ("syn1056_fu", "2C64"),
        ("syn0613_fu", "2C64S32"),
    ] {
        let ddg = &loops
            .iter()
            .find(|l| l.ddg.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the default suite"))
            .ddg;
        let machine = ConfiguredMachine::from_name(config).unwrap().machine;
        let telemetry = Telemetry::reporter(Verbosity::Silent);
        let scheduler = IterativeScheduler::new(machine, SchedulerParams::default())
            .with_telemetry(telemetry.clone());
        let (result, peak) = heap_peak_during(|| scheduler.schedule(ddg));
        assert!(!result.failed, "{name}@{config} failed to schedule");
        let caps = telemetry
            .metrics_snapshot()
            .counter("sched.attempt_caps")
            .unwrap_or(0);
        assert!(
            caps > 0,
            "{name}@{config}: no attempt reaches the cap, so this pair bounds nothing"
        );
        assert!(
            peak < HEAP_PEAK_LIMIT,
            "{name}@{config}: heap peak {peak} B while scheduling (limit {HEAP_PEAK_LIMIT} B)"
        );
    }
}
