//! Parallel scheduling of a loop suite for one machine configuration.
//!
//! The suite sweep runs on the [`hcrf_engine`] engine: one task per loop,
//! one pooled [`ArenaPool`] per worker (so consecutive loops rebind one
//! `AttemptArena` instead of rebuilding), and the aggregation folds the
//! index-ordered results so the [`SuiteRun`] is bit-identical for any
//! thread count.

use hcrf_engine::{Engine, FailurePolicy, TaskFailure};
use hcrf_ir::Loop;
use hcrf_machine::stable::StableHasher;
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_memsim::CacheConfig;
use hcrf_perf::{LoopPerformance, SuiteAggregate};
use hcrf_rfmodel::{evaluate, HardwareEval};
use hcrf_sched::{ArenaPool, IterativeScheduler, PhaseTimings, ScheduleResult, SchedulerParams};
use hcrf_telemetry::Telemetry;

/// A machine configuration together with its hardware evaluation
/// (clock cycle, per-configuration latencies, area).
#[derive(Debug, Clone)]
pub struct ConfiguredMachine {
    /// The machine description, with its latencies already rescaled to the
    /// configuration's clock (Table 5, last column).
    pub machine: MachineConfig,
    /// The hardware evaluation the latencies came from.
    pub hardware: HardwareEval,
}

impl ConfiguredMachine {
    /// Build from an `xCy-Sz` configuration name using the paper's baseline
    /// core (8 FUs, 4 memory ports) and the hardware model.
    pub fn from_name(name: &str) -> Result<Self, String> {
        let rf = RfOrganization::parse(name).map_err(|e| e.to_string())?;
        Ok(Self::from_rf(rf))
    }

    /// Build from a parsed register-file organization.
    pub fn from_rf(rf: RfOrganization) -> Self {
        let base = MachineConfig::paper_baseline(rf);
        let hardware = evaluate(&base);
        let machine = base.with_latencies(hardware.latencies);
        ConfiguredMachine { machine, hardware }
    }

    /// Build keeping the baseline (S128) latencies instead of rescaling them
    /// — used by the static studies (Table 3, Figure 4) where all
    /// configurations must be compared at equal latencies.
    pub fn with_baseline_latencies(rf: RfOrganization) -> Self {
        let machine = MachineConfig::paper_baseline(rf);
        let hardware = evaluate(&machine);
        ConfiguredMachine { machine, hardware }
    }

    /// The configuration name (`"4C16S64"`).
    pub fn name(&self) -> String {
        self.machine.rf.to_string()
    }

    /// Cache configuration for the real-memory scenario: geometry from the
    /// paper, latencies from this configuration's clock.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig::with_latencies(
            self.machine.latencies.load,
            self.machine.latencies.load_miss,
        )
    }
}

/// Options of a suite run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Scheduler parameters.
    pub scheduler: SchedulerParams,
    /// Simulate the memory hierarchy and account stall cycles
    /// (the real-memory scenario of Figure 6).
    pub real_memory: bool,
    /// Maximum iterations to simulate per loop in the cache model
    /// (stalls are scaled up to the full trip count).
    pub max_simulated_iterations: u64,
    /// Number of worker threads (0 = one per available CPU).
    pub threads: usize,
    /// How the engine responds to a panicking loop task: fail fast (the
    /// default) or isolate-and-retry, quarantining loops that keep
    /// panicking instead of poisoning the sweep. Retry bookkeeping is
    /// per-task, so results stay bit-identical for any thread count.
    pub failure: FailurePolicy,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scheduler: SchedulerParams::default().without_schedule(),
            real_memory: false,
            max_simulated_iterations: 64,
            threads: 0,
            failure: FailurePolicy::default(),
        }
    }
}

impl RunOptions {
    /// Fast options for tests and examples: keep schedules, single thread.
    pub fn fast() -> Self {
        RunOptions {
            scheduler: SchedulerParams::default(),
            threads: 1,
            ..Default::default()
        }
    }

    /// Enable the real-memory scenario (cache simulation + binding
    /// prefetching in the scheduler).
    pub fn with_real_memory(mut self) -> Self {
        self.real_memory = true;
        self.scheduler.binding_prefetch = true;
        // The memory simulation needs the final schedule.
        self.scheduler.keep_schedule = true;
        self
    }

    /// The scheduler parameters a run schedules with: `scheduler`, with the
    /// final kernel kept whenever `real_memory` is set, since the memory
    /// simulation replays it (an unkept kernel would replay no access and
    /// report no stall).
    pub fn scheduler_params(&self) -> SchedulerParams {
        let mut params = self.scheduler;
        params.keep_schedule |= self.real_memory;
        params
    }

    /// Use the given number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Use the given engine failure policy.
    pub fn with_failure(mut self, failure: FailurePolicy) -> Self {
        self.failure = failure;
        self
    }
}

/// Per-loop outcome of a suite run.
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// Index of the loop in the suite.
    pub index: usize,
    /// The schedule produced.
    pub schedule: ScheduleResult,
    /// Derived performance numbers.
    pub performance: LoopPerformance,
    /// Where the scheduler's wall time went for this loop.
    pub phases: PhaseTimings,
}

/// Outcome of scheduling a whole suite on one configuration.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// The configuration that was evaluated.
    pub config: ConfiguredMachine,
    /// Per-loop outcomes, in suite order. Under
    /// [`FailurePolicy::Isolate`] a quarantined loop is absent here (and
    /// listed in [`SuiteRun::quarantined`]); under the default fail-fast
    /// policy this always holds every loop.
    pub loops: Vec<LoopRun>,
    /// Loops whose task kept panicking and was quarantined, sorted by loop
    /// index. Always empty under [`FailurePolicy::FailFast`].
    pub quarantined: Vec<TaskFailure>,
    /// Aggregated metrics (quarantined loops excluded).
    pub aggregate: SuiteAggregate,
    /// Wall-clock seconds spent scheduling (the paper's "Sch. time").
    pub scheduling_seconds: f64,
    /// Per-phase scheduler wall time summed over every loop of the suite.
    pub phases: PhaseTimings,
}

/// Schedule every loop of `suite` for `config`, in parallel, and aggregate.
pub fn run_suite(config: &ConfiguredMachine, suite: &[Loop], options: &RunOptions) -> SuiteRun {
    run_suite_traced(config, suite, options, &Telemetry::disabled())
}

/// [`run_suite`] with a telemetry sink: each loop's schedule publishes its
/// counters and phase timings, the memory simulation publishes its traffic,
/// and (when tracing is on) every per-loop shard is recorded as a labeled
/// `loop` span in the trace ring.
pub fn run_suite_traced(
    config: &ConfiguredMachine,
    suite: &[Loop],
    options: &RunOptions,
    telemetry: &Telemetry,
) -> SuiteRun {
    let started = std::time::Instant::now();
    let scheduler = IterativeScheduler::new(config.machine.clone(), options.scheduler_params())
        .with_telemetry(telemetry.clone());
    let engine = Engine::new(options.threads)
        .with_telemetry(telemetry.clone())
        .with_failure_policy(options.failure);
    let run = engine.map_indexed(
        suite.len(),
        |_| ArenaPool::new(),
        |pool, ctx| {
            run_loop_traced(
                &scheduler,
                config,
                &suite[ctx.group],
                ctx.group,
                options,
                telemetry,
                pool,
                ctx.worker,
            )
        },
    );
    // Quarantined loops (isolate policy only) drop out of `loops` and the
    // aggregate; the manifest records them. Suite order is preserved.
    let loops: Vec<LoopRun> = run.results.into_iter().flatten().collect();
    let quarantined = run.quarantined;
    let (aggregate, phases) = fold_suite_aggregate(config, &loops);
    let scheduling_seconds = started.elapsed().as_secs_f64();
    if telemetry.is_enabled() {
        telemetry.counter_add("driver.suite_runs", 1);
        telemetry.counter_add("driver.loops", loops.len() as u64);
        telemetry.counter_add("driver.failed_loops", aggregate.failed_loops as u64);
        telemetry.gauge_set("driver.scheduling_seconds", scheduling_seconds);
        let rebinds: u64 = run.states.iter().map(|p| p.rebinds()).sum();
        telemetry.counter_add("engine.arena_rebinds", rebinds);
    }
    SuiteRun {
        config: config.clone(),
        loops,
        quarantined,
        aggregate,
        scheduling_seconds,
        phases,
    }
}

/// Schedule (and, in the real-memory scenario, simulate) ONE loop of a
/// suite: the engine's inner task of [`run_suite_traced`]. The `worker` id
/// labels the `loop` trace span; the pooled arena in `pool` makes
/// consecutive calls on one worker rebind allocations instead of
/// rebuilding them.
#[allow(clippy::too_many_arguments)]
pub fn run_loop_traced(
    scheduler: &IterativeScheduler,
    config: &ConfiguredMachine,
    l: &Loop,
    index: usize,
    options: &RunOptions,
    telemetry: &Telemetry,
    pool: &mut ArenaPool,
    worker: usize,
) -> LoopRun {
    let t0 = telemetry.trace_buf().now_ns();
    let (schedule, phases) = scheduler.schedule_with_timings_pooled(&l.ddg, pool);
    let performance =
        measure_loop_traced(&schedule, config, l, index, options, telemetry, worker, t0);
    LoopRun {
        index,
        schedule,
        performance,
        phases,
    }
}

/// The performance of `schedule` as loop `l`'s schedule on `config`: in
/// the real-memory scenario the cache simulation of its kept kernel
/// supplies the stall cycles. Records the pair's labeled `loop` trace span,
/// from `t0` (a [`hcrf_telemetry::TraceBuf::now_ns`] stamp) to now. The
/// explore executor calls this once per design point, also for the points
/// a sibling's schedule serves.
#[allow(clippy::too_many_arguments)]
pub fn measure_loop_traced(
    schedule: &ScheduleResult,
    config: &ConfiguredMachine,
    l: &Loop,
    index: usize,
    options: &RunOptions,
    telemetry: &Telemetry,
    worker: usize,
    t0: u64,
) -> LoopPerformance {
    let stall = if options.real_memory && !schedule.failed {
        let accesses = crate::memory::kernel_accesses(
            schedule,
            &config.machine,
            options.scheduler.binding_prefetch,
        );
        let sim = hcrf_memsim::simulate_kernel(
            &accesses,
            schedule.ii,
            l.iterations,
            config.cache_config(),
            options.max_simulated_iterations,
        );
        sim.publish(telemetry);
        sim.scaled_stalls(l.iterations)
    } else {
        0
    };
    let performance = LoopPerformance::from_schedule(schedule, l, stall);
    let mut buf = telemetry.trace_buf();
    buf.span_labeled(
        "loop",
        "driver",
        t0,
        Some(&l.ddg.name),
        &[
            ("index", index as i64),
            ("worker", worker as i64),
            ("ii", schedule.ii as i64),
            ("stall_cycles", stall as i64),
        ],
    );
    telemetry.flush(&mut buf);
    performance
}

/// Fold index-ordered per-loop results into the suite aggregate and the
/// summed phase timings. The fold order is fixed (suite order), which is
/// what makes [`SuiteRun::aggregate`] bit-identical for any thread count.
pub fn fold_suite_aggregate(
    config: &ConfiguredMachine,
    loops: &[LoopRun],
) -> (SuiteAggregate, PhaseTimings) {
    fold_aggregate(config, loops.iter().map(|r| (&r.performance, &r.phases)))
}

/// [`fold_suite_aggregate`] over bare (performance, phase timings) pairs,
/// in suite order.
pub fn fold_aggregate<'a>(
    config: &ConfiguredMachine,
    loops: impl IntoIterator<Item = (&'a LoopPerformance, &'a PhaseTimings)>,
) -> (SuiteAggregate, PhaseTimings) {
    let mut aggregate = SuiteAggregate::new(config.name(), config.hardware.clock_ns);
    let mut phases = PhaseTimings::default();
    for (performance, timings) in loops {
        aggregate.add(performance);
        phases.absorb(timings);
    }
    (aggregate, phases)
}

/// Stable, content-addressed fingerprint of a loop suite.
///
/// Two suites fingerprint identically exactly when every loop has the same
/// name, execution counts and dependence graph (nodes, memory descriptors and
/// edges, in order). The exploration result cache keys on this value, so it
/// must not depend on pointer identity, hash-map iteration order or the
/// platform — it walks the graph vectors in their construction order and
/// hashes primitive fields through [`StableHasher`].
pub fn suite_fingerprint(suite: &[Loop]) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(suite.len());
    for l in suite {
        h.write_str(&l.ddg.name);
        h.write_u64(l.iterations);
        h.write_u64(l.invocations);
        h.write_f64(l.weight);
        h.write_usize(l.ddg.num_nodes());
        h.write_usize(l.ddg.num_edges());
        for (_, n) in l.ddg.nodes() {
            h.write_str(n.kind.mnemonic());
            h.write_bool(n.reads_invariant);
            match n.mem {
                None => h.write_u8(0),
                Some(m) => {
                    h.write_u8(1);
                    h.write_u32(m.base);
                    h.write_i64(m.offset);
                    h.write_i64(m.stride);
                    h.write_u32(m.size);
                }
            }
        }
        for (_, e) in l.ddg.edges() {
            h.write_u32(e.src.0);
            h.write_u32(e.dst.0);
            // Explicit discriminants: the encoding must not move with enum
            // refactors (a Debug-string encoding would).
            h.write_u8(match e.kind {
                hcrf_ir::DepKind::Flow => 0,
                hcrf_ir::DepKind::Anti => 1,
                hcrf_ir::DepKind::Output => 2,
                hcrf_ir::DepKind::Mem => 3,
            });
            h.write_u32(e.distance);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_workloads::small_suite;

    #[test]
    fn configured_machine_from_name() {
        let c = ConfiguredMachine::from_name("4C32S16").unwrap();
        assert_eq!(c.name(), "4C32S16");
        // Table 5: FU latency 7 cycles for this configuration.
        assert_eq!(c.machine.latencies.fadd, 7);
        assert!(ConfiguredMachine::from_name("bogus").is_err());
    }

    #[test]
    fn from_rf_schedules_with_the_evaluated_latencies() {
        let c = ConfiguredMachine::from_rf(RfOrganization::parse("4C32S16").unwrap());
        assert_eq!(c.machine.latencies, c.hardware.latencies);
        // Table 5: FU latency 7 cycles for this configuration.
        assert_eq!(c.machine.latencies.fadd, 7);
    }

    #[test]
    fn run_small_suite_monolithic() {
        let loops = small_suite(0);
        let cfg = ConfiguredMachine::from_name("S128").unwrap();
        let run = run_suite(&cfg, &loops, &RunOptions::fast());
        assert_eq!(run.loops.len(), loops.len());
        assert_eq!(run.aggregate.loops, loops.len());
        assert_eq!(run.aggregate.failed_loops, 0);
        assert!(run.aggregate.sum_ii > 0);
        assert!(run.scheduling_seconds >= 0.0);
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let loops = small_suite(4);
        let cfg = ConfiguredMachine::from_name("2C32S32").unwrap();
        let serial = run_suite(&cfg, &loops, &RunOptions::fast());
        let parallel = run_suite(
            &cfg,
            &loops,
            &RunOptions {
                threads: 4,
                scheduler: SchedulerParams::default(),
                ..Default::default()
            },
        );
        assert_eq!(serial.aggregate.sum_ii, parallel.aggregate.sum_ii);
        assert_eq!(
            serial.aggregate.useful_cycles,
            parallel.aggregate.useful_cycles
        );
        assert_eq!(
            serial.aggregate.memory_traffic,
            parallel.aggregate.memory_traffic
        );
    }

    #[test]
    fn suite_fingerprint_is_stable_and_content_sensitive() {
        let a = small_suite(8);
        let b = small_suite(8);
        assert_eq!(suite_fingerprint(&a), suite_fingerprint(&b));
        let shorter = small_suite(7);
        assert_ne!(suite_fingerprint(&a), suite_fingerprint(&shorter));
        let mut retimed = small_suite(8);
        retimed[0].iterations += 1;
        assert_ne!(suite_fingerprint(&a), suite_fingerprint(&retimed));
    }

    #[test]
    fn real_memory_adds_stalls() {
        let loops = small_suite(0);
        let cfg = ConfiguredMachine::from_name("S64").unwrap();
        let ideal = run_suite(&cfg, &loops, &RunOptions::fast());
        let real = run_suite(&cfg, &loops, &RunOptions::fast().with_real_memory());
        assert_eq!(ideal.aggregate.stall_cycles, 0);
        assert!(real.aggregate.stall_cycles > 0);
    }
}
