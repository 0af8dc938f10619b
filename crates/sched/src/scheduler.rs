//! The iterative modulo scheduler with integrated register spilling,
//! cluster selection and communication insertion (MIRS / MIRS_HC).
//!
//! The implementation follows the skeleton of Figure 5 of the paper: nodes
//! are taken from a priority list; a cluster is selected for each
//! (`Select_Cluster`); any communication operations needed to talk to already
//! scheduled neighbours in other clusters (or in the other level of the
//! hierarchy) are inserted and scheduled; the node itself is scheduled —
//! forcing a slot and ejecting conflicting operations when none is free —
//! and finally the register pressure of every bank is checked, inserting
//! spill code when a bank exceeds its capacity. A budget proportional to the
//! number of nodes bounds the work per II; when it is exhausted the partial
//! schedule is discarded and the process restarts at II + 1.
//!
//! All mutable placement state of an attempt (placements, `prev_cycle`, MRT
//! slot counts, pressure tracker, worklist) lives in a
//! [`crate::store::PlacementStore`]; this module never mutates any of it
//! directly — every placement goes through [`PlacementStore::place`] and
//! every ejection through [`PlacementStore::eject`], which keep the
//! [`crate::store::SlotIndex`] used by the O(row) victim search consistent.
//!
//! The free-slot window search asks the MRT row by row
//! ([`crate::mrt::Mrt::first_free_row_in`]), and forced placements whose
//! conflict is *structurally unsatisfiable* even on an empty table (a divide
//! longer than the II can accommodate on this cluster's units) are abandoned
//! before their ejection cascade, counted in
//! [`SchedulerStats::infeasible_cutoffs`].

use crate::arena::{ArenaPool, AttemptArena};
use crate::cluster::select_cluster_recording;
use crate::pressure::{
    pick_spill_candidate, pick_spill_candidate_from, pressure, Pressure, PressureQuery,
};
use crate::types::{
    BankAssignment, Oracles, Placement, ScheduleResult, SchedulerParams, SchedulerStats,
};
use crate::workgraph::WorkGraph;
use hcrf_ir::{mii as mii_mod, Ddg, DepKind, NodeId, OpKind, OpLatencies};
use hcrf_machine::MachineConfig;
use hcrf_telemetry::{Telemetry, TraceBuf};
use std::time::{Duration, Instant};

/// Hard bound on the eject-and-retry iterations spent forcing a single slot
/// before the attempt is abandoned (each trip is counted in
/// [`SchedulerStats::guard_trips`]). Forcing normally converges in a handful
/// of ejections; reaching this limit means the conflicting resource cannot be
/// freed (for example a non-pipelined operation longer than the II keeps
/// re-occupying every row) and a larger II is needed.
pub const EJECTION_GUARD_LIMIT: u32 = 4096;

/// Largest stride the budget-aware II ladder takes after a run of failed
/// attempts. Roughly the square root of the deep churn ladders' length
/// (~60–80 rungs): a larger cap saves fewer mid-ladder attempts than it adds
/// to the success-side gap scan, whose worst case is one stride of rungs.
pub const LADDER_STRIDE_CAP: u32 = 8;

/// Schedule one loop for one machine configuration with the iterative
/// MIRS / MIRS_HC scheduler (backtracking enabled by default).
pub fn schedule_loop(
    ddg: &Ddg,
    machine: &MachineConfig,
    params: &SchedulerParams,
) -> ScheduleResult {
    IterativeScheduler::new(machine.clone(), *params).schedule(ddg)
}

/// Schedule one loop with the non-iterative baseline scheduler used as the
/// comparison point of Table 4 (same ordering and heuristics, no
/// backtracking: when an operation finds no free slot the whole attempt is
/// abandoned and the II is increased).
pub fn schedule_loop_baseline36(ddg: &Ddg, machine: &MachineConfig) -> ScheduleResult {
    let params = SchedulerParams::baseline36();
    IterativeScheduler::new(machine.clone(), params).schedule(ddg)
}

/// The scheduler engine. Construct one per machine configuration and reuse
/// it for many loops.
#[derive(Debug, Clone)]
pub struct IterativeScheduler {
    machine: MachineConfig,
    params: SchedulerParams,
    oracles: Oracles,
    unit_ladder: bool,
    cold_attempts: bool,
    telemetry: Telemetry,
}

/// Wall time the scheduler spent per phase across one `schedule()` call,
/// reported by [`IterativeScheduler::schedule_with_timings`] (the
/// `bench_sched` trajectory harness aggregates these per suite).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Building the [`AttemptArena`] (working-graph clone + memory-interface
    /// insertion). Once per loop under arena reuse; once per attempt under
    /// the [`Oracles::fresh_arena`] oracle.
    pub graph_build: Duration,
    /// Priority-order computation (skipped by resets when the order is
    /// II-independent).
    pub order: Duration,
    /// Arena resets: pristine-graph restore plus placement-store reshaping.
    pub resets: Duration,
    /// Warm-start seeding on II restarts: modulo-remapping the previous
    /// failed attempt's surviving placements into the new MRT and requeueing
    /// the rest (zero under [`IterativeScheduler::with_cold_attempts`]).
    pub warm_start: Duration,
    /// The II attempts themselves (worklist loop).
    pub attempts: Duration,
}

impl PhaseTimings {
    /// Fold another timing report into this one, phase by phase.
    pub fn absorb(&mut self, other: &PhaseTimings) {
        self.graph_build += other.graph_build;
        self.order += other.order;
        self.resets += other.resets;
        self.warm_start += other.warm_start;
        self.attempts += other.attempts;
    }

    /// Total wall time across all five phases.
    pub fn total(&self) -> Duration {
        self.graph_build + self.order + self.resets + self.warm_start + self.attempts
    }

    /// Publish each phase's wall time (milliseconds) as a histogram sample
    /// under the `sched.phase.` prefix (no-op on a disabled handle).
    pub fn publish(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.histogram_record("sched.phase.graph_build_ms", ms(self.graph_build));
        telemetry.histogram_record("sched.phase.order_ms", ms(self.order));
        telemetry.histogram_record("sched.phase.resets_ms", ms(self.resets));
        telemetry.histogram_record("sched.phase.warm_start_ms", ms(self.warm_start));
        telemetry.histogram_record("sched.phase.attempts_ms", ms(self.attempts));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Outcome of one II attempt; the attempt's counters stay in the arena.
#[derive(Debug, Clone, Copy)]
enum AttemptOutcome {
    Success,
    /// The attempt was abandoned. `budget_limited` is set when the failure
    /// was a budget-family limit (scheduling budget, spill-round limit,
    /// completed-but-over-capacity) rather than a structural conflict — the
    /// signal the budget-aware ladder bases its skip stride on.
    Exhausted {
        budget_limited: bool,
    },
}

/// Outcome of the pressure-check/spill loop run after placing one node.
enum SpillOutcome {
    /// Every bounded bank fits, or no further spilling is possible (the
    /// end-of-attempt capacity check has the final word); keep scheduling.
    Continue,
    /// The spill-round budget is exhausted with a bank still over capacity:
    /// abandon this II promptly instead of paying pressure checks for every
    /// remaining node of a schedule the final capacity check must reject.
    SpillLimit,
    /// A spill operation could not be scheduled (baseline scheduler with no
    /// free slot); abandon the attempt.
    ScheduleFailed,
}

impl IterativeScheduler {
    /// Create a scheduler for the given machine.
    pub fn new(machine: MachineConfig, params: SchedulerParams) -> Self {
        IterativeScheduler {
            machine,
            params,
            oracles: Oracles::default(),
            unit_ladder: false,
            cold_attempts: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry sink: scheduling publishes its work counters and
    /// phase timings into the metrics registry and, when tracing is on,
    /// records II attempts, skips, arena resets, budget exhausts and
    /// ejection cascades as trace events. The instrumentation is
    /// decision-invisible — `tests/telemetry_equivalence.rs` asserts results
    /// bit-identical to a disabled sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Swap each decision-invisible fast path whose flag is set for its
    /// paper-literal oracle (see [`Oracles`]). Results are bit-identical to
    /// the default's under any selection (the `tests/*_equivalence.rs`
    /// oracle suites assert it); this exists so tests and benches can
    /// cross-check and measure the fast paths one at a time or all together.
    pub fn with_oracles(mut self, oracles: Oracles) -> Self {
        self.oracles = oracles;
        self
    }

    /// Run every oracle at once ([`Oracles::REFERENCE`]): the paper-literal
    /// reference scheduler.
    pub fn with_reference(self) -> Self {
        self.with_oracles(Oracles::REFERENCE)
    }

    /// Climb the II ladder strictly one step at a time, disabling the
    /// budget-aware skipping (and its success-side gap verification). This
    /// is the oracle ladder policy: `tests/warmstart_equivalence.rs` asserts
    /// the skipping ladder never lands on a higher final II than this one.
    pub fn with_unit_ladder(mut self) -> Self {
        self.unit_ladder = true;
        self
    }

    /// Start every II attempt from an empty placement store instead of
    /// warm-starting eligible restarts by modulo-remapping the previous
    /// failed attempt's surviving placements. This is the paper-literal
    /// restart policy and the oracle the warm-started ladder is checked
    /// against: `tests/warmstart_equivalence.rs` asserts the two-tier
    /// contract (warm final II never worse than cold, failure verdicts
    /// never worse, a store that passes `validate_store` after every
    /// remap).
    pub fn with_cold_attempts(mut self) -> Self {
        self.cold_attempts = true;
        self
    }

    /// The machine this scheduler targets.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Compute the MII of a loop for this machine.
    pub fn mii(&self, ddg: &Ddg) -> u32 {
        mii_mod::mii(ddg, &self.machine.latencies, self.machine.resource_counts())
    }

    /// Schedule one loop.
    pub fn schedule(&self, ddg: &Ddg) -> ScheduleResult {
        self.schedule_with_timings(ddg).0
    }

    /// [`IterativeScheduler::schedule`] also reporting where the wall time
    /// went (graph build / ordering / arena resets / attempts). The timing
    /// probes sit outside the attempt loop, so the schedule itself is
    /// bit-identical to `schedule()`'s.
    pub fn schedule_with_timings(&self, ddg: &Ddg) -> (ScheduleResult, PhaseTimings) {
        self.schedule_with_timings_pooled(ddg, &mut ArenaPool::new())
    }

    /// [`IterativeScheduler::schedule_with_timings`] drawing the
    /// [`AttemptArena`] from (and returning it to) a caller-owned
    /// [`ArenaPool`], so consecutive loops scheduled through the same pool
    /// rebind one arena's allocations instead of rebuilding per loop. The
    /// execution engine gives each worker its own pool. Pooling is
    /// decision-invisible: results are bit-identical to an empty pool's
    /// (which this method degenerates to under the
    /// [`Oracles::fresh_arena`] oracle — fresh builds never touch the
    /// pool).
    pub fn schedule_with_timings_pooled(
        &self,
        ddg: &Ddg,
        pool: &mut ArenaPool,
    ) -> (ScheduleResult, PhaseTimings) {
        let lat = self.machine.latencies;
        let mii = self.mii(ddg);
        let max_ii = self.params.max_ii;
        let mut timings = PhaseTimings::default();
        let mut stats = SchedulerStats::default();
        let mut arena: Option<AttemptArena> = None;
        let mut trace = self.telemetry.trace_buf();
        let sched_start = trace.now_ns();
        let mut ii = mii.max(1);
        // Budget-aware ladder state: the last failed II (low end of a
        // potential skip gap) and the streak of consecutive budget-limited
        // failures driving the geometric stride.
        let mut last_failed: Option<u32> = None;
        let mut streak = 0u32;
        let mut found: Option<ScheduleResult> = None;
        // Warm-start state: the surviving placements of the previous failed
        // attempt, remapped into the next rung's store when eligible (see the
        // capture rules in the `Exhausted` arm below).
        let mut warm_snap: Vec<(NodeId, i64, u32)> = Vec::new();
        let mut warm_ready = false;
        while ii <= max_ii {
            let warm = if warm_ready {
                Some(warm_snap.as_slice())
            } else {
                None
            };
            let mut outcome = self.run_attempt(
                &mut arena,
                pool,
                ddg,
                ii,
                &lat,
                &mut stats,
                &mut timings,
                &mut trace,
                warm,
            );
            if warm.is_some() {
                if let AttemptOutcome::Exhausted { budget_limited } = outcome {
                    // A failed warm attempt never advances the ladder on its
                    // own: the seed can paint the scheduler into a corner a
                    // cold attempt would avoid, so retry the rung cold.
                    // Attempts are Markovian in the II after a reset, so the
                    // retry behaves exactly like the cold ladder's attempt at
                    // this rung — the warm ladder can only ever leave a rung
                    // the cold ladder would also have left, which is what
                    // keeps the final II never worse than cold.
                    if budget_limited {
                        stats.budget_exhausts += 1;
                    }
                    outcome = self.run_attempt(
                        &mut arena,
                        pool,
                        ddg,
                        ii,
                        &lat,
                        &mut stats,
                        &mut timings,
                        &mut trace,
                        None,
                    );
                }
            }
            match outcome {
                AttemptOutcome::Success => {
                    let a = arena.as_ref().expect("attempt ran");
                    let mut best = self.finalize(ddg, a, mii);
                    // Success after a skip: the gap IIs were never attempted,
                    // so scan them from below and keep the first success —
                    // exactly the II the unit ladder would have returned
                    // (whenever budget feasibility is monotone in the II).
                    // All-fail gap scans cost what the unit ladder would have
                    // paid for the same rungs; the skips before the final gap
                    // remain pure savings.
                    if let Some(p) = last_failed {
                        for g in (p + 1)..ii {
                            stats.ii_skips -= 1;
                            let o = self.run_attempt(
                                &mut arena,
                                pool,
                                ddg,
                                g,
                                &lat,
                                &mut stats,
                                &mut timings,
                                &mut trace,
                                None,
                            );
                            match o {
                                AttemptOutcome::Success => {
                                    best = self.finalize(
                                        ddg,
                                        arena.as_ref().expect("attempt ran"),
                                        mii,
                                    );
                                    break;
                                }
                                AttemptOutcome::Exhausted { budget_limited } => {
                                    // Gap rungs count towards the recorded
                                    // budget-pressure signal like any other
                                    // attempted rung (they just cannot steer
                                    // the stride any more).
                                    if budget_limited {
                                        stats.budget_exhausts += 1;
                                    }
                                }
                            }
                        }
                    }
                    found = Some(best);
                    break;
                }
                AttemptOutcome::Exhausted { budget_limited } => {
                    // Decide whether the next rung may warm-start from this
                    // failure. Only budget-limited failures with at least one
                    // active node left unplaced qualify: a structural failure
                    // leaves a store mid-cascade not worth seeding from, and a
                    // completed-but-over-capacity schedule would remap to an
                    // empty worklist — the spill machinery never runs and the
                    // rung fails identically forever.
                    warm_ready = false;
                    if !self.cold_attempts && budget_limited {
                        let a = arena.as_ref().expect("attempt ran");
                        if a.w.active_nodes().any(|n| !a.store.is_placed(n)) {
                            a.capture_warm_snapshot(&mut warm_snap);
                            warm_ready = !warm_snap.is_empty();
                        }
                    }
                    if budget_limited {
                        stats.budget_exhausts += 1;
                        streak += 1;
                    } else {
                        // A structural failure (no slot, no victim, guard
                        // trip, infeasible cutoff, attempt cap) joins the
                        // gallop only when it failed *deep* — after at least
                        // two worklist cycles' worth of scheduling attempts —
                        // on a clustered machine. Deep failures there are
                        // communication-churn storms that behave like budget
                        // exhaustion (the II is far too small and nearby
                        // rungs fail the same way). A shallow failure, or any
                        // structural failure on a monolithic machine (a pure
                        // resource conflict), marks an irregular feasibility
                        // frontier — exactly where skipping risks landing
                        // past the unit ladder's answer — and resets the
                        // gallop.
                        let a = arena.as_ref().expect("attempt ran");
                        let deep = a.attempt_stats().attempts >= 2 * a.w.active_count() as u64;
                        if deep && self.machine.clusters() > 1 {
                            streak += 1;
                        } else {
                            streak = 0;
                        }
                    }
                    // Geometric gallop over consecutive budget-limited
                    // failures (1, 2, 4, then 8 per step), with the failed
                    // attempt's ejection pressure as the second signal: a
                    // storm (at least one ejection per scheduling attempt)
                    // justifies the full stride, lighter failures step
                    // cautiously. The success-side gap scan re-checks the
                    // final gap from below, so an overshoot costs one extra
                    // (successful) attempt; every skipped rung below the
                    // final gap is a failed attempt never paid for.
                    // Skipping composes with warm starts: the streak and the
                    // ejection-pressure signal are always read from the last
                    // *cold* outcome at this rung (a failed warm attempt was
                    // retried cold before reaching this arm), so the warm
                    // ladder strides over exactly the rung sequence the cold
                    // ladder would — warm attempts are interposed free tries
                    // that can only terminate the climb early, and the
                    // success-side gap scan keeps the final II at the first
                    // cold-feasible rung of the last gap.
                    let stride = if self.unit_ladder || streak == 0 {
                        1
                    } else {
                        let attempt_stats = arena.as_ref().expect("attempt ran").attempt_stats();
                        let storm = attempt_stats.ejections >= attempt_stats.attempts;
                        let cap = if storm { LADDER_STRIDE_CAP } else { 2 };
                        (1u32 << (streak - 1).min(3)).min(cap)
                    };
                    last_failed = Some(ii);
                    let mut next = ii.saturating_add(stride);
                    if next > max_ii && ii < max_ii {
                        // Never skip past the cap without attempting it.
                        next = max_ii;
                    }
                    if next <= max_ii {
                        stats.ii_skips += next - ii - 1;
                        if next > ii + 1 {
                            trace.instant(
                                "ii_skip",
                                "sched",
                                &[
                                    ("from", (ii + 1) as i64),
                                    ("to", (next - 1) as i64),
                                    ("stride", stride as i64),
                                ],
                            );
                        }
                    }
                    ii = next;
                }
            }
        }
        let mut result = found.unwrap_or_else(|| self.failed_result(ddg, mii));
        result.stats = stats;
        if self.telemetry.is_enabled() {
            trace.span_labeled(
                "schedule",
                "sched",
                sched_start,
                Some(&result.loop_name),
                &[
                    ("ii", result.ii as i64),
                    ("mii", result.mii as i64),
                    ("restarts", result.stats.ii_restarts as i64),
                    ("ejections", result.stats.ejections as i64),
                ],
            );
            self.telemetry.flush(&mut trace);
            self.telemetry.counter_add("sched.loops", 1);
            self.telemetry
                .counter_add("sched.failed_loops", u64::from(result.failed));
            result.stats.publish(&self.telemetry);
            timings.publish(&self.telemetry);
            if let Some(a) = arena.as_ref() {
                a.store.mrt().publish_metrics(&self.telemetry);
                if !self.oracles.batch_pressure {
                    a.store.tracker().publish_metrics(&self.telemetry);
                }
            }
        }
        // Hand the arena back for the pool's next loop. Fresh-arena oracle
        // runs never pooled their builds, so they return nothing either.
        if !self.oracles.fresh_arena {
            if let Some(a) = arena {
                pool.put(a);
            }
        }
        (result, timings)
    }

    /// Prepare the arena (reset, or build under the fresh-build oracle) and
    /// run one attempt at `ii`, folding its counters and phase times into
    /// the ladder accumulators. With `warm`, the reset seeds the store by
    /// modulo-remapping the snapshot's placements instead of starting empty.
    #[allow(clippy::too_many_arguments)]
    fn run_attempt(
        &self,
        arena: &mut Option<AttemptArena>,
        pool: &mut ArenaPool,
        ddg: &Ddg,
        ii: u32,
        lat: &OpLatencies,
        stats: &mut SchedulerStats,
        timings: &mut PhaseTimings,
        trace: &mut TraceBuf,
        warm: Option<&[(NodeId, i64, u32)]>,
    ) -> AttemptOutcome {
        if arena.is_none() || self.oracles.fresh_arena {
            let t = Instant::now();
            let t0 = trace.now_ns();
            // The fresh-arena oracle rebuilds per attempt and must stay a
            // true from-scratch baseline, so it never draws from the pool.
            let (a, rebound) = if self.oracles.fresh_arena {
                (AttemptArena::new(ddg, &self.machine, self.oracles), false)
            } else {
                let before = pool.rebinds();
                let a = pool.take(ddg, &self.machine, self.oracles);
                (a, pool.rebinds() > before)
            };
            *arena = Some(a);
            timings.graph_build += t.elapsed();
            trace.span(
                if rebound {
                    "arena_rebind"
                } else {
                    "arena_build"
                },
                "sched",
                t0,
                &[],
            );
        }
        let a = arena.as_mut().expect("just ensured");
        if stats.ii_restarts > 0 {
            stats.arena_resets += 1;
            trace.instant("arena_reset", "sched", &[("ii", ii as i64)]);
        }
        stats.ii_restarts += 1;
        let t = Instant::now();
        let mut warm_unplaced = None;
        let (order_time, warm_time) = match warm {
            Some(snap) => {
                let r = a.reset_warm(ii, lat, snap, self.params.binding_prefetch);
                stats.warm_starts += 1;
                stats.warm_nodes_retained += r.retained as u64;
                warm_unplaced = Some((a.w.active_count() as u32).saturating_sub(r.retained));
                trace.instant(
                    "warm_start",
                    "sched",
                    &[("ii", ii as i64), ("retained", r.retained as i64)],
                );
                (r.order_time, r.remap_time)
            }
            None => (a.reset(ii, lat), Duration::ZERO),
        };
        timings.order += order_time;
        timings.warm_start += warm_time;
        timings.resets += t
            .elapsed()
            .saturating_sub(order_time)
            .saturating_sub(warm_time);
        let t = Instant::now();
        let t0 = trace.now_ns();
        // The attempt records its cascade events through the arena's buffer;
        // swap the live one in for its duration (the arena's own stays a
        // recording-nothing default otherwise).
        std::mem::swap(&mut a.trace, trace);
        let outcome = self.attempt(a, lat, warm_unplaced);
        std::mem::swap(&mut a.trace, trace);
        timings.attempts += t.elapsed();
        if a.self_ejections > 0 {
            self.telemetry
                .counter_add("sched.self_ejections", a.self_ejections);
        }
        a.fold_store_counters();
        stats.absorb_attempt(&a.stats);
        if trace.enabled() {
            let (ok, budget_limited) = match outcome {
                AttemptOutcome::Success => (1, false),
                AttemptOutcome::Exhausted { budget_limited } => (0, budget_limited),
            };
            trace.span(
                "ii_attempt",
                "sched",
                t0,
                &[
                    ("ii", ii as i64),
                    ("ok", ok),
                    ("attempts", a.stats.attempts as i64),
                    ("ejections", a.stats.ejections as i64),
                ],
            );
            if budget_limited {
                trace.instant("budget_exhaust", "sched", &[("ii", ii as i64)]);
            }
        }
        outcome
    }

    /// The result reported when no schedule was found up to `max_ii`
    /// (ladder-level stats are filled in by the caller).
    fn failed_result(&self, ddg: &Ddg, mii: u32) -> ScheduleResult {
        ScheduleResult {
            loop_name: ddg.name.clone(),
            config: self.machine.rf.to_string(),
            ii: self.params.max_ii,
            mii,
            sc: 0,
            achieved_mii: false,
            failed: true,
            max_live_cluster: vec![0; self.machine.clusters() as usize],
            max_live_shared: 0,
            loadr_ops: 0,
            storer_ops: 0,
            move_ops: 0,
            spill_loads: 0,
            spill_stores: 0,
            memory_ops: ddg.memory_ops() as u32,
            original_memory_ops: ddg.memory_ops() as u32,
            total_ops: ddg.num_nodes() as u32,
            original_ops: ddg.num_nodes() as u32,
            stats: SchedulerStats::default(),
            final_graph: None,
            placements: None,
        }
    }

    /// One attempt at the arena's current II (the caller has just `reset`
    /// the arena for it). `warm_unplaced` is the number of active nodes the
    /// warm remap left unplaced, when this attempt was warm-started.
    fn attempt(
        &self,
        state: &mut AttemptArena,
        lat: &OpLatencies,
        warm_unplaced: Option<u32>,
    ) -> AttemptOutcome {
        let ii = state.ii;
        // A warm attempt pays a budget proportional to the unplaced
        // remainder the remap left over, not to the whole graph: the seed
        // either converges quickly or the rung is retried cold, so a failed
        // warm attempt stays cheap no matter how deep an ejection cascade
        // it would otherwise chase.
        state.budget = match warm_unplaced {
            Some(unplaced) => (self.params.budget_ratio as i64) * (unplaced as i64).max(1),
            None => (self.params.budget_ratio as i64) * (state.w.active_count() as i64).max(1),
        };
        state.warm_probe = warm_unplaced.is_some();
        state.self_ejections = 0;
        // Safety net on scheduling attempts. The budget grows by
        // Budget_Ratio per inserted communication or spill node (as in the
        // paper), and a pop that ejects itself keeps none of that credit (the
        // no-progress rule after step 3), so an eject/re-insert ping-pong
        // ends as an ordinary budget-limited failure long before this cap.
        // What still reaches it is credit from communication or spill
        // chains that do stay placed while the attempt keeps cycling; each
        // hit is counted in `sched.attempt_caps` and traced as an
        // `attempt_cap` instant.
        let attempt_cap =
            64 * (state.w.active_count() as u64 + 8) * (self.params.budget_ratio as u64).max(1);
        let clusters = self.machine.clusters();
        let spill_round_limit = 4 * (state.w.original_nodes() as u32 + 4);
        let mut spill_rounds = 0u32;

        while let Some(u) = state.store.pop_worklist() {
            if !state.w.is_active(u) || state.store.is_placed(u) {
                continue;
            }
            state.stats.attempts += 1;
            if state.stats.attempts > attempt_cap {
                self.telemetry.counter_add("sched.attempt_caps", 1);
                state.trace.instant(
                    "attempt_cap",
                    "sched",
                    &[
                        ("ii", ii as i64),
                        ("attempts", state.stats.attempts as i64),
                        ("ejections", state.stats.ejections as i64),
                        ("node", u.0 as i64),
                    ],
                );
                return AttemptOutcome::Exhausted {
                    budget_limited: false,
                };
            }
            // 1. Cluster selection. The recording variant notes every edge
            // that could need communication in the same walk that scores the
            // clusters, so step 2 does not have to re-walk the neighbourhood.
            let mut comm_cands = std::mem::take(&mut state.comm_cands);
            let (choice, cands_complete) = if self.oracles.batch_pressure {
                // Oracle mode never consults the tracker; the store discards
                // the dirty set so it cannot grow for the whole attempt.
                state.store.sync_pressure(&mut state.w);
                let pr = self.current_pressure(state, lat);
                select_cluster_recording(
                    u,
                    &state.w,
                    state.store.mrt(),
                    state.store.placements(),
                    &pr,
                    &mut comm_cands,
                )
            } else {
                state.store.sync_pressure(&mut state.w);
                select_cluster_recording(
                    u,
                    &state.w,
                    state.store.mrt(),
                    state.store.placements(),
                    state.store.tracker(),
                    &mut comm_cands,
                )
            };
            state.comm_cands = comm_cands;
            // 2. Communication with already placed neighbours.
            let budget_before = state.budget;
            if !self.insert_and_schedule_communication(
                state,
                u,
                choice.cluster,
                lat,
                cands_complete,
            ) {
                return AttemptOutcome::Exhausted {
                    budget_limited: false,
                };
            }
            // 3. Schedule the node itself.
            if !self.schedule_node(state, u, choice.cluster, lat) {
                return AttemptOutcome::Exhausted {
                    budget_limited: false,
                };
            }
            // No-progress rule: when `u` is still active but unplaced, its
            // forced placement violated the chains step 2 just inserted and
            // ejecting them ejected their owner, `u` itself. The chains are
            // gone, so their Budget_Ratio credit goes too and the pop costs
            // one unit like any other step. Without this, each such pop
            // re-inserts the chain one cycle later and grows the budget,
            // and only the attempt cap ends the ping-pong.
            if state.w.is_active(u) && !state.store.is_placed(u) {
                state.budget = state.budget.min(budget_before);
                state.self_ejections += 1;
            }
            // 4. Register pressure / spill.
            if self.has_bounded_banks() {
                match self.check_and_spill(state, u, lat, &mut spill_rounds, spill_round_limit) {
                    SpillOutcome::Continue => {}
                    SpillOutcome::SpillLimit => {
                        // A budget-family failure: more spill rounds (or a
                        // larger II) would lower the pressure gradually.
                        return AttemptOutcome::Exhausted {
                            budget_limited: true,
                        };
                    }
                    SpillOutcome::ScheduleFailed => {
                        return AttemptOutcome::Exhausted {
                            budget_limited: false,
                        };
                    }
                }
            }
            state.budget -= 1;
            if state.budget <= 0 {
                // The budget only fails the attempt while unscheduled work
                // remains: a schedule whose last placement lands exactly on
                // budget 0 is complete, not exhausted.
                let unplaced_remain = state.w.active_nodes().any(|nd| !state.store.is_placed(nd));
                if unplaced_remain {
                    return AttemptOutcome::Exhausted {
                        budget_limited: true,
                    };
                }
            }
        }

        // Every active node must be placed and the banks within capacity.
        let all_placed = state.w.active_nodes().all(|nd| state.store.is_placed(nd));
        if !all_placed {
            return AttemptOutcome::Exhausted {
                budget_limited: false,
            };
        }
        if self.has_bounded_banks() {
            let over = if self.oracles.batch_pressure {
                let pr = pressure(
                    &state.w,
                    state.store.placements(),
                    ii,
                    clusters,
                    lat,
                    self.params.binding_prefetch,
                );
                self.over_capacity_bank(&pr).is_some()
            } else {
                state.store.sync_pressure(&mut state.w);
                self.over_capacity_bank(state.store.tracker()).is_some()
            };
            if over {
                return AttemptOutcome::Exhausted {
                    budget_limited: true,
                };
            }
        }
        AttemptOutcome::Success
    }

    fn has_bounded_banks(&self) -> bool {
        let cluster_bounded = self.machine.rf.cluster_capacity().is_bounded();
        let shared_bounded = self
            .machine
            .rf
            .shared_capacity()
            .map(|c| c.is_bounded())
            .unwrap_or(false);
        cluster_bounded || shared_bounded
    }

    fn current_pressure(&self, state: &AttemptArena, lat: &OpLatencies) -> Pressure {
        pressure(
            &state.w,
            state.store.placements(),
            state.ii,
            self.machine.clusters(),
            lat,
            self.params.binding_prefetch,
        )
    }

    /// Find a bank whose MaxLive exceeds its capacity.
    fn over_capacity_bank(&self, pr: &dyn PressureQuery) -> Option<BankAssignment> {
        let cluster_cap = self.machine.cluster_regs();
        for c in 0..self.machine.clusters() {
            if pr.cluster_live(c) > cluster_cap {
                return Some(BankAssignment::Cluster(c));
            }
        }
        if let Some(shared_cap) = self.machine.shared_regs() {
            if pr.shared_live() > shared_cap {
                return Some(BankAssignment::Shared);
            }
        }
        None
    }

    /// Insert (and immediately schedule) the communication chains needed for
    /// `u` to talk to its already placed neighbours from cluster `cluster`.
    /// Returns `false` when the attempt must be abandoned (baseline scheduler
    /// finding no slot, or budget pathologies).
    ///
    /// When `cands_complete` is set, the first scan filters the edges
    /// `select_cluster_recording` noted in the same worklist pop (nothing
    /// mutates in between, so the recording equals what a full walk would
    /// find). Later iterations always re-walk: scheduling a chain's nodes
    /// can eject neighbours and remove other chains, which reactivates
    /// replaced edges the recording has never seen.
    fn insert_and_schedule_communication(
        &self,
        state: &mut AttemptArena,
        u: NodeId,
        cluster: u32,
        lat: &OpLatencies,
        cands_complete: bool,
    ) -> bool {
        let mut first_scan = true;
        loop {
            // Find one active edge between u and a placed neighbour that needs
            // communication; insert a chain for it; repeat until none remain.
            let mut candidate = None;
            if first_scan && cands_complete {
                // Nothing mutated since the recording (same worklist pop),
                // so "needs communication from `cluster`" is exactly "the
                // recorded communication-free cluster is not `cluster`".
                candidate = state
                    .comm_cands
                    .iter()
                    .find(|&&(_, free_cluster)| free_cluster != cluster)
                    .map(|&(id, _)| id);
            } else {
                for (id, e) in state.w.active_pred_edges(u) {
                    if let Some((_, pc)) = state.store.placement(e.src) {
                        if state.w.needs_communication(e, pc, cluster) {
                            candidate = Some(id);
                            break;
                        }
                    }
                }
                if candidate.is_none() {
                    for (id, e) in state.w.active_succ_edges(u) {
                        if let Some((_, sc)) = state.store.placement(e.dst) {
                            if state.w.needs_communication(e, cluster, sc) {
                                candidate = Some(id);
                                break;
                            }
                        }
                    }
                }
            }
            first_scan = false;
            let Some(edge_id) = candidate else {
                return true;
            };
            let edge = *state.w.ddg.edge(edge_id);
            let mut new_nodes = std::mem::take(&mut state.chain_nodes);
            new_nodes.clear();
            state
                .w
                .insert_communication_into(u, edge_id, &mut new_nodes);
            state.store.grow(state.w.ddg.num_nodes());
            state.budget += (self.params.budget_ratio as i64) * new_nodes.len() as i64;
            for &node in &new_nodes {
                let kind = state.w.ddg.node(node).kind;
                let target_cluster = match kind {
                    // StoreR executes in the cluster of its producer.
                    OpKind::StoreR => state
                        .store
                        .placement(edge.src)
                        .map(|(_, c)| c)
                        .unwrap_or(cluster),
                    // LoadR / Move execute in (write into) the consumer's cluster.
                    _ => {
                        if edge.dst == u {
                            cluster
                        } else {
                            state
                                .store
                                .placement(edge.dst)
                                .map(|(_, c)| c)
                                .unwrap_or(cluster)
                        }
                    }
                };
                if !self.schedule_node(state, node, target_cluster, lat) {
                    state.chain_nodes = new_nodes;
                    return false;
                }
            }
            state.chain_nodes = new_nodes;
        }
    }

    /// Check register pressure and insert spill code until every bank fits
    /// (or the spill budget is exhausted).
    fn check_and_spill(
        &self,
        state: &mut AttemptArena,
        owner: NodeId,
        lat: &OpLatencies,
        spill_rounds: &mut u32,
        spill_round_limit: u32,
    ) -> SpillOutcome {
        loop {
            // One pressure probe per round: the over-capacity bank and, if
            // any, the spill candidate picked from the same lifetime set.
            let probe = if self.oracles.batch_pressure {
                let pr = self.current_pressure(state, lat);
                self.over_capacity_bank(&pr)
                    .map(|bank| (bank, pick_spill_candidate(&state.w, &pr, bank).copied()))
            } else {
                state.store.sync_pressure(&mut state.w);
                self.over_capacity_bank(state.store.tracker()).map(|bank| {
                    (
                        bank,
                        pick_spill_candidate_from(
                            &state.w,
                            state.store.tracker().live_lifetimes(),
                            bank,
                        )
                        .copied(),
                    )
                })
            };
            let Some((bank, candidate)) = probe else {
                return SpillOutcome::Continue;
            };
            if *spill_rounds >= spill_round_limit {
                // Spill budget exhausted with a bank still over capacity:
                // give up on this II promptly (a larger II usually lowers
                // MaxLive) instead of scheduling the rest of the worklist
                // while over capacity. Later ejections could in principle
                // still pull the bank back under its limit, but pressure
                // this far past the spill budget almost never recovers, and
                // every further placement would pay a pressure + spill
                // check for it.
                return SpillOutcome::SpillLimit;
            }
            let Some(candidate) = candidate else {
                return SpillOutcome::Continue;
            };
            let def = candidate.def;
            let Some(last_consumer) = candidate.last_consumer else {
                return SpillOutcome::Continue;
            };
            // Find the active flow edge def -> last_consumer to reroute.
            let Some(edge_id) = state
                .w
                .active_succ_edges(def)
                .find(|(_, e)| e.kind == DepKind::Flow && e.dst == last_consumer)
                .map(|(id, _)| id)
            else {
                return SpillOutcome::Continue;
            };
            *spill_rounds += 1;
            let to_shared = state.w.is_hierarchical() && matches!(bank, BankAssignment::Cluster(_));
            let mut new_nodes = std::mem::take(&mut state.chain_nodes);
            new_nodes.clear();
            if to_shared {
                state
                    .w
                    .insert_spill_to_shared_into(owner, edge_id, &mut new_nodes);
            } else {
                state
                    .w
                    .insert_spill_to_memory_into(owner, edge_id, &mut new_nodes);
            }
            state.store.grow(state.w.ddg.num_nodes());
            state.budget += (self.params.budget_ratio as i64) * new_nodes.len() as i64;
            let producer_cluster = state.store.placement(def).map(|(_, c)| c).unwrap_or(0);
            let consumer_cluster = state
                .store
                .placement(last_consumer)
                .map(|(_, c)| c)
                .unwrap_or(producer_cluster);
            for i in 0..new_nodes.len() {
                let node = new_nodes[i];
                let kind = state.w.ddg.node(node).kind;
                let target = match kind {
                    OpKind::StoreR | OpKind::Store => producer_cluster,
                    _ => consumer_cluster,
                };
                if !self.schedule_node(state, node, target, lat) {
                    state.chain_nodes = new_nodes;
                    return SpillOutcome::ScheduleFailed;
                }
            }
            state.chain_nodes = new_nodes;
        }
    }

    /// Schedule one node on a cluster, forcing a slot and ejecting
    /// conflicting operations when necessary. Returns `false` only when
    /// backtracking is disabled and no free slot exists, or the ejection
    /// guard trips.
    fn schedule_node(
        &self,
        state: &mut AttemptArena,
        u: NodeId,
        cluster: u32,
        lat: &OpLatencies,
    ) -> bool {
        if !state.w.is_active(u) {
            // An ejection triggered while scheduling an earlier member of the
            // same communication/spill chain removed the whole chain; placing
            // a deactivated node would leak its MRT reservation for the rest
            // of the attempt (and poison the victim index with a node no
            // eject can ever reach).
            return true;
        }
        let ii = state.ii as i64;
        let kind = state.w.ddg.node(u).kind;
        let bp = self.params.binding_prefetch;

        // Early start from placed predecessors, late start from placed
        // successors (through active edges). Each placed neighbour's bound
        // lands in the attempt's scratch buffers (cleared, not reallocated):
        // the forced-placement path reuses them as violator candidates
        // instead of re-walking the edges.
        state.pred_bounds.clear();
        state.succ_bounds.clear();
        let mut estart: Option<i64> = None;
        for (_, e) in state.w.active_pred_edges(u) {
            if let Some((pc, _)) = state.store.placement(e.src) {
                let d = state.w.edge_delay(e, lat, bp);
                let bound = pc + d - ii * e.distance as i64;
                state.pred_bounds.push((e.src, bound));
                estart = Some(estart.map_or(bound, |b: i64| b.max(bound)));
            }
        }
        let mut lstart: Option<i64> = None;
        for (_, e) in state.w.active_succ_edges(u) {
            if let Some((sc, _)) = state.store.placement(e.dst) {
                let d = state.w.edge_delay(e, lat, bp);
                let bound = sc - d + ii * e.distance as i64;
                state.succ_bounds.push((e.dst, bound));
                lstart = Some(lstart.map_or(bound, |b: i64| b.min(bound)));
            }
        }
        let topo_at_walk = state.w.topo_version();

        // Scan range and direction.
        let (scan_start, scan_end, upward) = match (estart, lstart) {
            (None, None) => (0, ii - 1, true),
            (Some(e), None) => (e, e + ii - 1, true),
            (None, Some(l)) => (l - ii + 1, l, false),
            (Some(e), Some(l)) => (e, l.min(e + ii - 1), true),
        };

        let found =
            state
                .store
                .mrt()
                .first_free_row_in(kind, cluster, (scan_start, scan_end), upward, lat);

        if let Some(t) = found {
            state.store.place(&state.w, u, t, cluster, lat);
            return true;
        }
        if !self.params.backtracking {
            return false;
        }
        // A warm probe never forces: ejecting through the densely seeded
        // store costs more than the cold retry it would displace, so the
        // first conflict hands the rung over.
        if state.warm_probe {
            return false;
        }

        // Structurally unsatisfiable conflict: the class cannot take this
        // operation even on an empty table (a divide longer than the II
        // allows on this cluster's units), so no ejection cascade can ever
        // free the slot — abandon the attempt before paying for one. The
        // cascade would reach the same `return false` through `pick_victim`
        // running out of candidates; cutting it short only saves the doomed
        // ejections (and their worklist churn), which the attempt discard
        // throws away anyway.
        if !state.store.mrt().placeable_on_empty(kind, lat) {
            state.stats.infeasible_cutoffs += 1;
            return false;
        }

        // Force a slot (Rau's trick: never force at or before the previous
        // placement of the same node so the process makes progress).
        let mut force_at = if upward {
            estart.unwrap_or(0)
        } else {
            lstart.unwrap_or(0)
        };
        if let Some(prev) = state.store.prev_cycle(u) {
            if force_at <= prev {
                force_at = prev + 1;
            }
        }

        // Eject the operations holding the resources we need, one victim
        // search + `eject` transaction at a time.
        let mut cascade_ejections = 0u64;
        let mut guard = 0u32;
        while !state.store.mrt().can_place(kind, force_at, cluster, lat) {
            guard += 1;
            if guard > EJECTION_GUARD_LIMIT {
                state.stats.guard_trips += 1;
                return false;
            }
            let victim = if self.oracles.linear_victim_scan {
                state
                    .store
                    .pick_victim_linear(&state.w, u, kind, force_at, cluster, lat)
            } else {
                state
                    .store
                    .pick_victim(&state.w, u, kind, force_at, cluster)
            };
            let Some(victim) = victim else {
                // Nothing ejectable frees the resource (e.g. a divide
                // longer than the II); abandon the attempt.
                return false;
            };
            let ejected = state.store.eject(&mut state.w, victim, lat);
            state.stats.ejections += ejected;
            cascade_ejections += ejected;
            if !state.w.is_active(u) {
                // The ejection cascade removed the chain `u` belongs to;
                // there is nothing left to place.
                return true;
            }
        }
        state.store.place(&state.w, u, force_at, cluster, lat);

        // Eject placed neighbours whose dependence constraints the forced
        // placement violates. When the ejection cascade changed no topology
        // (the common case: ejections only unplace nodes, and a still-placed
        // neighbour's bound cannot have moved), the candidates are exactly
        // the still-placed entries of the estart/lstart scratch — no second
        // edge walk. A cascade that removed a chain reactivated replaced
        // edges, so the neighbourhood must be re-walked.
        let mut violators = std::mem::take(&mut state.violators);
        violators.clear();
        if state.w.topo_version() == topo_at_walk {
            for &(v, bound) in &state.pred_bounds {
                if bound > force_at && state.store.is_placed(v) {
                    violators.push(v);
                }
            }
            for &(v, bound) in &state.succ_bounds {
                if bound < force_at && state.store.is_placed(v) {
                    violators.push(v);
                }
            }
        } else {
            for (_, e) in state.w.active_pred_edges(u) {
                if let Some((pc, _)) = state.store.placement(e.src) {
                    let d = state.w.edge_delay(e, lat, bp);
                    if pc + d - ii * e.distance as i64 > force_at {
                        violators.push(e.src);
                    }
                }
            }
            for (_, e) in state.w.active_succ_edges(u) {
                if let Some((sc, _)) = state.store.placement(e.dst) {
                    let d = state.w.edge_delay(e, lat, bp);
                    if force_at + d - ii * e.distance as i64 > sc {
                        violators.push(e.dst);
                    }
                }
            }
        }
        violators.sort_unstable_by_key(|n| n.index());
        violators.dedup();
        let ejected = state
            .store
            .eject_violators(&mut state.w, &violators, u, lat);
        state.stats.ejections += ejected;
        cascade_ejections += ejected;
        state.violators = violators;
        // Cascade instants fire once per forced placement — orders of
        // magnitude more often than any ladder event — so they are debug
        // detail, not standard capture (the overhead bench holds standard
        // capture under its budget).
        if state.trace.detail_enabled() && cascade_ejections > 0 {
            state.trace.instant(
                "eject_cascade",
                "sched",
                &[
                    ("node", u.index() as i64),
                    ("cycle", force_at),
                    ("victims", cascade_ejections as i64),
                ],
            );
        }
        true
    }

    /// Build the public result from a successful attempt. The `stats` field
    /// is left default: the ladder in [`IterativeScheduler::schedule_with_timings`]
    /// owns all counter accumulation across II restarts and overwrites it.
    fn finalize(&self, original: &Ddg, state: &AttemptArena, mii: u32) -> ScheduleResult {
        let ii = state.ii;
        let lat = self.machine.latencies;
        let clusters = self.machine.clusters();
        // Normalise cycles so the earliest operation issues at cycle 0.
        let min_cycle = state
            .w
            .active_nodes()
            .filter_map(|n| state.store.placement(n).map(|(c, _)| c))
            .min()
            .unwrap_or(0);
        let mut placements_vec = vec![
            Placement {
                cycle: 0,
                cluster: 0
            };
            state.w.ddg.num_nodes()
        ];
        let mut max_cycle = 0u32;
        let mut shifted: Vec<Option<(i64, u32)>> = vec![None; state.w.ddg.num_nodes()];
        for n in state.w.active_nodes() {
            if let Some((c, cl)) = state.store.placement(n) {
                let cyc = (c - min_cycle) as u32;
                placements_vec[n.index()] = Placement {
                    cycle: cyc,
                    cluster: cl,
                };
                shifted[n.index()] = Some((cyc as i64, cl));
                max_cycle = max_cycle.max(cyc);
            }
        }
        let sc = max_cycle / ii + 1;
        let pr = pressure(
            &state.w,
            &shifted,
            ii,
            clusters,
            &lat,
            self.params.binding_prefetch,
        );
        let (loadr, storer, moves, spill_loads, spill_stores) = state.w.inserted_counts();
        let memory_ops = state.w.active_memory_ops();
        let total_ops = state.w.active_count() as u32;
        let (final_graph, final_placements) = if self.params.keep_schedule {
            let (g, p) = active_subgraph(&state.w, &placements_vec);
            (Some(g), Some(p))
        } else {
            (None, None)
        };
        ScheduleResult {
            loop_name: original.name.clone(),
            config: self.machine.rf.to_string(),
            ii,
            mii,
            sc,
            achieved_mii: ii == mii,
            failed: false,
            max_live_cluster: pr.cluster.clone(),
            max_live_shared: pr.shared,
            loadr_ops: loadr,
            storer_ops: storer,
            move_ops: moves,
            spill_loads,
            spill_stores,
            memory_ops,
            original_memory_ops: state.w.original_mem_ops() as u32,
            total_ops,
            original_ops: state.w.original_nodes() as u32,
            stats: SchedulerStats::default(),
            final_graph,
            placements: final_placements,
        }
    }
}

/// Extract the active subgraph of a working graph together with the matching
/// placements (compacting node ids).
fn active_subgraph(w: &WorkGraph, placements: &[Placement]) -> (Ddg, Vec<Placement>) {
    let mut g = Ddg::new(w.ddg.name.clone());
    let mut mapping = vec![None; w.ddg.num_nodes()];
    let mut out_place = Vec::new();
    for n in w.active_nodes() {
        let new_id = g.add_node(w.ddg.node(n).clone());
        mapping[n.index()] = Some(new_id);
        out_place.push(placements[n.index()]);
    }
    for (id, e) in w.ddg.edges() {
        if !w.edge_is_active(id) {
            continue;
        }
        if let (Some(src), Some(dst)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
            g.add_edge(hcrf_ir::Edge {
                src,
                dst,
                kind: e.kind,
                distance: e.distance,
            });
        }
    }
    (g, out_place)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_schedule;
    use hcrf_ir::DdgBuilder;
    use hcrf_machine::RfOrganization;

    fn machine(cfg: &str) -> MachineConfig {
        MachineConfig::paper_baseline(RfOrganization::parse(cfg).unwrap())
    }

    fn daxpy() -> Ddg {
        let mut b = DdgBuilder::new("daxpy");
        let lx = b.load(0, 8);
        let ly = b.load(1, 8);
        let m = b.op_invariant(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1, 8);
        b.flow(lx, m, 0).flow(m, a, 0).flow(ly, a, 0).flow(a, s, 0);
        b.build()
    }

    fn recurrence_loop() -> Ddg {
        // s = s + a[i] * b[i]
        let mut b = DdgBuilder::new("dotp");
        let la = b.load(0, 8);
        let lb = b.load(1, 8);
        let m = b.op(OpKind::FMul);
        let acc = b.op(OpKind::FAdd);
        b.flow(la, m, 0)
            .flow(lb, m, 0)
            .flow(m, acc, 0)
            .flow(acc, acc, 1);
        b.build()
    }

    #[test]
    fn monolithic_achieves_mii_on_simple_loop() {
        let g = daxpy();
        let m = machine("S128");
        let r = schedule_loop(&g, &m, &SchedulerParams::default());
        assert!(!r.failed);
        assert_eq!(r.mii, 1);
        assert_eq!(r.ii, 1);
        assert!(r.achieved_mii);
        validate_schedule(&g, &m, &r).unwrap();
    }

    #[test]
    fn recurrence_bound_loop_gets_recmii() {
        let g = recurrence_loop();
        let m = machine("S128");
        let r = schedule_loop(&g, &m, &SchedulerParams::default());
        assert!(!r.failed);
        assert_eq!(r.mii, 4); // add latency 4, distance 1
        assert!(r.ii >= 4);
        validate_schedule(&g, &m, &r).unwrap();
    }

    #[test]
    fn clustered_machine_schedules_and_validates() {
        let g = daxpy();
        let m = machine("4C32");
        let r = schedule_loop(&g, &m, &SchedulerParams::default());
        assert!(!r.failed, "clustered scheduling failed");
        validate_schedule(&g, &m, &r).unwrap();
    }

    #[test]
    fn hierarchical_machine_inserts_interface_ops() {
        let g = daxpy();
        let m = machine("4C16S64");
        let r = schedule_loop(&g, &m, &SchedulerParams::default());
        assert!(!r.failed);
        // Two loads feeding FUs and one store fed by a FU -> at least 2 LoadR
        // and 1 StoreR.
        assert!(r.loadr_ops >= 2, "LoadR ops {}", r.loadr_ops);
        assert!(r.storer_ops >= 1, "StoreR ops {}", r.storer_ops);
        validate_schedule(&g, &m, &r).unwrap();
    }

    #[test]
    fn hierarchical_ii_not_smaller_than_monolithic() {
        let g = recurrence_loop();
        let mono = schedule_loop(&g, &machine("S128"), &SchedulerParams::default());
        let hier = schedule_loop(&g, &machine("8C16S16"), &SchedulerParams::default());
        assert!(!mono.failed && !hier.failed);
        assert!(hier.ii >= mono.ii);
    }

    #[test]
    fn tiny_register_file_forces_spill_code() {
        // A wide fan of long-lived values on a tiny monolithic RF.
        let mut b = DdgBuilder::new("pressure");
        let mut defs = Vec::new();
        for i in 0..12 {
            let l = b.load(i, 8);
            defs.push(l);
        }
        // A chain of adds consuming the loads late, creating long lifetimes.
        let mut prev = b.op(OpKind::FAdd);
        b.flow(defs[0], prev, 0);
        for d in defs.iter().skip(1) {
            let a = b.op(OpKind::FAdd);
            b.flow(prev, a, 0);
            b.flow(*d, a, 0);
            prev = a;
        }
        let s = b.store(30, 8);
        b.flow(prev, s, 0);
        let g = b.build();
        let small = machine("S16");
        let r = schedule_loop(&g, &small, &SchedulerParams::default());
        // Either spill code was inserted or the II grew well beyond MII.
        assert!(!r.failed);
        assert!(
            r.spill_loads + r.spill_stores > 0 || r.ii > r.mii,
            "expected spilling or II growth on a tiny RF (ii={}, mii={})",
            r.ii,
            r.mii
        );
        validate_schedule(&g, &small, &r).unwrap();
    }

    #[test]
    fn baseline36_never_beats_mirs_hc() {
        let g = recurrence_loop();
        let m = machine("1C64S64");
        let mirs = schedule_loop(&g, &m, &SchedulerParams::default());
        let base = schedule_loop_baseline36(&g, &m);
        assert!(!mirs.failed);
        assert!(!base.failed);
        assert!(mirs.ii <= base.ii);
    }

    #[test]
    fn eight_cluster_hierarchy_works() {
        let g = daxpy();
        let m = machine("8C16S16");
        let r = schedule_loop(&g, &m, &SchedulerParams::default());
        assert!(!r.failed);
        validate_schedule(&g, &m, &r).unwrap();
    }

    #[test]
    fn unbounded_registers_never_spill() {
        let g = daxpy();
        let m = machine("4CinfSinf");
        let r = schedule_loop(&g, &m, &SchedulerParams::default());
        assert!(!r.failed);
        assert_eq!(r.spill_loads + r.spill_stores, 0);
    }

    #[test]
    fn budget_exactly_exhausted_on_last_placement_still_succeeds() {
        // daxpy schedules on S128 without ejections, so budget_ratio = 1
        // makes the budget land exactly on 0 with the final placement. A
        // completed schedule must not be reported as exhausted (that would
        // spuriously inflate the II, or fail the loop outright since the
        // budget is the same at every II).
        let g = daxpy();
        let m = machine("S128");
        let params = SchedulerParams {
            budget_ratio: 1,
            ..Default::default()
        };
        let r = schedule_loop(&g, &m, &params);
        assert!(!r.failed, "budget-edge schedule spuriously failed");
        assert_eq!(r.ii, r.mii);
        validate_schedule(&g, &m, &r).unwrap();
    }

    #[test]
    fn batch_oracle_and_incremental_agree() {
        // The incremental tracker must not change a single scheduling
        // decision: results are bit-identical to the batch-pressure path,
        // including on machines that force spilling.
        let loops = [daxpy(), recurrence_loop()];
        for cfg in ["S128", "S16", "4C32", "4C16S64", "8C16S16"] {
            let m = machine(cfg);
            let params = SchedulerParams::default();
            for g in &loops {
                let inc = IterativeScheduler::new(m.clone(), params).schedule(g);
                let batch = IterativeScheduler::new(m.clone(), params)
                    .with_oracles(Oracles {
                        batch_pressure: true,
                        ..Oracles::default()
                    })
                    .schedule(g);
                assert_eq!(inc, batch, "engines diverged on {} / {}", g.name, cfg);
            }
        }
    }

    #[test]
    fn indexed_and_linear_victim_search_agree() {
        // The SlotIndex must not change a single scheduling decision either:
        // results are bit-identical to the linear victim scan it replaced.
        let loops = [daxpy(), recurrence_loop()];
        for cfg in ["S128", "S16", "4C32", "4C16S64", "8C16S16"] {
            let m = machine(cfg);
            let params = SchedulerParams::default();
            for g in &loops {
                let indexed = IterativeScheduler::new(m.clone(), params).schedule(g);
                let linear = IterativeScheduler::new(m.clone(), params)
                    .with_oracles(Oracles {
                        linear_victim_scan: true,
                        ..Oracles::default()
                    })
                    .schedule(g);
                assert_eq!(
                    indexed, linear,
                    "victim policies diverged on {} / {}",
                    g.name, cfg
                );
            }
        }
    }

    #[test]
    fn failed_result_reported_when_ii_cap_too_small() {
        let g = recurrence_loop();
        let m = machine("S128");
        let params = SchedulerParams {
            max_ii: 2, // below RecMII = 4
            ..Default::default()
        };
        let r = schedule_loop(&g, &m, &params);
        assert!(r.failed);
    }
}
