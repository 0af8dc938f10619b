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
//! The free-slot window search ([`crate::mrt::Mrt::first_free_row_in`])
//! skips ahead past full MRT rows. The II ladder starts at
//! [`IterativeScheduler::mii`], which includes the per-cluster span floor,
//! so no rung asks a divide to fit fewer rows than its cluster's units can
//! hold. Forced placements whose conflict is *structurally unsatisfiable*
//! even on an empty table are still abandoned before their ejection
//! cascade, counted in [`SchedulerStats::infeasible_cutoffs`].

use crate::arena::{ArenaPool, AttemptArena};
use crate::cluster::select_cluster;
use crate::pressure::{pick_spill_candidate_from, pressure, Pressure, PressureQuery};
use crate::types::{
    BankAssignment, CapacityWindow, Kernel, Placement, ScheduleResult, SchedulerParams,
    SchedulerStats,
};
use crate::workgraph::WorkGraph;
use hcrf_ir::analysis::RecurrenceAnalysis;
use hcrf_ir::{mii as mii_mod, Ddg, DepKind, Edge, Node, NodeId, OpKind, OpLatencies};
use hcrf_machine::{Capacity, MachineConfig, RfOrganization};
use hcrf_telemetry::{Telemetry, TraceBuf};
use std::time::{Duration, Instant};

/// Hard bound on the eject-and-retry iterations spent forcing a single slot
/// before the attempt is abandoned (each trip is counted in
/// [`SchedulerStats::guard_trips`]). Forcing normally converges in a handful
/// of ejections; reaching this limit means the conflicting resource cannot be
/// freed (for example a non-pipelined operation longer than the II keeps
/// re-occupying every row) and a larger II is needed.
pub const EJECTION_GUARD_LIMIT: u32 = 4096;

/// Hard bound on the worklist pops of one II attempt, in budgets: an
/// attempt that pops more than `ATTEMPT_CAP_BUDGETS·(n+8)·budget_ratio`
/// nodes (`n` active nodes at the attempt's start) fails as structural. The
/// no-progress rule ends self-ejection storms far below it; what still
/// reaches it is credit from communication or spill chains that stay placed
/// while the attempt cycles, and every pop that inserts a chain adds nodes
/// to the working graph. Ablation over perfbench's three workloads on both
/// populations: 8 is the smallest power of two that leaves every decision
/// unchanged (the default population's six capped attempts end on the same
/// rungs as at 64, after 1.3k–1.9k pops instead of 10k–15k, with at most
/// ~3.2k working-graph nodes instead of ~26k); 4 moves `fig6_real`'s
/// execution cycles and 2 also moves its ΣII.
pub const ATTEMPT_CAP_BUDGETS: u64 = 8;

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
    reference: bool,
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
    /// insertion). Once per loop by default; once per attempt in reference
    /// mode ([`IterativeScheduler::with_reference`]).
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

/// Why an II attempt was abandoned: the one way out of the attempt loop
/// besides placing every node. The ladder reads only which family a failure
/// belongs to; the attempt's counters stay in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    /// A budget-family limit: the scheduling budget ran out with nodes
    /// unplaced, the spill-round limit was hit with a bank still over
    /// capacity, or a complete schedule overflowed a bank. More work or a
    /// slightly larger II lowers the pressure gradually, so it counts in
    /// [`SchedulerStats::budget_exhausts`], drives the skip stride and may
    /// seed a warm start.
    Budget,
    /// A structural conflict: no free slot without backtracking or in a
    /// warm probe, an infeasible cutoff, no victim, a guard trip, the
    /// attempt cap, or nodes left unplaced when the worklist runs dry.
    Structural,
}

/// The result of one II attempt, or of one step inside it.
type Attempt = Result<(), Failure>;

/// The per-`schedule()` state of the II ladder: the loop, the pool its arena
/// and scratch buffers come from, the arena of the latest attempt and the
/// accumulators every attempt folds into, the capacity window among them.
struct Ladder<'a> {
    ddg: &'a Ddg,
    pool: &'a mut ArenaPool,
    arena: Option<AttemptArena>,
    stats: SchedulerStats,
    window: CapacityWindow,
    timings: PhaseTimings,
    trace: TraceBuf,
}

impl IterativeScheduler {
    /// Create a scheduler for the given machine.
    pub fn new(machine: MachineConfig, params: SchedulerParams) -> Self {
        IterativeScheduler {
            machine,
            params,
            reference: false,
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

    /// Swap every decision-invisible fast path for its paper-literal
    /// counterpart: the reference scheduler. It builds a fresh
    /// [`AttemptArena`] for every II attempt (never drawing from or
    /// returning to the pool), searches victims with the O(active nodes)
    /// [`crate::PlacementStore::pick_victim_linear`] scan, and answers every
    /// register-pressure query from a batch [`pressure`] snapshot instead of
    /// the incremental tracker. Results, [`SchedulerStats`] included, are
    /// bit-identical to the default's (`tests/oracle_equivalence.rs`); this
    /// exists so tests and `bench_sched --ablate` can cross-check and
    /// measure the fast paths.
    pub fn with_reference(mut self) -> Self {
        self.reference = true;
        self
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

    /// Compute the MII of a loop for this machine ([`hcrf_ir::mii::mii`]:
    /// `max(ResMII, RecMII)` raised to the per-cluster span floor, below
    /// which some FU op fits no table), so the II ladder starts at the first
    /// rung an attempt can win. RecMII is computed in `scratch` (the pooled
    /// scheduler passes [`ArenaPool::recurrences`]), so a warm scratch makes
    /// this allocation-free.
    pub fn mii(&self, ddg: &Ddg, scratch: &mut RecurrenceAnalysis) -> u32 {
        let m = &self.machine;
        mii_mod::mii_with(ddg, &m.latencies, m.resource_counts(), scratch)
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
    /// execution engine gives each worker its own pool. The pool also holds
    /// the scratch buffers the MII, a warm start's snapshot and a kept
    /// kernel are built in, in both modes; only reference mode's fresh
    /// arenas never touch it. Pooling is decision-invisible: results are
    /// bit-identical to an empty pool's.
    pub fn schedule_with_timings_pooled(
        &self,
        ddg: &Ddg,
        pool: &mut ArenaPool,
    ) -> (ScheduleResult, PhaseTimings) {
        let mii = self.mii(ddg, pool.recurrences());
        let max_ii = self.params.max_ii;
        let mut l = Ladder {
            ddg,
            pool,
            arena: None,
            stats: SchedulerStats::default(),
            window: CapacityWindow::default(),
            timings: PhaseTimings::default(),
            trace: self.telemetry.trace_buf(),
        };
        let sched_start = l.trace.now_ns();
        let mut ii = mii.max(1);
        // Budget-aware ladder state: the last failed II (low end of a
        // potential skip gap) and the streak of consecutive budget-limited
        // failures driving the geometric stride.
        let mut last_failed: Option<u32> = None;
        let mut streak = 0u32;
        let mut found: Option<ScheduleResult> = None;
        // Whether the next rung warm-starts from the pool's `warm_snap` (see
        // the capture rules in the `Err` arm below).
        let mut warm = false;
        while ii <= max_ii {
            let mut outcome = self.run_attempt(&mut l, ii, warm);
            if warm && outcome.is_err() {
                // A failed warm attempt never advances the ladder on its
                // own: the seed can paint the scheduler into a corner a
                // cold attempt would avoid, so retry the rung cold.
                // Attempts are Markovian in the II after a reset, so the
                // retry behaves exactly like the cold ladder's attempt at
                // this rung — the warm ladder can only ever leave a rung
                // the cold ladder would also have left, which is what
                // keeps the final II never worse than cold.
                outcome = self.run_attempt(&mut l, ii, false);
            }
            match outcome {
                Ok(()) => {
                    let mut best = self.finalize(&mut l, mii);
                    // Success after a skip: the gap IIs were never attempted,
                    // so scan them from below and keep the first success —
                    // exactly the II the unit ladder would have returned
                    // (whenever budget feasibility is monotone in the II).
                    // All-fail gap scans cost what the unit ladder would have
                    // paid for the same rungs; the skips before the final gap
                    // remain pure savings. Failed gap rungs count towards the
                    // budget-pressure signal like any other attempted rung
                    // (they just cannot steer the stride any more).
                    if let Some(p) = last_failed {
                        for g in (p + 1)..ii {
                            l.stats.ii_skips -= 1;
                            if self.run_attempt(&mut l, g, false).is_ok() {
                                best = self.finalize(&mut l, mii);
                                break;
                            }
                        }
                    }
                    found = Some(best);
                    break;
                }
                Err(failure) => {
                    let a = l.arena.as_ref().expect("attempt ran");
                    // Decide whether the next rung may warm-start from this
                    // failure. Only budget-limited failures with at least one
                    // active node left unplaced qualify: a structural failure
                    // leaves a store mid-cascade not worth seeding from, and a
                    // completed-but-over-capacity schedule would remap to an
                    // empty worklist — the spill machinery never runs and the
                    // rung fails identically forever.
                    warm = false;
                    if failure == Failure::Budget {
                        let eligible = !self.cold_attempts
                            && a.w.active_nodes().any(|n| !a.store.is_placed(n));
                        if eligible {
                            a.capture_warm_snapshot(&mut l.pool.warm_snap);
                            warm = !l.pool.warm_snap.is_empty();
                        }
                        streak += 1;
                    } else {
                        // A structural failure joins the gallop only when it
                        // failed *deep* — after at least two worklist cycles'
                        // worth of scheduling attempts — on a clustered
                        // machine. Deep failures there are
                        // communication-churn storms that behave like budget
                        // exhaustion (the II is far too small and nearby
                        // rungs fail the same way). A shallow failure, or any
                        // structural failure on a monolithic machine (a pure
                        // resource conflict), marks an irregular feasibility
                        // frontier — exactly where skipping risks landing
                        // past the unit ladder's answer — and resets the
                        // gallop.
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
                        let attempt_stats = a.attempt_stats();
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
                        l.stats.ii_skips += next - ii - 1;
                        if next > ii + 1 {
                            l.trace.instant(
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
        result.stats = l.stats;
        result.window = l.window;
        if self.telemetry.is_enabled() {
            l.trace.span_labeled(
                "schedule",
                "sched",
                sched_start,
                Some(&ddg.name),
                &[
                    ("ii", result.ii as i64),
                    ("mii", result.mii as i64),
                    ("restarts", result.stats.ii_restarts as i64),
                    ("ejections", result.stats.ejections as i64),
                ],
            );
            self.telemetry.flush(&mut l.trace);
            self.telemetry.counter_add("sched.loops", 1);
            self.telemetry
                .counter_add("sched.failed_loops", u64::from(result.failed));
            result.stats.publish(&self.telemetry);
            l.timings.publish(&self.telemetry);
            if let Some(a) = l.arena.as_ref() {
                a.store.mrt().publish_metrics(&self.telemetry);
                a.store.tracker().publish_metrics(&self.telemetry);
            }
        }
        // Hand the arena back for the pool's next loop. Reference runs never
        // pooled their builds, so they return nothing either.
        if !self.reference {
            if let Some(a) = l.arena {
                l.pool.put(a);
            }
        }
        (result, l.timings)
    }

    /// Prepare the ladder's arena (reset, or build in reference mode) and
    /// run one attempt at `ii`, folding its counters and phase times into
    /// the ladder accumulators. With `warm`, the reset seeds the store by
    /// modulo-remapping the pool's `warm_snap` placements instead of starting
    /// empty.
    fn run_attempt(&self, l: &mut Ladder, ii: u32, warm: bool) -> Attempt {
        let lat = &self.machine.latencies;
        if l.arena.is_none() || self.reference {
            let t = Instant::now();
            let t0 = l.trace.now_ns();
            // Reference mode rebuilds per attempt and must stay a true
            // from-scratch baseline, so it never draws from the pool.
            let (a, rebound) = if self.reference {
                (AttemptArena::new(l.ddg, &self.machine), false)
            } else {
                let before = l.pool.rebinds();
                let a = l.pool.take(l.ddg, &self.machine);
                (a, l.pool.rebinds() > before)
            };
            l.arena = Some(a);
            l.timings.graph_build += t.elapsed();
            l.trace.span(
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
        let a = l.arena.as_mut().expect("just ensured");
        let stats = &mut l.stats;
        let window = &mut l.window;
        let trace = &mut l.trace;
        if stats.ii_restarts > 0 {
            stats.arena_resets += 1;
            trace.instant("arena_reset", "sched", &[("ii", ii as i64)]);
        }
        stats.ii_restarts += 1;
        let t = Instant::now();
        let mut warm_unplaced = None;
        let (order_time, warm_time) = if warm {
            let r = a.reset_warm(ii, lat, &l.pool.warm_snap, self.params.binding_prefetch);
            stats.warm_starts += 1;
            stats.warm_nodes_retained += r.retained as u64;
            warm_unplaced = Some((a.w.active_count() as u32).saturating_sub(r.retained));
            trace.instant(
                "warm_start",
                "sched",
                &[("ii", ii as i64), ("retained", r.retained as i64)],
            );
            (r.order_time, r.remap_time)
        } else {
            (a.reset(ii, lat), Duration::ZERO)
        };
        l.timings.order += order_time;
        l.timings.warm_start += warm_time;
        l.timings.resets += t
            .elapsed()
            .saturating_sub(order_time)
            .saturating_sub(warm_time);
        let t = Instant::now();
        let t0 = trace.now_ns();
        // The attempt records its cascade events through the arena's buffer;
        // swap the live one in for its duration (the arena's own stays a
        // recording-nothing default otherwise).
        std::mem::swap(&mut a.trace, trace);
        let outcome = self.attempt(a, lat, warm_unplaced, window);
        std::mem::swap(&mut a.trace, trace);
        l.timings.attempts += t.elapsed();
        if a.self_ejections > 0 {
            self.telemetry
                .counter_add("sched.self_ejections", a.self_ejections);
        }
        a.fold_store_counters();
        stats.absorb_attempt(&a.stats);
        let budget_limited = outcome == Err(Failure::Budget);
        stats.budget_exhausts += u32::from(budget_limited);
        if trace.enabled() {
            trace.span(
                "ii_attempt",
                "sched",
                t0,
                &[
                    ("ii", ii as i64),
                    ("ok", i64::from(outcome.is_ok())),
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
    /// (ladder-level stats and window are filled in by the caller).
    fn failed_result(&self, ddg: &Ddg, mii: u32) -> ScheduleResult {
        ScheduleResult {
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
            window: CapacityWindow::default(),
            kernel: None,
        }
    }

    /// One attempt at the arena's current II (the caller has just `reset`
    /// the arena for it). `warm_unplaced` is the number of active nodes the
    /// warm remap left unplaced, when this attempt was warm-started. Every
    /// capacity check the attempt makes is recorded in `window`.
    fn attempt(
        &self,
        state: &mut AttemptArena,
        lat: &OpLatencies,
        warm_unplaced: Option<u32>,
        window: &mut CapacityWindow,
    ) -> Attempt {
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
        // Safety net on scheduling attempts, `ATTEMPT_CAP_BUDGETS` budgets
        // of pops. The budget grows by Budget_Ratio per inserted
        // communication or spill node (as in the paper), and a pop that
        // ejects itself keeps none of that credit (the no-progress rule
        // after step 3), so an eject/re-insert ping-pong ends as an ordinary
        // budget-limited failure long before this cap. What still reaches
        // it is credit from communication or spill chains that do stay
        // placed while the attempt keeps cycling. Each such pop adds nodes
        // to the working graph, so the cap bounds memory as well as time.
        // Each hit is counted in `sched.attempt_caps` and traced as an
        // `attempt_cap` instant.
        let attempt_cap = ATTEMPT_CAP_BUDGETS
            * (state.w.active_count() as u64 + 8)
            * (self.params.budget_ratio as u64).max(1);
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
                return Err(Failure::Structural);
            }
            // 1. Cluster selection, after bringing the tracker up to date
            // with the graph rewiring of the previous pop.
            state.store.sync_pressure(&mut state.w);
            let batch = self.batch_snapshot(state);
            let choice = select_cluster(
                u,
                &state.w,
                state.store.mrt(),
                state.store.placements(),
                Self::pressure_source(state, &batch),
            );
            // 2. Communication with already placed neighbours.
            let budget_before = state.budget;
            self.insert_and_schedule_communication(state, u, choice.cluster, lat)?;
            // 3. Schedule the node itself.
            self.schedule_node(state, u, choice.cluster, lat)?;
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
                self.check_and_spill(state, u, lat, &mut spill_rounds, spill_round_limit, window)?;
            }
            state.budget -= 1;
            if state.budget <= 0 {
                // The budget only fails the attempt while unscheduled work
                // remains: a schedule whose last placement lands exactly on
                // budget 0 is complete, not exhausted.
                let unplaced_remain = state.w.active_nodes().any(|nd| !state.store.is_placed(nd));
                if unplaced_remain {
                    return Err(Failure::Budget);
                }
            }
        }

        // Every active node must be placed and the banks within capacity.
        let all_placed = state.w.active_nodes().all(|nd| state.store.is_placed(nd));
        if !all_placed {
            return Err(Failure::Structural);
        }
        if self.has_bounded_banks() {
            state.store.sync_pressure(&mut state.w);
            let batch = self.batch_snapshot(state);
            if self
                .over_capacity_bank(Self::pressure_source(state, &batch), window)
                .is_some()
            {
                return Err(Failure::Budget);
            }
        }
        Ok(())
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

    /// The batch pressure snapshot of the current placements in reference
    /// mode; `None` otherwise, where the store's incremental tracker answers
    /// every query.
    fn batch_snapshot(&self, state: &AttemptArena) -> Option<Pressure> {
        self.reference.then(|| {
            pressure(
                &state.w,
                state.store.placements(),
                state.ii,
                self.machine.clusters(),
            )
        })
    }

    /// Where a pressure query reads from: the batch snapshot if one was
    /// taken, the incremental tracker otherwise.
    fn pressure_source<'a>(
        state: &'a AttemptArena,
        batch: &'a Option<Pressure>,
    ) -> &'a dyn PressureQuery {
        match batch {
            Some(pr) => pr,
            None => state.store.tracker(),
        }
    }

    /// Find a bank whose MaxLive exceeds its capacity, recording every
    /// comparison in `window`. With [`IterativeScheduler::has_bounded_banks`]
    /// this is the only place the scheduler reads a register capacity.
    fn over_capacity_bank(
        &self,
        pr: &dyn PressureQuery,
        window: &mut CapacityWindow,
    ) -> Option<BankAssignment> {
        let cluster_cap = self.machine.cluster_regs();
        for c in 0..self.machine.clusters() {
            if window.cluster.check(pr.cluster_live(c), cluster_cap) {
                return Some(BankAssignment::Cluster(c));
            }
        }
        if let Some(shared_cap) = self.machine.shared_regs() {
            if window.shared.check(pr.shared_live(), shared_cap) {
                return Some(BankAssignment::Shared);
            }
        }
        None
    }

    /// The scheduling class of this scheduler's machine: the
    /// [`MachineConfig`] it reads, with every bounded register capacity
    /// erased to zero (boundedness is kept) and, unless binding prefetching
    /// is on, the load-miss latency erased too, since only prefetched loads
    /// read it. Two schedulers with equal keys and equal parameters make the
    /// same decisions wherever their capacity checks agree: a result
    /// computed on one serves the other whenever its
    /// [`CapacityWindow`] covers the other's machine.
    pub fn class_key(&self) -> MachineConfig {
        let erase = |c: Capacity| match c {
            Capacity::Bounded(_) => Capacity::Bounded(0),
            Capacity::Unbounded => Capacity::Unbounded,
        };
        let mut key = self.machine.clone();
        key.rf = match key.rf {
            RfOrganization::Monolithic { regs } => RfOrganization::Monolithic { regs: erase(regs) },
            RfOrganization::Clustered {
                clusters,
                regs_per_cluster,
            } => RfOrganization::Clustered {
                clusters,
                regs_per_cluster: erase(regs_per_cluster),
            },
            RfOrganization::Hierarchical {
                clusters,
                cluster_regs,
                shared_regs,
            } => RfOrganization::Hierarchical {
                clusters,
                cluster_regs: erase(cluster_regs),
                shared_regs: erase(shared_regs),
            },
        };
        if !self.params.binding_prefetch {
            key.latencies.load_miss = 0;
        }
        key
    }

    /// Insert (and immediately schedule) the communication chains needed for
    /// `u` to talk to its already placed neighbours from cluster `cluster`.
    /// Fails when scheduling a chain node does.
    ///
    /// Every iteration walks the live neighbourhood: scheduling a chain's
    /// nodes can eject neighbours and remove other chains, which
    /// reactivates the edges those chains replaced.
    fn insert_and_schedule_communication(
        &self,
        state: &mut AttemptArena,
        u: NodeId,
        cluster: u32,
        lat: &OpLatencies,
    ) -> Attempt {
        loop {
            // Find one active edge between u and a placed neighbour that needs
            // communication; insert a chain for it; repeat until none remain.
            let pred = state.w.active_pred_edges(u).find(|(_, e)| {
                state
                    .store
                    .placement(e.src)
                    .is_some_and(|(_, pc)| state.w.needs_communication(e, pc, cluster))
            });
            let candidate = pred.or_else(|| {
                state.w.active_succ_edges(u).find(|(_, e)| {
                    state
                        .store
                        .placement(e.dst)
                        .is_some_and(|(_, sc)| state.w.needs_communication(e, cluster, sc))
                })
            });
            let Some((edge_id, _)) = candidate else {
                return Ok(());
            };
            let edge = *state.w.ddg.edge(edge_id);
            // A StoreR executes in its producer's cluster; LoadR and Move
            // execute in (write into) the consumer's cluster. `u` itself is
            // unplaced until step 3, so its side reads `cluster`.
            self.insert_and_schedule_chain(
                state,
                |w, out| w.insert_communication_into(u, edge_id, out),
                |s, kind| {
                    let side = if kind == OpKind::StoreR {
                        edge.src
                    } else {
                        edge.dst
                    };
                    s.store.placement(side).map_or(cluster, |(_, c)| c)
                },
                lat,
            )?;
        }
    }

    /// Insert one communication or spill chain with `insert`, grow the
    /// budget by Budget_Ratio per inserted node and schedule the nodes in
    /// dependence order, each on the cluster `target` gives its kind. The
    /// target is read when the node is scheduled: forcing an earlier node
    /// of the chain can unplace a memory-interface endpoint without
    /// removing the chain.
    fn insert_and_schedule_chain(
        &self,
        state: &mut AttemptArena,
        insert: impl FnOnce(&mut WorkGraph, &mut Vec<NodeId>),
        target: impl Fn(&AttemptArena, OpKind) -> u32,
        lat: &OpLatencies,
    ) -> Attempt {
        let mut new_nodes = std::mem::take(&mut state.chain_nodes);
        new_nodes.clear();
        insert(&mut state.w, &mut new_nodes);
        state.store.grow(state.w.ddg.num_nodes());
        state.budget += (self.params.budget_ratio as i64) * new_nodes.len() as i64;
        let mut result = Ok(());
        for &node in &new_nodes {
            let cluster = target(state, state.w.ddg.node(node).kind);
            result = self.schedule_node(state, node, cluster, lat);
            if result.is_err() {
                break;
            }
        }
        state.chain_nodes = new_nodes;
        result
    }

    /// Check register pressure and insert spill code until every bank fits,
    /// or no further spilling is possible (the end-of-attempt capacity check
    /// then has the final word). Fails when the spill-round limit is hit with
    /// a bank still over capacity, or when a spill node cannot be scheduled.
    fn check_and_spill(
        &self,
        state: &mut AttemptArena,
        owner: NodeId,
        lat: &OpLatencies,
        spill_rounds: &mut u32,
        spill_round_limit: u32,
        window: &mut CapacityWindow,
    ) -> Attempt {
        loop {
            // One pressure probe per round: the over-capacity bank and, if
            // any, the spill candidate picked from the same lifetime set.
            state.store.sync_pressure(&mut state.w);
            let batch = self.batch_snapshot(state);
            let probe = self
                .over_capacity_bank(Self::pressure_source(state, &batch), window)
                .map(|bank| {
                    let candidate = match &batch {
                        Some(pr) => pick_spill_candidate_from(&state.w, pr.lifetimes.iter(), bank),
                        None => pick_spill_candidate_from(
                            &state.w,
                            state.store.tracker().live_lifetimes(),
                            bank,
                        ),
                    };
                    (bank, candidate.copied())
                });
            let Some((bank, candidate)) = probe else {
                return Ok(());
            };
            if *spill_rounds >= spill_round_limit {
                // Spill budget exhausted with a bank still over capacity:
                // give up on this II promptly (a larger II usually lowers
                // MaxLive) instead of scheduling the rest of the worklist
                // while over capacity. Later ejections could in principle
                // still pull the bank back under its limit, but pressure
                // this far past the spill budget almost never recovers, and
                // every further placement would pay a pressure + spill
                // check for it. More spill rounds (or a larger II) would
                // lower the pressure gradually: a budget-family failure.
                return Err(Failure::Budget);
            }
            let Some(candidate) = candidate else {
                return Ok(());
            };
            let def = candidate.def;
            let Some(last_consumer) = candidate.last_consumer else {
                return Ok(());
            };
            // Find the active flow edge def -> last_consumer to reroute.
            let Some(edge_id) = state
                .w
                .active_succ_edges(def)
                .find(|(_, e)| e.kind == DepKind::Flow && e.dst == last_consumer)
                .map(|(id, _)| id)
            else {
                return Ok(());
            };
            *spill_rounds += 1;
            let producer = state.store.placement(def).map_or(0, |(_, c)| c);
            let consumer = state
                .store
                .placement(last_consumer)
                .map_or(producer, |(_, c)| c);
            let target = |_: &AttemptArena, kind| match kind {
                OpKind::StoreR | OpKind::Store => producer,
                _ => consumer,
            };
            let insert = if state.w.is_hierarchical() && matches!(bank, BankAssignment::Cluster(_))
            {
                // A spill of a cluster-bank value into the shared bank is the
                // StoreR + LoadR communication chain: the consumer reads a
                // cluster bank, so the chain always ends in a LoadR.
                debug_assert!(!matches!(
                    state.w.ddg.node(last_consumer).kind,
                    OpKind::Store | OpKind::LoadR
                ));
                WorkGraph::insert_communication_into
            } else {
                WorkGraph::insert_spill_to_memory_into
            };
            self.insert_and_schedule_chain(
                state,
                |w, out| insert(w, owner, edge_id, out),
                target,
                lat,
            )?;
        }
    }

    /// Schedule one node on a cluster, forcing a slot and ejecting
    /// conflicting operations when necessary. Fails structurally when no
    /// free slot exists and the scheduler may not force one (backtracking
    /// disabled, or a warm probe), when the conflict is unsatisfiable even
    /// on an empty table, when no victim frees the resource, or when the
    /// ejection guard trips.
    fn schedule_node(
        &self,
        state: &mut AttemptArena,
        u: NodeId,
        cluster: u32,
        lat: &OpLatencies,
    ) -> Attempt {
        if !state.w.is_active(u) {
            // An ejection triggered while scheduling an earlier member of the
            // same communication/spill chain removed the whole chain; placing
            // a deactivated node would leak its MRT reservation for the rest
            // of the attempt (and poison the victim index with a node no
            // eject can ever reach).
            return Ok(());
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
            return Ok(());
        }
        // A warm probe never forces either: ejecting through the densely
        // seeded store costs more than the cold retry it would displace, so
        // the first conflict hands the rung over.
        if !self.params.backtracking || state.warm_probe {
            return Err(Failure::Structural);
        }

        // Structurally unsatisfiable conflict: the class cannot take this
        // operation even on an empty table (a divide longer than the II
        // allows on this cluster's units), so no ejection cascade can ever
        // free the slot — abandon the attempt before paying for one. The
        // cascade would reach the same failure through `pick_victim`
        // running out of candidates; cutting it short only saves the doomed
        // ejections (and their worklist churn), which the attempt discard
        // throws away anyway.
        if !state.store.mrt().placeable_on_empty(kind, lat) {
            state.stats.infeasible_cutoffs += 1;
            return Err(Failure::Structural);
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
                return Err(Failure::Structural);
            }
            let victim = if self.reference {
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
                return Err(Failure::Structural);
            };
            let ejected = state.store.eject(&mut state.w, victim, lat);
            state.stats.ejections += ejected;
            cascade_ejections += ejected;
            if !state.w.is_active(u) {
                // The ejection cascade removed the chain `u` belongs to;
                // there is nothing left to place.
                return Ok(());
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
        // `u` itself shows up through a self-edge; it keeps its forced slot.
        for &v in violators.iter().filter(|&&v| v != u) {
            let ejected = state.store.eject(&mut state.w, v, lat);
            state.stats.ejections += ejected;
            cascade_ejections += ejected;
        }
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
        Ok(())
    }

    /// Build the public result from the ladder's successful attempt. The
    /// `stats` and `window` fields are left default: the ladder in
    /// [`IterativeScheduler::schedule_with_timings`] owns all accumulation
    /// across II restarts and overwrites them.
    ///
    /// A kept [`Kernel`] is copied out of the pool's [`KernelScratch`] into
    /// exact-size arrays, four allocations and about 1 KB per pair on the
    /// paper's loops. As a [`Ddg`] with per-node adjacency lists, which none
    /// of its readers walk, it cost about 2.9 KB and 31 allocations, and the
    /// kept graphs set `fig6_real`'s peak memory.
    ///
    /// MaxLive comes from a batch [`pressure`] walk over the placements
    /// normalised so the earliest operation issues at cycle 0, in both
    /// modes, in freshly allocated buffers. Reading it from the store's
    /// incremental tracker instead (normalising only rotates each bank's
    /// rows, so the maxima agree) kept every result but measured slower end
    /// to end: `explore_sweep` `sweep_s` lost 10 of 10 paired runs against
    /// this walk. Running the walk and the normalised placements in pooled
    /// buffers made the pair allocate only its result, but read slower too:
    /// `fig6_real` `loop_p50_us` +3.5%, slower in 17 of 20 paired runs.
    fn finalize(&self, l: &mut Ladder, mii: u32) -> ScheduleResult {
        let state = l.arena.as_ref().expect("attempt ran");
        let w = &state.w;
        let ii = state.ii;
        let (min_cycle, max_cycle) = w
            .active_nodes()
            .filter_map(|n| state.store.placement(n).map(|(c, _)| c))
            .fold(None, |span, c| match span {
                None => Some((c, c)),
                Some((lo, hi)) => Some((c.min(lo), c.max(hi))),
            })
            .unwrap_or((0, 0));
        let sc = (max_cycle - min_cycle) as u32 / ii + 1;
        let mut shifted: Vec<Option<(i64, u32)>> = vec![None; w.ddg.num_nodes()];
        for n in w.active_nodes() {
            shifted[n.index()] = state.store.placement(n).map(|(c, cl)| (c - min_cycle, cl));
        }
        let pr = pressure(w, &shifted, ii, self.machine.clusters());
        let (loadr, storer, moves, spill_loads, spill_stores) = w.inserted_counts();
        let kernel = self.params.keep_schedule.then(|| {
            // The active subgraph with compacted node ids (every active node
            // is placed), copied into exact-size arrays.
            let KernelScratch {
                kernel_ids,
                nodes,
                edges,
                placements,
            } = &mut l.pool.kernel;
            kernel_ids.clear();
            kernel_ids.resize(w.ddg.num_nodes(), None);
            nodes.clear();
            placements.clear();
            for n in w.active_nodes() {
                kernel_ids[n.index()] = Some(NodeId(nodes.len() as u32));
                nodes.push(w.ddg.node(n).clone());
                let (cycle, cluster) = shifted[n.index()].expect("active node placed");
                placements.push(Placement {
                    cycle: cycle as u32,
                    cluster,
                });
            }
            edges.clear();
            for (id, e) in w.ddg.edges() {
                if !w.edge_is_active(id) {
                    continue;
                }
                if let (Some(src), Some(dst)) =
                    (kernel_ids[e.src.index()], kernel_ids[e.dst.index()])
                {
                    edges.push(Edge { src, dst, ..*e });
                }
            }
            Box::new(Kernel {
                nodes: nodes.as_slice().into(),
                edges: edges.as_slice().into(),
                placements: placements.as_slice().into(),
            })
        });
        ScheduleResult {
            ii,
            mii,
            sc,
            achieved_mii: ii == mii,
            failed: false,
            max_live_cluster: pr.cluster,
            max_live_shared: pr.shared,
            loadr_ops: loadr,
            storer_ops: storer,
            move_ops: moves,
            spill_loads,
            spill_stores,
            memory_ops: w.active_memory_ops(),
            original_memory_ops: w.original_mem_ops() as u32,
            total_ops: w.active_count() as u32,
            original_ops: w.original_nodes() as u32,
            stats: SchedulerStats::default(),
            window: CapacityWindow::default(),
            kernel,
        }
    }
}

/// The buffers [`IterativeScheduler`]'s `finalize` builds a kept [`Kernel`]
/// in before copying it into exact-size arrays, owned by the [`ArenaPool`]
/// so they outlive the pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelScratch {
    /// The kernel id of each working-graph node (`None` for inactive nodes).
    kernel_ids: Vec<Option<NodeId>>,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    placements: Vec<Placement>,
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
    fn divide_loop_starts_its_ladder_at_the_cluster_floor() {
        // x[i] = a[i] / b[i] + c on 8C16S16: ResMII over the 8 FUs is 3, but
        // the 17-cycle divide needs II 17 on a 1-FU cluster.
        let mut b = DdgBuilder::new("div");
        let la = b.load(0, 8);
        let lb = b.load(1, 8);
        let d = b.op(OpKind::FDiv);
        let a = b.op(OpKind::FAdd);
        let s = b.store(2, 8);
        b.flow(la, d, 0).flow(lb, d, 0).flow(d, a, 0).flow(a, s, 0);
        let g = b.build();
        let m = machine("8C16S16");
        let floor = hcrf_ir::cluster_res_mii(&g, &m.latencies, 1);
        assert_eq!(floor, 17);
        let base = mii_mod::res_mii(&g, &m.latencies, m.resource_counts())
            .max(mii_mod::rec_mii(&g, &m.latencies));
        assert!(base < floor);
        let r = schedule_loop(&g, &m, &SchedulerParams::default());
        assert!(!r.failed);
        assert_eq!(r.mii, floor);
        assert_eq!(r.stats.infeasible_cutoffs, 0);
        assert!(r.ii >= floor);
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

    /// A wide fan of long-lived values: twelve loads consumed late by a
    /// chain of adds, which overflows a tiny register file.
    fn pressure_loop() -> Ddg {
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
        b.build()
    }

    #[test]
    fn tiny_register_file_forces_spill_code() {
        let g = pressure_loop();
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

    /// Schedules `loops` on each config in the default and in the
    /// reference mode, asserts the two results are bit-identical, and
    /// returns the default results for the caller's coverage checks.
    fn assert_default_matches_reference(loops: &[Ddg]) -> Vec<ScheduleResult> {
        let mut out = Vec::new();
        for cfg in ["S128", "S16", "4C32", "4C16S64", "8C16S16"] {
            let m = machine(cfg);
            let params = SchedulerParams::default();
            for g in loops {
                let fast = IterativeScheduler::new(m.clone(), params).schedule(g);
                let reference = IterativeScheduler::new(m.clone(), params)
                    .with_reference()
                    .schedule(g);
                assert_eq!(fast, reference, "diverged on {} / {}", g.name, cfg);
                out.push(fast);
            }
        }
        out
    }

    #[test]
    fn batch_oracle_and_incremental_agree() {
        // The incremental tracker must not change a single scheduling
        // decision: results are bit-identical to the reference scheduler's,
        // which decides from the batch pressure snapshot, including on
        // machines that force spilling.
        let results =
            assert_default_matches_reference(&[daxpy(), recurrence_loop(), pressure_loop()]);
        assert!(
            results
                .iter()
                .any(|r| r.spill_loads + r.spill_stores > 0 || r.stats.budget_exhausts > 0),
            "no pair spilled or overflowed its registers, so pressure decided nothing"
        );
    }

    #[test]
    fn indexed_and_linear_victim_search_agree() {
        // The SlotIndex must not change a single scheduling decision either:
        // results are bit-identical to the reference scheduler's linear
        // victim scan.
        let results = assert_default_matches_reference(&[daxpy(), recurrence_loop()]);
        assert!(
            results.iter().any(|r| r.stats.ejections > 0),
            "no pair ejected, so the victim search was never asked"
        );
    }

    #[test]
    fn class_key_erases_capacities_and_the_unread_miss_latency() {
        let key = |cfg: &str, params: SchedulerParams| {
            IterativeScheduler::new(machine(cfg), params).class_key()
        };
        let ideal = SchedulerParams::default();
        assert_eq!(key("4C16S64", ideal), key("4C32S16", ideal));
        assert_eq!(key("S16", ideal), key("S128", ideal));
        // Boundedness, shape and cluster count stay in the key.
        assert_ne!(key("S64", ideal), key("Sinf", ideal));
        assert_ne!(key("4C16S64", ideal), key("4CinfS64", ideal));
        assert_ne!(key("4C16S64", ideal), key("8C16S64", ideal));
        assert_ne!(key("4C16", ideal), key("4C16S16", ideal));
        // The load-miss latency is read only under binding prefetching.
        let mut slow_miss = machine("S64");
        slow_miss.latencies.load_miss += 5;
        let with_miss = |m: MachineConfig, params| IterativeScheduler::new(m, params).class_key();
        assert_eq!(with_miss(slow_miss.clone(), ideal), key("S64", ideal));
        let prefetch = SchedulerParams {
            binding_prefetch: true,
            ..ideal
        };
        assert_ne!(with_miss(slow_miss, prefetch), key("S64", prefetch));
    }

    #[test]
    fn window_covers_the_capacities_of_its_own_run() {
        for cfg in ["S16", "4C16S64", "8C16S16", "4CinfSinf"] {
            let m = machine(cfg);
            for g in [daxpy(), recurrence_loop(), pressure_loop()] {
                let r = schedule_loop(&g, &m, &SchedulerParams::default());
                assert!(r.window.covers(&m), "{} / {cfg}: {:?}", g.name, r.window);
            }
        }
        // The pressure loop overflows 16 registers at some rung, so its
        // window on S16 excludes a larger file it never needed.
        let r = schedule_loop(
            &pressure_loop(),
            &machine("S16"),
            &SchedulerParams::default(),
        );
        assert!(r.window.cluster.max < u32::MAX, "{:?}", r.window);
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
