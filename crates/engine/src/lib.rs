//! Work-stealing execution engine for the HCRF workspace.
//!
//! Every compute surface of the repository — suite sweeps
//! (`hcrf::run_suite`), design-space exploration (`hcrf_explore::explore`)
//! and the bench binaries — funnels its parallelism through this crate
//! instead of rolling its own thread pool. The engine provides four things
//! the flat atomic-counter loops it replaced could not:
//!
//! * **Work stealing across heterogeneous tasks.** Each worker owns a
//!   Chase–Lev-style deque (owner pops the front, thieves batch-steal the
//!   back half; implemented in safe code with short mutex critical
//!   sections). Tasks are *two-level*: callers submit groups (design
//!   points) that decompose into inner tasks (loops), and idle workers
//!   steal loop tasks from a slow point instead of idling behind it.
//!
//! * **A deterministic reduction contract.** Inner results land in
//!   index-ordered slots; the worker finishing a group's last task folds
//!   that index-ordered vector; group results land in group-ordered slots.
//!   Aggregates are therefore **bit-identical for any worker count** —
//!   `tests/engine_equivalence.rs` proves it across 1/2/4/8 workers on
//!   every standard suite × configuration.
//!
//! * **Streaming that survives panics.** Group results are sent to the
//!   *caller's* thread as they complete and handed to the `on_group` hook
//!   there (the explore executor persists them to its result cache). The
//!   channel drains fully before worker panics propagate, so a crash in one
//!   design point can never lose the completed points before it.
//!
//! * **Per-task isolation and retry.** Under the opt-in
//!   [`FailurePolicy::Isolate`], a panicking task is caught
//!   (`catch_unwind`), its worker state rebuilt, and the task retried up to
//!   a bounded number of times; a task that keeps panicking is
//!   *quarantined* — its group folds to `None` and the failure lands in
//!   [`EngineRun::quarantined`] — instead of poisoning the whole run.
//!   Retry decisions are keyed on the task alone (never on worker
//!   history), so results stay bit-identical for any worker count. The
//!   deterministic [`FaultPlan`] drives fault-injection drills through the
//!   same seams.
//!
//! Workers also own caller-defined per-worker state (created by an `init`
//! hook) — the schedulers park a pooled `AttemptArena` there so consecutive
//! loops rebind one allocation instead of rebuilding per loop. The states
//! are returned to the caller, which harvests pool counters into the
//! `engine.arena_rebinds` telemetry counter.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hcrf_telemetry::{Telemetry, TraceBuf};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Default cap on auto-resolved workers (`threads == 0`). Sweeps are
/// memory-bandwidth-bound well before 16 schedulers run concurrently, and
/// an uncapped resolution on a large shared host oversubscribes it for no
/// wall-time gain. Explicit `threads` requests are never capped.
pub const DEFAULT_WORKER_CAP: usize = 16;

/// Resolve a requested thread count to a concrete worker count: `0` means
/// one worker per available CPU, capped at [`DEFAULT_WORKER_CAP`]; any
/// explicit request is honored verbatim. This is the single home of the
/// resolution logic that used to be copy-pasted across the driver and the
/// explore executor.
pub fn resolve_workers(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(DEFAULT_WORKER_CAP)
}

/// Identity of one inner task as the engine hands it to the work function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCtx {
    /// Worker executing the task (`0..workers`). Useful as a trace label;
    /// never use it to influence *results* — which worker runs a task is
    /// scheduling-dependent.
    pub worker: usize,
    /// Group the task belongs to.
    pub group: usize,
    /// Index of the task within its group.
    pub index: usize,
}

/// How the engine responds to a panicking task.
///
/// The retry/quarantine bookkeeping never reaches the task *results*:
/// retries are keyed on the task identity alone (a task that panics on its
/// first attempt panics on its first attempt on every worker count), so an
/// isolated run's completed groups are bit-identical to a fail-fast run's.
/// Counters (`engine.task_retries`, `engine.task_quarantined`) go to
/// telemetry, per the standing thread-count-invisibility invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Propagate the first task panic to the caller (after the completed
    /// groups have streamed to `on_group`). The default, and the historical
    /// behavior.
    #[default]
    FailFast,
    /// Catch a task panic, rebuild the worker's pooled state (a panic can
    /// leave it mid-mutation), and retry the task up to `retries` more
    /// times. A task that exhausts its retries is quarantined: its group's
    /// result is `None` and the failure is reported in
    /// [`EngineRun::quarantined`] instead of poisoning the run.
    Isolate {
        /// Retries after the first failed attempt (total attempts =
        /// `retries + 1`).
        retries: u32,
    },
}

/// One task that exhausted its retries under [`FailurePolicy::Isolate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Group the task belonged to.
    pub group: usize,
    /// Index of the task within its group.
    pub index: usize,
    /// Attempts made (always `retries + 1`).
    pub attempts: u32,
    /// The panic message of the final attempt.
    pub message: String,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A deterministic fault-injection plan for chaos drills and the
/// fault-tolerance test suite.
///
/// Every decision is a pure function of the plan's `seed` and the *identity*
/// of the thing being faulted — a task's `(group, index)` or a store
/// record's key digest — never of time, worker ids or call order. The same
/// plan therefore injects the same faults at 1, 2, 4 or 8 workers, which is
/// what lets `tests/fault_injection.rs` assert bit-identical degraded
/// results across thread counts. Rates are per-mille (`100` = 10%).
///
/// Task panics are split into two classes so one plan exercises both
/// recovery paths: *transient* faults panic only on a task's first attempt
/// (a retry succeeds), *permanent* faults panic on every attempt (the task
/// is quarantined once its retries are exhausted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Per-mille rate of tasks that panic on their first attempt only.
    pub transient_task_panics_per_mille: u32,
    /// Per-mille rate of tasks that panic on every attempt.
    pub permanent_task_panics_per_mille: u32,
    /// Per-mille rate of store appends cut short mid-record (simulated
    /// `kill -9` during a write); honored by the explore result store.
    pub truncated_writes_per_mille: u32,
    /// Per-mille rate of store records corrupted in place after their
    /// checksum is computed (simulated bit rot); honored by the explore
    /// result store.
    pub corrupt_records_per_mille: u32,
}

impl FaultPlan {
    fn decide(&self, domain: u8, a: u64, b: u64, per_mille: u32) -> bool {
        if per_mille == 0 {
            return false;
        }
        let mut h = fnv_bytes(FNV_OFFSET, &self.seed.to_le_bytes());
        h = fnv_bytes(h, &[domain]);
        h = fnv_bytes(h, &a.to_le_bytes());
        h = fnv_bytes(h, &b.to_le_bytes());
        h % 1000 < per_mille as u64
    }

    /// Whether attempt `attempt` of task `(group, index)` should panic.
    pub fn panics_task(&self, group: u64, index: u64, attempt: u32) -> bool {
        if self.decide(0, group, index, self.permanent_task_panics_per_mille) {
            return true;
        }
        attempt == 0 && self.decide(1, group, index, self.transient_task_panics_per_mille)
    }

    /// Whether the append of the record addressed by `digest` should be
    /// truncated mid-write.
    pub fn truncates_write(&self, digest: u64) -> bool {
        self.decide(2, digest, 0, self.truncated_writes_per_mille)
    }

    /// Whether the record addressed by `digest` should be corrupted in
    /// place after its checksum is computed.
    pub fn corrupts_record(&self, digest: u64) -> bool {
        self.decide(3, digest, 0, self.corrupt_records_per_mille)
    }
}

/// Execution counters of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Workers the run executed on.
    pub workers: usize,
    /// Inner tasks executed (counted once per task, not per retry attempt).
    pub tasks: u64,
    /// Successful batch steals (a thief moving the back half of another
    /// worker's deque into its own).
    pub steals: u64,
}

/// Everything one engine run produced.
#[derive(Debug)]
pub struct EngineRun<R, S> {
    /// Per-group results, in group order (deterministic for any worker
    /// count). `None` marks a group quarantined under
    /// [`FailurePolicy::Isolate`]; under [`FailurePolicy::FailFast`] every
    /// entry is `Some` (a panic would have propagated instead).
    pub results: Vec<Option<R>>,
    /// Tasks that exhausted their retries, sorted by `(group, index)` —
    /// deterministic for any worker count. Empty under
    /// [`FailurePolicy::FailFast`].
    pub quarantined: Vec<TaskFailure>,
    /// The per-worker states, in worker order.
    pub states: Vec<S>,
    /// Execution counters.
    pub report: EngineReport,
}

impl<R, S> EngineRun<R, S> {
    /// Unwrap a run that must have completed every group — the contract of
    /// every fail-fast call site (a task panic there propagates instead of
    /// quarantining). Panics with the failure manifest if any task was
    /// quarantined.
    pub fn expect_complete(self) -> (Vec<R>, Vec<S>, EngineReport) {
        if !self.quarantined.is_empty() {
            panic!(
                "engine run quarantined {} task(s): {:?}",
                self.quarantined.len(),
                self.quarantined
            );
        }
        (
            self.results
                .into_iter()
                .map(|r| r.expect("every group must have folded"))
                .collect(),
            self.states,
            self.report,
        )
    }
}

/// The execution engine: a worker count, a failure policy and a telemetry
/// sink. Construct once per run site; the engine itself holds no threads
/// (workers live only for the duration of one `run_two_level` call).
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    failure: FailurePolicy,
    fault_plan: Option<FaultPlan>,
    telemetry: Telemetry,
}

/// Sets the poison flag when dropped during a panic, so sibling workers
/// stop spinning for tasks that will never complete and the scope can join
/// (propagating the panic) instead of hanging.
struct PoisonGuard<'a>(&'a AtomicBool);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Engine {
    /// An engine with `threads` workers (`0` = auto, see
    /// [`resolve_workers`]), the fail-fast policy and no telemetry.
    pub fn new(threads: usize) -> Self {
        Engine {
            workers: resolve_workers(threads),
            failure: FailurePolicy::default(),
            fault_plan: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry sink: the run publishes `engine.tasks` /
    /// `engine.steals` / `engine.runs` counters (plus
    /// `engine.task_retries` / `engine.task_quarantined` under
    /// [`FailurePolicy::Isolate`]) and records one labeled `worker` span per
    /// worker.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Select how task panics are handled (default
    /// [`FailurePolicy::FailFast`]).
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure = policy;
        self
    }

    /// Inject deterministic task panics according to `plan` (store-level
    /// faults in the same plan are honored by the explore result store, not
    /// here). Test/drill seam; without a plan no injection code runs.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute one task under the failure policy: fail-fast calls straight
    /// through (any panic, injected or real, propagates); isolate catches,
    /// rebuilds the worker state (the panic may have left pooled arenas
    /// mid-mutation) and retries until the task succeeds or exhausts its
    /// attempts.
    fn execute_task<S, T>(
        &self,
        state: &mut S,
        trace: &mut TraceBuf,
        ctx: TaskCtx,
        init: impl Fn(usize) -> S,
        inner: impl Fn(&mut S, TaskCtx) -> T,
    ) -> Result<T, TaskFailure> {
        let inject = |attempt: u32| {
            if let Some(plan) = &self.fault_plan {
                if plan.panics_task(ctx.group as u64, ctx.index as u64, attempt) {
                    panic!(
                        "injected fault: task {}:{} attempt {attempt}",
                        ctx.group, ctx.index
                    );
                }
            }
        };
        let FailurePolicy::Isolate { retries } = self.failure else {
            inject(0);
            return Ok(inner(state, ctx));
        };
        let mut attempt = 0u32;
        loop {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                inject(attempt);
                inner(state, ctx)
            }));
            match caught {
                Ok(value) => return Ok(value),
                Err(payload) => {
                    *state = init(ctx.worker);
                    trace.instant(
                        "task_panic",
                        "engine",
                        &[
                            ("group", ctx.group as i64),
                            ("index", ctx.index as i64),
                            ("attempt", attempt as i64),
                        ],
                    );
                    if attempt < retries {
                        attempt += 1;
                        self.telemetry.counter_add("engine.task_retries", 1);
                    } else {
                        self.telemetry.counter_add("engine.task_quarantined", 1);
                        trace.instant(
                            "task_quarantined",
                            "engine",
                            &[("group", ctx.group as i64), ("index", ctx.index as i64)],
                        );
                        return Err(TaskFailure {
                            group: ctx.group,
                            index: ctx.index,
                            attempts: attempt + 1,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
        }
    }

    /// Run a two-level task set: `group_sizes[g]` inner tasks per group
    /// `g`, each executed by `inner` with a per-worker state from `init`,
    /// folded per group by `fold` over the index-ordered inner results, and
    /// streamed to `on_group` on the caller's thread in completion order.
    ///
    /// The determinism contract: `results` holds `fold`'s output in group
    /// order, each fold sees its group's inner results in index order, and
    /// neither depends on the worker count — only `on_group`'s *call order*
    /// (and which worker ran which task) varies between runs.
    ///
    /// The task stream (groups in order, each group's inner tasks
    /// contiguous and in index order) is seeded across the worker deques in
    /// balanced contiguous shares *by task count*, so every worker starts
    /// with work even when a few large groups dominate — seeding whole
    /// groups round-robin used to leave `workers - groups` deques empty
    /// behind steal chains. Stealing (which moves the back half of a deque)
    /// still redistributes a slow share's tail across idle workers.
    ///
    /// If a task panics under the default fail-fast policy, completed
    /// groups still stream to `on_group`, then the panic resumes on the
    /// caller's thread. Under [`FailurePolicy::Isolate`] the task is
    /// retried and, if it keeps panicking, quarantined: every other task of
    /// its group still runs (retry bookkeeping is per-task, so counters and
    /// sibling results stay thread-count-invariant), but the group's fold
    /// is skipped, `on_group` never fires for it, and its result is `None`.
    pub fn run_two_level<S, T, R>(
        &self,
        group_sizes: &[usize],
        init: impl Fn(usize) -> S + Sync,
        inner: impl Fn(&mut S, TaskCtx) -> T + Sync,
        fold: impl Fn(usize, Vec<T>) -> R + Sync,
        mut on_group: impl FnMut(usize, &R),
    ) -> EngineRun<R, S>
    where
        S: Send,
        T: Send,
        R: Send,
    {
        let total_tasks: usize = group_sizes.iter().sum();
        let workers = self.workers.min(total_tasks).max(1);
        let mut results: Vec<Option<R>> = group_sizes.iter().map(|_| None).collect();

        // Empty groups fold immediately (in group order) on this thread:
        // they have no tasks to schedule and must not hold up the drain.
        for (g, &size) in group_sizes.iter().enumerate() {
            if size == 0 {
                let r = fold(g, Vec::new());
                on_group(g, &r);
                results[g] = Some(r);
            }
        }

        let run = if workers <= 1 {
            self.run_inline(group_sizes, &mut results, init, inner, fold, &mut on_group)
        } else {
            self.run_stealing(
                workers,
                group_sizes,
                &mut results,
                init,
                inner,
                fold,
                &mut on_group,
            )
        };
        let (states, report, mut quarantined) = run;
        quarantined.sort_by_key(|f| (f.group, f.index));
        if quarantined.is_empty() {
            debug_assert!(results.iter().all(|r| r.is_some()));
        }

        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("engine.runs", 1);
            self.telemetry.counter_add("engine.tasks", report.tasks);
            self.telemetry.counter_add("engine.steals", report.steals);
        }
        EngineRun {
            results,
            quarantined,
            states,
            report,
        }
    }

    /// The `workers <= 1` path: everything runs on the caller's thread, in
    /// group and index order (tests pin the streaming hook's inline
    /// ordering to exactly this sequence). Every task of a quarantined
    /// group still runs, exactly as on the stealing path, so retry
    /// counters and sibling failures are thread-count-invariant.
    #[allow(clippy::too_many_arguments)]
    fn run_inline<S, T, R>(
        &self,
        group_sizes: &[usize],
        results: &mut [Option<R>],
        init: impl Fn(usize) -> S,
        inner: impl Fn(&mut S, TaskCtx) -> T,
        fold: impl Fn(usize, Vec<T>) -> R,
        on_group: &mut impl FnMut(usize, &R),
    ) -> (Vec<S>, EngineReport, Vec<TaskFailure>) {
        let mut state = init(0);
        let mut trace = self.telemetry.trace_buf();
        let mut tasks = 0u64;
        let mut quarantined = Vec::new();
        for (g, &size) in group_sizes.iter().enumerate() {
            if size == 0 {
                continue; // already folded
            }
            let mut inners: Vec<Option<T>> = Vec::with_capacity(size);
            let mut failed = false;
            for index in 0..size {
                tasks += 1;
                let ctx = TaskCtx {
                    worker: 0,
                    group: g,
                    index,
                };
                match self.execute_task(&mut state, &mut trace, ctx, &init, &inner) {
                    Ok(value) => inners.push(Some(value)),
                    Err(failure) => {
                        failed = true;
                        quarantined.push(failure);
                        inners.push(None);
                    }
                }
            }
            if !failed {
                let r = fold(
                    g,
                    inners
                        .into_iter()
                        .map(|v| v.expect("group complete"))
                        .collect(),
                );
                on_group(g, &r);
                results[g] = Some(r);
            }
        }
        self.telemetry.flush(&mut trace);
        (
            vec![state],
            EngineReport {
                workers: 1,
                tasks,
                steals: 0,
            },
            quarantined,
        )
    }

    /// The work-stealing path. See the crate docs for the worker model.
    #[allow(clippy::too_many_arguments)]
    fn run_stealing<S, T, R>(
        &self,
        workers: usize,
        group_sizes: &[usize],
        results: &mut [Option<R>],
        init: impl Fn(usize) -> S + Sync,
        inner: impl Fn(&mut S, TaskCtx) -> T + Sync,
        fold: impl Fn(usize, Vec<T>) -> R + Sync,
        on_group: &mut impl FnMut(usize, &R),
    ) -> (Vec<S>, EngineReport, Vec<TaskFailure>)
    where
        S: Send,
        T: Send,
        R: Send,
    {
        // Seed the deques: the task stream (groups in order, inner tasks in
        // index order) splits into balanced contiguous shares by *task*
        // count — `workers <= total` (the caller clamps), so every worker
        // starts with at least one task no matter how few groups there are.
        let total: usize = group_sizes.iter().sum();
        let mut seeded: Vec<VecDeque<(u32, u32)>> = (0..workers).map(|_| VecDeque::new()).collect();
        let mut t = 0usize;
        for (g, &size) in group_sizes.iter().enumerate() {
            for index in 0..size {
                seeded[t * workers / total].push_back((g as u32, index as u32));
                t += 1;
            }
        }
        let deques: Vec<Mutex<VecDeque<(u32, u32)>>> = seeded.into_iter().map(Mutex::new).collect();

        // Per-group reduction state: index-ordered slots + a countdown the
        // last finisher trips to fold and send. A quarantined task marks
        // its group failed; the last finisher of a failed group discards
        // the partial slots instead of folding.
        let slots: Vec<Mutex<Vec<Option<T>>>> = group_sizes
            .iter()
            .map(|&size| Mutex::new((0..size).map(|_| None).collect()))
            .collect();
        let group_left: Vec<AtomicUsize> =
            group_sizes.iter().map(|&s| AtomicUsize::new(s)).collect();
        let group_failed: Vec<AtomicBool> =
            group_sizes.iter().map(|_| AtomicBool::new(false)).collect();
        let failures: Mutex<Vec<TaskFailure>> = Mutex::new(Vec::new());
        let remaining = AtomicUsize::new(group_sizes.iter().sum());
        let poisoned = AtomicBool::new(false);
        let steals = AtomicU64::new(0);
        let tasks_run = AtomicU64::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();

        let mut states: Vec<Option<S>> = (0..workers).map(|_| None).collect();
        let mut panic_payload = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let tx = tx.clone();
                    let deques = &deques;
                    let slots = &slots;
                    let group_left = &group_left;
                    let group_failed = &group_failed;
                    let failures = &failures;
                    let remaining = &remaining;
                    let poisoned = &poisoned;
                    let steals = &steals;
                    let tasks_run = &tasks_run;
                    let init = &init;
                    let inner = &inner;
                    let fold = &fold;
                    let engine = &*self;
                    let telemetry = self.telemetry.clone();
                    scope.spawn(move || {
                        let _guard = PoisonGuard(poisoned);
                        let mut trace = telemetry.trace_buf();
                        let t0 = trace.now_ns();
                        let mut state = init(me);
                        let mut my_tasks = 0u64;
                        let mut my_steals = 0u64;
                        'work: loop {
                            // Drain own deque from the front.
                            let task = deques[me].lock().expect("deque poisoned").pop_front();
                            let (g, index) = match task {
                                Some(t) => t,
                                None => {
                                    // Steal the back half of the first
                                    // non-empty sibling deque.
                                    let mut stolen = false;
                                    for k in 1..workers {
                                        let victim = (me + k) % workers;
                                        let mut q = deques[victim].lock().expect("deque poisoned");
                                        let n = q.len();
                                        if n == 0 {
                                            continue;
                                        }
                                        // Back half, rounded up (n == 1
                                        // takes the lone task).
                                        let batch = q.split_off(n / 2);
                                        drop(q);
                                        if !batch.is_empty() {
                                            *deques[me].lock().expect("deque poisoned") = batch;
                                            my_steals += 1;
                                            stolen = true;
                                            break;
                                        }
                                    }
                                    if stolen {
                                        continue 'work;
                                    }
                                    if remaining.load(Ordering::SeqCst) == 0
                                        || poisoned.load(Ordering::SeqCst)
                                    {
                                        break 'work;
                                    }
                                    // Tasks are in flight on other workers;
                                    // re-scan after yielding.
                                    std::thread::yield_now();
                                    continue 'work;
                                }
                            };
                            let (g, index) = (g as usize, index as usize);
                            let ctx = TaskCtx {
                                worker: me,
                                group: g,
                                index,
                            };
                            let outcome =
                                engine.execute_task(&mut state, &mut trace, ctx, init, inner);
                            my_tasks += 1;
                            match outcome {
                                Ok(value) => {
                                    slots[g].lock().expect("slots poisoned")[index] = Some(value);
                                }
                                Err(failure) => {
                                    group_failed[g].store(true, Ordering::SeqCst);
                                    failures.lock().expect("failures poisoned").push(failure);
                                }
                            }
                            if group_left[g].fetch_sub(1, Ordering::SeqCst) == 1 {
                                if group_failed[g].load(Ordering::SeqCst) {
                                    // Quarantined group: discard the partial
                                    // slots; the caller sees `None` plus the
                                    // failure manifest.
                                    slots[g]
                                        .lock()
                                        .expect("slots poisoned")
                                        .iter_mut()
                                        .for_each(|s| *s = None);
                                } else {
                                    // Last task of the group: fold the
                                    // index-ordered slots and stream the
                                    // result.
                                    let inners: Vec<T> = slots[g]
                                        .lock()
                                        .expect("slots poisoned")
                                        .iter_mut()
                                        .map(|s| s.take().expect("group complete"))
                                        .collect();
                                    let r = fold(g, inners);
                                    let _ = tx.send((g, r));
                                }
                            }
                            remaining.fetch_sub(1, Ordering::SeqCst);
                        }
                        steals.fetch_add(my_steals, Ordering::Relaxed);
                        tasks_run.fetch_add(my_tasks, Ordering::Relaxed);
                        trace.span_labeled(
                            "worker",
                            "engine",
                            t0,
                            Some(&format!("w{me}")),
                            &[("tasks", my_tasks as i64), ("steals", my_steals as i64)],
                        );
                        telemetry.flush(&mut trace);
                        state
                    })
                })
                .collect();
            drop(tx);

            // Drain on the caller's thread until every sender is gone. A
            // worker panic drops its sender mid-run, so this loop always
            // terminates — after delivering every group that *did* complete
            // (the flush-before-panic guarantee `on_group` relies on).
            for (g, r) in rx {
                on_group(g, &r);
                results[g] = Some(r);
            }
            for (me, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(state) => states[me] = Some(state),
                    Err(payload) => panic_payload = Some(payload),
                }
            }
        });
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        (
            states
                .into_iter()
                .map(|s| s.expect("worker joined"))
                .collect(),
            EngineReport {
                workers,
                tasks: tasks_run.load(Ordering::Relaxed),
                steals: steals.load(Ordering::Relaxed),
            },
            failures.into_inner().expect("failures poisoned"),
        )
    }

    /// Flat map over `0..count` (size-1 groups): `f(state, index)` lands in
    /// index-ordered results. The degenerate two-level run every
    /// single-level caller (the suite driver, `bench_sched`) uses.
    pub fn map_indexed<S, T>(
        &self,
        count: usize,
        init: impl Fn(usize) -> S + Sync,
        f: impl Fn(&mut S, TaskCtx) -> T + Sync,
    ) -> EngineRun<T, S>
    where
        S: Send,
        T: Send,
    {
        self.map_indexed_each(count, init, f, |_, _| {})
    }

    /// [`Engine::map_indexed`] with a streaming hook invoked on the
    /// caller's thread as each result completes (completion order; index
    /// order on the inline path).
    pub fn map_indexed_each<S, T>(
        &self,
        count: usize,
        init: impl Fn(usize) -> S + Sync,
        f: impl Fn(&mut S, TaskCtx) -> T + Sync,
        on_result: impl FnMut(usize, &T),
    ) -> EngineRun<T, S>
    where
        S: Send,
        T: Send,
    {
        let sizes = vec![1usize; count];
        self.run_two_level(
            &sizes,
            init,
            f,
            |_, mut inners: Vec<T>| inners.pop().expect("size-1 group"),
            on_result,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn resolve_workers_honors_explicit_and_caps_auto() {
        assert_eq!(resolve_workers(3), 3);
        assert_eq!(resolve_workers(64), 64); // explicit requests uncapped
        let auto = resolve_workers(0);
        assert!((1..=DEFAULT_WORKER_CAP).contains(&auto));
    }

    #[test]
    fn inline_path_runs_in_index_order() {
        let engine = Engine::new(1);
        let mut seen = Vec::new();
        let run = engine.map_indexed_each(
            5,
            |w| w,
            |state, ctx| {
                assert_eq!(*state, 0);
                assert_eq!(ctx.worker, 0);
                ctx.group * 10
            },
            |i, r| seen.push((i, *r)),
        );
        // The inline hook fires in exact index order.
        assert_eq!(seen, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
        let (results, states, report) = run.expect_complete();
        assert_eq!(results, vec![0, 10, 20, 30, 40]);
        assert_eq!(states.len(), 1);
        assert_eq!(report.tasks, 5);
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn parallel_results_are_index_ordered_and_complete() {
        let engine = Engine::new(4);
        let mut seen = Vec::new();
        let run = engine.map_indexed_each(
            32,
            |w| w,
            |_, ctx| {
                // Uneven task costs exercise out-of-order completion.
                if ctx.group % 7 == 0 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                ctx.group as u64 * 2
            },
            |i, r| seen.push((i, *r)),
        );
        let (results, mut states, report) = run.expect_complete();
        assert_eq!(results, (0..32).map(|i| i * 2).collect::<Vec<u64>>());
        // The hook saw every result exactly once (in whatever order)...
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..32usize).map(|i| (i, i as u64 * 2)).collect::<Vec<_>>()
        );
        // ...and every worker state came back.
        states.sort_unstable();
        assert_eq!(states, vec![0, 1, 2, 3]);
        assert_eq!(report.tasks, 32);
    }

    #[test]
    fn two_level_folds_index_ordered_groups_identically_for_any_worker_count() {
        let sizes = [3usize, 0, 5, 1, 4];
        let run_with = |workers: usize| {
            Engine::new(workers)
                .run_two_level(
                    &sizes,
                    |_| (),
                    |_, ctx| format!("{}:{}", ctx.group, ctx.index),
                    |g, inners| (g, inners.join(",")),
                    |_, _| {},
                )
                .expect_complete()
        };
        let (one, _, _) = run_with(1);
        for workers in [2, 4, 8] {
            let (many, _, report) = run_with(workers);
            assert_eq!(one, many, "workers={workers}");
            assert_eq!(report.tasks, 13);
        }
        assert_eq!(one[2], (2, "2:0,2:1,2:2,2:3,2:4".to_string()));
        assert_eq!(one[1], (1, String::new()));
    }

    #[test]
    fn idle_workers_steal_from_loaded_deques() {
        // Worker 0's seeded share (tasks 0..4) is slow and everything else
        // is instant: the other workers drain their own shares long before
        // the slow share finishes and must steal its tail to participate.
        let engine = Engine::new(4);
        let run = engine.run_two_level(
            &[16usize],
            |w| w,
            |_, ctx| {
                if ctx.index < 4 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                ctx.index
            },
            |_, inners| inners,
            |_, _| {},
        );
        assert_eq!(
            run.results[0].as_ref().unwrap(),
            &(0..16).collect::<Vec<usize>>()
        );
        assert!(
            run.report.steals > 0,
            "expected at least one steal, report: {:?}",
            run.report
        );
    }

    #[test]
    fn task_balanced_seeding_gives_every_worker_work() {
        // Two groups of 16 tasks on 8 workers: seeding whole groups
        // round-robin would fill only two deques and leave six workers
        // queueing behind steal chains; the task-balanced shares seed all
        // eight deques with four tasks each. Every task holds until every
        // worker has reported in — a worker cannot go idle (and so cannot
        // steal) before its first pop, which comes from its own deque, so
        // the all-workers-participate assertion is deterministic.
        let seen: Vec<AtomicBool> = (0..8).map(|_| AtomicBool::new(false)).collect();
        let run = Engine::new(8).run_two_level(
            &[16usize, 16],
            |w| w,
            |_, ctx| {
                seen[ctx.worker].store(true, Ordering::SeqCst);
                // Bounded wait so a scheduling pathology fails the test
                // instead of hanging it.
                for _ in 0..5000 {
                    if seen.iter().all(|b| b.load(Ordering::SeqCst)) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                (ctx.group, ctx.index)
            },
            |g, inners| (g, inners),
            |_, _| {},
        );
        assert!(
            seen.iter().all(|b| b.load(Ordering::SeqCst)),
            "a worker never saw a task, report: {:?}",
            run.report
        );
        let (results, _, _) = run.expect_complete();
        for (g, (group, inners)) in results.iter().enumerate() {
            assert_eq!(*group, g);
            assert_eq!(inners, &(0..16).map(|i| (g, i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn completed_groups_stream_before_a_panic_propagates() {
        // Two single-task groups on two workers. Group 1's task blocks
        // until the caller-side hook has delivered group 0, then panics:
        // the hook *must* have fired for group 0 even though the run dies.
        let g0_flushed = AtomicBool::new(false);
        let flushed = Mutex::new(Vec::new());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Engine::new(2).run_two_level(
                &[1usize, 1],
                |_| (),
                |_, ctx| {
                    if ctx.group == 1 {
                        // Bounded wait so a broken streaming path fails the
                        // test instead of hanging it.
                        for _ in 0..5000 {
                            if g0_flushed.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        panic!("design point exploded");
                    }
                    ctx.group
                },
                |g, _| g,
                |g, _| {
                    flushed.lock().unwrap().push(g);
                    if g == 0 {
                        g0_flushed.store(true, Ordering::SeqCst);
                    }
                },
            );
        }));
        let err = caught.expect_err("the task panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "design point exploded");
        assert_eq!(*flushed.lock().unwrap(), vec![0], "group 0 streamed first");
    }

    #[test]
    fn inline_panic_propagates_too() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Engine::new(1).map_indexed(
                2,
                |_| (),
                |_, ctx| {
                    if ctx.group == 1 {
                        panic!("inline boom");
                    }
                },
            );
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn empty_run_returns_no_results() {
        let run = Engine::new(4).map_indexed(0, |w| w, |_, ctx| ctx.group);
        assert!(run.results.is_empty());
        assert_eq!(run.report.tasks, 0);
        assert_eq!(run.states.len(), 1);
        assert!(run.quarantined.is_empty());
    }

    #[test]
    fn telemetry_counters_record_tasks() {
        let telemetry = Telemetry::enabled();
        let engine = Engine::new(2).with_telemetry(telemetry.clone());
        engine.map_indexed(6, |_| (), |_, ctx| ctx.group);
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("engine.tasks"), Some(6));
        assert_eq!(snap.counter("engine.runs"), Some(1));
    }

    // --- failure policy & fault injection ---------------------------------

    /// Tasks with a transient fault succeed on retry; the run completes
    /// with no quarantine and the retry counter matches the faulted tasks.
    #[test]
    fn isolate_retries_transient_panics_to_success() {
        for workers in [1usize, 4] {
            let telemetry = Telemetry::enabled();
            let plan = FaultPlan {
                seed: 7,
                transient_task_panics_per_mille: 1000, // every task, attempt 0 only
                ..Default::default()
            };
            let run = Engine::new(workers)
                .with_telemetry(telemetry.clone())
                .with_failure_policy(FailurePolicy::Isolate { retries: 1 })
                .with_fault_plan(plan)
                .map_indexed(6, |_| (), |_, ctx| ctx.group * 3);
            let (results, _, report) = run.expect_complete();
            assert_eq!(results, (0..6).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(report.tasks, 6);
            let snap = telemetry.metrics_snapshot();
            assert_eq!(snap.counter("engine.task_retries"), Some(6));
            assert_eq!(snap.counter("engine.task_quarantined"), None);
        }
    }

    /// A permanently panicking task exhausts its retries and quarantines
    /// its group; sibling groups complete; the manifest is deterministic
    /// across worker counts.
    #[test]
    fn isolate_quarantines_permanent_panics_deterministically() {
        let run_at = |workers: usize| {
            let telemetry = Telemetry::enabled();
            let run = Engine::new(workers)
                .with_telemetry(telemetry.clone())
                .with_failure_policy(FailurePolicy::Isolate { retries: 2 })
                .run_two_level(
                    &[2usize, 2, 2],
                    |_| (),
                    |_, ctx| {
                        if ctx.group == 1 && ctx.index == 1 {
                            panic!("permanent fault");
                        }
                        (ctx.group, ctx.index)
                    },
                    |g, inners| (g, inners),
                    |_, _| {},
                );
            let retries = telemetry
                .metrics_snapshot()
                .counter("engine.task_retries")
                .unwrap_or(0);
            let quarantined = telemetry
                .metrics_snapshot()
                .counter("engine.task_quarantined")
                .unwrap_or(0);
            (run, retries, quarantined)
        };
        let (baseline, base_retries, base_quarantined) = run_at(1);
        assert_eq!(baseline.quarantined.len(), 1);
        let failure = &baseline.quarantined[0];
        assert_eq!((failure.group, failure.index), (1, 1));
        assert_eq!(failure.attempts, 3); // 1 + 2 retries
        assert_eq!(failure.message, "permanent fault");
        assert!(baseline.results[0].is_some());
        assert!(baseline.results[1].is_none(), "failed group must be None");
        assert!(baseline.results[2].is_some());
        assert_eq!(base_retries, 2);
        assert_eq!(base_quarantined, 1);
        for workers in [2, 4] {
            let (run, retries, quarantined) = run_at(workers);
            assert_eq!(run.quarantined, baseline.quarantined, "workers={workers}");
            assert_eq!(retries, base_retries, "workers={workers}");
            assert_eq!(quarantined, base_quarantined, "workers={workers}");
            for (a, b) in baseline.results.iter().zip(run.results.iter()) {
                assert_eq!(a.is_some(), b.is_some());
            }
        }
    }

    /// `on_group` fires only for completed groups, and the cache-persist
    /// path therefore never sees a quarantined group's partial fold.
    #[test]
    fn on_group_skips_quarantined_groups() {
        let mut streamed = Vec::new();
        let run = Engine::new(2)
            .with_failure_policy(FailurePolicy::Isolate { retries: 0 })
            .run_two_level(
                &[1usize, 1, 1],
                |_| (),
                |_, ctx| {
                    if ctx.group == 1 {
                        panic!("boom");
                    }
                    ctx.group
                },
                |g, _| g,
                |g, _| streamed.push(g),
            );
        streamed.sort_unstable();
        assert_eq!(streamed, vec![0, 2]);
        assert_eq!(run.quarantined.len(), 1);
    }

    /// Under isolate, a caught panic rebuilds the worker's pooled state
    /// before the retry — a half-mutated pool never leaks into another
    /// task.
    #[test]
    fn isolate_rebuilds_worker_state_after_a_panic() {
        // State is a counter of tasks run since (re)build; the task panics
        // once when the state is "dirty" from a previous increment, which
        // only terminates if the rebuild actually resets it.
        let builds = AtomicU64::new(0);
        let run = Engine::new(1)
            .with_failure_policy(FailurePolicy::Isolate { retries: 1 })
            .map_indexed(
                3,
                |_| {
                    builds.fetch_add(1, Ordering::SeqCst);
                    0u64
                },
                |state, ctx| {
                    *state += 1;
                    if ctx.group == 1 && *state > 1 {
                        panic!("dirty state");
                    }
                    *state
                },
            );
        let (results, _, _) = run.expect_complete();
        // Task 0 ran on the fresh state (1); task 1 panicked on the dirty
        // state, got a rebuilt one and returned 1; task 2 saw 2.
        assert_eq!(results, vec![1, 1, 2]);
        assert!(builds.load(Ordering::SeqCst) >= 2, "state never rebuilt");
    }

    /// Fail-fast with an injected fault behaves exactly like a real panic:
    /// it propagates.
    #[test]
    fn fail_fast_propagates_injected_faults() {
        let plan = FaultPlan {
            seed: 1,
            permanent_task_panics_per_mille: 1000,
            ..Default::default()
        };
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Engine::new(1)
                .with_fault_plan(plan)
                .map_indexed(2, |_| (), |_, ctx| ctx.group);
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn fault_plan_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan {
            seed: 0xFA17,
            transient_task_panics_per_mille: 100,
            permanent_task_panics_per_mille: 50,
            truncated_writes_per_mille: 100,
            corrupt_records_per_mille: 0,
        };
        // Pure function of identity: same inputs, same answer.
        for g in 0..50u64 {
            for i in 0..4u64 {
                assert_eq!(plan.panics_task(g, i, 0), plan.panics_task(g, i, 0));
                assert_eq!(plan.panics_task(g, i, 3), plan.panics_task(g, i, 3));
            }
            assert_eq!(plan.truncates_write(g), plan.truncates_write(g));
        }
        // Zero rate never fires.
        assert!((0..1000u64).all(|d| !plan.corrupts_record(d)));
        // Rates land in the right ballpark over a large sample.
        let panics = (0..10_000u64)
            .filter(|&g| plan.panics_task(g, 0, 0))
            .count();
        assert!(
            (500..2800).contains(&panics),
            "~15% expected, got {panics}/10000"
        );
        // Transient faults clear after attempt 0; permanent ones persist.
        let transient = (0..10_000u64)
            .find(|&g| plan.panics_task(g, 0, 0) && !plan.panics_task(g, 0, 1))
            .expect("no transient fault in sample");
        assert!(!plan.panics_task(transient, 0, 5));
        let permanent = (0..10_000u64)
            .find(|&g| plan.panics_task(g, 0, 5))
            .expect("no permanent fault in sample");
        assert!(plan.panics_task(permanent, 0, 0));
    }
}
