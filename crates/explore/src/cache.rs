//! Content-addressed cache of suite-run results.
//!
//! A design-space sweep evaluates the same (machine, workload, scheduler,
//! scenario) points over and over — across reruns, across incremental sweeps
//! that widen the space, and across report-only invocations. Scheduling is
//! the expensive part (seconds per point); the aggregate it produces is a few
//! hundred bytes. So the executor addresses results by *content*: a stable
//! 64-bit key digest of
//!
//! * the complete machine configuration ([`MachineConfig::stable_hash`]),
//! * the loop-suite fingerprint ([`hcrf::driver::suite_fingerprint`]),
//! * the scheduler parameters actually in effect, and
//! * the scenario (ideal / real memory) with its simulation depth,
//!
//! plus a format version. Persistence lives in the crash-safe sharded
//! [`ResultStore`] (`store.rs`): append-only checksummed segment files with
//! a recovery scan on open, so a torn or corrupted entry degrades into a
//! miss (a re-run), never a wrong result. Every record embeds the full key
//! components, verified on lookup, so a digest collision misses too.
//! [`ResultCache`] is the thin session facade the executor talks to: it
//! owns the hit/miss/store counters and the telemetry wiring.

use crate::json::Json;
use crate::store::ResultStore;
use hcrf_engine::FaultPlan;
use hcrf_machine::stable::StableHasher;
use hcrf_machine::MachineConfig;
use hcrf_perf::SuiteAggregate;
use hcrf_sched::SchedulerParams;
use hcrf_telemetry::Telemetry;
use std::fmt;
use std::io;
use std::path::Path;
use std::str::FromStr;

/// Bump when the entry layout, any hashed encoding, *or the behavior of the
/// code that computes results* (scheduler, hardware model, workload
/// generator) changes; old entries then simply miss. The key identifies the
/// evaluation's inputs, not its implementation, so this constant is the only
/// thing separating results produced by different versions of the code.
///
/// History: 2 — suite fingerprints switched dependence-kind encoding from
/// Debug strings to explicit discriminants.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The memory scenario of a run (Section 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Every memory access hits (Table 6).
    Ideal,
    /// Cache simulation with stall accounting (Figure 6).
    Real,
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scenario::Ideal => "ideal",
            Scenario::Real => "real",
        })
    }
}

impl FromStr for Scenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ideal" => Ok(Scenario::Ideal),
            "real" => Ok(Scenario::Real),
            other => Err(format!("unknown scenario '{other}' (expected ideal|real)")),
        }
    }
}

/// The content-addressed identity of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    /// Stable hash of the complete machine configuration.
    pub machine: u64,
    /// Fingerprint of the loop suite.
    pub suite: u64,
    /// Stable hash of the scheduler parameters in effect.
    pub scheduler: u64,
    /// Memory scenario.
    pub scenario: Scenario,
    /// Iteration cap of the memory simulation (part of the result for the
    /// real scenario; harmless extra precision for the ideal one).
    pub max_simulated_iterations: u64,
    /// Cache format version.
    pub version: u32,
}

impl CacheKey {
    /// Key of one evaluation.
    pub fn for_run(
        machine: &MachineConfig,
        suite_fingerprint: u64,
        scheduler: &SchedulerParams,
        scenario: Scenario,
        max_simulated_iterations: u64,
    ) -> Self {
        CacheKey {
            machine: machine.stable_hash(),
            suite: suite_fingerprint,
            scheduler: scheduler_hash(scheduler),
            scenario,
            max_simulated_iterations,
            version: CACHE_FORMAT_VERSION,
        }
    }

    /// Single content digest of the whole key.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.machine);
        h.write_u64(self.suite);
        h.write_u64(self.scheduler);
        h.write_str(&self.scenario.to_string());
        h.write_u64(self.max_simulated_iterations);
        h.write_u32(self.version);
        h.finish()
    }

    pub(crate) fn to_json(self) -> Json {
        Json::obj(vec![
            ("machine", Json::str(format!("{:016x}", self.machine))),
            ("suite", Json::str(format!("{:016x}", self.suite))),
            ("scheduler", Json::str(format!("{:016x}", self.scheduler))),
            ("scenario", Json::str(self.scenario.to_string())),
            (
                "max_simulated_iterations",
                Json::u64(self.max_simulated_iterations),
            ),
            ("version", Json::u64(self.version as u64)),
        ])
    }

    pub(crate) fn from_json(doc: &Json) -> Option<CacheKey> {
        let hex = |k: &str| u64::from_str_radix(doc.get(k)?.as_str()?, 16).ok();
        Some(CacheKey {
            machine: hex("machine")?,
            suite: hex("suite")?,
            scheduler: hex("scheduler")?,
            scenario: doc.get("scenario")?.as_str()?.parse().ok()?,
            max_simulated_iterations: doc.get("max_simulated_iterations")?.as_u64()?,
            version: doc.get("version")?.as_u64()? as u32,
        })
    }
}

/// Stable hash of the scheduler knobs that influence a result.
fn scheduler_hash(p: &SchedulerParams) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(p.budget_ratio);
    h.write_u32(p.max_ii);
    h.write_bool(p.backtracking);
    h.write_bool(p.binding_prefetch);
    // `keep_schedule` changes what is retained in memory, not the schedule
    // itself, so it is deliberately *not* part of the key.
    h.finish()
}

/// The cached payload of one evaluation: the aggregate plus the hardware
/// summary needed for Pareto analysis (per-loop schedules are not kept).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Configuration name (`"4C32S16"`).
    pub config: String,
    /// Aggregated suite metrics.
    pub aggregate: SuiteAggregate,
    /// Clock period of the configuration (ns).
    pub clock_ns: f64,
    /// Total register-file area (Mλ²).
    pub total_area: f64,
    /// Wall-clock seconds the original scheduling run took.
    pub scheduling_seconds: f64,
}

fn aggregate_to_json(a: &SuiteAggregate) -> Json {
    Json::obj(vec![
        ("config", Json::str(&a.config)),
        ("clock_ns", Json::Num(a.clock_ns)),
        ("sum_ii", Json::u64(a.sum_ii)),
        ("useful_cycles", Json::u64(a.useful_cycles)),
        ("stall_cycles", Json::u64(a.stall_cycles)),
        ("memory_traffic", Json::u64(a.memory_traffic)),
        ("loops_at_mii", Json::usize(a.loops_at_mii)),
        ("failed_loops", Json::usize(a.failed_loops)),
        ("loops", Json::usize(a.loops)),
    ])
}

fn aggregate_from_json(doc: &Json) -> Option<SuiteAggregate> {
    Some(SuiteAggregate {
        config: doc.get("config")?.as_str()?.to_string(),
        clock_ns: doc.get("clock_ns")?.as_f64()?,
        sum_ii: doc.get("sum_ii")?.as_u64()?,
        useful_cycles: doc.get("useful_cycles")?.as_u64()?,
        stall_cycles: doc.get("stall_cycles")?.as_u64()?,
        memory_traffic: doc.get("memory_traffic")?.as_u64()?,
        loops_at_mii: doc.get("loops_at_mii")?.as_u64()? as usize,
        failed_loops: doc.get("failed_loops")?.as_u64()? as usize,
        loops: doc.get("loops")?.as_u64()? as usize,
    })
}

impl CachedResult {
    pub(crate) fn to_json(&self, key: &CacheKey) -> Json {
        Json::obj(vec![
            ("key", key.to_json()),
            ("config", Json::str(&self.config)),
            ("aggregate", aggregate_to_json(&self.aggregate)),
            ("clock_ns", Json::Num(self.clock_ns)),
            ("total_area", Json::Num(self.total_area)),
            ("scheduling_seconds", Json::Num(self.scheduling_seconds)),
        ])
    }

    pub(crate) fn from_json(doc: &Json) -> Option<(CacheKey, CachedResult)> {
        let key = CacheKey::from_json(doc.get("key")?)?;
        let result = CachedResult {
            config: doc.get("config")?.as_str()?.to_string(),
            aggregate: aggregate_from_json(doc.get("aggregate")?)?,
            clock_ns: doc.get("clock_ns")?.as_f64()?,
            total_area: doc.get("total_area")?.as_f64()?,
            scheduling_seconds: doc.get("scheduling_seconds")?.as_f64()?,
        };
        Some((key, result))
    }
}

/// Hit/miss counters of one cache session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that required evaluation.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Corrupt entries found (and quarantined) when the session opened —
    /// distinguishable from a cold cache, which reports zero here.
    pub corrupt: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counters accumulated since `earlier` (a previous snapshot of the same
    /// cache session) — used to report per-sweep numbers on a shared cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
            corrupt: self.corrupt - earlier.corrupt,
        }
    }
}

/// One session over the content-addressed result store: the facade the
/// executor talks to. Persistence (sharding, recovery, compaction) lives in
/// [`ResultStore`]; this type owns the session counters and telemetry.
#[derive(Debug)]
pub struct ResultCache {
    store: Option<ResultStore>,
    stats: CacheStats,
    telemetry: Telemetry,
}

impl ResultCache {
    /// Cache rooted at `dir` (created if missing). Opening runs the store's
    /// recovery scan.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_traced(dir, &Telemetry::disabled())
    }

    /// [`ResultCache::open`] with a telemetry sink: recovery publishes
    /// `explore.store.*` counters, corrupt entries land in
    /// `explore.cache.corrupt`, and warnings name the damaged files.
    pub fn open_traced(dir: impl AsRef<Path>, telemetry: &Telemetry) -> io::Result<Self> {
        let store = ResultStore::open(dir, telemetry)?;
        let corrupt = store.counters().corrupt;
        if corrupt > 0 {
            telemetry.counter_add("explore.cache.corrupt", corrupt);
        }
        Ok(ResultCache {
            store: Some(store),
            stats: CacheStats {
                corrupt,
                ..CacheStats::default()
            },
            telemetry: telemetry.clone(),
        })
    }

    /// A disabled cache: every lookup misses, stores are dropped.
    pub fn disabled() -> Self {
        ResultCache {
            store: None,
            stats: CacheStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Inject deterministic store faults (write truncation, record
    /// corruption). Test/drill seam; a disabled cache ignores the plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.store = self.store.map(|s| s.with_fault_plan(plan));
        self
    }

    /// Whether the cache persists anything.
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// Session counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The underlying store, if the cache is enabled.
    pub fn store_ref(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Look `key` up; quarantined, mismatched or missing entries are misses.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<CachedResult> {
        match self.store.as_ref().and_then(|s| s.lookup(key)) {
            Some(result) => {
                self.stats.hits += 1;
                Some(result.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Persist `result` under `key` (a durable checksummed append).
    pub fn store(&mut self, key: &CacheKey, result: &CachedResult) -> io::Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        store.store(key, result)?;
        self.stats.stores += 1;
        Ok(())
    }

    /// Fold duplicate and quarantined records out of the underlying store.
    pub fn compact(&mut self) -> io::Result<()> {
        if let Some(store) = self.store.as_mut() {
            store.compact()?;
            self.telemetry.debug("explore store: compacted");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_machine::RfOrganization;
    use std::path::PathBuf;

    fn machine(name: &str) -> MachineConfig {
        MachineConfig::paper_baseline(RfOrganization::parse(name).unwrap())
    }

    fn sample_key() -> CacheKey {
        CacheKey::for_run(
            &machine("4C32S16"),
            0x1234_5678_9abc_def0,
            &SchedulerParams::default(),
            Scenario::Ideal,
            64,
        )
    }

    fn sample_result() -> CachedResult {
        let mut aggregate = SuiteAggregate::new("4C32S16", 0.472);
        aggregate.sum_ii = 420;
        aggregate.useful_cycles = 1_000_000;
        aggregate.memory_traffic = 55_000;
        aggregate.loops = 41;
        aggregate.loops_at_mii = 39;
        CachedResult {
            config: "4C32S16".to_string(),
            aggregate,
            clock_ns: 0.472,
            total_area: 4.8,
            scheduling_seconds: 1.25,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hcrf-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_is_deterministic_and_component_sensitive() {
        let base = sample_key();
        assert_eq!(base, sample_key());
        assert_eq!(base.digest(), sample_key().digest());
        let other_machine = CacheKey::for_run(
            &machine("S128"),
            0x1234_5678_9abc_def0,
            &SchedulerParams::default(),
            Scenario::Ideal,
            64,
        );
        assert_ne!(base.digest(), other_machine.digest());
        let other_scenario = CacheKey {
            scenario: Scenario::Real,
            ..base
        };
        assert_ne!(base.digest(), other_scenario.digest());
        let other_suite = CacheKey {
            suite: base.suite + 1,
            ..base
        };
        assert_ne!(base.digest(), other_suite.digest());
    }

    #[test]
    fn scheduler_knobs_change_the_key_but_keep_schedule_does_not() {
        let m = machine("2C32S32");
        let base = CacheKey::for_run(&m, 1, &SchedulerParams::default(), Scenario::Ideal, 64);
        let no_backtrack =
            CacheKey::for_run(&m, 1, &SchedulerParams::baseline36(), Scenario::Ideal, 64);
        assert_ne!(base.digest(), no_backtrack.digest());
        let stripped = CacheKey::for_run(
            &m,
            1,
            &SchedulerParams::default().without_schedule(),
            Scenario::Ideal,
            64,
        );
        assert_eq!(base.digest(), stripped.digest());
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut cache = ResultCache::open(&dir).unwrap();
        let key = sample_key();
        let result = sample_result();
        assert!(cache.lookup(&key).is_none());
        cache.store(&key, &result).unwrap();
        assert_eq!(cache.lookup(&key), Some(result));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // A fresh cache session sees the same entry.
        let mut reopened = ResultCache::open(&dir).unwrap();
        assert!(reopened.lookup(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut cache = ResultCache::disabled();
        let key = sample_key();
        cache.store(&key, &sample_result()).unwrap();
        assert!(cache.lookup(&key).is_none());
        assert!(!cache.is_enabled());
    }
}
