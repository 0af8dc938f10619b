//! Crash-recovery and concurrency drills for the result store's segment.
//!
//! These tests attack the on-disk format the way a crash or bit rot would:
//!
//! * a segment truncated at *every* byte boundary of its final record (the
//!   exhaustive `kill -9` simulation) must recover to exactly the records
//!   that were fully appended — torn tails truncate away, nothing is ever
//!   misread, and a second open sees a clean store;
//! * a record corrupted in place is quarantined to the sidecar exactly
//!   once, later records behind it survive via magic resynchronization,
//!   and the store never serves the damaged value;
//! * an append cut short mid-record, followed by more appends from the same
//!   handle, leaves a half record *inside* the segment: recovery
//!   quarantines it once and keeps every record behind it;
//! * N threads hammering appends of one hot key (plus a shared key set)
//!   through independent store handles — followed by concurrent
//!   compactions — leave every key readable and the segment clean. This
//!   is the regression drill for the old cache writer's pid-only tmp-file
//!   names, which collided across same-process stores.

use hcrf_engine::FaultPlan;
use hcrf_explore::store::RECORD_HEADER;
use hcrf_explore::{CacheKey, CachedResult, ResultCache, Scenario};
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_perf::SuiteAggregate;
use hcrf_sched::SchedulerParams;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

fn key_for(config: &str, suite: u64) -> CacheKey {
    CacheKey::for_run(
        &MachineConfig::paper_baseline(RfOrganization::parse(config).unwrap()),
        suite,
        &SchedulerParams::default(),
        Scenario::Ideal,
        64,
    )
}

fn result_for(config: &str, sum_ii: u64) -> CachedResult {
    let mut aggregate = SuiteAggregate::new(config, 0.5);
    aggregate.sum_ii = sum_ii;
    aggregate.loops = 3;
    CachedResult {
        config: config.to_string(),
        aggregate,
        clock_ns: 0.5,
        total_area: 2.0,
        scheduling_seconds: 0.1,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hcrf-store-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segment(dir: &Path) -> PathBuf {
    dir.join("results.seg")
}

/// The store directory's file names, sorted.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn truncation_at_every_byte_boundary_recovers_cleanly() {
    let (key1, key2) = (key_for("S64", 1), key_for("S64", 2));
    let r1 = result_for("S64", 11);
    let r2 = result_for("S64", 22);

    // Build the reference segment: two whole records.
    let build = temp_dir("trunc-build");
    let mut store = ResultCache::open(&build).unwrap();
    store.store(&key1, &r1).unwrap();
    let seg = segment(&build);
    let first_len = std::fs::metadata(&seg).unwrap().len() as usize;
    store.store(&key2, &r2).unwrap();
    drop(store);
    let bytes = std::fs::read(&seg).unwrap();
    assert!(bytes.len() > first_len && first_len > RECORD_HEADER);

    let dir = temp_dir("trunc");
    for cut in 0..=bytes.len() {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment(&dir), &bytes[..cut]).unwrap();

        // First open: whatever the crash left, recovery must accept exactly
        // the fully-appended records and truncate the torn tail — never
        // quarantine (no checksum ever mismatches on a clean prefix).
        let mut store = ResultCache::open(&dir).unwrap();
        let c = store.stats();
        assert_eq!(c.corrupt, 0, "cut {cut}: truncation is not corruption");
        let expected_good = if cut >= bytes.len() {
            2
        } else if cut >= first_len {
            1
        } else {
            0
        };
        assert_eq!(c.recovered, expected_good, "cut {cut}");
        let expected_torn = match expected_good {
            2 => 0,
            1 => cut - first_len,
            _ => cut,
        };
        assert_eq!(c.torn_bytes, expected_torn as u64, "cut {cut}");
        assert_eq!(store.lookup(&key1).is_some(), cut >= first_len, "cut {cut}");
        assert_eq!(
            store.lookup(&key2).is_some(),
            cut == bytes.len(),
            "cut {cut}"
        );
        drop(store);

        // The torn tail was repaired on the first open: a second open and a
        // read-only fsck both see a clean store.
        let store = ResultCache::open(&dir).unwrap();
        assert_eq!(store.stats().torn_bytes, 0, "cut {cut}: repair sticks");
        assert_eq!(store.stats().corrupt, 0, "cut {cut}");
        drop(store);
        let fsck = ResultCache::fsck(&dir).unwrap();
        assert!(fsck.is_clean(), "cut {cut}: {fsck:?}");
        assert_eq!(fsck.live_keys, expected_good, "cut {cut}");
    }

    // The recovered store stays writable: re-append what the crash lost.
    let mut store = ResultCache::open(&dir).unwrap();
    store.store(&key1, &r1).unwrap();
    store.store(&key2, &r2).unwrap();
    drop(store);
    let mut store = ResultCache::open(&dir).unwrap();
    assert_eq!(store.lookup(&key1), Some(r1));
    assert_eq!(store.lookup(&key2), Some(r2));
    let _ = std::fs::remove_dir_all(&build);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_is_quarantined_once_and_later_records_survive() {
    let (key1, key2) = (key_for("S64", 1), key_for("S64", 2));
    let dir = temp_dir("bitrot");
    let mut store = ResultCache::open(&dir).unwrap();
    store.store(&key1, &result_for("S64", 11)).unwrap();
    let seg = segment(&dir);
    let first_len = std::fs::metadata(&seg).unwrap().len() as usize;
    store.store(&key2, &result_for("S64", 22)).unwrap();
    drop(store);

    // Bit rot inside the first record's payload.
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[RECORD_HEADER + 2] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();

    // Recovery quarantines the damaged record, resynchronizes at the next
    // magic, and keeps the record behind it.
    let mut store = ResultCache::open(&dir).unwrap();
    assert!(
        store.lookup(&key1).is_none(),
        "damaged record must not serve"
    );
    assert_eq!(store.lookup(&key2).unwrap().aggregate.sum_ii, 22);
    assert_eq!(store.stats().corrupt, 1);
    assert_eq!(store.stats().recovered, 1);
    drop(store);

    // The damaged bytes moved to the sidecar and the segment was rewritten:
    // the corruption is counted once, not on every reopen.
    let sidecar = dir.join("results.bad");
    assert_eq!(
        std::fs::metadata(&sidecar).unwrap().len() as usize,
        first_len,
        "sidecar holds exactly the damaged record"
    );
    let store = ResultCache::open(&dir).unwrap();
    assert_eq!(store.stats().corrupt, 0, "damage counted once");
    assert_eq!(store.stats().recovered, 1);
    drop(store);
    let fsck = ResultCache::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck:?}");
    assert_eq!(fsck.quarantined_bytes, first_len as u64);

    // A fresh append of the lost key restores it durably.
    let mut store = ResultCache::open(&dir).unwrap();
    store.store(&key1, &result_for("S64", 33)).unwrap();
    drop(store);
    let mut store = ResultCache::open(&dir).unwrap();
    assert_eq!(store.lookup(&key1).unwrap().aggregate.sum_ii, 33);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `kill -9`-style cut mid-append followed by more appends from the same
/// handle: the half record sits between whole ones, so recovery quarantines
/// it (once) instead of truncating it, and every later record survives.
#[test]
fn torn_append_followed_by_more_appends_is_quarantined_once() {
    let plan = FaultPlan {
        seed: 0x5e9,
        truncated_writes_per_mille: 500,
        ..FaultPlan::default()
    };
    let keys: Vec<CacheKey> = (1..100).map(|s| key_for("S64", s)).collect();
    let torn = *keys
        .iter()
        .find(|k| plan.truncates_write(k.digest()))
        .expect("the plan truncates some key");
    let later: Vec<CacheKey> = keys
        .iter()
        .filter(|k| !plan.truncates_write(k.digest()))
        .take(3)
        .copied()
        .collect();
    assert_eq!(later.len(), 3);

    let dir = temp_dir("torn-append");
    let mut store = ResultCache::open(&dir).unwrap().with_fault_plan(plan);
    let err = store.store(&torn, &result_for("S64", 1)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    let half_len = std::fs::metadata(segment(&dir)).unwrap().len();
    assert!(half_len > RECORD_HEADER as u64);
    for (i, key) in later.iter().enumerate() {
        store.store(key, &result_for("S64", 10 + i as u64)).unwrap();
    }
    drop(store);

    let mut store = ResultCache::open(&dir).unwrap();
    let c = store.stats();
    assert_eq!(c.corrupt, 1, "the half record is quarantined");
    assert_eq!(c.torn_bytes, 0, "it is not a tail");
    assert_eq!(c.recovered, 3);
    assert!(store.lookup(&torn).is_none(), "a half record never serves");
    for (i, key) in later.iter().enumerate() {
        assert_eq!(store.lookup(key).unwrap().aggregate.sum_ii, 10 + i as u64);
    }
    drop(store);
    assert_eq!(
        std::fs::metadata(dir.join("results.bad")).unwrap().len(),
        half_len,
        "sidecar holds exactly the half record"
    );

    // The segment was rewritten with the survivors: a reopen finds no
    // damage, and fsck agrees.
    let store = ResultCache::open(&dir).unwrap();
    assert_eq!(store.stats().corrupt, 0, "damage counted once");
    assert_eq!(store.stats().recovered, 3);
    drop(store);
    let fsck = ResultCache::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck:?}");
    assert_eq!(fsck.live_keys, 3);
    assert_eq!(fsck.quarantined_bytes, half_len);
    assert_eq!(files_in(&dir), ["results.bad", "results.seg"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression drill for the pid-only tmp-name collision of the old cache
/// writer: many same-process handles storing the same hot key (and a shared
/// key set) concurrently, then compacting concurrently, must leave every
/// key readable and the segment clean.
#[test]
fn concurrent_stores_and_compactions_stay_clean() {
    const THREADS: usize = 8;
    const ROUNDS: u64 = 20;
    let dir = temp_dir("hammer");
    std::fs::create_dir_all(&dir).unwrap();
    let hot = key_for("S128", 999);
    let keys: Vec<CacheKey> = (0..6).map(|s| key_for("4C32S16", 100 + s)).collect();
    let ready = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let (dir, hot, keys, ready) = (&dir, &hot, &keys, &ready);
            scope.spawn(move || {
                let mut cache = ResultCache::open(dir).unwrap();
                // All handles finish their recovery scan before any append
                // starts; from here on everything races.
                ready.wait();
                for round in 0..ROUNDS {
                    cache
                        .store(hot, &result_for("S128", t * ROUNDS + round))
                        .unwrap();
                    for (i, key) in keys.iter().enumerate() {
                        cache
                            .store(key, &result_for("4C32S16", t + i as u64 + round))
                            .unwrap();
                    }
                }
                // Every handle indexed the full key set (its own stores), so
                // racing compactions disagree only on values, never on keys.
                cache.compact().unwrap();
            });
        }
    });

    let mut store = ResultCache::open(&dir).unwrap();
    let c = store.stats();
    assert_eq!(c.corrupt, 0, "interleaved appends corrupted the segment");
    assert_eq!(c.torn_bytes, 0, "interleaved appends tore the segment");
    assert_eq!(store.len(), keys.len() + 1);
    assert_eq!(store.lookup(&hot).unwrap().config, "S128");
    for key in &keys {
        assert_eq!(store.lookup(key).unwrap().config, "4C32S16");
    }
    drop(store);
    let fsck = ResultCache::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck:?}");
    assert_eq!(fsck.live_keys as usize, keys.len() + 1);
    assert_eq!(files_in(&dir), ["results.seg"]);
    let _ = std::fs::remove_dir_all(&dir);
}
