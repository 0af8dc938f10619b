//! Crash-safe sharded persistence of explore results.
//!
//! The [`ResultStore`] replaces the one-JSON-file-per-point cache layout
//! with 16 append-only segment files (shard = top digest nibble) under the
//! cache directory:
//!
//! ```text
//! <dir>/shard-00.seg .. shard-0f.seg   framed records, append-only
//! <dir>/quarantine/shard-XX.bad        checksum-failed bytes, for autopsy
//! ```
//!
//! Each record is framed as
//!
//! ```text
//! magic[4] | payload_len u32 LE | key_digest u64 LE | checksum u64 LE | payload
//! ```
//!
//! where the payload is the compact JSON of a [`CachedResult`] with its full
//! embedded [`CacheKey`] (verified on lookup, so a digest collision degrades
//! into a miss, never a wrong result) and the checksum is a stable FNV hash
//! over the digest and the payload. Every magic byte is `>= 0x80` while the
//! payload is pure-ASCII JSON — the magic can never occur inside a record
//! body, which is what makes resynchronization after corruption exact.
//!
//! **Recovery.** Opening the store scans every shard: a record that extends
//! past the end of the file with no later magic is a *torn tail* (a crash
//! mid-append) and is truncated away; a record whose checksum fails — or
//! stray bytes where a header should be — is *quarantined*: the damaged
//! byte range moves to the sidecar, the scan resynchronizes at the next
//! magic, and the shard is rewritten with only the surviving records so the
//! damage is counted once, not on every reopen. Either way the store never
//! serves a record whose checksum does not match: corruption degrades into
//! a re-evaluation, never a wrong result.
//!
//! **Writes** go through a single `write_all` on an `O_APPEND` handle
//! followed by `sync_data`, so concurrent stores (same process or not)
//! interleave whole records, never bytes, and a `kill -9` leaves at most
//! one torn tail. Duplicate appends of one digest are resolved
//! last-write-wins by the in-memory index and folded away by
//! [`ResultStore::compact`]. Shard rewrites (recovery, compaction) go
//! through a tmp file renamed over the shard; a tmp file a crash leaves
//! behind is never live data and is deleted on the next open.

use crate::cache::{CacheKey, CachedResult};
use crate::json::Json;
use hcrf_engine::FaultPlan;
use hcrf_machine::stable::StableHasher;
use hcrf_telemetry::Telemetry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of segment files; a record lands in shard `digest >> 60`.
pub const SHARDS: usize = 16;

/// Record magic. Every byte is `>= 0x80` so the sequence cannot occur in a
/// pure-ASCII JSON payload — resync-by-magic-scan has no false positives.
pub const RECORD_MAGIC: [u8; 4] = [0x8b, 0xc4, 0xf5, 0x9e];

/// Bytes of framing before the payload.
pub const RECORD_HEADER: usize = 4 + 4 + 8 + 8;

/// Upper bound on a sane payload (real payloads are a few hundred bytes);
/// a longer claimed length is treated as corruption, not an allocation.
const MAX_PAYLOAD: u32 = 1 << 20;

/// Distinguishes rewrite/compaction tmp files of concurrent stores in one
/// process — `process::id()` alone collides there (the bug this store's
/// predecessor had in `ResultCache::store`).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn shard_of(digest: u64) -> usize {
    (digest >> 60) as usize
}

fn shard_file(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02x}.seg"))
}

fn quarantine_dir(dir: &Path) -> PathBuf {
    dir.join("quarantine")
}

fn record_checksum(digest: u64, payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(digest);
    h.write_bytes(payload);
    h.finish()
}

fn frame_record(digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
    rec.extend_from_slice(&RECORD_MAGIC);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&digest.to_le_bytes());
    rec.extend_from_slice(&record_checksum(digest, payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// Find the next occurrence of [`RECORD_MAGIC`] at or after `from`.
fn next_magic(bytes: &[u8], from: usize) -> Option<usize> {
    if bytes.len() < 4 {
        return None;
    }
    (from..bytes.len() - 3).find(|&i| bytes[i..i + 4] == RECORD_MAGIC)
}

/// Operation counters of one store session (recovery + runtime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Valid records accepted by the recovery scan.
    pub recovered: u64,
    /// Live keys in the index (last-write-wins over `recovered`).
    pub live_keys: u64,
    /// Checksum-failed or unparseable records quarantined to the sidecar.
    pub corrupt: u64,
    /// Bytes of torn tail truncated by recovery.
    pub torn_bytes: u64,
    /// Records appended this session.
    pub appends: u64,
}

/// Read-only integrity report of a store directory (`explore --fsck`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Segment files present.
    pub shards: usize,
    /// Valid records across all segments (duplicates included).
    pub records: u64,
    /// Distinct live keys after last-write-wins.
    pub live_keys: u64,
    /// Records failing their checksum (or stray bytes between records).
    pub corrupt_records: u64,
    /// Bytes of torn tail (interrupted final append).
    pub torn_bytes: u64,
    /// Bytes quarantined by previous recoveries.
    pub quarantined_bytes: u64,
}

impl FsckReport {
    /// Whether every segment is clean (an existing quarantine sidecar is
    /// not damage — it is already isolated).
    pub fn is_clean(&self) -> bool {
        self.corrupt_records == 0 && self.torn_bytes == 0
    }
}

/// What a recovery scan found in one shard's bytes.
struct ShardScan {
    /// Byte ranges of valid records, in file order.
    good: Vec<(usize, usize)>,
    /// Byte ranges that failed validation (checksum, framing, stray bytes).
    bad: Vec<(usize, usize)>,
    /// Bytes of torn tail (start offset == file length - torn).
    torn: usize,
}

/// Scan a shard's bytes: accept framed records with valid checksums,
/// resynchronize at the next magic after damage, and classify a record
/// running past the end with nothing after it as a torn tail.
fn scan_shard(bytes: &[u8]) -> ShardScan {
    let mut scan = ShardScan {
        good: Vec::new(),
        bad: Vec::new(),
        torn: 0,
    };
    let n = bytes.len();
    let mut pos = 0usize;
    while pos < n {
        let remaining = n - pos;
        let magic_full = remaining >= 4 && bytes[pos..pos + 4] == RECORD_MAGIC;
        let magic_prefix = remaining < 4 && RECORD_MAGIC.starts_with(&bytes[pos..]);
        let mut record_end = None;
        let mut runs_past_end = false;
        if magic_full && remaining >= RECORD_HEADER {
            let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            if len <= MAX_PAYLOAD {
                let end = pos + RECORD_HEADER + len as usize;
                if end <= n {
                    let digest = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
                    let checksum =
                        u64::from_le_bytes(bytes[pos + 16..pos + 24].try_into().unwrap());
                    if record_checksum(digest, &bytes[pos + RECORD_HEADER..end]) == checksum {
                        record_end = Some(end);
                    }
                } else {
                    runs_past_end = true;
                }
            }
            // A length beyond any sane payload is corruption, handled below.
        } else if magic_full || magic_prefix {
            // A magic (or its tail prefix) with an incomplete header: the
            // append was cut before the frame finished.
            runs_past_end = true;
        }
        match record_end {
            Some(end) => {
                scan.good.push((pos, end));
                pos = end;
            }
            None => match next_magic(bytes, pos + 1) {
                // Damage followed by more records: quarantine and resync.
                Some(q) => {
                    scan.bad.push((pos, q));
                    pos = q;
                }
                // Nothing after it. An incomplete record (or bare magic) is
                // a torn tail from an interrupted append; anything else
                // (checksum failure, garbage) is corruption.
                None => {
                    if runs_past_end {
                        scan.torn = n - pos;
                    } else {
                        scan.bad.push((pos, n));
                    }
                    pos = n;
                }
            },
        }
    }
    scan
}

/// Crash-safe sharded store of `CacheKey -> CachedResult` records. See the
/// module docs for the on-disk format and recovery semantics.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// Lazily opened `O_APPEND` handles, one per shard.
    appenders: Vec<Option<File>>,
    index: HashMap<u64, (CacheKey, CachedResult)>,
    counters: StoreCounters,
    fault_plan: Option<FaultPlan>,
    telemetry: Telemetry,
}

impl ResultStore {
    /// Open (creating if missing) the store at `dir`: run the recovery scan
    /// over every shard, rebuild the in-memory index, and delete tmp files
    /// left behind by an interrupted shard rewrite.
    pub fn open(dir: impl AsRef<Path>, telemetry: &Telemetry) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut store = ResultStore {
            dir,
            appenders: (0..SHARDS).map(|_| None).collect(),
            index: HashMap::new(),
            counters: StoreCounters::default(),
            fault_plan: None,
            telemetry: telemetry.clone(),
        };
        for shard in 0..SHARDS {
            store.recover_shard(shard)?;
        }
        store.sweep_tmp_droppings()?;
        store.counters.live_keys = store.index.len() as u64;
        store.publish_open_counters();
        Ok(store)
    }

    /// Inject deterministic store faults (write truncation, record
    /// corruption) according to `plan`. Test/drill seam.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Session counters (recovery + runtime).
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Serve `key` from the in-memory index. The embedded key is compared in
    /// full, so a digest collision is a miss, never a wrong result.
    pub fn lookup(&self, key: &CacheKey) -> Option<&CachedResult> {
        let (stored_key, result) = self.index.get(&key.digest())?;
        (stored_key == key).then_some(result)
    }

    /// Append `result` under `key` and update the index (last write wins).
    pub fn store(&mut self, key: &CacheKey, result: &CachedResult) -> io::Result<()> {
        let digest = key.digest();
        let payload = result.to_json(key).to_compact().into_bytes();
        let mut record = frame_record(digest, &payload);
        let plan = self.fault_plan;
        let shard = shard_of(digest);
        if self.appenders[shard].is_none() {
            self.appenders[shard] = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(shard_file(&self.dir, shard))?,
            );
        }
        let file = self.appenders[shard]
            .as_mut()
            .expect("appender just opened");
        if let Some(plan) = plan {
            if plan.truncates_write(digest) {
                // Simulated kill -9 mid-append: half the record reaches the
                // disk, the caller sees the write fail. Recovery truncates
                // the torn tail on next open.
                let cut = RECORD_HEADER + payload.len() / 2;
                file.write_all(&record[..cut])?;
                file.sync_data()?;
                self.telemetry
                    .counter_add("explore.store.injected_truncations", 1);
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected fault: write truncated mid-record",
                ));
            }
            if plan.corrupts_record(digest) {
                // Simulated bit rot: the record lands whole but damaged
                // (checksum no longer matches). The in-memory index keeps
                // the good value — the damage is discovered by the next
                // recovery scan, which quarantines the record.
                let flip = RECORD_HEADER + payload.len() / 2;
                record[flip] ^= 0x01;
                self.telemetry
                    .counter_add("explore.store.injected_corruptions", 1);
            }
        }
        file.write_all(&record)?;
        file.sync_data()?;
        self.counters.appends += 1;
        self.telemetry.counter_add("explore.store.appends", 1);
        self.index.insert(digest, (*key, result.clone()));
        self.counters.live_keys = self.index.len() as u64;
        Ok(())
    }

    /// Rewrite every shard with exactly the live records (duplicates and
    /// quarantined damage fold away), sorted by digest. Atomic per shard:
    /// tmp file + rename, with a process-and-sequence-unique tmp name.
    pub fn compact(&mut self) -> io::Result<()> {
        let mut by_shard: Vec<Vec<u64>> = (0..SHARDS).map(|_| Vec::new()).collect();
        for &digest in self.index.keys() {
            by_shard[shard_of(digest)].push(digest);
        }
        for (shard, mut digests) in by_shard.into_iter().enumerate() {
            digests.sort_unstable();
            let mut bytes = Vec::new();
            for digest in digests {
                let (key, result) = &self.index[&digest];
                let payload = result.to_json(key).to_compact().into_bytes();
                bytes.extend_from_slice(&frame_record(digest, &payload));
            }
            // Drop the old append handle before replacing the file: a
            // handle kept across the rename would keep appending to the
            // unlinked inode.
            self.appenders[shard] = None;
            let path = shard_file(&self.dir, shard);
            if bytes.is_empty() {
                if path.exists() {
                    std::fs::remove_file(&path)?;
                }
                continue;
            }
            self.rewrite_atomic(&path, &bytes)?;
        }
        Ok(())
    }

    /// Read-only integrity scan of a store directory: no rewrite, no
    /// quarantine. Safe to run concurrently with readers.
    pub fn fsck(dir: impl AsRef<Path>) -> io::Result<FsckReport> {
        let dir = dir.as_ref();
        let mut report = FsckReport::default();
        let mut live: HashMap<u64, ()> = HashMap::new();
        for shard in 0..SHARDS {
            let path = shard_file(dir, shard);
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            report.shards += 1;
            let scan = scan_shard(&bytes);
            report.records += scan.good.len() as u64;
            report.corrupt_records += scan.bad.len() as u64;
            report.torn_bytes += scan.torn as u64;
            for &(start, _) in &scan.good {
                let digest = u64::from_le_bytes(bytes[start + 8..start + 16].try_into().unwrap());
                live.insert(digest, ());
            }
        }
        report.live_keys = live.len() as u64;
        if let Ok(entries) = std::fs::read_dir(quarantine_dir(dir)) {
            for entry in entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    report.quarantined_bytes += meta.len();
                }
            }
        }
        Ok(report)
    }

    /// Recover one shard: scan, index the valid records (last write wins in
    /// file order), quarantine damage, truncate torn tails. Any anomaly
    /// rewrites the shard with only the surviving records so the damage is
    /// counted once, not on every reopen.
    fn recover_shard(&mut self, shard: usize) -> io::Result<()> {
        let path = shard_file(&self.dir, shard);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        }
        let scan = scan_shard(&bytes);
        for &(start, end) in &scan.good {
            self.counters.recovered += 1;
            let payload = &bytes[start + RECORD_HEADER..end];
            // The checksum already passed; a payload that still fails to
            // parse (impossible unless the writer was broken) is dropped
            // from the index but kept in the file — fsck will keep
            // reporting it as a valid record.
            if let Some((key, result)) = std::str::from_utf8(payload)
                .ok()
                .and_then(|text| Json::parse(text).ok())
                .and_then(|doc| CachedResult::from_json(&doc))
            {
                self.index.insert(key.digest(), (key, result));
            }
        }
        if scan.bad.is_empty() && scan.torn == 0 {
            return Ok(());
        }
        // Quarantine the damaged ranges, then rewrite the shard with only
        // the surviving records (atomic tmp + rename).
        if !scan.bad.is_empty() {
            let qdir = quarantine_dir(&self.dir);
            std::fs::create_dir_all(&qdir)?;
            let mut sidecar = OpenOptions::new()
                .create(true)
                .append(true)
                .open(qdir.join(format!("shard-{shard:02x}.bad")))?;
            for &(start, end) in &scan.bad {
                sidecar.write_all(&bytes[start..end])?;
                self.counters.corrupt += 1;
                self.telemetry.warn(format!(
                    "explore store: quarantined {} corrupt byte(s) from {} (offset {start})",
                    end - start,
                    path.display()
                ));
            }
            sidecar.sync_data()?;
        }
        if scan.torn > 0 {
            self.counters.torn_bytes += scan.torn as u64;
            self.telemetry.debug(format!(
                "explore store: truncated {} torn byte(s) from {}",
                scan.torn,
                path.display()
            ));
        }
        let mut survivors = Vec::new();
        for &(start, end) in &scan.good {
            survivors.extend_from_slice(&bytes[start..end]);
        }
        if survivors.is_empty() {
            std::fs::remove_file(&path)?;
        } else {
            self.rewrite_atomic(&path, &survivors)?;
        }
        Ok(())
    }

    /// Delete `.tmp.` files an interrupted [`ResultStore::rewrite_atomic`]
    /// left behind: the rename never happened, so they are not live data.
    fn sweep_tmp_droppings(&self) -> io::Result<()> {
        for entry in std::fs::read_dir(&self.dir)?.flatten() {
            if entry.file_name().to_string_lossy().contains(".tmp.") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// Replace `path` with `bytes` atomically. The tmp name carries the
    /// process id *and* a process-global sequence number: two stores
    /// rewriting in one process must never share a tmp file.
    fn rewrite_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    fn publish_open_counters(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let c = self.counters;
        self.telemetry
            .counter_add("explore.store.recovered", c.recovered);
        self.telemetry
            .counter_add("explore.store.corrupt", c.corrupt);
        self.telemetry
            .counter_add("explore.store.torn_bytes", c.torn_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Scenario;
    use hcrf_machine::{MachineConfig, RfOrganization};
    use hcrf_perf::SuiteAggregate;
    use hcrf_sched::SchedulerParams;
    use std::path::PathBuf;

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
            std::env::temp_dir().join(format!("hcrf-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn magic_bytes_cannot_occur_in_ascii_payloads() {
        assert!(RECORD_MAGIC.iter().all(|&b| b >= 0x80));
        let payload = result_for("4C32S16", 9)
            .to_json(&key_for("4C32S16", 1))
            .to_compact();
        assert!(payload.bytes().all(|b| b < 0x80), "payload must be ASCII");
    }

    #[test]
    fn store_lookup_survives_reopen() {
        let dir = temp_dir("reopen");
        let telemetry = Telemetry::disabled();
        let key = key_for("4C32S16", 7);
        let result = result_for("4C32S16", 42);
        {
            let mut store = ResultStore::open(&dir, &telemetry).unwrap();
            assert!(store.lookup(&key).is_none());
            store.store(&key, &result).unwrap();
            assert_eq!(store.lookup(&key), Some(&result));
        }
        let store = ResultStore::open(&dir, &telemetry).unwrap();
        assert_eq!(store.lookup(&key), Some(&result));
        assert_eq!(store.counters().recovered, 1);
        assert_eq!(store.counters().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_write_wins_and_compaction_folds_duplicates() {
        let dir = temp_dir("lww");
        let telemetry = Telemetry::disabled();
        let key = key_for("S64", 1);
        let mut store = ResultStore::open(&dir, &telemetry).unwrap();
        store.store(&key, &result_for("S64", 10)).unwrap();
        store.store(&key, &result_for("S64", 20)).unwrap();
        assert_eq!(store.lookup(&key).unwrap().aggregate.sum_ii, 20);
        drop(store);

        let mut store = ResultStore::open(&dir, &telemetry).unwrap();
        assert_eq!(store.counters().recovered, 2, "both records on disk");
        assert_eq!(store.lookup(&key).unwrap().aggregate.sum_ii, 20);
        store.compact().unwrap();
        drop(store);

        let store = ResultStore::open(&dir, &telemetry).unwrap();
        assert_eq!(store.counters().recovered, 1, "compaction deduplicated");
        assert_eq!(store.lookup(&key).unwrap().aggregate.sum_ii, 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_a_clean_store_clean() {
        let dir = temp_dir("fsck");
        let telemetry = Telemetry::disabled();
        let mut store = ResultStore::open(&dir, &telemetry).unwrap();
        store
            .store(&key_for("S64", 1), &result_for("S64", 5))
            .unwrap();
        store
            .store(&key_for("S128", 1), &result_for("S128", 6))
            .unwrap();
        drop(store);
        let report = ResultStore::fsck(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.records, 2);
        assert_eq!(report.live_keys, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
