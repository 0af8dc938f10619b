//! The crash-safe result store: one append-only segment file.
//!
//! [`ResultCache`] persists `CacheKey -> CachedResult` records in two files
//! under the cache directory:
//!
//! ```text
//! <dir>/results.seg   framed records, append-only
//! <dir>/results.bad   checksum-failed bytes, for autopsy
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
//! **Recovery.** Opening the store scans the segment: a record that extends
//! past the end of the file with no later magic is a *torn tail* (a crash
//! mid-append) and is truncated away; a record whose checksum fails — or
//! stray bytes where a header should be — is *quarantined*: the damaged
//! byte range moves to the sidecar, the scan resynchronizes at the next
//! magic, and the segment is rewritten with only the surviving records so
//! the damage is counted once, not on every reopen. Either way the store
//! never serves a record whose checksum does not match: corruption degrades
//! into a re-evaluation, never a wrong result. A directory without
//! `results.seg` (a cold cache, or one written in another layout) opens
//! empty: every lookup misses and re-runs.
//!
//! **Writes** go through a single `write_all` on an `O_APPEND` handle
//! followed by `sync_data`, so concurrent stores (same process or not)
//! interleave whole records, never bytes, and a `kill -9` leaves at most
//! one torn tail. Duplicate appends of one digest are resolved
//! last-write-wins by the in-memory index and folded away by
//! [`ResultCache::compact`]. Segment rewrites (recovery, compaction) go
//! through a tmp file renamed over the segment; a tmp file a crash leaves
//! behind is never live data and is deleted on the next open.

use crate::cache::{CacheKey, CacheStats, CachedResult};
use crate::json::Json;
use hcrf_engine::FaultPlan;
use hcrf_machine::stable::StableHasher;
use hcrf_telemetry::Telemetry;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Record magic. Every byte is `>= 0x80` so the sequence cannot occur in a
/// pure-ASCII JSON payload — resync-by-magic-scan has no false positives.
pub const RECORD_MAGIC: [u8; 4] = [0x8b, 0xc4, 0xf5, 0x9e];

/// Bytes of framing before the payload.
pub const RECORD_HEADER: usize = 4 + 4 + 8 + 8;

/// Upper bound on a sane payload (real payloads are a few hundred bytes);
/// a longer claimed length is treated as corruption, not an allocation.
const MAX_PAYLOAD: u32 = 1 << 20;

/// The segment every record is appended to.
const SEGMENT: &str = "results.seg";

/// The quarantine sidecar damaged bytes move to.
const SIDECAR: &str = "results.bad";

/// Distinguishes rewrite/compaction tmp files of concurrent stores in one
/// process — `process::id()` alone collides there.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

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

/// The segment's bytes; a missing segment reads as empty.
fn read_segment(path: &Path) -> io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Read-only integrity report of a store directory (`explore --fsck`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Valid records in the segment (duplicates included).
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
    /// Whether the segment is clean (an existing quarantine sidecar is not
    /// damage — it is already isolated).
    pub fn is_clean(&self) -> bool {
        self.corrupt_records == 0 && self.torn_bytes == 0
    }
}

/// What a recovery scan found in the segment's bytes.
struct Scan {
    /// Byte ranges of valid records, in file order.
    good: Vec<(usize, usize)>,
    /// Byte ranges that failed validation (checksum, framing, stray bytes).
    bad: Vec<(usize, usize)>,
    /// Bytes of torn tail (start offset == file length - torn).
    torn: usize,
}

/// Scan the segment's bytes: accept framed records with valid checksums,
/// resynchronize at the next magic after damage, and classify a record
/// running past the end with nothing after it as a torn tail.
fn scan_segment(bytes: &[u8]) -> Scan {
    let mut scan = Scan {
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

/// One session over the content-addressed result store: the executor's
/// lookups and appends, the in-memory index, the session counters and the
/// telemetry wiring. See the module docs for the on-disk format and the
/// recovery semantics.
#[derive(Debug)]
pub struct ResultCache {
    /// The store directory; `None` for a disabled cache.
    dir: Option<PathBuf>,
    /// `O_APPEND` handle on the segment, opened by the first append.
    appender: Option<File>,
    index: HashMap<u64, (CacheKey, CachedResult)>,
    stats: CacheStats,
    fault_plan: Option<FaultPlan>,
    telemetry: Telemetry,
}

impl ResultCache {
    /// Cache rooted at `dir` (created if missing). Opening runs the
    /// recovery scan.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_traced(dir, &Telemetry::disabled())
    }

    /// [`ResultCache::open`] with a telemetry sink: recovery publishes the
    /// `explore.store.{recovered,corrupt,torn_bytes}` counters, and
    /// warnings name the damaged offsets.
    pub fn open_traced(dir: impl AsRef<Path>, telemetry: &Telemetry) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut cache = ResultCache {
            dir: Some(dir.clone()),
            telemetry: telemetry.clone(),
            ..Self::disabled()
        };
        cache.recover(&dir)?;
        sweep_tmp_droppings(&dir)?;
        let s = cache.stats;
        telemetry.counter_add("explore.store.recovered", s.recovered);
        telemetry.counter_add("explore.store.corrupt", s.corrupt);
        telemetry.counter_add("explore.store.torn_bytes", s.torn_bytes);
        Ok(cache)
    }

    /// A disabled cache: every lookup misses, stores are dropped.
    pub fn disabled() -> Self {
        ResultCache {
            dir: None,
            appender: None,
            index: HashMap::new(),
            stats: CacheStats::default(),
            fault_plan: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Inject deterministic store faults (write truncation, record
    /// corruption). Test/drill seam; a disabled cache ignores the plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Whether the cache persists anything.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Session counters (recovery + lookups + appends).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Look `key` up in the in-memory index. The embedded key is compared
    /// in full, so a digest collision is a miss, never a wrong result;
    /// quarantined and missing entries are misses too.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<CachedResult> {
        let found = match self.index.get(&key.digest()) {
            Some((stored, result)) if stored == key => Some(result.clone()),
            _ => None,
        };
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Persist `result` under `key` (a durable checksummed append) and
    /// update the index (last write wins).
    pub fn store(&mut self, key: &CacheKey, result: &CachedResult) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let digest = key.digest();
        let payload = result.to_json(key).to_compact().into_bytes();
        let mut record = frame_record(digest, &payload);
        if self.appender.is_none() {
            self.appender = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join(SEGMENT))?,
            );
        }
        let file = self.appender.as_mut().expect("appender just opened");
        if let Some(plan) = self.fault_plan {
            if plan.truncates_write(digest) {
                // Simulated kill -9 mid-append: half the record reaches the
                // disk, the caller sees the write fail. Recovery truncates
                // a torn tail, or quarantines the half record once later
                // appends land behind it.
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
        self.stats.stores += 1;
        self.telemetry.counter_add("explore.store.appends", 1);
        self.index.insert(digest, (*key, result.clone()));
        Ok(())
    }

    /// Rewrite the segment with exactly the live records (duplicates and
    /// quarantined damage fold away), sorted by digest. Atomic: tmp file +
    /// rename, with a process-and-sequence-unique tmp name.
    pub fn compact(&mut self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut digests: Vec<u64> = self.index.keys().copied().collect();
        digests.sort_unstable();
        let mut bytes = Vec::new();
        for digest in digests {
            let (key, result) = &self.index[&digest];
            let payload = result.to_json(key).to_compact().into_bytes();
            bytes.extend_from_slice(&frame_record(digest, &payload));
        }
        // Drop the append handle before replacing the file: a handle kept
        // across the rename would keep appending to the unlinked inode.
        self.appender = None;
        let path = dir.join(SEGMENT);
        if bytes.is_empty() {
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
        } else {
            rewrite_atomic(&path, &bytes)?;
        }
        self.telemetry.debug("explore store: compacted");
        Ok(())
    }

    /// Read-only integrity scan of a store directory: no rewrite, no
    /// quarantine. Safe to run concurrently with readers.
    pub fn fsck(dir: impl AsRef<Path>) -> io::Result<FsckReport> {
        let dir = dir.as_ref();
        let bytes = read_segment(&dir.join(SEGMENT))?;
        let scan = scan_segment(&bytes);
        let live: HashSet<&[u8]> = scan
            .good
            .iter()
            .map(|&(start, _)| &bytes[start + 8..start + 16])
            .collect();
        Ok(FsckReport {
            records: scan.good.len() as u64,
            live_keys: live.len() as u64,
            corrupt_records: scan.bad.len() as u64,
            torn_bytes: scan.torn as u64,
            quarantined_bytes: std::fs::metadata(dir.join(SIDECAR)).map_or(0, |m| m.len()),
        })
    }

    /// Recover the segment: scan, index the valid records (last write wins
    /// in file order), quarantine damage, truncate a torn tail. Any anomaly
    /// rewrites the segment with only the surviving records so the damage
    /// is counted once, not on every reopen.
    fn recover(&mut self, dir: &Path) -> io::Result<()> {
        let path = dir.join(SEGMENT);
        let bytes = read_segment(&path)?;
        let scan = scan_segment(&bytes);
        for &(start, end) in &scan.good {
            self.stats.recovered += 1;
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
        // Quarantine the damaged ranges, then rewrite the segment with only
        // the surviving records (atomic tmp + rename).
        if !scan.bad.is_empty() {
            let mut sidecar = OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(SIDECAR))?;
            for &(start, end) in &scan.bad {
                sidecar.write_all(&bytes[start..end])?;
                self.stats.corrupt += 1;
                self.telemetry.warn(format!(
                    "explore store: quarantined {} corrupt byte(s) from {} (offset {start})",
                    end - start,
                    path.display()
                ));
            }
            sidecar.sync_data()?;
        }
        if scan.torn > 0 {
            self.stats.torn_bytes += scan.torn as u64;
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
            std::fs::remove_file(&path)
        } else {
            rewrite_atomic(&path, &survivors)
        }
    }
}

/// Delete `.tmp.` files an interrupted [`rewrite_atomic`] left behind: the
/// rename never happened, so they are not live data.
fn sweep_tmp_droppings(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)?.flatten() {
        if entry.file_name().to_string_lossy().contains(".tmp.") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Replace `path` with `bytes` atomically. The tmp name carries the process
/// id *and* a process-global sequence number: two stores rewriting in one
/// process must never share a tmp file.
fn rewrite_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Scenario;
    use hcrf_machine::{MachineConfig, RfOrganization};
    use hcrf_perf::SuiteAggregate;
    use hcrf_sched::SchedulerParams;

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
        let key = key_for("4C32S16", 7);
        let result = result_for("4C32S16", 42);
        {
            let mut store = ResultCache::open(&dir).unwrap();
            assert!(store.lookup(&key).is_none());
            store.store(&key, &result).unwrap();
            assert_eq!(store.lookup(&key), Some(result.clone()));
        }
        let mut store = ResultCache::open(&dir).unwrap();
        assert_eq!(store.lookup(&key), Some(result));
        assert_eq!(store.stats().recovered, 1);
        assert_eq!(store.stats().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_write_wins_and_compaction_folds_duplicates() {
        let dir = temp_dir("lww");
        let key = key_for("S64", 1);
        let mut store = ResultCache::open(&dir).unwrap();
        store.store(&key, &result_for("S64", 10)).unwrap();
        store.store(&key, &result_for("S64", 20)).unwrap();
        assert_eq!(store.lookup(&key).unwrap().aggregate.sum_ii, 20);
        drop(store);

        let mut store = ResultCache::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 2, "both records on disk");
        assert_eq!(store.lookup(&key).unwrap().aggregate.sum_ii, 20);
        store.compact().unwrap();
        drop(store);

        let mut store = ResultCache::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 1, "compaction deduplicated");
        assert_eq!(store.lookup(&key).unwrap().aggregate.sum_ii, 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_a_clean_store_clean() {
        let dir = temp_dir("fsck");
        let mut store = ResultCache::open(&dir).unwrap();
        store
            .store(&key_for("S64", 1), &result_for("S64", 5))
            .unwrap();
        store
            .store(&key_for("S128", 1), &result_for("S128", 6))
            .unwrap();
        drop(store);
        let report = ResultCache::fsck(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.records, 2);
        assert_eq!(report.live_keys, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
