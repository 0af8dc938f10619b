//! Set-associative cache model.

/// Cache geometry and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (paper: 32 KB).
    pub size_bytes: u32,
    /// Line size in bytes (paper: 32 B).
    pub line_bytes: u32,
    /// Associativity (the paper does not state it; 2-way is used).
    pub associativity: u32,
    /// Maximum number of outstanding misses (lockup-free MSHRs, paper: 8).
    pub mshrs: u32,
    /// Number of cache ports (paper: 4, one per memory port).
    pub ports: u32,
    /// Hit latency in cycles (configuration dependent, Table 5).
    pub hit_latency: u32,
    /// Miss latency in cycles (10 ns translated at the configuration's clock).
    pub miss_latency: u32,
}

impl CacheConfig {
    /// The paper's cache with the S128 baseline latencies (2-cycle hit,
    /// 10 ns ≈ 9-cycle miss at the 1.181 ns clock).
    pub fn paper_baseline() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            associativity: 2,
            mshrs: 8,
            ports: 4,
            hit_latency: 2,
            miss_latency: 9,
        }
    }

    /// Same geometry with explicit latencies (used per configuration).
    pub fn with_latencies(hit: u32, miss: u32) -> Self {
        CacheConfig {
            hit_latency: hit,
            miss_latency: miss,
            ..Self::paper_baseline()
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        (self.size_bytes / self.line_bytes / self.associativity).max(1)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * associativity + way]`
    tags: Vec<Option<u64>>,
    /// LRU counters (higher = more recently used).
    lru: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        let entries = (config.sets() * config.associativity) as usize;
        Cache {
            config,
            tags: vec![None; entries],
            lru: vec![0; entries],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset contents and counters.
    pub fn reset(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = None);
        self.lru.iter_mut().for_each(|l| *l = 0);
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes as u64
    }

    /// Access the cache at `addr`; returns `true` on a hit. Misses allocate
    /// the line (allocate-on-miss for both loads and stores).
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = self.line_of(addr);
        let sets = self.config.sets() as u64;
        let set = (line % sets) as usize;
        let assoc = self.config.associativity as usize;
        let base = set * assoc;
        // Hit?
        for way in 0..assoc {
            if self.tags[base + way] == Some(line) {
                self.lru[base + way] = self.clock;
                return true;
            }
        }
        // Miss: fill the LRU way.
        self.stats.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for way in 0..assoc {
            match self.tags[base + way] {
                None => {
                    victim = way;
                    break;
                }
                Some(_) => {
                    if self.lru[base + way] < oldest {
                        oldest = self.lru[base + way];
                        victim = way;
                    }
                }
            }
        }
        self.tags[base + victim] = Some(line);
        self.lru[base + victim] = self.clock;
        false
    }

    /// Whether an address is currently cached (no side effects).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let sets = self.config.sets() as u64;
        let set = (line % sets) as usize;
        let assoc = self.config.associativity as usize;
        (0..assoc).any(|way| self.tags[set * assoc + way] == Some(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = CacheConfig::paper_baseline();
        assert_eq!(c.sets(), 512);
        assert_eq!(c.sets() * c.associativity * c.line_bytes, 32 * 1024);
    }

    #[test]
    fn spatial_locality_hits_within_a_line() {
        let mut c = Cache::new(CacheConfig::paper_baseline());
        assert!(!c.access(0x0));
        for off in (8..32).step_by(8) {
            assert!(c.access(off), "offset {off} should hit");
        }
        assert!(!c.access(32)); // next line
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 5);
    }

    #[test]
    fn lru_replacement_within_a_set() {
        let cfg = CacheConfig::paper_baseline();
        let mut c = Cache::new(cfg);
        let set_stride = (cfg.sets() * cfg.line_bytes) as u64; // maps to same set
        let a = 0u64;
        let b = set_stride;
        let d = 2 * set_stride;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // refresh a
        assert!(!c.access(d)); // evicts b (LRU)
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn streaming_misses_once_per_line() {
        let mut c = Cache::new(CacheConfig::paper_baseline());
        for i in 0..1024u64 {
            c.access(i * 8);
        }
        // 1024 * 8 bytes = 8 KiB = 256 lines
        assert_eq!(c.stats().misses, 256);
        assert_eq!(c.stats().accesses, 1024);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(CacheConfig::paper_baseline());
        // Two passes over 64 KB (twice the capacity) with 32-byte strides.
        for _ in 0..2 {
            for i in 0..2048u64 {
                c.access(i * 32);
            }
        }
        // Every access in the second pass misses too (LRU + streaming).
        assert_eq!(c.stats().misses, 4096);
    }

    #[test]
    fn probe_does_not_affect_stats() {
        let mut c = Cache::new(CacheConfig::paper_baseline());
        c.access(0);
        let before = c.stats();
        assert!(c.probe(8));
        assert!(!c.probe(4096));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = Cache::new(CacheConfig::paper_baseline());
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.probe(0));
    }
}
