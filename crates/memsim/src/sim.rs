//! Kernel replay: stall-cycle accounting for a scheduled loop.
//!
//! The model is in-order and lockup-free: memory accesses issue at their
//! scheduled cycle (plus any stall accumulated so far); a miss allocates an
//! MSHR until the line returns; a load whose *scheduled* latency assumed a
//! hit but that misses (and is not covered by an already outstanding miss to
//! the same line) stalls the processor for the remaining latency. Loads
//! scheduled with the miss latency (binding prefetching) never stall. When
//! all MSHRs are busy a new miss stalls until one frees, which bounds the
//! memory-level parallelism at 8 exactly as the paper's cache does.

use crate::cache::{Cache, CacheConfig};
use hcrf_ir::MemAccess;

/// One memory operation of the scheduled kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledAccess {
    /// Issue cycle within the kernel (0 ≤ cycle < II·SC, the flat schedule).
    pub issue_cycle: u32,
    /// Whether this is a load (true) or a store (false).
    pub is_load: bool,
    /// The access descriptor (array, offset, stride).
    pub access: MemAccess,
    /// The latency the scheduler assumed for this access, in cycles: the hit
    /// latency normally, the miss latency when the load was covered by
    /// binding prefetching.
    pub assumed_latency: u32,
}

/// Result of replaying a kernel through the cache model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemorySimResult {
    /// Memory accesses simulated.
    pub accesses: u64,
    /// Cache misses observed.
    pub misses: u64,
    /// Stall cycles attributable to the simulated iterations.
    pub stall_cycles: u64,
    /// Iterations actually simulated (may be fewer than requested; the
    /// caller scales the stall count to the full trip count).
    pub simulated_iterations: u64,
}

impl MemorySimResult {
    /// Publish the simulation counters into the telemetry metrics registry
    /// under the `memsim.` prefix (no-op on a disabled handle).
    pub fn publish(&self, telemetry: &hcrf_telemetry::Telemetry) {
        telemetry.counter_add("memsim.accesses", self.accesses);
        telemetry.counter_add("memsim.misses", self.misses);
        telemetry.counter_add("memsim.stall_cycles", self.stall_cycles);
        telemetry.counter_add("memsim.simulated_iterations", self.simulated_iterations);
    }

    /// Scale the stall cycles linearly to `total_iterations` (used when only
    /// a sample of the iteration space was simulated).
    pub fn scaled_stalls(&self, total_iterations: u64) -> u64 {
        if self.simulated_iterations == 0 {
            return 0;
        }
        (self.stall_cycles as f64 * total_iterations as f64 / self.simulated_iterations as f64)
            .round() as u64
    }

    /// Miss ratio over the simulated accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Replay `iterations` iterations of a kernel whose memory operations are
/// `accesses` (issue cycles within one iteration of the flat schedule) and
/// whose initiation interval is `ii`.
///
/// `max_simulated_iterations` caps the work for very long loops; the stall
/// count is reported for the simulated iterations only (see
/// [`MemorySimResult::scaled_stalls`]).
pub fn simulate_kernel(
    accesses: &[ScheduledAccess],
    ii: u32,
    iterations: u64,
    config: CacheConfig,
    max_simulated_iterations: u64,
) -> MemorySimResult {
    let ii = ii.max(1) as u64;
    let mut cache = Cache::new(config);
    let sim_iters = iterations.min(max_simulated_iterations).max(1);
    let mut result = MemorySimResult {
        simulated_iterations: sim_iters,
        ..Default::default()
    };
    if accesses.is_empty() {
        return result;
    }
    // Outstanding miss completion times (one entry per busy MSHR) and the
    // lines they are fetching.
    let mut mshrs: Vec<(u64, u64)> = Vec::with_capacity(config.mshrs as usize);
    let mut stall: u64 = 0;

    // Sort accesses by issue cycle so the replay is in program order.
    let mut ordered: Vec<&ScheduledAccess> = accesses.iter().collect();
    ordered.sort_by_key(|a| a.issue_cycle);

    for iter in 0..sim_iters {
        let iter_base = iter * ii + stall;
        for a in &ordered {
            let t_issue = iter_base + a.issue_cycle as u64;
            // Retire completed misses.
            mshrs.retain(|(done, _)| *done > t_issue);
            let addr = a.access.address(iter);
            let line = addr / config.line_bytes as u64;
            result.accesses += 1;
            let hit = cache.access(addr);
            if hit {
                continue;
            }
            result.misses += 1;
            // Covered by an outstanding miss to the same line?
            let outstanding = mshrs.iter().find(|(_, l)| *l == line).map(|(d, _)| *d);
            let completion = match outstanding {
                Some(done) => done,
                None => {
                    // Need a free MSHR; if none, wait (stall) until the
                    // earliest one retires.
                    if mshrs.len() >= config.mshrs as usize {
                        let earliest = mshrs.iter().map(|(d, _)| *d).min().unwrap_or(t_issue);
                        let wait = earliest.saturating_sub(t_issue);
                        stall += wait;
                        mshrs.retain(|(done, _)| *done > earliest);
                    }
                    let done = t_issue + config.miss_latency as u64;
                    mshrs.push((done, line));
                    done
                }
            };
            if a.is_load {
                // The consumer expects the value `assumed_latency` cycles
                // after issue; anything later stalls the processor.
                let expected = t_issue + a.assumed_latency as u64;
                let late = completion.saturating_sub(expected);
                stall += late;
            }
            // Stores never stall the in-order front end (write buffer).
        }
    }
    result.stall_cycles = stall;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_access(cycle: u32, base: u32, assumed: u32) -> ScheduledAccess {
        ScheduledAccess {
            issue_cycle: cycle,
            is_load: true,
            access: MemAccess::unit(base),
            assumed_latency: assumed,
        }
    }

    fn store_access(cycle: u32, base: u32) -> ScheduledAccess {
        ScheduledAccess {
            issue_cycle: cycle,
            is_load: false,
            access: MemAccess::unit(base),
            assumed_latency: 1,
        }
    }

    fn cfg() -> CacheConfig {
        CacheConfig::with_latencies(2, 12)
    }

    #[test]
    fn unit_stride_load_misses_once_per_line() {
        let accesses = vec![unit_access(0, 0, 2)];
        let r = simulate_kernel(&accesses, 1, 256, cfg(), 256);
        // 256 iterations * 8 bytes = 2048 bytes = 64 lines.
        assert_eq!(r.accesses, 256);
        assert_eq!(r.misses, 64);
        assert!(r.stall_cycles > 0);
    }

    #[test]
    fn prefetched_loads_do_not_stall() {
        let miss_lat = cfg().miss_latency;
        let accesses = vec![unit_access(0, 0, miss_lat)];
        let r = simulate_kernel(&accesses, 1, 256, cfg(), 256);
        assert_eq!(r.misses, 64);
        assert_eq!(r.stall_cycles, 0);
    }

    #[test]
    fn stores_never_stall() {
        let accesses = vec![store_access(0, 0)];
        let r = simulate_kernel(&accesses, 1, 256, cfg(), 256);
        assert!(r.misses > 0);
        assert_eq!(r.stall_cycles, 0);
    }

    #[test]
    fn cache_resident_working_set_stops_missing() {
        // A loop re-reading the same 64 addresses: after the first pass the
        // working set is resident.
        let mut accesses = Vec::new();
        for k in 0..8u32 {
            accesses.push(ScheduledAccess {
                issue_cycle: k,
                is_load: true,
                access: MemAccess {
                    base: 0,
                    offset: (k as i64) * 8,
                    stride: 0,
                    size: 8,
                },
                assumed_latency: 2,
            });
        }
        let r = simulate_kernel(&accesses, 8, 128, cfg(), 128);
        // 8 distinct addresses in 2 lines: only 2 cold misses.
        assert_eq!(r.misses, 2);
    }

    #[test]
    fn hit_only_loop_has_no_stalls() {
        let mut accesses = vec![unit_access(0, 0, 2)];
        accesses[0].access.stride = 0; // same address every iteration
        let r = simulate_kernel(&accesses, 1, 64, cfg(), 64);
        assert_eq!(r.misses, 1);
        assert!(r.stall_cycles <= cfg().miss_latency as u64);
    }

    #[test]
    fn scaled_stalls_extrapolates() {
        let r = MemorySimResult {
            accesses: 10,
            misses: 5,
            stall_cycles: 100,
            simulated_iterations: 10,
        };
        assert_eq!(r.scaled_stalls(100), 1000);
        assert_eq!(r.scaled_stalls(10), 100);
        assert!((r.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mshr_pressure_increases_stalls() {
        // 16 independent streams with large strides (every access misses).
        let mut accesses = Vec::new();
        for k in 0..16u32 {
            accesses.push(ScheduledAccess {
                issue_cycle: k % 4,
                is_load: true,
                access: MemAccess {
                    base: k,
                    offset: 0,
                    stride: 4096,
                    size: 8,
                },
                assumed_latency: 2,
            });
        }
        let small_mshr = CacheConfig { mshrs: 2, ..cfg() };
        let r_small = simulate_kernel(&accesses, 4, 64, small_mshr, 64);
        let r_big = simulate_kernel(&accesses, 4, 64, cfg(), 64);
        assert!(
            r_small.stall_cycles >= r_big.stall_cycles,
            "fewer MSHRs cannot reduce stalls ({} vs {})",
            r_small.stall_cycles,
            r_big.stall_cycles
        );
    }
}
