//! Clock-cycle derivation from register-file access time and the
//! per-configuration operation latencies (Table 5, last three columns).

use hcrf_ir::OpLatencies;

/// FO4-based clock model at a given technology node.
///
/// Following the paper (and Hrishikesh et al.), the cycle time of each
/// processor configuration is determined by the access time of its critical
/// register bank: the access time is converted to a logic depth in FO4
/// inverter delays, and the clock cycle is that many FO4s. Operation
/// latencies are then re-quantised: the functional-unit and memory-hit
/// delays are roughly constant in nanoseconds, so configurations with faster
/// clocks need more cycles per operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockModel {
    /// Delay of one fanout-of-4 inverter, in ns (≈ 38.1 ps at 0.10 µm).
    pub fo4_ns: f64,
    /// Total wall-clock latency of an add/multiply pipeline, in ns.
    pub fu_op_ns: f64,
    /// Minimum add/multiply latency in cycles (the paper never goes below
    /// the baseline's 4 cycles).
    pub fu_min_cycles: u32,
    /// Total wall-clock latency of a first-level cache hit, in ns.
    pub mem_hit_ns: f64,
    /// Minimum memory-hit latency in cycles.
    pub mem_min_cycles: u32,
    /// Store latency in cycles (constant: 1).
    pub store_cycles: u32,
    /// Miss latency in ns (paper: 10 ns).
    pub miss_ns: f64,
}

impl Default for ClockModel {
    fn default() -> Self {
        ClockModel {
            fo4_ns: 0.0381,
            fu_op_ns: 3.0,
            fu_min_cycles: 4,
            mem_hit_ns: 2.1,
            mem_min_cycles: 2,
            store_cycles: 1,
            miss_ns: 10.0,
        }
    }
}

impl ClockModel {
    /// The model calibrated for the paper's 0.10 µm technology point.
    pub fn at_100nm() -> Self {
        Self::default()
    }

    /// Logic depth (in FO4) required to access a structure with the given
    /// access time in a single cycle.
    pub fn logic_depth(&self, access_ns: f64) -> u32 {
        (access_ns / self.fo4_ns).ceil().max(1.0) as u32
    }

    /// Clock cycle (ns) for a configuration whose critical bank has the
    /// given access time: the logic depth rounded up to whole FO4s.
    pub fn clock_ns(&self, access_ns: f64) -> f64 {
        self.logic_depth(access_ns) as f64 * self.fo4_ns
    }

    /// Functional-unit (add/multiply) latency in cycles at a given clock.
    pub fn fu_latency(&self, clock_ns: f64) -> u32 {
        ((self.fu_op_ns / clock_ns).round() as u32).max(self.fu_min_cycles)
    }

    /// Memory hit latency in cycles at a given clock.
    pub fn mem_latency(&self, clock_ns: f64) -> u32 {
        ((self.mem_hit_ns / clock_ns).round() as u32).max(self.mem_min_cycles)
    }

    /// Cache miss latency in cycles at a given clock (paper: 10 ns).
    pub fn miss_latency(&self, clock_ns: f64) -> u32 {
        (self.miss_ns / clock_ns).ceil().max(1.0) as u32
    }

    /// Latency in cycles of a LoadR/StoreR operation given the shared-bank
    /// access time: 1 cycle if the shared bank can be accessed within one
    /// clock, otherwise the number of cycles needed.
    pub fn inter_level_latency(&self, shared_access_ns: f64, clock_ns: f64) -> u32 {
        (shared_access_ns / clock_ns).ceil().max(1.0) as u32
    }

    /// Complete per-configuration latency table, given the FU/memory
    /// latencies (in cycles) and the LoadR/StoreR latency.
    pub fn latencies(&self, fu: u32, mem: u32, miss: u32, inter_level: u32) -> OpLatencies {
        OpLatencies {
            fadd: fu,
            fmul: fu,
            // The divide and square root latencies scale with the FU latency
            // relative to the 4-cycle baseline (17 and 30 cycles at 4).
            fdiv: ((17.0 * fu as f64 / 4.0).round() as u32).max(17),
            fsqrt: ((30.0 * fu as f64 / 4.0).round() as u32).max(30),
            load: mem,
            store: self.store_cycles,
            mov: 1,
            loadr: inter_level,
            storer: inter_level,
            copy: 1,
            load_miss: miss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::paper_table5;

    #[test]
    fn clock_from_reference_access_times_matches_paper_within_5_percent() {
        let m = ClockModel::at_100nm();
        for row in paper_table5() {
            let clock = m.clock_ns(row.critical_access_ns());
            let err = (clock - row.clock_ns).abs() / row.clock_ns;
            assert!(
                err < 0.05,
                "{}: model {clock:.3} vs paper {:.3}",
                row.config,
                row.clock_ns
            );
        }
    }

    #[test]
    fn fu_latency_tracks_paper_trend() {
        let m = ClockModel::at_100nm();
        // At the S128 clock the FU stays at 4 cycles; at the 8C16S16 clock it
        // grows to 8 (Table 5).
        assert_eq!(m.fu_latency(1.181), 4);
        assert_eq!(m.fu_latency(0.389), 8);
        assert_eq!(m.fu_latency(0.497), 6);
    }

    #[test]
    fn mem_latency_is_at_least_two_and_grows_with_faster_clocks() {
        let m = ClockModel::at_100nm();
        assert_eq!(m.mem_latency(1.181), 2);
        assert!(m.mem_latency(0.389) >= 4);
        assert!(m.mem_latency(0.389) >= m.mem_latency(0.713));
    }

    #[test]
    fn fu_and_mem_latencies_close_to_paper_table5() {
        // The analytical latency quantisation should be within +-1 cycle of
        // every published row.
        let m = ClockModel::at_100nm();
        for row in paper_table5() {
            let fu = m.fu_latency(row.clock_ns);
            let mem = m.mem_latency(row.clock_ns);
            assert!(
                (fu as i64 - row.fu_latency as i64).abs() <= 1,
                "{}: fu {fu} vs paper {}",
                row.config,
                row.fu_latency
            );
            assert!(
                (mem as i64 - row.mem_latency as i64).abs() <= 1,
                "{}: mem {mem} vs paper {}",
                row.config,
                row.mem_latency
            );
        }
    }

    #[test]
    fn miss_latency_is_10ns_worth_of_cycles() {
        let m = ClockModel::at_100nm();
        assert_eq!(m.miss_latency(1.0), 10);
        assert_eq!(m.miss_latency(0.5), 20);
    }

    #[test]
    fn inter_level_latency_two_cycles_for_slow_shared_banks() {
        let m = ClockModel::at_100nm();
        // 8C16S16: shared access 0.532 ns at a 0.389 ns clock -> 2 cycles.
        assert_eq!(m.inter_level_latency(0.532, 0.389), 2);
        // 4C32S16: 0.456 ns at 0.461 ns -> 1 cycle.
        assert_eq!(m.inter_level_latency(0.456, 0.461), 1);
    }

    #[test]
    fn latency_table_scales_div_sqrt() {
        let m = ClockModel::at_100nm();
        let lat = m.latencies(8, 5, 26, 2);
        assert_eq!(lat.fadd, 8);
        assert_eq!(lat.fdiv, 34);
        assert_eq!(lat.fsqrt, 60);
        assert_eq!(lat.loadr, 2);
        assert_eq!(lat.load_miss, 26);
    }

    #[test]
    fn logic_depth_matches_paper_within_one_fo4() {
        let m = ClockModel::at_100nm();
        for row in paper_table5() {
            let d = m.logic_depth(row.critical_access_ns());
            assert!(
                (d as i64 - row.logic_depth_fo4 as i64).abs() <= 1,
                "{}: {d} vs {}",
                row.config,
                row.logic_depth_fo4
            );
        }
    }
}
