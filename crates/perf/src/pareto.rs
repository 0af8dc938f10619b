//! Pareto-comparable metric bundles for design-space exploration.
//!
//! The paper's evaluation juggles four antagonistic objectives: execution
//! time (cycles × clock), register-file area, clock period and memory
//! traffic. A configuration is only *uninteresting* when another one is at
//! least as good on every objective and strictly better on one — Pareto
//! dominance. This module bundles the four objectives of one configuration
//! and extracts the non-dominated frontier of a candidate set; the
//! `hcrf-explore` subsystem ranks whole design spaces with it.

use crate::metrics::SuiteAggregate;

/// The four minimized objectives of one configuration under one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricBundle {
    /// Execution time of the whole suite in nanoseconds.
    pub exec_time_ns: f64,
    /// Total register-file area in Mλ².
    pub total_area: f64,
    /// Clock period in nanoseconds.
    pub clock_ns: f64,
    /// Memory traffic in accesses (original references + spill code).
    pub memory_traffic: u64,
}

impl MetricBundle {
    /// Bundle the objectives of one suite run given the configuration's
    /// hardware area.
    pub fn from_aggregate(aggregate: &SuiteAggregate, total_area: f64) -> Self {
        MetricBundle {
            exec_time_ns: aggregate.execution_time_ns(),
            total_area,
            clock_ns: aggregate.clock_ns,
            memory_traffic: aggregate.memory_traffic,
        }
    }

    /// The objectives as an ordered array (all minimized).
    pub fn objectives(&self) -> [f64; 4] {
        [
            self.exec_time_ns,
            self.total_area,
            self.clock_ns,
            self.memory_traffic as f64,
        ]
    }

    /// Whether `self` Pareto-dominates `other`: at least as good on every
    /// objective and strictly better on at least one.
    pub fn dominates(&self, other: &MetricBundle) -> bool {
        let a = self.objectives();
        let b = other.objectives();
        let mut strictly_better = false;
        for (x, y) in a.iter().zip(b.iter()) {
            if x > y {
                return false;
            }
            if x < y {
                strictly_better = true;
            }
        }
        strictly_better
    }
}

/// Mask of the Pareto-optimal (non-dominated) points of `points`.
///
/// `mask[i]` is `true` when no other point dominates `points[i]`. Duplicate
/// bundles are all kept (none dominates its copy).
pub fn pareto_frontier(points: &[MetricBundle]) -> Vec<bool> {
    points
        .iter()
        .map(|candidate| !points.iter().any(|other| other.dominates(candidate)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle(time: f64, area: f64, clock: f64, traffic: u64) -> MetricBundle {
        MetricBundle {
            exec_time_ns: time,
            total_area: area,
            clock_ns: clock,
            memory_traffic: traffic,
        }
    }

    #[test]
    fn dominance_requires_all_objectives() {
        let better = bundle(1.0, 1.0, 1.0, 10);
        let worse = bundle(2.0, 2.0, 2.0, 20);
        let mixed = bundle(0.5, 3.0, 1.0, 10);
        assert!(better.dominates(&worse));
        assert!(!worse.dominates(&better));
        // Trade-offs do not dominate in either direction.
        assert!(!better.dominates(&mixed));
        assert!(!mixed.dominates(&better));
    }

    #[test]
    fn equal_points_do_not_dominate_each_other() {
        let a = bundle(1.0, 1.0, 1.0, 10);
        assert!(!a.dominates(&a));
        let mask = pareto_frontier(&[a, a]);
        assert_eq!(mask, vec![true, true]);
    }

    #[test]
    fn frontier_extraction() {
        let points = vec![
            bundle(1.0, 4.0, 1.0, 10), // fast but big: on frontier
            bundle(4.0, 1.0, 0.5, 10), // small and fast clock: on frontier
            bundle(4.0, 4.0, 1.0, 10), // dominated by the first
            bundle(2.0, 2.0, 0.8, 5),  // balanced: on frontier
        ];
        let mask = pareto_frontier(&points);
        assert_eq!(mask, vec![true, true, false, true]);
    }

    #[test]
    fn from_aggregate_carries_time_and_traffic() {
        let mut agg = SuiteAggregate::new("S64", 2.0);
        agg.useful_cycles = 100;
        agg.stall_cycles = 50;
        agg.memory_traffic = 777;
        let m = MetricBundle::from_aggregate(&agg, 12.5);
        assert!((m.exec_time_ns - 300.0).abs() < 1e-9);
        assert_eq!(m.memory_traffic, 777);
        assert!((m.total_area - 12.5).abs() < 1e-9);
        assert!((m.clock_ns - 2.0).abs() < 1e-9);
    }
}
