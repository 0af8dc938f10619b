//! Ejection-churn-heavy synthetic kernel family.
//!
//! The standard population (see [`crate::synthetic`]) is calibrated to the
//! paper's loop-bound mix, which leaves backtracking-heavy behaviour rare:
//! most loops place every node without a single forced ejection. This family
//! is the opposite extreme, built so the scheduler spends its time in the
//! `Force_and_Eject` path — the pathological shape the incremental-pressure
//! work (PR 2) identified on `4C16S64` (small `syn*_fu` loops whose divides
//! cannot recur at small IIs and whose forced placements storm the ejection
//! machinery):
//!
//! * **long non-pipelined operations near the II** — divides (17-cycle
//!   occupancy) whose resource-bound MII is far below the II they actually
//!   fit at (a divide needs `ceil(17 / II) ≤ 2` FU copies per row, i.e.
//!   II ≥ 9 on a 2-FU cluster), so every II in between is attempted, forced
//!   and abandoned;
//! * **high resource contention** — a wide fan of adds consuming several
//!   divide results at once crowds the FU rows the divides block, so the
//!   forced placements find victims to eject rather than giving up
//!   immediately;
//! * **deliberately acyclic bodies** — the churn must come from resource
//!   conflicts, not from dependence cycles: cross-recurrence edges make the
//!   eject-violators cascade re-schedule whole recurrences and blow the
//!   attempt budget (minutes per loop), which would make the family useless
//!   as a benchmark input.
//!
//! Generation is fully deterministic given the seed.

use hcrf_ir::{DdgBuilder, Loop, NodeId, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the churn population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnParams {
    /// Number of loops to generate.
    pub loops: usize,
    /// RNG seed (the default seed reproduces the standard churn suite).
    pub seed: u64,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            loops: 64,
            seed: 0xe1ec_7104,
        }
    }
}

/// Generator for the ejection-churn-heavy loop population.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    params: ChurnParams,
}

impl ChurnWorkload {
    /// Create a generator with the given parameters.
    pub fn new(params: ChurnParams) -> Self {
        ChurnWorkload { params }
    }

    /// Generate the whole population.
    pub fn generate(&self) -> Vec<Loop> {
        let mut rng = SmallRng::seed_from_u64(self.params.seed);
        (0..self.params.loops)
            .map(|i| generate_one(i, &mut rng))
            .collect()
    }
}

fn generate_one(index: usize, rng: &mut SmallRng) -> Loop {
    let mut b = DdgBuilder::new(format!("churn{index:04}"));
    let mut array = 0u32;

    // A few loads feeding divide chains: the divides keep the resource-bound
    // MII low while refusing to recur at any II below ~9 on a 2-FU cluster,
    // so the scheduler walks a long ladder of IIs, forcing and ejecting at
    // each rung.
    let divs = rng.gen_range(2..=3usize);
    let mut vals: Vec<NodeId> = Vec::new();
    for _ in 0..divs {
        let l = b.load(array, 8);
        array += 1;
        let d = b.op(OpKind::FDiv);
        b.flow(l, d, 0);
        vals.push(d);
    }

    // A wide fan of adds consuming pairs of earlier results: the fan crowds
    // the FU rows the divides block, so the forced divide placements find
    // single-cycle victims to eject instead of aborting immediately, and the
    // ejected adds re-place into other crowded rows.
    let adds = rng.gen_range(28..=44usize);
    for k in 0..adds {
        let a = b.op(OpKind::FAdd);
        // Operands come from a recent window so lifetimes stay short: the
        // churn must come from FU-row conflicts, not from a register
        // pressure the machine can never satisfy (which would make the loop
        // spill-bound and unschedulable at every II).
        let recent = vals.len().min(8);
        b.flow(vals[vals.len() - 1 - rng.gen_range(0..recent)], a, 0);
        if k > 0 {
            let other = vals[vals.len() - 1 - rng.gen_range(0..recent)];
            if other != a {
                b.flow(other, a, 0);
            }
        }
        vals.push(a);
    }

    // Store a couple of fan results.
    for k in 0..rng.gen_range(1..=2usize) {
        let s = b.store(array, 8);
        array += 1;
        b.flow(vals[vals.len() - 1 - k], s, 0);
    }

    // Streaming memory traffic contending for the (shared) memory ports.
    let streams = rng.gen_range(3..=8usize);
    for _ in 0..streams {
        let l = b.load(array, 8);
        array += 1;
        let s = b.store(array, 8);
        array += 1;
        b.flow(l, s, 0);
    }

    let iterations = 256 + (rng.gen_range(0..8u64)) * 128;
    Loop::new(b.build(), iterations, 8)
}

/// The standard churn suite: `loops` deterministic ejection-churn-heavy
/// loops with the default seed.
pub fn churn_suite(loops: usize) -> Vec<Loop> {
    ChurnWorkload::new(ChurnParams {
        loops,
        ..Default::default()
    })
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_machine::{MachineConfig, RfOrganization};
    use hcrf_sched::{schedule_loop, SchedulerParams};

    #[test]
    fn generation_is_deterministic_and_valid() {
        let a = churn_suite(16);
        let b = churn_suite(16);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.ddg.name, y.ddg.name);
            assert_eq!(x.ddg.num_nodes(), y.ddg.num_nodes());
            assert_eq!(x.ddg.num_edges(), y.ddg.num_edges());
            x.ddg.validate().expect(&x.ddg.name);
        }
    }

    #[test]
    fn names_do_not_collide_with_the_standard_suite() {
        let churn = churn_suite(8);
        for l in &churn {
            assert!(l.ddg.name.starts_with("churn"), "{}", l.ddg.name);
        }
    }

    #[test]
    fn churn_loops_eject_heavily_on_hierarchical_machines() {
        // The family exists to exercise Force_and_Eject: on the 2-FU-per-
        // cluster hierarchical machine the suite must schedule successfully
        // AND pay a substantial number of ejections doing so.
        let loops = churn_suite(8);
        let m = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap());
        let params = SchedulerParams {
            max_ii: 256,
            ..Default::default()
        };
        let mut ejections = 0u64;
        let mut restarts = 0u64;
        for l in &loops {
            let r = schedule_loop(&l.ddg, &m, &params);
            assert!(!r.failed, "{} failed to schedule", l.ddg.name);
            ejections += r.stats.ejections;
            restarts += r.stats.ii_restarts as u64;
        }
        assert!(
            ejections > 40,
            "churn suite should force heavy backtracking, got {ejections} ejections"
        );
        assert!(
            restarts > 100,
            "churn loops should walk a long II ladder, got {restarts} restarts"
        );
    }
}
