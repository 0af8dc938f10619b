//! Wide-window synthetic kernel family: large IIs, crowded rows, no churn.
//!
//! The churn family (see [`crate::churn`]) stresses the *backtracking*
//! machinery; this family stresses the other per-attempt cost the scheduler
//! pays even when nothing is ever ejected — the **free-slot window search**.
//! Every loop is built memory-bound with a port-saturating stream count, so:
//!
//! * **the II is large** — the shared memory ports (4 on the paper baseline)
//!   bound ResMII at `mem_ops / 4`, between ~19 and ~36 here, giving every
//!   operation an II-wide scan window;
//! * **the rows the scans walk are crowded** — the scheduler packs the
//!   memory rows tight by construction (the k-th stream finds the first
//!   `k / ports` rows full), so the window search meets a long run of
//!   occupied rows before the first free one;
//! * **long non-pipelined operations ride along** — a couple of 17-cycle
//!   divides (and 30-cycle square roots in the larger shapes) exercise the
//!   multi-row span checks of the window search, but only at IIs
//!   where they fit on a single unit (`occupancy ≤ II` is guaranteed by the
//!   stream-count floor), so they never trigger the churn family's II-ladder
//!   storms;
//! * **bodies are acyclic** — the II must come from the resource bound, not
//!   from recurrences, or the windows would shrink to dependence slack.
//!
//! Generation is fully deterministic given the seed.

use hcrf_ir::{DdgBuilder, Loop, NodeId, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the wide-window population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideWindowParams {
    /// Number of loops to generate.
    pub loops: usize,
    /// RNG seed (the default seed reproduces the standard wide suite).
    pub seed: u64,
}

impl Default for WideWindowParams {
    fn default() -> Self {
        WideWindowParams {
            loops: 32,
            seed: 0x51de_0b17,
        }
    }
}

/// Generator for the wide-window loop population.
#[derive(Debug, Clone)]
pub struct WideWindowWorkload {
    params: WideWindowParams,
}

impl WideWindowWorkload {
    /// Create a generator with the given parameters.
    pub fn new(params: WideWindowParams) -> Self {
        WideWindowWorkload { params }
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
    let mut b = DdgBuilder::new(format!("wide{index:04}"));
    let mut array = 0u32;

    // Alternate two shapes: a "divide" shape whose stream count floors the
    // II at >= 19 (a 17-cycle divide fits any single unit) and a "sqrt"
    // shape flooring it at >= 31 (a 30-cycle square root fits too).
    let sqrt_shape = index % 2 == 1;
    let streams = if sqrt_shape {
        rng.gen_range(62..=72usize) // 124..144 memory ops -> II >= 31
    } else {
        rng.gen_range(38..=48usize) // 76..96 memory ops -> II >= 19
    };

    // Port-saturating load/store streams, each with one cheap FU operation
    // in the middle so the lifetimes stay short (the family must be bounded
    // by the memory ports, not by register pressure).
    let mut vals: Vec<NodeId> = Vec::new();
    for k in 0..streams {
        let l = b.load(array, 8);
        array += 1;
        let f = b.op(if k % 3 == 0 {
            OpKind::FMul
        } else {
            OpKind::FAdd
        });
        b.flow(l, f, 0);
        // A little cross-stream mixing widens the dependence fan without
        // creating long lifetimes (operands come from a recent window).
        if !vals.is_empty() && k % 4 == 0 {
            let recent = vals.len().min(6);
            b.flow(vals[vals.len() - 1 - rng.gen_range(0..recent)], f, 0);
        }
        let s = b.store(array, 8);
        array += 1;
        b.flow(f, s, 0);
        vals.push(f);
    }

    // The long non-pipelined tail: divides (both shapes) and square roots
    // (sqrt shape only), consuming recent fan results and feeding stores so
    // they sit on real paths. The stream-count floor keeps occupancy <= II,
    // so these fit on one unit at the resource-bound II — they exercise the
    // multi-row span checks of the slot search without churning.
    let longs = rng.gen_range(2..=4usize);
    for j in 0..longs {
        let kind = if sqrt_shape && j % 2 == 0 {
            OpKind::FSqrt
        } else {
            OpKind::FDiv
        };
        let d = b.op(kind);
        let recent = vals.len().min(8);
        b.flow(vals[vals.len() - 1 - rng.gen_range(0..recent)], d, 0);
        let s = b.store(array, 8);
        array += 1;
        b.flow(d, s, 0);
    }

    let iterations = 128 + (rng.gen_range(0..8u64)) * 64;
    Loop::new(b.build(), iterations, 8)
}

/// The standard wide-window suite: `loops` deterministic memory-bound
/// large-II loops with the default seed.
pub fn wide_window_suite(loops: usize) -> Vec<Loop> {
    WideWindowWorkload::new(WideWindowParams {
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
        let a = wide_window_suite(12);
        let b = wide_window_suite(12);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.ddg.name, y.ddg.name);
            assert_eq!(x.ddg.num_nodes(), y.ddg.num_nodes());
            assert_eq!(x.ddg.num_edges(), y.ddg.num_edges());
            x.ddg.validate().expect(&x.ddg.name);
            assert!(x.ddg.name.starts_with("wide"), "{}", x.ddg.name);
        }
    }

    #[test]
    fn wide_loops_are_memory_bound_at_large_ii_without_churn() {
        // The family exists to stress the slot-window search, not the
        // backtracking machinery: every loop must reach a large II (wide
        // windows) while walking a *short* II ladder (no divide storms).
        let loops = wide_window_suite(4);
        let m = MachineConfig::paper_baseline(RfOrganization::parse("S128").unwrap());
        for l in &loops {
            let r = schedule_loop(&l.ddg, &m, &SchedulerParams::default());
            assert!(!r.failed, "{} failed to schedule", l.ddg.name);
            assert!(
                r.ii >= 19,
                "{}: II {} too small for wide windows",
                l.ddg.name,
                r.ii
            );
            assert!(
                r.stats.ii_restarts <= 4,
                "{}: {} II restarts — the family must not churn",
                l.ddg.name,
                r.stats.ii_restarts
            );
        }
    }

    #[test]
    fn long_occupancy_ops_fit_the_resource_bound_ii() {
        // The stream-count floors guarantee occupancy <= II on every
        // generated loop: divides need II >= 17, square roots II >= 30.
        let lat = hcrf_ir::OpLatencies::paper_baseline();
        for l in wide_window_suite(8) {
            let mem_ops = l.ddg.memory_ops() as u32;
            let floor = mem_ops.div_ceil(4);
            let has_sqrt = l
                .ddg
                .node_ids()
                .any(|n| l.ddg.node(n).kind == OpKind::FSqrt);
            let need = if has_sqrt {
                lat.occupancy(OpKind::FSqrt)
            } else {
                lat.occupancy(OpKind::FDiv)
            };
            assert!(
                floor >= need,
                "{}: resource-bound II {floor} below occupancy {need}",
                l.ddg.name
            );
        }
    }
}
