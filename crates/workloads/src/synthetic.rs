//! Seeded synthetic loop population.
//!
//! Substitutes for the Perfect Club loop workbench (1258 software-pipelineable
//! innermost loops). Loops are generated from three archetypes whose mix is
//! calibrated so that, on the baseline 8-FU / 4-memory-port machine with a
//! monolithic register file, the population is roughly 20 % compute bound,
//! 50 % memory bound and 30 % recurrence bound — the Table 1 breakdown:
//!
//! * **Memory streaming** loops: load/store rich bodies with short arithmetic
//!   chains (copies, scaled updates, gathers);
//! * **Compute** loops: wide expression trees and multiply-add chains, with an
//!   occasional divide or square root;
//! * **Recurrence** loops: first- and second-order recurrences (sums,
//!   filters, tridiagonal-style back substitutions) with extra streaming work
//!   around them.
//!
//! Generation is fully deterministic given the seed.

use hcrf_ir::{DdgBuilder, Loop, NodeId, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticParams {
    /// Number of loops to generate.
    pub loops: usize,
    /// RNG seed (the default seed reproduces the standard suite).
    pub seed: u64,
    /// Fraction of memory-streaming loops.
    pub memory_fraction: f64,
    /// Fraction of recurrence-bound loops.
    pub recurrence_fraction: f64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            loops: 1232,
            seed: 0x1cf1_2003,
            memory_fraction: 0.52,
            recurrence_fraction: 0.28,
        }
    }
}

/// Generator for the synthetic loop population.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    params: SyntheticParams,
}

impl SyntheticWorkload {
    /// Create a generator with the given parameters.
    pub fn new(params: SyntheticParams) -> Self {
        SyntheticWorkload { params }
    }

    /// Generate the whole population.
    pub fn generate(&self) -> Vec<Loop> {
        let mut rng = SmallRng::seed_from_u64(self.params.seed);
        (0..self.params.loops)
            .map(|i| self.generate_one(i, &mut rng))
            .collect()
    }

    fn generate_one(&self, index: usize, rng: &mut SmallRng) -> Loop {
        let archetype = {
            let x: f64 = rng.gen();
            if x < self.params.memory_fraction {
                Archetype::Memory
            } else if x < self.params.memory_fraction + self.params.recurrence_fraction {
                Archetype::Recurrence
            } else {
                Archetype::Compute
            }
        };
        let name = format!("syn{index:04}_{}", archetype.tag());
        let mut b = DdgBuilder::new(name);
        match archetype {
            Archetype::Memory => build_memory_loop(&mut b, rng),
            Archetype::Compute => build_compute_loop(&mut b, rng),
            Archetype::Recurrence => build_recurrence_loop(&mut b, rng),
        }
        let iterations = log_uniform(rng, 32, 4096);
        let invocations = log_uniform(rng, 1, 256);
        Loop::new(b.build(), iterations, invocations)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Archetype {
    Memory,
    Compute,
    Recurrence,
}

impl Archetype {
    fn tag(self) -> &'static str {
        match self {
            Archetype::Memory => "mem",
            Archetype::Compute => "fu",
            Archetype::Recurrence => "rec",
        }
    }
}

fn log_uniform(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    let llo = (lo as f64).ln();
    let lhi = (hi as f64).ln();
    let x: f64 = rng.gen_range(llo..lhi);
    x.exp().round().max(lo as f64) as u64
}

/// A streaming loop: `streams` independent load→(short chain)→store threads,
/// occasionally sharing an input stream.
fn build_memory_loop(b: &mut DdgBuilder, rng: &mut SmallRng) {
    let streams = rng.gen_range(2..=6usize);
    let mut array = 0u32;
    for _ in 0..streams {
        let chain_len = rng.gen_range(0..=2usize);
        let stride = if rng.gen_bool(0.8) {
            8
        } else {
            8 * rng.gen_range(2..=16) as i64
        };
        let l = b.load(array, stride);
        array += 1;
        let mut prev = l;
        for _ in 0..chain_len {
            let op = if rng.gen_bool(0.6) {
                b.op(OpKind::FAdd)
            } else if rng.gen_bool(0.85) {
                b.op(OpKind::FMul)
            } else {
                b.op_invariant(OpKind::FMul)
            };
            b.flow(prev, op, 0);
            prev = op;
        }
        if rng.gen_bool(0.75) {
            let s = b.store(array, stride);
            array += 1;
            b.flow(prev, s, 0);
        }
    }
    // Occasionally an extra pure copy (load feeding a store directly).
    if rng.gen_bool(0.4) {
        let l = b.load(array, 8);
        let s = b.store(array + 1, 8);
        b.flow(l, s, 0);
    }
}

/// A compute loop: a handful of input streams feeding a deep / wide
/// arithmetic expression, with an occasional divide or square root.
fn build_compute_loop(b: &mut DdgBuilder, rng: &mut SmallRng) {
    let inputs = rng.gen_range(2..=4usize);
    let mut values: Vec<NodeId> = Vec::new();
    for a in 0..inputs {
        values.push(b.load(a as u32, 8));
    }
    let ops = rng.gen_range(8..=24usize);
    for _ in 0..ops {
        let kind = {
            let x: f64 = rng.gen();
            if x < 0.47 {
                OpKind::FAdd
            } else if x < 0.92 {
                OpKind::FMul
            } else if x < 0.97 {
                OpKind::FDiv
            } else {
                OpKind::FSqrt
            }
        };
        let op = if rng.gen_bool(0.2) {
            b.op_invariant(kind)
        } else {
            b.op(kind)
        };
        // One or two operands drawn from the existing values.
        let a = values[rng.gen_range(0..values.len())];
        b.flow(a, op, 0);
        if rng.gen_bool(0.7) {
            let c = values[rng.gen_range(0..values.len())];
            if c != op {
                b.flow(c, op, 0);
            }
        }
        values.push(op);
    }
    // Store one or two results.
    let stores = rng.gen_range(1..=2usize);
    for k in 0..stores {
        let s = b.store(16 + k as u32, 8);
        let v = values[values.len() - 1 - k];
        b.flow(v, s, 0);
    }
}

/// A recurrence loop: a cyclic core (first or second order) surrounded by
/// streaming work.
fn build_recurrence_loop(b: &mut DdgBuilder, rng: &mut SmallRng) {
    let order = if rng.gen_bool(0.7) { 1u32 } else { 2 };
    let cycle_len = rng.gen_range(1..=3usize);
    let feed = b.load(0, 8);
    // Build the cycle: op_0 -> op_1 -> ... -> op_{k-1} -> op_0 (distance = order)
    let mut cycle_nodes = Vec::new();
    for i in 0..cycle_len {
        let kind = if rng.gen_bool(0.7) {
            OpKind::FAdd
        } else {
            OpKind::FMul
        };
        let op = b.op(kind);
        if i == 0 {
            b.flow(feed, op, 0);
        } else {
            b.flow(cycle_nodes[i - 1], op, 0);
        }
        cycle_nodes.push(op);
    }
    b.flow(*cycle_nodes.last().unwrap(), cycle_nodes[0], order);
    // Sometimes store the recurrence value.
    if rng.gen_bool(0.6) {
        let s = b.store(1, 8);
        b.flow(*cycle_nodes.last().unwrap(), s, 0);
    }
    // Streaming side work.
    let side = rng.gen_range(0..=3usize);
    for k in 0..side {
        let l = b.load(2 + k as u32, 8);
        let m = b.op_invariant(OpKind::FMul);
        let s = b.store(8 + k as u32, 8);
        b.flow(l, m, 0).flow(m, s, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcrf_ir::{OpLatencies, ResourceCounts};

    #[test]
    fn generation_is_deterministic() {
        let params = SyntheticParams {
            loops: 40,
            ..Default::default()
        };
        let a = SyntheticWorkload::new(params).generate();
        let b = SyntheticWorkload::new(params).generate();
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.ddg.name, y.ddg.name);
            assert_eq!(x.ddg.num_nodes(), y.ddg.num_nodes());
            assert_eq!(x.ddg.num_edges(), y.ddg.num_edges());
            assert_eq!(x.iterations, y.iterations);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticWorkload::new(SyntheticParams {
            loops: 20,
            seed: 1,
            ..Default::default()
        })
        .generate();
        let b = SyntheticWorkload::new(SyntheticParams {
            loops: 20,
            seed: 2,
            ..Default::default()
        })
        .generate();
        let same = a
            .iter()
            .zip(b.iter())
            .filter(|(x, y)| x.ddg.num_nodes() == y.ddg.num_nodes())
            .count();
        assert!(same < 20, "different seeds should give different loops");
    }

    #[test]
    fn all_generated_loops_are_valid() {
        let loops = SyntheticWorkload::new(SyntheticParams {
            loops: 200,
            ..Default::default()
        })
        .generate();
        for l in &loops {
            l.ddg.validate().expect(&l.ddg.name);
            assert!(l.ddg.num_nodes() >= 2, "{}", l.ddg.name);
            assert!(l.iterations >= 32);
        }
    }

    #[test]
    fn population_mix_resembles_the_paper() {
        // On the baseline machine the loop-bound mix should be roughly
        // 20 % FU / 50 % memory / 30 % recurrence (Table 1); allow wide
        // tolerances — only the ordering matters for the reproduction.
        let loops = SyntheticWorkload::new(SyntheticParams {
            loops: 400,
            ..Default::default()
        })
        .generate();
        let lat = OpLatencies::paper_baseline();
        let res = ResourceCounts::paper_baseline();
        let mut mem = 0;
        let mut rec = 0;
        let mut fu = 0;
        for l in &loops {
            let rec_mii = l.ddg.rec_mii(&lat);
            let (fu_ops, mem_ops) = hcrf_ir::mii::op_counts(&l.ddg);
            let fu_bound = (fu_ops as f64 / res.fus as f64).ceil() as u32;
            let mem_bound = (mem_ops as f64 / res.mem_ports as f64).ceil() as u32;
            if rec_mii >= fu_bound.max(mem_bound) && rec_mii > 1 {
                rec += 1;
            } else if mem_bound >= fu_bound {
                mem += 1;
            } else {
                fu += 1;
            }
        }
        let n = loops.len() as f64;
        let memf = mem as f64 / n;
        let recf = rec as f64 / n;
        let fuf = fu as f64 / n;
        assert!(memf > 0.30, "memory-bound fraction {memf}");
        assert!(recf > 0.12, "recurrence-bound fraction {recf}");
        assert!(fuf > 0.05, "fu-bound fraction {fuf}");
    }

    #[test]
    fn memory_loops_have_strided_descriptors() {
        let loops = SyntheticWorkload::new(SyntheticParams {
            loops: 50,
            ..Default::default()
        })
        .generate();
        for l in &loops {
            for (_, n) in l.ddg.nodes() {
                if n.kind.is_memory() {
                    let m = n.mem.unwrap();
                    assert!(m.size == 8 || m.size == 4);
                }
            }
        }
    }
}
