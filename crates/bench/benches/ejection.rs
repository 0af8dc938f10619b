//! Indexed vs linear-scan victim search, the reference scheduler and II-ladder
//! skipping.
//!
//! Two measurements:
//!
//! * `victim_probe/*` — the isolated victim search, the `SlotIndex`-backed
//!   `pick_victim` against the paper-literal O(active nodes)
//!   `pick_victim_linear` scan it replaced, on two fully occupied stores:
//!   512 one-row adds on S128 (`indexed`, `linear`: the flat slot arrays),
//!   and one 1-FU cluster of 8C16S16 holding three 34-row divides (the
//!   fdiv of a clock twice as fast as S128's, as on the paper's fastest
//!   clustered configurations) and 26 adds at II 128, probed at every row
//!   (`indexed_multi_row`, `linear_multi_row`: the span list). Both searches
//!   choose bit-identical victims (asserted by the randomized property
//!   test), and the O(nodes) → O(row occupants) gap is visible without the
//!   rest of the scheduler around it.
//! * `arena_ladder/*` — on the churn suite: the default scheduler against
//!   the reference scheduler (`with_reference`: per-attempt arena rebuilds,
//!   the linear victim scan and batch pressure, bit-identical schedules per
//!   `tests/oracle_equivalence.rs`), and the budget-aware II-ladder skipping
//!   against the unit ladder (`with_unit_ladder`, never a higher final II
//!   per `tests/warmstart_equivalence.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hcrf_ir::{DdgBuilder, OpKind, OpLatencies};
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_sched::mrt::ResourceCaps;
use hcrf_sched::order::priority_order;
use hcrf_sched::workgraph::WorkGraph;
use hcrf_sched::{IterativeScheduler, PlacementStore, SchedulerParams};
use hcrf_workloads::churn_suite;

fn victim_probe(c: &mut Criterion) {
    // A monolithic machine (8 FUs) fully packed at II 64: 512 placed adds,
    // 8 per row — the shape a forced placement probes mid-ejection-storm.
    let lat = OpLatencies::paper_baseline();
    let machine = MachineConfig::paper_baseline(RfOrganization::parse("S128").unwrap());
    let ii = 64u32;
    let mut b = DdgBuilder::new("probe");
    let nodes: Vec<_> = (0..512).map(|_| b.op(OpKind::FAdd)).collect();
    let g = b.build();
    let w = WorkGraph::new(&g, &machine);
    let caps = ResourceCaps::from_machine(&machine);
    let order = priority_order(&w, &lat, ii);
    let mut store = PlacementStore::new(ii, caps, g.num_nodes(), order);
    for (i, n) in nodes.iter().enumerate() {
        store.place(&w, *n, (i % ii as usize) as i64, 0, &lat);
    }
    let probe = hcrf_ir::NodeId(u32::MAX - 1);
    let mut group = c.benchmark_group("victim_probe");
    group.bench_function("indexed", |bch| {
        bch.iter(|| {
            (0..ii as i64)
                .filter_map(|row| store.pick_victim(&w, probe, OpKind::FAdd, row, 0))
                .map(|v| v.0 as u64)
                .sum::<u64>()
        })
    });
    group.bench_function("linear", |bch| {
        bch.iter(|| {
            (0..ii as i64)
                .filter_map(|row| store.pick_victim_linear(&w, probe, OpKind::FAdd, row, 0, &lat))
                .map(|v| v.0 as u64)
                .sum::<u64>()
        })
    });

    // Cluster 5 of 8C16S16 (one FU) packed at II 128 with three 34-row
    // divides back to back from row 0 and one add in each of the 26 rows
    // left; the other clusters hold the same shape, so the active-node scan
    // walks all of them.
    let lat = OpLatencies::paper_baseline().rescaled(2.0);
    let machine = MachineConfig::paper_baseline(RfOrganization::parse("8C16S16").unwrap());
    let ii = 128u32;
    let mut b = DdgBuilder::new("probe_multi_row");
    let clusters = machine.clusters();
    let per_cluster: Vec<_> = (0..clusters)
        .map(|_| {
            let divides: Vec<_> = (0..3).map(|_| b.op(OpKind::FDiv)).collect();
            let adds: Vec<_> = (0..26).map(|_| b.op(OpKind::FAdd)).collect();
            (divides, adds)
        })
        .collect();
    let g = b.build();
    let w = WorkGraph::new(&g, &machine);
    let caps = ResourceCaps::from_machine(&machine);
    let order = priority_order(&w, &lat, ii);
    let mut store = PlacementStore::new(ii, caps, g.num_nodes(), order);
    let span = lat.occupancy(OpKind::FDiv) as i64;
    for (cluster, (divides, adds)) in per_cluster.iter().enumerate() {
        for (i, d) in divides.iter().enumerate() {
            store.place(&w, *d, i as i64 * span, cluster as u32, &lat);
        }
        for (i, a) in adds.iter().enumerate() {
            store.place(&w, *a, 3 * span + i as i64, cluster as u32, &lat);
        }
    }
    group.bench_function("indexed_multi_row", |bch| {
        bch.iter(|| {
            (0..ii as i64)
                .filter_map(|row| store.pick_victim(&w, probe, OpKind::FAdd, row, 5))
                .map(|v| v.0 as u64)
                .sum::<u64>()
        })
    });
    group.bench_function("linear_multi_row", |bch| {
        bch.iter(|| {
            (0..ii as i64)
                .filter_map(|row| store.pick_victim_linear(&w, probe, OpKind::FAdd, row, 5, &lat))
                .map(|v| v.0 as u64)
                .sum::<u64>()
        })
    });
    group.finish();
}

fn arena_and_ladder(c: &mut Criterion) {
    // Each variant departs from the default in one way on the churn suite:
    // `reference` swaps every fast path for its paper-literal counterpart
    // (same schedules), and `unit_ladder` climbs the II ladder by 1 instead
    // of the budget-aware geometric skip (it differs only in which failing
    // rungs it pays for).
    let loops = churn_suite(32);
    let params = SchedulerParams::default().without_schedule();
    let machine = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap());
    let variants: [(&str, IterativeScheduler); 3] = [
        ("default", IterativeScheduler::new(machine.clone(), params)),
        (
            "reference",
            IterativeScheduler::new(machine.clone(), params).with_reference(),
        ),
        (
            "unit_ladder",
            IterativeScheduler::new(machine, params).with_unit_ladder(),
        ),
    ];
    let mut group = c.benchmark_group("arena_ladder");
    for (name, sched) in &variants {
        group.bench_with_input(BenchmarkId::new(*name, "churn/4C16S64"), sched, |b, s| {
            b.iter(|| {
                loops
                    .iter()
                    .map(|l| s.schedule(&l.ddg).ii as u64)
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(5))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = victim_probe, arena_and_ladder
}
criterion_main!(benches);
