//! Indexed vs linear-scan victim search, and bitmask vs per-row slot search.
//!
//! Four measurements:
//!
//! * `victim_search/*` — end-to-end wall time to schedule the
//!   ejection-churn-heavy suite (see `hcrf_workloads::churn`) with the
//!   `SlotIndex`-backed `pick_victim` against the paper-literal O(active
//!   nodes) scan it replaced (`Oracles::linear_victim_scan`). Both policies
//!   choose bit-identical victims (asserted by `tests/victim_equivalence.rs`
//!   and the randomized property test), so any ratio isolates the
//!   victim-search cost inside an otherwise identical scheduler. `4C16S64` is the configuration whose churn-heavy
//!   loops bounded PR 2 at 1.2×; `S128` is the no-regression control.
//! * `victim_probe/*` — the isolated victim search on a fully occupied
//!   512-node store, where the asymptotic O(nodes) → O(row occupants) gap
//!   is visible without the rest of the scheduler around it.
//! * `slot_search/*` — end-to-end wall time with the availability-bitmask
//!   `Mrt::first_free_row_in` window search against the per-row `can_place`
//!   walk it replaced (`Oracles::linear_slot_scan`), on the churn suite (the
//!   scan re-runs after every ejection) and the wide-window suite (crowded
//!   large-II tables where the scan dominates without any churn). Both
//!   scans pick bit-identical slots (`tests/slot_equivalence.rs`).
//! * `arena_ladder/*` — on the churn suite: the persistent `AttemptArena`
//!   against per-attempt rebuilds (`Oracles::fresh_arena`, bit-identical
//!   schedules per `tests/ladder_equivalence.rs`), and the budget-aware
//!   II-ladder skipping against the unit ladder (`with_unit_ladder`, never a
//!   higher final II per `tests/warmstart_equivalence.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hcrf_ir::{DdgBuilder, OpKind, OpLatencies};
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_sched::mrt::ResourceCaps;
use hcrf_sched::order::priority_order;
use hcrf_sched::workgraph::WorkGraph;
use hcrf_sched::{IterativeScheduler, Oracles, PlacementStore, SchedulerParams};
use hcrf_workloads::{churn_suite, wide_window_suite};

fn victim_search(c: &mut Criterion) {
    let loops = churn_suite(32);
    // Default max_ii: the churn loops climb long II ladders by design, and a
    // handful exhaust the default cap — deterministically and identically
    // under both policies — which keeps the bench bounded.
    let params = SchedulerParams::default().without_schedule();
    let mut group = c.benchmark_group("victim_search");
    for config in ["4C16S64", "S128"] {
        let machine = MachineConfig::paper_baseline(RfOrganization::parse(config).unwrap());
        let indexed = IterativeScheduler::new(machine.clone(), params);
        let linear = IterativeScheduler::new(machine, params).with_oracles(Oracles {
            linear_victim_scan: true,
            ..Oracles::default()
        });
        group.bench_with_input(BenchmarkId::new("indexed", config), &indexed, |b, s| {
            b.iter(|| {
                loops
                    .iter()
                    .map(|l| s.schedule(&l.ddg).ii as u64)
                    .sum::<u64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", config), &linear, |b, s| {
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
    let oracles = Oracles {
        batch_pressure: true,
        ..Oracles::default()
    };
    let mut store = PlacementStore::new(ii, caps, g.num_nodes(), order, oracles);
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
    group.finish();
}

fn slot_search(c: &mut Criterion) {
    let suites: [(&str, Vec<hcrf_ir::Loop>); 2] =
        [("churn", churn_suite(32)), ("wide", wide_window_suite(12))];
    let params = SchedulerParams::default().without_schedule();
    let mut group = c.benchmark_group("slot_search");
    for (suite, loops) in &suites {
        for config in ["4C16S64", "S128"] {
            let machine = MachineConfig::paper_baseline(RfOrganization::parse(config).unwrap());
            let bitset = IterativeScheduler::new(machine.clone(), params);
            let linear = IterativeScheduler::new(machine, params).with_oracles(Oracles {
                linear_slot_scan: true,
                ..Oracles::default()
            });
            let id = format!("{suite}/{config}");
            group.bench_with_input(BenchmarkId::new("bitset", &id), &bitset, |b, s| {
                b.iter(|| {
                    loops
                        .iter()
                        .map(|l| s.schedule(&l.ddg).ii as u64)
                        .sum::<u64>()
                })
            });
            group.bench_with_input(BenchmarkId::new("linear", &id), &linear, |b, s| {
                b.iter(|| {
                    loops
                        .iter()
                        .map(|l| s.schedule(&l.ddg).ii as u64)
                        .sum::<u64>()
                })
            });
        }
    }
    group.finish();
}

fn arena_and_ladder(c: &mut Criterion) {
    // Each variant isolates one mechanism on the churn suite: `fresh`
    // rebuilds WorkGraph/order/store per II attempt instead of resetting the
    // persistent arena, and `unit_ladder` climbs the II ladder by 1 instead
    // of the budget-aware geometric skip (it differs only in which failing
    // rungs it pays for).
    let loops = churn_suite(32);
    let params = SchedulerParams::default().without_schedule();
    let machine = MachineConfig::paper_baseline(RfOrganization::parse("4C16S64").unwrap());
    let variants: [(&str, IterativeScheduler); 3] = [
        ("default", IterativeScheduler::new(machine.clone(), params)),
        (
            "fresh_arena",
            IterativeScheduler::new(machine.clone(), params).with_oracles(Oracles {
                fresh_arena: true,
                ..Oracles::default()
            }),
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
    targets = victim_search, victim_probe, slot_search, arena_and_ladder
}
criterion_main!(benches);
