//! Incremental vs batch register-pressure engine: wall time to schedule a
//! 90-loop suite (kernels + synthetic) with the `PressureTracker` against
//! the batch `pressure()` recompute-the-world path it replaced. Both engines
//! produce bit-identical schedules (asserted by `tests/pressure_equivalence`)
//! and oracle mode skips tracker maintenance entirely, so the ratio isolates
//! the pressure-engine cost inside an otherwise identical scheduler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hcrf_machine::{MachineConfig, RfOrganization};
use hcrf_sched::{IterativeScheduler, Oracles, SchedulerParams};
use hcrf_workloads::small_suite;

fn pressure_engines(c: &mut Criterion) {
    let loops = small_suite(64);
    assert!(loops.len() >= 64, "bench suite must cover ≥64 loops");
    let params = SchedulerParams::default().without_schedule();
    let mut group = c.benchmark_group("pressure_engine");
    for config in ["S128", "S32", "4C16S64", "8C16S16"] {
        let machine = MachineConfig::paper_baseline(RfOrganization::parse(config).unwrap());
        let incremental = IterativeScheduler::new(machine.clone(), params);
        let batch = IterativeScheduler::new(machine, params).with_oracles(Oracles {
            batch_pressure: true,
            ..Oracles::default()
        });
        group.bench_with_input(
            BenchmarkId::new("incremental", config),
            &incremental,
            |b, s| {
                b.iter(|| {
                    loops
                        .iter()
                        .map(|l| s.schedule(&l.ddg).ii as u64)
                        .sum::<u64>()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("batch", config), &batch, |b, s| {
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
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = pressure_engines
}
criterion_main!(benches);
