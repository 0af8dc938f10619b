//! The per-pair setup allocates nothing at steady state.
//!
//! For every (loop, machine) pair the scheduler computes the MII once,
//! rebinds the pooled arena to the pair (working-graph clone, memory
//! interface, pristine mark, store reshape) and computes the priority order
//! at the first rung's reset. All of it refills buffers the pool already
//! owns. Once one pass over a suite has grown them, a second pass over the
//! same pairs must not allocate at all: a regression shows as a non-zero
//! count per pair. The machines share one pool and differ in cluster count
//! and organization: S64 is monolithic, 4C64 clustered, and 4C16S64 and
//! 8C16S16 are hierarchical, so their rebinds rebuild the memory interface.

use hcrf::driver::ConfiguredMachine;
use hcrf_ir::Loop;
use hcrf_sched::{ArenaPool, IterativeScheduler, SchedulerParams};
use hcrf_workloads::small_suite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of the current thread
/// (the test harness runs other threads alongside).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One pass of per-pair setups over every (machine, loop) pair: the MII,
/// the pool's take (a rebind once the pool holds an arena) and the first
/// reset, order included. Returns the pairs that allocated, with counts.
fn setup_pass(
    pool: &mut ArenaPool,
    schedulers: &[(&str, IterativeScheduler)],
    loops: &[Loop],
) -> Vec<(String, String, u64)> {
    let mut allocating = Vec::new();
    for (name, scheduler) in schedulers {
        let machine = scheduler.machine();
        for l in loops {
            let before = allocations();
            let mii = scheduler.mii(&l.ddg, pool.recurrences());
            let mut arena = pool.take(&l.ddg, machine);
            arena.reset(mii, &machine.latencies);
            let count = allocations() - before;
            pool.put(arena);
            if count > 0 {
                allocating.push((name.to_string(), l.ddg.name.clone(), count));
            }
        }
    }
    allocating
}

#[test]
fn second_pass_of_per_pair_setup_allocates_nothing() {
    let loops = small_suite(60);
    let schedulers: Vec<(&str, IterativeScheduler)> = ["S64", "4C16S64", "4C64", "8C16S16"]
        .into_iter()
        .map(|name| {
            let machine = ConfiguredMachine::from_name(name).unwrap().machine;
            assert_eq!(
                machine.rf.is_hierarchical(),
                name.contains('S') && name.contains('C')
            );
            (
                name,
                IterativeScheduler::new(machine, SchedulerParams::default()),
            )
        })
        .collect();
    let mut pool = ArenaPool::new();
    let warm = setup_pass(&mut pool, &schedulers, &loops);
    assert!(
        !warm.is_empty(),
        "the warm-up pass must grow the buffers (is the counter live?)"
    );
    let steady = setup_pass(&mut pool, &schedulers, &loops);
    assert!(
        steady.is_empty(),
        "per-pair setup allocated at steady state in {} pairs, first (machine, loop, \
         allocations): {:?}",
        steady.len(),
        &steady[..steady.len().min(8)]
    );
    assert_eq!(pool.builds(), 1);
}
