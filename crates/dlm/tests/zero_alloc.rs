//! Proof of the `QueueTable` zero-allocation claim: a counting global
//! allocator wraps `System`, the table is warmed through every code
//! path the steady-state loop will take (so arenas, free lists, hash
//! maps and the per-owner index reach their high-water capacity), and
//! then a thousand more contended lock/unlock rounds must perform *no*
//! heap allocation at all.
//!
//! The allocator is process-wide, but the count is per thread: the test
//! harness runs tests on parallel threads, and only the measuring
//! thread's own allocations may land in its window.

use kplock_dlm::{Acquire, PreventionScheme, QueueTable};
use kplock_model::{EntityId, LockMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (alloc, alloc_zeroed, and growth reallocs) on
/// the calling thread; frees are uncounted — the claim is about acquiring
/// memory.
struct CountingAlloc;

thread_local! {
    // A `const` initializer with no destructor: touching the counter
    // never allocates, so counting cannot recurse into the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `count` only touches a `const`-initialised thread-local with no
// destructor, so it neither allocates nor unwinds into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const X: LockMode = LockMode::Exclusive;
const S: LockMode = LockMode::Shared;

/// One steady-state round over `ents`: an exclusive holder, a queued
/// second writer granted by the first's release, a shared pair, and a
/// priority-path grant — every hot-path shape the table serves.
fn round(t: &mut QueueTable<u32>, ents: &[EntityId], buf: &mut Vec<(u32, LockMode)>) {
    for &e in ents {
        // Contended exclusive hand-off.
        assert_eq!(t.request(e, 1, X).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, 2, X).unwrap(), Acquire::Queued);
        buf.clear();
        t.release_into(e, 1, buf).unwrap();
        assert_eq!(buf.as_slice(), &[(2, X)]);
        buf.clear();
        t.release_into(e, 2, buf).unwrap();
        assert!(buf.is_empty());

        // Shared coexistence.
        assert_eq!(t.request(e, 1, S).unwrap(), Acquire::Granted);
        assert_eq!(t.request(e, 2, S).unwrap(), Acquire::Granted);
        buf.clear();
        t.release_into(e, 1, buf).unwrap();
        buf.clear();
        t.release_into(e, 2, buf).unwrap();

        // The prevention admission path (uncontended: Granted, and the
        // obstacle scratch buffer is reused).
        let outcome = t
            .request_with_priority(e, 3, X, PreventionScheme::WoundWait, |o| (u64::from(o), 0))
            .unwrap();
        assert!(matches!(outcome, kplock_dlm::PreventionOutcome::Granted));
        buf.clear();
        t.release_into(e, 3, buf).unwrap();
    }
}

#[test]
fn queue_table_steady_state_performs_zero_allocations() {
    let mut t: QueueTable<u32> = QueueTable::new();
    let ents: Vec<EntityId> = (0..8).map(EntityId).collect();
    let mut buf: Vec<(u32, LockMode)> = Vec::with_capacity(8);

    // Warm-up: drive every path until all capacities hit steady state.
    for _ in 0..50 {
        round(&mut t, &ents, &mut buf);
    }
    t.check_invariants().unwrap();

    let before = allocations();
    for _ in 0..1_000 {
        round(&mut t, &ents, &mut buf);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "QueueTable allocated {} times across 1000 steady-state rounds",
        after - before
    );
    t.check_invariants().unwrap();
}
