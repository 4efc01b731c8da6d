//! Pins the allocation-free hot path: after one warm-up round populates the
//! ellipsoid's scratch buffers, steady-state support queries and cut updates
//! must perform **zero** heap allocations.  It also pins what building an
//! ellipsoid from a stored shape costs: one allocation, the packed
//! factorisation's scratch.
//!
//! The counter is per thread, so each test counts only its own
//! allocations while the harness runs others beside it.  `unsafe` is
//! confined to the thin `GlobalAlloc` forwarding shims below; the crate
//! under test itself denies unsafe code.

use pdm_ellipsoid::{Ellipsoid, KnowledgeSet};
use pdm_linalg::{PackedSymmetric, Vector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation routed through the system
/// allocator, per thread.  Deallocations are free-running (releasing
/// scratch capacity is fine; *acquiring* any on the hot path is the
/// regression).
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// pdm-lint: allow(unsafe-requires-waiver) reason="test-only counting allocator delegating to System; GlobalAlloc is an unsafe trait by definition"
unsafe impl GlobalAlloc for CountingAllocator {
    // pdm-lint: allow(unsafe-requires-waiver) reason="signature required by the GlobalAlloc trait"
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // pdm-lint: allow(unsafe-requires-waiver) reason="forwards the caller contract unchanged to System.alloc"
        unsafe { System.alloc(layout) }
    }

    // pdm-lint: allow(unsafe-requires-waiver) reason="signature required by the GlobalAlloc trait"
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // pdm-lint: allow(unsafe-requires-waiver) reason="forwards the caller contract unchanged to System.dealloc"
        unsafe { System.dealloc(ptr, layout) }
    }

    // pdm-lint: allow(unsafe-requires-waiver) reason="signature required by the GlobalAlloc trait"
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // pdm-lint: allow(unsafe-requires-waiver) reason="forwards the caller contract unchanged to System.realloc"
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_cut_rounds_do_not_allocate() {
    let dim = 8;
    let mut e = Ellipsoid::ball(dim, 2.0);
    // Directions are prepared up front — a serving driver owns its feature
    // buffers; the property under test is the *ellipsoid's* hot path.
    let directions: Vec<Vector> = (0..16)
        .map(|i| {
            Vector::from_fn(dim, |j| {
                let v = ((i * dim + j) as f64).sin();
                if v.abs() < 0.05 {
                    0.3
                } else {
                    v
                }
            })
        })
        .collect();

    // Warm-up: the first query/cut round acquires the scratch capacity (the
    // `A x` buffer plus the staged centre/shape), and the first few swaps
    // let the staged buffers reach their steady sizes.
    for direction in directions.iter().take(4) {
        let (lo, hi) = e.support_bounds_mut(direction);
        let mid = 0.5 * (lo + hi);
        e.cut_below(direction, mid);
        e.cut_above(direction, lo - 0.25 * (hi - lo));
    }

    // Steady state: every branch of the hot path — support queries, central
    // cuts from both sides, rejected shallow cuts, rejected infeasible cuts
    // — without a single allocation.
    let mut sink = 0.0;
    let mut applied = 0usize;
    let before = allocations();
    for round in 0..64 {
        let direction = &directions[round % directions.len()];
        let (lo, hi) = e.support_bounds_mut(direction);
        sink += lo + hi;
        let mid = 0.5 * (lo + hi);
        let outcome = if round % 2 == 0 {
            e.cut_below(direction, mid)
        } else {
            e.cut_above(direction, mid)
        };
        if outcome.is_updated() {
            applied += 1;
        }
        // A rejected (out-of-range) cut still walks the early-exit path.
        e.cut_below(direction, hi + 1.0);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "the steady-state query/cut loop must not allocate \
         (counted {} allocations over 64 rounds)",
        after - before
    );
    assert!(applied > 0, "the loop must actually exercise live cuts");
    assert!(sink.is_finite(), "support bounds stayed finite");
}

#[test]
fn building_from_a_stored_shape_allocates_only_the_factor_scratch() {
    // A cold-tenant page read hands `Ellipsoid::new` a decoded centre and
    // packed shape; the positive-definiteness check may allocate its one
    // packed factor, but no dense copy of the shape and no dense factor.
    let dim = 16;
    let mut cut = Ellipsoid::ball(dim, 2.0);
    for round in 0..24 {
        let direction = Vector::from_fn(dim, |j| ((round * dim + j) as f64 * 0.37).cos());
        let (lo, hi) = cut.support_bounds(&direction);
        cut.cut_below(&direction, 0.5 * (lo + hi));
    }
    assert!(
        cut.cuts_applied() > 0,
        "the shape must be a cut one, not a ball"
    );
    let center = cut.center().clone();
    let shape = PackedSymmetric::from_packed(dim, cut.shape().as_slice().to_vec())
        .expect("a cut shape is finite");

    let before = allocations();
    let rebuilt = Ellipsoid::new(center, shape).expect("a cut shape is positive definite");
    let after = allocations();

    assert!(
        after - before <= 1,
        "Ellipsoid::new at dim {dim} made {} allocations; the packed factor is the only one allowed",
        after - before
    );
    assert_eq!(rebuilt.shape(), cut.shape());
}
