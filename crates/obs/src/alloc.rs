//! Opt-in allocation counting for phase-attributed profiling.
//!
//! [`CountingAlloc`] wraps the system allocator and, when counting is
//! enabled, bumps two **thread-local** totals (allocation count and bytes
//! requested) on every `alloc`/`realloc`. A binary installs it once:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: nmt_obs::CountingAlloc = nmt_obs::CountingAlloc;
//! ```
//!
//! Counting is off by default (a single relaxed atomic load on the alloc
//! path) and is switched on with [`enable_counting`]. Spans opened while
//! counting is on capture the thread's delta and attach it as
//! `alloc.count` / `alloc.bytes` counters (see `span.rs`), which the
//! [`crate::profile::Profiler`] then rolls up per phase.
//!
//! **Attribution caveat:** totals are per thread. Work a span hands to
//! other threads (e.g. rayon workers in the engine farm) is counted on
//! those workers' spans, not the parent's — per-phase rollups remain
//! correct because worker spans carry the same phase, but a single span's
//! numbers cover only its own thread.
//!
//! The thread-local counters are `const`-initialised `Cell`s: TLS init
//! must not allocate, or the allocator would recurse into itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Global gate: when false (the default) the allocator is a pure
/// pass-through to [`System`].
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Process-wide totals, bumped alongside the thread-locals. These see
/// allocations made on *worker* threads (the rayon shim runs parallel
/// work on freshly spawned scoped threads), which a caller-thread
/// [`AllocScope`] cannot — whole-parallel-region measurements like the
/// microbench alloc budgets diff these instead.
static PROC_COUNT: AtomicU64 = AtomicU64::new(0);
static PROC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Turn allocation counting on or off process-wide. Returns the previous
/// state so callers can restore it.
pub fn enable_counting(on: bool) -> bool {
    // ordering: AcqRel — the gate flip publishes the measurement-window
    // boundary: a thread that observes `on` via the Acquire load in
    // `counting_enabled` must also observe everything the enabling
    // thread set up before the flip, and the returned previous state
    // orders restore-to-previous sequences.
    COUNTING.swap(on, Ordering::AcqRel)
}

/// Whether allocation counting is currently enabled.
pub fn counting_enabled() -> bool {
    // ordering: Acquire — pairs with the AcqRel swap in
    // `enable_counting`; callers begin alloc-measurement scopes only
    // after observing the gate, so the scope cannot start before the
    // window the enabler opened.
    COUNTING.load(Ordering::Acquire)
}

/// This thread's running totals since it first allocated with counting
/// on: `(allocation_count, bytes_requested)`. Monotonic; frees are not
/// subtracted — the profiler reports allocation *pressure*, not live heap.
pub fn thread_totals() -> (u64, u64) {
    (ALLOC_COUNT.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

/// Process-wide running totals across **all** threads since counting was
/// first enabled: `(allocation_count, bytes_requested)`. Monotonic, like
/// [`thread_totals`]. Use for measurements spanning a parallel region.
pub fn process_totals() -> (u64, u64) {
    (
        // ordering: monotone counter snapshots; callers diff totals
        // across a join/barrier, which supplies the happens-before.
        PROC_COUNT.load(Ordering::Relaxed),
        // ordering: monotone counter snapshot, as above.
        PROC_BYTES.load(Ordering::Relaxed),
    )
}

fn record(bytes: usize) {
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|b| b.set(b.get() + bytes as u64));
    // ordering: monotone counter bumps whose values are never observed
    // here; cross-thread visibility rides the join/barrier the reader
    // diffs across.
    PROC_COUNT.fetch_add(1, Ordering::Relaxed);
    // ordering: monotone counter bump, as above.
    PROC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Counting wrapper around the system allocator. Zero-sized; install as
/// the `#[global_allocator]` in binaries that want `alloc.*` span
/// counters. Libraries and tests that never install it still link — all
/// public functions here degrade to "totals stay zero".
pub struct CountingAlloc;

// SAFETY: defers every allocation to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only `Cell`s in this
// thread's TLS (const-init, so no allocation during TLS setup) and never
// allocates itself.
// The three gate loads below are deliberately `Relaxed` even though the
// gate is not a counter: this is the allocator hot path, hit on every
// allocation in the process, and an Acquire here would fence them all.
// The gate is advisory — an allocation racing the flip may or may not be
// counted, and the measurement scopes (`AllocScope`, process-total
// diffs) bracket their windows with the AcqRel swap plus a join/barrier,
// which supplies the real ordering.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // nmt-lint: allow(atomic-ordering) — advisory gate load on the
        //   allocator hot path; see the block comment above the impl
        if COUNTING.load(Ordering::Relaxed) {
            record(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // nmt-lint: allow(atomic-ordering) — advisory gate load on the
        //   allocator hot path; see the block comment above the impl
        if COUNTING.load(Ordering::Relaxed) {
            record(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // nmt-lint: allow(atomic-ordering) — advisory gate load on the
        //   allocator hot path; see the block comment above the impl
        if COUNTING.load(Ordering::Relaxed) {
            // Count the growth only: a shrinking realloc moves no new bytes.
            record(new_size.saturating_sub(layout.size()));
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// RAII guard measuring this thread's allocation delta over a scope.
/// Reads totals on construction and again in [`AllocScope::finish`];
/// yields `(count_delta, bytes_delta)`. Returns zeros when counting is
/// disabled or was enabled mid-scope.
pub struct AllocScope {
    start: Option<(u64, u64)>,
}

impl AllocScope {
    /// Begin measuring (no-op when counting is off).
    pub fn begin() -> Self {
        AllocScope {
            start: counting_enabled().then(thread_totals),
        }
    }

    /// Allocation `(count, bytes)` on this thread since `begin`.
    pub fn finish(&self) -> (u64, u64) {
        match self.start {
            Some((c0, b0)) => {
                let (c1, b1) = thread_totals();
                (c1.saturating_sub(c0), b1.saturating_sub(b0))
            }
            None => (0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the test binary does not install CountingAlloc as its global
    // allocator, so `record` is only reachable here by calling it
    // directly. That keeps these tests hermetic with respect to the rest
    // of the suite's allocations. Tests that flip the process-wide gate
    // serialize on GATE so the parallel runner can't interleave them.

    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn gate_toggles_and_restores() {
        let _g = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = enable_counting(true);
        assert!(counting_enabled());
        enable_counting(prev);
        assert_eq!(counting_enabled(), prev);
    }

    #[test]
    fn record_accumulates_per_thread() {
        let (c0, b0) = thread_totals();
        record(128);
        record(64);
        let (c1, b1) = thread_totals();
        assert_eq!(c1 - c0, 2);
        assert_eq!(b1 - b0, 192);
        // Another thread starts from its own zero.
        std::thread::spawn(|| {
            let (c, b) = thread_totals();
            assert_eq!((c, b), (0, 0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn process_totals_see_other_threads() {
        let (c0, b0) = process_totals();
        record(16);
        std::thread::spawn(|| record(48)).join().unwrap();
        let (c1, b1) = process_totals();
        // Monotone (>=): concurrent tests may also call record.
        assert!(c1 - c0 >= 2, "worker-thread records must be visible");
        assert!(b1 - b0 >= 64);
    }

    #[test]
    fn scope_measures_delta_only_when_enabled() {
        let _g = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = enable_counting(false);
        let off = AllocScope::begin();
        record(32);
        assert_eq!(off.finish(), (0, 0));

        enable_counting(true);
        let on = AllocScope::begin();
        record(32);
        record(8);
        assert_eq!(on.finish(), (2, 40));
        enable_counting(prev);
    }
}
