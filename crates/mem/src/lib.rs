//! Slice-based buffer pools for hot-path allocation reuse.
//!
//! The conversion farm and the online B-stationary kernel are streaming
//! loops: every strip wants the same handful of scratch buffers (row
//! pointers, tile element staging, dense accumulators), and allocating
//! them fresh per strip puts the allocator on the critical path. This
//! crate provides the reuse discipline: a [`SlicePool`] shelves retired
//! `Vec<T>` buffers keyed by capacity and hands them back on request —
//! exact-capacity fast path, best-fit-at-least fallback, fresh
//! allocation only on a true miss (the "exclusive pool" design: one
//! buffer per checkout, never sliced or shared).
//!
//! Pools are *correctness-neutral by construction*: `take` always
//! returns an empty (`len == 0`) vector, so pooled and unpooled runs
//! execute identical element-level logic and produce bitwise-identical
//! results. Pool hit/miss statistics are schedule-dependent (workers
//! race for shelved buffers) and must therefore never feed serialized
//! artifacts — they are observability-only, like wall-clock timings.
//!
//! [`SharedSlicePool`] wraps a pool in a `Mutex` for use as a `static`
//! shared across worker threads; both types are const-constructible.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

// Under `--cfg loom` the shared pool's lock comes from the loom shim so
// the model checker can explore take/put/poison interleavings; the shim
// mirrors std's API (const `new`, `LockResult`, poisoning), so nothing
// else changes.
#[cfg(loom)]
use loom::sync::{Mutex, MutexGuard};
#[cfg(not(loom))]
use std::sync::{Mutex, MutexGuard};

/// Default cap on idle buffers retained per pool. Beyond this, `put`
/// drops the buffer instead of shelving it, bounding idle memory for
/// workloads that churn through many distinct sizes.
pub const DEFAULT_MAX_IDLE: usize = 64;

/// Counters describing a pool's reuse behaviour. Observability only:
/// hit/miss totals depend on thread scheduling and must never be
/// serialized into deterministic artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls satisfied from the shelf without reallocation
    /// (shelved capacity ≥ requested).
    pub hits: u64,
    /// `take` calls that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers returned via `put` and shelved for reuse.
    pub reclaimed: u64,
    /// Buffers dropped by `put` because the idle cap was reached (or
    /// the buffer had zero capacity).
    pub evicted: u64,
}

impl PoolStats {
    /// Fold another stats snapshot into this one.
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.reclaimed += other.reclaimed;
        self.evicted += other.evicted;
    }
}

/// A pool of reusable `Vec<T>` buffers, shelved by capacity.
///
/// Not thread-safe on its own; wrap in [`SharedSlicePool`] (or keep one
/// per worker) for concurrent use.
#[derive(Debug)]
pub struct SlicePool<T> {
    /// Idle buffers keyed by capacity. `BTreeMap` (not `HashMap`) so the
    /// best-fit scan is ordered and the pool never introduces iteration
    /// nondeterminism anywhere.
    shelves: BTreeMap<usize, Vec<Vec<T>>>,
    /// Emptied shelf vectors: a shelf leaves the map with its last buffer,
    /// and re-creating it reuses one of these instead of allocating.
    spare: Vec<Vec<Vec<T>>>,
    /// Total idle buffers across all shelves.
    idle: usize,
    /// Cap on `idle`; `put` evicts beyond it.
    max_idle: usize,
    stats: PoolStats,
}

impl<T> Default for SlicePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlicePool<T> {
    /// An empty pool with [`DEFAULT_MAX_IDLE`] retention.
    /// Const-constructible so pools can live in `static`s.
    pub const fn new() -> Self {
        Self::with_max_idle(DEFAULT_MAX_IDLE)
    }

    /// An empty pool retaining at most `max_idle` idle buffers.
    pub const fn with_max_idle(max_idle: usize) -> Self {
        SlicePool {
            shelves: BTreeMap::new(),
            spare: Vec::new(),
            idle: 0,
            max_idle,
            stats: PoolStats {
                hits: 0,
                misses: 0,
                reclaimed: 0,
                evicted: 0,
            },
        }
    }

    /// Check out an empty vector with `capacity() >= min_capacity`.
    ///
    /// Exact-capacity shelf first, then the smallest shelved capacity
    /// that still fits (best-fit-at-least), then a fresh allocation.
    /// The returned vector always has `len() == 0`.
    pub fn take(&mut self, min_capacity: usize) -> Vec<T> {
        // Best-fit-at-least: the first shelf at or above the request;
        // `range` makes the exact match the first candidate. A shelf is
        // removed when its last buffer leaves, so every shelf in the map
        // is occupied and the first one in range is the answer — the
        // lookup never walks emptied keys while the shared lock is held.
        let mut found = None;
        if let Some((&cap, bufs)) = self.shelves.range_mut(min_capacity..).next() {
            found = bufs.pop().map(|buf| (cap, buf, bufs.is_empty()));
        }
        if let Some((cap, buf, emptied)) = found {
            if emptied {
                if let Some(shelf) = self.shelves.remove(&cap) {
                    self.spare.push(shelf);
                }
            }
            self.idle -= 1;
            self.stats.hits += 1;
            return buf;
        }
        self.stats.misses += 1;
        Vec::with_capacity(min_capacity)
    }

    /// Return a buffer to the pool. Contents are cleared; `T` drop glue
    /// runs here, not on the hot path that checked the buffer out only
    /// for `Copy` payloads (all current users pool `u32`/`f32`/tiles).
    pub fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() == 0 || self.idle >= self.max_idle {
            self.stats.evicted += 1;
            return;
        }
        self.idle += 1;
        self.stats.reclaimed += 1;
        match self.shelves.entry(buf.capacity()) {
            Entry::Occupied(shelf) => shelf.into_mut().push(buf),
            Entry::Vacant(slot) => {
                let mut shelf = self.spare.pop().unwrap_or_default();
                shelf.push(buf);
                slot.insert(shelf);
            }
        }
    }

    /// Buffers currently shelved.
    pub fn idle_len(&self) -> usize {
        self.idle
    }

    /// Total element capacity shelved across all buffers — the pool's
    /// idle footprint in elements (multiply by `size_of::<T>()` for
    /// bytes). Byte-budgeted consumers (the serve plan cache) publish
    /// this as a gauge to attribute resident-but-idle memory.
    pub fn idle_capacity(&self) -> usize {
        self.shelves
            .iter()
            .map(|(cap, bufs)| cap * bufs.len())
            .sum()
    }

    /// Snapshot of the reuse counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Drop every shelved buffer and zero the counters. Used before
    /// instrumented measurement passes so alloc counts are reproducible
    /// regardless of what earlier (parallel, schedule-dependent) work
    /// left on the shelves.
    pub fn reset(&mut self) {
        self.shelves.clear();
        self.spare.clear();
        self.idle = 0;
        self.stats = PoolStats::default();
    }
}

/// A `Mutex`-wrapped [`SlicePool`] suitable for `static` use across the
/// worker threads of a conversion farm. Lock poisoning is unreachable in
/// practice (no pool method panics) and is recovered by taking the inner
/// value: a pool's state is valid at every step, so a poisoned lock only
/// means some *other* buffer never came back — safe to continue.
#[derive(Debug)]
pub struct SharedSlicePool<T> {
    inner: Mutex<SlicePool<T>>,
}

impl<T> Default for SharedSlicePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SharedSlicePool<T> {
    /// An empty shared pool with default retention.
    pub const fn new() -> Self {
        SharedSlicePool {
            inner: Mutex::new(SlicePool::new()),
        }
    }

    /// An empty shared pool retaining at most `max_idle` idle buffers.
    pub const fn with_max_idle(max_idle: usize) -> Self {
        SharedSlicePool {
            inner: Mutex::new(SlicePool::with_max_idle(max_idle)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlicePool<T>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Model-only: poison the inner lock by panicking while holding it.
    /// No pool method panics, so poisoning is unreachable through the
    /// public API — the loom model uses this to prove the documented
    /// "recover by taking the inner value" claim actually holds.
    #[cfg(loom)]
    pub fn poison_for_model(&self) {
        let _guard = self.inner.lock();
        // nmt-lint: allow(panic) — panicking while holding the lock IS
        //   this hook's purpose: it forces poisoning so the model can
        //   prove recovery.
        panic!("loom model: poisoning the pool lock");
    }

    /// See [`SlicePool::take`].
    pub fn take(&self, min_capacity: usize) -> Vec<T> {
        self.lock().take(min_capacity)
    }

    /// See [`SlicePool::put`].
    pub fn put(&self, buf: Vec<T>) {
        self.lock().put(buf);
    }

    /// See [`SlicePool::stats`].
    pub fn stats(&self) -> PoolStats {
        self.lock().stats()
    }

    /// See [`SlicePool::idle_len`].
    pub fn idle_len(&self) -> usize {
        self.lock().idle_len()
    }

    /// See [`SlicePool::idle_capacity`].
    pub fn idle_capacity(&self) -> usize {
        self.lock().idle_capacity()
    }

    /// See [`SlicePool::reset`].
    pub fn reset(&self) {
        self.lock().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_empty_allocates_with_capacity() {
        let mut pool: SlicePool<u32> = SlicePool::new();
        let v = pool.take(17);
        assert!(v.is_empty());
        assert!(v.capacity() >= 17);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn put_then_take_reuses_exact_capacity() {
        let mut pool: SlicePool<u32> = SlicePool::new();
        let mut v = pool.take(8);
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        pool.put(v);
        assert_eq!(pool.idle_len(), 1);
        let v2 = pool.take(cap);
        assert!(v2.is_empty(), "reused buffers come back cleared");
        assert_eq!(v2.capacity(), cap);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.idle_len(), 0);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_shelf() {
        let mut pool: SlicePool<u8> = SlicePool::new();
        for cap in [4usize, 16, 64] {
            pool.put(Vec::with_capacity(cap));
        }
        let v = pool.take(10);
        assert_eq!(v.capacity(), 16, "16 is the smallest shelf >= 10");
        let v2 = pool.take(100);
        assert!(v2.capacity() >= 100, "no shelf fits; fresh allocation");
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn idle_cap_evicts() {
        let mut pool: SlicePool<u8> = SlicePool::with_max_idle(2);
        for _ in 0..4 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.idle_len(), 2);
        assert_eq!(pool.stats().reclaimed, 2);
        assert_eq!(pool.stats().evicted, 2);
    }

    #[test]
    fn idle_capacity_tracks_shelved_footprint() {
        let mut pool: SlicePool<u8> = SlicePool::new();
        assert_eq!(pool.idle_capacity(), 0);
        pool.put(Vec::with_capacity(4));
        pool.put(Vec::with_capacity(16));
        assert_eq!(pool.idle_capacity(), 20);
        let _taken = pool.take(10); // pulls the 16-capacity shelf
        assert_eq!(pool.idle_capacity(), 4);
        pool.reset();
        assert_eq!(pool.idle_capacity(), 0);
    }

    #[test]
    fn emptied_shelves_are_removed() {
        let mut pool: SlicePool<u8> = SlicePool::with_max_idle(2000);
        for cap in 1..=1000usize {
            pool.put(Vec::with_capacity(cap));
        }
        let caps: Vec<usize> = (0..1000).map(|_| pool.take(1).capacity()).collect();
        assert_eq!(caps, (1..=1000).collect::<Vec<_>>(), "best fit walks up");
        assert!(pool.shelves.is_empty(), "no emptied shelf keeps its key");
        assert_eq!(pool.idle_len(), 0);
        // Best fit still returns the smallest fitting buffer afterwards.
        for cap in [300usize, 40, 7] {
            pool.put(Vec::with_capacity(cap));
        }
        assert_eq!(pool.take(8).capacity(), 40);
        assert_eq!(pool.take(8).capacity(), 300);
        assert_eq!(pool.take(5).capacity(), 7);
        assert!(pool.shelves.is_empty());
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn zero_capacity_buffers_are_not_shelved() {
        let mut pool: SlicePool<u8> = SlicePool::new();
        pool.put(Vec::new());
        assert_eq!(pool.idle_len(), 0);
        assert_eq!(pool.stats().evicted, 1);
    }

    #[test]
    fn take_zero_is_a_hit_on_any_shelf() {
        let mut pool: SlicePool<u8> = SlicePool::new();
        pool.put(Vec::with_capacity(4));
        let v = pool.take(0);
        assert_eq!(v.capacity(), 4);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn reset_drops_shelves_and_counters() {
        let mut pool: SlicePool<u8> = SlicePool::new();
        pool.put(Vec::with_capacity(8));
        let _ = pool.take(8);
        pool.reset();
        assert_eq!(pool.idle_len(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn shared_pool_round_trip() {
        static POOL: SharedSlicePool<f32> = SharedSlicePool::new();
        POOL.reset();
        let mut v = POOL.take(32);
        v.push(1.0);
        let cap = v.capacity();
        POOL.put(v);
        let v2 = POOL.take(cap);
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(POOL.stats().hits, 1);
        POOL.reset();
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = PoolStats {
            hits: 1,
            misses: 2,
            reclaimed: 3,
            evicted: 4,
        };
        a.merge(&PoolStats {
            hits: 10,
            misses: 20,
            reclaimed: 30,
            evicted: 40,
        });
        assert_eq!(
            a,
            PoolStats {
                hits: 11,
                misses: 22,
                reclaimed: 33,
                evicted: 44,
            }
        );
    }
}
