//! The single-flight plan cache: content-keyed, LRU + byte-budget.
//!
//! [`PlanCache`] is generic over the cached value so the concurrency
//! machinery is checkable in isolation (the loom model caches plain
//! integers; the broker caches [`CachedPlan`](crate::broker::CachedPlan)s
//! whose artifacts own real conversions). The contracts, on every
//! interleaving:
//!
//! * **Single-flight:** concurrent [`get_or_compute`] calls for one key
//!   run the compute closure exactly once — one caller becomes the
//!   *leader* and inserts an in-flight marker; everyone else blocks on a
//!   condvar and receives the leader's value. No thundering herd of
//!   redundant conversions.
//! * **Leader failure is not fatal:** if the leader's closure returns an
//!   error or panics, the in-flight marker is removed and the waiters
//!   are woken; one of them becomes the new leader and retries. A panic
//!   can therefore at most double the compute count for that key, never
//!   deadlock the followers.
//! * **Poison recovery:** every lock acquisition recovers a poisoned
//!   mutex by taking the inner value (cache state is valid at every
//!   step; a poisoned lock only means some other caller unwound).
//! * **Bounded residency:** `Ready` entries are charged their byte cost;
//!   when an insert pushes residency over the budget, least-recently-used
//!   entries are evicted (never in-flight markers, never the entry just
//!   inserted — the budget is soft by at most the newest entry). Evicted
//!   values are handed back to the caller, which drops them outside the
//!   lock.
//!
//! Hit/miss/wait counters are *observability*: `waits` (and the
//! hit-vs-wait split) depend on the schedule, but `misses == computes`
//! and `hits + waits`-style totals are schedule-invariant absent
//! evictions and panics — the serve determinism suite pins this.
//!
//! [`get_or_compute`]: PlanCache::get_or_compute

use std::collections::BTreeMap;
use std::sync::Arc;

// Sync facade: std by default, the loom shim under `--cfg loom` so the
// model in `tests/loom_cache.rs` explores every interleaving of the
// lock/condvar operations below.
#[cfg(loom)]
use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
use std::sync::{Condvar, Mutex, MutexGuard};

/// Reuse counters for one cache. Totals are exact on every schedule;
/// the hit-vs-wait split is schedule-dependent (observability only,
/// never serialized into gated artifacts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a `Ready` entry without blocking.
    pub hits: u64,
    /// Lookups that found nothing and became the compute leader.
    pub misses: u64,
    /// Wait episodes behind another caller's in-flight compute.
    pub waits: u64,
    /// Compute closures that ran to completion and were inserted.
    pub computes: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
}

/// How a [`PlanCache::get_or_compute`] call obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// Answered from cache without computing.
    Hit,
    /// This caller ran the compute closure (miss leader).
    Computed,
    /// Blocked behind an in-flight compute, then received its result.
    Waited,
}

/// A resolved lookup: the shared value, how it was obtained, and any
/// entries the byte budget evicted during the insert (callers count and
/// drop them).
#[derive(Debug)]
pub struct Lookup<V> {
    /// The cached (or just-computed) value.
    pub value: Arc<V>,
    /// How this caller obtained it.
    pub how: Acquire,
    /// Entries evicted to make room, oldest first.
    pub evicted: Vec<Arc<V>>,
}

/// One resident entry.
#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    bytes: u64,
    /// Monotone use tick; smallest = least recently used.
    last_use: u64,
}

/// A key's slot: either being computed or resident.
#[derive(Debug)]
enum Slot<V> {
    /// A leader is computing this key outside the lock.
    InFlight,
    /// Resident value.
    Ready(Entry<V>),
}

#[derive(Debug)]
struct State<V> {
    slots: BTreeMap<String, Slot<V>>,
    /// Monotone LRU clock.
    tick: u64,
    /// Bytes charged for `Ready` entries.
    resident_bytes: u64,
    stats: CacheStats,
}

/// Content-keyed single-flight cache with LRU + byte-budget eviction.
/// See the module docs for the concurrency contracts.
#[derive(Debug)]
pub struct PlanCache<V> {
    budget_bytes: u64,
    state: Mutex<State<V>>,
    ready: Condvar,
}

/// Removes the leader's in-flight marker and wakes waiters if the
/// compute closure unwinds or errors — otherwise followers would block
/// forever on a key nobody is computing.
struct InFlightGuard<'a, V> {
    cache: &'a PlanCache<V>,
    key: &'a str,
    armed: bool,
}

impl<V> Drop for InFlightGuard<'_, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut st = self.cache.lock();
        if matches!(st.slots.get(self.key), Some(Slot::InFlight)) {
            st.slots.remove(self.key);
        }
        drop(st);
        self.cache.ready.notify_all();
    }
}

impl<V> PlanCache<V> {
    /// An empty cache charging `Ready` entries against `budget_bytes`.
    pub fn new(budget_bytes: u64) -> Self {
        PlanCache {
            budget_bytes,
            state: Mutex::new(State {
                slots: BTreeMap::new(),
                tick: 0,
                resident_bytes: 0,
                stats: CacheStats::default(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Recover-on-poison lock (see module docs).
    fn lock(&self) -> MutexGuard<'_, State<V>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up `key`; on a miss, run `compute` (exactly once across all
    /// concurrent callers of this key) and insert its value, charging
    /// `bytes` against the budget. `compute` returns `(value, bytes)`.
    ///
    /// Runs the closure *outside* the cache lock: other keys proceed
    /// concurrently; same-key callers block on the condvar.
    pub fn get_or_compute<E>(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<(V, u64), E>,
    ) -> Result<Lookup<V>, E> {
        let mut waited = false;
        let mut st = self.lock();
        loop {
            // Bump the LRU clock up front: the borrow of the entry below
            // must not overlap a borrow of the clock.
            st.tick += 1;
            let tick = st.tick;
            match st.slots.get_mut(key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_use = tick;
                    let value = Arc::clone(&entry.value);
                    st.stats.hits += 1;
                    return Ok(Lookup {
                        value,
                        how: if waited {
                            Acquire::Waited
                        } else {
                            Acquire::Hit
                        },
                        evicted: Vec::new(),
                    });
                }
                Some(Slot::InFlight) => {
                    if !waited {
                        waited = true;
                        st.stats.waits += 1;
                    }
                    st = match self.ready.wait(st) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                None => {
                    st.slots.insert(key.to_string(), Slot::InFlight);
                    st.stats.misses += 1;
                    break;
                }
            }
        }
        drop(st);

        // Leader path: compute outside the lock, under an unwind guard.
        let mut guard = InFlightGuard {
            cache: self,
            key,
            armed: true,
        };
        let (value, bytes) = compute()?; // guard cleans up on Err and on panic
        guard.armed = false;
        drop(guard);

        let value = Arc::new(value);
        let mut st = self.lock();
        st.stats.computes += 1;
        st.tick += 1;
        let tick = st.tick;
        st.slots.insert(
            key.to_string(),
            Slot::Ready(Entry {
                value: Arc::clone(&value),
                bytes,
                last_use: tick,
            }),
        );
        st.resident_bytes += bytes;
        let evicted = self.evict_over_budget(&mut st, key);
        drop(st);
        self.ready.notify_all();
        Ok(Lookup {
            value,
            how: Acquire::Computed,
            evicted,
        })
    }

    /// Evict least-recently-used `Ready` entries (never in-flight
    /// markers, never `keep`) until residency fits the budget or nothing
    /// evictable remains. Caller holds the lock.
    fn evict_over_budget(&self, st: &mut MutexGuard<'_, State<V>>, keep: &str) -> Vec<Arc<V>> {
        let mut evicted = Vec::new();
        while st.resident_bytes > self.budget_bytes {
            let victim = st
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(e) if k != keep => Some((e.last_use, k.clone())),
                    _ => None,
                })
                .min();
            let Some((_, key)) = victim else { break };
            if let Some(Slot::Ready(entry)) = st.slots.remove(&key) {
                st.resident_bytes -= entry.bytes;
                st.stats.evictions += 1;
                evicted.push(entry.value);
            }
        }
        evicted
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Bytes currently charged for resident entries.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident_bytes
    }

    /// Resident (`Ready`) entries.
    pub fn len(&self) -> usize {
        self.lock()
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Model-only: poison the cache lock by panicking while holding it.
    /// No cache method panics, so poisoning is unreachable through the
    /// public API — the loom model uses this to prove the documented
    /// recover-by-taking-the-inner-value claim holds on every schedule.
    #[cfg(loom)]
    pub fn poison_for_model(&self) {
        let _guard = self.state.lock();
        // nmt-lint: allow(panic) — panicking while holding the lock IS
        //   this hook's purpose: it forces poisoning so the model can
        //   prove recovery.
        panic!("loom model: poisoning the cache lock");
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn ok(v: u32, bytes: u64) -> impl FnOnce() -> Result<(u32, u64), String> {
        move || Ok((v, bytes))
    }

    #[test]
    fn miss_then_hit() {
        let cache: PlanCache<u32> = PlanCache::new(1024);
        let first = cache.get_or_compute("a", ok(7, 10)).unwrap();
        assert_eq!(first.how, Acquire::Computed);
        assert_eq!(*first.value, 7);
        let second = cache
            .get_or_compute("a", || -> Result<(u32, u64), String> {
                Err("must not recompute".into())
            })
            .unwrap();
        assert_eq!(second.how, Acquire::Hit);
        assert_eq!(*second.value, 7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.computes), (1, 1, 1));
        assert_eq!(cache.resident_bytes(), 10);
    }

    #[test]
    fn error_leaves_no_marker_and_allows_retry() {
        let cache: PlanCache<u32> = PlanCache::new(1024);
        let err = cache
            .get_or_compute("a", || -> Result<(u32, u64), String> { Err("boom".into()) })
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(cache.is_empty());
        let retry = cache.get_or_compute("a", ok(1, 1)).unwrap();
        assert_eq!(retry.how, Acquire::Computed);
    }

    #[test]
    fn lru_eviction_respects_budget_and_returns_victims() {
        let cache: PlanCache<u32> = PlanCache::new(100);
        cache.get_or_compute("a", ok(1, 60)).unwrap();
        cache.get_or_compute("b", ok(2, 30)).unwrap();
        // Touch "a" so "b" is the LRU entry.
        assert_eq!(
            cache.get_or_compute("a", ok(0, 0)).unwrap().how,
            Acquire::Hit
        );
        let third = cache.get_or_compute("c", ok(3, 40)).unwrap();
        // 60 + 30 + 40 > 100: evict LRU ("b"), leaving a + c = 100.
        assert_eq!(third.evicted.len(), 1);
        assert_eq!(*third.evicted[0], 2);
        assert_eq!(cache.resident_bytes(), 100);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // "b" now misses again.
        assert_eq!(
            cache.get_or_compute("b", ok(2, 30)).unwrap().how,
            Acquire::Computed
        );
    }

    #[test]
    fn oversized_entry_is_kept_but_evicts_everything_else() {
        let cache: PlanCache<u32> = PlanCache::new(50);
        cache.get_or_compute("a", ok(1, 40)).unwrap();
        let big = cache.get_or_compute("big", ok(2, 500)).unwrap();
        assert_eq!(
            big.evicted.len(),
            1,
            "the budget is soft only for the newest entry"
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), 500);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache: Arc<PlanCache<u32>> = Arc::new(PlanCache::new(1 << 20));
        let computes = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                std::thread::spawn(move || {
                    let got = cache
                        .get_or_compute("shared", || -> Result<(u32, u64), String> {
                            // ordering: counter only; no ordering dependency
                            computes.fetch_add(1, Ordering::Relaxed);
                            // Widen the in-flight window so followers
                            // actually contend.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            Ok((42, 8))
                        })
                        .unwrap();
                    assert_eq!(*got.value, 42);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(computes.load(Ordering::Relaxed), 1, "single-flight");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.computes, 1);
        assert_eq!(
            s.hits, 7,
            "every non-leader resolves to the one computed value"
        );
    }
}
