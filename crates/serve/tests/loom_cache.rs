//! Loom models for the single-flight [`PlanCache`]: run with
//! `RUSTFLAGS="--cfg loom" cargo test -p nmt-serve --test loom_cache`.
//!
//! The cache's documented contracts, checked on every interleaving the
//! model explores:
//! * **Single-flight:** concurrent `get_or_compute` calls for one key
//!   run the compute closure exactly once; every caller observes the
//!   same value; nobody deadlocks on the condvar.
//! * **Leader failure:** a leader whose closure panics (or errors)
//!   removes its in-flight marker and wakes the waiters, one of whom
//!   retries — at most one extra compute, never a hang.
//! * **Insert/evict races:** a byte budget tight enough to evict on
//!   every insert never evicts an in-flight marker or the entry just
//!   inserted, and the resident-byte ledger stays exact.
//! * **Poison recovery:** a panic while holding the cache lock (forced
//!   via a model-only hook) leaves every later operation functional.
#![cfg(loom)]

use loom::thread;
use nmt_serve::{Acquire, PlanCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn ok(v: u32, bytes: u64) -> impl FnOnce() -> Result<(u32, u64), String> {
    move || Ok((v, bytes))
}

#[test]
fn single_flight_computes_exactly_once() {
    loom::model(|| {
        let cache: Arc<PlanCache<u32>> = Arc::new(PlanCache::new(1 << 20));
        let computes = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                thread::spawn(move || {
                    let got = cache
                        .get_or_compute("k", || -> Result<(u32, u64), String> {
                            // ordering: model-side tally only; loom checks the
                            //   cache's own synchronization, not this counter
                            computes.fetch_add(1, Ordering::Relaxed);
                            Ok((7, 8))
                        })
                        .unwrap();
                    assert_eq!(*got.value, 7, "all callers see the leader's value");
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
        assert_eq!(s.hits, 1, "the non-leader resolves from the inserted entry");
        assert_eq!(cache.resident_bytes(), 8);
    });
}

#[test]
fn panicking_leader_wakes_waiters_who_retry() {
    loom::model(|| {
        let cache: Arc<PlanCache<u32>> = Arc::new(PlanCache::new(1 << 20));
        let computes = Arc::new(AtomicU64::new(0));
        let bomb_armed = Arc::new(AtomicU64::new(0));
        let c1 = Arc::clone(&cache);
        let n1 = Arc::clone(&computes);
        let armed = Arc::clone(&bomb_armed);
        let faulty = thread::spawn(move || {
            let _ = c1.get_or_compute("k", || -> Result<(u32, u64), String> {
                // ordering: model-side tally only
                n1.fetch_add(1, Ordering::Relaxed);
                armed.store(1, Ordering::Relaxed);
                panic!("leader dies mid-compute");
            });
        });
        let c2 = Arc::clone(&cache);
        let n2 = Arc::clone(&computes);
        let retry = thread::spawn(move || {
            let got = c2
                .get_or_compute("k", || -> Result<(u32, u64), String> {
                    // ordering: model-side tally only
                    n2.fetch_add(1, Ordering::Relaxed);
                    Ok((9, 4))
                })
                .unwrap();
            assert_eq!(*got.value, 9);
        });
        // Schedules where the retry thread inserts first turn the faulty
        // caller into a plain hit: its bomb never arms and it returns Ok.
        // On every schedule where the bomb DID run, the panic must
        // propagate through join — and must not strand the other caller.
        let faulty_outcome = faulty.join();
        assert_eq!(
            faulty_outcome.is_err(),
            bomb_armed.load(Ordering::Relaxed) == 1,
            "join reports a panic iff the doomed closure actually ran"
        );
        retry.join().unwrap();
        // Either the retry thread led from the start (1 compute) or it
        // waited out the doomed leader and recomputed (2 runs, 1 success).
        let total = computes.load(Ordering::Relaxed);
        assert!((1..=2).contains(&total), "computes = {total}");
        let s = cache.stats();
        assert_eq!(s.computes, 1, "only the successful compute inserts");
        assert_eq!(cache.resident_bytes(), 4);
        // The key is resident: a third lookup is a pure hit.
        let again = cache.get_or_compute("k", ok(0, 0)).unwrap();
        assert_eq!(again.how, Acquire::Hit);
    });
}

#[test]
fn insert_evict_race_keeps_the_byte_ledger_exact() {
    loom::model(|| {
        // Budget fits exactly one 8-byte entry: every second insert must
        // evict the other key, whatever the interleaving.
        let cache: Arc<PlanCache<u32>> = Arc::new(PlanCache::new(8));
        let keys = ["a", "b"];
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let got = cache.get_or_compute(keys[i], ok(i as u32, 8)).unwrap();
                    assert_eq!(*got.value, i as u32);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.computes, 2, "distinct keys never share a flight");
        // Serial schedules evict the first entry; fully overlapped ones
        // may insert both before either eviction pass runs, but the
        // budget then evicts on the later insert. Either way at most one
        // entry survives and the ledger matches what is resident.
        assert_eq!(s.evictions, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), 8);
    });
}

#[test]
fn poisoned_lock_recovers_on_every_interleaving() {
    loom::model(|| {
        let cache: Arc<PlanCache<u32>> = Arc::new(PlanCache::new(64));
        let c = Arc::clone(&cache);
        let poisoner = thread::spawn(move || c.poison_for_model());
        assert!(
            poisoner.join().is_err(),
            "the poisoner must report its panic"
        );
        // Every entry point recovers the inner state; none may deadlock
        // or propagate the poison.
        let got = cache.get_or_compute("k", ok(3, 16)).unwrap();
        assert_eq!(got.how, Acquire::Computed);
        assert_eq!(cache.stats().computes, 1);
        assert_eq!(cache.resident_bytes(), 16);
    });
}

#[test]
fn lookup_racing_the_poisoner_still_completes() {
    loom::model(|| {
        let cache: Arc<PlanCache<u32>> = Arc::new(PlanCache::new(64));
        let c1 = Arc::clone(&cache);
        let poisoner = thread::spawn(move || c1.poison_for_model());
        let c2 = Arc::clone(&cache);
        let looker = thread::spawn(move || {
            // Before, during, or after the poisoning — all must answer.
            let got = c2.get_or_compute("k", ok(5, 4)).unwrap();
            assert_eq!(*got.value, 5);
        });
        assert!(poisoner.join().is_err());
        looker.join().unwrap();
        assert_eq!(cache.stats().computes, 1);
    });
}
