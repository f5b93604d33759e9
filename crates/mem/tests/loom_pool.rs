//! Loom models for [`SharedSlicePool`]: run with
//! `RUSTFLAGS="--cfg loom" cargo test -p nmt-mem --test loom_pool`.
//!
//! The pool's documented contracts under concurrency:
//! * `take` always yields an empty vector of sufficient capacity, and
//!   the hit/miss/reclaim counters stay exact, on every interleaving.
//! * A panic while holding the pool lock (unreachable through the
//!   public API, forced here via a model-only hook) poisons the lock,
//!   and every later operation recovers by taking the inner value.
#![cfg(loom)]

use loom::thread;
use nmt_mem::SharedSlicePool;
use std::sync::Arc;

#[test]
fn concurrent_take_put_keeps_counters_exact() {
    loom::model(|| {
        let pool: Arc<SharedSlicePool<u32>> = Arc::new(SharedSlicePool::new());
        pool.put(Vec::with_capacity(8));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let p = pool.clone();
                thread::spawn(move || {
                    let buf = p.take(8);
                    assert!(buf.is_empty(), "pooled buffers must come back cleared");
                    assert!(buf.capacity() >= 8);
                    p.put(buf);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let s = pool.stats();
        // Whether the second taker hits depends on the schedule (it may
        // run before or after the first put), but the books must balance:
        // one take per thread, one reclaim per put, nothing evicted.
        assert_eq!(s.hits + s.misses, 2);
        assert!(s.hits >= 1, "the pre-shelved buffer must satisfy someone");
        assert_eq!(s.reclaimed, 3);
        assert_eq!(s.evicted, 0);
        assert_eq!(pool.idle_len(), 3 - s.hits as usize);
    });
}

#[test]
fn poisoned_lock_recovers_on_every_interleaving() {
    loom::model(|| {
        let pool: Arc<SharedSlicePool<u8>> = Arc::new(SharedSlicePool::new());
        let p = pool.clone();
        let poisoner = thread::spawn(move || p.poison_for_model());
        assert!(
            poisoner.join().is_err(),
            "the poisoner must report its panic"
        );
        // Every pool entry point goes through the same recovery; none
        // may deadlock or propagate the poison.
        let buf = pool.take(4);
        assert!(buf.capacity() >= 4);
        pool.put(buf);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().reclaimed, 1);
        assert_eq!(pool.idle_len(), 1);
    });
}

#[test]
fn taker_racing_the_poisoner_still_completes() {
    loom::model(|| {
        let pool: Arc<SharedSlicePool<u8>> = Arc::new(SharedSlicePool::new());
        let p1 = pool.clone();
        let poisoner = thread::spawn(move || p1.poison_for_model());
        let p2 = pool.clone();
        let taker = thread::spawn(move || {
            // May run before, during, or after the poisoning — all must
            // yield a usable buffer.
            let buf = p2.take(2);
            assert!(buf.capacity() >= 2);
        });
        assert!(poisoner.join().is_err());
        taker.join().unwrap();
        assert_eq!(pool.stats().misses, 1);
    });
}
