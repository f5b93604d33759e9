//! Self-tests for the loom shim: the explorer must (a) enumerate enough
//! interleavings to *find* classic races, (b) verify invariants that
//! hold on every interleaving, (c) detect deadlocks, and (d) model
//! panic/poison recovery. These run on the plain test profile — only
//! *consumers* of the shim gate their models behind `--cfg loom`.

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The unsynchronized read-modify-write race: two threads each do
/// `load; store(v + 1)`. The explorer must surface BOTH outcomes — the
/// lost update (1) and the clean sum (2).
#[test]
fn finds_the_lost_update() {
    let outcomes = std::sync::Arc::new(std::sync::Mutex::new(BTreeSet::new()));
    let sink = outcomes.clone();
    loom::model(move || {
        let a = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let a = a.clone();
                thread::spawn(move || {
                    let v = a.load(Ordering::SeqCst);
                    a.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        sink.lock().unwrap().insert(a.load(Ordering::SeqCst));
    });
    let seen = outcomes.lock().unwrap();
    assert!(
        seen.contains(&1),
        "lost-update interleaving never explored: {seen:?}"
    );
    assert!(
        seen.contains(&2),
        "fully-ordered interleaving never explored: {seen:?}"
    );
}

/// Mutex-protected increments never lose an update, on any interleaving.
#[test]
fn mutex_increments_are_exact() {
    loom::model(|| {
        let m = Arc::new(Mutex::new(0u64));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    let mut g = m.lock().unwrap();
                    *g += 1;
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*m.lock().unwrap(), 2);
    });
}

/// AB-BA lock ordering: some interleaving deadlocks, and the explorer
/// must find it and report it rather than hanging.
#[test]
fn detects_abba_deadlock() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let h = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            {
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
            }
            let _ = h.join();
        });
    }));
    let msg = match result {
        Ok(()) => panic!("AB-BA deadlock was not detected"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    };
    assert!(
        msg.contains("deadlock"),
        "unexpected failure message: {msg}"
    );
}

/// A thread panicking while holding the lock poisons it; the survivor
/// observes `Err`, recovers with `into_inner`, and sees consistent data
/// — on every interleaving.
#[test]
fn poison_is_recoverable() {
    loom::model(|| {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let h = thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            *g = 8;
            panic!("poison the lock");
        });
        assert!(
            h.join().is_err(),
            "the poisoning thread must report its panic"
        );
        let g = match m.lock() {
            Ok(_) => panic!("lock must be poisoned after the holder panicked"),
            Err(poisoned) => poisoned.into_inner(),
        };
        assert_eq!(
            *g, 8,
            "the write before the panic is visible after recovery"
        );
    });
}

/// `join` surfaces the closure's return value, and a model with no
/// contention at all still terminates after exploring its (single-ish)
/// schedule space.
#[test]
fn join_returns_the_closure_value() {
    loom::model(|| {
        let h = thread::spawn(|| 40 + 2);
        assert_eq!(h.join().unwrap(), 42);
    });
}

/// A model body that itself fails must propagate the assertion out of
/// `loom::model` (not swallow it in a worker thread).
#[test]
fn model_assertions_propagate() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let a = AtomicUsize::new(1);
            assert_eq!(a.load(Ordering::SeqCst), 2, "deliberate model failure");
        });
    }));
    assert!(result.is_err(), "model-body assertion did not propagate");
}
