//! Model-aware synchronization primitives.
//!
//! [`Mutex`] wraps `std::sync::Mutex`, so mutual exclusion and lock
//! poisoning are *real*; the wrapper only adds scheduling points (every
//! acquire and release hands the token to the explorer) and converts
//! OS blocking into scheduler blocking — a model thread that parked in
//! the kernel while holding the token would deadlock the whole model.
//! `Mutex::new` is `const`, and `lock` returns std's `LockResult`, so
//! code written against `std::sync` (including
//! `unwrap_or_else(PoisonError::into_inner)` recovery) compiles against
//! this module unchanged.
//!
//! The atomics likewise wrap std atomics. Every operation is performed
//! with `SeqCst` regardless of the ordering argument — the explorer
//! enumerates sequentially-consistent interleavings only; the caller's
//! ordering argument is accepted for API compatibility and checked by
//! the `atomic-ordering` lint rule, not here.

use crate::sched;
use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, PoisonError, TryLockError};

pub use std::sync::Arc;

/// A `const`-constructible mutex whose acquire/release are scheduling
/// points. See the module docs.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; releasing it wakes scheduler-blocked waiters
/// and yields a scheduling point (unless the thread is unwinding).
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// The owning mutex, so [`Condvar::wait`] can re-acquire after waking.
    lock: &'a Mutex<T>,
    res: usize,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex (usable in `static`s).
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// The scheduler resource key for this mutex: its address.
    fn res(&self) -> usize {
        self as *const Self as usize
    }

    /// Acquire, blocking through the scheduler. Poisoning behaves like
    /// std: the error carries a live guard recoverable via
    /// [`PoisonError::into_inner`].
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        loop {
            sched::point();
            match self.inner.try_lock() {
                Ok(g) => {
                    return Ok(MutexGuard {
                        inner: Some(g),
                        lock: self,
                        res: self.res(),
                    })
                }
                Err(TryLockError::Poisoned(p)) => {
                    return Err(PoisonError::new(MutexGuard {
                        inner: Some(p.into_inner()),
                        lock: self,
                        res: self.res(),
                    }))
                }
                Err(TryLockError::WouldBlock) => sched::block_on(self.res()),
            }
        }
    }

    /// Non-blocking acquire (still a scheduling point).
    pub fn try_lock(&self) -> Result<MutexGuard<'_, T>, TryLockError<MutexGuard<'_, T>>> {
        sched::point();
        match self.inner.try_lock() {
            Ok(g) => Ok(MutexGuard {
                inner: Some(g),
                lock: self,
                res: self.res(),
            }),
            Err(TryLockError::Poisoned(p)) => {
                Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                    inner: Some(p.into_inner()),
                    lock: self,
                    res: self.res(),
                })))
            }
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

/// A `const`-constructible condition variable whose wait/notify run
/// through the scheduler.
///
/// `wait` releases the guard's mutex and blocks on the condvar's address
/// *without an intervening scheduling point*: `sched::unblock` marks
/// mutex waiters runnable but keeps the token, and `sched::block_on`
/// is the next hand-off, so no other model thread can run (and notify)
/// between the release and the block — the atomic release-and-sleep that
/// real condvars guarantee. `notify_all`/`notify_one` mark every waiter
/// runnable (a conservative over-approximation of `notify_one`; callers
/// must re-check their condition in a loop, which spurious-wakeup-safe
/// code does anyway). Outside a model, `block_on` degrades to an OS
/// yield, so `wait` returns spuriously and the caller's re-check loop
/// spins — acceptable for non-model `cfg(loom)` builds.
#[derive(Debug, Default)]
pub struct Condvar {
    _private: (),
}

impl Condvar {
    /// A new condvar (usable in `static`s).
    pub const fn new() -> Self {
        Condvar { _private: () }
    }

    /// The scheduler resource key for this condvar: its address.
    fn res(&self) -> usize {
        self as *const Self as usize
    }

    /// Atomically release `guard`'s mutex and block until a notify (or a
    /// spurious wakeup outside a model), then re-acquire. Mirrors
    /// `std::sync::Condvar::wait`, including the poison contract on
    /// re-acquisition.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        let mutex_res = guard.res;
        // Release the real mutex and wake its waiters, but do NOT yield:
        // the very next scheduling transition must be our own block, or a
        // notifier could fire while we are still runnable (lost wakeup).
        drop(guard.inner.take());
        std::mem::forget(guard);
        sched::unblock(mutex_res);
        sched::block_on(self.res());
        lock.lock()
    }

    /// Wake one waiter. The shim wakes all (see type docs); condition
    /// re-check loops make that indistinguishable up to scheduling.
    pub fn notify_one(&self) {
        sched::unblock(self.res());
        sched::point();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        sched::unblock(self.res());
        sched::point();
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let res = self.res;
        // Release the real lock first (poisons if unwinding), then wake
        // scheduler-blocked waiters. The release point lets the explorer
        // hand the lock straight to a waiter — skipped mid-unwind, where
        // re-entering the scheduler could double-panic.
        drop(self.inner.take());
        sched::unblock(res);
        if !std::thread::panicking() {
            sched::point();
        }
    }
}

pub mod atomic {
    //! Scheduling-point-instrumented atomics (SeqCst model).

    use crate::sched;
    pub use std::sync::atomic::Ordering;
    use std::sync::atomic::Ordering::SeqCst;

    macro_rules! int_atomic {
        ($Name:ident, $Std:ty, $T:ty) => {
            /// Model-aware atomic integer; every operation is a
            /// scheduling point executed at `SeqCst`.
            #[derive(Debug, Default)]
            pub struct $Name {
                inner: $Std,
            }

            impl $Name {
                /// A new atomic (usable in `static`s).
                pub const fn new(v: $T) -> Self {
                    Self {
                        inner: <$Std>::new(v),
                    }
                }

                pub fn load(&self, _order: Ordering) -> $T {
                    sched::point();
                    self.inner.load(SeqCst)
                }

                pub fn store(&self, v: $T, _order: Ordering) {
                    sched::point();
                    self.inner.store(v, SeqCst)
                }

                pub fn swap(&self, v: $T, _order: Ordering) -> $T {
                    sched::point();
                    self.inner.swap(v, SeqCst)
                }

                pub fn fetch_add(&self, v: $T, _order: Ordering) -> $T {
                    sched::point();
                    self.inner.fetch_add(v, SeqCst)
                }

                pub fn fetch_sub(&self, v: $T, _order: Ordering) -> $T {
                    sched::point();
                    self.inner.fetch_sub(v, SeqCst)
                }

                pub fn fetch_max(&self, v: $T, _order: Ordering) -> $T {
                    sched::point();
                    self.inner.fetch_max(v, SeqCst)
                }

                pub fn compare_exchange(
                    &self,
                    current: $T,
                    new: $T,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$T, $T> {
                    sched::point();
                    self.inner.compare_exchange(current, new, SeqCst, SeqCst)
                }

                pub fn compare_exchange_weak(
                    &self,
                    current: $T,
                    new: $T,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$T, $T> {
                    self.compare_exchange(current, new, success, failure)
                }

                pub fn into_inner(self) -> $T {
                    self.inner.into_inner()
                }
            }
        };
    }

    int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    int_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    int_atomic!(AtomicI64, std::sync::atomic::AtomicI64, i64);

    /// Model-aware atomic boolean; every operation is a scheduling
    /// point executed at `SeqCst`.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// A new atomic (usable in `static`s).
        pub const fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        pub fn load(&self, _order: Ordering) -> bool {
            sched::point();
            self.inner.load(SeqCst)
        }

        pub fn store(&self, v: bool, _order: Ordering) {
            sched::point();
            self.inner.store(v, SeqCst);
        }

        pub fn swap(&self, v: bool, _order: Ordering) -> bool {
            sched::point();
            self.inner.swap(v, SeqCst)
        }

        pub fn fetch_or(&self, v: bool, _order: Ordering) -> bool {
            sched::point();
            self.inner.fetch_or(v, SeqCst)
        }

        pub fn fetch_and(&self, v: bool, _order: Ordering) -> bool {
            sched::point();
            self.inner.fetch_and(v, SeqCst)
        }

        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            _success: Ordering,
            _failure: Ordering,
        ) -> Result<bool, bool> {
            sched::point();
            self.inner.compare_exchange(current, new, SeqCst, SeqCst)
        }
    }
}
