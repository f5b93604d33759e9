//! Offline shim for `rayon`: the parallel-iterator entry points used by
//! this workspace, implemented on real OS threads (`std::thread::scope`)
//! with deterministic, order-preserving result assembly.
//!
//! The shape of the executor is deliberately simple: `into_par_iter()`
//! materializes the items, workers pull `(index, item)` pairs from a
//! shared queue, and each result is written back to its original index.
//! `collect()` therefore returns elements in input order regardless of
//! which worker computed them or in what order they finished — the
//! property the workspace's byte-stable ledger depends on.
//!
//! Thread count resolution (first match wins):
//! 1. an explicit [`ThreadPoolBuilder::build_global`] call,
//! 2. the `RAYON_NUM_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! With one thread (or one item) everything runs inline on the caller's
//! thread, so `RAYON_NUM_THREADS=1` is an exact serial execution.
//!
//! A parallel call made from inside a worker also runs inline, on that
//! worker: the outer call already keeps every thread busy, so spawning
//! another set of OS threads per nested call would only add spawn cost
//! and oversubscribe the cores. Real rayon gets the same effect from
//! work stealing on its one global pool.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator};
}

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// 0 = not yet resolved; resolved lazily on first use.
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

fn default_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Number of worker threads parallel iterators will use.
pub fn current_num_threads() -> usize {
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = default_num_threads();
    // Racing first-callers resolve the same value; either store wins.
    NUM_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Error mimic for [`ThreadPoolBuilder::build_global`]. The shim's global
/// configuration can always be (re)applied, so this is never produced, but
/// callers written against real rayon expect a `Result`.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool configuration failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Mimic of `rayon::ThreadPoolBuilder` covering global configuration.
///
/// Unlike real rayon, calling [`build_global`](Self::build_global) more
/// than once is allowed and simply re-points the thread count — handy for
/// tests that compare serial and parallel executions in one process.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building; with no explicit count the environment default is
    /// kept.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` worker threads; 0 means "use the default".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Install the configuration globally.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_num_threads()
        } else {
            self.num_threads
        };
        NUM_THREADS.store(n, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

thread_local! {
    /// Set on the threads [`run_parallel`] spawns, for their lifetime.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` over `items` on the shim's thread pool and return the results
/// in input order. Panics in `f` are propagated to the caller after all
/// workers stop. Called from a worker, it runs inline on that worker.
fn run_parallel<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 || IN_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let next = queue.lock().expect("work queue poisoned").next();
                        match next {
                            Some((i, item)) => done.push((i, f(item))),
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => {
                    for (i, r) in part {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
        .collect()
}

// ---------------------------------------------------------------------------
// Parallel iterator types
// ---------------------------------------------------------------------------

/// A materialized "parallel iterator": the items to distribute, in order.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Map each item through `f` (evaluated in parallel at the sink).
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Run `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_parallel(self.items, f);
    }

    /// Sum the items. The items are already materialized in input order,
    /// so this folds sequentially — deterministic for floats too.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        self.items.into_iter().sum()
    }

    /// Collect into `C` preserving input order.
    pub fn collect<C>(self) -> C
    where
        C: FromParIter<T>,
    {
        C::from_ordered(self.items)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Lazy map stage: evaluated in parallel when a sink method runs.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Evaluate the map in parallel and collect into `C` in input order.
    pub fn collect<C>(self) -> C
    where
        C: FromParIter<R>,
    {
        C::from_ordered(run_parallel(self.items, self.f))
    }

    /// Evaluate the map in parallel, discarding results.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Sync,
    {
        let f = self.f;
        run_parallel(self.items, |item| g(f(item)));
    }

    /// Evaluate the map in parallel, then sum in input order.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        run_parallel(self.items, self.f).into_iter().sum()
    }
}

/// Sink conversion from an ordered result vector — the shim's analogue of
/// `rayon::iter::FromParallelIterator`.
pub trait FromParIter<T> {
    /// Build the collection from results already in input order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

/// Short-circuit semantics matching rayon: the *first* error in input
/// order wins, no matter which worker hit it first in wall-clock time.
impl<T, E, C: FromParIter<T>> FromParIter<Result<T, E>> for Result<C, E> {
    fn from_ordered(items: Vec<Result<T, E>>) -> Self {
        let mut ok = Vec::with_capacity(items.len());
        for item in items {
            ok.push(item?);
        }
        Ok(C::from_ordered(ok))
    }
}

impl<T, C: FromParIter<T>> FromParIter<Option<T>> for Option<C> {
    fn from_ordered(items: Vec<Option<T>>) -> Self {
        let mut ok = Vec::with_capacity(items.len());
        for item in items {
            ok.push(item?);
        }
        Some(C::from_ordered(ok))
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

/// Stand-in for `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Convert into a parallel iterator (materializes the items).
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<I: IntoIterator> IntoParallelIterator for I
where
    I::Item: Send,
{
    type Item = I::Item;
    fn into_par_iter(self) -> ParIter<I::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Stand-in for `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// Element type (a reference into the collection).
    type Item: Send + 'data;
    /// Iterate by reference.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoIterator,
    <&'data C as IntoIterator>::Item: Send,
{
    type Item = <&'data C as IntoIterator>::Item;
    fn par_iter(&'data self) -> ParIter<Self::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v = vec![1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
        let squared: Vec<i32> = v.into_par_iter().map(|x| x * x).collect();
        assert_eq!(squared, vec![1, 4, 9]);
    }

    #[test]
    fn ranges_and_slices_work() {
        let total: usize = (0..10usize).into_par_iter().sum();
        assert_eq!(total, 45);
        let s: &[u32] = &[5, 6];
        let refs: Vec<&u32> = s.par_iter().collect();
        assert_eq!(*refs[1], 6);
    }

    #[test]
    fn large_map_is_order_stable() {
        // Enough items that, with >1 thread, workers interleave freely;
        // the collected order must still match the input order exactly.
        let out: Vec<usize> = (0..10_000usize).into_par_iter().map(|x| x * 3).collect();
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn for_each_visits_every_item_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        (0..hits.len()).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn result_collect_reports_first_error_in_input_order() {
        let r: Result<Vec<usize>, String> = (0..100usize)
            .into_par_iter()
            .map(|i| {
                if i == 7 || i == 93 {
                    Err(format!("bad {i}"))
                } else {
                    Ok(i)
                }
            })
            .collect();
        assert_eq!(r, Err("bad 7".to_string()));
        let ok: Result<Vec<usize>, String> = (0..10usize).into_par_iter().map(Ok).collect();
        assert_eq!(ok.as_deref(), Ok(&(0..10).collect::<Vec<_>>()[..]));
    }

    #[test]
    fn mutable_items_partition_disjointly() {
        // Mirror of the host-kernel pattern: disjoint &mut slices as items.
        let mut data = vec![0u32; 64];
        let chunks: Vec<(usize, &mut [u32])> = data.chunks_mut(4).enumerate().collect();
        chunks.into_par_iter().for_each(|(i, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 4 + j) as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    /// Serializes the tests that re-point the global thread count, so
    /// each sees the count it set.
    static COUNT_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _guard = COUNT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("shim build_global always succeeds");
        f()
    }

    /// Outer items each run an inner parallel map; returns, per outer
    /// item, the outer thread and the inner `(thread, value)` pairs.
    #[allow(clippy::type_complexity)]
    fn nested_run() -> Vec<(std::thread::ThreadId, Vec<(std::thread::ThreadId, usize)>)> {
        (0..4usize)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<_> = (0..64usize)
                    .into_par_iter()
                    .map(|j| (std::thread::current().id(), i * 100 + j))
                    .collect();
                (std::thread::current().id(), inner)
            })
            .collect()
    }

    fn assert_nested_inline(runs: &[(std::thread::ThreadId, Vec<(std::thread::ThreadId, usize)>)]) {
        assert_eq!(runs.len(), 4);
        for (i, (outer, inner)) in runs.iter().enumerate() {
            assert!(
                inner.iter().all(|(id, _)| id == outer),
                "inner ran off its worker"
            );
            let values: Vec<usize> = inner.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, (0..64).map(|j| i * 100 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_call_runs_inline_on_the_outer_worker() {
        let caller = std::thread::current().id();
        let runs = with_threads(4, nested_run);
        assert_nested_inline(&runs);
        assert!(
            runs.iter().all(|(outer, _)| *outer != caller),
            "with 4 threads the outer items run on spawned workers"
        );
    }

    #[test]
    fn one_thread_runs_everything_on_the_caller() {
        // What `RAYON_NUM_THREADS=1` resolves to: an exact serial run,
        // nested calls included.
        let caller = std::thread::current().id();
        let runs = with_threads(1, nested_run);
        assert_nested_inline(&runs);
        assert!(runs.iter().all(|(outer, _)| *outer == caller));
    }

    #[test]
    fn nested_panic_reaches_the_top_level_caller() {
        let result = with_threads(4, || {
            std::panic::catch_unwind(|| {
                (0..4usize)
                    .into_par_iter()
                    .map(|i| {
                        (0..8usize)
                            .into_par_iter()
                            .map(|j| {
                                assert!(i != 2 || j != 5, "nested boom");
                                j
                            })
                            .sum::<usize>()
                    })
                    .collect::<Vec<usize>>()
            })
        });
        let payload = result.expect_err("the nested panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(msg, Some("nested boom"));
    }

    #[test]
    fn build_global_overrides_thread_count() {
        let _guard = COUNT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .expect("shim build_global always succeeds");
        assert_eq!(current_num_threads(), 3);
        // Re-pointing is allowed in the shim (unlike real rayon).
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .expect("shim build_global always succeeds");
        assert_eq!(current_num_threads(), 1);
        let out: Vec<usize> = (0..8usize).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }
}
