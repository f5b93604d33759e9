//! The token-passing scheduler and depth-first interleaving explorer.
//!
//! One global [`State`] describes the execution in flight: per-thread
//! status, who holds the token (`current`), the decision prefix being
//! replayed, and the decision log being recorded. Model threads call
//! [`point`] / [`block_on`] / [`join_wait`] at synchronization
//! operations; each call picks the next thread to run under the
//! preemption budget and parks the caller until the token comes back.
//!
//! Only one `model()` runs at a time (`MODEL_LOCK`), so a process-global
//! scheduler is safe even under a parallel test harness.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Blocked until the resource (a mutex, by address) is released.
    BlockedOn(usize),
    /// Blocked until the target thread finishes.
    Joining(usize),
    Finished,
}

/// One scheduling decision: (index chosen into the allowed set, size of
/// the allowed set). Points with arity 1 never branch.
type Decision = (usize, usize);

struct State {
    /// An execution is in flight (model threads exist).
    active: bool,
    threads: Vec<Status>,
    /// The thread holding the token. Exactly one model thread runs at a
    /// time; everyone else parks on `CV`.
    current: usize,
    /// All threads finished.
    done: bool,
    /// Deadlock (or other scheduler-detected failure) message.
    failed: Option<String>,
    /// Decision indices to replay from the previous execution.
    prefix: Vec<usize>,
    /// Decisions taken in this execution (replayed + fresh).
    decisions: Vec<Decision>,
    pos: usize,
    preemptions: usize,
    max_preemptions: usize,
}

impl State {
    const fn idle() -> Self {
        State {
            active: false,
            threads: Vec::new(),
            current: 0,
            done: false,
            failed: None,
            prefix: Vec::new(),
            decisions: Vec::new(),
            pos: 0,
            preemptions: 0,
            max_preemptions: 0,
        }
    }
}

static STATE: Mutex<State> = Mutex::new(State::idle());
static CV: Condvar = Condvar::new();
/// Serializes whole `model()` calls: the scheduler state is global.
static MODEL_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// This OS thread's model-thread id, when it belongs to an execution.
    static CUR_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

fn st() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cur_id() -> Option<usize> {
    CUR_ID.with(Cell::get)
}

/// Pick the next thread to run. Caller holds the state lock and either
/// holds the token or is relinquishing it (blocking / finishing).
fn pick_next(s: &mut State) {
    let runnable: Vec<usize> = s
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| **t == Status::Runnable)
        .map(|(i, _)| i)
        .collect();
    if runnable.is_empty() {
        if s.threads.iter().all(|t| *t == Status::Finished) {
            s.done = true;
        } else {
            s.failed = Some(format!(
                "deadlock: no runnable thread (statuses {:?} after {} decision(s): {:?})",
                s.threads,
                s.decisions.len(),
                s.decisions
            ));
        }
        CV.notify_all();
        return;
    }
    let prev = s.current;
    let prev_runnable = s.threads.get(prev) == Some(&Status::Runnable);
    // Preemption bounding (CHESS-style): once the budget is spent, a
    // thread that can keep running must keep running. Forced switches
    // (the previous thread blocked or finished) are free.
    let allowed = if prev_runnable && s.preemptions >= s.max_preemptions {
        vec![prev]
    } else {
        runnable
    };
    let idx = if s.pos < s.prefix.len() {
        // Replay. Executions are deterministic given the decision path,
        // so the recorded index is in range; clamp defensively anyway.
        s.prefix[s.pos].min(allowed.len() - 1)
    } else {
        0
    };
    s.pos += 1;
    s.decisions.push((idx, allowed.len()));
    let chosen = allowed[idx];
    if prev_runnable && chosen != prev {
        s.preemptions += 1;
    }
    s.current = chosen;
    CV.notify_all();
}

/// Park until the token comes back to `me` (or the execution fails,
/// which unwinds this thread so its guards release and it finishes).
fn wait_for_token(mut s: MutexGuard<'_, State>, me: usize) {
    while s.failed.is_none() && s.current != me {
        s = CV.wait(s).unwrap_or_else(PoisonError::into_inner);
    }
    let failed = s.failed.is_some();
    drop(s);
    if failed && !std::thread::panicking() {
        panic!("loom: execution aborted (failure detected on another thread)");
    }
}

/// A scheduling point: hand the token to the scheduler and wait for it
/// back. No-op outside an active execution (loom types then degrade to
/// plain std behaviour).
pub(crate) fn point() {
    let Some(me) = cur_id() else { return };
    let s = st();
    if !s.active || s.done {
        return;
    }
    if abort_if_failed(&s) {
        return;
    }
    debug_assert_eq!(
        s.current, me,
        "a non-current thread reached a scheduling point"
    );
    let mut s = s;
    pick_next(&mut s);
    wait_for_token(s, me);
}

/// When the execution has failed, unwind the calling thread (so it
/// releases its locks and finishes) instead of letting it keep running —
/// an early `return` here would let `Mutex::lock` retry loops spin
/// forever. Returns true (caller bails out) only mid-unwind.
fn abort_if_failed(s: &MutexGuard<'_, State>) -> bool {
    if s.failed.is_none() {
        return false;
    }
    if std::thread::panicking() {
        return true;
    }
    panic!("loom: execution aborted (failure detected on another thread)");
}

/// Block the calling thread until `res` is released, then resume (the
/// caller retries its acquire in a loop). Outside a model this degrades
/// to an OS yield so the caller's retry loop becomes a spin-wait.
pub(crate) fn block_on(res: usize) {
    let Some(me) = cur_id() else {
        std::thread::yield_now();
        return;
    };
    let mut s = st();
    if !s.active || abort_if_failed(&s) {
        return;
    }
    s.threads[me] = Status::BlockedOn(res);
    pick_next(&mut s);
    wait_for_token(s, me);
}

/// Mark every thread blocked on `res` runnable again. Called by the
/// releasing thread, which keeps the token (its next scheduling point
/// decides who actually runs).
pub(crate) fn unblock(res: usize) {
    if cur_id().is_none() {
        return;
    }
    let mut s = st();
    if !s.active {
        return;
    }
    for t in &mut s.threads {
        if *t == Status::BlockedOn(res) {
            *t = Status::Runnable;
        }
    }
}

/// Block until model thread `target` finishes.
pub(crate) fn join_wait(target: usize) {
    let Some(me) = cur_id() else { return };
    let mut s = st();
    if !s.active || abort_if_failed(&s) {
        return;
    }
    if s.threads.get(target) == Some(&Status::Finished) {
        return;
    }
    s.threads[me] = Status::Joining(target);
    pick_next(&mut s);
    wait_for_token(s, me);
}

/// Register a new model thread (spawner holds the token); returns its id.
pub(crate) fn register() -> usize {
    let mut s = st();
    debug_assert!(s.active, "loom thread spawned outside a model");
    s.threads.push(Status::Runnable);
    s.threads.len() - 1
}

/// Adopt `id` on this OS thread and wait to be scheduled for the first
/// time. Runs on the freshly spawned OS thread.
pub(crate) fn enter_thread(id: usize) {
    CUR_ID.with(|c| c.set(Some(id)));
    let s = st();
    wait_for_token(s, id);
}

/// Mark `id` finished, wake joiners, and hand the token on. Runs from a
/// drop guard so panicking model threads still release the scheduler.
pub(crate) fn finish(id: usize) {
    let mut s = st();
    if !s.active {
        return;
    }
    s.threads[id] = Status::Finished;
    for t in &mut s.threads {
        if *t == Status::Joining(id) {
            *t = Status::Runnable;
        }
    }
    pick_next(&mut s);
}

/// Finishes its thread on drop — constructed before the model closure
/// runs so even a panicking thread reports completion.
pub(crate) struct FinishGuard(pub(crate) usize);

impl Drop for FinishGuard {
    fn drop(&mut self) {
        finish(self.0);
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Depth-first backtracking: the next replay prefix, or `None` when
/// every decision point has exhausted its alternatives.
fn next_prefix(decisions: &[Decision]) -> Option<Vec<usize>> {
    let mut i = decisions.len();
    while i > 0 {
        i -= 1;
        let (chosen, arity) = decisions[i];
        if chosen + 1 < arity {
            let mut p: Vec<usize> = decisions[..i].iter().map(|d| d.0).collect();
            p.push(chosen + 1);
            return Some(p);
        }
    }
    None
}

/// Outcome of one execution.
struct ExecResult {
    decisions: Vec<Decision>,
    /// Scheduler-detected failure (deadlock).
    verdict: Result<(), String>,
    /// The root thread's own outcome (Err = the model body panicked).
    root: std::thread::Result<()>,
}

fn run_one(
    f: std::sync::Arc<dyn Fn() + Send + Sync>,
    prefix: Vec<usize>,
    max_preemptions: usize,
) -> ExecResult {
    {
        let mut s = st();
        *s = State::idle();
        s.active = true;
        s.threads.push(Status::Runnable); // root model thread, id 0
        s.current = 0;
        s.prefix = prefix;
        s.max_preemptions = max_preemptions;
    }
    let root = std::thread::Builder::new()
        .name("loom-w0".into())
        .spawn(move || {
            let _fin = FinishGuard(0);
            enter_thread(0);
            f();
        })
        .expect("loom: spawning the root model thread failed");
    // Wait for the execution to complete. On failure, also wait for
    // every model thread to unwind and finish — otherwise the next
    // execution's state reset would strand them on the condvar.
    {
        let mut s = st();
        while !(s.done || (s.failed.is_some() && s.threads.iter().all(|t| *t == Status::Finished)))
        {
            s = CV.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
    let root = root.join();
    let mut s = st();
    s.active = false;
    ExecResult {
        decisions: std::mem::take(&mut s.decisions),
        verdict: match s.failed.take() {
            Some(msg) => Err(msg),
            None => Ok(()),
        },
        root,
    }
}

/// Total executions explored by the most recent completed `model()`
/// call, for the shim's own tests.
pub(crate) static LAST_ITERATIONS: AtomicUsize = AtomicUsize::new(0);

/// Run `f` under every sequentially-consistent interleaving of its
/// loom-mediated synchronization operations, up to the preemption bound
/// (`LOOM_MAX_PREEMPTIONS`, default 2). Panics if any interleaving
/// panics or deadlocks, reporting the decision trace.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model_bounded(None, f);
}

pub(crate) fn model_bounded<F>(bound: Option<usize>, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let _serial = MODEL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let max_preemptions = bound.unwrap_or_else(|| env_usize("LOOM_MAX_PREEMPTIONS", 2));
    let max_iterations = env_usize("LOOM_MAX_ITERATIONS", 100_000);
    let f: std::sync::Arc<dyn Fn() + Send + Sync> = std::sync::Arc::new(f);
    let mut prefix = Vec::new();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let exec = run_one(f.clone(), prefix, max_preemptions);
        if let Err(msg) = exec.verdict {
            panic!("loom: iteration {iterations}: {msg}");
        }
        if let Err(payload) = exec.root {
            eprintln!(
                "loom: model panicked on iteration {iterations}; decision trace ({}): {:?}",
                exec.decisions.len(),
                exec.decisions
            );
            std::panic::resume_unwind(payload);
        }
        match next_prefix(&exec.decisions) {
            Some(p) if iterations < max_iterations => prefix = p,
            Some(_) => {
                eprintln!(
                    "loom: warning: LOOM_MAX_ITERATIONS={max_iterations} reached with \
                     alternatives left — exploration is INCOMPLETE"
                );
                break;
            }
            None => break,
        }
    }
    LAST_ITERATIONS.store(iterations, Ordering::Relaxed);
}
