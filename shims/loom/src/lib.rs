//! Offline shim of the `loom` model checker's API surface.
//!
//! The real `loom` explores thread interleavings by running the model
//! body on cooperative generators inside one OS thread. This shim keeps
//! the same *contract* — [`model`](fn@model) runs a closure under **every**
//! sequentially-consistent interleaving of its synchronization
//! operations, up to a preemption bound — but implements it with real OS
//! threads and a token-passing scheduler:
//!
//! * Exactly one model thread runs at a time. It holds "the token";
//!   everyone else parks on a condvar.
//! * Every [`sync::Mutex`] lock/unlock and every [`sync::atomic`]
//!   operation is a *scheduling point*: the running thread hands the
//!   token back to the scheduler, which picks who runs next.
//! * The scheduler replays a decision prefix and then takes the first
//!   allowed choice, recording each point's branching factor. After the
//!   execution finishes, depth-first backtracking derives the next
//!   prefix; exploration ends when no decision point has an untried
//!   alternative.
//! * A *preemption* (switching away from a thread that could have kept
//!   running) is bounded by `LOOM_MAX_PREEMPTIONS` (default 2) — the
//!   classic CHESS result: almost all real concurrency bugs manifest
//!   within two preemptions, and the bound keeps the state space
//!   polynomial. `LOOM_MAX_ITERATIONS` (default 100 000) caps the total
//!   execution count as a wall-clock backstop; hitting it prints a loud
//!   warning because coverage is then incomplete.
//!
//! Because interleavings are explored at the sequential-consistency
//! level, this shim checks *logic* under concurrency (lost updates,
//! atomicity violations, deadlocks, poison recovery) but not weak-memory
//! reorderings — the `atomic-ordering` lint rule and the `// ordering:`
//! comment discipline carry that burden instead.
//!
//! Deadlocks (every live thread blocked) abort the execution with the
//! decision trace. A panicking model thread unwinds normally — std
//! mutexes poison, joiners observe `Err` — so poison-recovery paths are
//! modelable, matching real `loom`.

mod sched;
pub mod sync;
pub mod thread;

pub use sched::model;

/// `loom::model::Builder` stand-in: the real crate exposes knobs here;
/// the shim reads the same knobs from `LOOM_MAX_PREEMPTIONS` /
/// `LOOM_MAX_ITERATIONS` and this type only carries explicit overrides.
pub mod model {
    /// Configurable model runner (subset: preemption bound).
    #[derive(Default)]
    pub struct Builder {
        /// Override the `LOOM_MAX_PREEMPTIONS` bound for this model.
        pub preemption_bound: Option<usize>,
    }

    impl Builder {
        /// A builder with every knob at its default.
        pub fn new() -> Self {
            Self::default()
        }

        /// Run `f` under exhaustive bounded interleaving.
        pub fn check<F>(&self, f: F)
        where
            F: Fn() + Send + Sync + 'static,
        {
            crate::sched::model_bounded(self.preemption_bound, f);
        }
    }
}
