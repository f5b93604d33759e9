//! Hierarchical wall-clock spans with a bounded, thread-safe sink.
//!
//! A [`Span`] is an RAII guard: it notes the start time when opened and
//! writes one [`SpanRecord`] into the owning [`Recorder`] when dropped.
//! Parentage is tracked per thread — a span opened while another span from
//! the same recorder is live on the same thread becomes its child — so the
//! exported trace shows `plan → convert → kernel` nesting without any
//! explicit plumbing.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span: times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the recorder.
    pub id: u64,
    /// Enclosing span on the same thread, if any survived in the buffer.
    pub parent: Option<u64>,
    /// Span name, e.g. `"planner.execute"`.
    pub name: String,
    /// Small sequential thread id (not the OS tid).
    pub tid: u64,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created. Always `>= start_ns`.
    pub end_ns: u64,
    /// User-attached counters, in attachment order.
    pub counters: Vec<(String, f64)>,
}

impl SpanRecord {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Sequential id of this thread, assigned on first span.
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// Stack of live spans on this thread: (recorder address, span id,
    /// span name). Keyed by address so two recorders in one test don't
    /// cross-link; the name is kept so a panic hook can report which
    /// spans were still open (live spans only land in the ring on drop).
    static SPAN_STACK: RefCell<Vec<(usize, u64, String)>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            // ordering: monotone id counter — only uniqueness matters;
            // the id publishes no other data.
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

struct Inner {
    spans: std::collections::VecDeque<SpanRecord>,
    dropped: u64,
    next_id: u64,
}

/// Thread-safe sink holding up to `capacity` completed spans in a ring
/// buffer; older records are evicted (and counted) when it wraps. A
/// capacity of `0` disables recording entirely.
pub struct Recorder {
    epoch: Instant,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// Default retained-span budget (~64 B each, so a few MiB at most).
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A recorder retaining at most `capacity` spans (0 = disabled).
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            capacity,
            inner: Mutex::new(Inner {
                spans: std::collections::VecDeque::new(),
                dropped: 0,
                next_id: 1,
            }),
        }
    }

    /// Retained-span budget; 0 means disabled.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds elapsed since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it records itself when the returned guard drops.
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        if self.capacity == 0 {
            return Span {
                recorder: self,
                id: 0,
                parent: None,
                name: String::new(),
                start_ns: 0,
                counters: Vec::new(),
                live: false,
                alloc: crate::alloc::AllocScope::begin(),
            };
        }
        let key = self as *const Recorder as usize;
        let id = {
            let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let id = inner.next_id;
            inner.next_id += 1;
            id
        };
        let name = name.into();
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s
                .iter()
                .rev()
                .find(|(k, _, _)| *k == key)
                .map(|&(_, id, _)| id);
            s.push((key, id, name.clone()));
            parent
        });
        Span {
            recorder: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            counters: Vec::new(),
            live: true,
            alloc: crate::alloc::AllocScope::begin(),
        }
    }

    /// Copy out all retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.spans.iter().cloned().collect()
    }

    /// Spans evicted because the ring wrapped (plus all spans, if disabled).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).dropped
    }

    /// Names of this recorder's spans still open on the *current* thread,
    /// outermost first. Live spans only reach [`Recorder::snapshot`] when
    /// their guard drops, so this is the only view a panic hook gets of
    /// the call path that was executing when the panic unwound.
    pub fn active_stack(&self) -> Vec<String> {
        let key = self as *const Recorder as usize;
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .filter(|(k, _, _)| *k == key)
                .map(|(_, _, name)| name.clone())
                .collect()
        })
    }

    fn finish(&self, record: SpanRecord) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.spans.len() == self.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back(record);
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .field("retained", &inner.spans.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

/// RAII guard for one open span. Attach counters with [`Span::counter`];
/// the record is written when this drops.
pub struct Span<'r> {
    recorder: &'r Recorder,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    counters: Vec<(String, f64)>,
    live: bool,
    /// Allocation delta over the span's lifetime on this thread; inert
    /// (zeros) unless [`crate::alloc::enable_counting`] was on at open.
    alloc: crate::alloc::AllocScope,
}

impl Span<'_> {
    /// Attach (or overwrite) a named counter on this span.
    pub fn counter(&mut self, name: impl Into<String>, value: f64) {
        if !self.live {
            return;
        }
        let name = name.into();
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.counters.push((name, value)),
        }
    }

    /// This span's id (0 when the recorder is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.live {
            if self.recorder.capacity == 0 {
                self.recorder.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).dropped += 1;
            }
            return;
        }
        let key = self.recorder as *const Recorder as usize;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Normally ours is the top entry for this recorder; remove by
            // id to stay correct even if guards drop out of order.
            if let Some(pos) = s.iter().rposition(|(k, id, _)| *k == key && *id == self.id) {
                s.remove(pos);
            }
        });
        let (alloc_count, alloc_bytes) = self.alloc.finish();
        if alloc_count > 0 {
            self.counters
                .push(("alloc.count".to_string(), alloc_count as f64));
            self.counters
                .push(("alloc.bytes".to_string(), alloc_bytes as f64));
        }
        let end_ns = self.recorder.now_ns().max(self.start_ns);
        self.recorder.finish(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            tid: thread_id(),
            start_ns: self.start_ns,
            end_ns,
            counters: std::mem::take(&mut self.counters),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_and_nest_in_time() {
        let rec = Recorder::with_capacity(16);
        {
            let _outer = rec.span("outer");
            let mut inner = rec.span("inner");
            inner.counter("n", 3.0);
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        // Children drop first, so "inner" is recorded first.
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.counters, vec![("n".to_string(), 3.0)]);
        // Timing monotonicity: child is contained in the parent.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert!(inner.end_ns >= inner.start_ns);
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn siblings_share_a_parent() {
        let rec = Recorder::with_capacity(16);
        {
            let _outer = rec.span("outer");
            drop(rec.span("a"));
            drop(rec.span("b"));
        }
        let spans = rec.snapshot();
        let outer_id = spans.iter().find(|s| s.name == "outer").unwrap().id;
        for name in ["a", "b"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(outer_id), "{name} should nest in outer");
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let rec = Recorder::with_capacity(2);
        for i in 0..5 {
            drop(rec.span(format!("s{i}")));
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "s3");
        assert_eq!(spans[1].name, "s4");
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let rec = Recorder::with_capacity(0);
        {
            let mut s = rec.span("ignored");
            s.counter("n", 1.0); // must not panic
            assert_eq!(s.id(), 0);
        }
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn two_recorders_do_not_cross_link() {
        let a = Recorder::with_capacity(4);
        let b = Recorder::with_capacity(4);
        {
            let _pa = a.span("pa");
            drop(b.span("cb")); // no live span in b => root
        }
        assert_eq!(b.snapshot()[0].parent, None);
        assert_eq!(a.snapshot()[0].parent, None);
    }

    #[test]
    fn counter_overwrites_by_name() {
        let rec = Recorder::with_capacity(4);
        {
            let mut s = rec.span("s");
            s.counter("x", 1.0);
            s.counter("x", 2.0);
            s.counter("y", 3.0);
        }
        let spans = rec.snapshot();
        assert_eq!(
            spans[0].counters,
            vec![("x".to_string(), 2.0), ("y".to_string(), 3.0)]
        );
    }

    #[test]
    fn active_stack_tracks_live_spans_outermost_first() {
        let rec = Recorder::with_capacity(16);
        let other = Recorder::with_capacity(16);
        assert!(rec.active_stack().is_empty());
        {
            let _outer = rec.span("outer");
            let _elsewhere = other.span("elsewhere");
            let _inner = rec.span("inner");
            assert_eq!(rec.active_stack(), vec!["outer", "inner"]);
            assert_eq!(other.active_stack(), vec!["elsewhere"]);
        }
        assert!(rec.active_stack().is_empty());
        assert!(other.active_stack().is_empty());
    }

    #[test]
    fn spans_from_threads_get_distinct_tids() {
        let rec = std::sync::Arc::new(Recorder::with_capacity(16));
        drop(rec.span("main"));
        let r2 = rec.clone();
        std::thread::spawn(move || drop(r2.span("worker")))
            .join()
            .unwrap();
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].tid, spans[1].tid);
    }
}
