//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a workspace crate in a
//! span named `<layer>.<call>`, where the layer is the crate that does the
//! work. A span records its start and end on one monotonic clock, the span
//! it was opened under, and the matrix or request it worked on. Spans stay
//! in memory and are written out as JSONL when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span this call ran under, if any.
    pub parent: Option<u64>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Matrix index (sweeps) or request id (serve).
    pub item: u64,
    /// Nanoseconds since the tracer's clock origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's clock origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration of the call.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so it can open
    /// child spans under it.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        item: u64,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Span {
                id,
                parent,
                name,
                item,
                start_ns,
                end_ns,
            });
        out
    }

    /// Move out every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// [`Tracer::span`] when tracing is on, a plain call when it is off — so
/// the traced and untraced passes run the same code.
pub fn span<T>(
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    name: &'static str,
    item: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(parent, name, item, f),
        None => f(None),
    }
}

/// Summed duration of every span called `name`, in milliseconds.
pub fn busy_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |sum, s| sum + s.ns() as f64)
        / 1e6
}

/// Durations of every span called `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// Write `(pass, span)` records as JSONL, one span per line.
pub fn write_jsonl(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    passes: &[Vec<Span>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"pass\":{pass},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.item, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
