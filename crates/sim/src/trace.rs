//! Memory-access trace recording — the debugging lens over the memory
//! model.
//!
//! A [`TraceBuffer`] captures a bounded window of `(address, bytes, class,
//! kind)` events so tests and tools can assert *which* addresses a kernel
//! touched, not just how many bytes moved. The buffer is a ring: tracing
//! never grows unboundedly, and the drop count records what was lost.

use crate::stats::TrafficClass;
use serde::{Deserialize, Serialize};

/// What kind of access an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// Plain read.
    Read,
    /// Plain write.
    Write,
    /// Atomic read-modify-write.
    Atomic,
}

/// One recorded access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Starting byte address.
    pub addr: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Traffic class of the owning buffer.
    pub class: TrafficClass,
    /// Read / write / atomic.
    pub kind: AccessKind,
}

/// Bounded ring buffer of [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A trace window holding up to `capacity` events. A capacity of 0 is
    /// a disabled buffer: it retains nothing and counts every recorded
    /// event as dropped (mirroring `nmt-obs`'s zero-capacity recorder).
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Record one event, evicting the oldest when full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
        } else if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events in arrival order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the window was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total bytes recorded for `class` within the current window.
    pub fn bytes_for(&self, class: TrafficClass) -> u64 {
        self.events
            .iter()
            .filter(|e| e.class == class)
            .map(|e| e.bytes)
            .sum()
    }

    /// The window capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clear the window (dropped count is kept).
    pub fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
    }
}

/// Serializes as `{capacity, dropped, events: [...]}` with events in
/// arrival order, so a serialized buffer reads oldest-first.
/// (Hand-written: the ring's internal `head` split must not leak into the
/// serialized form.)
impl Serialize for TraceBuffer {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "capacity".to_string(),
                serde::Value::U64(self.capacity as u64),
            ),
            ("dropped".to_string(), serde::Value::U64(self.dropped)),
            (
                "events".to_string(),
                serde::Value::Array(self.events().iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

/// Detect whether an address sequence is a fixed-stride stream and return
/// the stride (0 for repeats, `None` for irregular sequences or fewer than
/// 3 addresses) — a convenience for coalescing assertions in tests.
pub fn detect_stride(addrs: &[u64]) -> Option<i64> {
    if addrs.len() < 3 {
        return None;
    }
    let stride = addrs[1] as i64 - addrs[0] as i64;
    for w in addrs.windows(2) {
        if w[1] as i64 - w[0] as i64 != stride {
            return None;
        }
    }
    Some(stride)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(addr: u64) -> TraceEvent {
        TraceEvent {
            addr,
            bytes: 128,
            class: TrafficClass::MatB,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn records_in_order_until_capacity() {
        let mut t = TraceBuffer::new(4);
        for i in 0..3 {
            t.record(ev(i * 128));
        }
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.dropped(), 0);
        let addrs: Vec<u64> = t.events().iter().map(|e| e.addr).collect();
        assert_eq!(addrs, vec![0, 128, 256]);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = TraceBuffer::new(3);
        for i in 0..5 {
            t.record(ev(i * 10));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let addrs: Vec<u64> = t.events().iter().map(|e| e.addr).collect();
        assert_eq!(addrs, vec![20, 30, 40], "oldest two evicted");
    }

    #[test]
    fn class_filters() {
        let mut t = TraceBuffer::new(8);
        t.record(ev(0));
        t.record(TraceEvent {
            addr: 64,
            bytes: 4,
            class: TrafficClass::MatA,
            kind: AccessKind::Write,
        });
        t.record(ev(256));
        assert_eq!(t.bytes_for(TrafficClass::MatB), 256);
        assert_eq!(t.bytes_for(TrafficClass::MatA), 4);
    }

    #[test]
    fn stride_detection() {
        assert_eq!(detect_stride(&[0, 128, 256, 384]), Some(128));
        assert_eq!(detect_stride(&[100, 90, 80]), Some(-10));
        assert_eq!(detect_stride(&[0, 0, 0]), Some(0));
        assert_eq!(detect_stride(&[0, 128, 300]), None);
        assert_eq!(detect_stride(&[0, 128]), None, "too short to call");
    }

    #[test]
    fn clear_keeps_drop_count() {
        let mut t = TraceBuffer::new(2);
        for i in 0..4 {
            t.record(ev(i));
        }
        assert_eq!(t.dropped(), 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn zero_capacity_is_a_disabled_buffer() {
        // Capacity 0 used to panic; it now behaves as "record nothing,
        // count everything as dropped" so tracing can be switched off
        // without branching at every call site.
        let mut t = TraceBuffer::new(0);
        for i in 0..3 {
            t.record(ev(i * 8));
        }
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.capacity(), 0);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.events(), vec![]);
        t.clear(); // must not panic, dropped count is kept
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn wraparound_counts_every_eviction() {
        // Several full revolutions of the ring: the drop count must equal
        // records minus capacity, and the window must hold the newest
        // `capacity` events in arrival order.
        let cap = 4;
        let total = 19; // 4 full wraps minus one
        let mut t = TraceBuffer::new(cap);
        for i in 0..total {
            t.record(ev(i as u64));
        }
        assert_eq!(t.len(), cap);
        assert_eq!(t.dropped(), (total - cap) as u64);
        let addrs: Vec<u64> = t.events().iter().map(|e| e.addr).collect();
        let expected: Vec<u64> = ((total - cap) as u64..total as u64).collect();
        assert_eq!(addrs, expected);
    }

    #[test]
    fn exactly_full_buffer_drops_nothing() {
        let mut t = TraceBuffer::new(3);
        for i in 0..3 {
            t.record(ev(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 0);
        t.record(ev(3));
        assert_eq!(t.dropped(), 1, "first eviction only after capacity+1");
    }

    #[test]
    fn serializes_in_arrival_order() {
        let mut t = TraceBuffer::new(2);
        for i in 0..3 {
            t.record(ev(i * 100));
        }
        let json = serde_json::to_string(&t).unwrap();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["capacity"].as_u64(), Some(2));
        assert_eq!(v["dropped"].as_u64(), Some(1));
        let events = v["events"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        // Arrival order, not ring order: oldest retained event first.
        assert_eq!(events[0]["addr"].as_u64(), Some(100));
        assert_eq!(events[1]["addr"].as_u64(), Some(200));
        assert_eq!(events[0]["kind"].as_str(), Some("Read"));
        assert_eq!(events[0]["class"].as_str(), Some("MatB"));
    }
}
