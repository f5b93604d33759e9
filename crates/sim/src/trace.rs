//! Memory-access trace recording — the debugging lens over the memory
//! model.
//!
//! With tracing on ([`crate::Gpu::enable_trace`]), every access is
//! recorded as an `(address, bytes, class, kind)` [`TraceEvent`], so tests
//! can assert *which* addresses a kernel touched, not just how many bytes
//! moved.

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

    #[test]
    fn stride_detection() {
        assert_eq!(detect_stride(&[0, 128, 256, 384]), Some(128));
        assert_eq!(detect_stride(&[100, 90, 80]), Some(-10));
        assert_eq!(detect_stride(&[0, 0, 0]), Some(0));
        assert_eq!(detect_stride(&[0, 128, 300]), None);
        assert_eq!(detect_stride(&[0, 128]), None, "too short to call");
    }
}
