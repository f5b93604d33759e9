//! Typed metric registry: monotonic counters, gauges, and log₂-bucketed
//! histograms, addressed by dotted names (`<crate>.<component>.<name>`).
//!
//! The registry replaces ad-hoc "stats struct" fields for cross-cutting
//! reporting: instrumented code adds to it as it runs, and a
//! [`MetricsSnapshot`] serializes the whole state for `--metrics-json`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for `value`: bucket 0 holds exactly 0, bucket `i >= 1`
/// holds `[2^(i-1), 2^i - 1]`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

#[derive(Debug, Clone, Default)]
struct Histogram {
    counts: Vec<u64>, // indexed by bucket_index, allocated lazily
    count: u64,
    sum: u64,
}

impl Histogram {
    fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; HISTOGRAM_BUCKETS];
        }
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        // Saturate rather than wrap: the sum only feeds the mean, and a
        // pinned-at-max mean is more honest than a wrapped one.
        self.sum = self.sum.saturating_add(value);
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe registry of named metrics.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the monotonic counter `name` (created at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.gauges.get(name).copied()
    }

    /// Record one observation of `value` in histogram `name`.
    pub fn histogram_record(&self, name: &str, value: u64) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Copy the registry into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    let buckets = h
                        .counts
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| {
                            let (lo, hi) = bucket_bounds(i);
                            HistogramBucket { lo, hi, count: c }
                        })
                        .collect();
                    (
                        name.clone(),
                        HistogramSnapshot {
                            count: h.count,
                            sum: h.sum,
                            buckets,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// One non-empty histogram bucket: values in `lo..=hi` seen `count` times.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Observations in this bucket.
    pub count: u64,
}

/// Serializable copy of one histogram (empty buckets elided).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`), estimated from the log₂
    /// buckets with linear interpolation inside the containing bucket.
    ///
    /// Observations are ranked `0..count`; the continuous target rank is
    /// `p/100 · (count − 1)`. The bucket holding that rank contributes a
    /// value interpolated across its `[lo, hi]` range by the rank's
    /// position within the bucket, so the estimate is exact for
    /// single-bucket data at the bucket floor and never leaves the
    /// bucket's bounds. Returns 0 when the histogram is empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = p / 100.0 * (self.count - 1) as f64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            if target < (cum + b.count) as f64 || i + 1 == self.buckets.len() {
                let within = if b.count <= 1 {
                    0.0
                } else {
                    ((target - cum as f64) / (b.count - 1) as f64).clamp(0.0, 1.0)
                };
                return b.lo as f64 + (b.hi as f64 - b.lo as f64) * within;
            }
            cum += b.count;
        }
        0.0
    }

    /// Median estimate ([`percentile`](Self::percentile) at 50).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }
}

/// Point-in-time copy of a whole [`MetricRegistry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Flatten to one `name -> number` map (histograms contribute
    /// `<name>.count` and `<name>.mean`), for embedding in flat records.
    pub fn flat(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, &v) in &self.counters {
            out.insert(k.clone(), v as f64);
        }
        for (k, &v) in &self.gauges {
            out.insert(k.clone(), v);
        }
        for (k, h) in &self.histograms {
            out.insert(format!("{k}.count"), h.count as f64);
            out.insert(format!("{k}.mean"), h.mean());
        }
        out
    }

    /// Serialize as pretty JSON (the `--metrics-json` artifact).
    pub fn to_json(&self) -> String {
        // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricRegistry::new();
        m.counter_add("a.b.c", 2);
        m.counter_add("a.b.c", 3);
        assert_eq!(m.counter("a.b.c"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = MetricRegistry::new();
        m.gauge_set("g", 1.5);
        m.gauge_set("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exactly zero; bucket i >= 1 is [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
            if i > 0 {
                assert_eq!(lo, bucket_bounds(i - 1).1 + 1, "buckets are contiguous");
            }
        }
    }

    #[test]
    fn histogram_snapshot_elides_empty_buckets() {
        let m = MetricRegistry::new();
        for v in [0, 1, 1, 5, 1000] {
            m.histogram_record("h", v);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1007);
        assert!((h.mean() - 201.4).abs() < 1e-12);
        let by_lo: Vec<(u64, u64)> = h.buckets.iter().map(|b| (b.lo, b.count)).collect();
        assert_eq!(by_lo, vec![(0, 1), (1, 2), (4, 1), (512, 1)]);
    }

    #[test]
    fn percentiles_empty_histogram_is_zero() {
        let h = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![],
        };
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn percentiles_single_sample_hit_its_bucket() {
        let m = MetricRegistry::new();
        m.histogram_record("h", 5); // bucket [4, 7]
        let h = &m.snapshot().histograms["h"];
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!((4.0..=7.0).contains(&v), "p{p} = {v} outside bucket");
        }
        assert_eq!(h.p50(), 4.0, "single sample pins the bucket floor");
    }

    #[test]
    fn percentiles_interpolate_within_bucket() {
        let m = MetricRegistry::new();
        // Ten samples, all in bucket [64, 127]: ranks 0..=9 spread linearly
        // across the bucket range.
        for _ in 0..10 {
            m.histogram_record("h", 100);
        }
        let h = &m.snapshot().histograms["h"];
        assert_eq!(h.percentile(0.0), 64.0);
        assert_eq!(h.percentile(100.0), 127.0);
        let p50 = h.p50();
        assert!(p50 > 64.0 && p50 < 127.0, "p50 = {p50}");
        // Monotone in p.
        assert!(h.percentile(25.0) <= h.p50());
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
    }

    #[test]
    fn percentiles_across_buckets_follow_mass() {
        let m = MetricRegistry::new();
        // 90 small values, 10 large ones: p50 stays small, p99 lands high.
        for _ in 0..90 {
            m.histogram_record("h", 2); // bucket [2, 3]
        }
        for _ in 0..10 {
            m.histogram_record("h", 1000); // bucket [512, 1023]
        }
        let h = &m.snapshot().histograms["h"];
        assert!(h.p50() <= 3.0, "p50 = {}", h.p50());
        assert!(h.p95() >= 512.0, "p95 = {}", h.p95());
        assert!(h.p99() >= 512.0 && h.p99() <= 1023.0, "p99 = {}", h.p99());
    }

    #[test]
    fn percentile_edges_empty_and_single_bucket() {
        // Empty: every p, including the clamped extremes, is exactly 0.
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![],
        };
        for p in [-1.0, 0.0, 50.0, 100.0, 400.0] {
            assert_eq!(empty.percentile(p), 0.0);
        }

        // Two samples in one bucket: ranks 0 and 1 span the full [lo, hi]
        // range, so p0 pins the floor and p100 the ceiling exactly —
        // the `count - 1` rank denominator, not `count`, makes p100
        // land on hi instead of past it.
        let m = MetricRegistry::new();
        m.histogram_record("h", 4);
        m.histogram_record("h", 7); // both land in bucket [4, 7]
        let h = &m.snapshot().histograms["h"];
        assert_eq!(h.buckets.len(), 1, "one bucket holds both");
        assert_eq!(h.percentile(0.0), 4.0);
        assert_eq!(h.percentile(100.0), 7.0);
        assert_eq!(h.percentile(50.0), 5.5, "midpoint of a 2-sample bucket");

        // A single sample has no second rank to interpolate toward:
        // every percentile collapses to the bucket floor (`within = 0`).
        let m1 = MetricRegistry::new();
        m1.histogram_record("one", 5);
        let one = &m1.snapshot().histograms["one"];
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(one.percentile(p), 4.0);
        }

        // Value 0 lives in the degenerate [0, 0] bucket; interpolation
        // across a zero-width range stays at 0.
        let m0 = MetricRegistry::new();
        m0.histogram_record("z", 0);
        m0.histogram_record("z", 0);
        let z = &m0.snapshot().histograms["z"];
        assert_eq!(z.percentile(0.0), 0.0);
        assert_eq!(z.percentile(100.0), 0.0);
    }

    #[test]
    fn percentiles_saturating_bucket_stay_finite() {
        let m = MetricRegistry::new();
        m.histogram_record("h", u64::MAX);
        m.histogram_record("h", u64::MAX - 1);
        let h = &m.snapshot().histograms["h"];
        let (lo, hi) = bucket_bounds(64);
        for p in [50.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v.is_finite());
            assert!(v >= lo as f64 && v <= hi as f64, "p{p} = {v}");
        }
        // Percentile clamps out-of-range p rather than extrapolating.
        assert_eq!(h.percentile(-5.0), h.percentile(0.0));
        assert_eq!(h.percentile(400.0), h.percentile(100.0));
    }

    #[test]
    fn snapshot_flattens() {
        let m = MetricRegistry::new();
        m.counter_add("c", 4);
        m.gauge_set("g", 0.5);
        m.histogram_record("h", 10);
        let flat = m.snapshot().flat();
        assert_eq!(flat["c"], 4.0);
        assert_eq!(flat["g"], 0.5);
        assert_eq!(flat["h.count"], 1.0);
        assert_eq!(flat["h.mean"], 10.0);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let m = MetricRegistry::new();
        m.counter_add("sim.dram.bytes", 1 << 20);
        m.gauge_set("engine.comparator.occupancy", 0.75);
        m.histogram_record("kernel.strip.flops", 4096);
        let snap = m.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
