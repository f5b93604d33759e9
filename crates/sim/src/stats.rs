//! Counters and reports produced by a simulated kernel launch.

use serde::{Deserialize, Serialize};

/// Which logical data structure a memory access belongs to. Tagging lets
/// experiments report per-matrix traffic exactly as Table 1 does
/// (A small / B large / C large) plus the engine's metadata stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// The sparse input matrix A (values + metadata).
    MatA,
    /// The dense input matrix B.
    MatB,
    /// The dense output matrix C.
    MatC,
    /// Near-memory engine output stream (tiled DCSR headed to an SM).
    Engine,
    /// Anything else (scratch, arguments).
    Other,
}

impl TrafficClass {
    /// All classes, for iteration in reports. Declaration order — `idx`
    /// is derived from it, so the two cannot diverge.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::MatA,
        TrafficClass::MatB,
        TrafficClass::MatC,
        TrafficClass::Engine,
        TrafficClass::Other,
    ];

    /// Number of classes (`ALL.len()`).
    pub const COUNT: usize = TrafficClass::ALL.len();

    /// Dotted-metric-name segment for this class (`sim.dram_bytes.mat_a`).
    pub const fn label(self) -> &'static str {
        match self {
            TrafficClass::MatA => "mat_a",
            TrafficClass::MatB => "mat_b",
            TrafficClass::MatC => "mat_c",
            TrafficClass::Engine => "engine",
            TrafficClass::Other => "other",
        }
    }

    pub(crate) const fn idx(self) -> usize {
        self as usize
    }
}

/// Instruction classes tracked per warp execution — the categories of the
/// paper's Figure 7 (NVPROF execution-count breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrClass {
    /// Integer ALU (address arithmetic, index manipulation).
    Integer,
    /// Branches, loop control, predicate evaluation.
    ControlFlow,
    /// FP32 multiply-add work.
    Fp,
    /// Loads/stores (global or shared).
    Memory,
}

impl InstrClass {
    /// All classes, for iteration in reports. Declaration order — `idx`
    /// is derived from it, so the two cannot diverge.
    pub const ALL: [InstrClass; 4] = [
        InstrClass::Integer,
        InstrClass::ControlFlow,
        InstrClass::Fp,
        InstrClass::Memory,
    ];

    /// Number of classes (`ALL.len()`).
    pub const COUNT: usize = InstrClass::ALL.len();

    /// Dotted-metric-name segment for this class.
    pub const fn label(self) -> &'static str {
        match self {
            InstrClass::Integer => "integer",
            InstrClass::ControlFlow => "control_flow",
            InstrClass::Fp => "fp",
            InstrClass::Memory => "memory",
        }
    }

    pub(crate) const fn idx(self) -> usize {
        self as usize
    }
}

/// Per-class byte counters indexed by [`TrafficClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficBytes {
    bytes: [u64; TrafficClass::COUNT],
}

impl TrafficBytes {
    /// Add `n` bytes to `class`.
    pub fn add(&mut self, class: TrafficClass, n: u64) {
        // nmt-lint: allow(slice-index) — idx() is an enum discriminant < COUNT
        self.bytes[class.idx()] += n;
    }

    /// Bytes recorded for `class`.
    pub fn get(&self, class: TrafficClass) -> u64 {
        // nmt-lint: allow(slice-index) — idx() is an enum discriminant < COUNT
        self.bytes[class.idx()]
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &TrafficBytes) {
        for (mine, theirs) in self.bytes.iter_mut().zip(&other.bytes) {
            *mine += theirs;
        }
    }
}

/// Thread-slot execution counts per instruction class, with inactive slots
/// tracked separately (Figure 7's "Inactive": thread executions that
/// "did not execute any instruction because the thread was predicated or
/// inactive due to divergence").
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WarpExecStats {
    /// Active thread-slot executions per [`InstrClass`].
    pub active: [u64; InstrClass::COUNT],
    /// Inactive (predicated-off / divergent) thread-slot executions.
    pub inactive: u64,
}

impl WarpExecStats {
    /// Record `n` warp instructions of `class`, each with `active_lanes`
    /// of `warp_size` lanes doing useful work. The counts are integers, so
    /// one call equals `n` calls with `n = 1`.
    pub fn record_n(&mut self, class: InstrClass, active_lanes: usize, warp_size: usize, n: u64) {
        debug_assert!(active_lanes <= warp_size);
        // nmt-lint: allow(slice-index) — idx() is an enum discriminant < COUNT
        self.active[class.idx()] += active_lanes as u64 * n;
        self.inactive += (warp_size - active_lanes) as u64 * n;
    }

    /// Total thread-slot executions (active + inactive).
    pub fn total_slots(&self) -> u64 {
        self.active.iter().sum::<u64>() + self.inactive
    }

    /// Fraction of slots that were inactive.
    pub fn inactive_fraction(&self) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.inactive as f64 / total as f64
        }
    }

    /// Active slots recorded for one class.
    pub fn active_for(&self, class: InstrClass) -> u64 {
        // nmt-lint: allow(slice-index) — idx() is an enum discriminant < COUNT
        self.active[class.idx()]
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &WarpExecStats) {
        for (mine, theirs) in self.active.iter_mut().zip(&other.active) {
            *mine += theirs;
        }
        self.inactive += other.inactive;
    }
}

/// Where the kernel's time went — the stall taxonomy of Figure 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StallBreakdown {
    /// Fraction of time stalled on the memory subsystem.
    pub memory: f64,
    /// Fraction of time the SMs were the bottleneck (issue-bound).
    pub sm: f64,
    /// Fixed overheads (launch/drain).
    pub other: f64,
}

/// Complete result of one simulated kernel launch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// SM-issue-bound time in nanoseconds.
    pub t_compute_ns: f64,
    /// DRAM/L2-bandwidth-bound time in nanoseconds (max over partitions).
    pub t_memory_ns: f64,
    /// Latency-bound time from dependent access chains in nanoseconds.
    pub t_latency_ns: f64,
    /// Crossbar-bound time in nanoseconds (engine output streams and other
    /// explicit SM↔FB transfers).
    pub t_xbar_ns: f64,
    /// Bytes moved over the crossbar by explicit streams.
    pub xbar_bytes: u64,
    /// Fixed overhead in nanoseconds.
    pub t_overhead_ns: f64,
    /// Estimated total kernel time in nanoseconds.
    pub total_ns: f64,
    /// DRAM bytes actually transferred (post-L2), per class.
    pub dram_traffic: TrafficBytes,
    /// Bytes requested by the SMs (pre-L2), per class.
    pub requested_traffic: TrafficBytes,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Atomic operations issued.
    pub atomics: u64,
    /// Warp execution accounting (Figure 7 input).
    pub warp_exec: WarpExecStats,
    /// FP operations performed (2 per FMA), for bytes/FLOP reporting.
    pub flops: u64,
}

impl KernelStats {
    /// L2 hit rate in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// DRAM bytes per floating-point operation (§2's figure of merit).
    pub fn bytes_per_flop(&self) -> f64 {
        if self.flops == 0 {
            f64::INFINITY
        } else {
            self.dram_traffic.total() as f64 / self.flops as f64
        }
    }

    /// Attribute the total time to stall causes, Figure-2 style. The
    /// bottleneck component "owns" the time it exceeds the others by;
    /// overlapped time is attributed to the SM (it was issuing).
    pub fn stall_breakdown(&self) -> StallBreakdown {
        let total = self.total_ns.max(1e-9);
        let mem_bound = self.t_memory_ns.max(self.t_latency_ns).max(self.t_xbar_ns);
        let mem_stall = (mem_bound - self.t_compute_ns).max(0.0);
        let other = self.t_overhead_ns;
        let sm = (total - mem_stall - other).max(0.0);
        StallBreakdown {
            memory: mem_stall / total,
            sm: sm / total,
            other: other / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_idx_roundtrips_through_all() {
        // `idx` is the declaration-order discriminant and `ALL` is the
        // declaration-order list: ALL[c.idx()] must be c for every class,
        // and idx must cover 0..COUNT exactly once.
        for (i, c) in TrafficClass::ALL.into_iter().enumerate() {
            assert_eq!(c.idx(), i);
            assert_eq!(TrafficClass::ALL[c.idx()], c);
        }
        for (i, c) in InstrClass::ALL.into_iter().enumerate() {
            assert_eq!(c.idx(), i);
            assert_eq!(InstrClass::ALL[c.idx()], c);
        }
        assert_eq!(TrafficClass::COUNT, 5);
        assert_eq!(InstrClass::COUNT, 4);
    }

    #[test]
    fn class_labels_are_unique() {
        let mut labels: Vec<&str> = TrafficClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TrafficClass::COUNT);
        let mut labels: Vec<&str> = InstrClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), InstrClass::COUNT);
    }

    #[test]
    fn traffic_bytes_accumulate_and_merge() {
        let mut t = TrafficBytes::default();
        t.add(TrafficClass::MatA, 100);
        t.add(TrafficClass::MatB, 50);
        t.add(TrafficClass::MatA, 10);
        assert_eq!(t.get(TrafficClass::MatA), 110);
        assert_eq!(t.total(), 160);
        let mut u = TrafficBytes::default();
        u.add(TrafficClass::MatC, 1);
        u.merge(&t);
        assert_eq!(u.total(), 161);
    }

    #[test]
    fn warp_exec_tracks_inactive() {
        let mut w = WarpExecStats::default();
        w.record_n(InstrClass::Fp, 32, 32, 1);
        w.record_n(InstrClass::Integer, 1, 32, 1); // 1 active, 31 inactive
        assert_eq!(w.inactive, 31);
        assert_eq!(w.active_for(InstrClass::Fp), 32);
        assert_eq!(w.total_slots(), 64);
        assert!((w.inactive_fraction() - 31.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_counts_every_instruction() {
        let mut w = WarpExecStats::default();
        w.record_n(InstrClass::Memory, 7, 32, 3);
        assert_eq!(w.active_for(InstrClass::Memory), 3 * 7);
        assert_eq!(w.inactive, 3 * 25);
        w.record_n(InstrClass::Fp, 32, 32, 0);
        assert_eq!(w.total_slots(), 3 * 32, "n = 0 records nothing");
    }

    #[test]
    fn stall_breakdown_memory_bound() {
        let stats = KernelStats {
            t_compute_ns: 20.0,
            t_memory_ns: 80.0,
            t_latency_ns: 10.0,
            t_overhead_ns: 2.0,
            total_ns: 82.0,
            ..Default::default()
        };
        let s = stats.stall_breakdown();
        assert!(s.memory > 0.7, "memory {}", s.memory);
        assert!((s.memory + s.sm + s.other - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stall_breakdown_compute_bound() {
        let stats = KernelStats {
            t_compute_ns: 100.0,
            t_memory_ns: 10.0,
            t_latency_ns: 5.0,
            t_overhead_ns: 1.0,
            total_ns: 101.0,
            ..Default::default()
        };
        let s = stats.stall_breakdown();
        assert_eq!(s.memory, 0.0);
        assert!(s.sm > 0.9);
    }

    #[test]
    fn derived_metrics() {
        let mut stats = KernelStats {
            flops: 100,
            total_ns: 10.0,
            ..Default::default()
        };
        stats.dram_traffic.add(TrafficClass::MatB, 500);
        assert!((stats.bytes_per_flop() - 5.0).abs() < 1e-12);
        stats.l2_hits = 3;
        stats.l2_misses = 1;
        assert!((stats.l2_hit_rate() - 0.75).abs() < 1e-12);
    }
}
