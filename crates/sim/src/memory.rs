//! The memory subsystem: FB partitions, address interleaving, DRAM
//! bandwidth occupancy and the sliced L2.
//!
//! A GV100 groups its memory controllers into FB (frame buffer) partitions,
//! one per HBM2 pseudo-channel. Physical addresses interleave across
//! partitions at a fixed granularity so sequential streams spread evenly;
//! each partition owns an L2 slice and its channel's bandwidth. "FB
//! partitions do not communicate with each other" (§4) — a property the
//! engine's data-layout discussion (§6.1) depends on.

use crate::cache::{L2Slice, Probe};
use crate::config::GpuConfig;
use crate::stats::{TrafficBytes, TrafficClass};
use crate::trace::{AccessKind, TraceEvent};
use nmt_fault::{FaultPlan, FaultSite};

/// DRAM/L2 transfer granularity within a cache line. GPU L2s are sectored:
/// a 128 B line fills in 32 B sectors, so a narrow uncoalesced access
/// only moves 32 B even though it allocates a full line tag.
pub const SECTOR_BYTES: u64 = 32;

/// Occupancy multiplier applied to an access hit by an injected DRAM
/// latency spike ([`FaultSite::DramLatencySpike`]). Timing-only: the
/// access still moves the same bytes and returns the same data.
pub const DRAM_SPIKE_COST_FACTOR: f64 = 4.0;

/// Running totals for one partition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PartitionCounters {
    /// Nanoseconds of DRAM channel occupancy.
    pub dram_busy_ns: f64,
    /// Nanoseconds of L2 slice bandwidth occupancy.
    pub l2_busy_ns: f64,
    /// Bytes moved on the DRAM channel (reads + writes + writebacks).
    pub dram_bytes: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
}

/// One FB partition: an L2 slice plus a DRAM pseudo-channel.
#[derive(Debug, Clone)]
pub struct FbPartition {
    l2: L2Slice,
    counters: PartitionCounters,
    channel_ns_per_byte: f64,
    l2_ns_per_byte: f64,
}

impl FbPartition {
    fn new(config: &GpuConfig) -> Self {
        Self {
            l2: L2Slice::new(
                config.l2_slice_bytes(),
                config.l2_line_bytes,
                config.l2_ways,
            ),
            counters: PartitionCounters::default(),
            channel_ns_per_byte: 1.0 / config.channel_gbps,
            l2_ns_per_byte: 1.0 / config.l2_slice_gbps,
        }
    }

    /// Access cache line number `line` (`addr / line_bytes`), of which
    /// `touched` bytes (sector-rounded, at most one line) are actually
    /// demanded. Returns whether it hit in L2.
    ///
    /// `force_miss` models a prefetch-buffer overflow: the line may still
    /// be resident (cache state is untouched on a hit), but the fill was
    /// dropped and must be re-fetched, so a hit is billed as a miss.
    fn access_line(
        &mut self,
        line: u64,
        write: bool,
        cost_factor: f64,
        touched: u64,
        force_miss: bool,
    ) -> bool {
        let touched = touched as f64;
        match self.l2.access_line(line, write) {
            Probe::Hit if force_miss => {
                self.counters.l2_misses += 1;
                self.counters.dram_bytes += touched as u64;
                self.counters.dram_busy_ns += touched * self.channel_ns_per_byte * cost_factor;
                self.counters.l2_busy_ns += touched * self.l2_ns_per_byte * cost_factor;
                false
            }
            Probe::Hit => {
                self.counters.l2_hits += 1;
                self.counters.l2_busy_ns += touched * self.l2_ns_per_byte * cost_factor;
                true
            }
            Probe::Miss { dirty_writeback } => {
                self.counters.l2_misses += 1;
                let mut bytes = touched;
                if dirty_writeback {
                    // Dirty victims write back whole-line granularity.
                    bytes += self.l2.line_bytes() as f64;
                }
                self.counters.dram_bytes += bytes as u64;
                self.counters.dram_busy_ns += bytes * self.channel_ns_per_byte * cost_factor;
                self.counters.l2_busy_ns += touched * self.l2_ns_per_byte * cost_factor;
                false
            }
        }
    }

    /// The bandwidth-bound time of this partition: it is busy for whichever
    /// of its two resources (channel, L2 slice) is more occupied.
    pub fn busy_ns(&self) -> f64 {
        self.counters.dram_busy_ns.max(self.counters.l2_busy_ns)
    }

    /// Current counters.
    pub fn counters(&self) -> PartitionCounters {
        self.counters
    }
}

/// The full memory subsystem: every FB partition plus global counters.
#[derive(Debug, Clone)]
pub struct MemorySubsystem {
    partitions: Vec<FbPartition>,
    interleave: u64,
    /// `(log2 interleave, num_partitions - 1)` when both are powers of two:
    /// [`MemorySubsystem::partition_of`] is then a shift and a mask.
    partition_shift_mask: Option<(u32, u64)>,
    line_shift: u32,
    line_bytes: u64,
    atomic_cost_factor: f64,
    /// Bytes requested by SMs (pre-L2), per traffic class.
    requested: TrafficBytes,
    /// Bytes transferred from/to DRAM (post-L2), per traffic class.
    dram: TrafficBytes,
    atomics: u64,
    trace: Option<Vec<TraceEvent>>,
    /// Active fault plan, if any (see [`MemorySubsystem::set_fault_plan`]).
    fault: Option<FaultPlan>,
    /// Monotone ordinal of `access` calls — the fault key for the memory
    /// sites. Each simulated GPU processes its accesses serially, so this
    /// counter is deterministic and scheduling-independent.
    access_ordinal: u64,
    fault_dram_spikes: u64,
    fault_prefetch_overflows: u64,
    /// [`MemorySubsystem::gather`]'s run addresses, reused across calls.
    runs: Vec<u64>,
}

/// Append one access to an enabled trace. Out of line and cold so the
/// tracing-off path of [`MemorySubsystem::access`] stays small enough for
/// the compiler to inline it into the per-lane loop of
/// [`MemorySubsystem::gather`].
#[cold]
#[inline(never)]
fn record_trace(
    trace: &mut Vec<TraceEvent>,
    addr: u64,
    bytes: u64,
    class: TrafficClass,
    write: bool,
    atomic: bool,
) {
    let kind = if atomic {
        AccessKind::Atomic
    } else if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    trace.push(TraceEvent {
        addr,
        bytes,
        class,
        kind,
    });
}

/// Whether `[addr, addr + elem_bytes)` lies inside one sector.
#[inline]
fn in_one_sector(addr: u64, elem_bytes: u64) -> bool {
    addr % SECTOR_BYTES + elem_bytes <= SECTOR_BYTES
}

impl MemorySubsystem {
    /// Build from a validated config.
    pub fn new(config: &GpuConfig) -> Self {
        Self {
            partitions: (0..config.num_partitions)
                .map(|_| FbPartition::new(config))
                .collect(),
            interleave: config.interleave_bytes,
            partition_shift_mask: (config.interleave_bytes.is_power_of_two()
                && config.num_partitions.is_power_of_two())
            .then(|| {
                (
                    config.interleave_bytes.trailing_zeros(),
                    config.num_partitions as u64 - 1,
                )
            }),
            line_shift: config.l2_line_bytes.trailing_zeros(),
            line_bytes: config.l2_line_bytes as u64,
            atomic_cost_factor: config.atomic_cost_factor,
            requested: TrafficBytes::default(),
            dram: TrafficBytes::default(),
            atomics: 0,
            trace: None,
            fault: None,
            access_ordinal: 0,
            fault_dram_spikes: 0,
            fault_prefetch_overflows: 0,
            // nmt-lint: allow(hot-alloc) — one per GPU, at construction; gathers reuse it
            runs: Vec::new(),
        }
    }

    /// Install (or clear) a fault plan. Memory-site faults are
    /// timing-only: they perturb occupancy and hit/miss accounting but
    /// never the bytes an access observes, so kernel outputs stay
    /// bitwise-identical under any plan.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault
    }

    /// Injected DRAM latency spikes so far.
    pub fn fault_dram_spikes(&self) -> u64 {
        self.fault_dram_spikes
    }

    /// Injected prefetch-buffer overflows so far.
    pub fn fault_prefetch_overflows(&self) -> u64 {
        self.fault_prefetch_overflows
    }

    /// Start recording every access, in order.
    pub fn enable_trace(&mut self) {
        // nmt-lint: allow(hot-alloc) — tracing is a test-only debugging switch, off on every measured path
        self.trace = Some(Vec::new());
    }

    /// Stop recording and return the accesses recorded since
    /// [`enable_trace`](Self::enable_trace), oldest first (empty when
    /// tracing was off).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// The partition owning byte address `addr`.
    #[inline]
    pub fn partition_of(&self, addr: u64) -> usize {
        match self.partition_shift_mask {
            Some((shift, mask)) => ((addr >> shift) & mask) as usize,
            None => ((addr / self.interleave) % self.partitions.len() as u64) as usize,
        }
    }

    /// Perform a global-memory access of `nbytes` starting at `addr`.
    ///
    /// The access is split into cache lines, each routed to its owning
    /// partition. `write` stores (dirty lines), `atomic` applies the
    /// read-modify-write occupancy factor from Table 1 ("atomic bandwidth
    /// = 2× memory access").
    pub fn access(
        &mut self,
        addr: u64,
        nbytes: u64,
        class: TrafficClass,
        write: bool,
        atomic: bool,
    ) {
        if nbytes == 0 {
            return;
        }
        self.requested.add(class, nbytes);
        if atomic {
            self.atomics += 1;
        }
        if let Some(trace) = &mut self.trace {
            record_trace(trace, addr, nbytes, class, write, atomic);
        }
        let mut cost = if atomic { self.atomic_cost_factor } else { 1.0 };
        // Memory-site faults key off the per-subsystem access ordinal,
        // which advances deterministically with the (serial) access
        // stream — never off wall-clock or thread identity.
        let ordinal = self.access_ordinal;
        self.access_ordinal += 1;
        let mut force_miss = false;
        if let Some(plan) = self.fault {
            if plan.fires(FaultSite::DramLatencySpike, ordinal) {
                cost *= DRAM_SPIKE_COST_FACTOR;
                self.fault_dram_spikes += 1;
            }
            if plan.fires(FaultSite::PrefetchOverflow, ordinal) {
                force_miss = true;
                self.fault_prefetch_overflows += 1;
            }
        }
        let write = write || atomic;
        let end = addr + nbytes;
        let first_line = addr >> self.line_shift;
        let last_line = (end - 1) >> self.line_shift;
        // A one-line access (every narrow gather) needs no clipping.
        if first_line == last_line {
            let line_addr = first_line << self.line_shift;
            self.access_line(
                first_line,
                addr - line_addr,
                end - line_addr,
                class,
                write,
                cost,
                force_miss,
            );
            return;
        }
        for line in first_line..=last_line {
            let line_addr = line << self.line_shift;
            let lo = addr.max(line_addr) - line_addr;
            let hi = end.min(line_addr + self.line_bytes) - line_addr;
            self.access_line(line, lo, hi, class, write, cost, force_miss);
        }
    }

    /// `count` warp gathers of `elem_bytes` per offset, the i-th reading
    /// `base + offsets[j] + i·stride` for every `j`. Adjacent offsets that
    /// land in the same line coalesce into one [`MemorySubsystem::access`]
    /// (a read) at the first of them, so each gather is one access per run
    /// of same-line lanes, issued in lane order, gather after gather.
    /// When `stride` is a whole number of lines, every gather splits into
    /// the same runs, shifted by `i·stride`, so the runs are found once,
    /// and when each run's element also sits inside one sector and no
    /// fault plan or trace is installed, the whole call probes each line
    /// directly and pays the per-access bookkeeping once.
    pub fn gather(
        &mut self,
        base: u64,
        offsets: &[u64],
        stride: u64,
        count: usize,
        elem_bytes: u64,
        class: TrafficClass,
    ) {
        let whole_lines = stride & (self.line_bytes - 1) == 0;
        let mut runs = std::mem::take(&mut self.runs);
        for i in 0..count as u64 {
            if i == 0 || !whole_lines {
                runs.clear();
                let mut last_line = u64::MAX;
                for addr in offsets.iter().map(|&off| base + i * stride + off) {
                    if addr >> self.line_shift != last_line {
                        last_line = addr >> self.line_shift;
                        runs.push(addr);
                    }
                }
                // A whole-line shift keeps every element of a later
                // gather in the same place within its sector.
                if whole_lines
                    && self.batchable(elem_bytes)
                    && runs.iter().all(|&addr| in_one_sector(addr, elem_bytes))
                {
                    let addrs =
                        (0..count as u64).flat_map(|i| runs.iter().map(move |&a| a + i * stride));
                    self.probe_batch(addrs, elem_bytes, class, false);
                    break;
                }
            }
            let shift = if whole_lines { i * stride } else { 0 };
            for &addr in &runs {
                self.access(addr + shift, elem_bytes, class, false, false);
            }
        }
        self.runs = runs;
    }

    /// An uncoalesced store of `count` elements of `elem_bytes` at `addr,
    /// addr + stride, addr + 2·stride, …`. An element whose line is the
    /// previous element's coalesces into that element's
    /// [`MemorySubsystem::access`] (a write); every other element is one
    /// access, in order. A stride of at least one line puts every element
    /// in a line of its own, so when each also sits inside one sector and
    /// no fault plan or trace is installed, the whole call probes each line
    /// directly and pays the per-access bookkeeping once.
    pub fn store_strided(
        &mut self,
        addr: u64,
        stride: u64,
        count: usize,
        elem_bytes: u64,
        class: TrafficClass,
    ) {
        let addrs = (0..count as u64).map(|i| addr + i * stride);
        if stride >= self.line_bytes
            && self.batchable(elem_bytes)
            && addrs.clone().all(|addr| in_one_sector(addr, elem_bytes))
        {
            self.probe_batch(addrs, elem_bytes, class, true);
            return;
        }
        let mut last_line = u64::MAX;
        for addr in addrs {
            // Coalesce only exact same-line repeats from adjacent lanes.
            if addr >> self.line_shift != last_line {
                self.access(addr, elem_bytes, class, true, false);
                last_line = addr >> self.line_shift;
            }
        }
    }

    /// Whether a batch of `elem_bytes` accesses may skip the per-access
    /// path: no fault plan to roll and no trace to record, a non-empty
    /// element, and lines no narrower than a sector (so an element inside
    /// one sector is inside one line).
    #[inline]
    fn batchable(&self, elem_bytes: u64) -> bool {
        self.fault.is_none()
            && self.trace.is_none()
            && elem_bytes > 0
            && self.line_bytes >= SECTOR_BYTES
    }

    /// One non-atomic access of `elem_bytes` at each of `addrs`, each
    /// inside one sector and so one line, none faulted or traced. This is
    /// [`MemorySubsystem::access`] with the per-call bookkeeping paid once:
    /// the requested bytes, access ordinals and DRAM bytes are summed over
    /// the batch, and every probe touches one sector at cost 1, the same
    /// lines in the same order as one access per address.
    #[inline]
    fn probe_batch(
        &mut self,
        addrs: impl Iterator<Item = u64>,
        elem_bytes: u64,
        class: TrafficClass,
        write: bool,
    ) {
        let (mut calls, mut misses) = (0, 0);
        for addr in addrs {
            let line = addr >> self.line_shift;
            let p = self.partition_of(line << self.line_shift);
            if !self.partitions[p].access_line(line, write, 1.0, SECTOR_BYTES, false) {
                misses += 1;
            }
            calls += 1;
        }
        self.requested.add(class, calls * elem_bytes);
        self.access_ordinal += calls;
        self.dram.add(class, misses * SECTOR_BYTES);
    }

    /// Route bytes `[lo, hi)` of line number `line` to the partition that
    /// owns it, and bill the sector-rounded span to `class` on a miss.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn access_line(
        &mut self,
        line: u64,
        lo: u64,
        hi: u64,
        class: TrafficClass,
        write: bool,
        cost: f64,
        force_miss: bool,
    ) {
        let sec_lo = lo / SECTOR_BYTES * SECTOR_BYTES;
        let sec_hi = hi.div_ceil(SECTOR_BYTES) * SECTOR_BYTES;
        let touched = (sec_hi - sec_lo).min(self.line_bytes);
        let p = self.partition_of(line << self.line_shift);
        if !self.partitions[p].access_line(line, write, cost, touched, force_miss) {
            self.dram.add(class, touched);
        }
    }

    /// Bandwidth-bound time: the busiest partition bounds the kernel
    /// (Figure 17's "camping problem" arises exactly when one partition's
    /// busy time dwarfs the rest).
    pub fn max_partition_busy_ns(&self) -> f64 {
        self.partitions
            .iter()
            .map(FbPartition::busy_ns)
            .fold(0.0, f64::max)
    }

    /// Per-partition busy times (for load-balance experiments).
    pub fn partition_busy_ns(&self) -> Vec<f64> {
        self.partitions.iter().map(FbPartition::busy_ns).collect()
    }

    /// Aggregate counters over all partitions.
    pub fn aggregate(&self) -> PartitionCounters {
        let mut total = PartitionCounters::default();
        for p in &self.partitions {
            let c = p.counters();
            total.dram_busy_ns += c.dram_busy_ns;
            total.l2_busy_ns += c.l2_busy_ns;
            total.dram_bytes += c.dram_bytes;
            total.l2_hits += c.l2_hits;
            total.l2_misses += c.l2_misses;
        }
        total
    }

    /// Requested (pre-L2) traffic per class.
    pub fn requested_traffic(&self) -> TrafficBytes {
        self.requested
    }

    /// DRAM (post-L2) traffic per class.
    pub fn dram_traffic(&self) -> TrafficBytes {
        self.dram
    }

    /// Number of atomic operations issued.
    pub fn atomics(&self) -> u64 {
        self.atomics
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The FB partitions in partition order, for per-partition counters.
    pub fn partitions(&self) -> &[FbPartition] {
        &self.partitions
    }

    /// Invalidate all L2 contents (cold-cache experiments).
    pub fn flush_l2(&mut self) {
        for p in &mut self.partitions {
            p.l2.flush();
        }
    }

    /// Snapshot used by the machine to compute per-kernel deltas.
    pub fn snapshot(&self) -> MemSnapshot {
        let mut snap = MemSnapshot::default();
        snap.capture(self);
        snap
    }
}

/// Point-in-time copy of the memory counters (see
/// [`MemorySubsystem::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct MemSnapshot {
    /// Per-partition busy ns at snapshot time.
    pub busy: Vec<f64>,
    /// Requested traffic at snapshot time.
    pub requested: TrafficBytes,
    /// DRAM traffic at snapshot time.
    pub dram: TrafficBytes,
    /// L2 hits at snapshot time.
    pub l2_hits: u64,
    /// L2 misses at snapshot time.
    pub l2_misses: u64,
    /// Atomics at snapshot time.
    pub atomics: u64,
}

impl MemSnapshot {
    /// Overwrite this snapshot with `mem`'s current counters, reusing its
    /// per-partition buffer (a launch snapshots without allocating).
    pub fn capture(&mut self, mem: &MemorySubsystem) {
        self.busy.clear();
        self.busy
            .extend(mem.partitions.iter().map(FbPartition::busy_ns));
        let agg = mem.aggregate();
        self.requested = mem.requested;
        self.dram = mem.dram;
        self.l2_hits = agg.l2_hits;
        self.l2_misses = agg.l2_misses;
        self.atomics = mem.atomics;
    }

    /// Max over partitions of busy-time growth since this snapshot.
    pub fn max_busy_delta(&self, now: &MemorySubsystem) -> f64 {
        now.partitions
            .iter()
            .map(FbPartition::busy_ns)
            .zip(&self.busy)
            .map(|(a, b)| a - b)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySubsystem {
        MemorySubsystem::new(&GpuConfig::test_small())
    }

    #[test]
    fn interleaving_spreads_addresses() {
        let m = mem();
        // 256 B interleave over 4 partitions.
        assert_eq!(m.partition_of(0), 0);
        assert_eq!(m.partition_of(255), 0);
        assert_eq!(m.partition_of(256), 1);
        assert_eq!(m.partition_of(3 * 256), 3);
        assert_eq!(m.partition_of(4 * 256), 0);
    }

    #[test]
    fn sequential_stream_balances_partitions() {
        let mut m = mem();
        m.access(0, 64 * 1024, TrafficClass::MatB, false, false);
        let busy = m.partition_busy_ns();
        let max = busy.iter().copied().fold(0.0, f64::max);
        let min = busy.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max > 0.0);
        assert!((max - min) / max < 0.01, "imbalance: {busy:?}");
    }

    #[test]
    fn camping_stream_loads_one_partition() {
        let mut m = mem();
        // Touch only addresses owned by partition 0 (every 4th interleave
        // unit) — the §6.1 camping pathologie.
        for i in 0..256u64 {
            m.access(i * 4 * 256, 128, TrafficClass::MatA, false, false);
        }
        let busy = m.partition_busy_ns();
        assert!(busy[0] > 0.0);
        assert_eq!(busy[1], 0.0);
        assert_eq!(busy[2], 0.0);
    }

    #[test]
    fn l2_hit_avoids_dram_traffic() {
        let mut m = mem();
        m.access(0, 128, TrafficClass::MatB, false, false);
        let cold = m.dram_traffic().total();
        assert_eq!(cold, 128);
        m.access(0, 128, TrafficClass::MatB, false, false);
        assert_eq!(m.dram_traffic().total(), cold, "hit must add no DRAM bytes");
        assert_eq!(m.aggregate().l2_hits, 1);
        assert_eq!(m.requested_traffic().total(), 256);
    }

    #[test]
    fn access_spanning_lines_touches_each() {
        let mut m = mem();
        // 256 bytes starting mid-line: 3 lines, sector-rounded 64+128+64.
        m.access(64, 256, TrafficClass::MatA, false, false);
        assert_eq!(m.aggregate().l2_misses, 3);
        assert_eq!(m.dram_traffic().total(), 64 + 128 + 64);
    }

    #[test]
    fn atomics_cost_double_occupancy() {
        let mut a = mem();
        a.access(0, 128, TrafficClass::MatC, true, false);
        let plain = a.max_partition_busy_ns();
        let mut b = mem();
        b.access(0, 128, TrafficClass::MatC, true, true);
        let atomic = b.max_partition_busy_ns();
        assert!(
            (atomic / plain - 2.0).abs() < 1e-9,
            "atomic {atomic} plain {plain}"
        );
        assert_eq!(b.atomics(), 1);
    }

    #[test]
    fn dirty_writeback_adds_dram_bytes() {
        let mut m = mem();
        // Slice is 16 KB, 8-way, 128 lines, 16 sets. Lines owned by
        // partition 0 that map to set 0: stride = sets * line = 2 KB, and we
        // need the partition_of(addr) == 0, true when (addr/256) % 4 == 0.
        // addr = k * 8 KB satisfies both (8 KB = 4 * 2 KB interleave units).
        let stride = 8 * 1024u64;
        for k in 0..8 {
            m.access(k * stride, 1, TrafficClass::MatC, true, false);
        }
        let before = m.dram_traffic().total();
        // A 9th distinct line in the same set evicts a dirty victim.
        m.access(8 * stride, 1, TrafficClass::MatC, true, false);
        let delta = m.dram_traffic().total() - before;
        assert_eq!(delta, 32, "narrow miss fills one sector under the class");
        // The writeback shows up in the channel occupancy (2 lines worth).
        let agg = m.aggregate();
        // The evicted dirty line writes back at line granularity.
        assert!(agg.dram_bytes >= before + 32 + 128);
    }

    #[test]
    fn snapshot_deltas() {
        let mut m = mem();
        m.access(0, 1024, TrafficClass::MatB, false, false);
        let snap = m.snapshot();
        m.access(1 << 20, 2048, TrafficClass::MatA, false, false);
        assert!(snap.max_busy_delta(&m) > 0.0);
        assert_eq!(
            m.requested_traffic().get(TrafficClass::MatA) - snap.requested.get(TrafficClass::MatA),
            2048
        );
    }

    #[test]
    fn flush_forces_remisses() {
        let mut m = mem();
        m.access(0, 128, TrafficClass::MatB, false, false);
        m.flush_l2();
        m.access(0, 128, TrafficClass::MatB, false, false);
        assert_eq!(m.aggregate().l2_misses, 2);
    }

    #[test]
    fn zero_byte_access_is_noop() {
        let mut m = mem();
        m.access(0, 0, TrafficClass::Other, false, false);
        assert_eq!(m.requested_traffic().total(), 0);
        assert_eq!(m.aggregate().l2_misses, 0);
    }

    #[test]
    fn dram_spike_inflates_occupancy_only() {
        let mut clean = mem();
        clean.access(0, 128, TrafficClass::MatB, false, false);
        let mut faulted = mem();
        faulted.set_fault_plan(Some(FaultPlan::from_rate(1, 1.0)));
        faulted.access(0, 128, TrafficClass::MatB, false, false);
        assert_eq!(faulted.fault_dram_spikes(), 1);
        // Same bytes moved, strictly more channel time.
        assert_eq!(faulted.dram_traffic().total(), clean.dram_traffic().total());
        assert!(faulted.max_partition_busy_ns() > clean.max_partition_busy_ns());
    }

    #[test]
    fn prefetch_overflow_bills_hit_as_miss() {
        let mut m = mem();
        m.access(0, 128, TrafficClass::MatB, false, false);
        let cold = m.dram_traffic().total();
        m.set_fault_plan(Some(FaultPlan::from_rate(2, 1.0)));
        // Would be an L2 hit; the overflow re-bills it against DRAM.
        m.access(0, 128, TrafficClass::MatB, false, false);
        assert_eq!(m.fault_prefetch_overflows(), 1);
        assert!(m.dram_traffic().total() > cold);
        assert_eq!(m.aggregate().l2_hits, 0);
        assert_eq!(m.aggregate().l2_misses, 2);
    }

    #[test]
    fn fault_rolls_are_deterministic_across_subsystems() {
        let plan = FaultPlan::from_rate(1234, 0.3);
        let run = |mut m: MemorySubsystem| {
            m.set_fault_plan(Some(plan));
            for i in 0..64u64 {
                m.access(i * 4096, 128, TrafficClass::MatA, false, false);
            }
            (m.fault_dram_spikes(), m.fault_prefetch_overflows())
        };
        assert_eq!(run(mem()), run(mem()));
    }
}
