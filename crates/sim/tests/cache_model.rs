//! Property tests: the L2 slice agrees with a brute-force reference model
//! of a set-associative LRU cache on arbitrary access sequences, and the
//! memory subsystem's fast path (shift/mask decode, single-line shortcut,
//! recency-ordered sets, strided gathers) agrees bit for bit with the
//! straightforward per-line model it replaced.

use nmt_fault::{FaultPlan, FaultSite};
use nmt_sim::cache::{L2Slice, Probe};
use nmt_sim::memory::{DRAM_SPIKE_COST_FACTOR, SECTOR_BYTES};
use nmt_sim::{
    AccessKind, GpuConfig, MemorySubsystem, PartitionCounters, TraceEvent, TrafficBytes,
    TrafficClass,
};
use proptest::prelude::*;

/// Reference model: per-set vector of (line, dirty) in LRU order
/// (front = least recent).
struct RefCache {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    content: Vec<Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(capacity: usize, line_bytes: usize, ways: usize) -> Self {
        let sets = capacity / line_bytes / ways;
        Self {
            sets,
            ways,
            line_bytes: line_bytes as u64,
            content: vec![Vec::new(); sets],
        }
    }

    /// Returns whether the access hit, and the evicted line's dirtiness
    /// when a miss evicted one.
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<bool>) {
        let line = addr / self.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let entries = &mut self.content[set];
        if let Some(pos) = entries.iter().position(|&(l, _)| l == line) {
            let (l, d) = entries.remove(pos);
            entries.push((l, d || write));
            (true, None)
        } else {
            let evicted = (entries.len() == self.ways).then(|| entries.remove(0).1);
            entries.push((line, write));
            (false, evicted)
        }
    }
}

/// Replay `accesses` through an `L2Slice` and the reference LRU and
/// require the same hit, miss and write-back on every access. Returns the
/// number of (dirty, clean) evictions.
fn assert_matches_reference_lru(
    capacity: usize,
    line_bytes: usize,
    ways: usize,
    accesses: &[(u64, bool)],
) -> Result<(u64, u64), TestCaseError> {
    let mut dut = L2Slice::new(capacity, line_bytes, ways);
    let mut reference = RefCache::new(capacity, line_bytes, ways);
    let (mut dirty, mut clean) = (0, 0);
    for (i, &(addr, write)) in accesses.iter().enumerate() {
        let got = dut.access(addr, write);
        let (hit, evicted) = reference.access(addr, write);
        match got {
            Probe::Hit => prop_assert!(hit, "access {i} (addr {addr}): dut hit, ref miss"),
            Probe::Miss { dirty_writeback } => {
                prop_assert!(!hit, "access {i} (addr {addr}): dut miss, ref hit");
                prop_assert_eq!(
                    dirty_writeback,
                    evicted == Some(true),
                    "writeback mismatch at access {}",
                    i
                );
            }
        }
        match evicted {
            Some(true) => dirty += 1,
            Some(false) => clean += 1,
            None => {}
        }
    }
    Ok((dirty, clean))
}

/// `2 × ways` lines of set 0 of a `sets`-set slice, alternately written
/// and read: the second half evicts the first, half of it dirty.
fn dirty_and_clean_evictions(sets: u64, line_bytes: u64, ways: u64) -> Vec<(u64, bool)> {
    (0..2 * ways)
        .map(|j| (j * sets * line_bytes, j % 2 == 0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn l2_matches_reference_lru(
        accesses in proptest::collection::vec((0u64..8192, proptest::bool::ANY), 1..400)
    ) {
        // 1 KB cache, 64 B lines, 4 ways => 4 sets.
        assert_matches_reference_lru(1024, 64, 4, &accesses)?;
    }

    #[test]
    fn l2_matches_reference_lru_on_one_set_of_sixteen_ways(
        accesses in proptest::collection::vec(((0u64..40, 0u64..128), proptest::bool::ANY), 1..400)
    ) {
        // The small-scale GV100's slice (the sweep's): 16 ways of 128 B
        // lines in one set, so the set index is `line & 0`.
        let mut stream = dirty_and_clean_evictions(1, 128, 16);
        stream.extend(accesses.iter().map(|&((line, off), write)| (line * 128 + off, write)));
        let (dirty, clean) = assert_matches_reference_lru(16 * 128, 128, 16, &stream)?;
        prop_assert!(dirty >= 8 && clean >= 8, "dirty {} clean {}", dirty, clean);
    }

    #[test]
    fn l2_matches_reference_lru_on_48_sets(
        accesses in proptest::collection::vec(
            ((0u64..40, 0u64..3, 0u64..128), proptest::bool::ANY),
            1..400,
        )
    ) {
        // The paper GV100's slice: 48 sets of 16 ways, so the set index
        // takes the modulo path. Lines `j·48 + s` crowd three sets.
        let mut stream = dirty_and_clean_evictions(48, 128, 16);
        stream.extend(
            accesses
                .iter()
                .map(|&((j, set, off), write)| ((j * 48 + set) * 128 + off, write)),
        );
        let (dirty, clean) = assert_matches_reference_lru(48 * 16 * 128, 128, 16, &stream)?;
        prop_assert!(dirty >= 8 && clean >= 8, "dirty {} clean {}", dirty, clean);
    }

    #[test]
    fn flush_resets_everything(
        accesses in proptest::collection::vec((0u64..4096, proptest::bool::ANY), 1..100)
    ) {
        let mut dut = L2Slice::new(512, 64, 2);
        let mut dirty_lines = std::collections::BTreeSet::new();
        let mut resident = std::collections::BTreeSet::new();
        // Mirror residency coarsely to bound the flush() dirty count.
        for &(addr, write) in &accesses {
            dut.access(addr, write);
            let line = addr / 64;
            resident.insert(line);
            if write {
                dirty_lines.insert(line);
            }
        }
        let flushed = dut.flush();
        // At most `ways * sets` lines can be dirty at once.
        prop_assert!(flushed <= 8);
        prop_assert!(flushed <= dirty_lines.len());
        // After a flush every previously-resident line misses on its first
        // re-access (probing distinct lines only — the probe loop itself
        // refills the cache).
        let mut probed = std::collections::BTreeSet::new();
        for &(addr, _) in accesses.iter().take(8) {
            if probed.insert(addr / 64) {
                let miss = matches!(dut.access(addr, false), Probe::Miss { .. });
                prop_assert!(miss, "post-flush access must miss");
            }
        }
    }
}

/// Reference L2 slice: `Option` tags with separate stamp and dirty
/// vectors, a hit scan, then a victim scan (first invalid way, else LRU).
struct RefSlice {
    line_bytes: u64,
    sets: usize,
    ways: usize,
    tags: Vec<Option<u64>>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
}

impl RefSlice {
    fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        let lines = capacity_bytes / line_bytes;
        Self {
            line_bytes: line_bytes as u64,
            sets: lines / ways,
            ways,
            tags: vec![None; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            tick: 0,
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.tick += 1;
        let line = addr / self.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let slots = set * self.ways..(set + 1) * self.ways;
        for i in slots.clone() {
            if self.tags[i] == Some(line) {
                self.stamps[i] = self.tick;
                if write {
                    self.dirty[i] = true;
                }
                return Probe::Hit;
            }
        }
        let victim = slots
            .clone()
            .find(|&i| self.tags[i].is_none())
            .unwrap_or_else(|| slots.min_by_key(|&i| self.stamps[i]).unwrap());
        let dirty_writeback = self.tags[victim].is_some() && self.dirty[victim];
        self.tags[victim] = Some(line);
        self.stamps[victim] = self.tick;
        self.dirty[victim] = write;
        Probe::Miss { dirty_writeback }
    }
}

/// Reference FB partition: the same `f64` accumulation as the model.
struct RefPartition {
    l2: RefSlice,
    counters: PartitionCounters,
    channel_ns_per_byte: f64,
    l2_ns_per_byte: f64,
}

impl RefPartition {
    fn access_line(
        &mut self,
        addr: u64,
        write: bool,
        cost: f64,
        touched: u64,
        force_miss: bool,
    ) -> bool {
        let line = self.l2.line_bytes;
        let touched = touched.min(line) as f64;
        let c = &mut self.counters;
        match self.l2.access(addr, write) {
            Probe::Hit if force_miss => {
                c.l2_misses += 1;
                c.dram_bytes += touched as u64;
                c.dram_busy_ns += touched * self.channel_ns_per_byte * cost;
                c.l2_busy_ns += touched * self.l2_ns_per_byte * cost;
                false
            }
            Probe::Hit => {
                c.l2_hits += 1;
                c.l2_busy_ns += touched * self.l2_ns_per_byte * cost;
                true
            }
            Probe::Miss { dirty_writeback } => {
                c.l2_misses += 1;
                let mut bytes = touched;
                if dirty_writeback {
                    bytes += line as f64;
                }
                c.dram_bytes += bytes as u64;
                c.dram_busy_ns += bytes * self.channel_ns_per_byte * cost;
                c.l2_busy_ns += touched * self.l2_ns_per_byte * cost;
                false
            }
        }
    }
}

/// Reference memory subsystem: `/` and `%` partition decode and one loop
/// iteration per line, however short the access.
struct RefMemory {
    partitions: Vec<RefPartition>,
    interleave: u64,
    line_bytes: u64,
    atomic_cost_factor: f64,
    requested: TrafficBytes,
    dram: TrafficBytes,
    atomics: u64,
    trace: Vec<TraceEvent>,
    fault: Option<FaultPlan>,
    ordinal: u64,
    spikes: u64,
    overflows: u64,
}

impl RefMemory {
    fn new(config: &GpuConfig, fault: Option<FaultPlan>) -> Self {
        let partitions = (0..config.num_partitions)
            .map(|_| RefPartition {
                l2: RefSlice::new(
                    config.l2_slice_bytes(),
                    config.l2_line_bytes,
                    config.l2_ways,
                ),
                counters: PartitionCounters::default(),
                channel_ns_per_byte: 1.0 / config.channel_gbps,
                l2_ns_per_byte: 1.0 / config.l2_slice_gbps,
            })
            .collect();
        Self {
            partitions,
            interleave: config.interleave_bytes,
            line_bytes: config.l2_line_bytes as u64,
            atomic_cost_factor: config.atomic_cost_factor,
            requested: TrafficBytes::default(),
            dram: TrafficBytes::default(),
            atomics: 0,
            trace: Vec::new(),
            fault,
            ordinal: 0,
            spikes: 0,
            overflows: 0,
        }
    }

    fn access(&mut self, addr: u64, nbytes: u64, class: TrafficClass, write: bool, atomic: bool) {
        if nbytes == 0 {
            return;
        }
        self.requested.add(class, nbytes);
        if atomic {
            self.atomics += 1;
        }
        let kind = if atomic {
            AccessKind::Atomic
        } else if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.trace.push(TraceEvent {
            addr,
            bytes: nbytes,
            class,
            kind,
        });
        let mut cost = if atomic { self.atomic_cost_factor } else { 1.0 };
        let ordinal = self.ordinal;
        self.ordinal += 1;
        let mut force_miss = false;
        if let Some(plan) = self.fault {
            if plan.fires(FaultSite::DramLatencySpike, ordinal) {
                cost *= DRAM_SPIKE_COST_FACTOR;
                self.spikes += 1;
            }
            if plan.fires(FaultSite::PrefetchOverflow, ordinal) {
                force_miss = true;
                self.overflows += 1;
            }
        }
        for line in addr / self.line_bytes..=(addr + nbytes - 1) / self.line_bytes {
            let line_addr = line * self.line_bytes;
            let lo = addr.max(line_addr);
            let hi = (addr + nbytes).min(line_addr + self.line_bytes);
            let sec_lo = (lo - line_addr) / SECTOR_BYTES * SECTOR_BYTES;
            let sec_hi = (hi - line_addr).div_ceil(SECTOR_BYTES) * SECTOR_BYTES;
            let touched = (sec_hi - sec_lo).min(self.line_bytes);
            let p = ((line_addr / self.interleave) % self.partitions.len() as u64) as usize;
            if !self.partitions[p].access_line(
                line_addr,
                write || atomic,
                cost,
                touched,
                force_miss,
            ) {
                self.dram.add(class, touched);
            }
        }
    }
}

/// The experiments' small-scale GPU: a GV100 with a 128 KB L2, so each
/// of the 64 slices is one 16-way set.
fn small_scale_gv100() -> GpuConfig {
    GpuConfig {
        l2_bytes: 128 * 1024,
        ..GpuConfig::gv100()
    }
}

/// Smallest address stride that maps to the same partition and the same
/// set, so accesses `j * stride + off` for a few dozen `j` fill a set past
/// its associativity and force evictions.
fn conflict_stride(c: &GpuConfig) -> u64 {
    let partition_period = c.interleave_bytes * c.num_partitions as u64;
    let sets = (c.l2_slice_bytes() / c.l2_line_bytes / c.l2_ways) as u64;
    let set_period = c.l2_line_bytes as u64 * sets;
    let (mut a, mut b) = (partition_period, set_period);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    partition_period / a * set_period
}

/// One access: `((conflict slot j, byte offset, nbytes), (class, write,
/// atomic))`.
type Access = ((u64, u64, u64), (usize, bool, bool));

fn access_stream() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        (
            (0u64..40, 0u64..1024, 0u64..=512),
            (
                0usize..TrafficClass::COUNT,
                proptest::bool::ANY,
                proptest::bool::ANY,
            ),
        ),
        1..300,
    )
}

/// Replay `stream` through the model and the reference and require every
/// counter to agree exactly, `f64` busy times to the bit.
fn assert_same_counters(
    config: &GpuConfig,
    fault: Option<FaultPlan>,
    stream: &[Access],
) -> Result<(), TestCaseError> {
    let stride = conflict_stride(config);
    let mut dut = MemorySubsystem::new(config);
    dut.set_fault_plan(fault);
    dut.enable_trace();
    let mut reference = RefMemory::new(config, fault);
    for &((j, off, nbytes), (class, write, atomic)) in stream {
        let class = TrafficClass::ALL[class];
        dut.access(j * stride + off, nbytes, class, write, atomic);
        reference.access(j * stride + off, nbytes, class, write, atomic);
    }
    assert_same_state(&mut dut, &reference)
}

/// Require every counter of `dut` and `reference` to agree exactly, `f64`
/// busy times to the bit, and the trace to hold the reference's events.
fn assert_same_state(
    dut: &mut MemorySubsystem,
    reference: &RefMemory,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(dut.partitions().len(), reference.partitions.len());
    for (p, (got, want)) in dut
        .partitions()
        .iter()
        .zip(&reference.partitions)
        .enumerate()
    {
        let (got, want) = (got.counters(), want.counters);
        prop_assert_eq!(
            got.dram_busy_ns.to_bits(),
            want.dram_busy_ns.to_bits(),
            "partition {} DRAM busy time",
            p
        );
        prop_assert_eq!(
            got.l2_busy_ns.to_bits(),
            want.l2_busy_ns.to_bits(),
            "partition {} L2 busy time",
            p
        );
        prop_assert_eq!(
            got.dram_bytes,
            want.dram_bytes,
            "partition {} DRAM bytes",
            p
        );
        prop_assert_eq!(got.l2_hits, want.l2_hits, "partition {} hits", p);
        prop_assert_eq!(got.l2_misses, want.l2_misses, "partition {} misses", p);
    }
    for class in TrafficClass::ALL {
        prop_assert_eq!(
            dut.requested_traffic().get(class),
            reference.requested.get(class)
        );
        prop_assert_eq!(dut.dram_traffic().get(class), reference.dram.get(class));
    }
    prop_assert_eq!(dut.atomics(), reference.atomics);
    prop_assert_eq!(dut.fault_dram_spikes(), reference.spikes);
    prop_assert_eq!(dut.fault_prefetch_overflows(), reference.overflows);
    prop_assert_eq!(&dut.take_trace(), &reference.trace);
    Ok(())
}

fn fault_plan() -> FaultPlan {
    FaultPlan::from_rate(0x5eed, 0.3)
}

/// One strided gather: `((base, stride kind, stride lines, stride words),
/// (lanes, count, elem_bytes choice, class))`. A lane is `(kind, slot)`:
/// kind 0 repeats the previous lane's offset, kind 1 is the next word
/// after it, and any other kind is `slot` word `slot % 64` of conflict
/// slot `slot / 64`.
type Gather = ((u64, u8, u64, u64), (Vec<(u8, u64)>, usize, usize, usize));

fn gather_stream() -> impl Strategy<Value = Vec<Gather>> {
    proptest::collection::vec(
        (
            (0u64..8, 0u8..3, 0u64..40, 1u64..32),
            (
                proptest::collection::vec((0u8..4, 0u64..2048), 0..40),
                0usize..12,
                0usize..4,
                0usize..TrafficClass::COUNT,
            ),
        ),
        1..8,
    )
}

/// Replay `stream` as strided gathers through the model, and through the
/// reference as one `access` per run of adjacent same-line lanes of each
/// of the `count` gathers; then require the same state.
fn assert_gather_matches_reference(
    config: &GpuConfig,
    fault: Option<FaultPlan>,
    stream: &[Gather],
) -> Result<(), TestCaseError> {
    let conflict = conflict_stride(config);
    let line = config.l2_line_bytes as u64;
    let mut dut = MemorySubsystem::new(config);
    dut.set_fault_plan(fault);
    dut.enable_trace();
    let mut reference = RefMemory::new(config, fault);
    let mut offsets = Vec::new();
    for &((base, stride_kind, lines, words), (ref lanes, count, elem, class)) in stream {
        // Buffers start interleave-aligned, but the model takes any base:
        // steps of 96 B are not even line-aligned.
        let base = base * 96;
        // Whole lines, lines plus a few words, or the conflict stride.
        let stride = match stride_kind {
            0 => lines * line,
            1 => lines * line + words * 4,
            _ => lines * conflict,
        };
        let elem_bytes = [4, 8, 48, 0][elem];
        let class = TrafficClass::ALL[class];
        offsets.clear();
        for &(kind, slot) in lanes {
            let off = match (kind, offsets.last()) {
                (0, Some(&prev)) => prev,
                (1, Some(&prev)) => prev + 4,
                _ => slot / 64 * conflict + slot % 64 * 4,
            };
            offsets.push(off);
        }
        dut.gather(base, &offsets, stride, count, elem_bytes, class);
        for i in 0..count as u64 {
            let mut last_line = None;
            for &off in &offsets {
                let addr = base + off + i * stride;
                if last_line != Some(addr / line) {
                    last_line = Some(addr / line);
                    reference.access(addr, elem_bytes, class, false, false);
                }
            }
        }
    }
    assert_same_state(&mut dut, &reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_path_matches_reference_on_small_scale_gv100(stream in access_stream()) {
        let config = small_scale_gv100();
        prop_assert_eq!(config.l2_slice_bytes() / config.l2_line_bytes / config.l2_ways, 1);
        assert_same_counters(&config, None, &stream)?;
        assert_same_counters(&config, Some(fault_plan()), &stream)?;
    }

    #[test]
    fn fast_path_matches_reference_on_test_small(stream in access_stream()) {
        let config = GpuConfig::test_small();
        prop_assert_eq!(config.l2_slice_bytes() / config.l2_line_bytes / config.l2_ways, 16);
        assert_same_counters(&config, None, &stream)?;
        assert_same_counters(&config, Some(fault_plan()), &stream)?;
    }

    #[test]
    fn fast_path_matches_reference_on_paper_gv100(stream in access_stream()) {
        // 48 sets per slice: the set index takes the modulo path.
        let config = GpuConfig::gv100();
        prop_assert_eq!(config.l2_slice_bytes() / config.l2_line_bytes / config.l2_ways, 48);
        assert_same_counters(&config, None, &stream)?;
        assert_same_counters(&config, Some(fault_plan()), &stream)?;
    }

    #[test]
    fn strided_gather_matches_per_run_accesses(stream in gather_stream()) {
        for config in [small_scale_gv100(), GpuConfig::test_small(), GpuConfig::gv100()] {
            assert_gather_matches_reference(&config, None, &stream)?;
            assert_gather_matches_reference(&config, Some(fault_plan()), &stream)?;
        }
    }
}

#[test]
fn empty_gathers_touch_nothing() {
    let config = GpuConfig::test_small();
    let mut m = MemorySubsystem::new(&config);
    m.enable_trace();
    m.gather(0, &[], 128, 8, 4, TrafficClass::MatB);
    m.gather(0, &[0, 4, 512], 128, 0, 4, TrafficClass::MatB);
    m.gather(0, &[0, 4, 512], 100, 0, 4, TrafficClass::MatB);
    assert_eq!(m.requested_traffic().total(), 0);
    assert_eq!(m.aggregate(), PartitionCounters::default());
    assert!(m.take_trace().is_empty());
}

#[test]
fn conflict_stride_pins_partition_and_set() {
    for config in [
        small_scale_gv100(),
        GpuConfig::test_small(),
        GpuConfig::gv100(),
    ] {
        let stride = conflict_stride(&config);
        let m = MemorySubsystem::new(&config);
        let sets = (config.l2_slice_bytes() / config.l2_line_bytes / config.l2_ways) as u64;
        let line = config.l2_line_bytes as u64;
        for j in 1..40 {
            assert_eq!(m.partition_of(j * stride), 0);
            assert_eq!(j * stride / line % sets, 0);
        }
    }
}
