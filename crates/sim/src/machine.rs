//! The machine model: buffers, block execution contexts and kernel launch.
//!
//! Kernels are host functions that *functionally* compute their result while
//! recording hardware behaviour through a [`BlockCtx`]: global loads/stores
//! routed through the partitioned L2/DRAM model, warp instruction issue with
//! active-lane masks, and dependent-load chains. A [`Gpu::launch`] then
//! integrates those records into a bottleneck timing estimate:
//!
//! * `t_compute` — warp-instruction issue time of the busiest SM;
//! * `t_memory` — occupancy of the busiest FB partition (channel or L2
//!   slice bandwidth);
//! * `t_latency` — dependent-load chains divided by the machine's warp-level
//!   parallelism (indirection cost that occupancy cannot always hide — the
//!   CSR pathology of §2);
//!
//! `total = max(compute, memory, latency) + overhead`, the standard
//! roofline-with-latency approximation for throughput processors.
//!
//! No accounting call reads a value of A or B, so a launch's
//! [`KernelStats`] depend only on the operands' structure. A GPU built with
//! [`Gpu::replay`] exploits that: its one launch runs the same block bodies
//! with accounting switched off (values only) and returns the stats an
//! earlier full run of that kernel recorded.

use crate::config::GpuConfig;
use crate::memory::{MemSnapshot, MemorySubsystem};
use crate::stats::{InstrClass, KernelStats, TrafficClass, WarpExecStats};

/// Errors produced by the machine model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Configuration failed validation.
    BadConfig(String),
    /// A kernel requested more shared memory per block than the SM has.
    SharedMemExceeded {
        /// Requested bytes per block.
        requested: usize,
        /// Available bytes per SM.
        available: usize,
    },
    /// An access fell outside its buffer.
    OutOfBounds {
        /// Offending offset.
        offset: u64,
        /// Buffer length.
        len: u64,
    },
    /// Operand shapes (or tile dims) are inconsistent with the requested
    /// kernel. Replaces the old `assert!`s in kernel entry points so a
    /// single malformed matrix cannot abort a whole corpus sweep.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An injected fault (see `nmt-fault`) escalated past its local retry
    /// policy. This is the planner's signal to engage degraded mode: the
    /// per-matrix B-stationary → C-stationary fallback.
    InjectedFault {
        /// Site where the fault fired.
        site: nmt_fault::FaultSite,
        /// Instance key within the site (strip id, partition id, ...).
        key: u64,
        /// Human-readable description of what was injected.
        detail: String,
    },
    /// A [`Gpu::replay`] GPU was launched a second time; it holds the
    /// recorded stats of exactly one launch.
    ReplayRelaunched,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadConfig(s) => write!(f, "bad gpu config: {s}"),
            SimError::SharedMemExceeded {
                requested,
                available,
            } => {
                write!(f, "shared memory exceeded: {requested} > {available} bytes")
            }
            SimError::OutOfBounds { offset, len } => {
                write!(f, "buffer access at offset {offset} beyond length {len}")
            }
            SimError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            SimError::InjectedFault { site, key, detail } => {
                write!(f, "injected fault at {site}#{key}: {detail}")
            }
            SimError::ReplayRelaunched => {
                write!(f, "a replay gpu holds the stats of one launch only")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A device allocation: a contiguous virtual address range tagged with the
/// traffic class its accesses will be accounted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    /// Base virtual address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Traffic class for accounting.
    pub class: TrafficClass,
}

impl Buffer {
    /// Address of `offset` within the buffer, bounds-checked in debug.
    #[inline]
    pub fn at(&self, offset: u64) -> u64 {
        debug_assert!(
            offset <= self.len,
            "offset {offset} beyond buffer length {}",
            self.len
        );
        self.addr + offset
    }
}

/// The simulated GPU: configuration + memory subsystem + an address-space
/// bump allocator.
#[derive(Debug, Clone)]
pub struct Gpu {
    config: GpuConfig,
    mem: MemorySubsystem,
    next_addr: u64,
    /// Per-launch scratch, kept so a launch does not allocate: warp
    /// instructions per SM, and the memory counters at launch start.
    sm_instrs: Vec<u64>,
    before: MemSnapshot,
    /// `Some` on a [`Gpu::replay`] GPU: the stats its one launch returns,
    /// taken by that launch.
    replay: Option<Option<KernelStats>>,
}

impl Gpu {
    /// Build a GPU from a validated configuration.
    pub fn new(config: GpuConfig) -> Result<Self, SimError> {
        config
            .validate()
            .map_err(|e| SimError::BadConfig(e.to_string()))?;
        let mem = MemorySubsystem::new(&config);
        let before = mem.snapshot();
        Ok(Self {
            // nmt-lint: allow(hot-alloc) — one per GPU, at construction; launches reuse it
            sm_instrs: vec![0; config.num_sms],
            before,
            config,
            mem,
            next_addr: 0,
            replay: None,
        })
    }

    /// A values-only GPU whose one [`launch`](Gpu::launch) runs the block
    /// bodies with accounting off and returns `stats` instead of
    /// simulating. `stats` must be what a [`Gpu::new`] run of the same
    /// kernel on the same operand structure, `k` and `config` returned;
    /// the kernel's output is computed exactly as in that run. A second
    /// launch is [`SimError::ReplayRelaunched`].
    pub fn replay(config: GpuConfig, stats: KernelStats) -> Result<Self, SimError> {
        let mut gpu = Self::new(config)?;
        gpu.replay = Some(Some(stats));
        Ok(gpu)
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The memory subsystem (inspection).
    pub fn memory(&self) -> &MemorySubsystem {
        &self.mem
    }

    /// Install (or clear) a fault plan on this GPU's memory subsystem.
    /// Kernels read it back via [`Gpu::fault_plan`] to seed engine-side
    /// fault sites from the same plan.
    pub fn set_fault_plan(&mut self, plan: Option<nmt_fault::FaultPlan>) {
        self.mem.set_fault_plan(plan);
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<nmt_fault::FaultPlan> {
        self.mem.fault_plan()
    }

    /// Allocate `bytes` of device memory accounted under `class`.
    /// Allocations are aligned to the interleave granularity so different
    /// buffers start on partition boundaries, like real large allocations.
    pub fn alloc(&mut self, bytes: u64, class: TrafficClass) -> Buffer {
        let align = self.config.interleave_bytes;
        let addr = self.next_addr.next_multiple_of(align);
        self.next_addr = addr + bytes.max(1);
        Buffer {
            addr,
            len: bytes,
            class,
        }
    }

    /// Drop all cached L2 state (cold-start the next kernel).
    pub fn flush_l2(&mut self) {
        self.mem.flush_l2();
    }

    /// Start recording every memory access, in order.
    pub fn enable_trace(&mut self) {
        self.mem.enable_trace();
    }

    /// Stop recording and return the accesses recorded since
    /// [`enable_trace`](Self::enable_trace) (empty when tracing was off).
    pub fn take_trace(&mut self) -> Vec<crate::trace::TraceEvent> {
        self.mem.take_trace()
    }

    /// Run a kernel of `num_blocks` thread blocks, each requiring
    /// `shared_bytes` of shared memory, with body `f` called once per block.
    /// Blocks are assigned to SMs round-robin. Returns the integrated
    /// timing/traffic statistics for this launch only, or on a
    /// [`Gpu::replay`] GPU the recorded ones.
    pub fn launch<F>(
        &mut self,
        shared_bytes: usize,
        num_blocks: usize,
        mut f: F,
    ) -> Result<KernelStats, SimError>
    where
        F: FnMut(&mut BlockCtx<'_>),
    {
        if shared_bytes > self.config.shared_mem_bytes {
            return Err(SimError::SharedMemExceeded {
                requested: shared_bytes,
                available: self.config.shared_mem_bytes,
            });
        }
        let replayed = match &mut self.replay {
            Some(stats) => Some(stats.take().ok_or(SimError::ReplayRelaunched)?),
            None => None,
        };
        let timing = replayed.is_none();
        self.before.capture(&self.mem);
        self.sm_instrs.fill(0);
        let mut warp_exec = WarpExecStats::default();
        let mut chain_loads = 0u64;
        let mut flops = 0u64;
        let mut xbar_bytes = 0u64;

        for block_id in 0..num_blocks {
            let mut ctx = BlockCtx {
                block_id,
                timing,
                warp_size: self.config.warp_size,
                line_shift: self.config.l2_line_bytes.trailing_zeros(),
                mem: &mut self.mem,
                warp_exec: WarpExecStats::default(),
                warp_instrs: 0,
                chain_loads: 0,
                flops: 0,
                xbar_bytes: 0,
            };
            f(&mut ctx);
            let sm = block_id % self.config.num_sms;
            self.sm_instrs[sm] += ctx.warp_instrs;
            warp_exec.merge(&ctx.warp_exec);
            chain_loads += ctx.chain_loads;
            flops += ctx.flops;
            xbar_bytes += ctx.xbar_bytes;
        }
        if let Some(stats) = replayed {
            return Ok(stats);
        }

        let before = &self.before;
        let max_sm_instrs = self.sm_instrs.iter().copied().max().unwrap_or(0);
        let t_compute_ns =
            max_sm_instrs as f64 / self.config.issue_per_cycle as f64 * self.config.cycle_ns();
        let t_memory_ns = before.max_busy_delta(&self.mem);
        let parallelism = (self.config.num_sms
            * self.config.max_warps_per_sm
            * self.config.mlp_per_warp.max(1)) as f64;
        let t_latency_ns = chain_loads as f64 * self.config.dram_latency_ns / parallelism;
        let t_xbar_ns = xbar_bytes as f64 / self.config.xbar_gbps;
        let t_overhead_ns = self.config.kernel_overhead_ns;
        let total_ns = t_compute_ns
            .max(t_memory_ns)
            .max(t_latency_ns)
            .max(t_xbar_ns)
            + t_overhead_ns;

        // Convert running totals into per-launch deltas.
        let dram_traffic = delta_traffic(&before.dram, &self.mem.dram_traffic());
        let requested_traffic = delta_traffic(&before.requested, &self.mem.requested_traffic());

        let agg = self.mem.aggregate();
        Ok(KernelStats {
            t_compute_ns,
            t_memory_ns,
            t_latency_ns,
            t_xbar_ns,
            xbar_bytes,
            t_overhead_ns,
            total_ns,
            dram_traffic,
            requested_traffic,
            l2_hits: agg.l2_hits - before.l2_hits,
            l2_misses: agg.l2_misses - before.l2_misses,
            atomics: self.mem.atomics() - before.atomics,
            warp_exec,
            flops,
        })
    }
}

fn delta_traffic(
    before: &crate::stats::TrafficBytes,
    after: &crate::stats::TrafficBytes,
) -> crate::stats::TrafficBytes {
    let mut out = crate::stats::TrafficBytes::default();
    for class in TrafficClass::ALL {
        out.add(class, after.get(class) - before.get(class));
    }
    out
}

/// Bridge a launch's [`KernelStats`] into an observability registry under
/// `prefix` (e.g. `kernels.chosen`): per-[`TrafficClass`] DRAM and
/// requested bytes become counters, derived rates become gauges, and the
/// stall taxonomy lands as `<prefix>.stall.*`.
pub fn publish_kernel_stats(obs: &nmt_obs::ObsContext, prefix: &str, stats: &KernelStats) {
    let m = &obs.metrics;
    for class in TrafficClass::ALL {
        m.counter_add(
            &format!("{prefix}.dram_bytes.{}", class.label()),
            stats.dram_traffic.get(class),
        );
        m.counter_add(
            &format!("{prefix}.requested_bytes.{}", class.label()),
            stats.requested_traffic.get(class),
        );
    }
    for class in InstrClass::ALL {
        m.counter_add(
            &format!("{prefix}.warp_slots.{}", class.label()),
            stats.warp_exec.active_for(class),
        );
    }
    m.counter_add(
        &format!("{prefix}.warp_slots.inactive"),
        stats.warp_exec.inactive,
    );
    m.counter_add(&format!("{prefix}.l2_hits"), stats.l2_hits);
    m.counter_add(&format!("{prefix}.l2_misses"), stats.l2_misses);
    m.counter_add(&format!("{prefix}.atomics"), stats.atomics);
    m.counter_add(&format!("{prefix}.flops"), stats.flops);
    m.counter_add(&format!("{prefix}.xbar_bytes"), stats.xbar_bytes);
    m.gauge_set(&format!("{prefix}.total_ns"), stats.total_ns);
    m.gauge_set(&format!("{prefix}.t_compute_ns"), stats.t_compute_ns);
    m.gauge_set(&format!("{prefix}.t_memory_ns"), stats.t_memory_ns);
    m.gauge_set(&format!("{prefix}.t_latency_ns"), stats.t_latency_ns);
    m.gauge_set(&format!("{prefix}.t_xbar_ns"), stats.t_xbar_ns);
    m.gauge_set(&format!("{prefix}.l2_hit_rate"), stats.l2_hit_rate());
    if stats.flops > 0 {
        // bytes_per_flop is +inf on FLOP-free launches; JSON has no inf.
        m.gauge_set(&format!("{prefix}.bytes_per_flop"), stats.bytes_per_flop());
    }
    let s = stats.stall_breakdown();
    m.gauge_set(&format!("{prefix}.stall.memory"), s.memory);
    m.gauge_set(&format!("{prefix}.stall.sm"), s.sm);
    m.gauge_set(&format!("{prefix}.stall.other"), s.other);
}

/// Per-thread-block execution context handed to kernel bodies.
pub struct BlockCtx<'a> {
    /// This block's index within the grid.
    pub block_id: usize,
    /// Off on a [`Gpu::replay`] launch: every accounting method below
    /// returns at once and the body computes values only.
    timing: bool,
    warp_size: usize,
    /// log2 of the L2 line size (a validated power of two).
    line_shift: u32,
    mem: &'a mut MemorySubsystem,
    warp_exec: WarpExecStats,
    warp_instrs: u64,
    chain_loads: u64,
    flops: u64,
    xbar_bytes: u64,
}

// Every method is `#[inline]`: the kernels live in another crate, and
// without the hint each accounting step is an out-of-line call even on a
// replay launch, where all it does is test `timing`.
impl BlockCtx<'_> {
    /// Warp width of the machine.
    #[inline]
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// Load `nbytes` from global memory at `buf[offset..]`.
    ///
    /// `dependent` marks loads whose address was produced by a previous
    /// load (the CSR indirection: B rows fetched through `colidx`); these
    /// feed the latency-bound term.
    #[inline]
    pub fn ld_global(&mut self, buf: &Buffer, offset: u64, nbytes: u64, dependent: bool) {
        self.global_access(buf, offset, nbytes, false, false, dependent);
    }

    /// Store `nbytes` to global memory at `buf[offset..]`.
    #[inline]
    pub fn st_global(&mut self, buf: &Buffer, offset: u64, nbytes: u64) {
        self.global_access(buf, offset, nbytes, true, false, false);
    }

    /// Atomic read-modify-write of `nbytes` at `buf[offset..]` (2× channel
    /// occupancy, per Table 1's atomic-bandwidth assumption).
    #[inline]
    pub fn atomic_add_global(&mut self, buf: &Buffer, offset: u64, nbytes: u64) {
        self.global_access(buf, offset, nbytes, true, true, false);
    }

    #[inline]
    fn global_access(
        &mut self,
        buf: &Buffer,
        offset: u64,
        nbytes: u64,
        write: bool,
        atomic: bool,
        dependent: bool,
    ) {
        if !self.timing {
            return;
        }
        debug_assert!(
            offset + nbytes <= buf.len,
            "access [{offset}, {}) beyond buffer length {}",
            offset + nbytes,
            buf.len
        );
        self.mem
            .access(buf.at(offset), nbytes, buf.class, write, atomic);
        // A fully-coalesced warp moves one line per memory instruction.
        let instrs = nbytes.div_ceil(1 << self.line_shift).max(1);
        let lanes = ((nbytes / 4).max(1) as usize).min(self.warp_size);
        self.warp_exec
            .record_n(InstrClass::Memory, lanes, self.warp_size, instrs);
        self.warp_instrs += instrs;
        if dependent {
            self.chain_loads += instrs;
        }
    }

    /// `count` warp gathers of one element of `elem_bytes` per offset in
    /// `offsets` (at most one warp's worth is idiomatic, but any length
    /// works); the i-th gather reads `offsets + i·stride`. Adjacent
    /// offsets landing in the same 128 B line coalesce into one
    /// transaction, so clustered index vectors behave like coalesced loads
    /// and scattered ones pay per-lane sectors — exactly the behaviour of
    /// real warp gathers through a sectored L2.
    #[inline]
    pub fn ld_global_gather(
        &mut self,
        buf: &Buffer,
        offsets: &[u64],
        stride: u64,
        count: usize,
        elem_bytes: u64,
        dependent: bool,
    ) {
        if !self.timing || offsets.is_empty() || count == 0 {
            return;
        }
        debug_assert!(
            offsets
                .iter()
                .all(|&off| off + (count as u64 - 1) * stride + elem_bytes <= buf.len),
            "gather beyond buffer length {}",
            buf.len
        );
        self.mem
            .gather(buf.addr, offsets, stride, count, elem_bytes, buf.class);
        let instrs = (offsets.len() as u64).div_ceil(self.warp_size as u64) * count as u64;
        self.warp_exec.record_n(
            InstrClass::Memory,
            self.warp_size.min(offsets.len()),
            self.warp_size,
            instrs,
        );
        self.warp_instrs += instrs;
        if dependent {
            self.chain_loads += instrs;
        }
    }

    /// An uncoalesced warp store (the column-major C writes of the
    /// cuSPARSE layout): `count` elements of `elem_bytes` at addresses
    /// `base, base + stride, base + 2·stride, …` within `buf`.
    ///
    /// When `stride` exceeds the line size every lane touches its own
    /// cache line; the warp still issues only `ceil(count / warp_size)`
    /// memory instructions, but the memory system sees one transaction
    /// per line.
    #[inline]
    pub fn st_global_strided(
        &mut self,
        buf: &Buffer,
        base: u64,
        stride: u64,
        count: usize,
        elem_bytes: u64,
    ) {
        if !self.timing || count == 0 {
            return;
        }
        debug_assert!(
            base + (count as u64 - 1) * stride + elem_bytes <= buf.len,
            "strided access beyond buffer"
        );
        self.mem
            .store_strided(buf.at(base), stride, count, elem_bytes, buf.class);
        let instrs = (count as u64).div_ceil(self.warp_size as u64);
        self.warp_exec.record_n(
            InstrClass::Memory,
            self.warp_size.min(count),
            self.warp_size,
            instrs,
        );
        self.warp_instrs += instrs;
    }

    /// Receive `nbytes` streamed over the SM↔FB crossbar into shared
    /// memory (the engine's tiled-DCSR output path, Figure 10): consumes
    /// crossbar bandwidth and issue slots but no DRAM bandwidth.
    #[inline]
    pub fn xbar_stream(&mut self, nbytes: u64) {
        if !self.timing || nbytes == 0 {
            return;
        }
        self.xbar_bytes += nbytes;
        let instrs = nbytes.div_ceil(1 << self.line_shift).max(1);
        self.warp_exec
            .record_n(InstrClass::Memory, self.warp_size, self.warp_size, instrs);
        self.warp_instrs += instrs;
    }

    /// A shared-memory load/store of `nbytes`: costs issue slots but no
    /// global traffic.
    #[inline]
    pub fn shared_op(&mut self, nbytes: u64, active_lanes: usize) {
        if !self.timing {
            return;
        }
        let instrs = nbytes.div_ceil((self.warp_size * 4) as u64).max(1);
        self.warp_exec.record_n(
            InstrClass::Memory,
            active_lanes.min(self.warp_size),
            self.warp_size,
            instrs,
        );
        self.warp_instrs += instrs;
    }

    /// Record `count` warp instructions of `class` with `active_lanes`
    /// lanes doing useful work (the rest are predicated off / divergent).
    #[inline]
    pub fn warp_instr(&mut self, class: InstrClass, active_lanes: usize, count: u64) {
        if !self.timing {
            return;
        }
        let lanes = active_lanes.min(self.warp_size);
        self.warp_exec.record_n(class, lanes, self.warp_size, count);
        self.warp_instrs += count;
    }

    /// `count` fused multiply-add warp instructions with `active_lanes`
    /// active lanes: records FP issue and 2 FLOPs per active lane.
    #[inline]
    pub fn fma(&mut self, active_lanes: usize, count: u64) {
        if !self.timing {
            return;
        }
        let lanes = active_lanes.min(self.warp_size);
        self.warp_exec
            .record_n(InstrClass::Fp, lanes, self.warp_size, count);
        self.warp_instrs += count;
        self.flops += 2 * lanes as u64 * count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::test_small()).unwrap()
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut g = gpu();
        let a = g.alloc(100, TrafficClass::MatA);
        let b = g.alloc(300, TrafficClass::MatB);
        assert_eq!(a.addr % 256, 0);
        assert_eq!(b.addr % 256, 0);
        assert!(b.addr >= a.addr + a.len);
    }

    #[test]
    fn shared_mem_limit_enforced() {
        let mut g = gpu();
        let too_big = g.config().shared_mem_bytes + 1;
        let err = g.launch(too_big, 1, |_| {}).unwrap_err();
        assert!(matches!(err, SimError::SharedMemExceeded { .. }));
    }

    #[test]
    fn empty_kernel_costs_only_overhead() {
        let mut g = gpu();
        let stats = g.launch(0, 4, |_| {}).unwrap();
        assert_eq!(stats.t_compute_ns, 0.0);
        assert_eq!(stats.t_memory_ns, 0.0);
        assert_eq!(stats.total_ns, stats.t_overhead_ns);
    }

    #[test]
    fn streaming_kernel_is_memory_bound() {
        let mut g = gpu();
        let buf = g.alloc(1 << 20, TrafficClass::MatB);
        let stats = g
            .launch(0, 16, |ctx| {
                let chunk = (1 << 20) / 16;
                let base = (ctx.block_id * chunk) as u64;
                ctx.ld_global(&buf, base, chunk as u64, false);
            })
            .unwrap();
        assert!(stats.t_memory_ns > stats.t_compute_ns);
        assert_eq!(stats.dram_traffic.get(TrafficClass::MatB), 1 << 20);
        let s = stats.stall_breakdown();
        assert!(s.memory > 0.5, "stall {s:?}");
    }

    #[test]
    fn compute_kernel_is_sm_bound() {
        let mut g = gpu();
        let stats = g
            .launch(0, 8, |ctx| {
                ctx.fma(32, 100_000);
            })
            .unwrap();
        assert!(stats.t_compute_ns > stats.t_memory_ns);
        assert_eq!(stats.flops, 8 * 100_000 * 64);
        let s = stats.stall_breakdown();
        assert!(s.sm > 0.9, "stall {s:?}");
    }

    #[test]
    fn per_launch_stats_are_deltas() {
        let mut g = gpu();
        let buf = g.alloc(4096, TrafficClass::MatA);
        let first = g
            .launch(0, 1, |ctx| ctx.ld_global(&buf, 0, 4096, false))
            .unwrap();
        g.flush_l2();
        let second = g
            .launch(0, 1, |ctx| ctx.ld_global(&buf, 0, 4096, false))
            .unwrap();
        assert_eq!(first.dram_traffic.total(), 4096);
        assert_eq!(
            second.dram_traffic.total(),
            4096,
            "second launch must not double-count"
        );
    }

    #[test]
    fn warm_l2_reduces_dram_traffic() {
        let mut g = gpu();
        let buf = g.alloc(4096, TrafficClass::MatB);
        g.launch(0, 1, |ctx| ctx.ld_global(&buf, 0, 4096, false))
            .unwrap();
        let warm = g
            .launch(0, 1, |ctx| ctx.ld_global(&buf, 0, 4096, false))
            .unwrap();
        assert_eq!(warm.dram_traffic.total(), 0);
        assert_eq!(warm.l2_misses, 0);
        assert!(warm.l2_hits > 0);
    }

    #[test]
    fn dependent_loads_add_latency_term() {
        let mut g = gpu();
        let buf = g.alloc(1 << 16, TrafficClass::MatB);
        let dep = g
            .launch(0, 1, |ctx| {
                for i in 0..512u64 {
                    ctx.ld_global(&buf, i * 128, 4, true);
                }
            })
            .unwrap();
        assert!(dep.t_latency_ns > 0.0);
        g.flush_l2();
        let indep = g
            .launch(0, 1, |ctx| {
                for i in 0..512u64 {
                    ctx.ld_global(&buf, i * 128, 4, false);
                }
            })
            .unwrap();
        assert_eq!(indep.t_latency_ns, 0.0);
    }

    #[test]
    fn atomics_counted() {
        let mut g = gpu();
        let c = g.alloc(1024, TrafficClass::MatC);
        let stats = g
            .launch(0, 4, |ctx| {
                ctx.atomic_add_global(&c, 0, 128);
            })
            .unwrap();
        assert_eq!(stats.atomics, 4);
    }

    #[test]
    fn divergent_warp_records_inactive_slots() {
        let mut g = gpu();
        let stats = g
            .launch(0, 1, |ctx| {
                ctx.warp_instr(InstrClass::Integer, 1, 10); // 1 of 32 lanes
            })
            .unwrap();
        assert_eq!(stats.warp_exec.inactive, 10 * 31);
        assert!(stats.warp_exec.inactive_fraction() > 0.9);
    }

    #[test]
    fn publish_kernel_stats_bridges_traffic_classes() {
        let mut g = gpu();
        let buf = g.alloc(1 << 16, TrafficClass::MatB);
        let stats = g
            .launch(0, 1, |ctx| {
                ctx.ld_global(&buf, 0, 1 << 16, false);
                ctx.fma(32, 4);
            })
            .unwrap();
        // Metrics stay live even on a disabled (span-less) context.
        let obs = nmt_obs::ObsContext::disabled();
        publish_kernel_stats(&obs, "sim.test", &stats);
        assert_eq!(
            obs.metrics.counter("sim.test.dram_bytes.mat_b"),
            stats.dram_traffic.get(TrafficClass::MatB)
        );
        assert_eq!(obs.metrics.counter("sim.test.dram_bytes.mat_a"), 0);
        assert_eq!(obs.metrics.counter("sim.test.flops"), stats.flops);
        assert!(obs.metrics.gauge("sim.test.total_ns").unwrap() > 0.0);
        let s = stats.stall_breakdown();
        assert_eq!(obs.metrics.gauge("sim.test.stall.memory"), Some(s.memory));
        // Publishing twice accumulates counters (they are monotonic).
        publish_kernel_stats(&obs, "sim.test", &stats);
        assert_eq!(obs.metrics.counter("sim.test.flops"), 2 * stats.flops);
    }

    #[test]
    fn replay_runs_every_body_values_only_and_returns_the_recorded_stats() {
        let body = |buf: &Buffer, ctx: &mut BlockCtx<'_>| {
            ctx.ld_global(buf, 0, 4096, true);
            ctx.atomic_add_global(buf, 0, 128);
            ctx.fma(32, 10);
        };
        let mut g = gpu();
        let buf = g.alloc(4096, TrafficClass::MatB);
        let recorded = g.launch(0, 4, |ctx| body(&buf, ctx)).unwrap();

        let mut r = Gpu::replay(GpuConfig::test_small(), recorded.clone()).unwrap();
        let buf = r.alloc(4096, TrafficClass::MatB);
        let mut visited = Vec::new();
        let stats = r
            .launch(0, 4, |ctx| {
                visited.push(ctx.block_id);
                body(&buf, ctx);
            })
            .unwrap();
        assert_eq!(stats, recorded);
        assert_eq!(visited, [0, 1, 2, 3]);
        // Accounting was off: the memory model saw no access.
        assert_eq!(r.memory().dram_traffic().total(), 0);
        assert_eq!(r.memory().atomics(), 0);
        assert_eq!(
            r.launch(0, 1, |_| {}).unwrap_err(),
            SimError::ReplayRelaunched
        );
    }

    #[test]
    fn blocks_distribute_across_sms() {
        // One heavy block on SM0, rest idle: compute time equals the heavy
        // block's issue time; two heavy blocks on different SMs: unchanged;
        // two heavy blocks on the same SM: doubled.
        let mut g = gpu();
        let one = g.launch(0, 1, |ctx| ctx.fma(32, 1000)).unwrap();
        let spread = g
            .launch(0, 4, |ctx| {
                let _ = ctx.block_id;
                ctx.fma(32, 1000);
            })
            .unwrap();
        assert!((one.t_compute_ns - spread.t_compute_ns).abs() < 1e-9);
        let stacked = g
            .launch(0, 5, |ctx| ctx.fma(32, 1000)) // 5 blocks on 4 SMs
            .unwrap();
        assert!((stacked.t_compute_ns - 2.0 * one.t_compute_ns).abs() < 1e-9);
    }
}
