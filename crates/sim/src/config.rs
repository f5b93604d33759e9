//! GPU configuration presets and timing constants.

use serde::{Deserialize, Serialize};

/// Complete description of the simulated GPU.
///
/// The default preset mirrors the paper's evaluation platform (§5.1): an
/// NVIDIA GV100 with 80 SMs (5,120 FP32 cores) at 1,530 MHz, 96 KB shared
/// memory per SM, a 6,144 KB L2, and 16 GB of HBM2 behind 64 pseudo-channels
/// delivering 870 GB/s aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Marketing name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Lanes per warp (32 on every NVIDIA part).
    pub warp_size: usize,
    /// Warp instructions issued per SM per cycle (scheduler width).
    pub issue_per_cycle: usize,
    /// Maximum resident warps per SM (occupancy bound for latency hiding).
    pub max_warps_per_sm: usize,
    /// Independent outstanding memory requests per warp (memory-level
    /// parallelism): dependent loads are serialized behind their address
    /// producer but independent of each other, so a warp keeps several in
    /// flight.
    pub mlp_per_warp: usize,
    /// Shared memory per SM in bytes.
    pub shared_mem_bytes: usize,
    /// Total L2 capacity in bytes, sliced evenly across FB partitions.
    pub l2_bytes: usize,
    /// L2 line size in bytes.
    pub l2_line_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in nanoseconds.
    pub l2_hit_latency_ns: f64,
    /// L2 slice bandwidth in GB/s (per partition).
    pub l2_slice_gbps: f64,
    /// Number of FB partitions == DRAM pseudo-channels.
    pub num_partitions: usize,
    /// Bandwidth of one pseudo-channel in GB/s (13.6 for HBM2: §5.3).
    pub channel_gbps: f64,
    /// DRAM access latency (CAS) in nanoseconds ("15 ns for accessing
    /// DRAM", §5.3).
    pub dram_latency_ns: f64,
    /// Address-interleave granularity across partitions, in bytes.
    pub interleave_bytes: u64,
    /// Aggregate SM↔FB crossbar bandwidth in GB/s. The paper's §7 notes
    /// the engine "exploits large Xbar bandwidth available internally in
    /// GPU die, which does not form a bottleneck" — large relative to DRAM.
    pub xbar_gbps: f64,
    /// Multiplier applied to channel occupancy for atomic updates
    /// ("atomic bandwidth = 2× memory access", Table 1).
    pub atomic_cost_factor: f64,
    /// Fixed kernel launch/drain overhead in nanoseconds (the "Other"
    /// sliver of Figure 2).
    pub kernel_overhead_ns: f64,
    /// Die area in mm² (for the engine's §5.3 area-overhead ratio).
    pub die_area_mm2: f64,
    /// Board power budget in watts (for the §5.3 energy-overhead ratio).
    pub tdp_watts: f64,
}

impl GpuConfig {
    /// The paper's evaluation GPU: server-class GV100 (§5.1).
    pub fn gv100() -> Self {
        Self {
            name: "GV100".into(),
            num_sms: 80,
            clock_ghz: 1.53,
            warp_size: 32,
            issue_per_cycle: 2,
            max_warps_per_sm: 64,
            mlp_per_warp: 8,
            shared_mem_bytes: 96 * 1024,
            l2_bytes: 6144 * 1024,
            l2_line_bytes: 128,
            l2_ways: 16,
            l2_hit_latency_ns: 30.0,
            l2_slice_gbps: 64.0,
            num_partitions: 64,
            channel_gbps: 13.6,
            dram_latency_ns: 15.0,
            interleave_bytes: 256,
            xbar_gbps: 2_500.0,
            atomic_cost_factor: 2.0,
            kernel_overhead_ns: 5_000.0,
            die_area_mm2: 815.0,
            tdp_watts: 250.0,
        }
    }

    /// The smaller part used in §5.3's scaling argument: TU116, 284 mm²,
    /// 24 GDDR6 channels of 12 GB/s (288 GB/s aggregate).
    pub fn tu116() -> Self {
        Self {
            name: "TU116".into(),
            num_sms: 24,
            clock_ghz: 1.53,
            warp_size: 32,
            issue_per_cycle: 2,
            max_warps_per_sm: 32,
            mlp_per_warp: 8,
            shared_mem_bytes: 64 * 1024,
            l2_bytes: 1536 * 1024,
            l2_line_bytes: 128,
            l2_ways: 16,
            l2_hit_latency_ns: 30.0,
            l2_slice_gbps: 64.0,
            num_partitions: 24,
            channel_gbps: 12.0,
            dram_latency_ns: 15.0,
            interleave_bytes: 256,
            xbar_gbps: 900.0,
            atomic_cost_factor: 2.0,
            kernel_overhead_ns: 5_000.0,
            die_area_mm2: 284.0,
            tdp_watts: 125.0,
        }
    }

    /// A scaled-down configuration for fast unit tests: same ratios as
    /// GV100 but 4 SMs / 4 partitions and a 64 KB L2.
    pub fn test_small() -> Self {
        Self {
            name: "TestSmall".into(),
            num_sms: 4,
            clock_ghz: 1.0,
            warp_size: 32,
            issue_per_cycle: 2,
            max_warps_per_sm: 16,
            mlp_per_warp: 8,
            shared_mem_bytes: 48 * 1024,
            l2_bytes: 64 * 1024,
            l2_line_bytes: 128,
            l2_ways: 8,
            l2_hit_latency_ns: 30.0,
            l2_slice_gbps: 64.0,
            num_partitions: 4,
            channel_gbps: 13.6,
            dram_latency_ns: 15.0,
            interleave_bytes: 256,
            xbar_gbps: 200.0,
            atomic_cost_factor: 2.0,
            kernel_overhead_ns: 1_000.0,
            die_area_mm2: 100.0,
            tdp_watts: 50.0,
        }
    }

    /// Aggregate DRAM bandwidth in GB/s.
    pub fn total_bandwidth_gbps(&self) -> f64 {
        self.channel_gbps * self.num_partitions as f64
    }

    /// L2 capacity of one partition's slice in bytes.
    pub fn l2_slice_bytes(&self) -> usize {
        self.l2_bytes / self.num_partitions
    }

    /// Peak FP32 FLOP/s (2 ops per FMA lane per cycle).
    pub fn peak_flops(&self) -> f64 {
        let cores = (self.num_sms * self.warp_size * self.issue_per_cycle) as f64;
        2.0 * cores * self.clock_ghz * 1e9
    }

    /// Seconds per core clock cycle.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Validate internal consistency: positive sizes, a power-of-two line,
    /// a non-zero interleave, and an L2 slice of at least one whole set.
    /// The memory model's address decode relies on this geometry.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_sms == 0 || self.num_partitions == 0 {
            return Err(ConfigError::NoSmsOrPartitions);
        }
        if !self.l2_line_bytes.is_power_of_two() {
            return Err(ConfigError::LineNotPowerOfTwo);
        }
        if self.interleave_bytes == 0 {
            return Err(ConfigError::ZeroInterleave);
        }
        if !self.l2_bytes.is_multiple_of(self.num_partitions) {
            return Err(ConfigError::UnevenSlices);
        }
        if self.l2_ways == 0 {
            return Err(ConfigError::ZeroWays);
        }
        let slice_lines = self.l2_slice_bytes() / self.l2_line_bytes;
        if slice_lines < self.l2_ways {
            return Err(ConfigError::SliceBelowOneSet);
        }
        if !slice_lines.is_multiple_of(self.l2_ways) {
            return Err(ConfigError::PartialSet);
        }
        if self.warp_size == 0 || self.clock_ghz <= 0.0 || self.channel_gbps <= 0.0 {
            return Err(ConfigError::NonPositiveRate);
        }
        if self.xbar_gbps < self.total_bandwidth_gbps() {
            return Err(ConfigError::XbarBelowDram);
        }
        Ok(())
    }
}

/// Why a [`GpuConfig`] failed [`GpuConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_sms` or `num_partitions` is zero.
    NoSmsOrPartitions,
    /// `l2_line_bytes` is not a power of two.
    LineNotPowerOfTwo,
    /// `interleave_bytes` is zero, so no address has a partition.
    ZeroInterleave,
    /// `l2_bytes` does not split evenly across the partitions.
    UnevenSlices,
    /// `l2_ways` is zero.
    ZeroWays,
    /// An L2 slice holds fewer lines than one set has ways.
    SliceBelowOneSet,
    /// An L2 slice's lines do not divide into whole sets.
    PartialSet,
    /// Clock, warp size or channel bandwidth is not positive.
    NonPositiveRate,
    /// The crossbar carries less than the aggregate DRAM bandwidth.
    XbarBelowDram,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConfigError::NoSmsOrPartitions => "SM and partition counts must be positive",
            ConfigError::LineNotPowerOfTwo => "L2 line size must be a power of two",
            ConfigError::ZeroInterleave => "partition interleave must be positive",
            ConfigError::UnevenSlices => "L2 must slice evenly across partitions",
            ConfigError::ZeroWays => "L2 associativity must be positive",
            ConfigError::SliceBelowOneSet => "L2 slice must hold at least one set",
            ConfigError::PartialSet => "L2 slice must divide into whole sets",
            ConfigError::NonPositiveRate => "clock, warp size and bandwidth must be positive",
            ConfigError::XbarBelowDram => {
                "crossbar must carry at least the aggregate DRAM bandwidth"
            }
        })
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gv100_matches_paper_numbers() {
        let c = GpuConfig::gv100();
        c.validate().unwrap();
        // §5.1: 870 GB/s over 64 pseudo channels; §5.3: 13.6 GB/s each.
        assert!((c.total_bandwidth_gbps() - 870.4).abs() < 1.0);
        assert_eq!(c.num_partitions, 64);
        assert_eq!(c.shared_mem_bytes, 96 * 1024);
        assert_eq!(c.l2_bytes, 6144 * 1024);
        assert_eq!(c.die_area_mm2, 815.0);
        // 5120 FP32 cores at 1530 MHz.
        assert_eq!(c.num_sms * c.warp_size * c.issue_per_cycle, 5120);
    }

    #[test]
    fn tu116_matches_section_53() {
        let c = GpuConfig::tu116();
        c.validate().unwrap();
        assert!((c.total_bandwidth_gbps() - 288.0).abs() < 1e-9);
        assert_eq!(c.die_area_mm2, 284.0);
    }

    #[test]
    fn all_presets_validate() {
        for c in [
            GpuConfig::gv100(),
            GpuConfig::tu116(),
            GpuConfig::test_small(),
        ] {
            c.validate().unwrap();
            assert!(c.peak_flops() > 0.0);
            assert!(c.l2_slice_bytes() > 0);
        }
    }

    fn check(edit: impl FnOnce(&mut GpuConfig)) -> Result<(), ConfigError> {
        let mut c = GpuConfig::test_small();
        edit(&mut c);
        c.validate()
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert_eq!(
            check(|c| c.l2_line_bytes = 100),
            Err(ConfigError::LineNotPowerOfTwo)
        );
        assert_eq!(
            check(|c| c.num_partitions = 0),
            Err(ConfigError::NoSmsOrPartitions)
        );
        assert_eq!(
            check(|c| c.l2_bytes = 64 * 1024 + 1),
            Err(ConfigError::UnevenSlices)
        );
        assert_eq!(check(|c| c.l2_ways = 6), Err(ConfigError::PartialSet));
    }

    #[test]
    fn zero_interleave_is_rejected() {
        assert_eq!(
            check(|c| c.interleave_bytes = 0),
            Err(ConfigError::ZeroInterleave)
        );
    }

    #[test]
    fn zero_ways_is_rejected() {
        assert_eq!(check(|c| c.l2_ways = 0), Err(ConfigError::ZeroWays));
    }

    #[test]
    fn slice_below_one_set_is_rejected() {
        // 16 KB slices of 128 B lines hold 128 lines: 256 ways is half a set.
        assert_eq!(
            check(|c| c.l2_ways = 256),
            Err(ConfigError::SliceBelowOneSet)
        );
        // A slice smaller than one line holds no set at all.
        assert_eq!(
            check(|c| c.l2_bytes = 4 * 64),
            Err(ConfigError::SliceBelowOneSet)
        );
        // Exactly one set per slice is valid (the small-scale GV100).
        check(|c| c.l2_ways = 128).unwrap();
    }

    #[test]
    fn config_errors_display_their_reason() {
        let e = check(|c| c.interleave_bytes = 0).unwrap_err();
        assert_eq!(e.to_string(), "partition interleave must be positive");
    }
}
