//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] decides — purely from `(seed, site, key)` — whether a
//! fault fires at a named [`FaultSite`]. Nothing here consults the clock,
//! thread identity, or any global state, so a faulted run is exactly as
//! reproducible as a clean one: the same plan produces the same faults at
//! the same `(site, strip)` points regardless of `RAYON_NUM_THREADS` or
//! scheduling order.
//!
//! Consumers roll faults with [`FaultPlan::fires`] at injection points and
//! record outcomes as [`FaultRecord`]s, which flow into the planner's
//! `DecisionAudit` and the bench ledger's error rows. The retry policy
//! ("retry the strip once, then escalate") draws its second roll from a
//! distinct salt via [`FaultPlan::retry_fires`], so the retry outcome is
//! just as deterministic as the original fault.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// One part-per-million scale: a `rate_ppm` of this value means "always".
pub const PPM_SCALE: u32 = 1_000_000;

/// A named injection point in the system.
///
/// Sites are coarse: the `key` passed to [`FaultPlan::fires`] selects the
/// instance (strip id, partition id, memory-access ordinal, ...) within
/// the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// Per-strip conversion failure in the engine farm (`engine::farm`).
    ConvertStrip,
    /// A converted tile's metadata is corrupted in flight and must be
    /// rejected by `validate()` with a typed `FormatError`.
    MetadataCorruption,
    /// A farm partition drops out before reduction (`engine::placement`).
    PartitionDropout,
    /// The sim's prefetch buffer overflows: an L2 hit is billed as a miss
    /// (`sim::memory`). Timing-only — numerical results are unaffected.
    PrefetchOverflow,
    /// A DRAM latency spike inflates the cost of one memory access
    /// (`sim::memory`). Timing-only — numerical results are unaffected.
    DramLatencySpike,
}

impl FaultSite {
    /// Stable per-site discriminant mixed into the fault hash (and used
    /// as the flight-recorder event sub-code, see
    /// `nmt_obs::recorder::EventSite::from_fault_code`). Never reorder
    /// these values: they are part of the reproducibility contract for a
    /// given seed.
    pub fn code(self) -> u64 {
        match self {
            FaultSite::ConvertStrip => 1,
            FaultSite::MetadataCorruption => 2,
            FaultSite::PartitionDropout => 3,
            FaultSite::PrefetchOverflow => 4,
            FaultSite::DramLatencySpike => 5,
        }
    }

    /// Human-readable site name (used in audit text and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ConvertStrip => "convert-strip",
            FaultSite::MetadataCorruption => "metadata-corruption",
            FaultSite::PartitionDropout => "partition-dropout",
            FaultSite::PrefetchOverflow => "prefetch-overflow",
            FaultSite::DramLatencySpike => "dram-latency-spike",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded fault-injection plan.
///
/// The rate is stored in parts per million (an integer) so plans are `Eq`
/// and hashable and can ride inside configuration structs that derive
/// those traits. `rate_ppm = 0` never fires; `rate_ppm >= 1_000_000`
/// always fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root seed: two runs with the same seed fault identically.
    pub seed: u64,
    /// Fault probability per roll, in parts per million.
    pub rate_ppm: u32,
}

impl FaultPlan {
    /// Build a plan from a seed and a rate in parts per million.
    pub fn new(seed: u64, rate_ppm: u32) -> Self {
        Self {
            seed,
            rate_ppm: rate_ppm.min(PPM_SCALE),
        }
    }

    /// Build a plan from a seed and a fractional rate in `[0, 1]`.
    pub fn from_rate(seed: u64, rate: f64) -> Self {
        let clamped = rate.clamp(0.0, 1.0);
        // Round to the nearest ppm so e.g. 0.3 survives the f64 trip.
        Self::new(seed, (clamped * f64::from(PPM_SCALE)).round() as u32)
    }

    /// Read a plan from `NMT_FAULT_SEED` / `NMT_FAULT_RATE`. Returns
    /// `None` when the seed variable is absent or unparsable; a missing
    /// or unparsable rate defaults to 0.05 (50 000 ppm).
    pub fn from_env() -> Option<Self> {
        let seed: u64 = std::env::var("NMT_FAULT_SEED").ok()?.parse().ok()?;
        let rate = std::env::var("NMT_FAULT_RATE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.05);
        Some(Self::from_rate(seed, rate))
    }

    /// The fractional fault rate this plan encodes.
    pub fn rate(&self) -> f64 {
        f64::from(self.rate_ppm) / f64::from(PPM_SCALE)
    }

    /// Does a fault fire at `(site, key)`? Pure: depends only on the
    /// plan's seed/rate and the arguments.
    pub fn fires(&self, site: FaultSite, key: u64) -> bool {
        self.roll(site, key, 0)
    }

    /// Does the *retry* of a previously faulted `(site, key)` fail too?
    /// Uses a distinct salt so the retry is an independent — but equally
    /// deterministic — draw.
    pub fn retry_fires(&self, site: FaultSite, key: u64) -> bool {
        self.roll(site, key, 1)
    }

    fn roll(&self, site: FaultSite, key: u64, salt: u64) -> bool {
        if self.rate_ppm == 0 {
            return false;
        }
        if self.rate_ppm >= PPM_SCALE {
            return true;
        }
        let h = mix(self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(site.code())
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(key)
            .wrapping_mul(0x94d0_49bb_1331_11eb)
            .wrapping_add(salt));
        (h % u64::from(PPM_SCALE)) < u64::from(self.rate_ppm)
    }
}

/// Finalizer from splitmix64: a cheap, well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The audited outcome of one injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Where the fault fired.
    pub site: FaultSite,
    /// Which instance within the site (strip id, partition id, ...).
    pub key: u64,
    /// Whether the degraded-mode policy retried the operation.
    pub retried: bool,
    /// Whether the planner fell back from B-stationary to the untiled
    /// C-stationary path in response.
    pub fell_back: bool,
    /// Human-readable description of what was injected.
    pub detail: String,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault at {}#{}: {}{}{}",
            self.site,
            self.key,
            self.detail,
            if self.retried { " (retried)" } else { "" },
            if self.fell_back {
                " (fell back to c-stationary)"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::new(42, 0);
        for key in 0..10_000 {
            assert!(!plan.fires(FaultSite::ConvertStrip, key));
            assert!(!plan.retry_fires(FaultSite::ConvertStrip, key));
        }
    }

    #[test]
    fn full_rate_always_fires() {
        let plan = FaultPlan::from_rate(42, 1.0);
        assert_eq!(plan.rate_ppm, PPM_SCALE);
        for key in 0..100 {
            assert!(plan.fires(FaultSite::PartitionDropout, key));
        }
    }

    #[test]
    fn same_seed_same_faults() {
        let a = FaultPlan::from_rate(7, 0.1);
        let b = FaultPlan::from_rate(7, 0.1);
        for key in 0..5_000 {
            assert_eq!(
                a.fires(FaultSite::ConvertStrip, key),
                b.fires(FaultSite::ConvertStrip, key)
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::from_rate(1, 0.5);
        let b = FaultPlan::from_rate(2, 0.5);
        let diverged = (0..1_000).any(|key| {
            a.fires(FaultSite::ConvertStrip, key) != b.fires(FaultSite::ConvertStrip, key)
        });
        assert!(
            diverged,
            "distinct seeds should produce distinct fault sets"
        );
    }

    #[test]
    fn sites_are_independent_streams() {
        let plan = FaultPlan::from_rate(9, 0.5);
        let diverged = (0..1_000).any(|key| {
            plan.fires(FaultSite::ConvertStrip, key) != plan.fires(FaultSite::DramLatencySpike, key)
        });
        assert!(diverged, "sites should not share a fault stream");
    }

    #[test]
    fn retry_is_a_distinct_draw() {
        let plan = FaultPlan::from_rate(11, 0.5);
        let diverged = (0..1_000).any(|key| {
            plan.fires(FaultSite::ConvertStrip, key)
                != plan.retry_fires(FaultSite::ConvertStrip, key)
        });
        assert!(diverged, "retry rolls should not mirror the original roll");
    }

    #[test]
    fn empirical_rate_tracks_requested_rate() {
        let plan = FaultPlan::from_rate(3, 0.25);
        let hits = (0..100_000u64)
            .filter(|&key| plan.fires(FaultSite::PrefetchOverflow, key))
            .count();
        let observed = hits as f64 / 100_000.0;
        assert!(
            (observed - 0.25).abs() < 0.02,
            "observed rate {observed} too far from 0.25"
        );
    }

    #[test]
    fn rate_roundtrips_through_ppm() {
        let plan = FaultPlan::from_rate(0, 0.3);
        assert_eq!(plan.rate_ppm, 300_000);
        assert!((plan.rate() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn record_serializes_and_displays() {
        let rec = FaultRecord {
            site: FaultSite::ConvertStrip,
            key: 4,
            retried: true,
            fell_back: true,
            detail: "strip conversion failed".into(),
        };
        let json = serde_json::to_string(&rec).expect("serializes");
        let back: FaultRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, rec);
        let text = rec.to_string();
        assert!(text.contains("convert-strip#4"));
        assert!(text.contains("retried"));
        assert!(text.contains("fell back"));
    }
}
