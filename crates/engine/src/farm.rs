//! The parallel engine farm: one conversion unit per FB partition (§6.1).
//!
//! The paper places a transform engine in *every* FB partition and spreads
//! each strip's tiles across them (tile rotation, Figure 17) so no single
//! partition camps. This module is the functional-model counterpart: the
//! strips of a matrix are converted by per-partition [`StripConverter`]s
//! running rayon-parallel, and every counter is reduced through
//! per-partition collectors in stable (partition-index) order.
//!
//! Determinism contract: the farm's outputs — the tiles, the merged
//! [`ConversionStats`], the per-partition loads, and the switch counters —
//! are **byte-identical regardless of thread count**. Workers return their
//! results keyed by strip index; the reduction then walks strips in
//! ascending order and partitions in ascending order, so the merge order
//! (and therefore every sum) never depends on scheduling.

use crate::comparator::{ComparatorError, MAX_LANES};
use crate::convert::{ConversionStats, StripConverter};
use crate::placement::{Layout, PlacementError, SwitchCost};
use nmt_fault::{FaultPlan, FaultRecord, FaultSite};
use nmt_formats::{Csc, DcsrTileView, SparseMatrix, StripSize, StripWriter, TiledDcsr};
use nmt_obs::{EventSite, FlightRecorder};
use rayon::prelude::*;

/// Errors produced by a farm conversion: a tile geometry the engine cannot
/// convert, a placement misconfiguration, or an injected fault that
/// escalated past the per-strip retry policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmError {
    /// The strip width is not a lane count the comparator tree supports.
    Lanes(ComparatorError),
    /// The tile height was zero.
    ZeroTileHeight,
    /// The placement configuration was invalid.
    Placement(PlacementError),
    /// An injected fault survived its retry and must escalate to the
    /// planner's degraded-mode policy.
    Fault {
        /// Site where the fault fired.
        site: FaultSite,
        /// Instance key within the site (strip id, partition id, ...).
        key: u64,
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Lanes(e) => write!(f, "{e}"),
            FarmError::ZeroTileHeight => write!(f, "tile height must be positive"),
            FarmError::Placement(e) => write!(f, "{e}"),
            FarmError::Fault { site, key, detail } => {
                write!(f, "injected fault at {site}#{key}: {detail}")
            }
        }
    }
}

impl std::error::Error for FarmError {}

impl From<PlacementError> for FarmError {
    fn from(e: PlacementError) -> Self {
        FarmError::Placement(e)
    }
}

/// Configuration of the engine farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmConfig {
    /// Number of FB partitions (engines). GV100 has 64.
    pub partitions: usize,
    /// Tile → partition placement policy.
    pub layout: Layout,
    /// Optional fault-injection plan. Faults key off `(seed, site,
    /// strip/partition id)` only, so a faulted farm is as deterministic
    /// as a clean one.
    pub fault: Option<FaultPlan>,
}

impl FarmConfig {
    /// The paper's configuration: 64 FB partitions with tile rotation.
    pub fn paper_default() -> Self {
        Self::for_partitions(64)
    }

    /// A farm sized to a simulated GPU's partition count, with rotation.
    pub fn for_partitions(partitions: usize) -> Self {
        Self {
            partitions,
            layout: Layout::TileRotated,
            fault: None,
        }
    }

    /// The same farm with a fault plan installed.
    pub fn with_fault(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault = plan;
        self
    }
}

/// Work served by one FB partition's engine during a farm conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionWork {
    /// Tiles this partition's engine produced.
    pub tiles: u64,
    /// Merged converter counters for those tiles.
    pub stats: ConversionStats,
}

/// Result of a whole-matrix farm conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmRun {
    /// The converted matrix; tile `t` of strip `s` is `strips.tile(s, t)`.
    pub strips: TiledDcsr,
    /// Totals across every engine.
    pub stats: ConversionStats,
    /// Merged counters per strip, index = strip id — the kernel layer's
    /// per-strip histograms read these without re-running converters.
    pub per_strip: Vec<ConversionStats>,
    /// Per-partition collectors, index = partition id (always
    /// `config.partitions` entries; idle partitions report zeros).
    pub per_partition: Vec<PartitionWork>,
    /// Partition hand-offs: consecutive tiles of a strip living in
    /// different partitions (§6.1's `next_fb_ptr` + frontier transfer).
    pub switches: u64,
    /// Bytes moved by those hand-offs, priced by [`SwitchCost`].
    pub switch_bytes: u64,
    /// Injected faults absorbed locally (retried strips, detected metadata
    /// corruption, dropped partitions), in deterministic order: dropped
    /// partitions ascending, then strip events ascending by strip id.
    pub faults: Vec<FaultRecord>,
}

impl FarmRun {
    /// Per-partition served bytes (engine output), the camping metric fed
    /// to [`crate::placement::imbalance`].
    pub fn partition_loads(&self) -> Vec<u64> {
        self.per_partition
            .iter()
            .map(|p| p.stats.output_bytes)
            .collect()
    }
}

/// Bridge a farm run's placement counters into the observability registry
/// under `engine.farm.*`.
pub fn publish_farm(obs: &nmt_obs::ObsContext, farm: &FarmRun) {
    let m = &obs.metrics;
    m.counter_add("engine.farm.switches", farm.switches);
    m.counter_add("engine.farm.switch_bytes", farm.switch_bytes);
    m.gauge_set("engine.farm.partitions", farm.per_partition.len() as f64);
    m.gauge_set(
        "engine.farm.imbalance",
        crate::placement::imbalance(&farm.partition_loads()),
    );
    if !farm.faults.is_empty() {
        m.counter_add("fault.injected", farm.faults.len() as u64);
        m.counter_add(
            "fault.retries",
            farm.faults.iter().filter(|f| f.retried).count() as u64,
        );
        m.counter_add(
            "fault.dropped_partitions",
            farm.faults
                .iter()
                .filter(|f| f.site == FaultSite::PartitionDropout)
                .count() as u64,
        );
    }
}

/// Convert one strip under a fault plan, applying the local degraded-mode
/// policy: a `ConvertStrip` fault is retried once (a distinct deterministic
/// draw); a `MetadataCorruption` fault validates a view of the first tile
/// whose `rowptr` is a corrupted copy, which [`DcsrTileView::validate`]
/// must reject with a typed error, after which the strip's (uncorrupted)
/// output is used and the event is recorded as a retry. Only a failed
/// retry escalates to [`FarmError`].
fn convert_strip_faulted(
    csc: &Csc,
    strip_id: usize,
    tile_w: usize,
    tile_h: usize,
    plan: Option<FaultPlan>,
    out: &mut StripWriter<'_>,
    flight: &FlightRecorder,
) -> Result<Vec<FaultRecord>, FarmError> {
    let key = strip_id as u64;
    let mut faults = Vec::new();
    if let Some(plan) = plan {
        if plan.fires(FaultSite::ConvertStrip, key) {
            if plan.retry_fires(FaultSite::ConvertStrip, key) {
                flight.record(EventSite::FaultConvertStrip, 2, key, 0);
                flight.record(EventSite::FarmStrip, 2, key, 0);
                return Err(FarmError::Fault {
                    site: FaultSite::ConvertStrip,
                    key,
                    detail: format!("strip {strip_id} conversion failed twice (retry exhausted)"),
                });
            }
            flight.record(EventSite::FaultConvertStrip, 1, key, 0);
            flight.record(EventSite::FarmStrip, 1, key, 0);
            faults.push(FaultRecord {
                site: FaultSite::ConvertStrip,
                key,
                retried: true,
                fell_back: false,
                detail: format!("strip {strip_id} conversion failed; retry succeeded"),
            });
        }
    }
    StripConverter::new(csc, strip_id, tile_w).convert_strip(tile_h, out);
    if let Some(plan) = plan {
        if plan.fires(FaultSite::MetadataCorruption, key) {
            // Corrupt a copy — never the real output — and require the
            // validator to reject it with a typed FormatError.
            let tile = out.first_tile();
            let mut rowptr = tile.rowptr.to_vec();
            rowptr.push(rowptr.last().copied().unwrap_or(0) + 1);
            let corrupted = DcsrTileView {
                rowptr: &rowptr,
                ..tile
            };
            match corrupted.validate() {
                Err(e) => {
                    flight.record(EventSite::FaultMetadataCorruption, 1, key, 0);
                    faults.push(FaultRecord {
                        site: FaultSite::MetadataCorruption,
                        key,
                        retried: true,
                        fell_back: false,
                        detail: format!(
                            "corrupted tile metadata rejected ({e}); strip re-converted"
                        ),
                    });
                }
                Ok(()) => {
                    flight.record(EventSite::FaultMetadataCorruption, 2, key, 0);
                    return Err(FarmError::Fault {
                        site: FaultSite::MetadataCorruption,
                        key,
                        detail: format!("corrupted metadata in strip {strip_id} went undetected"),
                    });
                }
            }
        }
    }
    Ok(faults)
}

/// Convert an entire CSC matrix through the parallel engine farm.
///
/// Strips are converted rayon-parallel (`RAYON_NUM_THREADS` respected);
/// the reduction walks strips and partitions in ascending index order, so
/// the result is identical to a serial run.
pub fn convert_matrix_farm(
    csc: &Csc,
    tile_w: usize,
    tile_h: usize,
    config: FarmConfig,
) -> Result<FarmRun, FarmError> {
    convert_matrix_farm_obs(
        csc,
        tile_w,
        tile_h,
        config,
        &nmt_obs::ObsContext::disabled(),
    )
}

/// [`convert_matrix_farm`] with worker-side observability: the whole farm
/// runs under an `engine.farm` span, every strip conversion records an
/// `engine.farm.strip` span **on the rayon worker that ran it** (so the
/// trace shows one lane per worker and the profiler can compute busy/idle
/// and strips-in-flight), and the index-ordered reduction is wrapped in
/// `engine.farm.reduce`. Spans never feed back into the conversion:
/// outputs stay byte-identical to [`convert_matrix_farm`] at any thread
/// count, with or without a live recorder.
pub fn convert_matrix_farm_obs(
    csc: &Csc,
    tile_w: usize,
    tile_h: usize,
    config: FarmConfig,
    obs: &nmt_obs::ObsContext,
) -> Result<FarmRun, FarmError> {
    let _farm_span = obs.span("engine.farm");
    if !(1..=MAX_LANES).contains(&tile_w) {
        return Err(FarmError::Lanes(ComparatorError::LaneCount { got: tile_w }));
    }
    if tile_h == 0 {
        return Err(FarmError::ZeroTileHeight);
    }
    if config.partitions == 0 {
        return Err(PlacementError::NoPartitions.into());
    }
    // Partition dropout rolls once per partition id, before any strip work:
    // surviving engines absorb the dropped partitions' placements. All
    // partitions dropping is unrecoverable and escalates.
    let mut faults = Vec::new();
    let mut active: Vec<usize> = Vec::with_capacity(config.partitions);
    for p in 0..config.partitions {
        if config
            .fault
            .is_some_and(|plan| plan.fires(FaultSite::PartitionDropout, p as u64))
        {
            obs.flight
                .record(EventSite::FaultPartitionDropout, 1, p as u64, 0);
            faults.push(FaultRecord {
                site: FaultSite::PartitionDropout,
                key: p as u64,
                retried: false,
                fell_back: false,
                detail: format!("partition {p} dropped; placements remapped to survivors"),
            });
        } else {
            active.push(p);
        }
    }
    if active.is_empty() {
        obs.flight.record(
            EventSite::FaultPartitionDropout,
            2,
            0,
            config.partitions as u64,
        );
        return Err(FarmError::Fault {
            site: FaultSite::PartitionDropout,
            key: 0,
            detail: format!("all {} partitions dropped", config.partitions),
        });
    }
    // Size the arena exactly, then convert every strip in parallel into
    // its own ranges of it: elements per strip come from `col_ptr`, rows
    // from the bucket pass's occupancy masks. Sizing is a fraction of a
    // conversion, so it runs serially rather than spawning workers twice.
    let nstrips = nmt_formats::strip_count(csc.shape().ncols, tile_w);
    let sizes: Vec<StripSize> = (0..nstrips)
        .map(|s| StripConverter::new(csc, s, tile_w).size())
        .collect();
    let (strips, outputs) = TiledDcsr::build(csc.shape(), tile_w, tile_h, &sizes, |writers| {
        writers
            .into_par_iter()
            .map(|mut out| {
                let s = out.strip();
                let _strip_span = obs.span("engine.farm.strip");
                obs.flight.record(EventSite::FarmStrip, 0, s as u64, 0);
                convert_strip_faulted(csc, s, tile_w, tile_h, config.fault, &mut out, &obs.flight)
            })
            .collect::<Vec<_>>()
    });

    // Deterministic reduction: strips ascending, tiles ascending within a
    // strip, partition collectors indexed (not ordered by completion). A
    // failed strip surfaces as the *lowest-strip-id* error regardless of
    // which worker hit it first in wall-clock terms.
    let _reduce_span = obs.span("engine.farm.reduce");
    obs.flight.record(
        EventSite::FarmReduce,
        0,
        nstrips as u64,
        active.len() as u64,
    );
    let cost = SwitchCost { lanes: tile_w };
    let mut per_partition = vec![PartitionWork::default(); config.partitions];
    let mut per_strip = Vec::with_capacity(nstrips);
    let mut total = ConversionStats::default();
    let mut switches = 0u64;
    // A zero-column matrix's phantom strip is one column wide but has no
    // live comparator lanes.
    let ncols = csc.shape().ncols;
    for (s, (strip, res)) in strips.strips().zip(outputs).enumerate() {
        faults.extend(res?);
        let lanes = strip.width().min(ncols);
        let mut prev_partition = None;
        let mut strip_total = ConversionStats::default();
        for (t, tile) in strip.tiles().enumerate() {
            let delta = ConversionStats::of_tile(&tile, lanes, t == 0);
            // nmt-lint: allow(slice-index) — partition_index reduces modulo active.len(), so the index is always in bounds
            let p = active[config.layout.partition_index(s, t, active.len())];
            if let Some(slot) = per_partition.get_mut(p) {
                slot.tiles += 1;
                slot.stats.merge(&delta);
            }
            strip_total.merge(&delta);
            total.merge(&delta);
            if prev_partition.is_some_and(|prev| prev != p) {
                switches += 1;
            }
            prev_partition = Some(p);
        }
        per_strip.push(strip_total);
    }
    debug_assert!(
        strips.validate().is_ok(),
        "the farm wrote an invalid tiling: {:?}",
        strips.validate().err()
    );
    Ok(FarmRun {
        strips,
        stats: total,
        per_strip,
        per_partition,
        switches,
        switch_bytes: switches * cost.bytes_per_switch(),
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_formats::{Coo, Csr};

    fn sample_csc(n: usize, seed: u64) -> Csc {
        let mut entries = Vec::new();
        let mut state = seed | 1;
        for _ in 0..n * 4 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize % n;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = (state >> 33) as usize % n;
            entries.push((r as u32, c as u32, (1 + r + c) as f32));
        }
        entries.sort_by_key(|e| (e.0, e.1));
        entries.dedup_by_key(|e| (e.0, e.1));
        let rows: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<u32> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<f32> = entries.iter().map(|e| e.2).collect();
        let coo = Coo::from_triplets(n, n, &rows, &cols, &vals).unwrap();
        Csr::from_coo(&coo).to_csc()
    }

    #[test]
    fn per_partition_stats_sum_to_total() {
        let csc = sample_csc(64, 3);
        let farm = convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(4)).unwrap();
        let mut summed = ConversionStats::default();
        let mut tiles = 0;
        for p in &farm.per_partition {
            summed.merge(&p.stats);
            tiles += p.tiles;
        }
        assert_eq!(summed, farm.stats);
        assert_eq!(tiles, farm.stats.tiles);
        let mut strip_sum = ConversionStats::default();
        for s in &farm.per_strip {
            strip_sum.merge(s);
        }
        assert_eq!(strip_sum, farm.stats, "per-strip view sums to total too");
    }

    #[test]
    fn rotation_switches_partitions_between_tiles() {
        let csc = sample_csc(64, 5);
        let rotated = convert_matrix_farm(
            &csc,
            8,
            8,
            FarmConfig {
                partitions: 4,
                layout: Layout::TileRotated,
                fault: None,
            },
        )
        .unwrap();
        let naive = convert_matrix_farm(
            &csc,
            8,
            8,
            FarmConfig {
                partitions: 4,
                layout: Layout::StripPerPartition,
                fault: None,
            },
        )
        .unwrap();
        // Strip-per-partition never hands off; rotation hands off on every
        // tile step of every strip.
        assert_eq!(naive.switches, 0);
        assert_eq!(naive.switch_bytes, 0);
        let tile_steps: u64 = rotated
            .strips
            .strips()
            .map(|s| (s.num_tiles() as u64).saturating_sub(1))
            .sum();
        assert_eq!(rotated.switches, tile_steps);
        assert_eq!(
            rotated.switch_bytes,
            rotated.switches * SwitchCost { lanes: 8 }.bytes_per_switch()
        );
        // Same tiles and totals either way: placement changes ownership,
        // not the conversion.
        assert_eq!(rotated.strips, naive.strips);
        assert_eq!(rotated.stats, naive.stats);
    }

    #[test]
    fn rotation_balances_loads() {
        let csc = sample_csc(128, 11);
        let cfg = FarmConfig {
            partitions: 4,
            layout: Layout::TileRotated,
            fault: None,
        };
        let farm = convert_matrix_farm(&csc, 8, 8, cfg).unwrap();
        let loads = farm.partition_loads();
        assert_eq!(loads.len(), 4);
        assert!(loads.iter().all(|&l| l > 0), "rotation feeds every engine");
    }

    #[test]
    fn zero_partitions_is_an_error() {
        let csc = sample_csc(16, 1);
        assert_eq!(
            convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(0)),
            Err(FarmError::Placement(PlacementError::NoPartitions))
        );
    }

    #[test]
    fn bad_tile_geometry_is_a_typed_error() {
        let csc = sample_csc(16, 1);
        let cfg = FarmConfig::for_partitions(2);
        assert_eq!(
            convert_matrix_farm(&csc, 65, 8, cfg),
            Err(FarmError::Lanes(ComparatorError::LaneCount { got: 65 }))
        );
        assert_eq!(
            convert_matrix_farm(&csc, 0, 8, cfg),
            Err(FarmError::Lanes(ComparatorError::LaneCount { got: 0 }))
        );
        assert_eq!(
            convert_matrix_farm(&csc, 8, 0, cfg),
            Err(FarmError::ZeroTileHeight)
        );
    }

    #[test]
    fn empty_matrix_gets_one_phantom_strip() {
        let csc = Csc::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let farm = convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(2)).unwrap();
        assert_eq!(farm.strips.num_strips(), 1, "phantom strip for ncols == 0");
        assert_eq!(
            farm.strips.tiles_per_strip(),
            1,
            "phantom tile for nrows == 0"
        );
        assert_eq!(farm.strips.tile(0, 0).nnz(), 0);
        assert_eq!(farm.stats.elements, 0);
        assert_eq!(farm.switches, 0);
    }

    #[test]
    fn clean_plan_with_zero_rate_changes_nothing() {
        let csc = sample_csc(64, 17);
        let clean = convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(4)).unwrap();
        let planned = convert_matrix_farm(
            &csc,
            8,
            8,
            FarmConfig::for_partitions(4).with_fault(Some(FaultPlan::new(9, 0))),
        )
        .unwrap();
        assert_eq!(clean, planned);
    }

    #[test]
    fn convert_strip_faults_retry_or_escalate_deterministically() {
        let csc = sample_csc(128, 23);
        let plan = FaultPlan::from_rate(77, 0.4);
        let cfg = FarmConfig::for_partitions(4).with_fault(Some(plan));
        let first = convert_matrix_farm(&csc, 8, 8, cfg);
        let second = convert_matrix_farm(&csc, 8, 8, cfg);
        assert_eq!(first, second, "faulted farm must be run-to-run identical");
        if let Ok(run) = first {
            // Every absorbed engine-side fault was retried.
            assert!(run
                .faults
                .iter()
                .filter(|f| f.site != FaultSite::PartitionDropout)
                .all(|f| f.retried));
        }
    }

    #[test]
    fn faulted_output_tiles_match_clean_run() {
        // Absorbed faults (retries, detected corruption, dropout) must not
        // change the converted tiles or totals — only attribution.
        let csc = sample_csc(96, 31);
        let clean = convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(4)).unwrap();
        // A seed whose faults are all absorbed: search a few seeds for one
        // that completes, which keeps the test deterministic and meaningful.
        let mut checked = false;
        for seed in 0..32u64 {
            let cfg =
                FarmConfig::for_partitions(4).with_fault(Some(FaultPlan::from_rate(seed, 0.15)));
            if let Ok(run) = convert_matrix_farm(&csc, 8, 8, cfg) {
                assert_eq!(run.strips, clean.strips);
                assert_eq!(run.stats, clean.stats);
                assert_eq!(run.per_strip, clean.per_strip);
                if !run.faults.is_empty() {
                    checked = true;
                }
            }
        }
        assert!(checked, "no seed in 0..32 produced an absorbed fault");
    }

    #[test]
    fn dropped_partitions_serve_no_tiles() {
        let csc = sample_csc(96, 41);
        // Find a seed that drops at least one partition but not all.
        for seed in 0..64u64 {
            let plan = FaultPlan::from_rate(seed, 0.3);
            let dropped: Vec<usize> = (0..4)
                .filter(|&p| plan.fires(FaultSite::PartitionDropout, p as u64))
                .collect();
            if dropped.is_empty() || dropped.len() == 4 {
                continue;
            }
            let cfg = FarmConfig::for_partitions(4).with_fault(Some(plan));
            if let Ok(run) = convert_matrix_farm(&csc, 8, 8, cfg) {
                for &p in &dropped {
                    assert_eq!(
                        run.per_partition[p].tiles, 0,
                        "dropped partition {p} served"
                    );
                }
                assert_eq!(run.stats, {
                    let clean =
                        convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(4)).unwrap();
                    clean.stats
                });
                return;
            }
        }
        panic!("no seed in 0..64 dropped a strict subset of partitions cleanly");
    }

    #[test]
    fn all_partitions_dropped_is_typed_error() {
        let csc = sample_csc(32, 3);
        let cfg = FarmConfig::for_partitions(2).with_fault(Some(FaultPlan::from_rate(5, 1.0)));
        match convert_matrix_farm(&csc, 8, 8, cfg) {
            Err(FarmError::Fault { site, .. }) => {
                // Rate 1.0 fires every site; dropout is checked first.
                assert_eq!(site, FaultSite::PartitionDropout);
            }
            other => panic!("expected dropout escalation, got {other:?}"),
        }
    }

    #[test]
    fn farm_is_thread_count_invariant() {
        // The same conversion under 1 and 4 threads must be byte-identical
        // (ParIter preserves order; the reduction is index-driven).
        let csc = sample_csc(96, 13);
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .unwrap();
        let serial = convert_matrix_farm(&csc, 16, 16, FarmConfig::for_partitions(4)).unwrap();
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build_global()
            .unwrap();
        let parallel = convert_matrix_farm(&csc, 16, 16, FarmConfig::for_partitions(4)).unwrap();
        assert_eq!(serial, parallel);
    }
}
