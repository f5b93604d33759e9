//! The engine's defining property: **online CSC→DCSR conversion is
//! bit-identical to offline tiling**, for any matrix, any tile geometry,
//! and any request order — including through the farm's one arena per
//! matrix — and it emits exactly the rows and lane masks the comparator
//! tree yields.

use proptest::prelude::*;
use spmm_nmt::engine::comparator::{ComparatorTree, MinScratch};
use spmm_nmt::engine::{
    convert_matrix, convert_matrix_farm, ConversionStats, EngineTiming, FarmConfig, StripConverter,
};
use spmm_nmt::formats::{
    Coo, Csc, Csr, DcsrStrip, SparseMatrix, StorageSize, StripSize, TiledDcsr,
};

fn csr_strategy() -> impl Strategy<Value = Csr> {
    (2usize..=48, 2usize..=48).prop_flat_map(|(nrows, ncols)| {
        let entry = (0..nrows as u32, 0..ncols as u32, 1i32..100);
        proptest::collection::vec(entry, 0..150).prop_map(move |entries| {
            let mut coo = Coo::new(nrows, ncols).expect("small dims");
            for (r, c, v) in entries {
                coo.push(r, c, v as f32).expect("in bounds");
            }
            coo.canonicalize();
            Csr::from_coo(&coo)
        })
    })
}

/// Matrices with zero dimensions (one phantom strip and tile) and with
/// every column from a random cut onward empty (all-empty strips); tile
/// sizes rarely divide the dimensions, so last strips and tiles are
/// ragged.
fn edge_case_strategy() -> impl Strategy<Value = (Csr, usize, usize)> {
    (0usize..=40, 0usize..=40, 1usize..=16, 1usize..=16).prop_flat_map(
        |(nrows, ncols, tile_w, tile_h)| {
            let entries = proptest::collection::vec((0u32..1000, 0u32..1000, 1i32..100), 0..120);
            (entries, 0usize..=ncols).prop_map(move |(entries, filled_cols)| {
                (
                    edge_csr(nrows, ncols, filled_cols, &entries),
                    tile_w,
                    tile_h,
                )
            })
        },
    )
}

/// An `nrows × ncols` matrix with entries only in columns below
/// `filled_cols`; `(r, c, v)` are reduced into range.
fn edge_csr(nrows: usize, ncols: usize, filled_cols: usize, entries: &[(u32, u32, i32)]) -> Csr {
    let mut coo = Coo::new(nrows, ncols).expect("small dims");
    if nrows > 0 && filled_cols > 0 {
        for &(r, c, v) in entries {
            coo.push(r % nrows as u32, c % filled_cols as u32, v as f32)
                .expect("in bounds");
        }
    }
    coo.canonicalize();
    Csr::from_coo(&coo)
}

/// Matrices up to 200 rows, so one tile can span several 64-row bucket
/// windows, shaped like [`edge_case_strategy`]'s.
fn tall_csr_strategy() -> impl Strategy<Value = Csr> {
    (0usize..=200, 0usize..=130).prop_flat_map(|(nrows, ncols)| {
        let entries = proptest::collection::vec((0u32..1000, 0u32..1000, 1i32..100), 0..400);
        (entries, 0usize..=ncols)
            .prop_map(move |(entries, filled)| edge_csr(nrows, ncols, filled, &entries))
    })
}

/// The farm's strips against offline tiling: equal to
/// `TiledDcsr::from_csc` bit for bit, strip by strip, and every tile
/// valid. Each strip's converter, run directly into an arena sized by
/// its own `size()`, writes the same tiling. The counters the farm
/// derives per tile sum to each converter's own `stats()`, and to the
/// farm's per-strip, per-partition and total counters.
fn check_strips(csr: &Csr, tile_w: usize, tile_h: usize) -> Result<(), TestCaseError> {
    let csc = csr.to_csc();
    let offline = TiledDcsr::from_csc(&csc, tile_w, tile_h).expect("tiling");
    let farm = convert_matrix_farm(&csc, tile_w, tile_h, FarmConfig::for_partitions(4))
        .expect("clean farm");
    prop_assert_eq!(&farm.strips, &offline);
    prop_assert!(farm.strips.validate().is_ok());
    let sizes: Vec<StripSize> = (0..offline.num_strips())
        .map(|s| StripConverter::new(&csc, s, tile_w).size())
        .collect();
    let (direct, conv_stats) = TiledDcsr::build(csc.shape(), tile_w, tile_h, &sizes, |writers| {
        writers
            .into_iter()
            .enumerate()
            .map(|(s, mut out)| {
                let mut conv = StripConverter::new(&csc, s, tile_w);
                conv.convert_strip(tile_h, &mut out);
                conv.stats()
            })
            .collect::<Vec<_>>()
    });
    prop_assert_eq!(&direct, &offline);
    let bits = |strip: DcsrStrip| -> Vec<u32> {
        strip
            .tiles()
            .flat_map(|t| t.values.iter().map(|x| x.to_bits()))
            .collect()
    };
    let mut total = ConversionStats::default();
    for (s, strip) in farm.strips.strips().enumerate() {
        prop_assert_eq!(strip, offline.strip(s), "strip {}", s);
        prop_assert_eq!(bits(strip), bits(offline.strip(s)), "strip {} values", s);
        let lanes = strip.width().min(csc.shape().ncols);
        let mut derived = ConversionStats::default();
        for (t, tile) in strip.tiles().enumerate() {
            prop_assert!(tile.validate().is_ok(), "strip {} tile {} invalid", s, t);
            derived.merge(&ConversionStats::of_tile(&tile, lanes, t == 0));
        }
        prop_assert_eq!(derived, conv_stats[s], "strip {} converter counters", s);
        prop_assert_eq!(derived, farm.per_strip[s], "strip {} farm counters", s);
        total.merge(&derived);
    }
    prop_assert_eq!(total, farm.stats);
    let mut partitions = ConversionStats::default();
    for p in &farm.per_partition {
        partitions.merge(&p.stats);
    }
    prop_assert_eq!(partitions, farm.stats);
    Ok(())
}

#[test]
fn strips_equal_offline_tiling_on_edge_shapes() {
    // Fixed cases so every edge shape runs on every seed: zero rows,
    // zero columns, both, ragged last strip and tile, all-empty strips.
    let entries: Vec<(u32, u32, i32)> = (0..90u32).map(|i| (i * 7, i * 13, 1 + i as i32)).collect();
    for (nrows, ncols, filled, tile_w, tile_h) in [
        (0, 0, 0, 8, 8),
        (0, 20, 0, 8, 8),
        (20, 0, 0, 8, 8),
        (37, 29, 29, 8, 16),
        (40, 40, 5, 8, 8),
        (33, 50, 0, 16, 4),
        (64, 64, 64, 64, 64),
        // Taller than one 64-row bucket window: tile 0 needs two.
        (150, 40, 40, 8, 100),
        // One tile covers every row.
        (30, 40, 40, 16, 48),
    ] {
        let csr = edge_csr(nrows, ncols, filled, &entries);
        if let Err(e) = check_strips(&csr, tile_w, tile_h) {
            panic!("{nrows}x{ncols} (filled {filled}), tile {tile_w}x{tile_h}: {e}");
        }
    }
    // A full 64-lane row: every lane ties at the minimum.
    let mut full_row = entries.clone();
    full_row.extend((0..64u32).map(|c| (5, c, 100 + c as i32)));
    let csr = edge_csr(70, 64, 64, &full_row);
    assert_eq!(csr.row(5).0.len(), 64);
    if let Err(e) = check_strips(&csr, 64, 64) {
        panic!("full 64-lane row, tile 64x64: {e}");
    }
}

/// Replay each tile's frontiers through the comparator tree, the
/// reference datapath: pass by pass, the tree's minimum row and tie mask
/// must be the converter's next row and its lanes, in order, with the
/// values the frontiers hold, until the tree finds the tile exhausted.
fn check_against_tree(csc: &Csc, tile_w: usize, tile_h: usize) -> Result<(), TestCaseError> {
    let (tiled, _) = convert_matrix(csc, tile_w, tile_h).expect("engine geometry");
    let (colptr, rowidx, values) = (csc.colptr(), csc.rowidx(), csc.values());
    let mut scratch = MinScratch::new();
    for (s, strip) in tiled.strips().enumerate() {
        let lanes = strip.width().min(csc.shape().ncols);
        if lanes == 0 {
            prop_assert!(strip.tiles().all(|t| t.nnz() == 0));
            continue;
        }
        let tree = ComparatorTree::new(lanes).expect("1..=64 lanes");
        let col0 = s * tile_w;
        let mut frontier: Vec<usize> = (0..lanes).map(|l| colptr[col0 + l] as usize).collect();
        for (t, tile) in strip.tiles().enumerate() {
            let row_end = tile.row_start as usize + tile.height;
            let mut emitted = 0;
            loop {
                let coords: Vec<Option<u32>> = (0..lanes)
                    .map(|l| {
                        let f = frontier[l];
                        (f < colptr[col0 + l + 1] as usize && (rowidx[f] as usize) < row_end)
                            .then(|| rowidx[f])
                    })
                    .collect();
                let Some(min) = tree.find_min_in(&coords, &mut scratch) else {
                    break;
                };
                prop_assert!(
                    emitted < tile.nnz_rows(),
                    "strip {} tile {}: rows missing",
                    s,
                    t
                );
                prop_assert_eq!(tile.rowidx[emitted], min.min - tile.row_start);
                let (lo, hi) = (
                    tile.rowptr[emitted] as usize,
                    tile.rowptr[emitted + 1] as usize,
                );
                let mask = tile.colidx[lo..hi].iter().fold(0u64, |m, &c| m | 1 << c);
                prop_assert_eq!(mask, min.mask, "strip {} tile {} row {}", s, t, emitted);
                for (k, &c) in tile.colidx[lo..hi].iter().enumerate() {
                    let f = &mut frontier[c as usize];
                    prop_assert_eq!(tile.values[lo + k].to_bits(), values[*f].to_bits());
                    *f += 1;
                }
                emitted += 1;
            }
            prop_assert_eq!(
                emitted,
                tile.nnz_rows(),
                "strip {} tile {}: extra rows",
                s,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn strips_equal_offline_tiling((csr, tile_w, tile_h) in edge_case_strategy()) {
        check_strips(&csr, tile_w, tile_h)?;
    }

    #[test]
    fn bucket_pass_emits_the_comparator_tree_sequence(
        csr in tall_csr_strategy(),
        tile_w in 1usize..=64,
        tile_h in 1usize..=100,
    ) {
        check_against_tree(&csr.to_csc(), tile_w, tile_h)?;
    }

    #[test]
    fn online_equals_offline(csr in csr_strategy(), tile_w in 1usize..=32, tile_h in 1usize..=32) {
        let csc = csr.to_csc();
        let offline = TiledDcsr::from_csr(&csr, tile_w, tile_h).expect("tiling");
        let (online, stats) = convert_matrix(&csc, tile_w, tile_h).expect("engine geometry");
        prop_assert_eq!(&online, &offline);
        prop_assert_eq!(stats.elements as usize, csr.nnz());
        prop_assert_eq!(stats.tiles as usize, offline.num_strips() * offline.tiles_per_strip());
    }

    #[test]
    fn random_access_equals_sequential(csr in csr_strategy(), tile_h in 1usize..=16) {
        let csc = csr.to_csc();
        let tile_w = 8usize;
        if csc.shape().ncols == 0 { return Ok(()); }
        let nstrips = csc.shape().ncols.div_ceil(tile_w);
        let ntiles = csc.shape().nrows.div_ceil(tile_h);
        // Sequential pass.
        let (seq, _) = convert_matrix(&csc, tile_w, tile_h).expect("engine geometry");
        for s in 0..nstrips {
            // Reverse-order random access via seek.
            let mut rnd = StripConverter::new(&csc, s, tile_w);
            for t in (0..ntiles).rev() {
                rnd.seek((t * tile_h) as u32);
                let one = rnd.next_tile((t * tile_h) as u32, tile_h);
                prop_assert_eq!(one, seq.tile(s, t), "strip {} tile {}", s, t);
            }
        }
    }

    #[test]
    fn conversion_stats_invariants(csr in csr_strategy()) {
        let csc = csr.to_csc();
        let (tiles, stats) = convert_matrix(&csc, 8, 8).expect("engine geometry");
        // Each emitted row costs one comparator pass; each tile one more
        // concluding pass.
        prop_assert_eq!(stats.comparator_passes, stats.rows_emitted + stats.tiles);
        // 8 bytes per streamed element + 2 pointer words per lane per strip.
        let strip_lanes: u64 = tiles.strips().map(|s| s.width() as u64).sum();
        prop_assert_eq!(stats.input_bytes, 8 * stats.elements + 8 * strip_lanes);
        // Output stream is exactly the tiles' storage footprint.
        prop_assert_eq!(stats.output_bytes, tiles.storage_bytes() as u64);
        // Rows emitted can never exceed elements (a row has >= 1 element).
        prop_assert!(stats.rows_emitted <= stats.elements);
    }

    #[test]
    fn comparator_tree_matches_min_oracle(
        coords in proptest::collection::vec(proptest::option::of(0u32..1000), 1..=64)
    ) {
        let tree = ComparatorTree::new(coords.len()).unwrap();
        let got = tree.find_min(&coords);
        let want = coords.iter().flatten().min().copied();
        match (got, want) {
            (None, None) => {}
            (Some(r), Some(m)) => {
                prop_assert_eq!(r.min, m);
                for (i, c) in coords.iter().enumerate() {
                    prop_assert_eq!(r.mask & (1 << i) != 0, *c == Some(m));
                }
            }
            other => prop_assert!(false, "mismatch: {:?}", other),
        }
    }

    #[test]
    fn engine_throughput_never_below_channel(csr in csr_strategy()) {
        // §5.3's claim: the pipelined engine always keeps up with the
        // channel, even in the worst (single-element-row) case — as long
        // as there is enough work to amortize the pipeline fill.
        let csc = csr.to_csc();
        let (_, stats) = convert_matrix(&csc, 8, 8).expect("engine geometry");
        if stats.elements >= 64 {
            let tree = ComparatorTree::new(8).unwrap().structure();
            let t = EngineTiming::fp32(13.6, &tree);
            // Count only streaming cycles (passes bound the row overhead).
            let gbps = t.conversion_gbps(&ConversionStats {
                comparator_passes: stats.comparator_passes - stats.tiles,
                ..stats
            });
            prop_assert!(gbps > 13.6 * 0.5, "throughput collapsed: {} GB/s", gbps);
        }
    }
}

#[test]
fn engine_width_is_bounded_at_64() {
    // The hardware is a 64-lane unit; wider strips must be rejected loudly.
    let coo = Coo::from_triplets(4, 128, &[0], &[100], &[1.0]).expect("valid");
    let csc = Csr::from_coo(&coo).to_csc();
    let result = std::panic::catch_unwind(|| StripConverter::new(&csc, 0, 128));
    assert!(result.is_err(), "65+-lane converter must panic");
}
