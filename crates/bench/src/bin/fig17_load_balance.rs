//! §6.1 / Figure 17 — FB-partition data layout and load balancing.
//!
//! Two parts: (a) partition-load imbalance of the naive strip-per-partition
//! layout vs. the rotated tile layout, over suite matrices; (b) the
//! partition-switch overhead sweep — execution overhead when an SM hands
//! off to the next partition every `x` non-zero tile rows. The paper finds
//! overheads negligible for `x ≥ 64`.

use nmt_bench::{
    banner, build_suite, experiment_scale, experiment_tile, mean, par_map_suite, print_table,
};
use nmt_engine::{imbalance, partition_loads, Layout, SwitchCost};
use nmt_formats::TiledDcsr;

fn main() {
    banner(
        "fig17_load_balance",
        "Figure 17 / section 6.1: FB partition load balance",
    );
    let suite = build_suite();
    let tile = experiment_tile(experiment_scale());
    let partitions = 64; // GV100 pseudo-channels

    // (a) layout imbalance over the suite.
    let imb = par_map_suite(&suite, |desc, a| {
        let tiled = TiledDcsr::from_csr(a, tile, tile).expect("tiling");
        let tile_bytes: Vec<Vec<u64>> = tiled
            .strips()
            .iter()
            .map(|s| {
                s.tiles()
                    .map(|t| (t.metadata_bytes() + t.data_bytes()) as u64)
                    .collect()
            })
            .collect();
        let naive = imbalance(
            &partition_loads(Layout::StripPerPartition, &tile_bytes, partitions)
                .expect("positive partition count"),
        );
        let rot = imbalance(
            &partition_loads(Layout::TileRotated, &tile_bytes, partitions)
                .expect("positive partition count"),
        );
        (desc.name.clone(), naive, rot)
    });
    let rows: Vec<Vec<String>> = imb
        .iter()
        .map(|(n, a, b)| vec![n.clone(), format!("{a:.2}"), format!("{b:.2}")])
        .collect();
    print_table(&["matrix", "naive max/mean", "rotated max/mean"], &rows);
    println!();
    println!(
        "mean imbalance: naive {:.2} -> rotated {:.2} (1.0 = perfectly balanced)",
        mean(&imb.iter().map(|r| r.1).collect::<Vec<_>>()),
        mean(&imb.iter().map(|r| r.2).collect::<Vec<_>>())
    );

    // (b) switch-granularity sweep: relative overhead of the hand-off
    // traffic (next_fb_ptr + col_idx_frontier) per x non-zero tile rows.
    println!();
    println!("--- partition-switch overhead sweep (64-lane engine) ---");
    let cost = SwitchCost { lanes: 64 };
    // Average useful bytes per non-zero tile row, measured from the suite.
    let per_row: Vec<f64> = par_map_suite(&suite, |_, a| {
        let tiled = TiledDcsr::from_csr(a, tile, tile).expect("tiling");
        let rows = tiled.total_row_segments().max(1);
        use nmt_formats::StorageSize;
        tiled.storage_bytes() as f64 / rows as f64
    });
    let avg_row_bytes = mean(&per_row);
    let mut rows = Vec::new();
    for &x in &[1usize, 4, 16, 64, 256, 1024] {
        let ov = cost
            .overhead_fraction(x, avg_row_bytes)
            .expect("positive switch granularity");
        rows.push(vec![
            format!("{x}"),
            format!("{:.2}%", ov * 100.0),
            format!("{:.3}", 1.0 + ov),
        ]);
    }
    print_table(
        &["rows / switch", "added traffic", "normalized exec time"],
        &rows,
    );
    println!();
    println!("avg useful bytes per non-zero tile row: {avg_row_bytes:.1}");
    println!("paper: overhead negligible if >= 64 non-zero tile rows per FB partition,");
    println!("so splitting each strip across the partitions once is enough.");
}
