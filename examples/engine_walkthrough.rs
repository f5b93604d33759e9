//! The Figure 13 walk-through, narrated: watch the conversion unit turn a
//! CSC strip into a tiled-DCSR tile one comparator pass at a time.
//!
//! Run with: `cargo run --release --example engine_walkthrough`

use spmm_nmt::engine::{
    AreaEnergyModel, ComparatorTree, EngineTiming, PrefetchBuffer, StripConverter,
};
use spmm_nmt::formats::Csc;
use spmm_nmt::sim::GpuConfig;

fn main() {
    // The exact strip of Figure 13: 5 rows x 3 columns,
    //   col0 = {a0@r0, a2@r2, a4@r4}
    //   col1 = {b0@r0, b1@r1, b4@r4}
    //   col2 = {c0@r0, c2@r2}
    let csc = Csc::new(
        5,
        3,
        vec![0, 3, 6, 8],
        vec![0, 2, 4, 0, 1, 4, 0, 2],
        vec![10.0, 12.0, 14.0, 20.0, 21.0, 24.0, 30.0, 32.0],
    )
    .expect("Figure 13 strip is valid CSC");

    println!("CSC input (Figure 13):");
    println!("  col_ptr = {:?}", csc.colptr());
    println!("  row_idx = {:?}", csc.rowidx());
    println!("  value   = {:?}", csc.values());
    println!();

    // Step-by-step: drive the comparator tree manually over the frontier.
    let tree = ComparatorTree::new(3).expect("3 lanes is within 1..=64");
    let mut frontier = [0usize, 3, 6]; // col_ptr starts (step 1 of Fig. 13)
    let boundary = [3usize, 6, 8];
    println!("comparator passes (step 2-3 of Figure 13):");
    let mut pass = 0;
    loop {
        pass += 1;
        let coords: Vec<Option<u32>> = (0..3)
            .map(|lane| (frontier[lane] < boundary[lane]).then(|| csc.rowidx()[frontier[lane]]))
            .collect();
        match tree.find_min(&coords) {
            None => {
                println!("  pass {pass}: all lanes exhausted -> return DCSR (step 4)");
                break;
            }
            Some(min) => {
                let lanes: Vec<usize> = (0..3).filter(|i| min.mask & (1 << i) != 0).collect();
                let vals: Vec<f32> = lanes.iter().map(|&l| csc.values()[frontier[l]]).collect();
                println!(
                    "  pass {pass}: min row = {}, lanes {:?} emit one DCSR row {:?}",
                    min.min, lanes, vals
                );
                for &l in &lanes {
                    frontier[l] += 1;
                }
            }
        }
    }
    println!();

    // The full converter produces the tile in one call.
    let mut conv = StripConverter::new(&csc, 0, 3);
    let strip = conv.next_tile(0, 5);
    let tile = strip.tile(0);
    println!("tiled DCSR output (Figure 13, right):");
    println!("  value   = {:?}", tile.values);
    println!("  col_idx = {:?}", tile.colidx);
    println!("  row_ptr = {:?}", tile.rowptr);
    println!("  row_idx = {:?}", tile.rowidx);
    let stats = conv.stats();
    println!(
        "  ({} elements, {} rows, {} comparator passes, {} B in, {} B out)",
        stats.elements,
        stats.rows_emitted,
        stats.comparator_passes,
        stats.input_bytes,
        stats.output_bytes
    );
    println!();

    // And the hardware story (§4.2.2, §5.3) for the real 64-wide unit.
    let tree64 = ComparatorTree::new(64)
        .expect("64 lanes is the engine width")
        .structure();
    let timing = EngineTiming::fp32(13.6, &tree64);
    let buffer = PrefetchBuffer::paper_default();
    let area = AreaEnergyModel::for_gpu(&GpuConfig::gv100());
    println!("the production 64-wide unit (Figures 14-15, Section 5.3):");
    println!(
        "  comparator tree : {} two-input units, {} stages, {:.3} ns/stage",
        tree64.two_input_units, tree64.depth, tree64.stage_latency_ns
    );
    println!(
        "  pipeline        : {:.3} ns cycle (one 8 B element per HBM2 pseudo-channel beat)",
        timing.cycle_ns
    );
    println!(
        "  prefetch buffer : {} B/column x {} columns = {} KB, hides {:.1} ns",
        buffer.bytes_per_column,
        buffer.columns,
        buffer.total_bytes() / 1024,
        buffer.hideable_ns(&timing)
    );
    println!(
        "  deployment      : {} units, {:.2} mm^2 ({:.2}% of die), {:.2} W peak ({:.2}% of TDP)",
        area.units,
        area.total_area_mm2,
        area.area_fraction * 100.0,
        area.peak_power_fp32_w,
        area.power_fraction_tdp * 100.0
    );
}
