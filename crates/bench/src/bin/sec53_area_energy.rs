//! §5.3 — area and energy consumption of the transform units, regenerated
//! from the circuit-model constants (TSMC 16 nm comparator stage, CACTI
//! buffer) for GV100 and TU116.

use nmt_bench::{banner, print_table};
use nmt_engine::area_energy::GV100_IDLE_WATTS;
use nmt_engine::{AreaEnergyModel, ComparatorTree, EngineTiming, PrefetchBuffer};
use nmt_sim::GpuConfig;

fn main() {
    banner(
        "sec53_area_energy",
        "Section 5.3: engine area, energy, throughput, buffer sizing",
    );

    // --- Throughput demand ---
    let tree = ComparatorTree::new(64)
        .expect("64 lanes is the engine width")
        .structure();
    let t32 = EngineTiming::fp32(13.6, &tree);
    let t64 = EngineTiming::fp64(13.6, &tree);
    println!("--- throughput demand (one HBM2 pseudo channel = 13.6 GB/s) ---");
    println!(
        "fp32: 8-byte element every {:.3} ns (paper: 0.588 ns)",
        t32.cycle_ns
    );
    println!(
        "fp64: 12-byte element every {:.3} ns (paper: 0.882 ns)",
        t64.cycle_ns
    );
    println!(
        "longest pipeline stage: {:.3} ns (paper: 0.339 ns) -> fits: {}",
        t32.max_stage_ns,
        t32.meets_throughput()
    );
    println!(
        "comparator tree: {} two-input units, depth {} (64-wide strip)",
        tree.two_input_units, tree.depth
    );

    // --- Prefetch buffer ---
    println!();
    println!("--- internal buffer demand ---");
    let buf = PrefetchBuffer::paper_default();
    println!(
        "latency to hide: {:.1} ns (3.3 ns column bookkeeping + 15 ns DRAM CL)",
        PrefetchBuffer::required_hide_ns()
    );
    let sized = PrefetchBuffer::sized_to_hide(PrefetchBuffer::required_hide_ns(), &t32, 64);
    println!(
        "required buffer: {} B/column -> paper config {} B/column, {} KB/unit",
        sized.bytes_per_column,
        buf.bytes_per_column,
        buf.total_bytes() / 1024
    );
    println!(
        "hideable with 256 B/column: fp32 {:.1} ns, fp64 {:.1} ns (paper: 18.8 ns)",
        buf.hideable_ns(&t32),
        buf.hideable_ns(&t64)
    );

    // --- Area & energy ---
    println!();
    println!("--- area and energy ---");
    let mut rows = Vec::new();
    for gpu in [GpuConfig::gv100(), GpuConfig::tu116()] {
        let m = AreaEnergyModel::for_gpu(&gpu);
        rows.push(vec![
            gpu.name.clone(),
            format!("{}", m.units),
            format!("{:.2} mm2", m.total_area_mm2),
            format!("{:.2}%", m.area_fraction * 100.0),
            format!("{:.2} W", m.peak_power_fp32_w),
            format!("{:.2} W", m.peak_power_fp64_w),
            format!("{:.2}%", m.power_fraction_tdp * 100.0),
        ]);
    }
    print_table(
        &[
            "gpu",
            "units",
            "engine area",
            "% die",
            "peak W (fp32)",
            "peak W (fp64)",
            "% TDP",
        ],
        &rows,
    );
    let gv = AreaEnergyModel::for_gpu(&GpuConfig::gv100());
    println!();
    println!("paper: GV100 64 units, 4.9 mm2 = 0.6% of 815 mm2; 0.68 W (0.51 W fp64)");
    println!("       = 0.27% of 250 W TDP and 2.96% of idle power");
    println!("       TU116 24 units, 1.85 mm2 = 0.65% of 284 mm2");
    println!(
        "measured idle-power share: {:.2}% (assuming {:.0} W idle)",
        gv.peak_power_fp32_w / GV100_IDLE_WATTS * 100.0,
        GV100_IDLE_WATTS
    );
    println!(
        "in-SM alternative placement (\u{a7}6.1): {:.1} mm2 (2x the FB placement)",
        AreaEnergyModel::in_sm_alternative(&GpuConfig::gv100())
    );
}
