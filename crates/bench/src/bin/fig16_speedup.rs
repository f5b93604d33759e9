//! Figure 16 — speedup over cuSPARSE vs. the SSF heuristic; the paper's
//! headline result.
//!
//! Reads the ledger sweep for the baseline (cuSPARSE stand-in), untiled
//! DCSR C-stationary and online-tiled DCSR B-stationary (blue dots) times
//! and for the SSF decision, and simulates only the two kernels the
//! ledger does not run: untiled CSR row-per-warp, for the orange dots'
//! better-of-CSR/DCSR upper bound, and offline-tiled DCSR. Aggregates:
//!
//! * all-tiling (blind CSC + engine)         — paper: 1.63×
//! * offline tiled DCSR + SSF                — paper: 2.03× (optimistic)
//! * **hybrid: SSF picks C-stat / online B** — paper: 2.26×
//! * oracle (perfect classification)         — paper: 2.30×
//!
//! The hybrid, oracle, accuracy and improved-fraction lines are the
//! ledger summary's, at [`DEFAULT_SSF_THRESHOLD`], so each scale has one
//! headline.

use nmt::planner::DEFAULT_SSF_THRESHOLD;
use nmt_bench::{
    banner, build_suite, experiment_k, experiment_scale, experiment_tile, geomean, par_map_suite,
    print_table, sweep_ledger_or_exit,
};
use nmt_formats::{SparseMatrix, TiledDcsr};
use nmt_kernels::{bstat_tiled_dcsr_offline, csrmm_row_per_warp};
use nmt_matgen::random_dense;
use nmt_sim::Gpu;

fn main() {
    banner(
        "fig16_speedup",
        "Figure 16: speedup over cuSPARSE vs SSF (hybrid 2.26x)",
    );
    let scale = experiment_scale();
    let ledger = sweep_ledger_or_exit(scale);
    let suite = build_suite();
    let tile = experiment_tile(scale);
    let k = experiment_k(scale);

    // (CSR C-stationary, offline-tiled B-stationary) times, in suite order
    // like the ledger rows; B is the ledger sweep's operand.
    let extra: Vec<(f64, f64)> = par_map_suite(&suite, |desc, a| {
        let b = random_dense(a.shape().ncols, k, desc.seed ^ 0x16);
        let gpu = || Gpu::new(nmt_bench::experiment_gpu(scale)).expect("preset");
        let t_csr = csrmm_row_per_warp(&mut gpu(), a, &b)
            .expect("csr")
            .stats
            .total_ns;
        let tiled = TiledDcsr::from_csr(a, tile, tile).expect("tiling");
        let t_offline = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b)
            .expect("offline")
            .stats
            .total_ns;
        (t_csr, t_offline)
    });
    assert!(
        suite
            .iter()
            .map(|(d, _)| &d.name)
            .eq(ledger.rows.iter().map(|r| &r.matrix)),
        "ledger rows follow suite order"
    );

    let mut table: Vec<(f64, Vec<String>)> = ledger
        .rows
        .iter()
        .zip(&extra)
        .map(|(r, &(t_csr, t_offline))| {
            // "We plot the better results from CSR and DCSR to show its
            // upperbound for each matrix" (orange dots).
            let t_cstat = t_csr.min(r.cstat_ns);
            let cells = vec![
                r.matrix.clone(),
                format!("{:.3e}", r.ssf),
                format!("{:.2}x", r.baseline_ns / t_cstat),
                format!("{:.2}x", r.baseline_ns / r.bstat_ns),
                format!("{:.2}x", r.baseline_ns / t_offline),
            ];
            (r.ssf, cells)
        })
        .collect();
    table.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite SSF"));
    print_table(
        &[
            "matrix",
            "SSF",
            "C-stat (CSR/DCSR)",
            "online tiled (B)",
            "offline tiled (B)",
        ],
        &table
            .into_iter()
            .map(|(_, cells)| cells)
            .collect::<Vec<_>>(),
    );

    let all_tiling: Vec<f64> = ledger
        .rows
        .iter()
        .map(|r| r.baseline_ns / r.bstat_ns)
        .collect();
    // The hybrid with the engine's online tiles swapped for offline ones.
    let hybrid_offline: Vec<f64> = ledger
        .rows
        .iter()
        .zip(&extra)
        .map(|(r, &(_, t_offline))| match r.chosen.as_str() {
            "b-stationary" => r.baseline_ns / t_offline,
            _ => r.baseline_ns / r.cstat_ns,
        })
        .collect();
    let s = &ledger.summary;

    println!();
    println!(
        "SSF_th (fixed default)                 : {:.3e} (accuracy {:.1}%)",
        DEFAULT_SSF_THRESHOLD.threshold,
        s.ssf_accuracy * 100.0
    );
    println!(
        "all-tiling (blind CSC+engine)  geomean : {:.2}x   (paper 1.63x)",
        geomean(&all_tiling)
    );
    println!(
        "offline tiled DCSR + SSF       geomean : {:.2}x   (paper 2.03x)",
        geomean(&hybrid_offline)
    );
    println!(
        "HYBRID (SSF: C-stat | online)  geomean : {:.2}x   (paper 2.26x)",
        s.geomean_speedup
    );
    println!(
        "oracle (perfect classifier)    geomean : {:.2}x   (paper 2.30x)",
        s.oracle_geomean_speedup
    );
    println!(
        "matrices improved by the scheme        : {:.1}%  (paper ~95%)",
        s.improved_fraction * 100.0
    );
}
