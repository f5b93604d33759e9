//! Figure 4 — performance vs. SSF value, and the learned threshold.
//!
//! Reads the ledger sweep, which already runs both algorithms
//! (C-stationary untiled DCSR, B-stationary online-tiled DCSR) on every
//! suite matrix: plot `t_C / t_B` against the SSF value, learn the split
//! threshold, and report the classification accuracy (paper: >93 %).

use nmt_bench::{banner, experiment_scale, print_table, sweep_ledger_or_exit, LedgerRow};
use nmt_model::{classify, learn_threshold};

fn main() {
    banner(
        "fig04_ssf_scatter",
        "Figure 4: performance vs SSF value + learned SSF_th",
    );
    let ledger = sweep_ledger_or_exit(experiment_scale());

    let ratio = |r: &LedgerRow| r.cstat_ns / r.bstat_ns;
    let mut rows: Vec<Vec<String>> = ledger
        .rows
        .iter()
        .map(|r| {
            vec![
                r.matrix.clone(),
                format!("{:.3e}", r.ssf),
                format!("{:.3}", r.h_norm),
                format!("{:.3}", ratio(r)),
                if ratio(r) > 1.0 { "B-stat" } else { "C-stat" }.into(),
            ]
        })
        .collect();
    rows.sort_by(|a, b| {
        let av: f64 = a[1].parse().unwrap_or(0.0);
        let bv: f64 = b[1].parse().unwrap_or(0.0);
        av.partial_cmp(&bv).expect("finite SSF")
    });
    print_table(&["matrix", "SSF", "H_norm", "t_C/t_B", "winner"], &rows);

    let samples: Vec<(f64, f64)> = ledger.rows.iter().map(|r| (r.ssf, ratio(r))).collect();
    let th = learn_threshold(&samples);
    let correct = samples
        .iter()
        .filter(|&&(ssf, ratio)| {
            let predicted_b = classify(ssf, &th) == nmt_model::ssf::Choice::BStationary;
            predicted_b == (ratio > 1.0)
        })
        .count();
    println!();
    println!("matrices profiled      : {}", samples.len());
    println!("learned SSF_th         : {:.4e}", th.threshold);
    println!(
        "classification accuracy: {:.1}% ({} / {})",
        th.accuracy * 100.0,
        correct,
        samples.len()
    );
    println!(
        "paper                  : >93% correctly categorized (Fig. 4), ~96% with online tiling"
    );
}
