//! Figure 2 — stall reasons of SpMM.
//!
//! The paper's NVPROF profile attributes 75.1 % of baseline-SpMM stall
//! time to Memory, 23.3 % to the SM and 1.5 % to Other. This binary reads
//! the ledger sweep, whose rows carry the stall attribution of the
//! cuSPARSE-baseline stand-in run, and prints it per matrix.

use nmt_bench::{banner, experiment_scale, mean, print_table, sweep_ledger_or_exit};

fn main() {
    banner("fig02_stalls", "Figure 2: stall reasons of SpMM (NVPROF)");
    let ledger = sweep_ledger_or_exit(experiment_scale());

    let pct = |x: f64| format!("{:.1}%", x * 100.0);
    let table: Vec<Vec<String>> = ledger
        .rows
        .iter()
        .map(|r| {
            let s = r.baseline_stall;
            vec![r.matrix.clone(), pct(s.memory), pct(s.sm), pct(s.other)]
        })
        .collect();
    print_table(&["matrix", "memory", "sm", "other"], &table);

    let avg = |f: fn(&nmt_sim::StallBreakdown) -> f64| {
        mean(
            &ledger
                .rows
                .iter()
                .map(|r| f(&r.baseline_stall))
                .collect::<Vec<_>>(),
        ) * 100.0
    };
    let (mem, sm, other) = (avg(|s| s.memory), avg(|s| s.sm), avg(|s| s.other));
    println!();
    println!("suite average      : Memory {mem:.1}%  SM {sm:.1}%  Other {other:.1}%");
    println!("paper (Figure 2)   : Memory 75.1%  SM 23.3%  Other 1.5%");
    println!("shape check        : memory dominates = {}", mem > 50.0);
}
