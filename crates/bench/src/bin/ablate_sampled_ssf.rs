//! Ablation / future work: sampled SSF profiling. §3.1.4: "We believe
//! these parameters can be obtained through sampling to minimize profiling
//! time, but we leave it for future work." This experiment implements that
//! future work: estimate every SSF term from a row sample and measure how
//! classification agreement with the full scan degrades with sample size.

use nmt::DEFAULT_SSF_THRESHOLD;
use nmt_bench::{
    banner, build_suite, experiment_scale, experiment_tile, par_map_suite, print_table,
};
use nmt_formats::SparseMatrix;
use nmt_model::classify;
use nmt_model::ssf::SsfProfile;

fn main() {
    banner(
        "ablate_sampled_ssf",
        "future work (§3.1.4): SSF profiling by row sampling",
    );
    let suite = build_suite();
    let tile = experiment_tile(experiment_scale());

    let full: Vec<(String, SsfProfile)> = par_map_suite(&suite, |d, a| {
        (d.name.clone(), SsfProfile::compute(a, tile))
    });

    let mut rows = Vec::new();
    for &sample in &[16usize, 64, 256, 1024] {
        let sampled = par_map_suite(&suite, |d, a| {
            SsfProfile::compute_sampled(a, tile, sample, d.seed ^ 0x5A)
        });
        let mut agree = 0usize;
        let mut log_err_sum = 0.0f64;
        for ((_, f), s) in full.iter().zip(&sampled) {
            let cf = classify(f.ssf, &DEFAULT_SSF_THRESHOLD);
            let cs = classify(s.ssf, &DEFAULT_SSF_THRESHOLD);
            if cf == cs {
                agree += 1;
            }
            log_err_sum += (s.ssf.max(1e-12) / f.ssf.max(1e-12)).ln().abs();
        }
        let n = full.len();
        // Work reduction: sampled profiling touches min(sample, rows) rows
        // of each matrix (`compute_sampled` scans all rows once the sample
        // covers the matrix).
        let covered: f64 = suite
            .iter()
            .map(|(_, m)| {
                let rows = m.shape().nrows;
                sample.min(rows) as f64 / rows.max(1) as f64
            })
            .sum::<f64>()
            / n as f64;
        rows.push(vec![
            format!("{sample}"),
            format!("{:.1}%", 100.0 * covered),
            format!("{:.1}%", 100.0 * agree as f64 / n as f64),
            format!("{:.2}", (log_err_sum / n as f64).exp()),
        ]);
    }
    print_table(
        &[
            "rows sampled",
            "% of matrix (mean)",
            "classification agreement",
            "geo |SSF ratio|",
        ],
        &rows,
    );
    println!();
    println!("expected: agreement approaches 100% well before the sample covers");
    println!("the matrix, validating the paper's conjecture that profiling can");
    println!("be amortized by sampling. Disagreements cluster near SSF_th, where");
    println!("both algorithms perform comparably anyway (Fig. 4's gray zone).");
}
