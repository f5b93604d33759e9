//! Serial-vs-parallel determinism: everything the engine farm and the
//! sweep produce must be identical under a 1-thread and a multi-thread
//! pool — same kernel outputs, same `DecisionAudit`s, byte-identical
//! ledger JSON. This is the in-process counterpart of the CI leg that
//! runs the whole suite under `RAYON_NUM_THREADS=1` and `=4` and diffs
//! the `BENCH_small.json` artifacts.

use spmm_nmt::bench::Ledger;
use spmm_nmt::engine::{convert_matrix_farm, FarmConfig};
use spmm_nmt::formats::SparseMatrix;
use spmm_nmt::matgen::{generators, random_dense, GenKind, MatrixDesc, SuiteScale, SuiteSpec};
use spmm_nmt::obs::ObsContext;
use spmm_nmt::planner::planner::{PlannerConfig, SpmmPlanner};
use spmm_nmt::planner::DecisionAudit;

/// Re-point the global pool (the shim allows overriding, unlike real
/// rayon) and run `f` under exactly `n` workers.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim pool re-points");
    let out = f();
    assert_eq!(rayon::current_num_threads(), n);
    out
}

fn audit_suite() -> Vec<DecisionAudit> {
    let config = PlannerConfig::test_small();
    SuiteSpec::quick(29)
        .build()
        .iter()
        .map(|(desc, a)| {
            let b = random_dense(a.shape().ncols, 8, desc.seed ^ 0x16);
            SpmmPlanner::new(config.clone())
                .explain(&desc.name, a, &b, &ObsContext::disabled())
                .expect("audit runs")
        })
        .collect()
}

fn quick_ledger() -> Ledger {
    let audits = audit_suite();
    Ledger::from_sweep(
        SuiteScale::Small,
        29,
        8,
        PlannerConfig::test_small().tile_w,
        &audits,
        Vec::new(),
    )
}

// One test function on purpose: `build_global` is process-wide state, and
// the test harness runs sibling tests concurrently.
#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    // 1. Engine farm: tiles, stats, and partition attribution.
    let desc = MatrixDesc::new(
        "det-rmat",
        160,
        GenKind::Rmat {
            a: 0.55,
            b: 0.15,
            c: 0.15,
            edge_factor: 6,
        },
        41,
    );
    let csc = generators::generate(&desc).to_csc();
    let farm_serial = with_threads(1, || {
        convert_matrix_farm(&csc, 16, 16, FarmConfig::for_partitions(4)).expect("farm runs")
    });
    let farm_parallel = with_threads(4, || {
        convert_matrix_farm(&csc, 16, 16, FarmConfig::for_partitions(4)).expect("farm runs")
    });
    assert_eq!(farm_serial.strips, farm_parallel.strips);
    assert_eq!(farm_serial.stats, farm_parallel.stats);
    assert_eq!(farm_serial.per_partition, farm_parallel.per_partition);
    assert_eq!(farm_serial.switches, farm_parallel.switches);

    // 2. Planner decisions: identical audits, including simulated kernel
    // times and measured traffic, via their canonical JSON.
    let audits_serial = with_threads(1, audit_suite);
    let audits_parallel = with_threads(4, audit_suite);
    assert_eq!(audits_serial.len(), audits_parallel.len());
    for (s, p) in audits_serial.iter().zip(&audits_parallel) {
        assert_eq!(s.to_json(), p.to_json(), "audit for {} diverged", s.matrix);
    }

    // 3. The ledger artifact: byte-identical JSON at any thread count.
    let ledger_serial = with_threads(1, quick_ledger);
    let ledger_parallel = with_threads(4, quick_ledger);
    assert_eq!(ledger_serial.to_json(), ledger_parallel.to_json());
}
