//! Deterministic fault injection end-to-end: a faulted sweep completes
//! with zero panics, every engine-side fault that survives its retry is
//! audited as a B→C degraded-mode fallback, faults fire at identical
//! `(site, key)` points across runs and thread counts, and the faulted
//! ledger artifact is byte-identical under 1-thread and 4-thread pools —
//! the in-process counterpart of the CI `fault` job's
//! `RAYON_NUM_THREADS=1` vs `=4` legs.

use spmm_nmt::bench::Ledger;
use spmm_nmt::engine::{convert_matrix_farm, FarmConfig};
use spmm_nmt::fault::{FaultPlan, FaultSite};
use spmm_nmt::formats::SparseMatrix;
use spmm_nmt::matgen::{generators, random_dense, GenKind, MatrixDesc, SuiteScale, SuiteSpec};
use spmm_nmt::model::ssf::Choice;
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

/// The fault plan under test: `NMT_FAULT_SEED` / `NMT_FAULT_RATE` when set
/// (the CI fault job pins them), else a fixed high-rate default so every
/// site actually fires inside the quick suite.
fn plan() -> FaultPlan {
    FaultPlan::from_env().unwrap_or_else(|| FaultPlan::new(0xFA117, 300_000))
}

/// Audit the quick suite with `fault` installed in every planner.
fn faulted_audits(fault: Option<FaultPlan>) -> Vec<DecisionAudit> {
    let config = PlannerConfig::test_small().with_fault(fault);
    SuiteSpec::quick(31)
        .build()
        .iter()
        .map(|(desc, a)| {
            let b = random_dense(a.shape().ncols, 8, desc.seed ^ 0x16);
            SpmmPlanner::new(config.clone())
                .explain(&desc.name, a, &b, &ObsContext::disabled())
                .expect("faulted audit completes without surfacing an error")
        })
        .collect()
}

/// The quick-suite faulted ledger (mirrors the bench sweep at test scale).
fn faulted_ledger(fault: FaultPlan) -> Ledger {
    let audits = faulted_audits(Some(fault));
    let tile = PlannerConfig::test_small().tile_w;
    let mut ledger = Ledger::from_sweep(SuiteScale::Small, 31, 8, tile, &audits, Vec::new());
    ledger.fault_seed = Some(fault.seed);
    ledger.fault_rate_ppm = Some(fault.rate_ppm);
    ledger
}

// One test function on purpose: `build_global` is process-wide state, and
// the test harness runs sibling tests concurrently.
#[test]
fn faulted_sweep_is_deterministic_audited_and_thread_invariant() {
    let plan = plan();

    // 1. Engine farm under faults: identical tiles, stats, and fault
    // events at 1 vs 4 threads — fault keys are (seed, site, strip), so
    // scheduling cannot move them.
    let desc = MatrixDesc::new(
        "fault-rmat",
        160,
        GenKind::Rmat {
            a: 0.55,
            b: 0.15,
            c: 0.15,
            edge_factor: 6,
        },
        43,
    );
    let csc = generators::generate(&desc).to_csc();
    let farm_cfg = FarmConfig::for_partitions(4).with_fault(Some(plan));
    let run_farm = |threads| {
        with_threads(threads, || {
            convert_matrix_farm(&csc, 16, 16, farm_cfg)
        })
    };
    match (run_farm(1), run_farm(4)) {
        (Ok(serial), Ok(parallel)) => {
            assert_eq!(serial.strips, parallel.strips);
            assert_eq!(serial.stats, parallel.stats);
            assert_eq!(serial.faults, parallel.faults);
            assert_eq!(serial.per_partition, parallel.per_partition);
        }
        (Err(serial), Err(parallel)) => {
            // Escalations are errors, but the *same* typed error: the
            // reduction surfaces the lowest-strip fault regardless of
            // which worker hit it first.
            assert_eq!(serial.to_string(), parallel.to_string());
        }
        (serial, parallel) => panic!(
            "thread count changed the outcome: 1-thread {serial:?} vs 4-thread {parallel:?}"
        ),
    }

    // 2. The faulted sweep completes with zero panics, and every audit
    // that records a fault has coherent degraded-mode bookkeeping.
    let audits = with_threads(4, || faulted_audits(Some(plan)));
    let mut escalations = 0usize;
    for audit in &audits {
        if let Some(fault) = &audit.fault {
            escalations += 1;
            // Only the engine path escalates to the planner.
            assert_eq!(fault.site, FaultSite::ConvertStrip);
            assert!(fault.retried, "ConvertStrip faults are retried first");
            // `fell_back` records whether the heuristic would have routed
            // this matrix through the faulted engine path.
            assert_eq!(
                fault.fell_back,
                audit.chosen == Choice::BStationary,
                "fallback flag must mirror the routing decision for {}",
                audit.matrix
            );
            assert_eq!(
                audit.bstationary.dataflow, "b-stationary-fallback",
                "audited dataflow must be labeled as degraded for {}",
                audit.matrix
            );
        }
    }
    assert!(
        escalations > 0,
        "the default high-rate plan must escalate at least once in the quick suite"
    );

    // 3. Same seed, same faults: a second sweep reproduces every fault
    // record (site, key, flags) and every decision exactly.
    let audits_again = with_threads(4, || faulted_audits(Some(plan)));
    assert_eq!(audits.len(), audits_again.len());
    for (a, b) in audits.iter().zip(&audits_again) {
        assert_eq!(a.fault, b.fault, "fault records diverged for {}", a.matrix);
        assert_eq!(a.to_json(), b.to_json(), "audit diverged for {}", a.matrix);
    }

    // 4. The faulted ledger artifact is byte-identical across thread
    // counts and carries the fault identity.
    let ledger_serial = with_threads(1, || faulted_ledger(plan));
    let ledger_parallel = with_threads(4, || faulted_ledger(plan));
    assert_eq!(ledger_serial.to_json(), ledger_parallel.to_json());
    assert_eq!(ledger_serial.fault_seed, Some(plan.seed));
    assert_eq!(ledger_serial.fault_rate_ppm, Some(plan.rate_ppm));

    // 5. A zero-rate plan is indistinguishable from no plan at all (other
    // than the stamped identity): injection is inert, not merely rare.
    let zero = FaultPlan::new(plan.seed, 0);
    let clean = with_threads(4, || faulted_audits(None));
    let zeroed = with_threads(4, || faulted_audits(Some(zero)));
    for (c, z) in clean.iter().zip(&zeroed) {
        assert_eq!(c.to_json(), z.to_json(), "zero-rate diverged for {}", c.matrix);
    }
}
