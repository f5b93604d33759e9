//! The memory pools are a pure performance device: a pooled farm run must
//! be **bitwise identical** to an unpooled one — same tiles, same stats,
//! same partition attribution, same fault records — for any matrix, any
//! tile geometry, and any thread count, and the ledger artifact built on
//! top must stay byte-identical JSON. A pooled buffer that leaked stale
//! contents or perturbed tile boundaries would fail these within a few
//! proptest cases.

use proptest::prelude::*;
use spmm_nmt::bench::Ledger;
use spmm_nmt::engine::{convert_matrix_farm, FarmConfig};
use spmm_nmt::fault::FaultPlan;
use spmm_nmt::formats::{Coo, Csr, SparseMatrix};
use spmm_nmt::matgen::{generators, random_dense, GenKind, MatrixDesc, SuiteScale, SuiteSpec};
use spmm_nmt::obs::ObsContext;
use spmm_nmt::planner::planner::{PlannerConfig, SpmmPlanner};

/// Includes zero-dimension matrices (one phantom strip and tile) and
/// matrices whose columns from a random cut onward are empty, so whole
/// strips convert to empty tiles; most tile sizes leave a ragged last
/// strip and tile.
fn csr_strategy() -> impl Strategy<Value = Csr> {
    (0usize..=48, 0usize..=48).prop_flat_map(|(nrows, ncols)| {
        let entry = (0u32..1000, 0u32..1000, 1i32..100);
        (proptest::collection::vec(entry, 0..150), 0usize..=ncols).prop_map(
            move |(entries, filled_cols)| {
                let mut coo = Coo::new(nrows, ncols).expect("small dims");
                if nrows > 0 && filled_cols > 0 {
                    for (r, c, v) in entries {
                        coo.push(r % nrows as u32, c % filled_cols as u32, v as f32)
                            .expect("in bounds");
                    }
                }
                coo.canonicalize();
                Csr::from_coo(&coo)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pooled_farm_equals_unpooled(
        csr in csr_strategy(),
        tile_w in 1usize..=32,
        tile_h in 1usize..=16,
        partitions in 1usize..=4,
    ) {
        let csc = csr.to_csc();
        let cfg = FarmConfig::for_partitions(partitions);
        let pooled = convert_matrix_farm(&csc, tile_w, tile_h, cfg).expect("farm runs");
        // Run pooled twice so the second pass consumes recycled buffers —
        // the case where stale contents would actually surface.
        spmm_nmt::engine::mem::recycle_strips(pooled.strips);
        let pooled = convert_matrix_farm(&csc, tile_w, tile_h, cfg).expect("farm runs");
        let unpooled =
            convert_matrix_farm(&csc, tile_w, tile_h, cfg.without_pool()).expect("farm runs");
        prop_assert_eq!(&pooled.strips, &unpooled.strips);
        prop_assert_eq!(&pooled.stats, &unpooled.stats);
        prop_assert_eq!(&pooled.per_strip, &unpooled.per_strip);
        prop_assert_eq!(&pooled.per_partition, &unpooled.per_partition);
        prop_assert_eq!(pooled.switches, unpooled.switches);
        prop_assert_eq!(pooled.switch_bytes, unpooled.switch_bytes);
        prop_assert_eq!(&pooled.faults, &unpooled.faults);
    }

    #[test]
    fn pooled_farm_equals_unpooled_under_faults(
        csr in csr_strategy(),
        fault_seed in 0u64..1000,
    ) {
        let csc = csr.to_csc();
        // High rate so retries and partition dropouts actually fire.
        let plan = Some(FaultPlan::new(fault_seed, 300_000));
        let cfg = FarmConfig::for_partitions(4).with_fault(plan);
        let pooled = convert_matrix_farm(&csc, 8, 8, cfg);
        let unpooled = convert_matrix_farm(&csc, 8, 8, cfg.without_pool());
        match (pooled, unpooled) {
            (Ok(p), Ok(u)) => {
                prop_assert_eq!(&p.strips, &u.strips);
                prop_assert_eq!(&p.faults, &u.faults, "fault records diverged");
                prop_assert_eq!(&p.per_partition, &u.per_partition);
            }
            // Unrecoverable escalation must escalate identically.
            (Err(p), Err(u)) => prop_assert_eq!(p.to_string(), u.to_string()),
            other => prop_assert!(false, "pooled/unpooled disagreed on success: {:?}", other),
        }
    }
}

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

fn quick_ledger() -> Ledger {
    let config = PlannerConfig::test_small();
    let audits: Vec<_> = SuiteSpec::quick(29)
        .build()
        .iter()
        .map(|(desc, a)| {
            let b = random_dense(a.shape().ncols, 8, desc.seed ^ 0x16);
            SpmmPlanner::new(config.clone())
                .explain(&desc.name, a, &b, &ObsContext::disabled())
                .expect("audit runs")
        })
        .collect();
    Ledger::from_sweep(SuiteScale::Small, 29, 8, config.tile_w, &audits, Vec::new())
}

// One test function on purpose: `build_global` and the engine pools are
// process-wide state, and the harness runs sibling tests concurrently.
#[test]
fn pooled_runs_are_thread_count_invariant() {
    let desc = MatrixDesc::new(
        "pooled-rmat",
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
    let cfg = FarmConfig::for_partitions(4);
    assert!(cfg.pool, "paper defaults must keep pooling on");

    // Pooled farm output: identical at 1 and 4 threads, with the pools
    // warm from prior runs on both legs.
    let serial = with_threads(1, || {
        let warm = convert_matrix_farm(&csc, 16, 16, cfg).expect("farm runs");
        spmm_nmt::engine::mem::recycle_strips(warm.strips);
        convert_matrix_farm(&csc, 16, 16, cfg).expect("farm runs")
    });
    let parallel = with_threads(4, || {
        let warm = convert_matrix_farm(&csc, 16, 16, cfg).expect("farm runs");
        spmm_nmt::engine::mem::recycle_strips(warm.strips);
        convert_matrix_farm(&csc, 16, 16, cfg).expect("farm runs")
    });
    assert_eq!(serial.strips, parallel.strips);
    assert_eq!(serial.stats, parallel.stats);
    assert_eq!(serial.per_partition, parallel.per_partition);

    // The ledger artifact stays byte-identical with pools enabled.
    let ledger_serial = with_threads(1, quick_ledger);
    let ledger_parallel = with_threads(4, quick_ledger);
    assert_eq!(ledger_serial.to_json(), ledger_parallel.to_json());
}
