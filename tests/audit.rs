//! Deterministic fixture tests for the planner decision audit and the run
//! ledger: oracles known by construction, forced mispicks with measurable
//! cost, and stability of `explain()` and the ledger across runs.

use spmm_nmt::bench::{
    experiment_gpu, experiment_k, experiment_tile, sweep_ledger, Ledger, EXPERIMENT_SEED,
    LEDGER_SCHEMA_VERSION,
};
use spmm_nmt::formats::{Csr, Dcsr, SparseMatrix};
use spmm_nmt::kernels::{bstat_tiled_dcsr_online, csrmm_cusparse, dcsrmm_row_per_warp};
use spmm_nmt::matgen::generators::{generate, GenKind, MatrixDesc};
use spmm_nmt::matgen::{random_dense, SuiteScale, SuiteSpec};
use spmm_nmt::model::ssf::{Choice, SsfThreshold};
use spmm_nmt::obs::ObsContext;
use spmm_nmt::planner::planner::{PlannerConfig, SpmmPlanner};
use spmm_nmt::planner::DecisionAudit;
use spmm_nmt::sim::Gpu;

fn fixture(kind: GenKind, n: usize, seed: u64) -> Csr {
    generate(&MatrixDesc::new("fixture", n, kind, seed))
}

/// The clustered regime §3.1 argues for: long horizontal non-zero runs at
/// scattered positions — B-stationary's home turf. Sized so B and C
/// overflow the scaled L2 of [`experiment_gpu`]; on a cache that holds B
/// entirely, C-stationary wins everywhere and there is no decision left
/// to audit.
fn clustered() -> Csr {
    fixture(
        GenKind::RowBursts {
            density: 0.03,
            burst_len: 32,
        },
        1024,
        3,
    )
}

/// Independent uniform placement — C-stationary's home turf.
fn uniform() -> Csr {
    fixture(GenKind::Uniform { density: 0.003 }, 1024, 3)
}

/// The small-scale experiment configuration (scaled GV100) with the
/// production threshold — the same machine `nmt-cli bench` sweeps.
fn experiment_config() -> PlannerConfig {
    let scale = SuiteScale::Small;
    let mut config = PlannerConfig::paper_default();
    config.gpu = experiment_gpu(scale);
    config.tile_w = experiment_tile(scale);
    config.tile_h = experiment_tile(scale);
    config
}

fn explain(a: &Csr, config: PlannerConfig) -> DecisionAudit {
    let b = random_dense(a.shape().ncols, experiment_k(SuiteScale::Small), 0xB);
    SpmmPlanner::new(config)
        .explain("fixture", a, &b, &ObsContext::disabled())
        .expect("explain runs")
}

/// Force the heuristic's hand: `ssf > threshold` picks B-stationary, so
/// −∞ always picks B and +∞ always picks C, independent of the matrix.
fn forced(choice: Choice) -> PlannerConfig {
    let mut config = experiment_config();
    config.threshold = SsfThreshold {
        threshold: match choice {
            Choice::BStationary => f64::NEG_INFINITY,
            Choice::CStationary => f64::INFINITY,
        },
        accuracy: 1.0,
    };
    config
}

#[test]
fn oracle_matches_structure_by_construction() {
    // The oracle is defined by measured times alone, so it is the same no
    // matter which choice we force — probe it with both.
    for config in [forced(Choice::BStationary), forced(Choice::CStationary)] {
        let audit = explain(&clustered(), config.clone());
        assert_eq!(
            audit.oracle,
            Choice::BStationary,
            "clustered row-bursts fixture must favour B-stationary \
             (bstat {:.0} ns vs cstat {:.0} ns)",
            audit.bstationary.time_ns,
            audit.cstationary.time_ns
        );
        let audit = explain(&uniform(), config);
        assert_eq!(
            audit.oracle,
            Choice::CStationary,
            "uniform fixture must favour C-stationary \
             (cstat {:.0} ns vs bstat {:.0} ns)",
            audit.cstationary.time_ns,
            audit.bstationary.time_ns
        );
    }
}

#[test]
fn forced_wrong_choice_is_flagged_as_mispick_with_cost() {
    // Forcing C-stationary on the clustered fixture is a known mispick.
    let audit = explain(&clustered(), forced(Choice::CStationary));
    assert_eq!(audit.chosen, Choice::CStationary);
    assert_eq!(audit.oracle, Choice::BStationary);
    assert!(audit.mispick);
    assert!(
        audit.mispick_cost > 1.0,
        "a mispick must cost something: {}",
        audit.mispick_cost
    );
    assert!(
        (audit.mispick_cost - audit.cstationary.time_ns / audit.bstationary.time_ns).abs() < 1e-9,
        "cost is the chosen/oracle time ratio"
    );

    // Forcing the right choice is not a mispick and costs nothing.
    let audit = explain(&clustered(), forced(Choice::BStationary));
    assert!(!audit.mispick);
    assert_eq!(audit.mispick_cost, 1.0);
}

#[test]
fn mispicks_are_counted_in_metrics() {
    let obs = ObsContext::enabled();
    let b = random_dense(1024, experiment_k(SuiteScale::Small), 0xB);
    // One forced mispick + one forced correct pick on the same matrix.
    for choice in [Choice::CStationary, Choice::BStationary] {
        SpmmPlanner::new(forced(choice))
            .explain("fixture", &clustered(), &b, &obs)
            .expect("explain runs");
    }
    let snap = obs.metrics.snapshot();
    assert_eq!(snap.counters["audit.decisions"], 2);
    assert_eq!(snap.counters["audit.mispicks"], 1);
    // The last call (correct pick) leaves the point-in-time gauge at 0.
    assert_eq!(snap.gauges["audit.mispick"], 0.0);
}

#[test]
fn explain_is_stable_across_runs() {
    let a = clustered();
    let config = PlannerConfig::test_small();
    let one = explain(&a, config.clone());
    let two = explain(&a, config);
    assert_eq!(one, two, "explain() must be deterministic");
    assert_eq!(one.to_json(), two.to_json(), "down to the serialized bytes");
}

#[test]
fn ledger_from_fixture_audits_is_byte_stable_and_gates_itself() {
    let build = || {
        let audits: Vec<DecisionAudit> = [clustered(), uniform()]
            .iter()
            .map(|a| explain(a, PlannerConfig::test_small()))
            .collect();
        Ledger::from_sweep(SuiteScale::Small, 3, 8, 16, &audits, Vec::new())
    };
    let one = build();
    let two = build();
    assert_eq!(one.to_json(), two.to_json(), "ledger must be byte-stable");
    assert_eq!(one.schema_version, LEDGER_SCHEMA_VERSION);
    assert_eq!(one.summary.matrices, 2);
    one.gate(&two).expect("identical ledgers pass the gate");

    let parsed = Ledger::from_json(&one.to_json()).expect("round-trips");
    assert_eq!(parsed, one);
}

/// Figures 2 and 16 render ledger rows instead of re-running kernels. That
/// holds only if a row's baseline stall breakdown and candidate times are
/// exactly what a direct run of the same kernel on a fresh experiment GPU
/// gives — with any B, since the timing model never reads B's values.
#[test]
fn ledger_rows_equal_direct_kernel_runs() {
    let scale = SuiteScale::Small;
    let ledger = sweep_ledger(scale).expect("small sweep runs");
    assert!(ledger.errors.is_empty(), "clean sweep");
    let suite = SuiteSpec::new(scale, EXPERIMENT_SEED).build();
    assert_eq!(suite.len(), ledger.rows.len());
    let (k, tile) = (experiment_k(scale), experiment_tile(scale));
    let gpu = || Gpu::new(experiment_gpu(scale)).expect("preset");
    for ((desc, a), row) in suite.iter().zip(&ledger.rows).step_by(11) {
        assert_eq!(desc.name, row.matrix);
        // The sweep's B is seeded `desc.seed ^ 0x16`; use another one.
        let b = random_dense(a.shape().ncols, k, desc.seed ^ 0xB);
        let base = csrmm_cusparse(&mut gpu(), a, &b).expect("baseline");
        let stall = base.stats.stall_breakdown();
        for (what, direct, ledger) in [
            ("baseline_ns", base.stats.total_ns, row.baseline_ns),
            ("stall.memory", stall.memory, row.baseline_stall.memory),
            ("stall.sm", stall.sm, row.baseline_stall.sm),
            ("stall.other", stall.other, row.baseline_stall.other),
        ] {
            assert_eq!(direct.to_bits(), ledger.to_bits(), "{}: {what}", row.matrix);
        }
        let cstat = dcsrmm_row_per_warp(&mut gpu(), &Dcsr::from_csr(a), &b).expect("dcsr");
        assert_eq!(
            cstat.stats.total_ns.to_bits(),
            row.cstat_ns.to_bits(),
            "{}: cstat_ns",
            row.matrix
        );
        let online =
            bstat_tiled_dcsr_online(&mut gpu(), &a.to_csc(), &b, tile, tile).expect("online");
        assert_eq!(
            online.run.stats.total_ns.to_bits(),
            row.bstat_ns.to_bits(),
            "{}: bstat_ns",
            row.matrix
        );
    }
}
