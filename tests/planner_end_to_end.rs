//! End-to-end planner tests: profile → choose → execute across every
//! structural family, plus the multi-GPU streaming model.

use spmm_nmt::formats::SparseMatrix;
use spmm_nmt::kernels::host;
use spmm_nmt::matgen::{generators, random_dense, GenKind, MatrixDesc};
use spmm_nmt::model::ssf::Choice;
use spmm_nmt::planner::multi_gpu::{plan_streamed_spmm, LargeSpmmProblem, MultiGpuConfig};
use spmm_nmt::planner::planner::{PlannerConfig, SpmmPlanner};
use spmm_nmt::sim::SimError;

fn planner() -> SpmmPlanner {
    SpmmPlanner::new(PlannerConfig::test_small())
}

fn families(n: usize) -> Vec<MatrixDesc> {
    vec![
        MatrixDesc::new("uniform", n, GenKind::Uniform { density: 0.01 }, 1),
        MatrixDesc::new(
            "zipf",
            n,
            GenKind::ZipfRows {
                density: 0.01,
                exponent: 1.2,
            },
            2,
        ),
        MatrixDesc::new(
            "banded",
            n,
            GenKind::Banded {
                bandwidth: 6,
                fill: 0.5,
            },
            3,
        ),
        MatrixDesc::new(
            "blockdiag",
            n,
            GenKind::BlockDiag {
                block: 24,
                fill: 0.3,
                background: 1e-4,
            },
            4,
        ),
        MatrixDesc::new(
            "rowburst",
            n,
            GenKind::RowBursts {
                density: 0.01,
                burst_len: 12,
            },
            5,
        ),
        MatrixDesc::new(
            "rmat",
            n,
            GenKind::Rmat {
                a: 0.57,
                b: 0.19,
                c: 0.19,
                edge_factor: 4,
            },
            6,
        ),
    ]
}

#[test]
fn planner_is_correct_on_every_family() {
    let p = planner();
    for desc in families(192) {
        let a = generators::generate(&desc);
        let b = random_dense(a.shape().ncols, 16, desc.seed ^ 99);
        let report = p.execute(&a, &b).unwrap_or_else(|e| {
            panic!("planner failed on {}: {e}", desc.name);
        });
        // The chosen kernel's functional output already passed the
        // debug_assert against the baseline inside execute(); check the
        // report invariants here.
        assert!(report.speedup > 0.0, "{}: non-positive speedup", desc.name);
        assert!(
            report.stats.total_ns > 0.0 && report.baseline_stats.total_ns > 0.0,
            "{}: degenerate timing",
            desc.name
        );
        match report.choice {
            Choice::BStationary => {
                let engine = report
                    .engine
                    .as_ref()
                    .expect("online path reports engine stats");
                assert_eq!(engine.elements as usize, a.nnz(), "{}", desc.name);
                assert!(report.engine_energy_pj > 0.0 || a.nnz() == 0);
            }
            Choice::CStationary => assert!(report.engine.is_none()),
        }
    }
}

#[test]
fn heuristic_separates_clustered_from_scattered() {
    let p = planner();
    let scattered = generators::generate(&MatrixDesc::new(
        "u",
        256,
        GenKind::Uniform { density: 0.01 },
        7,
    ));
    let clustered = generators::generate(&MatrixDesc::new(
        "rb",
        256,
        GenKind::RowBursts {
            density: 0.02,
            burst_len: 16,
        },
        8,
    ));
    let (ps, _) = p.plan(&scattered);
    let (pc, _) = p.plan(&clustered);
    assert!(
        pc.ssf > ps.ssf,
        "clustered SSF {} must exceed scattered SSF {}",
        pc.ssf,
        ps.ssf
    );
    // And entropy orders the other way.
    assert!(pc.h_norm < ps.h_norm);
}

#[test]
fn multi_gpu_plan_scales_and_respects_memory() {
    let p = LargeSpmmProblem {
        n: 1_000_000,
        k: 500_000,
        nnz: 20_000_000,
    };
    let one = plan_streamed_spmm(&p, &MultiGpuConfig::gv100_cluster(1)).expect("planable");
    let four = plan_streamed_spmm(&p, &MultiGpuConfig::gv100_cluster(4)).expect("planable");
    assert!(four.overlapped_s < one.overlapped_s);
    assert_eq!(four.cols_per_gpu, 125_000);
    // The dense matrices genuinely do not fit in one GPU.
    assert!(p.dense_bytes() > MultiGpuConfig::gv100_cluster(1).device_mem_bytes);
}

#[test]
fn planner_handles_empty_matrix() {
    let a = spmm_nmt::formats::Csr::new(64, 64, vec![0; 65], vec![], vec![]).expect("empty");
    let b = random_dense(64, 8, 1);
    let report = planner().execute(&a, &b).expect("empty matrix plans");
    assert_eq!(report.stats.flops, 0, "no non-zeros means no FP work");
    let reference = host::spmm_csr(&a, &b);
    assert!(reference.as_slice().iter().all(|&v| v == 0.0));
}

#[test]
fn planner_handles_zero_dimension_matrix() {
    // ncols == 0 exercises the phantom-strip convention end to end:
    // `strip_count` reports one empty strip, the engine converts it to
    // nothing, and the planner still produces a coherent report.
    let a = spmm_nmt::formats::Csr::new(0, 0, vec![0], vec![], vec![]).expect("zero-dim");
    let b = spmm_nmt::formats::DenseMatrix::zeros(0, 8);
    let report = planner().execute(&a, &b).expect("zero-dim matrix plans");
    assert_eq!(report.stats.flops, 0, "no dimensions means no FP work");

    // The engine side of the same convention: one phantom strip holding
    // one phantom (empty) tile, mirroring `strip_count`/`tile_count`.
    let csc = a.to_csc();
    let (tiled, stats) = spmm_nmt::engine::convert_matrix(&csc, 16, 16).expect("16x16 tiles");
    assert_eq!(
        tiled.num_strips(),
        1,
        "zero-width matrix still owns one strip"
    );
    assert_eq!(
        tiled.tiles_per_strip(),
        1,
        "zero-height strip still owns one tile"
    );
    assert_eq!(tiled.strips()[0].tile(0).nnz(), 0);
    assert_eq!(stats.elements, 0);
}

#[test]
fn planner_rejects_unconvertible_tile_geometry() {
    // The engine is 1..=64 lanes wide and tiles are at least one row
    // tall: anything else is a typed configuration error, not a panic in
    // a farm worker.
    let a = generators::generate(&MatrixDesc::new(
        "m",
        96,
        GenKind::Uniform { density: 0.05 },
        5,
    ));
    let b = random_dense(96, 8, 6);
    for (tile_w, tile_h) in [(65, 16), (16, 0)] {
        let p = SpmmPlanner::new(PlannerConfig {
            tile_w,
            tile_h,
            ..PlannerConfig::test_small()
        });
        let explained = p.explain("m", &a, &b, &spmm_nmt::obs::ObsContext::disabled());
        assert!(
            matches!(explained, Err(SimError::BadConfig(_))),
            "tile {tile_w}x{tile_h}: {:?}",
            explained.map(|r| r.chosen)
        );
    }
}

#[test]
fn planner_rejects_mismatched_inner_dimensions() {
    // A is 64×64 but B has 48 rows: both entry points must return the
    // typed shape error from the baseline's pre-check, not panic.
    let a = generators::generate(&MatrixDesc::new(
        "m",
        64,
        GenKind::Uniform { density: 0.05 },
        3,
    ));
    let b = random_dense(48, 8, 4);
    let p = planner();
    let executed = p.execute(&a, &b);
    assert!(
        matches!(executed, Err(SimError::ShapeMismatch { .. })),
        "execute: {:?}",
        executed.map(|r| r.algorithm)
    );
    let explained = p.explain("m", &a, &b, &spmm_nmt::obs::ObsContext::disabled());
    assert!(
        matches!(explained, Err(SimError::ShapeMismatch { .. })),
        "explain: {:?}",
        explained.map(|r| r.chosen)
    );
}
