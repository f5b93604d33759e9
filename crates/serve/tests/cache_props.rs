//! Property tests for the serve-layer plan cache and its key.
//!
//! Four families, over arbitrary valid CSR matrices:
//!
//! 1. **Stability** — fingerprinting is a pure function of matrix
//!    content and tile width: the same matrix always yields the same
//!    cache key, and a deep copy yields the key of the original.
//! 2. **Sensitivity** — every [`Corruption`] the formats crate can
//!    express moves the raw-content digest, so no corrupted variant can
//!    ever alias a healthy matrix's cached plan.
//! 3. **Hit equivalence** — a plan served from the cache executes the
//!    kernel bitwise-identically to the cold plan it was computed from:
//!    same choice, same artifact kind, same simulated time, same output
//!    matrix down to the f32 bit patterns.
//! 4. **The simulation memo's premise** — both serve kernels' `KernelStats`
//!    depend only on structure (not on any value of A or B), and a
//!    [`Gpu::replay`] launch reproduces the full run's C bit for bit and
//!    returns the stats it was given, once.

use std::sync::Arc;

use nmt::{MatrixFingerprint, PlannerConfig, SpmmPlanner};
use nmt_engine::artifact::ConversionArtifact;
use nmt_formats::arbitrary::{corrupt_csr_parts, csr_strategy, Corruption};
use nmt_formats::{Csr, DenseMatrix, SparseMatrix};
use nmt_kernels::{run_artifact, KernelRun};
use nmt_matgen::random_dense;
use nmt_model::ssf::Choice;
use nmt_serve::{CachedPlan, PlanCache};
use nmt_sim::{Gpu, GpuConfig, SimError};
use proptest::prelude::*;

const TILE_W: usize = 8;

/// Plan + convert `a` exactly as the broker's compute closure does.
fn cold_plan(planner: &SpmmPlanner, a: &Csr) -> CachedPlan {
    let cfg = planner.config();
    let (_profile, choice) = planner.plan(a);
    let artifact = match choice {
        Choice::BStationary => {
            ConversionArtifact::tiled(a, cfg.tile_w, cfg.tile_h).expect("valid tiling")
        }
        Choice::CStationary => ConversionArtifact::row_major(a),
    };
    CachedPlan::new(choice, artifact)
}

/// Run `plan` against a fixed dense B as the broker does; also returns
/// whether the run replayed the plan's memoized stats.
fn execute(cfg: &PlannerConfig, plan: &CachedPlan, a: &Csr, b_seed: u64) -> (KernelRun, bool) {
    let b = random_dense(a.shape().ncols, 4, b_seed);
    plan.run(&cfg.gpu, &b).expect("kernel run")
}

/// Both serve kernels' operands for `a`: untiled and offline-tiled DCSR.
fn serve_artifacts(a: &Csr) -> [ConversionArtifact; 2] {
    [
        ConversionArtifact::row_major(a),
        ConversionArtifact::tiled(a, TILE_W, TILE_W).expect("valid tiling"),
    ]
}

/// A full simulated run on a fresh GPU.
fn simulate(artifact: &ConversionArtifact, b: &DenseMatrix) -> KernelRun {
    let mut gpu = Gpu::new(GpuConfig::test_small()).expect("gpu config");
    run_artifact(&mut gpu, artifact, b).expect("kernel run")
}

/// `a`'s structure carrying `values` instead of its own.
fn revalue(a: &Csr, values: Vec<f32>) -> Csr {
    let shape = a.shape();
    Csr::new(
        shape.nrows,
        shape.ncols,
        a.rowptr().to_vec(),
        a.colidx().to_vec(),
        values,
    )
    .expect("same structure is valid")
}

fn f32_bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same matrix, same tile width → same fingerprint and same key;
    /// a reconstructed copy of the matrix keys identically.
    #[test]
    fn fingerprint_is_stable(a in csr_strategy()) {
        let fp1 = MatrixFingerprint::of(&a, TILE_W);
        let fp2 = MatrixFingerprint::of(&a, TILE_W);
        prop_assert_eq!(fp1, fp2);
        prop_assert_eq!(fp1.key(), fp2.key());

        let shape = a.shape();
        let copy = Csr::new(
            shape.nrows,
            shape.ncols,
            a.rowptr().to_vec(),
            a.colidx().to_vec(),
            a.values().to_vec(),
        )
        .expect("copy of a valid matrix is valid");
        prop_assert_eq!(MatrixFingerprint::of(&copy, TILE_W).key(), fp1.key());
    }

    /// Every expressible corruption moves the raw-content digest, so a
    /// corrupted matrix can never alias a healthy matrix's cache entry.
    #[test]
    fn fingerprint_separates_every_corruption(a in csr_strategy()) {
        let shape = a.shape();
        let clean = MatrixFingerprint::of_parts(
            shape.nrows,
            shape.ncols,
            TILE_W,
            a.rowptr(),
            a.colidx(),
            a.values(),
        );
        for kind in Corruption::ALL {
            // None = matrix too small to express this corruption.
            if let Some((rowptr, colidx, values)) = corrupt_csr_parts(&a, kind) {
                let bent = MatrixFingerprint::of_parts(
                    shape.nrows,
                    shape.ncols,
                    TILE_W,
                    &rowptr,
                    &colidx,
                    &values,
                );
                prop_assert!(
                    bent.digest != clean.digest,
                    "corruption {:?} left the digest unchanged",
                    kind
                );
            }
        }
    }

    /// A cache hit executes bitwise-identically to the cold plan: the
    /// hit returns the very same artifact, and replaying the kernel on
    /// it reproduces the cold run's output and simulated time exactly.
    #[test]
    fn cache_hit_executes_bitwise_identically(a in csr_strategy(), b_seed in 0u64..1024) {
        let mut config = PlannerConfig::test_small();
        config.tile_w = TILE_W;
        config.tile_h = TILE_W;
        let planner = SpmmPlanner::new(config);
        let key = MatrixFingerprint::of(&a, TILE_W).key();

        let cache: PlanCache<CachedPlan> = PlanCache::new(64 << 20);
        let cold = cache
            .get_or_compute(&key, || -> Result<(CachedPlan, u64), String> {
                let plan = cold_plan(&planner, &a);
                let bytes = plan.artifact.storage_bytes() as u64;
                Ok((plan, bytes))
            })
            .expect("cold compute");
        let hit = cache
            .get_or_compute(&key, || -> Result<(CachedPlan, u64), String> {
                panic!("second lookup of the same key must not recompute")
            })
            .expect("warm lookup");
        prop_assert!(Arc::ptr_eq(&cold.value, &hit.value), "hit returns the cached artifact");

        // The first run simulates and fills the memo; the hit replays it.
        let cfg = planner.config();
        let (first, replayed) = execute(cfg, &cold.value, &a, b_seed);
        prop_assert!(!replayed, "a fresh plan has no memoized stats");
        let (second, replayed) = execute(cfg, &hit.value, &a, b_seed);
        prop_assert!(replayed, "the hit replays the memoized stats");
        prop_assert_eq!(f32_bits(&second.c), f32_bits(&first.c));
        prop_assert_eq!(second.stats.total_ns.to_bits(), first.stats.total_ns.to_bits());

        // And against a from-scratch plan (no cache at all): the cached
        // artifact is not just self-consistent but equal to recomputing,
        // and the replayed stats equal a fresh simulation's.
        let fresh = cold_plan(&planner, &a);
        prop_assert_eq!(fresh.choice, cold.value.choice);
        let (third, replayed) = execute(cfg, &fresh, &a, b_seed);
        prop_assert!(!replayed);
        prop_assert_eq!(f32_bits(&third.c), f32_bits(&first.c));
        prop_assert_eq!(&second.stats, &third.stats);
    }

    /// No accounting call reads a value of A or B: both serve kernels'
    /// `KernelStats` are equal for random, all-zero and negated B, and
    /// for A with its values permuted or negated. (The strategy's values
    /// are all positive, so a permutation alone would miss a sign test.)
    #[test]
    fn kernel_stats_depend_only_on_structure(
        a in csr_strategy(),
        k in 1usize..48,
        b_seed in 0u64..1024,
        shift in 0usize..64,
    ) {
        let ncols = a.shape().ncols;
        let b = random_dense(ncols, k, b_seed);
        let zeros = DenseMatrix::zeros(ncols, k);
        let mut negated = b.clone();
        negated.as_mut_slice().iter_mut().for_each(|v| *v = -*v);
        let mut rotated = a.values().to_vec();
        if !rotated.is_empty() {
            let len = rotated.len();
            rotated.rotate_left(shift % len);
        }
        let permuted = serve_artifacts(&revalue(&a, rotated));
        let flipped = serve_artifacts(&revalue(&a, a.values().iter().map(|v| -v).collect()));
        for (i, artifact) in serve_artifacts(&a).iter().enumerate() {
            let stats = simulate(artifact, &b).stats;
            prop_assert_eq!(&simulate(artifact, &zeros).stats, &stats);
            prop_assert_eq!(&simulate(artifact, &negated).stats, &stats);
            prop_assert_eq!(&simulate(&permuted[i], &b).stats, &stats);
            prop_assert_eq!(&simulate(&flipped[i], &b).stats, &stats);
        }
    }

    /// A replay launch computes the full run's C bit for bit and returns
    /// exactly the stats it was given; its GPU refuses a second launch.
    #[test]
    fn replay_reproduces_the_full_run(a in csr_strategy(), k in 1usize..48, b_seed in 0u64..1024) {
        let b = random_dense(a.shape().ncols, k, b_seed);
        for artifact in &serve_artifacts(&a) {
            let full = simulate(artifact, &b);
            let mut gpu = Gpu::replay(GpuConfig::test_small(), full.stats.clone())
                .expect("gpu config");
            let replay = run_artifact(&mut gpu, artifact, &b).expect("replay run");
            prop_assert_eq!(f32_bits(&replay.c), f32_bits(&full.c));
            prop_assert_eq!(&replay.stats, &full.stats);
            prop_assert_eq!(
                run_artifact(&mut gpu, artifact, &b).err(),
                Some(SimError::ReplayRelaunched)
            );
        }
    }
}
