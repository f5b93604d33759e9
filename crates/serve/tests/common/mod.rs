//! Helpers shared by the broker's replay tests: a worker-count override
//! and a per-request reference computed without the broker.

use nmt::{MatrixFingerprint, SpmmPlanner};
use nmt_engine::artifact::ConversionArtifact;
use nmt_matgen::{generate, random_dense};
use nmt_model::ssf::Choice;
use nmt_serve::{CachedPlan, Request};

/// Re-point the global pool (the shim allows overriding, unlike real
/// rayon) and run `f` under exactly `n` workers. `build_global` is
/// process-wide state, so a test file using it holds one test function.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim pool re-points");
    let out = f();
    assert_eq!(rayon::current_num_threads(), n);
    out
}

/// FNV-1a over C's f32 bit patterns, one byte at a time: the ledger's
/// `checksum`, written independently of the broker's interleaved pass.
pub fn checksum(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(key, sim_ns, checksum)` of `req` computed alone: generate A, key it,
/// plan and convert it into a fresh `CachedPlan`, and run it once.
pub fn reference(req: &Request, planner: &SpmmPlanner) -> (String, u64, u64) {
    let cfg = planner.config();
    let a = generate(&req.desc().expect("well-formed request"));
    let key = MatrixFingerprint::of(&a, cfg.tile_w).key();
    let (_profile, choice) = planner.plan(&a);
    let artifact = match choice {
        Choice::BStationary => {
            ConversionArtifact::tiled(&a, cfg.tile_w, cfg.tile_h).expect("valid tiling")
        }
        Choice::CStationary => ConversionArtifact::row_major(&a),
    };
    let plan = CachedPlan::new(choice, artifact);
    let b = random_dense(req.n as usize, req.k as usize, req.b_seed);
    let (run, replayed) = plan.run(&cfg.gpu, &b).expect("kernel run");
    assert!(!replayed, "a fresh plan simulates");
    (key, run.stats.total_ns as u64, checksum(run.c.as_slice()))
}
