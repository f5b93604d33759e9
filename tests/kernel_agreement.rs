//! All seven simulated SpMM dataflows must agree with the host reference
//! (and therefore with each other) on arbitrary inputs, while exhibiting
//! the hardware behaviours the paper attributes to them — including the
//! degraded-mode path: a faulted-then-fallback plan must produce the
//! bitwise-identical `C` of the fault-free C-stationary reference — and
//! the simulator's batched probes must price a run exactly as its
//! per-access path does.

use proptest::prelude::*;
use spmm_nmt::fault::FaultPlan;
use spmm_nmt::formats::{Coo, Csr, Dcsr, DenseMatrix, SparseMatrix, TiledCsr, TiledDcsr};
use spmm_nmt::kernels::{
    astat_tiled, bstat_tiled_csr, bstat_tiled_dcsr_offline, bstat_tiled_dcsr_online,
    csrmm_cusparse, csrmm_row_per_warp, dcsrmm_row_per_warp, host, KernelRun,
};
use spmm_nmt::model::ssf::SsfThreshold;
use spmm_nmt::planner::planner::{Algorithm, PlannerConfig, SpmmPlanner};
use spmm_nmt::sim::{Gpu, GpuConfig, KernelStats, SimError, TrafficClass};

fn gpu() -> Gpu {
    Gpu::new(GpuConfig::test_small()).expect("test config valid")
}

fn case_strategy() -> impl Strategy<Value = (Csr, DenseMatrix)> {
    cases(8usize..=48)
}

/// Square A of `n` rows with up to 120 non-zeros, and B of `n × (1..=24)`.
fn cases(n: impl Strategy<Value = usize>) -> impl Strategy<Value = (Csr, DenseMatrix)> {
    (n, 1usize..=24).prop_flat_map(|(n, k)| {
        let entry = (0..n as u32, 0..n as u32, 1i32..50);
        let entries = proptest::collection::vec(entry, 0..120);
        let bvals = proptest::collection::vec(-10i32..10, n * k);
        (entries, bvals).prop_map(move |(es, bs)| {
            let mut coo = Coo::new(n, n).expect("valid dims");
            for (r, c, v) in es {
                coo.push(r, c, v as f32 * 0.25).expect("in bounds");
            }
            coo.canonicalize();
            let b =
                DenseMatrix::from_row_major(n, k, bs.into_iter().map(|v| v as f32 * 0.5).collect())
                    .expect("length matches");
            (Csr::from_coo(&coo), b)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_dataflow_matches_the_reference((a, b) in case_strategy()) {
        let reference = host::spmm_csr(&a, &b);
        let tol = 1e-3;

        let r = csrmm_cusparse(&mut gpu(), &a, &b).expect("cusparse");
        prop_assert!(r.c.approx_eq(&reference, tol), "cusparse diverged");

        let r = csrmm_row_per_warp(&mut gpu(), &a, &b).expect("rpw");
        prop_assert!(r.c.approx_eq(&reference, tol), "row-per-warp diverged");

        let dcsr = Dcsr::from_csr(&a);
        let r = dcsrmm_row_per_warp(&mut gpu(), &dcsr, &b).expect("dcsr");
        prop_assert!(r.c.approx_eq(&reference, tol), "dcsr diverged");

        let tcsr = TiledCsr::from_csr(&a, 8).expect("tiling");
        let r = bstat_tiled_csr(&mut gpu(), &tcsr, &b, 8).expect("tiled csr");
        prop_assert!(r.c.approx_eq(&reference, tol), "bstat tiled csr diverged");

        let tdcsr = TiledDcsr::from_csr(&a, 8, 8).expect("tiling");
        let r = bstat_tiled_dcsr_offline(&mut gpu(), &tdcsr, &b).expect("offline");
        prop_assert!(r.c.approx_eq(&reference, tol), "bstat offline diverged");

        let online = bstat_tiled_dcsr_online(&mut gpu(), &a.to_csc(), &b, 8, 8).expect("online");
        prop_assert!(online.run.c.approx_eq(&reference, tol), "bstat online diverged");
        prop_assert_eq!(online.engine.elements as usize, a.nnz());

        let r = astat_tiled(&mut gpu(), &a, &b, 8).expect("astat");
        prop_assert!(r.c.approx_eq(&reference, tol), "astat diverged");
    }

    #[test]
    fn dataflow_signatures_hold((a, b) in case_strategy()) {
        // C-stationary kernels never issue atomics; B-/A-stationary do
        // (when there is any work).
        let r = csrmm_row_per_warp(&mut gpu(), &a, &b).expect("rpw");
        prop_assert_eq!(r.stats.atomics, 0);
        let r = dcsrmm_row_per_warp(&mut gpu(), &Dcsr::from_csr(&a), &b).expect("dcsr");
        prop_assert_eq!(r.stats.atomics, 0);

        let online = bstat_tiled_dcsr_online(&mut gpu(), &a.to_csc(), &b, 8, 8).expect("online");
        if a.nnz() > 0 {
            prop_assert!(online.run.stats.atomics > 0, "B-stationary must use atomics");
        }

        // Every kernel that touched non-zeros did FP work and read A and B.
        if a.nnz() > 0 {
            prop_assert!(online.run.stats.flops > 0);
            prop_assert!(online.run.stats.requested_traffic.get(TrafficClass::MatA) > 0);
            prop_assert!(online.run.stats.requested_traffic.get(TrafficClass::MatB) > 0);
        }
    }

    #[test]
    fn flop_count_is_exact((a, b) in case_strategy()) {
        // Row-per-warp performs exactly 2·nnz·K FLOPs (one FMA per
        // non-zero per output column).
        let r = csrmm_row_per_warp(&mut gpu(), &a, &b).expect("rpw");
        prop_assert_eq!(r.stats.flops, 2 * a.nnz() as u64 * b.ncols() as u64);
    }

    #[test]
    fn timing_is_positive_and_bounded((a, b) in case_strategy()) {
        let r = csrmm_row_per_warp(&mut gpu(), &a, &b).expect("rpw");
        let s = &r.stats;
        prop_assert!(s.total_ns >= s.t_overhead_ns);
        prop_assert!(s.total_ns >= s.t_compute_ns);
        prop_assert!(s.total_ns >= s.t_memory_ns);
        prop_assert!(s.total_ns >= s.t_latency_ns);
        let b = s.stall_breakdown();
        prop_assert!((b.memory + b.sm + b.other - 1.0).abs() < 1e-6);
        prop_assert!(b.memory >= 0.0 && b.sm >= 0.0 && b.other >= 0.0);
    }

    #[test]
    fn faulted_fallback_matches_fault_free_cstationary((a, b) in case_strategy()) {
        // Force the heuristic onto the engine path and make every
        // conversion strip fault (rate 1.0): the plan must degrade to the
        // untiled C-stationary kernel and produce the bitwise-identical C
        // of a fault-free run that was routed to C-stationary directly.
        // Memory-site faults only perturb timing, never arithmetic, so
        // exact equality — not approx — is the contract.
        let forced_b = SsfThreshold { threshold: f64::NEG_INFINITY, accuracy: 1.0 };
        let forced_c = SsfThreshold { threshold: f64::INFINITY, accuracy: 1.0 };
        let mut faulted_cfg = PlannerConfig::test_small().with_fault(
            Some(FaultPlan::new(0xD1FF, 1_000_000)));
        faulted_cfg.threshold = forced_b;
        let mut clean_cfg = PlannerConfig::test_small();
        clean_cfg.threshold = forced_c;

        let faulted = SpmmPlanner::new(faulted_cfg).execute(&a, &b).expect("degraded run");
        let clean = SpmmPlanner::new(clean_cfg).execute(&a, &b).expect("clean run");

        prop_assert_eq!(faulted.algorithm, Algorithm::CStationaryDcsr);
        prop_assert!(faulted.fault.as_ref().is_some_and(|f| f.fell_back),
            "full-rate plan must record an audited fallback");
        prop_assert_eq!(clean.algorithm, Algorithm::CStationaryDcsr);
        prop_assert!(clean.fault.is_none());
        prop_assert_eq!(faulted.c, clean.c);
    }

    #[test]
    fn dram_traffic_never_exceeds_requested_plus_lines((a, b) in case_strategy()) {
        // DRAM bytes are sector-rounded, so they can exceed requested
        // bytes by at most one sector (32 B) per access; a generous bound
        // is requested + 64 B per miss.
        let r = csrmm_row_per_warp(&mut gpu(), &a, &b).expect("rpw");
        let s = &r.stats;
        let bound = s.requested_traffic.total() + 64 * s.l2_misses;
        prop_assert!(s.dram_traffic.total() <= bound,
            "dram {} > bound {}", s.dram_traffic.total(), bound);
    }
}

/// A kernel run with its GPU's cumulative DRAM, then requested, bytes
/// per traffic class.
type RunTraffic = (KernelRun, [u64; 2 * TrafficClass::COUNT]);

/// Run `kernel` on a fresh `config` GPU, with `plan` installed.
fn run_on(
    config: &GpuConfig,
    plan: Option<FaultPlan>,
    kernel: impl FnOnce(&mut Gpu) -> Result<KernelRun, SimError>,
) -> RunTraffic {
    let mut gpu = Gpu::new(config.clone()).expect("config valid");
    gpu.set_fault_plan(plan);
    let run = kernel(&mut gpu).expect("kernel runs");
    let mut traffic = [0; 2 * TrafficClass::COUNT];
    for (i, class) in TrafficClass::ALL.into_iter().enumerate() {
        traffic[i] = gpu.memory().dram_traffic().get(class);
        traffic[TrafficClass::COUNT + i] = gpu.memory().requested_traffic().get(class);
    }
    (run, traffic)
}

/// Require two runs of one kernel to agree exactly: every stats field
/// (`f64` ones by bits), the GPU's traffic and every element of C.
fn assert_same_run(
    what: &str,
    (x, x_traffic): &RunTraffic,
    (y, y_traffic): &RunTraffic,
) -> Result<(), TestCaseError> {
    let times = |s: &KernelStats| {
        [
            s.t_compute_ns,
            s.t_memory_ns,
            s.t_latency_ns,
            s.t_xbar_ns,
            s.t_overhead_ns,
            s.total_ns,
        ]
        .map(f64::to_bits)
    };
    prop_assert_eq!(times(&x.stats), times(&y.stats), "{} times", what);
    prop_assert_eq!(&x.stats, &y.stats, "{} stats", what);
    prop_assert_eq!(x_traffic, y_traffic, "{} DRAM and requested traffic", what);
    let bits = |r: &KernelRun| {
        r.c.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(bits(x), bits(y), "{} C", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A zero-rate fault plan never fires, but it forces every strided
    /// gather and store through the per-access path; the batched path a
    /// plan-free GPU takes must give the same bits. With n = 32 or 64,
    /// one column of the stand-in's column-major B is a whole number of
    /// 128 B lines, so its gathers batch too, not only its C stores.
    #[test]
    fn batched_probes_match_per_access_probes(
        (a, b) in cases((0usize..3, 8usize..=48).prop_map(|(pick, n)| [32, 64, n][pick])),
        seed in 0u64..u64::MAX,
    ) {
        let small_scale_gv100 = GpuConfig { l2_bytes: 128 * 1024, ..GpuConfig::gv100() };
        let plan = Some(FaultPlan::new(seed, 0));
        let dcsr = Dcsr::from_csr(&a);
        let csc = a.to_csc();
        for config in [GpuConfig::test_small(), small_scale_gv100] {
            let cusparse = |gpu: &mut Gpu| csrmm_cusparse(gpu, &a, &b);
            assert_same_run(
                "csrmm_cusparse",
                &run_on(&config, None, cusparse),
                &run_on(&config, plan, cusparse),
            )?;
            let dcsr_rpw = |gpu: &mut Gpu| dcsrmm_row_per_warp(gpu, &dcsr, &b);
            assert_same_run(
                "dcsrmm_row_per_warp",
                &run_on(&config, None, dcsr_rpw),
                &run_on(&config, plan, dcsr_rpw),
            )?;
            let online =
                |gpu: &mut Gpu| bstat_tiled_dcsr_online(gpu, &csc, &b, 8, 8).map(|o| o.run);
            assert_same_run(
                "bstat_tiled_dcsr_online",
                &run_on(&config, None, online),
                &run_on(&config, plan, online),
            )?;
        }
    }
}

#[test]
fn identity_times_identity_block() {
    // I * B == B for every kernel.
    let n = 16;
    let coo = Coo::from_triplets(
        n,
        n,
        &(0..n as u32).collect::<Vec<_>>(),
        &(0..n as u32).collect::<Vec<_>>(),
        &vec![1.0; n],
    )
    .expect("identity");
    let a = Csr::from_coo(&coo);
    let b = DenseMatrix::from_fn(n, 4, |r, c| (r * 4 + c) as f32);
    let online = bstat_tiled_dcsr_online(&mut gpu(), &a.to_csc(), &b, 8, 8).expect("online");
    assert!(online.run.c.approx_eq(&b, 1e-6));
}
