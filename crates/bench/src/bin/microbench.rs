//! `microbench` — statistical microbenchmarks for the hot paths the
//! profiler attributes most time to: the parallel conversion farm (alone
//! and nested under an outer parallel map), the B-stationary online kernel, the comparator tree's frontier min-scan,
//! the simulator's per-probe memory path, the serve front end's
//! operand generation and fingerprint, and a serve cache hit. Each
//! target runs through
//! the harness (warmup, fixed iteration count, MAD outlier rejection,
//! bootstrap CIs) and prints one table row; CI runs the reduced
//! `--iters`/`--warmup` variant as a smoke check.
//!
//! Besides wall time, every target is measured for **steady-state
//! allocation pressure**: after one warm iteration, an iteration's
//! process-wide `alloc.count` / `alloc.bytes` delta (all threads — the
//! farm's workers included) lands in the table. With `--budgets <file>` the measured numbers gate
//! against the committed per-target ceilings and the run fails on any
//! increase; `--write-budgets <file>` regenerates the file with headroom.
//!
//! ```text
//! microbench [--iters N] [--warmup N] [--n N] [--k N] [--tile N]
//!            [--budgets <ALLOC_BUDGETS.json>] [--write-budgets <file>]
//! ```

use nmt::fnv::checksums;
use nmt::{MatrixFingerprint, PlannerConfig, SpmmPlanner};
use nmt_bench::harness::{run, BenchConfig};
use nmt_bench::{experiment_gpu, print_table, EXPERIMENT_SEED};
use nmt_engine::{convert_matrix_farm, ComparatorTree, ConversionArtifact, FarmConfig, MinScratch};
use nmt_formats::SparseMatrix;
use nmt_kernels::{bstat_tiled_dcsr_online, run_artifact};
use nmt_matgen::{random_dense, GenKind, MatrixDesc, SuiteScale};
use nmt_model::ssf::Choice;
use nmt_sim::{Gpu, GpuConfig, TrafficClass};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The measured alloc numbers see every thread, so the binary must own
/// the real global allocator.
#[global_allocator]
static ALLOC: nmt_obs::CountingAlloc = nmt_obs::CountingAlloc;

/// One target's committed allocation ceiling (already includes headroom).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct AllocBudget {
    /// Max allocations per steady-state iteration.
    count: u64,
    /// Max bytes requested per steady-state iteration.
    bytes: u64,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

/// Steady-state allocation delta of one iteration of `f`, across all
/// threads: after one warm iteration, run iterations until the delta
/// stops shrinking and report the smallest.
fn measure_alloc(mut f: impl FnMut()) -> (u64, u64) {
    const MAX_WARM: usize = 8;
    let prev = nmt_obs::alloc::enable_counting(true);
    f();
    let mut best = (u64::MAX, u64::MAX);
    for _ in 0..MAX_WARM {
        let (c0, b0) = nmt_obs::alloc::process_totals();
        f();
        let (c1, b1) = nmt_obs::alloc::process_totals();
        let delta = (c1.saturating_sub(c0), b1.saturating_sub(b0));
        if delta.0 >= best.0 {
            best = best.min(delta);
            break;
        }
        best = delta;
    }
    nmt_obs::alloc::enable_counting(prev);
    best
}

fn main() -> ExitCode {
    match run_benches() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_benches() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = BenchConfig::default();
    cfg.iters = parse_flag(&args, "--iters", cfg.iters)?;
    cfg.warmup = parse_flag(&args, "--warmup", cfg.warmup)?;
    if cfg.iters == 0 {
        return Err("--iters must be at least 1".into());
    }
    let n: usize = parse_flag(&args, "--n", 512)?;
    let k: usize = parse_flag(&args, "--k", 32)?;
    let tile: usize = parse_flag(&args, "--tile", 16)?;
    if tile == 0 || tile > 64 {
        return Err("--tile must be in 1..=64 (the engine is 64 lanes wide)".into());
    }
    let budgets_path = flag(&args, "--budgets");
    let write_budgets_path = flag(&args, "--write-budgets");

    // One deterministic operand set shared by every target.
    let desc = MatrixDesc::new(
        "microbench",
        n,
        GenKind::ZipfRows {
            density: 0.01,
            exponent: 1.1,
        },
        EXPERIMENT_SEED,
    );
    let a = nmt_matgen::generate(&desc);
    let csc = a.to_csc();
    let b = random_dense(a.shape().ncols, k, EXPERIMENT_SEED ^ 0x16);

    println!(
        "microbench: n = {n}, nnz = {}, k = {k}, tile = {tile}, {} iters after {} warmup",
        a.nnz(),
        cfg.iters,
        cfg.warmup
    );

    let mut rows = Vec::new();
    let mut measured: BTreeMap<String, AllocBudget> = BTreeMap::new();
    let mut add_row = |name: &str, stats: nmt_bench::BenchStats, alloc: (u64, u64)| {
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", stats.median_ns / 1e3),
            format!("{:.1}", stats.ci_lo_ns / 1e3),
            format!("{:.1}", stats.ci_hi_ns / 1e3),
            format!("{:.1}", stats.mad_ns / 1e3),
            format!("{}", stats.samples),
            format!("{}", stats.rejected),
            format!("{}", alloc.0),
            format!("{:.1}", alloc.1 as f64 / 1024.0),
        ]);
        measured.insert(
            name.to_string(),
            AllocBudget {
                count: alloc.0,
                bytes: alloc.1,
            },
        );
    };

    // 1. The conversion farm: CSC -> tiled DCSR across FB partitions.
    let farm_cfg = FarmConfig::paper_default();
    let stats = run(&cfg, || {
        let farm = convert_matrix_farm(&csc, tile, tile, farm_cfg)
            .expect("clean farm conversion cannot fail");
        std::hint::black_box(farm.stats.elements);
    });
    let alloc = measure_alloc(|| {
        let farm = convert_matrix_farm(&csc, tile, tile, farm_cfg)
            .expect("clean farm conversion cannot fail");
        std::hint::black_box(farm.stats.elements);
    });
    add_row("farm_convert", stats, alloc);

    // 1b. Two farm conversions under an outer parallel map, the way the
    // sweep runs one per matrix: the inner strip loops run inline on the
    // outer workers instead of spawning threads of their own.
    let nested = || {
        (0..2)
            .into_par_iter()
            .map(|_| {
                convert_matrix_farm(&csc, tile, tile, farm_cfg)
                    .expect("clean farm conversion cannot fail")
            })
            .collect::<Vec<_>>()
    };
    let stats = run(&cfg, || {
        std::hint::black_box(nested());
    });
    let alloc = measure_alloc(|| {
        for farm in nested() {
            std::hint::black_box(farm.stats.elements);
        }
    });
    add_row("farm_convert_nested", stats, alloc);

    // 2. The B-stationary online kernel (engine + kernel pipeline).
    let stats = run(&cfg, || {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("test GPU config is valid");
        let out = bstat_tiled_dcsr_online(&mut gpu, &csc, &b, tile, tile)
            .expect("online kernel runs on a clean matrix");
        std::hint::black_box(out.run.stats.total_ns);
    });
    let alloc = measure_alloc(|| {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("test GPU config is valid");
        let out = bstat_tiled_dcsr_online(&mut gpu, &csc, &b, tile, tile)
            .expect("online kernel runs on a clean matrix");
        std::hint::black_box(out.run.stats.total_ns);
    });
    add_row("bstat_online", stats, alloc);

    // 3. The comparator tree's frontier min-scan, the engine's inner loop.
    let tree = ComparatorTree::new(tile).map_err(|e| e.to_string())?;
    let coords: Vec<Option<u32>> = (0..tile)
        .map(|i| (i % 3 != 0).then_some(((i * 37) % 101) as u32))
        .collect();
    let stats = run(&cfg, || {
        let mut scratch = MinScratch::new();
        for _ in 0..1024 {
            std::hint::black_box(tree.find_min_in(std::hint::black_box(&coords), &mut scratch));
        }
    });
    let alloc = measure_alloc(|| {
        let mut scratch = MinScratch::new();
        for _ in 0..1024 {
            std::hint::black_box(tree.find_min_in(std::hint::black_box(&coords), &mut scratch));
        }
    });
    add_row("find_min_x1024", stats, alloc);

    // 4. The simulator's probe path: the cuSPARSE stand-in's B gathers
    // and column-major C stores replayed through `ld_global_gather` and
    // `st_global_strided` on the small-scale GPU. For each 32-non-zero
    // chunk of each row, one strided call gathers B[col][k] from
    // column-major B for every lane and every k; each non-empty row then
    // stores its C row, one lane per k at a stride of one C column. The
    // stream is built once; an iteration flushes the L2 and replays it in
    // one launch, so it allocates nothing.
    let mut gpu = Gpu::new(experiment_gpu(SuiteScale::Small)).map_err(|e| e.to_string())?;
    let warp = gpu.config().warp_size;
    let n = a.shape().nrows as u64;
    let k_stride = a.shape().ncols as u64 * 4;
    let mut stream = Vec::new();
    let mut gathers = Vec::new();
    // (row, its chunks' range of `gathers`), non-empty rows only.
    let mut c_rows = Vec::new();
    for r in 0..a.shape().nrows {
        let first = gathers.len();
        for chunk in a.row(r).0.chunks(warp) {
            let start = stream.len();
            stream.extend(chunk.iter().map(|&col| col as u64 * 4));
            gathers.push(start..stream.len());
        }
        if gathers.len() > first {
            c_rows.push((r as u64, first..gathers.len()));
        }
    }
    let b_dev = gpu.alloc(k_stride * k as u64, TrafficClass::MatB);
    let c_dev = gpu.alloc(n * 4 * k as u64, TrafficClass::MatC);
    let mut replay = || {
        gpu.flush_l2();
        let stats = gpu
            .launch(0, 1, |ctx| {
                for (r, chunks) in &c_rows {
                    for g in &gathers[chunks.clone()] {
                        ctx.ld_global_gather(&b_dev, &stream[g.clone()], k_stride, k, 4, true);
                    }
                    ctx.st_global_strided(&c_dev, r * 4, n * 4, k, 4);
                }
            })
            .expect("a launch without shared memory cannot fail");
        std::hint::black_box(stats.l2_hits);
    };
    let stats = run(&cfg, &mut replay);
    let alloc = measure_alloc(&mut replay);
    add_row("sim_probe", stats, alloc);

    // 5. The serve request front end: regenerate the operand, then
    // fingerprint it (one profile pass plus the content digest).
    let generate = || {
        std::hint::black_box(nmt_matgen::generate(&desc));
    };
    let stats = run(&cfg, generate);
    let alloc = measure_alloc(generate);
    add_row("matgen_generate", stats, alloc);

    let fingerprint = || {
        std::hint::black_box(MatrixFingerprint::of(&a, tile));
    };
    let stats = run(&cfg, fingerprint);
    let alloc = measure_alloc(fingerprint);
    add_row("fingerprint", stats, alloc);

    // 6. A serve cache hit, as `CachedPlan::run` takes it once the plan's
    // stats for this `k` are memoized: draw B, replay the planned kernel
    // values-only on `Gpu::replay`, and checksum C. The plan is converted
    // and simulated once, outside the loop.
    let planner = SpmmPlanner::new(PlannerConfig {
        tile_w: tile,
        tile_h: tile,
        ..PlannerConfig::test_small()
    });
    let gpu_cfg = &planner.config().gpu;
    let artifact = match planner.plan(&a).1 {
        Choice::BStationary => {
            ConversionArtifact::tiled(&a, tile, tile).map_err(|e| format!("{e:?}"))?
        }
        Choice::CStationary => ConversionArtifact::row_major(&a),
    };
    let mut gpu = Gpu::new(gpu_cfg.clone()).map_err(|e| e.to_string())?;
    let memo = run_artifact(&mut gpu, &artifact, &b)
        .map_err(|e| e.to_string())?
        .stats;
    let hit = || {
        let b = random_dense(a.shape().ncols, k, EXPERIMENT_SEED ^ 0x5e);
        let mut gpu = Gpu::replay(gpu_cfg.clone(), memo.clone()).expect("config validated above");
        let run = run_artifact(&mut gpu, &artifact, &b).expect("the simulated run succeeded");
        std::hint::black_box(checksums([run.c.as_slice()]));
    };
    let stats = run(&cfg, hit);
    let alloc = measure_alloc(hit);
    add_row("serve_hit", stats, alloc);

    print_table(
        &[
            "target",
            "median_us",
            "ci_lo_us",
            "ci_hi_us",
            "mad_us",
            "kept",
            "rejected",
            "alloc_n",
            "alloc_kb",
        ],
        &rows,
    );

    if let Some(path) = write_budgets_path {
        // Headroom: 50% relative + small absolute slack, so thread
        // scheduling and allocator-internal variance never flake the gate.
        // A target that allocates nothing keeps a zero budget: nothing
        // there can wobble, and any allocation is a regression.
        let with_headroom: BTreeMap<String, AllocBudget> = measured
            .iter()
            .map(|(name, m)| {
                let budget = if m.count == 0 {
                    *m
                } else {
                    AllocBudget {
                        count: m.count + m.count / 2 + 64,
                        bytes: m.bytes + m.bytes / 2 + 65_536,
                    }
                };
                (name.clone(), budget)
            })
            .collect();
        let json = serde_json::to_string_pretty(&with_headroom)
            .map_err(|e| format!("cannot serialize budgets: {e:?}"))?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("cannot write budgets to {path}: {e}"))?;
        eprintln!("wrote allocation budgets (with headroom) to {path}");
    }

    if let Some(path) = budgets_path {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read budgets from {path}: {e}"))?;
        let budgets: BTreeMap<String, AllocBudget> =
            serde_json::from_str(&json).map_err(|e| format!("malformed budgets file: {e:?}"))?;
        let mut failures = Vec::new();
        for (name, budget) in &budgets {
            let Some(m) = measured.get(name) else {
                failures.push(format!(
                    "budgeted target '{name}' was not measured — refresh the budgets file"
                ));
                continue;
            };
            if m.count > budget.count {
                failures.push(format!(
                    "{name}: allocation count {} exceeds budget {}",
                    m.count, budget.count
                ));
            }
            if m.bytes > budget.bytes {
                failures.push(format!(
                    "{name}: allocation bytes {} exceed budget {}",
                    m.bytes, budget.bytes
                ));
            }
        }
        if failures.is_empty() {
            eprintln!(
                "allocation budgets OK: {} targets within {path}",
                budgets.len()
            );
        } else {
            return Err(format!(
                "allocation budget exceeded:\n  {}",
                failures.join("\n  ")
            ));
        }
    }
    Ok(())
}
