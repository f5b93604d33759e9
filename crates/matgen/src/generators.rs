//! Individual matrix generators.

use nmt_formats::{Coo, Csr};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The structural family of a generated matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum GenKind {
    /// Independent uniform placement: every cell is non-zero with
    /// probability `density`. The "uniform non-zero distribution" case of
    /// §3.1.2, which favours C-stationary.
    Uniform {
        /// Target density in `(0, 1]`.
        density: f64,
    },
    /// Row-skewed placement: per-row nnz follows a Zipf law with the given
    /// exponent over a random row permutation; columns are uniform. Large
    /// exponents concentrate non-zeros in few heavy rows (small
    /// `n_nnzrow`), the regime §3.1.4 calls advantageous for C-stationary
    /// output traffic but low-entropy/high-skew overall.
    ZipfRows {
        /// Target density in `(0, 1]`.
        density: f64,
        /// Zipf exponent (`0` degenerates to uniform rows).
        exponent: f64,
    },
    /// Doubly skewed: Zipf over rows *and* columns, yielding the scattered
    /// hub-and-spoke structure of scale-free graphs.
    ZipfBoth {
        /// Target density in `(0, 1]`.
        density: f64,
        /// Zipf exponent shared by both axes.
        exponent: f64,
    },
    /// Diagonal band: cells with `|r - c| <= bandwidth` are non-zero with
    /// probability `fill`. Classic stencil/PDE structure — extremely
    /// clustered per strip (high locality, low entropy).
    Banded {
        /// Half-width of the band.
        bandwidth: usize,
        /// Fill probability inside the band.
        fill: f64,
    },
    /// Dense-ish blocks along the diagonal plus a sparse uniform
    /// background. Models the "highly clustered row segments" that Hong et
    /// al.'s DCSR extraction targets.
    BlockDiag {
        /// Edge length of each diagonal block.
        block: usize,
        /// Fill probability inside blocks.
        fill: f64,
        /// Density of the uniform background outside blocks.
        background: f64,
    },
    /// Clustered row segments: bursts of `burst_len` consecutive columns
    /// placed at random `(row, col)` positions. This is the structure Hong
    /// et al.'s DCSR extraction targets — long non-zero runs within a
    /// strip (cheap, few atomic C updates for B-stationary) at scattered
    /// row/column positions (no incidental cache luck for C-stationary) —
    /// i.e. the regime where tiled B-stationary wins.
    RowBursts {
        /// Target density in `(0, 1]`.
        density: f64,
        /// Length of each horizontal run of non-zeros.
        burst_len: usize,
    },
    /// RMAT recursive-quadrant graph generator (Chakrabarti et al.), the
    /// standard stand-in for power-law graph adjacency structure.
    Rmat {
        /// Probability of the top-left quadrant.
        a: f64,
        /// Probability of the top-right quadrant.
        b: f64,
        /// Probability of the bottom-left quadrant.
        c: f64,
        /// Average edges per vertex.
        edge_factor: usize,
    },
}

/// A fully-specified, reproducible matrix: kind + dimension + seed.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixDesc {
    /// Human-readable name used in experiment output.
    pub name: String,
    /// Square dimension (rows == cols, as the paper assumes in Table 1).
    pub n: usize,
    /// Structural family and its parameters.
    pub kind: GenKind,
    /// RNG seed.
    pub seed: u64,
}

impl MatrixDesc {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, n: usize, kind: GenKind, seed: u64) -> Self {
        Self {
            name: name.into(),
            n,
            kind,
            seed,
        }
    }

    /// Check that [`try_generate`] accepts this descriptor, without
    /// generating it.
    pub fn validate(&self) -> Result<(), MatgenError> {
        if self.n > u32::MAX as usize {
            return Err(MatgenError::DimensionTooLarge { n: self.n });
        }
        if let GenKind::Rmat { a, b, c, .. } = self.kind {
            if a + b + c > 1.0 + 1e-9 {
                return Err(MatgenError::BadRmatProbabilities { a, b, c });
            }
        }
        Ok(())
    }
}

/// A descriptor that cannot be generated. Returned by [`try_generate`]
/// so a malformed suite entry becomes a per-matrix error instead of a
/// panic in the middle of a corpus sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum MatgenError {
    /// `n` exceeds the `u32` index space of the formats crate.
    DimensionTooLarge {
        /// The offending dimension.
        n: usize,
    },
    /// RMAT quadrant probabilities sum above 1.
    BadRmatProbabilities {
        /// Top-left quadrant probability.
        a: f64,
        /// Top-right quadrant probability.
        b: f64,
        /// Bottom-left quadrant probability.
        c: f64,
    },
}

impl std::fmt::Display for MatgenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DimensionTooLarge { n } => {
                write!(f, "matrix dimension {n} exceeds the u32 index space")
            }
            Self::BadRmatProbabilities { a, b, c } => write!(
                f,
                "RMAT quadrant probabilities a={a} + b={b} + c={c} exceed 1"
            ),
        }
    }
}

impl std::error::Error for MatgenError {}

/// Validate `desc` and generate its CSR matrix, reporting a malformed
/// descriptor as a typed error rather than panicking.
pub fn try_generate(desc: &MatrixDesc) -> Result<Csr, MatgenError> {
    desc.validate()?;
    Ok(generate_validated(desc))
}

/// Generate the CSR matrix described by `desc`.
///
/// Panics on a malformed descriptor; use [`try_generate`] where a bad
/// entry must not abort the caller (e.g. corpus sweeps).
pub fn generate(desc: &MatrixDesc) -> Csr {
    // nmt-lint: allow(panic) — documented panicking wrapper; try_generate is the fallible API
    try_generate(desc).expect("invalid matrix descriptor")
}

fn generate_validated(desc: &MatrixDesc) -> Csr {
    let mut rng = StdRng::seed_from_u64(desc.seed);
    let n = desc.n;
    let coo = match &desc.kind {
        GenKind::Uniform { density } => uniform(n, *density, &mut rng),
        GenKind::ZipfRows { density, exponent } => {
            zipf_rows(n, *density, *exponent, false, &mut rng)
        }
        GenKind::ZipfBoth { density, exponent } => {
            zipf_rows(n, *density, *exponent, true, &mut rng)
        }
        GenKind::Banded { bandwidth, fill } => banded(n, *bandwidth, *fill, &mut rng),
        GenKind::BlockDiag {
            block,
            fill,
            background,
        } => block_diag(n, *block, *fill, *background, &mut rng),
        GenKind::RowBursts { density, burst_len } => row_bursts(n, *density, *burst_len, &mut rng),
        GenKind::Rmat {
            a,
            b,
            c,
            edge_factor,
        } => rmat(n, *a, *b, *c, *edge_factor, &mut rng),
    };
    Csr::from_coo(&coo)
}

/// Sample `k` distinct values in `0..n`, sorted. Uses Floyd's algorithm for
/// small `k`, dense rejection-free selection when `k` approaches `n`.
fn sample_distinct(n: usize, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    if k * 3 >= n {
        // Dense case: partial Fisher-Yates over the full index range.
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.partial_shuffle(rng, k);
        let mut out = all[..k].to_vec();
        out.sort_unstable();
        out
    } else {
        // Floyd's sampling: k iterations, O(k) expected set operations.
        let mut set = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = rng.random_range(0..=j as u64) as u32;
            if !set.insert(t) {
                set.insert(j as u32);
            }
        }
        set.into_iter().collect()
    }
}

fn uniform(n: usize, density: f64, rng: &mut StdRng) -> Coo {
    let per_row = density * n as f64;
    let mut coo = Coo::new(n, n).expect("dims validated by caller");
    for r in 0..n as u32 {
        let k = stochastic_round(per_row, rng);
        for c in sample_distinct(n, k, rng) {
            coo.push(r, c, value(rng)).unwrap();
        }
    }
    coo
}

fn zipf_rows(n: usize, density: f64, exponent: f64, zipf_cols: bool, rng: &mut StdRng) -> Coo {
    let target_nnz = (density * n as f64 * n as f64).round() as usize;
    // Zipf weights over ranks, assigned to a random row permutation so the
    // heavy rows are scattered through the matrix as in real datasets.
    let weights: Vec<f64> = (0..n)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    let col_sampler = if zipf_cols {
        Some(CumulativeSampler::new(&weights))
    } else {
        None
    };
    let mut coo = Coo::new(n, n).expect("dims validated by caller");
    for (rank, &row) in perm.iter().enumerate() {
        let share = weights[rank] / total * target_nnz as f64;
        let k = stochastic_round(share, rng).min(n);
        if k == 0 {
            continue;
        }
        match &col_sampler {
            None => {
                for c in sample_distinct(n, k, rng) {
                    coo.push(row, c, value(rng)).unwrap();
                }
            }
            Some(sampler) => {
                // Column ranks share the row permutation reversed, so heavy
                // rows and heavy columns differ.
                let mut seen = std::collections::BTreeSet::new();
                let mut attempts = 0;
                while seen.len() < k && attempts < 8 * k {
                    let rank = sampler.sample(rng);
                    seen.insert(perm[n - 1 - rank]);
                    attempts += 1;
                }
                for c in seen {
                    coo.push(row, c, value(rng)).unwrap();
                }
            }
        }
    }
    coo
}

fn banded(n: usize, bandwidth: usize, fill: f64, rng: &mut StdRng) -> Coo {
    let mut coo = Coo::new(n, n).expect("dims validated by caller");
    for r in 0..n {
        let lo = r.saturating_sub(bandwidth);
        let hi = (r + bandwidth + 1).min(n);
        for c in lo..hi {
            if rng.random_bool(fill) {
                coo.push(r as u32, c as u32, value(rng)).unwrap();
            }
        }
    }
    coo
}

fn block_diag(n: usize, block: usize, fill: f64, background: f64, rng: &mut StdRng) -> Coo {
    let block = block.max(1);
    let mut coo = Coo::new(n, n).expect("dims validated by caller");
    let nblocks = n.div_ceil(block);
    for b in 0..nblocks {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        for r in lo..hi {
            for c in lo..hi {
                if rng.random_bool(fill) {
                    coo.push(r as u32, c as u32, value(rng)).unwrap();
                }
            }
        }
    }
    if background > 0.0 {
        let bg_nnz = (background * n as f64 * n as f64).round() as usize;
        for _ in 0..bg_nnz {
            let r = rng.random_range(0..n as u32);
            let c = rng.random_range(0..n as u32);
            coo.push(r, c, value(rng)).unwrap();
        }
    }
    coo.canonicalize();
    coo
}

fn row_bursts(n: usize, density: f64, burst_len: usize, rng: &mut StdRng) -> Coo {
    let burst_len = burst_len.clamp(1, n);
    let target_nnz = density * n as f64 * n as f64;
    let bursts = (target_nnz / burst_len as f64).round() as usize;
    let mut coo = Coo::new(n, n).expect("dims validated by caller");
    for _ in 0..bursts {
        let r = rng.random_range(0..n as u32);
        let c0 = rng.random_range(0..(n - burst_len + 1) as u32);
        for j in 0..burst_len as u32 {
            coo.push(r, c0 + j, value(rng)).unwrap();
        }
    }
    coo.canonicalize();
    coo
}

fn rmat(n: usize, a: f64, b: f64, c: f64, edge_factor: usize, rng: &mut StdRng) -> Coo {
    // a + b + c <= 1 is checked by try_generate before we get here.
    let levels = (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize;
    let side = 1usize << levels;
    let edges = n * edge_factor;
    let mut coo = Coo::new(n, n).expect("dims validated by caller");
    for _ in 0..edges {
        let (mut r, mut col) = (0usize, 0usize);
        let mut span = side;
        while span > 1 {
            span /= 2;
            let p: f64 = rng.random();
            if p < a {
                // top-left
            } else if p < a + b {
                col += span;
            } else if p < a + b + c {
                r += span;
            } else {
                r += span;
                col += span;
            }
        }
        if r < n && col < n {
            coo.push(r as u32, col as u32, value(rng)).unwrap();
        }
    }
    coo.canonicalize();
    coo
}

/// Round `x` to an integer, with the fractional part resolved randomly so
/// expected totals are preserved even when per-row shares are tiny.
fn stochastic_round(x: f64, rng: &mut StdRng) -> usize {
    let base = x.floor();
    let frac = x - base;
    base as usize + usize::from(rng.random_bool(frac.clamp(0.0, 1.0)))
}

fn value(rng: &mut StdRng) -> f32 {
    // Non-zero values uniform in [-1, 1) excluding exact zero (the paper
    // assigns random values to pattern-only matrices, §5.1).
    loop {
        let v = rng.random_range(-1.0f32..1.0);
        if v != 0.0 {
            return v;
        }
    }
}

/// Inverse-CDF sampler over a fixed weight vector.
struct CumulativeSampler {
    cdf: Vec<f64>,
}

impl CumulativeSampler {
    fn new(weights: &[f64]) -> Self {
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cdf.push(acc);
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("non-empty weights");
        let x: f64 = rng.random_range(0.0..total);
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_formats::SparseMatrix;

    fn gen(kind: GenKind, n: usize) -> Csr {
        generate(&MatrixDesc::new("t", n, kind, 7))
    }

    #[test]
    fn generation_is_deterministic() {
        let d = MatrixDesc::new("t", 128, GenKind::Uniform { density: 0.02 }, 3);
        assert_eq!(generate(&d), generate(&d));
        let d2 = MatrixDesc {
            seed: 4,
            ..d.clone()
        };
        assert_ne!(generate(&d2), generate(&d));
    }

    #[test]
    fn uniform_hits_target_density() {
        let m = gen(GenKind::Uniform { density: 0.05 }, 512);
        let got = m.density();
        assert!((got - 0.05).abs() < 0.01, "density {got}");
    }

    #[test]
    fn uniform_rows_are_balanced() {
        let m = gen(GenKind::Uniform { density: 0.05 }, 512);
        let counts = m.row_nnz_counts();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            max < mean * 3.0,
            "uniform rows should not be heavily skewed"
        );
    }

    #[test]
    fn zipf_rows_are_skewed() {
        let m = gen(
            GenKind::ZipfRows {
                density: 0.01,
                exponent: 1.2,
            },
            512,
        );
        let mut counts = m.row_nnz_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top_decile: usize = counts[..counts.len() / 10].iter().sum();
        assert!(
            top_decile as f64 > 0.5 * total as f64,
            "top 10% of rows should hold most non-zeros ({top_decile}/{total})"
        );
    }

    #[test]
    fn banded_respects_bandwidth() {
        let m = gen(
            GenKind::Banded {
                bandwidth: 3,
                fill: 0.8,
            },
            128,
        );
        for (r, c, _) in m.iter() {
            assert!((r as i64 - c as i64).abs() <= 3);
        }
        assert!(m.nnz() > 0);
    }

    #[test]
    fn block_diag_concentrates_in_blocks() {
        let m = gen(
            GenKind::BlockDiag {
                block: 16,
                fill: 0.5,
                background: 0.0,
            },
            128,
        );
        for (r, c, _) in m.iter() {
            assert_eq!(r / 16, c / 16, "entry ({r},{c}) outside its block");
        }
    }

    #[test]
    fn block_diag_background_adds_scatter() {
        let m = gen(
            GenKind::BlockDiag {
                block: 16,
                fill: 0.3,
                background: 0.005,
            },
            128,
        );
        let outside = m.iter().filter(|(r, c, _)| r / 16 != c / 16).count();
        assert!(
            outside > 0,
            "background should place entries outside blocks"
        );
    }

    #[test]
    fn row_bursts_produce_long_segments() {
        let m = gen(
            GenKind::RowBursts {
                density: 0.01,
                burst_len: 16,
            },
            512,
        );
        // Density near target.
        assert!(
            (m.density() - 0.01).abs() < 0.005,
            "density {}",
            m.density()
        );
        // Consecutive runs: the mean run length should approach burst_len.
        let mut runs = 0usize;
        let mut total = 0usize;
        for r in 0..512 {
            let (cols, _) = m.row(r);
            let mut i = 0;
            while i < cols.len() {
                runs += 1;
                while i + 1 < cols.len() && cols[i + 1] == cols[i] + 1 {
                    i += 1;
                    total += 1;
                }
                i += 1;
                total += 1;
            }
        }
        let mean_run = total as f64 / runs.max(1) as f64;
        assert!(mean_run > 8.0, "mean run length {mean_run}");
    }

    #[test]
    fn row_bursts_clamp_burst_len() {
        let m = gen(
            GenKind::RowBursts {
                density: 0.05,
                burst_len: 10_000,
            },
            64,
        );
        assert!(m.nnz() > 0);
        for (_, c, _) in m.iter() {
            assert!((c as usize) < 64);
        }
    }

    #[test]
    fn rmat_is_power_law_ish() {
        let m = gen(
            GenKind::Rmat {
                a: 0.57,
                b: 0.19,
                c: 0.19,
                edge_factor: 8,
            },
            512,
        );
        assert!(m.nnz() > 512); // dedup loses some edges but most survive
        let mut counts = m.row_nnz_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] > 4 * counts[counts.len() / 2].max(1));
    }

    #[test]
    fn sample_distinct_is_distinct_and_sorted() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(n, k) in &[(100usize, 5usize), (100, 90), (10, 10), (5, 0)] {
            let s = sample_distinct(n, k, &mut rng);
            assert_eq!(s.len(), k.min(n));
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&x| (x as usize) < n));
        }
    }

    #[test]
    fn stochastic_round_preserves_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 20_000;
        let sum: usize = (0..trials).map(|_| stochastic_round(0.3, &mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn cumulative_sampler_respects_weights() {
        let s = CumulativeSampler::new(&[1.0, 0.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0usize; 3];
        for _ in 0..4000 {
            hits[s.sample(&mut rng)] += 1;
        }
        assert_eq!(hits[1], 0);
        assert!(hits[2] > 2 * hits[0]);
    }
}
