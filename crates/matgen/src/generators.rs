//! Individual matrix generators.
//!
//! # Exact output
//!
//! A generator is a pure function of its descriptor: one `StdRng` seeded
//! from `desc.seed`, drawn in a fixed order. Plan-cache keys and ledger
//! rows are built from the bytes it returns, so how it stores what it
//! draws may change only where the bytes cannot; `tests/golden.rs` pins
//! them for every family.
//!
//! * `uniform`, `zipf-rows`/`zipf-both`, `banded` and `block-diag` without
//!   a background never draw a coordinate twice. They write
//!   `rowptr`/`colidx`/`values` directly and finish with the validating
//!   `Csr::new`. A row's columns are sampled into a reusable bitmap
//!   (`ColumnSet`) and read back by scanning its set bits, which is the
//!   ascending order a sorted set yields. Zipf rows are drawn in rank
//!   order, so they are drawn out of row order and copied into it at the
//!   end.
//! * `row-bursts`, `rmat` and `block-diag` with a background draw
//!   coordinates that can repeat, and keep [`Coo::canonicalize`]: sorted
//!   row-major, duplicates summed. Three or more `f32` addends can round
//!   differently by order, and that order is whatever the unstable sort in
//!   `canonicalize` leaves, so any other merge could change a value.
//!
//! Capacity hints are expectations capped at what an `n × n` matrix can
//! hold, so a descriptor with an out-of-range band or block width still
//! allocates no more than its matrix.

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
    match &desc.kind {
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
        GenKind::RowBursts { density, burst_len } => {
            Csr::from_coo(&row_bursts(n, *density, *burst_len, &mut rng))
        }
        GenKind::Rmat {
            a,
            b,
            c,
            edge_factor,
        } => Csr::from_coo(&rmat(n, *a, *b, *c, *edge_factor, &mut rng)),
    }
}

/// The CSR arrays of an `n × n` matrix, written one row at a time in
/// row order with each row's columns ascending.
struct CsrWriter {
    n: usize,
    rowptr: Vec<u32>,
    colidx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrWriter {
    /// `nnz_hint` is only a capacity; see [`nnz_hint`].
    fn new(n: usize, nnz_hint: usize) -> Self {
        let mut rowptr = Vec::with_capacity(n + 1);
        rowptr.push(0);
        Self {
            n,
            rowptr,
            colidx: Vec::with_capacity(nnz_hint),
            values: Vec::with_capacity(nnz_hint),
        }
    }

    fn end_row(&mut self) {
        self.rowptr.push(self.colidx.len() as u32);
    }

    /// Draw one value for every column appended since the last row
    /// ended, in column order, and close the row.
    fn end_row_with_values(&mut self, rng: &mut StdRng) {
        for _ in self.values.len()..self.colidx.len() {
            self.values.push(value(rng));
        }
        self.end_row();
    }

    fn finish(self) -> Csr {
        Csr::new(self.n, self.n, self.rowptr, self.colidx, self.values)
            .expect("generators write sorted, distinct, in-bounds columns")
    }
}

/// A capacity for `n` rows of `per_row` expected non-zeros each, capped
/// at the `n` per row a row can hold.
fn nnz_hint(n: usize, per_row: f64) -> usize {
    (per_row.clamp(0.0, n as f64) * n as f64) as usize
}

/// A set of columns in `0..n` as an `n`-bit bitmap, reused across rows.
/// Draining it yields the members in ascending order and leaves it empty.
struct ColumnSet {
    words: Vec<u64>,
    /// Identity permutation scratch for the dense sampling path.
    pool: Vec<u32>,
}

impl ColumnSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            pool: Vec::new(),
        }
    }

    /// Insert `c`; returns whether it was absent.
    fn insert(&mut self, c: u32) -> bool {
        let (word, bit) = (c as usize / 64, 1u64 << (c % 64));
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    /// Append the members to `out` in ascending order and clear the set.
    fn drain_into(&mut self, out: &mut Vec<u32>) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                out.push((i * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// Sample `k` distinct values in `0..n` and append them to `out` in
    /// ascending order. Floyd's algorithm for small `k`; a partial
    /// Fisher-Yates shuffle when `k` approaches `n`.
    fn sample_distinct(&mut self, n: usize, k: usize, rng: &mut StdRng, out: &mut Vec<u32>) {
        let k = k.min(n);
        if k == 0 {
            return;
        }
        if k * 3 >= n {
            self.pool.clear();
            self.pool.extend(0..n as u32);
            self.pool.partial_shuffle(rng, k);
            for i in 0..k {
                let c = self.pool[i];
                self.insert(c);
            }
        } else {
            for j in (n - k)..n {
                let t = rng.random_range(0..=j as u64) as u32;
                if !self.insert(t) {
                    self.insert(j as u32);
                }
            }
        }
        self.drain_into(out);
    }
}

fn uniform(n: usize, density: f64, rng: &mut StdRng) -> Csr {
    let per_row = density * n as f64;
    let mut csr = CsrWriter::new(n, nnz_hint(n, per_row));
    let mut cols = ColumnSet::new(n);
    for _ in 0..n {
        let k = stochastic_round(per_row, rng);
        cols.sample_distinct(n, k, rng, &mut csr.colidx);
        csr.end_row_with_values(rng);
    }
    csr.finish()
}

fn zipf_rows(n: usize, density: f64, exponent: f64, zipf_cols: bool, rng: &mut StdRng) -> Csr {
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
    // Rows are drawn in rank order, so they land in `drawn` out of row
    // order; `spans[row]` records where, and the rows are copied into
    // row order at the end.
    let mut drawn = CsrWriter::new(n, nnz_hint(n, density * n as f64));
    let mut spans = vec![(0u32, 0u32); n];
    let mut cols = ColumnSet::new(n);
    for (rank, &row) in perm.iter().enumerate() {
        let share = weights[rank] / total * target_nnz as f64;
        let k = stochastic_round(share, rng).min(n);
        if k == 0 {
            continue;
        }
        let start = drawn.colidx.len();
        match &col_sampler {
            None => cols.sample_distinct(n, k, rng, &mut drawn.colidx),
            Some(sampler) => {
                // Column ranks share the row permutation reversed, so heavy
                // rows and heavy columns differ.
                let mut seen = 0;
                let mut attempts = 0;
                while seen < k && attempts < 8 * k {
                    let rank = sampler.sample(rng);
                    seen += usize::from(cols.insert(perm[n - 1 - rank]));
                    attempts += 1;
                }
                cols.drain_into(&mut drawn.colidx);
            }
        }
        drawn.end_row_with_values(rng);
        spans[row as usize] = (start as u32, (drawn.colidx.len() - start) as u32);
    }
    let mut csr = CsrWriter::new(n, drawn.colidx.len());
    for &(start, len) in &spans {
        let range = start as usize..(start + len) as usize;
        csr.colidx.extend_from_slice(&drawn.colidx[range.clone()]);
        csr.values.extend_from_slice(&drawn.values[range]);
        csr.end_row();
    }
    csr.finish()
}

fn banded(n: usize, bandwidth: usize, fill: f64, rng: &mut StdRng) -> Csr {
    // A band wider than the matrix covers every column, as a band of `n`
    // does; capping it keeps `r + bandwidth + 1` from overflowing.
    let bandwidth = bandwidth.min(n);
    let mut csr = CsrWriter::new(n, nnz_hint(n, (2 * bandwidth + 1) as f64 * fill));
    for r in 0..n {
        let lo = r.saturating_sub(bandwidth);
        let hi = (r + bandwidth + 1).min(n);
        for c in lo..hi {
            if rng.random_bool(fill) {
                csr.colidx.push(c as u32);
                csr.values.push(value(rng));
            }
        }
        csr.end_row();
    }
    csr.finish()
}

fn block_diag(n: usize, block: usize, fill: f64, background: f64, rng: &mut StdRng) -> Csr {
    let block = block.max(1);
    // Blocks cover disjoint, ascending row ranges, so their draws arrive
    // in row-major order with no duplicates.
    let mut csr = CsrWriter::new(n, nnz_hint(n, block as f64 * fill));
    for b in 0..n.div_ceil(block) {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        for _ in lo..hi {
            for c in lo..hi {
                if rng.random_bool(fill) {
                    csr.colidx.push(c as u32);
                    csr.values.push(value(rng));
                }
            }
            csr.end_row();
        }
    }
    let blocks = csr.finish();
    if background > 0.0 {
        // The background lands anywhere, blocks included.
        let mut coo = Coo::new(n, n).expect("dims validated by caller");
        for (r, c, v) in blocks.iter() {
            coo.push(r, c, v).unwrap();
        }
        let bg_nnz = (background * n as f64 * n as f64).round() as usize;
        for _ in 0..bg_nnz {
            let r = rng.random_range(0..n as u32);
            let c = rng.random_range(0..n as u32);
            coo.push(r, c, value(rng)).unwrap();
        }
        coo.canonicalize();
        return Csr::from_coo(&coo);
    }
    blocks
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
    fn widths_past_n_equal_widths_of_n() {
        // A band or block wider than the matrix draws the same stream as
        // one exactly `n` wide, and reserves no more than the matrix holds.
        let n = 300;
        for wide in [n + 1, 1 << 40, usize::MAX] {
            let band = |bandwidth| {
                gen(
                    GenKind::Banded {
                        bandwidth,
                        fill: 1.0,
                    },
                    n,
                )
            };
            assert_eq!(band(wide), band(n), "bandwidth {wide}");
            let blocks = |block| {
                gen(
                    GenKind::BlockDiag {
                        block,
                        fill: 0.5,
                        background: 0.01,
                    },
                    n,
                )
            };
            assert_eq!(blocks(wide), blocks(n), "block {wide}");
        }
        assert_eq!(nnz_hint(n, 1e12), n * n);
        assert_eq!(nnz_hint(n, f64::NAN), 0);
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
            let mut s = Vec::new();
            ColumnSet::new(n).sample_distinct(n, k, &mut rng, &mut s);
            assert_eq!(s.len(), k.min(n));
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&x| (x as usize) < n));
        }
    }

    /// The set-based sampler the bitmap replaced: a fresh shuffled
    /// identity vector on the dense path, a `BTreeSet` on Floyd's path.
    fn sample_distinct_reference(n: usize, k: usize, rng: &mut StdRng) -> Vec<u32> {
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        if k * 3 >= n {
            let mut all: Vec<u32> = (0..n as u32).collect();
            all.partial_shuffle(rng, k);
            let mut out = all[..k].to_vec();
            out.sort_unstable();
            out
        } else {
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

    #[test]
    fn bitmap_sampler_matches_set_sampler() {
        // One reused set across calls of every size, as a generator uses
        // it: same output and same number of draws, on both paths and on
        // bitmap tails that are not a multiple of 64.
        for n in [1usize, 63, 64, 65, 200, 1000] {
            let mut set = ColumnSet::new(n);
            let mut fast = StdRng::seed_from_u64(n as u64);
            let mut slow = StdRng::seed_from_u64(n as u64);
            for k in [0, 1, 2, n / 7, n / 3, n / 2, n - 1, n, n + 5] {
                let mut got = Vec::new();
                set.sample_distinct(n, k, &mut fast, &mut got);
                assert_eq!(
                    got,
                    sample_distinct_reference(n, k, &mut slow),
                    "n={n} k={k}"
                );
                assert_eq!(fast.random::<u64>(), slow.random::<u64>(), "n={n} k={k}");
            }
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
