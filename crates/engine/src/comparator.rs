//! The hierarchical minimum-comparator unit (Figures 14–15).
//!
//! The conversion engine must find, every cycle, the minimum row coordinate
//! among the N column frontiers of a strip and *all* the columns holding
//! that minimum. The hardware builds this from 2-input comparator units —
//! each a 32-bit magnitude comparator, a coordinate bypass multiplexer and
//! a minimum-bypass unit producing a position bit vector — composed into a
//! binary tree: an N-input unit uses `N - 1` two-input units in
//! `ceil(log2 N)` stages. When several inputs tie for the minimum the
//! output bit vector points at all of them (e.g. `min[3:0] = 0101₂` when
//! inputs 0 and 2 tie), which is what lets the engine emit a whole DCSR row
//! in one step.
//!
//! This module models the unit both *functionally* (so the converter uses
//! the exact datapath) and *structurally* (unit counts, tree depth, stage
//! latency for the §5.3 pipeline analysis).
//!
//! The functional model is allocation-free and SIMD-friendly: exhausted
//! lanes are sentinel-encoded into a fixed `[u32; 64]` scratch, the
//! minimum falls out of an in-place halving fold (the vectorizable
//! formulation of the same pairwise tree — `min` is associative and
//! commutative, so the fold order is immaterial), and the position mask
//! comes from a branch-free equality sweep. Widths above 64 lanes are a
//! typed construction error: the position vector is a `u64`, so a wider
//! tree would overflow `1 << lane` — the hardware strip width shares the
//! same bound.

use std::fmt;

/// The engine's strip width: a comparator tree spans at most 64 lanes so
/// the position bit vector fits a `u64`.
pub const MAX_LANES: usize = 64;

/// Lanes holding this key in the scratch are exhausted (`None` coords).
/// A *legitimate* coordinate of `u32::MAX` is indistinguishable in the
/// key array alone, so validity is tracked separately by the fold.
const EXHAUSTED: u32 = u32::MAX;

/// Construction errors for [`ComparatorTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComparatorError {
    /// Requested lane count outside `1..=64`. Wider trees would overflow
    /// the `u64` position vector (`1 << lane` for lane ≥ 64 is UB-adjacent
    /// in hardware terms and a debug panic in Rust); split the strip
    /// instead.
    LaneCount {
        /// The rejected lane count.
        got: usize,
    },
}

impl fmt::Display for ComparatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComparatorError::LaneCount { got } => write!(
                f,
                "comparator tree supports 1..={MAX_LANES} lanes, got {got}: \
                 the position vector is a u64, split wider strips"
            ),
        }
    }
}

impl std::error::Error for ComparatorError {}

/// Output of one comparison pass: the minimum coordinate and the set of
/// lanes carrying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinResult {
    /// The minimum row coordinate among valid lanes.
    pub min: u32,
    /// Bit `i` set ⇔ lane `i` holds the minimum (the `min[N-1:0]` vector).
    pub mask: u64,
}

/// Fixed-size scratch for [`ComparatorTree::find_min_in`]: one key slot
/// per possible lane, living wherever the caller puts it (stack or a
/// longer-lived converter). No heap allocation anywhere.
#[derive(Debug, Clone)]
pub struct MinScratch {
    keys: [u32; MAX_LANES],
}

impl MinScratch {
    /// A zeroed scratch; contents are overwritten by every pass.
    pub const fn new() -> Self {
        MinScratch {
            keys: [0; MAX_LANES],
        }
    }
}

impl Default for MinScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// An N-input comparator tree (N ≤ 64, the engine's strip width).
#[derive(Debug, Clone)]
pub struct ComparatorTree {
    n: usize,
}

/// Hardware-structure summary of a comparator tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStructure {
    /// Number of 2-input comparator units (`N - 1` for a full tree).
    pub two_input_units: usize,
    /// Pipeline depth in comparator stages (`ceil(log2 N)`).
    pub depth: usize,
    /// Latency of one stage in nanoseconds — §5.3 reports 0.339 ns as the
    /// longest pipeline-stage latency, observed at a coordinate-comparator
    /// stage in TSMC 16 nm.
    pub stage_latency_ns: f64,
}

/// The §5.3 coordinate-comparator stage latency (TSMC 16 nm).
pub const STAGE_LATENCY_NS: f64 = 0.339;

impl ComparatorTree {
    /// Build a tree over `n` lanes (1 ..= [`MAX_LANES`]).
    ///
    /// Rejecting wider trees here is what makes the per-lane
    /// `1 << lane` mask construction in the scan pass sound.
    pub fn new(n: usize) -> Result<Self, ComparatorError> {
        if !(1..=MAX_LANES).contains(&n) {
            return Err(ComparatorError::LaneCount { got: n });
        }
        Ok(Self { n })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.n
    }

    /// Structural cost of this tree.
    pub fn structure(&self) -> TreeStructure {
        TreeStructure {
            two_input_units: self.n.saturating_sub(1),
            depth: if self.n <= 1 {
                0
            } else {
                usize::BITS as usize - (self.n - 1).leading_zeros() as usize
            },
            stage_latency_ns: STAGE_LATENCY_NS,
        }
    }

    /// One comparison pass over the lane coordinates. `None` lanes are
    /// exhausted columns (their `frontier_ptr` reached `boundary_ptr`) and
    /// never win. Returns `None` when every lane is exhausted.
    ///
    /// Allocation-free: scratch lives on this stack frame. Hot callers
    /// that own a [`MinScratch`] should prefer [`Self::find_min_in`].
    pub fn find_min(&self, coords: &[Option<u32>]) -> Option<MinResult> {
        let mut scratch = MinScratch::new();
        self.find_min_in(coords, &mut scratch)
    }

    /// One comparison pass using caller-provided scratch, so a converter
    /// issuing millions of passes reuses one `[u32; 64]` for all of them.
    ///
    /// Three sweeps, each a straight-line loop the compiler vectorizes:
    ///
    /// 1. **Leaf encode** — coordinates into `scratch.keys`, exhausted
    ///    lanes as `EXHAUSTED`, plus a validity count.
    /// 2. **Halving fold** — `keys[i] = min(keys[i], keys[i + half])`
    ///    until one key remains. Same value the Figure 15 (b) pairwise
    ///    tree produces (min is associative/commutative); the structural
    ///    model in [`Self::structure`] still reports the hardware tree.
    /// 3. **Mask sweep** — branch-free `(coord == min) << lane` OR-fold,
    ///    the `min[N-1:0]` position vector. Lane < 64 is guaranteed by
    ///    construction, so the shift cannot overflow.
    ///
    /// A legitimate coordinate of `u32::MAX` collides with the sentinel
    /// in sweep 2; the validity count from sweep 1 disambiguates (if any
    /// lane is valid and the folded min is `u32::MAX`, every valid lane
    /// holds `u32::MAX` and the mask sweep is still exact).
    pub fn find_min_in(
        &self,
        coords: &[Option<u32>],
        scratch: &mut MinScratch,
    ) -> Option<MinResult> {
        assert_eq!(coords.len(), self.n, "lane count mismatch");
        let keys = &mut scratch.keys[..self.n];
        let mut valid = 0usize;
        for (k, c) in keys.iter_mut().zip(coords) {
            *k = c.unwrap_or(EXHAUSTED);
            valid += usize::from(c.is_some());
        }
        if valid == 0 {
            return None;
        }
        let mut width = self.n;
        while width > 1 {
            let half = width.div_ceil(2);
            // nmt-lint: allow(slice-index) — half <= width <= keys.len() by the fold invariant
            let (lo, hi) = keys[..width].split_at_mut(half);
            for (l, h) in lo.iter_mut().zip(hi.iter()) {
                *l = (*l).min(*h);
            }
            width = half;
        }
        let min = keys[0]; // nmt-lint: allow(slice-index) — n >= 1 by construction
        let mut mask = 0u64;
        for (i, c) in coords.iter().enumerate() {
            mask |= u64::from(*c == Some(min)) << i;
        }
        Some(MinResult { min, mask })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_input_example_from_figure15() {
        // "If COOR₃ is the smallest, COORz will be COOR₃ and min[3:0] will
        // be 1000₂."
        let t = ComparatorTree::new(4).unwrap();
        let r = t.find_min(&[Some(9), Some(7), Some(8), Some(3)]).unwrap();
        assert_eq!(r.min, 3);
        assert_eq!(r.mask, 0b1000);
    }

    #[test]
    fn tie_reports_all_positions() {
        // "If there are multiple minimum coordinates (e.g., COOR₀ and
        // COOR₂) … min[3:0] = 0101₂."
        let t = ComparatorTree::new(4).unwrap();
        let r = t.find_min(&[Some(5), Some(9), Some(5), Some(7)]).unwrap();
        assert_eq!(r.min, 5);
        assert_eq!(r.mask, 0b0101);
    }

    #[test]
    fn exhausted_lanes_never_win() {
        let t = ComparatorTree::new(4).unwrap();
        let r = t.find_min(&[None, Some(4), None, Some(2)]).unwrap();
        assert_eq!(r.min, 2);
        assert_eq!(r.mask, 0b1000);
        assert_eq!(t.find_min(&[None, None, None, None]), None);
    }

    #[test]
    fn all_lanes_tie() {
        let t = ComparatorTree::new(8).unwrap();
        let r = t.find_min(&[Some(1); 8]).unwrap();
        assert_eq!(r.mask, 0xFF);
    }

    #[test]
    fn non_power_of_two_lane_count() {
        let t = ComparatorTree::new(5).unwrap();
        let r = t
            .find_min(&[Some(3), Some(2), Some(9), Some(2), Some(8)])
            .unwrap();
        assert_eq!(r.min, 2);
        assert_eq!(r.mask, 0b01010);
    }

    #[test]
    fn coordinate_u32_max_is_a_valid_minimum() {
        // The sentinel encoding must not turn a real u32::MAX coordinate
        // into "exhausted".
        let t = ComparatorTree::new(4).unwrap();
        let r = t
            .find_min(&[None, Some(u32::MAX), None, Some(u32::MAX)])
            .unwrap();
        assert_eq!(r.min, u32::MAX);
        assert_eq!(r.mask, 0b1010);
        // ...and it still loses to any smaller coordinate.
        let r = t
            .find_min(&[Some(u32::MAX), Some(3), None, None])
            .unwrap();
        assert_eq!(r.min, 3);
        assert_eq!(r.mask, 0b0010);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let t = ComparatorTree::new(6).unwrap();
        let mut scratch = MinScratch::new();
        let inputs: &[&[Option<u32>]] = &[
            &[Some(4), None, Some(1), Some(1), None, Some(9)],
            &[None; 6],
            &[Some(0), Some(0), Some(0), Some(0), Some(0), Some(0)],
        ];
        for coords in inputs {
            assert_eq!(t.find_min_in(coords, &mut scratch), t.find_min(coords));
        }
    }

    #[test]
    fn structure_counts() {
        let t = ComparatorTree::new(64).unwrap();
        let s = t.structure();
        assert_eq!(s.two_input_units, 63);
        assert_eq!(s.depth, 6); // log2(64)
        assert!((s.stage_latency_ns - 0.339).abs() < 1e-12);
        // Pipelined at one stage per cycle, each stage must fit in the
        // 0.588 ns cycle target (§5.3).
        assert!(s.stage_latency_ns < 0.588);

        assert_eq!(ComparatorTree::new(1).unwrap().structure().depth, 0);
        assert_eq!(ComparatorTree::new(2).unwrap().structure().depth, 1);
        assert_eq!(ComparatorTree::new(5).unwrap().structure().depth, 3);
    }

    #[test]
    fn matches_software_minimum_on_random_inputs() {
        // Deterministic pseudo-random cross-check against an oracle.
        let t = ComparatorTree::new(64).unwrap();
        let mut scratch = MinScratch::new();
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for _ in 0..200 {
            let coords: Vec<Option<u32>> = (0..64)
                .map(|_| {
                    let v = next();
                    if v % 5 == 0 {
                        None
                    } else {
                        Some((v >> 32) as u32 % 100)
                    }
                })
                .collect();
            let got = t.find_min_in(&coords, &mut scratch);
            let want_min = coords.iter().flatten().min().copied();
            match (got, want_min) {
                (None, None) => {}
                (Some(r), Some(m)) => {
                    assert_eq!(r.min, m);
                    for (i, c) in coords.iter().enumerate() {
                        let in_mask = r.mask & (1 << i) != 0;
                        assert_eq!(in_mask, *c == Some(m), "lane {i}");
                    }
                }
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_oversized_tree_with_typed_error() {
        // Regression (mask overflow bug): n > 64 must fail at
        // construction, because find_min's `1 << lane` would overflow
        // the u64 position vector for lane >= 64.
        let err = ComparatorTree::new(65).unwrap_err();
        assert_eq!(err, ComparatorError::LaneCount { got: 65 });
        assert!(err.to_string().contains("1..=64"));
        assert!(ComparatorTree::new(0).is_err());
        assert!(ComparatorTree::new(64).is_ok());
    }

    #[test]
    fn find_min_is_allocation_free() {
        // The innermost conversion loop calls find_min once per emitted
        // row group; it must never touch the allocator.
        let t = ComparatorTree::new(64).unwrap();
        let coords: Vec<Option<u32>> = (0..64)
            .map(|i| if i % 3 == 0 { None } else { Some(i as u32 % 7) })
            .collect();
        let mut scratch = MinScratch::new();
        let was = nmt_obs::alloc::enable_counting(true);
        let before = nmt_obs::alloc::thread_totals();
        let mut acc = 0u64;
        for _ in 0..1000 {
            if let Some(r) = t.find_min_in(&coords, &mut scratch) {
                acc = acc.wrapping_add(u64::from(r.min)).wrapping_add(r.mask);
            }
            if let Some(r) = t.find_min(&coords) {
                acc = acc.wrapping_add(u64::from(r.min)).wrapping_add(r.mask);
            }
        }
        let after = nmt_obs::alloc::thread_totals();
        nmt_obs::alloc::enable_counting(was);
        assert!(acc > 0, "keep the loop observable");
        assert_eq!(
            after.0 - before.0,
            0,
            "find_min allocated {} times",
            after.0 - before.0
        );
    }
}
