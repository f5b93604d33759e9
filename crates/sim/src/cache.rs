//! Set-associative L2 cache slice with LRU replacement.
//!
//! The GV100 L2 is physically sliced: each FB partition owns the slice that
//! caches its share of the address space. One [`L2Slice`] therefore lives
//! inside each simulated FB partition.

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present.
    Hit,
    /// Line absent; it has been filled (possibly evicting a victim, whose
    /// dirtiness is reported for write-back accounting).
    Miss {
        /// True when the evicted victim was dirty and must be written back.
        dirty_writeback: bool,
    },
}

/// An invalid way. A valid way holds `line << 1 | dirty`; a line number is
/// `addr / line_bytes`, far below 2^63 for any address a buffer reaches, so
/// the shift loses no bit and no real line encodes to `u64::MAX`.
const INVALID: u64 = u64::MAX;

/// How [`L2Slice::access_line`] views a set, picked from the associativity
/// at construction. The 16- and 8-way sets of every configured GPU scan a
/// fixed-length array, so the scan has a constant trip count; any other
/// associativity scans the slice. All three run the one [`scan_set`] body.
#[derive(Debug, Clone, Copy)]
enum SetWidth {
    Sixteen,
    Eight,
    Any,
}

/// One L2 slice: `sets × ways` lines, LRU within a set.
///
/// Each set is one contiguous run of ways kept in recency order, most
/// recent first, with the invalid ways at the tail. A hit moves its way to
/// the front; a miss drops the tail way and fills the front. The tail is
/// the first invalid way if there is one, else the least recently used
/// line: the LRU victim.
#[derive(Debug, Clone)]
pub struct L2Slice {
    line_shift: u32,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two: the set index is then a
    /// mask of the line number instead of a modulo.
    set_mask: Option<u64>,
    ways: usize,
    width: SetWidth,
    /// ways[set * ways + way], each `line << 1 | dirty` or [`INVALID`].
    lines: Vec<u64>,
}

impl L2Slice {
    /// Build a slice of `capacity_bytes` with the given line size and
    /// associativity. Panics if geometry does not divide evenly (the
    /// [`GpuConfig`](crate::GpuConfig) validator checks this upstream).
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            ways > 0 && lines >= ways && lines.is_multiple_of(ways),
            "capacity must divide into whole sets"
        );
        let sets = lines / ways;
        Self {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            ways,
            width: match ways {
                16 => SetWidth::Sixteen,
                8 => SetWidth::Eight,
                _ => SetWidth::Any,
            },
            // nmt-lint: allow(hot-alloc) — one allocation per slice, at GPU construction
            lines: vec![INVALID; lines],
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Probe the line containing `addr`; fill on miss. `write` marks the
    /// line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.access_line(addr >> self.line_shift, write)
    }

    /// [`L2Slice::access`] for a line number (`addr / line_bytes`) the
    /// caller has already computed.
    #[inline]
    pub(crate) fn access_line(&mut self, line: u64, write: bool) -> Probe {
        let set = match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets as u64) as usize,
        };
        let key = line << 1;
        match self.width {
            SetWidth::Sixteen => scan_set(&mut self.lines.as_chunks_mut::<16>().0[set], key, write),
            SetWidth::Eight => scan_set(&mut self.lines.as_chunks_mut::<8>().0[set], key, write),
            SetWidth::Any => {
                let base = set * self.ways;
                scan_set(&mut self.lines[base..base + self.ways], key, write)
            }
        }
    }

    /// Drop all contents (between kernels, when desired).
    pub fn flush(&mut self) -> usize {
        let dirty_lines = self
            .lines
            .iter()
            .filter(|&&w| w != INVALID && w & 1 == 1)
            .count();
        self.lines.fill(INVALID);
        dirty_lines
    }
}

/// Probe one recency-ordered set for `key` (`line << 1`) and update it.
/// Always inlined, so a fixed-length array argument gives the loop a
/// constant trip count.
#[inline(always)]
fn scan_set(ways: &mut [u64], key: u64, write: bool) -> Probe {
    let write = u64::from(write);
    // Shift each way one place back while scanning; a hit stops the
    // shift at its own way, and a miss shifts the tail way out.
    let mut prev = ways[0];
    if prev & !1 == key {
        ways[0] = prev | write;
        return Probe::Hit;
    }
    for way in &mut ways[1..] {
        let cur = *way;
        *way = prev;
        if cur & !1 == key {
            ways[0] = cur | write;
            return Probe::Hit;
        }
        prev = cur;
    }
    ways[0] = key | write;
    // Invalid ways are clean, so only a valid victim writes back.
    Probe::Miss {
        dirty_writeback: prev != INVALID && prev & 1 == 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L2Slice {
        // 4 lines of 64 B, 2-way => 2 sets.
        L2Slice::new(256, 64, 2)
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.sets(), 2);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(matches!(c.access(0, false), Probe::Miss { .. }));
        assert_eq!(c.access(0, false), Probe::Hit);
        assert_eq!(c.access(63, false), Probe::Hit); // same line
        assert!(matches!(c.access(64, false), Probe::Miss { .. })); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        c.access(0, false);
        c.access(2 * 64, false);
        c.access(0, false); // refresh line 0
        c.access(4 * 64, false); // evicts line 2 (LRU)
        assert_eq!(c.access(0, false), Probe::Hit);
        assert!(matches!(c.access(2 * 64, false), Probe::Miss { .. }));
    }

    #[test]
    fn dirty_writeback_reported() {
        let mut c = tiny();
        c.access(0, true); // dirty line 0 in set 0
        c.access(2 * 64, false);
        // Fill a third even line: evicts dirty line 0.
        match c.access(4 * 64, false) {
            Probe::Miss { dirty_writeback } => assert!(dirty_writeback),
            Probe::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(2 * 64, false);
        match c.access(4 * 64, false) {
            Probe::Miss { dirty_writeback } => assert!(!dirty_writeback),
            Probe::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn flush_counts_dirty() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, false);
        assert_eq!(c.flush(), 1);
        assert!(matches!(c.access(0, false), Probe::Miss { .. }));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        let mut misses = 0;
        for round in 0..3 {
            for line in 0..8u64 {
                if matches!(c.access(line * 64, false), Probe::Miss { .. }) {
                    misses += 1;
                }
            }
            let _ = round;
        }
        // 8 lines through a 4-line cache with LRU: every access misses.
        assert_eq!(misses, 24);
    }
}
