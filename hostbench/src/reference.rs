//! Reference digests recorded from a known-good commit.
//!
//! The simulator is deterministic, so every output the benchmark checks
//! (a sweep's ledger rows, a replay's per-request `sim_ns`/`checksum`/
//! `choice`) is a pure function of the input. `--record` stores one 32-bit
//! FNV-1a digest per operand and input variant under `reference/`; every
//! later run recomputes the digests and counts each mismatch as a failed
//! operation.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark maps `--seed` onto this many input variants, each with a
/// recorded reference. Variant 0 of the sweeps is the suite at
/// `EXPERIMENT_SEED`, i.e. the committed `results/BENCH_small.json`.
pub const VARIANTS: u64 = 8;

/// Incremental FNV-1a (64-bit).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The stored width: 32 bits keeps the per-request reference files
    /// small, and a false match per operand stays at 2^-32.
    pub fn digest(&self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

/// Where `workload`'s digests live.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.txt"))
}

/// Digests of one variant, in operand order.
pub fn load(workload: &str, variant: u64) -> Result<Vec<u32>, String> {
    let p = path(workload);
    let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    let tag = format!("v{variant}");
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut words = line.split_whitespace();
        if words.next() != Some(tag.as_str()) {
            continue;
        }
        return words
            .map(|w| u32::from_str_radix(w, 16).map_err(|e| format!("{}: {w}: {e}", p.display())))
            .collect();
    }
    Err(format!("{}: no line for variant {variant}", p.display()))
}

/// Write every variant's digests.
pub fn store(workload: &str, variants: &BTreeMap<u64, Vec<u32>>) -> Result<(), String> {
    let p = path(workload);
    let mut text = format!(
        "# {workload}: reference digests written by `hostbench --record`.\n\
         # One line per input variant: v<variant>, then one 32-bit FNV-1a digest per operand.\n"
    );
    for (v, digests) in variants {
        text.push_str(&format!("v{v}"));
        for d in digests {
            text.push_str(&format!(" {d:08x}"));
        }
        text.push('\n');
    }
    std::fs::create_dir_all(p.parent().unwrap_or(&p)).map_err(|e| e.to_string())?;
    std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))
}

/// Operations checked and operations that failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    /// Count one operation; it failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Compare computed digests against the reference: one operation per
/// reference operand; a missing or extra operand also fails.
pub fn compare(expected: &[u32], got: &[u32]) -> Check {
    let mut check = Check::default();
    for (i, want) in expected.iter().enumerate() {
        check.op(got.get(i) == Some(want));
    }
    for _ in expected.len()..got.len() {
        check.op(false);
    }
    check
}
