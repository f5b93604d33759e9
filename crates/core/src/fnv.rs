//! FNV-1a (64-bit): the hash behind the plan-cache key's content digest
//! ([`MatrixFingerprint`](crate::MatrixFingerprint)) and the serve
//! ledger's response checksum ([`checksums`]).

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over little-endian words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(OFFSET)
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = mix(self.0, byte);
        }
    }
}

/// One FNV-1a step.
#[inline(always)]
fn mix(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(PRIME)
}

/// Fold the little-endian bytes of `v`'s bit pattern into `h`.
#[inline(always)]
fn mix_f32(mut h: u64, v: f32) -> u64 {
    for byte in v.to_bits().to_le_bytes() {
        h = mix(h, byte);
    }
    h
}

/// FNV-1a over each slice's f32 bit patterns, little-endian byte by byte:
/// the serve ledger's `checksum` of a result matrix.
///
/// One chain is bound by the latency of its multiplies, so the `N` chains
/// advance together over the slices' common prefix, where the core
/// overlaps them; each longer tail then finishes alone. Every hash equals
/// the one a single chain computes over that slice (`checksums([c])`).
pub fn checksums<const N: usize>(values: [&[f32]; N]) -> [u64; N] {
    let mut h = [OFFSET; N];
    let common = values.iter().map(|v| v.len()).min().unwrap_or(0);
    for i in 0..common {
        for (h, v) in h.iter_mut().zip(values) {
            *h = mix_f32(*h, v[i]);
        }
    }
    for (h, v) in h.iter_mut().zip(values) {
        for &x in &v[common..] {
            *h = mix_f32(*h, x);
        }
    }
    h
}
