//! `checksums` interleaves FNV-1a chains, and each chain must hash exactly
//! what a lone byte-serial chain hashes over its slice: unequal lengths,
//! empty slices, NaN payloads and signed zeros included.

use nmt::fnv::checksums;
use proptest::collection::vec;
use proptest::prelude::*;

/// FNV-1a over the f32 bit patterns, one little-endian byte at a time,
/// written independently of `nmt::fnv`.
fn reference(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Any f32 bit pattern, with the ones plain arithmetic rarely produces
/// (signed zeros, infinities, quiet and signalling NaNs with payloads)
/// drawn often.
fn any_f32() -> impl Strategy<Value = f32> {
    const SPECIAL: [u32; 8] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // quiet NaN
        0xffc0_0001, // negative quiet NaN with a payload
        0x7f80_0001, // signalling NaN
        0x0000_0001, // smallest subnormal
    ];
    (0usize..16, 0u32..=u32::MAX)
        .prop_map(|(pick, bits)| f32::from_bits(SPECIAL.get(pick).copied().unwrap_or(bits)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn paired_chains_equal_serial_chains(a in vec(any_f32(), 0..40), b in vec(any_f32(), 0..40)) {
        let (ra, rb) = (reference(&a), reference(&b));
        prop_assert_eq!(checksums([&a[..], &b[..]]), [ra, rb]);
        prop_assert_eq!(checksums([&b[..], &a[..]]), [rb, ra]);
        prop_assert_eq!(checksums([&a[..]]), [ra]);
        prop_assert_eq!(checksums([&a[..], &[][..]]), [ra, reference(&[])]);
    }
}

#[test]
fn empty_slices_hash_to_the_offset_basis() {
    let offset = 0xcbf2_9ce4_8422_2325;
    assert_eq!(checksums::<2>([&[], &[]]), [offset, offset]);
    assert_eq!(checksums::<0>([]), []);
    let one = [f32::from_bits(0x8000_0000)];
    assert_eq!(checksums([&[], &one[..]]), [offset, reference(&one)]);
}
