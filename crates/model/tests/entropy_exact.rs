//! The tabulated entropy and the one-pass profile are exact: bit for bit
//! what the segment-list definitions compute.

use nmt_formats::{Coo, Csr, StripStats};
use nmt_model::entropy::{normalized_entropy, normalized_entropy_of, row_segment_counts};
use nmt_model::ssf::SsfProfile;
use proptest::prelude::*;

/// Arbitrary CSR matrices, with empty and single-non-zero matrices drawn
/// as often as scattered and as nearly dense ones (segments up to 64 long).
fn csr_strategy() -> impl Strategy<Value = Csr> {
    (0usize..4, 1usize..=80, 1usize..=200).prop_flat_map(|(mode, nrows, ncols)| {
        let (nrows, max_entries) = match mode {
            0 => (nrows, 0),
            1 => (nrows, 1),
            2 => (nrows, 400),
            _ => (nrows.min(8), 1200),
        };
        let entry = (0..nrows as u32, 0..ncols as u32);
        proptest::collection::vec(entry, 0..=max_entries).prop_map(move |entries| {
            let mut coo = Coo::new(nrows, ncols).expect("valid dims");
            for (r, c) in entries {
                coo.push(r, c, 1.0).expect("in bounds");
            }
            coo.canonicalize();
            Csr::from_coo(&coo)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tabulated_entropy_is_bit_identical(csr in csr_strategy(), tile_w in 1usize..=64) {
        let tabulated = normalized_entropy(&csr, tile_w);
        let listed = normalized_entropy_of(&row_segment_counts(&csr, tile_w));
        prop_assert_eq!(tabulated.to_bits(), listed.to_bits());
    }

    #[test]
    fn one_pass_profile_matches_separate_passes(csr in csr_strategy(), tile_w in 1usize..=64) {
        let (profile, strips) = SsfProfile::compute_with_strips(&csr, tile_w);
        prop_assert_eq!(&strips, &StripStats::compute(&csr, tile_w));
        let listed = normalized_entropy_of(&row_segment_counts(&csr, tile_w));
        prop_assert_eq!(profile.h_norm.to_bits(), listed.to_bits());
        prop_assert_eq!(profile.mean_strip_frac.to_bits(), strips.mean_fraction.to_bits());
    }
}

#[test]
fn degenerate_matrices_have_zero_entropy() {
    let empty = Csr::new(3, 5, vec![0; 4], vec![], vec![]).unwrap();
    let single = Csr::new(3, 5, vec![0, 0, 1, 1], vec![4], vec![2.0]).unwrap();
    for a in [&empty, &single] {
        for tile_w in [1, 2, 64] {
            assert_eq!(normalized_entropy(a, tile_w).to_bits(), 0.0f64.to_bits());
        }
    }
    // One segment holds everything: every term is `-1·ln 1 = -0.0`, and
    // the sign of the zero sum reaches the fingerprint through `h_norm`.
    let one_segment = Csr::new(2, 4, vec![0, 3, 3], vec![0, 1, 3], vec![1.0; 3]).unwrap();
    assert_eq!(
        normalized_entropy(&one_segment, 4).to_bits(),
        normalized_entropy_of(&[3]).to_bits()
    );
}
