//! Golden-byte fixture for the `LEASTSST` sufficient-statistics artifact.
//!
//! `tests/golden/center.sst` pins the on-disk layout byte for byte:
//! encoding the fixed instance below must reproduce it exactly, and
//! decoding it then re-encoding must be the identity.

use least_data::{Preprocess, SufficientStats};
use least_linalg::DenseMatrix;

fn center_stats() -> SufficientStats {
    SufficientStats {
        gram: DenseMatrix::from_rows(&[
            &[4.0, -1.5, 0.25],
            &[-1.5, 2.0, -0.0],
            &[0.25, -0.0, 1e-300],
        ])
        .unwrap(),
        means: vec![0.5, -2.0, 3.75],
        scales: vec![1.0, std::f64::consts::FRAC_1_SQRT_2, 0.0],
        n: 12,
        preprocess: Preprocess::Center,
    }
}

#[test]
fn center_stats_match_golden_bytes() {
    let golden: &[u8] = include_bytes!("golden/center.sst");
    let stats = center_stats();
    assert_eq!(
        stats.to_bytes(),
        golden,
        "encoding drifted from the fixture"
    );
    let back = SufficientStats::from_bytes(golden).unwrap();
    assert_eq!(back, stats);
    assert_eq!(
        back.to_bytes(),
        golden,
        "decode → encode is not the identity"
    );
}
