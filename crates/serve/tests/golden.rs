//! Golden-byte fixtures for the `LEASTMDL` model artifact.
//!
//! The files under `tests/golden/` pin the on-disk layout byte for byte:
//! encoding the fixed instances below must reproduce them exactly, and
//! decoding a fixture then re-encoding it must be the identity. Artifacts
//! persisted by an older build keep loading only while these hold.

use least_linalg::{Coo, DenseMatrix};
use least_serve::{ModelArtifact, ModelMeta, WeightMatrix};

fn dense_artifact() -> ModelArtifact {
    let mut w = DenseMatrix::zeros(3, 3);
    w[(0, 1)] = 1.5;
    w[(1, 2)] = -0.75;
    w[(0, 2)] = f64::MIN_POSITIVE;
    ModelArtifact::new(
        WeightMatrix::Dense(w),
        vec![0.1, -0.0, 2.5e-300],
        vec![1.0, 0.5, 2.0],
        ModelMeta {
            threshold: 0.3,
            fingerprint: "least-dense seed=7 λ=0.1".into(),
        },
    )
    .unwrap()
}

fn csr_artifact() -> ModelArtifact {
    let mut coo = Coo::new(4, 4);
    coo.push(0, 2, 2.0).unwrap();
    coo.push(1, 3, -1.25).unwrap();
    coo.push(2, 3, 0.5).unwrap();
    ModelArtifact::new(
        WeightMatrix::Sparse(coo.to_csr()),
        vec![0.0, 1.0, -2.0, 0.25],
        vec![1.0, 0.75, 1.0, 3.0],
        ModelMeta {
            threshold: 0.1,
            fingerprint: "least-sparse".into(),
        },
    )
    .unwrap()
}

fn assert_golden(artifact: &ModelArtifact, golden: &[u8]) {
    assert_eq!(
        artifact.to_bytes(),
        golden,
        "encoding drifted from the fixture"
    );
    let back = ModelArtifact::from_bytes(golden).unwrap();
    assert_eq!(&back, artifact);
    assert_eq!(
        back.to_bytes(),
        golden,
        "decode → encode is not the identity"
    );
}

#[test]
fn dense_artifact_matches_golden_bytes() {
    assert_golden(&dense_artifact(), include_bytes!("golden/dense.model"));
}

#[test]
fn csr_artifact_matches_golden_bytes() {
    assert_golden(&csr_artifact(), include_bytes!("golden/csr.model"));
}
