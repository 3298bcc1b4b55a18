//! Sufficient statistics for the linear-SEM least-squares loss.
//!
//! For `L(W) = (1/n)‖X − XW‖_F²` everything the optimizer ever needs is
//! the d×d second-moment matrix `G = XᵀX` (plus `n`): the loss is
//! `(tr(G) − 2⟨W,G⟩ + ⟨W,GW⟩)/n` and the gradient `(2/n)·G·(W − I)`.
//! A one-pass streaming accumulation of `G` therefore decouples training
//! cost from `n` entirely — the same sufficient-statistics trick bnlearn
//! uses for Gaussian score caching, applied to the continuous-optimization
//! engine. See DESIGN.md §9.
//!
//! ## Preprocessing folds algebraically
//!
//! With raw moments `G = XᵀX`, column sums `s` (so `μ = s/n`) and
//! `σⱼ² = G[j,j]/n − μⱼ²`:
//!
//! * **centering**: `(X − 1μᵀ)ᵀ(X − 1μᵀ) = G − n·μμᵀ`;
//! * **standardization**: divide the centered Gram by `σᵢσⱼ`
//!   (zero-variance columns keep scale 1, i.e. centered only — matching
//!   [`crate::Dataset::standardize_columns`]).
//!
//! So ingestion always accumulates *raw* moments in one pass and folds the
//! requested preprocessing in at finalization — no second pass over the
//! data, which is the point for datasets that never fit in memory.

use crate::dataset::Dataset;
use crate::io::io_err;
use least_linalg::serialize::{
    read_dense, write_dense, write_f64_slice, write_file_atomic, write_u32, write_u64, Envelope,
};
use least_linalg::{DenseMatrix, LinalgError, Result};
use std::path::Path;

/// Magic bytes opening a serialized sufficient-statistics artifact.
pub const STATS_MAGIC: &[u8; 8] = b"LEASTSST";

/// Current sufficient-statistics artifact format version.
pub const STATS_VERSION: u32 = 1;

const ENVELOPE: Envelope = Envelope::new(STATS_MAGIC, STATS_VERSION);

/// Which preprocessing was folded into [`SufficientStats::gram`]. The
/// discriminant is the artifact's on-disk tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preprocess {
    /// Raw second moments `XᵀX`.
    Raw = 0,
    /// Column-centered: `(X − 1μᵀ)ᵀ(X − 1μᵀ)`.
    Center = 1,
    /// Column-standardized (zero-variance columns centered only).
    Standardize = 2,
}

impl Preprocess {
    fn from_tag(tag: u32) -> Result<Self> {
        [Preprocess::Raw, Preprocess::Center, Preprocess::Standardize]
            .into_iter()
            .find(|p| *p as u32 == tag)
            .ok_or_else(|| LinalgError::InvalidArgument(format!("unknown preprocess tag {tag}")))
    }
}

/// One-pass sufficient statistics of an `n × d` dataset: everything the
/// Gram-path trainer and the OLS parameter fitter need, in `O(d²)` space.
#[derive(Debug, Clone, PartialEq)]
pub struct SufficientStats {
    /// `d × d` second-moment matrix with [`Self::preprocess`] folded in.
    pub gram: DenseMatrix,
    /// Raw column means `μ` (of the unpreprocessed stream).
    pub means: Vec<f64>,
    /// Raw column standard deviations `σ` (population convention).
    pub scales: Vec<f64>,
    /// Sample count `n`.
    pub n: u64,
    /// The preprocessing folded into [`Self::gram`].
    pub preprocess: Preprocess,
}

impl SufficientStats {
    /// Variable count `d`.
    pub fn dim(&self) -> usize {
        self.gram.rows()
    }

    /// Exact statistics of an in-memory dataset.
    ///
    /// This path materializes the preprocessed matrix and computes
    /// `XᵀX` directly (via `t_matmul`), so the resulting Gram is
    /// **bit-identical** to what the raw-data training path computes on
    /// the same preprocessed matrix — the property the engine parity
    /// tests pin down. The algebraic fold (no second pass, no copy) is
    /// [`Self::from_raw_moments`], which the streaming ingestion layer
    /// uses; the two agree to rounding (≤ 1e-9 relative in practice).
    pub fn from_dataset(data: &Dataset, preprocess: Preprocess) -> Result<Self> {
        let n = data.num_samples();
        if n == 0 {
            return Err(LinalgError::InvalidArgument(
                "cannot take statistics of an empty dataset".into(),
            ));
        }
        let means = data.means();
        let scales = data.std_devs();
        let gram = match preprocess {
            Preprocess::Raw => data.matrix().t_matmul(data.matrix())?,
            Preprocess::Center => {
                let mut c = data.clone();
                c.center_columns();
                c.matrix().t_matmul(c.matrix())?
            }
            Preprocess::Standardize => {
                let mut c = data.clone();
                c.standardize_columns();
                c.matrix().t_matmul(c.matrix())?
            }
        };
        Ok(Self {
            gram,
            means,
            scales,
            n: n as u64,
            preprocess,
        })
    }

    /// Fold raw streaming moments (`gram = XᵀX`, `col_sums = Xᵀ1`) into
    /// finalized statistics — the out-of-core path: one pass produced the
    /// raw moments, and centering/standardization are applied
    /// algebraically here (see the module docs).
    pub fn from_raw_moments(
        mut gram: DenseMatrix,
        col_sums: Vec<f64>,
        n: u64,
        preprocess: Preprocess,
    ) -> Result<Self> {
        let d = gram.rows();
        if !gram.is_square() {
            return Err(LinalgError::NotSquare {
                shape: gram.shape(),
            });
        }
        if col_sums.len() != d {
            return Err(LinalgError::ShapeMismatch {
                found: (col_sums.len(), 1),
                expected: (d, 1),
            });
        }
        if n == 0 {
            return Err(LinalgError::InvalidArgument(
                "cannot finalize statistics over zero samples".into(),
            ));
        }
        let nf = n as f64;
        let means: Vec<f64> = col_sums.iter().map(|s| s / nf).collect();
        let scales: Vec<f64> = (0..d)
            .map(|j| (gram[(j, j)] / nf - means[j] * means[j]).max(0.0).sqrt())
            .collect();
        match preprocess {
            Preprocess::Raw => {}
            Preprocess::Center | Preprocess::Standardize => {
                for i in 0..d {
                    for j in 0..d {
                        gram[(i, j)] -= nf * means[i] * means[j];
                    }
                }
                if preprocess == Preprocess::Standardize {
                    let unit = |s: f64| if s > 0.0 { s } else { 1.0 };
                    for i in 0..d {
                        for j in 0..d {
                            gram[(i, j)] /= unit(scales[i]) * unit(scales[j]);
                        }
                    }
                }
            }
        }
        Ok(Self {
            gram,
            means,
            scales,
            n,
            preprocess,
        })
    }

    /// Unfold entry `(i, j)` of the **raw** second-moment matrix `XᵀX`,
    /// whatever preprocessing was folded in — the quantity per-node OLS
    /// normal equations are built from.
    pub fn raw_second_moment(&self, i: usize, j: usize) -> f64 {
        let nf = self.n as f64;
        let unit = |s: f64| if s > 0.0 { s } else { 1.0 };
        match self.preprocess {
            Preprocess::Raw => self.gram[(i, j)],
            Preprocess::Center => self.gram[(i, j)] + nf * self.means[i] * self.means[j],
            Preprocess::Standardize => {
                self.gram[(i, j)] * unit(self.scales[i]) * unit(self.scales[j])
                    + nf * self.means[i] * self.means[j]
            }
        }
    }

    /// Serialize as a versioned, checksummed `LEASTSST` envelope (see
    /// DESIGN.md §9.2, §12) with body `preprocess | n | d | means | scales
    /// | gram`. Bit patterns throughout — save → load → save is
    /// byte-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        let d = self.dim();
        ENVELOPE.encode(36 + 16 * d + 8 * d * d, |out| {
            write_u32(out, self.preprocess as u32);
            write_u64(out, self.n);
            write_u64(out, d as u64);
            write_f64_slice(out, &self.means);
            write_f64_slice(out, &self.scales);
            write_dense(out, &self.gram);
        })
    }

    /// Deserialize an artifact written by [`Self::to_bytes`], validating
    /// magic, version, checksum and internal shape consistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ENVELOPE.open(bytes)?;
        let preprocess = Preprocess::from_tag(r.read_u32()?)?;
        let n = r.read_u64()?;
        let d = r.read_dim()?;
        let means = r.read_f64_vec(d)?;
        let scales = r.read_f64_vec(d)?;
        let gram = read_dense(&mut r)?;
        if gram.shape() != (d, d) {
            return Err(LinalgError::ShapeMismatch {
                found: gram.shape(),
                expected: (d, d),
            });
        }
        r.finish()?;
        if n == 0 {
            return Err(LinalgError::InvalidArgument(
                "LEASTSST artifact declares zero samples".into(),
            ));
        }
        Ok(Self {
            gram,
            means,
            scales,
            n,
            preprocess,
        })
    }

    /// Write the artifact to a file, crash-safely (temp file + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        write_file_atomic(path, &self.to_bytes()).map_err(io_err)
    }

    /// Load an artifact from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_bytes(&std::fs::read(path).map_err(io_err)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_linalg::Xoshiro256pp;

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256pp::new(seed);
        Dataset::new(DenseMatrix::from_fn(n, d, |_, _| {
            rng.gaussian() + 0.7 // non-zero means make centering non-trivial
        }))
    }

    fn raw_moments(data: &Dataset) -> (DenseMatrix, Vec<f64>) {
        let g = data.matrix().t_matmul(data.matrix()).unwrap();
        (g, data.matrix().col_sums())
    }

    #[test]
    fn raw_stats_match_t_matmul() {
        let data = random_dataset(40, 5, 21);
        let stats = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
        let direct = data.matrix().t_matmul(data.matrix()).unwrap();
        assert!(stats.gram.approx_eq(&direct, 0.0)); // bit-identical path
        assert_eq!(stats.n, 40);
        assert_eq!(stats.means, data.means());
    }

    #[test]
    fn algebraic_fold_matches_materialized_preprocessing() {
        let data = random_dataset(60, 4, 22);
        let (g, sums) = raw_moments(&data);
        for preprocess in [Preprocess::Raw, Preprocess::Center, Preprocess::Standardize] {
            let folded =
                SufficientStats::from_raw_moments(g.clone(), sums.clone(), 60, preprocess).unwrap();
            let direct = SufficientStats::from_dataset(&data, preprocess).unwrap();
            let scale = direct.gram.max_abs().max(1.0);
            assert!(
                folded.gram.approx_eq(&direct.gram, 1e-9 * scale),
                "{preprocess:?}: max diff {}",
                folded.gram.max_abs_diff(&direct.gram).unwrap()
            );
        }
    }

    #[test]
    fn standardize_keeps_constant_columns_finite() {
        let mut x = DenseMatrix::zeros(5, 2);
        for s in 0..5 {
            x[(s, 0)] = 3.0; // constant column: zero variance
            x[(s, 1)] = s as f64;
        }
        let data = Dataset::new(x);
        let (g, sums) = raw_moments(&data);
        let stats = SufficientStats::from_raw_moments(g, sums, 5, Preprocess::Standardize).unwrap();
        assert!(stats.gram.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(stats.scales[0], 0.0);
        // Centered constant column contributes nothing.
        assert!(stats.gram[(0, 0)].abs() < 1e-9);
    }

    #[test]
    fn raw_second_moment_unfolds_every_preprocess() {
        let data = random_dataset(30, 3, 23);
        let raw = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
        for preprocess in [Preprocess::Center, Preprocess::Standardize] {
            let stats = SufficientStats::from_dataset(&data, preprocess).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    let expected = raw.gram[(i, j)];
                    let got = stats.raw_second_moment(i, j);
                    assert!(
                        (expected - got).abs() < 1e-9 * expected.abs().max(1.0),
                        "{preprocess:?} ({i},{j}): {expected} vs {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn artifact_round_trip_is_byte_identical() {
        let data = random_dataset(25, 6, 24);
        let stats = SufficientStats::from_dataset(&data, Preprocess::Center).unwrap();
        let bytes = stats.to_bytes();
        let back = SufficientStats::from_bytes(&bytes).unwrap();
        assert_eq!(back, stats);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_artifact_rejected() {
        let data = random_dataset(10, 3, 25);
        let stats = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
        let bytes = stats.to_bytes();
        // Truncations at various prefixes.
        for cut in [0, 7, 20, bytes.len() - 9, bytes.len() - 1] {
            assert!(
                SufficientStats::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut} accepted"
            );
        }
        // Single-byte corruption is caught by the checksum.
        let mut flipped = bytes.clone();
        flipped[30] ^= 0x40;
        assert!(SufficientStats::from_bytes(&flipped).is_err());
        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(SufficientStats::from_bytes(&wrong).is_err());
    }

    #[test]
    fn invalid_moments_rejected() {
        assert!(SufficientStats::from_raw_moments(
            DenseMatrix::zeros(2, 3),
            vec![0.0; 2],
            5,
            Preprocess::Raw
        )
        .is_err());
        assert!(SufficientStats::from_raw_moments(
            DenseMatrix::zeros(2, 2),
            vec![0.0; 3],
            5,
            Preprocess::Raw
        )
        .is_err());
        assert!(SufficientStats::from_raw_moments(
            DenseMatrix::zeros(2, 2),
            vec![0.0; 2],
            0,
            Preprocess::Raw
        )
        .is_err());
    }
}
