//! FORWARD procedure (Fig. 2): the iterated spectral-radius upper bound.
//!
//! Given `S = W ∘ W` (non-negative), the paper computes for `j = 0..k`
//!
//! ```text
//! b^(j) = r(S^(j))^α ∘ c(S^(j))^(1−α)
//! S^(j+1) = Diag(b^(j))⁻¹ · S^(j) · Diag(b^(j))        (Eq. 4/5)
//! δ̄^(k) = Σᵢ b^(k)[i]
//! ```
//!
//! Each `b` is a Perron–Frobenius-style bound: for a non-negative matrix,
//! `ρ(S) ≤ maxᵢ r(S)ᵢᵅ·c(S)ᵢ^{1−α}`, and the sum dominates the max. The
//! diagonal similarity transform preserves the spectrum while shrinking the
//! bound toward `ρ(S)` (Lemma 1; tightens as `k` grows, `k ≈ 5` suffices
//! per the paper). Everything here is `O(k·nnz)` time, `O(k·nnz)` space.
//!
//! There is one pass, on CSR. A dense iterate is converted once
//! ([`SpectralBound::forward_dense`]); its exact zeros carry no gradient
//! (`∇_W δ̄ = 2·G ∘ W`), so dropping them is exact. The similarity
//! transform preserves the pattern, so every level shares it and keeps
//! only its values.
//!
//! Numerical guard (DESIGN.md §6): fractional powers of row/column sums use
//! an ε-floor so gradients stay finite; exact zeros stay exactly zero so
//! the paper's `D⁻¹[i,i] = 0` convention is preserved.

use crate::constraint::Acyclicity;
use crate::grad;
use least_linalg::vecops::powf_floored;
use least_linalg::{CsrMatrix, DenseMatrix, LinalgError, Result};

/// Floor applied inside fractional powers (see module docs).
pub const POW_EPS: f64 = 1e-12;

/// The spectral-radius upper-bound constraint `δ̄(W)` with `k` refinement
/// steps and balance factor `α ∈ (0, 1)`.
#[derive(Debug, Clone, Copy)]
pub struct SpectralBound {
    /// Number of diagonal-similarity refinement steps (paper: 5).
    pub k: usize,
    /// Row/column balance `α` (paper: 0.9). Must lie strictly inside
    /// `(0, 1)`; the boundary values collapse `b` to a pure row or column
    /// sum whose gradient formulas differ.
    pub alpha: f64,
}

impl Default for SpectralBound {
    /// The paper's settings: `k = 5`, `α = 0.9`.
    fn default() -> Self {
        Self { k: 5, alpha: 0.9 }
    }
}

impl SpectralBound {
    /// Construct, validating `α`.
    pub fn new(k: usize, alpha: f64) -> Result<Self> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(LinalgError::InvalidArgument(format!(
                "alpha must be in (0,1), got {alpha}"
            )));
        }
        Ok(Self { k, alpha })
    }

    /// Forward pass on a dense iterate: the CSR pass on its nonzero
    /// entries, which is exact since `∇_W δ̄ = 2·G ∘ W` vanishes off them.
    pub fn forward_dense(&self, w: &DenseMatrix) -> Result<SpectralBoundForward> {
        let mut s = CsrMatrix::from_dense(w, 0.0);
        s.values_mut().iter_mut().for_each(|v| *v *= *v);
        self.forward(s)
    }

    /// Forward pass (`O(k·nnz)`), retaining per-level state for the
    /// backward pass.
    pub fn forward_sparse(&self, w: &CsrMatrix) -> Result<SpectralBoundForward> {
        self.forward(w.hadamard_square())
    }

    /// The k+1 levels from `s = S^(0) = W ∘ W`.
    fn forward(&self, mut s: CsrMatrix) -> Result<SpectralBoundForward> {
        if s.rows() != s.cols() {
            return Err(LinalgError::NotSquare { shape: s.shape() });
        }
        let mut levels = Vec::with_capacity(self.k + 1);
        for j in 0..=self.k {
            let r = s.row_sums();
            let c = s.col_sums();
            let b = combine_sums(&r, &c, self.alpha);
            levels.push(Level {
                s: s.values().to_vec(),
                r,
                c,
                b,
            });
            if j < self.k {
                s.diag_similarity_inplace(&levels[j].b)?;
            }
        }
        Ok(SpectralBoundForward {
            alpha: self.alpha,
            delta: levels[self.k].b.iter().sum(),
            pattern: s,
            levels,
        })
    }

    /// Bound value only (dense).
    pub fn value_dense(&self, w: &DenseMatrix) -> Result<f64> {
        Ok(self.forward_dense(w)?.delta)
    }

    /// Bound value only (sparse).
    pub fn value_sparse(&self, w: &CsrMatrix) -> Result<f64> {
        Ok(self.forward_sparse(w)?.delta)
    }
}

/// `b = r^α ∘ c^(1−α)` with the ε-floor convention.
fn combine_sums(r: &[f64], c: &[f64], alpha: f64) -> Vec<f64> {
    r.iter()
        .zip(c)
        .map(|(&ri, &ci)| {
            if ri <= 0.0 || ci <= 0.0 {
                0.0
            } else {
                powf_floored(ri, alpha, POW_EPS) * powf_floored(ci, 1.0 - alpha, POW_EPS)
            }
        })
        .collect()
}

/// One refinement level of the forward pass.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    /// Values of `S^(j)`, aligned with the shared pattern.
    pub s: Vec<f64>,
    /// Row sums of `S^(j)`.
    pub r: Vec<f64>,
    /// Column sums of `S^(j)`.
    pub c: Vec<f64>,
    /// `b^(j)`.
    pub b: Vec<f64>,
}

/// Retained forward state; feed to [`grad::backward_sparse`] (or
/// [`grad::backward_dense`] after [`SpectralBound::forward_dense`]).
#[derive(Debug, Clone)]
pub struct SpectralBoundForward {
    pub(crate) alpha: f64,
    /// The bound value `δ̄^(k)`.
    pub delta: f64,
    /// The pattern of `W`, which the similarity transform preserves at
    /// every level (values: `S^(k)`).
    pub(crate) pattern: CsrMatrix,
    pub(crate) levels: Vec<Level>,
}

impl Acyclicity for SpectralBound {
    fn value(&self, w: &DenseMatrix) -> Result<f64> {
        self.value_dense(w)
    }

    fn value_and_gradient(&self, w: &DenseMatrix) -> Result<(f64, DenseMatrix)> {
        let fwd = self.forward_dense(w)?;
        Ok((fwd.delta, grad::backward_dense(&fwd, w)))
    }

    fn name(&self) -> &'static str {
        "spectral-bound"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_linalg::power_iter::{spectral_radius_dense, PowerIterConfig};
    use least_linalg::{init, Xoshiro256pp};

    fn bound() -> SpectralBound {
        SpectralBound::default()
    }

    #[test]
    fn alpha_validation() {
        assert!(SpectralBound::new(5, 0.0).is_err());
        assert!(SpectralBound::new(5, 1.0).is_err());
        assert!(SpectralBound::new(5, 0.9).is_ok());
    }

    #[test]
    fn zero_matrix_has_zero_bound() {
        let w = DenseMatrix::zeros(4, 4);
        assert_eq!(bound().value_dense(&w).unwrap(), 0.0);
    }

    #[test]
    fn dag_bound_shrinks_toward_zero_with_k() {
        // For a DAG, ρ(S) = 0. Each similarity step zeroes the b entries of
        // current sources and sinks ("peels" the DAG), so a depth-L chain
        // collapses to bound exactly 0 within ~L/2 steps.
        let d = 10;
        let w = DenseMatrix::from_fn(d, d, |i, j| if j == i + 1 { 0.8 } else { 0.0 });
        let b0 = SpectralBound::new(0, 0.9).unwrap().value_dense(&w).unwrap();
        let b2 = SpectralBound::new(2, 0.9).unwrap().value_dense(&w).unwrap();
        let b8 = SpectralBound::new(8, 0.9).unwrap().value_dense(&w).unwrap();
        assert!(b0 > 0.0);
        assert!(b2 < b0, "b2 {b2} !< b0 {b0}");
        assert_eq!(b8, 0.0, "deep-k bound on a 10-chain should peel to zero");
    }

    #[test]
    fn bound_dominates_spectral_radius_randomized() {
        // Lemma 1: δ̄^(k) ≥ ρ(S) for every k — the soundness property.
        let mut rng = Xoshiro256pp::new(91);
        for trial in 0..20 {
            let d = 12;
            let w = DenseMatrix::from_fn(d, d, |i, j| {
                if i != j && rng.bernoulli(0.25) {
                    rng.uniform(-1.5, 1.5)
                } else {
                    0.0
                }
            });
            let s = w.hadamard_square();
            let rho = spectral_radius_dense(&s, PowerIterConfig::default()).value;
            for k in [0, 1, 3, 5, 8] {
                let b = SpectralBound::new(k, 0.9).unwrap().value_dense(&w).unwrap();
                assert!(
                    b >= rho - 1e-9,
                    "trial {trial}: bound {b} < radius {rho} at k={k}"
                );
            }
        }
    }

    #[test]
    fn bound_exact_for_uniform_cycle() {
        // For a single cycle with equal squared weights, row sums equal
        // column sums equal ρ, so even k = 0 gives Σb = d·ρ... after the
        // transform the bound stays d·ρ (the transform fixes balanced
        // matrices). Verify domination and the d·ρ value.
        let c = 0.7f64;
        let w = DenseMatrix::from_rows(&[&[0.0, c, 0.0], &[0.0, 0.0, c], &[c, 0.0, 0.0]]).unwrap();
        let rho = c * c;
        let b = bound().value_dense(&w).unwrap();
        assert!(
            (b - 3.0 * rho).abs() < 1e-9,
            "bound {b}, 3ρ = {}",
            3.0 * rho
        );
    }

    #[test]
    fn sparse_matches_dense() {
        let mut rng = Xoshiro256pp::new(92);
        let w = init::glorot_sparse(40, 0.1, &mut rng).unwrap();
        let dense_val = bound().value_dense(&w.to_dense()).unwrap();
        let sparse_val = bound().value_sparse(&w).unwrap();
        assert!(
            (dense_val - sparse_val).abs() < 1e-10 * dense_val.max(1.0),
            "dense {dense_val} vs sparse {sparse_val}"
        );
    }

    #[test]
    fn forward_levels_have_constant_spectrum() {
        // Diagonal similarity preserves eigenvalues, hence tr(Sᵐ) at every
        // level, as long as every b > 0 (a strongly connected example).
        // The diagonal is zero, so tr(S) is trivially constant; check
        // tr(S²) and tr(S³), which sum the 2- and 3-cycle weights.
        let w = DenseMatrix::from_rows(&[&[0.0, 0.9, 0.0], &[0.4, 0.0, 0.8], &[0.5, 0.3, 0.0]])
            .unwrap();
        let fwd = bound().forward_dense(&w).unwrap();
        let traces = |level: &Level| {
            let mut s = DenseMatrix::zeros(3, 3);
            for ((i, j, _), &v) in fwd.pattern.iter().zip(&level.s) {
                s[(i, j)] = v;
            }
            let s2 = s.matmul(&s).unwrap();
            let s3 = s2.matmul(&s).unwrap();
            (s2.trace().unwrap(), s3.trace().unwrap())
        };
        let (t2, t3) = traces(&fwd.levels[0]);
        assert!(t2 > 0.0 && t3 > 0.0);
        for level in &fwd.levels[1..] {
            let (l2, l3) = traces(level);
            assert!((l2 - t2).abs() < 1e-9 && (l3 - t3).abs() < 1e-9);
        }
    }

    #[test]
    fn refined_bound_approaches_d_times_radius_on_connected_graphs() {
        // On strongly-connected matrices the per-node bounds b_i each
        // tighten toward ρ(S), so the *sum* converges to d·ρ — it may grow
        // or shrink along the way (no per-step monotonicity), but it must
        // always dominate ρ and approach d·ρ for large k.
        let mut rng = Xoshiro256pp::new(93);
        let d = 15;
        let w = DenseMatrix::from_fn(d, d, |i, j| {
            if i != j && rng.bernoulli(0.3) {
                rng.uniform(-1.0, 1.0)
            } else {
                0.0
            }
        });
        let rho = spectral_radius_dense(&w.hadamard_square(), PowerIterConfig::default()).value;
        for k in [0, 3, 7] {
            let b = SpectralBound::new(k, 0.9).unwrap().value_dense(&w).unwrap();
            assert!(b >= rho - 1e-9, "k={k}: bound {b} < rho {rho}");
        }
        let b20 = SpectralBound::new(20, 0.9)
            .unwrap()
            .value_dense(&w)
            .unwrap();
        let target = d as f64 * rho;
        assert!(
            (b20 - target).abs() < 0.15 * target,
            "k=20 bound {b20} not near d·ρ = {target}"
        );
    }

    #[test]
    fn rejects_non_square() {
        let dense = DenseMatrix::zeros(2, 3);
        for err in [
            bound().forward_dense(&dense).err(),
            bound().forward_sparse(&CsrMatrix::zeros(2, 3)).err(),
            bound().value_and_gradient(&dense).err(),
        ] {
            assert!(
                matches!(err, Some(LinalgError::NotSquare { shape: (2, 3) })),
                "{err:?}"
            );
        }
    }

    #[test]
    fn isolated_nodes_contribute_zero() {
        // Node 2 has no edges at all: its b entry must be exactly 0, not ε.
        let w = DenseMatrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0]])
            .unwrap();
        let fwd = bound().forward_dense(&w).unwrap();
        for level in &fwd.levels {
            assert_eq!(level.b[2], 0.0);
        }
    }
}
