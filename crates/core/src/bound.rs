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
//! per the paper). Everything here is `O(k·nnz)` time, `O(nnz)` space.
//!
//! Numerical guard (DESIGN.md §6): fractional powers of row/column sums use
//! an ε-floor so gradients stay finite; exact zeros stay exactly zero so
//! the paper's `D⁻¹[i,i] = 0` convention is preserved.

use crate::constraint::Acyclicity;
use crate::grad;
use least_linalg::vecops::powf_floored;
use least_linalg::{par, CsrMatrix, DenseMatrix, LinalgError, Result};

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

    /// Dense forward pass, retaining per-level state for the backward pass.
    pub fn forward_dense(&self, w: &DenseMatrix) -> Result<SpectralBoundForward> {
        if !w.is_square() {
            return Err(LinalgError::NotSquare { shape: w.shape() });
        }
        let mut levels = Vec::with_capacity(self.k + 1);
        let mut s = w.hadamard_square();
        for j in 0..=self.k {
            let r = s.row_sums();
            let c = s.col_sums();
            let b = combine_sums(&r, &c, self.alpha);
            let advance = j < self.k;
            let next = if advance {
                Some(diag_similarity_dense(&s, &b))
            } else {
                None
            };
            levels.push(BoundLevel { s, r, c, b });
            match next {
                Some(n) => s = n,
                None => break,
            }
        }
        let delta = levels.last().expect("k+1 levels").b.iter().sum();
        Ok(SpectralBoundForward {
            alpha: self.alpha,
            delta,
            levels,
        })
    }

    /// Sparse forward pass (`O(k·nnz)`), retaining per-level state.
    pub fn forward_sparse(&self, w: &CsrMatrix) -> Result<SparseBoundForward> {
        if w.rows() != w.cols() {
            return Err(LinalgError::NotSquare { shape: w.shape() });
        }
        let mut levels = Vec::with_capacity(self.k + 1);
        let mut s = w.hadamard_square();
        for j in 0..=self.k {
            let r = s.row_sums();
            let c = s.col_sums();
            let b = combine_sums(&r, &c, self.alpha);
            let advance = j < self.k;
            let next = if advance {
                let mut n = s.clone();
                n.diag_similarity_inplace(&b)?;
                Some(n)
            } else {
                None
            };
            levels.push(SparseBoundLevel { s, r, c, b });
            match next {
                Some(n) => s = n,
                None => break,
            }
        }
        let delta = levels.last().expect("k+1 levels").b.iter().sum();
        Ok(SparseBoundForward {
            alpha: self.alpha,
            delta,
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

/// Dense `D⁻¹ S D`: `S[i,l]·b[l]/b[i]`, zero row/col where `b` vanishes.
/// Output rows are independent — computed row-parallel for large `d`.
fn diag_similarity_dense(s: &DenseMatrix, b: &[f64]) -> DenseMatrix {
    let d = s.rows();
    let inv: Vec<f64> = b
        .iter()
        .map(|&x| if x > 0.0 { 1.0 / x } else { 0.0 })
        .collect();
    let mut out = DenseMatrix::zeros(d, d);
    let (grain, row_start) = (dense_row_grain(d) * d, |i: usize| i * d);
    par::for_each_split_mut(out.as_mut_slice(), d, grain, row_start, |rows, block| {
        for (i, row_out) in rows.zip(block.chunks_mut(d)) {
            let inv_i = inv[i];
            if inv_i == 0.0 {
                continue;
            }
            for ((o, &v), &bl) in row_out.iter_mut().zip(s.row(i)).zip(b) {
                *o = v * inv_i * bl;
            }
        }
    });
    out
}

/// Minimum rows per block for `d×d` row-parallel loops: keeps each block
/// above ~16k elements so threading never pessimizes small solves.
pub(crate) fn dense_row_grain(d: usize) -> usize {
    ((1 << 14) / d.max(1)).max(1)
}

/// One refinement level of the forward pass (dense).
#[derive(Debug, Clone)]
pub(crate) struct BoundLevel {
    /// `S^(j)`.
    pub s: DenseMatrix,
    /// Row sums of `S^(j)`.
    pub r: Vec<f64>,
    /// Column sums of `S^(j)`.
    pub c: Vec<f64>,
    /// `b^(j)`.
    pub b: Vec<f64>,
}

/// Retained dense forward state; feed to [`grad::backward_dense`].
#[derive(Debug, Clone)]
pub struct SpectralBoundForward {
    pub(crate) alpha: f64,
    /// The bound value `δ̄^(k)`.
    pub delta: f64,
    pub(crate) levels: Vec<BoundLevel>,
}

/// One refinement level of the forward pass (sparse).
#[derive(Debug, Clone)]
pub(crate) struct SparseBoundLevel {
    pub s: CsrMatrix,
    pub r: Vec<f64>,
    pub c: Vec<f64>,
    pub b: Vec<f64>,
}

/// Retained sparse forward state; feed to [`grad::backward_sparse`].
#[derive(Debug, Clone)]
pub struct SparseBoundForward {
    pub(crate) alpha: f64,
    /// The bound value `δ̄^(k)`.
    pub delta: f64,
    pub(crate) levels: Vec<SparseBoundLevel>,
}

impl Acyclicity for SpectralBound {
    fn value(&self, w: &DenseMatrix) -> Result<f64> {
        self.value_dense(w)
    }

    fn gradient(&self, w: &DenseMatrix) -> Result<DenseMatrix> {
        let fwd = self.forward_dense(w)?;
        Ok(grad::backward_dense(&fwd, w))
    }

    fn value_and_gradient(&self, w: &DenseMatrix) -> Result<(f64, DenseMatrix)> {
        let fwd = self.forward_dense(w)?;
        let g = grad::backward_dense(&fwd, w);
        Ok((fwd.delta, g))
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
        // Diagonal similarity preserves eigenvalues; check the trace of
        // each level as a cheap spectral invariant... trace is preserved
        // only where b > 0; use a strongly connected example so b > 0.
        let w = DenseMatrix::from_rows(&[&[0.0, 0.9, 0.0], &[0.4, 0.0, 0.8], &[0.5, 0.3, 0.0]])
            .unwrap();
        let fwd = bound().forward_dense(&w).unwrap();
        let t0 = fwd.levels[0].s.trace().unwrap();
        for level in &fwd.levels[1..] {
            assert!((level.s.trace().unwrap() - t0).abs() < 1e-9);
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
        assert!(bound().value_dense(&DenseMatrix::zeros(2, 3)).is_err());
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
