//! The DAG-GNN polynomial acyclicity relaxation (Eq. 3 of the paper):
//!
//! ```text
//! g(S) = tr((I + cS)^d) − d,      ∇_S g = d·c·((I + cS)^{d−1})ᵀ.
//! ```
//!
//! With `c = 1` this is the paper's literal Eq. (3); the default `c = 1/d`
//! (Yu et al.'s choice) keeps the binomial weights from overflowing for
//! `d` beyond a few dozen. `g(S) = 0` iff the graph is a DAG, because a
//! simple cycle has length at most `d` and every power `Sᵏ, k ≤ d` appears
//! with positive coefficient in the expansion.

use least_core::Acyclicity;
use least_linalg::{matpow, DenseMatrix, Result};

/// Polynomial acyclicity constraint.
#[derive(Debug, Clone, Copy)]
pub struct PolyAcyclicity {
    /// Scale factor `c` applied to `S` inside the power.
    pub scale: PolyScale,
}

/// Choice of the polynomial's scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolyScale {
    /// `c = 1/d` (DAG-GNN; numerically stable, the default).
    OneOverD,
    /// `c = 1` (the paper's literal Eq. 3; overflows for large `d·‖S‖`).
    One,
}

impl Default for PolyAcyclicity {
    fn default() -> Self {
        Self {
            scale: PolyScale::OneOverD,
        }
    }
}

impl PolyAcyclicity {
    fn c(&self, d: usize) -> f64 {
        match self.scale {
            PolyScale::OneOverD => 1.0 / d.max(1) as f64,
            PolyScale::One => 1.0,
        }
    }

    fn base(&self, w: &DenseMatrix) -> DenseMatrix {
        let d = w.rows();
        let c = self.c(d);
        let mut m = w.hadamard_square();
        m.scale_inplace(c);
        for i in 0..d {
            m[(i, i)] += 1.0;
        }
        m
    }
}

impl Acyclicity for PolyAcyclicity {
    fn value(&self, w: &DenseMatrix) -> Result<f64> {
        let d = w.rows();
        let m = self.base(w);
        Ok(matpow::matrix_power_trace(&m, d as u64)? - d as f64)
    }

    fn value_and_gradient(&self, w: &DenseMatrix) -> Result<(f64, DenseMatrix)> {
        let d = w.rows();
        let c = self.c(d);
        let m = self.base(w);
        // (I + cS)^{d-1}, then one more multiply for the value.
        let p = matpow::matrix_power(&m, d.saturating_sub(1) as u64)?;
        let value = p.matmul(&m)?.trace()? - d as f64;
        // ∇_S g = d·c·Pᵀ; chain through S = W∘W gives ∘ 2W.
        let mut grad = p.transpose().hadamard(w)?;
        grad.scale_inplace(2.0 * d as f64 * c);
        Ok((value, grad))
    }

    fn name(&self) -> &'static str {
        "dag-gnn-poly"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_core::constraint::testing::check_gradient;
    use least_linalg::Xoshiro256pp;

    #[test]
    fn zero_on_dags_both_scales() {
        let w = DenseMatrix::from_rows(&[&[0.0, 1.3, -0.7], &[0.0, 0.0, 0.9], &[0.0, 0.0, 0.0]])
            .unwrap();
        for scale in [PolyScale::OneOverD, PolyScale::One] {
            let g = PolyAcyclicity { scale }.value(&w).unwrap();
            assert!(g.abs() < 1e-9, "{scale:?}: g = {g}");
        }
    }

    #[test]
    fn positive_on_cycles() {
        let w = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        // d=2, c=1/2: tr((I + S/2)^2) − 2 = tr(I + S + S²/4) − 2 = 2·(1/4).
        let g = PolyAcyclicity::default().value(&w).unwrap();
        assert!((g - 0.5).abs() < 1e-12, "g = {g}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Xoshiro256pp::new(502);
        let d = 6;
        let mut w = DenseMatrix::from_fn(d, d, |_, _| {
            if rng.bernoulli(0.5) {
                rng.uniform(-0.8, 0.8)
            } else {
                0.0
            }
        });
        w.zero_diagonal();
        check_gradient(&PolyAcyclicity::default(), &w, 1e-6, 1e-5);
    }

    #[test]
    fn gradient_matches_finite_differences_scale_one() {
        let mut rng = Xoshiro256pp::new(503);
        let d = 5;
        let mut w = DenseMatrix::from_fn(d, d, |_, _| {
            if rng.bernoulli(0.4) {
                rng.uniform(-0.5, 0.5)
            } else {
                0.0
            }
        });
        w.zero_diagonal();
        check_gradient(
            &PolyAcyclicity {
                scale: PolyScale::One,
            },
            &w,
            1e-6,
            1e-4,
        );
    }

    #[test]
    fn consistent_with_expm_ordering() {
        // Both metrics rank cycle strength the same way.
        let mk = |a: f64| {
            let mut w = DenseMatrix::zeros(3, 3);
            w[(0, 1)] = a;
            w[(1, 2)] = a;
            w[(2, 0)] = a;
            w
        };
        let poly = PolyAcyclicity::default();
        let weak = poly.value(&mk(0.4)).unwrap();
        let strong = poly.value(&mk(1.2)).unwrap();
        assert!(strong > weak);
        assert!(weak > 0.0);
    }
}
