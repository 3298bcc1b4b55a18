//! The NOTEARS acyclicity function (Eq. 2 of the paper):
//!
//! ```text
//! h(W) = tr(e^{W∘W}) − d,      ∇_W h = (e^{W∘W})ᵀ ∘ 2W.
//! ```
//!
//! `h(W) = 0` iff `G(W)` is a DAG: `tr(Sᵏ)` sums the weights of all
//! `k`-cycles, and the exponential series weights every cycle length
//! positively. Evaluation costs `O(d³)` time and `O(d²)` space — the
//! bottleneck the paper's spectral bound eliminates.

use least_core::Acyclicity;
use least_linalg::{expm, DenseMatrix, Result};

/// Matrix-exponential acyclicity constraint.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpAcyclicity;

impl Acyclicity for ExpAcyclicity {
    fn value(&self, w: &DenseMatrix) -> Result<f64> {
        let s = w.hadamard_square();
        Ok(expm::expm_trace(&s)? - w.rows() as f64)
    }

    fn value_and_gradient(&self, w: &DenseMatrix) -> Result<(f64, DenseMatrix)> {
        let d = w.rows();
        let s = w.hadamard_square();
        let e = expm::expm(&s)?;
        let value = e.trace()? - d as f64;
        // ∇_S tr(e^S) = (e^S)ᵀ; chain through S = W∘W.
        let mut grad = e.transpose().hadamard(w)?;
        grad.scale_inplace(2.0);
        Ok((value, grad))
    }

    fn name(&self) -> &'static str {
        "notears-expm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_core::constraint::testing::check_gradient;
    use least_linalg::Xoshiro256pp;

    #[test]
    fn zero_on_dags() {
        let w = DenseMatrix::from_rows(&[&[0.0, 1.3, -0.7], &[0.0, 0.0, 0.9], &[0.0, 0.0, 0.0]])
            .unwrap();
        let h = ExpAcyclicity.value(&w).unwrap();
        assert!(h.abs() < 1e-10, "h = {h}");
    }

    #[test]
    fn positive_on_cycles() {
        let w = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let h = ExpAcyclicity.value(&w).unwrap();
        // tr(e^S) for S = [[0,1],[1,0]] is 2 cosh(1).
        assert!((h - (2.0 * 1f64.cosh() - 2.0)).abs() < 1e-10);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Xoshiro256pp::new(501);
        let d = 6;
        let mut w = DenseMatrix::from_fn(d, d, |_, _| {
            if rng.bernoulli(0.5) {
                rng.uniform(-0.8, 0.8)
            } else {
                0.0
            }
        });
        w.zero_diagonal();
        check_gradient(&ExpAcyclicity, &w, 1e-6, 1e-5);
    }

    #[test]
    fn gradient_zero_where_w_is_zero() {
        // ∇ = (e^S)ᵀ ∘ 2W vanishes off the support of W.
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 1)] = 0.5;
        w[(1, 0)] = 0.5;
        let (_, g) = ExpAcyclicity.value_and_gradient(&w).unwrap();
        assert_eq!(g[(0, 2)], 0.0);
        assert_eq!(g[(2, 1)], 0.0);
        assert!(g[(0, 1)] > 0.0);
    }

    #[test]
    fn h_grows_with_cycle_strength() {
        let mk = |a: f64| {
            let mut w = DenseMatrix::zeros(2, 2);
            w[(0, 1)] = a;
            w[(1, 0)] = a;
            w
        };
        let weak = ExpAcyclicity.value(&mk(0.3)).unwrap();
        let strong = ExpAcyclicity.value(&mk(1.0)).unwrap();
        assert!(strong > weak);
    }
}
