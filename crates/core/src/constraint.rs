//! The differentiable-acyclicity abstraction.
//!
//! Fig. 1 of the paper frames three generations of structure learning:
//! combinatorial search, continuous optimization with `h(W) = tr(e^{W∘W})−d`
//! (NOTEARS), and continuous optimization with a spectral-radius upper
//! bound (LEAST). Generations two and three differ *only* in the constraint
//! function, so the solvers in this crate are generic over this trait; the
//! `least-notears` crate plugs its constraints into the identical machinery,
//! which is what makes the benchmark comparisons apples-to-apples.

use least_linalg::{DenseMatrix, Result};

/// A smooth non-negative function `c(W) ≥ 0` with `c(W) = 0` iff (or, for
/// upper bounds, only if) `G(W)` is a DAG, together with its gradient.
pub trait Acyclicity {
    /// Evaluate `c(W)`.
    fn value(&self, w: &DenseMatrix) -> Result<f64>;

    /// Evaluate `c(W)` and `∇_W c(W)` together (every implementation
    /// shares work between the two).
    fn value_and_gradient(&self, w: &DenseMatrix) -> Result<(f64, DenseMatrix)>;

    /// Short identifier used in benchmark output.
    fn name(&self) -> &'static str;
}

/// Test support: finite-difference validation of [`Acyclicity`]
/// implementations. Exposed (not `cfg(test)`) so downstream constraint
/// crates (`least-notears`) and integration tests can reuse it.
pub mod testing {
    use super::*;

    /// Central finite-difference check of the gradient of
    /// `value_and_gradient` against `value`,
    /// reusable by every constraint implementation in the workspace.
    /// Panics with a diagnostic on mismatch.
    pub fn check_gradient<C: Acyclicity>(c: &C, w: &DenseMatrix, step: f64, tol: f64) {
        let (_, analytic) = c.value_and_gradient(w).expect("gradient");
        let d = w.rows();
        for i in 0..d {
            for j in 0..d {
                let mut plus = w.clone();
                plus[(i, j)] += step;
                let mut minus = w.clone();
                minus[(i, j)] -= step;
                let numeric = (c.value(&plus).unwrap() - c.value(&minus).unwrap()) / (2.0 * step);
                let a = analytic[(i, j)];
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "grad[{i},{j}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }
}
