//! The NO-BEARS-style spectral-radius constraint — the paper's reference
//! \[18\] (Lee et al., *Scaling structural learning with NO-BEARS*), which
//! used the spectral radius `ρ(S)` itself as the acyclicity measure.
//!
//! `ρ` is estimated with a fixed number of power-iteration steps
//! maintaining approximate left/right Perron vectors `u, v`; the gradient
//! treats them as constants (the NO-BEARS approximation):
//!
//! ```text
//! ρ(S) ≈ uᵀ S v / (uᵀ v),    ∇_S ρ ≈ u vᵀ / (uᵀ v).
//! ```
//!
//! The paper's Section III-A motivates LEAST against exactly this design:
//! computing `ρ` accurately needs `O(d²)`–`O(d³)` work and its gradient is
//! dense rank-one — the iterated bound `δ̄` avoids both. Having \[18\] as a
//! third [`Acyclicity`] implementation lets the ablation harness compare
//! all three generations of constraint on identical machinery.

use least_core::Acyclicity;
use least_linalg::{DenseMatrix, Result};

/// Power-iteration spectral-radius constraint (NO-BEARS \[18\]).
#[derive(Debug, Clone, Copy)]
pub struct RadiusAcyclicity {
    /// Power-iteration steps per evaluation (NO-BEARS uses a handful).
    pub iterations: usize,
    /// Shift added to `S` during iteration to damp oscillation on
    /// near-periodic matrices (removed from the returned value).
    pub shift: f64,
}

impl Default for RadiusAcyclicity {
    fn default() -> Self {
        Self {
            iterations: 25,
            shift: 1e-6,
        }
    }
}

impl RadiusAcyclicity {
    /// Run power iteration on `S + shift·I`, returning `(rho, u, v)`.
    fn perron(&self, s: &DenseMatrix) -> (f64, Vec<f64>, Vec<f64>) {
        let d = s.rows();
        let mut v = vec![1.0 / (d as f64).sqrt(); d];
        let mut u = v.clone();
        for _ in 0..self.iterations {
            // v <- normalize((S + shift I) v); u <- normalize((S + shift I)^T u)
            let mut nv = s.matvec(&v).expect("square");
            let mut nu = s.vecmat(&u).expect("square");
            for i in 0..d {
                nv[i] += self.shift * v[i];
                nu[i] += self.shift * u[i];
            }
            normalize(&mut nv);
            normalize(&mut nu);
            v = nv;
            u = nu;
        }
        let sv = s.matvec(&v).expect("square");
        let uv: f64 = u.iter().zip(&v).map(|(&a, &b)| a * b).sum();
        let usv: f64 = u.iter().zip(&sv).map(|(&a, &b)| a * b).sum();
        let rho = if uv.abs() > 1e-12 { usv / uv } else { 0.0 };
        (rho.max(0.0), u, v)
    }
}

fn normalize(x: &mut [f64]) {
    let n = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if n > 0.0 {
        for v in x {
            *v /= n;
        }
    }
}

impl Acyclicity for RadiusAcyclicity {
    fn value(&self, w: &DenseMatrix) -> Result<f64> {
        let s = w.hadamard_square();
        Ok(self.perron(&s).0)
    }

    fn value_and_gradient(&self, w: &DenseMatrix) -> Result<(f64, DenseMatrix)> {
        let d = w.rows();
        let s = w.hadamard_square();
        let (rho, u, v) = self.perron(&s);
        let uv: f64 = u.iter().zip(&v).map(|(&a, &b)| a * b).sum();
        let mut grad = DenseMatrix::zeros(d, d);
        if uv.abs() > 1e-12 {
            // ∇_S ρ ≈ u vᵀ / (uᵀ v); chain through S = W∘W.
            let inv = 1.0 / uv;
            for i in 0..d {
                let row = grad.row_mut(i);
                for (j, g) in row.iter_mut().enumerate() {
                    *g = u[i] * v[j] * inv * 2.0 * w[(i, j)];
                }
            }
        }
        Ok((rho, grad))
    }

    fn name(&self) -> &'static str {
        "no-bears-radius"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_linalg::Xoshiro256pp;

    #[test]
    fn zero_on_dags() {
        let w = DenseMatrix::from_rows(&[&[0.0, 1.3, -0.7], &[0.0, 0.0, 0.9], &[0.0, 0.0, 0.0]])
            .unwrap();
        let rho = RadiusAcyclicity::default().value(&w).unwrap();
        assert!(rho < 1e-5, "rho = {rho}");
    }

    #[test]
    fn recovers_cycle_radius() {
        // 2-cycle with |w| = 1: S has entries 1, rho(S) = 1.
        let w = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let rho = RadiusAcyclicity {
            iterations: 60,
            shift: 0.05,
        }
        .value(&w)
        .unwrap();
        assert!((rho - 1.0).abs() < 1e-3, "rho = {rho}");
    }

    #[test]
    fn gradient_points_up_cycle_edges() {
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 1)] = 0.8;
        w[(1, 0)] = 0.9;
        let (rho, g) = RadiusAcyclicity::default().value_and_gradient(&w).unwrap();
        assert!(rho > 0.3);
        assert!(g[(0, 1)] > 0.0);
        assert!(g[(1, 0)] > 0.0);
        // Off-cycle entries where W = 0 get zero gradient (chain rule).
        assert_eq!(g[(0, 2)], 0.0);
    }

    #[test]
    fn approximate_gradient_tracks_finite_differences_on_cycles() {
        // The NO-BEARS gradient is an approximation; on a clean dominant
        // cycle it should still be directionally accurate.
        let mut rng = Xoshiro256pp::new(911);
        let mut w = DenseMatrix::zeros(4, 4);
        w[(0, 1)] = 1.2;
        w[(1, 2)] = 0.9;
        w[(2, 0)] = 1.1;
        w[(3, 0)] = 0.4 * rng.next_f64() + 0.3;
        let c = RadiusAcyclicity {
            iterations: 80,
            shift: 0.02,
        };
        let (_, g) = c.value_and_gradient(&w).unwrap();
        let step = 1e-5;
        for (i, j) in [(0usize, 1usize), (1, 2), (2, 0)] {
            let mut plus = w.clone();
            plus[(i, j)] += step;
            let mut minus = w.clone();
            minus[(i, j)] -= step;
            let numeric = (c.value(&plus).unwrap() - c.value(&minus).unwrap()) / (2.0 * step);
            assert!(
                (g[(i, j)] - numeric).abs() < 0.15 * numeric.abs().max(0.1),
                "({i},{j}): approx {} vs numeric {numeric}",
                g[(i, j)]
            );
        }
    }

    #[test]
    fn solver_integration_smoke() {
        // The constraint drives a small solve without blowing up.
        use least_core::{LeastConfig, LeastDense};
        use least_data::{sample_lsem, Dataset, NoiseModel};
        use least_graph::{weighted_adjacency_dense, DiGraph, WeightRange};
        let mut rng = Xoshiro256pp::new(912);
        let truth = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let wt = weighted_adjacency_dense(&truth, WeightRange { lo: 1.0, hi: 2.0 }, &mut rng);
        let x = sample_lsem(&wt, 400, NoiseModel::standard_gaussian(), &mut rng).unwrap();
        let mut cfg = LeastConfig {
            lambda: 0.05,
            epsilon: 1e-4,
            max_outer: 8,
            max_inner: 300,
            ..Default::default()
        };
        cfg.adam.learning_rate = 0.02;
        let result = LeastDense::new(cfg)
            .unwrap()
            .fit_with_constraint(&Dataset::new(x), &RadiusAcyclicity::default())
            .unwrap();
        assert!(
            result.final_constraint < 1e-3,
            "rho = {}",
            result.final_constraint
        );
        assert!(result.graph(0.3).is_dag());
    }
}
