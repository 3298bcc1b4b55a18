//! BACKWARD procedure (Fig. 2): reverse-mode differentiation of the
//! spectral bound, implementing Lemmas 3–5 of the paper.
//!
//! Top level (Lemma 3): with `x = α(c/r)^{1−α}` and `y = (1−α)(r/c)^α`
//! evaluated at the level's row/column sums,
//! `∇_{S^(k)} δ̄ = x ⊕ y` (the outer sum `x[i] + y[l]`).
//!
//! Descent (Lemma 4 / Eq. 7–8): given `G = ∇_{S^(j)} δ̄`, the gradient with
//! respect to the previous level's `b` is
//!
//! ```text
//! z[m] = c(b⁻¹ ∘ (G ∘ S^(j−1)))[m] − r((G ∘ S^(j−1)) ∘ bᵀ)[m] / b[m]²
//! ```
//!
//! and `∇_{S^(j−1)} δ̄ = b⁻¹ ∘ G ∘ bᵀ + (x∘z) ⊕ (y∘z)`.
//!
//! Finally `∇_W δ̄ = 2·∇_{S^(0)} δ̄ ∘ W` (chain rule through `S = W∘W`).
//!
//! **Masking (Lemma 5).** Only entries on the sparsity pattern of `W`
//! survive the final Hadamard product, and every dense cross-term in the
//! recursion is consumed element-wise by `S`-patterned products, so the
//! gradient is propagated *only on the pattern* — `O(k·nnz)` rather than
//! `O(k·d²)` — and is exact (verified against central finite differences
//! in the tests below). The dense entry point is the same pass, scattered
//! into a `d×d` matrix that is zero off the support.

use crate::bound::{SpectralBoundForward, POW_EPS};
use least_linalg::vecops::powf_floored;
use least_linalg::{par, CsrMatrix, DenseMatrix};

/// Minimum pattern slots per block in the backward pass.
const SLOT_GRAIN: usize = 1 << 14;

/// `x[m] = α(c/r)^{1−α}`, `y[m] = (1−α)(r/c)^α`, ε-guarded to match the
/// forward's zero conventions (`b[m] = 0 ⇒ x[m] = y[m] = 0`).
fn xy(r: &[f64], c: &[f64], alpha: f64) -> (Vec<f64>, Vec<f64>) {
    let mut x = Vec::with_capacity(r.len());
    let mut y = Vec::with_capacity(r.len());
    for (&ri, &ci) in r.iter().zip(c) {
        if ri <= 0.0 || ci <= 0.0 {
            x.push(0.0);
            y.push(0.0);
        } else {
            let ratio =
                powf_floored(ci, 1.0 - alpha, POW_EPS) / powf_floored(ri, 1.0 - alpha, POW_EPS);
            x.push(alpha * ratio);
            let ratio2 = powf_floored(ri, alpha, POW_EPS) / powf_floored(ci, alpha, POW_EPS);
            y.push((1.0 - alpha) * ratio2);
        }
    }
    (x, y)
}

/// Guarded reciprocal matching the forward's `D⁻¹[i,i] = 0` convention.
#[inline]
fn inv_or_zero(v: f64) -> f64 {
    if v > 0.0 {
        1.0 / v
    } else {
        0.0
    }
}

/// Dense backward pass: the slot gradient of [`backward_sparse`] on the
/// pattern retained by [`crate::SpectralBound::forward_dense`], scattered
/// into a `d×d` gradient that is exactly zero off the support of `w`.
pub fn backward_dense(fwd: &SpectralBoundForward, w: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(w.rows(), w.cols());
    for ((i, j, _), g) in fwd.pattern.iter().zip(backward_s0(fwd)) {
        out[(i, j)] = 2.0 * g * w[(i, j)];
    }
    out
}

/// Sparse backward pass: the masked gradient values aligned with `w`'s CSR
/// pattern (Lemma 5). Returns a vector parallel to `w.values()` holding
/// `∇_W δ̄` on the support.
pub fn backward_sparse(fwd: &SpectralBoundForward, w: &CsrMatrix) -> Vec<f64> {
    assert!(
        w.row_pointers() == fwd.pattern.row_pointers()
            && w.col_indices() == fwd.pattern.col_indices(),
        "w does not have the pattern the forward pass saw"
    );
    let mut g = backward_s0(fwd);
    for (gv, &wv) in g.iter_mut().zip(w.values()) {
        *gv = 2.0 * *gv * wv;
    }
    g
}

/// `G = ∇_{S^(0)} δ̄` on the retained pattern; `∇_W δ̄ = 2·G ∘ W` there.
fn backward_s0(fwd: &SpectralBoundForward) -> Vec<f64> {
    let levels = &fwd.levels;
    let k = levels.len() - 1;
    let alpha = fwd.alpha;
    let pattern = &fwd.pattern;
    let (d, nnz) = (pattern.rows(), pattern.nnz());
    let (row_ptr, col_of) = (pattern.row_pointers(), pattern.col_indices());
    let start = |r: usize| row_ptr[r] as usize;
    // Rows per block of the z scatter, at the pattern's mean row length.
    let row_grain = (SLOT_GRAIN * d).div_ceil(nnz.max(1));

    // Lemma 3 restricted to the mask.
    let mut g = vec![0.0; nnz];
    let (xk, yk) = xy(&levels[k].r, &levels[k].c, alpha);
    for_each_row(pattern, &mut g, |i, cols, out| {
        for (o, &l) in out.iter_mut().zip(cols) {
            *o = xk[i] + yk[l as usize];
        }
    });

    for level in levels[..k].iter().rev() {
        let (b, s_vals) = (&level.b, &level.s);
        let inv_b: Vec<f64> = b.iter().map(|&v| inv_or_zero(v)).collect();
        let inv_b2: Vec<f64> = b.iter().map(|&v| inv_or_zero(v * v)).collect();
        // z[m] = Σ_p G[p,m]·S[p,m]/b[p]  −  Σ_q G[m,q]·S[m,q]·b[q] / b[m]².
        // The first sum scatters across columns, so each row block
        // accumulates a private vector, combined in block order.
        let z = par::accumulate_ranges(d, row_grain, d, |rows| {
            let mut local = vec![0.0; d];
            for p in rows {
                let mut row_term = 0.0;
                for slot in start(p)..start(p + 1) {
                    let q = col_of[slot] as usize;
                    let gs = g[slot] * s_vals[slot];
                    local[q] += gs * inv_b[p];
                    row_term += gs * b[q];
                }
                local[p] -= row_term * inv_b2[p];
            }
            local
        });
        let (x, y) = xy(&level.r, &level.c, alpha);
        let yz: Vec<f64> = y.iter().zip(&z).map(|(&yl, &zl)| yl * zl).collect();
        // G_new[i,l] = G[i,l]·b[l]/b[i] + x[i]z[i] + y[l]z[l].
        for_each_row(pattern, &mut g, |i, cols, out| {
            let (inv_bi, xz) = (inv_b[i], x[i] * z[i]);
            for (gv, &l) in out.iter_mut().zip(cols) {
                let l = l as usize;
                *gv = *gv * inv_bi * b[l] + xz + yz[l];
            }
        });
    }
    g
}

/// `f(i, cols, piece)` on every row `i` of `pattern`: its column indices
/// and its disjoint piece of the slot array `g` (row-parallel, blocked by
/// slot count).
fn for_each_row(pattern: &CsrMatrix, g: &mut [f64], f: impl Fn(usize, &[u32], &mut [f64]) + Sync) {
    let (row_ptr, cols) = (pattern.row_pointers(), pattern.col_indices());
    let start = |r: usize| row_ptr[r] as usize;
    par::for_each_split_mut(g, pattern.rows(), SLOT_GRAIN, start, |rows, piece| {
        let base = start(rows.start);
        for i in rows {
            let (s, e) = (start(i), start(i + 1));
            f(i, &cols[s..e], &mut piece[s - base..e - base]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::SpectralBound;
    use crate::constraint::testing::check_gradient;
    use crate::Acyclicity;
    use least_linalg::{init, Xoshiro256pp};

    fn random_w(d: usize, density: f64, seed: u64) -> DenseMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        let mut w = DenseMatrix::from_fn(d, d, |i, j| {
            if i != j && rng.bernoulli(density) {
                rng.uniform(-1.2, 1.2)
            } else {
                0.0
            }
        });
        w.zero_diagonal();
        w
    }

    #[test]
    fn dense_gradient_matches_finite_differences_k1() {
        let bound = SpectralBound::new(1, 0.9).unwrap();
        let w = random_w(6, 0.5, 101);
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn dense_gradient_matches_finite_differences_k3() {
        let bound = SpectralBound::new(3, 0.7).unwrap();
        let w = random_w(6, 0.5, 102);
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn dense_gradient_matches_finite_differences_k5_alpha09() {
        // The paper's production setting.
        let bound = SpectralBound::default();
        let w = random_w(5, 0.6, 103);
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn dense_gradient_k0_matches_finite_differences() {
        // k = 0: no similarity steps, pure b-sum gradient.
        let bound = SpectralBound::new(0, 0.9).unwrap();
        let w = random_w(7, 0.5, 104);
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn sparse_gradient_matches_finite_differences() {
        let bound = SpectralBound::default();
        let mut rng = Xoshiro256pp::new(105);
        let w = init::glorot_sparse(30, 0.12, &mut rng).unwrap();
        let fwd = bound.forward_sparse(&w).unwrap();
        let grad = backward_sparse(&fwd, &w);
        assert!(fwd.delta > 0.0);
        let step = 1e-6;
        for (slot, &analytic) in grad.iter().enumerate() {
            let mut plus = w.clone();
            plus.values_mut()[slot] += step;
            let mut minus = w.clone();
            minus.values_mut()[slot] -= step;
            let numeric = (bound.value_sparse(&plus).unwrap()
                - bound.value_sparse(&minus).unwrap())
                / (2.0 * step);
            assert!(
                (analytic - numeric).abs() <= 1e-4 * (1.0 + numeric.abs()),
                "slot {slot}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradient_descent_reduces_bound() {
        // Plain gradient steps on δ̄ must decrease it: the property the
        // whole solver relies on.
        let bound = SpectralBound::default();
        let mut w = random_w(10, 0.4, 106);
        let initial = bound.value_dense(&w).unwrap();
        let mut current = initial;
        for _ in 0..60 {
            let fwd = bound.forward_dense(&w).unwrap();
            let g = backward_dense(&fwd, &w);
            w.axpy(-0.05, &g).unwrap();
            current = bound.value_dense(&w).unwrap();
        }
        assert!(
            current < 0.5 * initial,
            "gradient descent failed: {initial} -> {current}"
        );
    }

    #[test]
    fn gradient_is_zero_on_zero_matrix() {
        let bound = SpectralBound::default();
        let (v, g) = bound.value_and_gradient(&DenseMatrix::zeros(5, 5)).unwrap();
        assert_eq!(v, 0.0);
        assert_eq!(g.max_abs(), 0.0);
        // Stored zeros in a CSR pattern behave the same way.
        let mut rng = Xoshiro256pp::new(109);
        let w = init::glorot_sparse(5, 0.5, &mut rng)
            .unwrap()
            .map_values(|_| 0.0);
        assert!(w.nnz() > 0);
        let fwd = bound.forward_sparse(&w).unwrap();
        assert_eq!(fwd.delta, 0.0);
        assert!(backward_sparse(&fwd, &w).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn gradient_with_empty_rows_and_columns_matches_finite_differences() {
        // Node 0 is a source (empty column), node 4 a sink (empty row) and
        // node 5 is isolated; 1 → 2 → 3 → 1 is a cycle. The first
        // similarity step peels 0 and 4, which must not break the gradient.
        let mut w = DenseMatrix::zeros(6, 6);
        for (i, j, v) in [
            (0, 1, 0.7),
            (0, 3, -0.4),
            (1, 2, 0.9),
            (2, 3, -0.8),
            (3, 1, 0.6),
            (2, 4, 1.1),
            (3, 4, 0.5),
        ] {
            w[(i, j)] = v;
        }
        for k in [0, 1, 5] {
            let bound = SpectralBound::new(k, 0.9).unwrap();
            assert!(bound.value_dense(&w).unwrap() > 0.0);
            check_gradient(&bound, &w, 1e-6, 1e-4);
        }
    }

    #[test]
    fn signed_zero_entries_get_zero_gradient() {
        let bound = SpectralBound::new(3, 0.8).unwrap();
        let mut w = random_w(7, 0.6, 108);
        w[(0, 1)] = 0.0;
        w[(1, 0)] = -0.0;
        w[(2, 5)] = -0.0;
        let (_, g) = bound.value_and_gradient(&w).unwrap();
        for (i, j) in (0..7).flat_map(|i| (0..7).map(move |j| (i, j))) {
            if w[(i, j)] == 0.0 {
                assert_eq!(g[(i, j)], 0.0, "gradient at zero entry ({i},{j})");
            }
        }
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn gradient_sign_points_away_from_cycles() {
        // Strengthening a cycle edge must increase the bound: positive
        // gradient component along the edge weight's direction of growth.
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 1)] = 0.8;
        w[(1, 0)] = 0.6;
        let bound = SpectralBound::new(2, 0.9).unwrap();
        let (v, g) = {
            let fwd = bound.forward_dense(&w).unwrap();
            (fwd.delta, backward_dense(&fwd, &w))
        };
        assert!(v > 0.0);
        // d(δ̄)/d(w01) should be positive for a positive weight on a cycle.
        assert!(g[(0, 1)] > 0.0, "gradient {:?}", g[(0, 1)]);
        assert!(g[(1, 0)] > 0.0);
    }

    #[test]
    fn masked_gradient_ignores_off_pattern_entries() {
        // The sparse gradient has exactly nnz entries, one per slot.
        let bound = SpectralBound::default();
        let mut rng = Xoshiro256pp::new(107);
        let w = init::glorot_sparse(20, 0.1, &mut rng).unwrap();
        let fwd = bound.forward_sparse(&w).unwrap();
        let g = backward_sparse(&fwd, &w);
        assert_eq!(g.len(), w.nnz());
    }
}
