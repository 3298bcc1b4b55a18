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
//! sparse path propagates the gradient *only on the pattern* — `O(k·nnz)`
//! rather than `O(k·d²)` — and is exact (verified against the dense path
//! and finite differences in the tests below).

use crate::bound::{dense_row_grain, SparseBoundForward, SpectralBoundForward, POW_EPS};
use least_linalg::vecops::powf_floored;
use least_linalg::{par, CsrMatrix, DenseMatrix};
use std::convert::identity;

/// Minimum pattern slots per block in the sparse backward pass.
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

/// Dense backward pass: `∇_W δ̄^(k)` given the retained forward state.
pub fn backward_dense(fwd: &SpectralBoundForward, w: &DenseMatrix) -> DenseMatrix {
    let levels = &fwd.levels;
    let k = levels.len() - 1;
    let d = w.rows();
    let alpha = fwd.alpha;

    // Lemma 3: top-level gradient G[i,l] = x[i] + y[l] (row-parallel).
    let (xk, yk) = xy(&levels[k].r, &levels[k].c, alpha);
    let grain = dense_row_grain(d);
    let row_start = |i: usize| i * d;
    let mut g = DenseMatrix::zeros(d, d);
    par::for_each_split_mut(g.as_mut_slice(), d, grain * d, row_start, |rows, block| {
        for (i, row) in rows.zip(block.chunks_mut(d)) {
            for (o, &yl) in row.iter_mut().zip(&yk) {
                *o = xk[i] + yl;
            }
        }
    });

    // Lemmas 4–5, descending levels.
    for j in (1..=k).rev() {
        let level = &levels[j - 1];
        let b = &level.b;
        // z[m] = Σ_p G[p,m]·S[p,m]/b[p]  −  Σ_q G[m,q]·S[m,q]·b[q] / b[m]².
        // The first sum scatters across columns: each row block accumulates
        // a private vector, combined in block order (deterministic).
        let mut z = par::accumulate_ranges(d, grain, d, |rows| {
            let mut local = vec![0.0; d];
            for p in rows {
                let inv_bp = inv_or_zero(b[p]);
                if inv_bp == 0.0 {
                    continue;
                }
                for ((zq, &gv), &sv) in local.iter_mut().zip(g.row(p)).zip(level.s.row(p)) {
                    *zq += gv * sv * inv_bp;
                }
            }
            local
        });
        // The second sum touches only z[m] — row-disjoint.
        par::for_each_split_mut(&mut z, d, grain, identity, |rows, block| {
            for (m, zm) in rows.zip(block) {
                let inv_bm2 = inv_or_zero(b[m] * b[m]);
                if inv_bm2 == 0.0 {
                    continue;
                }
                let row_term: f64 = g
                    .row(m)
                    .iter()
                    .zip(level.s.row(m))
                    .zip(b)
                    .map(|((&gv, &sv), &bq)| gv * sv * bq)
                    .sum();
                *zm -= row_term * inv_bm2;
            }
        });
        let (x, y) = xy(&level.r, &level.c, alpha);
        // G_new[i,l] = G[i,l]·b[l]/b[i] + x[i]z[i] + y[l]z[l] (row-parallel).
        let mut g_new = DenseMatrix::zeros(d, d);
        par::for_each_split_mut(
            g_new.as_mut_slice(),
            d,
            grain * d,
            row_start,
            |rows, block| {
                for (i, out_row) in rows.zip(block.chunks_mut(d)) {
                    let inv_bi = inv_or_zero(b[i]);
                    let xi_zi = x[i] * z[i];
                    let g_row = g.row(i);
                    for (l, o) in out_row.iter_mut().enumerate() {
                        *o = g_row[l] * inv_bi * b[l] + xi_zi + y[l] * z[l];
                    }
                }
            },
        );
        g = g_new;
    }

    // ∇_W = 2·G ∘ W.
    let mut out = g.hadamard(w).expect("shapes equal by construction");
    out.scale_inplace(2.0);
    out
}

/// Sparse backward pass: the masked gradient values aligned with `w`'s CSR
/// pattern (Lemma 5). Returns a vector parallel to `w.values()` holding
/// `∇_W δ̄` on the support.
pub fn backward_sparse(fwd: &SparseBoundForward, w: &CsrMatrix) -> Vec<f64> {
    let levels = &fwd.levels;
    let k = levels.len() - 1;
    let d = w.rows();
    let alpha = fwd.alpha;
    let nnz = w.nnz();
    // Row index of every pattern slot (shared by all levels: the similarity
    // transform preserves the pattern).
    let row_of = w.expand_row_indices();
    let col_of = w.col_indices();

    // Lemma 3 restricted to the mask (slot-parallel: slots are disjoint).
    let mut g = vec![0.0; nnz];
    let (xk, yk) = xy(&levels[k].r, &levels[k].c, alpha);
    par::for_each_split_mut(&mut g, nnz, SLOT_GRAIN, identity, |slots, chunk| {
        for (slot, o) in slots.zip(chunk) {
            *o = xk[row_of[slot] as usize] + yk[col_of[slot] as usize];
        }
    });

    for j in (1..=k).rev() {
        let level = &levels[j - 1];
        let b = &level.b;
        let s_vals = level.s.values();
        // z via one pass over the pattern — a scatter into both endpoint
        // nodes of every slot, so each block accumulates a private vector
        // combined in block order.
        let z = par::accumulate_ranges(nnz, SLOT_GRAIN, d, |slots| {
            let mut local = vec![0.0; d];
            for slot in slots {
                let p = row_of[slot] as usize;
                let q = col_of[slot] as usize;
                let gs = g[slot] * s_vals[slot];
                let inv_bp = inv_or_zero(b[p]);
                local[q] += gs * inv_bp;
                let inv_bp2 = inv_or_zero(b[p] * b[p]);
                local[p] -= gs * b[q] * inv_bp2;
            }
            local
        });
        let (x, y) = xy(&level.r, &level.c, alpha);
        // Propagate on the pattern (slot-parallel).
        par::for_each_split_mut(&mut g, nnz, SLOT_GRAIN, identity, |slots, chunk| {
            for (slot, gv) in slots.zip(chunk) {
                let i = row_of[slot] as usize;
                let l = col_of[slot] as usize;
                *gv = *gv * inv_or_zero(b[i]) * b[l] + x[i] * z[i] + y[l] * z[l];
            }
        });
    }

    // ∇_W = 2·G ∘ W on the support.
    g.iter()
        .zip(w.values())
        .map(|(&gv, &wv)| 2.0 * gv * wv)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::SpectralBound;
    use crate::constraint::testing::check_gradient;
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
    fn sparse_gradient_matches_dense_gradient() {
        let bound = SpectralBound::default();
        let mut rng = Xoshiro256pp::new(105);
        let w_sparse = init::glorot_sparse(30, 0.12, &mut rng).unwrap();
        let w_dense = w_sparse.to_dense();

        let fwd_d = bound.forward_dense(&w_dense).unwrap();
        let grad_d = backward_dense(&fwd_d, &w_dense);

        let fwd_s = bound.forward_sparse(&w_sparse).unwrap();
        let grad_s = backward_sparse(&fwd_s, &w_sparse);

        assert!((fwd_d.delta - fwd_s.delta).abs() < 1e-12 * fwd_d.delta.max(1.0));
        for ((i, j, _), &gs) in w_sparse.iter().zip(&grad_s) {
            let gd = grad_d[(i, j)];
            assert!(
                (gd - gs).abs() < 1e-9 * (1.0 + gd.abs()),
                "grad mismatch at ({i},{j}): dense {gd} sparse {gs}"
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
        let w = DenseMatrix::zeros(5, 5);
        let fwd = bound.forward_dense(&w).unwrap();
        let g = backward_dense(&fwd, &w);
        assert_eq!(g.max_abs(), 0.0);
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
