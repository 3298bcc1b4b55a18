//! Property-based tests on the core invariants of the reproduction,
//! driven by the in-tree deterministic RNG (the offline crate set has no
//! `proptest`; each property runs over 64 randomized cases instead of
//! strategy-shrunk ones):
//!
//! * Lemma 1 — the spectral bound dominates the true spectral radius for
//!   arbitrary weight matrices, at every refinement depth;
//! * the FORWARD/BACKWARD gradient matches finite differences on random
//!   inputs, through both the dense and the sparse entry points;
//! * CSR round-trips, transpose involution, and threshold/retain
//!   bookkeeping under arbitrary sparsity patterns;
//! * SHD metric axioms (identity, symmetry) and confusion-count
//!   consistency on random graph pairs.

use least_bn::core::{grad, Acyclicity, SpectralBound};
use least_bn::graph::DiGraph;
use least_bn::linalg::power_iter::{spectral_radius_dense, PowerIterConfig};
use least_bn::linalg::{Coo, CsrMatrix, DenseMatrix, Xoshiro256pp};
use least_bn::metrics::{structural_hamming_distance, EdgeConfusion};

const CASES: usize = 64;

/// Random square weight matrix with controlled magnitude, ~40% density and
/// zero diagonal (valid solver input). Dimension in `2..=max_d`.
fn weight_matrix(max_d: usize, rng: &mut Xoshiro256pp) -> DenseMatrix {
    let d = 2 + rng.next_below(max_d - 1);
    let mut w = DenseMatrix::from_fn(d, d, |_, _| {
        if rng.bernoulli(0.4) {
            rng.uniform(-1.5, 1.5)
        } else {
            0.0
        }
    });
    w.zero_diagonal();
    w
}

/// Random sparse triplet list over a d×d matrix (duplicates allowed, as
/// with the proptest strategy this replaces — `Coo` accumulates them).
fn sparse_entries(d: usize, rng: &mut Xoshiro256pp) -> Vec<(usize, usize, f64)> {
    let len = rng.next_below(3 * d);
    (0..len)
        .map(|_| (rng.next_below(d), rng.next_below(d), rng.uniform(-2.0, 2.0)))
        .collect()
}

/// Random edge list on `d` nodes, self-loops excluded.
fn edge_list(d: usize, rng: &mut Xoshiro256pp) -> Vec<(usize, usize)> {
    let len = rng.next_below(3 * d);
    let mut edges = Vec::with_capacity(len);
    while edges.len() < len {
        let (u, v) = (rng.next_below(d), rng.next_below(d));
        if u != v {
            edges.push((u, v));
        }
    }
    edges
}

fn csr_from_entries(d: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = Coo::new(d, d);
    for &(i, j, v) in entries {
        coo.push(i, j, v).unwrap();
    }
    coo.to_csr()
}

#[test]
fn bound_dominates_spectral_radius() {
    let mut rng = Xoshiro256pp::new(0x50BD);
    for case in 0..CASES {
        let w = weight_matrix(10, &mut rng);
        let k = rng.next_below(7);
        let s = w.hadamard_square();
        let rho = spectral_radius_dense(&s, PowerIterConfig::default()).value;
        let bound = SpectralBound::new(k, 0.9).unwrap().value_dense(&w).unwrap();
        assert!(
            bound >= rho - 1e-8 * rho.max(1.0),
            "case {case}, k={k}: bound {bound} < radius {rho}"
        );
    }
}

#[test]
fn bound_is_zero_only_near_acyclicity() {
    let mut rng = Xoshiro256pp::new(0x50BE);
    for case in 0..CASES {
        // If the bound is (near) zero, the matrix cannot hold a strong
        // cycle: the true radius is also (near) zero.
        let w = weight_matrix(8, &mut rng);
        let bound = SpectralBound::default().value_dense(&w).unwrap();
        if bound < 1e-10 {
            let rho = spectral_radius_dense(&w.hadamard_square(), PowerIterConfig::default()).value;
            assert!(rho < 1e-9, "case {case}: bound {bound} but radius {rho}");
        }
    }
}

#[test]
fn gradient_matches_finite_differences() {
    let mut rng = Xoshiro256pp::new(0x50BF);
    for case in 0..CASES {
        let w = weight_matrix(6, &mut rng);
        let bound = SpectralBound::new(3, 0.8).unwrap();
        let (_, g) = bound.value_and_gradient(&w).unwrap();
        // Spot-check a handful of coordinates (full FD is O(d^2) evals).
        let d = w.rows();
        let step = 1e-6;
        for (i, j) in [(0, 1), (1, 0), (d - 1, 0), (0, d - 1)] {
            let mut plus = w.clone();
            plus[(i, j)] += step;
            let mut minus = w.clone();
            minus[(i, j)] -= step;
            let numeric = (bound.value_dense(&plus).unwrap() - bound.value_dense(&minus).unwrap())
                / (2.0 * step);
            assert!(
                (g[(i, j)] - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "case {case} ({i},{j}): analytic {} vs numeric {numeric}",
                g[(i, j)]
            );
        }
    }
}

#[test]
fn sparse_gradient_matches_finite_differences() {
    let mut rng = Xoshiro256pp::new(0x50C0);
    let bound = SpectralBound::default();
    let step = 1e-6;
    for case in 0..CASES {
        let entries: Vec<_> = sparse_entries(12, &mut rng)
            .into_iter()
            .filter(|&(i, j, _)| i != j)
            .collect();
        let w = csr_from_entries(12, &entries);
        let fwd = bound.forward_sparse(&w).unwrap();
        let g = grad::backward_sparse(&fwd, &w);
        for (slot, &analytic) in g.iter().enumerate() {
            let mut plus = w.clone();
            plus.values_mut()[slot] += step;
            let mut minus = w.clone();
            minus.values_mut()[slot] -= step;
            let numeric = (bound.value_sparse(&plus).unwrap()
                - bound.value_sparse(&minus).unwrap())
                / (2.0 * step);
            assert!(
                (analytic - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "case {case} slot {slot}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }
}

#[test]
fn csr_round_trip() {
    let mut rng = Xoshiro256pp::new(0x50C1);
    for _ in 0..CASES {
        let csr = csr_from_entries(15, &sparse_entries(15, &mut rng));
        let back = CsrMatrix::from_dense(&csr.to_dense(), 0.0);
        assert!(csr.approx_eq(&back, 0.0));
        // Values and pattern arrays stay aligned.
        assert_eq!(csr.values().len(), csr.col_indices().len());
        assert_eq!(csr.nnz(), csr.iter().count());
    }
}

#[test]
fn csr_transpose_involution() {
    let mut rng = Xoshiro256pp::new(0x50C2);
    for _ in 0..CASES {
        let csr = csr_from_entries(10, &sparse_entries(10, &mut rng));
        assert!(csr.transpose().transpose().approx_eq(&csr, 0.0));
        // Row sums of the transpose equal column sums of the original.
        assert_eq!(csr.transpose().row_sums(), csr.col_sums());
    }
}

#[test]
fn csr_threshold_removes_exactly_small_entries() {
    let mut rng = Xoshiro256pp::new(0x50C3);
    for _ in 0..CASES {
        let mut csr = csr_from_entries(10, &sparse_entries(10, &mut rng));
        let theta = rng.uniform(0.1, 1.0);
        let before: Vec<(usize, usize, f64)> = csr.iter().collect();
        let kept = csr.threshold(theta);
        assert_eq!(kept.len(), csr.nnz());
        for (i, j, v) in before {
            if v.abs() >= theta {
                assert_eq!(csr.get(i, j), v);
            } else {
                assert_eq!(csr.get(i, j), 0.0);
            }
        }
    }
}

#[test]
fn shd_axioms() {
    let mut rng = Xoshiro256pp::new(0x50C4);
    for _ in 0..CASES {
        let a = DiGraph::from_edges(8, &edge_list(8, &mut rng));
        let b = DiGraph::from_edges(8, &edge_list(8, &mut rng));
        assert_eq!(structural_hamming_distance(&a, &a), 0);
        assert_eq!(
            structural_hamming_distance(&a, &b),
            structural_hamming_distance(&b, &a)
        );
    }
}

#[test]
fn confusion_counts_partition_decisions() {
    let mut rng = Xoshiro256pp::new(0x50C5);
    for _ in 0..CASES {
        let truth = DiGraph::from_edges(8, &edge_list(8, &mut rng));
        let pred = DiGraph::from_edges(8, &edge_list(8, &mut rng));
        let c = EdgeConfusion::between(&truth, &pred);
        // TP+FP = predicted edges; TP+FN = truth edges; all four sum to
        // the number of ordered off-diagonal pairs.
        assert_eq!(c.true_positives + c.false_positives, pred.edge_count());
        assert_eq!(c.true_positives + c.false_negatives, truth.edge_count());
        assert_eq!(
            c.true_positives + c.false_positives + c.false_negatives + c.true_negatives,
            8 * 7
        );
    }
}

#[test]
fn shd_bounded_by_union_of_edges() {
    let mut rng = Xoshiro256pp::new(0x50C6);
    for _ in 0..CASES {
        let a = DiGraph::from_edges(8, &edge_list(8, &mut rng));
        let b = DiGraph::from_edges(8, &edge_list(8, &mut rng));
        let shd = structural_hamming_distance(&a, &b);
        assert!(shd <= a.edge_count() + b.edge_count());
    }
}
