//! Dense/sparse engine parity.
//!
//! With a full off-diagonal support (`ζ = 1`), the same seed, the same
//! mini-batch schedule, no in-loop filtering (`θ = 0`, so the sparse
//! support never shrinks) and no early inner exit (`inner_tol = 0`, so
//! both backends consume the RNG identically), the two backends of the
//! unified engine optimize the *same* iterate sequence. Both evaluate δ̄
//! and its gradient with the one masked CSR pass (the dense backend
//! converts its iterate, whose support is the same pattern), so the
//! bound is shared and only the loss kernels differ: the dense residual
//! gradient restricted to the support equals the support-restricted
//! sparse one (Lemma 5), and the dense diagonal is pinned to zero. The
//! trajectories therefore agree up to floating-point summation-order
//! noise — a direct check that `engine::run` drives both
//! `WeightBackend`s through the same mathematics.
//!
//! The horizon is kept short (3 rounds × 30 inner steps) on purpose:
//! Adam is a chaotic map, so ~1e-16 summation-order noise between the
//! kernels compounds exponentially — by ~750 steps the trajectories
//! visibly fork (measured while the bound kernels still differed too: δ̄
//! rel. drift 3e-15 at 90 steps, 2.7e-1 at 500). Short-horizon bit-level
//! agreement is the sharp test; long-horizon agreement is not a property
//! either implementation has.

use least_core::{LeastConfig, LeastDense, LeastSparse};
use least_data::{sample_lsem, Dataset, NoiseModel, Preprocess, SufficientStats};
use least_graph::{weighted_adjacency_dense, DiGraph, WeightRange};
use least_linalg::Xoshiro256pp;

fn chain_dataset(d: usize, n: usize, seed: u64) -> (DiGraph, Dataset) {
    let mut rng = Xoshiro256pp::new(seed);
    let truth = DiGraph::from_edges(d, &(0..d - 1).map(|i| (i, i + 1)).collect::<Vec<_>>());
    let w = weighted_adjacency_dense(&truth, WeightRange { lo: 1.2, hi: 2.0 }, &mut rng);
    let x = sample_lsem(&w, n, NoiseModel::standard_gaussian(), &mut rng).unwrap();
    (truth, Dataset::new(x))
}

fn parity_config() -> LeastConfig {
    let mut cfg = LeastConfig {
        // Full off-diagonal support: the sparse search space equals the
        // dense one, and both inits draw identical Glorot values.
        init_density: Some(1.0),
        batch_size: Some(64),
        // θ = 0: no in-loop filtering, so the sparse pattern never
        // compacts and the dense iterate never zeroes entries.
        theta: 0.0,
        // inner_tol = 0: every round runs exactly max_inner iterations,
        // keeping the two backends' RNG streams in lock-step.
        inner_tol: 0.0,
        lambda: 0.05,
        epsilon: 1e-6,
        max_outer: 3,
        max_inner: 30,
        seed: 0x9A81,
        ..Default::default()
    };
    cfg.adam.learning_rate = 0.02;
    cfg
}

#[test]
fn dense_and_sparse_backends_agree() {
    let (_, data) = chain_dataset(6, 800, 0xE0E0);
    let cfg = parity_config();

    let dense = LeastDense::new(cfg).unwrap().fit(&data).unwrap();
    let sparse = LeastSparse::new(cfg).unwrap().fit(&data).unwrap();

    // Same outer-round count.
    assert_eq!(
        dense.trace.len(),
        sparse.trace.len(),
        "round counts diverged: dense {} vs sparse {}",
        dense.trace.len(),
        sparse.trace.len()
    );

    // Per-round δ̄ agreement. The iterate sequences are mathematically
    // identical; the tolerance absorbs summation-order noise compounded
    // through the 90 Adam steps of the horizon.
    for (pd, ps) in dense.trace.points().iter().zip(sparse.trace.points()) {
        let scale = pd.delta.abs().max(1.0);
        assert!(
            (pd.delta - ps.delta).abs() <= 1e-9 * scale,
            "round {}: dense δ̄ {} vs sparse δ̄ {}",
            pd.round,
            pd.delta,
            ps.delta
        );
    }

    // Same final weights on the shared support, hence the same
    // thresholded structure.
    let tau = 0.3;
    let gd = dense.graph(tau);
    let gs = sparse.graph(tau);
    let edges_d: Vec<(usize, usize)> = gd.edges().collect();
    let edges_s: Vec<(usize, usize)> = gs.edges().collect();
    assert_eq!(edges_d, edges_s, "thresholded structures diverged");
    let max_diff = dense
        .weights
        .max_abs_diff(&sparse.weights.to_dense())
        .unwrap();
    assert!(max_diff < 1e-9, "weight drift {max_diff}");
}

/// Gram-path / data-path parity on the dense backend. A full-batch data
/// fit already trains from `XᵀX`; `fit_stats` adopts the *same* `t_matmul`
/// product, so the trajectories are identical and the learned adjacency
/// matches exactly — the out-of-core entry point changes where the
/// statistics come from, not what the optimizer computes.
#[test]
fn dense_gram_path_matches_data_path() {
    let (_, data) = chain_dataset(6, 800, 0xE0E2);
    let mut cfg = parity_config();
    cfg.init_density = None;
    cfg.batch_size = None; // full batch: data path = Gram specialization

    let solver = LeastDense::new(cfg).unwrap();
    let from_data = solver.fit(&data).unwrap();
    let stats = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
    let from_stats = solver.fit_stats(&stats).unwrap();

    let tau = 0.3;
    let edges_d: Vec<(usize, usize)> = from_data.graph(tau).edges().collect();
    let edges_s: Vec<(usize, usize)> = from_stats.graph(tau).edges().collect();
    assert_eq!(edges_d, edges_s, "thresholded structures diverged");
    let drift = from_data.weights.max_abs_diff(&from_stats.weights).unwrap();
    assert!(drift < 1e-6, "weight drift {drift}");
}

/// Gram-path / data-path parity on the sparse backend, over the same
/// short horizon as the dense/sparse parity test above: the full-batch
/// residual loss and the Gram loss are the same mathematics in a
/// different summation order, so the two trajectories agree to the
/// compounded-rounding tolerance — and the support is pinned by the
/// shared seed (θ = 0, no compaction), so the structures are identical.
#[test]
fn sparse_gram_path_matches_data_path() {
    let (_, data) = chain_dataset(6, 800, 0xE0E3);
    let mut cfg = parity_config();
    cfg.batch_size = None; // full batch: both paths see every sample

    let solver = LeastSparse::new(cfg).unwrap();
    let from_data = solver.fit(&data).unwrap();
    let stats = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
    let from_stats = solver.fit_stats(&stats).unwrap();

    // Identical support (same seed draws the same ζ = 1 pattern).
    assert_eq!(
        from_data.weights.col_indices(),
        from_stats.weights.col_indices(),
        "supports diverged"
    );
    let drift = from_data
        .weights
        .to_dense()
        .max_abs_diff(&from_stats.weights.to_dense())
        .unwrap();
    assert!(drift < 1e-6, "weight drift {drift}");

    let tau = 0.3;
    let edges_d: Vec<(usize, usize)> = from_data.graph(tau).edges().collect();
    let edges_s: Vec<(usize, usize)> = from_stats.graph(tau).edges().collect();
    assert_eq!(edges_d, edges_s, "thresholded structures diverged");
}

#[test]
fn both_backends_recover_the_chain() {
    // End-to-end sanity on the same data with each backend's natural
    // configuration (dense Glorot init + Gram loss; sparse pattern +
    // support thresholding): both identify the true chain at τ = 0.3.
    let (truth, data) = chain_dataset(6, 800, 0xE0E1);

    let mut dense_cfg = LeastConfig {
        lambda: 0.05,
        epsilon: 1e-6,
        max_outer: 10,
        max_inner: 500,
        ..Default::default()
    };
    dense_cfg.adam.learning_rate = 0.02;
    let dense = LeastDense::new(dense_cfg).unwrap().fit(&data).unwrap();

    let mut sparse_cfg = LeastConfig {
        init_density: Some(1.0),
        batch_size: Some(128),
        theta: 1e-3,
        lambda: 0.05,
        epsilon: 1e-6,
        max_outer: 10,
        max_inner: 500,
        ..Default::default()
    };
    sparse_cfg.adam.learning_rate = 0.02;
    let sparse = LeastSparse::new(sparse_cfg).unwrap().fit(&data).unwrap();

    let gd = dense.graph(0.3);
    let gs = sparse.graph(0.3);
    for (u, v) in truth.edges() {
        assert!(gd.has_edge(u, v), "dense missed true edge ({u},{v})");
        assert!(gs.has_edge(u, v), "sparse missed true edge ({u},{v})");
    }
    assert!(gd.is_dag());
    assert!(gs.is_dag());
}
