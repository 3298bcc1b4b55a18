//! Thread-count invariance gate: every parallel kernel partitions its work
//! by problem size alone, so learned weights, reductions and ingested
//! statistics are bit-identical whatever the pool size.
//!
//! One `#[test]` on purpose: `par::set_thread_override` is process-global,
//! and a second test running beside it would change the pool under it.
//! Every size below is chosen so each reduction really splits into more
//! than one block; the comments give the block counts.

use least_bn::core::{LeastConfig, LeastDense, LeastSparse};
use least_bn::data::{sample_lsem, Dataset, NoiseModel, Preprocess};
use least_bn::graph::{erdos_renyi_dag, weighted_adjacency_dense, WeightRange};
use least_bn::ingest::{ingest_source, IngestConfig, MemSource};
use least_bn::linalg::{par, CsrMatrix, DenseMatrix, PackedSym, Xoshiro256pp};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Run `case` at 1, 2 and 4 threads and require bit-identical output.
fn assert_pool_invariant(what: &str, case: impl Fn() -> Vec<u64>) {
    par::set_thread_override(Some(1));
    let reference = case();
    for threads in [2, 4] {
        par::set_thread_override(Some(threads));
        let got = case();
        par::set_thread_override(None);
        assert!(
            got == reference,
            "{what}: {threads} threads diverged from 1 thread"
        );
    }
}

fn random(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = Xoshiro256pp::new(seed);
    DenseMatrix::from_fn(n, d, |_, _| rng.gaussian() + 0.3)
}

fn config(seed: u64) -> LeastConfig {
    // A few steps suffice: a regrouped sum shows up in the first gradient.
    let mut cfg = LeastConfig {
        lambda: 0.05,
        max_outer: 2,
        max_inner: 4,
        seed,
        ..Default::default()
    };
    cfg.adam.learning_rate = 0.02;
    cfg
}

#[test]
fn every_kernel_is_bit_identical_across_thread_counts() {
    // d = 256: the dense backward pass sums z over 4 row blocks (64 rows
    // each), and G·W splits into 8 row blocks.
    let d = 256;
    let mut rng = Xoshiro256pp::new(9100);
    let truth = erdos_renyi_dag(d, 2, &mut rng);
    let w = weighted_adjacency_dense(&truth, WeightRange { lo: 1.0, hi: 2.0 }, &mut rng);
    let x = sample_lsem(&w, 300, NoiseModel::standard_gaussian(), &mut rng).unwrap();
    let data = Dataset::new(x.clone());
    let stats = ingest_source(&mut MemSource::new(x), &IngestConfig::default()).unwrap();

    let dense = LeastDense::new(config(9101)).unwrap();
    assert_pool_invariant("LeastDense::fit", || {
        bits(dense.fit(&data).unwrap().weights.as_slice())
    });
    assert_pool_invariant("LeastDense::fit_stats", || {
        bits(dense.fit_stats(&stats).unwrap().weights.as_slice())
    });

    // ζ = 0.6 gives ~39k slots: CSR column sums and the sparse backward
    // scatter split into 2 blocks; the 256-row mini-batch loss into 16
    // blocks of 16 rows; the sparse Gram loss into 16 blocks of CSR rows.
    let sparse = LeastSparse::new(LeastConfig {
        init_density: Some(0.6),
        batch_size: Some(256),
        ..config(9102)
    })
    .unwrap();
    assert_pool_invariant("LeastSparse::fit (mini-batch)", || {
        bits(sparse.fit(&data).unwrap().weights.to_dense().as_slice())
    });
    assert_pool_invariant("LeastSparse::fit_stats (sparse Gram)", || {
        bits(
            sparse
                .fit_stats(&stats)
                .unwrap()
                .weights
                .to_dense()
                .as_slice(),
        )
    });

    // 1000×1000 at density 0.1: ~100k stored entries, 4 column-sum blocks.
    let mut rng = Xoshiro256pp::new(9103);
    let m = DenseMatrix::from_fn(1000, 1000, |_, _| {
        if rng.bernoulli(0.1) {
            rng.uniform(-3.0, 3.0)
        } else {
            0.0
        }
    });
    let csr = CsrMatrix::from_dense(&m, 0.0);
    assert_pool_invariant("CsrMatrix::col_sums", || bits(&csr.col_sums()));

    // d = 200: 20 100 packed entries, 4 rank-update blocks; 200 columns,
    // 2 column-sum blocks in the ingest accumulator.
    let chunk = random(80, 200, 9104);
    assert_pool_invariant("PackedSym::rank_update", || {
        let mut acc = PackedSym::zeros(200);
        acc.rank_update(&chunk).unwrap();
        bits(acc.as_slice())
    });
    let x = random(120, 200, 9105);
    let cfg = IngestConfig {
        chunk_rows: 50,
        preprocess: Preprocess::Center,
    };
    assert_pool_invariant("ingest_source", || {
        let stats = ingest_source(&mut MemSource::new(x.clone()), &cfg).unwrap();
        let mut out = bits(stats.gram.as_slice());
        out.extend(bits(&stats.means));
        out.extend(bits(&stats.scales));
        out
    });
}
