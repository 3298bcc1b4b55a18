//! Out-of-core ingestion + Gram-path training benchmark.
//!
//! Two claims are measured (DESIGN.md §9):
//!
//! 1. **Ingestion throughput** — streaming a generated LSEM dataset from
//!    disk (CSV and `LEASTDAT` binary) into `SufficientStats`, reported
//!    as rows/s and MB/s, with the two formats asserted to produce
//!    identical statistics.
//! 2. **n-independence of training** — per-iteration wall time of
//!    `LeastDense::fit_stats` at a fixed `d` for statistics accumulated
//!    over n = 10⁴ versus n = 10⁶ rows (the big accumulation streams
//!    synthetic chunks through `GramAccumulator`, so the benchmark never
//!    materializes an n-sized matrix — the point of the subsystem). The
//!    reported ratio should sit at ~1.0; the raw-data loss and gradient
//!    at n = 10⁴ (the loss alone, no solver) is timed alongside for
//!    contrast.
//!
//! Writes `BENCH_ingest.json` via the shared emitter (override the path
//! with `LEAST_BENCH_OUT`).

use least_bench::report::{fmt, heading, Table};
use least_bench::timing::time_best_of;
use least_core::loss::batch_value_and_grad;
use least_core::{LeastConfig, LeastDense};
use least_data::{
    export_binary, export_csv, sample_lsem, Dataset, NoiseModel, Preprocess, SufficientStats,
};
use least_graph::{erdos_renyi_dag, weighted_adjacency_dense, WeightRange};
use least_ingest::{ingest_binary, ingest_csv, GramAccumulator, IngestConfig};
use least_linalg::{DenseMatrix, Xoshiro256pp};
use least_serve::JsonValue;
use std::path::PathBuf;

/// Best-of repetitions per timed measurement.
const REPS: usize = 3;
/// Fixed inner iterations per timed fit (no early exit). Sized so one
/// fit is ~10 ms at the default `d`: long enough that the CI gate on the
/// per-iteration ratio measures compute, not scheduler noise.
const ITERS: usize = 200;
/// Rows per synthetic chunk streamed through the accumulator.
const CHUNK_ROWS: usize = 20_000;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("least_ingest_bench_{}_{name}", std::process::id()))
}

/// Ground-truth weights for the synthetic LSEM (ER, expected degree 2).
fn truth(d: usize, seed: u64) -> DenseMatrix {
    let mut rng = Xoshiro256pp::new(seed);
    let g = erdos_renyi_dag(d, 2, &mut rng);
    weighted_adjacency_dense(&g, WeightRange::default(), &mut rng)
}

/// Accumulate statistics over `n` rows without ever holding more than one
/// chunk: the in-memory analogue of the file readers, used to reach
/// n = 10⁶ cheaply.
fn streamed_stats(w: &DenseMatrix, n: usize, seed: u64) -> SufficientStats {
    let mut acc = GramAccumulator::new(w.rows());
    let mut rng = Xoshiro256pp::new(seed);
    let mut remaining = n;
    while remaining > 0 {
        let rows = remaining.min(CHUNK_ROWS);
        let chunk =
            sample_lsem(w, rows, NoiseModel::standard_gaussian(), &mut rng).expect("acyclic truth");
        acc.update(&chunk).expect("accumulate");
        remaining -= rows;
    }
    acc.finalize(Preprocess::Raw).expect("finalize")
}

/// One fixed-work training run (init + `ITERS` inner iterations).
fn fixed_work_config(d: usize) -> LeastConfig {
    let mut cfg = LeastConfig {
        max_outer: 1,
        max_inner: ITERS,
        inner_tol: 0.0,
        theta: 0.0,
        epsilon: 1e-12,
        lambda: 0.1,
        ..Default::default()
    };
    cfg.adam.learning_rate = 0.01;
    let _ = d;
    cfg
}

fn main() {
    let full = least_bench::full_scale();
    let d = if full { 64 } else { 32 };
    let file_rows = if full { 100_000 } else { 20_000 };
    let n_small = 10_000usize;
    let n_big = 1_000_000usize;

    heading(&format!(
        "ingest throughput: d={d}, file={file_rows} rows, gram-path iteration test \
         n={n_small} vs n={n_big}, best of {REPS}"
    ));

    let w = truth(d, 0x1A6E);

    // ── Phase 1: file ingestion throughput ────────────────────────────
    let mut rng = Xoshiro256pp::new(0xF11E);
    let file_data = Dataset::new(
        sample_lsem(&w, file_rows, NoiseModel::standard_gaussian(), &mut rng).expect("sample"),
    );
    let csv_path = temp("data.csv");
    let bin_path = temp("data.dat");
    export_csv(&file_data, &csv_path).expect("export csv");
    export_binary(&file_data, &bin_path).expect("export binary");
    let csv_bytes = std::fs::metadata(&csv_path).expect("csv size").len();
    let bin_bytes = std::fs::metadata(&bin_path).expect("bin size").len();

    let ingest_cfg = IngestConfig::default();
    let csv_s = time_best_of(REPS, || {
        ingest_csv(&csv_path, &ingest_cfg).expect("ingest csv")
    })
    .as_secs_f64();
    let bin_s = time_best_of(REPS, || {
        ingest_binary(&bin_path, &ingest_cfg).expect("ingest binary")
    })
    .as_secs_f64();
    let from_csv = ingest_csv(&csv_path, &ingest_cfg).expect("ingest csv");
    let from_bin = ingest_binary(&bin_path, &ingest_cfg).expect("ingest binary");
    let formats_agree = from_csv == from_bin;
    assert!(formats_agree, "csv and binary ingestion diverged");
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&bin_path).ok();

    let mut io_table = Table::new(&["format", "bytes", "seconds", "rows/s", "MB/s"]);
    for (name, bytes, secs) in [("csv", csv_bytes, csv_s), ("binary", bin_bytes, bin_s)] {
        io_table.row(vec![
            name.into(),
            bytes.to_string(),
            fmt(secs),
            fmt(file_rows as f64 / secs),
            fmt(bytes as f64 / 1e6 / secs),
        ]);
    }
    io_table.print();

    // ── Phase 2: per-iteration independence from n ────────────────────
    let accumulate_start = std::time::Instant::now();
    let stats_small = streamed_stats(&w, n_small, 0x51A7);
    let stats_big = streamed_stats(&w, n_big, 0x51A8);
    let accumulate_s = accumulate_start.elapsed().as_secs_f64();

    let cfg = fixed_work_config(d);
    let solver = LeastDense::new(cfg).expect("config");
    let small_s = time_best_of(REPS, || solver.fit_stats(&stats_small).expect("fit")).as_secs_f64();
    let big_s = time_best_of(REPS, || solver.fit_stats(&stats_big).expect("fit")).as_secs_f64();
    let per_iter_small = small_s / ITERS as f64;
    let per_iter_big = big_s / ITERS as f64;
    let ratio = per_iter_big / per_iter_small;

    // Contrast: the raw-data loss at n_small pays O(n·d²) per iteration
    // (timed alone: `ITERS` loss/gradient calls on the full sample matrix).
    let mut rng = Xoshiro256pp::new(0xDA7A);
    let small_x =
        sample_lsem(&w, n_small, NoiseModel::standard_gaussian(), &mut rng).expect("sample");
    let data_s = time_best_of(REPS, || {
        for _ in 0..ITERS {
            batch_value_and_grad(&small_x, &w, cfg.lambda).expect("loss");
        }
    })
    .as_secs_f64();
    let per_iter_data = data_s / ITERS as f64;

    let mut table = Table::new(&["path", "n", "s/iter"]);
    table.row(vec![
        "gram".into(),
        n_small.to_string(),
        fmt(per_iter_small),
    ]);
    table.row(vec!["gram".into(), n_big.to_string(), fmt(per_iter_big)]);
    table.row(vec!["data".into(), n_small.to_string(), fmt(per_iter_data)]);
    table.print();
    println!(
        "\ngram per-iteration ratio (n={n_big} / n={n_small}): {} — target ≤ 1.25",
        fmt(ratio)
    );

    least_bench::emit_report(
        "ingest_throughput",
        "BENCH_ingest.json",
        vec![
            ("d", JsonValue::Num(d as f64)),
            ("reps_best_of", JsonValue::Num(REPS as f64)),
            ("file_rows", JsonValue::Num(file_rows as f64)),
            ("csv_bytes", JsonValue::Num(csv_bytes as f64)),
            ("csv_ingest_seconds", JsonValue::Num(csv_s)),
            ("csv_rows_per_s", JsonValue::Num(file_rows as f64 / csv_s)),
            ("binary_bytes", JsonValue::Num(bin_bytes as f64)),
            ("binary_ingest_seconds", JsonValue::Num(bin_s)),
            (
                "binary_rows_per_s",
                JsonValue::Num(file_rows as f64 / bin_s),
            ),
            ("formats_agree_bitwise", JsonValue::Bool(formats_agree)),
            ("train_iters", JsonValue::Num(ITERS as f64)),
            ("n_small", JsonValue::Num(n_small as f64)),
            ("n_big", JsonValue::Num(n_big as f64)),
            ("accumulate_both_seconds", JsonValue::Num(accumulate_s)),
            (
                "gram_per_iter_seconds_n_small",
                JsonValue::Num(per_iter_small),
            ),
            ("gram_per_iter_seconds_n_big", JsonValue::Num(per_iter_big)),
            ("gram_per_iter_ratio_big_over_small", JsonValue::Num(ratio)),
            (
                "data_per_iter_seconds_n_small",
                JsonValue::Num(per_iter_data),
            ),
        ],
    );
}
