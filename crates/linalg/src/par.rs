//! Scoped-thread data parallelism for the workspace's hot loops.
//!
//! The offline crate set has no `rayon`, so this module provides the small
//! subset the kernels actually need on `std::thread::scope`, as three entry
//! points: an ordered block map ([`map_ranges`]), an ordered vector
//! accumulate ([`accumulate_ranges`]) and a disjoint-write split
//! ([`for_each_split_mut`]).
//!
//! One partition rule serves all three: `0..n` is cut into at most 16
//! blocks (a power of two) of at least `grain` items, decided by
//! `(n, grain)` alone. The blocks then run on `min(max_threads(), blocks)`
//! threads, each taking a contiguous run, and partial results are combined
//! in block order. Work too small for its `grain` is one block, which is
//! the serial loop. When [`max_threads`] is 1 (the `--no-default-features`
//! build, [`set_thread_override`], or `LEAST_NUM_THREADS=1`), all blocks
//! run in order on the calling thread.
//!
//! Determinism: since neither the partition nor the combining order sees
//! the pool size, every kernel built on these entry points, reductions
//! included, is bit-identical across thread counts and between the
//! parallel and serial builds.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard cap on worker threads and on blocks per partition: past this,
/// spawn overhead and memory bandwidth dominate for these kernels.
const MAX_POOL: usize = 16;

/// Runtime override; 0 = auto-detect.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the worker-thread count at runtime (`None` restores auto-detect).
/// Values are clamped to `1..=16`. Mainly for benchmarks that want to
/// compare serial and parallel execution within one process.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(
        threads.map_or(0, |t| t.clamp(1, MAX_POOL)),
        Ordering::Relaxed,
    );
}

/// Worker threads parallel kernels may use. Always 1 without the
/// `parallel` feature; otherwise the override, the `LEAST_NUM_THREADS`
/// environment variable, or `available_parallelism`, in that order.
pub fn max_threads() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
        let overridden = THREAD_OVERRIDE.load(Ordering::Relaxed);
        if overridden != 0 {
            return overridden;
        }
        // This sits on per-operation hot paths (every spmv/row-sum checks
        // it), so the environment is consulted exactly once per process.
        static AUTO: OnceLock<usize> = OnceLock::new();
        *AUTO.get_or_init(|| {
            if let Some(n) = std::env::var("LEAST_NUM_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
            {
                return n.clamp(1, MAX_POOL);
            }
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_POOL)
        })
    }
}

/// The partition every entry point uses: `0..n` cut into `count` contiguous
/// blocks of `⌊n / count⌋` or `⌈n / count⌉` items, where `count` is
/// `n / grain` rounded down to a power of two and capped at [`MAX_POOL`]
/// (one block when `n < 2·grain`; none when `n == 0`). It depends on
/// `(n, grain)` alone, never on the pool size; the power of two lets pools
/// of 2, 4, 8 or 16 threads take equal runs of blocks.
fn blocks(n: usize, grain: usize) -> Vec<Range<usize>> {
    let count = 1 << (n / grain.max(1)).clamp(1, MAX_POOL).ilog2();
    (0..count)
        .map(|b| b * n / count..(b + 1) * n / count)
        .filter(|r| !r.is_empty())
        .collect()
}

/// Apply `f` to every item on `min(max_threads(), items.len())` threads,
/// each taking a contiguous run of items, and return the results in item
/// order. The first run executes on the calling thread.
fn run<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let per = items.len().div_ceil(threads);
    let mut items = items.into_iter();
    let mut runs: Vec<Vec<I>> = Vec::with_capacity(threads);
    while items.len() > 0 {
        runs.push(items.by_ref().take(per).collect());
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut runs = runs.into_iter();
        let first = runs.next().expect("at least two runs");
        let workers: Vec<_> = runs
            .map(|run| scope.spawn(move || run.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = first.into_iter().map(f).collect();
        for worker in workers {
            out.extend(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

/// Ordered block map: apply `f` to each block of `0..n` (the module's
/// partition rule) in parallel and return the results in block order.
pub fn map_ranges<R, F>(n: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    run(blocks(n, grain), f)
}

/// Ordered vector accumulate: each block of `0..n` produces a partial
/// vector of length `len`, and the partials are summed element-wise in
/// block order. A single block is returned as is, so the one-block case is
/// exactly the serial loop.
pub fn accumulate_ranges(
    n: usize,
    grain: usize,
    len: usize,
    f: impl Fn(Range<usize>) -> Vec<f64> + Sync,
) -> Vec<f64> {
    let mut partials = map_ranges(n, grain, f).into_iter();
    let mut acc = partials.next().unwrap_or_else(|| vec![0.0; len]);
    for partial in partials {
        debug_assert_eq!(partial.len(), len);
        for (a, v) in acc.iter_mut().zip(partial) {
            *a += v;
        }
    }
    acc
}

/// Disjoint-write split of a buffer holding `n` rows, row `i` starting at
/// element `offset(i)` (non-decreasing, `offset(0) == 0`, `offset(n) ==
/// data.len()`): `i·stride` for a row-major matrix, `row_ptr` for CSR
/// values, the packed row offset for a triangle. The elements are cut into
/// blocks of at least `grain` elements by the module's partition rule, each
/// cut moved forward to the next row start, so pieces are balanced by
/// element count however ragged the rows are. `f(rows, piece)` runs on
/// every piece in parallel.
pub fn for_each_split_mut<T, F>(
    data: &mut [T],
    n: usize,
    grain: usize,
    offset: impl Fn(usize) -> usize,
    f: F,
) where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    debug_assert_eq!(offset(n), data.len());
    let parts = blocks(data.len(), grain);
    if parts.len() <= 1 {
        return f(0..n, data);
    }
    // First row whose start is at or after element `at`.
    let row_at = |at: usize| {
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if offset(mid) < at {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let mut cuts = vec![0];
    for block in &parts[1..] {
        let row = row_at(block.start);
        if row > cuts[cuts.len() - 1] && row < n {
            cuts.push(row);
        }
    }
    cuts.push(n);
    let mut pieces = Vec::with_capacity(cuts.len() - 1);
    let mut rest = data;
    for pair in cuts.windows(2) {
        let (piece, tail) = rest.split_at_mut(offset(pair[1]) - offset(pair[0]));
        pieces.push((pair[0]..pair[1], piece));
        rest = tail;
    }
    run(pieces, |(rows, piece)| f(rows, piece));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_respect_grain_and_cap() {
        // 10 items at grain 8: one block.
        assert_eq!(blocks(10, 8), vec![0..10]);
        assert!(blocks(0, 4).is_empty());
        // 3.3 blocks' worth of items rounds down to 2 blocks.
        assert_eq!(blocks(1000, 300), vec![0..500, 500..1000]);
        // Blocks cover 0..n exactly, in order, each non-empty, at most 16.
        for (n, grain) in [(1000, 10), (1000, 300), (17, 1), (4096, 4096), (9, 2)] {
            let parts = blocks(n, grain);
            assert!(parts.len().is_power_of_two() && parts.len() <= MAX_POOL);
            assert!(parts.len() == 1 || parts.iter().all(|r| r.len() >= grain));
            assert_eq!(parts.first().unwrap().start, 0);
            assert_eq!(parts.last().unwrap().end, n);
            for pair in parts.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert!(parts.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn map_ranges_preserves_order() {
        let firsts = map_ranges(100, 1, |r| r.start);
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(firsts, sorted);
        assert_eq!(firsts.len(), MAX_POOL);
    }

    #[test]
    fn accumulate_matches_serial_scatter() {
        // Scatter i -> i % 7 with weight i, in parallel partials.
        let got = accumulate_ranges(1_000, 16, 7, |r| {
            let mut local = vec![0.0; 7];
            for i in r {
                local[i % 7] += i as f64;
            }
            local
        });
        let mut expected = vec![0.0; 7];
        for i in 0..1_000 {
            expected[i % 7] += i as f64;
        }
        assert_eq!(got, expected);
        assert_eq!(
            accumulate_ranges(0, 16, 3, |_| unreachable!()),
            vec![0.0; 3]
        );
    }

    #[test]
    fn split_cuts_at_row_starts() {
        // Ragged rows 0..6 of lengths 0, 3, 1, 4, 2, 0.
        let starts = [0usize, 0, 3, 4, 8, 10, 10];
        let mut data = vec![usize::MAX; 10];
        for_each_split_mut(
            &mut data,
            6,
            3,
            |i| starts[i],
            |rows, piece| {
                assert_eq!(piece.len(), starts[rows.end] - starts[rows.start]);
                let mut k = 0;
                for r in rows {
                    for _ in starts[r]..starts[r + 1] {
                        piece[k] = r;
                        k += 1;
                    }
                }
            },
        );
        assert_eq!(data, vec![1, 1, 1, 2, 3, 3, 3, 3, 4, 4]);
    }

    #[test]
    fn split_visits_every_row_once() {
        let (rows, cols) = (37, 5);
        let mut data = vec![0usize; rows * cols];
        for_each_split_mut(
            &mut data,
            rows,
            8,
            |i| i * cols,
            |block, piece| {
                for (i, row) in block.zip(piece.chunks_mut(cols)) {
                    for v in row {
                        *v += i + 1;
                    }
                }
            },
        );
        for (i, row) in data.chunks(cols).enumerate() {
            assert!(row.iter().all(|&v| v == i + 1));
        }
    }

    #[test]
    fn thread_override_round_trip() {
        set_thread_override(Some(1));
        assert_eq!(max_threads(), 1);
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }
}
