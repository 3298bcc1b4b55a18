//! Packed symmetric rank-update accumulator — the syrk (`G += XᵀX`)
//! kernel behind out-of-core sufficient-statistics ingestion.
//!
//! `XᵀX` is symmetric, so the accumulator stores only the upper triangle,
//! row-major packed (`d(d+1)/2` scalars instead of `d²`), and every
//! [`PackedSym::rank_update`] touches half the flops a general `t_matmul`
//! would.
//!
//! ## Determinism contract
//!
//! The ingestion layer chunks an `n`-row stream arbitrarily (chunk size is
//! an I/O tunable) and parallelizes over threads (pool size is a machine
//! property). Neither may change the accumulated statistics, so the update
//! is written to make the floating-point summation order a function of the
//! *sample order only*:
//!
//! * parallelism partitions the **output rows** of `G` (disjoint writes,
//!   no merged partial sums), so no partition regroups an accumulation;
//! * each output entry `G[j,l]` accumulates `x[s,j]·x[s,l]` strictly in
//!   sample order `s`, directly into the running total — never into a
//!   chunk-local temporary that is folded in later — so re-chunking the
//!   stream never re-associates a sum.
//!
//! Result: `rank_update` over any chunking of the same row stream, at any
//! thread count, is **bit-identical**.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::par;
use crate::Result;

/// Upper-triangular packed symmetric `d×d` accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedSym {
    d: usize,
    /// Row-major packed upper triangle: row `j` stores `G[j, j..d]` and
    /// starts at offset `j·d − j(j−1)/2`.
    data: Vec<f64>,
}

/// Minimum packed entries per block in [`PackedSym::rank_update`].
const PACKED_GRAIN: usize = 1 << 12;

/// Offset of row `j`'s first packed entry (`G[j,j]`) in an order-`d`
/// triangle; `row_offset(d, d)` is the packed length.
#[inline]
fn row_offset(d: usize, j: usize) -> usize {
    j * (2 * d + 1 - j) / 2
}

impl PackedSym {
    /// Zero accumulator of order `d`.
    pub fn zeros(d: usize) -> Self {
        Self {
            d,
            data: vec![0.0; d * (d + 1) / 2],
        }
    }

    /// Matrix order.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Packed upper-triangle storage (row-major, row `j` holds `j..d`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Entry `G[i,j]` (either triangle).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        self.data[row_offset(self.d, lo) + (hi - lo)]
    }

    /// `G += chunk ᵀ· chunk` for an `m×d` row chunk — the streaming syrk
    /// update. Bit-identical across chunkings of the same row stream and
    /// across thread counts (see the module docs).
    pub fn rank_update(&mut self, chunk: &DenseMatrix) -> Result<()> {
        if chunk.cols() != self.d {
            return Err(LinalgError::ShapeMismatch {
                found: chunk.shape(),
                expected: (chunk.rows(), self.d),
            });
        }
        let d = self.d;
        let m = chunk.rows();
        if m == 0 || d == 0 {
            return Ok(());
        }
        let offset = |j| row_offset(d, j);
        par::for_each_split_mut(&mut self.data, d, PACKED_GRAIN, offset, |rows, slice| {
            let mut off = 0usize;
            for j in rows {
                let row_acc = &mut slice[off..off + d - j];
                for s in 0..m {
                    let xr = &chunk.row(s)[j..];
                    let xj = xr[0];
                    if xj != 0.0 {
                        for (a, &v) in row_acc.iter_mut().zip(xr) {
                            *a += xj * v;
                        }
                    }
                }
                off += d - j;
            }
        });
        Ok(())
    }

    /// Unpack to a full symmetric dense matrix (mirroring the stored upper
    /// triangle).
    pub fn to_dense(&self) -> DenseMatrix {
        let d = self.d;
        let mut out = DenseMatrix::zeros(d, d);
        for j in 0..d {
            let off = row_offset(d, j);
            for l in j..d {
                let v = self.data[off + (l - j)];
                out[(j, l)] = v;
                out[(l, j)] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn random_chunk(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        DenseMatrix::from_fn(rows, cols, |_, _| rng.gaussian())
    }

    #[test]
    fn matches_t_matmul() {
        let x = random_chunk(57, 9, 11);
        let mut acc = PackedSym::zeros(9);
        acc.rank_update(&x).unwrap();
        let direct = x.t_matmul(&x).unwrap();
        let unpacked = acc.to_dense();
        assert!(
            unpacked.approx_eq(&direct, 1e-12 * direct.max_abs().max(1.0)),
            "max diff {}",
            unpacked.max_abs_diff(&direct).unwrap()
        );
    }

    #[test]
    fn chunked_update_is_bit_identical_to_one_shot() {
        let x = random_chunk(101, 7, 12);
        let mut whole = PackedSym::zeros(7);
        whole.rank_update(&x).unwrap();
        for chunk_rows in [1usize, 3, 10, 64, 101, 500] {
            let mut chunked = PackedSym::zeros(7);
            let mut s = 0;
            while s < x.rows() {
                let hi = (s + chunk_rows).min(x.rows());
                let piece = DenseMatrix::from_fn(hi - s, x.cols(), |i, j| x[(s + i, j)]);
                chunked.rank_update(&piece).unwrap();
                s = hi;
            }
            assert_eq!(
                whole.as_slice(),
                chunked.as_slice(),
                "chunk_rows={chunk_rows} changed the accumulation"
            );
        }
    }

    #[test]
    fn get_reads_both_triangles() {
        let x = random_chunk(20, 4, 14);
        let mut acc = PackedSym::zeros(4);
        acc.rank_update(&x).unwrap();
        let g = x.t_matmul(&x).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((acc.get(i, j) - g[(i, j)]).abs() < 1e-12 * g.max_abs());
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut acc = PackedSym::zeros(3);
        assert!(acc.rank_update(&DenseMatrix::zeros(5, 4)).is_err());
    }

    #[test]
    fn empty_chunk_is_noop() {
        let mut acc = PackedSym::zeros(3);
        acc.rank_update(&DenseMatrix::zeros(0, 3)).unwrap();
        assert!(acc.as_slice().iter().all(|&v| v == 0.0));
    }
}
