//! Sample-matrix container with standardization and mini-batching.

use least_linalg::{DenseMatrix, LinalgError, Result, Xoshiro256pp};

/// An `n × d` dataset of i.i.d. observations, one row per sample.
#[derive(Debug, Clone)]
pub struct Dataset {
    x: DenseMatrix,
    /// Optional per-column variable names (CSV headers, schema labels).
    names: Option<Vec<String>>,
}

impl Dataset {
    /// Wrap a sample matrix.
    pub fn new(x: DenseMatrix) -> Self {
        Self { x, names: None }
    }

    /// Wrap a sample matrix with per-column variable names (one per
    /// column; exported as the CSV header by `least_data::io`).
    pub fn with_names(x: DenseMatrix, names: Vec<String>) -> Result<Self> {
        if names.len() != x.cols() {
            return Err(LinalgError::InvalidArgument(format!(
                "{} column names for a {}-column dataset",
                names.len(),
                x.cols()
            )));
        }
        Ok(Self {
            x,
            names: Some(names),
        })
    }

    /// Per-column variable names, when the dataset carries them.
    pub fn column_names(&self) -> Option<&[String]> {
        self.names.as_deref()
    }

    /// Number of samples `n`.
    pub fn num_samples(&self) -> usize {
        self.x.rows()
    }

    /// Number of variables `d`.
    pub fn num_vars(&self) -> usize {
        self.x.cols()
    }

    /// Borrow the underlying matrix.
    pub fn matrix(&self) -> &DenseMatrix {
        &self.x
    }

    /// Column means.
    pub fn means(&self) -> Vec<f64> {
        let n = self.num_samples().max(1) as f64;
        self.x.col_sums().into_iter().map(|s| s / n).collect()
    }

    /// Column standard deviations (population convention).
    pub fn std_devs(&self) -> Vec<f64> {
        let means = self.means();
        let n = self.num_samples().max(1) as f64;
        let mut acc = vec![0.0; self.num_vars()];
        for row in self.x.rows_iter() {
            for ((a, &v), &m) in acc.iter_mut().zip(row).zip(&means) {
                *a += (v - m) * (v - m);
            }
        }
        acc.into_iter().map(|s| (s / n).sqrt()).collect()
    }

    /// Subtract column means in place (the preprocessing the paper applies
    /// to MovieLens: "we subtract each user's mean rating" is per-row there,
    /// while benchmark LSEM data is centered per-variable — both are thin
    /// wrappers over this and [`Self::center_rows`]).
    pub fn center_columns(&mut self) {
        let means = self.means();
        for row in 0..self.x.rows() {
            for (v, &m) in self.x.row_mut(row).iter_mut().zip(&means) {
                *v -= m;
            }
        }
    }

    /// Subtract each row's own mean in place (per-user centering).
    pub fn center_rows(&mut self) {
        for row in 0..self.x.rows() {
            let r = self.x.row_mut(row);
            let m = r.iter().sum::<f64>() / r.len().max(1) as f64;
            for v in r {
                *v -= m;
            }
        }
    }

    /// Standardize columns to zero mean / unit variance in place; columns
    /// with zero variance are centered only.
    pub fn standardize_columns(&mut self) {
        let means = self.means();
        let stds = self.std_devs();
        for row in 0..self.x.rows() {
            for ((v, &m), &s) in self.x.row_mut(row).iter_mut().zip(&means).zip(&stds) {
                *v = if s > 0.0 { (*v - m) / s } else { *v - m };
            }
        }
    }

    /// Draw a batch of `b` sample rows (with replacement, as in SGD practice;
    /// `b >= n` returns a full copy without resampling so that the paper's
    /// `B = n` setting is the exact full-batch loss).
    pub fn sample_batch(&self, b: usize, rng: &mut Xoshiro256pp) -> DenseMatrix {
        let n = self.num_samples();
        let d = self.num_vars();
        if b >= n {
            return self.x.clone();
        }
        let mut out = DenseMatrix::zeros(b, d);
        for i in 0..b {
            let src = rng.next_below(n);
            out.row_mut(i).copy_from_slice(self.x.row(src));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(DenseMatrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0]]).unwrap())
    }

    #[test]
    fn dimensions() {
        let ds = toy();
        assert_eq!(ds.num_samples(), 3);
        assert_eq!(ds.num_vars(), 2);
    }

    #[test]
    fn means_and_stds() {
        let ds = toy();
        assert_eq!(ds.means(), vec![2.0, 20.0]);
        let stds = ds.std_devs();
        assert!((stds[0] - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn center_columns_zeroes_means() {
        let mut ds = toy();
        ds.center_columns();
        for m in ds.means() {
            assert!(m.abs() < 1e-12);
        }
    }

    #[test]
    fn center_rows_zeroes_row_means() {
        let mut ds = toy();
        ds.center_rows();
        for row in ds.matrix().rows_iter() {
            let m: f64 = row.iter().sum::<f64>() / row.len() as f64;
            assert!(m.abs() < 1e-12);
        }
    }

    #[test]
    fn standardize_gives_unit_variance() {
        let mut ds = toy();
        ds.standardize_columns();
        for m in ds.means() {
            assert!(m.abs() < 1e-12);
        }
        for s in ds.std_devs() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standardize_handles_constant_column() {
        let mut ds =
            Dataset::new(DenseMatrix::from_rows(&[&[5.0, 1.0], &[5.0, 2.0], &[5.0, 3.0]]).unwrap());
        ds.standardize_columns();
        // Constant column centered to 0, not NaN.
        for row in ds.matrix().rows_iter() {
            assert_eq!(row[0], 0.0);
            assert!(row[1].is_finite());
        }
    }

    #[test]
    fn full_batch_is_exact_copy() {
        let ds = toy();
        let mut rng = Xoshiro256pp::new(81);
        let b = ds.sample_batch(3, &mut rng);
        assert!(b.approx_eq(ds.matrix(), 0.0));
        let b = ds.sample_batch(10, &mut rng);
        assert!(b.approx_eq(ds.matrix(), 0.0));
    }

    #[test]
    fn column_names_round_trip_and_validate() {
        let m = DenseMatrix::zeros(2, 3);
        let named =
            Dataset::with_names(m.clone(), vec!["a".into(), "b".into(), "c".into()]).unwrap();
        assert_eq!(
            named.column_names().unwrap(),
            &["a".to_string(), "b".into(), "c".into()]
        );
        assert!(Dataset::new(m.clone()).column_names().is_none());
        assert!(Dataset::with_names(m, vec!["only".into()]).is_err());
    }

    #[test]
    fn minibatch_rows_come_from_dataset() {
        let ds = toy();
        let mut rng = Xoshiro256pp::new(82);
        let b = ds.sample_batch(2, &mut rng);
        assert_eq!(b.shape(), (2, 2));
        for row in b.rows_iter() {
            let found = ds.matrix().rows_iter().any(|r| r == row);
            assert!(found, "batch row not in dataset");
        }
    }
}
