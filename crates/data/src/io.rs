//! On-disk dataset formats: CSV and the `LEASTDAT` binary record format.
//!
//! This module owns the *write* side so sampled LSEM datasets can round-trip
//! generate → export → ingest → learn; the streaming *read* side lives in
//! the `least-ingest` crate (which depends on this one and shares the
//! layout constants below). See DESIGN.md §9 for the format rationale.
//!
//! ## CSV
//!
//! One header line of comma-separated column names, then one row per
//! sample. Values are printed with Rust's shortest-round-trip float
//! formatting, so `write → parse` reproduces every `f64` bit-exactly
//! (non-finite values excepted — they are rejected at export time, since
//! a sufficient-statistics pass cannot absorb a NaN meaningfully).
//!
//! ## `LEASTDAT` binary
//!
//! A streamed `LEASTDAT` envelope, version 1 (DESIGN.md §9.1), whose body
//! is `d u64 | n u64 | d column names (u32 len + utf-8) | n·d f64 samples,
//! row-major`. Rows are stored row-major on purpose: a one-pass Gram
//! accumulation needs whole observations, so a row-record layout streams
//! with O(d) reader memory no matter how large `n` grows (a column-major
//! layout would force either `d` passes over the file or an `n`-sized
//! buffer). The checksum is computed incrementally on both sides, so
//! neither the writer nor the reader ever buffers the full payload.

use crate::dataset::Dataset;
use least_linalg::serialize::{write_f64_slice, write_str, write_u64, Envelope};
use least_linalg::{LinalgError, Result};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Magic bytes opening a `LEASTDAT` binary dataset.
pub const BINARY_MAGIC: &[u8; 8] = b"LEASTDAT";

/// Current binary dataset format version.
pub const BINARY_VERSION: u32 = 1;

/// The `LEASTDAT` envelope (magic + version), shared with the reader.
pub const BINARY_ENVELOPE: Envelope = Envelope::new(BINARY_MAGIC, BINARY_VERSION);

/// Synthetic column names `X0..X{d-1}` used when a dataset carries none.
pub fn default_column_names(d: usize) -> Vec<String> {
    (0..d).map(|j| format!("X{j}")).collect()
}

/// Map an I/O failure into the workspace error type (shared with the
/// `least-ingest` readers, so every dataset-I/O error renders the same).
pub fn io_err(e: std::io::Error) -> LinalgError {
    LinalgError::InvalidArgument(format!("io: {e}"))
}

/// Column names to export: the dataset's own, or `X0..`.
fn export_names(data: &Dataset) -> Vec<String> {
    data.column_names()
        .map(<[String]>::to_vec)
        .unwrap_or_else(|| default_column_names(data.num_vars()))
}

/// Reject values the ingestion algebra cannot represent, and names that
/// would corrupt the header line (CSV) or overflow a length prefix.
fn validate_export(data: &Dataset, names: &[String], csv: bool) -> Result<()> {
    if let Some(bad) = data.matrix().as_slice().iter().find(|v| !v.is_finite()) {
        return Err(LinalgError::InvalidArgument(format!(
            "cannot export non-finite sample value {bad}"
        )));
    }
    for name in names {
        if u32::try_from(name.len()).is_err() || (csv && name.contains([',', '\n', '\r'])) {
            return Err(LinalgError::InvalidArgument(format!(
                "column name {:?} is too long or contains a CSV delimiter",
                name.chars().take(64).collect::<String>()
            )));
        }
    }
    Ok(())
}

/// Write a dataset as CSV (header + rows) to any sink.
pub fn write_csv<W: Write>(data: &Dataset, out: &mut W) -> Result<()> {
    let names = export_names(data);
    validate_export(data, &names, true)?;
    writeln!(out, "{}", names.join(",")).map_err(io_err)?;
    let mut line = String::new();
    for row in data.matrix().rows_iter() {
        line.clear();
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            // Rust's float Display is shortest-round-trip: parsing the
            // text back yields the identical bit pattern.
            line.push_str(&format!("{v}"));
        }
        writeln!(out, "{line}").map_err(io_err)?;
    }
    out.flush().map_err(io_err)
}

/// Write a dataset as CSV to a file path.
pub fn export_csv(data: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    let mut w = BufWriter::new(File::create(path).map_err(io_err)?);
    write_csv(data, &mut w)
}

/// Write a dataset in the `LEASTDAT` binary record format to any sink.
pub fn write_binary<W: Write>(data: &Dataset, out: &mut W) -> Result<()> {
    let names = export_names(data);
    validate_export(data, &names, false)?;
    let mut header = Vec::new();
    write_u64(&mut header, data.num_vars() as u64);
    write_u64(&mut header, data.num_samples() as u64);
    for name in &names {
        write_str(&mut header, name);
    }
    let mut w = BINARY_ENVELOPE.writer(out).map_err(io_err)?;
    w.write_all(&header).map_err(io_err)?;
    // Row-major payload, one row's bit patterns at a time.
    let mut row_buf = Vec::with_capacity(data.num_vars() * 8);
    for row in data.matrix().rows_iter() {
        row_buf.clear();
        write_f64_slice(&mut row_buf, row);
        w.write_all(&row_buf).map_err(io_err)?;
    }
    w.seal().map_err(io_err)
}

/// Write a dataset in the `LEASTDAT` binary format to a file path.
pub fn export_binary(data: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    let mut w = BufWriter::new(File::create(path).map_err(io_err)?);
    write_binary(data, &mut w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_linalg::serialize::fnv1a64;
    use least_linalg::DenseMatrix;

    fn toy() -> Dataset {
        Dataset::with_names(
            DenseMatrix::from_rows(&[&[1.5, -0.0], &[1e-300, 2.0]]).unwrap(),
            vec!["alpha".into(), "beta".into()],
        )
        .unwrap()
    }

    #[test]
    fn csv_has_header_and_round_trip_floats() {
        let mut out = Vec::new();
        write_csv(&toy(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "alpha,beta");
        assert_eq!(lines.len(), 3);
        let v: f64 = lines[2].split(',').next().unwrap().parse().unwrap();
        assert_eq!(v.to_bits(), 1e-300f64.to_bits());
        // -0.0 survives the text round-trip too.
        let z: f64 = lines[1].split(',').nth(1).unwrap().parse().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn csv_defaults_to_synthetic_names() {
        let mut out = Vec::new();
        write_csv(&Dataset::new(DenseMatrix::zeros(1, 3)), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().starts_with("X0,X1,X2\n"));
    }

    #[test]
    fn non_finite_values_rejected() {
        let data = Dataset::new(DenseMatrix::from_rows(&[&[f64::NAN]]).unwrap());
        assert!(write_csv(&data, &mut Vec::new()).is_err());
        assert!(write_binary(&data, &mut Vec::new()).is_err());
    }

    #[test]
    fn delimiter_in_name_rejected() {
        let data = Dataset::with_names(DenseMatrix::zeros(1, 1), vec!["a,b".into()]).unwrap();
        assert!(write_csv(&data, &mut Vec::new()).is_err());
        // The binary format length-prefixes names, so it accepts them.
        assert!(write_binary(&data, &mut Vec::new()).is_ok());
    }

    #[test]
    fn binary_layout_and_checksum() {
        let mut out = Vec::new();
        write_binary(&toy(), &mut out).unwrap();
        assert_eq!(&out[..8], BINARY_MAGIC);
        assert_eq!(u32::from_le_bytes(out[8..12].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(out[12..20].try_into().unwrap()), 2); // d
        assert_eq!(u64::from_le_bytes(out[20..28].try_into().unwrap()), 2); // n
        let body = &out[..out.len() - 8];
        let trailer = u64::from_le_bytes(out[out.len() - 8..].try_into().unwrap());
        assert_eq!(fnv1a64(body), trailer);
    }

    #[test]
    fn default_names_are_indexed() {
        assert_eq!(default_column_names(3), vec!["X0", "X1", "X2"]);
    }
}
