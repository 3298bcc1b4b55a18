//! Golden-byte fixture for the `LEASTDAT` binary dataset format.
//!
//! `tests/golden/named.dat` pins the on-disk layout byte for byte: the
//! writer must reproduce it exactly from the fixed dataset below, and
//! streaming it back through [`BinaryReader`] then re-writing it must be
//! the identity.

use least_data::io::write_binary;
use least_data::Dataset;
use least_ingest::{BinaryReader, ChunkSource};
use least_linalg::DenseMatrix;

fn named_dataset() -> Dataset {
    Dataset::with_names(
        DenseMatrix::from_rows(&[&[1.5, -0.0], &[1e-300, 2.0], &[-7.25, f64::MIN_POSITIVE]])
            .unwrap(),
        vec!["alpha".into(), "βeta".into()],
    )
    .unwrap()
}

#[test]
fn named_dataset_matches_golden_bytes() {
    let golden: &[u8] = include_bytes!("golden/named.dat");
    let mut bytes = Vec::new();
    write_binary(&named_dataset(), &mut bytes).unwrap();
    assert_eq!(bytes, golden, "encoding drifted from the fixture");

    let mut reader = BinaryReader::from_reader(golden).unwrap();
    let names = reader.column_names().unwrap().to_vec();
    let chunk = reader.next_chunk(usize::MAX).unwrap().unwrap();
    assert!(reader.next_chunk(usize::MAX).unwrap().is_none());
    let mut again = Vec::new();
    write_binary(&Dataset::with_names(chunk, names).unwrap(), &mut again).unwrap();
    assert_eq!(again, golden, "decode → encode is not the identity");
}
