//! Endianness-pinned binary codec and the checksummed envelope shared by
//! every LEAST on-disk format (DESIGN.md §12).
//!
//! Every scalar is **little-endian by definition** and floats are raw bit
//! patterns, so bytes written on one machine load bit-exactly on any
//! other (`-0.0`, subnormals and NaN payloads included).
//!
//! An [`Envelope`] frames a body as `magic[8] | u32 version | body | u64
//! FNV-1a-64 over all preceding bytes`: [`Envelope::encode`] /
//! [`Envelope::open`] in one slice, [`Envelope::writer`] /
//! [`Envelope::reader`] streamed through `std::io` without buffering.
//! Readers check magic, then version, then the checksum, then the body;
//! trailing bytes are an error. Bodies are validated on read too: a
//! [`ByteReader`] returns [`LinalgError::InvalidArgument`] on truncated or
//! corrupt input, never panics, and CSR decoding re-checks the pattern
//! invariant through [`CsrMatrix::from_parts`].

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::Result;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Bounded little-endian reader over a byte slice.
///
/// Every `read_*` advances an internal cursor and fails (instead of
/// panicking) when the slice is exhausted — the defensive posture needed
/// for bytes that arrive over the network.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over the full slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current cursor position (bytes consumed so far).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Require that every byte was consumed.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(LinalgError::InvalidArgument(format!(
                "{n} trailing bytes after the payload"
            ))),
        }
    }

    /// Take the next `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(LinalgError::InvalidArgument(format!(
                "truncated input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Next byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32> {
        let b = self.read_bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Next little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64> {
        let b = self.read_bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Next `u64` as a dimension or count that must fit the platform word.
    pub fn read_dim(&mut self) -> Result<usize> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| {
            LinalgError::InvalidArgument(format!("dimension {v} exceeds the platform word size"))
        })
    }

    /// Next `f64`, decoded from its little-endian bit pattern.
    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Next string written by [`write_str`] (`u32` length + UTF-8 bytes).
    pub fn read_str(&mut self) -> Result<String> {
        let len = self.read_u32()? as usize;
        Ok(utf8(self.read_bytes(len)?.to_vec())?)
    }

    /// Next `len` little-endian `u32`s.
    pub fn read_u32_vec(&mut self, len: usize) -> Result<Vec<u32>> {
        let raw = self.read_bytes(len.checked_mul(4).ok_or_else(too_large)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Next `len` `f64`s (bit-pattern decode).
    pub fn read_f64_vec(&mut self, len: usize) -> Result<Vec<f64>> {
        let raw = self.read_bytes(len.checked_mul(8).ok_or_else(too_large)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }
}

fn too_large() -> LinalgError {
    LinalgError::InvalidArgument("declared length overflows the address space".into())
}

fn utf8(bytes: Vec<u8>) -> EnvResult<String> {
    String::from_utf8(bytes).map_err(|_| malformed("string field is not valid utf-8"))
}

/// Streaming FNV-1a 64-bit hasher — the workspace's integrity check (the
/// [`Envelope`] trailer and the journal's per-record checksums). Not
/// cryptographic; it guards against truncation and accidental corruption,
/// not adversaries. The incremental form exists so out-of-core readers and
/// writers can checksum gigabyte streams without buffering them.
#[derive(Debug, Clone)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// Fresh hasher (FNV-1a offset basis).
    pub fn new() -> Self {
        Self {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.state;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.state = hash;
    }

    /// Current digest (the hasher may keep absorbing afterwards).
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Append a little-endian `u32`.
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian bit pattern.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a string as `u32` byte length + UTF-8 bytes. Panics past
/// `u32::MAX` bytes: writers of untrusted strings reject those first.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u32(
        out,
        u32::try_from(s.len()).expect("string longer than u32::MAX bytes"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// Append a slice of `f64`s (bit patterns, little-endian).
pub fn write_f64_slice(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(vs.len() * 8);
    for &v in vs {
        write_f64(out, v);
    }
}

/// Append a slice of `u32`s (little-endian).
pub fn write_u32_slice(out: &mut Vec<u8>, vs: &[u32]) {
    out.reserve(vs.len() * 4);
    for &v in vs {
        write_u32(out, v);
    }
}

/// Encode a dense matrix: `rows u64 | cols u64 | data f64[rows*cols]`
/// (row-major, bit patterns).
pub fn write_dense(out: &mut Vec<u8>, m: &DenseMatrix) {
    write_u64(out, m.rows() as u64);
    write_u64(out, m.cols() as u64);
    write_f64_slice(out, m.as_slice());
}

/// Decode a dense matrix written by [`write_dense`].
pub fn read_dense(r: &mut ByteReader<'_>) -> Result<DenseMatrix> {
    let rows = r.read_dim()?;
    let cols = r.read_dim()?;
    let len = rows.checked_mul(cols).ok_or_else(too_large)?;
    let data = r.read_f64_vec(len)?;
    DenseMatrix::from_vec(rows, cols, data)
}

/// Encode a CSR matrix:
/// `rows u64 | cols u64 | nnz u64 | row_ptr u32[rows+1] | col_idx u32[nnz] | values f64[nnz]`.
pub fn write_csr(out: &mut Vec<u8>, m: &CsrMatrix) {
    write_u64(out, m.rows() as u64);
    write_u64(out, m.cols() as u64);
    write_u64(out, m.nnz() as u64);
    write_u32_slice(out, m.row_pointers());
    write_u32_slice(out, m.col_indices());
    write_f64_slice(out, m.values());
}

/// Decode a CSR matrix written by [`write_csr`], re-validating the full
/// pattern invariant (monotone row pointers, strictly increasing in-bounds
/// columns) so corrupt input cannot construct a malformed matrix.
pub fn read_csr(r: &mut ByteReader<'_>) -> Result<CsrMatrix> {
    let rows = r.read_dim()?;
    let cols = r.read_dim()?;
    let nnz = r.read_dim()?;
    let row_ptr = r.read_u32_vec(rows.checked_add(1).ok_or_else(too_large)?)?;
    let col_idx = r.read_u32_vec(nnz)?;
    let values = r.read_f64_vec(nnz)?;
    CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values)
}

/// Bytes in an envelope header: the 8-byte magic plus the `u32` version.
pub const HEADER_LEN: usize = 12;

/// Why an envelope was rejected; each format maps it to its own error.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvelopeError {
    /// The bytes do not start with the format's magic.
    BadMagic,
    /// The header declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// The trailer does not match the checksum of the preceding bytes.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Truncated input, trailing bytes, or an unreadable stream.
    Malformed(String),
}

type EnvResult<T> = std::result::Result<T, EnvelopeError>;

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::BadMagic => write!(f, "bad magic (not this file format)"),
            EnvelopeError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            EnvelopeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (corrupt or torn file): stored {stored:#018x}, computed {computed:#018x}"
            ),
            EnvelopeError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<EnvelopeError> for LinalgError {
    fn from(e: EnvelopeError) -> Self {
        LinalgError::InvalidArgument(e.to_string())
    }
}

/// Compare a stored checksum with the one computed over the bytes.
pub fn check_sum(stored: u64, computed: u64) -> EnvResult<()> {
    if stored != computed {
        return Err(EnvelopeError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

fn malformed(msg: impl fmt::Display) -> EnvelopeError {
    EnvelopeError::Malformed(msg.to_string())
}

/// One on-disk format: the magic and the version this build reads and
/// writes. Frames a body as `magic | version | body | FNV-1a-64`.
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    magic: &'static [u8; 8],
    version: u32,
}

impl Envelope {
    /// The envelope of format `magic`, version `version`.
    pub const fn new(magic: &'static [u8; 8], version: u32) -> Self {
        Self { magic, version }
    }

    /// The header bytes: magic, then version.
    pub fn header(&self) -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(self.magic);
        header[8..].copy_from_slice(&self.version.to_le_bytes());
        header
    }

    /// Check the header at the start of `bytes`: magic first, then version.
    pub fn check_header(&self, bytes: &[u8]) -> EnvResult<()> {
        let Some(version) = bytes.get(8..HEADER_LEN) else {
            return Err(malformed("shorter than the fixed header"));
        };
        if &bytes[..8] != self.magic {
            return Err(EnvelopeError::BadMagic);
        }
        match u32::from_le_bytes(version.try_into().expect("4 bytes")) {
            v if v == self.version => Ok(()),
            v => Err(EnvelopeError::UnsupportedVersion(v)),
        }
    }

    /// Frame one body: the header, whatever `body` appends, then the
    /// trailer, all in one buffer (`body_len` is a capacity hint).
    pub fn encode(&self, body_len: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + body_len + 8);
        out.extend_from_slice(&self.header());
        body(&mut out);
        let checksum = fnv1a64(&out);
        write_u64(&mut out, checksum);
        out
    }

    /// Check magic, version, then checksum of a framed slice, and return
    /// a reader over the body; callers end with [`ByteReader::finish`].
    pub fn open<'a>(&self, bytes: &'a [u8]) -> EnvResult<ByteReader<'a>> {
        self.check_header(bytes)?;
        if bytes.len() < HEADER_LEN + 8 {
            return Err(malformed("missing checksum trailer"));
        }
        let (framed, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        check_sum(stored, fnv1a64(framed))?;
        Ok(ByteReader::new(&framed[HEADER_LEN..]))
    }

    /// Start a streamed envelope over `inner`: writes the header; every
    /// later byte is hashed until [`Hashed::seal`] appends the trailer.
    pub fn writer<W: Write>(&self, inner: W) -> io::Result<Hashed<W>> {
        let mut w = Hashed::new(inner);
        w.write_all(&self.header())?;
        Ok(w)
    }

    /// Open a streamed envelope over `inner`: checks the header; every
    /// later byte is hashed until [`Hashed::verify`] checks the trailer.
    pub fn reader<R: Read>(&self, inner: R) -> EnvResult<Hashed<R>> {
        let mut r = Hashed::new(inner);
        self.check_header(&r.read_array::<HEADER_LEN>()?)?;
        Ok(r)
    }
}

/// The streaming envelope: a `Write` or `Read` wrapper that feeds the
/// checksum with every byte passing through, so gigabyte streams are
/// verified without buffering. Reads fail with typed errors, never panics.
#[derive(Debug)]
pub struct Hashed<S> {
    inner: S,
    hasher: Fnv1a64,
}

impl<S> Hashed<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            hasher: Fnv1a64::new(),
        }
    }
}

impl<W: Write> Write for Hashed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<W: Write> Hashed<W> {
    /// Append the checksum trailer and flush.
    pub fn seal(mut self) -> io::Result<()> {
        self.inner.write_all(&self.hasher.finish().to_le_bytes())?;
        self.inner.flush()
    }
}

impl<R: Read> Hashed<R> {
    /// Fill `buf` from the body.
    pub fn fill(&mut self, buf: &mut [u8]) -> EnvResult<()> {
        self.inner
            .read_exact(buf)
            .map_err(|e| malformed(format_args!("truncated stream: {e}")))?;
        self.hasher.update(buf);
        Ok(())
    }

    /// Next `N` bytes, e.g. a little-endian scalar.
    pub fn read_array<const N: usize>(&mut self) -> EnvResult<[u8; N]> {
        let mut buf = [0u8; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    /// Next string written by [`write_str`], refusing lengths above
    /// `max_len` before allocating.
    pub fn read_str(&mut self, max_len: u32) -> EnvResult<String> {
        let len = u32::from_le_bytes(self.read_array()?);
        if len > max_len {
            return Err(malformed(format_args!(
                "string field declares {len} bytes (limit {max_len})"
            )));
        }
        let mut bytes = vec![0u8; len as usize];
        self.fill(&mut bytes)?;
        utf8(bytes)
    }

    /// After the body: check the trailer against the running checksum
    /// and require end of stream.
    pub fn verify(&mut self) -> EnvResult<()> {
        let computed = self.hasher.finish();
        check_sum(u64::from_le_bytes(self.read_array()?), computed)?;
        match self.inner.read(&mut [0u8; 1]) {
            Ok(0) => Ok(()),
            Ok(_) => Err(malformed("trailing bytes after the checksum")),
            Err(e) => Err(malformed(format_args!("io: {e}"))),
        }
    }
}

/// Replace `path` crash-safely: write a sibling `<path>.tmp`, `sync_all`
/// it, rename it over `path`, then sync the directory so the rename is
/// durable. A crash leaves the old file or the new one, never a torn mix;
/// at worst a stray `.tmp` sibling remains.
pub fn write_file_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample_csr() -> CsrMatrix {
        let mut coo = Coo::new(3, 4);
        for &(i, j, v) in &[
            (0, 0, 1.5),
            (0, 3, -2.0),
            (1, 2, f64::MIN_POSITIVE),
            (2, 1, -0.0),
        ] {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn dense_round_trip_is_bit_exact() {
        let m =
            DenseMatrix::from_rows(&[&[1.0, -0.0, f64::MIN_POSITIVE], &[3.5e300, -1e-300, 0.1]])
                .unwrap();
        let mut bytes = Vec::new();
        write_dense(&mut bytes, &m);
        let back = read_dense(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.shape(), m.shape());
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn csr_round_trip_is_bit_exact() {
        let m = sample_csr();
        let mut bytes = Vec::new();
        write_csr(&mut bytes, &m);
        let back = read_csr(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.shape(), m.shape());
        assert_eq!(back.row_pointers(), m.row_pointers());
        assert_eq!(back.col_indices(), m.col_indices());
        for (a, b) in m.values().iter().zip(back.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Re-serialization reproduces the exact byte stream.
        let mut again = Vec::new();
        write_csr(&mut again, &back);
        assert_eq!(bytes, again);
    }

    #[test]
    fn truncated_input_is_rejected_not_panicking() {
        let mut bytes = Vec::new();
        write_dense(&mut bytes, &DenseMatrix::identity(4));
        for cut in [0, 7, 16, bytes.len() - 1] {
            assert!(
                read_dense(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn corrupt_csr_pattern_is_rejected() {
        let mut bytes = Vec::new();
        write_csr(&mut bytes, &sample_csr());
        // Flip a column index beyond `cols` (col_idx starts after the
        // 3 u64 header fields + 4 u32 row pointers).
        let col_off = 24 + 4 * 4;
        bytes[col_off] = 200;
        assert!(read_csr(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn reader_tracks_position_over_mixed_payloads() {
        let mut bytes = Vec::new();
        write_u32(&mut bytes, 7);
        write_dense(&mut bytes, &DenseMatrix::zeros(2, 2));
        write_u64(&mut bytes, 99);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u32().unwrap(), 7);
        let m = read_dense(&mut r).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(r.read_u64().unwrap(), 99);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn streaming_fnv_matches_one_shot() {
        let payload = b"least ingestion checksum stream";
        let one_shot = fnv1a64(payload);
        let mut h = Fnv1a64::new();
        for chunk in payload.chunks(5) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), one_shot);
        // Reference vectors for the FNV-1a-64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    const TEST: Envelope = Envelope::new(b"LEASTTST", 3);

    fn framed(body: &[u8]) -> Vec<u8> {
        TEST.encode(body.len(), |out| out.extend_from_slice(body))
    }

    #[test]
    fn envelope_layout_is_header_body_trailer() {
        let bytes = framed(b"body");
        assert_eq!(&bytes[..8], b"LEASTTST");
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes());
        assert_eq!(&bytes[12..16], b"body");
        assert_eq!(bytes[16..], fnv1a64(&bytes[..16]).to_le_bytes());
        let mut r = TEST.open(&bytes).unwrap();
        assert_eq!(r.read_bytes(4).unwrap(), b"body");
        r.finish().unwrap();
    }

    #[test]
    fn envelope_checks_magic_then_version_then_checksum() {
        let good = framed(b"payload");
        // A wrong magic wins over a wrong version and a bad checksum.
        let mut bad = good.clone();
        bad[0] = b'X';
        bad[8] = 9;
        assert_eq!(TEST.open(&bad).unwrap_err(), EnvelopeError::BadMagic);
        // A wrong version wins over a bad checksum.
        let mut bad = good.clone();
        bad[8] = 9;
        assert_eq!(
            TEST.open(&bad).unwrap_err(),
            EnvelopeError::UnsupportedVersion(9)
        );
        // Header intact: any body flip is a checksum mismatch.
        let mut bad = good.clone();
        bad[13] ^= 1;
        assert!(matches!(
            TEST.open(&bad),
            Err(EnvelopeError::ChecksumMismatch { .. })
        ));
        for cut in [0, 5, 12, 19] {
            assert!(TEST.open(&good[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn trailing_body_bytes_are_rejected() {
        let bytes = framed(&[7, 0, 0, 0, 0xEE]);
        let mut r = TEST.open(&bytes).unwrap();
        assert_eq!(r.read_u32().unwrap(), 7);
        assert!(r.finish().unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn streamed_envelope_matches_slice_envelope() {
        let mut body = Vec::new();
        write_u64(&mut body, 42);
        write_str(&mut body, "βeta");
        let mut streamed = Vec::new();
        let mut w = TEST.writer(&mut streamed).unwrap();
        w.write_all(&body).unwrap();
        w.seal().unwrap();
        assert_eq!(streamed, framed(&body));

        let mut r = TEST.reader(&streamed[..]).unwrap();
        assert_eq!(u64::from_le_bytes(r.read_array().unwrap()), 42);
        assert_eq!(r.read_str(16).unwrap(), "βeta");
        r.verify().unwrap();
    }

    #[test]
    fn streamed_envelope_rejects_corruption() {
        let bytes = framed(&[1, 2, 3, 4]);
        let read_all = |b: &[u8]| -> EnvResult<()> {
            let mut r = TEST.reader(b)?;
            r.read_array::<4>()?;
            r.verify()
        };
        read_all(&bytes).unwrap();
        let mut flipped = bytes.clone();
        flipped[14] ^= 1;
        assert!(matches!(
            read_all(&flipped),
            Err(EnvelopeError::ChecksumMismatch { .. })
        ));
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(read_all(&longer).is_err());
        assert!(read_all(&bytes[..bytes.len() - 1]).is_err());
        let mut wrong = bytes.clone();
        wrong[8] = 4;
        assert_eq!(
            read_all(&wrong).unwrap_err(),
            EnvelopeError::UnsupportedVersion(4)
        );
        // An oversized string length is refused before allocating.
        let mut r = TEST
            .reader(io::Cursor::new(framed(&u32::MAX.to_le_bytes())))
            .unwrap();
        assert!(r.read_str(1 << 20).is_err());
    }

    #[test]
    fn string_codec_round_trips_and_rejects_bad_utf8() {
        let mut bytes = Vec::new();
        write_str(&mut bytes, "");
        write_str(&mut bytes, "λ=0.1");
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_str().unwrap(), "");
        assert_eq!(r.read_str().unwrap(), "λ=0.1");
        r.finish().unwrap();
        let bad = [2, 0, 0, 0, 0xFF, 0xFE];
        assert!(ByteReader::new(&bad).read_str().is_err());
    }

    #[test]
    fn atomic_write_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("least_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.bin");
        write_file_atomic(&path, b"old").unwrap();
        write_file_atomic(&path, b"new contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(names.len(), 1, "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn declared_length_overflow_is_rejected() {
        // A dense header claiming u64::MAX x u64::MAX must fail cleanly.
        let mut bytes = Vec::new();
        write_u64(&mut bytes, u64::MAX);
        write_u64(&mut bytes, u64::MAX);
        assert!(read_dense(&mut ByteReader::new(&bytes)).is_err());
    }
}
