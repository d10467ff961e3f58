//! Minimal big-endian byte buffer primitives for the wire format.
//!
//! [`ByteWriter`] appends fixed-width integers/floats to a growable
//! `Vec<u8>`; [`ByteReader`] walks a received frame back. Both are in-tree
//! (no external `bytes` dependency) so the workspace builds with zero
//! network access, and both use network byte order so encoded frames are
//! stable across hosts.
//!
//! Decoding is fallible: frames may arrive over a real socket, so a short
//! or corrupted frame is an I/O condition ([`WireError`]), never a panic.

use std::fmt;

/// A malformed frame observed while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before the requested field.
    Underflow {
        /// Bytes the decoder asked for.
        wanted: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// A tag/discriminant byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A declared length is impossible (e.g. larger than the frame).
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The declared element/byte count.
        declared: u64,
        /// Bytes actually available.
        available: usize,
    },
    /// Decoding finished but bytes were left over.
    TrailingBytes {
        /// How many bytes were not consumed.
        left: usize,
    },
    /// A packed row-span table describes overlapping, gapped, or
    /// out-of-range row regions.
    BadSpan {
        /// What was being decoded.
        what: &'static str,
        /// Expert index of the offending span.
        expert: u32,
        /// The offset/count the span declared.
        declared: u32,
        /// What a dense, in-order region layout required instead.
        expected: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Underflow { wanted, left } => {
                write!(
                    f,
                    "wire frame underflow: wanted {wanted} bytes, {left} left"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadLength {
                what,
                declared,
                available,
            } => write!(
                f,
                "implausible {what} length {declared} (frame has {available} bytes left)"
            ),
            WireError::TrailingBytes { left } => {
                write!(f, "frame has {left} trailing bytes after decoding")
            }
            WireError::BadSpan {
                what,
                expert,
                declared,
                expected,
            } => write!(
                f,
                "invalid {what} for expert {expert}: declared {declared}, dense layout requires \
                 {expected}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only big-endian encoder over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` in big-endian order.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32` in big-endian order.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64` in big-endian order.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f32` in big-endian IEEE-754 order.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a whole `f32` slice in big-endian IEEE-754 order: one
    /// reservation and a vectorizable conversion loop, bit-identical to
    /// calling [`put_f32`](Self::put_f32) per element. Tensor payloads
    /// (dispatches, gradient rows, optimizer moments) are megabytes — a
    /// push per value is measurable on the step critical path.
    pub fn put_f32s(&mut self, values: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * 4, 0);
        for (chunk, v) in self.buf[start..].chunks_exact_mut(4).zip(values) {
            chunk.copy_from_slice(&v.to_be_bytes());
        }
    }

    /// Appends raw bytes verbatim.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Finishes encoding, yielding the frame.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based big-endian decoder over a byte slice.
///
/// All getters return [`WireError::Underflow`] when the frame is short —
/// frames may come off a socket, so truncation is a runtime condition,
/// not a bug.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds iff the frame was consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(WireError::TrailingBytes { left }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Underflow {
                wanted: n,
                left: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array, for the fixed-width getters.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let Some((head, _)) = self.buf[self.pos..].split_first_chunk::<N>() else {
            return Err(WireError::Underflow {
                wanted: N,
                left: self.remaining(),
            });
        };
        self.pos += N;
        Ok(*head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        self.take_array().map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.take_array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.take_array().map(u64::from_be_bytes)
    }

    /// Reads a big-endian IEEE-754 `f32`.
    pub fn get_f32(&mut self) -> Result<f32, WireError> {
        self.take_array().map(f32::from_be_bytes)
    }

    /// Reads `n` big-endian IEEE-754 `f32`s with a single bounds check,
    /// bit-identical to `n` [`get_f32`](Self::get_f32) calls.
    pub fn get_f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        let (words, _) = self.take(n * 4)?.as_chunks::<4>();
        Ok(words.iter().map(|&w| f32::from_be_bytes(w)).collect())
    }

    /// Reads exactly `out.len()` raw bytes into `out`.
    pub fn copy_to_slice(&mut self, out: &mut [u8]) -> Result<(), WireError> {
        out.copy_from_slice(self.take(out.len())?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut w = ByteWriter::with_capacity(32);
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-1.5);
        w.put_slice(&[1, 2, 3]);
        let frame = w.into_vec();
        assert_eq!(frame.len(), 1 + 4 + 8 + 4 + 3);

        let mut r = ByteReader::new(&frame);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap(), -1.5);
        let mut tail = [0u8; 3];
        r.copy_to_slice(&mut tail).unwrap();
        assert_eq!(tail, [1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn encoding_is_big_endian() {
        let mut w = ByteWriter::default();
        w.put_u32(0x0102_0304);
        assert_eq!(w.into_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn f32_bits_survive_roundtrip() {
        for v in [0.0f32, -0.0, f32::MIN_POSITIVE, f32::INFINITY, 1e-30] {
            let mut w = ByteWriter::default();
            w.put_f32(v);
            let frame = w.into_vec();
            let got = ByteReader::new(&frame).get_f32().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn underflow_is_an_error_not_a_panic() {
        let err = ByteReader::new(&[1, 2]).get_u32().unwrap_err();
        assert_eq!(err, WireError::Underflow { wanted: 4, left: 2 });
        assert!(err.to_string().contains("underflow"));
    }

    #[test]
    fn finish_reports_trailing_bytes() {
        let mut r = ByteReader::new(&[9, 1, 2]);
        r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { left: 2 }));
    }
}
