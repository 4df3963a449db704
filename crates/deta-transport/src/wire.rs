//! The one byte codec behind every wire protocol in the workspace: the
//! party/aggregator messages (`deta_core::wire::Msg`), the runtime's
//! control plane (`deta_runtime::CtlMsg`), the socket bridge's frames
//! (`deta_socket::SocketFrame`) and the aggregator's breach-memory
//! records.
//!
//! Every format built on it shares one set of conventions:
//!
//! * a message starts with a one-byte tag;
//! * integers and floats are little-endian, fixed width; a `bool` is one
//!   byte, `0` or `1`;
//! * variable-length fields carry a `u32` length prefix (bytes for byte
//!   strings and UTF-8 strings, elements for `f32` vectors and lists);
//!   socket-frame endpoint names carry a `u16` prefix instead;
//! * a decoder rejects trailing bytes ([`Reader::finish`]) and any
//!   element count the remaining buffer cannot hold
//!   ([`Reader::count`]) before it allocates.
//!
//! Both directions are total. [`Reader`] never panics on malformed input
//! — attacker-controlled bytes reach it directly — and [`Writer`]
//! reports a field too long for its prefix as an [`EncodeError`] instead
//! of truncating the prefix into a frame that decodes as something else.
//!
//! # Examples
//!
//! ```
//! use deta_transport::wire::{Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.u8(7);
//! w.string("agg-0").unwrap();
//! w.f32s(&[1.0, -2.5]).unwrap();
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.u8(), Ok(7));
//! assert_eq!(r.string().as_deref(), Ok("agg-0"));
//! assert_eq!(r.f32s(), Ok(vec![1.0, -2.5]));
//! assert!(r.finish().is_ok());
//! ```

use std::fmt;

/// A malformed message: truncated, trailing bytes, an unknown tag, an
/// out-of-range value, or invalid UTF-8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire message")
    }
}

impl std::error::Error for DecodeError {}

/// A variable-length field exceeds its length prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError;

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire message field exceeds its length prefix")
    }
}

impl std::error::Error for EncodeError {}

/// Bounds-checked sequential reader over an untrusted buffer. Every
/// read fails with [`DecodeError`] when the input is too short or the
/// value is malformed; none panics.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn prefix(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u32()?).map_err(|_| DecodeError)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// A fixed-size byte array (nonces, training ids).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A `bool` byte; anything but 0 or 1 is malformed.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError),
        }
    }

    /// A `u32` element count for a list whose entries each take at least
    /// `min_entry` bytes. A count the remaining buffer cannot hold is
    /// rejected here, before the caller allocates for it.
    pub fn count(&mut self, min_entry: usize) -> Result<usize, DecodeError> {
        let n = self.prefix()?;
        match n.checked_mul(min_entry) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(DecodeError),
        }
    }

    /// A `u32`-prefixed byte string, borrowed from the buffer.
    pub fn slice(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.prefix()?;
        self.take(n)
    }

    /// A `u32`-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        Ok(self.slice()?.to_vec())
    }

    /// A `u32`-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        utf8(self.slice()?)
    }

    /// A `u16`-prefixed UTF-8 string (socket-frame endpoint names).
    pub fn name(&mut self) -> Result<String, DecodeError> {
        let n = usize::from(self.u16()?);
        utf8(self.take(n)?)
    }

    /// A `u32`-counted list of `u32`-prefixed byte strings.
    pub fn byte_list(&mut self) -> Result<Vec<Vec<u8>>, DecodeError> {
        (0..self.count(4)?).map(|_| self.bytes()).collect()
    }

    /// A `u32`-counted list of `u32`-prefixed UTF-8 strings.
    pub fn string_list(&mut self) -> Result<Vec<String>, DecodeError> {
        (0..self.count(4)?).map(|_| self.string()).collect()
    }

    /// A `u32`-counted vector of little-endian `f32`s.
    pub fn f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Ends the message; unconsumed bytes are malformed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError)
        }
    }
}

fn utf8(b: &[u8]) -> Result<String, DecodeError> {
    String::from_utf8(b.to_vec()).map_err(|_| DecodeError)
}

/// Append-only encoder mirroring [`Reader`]. Fixed-width fields cannot
/// fail; a length-prefixed field fails with [`EncodeError`] when its
/// length (or element count) does not fit the prefix.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes with no prefix (fixed-size arrays).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self, v: f32) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self, v: f64) {
        self.raw(&v.to_le_bytes());
    }

    /// A `bool` byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A `u32` length or element count.
    pub fn count(&mut self, n: usize) -> Result<(), EncodeError> {
        self.u32(u32::try_from(n).map_err(|_| EncodeError)?);
        Ok(())
    }

    /// A `u32`-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) -> Result<(), EncodeError> {
        self.count(b.len())?;
        self.raw(b);
        Ok(())
    }

    /// A `u32`-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) -> Result<(), EncodeError> {
        self.bytes(s.as_bytes())
    }

    /// A `u16`-prefixed UTF-8 string (socket-frame endpoint names).
    pub fn name(&mut self, s: &str) -> Result<(), EncodeError> {
        let n = u16::try_from(s.len()).map_err(|_| EncodeError)?;
        self.raw(&n.to_le_bytes());
        self.raw(s.as_bytes());
        Ok(())
    }

    /// A `u32`-counted list of `u32`-prefixed byte strings.
    pub fn byte_list(&mut self, v: &[Vec<u8>]) -> Result<(), EncodeError> {
        self.count(v.len())?;
        v.iter().try_for_each(|b| self.bytes(b))
    }

    /// A `u32`-counted list of `u32`-prefixed UTF-8 strings.
    pub fn string_list(&mut self, v: &[String]) -> Result<(), EncodeError> {
        self.count(v.len())?;
        v.iter().try_for_each(|s| self.string(s))
    }

    /// A `u32`-counted vector of little-endian `f32`s.
    pub fn f32s(&mut self, v: &[f32]) -> Result<(), EncodeError> {
        self.count(v.len())?;
        self.buf.reserve(v.len() * 4);
        for x in v {
            self.f32(*x);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_roundtrips() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u32(7);
        w.u64(u64::MAX);
        w.f32(-2.5);
        w.f64(0.125);
        w.bool(true);
        w.raw(&[9; 16]);
        w.bytes(&[1, 2]).unwrap();
        w.string("party-0").unwrap();
        w.name("agg-1").unwrap();
        w.f32s(&[1.0, f32::MIN]).unwrap();
        w.byte_list(&[vec![3], Vec::new()]).unwrap();
        w.string_list(&["a".to_string()]).unwrap();
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xab));
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f32(), Ok(-2.5));
        assert_eq!(r.f64(), Ok(0.125));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.array::<16>(), Ok([9; 16]));
        assert_eq!(r.bytes(), Ok(vec![1, 2]));
        assert_eq!(r.string().as_deref(), Ok("party-0"));
        assert_eq!(r.name().as_deref(), Ok("agg-1"));
        assert_eq!(r.f32s(), Ok(vec![1.0, f32::MIN]));
        assert_eq!(r.byte_list(), Ok(vec![vec![3], Vec::new()]));
        assert_eq!(r.string_list(), Ok(vec!["a".to_string()]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn name_prefix_is_u16() {
        let mut w = Writer::new();
        w.name("ab").unwrap();
        assert_eq!(w.into_bytes(), [2, 0, b'a', b'b']);
        assert_eq!(Writer::new().name(&"x".repeat(1 << 16)), Err(EncodeError));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        assert_eq!(Reader::new(&[]).u8(), Err(DecodeError));
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(DecodeError));
        assert_eq!(Reader::new(&[5, 0, 0, 0, 1]).bytes(), Err(DecodeError));
        assert_eq!(Reader::new(&[2, 0, b'a']).name(), Err(DecodeError));
        assert_eq!(Reader::new(&[0]).finish(), Err(DecodeError));
        assert_eq!(Reader::new(&[]).finish(), Ok(()));
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        assert_eq!(Reader::new(&[2]).bool(), Err(DecodeError));
        assert_eq!(Reader::new(&[1, 0, 0, 0, 0xff]).string(), Err(DecodeError));
        assert_eq!(Reader::new(&[1, 0, 0xfe]).name(), Err(DecodeError));
    }

    #[test]
    fn count_guard_rejects_counts_the_buffer_cannot_hold() {
        // Three 4-byte entries promised, eight bytes present.
        let mut buf = 3u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&buf).count(4), Err(DecodeError));
        assert_eq!(Reader::new(&buf).count(2), Ok(3));
        // An overflowing count * entry size is rejected, not wrapped.
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(Reader::new(&huge).count(usize::MAX), Err(DecodeError));
        assert_eq!(Reader::new(&huge).f32s(), Err(DecodeError));
        assert_eq!(Reader::new(&huge).string_list(), Err(DecodeError));
    }
}
