//! A tiny deterministic binary codec for durable state.
//!
//! Checkpoint files (the round journal and pipeline snapshots) must
//! round-trip *bit-identically*: a resumed campaign replays into exactly
//! the state an uninterrupted run would hold, floating-point accumulators
//! included. Text formats round floats and external serializers are a
//! dependency the container cannot always provide, so durable state uses
//! this explicit little-endian codec instead: every field is written and
//! read by hand, `f64`s travel as raw IEEE-754 bits, and any truncation or
//! type drift surfaces as an [`FbsError`] rather than silent corruption.
//!
//! The [`Persist`] trait marks state that knows how to write itself into a
//! [`ByteWriter`] and rebuild itself from a [`ByteReader`]. Generic impls
//! cover the usual composites (options, vectors, maps, tuples), so most
//! implementations are a field-by-field list in declaration order.
//!
//! Fixed-width fields are the default. Sections dominated by small counts
//! use LEB128 varints instead ([`ByteWriter::put_varint`],
//! [`decode_varint`]); [`ByteReader::get_section`] hands such a section
//! the unread bytes as one slice, so it decodes in a single pass.

use crate::error::{FbsError, Result};
use std::collections::BTreeMap;

/// Growable little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Creates an empty writer over `buf`'s allocation: the bytes are
    /// cleared, the capacity kept, so a caller encoding payloads of about
    /// the same size again and again grows one buffer instead of a fresh
    /// one each time.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        ByteWriter { buf }
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an unsigned LEB128 varint: seven bits per byte, low bits
    /// first, the high bit set on every byte but the last.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
}

/// The longest LEB128 encoding of a `u64`: ten bytes of seven bits.
pub const VARINT_MAX_LEN: usize = 10;

/// Decodes one unsigned LEB128 varint from the front of `bytes`, returning
/// the value and how many bytes it took.
///
/// Rejects a varint that runs off the end of `bytes`, one longer than
/// [`VARINT_MAX_LEN`] or overflowing 64 bits, and an overlong encoding (a
/// final zero byte after the first), so every value has exactly one
/// encoding and decode-then-encode reproduces the input.
#[inline]
pub fn decode_varint(bytes: &[u8]) -> Result<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().take(VARINT_MAX_LEN).enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            if i == VARINT_MAX_LEN - 1 && b > 1 {
                return Err(FbsError::Io {
                    reason: "varint overflows 64 bits".to_string(),
                });
            }
            if i > 0 && b == 0 {
                return Err(FbsError::Io {
                    reason: format!("overlong {}-byte varint", i + 1),
                });
            }
            return Ok((v, i + 1));
        }
    }
    Err(FbsError::Io {
        reason: if bytes.len() < VARINT_MAX_LEN {
            format!("varint runs off the end of its {} bytes", bytes.len())
        } else {
            format!("varint longer than {VARINT_MAX_LEN} bytes")
        },
    })
}

/// Cursor over encoded bytes; every read checks bounds.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Errors unless every byte has been consumed — catches version drift
    /// where a decoder reads less than the encoder wrote.
    pub fn expect_exhausted(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(FbsError::Io {
                reason: format!("{} trailing bytes after decode", self.remaining()),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(FbsError::Io {
                reason: format!(
                    "truncated record: wanted {n} bytes at offset {}, {} remain",
                    self.pos,
                    self.remaining()
                ),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(FbsError::Io {
                reason: format!("invalid bool byte {other:#x}"),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| FbsError::Io {
            reason: format!("invalid utf-8 in string field: {e}"),
        })
    }

    /// Decodes a section straight from the unread bytes: `decode` gets them
    /// as one slice and returns the value and how many bytes it consumed,
    /// and the reader moves past those bytes. A section decoded this way
    /// walks its bytes in one pass instead of one reader call per field.
    pub fn get_section<T>(
        &mut self,
        decode: impl FnOnce(&'a [u8]) -> Result<(T, usize)>,
    ) -> Result<T> {
        let (value, used) = decode(&self.buf[self.pos..])?;
        self.take(used)?;
        Ok(value)
    }

    /// Reads a `u64` length prefix, bounds-checked against the remaining
    /// input so a corrupt length cannot trigger a giant allocation.
    pub fn get_len(&mut self) -> Result<usize> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(FbsError::Io {
                reason: format!(
                    "length prefix {len} exceeds {} remaining bytes",
                    self.remaining()
                ),
            });
        }
        Ok(len as usize)
    }
}

/// State that serializes itself into the checkpoint codec.
///
/// A field reaches checkpoint bytes only through its own `Persist` impl,
/// and the compiler holds every encoder to that: persisting a field whose
/// type has no impl does not build.
///
/// ```compile_fail
/// use fbs_types::{ByteReader, ByteWriter, Persist, Result};
///
/// pub struct Inner {
///     x: u8,
/// }
///
/// pub struct Holder {
///     inner: Inner,
/// }
///
/// impl Persist for Holder {
///     fn persist(&self, w: &mut ByteWriter) {
///         self.inner.persist(w); // `Inner` is not `Persist`
///     }
///     fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
///         Ok(Holder {
///             inner: Persist::restore(r)?,
///         })
///     }
/// }
/// ```
///
/// Its twin, which gives `Inner` an impl, builds:
///
/// ```
/// use fbs_types::{ByteReader, ByteWriter, Persist, Result};
///
/// pub struct Inner {
///     x: u8,
/// }
///
/// impl Persist for Inner {
///     fn persist(&self, w: &mut ByteWriter) {
///         w.put_u8(self.x);
///     }
///     fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
///         Ok(Inner { x: r.get_u8()? })
///     }
/// }
///
/// pub struct Holder {
///     inner: Inner,
/// }
///
/// impl Persist for Holder {
///     fn persist(&self, w: &mut ByteWriter) {
///         self.inner.persist(w);
///     }
///     fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
///         Ok(Holder {
///             inner: Persist::restore(r)?,
///         })
///     }
/// }
/// ```
pub trait Persist: Sized {
    /// Writes `self` field by field.
    fn persist(&self, w: &mut ByteWriter);
    /// Reads the fields back in the same order.
    fn restore(r: &mut ByteReader<'_>) -> Result<Self>;
}

macro_rules! persist_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Persist for $ty {
            fn persist(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
                r.$get()
            }
        }
    };
}

persist_prim!(u8, put_u8, get_u8);
persist_prim!(u16, put_u16, get_u16);
persist_prim!(u32, put_u32, get_u32);
persist_prim!(u64, put_u64, get_u64);
persist_prim!(i64, put_i64, get_i64);
persist_prim!(f64, put_f64, get_f64);
persist_prim!(bool, put_bool, get_bool);

impl Persist for usize {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(*self as u64);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| FbsError::Io {
            reason: format!("usize value {v} exceeds platform width"),
        })
    }
}

impl Persist for String {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.persist(w);
            }
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            other => Err(FbsError::Io {
                reason: format!("invalid option tag {other:#x}"),
            }),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.persist(w);
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        // Elements are at least one byte, so the generic length check in
        // `get_len` bounds allocation.
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, w: &mut ByteWriter) {
        self.0.persist(w);
        self.1.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.persist(w);
            v.persist(w);
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let len = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// --- Persist for the vocabulary types of this crate. ---

impl Persist for crate::Round {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(crate::Round(r.get_u32()?))
    }
}

impl Persist for crate::Asn {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(crate::Asn(r.get_u32()?))
    }
}

impl Persist for crate::VantageId {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u16(self.0);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(crate::VantageId(r.get_u16()?))
    }
}

impl Persist for crate::BlockId {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(crate::BlockId(r.get_u32()?))
    }
}

impl Persist for crate::MonthId {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(crate::MonthId(r.get_u32()?))
    }
}

impl Persist for crate::Oblast {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u8(self.index() as u8);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        let i = r.get_u8()? as usize;
        crate::Oblast::from_index(i).ok_or_else(|| FbsError::Io {
            reason: format!("invalid oblast index {i}"),
        })
    }
}

impl Persist for crate::RoundQuality {
    fn persist(&self, w: &mut ByteWriter) {
        let tag = match self {
            crate::RoundQuality::Ok => 0u8,
            crate::RoundQuality::Degraded => 1,
            crate::RoundQuality::Unusable => 2,
        };
        w.put_u8(tag);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(crate::RoundQuality::Ok),
            1 => Ok(crate::RoundQuality::Degraded),
            2 => Ok(crate::RoundQuality::Unusable),
            other => Err(FbsError::Io {
                reason: format!("invalid round quality tag {other:#x}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asn, MonthId, Oblast, Round, RoundQuality};

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = ByteWriter::new();
        value.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = T::restore(&mut r).expect("restore");
        r.expect_exhausted().expect("all bytes consumed");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0xABu8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(std::f64::consts::PI);
        roundtrip(String::from("кherson-journal"));
    }

    #[test]
    fn f64_bits_are_exact() {
        // A value with no short decimal representation survives exactly.
        let v = f64::from_bits(0x3FD5_5555_5555_5555);
        let mut w = ByteWriter::new();
        v.persist(&mut w);
        let bytes = w.into_bytes();
        let back = f64::restore(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(vec![Some(1.5f64), None]);
        let mut map = BTreeMap::new();
        map.insert((Asn(25482), MonthId::new(2022, 3)), 9.75f64);
        map.insert((Asn(21151), MonthId::new(2023, 11)), -0.5f64);
        roundtrip(map);
    }

    #[test]
    fn domain_types_roundtrip() {
        roundtrip(Round(1234));
        roundtrip(Asn(25482));
        roundtrip(crate::BlockId::from_octets(193, 151, 240));
        roundtrip(MonthId::new(2024, 2));
        for o in crate::ALL_OBLASTS {
            roundtrip(o);
        }
        roundtrip(RoundQuality::Ok);
        roundtrip(RoundQuality::Degraded);
        roundtrip(RoundQuality::Unusable);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        vec![1u64, 2, 3].persist(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(Vec::<u64>::restore(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_allocate() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd length
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(Vec::<u8>::restore(&mut r).is_err());
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(bool::restore(&mut r).is_err());
        let mut r = ByteReader::new(&[7]);
        assert!(Option::<u8>::restore(&mut r).is_err());
        let mut r = ByteReader::new(&[200]);
        assert!(Oblast::restore(&mut r).is_err());
        let mut r = ByteReader::new(&[3]);
        assert!(RoundQuality::restore(&mut r).is_err());
    }

    #[test]
    fn varints_roundtrip_at_every_width() {
        let mut values = vec![0u64, 1, 0x7f, 0x80, 300, u64::from(u32::MAX), u64::MAX];
        values.extend((0..64).map(|bit| 1u64 << bit));
        values.extend((1..64).map(|bit| (1u64 << bit) - 1));
        for v in values {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let width = (64 - v.leading_zeros() as usize).max(1).div_ceil(7);
            assert_eq!(bytes.len(), width, "{v}");
            assert_eq!(decode_varint(&bytes).unwrap(), (v, width), "{v}");
        }
    }

    #[test]
    fn damaged_varints_are_errors() {
        // Runs off the end: every proper prefix of a multi-byte varint.
        let mut w = ByteWriter::new();
        w.put_varint(u64::MAX);
        let max = w.into_bytes();
        assert_eq!(max.len(), VARINT_MAX_LEN);
        for cut in 0..max.len() {
            assert!(decode_varint(&max[..cut]).is_err(), "cut at {cut}");
        }
        // Eleven bytes, and a tenth byte carrying more than the 64th bit.
        let eleven = [0xffu8; 10]
            .iter()
            .chain(&[0x01])
            .copied()
            .collect::<Vec<_>>();
        assert!(decode_varint(&eleven).is_err());
        let mut overflow = max.clone();
        overflow[VARINT_MAX_LEN - 1] = 0x02;
        assert!(decode_varint(&overflow).is_err());
        // Overlong: a value padded with a zero continuation byte.
        assert!(decode_varint(&[0x81, 0x00]).is_err());
        assert_eq!(decode_varint(&[0x00]).unwrap(), (0, 1));
    }

    #[test]
    fn sections_consume_what_they_report() {
        let bytes = [3u8, 7, 8, 9];
        let mut r = ByteReader::new(&bytes);
        let sum: u32 = r
            .get_section(|b| Ok((b[..2].iter().map(|&x| u32::from(x)).sum(), 2)))
            .unwrap();
        assert_eq!(sum, 10);
        assert_eq!(r.get_u8().unwrap(), 8);
        // A section cannot claim more bytes than remain.
        assert!(r.get_section(|_| Ok(((), 2))).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        1u32.persist(&mut w);
        2u32.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let _ = u32::restore(&mut r).unwrap();
        assert!(r.expect_exhausted().is_err());
    }
}
