//! The byte-level codec: little-endian primitives, the [`Wire`] trait
//! every persisted type implements, the
//! [`wire_record!`](crate::wire_record) and
//! [`wire_enum!`](crate::wire_enum) declarations that implement it from
//! one field list, a table-driven CRC-32 and the whole-file envelope
//! ([`seal`] / [`open`]) — hand-rolled so the hot training loop never
//! touches a reflection-based serializer and every byte of a checkpoint is
//! accounted for.
//!
//! Writers are infallible (they build a `Vec<u8>`); readers return
//! [`StoreError::Corrupt`] on any shortfall or malformed length and never
//! panic — decoding runs on the recovery path (lint L001 applies). Floats
//! are stored via their IEEE-754 bit patterns (`to_bits`/`from_bits`), so a
//! round trip is bit-exact including negative zero and NaN payloads.

use crate::StoreError;
use lpa_schema::Schema;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
/// guarding every checkpoint file, computed slice-by-8: `CRC_TABLES[0]` is
/// the classic byte table and `CRC_TABLES[k]` advances a byte's
/// contribution past `k` more zero bytes, so eight table reads fold in
/// eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated: i runs below 256 and k below 8, and a bad index fails the build"
)]
const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes`.
#[expect(
    clippy::indexing_slicing,
    reason = "hot kernel: every index is masked to 0..=255, the tables' length"
)]
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let byte = |w: u32, shift: u32| ((w >> shift) & 0xFF) as usize;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let [a0, a1, a2, a3, b0, b1, b2, b3] = <[u8; 8]>::try_from(word).unwrap_or_default();
        let lo = u32::from_le_bytes([a0, a1, a2, a3]) ^ c;
        let hi = u32::from_le_bytes([b0, b1, b2, b3]);
        c = t7[byte(lo, 0)]
            ^ t6[byte(lo, 8)]
            ^ t5[byte(lo, 16)]
            ^ t4[byte(lo, 24)]
            ^ t3[byte(hi, 0)]
            ^ t2[byte(hi, 8)]
            ^ t1[byte(hi, 16)]
            ^ t0[byte(hi, 24)];
    }
    for &b in words.remainder() {
        c = t0[byte(c ^ b as u32, 0)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frame `payload` as one whole file: `magic` · `version` (LE `u32`) ·
/// `tag` (file-kind bytes, may be empty) · payload length (LE `u64`) ·
/// payload · CRC-32 over everything before it. The CRC covers the header
/// too, so a bit flip anywhere fails verification.
pub fn seal(magic: &[u8; 8], version: u32, tag: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(magic.len() + 4 + tag.len() + 8 + payload.len() + 4);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(tag);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// The length of the file [`seal`] wrote at the start of `bytes`, as its
/// length field gives it: unverified (that is [`open`]'s job), `None` when
/// the field is cut off or overflows. How a reader finds where one sealed
/// file ends inside a concatenation of them.
pub(crate) fn sealed_len(bytes: &[u8], tag_len: usize) -> Option<usize> {
    let at = 8 + 4 + tag_len;
    let len = u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?);
    usize::try_from(len).ok()?.checked_add(at + 8 + 4)
}

/// Verify a file written by [`seal`] and hand back its `tag_len` tag bytes
/// and a reader over exactly the payload. Checked in this order: envelope
/// size, CRC, magic (all [`StoreError::Corrupt`]), version
/// ([`StoreError::Incompatible`] — an intact file of another format
/// version), payload length (`Corrupt`). Never panics: this runs on the
/// recovery path.
#[expect(
    clippy::indexing_slicing,
    reason = "hot kernel: split_at(len - 4) leaves exactly four CRC bytes"
)]
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    tag_len: usize,
) -> Result<(&'a [u8], ByteReader<'a>), StoreError> {
    let envelope = magic.len() + 4 + tag_len + 8 + 4;
    if bytes.len() < envelope {
        return Err(StoreError::Corrupt(format!(
            "file of {} bytes is shorter than the {envelope}-byte envelope",
            bytes.len()
        )));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let actual = crc32(body);
    if stored != actual {
        return Err(StoreError::Corrupt(format!(
            "CRC mismatch: stored {stored:08x}, computed {actual:08x}"
        )));
    }
    let mut r = ByteReader::new(body);
    if r.take(magic.len())? != magic {
        return Err(StoreError::Corrupt("bad magic".to_string()));
    }
    let found = u32::take(&mut r)?;
    if found != version {
        return Err(StoreError::Incompatible(format!(
            "format version {found}, this build reads {version}"
        )));
    }
    let tag = r.take(tag_len)?;
    let payload_len = u64::take(&mut r)?;
    if payload_len != r.remaining() as u64 {
        return Err(StoreError::Corrupt(format!(
            "payload length {payload_len} but {} bytes present",
            r.remaining()
        )));
    }
    Ok((tag, r))
}

/// Append-only byte sink.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// A length prefix: a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        (v as u64).put(self);
    }

    /// A `u64` length prefix, then each element.
    pub fn put_slice<T: Wire>(&mut self, v: &[T]) {
        self.put_usize(v.len());
        for x in v {
            x.put(self);
        }
    }

    /// [`Self::put_slice`] with each element stored at width `W`.
    pub fn put_slice_as<W: WireAs<T>, T>(&mut self, v: &[T]) {
        self.put_usize(v.len());
        for x in v {
            W::put_as(x, self);
        }
    }
}

/// Bounds-checked cursor over checkpoint bytes. Every `take_*` fails with
/// [`StoreError::Corrupt`] instead of panicking when the buffer runs short.
/// A clone reads ahead without moving the original. A reader may carry the
/// schema that decoders of schema-bound values (partitionings, queries)
/// validate against; the journal and the manifest need none.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    schema: Option<&'a Schema>,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            schema: None,
        }
    }

    /// This reader, validating schema-bound values against `schema`.
    pub fn with_schema(self, schema: &'a Schema) -> Self {
        Self {
            schema: Some(schema),
            ..self
        }
    }

    /// The schema schema-bound decoders validate against.
    pub fn schema(&self) -> Result<&'a Schema, StoreError> {
        self.schema.ok_or_else(|| {
            StoreError::Incompatible("decoding a schema-bound value needs a schema".to_string())
        })
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole buffer was consumed — trailing garbage means
    /// the encoder and decoder disagree on the layout.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} unconsumed trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: n <= remaining() is checked first"
    )]
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "need {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        self.take(N)?
            .try_into()
            .map_err(|_| StoreError::Corrupt(format!("a {N}-byte read came back short")))
    }

    /// A length prefix, validated against the bytes actually left so a
    /// corrupt length can never trigger an absurd allocation: each element
    /// occupies at least `min_elem_bytes`.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let v = u64::take(self)?;
        let n = usize::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("length {v} exceeds usize")))?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(StoreError::Corrupt(format!(
                "length {n} × {min_elem_bytes}B exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn take_usize(&mut self) -> Result<usize, StoreError> {
        let v = u64::take(self)?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt(format!("value {v} exceeds usize")))
    }

    /// A length prefix, then that many `T`s.
    pub fn take_vec<T: Wire>(&mut self) -> Result<Vec<T>, StoreError> {
        let n = self.take_len(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::take(self)?);
        }
        Ok(v)
    }

    /// [`Self::take_vec`] of elements stored at width `W`.
    pub fn take_vec_as<W: WireAs<T>, T>(&mut self) -> Result<Vec<T>, StoreError> {
        let n = self.take_len(W::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(W::take_as(self)?);
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// The Wire trait.

/// A value with one byte encoding, stated once for both directions.
pub trait Wire: Sized {
    /// A lower bound on the encoded size: what a length prefix of
    /// `Vec<Self>` is checked against before anything is allocated.
    const MIN_BYTES: usize;

    fn put(&self, w: &mut ByteWriter);

    fn take(r: &mut ByteReader) -> Result<Self, StoreError>;
}

/// A width other than `T`'s own encoding: `Self` is what goes on the wire
/// for a `T` field, as a record declaration names it (`TableId as u32`).
pub trait WireAs<T>: Wire {
    fn put_as(v: &T, w: &mut ByteWriter);

    fn take_as(r: &mut ByteReader) -> Result<T, StoreError>;
}

/// Little-endian bytes; a float by its IEEE-754 bit pattern.
macro_rules! le_bytes {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put(&self, w: &mut ByteWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }

            fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
                r.take_array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

le_bytes!(u8, u32, u64, f32, f64);

/// One byte, `0` or `1`; any other byte is corrupt.
impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        (*self as u8).put(w);
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::Corrupt(format!("bool byte {b}"))),
        }
    }
}

/// `usize` has no encoding of its own: a record names it `usize as u64`.
impl WireAs<usize> for u64 {
    fn put_as(v: &usize, w: &mut ByteWriter) {
        w.put_usize(*v);
    }

    fn take_as(r: &mut ByteReader) -> Result<usize, StoreError> {
        r.take_usize()
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        w.buf.extend_from_slice(self.as_bytes());
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        let n = r.take_len(1)?;
        String::from_utf8(r.take(n)?.to_vec())
            .map_err(|e| StoreError::Corrupt(format!("invalid UTF-8: {e}")))
    }
}

/// A `u64` length prefix, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut ByteWriter) {
        w.put_slice(self);
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        r.take_vec()
    }
}

/// A `Vec` of elements stored at width `W`.
impl<T, W: WireAs<T>> WireAs<Vec<T>> for Vec<W> {
    fn put_as(v: &Vec<T>, w: &mut ByteWriter) {
        w.put_slice_as::<W, T>(v);
    }

    fn take_as(r: &mut ByteReader) -> Result<Vec<T>, StoreError> {
        r.take_vec_as::<W, T>()
    }
}

/// A bool tag, then the value if there is one.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        Ok(if bool::take(r)? {
            Some(T::take(r)?)
        } else {
            None
        })
    }
}

/// An RNG stream's state words.
impl Wire for [u64; 4] {
    const MIN_BYTES: usize = 32;

    fn put(&self, w: &mut ByteWriter) {
        for x in self {
            x.put(w);
        }
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        Ok([u64::take(r)?, u64::take(r)?, u64::take(r)?, u64::take(r)?])
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

// ---------------------------------------------------------------------------
// Declarations.

/// Implements [`Wire`] for a struct from one list that names each field
/// once, in wire order, with the type it is stored as. A field stored at
/// another width than its type's own says so: `table: TableId as u32`
/// (the width implements [`WireAs`] for the field's type). A trailing
/// `check f` runs `f(&value, reader)` on every decoded value, so a record
/// that must validate keeps its one declaration.
///
/// `put` destructures the struct with no `..`, and `take` builds it from
/// the same list, so a field added to the struct fails to compile until
/// the declaration places it:
///
/// ```
/// struct Pair {
///     a: u64,
///     b: usize,
/// }
///
/// lpa_store::wire_record! {
///     Pair {
///         b: usize as u64,
///         a: u64,
///     }
/// }
/// ```
///
/// ```compile_fail,E0063
/// struct Pair {
///     a: u64,
///     b: u64,
/// }
///
/// lpa_store::wire_record! {
///     Pair {
///         a: u64,
///     }
/// }
/// ```
#[macro_export]
macro_rules! wire_record {
    ($ty:ty { $($field:ident: $fty:ty $(as $width:ty)?),* $(,)? } $(check $check:path)?) => {
        impl $crate::codec::Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ $crate::wire_field!(min $fty $(as $width)?))*;

            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                let Self { $($field),* } = self;
                $($crate::wire_field!(put w, $field, $fty $(as $width)?);)*
            }

            fn take(
                r: &mut $crate::codec::ByteReader,
            ) -> ::core::result::Result<Self, $crate::StoreError> {
                let value = Self { $($field: $crate::wire_field!(take r, $fty $(as $width)?)?),* };
                $($check(&value, r)?;)?
                Ok(value)
            }
        }
    };
}

/// Implements [`Wire`] for an enum: one tag byte per variant, then the
/// variant's fields in the order listed, declared as in
/// [`wire_record!`](crate::wire_record)
/// (`check` included; a one-field tuple variant names its field too).
/// `put` matches every variant with no catch-all; `take` answers
/// [`StoreError::Corrupt`] for a tag it does not know.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty {
        $($tag:literal => $variant:ident
            $({ $($field:ident: $fty:ty $(as $width:ty)?),* $(,)? })?
            $(($tfield:ident: $tty:ty $(as $twidth:ty)?))?
        ),* $(,)?
    } $(check $check:path)?) => {
        impl $crate::codec::Wire for $ty {
            const MIN_BYTES: usize = 1;

            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($tfield))? => {
                        <u8 as $crate::codec::Wire>::put(&$tag, w);
                        $($($crate::wire_field!(put w, $field, $fty $(as $width)?);)*)?
                        $($crate::wire_field!(put w, $tfield, $tty $(as $twidth)?);)?
                    })*
                }
            }

            fn take(
                r: &mut $crate::codec::ByteReader,
            ) -> ::core::result::Result<Self, $crate::StoreError> {
                let value = match <u8 as $crate::codec::Wire>::take(r)? {
                    $($tag => Self::$variant
                        $({ $($field: $crate::wire_field!(take r, $fty $(as $width)?)?),* })?
                        $(($crate::wire_field!(take r, $tty $(as $twidth)?)?))?,)*
                    tag => {
                        return Err($crate::StoreError::Corrupt(::std::format!(
                            "{} tag {tag}",
                            ::core::stringify!($ty)
                        )))
                    }
                };
                $($check(&value, r)?;)?
                Ok(value)
            }
        }
    };
}

/// One field of a [`wire_record!`] or [`wire_enum!`] declaration.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_field {
    (min $t:ty as $width:ty) => {
        <$width as $crate::codec::Wire>::MIN_BYTES
    };
    (min $t:ty) => {
        <$t as $crate::codec::Wire>::MIN_BYTES
    };
    (put $w:ident, $v:expr, $t:ty as $width:ty) => {
        <$width as $crate::codec::WireAs<$t>>::put_as($v, $w)
    };
    (put $w:ident, $v:expr, $t:ty) => {
        <$t as $crate::codec::Wire>::put($v, $w)
    };
    (take $r:ident, $t:ty as $width:ty) => {
        <$width as $crate::codec::WireAs<$t>>::take_as($r)
    };
    (take $r:ident, $t:ty) => {
        <$t as $crate::codec::Wire>::take($r)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook one-byte-at-a-time CRC, bit by bit: no table at all.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_crc_at_every_length_and_offset() {
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        // Every length 0–64 (whole words, tails of 0–7 bytes), each starting
        // at every offset 0–7, so words and tails straddle any alignment.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        assert_eq!(crc32(&data), crc32_bitwise(&data));
        assert_eq!(crc32(&[0xFF; 37]), crc32_bitwise(&[0xFF; 37]));
    }

    #[test]
    fn primitives_round_trip_bitwise() {
        let mut w = ByteWriter::new();
        0xABu8.put(&mut w);
        true.put(&mut w);
        0xDEAD_BEEFu32.put(&mut w);
        (u64::MAX - 1).put(&mut w);
        (-0.0f32).put(&mut w);
        f64::NAN.put(&mut w);
        "partition".to_string().put(&mut w);
        vec![1.5f64, -2.25].put(&mut w);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(u8::take(&mut r).unwrap(), 0xAB);
        assert!(bool::take(&mut r).unwrap());
        assert_eq!(u32::take(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::take(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(f32::take(&mut r).unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(f64::take(&mut r).unwrap().is_nan());
        assert_eq!(String::take(&mut r).unwrap(), "partition");
        assert_eq!(Vec::<f64>::take(&mut r).unwrap(), vec![1.5, -2.25]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_buffer_is_corrupt_not_panic() {
        let mut w = ByteWriter::new();
        7u64.put(&mut w);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(u64::take(&mut r), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        (u64::MAX / 2).put(&mut w); // claims ~9e18 elements
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            Vec::<f64>::take(&mut r),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_fails_finish() {
        let mut w = ByteWriter::new();
        1u8.put(&mut w);
        2u8.put(&mut w);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(u8::take(&mut r).unwrap(), 1);
        assert!(r.finish().is_err());
    }
}
