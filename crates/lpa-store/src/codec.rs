//! The byte-level codec: little-endian primitives, length-prefixed
//! containers, a table-driven CRC-32 and the whole-file envelope
//! ([`seal`] / [`open`]) — hand-rolled so the hot training loop never
//! touches a reflection-based serializer and every byte of a checkpoint
//! is accounted for.
//!
//! Writers are infallible (they build a `Vec<u8>`); readers return
//! [`StoreError::Corrupt`] on any shortfall or malformed length and never
//! panic — decoding runs on the recovery path (lint L001 applies). Floats
//! are stored via their IEEE-754 bit patterns (`to_bits`/`from_bits`), so a
//! round trip is bit-exact including negative zero and NaN payloads.

use crate::StoreError;

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
    let found = r.take_u32()?;
    if found != version {
        return Err(StoreError::Incompatible(format!(
            "format version {found}, this build reads {version}"
        )));
    }
    let tag = r.take(tag_len)?;
    let payload_len = r.take_u64()?;
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

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn put_f32s(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f32(x);
        }
    }

    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f64(x);
        }
    }

    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u32(x);
        }
    }

    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u64(x);
        }
    }

    pub fn put_bools(&mut self, v: &[bool]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_bool(x);
        }
    }
}

/// Bounds-checked cursor over checkpoint bytes. Every `take_*` fails with
/// [`StoreError::Corrupt`] instead of panicking when the buffer runs short.
/// A clone reads ahead without moving the original.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
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

    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: take(1) returns one byte"
    )]
    pub fn take_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_bool(&mut self) -> Result<bool, StoreError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::Corrupt(format!("bool byte {b}"))),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: take(4) returns four bytes"
    )]
    pub fn take_u32(&mut self) -> Result<u32, StoreError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: take(8) returns eight bytes"
    )]
    pub fn take_u64(&mut self) -> Result<u64, StoreError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// A length prefix, validated against the bytes actually left so a
    /// corrupt length can never trigger an absurd allocation: each element
    /// occupies at least `min_elem_bytes`.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let v = self.take_u64()?;
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
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt(format!("value {v} exceeds usize")))
    }

    pub fn take_f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    pub fn take_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub fn take_bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let n = self.take_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    pub fn take_str(&mut self) -> Result<String, StoreError> {
        let b = self.take_bytes()?;
        String::from_utf8(b).map_err(|e| StoreError::Corrupt(format!("invalid UTF-8: {e}")))
    }

    pub fn take_f32s(&mut self) -> Result<Vec<f32>, StoreError> {
        let n = self.take_len(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.take_f32()?);
        }
        Ok(v)
    }

    pub fn take_f64s(&mut self) -> Result<Vec<f64>, StoreError> {
        let n = self.take_len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.take_f64()?);
        }
        Ok(v)
    }

    pub fn take_u32s(&mut self) -> Result<Vec<u32>, StoreError> {
        let n = self.take_len(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.take_u32()?);
        }
        Ok(v)
    }

    pub fn take_u64s(&mut self) -> Result<Vec<u64>, StoreError> {
        let n = self.take_len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.take_u64()?);
        }
        Ok(v)
    }

    pub fn take_bools(&mut self) -> Result<Vec<bool>, StoreError> {
        let n = self.take_len(1)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.take_bool()?);
        }
        Ok(v)
    }
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
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.0f32);
        w.put_f64(f64::NAN);
        w.put_str("partition");
        w.put_f64s(&[1.5, -2.25]);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_str().unwrap(), "partition");
        assert_eq!(r.take_f64s().unwrap(), vec![1.5, -2.25]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_buffer_is_corrupt_not_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.take_u64(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2); // claims ~9e18 elements
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_f64s(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn trailing_garbage_fails_finish() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 1);
        assert!(r.finish().is_err());
    }
}
