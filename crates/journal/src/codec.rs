//! Deterministic little-endian payload encoding.
//!
//! Shard payloads must round-trip *bit-exactly*: the whole durability
//! guarantee is that a resumed campaign reassembles byte-identical results,
//! and a single f64 that went through a decimal print/parse cycle breaks
//! it. [`Enc`]/[`Dec`] therefore serialize floats as their raw IEEE-754
//! bits and integers in fixed-width little-endian form — no locale, no
//! formatting, no platform variance.
//!
//! The journal crate stays engine-agnostic: drivers in `analysis` and the
//! CLI define their own payload layouts on top of these primitives.

use crate::JournalError;

/// Append-only payload encoder.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Enc::default()
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.put_u64(v.to_bits())
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append a length-prefixed slice of `f64` bit patterns.
    pub fn put_f64_slice(&mut self, v: &[f64]) -> &mut Self {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
        self
    }

    /// Finish and take the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-based payload decoder; every read is bounds-checked and a short
/// or oversized field yields [`JournalError::MalformedPayload`] instead of
/// a panic, so a hostile or version-skewed payload can't crash a resume.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            JournalError::MalformedPayload {
                message: format!(
                    "payload truncated: wanted {n} bytes at offset {} of {}",
                    self.pos,
                    self.bytes.len()
                ),
            }
        })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, JournalError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], JournalError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| JournalError::MalformedPayload {
            message: format!("byte-string length {len} does not fit in memory"),
        })?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, JournalError> {
        std::str::from_utf8(self.bytes()?).map_err(|e| JournalError::MalformedPayload {
            message: format!("invalid UTF-8 in payload string: {e}"),
        })
    }

    /// Read a length-prefixed slice of `f64` bit patterns.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, JournalError> {
        let len = self.u64()?;
        // Bound by the remaining bytes so a corrupt length can't OOM us.
        let remaining = (self.bytes.len() - self.pos) / 8;
        let len = usize::try_from(len).ok().filter(|&l| l <= remaining).ok_or_else(|| {
            JournalError::MalformedPayload {
                message: format!("f64 slice length {len} exceeds remaining payload"),
            }
        })?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Error unless the payload was consumed exactly — catches layout skew
    /// between the writer and reader early.
    pub fn expect_exhausted(&self) -> Result<(), JournalError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(JournalError::MalformedPayload {
                message: format!(
                    "{} trailing bytes after decoding payload",
                    self.bytes.len() - self.pos
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_exact() {
        let values = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -3.25e-300];
        let mut enc = Enc::new();
        enc.put_u64(42).put_u32(7).put_str("shard name").put_f64_slice(&values);
        enc.put_f64(f64::NEG_INFINITY);
        let bytes = enc.finish();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u64().unwrap(), 42);
        assert_eq!(dec.u32().unwrap(), 7);
        assert_eq!(dec.str().unwrap(), "shard name");
        let decoded = dec.f64_vec().unwrap();
        assert_eq!(decoded.len(), values.len());
        for (a, b) in decoded.iter().zip(values.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact round trip, NaN included");
        }
        assert_eq!(dec.f64().unwrap(), f64::NEG_INFINITY);
        dec.expect_exhausted().unwrap();
    }

    #[test]
    fn truncated_and_oversized_payloads_error_not_panic() {
        let mut enc = Enc::new();
        enc.put_u64(1).put_str("hello");
        let bytes = enc.finish();

        // Cut at every byte: decoding must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..cut]);
            let ok = dec.u64().and_then(|_| dec.str().map(|_| ()));
            assert!(ok.is_err(), "cut at {cut} must be a decode error");
        }

        // A length field claiming more data than exists.
        let mut lying = Enc::new();
        lying.put_u64(u64::MAX);
        let lying = lying.finish();
        assert!(Dec::new(&lying).bytes().is_err());
        assert!(Dec::new(&lying).f64_vec().is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut enc = Enc::new();
        enc.put_u32(1).put_u32(2);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        dec.u32().unwrap();
        assert!(dec.expect_exhausted().is_err());
        dec.u32().unwrap();
        dec.expect_exhausted().unwrap();
    }
}
