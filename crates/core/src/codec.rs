//! Little-endian varint byte codec shared by the persisted binary
//! records: miner sketches ([`crate::ConfigSketch::encode`]) and the
//! engine's checkpoint segments.
//!
//! Integers are unsigned LEB128 varints; byte strings are a varint
//! length followed by the bytes; fixed-width values (hashes, `f64`
//! bit patterns) are 8 little-endian bytes. [`Reader`] never panics on
//! malformed input: every accessor returns `None` once the input is
//! exhausted or a value is out of range, so a decoder written as a
//! chain of `?` rejects any truncation or corruption it can detect.

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a varint length followed by `bytes`.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked cursor over an encoded record.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Reads one byte.
    pub fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(b)
    }

    /// Reads an unsigned LEB128 varint; `None` on truncation or when
    /// the value does not fit in 64 bits.
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return None;
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Reads a varint that must fit in `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    /// Reads a varint that must fit in `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        u16::try_from(self.varint()?).ok()
    }

    /// Reads a varint element count. Every element of every list in
    /// these records occupies at least one byte, so a count larger than
    /// the remaining input is rejected up front — a corrupt length can
    /// never drive a huge allocation.
    pub fn count(&mut self) -> Option<usize> {
        let n = usize::try_from(self.varint()?).ok()?;
        (n <= self.remaining()).then_some(n)
    }

    /// Reads 8 little-endian bytes.
    pub fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.bytes.split_first_chunk::<8>()?;
        self.bytes = rest;
        Some(u64::from_le_bytes(*head))
    }

    /// Reads an `f64` stored as its 8-byte bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = usize::try_from(self.varint()?).ok()?;
        if n > self.bytes.len() {
            return None;
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Some(head)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Consumes and returns everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_width() {
        let values = [0u64, 1, 127, 128, 300, 1 << 32, u64::MAX - 1, u64::MAX];
        let mut out = Vec::new();
        for &v in &values {
            put_varint(&mut out, v);
        }
        let mut r = Reader::new(&out);
        for &v in &values {
            assert_eq!(r.varint(), Some(v));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn overlong_and_truncated_varints_are_rejected() {
        // Eleven continuation bytes, and a tenth byte above the 64th bit.
        assert_eq!(Reader::new(&[0xff; 11]).varint(), None);
        let mut too_big = vec![0xff; 9];
        too_big.push(0x02);
        assert_eq!(Reader::new(&too_big).varint(), None);
        assert_eq!(Reader::new(&[0x80, 0x80]).varint(), None);
    }

    #[test]
    fn lengths_beyond_the_input_are_rejected() {
        let mut out = Vec::new();
        put_varint(&mut out, 5);
        out.extend_from_slice(b"abc");
        assert_eq!(Reader::new(&out).bytes(), None);
        assert_eq!(Reader::new(&out).count(), None);
        let mut r = Reader::new(&out);
        r.byte();
        assert_eq!(r.u64(), None);
    }
}
