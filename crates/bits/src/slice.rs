//! The [`BitSlice`] type: a borrowed, exact-length view of bits.
//!
//! A `BitSlice` is to [`BitString`] what `&str` is to `String`: a cheap,
//! copyable view used wherever certificates are read out of a shared arena
//! (the engine's `CertificateBuffer`) without materialising owned strings.

use crate::BitString;
use std::fmt;

/// A borrowed sequence of bits with exact length accounting.
///
/// Bits are stored MSB-first within each backing byte. Invariants (upheld by
/// every constructor in this workspace): the byte slice has exactly
/// `len.div_ceil(8)` bytes and the padding bits of the final partial byte
/// are zero, so equality and ordering can compare raw bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitSlice<'a> {
    bytes: &'a [u8],
    len: usize,
}

impl<'a> BitSlice<'a> {
    /// Wraps a canonical byte slice holding exactly `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly `len.div_ceil(8)` bytes long.
    #[must_use]
    #[inline]
    pub fn new(bytes: &'a [u8], len: usize) -> Self {
        assert_eq!(
            bytes.len(),
            len.div_ceil(8),
            "byte slice does not match bit length {len}"
        );
        Self { bytes, len }
    }

    /// Wraps the bytes of a [`BitString`], which upholds the invariants
    /// itself: no check on the hot path of every label view.
    pub(crate) fn of_string(bytes: &'a [u8], len: usize) -> Self {
        debug_assert_eq!(bytes.len(), len.div_ceil(8));
        Self { bytes, len }
    }

    /// The empty slice.
    #[must_use]
    pub fn empty() -> Self {
        Self { bytes: &[], len: 0 }
    }

    /// Length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice contains no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing bytes (final byte zero-padded).
    #[must_use]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Returns bit `index` (MSB-first), or `None` if out of range.
    #[must_use]
    pub fn bit(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some(self.bytes[index / 8] & (0x80 >> (index % 8)) != 0)
    }

    /// Iterates over the bits MSB-first.
    pub fn iter(&self) -> SliceIter<'a> {
        SliceIter { s: *self, pos: 0 }
    }

    /// Interprets up to the first 64 bits as a big-endian unsigned integer.
    #[must_use]
    pub fn leading_u64(&self) -> u64 {
        let mut acc: u64 = 0;
        for i in 0..self.len.min(64) {
            acc = (acc << 1) | u64::from(self.bit(i).unwrap_or(false));
        }
        acc
    }

    /// The slice past its first `bytes` whole bytes (`8 · bytes` bits),
    /// borrowed in place, or `None` when it is shorter than that. A field
    /// that starts on a byte boundary is thus read without a copy.
    #[must_use]
    #[inline]
    pub fn skip_bytes(&self, bytes: usize) -> Option<BitSlice<'a>> {
        let len = self.len.checked_sub(bytes.checked_mul(8)?)?;
        Some(Self {
            bytes: &self.bytes[bytes..],
            len,
        })
    }

    /// Copies the slice into an owned [`BitString`].
    #[must_use]
    pub fn to_bitstring(&self) -> BitString {
        BitString::from_bytes(self.bytes, self.len)
    }
}

impl Default for BitSlice<'_> {
    fn default() -> Self {
        Self::empty()
    }
}

impl PartialEq<BitString> for BitSlice<'_> {
    fn eq(&self, other: &BitString) -> bool {
        *self == other.as_slice()
    }
}

impl PartialEq<BitSlice<'_>> for BitString {
    fn eq(&self, other: &BitSlice<'_>) -> bool {
        self.as_slice() == *other
    }
}

impl fmt::Debug for BitSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSlice[{}]<", self.len)?;
        for (i, b) in self.iter().enumerate() {
            if i == 64 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{}", u8::from(b))?;
        }
        write!(f, ">")
    }
}

impl fmt::Display for BitSlice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for BitSlice<'a> {
    type Item = bool;
    type IntoIter = SliceIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitSlice`], MSB-first.
#[derive(Debug, Clone)]
pub struct SliceIter<'a> {
    s: BitSlice<'a>,
    pos: usize,
}

impl Iterator for SliceIter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.s.bit(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.s.len().saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for SliceIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_views_match_owner() {
        let s = BitString::from_bools([true, false, true, true, false]);
        let v = s.as_slice();
        assert_eq!(v.len(), 5);
        assert_eq!(v.bit(0), Some(true));
        assert_eq!(v.bit(1), Some(false));
        assert_eq!(v.bit(5), None);
        assert_eq!(v.iter().collect::<Vec<_>>(), s.iter().collect::<Vec<_>>());
        assert_eq!(v.leading_u64(), s.leading_u64());
        assert_eq!(v.to_bitstring(), s);
    }

    #[test]
    fn cross_equality_with_bitstring() {
        let s = BitString::from_bools([true, true, false]);
        let t = BitString::from_bools([true, true, false]);
        assert_eq!(s.as_slice(), t);
        assert_eq!(t, s.as_slice());
        assert_eq!(s.as_slice(), t.as_slice());
        let u = BitString::from_bools([true, true, true]);
        assert_ne!(s.as_slice(), u.as_slice());
        // Same prefix, different length.
        let w = BitString::from_bools([true, true]);
        assert_ne!(s.as_slice(), w.as_slice());
    }

    #[test]
    fn empty_and_default() {
        assert!(BitSlice::empty().is_empty());
        assert_eq!(BitSlice::default().len(), 0);
        assert_eq!(BitSlice::empty().to_bitstring(), BitString::new());
    }

    #[test]
    fn skip_bytes_borrows_the_byte_aligned_tail() {
        let s = BitString::from_bools((0..21).map(|i| i % 3 == 0));
        let tail = s.as_slice().skip_bytes(2).unwrap();
        assert_eq!(tail.len(), 5);
        assert!(tail.iter().eq(s.iter().skip(16)));
        assert_eq!(s.as_slice().skip_bytes(0), Some(s.as_slice()));
        // Exactly consumed, and past the end.
        let whole = BitString::zeros(16);
        assert_eq!(whole.as_slice().skip_bytes(2), Some(BitSlice::empty()));
        assert_eq!(s.as_slice().skip_bytes(3), None);
        assert_eq!(s.as_slice().skip_bytes(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "does not match bit length")]
    fn mismatched_byte_count_rejected() {
        let _ = BitSlice::new(&[0, 0], 3);
    }

    #[test]
    fn display_matches_bitstring() {
        let s = BitString::from_bools([true, false, true]);
        assert_eq!(s.as_slice().to_string(), "101");
        assert!(format!("{:?}", s.as_slice()).contains("BitSlice[3]"));
    }
}
