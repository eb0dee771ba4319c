//! The [`BitString`] type: an owned, exact-length sequence of bits.

use crate::BitSlice;
use std::fmt;

/// An owned sequence of bits with exact length accounting.
///
/// Bits are stored MSB-first within each backing byte; the final partial byte
/// (if any) is zero-padded, and all operations respect the logical length.
///
/// # Examples
///
/// ```
/// use rpls_bits::BitString;
///
/// let bits = BitString::from_bools([true, false, true]);
/// assert_eq!(bits.len(), 3);
/// assert_eq!(bits.bit(0), Some(true));
/// assert_eq!(bits.bit(1), Some(false));
/// assert_eq!(bits.bit(3), None);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitString {
    bytes: Vec<u8>,
    len: usize,
}

impl BitString {
    /// Creates an empty bit string.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit string of `len` zero bits.
    ///
    /// # Examples
    ///
    /// ```
    /// let z = rpls_bits::BitString::zeros(10);
    /// assert_eq!(z.len(), 10);
    /// assert!(z.iter().all(|b| !b));
    /// ```
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            bytes: vec![0u8; len.div_ceil(8)],
            len,
        }
    }

    /// Creates an empty bit string with room for `bits` bits before the
    /// backing storage reallocates.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Removes all bits, keeping the allocated capacity. The workhorse of
    /// the engine's reusable round scratch.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
    }

    /// Builds a bit string from an iterator of booleans, packing a byte at
    /// a time rather than pushing bit-by-bit.
    #[must_use]
    pub fn from_bools<I: IntoIterator<Item = bool>>(bools: I) -> Self {
        let iter = bools.into_iter();
        let (lo, _) = iter.size_hint();
        let mut out = Self::with_capacity(lo);
        let mut acc: u8 = 0;
        let mut filled: u32 = 0;
        for b in iter {
            acc = (acc << 1) | u8::from(b);
            filled += 1;
            if filled == 8 {
                out.bytes.push(acc);
                out.len += 8;
                acc = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            out.bytes.push(acc << (8 - filled));
            out.len += filled as usize;
        }
        out
    }

    /// Builds a bit string from raw bytes, keeping exactly `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > bytes.len() * 8`.
    #[must_use]
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(
            len <= bytes.len() * 8,
            "len {len} exceeds capacity of {} bytes",
            bytes.len()
        );
        let mut bytes = bytes[..len.div_ceil(8)].to_vec();
        // Zero the padding so equality/hash are canonical.
        if !len.is_multiple_of(8) {
            let mask = 0xffu8 << (8 - (len % 8));
            if let Some(last) = bytes.last_mut() {
                *last &= mask;
            }
        }
        Self { bytes, len }
    }

    /// Length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string contains no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing bytes (final byte zero-padded).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Returns bit `index` (MSB-first), or `None` if out of range.
    #[must_use]
    pub fn bit(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        let byte = self.bytes[index / 8];
        Some(byte & (0x80 >> (index % 8)) != 0)
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            let idx = self.len;
            self.bytes[idx / 8] |= 0x80 >> (idx % 8);
        }
        self.len += 1;
    }

    /// Appends all bits of `other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rpls_bits::BitString;
    /// let mut a = BitString::from_bools([true]);
    /// let b = BitString::from_bools([false, true]);
    /// a.extend_bits(&b);
    /// assert_eq!(a, BitString::from_bools([true, false, true]));
    /// ```
    pub fn extend_bits(&mut self, other: &BitString) {
        self.extend_from_slice(other.as_slice());
    }

    /// Appends all bits of `other`, a byte at a time. Alias of
    /// [`BitString::extend_bits`] restricted to owned strings; used by the
    /// certificate arena.
    pub fn extend_from_bitstring(&mut self, other: &BitString) {
        self.extend_from_slice(other.as_slice());
    }

    /// Appends all bits of a borrowed slice, a byte at a time.
    pub fn extend_from_slice(&mut self, other: BitSlice<'_>) {
        if other.is_empty() {
            return;
        }
        self.bytes.reserve(other.len().div_ceil(8));
        let shift = (self.len % 8) as u32;
        if shift == 0 {
            // Byte-aligned: bulk copy, then trim the length.
            self.bytes.extend_from_slice(other.as_bytes());
            self.len += other.len();
            self.bytes.truncate(self.len.div_ceil(8));
        } else {
            // Stitch each source byte across the boundary of the partial
            // last byte.
            for &b in other.as_bytes() {
                let last = self.bytes.last_mut().expect("non-empty on misalign");
                *last |= b >> shift;
                self.bytes.push(b << (8 - shift));
            }
            self.len += other.len();
            self.bytes.truncate(self.len.div_ceil(8));
        }
        self.mask_tail();
    }

    /// Appends `value` as a big-endian field of exactly `width` bits,
    /// writing whole bytes where possible.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64` or `value` needs more bits.
    pub fn push_u64(&mut self, value: u64, width: u32) {
        assert!((1..=64).contains(&width), "invalid field width {width}");
        assert!(
            width == 64 || value >> width == 0,
            "value {value} does not fit in {width} bits"
        );
        let mut remaining = width;
        // Fill the partial last byte bit-by-bit, then copy whole bytes.
        while remaining > 0 && !self.len.is_multiple_of(8) {
            remaining -= 1;
            self.push((value >> remaining) & 1 == 1);
        }
        while remaining >= 8 {
            remaining -= 8;
            self.bytes.push(((value >> remaining) & 0xFF) as u8);
            self.len += 8;
        }
        if remaining > 0 {
            self.bytes.push(((value << (8 - remaining)) & 0xFF) as u8);
            self.len += remaining as usize;
        }
    }

    /// Zeroes the padding bits of the final partial byte so equality and
    /// hashing stay canonical after bulk writes.
    fn mask_tail(&mut self) {
        if !self.len.is_multiple_of(8) {
            if let Some(last) = self.bytes.last_mut() {
                *last &= 0xFFu8 << (8 - (self.len % 8));
            }
        }
    }

    /// A borrowed view of the whole string.
    #[must_use]
    pub fn as_slice(&self) -> BitSlice<'_> {
        BitSlice::of_string(&self.bytes, self.len)
    }

    /// Concatenates the given bit strings into one.
    #[must_use]
    pub fn concat<'a, I: IntoIterator<Item = &'a BitString>>(parts: I) -> Self {
        let mut out = Self::new();
        for p in parts {
            out.extend_bits(p);
        }
        out
    }

    /// Returns the prefix containing at most `len` bits.
    ///
    /// Truncation models a bandwidth budget: a scheme whose labels are cut to
    /// `len` bits carries only the information that fits, which is exactly
    /// the situation the lower-bound arguments exploit.
    #[must_use]
    pub fn truncated(&self, len: usize) -> Self {
        if len >= self.len {
            return self.clone();
        }
        Self::from_bytes(&self.bytes, len)
    }

    /// Iterates over the bits MSB-first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { s: self, pos: 0 }
    }

    /// Interprets up to the first 64 bits as a big-endian unsigned integer.
    /// Useful as a cheap canonical key for pigeonhole bucketing of short
    /// strings.
    #[must_use]
    pub fn leading_u64(&self) -> u64 {
        let mut acc: u64 = 0;
        for i in 0..self.len.min(64) {
            acc = (acc << 1) | u64::from(self.bit(i).unwrap_or(false));
        }
        acc
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString[{}]<", self.len)?;
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

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bools(iter)
    }
}

impl Extend<bool> for BitString {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a BitString {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitString`], MSB-first.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    s: &'a BitString,
    pos: usize,
}

impl Iterator for Iter<'_> {
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

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_round_trip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let s = BitString::from_bools(pattern);
        assert_eq!(s.len(), pattern.len());
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(s.bit(i), Some(b), "bit {i}");
        }
        assert_eq!(s.bit(pattern.len()), None);
    }

    #[test]
    fn from_bytes_zeroes_padding() {
        let a = BitString::from_bytes(&[0b1010_1111], 4);
        let b = BitString::from_bytes(&[0b1010_0000], 4);
        assert_eq!(a, b, "padding bits must not affect equality");
        assert_eq!(a.as_bytes(), &[0b1010_0000]);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let s = BitString::from_bools([true, true, false, true, false]);
        let t = s.truncated(3);
        assert_eq!(t, BitString::from_bools([true, true, false]));
        assert_eq!(s.truncated(99), s);
        assert_eq!(s.truncated(0), BitString::new());
    }

    #[test]
    fn concat_matches_manual_extend() {
        let a = BitString::from_bools([true, false]);
        let b = BitString::from_bools([false, false, true]);
        let c = BitString::concat([&a, &b]);
        assert_eq!(c.len(), 5);
        assert_eq!(c, BitString::from_bools([true, false, false, false, true]));
    }

    #[test]
    fn leading_u64_is_big_endian() {
        let s = BitString::from_bools([true, false, true]); // 0b101
        assert_eq!(s.leading_u64(), 5);
        assert_eq!(BitString::new().leading_u64(), 0);
    }

    #[test]
    fn display_and_debug() {
        let s = BitString::from_bools([true, false, true]);
        assert_eq!(s.to_string(), "101");
        assert!(format!("{s:?}").contains("BitString[3]"));
    }

    #[test]
    fn zeros_are_all_false() {
        let z = BitString::zeros(17);
        assert_eq!(z.len(), 17);
        assert_eq!(z.iter().filter(|&b| b).count(), 0);
    }

    #[test]
    fn iterator_exact_size() {
        let s = BitString::zeros(9);
        let it = s.iter();
        assert_eq!(it.len(), 9);
        assert_eq!(s.iter().count(), 9);
    }
}
