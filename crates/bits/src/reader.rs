//! The [`BitReader`] cursor for unpacking fixed-width fields.

use crate::{BitSlice, BitString, BitsError};

/// Reads fixed-width fields back out of a [`BitString`], in the order they
/// were written by a [`BitWriter`](crate::BitWriter).
///
/// # Examples
///
/// ```
/// use rpls_bits::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_u64(42, 6).write_bool(true);
/// let s = w.finish();
///
/// let mut r = BitReader::new(&s);
/// assert_eq!(r.read_u64(6).unwrap(), 42);
/// assert!(r.read_bool().unwrap());
/// assert!(r.is_exhausted());
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    src: BitSlice<'a>,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `src`.
    #[must_use]
    pub fn new(src: &'a BitString) -> Self {
        Self {
            src: src.as_slice(),
            pos: 0,
        }
    }

    /// Creates a reader over a borrowed slice (e.g. a certificate viewed
    /// in-place inside the engine's arena).
    #[must_use]
    pub fn from_slice(src: BitSlice<'a>) -> Self {
        Self { src, pos: 0 }
    }

    /// Number of bits not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.src.len().saturating_sub(self.pos)
    }

    /// Whether every bit has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::OutOfInput`] at end of input.
    pub fn read_bool(&mut self) -> Result<bool, BitsError> {
        match self.src.bit(self.pos) {
            Some(b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(BitsError::OutOfInput {
                requested: 1,
                available: 0,
            }),
        }
    }

    /// Reads a big-endian unsigned integer of exactly `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::InvalidWidth`] if `width` is not in `1..=64`, or
    /// [`BitsError::OutOfInput`] if fewer than `width` bits remain.
    pub fn read_u64(&mut self, width: u32) -> Result<u64, BitsError> {
        if width == 0 || width > 64 {
            return Err(BitsError::InvalidWidth(width));
        }
        if (width as usize) > self.remaining() {
            return Err(BitsError::OutOfInput {
                requested: width as usize,
                available: self.remaining(),
            });
        }
        let bytes = self.src.as_bytes();
        let (first, off) = (self.pos / 8, (self.pos % 8) as u32);
        // The field spans at most 9 bytes. Load them MSB-first into the
        // top of one window, then shift once to drop the `off` bits before
        // the field and everything after it. Near the slice's end, where
        // 16 bytes are not there to load, the window is filled byte by
        // byte from exactly the bytes the field spans.
        let window = match bytes.get(first..first + 16) {
            Some(chunk) => u128::from_be_bytes(chunk.try_into().expect("a 16-byte chunk")),
            None => {
                let span = (off + width).div_ceil(8) as usize;
                let mut window = 0u128;
                for (i, &b) in bytes[first..first + span].iter().enumerate() {
                    window |= u128::from(b) << (120 - 8 * i);
                }
                window
            }
        };
        self.pos += width as usize;
        Ok(((window << off) >> (128 - width)) as u64)
    }

    /// Reads `len` bits into a fresh [`BitString`].
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::OutOfInput`] if fewer than `len` bits remain.
    pub fn read_bits(&mut self, len: usize) -> Result<BitString, BitsError> {
        if len > self.remaining() {
            return Err(BitsError::OutOfInput {
                requested: len,
                available: self.remaining(),
            });
        }
        let mut out = BitString::with_capacity(len);
        let mut remaining = len;
        // Word-sized chunks, then the tail.
        while remaining >= 64 {
            let word = self.read_u64(64).expect("bounds checked above");
            out.push_u64(word, 64);
            remaining -= 64;
        }
        if remaining > 0 {
            let word = self
                .read_u64(remaining as u32)
                .expect("bounds checked above");
            out.push_u64(word, remaining as u32);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn round_trips_mixed_fields() {
        let mut w = BitWriter::new();
        w.write_u64(7, 3)
            .write_bool(false)
            .write_u64(1234, 11)
            .write_u64(0, 1);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_u64(3).unwrap(), 7);
        assert!(!r.read_bool().unwrap());
        assert_eq!(r.read_u64(11).unwrap(), 1234);
        assert_eq!(r.read_u64(1).unwrap(), 0);
        assert!(r.is_exhausted());
    }

    #[test]
    fn out_of_input_reports_counts() {
        let s = BitString::zeros(3);
        let mut r = BitReader::new(&s);
        let err = r.read_u64(5).unwrap_err();
        assert_eq!(
            err,
            BitsError::OutOfInput {
                requested: 5,
                available: 3
            }
        );
        // Nothing consumed by the failed read.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn read_bits_extracts_substring() {
        let s = BitString::from_bools([true, false, true, true]);
        let mut r = BitReader::new(&s);
        let first = r.read_bits(2).unwrap();
        assert_eq!(first, BitString::from_bools([true, false]));
        let rest = r.read_bits(2).unwrap();
        assert_eq!(rest, BitString::from_bools([true, true]));
        assert!(r.read_bits(1).is_err());
    }

    /// The byte-at-a-time `read_u64` loop this reader used before its
    /// window load: the reference for `window_read_matches_byte_loop`.
    fn read_bytewise(src: BitSlice<'_>, mut pos: usize, width: u32) -> u64 {
        let bytes = src.as_bytes();
        let (mut acc, mut taken) = (0u64, 0u32);
        while taken < width {
            let bit_off = (pos % 8) as u32;
            let avail = 8 - bit_off;
            let take = (width - taken).min(avail);
            let chunk = (bytes[pos / 8] >> (avail - take)) & (((1u16 << take) - 1) as u8);
            acc = (acc << take) | u64::from(chunk);
            pos += take as usize;
            taken += take;
        }
        acc
    }

    #[test]
    fn window_read_matches_byte_loop() {
        // Every width at every bit offset, at fields starting in bytes 0,
        // 1 and 9 (so both the 16-byte load and the byte-by-byte fill near
        // the end run), on slices ending exactly at the field's end, a few
        // bits past it (mid-byte), and far past it.
        let pattern = |i: usize| (i * 7 + i / 3) % 5 < 2 || i.is_multiple_of(11);
        for start_byte in [0usize, 1, 9] {
            for off in 0..8 {
                let pos = start_byte * 8 + off;
                for width in 1..=64u32 {
                    let end = pos + width as usize;
                    for len in [end, end + 1, end + 3, end + 7, end + 200] {
                        let s = BitString::from_bools((0..len).map(pattern));
                        let mut r = BitReader::new(&s);
                        r.pos = pos;
                        let want = read_bytewise(s.as_slice(), pos, width);
                        assert_eq!(
                            r.read_u64(width),
                            Ok(want),
                            "pos {pos} width {width} len {len}"
                        );
                        assert_eq!(r.remaining(), len - end);
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_width_rejected() {
        let s = BitString::zeros(80);
        let mut r = BitReader::new(&s);
        assert!(matches!(r.read_u64(0), Err(BitsError::InvalidWidth(0))));
        assert!(matches!(r.read_u64(65), Err(BitsError::InvalidWidth(65))));
        // 64 is fine.
        assert_eq!(r.read_u64(64).unwrap(), 0);
    }
}
