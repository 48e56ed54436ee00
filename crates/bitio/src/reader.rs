//! Sequential bit stream reader, the inverse of [`crate::BitWriter`].

use crate::bits::BitVec;

/// Error returned when a read runs past the end of the stream or a code is
/// malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The stream ended before the requested field was complete.
    OutOfBits,
    /// A universal code or a field was structurally invalid (e.g. > 64-bit
    /// γ prefix, or a value wider than the type it decodes into).
    Malformed,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::OutOfBits => write!(f, "bit stream exhausted mid-field"),
            ReadError::Malformed => write!(f, "malformed universal code"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Cursor over a [`BitVec`]. Cloning it saves a position to read again
/// from.
#[derive(Clone)]
pub struct BitReader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(bits: &'a BitVec) -> Self {
        Self { bits, pos: 0 }
    }

    /// Current cursor position in bits.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Result<bool, ReadError> {
        let b = self.bits.get(self.pos).ok_or(ReadError::OutOfBits)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a fixed-width little-endian field (inverse of
    /// [`crate::BitWriter::write_bits`]). `width == 0` reads the value 0.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, ReadError> {
        debug_assert!(width <= 64);
        if self.remaining() < width as usize {
            return Err(ReadError::OutOfBits);
        }
        let mut out = 0u64;
        let words = self.bits.words();
        let mut got = 0u32;
        while got < width {
            let word = self.pos / 64;
            let off = (self.pos % 64) as u32;
            let take = (64 - off).min(width - got);
            let chunk = (words[word] >> off) & mask(take);
            out |= chunk << got;
            got += take;
            self.pos += take as usize;
        }
        Ok(out)
    }

    /// Reads a unary-coded value (inverse of `write_unary`), a word at a
    /// time: the zeros before the terminating 1 are counted with
    /// `trailing_zeros`, masked to the end of the stream. A stream that
    /// ends before the 1 is [`ReadError::OutOfBits`], with every remaining
    /// bit consumed.
    pub fn read_unary(&mut self) -> Result<u64, ReadError> {
        let words = self.bits.words();
        let start = self.pos;
        while self.pos < self.bits.len() {
            let avail = word_tail(self.pos, self.bits.len());
            let ones = (words[self.pos / 64] >> (self.pos % 64)) & mask(avail);
            if ones != 0 {
                let zeros = ones.trailing_zeros() as usize;
                let n = (self.pos + zeros - start) as u64;
                self.pos += zeros + 1;
                return Ok(n);
            }
            self.pos += avail as usize;
        }
        Err(ReadError::OutOfBits)
    }

    /// Reads an Elias γ-coded value (inverse of `write_gamma`).
    pub fn read_gamma(&mut self) -> Result<u64, ReadError> {
        let zeros = self.read_unary()?; // consumes the leading 1 of n as well
        if zeros >= 64 {
            return Err(ReadError::Malformed);
        }
        // We already consumed the MSB (the 1 terminating the unary prefix);
        // `zeros` further bits follow.
        let rest = self.read_bits_msb(zeros as u32)?;
        Ok((1u64 << zeros) | rest)
    }

    /// Reads an Elias δ-coded value (inverse of `write_delta`).
    pub fn read_delta(&mut self) -> Result<u64, ReadError> {
        let nbits = self.read_gamma()?;
        if nbits == 0 || nbits > 64 {
            return Err(ReadError::Malformed);
        }
        let rest = self.read_bits_msb(nbits as u32 - 1)?;
        Ok((1u64 << (nbits - 1)) | rest)
    }

    /// Reads `width` bits MSB-first (γ/δ payloads are written MSB-first):
    /// one [`BitReader::read_bits`], bit-reversed into the low `width`.
    fn read_bits_msb(&mut self, width: u32) -> Result<u64, ReadError> {
        let raw = self.read_bits(width)?;
        Ok(if width == 0 { 0 } else { raw.reverse_bits() >> (64 - width) })
    }
}

/// How many bits of the word holding position `pos` lie at or past `pos`
/// inside a stream of `len > pos` bits: up to the word's end, or fewer at
/// the stream's end. The count is taken in `usize` before narrowing, so a
/// stream of 2^32 bits or more cannot truncate it to 0 (a scan that would
/// never advance).
#[inline]
fn word_tail(pos: usize, len: usize) -> u32 {
    (64 - pos % 64).min(len - pos) as u32
}

#[inline]
fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn roundtrip_mixed_fields() {
        let mut w = BitWriter::new();
        w.write_bits(0b1101, 4);
        w.write_gamma(17);
        w.write_bits(5, 3);
        w.write_delta(1000);
        w.write_unary(7);
        w.write_bits(u64::MAX, 64);
        let v = w.finish();

        let mut r = BitReader::new(&v);
        assert_eq!(r.read_bits(4).unwrap(), 0b1101);
        assert_eq!(r.read_gamma().unwrap(), 17);
        assert_eq!(r.read_bits(3).unwrap(), 5);
        assert_eq!(r.read_delta().unwrap(), 1000);
        assert_eq!(r.read_unary().unwrap(), 7);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn out_of_bits_error() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        let v = w.finish();
        let mut r = BitReader::new(&v);
        assert_eq!(r.read_bits(3), Err(ReadError::OutOfBits));
        // Position unchanged enough to retry smaller reads.
        assert_eq!(r.read_bits(2).unwrap(), 3);
    }

    /// Streams of 2^32 bits and more (512 MiB) are too large to build in a
    /// test, so the width `read_unary` advances by is pinned directly at
    /// remaining counts at, just above and far above that size.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn word_tail_survives_streams_past_u32_bits() {
        let big = u32::MAX as usize + 1;
        for (pos, len, want) in [
            (0, big, 64),
            (0, big + 1, 64),
            (3, big + 3, 61),
            (3, big + 4, 61),
            (64 * 5 + 10, 64 * 5 + 10 + 2 * big + 5, 54),
            (70, usize::MAX, 58),
            (big - 2, big, 2),
            (5, 9, 4),
            (63, 64, 1),
        ] {
            assert_eq!(word_tail(pos, len), want, "pos {pos} len {len}");
        }
    }

    #[test]
    fn empty_stream() {
        let v = crate::BitVec::new();
        let mut r = BitReader::new(&v);
        assert_eq!(r.read_bit(), Err(ReadError::OutOfBits));
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }
}
