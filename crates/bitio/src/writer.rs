//! Append-only bit stream writer.

use crate::bits::BitVec;

/// Builds a [`BitVec`] one field at a time.
///
/// Labels in the scheme are assigned online and never modified afterwards
/// (Definition 10), so the writer deliberately exposes only appends.
#[derive(Default)]
pub struct BitWriter {
    storage: Vec<u64>,
    len: usize,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bits written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if word == self.storage.len() {
            self.storage.push(0);
        }
        if bit {
            self.storage[word] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Appends the low `width` bits of `value`, LSB first.
    ///
    /// # Panics
    /// In debug builds, panics if `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let word = self.len / 64;
        let off = (self.len % 64) as u32;
        if word == self.storage.len() {
            self.storage.push(0);
        }
        self.storage[word] |= value << off;
        if off + width > 64 {
            // Spills into the next word.
            self.storage.push(value >> (64 - off));
        } else if self.len + width as usize == (word + 1) * 64 {
            // Exactly fills the word; nothing to spill.
        }
        self.len += width as usize;
    }

    /// Appends `n` in unary: `n` zeros followed by a one.
    pub fn write_unary(&mut self, n: u64) {
        for _ in 0..n {
            self.push_bit(false);
        }
        self.push_bit(true);
    }

    /// Appends `n >= 1` with the Elias γ code: `⌊log₂ n⌋` zeros, then the
    /// `⌊log₂ n⌋ + 1` binary digits of `n` (MSB first, leading 1 included).
    ///
    /// # Panics
    /// Panics if `n == 0` (γ codes positive integers only).
    pub fn write_gamma(&mut self, n: u64) {
        assert!(n >= 1, "Elias gamma codes positive integers");
        let nbits = 64 - n.leading_zeros(); // ⌊log₂ n⌋ + 1
        self.write_bits(0, nbits - 1);
        self.write_bits(msb_first(n, nbits), nbits);
    }

    /// Appends `n >= 1` with the Elias δ code: γ(⌊log₂ n⌋ + 1) followed by
    /// the `⌊log₂ n⌋` low digits of `n`. Asymptotically shorter than γ.
    pub fn write_delta(&mut self, n: u64) {
        assert!(n >= 1, "Elias delta codes positive integers");
        let nbits = 64 - n.leading_zeros();
        self.write_gamma(nbits as u64);
        // The digits below the leading 1, which γ(nbits) already implies.
        self.write_bits(msb_first(n, nbits) >> 1, nbits - 1);
    }

    /// Finalizes the stream.
    pub fn finish(self) -> BitVec {
        BitVec::from_raw(self.storage, self.len)
    }
}

/// The `nbits` binary digits of `n` (`nbits ≥ 1`, `n < 2^nbits`),
/// bit-reversed into the low `nbits`, so that [`BitWriter::write_bits`],
/// which appends LSB first, appends them MSB first.
#[inline]
fn msb_first(n: u64, nbits: u32) -> u64 {
    n.reverse_bits() >> (64 - nbits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_bits_within_word() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let v = w.finish();
        assert_eq!(v.len(), 4);
        let got: Vec<bool> = v.iter().collect();
        // LSB first: 1, 1, 0, 1.
        assert_eq!(got, vec![true, true, false, true]);
    }

    #[test]
    fn write_bits_zero_width_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn write_bits_across_word_boundary() {
        let mut w = BitWriter::new();
        w.write_bits((1u64 << 60) - 1, 60);
        w.write_bits(0b1010, 4);
        w.write_bits(0xFF, 8);
        let v = w.finish();
        assert_eq!(v.len(), 72);
        assert_eq!(v.get(60), Some(false));
        assert_eq!(v.get(61), Some(true));
        assert_eq!(v.get(62), Some(false));
        assert_eq!(v.get(63), Some(true));
        for i in 64..72 {
            assert_eq!(v.get(i), Some(true));
        }
    }

    #[test]
    fn write_full_64_bit_word() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64);
        let v = w.finish();
        assert_eq!(v.len(), 64);
        assert_eq!(v.words()[0], 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn unary_lengths() {
        let mut w = BitWriter::new();
        w.write_unary(0);
        assert_eq!(w.len(), 1);
        w.write_unary(5);
        assert_eq!(w.len(), 7);
    }

    #[test]
    fn gamma_known_codewords() {
        // Classic table: γ(1)=1, γ(2)=010, γ(3)=011, γ(4)=00100.
        let enc = |n: u64| {
            let mut w = BitWriter::new();
            w.write_gamma(n);
            w.finish().iter().map(|b| if b { '1' } else { '0' }).collect::<String>()
        };
        assert_eq!(enc(1), "1");
        assert_eq!(enc(2), "010");
        assert_eq!(enc(3), "011");
        assert_eq!(enc(4), "00100");
        assert_eq!(enc(9), "0001001");
    }

    #[test]
    fn delta_known_codewords() {
        // δ(1)=1, δ(2)=0100, δ(3)=0101, δ(4)=01100, δ(9)=00100001.
        let enc = |n: u64| {
            let mut w = BitWriter::new();
            w.write_delta(n);
            w.finish().iter().map(|b| if b { '1' } else { '0' }).collect::<String>()
        };
        assert_eq!(enc(1), "1");
        assert_eq!(enc(2), "0100");
        assert_eq!(enc(3), "0101");
        assert_eq!(enc(4), "01100");
        assert_eq!(enc(9), "00100001");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gamma_rejects_zero() {
        BitWriter::new().write_gamma(0);
    }
}
