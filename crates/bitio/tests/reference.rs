//! Differential test of the word-at-a-time Elias codes against a
//! bit-at-a-time reference: every codeword must be bit-identical to the
//! reference's, at every alignment within a word, and every stream must
//! decode to the same value or the same error, at the same position.

use proptest::prelude::*;
use wf_bitio::{BitReader, BitVec, BitWriter, ReadError};

/// γ one bit at a time: `⌊log₂ n⌋` zeros, then the digits of `n` MSB first.
fn ref_write_gamma(w: &mut BitWriter, n: u64) {
    let nbits = 64 - n.leading_zeros();
    for _ in 0..nbits - 1 {
        w.push_bit(false);
    }
    for i in (0..nbits).rev() {
        w.push_bit((n >> i) & 1 == 1);
    }
}

/// δ one bit at a time: γ(digit count), then the digits below the leading 1.
fn ref_write_delta(w: &mut BitWriter, n: u64) {
    let nbits = 64 - n.leading_zeros();
    ref_write_gamma(w, nbits as u64);
    for i in (0..nbits - 1).rev() {
        w.push_bit((n >> i) & 1 == 1);
    }
}

fn ref_read_unary(r: &mut BitReader<'_>) -> Result<u64, ReadError> {
    let mut n = 0;
    while !r.read_bit()? {
        n += 1;
    }
    Ok(n)
}

fn ref_read_msb(r: &mut BitReader<'_>, width: u64) -> Result<u64, ReadError> {
    let mut out = 1u64;
    for _ in 0..width {
        out = (out << 1) | r.read_bit()? as u64;
    }
    Ok(out)
}

fn ref_read_gamma(r: &mut BitReader<'_>) -> Result<u64, ReadError> {
    let zeros = ref_read_unary(r)?;
    if zeros >= 64 {
        return Err(ReadError::Malformed);
    }
    ref_read_msb(r, zeros)
}

fn ref_read_delta(r: &mut BitReader<'_>) -> Result<u64, ReadError> {
    let nbits = ref_read_gamma(r)?;
    if nbits > 64 {
        return Err(ReadError::Malformed);
    }
    ref_read_msb(r, nbits - 1)
}

#[derive(Clone, Copy, Debug)]
enum Code {
    Gamma,
    Delta,
}

/// `pad` filler bits (an alternating pattern), then `n` in `code`, written
/// by the crate or by the reference.
fn encode(code: Code, pad: u32, n: u64, reference: bool) -> BitVec {
    let mut w = BitWriter::new();
    for i in 0..pad {
        w.push_bit(i % 3 == 0);
    }
    match (code, reference) {
        (Code::Gamma, false) => w.write_gamma(n),
        (Code::Delta, false) => w.write_delta(n),
        (Code::Gamma, true) => ref_write_gamma(&mut w, n),
        (Code::Delta, true) => ref_write_delta(&mut w, n),
    }
    w.finish()
}

/// Decodes one codeword after `pad` filler bits with the crate's reader
/// and with the reference; both must agree on the result and the position.
fn decode_both(code: Code, bits: &BitVec, pad: u32) -> Result<u64, ReadError> {
    let (mut fast, mut slow) = (BitReader::new(bits), BitReader::new(bits));
    for _ in 0..pad {
        fast.read_bit().unwrap();
        slow.read_bit().unwrap();
    }
    let (got, want) = match code {
        Code::Gamma => (fast.read_gamma(), ref_read_gamma(&mut slow)),
        Code::Delta => (fast.read_delta(), ref_read_delta(&mut slow)),
    };
    assert_eq!(got, want, "{code:?} after {pad} bits of {bits:?}");
    if want.is_ok() {
        assert_eq!(fast.position(), slow.position(), "{code:?} after {pad} bits");
    }
    got
}

/// The first `len` bits of `bits`.
fn prefix(bits: &BitVec, len: usize) -> BitVec {
    let mut w = BitWriter::new();
    for b in bits.iter().take(len) {
        w.push_bit(b);
    }
    w.finish()
}

/// 1, 2^k - 1, 2^k and 2^k + 1 for every k, and `u64::MAX`.
fn edge_values() -> Vec<u64> {
    let mut v = vec![1, u64::MAX];
    for k in 1..64 {
        v.extend([(1u64 << k) - 1, 1u64 << k, (1u64 << k) + 1]);
    }
    v
}

/// Every edge value, at every alignment within a word (so codewords of
/// every length straddle a word boundary somewhere), encodes to the
/// reference's bits, decodes back to itself, and every truncation of it
/// is `OutOfBits` from both readers.
#[test]
fn codes_match_the_bit_at_a_time_reference() {
    for code in [Code::Gamma, Code::Delta] {
        for n in edge_values() {
            for pad in 0..64 {
                let bits = encode(code, pad, n, false);
                assert_eq!(bits, encode(code, pad, n, true), "{code:?}({n}) after {pad} bits");
                assert_eq!(decode_both(code, &bits, pad), Ok(n));
            }
            let bits = encode(code, 61, n, false);
            for len in 61..bits.len() {
                assert_eq!(
                    decode_both(code, &prefix(&bits, len), 61),
                    Err(ReadError::OutOfBits),
                    "{code:?}({n}) cut to {len} bits"
                );
            }
        }
    }
}

/// A γ prefix of 64 or more zeros is `Malformed` (no u64 has 65 digits),
/// while the same run cut short by the end of the stream is `OutOfBits`.
#[test]
fn long_zero_runs_are_malformed_or_out_of_bits() {
    for zeros in [64u32, 65, 127, 128, 200] {
        for pad in [0u32, 1, 63] {
            let run = |terminated: bool| {
                let mut w = BitWriter::new();
                for _ in 0..pad + zeros {
                    w.push_bit(false);
                }
                if terminated {
                    w.write_bits(u64::MAX, 64);
                }
                w.finish()
            };
            let (open, closed) = (run(false), run(true));
            for code in [Code::Gamma, Code::Delta] {
                assert_eq!(decode_both(code, &open, pad), Err(ReadError::OutOfBits));
                assert_eq!(decode_both(code, &closed, pad), Err(ReadError::Malformed));
            }
        }
    }
}

/// The unary scan stops at the end of the stream even when the last
/// word's unused bits are set (they are unspecified in a rebuilt stream).
#[test]
fn unary_ignores_bits_past_the_end() {
    for len in [1usize, 10, 63, 64, 70, 127] {
        let mut words = vec![0u64; len.div_ceil(64)];
        *words.last_mut().unwrap() |= if len % 64 == 0 { 0 } else { u64::MAX << (len % 64) };
        let bits = BitVec::from_words(words, len).unwrap();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_unary(), Err(ReadError::OutOfBits), "{len} zero bits");
        assert_eq!(ref_read_unary(&mut BitReader::new(&bits)), Err(ReadError::OutOfBits));
        assert_eq!(decode_both(Code::Gamma, &bits, 0), Err(ReadError::OutOfBits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random values at random alignments, and random raw streams: the
    /// crate's codes and readers agree with the reference bit for bit.
    #[test]
    fn random_codes_match_the_reference(
        n in 1u64..=u64::MAX,
        shift in 0u32..64,
        pad in 0u32..130,
        raw in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let n = (n >> shift).max(1);
        for code in [Code::Gamma, Code::Delta] {
            let bits = encode(code, pad, n, false);
            prop_assert_eq!(&bits, &encode(code, pad, n, true));
            prop_assert_eq!(decode_both(code, &bits, pad), Ok(n));
        }
        let mut w = BitWriter::new();
        for &b in &raw {
            w.push_bit(b);
        }
        let raw = w.finish();
        for code in [Code::Gamma, Code::Delta] {
            let _ = decode_both(code, &raw, 0);
        }
        let (mut fast, mut slow) = (BitReader::new(&raw), BitReader::new(&raw));
        prop_assert_eq!(fast.read_unary(), ref_read_unary(&mut slow));
    }
}
