//! The byte-level snapshot container: header, checksum, payload words.
//!
//! Layout (all integers little-endian):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8 | magic `b"WFPROVSN"` |
//! | 8  | 4 | format version ([`FORMAT_VERSION`]) |
//! | 12 | 8 | specification fingerprint |
//! | 20 | 8 | payload length in **bits** |
//! | 28 | 8 | FNV-1a checksum over version ‖ fingerprint ‖ bit length ‖ payload |
//! | 36 | … | `⌈bits / 64⌉` payload words |
//!
//! The payload itself is one contiguous [`wf_bitio`] stream; its sections
//! are defined by the writers layered above (`wf-engine` for the label
//! store and view registry, `wf-core` for compiled view labels).
//!
//! Versioning policy: the version is bumped on **any** payload layout
//! change; there is no in-place migration — readers reject foreign versions
//! with [`SnapshotError::UnsupportedVersion`] and the caller re-labels from
//! scratch (labels are always reconstructible; a snapshot is a cache, not a
//! source of truth).

use crate::error::SnapshotError;
use std::io::{Read, Write};
use wf_bitio::BitVec;

/// Magic prefix of every snapshot stream.
pub const MAGIC: [u8; 8] = *b"WFPROVSN";

/// Format version written by this build (and the only one it reads).
pub const FORMAT_VERSION: u32 = 1;

/// Streaming FNV-1a (64-bit) — tiny, dependency-free corruption detector.
/// Not cryptographic; forged payloads are additionally bounded by the
/// structural validation every section reader performs. Shared with the
/// spec fingerprint so the crate has exactly one copy of the constants.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

fn checksum(fingerprint: u64, bits: u64, words: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&FORMAT_VERSION.to_le_bytes());
    h.update(&fingerprint.to_le_bytes());
    h.update(&bits.to_le_bytes());
    for w in words {
        h.update(&w.to_le_bytes());
    }
    h.finish()
}

/// A parsed container: who the payload belongs to, and the payload bits.
pub struct Container {
    /// Fingerprint of the specification the snapshot was taken of.
    pub fingerprint: u64,
    /// The verified payload stream.
    pub payload: BitVec,
}

/// Writes a finished payload under the versioned, checksummed header.
pub fn write_container(
    to: &mut impl Write,
    fingerprint: u64,
    payload: &BitVec,
) -> Result<(), SnapshotError> {
    let bits = payload.len() as u64;
    to.write_all(&MAGIC)?;
    to.write_all(&FORMAT_VERSION.to_le_bytes())?;
    to.write_all(&fingerprint.to_le_bytes())?;
    to.write_all(&bits.to_le_bytes())?;
    to.write_all(&checksum(fingerprint, bits, payload.words()).to_le_bytes())?;
    for w in payload.words() {
        to.write_all(&w.to_le_bytes())?;
    }
    Ok(())
}

/// Recomputes and overwrites the checksum of the container starting at
/// `bytes[0]`, returning the container's total length in bytes — or `None`
/// when the buffer is too short to hold the header plus its declared
/// payload (the caller's mutation already destroyed the framing).
///
/// This is a *testing and fuzzing* hook: corruption of the payload is
/// normally caught by the checksum before a single bit is interpreted, so
/// exercising the structural validators behind it requires forging payloads
/// whose checksum is valid. Production code never needs this — a legitimate
/// writer produces a correct checksum via [`write_container`].
pub fn reseal_container(bytes: &mut [u8]) -> Option<usize> {
    if bytes.len() < 36 {
        return None;
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let bits = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload_bytes = usize::try_from(bits.div_ceil(64).checked_mul(8)?).ok()?;
    let total = 36usize.checked_add(payload_bytes)?;
    if bytes.len() < total {
        return None;
    }
    let words: Vec<u64> = bytes[36..total]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let sum = checksum(fingerprint, bits, &words);
    bytes[28..36].copy_from_slice(&sum.to_le_bytes());
    Some(total)
}

fn read_u64(from: &mut impl Read) -> Result<u64, SnapshotError> {
    let mut buf = [0u8; 8];
    from.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads and verifies a container: magic, version, declared length and
/// checksum all checked before a single payload bit is interpreted.
pub fn read_container(from: &mut impl Read) -> Result<Container, SnapshotError> {
    let mut magic = [0u8; 8];
    from.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut ver = [0u8; 4];
    from.read_exact(&mut ver)?;
    let version = u32::from_le_bytes(ver);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let fingerprint = read_u64(from)?;
    let bits = read_u64(from)?;
    let stored_checksum = read_u64(from)?;
    let word_count = bits.div_ceil(64);
    let byte_count = word_count.checked_mul(8).ok_or(SnapshotError::Malformed("payload size"))?;
    // `take` bounds the read by the *declared* size, and `read_to_end`
    // allocates only as bytes actually arrive — a forged gigantic length
    // cannot drive an up-front allocation; it just ends in `Truncated`.
    let mut bytes = Vec::new();
    from.take(byte_count).read_to_end(&mut bytes)?;
    if (bytes.len() as u64) < byte_count {
        return Err(SnapshotError::Truncated);
    }
    let words: Vec<u64> =
        bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
    if checksum(fingerprint, bits, &words) != stored_checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let payload =
        BitVec::from_words(words, bits as usize).ok_or(SnapshotError::Malformed("word count"))?;
    Ok(Container { fingerprint, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_bitio::BitWriter;

    fn sample_payload() -> BitVec {
        let mut w = BitWriter::new();
        w.write_gamma(42);
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_delta(7);
        w.finish()
    }

    fn sample_bytes() -> Vec<u8> {
        let mut out = Vec::new();
        write_container(&mut out, 0x1234_5678_9abc_def0, &sample_payload()).unwrap();
        out
    }

    #[test]
    fn roundtrip() {
        let bytes = sample_bytes();
        let c = read_container(&mut bytes.as_slice()).unwrap();
        assert_eq!(c.fingerprint, 0x1234_5678_9abc_def0);
        assert_eq!(c.payload, sample_payload());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut out = Vec::new();
        write_container(&mut out, 7, &BitVec::new()).unwrap();
        let c = read_container(&mut out.as_slice()).unwrap();
        assert_eq!(c.fingerprint, 7);
        assert!(c.payload.is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(read_container(&mut bytes.as_slice()), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn rejects_foreign_version() {
        let mut bytes = sample_bytes();
        bytes[8] = 99;
        assert!(matches!(
            read_container(&mut bytes.as_slice()),
            Err(SnapshotError::UnsupportedVersion { found: 99, supported: FORMAT_VERSION })
        ));
    }

    #[test]
    fn rejects_any_truncation() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            let got = read_container(&mut &bytes[..cut]);
            assert!(
                matches!(got, Err(SnapshotError::Truncated)),
                "cut at {cut}: expected Truncated, got {got:?}",
                got = got.err()
            );
        }
    }

    #[test]
    fn rejects_any_single_byte_corruption() {
        let bytes = sample_bytes();
        // Flip one bit in every byte after the magic; each flip must be
        // detected (header fields produce their own typed errors; payload
        // and checksum flips land in ChecksumMismatch).
        for i in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(read_container(&mut bad.as_slice()).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn forged_length_does_not_preallocate() {
        let mut bytes = sample_bytes();
        // Claim a ~2⁶⁰-bit payload: the reader must fail with Truncated
        // after consuming the short stream, not attempt the allocation.
        bytes[20..28].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(read_container(&mut bytes.as_slice()), Err(SnapshotError::Truncated)));
    }
}
