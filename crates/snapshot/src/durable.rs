//! Crash-safe, file-backed op-log storage: framed appends, fsync
//! acknowledgement points, and a recovery reader that self-heals a torn
//! tail (see DESIGN.md §12).
//!
//! The persisted layout is `base ‖ op-log`: a base snapshot file holding
//! one full [`crate::container`] stream, plus an append-only log of
//! *frames*, each wrapping one delta record (the bytes
//! `EngineWriter::publish_durable` encodes for one publish). A frame is:
//!
//! ```text
//! magic   4 B   b"WFL1"
//! len     4 B   payload length, LE
//! seq     8 B   publish seqno of the wrapped delta, LE
//! hcrc    8 B   FNV-1a over the 16 header bytes above, LE
//! pcrc    8 B   FNV-1a over the payload bytes, LE
//! payload len B
//! ```
//!
//! The separate header checksum is what makes recovery *classification*
//! sound: a damaged `len` field would otherwise make a corrupted frame
//! indistinguishable from a torn tail (the scanner would chase a bogus
//! length past EOF and shrug). With `hcrc`, a frame whose 32 header bytes
//! are all present either has a provably intact header or is provably
//! corrupt.
//!
//! **Torn tail vs. corruption.** A crashed append can only leave a
//! *prefix* of the intended frame bytes, because frames are appended
//! sequentially and never rewritten in place. So on open the scanner
//! walks intact frames and classifies whatever remains:
//!
//! * stream ends cleanly on a frame boundary → nothing to do;
//! * stream ends inside a frame (header or payload incomplete) → torn
//!   tail: the partial frame is truncated away and reported as
//!   `dropped_bytes`, and appending resumes at the cut;
//! * anything else — bad magic, bad header checksum, or a *complete*
//!   frame whose payload checksum fails — is
//!   [`SnapshotError::LogCorrupted`], a hard typed error. No heuristic
//!   resynchronisation, no silent data loss.
//!
//! The `seq` tag exists for compaction: after a base rewrite, frames
//! covered by the new base are stale, and a crash between the base
//! rename and the log rewrite legitimately leaves them behind. Recovery
//! (in `wf-engine`) skips frames with `seq ≤` the base's seqno without
//! decoding them; the replay chain check still verifies everything that
//! *is* applied.

use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::PathBuf;

use crate::container::Fnv1a;
use crate::error::SnapshotError;

/// First bytes of every log frame.
pub const FRAME_MAGIC: [u8; 4] = *b"WFL1";

/// Fixed size of a frame header (magic + len + seq + hcrc + pcrc).
pub const FRAME_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Encode one frame (header + payload) ready to append. The length field
/// holds 4 bytes, so the payload must be shorter than 4 GiB
/// ([`DurableLog::append`] refuses a longer one).
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    let hcrc = fnv1a(&frame[..16]);
    frame.extend_from_slice(&hcrc.to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// One intact frame located by [`scan_log`].
#[derive(Debug, Clone)]
pub struct ScannedFrame {
    /// The seqno tag the writer stamped on the frame.
    pub seq: u64,
    /// Where the frame (header) starts in the scanned bytes.
    pub start: usize,
    /// The payload's byte range within the scanned bytes.
    pub payload: Range<usize>,
}

/// Result of scanning a log stream to the last intact frame.
#[derive(Debug, Clone)]
pub struct LogScan {
    /// Every intact frame, in file order.
    pub frames: Vec<ScannedFrame>,
    /// Length of the valid prefix; the file should be truncated here.
    pub valid_len: u64,
    /// Bytes of torn tail past `valid_len` (0 for a clean log).
    pub dropped_bytes: u64,
}

/// Walk `bytes` frame by frame. Returns the intact prefix and how much
/// torn tail follows it, or [`SnapshotError::LogCorrupted`] if the
/// damage cannot have come from a torn append (see module docs for the
/// classification argument).
pub fn scan_log(bytes: &[u8]) -> Result<LogScan, SnapshotError> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    loop {
        let rem = bytes.len() - off;
        if rem == 0 {
            break;
        }
        if rem < FRAME_HEADER_BYTES {
            // Possibly a torn header — but only if what *is* present is a
            // prefix of a frame start. A wrong magic prefix cannot come
            // from a torn append of a well-formed frame.
            let take = rem.min(FRAME_MAGIC.len());
            if bytes[off..off + take] != FRAME_MAGIC[..take] {
                return Err(SnapshotError::LogCorrupted { offset: off as u64 });
            }
            break;
        }
        if bytes[off..off + 4] != FRAME_MAGIC {
            return Err(SnapshotError::LogCorrupted { offset: off as u64 });
        }
        let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as u64;
        let seq = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
        let hcrc = u64::from_le_bytes(bytes[off + 16..off + 24].try_into().unwrap());
        let pcrc = u64::from_le_bytes(bytes[off + 24..off + 32].try_into().unwrap());
        if fnv1a(&bytes[off..off + 16]) != hcrc {
            // All 32 header bytes are present, so the header was fully
            // written; a checksum miss here is damage, not a short write.
            return Err(SnapshotError::LogCorrupted { offset: off as u64 });
        }
        let payload_start = off + FRAME_HEADER_BYTES;
        let Some(end) = (payload_start as u64).checked_add(len) else {
            return Err(SnapshotError::LogCorrupted { offset: off as u64 });
        };
        if end > bytes.len() as u64 {
            // Intact header, incomplete payload: the append died mid-frame.
            break;
        }
        let end = end as usize;
        if fnv1a(&bytes[payload_start..end]) != pcrc {
            // The whole declared payload is present yet mismatches — a torn
            // write cannot produce that, so it is corruption.
            return Err(SnapshotError::LogCorrupted { offset: off as u64 });
        }
        frames.push(ScannedFrame { seq, start: off, payload: payload_start..end });
        off = end;
    }
    Ok(LogScan { frames, valid_len: off as u64, dropped_bytes: (bytes.len() - off) as u64 })
}

/// The five filesystem operations durability is built from. Object-safe
/// on purpose: the engine holds a `Box<dyn Storage>` so disk-backed and
/// fault-injected in-memory backends are interchangeable.
///
/// The two `replace_*` operations must be *atomic*: after a crash the
/// file holds either its old or its new contents, never a mix. The disk
/// backend gets this from write-to-temp → fsync → rename.
pub trait Storage: Send {
    /// Read the base snapshot file, `None` if it does not exist yet.
    fn read_base(&mut self) -> io::Result<Option<Vec<u8>>>;
    /// Atomically replace the base snapshot file.
    fn replace_base(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Read the whole op-log (empty if it does not exist yet).
    fn read_log(&mut self) -> io::Result<Vec<u8>>;
    /// Append bytes to the op-log.
    fn append_log(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Durably flush the op-log (the acknowledgement barrier).
    fn sync_log(&mut self) -> io::Result<()>;
    /// Truncate the op-log to `len` bytes (used to heal a torn tail).
    fn truncate_log(&mut self, len: u64) -> io::Result<()>;
    /// Atomically replace the op-log contents (used by compaction).
    fn replace_log(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// Real-filesystem [`Storage`]: a directory holding `base.wfs`,
/// `oplog.wfl`, and transient `*.tmp` siblings. Renames are same-dir so
/// they are atomic on POSIX filesystems, and the directory is fsynced
/// after each rename so the swap itself is durable.
pub struct DiskStorage {
    dir: PathBuf,
    log: Option<std::fs::File>,
}

/// Base snapshot file name inside a [`DiskStorage`] directory.
pub const BASE_FILE: &str = "base.wfs";
/// Op-log file name inside a [`DiskStorage`] directory.
pub const LOG_FILE: &str = "oplog.wfl";

impl DiskStorage {
    /// Open (creating if needed) the storage directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, log: None })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn sync_dir(&self) -> io::Result<()> {
        std::fs::File::open(&self.dir)?.sync_all()
    }

    fn log_handle(&mut self) -> io::Result<&mut std::fs::File> {
        if self.log.is_none() {
            self.log = Some(
                std::fs::OpenOptions::new().create(true).append(true).open(self.path(LOG_FILE))?,
            );
        }
        Ok(self.log.as_mut().unwrap())
    }

    fn read_file(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::File::open(self.path(name)) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)?;
                Ok(Some(buf))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Write `name.tmp`, fsync it, rename over `name`, fsync the dir.
    fn replace_file(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.path(name))?;
        self.sync_dir()
    }
}

impl Storage for DiskStorage {
    fn read_base(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.read_file(BASE_FILE)
    }

    fn replace_base(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.replace_file(BASE_FILE, bytes)
    }

    fn read_log(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.read_file(LOG_FILE)?.unwrap_or_default())
    }

    fn append_log(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.log_handle()?.write_all(bytes)
    }

    fn sync_log(&mut self) -> io::Result<()> {
        self.log_handle()?.sync_all()
    }

    fn truncate_log(&mut self, len: u64) -> io::Result<()> {
        // Drop the append handle first: `set_len` needs a write handle and
        // append-mode offsets would otherwise be stale.
        self.log = None;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.path(LOG_FILE))?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn replace_log(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.log = None;
        self.replace_file(LOG_FILE, bytes)
    }
}

/// What [`DurableLog::open`] found and healed.
#[derive(Debug)]
pub struct LogOpen {
    /// The base snapshot bytes, if a base file exists.
    pub base: Option<Vec<u8>>,
    /// Every intact `(seq, payload)` record, in append order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Torn-tail bytes truncated away during open (0 for a clean log).
    pub dropped_bytes: u64,
}

/// A recovered, append-ready op-log over some [`Storage`].
///
/// `open` scans to the last intact frame, heals a torn tail, and hands
/// back everything needed for replay; `append` is the fsynced
/// acknowledgement point; `install_base` is the compaction commit.
pub struct DurableLog {
    storage: Box<dyn Storage>,
    log_bytes: u64,
    frames: u64,
}

impl DurableLog {
    /// Open the log: read the base, scan the op-log to the last intact
    /// frame, truncate any torn tail, and resume in append mode.
    /// Mid-stream damage is [`SnapshotError::LogCorrupted`].
    pub fn open(mut storage: Box<dyn Storage>) -> Result<(Self, LogOpen), SnapshotError> {
        let base = storage.read_base()?;
        let raw = storage.read_log()?;
        let scan = scan_log(&raw)?;
        if scan.dropped_bytes > 0 {
            storage.truncate_log(scan.valid_len)?;
            storage.sync_log()?;
        }
        let records: Vec<(u64, Vec<u8>)> =
            scan.frames.iter().map(|f| (f.seq, raw[f.payload.clone()].to_vec())).collect();
        let log = Self { storage, log_bytes: scan.valid_len, frames: scan.frames.len() as u64 };
        Ok((log, LogOpen { base, records, dropped_bytes: scan.dropped_bytes }))
    }

    /// Append one framed record and fsync. When this returns `Ok` the
    /// record is durable — this is the only acknowledgement barrier.
    ///
    /// A payload too long for the frame's 4-byte length field is
    /// [`io::ErrorKind::InvalidInput`], refused before any byte is written:
    /// a truncated length would make the log unreadable past this frame.
    ///
    /// On failure the tail is rolled back to the last frame boundary
    /// (best effort) so a *retry* of the append starts clean instead of
    /// leaving a torn prefix mid-stream — a torn tail is only legal as
    /// the final bytes of the log. If even the rollback fails, the retry
    /// will fail too, and reopening heals the tail the normal way.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        check_payload_len(payload.len() as u64)?;
        let frame = encode_frame(seq, payload);
        let appended = self.storage.append_log(&frame).and_then(|()| self.storage.sync_log());
        if let Err(e) = appended {
            let _ = self.storage.truncate_log(self.log_bytes);
            return Err(e);
        }
        self.log_bytes += frame.len() as u64;
        self.frames += 1;
        Ok(())
    }

    /// Compaction commit: atomically install `base` (which covers every
    /// publish up to and including `covered_seq`), then rewrite the log
    /// keeping only frames with `seq > covered_seq`. Returns the bytes
    /// reclaimed. A crash at any point leaves either the old base with
    /// the full log, or the new base with a log whose stale head frames
    /// recovery skips by their `seq` tag.
    pub fn install_base(&mut self, base: &[u8], covered_seq: u64) -> io::Result<u64> {
        self.storage.replace_base(base)?;
        let raw = self.storage.read_log()?;
        let scan = scan_log(&raw)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut kept = Vec::new();
        let mut kept_frames = 0u64;
        for f in &scan.frames {
            if f.seq > covered_seq {
                kept.extend_from_slice(&raw[f.start..f.payload.end]);
                kept_frames += 1;
            }
        }
        let reclaimed = raw.len() as u64 - kept.len() as u64;
        self.storage.replace_log(&kept)?;
        self.log_bytes = kept.len() as u64;
        self.frames = kept_frames;
        Ok(reclaimed)
    }

    /// Current byte length of the (intact) log.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Number of frames currently in the log.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

/// Whether a payload of `len` bytes fits a frame's 4-byte length field.
fn check_payload_len(len: u64) -> io::Result<()> {
    if u32::try_from(len).is_err() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a {len}-byte delta record does not fit a frame's 4-byte length field"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain in-memory storage for codec tests (the fault-injectable
    /// sibling lives in [`crate::fault`]).
    #[derive(Default)]
    struct VecStorage {
        base: Option<Vec<u8>>,
        log: Vec<u8>,
    }

    impl Storage for VecStorage {
        fn read_base(&mut self) -> io::Result<Option<Vec<u8>>> {
            Ok(self.base.clone())
        }
        fn replace_base(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.base = Some(bytes.to_vec());
            Ok(())
        }
        fn read_log(&mut self) -> io::Result<Vec<u8>> {
            Ok(self.log.clone())
        }
        fn append_log(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.log.extend_from_slice(bytes);
            Ok(())
        }
        fn sync_log(&mut self) -> io::Result<()> {
            Ok(())
        }
        fn truncate_log(&mut self, len: u64) -> io::Result<()> {
            self.log.truncate(len as usize);
            Ok(())
        }
        fn replace_log(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.log = bytes.to_vec();
            Ok(())
        }
    }

    fn sample_log() -> Vec<u8> {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(1, b"first record"));
        log.extend_from_slice(&encode_frame(2, b""));
        log.extend_from_slice(&encode_frame(3, &[0xAB; 300]));
        log
    }

    #[test]
    fn scan_roundtrips_clean_log() {
        let log = sample_log();
        let scan = scan_log(&log).expect("clean log scans");
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.valid_len, log.len() as u64);
        assert_eq!(scan.frames[0].seq, 1);
        assert_eq!(&log[scan.frames[0].payload.clone()], b"first record");
        assert_eq!(scan.frames[1].payload.len(), 0);
        assert_eq!(scan.frames[2].seq, 3);
    }

    #[test]
    fn every_truncation_is_torn_tail_or_shorter_prefix() {
        let log = sample_log();
        let full = scan_log(&log).unwrap();
        for cut in 0..log.len() {
            let scan = scan_log(&log[..cut]).unwrap_or_else(|e| {
                panic!("cut at {cut} must classify as torn, got hard error {e}")
            });
            // The intact prefix must be a frame boundary ≤ the cut, and
            // everything dropped is the partial last frame.
            assert_eq!(scan.valid_len + scan.dropped_bytes, cut as u64);
            assert!(scan.frames.len() <= full.frames.len());
            for (got, want) in scan.frames.iter().zip(full.frames.iter()) {
                assert_eq!(got.seq, want.seq);
                assert_eq!(got.payload, want.payload);
            }
        }
    }

    #[test]
    fn mid_stream_damage_is_hard_corruption() {
        let log = sample_log();
        // Flip one byte in every position of the first two frames: all of
        // them must be LogCorrupted (the tail frame keeps the stream valid
        // length, so damage never looks torn).
        let second_frame_end = scan_log(&log).unwrap().frames[1].payload.end;
        for pos in 0..second_frame_end {
            let mut bad = log.clone();
            bad[pos] ^= 0x40;
            match scan_log(&bad) {
                Err(SnapshotError::LogCorrupted { .. }) => {}
                other => panic!("flip at {pos}: expected LogCorrupted, got {other:?}"),
            }
        }
    }

    #[test]
    fn damage_in_final_frame_is_detected() {
        let log = sample_log();
        let last = scan_log(&log).unwrap().frames[2].clone();
        // Payload byte flip in the final, complete frame: corruption.
        let mut bad = log.clone();
        bad[last.payload.start + 5] ^= 0x01;
        assert!(matches!(scan_log(&bad), Err(SnapshotError::LogCorrupted { .. })));
        // But chop the same frame mid-payload and it is a torn tail.
        let scan = scan_log(&log[..last.payload.start + 5]).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert!(scan.dropped_bytes > 0);
    }

    #[test]
    fn garbage_tail_smaller_than_header_is_still_corruption() {
        let mut log = sample_log();
        log.extend_from_slice(b"zz"); // not a magic prefix
        assert!(matches!(scan_log(&log), Err(SnapshotError::LogCorrupted { .. })));
    }

    #[test]
    fn open_heals_torn_tail_and_resumes_appending() {
        let mut vs = VecStorage { base: Some(b"BASEBYTES".to_vec()), log: sample_log() };
        let partial = encode_frame(4, b"never acked");
        vs.log.extend_from_slice(&partial[..partial.len() - 3]);

        let (mut log, open) = DurableLog::open(Box::new(vs)).expect("opens");
        assert_eq!(open.base.as_deref(), Some(&b"BASEBYTES"[..]));
        assert_eq!(open.records.len(), 3);
        assert_eq!(open.dropped_bytes, (partial.len() - 3) as u64);
        assert_eq!(log.frames(), 3);

        log.append(4, b"retry").expect("append resumes");
        assert_eq!(log.frames(), 4);
    }

    #[test]
    fn payload_length_is_bounded_by_the_frame_field() {
        assert!(check_payload_len(0).is_ok());
        assert!(check_payload_len(u32::MAX.into()).is_ok());
        // One byte past the field's range, checked without allocating it.
        let err = check_payload_len(u64::from(u32::MAX) + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("4294967296-byte"), "{err}");
    }

    #[test]
    fn install_base_drops_covered_frames() {
        let vs = VecStorage { log: sample_log(), ..VecStorage::default() };
        let (mut log, _) = DurableLog::open(Box::new(vs)).unwrap();
        log.append(4, b"tail").unwrap();
        let reclaimed = log.install_base(b"NEWBASE", 3).expect("install");
        assert!(reclaimed > 0);
        assert_eq!(log.frames(), 1);
        // Reopen sees the new base and only the surviving frame.
        // (VecStorage is consumed, so rebuild the state by hand.)
        let vs = VecStorage { base: Some(b"NEWBASE".to_vec()), log: encode_frame(4, b"tail") };
        let (_, open) = DurableLog::open(Box::new(vs)).unwrap();
        assert_eq!(open.records, vec![(4, b"tail".to_vec())]);
    }

    #[test]
    fn disk_storage_round_trips_with_torn_tail() {
        let dir = std::env::temp_dir().join(format!("wfprov-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut disk = DiskStorage::open(&dir).unwrap();
            disk.replace_base(b"BASE").unwrap();
            let (mut log, open) = DurableLog::open(Box::new(disk)).unwrap();
            assert_eq!(open.base.as_deref(), Some(&b"BASE"[..]));
            assert!(open.records.is_empty());
            log.append(1, b"one").unwrap();
            log.append(2, b"two").unwrap();
        }
        // Tear the tail on disk: drop the last 2 bytes of the log file.
        let log_path = dir.join(LOG_FILE);
        let len = std::fs::metadata(&log_path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&log_path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        {
            let disk = DiskStorage::open(&dir).unwrap();
            let (mut log, open) = DurableLog::open(Box::new(disk)).unwrap();
            assert_eq!(open.records, vec![(1, b"one".to_vec())]);
            assert_eq!(open.dropped_bytes, (encode_frame(2, b"two").len() - 2) as u64);
            log.append(2, b"two again").unwrap();
            log.install_base(b"BASE2", 1).unwrap();
        }
        {
            let disk = DiskStorage::open(&dir).unwrap();
            let (_, open) = DurableLog::open(Box::new(disk)).unwrap();
            assert_eq!(open.base.as_deref(), Some(&b"BASE2"[..]));
            assert_eq!(open.records, vec![(2, b"two again".to_vec())]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
