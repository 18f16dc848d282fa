//! Crash-safe file I/O: atomic durable writes and checksummed framed reads
//! (DESIGN.md §S0.7).
//!
//! Checkpoint artifacts must survive the process dying at any instant, so
//! every write here follows the classic atomic-replace discipline:
//!
//! 1. write the full frame to a sibling temp file (`<name>.tmp`),
//! 2. `fsync` the temp file,
//! 3. `rename` it over the final path (atomic on POSIX filesystems),
//! 4. `fsync` the containing directory so the rename itself is durable.
//!
//! A crash therefore leaves either the old file or the new file — never a
//! half-written one. Because rename atomicity is a *filesystem* promise the
//! reader cannot verify, every frame is additionally checksummed: a torn or
//! bit-rotted file is **detected at read time**, not silently loaded into a
//! multi-hour run. The frame layout (little-endian):
//!
//! ```text
//! magic "LEAF1\0" | payload_len: u64 | crc32(payload): u32 | payload bytes
//! ```
//!
//! The CRC is the standard IEEE 802.3 polynomial (the zlib/PNG one),
//! implemented in-tree like everything else in this crate. All errors carry
//! the offending path in their message.
//!
//! Write sites name a [`crate::failpoint`] so the crash-consistency suite
//! can kill the process at exactly this boundary (or inject a torn write
//! that bypasses the temp/rename discipline — proving the checksum catches
//! what the filesystem contract normally prevents).

use crate::failpoint::{self, FpAction};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

/// Frame magic: LargeEA Framed v1.
const MAGIC: &[u8; 6] = b"LEAF1\0";
/// Frame header length: magic + payload length + CRC32.
const HEADER_LEN: usize = 6 + 8 + 4;

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC-32 (IEEE 802.3 / zlib polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Wraps an I/O error with the path it occurred on.
fn ctx(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// An `InvalidData` error carrying the path and a corruption reason.
fn corrupt(path: &Path, reason: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {reason}", path.display()),
    )
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Durably replaces the file at `path` with `bytes` (temp → fsync → rename
/// → directory fsync). The parent directory must exist.
fn atomic_replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut name = path
        .file_name()
        .ok_or_else(|| corrupt(path, "path has no file name"))?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = File::create(&tmp).map_err(|e| ctx(&tmp, e))?;
        f.write_all(bytes).map_err(|e| ctx(&tmp, e))?;
        f.sync_all().map_err(|e| ctx(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| ctx(path, e))?;
    // Make the rename durable: fsync the directory entry. Directories
    // cannot be opened for writing on some platforms; a failure here only
    // weakens durability (not atomicity), so it is best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Dispatches an armed [`crate::failpoint`] guarding a framed write: an
/// injected clean error, a panic before the write, or a torn write of half
/// the frame straight to the final path followed by a panic (simulating a
/// crash mid-write on a filesystem that does not honour the atomic-replace
/// contract).
fn fp_dispatch(path: &Path, buf: &[u8], fp: &str) -> io::Result<()> {
    match failpoint::hit(fp) {
        Some(FpAction::Err) => Err(io::Error::other(format!(
            "{}: injected failure at failpoint {fp:?}",
            path.display()
        ))),
        Some(FpAction::Panic) => {
            panic!("failpoint {fp:?} panic before writing {}", path.display());
        }
        Some(FpAction::Partial) => {
            let torn = &buf[..buf.len() / 2];
            let _ = fs::write(path, torn);
            panic!("failpoint {fp:?} torn write at {}", path.display());
        }
        Some(FpAction::Transient) => Err(transient_injected(path, fp)),
        None => Ok(()),
    }
}

/// The retryable error a `transient` failpoint injects: `Interrupted`, so
/// [`crate::retry::io_transience`] classifies it Transient and a bounded
/// retry loop exercises the failure-then-success path end-to-end.
fn transient_injected(path: &Path, fp: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Interrupted,
        format!(
            "{}: injected transient failure at failpoint {fp:?}",
            path.display()
        ),
    )
}

/// Atomically and durably writes `payload` to `path` as a checksummed
/// frame; returns the total bytes written. `fp` names the
/// [`crate::failpoint`] guarding this write — an armed failpoint can turn
/// the call into an injected error, a panic, or a torn write followed by a
/// panic (see the failpoint module docs).
pub fn write_framed_atomic(path: &Path, payload: &[u8], fp: &str) -> io::Result<u64> {
    let buf = frame(payload);
    fp_dispatch(path, &buf, fp)?;
    atomic_replace(path, &buf)?;
    Ok(buf.len() as u64)
}

/// Writes `payload` to `path` as a checksummed frame **without** the
/// atomic-replace discipline (single plain write: no temp file, no fsync,
/// no rename); returns the total bytes written.
///
/// This is the working-storage flavour for spill artifacts (DESIGN.md
/// §S0.8): spill files never need to survive a crash — a restarted run
/// recomputes or re-spills them — so paying two fsyncs per block would be
/// pure overhead. The frame CRC still catches torn or bit-rotted files at
/// read time, which is what turns a crashed spill into a clean recompute
/// instead of silent corruption. Same failpoint semantics as
/// [`write_framed_atomic`].
pub fn write_framed(path: &Path, payload: &[u8], fp: &str) -> io::Result<u64> {
    let buf = frame(payload);
    fp_dispatch(path, &buf, fp)?;
    fs::write(path, &buf).map_err(|e| ctx(path, e))?;
    Ok(buf.len() as u64)
}

/// Atomically and durably replaces `path` with the **raw** `payload` — no
/// LEAF1 frame, no checksum — via the same temp → fsync → rename → dir-fsync
/// discipline as [`write_framed_atomic`]; returns the bytes written.
///
/// This is the flavour for self-describing text artifacts that external
/// tools read directly (the live-telemetry `live.trace.json` snapshot: JSON
/// is its own integrity check via `Trace::parse`, and `trace tail` must be
/// able to read it with no frame decoder). The atomic replace is the load-
/// bearing property: a reader polling the path sees either the previous
/// snapshot or the new one in full, never a torn mix.
///
/// `fp` names the [`crate::failpoint`] guarding the write. Unlike the
/// framed writers, an armed `Partial` action here tears the **temp** file
/// (`<name>.tmp`) and panics *before* the rename — modelling a crash
/// mid-write under the atomic-replace contract, where the final path must
/// survive untouched. (The framed writers tear the final path instead, to
/// exercise the read-side CRC against filesystems that break the contract;
/// an unframed file has no CRC, so its crash model is the honest one.)
pub fn write_atomic(path: &Path, payload: &[u8], fp: &str) -> io::Result<u64> {
    match failpoint::hit(fp) {
        Some(FpAction::Err) => {
            return Err(io::Error::other(format!(
                "{}: injected failure at failpoint {fp:?}",
                path.display()
            )));
        }
        Some(FpAction::Panic) => {
            panic!("failpoint {fp:?} panic before writing {}", path.display());
        }
        Some(FpAction::Partial) => {
            let mut name = path
                .file_name()
                .ok_or_else(|| corrupt(path, "path has no file name"))?
                .to_os_string();
            name.push(".tmp");
            let tmp = path.with_file_name(name);
            let _ = fs::write(&tmp, &payload[..payload.len() / 2]);
            panic!(
                "failpoint {fp:?} torn temp write at {} (final path untouched)",
                tmp.display()
            );
        }
        Some(FpAction::Transient) => {
            return Err(transient_injected(path, fp));
        }
        None => {}
    }
    atomic_replace(path, payload)?;
    Ok(payload.len() as u64)
}

/// Reads a frame written by [`write_framed_atomic`] and returns its
/// payload. Truncation, a bad magic, a length mismatch, or a checksum
/// mismatch all yield `InvalidData` errors naming the path; a missing file
/// keeps its `NotFound` kind so callers can distinguish absent from torn.
pub fn read_framed(path: &Path) -> io::Result<Vec<u8>> {
    let mut f = File::open(path).map_err(|e| ctx(path, e))?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf).map_err(|e| ctx(path, e))?;
    if buf.len() < HEADER_LEN {
        return Err(corrupt(
            path,
            &format!(
                "truncated frame header: file ends at byte offset {} (need {HEADER_LEN})",
                buf.len()
            ),
        ));
    }
    if &buf[..6] != MAGIC {
        return Err(corrupt(path, "not a LEAF1 framed file"));
    }
    let len = u64::from_le_bytes(buf[6..14].try_into().expect("8 bytes")) as usize;
    let stored_crc = u32::from_le_bytes(buf[14..HEADER_LEN].try_into().expect("4 bytes"));
    let payload = &buf[HEADER_LEN..];
    if payload.len() != len {
        return Err(corrupt(
            path,
            &format!(
                "truncated frame: payload is {} bytes but the header at byte \
                 offset 6 declares {len} (file ends at byte offset {})",
                payload.len(),
                buf.len()
            ),
        ));
    }
    if crc32(payload) != stored_crc {
        return Err(corrupt(path, "checksum mismatch (torn or corrupted write)"));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("largeea_fsio_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard check value for "123456789" under CRC-32/IEEE
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_and_overwrite() {
        let p = tmp("roundtrip.ckpt");
        let n = write_framed_atomic(&p, b"hello", "test.none").unwrap();
        assert_eq!(n as usize, HEADER_LEN + 5);
        assert_eq!(read_framed(&p).unwrap(), b"hello");
        write_framed_atomic(&p, b"replaced", "test.none").unwrap();
        assert_eq!(read_framed(&p).unwrap(), b"replaced");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_payload_roundtrips() {
        let p = tmp("empty.ckpt");
        write_framed_atomic(&p, b"", "test.none").unwrap();
        assert_eq!(read_framed(&p).unwrap(), b"");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn flipped_byte_is_detected() {
        let p = tmp("bitrot.ckpt");
        write_framed_atomic(&p, b"precious bytes", "test.none").unwrap();
        let mut raw = fs::read(&p).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        fs::write(&p, &raw).unwrap();
        let err = read_framed(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(err.to_string().contains("bitrot.ckpt"), "{err}");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let p = tmp("torn.ckpt");
        write_framed_atomic(&p, b"0123456789abcdef", "test.none").unwrap();
        let raw = fs::read(&p).unwrap();
        fs::write(&p, &raw[..raw.len() - 7]).unwrap();
        assert!(read_framed(&p).is_err());
        // even harder truncation: inside the header
        fs::write(&p, &raw[..4]).unwrap();
        let err = read_framed(&p).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn mutated_frames_fail_typed_or_return_what_the_file_holds() {
        use crate::check::{for_each_case, mutate};
        let p = tmp("mutated.ckpt");
        for_each_case(0x1EAF, 300, |rng| {
            let payload: Vec<u8> = (0..rng.gen_range(0..200usize))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let mut raw = frame(&payload);
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(rng, &mut raw, &[], 64);
            }
            fs::write(&p, &raw).unwrap();
            // no panic, and the declared length is only ever compared with
            // what was read: a frame that decodes is the file minus its
            // header, checksum intact
            match read_framed(&p) {
                Ok(back) => {
                    assert_eq!(back, raw[HEADER_LEN..]);
                    assert_eq!(raw, frame(&back));
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
            }
        });
        fs::remove_file(&p).ok();
    }

    #[test]
    fn wrong_magic_rejected_and_missing_keeps_not_found() {
        let p = tmp("magic.ckpt");
        fs::write(&p, b"LEAM1\0this is some other format").unwrap();
        assert!(read_framed(&p).unwrap_err().to_string().contains("LEAF1"));
        fs::remove_file(&p).ok();
        let missing = tmp("does_not_exist.ckpt");
        let err = read_framed(&missing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("does_not_exist"), "{err}");
    }

    #[test]
    fn non_durable_write_framed_roundtrips_and_is_checksummed() {
        let p = tmp("spillish.spill");
        let n = write_framed(&p, b"working storage", "test.none").unwrap();
        assert_eq!(n as usize, HEADER_LEN + 15);
        assert_eq!(read_framed(&p).unwrap(), b"working storage");
        // both flavours produce the identical frame bytes
        let q = tmp("spillish_atomic.ckpt");
        write_framed_atomic(&q, b"working storage", "test.none").unwrap();
        assert_eq!(fs::read(&p).unwrap(), fs::read(&q).unwrap());
        // a torn non-durable file is still caught by the CRC
        let raw = fs::read(&p).unwrap();
        fs::write(&p, &raw[..raw.len() - 3]).unwrap();
        assert!(read_framed(&p).is_err());
        fs::remove_file(&p).ok();
        fs::remove_file(&q).ok();
    }

    #[test]
    fn unframed_write_atomic_roundtrips_and_overwrites() {
        let p = tmp("live.trace.json");
        let n = write_atomic(&p, b"{\"version\":2}", "test.none").unwrap();
        assert_eq!(n, 13);
        assert_eq!(fs::read(&p).unwrap(), b"{\"version\":2}");
        write_atomic(&p, b"{}", "test.none").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"{}");
        // no temp residue
        let mut name = p.file_name().unwrap().to_os_string();
        name.push(".tmp");
        assert!(!p.with_file_name(name).exists());
        fs::remove_file(&p).ok();
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let p = tmp("clean.ckpt");
        write_framed_atomic(&p, b"payload", "test.none").unwrap();
        let mut name = p.file_name().unwrap().to_os_string();
        name.push(".tmp");
        assert!(!p.with_file_name(name).exists());
        fs::remove_file(&p).ok();
    }
}
