//! Integration of fault injection with crash-safe file I/O.
//!
//! Failpoint state is process-global, so every scenario runs sequentially
//! inside one `#[test]` — this binary owns the whole table.

use largeea_common::retry::{retry_io, RetryPolicy};
use largeea_common::{failpoint, fsio};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_fpio_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn injected_failures_follow_the_crash_contract() {
    // --- err: clean injected error, nothing written ----------------------
    failpoint::configure("io.err=err").unwrap();
    let p = tmp("err.ckpt");
    let e = fsio::write_framed_atomic(&p, b"payload", "io.err").unwrap_err();
    assert!(e.to_string().contains("io.err"), "{e}");
    assert!(e.to_string().contains("err.ckpt"), "{e}");
    assert!(!p.exists(), "err mode must not touch the filesystem");

    // --- panic: hard crash before the write ------------------------------
    failpoint::configure("io.panic=panic").unwrap();
    let p = tmp("panic.ckpt");
    let r = catch_unwind(AssertUnwindSafe(|| {
        fsio::write_framed_atomic(&p, b"payload", "io.panic")
    }));
    assert!(r.is_err(), "panic mode must unwind");
    assert!(!p.exists(), "panic mode dies before any bytes hit disk");

    // --- partial: torn write at the final path, then death ---------------
    failpoint::configure("io.partial=partial").unwrap();
    let p = tmp("partial.ckpt");
    let r = catch_unwind(AssertUnwindSafe(|| {
        fsio::write_framed_atomic(&p, b"a payload long enough to tear", "io.partial")
    }));
    assert!(r.is_err(), "partial mode must unwind after the torn write");
    assert!(p.exists(), "partial mode leaves the torn file behind");
    let err = fsio::read_framed(&p).unwrap_err();
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::InvalidData,
        "a torn frame is detected, not silently loaded: {err}"
    );

    // --- ordinal: only the Nth write dies, earlier ones land -------------
    failpoint::configure("io.nth=err@2").unwrap();
    let p = tmp("nth.ckpt");
    fsio::write_framed_atomic(&p, b"first", "io.nth").unwrap();
    assert_eq!(fsio::read_framed(&p).unwrap(), b"first");
    assert!(fsio::write_framed_atomic(&p, b"second", "io.nth").is_err());
    assert_eq!(
        fsio::read_framed(&p).unwrap(),
        b"first",
        "failed second write must not clobber the durable first one"
    );
    // disarmed after firing: the third write succeeds
    fsio::write_framed_atomic(&p, b"third", "io.nth").unwrap();
    assert_eq!(fsio::read_framed(&p).unwrap(), b"third");

    // --- unframed write_atomic: the atomic-rename invariant --------------
    // This is the live-snapshot writer's contract: whatever the failure
    // mode, the *final* path keeps its previous valid content.
    let p = tmp("live.trace.json");
    fsio::write_atomic(&p, b"{\"version\":2,\"good\":true}", "live.none").unwrap();

    failpoint::configure("live.write=err").unwrap();
    assert!(fsio::write_atomic(&p, b"replacement", "live.write").is_err());
    assert_eq!(
        std::fs::read(&p).unwrap(),
        b"{\"version\":2,\"good\":true}",
        "injected error leaves the previous snapshot intact"
    );

    failpoint::configure("live.write=panic").unwrap();
    let r = catch_unwind(AssertUnwindSafe(|| {
        fsio::write_atomic(&p, b"replacement", "live.write")
    }));
    assert!(r.is_err());
    assert_eq!(
        std::fs::read(&p).unwrap(),
        b"{\"version\":2,\"good\":true}",
        "panic before the write leaves the previous snapshot intact"
    );

    // partial tears the TEMP file, never the final path — a crash
    // mid-write under the atomic-replace discipline.
    failpoint::configure("live.write=partial").unwrap();
    let r = catch_unwind(AssertUnwindSafe(|| {
        fsio::write_atomic(&p, b"a replacement long enough to tear", "live.write")
    }));
    assert!(r.is_err());
    assert_eq!(
        std::fs::read(&p).unwrap(),
        b"{\"version\":2,\"good\":true}",
        "torn temp write must never reach the final path"
    );
    let mut tmp_name = p.file_name().unwrap().to_os_string();
    tmp_name.push(".tmp");
    let torn = std::fs::read(p.with_file_name(tmp_name)).unwrap();
    assert_eq!(
        torn, b"a replacement lo",
        "half the payload hit the temp file"
    );

    // --- transient: retryable error, succeeds after n hits ---------------
    failpoint::configure("io.flaky=transient@2").unwrap();
    let p = tmp("flaky.ckpt");
    // Unretried, a transient failure surfaces as an Interrupted error…
    let e = fsio::write_framed_atomic(&p, b"payload", "io.flaky").unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
    assert!(e.to_string().contains("transient"), "{e}");
    assert!(!p.exists(), "transient mode must not touch the filesystem");
    // …and the next hit (hit 2 of 2) still fails, then the write lands.
    let (out, stats) = retry_io(&RetryPolicy::default(), "io.flaky", |_| {
        fsio::write_framed_atomic(&p, b"payload", "io.flaky")
    });
    out.unwrap();
    assert_eq!(stats.retries, 1, "one failed attempt inside the retry loop");
    assert!(stats.backoff_ticks > 0 && !stats.gave_up);
    assert_eq!(fsio::read_framed(&p).unwrap(), b"payload");

    // --- transient beyond the retry budget: typed give-up ----------------
    failpoint::configure("io.hopeless=transient@99").unwrap();
    let p = tmp("hopeless.ckpt");
    let (out, stats) = retry_io(&RetryPolicy::default(), "io.hopeless", |_| {
        fsio::write_framed_atomic(&p, b"payload", "io.hopeless")
    });
    assert_eq!(out.unwrap_err().kind(), std::io::ErrorKind::Interrupted);
    assert!(stats.gave_up);
    assert_eq!(stats.retries, 3, "default policy: 4 attempts total");
    assert!(!p.exists());

    // --- err under retry: fatal, exactly one attempt ---------------------
    failpoint::configure("io.fatal=err").unwrap();
    let p = tmp("fatal.ckpt");
    let (out, stats) = retry_io(&RetryPolicy::default(), "io.fatal", |_| {
        fsio::write_framed(&p, b"payload", "io.fatal")
    });
    assert!(out.is_err());
    assert_eq!(stats.retries, 0, "err is Fatal: never retried");
    assert!(!stats.gave_up);
    // failpoint disarmed after firing ⇒ the site was hit exactly once.
    fsio::write_framed(&p, b"payload", "io.fatal").unwrap();

    failpoint::clear();
    assert!(!failpoint::armed());
    std::fs::remove_dir_all(tmp("x").parent().unwrap()).ok();
}

/// ENOSPC-style short writes and partial reads: however few bytes actually
/// land, the reader reports `InvalidData` naming the offending path and the
/// byte offset where the frame ends. (These scenarios arm no failpoints,
/// so they can run in parallel with the injection matrix above.)
#[test]
fn short_writes_are_detected_with_path_and_offset() {
    const HEADER_LEN: usize = 18; // magic(6) + len(8) + crc(4)
    let p = tmp("short.ckpt");
    fsio::write_framed_atomic(&p, b"0123456789abcdef", "short.none").unwrap();
    let full = std::fs::read(&p).unwrap();
    assert_eq!(full.len(), HEADER_LEN + 16);

    // A short write that ran out of space inside the header.
    for cut in [0, 1, 5, 6, 13, HEADER_LEN - 1] {
        std::fs::write(&p, &full[..cut]).unwrap();
        let e = fsio::read_framed(&p).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "cut={cut}");
        let msg = e.to_string();
        assert!(msg.contains("short.ckpt"), "cut={cut}: {msg}");
        assert!(
            msg.contains(&format!("byte offset {cut}")) && msg.contains("truncated"),
            "cut={cut}: {msg}"
        );
    }

    // A short write that ran out of space mid-payload: the header's declared
    // length convicts it, again naming path and end offset.
    for cut in [HEADER_LEN, HEADER_LEN + 1, HEADER_LEN + 15] {
        std::fs::write(&p, &full[..cut]).unwrap();
        let e = fsio::read_framed(&p).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "cut={cut}");
        let msg = e.to_string();
        assert!(msg.contains("short.ckpt"), "cut={cut}: {msg}");
        assert!(msg.contains("truncated frame"), "cut={cut}: {msg}");
        assert!(
            msg.contains("declares 16") && msg.contains(&format!("byte offset {cut}")),
            "cut={cut}: {msg}"
        );
    }
    std::fs::remove_file(&p).ok();
}

/// A partial *read* — the file grew a valid prefix but a reader raced the
/// writer of a non-atomic (spill-class) frame — is indistinguishable from a
/// short write and must fail the same way, while a complete frame followed
/// by trailing garbage is also rejected (length mismatch, never a silent
/// prefix-parse).
#[test]
fn partial_reads_and_trailing_garbage_are_rejected() {
    let p = tmp("partial_read.spill");
    fsio::write_framed(&p, b"spilled block", "pr.none").unwrap();
    let full = std::fs::read(&p).unwrap();

    // Reader observes only half the frame.
    std::fs::write(&p, &full[..full.len() / 2]).unwrap();
    let e = fsio::read_framed(&p).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    assert!(e.to_string().contains("partial_read.spill"), "{e}");

    // Reader observes the frame plus appended garbage.
    let mut grown = full.clone();
    grown.extend_from_slice(b"tail");
    std::fs::write(&p, &grown).unwrap();
    let e = fsio::read_framed(&p).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    assert!(e.to_string().contains("declares 13"), "{e}");

    // Restored full frame reads clean again.
    std::fs::write(&p, &full).unwrap();
    assert_eq!(fsio::read_framed(&p).unwrap(), b"spilled block");
    std::fs::remove_file(&p).ok();
}
