//! Working storage for pipeline intermediates — one store, two backings
//! (DESIGN.md §S0.8, docs/ARTIFACT_FORMAT.md).
//!
//! Pipeline stages write intermediate blocks *through* a [`SpillStore`]
//! instead of accumulating them: per-segment name-channel embeddings and
//! per-batch similarity blocks. Fusion and top-k later stream the blocks
//! back in. The backing decides where a block waits in between:
//!
//! - [`SpillStore::in_memory`] keeps the values themselves in a map — no
//!   frame, no CRC, no failpoint, no trace traffic. `put_*`,
//!   [`SpillStore::take_sim`] and [`SpillStore::remove`] report the bytes
//!   the store keeps resident, for the caller to charge to its
//!   [`crate::mem::MemTracker`].
//! - [`SpillStore::create`] keeps a directory of CRC-framed artifacts (the
//!   spill side of `--mem-budget`), so the tracked working set stays under
//!   the budget; it keeps nothing resident and reports 0.
//!
//! Spill artifacts are the [`Payload`] encodings of checkpoint artifacts
//! (`LEAM1` dense matrices, `LEAS1` sparse similarities) inside the same
//! `LEAF1` frame, but differ in **durability class**: they are
//! written with [`fsio::write_framed`] (plain write — no temp file, no
//! fsync, no rename) because they never outlive the run. A crash mid-spill
//! loses nothing: resume recomputes from the last durable *checkpoint*
//! stage, and the frame CRC guarantees a torn spill file can never be
//! silently loaded. Files are named `<key>.spill` and deleted as soon as
//! their stage has streamed them back (or at [`Drop`], best-effort).
//!
//! Every disk write/read lands in the trace as `mem.spill.*` counters plus
//! a `mem.spill.peak_disk_bytes` gauge, so a bounded run's disk traffic is
//! as observable as its RAM peaks.

use crate::checkpoint::Payload;
use crate::supervisor::{self, FailpointSite};
use largeea_common::fsio;
use largeea_common::obs::{Level, Recorder};
use largeea_sim::SparseSimMatrix;
use largeea_tensor::Matrix;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// The failpoint every spill write shares (they are all the same
/// durability class), exercised by the crash-mid-spill test in
/// `tests/spill_equivalence.rs`.
pub(crate) const WRITE_FAILPOINT: FailpointSite = FailpointSite {
    name: "spill.write",
    site: "out-of-core working-storage write (core::spill::SpillStore)",
};

/// Working storage for a run's intermediate blocks: the values themselves
/// in memory, or a directory of transient, CRC-framed spill artifacts (see
/// the module docs for the durability contract).
#[derive(Debug)]
pub struct SpillStore {
    /// The spill directory. `None` is the memory backing, which keeps its
    /// values in `dense` / `sims` and never touches the fields below them.
    dir: Option<PathBuf>,
    dense: BTreeMap<String, Matrix>,
    sims: BTreeMap<String, SparseSimMatrix>,
    /// Live artifacts: key → framed bytes on disk.
    live: BTreeMap<String, u64>,
    disk_bytes: u64,
    peak_disk_bytes: u64,
}

fn absent(key: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("nothing held as {key:?}"))
}

impl SpillStore {
    fn new(dir: Option<PathBuf>) -> Self {
        Self {
            dir,
            dense: BTreeMap::new(),
            sims: BTreeMap::new(),
            live: BTreeMap::new(),
            disk_bytes: 0,
            peak_disk_bytes: 0,
        }
    }

    /// A store that keeps the values themselves: nothing touches disk, the
    /// trace, or a failpoint.
    pub fn in_memory() -> Self {
        Self::new(None)
    }

    /// Creates (or reuses) `dir` as a spill directory. Pre-existing
    /// `.spill` files from a crashed run are simply overwritten — spill
    /// artifacts carry no cross-run state.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?;
        Ok(Self::new(Some(dir.to_path_buf())))
    }

    /// Number of artifacts currently live.
    pub fn artifact_count(&self) -> usize {
        self.dense.len() + self.sims.len() + self.live.len()
    }

    /// Framed bytes currently on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_bytes
    }

    /// Peak framed bytes ever on disk at once.
    pub fn peak_disk_bytes(&self) -> u64 {
        self.peak_disk_bytes
    }

    /// Where `key`'s artifact is written; `None` on the memory backing.
    fn path_of(&self, key: &str) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(format!("{key}.spill")))
    }

    /// Writes `value`'s [`Payload`] encoding as `key`'s artifact, under
    /// site-level retry. Keeps nothing resident.
    fn put<T: Payload>(
        &mut self,
        path: &Path,
        key: &str,
        value: &T,
        rec: &Recorder,
    ) -> io::Result<usize> {
        let payload = value.encode()?;
        let mut span = rec.span_at(Level::Detail, "spill_write");
        span.field("key", key);
        span.field("bytes", payload.len());
        let fp = WRITE_FAILPOINT.name;
        let framed = supervisor::retried(fp, rec, |_| fsio::write_framed(path, &payload, fp))?;
        rec.add("mem.spill.writes", 1);
        rec.add("mem.spill.write_bytes", framed);
        let old = self.live.insert(key.to_owned(), framed).unwrap_or(0);
        self.disk_bytes = self.disk_bytes - old + framed;
        self.peak_disk_bytes = self.peak_disk_bytes.max(self.disk_bytes);
        rec.gauge_max("mem.spill.peak_disk_bytes", self.peak_disk_bytes as f64);
        Ok(0)
    }

    fn get<T: Payload>(&self, path: &Path, key: &str, rec: &Recorder) -> io::Result<T> {
        let mut span = rec.span_at(Level::Detail, "spill_read");
        span.field("key", key);
        let payload = supervisor::retried("spill.read", rec, |_| fsio::read_framed(path))?;
        rec.add("mem.spill.reads", 1);
        rec.add("mem.spill.read_bytes", payload.len() as u64);
        T::decode(&payload)
    }

    /// Stores a dense matrix under `key`, replacing any previous artifact
    /// with that key: a copy in memory, a `LEAM1` payload in a `LEAF1`
    /// frame on disk. Returns the bytes the store now keeps resident for
    /// `key` (0 on disk), for the caller to charge.
    pub fn put_matrix(&mut self, key: &str, m: &Matrix, rec: &Recorder) -> io::Result<usize> {
        let Some(path) = self.path_of(key) else {
            self.dense.insert(key.to_owned(), m.clone());
            return Ok(m.nbytes());
        };
        self.put(&path, key, m, rec)
    }

    /// Streams a stored dense matrix back in; the artifact stays.
    pub fn get_matrix(&self, key: &str, rec: &Recorder) -> io::Result<Matrix> {
        let Some(path) = self.path_of(key) else {
            return self.dense.get(key).cloned().ok_or_else(|| absent(key));
        };
        self.get(&path, key, rec)
    }

    /// Stores a sparse similarity matrix under `key`, replacing any
    /// previous artifact with that key: the value itself in memory, a
    /// `LEAS1` payload in a `LEAF1` frame on disk. Returns the bytes the
    /// store now keeps resident for `key` (0 on disk).
    pub fn put_sim(&mut self, key: &str, m: SparseSimMatrix, rec: &Recorder) -> io::Result<usize> {
        let Some(path) = self.path_of(key) else {
            let bytes = m.nbytes();
            self.sims.insert(key.to_owned(), m);
            return Ok(bytes);
        };
        self.put(&path, key, &m, rec)
    }

    /// Hands `key`'s similarity matrix over and forgets the artifact: the
    /// held value itself from memory, a read-back then a delete on disk
    /// (where an unreadable artifact stays). Returns the matrix and the
    /// resident bytes the store gave up (0 on disk).
    pub fn take_sim(&mut self, key: &str, rec: &Recorder) -> io::Result<(SparseSimMatrix, usize)> {
        let Some(path) = self.path_of(key) else {
            let m = self.sims.remove(key).ok_or_else(|| absent(key))?;
            let bytes = m.nbytes();
            return Ok((m, bytes));
        };
        let m = self.get(&path, key, rec)?;
        self.remove(key);
        Ok((m, 0))
    }

    /// Deletes `key`'s artifact once its stage has streamed it back and
    /// returns the resident bytes that frees (0 on disk). Best-effort on
    /// disk: a leftover file only wastes space until [`Drop`].
    pub fn remove(&mut self, key: &str) -> usize {
        if let (Some(path), Some(framed)) = (self.path_of(key), self.live.remove(key)) {
            self.disk_bytes -= framed;
            std::fs::remove_file(path).ok();
        }
        let dense = self.dense.remove(key).map_or(0, |m| m.nbytes());
        dense + self.sims.remove(key).map_or(0, |m| m.nbytes())
    }
}

impl Drop for SpillStore {
    /// Best-effort cleanup: spill artifacts are transient by contract, so
    /// remove every live file and then the directory (which only succeeds
    /// if nothing else put files there).
    fn drop(&mut self) {
        let Some(dir) = &self.dir else { return };
        for key in self.live.keys() {
            std::fs::remove_file(dir.join(format!("{key}.spill"))).ok();
        }
        std::fs::remove_dir(dir).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::obs::{ObsConfig, Recorder};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("largeea_spill_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn rec() -> Recorder {
        Recorder::new(ObsConfig::default())
    }

    /// The store contract, once: one script, both backings.
    #[test]
    fn both_backings_answer_the_same_script() {
        let dir = tmpdir("contract");
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5);
        let mut sim = SparseSimMatrix::new(3, 3);
        sim.insert(0, 1, 0.7);
        sim.insert(2, 0, 0.2);
        let disk = SpillStore::create(&dir).unwrap();
        for (mut s, on_disk) in [(SpillStore::in_memory(), false), (disk, true)] {
            let rec = rec();
            let resident = |bytes: usize| if on_disk { 0 } else { bytes };
            let (m_held, sim_held) = (resident(m.nbytes()), resident(sim.nbytes()));
            assert_eq!(s.put_matrix("sens.q0", &m, &rec).unwrap(), m_held);
            assert_eq!(s.put_sim("r0.b0.sim", sim.clone(), &rec).unwrap(), sim_held);
            assert_eq!(s.artifact_count(), 2);
            assert_eq!(s.get_matrix("sens.q0", &rec).unwrap(), m);
            assert_eq!(s.artifact_count(), 2, "a get leaves the artifact");
            let taken = s.take_sim("r0.b0.sim", &rec).unwrap();
            assert_eq!(taken, (sim.clone(), sim_held));
            assert_eq!(s.artifact_count(), 1, "a take forgets it");
            assert!(s.take_sim("r0.b0.sim", &rec).is_err());
            assert_eq!(s.remove("sens.q0"), m_held, "remove gives the bytes back");
            assert_eq!(s.remove("sens.q0"), 0, "once");
            assert_eq!(s.artifact_count(), 0);
            assert!(s.get_matrix("sens.q0", &rec).is_err());
            let t = rec.trace();
            if on_disk {
                assert_eq!(t.counter("mem.spill.writes"), 2);
                assert_eq!(t.counter("mem.spill.reads"), 2);
                assert!(t.counter("mem.spill.write_bytes") > 0);
                assert!(t.counter("mem.spill.read_bytes") > 0);
                assert!(s.peak_disk_bytes() > 0);
                assert_eq!(
                    t.gauge("mem.spill.peak_disk_bytes"),
                    Some(s.peak_disk_bytes() as f64)
                );
            } else {
                // nothing recorded: no `mem.spill.*`, no `spill_*` span
                assert!(t.spans.is_empty() && t.counters.is_empty() && t.gauges.is_empty());
                assert_eq!(s.peak_disk_bytes(), 0);
            }
        }
        assert!(!dir.exists(), "Drop removes artifacts and the directory");
    }

    #[test]
    fn remove_frees_disk_accounting_and_overwrite_replaces() {
        let dir = tmpdir("remove");
        let rec = rec();
        let mut s = SpillStore::create(&dir).unwrap();
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        s.put_matrix("a", &m, &rec).unwrap();
        let after_one = s.disk_bytes();
        assert!(after_one > 0);
        s.put_matrix("a", &m, &rec).unwrap(); // overwrite: same size, not doubled
        assert_eq!(s.disk_bytes(), after_one);
        s.put_matrix("b", &m, &rec).unwrap();
        assert_eq!(s.disk_bytes(), 2 * after_one);
        assert_eq!(s.peak_disk_bytes(), 2 * after_one);
        s.remove("a");
        assert_eq!(s.disk_bytes(), after_one);
        assert_eq!(s.artifact_count(), 1);
        assert!(s.get_matrix("a", &rec).is_err(), "removed artifact is gone");
        // peak is sticky
        assert_eq!(s.peak_disk_bytes(), 2 * after_one);
        drop(s);
        assert!(!dir.exists());
    }

    #[test]
    fn torn_spill_file_is_detected_not_loaded() {
        let dir = tmpdir("torn");
        let rec = rec();
        let mut s = SpillStore::create(&dir).unwrap();
        s.put_matrix("x", &Matrix::from_fn(3, 3, |r, c| (r * c) as f32), &rec)
            .unwrap();
        let p = dir.join("x.spill");
        let raw = std::fs::read(&p).unwrap();
        std::fs::write(&p, &raw[..raw.len() / 2]).unwrap();
        assert!(s.get_matrix("x", &rec).is_err());
    }

    #[test]
    fn create_reuses_directory_with_leftovers() {
        let dir = tmpdir("reuse");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stale.spill"), b"garbage from a crashed run").unwrap();
        let rec = rec();
        let mut s = SpillStore::create(&dir).unwrap();
        assert_eq!(s.artifact_count(), 0, "stale files are not adopted");
        // overwriting a stale key works
        let m = Matrix::from_fn(1, 1, |_, _| 1.0);
        s.put_matrix("stale", &m, &rec).unwrap();
        assert_eq!(s.get_matrix("stale", &rec).unwrap(), m);
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }
}
