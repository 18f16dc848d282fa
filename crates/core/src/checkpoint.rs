//! Crash-safe checkpoint/resume for long pipeline runs (DESIGN.md §S0.7).
//!
//! LargeEA's whole premise is that large-scale EA runs are *long* — the
//! mini-batch machinery exists because a monolithic run does not fit — so a
//! crash at batch K−1 of K must not throw away hours of training. This
//! module orchestrates the per-artifact formats that already exist
//! (`largeea-tensor`'s `LEAM1` matrices, `largeea-sim`'s `LEAS1` sparse
//! similarities) into a durable *run directory*:
//!
//! ```text
//! <dir>/MANIFEST.ckpt        framed JSON: version, config hash, seed,
//!                            rounds, completed-stage list
//! <dir>/<stage>.ckpt         one artifact per completed stage
//! <dir>/progress.ckpt        latest per-epoch training progress (informational)
//! ```
//!
//! Stage keys mirror the pipeline's natural boundaries: `name` (the name
//! channel's `M_n`), and per bootstrap round `r<R>.partition` (mini-batch
//! assignment), `r<R>.b<I>.emb` (per-mini-batch trained embeddings),
//! `r<R>.b<I>.sim` (per-batch similarity block), `r<R>.ms` (the round's
//! normalised `M_s`), and finally `fused` (the fused matrix `M`).
//!
//! Every artifact is written through [`fsio::write_framed_atomic`]
//! (temp → fsync → rename, CRC32-framed), and the stage is marked done in
//! the manifest only *after* its artifact is durable — so a crash at any
//! instant leaves either a complete stage or no stage, never a half one.
//!
//! ## Resume policy
//!
//! - manifest whose `config_hash`, `seed` or `rounds` differ from the
//!   current run → **refused** with [`CkptError::Mismatch`] (resuming under
//!   a different configuration would silently produce wrong results);
//! - missing manifest → fresh run;
//! - corrupt manifest (torn write, bad CRC, unparsable JSON) → warn and
//!   start fresh — a checkpoint may never make a run *less* reliable;
//! - corrupt artifact for a stage the manifest marks done → warn, unmark
//!   the stage, recompute it (detected by the frame CRC, counted in
//!   `ckpt.artifact_corrupt`).
//!
//! Because the pipeline is deterministic (seeded PRNG, bit-identical at any
//! pool width), a resumed run reproduces an uninterrupted one **bit for
//! bit** — the crash-consistency suite (`tests/crash_recovery.rs`) proves
//! this for every failpoint in [`FAILPOINTS`].

use largeea_common::fsio;
use largeea_common::json::{self, Json};
use largeea_common::obs::{Level, Recorder};
use largeea_common::retry::RetryPolicy;
use largeea_kg::EntityId;
use largeea_partition::{MiniBatch, MiniBatches};
use largeea_sim::SparseSimMatrix;
use largeea_tensor::Matrix;
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest format version.
const MANIFEST_VERSION: u64 = 1;
/// Manifest file name inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "MANIFEST.ckpt";
/// Progress file name inside a checkpoint directory.
pub const PROGRESS_FILE: &str = "progress.ckpt";

/// Every failpoint the checkpoint subsystem can die at, one per durable
/// write site. The crash-consistency suite iterates this list; adding a
/// write site without registering its failpoint here means it ships
/// untested, so the suite also asserts the list stays in sync.
pub const FAILPOINTS: &[&str] = &[
    "ckpt.manifest",
    "ckpt.name",
    "ckpt.partition",
    "ckpt.emb",
    "ckpt.sim",
    "ckpt.ms",
    "ckpt.fused",
    "ckpt.progress",
];

/// A typed checkpoint/resume failure.
#[derive(Debug)]
pub enum CkptError {
    /// Reading or writing checkpoint state failed.
    Io(io::Error),
    /// The manifest on disk belongs to a different run: resuming it under
    /// the current configuration would silently produce wrong results.
    Mismatch {
        /// Which manifest field disagreed (`config_hash`, `seed`, `rounds`).
        field: &'static str,
        /// The value the manifest recorded.
        manifest: u64,
        /// The value the current run would use.
        current: u64,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::Mismatch {
                field,
                manifest,
                current,
            } => write!(
                f,
                "refusing to resume: manifest {field} is {manifest} but the \
                 current run has {current} (delete the checkpoint directory \
                 or rerun with the original configuration)"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the config fingerprint under the manifest's
/// `config_hash`. Stable across platforms (pure wrapping arithmetic).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Identity of one run — what must match for a resume to be legal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// Fingerprint of the full pipeline configuration and seed split
    /// (see `LargeEaConfig::fingerprint`).
    pub config_hash: u64,
    /// The structure channel's RNG seed (recorded separately so a seed-only
    /// change is refused with a seed-specific message).
    pub seed: u64,
    /// Bootstrap rounds the run was started with.
    pub rounds: u64,
}

/// A live checkpoint directory: the manifest's completed-stage set plus the
/// artifact read/write machinery.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    meta: RunMeta,
    stages: BTreeSet<String>,
    /// Units quarantined under `--degraded-ok` (DESIGN.md §S0.12) —
    /// persisted in the manifest so a degraded run's losses survive into
    /// any resume or post-hoc inspection.
    quarantined: BTreeSet<String>,
    /// Write training progress every this many epochs (informational).
    pub epoch_interval: usize,
    /// Backoff schedule for transient faults on durable writes
    /// (DESIGN.md §S0.12). Every manifest/artifact write runs under this
    /// policy; non-trivial outcomes fold `retry.*` counters into the trace.
    pub retry: RetryPolicy,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint directory `dir` for the run
    /// identified by `meta`.
    ///
    /// With `resume = false` any previous manifest is discarded and a fresh
    /// one written. With `resume = true` an existing manifest is adopted
    /// after validating `meta` against it (see the module-level resume
    /// policy); a missing or corrupt manifest degrades to a fresh run.
    pub fn open(
        dir: &Path,
        meta: RunMeta,
        resume: bool,
        rec: &Recorder,
    ) -> Result<Self, CkptError> {
        std::fs::create_dir_all(dir).map_err(|e| {
            CkptError::Io(io::Error::new(e.kind(), format!("{}: {e}", dir.display())))
        })?;
        let mut ckpt = Self {
            dir: dir.to_path_buf(),
            meta,
            stages: BTreeSet::new(),
            quarantined: BTreeSet::new(),
            epoch_interval: 10,
            retry: RetryPolicy::default(),
        };
        if resume {
            match fsio::read_framed(&ckpt.manifest_path()) {
                Ok(payload) => match Self::parse_manifest(&payload, meta) {
                    Ok((stages, quarantined)) => {
                        ckpt.stages = stages;
                        ckpt.quarantined = quarantined;
                        return Ok(ckpt); // manifest adopted verbatim
                    }
                    Err(ManifestIssue::Mismatch(e)) => return Err(e),
                    Err(ManifestIssue::Corrupt(why)) => {
                        eprintln!(
                            "[ckpt] warning: ignoring corrupt manifest in {}: {why}",
                            dir.display()
                        );
                        rec.add("ckpt.manifest_corrupt", 1);
                    }
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    eprintln!("[ckpt] warning: ignoring unreadable manifest: {e}");
                    rec.add("ckpt.manifest_corrupt", 1);
                }
            }
        }
        ckpt.write_manifest(rec)?;
        Ok(ckpt)
    }

    /// The run identity this checkpoint was opened with.
    pub fn meta(&self) -> RunMeta {
        self.meta
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Completed stage keys, in sorted order.
    pub fn stages(&self) -> impl Iterator<Item = &str> {
        self.stages.iter().map(String::as_str)
    }

    /// Whether `key`'s artifact was durably completed.
    pub fn is_done(&self, key: &str) -> bool {
        self.stages.contains(key)
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    fn artifact_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.ckpt"))
    }

    /// The failpoint guarding the write of `key`'s artifact.
    fn fp_for(key: &str) -> &'static str {
        if key == "name" {
            "ckpt.name"
        } else if key == "fused" {
            "ckpt.fused"
        } else if key.ends_with(".partition") {
            "ckpt.partition"
        } else if key.ends_with(".emb") {
            "ckpt.emb"
        } else if key.ends_with(".sim") {
            "ckpt.sim"
        } else if key.ends_with(".ms") {
            "ckpt.ms"
        } else {
            "ckpt.write"
        }
    }

    fn manifest_json(&self) -> Json {
        // `quarantined` is additive within version 1: readers that predate
        // it ignore unknown fields, and a missing array parses as empty.
        Json::obj([
            ("version", Json::UInt(MANIFEST_VERSION)),
            ("config_hash", Json::UInt(self.meta.config_hash)),
            ("seed", Json::UInt(self.meta.seed)),
            ("rounds", Json::UInt(self.meta.rounds)),
            (
                "stages",
                Json::Arr(self.stages.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    #[allow(clippy::type_complexity)]
    fn parse_manifest(
        payload: &[u8],
        meta: RunMeta,
    ) -> Result<(BTreeSet<String>, BTreeSet<String>), ManifestIssue> {
        let text =
            std::str::from_utf8(payload).map_err(|_| ManifestIssue::Corrupt("not UTF-8".into()))?;
        let j = json::parse(text).map_err(|e| ManifestIssue::Corrupt(format!("{e:?}")))?;
        let field = |name: &'static str| {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ManifestIssue::Corrupt(format!("missing field {name:?}")))
        };
        if field("version")? != MANIFEST_VERSION {
            return Err(ManifestIssue::Corrupt("unknown manifest version".into()));
        }
        for (name, current) in [
            ("config_hash", meta.config_hash),
            ("seed", meta.seed),
            ("rounds", meta.rounds),
        ] {
            let manifest = field(name)?;
            if manifest != current {
                return Err(ManifestIssue::Mismatch(CkptError::Mismatch {
                    field: name,
                    manifest,
                    current,
                }));
            }
        }
        let stages = j
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or_else(|| ManifestIssue::Corrupt("missing stages".into()))?
            .iter()
            .filter_map(|s| s.as_str().map(str::to_owned))
            .collect();
        // Additive field: absent in manifests written before degradation
        // support existed, so a missing array is simply empty.
        let quarantined = j
            .get("quarantined")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|s| s.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default();
        Ok((stages, quarantined))
    }

    fn write_manifest(&self, rec: &Recorder) -> Result<(), CkptError> {
        let (out, stats) = fsio::write_framed_atomic_retry(
            &self.manifest_path(),
            self.manifest_json().dump().as_bytes(),
            "ckpt.manifest",
            &self.retry,
        );
        stats.record_into(rec);
        rec.add("ckpt.write_bytes", out?);
        Ok(())
    }

    /// Records `key` as durably completed (its artifact must already be on
    /// disk — callers write the artifact first, then mark).
    fn mark_done(&mut self, key: &str, rec: &Recorder) -> Result<(), CkptError> {
        self.stages.insert(key.to_owned());
        self.write_manifest(rec)
    }

    fn save(&mut self, key: &str, payload: &[u8], rec: &Recorder) -> Result<(), CkptError> {
        let mut span = rec.span_at(Level::Detail, "ckpt_write");
        span.field("stage", key);
        span.field("bytes", payload.len());
        let (out, stats) = fsio::write_framed_atomic_retry(
            &self.artifact_path(key),
            payload,
            Self::fp_for(key),
            &self.retry,
        );
        stats.record_into(rec);
        rec.add("ckpt.write_bytes", out?);
        self.mark_done(key, rec)
    }

    /// Loads `key`'s artifact payload if the stage completed. A corrupt
    /// artifact (CRC failure, bad payload) unmarks the stage and returns
    /// `None` so the caller recomputes it.
    fn load(&mut self, key: &str, rec: &Recorder) -> Option<Vec<u8>> {
        if !self.is_done(key) {
            return None;
        }
        let mut span = rec.span_at(Level::Detail, "ckpt_load");
        span.field("stage", key);
        match fsio::read_framed(&self.artifact_path(key)) {
            Ok(payload) => {
                rec.add("ckpt.resume_skipped_stages", 1);
                Some(payload)
            }
            Err(e) => {
                self.discard(key, rec, &e.to_string());
                None
            }
        }
    }

    /// Unmarks a stage whose artifact turned out to be unusable.
    fn discard(&mut self, key: &str, rec: &Recorder, why: &str) {
        eprintln!("[ckpt] warning: recomputing stage {key:?}: {why}");
        rec.add("ckpt.artifact_corrupt", 1);
        self.stages.remove(key);
        // Best-effort: failing to rewrite the manifest here only means the
        // stage is re-discarded on the next resume.
        if let Err(e) = self.write_manifest(rec) {
            eprintln!("[ckpt] warning: could not update manifest: {e}");
        }
    }

    /// Checkpoints a dense matrix (per-mini-batch embeddings).
    pub fn save_matrix(&mut self, key: &str, m: &Matrix, rec: &Recorder) -> Result<(), CkptError> {
        let mut payload = Vec::new();
        largeea_tensor::io::write_matrix(m, &mut payload)?;
        self.save(key, &payload, rec)
    }

    /// Loads a checkpointed dense matrix, or `None` to recompute.
    pub fn load_matrix(&mut self, key: &str, rec: &Recorder) -> Option<Matrix> {
        let payload = self.load(key, rec)?;
        match largeea_tensor::io::read_matrix(&payload[..]) {
            Ok(m) => Some(m),
            Err(e) => {
                self.discard(key, rec, &e.to_string());
                None
            }
        }
    }

    /// Checkpoints a sparse similarity matrix (`M_n`, sim blocks, `M_s`, `M`).
    pub fn save_sim(
        &mut self,
        key: &str,
        m: &SparseSimMatrix,
        rec: &Recorder,
    ) -> Result<(), CkptError> {
        let mut payload = Vec::new();
        largeea_sim::io::write_sparse_sim(m, &mut payload)?;
        self.save(key, &payload, rec)
    }

    /// Loads a checkpointed sparse similarity matrix, or `None` to recompute.
    pub fn load_sim(&mut self, key: &str, rec: &Recorder) -> Option<SparseSimMatrix> {
        let payload = self.load(key, rec)?;
        match largeea_sim::io::read_sparse_sim(&payload[..]) {
            Ok(m) => Some(m),
            Err(e) => {
                self.discard(key, rec, &e.to_string());
                None
            }
        }
    }

    /// Checkpoints a mini-batch assignment.
    pub fn save_batches(
        &mut self,
        key: &str,
        b: &MiniBatches,
        rec: &Recorder,
    ) -> Result<(), CkptError> {
        let payload = encode_batches(b);
        self.save(key, &payload, rec)
    }

    /// Loads a checkpointed mini-batch assignment, or `None` to recompute.
    pub fn load_batches(&mut self, key: &str, rec: &Recorder) -> Option<MiniBatches> {
        let payload = self.load(key, rec)?;
        match decode_batches(&payload) {
            Ok(b) => Some(b),
            Err(e) => {
                self.discard(key, rec, &e.to_string());
                None
            }
        }
    }

    /// Persists per-epoch training progress (round, batch, epoch, loss) —
    /// informational state for `largeea ckpt inspect`, written every
    /// [`Checkpoint::epoch_interval`] epochs. Best-effort: resume never
    /// depends on it (batch training restarts from epoch 0 to stay
    /// bit-identical), so write errors only warn — but transient faults
    /// still retry under [`Checkpoint::retry`], folding `retry.*` counters
    /// into `rec` like every other durable write.
    pub fn epoch_progress(
        &self,
        round: usize,
        batch: usize,
        epoch: usize,
        loss: f32,
        rec: &Recorder,
    ) {
        if !epoch.is_multiple_of(self.epoch_interval.max(1)) {
            return;
        }
        let j = Json::obj([
            ("round", Json::UInt(round as u64)),
            ("batch", Json::UInt(batch as u64)),
            ("epoch", Json::UInt(epoch as u64)),
            ("loss", Json::Float(loss as f64)),
        ]);
        let (out, stats) = fsio::write_framed_atomic_retry(
            &self.dir.join(PROGRESS_FILE),
            j.dump().as_bytes(),
            "ckpt.progress",
            &self.retry,
        );
        stats.record_into(rec);
        if let Err(e) = out {
            eprintln!("[ckpt] warning: could not write progress: {e}");
        }
    }

    /// Records `unit` (a batch key such as `r0.b2`) as quarantined: its
    /// artifacts were lost to I/O faults that outlived every retry, and a
    /// `--degraded-ok` run continued without them. The record is durable —
    /// it lives in the manifest next to the completed-stage list — so
    /// resumes and `largeea ckpt inspect` see exactly what the degraded run
    /// gave up.
    pub fn quarantine(&mut self, unit: &str, rec: &Recorder) -> Result<(), CkptError> {
        self.quarantined.insert(unit.to_owned());
        self.write_manifest(rec)
    }

    /// Quarantined units, in sorted order.
    pub fn quarantined(&self) -> impl Iterator<Item = &str> {
        self.quarantined.iter().map(String::as_str)
    }
}

enum ManifestIssue {
    Mismatch(CkptError),
    Corrupt(String),
}

/// Reads and parses the manifest of `dir` without validating it against a
/// run — the `largeea ckpt inspect` entry point.
pub fn read_manifest(dir: &Path) -> io::Result<Json> {
    let payload = fsio::read_framed(&dir.join(MANIFEST_FILE))?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "manifest is not UTF-8"))?;
    json::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
}

/// Reads the progress file of `dir`, if present and intact.
pub fn read_progress(dir: &Path) -> io::Result<Json> {
    let payload = fsio::read_framed(&dir.join(PROGRESS_FILE))?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "progress is not UTF-8"))?;
    json::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
}

// --- mini-batch (de)serialisation -------------------------------------------
//
// Little-endian, in the spirit of LEAM1/LEAS1 (the CRC frame supplies
// integrity, so no inner magic):
//
//   n_source u64 | n_target u64 | k u64
//   per batch: index u64
//              | len u64 | len × u32   (source entities)
//              | len u64 | len × u32   (target entities)
//              | len u64 | len × (u32, u32)   (train pairs)
//              | len u64 | len × (u32, u32)   (test pairs)

fn encode_batches(b: &MiniBatches) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(b.source_membership.len() as u64).to_le_bytes());
    out.extend_from_slice(&(b.target_membership.len() as u64).to_le_bytes());
    out.extend_from_slice(&(b.batches.len() as u64).to_le_bytes());
    for batch in &b.batches {
        out.extend_from_slice(&(batch.index as u64).to_le_bytes());
        for ids in [&batch.source_entities, &batch.target_entities] {
            out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
            for e in ids {
                out.extend_from_slice(&e.0.to_le_bytes());
            }
        }
        for pairs in [&batch.train_pairs, &batch.test_pairs] {
            out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
            for (s, t) in pairs {
                out.extend_from_slice(&s.0.to_le_bytes());
                out.extend_from_slice(&t.0.to_le_bytes());
            }
        }
    }
    out
}

fn decode_batches(buf: &[u8]) -> io::Result<MiniBatches> {
    struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }
    impl Cursor<'_> {
        fn u64(&mut self) -> io::Result<u64> {
            let end = self.pos + 8;
            let b = self.buf.get(self.pos..end).ok_or_else(truncated)?;
            self.pos = end;
            Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
        }
        fn u32(&mut self) -> io::Result<u32> {
            let end = self.pos + 4;
            let b = self.buf.get(self.pos..end).ok_or_else(truncated)?;
            self.pos = end;
            Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
        }
        fn len(&mut self) -> io::Result<usize> {
            let n = self.u64()? as usize;
            // each element is ≥ 4 bytes; reject lengths the buffer can't hold
            if n > self.buf.len().saturating_sub(self.pos) / 4 {
                return Err(truncated());
            }
            Ok(n)
        }
    }
    fn truncated() -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, "truncated mini-batch payload")
    }

    let mut c = Cursor { buf, pos: 0 };
    let n_source = c.u64()? as usize;
    let n_target = c.u64()? as usize;
    let k = c.u64()? as usize;
    let mut batches = Vec::with_capacity(k.min(1024));
    for _ in 0..k {
        let index = c.u64()? as usize;
        let ids = |c: &mut Cursor| -> io::Result<Vec<EntityId>> {
            let n = c.len()?;
            (0..n).map(|_| c.u32().map(EntityId)).collect()
        };
        let source_entities = ids(&mut c)?;
        let target_entities = ids(&mut c)?;
        let pairs = |c: &mut Cursor| -> io::Result<Vec<(EntityId, EntityId)>> {
            let n = c.len()?;
            (0..n)
                .map(|_| Ok((EntityId(c.u32()?), EntityId(c.u32()?))))
                .collect()
        };
        let train_pairs = pairs(&mut c)?;
        let test_pairs = pairs(&mut c)?;
        for e in &source_entities {
            if e.idx() >= n_source {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("source entity {} out of range", e.0),
                ));
            }
        }
        for e in &target_entities {
            if e.idx() >= n_target {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("target entity {} out of range", e.0),
                ));
            }
        }
        batches.push(MiniBatch {
            index,
            source_entities,
            target_entities,
            train_pairs,
            test_pairs,
        });
    }
    if c.pos != buf.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes after mini-batch payload",
        ));
    }
    Ok(MiniBatches::from_batches(batches, n_source, n_target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::obs::{ObsConfig, Recorder};
    use largeea_kg::{AlignmentSeeds, KgPair, KnowledgeGraph};
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("largeea_ckpt_{}_{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn meta() -> RunMeta {
        RunMeta {
            config_hash: 0xDEAD_BEEF,
            seed: 42,
            rounds: 1,
        }
    }

    fn rec() -> Recorder {
        Recorder::new(ObsConfig::default())
    }

    fn toy_batches() -> MiniBatches {
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        for i in 0..6 {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        let alignment: Vec<_> = (0..6).map(|i| (EntityId(i), EntityId(i))).collect();
        let pair = KgPair::new(s, t, alignment.clone());
        let seeds = AlignmentSeeds {
            train: alignment[..3].to_vec(),
            test: alignment[3..].to_vec(),
        };
        MiniBatches::from_assignments(&pair, &seeds, &[0, 0, 1, 1, 0, 1], &[0, 1, 1, 1, 0, 0], 2)
    }

    #[test]
    fn fresh_open_writes_manifest_and_resume_adopts_stages() {
        let dir = tmpdir("fresh");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        assert!(dir.join(MANIFEST_FILE).exists());
        assert!(!c.is_done("name"));
        let m = SparseSimMatrix::new(2, 2);
        c.save_sim("name", &m, &rec).unwrap();
        assert!(c.is_done("name"));

        let mut c2 = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
        assert!(c2.is_done("name"));
        assert_eq!(c2.load_sim("name", &rec), Some(m));
        assert!(rec.trace().counter("ckpt.resume_skipped_stages") >= 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_false_discards_previous_stages() {
        let dir = tmpdir("discard");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        c.save_sim("name", &SparseSimMatrix::new(1, 1), &rec)
            .unwrap();
        let c2 = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        assert!(!c2.is_done("name"), "non-resume open starts fresh");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_manifest_is_refused_with_typed_error() {
        let dir = tmpdir("mismatch");
        let rec = rec();
        Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        for (field, m) in [
            (
                "config_hash",
                RunMeta {
                    config_hash: 1,
                    ..meta()
                },
            ),
            ("seed", RunMeta { seed: 43, ..meta() }),
            (
                "rounds",
                RunMeta {
                    rounds: 2,
                    ..meta()
                },
            ),
        ] {
            match Checkpoint::open(&dir, m, true, &rec) {
                Err(CkptError::Mismatch { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected Mismatch({field}), got {other:?}"),
            }
        }
        // non-resume open with a different config is fine: it starts over
        assert!(Checkpoint::open(&dir, RunMeta { seed: 43, ..meta() }, false, &rec).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_degrades_to_fresh_run() {
        let dir = tmpdir("corrupt_manifest");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        c.save_sim("name", &SparseSimMatrix::new(1, 1), &rec)
            .unwrap();
        // tear the manifest
        let mpath = dir.join(MANIFEST_FILE);
        let raw = fs::read(&mpath).unwrap();
        fs::write(&mpath, &raw[..raw.len() / 2]).unwrap();
        let c2 = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
        assert!(!c2.is_done("name"), "corrupt manifest ⇒ fresh stage set");
        assert!(rec.trace().counter("ckpt.manifest_corrupt") >= 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// Hostile manifests, damaged both outside the frame (torn bytes, bad
    /// CRC) and inside an intact one (the JSON itself): a resume adopts the
    /// manifest, refuses it as another run's, or degrades to a fresh run —
    /// and whichever it did, the manifest on disk reads back afterwards.
    #[test]
    fn mutated_manifests_are_adopted_refused_or_replaced_never_a_panic() {
        use largeea_common::check::{for_each_case, mutate};
        use std::cell::Cell;
        let dir = tmpdir("mutated_manifest");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        c.save_sim("name", &SparseSimMatrix::new(1, 1), &rec)
            .unwrap();
        c.quarantine("r0.b1", &rec).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let framed = fs::read(&mpath).unwrap();
        let json = fsio::read_framed(&mpath).unwrap();
        let (adopted, refused, fresh) = (Cell::new(0), Cell::new(0), Cell::new(0));
        for_each_case(0xC4B7, 200, |rng| {
            if rng.gen_bool(0.5) {
                let mut raw = framed.clone();
                mutate(rng, &mut raw, &[], 64);
                fs::write(&mpath, &raw).unwrap();
            } else {
                let mut payload = json.clone();
                for _ in 0..rng.gen_range(1..4u32) {
                    mutate(rng, &mut payload, b",:\"[]{}", 64);
                }
                fsio::write_framed(&mpath, &payload, "test.none").unwrap();
            }
            let inspected = read_manifest(&dir);
            match Checkpoint::open(&dir, meta(), true, &rec) {
                Ok(c) => {
                    read_manifest(&dir).expect("an opened checkpoint has a readable manifest");
                    let seen = if c.is_done("name") { &adopted } else { &fresh };
                    seen.set(seen.get() + 1);
                }
                Err(CkptError::Mismatch { .. }) => {
                    inspected.expect("only a manifest that parses can belong to another run");
                    refused.set(refused.get() + 1);
                }
                Err(other) => panic!("unexpected error for a damaged manifest: {other}"),
            }
        });
        let outcomes = (adopted.get(), refused.get(), fresh.get());
        assert!(
            outcomes.0 > 0 && outcomes.1 > 0 && outcomes.2 > 0,
            "the damage must reach all three outcomes: {outcomes:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_is_unmarked_and_recomputed() {
        let dir = tmpdir("corrupt_artifact");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        let m = Matrix::from_fn(3, 2, |r, ci| (r * 2 + ci) as f32);
        c.save_matrix("r0.b0.emb", &m, &rec).unwrap();
        assert_eq!(c.load_matrix("r0.b0.emb", &rec), Some(m.clone()));
        // flip a payload byte on disk
        let apath = dir.join("r0.b0.emb.ckpt");
        let mut raw = fs::read(&apath).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        fs::write(&apath, &raw).unwrap();
        assert_eq!(c.load_matrix("r0.b0.emb", &rec), None);
        assert!(!c.is_done("r0.b0.emb"), "stage unmarked for recompute");
        assert!(rec.trace().counter("ckpt.artifact_corrupt") >= 1);
        // the unmark is durable: a fresh resume agrees
        let c2 = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
        assert!(!c2.is_done("r0.b0.emb"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn minibatches_roundtrip_and_reject_garbage() {
        let b = toy_batches();
        let buf = encode_batches(&b);
        assert_eq!(decode_batches(&buf).unwrap(), b);
        assert!(decode_batches(&buf[..buf.len() - 3]).is_err());
        assert!(decode_batches(&[0xFF; 10]).is_err());
        // huge claimed length must not allocate
        let mut evil = buf.clone();
        evil[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_batches(&evil).is_err());
    }

    #[test]
    fn batches_checkpoint_roundtrips_through_disk() {
        let dir = tmpdir("batches");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        let b = toy_batches();
        c.save_batches("r0.partition", &b, &rec).unwrap();
        let mut c2 = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
        assert_eq!(c2.load_batches("r0.partition", &rec), Some(b));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_is_written_on_interval_and_inspectable() {
        let dir = tmpdir("progress");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        c.epoch_interval = 5;
        c.epoch_progress(0, 1, 3, 0.5, &rec); // not on the interval: no file
        assert!(read_progress(&dir).is_err());
        c.epoch_progress(0, 1, 5, 0.25, &rec);
        let p = read_progress(&dir).unwrap();
        assert_eq!(p.get("epoch").and_then(Json::as_u64), Some(5));
        assert_eq!(p.get("batch").and_then(Json::as_u64), Some(1));
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.get("seed").and_then(Json::as_u64), Some(42));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_is_durable_and_survives_resume() {
        let dir = tmpdir("quarantine");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        assert_eq!(c.quarantined().count(), 0);
        c.quarantine("r0.b2", &rec).unwrap();
        c.quarantine("r0.b0", &rec).unwrap();
        c.quarantine("r0.b2", &rec).unwrap(); // idempotent
        assert_eq!(
            c.quarantined().collect::<Vec<_>>(),
            vec!["r0.b0", "r0.b2"],
            "sorted, deduplicated"
        );
        // durable: a resume adopts the quarantine record
        let c2 = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
        assert_eq!(c2.quarantined().collect::<Vec<_>>(), vec!["r0.b0", "r0.b2"]);
        // and it is visible to post-hoc inspection
        let m = read_manifest(&dir).unwrap();
        let q: Vec<_> = m
            .get("quarantined")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(q, vec!["r0.b0", "r0.b2"]);
        // a fresh (non-resume) open starts with a clean bill of health
        let c3 = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        assert_eq!(c3.quarantined().count(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"largeea"), fnv1a(b"largeea"));
    }
}
