//! The artifact layer: crash-safe checkpoint/resume for long pipeline runs,
//! and the stage keys and payload encodings every stored intermediate
//! shares (DESIGN.md §S0.7, docs/ARTIFACT_FORMAT.md).
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
//! [`Stage`] names the pipeline's natural boundaries and is the one place
//! their key strings are spelled; [`Payload`] is the one encoding of each
//! value, shared with the spill store's disk backing.
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
//!   the stage, recompute it (detected by the frame CRC or the payload
//!   decoder, counted in `ckpt.artifact_corrupt`).
//!
//! Because the pipeline is deterministic (seeded PRNG, bit-identical at any
//! pool width), a resumed run reproduces an uninterrupted one **bit for
//! bit** — the crash-consistency suite (`tests/crash_recovery.rs`) proves
//! this for every `ckpt.*` entry of [`registered_failpoints`].

use largeea_common::fsio;
use largeea_common::json::{self, Json};
use largeea_common::obs::{Level, Recorder};
use largeea_kg::EntityId;
use largeea_partition::{MiniBatch, MiniBatches};
use largeea_sim::{SimRows, SparseSimMatrix};
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
/// Training progress is written every this many epochs (informational).
const EPOCH_INTERVAL: usize = 10;

const MANIFEST_FAILPOINT: FailpointSite = FailpointSite {
    name: "ckpt.manifest",
    site: "checkpoint manifest write (durable, atomic; core::checkpoint)",
};
const PROGRESS_FAILPOINT: FailpointSite = FailpointSite {
    name: "ckpt.progress",
    site: "best-effort epoch-progress file (core::checkpoint)",
};

/// One durable pipeline boundary. The single source of a stage's key — its
/// manifest entry, its `<key>.ckpt` file and, for blocks that wait in the
/// spill store, its `<key>.spill` file (docs/ARTIFACT_FORMAT.md §3) — and
/// of the failpoint guarding its write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `name` — the name channel's `M_n`.
    Name,
    /// `r<R>.partition` — a bootstrap round's mini-batch assignment.
    Partition {
        /// Bootstrap round.
        round: usize,
    },
    /// `r<R>.b<I>.emb` — one mini-batch's trained embeddings.
    Emb {
        /// Bootstrap round.
        round: usize,
        /// Mini-batch index.
        batch: usize,
    },
    /// `r<R>.b<I>.sim` — one mini-batch's similarity block.
    Sim {
        /// Bootstrap round.
        round: usize,
        /// Mini-batch index.
        batch: usize,
    },
    /// `r<R>.ms` — a round's normalised `M_s`.
    Ms {
        /// Bootstrap round.
        round: usize,
    },
    /// `fused` — the fused matrix `M`.
    Fused,
}

impl Stage {
    /// One stage of each kind, in pipeline order.
    const KINDS: [Stage; 6] = [
        Stage::Name,
        Stage::Partition { round: 0 },
        Stage::Emb { round: 0, batch: 0 },
        Stage::Sim { round: 0, batch: 0 },
        Stage::Ms { round: 0 },
        Stage::Fused,
    ];

    /// The stage key.
    pub fn key(self) -> String {
        match self {
            Stage::Name => "name".to_owned(),
            Stage::Partition { round } => format!("r{round}.partition"),
            Stage::Emb { round, batch } => format!("r{round}.b{batch}.emb"),
            Stage::Sim { round, batch } => format!("r{round}.b{batch}.sim"),
            Stage::Ms { round } => format!("r{round}.ms"),
            Stage::Fused => "fused".to_owned(),
        }
    }

    /// The failpoint guarding the write of this stage's artifact.
    fn failpoint(self) -> FailpointSite {
        let (name, site) = match self {
            Stage::Name => (
                "ckpt.name",
                "name-channel M_n checkpoint artifact (core::checkpoint)",
            ),
            Stage::Partition { .. } => (
                "ckpt.partition",
                "per-round mini-batch assignment artifact (core::checkpoint)",
            ),
            Stage::Emb { .. } => (
                "ckpt.emb",
                "per-batch trained-embeddings artifact (core::checkpoint)",
            ),
            Stage::Sim { .. } => (
                "ckpt.sim",
                "per-batch similarity-block artifact (core::checkpoint)",
            ),
            Stage::Ms { .. } => (
                "ckpt.ms",
                "per-round normalised M_s artifact (core::checkpoint)",
            ),
            Stage::Fused => (
                "ckpt.fused",
                "fused similarity matrix M artifact (core::checkpoint)",
            ),
        };
        FailpointSite { name, site }
    }
}

/// One registered failpoint: its name (what `LARGEEA_FAILPOINTS` arms) and
/// the write site it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailpointSite {
    /// The failpoint name.
    pub name: &'static str,
    /// Human-readable description of the guarded site.
    pub site: &'static str,
}

/// Every failpoint the checkpoint subsystem can die at, one per durable
/// write site, in the order the pipeline reaches them.
fn failpoints() -> Vec<FailpointSite> {
    let mut all = vec![MANIFEST_FAILPOINT];
    all.extend(Stage::KINDS.map(Stage::failpoint));
    all.push(PROGRESS_FAILPOINT);
    all
}

/// The authoritative registry of every failpoint in the system — what
/// `largeea failpoints list` prints and what the crash and chaos suites
/// enumerate. Each subsystem contributes the sites it guards, so a write
/// site cannot ship unregistered (and therefore unswept).
pub fn registered_failpoints() -> Vec<FailpointSite> {
    let mut all = failpoints();
    all.push(crate::spill::WRITE_FAILPOINT);
    all
}

/// The byte encoding of one kind of stored value: what a `<stage>.ckpt`
/// artifact and a `<key>.spill` file carry inside their `LEAF1` frame
/// (docs/ARTIFACT_FORMAT.md §2).
pub trait Payload: Sized {
    /// Serialises the value.
    fn encode(&self) -> io::Result<Vec<u8>>;
    /// Parses a payload back; anything but a well-formed one is a typed
    /// `InvalidData` error, never a panic.
    fn decode(bytes: &[u8]) -> io::Result<Self>;
}

impl Payload for Matrix {
    fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        largeea_tensor::io::write_matrix(self, &mut out)?;
        Ok(out)
    }
    fn decode(bytes: &[u8]) -> io::Result<Self> {
        largeea_tensor::io::read_matrix(bytes)
    }
}

impl Payload for SparseSimMatrix {
    fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        largeea_sim::io::write_sparse_sim(self, &mut out)?;
        Ok(out)
    }
    fn decode(bytes: &[u8]) -> io::Result<Self> {
        largeea_sim::io::read_sparse_sim(bytes)
    }
}

/// A mini-batch's similarity block: the `LEAS1` encoding of the matrix
/// holding just its rows.
impl Payload for SimRows {
    fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        largeea_sim::io::write_sim_rows(self, &mut out)?;
        Ok(out)
    }
    fn decode(bytes: &[u8]) -> io::Result<Self> {
        largeea_sim::io::read_sim_rows(bytes)
    }
}

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

/// Identity of one run — what must match for a resume to be legal.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
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

/// A run's checkpoint: the manifest's completed-stage set plus the artifact
/// read/write machinery — or [`Checkpoint::disabled`], which holds nothing
/// and writes nothing.
#[derive(Debug, Default)]
pub struct Checkpoint {
    /// The checkpoint directory; `None` is the disabled checkpoint, whose
    /// stage set stays empty.
    dir: Option<PathBuf>,
    meta: RunMeta,
    stages: BTreeSet<String>,
}

impl Checkpoint {
    /// The checkpoint of a run that has none: every load answers `None`,
    /// and saves and [`Checkpoint::epoch_progress`] do nothing — no file, no
    /// trace traffic, no failpoint.
    pub fn disabled() -> Self {
        Self::default()
    }

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
            dir: Some(dir.to_path_buf()),
            meta,
            ..Self::default()
        };
        if resume {
            match read_manifest(dir) {
                Ok(manifest) => match Self::parse_manifest(&manifest, meta) {
                    Ok(stages) => {
                        ckpt.stages = stages;
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

    /// Whether `stage`'s artifact was durably completed.
    pub fn is_done(&self, stage: Stage) -> bool {
        self.stages.contains(&stage.key())
    }

    fn manifest_json(&self) -> Json {
        let stages = self.stages.iter().cloned().map(Json::Str).collect();
        Json::obj([
            ("version", Json::UInt(MANIFEST_VERSION)),
            ("config_hash", Json::UInt(self.meta.config_hash)),
            ("seed", Json::UInt(self.meta.seed)),
            ("rounds", Json::UInt(self.meta.rounds)),
            ("stages", Json::Arr(stages)),
        ])
    }

    fn parse_manifest(j: &Json, meta: RunMeta) -> Result<BTreeSet<String>, ManifestIssue> {
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
        // Retired within version 1: older writers recorded mini-batches a
        // degraded run had dropped here, so its `M_s` and `M` lack their
        // blocks and nothing may be resumed from it.
        if j.get("quarantined")
            .and_then(Json::as_arr)
            .is_some_and(|q| !q.is_empty())
        {
            return Err(ManifestIssue::Corrupt(
                "quarantined batches: a degraded run's matrices are incomplete".into(),
            ));
        }
        let stages = j
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or_else(|| ManifestIssue::Corrupt("missing stages".into()))?;
        Ok(stages
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_owned)
            .collect())
    }

    /// Rewrites the manifest; nothing to do for the disabled checkpoint.
    fn write_manifest(&self, rec: &Recorder) -> Result<(), CkptError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let json = self.manifest_json().dump();
        let path = dir.join(MANIFEST_FILE);
        let written = fsio::write_framed_atomic(&path, json.as_bytes(), MANIFEST_FAILPOINT.name)?;
        rec.add("ckpt.write_bytes", written);
        Ok(())
    }

    /// Checkpoints `value` as `stage`'s artifact: the artifact is written
    /// first, then the stage is marked done in the manifest.
    pub fn save<T: Payload>(
        &mut self,
        stage: Stage,
        value: &T,
        rec: &Recorder,
    ) -> Result<(), CkptError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let key = stage.key();
        let payload = value.encode()?;
        let mut span = rec.span_at(Level::Detail, "ckpt_write");
        span.field("stage", key.as_str());
        span.field("bytes", payload.len());
        let path = dir.join(format!("{key}.ckpt"));
        let written = fsio::write_framed_atomic(&path, &payload, stage.failpoint().name)?;
        rec.add("ckpt.write_bytes", written);
        self.stages.insert(key);
        self.write_manifest(rec)
    }

    /// Loads `stage`'s value if the stage completed. A corrupt artifact
    /// (CRC failure, bad payload) unmarks the stage and returns `None` so
    /// the caller recomputes it; only a value that decoded counts towards
    /// `ckpt.resume_skipped_stages`.
    pub fn load<T: Payload>(&mut self, stage: Stage, rec: &Recorder) -> Option<T> {
        let key = stage.key();
        if !self.stages.contains(&key) {
            return None;
        }
        let dir = self.dir.as_ref()?;
        let mut span = rec.span_at(Level::Detail, "ckpt_load");
        span.field("stage", key.as_str());
        let loaded =
            fsio::read_framed(&dir.join(format!("{key}.ckpt"))).and_then(|p| T::decode(&p));
        match loaded {
            Ok(value) => {
                rec.add("ckpt.resume_skipped_stages", 1);
                Some(value)
            }
            Err(e) => {
                eprintln!("[ckpt] warning: recomputing stage {key:?}: {e}");
                rec.add("ckpt.artifact_corrupt", 1);
                self.stages.remove(&key);
                // Best-effort: failing to rewrite the manifest here only
                // means the stage is re-discarded on the next resume.
                if let Err(e) = self.write_manifest(rec) {
                    eprintln!("[ckpt] warning: could not update manifest: {e}");
                }
                None
            }
        }
    }

    /// Loads `stage`'s value, or computes it and checkpoints the result.
    /// `compute` is lent the checkpoint (for [`Checkpoint::epoch_progress`]).
    pub fn load_or<T: Payload, E: From<CkptError>>(
        &mut self,
        stage: Stage,
        rec: &Recorder,
        compute: impl FnOnce(&Self) -> Result<T, E>,
    ) -> Result<T, E> {
        if let Some(value) = self.load(stage, rec) {
            return Ok(value);
        }
        let value = compute(self)?;
        self.save(stage, &value, rec)?;
        Ok(value)
    }

    /// Persists per-epoch training progress (round, batch, epoch, loss) —
    /// informational state for `largeea ckpt inspect`, written every tenth
    /// epoch. Best-effort: resume never depends on it (batch training
    /// restarts from epoch 0 to stay bit-identical), so write errors only
    /// warn.
    pub fn epoch_progress(&self, round: usize, batch: usize, epoch: usize, loss: f32) {
        let Some(dir) = &self.dir else { return };
        if !epoch.is_multiple_of(EPOCH_INTERVAL) {
            return;
        }
        let j = Json::obj([
            ("round", Json::UInt(round as u64)),
            ("batch", Json::UInt(batch as u64)),
            ("epoch", Json::UInt(epoch as u64)),
            ("loss", Json::Float(loss as f64)),
        ]);
        let path = dir.join(PROGRESS_FILE);
        let fp = PROGRESS_FAILPOINT.name;
        if let Err(e) = fsio::write_framed_atomic(&path, j.dump().as_bytes(), fp) {
            eprintln!("[ckpt] warning: could not write progress: {e}");
        }
    }
}

enum ManifestIssue {
    Mismatch(CkptError),
    Corrupt(String),
}

/// Reads and parses the manifest of `dir` without validating it against a
/// run — the `largeea ckpt inspect` entry point.
pub fn read_manifest(dir: &Path) -> io::Result<Json> {
    read_json(&dir.join(MANIFEST_FILE))
}

/// Reads the progress file of `dir`, if present and intact.
pub fn read_progress(dir: &Path) -> io::Result<Json> {
    read_json(&dir.join(PROGRESS_FILE))
}

fn read_json(path: &Path) -> io::Result<Json> {
    let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    let payload = fsio::read_framed(path)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| invalid(format!("{}: not UTF-8", path.display())))?;
    json::parse(text).map_err(|e| invalid(format!("{e:?}")))
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

impl Payload for MiniBatches {
    fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.source_membership.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.target_membership.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.batches.len() as u64).to_le_bytes());
        for batch in &self.batches {
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
        Ok(out)
    }

    fn decode(buf: &[u8]) -> io::Result<Self> {
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

        fn in_range(what: &str, id: usize, n: usize) -> io::Result<()> {
            if id < n {
                return Ok(());
            }
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} {id} out of range"),
            ))
        }

        let mut c = Cursor { buf, pos: 0 };
        // every entity is listed in at least one batch at 4 bytes each, so the
        // entity counts obey the same bound as any other length
        let n_source = c.len()?;
        let n_target = c.len()?;
        let k = c.len()?;
        let mut batches = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            let index = c.u64()? as usize;
            in_range("batch index", index, k)?;
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
                in_range("source entity", e.idx(), n_source)?;
            }
            for e in &target_entities {
                in_range("target entity", e.idx(), n_target)?;
            }
            for (s, t) in train_pairs.iter().chain(&test_pairs) {
                in_range("source entity", s.idx(), n_source)?;
                in_range("target entity", t.idx(), n_target)?;
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
    fn resume_false_discards_previous_stages() {
        let dir = tmpdir("discard");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        c.save(Stage::Name, &SparseSimMatrix::new(1, 1), &rec)
            .unwrap();
        let c2 = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        assert!(!c2.is_done(Stage::Name), "non-resume open starts fresh");
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
        c.save(Stage::Name, &SparseSimMatrix::new(1, 1), &rec)
            .unwrap();
        // tear the manifest
        let mpath = dir.join(MANIFEST_FILE);
        let raw = fs::read(&mpath).unwrap();
        fs::write(&mpath, &raw[..raw.len() / 2]).unwrap();
        let c2 = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
        assert!(
            !c2.is_done(Stage::Name),
            "corrupt manifest ⇒ fresh stage set"
        );
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
        c.save(Stage::Name, &SparseSimMatrix::new(1, 1), &rec)
            .unwrap();
        // damage the manifest as older writers left it, with the retired
        // `quarantined` array still present (and empty)
        let mpath = dir.join(MANIFEST_FILE);
        let mut json = fsio::read_framed(&mpath).unwrap();
        json.pop();
        json.extend_from_slice(br#","quarantined":[]}"#);
        fsio::write_framed(&mpath, &json, "test.none").unwrap();
        let framed = fs::read(&mpath).unwrap();
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
                    let seen = if c.is_done(Stage::Name) {
                        &adopted
                    } else {
                        &fresh
                    };
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
        let emb = Stage::Emb { round: 0, batch: 0 };
        c.save(emb, &m, &rec).unwrap();
        assert_eq!(c.load(emb, &rec), Some(m.clone()));
        // an intact frame around the wrong payload: the CRC passes, the
        // decoder refuses
        let apath = dir.join("r0.b0.emb.ckpt");
        fsio::write_framed(&apath, b"not a LEAM1 matrix", "test.none").unwrap();
        assert_eq!(c.load::<Matrix>(emb, &rec), None);
        assert!(!c.is_done(emb), "stage unmarked for recompute");
        // and a flipped payload byte: the CRC refuses
        c.save(emb, &m, &rec).unwrap();
        let mut raw = fs::read(&apath).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        fs::write(&apath, &raw).unwrap();
        assert_eq!(c.load::<Matrix>(emb, &rec), None);
        let t = rec.trace();
        assert_eq!(t.counter("ckpt.artifact_corrupt"), 2);
        assert_eq!(
            t.counter("ckpt.resume_skipped_stages"),
            1,
            "a discarded stage is corrupt, not skipped"
        );
        // the unmark is durable: a fresh resume agrees
        let c2 = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
        assert!(!c2.is_done(emb));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn minibatches_roundtrip_and_reject_garbage() {
        let b = toy_batches();
        let buf = b.encode().unwrap();
        assert_eq!(MiniBatches::decode(&buf).unwrap(), b);
        assert!(MiniBatches::decode(&buf[..buf.len() - 3]).is_err());
        assert!(MiniBatches::decode(&[0xFF; 10]).is_err());
        let with = |at: usize, bytes: &[u8]| {
            let mut evil = buf.clone();
            evil[at..at + bytes.len()].copy_from_slice(bytes);
            MiniBatches::decode(&evil)
        };
        // huge claimed lengths must not allocate: n_source (a membership
        // table of that many `Vec`s), n_target, the batch count
        for at in [0, 8, 16] {
            assert!(with(at, &u64::MAX.to_le_bytes()).is_err());
            assert!(with(at, &(1u64 << 40).to_le_bytes()).is_err());
        }
        // batch 0's index (offset 24) must name one of the k = 2 batches
        assert!(with(24, &2u64.to_le_bytes()).is_err());
        // batch 0 holds sources {0, 1, 4} (offset 40) and targets {0, 4, 5}
        // (offset 60); its first train pair sits at offset 80
        assert_eq!(b.batches[0].train_pairs[0], (EntityId(0), EntityId(0)));
        assert!(
            with(40, &6u32.to_le_bytes()).is_err(),
            "source id = n_source"
        );
        assert!(with(80, &6u32.to_le_bytes()).is_err(), "pair source id");
        assert!(with(84, &9u32.to_le_bytes()).is_err(), "pair target id");
        assert!(
            with(84, &5u32.to_le_bytes()).is_ok(),
            "in range still decodes"
        );
    }

    /// Hostile `.partition` artifacts that pass the frame CRC — the payload
    /// itself is damaged: a resume either gets batches that are internally
    /// consistent or recomputes, and never sizes an allocation from a field
    /// the payload cannot back.
    #[test]
    fn mutated_partition_payloads_load_valid_batches_or_recompute() {
        use largeea_common::check::{for_each_case, mutate};
        use std::cell::{Cell, RefCell};
        let dir = tmpdir("mutated_partition");
        let rec = rec();
        let stage = Stage::Partition { round: 0 };
        let c = RefCell::new(Checkpoint::open(&dir, meta(), false, &rec).unwrap());
        let apath = dir.join("r0.partition.ckpt");
        let payload = toy_batches().encode().unwrap();
        let (loaded, recomputed) = (Cell::new(0u64), Cell::new(0u64));
        for_each_case(0xBA7C, 300, |rng| {
            let mut evil = payload.clone();
            for _ in 0..rng.gen_range(1..3u32) {
                mutate(rng, &mut evil, &[], 64);
            }
            fsio::write_framed(&apath, &evil, "test.none").unwrap();
            let mut c = c.borrow_mut();
            c.stages.insert(stage.key());
            let corrupt_before = rec.trace().counter("ckpt.artifact_corrupt");
            match c.load::<MiniBatches>(stage, &rec) {
                Some(b) => {
                    assert_eq!(b.encode().unwrap(), evil, "what loaded is what was stored");
                    let (n_s, n_t) = (b.source_membership.len(), b.target_membership.len());
                    assert!(evil.len() >= 4 * (n_s + n_t), "counts the payload backs");
                    for batch in &b.batches {
                        assert!(batch.index < b.k());
                        let pairs = || batch.train_pairs.iter().chain(&batch.test_pairs);
                        let sources = batch.source_entities.iter();
                        let targets = batch.target_entities.iter();
                        assert!(sources
                            .chain(pairs().map(|(s, _)| s))
                            .all(|e| e.idx() < n_s));
                        assert!(targets
                            .chain(pairs().map(|(_, t)| t))
                            .all(|e| e.idx() < n_t));
                    }
                    loaded.set(loaded.get() + 1);
                }
                None => {
                    assert!(!c.is_done(stage), "a refused artifact is unmarked");
                    assert_eq!(
                        rec.trace().counter("ckpt.artifact_corrupt"),
                        corrupt_before + 1
                    );
                    recomputed.set(recomputed.get() + 1);
                }
            }
        });
        assert!(
            loaded.get() > 0 && recomputed.get() > 0,
            "the damage must reach both outcomes: {} loaded, {} recomputed",
            loaded.get(),
            recomputed.get()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_is_written_on_interval_and_inspectable() {
        let dir = tmpdir("progress");
        let rec = rec();
        let c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        c.epoch_progress(0, 1, EPOCH_INTERVAL - 1, 0.5); // not on the interval: no file
        assert!(read_progress(&dir).is_err());
        c.epoch_progress(0, 1, 2 * EPOCH_INTERVAL, 0.25);
        let p = read_progress(&dir).unwrap();
        assert_eq!(p.get("epoch").and_then(Json::as_u64), Some(20));
        assert_eq!(p.get("batch").and_then(Json::as_u64), Some(1));
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.get("seed").and_then(Json::as_u64), Some(42));
        fs::remove_dir_all(&dir).ok();
    }

    /// The checkpoint contract, once: one script, the disabled checkpoint
    /// and an on-disk one.
    #[test]
    fn both_checkpoints_answer_the_same_script() {
        let dir = tmpdir("contract");
        let mut sim = SparseSimMatrix::new(3, 3);
        sim.insert(0, 1, 0.7);
        let batches = toy_batches();
        let partition = Stage::Partition { round: 0 };
        let on_disk = Checkpoint::open(&dir, meta(), false, &rec()).unwrap();
        assert!(dir.join(MANIFEST_FILE).exists());
        for (mut c, enabled) in [(Checkpoint::disabled(), false), (on_disk, true)] {
            let rec = rec();
            assert!(!c.is_done(Stage::Name));
            c.save(Stage::Name, &sim, &rec).unwrap();
            assert_eq!(c.is_done(Stage::Name), enabled);
            assert_eq!(c.load(Stage::Name, &rec), enabled.then(|| sim.clone()));
            // the first `load_or` computes (and reports progress through
            // the checkpoint it is lent); the second loads what the first
            // saved, where there is somewhere to save to
            for computes in [true, !enabled] {
                let mut computed = false;
                let got = c.load_or(partition, &rec, |c| {
                    computed = true;
                    c.epoch_progress(0, 1, EPOCH_INTERVAL, 0.5);
                    Ok::<_, CkptError>(batches.clone())
                });
                assert_eq!(got.unwrap(), batches);
                assert_eq!(computed, computes);
            }
            let t = rec.trace();
            if enabled {
                assert_eq!(t.counter("ckpt.resume_skipped_stages"), 2);
                assert_eq!(t.span_count("ckpt_write"), 2);
                assert!(t.counter("ckpt.write_bytes") > 0);
                for file in ["name.ckpt", "r0.partition.ckpt", PROGRESS_FILE] {
                    assert!(dir.join(file).exists(), "{file}");
                }
                // all of it durable: a resume adopts the stages and loads them
                let mut resumed = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
                assert!(resumed.is_done(Stage::Name) && resumed.is_done(partition));
                assert_eq!(resumed.load(partition, &rec), Some(batches.clone()));
            } else {
                // nothing recorded — no span, counter or gauge, so no write
                // was attempted and no failpoint reached — and no file
                assert!(t.spans.is_empty() && t.counters.is_empty() && t.gauges.is_empty());
                assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "the manifest");
                assert!(!Path::new(MANIFEST_FILE).exists() && !Path::new("name.ckpt").exists());
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// `quarantined` is retired within version 1 (docs/ARTIFACT_FORMAT.md):
    /// a manifest without it, or with it empty, resumes; one that names
    /// dropped batches came from a degraded run and starts fresh.
    #[test]
    fn a_manifest_naming_quarantined_batches_is_not_resumed() {
        let dir = tmpdir("quarantine");
        let m = meta();
        let head = format!(
            r#""version":1,"config_hash":{},"seed":{},"rounds":{},"stages":["name"]"#,
            m.config_hash, m.seed, m.rounds
        );
        for (extra, adopted) in [
            ("", true),
            (r#","quarantined":[]"#, true),
            (r#","quarantined":["r0.b1"]"#, false),
        ] {
            let rec = rec();
            fs::create_dir_all(&dir).unwrap();
            let manifest = format!("{{{head}{extra}}}");
            fsio::write_framed(&dir.join(MANIFEST_FILE), manifest.as_bytes(), "test.none").unwrap();
            let c = Checkpoint::open(&dir, m, true, &rec).unwrap();
            assert_eq!(c.is_done(Stage::Name), adopted, "{manifest}");
            let corrupt = rec.trace().counter("ckpt.manifest_corrupt");
            assert_eq!(corrupt, u64::from(!adopted), "{manifest}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
