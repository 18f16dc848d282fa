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
//! [`Stage`] names the two results that cost real work to redo — `M_n` and
//! each mini-batch's similarity block — and is the one place their key
//! strings are spelled; everything else a run holds is recomputed from
//! them. [`Payload`] is the one encoding of each value, shared with the
//! spill store's disk backing.
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

/// One durable pipeline boundary: a result that costs real work to redo
/// (NFF's `M_n`, or one mini-batch's trained-and-scored block). The single
/// source of a stage's key — its manifest entry, its `<key>.ckpt` file and,
/// for blocks that wait in the spill store, its `<key>.spill` file
/// (docs/ARTIFACT_FORMAT.md §3) — and of the failpoint guarding its write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `name` — the name channel's `M_n`.
    Name,
    /// `r<R>.b<I>.sim` — one mini-batch's similarity block.
    Sim {
        /// Bootstrap round.
        round: usize,
        /// Mini-batch index.
        batch: usize,
    },
}

impl Stage {
    /// One stage of each kind, in pipeline order.
    const KINDS: [Stage; 2] = [Stage::Name, Stage::Sim { round: 0, batch: 0 }];

    /// The stage key.
    pub fn key(self) -> String {
        match self {
            Stage::Name => "name".to_owned(),
            Stage::Sim { round, batch } => format!("r{round}.b{batch}.sim"),
        }
    }

    /// The failpoint guarding the write of this stage's artifact.
    fn failpoint(self) -> FailpointSite {
        let (name, site) = match self {
            Stage::Name => (
                "ckpt.name",
                "name-channel M_n checkpoint artifact (core::checkpoint)",
            ),
            Stage::Sim { .. } => (
                "ckpt.sim",
                "per-batch similarity-block artifact (core::checkpoint)",
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
    pub fn load_or<T: Payload, E: From<CkptError>>(
        &mut self,
        stage: Stage,
        rec: &Recorder,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        if let Some(value) = self.load(stage, rec) {
            return Ok(value);
        }
        let value = compute()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::obs::{ObsConfig, Recorder};
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

    /// Whether `c` marks `stage` done.
    fn is_done(c: &Checkpoint, stage: Stage) -> bool {
        c.stages.contains(&stage.key())
    }

    /// A small batch block: rows 1 and 2 of a 3 × 3 matrix.
    fn toy_block() -> SimRows {
        let mut block = SimRows::new(3, 3);
        block.push(1, vec![(0, 0.5), (2, 0.25)]);
        block.push(2, vec![(1, 0.75)]);
        block
    }

    #[test]
    fn resume_false_discards_previous_stages() {
        let dir = tmpdir("discard");
        let rec = rec();
        let mut c = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        c.save(Stage::Name, &SparseSimMatrix::new(1, 1), &rec)
            .unwrap();
        let c2 = Checkpoint::open(&dir, meta(), false, &rec).unwrap();
        assert!(!is_done(&c2, Stage::Name), "non-resume open starts fresh");
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
            !is_done(&c2, Stage::Name),
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
                    let seen = if is_done(&c, Stage::Name) {
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
        let block = toy_block();
        let sim = Stage::Sim { round: 0, batch: 0 };
        c.save(sim, &block, &rec).unwrap();
        assert_eq!(c.load(sim, &rec), Some(block.clone()));
        // an intact frame around the wrong payload: the CRC passes, the
        // decoder refuses
        let apath = dir.join("r0.b0.sim.ckpt");
        fsio::write_framed(&apath, b"not a LEAS1 block", "test.none").unwrap();
        assert_eq!(c.load::<SimRows>(sim, &rec), None);
        assert!(!is_done(&c, sim), "stage unmarked for recompute");
        // and a flipped payload byte: the CRC refuses
        c.save(sim, &block, &rec).unwrap();
        let mut raw = fs::read(&apath).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        fs::write(&apath, &raw).unwrap();
        assert_eq!(c.load::<SimRows>(sim, &rec), None);
        let t = rec.trace();
        assert_eq!(t.counter("ckpt.artifact_corrupt"), 2);
        assert_eq!(
            t.counter("ckpt.resume_skipped_stages"),
            1,
            "a discarded stage is corrupt, not skipped"
        );
        // the unmark is durable: a fresh resume agrees
        let c2 = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
        assert!(!is_done(&c2, sim));
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
        let block = toy_block();
        let batch = Stage::Sim { round: 0, batch: 1 };
        let on_disk = Checkpoint::open(&dir, meta(), false, &rec()).unwrap();
        assert!(dir.join(MANIFEST_FILE).exists());
        for (mut c, enabled) in [(Checkpoint::disabled(), false), (on_disk, true)] {
            let rec = rec();
            assert!(!is_done(&c, Stage::Name));
            c.save(Stage::Name, &sim, &rec).unwrap();
            assert_eq!(is_done(&c, Stage::Name), enabled);
            assert_eq!(c.load(Stage::Name, &rec), enabled.then(|| sim.clone()));
            // the first `load_or` computes; the second loads what the first
            // saved, where there is somewhere to save to
            for computes in [true, !enabled] {
                let mut computed = false;
                let got = c.load_or(batch, &rec, || {
                    computed = true;
                    Ok::<_, CkptError>(block.clone())
                });
                assert_eq!(got.unwrap(), block);
                assert_eq!(computed, computes);
            }
            c.epoch_progress(0, 1, EPOCH_INTERVAL, 0.5);
            let t = rec.trace();
            if enabled {
                assert_eq!(t.counter("ckpt.resume_skipped_stages"), 2);
                assert_eq!(t.span_count("ckpt_write"), 2);
                assert!(t.counter("ckpt.write_bytes") > 0);
                for file in ["name.ckpt", "r0.b1.sim.ckpt", PROGRESS_FILE] {
                    assert!(dir.join(file).exists(), "{file}");
                }
                // all of it durable: a resume adopts the stages and loads them
                let mut resumed = Checkpoint::open(&dir, meta(), true, &rec).unwrap();
                assert!(is_done(&resumed, Stage::Name) && is_done(&resumed, batch));
                assert_eq!(resumed.load(batch, &rec), Some(block.clone()));
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
            assert_eq!(is_done(&c, Stage::Name), adopted, "{manifest}");
            let corrupt = rec.trace().counter("ckpt.manifest_corrupt");
            assert_eq!(corrupt, u64::from(!adopted), "{manifest}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
