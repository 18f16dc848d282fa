//! Input generation: a workload's dataset is made from `--seed`, written as
//! OpenEA files under the work directory, and read back by `largeea stats`,
//! whose counts must match what the harness counts in the files itself. The
//! program under test only ever sees the generated files.

use crate::check;
use crate::child::{args, path_arg, Cli};
use crate::parse;
use crate::probes;
use crate::workloads::Workload;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const STATS_TIMEOUT: Duration = Duration::from_secs(60);

/// A generated dataset directory and the text of its files.
pub struct Dataset {
    /// Which of the seed's datasets this is (0 = the first).
    pub index: u64,
    pub dir: PathBuf,
    /// Source plus target entities: the input size behind `entities_per_s`.
    pub entities: usize,
    triples_1: String,
    triples_2: String,
    pub links: String,
}

impl Dataset {
    /// Entity keys of the source and target side: everything a triple or a
    /// link mentions, which is what the loader interns.
    pub fn keys(&self) -> (HashSet<&str>, HashSet<&str>) {
        let mut source = check::triple_keys(&self.triples_1);
        let mut target = check::triple_keys(&self.triples_2);
        for line in self.links.lines() {
            if let Some((s, t)) = line.split_once('\t') {
                source.insert(s);
                target.insert(t);
            }
        }
        (source, target)
    }
}

/// Where the workload's `index`-th dataset for `seed` lives under `work`.
fn dataset_dir(work: &Path, w: &Workload, seed: u64, index: u64) -> PathBuf {
    work.join("data")
        .join(format!("{}-{seed}-{index}", w.dataset))
}

/// Generates and saves the dataset, then has `largeea stats` reload it.
/// Returns the dataset and the seconds those three steps took; the count
/// comparison afterwards is not part of the time.
pub fn set_up(
    w: &Workload,
    seed: u64,
    index: u64,
    work: &Path,
    cli: &Cli,
) -> Result<(Dataset, f64), String> {
    let dir = dataset_dir(work, w, seed, index);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let cfg = probes::dataset_config(w, seed, index);
    let start = Instant::now();
    probes::generate_dataset(&cfg, &dir)?;
    let mut stats_args = args(&["stats", "--data"]);
    stats_args.push(path_arg(&dir));
    let stats = cli.run(&stats_args, STATS_TIMEOUT)?;
    let setup_s = start.elapsed().as_secs_f64();

    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("reading {name}: {e}"))
    };
    let mut dataset = Dataset {
        triples_1: read("rel_triples_1")?,
        triples_2: read("rel_triples_2")?,
        links: read("ent_links")?,
        entities: 0,
        index,
        dir,
    };
    let reported = parse::stats_out(&stats.stdout).map_err(|e| e.to_string())?;
    let (source, target) = dataset.keys();
    let lines = |text: &str| text.lines().filter(|l| !l.is_empty()).count() as u64;
    let counted = parse::StatsOut {
        source_entities: source.len() as u64,
        source_triples: lines(&dataset.triples_1),
        target_entities: target.len() as u64,
        target_triples: lines(&dataset.triples_2),
        links: lines(&dataset.links),
    };
    if counted.links != cfg.aligned as u64 {
        return Err(format!(
            "the generator was asked for {} links and wrote {}",
            cfg.aligned, counted.links
        ));
    }
    if reported != counted {
        return Err(format!(
            "`largeea stats` reports {reported:?}, the generated files hold {counted:?}"
        ));
    }
    dataset.entities = source.len() + target.len();
    Ok((dataset, setup_s))
}
