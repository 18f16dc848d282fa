//! Output checks that do not trust the program's own report: the decoded
//! alignment (`--out` TSV) is scored against the dataset's `ent_links`, and
//! similarity matrices (`--sim-out`) are compared by content hash.

use std::collections::{HashMap, HashSet};
use std::path::Path;

/// What the `--out` TSV says about the dataset's ground-truth links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkScore {
    /// Predicted pairs in the TSV.
    pub predicted: usize,
    /// Ground-truth links the TSV reproduces exactly, as a share of all
    /// ground-truth links, in percent.
    pub recall_pct: f64,
}

fn two_columns<'a>(text: &'a str, what: &str) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut rows = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        match (cols.next(), cols.next(), cols.next()) {
            (Some(a), Some(b), None) if !a.is_empty() && !b.is_empty() => rows.push((a, b)),
            _ => return Err(format!("{what}:{}: expected two tab-separated keys", n + 1)),
        }
    }
    Ok(rows)
}

/// Scores a predictions TSV against `ent_links` (both `source\ttarget`
/// keys per line). Fails when the predictions are not one-to-one or name a
/// key outside `source_keys` / `target_keys`.
pub fn score_links(
    predictions: &str,
    ent_links: &str,
    source_keys: &HashSet<&str>,
    target_keys: &HashSet<&str>,
) -> Result<LinkScore, String> {
    let predicted = two_columns(predictions, "predictions")?;
    let truth = two_columns(ent_links, "ent_links")?;
    let mut by_source: HashMap<&str, &str> = HashMap::with_capacity(predicted.len());
    let mut targets: HashSet<&str> = HashSet::with_capacity(predicted.len());
    for &(s, t) in &predicted {
        if !source_keys.contains(s) {
            return Err(format!("predicted source {s:?} is not in the dataset"));
        }
        if !target_keys.contains(t) {
            return Err(format!("predicted target {t:?} is not in the dataset"));
        }
        if by_source.insert(s, t).is_some() {
            return Err(format!("source {s:?} is predicted twice"));
        }
        if !targets.insert(t) {
            return Err(format!("target {t:?} is predicted twice"));
        }
    }
    if truth.is_empty() {
        return Err("ent_links is empty".to_owned());
    }
    let hit = truth
        .iter()
        .filter(|(s, t)| by_source.get(s) == Some(t))
        .count();
    Ok(LinkScore {
        predicted: predicted.len(),
        recall_pct: 100.0 * hit as f64 / truth.len() as f64,
    })
}

/// The entity keys a triples file mentions (`head\trelation\ttail`).
pub fn triple_keys(triples: &str) -> HashSet<&str> {
    let mut keys = HashSet::new();
    for line in triples.lines() {
        let mut cols = line.split('\t');
        if let (Some(h), Some(_), Some(t)) = (cols.next(), cols.next(), cols.next()) {
            keys.insert(h);
            keys.insert(t);
        }
    }
    keys
}

/// FNV-1a over a file's bytes, for equality of `--sim-out` files.
pub fn file_hash(path: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINKS: &str = "s1\tt1\ns2\tt2\ns3\tt3\ns4\tt4\ns5\tt5\n";

    fn keys() -> (HashSet<&'static str>, HashSet<&'static str>) {
        (
            ["s1", "s2", "s3", "s4", "s5", "s6"].into(),
            ["t1", "t2", "t3", "t4", "t5", "t6"].into(),
        )
    }

    #[test]
    fn link_recall_on_a_five_line_tsv() {
        let (s, t) = keys();
        // three right, one wrong, one link missing; s6 is an extra prediction
        let tsv = "s1\tt1\ns2\tt2\ns3\tt3\ns4\tt5\ns6\tt6\n";
        let score = score_links(tsv, LINKS, &s, &t).unwrap();
        assert_eq!(score.predicted, 5);
        assert_eq!(score.recall_pct, 60.0);
    }

    #[test]
    fn bad_predictions_are_refused() {
        let (s, t) = keys();
        assert!(score_links("s1\tt1\ns1\tt2\n", LINKS, &s, &t)
            .unwrap_err()
            .contains("twice"));
        assert!(score_links("s1\tt1\ns2\tt1\n", LINKS, &s, &t)
            .unwrap_err()
            .contains("twice"));
        assert!(score_links("s9\tt1\n", LINKS, &s, &t)
            .unwrap_err()
            .contains("not in the dataset"));
        assert!(score_links("s1\tt9\n", LINKS, &s, &t)
            .unwrap_err()
            .contains("not in the dataset"));
        assert!(score_links("s1 t1\n", LINKS, &s, &t)
            .unwrap_err()
            .contains("two tab-separated"));
        assert!(score_links("s1\tt1\tx\n", LINKS, &s, &t).is_err());
    }

    #[test]
    fn triple_keys_collects_heads_and_tails() {
        let keys = triple_keys("a\tr\tb\nb\tr\tc\n");
        assert_eq!(keys, ["a", "b", "c"].into());
    }
}
