//! OpenEA-style text IO.
//!
//! The on-disk layout mirrors the OpenEA / LargeEA release so real benchmark
//! dumps (DBP15K, IDS, DBP1M) can be dropped in unchanged:
//!
//! ```text
//! <dir>/rel_triples_1    head \t relation \t tail      (source KG)
//! <dir>/rel_triples_2    head \t relation \t tail      (target KG)
//! <dir>/ent_links        source_entity \t target_entity
//! <dir>/ent_labels_1     entity_key \t label            (optional)
//! <dir>/ent_labels_2     entity_key \t label            (optional)
//! ```
//!
//! The `ent_labels_*` side-files are an extension of ours: OpenEA encodes
//! names inside entity URIs, while generated benchmarks keep keys and
//! display labels separate. Loaders ignore the files when absent (keys then
//! double as labels, the DBpedia convention).
//!
//! Every file goes through one reader, [`scan_tsv`]: fixed-size block
//! reads, the partial last line carried into the next block, UTF-8 checked
//! per block, lines and fields cut at `\n` / `\t` bytes. Nothing is sized
//! from the input except a buffer that doubles for a line longer than a
//! block. Malformed lines and invalid UTF-8 produce a [`KgError::Parse`]
//! carrying the file name and line number. Files that passed through
//! Windows tooling (CRLF line endings), end in trailing blank lines or lack
//! the final newline load identically to their pristine form, and exact
//! duplicate `ent_links` lines — common in concatenated benchmark dumps —
//! are deduplicated (a duplicate link carries no information, but
//! double-counts in seed splits and evaluation).

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{BufRead, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use largeea_common::obs::Recorder;
use largeea_common::pool::Pool;

use crate::error::KgError;
use crate::graph::KnowledgeGraph;
use crate::interner::Interner;
use crate::pair::KgPair;
use crate::{EntityId, RelationId, Triple};

/// Bytes asked of the reader at a time.
const BLOCK: usize = 1 << 20;

/// What one [`scan_tsv`] call consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scanned {
    /// Bytes read.
    pub bytes: u64,
    /// Lines seen, blank ones included.
    pub lines: u64,
}

/// Reads `reader` to its end as lines of exactly `N` tab-separated fields,
/// handing each non-blank line's fields to `row`. Trailing `\r`s are
/// dropped before a line is looked at (otherwise a CRLF file's carriage
/// return silently becomes part of the last field and every key lookup
/// misses). Errors name `source_name` and the 1-based line; the first bad
/// line wins, whether its fault is the field count, its bytes, or `row`'s.
pub fn scan_tsv<const N: usize>(
    mut reader: impl Read,
    source_name: &str,
    mut row: impl FnMut([&str; N]) -> Result<(), KgError>,
) -> Result<Scanned, KgError> {
    let parse_error = |line: u64, message: String| KgError::Parse {
        source_name: source_name.to_owned(),
        line: line as usize,
        message,
    };
    let mut seen = Scanned::default();
    let mut buf = vec![0u8; BLOCK];
    // buf[..filled]: the carried start of a line, then what was just read
    let mut filled = 0;
    loop {
        if filled == buf.len() {
            buf.resize(2 * filled, 0);
        }
        let n = match reader.read(&mut buf[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let carried = filled;
        filled += n;
        seen.bytes += n as u64;
        if n == 0 && filled > 0 {
            // the input ends inside a line; `filled < buf.len()` here
            buf[filled] = b'\n';
            filled += 1;
        }
        let end = match buf[carried..filled].iter().rposition(|&b| b == b'\n') {
            Some(at) => carried + at + 1,
            None if n == 0 => return Ok(seen),
            None => continue,
        };
        // buf[..end] is whole lines; on bad bytes, the ones before them
        let (text, bad_utf8) = match std::str::from_utf8(&buf[..end]) {
            Ok(text) => (text, false),
            Err(e) => {
                let good = &buf[..e.valid_up_to()];
                let whole = good
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |at| at + 1);
                let text = std::str::from_utf8(&good[..whole]).expect("checked above");
                (text, true)
            }
        };
        let (mut start, mut tabs, mut n_tabs) = (0, [0; N], 0);
        for (at, &b) in text.as_bytes().iter().enumerate() {
            if b == b'\t' {
                if n_tabs < N {
                    tabs[n_tabs] = at;
                }
                n_tabs += 1;
            } else if b == b'\n' {
                seen.lines += 1;
                let line = text[start..at].trim_end_matches('\r');
                if !line.is_empty() {
                    if n_tabs != N - 1 {
                        let message = format!("expected {N} tab-separated fields, got {line:?}");
                        return Err(parse_error(seen.lines, message));
                    }
                    tabs[N - 1] = start + line.len();
                    let mut from = start;
                    row(tabs.map(|to| {
                        let field = &text[from..to];
                        from = to + 1;
                        field
                    }))?;
                }
                (start, n_tabs) = (at + 1, 0);
            }
        }
        if bad_utf8 {
            return Err(parse_error(seen.lines + 1, "invalid UTF-8".to_owned()));
        }
        if n == 0 {
            return Ok(seen);
        }
        buf.copy_within(end..filled, 0);
        filled -= end;
    }
}

/// One KG as the loader builds it: keys and triples, labels still to come.
#[derive(Default)]
struct Side {
    entities: Interner,
    relations: Interner,
    triples: Vec<Triple>,
}

impl Side {
    fn scan(reader: impl Read, source_name: &str) -> Result<(Side, Scanned), KgError> {
        let mut side = Side::default();
        let seen = scan_tsv(reader, source_name, |[h, r, t]| {
            side.triples.push(Triple {
                head: EntityId(side.entities.intern(h)),
                relation: RelationId(side.relations.intern(r)),
                tail: EntityId(side.entities.intern(t)),
            });
            Ok(())
        })?;
        Ok((side, seen))
    }

    /// Every entity's label: the last one the `ent_labels_*` file at `path`
    /// (which may be absent) gives its key, else the key itself. Lines for
    /// keys the KG does not have are skipped.
    fn labels(&self, path: &Path) -> Result<(Vec<String>, Scanned), KgError> {
        let mut given: Vec<Option<String>> = vec![None; self.entities.len()];
        let seen = match File::open(path) {
            Ok(file) => scan_tsv(file, &path.display().to_string(), |[key, label]| {
                if let Some(id) = self.entities.get(key) {
                    given[id as usize] = Some(label.to_owned());
                }
                Ok(())
            })?,
            Err(e) if e.kind() == ErrorKind::NotFound => Scanned::default(),
            Err(e) => return Err(e.into()),
        };
        let labels = given
            .into_iter()
            .zip(self.entities.iter())
            .map(|(label, (_, key))| label.unwrap_or_else(|| key.to_owned()))
            .collect();
        Ok((labels, seen))
    }

    fn into_kg(self, name: &str, labels: Vec<String>) -> KnowledgeGraph {
        KnowledgeGraph::from_parts(name, self.entities, labels, self.relations, self.triples)
    }
}

/// Parses a triple file from any reader. `source_name` is used in errors.
pub fn read_triples<R: BufRead>(
    reader: R,
    source_name: &str,
    kg_name: &str,
) -> Result<KnowledgeGraph, KgError> {
    let (side, _) = Side::scan(reader, source_name)?;
    let labels = side.entities.iter().map(|(_, key)| key.to_owned());
    let labels = labels.collect();
    Ok(side.into_kg(kg_name, labels))
}

/// The links of an `ent_links` file (two tab-separated entity keys per
/// line) in first-seen order, each key turned into an id by its side's
/// closure.
fn scan_links(
    reader: impl Read,
    source_name: &str,
    mut source: impl FnMut(&str) -> Result<EntityId, KgError>,
    mut target: impl FnMut(&str) -> Result<EntityId, KgError>,
) -> Result<(Vec<(EntityId, EntityId)>, Scanned), KgError> {
    let mut links = Vec::new();
    let mut seen = HashSet::new();
    let scanned = scan_tsv(reader, source_name, |[a, b]| {
        let link = (source(a)?, target(b)?);
        if seen.insert(link) {
            links.push(link);
        }
        Ok(())
    })?;
    Ok((links, scanned))
}

/// Parses an `ent_links` file and resolves the keys against the two KGs.
pub fn read_links<R: BufRead>(
    reader: R,
    source_name: &str,
    source: &KnowledgeGraph,
    target: &KnowledgeGraph,
) -> Result<Vec<(EntityId, EntityId)>, KgError> {
    let resolve = |kg: &KnowledgeGraph, side: &'static str, key: &str| {
        kg.entity_id(key)
            .ok_or_else(|| KgError::UnknownAlignmentEntity {
                name: key.to_owned(),
                side,
            })
    };
    let (source, target) = (
        |key: &str| resolve(source, "source", key),
        |key: &str| resolve(target, "target", key),
    );
    Ok(scan_links(reader, source_name, source, target)?.0)
}

/// Loads a full [`KgPair`] from an OpenEA-layout directory.
pub fn load_pair(dir: &Path, source_name: &str, target_name: &str) -> Result<KgPair, KgError> {
    let rec = Recorder::disabled();
    load_pair_in(Pool::global(), dir, source_name, target_name, &rec)
}

/// [`load_pair`] on `pool`, recorded as one `load` span (`bytes`, `lines`,
/// `entities`, `triples`, `threads`).
///
/// The two triple files are parsed side by side, then `ent_links` (which
/// interns entities no triple mentions — isolated entities are
/// representable there but not in the triple files), then the two label
/// files side by side. Each side's interner is only ever touched by one
/// task, in file order, so ids, labels, triples and alignment are the same
/// at any pool width; of several bad files the first in that order is
/// reported.
pub fn load_pair_in(
    pool: &Pool,
    dir: &Path,
    source_name: &str,
    target_name: &str,
    rec: &Recorder,
) -> Result<KgPair, KgError> {
    let mut span = rec.span("load");
    let both = |stem: &str| [1, 2].map(|side| dir.join(format!("{stem}_{side}")));
    let triples = both("rel_triples");
    let ((mut source, seen_1), (mut target, seen_2)) = on_both(pool, |side| {
        let path = &triples[side];
        Side::scan(File::open(path)?, &path.display().to_string())
    })?;
    let links = dir.join("ent_links");
    let (alignment, seen_links) = scan_links(
        File::open(&links)?,
        &links.display().to_string(),
        |key| Ok(EntityId(source.entities.intern(key))),
        |key| Ok(EntityId(target.entities.intern(key))),
    )?;
    let labels = both("ent_labels");
    let sides = [&source, &target];
    let ((labels_1, seen_3), (labels_2, seen_4)) =
        on_both(pool, |side| sides[side].labels(&labels[side]))?;
    let seen = [seen_1, seen_2, seen_links, seen_3, seen_4];
    span.field("bytes", seen.iter().map(|s| s.bytes).sum::<u64>());
    span.field("lines", seen.iter().map(|s| s.lines).sum::<u64>());
    span.field("entities", source.entities.len() + target.entities.len());
    span.field("triples", source.triples.len() + target.triples.len());
    span.field("threads", pool.threads());
    let source = source.into_kg(source_name, labels_1);
    let target = target.into_kg(target_name, labels_2);
    Ok(KgPair::new(source, target, alignment))
}

/// `f(0)` and `f(1)`, on two of the pool's threads when it has them. The
/// first side's error wins, as it would running them in turn.
fn on_both<T: Send>(
    pool: &Pool,
    f: impl Fn(usize) -> Result<T, KgError> + Sync,
) -> Result<(T, T), KgError> {
    let halves = pool.map_blocks(2, 1, |sides| sides.map(&f).collect::<Vec<_>>());
    let mut done = halves.into_iter().flatten();
    let mut next = || done.next().expect("map_blocks covers 0..2");
    Ok((next()?, next()?))
}

/// Writes one KG's triples in the OpenEA text format.
pub fn write_triples<W: Write>(kg: &KnowledgeGraph, writer: W) -> Result<(), KgError> {
    let mut w = BufWriter::new(writer);
    for t in kg.triples() {
        writeln!(
            w,
            "{}\t{}\t{}",
            kg.entity_key(t.head),
            kg.relation_name(t.relation),
            kg.entity_key(t.tail)
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Saves a full [`KgPair`] into `dir` using the OpenEA layout (plus the
/// `ent_labels_*` side-files when any label differs from its key).
pub fn save_pair(pair: &KgPair, dir: &Path) -> Result<(), KgError> {
    fs::create_dir_all(dir)?;
    write_triples(&pair.source, File::create(dir.join("rel_triples_1"))?)?;
    write_triples(&pair.target, File::create(dir.join("rel_triples_2"))?)?;
    let mut w = BufWriter::new(File::create(dir.join("ent_links"))?);
    for &(s, t) in &pair.alignment {
        writeln!(
            w,
            "{}\t{}",
            pair.source.entity_key(s),
            pair.target.entity_key(t)
        )?;
    }
    w.flush()?;
    write_labels(&pair.source, dir.join("ent_labels_1"))?;
    write_labels(&pair.target, dir.join("ent_labels_2"))?;
    Ok(())
}

/// Writes the `key \t label` side-file if any entity has a distinct label.
fn write_labels(kg: &KnowledgeGraph, path: std::path::PathBuf) -> Result<(), KgError> {
    let any = kg
        .entity_ids()
        .any(|e| kg.entity_key(e) != kg.entity_label(e));
    if !any {
        return Ok(());
    }
    let mut w = BufWriter::new(File::create(path)?);
    for e in kg.entity_ids() {
        writeln!(w, "{}\t{}", kg.entity_key(e), kg.entity_label(e))?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_triples_parses_tsv() {
        let data = "a\tr\tb\nb\tr\tc\n";
        let kg = read_triples(Cursor::new(data), "mem", "EN").unwrap();
        assert_eq!(kg.num_entities(), 3);
        assert_eq!(kg.num_triples(), 2);
    }

    #[test]
    fn read_triples_skips_blank_lines() {
        let data = "a\tr\tb\n\nb\tr\tc\n";
        let kg = read_triples(Cursor::new(data), "mem", "EN").unwrap();
        assert_eq!(kg.num_triples(), 2);
    }

    #[test]
    fn read_triples_reports_line_numbers() {
        let data = "a\tr\tb\nbad line\n";
        let err = read_triples(Cursor::new(data), "mem", "EN").unwrap_err();
        assert!(err.to_string().contains("mem:2"), "{err}");
    }

    #[test]
    fn read_triples_handles_crlf_and_trailing_blank_lines() {
        // a Windows-edited dump: CRLF endings plus trailing blank lines
        let crlf = "a\tr\tb\r\nb\tr\tc\r\n\r\n\n";
        let kg = read_triples(Cursor::new(crlf), "mem", "EN").unwrap();
        assert_eq!(kg.num_triples(), 2);
        // the carriage return must not leak into the tail entity's key
        assert!(kg.entity_id("c").is_some(), "key 'c' polluted by \\r");
        assert!(kg.entity_id("c\r").is_none());
        // and the result is identical to the pristine LF file
        let lf = read_triples(Cursor::new("a\tr\tb\nb\tr\tc\n"), "mem", "EN").unwrap();
        assert_eq!(kg.num_entities(), lf.num_entities());
        assert_eq!(kg.num_triples(), lf.num_triples());
    }

    #[test]
    fn crlf_line_with_bad_field_count_still_reports_cleanly() {
        let err =
            read_triples(Cursor::new("a\tr\tb\r\nonly-one-field\r\n"), "mem", "EN").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("mem:2"), "{msg}");
        assert!(!msg.contains("\\r"), "error quotes the cleaned line: {msg}");
    }

    #[test]
    fn read_links_resolves_both_sides() {
        let s = read_triples(Cursor::new("a\tr\tb\n"), "s", "EN").unwrap();
        let t = read_triples(Cursor::new("x\tr\ty\n"), "t", "FR").unwrap();
        let links = read_links(Cursor::new("a\tx\nb\ty\n"), "l", &s, &t).unwrap();
        assert_eq!(links.len(), 2);
    }

    #[test]
    fn read_links_rejects_unknown_entity() {
        let s = read_triples(Cursor::new("a\tr\tb\n"), "s", "EN").unwrap();
        let t = read_triples(Cursor::new("x\tr\ty\n"), "t", "FR").unwrap();
        let err = read_links(Cursor::new("a\tmissing\n"), "l", &s, &t).unwrap_err();
        assert!(err.to_string().contains("target"));
    }

    #[test]
    fn duplicate_links_are_deduplicated() {
        let s = read_triples(Cursor::new("a\tr\tb\n"), "s", "EN").unwrap();
        let t = read_triples(Cursor::new("x\tr\ty\n"), "t", "FR").unwrap();
        // the same link three times (once with CRLF), plus a distinct one
        let data = "a\tx\na\tx\r\nb\ty\na\tx\n";
        let links = read_links(Cursor::new(data), "l", &s, &t).unwrap();
        let id = |kg: &KnowledgeGraph, key| kg.entity_id(key).unwrap();
        // duplicates collapse, first-seen order stays
        assert_eq!(
            links,
            [(id(&s, "a"), id(&t, "x")), (id(&s, "b"), id(&t, "y"))]
        );
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_naming_the_line() {
        let data = b"a\tr\tb\n\nb\tr\t\xff\nbad line\n";
        let err = read_triples(Cursor::new(&data[..]), "mem", "EN").unwrap_err();
        assert!(matches!(err, KgError::Parse { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("mem:3: invalid UTF-8"), "{err}");
        // an earlier malformed line still wins
        let data = b"a\tr\tb\nbad line\nb\tr\t\xff\n";
        let err = read_triples(Cursor::new(&data[..]), "mem", "EN").unwrap_err();
        assert!(err.to_string().contains("mem:2: expected 3"), "{err}");
    }

    #[test]
    fn unterminated_last_lines_and_blank_only_files_load() {
        let kg = read_triples(Cursor::new("a\tr\tb\nb\tr\tc"), "mem", "EN").unwrap();
        assert_eq!(kg.num_triples(), 2);
        assert_eq!(kg.entity_key(kg.triples()[1].tail), "c");
        for blank in ["", "\n", "\r\n\n\r\n", "\r"] {
            let kg = read_triples(Cursor::new(blank), "mem", "EN").unwrap();
            assert_eq!((kg.num_entities(), kg.num_triples()), (0, 0), "{blank:?}");
        }
        let seen = scan_tsv(Cursor::new("a\tb\n\nc\td"), "mem", |[_, _]| Ok(())).unwrap();
        assert_eq!(seen, Scanned { bytes: 8, lines: 3 });
    }

    #[test]
    fn roundtrip_through_tempdir() {
        let mut s = KnowledgeGraph::new("EN");
        s.add_triple_by_name("a", "r", "b");
        let mut t = KnowledgeGraph::new("FR");
        t.add_triple_by_name("x", "q", "y");
        let a = (s.entity_id("a").unwrap(), t.entity_id("x").unwrap());
        let pair = KgPair::new(s, t, vec![a]);

        let dir = std::env::temp_dir().join(format!("largeea_io_test_{}", std::process::id()));
        save_pair(&pair, &dir).unwrap();
        let loaded = load_pair(&dir, "EN", "FR").unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(loaded.source.num_triples(), 1);
        assert_eq!(loaded.target.num_triples(), 1);
        assert_eq!(loaded.alignment.len(), 1);
        assert_eq!(loaded.source.entity_key(loaded.alignment[0].0), "a");
    }
}
