//! The block-scanning, arena-interning loader against the line loader it
//! replaced, kept here as the oracle: `BufRead::lines()`, one `String` per
//! line, a `HashMap` per interner, the five files strictly one after the
//! other. Equal on everything a caller can see — ids, keys, labels, triple
//! and alignment order, which line of which file an error names — over
//! generated and over damaged directories.

use largeea_common::check::{for_each_case, mutate, string_from};
use largeea_common::obs::{ObsConfig, Recorder};
use largeea_common::rng::Rng;
use largeea_kg::io::{self, Scanned};
use largeea_kg::{KgError, KgPair, KnowledgeGraph};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// The size of the loader's reads (`io`'s `BLOCK`).
const BLOCK: usize = 1 << 20;
const FILES: [&str; 5] = [
    "rel_triples_1",
    "rel_triples_2",
    "ent_links",
    "ent_labels_1",
    "ent_labels_2",
];

// --- the oracle -----------------------------------------------------------

#[derive(Debug, Default, PartialEq)]
struct Names {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        self.ids.insert(name.to_owned(), self.names.len() as u32);
        self.names.push(name.to_owned());
        self.names.len() as u32 - 1
    }
}

/// What a loaded KG looks like from outside.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    keys: Vec<String>,
    labels: Vec<String>,
    relations: Vec<String>,
    triples: Vec<(u32, u32, u32)>,
}

#[derive(Debug, PartialEq)]
enum Failure {
    /// `(file name, 1-based line)`.
    Parse(String, usize),
    Io,
}

/// Non-blank lines of `path` split into exactly `n` fields, the old way.
fn old_lines(path: &Path, n: usize, mut row: impl FnMut(Vec<&str>)) -> Result<(), Failure> {
    let file_name = path.file_name().unwrap().to_str().unwrap().to_owned();
    let file = std::fs::File::open(path).map_err(|_| Failure::Io)?;
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let bad = || Failure::Parse(file_name.clone(), lineno + 1);
        let line = line.map_err(|_| bad())?;
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != n {
            return Err(bad());
        }
        row(fields);
    }
    Ok(())
}

type Links = Vec<(u32, u32)>;

fn old_load(dir: &Path) -> Result<(Seen, Seen, Links), Failure> {
    let mut sides = [(Names::default(), Seen::default()), Default::default()];
    for (side, (keys, seen)) in sides.iter_mut().enumerate() {
        let mut relations = Names::default();
        old_lines(&dir.join(FILES[side]), 3, |f| {
            let (h, r, t) = (keys.intern(f[0]), relations.intern(f[1]), keys.intern(f[2]));
            seen.triples.push((h, r, t));
        })?;
        seen.relations = relations.names;
    }
    let [(keys_1, mut seen_1), (keys_2, mut seen_2)] = sides;
    let (mut keys_1, mut keys_2) = (keys_1, keys_2);
    let (mut links, mut dedup) = (Vec::new(), HashSet::new());
    old_lines(&dir.join(FILES[2]), 2, |f| {
        let link = (keys_1.intern(f[0]), keys_2.intern(f[1]));
        if dedup.insert(link) {
            links.push(link);
        }
    })?;
    for (side, keys, seen) in [(0, keys_1, &mut seen_1), (1, keys_2, &mut seen_2)] {
        seen.labels = keys.names.clone();
        let path = dir.join(FILES[3 + side]);
        if path.exists() {
            old_lines(&path, 2, |f| {
                if let Some(&id) = keys.ids.get(f[0]) {
                    seen.labels[id as usize] = f[1].to_owned();
                }
            })?;
        }
        seen.keys = keys.names;
    }
    Ok((seen_1, seen_2, links))
}

// --- the loader under test, seen the same way ------------------------------

fn seen(kg: &KnowledgeGraph) -> Seen {
    let ids = || kg.entity_ids();
    let relations = 0..kg.num_relations() as u32;
    Seen {
        keys: ids().map(|e| kg.entity_key(e).to_owned()).collect(),
        labels: ids().map(|e| kg.entity_label(e).to_owned()).collect(),
        relations: relations
            .map(|r| kg.relation_name(largeea_kg::RelationId(r)).to_owned())
            .collect(),
        triples: kg
            .triples()
            .iter()
            .map(|t| (t.head.0, t.relation.0, t.tail.0))
            .collect(),
    }
}

fn new_load(dir: &Path) -> Result<(Seen, Seen, Links), Failure> {
    match io::load_pair(dir, "S", "T") {
        Ok(KgPair {
            source,
            target,
            alignment,
        }) => {
            assert_eq!((source.name(), target.name()), ("S", "T"));
            let links = alignment.iter().map(|&(s, t)| (s.0, t.0)).collect();
            Ok((seen(&source), seen(&target), links))
        }
        Err(KgError::Parse {
            source_name, line, ..
        }) => {
            let file = Path::new(&source_name).file_name().unwrap();
            Err(Failure::Parse(file.to_str().unwrap().to_owned(), line))
        }
        Err(KgError::Io(_)) => Err(Failure::Io),
        Err(other) => panic!("the loader has no business failing with {other}"),
    }
}

/// Old and new agree on `dir`; returns what they agree on.
fn assert_equal_on(dir: &Path) -> Result<(Seen, Seen, Links), Failure> {
    let old = old_load(dir);
    assert_eq!(new_load(dir), old);
    old
}

// --- directories to load ----------------------------------------------------

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("largeea_loader_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// Writes the five files; an absent one is `None`.
    fn fill(&self, files: &[Option<Vec<u8>>; 5]) {
        for (name, bytes) in FILES.iter().zip(files) {
            let path = self.0.join(name);
            match bytes {
                Some(bytes) => std::fs::write(path, bytes).unwrap(),
                None => drop(std::fs::remove_file(path)),
            }
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A well-formed but untidy directory: CRLF here and there, blank lines,
/// repeated links, entities only `ent_links` knows, labels for keys nobody
/// knows, a label given twice, label files that may be missing, last lines
/// that may lack their newline.
fn untidy_pair(rng: &mut Rng) -> [Option<Vec<u8>>; 5] {
    const ALPHABET: &str = "abcé→ \u{0}x";
    let n = rng.gen_range(1..40usize);
    let key = |rng: &mut Rng, side: usize| format!("{side}/{}", rng.gen_range(0..n));
    let lines = |rng: &mut Rng, rows: Vec<String>| {
        let mut text = String::new();
        let crlf_file = rng.gen_bool(0.3);
        for (i, row) in rows.iter().enumerate() {
            while rng.gen_bool(0.1) {
                text.push_str(["\n", "\r\n", "\r\r\n"][rng.gen_range(0..3usize)]);
            }
            text.push_str(row);
            let last = i + 1 == rows.len();
            if !(last && rng.gen_bool(0.3)) {
                text.push_str(if crlf_file || rng.gen_bool(0.1) {
                    "\r\n"
                } else {
                    "\n"
                });
            }
        }
        Some(text.into_bytes())
    };
    let triples = |rng: &mut Rng, side: usize| {
        let rows = (0..rng.gen_range(0..80usize)).map(|_| {
            let r = string_from(rng, ALPHABET, 0, 3);
            format!("{}\t{r}\t{}", key(rng, side), key(rng, side))
        });
        rows.collect::<Vec<_>>()
    };
    let labels = |rng: &mut Rng, side: usize| {
        let rows = (0..rng.gen_range(0..60usize)).map(|_| {
            // every fourth key or so is one no triple or link mentions
            let key = match rng.gen_bool(0.25) {
                true => format!("{side}/nobody{}", rng.gen_range(0..5u32)),
                false => key(rng, side),
            };
            format!("{key}\t{}", string_from(rng, ALPHABET, 0, 6))
        });
        rows.collect::<Vec<_>>()
    };
    let (t1, t2) = (triples(rng, 0), triples(rng, 1));
    let links = (0..rng.gen_range(0..50usize)).map(|_| match rng.gen_bool(0.2) {
        true => format!(
            "0/only-linked{}\t1/only-linked{}",
            rng.gen_range(0..4u32),
            rng.gen_range(0..4u32)
        ),
        false => format!("{}\t{}", key(rng, 0), key(rng, 1)),
    });
    let links = links.collect::<Vec<_>>();
    let (l1, l2) = (labels(rng, 0), labels(rng, 1));
    [
        lines(rng, t1),
        lines(rng, t2),
        lines(rng, links),
        lines(rng, l1).filter(|_| rng.gen_bool(0.7)),
        lines(rng, l2).filter(|_| rng.gen_bool(0.7)),
    ]
}

#[test]
fn load_pair_equals_the_line_loader_on_untidy_directories() {
    let dir = TempDir::new("untidy");
    let loaded = std::cell::Cell::new(0usize);
    for_each_case(0x10AD, 150, |rng| {
        dir.fill(&untidy_pair(rng));
        let (source, _, links) = assert_equal_on(&dir.0).expect("well-formed files load");
        loaded.set(loaded.get() + source.triples.len() + links.len());
    });
    assert!(loaded.get() > 2000, "the cases were not all empty");
}

#[test]
fn lines_and_characters_that_straddle_a_block_boundary_stay_whole() {
    // rel_triples_1: the two bytes of an `é` sit on either side of the
    // first block boundary, a 300 KiB line crosses the second, and the file
    // ends in the middle of the third block without a newline
    let mut text = String::new();
    let mut i = 0;
    while text.len() < BLOCK - 64 {
        text.push_str(&format!("0/{}\tr{}\t0/{}\n", i % 5000, i % 7, i % 4999));
        i += 1;
    }
    let row = "0/x\tr\t0/";
    text.push_str(row);
    text.push_str(&"y".repeat(BLOCK - text.len() - 1));
    assert_eq!(text.len(), BLOCK - 1);
    text.push_str("é\n");
    while text.len() < 2 * BLOCK - 1000 {
        text.push_str(&format!("0/{}\tr{}\t0/{}\r\n", i % 5000, i % 7, i % 4999));
        i += 1;
    }
    text.push_str(&format!("0/long{}\tr\t0/0\n", "z".repeat(300 << 10)));
    text.push_str("0/last\tr\t0/unterminated");
    let dir = TempDir::new("straddle");
    let small = |s: &str| Some(s.as_bytes().to_vec());
    dir.fill(&[
        Some(text.clone().into_bytes()),
        small("1/a\tr\t1/b\n"),
        small("0/0\t1/a\n0/last\t1/b\n"),
        small("0/unterminated\tthe last key\n"),
        None,
    ]);
    let (source, _, _) = assert_equal_on(&dir.0).expect("loads");
    assert!(source.keys.iter().any(|k| k.ends_with("yé")));
    let last = source
        .keys
        .iter()
        .position(|k| k == "0/unterminated")
        .unwrap();
    assert_eq!(source.labels[last], "the last key");

    // and a bad line past the boundaries is still counted from line 1
    let lines = text.lines().count();
    for (damage, line) in [
        ("\nonly\ttwo", lines + 1),
        ("\n\n\n\u{0}\t\t\t\u{0}", lines + 3),
    ] {
        let mut bad = text.clone().into_bytes();
        bad.extend_from_slice(damage.as_bytes());
        std::fs::write(dir.0.join(FILES[0]), bad).unwrap();
        let expected = Failure::Parse(FILES[0].to_owned(), line);
        assert_eq!(assert_equal_on(&dir.0), Err(expected));
    }
}

/// Hands out its bytes a few at a time, as a pipe or a socket may.
struct Trickle<'a>(&'a [u8], Rng);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.1.gen_range(1..8usize).min(buf.len()).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

#[test]
fn short_reads_change_nothing() {
    for_each_case(0x7B1C, 60, |rng| {
        let [triples, ..] = untidy_pair(rng);
        let mut bytes = triples.unwrap();
        if rng.gen_bool(0.5) {
            mutate(rng, &mut bytes, b"\t\n", 40);
        }
        let scan = |reader: &mut dyn Read| {
            let mut rows = Vec::new();
            let seen = io::scan_tsv(reader, "mem", |[h, r, t]| {
                rows.push([h.to_owned(), r.to_owned(), t.to_owned()]);
                Ok(())
            });
            (rows, seen.map_err(|e| e.to_string()))
        };
        let whole = scan(&mut &bytes[..]);
        let trickled = scan(&mut Trickle(&bytes, Rng::seed_from_u64(rng.next_u64())));
        assert_eq!(whole, trickled);
        if let (_, Ok(seen)) = whole {
            let lines = bytes.split(|&b| b == b'\n').count() - usize::from(bytes.ends_with(b"\n"));
            let lines = if bytes.is_empty() { 0 } else { lines as u64 };
            let bytes = bytes.len() as u64;
            assert_eq!(seen, Scanned { bytes, lines });
        }
    });
}

#[test]
fn damaged_files_fail_typed_on_the_line_the_line_loader_names() {
    let dir = TempDir::new("fuzz");
    let (ok, parse) = (std::cell::Cell::new(0u32), std::cell::Cell::new(0u32));
    for_each_case(0xF022, 240, |rng| {
        let mut files = untidy_pair(rng);
        // both label files present, so all three kinds can be damaged
        for (slot, fallback) in [(3, "0/0\tzero\n"), (4, "1/0\tnull\n")] {
            files[slot].get_or_insert_with(|| fallback.as_bytes().to_vec());
        }
        let victim = rng.gen_range(0..5usize);
        let bytes = files[victim].as_mut().unwrap();
        for _ in 0..rng.gen_range(1..4u32) {
            // now and then a single line of a block and more
            let max_run = if rng.gen_bool(0.05) { BLOCK + 4096 } else { 48 };
            mutate(rng, bytes, b"\t\n", max_run);
        }
        dir.fill(&files);
        // no panic, the same outcome, the same file and line
        match assert_equal_on(&dir.0) {
            Ok(_) => ok.set(ok.get() + 1),
            Err(Failure::Parse(file, _)) => {
                assert_eq!(file, FILES[victim], "only one file was damaged");
                parse.set(parse.get() + 1);
            }
            Err(Failure::Io) => panic!("every file is there"),
        }
    });
    assert!(
        ok.get() > 20 && parse.get() > 20,
        "{ok:?} loaded, {parse:?} failed"
    );
}

#[test]
fn a_missing_triple_or_link_file_is_an_io_error_and_the_load_span_counts() {
    let dir = TempDir::new("span");
    let small = |s: &str| Some(s.as_bytes().to_vec());
    let files = [
        small("a\tr\tb\r\n\nb\tr\tc\n"),
        small("x\tq\ty"),
        small("a\tx\nlonely\ty\na\tx\n"),
        small("a\tAlpha\nnobody\tNemo\n"),
        None,
    ];
    dir.fill(&files);
    let rec = Recorder::new(ObsConfig::default());
    let pair = io::load_pair_traced(&dir.0, "S", "T", &rec).unwrap();
    assert_eq!(pair.alignment.len(), 2);
    let labels: Vec<&str> = pair.source.labels().iter().collect();
    assert_eq!(labels, ["Alpha", "b", "c", "lonely"]);
    let trace = rec.trace();
    let load = trace.find("load").expect("one load span");
    let bytes: usize = files.iter().flatten().map(Vec::len).sum();
    let field = |key: &str| load.field_u64(key).unwrap();
    assert_eq!(field("bytes"), bytes as u64);
    assert_eq!(field("lines"), 3 + 1 + 3 + 2);
    assert_eq!((field("entities"), field("triples")), (4 + 2, 2 + 1));
    // the source's label arena (13 bytes of text, 4 offsets); the target's
    // labels are its keys
    assert_eq!(field("label_bytes"), 13 + 4 * 4);

    for missing in 0..3 {
        let mut files = files.clone();
        files[missing] = None;
        dir.fill(&files);
        assert_eq!(
            assert_equal_on(&dir.0),
            Err(Failure::Io),
            "{}",
            FILES[missing]
        );
    }
}
