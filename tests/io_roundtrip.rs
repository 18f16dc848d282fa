//! Integration tests for dataset IO and generation through the facade.

use largeea::common::check::for_each_case;
use largeea::common::obs::{ObsConfig, Recorder};
use largeea::data::{Language, NameNoise, PairGenConfig, Preset};
use largeea::kg::{io, KgStats};

#[test]
fn generated_pair_roundtrips_through_openea_layout() {
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let dir = std::env::temp_dir().join(format!("largeea_roundtrip_{}", std::process::id()));
    io::save_pair(&pair, &dir).expect("save");
    let loaded = io::load_pair(&dir, "EN", "FR").expect("load");
    std::fs::remove_dir_all(&dir).ok();

    // entities isolated AND unaligned are unrepresentable in the layout;
    // everything else must survive
    assert!(loaded.source.num_entities() <= pair.source.num_entities());
    assert_eq!(loaded.source.num_triples(), pair.source.num_triples());
    assert_eq!(loaded.target.num_triples(), pair.target.num_triples());
    assert_eq!(loaded.alignment.len(), pair.alignment.len());
    // keys and generated labels survive verbatim (label side-files)
    let e0 = pair.alignment[0].0;
    let key = pair.source.entity_key(e0);
    let reloaded_id = loaded.source.entity_id(key).expect("key survives");
    assert_eq!(
        loaded.source.entity_label(reloaded_id),
        pair.source.entity_label(e0)
    );
}

#[test]
fn unicode_labels_survive_roundtrip() {
    use largeea::kg::{KgPair, KnowledgeGraph};
    let mut s = KnowledgeGraph::new("DE");
    s.add_triple_by_name("München", "liegt_in", "Bayern");
    let mut t = KnowledgeGraph::new("FR");
    t.add_triple_by_name("Munich", "situé_en", "Bavière");
    let pair = KgPair::new(
        s.clone(),
        t,
        vec![(s.entity_id("München").unwrap(), largeea::kg::EntityId(0))],
    );
    let dir = std::env::temp_dir().join(format!("largeea_unicode_{}", std::process::id()));
    io::save_pair(&pair, &dir).expect("save");
    let loaded = io::load_pair(&dir, "DE", "FR").expect("load");
    std::fs::remove_dir_all(&dir).ok();
    assert!(loaded.source.entity_id("München").is_some());
    assert!(loaded.target.entity_id("Bavière").is_some());
}

#[test]
fn generator_respects_arbitrary_configs() {
    for_each_case(0x10C0, 16, |rng| {
        let aligned = rng.gen_range(10..200usize);
        let unknown_s = rng.gen_range(0..40usize);
        let unknown_t = rng.gen_range(0..40usize);
        let triples_mult = rng.gen_range(2..6usize);
        let heterogeneity = rng.gen_range(0.0f64..1.0);
        let seed = rng.gen_range(0..10_000u64);
        let cfg = PairGenConfig {
            aligned,
            unknown_source: unknown_s,
            unknown_target: unknown_t,
            relations_source: 8,
            relations_target: 6,
            triples_source: aligned * triples_mult,
            triples_target: aligned * triples_mult / 2,
            heterogeneity,
            communities: 3,
            community_locality: 0.8,
            name_noise: NameNoise::default(),
            source_lang: Language::En,
            target_lang: Language::Fr,
            seed,
        };
        let pair = largeea::data::generate_pair(&cfg);
        assert_eq!(pair.source.num_entities(), aligned + unknown_s);
        assert_eq!(pair.target.num_entities(), aligned + unknown_t);
        assert_eq!(pair.alignment.len(), aligned);
        assert!(pair.validate().is_ok());
        assert_eq!(pair.source.num_triples(), aligned * triples_mult);
        // stats never panic and degree sums are consistent
        let stats = KgStats::of(&pair.source);
        assert!(stats.max_degree >= 1);
    });
}

/// Label side-files as they come from other tools: a key given twice (the
/// last line wins), a key the KG does not have (skipped), CRLF line ends
/// (not part of the label), an empty label (kept: it is not the key), a
/// blank line, and a file without a final newline. Invalid UTF-8 is a
/// typed parse error naming its line.
#[test]
fn hostile_label_files_load_the_labels_the_line_loader_did() {
    use largeea::kg::KgError;
    let dir = std::env::temp_dir().join(format!("largeea_labels_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, bytes: &[u8]| std::fs::write(dir.join(name), bytes).unwrap();
    write("rel_triples_1", b"a\tr\tb\nb\tr\tc\nc\tr\td\n");
    write("rel_triples_2", b"w\tq\tx\nx\tq\ty\n");
    write("ent_links", b"a\tw\nb\tx\nlonely\ty\n");
    write(
        "ent_labels_1",
        b"a\tFirst\r\nghost\tNobody\nb\t\n\nc\tSee (letter)\r\na\tAlpha\nlonely\tSolo",
    );
    write("ent_labels_2", b"x\tEx\n");
    let pair = io::load_pair(&dir, "S", "T").expect("load");
    fn labels(kg: &largeea::kg::KnowledgeGraph) -> Vec<&str> {
        kg.labels().iter().collect()
    }
    // ids: a b c d from the triples, then the link-only `lonely`
    assert_eq!(
        labels(&pair.source),
        ["Alpha", "", "See (letter)", "d", "Solo"]
    );
    assert_eq!(labels(&pair.target), ["w", "Ex", "y"]);
    assert!(pair.source.entity_id("ghost").is_none());

    // a file whose labels are (at last) their keys loads as keys and
    // stores no label arena; the last line for a key decides
    write("ent_labels_1", b"");
    for (file, want, arena) in [
        (&b"w\tw\nx\tx\r\n"[..], ["w", "x", "y"], false),
        (b"x\tEx\nx\tx\n", ["w", "x", "y"], false),
        (b"x\tx\nx\tEx\n", ["w", "Ex", "y"], true),
        (b"x\tEx\nx\tEks\nw\tw\n", ["w", "Eks", "y"], true),
    ] {
        write("ent_labels_2", file);
        let rec = Recorder::new(ObsConfig::default());
        let pair = io::load_pair_traced(&dir, "S", "T", &rec).expect("load");
        assert_eq!(labels(&pair.target), want);
        let trace = rec.trace();
        let label_bytes = trace.find("load").unwrap().field_u64("label_bytes");
        assert_eq!(label_bytes.unwrap() > 0, arena, "{want:?}");
    }

    write("ent_labels_1", b"a\tAlpha\n\nb\tB\xffeta\nc\tC\n");
    match io::load_pair(&dir, "S", "T") {
        Err(KgError::Parse {
            source_name,
            line,
            message,
        }) => {
            assert!(source_name.ends_with("ent_labels_1"), "{source_name}");
            assert_eq!((line, message.as_str()), (3, "invalid UTF-8"));
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
