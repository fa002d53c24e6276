//! Engine persistence: a saved database reopens from its files and
//! answers the same queries with the same results and realistic cold
//! I/O; damaged or foreign files are refused by name.

use std::path::Path;
use std::sync::Arc;

use prix::core::{
    BulkBuilder, EngineConfig, PrixEngine, SEG_KIND_EP, SEG_KIND_RP, SEG_KIND_SYM, SEG_KIND_VX,
};
use prix::datagen::{generate, queries::queries_for, Dataset};
use prix::storage::{crc32, FileStore, IoStats, Manifest, MemStore, SymbolRun, ValueRunReader};

/// A one-document database at `path`: a bulk-built tier, an empty log.
fn save_small_db(path: &Path) {
    let mut c = prix::xml::Collection::new();
    c.add_xml("<a><b/></a>").unwrap();
    let mut engine = PrixEngine::build(
        c,
        EngineConfig {
            path: Some(path.to_path_buf()),
            ..Default::default()
        },
    )
    .unwrap();
    engine.save().unwrap();
}

fn reopen_error(path: &Path) -> String {
    match PrixEngine::reopen(path, 64) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a damaged database was accepted"),
    }
}

/// The sibling file of `path` with `suffix`.
fn sibling(path: &Path, suffix: &str) -> std::path::PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(suffix);
    p.into()
}

/// Bytes of every file in `dir`, by name.
fn dir_sizes(dir: &Path) -> Vec<(String, u64)> {
    let mut sizes: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().into_string().unwrap(),
                e.metadata().unwrap().len(),
            )
        })
        .collect();
    sizes.sort();
    sizes
}

#[test]
fn saved_engine_reopens_and_answers_identically() {
    let dir = std::env::temp_dir().join(format!("prix-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");

    let collection = generate(Dataset::Dblp, 0.025, 42);
    let mut engine = PrixEngine::build(
        collection,
        EngineConfig {
            path: Some(path.clone()),
            ..Default::default()
        },
    )
    .unwrap();

    let queries = queries_for(Dataset::Dblp);
    let mut expected = Vec::new();
    {
        let snap = engine.snapshot();
        for pq in &queries {
            let q = snap.parse_query(pq.xpath).unwrap();
            expected.push(snap.query(&q).unwrap().matches);
        }
    }
    engine.save().unwrap();
    let symbols = engine.symbols().len();
    drop(engine);

    let reopened = PrixEngine::reopen(&path, 2000).unwrap();
    assert_eq!(reopened.symbols().len(), symbols, "the symbol table is");
    let snap = reopened.snapshot();
    for (pq, exp) in queries.iter().zip(&expected) {
        let q = snap.parse_query(pq.xpath).unwrap();
        reopened.clear_cache().unwrap();
        let out = snap.query(&q).unwrap();
        assert_eq!(&out.matches, exp, "{} after reopen", pq.id);
        assert_eq!(out.matches.len() as u64, pq.expected_matches, "{}", pq.id);
        assert!(
            out.io.physical_reads + out.io.seg_block_fetches > 0,
            "{}: cold reopen reads blocks",
            pq.id
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopening_garbage_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("prix-persist-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("junk.bin");
    std::fs::write(&path, vec![0xABu8; 3 * 8192]).unwrap();
    assert!(PrixEngine::reopen(&path, 64).is_err());
    // A manifest slot of junk next to it is no better.
    std::fs::write(sibling(&path, ".seg"), vec![0xABu8; 16400]).unwrap();
    assert!(PrixEngine::reopen(&path, 64).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A save with nothing ingested since the last one writes nothing: no
/// file of the database grows, however often it is called.
#[test]
fn repeated_saves_do_not_grow_the_file() {
    let dir = std::env::temp_dir().join(format!("prix-persist-grow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    let collection = generate(Dataset::Dblp, 0.02, 7);
    let mut engine = PrixEngine::build(
        collection,
        EngineConfig {
            path: Some(path.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    engine
        .insert_document("<dblp><www><url>u</url></www></dblp>")
        .unwrap();
    engine.save().unwrap();
    let after_first = dir_sizes(&dir);
    for i in 0..8 {
        engine.save().unwrap();
        assert_eq!(
            dir_sizes(&dir),
            after_first,
            "save #{} of an unchanged engine grew a file",
            i + 2
        );
    }
    // The files still reopen correctly after the repeated saves.
    drop(engine);
    let reopened = PrixEngine::reopen(&path, 256).unwrap();
    assert_eq!(reopened.recovery().unwrap().replayed_frames, 1);
    let snap = reopened.snapshot();
    let q = snap.parse_query("//inproceedings/author").unwrap();
    assert!(snap.query(&q).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes what an older build left at `path`: a page file whose first
/// page is a catalog of `version` (magic `PRIX`, then the version).
fn plant_page_file(path: &Path, version: u32) {
    let mut page = vec![0u8; 8192];
    page[..4].copy_from_slice(b"PRIX");
    page[4..8].copy_from_slice(&version.to_le_bytes());
    std::fs::write(path, page).unwrap();
}

/// A page file is read only as far as its catalog version, and only to
/// say what it is: whatever the version says, this build refuses it and
/// names it.
#[test]
fn doctored_catalog_version_is_rejected() {
    let dir = std::env::temp_dir().join(format!("prix-persist-ver-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    for version in [99, 6, 0] {
        plant_page_file(&path, version);
        let msg = reopen_error(&path);
        assert!(
            msg.contains(&format!("catalog of version {version}"))
                && msg.contains("re-index the source documents"),
            "error must name the version and the way out: {msg}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A database written by the build before this one — a page file
/// holding the delta, catalog version 6 (or an older one), with or
/// without a manifest naming it — is refused by name, with the way out.
/// There is no second reader.
#[test]
fn catalog_version_5_is_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("prix-persist-v5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    // Never segmented: the page file at the database path, no manifest.
    plant_page_file(&path, 5);
    let msg = reopen_error(&path);
    assert!(
        msg.contains("the database file is a page file with a catalog of version 5")
            && msg.contains("re-index the source documents"),
        "{msg}"
    );
    // Segmented: a manifest whose live generation is a page file.
    std::fs::remove_file(&path).unwrap();
    save_small_db(&path);
    let store = FileStore::open(sibling(&path, ".seg")).unwrap();
    let mut m = Manifest::read_from(&store).unwrap().unwrap();
    m.log_suffix = ".g1".into();
    m.write_to(&store).unwrap();
    plant_page_file(&sibling(&path, ".g1"), 6);
    let msg = reopen_error(&path);
    assert!(
        msg.contains("'.g1' is a page file with a catalog of version 6")
            && msg.contains("re-index the source documents"),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A two-document bulk-built database at `path`: one tier, no delta.
fn bulk_small_db(path: &Path) {
    let mut bulk = BulkBuilder::new(EngineConfig {
        path: Some(path.to_path_buf()),
        ..Default::default()
    })
    .unwrap();
    bulk.add_xml("<a><b>v</b></a>").unwrap();
    bulk.add_xml("<a><c/></a>").unwrap();
    drop(bulk.finish().unwrap());
}

/// A manifest tier without one of its files is half an engine. The tier
/// without its value run is also what a database compacted or
/// bulk-built before value runs existed looks like (its postings sat in
/// the pool-resident trees): one format, and the same way out. Without
/// its symbol run the dictionary comes up short — every label of every
/// query would otherwise resolve to a symbol no document holds.
#[test]
fn manifest_tier_missing_a_kind_is_refused() {
    let dir = std::env::temp_dir().join(format!("prix-persist-kind-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    bulk_small_db(&path);
    let store = FileStore::open(dir.join("db.prix.seg")).unwrap();
    let full = Manifest::read_from(&store).unwrap().unwrap();
    assert_eq!(
        full.segments.len(),
        4,
        "one tier: an RP segment, an EP segment, a value run, a symbol run"
    );
    for (kind, what) in [
        (SEG_KIND_RP, "no RP segment"),
        (SEG_KIND_EP, "no EP segment"),
        (SEG_KIND_VX, "no value run"),
    ] {
        let mut m = full.clone();
        m.segments.retain(|s| s.kind != kind);
        m.write_to(&store).unwrap();
        let msg = reopen_error(&path);
        assert!(
            msg.contains(what)
                && msg.contains("for the tier at doc base 0")
                && msg.contains("re-index"),
            "tier with {what}: {msg}"
        );
    }
    let mut m = full.clone();
    m.segments.retain(|s| s.kind != SEG_KIND_SYM);
    m.write_to(&store).unwrap();
    let msg = reopen_error(&path);
    assert!(
        msg.contains("corrupt symbol table") && msg.contains("re-index"),
        "tier with no symbol run: {msg}"
    );
    // All three tier kinds gone: the symbol run alone lists no tier.
    let mut m = full.clone();
    m.segments.retain(|s| s.kind == SEG_KIND_SYM);
    m.write_to(&store).unwrap();
    let msg = reopen_error(&path);
    assert!(
        msg.contains(&format!(
            "manifest generation {} lists no tier",
            m.generation
        )) && msg.contains("re-index"),
        "manifest with no tier: {msg}"
    );
    full.write_to(&store).unwrap();
    assert!(
        PrixEngine::reopen(&path, 64).is_ok(),
        "restored manifest opens"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The empty value run of documents `doc_base..doc_base + n_docs` as
/// value-run format 1 wrote it, frame written by hand: magic, version
/// 1, kind, the documents, eight zero counts, then the fence offset,
/// the CRC table's offset and the file length; the rest of block 0
/// zero; then the CRC table of that one block.
fn format_1_value_run(doc_base: u32, n_docs: u32) -> Vec<u8> {
    let mut run = vec![0u8; 4096];
    run[..8].copy_from_slice(b"PRIXVXR\0");
    run[8..12].copy_from_slice(&1u32.to_le_bytes());
    run[12] = SEG_KIND_VX;
    run[16..20].copy_from_slice(&doc_base.to_le_bytes());
    run[20..24].copy_from_slice(&n_docs.to_le_bytes());
    for (i, word) in [4096u64, 4096, 4100].iter().enumerate() {
        run[88 + 8 * i..96 + 8 * i].copy_from_slice(&word.to_le_bytes());
    }
    let crc = crc32(&run[..120]);
    run[120..124].copy_from_slice(&crc.to_le_bytes());
    let table = crc32(&run);
    run.extend_from_slice(&table.to_le_bytes());
    run
}

/// A value run an older build wrote is refused by the version it has
/// and the one this build reads, with the way out — by the reader, and
/// by reopen when a manifest names such a run, never a panic.
#[test]
fn a_format_1_value_run_is_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("prix-persist-vx1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    bulk_small_db(&path);
    let store = FileStore::open(dir.join("db.prix.seg")).unwrap();
    let m = Manifest::read_from(&store).unwrap().unwrap();
    let vx = m.segments.iter().find(|s| s.kind == SEG_KIND_VX).unwrap();
    let old = format_1_value_run(vx.doc_base, vx.n_docs);
    let err = ValueRunReader::open(
        Box::new(MemStore::from_bytes(old.clone())),
        Arc::new(IoStats::default()),
    )
    .err()
    .expect("a format-1 run must be refused")
    .to_string();
    assert!(
        err.contains("value-run format version 1")
            && err.contains("this build reads version 2")
            && err.contains("re-index the source documents"),
        "{err}"
    );
    std::fs::write(sibling(&path, &vx.suffix), old).unwrap();
    let msg = reopen_error(&path);
    assert!(
        msg.contains(&err),
        "reopen says `{msg}`, the reader `{err}`"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A manifest row is filed by its kind byte; one this build does not
/// know is named, not guessed at.
#[test]
fn manifest_row_of_unknown_kind_is_refused() {
    let dir = std::env::temp_dir().join(format!("prix-persist-row-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    bulk_small_db(&path);
    let store = FileStore::open(dir.join("db.prix.seg")).unwrap();
    let full = Manifest::read_from(&store).unwrap().unwrap();
    for row in 0..full.segments.len() {
        let mut m = full.clone();
        m.segments[row].kind = 7;
        m.write_to(&store).unwrap();
        let msg = reopen_error(&path);
        assert!(
            msg.contains("unknown kind 7") && msg.contains(&full.segments[row].suffix),
            "row {row} with kind 7: {msg}"
        );
    }
    // A known kind on the wrong file is the header check's to catch.
    let mut m = full.clone();
    m.segments.swap(0, 2);
    let (a, b) = (m.segments[0].kind, m.segments[2].kind);
    (m.segments[0].kind, m.segments[2].kind) = (b, a);
    m.write_to(&store).unwrap();
    assert!(PrixEngine::reopen(&path, 64).is_err());
    full.write_to(&store).unwrap();
    assert!(PrixEngine::reopen(&path, 64).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The manifest names the live generation's batch log; without it the
/// delta cannot be rebuilt, and reopen says which file is missing and
/// what to do instead.
#[test]
fn database_without_its_log_is_refused() {
    let dir = std::env::temp_dir().join(format!("prix-persist-nolog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);
    std::fs::remove_file(dir.join("db.prix.g1.log")).unwrap();
    let msg = reopen_error(&path);
    assert!(
        msg.contains("'.g1.log', which is missing") && msg.contains("re-index"),
        "error must name the missing log and the fix: {msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The names a tier interned are its symbol run: cut short, its CRC
/// table fails; rewritten whole but wrong — a count above its names, a
/// name the table already holds, a name cut short — the decoder refuses
/// it ("corrupt symbol table"), never a slice-index panic or a
/// dictionary one name off. Restored, it reads back name for name.
#[test]
fn truncated_symbol_table_record_is_refused() {
    let dir = std::env::temp_dir().join(format!("prix-persist-syms-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);
    // A compaction that interned a name: a second run, of one name.
    let mut engine = PrixEngine::reopen(&path, 64).unwrap();
    engine.insert_document("<a><b>fresh</b></a>").unwrap();
    engine.save().unwrap();
    assert!(engine.compact().unwrap());
    let names: Vec<String> = engine.symbols().iter().map(|(_, n)| n.into()).collect();
    drop(engine);
    let file = sibling(&path, ".g2.sym");
    let good = std::fs::read(&file).unwrap();
    let run = SymbolRun::read(&FileStore::open(&file).unwrap()).unwrap();
    assert_eq!((run.first, run.count), (3, 1), "one name, from id 3");
    assert_eq!(run.names, [1, 5, b'f', b'r', b'e', b's', b'h']);

    for len in [0, 64, 128, good.len() - 1] {
        std::fs::write(&file, &good[..len]).unwrap();
        assert!(PrixEngine::reopen(&path, 64).is_err(), "run cut to {len}");
    }
    let rewrite = |names: &[u8]| {
        let bad = SymbolRun {
            names: names.to_vec(),
            ..run.clone()
        };
        bad.write(Box::new(FileStore::create(&file).unwrap()))
            .unwrap();
    };
    for (what, bytes) in [
        (
            "a count above its names",
            &[2, 5, b'f', b'r', b'e', b's', b'h'][..],
        ),
        ("a name the table already holds", &[1, 1, b'a']),
        ("a name cut short", &[1, 6, b'f', b'r', b'e', b's', b'h']),
    ] {
        rewrite(bytes);
        let msg = reopen_error(&path);
        assert!(msg.contains("corrupt symbol table"), "{what}: {msg}");
    }
    std::fs::write(&file, &good).unwrap();
    let engine = PrixEngine::reopen(&path, 64).unwrap();
    let back: Vec<String> = engine.symbols().iter().map(|(_, n)| n.into()).collect();
    assert_eq!(back, names, "the restored run reads back name for name");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsaved_new_queries_after_save_still_work_in_original() {
    // Saving is not destructive: the original engine keeps working.
    let dir = std::env::temp_dir().join(format!("prix-persist2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    let collection = generate(Dataset::Treebank, 0.02, 1);
    let mut engine = PrixEngine::build(
        collection,
        EngineConfig {
            path: Some(path),
            ..Default::default()
        },
    )
    .unwrap();
    engine.save().unwrap();
    let snap = engine.snapshot();
    let q = snap.parse_query("//S//NP/SYM").unwrap();
    assert_eq!(snap.query(&q).unwrap().matches.len(), 9);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Opening a database writes nothing: ten reopen/close cycles leave
/// every file where the last commit left it, and each rebuilds the same
/// delta — the same pages in its pool's page file. A reopened engine
/// that does write appends its batch to the log and nothing else.
#[test]
fn reopening_without_writing_does_not_grow_the_page_file() {
    let dir = std::env::temp_dir().join(format!("prix-reopen-leak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);
    let mut engine = PrixEngine::reopen(&path, 64).unwrap();
    engine.insert_document("<x><y>new</y></x>").unwrap();
    engine.save().unwrap();
    drop(engine);

    let engine = PrixEngine::reopen(&path, 64).unwrap();
    let pages = engine.pool().pager().num_pages();
    drop(engine);
    let files = dir_sizes(&dir);
    for cycle in 0..10 {
        let engine = PrixEngine::reopen(&path, 64).unwrap();
        assert_eq!(engine.pool().pager().num_pages(), pages, "cycle {cycle}");
        assert_eq!(engine.mutable_docs(), 1, "cycle {cycle}");
        drop(engine);
        assert_eq!(dir_sizes(&dir), files, "cycle {cycle}");
    }

    let mut engine = PrixEngine::reopen(&path, 64).unwrap();
    engine.insert_document("<x><y>newer</y></x>").unwrap();
    engine.save().unwrap();
    drop(engine);
    let now = dir_sizes(&dir);
    let grew: Vec<&str> = now
        .iter()
        .zip(&files)
        .filter(|(now, was)| now != was)
        .map(|(now, _)| now.0.as_str())
        .collect();
    assert_eq!(
        grew,
        ["db.prix.g1.log"],
        "a commit appends to the log alone"
    );
    let engine = PrixEngine::reopen(&path, 64).unwrap();
    engine.verify_tiers().unwrap();
    assert_eq!(engine.mutable_docs(), 2);
    std::fs::remove_dir_all(&dir).ok();
}
