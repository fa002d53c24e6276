//! Engine persistence: a saved database reopens from its file and
//! answers the same queries with the same results and realistic cold
//! I/O.

use std::path::Path;

use prix::core::{
    BulkBuilder, EngineConfig, PrixEngine, SEG_KIND_EP, SEG_KIND_RP, SEG_KIND_SYM, SEG_KIND_VX,
};
use prix::datagen::{generate, queries::queries_for, Dataset};
use prix::storage::{FileStore, Manifest, Pager, PAGE_SIZE};

/// A one-document database saved at `path`.
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

/// The database's pager, checksum sidecar attached: a page written
/// through it carries a valid checksum, so whatever is wrong with its
/// contents is for the layer above to catch.
fn durable_pager(path: &Path) -> Pager {
    let mut sum = path.as_os_str().to_owned();
    sum.push(".sum");
    Pager::open_durable(
        Box::new(FileStore::open(path).unwrap()),
        Box::new(FileStore::open(sum).unwrap()),
    )
    .unwrap()
}

fn reopen_error(path: &Path) -> String {
    match PrixEngine::reopen(path, 64) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a damaged database was accepted"),
    }
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
            out.io.physical_reads > 0,
            "{}: cold reopen reads pages",
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
    std::fs::remove_dir_all(&dir).unwrap();
}

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
    engine.save().unwrap();
    let after_first = std::fs::metadata(&path).unwrap().len();
    for i in 0..8 {
        engine.save().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            len,
            after_first,
            "save #{} of an unchanged engine grew the file ({after_first} -> {len})",
            i + 2
        );
    }
    // The file still reopens correctly after the repeated saves.
    drop(engine);
    let reopened = PrixEngine::reopen(&path, 256).unwrap();
    let snap = reopened.snapshot();
    let q = snap.parse_query("//inproceedings/author").unwrap();
    assert!(snap.query(&q).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn doctored_catalog_version_is_rejected() {
    let dir = std::env::temp_dir().join(format!("prix-persist-ver-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);
    // Doctor the version field (bytes 4..8 of the catalog page) while
    // leaving the magic intact: a future layout we cannot read.
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(4)).unwrap();
        f.write_all(&99u32.to_le_bytes()).unwrap();
    }
    // Behind the pager's back the doctored byte is caught one layer
    // below the catalog parser: the page no longer matches its
    // recorded checksum.
    let msg = reopen_error(&path);
    assert!(
        msg.contains("checksum"),
        "reopen must flag the corrupted page: {msg}"
    );
    // Written through the pager the same page carries a valid
    // checksum: now the bytes are trusted and the catalog parser
    // itself must refuse the version.
    let mut catalog = [0u8; PAGE_SIZE];
    catalog.copy_from_slice(&std::fs::read(&path).unwrap()[..PAGE_SIZE]);
    durable_pager(&path).write_page(0, &catalog).unwrap();
    let msg = reopen_error(&path);
    assert!(
        msg.contains("version 99"),
        "error must name the unknown version: {msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Catalog version 5 — the build before this one: the whole symbol
/// table as one record in every generation, where this build keeps a
/// chain of the names the symbol runs do not hold — is refused by its
/// number, with the version this build reads and the way out. There is
/// no second reader.
#[test]
fn catalog_version_5_is_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("prix-persist-v5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);
    let pager = durable_pager(&path);
    let mut catalog = [0u8; PAGE_SIZE];
    pager.read_page(0, &mut catalog).unwrap();
    assert_eq!(catalog[4..8], 6u32.to_le_bytes(), "this build writes 6");
    catalog[4..8].copy_from_slice(&5u32.to_le_bytes());
    pager.write_page(0, &catalog).unwrap();
    drop(pager);
    let msg = reopen_error(&path);
    assert!(
        msg.contains("version 5")
            && msg.contains("reads version 6")
            && msg.contains("re-index the source documents"),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The catalog can spell "this engine has no RPIndex / EPIndex / value
/// index" as a zero record id. This build never writes one, and opening
/// half an engine is refused with the way out.
#[test]
fn catalog_without_an_index_is_refused() {
    let dir = std::env::temp_dir().join(format!("prix-persist-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);
    let pager = durable_pager(&path);
    let mut catalog = [0u8; PAGE_SIZE];
    pager.read_page(0, &mut catalog).unwrap();
    // The valix id trails the length-prefixed planner blob at byte 44.
    let stats_len = u32::from_le_bytes(catalog[44..48].try_into().unwrap()) as usize;
    for (what, off) in [
        ("RPIndex", 8),
        ("EPIndex", 16),
        ("value index", 48 + stats_len),
    ] {
        let mut page = catalog;
        assert_ne!(page[off..off + 8], [0u8; 8], "{what} id is set as saved");
        page[off..off + 8].fill(0);
        pager.write_page(0, &page).unwrap();
        let msg = reopen_error(&path);
        assert!(
            msg.contains(what) && msg.contains("re-index"),
            "zero {what} record id: {msg}"
        );
    }
    pager.write_page(0, &catalog).unwrap();
    assert!(
        PrixEngine::reopen(&path, 64).is_ok(),
        "restored catalog opens"
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

/// A manifest tier without one of its files is the same half engine one
/// level up. The tier without its value run is also what a database
/// compacted or bulk-built before value runs existed looks like (its
/// postings sat in the pool-resident trees): one format, and the same
/// way out. Without its symbol run the dictionary comes up short of the
/// catalog's count — every label of every query would otherwise resolve
/// to a symbol no document holds.
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
    full.write_to(&store).unwrap();
    assert!(
        PrixEngine::reopen(&path, 64).is_ok(),
        "restored manifest opens"
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

/// The delta valix covers exactly the documents of the structural
/// delta. One that says otherwise would make the probe a narrower (or
/// wrong) pre-filter without anyone noticing, so reopen refuses it —
/// with or without segment tiers below the delta.
#[test]
fn delta_valix_that_disagrees_with_the_delta_is_refused() {
    let dir = std::env::temp_dir().join(format!("prix-persist-delta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for tiered in [false, true] {
        let path = dir.join(format!("db{}.prix", u8::from(tiered)));
        if tiered {
            bulk_small_db(&path);
        } else {
            save_small_db(&path);
        }
        let mut engine = PrixEngine::reopen(&path, 64).unwrap();
        engine.insert_document("<a><b>w</b></a>").unwrap();
        engine.save().unwrap();
        let delta_docs = engine.mutable_docs() as u32;
        drop(engine);
        // The clean close checkpointed: the page file is current. The
        // count is the u32 at byte 20 of every `VLX1` record.
        let pager = durable_pager(&path);
        let mut patched = 0;
        for id in 0..pager.num_pages() {
            let mut page = [0u8; PAGE_SIZE];
            pager.read_page(id, &mut page).unwrap();
            let records: Vec<usize> = (0..PAGE_SIZE - 24)
                .filter(|&at| &page[at..at + 4] == b"VLX1")
                .filter(|&at| page[at + 20..at + 24] == delta_docs.to_le_bytes())
                .collect();
            for &at in &records {
                page[at + 20..at + 24].copy_from_slice(&(delta_docs + 1).to_le_bytes());
            }
            if !records.is_empty() {
                pager.write_page(id, &page).unwrap();
                patched += records.len();
            }
        }
        assert!(
            patched > 0,
            "no current valix record found (tiered {tiered})"
        );
        drop(pager);
        let msg = reopen_error(&path);
        assert!(
            msg.contains("value index covers") && msg.contains("re-index"),
            "tiered {tiered}: {msg}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Without its checksum sidecar a page file could only be served with
/// verification off; reopen refuses and says what to do instead.
#[test]
fn database_without_its_sidecar_is_refused() {
    let dir = std::env::temp_dir().join(format!("prix-persist-nosum-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);
    std::fs::remove_file(dir.join("db.prix.sum")).unwrap();
    std::fs::remove_file(dir.join("db.prix.wal")).unwrap();
    let msg = reopen_error(&path);
    assert!(
        msg.contains("no checksum sidecar") && msg.contains("re-index"),
        "error must name the missing sidecar and the fix: {msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A names-chain record cut short, or chained wrongly — its page
/// rewritten through the pager, so the checksum layer has nothing to
/// object to — is an error from the decoder, not a slice-index panic or
/// a walk that never ends.
#[test]
fn truncated_symbol_table_record_is_refused() {
    let dir = std::env::temp_dir().join(format!("prix-persist-syms-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);
    // A second save that interned a name: a chain of two records.
    let mut engine = PrixEngine::reopen(&path, 64).unwrap();
    engine.insert_document("<a><b>fresh</b></a>").unwrap();
    engine.save().unwrap();
    let names: Vec<String> = engine.symbols().iter().map(|(_, n)| n.into()).collect();
    drop(engine);
    let pager = durable_pager(&path);
    let mut page = [0u8; PAGE_SIZE];
    pager.read_page(0, &mut page).unwrap();
    // Catalog bytes 24..32: the id of the chain's newest record,
    // `page << 16 | slot`.
    let rec = u64::from_le_bytes(page[24..32].try_into().unwrap());
    let (data_page, slot) = (rec >> 16, (rec & 0xFFFF) as usize);
    assert_ne!(slot, 0xFFFF, "a few names live in a slotted data page");
    pager.read_page(data_page, &mut page).unwrap();
    let good = page;
    // Slotted page: u16 cell offsets from byte 5; a cell is a u16
    // length and then the record: `prev id u64 | first id u32 | count |
    // len | utf8 ...`.
    let cell = u16::from_le_bytes([page[5 + 2 * slot], page[6 + 2 * slot]]) as usize;
    let full = u16::from_le_bytes([page[cell], page[cell + 1]]);
    let at = cell + 2;
    assert_ne!(
        page[at..at + 8],
        [0u8; 8],
        "the newest record has one before it"
    );
    assert_eq!(
        page[at + 8..at + 13],
        [3, 0, 0, 0, 1],
        "one name, from id 3"
    );
    let refused = |page: &[u8; PAGE_SIZE], what: &str| {
        pager.write_page(data_page, page).unwrap();
        let msg = reopen_error(&path);
        assert!(msg.contains("corrupt symbol table"), "{what}: {msg}");
    };
    // Nothing; half an id; an id and no first; no count; a count and no
    // name; a name one byte short.
    for len in [0, 7, 11, 12, 13, full - 1] {
        page[cell..cell + 2].copy_from_slice(&len.to_le_bytes());
        refused(&page, &format!("record cut to {len} of {full} bytes"));
    }
    type Damage = fn(&mut [u8], u64);
    let damages: [(&str, Damage); 6] = [
        ("a record chained to itself", |r, rec| {
            r[..8].copy_from_slice(&rec.to_le_bytes())
        }),
        ("a gap before the record", |r, _| r[8] = 4),
        ("an overlap with the record before", |r, _| r[8] = 2),
        ("a chain that stops short", |r, _| r[..8].fill(0)),
        ("a count above the names", |r, _| r[12] = 2),
        ("a name the table already holds", |r, _| {
            r[14..19].copy_from_slice(b"a\0\0\0\0");
            r[13] = 1;
        }),
    ];
    for (what, damage) in damages {
        let mut page = good;
        damage(&mut page[at..], rec);
        if what.starts_with("a name") {
            // One byte of name, four of padding the list must not have.
            page[cell..cell + 2].copy_from_slice(&(full - 4).to_le_bytes());
        }
        refused(&page, what);
    }
    pager.write_page(data_page, &good).unwrap();
    drop(pager);
    let engine = PrixEngine::reopen(&path, 64).unwrap();
    let back: Vec<String> = engine.symbols().iter().map(|(_, n)| n.into()).collect();
    assert_eq!(back, names, "the restored chain reads back name for name");
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

/// Opening a database allocates nothing: ten reopen/close cycles that
/// write nothing leave the page count and the file length where the
/// save left them (each open used to append one fresh data page per
/// record store — four per reopen).
#[test]
fn reopening_without_writing_does_not_grow_the_page_file() {
    let dir = std::env::temp_dir().join(format!("prix-reopen-leak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    save_small_db(&path);

    let size = |p: &Path| std::fs::metadata(p).unwrap().len();
    let engine = PrixEngine::reopen(&path, 64).unwrap();
    let pages = engine.pool().pager().num_pages();
    drop(engine);
    let len = size(&path);
    for cycle in 0..10 {
        let engine = PrixEngine::reopen(&path, 64).unwrap();
        assert_eq!(engine.pool().pager().num_pages(), pages, "cycle {cycle}");
        drop(engine);
        assert_eq!(size(&path), len, "cycle {cycle}");
    }

    // A reopened engine that does write allocates only pages it fills.
    let mut engine = PrixEngine::reopen(&path, 64).unwrap();
    engine.insert_document("<x><y>new</y></x>").unwrap();
    engine.save().unwrap();
    drop(engine);
    let engine = PrixEngine::reopen(&path, 64).unwrap();
    let (verified, never_written) = engine.verify_checksums().unwrap();
    assert_eq!(never_written, 0, "{verified} pages verified");
    std::fs::remove_dir_all(&dir).ok();
}
