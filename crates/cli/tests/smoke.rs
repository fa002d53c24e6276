//! CLI contract smoke tests: usage errors are consistent (usage text
//! on stderr, exit code 2) across every subcommand, runtime failures
//! exit 1, and the happy path works end to end.

use std::process::{Command, Output};

fn prix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prix"))
        .args(args)
        .output()
        .expect("run prix binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_usage_error(args: &[&str]) {
    let out = prix(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, stderr: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(err.contains("usage:"), "{args:?} stderr lacks usage: {err}");
    assert!(err.contains("error:"), "{args:?} stderr lacks error: {err}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} usage error must not write to stdout"
    );
}

#[test]
fn usage_errors_are_consistent_across_subcommands() {
    // Unknown subcommand and no subcommand at all.
    assert_usage_error(&["frobnicate"]);
    assert_usage_error(&[]);
    // Missing required arguments, every subcommand.
    assert_usage_error(&["index"]);
    assert_usage_error(&["index", "out.prix"]); // no input files
                                                // Retired flags, not paths: every file database is bulk-built.
    assert_usage_error(&["index", "--no-wal", "out.prix", "doc.xml"]);
    assert_usage_error(&["index", "--bulk", "out.prix", "doc.xml"]);
    assert_usage_error(&["index", "--alpha", "4", "out.prix", "doc.xml"]);
    assert_usage_error(&["query", "db.prix"]); // no xpath
    assert_usage_error(&["query", "db.prix", "//a", "--limit"]); // flag missing value
    assert_usage_error(&["query", "db.prix", "//a", "--limit", "x"]); // non-integer
    assert_usage_error(&["query", "db.prix", "//a", "--bogus"]); // unknown flag
    assert_usage_error(&["query", "db.prix", "//a", "--engine", "vist"]); // retired flag
    assert_usage_error(&["serve"]); // no db
    assert_usage_error(&["serve", "--addr", "127.0.0.1:0"]); // flag where db belongs
    assert_usage_error(&["serve", "db.prix", "--threads"]); // flag missing value
    assert_usage_error(&["serve", "db.prix", "--bogus"]); // unknown flag
    assert_usage_error(&["serve", "db.prix", "--no-wal"]); // retired flag
    assert_usage_error(&["serve", "db.prix", "--max-conns", "2"]); // retired flag
    assert_usage_error(&["stats"]);
    assert_usage_error(&["fsck"]); // no db
    assert_usage_error(&["fsck", "a.prix", "b.prix"]); // too many args
    assert_usage_error(&["explain", "db.prix"]);
    assert_usage_error(&["add", "db.prix"]); // no input files
    assert_usage_error(&["gen", "dblp"]); // no dir
    assert_usage_error(&["gen", "nosuch", "/tmp/x"]); // unknown dataset
}

#[test]
fn help_goes_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = prix(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        for cmd in [
            "index", "query", "serve", "stats", "fsck", "explain", "add", "gen",
        ] {
            assert!(text.contains(cmd), "help lacks `{cmd}`: {text}");
        }
        assert!(out.stderr.is_empty(), "{flag} must not write to stderr");
    }
}

#[test]
fn runtime_failures_exit_one() {
    // A well-formed invocation that fails at runtime (no such file).
    let out = prix(&["stats", "/nonexistent/definitely-not-a.prix"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("error:"), "{err}");
    assert!(
        !err.contains("usage:"),
        "runtime errors must not dump usage: {err}"
    );
}

#[test]
fn index_query_roundtrip_works() {
    let dir = std::env::temp_dir().join(format!("prix-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("doc.xml");
    std::fs::write(
        &xml,
        "<dblp><www><editor>E</editor><url>u</url></www></dblp>",
    )
    .unwrap();
    let xml2 = dir.join("doc2.xml");
    std::fs::write(
        &xml2,
        "<dblp><www><editor>F</editor><url>v</url></www></dblp>",
    )
    .unwrap();
    let db = dir.join("db.prix");

    let out = prix(&[
        "index",
        db.to_str().unwrap(),
        xml.to_str().unwrap(),
        xml2.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "index: {}", stderr(&out));

    let out = prix(&["query", db.to_str().unwrap(), "//www[./editor]/url"]);
    assert_eq!(out.status.code(), Some(0), "query: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 match(es)"), "{text}");
    assert!(text.contains("stages: filter"), "{text}");

    // --limit pushes the cap into the executor; with more matches than
    // the cap the output is flagged truncated.
    let out = prix(&["query", db.to_str().unwrap(), "//www/url", "--limit", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "query --limit: {}",
        stderr(&out)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("1 match(es) (truncated by --limit)"),
        "{text}"
    );

    // The query output surfaces the I/O counters.
    assert!(text.contains("io: "), "{text}");
    assert!(text.contains("fsyncs"), "{text}");

    // Predicate XPath goes straight through the same query path: only
    // the www whose editor leaf equals "E" survives.
    let out = prix(&["query", db.to_str().unwrap(), "//www[editor = \"E\"]/url"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "predicate query: {}",
        stderr(&out)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 match(es)"), "{text}");

    // fsck on a bulk-built database reports its log, verifies the tier
    // files — the value run among them — and reports (without failing on) stray
    // sibling files that merely share the database's name prefix.
    std::fs::write(dir.join("db.prix.stray"), b"not ours").unwrap();
    let out = prix(&["fsck", db.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "fsck: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recovery: replayed 0 record(s)"), "{text}");
    // Nothing was ingested: the log is its header, and whole.
    assert!(
        text.contains(", 0 record(s) replayed, 0 byte(s) of torn tail"),
        "{text}"
    );
    assert!(text.contains("segment .g1.rp.seg: "), "{text}");
    assert!(text.contains("segment .g1.vx.seg: "), "{text}");
    assert!(
        text.contains("sibling db.prix.stray: not part of this database"),
        "{text}"
    );
    assert!(text.contains("fsck: clean"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A bulk-built database's delta starts empty, and a later `prix add`
/// accepts the document, reports its commit epoch, and the next query
/// both sees the document and names a later epoch.
#[test]
fn index_then_add_advances_the_epoch() {
    let dir = std::env::temp_dir().join(format!("prix-cli-alpha-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("doc.xml");
    std::fs::write(
        &xml,
        "<dblp><www><editor>E</editor><url>u</url></www></dblp>",
    )
    .unwrap();
    let more = dir.join("more.xml");
    std::fs::write(
        &more,
        "<dblp><www><editor>F</editor><url>v</url></www></dblp>",
    )
    .unwrap();
    let db = dir.join("db.prix");

    let out = prix(&["index", db.to_str().unwrap(), xml.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "index: {}", stderr(&out));

    let epoch_of = |text: &str, key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no `{key}` line in: {text}"))
            .trim()
            .parse()
            .unwrap()
    };

    let out = prix(&["query", db.to_str().unwrap(), "//www[./editor]/url"]);
    assert_eq!(out.status.code(), Some(0), "query: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 match(es)"), "{text}");
    let before = epoch_of(&text, "epoch:");

    let out = prix(&["add", db.to_str().unwrap(), more.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "add: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    let committed = epoch_of(&text, "committed at epoch");
    assert!(
        committed > before,
        "add must commit at a later epoch ({committed} vs {before})"
    );

    let out = prix(&["query", db.to_str().unwrap(), "//www[./editor]/url"]);
    assert_eq!(out.status.code(), Some(0), "query: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 match(es)"), "{text}");
    assert!(
        epoch_of(&text, "epoch:") >= committed,
        "query must serve at or past the add's epoch: {text}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: a failed `prix add` used to corrupt the database — the
/// parse error skipped the save, but closing the buffer pool committed
/// the half-ingested pages (fsck: `posting names doc N past coverage
/// horizon`, a panic in `load_doc`, reused document ids). `add` is all
/// or nothing, and closing a database writes nothing: after the failure
/// the database is exactly what it was, byte for byte.
#[test]
fn failed_add_leaves_the_database_as_it_was() {
    let dir = std::env::temp_dir().join(format!("prix-cli-failed-add-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, xml: &str| {
        let path = dir.join(name);
        std::fs::write(&path, xml).unwrap();
        path.to_str().unwrap().to_string()
    };
    let record = |key: usize| {
        format!(
            "<dblp><inproceedings><key>conf/x/{key}</key><author>A{key}</author>\
             <year>199{}</year></inproceedings></dblp>",
            key % 10
        )
    };
    let corpus: Vec<String> = (0..6)
        .map(|i| write(&format!("doc{i}.xml"), &record(i)))
        .collect();
    let good1 = write("good1.xml", &record(6));
    let good2 = write("good2.xml", &record(7));
    let broken = write("broken.xml", "<dblp><inproceedings><key>oops</dblp>");
    let db = dir.join("db.prix");
    let db = db.to_str().unwrap();

    let mut index = vec!["index", db];
    index.extend(corpus.iter().map(String::as_str));
    let out = prix(&index);
    assert_eq!(out.status.code(), Some(0), "index: {}", stderr(&out));

    // The observable state: `stats` (document counts, the log, the
    // bytes of every file) and three answers (match count plus every
    // `doc -> nodes` line; the timing lines vary).
    let state = || -> Vec<String> {
        let out = prix(&["stats", db]);
        assert_eq!(out.status.code(), Some(0), "stats: {}", stderr(&out));
        let mut lines = vec![String::from_utf8(out.stdout).unwrap()];
        for xpath in ["//inproceedings/key", "//dblp//author", "//year"] {
            let out = prix(&["query", db, xpath, "--limit", "0"]);
            assert_eq!(out.status.code(), Some(0), "{xpath}: {}", stderr(&out));
            let text = String::from_utf8_lossy(&out.stdout);
            let count = text.lines().next().unwrap_or_default();
            lines.push(count.split(" in ").next().unwrap().to_string());
            lines.extend(
                text.lines()
                    .filter(|l| l.starts_with("  doc "))
                    .map(String::from),
            );
        }
        lines
    };
    let before = state();
    assert!(before[0].contains("RPIndex delta: 0 docs"), "{}", before[0]);
    assert!(before[0].contains(".g1.rp.seg: 6 docs"), "{}", before[0]);
    assert!(before[1].starts_with("6 match(es)"), "{}", before[1]);

    let out = prix(&["add", db, &good1, &good2, &broken]);
    assert_eq!(out.status.code(), Some(1), "add: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("broken.xml"), "{err}");
    assert!(err.contains("nothing was added"), "{err}");
    assert!(out.stdout.is_empty(), "a failed add reports no document");

    let out = prix(&["fsck", db]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "fsck: {text}{}", stderr(&out));
    assert!(text.contains("fsck: clean"), "{text}");
    assert_eq!(state(), before, "the failed add changed the database");

    // The ids the failed batch would have taken are still free.
    let out = prix(&["add", db, &good1]);
    assert_eq!(out.status.code(), Some(0), "add: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("good1.xml as doc 6"), "{text}");
    let after = state();
    assert!(after[0].contains("RPIndex delta: 1 docs"), "{}", after[0]);
    assert!(after[1].starts_with("7 match(es)"), "{}", after[1]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tier's value run, and the symbol run of the names it interned, are
/// files of the database like its segments: `segments` lists them (the
/// run with its postings, the names with their ids), `stats` accounts
/// for their bytes, `fsck` verifies them and does not take them for
/// stray siblings — after a bulk build and after the compaction that
/// adds a second tier.
#[test]
fn value_runs_show_in_segments_stats_and_fsck() {
    let dir = std::env::temp_dir().join(format!("prix-cli-runs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = |i: usize| {
        let path = dir.join(format!("doc{i}.xml"));
        let xml = format!("<item><name>n{i}</name><price>{}</price></item>", 10 + i);
        std::fs::write(&path, xml).unwrap();
        path.to_str().unwrap().to_string()
    };
    let docs: Vec<String> = (0..4).map(doc).collect();
    let db = dir.join("db.prix");
    let db = db.to_str().unwrap();
    let ok = |args: &[&str]| -> String {
        let out = prix(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    ok(&["index", db, &docs[0], &docs[1], &docs[2]]);
    ok(&["add", db, &docs[3]]);
    let text = ok(&["query", db, "//item[price < 12]", "--limit", "0"]);
    assert!(text.starts_with("2 match(es)"), "{text}");
    ok(&["compact", db]);
    let text = ok(&["query", db, "//item[price >= 12]", "--limit", "0"]);
    assert!(text.starts_with("2 match(es)"), "{text}");

    let text = ok(&["segments", db, "--verify"]);
    for run in [
        "run .g1.vx.seg: kind vx, docs 0..3, format v2, 3 numeric + 6 string posting(s)",
        "run .g2.vx.seg: kind vx, docs 3..4, format v2, 1 numeric + 2 string posting(s)",
        "verified .g2.vx.seg: 4 blocks, 1 numeric posting(s), 2 string posting(s) ok",
        // The bulk build's names (the dummy, three tags, three names and
        // three prices), then the two the added document brought.
        "symbols .g1.sym: kind sym, names 0..10, format v1",
        "symbols .g2.sym: kind sym, names 10..12, format v1",
        "verified .g2.sym: 2 name(s) ok",
    ] {
        assert!(text.contains(run), "no `{run}` in:\n{text}");
    }
    assert!(text.contains("segments: clean"), "{text}");
    // The live log: empty since the compaction began generation 2.
    assert!(
        text.contains(", 0 record(s) since generation 2 began"),
        "{text}"
    );
    // Every structural segment says where its bytes are, to the byte;
    // an RP file holds no records, its tier's EP file does.
    let lines: Vec<&str> = text.lines().collect();
    let layouts: Vec<(&str, &str)> = lines
        .windows(2)
        .filter(|w| w[1].contains(" bytes: records "))
        .map(|w| (w[0], w[1]))
        .collect();
    assert_eq!(layouts.len(), 4, "{text}");
    for (head, line) in layouts {
        let numbers = |s: &str| -> Vec<u64> {
            let words = s.split(|c: char| !c.is_ascii_digit());
            words.filter_map(|w| w.parse().ok()).collect()
        };
        let rp = head.contains("kind rp");
        assert_eq!(
            line.contains("records none (the tier's EP file holds them)"),
            rp,
            "{head}\n{line}"
        );
        // Drop the (rows, blocks, rows a block) of the two row sections,
        // after the record and record-index bytes of an EP file.
        let n = numbers(line);
        let r = if rp { 0 } else { 2 };
        let sections = [&n[1..2 + r], &n[5 + r..6 + r], &n[9 + r..]].concat();
        assert_eq!(n[0], sections.iter().sum::<u64>(), "{line}");
    }
    // So does every value run.
    let layouts: Vec<&str> = text
        .lines()
        .filter(|l| l.contains(" bytes: numeric blocks "))
        .collect();
    assert_eq!(layouts.len(), 2, "{text}");
    for line in layouts {
        let words = line.split(|c: char| !c.is_ascii_digit());
        let n: Vec<u64> = words.filter_map(|w| w.parse().ok()).collect();
        // Drop the (postings, blocks, postings a block) of the two
        // sections.
        let sections = [&n[1..2], &n[5..6], &n[9..]].concat();
        assert_eq!(n[0], sections.iter().sum::<u64>(), "{line}");
    }

    let text = ok(&["stats", db]);
    // The delta is empty after the compaction; the tiers hold the
    // documents.
    for line in [
        "RPIndex delta: 0 docs, 0 trie nodes",
        "RPIndex segment .g1.rp.seg: 3 docs, 4 trie nodes",
        "EPIndex segment .g2.ep.seg: 1 docs, ",
        "symbols: 12 name(s), 12 in 2 symbol run(s), 0 in the delta",
    ] {
        assert!(text.contains(line), "no `{line}` in:\n{text}");
    }
    let bytes: Vec<u64> = text
        .lines()
        .filter_map(|l| l.strip_prefix("bytes:"))
        .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
        .collect();
    let (total, files) = bytes.split_last().expect("stats prints bytes");
    assert_eq!(files.len(), 10, "manifest + log + 2 tiers of 4:\n{text}");
    assert_eq!(*total, files.iter().sum::<u64>(), "{text}");
    assert!(text.contains("vx docs 3..4 (.g2.vx.seg)"), "{text}");
    assert!(text.contains("sym names 10..12 (.g2.sym)"), "{text}");
    assert!(
        text.contains("total in 10 file(s)") && text.contains("log (.g2.log)"),
        "{text}"
    );

    let text = ok(&["fsck", db]);
    assert!(text.contains("segment .g1.vx.seg: 4 blocks"), "{text}");
    assert!(text.contains("segment .g1.sym: 10 name(s) ok"), "{text}");
    assert!(!text.contains("sibling"), "{text}");
    assert!(text.contains("fsck: clean"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}
