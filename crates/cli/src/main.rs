//! `prix` — command-line interface for the PRIX XML index.
//!
//! ```text
//! prix index  <out.prix> <file.xml>...    bulk-build a database from XML files
//! prix query  <db.prix>  "<xpath>"        run a twig query
//! prix serve  <db.prix>  [--addr H:P] [--ingest]
//!                                         serve queries over HTTP; with
//!                                         --ingest, POST /documents too
//! prix stats  <db.prix>                   show index statistics
//! prix fsck   <db.prix>                   verify the log and the tier files
//! prix gen    <dataset> <dir> [--scale S] [--seed N]
//!                                         write a synthetic corpus as XML
//! ```
//!
//! Each `<file.xml>` becomes one document of the collection. Queries use
//! the XPath subset of the paper (Table 3): `/`, `//`, `*` steps,
//! attribute steps, and `[...]` predicates with optional `="value"`.
//!
//! Exit codes: 0 success, 1 runtime failure (bad database, query
//! error, ...), 2 usage error (unknown subcommand, missing flags) — the
//! usage text goes to stderr in that case.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use prix_core::plan::EngineChoice;
use prix_core::{EngineConfig, ExecOpts, PrixEngine, TierCheck};
use prix_server::{AltCache, Server, ServerConfig, SnapshotAlts};
use prix_xml::write_document;

const USAGE: &str = "usage:\n  prix index [--run-mem-mb N] [--split] <out.prix> <file.xml>...\n  prix query <db.prix> \"<xpath>\" [--unordered] [--limit N] [--engine prix|prix_rp|prix_ep|vist|twigstack|twigstackxb]\n  prix serve <db.prix> [--addr HOST:PORT] [--ingest] [--threads N] [--queue N] [--buffer-pages N] [--batch-threads N] [--max-conns N] [--result-cache-entries N] [--idle-timeout-ms N] [--compact-after N]\n  prix stats <db.prix>\n  prix segments <db.prix> [--verify]\n  prix compact <db.prix> [--run-mem-mb N]\n  prix fsck <db.prix>\n  prix explain <db.prix> \"<xpath>\"\n  prix add <db.prix> <file.xml>...\n  prix gen <dblp|swissprot|treebank|shop> <dir> [--scale S] [--seed N]";

/// A CLI failure: usage errors exit 2 (with the usage text on stderr),
/// runtime errors exit 1.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("index") => cmd_index(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("segments") => cmd_segments(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("add") => cmd_add(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        None => Err(usage_err("no command given")),
        Some(other) => Err(usage_err(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_index(args: &[String]) -> Result<(), CliError> {
    let mut split = false;
    let mut run_mem_bytes = prix_core::DEFAULT_RUN_MEM_BYTES;
    let mut args = args;
    loop {
        match args {
            [flag, rest @ ..] if flag == "--split" => {
                split = true;
                args = rest;
            }
            [flag, n, rest @ ..] if flag == "--run-mem-mb" => {
                let mb: usize = n
                    .parse()
                    .map_err(|_| usage_err("--run-mem-mb needs a positive integer"))?;
                if mb == 0 {
                    return Err(usage_err("--run-mem-mb needs a positive integer"));
                }
                run_mem_bytes = mb << 20;
                args = rest;
            }
            _ => break,
        }
    }
    let [out, files @ ..] = args else {
        return Err(usage_err(
            "index needs <out.prix> and at least one <file.xml>",
        ));
    };
    if out.starts_with("--") {
        return Err(usage_err(format!("unknown index flag `{out}`")));
    }
    if files.is_empty() {
        return Err(usage_err("index needs at least one <file.xml>"));
    }
    let cfg = EngineConfig {
        path: Some(PathBuf::from(out)),
        ..Default::default()
    };
    // Streaming: each document goes straight through the
    // external-merge-sort segment builder; the collection is never
    // materialized in memory. With `--split`, one monolithic export
    // (like the real DBLP file): each child of the root becomes its own
    // document.
    let mut builder =
        prix_core::BulkBuilder::new_mem(cfg, run_mem_bytes).map_err(|e| e.to_string())?;
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        if split {
            builder
                .add_xml_split(&text)
                .map_err(|e| format!("{f}: {e}"))?;
        } else {
            builder.add_xml(&text).map_err(|e| format!("{f}: {e}"))?;
        }
    }
    let docs = builder.doc_count();
    let engine = builder.finish().map_err(|e| e.to_string())?;
    println!(
        "indexed {docs} documents into {out} (generation {})",
        engine.generation()
    );
    for s in engine.segment_manifest() {
        println!(
            "  segment {}: kind {}, {}",
            s.suffix,
            seg_kind_name(s.kind),
            row_range(s)
        );
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let [db, xpath, rest @ ..] = args else {
        return Err(usage_err("query needs <db.prix> and \"<xpath>\""));
    };
    if db.starts_with("--") || xpath.starts_with("--") {
        return Err(usage_err(
            "query needs <db.prix> and \"<xpath>\" before any flags",
        ));
    }
    let mut unordered = false;
    let mut forced: Option<EngineChoice> = None;
    let mut opts = ExecOpts::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--unordered" => unordered = true,
            "--limit" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--limit needs an integer"))?;
                // --limit 0 means unlimited, matching the server.
                opts = if n == 0 {
                    opts.without_limit()
                } else {
                    opts.with_limit(n)
                };
            }
            "--engine" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--engine needs a value"))?;
                forced = Some(EngineChoice::parse(v).ok_or_else(|| {
                    usage_err(format!(
                        "unknown engine `{v}` (expected prix, prix_rp, prix_ep, vist, twigstack, or twigstackxb)"
                    ))
                })?);
            }
            other => return Err(usage_err(format!("unknown query flag `{other}`"))),
        }
    }
    if unordered && forced.is_some() {
        return Err(usage_err(
            "--engine cannot be combined with --unordered (arrangement matching is PRIX-only)",
        ));
    }
    let engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    let snap = engine.snapshot();
    let q = snap.parse_query(xpath).map_err(|e| e.to_string())?;
    let out = if unordered {
        snap.query_unordered_opts(&q, &opts)
            .map_err(|e| e.to_string())?
    } else {
        // ViST/TwigStack substrates are built on first use, out of the
        // documents reconstructed from the RP index.
        let cache = AltCache::new();
        let alts = SnapshotAlts {
            snap: &snap,
            cache: &cache,
        };
        snap.query_routed(&q, &opts, forced, &alts)
            .map_err(|e| e.to_string())?
            .outcome
    };
    println!(
        "{} match(es){} via {} ({}) in {:?} ({} pages read, {} range queries, {} candidates)",
        out.matches.len(),
        if out.truncated {
            " (truncated by --limit)"
        } else {
            ""
        },
        out.engine.label(),
        out.index_used,
        out.elapsed,
        out.io.physical_reads,
        out.stats.range_queries,
        out.stats.candidates
    );
    println!(
        "io: {} pages read, {} pages written, {} fsyncs",
        out.io.physical_reads, out.io.physical_writes, out.io.fsyncs
    );
    println!("epoch: {}", engine.epoch());
    println!(
        "stages: filter {:?}, refine {:?}, project {:?}",
        out.stats.filter_time, out.stats.refine_time, out.stats.project_time
    );
    for m in out.matches.iter().take(50) {
        println!("  doc {} -> nodes {:?}", m.doc, m.embedding);
    }
    if out.matches.len() > 50 {
        println!("  ... and {} more", out.matches.len() - 50);
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let [db, rest @ ..] = args else {
        return Err(usage_err("serve needs <db.prix>"));
    };
    if db.starts_with("--") {
        return Err(usage_err("serve needs <db.prix> before any flags"));
    }
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7140".to_string(),
        ..Default::default()
    };
    let mut buffer_pages = 2000usize;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| usage_err(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--addr" => cfg.addr = val("--addr")?.clone(),
            "--ingest" => cfg.ingest = true,
            "--threads" => {
                cfg.threads = val("--threads")?
                    .parse()
                    .map_err(|_| usage_err("--threads needs an integer"))?
            }
            "--queue" => {
                cfg.queue_depth = val("--queue")?
                    .parse()
                    .map_err(|_| usage_err("--queue needs an integer"))?
            }
            "--buffer-pages" => {
                buffer_pages = val("--buffer-pages")?
                    .parse()
                    .map_err(|_| usage_err("--buffer-pages needs an integer"))?
            }
            "--batch-threads" => {
                cfg.batch_threads = val("--batch-threads")?
                    .parse()
                    .map_err(|_| usage_err("--batch-threads needs an integer"))?
            }
            "--max-conns" => {
                cfg.max_connections = val("--max-conns")?
                    .parse()
                    .map_err(|_| usage_err("--max-conns needs an integer"))?
            }
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(
                    val("--read-timeout-ms")?
                        .parse()
                        .map_err(|_| usage_err("--read-timeout-ms needs an integer"))?,
                )
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout = Duration::from_millis(
                    val("--idle-timeout-ms")?
                        .parse()
                        .map_err(|_| usage_err("--idle-timeout-ms needs an integer"))?,
                )
            }
            "--result-cache-entries" => {
                cfg.result_cache_entries = val("--result-cache-entries")?
                    .parse()
                    .map_err(|_| usage_err("--result-cache-entries needs an integer"))?
            }
            "--compact-after" => {
                let n: usize = val("--compact-after")?
                    .parse()
                    .map_err(|_| usage_err("--compact-after needs a positive integer"))?;
                if n == 0 {
                    return Err(usage_err("--compact-after needs a positive integer"));
                }
                cfg.compact_after = Some(n);
            }
            other => return Err(usage_err(format!("unknown serve flag `{other}`"))),
        }
    }
    let engine = PrixEngine::reopen(db, buffer_pages).map_err(|e| e.to_string())?;
    let handle = Server::start(engine, cfg).map_err(|e| format!("cannot start server: {e}"))?;
    // The smoke script parses this line to find the ephemeral port;
    // keep its shape stable.
    println!("listening on http://{}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait().map_err(|e| format!("shutdown failed: {e}"))?;
    println!("shutdown complete");
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let [db, xpath] = args else {
        return Err(usage_err("explain needs <db.prix> and \"<xpath>\""));
    };
    let engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    let plan = engine.snapshot().explain(xpath);
    print!("{}", plan.map_err(|e| e.to_string())?);
    Ok(())
}

fn cmd_add(args: &[String]) -> Result<(), CliError> {
    let [db, files @ ..] = args else {
        return Err(usage_err("add needs <db.prix> and at least one <file.xml>"));
    };
    if files.is_empty() {
        return Err(usage_err("add needs at least one <file.xml>"));
    }
    // All of the files or none: read them all, insert them as one
    // batch, and save only when every one was accepted. On a rejection
    // the engine is dropped unsaved, which logs nothing.
    let texts = files
        .iter()
        .map(|f| std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}")))
        .collect::<Result<Vec<String>, String>>()?;
    let mut engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    let outcome = engine.ingest_batch(&texts).map_err(|e| e.to_string())?;
    if let Some((i, reason)) = outcome.rejected.first() {
        return Err(format!("{}: {reason}; nothing was added", files[*i]).into());
    }
    for (f, id) in files.iter().zip(&outcome.accepted) {
        println!("added {f} as doc {id}");
    }
    engine.save().map_err(|e| e.to_string())?;
    println!("committed at epoch {}", engine.epoch());
    // Past its bound the log is folded into a tier, as a server would.
    if engine.log_full() && engine.compact().map_err(|e| e.to_string())? {
        println!(
            "the log reached its bound: compacted into generation {}",
            engine.generation()
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let [db] = args else {
        return Err(usage_err("stats needs <db.prix>"));
    };
    let engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    print_index_stats(&engine)?;
    print_log_state(&engine);
    print_file_bytes(&engine)
}

/// Bytes on disk per file class, segment files by tier, and their sum:
/// the numerator of the benchmark's `space_amp`.
fn print_file_bytes(engine: &PrixEngine) -> Result<(), CliError> {
    let sizes = engine.file_sizes().map_err(|e| e.to_string())?;
    let tier_of = |suffix: &str| {
        engine
            .segment_manifest()
            .iter()
            .find(|s| s.suffix == suffix)
            .map(|s| format!("{} {}", seg_kind_name(s.kind), row_range(s)))
    };
    for (suffix, bytes) in &sizes {
        let class = match (tier_of(suffix), suffix.as_str()) {
            (Some(row), _) => row,
            (None, ".seg") => "manifest".to_string(),
            (None, _) => "log".to_string(),
        };
        println!("bytes: {bytes:>10}  {class} ({suffix})");
    }
    let total: u64 = sizes.iter().map(|(_, b)| b).sum();
    println!("bytes: {total:>10}  total in {} file(s)", sizes.len());
    Ok(())
}

fn seg_kind_name(kind: u8) -> &'static str {
    match kind {
        prix_core::SEG_KIND_RP => "rp",
        prix_core::SEG_KIND_EP => "ep",
        prix_core::SEG_KIND_VX => "vx",
        prix_core::SEG_KIND_SYM => "sym",
        _ => "?",
    }
}

/// What a manifest row covers: documents, or — a symbol run — names of
/// the dictionary.
fn row_range(s: &prix_core::ManifestSegment) -> String {
    let what = if s.kind == prix_core::SEG_KIND_SYM {
        "names"
    } else {
        "docs"
    };
    format!("{what} {}..{}", s.doc_base, s.doc_base + s.n_docs)
}

fn cmd_segments(args: &[String]) -> Result<(), CliError> {
    let (db, verify) = match args {
        [db] => (db, false),
        [db, flag] if flag == "--verify" => (db, true),
        _ => return Err(usage_err("segments needs <db.prix> [--verify]")),
    };
    let engine = PrixEngine::reopen(db, 256).map_err(|e| e.to_string())?;
    println!(
        "generation {}: {} segment(s), {} segment doc(s), {} mutable doc(s)",
        engine.generation(),
        engine.segment_manifest().len(),
        engine.segment_docs(),
        engine.mutable_docs()
    );
    print_segment_rows(&engine)?;
    print_log_state(&engine);
    if verify {
        for line in verify_tier_files(&engine)? {
            println!("  verified {line}");
        }
        println!("segments: clean");
    }
    Ok(())
}

/// One line per live segment, value run and symbol run: what it covers,
/// its format and what its reader keeps in memory.
fn print_segment_rows(engine: &PrixEngine) -> Result<(), CliError> {
    for s in engine.segment_manifest() {
        let docs = row_range(s);
        if s.kind == prix_core::SEG_KIND_SYM {
            println!(
                "  symbols {}: kind sym, {docs}, format v{}",
                s.suffix,
                prix_core::SYM_VERSION
            );
        } else if s.kind == prix_core::SEG_KIND_VX {
            let run = engine.value_run(s).map_err(|e| e.to_string())?;
            let (nums, strs) = run.posting_counts();
            println!(
                "  run {}: kind vx, {docs}, format v{}, {nums} numeric + {strs} string posting(s), \
                 {} bytes, {} fence/directory bytes resident",
                s.suffix,
                prix_core::VX_VERSION,
                run.file_len(),
                run.resident_bytes()
            );
        } else {
            let reader = engine.segment_reader(s).map_err(|e| e.to_string())?;
            println!(
                "  segment {}: kind {}, {docs}, format v{}, {} fence bytes resident",
                s.suffix,
                seg_kind_name(s.kind),
                prix_core::SEG_VERSION,
                reader.fence_bytes()
            );
            let l = reader.layout();
            let packed = |bytes: u64, rows: u64, blocks: u64| {
                let per_block = rows.checked_div(blocks).unwrap_or(0);
                format!("{bytes} ({rows} rows in {blocks} blocks, {per_block} a block)")
            };
            let sections = l.record_bytes
                + l.record_index_bytes
                + l.tag_bytes
                + l.doc_bytes
                + l.fence_bytes
                + l.meta_bytes
                + l.crc_bytes;
            println!(
                "    {} bytes: records {}, record index {}, tag rows {}, doc ends {}, \
                 fences {}, meta {}, CRC table {}, frame and alignment {}",
                l.file_bytes,
                l.record_bytes,
                l.record_index_bytes,
                packed(l.tag_bytes, l.tag_rows, l.tag_blocks),
                packed(l.doc_bytes, l.doc_rows, l.doc_blocks),
                l.fence_bytes,
                l.meta_bytes,
                l.crc_bytes,
                l.file_bytes - sections
            );
        }
    }
    Ok(())
}

/// Runs the full integrity check of every segment, value run and symbol
/// run, one report line each (`fsck`, `segments --verify`).
fn verify_tier_files(engine: &PrixEngine) -> Result<Vec<String>, CliError> {
    let checks = engine.verify_tiers().map_err(|e| e.to_string())?;
    let lines = checks.into_iter().map(|(suffix, check)| match check {
        TierCheck::Segment(c) => format!(
            "{suffix}: {} blocks, {} tag entries, {} doc entries, {} records ok",
            c.blocks, c.tag_entries, c.doc_entries, c.records
        ),
        TierCheck::ValueRun(c) => format!(
            "{suffix}: {} blocks, {} numeric posting(s), {} string posting(s) ok",
            c.blocks, c.num_postings, c.str_postings
        ),
        TierCheck::SymbolRun(names) => format!("{suffix}: {names} name(s) ok"),
    });
    Ok(lines.collect())
}

fn cmd_compact(args: &[String]) -> Result<(), CliError> {
    let mut run_mem_bytes = prix_core::DEFAULT_RUN_MEM_BYTES;
    let (db, rest) = match args {
        [db, rest @ ..] => (db, rest),
        _ => return Err(usage_err("compact needs <db.prix>")),
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--run-mem-mb" => {
                let mb: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--run-mem-mb needs a positive integer"))?;
                if mb == 0 {
                    return Err(usage_err("--run-mem-mb needs a positive integer"));
                }
                run_mem_bytes = mb << 20;
            }
            other => return Err(usage_err(format!("unknown compact flag `{other}`"))),
        }
    }
    let mut engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    let before = engine.mutable_docs();
    if !engine
        .compact_with(run_mem_bytes)
        .map_err(|e| e.to_string())?
    {
        println!("nothing to compact (no mutable documents)");
        return Ok(());
    }
    println!(
        "compacted {} document(s) into generation {}",
        before,
        engine.generation()
    );
    print_segment_rows(&engine)?;
    Ok(())
}

fn cmd_fsck(args: &[String]) -> Result<(), CliError> {
    let [db] = args else {
        return Err(usage_err("fsck needs <db.prix>"));
    };
    // A manifest that references a missing or corrupt tier file, or a
    // log record that is whole but does not decode, makes this reopen
    // fail — fsck refuses such databases outright.
    let engine = PrixEngine::reopen(db, 256).map_err(|e| e.to_string())?;
    let rep = engine
        .recovery()
        .expect("a reopened engine reports recovery");
    println!(
        "recovery: replayed {} record(s), {} document(s), from {} log byte(s){}",
        rep.replayed_frames,
        rep.replayed_documents,
        rep.wal_bytes,
        if rep.unclean_shutdown {
            "; the log ends in a torn record (a crash mid-commit), cut off by the next commit"
        } else {
            ""
        }
    );
    println!(
        "log: {} byte(s) found, {} record(s) replayed, {} byte(s) of torn tail",
        rep.log_len,
        rep.replayed_frames,
        rep.log_len - rep.wal_bytes
    );
    for line in verify_tier_files(&engine)? {
        println!("segment {line}");
    }
    let (nums, strs) = engine.valix().verify().map_err(|e| e.to_string())?;
    println!(
        "valix: delta docs {}..{}, {nums} numeric posting(s), {strs} string posting(s) ok",
        engine.valix().delta_base(),
        engine.valix().covered()
    );
    for name in unknown_siblings(db) {
        println!("sibling {name}: not part of this database (ignored)");
    }
    println!("fsck: clean");
    Ok(())
}

/// Files next to `<db>` that share its name prefix but match none of
/// the engine's file-naming patterns. fsck reports them (a stray
/// editor backup, a half-copied segment) instead of crashing on or
/// silently blessing them.
fn unknown_siblings(db: &str) -> Vec<String> {
    let path = std::path::Path::new(db);
    let Some(base) = path.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut unknown: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|name| name.starts_with(base) && !known_db_suffix(&name[base.len()..]))
        .collect();
    unknown.sort();
    unknown
}

/// Whether `suffix` (the part after the database name) is one the
/// engine itself writes: the manifest, or a generation's files
/// (`.gN.log`, `.gN.rp.seg`, `.gN.ep.seg`, `.gN.vx.seg`, `.gN.sym`).
fn known_db_suffix(suffix: &str) -> bool {
    let rest = match suffix {
        ".seg" => return true,
        s => match s.strip_prefix(".g") {
            Some(r) => r,
            None => return false,
        },
    };
    let digits = rest.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits == 0 {
        return false;
    }
    matches!(
        &rest[digits..],
        ".log" | ".rp.seg" | ".ep.seg" | ".vx.seg" | ".sym"
    )
}

/// One line per index of the mutable delta (what `prix add` and the
/// server's ingest grow until the next compaction), then one per
/// segment of every tier, from the build statistics in its meta blob.
fn print_index_stats(engine: &PrixEngine) -> Result<(), CliError> {
    let line = |name: String, idx: &prix_core::PrixIndex| {
        let b = idx.build_stats();
        println!(
            "{name}: {} docs, {} trie nodes, {} paths (best shared by {}), total seq len {}",
            idx.doc_count(),
            b.trie_nodes,
            b.trie_paths,
            b.max_path_sharing,
            b.total_seq_len
        );
    };
    line("RPIndex delta".into(), engine.rp_index());
    line("EPIndex delta".into(), engine.ep_index());
    for s in engine.segment_manifest() {
        if matches!(s.kind, prix_core::SEG_KIND_RP | prix_core::SEG_KIND_EP) {
            let idx = engine.segment_index(s).map_err(|e| e.to_string())?;
            let kind = seg_kind_name(s.kind).to_uppercase();
            line(format!("{kind}Index segment {}", s.suffix), idx);
        }
    }
    // The dictionary is tiered like the indexes: names in the tiers'
    // symbol runs, the rest interned by the log's batches.
    let runs = engine.segment_manifest().iter();
    let runs: Vec<_> = runs.filter(|s| s.kind == prix_core::SEG_KIND_SYM).collect();
    let tiered: usize = runs.iter().map(|s| s.n_docs as usize).sum();
    println!(
        "symbols: {} name(s), {tiered} in {} symbol run(s), {} in the delta",
        engine.symbols().len(),
        runs.len(),
        engine.symbols().len() - tiered
    );
    Ok(())
}

/// The batch log as this process holds it: its length and records (what
/// a reopen replays), the epoch the last one established, and the bound
/// at which the writer folds it into a tier.
fn print_log_state(engine: &PrixEngine) {
    if let Some(log) = engine.log() {
        println!(
            "log: {} byte(s), {} record(s) since generation {} began, at epoch {}; \
             compacted at {} byte(s)",
            log.len(),
            log.records(),
            engine.generation(),
            log.epoch(),
            prix_core::CHECKPOINT_LOG_BYTES
        );
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    use prix_datagen::Dataset;
    let (dataset, dir, rest) = match args {
        [ds, dir, rest @ ..] => (ds, dir, rest),
        _ => {
            return Err(usage_err(
                "gen needs <dblp|swissprot|treebank|shop> and <dir>",
            ))
        }
    };
    // `shop` (the value-predicate scenario) lives outside the Table 2
    // trio and is generated through its own config below.
    let dataset = match dataset.as_str() {
        "dblp" => Some(Dataset::Dblp),
        "swissprot" => Some(Dataset::Swissprot),
        "treebank" => Some(Dataset::Treebank),
        "shop" => None,
        other => return Err(usage_err(format!("unknown dataset `{other}`"))),
    };
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--scale needs a number"))?
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--seed needs an integer"))?
            }
            other => return Err(usage_err(format!("unknown flag `{other}`"))),
        }
    }
    let collection = match dataset {
        Some(ds) => prix_datagen::generate(ds, scale, seed),
        None => {
            prix_datagen::values::generate(&prix_datagen::values::ShopConfig::scaled(scale, seed))
        }
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for (id, tree) in collection.iter() {
        let xml = write_document(tree, collection.symbols());
        std::fs::write(dir.join(format!("doc{id:06}.xml")), xml).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} documents ({} elements) to {}",
        collection.len(),
        collection.stats().elements,
        dir.display()
    );
    Ok(())
}
