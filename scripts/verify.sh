#!/usr/bin/env bash
# Tier-1 verification, runnable with no network and no crates.io cache:
# the workspace has zero external dependencies, so a clean checkout
# must build and test with --offline --locked. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
# The run must leave the work tree as it found it (checked at the end):
# empty on a clean checkout.
TREE_BEFORE=$(git status --porcelain)

# The simplicity ledger (code lines outside tests, option counts)
# against the last commit: informational, never fails the run.
scripts/ledger.sh HEAD || echo "ledger.sh failed (ignored)" >&2

cargo build --release --offline --locked
cargo clippy --workspace --all-targets --offline --locked -- -D warnings
cargo fmt --all -- --check
# Doc comments link to public functions by name; a deleted or renamed
# one must fail here, not rot, and public docs name private items in
# plain code, since a link to one leads nowhere in the rendered docs.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" cargo doc --no-deps --offline --locked --workspace --quiet
cargo test -q --offline --workspace
# `cargo test` builds the examples but never runs them: run each once,
# in release, so one that panics or has gone stale fails here.
for example in examples/*.rs; do
  cargo run --release --offline --locked --quiet --example "$(basename "$example" .rs)" >/dev/null
done

# The paper's nine queries (Table 3) on every engine at a small scale:
# run_experiments exits 1 when PRIX, ViST, TwigStack, TwigStackXB or
# the oracle counts other than the paper's matches. Its mismatch lines
# and verdict are what is printed.
cargo run --release --offline --locked --quiet -p prix-bench --bin run_experiments -- \
  --scale 0.025 --seed 11 | grep -E '^(!!|result counts)'

# prixbench (the repository's benchmark, BENCHMARK.json) is a package
# of its own, so nothing above compiles it: build it against the
# workspace's current API here (its self-test runs last, below).
cargo build --release --offline --manifest-path crates/bench/examples/prixbench/Cargo.toml

# The concurrency and server suites are timing-sensitive: run them
# again in release so contention bugs that hide under debug-build
# pacing still get a shot. The server suite binds ephemeral ports
# (127.0.0.1:0) only, so parallel CI runs don't collide. The executor
# suite also reruns in release: its golden (match order, counters and
# page counts, row by row) is exactly the kind of thing optimized
# codegen could perturb.
cargo test --release --test concurrency --offline --locked
# The storage crate's suites rerun with it: the pool's model test
# drives reads, writes and clears over random shard counts, its unit
# tests race readers across shards — races that only get tight under
# optimized codegen — and the B⁺-tree's model test checks a bulk load's
# page arithmetic against the entries it was given.
cargo test --release -p prix-storage --offline --locked
# So does the core crate's unit suite: the delta's view, poison and
# limited-answer tests live there, next to the ordered maps they read.
cargo test --release -p prix-core --offline --locked
# Refinement's checks (Algorithm 2) read the matched values in place and
# its views reuse their buffers: the prufer crate's suite (the checks
# against their allocating reference) and the engine-agreement property
# suite rerun in release, where integer overflow goes unchecked.
cargo test --release -p prix-prufer --offline --locked
cargo test --release --test property_engines --offline --locked
# An anchored stream's matches skip Algorithm 2: these two suites check
# them against the oracle and the paper's Table 3 counts, in release too.
cargo test --release --test engines_agree --offline --locked
cargo test --release --test table3_counts --offline --locked
cargo test --release --test server --offline --locked
cargo test --release --test executor_stream --offline --locked
# The server crate's unit suites (HTTP parser, LRU/plan/result caches)
# reruns in release: cache sharding and the keep-alive wire formats are
# exactly where optimized codegen could perturb behaviour.
cargo test --release -p prix-server --offline --locked

# The crash-consistency harness reruns in release too: its ~330 seeded
# kill-point iterations (including kills inside the online-ingest
# publish path) cover far more syscall interleavings per second there,
# and optimized codegen must not perturb the log's replay. The
# snapshot-isolation property suite reruns for the same reason: reader
# threads race a publishing writer, and the races only get tight under
# optimized codegen.
cargo test --release --test crash_recovery --offline --locked
cargo test --release --test snapshot_isolation --offline --locked
# The write-path ledger reruns in release as well: its byte and fsync
# counts come out of the log's framing and the compaction's files,
# arithmetic an optimizing build must not change.
cargo test --release --test write_amp --offline --locked
# The segment-lifecycle suite reruns in release for the same reasons:
# its crash iterations sweep kill points through bulk rebuild and
# compaction, and the byte-determinism tests compare segment files an
# optimizing build must still produce identically.
cargo test --release --test segments --offline --locked
# So does the value-predicate suite: its lifecycle property takes the
# value index through bulk build, ingest, compaction and reopen, and
# the run encoder's block arithmetic must not depend on the build.
cargo test --release --test value_predicates --offline --locked

# End-to-end smoke: index a tiny corpus, start `prix serve` on an
# ephemeral port, hit /healthz and /metrics over plain bash /dev/tcp,
# then POST /shutdown and require a clean exit 0.
cargo build --release -p prix-cli --offline --locked
PRIX=target/release/prix
SMOKE=$(mktemp -d)
# A smoke that fails leaves no server behind: the one started last is
# killed on any exit (after a clean shutdown it is already gone).
SERVE_PID=
trap '[ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT

# serve_port <what> <log>: the port a backgrounded `prix serve` prints on
# its first line ("listening on http://127.0.0.1:PORT"). The server may
# not have created its log yet, so a missing log is waited on like an
# empty one; ten seconds without a port fail the run.
serve_port() {
  local port
  for _ in $(seq 1 100); do
    port=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$2" 2>/dev/null || true)
    [ -n "$port" ] && { echo "$port"; return; }
    sleep 0.1
  done
  echo "$1 never reported its port" >&2
  cat "$2" >&2 2>/dev/null || true
  return 1
}

"$PRIX" gen dblp "$SMOKE/corpus" --scale 0.01 >/dev/null
# A bulk build: the corpus in one tier, an empty delta (which the later
# `prix add` and live-ingest smokes fill) and its batch log.
"$PRIX" index "$SMOKE/db.prix" "$SMOKE"/corpus/*.xml >/dev/null

"$PRIX" serve "$SMOKE/db.prix" --addr 127.0.0.1:0 >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
PORT=$(serve_port serve "$SMOKE/serve.log")

http() { # http <request-target> [method] [body] — one request, prints the response
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  if [ $# -ge 3 ]; then
    printf '%s %s HTTP/1.1\r\nHost: prix\r\nConnection: close\r\nContent-Length: %s\r\n\r\n%s' \
      "$2" "$1" "${#3}" "$3" >&3
  else
    printf '%s %s HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n' "${2:-GET}" "$1" >&3
  fi
  cat <&3
  exec 3>&- 3<&-
}

HEALTH=$(http /healthz)
grep -q '200 OK' <<<"$HEALTH" || { echo "healthz failed" >&2; exit 1; }
METRICS=$(http /metrics)
grep -q 'prix_http_requests_total' <<<"$METRICS" || { echo "metrics failed" >&2; exit 1; }
grep -q 'prix_cache_hit_ratio' <<<"$METRICS" || { echo "cache metrics missing" >&2; exit 1; }

# Keep-alive smoke: two requests down ONE socket. The first response
# must not close the connection; the second (Connection: close) ends
# it. Both must be 200s.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /healthz HTTP/1.1\r\nHost: prix\r\n\r\nGET /healthz HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n' >&3
KEEPALIVE=$(cat <&3)
exec 3>&- 3<&-
[ "$(grep -c '200 OK' <<<"$KEEPALIVE")" = 2 ] || { echo "keep-alive smoke: expected two 200s on one socket" >&2; echo "$KEEPALIVE" >&2; exit 1; }
grep -qi 'connection: keep-alive' <<<"$KEEPALIVE" || { echo "keep-alive smoke: first response closed the connection" >&2; exit 1; }
echo "keep-alive smoke OK (two 200s, one socket)"

# Routing smoke: every query runs by §5.6's rule — a value-free twig
# on the RPIndex (prix_rp) — and `engine=` is an unknown parameter the
# server ignores: the same request with &engine=vist returns the same
# match payload, still on prix_rp. /metrics has a planner row per index
# the rule chooses and none for an alternative engine, and routing has
# no estimate to miss: there is no misprediction series.
EQ='/query?xp=%2F%2Fwww%2Furl&limit=0'
match_json() { sed -n 's/.*"matches":\(.*\)}$/\1/p' <<<"$1"; }
ROUTED=$(http "$EQ")
grep -q '200 OK' <<<"$ROUTED" || { echo "routing smoke: query failed" >&2; exit 1; }
grep -q '"engine":"prix_rp"' <<<"$ROUTED" || { echo "routing smoke: //www/url did not run on prix_rp" >&2; echo "$ROUTED" >&2; exit 1; }
IGNORED=$(http "$EQ&engine=vist")
grep -q '200 OK' <<<"$IGNORED" || { echo "routing smoke: engine=vist was refused" >&2; echo "$IGNORED" >&2; exit 1; }
grep -q '"engine":"prix_rp"' <<<"$IGNORED" || { echo "routing smoke: engine=vist did not run on prix_rp" >&2; echo "$IGNORED" >&2; exit 1; }
[ -n "$(match_json "$ROUTED")" ] && [ "$(match_json "$IGNORED")" = "$(match_json "$ROUTED")" ] || {
  echo "routing smoke: engine=vist changed the matches" >&2
  echo "without: $(match_json "$ROUTED")" >&2
  echo "with:    $(match_json "$IGNORED")" >&2
  exit 1
}
PLANMETRICS=$(http /metrics)
grep -q 'prix_planner_engine_chosen_total{engine="prix_rp"}' <<<"$PLANMETRICS" || {
  echo "routing smoke: planner metrics missing the prix_rp row" >&2; exit 1;
}
if grep -qE 'engine="(vist|twigstack|twigstackxb)"' <<<"$PLANMETRICS"; then
  echo "routing smoke: /metrics has an alternative-engine row" >&2; exit 1
fi
if grep -q 'prix_planner_mispredict_total' <<<"$PLANMETRICS"; then
  echo "routing smoke: /metrics still has prix_planner_mispredict_total" >&2; exit 1
fi
echo "routing smoke OK (//www/url on prix_rp, engine=vist ignored)"

http /shutdown POST >/dev/null

wait "$SERVE_PID" || { echo "serve exited non-zero" >&2; cat "$SMOKE/serve.log" >&2; exit 1; }
grep -q 'shutdown complete' "$SMOKE/serve.log" || { echo "no clean shutdown message" >&2; exit 1; }
echo "serve smoke OK (port $PORT)"

# Crash-safety smoke with a real SIGKILL: start an ingest (`prix add`)
# into the durable database, kill the process mid-flight, and require
# that fsck recovers to a clean state and queries still answer. The
# kill races the ingest — landing before, during, or after the commit
# are all valid outcomes the batch log must absorb.
for i in 1 2 3; do
  "$PRIX" add "$SMOKE/db.prix" "$SMOKE"/corpus/*.xml >/dev/null 2>&1 &
  ADD_PID=$!
  sleep 0.0$((RANDOM % 10)) || true
  kill -9 "$ADD_PID" 2>/dev/null || true
  wait "$ADD_PID" 2>/dev/null || true
  "$PRIX" fsck "$SMOKE/db.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after SIGKILL #$i" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
  grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after SIGKILL #$i" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
done
"$PRIX" query "$SMOKE/db.prix" "//dblp" >/dev/null || { echo "query failed after crash recovery" >&2; exit 1; }
echo "crash smoke OK (3 SIGKILLs absorbed)"

# Live-ingest smoke: restart the server with --ingest, POST one
# document over /dev/tcp, and require the very next query to count it —
# the POST returns only after its epoch is published, so sequential
# read-your-writes must hold. `--compact-after 1` folds the document
# into a tier right after, and the engine's I/O counters must carry on
# across that pool swap: the POST's log append is still counted. Then a
# clean shutdown and fsck: the ingested document must be durable, not
# just visible.
"$PRIX" serve "$SMOKE/db.prix" --addr 127.0.0.1:0 --ingest --compact-after 1 >"$SMOKE/ingest.log" 2>&1 &
SERVE_PID=$!
PORT=$(serve_port "ingest serve" "$SMOKE/ingest.log")

Q='/query?xp=%2F%2Fwww%2Furl&limit=0' # //www/url, default cap lifted
count_of() { sed -n 's/.*"count":\([0-9]*\).*/\1/p' <<<"$1"; }
BEFORE=$(count_of "$(http "$Q")")
[ -n "$BEFORE" ] || { echo "live-ingest: query before POST returned no count" >&2; exit 1; }
DOC='<www><key>smoke/ingest</key><editor>Verify Smoke</editor><url>http://example.org/smoke</url></www>'
RESP=$(http /documents POST "$DOC")
grep -q '200 OK' <<<"$RESP" || { echo "live-ingest: POST /documents failed" >&2; echo "$RESP" >&2; exit 1; }
grep -q '"epoch"' <<<"$RESP" || { echo "live-ingest: POST response carries no epoch" >&2; echo "$RESP" >&2; exit 1; }
AFTER=$(count_of "$(http "$Q")")
[ "$AFTER" = "$((BEFORE + 1))" ] || { echo "live-ingest: //www/url count $BEFORE -> $AFTER, expected +1" >&2; exit 1; }
INGESTMETRICS=$(http /metrics)
grep -q '^prix_engine_generation 2$' <<<"$INGESTMETRICS" || { echo "live-ingest: the POST was not compacted into generation 2" >&2; echo "$INGESTMETRICS" >&2; exit 1; }
grep -q '^prix_bufferpool_wal_appends_total 1$' <<<"$INGESTMETRICS" || { echo "live-ingest: the log append did not survive the compaction in the counters" >&2; echo "$INGESTMETRICS" >&2; exit 1; }
http /shutdown POST >/dev/null

wait "$SERVE_PID" || { echo "ingest serve exited non-zero" >&2; cat "$SMOKE/ingest.log" >&2; exit 1; }
grep -q 'shutdown complete' "$SMOKE/ingest.log" || { echo "no clean shutdown after ingest" >&2; exit 1; }
"$PRIX" fsck "$SMOKE/db.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after live ingest" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after live ingest" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "live-ingest smoke OK (count $BEFORE -> $AFTER on port $PORT)"

# Batch-log smoke with a real SIGKILL: a serving writer acknowledges
# several POSTs — each one log record and one fsync, nothing else
# written — and is then killed outright. The POSTs come from a
# background loop while the foreground queries: every count a reader
# gets is a published epoch's, so it never goes down and never passes
# the documents sent. fsck must find the commits in the log and replay
# them, come out clean, and a count query must see every acknowledged
# document.
"$PRIX" serve "$SMOKE/db.prix" --addr 127.0.0.1:0 --ingest >"$SMOKE/kill.log" 2>&1 &
SERVE_PID=$!
PORT=$(serve_port "batch-log smoke: serve" "$SMOKE/kill.log")
BEFORE=$(count_of "$(http "$Q")")
ACKED=4
for i in $(seq 1 "$ACKED"); do
  RESP=$(http /documents POST "<www><key>smoke/kill$i</key><editor>Kill Smoke</editor><url>http://example.org/kill$i</url></www>")
  grep -q '200 OK' <<<"$RESP" || { echo "batch-log smoke: POST #$i failed" >&2; echo "$RESP" >&2; exit 1; }
done &
POSTS_PID=$!
SEEN=$BEFORE
for _ in $(seq 1 20); do
  N=$(count_of "$(http "$Q")")
  [ -n "$N" ] && [ "$N" -ge "$SEEN" ] && [ "$N" -le "$((BEFORE + ACKED))" ] || {
    echo "batch-log smoke: //www/url count $SEEN -> ${N:-none} while $ACKED POSTs ran from $BEFORE" >&2
    kill "$POSTS_PID" 2>/dev/null; kill -9 "$SERVE_PID"; exit 1
  }
  SEEN=$N
done
wait "$POSTS_PID" || { echo "batch-log smoke: a POST failed" >&2; kill -9 "$SERVE_PID"; exit 1; }
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$PRIX" fsck "$SMOKE/db.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after killing the writer" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -Eq '^log: [0-9]+ byte\(s\) found, [1-9][0-9]* record\(s\) replayed, [0-9]+ byte\(s\) of torn tail$' "$SMOKE/fsck.log" || { echo "batch-log smoke: fsck replayed no records" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after killing the writer" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
AFTER=$("$PRIX" query "$SMOKE/db.prix" "//www/url" --limit 0 | sed -n 's/^\([0-9]*\) match(es).*/\1/p')
[ "$AFTER" = "$((BEFORE + ACKED))" ] || { echo "batch-log smoke: //www/url count $BEFORE -> $AFTER, $ACKED documents were acknowledged" >&2; exit 1; }
echo "batch-log smoke OK ($ACKED acknowledged POSTs survived kill -9: $(grep '^log:' "$SMOKE/fsck.log"))"

# Segment lifecycle smoke: bulk-index the corpus into a fresh database,
# verify the segments, rebuild and compare them, grow a mutable delta
# of a hundred records with `prix add` — every one accepted —, serve
# and query it through segments + delta over /dev/tcp, then compact and
# require the answers bit-identical to a bulk build of the same files —
# with the delta, and after it folds into generation 2 — and a clean
# fsck at the end.
"$PRIX" index "$SMOKE/seg.prix" "$SMOKE"/corpus/*.xml >"$SMOKE/bulk.log"
grep -q 'generation 1' "$SMOKE/bulk.log" || { echo "bulk index did not report generation 1" >&2; cat "$SMOKE/bulk.log" >&2; exit 1; }
"$PRIX" segments "$SMOKE/seg.prix" --verify >"$SMOKE/segments.log"
grep -q 'segments: clean' "$SMOKE/segments.log" || { echo "segments --verify not clean after bulk index" >&2; cat "$SMOKE/segments.log" >&2; exit 1; }
# Determinism outside `cargo test`: a second bulk build of the same
# corpus must produce byte-identical segment files and value run.
"$PRIX" index "$SMOKE/seg2.prix" "$SMOKE"/corpus/*.xml >/dev/null
for KIND in rp ep vx; do
  cmp "$SMOKE/seg.prix.g1.$KIND.seg" "$SMOKE/seg2.prix.g1.$KIND.seg" || { echo "two bulk builds of one corpus wrote different $KIND segments" >&2; exit 1; }
done

ADDED=("$SMOKE"/corpus/doc0000[0-9][0-9].xml)
"$PRIX" add "$SMOKE/seg.prix" "${ADDED[@]}" >"$SMOKE/add.log" || { echo "prix add of ${#ADDED[@]} records failed" >&2; cat "$SMOKE/add.log" >&2; exit 1; }
[ "$(grep -c '^added ' "$SMOKE/add.log")" = "${#ADDED[@]}" ] || { echo "prix add did not add all ${#ADDED[@]} records" >&2; cat "$SMOKE/add.log" >&2; exit 1; }
# The reference: one bulk build of the corpus, then the added records,
# so its document ids are the tiered database's.
"$PRIX" index "$SMOKE/ref.prix" "$SMOKE"/corpus/*.xml "${ADDED[@]}" >/dev/null

"$PRIX" serve "$SMOKE/seg.prix" --addr 127.0.0.1:0 >"$SMOKE/seg-serve.log" 2>&1 &
SERVE_PID=$!
PORT=$(serve_port "segment serve" "$SMOKE/seg-serve.log")
SEGQ=$(http "$Q")
grep -q '200 OK' <<<"$SEGQ" || { echo "query against bulk-built database failed" >&2; echo "$SEGQ" >&2; exit 1; }
grep -q '"seg_block_reads"' <<<"$SEGQ" || { echo "query response carries no segment I/O counters" >&2; exit 1; }
SEGMETRICS=$(http /metrics)
grep -q 'prix_engine_generation 1' <<<"$SEGMETRICS" || { echo "metrics missing generation gauge" >&2; exit 1; }
grep -q 'prix_engine_pinned_epochs' <<<"$SEGMETRICS" || { echo "metrics missing pinned-epochs gauge" >&2; exit 1; }
http /shutdown POST >/dev/null
wait "$SERVE_PID" || { echo "segment serve exited non-zero" >&2; cat "$SMOKE/seg-serve.log" >&2; exit 1; }

# Bit-identity with the bulk build, before and after compaction: the
# match payload (doc -> embedding lines plus the match count) must not
# differ by one byte.
match_payload() { # match_payload <out-file>
  { head -1 "$1" | sed 's/ in .*//'; grep '^  doc ' "$1" || true; }
}
# The predicate query anchors on the bulk tier's value run before (its
# probe's postings give the candidates; the delta's documents descend
# the trie and are verified), on both runs after. Table 3's Q1, a dotted equality twig, anchors on the bulk
# tier's value run before (the delta's documents descend the trie) and
# on both runs after.
SEG_QUERIES=("//www/url" "//inproceedings[year < 1985]" '//inproceedings[./author="Jim Gray"][./year="1990"]')
# same_payload <query index> <when>: the tiered database's answer is the
# reference's.
same_payload() {
  "$PRIX" query "$SMOKE/seg.prix" "${SEG_QUERIES[$1]}" --limit 0 >"$SMOKE/q-$2-$1.txt"
  match_payload "$SMOKE/q-ref-$1.txt" >"$SMOKE/m-ref.txt"
  match_payload "$SMOKE/q-$2-$1.txt" >"$SMOKE/m-tiered.txt"
  cmp -s "$SMOKE/m-ref.txt" "$SMOKE/m-tiered.txt" || {
    echo "answer to ${SEG_QUERIES[$1]} $2 compaction differs from a bulk build's" >&2
    diff "$SMOKE/m-ref.txt" "$SMOKE/m-tiered.txt" >&2 || true
    exit 1
  }
}
for i in 0 1 2; do
  "$PRIX" query "$SMOKE/ref.prix" "${SEG_QUERIES[$i]}" --limit 0 >"$SMOKE/q-ref-$i.txt"
  same_payload "$i" before
done
grep -q '^[1-9][0-9]* match(es)' "$SMOKE/q-before-1.txt" || { echo "predicate query matched nothing before compaction" >&2; cat "$SMOKE/q-before-1.txt" >&2; exit 1; }
grep -q '^[1-9][0-9]* match(es)' "$SMOKE/q-before-2.txt" || { echo "Q1 matched nothing before compaction" >&2; cat "$SMOKE/q-before-2.txt" >&2; exit 1; }
"$PRIX" explain "$SMOKE/seg.prix" "${SEG_QUERIES[1]}" >"$SMOKE/explain-pred.txt"
grep -qx 'filter: anchored on the value run: year < 1985' "$SMOKE/explain-pred.txt" || { echo "explain does not anchor the predicate query on the value run" >&2; cat "$SMOKE/explain-pred.txt" >&2; exit 1; }
"$PRIX" explain "$SMOKE/seg.prix" "${SEG_QUERIES[2]}" >"$SMOKE/explain-q1.txt"
grep -qx 'filter: anchored on the value run: author = "Jim Gray", year = "1990"' "$SMOKE/explain-q1.txt" || { echo "explain does not anchor Q1 on the value run" >&2; cat "$SMOKE/explain-q1.txt" >&2; exit 1; }
"$PRIX" compact "$SMOKE/seg.prix" >"$SMOKE/compact.log"
grep -q "^compacted ${#ADDED[@]} document(s) into generation 2" "$SMOKE/compact.log" || { echo "compact did not fold the ${#ADDED[@]} added records into generation 2" >&2; cat "$SMOKE/compact.log" >&2; exit 1; }
# The compacted tier's value run is written from the delta's records.
"$PRIX" segments "$SMOKE/seg.prix" --verify >"$SMOKE/segments2.log"
grep -q 'verified \.g2\.vx\.seg: [0-9]* blocks, [0-9]* numeric posting(s), [1-9][0-9]* string posting(s) ok' "$SMOKE/segments2.log" || { echo "compaction wrote no verified value run" >&2; cat "$SMOKE/segments2.log" >&2; exit 1; }
grep -q 'segments: clean' "$SMOKE/segments2.log" || { echo "segments --verify not clean after compaction" >&2; cat "$SMOKE/segments2.log" >&2; exit 1; }
for i in 0 1 2; do
  same_payload "$i" after
done
"$PRIX" fsck "$SMOKE/seg.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after compaction" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after compaction" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "segment smoke OK (two bulk builds byte-identical incl. the value run, bulk -> add ${#ADDED[@]} records -> compact bit-identical to a bulk build for a path, a predicate and an anchored value query, fsck clean)"

# Value-predicate smoke: generate the shop scenario, index it (the
# value index is built alongside the structural ones), and require the
# same predicate answer from the CLI and from /query on a fresh server
# — bit-identical match lists — then an fsck, which also verifies the
# tier's value run.
"$PRIX" gen shop "$SMOKE/shop" --scale 0.05 >/dev/null
"$PRIX" index "$SMOKE/shop.prix" "$SMOKE"/shop/*.xml >/dev/null
CLI_PRED=$("$PRIX" query "$SMOKE/shop.prix" '//item[price < 10]' --limit 0)
grep -q '^7 match(es)' <<<"$CLI_PRED" || { echo "predicate smoke: CLI expected the 7 planted matches" >&2; echo "$CLI_PRED" >&2; exit 1; }
CLI_MATCHES=$(sed -n 's/^  doc \([0-9]*\) -> nodes \[\(.*\)\]$/\1:[\2]/p' <<<"$CLI_PRED" | tr -d ' ')
[ -n "$CLI_MATCHES" ] || { echo "predicate smoke: CLI printed no match lines" >&2; exit 1; }

"$PRIX" serve "$SMOKE/shop.prix" --addr 127.0.0.1:0 >"$SMOKE/shop-serve.log" 2>&1 &
SERVE_PID=$!
PORT=$(serve_port "shop serve" "$SMOKE/shop-serve.log")
# //item[price < 10], URL-encoded.
HTTP_PRED=$(http '/query?xp=%2F%2Fitem%5Bprice%20%3C%2010%5D&limit=0')
grep -q '200 OK' <<<"$HTTP_PRED" || { echo "predicate smoke: /query failed" >&2; echo "$HTTP_PRED" >&2; exit 1; }
HTTP_MATCHES=$(grep -o '{"doc":[0-9]*,"embedding":\[[0-9,]*\]}' <<<"$HTTP_PRED" \
  | sed 's/{"doc":\([0-9]*\),"embedding":\(\[[0-9,]*\]\)}/\1:\2/')
[ "$CLI_MATCHES" = "$HTTP_MATCHES" ] || {
  echo "predicate smoke: CLI and /query answers differ" >&2
  echo "cli:  $CLI_MATCHES" >&2
  echo "http: $HTTP_MATCHES" >&2
  exit 1
}
SHOPMETRICS=$(http /metrics)
grep -q 'prix_valix_probes_total [1-9]' <<<"$SHOPMETRICS" || { echo "predicate smoke: valix probe counter never moved" >&2; exit 1; }
http /shutdown POST >/dev/null
wait "$SERVE_PID" || { echo "shop serve exited non-zero" >&2; cat "$SMOKE/shop-serve.log" >&2; exit 1; }
"$PRIX" fsck "$SMOKE/shop.prix" >"$SMOKE/fsck.log" || { echo "fsck failed on the shop database" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'segment \.g1\.vx\.seg: .* ok' "$SMOKE/fsck.log" || { echo "fsck did not verify the value run" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean on the shop database" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "value-predicate smoke OK (CLI and /query bit-identical, fsck clean)"

# prixbench's self-test runs last, so every step above runs on every
# invocation: it fails "exact counters repeat" until the benchmark's
# next change mends that check (ROADMAP item 1), and the script exits
# non-zero there, before the work-tree check.
cargo run --release --offline --quiet --manifest-path crates/bench/examples/prixbench/Cargo.toml -- --self-test

# Nothing above may leave a trace in the work tree: whatever it builds
# or writes is under an ignored directory or in $SMOKE. (Wall clock is
# `prixbench`'s job; the clock-free assertions the retired bench
# binaries carried run in `cargo test` above.)
TREE_AFTER=$(git status --porcelain)
[ "$TREE_AFTER" = "$TREE_BEFORE" ] || {
  echo "verify.sh changed the work tree:" >&2
  diff <(echo "$TREE_BEFORE") <(echo "$TREE_AFTER") >&2 || true
  exit 1
}
echo "work tree untouched"
