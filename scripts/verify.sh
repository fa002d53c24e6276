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
cargo clippy --all-targets --offline --locked -- -D warnings
cargo fmt --all -- --check
# Doc comments link to public functions by name; a deleted or renamed
# one must fail here, not rot. (Links to private items only warn.)
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --offline --locked --workspace --quiet
cargo test -q --offline --workspace

# prixbench (the repository's benchmark, BENCHMARK.json) is a package
# of its own, so nothing above compiles it: build it against the
# workspace's current API and run its self-test.
cargo build --release --offline --manifest-path crates/bench/examples/prixbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path crates/bench/examples/prixbench/Cargo.toml -- --self-test

# The concurrency and server suites are timing-sensitive: run them
# again in release so contention bugs that hide under debug-build
# pacing still get a shot. The server suite binds ephemeral ports
# (127.0.0.1:0) only, so parallel CI runs don't collide. The executor
# suite also reruns in release: its golden (match order, counters and
# page counts, row by row) is exactly the kind of thing optimized
# codegen could perturb.
cargo test --release --test concurrency --offline --locked
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
trap 'rm -rf "$SMOKE"' EXIT

"$PRIX" gen dblp "$SMOKE/corpus" --scale 0.01 >/dev/null
# A bulk build: the corpus in one tier, an empty delta (whose trie
# scopes are all headroom for the later `prix add` and live-ingest
# smokes) and its batch log.
"$PRIX" index "$SMOKE/db.prix" "$SMOKE"/corpus/*.xml >/dev/null

"$PRIX" serve "$SMOKE/db.prix" --addr 127.0.0.1:0 >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!

# The first line printed is "listening on http://127.0.0.1:PORT".
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/serve.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "serve never reported its port" >&2; cat "$SMOKE/serve.log" >&2; exit 1; }

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

# Forced-engine smoke: the same query answered by the routed default
# and with ?engine=twigstackxb / ?engine=vist must return the identical
# match payload (the router canonicalizes every engine's matches), and
# the planner metrics must record the choices.
EQ='/query?xp=%2F%2Fwww%2Furl&limit=0'
match_json() { sed -n 's/.*"matches":\(.*\)}$/\1/p' <<<"$1"; }
ROUTED=$(http "$EQ")
grep -q '200 OK' <<<"$ROUTED" || { echo "forced-engine smoke: routed query failed" >&2; exit 1; }
grep -q '"engine":"prix_' <<<"$ROUTED" || { echo "forced-engine smoke: no engine field" >&2; echo "$ROUTED" >&2; exit 1; }
for ENG in twigstackxb vist; do
  FORCED=$(http "$EQ&engine=$ENG")
  grep -q '200 OK' <<<"$FORCED" || { echo "forced-engine smoke: engine=$ENG failed" >&2; echo "$FORCED" >&2; exit 1; }
  grep -q "\"engine\":\"$ENG\"" <<<"$FORCED" || { echo "forced-engine smoke: engine=$ENG did not run" >&2; echo "$FORCED" >&2; exit 1; }
  [ "$(match_json "$FORCED")" = "$(match_json "$ROUTED")" ] || {
    echo "forced-engine smoke: engine=$ENG matches differ from routed PRIX" >&2
    echo "routed: $(match_json "$ROUTED")" >&2
    echo "forced: $(match_json "$FORCED")" >&2
    exit 1
  }
done
PLANMETRICS=$(http /metrics)
grep -q 'prix_planner_engine_chosen_total{engine="twigstackxb"} 1' <<<"$PLANMETRICS" || {
  echo "forced-engine smoke: planner metrics missing twigstackxb choice" >&2; exit 1;
}
echo "forced-engine smoke OK (twigstackxb + vist bit-identical to routed)"

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
# read-your-writes must hold. Then a clean shutdown and fsck: the
# ingested document must be durable, not just visible.
"$PRIX" serve "$SMOKE/db.prix" --addr 127.0.0.1:0 --ingest >"$SMOKE/ingest.log" 2>&1 &
SERVE_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/ingest.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "ingest serve never reported its port" >&2; cat "$SMOKE/ingest.log" >&2; exit 1; }

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
http /shutdown POST >/dev/null

wait "$SERVE_PID" || { echo "ingest serve exited non-zero" >&2; cat "$SMOKE/ingest.log" >&2; exit 1; }
grep -q 'shutdown complete' "$SMOKE/ingest.log" || { echo "no clean shutdown after ingest" >&2; exit 1; }
"$PRIX" fsck "$SMOKE/db.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after live ingest" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after live ingest" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "live-ingest smoke OK (count $BEFORE -> $AFTER on port $PORT)"

# Batch-log smoke with a real SIGKILL: a serving writer acknowledges
# several POSTs — each one log record and one fsync, nothing else
# written — and is then killed outright. fsck must find those commits
# in the log and replay them, come out clean, and a count query must
# see every acknowledged document.
"$PRIX" serve "$SMOKE/db.prix" --addr 127.0.0.1:0 --ingest >"$SMOKE/kill.log" 2>&1 &
SERVE_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/kill.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "batch-log smoke: serve never reported its port" >&2; cat "$SMOKE/kill.log" >&2; exit 1; }
BEFORE=$(count_of "$(http "$Q")")
ACKED=4
for i in $(seq 1 "$ACKED"); do
  RESP=$(http /documents POST "<www><key>smoke/kill$i</key><editor>Kill Smoke</editor><url>http://example.org/kill$i</url></www>")
  grep -q '200 OK' <<<"$RESP" || { echo "batch-log smoke: POST #$i failed" >&2; echo "$RESP" >&2; exit 1; }
done
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
# with `prix add`, serve and query it through segments + delta over
# /dev/tcp, then compact and
# require the answer bit-identical — same matches before and after the
# delta folds into generation 2 — and a clean fsck at the end.
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

"$PRIX" add "$SMOKE/seg.prix" "$SMOKE"/corpus/doc00000*.xml >/dev/null

"$PRIX" serve "$SMOKE/seg.prix" --addr 127.0.0.1:0 >"$SMOKE/seg-serve.log" 2>&1 &
SERVE_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/seg-serve.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "segment serve never reported its port" >&2; cat "$SMOKE/seg-serve.log" >&2; exit 1; }
SEGQ=$(http "$Q")
grep -q '200 OK' <<<"$SEGQ" || { echo "query against bulk-built database failed" >&2; echo "$SEGQ" >&2; exit 1; }
grep -q '"seg_block_reads"' <<<"$SEGQ" || { echo "query response carries no segment I/O counters" >&2; exit 1; }
SEGMETRICS=$(http /metrics)
grep -q 'prix_engine_generation 1' <<<"$SEGMETRICS" || { echo "metrics missing generation gauge" >&2; exit 1; }
grep -q 'prix_engine_pinned_epochs' <<<"$SEGMETRICS" || { echo "metrics missing pinned-epochs gauge" >&2; exit 1; }
http /shutdown POST >/dev/null
wait "$SERVE_PID" || { echo "segment serve exited non-zero" >&2; cat "$SMOKE/seg-serve.log" >&2; exit 1; }

# Bit-identity across compaction: the match payload (doc -> embedding
# lines plus the match count) must not change by one byte.
match_payload() { # match_payload <out-file>
  { head -1 "$1" | sed 's/ in .*//'; grep '^  doc ' "$1" || true; }
}
# The predicate query's pre-filter is probed from the bulk tier's value
# run plus the delta's trees before, from two runs after.
SEG_QUERIES=("//www/url" "//inproceedings[year < 1985]")
for i in 0 1; do
  "$PRIX" query "$SMOKE/seg.prix" "${SEG_QUERIES[$i]}" --limit 0 >"$SMOKE/q-before-$i.txt"
done
grep -q '^[1-9][0-9]* match(es)' "$SMOKE/q-before-1.txt" || { echo "predicate query matched nothing before compaction" >&2; cat "$SMOKE/q-before-1.txt" >&2; exit 1; }
"$PRIX" compact "$SMOKE/seg.prix" >"$SMOKE/compact.log"
grep -q 'into generation 2' "$SMOKE/compact.log" || { echo "compact did not produce generation 2" >&2; cat "$SMOKE/compact.log" >&2; exit 1; }
for i in 0 1; do
  "$PRIX" query "$SMOKE/seg.prix" "${SEG_QUERIES[$i]}" --limit 0 >"$SMOKE/q-after-$i.txt"
  match_payload "$SMOKE/q-before-$i.txt" >"$SMOKE/m-before.txt"
  match_payload "$SMOKE/q-after-$i.txt" >"$SMOKE/m-after.txt"
  cmp -s "$SMOKE/m-before.txt" "$SMOKE/m-after.txt" || {
    echo "answer to ${SEG_QUERIES[$i]} changed across compaction" >&2
    diff "$SMOKE/m-before.txt" "$SMOKE/m-after.txt" >&2 || true
    exit 1
  }
done
"$PRIX" fsck "$SMOKE/seg.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after compaction" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after compaction" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "segment smoke OK (two bulk builds byte-identical incl. the value run, bulk -> add -> compact bit-identical for a path and a predicate query, fsck clean)"

# Value-predicate smoke: generate the shop scenario, index it (the
# value index is built alongside the structural ones), and require the
# same predicate answer from the CLI and from /query on a fresh server
# — bit-identical match lists — then an fsck, which also verifies the
# value run and the delta's valix.
"$PRIX" gen shop "$SMOKE/shop" --scale 0.05 >/dev/null
"$PRIX" index "$SMOKE/shop.prix" "$SMOKE"/shop/*.xml >/dev/null
CLI_PRED=$("$PRIX" query "$SMOKE/shop.prix" '//item[price < 10]' --limit 0)
grep -q '^7 match(es)' <<<"$CLI_PRED" || { echo "predicate smoke: CLI expected the 7 planted matches" >&2; echo "$CLI_PRED" >&2; exit 1; }
CLI_MATCHES=$(sed -n 's/^  doc \([0-9]*\) -> nodes \[\(.*\)\]$/\1:[\2]/p' <<<"$CLI_PRED" | tr -d ' ')
[ -n "$CLI_MATCHES" ] || { echo "predicate smoke: CLI printed no match lines" >&2; exit 1; }

"$PRIX" serve "$SMOKE/shop.prix" --addr 127.0.0.1:0 >"$SMOKE/shop-serve.log" 2>&1 &
SERVE_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/shop-serve.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "shop serve never reported its port" >&2; cat "$SMOKE/shop-serve.log" >&2; exit 1; }
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
grep -q 'valix: .* ok' "$SMOKE/fsck.log" || { echo "fsck did not verify the valix" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean on the shop database" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "value-predicate smoke OK (CLI and /query bit-identical, fsck clean)"

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
