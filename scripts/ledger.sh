#!/usr/bin/env bash
# The simplicity ledger: the numbers a simplicity PR reports in
# CHANGES.md, counted the same way every time.
#
#   scripts/ledger.sh [<base-rev>]      (default: HEAD)
#
# Per file under crates/{core,storage,server,cli}/src, base vs working
# tree: lines that are neither blank nor a `//` comment and sit above
# the file's `#[cfg(test)] mod` (every such module in these crates
# closes its file; a `#[cfg(test)]` on a lone item above it is counted
# like any other line), with one subtotal: `segment.rs` and the modules
# under `segment/` that succeeded it. A file git sees as renamed out of
# these directories (tracked or staged) is marked with where it went,
# and its lines are summed apart as moved, not removed. Then the option
# counts: `pub` fields of EngineConfig, ExecOpts and ServerConfig, CLI
# flag match sites (`== "--x"`, `"--x" =>`, `Some("--x")` in
# crates/cli/src/main.rs), and the distinct HTTP parameters the server
# reads (`req.param("x")` in crates/server/src/server.rs).
# Then the entry points: `pub fn`s of PrixIndex named execute*/stream*
# (ways to run a query) and check_insert/insert*/prepare (ways to add a
# document), of Delta named insert* (the way a document is added now),
# of PrixEngine named build*/reopen* (ways to make an engine), and of
# EngineSnapshot named query* (ways to query a snapshot), counted above
# each file's test module.
# Last, the `/metrics` registry: entries of `SERIES` in
# crates/server/src/metrics.rs and rows of README.md's table (a
# `cargo test` keeps the two lists equal; this prints their sizes).
set -euo pipefail
cd "$(dirname "$0")/.."
BASE=${1:-HEAD}
git rev-parse --verify --quiet "$BASE^{commit}" >/dev/null || { echo "ledger: unknown revision '$BASE'" >&2; exit 2; }

CRATES=(core storage server cli)

# Source text of <path> at the base revision / in the working tree;
# empty when the file does not exist on that side.
at_base() { git show "$BASE:$1" 2>/dev/null || true; }
at_work() { cat "$1" 2>/dev/null || true; }

# Reads a source file, prints what is above its test module: an
# unindented `#[cfg(test)]` ends the file only when `mod` follows it.
above_tests() {
  awk 'held { if (/^(pub\(crate\) )?mod /) exit; print "#[cfg(test)]"; held = 0 }
       /^#\[cfg\(test\)\]/ { held = 1; next }
       { print }'
}

code_lines() {
  above_tests |
    awk '{ sub(/^[ \t]+/, "") }
         $0 != "" && $0 !~ /^\/\// { n++ }
         END { print n + 0 }'
}

# pub_fields <struct>: reads a source file, counts the struct's `pub` fields.
pub_fields() {
  awk -v s="pub struct $1 {" '
    index($0, s) == 1 { inside = 1; next }
    inside && /^}/ { exit }
    inside && /^[ \t]+pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }'
}

cli_flags() {
  above_tests |
    { grep -oE '== "--[a-z][a-z0-9-]*"|"--[a-z][a-z0-9-]*" =>|Some\("--[a-z][a-z0-9-]*"\)' || true; } |
    wc -l | tr -d ' '
}

http_params() {
  above_tests |
    { grep -oE 'req\.param\("[a-z_]+"\)' || true; } |
    sort -u | wc -l | tr -d ' '
}

# Files renamed out of the counted directories since the base: old path
# -> new path, by git's rename detection.
declare -A MOVED=()
while IFS=$'\t' read -r _ old new; do
  MOVED[$old]=$new
done < <(git diff -M --diff-filter=R --name-status "$BASE" 2>/dev/null |
  awk -F'\t' -v d='^crates/(core|storage|server|cli)/src/' '$2 ~ d && $3 !~ d')

echo "code lines outside #[cfg(test)], $BASE -> working tree"
total_b=0 total_w=0 seg_b=0 seg_w=0 moved=0
for c in "${CRATES[@]}"; do
  dir="crates/$c/src"
  crate_b=0 crate_w=0
  while read -r f; do
    b=$(at_base "$f" | code_lines)
    w=$(at_work "$f" | code_lines)
    crate_b=$((crate_b + b)) crate_w=$((crate_w + w))
    case "$f" in crates/storage/src/segment.rs | crates/storage/src/segment/*)
      seg_b=$((seg_b + b)) seg_w=$((seg_w + w)) ;;
    esac
    if [ -n "${MOVED[$f]:-}" ]; then
      printf '  %-41s %6d -> %6d  (%+d, moved to %s)\n' "$f" "$b" "$w" $((w - b)) "${MOVED[$f]}"
      moved=$((moved + b))
    elif [ "$b" != "$w" ]; then
      printf '  %-41s %6d -> %6d  (%+d)\n' "$f" "$b" "$w" $((w - b))
    else
      printf '  %-41s %6d\n' "$f" "$w"
    fi
  done < <({ git ls-tree -r --name-only "$BASE" -- "$dir"; find "$dir" -name '*.rs'; } | sort -u)
  printf '  %-41s %6d -> %6d  (%+d)\n' "crates/$c/src total" "$crate_b" "$crate_w" $((crate_w - crate_b))
  total_b=$((total_b + crate_b)) total_w=$((total_w + crate_w))
done
printf '  %-41s %6d -> %6d  (%+d)\n' "all four crates" "$total_b" "$total_w" $((total_w - total_b))
printf '  %-41s %6d -> %6d  (%+d)\n' "segment.rs and successors" "$seg_b" "$seg_w" $((seg_w - seg_b))
printf '  %-41s %6d\n' "of which moved out of the four crates" "$moved"

echo "options, $BASE -> working tree"
while read -r name file; do
  printf '  %-41s %6d -> %6d\n' "$name pub fields" \
    "$(at_base "$file" | pub_fields "$name")" "$(at_work "$file" | pub_fields "$name")"
done <<'EOF'
EngineConfig crates/core/src/engine.rs
ExecOpts crates/core/src/index.rs
ServerConfig crates/server/src/server.rs
EOF
printf '  %-41s %6d -> %6d\n' "CLI flag sites" \
  "$(at_base crates/cli/src/main.rs | cli_flags)" "$(at_work crates/cli/src/main.rs | cli_flags)"
printf '  %-41s %6d -> %6d\n' "HTTP parameters read" \
  "$(at_base crates/server/src/server.rs | http_params)" "$(at_work crates/server/src/server.rs | http_params)"

echo "entry points, $BASE -> working tree"
# pub_fns <prefixes>: reads a source file, counts its `pub fn`s whose
# name starts with one of the `|`-separated prefixes.
pub_fns() {
  above_tests |
    { grep -cE "^ +pub fn ($1)[a-z_]*[(<]" || true; }
}
while read -r name file prefixes; do
  printf '  %-41s %6d -> %6d\n' "$name" \
    "$(at_base "$file" | pub_fns "$prefixes")" "$(at_work "$file" | pub_fns "$prefixes")"
done <<'ENTRY_POINTS'
PrixIndex::{execute*,stream*} crates/core/src/index.rs execute|stream
PrixIndex::{check_insert,insert*,prepare} crates/core/src/index.rs check_insert|insert|prepare
Delta::insert* crates/core/src/delta.rs insert
PrixEngine::build* crates/core/src/engine.rs build
PrixEngine::reopen* crates/core/src/engine.rs reopen
EngineSnapshot::query* crates/core/src/snapshot.rs query
ENTRY_POINTS

echo "/metrics registry, $BASE -> working tree"
series() { grep -cE '^ +Series \{ name: "prix_' || true; }
readme_rows() { grep -cE '^\| `prix_[a-z0-9_]+` \| (counter|gauge|histogram) \|' || true; }
printf '  %-41s %6d -> %6d\n' "SERIES entries" \
  "$(at_base crates/server/src/metrics.rs | series)" "$(at_work crates/server/src/metrics.rs | series)"
printf '  %-41s %6d -> %6d\n' "README /metrics rows" \
  "$(at_base README.md | readme_rows)" "$(at_work README.md | readme_rows)"
