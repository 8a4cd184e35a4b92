#!/usr/bin/env bash
# Repository gate: build, tier-1 tests, lints. CI entry point — run it
# locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== module size guard (no src/*.rs over 900 lines) =="
oversized=0
while IFS= read -r f; do
  lines=$(wc -l < "$f")
  if [ "$lines" -gt 900 ]; then
    echo "FAIL: $f has $lines lines (max 900) — split it into focused modules"
    oversized=1
  fi
done < <(find crates/*/src src -name '*.rs' 2>/dev/null)
[ "$oversized" -eq 0 ] || exit 1

echo "== deprecation guard (no deprecated items or shims) =="
# The PR-7 deprecation cycle is closed: new deprecated items (or
# allow(deprecated) shims papering over their use) must not reappear.
if grep -rn --include='*.rs' -e '#\[deprecated' -e 'allow(deprecated)' crates src 2>/dev/null; then
  echo "FAIL: deprecated items/shims found — remove the old API instead"
  exit 1
fi

echo "== build (release) =="
cargo build --release

echo "== tests (tier-1) =="
cargo test -q

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (broken intra-doc links are errors) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "== headline regression gate (vs committed BENCH_headline.json) =="
cargo build --release -p hamband-bench
scratch="$(mktemp -d)"
(cd "$scratch" && "$OLDPWD/target/release/headline" --baseline "$OLDPWD/BENCH_headline.json" > headline.log) \
  || { cat "$scratch/headline.log"; exit 1; }
tail -n 3 "$scratch/headline.log"
rm -rf "$scratch"

echo "== ingress session-sweep gate (vs committed BENCH_ingress.json) =="
scratch="$(mktemp -d)"
(cd "$scratch" && "$OLDPWD/target/release/ingress" --baseline "$OLDPWD/BENCH_ingress.json" > ingress.log) \
  || { cat "$scratch/ingress.log"; exit 1; }
tail -n 4 "$scratch/ingress.log"
rm -rf "$scratch"

echo "== sync-shard sweep gate (vs committed BENCH_shards.json + headline) =="
scratch="$(mktemp -d)"
(cd "$scratch" && "$OLDPWD/target/release/shards" \
    --baseline "$OLDPWD/BENCH_shards.json" \
    --headline "$OLDPWD/BENCH_headline.json" > shards.log) \
  || { cat "$scratch/shards.log"; exit 1; }
tail -n 4 "$scratch/shards.log"
rm -rf "$scratch"

echo "== open-loop load sweep shape gate (threaded backend) =="
# Wall-clock numbers are machine-specific, so the gate is shape-only
# (the bin exits nonzero unless every point converges, sub-knee points
# achieve >= 90% of offered, and latency distributions are finite);
# the wall-clock baseline that is held to a bound is the benchmark's
# `thr-counter-open` workload (benchmark/README.md).
scratch="$(mktemp -d)"
(cd "$scratch" && HAMBAND_LOAD_OPS=50000 "$OLDPWD/target/release/load" > load.log) \
  || { cat "$scratch/load.log"; exit 1; }
tail -n 8 "$scratch/load.log"
rm -rf "$scratch"

echo "== chaos smoke (16 seeds) =="
./target/release/chaos --seeds 16

echo "== chaos smoke, key-sharded (16 seeds, --sync-shards 4) =="
./target/release/chaos --seeds 16 --sync-shards 4

echo "== chaos smoke, crash-restart (50 seeds, persist log + rejoin) =="
./target/release/chaos --seeds 50 --restarts

echo "== chaos canary self-test =="
./target/release/chaos --seeds 16 --canary

echo "all checks passed"
