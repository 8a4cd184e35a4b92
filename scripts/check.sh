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

echo "== call-list guard (a type's methods are declared once, through calls!) =="
# Hand-written codecs and MethodId constants are the parallel lists
# `hamband_core::calls!` replaced; SpecSampler folded into
# WorkloadSupport. Only the lines before a file's first #[cfg(test)]
# count: tests may define throwaway Wire types. ObjectSpec reads the
# method list from the `Methods` impl calls! writes, so a
# `method_names` / `method_of` defined anywhere else restates it.
handkept=0
for f in crates/types/src/*.rs crates/core/src/demo.rs crates/runtime/src/messages.rs examples/*.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
      | grep -E 'impl Wire for|const [A-Z_0-9]+: *MethodId *='; then
    handkept=1
  fi
done
if grep -rn --include='*.rs' SpecSampler crates src tests examples benchmark/src benchmark/tests; then
  handkept=1
fi
if grep -rnE --include='*.rs' 'fn (method_names|method_of)\b' crates src tests examples \
    | grep -v '^crates/core/src/object\.rs:'; then
  handkept=1
fi
if [ "$handkept" -ne 0 ]; then
  echo "FAIL: declare the update enum's methods with hamband_core::calls! instead"
  exit 1
fi

echo "== registry guard (shipped types are listed once, in hamband_types::for_each_shipped) =="
# The generic suites visit the registry's rows; a type constructed by
# name in one of them is a hand-kept subset growing back. Scenario tests
# about one type (the part of a file below its "scenario tests" marker
# line, and every file not listed here) may name it.
handkept=0
for f in crates/types/tests/conformance.rs tests/semantics_cross_type.rs \
    tests/cluster_integration.rs tests/transport_conformance.rs \
    crates/bench/src/bin/chaos.rs; do
  if awk '/^\/\/ -+ scenario tests/{exit} {print FILENAME":"FNR": "$0}' "$f" \
      | grep -E '\b(Account|Bank|Cart|Counter|Courseware|GSet|LwwRegister|Movie|OrSet|Project)::(default|new)\('; then
    handkept=1
  fi
done
if [ "$(grep -rl --include='*.rs' 'fn visit_shipped' crates src tests examples | wc -l)" -ne 1 ]; then
  echo "the registry must be defined exactly once"
  handkept=1
fi
if [ "$handkept" -ne 0 ]; then
  echo "FAIL: visit the rows of hamband_types::for_each_shipped instead of naming types"
  exit 1
fi

echo "== verdict guard (a cluster is finished when hamband_runtime::settled says so) =="
# A node's workload_done() in a loop condition is a hand-kept cluster
# verdict growing back, and one without the leader rule (DESIGN §5b.6):
# step with `drive`, or with `settled` in the condition. Asserting a
# node's own verdict is fine.
if grep -rn --include='*.rs' 'workload_done()' tests crates/*/tests examples | grep -v 'assert'; then
  echo "FAIL: wait for hamband_runtime::settled (or call drive) instead of polling workload_done()"
  exit 1
fi

echo "== commit guard (a commit index leaves with an entry, or from the pump) =="
# The commit-cell round is the idle-pipeline fallback (DESIGN §5b.4):
# the pump posts it once it has planned, and commit.rs re-pushes a
# denied or stale round. A call from a completion or poll handler is the
# per-commit WRITE round growing back.
if grep -rn --include='*.rs' 'flush_commit(' crates src tests examples \
    | grep -v -e '^crates/runtime/src/calls\.rs:' -e '^crates/runtime/src/commit\.rs:'; then
  echo "FAIL: flush_commit may be called only from calls.rs (the pump) and commit.rs"
  exit 1
fi

echo "== one-copy guard (a broadcast's own slot is its backup) =="
# A recoverer READs the issuer's own F-ring and summary slots (DESIGN
# §8). A second image of a pending call is the backup region growing
# back.
if grep -rn --include='*.rs' -e 'write_backup' -e 'compose_backup_slot' -e 'layout\.backup' \
    crates src tests examples; then
  echo "FAIL: recover from the issuer's own slots; keep no second copy of a pending call"
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

echo "== benchmark package tests + self-check (ONE expected failure — see the script; ROADMAP item 5) =="
./scripts/benchmark_gate.sh

echo "== virtual fingerprints (five workloads, two seeds, against scripts/fingerprints.txt) =="
./scripts/fingerprints.sh --check

echo "== figure shape checks (Figs. 8-13 + headline at 2000 ops, against scripts/figures.txt) =="
./scripts/figures.sh --check

cargo build --release -p hamband-bench
# One seed per registry row and pass: `chaos` deals seed S to row
# S mod rows and prints `rows` in its header line.
rows=$(./target/release/chaos --seeds 0 | sed -n 's/.* over \([0-9]*\) rows.*/\1/p')

echo "== chaos smoke (one pass over the $rows rows) =="
./target/release/chaos --seeds "$rows"

echo "== chaos smoke, key-sharded (one pass, --sync-shards 4) =="
./target/release/chaos --seeds "$rows" --sync-shards 4

echo "== chaos smoke, crash-restart (one pass, persist log + rejoin) =="
./target/release/chaos --seeds "$rows" --restarts

echo "== chaos canary self-test =="
./target/release/chaos --seeds 16 --canary

echo "== line counts (informational; the ruler for \"less code\") =="
./scripts/loc.sh

echo "all checks passed"
