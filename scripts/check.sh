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

echo "== one-writer guard (a summary slot copy is written by its source alone) =="
# A source appends to its summary log and posts each peer the suffix
# its copy lacks (reduce.rs); a restarted source re-posts the whole log
# (rejoin.rs). Anywhere else the region is only READ: a second writer
# landing an image it READ after the source compacted puts the old
# prefix back, and the records the source appends behind the new one
# are stranded at that peer (DESIGN §8).
if grep -rn --include='*.rs' 'layout\.summaries' crates/*/src src \
    | grep -v -e '^crates/runtime/src/reduce\.rs:' -e '^crates/runtime/src/rejoin\.rs:' \
    | grep -v 'post_read('; then
  echo "FAIL: only reduce.rs and rejoin.rs write summary slots; READ a peer's log and adopt from the bytes"
  exit 1
fi

echo "== one-apply guard (a call reaches each view once, from views.rs) =="
# views.rs has one function per rule — a committed, a summarized, a
# speculative call and an adopted record — and each reaches every view
# that exists once; the MSG baseline keeps its one state itself. An
# apply elsewhere in the runtime is a second copy of the state growing
# back (σ beside mat for a type whose summaries are joins). Only the
# lines before a file's first #[cfg(test)] count, and child tests.rs
# modules not at all: a test may build a state by hand.
oneapply=0
for f in $(find crates/runtime/src -name '*.rs' ! -name tests.rs ! -name views.rs ! -name baseline_msg.rs | sort); do
  if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" | grep -E '\.apply(_mut)?\('; then
    oneapply=1
  fi
done
if [ "$oneapply" -ne 0 ]; then
  echo "FAIL: apply a call to the replica's views through views.rs; keep no second state"
  exit 1
fi

echo "== rank guard (a generator picks by rank; a cascade drops one range) =="
# A set a generator picks from is a RankSet, whose nth is O(log n), and
# a pair relation is keyed by what a delete cascades on, so the delete
# removes one range (types/src/sets.rs). A walk to the k-th element or
# a retain over a whole relation grows with the run: host time per call
# rose with volume while pick walked a BTreeSet. Bank, OrSet and Cart
# draw their ids from a fixed space (account_space, element_space), so
# their scans stay bounded however long a run is. Only the lines before
# a file's first #[cfg(test)] count: a test may keep the walk as the
# reference it checks against.
rank=0
for f in crates/types/src/*.rs; do
  case "$f" in
    crates/types/src/bank.rs | crates/types/src/orset.rs | crates/types/src/cart.rs) continue ;;
  esac
  if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
      | grep -E '\.iter\(\)\.nth\(|\.retain\('; then
    rank=1
  fi
done
if [ "$rank" -ne 0 ]; then
  echo "FAIL: pick with RankSet::nth and cascade with sets::remove_key; walk no growing set"
  exit 1
fi

echo "== report guard (a run's report is a value; Display is its one format) =="
# RunReport prints itself and tests compare two with `==`. A JSON
# encoder in the library is the second, unread format growing back;
# the benchmark (outside these paths) writes its own result line.
if grep -rn --include='*.rs' -e 'fn to_json' -e 'push_json' crates src tests examples; then
  echo "FAIL: print a RunReport with Display or compare it as a value; add no JSON encoder"
  exit 1
fi

echo "== mirror guard (a replica keeps each fact once) =="
# The failure detector answers alive-set questions from its own
# suspicions, GroupEngine::tail is a leader's one tail, the pump hands
# the engines' gate to Ingress::next as a closure, and an arrival time
# reaches `issue` as its argument. A snapshot, a second tail or a field
# that carries either is a copy growing back.
if grep -rnE --include='*.rs' \
    'mod membership|Membership::|gate_accepting|gate_appended|pending_arrival|tail_hint' \
    crates src tests examples; then
  echo "FAIL: read the fact where it lives; keep no copy of it in another field"
  exit 1
fi

echo "== one-driver guard (crates/bench runs figures and chaos; the explorers have one caller) =="
# The ablations are an outcome `figures` checks, and every model-checking
# case is a tier-1 test. A third bench binary is an unchecked number
# growing back; an explorer call outside tests/model_checking.rs is one
# a port of core::explore to the runtime (ROADMAP item 7(c)) would miss.
onedriver=0
if find crates/bench/src/bin -type f ! -name figures.rs ! -name chaos.rs | grep .; then
  onedriver=1
fi
if grep -rnE --include='*.rs' 'explore_(rdma|abstract)' crates src tests examples \
    | grep -v -e '^crates/core/src/explore\.rs:' -e '^tests/model_checking\.rs:'; then
  onedriver=1
fi
if [ "$onedriver" -ne 0 ]; then
  echo "FAIL: add a figures outcome or a tests/model_checking.rs case instead of another driver"
  exit 1
fi

echo "== one-verb-path guard (a verb is posted, priced and landed one way) =="
# Ctx::post charges, counts, prices and orders every verb and message,
# one Action::Verb arm lands every one-sided verb, LatencyModel::latency
# prices every kind and Fabric::fifo keeps both FIFO clocks. A per-kind
# action, post helper, latency function or clock is the restated rule
# growing back.
if grep -rnE --include='*.rs' \
    'Action::Land\b|\bReadAt\b|\bCasAt\b|\bpost_verb\b|\b(write|read|cas|msg)_latency\b|\bfifo_msg\b' \
    crates src tests examples; then
  echo "FAIL: post through Ctx::post and land through Action::Verb; add no per-kind copy"
  exit 1
fi

echo "== quote guard (a figure line EXPERIMENTS.md quotes is a line of scripts/figures.txt) =="
# EXPERIMENTS.md quotes each figure's `[ok]`/`[!!]` lines from the
# committed output instead of restating its numbers. A quoted line that
# is not, whole and verbatim, a line of scripts/figures.txt is a number
# that drifted from its one home: the next move of a figure line shows
# up in the doc's diff or fails here.
quoted=$(grep -E '^ *\[(ok|!!)\]' EXPERIMENTS.md || true)
if [ -z "$quoted" ] || grep -Fxv -f scripts/figures.txt <<<"$quoted"; then
  echo "FAIL: quote figure lines verbatim from scripts/figures.txt (EXPERIMENTS.md quotes none, or the lines above are not in it)"
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
