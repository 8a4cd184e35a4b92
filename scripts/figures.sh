#!/usr/bin/env bash
# The paper-shape checks of `figures all` (Figs. 8-13, the headline and
# the two design-choice ablations) at 2 000 ops per data point: every
# `[ok]` / `[!!]` line with the number it printed, under its figure's
# heading, then the per-figure summary: 28 checks and 8 summary lines,
# about two seconds.
#
#   scripts/figures.sh           print them
#   scripts/figures.sh --check   diff them against scripts/figures.txt
#
# scripts/figures.txt is the committed expectation, held the way
# scripts/fingerprints.txt holds the benchmark's virtual results: the
# simulator's clock is deterministic, so a change that leaves protocol
# timing alone passes `--check` (run by scripts/check.sh) untouched, and
# one that moves the Hamband / MSG / Mu-SMR frontier — who wins, by how
# much, which checks hold — regenerates the file (`scripts/figures.sh >
# scripts/figures.txt`) and shows the moved lines in its diff. The
# thresholds live in crates/bench/src/experiments.rs and ablations.rs; a
# `[!!]` here is a recorded state of the reproduction (every check has
# held since the Mu-SMR baseline runs at `max_batch = 1`), not a CI
# failure — an unrecorded change is.
set -euo pipefail
cd "$(dirname "$0")/.."

print_checks() {
  cargo build --release --quiet --offline -p hamband-bench --bin figures
  # Exit status 1 says a shape check failed, and the lines say which;
  # any other failure (a panic) stops here.
  local out
  out=$(env -u HAMBAND_SEED HAMBAND_OPS=2000 ./target/release/figures all) || [ $? -eq 1 ]
  grep -q '^==== summary ====$' <<<"$out" || {
    echo "figures all did not reach its summary" >&2
    return 1
  }
  grep -E '^====|^ +\[(ok|!!)\]' <<<"$out" | sed 's/ *$//'
}

case "${1:-}" in
  "") print_checks ;;
  --check)
    if print_checks | diff scripts/figures.txt -; then
      echo "figure shape checks match scripts/figures.txt"
    else
      echo "FAIL: figure shape checks differ from scripts/figures.txt (< committed, > this tree)"
      exit 1
    fi
    ;;
  *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac
