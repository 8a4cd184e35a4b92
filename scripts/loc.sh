#!/usr/bin/env bash
# The ruler for "less code": the line counts every simplicity PR and
# every ROADMAP re-anchor quotes. Informational — it never fails.
#
#   total     Rust lines under crates/ src/ tests/ examples/
#   runtime   non-test lines of crates/runtime/src: each file up to its
#             first `#[cfg(test)]` line, child `tests.rs` modules left out
#   rdma-sim  non-test lines of crates/rdma-sim/src, by the same rule
#
# Usage: scripts/loc.sh [-v]     (-v lists the per-file counts)
set -euo pipefail
cd "$(dirname "$0")/.."

total=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)

# Non-test lines of the .rs files under $1; -v lists them per file.
nontest() {
  local sum=0 lines f
  while IFS= read -r f; do
    lines=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
    sum=$((sum + lines))
    if [ "$verbose" = "-v" ]; then
      printf '%6d %s\n' "$lines" "$f" >&2
    fi
  done < <(find "$1" -name '*.rs' ! -name tests.rs | sort)
  echo "$sum"
}

verbose=${1:-}
runtime=$(nontest crates/runtime/src)
rdmasim=$(nontest crates/rdma-sim/src)

echo "rust lines (crates/ src/ tests/ examples/): $total"
echo "non-test lines of crates/runtime/src:       $runtime"
echo "non-test lines of crates/rdma-sim/src:      $rdmasim"
