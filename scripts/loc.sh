#!/usr/bin/env bash
# The ruler for "less code": the two line counts every simplicity PR and
# every ROADMAP re-anchor quotes. Informational — it never fails.
#
#   total     Rust lines under crates/ src/ tests/ examples/
#   runtime   non-test lines of crates/runtime/src: each file up to its
#             first `#[cfg(test)]` line, child `tests.rs` modules left out
#
# Usage: scripts/loc.sh [-v]     (-v lists the runtime count per file)
set -euo pipefail
cd "$(dirname "$0")/.."

total=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
runtime=0
while IFS= read -r f; do
  lines=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  runtime=$((runtime + lines))
  if [ "${1:-}" = "-v" ]; then
    printf '%6d %s\n' "$lines" "$f"
  fi
done < <(find crates/runtime/src -name '*.rs' ! -name tests.rs | sort)

echo "rust lines (crates/ src/ tests/ examples/): $total"
echo "non-test lines of crates/runtime/src:       $runtime"
