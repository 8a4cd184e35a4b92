#!/usr/bin/env bash
# Virtual fingerprints of the five benchmark workloads on seed 1 and on
# the hold-out seed: ten `workload seed fingerprint` lines.
#
#   scripts/fingerprints.sh           print the ten lines
#   scripts/fingerprints.sh --check   diff them against scripts/fingerprints.txt
#
# scripts/fingerprints.txt is the committed expectation. A host-only
# change leaves it alone and `--check` (run by scripts/check.sh) holds it
# to "virtual results identical"; a change that means to move virtual
# results regenerates the file — `scripts/fingerprints.sh >
# scripts/fingerprints.txt` — and shows the moved lines in its diff.
set -euo pipefail
cd "$(dirname "$0")/.."

# Cargo prunes a stale entry from benchmark/Cargo.lock whenever it builds
# the benchmark package; put the committed file back on the way out.
lock_copy=$(mktemp)
cp -p benchmark/Cargo.lock "$lock_copy"
trap 'cp -p "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT

print_fingerprints() {
  cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
  for seed in 1 1592642302; do
    for workload in bank-mixed counter-reduce orset-sessions courseware-leaderfail thr-counter-open; do
      fingerprint=$(./benchmark/target/release/hamband-benchmark \
          --workload "$workload" --seed "$seed" --seconds 1 --trace 0 |
        sed -n 's/^check .* fingerprint=\([0-9a-f]*\).*/\1/p')
      echo "$workload $seed ${fingerprint:-MISSING}"
    done
  done
}

case "${1:-}" in
  "") print_fingerprints ;;
  --check)
    if print_fingerprints | diff scripts/fingerprints.txt -; then
      echo "virtual fingerprints match scripts/fingerprints.txt"
    else
      echo "FAIL: virtual fingerprints differ from scripts/fingerprints.txt (< committed, > this tree)"
      exit 1
    fi
    ;;
  *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac
