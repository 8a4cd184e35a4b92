#!/usr/bin/env bash
# Virtual fingerprints of the five benchmark workloads on seed 1 and on
# the hold-out seed: ten `workload seed fingerprint` lines. A host-only
# change must print the same ten lines as its parent — run it in both
# checkouts and diff.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
for seed in 1 1592642302; do
  for workload in bank-mixed counter-reduce orset-sessions courseware-leaderfail thr-counter-open; do
    fingerprint=$(./benchmark/target/release/hamband-benchmark \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0 |
      sed -n 's/^check .* fingerprint=\([0-9a-f]*\).*/\1/p')
    echo "$workload $seed ${fingerprint:-MISSING}"
  done
done
