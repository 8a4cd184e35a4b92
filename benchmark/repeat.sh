#!/usr/bin/env bash
# Build once, run the full suite twice, and fail unless the two sets of
# results agree within the benchmark's own bounds:
#   * every _vus metric, every simulator count and every fingerprint identical;
#   * every wall-clock end-to-end metric within its BENCHMARK.json bound;
#   * threaded.rt_p50_us within two histogram buckets (25 %), threaded.achieved_frac within 2 %.
# Prints both sets side by side with the total wall time.
#
# usage: benchmark/repeat.sh [--seed <n>] [--seconds <n>]   (from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin="$target/release/hamband-benchmark"
mkdir -p benchmark/out

start=$(date +%s)
for set in 1 2; do
    echo "== suite run $set of 2"
    "$bin" suite "$@" | tee "benchmark/out/suite-$set.log" | grep -E '^(run|check|suite)'
done
elapsed=$(( $(date +%s) - start ))

python3 - "$elapsed" <<'PY'
import json, sys

def load(path):
    runs, prints = {}, {}
    for line in open(path):
        if line.startswith("RESULT "):
            _, workload, trace, result = line.split(" ", 3)
            runs[workload, trace] = json.loads(result)
        elif line.startswith("run "):
            current = dict(f.split("=") for f in line.split()[1:])
        elif line.startswith("check attempted"):
            prints[current["workload"], current["trace"]] = line.split("fingerprint=")[1].strip()
    return runs, prints

manifest = json.load(open("BENCHMARK.json"))
bound = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
bound["threaded.rt_p50_us"] = 0.25
bound["threaded.achieved_frac"] = 0.02
# Deterministic given the seed: the virtual clock and everything counted on the simulator.
wall = ("host_ops_per_s", "setup_s", "harness.host_s", "trace.overhead_frac")
def exact(name):
    return not (name in wall or name.startswith("threaded.") or name.endswith("_ns") or name == "sim.events_per_s")

(a, fa), (b, fb) = load("benchmark/out/suite-1.log"), load("benchmark/out/suite-2.log")
failures = []
for key in a:
    workload, trace = key
    print(f"\n{workload} --trace {trace}   fingerprint {fa.get(key)} | {fb.get(key)}")
    if key not in b or not (a[key]["correct"] and b[key]["correct"]):
        failures.append(f"{workload} trace {trace}: a run was missing or incorrect")
        continue
    if fa.get(key) != fb.get(key):
        failures.append(f"{workload} trace {trace}: fingerprints differ")
    for name, first in a[key]["metrics"].items():
        x, y = first["value"], b[key]["metrics"][name]["value"]
        verdict = ""
        if exact(name):
            if x != y:
                verdict = "DIFFERS (must be identical)"
        elif name in bound and x:
            if abs(x - y) / abs(x) > bound[name]:
                verdict = f"DIFFERS by more than {bound[name]:.1%}"
        if verdict:
            failures.append(f"{workload}: {name} {x} vs {y} {verdict}")
        print(f"  {name:<40} {x:>18.6f} {y:>18.6f} {first['unit']:<9}{verdict}")

print(f"\ntwo suite runs took {sys.argv[1]} s")
if failures:
    print("NOT REPEATABLE:\n  " + "\n  ".join(failures))
    sys.exit(1)
print("repeatable: virtual-clock metrics and fingerprints identical, wall-clock metrics within their bounds")
PY
