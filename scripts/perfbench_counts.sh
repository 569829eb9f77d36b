#!/bin/sh
# The simulated counts of every benchmark workload: one untimed, traced
# world each (seed 1), printed as one "workload metric value" line per
# BENCHMARK.json metric whose unit is a count (count, pages, bytes,
# cycles, rounds), GC counters aside.  Two runs of one build print the
# same lines; host-time metrics are not printed.  Exits non-zero unless
# every world is correct with no failed op.  ci.sh diffs the output
# against the golden; to regenerate it:
#   sh scripts/perfbench_counts.sh > bench/golden_perfbench_counts.txt
set -e
cd "$(dirname "$0")/.."
# The counts are those of the default configuration.
for v in $(env | sed -n 's/^\(HEMLOCK_[A-Za-z0-9_]*\)=.*/\1/p'); do unset "$v"; done
mkdir -p _build
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 0 --trace 1 > _build/perfbench.txt
  tail -n 1 _build/perfbench.txt | python3 -c '
import json, sys
w = sys.argv[1]
r = json.loads(sys.stdin.read())
sys.stderr.write("%-12s correct %s, failed %d of %d\n" % (w, r["correct"], r["failed"], r["attempted"]))
if r["correct"] is not True or r["failed"] != 0:
    sys.exit(1)
units = ("count", "pages", "bytes", "cycles", "rounds")
for m in json.load(open("BENCHMARK.json"))["per_layer"]:
    if m["unit"] in units and not m["name"].startswith("gc."):
        print(w, m["name"], json.dumps(r["metrics"][m["name"]]["value"]))' "$w"
done
