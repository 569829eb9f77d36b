#!/bin/sh
# Alternated host-time pairs of one perfbench workload in two checkouts:
#
#   sh scripts/perfpairs.sh A B WORKLOAD PAIRS SECONDS [FIRST_SEED]
#
# Pair N runs `python3 perfbench/run.py --workload WORKLOAD --seed S
# --seconds SECONDS --trace 0`, S = FIRST_SEED + N - 1 (FIRST_SEED
# defaults to 1, so a claim can be checked on seeds not used while
# writing), in checkout A and in checkout B (each builds its own
# perfbench/bench.exe), A first in odd pairs and B first in even ones,
# so host drift falls on both sides alike.  Per pair it prints each
# side's raw cycle median (unscaled), its host reference, cycle_ms,
# setup_s, peak_rss_mb and failed ops.  Then, per metric, each side's
# median [q1, q3], the ratio of the medians (B/A), the pairs in which B
# read lower, and whether a claim that B lowers the metric holds: B
# lower in at least 9 of every 10 pairs, and the medians further apart
# than A's q1-q3 spread.  The raw column shows what the host reference
# absorbs.  It exits 1 if a run fails, prints no result, or reports a
# failed op, after printing the table.
set -e
if [ $# -ne 5 ] && [ $# -ne 6 ]; then
  echo "usage: $0 A B WORKLOAD PAIRS SECONDS [FIRST_SEED]" >&2
  exit 2
fi
exec python3 - "$@" <<'EOF'
import json
import os
import re
import subprocess
import sys

a, b, workload, pairs, seconds = sys.argv[1:6]
first_seed = int(sys.argv[6]) if len(sys.argv) > 6 else 1
roots = {"A": a, "B": b}
metrics = ["raw cycle", "reference", "cycle_ms", "setup_s", "peak_rss_mb"]


def run(side, seed):
    script = os.path.join(roots[side], "perfbench", "run.py")
    r = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("perfpairs: %s (%s) seed %d exited %d" % (side, roots[side], seed, r.returncode))
    result = json.loads(lines[-1])
    cycle = re.search(r"^cycle\s+([0-9.]+)", r.stdout, re.M)
    reference = re.search(r"host reference ([0-9.]+) ms", r.stdout)
    if not (cycle and reference):
        sys.exit("perfpairs: %s seed %d printed no cycle row or host reference" % (side, seed))
    row = {"raw cycle": float(cycle.group(1)), "reference": float(reference.group(1))}
    for m in ("cycle_ms", "setup_s", "peak_rss_mb"):
        row[m] = result["metrics"][m]["value"]
    row["failed"] = result["failed"]
    return row


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


rows = {"A": [], "B": []}
print("workload %s, %s pairs of %s s from seed %d; A = %s, B = %s"
      % (workload, pairs, seconds, first_seed, a, b))
print("%-4s %-4s %4s %10s %10s %10s %9s %11s %6s"
      % ("pair", "seed", "side", "raw cycle", "reference", "cycle_ms", "setup_s",
         "peak_rss_mb", "failed"))
for n in range(1, int(pairs) + 1):
    seed = first_seed + n - 1
    order = ["A", "B"] if n % 2 == 1 else ["B", "A"]
    for side in order:
        row = run(side, seed)
        rows[side].append(row)
        print("%-4d %-4d %4s %10.4f %10.4f %10.4f %9.4f %11.2f %6d"
              % (n, seed, side, row["raw cycle"], row["reference"], row["cycle_ms"],
                 row["setup_s"], row["peak_rss_mb"], row["failed"]))
        sys.stdout.flush()

print()
print("%-12s %-30s %-30s %7s %8s  %s" % ("metric", "A median [q1, q3]", "B median [q1, q3]",
                                         "B/A", "B lower", "claim B lower"))
for m in metrics:
    summary = []
    for side in ("A", "B"):
        xs = [r[m] for r in rows[side]]
        summary.append((quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75)))
    (med_a, q1_a, q3_a), (med_b, _, _) = summary
    n = len(rows["A"])
    won = sum(1 for ra, rb in zip(rows["A"], rows["B"]) if rb[m] < ra[m])
    ratio = med_b / med_a if med_a else float("nan")
    holds = 10 * won >= 9 * n and med_a - med_b > q3_a - q1_a
    print("%-12s %-30s %-30s %7.3f %5d/%d  %s"
          % (m, *("%.4g [%.4g, %.4g]" % side for side in summary), ratio, won, n,
             "holds" if holds else "fails"))
failed = {side: sum(r["failed"] for r in rows[side]) for side in rows}
print("failed ops: A %d, B %d" % (failed["A"], failed["B"]))
sys.exit(1 if failed["A"] or failed["B"] else 0)
EOF
