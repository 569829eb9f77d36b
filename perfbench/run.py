#!/usr/bin/env python3
"""Build the Hemlock benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/bench.exe with dune at the root of the
checkout and runs it with the given arguments; the last line of its
output is the result JSON.  --smoke runs every workload of
BENCHMARK.json for a single world in both trace modes, and checks that
each run emits exactly the metrics BENCHMARK.json names, with their
units, and that no op failed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project beside perfbench/, so nothing to build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit(r.returncode)


def run(args):
    return subprocess.run(
        [EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            r = run(["--workload", workload["name"], "--seed", "1", "--seconds", "0",
                     "--trace", trace])
            problems = []
            if r.returncode != 0:
                problems.append("exit code %d" % r.returncode)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            for label, names in (("missing", missing), ("unexpected", extra), ("wrong unit", units)):
                if names:
                    problems.append("%s: %s" % (label, ", ".join(names)))
            if key == "end_to_end":
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append("not positive: " + ", ".join(zero))
            if result["failed"] or not result["correct"]:
                problems.append("error_rate %d/%d" % (result["failed"], result["attempted"]))
            print("%-12s trace %s: %s" % (workload["name"], trace,
                                          "ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    return 0 if ok else 1


def main(argv):
    build()
    if argv == ["--smoke"]:
        return smoke()
    r = run(argv)
    sys.stdout.write(r.stdout)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
