#!/bin/sh
# Full gate: build; the test suite under the default configuration,
# each kill switch and each stress setting; the examples; the crash
# sweeps; the E1-E13 golden transcript under each configuration that
# must not change it; and `perf`, the JIT's throughput floors.  The
# fast-path gates (costs identical on and off, at every RAM budget and
# domain count) are suite tests; host-time benchmarking is perfbench's.
set -e
cd "$(dirname "$0")/.."
# Rows with no variable set run the default configuration, whatever the
# calling shell exports.
for v in $(env | sed -n 's/^\(HEMLOCK_[A-Za-z0-9_]*\)=.*/\1/p'); do unset "$v"; done

echo "== build =="
dune build

echo "== tests (caches on) =="
dune runtest --force

echo "== tests (caches off: HEMLOCK_NO_TLB + HEMLOCK_NO_DCACHE) =="
HEMLOCK_NO_TLB=1 HEMLOCK_NO_DCACHE=1 dune runtest --force

echo "== tests (linker fast path off: HEMLOCK_NO_SYMHASH + HEMLOCK_NO_PLANCACHE) =="
HEMLOCK_NO_SYMHASH=1 HEMLOCK_NO_PLANCACHE=1 dune runtest --force

echo "== tests (copy-on-write off: HEMLOCK_NO_COW) =="
HEMLOCK_NO_COW=1 dune runtest --force

echo "== tests (trace JIT off: HEMLOCK_NO_JIT) =="
HEMLOCK_NO_JIT=1 dune runtest --force

echo "== tests (trace JIT hot: HEMLOCK_JIT_THRESHOLD=1) =="
HEMLOCK_JIT_THRESHOLD=1 dune runtest --force

echo "== tests (demand paging off: HEMLOCK_NO_PAGER) =="
HEMLOCK_NO_PAGER=1 dune runtest --force

echo "== tests (RAM squeezed: HEMLOCK_RAM_PAGES=32) =="
HEMLOCK_RAM_PAGES=32 dune runtest --force

echo "== tests (clusters on 4 domains: HEMLOCK_DOMAINS=4) =="
HEMLOCK_DOMAINS=4 dune runtest --force

echo "== tests (network lossy: HEMLOCK_NET_PROFILE=lossy; gate is suite success — loss legitimately changes delivery) =="
HEMLOCK_NET_PROFILE=lossy dune runtest --force

echo "== examples =="
for ex in quickstart rwho_demo parallel_sum figure_editor lynx_tables editor_server; do
  echo "-- examples/$ex"
  dune exec "examples/$ex.exe" > /dev/null
done

echo "== crash sweep (deterministic fault plans; gate: recovery fsck clean) =="
dune exec bench/main.exe -- crash-sweep 1 2 3 4 5 6 7 8 9 10

echo "== crash sweep (clusters on 4 domains: HEMLOCK_DOMAINS=4) =="
HEMLOCK_DOMAINS=4 dune exec bench/main.exe -- crash-sweep 1 2 3 4 5 6 7 8 9 10

# Random fault plans draw from Fault.default_sites, which now includes
# net.send / net.deliver; the per-seed cluster burst inside crash-sweep
# exercises them.  A lossy network profile on top must not change the
# recovery verdicts.
echo "== crash sweep (network lossy: HEMLOCK_NET_PROFILE=lossy) =="
HEMLOCK_NET_PROFILE=lossy dune exec bench/main.exe -- crash-sweep 1 2 3 4 5 6 7 8 9 10

# The golden steps below double as the fault-layer-disabled check: the
# injection engine is compiled into every one of these paths but no plan
# is armed, and the transcripts must stay byte-identical to the seed.
echo "== golden transcript (E1-E13) =="
dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13.txt
echo "golden transcript identical"

echo "== golden transcript (linker fast path off) =="
HEMLOCK_NO_SYMHASH=1 HEMLOCK_NO_PLANCACHE=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nolinkfast.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nolinkfast.txt
echo "golden transcript identical without the linker fast path"

echo "== golden transcript (copy-on-write off) =="
HEMLOCK_NO_COW=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nocow.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nocow.txt
echo "golden transcript identical without copy-on-write"

echo "== golden transcript (trace JIT off) =="
HEMLOCK_NO_JIT=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nojit.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nojit.txt
echo "golden transcript identical without the trace JIT"

echo "== golden transcript (trace JIT hot: HEMLOCK_JIT_THRESHOLD=1) =="
HEMLOCK_JIT_THRESHOLD=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_hotjit.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_hotjit.txt
echo "golden transcript identical with every block trace-compiled"

echo "== golden transcript (demand paging off) =="
HEMLOCK_NO_PAGER=1 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_nopager.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_nopager.txt
echo "golden transcript identical without demand paging"

echo "== golden transcript (RAM squeezed: HEMLOCK_RAM_PAGES=32) =="
HEMLOCK_RAM_PAGES=32 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_ram32.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_ram32.txt
echo "golden transcript identical under a 32-page RAM budget"

echo "== golden transcript (clusters on 4 domains: HEMLOCK_DOMAINS=4) =="
HEMLOCK_DOMAINS=4 \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_dom4.txt
diff -u bench/golden_e1_e13.txt _build/e1_e13_dom4.txt
echo "golden transcript identical with clusters spread over 4 domains"

# Under a lossy profile the experiments must still *complete* (E5's
# cluster deployment pins its own delivery assumptions), but delivery
# differences are legitimate — only the default (ideal) diff gates.
echo "== experiments complete under a lossy network (no golden gate) =="
HEMLOCK_NET_PROFILE=lossy \
  dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 \
  > _build/e1_e13_netlossy.txt
echo "experiments completed under HEMLOCK_NET_PROFILE=lossy"

echo "== perf (gates: JIT >= 10x over no caches, >= 3x over the decode cache) =="
dune exec bench/main.exe -- perf
