#!/bin/sh
# Full gate: the ownership rule (lib/ keeps per-domain state only for
# Stats and Fault's hit counters; everything else hangs off its kernel);
# the counter-bump rule (a bump in lib/ looks up Stats.cur () once);
# the user-memory rule (only lib/vm, lib/isa and lib/os call the address
# space's accessors or its fault resolver; every other library reaches
# user memory through Kernel's accessors); the test suite and E1-E13
# against the golden transcript under four configurations; the examples;
# and one untimed world of each benchmark workload, none of whose ops
# may fail and whose simulated counts must equal
# bench/golden_perfbench_counts.txt; and one untimed link-boot pair of
# scripts/perfpairs.sh against this tree, so a change to perfbench's
# output that breaks the paired-run table fails here.  Every suite row
# checks crash consistency and the JIT's throughput floors over the
# cache-less and the TLB-only interpreter (test_jit).  test_oracle
# compares each fast path with its reference path inside the suite, so
# no row switches a single path off.  The configurations:
#   default         every fast path on: what users run;
#   oracle          every fast path off: the reference paths alone;
#   squeeze         every block trace-compiled and RAM at 32 pages, so the
#                   JIT, eviction and writeback run under every test;
#   cluster stress  clusters on 4 domains over a lossy network.  Loss
#                   changes what is delivered, so E1-E13 need only
#                   complete there; HEMLOCK_DOMAINS=4 alone is gated.
# E1-E13 are also gated at HEMLOCK_DOMAINS=2: on a 2-core host only a
# pool of at most 2 domains spins at its barrier; 4 park at once.
# Host-time benchmarking is perfbench's; this gate only checks that every
# op of its workloads still succeeds.  Each suite row, E1-E13 row,
# example and perfbench step runs under a 600 s bound (a row takes
# seconds): a row that exceeds it fails, so a hang fails the gate
# instead of stalling it.
set -e
cd "$(dirname "$0")/.."
# Rows with no variable set run the default configuration, whatever the
# calling shell exports.
for v in $(env | sed -n 's/^\(HEMLOCK_[A-Za-z0-9_]*\)=.*/\1/p'); do unset "$v"; done

ORACLE="HEMLOCK_ORACLE=1"
SQUEEZE="HEMLOCK_JIT_THRESHOLD=1 HEMLOCK_RAM_PAGES=32"
CLUSTER="HEMLOCK_DOMAINS=4 HEMLOCK_NET_PROFILE=lossy"
EXPERIMENTS="e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13"
BOUND="timeout 600"

echo "== build =="
dune build

# dune-workspace selects the release profile: no -opaque, so small
# accessors inline across modules on the JIT's hit path, with the dev
# profile's warnings still errors.  Gate the flags the benchmark builds with.
echo "== build flags (gates: no -opaque, dev warning set) =="
dune rules _build/default/lib/isa/.hemlock_isa.objs/native/hemlock_isa__Trace.cmx \
  > _build/trace_rules.txt
if grep -q -e '-opaque' _build/trace_rules.txt; then
  echo "Trace.cmx is compiled with -opaque: dune-workspace's release profile is not in effect"
  exit 1
fi
if ! grep -q -F '@1..3@5..28@30..39@43@46..47@49..57@61..62-40' _build/trace_rules.txt; then
  echo "Trace.cmx is compiled without the dev warning set"
  exit 1
fi
echo "release flags in effect"

# A kernel owns its pager and its linker's memos, so what a machine pages
# or caches cannot depend on which domain runs it.  Only the statistics
# and the fault engine's hit counters are per domain.
echo "== ownership (gate: Domain.DLS keys only in Stats and Fault) =="
keys=$(grep -rl Domain.DLS.new_key lib | sort | tr '\n' ' ')
if [ "$keys" != "lib/util/fault.ml lib/util/stats.ml " ]; then
  echo "Domain.DLS keys outside lib/util/fault.ml and lib/util/stats.ml: $keys"
  exit 1
fi
echo "Domain.DLS keys only in $keys"

# Each Stats.cur () is a Domain.DLS lookup, and the TLB hit paths and the
# interpreter bump a counter on every access: a bump binds the record
# once instead of writing (Stats.cur ()).f <- (Stats.cur ()).f + n.
echo "== counter bumps (gate: one Stats.cur () lookup per bump) =="
bumps=$( (grep -rn 'Stats\.cur ().*Stats\.cur ()' lib || true;
  find lib -name '*.ml' | sort | xargs awk 'FNR == 1 { prev = "" }
    prev ~ /<-[ \t]*$/ && $0 ~ /^[ \t]*(Hemlock_util\.)?\(Stats\.cur \(\)\)/ { print FILENAME ":" FNR ":" $0 }
    { prev = $0 }') )
if [ -n "$bumps" ]; then
  echo "counter bumps that look up Stats.cur () twice:"
  echo "$bumps"
  exit 1
fi
echo "every counter bump looks up Stats.cur () once"

# Kernel code reaches user memory one way: Kernel's accessors resolve a
# pager or copy-on-write fault and deliver the rest as SIGSEGV.  A raw
# access from a registered syscall would leave that rule to its caller.
echo "== user memory (gate: address-space accessors only in lib/vm, lib/isa and lib/os) =="
raw=$(grep -rnE '\b(As|Address_space)\.(load_u8|load_u32|store_u8|store_u32|fetch|read_cstring|resolve)\b' lib \
  | grep -vE '^lib/(vm|isa|os)/' || true)
if [ -n "$raw" ]; then
  echo "address-space accessors called outside lib/vm, lib/isa and lib/os:"
  echo "$raw"
  exit 1
fi
echo "address-space accessors called only in lib/vm, lib/isa and lib/os"

for row in "" "$ORACLE" "$SQUEEZE" "$CLUSTER"; do
  echo "== tests (${row:-default}) =="
  $BOUND env $row dune runtest --force
done

echo "== examples =="
for ex in quickstart rwho_demo parallel_sum figure_editor lynx_tables editor_server; do
  echo "-- examples/$ex"
  $BOUND dune exec "examples/$ex.exe" > /dev/null
done

# The golden rows double as the fault-layer-disabled check: the injection
# engine is compiled into every one of these paths but no plan is armed.
for row in "" "$ORACLE" "$SQUEEZE" "HEMLOCK_DOMAINS=2" "HEMLOCK_DOMAINS=4"; do
  echo "== golden transcript E1-E13 (${row:-default}) =="
  $BOUND env $row dune exec bench/main.exe -- $EXPERIMENTS > _build/e1_e13.txt
  diff -u bench/golden_e1_e13.txt _build/e1_e13.txt
  echo "golden transcript identical"
done

echo "== E1-E13 complete under the cluster stress (no golden gate) =="
$BOUND env $CLUSTER dune exec bench/main.exe -- $EXPERIMENTS > _build/e1_e13.txt
echo "experiments completed"

# A lib/ change that makes a benchmark op fail (a sync that persists no
# plan, a wrong console) would otherwise show only in the benchmark's
# own comparison, and one that moves a simulated count in none.  The
# script runs one untimed world per workload, traced (a traced world
# checks every op as an untraced one does), and fails unless each is
# correct with no failed op; its counts must equal the golden's.
echo "== perfbench: one untimed world per workload (gates: correct, no op failed, counts = golden) =="
$BOUND sh scripts/perfbench_counts.sh > _build/perfbench_counts.txt
diff -u bench/golden_perfbench_counts.txt _build/perfbench_counts.txt
echo "simulated counts identical"

# The paired-run table perf changes report is built from run.py's cycle
# row, host reference line and result line; one pair of untimed worlds
# checks they still parse.
echo "== perfpairs: one untimed link-boot pair against this tree (gate: the table builds, no op failed) =="
$BOUND sh scripts/perfpairs.sh . . link-boot 1 0
