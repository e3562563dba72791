#!/bin/sh
# CI gate: type-check, run the full test suite, then verify that the
# observability layer costs nothing when disabled and that a metrics-only
# sink costs at most 15% on a fine-grain BSP run (bench/overhead_check.ml).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune runtest =="
dune runtest

echo "== hrt_lint (zero unwaived findings) =="
dune exec hrt_lint -- --root . lib bin

echo "== observability overhead gates (disabled: zero; metrics-only: <=15%) =="
dune exec bench/overhead_check.exe

echo "== engine core smoke bench (quick) =="
# Small sizes: proves the harness runs end to end and writes its
# artifact; nothing here compares the wheel to the heap. The full-size
# regression gate is CI's enginebench job.
dune exec bin/hrt_sim.exe -- bench engine --quick --out /tmp/BENCH_engine_quick.json

echo "== analytical admission smoke =="
# A feasible set must be admitted (exit 0) with a certificate that
# replays, and the overloaded one rejected (exit 1) with a witness; the
# full cross-validation corpus is CI's admit job.
dune exec bin/hrt_sim.exe -- admit query P:1000:300 P:2000:400 S:50:1000
if dune exec bin/hrt_sim.exe -- admit query P:100:90; then
  echo "check.sh: overloaded set was admitted" >&2
  exit 1
fi
# On 4 domains, so the parallel batch must match the sequential one.
dune exec bin/hrt_sim.exe -- bench admit --quick --jobs 4 --out /tmp/BENCH_admit_quick.json

echo "== admission serving smoke =="
# Boot a real daemon (4 worker domains) + client round trips
# (cold/warm/batch) on a private socket; warm replies must be
# byte-identical to cold. The full-size regression gate is CI's serve job.
dune exec bin/hrt_sim.exe -- bench serve --quick --jobs 4 --out /tmp/BENCH_serve_quick.json

echo "check.sh: all gates passed"
