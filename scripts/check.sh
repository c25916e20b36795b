#!/usr/bin/env bash
# Full local check, in four stages:
#   1. regular build + the whole ctest suite (use `ctest -L tier1` by hand
#      for the fast gate), then the same suite in a Release build, in
#      parallel, so timing-sensitive tests run in both build types, then a
#      seeded synth sweep under the plan verifier in that Release build:
#      synth-2000 seeds 3000031-3000070, and synth-400 seeds 7001-7040
#      under each of orig, nored, earlycomb, --fuse, --no-scalarize and
#      --defer-reductions --partial-redundancy (280 programs, each of which
#      must verify clean);
#   2. Debug build with the translation validator over examples/ and the
#      built-in workloads, plus the fuzz shards (which use the verifier as
#      their plan oracle);
#   3. ASan/UBSan build + the whole suite, with bounds-checked standard
#      containers (-D_GLIBCXX_ASSERTIONS) and UBSan reports fatal
#      (-fno-sanitize-recover=undefined), so either one fails its test;
#   4. TSan build, verifying that the thread pool's forEach, the routine
#      fan-out with its file-order merge (the seeded routine-edit
#      differential on a 3-worker pool) and a fanned-out compile racing
#      concurrent server clients are race-free, that an 8-way batch compile
#      of every built-in workload (whose idle workers also take routines)
#      is race-free and bitwise equal to a serial run, that the
#      shared result cache is race-free and single-flight under 8-way
#      duplicated inputs, that the trace collector's lock-free per-thread
#      lanes are race-free under an 8-way traced batch compile, and that
#      the compile server is race-free under an 8-client gca-load mix —
#      with the HTTP admin plane scraped continuously from a background
#      thread for the whole run — followed by a SIGTERM drain.
# Usage: scripts/check.sh [extra cmake args...]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

echo "== regular build =="
cmake -B build -S . "$@"
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== Release build (ctest -j) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release "$@"
cmake --build build-release -j "$JOBS"
ctest --test-dir build-release --output-on-failure -j "$JOBS"

echo "== synth sweep under the verifier (Release) =="
# Release turns verify off by default, so --verify turns it on; a violation
# makes gca-compile exit nonzero and fails the stage.
for S in $(seq 3000031 3000070); do
  build-release/tools/gca-compile --no-plans --verify --synth=2000 \
    --synth-seed="$S" > /dev/null
done
for O in --strategy=orig --strategy=nored --strategy=earlycomb --fuse \
  --no-scalarize "--defer-reductions --partial-redundancy"; do
  for S in $(seq 7001 7040); do
    # $O is unquoted on purpose: it may hold two flags.
    build-release/tools/gca-compile --no-plans --verify --synth=400 \
      --synth-seed="$S" $O > /dev/null
  done
done

echo "== verifier build (Debug, --verify) =="
# Debug build so every assert is live, then the structural IR verifier and
# the independent availability dataflow check every example and built-in
# workload. The fuzz shards re-run here too: each seed already calls the
# verifier as its plan oracle, so this exercises it across all 120 fuzz
# plans with asserts on.
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug "$@"
cmake --build build-debug -j "$JOBS" --target gca-compile gca_fuzz_tests
build-debug/tools/gca-compile --workloads examples/*.hpf --lint \
  --verify --stats > /dev/null
ctest --test-dir build-debug -L fuzz --output-on-failure -j "$JOBS"

echo "== sanitizer build (address;undefined) =="
# GCA_SANITIZE also turns on container bounds checks and fatal UBSan reports
# (top-level CMakeLists.txt).
cmake -B build-asan -S . -DGCA_SANITIZE="address;undefined" "$@"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== thread sanitizer run (routine fan-out, parallel batch driver) =="
cmake -B build-tsan -S . -DGCA_SANITIZE="thread" "$@"
cmake --build build-tsan -j "$JOBS" --target gca-compile gca_tests
build-tsan/tests/gca_tests --gtest_filter='ThreadPoolTest.*:EditSequences/RoutineEditDifferential.*:ServerTest.ConcurrentClientsBitwiseIdentical'
build-tsan/tools/gca-compile --workloads --jobs 8 --stats --lint \
  --verify-determinism > /dev/null

echo "== thread sanitizer run (shared result cache, single-flight) =="
# Eight copies of the same input race for one cache key: under single-flight
# exactly one compiles (1 miss) and the other seven replay (7 hits), with
# every built-in workload compiling concurrently alongside.
J=examples/jacobi.hpf
build-tsan/tools/gca-compile --jobs 8 --lint --cache=mem \
  --cache-stats --workloads "$J" "$J" "$J" "$J" "$J" "$J" "$J" "$J" \
  > /dev/null 2> build-tsan/cache-stats.txt \
  || { cat build-tsan/cache-stats.txt; exit 1; }
# Anchor on the "cache: " prefix: plain hits=7, not routine-hits=7.
grep -q 'cache: hits=7 ' build-tsan/cache-stats.txt || {
  echo "error: cache single-flight check failed:"
  cat build-tsan/cache-stats.txt
  exit 1
}

echo "== thread sanitizer run (traced batch compile) =="
# Every worker emits spans/instants into its own trace lane while the main
# thread runs the driver; the exported trace must be valid and complete.
build-tsan/tools/gca-compile --workloads --jobs 8 --cache=mem \
  --trace=build-tsan/trace.json --metrics=build-tsan/metrics.json \
  --histogram "$J" > /dev/null
python3 scripts/validate_trace.py build-tsan/trace.json \
  --min-worker-lanes 8 --expect-decisions

echo "== thread sanitizer run (compile server under load + admin scrapes) =="
# The daemon's full concurrency surface under TSan: the accept loop, one
# connection thread per client, the worker pool, the shared result cache,
# the HTTP admin plane, and the drain path all running at once. Eight
# checked clients replay the workload + synth mix (every response
# bitwise-compared against a local compilation) while a background scraper
# hammers every admin endpoint for the whole run; then SIGTERM drains the
# server and the run report plus scraped metrics are cross-checked by
# validate_load.py and the exposition lint.
cmake --build build-tsan -j "$JOBS" --target gca-load
SRVDIR=$(mktemp -d)
trap 'rm -rf "$SRVDIR"' EXIT
build-tsan/tools/gca-compile --serve="$SRVDIR/s.sock" --cache \
  --admin=127.0.0.1:0 --log="$SRVDIR/req.log" \
  2> "$SRVDIR/serve.log" & SRV=$!
for _ in $(seq 100); do
  [ -S "$SRVDIR/s.sock" ] && grep -q 'admin on' "$SRVDIR/serve.log" && break
  sleep 0.1
done
ADMIN=$(sed -n 's/^gca-compile: admin on //p' "$SRVDIR/serve.log")
# Continuous scrape loop: every endpoint, as fast as it will go, until the
# load run finishes — the TSan-interesting interleavings are admin reads
# racing request accounting, not any particular scrape's content.
python3 - "$ADMIN" "$SRVDIR/scrape.stop" <<'EOF' & SCRAPER=$!
import sys, os, time, urllib.request
addr, stopfile = sys.argv[1], sys.argv[2]
while not os.path.exists(stopfile):
    for path in ("/metrics", "/statusz", "/tracez", "/healthz", "/readyz"):
        try:
            urllib.request.urlopen("http://%s%s" % (addr, path)).read()
        except Exception:
            pass
    time.sleep(0.001)
EOF
build-tsan/tools/gca-load --socket="$SRVDIR/s.sock" --workloads \
  --synth=60 --synth-count=2 --clients=8 --requests=64 --check --metrics \
  --admin="$ADMIN" > "$SRVDIR/load.json"
python3 -c "import sys,urllib.request as u; \
  open(sys.argv[2],'wb').write(u.urlopen('http://'+sys.argv[1]+'/metrics').read())" \
  "$ADMIN" "$SRVDIR/exposition.txt"
touch "$SRVDIR/scrape.stop"
wait "$SCRAPER"
kill -TERM "$SRV"
wait "$SRV" || { cat "$SRVDIR/serve.log"; exit 1; }
grep -q 'drained' "$SRVDIR/serve.log"
python3 scripts/validate_load.py "$SRVDIR/load.json" \
  --min-clients 8 --require-metrics
python3 scripts/validate_exposition.py "$SRVDIR/exposition.txt"
python3 -c "import json,sys; \
  assert sum(1 for l in open(sys.argv[1]) if json.loads(l)) >= 64" \
  "$SRVDIR/req.log"

echo "== all checks passed =="
