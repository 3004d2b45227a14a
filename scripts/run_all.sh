#!/usr/bin/env sh
# Build, test, and regenerate every paper table/figure into bench_output.txt,
# plus a machine-readable perf snapshot into BENCH_pipeline.json.
set -e

# Respect an existing build/ configuration (whatever generator it was set up
# with); configure with the default generator only when none exists yet.
if [ ! -f build/CMakeCache.txt ]; then
  cmake -B build -S .
fi
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"
# Fast tier-1 suite first (everything unlabeled), then the slower
# statistical self-validation and durability legs (label catalog in
# tests/CMakeLists.txt). MPE_SKIP_STAT=1 / MPE_SKIP_RECOVERY=1 opt out of
# the labeled legs for quick iteration.
ctest --test-dir build --output-on-failure -LE 'stat|recovery'
if [ "${MPE_SKIP_STAT:-0}" != "1" ]; then
  echo "== statistical validation leg (MPE_SKIP_STAT=1 skips) =="
  ctest --test-dir build --output-on-failure -L stat
fi
if [ "${MPE_SKIP_RECOVERY:-0}" != "1" ]; then
  echo "== recovery / durability leg (MPE_SKIP_RECOVERY=1 skips) =="
  # Checkpoint/resume bit-identity, retry policy, campaign ledger and dist
  # coordinator/worker suites, plus the two script-driven kill -9 smokes:
  # single-process resume -> golden-compare (recovery_smoke.sh) and the
  # distributed chaos harness (dist_chaos_smoke.sh), which kills random
  # workers and coordinators under a seeded schedule and requires the
  # merged ledger to be byte-identical to a single-process campaign.
  ctest --test-dir build --output-on-failure -L recovery
fi

# Optional sanitizer leg (MPE_SANITIZERS=1): rebuild with ASan+UBSan and run
# the whole suite, then rebuild with TSan and run the concurrency- and
# fault-heavy tests. Separate build trees keep the main build warm.
if [ "${MPE_SANITIZERS:-0}" = "1" ]; then
  echo "== sanitizer leg: address,undefined =="
  cmake -B build-asan -S . -DMPE_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$(nproc 2>/dev/null || echo 4)"
  ctest --test-dir build-asan --output-on-failure

  echo "== sanitizer leg: thread =="
  cmake -B build-tsan -S . -DMPE_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$(nproc 2>/dev/null || echo 4)"
  ctest --test-dir build-tsan --output-on-failure \
    -R 'ThreadPool|Engine|ParallelEstimator|FaultInjection|RunControl|ParallelDb|ServerLive|ServerCache|ServerFleet|WorkerHubParking|DistEndToEnd|StreamingCompiled|StreamingPopulation|StreamingEvent|BatchEventSim'
fi

# Perf trajectory: google-benchmark JSON (per-benchmark real/cpu ns and
# items_per_second) from the microbenchmark suite. See docs/PERF.md for how
# to read it.
build/bench/micro_perf --benchmark_format=json > BENCH_pipeline.json

{
  for b in build/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
      echo "===== $(basename "$b") ====="
      "$b"
      echo
    fi
  done
} 2>&1 | tee bench_output.txt
