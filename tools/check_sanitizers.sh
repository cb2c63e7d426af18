#!/usr/bin/env bash
# Builds the repository under a sanitizer (the GBDT_SANITIZE CMake option)
# and runs the test suite with it.
#
#   tools/check_sanitizers.sh                      # ASan+UBSan, all tests
#   tools/check_sanitizers.sh -L unit              # extra args go to ctest
#   GBDT_SANITIZE=thread tools/check_sanitizers.sh # ThreadSanitizer
#   JOBS=2 tools/check_sanitizers.sh               # compile jobs (default:
#                                                  # nproc)
#
# The ASan+UBSan tree lives in build-asan/, the TSan tree in build-tsan/,
# both next to the regular build/.  The TSan lane runs the unit, property,
# bench_smoke, hist_smoke, serve_smoke, race_smoke, objective_smoke and
# mgpu_smoke labels (the
# concurrency-relevant suites: every kernel launch exercises the thread
# pool, the bench smoke drives the observability hooks — trace spans,
# metrics shards — from those workers, the hist smoke hammers the tiled
# histogram build/merge kernels whose block-disjoint output tiles and
# partial copies are exactly the kind of sharing TSan would catch if they
# overlapped, the serve
# smoke runs the serving layer's producer/worker/hot-swap machinery — the
# request queue, the engine shared_ptr swap and the per-shard device locks —
# under real threads, the race smoke runs the happens-before detector's
# fault-injection triple plus the schedule-perturbation sweep of the
# double-buffered out-of-core pipeline, and the objective smoke trains
# sampled and ranking cases through every trainer path — the gradient
# masking and LambdaMART kernels run on the same worker pool, and the mgpu
# smoke drives K per-shard devices — each with its own worker pool and comm
# stream — through the ring/tree collectives and their event edges
# concurrently); audit-mode
# and race-mode
# fault-injection tests run their racy kernels on single-worker devices
# precisely so this lane stays clean.  The test_serve hot-swap race test
# (N producers x M publishes) also lives in the unit label, so both lanes
# cover it.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${GBDT_SANITIZE:-address}"
# A bare `-j` starts every compile at once: bound it.
jobs="${JOBS:-$(nproc)}"

if [[ "${mode}" == "thread" ]]; then
  build_dir="${repo_root}/build-tsan"
  cmake -B "${build_dir}" -S "${repo_root}" -DGBDT_SANITIZE=thread
  cmake --build "${build_dir}" -j "${jobs}"

  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

  cd "${build_dir}"
  if [[ $# -gt 0 ]]; then
    ctest --output-on-failure "$@"
  else
    ctest --output-on-failure -L 'unit|property|bench_smoke|hist_smoke|serve_smoke|race_smoke|objective_smoke|mgpu_smoke'
  fi
else
  build_dir="${repo_root}/build-asan"
  cmake -B "${build_dir}" -S "${repo_root}" -DGBDT_SANITIZE=ON
  cmake --build "${build_dir}" -j "${jobs}"

  # halt_on_error keeps a sanitizer report from being drowned out by later
  # tests; detect_leaks stays on (the default) to catch allocator misuse in
  # the simulated-device buffers.
  export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

  cd "${build_dir}"
  ctest --output-on-failure "$@"
fi
