#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and runs
# the tests that exercise the thread pool and the shared decomposition
# cache, plus the end-to-end determinism suite (which drives the parallel
# det-k root search).
#
#   scripts/run_tsan_checks.sh [build-dir]
#
# The build directory (default: build-tsan) is created next to the source
# tree and is safe to delete afterwards.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHYPERTREE_SANITIZE=thread >/dev/null

tests=(thread_pool_test decomp_cache_test search_acceleration_test
       relation_kernel_test parallel_yannakakis_test shared_bounds_test
       portfolio_test morsel_engine_test)
cmake --build "${build_dir}" -j "$(nproc)" --target "${tests[@]}"

# halt_on_error makes a race fail the script instead of just logging it.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

cd "${build_dir}"
ctest --output-on-failure -R "$(IFS='|'; echo "${tests[*]}")"

echo "tsan checks passed"
