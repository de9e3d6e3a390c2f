#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and runs
# the tests that exercise the thread pool and the service's shared
# decomposition cache, plus the tree schedulers' level loops, the
# portfolio race (engines on a pool, each calling the kernels), the pooled
# bag materialization (morsel loops nested inside the per-bag loop) and
# weighted counting (morsel-parallel key coding of each child inside the
# per-level loop).
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

tests=(thread_pool_test decomp_cache_test tree_schedule_test
       relation_kernel_test parallel_yannakakis_test
       portfolio_test morsel_engine_test decomposition_solving_test
       counting_test)
cmake --build "${build_dir}" -j "$(nproc)" --target "${tests[@]}"

# halt_on_error makes a race fail the script instead of just logging it.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

cd "${build_dir}"
ctest --output-on-failure -R "$(IFS='|'; echo "${tests[*]}")"

echo "tsan checks passed"
