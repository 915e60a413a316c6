#!/usr/bin/env bash
# Sanitizer sweep over the memcpy-heavy and kernel-contract suites.
#
# Builds the tree under EXA_SANITIZE and runs the targeted ctest labels
# (ROADMAP's CI item): migration and refluxing are memcpy-heavy
# (rebalance, amr), the debug-backend reruns replay every kernel in
# shuffled zone order, the burn and maestro suites burn zones on OpenMP
# threads, and the resilience suite hands staged checkpoint buffers to a
# background drain thread — under TSan that covers the
# main-thread/drain-thread handshake the runtime checkers cannot see.
# The combination is where sanitizers catch what the runtime checkers
# cannot, and vice versa. A seeded multi-fault campaign smoke test runs
# last: rank failures + halo corruption + a checkpoint bit flip through
# the full recover/replay path under the sanitizer.
#
# Usage:
#   ci/sanitize.sh                  # ASan+UBSan (default)
#   ci/sanitize.sh thread           # TSan (cannot combine with address)
#   ci/sanitize.sh "address;leak"   # any EXA_SANITIZE list
set -euo pipefail

SAN="${1:-address;undefined}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-sanitize-${SAN//;/-}"

# Repeated `ctest -L` flags AND together; one regex is the union.
if [[ "${SAN}" == *thread* ]]; then
    # A TSan build leaves OpenMP out (see CMakeLists.txt: TSan cannot see
    # libgomp's barriers), so core, burn and maestro run their OpenMP
    # cases on the Serial loops; the threads TSan checks are the ensemble
    # workers and the checkpoint drain thread (resilience). The
    # single-threaded debug-backend reruns would only add hours.
    LABELS='core|burn|maestro|ensemble|resilience'
    EXCLUDE='debug-backend'
else
    LABELS='core|rebalance|debug-backend|amr|burn|maestro|resilience|ensemble|gravity'
    EXCLUDE='^$'
fi

cmake -B "${BUILD}" -S "${ROOT}" -DEXA_SANITIZE="${SAN}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)"
ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" -L "${LABELS}" \
      -LE "${EXCLUDE}"

# Seeded 3-fault campaign smoke test: the supervised Sedov campaign
# (rank-failure + halo-payload-corrupt + checkpoint-bit-flip) end to end
# under the sanitizer, exercising kill/shrink/restore/replay and the
# async drain thread outside the gtest harness.
"${BUILD}/tests/test_resilience" \
    --gtest_filter='ResilienceTest.CampaignSurvivesMultiFaultSchedule'
