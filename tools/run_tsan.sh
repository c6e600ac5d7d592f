#!/usr/bin/env sh
# Build the concurrency-sensitive tests under ThreadSanitizer and run
# them. Any reported data race fails the script (TSan exits non-zero).
#
# Covers:
#  - the parallel sweep machinery: the SweepExecutor pool itself and the
#    jobs=N vs jobs=1 grid determinism (concurrent Cluster/Engine runs);
#  - the fabric and routing-algebra tests (static next-hop cache) and the
#    NIC admission/drain path;
#  - the express-exactness tests, whose mini-grid runs express and
#    hop-by-hop fabrics concurrently across worker threads (the pooled
#    non-atomic message refcount must stay engine-local);
#  - the observability tests (registry, sampler, metrics documents);
#  - the scenario-layer tests: registry materialization, sharded runs at
#    K in {2,4} of every transport against their serial result, and the
#    rvma_run grid replay, which fans cells out over the executor;
#  - the PDES and lookahead-matrix tests: the ShardedEngine's window
#    barriers, cross-shard SPSC channels, per-destination windows and
#    windowed-vs-serial identity under static and adaptive routing
#    (adaptive routers read port backlogs from shard threads), the full
#    multi-threaded shard path;
#  - the flight-recorder tests: per-shard rings attached to windowed
#    engines, and serial-vs-sharded span equality;
#  - the rvma.h API tests: API-motif contexts driven from shard threads
#    (per-rank endpoint state, cross-shard puts/gets, and serial-vs-
#    sharded identity for remote_paging / kv_store / alltoall).
#
# Usage: tools/run_tsan.sh [build-dir]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRVMA_SANITIZE=thread
cmake --build "$build_dir" --target \
  test_sweep_executor test_sweep_determinism test_fabric_features \
  test_routing_algebra test_express_exactness test_nic test_obs \
  test_scenario test_pdes test_pdes_matrix test_flight_recorder \
  test_api -j "$(nproc)"

for test in test_sweep_executor test_sweep_determinism test_fabric_features \
  test_routing_algebra test_express_exactness test_nic test_obs \
  test_scenario test_pdes test_pdes_matrix test_flight_recorder test_api
do
  echo "== tsan: $test =="
  "$build_dir/tests/$test"
done
echo "tsan: all clean"
