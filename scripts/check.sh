#!/usr/bin/env bash
# Tier-1 gate in one command: configure + build + ctest, with warnings
# in src/dist/ promoted to errors (PGTI_WERROR), plus a multi-process
# smoke stage proving the socket transport reproduces in-process
# losses byte for byte across forked rank processes, plus a build of
# the repository benchmark (perfbench/CMakeLists.txt, into
# <build-dir>-perfbench) so a library API change that breaks the
# benchmark fails the gate.
#
#   scripts/check.sh [build-dir]
#
# Environment:
#   JOBS           parallelism (default: nproc)
#   CTEST_ARGS     extra ctest arguments (default: -L tier1)
#   PGTI_SANITIZE  set to "thread" or "address" to ALSO build
#                  <build-dir>-tsan / <build-dir>-asan with
#                  -DPGTI_SANITIZE=<mode> and run the concurrency-heavy
#                  tier-1 suites under it — dist_test,
#                  dist_determinism_test, dist_prefetch_test (async
#                  staging pipeline + PrefetchLoader abort/restart
#                  stress), dist_transport_test (socket-vs-in-process
#                  bit identity, the TCP fault sweeps, and the SimClock
#                  concurrent-charge hammer), epoch_engine_test (the
#                  shared Trainer/DistTrainer pipeline at depth N),
#                  grad_overlap_test (per-rank comm threads firing
#                  ready-bucket all-reduces under backward, including
#                  the mid-backward fault-injection sweep), and
#                  kernel_fusion_test (the threaded blocked/fused
#                  kernels and their parallel_for partitioning), and
#                  arena_test (step-scoped pool recycling under the
#                  prefetch pipeline; under ASan the arena poisons
#                  recycled blocks between leases, so stale reads of
#                  pooled memory fault instead of silently reusing
#                  bits), serve_test (client threads submitting
#                  against the coalescing worker while a training
#                  thread publishes copy-on-publish snapshots), and
#                  extensions_test (PrefetchLoader sequence, multi-epoch
#                  and batch-content checks on the gated worker).
#                  Set to "undefined" to build <build-dir>-ubsan with
#                  UBSan (float-cast-overflow included, every finding
#                  fatal) and run every tier-1 suite under it.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
jobs="${JOBS:-$(nproc)}"

cmake -B "${build_dir}" -S "${repo_root}" -DPGTI_WERROR=ON
cmake --build "${build_dir}" -j "${jobs}"
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" ${CTEST_ARGS:--L tier1}

echo
echo "== multi-process smoke: socket transport (forked ranks, world=4) vs in-process =="
"${build_dir}/examples/socket_ddp" --smoke

echo
echo "== alloc-free steady state gate: train step heap allocs must be 0 =="
# Re-runs the arena suite's trainer-level assertions standalone so a
# regression that reintroduces per-step heap traffic (a kernel
# bypassing the workspace cache, a tensor allocated outside the step
# scope) fails the gate by name even if someone trims the ctest label.
"${build_dir}/arena_test" \
  --gtest_filter='ArenaTrainer.SteadyStateTrainStepIsAllocFree:WorkspaceCache.MatmulNtScratchOneAllocationAcross100BackwardSteps'

echo
echo "== serving gate: micro-batch bit-parity + snapshot isolation =="
# The two serving invariants everything else leans on, re-run by name:
# a coalesced micro-batch must be byte-identical to sequential
# single-request forwards, and a mid-flight publish from a concurrent
# training thread must never bleed into a captured snapshot.
"${build_dir}/serve_test" \
  --gtest_filter='ServeBitParity.CoalescedBatchMatchesSequentialForwards:ServeSnapshot.PublishFromTrainingThreadIsolatesVersions'

echo
echo "== benchmark build: perfbench against this tree's libpgti =="
# perfbench is a project of its own (it pulls the library in from the
# repository root), so the root build never compiles it; build it here
# so an API change the benchmark depends on breaks the gate, not the
# benchmark run.
cmake -S "${repo_root}/perfbench" -B "${build_dir}-perfbench" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}-perfbench" --target perfbench -j "${jobs}"

sanitize="${PGTI_SANITIZE:-}"
if [ -n "${sanitize}" ]; then
  concurrency_suites='^(dist_|epoch_engine|grad_overlap|kernel_fusion|arena|serve_|extensions)'
  case "${sanitize}" in
    thread)    san_dir="${build_dir}-tsan";  san_filter=(-R "${concurrency_suites}")
               san_what="dist_* + epoch_engine + grad_overlap + kernel_fusion + arena + serve + extensions suites" ;;
    address)   san_dir="${build_dir}-asan";  san_filter=(-R "${concurrency_suites}")
               san_what="dist_* + epoch_engine + grad_overlap + kernel_fusion + arena + serve + extensions suites" ;;
    undefined) san_dir="${build_dir}-ubsan"; san_filter=()
               san_what="every tier-1 suite" ;;
    *) echo "PGTI_SANITIZE must be 'thread', 'address' or 'undefined', got '${sanitize}'" >&2
       exit 1 ;;
  esac
  echo
  echo "== ${sanitize} sanitizer pass (${san_what}) in ${san_dir} =="
  cmake -B "${san_dir}" -S "${repo_root}" -DPGTI_SANITIZE="${sanitize}" -DPGTI_WERROR=ON
  cmake --build "${san_dir}" -j "${jobs}"
  ctest --test-dir "${san_dir}" --output-on-failure -j "${jobs}" -L tier1 "${san_filter[@]}"
fi
