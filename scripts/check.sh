#!/usr/bin/env bash
# Tier-1 verification: strict build + full test suite, the
# documentation checks, then an ASan + UBSan pass over the
# registry/runner/noise subsystem. Mirrors the CI workflow so the
# same gate runs locally.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== strict build (-Wall -Wextra -Werror) =="
cmake -B build-check -S . -DLF_WERROR=ON
cmake --build build-check -j "${JOBS}"

echo "== ctest =="
ctest --test-dir build-check --output-on-failure -j "${JOBS}"

echo "== a tripped run guard is an error row, not an abort =="
rc=0
./build-check/lf_run --channel slow-switch --cpu E-2174G \
    --set model.deadlock_kcycles=1 --trials 1 \
    --json build-check/stuck.json --quiet || rc=$?
test "${rc}" -eq 1
grep -q '"error":"runUntilRetired: thread 0 stuck' build-check/stuck.json

echo "== ASan/UBSan: registry + run-subsystem tests =="
cmake -B build-asan -S . -DLF_ASAN=ON
cmake --build build-asan -j "${JOBS}" \
    --target lf_core_test_channel_registry lf_run_test_runner \
             lf_run_test_streaming lf_run_test_hooks \
             lf_obs_test_obs lf_run_test_sweep lf_run_test_cli \
             lf_noise_test_environment lf_defense_test_defense \
             lf_campaign_test_campaign lf_campaign_test_campaign_files \
             lf_sim_test_snapshot lf_sim_test_period_skip \
             lf_sim_test_slot_graph lf_fingerprint_test_fingerprint \
             lf_sgx_test_sgx \
             lf_run lf_campaign lf_repro
./build-asan/lf_core_test_channel_registry
./build-asan/lf_run_test_runner
./build-asan/lf_run_test_streaming
./build-asan/lf_sim_test_snapshot
./build-asan/lf_sim_test_period_skip
./build-asan/lf_sim_test_slot_graph
./build-asan/lf_sgx_test_sgx
./build-asan/lf_fingerprint_test_fingerprint
./build-asan/lf_run_test_hooks
./build-asan/lf_obs_test_obs
./build-asan/lf_run_test_sweep
./build-asan/lf_run_test_cli
./build-asan/lf_noise_test_environment
./build-asan/lf_defense_test_defense
./build-asan/lf_campaign_test_campaign
./build-asan/lf_campaign_test_campaign_files

echo "== TSan: runner/streaming/campaign/fingerprint-study tests =="
# The streaming runner's workers and consumer share one reorder
# buffer under one mutex; ThreadSanitizer is the gate that every
# access to it stays under that lock.
cmake -B build-tsan -S . -DLF_TSAN=ON
cmake --build build-tsan -j "${JOBS}" \
    --target lf_run_test_runner lf_run_test_streaming \
             lf_run_test_hooks lf_sim_test_snapshot lf_sim_test_period_skip \
             lf_sim_test_slot_graph lf_campaign_test_campaign \
             lf_campaign_test_campaign_files \
             lf_fingerprint_test_fingerprint \
             lf_defense_test_defense_determinism lf_run
./build-tsan/lf_run_test_runner
./build-tsan/lf_run_test_streaming
# The warm-snapshot cache is process-wide mutable state shared by all
# runner workers; TSan gates its mutex + atomic-counter discipline.
./build-tsan/lf_sim_test_snapshot
./build-tsan/lf_sim_test_period_skip
# Each worker keeps its own cell's slot graph; the runner identity
# case runs it at 4 and 8 threads.
./build-tsan/lf_sim_test_slot_graph
./build-tsan/lf_run_test_hooks
./build-tsan/lf_campaign_test_campaign
./build-tsan/lf_campaign_test_campaign_files
# A fingerprint study records its traces on a pool of threads, each
# into its own slot; the study cases and the defended-study comparison
# run it under TSan.
./build-tsan/lf_fingerprint_test_fingerprint --gtest_filter='SideChannel.*Stud*'
./build-tsan/lf_defense_test_defense_determinism \
    --gtest_filter='DefenseDirection.PartitioningKillsMtButNotFingerprinting'
./build-tsan/lf_run --channel mt-eviction --cpu "Gold 6226" \
    --sweep d=4:6:1 --trials 2 --threads 4 \
    --json build-tsan/sweep-tsan.json --quiet

echo "== documentation checks =="
LF_RUN=build-check/lf_run LF_CAMPAIGN=build-check/lf_campaign \
    ./scripts/check_docs.sh

echo "== observability smoke (--trace / --metrics / --counters) =="
obs_dir="build-check/obs-smoke"
rm -rf "${obs_dir}" && mkdir -p "${obs_dir}"
./build-check/lf_run --channel nonmt-fast-eviction --cpu "Gold 6226" \
    --trials 6 --bits 4 --threads 4 --seed 13 \
    --trace "${obs_dir}/trace.json" --metrics "${obs_dir}/metrics.json" \
    --counters "${obs_dir}/counters.json" --quiet
python3 scripts/check_obs_smoke.py "${obs_dir}"

echo "== ASan/UBSan: sweep smoke test =="
./build-asan/lf_run --channel mt-eviction --cpu "Gold 6226" \
    --sweep d=4:6:1 --trials 2 --threads 4 \
    --json build-asan/sweep-smoke.json --quiet
./build-asan/lf_run --channel mt-eviction --cpu "Gold 6226" \
    --sweep d=4:6:1 --trials 2 --threads 1 \
    --json build-asan/sweep-smoke-t1.json --quiet
cmp build-asan/sweep-smoke.json build-asan/sweep-smoke-t1.json

echo "== ASan/UBSan: paper claims, every artifact (lf_repro) =="
(cd build-asan && ./lf_repro > /dev/null)

echo "== ASan/UBSan: campaign smoke (plan / kill / resume / merge) =="
./scripts/campaign_smoke.sh build-asan

echo "== ASan/UBSan: runner-throughput smoke test =="
# The target only exists when google-benchmark is installed (CMake
# skips it otherwise); probe the configured target list so a real
# compile error still fails the script. Capture the listing before
# grepping: `... | grep -q` exits at the first match, the generator
# dies on SIGPIPE, and under pipefail the probe was reporting "not
# installed" on hosts where the bench target exists.
asan_targets="$(cmake --build build-asan --target help 2>/dev/null \
    || true)"
if grep -q "microbench_simulator" <<< "${asan_targets}"; then
    cmake --build build-asan -j "${JOBS}" --target microbench_simulator
    (cd build-asan && ./microbench_simulator --smoke > /dev/null)
    python3 scripts/check_runner_throughput.py \
        build-asan/BENCH_runner_throughput.json
else
    echo "libbenchmark not found: skipping"
fi

echo "== all checks passed =="
