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
             lf_run lf_campaign table_defenses campaign_overhead
./build-asan/lf_core_test_channel_registry
./build-asan/lf_run_test_runner
./build-asan/lf_run_test_streaming
./build-asan/lf_sim_test_snapshot
./build-asan/lf_sim_test_period_skip
./build-asan/lf_run_test_hooks
./build-asan/lf_obs_test_obs
./build-asan/lf_run_test_sweep
./build-asan/lf_run_test_cli
./build-asan/lf_noise_test_environment
./build-asan/lf_defense_test_defense
./build-asan/lf_campaign_test_campaign
./build-asan/lf_campaign_test_campaign_files

echo "== TSan: runner/streaming/campaign tests =="
# The streaming runner is lock-free on its hot path (per-slot seq
# atomics + Dekker-style park flags); ThreadSanitizer is the gate
# that the protocol stays data-race-free.
cmake -B build-tsan -S . -DLF_TSAN=ON
cmake --build build-tsan -j "${JOBS}" \
    --target lf_run_test_runner lf_run_test_streaming \
             lf_run_test_hooks lf_sim_test_snapshot lf_sim_test_period_skip \
             lf_campaign_test_campaign lf_campaign_test_campaign_files \
             lf_run
./build-tsan/lf_run_test_runner
./build-tsan/lf_run_test_streaming
# The warm-snapshot cache is process-wide mutable state shared by all
# runner workers; TSan gates its mutex + atomic-counter discipline.
./build-tsan/lf_sim_test_snapshot
./build-tsan/lf_sim_test_period_skip
./build-tsan/lf_run_test_hooks
./build-tsan/lf_campaign_test_campaign
./build-tsan/lf_campaign_test_campaign_files
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
python3 - "${obs_dir}" <<'EOF'
import json, sys
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"]
assert events and trace["displayTimeUnit"] == "ms"
assert all({"name", "ph", "ts", "pid", "tid"} <= e.keys() for e in events)
assert "trial" in {e["name"] for e in events}
metrics = json.load(open(f"{d}/metrics.json"))
assert metrics["schema"] == "lf_run_metrics_v1"
for key in ("trials", "ok_trials", "workers", "seconds",
            "trials_per_sec", "worker_parks",
            "prepared_cache_hit_rate", "reorder_window",
            "window_occupancy_histogram"):
    assert key in metrics, key
assert metrics["trials"] == 6
assert sum(metrics["window_occupancy_histogram"]) == 6
counters = json.load(open(f"{d}/counters.json"))
assert counters["cycles"] > 0 and counters["uops_mite"] > 0
print("observability smoke ok: %d trace events, %d counters"
      % (len(events), len(counters)))
EOF

echo "== ASan/UBSan: sweep smoke test =="
./build-asan/lf_run --channel mt-eviction --cpu "Gold 6226" \
    --sweep d=4:6:1 --trials 2 --threads 4 \
    --json build-asan/sweep-smoke.json --quiet
./build-asan/lf_run --channel mt-eviction --cpu "Gold 6226" \
    --sweep d=4:6:1 --trials 2 --threads 1 \
    --json build-asan/sweep-smoke-t1.json --quiet
cmp build-asan/sweep-smoke.json build-asan/sweep-smoke-t1.json

echo "== ASan/UBSan: defense-grid smoke test =="
(cd build-asan && ./table_defenses --smoke > /dev/null)

echo "== ASan/UBSan: campaign smoke (plan / kill / resume / merge) =="
# A 4-shard campaign over a small grid: shard 0 is killed after one
# row (--max-new 1), every shard is then run to completion (shard 0
# resumes), and the merged summary must be byte-identical to the
# unsharded lf_run --summary of the same grid.
camp_dir="build-asan/campaign-smoke"
rm -rf "${camp_dir}"
./build-asan/lf_run --channel nonmt-fast-eviction --channel slow-switch \
    --cpu "Gold 6226" --sweep rounds=5:10:5 --trials 2 --bits 12 \
    --seed 11 --summary "${camp_dir}.golden" --quiet
./build-asan/lf_campaign plan --dir "${camp_dir}" --shards 4 \
    --channel nonmt-fast-eviction --channel slow-switch \
    --cpu "Gold 6226" --sweep rounds=5:10:5 --trials 2 --bits 12 \
    --seed 11 --quiet
./build-asan/lf_campaign run-shard --dir "${camp_dir}" --shard 0 \
    --max-new 1 --quiet
for shard in 0 1 2 3; do
    ./build-asan/lf_campaign run-shard --dir "${camp_dir}" \
        --shard "${shard}" --cache "${camp_dir}-cache" --quiet
done
./build-asan/lf_campaign status --dir "${camp_dir}"
./build-asan/lf_campaign merge --dir "${camp_dir}" --quiet
cmp "${camp_dir}.golden" "${camp_dir}/merged_summary.txt"

echo "== ASan/UBSan: campaign-overhead smoke test =="
(cd build-asan && ./campaign_overhead --smoke > /dev/null)

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
    # Even in smoke mode the report must carry the counters-overhead
    # and snapshot gate fields (timing gates only run un-smoked), the
    # best-of-N raw samples arrays, and a t8_over_t1 slot that is a
    # number or an explicit null — report the skip loudly either way.
    python3 - build-asan/BENCH_runner_throughput.json <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
for key in ("counters_off_t1_trials_per_sec",
            "counters_on_t1_trials_per_sec",
            "pr7_gate_trials_per_sec", "counters_off_overhead_gate",
            "snapshot_speedup_t1", "snapshot_restore_ns",
            "snapshot_replay_ns", "snapshot_preamble_bits",
            "hw_threads", "repeat"):
    assert key in report, key
assert "t8_over_t1" in report, "t8_over_t1 slot missing"
samples = report["reused_t1_samples"]
assert isinstance(samples, list) and len(samples) == report["repeat"]
t8 = report["t8_over_t1"]
if t8 is None:
    print("t8_over_t1 gate: skipped (host too small: %d hardware"
          " threads < 8)" % report["hw_threads"])
else:
    print("t8_over_t1 measured: %.2f" % t8)
EOF
    # perf_report.py smoke: a report diffed against itself must print
    # zero deltas and exit 0 (gate failures are ignored on smoke runs).
    python3 scripts/perf_report.py \
        build-asan/BENCH_runner_throughput.json \
        build-asan/BENCH_runner_throughput.json --strict
else
    echo "libbenchmark not found: skipping"
fi

echo "== all checks passed =="
