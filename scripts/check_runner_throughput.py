#!/usr/bin/env python3
"""Check the fields of a microbench_simulator BENCH_runner_throughput.json.

Usage: check_runner_throughput.py BENCH_runner_throughput.json

Even in --smoke mode the report must carry the counters on/off and
snapshot fields (timing gates only run un-smoked), the best-of-N raw
samples arrays, and t4_over_t1/t8_over_t1 slots that are a number or
an explicit null. A skipped t8 gate is reported loudly either way.
"""
import json
import sys

report = json.load(open(sys.argv[1]))
for key in ("counters_off_t1_trials_per_sec",
            "counters_on_t1_trials_per_sec",
            "snapshot_speedup_t1", "snapshot_restore_ns",
            "snapshot_replay_ns", "snapshot_preamble_bits",
            "hw_threads", "repeat"):
    assert key in report, key
assert "t4_over_t1" in report, "t4_over_t1 slot missing"
assert "t8_over_t1" in report, "t8_over_t1 slot missing"
samples = report["reused_t1_samples"]
assert isinstance(samples, list) and len(samples) == report["repeat"]
t8 = report["t8_over_t1"]
if t8 is None:
    print("t8_over_t1 gate: skipped (host too small: %d hardware"
          " threads < 8)" % report["hw_threads"])
else:
    print("t8_over_t1 measured: %.2f" % t8)
