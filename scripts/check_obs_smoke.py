#!/usr/bin/env python3
"""Check the observability outputs of one lf_run call.

Usage: check_obs_smoke.py DIR

DIR holds trace.json, metrics.json and counters.json written by
`lf_run --trials 6 --trace DIR/trace.json --metrics DIR/metrics.json
--counters DIR/counters.json`: the trace must be Chrome trace-event
JSON with trial spans, the metrics must carry the lf_run_metrics_v1
keys for all 6 trials, and the counters must have simulated work.
"""
import json
import sys

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
