#!/usr/bin/env python3
"""Measure how steady the benchmark is on this host, and record it.

    python3 perfbench/steadiness.py [--seeds 10] [--sets 1] [--out FILE]

Runs perfbench/run.py once per seed (1, 2, ...) and workload of
BENCHMARK.json, for its run_seconds, from the root of a checkout,
alternating workloads so slow phases of a shared host spread across
all of them, and repeats that --sets times. For every end-to-end
metric and set it reports the median, the quartiles
(statistics.quantiles(values, n=4)) and the IQR as a share of the
median, beside the metric's bound, and how much worse the second set's
median is than the first's. It also totals the failed operations of
every run, and counts runs whose digest or exact counts differ from
the first run of the same workload and seed. Beside the rescaled
metrics it tracks the unscaled host wall time and the host probe time
of every run, and per workload how closely the two follow each other
(log-log slope and correlation over all runs).

With --out it writes the record as Markdown: host facts (nproc, CPU
model, compiler, build type, LTO, commit), the table, and every raw
value, so each bound in BENCHMARK.json traces back to a measurement.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("report: "):])
    return report, json.loads(lines[-1])


def host_facts(report):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    build = report["build"]
    return {"nproc": build["nproc"], "cpu_model": model,
            "compiler": build["compiler"],
            "build_type": build["build_type"], "lto": build["lto"],
            "commit": commit}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_shift(first, second, better):
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole set of runs this often")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # Unscaled host time and the probe behind the rescaling, recorded
    # beside the rescaled metrics.
    host = {"host wall_s": "wall_s", "host probe_s": "probe_s"}
    tracked = list(metrics) + list(host)

    values = [{w: {m: [] for m in tracked} for w in workloads}
              for _ in range(args.sets)]
    outputs = {}
    mismatches = []
    failed = 0
    facts = None
    start = time.time()
    for k in range(args.sets):
        for i in range(args.seeds):
            seed = 1 + i
            for w in workloads:
                report, result = run_once(w, seed, seconds)
                facts = facts or host_facts(report)
                failed += result["failed"]
                output = (report["digest"],
                          json.dumps(report["exact"], sort_keys=True))
                if outputs.setdefault((w, seed), output) != output:
                    mismatches.append((k, w, seed))
                for m in metrics:
                    values[k][w][m].append(result["metrics"][m]["value"])
                for name, key in host.items():
                    values[k][w][name].append(report["host_time"][key])
                print(f"set {k} seed {seed} {w}: digest "
                      f"{report['digest']} norm_wall_s "
                      f"{result['metrics']['norm_wall_s']['value']:.4f} "
                      f"host wall_s {report['host_time']['wall_s']:.4f} "
                      f"failed {result['failed']}", file=sys.stderr,
                      flush=True)

    table = ["| set | workload | metric | median | Q1 | Q3 | IQR/median "
             "| bound |", "|---|---|---|---|---|---|---|---|"]
    for k in range(args.sets):
        for w in workloads:
            for m in tracked:
                med, q1, q3, rel = spread(values[k][w][m])
                bound = metrics[m]["bound"] if m in metrics else "-"
                table.append(f"| {k + 1} | {w} | {m} | {med:.6g} | "
                             f"{q1:.6g} | {q3:.6g} | {rel:.4f} | {bound} |")
    shifts = []
    if args.sets > 1:
        shifts = ["| workload | metric | median set 1 | median set 2 | "
                  "worse by | bound |", "|---|---|---|---|---|---|"]
        for w in workloads:
            for m, metric in metrics.items():
                a = statistics.median(values[0][w][m])
                b = statistics.median(values[1][w][m])
                shifts.append(
                    f"| {w} | {m} | {a:.6g} | {b:.6g} | "
                    f"{worse_shift(a, b, metric['better']):+.4f} | "
                    f"{metric['bound']} |")
    tracking = ["| workload | runs | log-log slope | correlation |",
                "|---|---|---|---|"]
    for w in workloads:
        wall = [math.log(v) for k in range(args.sets)
                for v in values[k][w]["host wall_s"]]
        probe = [math.log(v) for k in range(args.sets)
                 for v in values[k][w]["host probe_s"]]
        slope, _ = statistics.linear_regression(probe, wall)
        tracking.append(f"| {w} | {len(wall)} | {slope:.3f} | "
                        f"{statistics.correlation(probe, wall):.3f} |")
    summary = (f"Failed operations over all runs: {failed}. Runs whose "
               f"digest or exact counts differ from the first run of "
               f"the same workload and seed: {len(mismatches)}.")
    print("\n".join(table + [""] + shifts + [""] + tracking))
    print(summary + f" Elapsed {time.time() - start:.0f} s.")

    if args.out:
        with open(args.out, "w") as f:
            f.write("# Steadiness record\n\n"
                    "Written by `python3 perfbench/steadiness.py "
                    f"--seeds {args.seeds} --sets {args.sets} --out "
                    f"{args.out}`: {args.sets} set(s) of one run of "
                    f"{seconds:g} s per seed and workload, seeds "
                    f"1..{args.seeds}, workloads alternating. "
                    "`host wall_s` is the unscaled median host time and "
                    "`host probe_s` the median host probe time of a "
                    "run, for comparison.\n\n## Host\n\n")
            for key, v in facts.items():
                f.write(f"- {key}: `{v}`\n")
            f.write("\n## Spread per set\n\n" + "\n".join(table) + "\n")
            if shifts:
                f.write("\n## Second set against the first\n\n" +
                        "\n".join(shifts) + "\n")
            f.write("\n## Host probe against host time\n\n"
                    "Per run, the median host probe time against the "
                    "median unscaled host wall time, over all sets. A "
                    "slope near 1 means rescaling by the probe divides "
                    "the host's speed out one for one.\n\n" +
                    "\n".join(tracking) + "\n")
            f.write(f"\n{summary}\n\n## Raw values, in seed order\n\n")
            for k in range(args.sets):
                for w in workloads:
                    for m in tracked:
                        vals = ", ".join(f"{v:.6g}"
                                         for v in values[k][w][m])
                        f.write(f"- set {k + 1} {w} {m}: {vals}\n")


if __name__ == "__main__":
    main()
