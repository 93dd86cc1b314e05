#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload registry|fleet|fingerprint \
        --seed N --seconds S --trace 0|1

Builds the library with the repository's own CMake build (target `lf`)
and the perfbench binary in perfbench/ against it, both under
.bench_build/, then runs it. The binary's full report is printed as one
line starting with "report: "; the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics BENCHMARK.json lists,
with --trace 1 its per-layer metrics; a per-layer metric the workload
does not exercise reads 0.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD = ".bench_build"
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step; its output goes to stderr only on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log("build step failed:", " ".join(cmd))
        sys.exit(1)


def build():
    """Build liblf.a and the perfbench binary; return its path."""
    lib_dir = os.path.join(BUILD, "lib")
    bench_dir = os.path.join(BUILD, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ".", "-B", lib_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", lib_dir, "--target", "lf", "-j", jobs])
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", bench_dir,
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DLF_ROOT=" + os.path.abspath("."),
                   "-DLF_LIBRARY=" +
                   os.path.abspath(os.path.join(lib_dir, "liblf.a"))])
    run_quiet(["cmake", "--build", bench_dir, "-j", jobs])
    return os.path.join(bench_dir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, size="full"):
    """Run the perfbench binary; return its report (the last stdout line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench binary timed out after", RUN_TIMEOUT_S, "s")
        sys.exit(1)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench binary failed with exit code", proc.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["registry", "fleet", "fingerprint"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run from the root of a checkout holding the library sources"
            " (CMakeLists.txt and src/ are missing here)")
        sys.exit(2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    report = run_binary(build(), args.workload, args.seed, args.seconds,
                        args.trace)
    print("report: " + json.dumps(report, sort_keys=True), flush=True)

    measured = report["per_layer" if args.trace else "end_to_end"]
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in listed:
        name = metric["name"]
        if name not in measured and not args.trace:
            log("end-to-end metric", name, "was not measured")
            sys.exit(1)
        metrics[name] = {"value": measured.get(name, 0.0),
                         "unit": metric["unit"]}
    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
