#!/usr/bin/env python3
"""Builds the borgbench benchmark from this checkout and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <insert-fivm|mixed-serve>
                             --seed <n> --seconds <s> --trace <0|1>

The library (src/) and perfbench/borgbench.cc are built with CMake in
Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset,
below the repository root; later runs rebuild incrementally. Build logs go
to stderr. Chrome traces and result copies land in <build dir>/out/.

An untraced run (--trace 0) is split into PROCESSES borgbench processes,
run one after another on the same seed, each measuring seconds/PROCESSES.
Every end-to-end metric is the median of the processes' values, attempted
and failed are their sums. On a shared virtual machine one process's
throughput stays within a few percent over its lifetime but differs by up
to 1.5x from a process started seconds later (which physical memory it is
given sets its memory-access cost), so a median over several processes is
what makes two runs of the same code agree. A traced run (--trace 1) is one
process: it measures the per-layer breakdown, with nothing to compare.

The last stdout line is the JSON result. Exits non-zero when the build or
any process fails; a failing process's own output, result line last, is
relayed as it is.
"""
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 5


def build(build_dir):
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "borgbench"],
                   stdout=sys.stderr, check=True)


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def combine(results):
    """One result from the processes' results: medians, summed counts."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        if len(values) < len(results):
            print(f"run.py: {name} withheld (missing in "
                  f"{len(results) - len(values)} processes)", file=sys.stderr)
            continue
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    # A terminated run.py must not leave borgbench running: SystemExit
    # unwinds subprocess.run, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build_dir, "borgbench")
    argv = sys.argv[1:]
    processes = 1 if arg_value(argv, "--trace") == "1" else PROCESSES
    seconds = arg_value(argv, "--seconds")
    try:
        share = float(seconds) / processes
    except (TypeError, ValueError):
        share = None  # borgbench rejects the arguments itself
    results = []
    for _ in range(processes):
        child = list(argv)
        if share is not None:
            child[child.index("--seconds") + 1] = repr(share)
        proc = subprocess.run([binary, *child, "--out", out_dir], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line)
        results.append(json.loads(lines[-1]))
    print(json.dumps(results[0] if processes == 1 else combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
