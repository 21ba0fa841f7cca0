#!/usr/bin/env python3
"""Record a baseline: every workload end to end on ten seeds, plus one traced
run per workload, summarized into ``perfbench/baseline.json``.

    python3 perfbench/baseline.py            # about 20 minutes

Each end-to-end metric gets its median over the seeds and its spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median.  Runs go one at a time, so they never compete
for the processor.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def describe_host():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "date": datetime.date.today().isoformat()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"host": describe_host(), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        end_to_end = {m["name"]: summarize([r[m["name"]] for r in runs])
                      for m in spec["end_to_end"]}
        per_layer = bench(workload, 1, seconds, 1)
        out["workloads"][workload] = {"end_to_end": end_to_end,
                                      "per_layer_seed1": per_layer}
        print(workload, " ".join("%s=%.4g (spread %.3f)" % (n, s["median"], s["spread"])
                                 for n, s in end_to_end.items()), flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
