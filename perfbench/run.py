#!/usr/bin/env python3
"""tinopt benchmark: one seeded workload, end to end or traced per layer.

    python3 perfbench/run.py --workload sum-corpus --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
client drives ``tinopt.cli.main(argv)`` in-process in a closed loop (the next
operation starts when the previous one returns), checks every output against
``reference``, and prints one JSON object as its last line.

``--trace 0`` reports end-to-end metrics.  Set-up (import plus a warm-up pass
of one operation per distinct subcommand and K) is timed in this process and
in four fresh child interpreters; ``setup_s`` is the median.  Then whole
passes run until at least ``--seconds`` of operation time and at least
``MIN_SAMPLES`` operations have been measured.  Every timing is scaled to
the reference host speed (see ``hostspeed``); the summary line before the
result also gives the raw wall-clock figures.

``--trace 1`` reports per-layer metrics.  It traces the warm-up, then runs
the first pass untraced, traced and untraced again, so every count is fixed
by the seed; spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import tracing
import workloads
from workloads import NET

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
MIN_SAMPLES = 110       # so that p90 has at least 10 samples beyond it


def import_tinopt():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tinopt" / "__init__.py").is_file():
        raise SystemExit("error: no tinopt sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import tinopt
    import tinopt.cli
    import tinopt.detmodel
    import tinopt.model
    if Path(tinopt.__file__).resolve().parent != SRC / "tinopt":
        raise SystemExit("error: imported tinopt from %s" % tinopt.__file__)
    return tinopt


class Runner:
    """Executes and checks operations, keeping latencies and failures."""

    def __init__(self, tinopt, workdir, tracer=None):
        self.tinopt = tinopt
        self.network = workdir / "network.json"
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def execute(self, op):
        """Run one operation; returns its latency in seconds, or None if it
        failed (exception, unexpected exit code or failed check)."""
        self.attempted += 1
        try:
            if op.argv is None:
                net = self.tinopt.model.parse_network(op.document())
                start = time.perf_counter()
                result = [self.tinopt.detmodel.best_tin_scheme(m) for m in net.matrices]
                elapsed = time.perf_counter() - start
                rc, out = 0, ""
            else:
                self.network.write_text(json.dumps(op.document()))
                argv = [str(self.network) if a == NET else a for a in op.argv]
                stdout, stderr = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.tinopt.cli.main(argv)
                elapsed = time.perf_counter() - start
                out, result = stdout.getvalue(), None
                if self.tracer is not None and self.tracer.op is not None:
                    self.tracer.counts["report.bytes"] += len(out)
            op.check(op, rc, out, result)
        except (Exception, SystemExit) as exc:
            self.failures.append("%s K=%d M=%d: %s: %s" % (
                op.subcommand, op.users, len(op.mats), type(exc).__name__, exc))
            return None
        return elapsed


def build_pass(workload, seed, index):
    make_pass, _ = workloads.WORKLOADS[workload]
    return make_pass(random.Random("%s/%d/%d" % (workload, seed, index)))


def warm_ops(workload, seed):
    """One easy operation per distinct (subcommand, K) of the workload."""
    _, warm = workloads.WORKLOADS[workload]
    keys = dict.fromkeys((op.subcommand, op.users) for op in build_pass(workload, seed, 0))
    return [warm(sub, k) for sub, k in keys]


def set_up(workload, seed, workdir, tracer=None):
    """Import the program and run the warm-up pass; returns the runner and
    the set-up time at the reference host speed."""
    ops = warm_ops(workload, seed)
    rate = hostspeed.sample()
    start = time.perf_counter()
    tinopt = import_tinopt()
    if tracer is not None:
        tracer.install()
    runner = Runner(tinopt, workdir, tracer)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = "warm-%d" % i
        runner.execute(op)
    if tracer is not None:
        tracer.uninstall()
        tracer.op = None
    elapsed = time.perf_counter() - start
    return runner, hostspeed.scale(elapsed, rate, hostspeed.sample())


def probe_setup(workload, seed):
    """Set-up time of a fresh child interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_end_to_end(args, workdir):
    runner, setup = set_up(args.workload, args.seed, workdir)
    clock = hostspeed.HostClock()
    wall = []
    passes = 0
    while sum(wall) < args.seconds or len(wall) < MIN_SAMPLES:
        done = 0
        for op in build_pass(args.workload, args.seed, passes):
            clock.tick()
            elapsed = runner.execute(op)
            if elapsed is not None:
                clock.record(elapsed)
                wall.append(elapsed)
                done += 1
        if not done:
            raise SystemExit("error: every operation of a pass failed:\n"
                             + "\n".join(runner.failures[-5:]))
        passes += 1
    latencies = clock.scaled()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup] + [probe_setup(args.workload, args.seed)
                        for _ in range(SETUP_RUNS - 1)]
    print("%s seed %d: %d latency samples in %d passes; wall clock %.2f s busy, "
          "%.2f ops/s, p50 %.2f ms, p90 %.2f ms; host speed %.2f of reference; "
          "set-up runs %s s" % (
              args.workload, args.seed, len(wall), passes, sum(wall),
              len(wall) / sum(wall), percentile(wall, 50) * 1e3,
              percentile(wall, 90) * 1e3,
              statistics.mean(clock.rates) / hostspeed.REFERENCE_RATE,
              " ".join("%.3f" % s for s in setups)))
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "success_ratio": ((runner.attempted - len(runner.failures)) / runner.attempted,
                          "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return runner, metrics


def run_traced(args, workdir):
    tracer = tracing.Tracer()
    runner, _ = set_up(args.workload, args.seed, workdir, tracer)
    ops = build_pass(args.workload, args.seed, 0)

    def timed_pass(traced):
        """The pass's operation time at the reference host speed."""
        clock = hostspeed.HostClock()
        if traced:
            tracer.install()
        for i, op in enumerate(ops):
            clock.tick()
            tracer.op = i if traced else None
            elapsed = runner.execute(op)
            if elapsed is not None:
                clock.record(elapsed)
        if traced:
            tracer.uninstall()
            tracer.op = None
        return sum(clock.scaled())

    before, traced, after = timed_pass(False), timed_pass(True), timed_pass(False)
    if not (before and traced and after):
        raise SystemExit("error: every operation of the pass failed:\n"
                         + "\n".join(runner.failures[-5:]))
    spans = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(spans)
    print("%s seed %d: %d spans in %s; pass %.3f s untraced, %.3f s traced, "
          "%.3f s untraced at the reference host speed"
          % (args.workload, args.seed, len(tracer.spans), spans.relative_to(ROOT),
             before, traced, after))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (2 * traced / (before + after), "ratio")
    return runner, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.setup_probe:
            _, setup = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup}))
            return 0
        run = run_traced if args.trace else run_end_to_end
        runner, metrics = run(args, workdir)
    for failure in runner.failures[:10]:
        print("FAILED %s" % failure, file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
