"""Smoke check for the benchmark: every workload runs one pass and emits every
metric that BENCHMARK.json names, traced counts repeat exactly, and the
benchmark refuses to report without the program's sources.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import reference  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0, proc.stderr
    return out


def check_names(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    check_names(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result(workload, 1)["metrics"], result(workload, 1)["metrics"]
    check_names(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    lp_calls = first["optimize.solve_lp.calls"]["value"]
    if workload in ("det-ties", "region-render"):
        assert lp_calls == 0
    else:
        assert lp_calls > 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def permutation_scan(m):
    """(max weight, number of maximizing permutations) by a literal K! scan."""
    k = len(m)
    best, ties = None, 0
    for perm in itertools.permutations(range(k)):
        w = sum(m[perm[c]][c] for c in range(k) if perm[c] != c)
        if best is None or w > best:
            best, ties = w, 1
        elif w == best:
            ties += 1
    return best, ties


def test_permutation_dp_matches_scan():
    rng = random.Random(0)
    for k in range(1, 7):
        for _ in range(20):
            m = [[rng.randint(0, 2) for _ in range(k)] for _ in range(k)]
            assert reference.best_permutations(m) == permutation_scan(m)
