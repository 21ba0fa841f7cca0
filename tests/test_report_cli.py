"""JSON reports and the command-line front end (exit codes, round trips)."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import tinopt
from oracles import cycle_bound_rhs, random_gdof_matrix
from tinopt import report
from tinopt.cli import main
from tinopt.cycles import CyclicPartition, enumerate_cycles
from tinopt.fixtures import builtin_networks, gap_network
from tinopt.model import (
    CrossCheckError,
    StrengthMatrix,
    load_network,
    network_to_dict,
    parse_network,
)
from tinopt.region import RegionConstraint, _cycle_table, tin_region
from tinopt.report import (
    dumps_canonical,
    frac,
    partition_repr,
    point_repr,
    render_text,
)

# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def test_frac_and_point_repr_never_emit_floats():
    assert frac(Fraction(5, 2)) == "5/2"
    assert frac(4) == 4
    assert frac(0.5) == "1/2"
    assert point_repr((Fraction(1, 3), 2)) == ["1/3", 2]


def test_partition_repr_uses_zero_sentinel():
    part = CyclicPartition((3, 0, 1))         # the cycles (1,3) and (2)
    rep = partition_repr(part)
    assert rep == {"cycles": [[1, 3], [2]], "predecessors": [3, 0, 1]}


def test_dumps_canonical_is_a_fixed_point():
    doc = {"a": [1, "5/2", {"b": True}], "c": None}
    text = dumps_canonical(doc)
    assert text.endswith("\n")
    assert dumps_canonical(json.loads(text)) == text


def test_dumps_canonical_equals_json_dumps_on_every_golden_payload():
    golden = sorted((Path(__file__).parent / "golden").glob("*.json"))
    assert len(golden) > 30
    for path in golden:
        obj = json.loads(path.read_text())
        assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n", path


def test_dumps_canonical_peak_memory_is_bounded(tmp_path, capsys):
    # a K = 6, M = 2 region report (about 180 KB); one join of every piece
    # the encoder makes would peak near 7x its size, so the writer joins its
    # buffer every _FLUSH pieces
    rng = random.Random(5)
    path = tmp_path / "region6.json"
    path.write_text(json.dumps({
        "mode": "deterministic", "users": 6, "subchannels": 2,
        "matrices": [[[rng.randint(6, 9) if r == c else rng.randint(0, 2)
                       for c in range(6)] for r in range(6)]
                     for _ in range(2)],
    }))
    code, out, _ = run_cli(capsys, "region", "--json", str(path))
    assert code == 0 and len(out) > 100_000
    obj = json.loads(out)
    tracemalloc.start()
    try:
        text = dumps_canonical(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == out
    assert peak <= 3 * len(text)


def _region_reference(net) -> tuple:
    """(--json, text) of ``region`` built from enumerate_cycles,
    cycle_bound_rhs and json.dumps alone."""
    def rational(x):
        return x.numerator if x.denominator == 1 else "%d/%d" % (
            x.numerator, x.denominator)

    subchannels = [
        [{"users": sorted(cyc), "rhs": rational(cycle_bound_rhs(cyc, mat)),
          "cycle": list(cyc)} for cyc in enumerate_cycles(net.users)]
        for mat in net.matrices
    ]
    doc = {"command": "region", "mode": net.mode, "subchannels": subchannels}
    lines = []
    for m, cons in enumerate(subchannels, start=1):
        lines.append(("== sub-channel %d cycle bounds (%d constraints) "
                      % (m, len(cons))).ljust(66, "="))
        lines += ["  %s <= %s    [cycle (%s)]"
                  % (" + ".join("d%d" % u for u in c["users"]), c["rhs"],
                     ",".join("%d" % u for u in c["cycle"])) for c in cons]
    return json.dumps(doc, indent=2) + "\n", "".join(x + "\n" for x in lines)


@pytest.mark.parametrize("mode", ("gdof", "deterministic"))
@pytest.mark.parametrize("k", range(1, 9))
def test_region_report_equals_cycle_by_cycle_reference(tmp_path, capsys, mode, k):
    # K = 8, where the most cycles share a bound and a user set, is the
    # largest shape the benchmark renders; one matrix keeps it quick
    rng = random.Random("%s/%d" % (mode, k))
    entry = ((lambda: Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 7))))
             if mode == "gdof" else (lambda: rng.randint(0, 9)))
    m = 1 if k == 8 else 2
    doc = {"mode": mode, "users": k, "subchannels": m,
           "matrices": [[[str(entry()) for _ in range(k)] for _ in range(k)]
                        for _ in range(m)]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    want_json, want_text = _region_reference(parse_network(doc))
    assert run_cli(capsys, "region", "--json", str(path)) == (0, want_json, "")
    assert run_cli(capsys, "region", str(path)) == (0, want_text, "")


def test_region_repr_renders_each_distinct_bound_once(monkeypatch):
    # K = 8: 16,072 rows over a few hundred distinct bound objects
    rng = random.Random("region_repr")
    mats = [random_gdof_matrix(rng, 8) for _ in range(2)]
    want = [[{"users": c.users, "rhs": frac(c.rhs), "cycle": c.cycle}
             for c in tin_region(mat)] for mat in mats]
    calls = []

    def counted(x):
        calls.append(x)
        return frac(x)

    monkeypatch.setattr(report, "frac", counted)
    for mat, rows in zip(mats, want):
        cons = tin_region(mat)
        calls.clear()
        assert report.region_repr(cons) == rows
        assert len(calls) == len({id(c.rhs) for c in cons}) < len(cons) // 10
    # fresh rhs objects that die with their row (and with no list of calls
    # to hold them): a memo keyed on identity must keep each object it keys
    # alive, or a later row reuses its id
    monkeypatch.undo()
    cons = tin_region(mats[0])
    fresh = (RegionConstraint(c.users, Fraction(c.rhs.numerator, c.rhs.denominator),
                              c.cycle) for c in cons)
    assert report.region_repr(fresh) == want[0]
    loose = [RegionConstraint((1, 2), Fraction(1, 2)), RegionConstraint((1,), Fraction(3))]
    assert report.region_repr(loose) == [{"users": (1, 2), "rhs": "1/2"},
                                         {"users": (1,), "rhs": 3}]


def test_region_guard_exits_3_before_any_cycle_table(nets, capsys):
    tables, cycles = _cycle_table.cache_info(), enumerate_cycles.cache_info()
    for argv in (["region"], ["region", "--json"]):
        code, out, err = run_cli(capsys, *argv, nets["huge"])
        assert code == 3 and out == ""
        assert "exhaustive enumeration limit exceeded" in err
    assert _cycle_table.cache_info().misses == tables.misses
    assert enumerate_cycles.cache_info().currsize == cycles.currsize


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


BUNDLED = ("example1", "example2", "gap_eps_1_10", "acyclic4", "cyclic_dominant4")


@pytest.fixture()
def nets(tmp_path):
    """Bundled fixtures materialized as files, plus two hand-rolled ones."""
    paths = {}
    for name in BUNDLED:
        p = tmp_path / (name + ".json")
        p.write_text(dumps_canonical(network_to_dict(builtin_networks()[name]())))
        paths[name] = str(p)

    sym = {
        "mode": "deterministic", "users": 3, "subchannels": 1,
        "matrices": [[[3, 1, 1], [1, 3, 1], [1, 1, 3]]],
    }
    p = tmp_path / "symmetric3.json"
    p.write_text(json.dumps(sym))
    paths["symmetric3"] = str(p)

    huge = {
        "mode": "deterministic", "users": 10, "subchannels": 1,
        "matrices": [[[0] * 10 for _ in range(10)]],
    }
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(huge))
    paths["huge"] = str(p)

    non_tin = {
        "mode": "deterministic", "users": 2, "subchannels": 1,
        "matrices": [[[1, 5], [5, 1]]],
    }
    p = tmp_path / "non_tin.json"
    p.write_text(json.dumps(non_tin))
    paths["non_tin"] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_canonical(out):
    assert out == dumps_canonical(json.loads(out))
    return json.loads(out)


# ---------------------------------------------------------------------------
# verdict-driven exit codes
# ---------------------------------------------------------------------------


def test_check_tin_exit_codes_and_text(nets, capsys):
    code, out, _ = run_cli(capsys, "check-tin", nets["example1"])
    assert code == 0
    assert "overall: TIN optimal" in out

    code, out, _ = run_cli(capsys, "check-tin", nets["non_tin"])
    assert code == 1
    assert "NOT TIN optimal" in out and "desired 1 < max incoming 5" in out


def test_check_tin_json_roundtrip(nets, capsys):
    code, out, _ = run_cli(capsys, "check-tin", "--json", nets["example1"])
    assert code == 0
    doc = assert_canonical(out)
    assert doc["command"] == "check-tin" and doc["all_satisfied"] is True
    assert len(doc["subchannels"]) == 3


def test_sum_reports_three_methods(nets, capsys):
    code, out, _ = run_cli(capsys, "sum", nets["example1"])
    assert code == 0
    assert "total over 3 sub-channel(s): 18  [exact]" in out
    assert out.count("lp_cycle_bounds=6  assignment=6  brute_force=6") == 3

    code, out, _ = run_cli(capsys, "sum", "--json", nets["example1"])
    doc = assert_canonical(out)
    assert doc["quantity"] == "sum-capacity"
    assert doc["total"] == 18
    assert [c["value"] for c in doc["per_subchannel"]] == [6, 6, 6]


def test_sum_labels_non_tin_as_bound_only(nets, capsys):
    code, out, _ = run_cli(capsys, "sum", nets["non_tin"])
    assert code == 0  # sum always reports; the label carries the caveat
    assert "bound-only: TIN condition fails" in out


def test_region_lists_all_cycle_bounds(nets, capsys):
    code, out, _ = run_cli(capsys, "region", "--json", nets["symmetric3"])
    assert code == 0
    doc = assert_canonical(out)
    assert len(doc["subchannels"][0]) == 8

    code, out, _ = run_cli(capsys, "region", nets["example1"])
    assert code == 0
    assert "\n  d1 + d2 <= 5    [cycle (1,2)]\n" in out


def test_member_exit_codes(nets, capsys):
    code, out, _ = run_cli(capsys, "member", nets["gap_eps_1_10"],
                           "--point", "2,1/2,1/2")
    assert code == 0 and "inside the combined-bound region" in out

    code, out, _ = run_cli(capsys, "member", nets["gap_eps_1_10"],
                           "--point", "3,3,3")
    assert code == 1 and "OUTSIDE" in out

    for point in (["--point=-1,0,0"], ["--point", "-1,0,0"]):
        code, out, _ = run_cli(capsys, "member", "--json",
                               nets["gap_eps_1_10"], *point)
        assert code == 1
        doc = assert_canonical(out)
        assert doc["membership"]["negative_users"] == [1]


def test_combined_bounds_output(nets, capsys):
    code, out, _ = run_cli(capsys, "combined-bounds", nets["gap_eps_1_10"])
    assert code == 0
    assert out.startswith("== combined sum bounds ====")
    assert "d1 <= 2" in out and "d1 + d2 <= 13/5" in out
    assert "d1 + d2 + d3 <= 3" in out

    code, out, _ = run_cli(capsys, "combined-bounds", "--json",
                           nets["example1"])
    doc = assert_canonical(out)
    rhs = {tuple(b["users"]): b["rhs"] for b in doc["bounds"]}
    assert rhs[(1, 2, 3)] == 18 and rhs[(1, 3)] == 14


def test_decompose_exit_codes(nets, capsys):
    code, out, _ = run_cli(capsys, "decompose", nets["gap_eps_1_10"],
                           "--point", "2,1/2,1/2")
    assert code == 1
    assert "NOT decomposable" in out and "user 2 cannot exceed 1/5" in out

    code, out, _ = run_cli(capsys, "decompose", "--json",
                           nets["gap_eps_1_10"], "--point", "1,1,1")
    assert code == 0
    doc = assert_canonical(out)
    assert doc["decomposition"]["feasible"] is True
    assert len(doc["decomposition"]["allocation"]) == 2

    # a negative rate is invalid input, not a solver disagreement
    for point in (["--point=-1,1,1"], ["--point", "-1,1,1"]):
        code, out, err = run_cli(capsys, "decompose", nets["gap_eps_1_10"],
                                 *point)
        assert code == 2 and out == ""
        assert "nonnegative" in err and err.count("\n") == 1


@pytest.mark.parametrize("mats, point", [
    # each user reaches at most 3 + 3 = 6 < 10 on its own
    ([[[3, 1], [1, 3]], [[3, 1], [1, 3]]], "10,10"),
    # the second sub-channel's region is empty: d1 + d2 <= 2 - 10
    ([[[3, 1], [1, 3]], [[1, 5], [5, 1]]], "0,0"),
], ids=["targets-too-high", "empty-region"])
def test_decompose_without_caps_says_why(tmp_path, capsys, mats, point):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"mode": "deterministic", "users": 2,
                                "subchannels": 2, "matrices": mats}))
    code, out, _ = run_cli(capsys, "decompose", "--json", str(path),
                           "--point", point)
    assert code == 1
    doc = assert_canonical(out)["decomposition"]
    assert doc["feasible"] is False and doc["caps"] == []
    code, out, _ = run_cli(capsys, "decompose", str(path), "--point", point)
    assert code == 1
    assert out.endswith("NOT decomposable into per-sub-channel points\n"
                        "  no per-user cap: fixing any K-1 users at their "
                        "targets is already infeasible\n")


def test_invertibility_deterministic(nets, capsys):
    code, out, _ = run_cli(capsys, "invertibility", nets["example1"])
    assert code == 0 and out.count("invertible") >= 3

    code, out, _ = run_cli(capsys, "invertibility", "--json",
                           nets["example2"])
    assert code == 1
    doc = assert_canonical(out)
    assert doc["invertible"] is False
    assert doc["subchannels"][2]["invertible"] is False
    kernels = [c.get("kernel") for c in doc["subchannels"][2]["certificates"]]
    assert all(kernels)


def test_invertibility_partition_probe(nets, capsys):
    code, out, _ = run_cli(capsys, "invertibility", nets["symmetric3"],
                           "--partition", "1:3,2:1,3:2")
    assert code == 1 and "kernel witness" in out

    code, out, _ = run_cli(capsys, "invertibility", nets["symmetric3"],
                           "--partition", "1:0,2:0,3:0")
    assert code == 0  # no participating bits at all


def test_invertibility_gdof_paths(nets, capsys):
    code, out, _ = run_cli(capsys, "invertibility", nets["gap_eps_1_10"])
    assert code == 0 and "sufficient-condition" in out

    code, out, _ = run_cli(capsys, "invertibility", "--json",
                           nets["gap_eps_1_10"], "--logP", "20")
    assert code == 0
    doc = assert_canonical(out)
    assert doc["quantized"]["log2P"] == 20
    assert doc["quantized"]["invertible"] is True

    # the quantized section shows the canonical log2(P) and the top-level
    # verdict format
    code, out, _ = run_cli(capsys, "invertibility", nets["gap_eps_1_10"],
                           "--logP", "40/2")
    assert code == 0 and "== quantized at log2(P) = 20 ==" in out
    assert "sub-channel 1: invertible (exact-gf2; 1 optimal partition(s) checked)" in out


def test_invertibility_flag_misuse_is_an_input_error(nets, capsys):
    code, _, err = run_cli(capsys, "invertibility", nets["example1"],
                           "--logP", "20")
    assert code == 2 and "gdof" in err

    code, _, err = run_cli(capsys, "invertibility", nets["gap_eps_1_10"],
                           "--partition", "1:0,2:0,3:0")
    assert code == 2 and "--logP" in err


def test_separability_exit_codes(nets, capsys):
    code, out, _ = run_cli(capsys, "separability", nets["example1"])
    assert code == 0 and "separable (certified)" in out

    code, out, _ = run_cli(capsys, "separability", nets["example2"])
    assert code == 1 and "not certified" in out

    code, out, _ = run_cli(capsys, "separability", "--json",
                           nets["gap_eps_1_10"], "--logP", "20")
    assert code == 0
    doc = assert_canonical(out)
    assert doc["certified"] is True and doc["total"] == 3
    assert doc["quantized"]["certified"] is True


def test_gap_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gap", "--epsilon", "1/8")
    assert code == 0
    doc = assert_canonical(out)
    assert doc["matrices"][1][0] == [1, "1/2", "3/8"]

    target = tmp_path / "gap.json"
    code, out, _ = run_cli(capsys, "gap", "--out", str(target))
    assert code == 0 and "wrote gap network" in out
    net = load_network(target)
    assert net.subchannels == 2

    code, _, err = run_cli(capsys, "gap", "--epsilon", "1/3")
    assert code == 2 and "epsilon" in err

    # an unwritable --out is bad input (exit 2), not a negative verdict
    code, out, err = run_cli(capsys, "gap", "--out",
                             str(tmp_path / "missing" / "gap.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("epsilon, sha256", (
    (None, "c7f1dd0a7329aa97dcc0d88722187bc53c8de00f9f68becfe2bb145658bcdc9c"),
    ("1/8", "940d5f6cfef5549c1bd95e0a72a0da763282d12098caca4a1dc2ed09ad37f127"),
))
def test_gap_out_file_is_unchanged(tmp_path, capsys, epsilon, sha256):
    # saved networks stay the bytes of json.dumps(..., indent=2), which
    # the digests pin independently of the json module
    target = tmp_path / "gap.json"
    argv = ["gap", "--out", str(target)]
    argv += ["--epsilon", epsilon] if epsilon else []
    assert run_cli(capsys, *argv)[0] == 0
    text = target.read_text()
    net = gap_network(Fraction(epsilon or "1/10"))
    assert text == json.dumps(network_to_dict(net), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_demo_runs_and_asserts(capsys):
    code, out, _ = run_cli(capsys, "demo")
    assert code == 0
    assert "demo 4" in out and "25 at (-5, 15, 15)" in out
    # demo 4 names the cautionary sub-channel, its failed TIN condition and
    # the 2-cycle bounds cmd_demo checks; it solves a cycle LP, not a general LP
    demo4 = out[out.index("demo 4"):]
    assert "caution_lp() breaks the TIN condition" in demo4
    assert "d1 + d2 <= 10, d1 + d3 <= 10, d2 + d3 <= 30" in demo4
    assert "cycle LP with d >= 0 : 20 at (0, 10, 10)" in demo4
    assert "general LP" not in demo4 and "R1" not in demo4

    code, out, _ = run_cli(capsys, "demo", "--json")
    assert code == 0
    results = assert_canonical(out)["results"]
    ex1 = results["example1"]
    assert ex1["total"] == 18 and ex1["certified"] is True
    assert [res["value"] for res in ex1["per_subchannel"]] == [6, 6, 6]
    assert all(leg["status"] == "invertible" for leg in ex1["invertibility"])
    ex2 = results["example2"]
    assert ex2["certified"] is False
    assert ex2["statuses"] == ["invertible", "invertible", "non-invertible"]
    assert all(cert["kernel"] for cert
               in ex2["invertibility"][2]["detail"]["certificates"])
    gap = results["gap"]
    assert gap["epsilon"] == "1/10"
    assert gap["inside"] is True and gap["decomposable"] is False
    assert {b["rhs"] for b in gap["bounds"]} == {2, "13/5", 3}
    assert gap["membership"]["inside"] and not gap["split"]["feasible"]
    assert [cap["user"] for cap in gap["split"]["caps"]] == [1, 2, 3]
    assert gap["ones"]["feasible"] and gap["ones"]["target"] == [1, 1, 1]
    assert results["caution_lp"] == {"nonneg": 20, "nonneg_point": [0, 10, 10],
                                     "free": 25, "free_point": [-5, 15, 15]}

    # a bad epsilon stops the demo before any analysis runs
    for eps in ("0", "1/4"):
        code, out, err = run_cli(capsys, "demo", "--epsilon", eps)
        assert code == 2 and out == ""
        assert "epsilon" in err and err.count("\n") == 1


def test_failed_demo_expectation_exits_4_before_any_output(capsys, monkeypatch):
    real = tinopt.cli.separability_verdict

    def certify_everything(network):
        return dataclasses.replace(real(network), certified=True)

    monkeypatch.setattr("tinopt.cli.separability_verdict", certify_everything)
    for argv in (("demo",), ("demo", "--json")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: internal cross-check failed in demo "
                              "(no input file): demo expectation failed: "
                              "example2 not certified")


@pytest.mark.parametrize("rows, claim", (
    ([[3, 1, 1], [1, 3, 1], [1, 1, 3]], "caution sub-channel not TIN optimal"),
    ([[30, 25, 25], [25, 31, 15], [25, 15, 30]], "caution LP with R >= 0"),
    # the same 2-cycle bounds, and a 3-cycle bound of 24 that cuts the free optimum
    ([[30, 26, 25], [24, 30, 15], [25, 15, 30]], "caution LP free"),
))
def test_failed_caution_expectation_exits_4(capsys, monkeypatch, rows, claim):
    monkeypatch.setattr("tinopt.cli.caution_lp",
                        lambda: StrengthMatrix.from_values("gdof", rows))
    code, out, err = run_cli(capsys, "demo", "--json")
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "demo expectation failed: " + claim in err


def test_failed_caution_bound_expectation_exits_4(capsys, monkeypatch):
    # the 2-cycle bounds the demo's text prints are checked, not assumed
    monkeypatch.setattr("tinopt.cli.tin_region", lambda mat: [
        con._replace(rhs=con.rhs + 1) if con.users == (2, 3) else con
        for con in tin_region(mat)])
    code, out, err = run_cli(capsys, "demo")
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "demo expectation failed: caution 2-cycle bounds" in err


def _report_calls(nets, tmp_path):
    """Every report subcommand on every bundled fixture."""
    calls = [("gap", "--out", str(tmp_path / "gap.json")), ("demo",)]
    for name in BUNDLED:
        path = nets[name]
        net = load_network(path)
        k = net.users
        ring = ",".join("%d:%d" % (u, (u - 2) % k + 1) for u in range(1, k + 1))
        calls += [(sub, path) for sub in ("check-tin", "sum", "region",
                                          "combined-bounds", "invertibility",
                                          "separability")]
        for point in (",".join(["1"] * k), ",".join(["3"] * k),
                      ",".join(["-1"] + ["0"] * (k - 1))):
            calls += [("member", path, "--point", point),
                      ("decompose", path, "--point", point)]
        if net.mode == "gdof":
            calls += [("invertibility", path, "--logP", "20"),
                      ("invertibility", path, "--logP", "7/2", "--partition", ring),
                      ("separability", path, "--logP", "20")]
        else:
            calls.append(("invertibility", path, "--partition", ring))
    return calls


def test_text_is_rendered_from_the_json_report(nets, tmp_path, capsys):
    for argv in _report_calls(nets, tmp_path):
        code, text, err = run_cli(capsys, *argv)
        json_code, json_out, json_err = run_cli(capsys, argv[0], "--json",
                                                *argv[1:])
        assert (code, err) == (json_code, json_err), argv
        if code == 2:       # decompose rejects a negative point
            assert argv[0] == "decompose" and text == json_out == ""
            continue
        assert code in (0, 1) and text, argv
        assert text == render_text(json.loads(json_out)), argv


# ---------------------------------------------------------------------------
# error exit codes
# ---------------------------------------------------------------------------


def test_missing_and_malformed_files_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sum", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "sum", str(bad))
    assert code == 2 and "invalid JSON" in err


def test_boolean_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"mode": "gdof", "users": 1, "subchannels": 1, '
                    '"matrices": [[true]]}')
    for argv in (("sum", str(path)), ("sum", "--json", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: boolean is not a valid rational: True\n"


def test_bad_point_and_partition_exit_2(nets, capsys):
    code, _, err = run_cli(capsys, "member", nets["gap_eps_1_10"],
                           "--point", "1,zebra,3")
    assert code == 2 and "zebra" in err

    code, _, err = run_cli(capsys, "invertibility", nets["symmetric3"],
                           "--partition", "1:2")
    assert code == 2

    code, _, err = run_cli(capsys, "invertibility", nets["symmetric3"],
                           "--partition", "1:2,1:3,3:0")
    assert code == 2 and "twice" in err

    # a bad predecessor is reported as typed, not as an internal vector
    for partition, message in (
            ("1:5,2:1,3:0", "--partition entry '1:5': predecessor 5 is outside 0..3"),
            ("1:-1,2:1,3:0", "--partition entry '1:-1': predecessor -1 is outside 0..3"),
            ("1:2,2:2,3:0", "--partition gives predecessor 2 twice: '1:2' and '2:2'"),
            ("1:3,2:1,3:0", "--partition gives predecessor 3 twice: '1:3' and '3:0'"),
            ("1:x,2:1,3:2", "bad partition entry '1:x'"),
            # a huge entry is echoed cut to 24 characters, within and past
            # the digits int() reads; past them it is still out of range
            ("1:%s,2:1,3:0" % ("9" * 4000),
             "--partition entry '1:%s...': predecessor %s... is outside 0..3"
             % ("9" * 22, "9" * 24)),
            ("1:%s,2:1,3:0" % ("9" * 5000),
             "--partition entry '1:%s...': predecessor %s... is outside 0..3"
             % ("9" * 22, "9" * 24)),
            ("1:-%s,2:1,3:0" % ("9" * 5000),
             "--partition entry '1:-%s...': predecessor -%s... is outside 0..3"
             % ("9" * 21, "9" * 23)),
            ("%s:1,2:1,3:0" % ("9" * 40),
             "--partition entry '%s...': user %s... is outside 1..3"
             % ("9" * 24, "9" * 24)),
            ("%s:1,2:1,3:0" % ("9" * 5000),
             "--partition entry '%s...': user %s... is outside 1..3"
             % ("9" * 24, "9" * 24)),
            ("0:1,2:1,3:0", "--partition entry '0:1': user 0 is outside 1..3"),
            ("1:%sx,2:1,3:0" % ("9" * 5000),
             "bad partition entry '1:%s...'" % ("9" * 22))):
        code, out, err = run_cli(capsys, "invertibility", nets["symmetric3"],
                                 "--partition", partition)
        assert code == 2 and out == ""
        assert err == "error: %s\n" % message

    # an empty field, a trailing comma included, is an error, not skipped
    for argv in (("member", nets["gap_eps_1_10"], "--point", "1,,1,1"),
                 ("member", nets["gap_eps_1_10"], "--point", "1,,1"),
                 ("member", nets["gap_eps_1_10"], "--point", "1,1,1,"),
                 ("invertibility", nets["symmetric3"], "--partition",
                  "1:2,,2:3,3:1"),
                 ("invertibility", nets["symmetric3"], "--partition",
                  "1:2,2:3,3:1,")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["1e5000", "1e3000000", "7" * 5000],
                         ids=["1e5000", "1e3000000", "5000-digit-integer"])
def test_oversized_rationals_exit_2(tmp_path, capsys, entry):
    doc = {"mode": "gdof", "users": 2, "subchannels": 1,
           "matrices": [[entry, 0, 0, 1]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for argv in (("sum", str(path)), ("sum", "--json", str(path))):
        # the size check reads the text: parsing "1e3000000" alone takes ~1 s
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: rational") and "too large" in err
        assert err.count("\n") == 1


def test_oversized_common_denominator_exits_2(tmp_path, nets, capsys):
    # every entry is under the digit limit, but their common denominator
    # (about 12,000 digits) is not, nor would the reported sums render
    big = 10 ** 999 + 1
    cross = iter("1/%d" % (big + i) for i in range(12))
    mats = [[[3 if r == c else next(cross) for c in range(3)] for r in range(3)]
            for _ in range(2)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"mode": "gdof", "users": 3, "subchannels": 2,
                                "matrices": mats}))
    # a decompose point's denominators join the network's
    point = ",".join("1/%d" % (big + i) for i in range(3))
    for argv in (("sum", str(path)), ("sum", "--json", str(path)),
                 ("decompose", nets["gap_eps_1_10"], "--point", point)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "common denominator" in err and err.count("\n") == 1
        assert len(err) < 200                   # the value is not echoed


def test_oversized_json_integer_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"mode": "gdof", "users": 1, "subchannels": 1, '
                    '"matrices": [[%s]]}' % ("7" * 5000))
    code, out, err = run_cli(capsys, "sum", str(path))
    assert code == 2 and out == ""
    assert "invalid JSON" in err and err.count("\n") == 1


def test_cross_check_error_exits_4(nets, capsys, monkeypatch):
    def disagree(network):
        raise CrossCheckError("cycle LP (5) disagrees with partition bound (6)")

    monkeypatch.setattr("tinopt.cli.network_sum", disagree)
    code, out, err = run_cli(capsys, "sum", "--json", nets["example1"])
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "in sum (%s)" % nets["example1"] in err
    assert "disagrees with partition bound" in err


def test_enumeration_guard_exits_3(nets, capsys):
    # K = 10 is past MAX_ENUM_USERS: one error line and no report
    zeros = ",".join(["0"] * 10)
    for argv in (["sum"], ["combined-bounds"], ["combined-bounds", "--json"],
                 ["member", "--point", zeros], ["decompose", "--point", zeros],
                 ["region"], ["invertibility"], ["separability"]):
        code, out, err = run_cli(capsys, *argv, nets["huge"])
        assert code == 3 and out == "", argv
        assert err.count("\n") == 1
        assert "exhaustive enumeration limit exceeded" in err


@pytest.mark.parametrize("mode, cross", (
    ("deterministic", 1), ("deterministic", 0), ("gdof", 1)))
def test_tie_guard_exits_3_before_walking_the_ties(tmp_path, capsys, mode,
                                                   cross):
    # K = 9 with every cross link 1 ties all 133,496 derangements, and with
    # none every one of the 9! permutations: past TIE_GUARD either way.  The
    # deterministic verdicts list the ties, so they exit 3; the gdof ones
    # need no tie list (the dominance test builds its one candidate), so
    # they answer "undetermined" and exit 1 as quickly
    k = 9
    path = tmp_path / "tied9.json"
    path.write_text(json.dumps({
        "mode": mode, "users": k, "subchannels": 2,
        "matrices": [[[3 if r == c else cross for c in range(k)]
                      for r in range(k)]] * 2,
    }))
    for argv in (["invertibility"], ["invertibility", "--json"],
                 ["separability"], ["separability", "--json"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, str(path))
        assert time.perf_counter() - start < 5, argv
        if mode == "gdof":
            assert code == 1 and err == "" and "undetermined" in out, argv
            continue
        assert code == 3 and out == "", argv
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "tie limit exceeded" in err
        assert "(max %d)" % tinopt.optimize.TIE_GUARD in err
    # the sum needs only the value and the canonical tie
    code, out, err = run_cli(capsys, "sum", "--json", str(path))
    assert code == 0 and err == ""
    assert assert_canonical(out)["total"] == 2 * (3 - cross) * k


def test_bad_options_exit_2_before_the_guarded_analysis(nets, tmp_path, capsys):
    # every option is checked before any analysis runs, so a bad one is an
    # input error even where the analysis itself would trip a guard
    gdof10 = tmp_path / "gdof10.json"
    gdof10.write_text(json.dumps({
        "mode": "gdof", "users": 10, "subchannels": 1,
        "matrices": [[[3 if r == c else 1 for c in range(10)]
                      for r in range(10)]],
    }))
    cases = (
        (["separability", "--logP", "20"], nets["huge"], "only applies to gdof"),
        (["member", "--point", "1,1"], nets["huge"], "2 coordinates, expected 10"),
        (["separability", "--logP", "x"], str(gdof10), "cannot parse"),
        (["separability", "--logP", "0"], str(gdof10), "log2(P) > 0"),
        (["invertibility", "--logP", "x"], str(gdof10), "cannot parse"),
    )
    for argv, path, message in cases:
        for json_flag in ([], ["--json"]):
            code, out, err = run_cli(capsys, *argv, *json_flag, path)
            assert code == 2 and out == "", argv
            assert err.count("\n") == 1 and message in err, (argv, err)


def test_clamped_entries_warn_in_one_line_each_run(tmp_path, capsys):
    p = tmp_path / "negative.json"
    p.write_text(json.dumps({
        "mode": "gdof", "users": 2, "subchannels": 1,
        "matrices": [[[3, -1], [-2, 3]]],
    }))
    expected = (
        "warning: clamped negative strength -1 to 0 "
        "(receiver 1, transmitter 2, sub-channel 1)\n"
        "warning: clamped negative strength -2 to 0 "
        "(receiver 2, transmitter 1, sub-channel 1)\n"
    )
    for _ in range(2):
        code, out, err = run_cli(capsys, "sum", "--json", str(p))
        assert code == 0 and err == expected
        assert assert_canonical(out)["total"] == 6


def test_input_error_after_a_clamp_prints_one_line(tmp_path, capsys):
    # the clamp is read before the ragged row is found: exit 2 prints the
    # error alone; a valid document with a negative entry still warns
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({
        "mode": "gdof", "users": 2, "subchannels": 1,
        "matrices": [[[1, -1], [0]]],
    }))
    code, out, err = run_cli(capsys, "check-tin", str(ragged))
    assert code == 2 and out == ""
    assert err == ("error: strength matrix must be square "
                   "(K=2 but row 2 has 1 entries)\n")
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps({
        "mode": "gdof", "users": 2, "subchannels": 1,
        "matrices": [[[1, -1], [0, 1]]],
    }))
    code, out, err = run_cli(capsys, "check-tin", str(valid))
    assert code == 0 and out
    assert err == ("warning: clamped negative strength -1 to 0 "
                   "(receiver 1, transmitter 2, sub-channel 1)\n")
    # an error raised by the subcommand, after the network is built
    code, out, err = run_cli(capsys, "member", str(valid), "--point", "1")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ")


def test_unknown_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_match_fresh_processes(nets, capsys, monkeypatch):
    # main reuses one parser per process: no call may see another's state
    monkeypatch.setenv("COLUMNS", "80")     # one usage-line width on both sides
    src = str(Path(tinopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    gap = nets["gap_eps_1_10"]
    sequence = (
        ["member", gap],                                  # usage error
        ["sum", str(Path(gap).with_name("missing.json"))],  # input error
        ["member", gap, "--point", "-1,0,0"],
        ["invertibility", gap, "--logP", "20", "--partition", "1:3,2:1,3:2"],
        ["decompose", gap, "--point", "1,1,1"],
        ["sum", "--json", nets["example1"]],
    )
    for argv in sequence:
        fresh = subprocess.run([sys.executable, "-m", "tinopt", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert _in_process(capsys, argv) == (fresh.returncode, fresh.stdout,
                                             fresh.stderr), argv


def test_parser_is_built_once_per_process(nets, capsys, monkeypatch):
    main(["check-tin", nets["example1"]])
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (["sum", "--json", nets["example1"]], ["member", nets["example1"]],
                 ["gap"], ["separability", nets["example2"], "--logP", "x"]):
        _in_process(capsys, argv)
    assert built == []
