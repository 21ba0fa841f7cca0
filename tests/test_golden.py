"""Golden reports: the --json output of every report subcommand is pinned.

Each case runs the CLI (on a bundled or test-local network, written as a
file, where the subcommand reads one) and compares its exit code and stdout
byte for byte against ``tests/golden/<case>.json`` (exit codes in
``tests/golden/exit_codes.json``).  A change to the solvers may change how
a result is found, never what is reported.

After an intended change to a report, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from tinopt.cli import main
from tinopt.fixtures import builtin_networks
from tinopt.model import network_to_dict
from tinopt.report import _RENDERERS, dumps_canonical

GOLDEN = Path(__file__).parent / "golden"
PLAIN = ("check-tin", "sum", "region", "combined-bounds", "invertibility",
         "separability")

# Test-local networks, as network documents.  tied6x2's first sub-channel has
# 21 tied optimal partitions with 4 distinct participating width vectors, 3
# of the ties invertible; its second has 6 ties, 4 vectors, 2 invertible.
# Their reports pin one certificate per tie, in tie order.  witness4x2 is
# gdof: its first sub-channel is acyclic4's matrix, whose unique optimal
# partition {(1,2,3,4)} is dominant and is reported as the witness; its
# second has two tied optimal partitions, neither dominant, and no other
# sufficient condition holds, so it is undetermined.
LITERAL = {
    "tied6x2": {
        "mode": "deterministic",
        "users": 6,
        "subchannels": 2,
        "matrices": [
            [[5, 0, 2, 2, 0, 1], [2, 5, 2, 2, 1, 1], [2, 2, 5, 2, 2, 0],
             [2, 2, 1, 5, 0, 1], [0, 2, 0, 2, 5, 0], [1, 0, 1, 0, 1, 3]],
            [[4, 0, 1, 2, 1, 0], [0, 5, 2, 1, 0, 0], [1, 1, 5, 2, 0, 0],
             [1, 2, 0, 5, 0, 1], [0, 2, 1, 1, 4, 1], [0, 1, 0, 0, 0, 3]],
        ],
    },
    "witness4x2": {
        "mode": "gdof",
        "users": 4,
        "subchannels": 2,
        "matrices": [
            [[4, 2, 1, 0], [0, 4, 2, 1], [1, 0, 4, 2], [2, 1, 0, 4]],
            [[5, 2, 2, 1], [1, 5, 2, 1], [2, 1, 5, 1], [1, 2, 1, 4]],
        ],
    },
}


def golden_cases() -> dict:
    """Case name -> (subcommand, network name or None, extra arguments)."""
    cases = {"demo": ("demo", None, ())}
    for name, builder in builtin_networks().items():
        for sub in PLAIN:
            cases["%s.%s" % (sub, name)] = (sub, name, ())
        k = builder().users
        cases["member.%s" % name] = ("member", name, ("--point", ",".join(["1"] * k)))
    for sub in ("invertibility", "separability"):
        cases["%s.gap_eps_1_10.logP20" % sub] = (
            sub, "gap_eps_1_10", ("--logP", "20"))
    cases["decompose.gap_eps_1_10.ones"] = (
        "decompose", "gap_eps_1_10", ("--point", "1,1,1"))
    cases["decompose.gap_eps_1_10.gap_point"] = (
        "decompose", "gap_eps_1_10", ("--point", "2,1/2,1/2"))
    # the split LP's Farkas weights (0, 0, 1) rule out the cap LPs of users
    # 1 and 2, so user 3's is the only one solved
    cases["decompose.gap_eps_1_10.single"] = (
        "decompose", "gap_eps_1_10", ("--point", "0,0,3"))
    for sub in ("invertibility", "separability"):
        for name in LITERAL:
            cases["%s.%s" % (sub, name)] = (sub, name, ())
    # partition probes: one certificate per sub-channel; the gdof probe's top
    # level holds sufficient-condition verdicts, its quantized section the
    # certificates
    probe = ("--partition", "1:3,2:1,3:2")
    cases["invertibility.example2.probe"] = ("invertibility", "example2", probe)
    cases["invertibility.gap_eps_1_10.logP20.probe"] = (
        "invertibility", "gap_eps_1_10", ("--logP", "20") + probe)
    return cases


def run_case(case, workdir) -> tuple:
    sub, name, extra = case
    files = []
    if name is not None:
        path = Path(workdir) / (name + ".json")
        if not path.exists():
            doc = (LITERAL[name] if name in LITERAL
                   else network_to_dict(builtin_networks()[name]()))
            path.write_text(dumps_canonical(doc))
        files.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([sub, "--json", *files, *extra])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_report_matches_golden(case, exit_codes, tmp_path):
    code, out = run_case(golden_cases()[case], tmp_path)
    assert code == exit_codes[case]
    assert out == (GOLDEN / (case + ".json")).read_text()


def test_every_report_has_a_golden_case():
    # gap writes a network file rather than a report of its own
    pinned = {sub for sub, _, _ in golden_cases().values()}
    assert pinned == set(_RENDERERS) - {"gap"}


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case, spec in sorted(golden_cases().items()):
            codes[case], out = run_case(spec, workdir)
            (GOLDEN / (case + ".json")).write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
