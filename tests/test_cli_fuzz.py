"""Fuzzing the command line: every report subcommand, in text and ``--json``
mode, on drawn network documents that may be valid, clamped, malformed or
misshapen.  Each run must end in a verdict (exit 0 or 1), an input error
(exit 2) or a guard (exit 3), never in a traceback or a cross-check failure.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tinopt.cli import main
from tinopt.report import dumps_canonical

BITS = (0, 1, 2, 3, 5)
RATIONALS = ("1/2", "7/3", "5/7", "0.25")
# -1 is clamped with a warning, 1.5 is valid only in gdof mode
SUSPECT = (-1, 1.5, "x", "7/0", "1e5000", None, True)
COORDS = ("0", "1", "2", "1/2", "5/3")
BAD_COORDS = ("-1", "x")
SHAPE_ERRORS = ("missing key", "users", "short row", "matrix count")


@st.composite
def documents(draw):
    """(network document, K): entries valid for the mode, or in one
    document of three drawn with SUSPECT too, and a shape error in one of
    five."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(("gdof", "deterministic")))
    pool = BITS + RATIONALS if mode == "gdof" else BITS
    if draw(st.integers(0, 2)) == 0:
        pool += SUSPECT
    entry = st.sampled_from(pool)
    flat = draw(st.booleans())
    matrices = []
    for _ in range(m):
        rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
        matrices.append([x for row in rows for x in row] if flat else rows)
    doc = {"mode": mode, "users": k, "subchannels": m, "matrices": matrices}
    if draw(st.integers(0, 4)) == 0:
        error = draw(st.sampled_from(SHAPE_ERRORS))
        if error == "missing key":
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif error == "users":
            doc["users"] = k + 1
        elif error == "short row":
            matrices[0] = matrices[0][:-1] if flat else [matrices[0][0][:-1]]
        else:
            matrices.pop()
    return doc, k


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "network.json"


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=documents(), data=st.data())
def test_every_subcommand_exits_cleanly(doc_path, case, data):
    doc, k = case
    doc_path.write_text(json.dumps(doc))
    size = data.draw(st.sampled_from((k, k, k, k + 1)))
    coords = COORDS + BAD_COORDS if data.draw(st.booleans()) else COORDS
    point = ",".join(data.draw(st.lists(st.sampled_from(coords),
                                        min_size=size, max_size=size)))
    log2p = data.draw(st.sampled_from(("20", "7/2", "x")))
    commands = (
        ["check-tin"], ["sum"], ["region"], ["combined-bounds"],
        ["invertibility"], ["member", "--point", point],
        ["decompose", "--point", point],
        ["separability"], ["separability", "--logP", log2p],
    )
    for command in commands:
        for mode in ([], ["--json"]):
            argv = command[:1] + mode + [str(doc_path)] + command[1:]
            code, out, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv, doc, err)
            assert "Traceback" not in err
            others = [line for line in err.splitlines()
                      if not line.startswith("warning: ")]
            if code in (2, 3):
                assert len(others) == 1 and out == "", (argv, doc, err)
            else:
                assert others == [], (argv, doc, err)
                if mode:
                    assert out == dumps_canonical(json.loads(out))
