"""The reports of the benchmark's first pass at seed 1, pinned by digest.

``tests/replay_reports.py`` replays the operations of every workload of
``perfbench/`` through the CLI and hashes their exit codes and stdout; this
test compares those hashes with the values below, which

    python tests/replay_reports.py --seed 1 --passes 1

printed when they were pinned.  They are the same on CPython 3.10 to 3.13.
An intended report change, or a change to the benchmark's generators,
re-pins them and says why in CHANGES.md, as a change to ``tests/golden/``
does.
"""

from __future__ import annotations

import pytest

from replay_reports import digest

PINNED = {
    "sum-corpus": (76, "15453f5b911e43bfce161ce2f827a51bf69633417c7df7b0de5442170ce97b25"),
    "det-ties": (131, "25c566dd9b70ebcab6bab7235f393fe8a0aa7b7e8dfd87c092c5f69a6a219be7"),
    "decompose-mix": (84, "e64e99c0454925ee3b82f993c94b7281aa4773fe49aeb8670e64491cfd3a5a88"),
    "region-render": (60, "556f487a4f5904fdfca7ee07928d4633abfb9fdc8bd2949c1cf0029c15855438"),
}


@pytest.mark.parametrize("workload", PINNED)
def test_first_pass_reports_match_their_pinned_digest(workload, tmp_path):
    assert digest(workload, 1, 1, tmp_path / "network.json") == PINNED[workload]
