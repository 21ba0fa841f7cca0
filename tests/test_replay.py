"""The reports of the benchmark's first pass at seeds 1 to 3, pinned by digest.

``tests/replay_reports.py`` replays the operations of every workload of
``perfbench/`` through the CLI and hashes their exit codes and stdout; this
test compares those hashes with the values below, which

    python tests/replay_reports.py --seed 1 --passes 1
    python tests/replay_reports.py --seed 2 --passes 1
    python tests/replay_reports.py --seed 3 --passes 1

printed when they were pinned.  Seed 3 pins only the two workloads whose
LPs run on the simplex tableau, sum-corpus and decompose-mix.  Every value,
the two det-ties values that hash ``best_tin_scheme``'s results included,
has been printed by CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 alike.
An intended report change, or a change to the benchmark's generators,
re-pins them and says why in CHANGES.md, as a change to ``tests/golden/``
does.
"""

from __future__ import annotations

import pytest

from replay_reports import digest

PINNED = {
    ("sum-corpus", 1): (76, "15453f5b911e43bfce161ce2f827a51bf69633417c7df7b0de5442170ce97b25"),
    ("det-ties", 1): (131, "23200e2daf3933ccc55ced6e55ba9bae7a123585d4b00e4ed49b5d6d6a47a1a3"),
    ("decompose-mix", 1): (84, "e64e99c0454925ee3b82f993c94b7281aa4773fe49aeb8670e64491cfd3a5a88"),
    ("region-render", 1): (60, "556f487a4f5904fdfca7ee07928d4633abfb9fdc8bd2949c1cf0029c15855438"),
    ("sum-corpus", 2): (76, "56a0df18366bc3210d6fe181bd2987b992f5de36c4e4a53fcab6b41a87fef843"),
    ("det-ties", 2): (131, "f5b113964b7ed24bc8446d23961a7eb96cff711dfb13808cf56398581e9f4f0c"),
    ("decompose-mix", 2): (84, "a130d7e6e1aee7d8f7d86fa90a1641de583e3c6c74d096b2ac19175c2df6bfbf"),
    ("region-render", 2): (60, "e226b39cee6129411fca4038fbc2cbf0d0582ec1f141f5fa84d3163b1f693199"),
    ("sum-corpus", 3): (76, "b7e374c131da75022bebf82de9bb7494ae84d9d2853d947deb4bf427f1d0a196"),
    ("decompose-mix", 3): (84, "c6024bcb4dcb16decb6c642fd7f770ed25a2cf72b0532659556ef3065c40c344"),
}


# seed 1's cases keep the bare workload names as their ids, the ids they are known by
@pytest.mark.parametrize("workload, seed", PINNED, ids=[
    workload if seed == 1 else "%s-seed%d" % (workload, seed) for workload, seed in PINNED])
def test_first_pass_reports_match_their_pinned_digest(workload, seed, tmp_path):
    assert digest(workload, seed, 1, tmp_path / "network.json") == PINNED[workload, seed]
