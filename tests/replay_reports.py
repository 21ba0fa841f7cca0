"""Replay benchmark passes and print one digest of their reports per workload.

    python tests/replay_reports.py --seed 1 --passes 2

Each workload's first ``--passes`` passes (``perfbench/workloads.py``, drawn
with the seeds ``perfbench/run.py`` uses) run in this process on the
program under ``src/``: every CLI operation through ``tinopt.cli.main`` on a
network file, and every library operation (det-ties' scheme operation)
through ``best_tin_scheme`` on each sub-channel.  Per workload it prints the
operation count and one SHA-256 over each operation's exit code and stdout
(the repr of the scheme results for a library operation).  Two trees that
print the same lines wrote the same reports, byte for byte.  Outputs are not
checked against the reference here; ``perfbench/run.py`` does that.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import build_pass  # noqa: E402
from workloads import NET, WORKLOADS  # noqa: E402

from tinopt.cli import main as cli_main  # noqa: E402
from tinopt.detmodel import best_tin_scheme  # noqa: E402
from tinopt.model import parse_network  # noqa: E402


def replay(op, network) -> tuple:
    """(exit code, output) of one operation."""
    if op.argv is None:
        net = parse_network(op.document())
        return 0, repr([best_tin_scheme(m) for m in net.matrices])
    network.write_text(json.dumps(op.document()))
    argv = [str(network) if a == NET else a for a in op.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    return rc, out.getvalue()


def digest(workload, seed, passes, network) -> tuple:
    """(operation count, SHA-256 hex digest) over the workload's passes."""
    sha = hashlib.sha256()
    count = 0
    for index in range(passes):
        for op in build_pass(workload, seed, index):
            rc, out = replay(op, network)
            sha.update(b"%d\0%s\0" % (rc, out.encode()))
            count += 1
    return count, sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        network = Path(tmp) / "network.json"
        for workload in WORKLOADS:
            count, hexdigest = digest(workload, args.seed, args.passes, network)
            print("%s ops=%d sha256=%s" % (workload, count, hexdigest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
