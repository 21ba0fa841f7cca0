"""Command-line front end.

Subcommands analyze a network JSON file (see ``tinopt gap --help`` for a
generator of the bundled parametric example).  ``main(argv)`` may be called
any number of times in one process: it builds the parser once, loads the
network once per call and hands it to the subcommand, which checks every
option before any analysis runs.  Exit codes: 0 = analysis ran and the
verdict is positive, 1 = analysis ran and the verdict is negative, 2 = bad
input, 3 = an exhaustive enumeration guard was exceeded, 4 = two independent
computations disagreed (a solver bug, never a verdict).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings
from fractions import Fraction

from . import report
from .cycles import CyclicPartition
from .detmodel import (
    invertible_gf2,
    separability_verdict,
    subchannel_invertibility,
)
from .fixtures import caution_lp, example1, example2, gap_network, gap_point
from .model import (
    ClampWarning,
    CrossCheckError,
    GuardError,
    InputError,
    as_rational,
    check_tin,
    load_network,
    network_to_dict,
    quantize,
    save_network,
)
from .optimize import network_sum, solve_cycle_lp
from .region import combined_sum_bounds, separate_tin_decomposable, tin_region


def _parse_point(text: str, users: int) -> tuple:
    point = tuple(as_rational(p) for p in text.split(","))
    if len(point) != users:
        raise InputError("point has %d coordinates, expected %d" % (len(point), users))
    return point


def _parse_log2p(text, net) -> tuple:
    """--logP as (log2 P, the quantized network), or (None, None) without it."""
    if text is None:
        return None, None
    if net.mode != "gdof":
        raise InputError("--logP only applies to gdof-mode networks")
    return as_rational(text), quantize(net, text)


def _parse_partition(text: str, users: int) -> CyclicPartition:
    """Parse "1:3,2:1,3:2" (user:predecessor, 0 = trivial cycle); a bad
    predecessor is reported by the entries as typed."""
    pred, given = {}, {}                # given[p]: the entry naming p
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" not in chunk:
            raise InputError("partition entries look like user:predecessor, got %r"
                             % chunk)
        left, right = chunk.split(":", 1)
        try:
            user, p = int(left), int(right)
        except ValueError as exc:
            raise InputError("bad partition entry %r" % chunk) from exc
        if user in pred:
            raise InputError("user %d listed twice in --partition" % user)
        if not 0 <= p <= users:
            raise InputError("--partition entry %r: predecessor %d is outside 0..%d"
                             % (chunk, p, users))
        p = p or user
        if p in given:
            raise InputError("--partition gives predecessor %d twice: %r and %r"
                             % (p, given[p], chunk))
        pred[user], given[p] = p, chunk
    if sorted(pred) != list(range(1, users + 1)):
        raise InputError("--partition must cover users 1..%d exactly once" % users)
    return CyclicPartition.from_permutation([pred[u] for u in range(1, users + 1)])


# ---------------------------------------------------------------------------
# subcommands: each takes (network or None, args), checks its options before
# any analysis and returns (canonical payload, exit code); main writes it
# ---------------------------------------------------------------------------

def cmd_check_tin(net, args) -> tuple:
    verdicts = [check_tin(mat) for mat in net.matrices]
    payload = {
        "command": "check-tin",
        "mode": net.mode,
        "subchannels": [report.tin_repr(v) for v in verdicts],
        "all_satisfied": all(v.satisfied for v in verdicts),
    }
    return payload, 0 if payload["all_satisfied"] else 1


def cmd_sum(net, args) -> tuple:
    nsum = network_sum(net)
    payload = {"command": "sum", "mode": net.mode, "quantity": report.SUM_QUANTITY[net.mode]}
    payload.update(report.network_sum_repr(nsum))
    return payload, 0


def cmd_region(net, args) -> tuple:
    payload = {
        "command": "region",
        "mode": net.mode,
        "subchannels": [report.region_repr(tin_region(mat)) for mat in net.matrices],
    }
    return payload, 0


def cmd_member(net, args) -> tuple:
    point = _parse_point(args.point, net.users)
    result = combined_sum_bounds(net).contains(point)
    payload = {
        "command": "member",
        "point": report.point_repr(point),
        "membership": report.membership_repr(result),
    }
    return payload, 0 if result.inside else 1


def cmd_combined_bounds(net, args) -> tuple:
    payload = {"command": "combined-bounds"}
    payload.update(report.combined_repr(combined_sum_bounds(net)))
    return payload, 0


def cmd_decompose(net, args) -> tuple:
    result = separate_tin_decomposable(net, _parse_point(args.point, net.users))
    payload = {
        "command": "decompose",
        "decomposition": report.decomposition_repr(result),
    }
    return payload, 0 if result.feasible else 1


def _invertibility_report(net, part) -> dict:
    """A network's sub-channel reports and their verdict: one probed
    partition's certificates, or each sub-channel's verdict in its mode."""
    if part is not None:
        verdicts = [invertible_gf2(mat, part) for mat in net.matrices]
    else:
        verdicts = [subchannel_invertibility(mat) for mat in net.matrices]
    return {"subchannels": [report.invertibility_repr(v) for v in verdicts],
            "invertible": all(verdicts)}


def cmd_invertibility(net, args) -> tuple:
    if net.mode == "gdof" and args.partition is not None and args.logP is None:
        raise InputError(
            "the bit-level partition probe needs a deterministic network; "
            "pass --logP to quantize this gdof network first"
        )
    log2p, qnet = _parse_log2p(args.logP, net)
    part = (None if args.partition is None
            else _parse_partition(args.partition, net.users))
    payload = {"command": "invertibility", "mode": net.mode}
    # with --logP the probe applies to the quantized network only
    payload.update(_invertibility_report(net, part if qnet is None else None))
    if qnet is not None:
        payload["quantized"] = {"log2P": report.frac(log2p)}
        payload["quantized"].update(_invertibility_report(qnet, part))
    return payload, 0 if payload["invertible"] else 1


def cmd_separability(net, args) -> tuple:
    log2p, qnet = _parse_log2p(args.logP, net)
    verdict = separability_verdict(net)
    payload = {"command": "separability", "mode": net.mode}
    payload.update(report.separability_repr(verdict))
    if qnet is not None:
        payload["quantized"] = {"log2P": report.frac(log2p)}
        payload["quantized"].update(
            report.separability_repr(separability_verdict(qnet)))
    return payload, 0 if verdict.certified else 1


def cmd_gap(net, args) -> tuple:
    eps = as_rational(args.epsilon)
    net = gap_network(eps)
    if not args.out:
        return network_to_dict(net), 0
    save_network(net, args.out)
    return {"command": "gap", "epsilon": report.frac(eps), "out": args.out}, 0


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CrossCheckError("demo expectation failed: %s" % message)


def cmd_demo(net, args) -> tuple:
    """Replay the bundled analyses, assert their outcomes, and report them."""
    eps = as_rational(args.epsilon)
    gap = gap_network(eps)  # rejects a bad epsilon before any analysis

    ex1 = example1()
    sep1 = separability_verdict(ex1)
    for m, res in enumerate(sep1.sums.per_channel, start=1):
        _expect(res.tin.satisfied, "example1 sub-channel %d TIN" % m)
        _expect(res.value == 6, "example1 sub-channel %d capacity 6" % m)
    _expect(sep1.sums.total == 18, "example1 total 18")
    _expect(sep1.certified, "example1 separable")
    _expect(all(leg.status == "invertible" for leg in sep1.legs),
            "example1 invertibility on every sub-channel")

    ex2 = example2()
    sep2 = separability_verdict(ex2)
    statuses = [leg.status for leg in sep2.legs]
    _expect(statuses[:2] == ["invertible", "invertible"],
            "example2 sub-channels 1-2 invertible")
    _expect(statuses[2] == "non-invertible", "example2 sub-channel 3 singular")
    _expect(not sep2.certified, "example2 not certified")
    kernels = [c.kernel for c in sep2.legs[2].detail.certificates]
    _expect(all(k for k in kernels), "kernel witnesses on all tied partitions")

    bounds = combined_sum_bounds(gap)
    pairs_rhs = Fraction(5, 2) + eps
    for subset, rhs in bounds.bounds.items():
        if len(subset) == 1:
            _expect(rhs == 2, "singleton bound 2")
        elif len(subset) == 2:
            _expect(rhs == pairs_rhs, "pair bound 5/2 + eps")
        else:
            _expect(rhs == 3, "triple bound 3")
    point = gap_point()
    inside = bounds.contains(point)
    _expect(inside.inside, "gap point inside the combined region")
    split = separate_tin_decomposable(gap, point)
    _expect(not split.feasible, "gap point not decomposable")
    ok = separate_tin_decomposable(gap, (1, 1, 1))
    _expect(ok.feasible, "(1,1,1) decomposable")

    caution = caution_lp()
    _expect(not check_tin(caution).satisfied, "caution sub-channel not TIN optimal")
    sol_pos = solve_cycle_lp(caution)
    sol_free = solve_cycle_lp(caution, nonneg=False)
    _expect(sol_pos.value == 20 and sol_pos.point == (0, 10, 10),
            "caution LP with R >= 0: 20 at (0, 10, 10)")
    _expect(sol_free.value == 25 and sol_free.point == (-5, 15, 15),
            "caution LP free: 25 at (-5, 15, 15)")

    results = {
        "example1": report.separability_repr(sep1),
        "example2": dict(report.separability_repr(sep2), statuses=statuses),
        "gap": {
            "epsilon": report.frac(eps),
            "inside": inside.inside,
            "decomposable": split.feasible,
            "bounds": report.combined_repr(bounds)["bounds"],
            "membership": report.membership_repr(inside),
            "split": report.decomposition_repr(split),
            "ones": report.decomposition_repr(ok),
        },
        "caution_lp": {
            "nonneg": report.frac(sol_pos.value),
            "nonneg_point": report.point_repr(sol_pos.point),
            "free": report.frac(sol_free.value),
            "free_point": report.point_repr(sol_free.point),
        },
    }
    return {"command": "demo", "results": results}, 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinopt",
        description="TIN optimality, sum-capacity and separability analysis "
                    "for parallel interference networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, network=True):
        p = sub.add_parser(name, help=help_text)
        if network:
            p.add_argument("network", help="network JSON file")
        p.add_argument("--json", action="store_true",
                       help="emit a canonical JSON report")
        p.set_defaults(func=func)
        return p

    add("check-tin", cmd_check_tin,
        "test the TIN optimality condition on every sub-channel")
    add("sum", cmd_sum,
        "sum-GDoF / sum-capacity via three cross-checked solvers")
    add("region", cmd_region, "list every cycle bound per sub-channel")

    p = add("member", cmd_member,
            "test a rate point against the combined sum bounds")
    p.add_argument("--point", required=True,
                   help="comma-separated rationals, e.g. 2,1/2,1/2")

    add("combined-bounds", cmd_combined_bounds,
        "tightest whole-network bound for every user subset")

    p = add("decompose", cmd_decompose,
            "split a rate point across sub-channels if possible")
    p.add_argument("--point", required=True,
                   help="comma-separated rationals, e.g. 1,1,1")

    p = add("invertibility", cmd_invertibility,
            "GF(2) invertibility of participating levels")
    p.add_argument("--partition",
                   help="probe one partition, e.g. 1:3,2:1,3:2 (0 = trivial)")
    p.add_argument("--logP", help="also analyze the quantized network "
                                  "(gdof mode; exact rational log2 P)")

    p = add("separability", cmd_separability,
            "certify that per-sub-channel TIN attains the combined optimum")
    p.add_argument("--logP", help="also analyze the quantized network "
                                  "(gdof mode; exact rational log2 P)")

    p = add("gap", cmd_gap,
            "materialize the parametric 2-sub-channel gap network",
            network=False)
    p.add_argument("--epsilon", default="1/10",
                   help="gap parameter, 0 < eps < 1/4 (default 1/10)")
    p.add_argument("--out", help="write the network JSON here instead of stdout")

    p = add("demo", cmd_demo,
            "replay the bundled analyses and assert their outcomes",
            network=False)
    p.add_argument("--epsilon", default="1/10",
                   help="gap parameter for demo 3 (default 1/10)")

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate value such as "-1,0,0" as an option and stops
    # with "expected one argument": glue it to its flag instead
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--point" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = ["--point=" + argv[i]]
    args = _parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as clamps:
        # every clamped entry, on every run: the default filter shows a
        # repeat only once per process
        warnings.simplefilter("always", ClampWarning)
        try:
            net = load_network(args.network) if "network" in args else None
            payload, code = args.func(net, args)
            # one stderr line per clamped entry, printed only with a report:
            # a run that stops with an error prints that one line alone
            for clamp in clamps:
                print("warning: %s" % clamp.message, file=sys.stderr)
            sys.stdout.write(report.dumps_canonical(payload) if args.json
                             else report.render_text(payload))
            return code
        except (InputError, GuardError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2 if isinstance(exc, InputError) else 3
        except CrossCheckError as exc:
            where = getattr(args, "network", None) or "no input file"
            print("error: internal cross-check failed in %s (%s): %s"
                  % (args.command, where, exc), file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
