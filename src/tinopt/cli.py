"""Command-line front end.

Subcommands analyze a network JSON file (see ``tinopt gap --help`` for a
generator of the bundled parametric example).  Exit codes: 0 = analysis ran
and the verdict is positive, 1 = analysis ran and the verdict is negative,
2 = bad input, 3 = an exhaustive enumeration guard was exceeded, 4 = two
independent computations disagreed (a solver bug, never a verdict).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import report
from .cycles import CyclicPartition
from .detmodel import (
    invertibility_verdict,
    invertible_gf2,
    separability_verdict,
    sufficient_invertibility,
)
from .fixtures import caution_lp, example1, example2, gap_network, gap_point
from .model import (
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
from .optimize import network_sum, solve_lp
from .region import (
    combined_sum_bounds,
    region_contains,
    separate_tin_decomposable,
    tin_region,
)

WIDTH = 66


def _banner(title: str) -> None:
    print(("== %s " % title).ljust(WIDTH, "="))


def _parse_point(text: str) -> tuple:
    try:
        parts = [p for p in text.split(",") if p.strip()]
        return tuple(as_rational(p) for p in parts)
    except InputError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise InputError("cannot parse point %r" % text) from exc


def _parse_partition(text: str, users: int) -> CyclicPartition:
    """Parse "1:3,2:1,3:2" (user:predecessor, 0 = trivial cycle)."""
    pred = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
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
        pred[user] = p
    if sorted(pred) != list(range(1, users + 1)):
        raise InputError("--partition must cover users 1..%d exactly once" % users)
    perm = tuple(pred[u] if pred[u] != 0 else u for u in range(1, users + 1))
    return CyclicPartition.from_permutation(perm)


def _emit(args, payload: dict, text_fn) -> None:
    if args.json:
        sys.stdout.write(report.dumps_canonical(payload))
    else:
        text_fn()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_tin(args) -> int:
    net = load_network(args.network)
    verdicts = [check_tin(mat) for mat in net.matrices]
    payload = {
        "command": "check-tin",
        "mode": net.mode,
        "subchannels": [report.tin_repr(v) for v in verdicts],
        "all_satisfied": all(v.satisfied for v in verdicts),
    }

    def text():
        _banner("TIN optimality")
        for m, v in enumerate(verdicts, start=1):
            if v.satisfied:
                print("sub-channel %d: TIN optimal%s"
                      % (m, " (strict)" if v.strict else ""))
            else:
                print("sub-channel %d: NOT TIN optimal" % m)
                for viol in v.violations:
                    print("  %s" % viol)
        print("overall: %s" % ("TIN optimal" if payload["all_satisfied"]
                               else "not TIN optimal"))

    _emit(args, payload, text)
    return 0 if payload["all_satisfied"] else 1


def cmd_sum(args) -> int:
    net = load_network(args.network)
    nsum = network_sum(net)
    quantity = "sum-capacity" if net.mode == "deterministic" else "sum-GDoF"
    payload = {"command": "sum", "mode": net.mode, "quantity": quantity}
    payload.update(report.network_sum_repr(nsum))

    def text():
        _banner(quantity)
        for m, res in enumerate(nsum.per_channel, start=1):
            print("sub-channel %d: %s  [%s]" % (m, res.value, res.label))
            print("  lp_cycle_bounds=%s  assignment=%s  brute_force=%s"
                  % (res.methods["lp_cycle_bounds"],
                     res.methods["assignment"],
                     res.methods["brute_force"]))
            print("  optimal partition: %s" % res.partition)
        print("total over %d sub-channel(s): %s  [%s]"
              % (net.subchannels, nsum.total, nsum.label))

    _emit(args, payload, text)
    return 0


def cmd_region(args) -> int:
    net = load_network(args.network)
    per = [tin_region(mat) for mat in net.matrices]
    payload = {
        "command": "region",
        "mode": net.mode,
        "subchannels": [
            [report.constraint_repr(c) for c in cons] for cons in per
        ],
    }

    def text():
        for m, cons in enumerate(per, start=1):
            _banner("sub-channel %d cycle bounds (%d constraints)"
                    % (m, len(cons)))
            for con in cons:
                print("  %s    [cycle %s]" % (con, con.cycle))

    _emit(args, payload, text)
    return 0


def cmd_member(args) -> int:
    net = load_network(args.network)
    point = _parse_point(args.point)
    bounds = combined_sum_bounds(net)
    result = bounds.contains(point)
    payload = {
        "command": "member",
        "point": report.point_repr(point),
        "membership": report.membership_repr(result),
    }

    def text():
        _banner("combined-region membership")
        print("point: (%s)" % ", ".join(str(x) for x in point))
        if result.inside:
            print("inside the combined-bound region")
        else:
            print("OUTSIDE the combined-bound region")
            for k in result.negative_users:
                print("  negative coordinate: user %d" % k)
            for con in result.violated:
                print("  violates %s" % con)

    _emit(args, payload, text)
    return 0 if result.inside else 1


def cmd_combined_bounds(args) -> int:
    net = load_network(args.network)
    bounds = combined_sum_bounds(net)
    payload = {"command": "combined-bounds"}
    payload.update(report.combined_repr(bounds))

    def text():
        _banner("combined sum bounds (over %d sub-channels)" % net.subchannels)
        items = sorted(bounds.bounds.items(), key=lambda kv: (len(kv[0]), kv[0]))
        for subset, rhs in items:
            lhs = " + ".join("d%d" % u for u in subset)
            print("  %s <= %s" % (lhs, rhs))

    _emit(args, payload, text)
    return 0


def cmd_decompose(args) -> int:
    net = load_network(args.network)
    point = _parse_point(args.point)
    result = separate_tin_decomposable(net, point)
    payload = {
        "command": "decompose",
        "decomposition": report.decomposition_repr(result),
    }

    def text():
        _banner("per-sub-channel decomposition")
        print("target: (%s)" % ", ".join(str(x) for x in result.target))
        if result.feasible:
            print("decomposable; one valid split:")
            for m, chan in enumerate(result.allocation, start=1):
                print("  sub-channel %d: (%s)"
                      % (m, ", ".join(str(x) for x in chan)))
        else:
            print("NOT decomposable into per-sub-channel points")
            for cap in result.caps:
                print("  %s" % cap)

    _emit(args, payload, text)
    return 0 if result.feasible else 1


def _invertibility_for_network(net, partition_text):
    """Per-sub-channel invertibility entries for a deterministic network."""
    entries = []
    all_ok = True
    for m, mat in enumerate(net.matrices, start=1):
        if partition_text is not None:
            part = _parse_partition(partition_text, net.users)
            cert = invertible_gf2(mat, part)
            entries.append(("probe", m, cert))
            all_ok = all_ok and cert.invertible
        else:
            verdict = invertibility_verdict(mat)
            entries.append(("verdict", m, verdict))
            all_ok = all_ok and verdict.invertible
    return entries, all_ok


def cmd_invertibility(args) -> int:
    net = load_network(args.network)
    payload = {"command": "invertibility", "mode": net.mode}
    sections = []

    if net.mode == "deterministic":
        if args.logP is not None:
            raise InputError("--logP only applies to gdof-mode networks")
        entries, all_ok = _invertibility_for_network(net, args.partition)
        payload["subchannels"] = [
            report.certificate_repr(obj) if kind == "probe"
            else report.invertibility_repr(obj)
            for kind, _, obj in entries
        ]
        payload["invertible"] = all_ok
    else:
        if args.partition is not None and args.logP is None:
            raise InputError(
                "the bit-level partition probe needs a deterministic network; "
                "pass --logP to quantize this gdof network first"
            )
        suff = [sufficient_invertibility(mat) for mat in net.matrices]
        payload["subchannels"] = [report.sufficient_repr(s) for s in suff]
        all_ok = all(s.status == "invertible" for s in suff)
        payload["invertible"] = all_ok
        entries = [("sufficient", m, s) for m, s in enumerate(suff, start=1)]
        if args.logP is not None:
            qnet = quantize(net, as_rational(args.logP))
            qentries, q_ok = _invertibility_for_network(qnet, args.partition)
            payload["quantized"] = {
                "log2P": report.frac(as_rational(args.logP)),
                "subchannels": [
                    report.certificate_repr(obj) if kind == "probe"
                    else report.invertibility_repr(obj)
                    for kind, _, obj in qentries
                ],
                "invertible": q_ok,
            }
            sections.append(("quantized", qentries))

    def text():
        _banner("invertibility (%s mode)" % net.mode)
        for kind, m, obj in entries:
            if kind == "verdict":
                word = "invertible" if obj.invertible else "NON-invertible"
                print("sub-channel %d: %s (%s; %d optimal partition(s) checked)"
                      % (m, word, obj.method, len(obj.certificates)))
                for cert in obj.certificates:
                    _print_certificate(cert)
            elif kind == "probe":
                word = "invertible" if obj.invertible else "NON-invertible"
                print("sub-channel %d under %s: %s"
                      % (m, obj.partition, word))
                _print_certificate(obj)
            else:
                print("sub-channel %d: %s (%s)" % (m, obj.status, obj.method))
                for reason in obj.reasons:
                    print("  - %s" % reason)
        for name, qentries in sections:
            _banner("%s at log2(P) = %s" % (name, args.logP))
            for kind, m, obj in qentries:
                word = "invertible" if obj.invertible else "NON-invertible"
                if kind == "verdict":
                    print("sub-channel %d: %s (%d optimal partition(s))"
                          % (m, word, len(obj.certificates)))
                    for cert in obj.certificates:
                        _print_certificate(cert)
                else:
                    print("sub-channel %d under %s: %s" % (m, obj.partition, word))
                    _print_certificate(obj)

    _emit(args, payload, text)
    return 0 if payload["invertible"] else 1


def _print_certificate(cert) -> None:
    print("  partition %s: %d bits, rank %d -> %s"
          % (cert.partition, cert.num_bits, cert.rank,
             "invertible" if cert.invertible else "singular"))
    if cert.kernel:
        terms = " + ".join("x[%d,(%d)]" % (u, b) for u, b in cert.kernel)
        print("    kernel witness: %s" % terms)


def cmd_separability(args) -> int:
    net = load_network(args.network)
    verdict = separability_verdict(net)
    payload = {"command": "separability", "mode": net.mode}
    payload.update(report.separability_repr(verdict))
    extra = None
    if args.logP is not None:
        if net.mode != "gdof":
            raise InputError("--logP only applies to gdof-mode networks")
        qnet = quantize(net, as_rational(args.logP))
        extra = separability_verdict(qnet)
        payload["quantized"] = {
            "log2P": report.frac(as_rational(args.logP)),
        }
        payload["quantized"].update(report.separability_repr(extra))

    def text():
        _banner("separability")
        quantity = ("sum-capacity" if net.mode == "deterministic"
                    else "sum-GDoF")
        for m, res in enumerate(verdict.sums.per_channel, start=1):
            leg = verdict.legs[m - 1]
            print("sub-channel %d: %s = %s [%s]; TIN %s; invertibility: %s (%s)"
                  % (m, quantity, res.value, res.label,
                     "optimal" if res.tin.satisfied else "NOT optimal",
                     leg.status, leg.method))
        print("separated total: %s" % verdict.total)
        if verdict.certified:
            print("verdict: separable (certified)")
            print("  %s" % verdict.justification)
        else:
            print("verdict: not certified")
            for reason in verdict.reasons:
                print("  - %s" % reason)
        if extra is not None:
            _banner("quantized at log2(P) = %s" % args.logP)
            print("certified: %s, total %s"
                  % (extra.certified, extra.total))

    _emit(args, payload, text)
    return 0 if verdict.certified else 1


def cmd_gap(args) -> int:
    eps = as_rational(args.epsilon)
    net = gap_network(eps)
    if args.out:
        save_network(net, args.out)
        if not args.json:
            print("wrote gap network (epsilon = %s) to %s" % (eps, args.out))
        else:
            sys.stdout.write(report.dumps_canonical(
                {"command": "gap", "epsilon": report.frac(eps),
                 "out": args.out}
            ))
    else:
        sys.stdout.write(report.dumps_canonical(network_to_dict(net)))
    return 0


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError("demo expectation failed: %s" % message)


def cmd_demo(args) -> int:
    eps = as_rational(args.epsilon)
    results = {}
    quiet = args.json

    def say(line=""):
        if not quiet:
            print(line)

    def banner(title):
        if not quiet:
            _banner(title)

    banner("demo 1: fully invertible parallel network")
    ex1 = example1()
    nsum1 = network_sum(ex1)
    sep1 = separability_verdict(ex1)
    for m, res in enumerate(nsum1.per_channel, start=1):
        _expect(res.tin.satisfied, "example1 sub-channel %d TIN" % m)
        _expect(res.value == 6, "example1 sub-channel %d capacity 6" % m)
        say("sub-channel %d: TIN optimal, sum-capacity %s, partition %s"
            % (m, res.value, res.partition))
    _expect(nsum1.total == 18, "example1 total 18")
    _expect(sep1.certified, "example1 separable")
    _expect(all(leg.status == "invertible" for leg in sep1.legs),
            "example1 invertibility on every sub-channel")
    say("total 18; separable (certified): every sub-channel invertible")
    results["example1"] = {"total": report.frac(nsum1.total),
                           "certified": sep1.certified}

    banner("demo 2: invertibility failure on one sub-channel")
    ex2 = example2()
    sep2 = separability_verdict(ex2)
    statuses = [leg.status for leg in sep2.legs]
    _expect(statuses[:2] == ["invertible", "invertible"],
            "example2 sub-channels 1-2 invertible")
    _expect(statuses[2] == "non-invertible", "example2 sub-channel 3 singular")
    _expect(not sep2.certified, "example2 not certified")
    bad = sep2.legs[2].detail
    kernels = [c.kernel for c in bad.certificates]
    _expect(all(k for k in kernels), "kernel witnesses on all tied partitions")
    say("sub-channels 1-2 invertible; sub-channel 3 NON-invertible")
    if not quiet:
        for cert in bad.certificates:
            _print_certificate(cert)
    say("verdict: not certified")
    results["example2"] = {"certified": sep2.certified,
                           "statuses": statuses}

    banner("demo 3: combined region exceeds the per-sub-channel sum")
    net = gap_network(eps)
    bounds = combined_sum_bounds(net)
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
    split = separate_tin_decomposable(net, point)
    _expect(not split.feasible, "gap point not decomposable")
    ones = (1, 1, 1)
    ok = separate_tin_decomposable(net, ones)
    _expect(ok.feasible, "(1,1,1) decomposable")
    say("epsilon = %s" % eps)
    say("combined bounds: singletons 2, pairs %s, all 3" % pairs_rhs)
    say("point (2, 1/2, 1/2): inside the combined region, yet NOT "
        "decomposable per sub-channel:")
    for cap in split.caps:
        say("  %s" % cap)
    say("point (1, 1, 1): decomposable, e.g. %s"
        % (tuple(tuple(str(x) for x in chan) for chan in ok.allocation),))
    results["gap"] = {
        "epsilon": report.frac(eps),
        "inside": inside.inside,
        "decomposable": split.feasible,
    }

    banner("demo 4: nonnegativity matters in general LPs")
    sol_pos = solve_lp(caution_lp(nonneg=True))
    sol_free = solve_lp(caution_lp(nonneg=False))
    _expect(sol_pos.value == 20 and sol_pos.point == (0, 10, 10),
            "caution LP with R >= 0: 20 at (0, 10, 10)")
    _expect(sol_free.value == 25 and sol_free.point == (-5, 15, 15),
            "caution LP free: 25 at (-5, 15, 15)")
    say("max R1+R2+R3 s.t. R1+R2<=10, R1+R3<=10, R2+R3<=30")
    say("  with R >= 0 : %s at (%s)"
        % (sol_pos.value, ", ".join(str(x) for x in sol_pos.point)))
    say("  free        : %s at (%s)"
        % (sol_free.value, ", ".join(str(x) for x in sol_free.point)))
    say("no strictly-TIN-optimal sub-channel generates such bounds: there,")
    say("dropping nonnegativity never changes the cycle-LP optimum.")
    results["caution_lp"] = {
        "nonneg": report.frac(sol_pos.value),
        "free": report.frac(sol_free.value),
    }

    if args.json:
        sys.stdout.write(report.dumps_canonical(
            {"command": "demo", "results": results}
        ))
    return 0


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except GuardError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        where = getattr(args, "network", None) or "no input file"
        print("error: internal cross-check failed in %s (%s): %s"
              % (args.command, where, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
