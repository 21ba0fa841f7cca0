"""Canonical JSON payloads of analysis results, and their text rendering.

Every value rendered here is an int, string, bool, list, tuple, or dict --
never a float -- so a report dumped with :func:`dumps_canonical` survives a
parse/re-dump round trip byte for byte.  A tuple (a bound row's ``users``
and ``cycle`` are the result's own) is written like a list, so a parsed
report holds lists where the payload held tuples.  That writer lives in
``model``, which saves networks through it too, and is re-exported here; it
refuses any other type with TypeError.  :func:`render_text` reads nothing
but such a payload, so every subcommand's text, the ``demo`` walkthrough's
included, is a function of its JSON.
"""

from __future__ import annotations

from .detmodel import InvertibilityCertificate, SufficientVerdict
from .model import dumps_canonical, rational_str

__all__ = [
    "SUM_QUANTITY",
    "dumps_canonical",
    "render_text",
    "frac",
    "point_repr",
    "partition_repr",
    "tin_repr",
    "sum_repr",
    "network_sum_repr",
    "region_repr",
    "membership_repr",
    "combined_repr",
    "decomposition_repr",
    "certificate_repr",
    "invertibility_repr",
    "sufficient_repr",
    "separability_repr",
]


frac = rational_str

# what a sub-channel's or network's sum is called in each mode
SUM_QUANTITY = {"gdof": "sum-GDoF", "deterministic": "sum-capacity"}


def point_repr(point) -> list:
    return [frac(x) for x in point]


def partition_repr(partition) -> dict:
    return {
        "cycles": [list(cyc) for cyc in partition.cycles],
        "predecessors": list(partition.predecessors),  # 0 marks trivial cycles
    }


def tin_repr(verdict) -> dict:
    return {
        "satisfied": verdict.satisfied,
        "strict": verdict.strict,
        "violations": [
            {
                "user": v.user,
                "max_incoming": frac(v.max_incoming),
                "max_outgoing": frac(v.max_outgoing),
                "desired": frac(v.desired),
            }
            for v in verdict.violations
        ],
    }


def sum_repr(result) -> dict:
    methods = {}
    for name, val in result.methods.items():
        methods[name] = val if isinstance(val, str) else frac(val)
    return {
        "value": frac(result.value),
        "label": result.label,
        "methods": methods,
        "agreement": result.agreement,
        "tin": tin_repr(result.tin),
        "optimal_partition": partition_repr(result.partition),
    }


def network_sum_repr(nsum) -> dict:
    return {
        "per_subchannel": [sum_repr(r) for r in nsum.per_channel],
        "total": frac(nsum.total),
        "label": nsum.label,
    }


def region_repr(constraints) -> list:
    """One row per constraint, with each distinct rhs object rendered once:
    ``tin_region`` shares one Fraction per distinct bound, so its K = 8
    listing of 16,072 rows renders about 120.  The memo is keyed on the
    object's identity (cheaper than a Fraction's hash) and holds each
    object it keys, so no id is reused mid-call."""
    texts, held = {}, []
    rows = []
    for users, rhs, cycle in constraints:
        text = texts.get(id(rhs))
        if text is None:
            text = texts[id(rhs)] = frac(rhs)
            held.append(rhs)
        if cycle is None:
            rows.append({"users": users, "rhs": text})
        else:
            rows.append({"users": users, "rhs": text, "cycle": cycle})
    return rows


def membership_repr(result) -> dict:
    return {
        "inside": result.inside,
        "negative_users": list(result.negative_users),
        "violated": region_repr(result.violated),
    }


def combined_repr(bounds) -> dict:
    # rows in the bounds' own order: by subset size, then lexicographically
    return {"users": bounds.users, "bounds": region_repr(bounds.as_constraints())}


def decomposition_repr(result) -> dict:
    out = {
        "feasible": result.feasible,
        "target": point_repr(result.target),
    }
    if result.feasible:
        out["allocation"] = [point_repr(chan) for chan in result.allocation]
    else:
        out["caps"] = [
            {"user": c.user, "cap": frac(c.cap), "target": frac(c.target)}
            for c in result.caps
        ]
    return out


def certificate_repr(cert) -> dict:
    out = {
        "partition": partition_repr(cert.partition),
        "participating_bits": cert.num_bits,
        "rank": cert.rank,
        "invertible": cert.invertible,
        "method": cert.method,
    }
    if cert.kernel is not None:
        out["kernel"] = [{"user": u, "bit": b} for u, b in cert.kernel]
    return out


def invertibility_repr(verdict) -> dict:
    """Any sub-channel invertibility answer: a probed partition's
    certificate, a sufficient-condition verdict, or a verdict over the
    tied optimal partitions."""
    if isinstance(verdict, InvertibilityCertificate):
        return certificate_repr(verdict)
    if isinstance(verdict, SufficientVerdict):
        return sufficient_repr(verdict)
    return {
        "invertible": verdict.invertible,
        "method": verdict.method,
        "certificates": [certificate_repr(c) for c in verdict.certificates],
    }


def sufficient_repr(verdict) -> dict:
    out = {
        "status": verdict.status,
        "method": verdict.method,
        "reasons": list(verdict.reasons),
    }
    if verdict.witness is not None:
        out["witness_partition"] = partition_repr(verdict.witness)
    return out


def separability_repr(verdict) -> dict:
    legs = []
    for leg in verdict.legs:
        entry = {"subchannel": leg.channel, "status": leg.status,
                 "method": leg.method}
        if leg.detail is not None:
            entry["detail"] = invertibility_repr(leg.detail)
        legs.append(entry)
    return {
        "certified": verdict.certified,
        "total": frac(verdict.total),
        "total_label": verdict.sums.label,
        "per_subchannel": [sum_repr(r) for r in verdict.sums.per_channel],
        "invertibility": legs,
        "reasons": list(verdict.reasons),
        "justification": verdict.justification,
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _banner(title: str) -> str:
    return ("== %s " % title).ljust(66, "=")


def _point(values) -> str:
    return "(%s)" % ", ".join(str(x) for x in values)


def _cycle(users) -> str:
    return "(%s)" % ",".join(map(str, users))


def _partition(part) -> str:
    return "{%s}" % ", ".join(_cycle(users) for users in part["cycles"])


def _bound(con) -> str:
    return "%s <= %s" % (" + ".join(map("d%d".__mod__, con["users"])), con["rhs"])


def _cap_line(cap) -> str:
    return ("user %d cannot exceed %s < %s once the other users hit "
            "their targets" % (cap["user"], cap["cap"], cap["target"]))


def _certificate_lines(cert) -> list:
    lines = ["  partition %s: %d bits, rank %d -> %s"
             % (_partition(cert["partition"]), cert["participating_bits"],
                cert["rank"], "invertible" if cert["invertible"] else "singular")]
    if cert.get("kernel"):
        terms = " + ".join("x[%d,(%d)]" % (k["user"], k["bit"])
                           for k in cert["kernel"])
        lines.append("    kernel witness: %s" % terms)
    return lines


def _check_tin_lines(p) -> list:
    lines = [_banner("TIN optimality")]
    for m, v in enumerate(p["subchannels"], start=1):
        if v["satisfied"]:
            lines.append("sub-channel %d: TIN optimal%s"
                         % (m, " (strict)" if v["strict"] else ""))
        else:
            lines.append("sub-channel %d: NOT TIN optimal" % m)
            lines += ["  user %d: desired %s < max incoming %s + max outgoing %s"
                      % (x["user"], x["desired"], x["max_incoming"],
                         x["max_outgoing"]) for x in v["violations"]]
    lines.append("overall: %s" % ("TIN optimal" if p["all_satisfied"]
                                  else "not TIN optimal"))
    return lines


def _sum_lines(p) -> list:
    lines = [_banner(p["quantity"])]
    for m, res in enumerate(p["per_subchannel"], start=1):
        methods = res["methods"]
        lines += [
            "sub-channel %d: %s  [%s]" % (m, res["value"], res["label"]),
            "  lp_cycle_bounds=%s  assignment=%s  brute_force=%s"
            % (methods["lp_cycle_bounds"], methods["assignment"],
               methods["brute_force"]),
            "  optimal partition: %s" % _partition(res["optimal_partition"]),
        ]
    lines.append("total over %d sub-channel(s): %s  [%s]"
                 % (len(p["per_subchannel"]), p["total"], p["label"]))
    return lines


def _region_lines(p) -> list:
    lines = []
    for m, cons in enumerate(p["subchannels"], start=1):
        lines.append(_banner("sub-channel %d cycle bounds (%d constraints)"
                             % (m, len(cons))))
        sums = {}   # "d1 + d2 + ..." once per user set of the sub-channel
        for con in cons:
            users = tuple(con["users"])
            lhs = sums.get(users)
            if lhs is None:
                lhs = sums[users] = " + ".join(map("d%d".__mod__, users))
            lines.append("  %s <= %s    [cycle %s]"
                         % (lhs, con["rhs"], _cycle(con["cycle"])))
    return lines


def _member_lines(p) -> list:
    result = p["membership"]
    lines = [_banner("combined-region membership"), "point: %s" % _point(p["point"])]
    if result["inside"]:
        lines.append("inside the combined-bound region")
    else:
        lines.append("OUTSIDE the combined-bound region")
        lines += ["  negative coordinate: user %d" % k
                  for k in result["negative_users"]]
        lines += ["  violates %s" % _bound(c) for c in result["violated"]]
    return lines


def _combined_bounds_lines(p) -> list:
    return [_banner("combined sum bounds")] + ["  " + _bound(b) for b in p["bounds"]]


def _decompose_lines(p) -> list:
    result = p["decomposition"]
    lines = [_banner("per-sub-channel decomposition"),
             "target: %s" % _point(result["target"])]
    if result["feasible"]:
        lines.append("decomposable; one valid split:")
        lines += ["  sub-channel %d: %s" % (m, _point(chan))
                  for m, chan in enumerate(result["allocation"], start=1)]
    else:
        lines.append("NOT decomposable into per-sub-channel points")
        lines += ["  " + _cap_line(c) for c in result["caps"]]
        if not result["caps"]:
            lines.append("  no per-user cap: fixing any K-1 users at their "
                         "targets is already infeasible")
    return lines


def _subchannel_invertibility_lines(entries) -> list:
    """Each entry is a sufficient-condition verdict (gdof mode), a verdict
    over every optimal partition, or one probed partition's certificate."""
    lines = []
    for m, entry in enumerate(entries, start=1):
        if "status" in entry:
            lines.append("sub-channel %d: %s (%s)"
                         % (m, entry["status"], entry["method"]))
            lines += ["  - %s" % reason for reason in entry["reasons"]]
            continue
        word = "invertible" if entry["invertible"] else "NON-invertible"
        if "certificates" in entry:
            lines.append("sub-channel %d: %s (%s; %d optimal partition(s) checked)"
                         % (m, word, entry["method"], len(entry["certificates"])))
            for cert in entry["certificates"]:
                lines += _certificate_lines(cert)
        else:
            lines.append("sub-channel %d under %s: %s"
                         % (m, _partition(entry["partition"]), word))
            lines += _certificate_lines(entry)
    return lines


def _invertibility_lines(p) -> list:
    lines = [_banner("invertibility (%s mode)" % p["mode"])]
    lines += _subchannel_invertibility_lines(p["subchannels"])
    if "quantized" in p:
        lines.append(_banner("quantized at log2(P) = %s" % p["quantized"]["log2P"]))
        lines += _subchannel_invertibility_lines(p["quantized"]["subchannels"])
    return lines


def _separability_lines(p) -> list:
    lines = [_banner("separability")]
    for m, (res, leg) in enumerate(zip(p["per_subchannel"], p["invertibility"]),
                                   start=1):
        lines.append("sub-channel %d: %s = %s [%s]; TIN %s; invertibility: %s (%s)"
                     % (m, SUM_QUANTITY[p["mode"]], res["value"], res["label"],
                        "optimal" if res["tin"]["satisfied"] else "NOT optimal",
                        leg["status"], leg["method"]))
    lines.append("separated total: %s" % p["total"])
    if p["certified"]:
        lines += ["verdict: separable (certified)", "  %s" % p["justification"]]
    else:
        lines.append("verdict: not certified")
        lines += ["  - %s" % reason for reason in p["reasons"]]
    if "quantized" in p:
        quantized = p["quantized"]
        lines += [_banner("quantized at log2(P) = %s" % quantized["log2P"]),
                  "certified: %s, total %s"
                  % (quantized["certified"], quantized["total"])]
    return lines


def _demo_lines(p) -> list:
    """The walkthrough's narration; a demo payload exists only once every
    outcome it states has been checked."""
    ex1, ex2 = p["results"]["example1"], p["results"]["example2"]
    gap, lp = p["results"]["gap"], p["results"]["caution_lp"]
    lines = [_banner("demo 1: fully invertible parallel network")]
    lines += ["sub-channel %d: TIN optimal, sum-capacity %s, partition %s"
              % (m, res["value"], _partition(res["optimal_partition"]))
              for m, res in enumerate(ex1["per_subchannel"], start=1)]
    lines += ["total %s; separable (certified): every sub-channel invertible"
              % ex1["total"],
              _banner("demo 2: invertibility failure on one sub-channel")]
    *good, bad = ex2["invertibility"]
    lines.append("sub-channels 1-%d invertible; sub-channel %d NON-invertible"
                 % (len(good), bad["subchannel"]))
    for cert in bad["detail"]["certificates"]:
        lines += _certificate_lines(cert)
    rhs = {len(b["users"]): b["rhs"] for b in gap["bounds"]}
    split, ones = gap["split"], gap["ones"]
    lines += [
        "verdict: not certified",
        _banner("demo 3: combined region exceeds the per-sub-channel sum"),
        "epsilon = %s" % gap["epsilon"],
        "combined bounds: singletons %s, pairs %s, all %s" % (rhs[1], rhs[2], rhs[3]),
        "point %s: inside the combined region, yet NOT decomposable per "
        "sub-channel:" % _point(split["target"]),
    ]
    lines += ["  " + _cap_line(cap) for cap in split["caps"]]
    allocation = tuple(tuple(str(x) for x in chan) for chan in ones["allocation"])
    lines += [
        "point %s: decomposable, e.g. %s" % (_point(ones["target"]), allocation),
        _banner("demo 4: d >= 0 binds on a non-TIN sub-channel"),
        # cli.cmd_demo checks the sub-channel's TIN verdict and these bounds
        "sub-channel caution_lp() breaks the TIN condition; its 2-cycle bounds:",
        "  d1 + d2 <= 10, d1 + d3 <= 10, d2 + d3 <= 30",
        "cycle LP with d >= 0 : %s at %s" % (lp["nonneg"], _point(lp["nonneg_point"])),
        "cycle LP with d free : %s at %s" % (lp["free"], _point(lp["free_point"])),
        "on a strictly TIN-optimal sub-channel, dropping d >= 0 never",
        "changes the cycle-LP optimum.",
    ]
    return lines


_RENDERERS = {
    "check-tin": _check_tin_lines,
    "sum": _sum_lines,
    "region": _region_lines,
    "member": _member_lines,
    "combined-bounds": _combined_bounds_lines,
    "decompose": _decompose_lines,
    "invertibility": _invertibility_lines,
    "separability": _separability_lines,
    "demo": _demo_lines,
    "gap": lambda p: ["wrote gap network (epsilon = %s) to %s"
                      % (p["epsilon"], p["out"])],
}


def render_text(payload: dict) -> str:
    """The text form of a report, read from its payload alone.  A network
    document (no ``"command"`` key) is its own text form."""
    if "command" not in payload:
        return dumps_canonical(payload)
    return "".join(line + "\n" for line in _RENDERERS[payload["command"]](payload))
