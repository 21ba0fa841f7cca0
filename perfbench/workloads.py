"""The four benchmark workloads: what each pass runs and how each output is
checked.

A pass is a fixed list of operation shapes (subcommand, K, M, variant) whose
matrices are drawn from a seeded ``random.Random``; a run repeats passes, so
every run sees the same mix of shapes and only the drawn values differ.
Checks recompute every verified quantity with ``reference`` and never reuse
the route under test.  They read only report fields that the program keeps
stable (values, verdicts, bounds, certificates), not per-method key names
or which decomposition allocation is returned.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

import generators as gen
import reference as ref


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def expect(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)


@dataclass
class Op:
    """One operation: a CLI call (``argv``, with ``NET`` standing for the
    network file) or, when ``argv`` is None, the library scheme sweep."""

    mode: str
    mats: list              # exact matrices, m[rx][tx]
    argv: "tuple | None"
    check: object           # check(op, rc, out, result) -> None
    extra: dict = field(default_factory=dict)

    @property
    def users(self):
        return len(self.mats[0])

    @property
    def subcommand(self):
        return self.argv[0] if self.argv else "best_tin_scheme"

    def document(self):
        return gen.to_document(self.mode, self.mats)


NET = "{network}"


def _payload(rc, out, want_rc=(0,)):
    expect(rc in want_rc, "exit code %s, expected one of %s", rc, want_rc)
    return json.loads(out)


# ---------------------------------------------------------------------------
# sum-corpus: sum (gdof) and separability (deterministic)
# ---------------------------------------------------------------------------

def _check_sums(op, per, total, total_label):
    expect(len(per) == len(op.mats), "%d sub-channel results for M=%d",
           len(per), len(op.mats))
    want_total = Fraction(0)
    for m, res in zip(op.mats, per):
        want = ref.partition_value(m)
        got = ref.frac(res["value"])
        expect(got == want, "sub-channel value %s, permutation scan %s", got, want)
        exact = ref.tin_satisfied(m)
        expect((res["label"] == "exact") == exact,
               "label %r but TIN satisfied=%s", res["label"], exact)
        want_total += want
    expect(ref.frac(total) == want_total, "total %s, expected %s", total, want_total)
    all_tin = all(ref.tin_satisfied(m) for m in op.mats)
    expect((total_label == "exact") == all_tin, "total label %r", total_label)


def check_sum(op, rc, out, result):
    p = _payload(rc, out)
    _check_sums(op, p["per_subchannel"], p["total"], p["label"])


def check_separability(op, rc, out, result):
    p = _payload(rc, out, (0, 1))
    expect((rc == 0) == p["certified"], "exit %s with certified=%s", rc, p["certified"])
    _check_sums(op, p["per_subchannel"], p["total"], p["total_label"])
    if len(op.mats) == 1:
        expect(p["certified"], "a single sub-channel is separable trivially")
    elif not all(ref.tin_satisfied(m) for m in op.mats):
        expect(not p["certified"], "certified although TIN fails")


def sum_op(mode, mats):
    if mode == "gdof":
        return Op(mode, mats, ("sum", "--json", NET), check_sum)
    return Op(mode, mats, ("separability", "--json", NET), check_separability)


def _sum_mats(rng, counter, k, m, mode):
    """Every fourth sub-channel violates TIN, every eighth so badly that
    its cycle LP is infeasible; the rest are strictly TIN."""
    mats = []
    for _ in range(m):
        c = next(counter)
        if c % 4 == 3:
            mats.append(gen.tin_violating(rng, k, infeasible=c % 8 == 7))
        else:
            mats.append(gen.strict_tin(rng, k))
    return gen.as_real(mode, mats)


def sum_corpus_pass(rng):
    """K 2..5 at M 1..4 and K=6 at M 1..2 in both modes, K=7 and K=8 gdof at
    M=1, a block of gdof K=5, M=4 sums at p90, and a block of deterministic
    K=3, M=4 separability calls at the median.  Each block operation has
    exactly one TIN-violating sub-channel and averages four cycle LPs, so
    its cost varies less than that of one larger LP, and a block of one
    shape and mode is not split into a cheap and a costly half."""
    counter = itertools.count()
    shapes = [("gdof", 8, 1), ("gdof", 7, 1)]
    for k in range(2, 7):
        for m in range(1, 5 if k < 6 else 3):
            shapes.append(("gdof", k, m))
            shapes.append(("deterministic", k, m))
    shapes += [("gdof", 5, 4)] * 8
    shapes += [("deterministic", 3, 4)] * 30
    return [sum_op(mode, _sum_mats(rng, counter, k, m, mode))
            for mode, k, m in shapes]


def sum_corpus_warm(subcommand, k):
    mode = "gdof" if subcommand == "sum" else "deterministic"
    return sum_op(mode, gen.as_real(mode, [gen.ring(k)]))


# ---------------------------------------------------------------------------
# det-ties: combined bounds, invertibility, scheme sweep
# ---------------------------------------------------------------------------

def check_combined(op, rc, out, result):
    p = _payload(rc, out)
    k = op.users
    bounds = {tuple(b["users"]): ref.frac(b["rhs"]) for b in p["bounds"]}
    expect(len(bounds) == 2 ** k - 1, "%d subset bounds for K=%d", len(bounds), k)
    for subset in op.extra["subsets"]:
        want = ref.subset_bound(op.mats, [u - 1 for u in subset])
        expect(bounds[subset] == want, "bound of %s is %s, expected %s",
               subset, bounds[subset], want)


def _perm_of(predecessors):
    """0-based predecessor permutation from a report's predecessor list."""
    return tuple(p - 1 if p else u for u, p in enumerate(predecessors))


def check_invertibility(op, rc, out, result):
    p = _payload(rc, out, (0, 1))
    expect((rc == 0) == p["invertible"], "exit %s with invertible=%s",
           rc, p["invertible"])
    expect(len(p["subchannels"]) == len(op.mats), "wrong sub-channel count")
    for m, sub in zip(op.mats, p["subchannels"]):
        best, ties = ref.best_permutations(m)
        certs = sub["certificates"]
        expect(len(certs) == ties, "%d tied partitions, permutation scan has %d",
               len(certs), ties)
        perms = {_perm_of(c["partition"]["predecessors"]) for c in certs}
        expect(len(perms) == len(certs), "repeated partition")
        for perm in perms:
            w = sum(m[perm[c]][c] for c in range(len(m)) if perm[c] != c)
            expect(w == best, "partition %s has weight %s < %s", perm, w, best)
        for c in certs:
            expect(c["invertible"] == (c["rank"] == c["participating_bits"]),
                   "rank %s of %s bits but invertible=%s", c["rank"],
                   c["participating_bits"], c["invertible"])
        expect(sub["invertible"] == any(c["invertible"] for c in certs),
               "sub-channel verdict disagrees with its certificates")


def check_scheme(op, rc, out, result):
    total = 0
    for m, scheme in zip(op.mats, result):
        expect(scheme.found, "no TIN scheme on a strict-TIN sub-channel")
        expect(sum(scheme.rates) == scheme.sum_rate, "rates do not add up")
        expect(ref.scheme_feasible(m, scheme.rates, scheme.powers),
               "scheme %s / %s infeasible", scheme.rates, scheme.powers)
        total += scheme.sum_rate
    want = sum(ref.partition_value(m) for m in op.mats)
    expect(total == want, "scheme sum-rate %s, combined full-set bound %s",
           total, want)


def det_ops(mats, subsets):
    """The three det-ties operations on one network; ``subsets`` are the
    combined bounds the check recomputes."""
    return [
        Op("deterministic", mats, ("combined-bounds", "--json", NET),
           check_combined, {"subsets": subsets}),
        Op("deterministic", mats, ("invertibility", "--json", NET),
           check_invertibility),
        Op("deterministic", mats, None, check_scheme),
    ]


def det_ties_pass(rng):
    """K 5..8 at M 1..4, K=9 at M=1 and 24 small networks (K 5..6), each
    with all three operations, plus eight invertibility calls on K=8, M=4
    networks: the p90 block, where tie enumeration and GF(2) do the work."""
    shapes = [(9, 1)]
    shapes += [(8, m) for m in range(1, 5)]
    shapes += [(k, m) for k in range(5, 8) for m in range(1, 5)]
    shapes += [(5, 1), (5, 2), (5, 3), (5, 4), (6, 1), (6, 2)] * 4
    ops = []
    for k, m in shapes:
        mats = [gen.tied(rng, k) for _ in range(m)]
        full = tuple(range(1, k + 1))
        subsets = [full] + [tuple(sorted(rng.sample(full, rng.randint(1, k - 1))))
                            for _ in range(3)]
        ops += det_ops(mats, subsets)
    for _ in range(8):
        mats = [gen.tied(rng, 8) for _ in range(4)]
        ops.append(next(op for op in det_ops(mats, []) if op.subcommand == "invertibility"))
    return ops


def det_ties_warm(subcommand, k):
    ops = det_ops([gen.ring(k)], [tuple(range(1, k + 1))])
    return next(op for op in ops if op.subcommand == subcommand)


# ---------------------------------------------------------------------------
# decompose-mix: positive splits, combined-bound breakers, the gap family
# ---------------------------------------------------------------------------

def check_decompose(op, rc, out, result):
    feasible = op.extra["feasible"]
    p = _payload(rc, out, (0,) if feasible else (1,))["decomposition"]
    target = op.extra["target"]
    expect(p["feasible"] == feasible, "verdict %s, known answer %s",
           p["feasible"], feasible)
    expect([ref.frac(t) for t in p["target"]] == list(target), "target echoed wrong")
    if feasible:
        alloc = [[ref.frac(x) for x in chan] for chan in p["allocation"]]
        expect(len(alloc) == len(op.mats), "allocation has wrong sub-channel count")
        for u in range(op.users):
            got = sum(chan[u] for chan in alloc)
            expect(got == target[u], "user %d split sums to %s, not %s",
                   u + 1, got, target[u])
        for m, chan in zip(op.mats, alloc):
            expect(min(chan) >= 0, "negative share %s", chan)
            for cyc in ref.cycles(op.users):
                expect(sum(chan[u] for u in cyc) <= ref.cycle_rhs(m, cyc),
                       "share %s breaks cycle bound %s", chan, cyc)
    else:
        for cap in p["caps"]:
            u = cap["user"]
            expect(ref.frac(cap["target"]) == target[u - 1], "cap target wrong")
            expect(ref.frac(cap["cap"]) < target[u - 1],
                   "cap %s of user %d not below target %s", cap["cap"], u,
                   target[u - 1])


def decompose_op(mats, target, feasible):
    point = ",".join(str(gen.json_value(t)) for t in target)
    return Op("gdof", mats, ("decompose", "--json", NET, "--point", point),
              check_decompose, {"target": tuple(target), "feasible": feasible})


def _breaker(rng, mats):
    """A target above the combined sum bound of a drawn user subset."""
    target = list(gen.decomposable_target(mats))
    k = len(target)
    subset = sorted(rng.sample(range(k), rng.randint(1, k)))
    excess = ref.subset_bound(mats, subset) - sum(target[u] for u in subset)
    target[rng.choice(subset)] += excess + gen.GDOF_UNIT
    return target


def decompose_mix_pass(rng):
    """One positive and one negative target per shape.  The extra K=6, M=2
    and K=5, M=4 pairs put a dense class at p90, the extra K=4, M=2 pairs
    one at p50."""
    shapes = [(3, 2), (3, 4), (3, 8), (4, 2), (4, 4), (4, 8),
              (5, 2), (5, 4), (6, 2), (6, 3), (6, 4)]
    shapes += [(6, 2), (5, 4)] * 3
    shapes += [(4, 2)] * 21
    ops = []
    for k, m in shapes:
        mats = gen.as_real("gdof", [gen.strict_tin(rng, k) for _ in range(m)])
        ops.append(decompose_op(mats, gen.decomposable_target(mats), True))
        mats = gen.as_real("gdof", [gen.strict_tin(rng, k) for _ in range(m)])
        ops.append(decompose_op(mats, _breaker(rng, mats), False))
    for _ in range(4):
        mats = gen.as_real("gdof", gen.gap(Fraction(rng.randint(1, 24), 100)))
        ops.append(decompose_op(mats, gen.GAP_POINT, False))
        ops.append(decompose_op(mats, gen.GAP_SPLIT, True))
    return ops


def decompose_mix_warm(subcommand, k):
    mats = gen.as_real("gdof", [gen.ring(k)])
    return decompose_op(mats, gen.decomposable_target(mats), True)


# ---------------------------------------------------------------------------
# region-render: every cycle bound, as JSON and as text
# ---------------------------------------------------------------------------

_TEXT_BOUND = re.compile(r"<= (\S+)\s+\[cycle \(([\d,]+)\)\]")


def _check_bound(m, users, rhs, cycle):
    cyc = tuple(u - 1 for u in cycle)
    expect(sorted(users) == sorted(u + 1 for u in cyc), "users %s for cycle %s",
           users, cycle)
    want = ref.cycle_rhs(m, cyc)
    expect(ref.frac(rhs) == want, "cycle %s rhs %s, expected %s", cycle, rhs, want)


def check_region_json(op, rc, out, result):
    p = _payload(rc, out)
    count = ref.cycle_count(op.users)
    expect(len(p["subchannels"]) == len(op.mats), "wrong sub-channel count")
    for m, cons in zip(op.mats, p["subchannels"]):
        expect(len(cons) == count, "%d constraints, closed form %d", len(cons), count)
        expect(len({tuple(c["cycle"]) for c in cons}) == count, "repeated cycle")
        for i in op.extra["sample"]:
            c = cons[i % count]
            _check_bound(m, c["users"], c["rhs"], c["cycle"])


def check_region_text(op, rc, out, result):
    expect(rc == 0, "exit code %s", rc)
    lines = [line for line in out.splitlines() if "<=" in line]
    count = ref.cycle_count(op.users)
    expect(len(lines) == count * len(op.mats), "%d bound lines, closed form %d x %d",
           len(lines), count, len(op.mats))
    for ch, m in enumerate(op.mats):
        for i in op.extra["sample"]:
            line = lines[ch * count + i % count]
            found = _TEXT_BOUND.search(line)
            expect(found is not None, "unparsable bound line %r", line)
            cycle = [int(u) for u in found.group(2).split(",")]
            users = [int(u) for u in re.findall(r"d(\d+)", line.split("<=")[0])]
            _check_bound(m, users, found.group(1), cycle)


def region_op(mats, as_json, sample):
    if as_json:
        return Op("gdof", mats, ("region", "--json", NET), check_region_json,
                  {"sample": sample})
    return Op("gdof", mats, ("region", NET), check_region_text, {"sample": sample})


def region_render_pass(rng):
    """K=8 and K=7 at M=2 above p90, a block of K=7, M=1 at p90, and K 5..6
    at M 1..2 below it."""
    both = (True, False)
    shapes = [(8, 1, j) for j in both] + [(7, 2, j) for j in both]
    shapes += [(7, 1, j) for _ in range(4) for j in both]
    shapes += [(k, m, j) for _ in range(6) for k in (5, 6) for m in (1, 2)
               for j in both]
    ops = []
    for k, m, as_json in shapes:
        mats = gen.as_real("gdof", [gen.strict_tin(rng, k) for _ in range(m)])
        sample = [rng.randrange(1 << 30) for _ in range(16)]
        ops.append(region_op(mats, as_json, sample))
    return ops


def region_render_warm(subcommand, k):
    return region_op(gen.as_real("gdof", [gen.ring(k)]), True, list(range(16)))


# name -> (operations of one pass, warm-up operation for a subcommand and K)
WORKLOADS = {
    "sum-corpus": (sum_corpus_pass, sum_corpus_warm),
    "det-ties": (det_ties_pass, det_ties_warm),
    "decompose-mix": (decompose_mix_pass, decompose_mix_warm),
    "region-render": (region_render_pass, region_render_warm),
}
