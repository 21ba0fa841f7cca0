"""Unit tests for regions, combined bounds, and decomposability."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cycle_bound_rhs,
    full_decomposition,
    point_obeys_cycle_bounds,
    random_tin_network,
    subset_bounds,
)
from tinopt.cycles import cycle_count, enumerate_cycles
from tinopt.fixtures import example1, gap_network, gap_point
from tinopt import optimize
from tinopt.model import (ClampWarning, GuardError, InputError, Network, StrengthMatrix,
                          _rescaled, check_tin)
from tinopt.optimize import _cutting_plane_lp, _heaviest_cycles, network_sum, solve_cycle_lp
from tinopt.region import (
    RegionConstraint,
    combined_sum_bounds,
    region_contains,
    separate_tin_decomposable,
    tin_region,
)

STRICT = StrengthMatrix.from_values(
    "gdof", [[3, 1, 0], [0, 3, 1], [1, 0, 3]]
)

# ---------------------------------------------------------------------------
# single sub-channel regions
# ---------------------------------------------------------------------------


def test_tin_region_has_one_constraint_per_cycle():
    cons = tin_region(STRICT)
    assert len(cons) == cycle_count(3) == 8
    by_users = {}
    for con in cons:
        by_users.setdefault(con.users, []).append(con.rhs)
    assert by_users[(1,)] == [3]
    assert sorted(by_users[(1, 2, 3)]) == [6, 9]  # the two 3-cycles differ
    assert by_users[(1, 2)] == [5]


def _region_matrices(rng, k, mode):
    """A random K x K matrix in ``mode`` (gdof entries with denominators 1,
    2, 3 and 7 mixed), the same without cross links, and the same with one
    entry clamped from -1 (the desired link at K = 1)."""
    if mode == "gdof":
        draw = lambda: Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 7)))
    else:
        draw = lambda: rng.randint(0, 4)
    rows = [[draw() for _ in range(k)] for _ in range(k)]
    quiet = [[val if i == j else 0 for j, val in enumerate(row)]
             for i, row in enumerate(rows)]
    clamped = [row[:] for row in rows]
    clamped[k - 1][0] = -1
    with pytest.warns(ClampWarning):
        clamped = StrengthMatrix.from_values(mode, clamped)
    return [StrengthMatrix.from_values(mode, rows),
            StrengthMatrix.from_values(mode, quiet), clamped]


@pytest.mark.parametrize("mode", ["gdof", "deterministic"])
@pytest.mark.parametrize("k", range(1, 8))
def test_tin_region_matches_fraction_cycle_bounds(k, mode):
    # the integer pass against the Fraction reference, cycle by cycle: a
    # traversal read backwards changes the rhs of most 3-or-more cycles
    rng = random.Random("region/%s/%d" % (mode, k))
    for mat in _region_matrices(rng, k, mode):
        cons = tin_region(mat)
        assert [c.cycle for c in cons] == list(enumerate_cycles(k))
        for c in cons:
            assert type(c.rhs) is Fraction
            assert c.rhs == cycle_bound_rhs(c.cycle, mat)
            assert c.users == tuple(sorted(c.cycle.users))


def test_tin_region_rejects_an_oversized_common_denominator():
    # each entry is under MAX_RATIONAL_DIGITS, their common denominator
    # (about 2,000 digits) is not; load_network rejects such a network
    # before any analysis, so only library callers reach this
    big = 10 ** 999
    mat = StrengthMatrix(mode="gdof", entries=(
        (Fraction(3), Fraction(1, big + 1)),
        (Fraction(1, big + 2), Fraction(3)),
    ))
    with pytest.raises(InputError, match="common denominator"):
        tin_region(mat)
    with pytest.raises(InputError, match="common denominator"):
        combined_sum_bounds(Network(mode="gdof", matrices=(mat,)))
    with pytest.raises(InputError, match="common denominator"):
        check_tin(mat)


def test_region_constraint_str_and_eval():
    con = next(c for c in tin_region(STRICT) if c.users == (1, 2))
    assert str(con) == "d1 + d2 <= 5"
    assert con.evaluate((1, 2, 100)) == 3
    assert con.holds((1, 2, 100))
    assert not con.holds((3, 3, 0))


def test_tin_region_shares_each_bound_in_immutable_records():
    # one Fraction per distinct bound at K = 8 (16,072 cycles); each record
    # still behaves as a frozen value with the same str, evaluate and holds
    rng = random.Random("region/shared")
    mat = StrengthMatrix.from_values("gdof", [
        [Fraction(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(8)]
        for _ in range(8)])
    cons = tin_region(mat)
    assert len(cons) == cycle_count(8)
    assert len({id(c.rhs) for c in cons}) == len({c.rhs for c in cons}) < len(cons)
    point = tuple(rng.randint(0, 9) for _ in range(8))
    for con in cons:
        total = sum(point[k - 1] for k in con.users)
        assert str(con) == "%s <= %s" % (" + ".join("d%d" % k for k in con.users),
                                         con.rhs)
        assert type(con.evaluate(point)) is Fraction
        assert con.evaluate(point) == total
        assert con.holds(point) is (total <= con.rhs)
        twin = RegionConstraint(users=con.users, rhs=con.rhs, cycle=con.cycle)
        assert con == twin and hash(con) == hash(twin)
    assert RegionConstraint((1,), Fraction(2)).cycle is None
    con = cons[-1]
    for field in ("users", "rhs", "cycle"):
        with pytest.raises(AttributeError):
            setattr(con, field, None)
    assert con.users == tuple(sorted(con.cycle.users))


def test_region_contains_verdicts():
    cons = tin_region(STRICT)
    ok = region_contains(cons, (2, 2, 2))
    assert ok.inside and bool(ok)
    assert ok.violated == () and ok.negative_users == ()

    out = region_contains(cons, (3, 3, 0))
    assert not out.inside
    assert [c.users for c in out.violated] == [(1, 2)]

    neg = region_contains(cons, ("-1", 1, 1))
    assert not neg.inside and neg.negative_users == (1,)

    for users in (3, None):
        with pytest.raises(InputError, match="point has 2 coordinates, "
                                             "expected 3"):
            region_contains(cons, (1, 2), users=users)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_membership_agrees_with_direct_bound_scan(seed):
    rng = random.Random(seed)
    net = random_tin_network(rng, rng.randint(2, 4), 1, mode="gdof")
    mat = net.matrices[0]
    cons = tin_region(mat)
    k = mat.users
    point = tuple(Fraction(rng.randint(0, 6), 2) for _ in range(k))
    expect = point_obeys_cycle_bounds(mat, point, enumerate_cycles(k))
    assert region_contains(cons, point).inside == expect


# ---------------------------------------------------------------------------
# combined bounds
# ---------------------------------------------------------------------------


def test_combined_bounds_example1_values():
    bounds = combined_sum_bounds(example1())
    assert bounds.users == 3
    assert len(bounds.bounds) == 7  # every nonempty subset
    assert bounds.bound([1]) == 9
    assert bounds.bound([2]) == 9
    assert bounds.bound([3]) == 9
    assert bounds.bound([1, 2]) == 13   # 5 + 4 + 4
    assert bounds.bound([1, 3]) == 14   # 4 + 4 + 6
    assert bounds.bound([2, 3]) == 13   # 4 + 5 + 4
    assert bounds.bound([3, 1]) == 14   # order/duplicates don't matter
    assert bounds.bound((1, 2, 3)) == 18
    with pytest.raises(InputError):
        bounds.bound([1, 4])


def test_combined_bounds_gap_network():
    eps = Fraction(1, 10)
    bounds = combined_sum_bounds(gap_network(eps))
    for subset, rhs in bounds.bounds.items():
        if len(subset) == 1:
            assert rhs == 2
        elif len(subset) == 2:
            assert rhs == Fraction(5, 2) + eps
        else:
            assert rhs == 3


def test_combined_bounds_membership():
    bounds = combined_sum_bounds(gap_network(Fraction(1, 10)))
    assert bounds.contains(gap_point()).inside
    assert not bounds.contains((2, 2, 0)).inside        # pair 4 > 13/5
    assert bounds.contains((1, 1, 1)).inside
    cons = bounds.as_constraints()
    assert len(cons) == 7 and all(c.cycle is None for c in cons)


def test_combined_bounds_single_channel_match_subset_sums():
    # with one sub-channel the full-set bound is just that channel's optimum
    net = Network(mode="gdof", matrices=(STRICT,))
    bounds = combined_sum_bounds(net)
    assert bounds.bound([1, 2, 3]) == 6
    assert bounds.bound([1]) == 3


MIXED = (1, Fraction(1, 2), Fraction(1, 3), Fraction(5, 7))


def _dp_matrix(rng, k, kind):
    """A K x K matrix for the subset-DP tests: ``kind`` is "gdof" (entries
    with the mixed denominators of MIXED), "det" (cross links in {0, 1, 2})
    or "equal" (every cross link the same)."""
    if kind == "gdof":
        draw = lambda i, j: rng.randint(0, 6) * rng.choice(MIXED)
    elif kind == "det":
        draw = lambda i, j: rng.randint(0, 4) if i == j else rng.randint(0, 2)
    else:
        cross, desired = rng.randint(0, 3), rng.randint(0, 6)
        draw = lambda i, j: desired if i == j else cross
    mode = "gdof" if kind == "gdof" else "deterministic"
    return StrengthMatrix(mode=mode, entries=tuple(
        tuple(Fraction(draw(i, j)) for j in range(k)) for i in range(k)))


@pytest.mark.parametrize("kind", ["gdof", "det", "equal"])
@pytest.mark.parametrize("k", range(1, 7))
def test_combined_bounds_match_partition_oracle(k, kind):
    rng = random.Random("%s/%d" % (kind, k))
    for m in (1, 2, 3):
        mats = tuple(_dp_matrix(rng, k, kind) for _ in range(m))
        net = Network(mode=mats[0].mode, matrices=mats)
        bounds = combined_sum_bounds(net)
        expected = subset_bounds(net)
        assert list(bounds.bounds.items()) == list(expected.items())
        assert bounds.bound(range(1, k + 1)) == network_sum(net).total


@pytest.mark.parametrize("kind", ["gdof", "det", "equal"])
@pytest.mark.parametrize("k", range(1, 7))
def test_subset_dp_cycles_match_cycle_enumeration(k, kind):
    mat = _dp_matrix(random.Random("cycles/%s/%d" % (kind, k)), k, kind)
    scale, flat = mat.scaled
    cycles = _heaviest_cycles(flat, k)
    heaviest = {}
    for cyc in enumerate_cycles(k):
        mask = sum(1 << (u - 1) for u in cyc.users)
        heaviest[mask] = max(heaviest.get(mask, 0), cyc.weight(mat))
    assert len(cycles) == 1 << k and cycles[0] == 0
    assert {mask: Fraction(cycles[mask], scale)
            for mask in range(1, 1 << k)} == heaviest


# ---------------------------------------------------------------------------
# decomposability
# ---------------------------------------------------------------------------


def test_gap_point_is_not_decomposable_but_ones_are():
    net = gap_network(Fraction(1, 10))
    split = separate_tin_decomposable(net, gap_point())
    assert not split.feasible and not bool(split)
    assert split.allocation is None
    caps = {c.user: c.cap for c in split.caps}
    # users 2 and 3 are pinned to 2 * eps once the others hit their targets
    assert caps[2] == Fraction(1, 5)
    assert caps[3] == Fraction(1, 5)
    for cap in split.caps:
        assert cap.cap < cap.target

    ok = separate_tin_decomposable(net, (1, 1, 1))
    assert ok.feasible
    for chan, mat in zip(ok.allocation, net.matrices):
        assert all(x >= 0 for x in chan)
        assert point_obeys_cycle_bounds(mat, chan, enumerate_cycles(3))
    totals = [sum(chan[u] for chan in ok.allocation) for u in range(3)]
    assert totals == [1, 1, 1]


# the equality rows leave only the reference rows in the seed
_REFS = [(1, 0), (2, 0), (3, 0)]
_RING = [(1, 2), (2, 3), (3, 1)]


@pytest.mark.parametrize("point, status, working, rounds, pivots", [
    (gap_point(), "infeasible",
     [_REFS + _RING, _REFS + [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1)]], 6, 10),
    ((1, 1, 1), "optimal", [_REFS + _RING, _REFS], 2, 6),
], ids=["gap-point", "ones"])
def test_decomposition_lp_counters_are_pinned(point, status, working, rounds,
                                              pivots):
    # the joint LP of a decomposition is the one LP with equality rows (the
    # user totals), each made basic by one pivot before the dual simplex,
    # and cuts; pin its path on gap_network
    net = gap_network()
    target = tuple(Fraction(t) for t in point)
    scale, flats, totals = _rescaled(net.matrices, target)
    fixed = list(enumerate(totals))
    res = _cutting_plane_lp(flats, scale, [0] * 6, fixed)
    assert res[0] == status
    assert res[4:] == (working, rounds, pivots)


def test_decompose_single_channel_reduces_to_membership():
    net = Network(mode="gdof", matrices=(STRICT,))
    res = separate_tin_decomposable(net, (2, 2, 2))
    assert res.feasible and res.allocation == ((2, 2, 2),)
    res = separate_tin_decomposable(net, (3, 3, 0))
    assert not res.feasible
    assert all(c.cap < c.target for c in res.caps)


def test_decompose_validates_point_length():
    net = gap_network()
    with pytest.raises(InputError):
        separate_tin_decomposable(net, (1, 1))


class _Forbidden(Exception):
    """Raised by a stand-in for a function that must not run."""


def _forbid(*args):
    raise _Forbidden


def test_cycle_lps_guard_before_any_simplex(monkeypatch):
    # no per-subset table trips the guard any more: at K = 10 the explicit
    # check must come before the first LP
    monkeypatch.setattr(optimize, "_simplex", _forbid)
    mat = StrengthMatrix.from_values(
        "gdof", [[2 if i == j else 0 for j in range(10)] for i in range(10)])
    with pytest.raises(GuardError):
        solve_cycle_lp(mat)
    with pytest.raises(GuardError):
        separate_tin_decomposable(Network("gdof", (mat, mat)), [0] * 10)


def test_sum_and_decompose_build_no_subset_table(monkeypatch):
    # the Held-Karp table serves the combined bounds only
    monkeypatch.setattr(optimize, "_heaviest_cycles", _forbid)
    assert network_sum(example1()).total == 18
    net = gap_network()
    assert separate_tin_decomposable(net, (1, 1, 1)).feasible
    split = separate_tin_decomposable(net, gap_point())
    assert {c.user: c.cap for c in split.caps}[2] == Fraction(1, 5)
    with pytest.raises(_Forbidden):
        combined_sum_bounds(net)


@pytest.mark.parametrize("second, point", [
    ([[3, 1], [1, 3]], (10, 10)),       # each user reaches at most 6
    ([[1, 5], [5, 1]], (0, 0)),         # empty region: d1 + d2 <= -8
], ids=["targets-too-high", "empty-region"])
def test_negative_decomposition_may_have_no_cap(second, point):
    net = Network("deterministic", (
        StrengthMatrix.from_values("deterministic", [[3, 1], [1, 3]]),
        StrengthMatrix.from_values("deterministic", second)))
    res = separate_tin_decomposable(net, point)
    assert not res.feasible and res.caps == ()
    assert full_decomposition(net, point) == (False, {})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_decomposition_allocations_always_verify(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    net = random_tin_network(rng, k, rng.randint(2, 3), mode="gdof")
    bounds = combined_sum_bounds(net)
    # scale the full-set bound down to get a plausibly decomposable target
    total = bounds.bound(range(1, k + 1))
    target = tuple(total / (2 * k) for _ in range(k))
    res = separate_tin_decomposable(net, target)
    if res.feasible:
        for chan, mat in zip(res.allocation, net.matrices):
            assert all(x >= 0 for x in chan)
            assert point_obeys_cycle_bounds(mat, chan, enumerate_cycles(k))
        for u in range(k):
            assert sum(chan[u] for chan in res.allocation) == target[u]
    else:
        assert all(c.cap < c.target for c in res.caps)


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 5)])
def test_decomposition_matches_full_lp_on_gap_family(eps):
    net = gap_network(eps)
    points = [gap_point(), (1, 1, 1), (2, 0, 0), (1, 1, 0), (2, 1, 0),
              (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)),
              (1, Fraction(3, 4), Fraction(3, 4)), (0, 0, 3)]
    verdicts = set()
    for point in points:
        res = separate_tin_decomposable(net, point)
        feasible, caps = full_decomposition(net, point)
        assert res.feasible == feasible
        assert {c.user: c.cap for c in res.caps} == caps
        verdicts.add(feasible)
    assert verdicts == {True, False}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_decomposition_matches_full_lp_on_random_networks(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    net = random_tin_network(rng, k, rng.randint(2, 3), mode="gdof")
    point = tuple(Fraction(rng.randint(0, 12), rng.choice((1, 2, 4)))
                  for _ in range(k))
    res = separate_tin_decomposable(net, point)
    feasible, caps = full_decomposition(net, point)
    assert res.feasible == feasible
    assert {c.user: c.cap for c in res.caps} == caps


def test_gap_scales_with_epsilon():
    # the cap certificates track the parameter: cap = 2 * eps for users 2, 3
    for eps in (Fraction(1, 8), Fraction(1, 5)):
        split = separate_tin_decomposable(gap_network(eps), gap_point())
        assert not split.feasible
        caps = {c.user: c.cap for c in split.caps}
        assert caps[2] == 2 * eps and caps[3] == 2 * eps
