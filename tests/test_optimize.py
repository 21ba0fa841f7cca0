"""Unit and property tests for the exact solvers.

The simplex is checked against brute-force vertex enumeration, the
Hungarian method against permutation scans, and the cutting-plane cycle LP
against the partition bounds (plus direct feasibility of its points).
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    best_tin_scheme_sweep,
    brute_min_assignment,
    full_cycle_lp,
    heaviest_partitions,
    heaviest_permutations,
    point_obeys_cycle_bounds,
    random_det_matrix,
    random_gdof_matrix,
    random_strict_tin_matrix,
    vertex_lp_oracle,
)
from tinopt.cycles import (
    CyclicPartition,
    enumerate_cycles,
    enumerate_partitions,
)
from tinopt.detmodel import best_tin_scheme, tin_feasible
from tinopt.fixtures import caution_lp, example1
from tinopt.model import (
    CrossCheckError,
    GuardError,
    InputError,
    Network,
    StrengthMatrix,
    check_tin,
)
from tinopt.optimize import (
    BOUND_ONLY_LABEL,
    TIE_GUARD,
    LinearProgram,
    _heaviest_permutations,
    _Tableau,
    _ties,
    all_optimal_partitions,
    best_partition_assignment,
    brute_force_best_weight,
    min_cost_assignment,
    network_sum,
    nonnegativity_redundancy_check,
    optimal_partition,
    solve_cycle_lp,
    solve_lp,
    sum_gdof,
)

# ---------------------------------------------------------------------------
# plain simplex
# ---------------------------------------------------------------------------


def test_lp_build_validation():
    with pytest.raises(InputError):
        LinearProgram.build([1, 1], [([1], "<=", 2)])
    with pytest.raises(InputError):
        LinearProgram.build([1], [([1], "<", 2)])
    with pytest.raises(InputError):
        LinearProgram.build([1, 1], [], nonneg=(True,))
    with pytest.raises(InputError):
        LinearProgram.build([1], [([2], "=", 3)])
    # numbers are read by as_rational: a float through its decimal form,
    # a bool, a non-number or a NaN as an input error
    assert solve_lp(LinearProgram.build([0.1], [([1], "<=", 1)])).value == Fraction(1, 10)
    assert LinearProgram.build([1], [([0.5], ">=", "1/3")]).constraints == (
        ((Fraction(1, 2),), ">=", Fraction(1, 3)),)
    # (none of them is a channel strength, and no message calls it one)
    for objective, constraints in (([True], [([1], "<=", 1)]), (["x"], []),
                                   ([1], [([1], "<=", float("nan"))]),
                                   ([1], [([False], "<=", 1)]), ([True], []),
                                   ([object()], []), ([1], [([1], "<=", True)])):
        with pytest.raises(InputError) as exc:
            LinearProgram.build(objective, constraints)
        assert "strength" not in str(exc.value)
    with pytest.raises(InputError, match="^boolean is not a valid rational: True$"):
        LinearProgram.build([True], [])


def test_caution_lp_both_ways():
    # the caution sub-channel's 2-cycle bounds as a general LP: solve_lp
    # and the cycle LP agree with and without nonnegativity
    for nonneg, value, point in ((True, 20, (0, 10, 10)), (False, 25, (-5, 15, 15))):
        lp = LinearProgram.build(
            [1, 1, 1],
            [([1, 1, 0], "<=", 10), ([1, 0, 1], "<=", 10), ([0, 1, 1], "<=", 30)],
            nonneg=nonneg)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == value and sol.point == point
        cycle = solve_cycle_lp(caution_lp(), nonneg=nonneg)
        assert (cycle.value, cycle.point) == (value, point)


def test_lp_infeasible_and_unbounded():
    lp = LinearProgram.build([1], [([1], ">=", 2), ([1], "<=", 1)])
    assert solve_lp(lp).status == "infeasible"
    lp = LinearProgram.build([1], [([1], ">=", 0)], nonneg=False)
    assert solve_lp(lp).status == "unbounded"
    lp = LinearProgram.build([1], [])
    assert solve_lp(lp).status == "unbounded"


def test_lp_equalities_and_negative_rhs():
    lp = LinearProgram.build(
        [1, 2],
        [([1, 1], "==", 4), ([1, -1], "<=", -2)],  # x - y <= -2
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 8 and sol.point == (0, 4)


def test_tableau_rows_each_get_a_slack_and_an_equality_fails_loudly():
    tab = _Tableau([({0: 1, 1: 2}, "<=", 4), ({1: 1}, ">=", 1)], 2)
    assert tab.basis == [2, 3] and tab.rows == [[1, 2, 1, 0, 4], [0, -1, 0, 1, -1]]
    with pytest.raises(KeyError):
        _Tableau([({0: 1}, "==", 1)], 1)


@pytest.mark.parametrize("objective, constraints, status", [
    ([1, 1], [([1, 1], "==", 3), ([2, 2], "==", 6), ([1, 0], "<=", 2)],
     "optimal"),
    ([1, 1], [([1, 1], "==", 3), ([2, 2], "==", 7)], "infeasible"),
    ([-1, -1, -1],
     [([1, 1, 0], ">=", 2), ([1, 0, 1], ">=", 2), ([0, 1, 1], ">=", 2),
      ([1, 1, 1], ">=", 3), ([1, 0, 0], "<=", 4), ([0, 1, 0], "<=", 4),
      ([0, 0, 1], "<=", 4)],
     "optimal"),
], ids=["redundant", "contradicting", "degenerate-start"])
def test_lp_degenerate_redundant_equalities(objective, constraints, status):
    # solve_lp splits each "==" row into a "<=" and a ">=" row: a dependent
    # pair is redundant when it agrees with the rows before it and makes
    # the LP infeasible otherwise; four ">=" rows through (1, 1, 1), none of
    # which the origin obeys, leave the dual simplex a degenerate start
    lp = LinearProgram.build(objective, constraints)
    sol = solve_lp(lp)
    assert sol.status == status
    assert (sol.status, sol.value) == vertex_lp_oracle(lp)


def test_lp_exactness_no_floats():
    lp = LinearProgram.build(
        ["1/3", "1/7"],
        [(["2/3", "1/7"], "<=", "5/21"), ([1, 0], "<=", "1/5")],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert isinstance(sol.value, Fraction)
    lhs = Fraction(2, 3) * sol.point[0] + Fraction(1, 7) * sol.point[1]
    assert lhs <= Fraction(5, 21)


def _random_boxed_lp(rng, nvars, free=False):
    constraints = []
    for j in range(nvars):
        axis = [Fraction(0)] * nvars
        axis[j] = Fraction(1)
        constraints.append((list(axis), "<=", Fraction(rng.randint(1, 6))))
        if free:
            low = [Fraction(0)] * nvars
            low[j] = Fraction(1)
            constraints.append((low, ">=", Fraction(-rng.randint(1, 6))))
    for _ in range(rng.randint(1, 4)):
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(nvars)]
        rel = rng.choice(("<=", "<=", ">=", "=="))
        rhs = Fraction(rng.randint(-2, 8), rng.choice((1, 2)))
        constraints.append((coeffs, rel, rhs))
    objective = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(nvars)]
    return LinearProgram.build(objective, constraints, nonneg=not free)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_simplex_matches_vertex_enumeration(seed, nvars):
    rng = random.Random(seed)
    lp = _random_boxed_lp(rng, nvars, free=False)
    status, value = vertex_lp_oracle(lp)
    sol = solve_lp(lp)
    assert sol.status == status
    if status == "optimal":
        assert sol.value == value
        # the returned point must itself be feasible and attain the value
        for coeffs, rel, rhs in lp.constraints:
            lhs = sum((c * x for c, x in zip(coeffs, sol.point)), Fraction(0))
            assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[rel]
        assert all(x >= 0 for x in sol.point)
        obj = sum((o * x for o, x in zip(lp.objective, sol.point)), Fraction(0))
        assert obj == value


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_simplex_matches_vertex_enumeration_free_vars(seed, nvars):
    rng = random.Random(seed)
    lp = _random_boxed_lp(rng, nvars, free=True)
    status, value = vertex_lp_oracle(lp)
    sol = solve_lp(lp)
    assert sol.status == status
    if status == "optimal":
        assert sol.value == value


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------


def test_min_cost_assignment_small_cases():
    total, assign = min_cost_assignment([[1, 2], [2, 4]])
    assert total == 4 and assign == (1, 0)  # anti-diagonal: 2 + 2 beats 1 + 4
    total, _ = min_cost_assignment([[Fraction(1, 2)]])
    assert total == Fraction(1, 2)
    assert min_cost_assignment([]) == (Fraction(0), ())
    with pytest.raises(InputError):
        min_cost_assignment([[1, 2], [3]])


def test_min_cost_assignment_handles_negatives():
    cost = [[-5, 1], [1, -5]]
    total, assign = min_cost_assignment(cost)
    assert total == -10 and assign == (0, 1)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5))
def test_assignment_matches_permutation_scan(seed, n):
    rng = random.Random(seed)
    cost = [
        [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
        for _ in range(n)
    ]
    total, assign = min_cost_assignment(cost)
    assert total == brute_min_assignment(cost)
    assert sorted(assign) == list(range(n))  # a real permutation
    assert sum((cost[assign[j]][j] for j in range(n)), Fraction(0)) == total


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5))
def test_best_partition_routes_agree_on_arbitrary_matrices(seed, k):
    rng = random.Random(seed)
    mat = random_det_matrix(rng, k, hi=5)
    aw, aperm = best_partition_assignment(mat)
    bw, bperm = brute_force_best_weight(mat)
    assert aw == bw
    # both returned permutations must actually attain that weight
    for perm in (aperm, bperm):
        weight = sum(
            (mat.edge_weight(perm[u], u + 1) for u in range(k)), Fraction(0)
        )
        assert weight == aw


def test_all_optimal_partitions_is_the_exact_tie_set():
    mat = StrengthMatrix.from_values(
        "deterministic", [[3, 1, 1], [1, 3, 1], [1, 1, 3]]
    )
    ties = all_optimal_partitions(mat)
    # best weight 3 is reached by the two directed 3-cycles only
    assert {str(p) for p in ties} == {"{(1,2,3)}", "{(1,3,2)}"}
    best, _ = brute_force_best_weight(mat)
    for part in enumerate_partitions(3):
        if part.weight(mat) == best:
            assert part in ties
        else:
            assert part not in ties


def _tied_matrix(rng, k):
    """A heavily tied matrix: every cross link equal, or every one in {0, 1}."""
    if rng.random() < 0.5:
        cross = Fraction(rng.randint(0, 3), rng.choice((1, 2)))
        rows = [[cross] * k for _ in range(k)]
    else:
        rows = [[Fraction(rng.randint(0, 1)) for _ in range(k)] for _ in range(k)]
    for u in range(k):
        rows[u][u] = Fraction(rng.randint(0, 4))
    return StrengthMatrix(mode="gdof", entries=tuple(map(tuple, rows)))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6), st.booleans())
def test_scan_views_match_partition_oracle(seed, k, tied):
    rng = random.Random(seed)
    mat = _tied_matrix(rng, k) if tied else random_gdof_matrix(rng, k)
    best, ties, lexmin = heaviest_partitions(mat)
    weight, perm = brute_force_best_weight(mat)
    assert weight == best and CyclicPartition.from_permutation(perm) == lexmin
    assert all_optimal_partitions(mat) == ties
    assert optimal_partition(mat) == lexmin


def _dp_case_matrix(rng, k, kind):
    """Random gdof entries, or a heavily tied matrix: cross links in {0, 1},
    all equal, or all zero (every permutation ties)."""
    if kind == "random":
        return random_gdof_matrix(rng, k)
    cross = {"binary": lambda: rng.randint(0, 1),
             "equal": lambda: 1, "zero": lambda: 0}[kind]
    rows = [[Fraction(cross()) for _ in range(k)] for _ in range(k)]
    for u in range(k):
        rows[u][u] = Fraction(rng.randint(0, 4))
    return StrengthMatrix(mode="gdof", entries=tuple(map(tuple, rows)))


@pytest.mark.parametrize("kind", ("random", "binary", "equal", "zero"))
@pytest.mark.parametrize("k", range(1, 9))
def test_subset_dp_matches_permutation_scan_oracle(k, kind):
    rng = random.Random(1000 * k + len(kind))
    for _ in range(2):
        mat = _dp_case_matrix(rng, k, kind)
        weight, tied, canonical = heaviest_permutations(mat)
        scale, incoming, suf, cnt = _heaviest_permutations(mat)
        assert Fraction(suf[0], scale) == weight
        assert cnt[0] == len(tied)
        # the walk lists every tie, tuple for tuple, in the scan's order
        assert list(_ties(incoming, suf)) == tied
        lexmin = tuple(p + 1 for p in canonical)
        assert brute_force_best_weight(mat) == (weight, lexmin)
        assert optimal_partition(mat) == CyclicPartition.from_permutation(lexmin)
        if len(tied) <= TIE_GUARD:
            assert all_optimal_partitions(mat) == tuple(
                CyclicPartition.from_permutation([p + 1 for p in perm])
                for perm in tied)
        else:
            with pytest.raises(GuardError, match="tie limit exceeded"):
                all_optimal_partitions(mat)


def test_tie_guard_trips_before_the_walk(monkeypatch):
    # all-equal K = 9: 133,496 derangements tie; only the count is read
    k = 9
    rows = [[3 if r == c else 1 for c in range(k)] for r in range(k)]
    mat = StrengthMatrix.from_values("deterministic", rows)
    walked = []
    monkeypatch.setattr("tinopt.optimize._ties",
                        lambda *args, **kw: walked.append(args) or _ties(*args, **kw))
    with pytest.raises(GuardError, match="133496 tied partitions"):
        all_optimal_partitions(mat)
    assert walked == []
    # the value and the canonical tie are read from one walk's first tie
    assert brute_force_best_weight(mat) == (9, (2, 1, 4, 3, 6, 5, 8, 9, 7))
    assert len(walked) == 1


def test_tie_walks_leave_no_cyclic_garbage():
    # the first sub-channel of tests/test_golden.py's tied6x2: 21 ties
    mat = StrengthMatrix.from_values("deterministic", [
        [5, 0, 2, 2, 0, 1], [2, 5, 2, 2, 1, 1], [2, 2, 5, 2, 2, 0],
        [2, 2, 1, 5, 0, 1], [0, 2, 0, 2, 5, 0], [1, 0, 1, 0, 1, 3]])
    gc.collect()
    gc.disable()
    try:
        for call in (all_optimal_partitions, brute_force_best_weight):
            gc.collect()
            call(mat)
            assert gc.collect() == 0, call.__name__
    finally:
        gc.enable()
    assert len(all_optimal_partitions(mat)) == 21


def test_all_equal_cross_links_tie_every_derangement():
    k = 6
    rows = tuple(
        tuple(Fraction(5 if r == c else 1) for c in range(k)) for r in range(k)
    )
    mat = StrengthMatrix(mode="gdof", entries=rows)
    ties = all_optimal_partitions(mat)
    assert len(ties) == 265                 # derangements of 6 users
    assert ties == heaviest_partitions(mat)[1]
    assert str(optimal_partition(mat)) == "{(1,2), (3,4), (5,6)}"


def test_optimal_partition_prefers_trivial_cycles_on_ties():
    # every partition weighs 0: the all-trivial partition must win
    mat = StrengthMatrix.from_values("deterministic", [[1, 0], [0, 1]])
    assert str(optimal_partition(mat)) == "{(1), (2)}"


# ---------------------------------------------------------------------------
# cycle LP
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 5))
def test_cycle_lp_point_is_feasible_and_matches_partitions_under_tin(seed, k):
    rng = random.Random(seed)
    mat = random_strict_tin_matrix(rng, k, mode="gdof")
    res = solve_cycle_lp(mat)
    assert res.optimal
    assert point_obeys_cycle_bounds(mat, res.point, enumerate_cycles(k))
    diag = sum((mat.desired(i) for i in range(1, k + 1)), Fraction(0))
    weight, _ = brute_force_best_weight(mat)
    assert res.value == diag - weight


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 4))
def test_cycle_lp_weak_duality_on_arbitrary_matrices(seed, k):
    rng = random.Random(seed)
    mat = random_det_matrix(rng, k, hi=4)
    res = solve_cycle_lp(mat)
    diag = sum((mat.desired(i) for i in range(1, k + 1)), Fraction(0))
    weight, _ = brute_force_best_weight(mat)
    if res.optimal:
        # any feasible point obeys the cycle bounds of the best partition's
        # cycles; summing those gives LP value <= best partition bound
        assert res.value <= diag - weight
        assert point_obeys_cycle_bounds(mat, res.point, enumerate_cycles(k))
    else:
        assert res.status == "infeasible"


def test_cycle_lp_infeasible_without_tin():
    # user 1's desired strength is far below the interference it suffers and
    # causes; the singleton bound d1 <= 1 - 5 - ... is already negative
    mat = StrengthMatrix.from_values(
        "deterministic", [[1, 5], [5, 1]]
    )
    res = solve_cycle_lp(mat)
    assert res.status == "infeasible"
    assert not res.optimal


def test_cycle_lp_seeds_only_trivial_cycles():
    # the seed holds each user's reference row (i, 0), the trivial cycle's
    # row once q >= 0, and its strongest incoming arc, lowest j on ties
    mat = StrengthMatrix.from_values(
        "deterministic", [[4, 1, 1], [1, 4, 1], [1, 1, 4]]
    )
    res = solve_cycle_lp(mat)
    assert res.working[:6] == ((1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1))
    # every cut the arc scan adds is an arc, most violated first, ties by
    # (i, j), and never one already working
    assert res.working[6:] == ((2, 3), (3, 2))
    assert res.working_cycles == res.working
    assert res.value == 12 - 3
    # a zero arc is implied by the reference row and q_j >= 0: no seed
    res = solve_cycle_lp(example1().matrices[0])
    assert res.working == ((1, 0), (1, 2), (2, 0), (2, 3), (3, 0))


def test_cycle_lp_counters_are_pinned():
    # deterministic counts on fixed matrices: the seed rows pivot in, then
    # cuts re-optimize by dual simplex from the previous basis
    mat = StrengthMatrix.from_values(
        "deterministic", [[4, 1, 1], [1, 4, 1], [1, 1, 4]]
    )
    res = solve_cycle_lp(mat)
    assert (res.rounds, res.pivots, len(res.working)) == (2, 6, 8)
    mat = example1().matrices[0]
    res = solve_cycle_lp(mat)
    assert res.value == 6
    assert (res.rounds, res.pivots, len(res.working)) == (1, 3, 5)
    free = solve_cycle_lp(mat, nonneg=False)
    assert free.value == 6
    assert (free.rounds, free.pivots) == (1, 3)
    # the seed alone is infeasible with d >= 0: the arcs (1, 2) and (2, 1)
    # sum to the pair bound d1 + d2 <= 2 - 10, which sets the free optimum
    mat = StrengthMatrix.from_values("deterministic", [[1, 5], [5, 1]])
    res = solve_cycle_lp(mat)
    assert res.status == "infeasible"
    assert (res.rounds, res.pivots) == (1, 1)
    free = solve_cycle_lp(mat, nonneg=False)
    assert free.status == "optimal" and free.value == -8
    assert (free.rounds, free.pivots) == (1, 2)
    # the dual-infeasible path after a cut: only the 3-cycle over n_13,
    # n_32 and n_21, bound 8 - 9, empties the region with d >= 0
    mat = StrengthMatrix.from_values("deterministic", [[2, 0, 4], [4, 2, 1], [1, 1, 4]])
    res = solve_cycle_lp(mat)
    assert res.status == "infeasible"
    assert (res.rounds, res.pivots) == (2, 6)
    free = solve_cycle_lp(mat, nonneg=False)
    assert free.status == "optimal" and free.value == -1
    assert (free.rounds, free.pivots) == (2, 5)


def _lp_matrix(rng, k, kind):
    if kind == "strict":
        return random_strict_tin_matrix(rng, k, mode="gdof")
    if kind == "gdof":
        return random_gdof_matrix(rng, k)
    return random_det_matrix(rng, k, hi=4)


def _assert_matches_full_lp(mat, nonneg):
    k = mat.users
    res = solve_cycle_lp(mat, nonneg=nonneg)
    want = full_cycle_lp(mat, nonneg=nonneg)
    assert res.status == want.status
    assert res.value == want.value
    if res.optimal:
        assert point_obeys_cycle_bounds(mat, res.point, enumerate_cycles(k))
        assert sum(res.point) == res.value
        assert not nonneg or min(res.point) >= 0
    # the working rows are distinct arcs (i, j), j != i, and every
    # reference row (i, 0); the scan never adds a row twice
    assert len(set(res.working)) == len(res.working)
    assert all(1 <= i <= k and 0 <= j <= k and j != i for i, j in res.working)
    assert {(i, 0) for i in range(1, k + 1)} <= set(res.working)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 5),
       st.sampled_from(["strict", "gdof", "deterministic"]), st.booleans())
def test_cycle_lp_engine_matches_full_lp(seed, k, kind, nonneg):
    _assert_matches_full_lp(_lp_matrix(random.Random(seed), k, kind), nonneg)


@pytest.mark.parametrize("kind, nonneg", [
    ("strict", True), ("gdof", True), ("deterministic", True), ("strict", False),
])
@pytest.mark.parametrize("seed", range(2))
def test_cycle_lp_engine_matches_full_lp_at_six_users(seed, kind, nonneg):
    # subsets of up to six users carry up to 120 cycles each, of which the
    # engine keeps one row; the full LP keeps all 409
    _assert_matches_full_lp(
        _lp_matrix(random.Random("six/%s/%d" % (kind, seed)), 6, kind), nonneg)


@pytest.mark.parametrize("nonneg", [True, False])
def test_cycle_lp_engine_matches_full_lp_without_tin(nonneg):
    # infeasible with d >= 0 (see test_cycle_lp_infeasible_without_tin);
    # without it the pair bound d1 + d2 <= 2 - 10 sets the optimum
    mat = StrengthMatrix.from_values("deterministic", [[1, 5], [5, 1]])
    res = solve_cycle_lp(mat, nonneg=nonneg)
    want = full_cycle_lp(mat, nonneg=nonneg)
    assert (res.status, res.value) == (want.status, want.value)
    assert res.status == ("infeasible" if nonneg else "optimal")


@pytest.mark.parametrize("mode", ["gdof", "deterministic"])
@pytest.mark.parametrize("k", range(1, 8))
def test_cycle_lp_powers_certify_the_point(k, mode):
    # the backoffs q reached at the optimum are a TIN scheme for the LP's
    # rates: every user's TIN rate n_ii - q_i - max(0, max_j(n_ij - q_j))
    # reaches d_i.  Where the TIN condition holds the value is also the
    # partition bound, so the scheme proves the sum achievable
    rng = random.Random("powers/%s/%d" % (mode, k))
    optimal = 0
    for draw in range(12):
        if draw % 2:
            mat = random_strict_tin_matrix(rng, k, mode=mode)
        elif mode == "gdof":
            mat = random_gdof_matrix(rng, k)
        else:
            mat = random_det_matrix(rng, k, hi=4)
        res = solve_cycle_lp(mat)
        if not res.optimal:
            continue
        optimal += 1
        d, q = res.point, res.powers
        assert sum(d) == res.value and min(d) >= 0 and min(q) >= 0
        if mode == "deterministic":
            # the rows are totally unimodular in (d + q, q)
            assert all(v.denominator == 1 for v in d + q)
            assert tin_feasible(mat, d, q)
        for i in range(1, k + 1):
            residual = max([0] + [mat.entry(i, j) - q[j - 1]
                                  for j in range(1, k + 1) if j != i])
            assert mat.desired(i) - q[i - 1] - residual >= d[i - 1]
        if check_tin(mat).satisfied:
            diag = sum(map(mat.desired, range(1, k + 1)))
            assert res.value == diag - brute_force_best_weight(mat)[0]
    assert optimal >= 6


def test_cycle_lp_equals_the_best_tin_scheme():
    # in deterministic mode the cycle bounds at d are the difference
    # constraints of a TIN scheme for d (the potential argument), and
    # integer data admit integer backoffs: so the cycle LP is feasible
    # exactly when some TIN scheme is, its optimum is the best scheme's
    # sum, and its own rates and backoffs form such a scheme
    rng = random.Random("lp-vs-scheme")
    optimal = swept = 0
    for k in range(1, 7):
        for draw in range(60):
            if draw % 2:
                mat = random_strict_tin_matrix(rng, k, mode="deterministic")
            else:
                mat = random_det_matrix(rng, k, hi=4)
            res, scheme = solve_cycle_lp(mat), best_tin_scheme(mat)
            assert res.optimal == scheme.found
            if res.optimal:
                optimal += 1
                assert res.value == scheme.sum_rate
                assert tin_feasible(mat, res.point, res.powers)
                assert tin_feasible(mat, scheme.rates, scheme.powers)
                assert all(type(v) is int for v in scheme.rates + scheme.powers)
                assert sum(scheme.rates) == scheme.sum_rate
            if k <= 4:
                swept += 1
                want = best_tin_scheme_sweep(mat)
                assert (want.found, want.sum_rate) == (scheme.found, scheme.sum_rate)
    assert optimal >= 200 and swept == 240


def test_redundancy_check_true_under_strict_tin_false_otherwise():
    strict = StrengthMatrix.from_values(
        "gdof", [[3, 1, 0], [0, 3, 1], [1, 0, 3]]
    )
    assert check_tin(strict).strict
    assert nonnegativity_redundancy_check(strict).redundant

    # non-TIN instance where dropping d >= 0 raises the optimum: user 1's
    # zero-strength link pins d1 = 0, which pins d2, d3 via the pair bounds
    # d1 + d2 <= 2 and d1 + d3 <= 2; freeing d1 to go to -8 releases both
    skewed = StrengthMatrix.from_values(
        "deterministic", [[0, 8, 8], [0, 10, 0], [0, 0, 10]]
    )
    res = nonnegativity_redundancy_check(skewed)
    assert res.with_nonneg == 4
    assert res.without_nonneg == 12
    assert not res.redundant and not bool(res)


# ---------------------------------------------------------------------------
# the cross-checked sum
# ---------------------------------------------------------------------------


def test_sum_gdof_exact_on_tin_instances():
    mat = StrengthMatrix.from_values(
        "deterministic", [[4, 2, 2], [0, 3, 1], [0, 0, 2]]
    )
    res = sum_gdof(mat)
    assert res.exact and res.label == "exact"
    assert res.value == 6
    assert res.agreement
    assert res.methods == {
        "lp_cycle_bounds": 6, "assignment": 6, "brute_force": 6,
    }
    assert str(res.partition) == "{(1,2,3)}"


def test_sum_gdof_bound_only_without_tin():
    mat = StrengthMatrix.from_values(
        "deterministic", [[1, 5], [5, 1]]
    )
    res = sum_gdof(mat)
    assert not res.exact and res.label == BOUND_ONLY_LABEL
    assert res.value == 2 - 10  # best partition bound can go negative
    assert res.methods["lp_cycle_bounds"] == "infeasible"
    assert not res.agreement


def test_sum_gdof_guard_for_large_k():
    big = StrengthMatrix.from_values(
        "deterministic", [[1] * 10 for _ in range(10)]
    )
    with pytest.raises(GuardError):
        sum_gdof(big)


def test_network_sum_totals_and_label():
    tin = StrengthMatrix.from_values("deterministic", [[3, 1], [1, 3]])
    non = StrengthMatrix.from_values("deterministic", [[1, 5], [5, 1]])
    good = Network(mode="deterministic", matrices=(tin, tin))
    res = network_sum(good)
    assert res.exact and res.total == 4 + 4
    mixed = Network(mode="deterministic", matrices=(tin, non))
    res = network_sum(mixed)
    assert not res.exact and res.label == BOUND_ONLY_LABEL
    assert res.total == 4 + (2 - 10)
    assert [r.value for r in res.per_channel] == [4, -8]


def test_cross_check_error_is_assertion_error():
    assert issubclass(CrossCheckError, AssertionError)
