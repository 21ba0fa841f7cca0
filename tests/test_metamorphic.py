"""Metamorphic relations: answers that must not move when the input is
transformed in a way that provably keeps them, checked at K = 7..9, where
the oracles of ``tests/oracles.py`` (``full_cycle_lp``,
``full_decomposition``) are too slow to run.

* **Relabeling.**  Conjugating a matrix by a user permutation pi (entry
  (i, j) moves to (pi(i), pi(j))) maps every cycle to a cycle of the same
  weight through the relabeled users, so the cycle-bound region maps by pi.
  The cycle LP's status and value, the sum, and the decomposition verdict
  of pi(t) are those of t, and user pi(u)'s cap is user u's.
* **Reciprocity (transpose).**  The reversal of a cycle weighs the same in
  the transpose as the cycle does in the matrix, over the same users, so
  the cycle-bound region does not change at all: neither do the LP's
  status and value, the sum, the decomposition verdict or any user's cap.
* **Doubling.**  The network [A, A] of two copies of sub-channel A splits
  the target 2t exactly when t lies in A's region R: (t, t) splits 2t when
  it does, and the mean of the two shares of any split of 2t lies in R,
  which is convex.  The same two maps carry the cap LPs into each other:
  a point of [A]'s cap LP at t, taken twice, is a point of [A, A]'s at 2t
  with twice the objective, and the mean of the shares of a point of [A,
  A]'s is a point of [A]'s with half of it.  So each cap of [A, A] at 2t is
  twice the matching cap of [A] at t, and the same caps exist.
* **Scaling.**  Multiplying every entry by a rational c > 0 multiplies
  every desired strength and every cycle weight by c, so every cycle
  bound's right-hand side too: the region of the scaled matrix is c times
  the region.  The cycle LP keeps its status (d = 0 is feasible exactly
  when every right-hand side is nonnegative, which c keeps), and an
  optimum d maps to c d, so its value is c times the old one.  Every
  partition bound scales by c, so the sum does, and the TIN condition
  n_ii >= max_j n_ji + max_k n_ik (strict: >) is homogeneous, so the
  verdict and the sum's label stay.  On a network, the splits of c t over
  the scaled regions are the splits of t over the regions, times c, so the
  ``decompose`` verdict at c t is the one at t, and every cap, the optimum
  of an LP over those splits, is c times the old cap.  The common
  denominator changes with c, so this reaches ``scaled`` and ``_rescaled``
  along another path.
* **Monotonicity.**  The partition bound is the sum of the desired
  strengths minus the heaviest partition weight, and self-edges weigh 0:
  raising n_ii by delta raises the sum by delta and moves no partition's
  weight, so the bound rises by exactly delta.  Raising a cross link n_ij
  by delta raises the weight of each partition that uses the edge e_ij by
  delta and moves no other, so the heaviest weight does not fall and the
  bound does not rise.

Each transformation changes the LPs the cutting-plane engine solves, so
it reaches each answer along another path.

The draws are strict-TIN matrices, arbitrary gdof and bit-level ones
(whose cycle LP is infeasible on every seeded draw at these K), and
"lowered" bit-level ones that break the TIN condition yet keep the LP
optimal, so that the relations compare LP values off strict TIN too.  On
bit-level draws, relabeling and transposition also keep the best TIN
scheme's sum, the cycle LP's value.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import random_det_matrix, random_gdof_matrix, random_strict_tin_matrix
from tinopt.detmodel import best_tin_scheme
from tinopt.model import Network, StrengthMatrix, check_tin
from tinopt.optimize import solve_cycle_lp, sum_gdof
from tinopt.region import region_contains, separate_tin_decomposable, tin_region

KINDS = ("strict", "gdof", "deterministic", "lowered")


def _lowered(rng, k):
    """A strict-TIN bit-level draw with one desired strength n_ii lowered
    below the TIN threshold, but not below the strongest interference
    n_ij at receiver i: the TIN condition fails, yet every term n_uu - n_uj
    (j != u) of every cycle bound stays nonnegative, so d = 0 is feasible
    and the cycle LP has an optimum to compare.  Both are asserted on
    every draw."""
    rows = [[int(n) for n in row]
            for row in random_strict_tin_matrix(rng, k, mode="deterministic").entries]
    strongest = lambda line, u: max(n for j, n in enumerate(line) if j != u)
    outgoing = [strongest([row[u] for row in rows], u) for u in range(k)]
    i = rng.choice([u for u in range(k) if outgoing[u]])
    rows[i][i] = strongest(rows[i], i) + rng.randrange(outgoing[i])
    mat = StrengthMatrix.from_values("deterministic", rows)
    assert not check_tin(mat).satisfied and solve_cycle_lp(mat).optimal
    return mat


def _matrix(rng, k, kind, mode=None):
    if kind == "strict":
        return random_strict_tin_matrix(rng, k, mode=mode or "gdof")
    if kind == "gdof":
        return random_gdof_matrix(rng, k)
    if kind == "lowered":
        return _lowered(rng, k)
    return random_det_matrix(rng, k, hi=4)


def relabel(mat, perm):
    """``mat`` with user u+1 renamed perm[u]+1 (0-based perm)."""
    k = mat.users
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            rows[perm[i]][perm[j]] = mat.entries[i][j]
    return StrengthMatrix(mode=mat.mode, entries=tuple(map(tuple, rows)))


def transpose(mat):
    return StrengthMatrix(mode=mat.mode, entries=tuple(zip(*mat.entries)))


def _transforms(rng, k):
    """(name, matrix map, user map) pairs; the user map sends u to u's new
    0-based index."""
    perm = list(range(k))
    rng.shuffle(perm)
    return (("relabel", lambda mat: relabel(mat, perm), perm.__getitem__),
            ("transpose", transpose, lambda u: u))


def _lp(mat):
    res = solve_cycle_lp(mat)
    return res.status, res.value


def _scheme(mat):
    """The best TIN scheme's (found, sum_rate) on a bit-level matrix, else
    None: the scheme itself may move with the users, its sum may not."""
    if mat.mode != "deterministic":
        return None
    scheme = best_tin_scheme(mat)
    return scheme.found, scheme.sum_rate


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", (7, 8, 9))
def test_cycle_lp_and_sum_are_invariant(k, kind):
    rng = random.Random("metamorphic/sum/%s/%d" % (kind, k))
    for _ in range(2):
        mat = _matrix(rng, k, kind)
        lp, total = _lp(mat), sum_gdof(mat)
        scheme = _scheme(mat)
        for name, move, _ in _transforms(rng, k):
            image = move(mat)
            assert _lp(image) == lp, name
            moved = sum_gdof(image)
            assert (moved.value, moved.label) == (total.value, total.label), name
            assert _scheme(image) == scheme, name


def _decomposition(net, target):
    res = separate_tin_decomposable(net, target)
    return res.feasible, {cap.user: cap.cap for cap in res.caps}


@pytest.mark.parametrize("k, mode", ((7, "gdof"), (8, "deterministic"), (9, "gdof")))
def test_decomposition_is_invariant(k, mode):
    # a split target (the sum of each sub-channel's LP point) and the same
    # target pushed out along one user: its total then passes the sum of
    # the sub-channels' sums, which no split may reach
    rng = random.Random("metamorphic/decompose/%s/%d" % (mode, k))
    mats = tuple(_matrix(rng, k, "strict", mode) for _ in range(2))
    net = Network(mode=mode, matrices=mats)
    split = [sum(col) for col in zip(*(solve_cycle_lp(mat).point for mat in mats))]
    pushed = list(split)
    pushed[rng.randrange(k)] += Fraction(1, 2)
    verdicts = []
    for target in (split, pushed):
        want = _decomposition(net, target)
        verdicts.append(want[0])
        for name, move, user in _transforms(rng, k):
            image = Network(mode=mode, matrices=tuple(map(move, mats)))
            moved = [None] * k
            for u in range(k):
                moved[user(u)] = target[u]
            feasible, caps = _decomposition(image, moved)
            assert feasible == want[0], name
            assert caps == {user(u - 1) + 1: cap for u, cap in want[1].items()}, name
    assert verdicts == [True, False]


@pytest.mark.parametrize("k, mode", ((7, "gdof"), (8, "deterministic")))
def test_doubling_a_subchannel_doubles_its_region_and_caps(k, mode):
    # t = c * p, p the cycle LP's point: inside the region for c <= 1 (it
    # is down-closed), outside for c = 5/4 (past the sum); fixing K - 1
    # users at 5/4 of p leaves no cap, so p with one user pushed out by 1/2
    # is a fourth target, one with caps
    rng = random.Random("metamorphic/double/%s/%d" % (mode, k))
    mat = _matrix(rng, k, "strict", mode)
    point, region = solve_cycle_lp(mat).point, tin_region(mat)
    single = Network(mode=mode, matrices=(mat,))
    double = Network(mode=mode, matrices=(mat, mat))
    pushed = list(point)
    pushed[rng.randrange(k)] += Fraction(1, 2)
    verdicts = []
    for target in ([p / 2 for p in point], point, [p * Fraction(5, 4) for p in point], pushed):
        feasible, caps = _decomposition(double, [2 * t for t in target])
        assert feasible == region_contains(region, target, users=k).inside
        assert caps == {u: 2 * cap for u, cap in _decomposition(single, target)[1].items()}
        verdicts.append((feasible, bool(caps)))
    assert verdicts == [(True, False), (True, False), (False, False), (False, True)]


def scale(mat, c):
    """``mat`` with every entry multiplied by c, as a gdof matrix."""
    return StrengthMatrix(mode="gdof", entries=tuple(
        tuple(c * entry for entry in row) for row in mat.entries))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", (7, 8, 9))
def test_scaling_scales_the_sum_and_keeps_the_verdicts(k, kind):
    rng = random.Random("metamorphic/scale/%s/%d" % (kind, k))
    mat = _matrix(rng, k, kind)
    (status, value), total, tin = _lp(mat), sum_gdof(mat), check_tin(mat)
    for c in (Fraction(3, 2), Fraction(2, 7)):
        image = scale(mat, c)
        assert _lp(image) == (status, None if value is None else c * value), c
        moved = sum_gdof(image)
        assert (moved.value, moved.label) == (c * total.value, total.label), c
        verdict = check_tin(image)
        assert (verdict.satisfied, verdict.strict) == (tin.satisfied, tin.strict), c


@pytest.mark.parametrize("mode", ("gdof", "deterministic"))
def test_scaling_scales_the_decomposition_caps(mode):
    # the targets of test_doubling_a_subchannel_doubles_its_region_and_caps,
    # on a network of two sub-channels; the pushed one moves by 1/7, so the
    # target brings its own denominator into the common one
    rng = random.Random("metamorphic/scale-decompose/%s" % mode)
    k, c = 7, Fraction(5, 3)
    mats = tuple(_matrix(rng, k, "strict", mode) for _ in range(2))
    net = Network(mode=mode, matrices=mats)
    image = Network(mode="gdof", matrices=tuple(scale(mat, c) for mat in mats))
    split = [sum(col) for col in zip(*(solve_cycle_lp(mat).point for mat in mats))]
    pushed = list(split)
    pushed[rng.randrange(k)] += Fraction(1, 7)
    verdicts = []
    for target in ([t / 2 for t in split], split, [t * Fraction(5, 4) for t in split], pushed):
        feasible, caps = _decomposition(net, target)
        assert _decomposition(image, [c * t for t in target]) == (
            feasible, {u: c * cap for u, cap in caps.items()})
        verdicts.append((feasible, bool(caps)))
    assert verdicts == [(True, False), (True, False), (False, False), (False, True)]


def _raised(mat, i, j, delta):
    """``mat`` with entry (i, j) (0-based) raised by delta."""
    rows = [list(row) for row in mat.entries]
    rows[i][j] += delta
    return StrengthMatrix(mode=mat.mode, entries=tuple(map(tuple, rows)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", (7, 8, 9))
def test_partition_bound_is_monotone(k, kind):
    rng = random.Random("metamorphic/monotone/%s/%d" % (kind, k))
    mat = _matrix(rng, k, kind)
    bound = sum_gdof(mat).methods["brute_force"]
    i, j = rng.sample(range(k), 2)
    delta = Fraction(rng.randint(1, 4))
    assert sum_gdof(_raised(mat, i, i, delta)).methods["brute_force"] == bound + delta
    assert sum_gdof(_raised(mat, i, j, delta)).methods["brute_force"] <= bound
