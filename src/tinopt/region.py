"""Rate regions, combined sum bounds, and decomposability of parallel networks.

For a TIN-optimal sub-channel the achievable region is cut out by one bound
per cycle of the interference graph (plus nonnegativity).  ``tin_region``
reads them off ``_cycle_table(K)``, the cycles of ``enumerate_cycles(K)``
as flat arrays of user masks and edge indices, so each bound is an integer
sum over integer-scaled entries, one level of cycle lengths at a time.

For a parallel network the tightest bound on any subset's *total* (across
sub-channels) rate is the subset's best cyclic partition bound summed over
sub-channels; these "combined" bounds are valid for the parallel network
as a whole.  Two subset tables per sub-channel give them all at once: the
heaviest cycle through every user subset (``_heaviest_cycles``, Held-Karp,
O(2^K K^2)) and the least cyclic partition bound of every subset
(``_partition_bounds``, O(3^K)).  This module owns every such table; the
LPs of ``optimize`` read none.

A point in the combined region need not decompose into per-sub-channel
points of the individual regions -- ``separate_tin_decomposable`` settles
that question exactly by LP, and produces a per-user cap certificate when
decomposition is impossible.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import add, sub
from typing import NamedTuple

from .cycles import _check_enum_guard, enumerate_cycles
from .model import (CrossCheckError, InputError, Network, StrengthMatrix, _rescaled, _shown,
                    as_rational)
from .optimize import _cutting_plane_lp

__all__ = [
    "RegionConstraint",
    "tin_region",
    "MembershipResult",
    "region_contains",
    "CombinedSumBounds",
    "combined_sum_bounds",
    "UserCap",
    "DecompositionResult",
    "separate_tin_decomposable",
]


# ---------------------------------------------------------------------------
# single sub-channel region
# ---------------------------------------------------------------------------

class RegionConstraint(NamedTuple):
    """sum of d_k over ``users`` <= ``rhs``; ``cycle`` records the source,
    the cycle's canonical user tuple (``enumerate_cycles``), or None.
    A named tuple: it also equals the plain tuple (users, rhs, cycle)."""

    users: tuple
    rhs: Fraction
    cycle: object = None

    def evaluate(self, point) -> Fraction:
        return sum((point[k - 1] for k in self.users), Fraction(0))

    def holds(self, point) -> bool:
        return self.evaluate(point) <= self.rhs


_constraint = partial(tuple.__new__, RegionConstraint)   # from a (users, rhs, cycle) row


@lru_cache(maxsize=None)
def _cycle_table(k: int) -> tuple:
    """``enumerate_cycles(k)`` as flat arrays, for summing cycle bounds one
    level of cycle lengths at a time: (masks, levels, closes, users_of).

    Cycle c, a user tuple (u0, ..., u_{L-1}), covers the users of the
    bitmask ``masks[c]`` (bit u - 1 for user u).  Edge e_ij of a row-major
    K x K matrix has index (i - 1) * K + j - 1.  The cycles come in length
    order, and a cycle of length L >= 2 minus its last user is an earlier
    cycle, its parent; ``levels[L - 2]`` is the (parents, steps) pair of
    the cycles of length L, in order: the parent's index and the index of
    the step edge e_{u_{L-2} u_{L-1}}.  So the open path u0 -> ... ->
    u_{L-1} of every cycle weighs its parent's path plus its step, the K
    trivial cycles' paths (the first K cycles) weigh 0, and cycle c weighs
    its path plus the closing edge ``closes[c]``, e_{u_{L-1} u0}, which is
    K * K, one past the matrix, for a trivial cycle.  ``users_of[mask]`` is
    the sorted tuple of the users of a mask.  Built once per K, after the
    cycles' own guard, and read-only, since every caller shares it.
    """
    cycles = enumerate_cycles(k)
    index = {users: c for c, users in enumerate(cycles)}
    masks, closes = array("H"), bytearray()
    levels = [(array("I"), bytearray()) for _ in range(k - 1)]
    for users in cycles:
        masks.append(sum(1 << (u - 1) for u in users))
        closes.append((users[-1] - 1) * k + users[0] - 1 if len(users) > 1 else k * k)
        if len(users) > 1:
            parents, steps = levels[len(users) - 2]
            parents.append(index[users[:-1]])
            steps.append((users[-2] - 1) * k + users[-1] - 1)
    users_of = tuple(tuple(u + 1 for u in range(k) if mask >> u & 1)
                     for mask in range(1 << k))
    return (memoryview(masks).toreadonly(),
            tuple((memoryview(parents).toreadonly(), bytes(steps))
                  for parents, steps in levels),
            bytes(closes), users_of)


def tin_region(matrix: StrengthMatrix) -> tuple:
    """One constraint per cycle, no redundancy filtering.

    This describes the sub-channel's exact achievable region when the TIN
    condition holds (together with d >= 0); otherwise the constraints are
    still valid outer bounds for what TIN itself can do.

    The bounds are read off the per-K table ``_cycle_table``, cached beside
    ``enumerate_cycles(K)`` and in its order, and the matrix's integer view
    ``matrix.scaled`` (InputError past MAX_RATIONAL_DIGITS digits of common
    denominator): the open paths of each cycle length weigh their parents'
    paths plus their step edges, one ``map`` per length, and a cycle's
    bound is its users' desired sum minus its path and closing edge.  Each
    distinct bound becomes one Fraction, shared by every constraint with
    that bound.  Equal, cycle by cycle, to the desired strengths of the
    cycle's users minus the strengths of the edges e_{u0 u1}, ...,
    e_{u_{L-1} u0} it traverses; GuardError above K = 9, before any table
    is built.
    """
    k = matrix.users
    cycles = enumerate_cycles(k)
    masks, levels, closes, users_of = _cycle_table(k)
    scale, flat = matrix.scaled
    desired = _subset_sums(flat[::k + 1])
    entry = [*flat, 0].__getitem__  # a builtin, unlike a tuple's: twice as fast in map
    paths = [0] * k
    for parents, steps in levels:
        paths += map(add, map(paths.__getitem__, parents), map(entry, steps))
    bounds = list(map(sub, map(desired.__getitem__, masks),
                      map(add, paths, map(entry, closes))))
    rhs = {bound: Fraction(bound, scale) for bound in set(bounds)}
    return tuple(map(_constraint, zip(map(users_of.__getitem__, masks),
                                      map(rhs.__getitem__, bounds), cycles)))


@dataclass(frozen=True)
class MembershipResult:
    inside: bool
    violated: tuple          # RegionConstraint instances the point breaks
    negative_users: tuple    # users with a negative coordinate

    def __bool__(self):
        return self.inside


def region_contains(constraints, point, users: "int | None" = None) -> MembershipResult:
    """Exact membership of a rate point in {d >= 0} cut by ``constraints``.

    The point has one coordinate per user: ``users`` of them if given, else
    as many as the highest user a constraint names.  InputError for any
    other length, and for a constraint naming a user past ``users``.
    """
    constraints = tuple(constraints)   # read twice: an iterator would be empty the 2nd time
    pt = tuple(as_rational(x) for x in point)
    named = max((k for con in constraints for k in con.users), default=0)
    expected = named if users is None else users
    if named > expected:
        raise InputError("a constraint names user %d, past users = %d" % (named, users))
    if len(pt) != expected:
        raise InputError("point has %d coordinates, expected %d" % (len(pt), expected))
    negative = tuple(k + 1 for k, x in enumerate(pt) if x < 0)
    violated = tuple(con for con in constraints if not con.holds(pt))
    return MembershipResult(
        inside=not negative and not violated,
        violated=violated,
        negative_users=negative,
    )


# ---------------------------------------------------------------------------
# combined (whole-network) sum bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CombinedSumBounds:
    """Tightest bound on each user subset's total rate across sub-channels.

    ``bounds`` maps a sorted user tuple S to the sum over sub-channels of
    the best cyclic partition bound of the sub-channel restricted to S, in
    order of subset size, then lexicographically (the report's row order).
    """

    users: int
    bounds: dict

    def bound(self, subset) -> Fraction:
        key = tuple(sorted(set(subset)))
        if key not in self.bounds:
            raise InputError("no bound recorded for subset %s" % _shown(key))
        return self.bounds[key]

    def as_constraints(self) -> tuple:
        return tuple(
            RegionConstraint(users=key, rhs=val)
            for key, val in self.bounds.items()
        )

    def contains(self, point) -> MembershipResult:
        return region_contains(self.as_constraints(), point, users=self.users)


def _subset_sums(values) -> list:
    """sums[mask] is the sum of values[u] over the bits u set in mask."""
    sums = [0]
    for val in values:
        sums += [s + val for s in sums]
    return sums


def _heaviest_cycles(flat, k) -> list:
    """``cycles[mask]`` weighs the heaviest cycle through exactly the users
    of ``mask`` (bit u for 0-based user u), for the row-major K x K
    nonnegative integer weights ``flat``.  Trivial cycles weigh 0.

    A Held-Karp pass (Held & Karp 1962; Bellman 1962), in O(2^K K^2):
    ``paths[mask][v]`` weighs the heaviest order (low, ..., v) of all of
    mask, as a cycle's user tuple weighs (e_uv = flat[u*K + v] per
    consecutive pair); e_v,low closes the cycle.  Where no order exists it
    is too low to win any max.
    """
    full = 1 << k
    cols = [flat[v::k] for v in range(k)]       # cols[v][u] = e_uv
    floor = -1 - sum(flat)
    paths = [None] * full
    cycles = [0] * full
    for mask in range(1, full):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        ends = [floor] * k
        ends[low] = floor if rest else 0
        for v in range(k):
            if rest >> v & 1:
                ends[v] = max(map(add, paths[mask ^ (1 << v)], cols[v]))
        paths[mask] = ends
        if rest:
            cycles[mask] = max(map(add, ends, cols[low]))
    return cycles


def _partition_bounds(block) -> list:
    """Per mask, the least bound of a cyclic partition of its users, given
    a ``combined_sum_bounds`` block of one bound per cycle: a partition's
    bound is the sum of its cycles' (desired sums add over disjoint parts),
    so one pass over the submasks holding the lowest member (its part's
    cycle through it) gives every mask's, in O(3^K)."""
    bounds = [0] * len(block)
    for mask in range(1, len(block)):
        low = mask & -mask
        rest = mask ^ low
        best, part = block[mask], rest
        while part:
            part = (part - 1) & rest
            bound = block[part | low] + bounds[rest ^ part]
            if bound < best:
                best = bound
        bounds[mask] = best
    return bounds


def combined_sum_bounds(network: Network) -> CombinedSumBounds:
    """Best partition bound per user subset, accumulated over sub-channels.

    Restricting to a subset simply silences the other users, so a subset's
    bound on one sub-channel is its desired strengths minus the heaviest
    cyclic partition of its users (and a restricted TIN-optimal sub-channel
    stays TIN optimal).  ``blocks[m][mask]`` is D times the bound of the
    heaviest cycle (no other can bind) through the users of ``mask`` on
    sub-channel m, at the matrices' common denominator D
    (``model._rescaled``), and one subset DP per sub-channel,
    ``_partition_bounds``, gives the least partition bound of every subset
    at once in O(3^K); guarded by MAX_ENUM_USERS (GuardError above K = 9)
    before any of it runs.
    """
    k = network.users
    _check_enum_guard(k)
    scale, flats, _ = _rescaled(network.matrices)
    blocks = [list(map(sub, _subset_sums(flat[::k + 1]), _heaviest_cycles(flat, k)))
              for flat in flats]
    totals = [sum(col) for col in zip(*map(_partition_bounds, blocks))]
    bounds = {}
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(1, k + 1), size):
            mask = sum(1 << (u - 1) for u in subset)
            bounds[subset] = Fraction(totals[mask], scale)
    return CombinedSumBounds(users=k, bounds=bounds)


# ---------------------------------------------------------------------------
# decomposability across sub-channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UserCap:
    """With every other user pinned to its target total, user ``user`` can
    reach at most ``cap`` -- strictly below its own ``target``."""

    user: int
    cap: Fraction
    target: Fraction


@dataclass(frozen=True)
class DecompositionResult:
    feasible: bool
    target: tuple
    allocation: "tuple | None"   # per sub-channel: tuple of per-user shares
    caps: tuple                  # UserCap certificates when infeasible

    def __bool__(self):
        return self.feasible


def separate_tin_decomposable(network: Network, point) -> DecompositionResult:
    """Can the rate point be split into per-sub-channel points that each obey
    their own sub-channel's cycle bounds?

    Settled exactly by the cutting-plane LP engine of ``optimize`` over the
    arc rows of every sub-channel (GuardError above K = 9 first), with the
    entries and the target at one common denominator for the split LP and
    every cap LP.  When the split is impossible the result carries every
    per-user cap certificate: fix all other users at their targets and
    maximize the remaining user's total, which infeasibility forces below
    its own target.  That LP may be infeasible too: ``caps`` is empty when
    fixing any K - 1 users at their targets already is.

    A user's cap LP runs only when the split LP's Farkas certificate
    (Farkas 1902) puts a positive weight on that user's floor.  The
    certificate is multipliers y >= 0 on the split LP's arc rows and floors,
    checked by the engine, with y.A >= 0 and y.b < 0.  Arc rows hold in
    every LP over the same sub-channels, so when user u's floor has weight
    0, the certificate uses only rows that u's cap LP must meet: that LP is
    infeasible and has no cap, and the caps are those that solving all K
    cap LPs gives.

    Each LP states a user's total as a floor, total >= target, and still
    answers for the total fixed at its target.  Each sub-channel's region
    (cycle bounds, whose rate coefficients are 0 or 1, and d >= 0, the
    engine's ``nonneg=True``) is down-closed, so a point meeting the floors
    trims to one meeting the targets: lower positive shares of each total
    above its target t >= 0, and keep the other totals.  So the floors are
    feasible exactly when the targets are; the split LP, which maximizes
    minus the allocated total, meets every target exactly at its optimum,
    or trimming would improve it; and a cap LP, one user's total under
    floors on the others, has the value it has with the others fixed.
    """
    k = network.users
    m = network.subchannels
    target = tuple(as_rational(x) for x in point)
    if len(target) != k:
        raise InputError("point has %d coordinates, expected %d" % (len(target), k))
    if any(t < 0 for t in target):
        raise InputError("point coordinates must be nonnegative rates")
    scale, flats, totals = _rescaled(network.matrices, target)
    floors = list(enumerate(totals))

    split = _cutting_plane_lp(flats, scale, [-1] * (k * m), floors)
    if split.status == "optimal":
        allocation = tuple(
            tuple(split.point[chan * k:(chan + 1) * k]) for chan in range(m)
        )
        return DecompositionResult(
            feasible=True, target=target, allocation=allocation, caps=()
        )

    caps = []
    for user, weight in enumerate(split.weights):
        if not weight:
            continue            # the split LP's certificate rules this cap LP out
        objective = [int(v % k == user) for v in range(k * m)]
        others = [f for f in floors if f[0] != user]
        status, cap, *_ = _cutting_plane_lp(flats, scale, objective, others)
        if status != "optimal":
            continue
        if cap >= target[user]:
            raise CrossCheckError(
                "user %d can reach %s >= target %s although the joint split "
                "is infeasible" % (user + 1, cap, target[user])
            )
        caps.append(UserCap(user=user + 1, cap=cap, target=target[user]))
    return DecompositionResult(
        feasible=False, target=target, allocation=None, caps=tuple(caps)
    )
