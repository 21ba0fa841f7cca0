"""Rate regions, combined sum bounds, and decomposability of parallel networks.

For a TIN-optimal sub-channel the achievable region is cut out by one bound
per cycle of the interference graph (plus nonnegativity).  For a parallel
network the tightest bound on any subset's *total* (across sub-channels) rate
is the subset's best cyclic partition bound summed over sub-channels; these
"combined" bounds are valid for the parallel network as a whole.  One
subset DP per sub-channel (``optimize._partition_bounds``) gives the
least cyclic partition bound of every subset at once.

A point in the combined region need not decompose into per-sub-channel
points of the individual regions -- ``separate_tin_decomposable`` settles
that question exactly by LP, and produces a per-user cap certificate when
decomposition is impossible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .cycles import _cycle_table, enumerate_cycles
from .model import (CrossCheckError, InputError, Network, StrengthMatrix, _rescaled, _shown,
                    as_rational)
from .optimize import _cutting_plane_lp, _cycle_blocks, _partition_bounds, _subset_sums

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
    """sum of d_k over ``users`` <= ``rhs``; ``cycle`` records the source.
    A named tuple: it also equals the plain tuple (users, rhs, cycle)."""

    users: tuple
    rhs: Fraction
    cycle: object = None

    def evaluate(self, point) -> Fraction:
        return sum((point[k - 1] for k in self.users), Fraction(0))

    def holds(self, point) -> bool:
        return self.evaluate(point) <= self.rhs

    def __str__(self):
        lhs = " + ".join("d%d" % k for k in self.users)
        return "%s <= %s" % (lhs, self.rhs)


_constraint = partial(tuple.__new__, RegionConstraint)   # from a (users, rhs, cycle) row


def tin_region(matrix: StrengthMatrix) -> tuple:
    """One constraint per cycle, no redundancy filtering.

    This describes the sub-channel's exact achievable region when the TIN
    condition holds (together with d >= 0); otherwise the constraints are
    still valid outer bounds for what TIN itself can do.

    The bounds are read off the per-K table ``cycles._cycle_table``, cached
    beside ``enumerate_cycles(K)`` and in its order, and the matrix's
    integer view ``matrix.scaled`` (InputError past MAX_RATIONAL_DIGITS
    digits of common denominator): a cycle's bound is its users' desired
    sum minus the ints at its edge indices, and each distinct bound becomes
    one Fraction, shared by every constraint with that bound.  Equal to
    ``cycles.cycle_bound_rhs`` cycle by cycle; GuardError above K = 9,
    before any table is built.
    """
    k = matrix.users
    cycles = enumerate_cycles(k)
    masks, edges, offsets, users_of = _cycle_table(k)
    scale, flat = matrix.scaled
    desired = _subset_sums(flat[::k + 1])
    entry = list(flat).__getitem__  # a builtin, unlike a tuple's: twice as fast in map
    bounds = [desired[mask] - sum(map(entry, edges[a:b]))
              for mask, (a, b) in zip(masks, itertools.pairwise(offsets))]
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
    """Exact membership of a rate point in {d >= 0} cut by ``constraints``."""
    pt = tuple(as_rational(x) for x in point)
    named = max((k for con in constraints for k in con.users), default=0)
    if (users is not None and len(pt) != users) or len(pt) < named:
        raise InputError("point has %d coordinates, expected %d"
                         % (len(pt), named if users is None else users))
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
    the best cyclic partition bound of the sub-channel restricted to S.
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


def combined_sum_bounds(network: Network) -> CombinedSumBounds:
    """Best partition bound per user subset, accumulated over sub-channels.

    Restricting to a subset simply silences the other users, so a subset's
    bound on one sub-channel is its desired strengths minus the heaviest
    cyclic partition of its users (and a restricted TIN-optimal sub-channel
    stays TIN optimal).  ``optimize._cycle_blocks`` gives every subset's
    heaviest-cycle bound on integer-scaled entries and one subset DP per
    sub-channel, ``optimize._partition_bounds``, the least partition bound
    of every subset at once in O(3^K); guarded by MAX_ENUM_USERS
    (GuardError above K = 9) before any of it runs.
    """
    k = network.users
    scale, blocks = _cycle_blocks(network.matrices)
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
    entries and the target at one common denominator for all K + 1 LPs of a
    negative verdict.  When the split is impossible the result carries
    every per-user cap certificate: fix all other users at their targets and
    maximize the remaining user's total, which infeasibility forces below
    its own target.  That LP may be infeasible too: ``caps`` is empty when
    fixing any K - 1 users at their targets already is.
    """
    k = network.users
    m = network.subchannels
    target = tuple(as_rational(x) for x in point)
    if len(target) != k:
        raise InputError("point has %d coordinates, expected %d" % (len(target), k))
    if any(t < 0 for t in target):
        raise InputError("point coordinates must be nonnegative rates")
    scale, flats, totals = _rescaled(network.matrices, target)
    fixed = list(enumerate(totals))

    status, _, sol, *_ = _cutting_plane_lp(flats, scale, [0] * (k * m), fixed)
    if status == "optimal":
        allocation = tuple(
            tuple(sol[chan * k:(chan + 1) * k]) for chan in range(m)
        )
        return DecompositionResult(
            feasible=True, target=target, allocation=allocation, caps=()
        )

    caps = []
    for user in range(k):
        objective = [int(v % k == user) for v in range(k * m)]
        others = [f for f in fixed if f[0] != user]
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
