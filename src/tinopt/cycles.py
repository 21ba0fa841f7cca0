"""Cycles and cyclic partitions on the directed interference graph.

The K-user network is viewed as a complete directed graph on users 1..K.
Edge ``e_ij`` runs from user j to user i and carries the interference
strength caused by transmitter j at receiver i (self-edges weigh zero).

A cycle is a cyclically ordered subset of users, without repetitions; the
cycle written (u0, u1, ..., u_{L-1}) traverses the edges e_{u0 u1},
e_{u1 u2}, ..., e_{u_{L-1} u0}, so each listed user is the *predecessor*
of the user that follows it.  A cycle is held as that user tuple, rotated
so its smallest user comes first: rotation preserves the cycle, so this is
a canonical form, while the two traversal directions of a 3-or-more cycle
remain distinct (they traverse different edges).  A cyclic partition is a
set of disjoint cycles covering every user exactly once; identifying each
user with its predecessor makes cyclic partitions the same thing as
permutations of {1..K} (trivial cycles = fixed points).
``CyclicPartition`` is built from and stores that predecessor vector, 0
for a trivial cycle, and walks its cycles from it when they are read.

Enumeration is exhaustive and therefore guarded: K is capped at
MAX_ENUM_USERS for the operations that walk all cycles or partitions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import GuardError, InputError, StrengthMatrix, _shown

__all__ = [
    "MAX_ENUM_USERS",
    "CyclicPartition",
    "enumerate_cycles",
    "enumerate_partitions",
    "cycle_count",
    "partition_count",
    "partition_bound",
]

MAX_ENUM_USERS = 9


def _check_users(k: int) -> None:
    """InputError unless K is an int (not a bool) of at least 1."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise InputError("K must be an integer, got %s" % _shown(k))
    if k < 1:
        raise InputError("need at least one user, got K = %s" % _shown(k))


def _check_enum_guard(k: int) -> None:
    _check_users(k)
    if k > MAX_ENUM_USERS:
        raise GuardError(
            "exhaustive enumeration limit exceeded: K = %s (max %d)"
            % (_shown(k), MAX_ENUM_USERS)
        )


# ---------------------------------------------------------------------------
# cyclic partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicPartition:
    """Disjoint cycles covering users 1..K exactly once, built from and
    stored as the predecessor vector.

    ``predecessors[k-1]`` is user k's predecessor, 0 on a trivial cycle, as
    reports and ``--partition`` write it; ``==``, ``hash`` and ``repr``
    read it.  The constructor takes a non-empty list or tuple of ints (not
    bools) in which no user is its own predecessor and which, each 0 read
    as the user itself, is a permutation of 1..K, so every user has exactly
    one successor; anything else raises InputError.  ``cycles`` is walked
    from the vector on each read: canonical user tuples in order of their
    smallest user.
    """

    predecessors: tuple

    def __post_init__(self):
        pred = self.predecessors
        users = range(1, len(pred) + 1) if isinstance(pred, (tuple, list)) else ()
        if not (users and all(type(p) is int and p != u for u, p in zip(users, pred))
                and sorted(p or u for u, p in zip(users, pred)) == list(users)):
            raise InputError("not the predecessor vector of a cyclic partition: %s"
                             % _shown(pred))
        object.__setattr__(self, "predecessors", tuple(pred))

    @property
    def cycles(self) -> tuple:
        # the user after u on its cycle is the one whose predecessor is u
        succ = {p: u for u, p in enumerate(self.predecessors, start=1) if p}
        cycles, seen = [], set()
        for start in range(1, self.users + 1):
            order, u = [], start
            while u not in seen:
                seen.add(u)
                order.append(u)
                u = succ.get(u, u)
            if order:
                cycles.append(tuple(order))
        return tuple(cycles)

    @property
    def users(self) -> int:
        return len(self.predecessors)

    def __str__(self):
        return "{" + ", ".join("(%s)" % ",".join(map(str, c)) for c in self.cycles) + "}"


def _check_covers(partition: CyclicPartition, matrix: StrengthMatrix) -> None:
    """InputError unless the partition covers exactly the matrix's users."""
    if partition.users != matrix.users:
        raise InputError(
            "partition covers %d users but the matrix has %d"
            % (partition.users, matrix.users)
        )


def _participating_strengths(flat, predecessors) -> tuple:
    """n_{pred(u),u} for each user u, 0 on a trivial cycle, read from the
    row-major integer view ``flat`` (``StrengthMatrix.scaled``): the
    partition's edge weights, scaled.  On bit levels they are its
    participating widths, through which alone its GF(2) system, rank,
    kernel and dominance depend on it."""
    k = len(predecessors)
    return tuple(flat[(p - 1) * k + u] if p else 0 for u, p in enumerate(predecessors))


def partition_bound(partition: CyclicPartition, matrix: StrengthMatrix) -> Fraction:
    """Sum bound implied by a cyclic partition: all desired strengths minus
    the total interference weight the partition accumulates."""
    _check_covers(partition, matrix)
    scale, flat = matrix.scaled
    weight = sum(_participating_strengths(flat, partition.predecessors))
    return Fraction(sum(flat[::matrix.users + 1]) - weight, scale)


# ---------------------------------------------------------------------------
# exhaustive enumeration (guarded)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_cycles(k: int) -> tuple:
    """All cycles on users 1..K as canonical user tuples, trivial ones
    included, in order of length, then of user set, then of traversal.

    There are sum over L of C(K, L) * (L-1)! of them, since a cardinality-L
    subset supports (L-1)! distinct cyclic orders.
    """
    _check_enum_guard(k)
    cycles = []
    users = range(1, k + 1)
    for size in range(1, k + 1):
        for subset in itertools.combinations(users, size):
            head, rest = subset[0], subset[1:]
            for tail in itertools.permutations(rest):
                cycles.append((head,) + tail)
    return tuple(cycles)


@lru_cache(maxsize=None)
def enumerate_partitions(k: int) -> tuple:
    """All cyclic partitions of users 1..K (one per permutation: K! total)."""
    _check_enum_guard(k)
    return tuple(
        CyclicPartition(tuple(0 if p == u else p for u, p in enumerate(perm, start=1)))
        for perm in itertools.permutations(range(1, k + 1))
    )


def cycle_count(k: int) -> int:
    """Closed form for len(enumerate_cycles(k)), for any K >= 1."""
    _check_users(k)
    return sum(
        math.comb(k, size) * math.factorial(size - 1) for size in range(1, k + 1)
    )


def partition_count(k: int) -> int:
    """Closed form for len(enumerate_partitions(k)), for any K >= 1."""
    _check_users(k)
    return math.factorial(k)

