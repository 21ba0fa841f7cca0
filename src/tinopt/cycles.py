"""Cycles and cyclic partitions on the directed interference graph.

The K-user network is viewed as a complete directed graph on users 1..K.
Edge ``e_ij`` runs from user j to user i and carries the interference
strength caused by transmitter j at receiver i (self-edges weigh zero).

A cycle is a cyclically ordered subset of users, without repetitions; the
cycle written (u0, u1, ..., u_{L-1}) traverses the edges e_{u0 u1},
e_{u1 u2}, ..., e_{u_{L-1} u0}, so each listed user is the *predecessor*
of the user that follows it.  A cyclic partition is a set of disjoint
cycles covering every user exactly once; identifying each user with its
predecessor makes cyclic partitions the same thing as permutations of
{1..K} (trivial cycles = fixed points).

Enumeration is exhaustive and therefore guarded: K is capped at
MAX_ENUM_USERS for the operations that walk all cycles or partitions.  The
LPs in ``optimize`` cut with K^2 arc rows instead, the combined bounds read
per-subset heaviest cycles from a subset DP, and ``region.tin_region``
reads ``_cycle_table(K)``, the cycles of ``enumerate_cycles(K)`` as flat
arrays of user masks and edge indices, so each bound is an integer sum over
integer-scaled entries, one level of cycle lengths at a time, rather than a
Fraction sum per cycle (``Cycle.weight``).
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import GuardError, InputError, StrengthMatrix, _shown

__all__ = [
    "MAX_ENUM_USERS",
    "Cycle",
    "CyclicPartition",
    "enumerate_cycles",
    "enumerate_partitions",
    "cycle_count",
    "partition_count",
    "partition_bound",
]

MAX_ENUM_USERS = 9


def _check_enum_guard(k: int) -> None:
    if k > MAX_ENUM_USERS:
        raise GuardError(
            "exhaustive enumeration limit exceeded: K = %s (max %d)"
            % (_shown(k), MAX_ENUM_USERS)
        )
    if k < 1:
        raise InputError("need at least one user, got K = %s" % _shown(k))


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    """A cyclically ordered subset of users, canonicalized.

    ``users`` is the traversal order rotated so the smallest user comes
    first; rotation preserves the cycle, so this is a canonical form, while
    the two traversal directions of a 3-or-more cycle remain distinct
    (as they must: they traverse different edges).
    """

    users: tuple

    def __post_init__(self):
        users = tuple(self.users)
        if not users:
            raise InputError("a cycle needs at least one user")
        if len(set(users)) != len(users):
            raise InputError("cycle repeats a user: %s" % _shown(users))
        if any((not isinstance(u, int)) or isinstance(u, bool) or u < 1
               for u in users):
            raise InputError("cycle users must be positive integers: %s" % _shown(users))
        pivot = users.index(min(users))
        object.__setattr__(self, "users", users[pivot:] + users[:pivot])

    def __len__(self):
        return len(self.users)

    def __iter__(self):
        return iter(self.users)

    def __str__(self):
        return "(" + ",".join(map(_shown, self.users)) + ")"

    @property
    def trivial(self) -> bool:
        return len(self.users) == 1

    def edges(self) -> tuple:
        """The traversed edges as (i, j) pairs, meaning e_ij from j to i.

        The trivial cycle has no cross edges.
        """
        users = self.users
        if len(users) == 1:
            return ()
        return tuple(
            (users[t], users[(t + 1) % len(users)]) for t in range(len(users))
        )

    def predecessor(self, k: int) -> int:
        """The user preceding k along the cycle (k itself for trivial cycles)."""
        users = self.users
        try:
            pos = users.index(k)
        except ValueError:
            raise InputError("user %s is not on cycle %s" % (_shown(k), self)) from None
        return users[pos - 1]

    def weight(self, matrix: StrengthMatrix) -> Fraction:
        return sum((matrix.edge_weight(i, j) for i, j in self.edges()), Fraction(0))


# ---------------------------------------------------------------------------
# cyclic partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicPartition:
    """Disjoint cycles covering users 1..K exactly once."""

    cycles: tuple

    def __post_init__(self):
        cycles = tuple(sorted((c if isinstance(c, Cycle) else Cycle(tuple(c))
                               for c in self.cycles),
                              key=lambda c: c.users[0]))
        if not cycles:
            raise InputError("a cyclic partition needs at least one cycle")
        seen = set()
        for cyc in cycles:
            for u in cyc.users:
                if u in seen:
                    raise InputError("partition cycles are not disjoint at user %s"
                                     % _shown(u))
                seen.add(u)
        if seen != set(range(1, len(seen) + 1)):
            raise InputError("partition must cover users 1..K exactly once, got %s"
                             % _shown(sorted(seen)))
        object.__setattr__(self, "cycles", cycles)

    @property
    def users(self) -> int:
        return sum(len(c) for c in self.cycles)

    def __str__(self):
        return "{" + ", ".join(str(c) for c in self.cycles) + "}"

    def predecessor(self, k: int) -> "int | None":
        """Predecessor of user k, or None when k sits on a trivial cycle."""
        for cyc in self.cycles:
            if k in cyc.users:
                if cyc.trivial:
                    return None
                return cyc.predecessor(k)
        raise InputError("user %s is not covered by %s" % (_shown(k), self))

    def predecessors(self) -> tuple:
        """Predecessor vector (index k-1 for user k); 0 marks trivial cycles."""
        out = [0] * self.users
        for cyc in self.cycles:
            if cyc.trivial:
                continue
            users = cyc.users
            for t, u in enumerate(users):
                out[u - 1] = users[t - 1]
        return tuple(out)

    def participating_edges(self) -> tuple:
        """All cross edges (i, j) traversed by the partition's cycles."""
        out = []
        for cyc in self.cycles:
            out.extend(cyc.edges())
        return tuple(sorted(out))

    def weight(self, matrix: StrengthMatrix) -> Fraction:
        return sum((cyc.weight(matrix) for cyc in self.cycles), Fraction(0))

    def to_permutation(self) -> tuple:
        """The predecessor map as a permutation (fixed point = trivial cycle)."""
        pred = self.predecessors()
        return tuple(p if p != 0 else k + 1 for k, p in enumerate(pred))

    @classmethod
    def from_permutation(cls, perm) -> "CyclicPartition":
        """Inverse of :meth:`to_permutation`.

        ``perm[k-1]`` is the predecessor of user k (k itself for a trivial
        cycle).  Must be a permutation of 1..K.
        """
        perm = tuple(perm)
        k = len(perm)
        if sorted(perm) != list(range(1, k + 1)):
            raise InputError("not a permutation of 1..%d: %s" % (k, _shown(perm)))
        # Walk each orbit in traversal order: the user after u on its cycle
        # is the one whose predecessor is u, i.e. the preimage of u.
        succ = [0] * (k + 1)
        for user in range(1, k + 1):
            succ[perm[user - 1]] = user
        seen = [False] * (k + 1)
        cycles = []
        for start in range(1, k + 1):
            if seen[start]:
                continue
            order = []
            u = start
            while not seen[u]:
                seen[u] = True
                order.append(u)
                u = succ[u]
            cycles.append(Cycle(tuple(order)))
        return cls(tuple(cycles))


def _check_covers(partition: CyclicPartition, matrix: StrengthMatrix) -> None:
    """InputError unless the partition covers exactly the matrix's users."""
    if partition.users != matrix.users:
        raise InputError(
            "partition covers %d users but the matrix has %d"
            % (partition.users, matrix.users)
        )


def partition_bound(partition: CyclicPartition, matrix: StrengthMatrix) -> Fraction:
    """Sum bound implied by a cyclic partition: all desired strengths minus
    the total interference weight the partition accumulates."""
    _check_covers(partition, matrix)
    desired = sum(map(matrix.desired, range(1, matrix.users + 1)), Fraction(0))
    return desired - partition.weight(matrix)


# ---------------------------------------------------------------------------
# exhaustive enumeration (guarded)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_cycles(k: int) -> tuple:
    """All cycles on users 1..K, trivial ones included.

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
                cycles.append(Cycle((head,) + tail))
    return tuple(cycles)


@lru_cache(maxsize=None)
def _cycle_table(k: int) -> tuple:
    """``enumerate_cycles(k)`` as flat arrays, for summing cycle bounds one
    level of cycle lengths at a time: (masks, levels, closes, users_of).

    Cycle c covers the users of the bitmask ``masks[c]`` (bit u - 1 for
    user u).  Edge e_ij of a row-major K x K matrix has index
    (i - 1) * K + j - 1.  The cycles come in length order, and a cycle
    (u0, ..., u_{L-1}) of length L >= 2 minus its last user is an earlier
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
    index = {cyc.users: c for c, cyc in enumerate(cycles)}
    masks, closes = array("H"), bytearray()
    levels = [(array("I"), bytearray()) for _ in range(k - 1)]
    for cyc in cycles:
        users = cyc.users
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


@lru_cache(maxsize=None)
def enumerate_partitions(k: int) -> tuple:
    """All cyclic partitions of users 1..K (one per permutation: K! total)."""
    _check_enum_guard(k)
    return tuple(
        CyclicPartition.from_permutation(perm)
        for perm in itertools.permutations(range(1, k + 1))
    )


def cycle_count(k: int) -> int:
    """Closed form for len(enumerate_cycles(k))."""
    return sum(
        math.comb(k, size) * math.factorial(size - 1) for size in range(1, k + 1)
    )


def partition_count(k: int) -> int:
    """Closed form for len(enumerate_partitions(k))."""
    return math.factorial(k)

