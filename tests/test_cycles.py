"""Unit tests for cycles, cyclic partitions, and their enumeration."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from fractions import Fraction

import pytest

from oracles import (cycle_bound_rhs, cycle_edges, cycle_weight, orbit_cycles,
                     partition_of_cycles, submatrix)
from tinopt.cycles import (
    MAX_ENUM_USERS,
    CyclicPartition,
    cycle_count,
    enumerate_cycles,
    enumerate_partitions,
    partition_bound,
    partition_count,
)
from tinopt.model import GuardError, InputError, StrengthMatrix

MAT = StrengthMatrix.from_values(
    "gdof",
    [[9, 1, 2],
     [3, 9, 4],
     [5, 6, 9]],
)

# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def test_cycle_canonical_rotation():
    # a cycle reads from its smallest user, whatever rotation listed it
    assert CyclicPartition((3, 1, 2)).cycles == ((1, 2, 3),)
    assert partition_of_cycles([(2, 3, 1)]) == CyclicPartition((3, 1, 2))
    # opposite traversal directions stay distinct
    assert CyclicPartition((2, 3, 1)).cycles == ((1, 3, 2),)
    assert CyclicPartition((2, 3, 1)) != CyclicPartition((3, 1, 2))
    assert str(CyclicPartition((2, 1))) == "{(1,2)}"


def test_cycle_edges_follow_listing_order():
    # (u0, u1, u2) traverses e_{u0 u1}, e_{u1 u2}, e_{u2 u0}: the oracle's
    # walk, which every cycle weight the tests compare against goes through
    assert cycle_edges((1, 2, 3)) == ((1, 2), (2, 3), (3, 1))
    assert cycle_edges((1, 3, 2)) == ((1, 3), (3, 2), (2, 1))
    assert cycle_edges((4,)) == ()
    assert cycle_edges((2, 5)) == ((2, 5), (5, 2))


def test_cycle_predecessor():
    # each listed user precedes the next one, the last the first; a user on
    # a trivial cycle has predecessor 0
    assert CyclicPartition((3, 1, 2, 0)).cycles == ((1, 2, 3), (4,))
    for part in enumerate_partitions(4):
        for cyc in part.cycles:
            for before, u in zip(cyc[-1:] + cyc[:-1], cyc):
                assert part.predecessors[u - 1] == (0 if before == u else before)


def test_cycle_weight_and_bound():
    # weight of (1,2,3) = a_12 + a_23 + a_31 (entry(i, j) = from tx j at rx i)
    cyc = (1, 2, 3)
    assert cycle_weight(cyc, MAT) == 1 + 4 + 5
    assert cycle_bound_rhs(cyc, MAT) == 27 - 10
    rev = (1, 3, 2)
    assert cycle_weight(rev, MAT) == 2 + 6 + 3
    assert cycle_weight((2,), MAT) == 0
    assert cycle_bound_rhs((2,), MAT) == 9


# ---------------------------------------------------------------------------
# cyclic partitions
# ---------------------------------------------------------------------------


def test_partition_validation():
    # every vector that is not a partition's gets the one message
    for pred, shown in [
        ((), "()"),
        (None, "None"),
        ("21", "'21'"),
        (((1, 2),), "((1, 2),)"),               # cycles are not a vector
        ((True, 0), "(True, 0)"),
        ((2, True), "(2, True)"),
        ((1.0, 0), "(1.0, 0)"),
        ((1, 0), "(1, 0)"),                     # its own predecessor
        ((3, 0, 0), "(3, 0, 0)"),               # 3 is trivial: no successor
        ((2, 1, 1), "(2, 1, 1)"),               # 1 precedes two users
        ((0, 5), "(0, 5)"),
        ((-1, 0), "(-1, 0)"),
        ((10 ** 5000, 0), "an oversized tuple"),
    ]:
        message = "not the predecessor vector of a cyclic partition: " + shown
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            CyclicPartition(pred)
    # a list is taken too, and stored as the tuple
    assert CyclicPartition([0, 3, 2]).predecessors == (0, 3, 2)
    assert CyclicPartition((0,)).cycles == ((1,),)


def test_partition_predecessors_and_sentinel():
    part = CyclicPartition((3, 1, 2, 0))
    assert part == partition_of_cycles(((2, 3, 1), (4,)))
    assert str(part) == "{(1,2,3), (4)}"


def test_partition_permutation_bijection():
    # each 0 read as the user itself, the partitions' vectors are the K!
    # permutations of 1..K
    for k in range(1, 6):
        assert {tuple(p or u for u, p in enumerate(part.predecessors, start=1))
                for part in enumerate_partitions(k)} == set(
                    itertools.permutations(range(1, k + 1)))


def test_cycles_walk_orbits_in_traversal_order():
    # predecessor of 1 is 2, of 2 is 1: the 2-cycle (1,2); 3 trivial
    part = CyclicPartition((2, 1, 0))
    assert part.cycles == ((1, 2), (3,))
    # a single 4-orbit: pred(1)=4, pred(4)=3, pred(3)=2, pred(2)=1
    part = CyclicPartition((4, 1, 2, 3))
    assert part.cycles == ((1, 2, 3, 4),)
    assert all(type(cyc) is tuple for cyc in part.cycles)


def test_partition_stores_only_its_predecessor_vector():
    part = CyclicPartition((2, 1, 0))
    assert [f.name for f in dataclasses.fields(part)] == ["predecessors"]
    assert repr(part) == "CyclicPartition(predecessors=(2, 1, 0))"
    assert str(part) == "{(1,2), (3)}"
    assert vars(part) == {"predecessors": (2, 1, 0)}    # reading cycles kept none
    # a partition built from cycles equals, and hashes as, its vector
    same = partition_of_cycles(((3,), (2, 1)))
    assert same == part and hash(same) == hash(part)


def test_participating_edges():
    # the cross edges a partition traverses are its cycles' edges, and
    # they alone make up its weight
    part = CyclicPartition((2, 1, 0))
    assert [cycle_edges(cyc) for cyc in part.cycles] == [((1, 2), (2, 1)), ()]
    full = CyclicPartition((2, 3, 1))
    edges = sorted(edge for cyc in full.cycles for edge in cycle_edges(cyc))
    assert edges == [(1, 3), (2, 1), (3, 2)]
    weight = sum(MAT.edge_weight(i, j) for i, j in edges)
    assert weight == 2 + 3 + 6 and partition_bound(full, MAT) == 27 - weight


def test_partition_bound_matches_manual_sum():
    part = CyclicPartition((2, 1, 0))
    # weight = a_12 + a_21 = 1 + 3
    assert sum(cycle_weight(cyc, MAT) for cyc in part.cycles) == 4
    assert partition_bound(part, MAT) == 27 - 4
    with pytest.raises(InputError):
        partition_bound(part, submatrix(MAT, [1, 2]))


def test_permutation_roundtrip():
    # every partition of K = 1..6 users, from its permutation
    for k in range(1, 7):
        for perm in itertools.permutations(range(1, k + 1)):
            part = CyclicPartition(tuple(0 if p == u else p
                                         for u, p in enumerate(perm, start=1)))
            assert CyclicPartition(part.predecessors) == part
            assert eval(repr(part)) == part
            assert part.cycles == orbit_cycles(part.predecessors)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_small():
    for k in range(1, 6):
        cycles = enumerate_cycles(k)
        assert len(cycles) == cycle_count(k)
        assert len(set(cycles)) == len(cycles)
        parts = enumerate_partitions(k)
        assert len(parts) == partition_count(k) == math.factorial(k)
        assert len(set(parts)) == len(parts)


def test_enumeration_lists_trivial_cycles_first():
    cycles = enumerate_cycles(4)
    assert cycles[:4] == ((1,), (2,), (3,), (4,))


def test_known_cycle_counts():
    assert [cycle_count(k) for k in range(1, 8)] == [1, 3, 8, 24, 89, 415, 2372]


def test_enumeration_guard():
    assert MAX_ENUM_USERS == 9
    with pytest.raises(GuardError):
        enumerate_cycles(MAX_ENUM_USERS + 1)
    with pytest.raises(GuardError):
        enumerate_partitions(MAX_ENUM_USERS + 1)
    with pytest.raises(InputError):
        enumerate_cycles(0)
    # K must be an int, even where an equal int is already cached; the
    # closed-form counts take any K >= 1 but check it the same way
    assert enumerate_cycles(1) and enumerate_partitions(2)
    for count in (cycle_count, partition_count):
        assert count(MAX_ENUM_USERS + 1) > 0
    for call in (enumerate_cycles, enumerate_partitions, cycle_count, partition_count):
        for bad in (True, False, 1.0, 2.0, 2.5, "3", None, 0, -3):
            with pytest.raises(InputError, match="K must be an integer|at least one user"):
                call(bad)


def test_every_partition_weight_is_a_cycle_weight_sum():
    for part in enumerate_partitions(3):
        total = sum((cycle_weight(cyc, MAT) for cyc in part.cycles), Fraction(0))
        assert partition_bound(part, MAT) == 27 - total
