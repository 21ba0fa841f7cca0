"""Unit tests for cycles, cyclic partitions, and their enumeration."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cycle_bound_rhs, cycle_edges, cycle_weight, submatrix
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
    assert CyclicPartition([(2, 3, 1)]) == CyclicPartition([(1, 2, 3)])
    assert CyclicPartition([(3, 1, 2)]).cycles == ((1, 2, 3),)
    # opposite traversal directions stay distinct
    assert CyclicPartition([(1, 3, 2)]) != CyclicPartition([(1, 2, 3)])
    assert str(CyclicPartition([(2, 1)])) == "{(1,2)}"


def test_cycle_validation():
    for cycle, message in [
        ((), "a cycle needs at least one user"),
        ((1, 2, 1), r"cycle repeats a user: \(1, 2, 1\)"),
        ((0, 1), r"cycle users must be positive integers: \(0, 1\)"),
        ((True, 2), r"cycle users must be positive integers: \(True, 2\)"),
        ((1, 2.0), r"cycle users must be positive integers: \(1, 2.0\)"),
    ]:
        with pytest.raises(InputError, match="^%s$" % message):
            CyclicPartition([cycle])


def test_cycle_edges_follow_listing_order():
    # (u0, u1, u2) traverses e_{u0 u1}, e_{u1 u2}, e_{u2 u0}: the oracle's
    # walk, which every cycle weight the tests compare against goes through
    assert cycle_edges((1, 2, 3)) == ((1, 2), (2, 3), (3, 1))
    assert cycle_edges((1, 3, 2)) == ((1, 3), (3, 2), (2, 1))
    assert cycle_edges((4,)) == ()
    assert cycle_edges((2, 5)) == ((2, 5), (5, 2))


def test_cycle_predecessor():
    # each listed user precedes the next one, in any rotation of the listing
    for users in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        assert CyclicPartition((users,)).predecessors == (3, 1, 2)
    assert CyclicPartition(([1, 3, 2],)).predecessors == (2, 3, 1)
    assert CyclicPartition((range(1, 2),)).predecessors == (0,)


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
    CyclicPartition(((1, 2), (3,)))
    with pytest.raises(InputError, match="needs at least one cycle"):
        CyclicPartition(())
    with pytest.raises(InputError, match="not disjoint at user 2$"):
        CyclicPartition(((1, 2), (2, 3)))       # overlap
    with pytest.raises(InputError, match=r"cover users 1..K exactly once, got \[1, 2, 4\]"):
        CyclicPartition(((1, 2), (4,)))         # hole at 3
    # the cycles are scanned in order of their smallest user, each from that
    # user, so the overlap is named where the later cycle first meets it
    with pytest.raises(InputError, match="not disjoint at user 4$"):
        CyclicPartition(((4, 1), (4, 2), (3, 2)))
    # user lists in any rotation become canonical tuples
    part = CyclicPartition(([2, 1], (3,)))
    assert part.cycles == ((1, 2), (3,))
    assert all(type(cyc) is tuple for cyc in part.cycles)


def test_partition_predecessors_and_sentinel():
    part = CyclicPartition(((1, 2, 3), (4,)))
    assert part.predecessors == (3, 1, 2, 0)
    assert str(part) == "{(1,2,3), (4)}"


def test_partition_permutation_bijection():
    part = CyclicPartition(((1, 2, 3), (4,)))
    assert CyclicPartition.from_permutation((3, 1, 2, 4)) == part
    assert part.predecessors == (3, 1, 2, 0)
    for bad in ((1, 1, 3), (True,), (2.0, 1.0), ()):
        with pytest.raises(InputError):
            CyclicPartition.from_permutation(bad)


def test_from_permutation_walks_orbits_in_traversal_order():
    # predecessor of 1 is 2, of 2 is 1: the 2-cycle (1,2); 3 fixed
    part = CyclicPartition.from_permutation((2, 1, 3))
    assert part.cycles == ((1, 2), (3,))
    # a single 4-orbit: pred(1)=4, pred(4)=3, pred(3)=2, pred(2)=1
    part = CyclicPartition.from_permutation((4, 1, 2, 3))
    assert part.cycles == ((1, 2, 3, 4),)


def test_partition_stores_only_its_predecessor_vector():
    part = CyclicPartition.from_permutation((2, 1, 3))
    assert [f.name for f in dataclasses.fields(part)] == ["predecessors"]
    assert repr(part) == "CyclicPartition(predecessors=(2, 1, 0))"
    assert "cycles" not in vars(part)           # no cycle until one is read
    assert "cycles" not in vars(CyclicPartition(((3,), (2, 1))))
    assert str(part) == "{(1,2), (3)}" and "cycles" in vars(part)
    assert part.cycles is part.cycles           # built once
    # a partition built from cycles equals, and hashes as, its permutation
    same = CyclicPartition(((3,), (2, 1)))
    assert same == part and hash(same) == hash(part)


def test_participating_edges():
    # the cross edges a partition traverses are its cycles' edges, and
    # they alone make up its weight
    part = CyclicPartition(((1, 2), (3,)))
    assert [cycle_edges(cyc) for cyc in part.cycles] == [((1, 2), (2, 1)), ()]
    full = CyclicPartition(((1, 3, 2),))
    edges = sorted(edge for cyc in full.cycles for edge in cycle_edges(cyc))
    assert edges == [(1, 3), (2, 1), (3, 2)]
    weight = sum(MAT.edge_weight(i, j) for i, j in edges)
    assert weight == 2 + 3 + 6 and partition_bound(full, MAT) == 27 - weight


def test_partition_bound_matches_manual_sum():
    part = CyclicPartition(((1, 2), (3,)))
    # weight = a_12 + a_21 = 1 + 3
    assert sum(cycle_weight(cyc, MAT) for cyc in part.cycles) == 4
    assert partition_bound(part, MAT) == 27 - 4
    with pytest.raises(InputError):
        partition_bound(part, submatrix(MAT, [1, 2]))


@given(st.permutations(list(range(1, 7))))
def test_permutation_roundtrip(perm):
    part = CyclicPartition.from_permutation(tuple(perm))
    # predecessors really are the permutation (0 rewritten to the user itself)
    pred = part.predecessors
    rebuilt = tuple(p if p != 0 else k + 1 for k, p in enumerate(pred))
    assert rebuilt == tuple(perm)


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
