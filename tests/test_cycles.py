"""Unit tests for cycles, cyclic partitions, and their enumeration."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cycle_bound_rhs, cycle_weight, submatrix
from tinopt.cycles import (
    MAX_ENUM_USERS,
    Cycle,
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
    assert Cycle((2, 3, 1)).users == (1, 2, 3)
    assert Cycle((3, 1, 2)) == Cycle((1, 2, 3))
    # opposite traversal directions stay distinct
    assert Cycle((1, 3, 2)) != Cycle((1, 2, 3))
    assert str(Cycle((2, 1))) == "(1,2)"


def test_cycle_validation():
    with pytest.raises(InputError):
        Cycle(())
    with pytest.raises(InputError):
        Cycle((1, 2, 1))
    with pytest.raises(InputError):
        Cycle((0, 1))
    with pytest.raises(InputError):
        Cycle((1, True))


def test_cycle_edges_follow_listing_order():
    # (u0, u1, u2) traverses e_{u0 u1}, e_{u1 u2}, e_{u2 u0}
    assert Cycle((1, 2, 3)).edges() == ((1, 2), (2, 3), (3, 1))
    assert Cycle((1, 3, 2)).edges() == ((1, 3), (3, 2), (2, 1))
    assert Cycle((4,)).edges() == ()
    assert Cycle((2, 5)).edges() == ((2, 5), (5, 2))


def test_cycle_predecessor():
    # each listed user precedes the next one, in any rotation of the listing
    for users in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        assert CyclicPartition((Cycle(users),)).predecessors == (3, 1, 2)
    assert CyclicPartition((Cycle((1, 3, 2)),)).predecessors == (2, 3, 1)
    assert CyclicPartition((Cycle((1,)),)).predecessors == (0,)


def test_cycle_weight_and_bound():
    # weight of (1,2,3) = a_12 + a_23 + a_31 (entry(i, j) = from tx j at rx i)
    cyc = Cycle((1, 2, 3))
    assert cycle_weight(cyc, MAT) == 1 + 4 + 5
    assert cycle_bound_rhs(cyc, MAT) == 27 - 10
    rev = Cycle((1, 3, 2))
    assert cycle_weight(rev, MAT) == 2 + 6 + 3
    assert cycle_weight(Cycle((2,)), MAT) == 0
    assert cycle_bound_rhs(Cycle((2,)), MAT) == 9


# ---------------------------------------------------------------------------
# cyclic partitions
# ---------------------------------------------------------------------------


def test_partition_validation():
    CyclicPartition((Cycle((1, 2)), Cycle((3,))))
    with pytest.raises(InputError):
        CyclicPartition(())
    with pytest.raises(InputError):
        CyclicPartition((Cycle((1, 2)), Cycle((2, 3))))  # overlap
    with pytest.raises(InputError):
        CyclicPartition((Cycle((1, 2)), Cycle((4,))))    # hole at 3
    # raw tuples are promoted to Cycle
    part = CyclicPartition(((2, 1), (3,)))
    assert part.cycles[0] == Cycle((1, 2))


def test_partition_predecessors_and_sentinel():
    part = CyclicPartition((Cycle((1, 2, 3)), Cycle((4,))))
    assert part.predecessors == (3, 1, 2, 0)
    assert str(part) == "{(1,2,3), (4)}"


def test_partition_permutation_bijection():
    part = CyclicPartition((Cycle((1, 2, 3)), Cycle((4,))))
    assert CyclicPartition.from_permutation((3, 1, 2, 4)) == part
    assert part.predecessors == (3, 1, 2, 0)
    for bad in ((1, 1, 3), (True,), (2.0, 1.0), ()):
        with pytest.raises(InputError):
            CyclicPartition.from_permutation(bad)


def test_from_permutation_walks_orbits_in_traversal_order():
    # predecessor of 1 is 2, of 2 is 1: the 2-cycle (1,2); 3 fixed
    part = CyclicPartition.from_permutation((2, 1, 3))
    assert part.cycles == (Cycle((1, 2)), Cycle((3,)))
    # a single 4-orbit: pred(1)=4, pred(4)=3, pred(3)=2, pred(2)=1
    part = CyclicPartition.from_permutation((4, 1, 2, 3))
    assert part.cycles == (Cycle((1, 2, 3, 4)),)


def test_partition_stores_only_its_predecessor_vector(monkeypatch):
    built = []
    post_init = Cycle.__post_init__
    monkeypatch.setattr(Cycle, "__post_init__",
                        lambda self: built.append(self.users) or post_init(self))
    part = CyclicPartition.from_permutation((2, 1, 3))
    assert built == []                          # no Cycle until one is read
    assert [f.name for f in dataclasses.fields(part)] == ["predecessors"]
    assert repr(part) == "CyclicPartition(predecessors=(2, 1, 0))"
    assert "cycles" not in vars(part)
    assert str(part) == "{(1,2), (3)}" and built == [(1, 2), (3,)]
    assert part.cycles is part.cycles           # built once
    # a partition built from cycles equals, and hashes as, its permutation
    same = CyclicPartition(((3,), (2, 1)))
    assert same == part and hash(same) == hash(part)


def test_participating_edges():
    # the cross edges a partition traverses are its cycles' edges, and
    # they alone make up its weight
    part = CyclicPartition((Cycle((1, 2)), Cycle((3,))))
    assert [cyc.edges() for cyc in part.cycles] == [((1, 2), (2, 1)), ()]
    full = CyclicPartition((Cycle((1, 3, 2)),))
    edges = sorted(edge for cyc in full.cycles for edge in cyc.edges())
    assert edges == [(1, 3), (2, 1), (3, 2)]
    assert full.weight(MAT) == sum(MAT.edge_weight(i, j) for i, j in edges) == 2 + 3 + 6


def test_partition_bound_matches_manual_sum():
    part = CyclicPartition((Cycle((1, 2)), Cycle((3,))))
    # weight = a_12 + a_21 = 1 + 3
    assert part.weight(MAT) == 4
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
    assert [c.users for c in cycles[:4]] == [(1,), (2,), (3,), (4,)]


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


def test_every_partition_weight_is_a_cycle_weight_sum():
    for part in enumerate_partitions(3):
        total = sum((cyc.weight(MAT) for cyc in part.cycles), Fraction(0))
        assert part.weight(MAT) == total
