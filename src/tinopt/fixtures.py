"""Bundled example networks and the cautionary LP.

The builders are the one source of these networks: ``tinopt gap`` writes
the parametric one as a file, and the tests write any other they need
with ``dumps_canonical(network_to_dict(builder()))``.
"""

from __future__ import annotations

from fractions import Fraction

from .model import InputError, Network, StrengthMatrix, as_rational
from .optimize import LinearProgram

__all__ = [
    "example1",
    "example2",
    "gap_network",
    "gap_point",
    "caution_lp",
    "acyclic4",
    "cyclic_dominant4",
    "builtin_networks",
]


def _det(rows_list) -> Network:
    mats = tuple(
        StrengthMatrix.from_values("deterministic", rows) for rows in rows_list
    )
    return Network(mode="deterministic", matrices=mats)


def example1() -> Network:
    """3 users, 3 sub-channels; every sub-channel TIN optimal and invertible.

    Each sub-channel has sum-capacity 6 (best partition weight 3 against a
    desired-strength total of 9), so the parallel network separates at 18.
    """
    return _det([
        [[4, 2, 2],
         [0, 3, 1],
         [0, 0, 2]],
        [[3, 2, 2],
         [0, 3, 0],
         [0, 1, 3]],
        [[2, 0, 0],
         [1, 3, 2],
         [0, 1, 4]],
    ])


def example2() -> Network:
    """Like example1 in its first two sub-channels; the third is a symmetric
    sub-channel whose two optimal partitions (the directed 3-cycles) both
    produce a rank-deficient participating system: invertibility fails there.
    """
    return _det([
        [[4, 2, 2],
         [0, 3, 1],
         [0, 0, 2]],
        [[3, 2, 2],
         [0, 3, 0],
         [0, 1, 3]],
        [[3, 1, 1],
         [1, 3, 1],
         [1, 1, 3]],
    ])


def gap_network(eps=Fraction(1, 10)) -> Network:
    """3-user, 2-sub-channel gdof network whose combined region strictly
    exceeds the sum of its per-sub-channel regions.

    Both sub-channels are TIN optimal with dominant optimal partitions, so
    the *sum* still separates; the gap shows at the region level, e.g. the
    point returned by :func:`gap_point`.  Any 0 < eps < 1/4 works.
    """
    eps = as_rational(eps)
    if not (0 < eps < Fraction(1, 4)):
        raise InputError("epsilon must satisfy 0 < eps < 1/4, got %s" % eps)
    one = Fraction(1)
    half = Fraction(1, 2)
    weak = half - eps
    sub1 = (
        (one, half, Fraction(0)),
        (Fraction(0), one, half),
        (half, Fraction(0), one),
    )
    sub2 = (
        (one, half, weak),
        (weak, one, half),
        (half, weak, one),
    )
    return Network(mode="gdof", matrices=(
        StrengthMatrix(mode="gdof", entries=sub1),
        StrengthMatrix(mode="gdof", entries=sub2),
    ))


def gap_point() -> tuple:
    """Inside the combined-bound region of gap_network, yet not decomposable."""
    return (Fraction(2), Fraction(1, 2), Fraction(1, 2))


def caution_lp(nonneg: bool = True) -> LinearProgram:
    """A plain LP showing nonnegativity is *not* redundant in general.

    maximize R1 + R2 + R3 subject to R1+R2 <= 10, R1+R3 <= 10, R2+R3 <= 30.
    With R >= 0 the optimum is 20 at (0, 10, 10); with free variables it is
    25 at (-5, 15, 15).  No strictly-TIN-optimal sub-channel can generate
    such a constraint set: there, dropping nonnegativity never changes the
    optimum.
    """
    return LinearProgram.build(
        objective=[1, 1, 1],
        constraints=[
            ([1, 1, 0], "<=", 10),
            ([1, 0, 1], "<=", 10),
            ([0, 1, 1], "<=", 30),
        ],
        nonneg=nonneg,
    )


def acyclic4() -> Network:
    """4-user sub-channel whose unique optimal partition (the full cycle
    4 -> 1 -> 2 -> 3 -> 4 of predecessors) is dominant and whose participating
    bit structure is a forest: invertibility via the acyclicity test alone."""
    return _det([
        [[4, 2, 1, 0],
         [0, 4, 2, 1],
         [1, 0, 4, 2],
         [2, 1, 0, 4]],
    ])


def cyclic_dominant4() -> Network:
    """4-user sub-channel whose participating bit structure *contains* a
    bipartite cycle yet is invertible (rank 11 on 11 bits): acyclicity is
    sufficient, not necessary.  The optimal partition is again dominant."""
    return _det([
        [[5, 3, 2, 1],
         [0, 6, 3, 2],
         [0, 2, 6, 3],
         [2, 1, 0, 5]],
    ])


def builtin_networks() -> dict:
    """Name -> builder for the bundled networks."""
    return {
        "example1": example1,
        "example2": example2,
        "gap_eps_1_10": gap_network,
        "acyclic4": acyclic4,
        "cyclic_dominant4": cyclic_dominant4,
    }
