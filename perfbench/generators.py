"""Seeded input generators for the benchmark workloads.

Generators return matrices as lists of rows, ``m[rx][tx]``, in integer
units; ``as_real`` turns them into exact strengths (gdof units are 1/2,
deterministic units are bit levels).  Each generator takes a
``random.Random``, so a seed fixes every input.
"""

from __future__ import annotations

from fractions import Fraction

from reference import max_in, max_out

GDOF_UNIT = Fraction(1, 2)


def _cross(rng, k, choices):
    return [[0 if r == c else rng.choice(choices) for c in range(k)]
            for r in range(k)]


def strict_tin(rng, k, choices=range(0, 5), slack=(1, 2, 3)):
    """Cross links drawn from ``choices``; every desired link exceeds its
    strongest incoming plus strongest outgoing link by a drawn slack."""
    m = _cross(rng, k, choices)
    for i in range(k):
        m[i][i] = max_in(m, i) + max_out(m, i) + rng.choice(slack)
    return m


def tin_violating(rng, k, infeasible, choices=range(0, 5)):
    """A matrix that breaks TIN at one or two users.

    With ``infeasible`` two users i, j get desired strengths below their
    mutual links, so the 2-cycle bound has a negative right-hand side and the
    cycle LP has no nonnegative point; otherwise one user's desired strength
    drops just below its TIN threshold and the LP stays feasible.
    """
    m = strict_tin(rng, k, choices)
    top = max(choices)
    i, j = rng.sample(range(k), 2)
    if infeasible:
        m[i][j] = m[j][i] = top
        m[i][i] = rng.randrange(top)
        m[j][j] = rng.randrange(top)
    else:
        if m[i][j] == 0:
            m[i][j] = top
        m[i][i] = max_in(m, i) + max_out(m, i) - 1
    return m


def tied(rng, k):
    """Deterministic strict-TIN matrix with cross links in {0, 1, 2}: many
    cyclic partitions share the maximum weight."""
    return strict_tin(rng, k, choices=(0, 1, 2), slack=(1,))


def ring(k):
    """Strict-TIN matrix with one link from each user to its predecessor.

    Its heaviest cyclic partition is unique, so every subcommand finishes
    fast on it; the warm-up pass uses it to fill per-K caches.
    """
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        m[i][(i + 1) % k] = 2
        m[i][i] = 5
    return m


def gap(eps):
    """The 3-user, 2-sub-channel gap network in units of 1/2: both
    sub-channels are TIN optimal, yet (2, 1/2, 1/2) lies inside every
    combined sum bound without being decomposable.  0 < eps < 1/4."""
    one, half, weak = 2, 1, 1 - 2 * eps
    return [
        [[one, half, 0], [0, one, half], [half, 0, one]],
        [[one, half, weak], [weak, one, half], [half, weak, one]],
    ]


GAP_POINT = (Fraction(2), Fraction(1, 2), Fraction(1, 2))
GAP_SPLIT = (Fraction(1), Fraction(1), Fraction(1))   # decomposable for every eps


def decomposable_target(mats):
    """Sum over sub-channels of d_k = n_kk - max-in - max-out.

    On each strict-TIN sub-channel that point satisfies every cycle bound:
    a cycle's links land at distinct receivers, so their total is at most
    the members' max-in sum.  The sum is therefore decomposable.
    """
    k = len(mats[0])
    return tuple(sum(m[i][i] - max_in(m, i) - max_out(m, i) for m in mats)
                 for i in range(k))


def as_real(mode, mats):
    """Exact strengths: gdof units are GDOF_UNIT, deterministic ones 1."""
    unit = GDOF_UNIT if mode == "gdof" else 1
    return [[[Fraction(v) * unit for v in row] for row in m] for m in mats]


def to_document(mode, mats):
    """Network JSON document for exact (``as_real``) matrices."""
    return {"mode": mode, "users": len(mats[0]), "subchannels": len(mats),
            "matrices": [[[json_value(v) for v in row] for row in m]
                         for m in mats]}


def json_value(value):
    """An exact rational as the program reads it: int or "p/q"."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else str(value)
