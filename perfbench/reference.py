"""Independent reference computations used to check the program's outputs.

Nothing here calls into tinopt: each quantity is recomputed from the raw
network matrices with exact ``Fraction``/``int`` arithmetic by a route that
differs from the one under test.

Matrices are lists of rows, ``m[rx][tx]`` (0-based), as the generators emit
them.  A permutation ``perm`` maps each user (column) to its predecessor
(row), so its weight is ``sum(m[perm[c]][c] for c != perm[c])``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def frac(value) -> Fraction:
    """Parse a report value (int or "p/q" string) exactly."""
    return Fraction(value)


def max_in(m, i):
    """Strongest interference suffered at receiver i."""
    return max((m[i][j] for j in range(len(m)) if j != i), default=0)


def max_out(m, i):
    """Strongest interference caused by transmitter i."""
    return max((m[j][i] for j in range(len(m)) if j != i), default=0)


def tin_satisfied(m) -> bool:
    return all(m[i][i] >= max_in(m, i) + max_out(m, i) for i in range(len(m)))


def best_permutations(m):
    """(max weight, number of maximizing permutations) over all K! cyclic
    partitions, by dynamic programming over the set of rows already used.

    Equivalent to scanning every permutation and counting the ties, but in
    O(2^K K) steps instead of O(K! K).
    """
    k = len(m)
    best = {0: (0, 1)}
    for col in range(k):
        nxt = {}
        for used, (w, n) in best.items():
            for row in range(k):
                if used >> row & 1:
                    continue
                cand = w + (m[row][col] if row != col else 0)
                key = used | 1 << row
                cur = nxt.get(key)
                if cur is None or cand > cur[0]:
                    nxt[key] = (cand, n)
                elif cand == cur[0]:
                    nxt[key] = (cand, cur[1] + n)
        best = nxt
    return best[(1 << k) - 1]


def partition_value(m):
    """Sum of desired strengths minus the heaviest cyclic partition."""
    return sum(m[i][i] for i in range(len(m))) - best_permutations(m)[0]


def submatrix(m, users):
    return [[m[r][c] for c in users] for r in users]


def subset_bound(mats, users):
    """Combined sum bound of a user subset: the partition value of every
    sub-channel restricted to the subset, summed over sub-channels."""
    return sum(partition_value(submatrix(m, users)) for m in mats)


def cycle_count(k: int) -> int:
    """Number of directed cycles on K users, trivial ones included."""
    return sum(math.comb(k, size) * math.factorial(size - 1)
               for size in range(1, k + 1))


def cycles(k: int):
    """Every cycle on users 0..K-1 as a tuple starting at its smallest user."""
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            for tail in itertools.permutations(subset[1:]):
                yield (subset[0],) + tail


def cycle_rhs(m, cycle) -> Fraction:
    """Desired strengths on the cycle minus the interference it traverses;
    ``cycle[t]`` is the predecessor of ``cycle[t + 1]``."""
    rhs = sum(m[u][u] for u in cycle)
    if len(cycle) > 1:
        for t, u in enumerate(cycle):
            rhs -= m[u][cycle[(t + 1) % len(cycle)]]
    return rhs


def scheme_cells(m) -> int:
    """Backoff vectors an exhaustive TIN-scheme sweep visits: each backoff
    runs over 0..min(own strength, strongest outgoing link)."""
    cells = 1
    for u in range(len(m)):
        cells *= min(max_out(m, u), m[u][u]) + 1
    return cells


def scheme_feasible(m, rates, powers) -> bool:
    """Deterministic TIN feasibility of explicit rates and backoffs."""
    k = len(m)
    for u in range(k):
        head = m[u][u] - powers[u]
        residual = max((max(m[u][j] - powers[j], 0) for j in range(k) if j != u),
                       default=0)
        if rates[u] < 0 or powers[u] < 0 or rates[u] > head - residual:
            return False
    return True
