"""Exact optimization back-ends and the cross-checked sum computation.

Three mutually independent routes compute the best (tightest) sum bound of a
sub-channel, which for TIN-optimal sub-channels equals the sum-GDoF
(sum-capacity in deterministic mode):

* ``solve_cycle_lp``   -- the LP maximizing the rate sum under *all* cycle
                          bounds, solved exactly by cutting planes (dual
                          simplex after each batch of cuts);
* ``best_partition_assignment`` -- the heaviest cyclic partition found as a
                          min-cost assignment (Hungarian method) over
                          predecessor permutations;
* ``brute_force_best_weight``   -- an integer subset DP over predecessor
                          permutations (Bellman 1962), O(2^K K).

``sum_gdof`` runs all three and refuses to return values on which they
disagree.  The DP (``_heaviest_permutations``, guarded by MAX_ENUM_USERS)
also counts the tied permutations, so one pass per sub-channel yields the
reported partition (``optimal_partition``, the canonical tie, by a greedy
O(K^2) pass) and the tie set (``all_optimal_partitions``, a walk of the
tight branches only, guarded by TIE_GUARD).  The same cutting-plane
engine solves the decomposition LPs of ``region``.  Every LP, ``solve_lp``
included, runs on one exact simplex driver, ``_simplex``; the engine adds
only the cycle separation, as the driver's oracle of cuts.

A cycle bound's left side depends only on its members, so per user subset
only the heaviest cycle binds: ``_heaviest_cycles`` (integer Held-Karp,
O(2^K K^2)) gives it for every subset, and both cutting-plane LPs read their
rows from it; ``_partition_bounds`` turns those into every subset's least
cyclic partition bound (O(3^K)) for ``region``.  All arithmetic is exact; no
floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add

from .cycles import Cycle, CyclicPartition, _check_enum_guard
from .model import (CrossCheckError, GuardError, InputError, StrengthMatrix,
                    _common_denominator, check_tin)

__all__ = [
    "TIE_GUARD",
    "LinearProgram",
    "LpSolution",
    "solve_lp",
    "CycleLpResult",
    "solve_cycle_lp",
    "RedundancyResult",
    "nonnegativity_redundancy_check",
    "min_cost_assignment",
    "best_partition_assignment",
    "brute_force_best_weight",
    "all_optimal_partitions",
    "optimal_partition",
    "SumGdofResult",
    "sum_gdof",
    "NetworkSum",
    "network_sum",
]

# most tied optimal partitions ``all_optimal_partitions`` will list; every
# derangement of K = 9 users ties (133,496) when all cross links are equal
TIE_GUARD = 10_000


# ---------------------------------------------------------------------------
# general-purpose exact linear programming (two-phase simplex, Bland's rule)
# ---------------------------------------------------------------------------

_RELS = ("<=", ">=", "==")


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to linear constraints.

    ``constraints`` is a sequence of (coefficients, relation, rhs) triples
    with relation one of "<=", ">=", "==".  ``nonneg`` is either a single
    bool applying to every variable or a per-variable sequence; False means
    the variable is free (unrestricted in sign).
    """

    objective: tuple
    constraints: tuple
    nonneg: tuple

    @classmethod
    def build(cls, objective, constraints, nonneg=True) -> "LinearProgram":
        obj = tuple(Fraction(c) for c in objective)
        n = len(obj)
        rows = []
        for coeffs, rel, rhs in constraints:
            coeffs = tuple(Fraction(c) for c in coeffs)
            if len(coeffs) != n:
                raise InputError(
                    "constraint has %d coefficients, expected %d" % (len(coeffs), n)
                )
            if rel == "=":
                rel = "=="
            if rel not in _RELS:
                raise InputError("unknown relation %r" % (rel,))
            rows.append((coeffs, rel, Fraction(rhs)))
        if isinstance(nonneg, bool):
            signs = tuple(nonneg for _ in range(n))
        else:
            signs = tuple(bool(s) for s in nonneg)
            if len(signs) != n:
                raise InputError("nonneg flags must match variable count")
        return cls(objective=obj, constraints=tuple(rows), nonneg=signs)


@dataclass(frozen=True)
class LpSolution:
    status: str                # "optimal" | "infeasible" | "unbounded"
    value: "Fraction | None"
    point: "tuple | None"


class _Tableau:
    """An exact simplex tableau whose basis outlives one solve.

    ``rows[i]`` holds row i's coefficients over every column followed by its
    right-hand side, and column ``basis[i]`` is basic in row i.  ``obj``
    holds the reduced costs of the current objective, ``obj[-1]`` being
    minus its value.  An entry is an int while it is integral and a
    Fraction otherwise: integer-scaled data then pivot in int arithmetic for
    as long as they can, and every result stays exact.  ``pivots`` counts
    the pivots made.  Both the primal and the dual step follow Bland's
    smallest-index rule, which rules out cycling.
    """

    def __init__(self, rows, nstruct):
        """``rows`` are (coefficients over the ``nstruct`` structural
        columns, relation, rhs).  Every inequality row gets a slack column
        and every ">=" or "==" row an artificial one, in that order after
        the structural columns; ``phase_one`` removes the artificials."""
        flip = {"<=": ">=", ">=": "<=", "==": "=="}
        norm = []
        for coeffs, rel, rhs in rows:
            if rhs < 0:
                coeffs, rel, rhs = [-c for c in coeffs], flip[rel], -rhs
            norm.append((coeffs, rel, rhs))
        nslack = sum(rel != "==" for _, rel, _ in norm)
        nart = sum(rel != "<=" for _, rel, _ in norm)
        self.real = nstruct + nslack        # the columns phase 1 keeps
        self.ncols = self.real + nart
        self.rows = []
        self.basis = []
        self.obj = None
        self.pivots = 0
        slack, art = nstruct, self.real
        for coeffs, rel, rhs in norm:
            row = list(coeffs) + [0] * (nslack + nart) + [rhs]
            if rel != "==":
                row[slack] = 1 if rel == "<=" else -1
                slack += 1
            if rel == "<=":
                self.basis.append(slack - 1)
            else:
                row[art] = 1
                self.basis.append(art)
                art += 1
            self.rows.append(row)

    def pivot(self, row, col):
        """Make ``col`` basic in ``row``, updating only the entries in the
        pivot row's nonzero columns."""
        prow = self.rows[row]
        nz = [j for j, v in enumerate(prow) if v]
        piv = prow[col]
        if piv != 1:
            inv = 1 / Fraction(piv)
            for j in nz:
                w = prow[j] * inv
                prow[j] = w.numerator if w.denominator == 1 else w
        entries = [(j, prow[j]) for j in nz]
        for other in self.rows:
            f = other[col]
            if f and other is not prow:
                for j, v in entries:
                    w = other[j] - f * v
                    other[j] = w.numerator if w.denominator == 1 else w
        obj = self.obj
        f = obj[col]
        if f:
            for j, v in entries:
                w = obj[j] - f * v
                obj[j] = w.numerator if w.denominator == 1 else w
        self.basis[row] = col
        self.pivots += 1

    def primal(self, cost) -> str:
        """Primal simplex from the current feasible basis, maximizing
        ``cost`` over the leading columns (the others cost 0); "optimal" or
        "unbounded"."""
        rows, basis = self.rows, self.basis
        cost = list(cost) + [0] * (self.ncols - len(cost))
        obj = cost + [0]
        for row, b in zip(rows, basis):
            cb = cost[b]
            if cb:
                for j, v in enumerate(row):
                    if v:
                        obj[j] -= cb * v
        self.obj = obj
        while True:
            enter = next((j for j in range(self.ncols) if obj[j] > 0), -1)
            if enter < 0:
                return "optimal"
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    # ratio row[-1] / a against the best, cross-multiplied
                    if leave >= 0:
                        lhs, rhs = row[-1] * best_a, best_b * a
                    if (leave < 0 or lhs < rhs
                            or (lhs == rhs and basis[i] < basis[leave])):
                        leave, best_b, best_a = i, row[-1], a
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)

    def dual(self) -> str:
        """Dual simplex from the current dual-feasible basis, restoring
        primal feasibility; "optimal" or "infeasible"."""
        rows, basis, obj = self.rows, self.basis, self.obj
        while True:
            leave = -1
            for i, row in enumerate(rows):
                if row[-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return "optimal"
            row = rows[leave]
            enter = -1
            for j in range(self.ncols):
                a = row[j]
                # ratio obj[j] / a against the best, cross-multiplied (a < 0)
                if a < 0 and (enter < 0 or obj[j] * best_a < best_o * a):
                    enter, best_o, best_a = j, obj[j], a
            if enter < 0:
                return "infeasible"
            self.pivot(leave, enter)

    def phase_one(self) -> bool:
        """Drive the artificial columns to zero and delete them, with any row
        left redundant; False when the rows are infeasible."""
        real = self.real
        if self.ncols == real:
            return True
        if self.primal([0] * real + [-1] * (self.ncols - real)) != "optimal":
            raise CrossCheckError("phase-1 simplex cannot be unbounded")
        if self.obj[-1] != 0:
            return False
        drop = []
        for i, row in enumerate(self.rows):
            if self.basis[i] >= real:
                col = next((j for j in range(real) if row[j]), None)
                if col is None:
                    drop.append(i)
                else:
                    self.pivot(i, col)
        for i in reversed(drop):
            del self.rows[i]
            del self.basis[i]
        for row in self.rows:
            del row[real:-1]
        self.ncols = real
        return True

    def add_row(self, coeffs: dict, rhs):
        """Append the row coeffs . x <= rhs (``coeffs`` maps structural
        columns to values) with a new slack column basic in it, written in
        the current basis.  Its right-hand side becomes the slack at the
        current point, negative when the point violates the row."""
        col = self.ncols
        for row in self.rows:
            row.insert(col, 0)
        self.obj.insert(col, 0)
        new = [0] * (col + 2)
        for j, v in coeffs.items():
            new[j] = v
        new[col] = 1
        new[-1] = rhs
        for row, b in zip(self.rows, self.basis):
            f = new[b]
            if f:
                for j, v in enumerate(row):
                    if v:
                        w = new[j] - f * v
                        new[j] = w.numerator if w.denominator == 1 else w
        self.rows.append(new)
        self.basis.append(col)
        self.ncols += 1

    def values(self) -> list:
        """The current basic solution, one value per column."""
        vals = [0] * self.ncols
        for row, b in zip(self.rows, self.basis):
            vals[b] = row[-1]
        return vals


def _simplex(rows, objective, nonneg, cuts=None):
    """Maximize ``objective`` . x subject to the (coefficients, relation,
    rhs) ``rows`` by two-phase simplex on one ``_Tableau``, each free
    variable (``nonneg[j]`` False) split into x+ - x-.  While the oracle
    ``cuts(point)`` returns rows (coefficients, rhs), meaning coefficients
    . x <= rhs, append them and re-optimize by dual simplex.  Returns
    (status, value, point, pivots), value and point exact (ints where
    integral) and None unless status is "optimal"."""
    struct = []                 # structural columns as (variable, sign)
    for j, sign_restricted in enumerate(nonneg):
        struct.append((j, 1))
        if not sign_restricted:
            struct.append((j, -1))
    tab = _Tableau(
        [([coeffs[j] * s for j, s in struct], rel, rhs)
         for coeffs, rel, rhs in rows],
        len(struct),
    )
    if not tab.phase_one():
        return "infeasible", None, None, tab.pivots
    if tab.primal([objective[j] * s for j, s in struct]) == "unbounded":
        return "unbounded", None, None, tab.pivots
    while True:
        vals = tab.values()
        point = [0] * len(nonneg)
        for c, (j, s) in enumerate(struct):
            point[j] += vals[c] * s
        new = cuts(point) if cuts else ()
        if not new:
            return "optimal", -tab.obj[-1], point, tab.pivots
        for coeffs, rhs in new:
            tab.add_row({c: coeffs[j] * s for c, (j, s) in enumerate(struct)},
                        rhs)
        if tab.dual() == "infeasible":
            return "infeasible", None, None, tab.pivots


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve exactly by the two-phase simplex of ``_simplex``."""
    status, value, point, _ = _simplex(lp.constraints, lp.objective, lp.nonneg)
    if status == "optimal":
        value, point = Fraction(value), tuple(map(Fraction, point))
    return LpSolution(status=status, value=value, point=point)


# ---------------------------------------------------------------------------
# cycle-bound LPs via cutting planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleLpResult:
    status: str                  # "optimal" | "infeasible"
    value: "Fraction | None"
    point: "tuple | None"
    working: tuple               # working subset masks, in the order added
    rounds: int                  # restricted LPs optimized, the first included
    pivots: int                  # simplex pivots over all rounds
    table: tuple = field(repr=False, compare=False)  # see _heaviest_cycle

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    @cached_property
    def working_cycles(self) -> tuple:
        """A heaviest cycle through each working subset, read on first use."""
        return tuple(_heaviest_cycle(*self.table, mask) for mask in self.working)


def _scaled_entries(matrices, extra=()):
    """(D, flats): D is the least common denominator of every matrix entry
    and of the rationals in ``extra`` (InputError past MAX_RATIONAL_DIGITS
    digits), and ``flats[m]`` lists D times the entries of ``matrices[m]``
    as ints, row-major (entry (i, j) at index i*K + j, 0-based)."""
    scale = _common_denominator(itertools.chain(
        (val for mat in matrices for row in mat.entries for val in row), extra))
    return scale, [
        [val.numerator * (scale // val.denominator)
         for row in mat.entries for val in row]
        for mat in matrices
    ]


def _cycle_blocks(matrices, extra=()):
    """One integer-scaled cycle bound per user subset (its heaviest
    cycle's: no other can bind) of sub-channels that share K users, as (D,
    blocks, tables): D as in ``_scaled_entries``, ``blocks[m][mask]`` D
    times the bound on the users of ``mask`` on ``matrices[m]``, and
    ``tables[m]`` (flat, paths) for ``_heaviest_cycle``.  GuardError above
    MAX_ENUM_USERS comes first."""
    k = matrices[0].users
    _check_enum_guard(k)
    scale, flats = _scaled_entries(matrices, extra)
    blocks, tables = [], []
    for flat in flats:
        cycles, paths = _heaviest_cycles(flat, k)
        desired = _subset_sums(flat[::k + 1])
        blocks.append([d - c for d, c in zip(desired, cycles)])
        tables.append((flat, paths))
    return scale, blocks, tables


def _subset_sums(values) -> list:
    """sums[mask] is the sum of values[u] over the bits u set in mask."""
    sums = [0]
    for val in values:
        sums += [s + val for s in sums]
    return sums


def _heaviest_cycles(flat, k):
    """(cycles, paths), indexed by user mask (bit u for 0-based user u):
    ``cycles[mask]`` weighs the heaviest cycle through exactly the users of
    ``mask``, for the row-major K x K nonnegative integer weights ``flat``.
    Trivial cycles weigh 0.

    A Held-Karp pass (Held & Karp 1962; Bellman 1962), in O(2^K K^2):
    ``paths[mask][v]`` weighs the heaviest order (low, ..., v) of all of
    mask, as a Cycle weighs its listed users (e_uv = flat[u*K + v] per
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
    return cycles, paths


def _heaviest_cycle(flat, k, paths, mask) -> Cycle:
    """A heaviest cycle through exactly the users of ``mask``, read back
    from the ``_heaviest_cycles`` table ``paths``, lowest tied user first."""
    order, nxt = [], (mask & -mask).bit_length() - 1
    while mask:
        ends = paths[mask]
        nxt = max(range(k), key=lambda u: ends[u] + flat[u * k + nxt])
        order.append(nxt)
        mask ^= 1 << nxt
    return Cycle(tuple(u + 1 for u in reversed(order)))


def _partition_bounds(block) -> list:
    """Per mask, the least bound of a cyclic partition of its users, given a
    ``_cycle_blocks`` block of one bound per cycle: a partition's bound is
    the sum of its cycles' (desired sums add over disjoint parts), so one
    pass over the submasks holding the lowest member (its part's cycle
    through it) gives every mask's, in O(3^K)."""
    bounds = [0] * len(block)
    for mask in range(1, len(block)):
        low = mask & -mask
        rest = mask ^ low
        best, sub = block[mask], rest
        while sub:
            sub = (sub - 1) & rest
            bound = block[sub | low] + bounds[rest ^ sub]
            if bound < best:
                best = bound
        bounds[mask] = best
    return bounds


def _cutting_plane_lp(blocks, scale, objective, equalities=(), nonneg=True):
    """Maximize ``objective`` . x subject to every cycle bound of every block,
    by cutting planes: ``_simplex`` with a subset scan as its oracle.

    Variable x[m*K + u] is user u+1's rate on block m, and
    ``blocks[m][mask]`` is ``scale`` times the bound on the users of
    ``mask`` on that block (see ``_cycle_blocks``).  Each (u, t) in
    ``equalities`` fixes user u+1's total over all blocks to t / scale.
    The LP is solved in the scaled variables y = scale * x, where every
    constraint has integer data.

    The working set starts with the singleton subsets (trivial cycles) of
    every block only.  Each round scans the 2^K - 1 subsets with integer
    arithmetic and returns the max(3, K) most violated subsets per block as
    cuts.  The final point obeys every cycle bound and is optimal for a
    relaxation, hence optimal.

    Returns (status, value, point, working, rounds, pivots), where
    ``working[m]`` lists block m's working subset masks in the order added.
    """
    nvars = len(objective)
    k = nvars // len(blocks)
    batch = max(3, k)

    def subset_row(m, mask):
        return ([0] * (m * k) + [mask >> u & 1 for u in range(k)]
                + [0] * (nvars - (m + 1) * k))

    working = [[1 << u for u in range(k)] for _ in blocks]
    rows = [
        (subset_row(m, mask), "<=", rhs[mask])
        for m, rhs in enumerate(blocks) for mask in working[m]
    ]
    rows += [
        ([int(v % k == u) for v in range(nvars)], "==", total)
        for u, total in equalities
    ]
    rounds = 1

    def separate(point):
        nonlocal rounds
        cuts = []
        for m, rhs in enumerate(blocks):
            part = point[m * k:(m + 1) * k]
            escale = lcm(*(p.denominator for p in part))
            pscaled = [p.numerator * (escale // p.denominator) for p in part]
            lhs = _subset_sums(pscaled)
            # most violated first, ties by mask; the working subsets hold at
            # the point, so only new subsets can appear
            violated = sorted(
                (-gap, mask) for mask, gap in enumerate(
                    a - escale * r for a, r in zip(lhs, rhs))
                if gap > 0
            )
            for _, mask in violated[:batch]:
                working[m].append(mask)
                cuts.append((subset_row(m, mask), rhs[mask]))
        if cuts:
            rounds += 1
        return cuts

    status, value, point, pivots = _simplex(
        rows, objective, [nonneg] * nvars, separate)
    if status == "unbounded":
        raise CrossCheckError(
            "restricted cycle LP cannot be unbounded (trivial cycles seed it)"
        )
    if status == "optimal":
        value = Fraction(value, scale)
        point = tuple(Fraction(p, scale) for p in point)
    return status, value, point, working, rounds, pivots


def solve_cycle_lp(matrix: StrengthMatrix, nonneg: bool = True) -> CycleLpResult:
    """Maximize the rate sum subject to every cycle bound of the sub-channel.

    Solved by the cutting-plane engine ``_cutting_plane_lp`` on per-subset
    bounds, seeded with the K trivial cycles only, so this route stays
    independent of the assignment and brute-force routes.
    """
    k = matrix.users
    scale, blocks, ((flat, paths),) = _cycle_blocks((matrix,))
    status, value, point, working, rounds, pivots = _cutting_plane_lp(
        blocks, scale, [1] * k, nonneg=nonneg)
    return CycleLpResult(
        status=status, value=value, point=point, working=tuple(working[0]),
        rounds=rounds, pivots=pivots,
        table=(flat, k, paths),
    )


@dataclass(frozen=True)
class RedundancyResult:
    """Whether dropping the nonnegativity constraints changes the LP optimum."""

    with_nonneg: "Fraction | None"
    without_nonneg: "Fraction | None"
    redundant: bool

    def __bool__(self):
        return self.redundant


def nonnegativity_redundancy_check(matrix: StrengthMatrix) -> RedundancyResult:
    """Solve the cycle LP with and without d >= 0 and compare optima exactly."""
    bounded = solve_cycle_lp(matrix, nonneg=True)
    free = solve_cycle_lp(matrix, nonneg=False)
    redundant = (
        bounded.status == "optimal"
        and free.status == "optimal"
        and bounded.value == free.value
    )
    return RedundancyResult(
        with_nonneg=bounded.value if bounded.optimal else None,
        without_nonneg=free.value if free.optimal else None,
        redundant=redundant,
    )


# ---------------------------------------------------------------------------
# assignment route (Hungarian method, exact)
# ---------------------------------------------------------------------------

def min_cost_assignment(cost) -> tuple:
    """Minimum-cost perfect assignment on a square matrix of ints or Fractions.

    Returns (total_cost, assign) with assign[j] = row matched to column j
    (0-based).  Standard O(n^3) potentials implementation.
    """
    n = len(cost)
    for row in cost:
        if len(row) != n:
            raise InputError("cost matrix must be square")
    inf = 1 + sum(abs(v) for row in cost for v in row)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)          # p[j] = row matched to column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assign = tuple(p[j] - 1 for j in range(1, n + 1))
    total = sum(cost[assign[j]][j] for j in range(n))
    return total, assign


def best_partition_assignment(matrix: StrengthMatrix):
    """Heaviest cyclic partition via min-cost assignment on scaled int entries.

    Returns (max_weight, perm) where perm[k-1] is user k's predecessor in
    some maximizing partition (perm[k-1] == k marks a trivial cycle).
    """
    k = matrix.users
    scale, (flat,) = _scaled_entries((matrix,))
    cost = [[0 if r == c else -flat[r * k + c] for c in range(k)]
            for r in range(k)]
    total, assign = min_cost_assignment(cost)
    perm = tuple(assign[j] + 1 for j in range(k))
    return Fraction(-total, scale), perm


# ---------------------------------------------------------------------------
# brute-force route and tie enumeration (one integer subset DP)
# ---------------------------------------------------------------------------

def _heaviest_permutations(matrix: StrengthMatrix):
    """(D, incoming, suf, cnt): the predecessor-permutation DP of ``matrix``.

    D is the ``_scaled_entries`` scale and ``incoming[u][p]`` D times user
    u's edge weight from predecessor p (0-based, 0 for p == u).  For a mask
    ``used`` of predecessors already given to users 0..n-1 (n its
    popcount), ``suf[used]`` is the heaviest way to give users n..K-1
    distinct predecessors outside ``used`` (Bellman 1962) and ``cnt[used]``
    counts the ways that attain it, so ``suf[0]`` is D times the heaviest
    cyclic partition's weight and ``cnt[0]`` the number of tied partitions.
    O(2^K K); GuardError above MAX_ENUM_USERS.
    """
    k = matrix.users
    _check_enum_guard(k)
    scale, (flat,) = _scaled_entries((matrix,))
    incoming = [
        [0 if p == u else flat[p * k + u] for p in range(k)]
        for u in range(k)
    ]
    full = (1 << k) - 1
    suf = [0] * (full + 1)
    cnt = [0] * full + [1]
    for used in range(full - 1, -1, -1):
        row = incoming[used.bit_count()]
        best, ways = -1, 0                  # weights are nonnegative
        for p in range(k):
            nxt = used | 1 << p
            if nxt != used:
                weight = row[p] + suf[nxt]
                if weight > best:
                    best, ways = weight, cnt[nxt]
                elif weight == best:
                    ways += cnt[nxt]
        suf[used], cnt[used] = best, ways
    return scale, incoming, suf, cnt


def _tied_permutations(incoming, suf) -> list:
    """Every permutation attaining ``suf[0]``, 0-based (perm[u] is user
    u+1's predecessor), in lexicographic order: a depth-first walk that
    tries predecessors in increasing order and takes only tight branches,
    each of which ends in a tie, so its cost grows with the ties, not K!."""
    k = len(incoming)
    tied, prefix = [], []

    def walk(used):
        if len(prefix) == k:
            tied.append(tuple(prefix))
            return
        row, target = incoming[len(prefix)], suf[used]
        for p in range(k):
            nxt = used | 1 << p
            if nxt != used and row[p] + suf[nxt] == target:
                prefix.append(p)
                walk(nxt)
                prefix.pop()

    walk(0)
    return tied


def _canonical_tie(incoming, suf) -> tuple:
    """The tie with the smallest predecessor vector, trivial cycles keyed
    0 (0-based, as ``_tied_permutations``), by one greedy O(K^2) pass:
    every tight choice extends to a tie, so taking the smallest tight key
    at each user is the lexicographic minimum."""
    k = len(incoming)
    perm, used = [], 0
    for u, row in enumerate(incoming):
        target = suf[used]
        for p in (u, *range(k)):
            nxt = used | 1 << p
            if nxt != used and row[p] + suf[nxt] == target:
                break
        perm.append(p)
        used = nxt
    return tuple(perm)


def brute_force_best_weight(matrix: StrengthMatrix):
    """Heaviest cyclic partition by the subset DP over predecessor
    permutations (``_heaviest_permutations``); no cycles, no assignment.

    Returns (max_weight, perm) with perm[k-1] user k's predecessor (k itself
    for a trivial cycle); of the tied permutations, perm is the one with the
    smallest predecessor vector, trivial cycles keyed 0.
    """
    scale, incoming, suf, _ = _heaviest_permutations(matrix)
    best = _canonical_tie(incoming, suf)
    return Fraction(suf[0], scale), tuple(p + 1 for p in best)


def all_optimal_partitions(matrix: StrengthMatrix) -> tuple:
    """Every cyclic partition tied (exactly) for the maximum weight, in
    ``enumerate_partitions`` order.  The ties are counted first: GuardError
    above TIE_GUARD of them, before any is walked."""
    _, incoming, suf, cnt = _heaviest_permutations(matrix)
    ties = cnt[0]
    if ties > TIE_GUARD:
        raise GuardError(
            "optimal-partition tie limit exceeded: %d tied partitions (max %d)"
            % (ties, TIE_GUARD)
        )
    return tuple(
        CyclicPartition.from_permutation([p + 1 for p in perm])
        for perm in _tied_permutations(incoming, suf)
    )


def optimal_partition(matrix: StrengthMatrix) -> CyclicPartition:
    """The maximizing partition with lexicographically smallest predecessor
    vector (trivial cycles sorting first), as ``brute_force_best_weight``
    finds it; guarded by MAX_ENUM_USERS (GuardError above K = 9)."""
    return CyclicPartition.from_permutation(brute_force_best_weight(matrix)[1])


# ---------------------------------------------------------------------------
# the cross-checked sum computation
# ---------------------------------------------------------------------------

BOUND_ONLY_LABEL = "bound-only: TIN condition fails"


@dataclass(frozen=True)
class SumGdofResult:
    """Best sum bound of one sub-channel, certified by three solvers.

    ``value`` is the sum-GDoF (gdof mode) or sum-capacity (deterministic
    mode) when the sub-channel is TIN optimal; otherwise it is only the best
    cyclic partition bound and ``label`` says so.
    """

    tin: object
    value: Fraction
    label: str
    methods: dict = field(compare=False)
    partition: CyclicPartition = None
    agreement: bool = True

    @property
    def exact(self) -> bool:
        return self.label == "exact"


def sum_gdof(matrix: StrengthMatrix) -> SumGdofResult:
    """Compute the best sum bound three independent ways and cross-check.

    For TIN-optimal sub-channels all three routes must agree exactly and
    the common value is the sum-GDoF / sum-capacity.  Otherwise the LP may
    be infeasible or strictly smaller; only assignment and brute force are
    required to agree, and the result is labeled a bound.
    """
    tin = check_tin(matrix)
    diag_sum = sum(
        (matrix.desired(i) for i in range(1, matrix.users + 1)), Fraction(0)
    )

    lp = solve_cycle_lp(matrix, nonneg=True)
    aw, _ = best_partition_assignment(matrix)
    bw, bperm = brute_force_best_weight(matrix)
    assignment_value = diag_sum - aw
    brute_value = diag_sum - bw

    if assignment_value != brute_value:
        raise CrossCheckError(
            "assignment (%s) and brute force (%s) disagree"
            % (assignment_value, brute_value)
        )
    methods = {
        "lp_cycle_bounds": lp.value if lp.optimal else lp.status,
        "assignment": assignment_value,
        "brute_force": brute_value,
    }
    if tin.satisfied:
        if not lp.optimal or lp.value != assignment_value:
            raise CrossCheckError(
                "cycle LP (%s) disagrees with partition bound (%s) on a "
                "TIN-optimal sub-channel"
                % (lp.value if lp.optimal else lp.status, assignment_value)
            )
        label = "exact"
        agreement = True
    else:
        # weak duality still requires LP <= best partition bound
        if lp.optimal and lp.value > assignment_value:
            raise CrossCheckError(
                "cycle LP value %s exceeds the best partition bound %s"
                % (lp.value, assignment_value)
            )
        label = BOUND_ONLY_LABEL
        agreement = lp.optimal and lp.value == assignment_value
    return SumGdofResult(
        tin=tin,
        value=assignment_value,
        label=label,
        methods=methods,
        partition=CyclicPartition.from_permutation(bperm),
        agreement=agreement,
    )


@dataclass(frozen=True)
class NetworkSum:
    per_channel: tuple
    total: Fraction
    label: str

    @property
    def exact(self) -> bool:
        return self.label == "exact"


def network_sum(network) -> NetworkSum:
    """Per-sub-channel sums and their total.

    The total is exact (it is the separated network's sum) only when every
    sub-channel is TIN optimal; the label carries the caveat otherwise.
    """
    per = tuple(sum_gdof(mat) for mat in network.matrices)
    total = sum((r.value for r in per), Fraction(0))
    label = "exact" if all(r.exact for r in per) else BOUND_ONLY_LABEL
    return NetworkSum(per_channel=per, total=total, label=label)
