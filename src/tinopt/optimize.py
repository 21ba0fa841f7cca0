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
reported partition and the tie set from one walk of the tight branches,
``_ties``: ``optimal_partition`` reads the canonical tie as its first tie
when each user tries itself first, and ``all_optimal_partitions`` lists
every tie, guarded by TIE_GUARD.  The same cutting-plane engine solves the
decomposition LPs of ``region``.  Every LP, ``solve_lp`` included, runs on
one exact simplex driver, ``_simplex``, whose rows are all "<=" or ">=",
each with its own slack; the engine adds only the arc scan, as the
driver's oracle of cuts.

Both cutting-plane LPs work in rates and power backoffs, whose K^2 arc rows
project onto the cycle-bound region (Geng et al., arXiv 1305.4610), so no
LP reads a per-subset table.  All arithmetic is exact; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .cycles import CyclicPartition, _check_enum_guard
from .model import (CrossCheckError, GuardError, InputError, StrengthMatrix, _shown,
                    as_rational, check_tin)

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
# general-purpose exact linear programming (dual, then primal simplex; Bland)
# ---------------------------------------------------------------------------

_RELS = ("<=", ">=", "==")
_SIGNS = {"<=": 1, ">=": -1}    # a tableau row's sign; "==" is split by solve_lp


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to linear constraints.

    ``constraints`` is a sequence of (coefficients, relation, rhs) triples
    with relation one of "<=", ">=", "==".  Every coefficient and rhs is
    read by ``model.as_rational``, so a float is read through its decimal
    form.  ``nonneg`` is either a single bool applying to every variable or
    a per-variable sequence; False means the variable is free (unrestricted
    in sign).
    """

    objective: tuple
    constraints: tuple
    nonneg: tuple

    @classmethod
    def build(cls, objective, constraints, nonneg=True) -> "LinearProgram":
        obj = tuple(map(as_rational, objective))
        n = len(obj)
        rows = []
        for coeffs, rel, rhs in constraints:
            coeffs = tuple(map(as_rational, coeffs))
            if len(coeffs) != n:
                raise InputError(
                    "constraint has %d coefficients, expected %d" % (len(coeffs), n)
                )
            if rel not in _RELS:
                raise InputError("unknown relation %s" % _shown(rel))
            rows.append((coeffs, rel, as_rational(rhs)))
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
        """``rows`` are ({structural column: coefficient}, relation, rhs),
        over ``nstruct`` structural columns, each relation "<=" or ">=".  A
        ">=" row is negated into a "<=" row, and row i gets slack column
        ``nstruct + i``, basic in it.  Right-hand sides may be negative: the
        objective starts all zero, so any basis is dual feasible and
        ``dual`` restores primal feasibility."""
        self.nstruct = nstruct
        self.ncols = nstruct + len(rows)
        self.rows = []
        self.basis = list(range(nstruct, self.ncols))
        self.obj = [0] * (self.ncols + 1)
        self.pivots = 0
        for slack, (coeffs, rel, rhs) in enumerate(rows, nstruct):
            sign = _SIGNS[rel]
            row = [0] * self.ncols + [sign * rhs]
            for j, v in coeffs.items():
                row[j] = sign * v
            row[slack] = 1
            self.rows.append(row)

    def pivot(self, row, col):
        """Make ``col`` basic in ``row``, updating only the entries in the
        pivot row's nonzero columns."""
        prow = self.rows[row]
        nz = [j for j, v in enumerate(prow) if v]
        piv = prow[col]
        if piv == -1:           # every dual pivot is negative: skip Fractions
            for j in nz:
                prow[j] = -prow[j]
        elif piv != 1:
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

    def dual(self) -> "list | None":
        """Dual simplex from the current dual-feasible basis, restoring
        primal feasibility: None once the basis is primal feasible, else
        the Farkas multipliers of the row it stopped on.

        That row has rhs < 0 and no negative entry.  Every tableau row is a
        combination of the rows as given, in "<=" form and cuts included,
        weighted by its entries in the slack columns (column ``nstruct + i``
        for row i, in the order the rows were given and then added).  So
        those entries y >= 0 satisfy y.A >= 0 and y.b < 0: no point with
        nonnegative columns meets every row."""
        rows, basis, obj = self.rows, self.basis, self.obj
        while True:
            leave = -1
            for i, row in enumerate(rows):
                if row[-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return None
            row = rows[leave]
            enter = -1
            for j in range(self.ncols):
                a = row[j]
                # ratio obj[j] / a against the best, cross-multiplied (a < 0)
                if a < 0 and (enter < 0 or obj[j] * best_a < best_o * a):
                    enter, best_o, best_a = j, obj[j], a
            if enter < 0:
                return row[self.nstruct:self.ncols]
            self.pivot(leave, enter)

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
    """Maximize ``objective`` . x subject to the ({variable: coefficient},
    relation, rhs) ``rows``, relation "<=" or ">=", on one ``_Tableau``
    that gives each row its own slack, each free variable
    (``nonneg[j]`` False) split into x+ - x-: dual simplex under the
    all-zero objective reaches a feasible basis, then primal simplex an
    optimal one.  While the oracle ``cuts(point)`` returns rows
    ({variable: coefficient}, rhs), meaning coefficients . x <= rhs, append
    them and regain feasibility by the same dual simplex, now from the
    optimal basis.  Returns (status, value, point, pivots, farkas), value
    and point exact (ints where integral) and None unless status is
    "optimal".  ``farkas`` is None unless status is "infeasible", when it
    holds the dual simplex's multipliers y >= 0, one per row in "<=" form
    (a ">=" row negated), the rows as given and then the cuts in the order
    added: y.A >= 0 on every variable, 0 on a free one, and y.b < 0."""
    split, nstruct = [], 0      # split[j]: variable j's columns as (column, sign)
    for sign_restricted in nonneg:
        split.append([(nstruct, 1)] if sign_restricted else [(nstruct, 1), (nstruct + 1, -1)])
        nstruct += len(split[-1])

    def columns(coeffs):
        return {c: v * s for j, v in coeffs.items() for c, s in split[j]}

    tab = _Tableau([(columns(coeffs), rel, rhs) for coeffs, rel, rhs in rows], nstruct)
    farkas = tab.dual()
    if farkas is not None:
        return "infeasible", None, None, tab.pivots, farkas
    cost = [objective[j] * s for j, cols in enumerate(split) for _, s in cols]
    if tab.primal(cost) == "unbounded":
        return "unbounded", None, None, tab.pivots, None
    while True:
        vals = tab.values()
        point = [sum(vals[c] * s for c, s in cols) for cols in split]
        new = cuts(point) if cuts else ()
        if not new:
            return "optimal", -tab.obj[-1], point, tab.pivots, None
        for coeffs, rhs in new:
            tab.add_row(columns(coeffs), rhs)
        farkas = tab.dual()
        if farkas is not None:
            return "infeasible", None, None, tab.pivots, farkas


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve exactly by the simplex driver ``_simplex``, without cuts; each
    "==" row goes to it as one "<=" and one ">=" row."""
    rows = [({j: v for j, v in enumerate(coeffs) if v}, half, rhs)
            for coeffs, rel, rhs in lp.constraints
            for half in (("<=", ">=") if rel == "==" else (rel,))]
    status, value, point, *_ = _simplex(rows, lp.objective, lp.nonneg)
    if status == "optimal":
        value, point = Fraction(value), tuple(map(Fraction, point))
    return LpSolution(status=status, value=value, point=point)


# ---------------------------------------------------------------------------
# cycle-bound LPs via cutting planes over arc rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleLpResult:
    status: str                  # "optimal" | "infeasible"
    value: "Fraction | None"
    point: "tuple | None"        # the rates d
    powers: "tuple | None"       # backoffs q >= 0 whose TIN rates reach d
    working: tuple               # 1-based arcs (i, j) as added; (i, 0): reference row
    rounds: int                  # restricted LPs optimized, the first included
    pivots: int                  # simplex pivots over all rounds

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def working_cycles(self) -> tuple:
        """The former name of ``working``, read-only."""
        return self.working


class _PlaneLp(NamedTuple):
    """What ``_cutting_plane_lp`` returns."""

    status: str         # "optimal" | "infeasible"
    value: object       # Fraction, None unless optimal
    point: object       # the rates d, None unless optimal
    powers: object      # the backoffs q, None unless optimal
    working: list       # per block, its rows in the order added
    rounds: int
    pivots: int
    weights: object     # per floor, its Farkas multiplier; None unless infeasible


def _check_farkas(rows, y, nonneg):
    """Raise CrossCheckError unless the multipliers ``y`` prove the rows
    (coefficients, rhs), each coefficients . x <= rhs, infeasible over x_j
    >= 0 where ``nonneg[j]`` and x_j free elsewhere (Farkas 1902): y >= 0,
    one per row, y.A >= 0 on every variable and 0 on every free one, and
    y.b < 0.  Then y.A x >= 0 > y.b for every such x."""
    if len(y) != len(rows) or any(w < 0 for w in y):
        raise CrossCheckError("Farkas multipliers must be one per row and >= 0")
    combination, bound = [0] * len(nonneg), 0
    for (coeffs, rhs), w in zip(rows, y):
        if w:
            for j, v in coeffs.items():
                combination[j] += w * v
            bound += w * rhs
    if bound >= 0 or any(c < 0 or (c and not sign_restricted)
                         for c, sign_restricted in zip(combination, nonneg)):
        raise CrossCheckError("Farkas multipliers do not prove the LP infeasible")


def _cutting_plane_lp(flats, scale, objective, floors=(), nonneg=True) -> _PlaneLp:
    """Maximize ``objective`` . d subject to every cycle bound of every
    block, by cutting planes: ``_simplex`` with an arc scan as its oracle.

    Block m holds rates d[m*K + u] and power backoffs q[m*K + u] >= 0 (the
    variables after the rates) of one sub-channel, whose entries n, times
    ``scale``, are the row-major ints ``flats[m]``.  User i's TIN rate under
    q, n_ii - q_i - max(0, max_j(n_ij - q_j)), reaches d_i exactly when its
    reference row d_i + q_i <= n_ii and its arc rows d_i + q_i - q_j <=
    n_ii - n_ij hold: difference constraints in q, so by the negative-cycle
    theorem some q >= 0 meets them exactly when d meets every cycle bound.
    Each (u, t) in ``floors`` adds the row: user u+1's total over the
    blocks is at least t / scale.

    The working set starts with each user's reference row and strongest
    incoming arc, lowest j on ties, unless that arc is 0 (the reference row
    and q_j >= 0 imply it) or ``floors`` are given (under the all-zero
    objective the dual simplex brings each total in on the first block's
    rate, where a seeded arc costs a dual pivot of its own).
    Each round scans the K(K - 1) arcs of every block in integer arithmetic
    and cuts with the max(3, K) most violated per block, ties by (i, j).
    GuardError above MAX_ENUM_USERS, before any LP.  ``working[m]`` lists
    block m's rows in the order added as 1-based (i, j), with (i, 0) for
    user i's reference row.  When the LP is infeasible, the dual simplex's
    multipliers are checked against the arc rows and floors built here
    (``_check_farkas``, CrossCheckError if they fail), and ``weights`` holds
    each floor's.  Every arc row holds in any LP over the same blocks, so
    such an LP that keeps each floor of positive weight is infeasible too.
    """
    nrates = len(objective)
    k = nrates // len(flats)
    _check_enum_guard(k)
    batch = max(3, k)

    def arc(m, i, j):
        """Block m's row (i, j), 1-based, as (coefficients, rhs)."""
        flat, q = flats[m], nrates + m * k - 1
        coeffs = {m * k + i - 1: 1, q + i: 1}
        rhs = flat[(i - 1) * (k + 1)]
        if j:
            coeffs[q + j] = -1
            rhs -= flat[(i - 1) * k + j - 1]
        return coeffs, rhs

    working = []
    for flat in flats:
        seed = []
        for i in range(k):
            j = max((j for j in range(k) if j != i), key=lambda j: flat[i * k + j], default=i)
            strongest = j != i and flat[i * k + j] and not floors
            seed += [(i + 1, 0), (i + 1, j + 1)] if strongest else [(i + 1, 0)]
        working.append(seed)
    # the arc rows in the tableau's order, and each floor in "<=" form
    arcs = [arc(m, i, j) for m, seed in enumerate(working) for i, j in seed]
    lows = [({m * k + u: -1 for m in range(len(flats))}, -total) for u, total in floors]
    nseed = len(arcs)
    rounds = 1

    def separate(point):
        nonlocal rounds
        cuts = []
        for m, flat in enumerate(flats):
            d, q = point[m * k:(m + 1) * k], point[nrates + m * k:nrates + (m + 1) * k]
            # arc (i, j) is violated by d_i + q_i - n_ii + n_ij - q_j; the
            # working rows hold at the point, so only new arcs can appear
            violated = []
            for i in range(k):
                lead = d[i] + q[i] - flat[i * (k + 1)]
                for j in range(k):
                    if j != i:
                        gap = lead + flat[i * k + j] - q[j]
                        if gap > 0:
                            violated.append((-gap, i + 1, j + 1))
            violated.sort()
            for _, i, j in violated[:batch]:
                working[m].append((i, j))
                cuts.append(arc(m, i, j))
        if cuts:
            rounds += 1
        arcs.extend(cuts)
        return cuts

    signs = [nonneg] * nrates + [True] * nrates
    status, value, point, pivots, farkas = _simplex(
        [(coeffs, "<=", rhs) for coeffs, rhs in arcs + lows],
        list(objective) + [0] * nrates, signs, separate)
    if status == "unbounded":
        raise CrossCheckError("restricted cycle LP cannot be unbounded (reference rows seed it)")
    if status != "optimal":
        # the tableau's rows: the seeded arcs, the floors, then the cuts
        weights = farkas[nseed:nseed + len(lows)]
        _check_farkas(arcs + lows, farkas[:nseed] + farkas[nseed + len(lows):] + weights, signs)
        return _PlaneLp(status, None, None, None, working, rounds, pivots, tuple(weights))
    point = tuple(Fraction(p, scale) for p in point)
    return _PlaneLp(status, Fraction(value, scale), point[:nrates], point[nrates:],
                    working, rounds, pivots, None)


def solve_cycle_lp(matrix: StrengthMatrix, nonneg: bool = True) -> CycleLpResult:
    """Maximize the rate sum subject to every cycle bound of the sub-channel.

    Solved by the cutting-plane engine ``_cutting_plane_lp`` over the arc
    rows of the matrix's integer view ``matrix.scaled``, seeded with the
    reference rows and each user's strongest incoming arc only, so this
    route stays independent of the assignment and brute-force routes.  At
    the optimum ``powers`` holds backoffs under which every user's TIN rate
    reaches ``point``.  GuardError above MAX_ENUM_USERS, before any LP.
    """
    scale, flat = matrix.scaled
    res = _cutting_plane_lp((flat,), scale, [1] * matrix.users, nonneg=nonneg)
    return CycleLpResult(res.status, res.value, res.point, res.powers,
                         tuple(res.working[0]), res.rounds, res.pivots)


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
    """Heaviest cyclic partition via min-cost assignment on the matrix's
    integer view (``StrengthMatrix.scaled``).

    Returns (max_weight, partition) for some maximizing partition.
    """
    k = matrix.users
    scale, flat = matrix.scaled
    cost = [[0 if r == c else -flat[r * k + c] for c in range(k)]
            for r in range(k)]
    total, assign = min_cost_assignment(cost)
    # assign[u] is user u's predecessor row (0-based), u itself on a trivial cycle
    return Fraction(-total, scale), CyclicPartition(
        tuple(0 if p == u else p + 1 for u, p in enumerate(assign)))


# ---------------------------------------------------------------------------
# brute-force route and tie enumeration (one integer subset DP)
# ---------------------------------------------------------------------------

def _heaviest_permutations(matrix: StrengthMatrix):
    """(D, incoming, suf, cnt): the predecessor-permutation DP of ``matrix``.

    D is the scale of ``matrix.scaled`` and ``incoming[u][p]`` D times user
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
    scale, flat = matrix.scaled
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


def _ties(incoming, suf, self_first=False):
    """Yield the permutations attaining ``suf[0]`` as the predecessor
    vectors ``CyclicPartition`` takes (user u+1's predecessor at index u, 0
    on a trivial cycle), by a depth-first walk of the tight branches
    only.  Every tight choice extends to a tie, so the walk never
    backtracks before a leaf and costs O(K^2) per tie, not K!.  Users try
    predecessors in increasing order, so the ties come lexicographically;
    with ``self_first`` user u tries itself first, and the first tie is
    the one with the smallest predecessor vector, trivial cycles keyed 0.
    ``levels[u]`` holds the rest of user u's predecessors to try: an
    explicit stack, so the walk leaves no cyclic garbage behind.
    """
    k = len(incoming)
    orders = [(u, *range(u), *range(u + 1, k)) if self_first else range(k)
              for u in range(k)]
    prefix, used = [0] * k, [0] * k     # used[u]: predecessors of users < u
    levels = [iter(orders[0])]
    while levels:
        u = len(levels) - 1
        base, row, target = used[u], incoming[u], suf[used[u]]
        for p in levels[u]:
            nxt = base | 1 << p
            if nxt != base and row[p] + suf[nxt] == target:
                prefix[u] = 0 if p == u else p + 1
                if u + 1 == k:
                    yield tuple(prefix)
                else:
                    used[u + 1] = nxt
                    levels.append(iter(orders[u + 1]))
                break
        else:
            levels.pop()


def brute_force_best_weight(matrix: StrengthMatrix):
    """Heaviest cyclic partition by the subset DP over predecessor
    permutations (``_heaviest_permutations``); no cycles, no assignment.

    Returns (max_weight, partition); of the tied partitions, it is the one
    with the smallest predecessor vector, trivial cycles keyed 0.
    """
    scale, incoming, suf, _ = _heaviest_permutations(matrix)
    best = next(_ties(incoming, suf, self_first=True))
    return Fraction(suf[0], scale), CyclicPartition(best)


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
    return tuple(map(CyclicPartition, _ties(incoming, suf)))


def optimal_partition(matrix: StrengthMatrix) -> CyclicPartition:
    """The maximizing partition with lexicographically smallest predecessor
    vector (trivial cycles sorting first), as ``brute_force_best_weight``
    finds it; guarded by MAX_ENUM_USERS (GuardError above K = 9)."""
    return brute_force_best_weight(matrix)[1]


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
    scale, flat = matrix.scaled
    diag_sum = Fraction(sum(flat[::matrix.users + 1]), scale)

    lp = solve_cycle_lp(matrix, nonneg=True)
    aw, _ = best_partition_assignment(matrix)
    bw, partition = brute_force_best_weight(matrix)
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
        partition=partition,
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
