"""Independent reference implementations used to check the real solvers.

Everything in this module is deliberately written with a *different*
algorithm than the code under test: vertex enumeration instead of simplex,
permutation scans instead of the Hungarian method, literal channel
simulation instead of GF(2) elimination, one from-scratch ``solve_lp``
over every cycle bound instead of warm-started cutting planes, and every
cell of the backoff box instead of a pruned walk.  Slow is fine; these
only run on small instances.

``solve_lp`` shares its simplex driver with the cutting-plane engine, so
the vertex-enumeration oracle (``vertex_lp_oracle``, used by the
``test_simplex_matches_vertex_enumeration*`` tests) stays the driver's
independent check, and ``full_cycle_lp`` checks what the engine adds on
top of it: the cycle separation and the cuts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from tinopt.cycles import enumerate_cycles, enumerate_partitions, partition_bound
from tinopt.detmodel import (
    SCHEME_CELL_GUARD,
    BestTinScheme,
    channel_output,
    invertible_gf2,
    participating_levels,
)
from tinopt.model import GuardError, Network, StrengthMatrix
from tinopt.optimize import LinearProgram, all_optimal_partitions, solve_lp


# ---------------------------------------------------------------------------
# exact linear algebra / vertex-enumeration LP oracle
# ---------------------------------------------------------------------------

def solve_square_system(rows, rhs):
    """Unique solution of the linear system rows . x = rhs, or None.

    None covers both singular and inconsistent systems; callers only want
    genuine vertices.
    """
    n = len(rows[0])
    aug = [list(r) + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = []
    at = 0
    for col in range(n):
        sel = next((i for i in range(at, len(aug)) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[at], aug[sel] = aug[sel], aug[at]
        inv = 1 / aug[at][col]
        aug[at] = [v * inv for v in aug[at]]
        for i in range(len(aug)):
            if i != at and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[at])]
        pivots.append(col)
        at += 1
        if at == len(aug):
            break
    for i in range(at, len(aug)):
        if all(aug[i][c] == 0 for c in range(n)) and aug[i][n] != 0:
            return None
    if len(pivots) < n:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r][n]
    return tuple(x)


def _holds(coeffs, rel, rhs, point):
    lhs = sum((c * x for c, x in zip(coeffs, point)), Fraction(0))
    if rel == "<=":
        return lhs <= rhs
    if rel == ">=":
        return lhs >= rhs
    return lhs == rhs


def vertex_lp_oracle(lp):
    """Maximize by brute-force vertex enumeration.

    Sound only for LPs whose feasible set is a polytope with at least one
    vertex when nonempty (all callers include a full bounding box), so the
    answer is "optimal" with the max vertex value, or "infeasible".
    Returns (status, value).
    """
    n = len(lp.objective)
    planes = [(tuple(coeffs), Fraction(rhs)) for coeffs, _, rhs in lp.constraints]
    for j in range(n):
        if lp.nonneg[j]:
            axis = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
            planes.append((axis, Fraction(0)))

    best = None
    for subset in itertools.combinations(planes, n):
        point = solve_square_system([p[0] for p in subset], [p[1] for p in subset])
        if point is None:
            continue
        if any(lp.nonneg[j] and point[j] < 0 for j in range(n)):
            continue
        if not all(_holds(c, rel, b, point) for c, rel, b in lp.constraints):
            continue
        value = sum((o * x for o, x in zip(lp.objective, point)), Fraction(0))
        if best is None or value > best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


# ---------------------------------------------------------------------------
# assignment oracle
# ---------------------------------------------------------------------------

def brute_min_assignment(cost):
    """Minimum assignment cost by scanning all n! permutations (n small)."""
    n = len(cost)
    best = None
    for perm in itertools.permutations(range(n)):
        total = sum((Fraction(cost[perm[j]][j]) for j in range(n)), Fraction(0))
        if best is None or total < best:
            best = total
    return best


# ---------------------------------------------------------------------------
# heaviest-partition oracles (Fraction weights over enumerate_partitions,
# and the integer K! permutation scan)
# ---------------------------------------------------------------------------

def heaviest_partitions(matrix):
    """(max weight, tied partitions in ``enumerate_partitions`` order, the
    tie with the smallest predecessor vector), each partition weighed with
    ``CyclicPartition.weight`` in Fraction arithmetic."""
    parts = enumerate_partitions(matrix.users)
    weights = [part.weight(matrix) for part in parts]
    best = max(weights)
    ties = tuple(part for part, w in zip(parts, weights) if w == best)
    return best, ties, min(ties, key=lambda part: part.predecessors())


def heaviest_permutations(matrix):
    """(max weight, tied, canonical) by scanning all K! predecessor
    permutations in integer-scaled arithmetic.  ``tied`` lists every
    maximizing permutation, 0-based (perm[u] is user u+1's predecessor), in
    ``itertools.permutations`` order; ``canonical`` is the tie with the
    smallest predecessor vector, trivial cycles keyed 0."""
    k = matrix.users
    scale = lcm(*(val.denominator for row in matrix.entries for val in row))
    # incoming[u][p]: scaled weight of user u's edge from predecessor p
    incoming = [
        [0 if p == u else int(matrix.entries[p][u] * scale) for p in range(k)]
        for u in range(k)
    ]
    best, tied = -1, []                 # weights are nonnegative
    for perm in itertools.permutations(range(k)):
        s = sum(map(list.__getitem__, incoming, perm))
        if s > best:
            best, tied = s, [perm]
        elif s == best:
            tied.append(perm)
    canonical = min(tied, key=lambda perm: tuple(
        0 if p == u else p + 1 for u, p in enumerate(perm)))
    return Fraction(best, scale), tied, canonical


def subset_bounds(network):
    """{subset: bound} for every user subset, by size and then
    lexicographically: the tightest ``partition_bound`` over
    ``enumerate_partitions(|S|)`` of each sub-channel restricted to S,
    summed over the sub-channels in Fraction arithmetic."""
    k = network.users
    out = {}
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(1, k + 1), size):
            subs = [mat.submatrix(subset) for mat in network.matrices]
            out[subset] = sum(
                (min(partition_bound(part, sub)
                     for part in enumerate_partitions(size)) for sub in subs),
                Fraction(0),
            )
    return out


# ---------------------------------------------------------------------------
# TIN condition oracle (no max(), just every pair of inequalities)
# ---------------------------------------------------------------------------

def tin_by_triples(matrix):
    """TIN test written as the full family of per-triple inequalities."""
    k = matrix.users
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if j == i:
                continue
            for l in range(1, k + 1):
                if l == i:
                    continue
                if matrix.desired(i) < matrix.entry(j, i) + matrix.entry(i, l):
                    return False
        if k == 1 and matrix.desired(i) < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# cycle bounds, one Fraction sum per cycle
# ---------------------------------------------------------------------------

def cycle_weight(cycle, matrix):
    """Sum of the strengths of the interference links the cycle traverses."""
    return sum((matrix.edge_weight(i, j) for i, j in cycle.edges()), Fraction(0))


def cycle_bound_rhs(cycle, matrix):
    """Right-hand side of the cycle's sum bound: desired strengths minus weight."""
    return sum(map(matrix.desired, cycle.users), Fraction(0)) - cycle_weight(cycle, matrix)


def point_obeys_cycle_bounds(matrix, point, cycles):
    """Direct evaluation of every cycle bound at the point."""
    return all(sum((point[u - 1] for u in cyc.users), Fraction(0))
               <= cycle_bound_rhs(cyc, matrix) for cyc in cycles)


# ---------------------------------------------------------------------------
# cycle-bound LPs written out in full, solved from scratch
# ---------------------------------------------------------------------------

def _cycle_rows(matrix, offset=0, width=None):
    """One (coeffs, "<=", rhs) row per cycle bound, on the variables
    offset .. offset + K - 1 of a ``width``-variable LP."""
    k = matrix.users
    width = k if width is None else width
    rows = []
    for cyc in enumerate_cycles(k):
        coeffs = [0] * width
        for u in cyc.users:
            coeffs[offset + u - 1] = 1
        rows.append((coeffs, "<=", cycle_bound_rhs(cyc, matrix)))
    return rows


def full_cycle_lp(matrix, nonneg=True):
    """The cycle LP with every cycle bound present: one solve_lp call, no
    cutting planes, no warm start."""
    k = matrix.users
    return solve_lp(LinearProgram.build([1] * k, _cycle_rows(matrix), nonneg=nonneg))


def full_decomposition(network, point):
    """(feasible, {user: cap}) for a rate point, from the decomposition LPs
    with every cycle bound of every sub-channel present."""
    k = network.users
    width = k * network.subchannels
    rows = []
    for chan, mat in enumerate(network.matrices):
        rows += _cycle_rows(mat, chan * k, width)
    totals = {}
    for user in range(1, k + 1):
        coeffs = [1 if v % k == user - 1 else 0 for v in range(width)]
        totals[user] = (coeffs, "==", Fraction(point[user - 1]))
    joint = solve_lp(LinearProgram.build([0] * width, rows + list(totals.values())))
    if joint.status == "optimal":
        return True, {}
    caps = {}
    for user in range(1, k + 1):
        others = [row for u, row in totals.items() if u != user]
        best = solve_lp(LinearProgram.build(totals[user][0], rows + others))
        if best.status == "optimal":
            caps[user] = best.value
    return False, caps


# ---------------------------------------------------------------------------
# TIN scheme oracle (every cell of the backoff box)
# ---------------------------------------------------------------------------

def best_tin_scheme_sweep(matrix):
    """``best_tin_scheme`` by visiting every cell of the capped backoff box
    in ``itertools.product`` order, recomputing every receiver's
    interference per cell and keeping the first maximum: the depth-first
    walk's reference, with the same caps and guard."""
    k = matrix.users
    ent = [[int(v) for v in row] for row in matrix.entries]
    caps = []
    for u in range(k):
        colmax = max((ent[j][u] for j in range(k) if j != u), default=0)
        caps.append(min(colmax, ent[u][u]))
    cells = 1
    for c in caps:
        cells *= c + 1
    if cells > SCHEME_CELL_GUARD:
        raise GuardError(
            "exhaustive enumeration limit exceeded: %d backoff cells (max %d)"
            % (cells, SCHEME_CELL_GUARD)
        )
    best_sum = None
    best = None
    for delta in itertools.product(*(range(c + 1) for c in caps)):
        rates = []
        for u in range(k):
            interference = 0
            row = ent[u]
            for j in range(k):
                if j == u:
                    continue
                residue = row[j] - delta[j]
                if residue > interference:
                    interference = residue
            r = ent[u][u] - delta[u] - interference
            if r < 0:
                rates = None
                break
            rates.append(r)
        if rates is None:
            continue
        s = sum(rates)
        if best_sum is None or s > best_sum:
            best_sum = s
            best = (tuple(rates), delta)
    if best_sum is None:
        return BestTinScheme(found=False, sum_rate=0, rates=None, powers=None)
    return BestTinScheme(found=True, sum_rate=best_sum,
                         rates=best[0], powers=best[1])


# ---------------------------------------------------------------------------
# bit-level channel oracles
# ---------------------------------------------------------------------------

def interference_view(matrix):
    """Copy of the matrix with the diagonal zeroed.

    Feeding inputs through this view simulates exactly the interference part
    of each receiver's observation (the desired link contributes nothing).
    """
    k = matrix.users
    rows = tuple(
        tuple(Fraction(0) if i == j else matrix.entries[i][j] for j in range(k))
        for i in range(k)
    )
    return StrengthMatrix(mode="deterministic", entries=rows)


def participating_streams(widths, packed):
    """Unpack an integer into per-user participating bit streams.

    Bit layout: user-major, bit index 1..width within each user; bit b of
    user u sits at offset sum(widths[:u-1]) + (b-1).
    """
    streams = []
    pos = 0
    for w in widths:
        streams.append(tuple((packed >> (pos + t)) & 1 for t in range(w)))
        pos += w
    return streams


def exhaustive_injectivity(matrix, partition):
    """Is participating-input -> interference-output injective?  By trying
    every input through the literal channel map and comparing outputs."""
    widths = participating_levels(matrix, partition)
    total = sum(widths)
    if total > 14:
        raise ValueError("oracle limited to 14 participating bits, got %d" % total)
    view = interference_view(matrix)
    seen = set()
    for packed in range(1 << total):
        out = channel_output(view, participating_streams(widths, packed))
        if out in seen:
            return False
        seen.add(out)
    return True


def per_tie_certificates(matrix):
    """One exact GF(2) elimination per tied optimal partition, in tie order:
    what ``invertibility_verdict`` reports, without sharing a certificate
    between ties with the same participating widths."""
    return tuple(invertible_gf2(matrix, part)
                 for part in all_optimal_partitions(matrix))


def kernel_maps_to_zero(matrix, partition, kernel):
    """Check a claimed kernel witness: nonzero input, all-zero interference."""
    if not kernel:
        return False
    widths = participating_levels(matrix, partition)
    streams = [[0] * w for w in widths]
    for user, bit in kernel:
        if not (1 <= bit <= widths[user - 1]):
            return False
        streams[user - 1][bit - 1] = 1
    out = channel_output(interference_view(matrix), streams)
    return all(y == 0 for y in out)


# ---------------------------------------------------------------------------
# random instance generators (all take an explicit random.Random)
# ---------------------------------------------------------------------------

def random_strict_tin_matrix(rng, k, mode="gdof"):
    """A K-user matrix satisfying the TIN condition *strictly*.

    Cross strengths are drawn small (integers, or simple rationals in gdof
    mode); each diagonal is then set to strongest-in + strongest-out plus a
    positive slack, which is exactly the strict condition.
    """
    if mode == "deterministic":
        cross = lambda: Fraction(rng.randint(0, 4))
        slack = lambda: Fraction(rng.randint(1, 3))
    else:
        cross = lambda: Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
        slack = lambda: Fraction(rng.randint(1, 4), rng.choice((1, 2)))
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                rows[i][j] = cross()
    for i in range(k):
        incoming = max((rows[i][j] for j in range(k) if j != i),
                       default=Fraction(0))
        outgoing = max((rows[r][i] for r in range(k) if r != i),
                       default=Fraction(0))
        rows[i][i] = incoming + outgoing + slack()
    return StrengthMatrix(mode=mode, entries=tuple(tuple(r) for r in rows))


def random_tied_matrix(rng, k):
    """Deterministic strict-TIN matrix with cross links in {0, 1, 2} and
    slack 1: many cyclic partitions tie for the maximum weight, often with
    the same participating widths."""
    rows = [[0 if i == j else rng.randint(0, 2) for j in range(k)]
            for i in range(k)]
    for i in range(k):
        incoming = max((rows[i][j] for j in range(k) if j != i), default=0)
        outgoing = max((rows[j][i] for j in range(k) if j != i), default=0)
        rows[i][i] = incoming + outgoing + 1
    return StrengthMatrix.from_values("deterministic", rows)


def random_tin_network(rng, k, m, mode="gdof"):
    return Network(
        mode=mode,
        matrices=tuple(random_strict_tin_matrix(rng, k, mode) for _ in range(m)),
    )


def random_gdof_matrix(rng, k):
    """Arbitrary gdof matrix of simple rationals, nothing imposed."""
    rows = tuple(
        tuple(Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
              for _ in range(k))
        for _ in range(k)
    )
    return StrengthMatrix(mode="gdof", entries=rows)


def random_det_matrix(rng, k, hi=3):
    """Arbitrary deterministic matrix, nothing imposed on the diagonal."""
    rows = tuple(
        tuple(Fraction(rng.randint(0, hi)) for _ in range(k)) for _ in range(k)
    )
    return StrengthMatrix(mode="deterministic", entries=rows)


def random_partition(rng, k):
    parts = enumerate_partitions(k)
    return parts[rng.randrange(len(parts))]
