"""Bit-level (deterministic) analysis and the separability verdict.

In deterministic mode a transmitted signal is a binary expansion
X_i = 0.X_{i,(1)} X_{i,(2)} ... and receiver k observes the bitwise XOR of
every transmitter's top n_ki bits, shifted to integer positions::

    Y_k = XOR_i  floor(2^{n_ki} * X_i)

Under a cyclic partition, user i's *participating* bits are the ones its
predecessor's receiver can see: X_{i,(1..n_{pred(i),i})}.  The partition is
invertible when the participating output levels determine the participating
input bits uniquely -- an exact GF(2) rank question, decided here by
elimination over integer bitmasks.  On gdof strengths, which have no bit
levels, sufficient conditions answer instead: 3-user unequal cycle sums,
cyclic topologies and dominant partitions (they hold in both modes).
``find_dominant_optimal`` builds its one candidate from each transmitter's
loudest receiver, without listing the tied optimal partitions.  A
partition enters every test here only through its predecessor vector,
read as per-user participating strengths.  ``bipartite_acyclic``, a
forest test on one partition's participating bits, is a library check
that no verdict calls.

The separability verdict ties everything together: when every sub-channel
is TIN-optimal and its participating structure is recoverable, per-sub-channel
TIN coding attains the combined optimum, so the parallel network separates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate

from .cycles import CyclicPartition, _check_covers, _participating_strengths
from .model import (
    CrossCheckError,
    GuardError,
    InputError,
    Network,
    StrengthMatrix,
    as_rational,
)
from .optimize import (all_optimal_partitions, brute_force_best_weight, network_sum,
                       solve_cycle_lp)

__all__ = [
    "GF2_BIT_GUARD",
    "participating_levels",
    "Gf2System",
    "build_gf2_system",
    "InvertibilityCertificate",
    "invertible_gf2",
    "InvertibilityVerdict",
    "invertibility_verdict",
    "ThreeUserCondition",
    "check_3user_condition",
    "is_cyclic_topology",
    "bipartite_acyclic",
    "dominant_partition_check",
    "find_dominant_optimal",
    "SufficientVerdict",
    "sufficient_invertibility",
    "subchannel_invertibility",
    "tin_feasible",
    "BestTinScheme",
    "best_tin_scheme",
    "ChannelLeg",
    "SeparabilityVerdict",
    "separability_verdict",
]

GF2_BIT_GUARD = 4096


def _require_deterministic(matrix: StrengthMatrix, what: str) -> None:
    if matrix.mode != "deterministic":
        raise InputError("%s requires a deterministic-mode matrix" % what)


def participating_levels(matrix: StrengthMatrix, partition: CyclicPartition) -> tuple:
    """Per-user count of participating bits under the partition.

    User i participates with its top n_{pred(i), i} bits -- exactly the bits
    its cyclic predecessor's receiver observes.  Users on trivial cycles
    participate with nothing.
    """
    _require_deterministic(matrix, "participating_levels")
    _check_covers(partition, matrix)
    return _participating_strengths(matrix.scaled[1], partition.predecessors)


# ---------------------------------------------------------------------------
# GF(2) systems over participating bits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gf2System:
    """Linear map from participating input bits to participating output levels.

    ``variables[v]`` names bit v as a (user, bit_index) pair; ``rows[r]`` is
    an integer bitmask over variables and ``row_labels[r]`` the (receiver,
    level) slot it describes.  Level L means coefficient 2^L in the output.
    """

    partition: CyclicPartition
    variables: tuple
    rows: tuple
    row_labels: tuple


def build_gf2_system(matrix: StrengthMatrix, partition: CyclicPartition) -> Gf2System:
    _require_deterministic(matrix, "build_gf2_system")
    _check_covers(partition, matrix)
    k = matrix.users
    _, flat = matrix.scaled
    widths = _participating_strengths(flat, partition.predecessors)
    total_bits = sum(widths)
    if total_bits > GF2_BIT_GUARD:
        raise GuardError(
            "exhaustive enumeration limit exceeded: %d participating bits "
            "(max %d)" % (total_bits, GF2_BIT_GUARD)
        )
    # variables run user by user: bit b of user u + 1 is offset[u] + b - 1
    offset = tuple(accumulate(widths, initial=0))
    variables = []
    for u, w in enumerate(widths, start=1):
        for b in range(1, w + 1):
            variables.append((u, b))

    rows = []
    labels = []
    for rx in range(k):
        by_level = {}
        for tx, n in enumerate(flat[rx * k:(rx + 1) * k]):
            if tx == rx:
                continue  # the desired link is not part of the interference map
            var = offset[tx]
            for level in range(n - 1, n - 1 - min(widths[tx], n), -1):
                by_level[level] = by_level.get(level, 0) | 1 << var
                var += 1
        for level in sorted(by_level, reverse=True):
            rows.append(by_level[level])
            labels.append((rx + 1, level))
    return Gf2System(
        partition=partition,
        variables=tuple(variables),
        rows=tuple(rows),
        row_labels=tuple(labels),
    )


def _gf2_rank_and_kernel(rows, nvars):
    """Rank of the row set and, when rank < nvars, a nonzero kernel vector
    (as a bitmask over the variables)."""
    basis = {}  # pivot column -> row mask whose lowest set bit is the pivot
    for mask in rows:
        cur = mask
        while cur:
            pivot = (cur & -cur).bit_length() - 1
            if pivot in basis:
                cur ^= basis[pivot]
            else:
                basis[pivot] = cur
                break
    rank = len(basis)
    if rank >= nvars:
        return rank, None
    # reduce to RREF so each pivot column appears in exactly one row
    for pivot in sorted(basis):
        row = basis[pivot]
        for other in basis:
            if other != pivot and (basis[other] >> pivot) & 1:
                basis[other] ^= row
    free = next(v for v in range(nvars) if v not in basis)
    witness = 1 << free
    for pivot, row in basis.items():
        if (row >> free) & 1:
            witness |= 1 << pivot
    return rank, witness


@dataclass(frozen=True)
class InvertibilityCertificate:
    """Exact GF(2) answer for one (matrix, partition) pair."""

    partition: CyclicPartition
    num_bits: int
    rank: int
    invertible: bool
    kernel: "tuple | None"    # (user, bit) pairs XORing to zero output
    method: str = "exact-gf2"

    def __bool__(self):
        return self.invertible


def invertible_gf2(matrix: StrengthMatrix, partition: CyclicPartition) -> InvertibilityCertificate:
    """Decide invertibility of the participating levels exactly.

    Invertible means the interference map on participating bits is injective,
    i.e. the GF(2) system has full column rank.  A non-invertible system is
    certified by a nonzero input in its kernel."""
    system = build_gf2_system(matrix, partition)
    nvars = len(system.variables)
    rank, witness = _gf2_rank_and_kernel(system.rows, nvars)
    kernel = None
    if witness is not None:
        kernel = tuple(
            system.variables[v] for v in range(nvars) if (witness >> v) & 1
        )
    return InvertibilityCertificate(
        partition=partition,
        num_bits=nvars,
        rank=rank,
        invertible=rank == nvars,
        kernel=kernel,
    )


@dataclass(frozen=True)
class InvertibilityVerdict:
    """Existential verdict over every weight-optimal cyclic partition."""

    invertible: bool
    certificates: tuple
    witness: "InvertibilityCertificate | None"
    method: str = "exact-gf2"

    @property
    def status(self):
        return "invertible" if self.invertible else "non-invertible"

    def __bool__(self):
        return self.invertible


def invertibility_verdict(matrix: StrengthMatrix) -> InvertibilityVerdict:
    """Check every optimal cyclic partition; one invertible witness suffices.

    The sum-capacity argument only needs *some* optimal partition whose
    participating levels are recoverable, so ties are enumerated and the
    verdict is positive when any of them passes the exact GF(2) test.

    A partition's system depends on it only through its participating
    widths, and many ties share them, so the elimination runs once per
    distinct width vector: the first tie with a vector gets
    ``invertible_gf2``'s certificate, every later one a copy of it naming
    its own partition.  The verdict keeps one certificate per tie, in tie
    order.
    """
    _require_deterministic(matrix, "invertibility_verdict")
    _, flat = matrix.scaled
    by_widths = {}   # width vector -> certificate of its first tie
    certs = []
    for part in all_optimal_partitions(matrix):
        widths = _participating_strengths(flat, part.predecessors)
        cert = by_widths.get(widths)
        if cert is None:
            cert = by_widths[widths] = invertible_gf2(matrix, part)
        else:
            cert = replace(cert, partition=part)
        certs.append(cert)
    witness = next((c for c in certs if c.invertible), None)
    return InvertibilityVerdict(
        invertible=witness is not None,
        certificates=tuple(certs),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# sufficient conditions (no elimination needed)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeUserCondition:
    holds: bool
    delta: Fraction

    def __bool__(self):
        return self.holds


def check_3user_condition(matrix: StrengthMatrix) -> ThreeUserCondition:
    """3-user test: do the two directed 3-cycles carry different total weight?

    When they do, no participating level collision can close a dependency
    loop, so the participating levels are recoverable under *every* cyclic
    partition.  Works on bit levels and on gdof strengths alike.
    """
    if matrix.users != 3:
        raise InputError("the 3-user condition needs exactly 3 users, got %d"
                         % matrix.users)
    scale, n = matrix.scaled
    # forward: edges 2 -> 1, 3 -> 2, 1 -> 3 (n_12 + n_23 + n_31); backward
    # the reverse ones (n_21 + n_32 + n_13), row-major at (rx - 1) * 3 + tx - 1
    delta = Fraction(n[1] + n[5] + n[6] - n[3] - n[7] - n[2], scale)
    return ThreeUserCondition(holds=delta != 0, delta=delta)


def is_cyclic_topology(matrix: StrengthMatrix) -> bool:
    """True when each receiver hears at most one interferer.

    Every participating output level then has a single contributor, the
    bipartite dependency structure is a forest, and invertibility follows
    for any partition."""
    k, flat = matrix.users, matrix.scaled[1]
    return all(sum(1 for tx, v in enumerate(flat[rx * k:(rx + 1) * k]) if v and tx != rx) <= 1
               for rx in range(k))


def bipartite_acyclic(matrix: StrengthMatrix, partition: CyclicPartition) -> bool:
    """Forest test on the bipartite graph of participating input bits versus
    occupied output levels (edges = XOR contributions).  Acyclicity is
    sufficient for invertibility: leaves peel off one at a time."""
    system = build_gf2_system(matrix, partition)
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for r, mask in enumerate(system.rows):
        y = ("y", system.row_labels[r])
        v = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            x = ("x", system.variables[v])
            rx, ry = find(x), find(y)
            if rx == ry:
                return False
            parent[rx] = ry
            m &= m - 1
    return True


def dominant_partition_check(matrix: StrengthMatrix, partition: CyclicPartition) -> bool:
    """Is every participating link the strict strongest outgoing link of its
    transmitter?  (Users on trivial cycles are unconstrained: they
    contribute no participating bits.)

    A dominant partition's participating levels sit strictly above every
    competing interference level, so they can be recovered top-down."""
    _check_covers(partition, matrix)
    _, flat = matrix.scaled
    preds = partition.predecessors
    k = len(preds)
    for user, (pred, strength) in enumerate(zip(preds, _participating_strengths(flat, preds))):
        if pred and any(flat[rx * k + user] >= strength for rx in range(k)
                        if rx not in (user, pred - 1)):
            return False
    return True


def find_dominant_optimal(matrix: StrengthMatrix) -> "CyclicPartition | None":
    """A weight-optimal cyclic partition that is dominant, if one exists,
    built in O(K^2) without listing the ties (GuardError above
    MAX_ENUM_USERS, from the DP that gives the best weight).

    A non-trivial user u of a dominant partition must take as predecessor
    the receiver other than u that hears transmitter u strictly loudest
    (for K = 2, the other user), so the dominant partitions are exactly the
    sets of cycles of that map.  For K >= 3 each link on such a cycle is
    strictly louder than another link of its transmitter, so every cycle
    weighs more than 0 and only the partition taking all of them can be
    optimal.  The candidate takes every cycle of positive weight (on K = 2
    with both cross links 0, none: the all-trivial partition, the first of
    the two ties); it is optimal exactly when its weight is the best
    weight, and ``dominant_partition_check`` confirms it.
    """
    best, _ = brute_force_best_weight(matrix)
    k = matrix.users
    scale, flat = matrix.scaled
    loudest = []            # loudest[u]: receiver hearing transmitter u strictly loudest
    for u in range(k):
        heard = sorted((flat[r * k + u], r) for r in range(k) if r != u)
        strict = heard and (len(heard) == 1 or heard[-1][0] > heard[-2][0])
        loudest.append(heard[-1][1] if strict else None)
    pred = [0] * k
    for u in range(k):
        cycle, v = [u], loudest[u]
        while v is not None and v != u and len(cycle) < k:
            cycle.append(v)
            v = loudest[v]
        if v == u and sum(flat[loudest[w] * k + w] for w in cycle) > 0:
            pred[u] = loudest[u] + 1
    candidate = CyclicPartition(pred)
    weight = Fraction(sum(_participating_strengths(flat, candidate.predecessors)), scale)
    return candidate if weight == best and dominant_partition_check(matrix, candidate) else None


@dataclass(frozen=True)
class SufficientVerdict:
    """Invertibility via sufficient conditions only (no bit-level model).

    This is the only honest answer for gdof-mode sub-channels, where exact
    recoverability is an asymptotic statement rather than a finite rank
    computation.  ``status`` is "invertible" or "undetermined" -- the
    conditions are sufficient, never necessary, so they cannot certify a
    negative."""

    status: str
    reasons: tuple
    witness: "CyclicPartition | None"
    method: str = "sufficient-condition"

    def __bool__(self):
        return self.status == "invertible"


def sufficient_invertibility(matrix: StrengthMatrix) -> SufficientVerdict:
    reasons = []
    witness = None
    if matrix.users == 3:
        cond = check_3user_condition(matrix)
        if cond.holds:
            reasons.append(
                "the two directed 3-cycles carry different total strength "
                "(difference %s), so participating levels are recoverable "
                "under every cyclic partition" % cond.delta
            )
    if is_cyclic_topology(matrix):
        reasons.append(
            "each receiver hears at most one interferer, so every "
            "participating output level has a single contributor"
        )
    if not reasons:
        dom = find_dominant_optimal(matrix)
        if dom is not None:
            witness = dom
            reasons.append(
                "optimal cyclic partition %s is dominant: each participating "
                "link is its transmitter's strict strongest outgoing link, "
                "so participating levels can be recovered top-down" % dom
            )
    return SufficientVerdict(
        status="invertible" if reasons else "undetermined",
        reasons=tuple(reasons),
        witness=witness,
    )


def subchannel_invertibility(matrix: StrengthMatrix):
    """The sub-channel's invertibility verdict in its mode: exact over every
    optimal partition on bit levels, sufficient conditions on gdof."""
    if matrix.mode == "deterministic":
        return invertibility_verdict(matrix)
    return sufficient_invertibility(matrix)


# ---------------------------------------------------------------------------
# power control (deterministic TIN schemes)
# ---------------------------------------------------------------------------

def tin_feasible(matrix: StrengthMatrix, rates, powers) -> bool:
    """Is (rates, powers) a valid TIN scheme on this sub-channel?

    powers are per-user backoffs delta_k >= 0 (transmit the top
    n_kk - delta_k levels); a rate vector is supported when each user's
    desired bits fit above both its backoff and the strongest residual
    interference at its receiver:

        R_k <= n_kk - delta_k
        n_kk - delta_k - R_k >= max_{j != k} max(n_kj - delta_j, 0)

    These are the cycle LP's reference and arc rows, in d = R and
    q = delta, over which ``best_tin_scheme`` maximizes the sum.
    """
    _require_deterministic(matrix, "tin_feasible")
    k = matrix.users
    if len(rates) != k or len(powers) != k:
        raise InputError("rates and powers must both have %d entries" % k)
    r = [as_rational(x) for x in rates]
    d = [as_rational(x) for x in powers]
    if any(x < 0 for x in r) or any(x < 0 for x in d):
        raise InputError("rates and backoffs must be nonnegative")
    flat = matrix.scaled[1]     # bit levels: D = 1
    for u in range(k):
        row = flat[u * k:(u + 1) * k]
        head = row[u] - d[u]
        if r[u] > head:
            return False
        interference = max([0] + [row[j] - d[j] for j in range(k) if j != u])
        if head - r[u] < interference:
            return False
    return True


@dataclass(frozen=True)
class BestTinScheme:
    found: bool
    sum_rate: int
    rates: "tuple | None"
    powers: "tuple | None"


def best_tin_scheme(matrix: StrengthMatrix) -> BestTinScheme:
    """The best integer TIN scheme: the cycle LP's optimum (``solve_cycle_lp``).

    The LP's rows in rates d and backoffs q are exactly ``tin_feasible``'s
    conditions, so its optimum is the best TIN sum, and they are totally
    unimodular in (d + q, q) (Hoffman & Kruskal 1956): on bit levels its
    vertex is integral, an integer scheme.  No scheme exists exactly when
    the LP is infeasible.  GuardError above MAX_ENUM_USERS, before any LP.
    """
    _require_deterministic(matrix, "best_tin_scheme")
    res = solve_cycle_lp(matrix)
    if not res.optimal:
        return BestTinScheme(found=False, sum_rate=0, rates=None, powers=None)
    if any(v.denominator != 1 for v in (res.value, *res.point, *res.powers)):
        raise CrossCheckError("cycle LP vertex is not integral: rates %s, backoffs %s"
                              % (res.point, res.powers))
    return BestTinScheme(found=True, sum_rate=int(res.value),
                         rates=tuple(map(int, res.point)),
                         powers=tuple(map(int, res.powers)))


# ---------------------------------------------------------------------------
# separability of parallel networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelLeg:
    """Invertibility leg of the separability argument for one sub-channel."""

    channel: int
    status: str          # "invertible" | "non-invertible" | "undetermined" | "trivial (M=1)"
    method: str
    detail: object = None


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Does per-sub-channel TIN coding attain the combined optimum?

    ``certified`` is True when the argument closes: every sub-channel is TIN
    optimal and its participating structure is recoverable (exactly for
    deterministic networks, via sufficient conditions for gdof ones).  A
    single sub-channel is certified even when it is not TIN optimal: the
    combined and separated networks coincide, and the TIN failure stays in
    the reasons.  An uncertified verdict is not a disproof; the reasons list
    what is missing.
    """

    certified: bool
    sums: object              # NetworkSum over the sub-channels
    legs: tuple               # ChannelLeg per sub-channel
    reasons: tuple
    justification: str

    @property
    def total(self):
        return self.sums.total

    def __bool__(self):
        return self.certified


# the reason a leg of each status gives against separability
_LEG_REASONS = {
    "non-invertible": "no optimal cyclic partition of sub-channel %d has "
                      "GF(2)-invertible participating levels",
    "undetermined": "invertibility of sub-channel %d is undetermined (no "
                    "sufficient condition applies)",
}

_SINGLE_CHANNEL = (
    "a single sub-channel has nothing to separate: the combined and "
    "separated networks coincide, and non-participating interference links "
    "can be discarded without affecting the optimum, so the participating "
    "structure is trivially recoverable"
)

# why a certified network of two or more sub-channels separates, per mode
_SEPARATES = {
    "deterministic": "every sub-channel satisfies the TIN optimality "
                     "condition and has an optimal cyclic partition whose "
                     "participating levels are GF(2)-invertible, so separate "
                     "per-sub-channel TIN coding attains the combined "
                     "sum-capacity",
    "gdof": "every sub-channel satisfies the TIN optimality condition and a "
            "sufficient condition makes its participating interference "
            "recoverable, so separate per-sub-channel TIN coding attains the "
            "combined sum-GDoF",
}


def separability_verdict(network: Network) -> SeparabilityVerdict:
    sums = network_sum(network)
    reasons = ["sub-channel %d is not TIN optimal" % m
               for m, res in enumerate(sums.per_channel, start=1)
               if not res.tin.satisfied]
    if network.subchannels == 1:
        legs = (ChannelLeg(channel=1, status="trivial (M=1)",
                           method="trivial (M=1)"),)
        certified, justification = True, _SINGLE_CHANNEL
    else:
        legs = tuple(
            ChannelLeg(channel=m, status=v.status, method=v.method, detail=v)
            for m, v in enumerate(map(subchannel_invertibility,
                                      network.matrices), start=1))
        reasons += [_LEG_REASONS[leg.status] % leg.channel
                    for leg in legs if leg.status != "invertible"]
        certified = not reasons
        justification = _SEPARATES[network.mode] if certified else ""
    return SeparabilityVerdict(
        certified=certified,
        sums=sums,
        legs=legs,
        reasons=tuple(reasons),
        justification=justification,
    )
