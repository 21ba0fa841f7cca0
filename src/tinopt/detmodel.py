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
``bipartite_acyclic``, a forest test on one partition's participating
bits, is a library check that no verdict calls.

The separability verdict ties everything together: when every sub-channel
is TIN-optimal and its participating structure is recoverable, per-sub-channel
TIN coding attains the combined optimum, so the parallel network separates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from operator import sub

from .cycles import CyclicPartition, _check_covers
from .model import (
    GuardError,
    InputError,
    Network,
    StrengthMatrix,
    as_rational,
)
from .optimize import all_optimal_partitions, network_sum

__all__ = [
    "GF2_BIT_GUARD",
    "SCHEME_CELL_GUARD",
    "participating_levels",
    "channel_output",
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
SCHEME_CELL_GUARD = 2_000_000


def _require_deterministic(matrix: StrengthMatrix, what: str) -> None:
    if matrix.mode != "deterministic":
        raise InputError("%s requires a deterministic-mode matrix" % what)


# ---------------------------------------------------------------------------
# the bit-level channel
# ---------------------------------------------------------------------------

def channel_output(matrix: StrengthMatrix, inputs) -> tuple:
    """Receiver outputs for explicit input bit streams.

    ``inputs[i-1]`` is transmitter i's bit sequence, most significant
    (highest) bit first.  Output k is the XOR of floor(2^{n_ki} X_i) over
    every transmitter, as a plain integer.
    """
    _require_deterministic(matrix, "channel_output")
    k = matrix.users
    if len(inputs) != k:
        raise InputError("need %d input streams, got %d" % (k, len(inputs)))
    streams = []
    for i, bits in enumerate(inputs, start=1):
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise InputError("transmitter %d input must be 0/1 bits" % i)
        streams.append(bits)
    _, flat = matrix.scaled
    out = []
    for rx in range(k):
        y = 0
        for n, bits in zip(flat[rx * k:(rx + 1) * k], streams):
            for t in range(1, min(n, len(bits)) + 1):
                if bits[t - 1]:
                    y ^= 1 << (n - t)
        out.append(y)
    return tuple(out)


def _widths(flat, predecessors) -> tuple:
    """w_u = n_{pred(u),u} for each user u, read from the row-major integer
    view ``flat`` (``StrengthMatrix.scaled``), 0 on a trivial cycle: the
    participating widths of the partition whose predecessor vector
    (``CyclicPartition.predecessors``, 0 marking a trivial cycle) is given.
    A partition's GF(2) system, rank, kernel and dominance depend on it
    only through these widths."""
    k = len(predecessors)
    return tuple(flat[(p - 1) * k + u] if p else 0 for u, p in enumerate(predecessors))


def participating_levels(matrix: StrengthMatrix, partition: CyclicPartition) -> tuple:
    """Per-user count of participating bits under the partition.

    User i participates with its top n_{pred(i), i} bits -- exactly the bits
    its cyclic predecessor's receiver observes.  Users on trivial cycles
    participate with nothing.
    """
    _require_deterministic(matrix, "participating_levels")
    _check_covers(partition, matrix)
    return _widths(matrix.scaled[1], partition.predecessors())


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
    widths = _widths(flat, partition.predecessors())
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
        widths = _widths(flat, part.predecessors())
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
    forward = (matrix.edge_weight(1, 2) + matrix.edge_weight(2, 3)
               + matrix.edge_weight(3, 1))
    backward = (matrix.edge_weight(2, 1) + matrix.edge_weight(3, 2)
                + matrix.edge_weight(1, 3))
    delta = forward - backward
    return ThreeUserCondition(holds=delta != 0, delta=delta)


def is_cyclic_topology(matrix: StrengthMatrix) -> bool:
    """True when each receiver hears at most one interferer.

    Every participating output level then has a single contributor, the
    bipartite dependency structure is a forest, and invertibility follows
    for any partition."""
    for rx in range(1, matrix.users + 1):
        interferers = sum(
            1 for tx in range(1, matrix.users + 1)
            if tx != rx and matrix.entry(rx, tx) > 0
        )
        if interferers > 1:
            return False
    return True


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
    preds = partition.predecessors()
    k = len(preds)
    for user, (pred, strength) in enumerate(zip(preds, _widths(flat, preds))):
        if pred and any(flat[rx * k + user] >= strength for rx in range(k)
                        if rx not in (user, pred - 1)):
            return False
    return True


def find_dominant_optimal(matrix: StrengthMatrix) -> "CyclicPartition | None":
    """Some weight-optimal cyclic partition that is dominant, if one exists."""
    for part in all_optimal_partitions(matrix):
        if dominant_partition_check(matrix, part):
            return part
    return None


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
    """
    _require_deterministic(matrix, "tin_feasible")
    k = matrix.users
    if len(rates) != k or len(powers) != k:
        raise InputError("rates and powers must both have %d entries" % k)
    r = [as_rational(x) for x in rates]
    d = [as_rational(x) for x in powers]
    if any(x < 0 for x in r) or any(x < 0 for x in d):
        raise InputError("rates and backoffs must be nonnegative")
    zero = Fraction(0)
    for u in range(1, k + 1):
        head = matrix.desired(u) - d[u - 1]
        if r[u - 1] > head:
            return False
        interference = max(
            (max(matrix.entry(u, j) - d[j - 1], zero)
             for j in range(1, k + 1) if j != u),
            default=zero,
        )
        if head - r[u - 1] < interference:
            return False
    return True


@dataclass(frozen=True)
class BestTinScheme:
    found: bool
    sum_rate: int
    rates: "tuple | None"
    powers: "tuple | None"


def best_tin_scheme(matrix: StrengthMatrix) -> BestTinScheme:
    """Exact search over integer backoff vectors for the best TIN sum.

    Backoff k is capped at min(n_kk, max_j n_jk): backing off past your own
    link kills your rate, and past your strongest outgoing interference it
    stops helping anyone.  An integer optimum always exists because the
    feasibility constraints are difference constraints with integer data.
    The box of capped backoffs is guarded at ``SCHEME_CELL_GUARD`` cells,
    counted before any cell is visited.

    The box is walked depth first in lexicographic order (user 1's backoff
    varies slowest), iteratively, carrying each receiver's interference
    from the backoffs fixed so far, max(0, n_uj - delta_j), at O(K) per
    node.  Fixing more backoffs only raises that interference, so a subtree
    is skipped exactly when it cannot change the answer:

    - the user being fixed already has a negative rate: every larger
      backoff for it fails too, so its remaining values are skipped;
    - some user already has a negative rate, counting each open backoff as
      0: every cell below is infeasible;
    - the rates so far, with each open backoff counted as 0, add up to at
      most the best sum found: no cell below beats it.

    The best scheme is replaced only by a strictly greater sum, so the
    answer is the first optimum in lexicographic backoff order, as a
    cell-by-cell scan of the box would report.
    """
    _require_deterministic(matrix, "best_tin_scheme")
    k = matrix.users
    _, flat = matrix.scaled
    diag = list(flat[::k + 1])
    caps = []
    for u in range(k):
        colmax = max((flat[j * k + u] for j in range(k) if j != u), default=0)
        caps.append(min(colmax, diag[u]))
    cells = 1
    for c in caps:
        cells *= c + 1
    if cells > SCHEME_CELL_GUARD:
        raise GuardError(
            "exhaustive enumeration limit exceeded: %d backoff cells (max %d)"
            % (cells, SCHEME_CELL_GUARD)
        )
    # links[d]: (u, n_ud) for every receiver u that user d reaches
    links = [[(u, n) for u, n in enumerate(flat[d::k]) if u != d and n > 0]
             for d in range(k)]
    head = diag[:]                   # n_uu - delta_u, open backoffs as 0
    inter = [[0] * k] + [None] * k   # inter[d]: after fixing users 0..d-1
    bound = [sum(diag)] + [None] * k  # bound[d] = sum(head) - sum(inter[d])
    delta = [-1] * k
    best_sum = -1                    # a feasible cell sums to at least 0
    best = None
    last = k - 1
    d = 0
    while d >= 0:
        x = delta[d] + 1
        prev = inter[d]
        if x > caps[d] or diag[d] - x < prev[d]:
            # the box, or user d's own rate, ends this level
            delta[d] = -1
            head[d] = diag[d]
            d -= 1
            continue
        delta[d] = x
        head[d] = diag[d] - x
        # every rate was nonnegative one level up; only the receivers that
        # user d's residual link now dominates lose rate
        total = bound[d] - x
        cur = prev[:]
        for u, n in links[d]:
            v = n - x
            if v > cur[u]:
                if v > head[u]:
                    break                # user u's rate is negative
                total -= v - cur[u]
                cur[u] = v
        else:
            if total <= best_sum:
                continue
            if d == last:
                best_sum = total
                best = (tuple(map(sub, head, cur)), tuple(delta))
            else:
                d += 1
                inter[d] = cur
                bound[d] = total
    if best is None:
        return BestTinScheme(found=False, sum_rate=0, rates=None, powers=None)
    return BestTinScheme(found=True, sum_rate=best_sum,
                         rates=best[0], powers=best[1])


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
