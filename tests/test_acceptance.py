"""Acceptance suite: nine end-to-end criteria, one summary line each.

Every comparison here is exact rational/integer equality -- no tolerances.
Random corpora use fixed seeds so failures are reproducible; independent
oracles (vertex enumeration, permutation scans, literal channel simulation)
back the solver results wherever a second opinion exists.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from oracles import (
    best_tin_scheme_sweep,
    exhaustive_injectivity,
    kernel_maps_to_zero,
    partition_of_cycles,
    random_det_matrix,
    random_partition,
    random_strict_tin_matrix,
)
from tinopt.cycles import (
    cycle_count,
    enumerate_cycles,
    enumerate_partitions,
    partition_bound,
    partition_count,
)
from tinopt.detmodel import (
    best_tin_scheme,
    bipartite_acyclic,
    check_3user_condition,
    dominant_partition_check,
    invertible_gf2,
    invertibility_verdict,
    participating_levels,
    separability_verdict,
)
from tinopt.fixtures import (
    caution_lp,
    cyclic_dominant4,
    example1,
    example2,
    gap_network,
    gap_point,
)
from tinopt.model import StrengthMatrix, check_tin
from tinopt.optimize import (
    best_partition_assignment,
    brute_force_best_weight,
    nonnegativity_redundancy_check,
    solve_cycle_lp,
)
from tinopt.region import (
    combined_sum_bounds,
    region_contains,
    separate_tin_decomposable,
    tin_region,
)

SEED = 20260814
CORPUS_SIZE = 1000


def _line(num: int, ok: bool, detail: str) -> None:
    print()
    print("criterion %d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


@pytest.fixture(scope="module")
def strict_corpus():
    """1000 strictly TIN-optimal matrices, K cycling through 2..7, mixed
    gdof/deterministic modes, fixed seed."""
    rng = random.Random(SEED)
    out = []
    for i in range(CORPUS_SIZE):
        k = 2 + (i % 6)
        mode = "deterministic" if i % 2 else "gdof"
        out.append(random_strict_tin_matrix(rng, k, mode))
    return out


# ---------------------------------------------------------------------------
# 1. three independent routes agree on every strictly TIN-optimal instance
# ---------------------------------------------------------------------------


def test_criterion_1_three_route_agreement(strict_corpus):
    start = time.monotonic()
    bad = 0
    for mat in strict_corpus:
        assert check_tin(mat).strict
        k = mat.users
        diag = sum((mat.desired(u) for u in range(1, k + 1)), Fraction(0))
        lp = solve_cycle_lp(mat)
        aw, _ = best_partition_assignment(mat)
        bw, _ = brute_force_best_weight(mat)
        if not (lp.optimal and lp.value == diag - aw == diag - bw):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and len(strict_corpus) >= 1000 and elapsed < 60
    _line(1, ok,
          "cycle LP = assignment bound = brute force on %d/%d strictly "
          "TIN-optimal instances, K in 2..7, exact equality (%.1f s)"
          % (len(strict_corpus) - bad, len(strict_corpus), elapsed))


# ---------------------------------------------------------------------------
# 2. the cautionary sub-channel, and nonnegativity redundancy under strict TIN
# ---------------------------------------------------------------------------


def test_criterion_2_lp_sanity_and_redundancy(strict_corpus):
    caution = caution_lp()
    bounded = solve_cycle_lp(caution)
    free = solve_cycle_lp(caution, nonneg=False)
    lp_ok = (bounded.status == free.status == "optimal"
             and (bounded.value, bounded.point) == (20, (0, 10, 10))
             and (free.value, free.point) == (25, (-5, 15, 15))
             and not nonnegativity_redundancy_check(caution).redundant)
    redundant = sum(
        1 for mat in strict_corpus
        if nonnegativity_redundancy_check(mat).redundant
    )
    ok = lp_ok and redundant == len(strict_corpus)
    _line(2, ok,
          "cautionary non-TIN sub-channel's cycle LP gives 20 with d >= 0 "
          "and 25 without; dropping d >= 0 left the optimum unchanged on "
          "%d/%d strict instances"
          % (redundant, len(strict_corpus)))


# ---------------------------------------------------------------------------
# 3. first bundled example: TIN + capacity 6 + invertible everywhere -> 18
# ---------------------------------------------------------------------------


def test_criterion_3_example1_replay():
    net = example1()
    stated = (
        partition_of_cycles(((1, 2, 3),)),
        partition_of_cycles(((1, 3, 2),)),
        partition_of_cycles(((1,), (2, 3))),
    )
    tin_ok = all(check_tin(mat).satisfied for mat in net.matrices)
    verdict = separability_verdict(net)
    sums_ok = all(res.value == 6 and res.exact
                  for res in verdict.sums.per_channel)
    inv_ok = True
    for mat, part in zip(net.matrices, stated):
        if partition_bound(part, mat) != 6:       # stated partition is optimal
            inv_ok = False
        if not invertible_gf2(mat, part).invertible:
            inv_ok = False
    total_ok = verdict.total == 18 and verdict.certified
    ok = tin_ok and sums_ok and inv_ok and total_ok
    _line(3, ok,
          "every sub-channel TIN optimal with sum-capacity exactly 6, "
          "stated partitions invertible, separable total exactly 18")


# ---------------------------------------------------------------------------
# 4. second bundled example: the third sub-channel is not invertible
# ---------------------------------------------------------------------------


def test_criterion_4_example2_replay():
    net = example2()
    verdicts = [invertibility_verdict(mat) for mat in net.matrices]
    head_ok = verdicts[0].invertible and verdicts[1].invertible
    third = verdicts[2]
    witness_ok = not third.invertible and len(third.certificates) > 0
    for cert in third.certificates:
        if cert.invertible or not cert.kernel:
            witness_ok = False
            continue
        # the kernel must be a genuinely nonzero input that the literal
        # channel maps to all-zero interference
        if not kernel_maps_to_zero(net.matrices[2], cert.partition,
                                   cert.kernel):
            witness_ok = False
    ok = head_ok and witness_ok
    _line(4, ok,
          "sub-channels 1-2 invertible; sub-channel 3 non-invertible with "
          "channel-verified nonzero GF(2) kernel witnesses on all %d "
          "optimal partitions" % len(third.certificates))


# ---------------------------------------------------------------------------
# 5. the gap network: combined membership without decomposability
# ---------------------------------------------------------------------------


def test_criterion_5_gap_counterexample():
    eps = Fraction(1, 10)
    net = gap_network(eps)
    bounds = combined_sum_bounds(net)
    bounds_ok = all(
        rhs == {1: Fraction(2), 2: Fraction(5, 2) + eps, 3: Fraction(3)}[len(s)]
        for s, rhs in bounds.bounds.items()
    )
    point = gap_point()
    inside_ok = bounds.contains(point).inside

    split = separate_tin_decomposable(net, point)
    caps = {c.user: c.cap for c in split.caps}
    infeasible_ok = (not split.feasible
                     and caps.get(2) == 2 * eps and caps.get(3) == 2 * eps
                     and all(c.cap < c.target for c in split.caps))

    ones = separate_tin_decomposable(net, (1, 1, 1))
    half = (Fraction(1, 2),) * 3
    half_ok = ones.feasible and all(
        region_contains(tin_region(mat), half).inside for mat in net.matrices
    )
    alloc_ok = ones.feasible and all(
        region_contains(tin_region(mat), chan).inside
        for mat, chan in zip(net.matrices, ones.allocation)
    ) and all(
        sum(chan[u] for chan in ones.allocation) == 1 for u in range(3)
    )
    ok = bounds_ok and inside_ok and infeasible_ok and half_ok and alloc_ok
    _line(5, ok,
          "(2, 1/2, 1/2) inside the combined bounds (2 / 13/5 / 3) yet not "
          "decomposable (caps 2*eps = 1/5); (1, 1, 1) decomposes, e.g. as "
          "half-and-half per sub-channel")


# ---------------------------------------------------------------------------
# 6. GF(2) rank verdict == exhaustive injectivity enumeration
# ---------------------------------------------------------------------------


def test_criterion_6_rank_vs_exhaustive_injectivity():
    rng = random.Random(SEED + 6)
    agreed = checked = 0
    attempts = 0
    while checked < 500 and attempts < 50000:
        attempts += 1
        k = rng.randint(2, 4)
        mat = random_det_matrix(rng, k, hi=3)
        part = random_partition(rng, k)
        if sum(participating_levels(mat, part)) > 12:
            continue
        checked += 1
        cert = invertible_gf2(mat, part)
        if cert.invertible == exhaustive_injectivity(mat, part):
            agreed += 1
    ok = checked >= 500 and agreed == checked
    _line(6, ok,
          "GF(2) rank verdict matched exhaustive injectivity enumeration on "
          "%d/%d instances with <= 12 participating bits" % (agreed, checked))


# ---------------------------------------------------------------------------
# 7. sufficient conditions imply invertibility; acyclicity is not necessary
# ---------------------------------------------------------------------------


def test_criterion_7_sufficient_condition_implications():
    rng = random.Random(SEED + 7)
    counter = {"acyclic": 0, "dominant": 0, "threeuser": 0}
    holds = {"acyclic": 0, "dominant": 0, "threeuser": 0}
    attempts = 0
    while (min(holds["acyclic"], holds["dominant"]) < 500
           and attempts < 200000):
        attempts += 1
        k = rng.randint(2, 4)
        mat = random_det_matrix(rng, k, hi=3)
        part = random_partition(rng, k)
        if holds["acyclic"] < 500 and bipartite_acyclic(mat, part):
            holds["acyclic"] += 1
            if not invertible_gf2(mat, part).invertible:
                counter["acyclic"] += 1
        if holds["dominant"] < 500 and dominant_partition_check(mat, part):
            holds["dominant"] += 1
            if not invertible_gf2(mat, part).invertible:
                counter["dominant"] += 1
    while holds["threeuser"] < 500:
        mat = random_det_matrix(rng, 3, hi=4)
        if not check_3user_condition(mat).holds:
            continue
        holds["threeuser"] += 1
        for part in enumerate_partitions(3):
            if not invertible_gf2(mat, part).invertible:
                counter["threeuser"] += 1

    mat4 = cyclic_dominant4().matrices[0]
    verdict4 = invertibility_verdict(mat4)
    necessity_fails = (verdict4.invertible
                       and not bipartite_acyclic(mat4,
                                                 verdict4.witness.partition))

    ok = (all(v == 0 for v in counter.values())
          and all(v >= 500 for v in holds.values())
          and necessity_fails)
    _line(7, ok,
          "0 counterexamples: acyclic (%d), dominant (%d), 3-user unequal "
          "cycle sums under all partitions (%d); plus a cyclic-yet-"
          "invertible 4-user fixture"
          % (holds["acyclic"], holds["dominant"], holds["threeuser"]))


# ---------------------------------------------------------------------------
# 8. the exhaustive TIN scheme attains the partition-bound sum-capacity
# ---------------------------------------------------------------------------


def test_criterion_8_achievability():
    # the scheme is the exhaustive sweep's, so the criterion stays a check
    # of achievability, not a second LP-versus-DP check; the library's LP
    # vertex must agree with it
    rng = random.Random(SEED + 8)
    matched = agreed = 0
    total = 200
    for _ in range(total):
        k = rng.randint(2, 4)
        mat = random_strict_tin_matrix(rng, k, mode="deterministic")
        assert check_tin(mat).satisfied
        scheme, vertex = best_tin_scheme_sweep(mat), best_tin_scheme(mat)
        weight, _ = brute_force_best_weight(mat)
        diag = sum(int(mat.desired(u)) for u in range(1, k + 1))
        if scheme.found and scheme.sum_rate == diag - int(weight):
            matched += 1
        agreed += (vertex.found, vertex.sum_rate) == (scheme.found, scheme.sum_rate)

    two = StrengthMatrix.from_values("deterministic", [[3, 1], [1, 3]])
    pair_ok = best_tin_scheme_sweep(two).sum_rate == best_tin_scheme(two).sum_rate == 4

    ok = matched == agreed == total and pair_ok
    _line(8, ok,
          "exhaustive TIN scheme total == diagonal sum - optimal partition "
          "weight on %d/%d TIN-optimal instances (K <= 4), best_tin_scheme "
          "agrees on %d/%d; 2-user (3,1/1,3) instance gives exactly 4"
          % (matched, total, agreed, total))


# ---------------------------------------------------------------------------
# 9. enumeration sizes match the closed forms
# ---------------------------------------------------------------------------


def test_criterion_9_combinatorial_counts():
    ok = True
    for k in range(1, 8):
        cycles = len(enumerate_cycles(k))
        parts = len(enumerate_partitions(k))
        closed = sum(math.comb(k, size) * math.factorial(size - 1)
                     for size in range(1, k + 1))
        if not (cycles == closed == cycle_count(k)
                and parts == math.factorial(k) == partition_count(k)):
            ok = False
    ok = ok and len(enumerate_cycles(3)) == 8
    _line(9, ok,
          "cycle counts equal sum C(K,L)(L-1)! and partition counts equal "
          "K! for K = 1..7 (K = 3 gives 8 cycles)")
