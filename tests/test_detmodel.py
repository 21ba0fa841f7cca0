"""Unit tests for the bit-level model, invertibility, schemes, separability."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    best_tin_scheme_sweep,
    exhaustive_injectivity,
    kernel_maps_to_zero,
    per_tie_certificates,
    random_det_matrix,
    random_partition,
    random_strict_tin_matrix,
    random_tied_matrix,
)
from tinopt import detmodel
from tinopt.cycles import Cycle, CyclicPartition, enumerate_partitions
from tinopt.detmodel import (
    GF2_BIT_GUARD,
    SCHEME_CELL_GUARD,
    _gf2_rank_and_kernel,
    best_tin_scheme,
    bipartite_acyclic,
    build_gf2_system,
    channel_output,
    check_3user_condition,
    dominant_partition_check,
    find_dominant_optimal,
    invertibility_verdict,
    invertible_gf2,
    is_cyclic_topology,
    participating_levels,
    separability_verdict,
    subchannel_invertibility,
    sufficient_invertibility,
    tin_feasible,
)
from tinopt.fixtures import (
    acyclic4,
    cyclic_dominant4,
    example1,
    example2,
    gap_network,
)
from tinopt.model import (
    GuardError,
    InputError,
    Network,
    StrengthMatrix,
    quantize,
)
from tinopt.optimize import all_optimal_partitions, optimal_partition

SYMMETRIC3 = StrengthMatrix.from_values(
    "deterministic", [[3, 1, 1], [1, 3, 1], [1, 1, 3]]
)

# three tied optimal partitions; only {(1,4,2,3)} is invertible, so the
# existential verdict must dig past the first two singular certificates
MIXED_TIES4 = StrengthMatrix.from_values(
    "deterministic",
    [[3, 0, 1, 4],
     [1, 4, 3, 0],
     [0, 0, 1, 2],
     [1, 1, 3, 1]],
)


def _det(rows):
    return StrengthMatrix.from_values("deterministic", rows)


# ---------------------------------------------------------------------------
# the literal channel
# ---------------------------------------------------------------------------


def test_channel_output_single_link_is_floor_shift():
    # floor(2^3 * 0.101b) = 5
    assert channel_output(_det([[3]]), ((1, 0, 1),)) == (5,)
    # extra input bits beyond the link level are truncated away
    assert channel_output(_det([[1]]), ((1, 1, 1),)) == (1,)
    assert channel_output(_det([[0]]), ((1, 1),)) == (0,)


def test_channel_output_superposes_by_xor():
    mat = _det([[2, 1], [2, 3]])
    out = channel_output(mat, ((1, 1), (1,)))
    # rx1: floor(4 * 0.11b) ^ floor(2 * 0.1b) = 3 ^ 1
    # rx2: floor(4 * 0.11b) ^ floor(8 * 0.1b) = 3 ^ 4
    assert out == (2, 7)


def test_channel_output_validation():
    mat = _det([[1, 0], [0, 1]])
    with pytest.raises(InputError):
        channel_output(mat, ((1,),))          # one stream missing
    with pytest.raises(InputError):
        channel_output(mat, ((2,), (0,)))     # not a bit
    gdof = StrengthMatrix.from_values("gdof", [[1]])
    with pytest.raises(InputError):
        channel_output(gdof, ((1,),))


def test_participating_levels():
    mat = example1().matrices[0]
    full = CyclicPartition((Cycle((1, 2, 3)),))
    # widths are the strengths at each user's predecessor: a_31, a_12, a_23
    assert participating_levels(mat, full) == (0, 2, 1)
    trivial = CyclicPartition(((1,), (2,), (3,)))
    assert participating_levels(mat, trivial) == (0, 0, 0)
    with pytest.raises(InputError):
        participating_levels(mat, CyclicPartition(((1,), (2,))))


# ---------------------------------------------------------------------------
# GF(2) systems
# ---------------------------------------------------------------------------


def test_build_gf2_system_tiny():
    mat = _det([[2, 1], [1, 2]])
    sys2 = build_gf2_system(mat, CyclicPartition(((1, 2),)))
    assert sys2.variables == ((1, 1), (2, 1))
    # each receiver sees the other transmitter's single bit at level 0;
    # desired links never enter the system
    assert sys2.row_labels == ((1, 0), (2, 0))
    assert sys2.rows == (0b10, 0b01)


def test_build_gf2_system_merges_colliding_levels():
    part = CyclicPartition((Cycle((1, 2, 3)),))
    sys3 = build_gf2_system(SYMMETRIC3, part)
    assert len(sys3.variables) == 3
    # at every receiver both interferers land on level 0 and merge into one row
    assert len(sys3.rows) == 3
    assert all(bin(mask).count("1") == 2 for mask in sys3.rows)


def test_gf2_rank_and_kernel_basics():
    rank, witness = _gf2_rank_and_kernel([0b11, 0b10], 2)
    assert rank == 2 and witness is None
    rank, witness = _gf2_rank_and_kernel([0b11, 0b11], 2)
    assert rank == 1 and witness == 0b11
    rank, witness = _gf2_rank_and_kernel([], 1)
    assert rank == 0 and witness == 0b1
    # the witness really annihilates every row
    rows = [0b1011, 0b0110, 0b1100]
    rank, witness = _gf2_rank_and_kernel(rows, 4)
    assert rank == 3 and witness is not None
    for row in rows:
        assert bin(row & witness).count("1") % 2 == 0


def test_invertible_gf2_on_fixture_cases():
    mat = example1().matrices[0]
    cert = invertible_gf2(mat, CyclicPartition((Cycle((1, 2, 3)),)))
    assert cert.invertible and cert.rank == cert.num_bits == 3
    assert cert.kernel is None and bool(cert)

    part = CyclicPartition((Cycle((1, 2, 3)),))
    bad = invertible_gf2(SYMMETRIC3, part)
    assert not bad.invertible and bad.rank == 2 and bad.num_bits == 3
    assert bad.kernel == ((1, 1), (2, 1), (3, 1))
    assert kernel_maps_to_zero(SYMMETRIC3, part, bad.kernel)


def test_gf2_bit_guard():
    mat = _det([[5000, 4096], [4096, 5000]])
    with pytest.raises(GuardError):
        build_gf2_system(mat, CyclicPartition(((1, 2),)))
    assert GF2_BIT_GUARD == 4096


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 4))
def test_invertible_gf2_matches_exhaustive_injectivity(seed, k):
    rng = random.Random(seed)
    mat = random_det_matrix(rng, k, hi=3)
    part = random_partition(rng, k)
    if sum(participating_levels(mat, part)) > 12:
        return
    cert = invertible_gf2(mat, part)
    assert cert.invertible == exhaustive_injectivity(mat, part)
    if not cert.invertible:
        assert kernel_maps_to_zero(mat, part, cert.kernel)


def test_invertibility_verdict_negative_and_existential():
    bad = invertibility_verdict(SYMMETRIC3)
    assert not bad.invertible and bad.witness is None
    assert bad.status == "non-invertible"
    assert len(bad.certificates) == 2  # the two directed 3-cycles tie
    assert all(c.kernel for c in bad.certificates)

    mixed = invertibility_verdict(MIXED_TIES4)
    assert mixed.invertible and mixed.status == "invertible"
    assert str(mixed.witness.partition) == "{(1,4,2,3)}"
    assert sum(1 for c in mixed.certificates if not c.invertible) == 2

    with pytest.raises(InputError):
        invertibility_verdict(StrengthMatrix.from_values("gdof", [[1]]))


def test_subchannel_invertibility_picks_the_check_by_mode():
    assert subchannel_invertibility(SYMMETRIC3) == invertibility_verdict(SYMMETRIC3)
    sym = StrengthMatrix.from_values("gdof", [[3, 1, 1], [1, 3, 1], [1, 1, 3]])
    assert subchannel_invertibility(sym) == sufficient_invertibility(sym)


def _fields(cert):
    return (cert.partition, cert.num_bits, cert.rank, cert.invertible,
            cert.kernel)


_TIED = [random_tied_matrix(random.Random(k * 100 + i), k)
         for k in range(1, 9) for i in range(12)]


@pytest.mark.parametrize("mat", _TIED + [MIXED_TIES4, SYMMETRIC3])
def test_invertibility_verdict_matches_per_tie_reference(mat):
    verdict = invertibility_verdict(mat)
    want = per_tie_certificates(mat)
    assert [_fields(c) for c in verdict.certificates] == [_fields(c) for c in want]
    assert verdict.invertible == any(c.invertible for c in want)
    assert verdict.witness == next((c for c in want if c.invertible), None)
    for cert in verdict.certificates:
        if not cert.invertible:
            assert kernel_maps_to_zero(mat, cert.partition, cert.kernel)


def test_invertibility_verdict_eliminates_once_per_width_vector(monkeypatch):
    seen = []
    original = detmodel.invertible_gf2

    def counting(mat, part):
        seen.append(participating_levels(mat, part))
        return original(mat, part)

    monkeypatch.setattr(detmodel, "invertible_gf2", counting)
    calls = ties = 0
    for mat in _TIED:
        seen.clear()
        invertibility_verdict(mat)
        widths = [participating_levels(mat, p) for p in all_optimal_partitions(mat)]
        assert seen == list(dict.fromkeys(widths))
        calls += len(seen)
        ties += len(widths)
    assert calls < ties     # the corpus has ties that share a width vector


def test_invertibility_verdict_guard_trips_before_elimination(monkeypatch):
    def fail(*args):
        raise AssertionError("elimination ran past the bit guard")

    monkeypatch.setattr(detmodel, "_gf2_rank_and_kernel", fail)
    mat = _det([[5000, 4096], [4096, 5000]])
    with pytest.raises(GuardError, match="8192 participating bits"):
        invertibility_verdict(mat)


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------


def test_check_3user_condition():
    mat = StrengthMatrix.from_values(
        "gdof", [[9, 1, 2], [3, 9, 4], [5, 6, 9]]
    )
    cond = check_3user_condition(mat)
    assert cond.holds and cond.delta == (1 + 4 + 5) - (3 + 6 + 2)
    flat = check_3user_condition(SYMMETRIC3)
    assert not flat.holds and flat.delta == 0
    with pytest.raises(InputError):
        check_3user_condition(_det([[1, 0], [0, 1]]))


def test_is_cyclic_topology():
    net = gap_network(Fraction(1, 10))
    assert is_cyclic_topology(net.matrices[0])       # one interferer each
    assert not is_cyclic_topology(net.matrices[1])   # two interferers each
    assert is_cyclic_topology(_det([[2, 1], [0, 2]]))
    assert is_cyclic_topology(_det([[1]]))


def test_acyclic_fixture_is_a_forest_and_dominant():
    mat = acyclic4().matrices[0]
    parts = all_optimal_partitions(mat)
    assert len(parts) == 1
    part = parts[0]
    assert part.to_permutation() == (4, 1, 2, 3)
    assert bipartite_acyclic(mat, part)
    assert dominant_partition_check(mat, part)
    cert = invertible_gf2(mat, part)
    assert cert.invertible and cert.num_bits == 8


def test_cyclic_fixture_breaks_acyclicity_but_not_invertibility():
    mat = cyclic_dominant4().matrices[0]
    part = optimal_partition(mat)
    assert not bipartite_acyclic(mat, part)   # a bipartite cycle exists...
    cert = invertible_gf2(mat, part)
    assert cert.invertible                    # ...yet the rank is full
    assert cert.num_bits == cert.rank == 11
    assert dominant_partition_check(mat, part)


def test_dominant_partition_check_details():
    # symmetric strengths can never be *strictly* dominant
    for part in enumerate_partitions(3):
        if not all(c.trivial for c in part.cycles):
            assert not dominant_partition_check(SYMMETRIC3, part)
    # all-trivial partitions are vacuously dominant
    trivial = CyclicPartition(((1,), (2,), (3,)))
    assert dominant_partition_check(SYMMETRIC3, trivial)
    assert find_dominant_optimal(SYMMETRIC3) is None
    with pytest.raises(InputError):
        dominant_partition_check(SYMMETRIC3, CyclicPartition(((1,), (2,))))


def test_sufficient_invertibility_reason_selection():
    net = gap_network(Fraction(1, 10))
    first = sufficient_invertibility(net.matrices[0])
    assert first.status == "invertible" and bool(first)
    assert any("at most one interferer" in r for r in first.reasons)

    second = sufficient_invertibility(net.matrices[1])
    assert second.status == "invertible"
    assert any("different total strength" in r for r in second.reasons)

    stuck = sufficient_invertibility(SYMMETRIC3)
    assert stuck.status == "undetermined" and not bool(stuck)
    assert stuck.reasons == () and stuck.witness is None

    dom = sufficient_invertibility(acyclic4().matrices[0])
    assert dom.status == "invertible"
    assert dom.witness is not None
    assert any("dominant" in r for r in dom.reasons)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_sufficient_conditions_never_contradict_exact_rank(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    mat = random_det_matrix(rng, k, hi=3)
    verdict = sufficient_invertibility(mat)
    if verdict.status != "invertible":
        return
    if verdict.witness is not None:
        assert invertible_gf2(mat, verdict.witness).invertible
    else:
        # topology/3-user reasons promise every optimal partition works
        for part in all_optimal_partitions(mat):
            assert invertible_gf2(mat, part).invertible


# ---------------------------------------------------------------------------
# TIN schemes
# ---------------------------------------------------------------------------


def test_tin_feasible_literal_cases():
    mat = _det([[3, 1], [1, 3]])
    assert tin_feasible(mat, (2, 2), (1, 1))   # backoffs silence the cross links
    assert tin_feasible(mat, (2, 2), (0, 0))   # interference fits below the rate
    assert not tin_feasible(mat, (3, 3), (0, 0))
    assert not tin_feasible(mat, (3, 3), (1, 1))  # rate above the backed-off head
    assert tin_feasible(mat, (0, 0), (0, 0))


def test_tin_feasible_validation():
    mat = _det([[3, 1], [1, 3]])
    with pytest.raises(InputError):
        tin_feasible(mat, (1,), (0, 0))
    with pytest.raises(InputError):
        tin_feasible(mat, (1, -1), (0, 0))
    with pytest.raises(InputError):
        tin_feasible(mat, (1, 1), (0, -2))
    with pytest.raises(InputError):
        tin_feasible(StrengthMatrix.from_values("gdof", [[1]]), (0,), (0,))


def test_best_tin_scheme_small_cases():
    scheme = best_tin_scheme(_det([[3, 1], [1, 3]]))
    assert scheme.found and scheme.sum_rate == 4
    assert tin_feasible(_det([[3, 1], [1, 3]]), scheme.rates, scheme.powers)
    assert sum(scheme.rates) == 4

    # hopeless instance: every backoff cell yields a negative rate
    hopeless = best_tin_scheme(_det([[0, 1], [1, 0]]))
    assert not hopeless.found and hopeless.sum_rate == 0
    assert hopeless.rates is None and hopeless.powers is None

    silent = best_tin_scheme(_det([[0]]))
    assert silent.found and silent.sum_rate == 0


def test_best_tin_scheme_attains_partition_bound_on_fixture():
    from tinopt.optimize import brute_force_best_weight

    for mat in example1().matrices:
        scheme = best_tin_scheme(mat)
        weight, _ = brute_force_best_weight(mat)
        diag = sum(int(mat.desired(u)) for u in range(1, 4))
        assert scheme.found and scheme.sum_rate == diag - weight == 6
        assert tin_feasible(mat, scheme.rates, scheme.powers)


def test_best_tin_scheme_guard():
    big = _det([[40] * 4 for _ in range(4)])
    with pytest.raises(GuardError):
        best_tin_scheme(big)
    assert SCHEME_CELL_GUARD == 2_000_000


def test_best_tin_scheme_guard_boundary():
    # (999 + 1) * (1999 + 1) is exactly the guard: answered
    mat = _det([[999, 1999], [999, 1999]])
    scheme = best_tin_scheme(mat)
    assert scheme.found
    assert tin_feasible(mat, scheme.rates, scheme.powers)
    # no cell sums above 0; the first that reaches it backs user 2 off
    # just far enough to leave user 1 a rate of 0
    assert scheme.sum_rate == 0 and scheme.powers == (0, 1000)
    # (1000 + 1) * (1999 + 1) is one row of cells over it
    with pytest.raises(GuardError):
        best_tin_scheme(_det([[1000, 1999], [1000, 1999]]))


def test_best_tin_scheme_walk_is_not_recursive():
    # one level per user: a recursive walk would pass Python's stack limit
    k = 1500
    zero = Fraction(0)
    diag = [Fraction(1 + u % 7) for u in range(k)]
    mat = StrengthMatrix(mode="deterministic", entries=tuple(
        tuple(diag[u] if j == u else zero for j in range(k)) for u in range(k)
    ))
    scheme = best_tin_scheme(mat)
    assert scheme.found
    assert scheme.powers == (0,) * k
    assert scheme.rates == tuple(int(n) for n in diag)
    assert scheme.sum_rate == sum(scheme.rates)


def _assert_scheme_matches_sweep(mat):
    got, want = best_tin_scheme(mat), best_tin_scheme_sweep(mat)
    assert got.found == want.found
    assert got.sum_rate == want.sum_rate
    assert got.rates == want.rates
    assert got.powers == want.powers


@st.composite
def _det_matrices(draw):
    """Any deterministic matrix, K 1..5, entries 0..6: TIN-violating and
    scheme-less ones (found=False) included."""
    k = draw(st.integers(1, 5))
    return _det([[draw(st.integers(0, 6)) for _ in range(k)]
                 for _ in range(k)])


@st.composite
def _tied_matrices(draw, k):
    """Strict-TIN matrices with cross links in {0, 1, 2} and slack 1: many
    backoff cells share the best sum."""
    rows = [[0 if i == j else draw(st.integers(0, 2)) for j in range(k)]
            for i in range(k)]
    for i in range(k):
        incoming = max(rows[i][j] for j in range(k) if j != i)
        outgoing = max(rows[j][i] for j in range(k) if j != i)
        rows[i][i] = incoming + outgoing + 1
    return _det(rows)


_PINNED = dict(derandomize=True, deadline=None, database=None,
               suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=300, **_PINNED)
@given(_det_matrices())
def test_best_tin_scheme_matches_sweep_oracle(mat):
    _assert_scheme_matches_sweep(mat)


@pytest.mark.parametrize("k", range(5, 9))
@settings(max_examples=8, **_PINNED)
@given(data=st.data())
def test_best_tin_scheme_matches_sweep_oracle_on_ties(k, data):
    _assert_scheme_matches_sweep(data.draw(_tied_matrices(k)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_best_tin_scheme_output_is_always_feasible(seed, k):
    rng = random.Random(seed)
    mat = random_det_matrix(rng, k, hi=4)
    scheme = best_tin_scheme(mat)
    if scheme.found:
        assert tin_feasible(mat, scheme.rates, scheme.powers)
        assert sum(scheme.rates) == scheme.sum_rate


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------


def test_separability_example1_certified():
    verdict = separability_verdict(example1())
    assert verdict.certified and bool(verdict)
    assert verdict.total == 18
    assert [leg.status for leg in verdict.legs] == ["invertible"] * 3
    assert verdict.reasons == ()
    assert "GF(2)-invertible" in verdict.justification


def test_separability_example2_not_certified():
    verdict = separability_verdict(example2())
    assert not verdict.certified
    assert [leg.status for leg in verdict.legs] == [
        "invertible", "invertible", "non-invertible",
    ]
    assert any("sub-channel 3" in r for r in verdict.reasons)
    assert verdict.justification == ""
    # the per-channel sums are still exact (TIN holds everywhere)
    assert verdict.sums.label == "exact"


def test_separability_single_channel_is_trivial():
    non_tin = Network(mode="deterministic",
                      matrices=(_det([[1, 5], [5, 1]]),))
    verdict = separability_verdict(non_tin)
    assert verdict.certified
    assert verdict.legs[0].status == "trivial (M=1)"
    # the TIN caveat is still recorded even though M=1 separates trivially
    assert any("not TIN optimal" in r for r in verdict.reasons)
    assert verdict.sums.label != "exact"


def test_separability_gdof_uses_sufficient_conditions():
    verdict = separability_verdict(gap_network(Fraction(1, 10)))
    assert verdict.certified
    assert all(leg.method == "sufficient-condition" for leg in verdict.legs)
    assert verdict.total == 3
    assert "sum-GDoF" in verdict.justification


def test_separability_survives_quantization_of_gap_network():
    qnet = quantize(gap_network(Fraction(1, 10)), 20)
    assert qnet.matrices[1].entries[0] == (10, 5, 4)
    verdict = separability_verdict(qnet)
    assert verdict.certified
    assert all(leg.status == "invertible" for leg in verdict.legs)
    assert verdict.legs[0].method == "exact-gf2"


def test_separability_undetermined_gdof_not_certified():
    sym = StrengthMatrix.from_values("gdof", [[3, 1, 1], [1, 3, 1], [1, 1, 3]])
    net = Network(mode="gdof", matrices=(sym, sym))
    verdict = separability_verdict(net)
    assert not verdict.certified
    assert all(leg.status == "undetermined" for leg in verdict.legs)
    assert any("undetermined" in r for r in verdict.reasons)


@pytest.mark.parametrize("mode, invertibility_reasons", [
    ("deterministic", (
        "no optimal cyclic partition of sub-channel 1 has GF(2)-invertible "
        "participating levels",
        "no optimal cyclic partition of sub-channel 2 has GF(2)-invertible "
        "participating levels",
    )),
    ("gdof", (
        "invertibility of sub-channel 1 is undetermined (no sufficient "
        "condition applies)",
        "invertibility of sub-channel 2 is undetermined (no sufficient "
        "condition applies)",
    )),
])
def test_separability_reasons_exact(mode, invertibility_reasons):
    # TIN reasons come first, then one invertibility reason per failing leg
    net = Network(mode=mode, matrices=(
        StrengthMatrix.from_values(mode, [[1, 2, 2], [2, 1, 2], [2, 2, 1]]),
        StrengthMatrix.from_values(mode, [[3, 1, 1], [1, 3, 1], [1, 1, 3]]),
    ))
    verdict = separability_verdict(net)
    assert verdict.reasons == (
        ("sub-channel 1 is not TIN optimal",) + invertibility_reasons)
    assert verdict.certified is False
    assert verdict.justification == ""
