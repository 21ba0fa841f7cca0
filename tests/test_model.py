"""Unit tests for the data model: coercion, matrices, TIN, quantize, JSON."""

from __future__ import annotations

import json
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (random_det_matrix, random_gdof_matrix, random_strict_tin_matrix,
                     tin_by_triples)
from tinopt.cycles import Cycle, CyclicPartition, enumerate_cycles
from tinopt.fixtures import gap_network
from tinopt.model import (
    MAX_RATIONAL_DIGITS,
    ClampWarning,
    GuardError,
    InputError,
    Network,
    StrengthMatrix,
    TinViolation,
    as_rational,
    check_tin,
    load_network,
    network_to_dict,
    parse_network,
    quantize,
    rational_str,
    save_network,
)
from tinopt.optimize import LinearProgram
from tinopt.region import combined_sum_bounds

# ---------------------------------------------------------------------------
# rational coercion
# ---------------------------------------------------------------------------


def test_as_rational_accepts_common_forms():
    assert as_rational(3) == 3
    assert as_rational("3") == 3
    assert as_rational(" 5/2 ") == Fraction(5, 2)
    assert as_rational("0.75") == Fraction(3, 4)
    assert as_rational(Fraction(7, 3)) == Fraction(7, 3)


def test_as_rational_reads_floats_as_decimal_literals():
    # 0.1 is not representable in binary; the decimal string must win
    assert as_rational(0.1) == Fraction(1, 10)
    assert as_rational(2.5) == Fraction(5, 2)


@pytest.mark.parametrize("bad", [True, False, float("inf"), float("nan"),
                                 "3/0", "zebra", None, [1]])
def test_as_rational_rejects_garbage(bad):
    with pytest.raises(InputError):
        as_rational(bad)


def test_as_rational_size_limit_is_exact():
    limit = MAX_RATIONAL_DIGITS
    assert as_rational("1e%d" % (limit - 1)) == 10 ** (limit - 1)
    assert as_rational(Fraction(1, 10 ** (limit - 1))).denominator == 10 ** (limit - 1)
    assert as_rational(5e-324) == Fraction("5e-324")   # every finite float fits
    for big in ("1e%d" % limit, "1e-%d" % limit, 10 ** limit,
                Fraction(1, 10 ** limit)):
        with pytest.raises(InputError, match="too large"):
            as_rational(big)


def test_rational_str_is_int_or_fraction_string():
    assert rational_str(Fraction(4)) == 4
    assert rational_str(Fraction(5, 2)) == "5/2"
    assert isinstance(rational_str(Fraction(4)), int)


# ---------------------------------------------------------------------------
# StrengthMatrix construction
# ---------------------------------------------------------------------------


def test_from_values_flat_and_nested_agree():
    flat = StrengthMatrix.from_values("gdof", [1, 2, 3, 4])
    nested = StrengthMatrix.from_values("gdof", [[1, 2], [3, 4]])
    assert flat == nested
    assert flat.users == 2
    assert flat.entry(1, 2) == 2 and flat.entry(2, 1) == 3
    # built from lists, the matrix still stores tuples: equal and hashable
    listed = StrengthMatrix(mode="gdof", entries=[[Fraction(v) for v in row]
                                                  for row in ([1, 2], [3, 4])])
    assert listed == flat and hash(listed) == hash(flat)
    assert listed.entries == ((1, 2), (3, 4))


def test_from_values_rejects_non_square():
    with pytest.raises(InputError):
        StrengthMatrix.from_values("gdof", [1, 2, 3])
    with pytest.raises(InputError):
        StrengthMatrix.from_values("gdof", [[1, 2], [3]])


def test_negative_entries_clamp_with_warning():
    with pytest.warns(ClampWarning):
        mat = StrengthMatrix.from_values("gdof", [[1, -2], [0, 1]])
    assert mat.entry(1, 2) == 0


def test_clamp_happens_before_integrality_check():
    # -3.5 is not an integer, but it clamps to 0 before the check runs
    with pytest.warns(ClampWarning):
        mat = StrengthMatrix.from_values("deterministic", [[1, -3.5], [0, 1]])
    assert mat.entry(1, 2) == 0


def test_deterministic_mode_requires_integers():
    with pytest.raises(InputError):
        StrengthMatrix.from_values("deterministic", [[1, "1/2"], [0, 1]])
    StrengthMatrix.from_values("gdof", [[1, "1/2"], [0, 1]])  # fine here


def test_bad_mode_rejected():
    with pytest.raises(InputError):
        StrengthMatrix.from_values("analog", [[1]])


F = Fraction

# (mode, entries for the constructor, the same as raw values, message): one
# gate checks each property.  Raw values are None where none reaches the gate
# with the fault: reading clamps negatives and rejects oversized rationals.
_BAD_MATRICES = [
    pytest.param("analog", ((F(1),),), [[1]], "mode must be one of", id="mode"),
    pytest.param("gdof", (), [], "at least one user", id="no-rows"),
    pytest.param("gdof", 5, 5, "at least one user|must be a list",
                 id="not-a-sequence"),
    pytest.param("gdof", ((F(1), F(0)), (F(0),)), [[1, 0], [0]],
                 r"square \(K=2 but row 2 has 1 entries\)", id="ragged-row"),
    pytest.param("gdof", ((F(1), F(0)), 5), [[1, 0], 5], "rows must be lists",
                 id="non-sequence-row"),
    pytest.param("gdof", ((F(1), 0), (F(0), F(1))), [[1, None], [0, 1]],
                 r"must be Fractions, got int \(receiver 1, transmitter 2\)"
                 "|cannot interpret None", id="non-fraction"),
    pytest.param("gdof", ((F(1), F(0)), (F(-1, 2), F(1))), None,
                 r"nonnegative, got -1/2 \(receiver 2, transmitter 1\)",
                 id="negative"),
    pytest.param("gdof", ((F(-10 ** 5000),),), None,
                 r"nonnegative, got a rational of over 1000 digits", id="huge-negative"),
    pytest.param("deterministic", ((F(1), F(1, 2)), (F(0), F(1))),
                 [[1, "1/2"], [0, 1]],
                 r"integers, got 1/2 \(receiver 1, transmitter 2\)",
                 id="non-integral"),
    pytest.param("deterministic", ((F(1, 10 ** 5000 + 1),),), None,
                 r"integers, got a rational of over 1000 digits "
                 r"\(receiver 1, transmitter 1\)", id="huge-non-integral"),
]


@pytest.mark.parametrize("mode, entries, raw, match", _BAD_MATRICES)
def test_every_construction_path_rejects_bad_matrices(mode, entries, raw, match):
    builds = [lambda: StrengthMatrix(mode=mode, entries=entries)]
    if raw is not None:
        users = len(raw) if isinstance(raw, list) and raw else 1
        doc = {"mode": mode, "users": users, "subchannels": 1, "matrices": [raw]}
        builds += [lambda: StrengthMatrix.from_values(mode, raw),
                   lambda: parse_network(doc)]
    for build in builds:
        with pytest.raises(InputError, match=match) as exc:
            build()
        assert "\n" not in str(exc.value)


# str() and repr() of an int past Python's 4300-digit limit raise ValueError;
# a message must describe such a value instead of echoing it


def test_oversized_mode_raises_input_error():
    with pytest.raises(InputError, match="mode must be one of") as exc:
        StrengthMatrix(mode=10 ** 5000, entries=((Fraction(1),),))
    assert "\n" not in str(exc.value)


def test_oversized_users_raises_input_error():
    doc = {"mode": "gdof", "users": -10 ** 5000, "subchannels": 1,
           "matrices": [[1]]}
    with pytest.raises(InputError, match="users must be") as exc:
        parse_network(doc)
    assert "\n" not in str(exc.value)


HUGE = 10 ** 5000


@pytest.mark.parametrize("call", [
    lambda: Cycle((HUGE, HUGE)),
    lambda: Cycle((-HUGE,)),
    lambda: Cycle((1, 2)).predecessor(HUGE),
    lambda: CyclicPartition(((1, 2),)).predecessor(HUGE),
    lambda: CyclicPartition(((HUGE,),)),
    lambda: CyclicPartition(((HUGE,), (HUGE,))),
    lambda: CyclicPartition.from_permutation((HUGE, 1)),
    lambda: StrengthMatrix.from_values("gdof", [[1]]).entry(HUGE, 1),
    lambda: StrengthMatrix.from_values("gdof", [[1]]).submatrix([1, HUGE]),
    lambda: Network(mode="gdof", matrices=(StrengthMatrix.from_values("gdof", [[1]]),)
                    ).matrix(HUGE),
    lambda: LinearProgram.build([1], [([1], HUGE, 1)]),
    lambda: Cycle((HUGE,)).predecessor(1),
    lambda: combined_sum_bounds(gap_network("1/10")).bound((HUGE,)),
    lambda: enumerate_cycles(-HUGE),
    lambda: parse_network({"mode": "gdof", "users": HUGE, "subchannels": 1,
                           "matrices": [[[1]]]}),
    lambda: parse_network({"mode": "gdof", "users": 1, "subchannels": HUGE,
                           "matrices": [[[1]]]}),
], ids=["cycle-repeat", "cycle-negative", "cycle-predecessor",
        "partition-predecessor", "partition-cover", "partition-disjoint",
        "from-permutation", "entry",
        "submatrix", "network-matrix", "lp-relation", "cycle-str", "combined-bound",
        "enumerate-negative", "document-users", "document-subchannels"])
def test_oversized_int_arguments_raise_input_error(call):
    with pytest.raises(InputError) as exc:
        call()
    assert len(str(exc.value)) < 200


def test_oversized_user_count_raises_guard_error():
    with pytest.raises(GuardError) as exc:
        enumerate_cycles(HUGE)
    assert len(str(exc.value)) < 200


def test_entry_desired_edge_weight():
    mat = StrengthMatrix.from_values("gdof", [[5, 2], [3, 7]])
    assert mat.desired(1) == 5 and mat.desired(2) == 7
    assert mat.entry(1, 2) == 2          # tx 2 heard at rx 1
    assert mat.edge_weight(1, 2) == 2    # edge from user 2 to user 1
    assert mat.edge_weight(1, 1) == 0    # self edges weigh nothing
    with pytest.raises(InputError):
        mat.entry(0, 1)
    with pytest.raises(InputError):
        mat.entry(1, 3)


def test_submatrix_reindexes_but_keeps_entries():
    mat = StrengthMatrix.from_values(
        "gdof", [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    )
    sub = mat.submatrix([1, 3])
    assert sub.users == 2
    assert sub.desired(1) == 1 and sub.desired(2) == 9
    assert sub.entry(1, 2) == 3 and sub.entry(2, 1) == 7
    with pytest.raises(InputError):
        mat.submatrix([])
    with pytest.raises(InputError):
        mat.submatrix([0, 1])


@pytest.mark.parametrize("seed", range(6))
def test_scaled_view_is_the_common_denominator_times_each_entry(seed):
    rng = random.Random("scaled/%d" % seed)
    k = rng.randint(1, 6)
    for mat in (random_gdof_matrix(rng, k), random_det_matrix(rng, k)):
        vals = [val for row in mat.entries for val in row]
        scale = math.lcm(*(val.denominator for val in vals))
        assert mat.scaled == (scale, tuple(val.numerator * scale // val.denominator
                                           for val in vals))
        assert all(type(v) is int for v in mat.scaled[1])
        if mat.mode == "deterministic":
            assert mat.scaled[0] == 1


def test_reading_the_scaled_view_changes_no_field():
    mat = random_gdof_matrix(random.Random("scaled/fields"), 4)
    twin = StrengthMatrix(mode=mat.mode, entries=mat.entries)
    before = (repr(mat), hash(mat))
    view = mat.scaled
    assert mat.scaled is view                   # built once
    assert (repr(mat), hash(mat)) == before == (repr(twin), hash(twin))
    assert mat == twin and "scaled" not in repr(mat)


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------


def _gmat(rows):
    return StrengthMatrix.from_values("gdof", rows)


def test_network_validation():
    a = _gmat([[1, 0], [0, 1]])
    b = _gmat([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
    net = Network(mode="gdof", matrices=(a, a))
    assert net.users == 2 and net.subchannels == 2
    assert net.matrix(2) == a
    with pytest.raises(InputError):
        net.matrix(3)
    with pytest.raises(InputError):
        Network(mode="gdof", matrices=())
    with pytest.raises(InputError):
        Network(mode="gdof", matrices=(a, b))  # user count mismatch
    with pytest.raises(InputError):
        Network(mode="deterministic", matrices=(a,))  # mode mismatch
    with pytest.raises(InputError, match="network is 'analog'"):
        Network(mode="analog", matrices=(a,))
    with pytest.raises(InputError, match="sub-channel 1 is not a StrengthMatrix"):
        Network(mode="gdof", matrices=([[Fraction(1)]],))
    with pytest.raises(InputError, match="sub-channel 2 is not a StrengthMatrix"):
        Network(mode="gdof", matrices=(a, None))
    with pytest.raises(InputError):
        Network(mode="gdof", matrices=a)  # a matrix, not a sequence of them
    # built from a list, the network still stores a tuple: equal and hashable
    listed = Network(mode="gdof", matrices=[a, a])
    assert listed == net and hash(listed) == hash(net)


def test_network_rejects_an_oversized_common_denominator():
    # each matrix's own denominator has 601 digits, their common one 1,201:
    # the constructor refuses it, as load_network does
    a = StrengthMatrix(mode="gdof", entries=((Fraction(1, 10 ** 600 + 1),),))
    b = StrengthMatrix(mode="gdof", entries=((Fraction(1, 10 ** 600 + 3),),))
    assert Network(mode="gdof", matrices=(a, a)).matrix(2) is a
    with pytest.raises(InputError, match="common denominator") as exc:
        Network(mode="gdof", matrices=(a, b))
    assert len(str(exc.value)) < 200


# ---------------------------------------------------------------------------
# TIN condition
# ---------------------------------------------------------------------------


def test_check_tin_hand_instances():
    ok = _gmat([[3, 1, 0], [0, 3, 1], [1, 0, 3]])
    verdict = check_tin(ok)
    assert verdict.satisfied and bool(verdict)
    assert verdict.strict  # 3 > 1 + 1 for every user

    tight = _gmat([[2, 1, 0], [0, 3, 1], [1, 0, 3]])
    verdict = check_tin(tight)
    assert verdict.satisfied and not verdict.strict  # user 1: 2 == 1 + 1

    bad = _gmat([[1, 1, 0], [0, 3, 1], [1, 0, 3]])
    verdict = check_tin(bad)
    assert not verdict.satisfied and not bool(verdict)
    users = [v.user for v in verdict.violations]
    assert users == [1]
    v = verdict.violations[0]
    assert (v.desired, v.max_incoming, v.max_outgoing) == (1, 1, 1)


def test_check_tin_witnesses_hold_the_entries():
    # the test runs on integer-scaled entries (common denominator 60 here);
    # a witness reports the entries themselves
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    mat = StrengthMatrix(mode="gdof", entries=(
        (Fraction(1, 2), third, Fraction(0)),
        (Fraction(0), Fraction(3), Fraction(1, 4)),
        (fifth, Fraction(0), Fraction(3)),
    ))
    verdict = check_tin(mat)
    assert not verdict.satisfied and not verdict.strict
    assert verdict.violations == (TinViolation(1, third, fifth, Fraction(1, 2)),)
    v = verdict.violations[0]
    assert all(type(x) is Fraction for x in (v.max_incoming, v.max_outgoing, v.desired))
    for seed in range(40):
        mat = random_gdof_matrix(random.Random("tin/%d" % seed), 1 + seed % 5)
        k, rows = mat.users, mat.entries
        want = []
        for i in range(k):
            incoming = max((rows[i][t] for t in range(k) if t != i), default=0)
            outgoing = max((rows[t][i] for t in range(k) if t != i), default=0)
            if rows[i][i] < incoming + outgoing:
                want.append(TinViolation(i + 1, incoming, outgoing, rows[i][i]))
        assert check_tin(mat).violations == tuple(want)


def test_check_tin_single_user():
    assert check_tin(_gmat([[5]])).strict
    zero = check_tin(_gmat([[0]]))
    assert zero.satisfied and not zero.strict  # 0 == 0 + 0


@given(st.integers(0, 10**9), st.integers(1, 5))
def test_check_tin_matches_triple_scan(seed, k):
    rng = random.Random(seed)
    mat = random_det_matrix(rng, k, hi=4)
    assert check_tin(mat).satisfied == tin_by_triples(mat)


@given(st.integers(0, 10**9), st.integers(1, 5))
def test_strict_generator_really_is_strict(seed, k):
    rng = random.Random(seed)
    mat = random_strict_tin_matrix(rng, k, mode="gdof")
    verdict = check_tin(mat)
    assert verdict.satisfied and verdict.strict


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_quantize_floors_half_log2p():
    mat = _gmat([[1, "1/2"], [0, 1]])
    q = quantize(mat, 20)
    assert q.mode == "deterministic"
    assert q.entries == ((Fraction(10), Fraction(5)), (Fraction(0), Fraction(10)))
    # floor really floors: 0.3 * 21 / 2 = 3.15 -> 3
    q2 = quantize(_gmat([["3/10"]]), 21)
    assert q2.desired(1) == 3


def test_quantize_validates_inputs():
    mat = _gmat([[1]])
    with pytest.raises(InputError):
        quantize(mat, 0)
    with pytest.raises(InputError):
        quantize(mat, "-3")
    with pytest.raises(InputError):
        quantize(quantize(mat, 4), 4)  # already deterministic
    with pytest.raises(InputError):
        quantize("nope", 4)


def test_quantize_network_flips_mode():
    net = Network(mode="gdof", matrices=(_gmat([[1, 0], [0, 1]]),))
    q = quantize(net, 10)
    assert q.mode == "deterministic"
    assert q.matrices[0].desired(1) == 5


def test_quantize_preserves_tin_on_strict_instances():
    rng = random.Random(414243)
    for _ in range(50):
        mat = random_strict_tin_matrix(rng, rng.randint(2, 4), mode="gdof")
        # the strict slack is at least 1/2, so any log2P >= 8 keeps the
        # floored levels on the right side of the inequality
        q = quantize(mat, rng.randint(8, 40))
        assert check_tin(q).satisfied


# ---------------------------------------------------------------------------
# JSON parse / serialize
# ---------------------------------------------------------------------------


def _doc():
    return {
        "mode": "gdof",
        "users": 2,
        "subchannels": 1,
        "matrices": [[[1, "1/2"], [0, 1]]],
    }


def test_parse_network_roundtrip(tmp_path):
    net = parse_network(_doc())
    assert net.users == 2 and net.matrices[0].entry(1, 2) == Fraction(1, 2)
    path = tmp_path / "net.json"
    save_network(net, path)
    again = load_network(path)
    assert again == net
    # the serialized form uses exact rational strings, never floats
    text = path.read_text()
    assert '"1/2"' in text and "0.5" not in text


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("mode"),
    lambda d: d.pop("matrices"),
    lambda d: d.update(mode="fuzzy"),
    lambda d: d.update(users=0),
    lambda d: d.update(users=True),
    lambda d: d.update(subchannels=2),          # count mismatch
    lambda d: d.update(matrices="nope"),
    lambda d: d.update(users=3),                # matrix is 2x2
])
def test_parse_network_rejects_bad_documents(mutate):
    doc = _doc()
    mutate(doc)
    with pytest.raises(InputError):
        parse_network(doc)


def test_parse_network_rejects_non_object():
    with pytest.raises(InputError):
        parse_network([1, 2, 3])


def test_load_network_error_paths(tmp_path):
    with pytest.raises(InputError):
        load_network(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_network(bad)


def test_network_to_dict_is_json_safe():
    net = parse_network(_doc())
    doc = network_to_dict(net)
    dumped = json.dumps(doc)
    assert json.loads(dumped) == doc
    assert doc["matrices"][0][0] == [1, "1/2"]


def test_parse_clamps_negatives_like_from_values():
    doc = _doc()
    doc["matrices"] = [[[1, -1], [0, 1]]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ClampWarning):
            parse_network(doc)
    with pytest.warns(ClampWarning):
        net = parse_network(doc)
    assert net.matrices[0].entry(1, 2) == 0
