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
                     submatrix, tin_by_triples)
from tinopt import cli, model
from tinopt.cycles import (CyclicPartition, cycle_count, enumerate_cycles,
                           enumerate_partitions, partition_count)
from tinopt.detmodel import tin_feasible
from tinopt.fixtures import gap_network
from tinopt.model import (
    MAX_RATIONAL_DIGITS,
    MODES,
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
from tinopt.region import combined_sum_bounds, region_contains, separate_tin_decomposable

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


_ONE = StrengthMatrix.from_values("deterministic", [[1]])


@pytest.mark.parametrize("call", [
    pytest.param(as_rational, id="as_rational"),
    pytest.param(lambda bad: region_contains([], [bad]), id="region-point"),
    pytest.param(lambda bad: separate_tin_decomposable(gap_network("1/10"), [bad, 1, 1]),
                 id="decompose-point"),
    pytest.param(lambda bad: tin_feasible(_ONE, [bad], [0]), id="tin-rates"),
    pytest.param(lambda bad: tin_feasible(_ONE, [1], [bad]), id="tin-powers"),
])
@pytest.mark.parametrize("bad", [True, float("nan"), object()],
                         ids=["bool", "nan", "object"])
def test_rational_messages_name_no_strength(call, bad):
    # as_rational reads points, rates and backoffs (and LP coefficients, see
    # test_lp_build_validation) as well as channel strengths, so its
    # messages speak of rationals only
    with pytest.raises(InputError, match="rational") as exc:
        call(bad)
    assert "strength" not in str(exc.value)


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
    pytest.param("gdof", ((F(1), None), (F(0), F(1))), [[1, None], [0, 1]],
                 r"must be ints or Fractions, got NoneType \(receiver 1, transmitter 2\)"
                 "|cannot interpret None", id="non-fraction"),
    pytest.param("gdof", ((F(1), F(0)), (F(-1, 2), F(1))), None,
                 r"nonnegative, got -1/2 \(receiver 2, transmitter 1\)",
                 id="negative"),
    pytest.param("gdof", ((F(-10 ** 5000),),), None,
                 r"nonnegative, got a rational of over 1000 digits", id="huge-negative"),
    pytest.param("gdof", ((F(1), F(1, 10 ** 1000)), (F(0), F(1))),
                 [[1, "1/%d" % 10 ** 1000], [0, 1]],
                 r"limited to 1000 digits", id="oversized-entry"),
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
    lambda: CyclicPartition((HUGE, HUGE)),
    lambda: CyclicPartition((-HUGE,)),
    lambda: CyclicPartition((HUGE,)),
    lambda: CyclicPartition(((HUGE,), (HUGE,))),
    lambda: CyclicPartition((HUGE, 1)),
    lambda: StrengthMatrix.from_values("gdof", [[1]]).entry(HUGE, 1),
    lambda: LinearProgram.build([1], [([1], HUGE, 1)]),
    lambda: combined_sum_bounds(gap_network("1/10")).bound((HUGE,)),
    lambda: enumerate_cycles(-HUGE),
    lambda: cycle_count(-HUGE),
    lambda: partition_count(-HUGE),
    lambda: enumerate_cycles(True),
    lambda: enumerate_partitions(2.0),
    lambda: cycle_count("3"),
    lambda: partition_count(None),
    lambda: parse_network({"mode": "gdof", "users": HUGE, "subchannels": 1,
                           "matrices": [[[1]]]}),
    lambda: parse_network({"mode": "gdof", "users": 1, "subchannels": HUGE,
                           "matrices": [[[1]]]}),
], ids=["cycle-repeat", "cycle-negative", "partition-cover", "partition-disjoint",
        "from-permutation", "entry", "lp-relation", "combined-bound",
        "enumerate-negative", "cycle-count-negative", "partition-count-negative",
        "enumerate-bool", "enumerate-float", "cycle-count-str", "partition-count-none",
        "document-users", "document-subchannels"])
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
    # the subset restriction behind oracles.subset_bounds
    mat = StrengthMatrix.from_values(
        "gdof", [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    )
    sub = submatrix(mat, [3, 1])
    assert sub.users == 2 and sub.mode == "gdof"
    assert sub.desired(1) == 1 and sub.desired(2) == 9
    assert sub.entry(1, 2) == 3 and sub.entry(2, 1) == 7


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
# the stored form: one reader of raw values, ints until a Fraction is asked for
# ---------------------------------------------------------------------------

_LIMIT = 10 ** MAX_RATIONAL_DIGITS


def _outcome(read, value):
    """("ok", Fraction) or ("error", message) of one reading of ``value``."""
    try:
        got = read(value)
    except InputError as exc:
        return "error", str(exc)
    return "ok", Fraction(*got) if isinstance(got, tuple) else got


def _through_fraction(value):
    # the general path alone: every value goes through Fraction(), then the
    # digit limits of as_rational's contract
    frac = model._read_fraction(value)
    if abs(frac.numerator) >= _LIMIT or frac.denominator >= _LIMIT:
        raise model._too_large(value)
    return frac


def _check_reader(value):
    want = _outcome(_through_fraction, value)
    assert _outcome(model._read_pair, value) == want
    assert _outcome(as_rational, value) == want
    if want[0] == "ok":
        num, den = model._read_pair(value)
        assert type(num) is int and type(den) is int
        assert den > 0 and math.gcd(num, den) == 1


_EDGE_VALUES = [
    _LIMIT - 1, _LIMIT, -(_LIMIT - 1), -_LIMIT, _LIMIT + 1, -_LIMIT - 1,
    str(_LIMIT - 1), str(_LIMIT), "1/%d" % (_LIMIT - 1), "1/%d" % _LIMIT,
    "%d/%d" % (_LIMIT, 10), "0" * 2000 + "7", "1" * (2 * MAX_RATIONAL_DIGITS + 65),
    "07/2", "0/5", "-0", "1_000", "٣/2", "٣", "²", " 5/2 ", "+3", "3/0", "0/0",
    "1e-3", "1/", "/2", "", "1/2/3", "4/6", 0.75, 5e-324, True, None, Fraction(6, 4), 0,
]


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=range(len(_EDGE_VALUES)))
def test_reader_matches_as_rational_on_edge_values(value):
    _check_reader(value)


_RAW_VALUES = st.one_of(
    st.integers(),
    st.integers(_LIMIT - 3, _LIMIT + 3).flatmap(lambda v: st.sampled_from([v, -v, str(v)])),
    st.from_regex(r"\A[0-9]{1,25}(/[0-9]{1,25})?\Z"),
    st.text(alphabet="0123456789/ _+-.eE٣", max_size=12),
    st.fractions(),
    st.floats(),
    st.booleans(),
    st.none(),
)


@given(_RAW_VALUES)
def test_reader_matches_as_rational(value):
    _check_reader(value)


@given(st.integers(1, 4), st.data())
def test_fraction_int_and_string_matrices_are_one_value(k, data):
    mode = data.draw(st.sampled_from(MODES))
    dens = st.just(1) if mode == "deterministic" else st.integers(1, 12)
    vals = [Fraction(data.draw(st.integers(0, 40)), data.draw(dens)) for _ in range(k * k)]
    rows = [vals[j * k:(j + 1) * k] for j in range(k)]
    built = [
        StrengthMatrix(mode=mode, entries=rows),
        StrengthMatrix(mode, [[v.numerator if v.denominator == 1 else v for v in row]
                              for row in rows]),
        StrengthMatrix.from_values(mode, [[str(v) for v in row] for row in rows]),
        parse_network({"mode": mode, "users": k, "subchannels": 1,
                       "matrices": [[rational_str(v) for v in vals]]}).matrices[0],
    ]
    want = tuple(map(tuple, rows))
    for mat in built:
        assert mat == built[0] and hash(mat) == hash(built[0])
        assert mat.scaled == built[0].scaled and mat.entries == want
        assert all(type(v) is Fraction for row in mat.entries for v in row)
        assert eval(repr(mat), {"StrengthMatrix": StrengthMatrix, "Fraction": Fraction}) == mat


_HOT_DOCS = {
    # gdof: ints and "p/q" strings, and a sub-channel that breaks TIN
    "gdof": {"mode": "gdof", "users": 3, "subchannels": 2, "matrices": [
        [[3, "1/2", 1], [0, 3, "5/2"], [1, 0, "7/2"]],
        [[30, 25, 25], [25, 30, 15], [25, 15, 30]]]},
    "deterministic": {"mode": "deterministic", "users": 3, "subchannels": 2, "matrices": [
        [[4, 1, 1], [0, 4, 2], [1, 1, 4]], [[1, 2, 2], [2, 1, 2], [2, 2, 1]]]},
}


def test_loading_builds_no_fraction(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(model, "Fraction", Counted)
    for doc in _HOT_DOCS.values():
        parse_network(doc)
    assert made == []
    parse_network(dict(_HOT_DOCS["gdof"], matrices=[[["0.5"]]] * 2, users=1))
    assert made                             # the count is live: "0.5" needs one


@pytest.mark.parametrize("command, mode", [
    (["sum"], "gdof"), (["sum"], "deterministic"),
    (["decompose", "--point", "1,1,1"], "gdof"), (["separability"], "deterministic"),
])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_hot_paths_never_build_the_entries_view(monkeypatch, tmp_path, capsys,
                                                command, mode, json_flag):
    built = []
    view = StrengthMatrix.__dict__["entries"].func

    def spied(self):
        built.append(self)
        return view(self)

    monkeypatch.setattr(StrengthMatrix, "entries", property(spied))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_HOT_DOCS[mode]))
    assert cli.main(command[:1] + [str(path)] + command[1:] + json_flag) in (0, 1)
    assert capsys.readouterr().err == ""
    assert built == []
    assert load_network(path).matrices[0].entries and built   # the spy is live


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
    assert net.matrices[1] == a
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
    assert Network(mode="gdof", matrices=(a, a)).matrices[1] is a
    with pytest.raises(InputError, match="common denominator") as exc:
        Network(mode="gdof", matrices=(a, b))
    assert len(str(exc.value)) < 200


def test_matrix_gate_rejects_an_oversized_common_denominator():
    # each entry is under MAX_RATIONAL_DIGITS, their common denominator
    # (about 2,000 digits) is not: the matrix gate refuses it on every
    # construction path, so no route ever reads such a matrix
    big = 10 ** 999
    entries = ((Fraction(3), Fraction(1, big + 1)), (Fraction(1, big + 2), Fraction(3)))
    raw = [[str(v) for v in row] for row in entries]
    doc = {"mode": "gdof", "users": 2, "subchannels": 1, "matrices": [raw]}
    for build in (lambda: StrengthMatrix(mode="gdof", entries=entries),
                  lambda: StrengthMatrix.from_values("gdof", raw),
                  lambda: parse_network(doc)):
        with pytest.raises(InputError, match="common denominator") as exc:
            build()
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
    with pytest.raises(InputError, match="gdof-mode networks"):
        quantize(Network(mode="deterministic", matrices=(quantize(mat, 4),)), 4)
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


# each bad document and the start of the message of the one check that rejects it
BAD_DOCUMENTS = {
    lambda d: d.pop("mode"): "network document missing keys: mode$",
    lambda d: d.pop("matrices"): "network document missing keys: matrices$",
    lambda d: d.update(mode="fuzzy"): "mode must be one of",
    lambda d: d.update(users=0): "users must be a positive integer, got 0$",
    lambda d: d.update(users=True): "users must be a positive integer, got True$",
    lambda d: d.update(subchannels=2): "expected 2 matrices, got 1$",
    lambda d: d.update(matrices="nope"): "matrices must be a list$",
    lambda d: d.update(users=3): "sub-channel 1 matrix is 2x2 but users=3$",
    # the document check, before the matrix count or Network could object
    lambda d: d.update(subchannels=0): r"subchannels must be a positive integer \(M >= 1 "
                                       r"required\), got 0$",
    lambda d: d.update(subchannels=True): "subchannels must be a positive integer",
}


@pytest.mark.parametrize("mutate", BAD_DOCUMENTS)
def test_parse_network_rejects_bad_documents(mutate):
    doc = _doc()
    mutate(doc)
    with pytest.raises(InputError, match="^" + BAD_DOCUMENTS[mutate]):
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
