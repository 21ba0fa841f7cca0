"""The bundled networks: builders, their JSON round trip, and their stated
properties."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from tinopt.fixtures import (
    acyclic4,
    builtin_networks,
    caution_lp,
    cyclic_dominant4,
    example1,
    example2,
    gap_network,
    gap_point,
)
from tinopt.model import InputError, check_tin, network_to_dict, parse_network
from tinopt.optimize import nonnegativity_redundancy_check, solve_cycle_lp
from tinopt.report import dumps_canonical


@pytest.mark.parametrize("name", list(builtin_networks()))
def test_builder_json_round_trips(name):
    builder = builtin_networks()[name]
    text = dumps_canonical(network_to_dict(builder()))
    assert parse_network(json.loads(text)) == builder()
    assert dumps_canonical(json.loads(text)) == text


def test_example_fixtures_share_their_first_two_subchannels():
    a, b = example1(), example2()
    assert a.matrices[:2] == b.matrices[:2]
    assert a.matrices[2] != b.matrices[2]
    for mat in a.matrices + b.matrices:
        assert check_tin(mat).satisfied


def test_gap_network_parameter_validation():
    gap_network(Fraction(1, 8))
    gap_network("1/5")
    for bad in (0, Fraction(1, 4), Fraction(-1, 10), 1, "abc", True, float("nan")):
        with pytest.raises(InputError):
            gap_network(bad)
    # eps is read by as_rational, a float through its decimal form
    assert gap_network(0.1) == gap_network()
    assert gap_network(0.1).matrices[1].entry(1, 3) == Fraction(2, 5)


def test_gap_network_structure():
    eps = Fraction(1, 10)
    net = gap_network(eps)
    assert net.mode == "gdof" and net.users == 3 and net.subchannels == 2
    weak = Fraction(1, 2) - eps
    assert net.matrices[1].entry(1, 3) == weak
    assert net.matrices[0].entry(1, 3) == 0
    for mat in net.matrices:
        assert check_tin(mat).satisfied
    assert gap_point() == (2, Fraction(1, 2), Fraction(1, 2))


def test_default_gap_epsilon_matches_bundled_fixture():
    assert gap_network() == gap_network("1/10")


def test_caution_lp_shape_and_optima():
    mat = caution_lp()
    assert mat.mode == "gdof" and mat.users == 3
    assert not check_tin(mat).satisfied
    bounded, free = solve_cycle_lp(mat), solve_cycle_lp(mat, nonneg=False)
    assert (bounded.value, bounded.point) == (20, (0, 10, 10))
    assert (free.value, free.point) == (25, (-5, 15, 15))
    assert not nonnegativity_redundancy_check(mat)


def test_four_user_fixtures_are_tin_optimal():
    for net in (acyclic4(), cyclic_dominant4()):
        assert net.users == 4 and net.subchannels == 1
        assert check_tin(net.matrices[0]).satisfied
