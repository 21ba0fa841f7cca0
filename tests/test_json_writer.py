"""The one JSON writer, ``dumps_canonical``, against ``json.dumps``: equal
output on every tree of the types it takes, TypeError on any other value or
key.  Derandomized like ``test_cli_fuzz.py``, so the drawn trees are fixed
by the pinned hypothesis version.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinopt.model import _FLUSH, dumps_canonical

PINNED = settings(max_examples=150, derandomize=True, deadline=None,
                  database=None)

# quotes, backslashes, control characters, DEL, non-ASCII and beyond the BMP
ODD = '"\\/\x00\x01\x1f\x7f\n\t\r\b\x0c é €\U0001f600ab'
TEXT = st.text() | st.text(alphabet=ODD)
INTS = (st.integers() | st.integers(2 ** 64, 2 ** 200)
        | st.integers(-2 ** 200, -2 ** 64))
SCALARS = st.none() | st.booleans() | INTS | TEXT


def trees(max_leaves):
    return st.recursive(
        SCALARS,
        lambda inner: (st.lists(inner, max_size=5)
                       | st.lists(inner, max_size=5).map(tuple)
                       | st.dictionaries(TEXT, inner, max_size=5)),
        max_leaves=max_leaves,
    )


TREES, SIBLINGS = trees(40), trees(6)
BAD_VALUES = (1.5, 0.0, -0.0, float("inf"), float("nan"), Fraction(1, 2),
              Fraction(3), b"x", {1}, object())
BAD_KEYS = (1, 0, True, None, 1.5, Fraction(1, 2), (1,))


@PINNED
@given(obj=TREES)
def test_writer_equals_json_dumps(obj):
    assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n"


@st.composite
def poisoned(draw):
    """A tree holding exactly one value or dict key the writer refuses,
    between drawn siblings, up to four containers deep."""
    if draw(st.booleans()):
        node = draw(st.sampled_from(BAD_VALUES))
    else:
        node = {draw(st.sampled_from(BAD_KEYS)): draw(SIBLINGS)}
    for _ in range(draw(st.integers(0, 4))):
        items = draw(st.lists(SIBLINGS, max_size=3))
        items.insert(draw(st.integers(0, len(items))), node)
        kind = draw(st.sampled_from((list, tuple, dict)))
        if kind is dict:
            keys = draw(st.lists(TEXT, min_size=len(items), max_size=len(items),
                                 unique=True))
            node = dict(zip(keys, items))
        else:
            node = kind(items)
    return node


@PINNED
@given(obj=poisoned())
def test_writer_refuses_other_values_and_keys(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)


# trees large enough that the writer joins its buffer at least once; the
# hypothesis trees above hold at most 40 leaves and never reach a flush
FLUSH_SHAPES = {
    "dicts": [{"a": i, "b": [i, -i], "c": "x%d" % i} for i in range(3000)],
    "int-lists": {"k%d" % i: list(range(i % 7)) for i in range(1500)},
    "mixed-lists": [[i, None, True, "s", [], {}, (), -i] for i in range(600)],
    # shaped like a region report's rows, which hold the constraints' tuples
    "int-tuple-dicts": [{"users": tuple(range(1, i % 8 + 2)), "cycle": (i % 8 + 1, 1)}
                        for i in range(1200)],
    "region-rows": [{"users": (1, i % 8 + 2), "rhs": "%d/7" % i if i % 3 else i,
                     "cycle": (1, i % 8 + 2)} for i in range(1200)],
    # leaf values only, so every piece is written by one dict's own loop
    "flat-dict": {"k%d" % i: "v%d" % i if i % 2 else i for i in range(1500)},
}


def min_pieces(obj) -> int:
    """A lower bound on the pieces the writer buffers for ``obj``: at least
    one per item of a dict, or of a list that is not all ints.  A dict value
    that is a str, an int or a non-empty list of ints shares its key's."""
    def shares_key(val):
        return type(val) in (str, int) or (type(val) in (list, tuple)
                                           and {*map(type, val)} == {int})
    if type(obj) is dict:
        return len(obj) + sum(min_pieces(v) for v in obj.values() if not shares_key(v))
    if type(obj) in (list, tuple) and {*map(type, obj)} != {int}:
        return len(obj) + sum(map(min_pieces, obj))
    return 1


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], [{}], {"": []}, [[1, 2], [3]], [[1], 5, {"a": [True]}],
    [{"a": [1]}, [None], "x"], ("a", (1,)), -0, 10 ** 40, "\x00\U0001f600",
    # a bool is not an int to the writer, in a list or a tuple
    [1, True], (0, False, 2), {"a": (1, 2), "b": [(3,), (True,)]},
    # dict values written beside their key, or not: empty and bool-holding
    # lists, escaped strings, None, bools, big ints and nested dicts
    {"a": [], "b": (), "c": [True], "d": [1, True], "e": {}, "f": (7,)},
    {ODD: ODD, "n": None, "t": True, "f": False, "z": -0, "big": -10 ** 40},
    {"a": {"b": {"c": [1, 2], "d": "x"}, "e": [{"f": 1}]}, "g": 2},
    *(pytest.param(obj, id=name) for name, obj in FLUSH_SHAPES.items()),
])
def test_writer_equals_json_dumps_on_edge_shapes(obj):
    assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", FLUSH_SHAPES.values(), ids=FLUSH_SHAPES.keys())
def test_flush_shapes_cross_a_flush(obj):
    assert min_pieces(obj) > _FLUSH


@pytest.mark.parametrize("val", ["x", 1, [1, 2], (3,), [], None, True, {"a": 1}])
def test_writer_refuses_a_non_str_key_beside_any_value(val):
    for key in (1, None, True):
        with pytest.raises(TypeError, match="keys must be str"):
            dumps_canonical({"a": val, key: val})


def test_writer_peak_memory_is_bounded_on_a_flat_dict():
    # leaf values are written in their key's piece, without a recursive
    # call; the dict's own loop still joins its buffer every _FLUSH pieces
    obj = {"k%d" % i: "v%d" % i if i % 2 else i for i in range(100_000)}
    tracemalloc.start()
    try:
        text = dumps_canonical(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(obj, indent=2) + "\n"
    assert peak <= 2.5 * len(text)


def test_writer_leaves_no_cyclic_garbage():
    # an encoder that held its buffers in a cycle (say, a nested function
    # calling itself through its closure) would keep a whole report alive
    # until the next collection
    gc.collect()
    gc.disable()
    try:
        dumps_canonical(FLUSH_SHAPES["dicts"])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_writer_peak_memory_is_bounded_on_nested_items():
    # one sub-channel entry of an invertibility report with 2,000 tied
    # partitions: a list item that is itself mostly a list of dicts
    cert = {"partition": {"cycles": [[1, 3], [2]], "predecessors": [3, 0, 1]},
            "participating_bits": 4, "rank": 4, "invertible": True,
            "method": "gf2-rank", "kernel": [{"user": 1, "bit": 2}]}
    obj = {"command": "invertibility",
           "subchannels": [{"invertible": True, "method": "all ties",
                            "certificates": [dict(cert) for _ in range(2000)]}]}
    tracemalloc.start()
    try:
        text = dumps_canonical(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(obj, indent=2) + "\n"
    assert peak <= 2.5 * len(text)
