"""Core data model: channel strength matrices and parallel networks.

A network is a set of K transmitter/receiver pairs observed over M parallel
sub-channels.  Each sub-channel is described by a K x K matrix of nonnegative
channel strengths, with rows indexed by receiver and columns by transmitter:
``entry(j, i)`` is the strength of the link from transmitter i to receiver j.
Strengths are exact rationals (``fractions.Fraction``); in ``"deterministic"``
mode they must be nonnegative integers (bit levels), in ``"gdof"`` mode any
nonnegative rational is allowed.

All arithmetic in this package is exact.  Floats are accepted on input but are
converted through their decimal string form, so a JSON value ``0.1`` means
1/10, not the nearest binary float.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

__all__ = [
    "MODES",
    "ClampWarning",
    "InputError",
    "GuardError",
    "CrossCheckError",
    "MAX_RATIONAL_DIGITS",
    "as_rational",
    "StrengthMatrix",
    "Network",
    "TinViolation",
    "TinVerdict",
    "check_tin",
    "quantize",
    "parse_network",
    "load_network",
    "dumps_canonical",
    "network_to_dict",
    "save_network",
]

MODES = ("gdof", "deterministic")


class ClampWarning(UserWarning):
    """A negative input strength was clamped to zero."""


class InputError(ValueError):
    """Malformed user input (bad JSON schema, bad rational, bad mode...)."""


class GuardError(RuntimeError):
    """An exhaustive enumeration limit was exceeded."""


class CrossCheckError(AssertionError):
    """Two independent computations of the same quantity disagreed.

    This is never raised on valid inputs; if it fires, it indicates a bug in
    one of the solvers, not a property of the network being analyzed.
    """


# ---------------------------------------------------------------------------
# rational coercion
# ---------------------------------------------------------------------------

MAX_RATIONAL_DIGITS = 1000
_RATIONAL_LIMIT = 10 ** MAX_RATIONAL_DIGITS


def as_rational(value) -> Fraction:
    """Coerce a JSON-ish scalar to an exact Fraction.

    Accepts int, Fraction, strings like "3", "5/2", "0.75", "1e-3", and
    finite floats (converted via str() so the decimal literal is honored).
    Rejects bool, anything else, and values whose numerator or denominator
    has more than MAX_RATIONAL_DIGITS decimal digits; an oversized string is
    rejected from its length and exponent, before it is parsed.
    """
    if isinstance(value, bool):
        raise InputError("boolean is not a valid channel strength: %r" % (value,))
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise InputError("non-finite channel strength: %r" % (value,))
        frac = Fraction(str(value))
    elif isinstance(value, str):
        frac = _parse_rational(value.strip())
    else:
        raise InputError("cannot interpret %r as a rational strength" % (value,))
    if abs(frac.numerator) >= _RATIONAL_LIMIT or frac.denominator >= _RATIONAL_LIMIT:
        raise _too_large(value)
    return frac


def _parse_rational(text: str) -> Fraction:
    # Fraction() takes time that grows with the digits and the exponent,
    # e.g. "1e3000000" is 9 characters but 3 million digits: bound both.
    if len(text) > 2 * MAX_RATIONAL_DIGITS + 64:
        raise _too_large(text)
    _, e, exponent = text.lower().partition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > 2 * MAX_RATIONAL_DIGITS
        except ValueError:
            too_large = False       # malformed: Fraction() reports it
        if too_large:
            raise _too_large(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("cannot parse rational %r" % (text,)) from exc


def _too_large(value) -> InputError:
    # never echo the value itself: str() of a huge int raises ValueError
    if isinstance(value, str):
        shown = repr(value if len(value) <= 24 else value[:24] + "...")
    else:
        shown = "of type %s" % type(value).__name__
    return InputError(
        "rational %s is too large: numerator and denominator are limited "
        "to %d digits" % (shown, MAX_RATIONAL_DIGITS)
    )


def _common_denominator(values) -> int:
    """Least common multiple of the denominators of ``values`` (Fractions),
    built up one value at a time; InputError as soon as it exceeds
    MAX_RATIONAL_DIGITS digits, so that no sum of the values can render
    past Python's int-to-str limit."""
    denom = 1
    for val in values:
        denom = math.lcm(denom, val.denominator)
        if denom >= _RATIONAL_LIMIT:
            raise InputError(
                "the common denominator of the input rationals is too large: "
                "it is limited to %d digits" % MAX_RATIONAL_DIGITS
            )
    return denom


def rational_str(value) -> "int | str":
    """Render a rational for JSON output: bare int when integral, else "p/q".

    A Fraction is used as it is; anything else goes through ``Fraction()``.
    """
    frac = value if isinstance(value, Fraction) else Fraction(value)
    if frac.denominator == 1:
        return frac.numerator
    return str(frac)


# ---------------------------------------------------------------------------
# strength matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrengthMatrix:
    """A single sub-channel's K x K strength matrix (rows = receivers).

    Instances are immutable and always hold validated Fraction entries.
    Build from raw user values with :meth:`from_values`.
    """

    mode: str
    entries: tuple  # tuple of K tuples of K Fractions

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError("mode must be one of %s, got %r" % (MODES, self.mode))
        rows = self.entries
        if not rows:
            raise InputError("strength matrix must have at least one user")
        k = len(rows)
        for row in rows:
            if len(row) != k:
                raise InputError(
                    "strength matrix must be square: %d rows but a row of length %d"
                    % (k, len(row))
                )
            for val in row:
                if not isinstance(val, Fraction):
                    raise InputError("matrix entries must be Fractions, got %r" % (val,))
                if val < 0:
                    raise InputError("matrix entries must be nonnegative")
                if self.mode == "deterministic" and val.denominator != 1:
                    raise InputError(
                        "deterministic bit levels must be integers, got %s" % (val,)
                    )

    @classmethod
    def from_values(cls, mode: str, values, subchannel: int | None = None) -> "StrengthMatrix":
        """Coerce raw values (flat K^2 or nested K x K) into a StrengthMatrix.

        Negative entries are clamped to zero with a ClampWarning; clamping
        happens before the deterministic integrality check so that e.g. -3.5
        clamps cleanly to 0.
        """
        rows = _as_rows(values)
        k = len(rows)
        out = []
        for j, row in enumerate(rows, start=1):
            if len(row) != k:
                raise InputError(
                    "strength matrix must be square (K=%d but row %d has %d entries)"
                    % (k, j, len(row))
                )
            new_row = []
            for i, raw in enumerate(row, start=1):
                val = as_rational(raw)
                if val < 0:
                    where = "receiver %d, transmitter %d" % (j, i)
                    if subchannel is not None:
                        where += ", sub-channel %d" % subchannel
                    warnings.warn(
                        "clamped negative strength %s to 0 (%s)" % (val, where),
                        ClampWarning,
                        stacklevel=3,
                    )
                    val = Fraction(0)
                if mode == "deterministic" and val.denominator != 1:
                    raise InputError(
                        "deterministic bit levels must be integers, got %s "
                        "(receiver %d, transmitter %d)" % (val, j, i)
                    )
                new_row.append(val)
            out.append(tuple(new_row))
        return cls(mode=mode, entries=tuple(out))

    @property
    def users(self) -> int:
        return len(self.entries)

    def entry(self, rx: int, tx: int) -> Fraction:
        """Strength from transmitter tx at receiver rx (1-based indices)."""
        k = self.users
        if not (1 <= rx <= k and 1 <= tx <= k):
            raise InputError("user index out of range 1..%d: (%d, %d)" % (k, rx, tx))
        return self.entries[rx - 1][tx - 1]

    def desired(self, k: int) -> Fraction:
        """Strength of user k's own (desired) link."""
        return self.entry(k, k)

    def edge_weight(self, i: int, j: int) -> Fraction:
        """Weight of the directed graph edge from user j to user i.

        Cross links carry their interference strength; self-edges weigh 0.
        """
        if i == j:
            return Fraction(0)
        return self.entry(i, j)

    def submatrix(self, users) -> "StrengthMatrix":
        """Restriction to a subset of users (given as 1-based indices).

        Equivalent to silencing all other transmitters and receivers; the
        surviving users keep their relative order and are re-indexed 1..|S|.
        """
        sel = sorted(set(users))
        if not sel:
            raise InputError("submatrix needs at least one user")
        if sel[0] < 1 or sel[-1] > self.users:
            raise InputError("submatrix users out of range: %s" % (sel,))
        rows = tuple(
            tuple(self.entries[j - 1][i - 1] for i in sel) for j in sel
        )
        return StrengthMatrix(mode=self.mode, entries=rows)


def _as_rows(values):
    """Normalize flat-K^2 or nested lists into a list of row lists."""
    if not isinstance(values, (list, tuple)):
        raise InputError("matrix must be a list, got %r" % type(values).__name__)
    if not values:
        raise InputError("matrix must be non-empty")
    if isinstance(values[0], (list, tuple)):
        return [list(row) if isinstance(row, (list, tuple)) else _bad_row(row)
                for row in values]
    # flat: length must be a perfect square
    n = len(values)
    k = math.isqrt(n)
    if k * k != n:
        raise InputError(
            "flat matrix length %d is not a perfect square K*K" % n
        )
    return [list(values[j * k:(j + 1) * k]) for j in range(k)]


def _bad_row(row):
    raise InputError("matrix rows must be lists, got %r" % type(row).__name__)


# ---------------------------------------------------------------------------
# networks (M parallel sub-channels)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Network:
    """A K-user network observed over M parallel sub-channels."""

    mode: str
    matrices: tuple  # tuple of M StrengthMatrix, all K x K, same mode

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError("mode must be one of %s, got %r" % (MODES, self.mode))
        if not self.matrices:
            raise InputError("a network needs at least one sub-channel (M >= 1 required)")
        k = self.matrices[0].users
        for idx, mat in enumerate(self.matrices, start=1):
            if not isinstance(mat, StrengthMatrix):
                raise InputError("sub-channel %d is not a StrengthMatrix" % idx)
            if mat.mode != self.mode:
                raise InputError(
                    "sub-channel %d has mode %r, network is %r"
                    % (idx, mat.mode, self.mode)
                )
            if mat.users != k:
                raise InputError(
                    "sub-channel %d has %d users, expected %d" % (idx, mat.users, k)
                )

    @property
    def users(self) -> int:
        return self.matrices[0].users

    @property
    def subchannels(self) -> int:
        return len(self.matrices)

    def matrix(self, m: int) -> StrengthMatrix:
        """The m-th sub-channel's matrix (1-based)."""
        if not (1 <= m <= self.subchannels):
            raise InputError("sub-channel index out of range 1..%d: %d"
                             % (self.subchannels, m))
        return self.matrices[m - 1]


# ---------------------------------------------------------------------------
# TIN optimality condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TinViolation:
    """Witness that a user breaks the TIN condition on one sub-channel."""

    user: int
    max_incoming: Fraction   # strongest interference suffered at this receiver
    max_outgoing: Fraction   # strongest interference caused by this transmitter
    desired: Fraction        # the user's own link strength


@dataclass(frozen=True)
class TinVerdict:
    """Outcome of the TIN optimality test on one sub-channel.

    ``satisfied`` means every user's desired strength is at least the sum of
    its strongest incoming and strongest outgoing interference; ``strict``
    means the inequality is strict for every user (which in particular makes
    the nonnegativity constraints of the rate region redundant).
    """

    satisfied: bool
    strict: bool
    violations: tuple  # tuple of TinViolation, empty when satisfied

    def __bool__(self):
        return self.satisfied


def check_tin(matrix: StrengthMatrix) -> TinVerdict:
    """Test the TIN optimality condition on a single sub-channel.

    For each user i the condition compares the desired strength entry(i, i)
    against max_{j != i} entry(j, i) (interference i causes, its column) plus
    max_{k != i} entry(i, k) (interference i suffers, its row).
    """
    k = matrix.users
    zero = Fraction(0)
    violations = []
    strict = True
    for i in range(1, k + 1):
        incoming = max((matrix.entry(i, t) for t in range(1, k + 1) if t != i),
                       default=zero)
        outgoing = max((matrix.entry(r, i) for r in range(1, k + 1) if r != i),
                       default=zero)
        desired = matrix.entry(i, i)
        if desired < incoming + outgoing:
            violations.append(TinViolation(i, incoming, outgoing, desired))
            strict = False
        elif desired == incoming + outgoing:
            strict = False
    return TinVerdict(satisfied=not violations, strict=strict,
                      violations=tuple(violations))


# ---------------------------------------------------------------------------
# quantization (gdof -> deterministic)
# ---------------------------------------------------------------------------

def quantize(obj, log2p) -> "StrengthMatrix | Network":
    """Map a gdof-mode matrix or network to its deterministic counterpart.

    Each strength a becomes the bit level floor(a * log2(P) / 2), where
    log2(P) is given exactly as a rational.  Requires log2(P) > 0, i.e. a
    nominal power P > 1.
    """
    lp = as_rational(log2p)
    if lp <= 0:
        raise InputError("quantize requires log2(P) > 0 (nominal power P > 1), got %s" % lp)
    if isinstance(obj, Network):
        if obj.mode != "gdof":
            raise InputError("quantize applies to gdof-mode networks")
        mats = tuple(quantize(mat, lp) for mat in obj.matrices)
        return Network(mode="deterministic", matrices=mats)
    if isinstance(obj, StrengthMatrix):
        if obj.mode != "gdof":
            raise InputError("quantize applies to gdof-mode matrices")
        rows = tuple(
            tuple(Fraction(math.floor(val * lp / 2)) for val in row)
            for row in obj.entries
        )
        return StrengthMatrix(mode="deterministic", entries=rows)
    raise InputError("quantize expects a StrengthMatrix or Network")


# ---------------------------------------------------------------------------
# JSON input / output
# ---------------------------------------------------------------------------

def parse_network(obj) -> Network:
    """Build a Network from a decoded JSON document.

    Expected shape::

        {"mode": "gdof" | "deterministic",
         "users": K,
         "subchannels": M,
         "matrices": [matrix, ...]}       # M matrices, each flat K^2 or K rows

    """
    if not isinstance(obj, dict):
        raise InputError("network document must be a JSON object")
    missing = [key for key in ("mode", "users", "subchannels", "matrices")
               if key not in obj]
    if missing:
        raise InputError("network document missing keys: %s" % ", ".join(missing))
    mode = obj["mode"]
    if mode not in MODES:
        raise InputError("mode must be one of %s, got %r" % (MODES, mode))
    users = obj["users"]
    subch = obj["subchannels"]
    if isinstance(users, bool) or not isinstance(users, int) or users < 1:
        raise InputError("users must be a positive integer, got %r" % (users,))
    if isinstance(subch, bool) or not isinstance(subch, int) or subch < 1:
        raise InputError("subchannels must be a positive integer (M >= 1 required), got %r"
                         % (subch,))
    raw_mats = obj["matrices"]
    if not isinstance(raw_mats, list):
        raise InputError("matrices must be a list")
    if len(raw_mats) != subch:
        raise InputError("expected %d matrices, got %d" % (subch, len(raw_mats)))
    mats = []
    for m, raw in enumerate(raw_mats, start=1):
        mat = StrengthMatrix.from_values(mode, raw, subchannel=m)
        if mat.users != users:
            raise InputError(
                "sub-channel %d matrix is %dx%d but users=%d"
                % (m, mat.users, mat.users, users)
            )
        mats.append(mat)
    _common_denominator(val for mat in mats for row in mat.entries for val in row)
    return Network(mode=mode, matrices=tuple(mats))


def load_network(path) -> Network:
    """Load a network from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer literal too long
        raise InputError("invalid JSON in %s: %s" % (path, exc)) from exc
    return parse_network(obj)


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii
_INTS = {int}
_CONTAINERS = (dict, list, tuple)


def _key(key) -> str:
    if type(key) is not str:
        raise TypeError("keys must be str, not %s" % type(key).__name__)
    return _escape(key)


def _encode(obj, nl: str) -> str:
    """``obj`` as one string whose nested lines start with ``nl`` plus two
    spaces per level; a list of ints is one join."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{%s%s%s}" % (inner, ("," + inner).join(
            [_key(k) + ": " + _encode(v, inner) for k, v in obj.items()]), nl)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        items = (map(int.__repr__, obj) if {*map(type, obj)} == _INTS
                 else [_encode(v, inner) for v in obj])
        return "[%s%s%s]" % (inner, ("," + inner).join(items), nl)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def _flat(obj) -> bool:
    """Whether ``obj`` is a dict holding no container but lists of scalars."""
    return type(obj) is dict and not any(
        type(v) is dict and v
        or type(v) in (list, tuple) and v and type(v[0]) in _CONTAINERS
        for v in obj.values())


def _chunks(obj, nl: str):
    """``_encode(obj, nl)`` in pieces: a dict streams its values and a list
    of containers its items, except that a list whose first item is a flat
    dict (``_flat``) gives each of its dicts as one piece."""
    inner = nl + "  "
    kind = type(obj)
    if kind is dict and obj:
        head = "{" + inner
        for key, val in obj.items():
            yield head + _key(key) + ": "
            yield from _chunks(val, inner)
            head = "," + inner
        yield nl + "}"
    elif (kind is list or kind is tuple) and obj and type(obj[0]) in _CONTAINERS:
        whole = _flat(obj[0])
        head = "[" + inner
        for val in obj:
            if whole and type(val) is dict:
                yield head + _encode(val, inner)
            else:
                yield head
                yield from _chunks(val, inner)
            head = "," + inner
        yield nl + "]"
    else:
        yield _encode(obj, nl)


def dumps_canonical(obj) -> str:
    """The one JSON writer: exactly ``json.dumps(obj, indent=2) + "\\n"``
    (two-space indent, insertion order, ASCII escapes, one trailing
    newline) for trees of ``str``, ``int``, ``bool``, ``None``, ``list``,
    ``tuple`` and ``dict`` with ``str`` keys, matched on exact type; any
    other value or key raises TypeError.

    Its pieces (``_chunks``) are joined 1,024 at a time, so they never all
    live at once: the peak stays near twice the output.
    """
    chunks = _chunks(obj, "\n")
    parts = []
    while batch := list(itertools.islice(chunks, 1024)):
        parts.append("".join(batch))
    parts.append("\n")
    return "".join(parts)


def network_to_dict(network: Network) -> dict:
    """Canonical JSON-ready dict for a network (nested rows, exact rationals)."""
    return {
        "mode": network.mode,
        "users": network.users,
        "subchannels": network.subchannels,
        "matrices": [
            [[rational_str(val) for val in row] for row in mat.entries]
            for mat in network.matrices
        ],
    }


def save_network(network: Network, path) -> None:
    """Write a network as JSON (the inverse of :func:`load_network`)."""
    text = dumps_canonical(network_to_dict(network))
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from exc
