"""Core data model: channel strength matrices and parallel networks.

A network is a set of K transmitter/receiver pairs observed over M parallel
sub-channels.  Each sub-channel is described by a K x K matrix of nonnegative
channel strengths, with rows indexed by receiver and columns by transmitter:
``entry(j, i)`` is the strength of the link from transmitter i to receiver j.
Strengths are exact rationals (``fractions.Fraction``); in ``"deterministic"``
mode they must be nonnegative integers (bit levels), in ``"gdof"`` mode any
nonnegative rational is allowed.

Each check has one home.  The ``StrengthMatrix`` and ``Network``
constructors check their own fields, on every way of building them;
``StrengthMatrix.from_values`` only reads raw values, and ``parse_network``
checks only the JSON document's own fields.

All arithmetic in this package is exact.  Floats are accepted on input but are
converted through their decimal string form, so a JSON value ``0.1`` means
1/10, not the nearest binary float.

``dumps_canonical`` is the package's one JSON writer: a recursive encoder
that buffers its pieces and joins them ``_FLUSH`` at a time.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
        raise InputError("cannot interpret %s as a rational strength" % _shown(value))
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


def _common_denominator(denominators) -> int:
    """Least common multiple of ``denominators`` (positive ints), built up
    one at a time; InputError as soon as it exceeds MAX_RATIONAL_DIGITS
    digits, so that no sum of the rationals they come from can render
    past Python's int-to-str limit."""
    denom = 1
    for val in denominators:
        denom = math.lcm(denom, val)
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

    The constructor is the one gate for a matrix's fields: a known mode, a
    non-empty sequence of K rows, each a sequence of K ``Fraction`` entries,
    all nonnegative, and integers in deterministic mode.  It stores
    ``entries`` as a tuple of tuples, so instances are immutable and
    hashable.  Build from raw user values with :meth:`from_values`.
    """

    mode: str
    entries: tuple  # tuple of K tuples of K Fractions

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError("mode must be one of %s, got %s" % (MODES, _shown(self.mode)))
        rows = self.entries
        if not isinstance(rows, (list, tuple)) or not rows:
            raise InputError("strength matrix must have at least one user")
        k = len(rows)
        det = self.mode == "deterministic"
        for j, row in enumerate(rows, start=1):
            if not isinstance(row, (list, tuple)):
                _bad_row(row)
            if len(row) != k:
                raise InputError(
                    "strength matrix must be square (K=%d but row %d has %d entries)"
                    % (k, j, len(row))
                )
            for i, val in enumerate(row, start=1):
                if not isinstance(val, Fraction):
                    raise InputError(
                        "matrix entries must be Fractions, got %s "
                        "(receiver %d, transmitter %d)" % (type(val).__name__, j, i))
                if val.numerator < 0:
                    raise InputError(
                        "matrix entries must be nonnegative, got %s "
                        "(receiver %d, transmitter %d)" % (_shown(val), j, i))
                if det and val.denominator != 1:
                    raise InputError(
                        "deterministic bit levels must be integers, got %s "
                        "(receiver %d, transmitter %d)" % (_shown(val), j, i))
        object.__setattr__(self, "entries", tuple(map(tuple, rows)))

    @classmethod
    def from_values(cls, mode: str, values, subchannel: int | None = None) -> "StrengthMatrix":
        """Coerce raw values (flat K^2 or nested K x K) into a StrengthMatrix.

        This only reads values (``as_rational``); the constructor checks the
        result.  Negative entries are clamped to zero with a ClampWarning
        first, so that e.g. -3.5 clamps cleanly to 0 in deterministic mode.
        """
        out = []
        for j, row in enumerate(_as_rows(values), start=1):
            new_row = []
            for i, raw in enumerate(row, start=1):
                val = as_rational(raw)
                if val.numerator < 0:
                    where = "receiver %d, transmitter %d" % (j, i)
                    if subchannel is not None:
                        where += ", sub-channel %d" % subchannel
                    warnings.warn(
                        "clamped negative strength %s to 0 (%s)" % (val, where),
                        ClampWarning,
                        stacklevel=3,
                    )
                    val = Fraction(0)
                new_row.append(val)
            out.append(new_row)
        return cls(mode=mode, entries=out)

    @property
    def users(self) -> int:
        return len(self.entries)

    @cached_property
    def scaled(self) -> tuple:
        """The integer view every integer route reads, built on first use
        and no field (``==``, ``hash`` and ``repr`` ignore it): (D, flat),
        D the least common denominator of the entries (InputError past
        MAX_RATIONAL_DIGITS digits) and ``flat`` D times each entry as an
        int, row-major: entry (rx, tx) at (rx - 1) * K + tx - 1."""
        vals = [val for row in self.entries for val in row]
        scale = _common_denominator({val.denominator for val in vals})
        return scale, tuple(val.numerator * (scale // val.denominator) for val in vals)

    def entry(self, rx: int, tx: int) -> Fraction:
        """Strength from transmitter tx at receiver rx (1-based indices)."""
        k = self.users
        if not (1 <= rx <= k and 1 <= tx <= k):
            raise InputError("user index out of range 1..%d: (%s, %s)"
                             % (k, _shown(rx), _shown(tx)))
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
            raise InputError("submatrix users out of range: %s" % _shown(sel))
        rows = tuple(
            tuple(self.entries[j - 1][i - 1] for i in sel) for j in sel
        )
        return StrengthMatrix(mode=self.mode, entries=rows)


def _as_rows(values):
    """Normalize flat-K^2 or nested lists into a list of rows."""
    if not isinstance(values, (list, tuple)):
        raise InputError("matrix must be a list, got %r" % type(values).__name__)
    if values and isinstance(values[0], (list, tuple)):
        return [row if isinstance(row, (list, tuple)) else _bad_row(row)
                for row in values]
    # flat: length must be a perfect square
    n = len(values)
    k = math.isqrt(n)
    if k * k != n:
        raise InputError(
            "flat matrix length %d is not a perfect square K*K" % n
        )
    return [values[j * k:(j + 1) * k] for j in range(k)]


def _shown(val) -> str:
    """A value as an error message shows it: str() of a Fraction, repr() of
    anything else.  str() and repr() of an int past Python's 4300-digit
    limit raise ValueError, so an oversized value is described instead."""
    if isinstance(val, Fraction):
        if abs(val.numerator) < _RATIONAL_LIMIT and val.denominator < _RATIONAL_LIMIT:
            return str(val)
        return "a rational of over %d digits" % MAX_RATIONAL_DIGITS
    try:
        return repr(val)
    except ValueError:
        return "an oversized %s" % type(val).__name__


def _bad_row(row):
    raise InputError("matrix rows must be lists, got %r" % type(row).__name__)


def _rescaled(matrices, extra=()) -> tuple:
    """(D, flats, ints): the ``scaled`` views of ``matrices`` and the
    rationals ``extra`` at their least common denominator D (InputError
    past MAX_RATIONAL_DIGITS digits), as D times each entry and each of
    ``extra``; a view already at D is returned as it is."""
    views = [mat.scaled for mat in matrices]
    scale = _common_denominator([d for d, _ in views] + [v.denominator for v in extra])
    flats = [flat if d == scale else tuple(v * (scale // d) for v in flat)
             for d, flat in views]
    return scale, flats, [v.numerator * (scale // v.denominator) for v in extra]


# ---------------------------------------------------------------------------
# networks (M parallel sub-channels)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Network:
    """A K-user network observed over M parallel sub-channels.

    The constructor checks a non-empty sequence of StrengthMatrix items,
    whose constructors checked their mode, all of the network's mode and of
    one K; their ``scaled`` views must share a common denominator within
    MAX_RATIONAL_DIGITS digits.  It stores ``matrices`` as a tuple, so
    instances are immutable and hashable.
    """

    mode: str
    matrices: tuple  # tuple of M StrengthMatrix, all K x K, same mode

    def __post_init__(self):
        mats = self.matrices
        if not isinstance(mats, (list, tuple)) or not mats:
            raise InputError("a network needs at least one sub-channel (M >= 1 required)")
        for idx, mat in enumerate(mats, start=1):
            if not isinstance(mat, StrengthMatrix):
                raise InputError("sub-channel %d is not a StrengthMatrix" % idx)
            if mat.mode != self.mode:
                raise InputError(
                    "sub-channel %d has mode %r, network is %s"
                    % (idx, mat.mode, _shown(self.mode))
                )
            if mat.users != mats[0].users:
                raise InputError("sub-channel %d has %d users, expected %d"
                                 % (idx, mat.users, mats[0].users))
        _common_denominator(mat.scaled[0] for mat in mats)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def users(self) -> int:
        return self.matrices[0].users

    @property
    def subchannels(self) -> int:
        return len(self.matrices)

    def matrix(self, m: int) -> StrengthMatrix:
        """The m-th sub-channel's matrix (1-based)."""
        if not (1 <= m <= self.subchannels):
            raise InputError("sub-channel index out of range 1..%d: %s"
                             % (self.subchannels, _shown(m)))
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
    max_{k != i} entry(i, k) (interference i suffers, its row), on the
    integer view ``matrix.scaled`` (InputError past MAX_RATIONAL_DIGITS
    digits of common denominator); a violation's witness holds the entries
    themselves.
    """
    k = matrix.users
    flat = matrix.scaled[1]
    violations = []
    strict = True
    for i in range(k):
        row, col = flat[i * k:(i + 1) * k], flat[i::k]
        incoming = max(row[:i] + row[i + 1:], default=0)
        outgoing = max(col[:i] + col[i + 1:], default=0)
        if row[i] < incoming + outgoing:
            entries = matrix.entries
            others = [t for t in range(k) if t != i]
            violations.append(TinViolation(
                i + 1, max(entries[i][t] for t in others),
                max(entries[t][i] for t in others), entries[i][i]))
            strict = False
        elif row[i] == incoming + outgoing:
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

    Only the document's own fields are checked here; the matrices and the
    network (their common denominator included) are checked by their
    constructors.
    """
    if not isinstance(obj, dict):
        raise InputError("network document must be a JSON object")
    missing = [key for key in ("mode", "users", "subchannels", "matrices")
               if key not in obj]
    if missing:
        raise InputError("network document missing keys: %s" % ", ".join(missing))
    mode = obj["mode"]
    users = obj["users"]
    subch = obj["subchannels"]
    if isinstance(users, bool) or not isinstance(users, int) or users < 1:
        raise InputError("users must be a positive integer, got %s" % _shown(users))
    if isinstance(subch, bool) or not isinstance(subch, int) or subch < 1:
        raise InputError("subchannels must be a positive integer (M >= 1 required), got %s"
                         % _shown(subch))
    raw_mats = obj["matrices"]
    if not isinstance(raw_mats, list):
        raise InputError("matrices must be a list")
    if len(raw_mats) != subch:
        raise InputError("expected %s matrices, got %d" % (_shown(subch), len(raw_mats)))
    mats = []
    for m, raw in enumerate(raw_mats, start=1):
        mat = StrengthMatrix.from_values(mode, raw, subchannel=m)
        if mat.users != users:
            raise InputError(
                "sub-channel %d matrix is %dx%d but users=%s"
                % (m, mat.users, mat.users, _shown(users))
            )
        mats.append(mat)
    return Network(mode=mode, matrices=mats)


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
_FLUSH = 512   # pieces joined at a time


def _write(obj, nl: str, out: list, parts: list) -> None:
    """Append the pieces of ``obj``, whose nested lines start with ``nl``
    plus two spaces per level, to ``out``, and join ``out`` onto ``parts``
    once it holds ``_FLUSH`` pieces.  A dict value that is a str, an int
    or a non-empty list of ints is written in its key's piece."""
    kind = type(obj)
    if kind is str:
        out.append(_escape(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict or kind is list or kind is tuple:
        if not obj:
            out.append("{}" if kind is dict else "[]")
            return
        inner = nl + "  "
        if kind is dict:
            head, comma = "{" + inner, "," + inner
            deeper = inner + "  "
            sep = "," + deeper
            for key, val in obj.items():
                if type(key) is not str:
                    raise TypeError("keys must be str, not %s" % type(key).__name__)
                vkind = type(val)
                if vkind is str:
                    out.append(f"{head}{_escape(key)}: {_escape(val)}")
                elif vkind is int:
                    out.append(f"{head}{_escape(key)}: {int.__repr__(val)}")
                elif (vkind is list or vkind is tuple) and val \
                        and _INTS.issuperset(map(type, val)):
                    ints = sep.join(map(int.__repr__, val))
                    out.append(f"{head}{_escape(key)}: [{deeper}{ints}{inner}]")
                else:
                    out.append(f"{head}{_escape(key)}: ")
                    _write(val, inner, out, parts)
                head = comma
                if len(out) >= _FLUSH:
                    parts.append("".join(out))
                    out.clear()
            out.append(nl + "}")
        elif _INTS.issuperset(map(type, obj)):
            out.append("[%s%s%s]" % (inner, ("," + inner).join(map(int.__repr__, obj)), nl))
        else:
            head = "[" + inner
            for val in obj:
                out.append(head)
                _write(val, inner, out, parts)
                head = "," + inner
            out.append(nl + "]")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
    if len(out) >= _FLUSH:
        parts.append("".join(out))
        out.clear()


def dumps_canonical(obj) -> str:
    """The one JSON writer: exactly ``json.dumps(obj, indent=2) + "\\n"``
    (two-space indent, insertion order, ASCII escapes, one trailing
    newline) for trees of ``str``, ``int``, ``bool``, ``None``, ``list``,
    ``tuple`` and ``dict`` with ``str`` keys, matched on exact type; any
    other value or key raises TypeError.

    One recursive encoder (``_write``) appends its pieces to a buffer and
    joins the buffer onto the output parts every ``_FLUSH`` pieces, so the
    pieces never all live at once: the peak stays near twice the output.
    A list of ints is one piece, built by a single join.
    """
    out, parts = [], []
    _write(obj, "\n", out, parts)
    out.append("\n")
    parts.append("".join(out))
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
