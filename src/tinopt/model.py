"""Core data model: channel strength matrices and parallel networks.

A network is a set of K transmitter/receiver pairs observed over M parallel
sub-channels.  Each sub-channel is described by a K x K matrix of nonnegative
channel strengths, with rows indexed by receiver and columns by transmitter:
``entry(j, i)`` is the strength of the link from transmitter i to receiver j.
Strengths are exact rationals; in ``"deterministic"`` mode they must be
nonnegative integers (bit levels), in ``"gdof"`` mode any nonnegative
rational is allowed.  A matrix stores them as ints over their least common
denominator D (``StrengthMatrix.scaled``); ``Fraction`` values are made only
where a reader asks for them.

Each check has one home.  ``_read_pair`` reads every raw rational (and
``as_rational`` is built on it); ``_gate`` checks a matrix, on every way of
building one; the ``Network`` constructor checks its own fields, and
``parse_network`` only the JSON document's own fields.

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
_TEXT_LIMIT = 2 * MAX_RATIONAL_DIGITS + 64   # longest string read
_INTS = {int}


def as_rational(value) -> Fraction:
    """Coerce a JSON-ish scalar to an exact Fraction.

    Accepts int, Fraction, strings like "3", "5/2", "0.75", "1e-3", and
    finite floats (converted via str() so the decimal literal is honored).
    Rejects bool, anything else, and values whose numerator or denominator
    has more than MAX_RATIONAL_DIGITS decimal digits; an oversized string is
    rejected from its length and exponent, before it is parsed.  The value
    is read by ``_read_pair``, the package's one reader of raw rationals.
    """
    return Fraction(*_read_pair(value))


def _read_pair(value) -> tuple:
    """The (numerator, denominator) pair, in lowest terms with a positive
    denominator, of every value ``as_rational`` accepts, with its errors.
    A plain int and a ``"p"`` or ``"p/q"`` string of ASCII digits are read
    without a Fraction; every other form goes through ``Fraction()``."""
    kind = type(value)
    if kind is int:
        num, den = value, 1
    else:
        pair = _digits_pair(value) if kind is str else None
        if pair is None:
            frac = _read_fraction(value)
            pair = frac.numerator, frac.denominator
        num, den = pair
    if -_RATIONAL_LIMIT < num < _RATIONAL_LIMIT and den < _RATIONAL_LIMIT:
        return num, den
    raise _too_large(value)


def _digits_pair(text: str) -> "tuple | None":
    """(p, q) in lowest terms for a ``"p"`` or ``"p/q"`` of ASCII digits
    with q > 0, short enough for ``int()``; None for any other text."""
    num, slash, den = text.partition("/")
    if not (len(text) <= _TEXT_LIMIT and text.isascii() and num.isdigit()
            and (den.isdigit() or not slash)):
        return None
    if not slash:
        return int(num), 1
    p, q = int(num), int(den)
    if not q:
        return None
    g = math.gcd(p, q)
    return p // g, q // g


def _read_fraction(value) -> Fraction:
    """``_read_pair``'s general path: any accepted form through ``Fraction()``."""
    if isinstance(value, bool):
        raise InputError("boolean is not a valid rational: %r" % (value,))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError("non-finite rational: %r" % (value,))
        return Fraction(str(value))
    if isinstance(value, str):
        return _parse_rational(value.strip())
    raise InputError("cannot interpret %s as a rational" % _shown(value))


def _parse_rational(text: str) -> Fraction:
    # Fraction() takes time that grows with the digits and the exponent,
    # e.g. "1e3000000" is 9 characters but 3 million digits: bound both.
    if len(text) > _TEXT_LIMIT:
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


def _clip(text: str) -> str:
    """Outside input as a message echoes it: cut to 24 characters and "..."
    past that, so a huge value cannot flood the one-line error."""
    return text if len(text) <= 24 else text[:24] + "..."


def _too_large(value) -> InputError:
    # never echo the value itself: str() of a huge int raises ValueError
    if isinstance(value, str):
        shown = repr(_clip(value))
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

    An int or a Fraction is used as it is; anything else goes through
    ``Fraction()``.
    """
    if type(value) is int:
        return value
    frac = value if isinstance(value, Fraction) else Fraction(value)
    if frac.denominator == 1:
        return frac.numerator
    return str(frac)


# ---------------------------------------------------------------------------
# strength matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, repr=False)
class StrengthMatrix:
    """A single sub-channel's K x K strength matrix (rows = receivers).

    The stored form is ``scaled`` = (D, flat): D the least common
    denominator of the entries and ``flat`` D times each entry as an int,
    row-major, entry (rx, tx) at (rx - 1) * K + tx - 1.  Every integer
    route reads it; ``==`` and ``hash`` compare it with the mode, so they
    go by value, and instances are immutable and hashable.  ``entries``,
    K rows of K ``Fraction`` entries, is a view built from ``scaled`` on
    first read.

    The constructor takes ``entries`` as K rows of K ints or Fractions;
    :meth:`from_values` reads raw user values instead.  Both pass through
    one gate (``_gate``): a known mode, a non-empty sequence of K rows,
    each a sequence of K entries, all nonnegative, integers in
    deterministic mode, and numerators, denominators and D within
    MAX_RATIONAL_DIGITS digits.
    """

    mode: str
    users: int
    scaled: tuple  # (D, flat): D times each entry, row-major

    def __init__(self, mode: str, entries):
        self._store(mode, *_gate(mode, entries, _stored_pair))

    def _store(self, mode: str, users: int, scaled: tuple) -> None:
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "scaled", scaled)

    @classmethod
    def from_values(cls, mode: str, values, subchannel: int | None = None) -> "StrengthMatrix":
        """Read raw values (flat K^2 or nested K x K) into a StrengthMatrix.

        Each value is read as ``as_rational`` reads it, without building a
        Fraction for an int or a "p/q" string, and the gate checks the
        result.  A negative value is clamped to zero with a ClampWarning as
        it is read, before the gate checks it, so that e.g. -3.5 clamps
        cleanly to 0 in deterministic mode.
        """
        def read(raw, rx, tx):
            num, den = _read_pair(raw)
            if num >= 0:
                return num, den
            where = "receiver %d, transmitter %d" % (rx, tx)
            if subchannel is not None:
                where += ", sub-channel %d" % subchannel
            warnings.warn("clamped negative strength %s to 0 (%s)"
                          % (_pair_str(num, den), where), ClampWarning, stacklevel=5)
            return 0, 1

        mat = cls.__new__(cls)
        mat._store(mode, *_gate(mode, _as_rows(values), read))
        return mat

    @cached_property
    def entries(self) -> tuple:
        """K rows of K Fractions, the entries: built from ``scaled`` on
        first read, the one place this view is built."""
        scale, flat = self.scaled
        k = self.users
        vals = [Fraction(v, scale) for v in flat]
        return tuple(tuple(vals[j * k:(j + 1) * k]) for j in range(k))

    def __repr__(self):
        rows = tuple(tuple(v.numerator if v.denominator == 1 else v for v in row)
                     for row in self.entries)
        return "StrengthMatrix(mode=%r, entries=%r)" % (self.mode, rows)

    def entry(self, rx: int, tx: int) -> Fraction:
        """Strength from transmitter tx at receiver rx (1-based indices)."""
        k = self.users
        if not (1 <= rx <= k and 1 <= tx <= k):
            raise InputError("user index out of range 1..%d: (%s, %s)"
                             % (k, _shown(rx), _shown(tx)))
        scale, flat = self.scaled
        return Fraction(flat[(rx - 1) * k + tx - 1], scale)

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


def _gate(mode, rows, read) -> tuple:
    """The one gate of a matrix: (K, (D, flat)) for ``rows``, K rows of K
    values that ``read(value, rx, tx)`` turns into lowest-terms
    (numerator, denominator) pairs, or InputError at the first fault.  A
    row of plain ints within MAX_RATIONAL_DIGITS digits, none negative,
    passes without ``read``."""
    if mode not in MODES:
        raise InputError("mode must be one of %s, got %s" % (MODES, _shown(mode)))
    if not isinstance(rows, (list, tuple)) or not rows:
        raise InputError("strength matrix must have at least one user")
    k = len(rows)
    det = mode == "deterministic"
    nums, dens = [], []
    for j, row in enumerate(rows, start=1):
        if not isinstance(row, (list, tuple)):
            _bad_row(row)
        if len(row) != k:
            raise InputError(
                "strength matrix must be square (K=%d but row %d has %d entries)"
                % (k, j, len(row))
            )
        if _INTS.issuperset(map(type, row)) and min(row) >= 0 \
                and max(row) < _RATIONAL_LIMIT:
            nums += row
            dens += [1] * k
            continue
        for i, val in enumerate(row, start=1):
            num, den = read(val, j, i)
            if num < 0:
                raise InputError(
                    "matrix entries must be nonnegative, got %s "
                    "(receiver %d, transmitter %d)" % (_pair_str(num, den), j, i))
            if det and den != 1:
                raise InputError(
                    "deterministic bit levels must be integers, got %s "
                    "(receiver %d, transmitter %d)" % (_pair_str(num, den), j, i))
            if num >= _RATIONAL_LIMIT or den >= _RATIONAL_LIMIT:
                raise InputError(
                    "matrix entries are limited to %d digits in numerator and "
                    "denominator (receiver %d, transmitter %d)"
                    % (MAX_RATIONAL_DIGITS, j, i))
            nums.append(num)
            dens.append(den)
    scale = _common_denominator(set(dens))
    if scale == 1:
        return k, (1, tuple(nums))
    return k, (scale, tuple(num * (scale // den) for num, den in zip(nums, dens)))


def _stored_pair(val, rx: int, tx: int) -> tuple:
    """The constructor's reader: an int or a Fraction as its pair."""
    if type(val) is int:
        return val, 1
    if isinstance(val, Fraction):
        return val.numerator, val.denominator
    raise InputError("matrix entries must be ints or Fractions, got %s "
                     "(receiver %d, transmitter %d)" % (type(val).__name__, rx, tx))


def _as_rows(values):
    """Normalize flat-K^2 or nested lists into a list of rows; the gate
    checks the rows of a nested one."""
    if not isinstance(values, (list, tuple)):
        raise InputError("matrix must be a list, got %r" % type(values).__name__)
    if values and isinstance(values[0], (list, tuple)):
        return values
    # flat: length must be a perfect square
    n = len(values)
    k = math.isqrt(n)
    if k * k != n:
        raise InputError(
            "flat matrix length %d is not a perfect square K*K" % n
        )
    return [values[j * k:(j + 1) * k] for j in range(k)]


def _pair_str(num: int, den: int) -> str:
    """num/den as str() of its Fraction shows it, or a description past
    MAX_RATIONAL_DIGITS digits, where str() of an int may raise."""
    if abs(num) >= _RATIONAL_LIMIT or den >= _RATIONAL_LIMIT:
        return "a rational of over %d digits" % MAX_RATIONAL_DIGITS
    return str(num) if den == 1 else "%d/%d" % (num, den)


def _shown(val) -> str:
    """A value as an error message shows it: str() of a Fraction, repr() of
    anything else.  str() and repr() of an int past Python's 4300-digit
    limit raise ValueError, so an oversized value is described instead."""
    if isinstance(val, Fraction):
        return _pair_str(val.numerator, val.denominator)
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
    whose gate checked their mode, all of the network's mode and of
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
    integer view ``matrix.scaled``; a violation's witness holds the
    entries themselves, as Fractions.
    """
    k = matrix.users
    scale, flat = matrix.scaled
    violations = []
    strict = True
    for i in range(k):
        row, col = flat[i * k:(i + 1) * k], flat[i::k]
        incoming = max(row[:i] + row[i + 1:], default=0)
        outgoing = max(col[:i] + col[i + 1:], default=0)
        if row[i] < incoming + outgoing:
            violations.append(TinViolation(
                i + 1, Fraction(incoming, scale), Fraction(outgoing, scale),
                Fraction(row[i], scale)))
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
        # floor((v / D) * (p / q) / 2) on the ints v of the view
        k, (scale, flat) = obj.users, obj.scaled
        div = 2 * scale * lp.denominator
        levels = [v * lp.numerator // div for v in flat]
        return StrengthMatrix("deterministic", [levels[j * k:(j + 1) * k] for j in range(k)])
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
    k = network.users

    def rows(mat):
        scale, flat = mat.scaled
        vals = [rational_str(v if scale == 1 else Fraction(v, scale)) for v in flat]
        return [vals[j * k:(j + 1) * k] for j in range(k)]

    return {
        "mode": network.mode,
        "users": k,
        "subchannels": network.subchannels,
        "matrices": [rows(mat) for mat in network.matrices],
    }


def save_network(network: Network, path) -> None:
    """Write a network as JSON (the inverse of :func:`load_network`)."""
    text = dumps_canonical(network_to_dict(network))
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from exc
