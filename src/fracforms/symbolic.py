"""Closed symbolic class: finite sums of generalized power products.

An expression is a finite sum of terms ``c * prod_i (x_i - a_i)^(p_i)`` with
real coefficients and real exponents.  The class is closed under addition,
multiplication, classical differentiation, and the fractional operators in
:mod:`fracforms.rl`.  Initial points ``a_i`` live on the :class:`Context`,
never on the terms themselves.

Text grammar, read by :func:`scan_terms` (whitespace is allowed between any
two tokens)::

    expr    := term (("+"|"-") term)*
    term    := signed_number ("*" factor)* | factor ("*" factor)*
    factor  := coord ("^" signed_number)?
    signed_number := ("+"|"-")? number      e.g. 2, 0.5, .5, 3., 1.5e-2

    form    := fterm (("+"|"-") fterm)*
    fterm   := term wedge? | wedge
    wedge   := diff ("&" diff)* "&"?
    diff    := "d" "(" coord "," signed_number ")"

A term needs a number right after a leading sign, so ``-x`` is rejected and
``-1*x`` is read.  In a form, ``d(`` opens a differential unless it follows
``*``; a literal with no wedge is a grade-0 form, and a dangling ``&`` at the
end of a wedge is ignored.  The grammar has no nesting, so one regular
expression validates a whole term; :func:`scan_terms` then reads each
distinct factor and wedge text of the call once.

An :class:`Expr` over n coordinates holds its m terms as two read-only
float64 arrays: the coefficient vector ``coeffs`` of shape (m,) and the
exponent matrix ``exponents`` of shape (m, n), and nothing else.  The
operators work on those arrays directly.  Every ``Expr`` is canonical from
the moment it exists: ``Expr(coeffs, exponents, n)`` merges the rows it is
given, and the module's own operators wrap only arrays that are already
canonical.

Canonicalization snaps exponents within ``EXP_TOL`` (1e-9) of 0 to 0,
merges terms whose exponent vectors have the same merge key (the exponent
times 10^9, rounded half to even to a whole number, over 10^9) in every
coordinate, drops coefficients below ``COEFF_DROP`` (1e-12) in magnitude,
and sorts terms lexicographically by key, so equal expressions have
identical representations.  The thresholds and the key are defined in
:mod:`fracforms.tolerances`, the one home of the tolerance policy.  A merged coefficient is the left fold of the merged terms'
coefficients in input order (first + second + ...), and each merged exponent
is, per coordinate, the last one in input order among those closest to the
key.  The result does not depend on how the merge is carried out: the
vectorized merge used for larger expressions and the loop used for small ones
give the same doubles.  A single term is only snapped and dropped
(:func:`_merge_one`).  A sum with more than ``_SMALL_MERGE`` terms between
its two sides merges their two sorted runs (:func:`_merge_runs`), where a key
holds at most two terms, one from each side, and gets the same doubles again;
two runs with the same keys row by row are paired row by row, unsorted.

Shifting one exponent column of an expression of two or more terms, as the
power rule and the classical derivative do, runs no merge when the shift
keeps every key comparison in that column, snaps no exponent and drops no
coefficient (:func:`shift_column`): the shifted arrays are then already what
the merge would return.

Each of these fast paths pays for itself.  Taking one out and timing 4-5
alternating 20 s pairs of the benchmark under ``perfbench/`` at seed 3 (a
2-vCPU Xeon, numpy 2.4.6), against the code with it:

* merging every shift (no no-merge path in :func:`shift_column`):
  ``forms_symbolic`` 211.5 -> 192.4 ops/s, p90 7.00 -> 8.23 ms;
* merging a sum's two runs as any other rows (no :func:`_merge_runs`):
  ``forms_symbolic`` 208.8 -> 193.6 ops/s, p90 7.17 -> 8.09 ms;
* sorting two aligned runs (no row-by-row pairing in :func:`_merge_runs`):
  ``forms_symbolic`` 232.2 -> 212.4 ops/s, p90 6.28 -> 6.97 ms;
* merging one term in the dict loop (no :func:`_merge_one`):
  ``charts_transform`` 1352 -> 1257 ops/s, p50 0.62 -> 0.68 ms.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BoundarySingularityError,
    EvalDomainError,
    ParseError,
    UnknownCoordinateError,
    UnsupportedError,
)
from .specialfn import snap_int
from .tolerances import COEFF_DROP, EXP_TOL, key, keys

# Up to this many terms canonicalize merges in a dict loop; above it, with
# lexsort and bincount.  Both give the same doubles (a property test checks
# them against one reference).  The cut is the measured crossover: on a 2-vCPU
# Xeon with numpy 2.4 the loop is faster up to 12 terms and the vectorized
# merge from about 14, and chart algebra lives on 1-3 term expressions.
_SMALL_MERGE = 12
_F64 = np.dtype(np.float64)


def fmt_number(x: float, digits: int | None = None) -> str:
    """Format a double so the grammar can read it back.

    With ``digits`` set this is a display format (CLI uses 10 significant
    digits).  Without it, whole numbers below 1e16 are written as integers
    and every other double as its ``repr``, the shortest text that reads back
    to the same double (``2.5e-07``, ``1e+16``).
    """
    if digits is not None:
        return f"{x:.{digits}g}"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


@dataclass(frozen=True)
class Context:
    """Coordinate names plus the initial point a_i of each coordinate."""

    names: tuple[str, ...]
    initial_points: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "initial_points", tuple(float(a) for a in self.initial_points))
        if len(self.names) != len(set(self.names)):
            raise ValueError("coordinate names must be distinct")
        if not self.names:
            raise ValueError("a context needs at least one coordinate")
        if len(self.initial_points) != len(self.names):
            raise ValueError("one initial point per coordinate")
        for name in self.names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ValueError(f"bad coordinate name {name!r}")

    @classmethod
    def of(cls, names: str | Sequence[str], origin: Sequence[float] | None = None) -> "Context":
        if isinstance(names, str):
            names = [s.strip() for s in names.split(",") if s.strip()]
        names = tuple(names)
        if origin is None:
            origin = (0.0,) * len(names)
        return cls(names, tuple(origin))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, coord: int | str) -> int:
        if isinstance(coord, str):
            try:
                return self.names.index(coord)
            except ValueError:
                raise UnknownCoordinateError(
                    f"unknown coordinate {coord!r} (declared: {', '.join(self.names)})"
                ) from None
        if not 0 <= coord < self.n:
            raise UnknownCoordinateError(f"coordinate index {coord} out of range")
        return coord


def _check_finite(coeffs: np.ndarray, exponents: np.ndarray) -> None:
    """Raise ``ValueError`` for the first term, in order, that holds a
    non-finite coefficient or exponent, naming which of the two it is."""
    ok_c = np.isfinite(coeffs)
    ok = ok_c & np.isfinite(exponents).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError("term exponent must be finite" if ok_c[i]
                         else "term coefficient must be finite")


_Term = namedtuple("_Term", "coeff exponents")


class _TermView:
    """``Expr.terms``: ``len`` reads the coefficient vector, and iteration
    builds one ``(coeff, exponents)`` item per term as it goes."""

    __slots__ = ("_e",)

    def __init__(self, e: "Expr"):
        self._e = e

    def __len__(self):
        return len(self._e.coeffs)

    def __iter__(self):
        return map(_Term, self._e.coeffs.tolist(), map(tuple, self._e.exponents.tolist()))


class Expr:
    """Finite sum of power products as a coefficient vector ``coeffs`` of
    shape (m,) and an exponent matrix ``exponents`` of shape (m, n).

    ``Expr(coeffs, exponents, n)`` checks the arrays' type and shapes
    (``TypeError`` unless both are float64 numpy arrays, ``ValueError``
    unless ``coeffs`` is 1-D and ``exponents`` has shape (len(coeffs), n)),
    then canonicalizes their rows, as :meth:`make` does for values.  The
    result's arrays are read-only; when they are the ones passed in, the
    caller must not write to the memory they view afterwards.
    """

    __slots__ = ("coeffs", "exponents", "n")

    def __new__(cls, coeffs: np.ndarray, exponents: np.ndarray, n: int):
        if not (isinstance(coeffs, np.ndarray) and isinstance(exponents, np.ndarray)
                and coeffs.dtype == _F64 and exponents.dtype == _F64):
            raise TypeError("Expr takes float64 numpy arrays")
        if coeffs.ndim != 1 or exponents.shape != (len(coeffs), n):
            raise ValueError(f"Expr needs coefficients of shape (m,) and exponents of shape "
                             f"(m, {n}), got {coeffs.shape} and {exponents.shape}")
        return _merged(coeffs, exponents, n)

    @property
    def terms(self) -> _TermView:
        """The terms as items with ``.coeff`` and ``.exponents`` (a tuple),
        built on access.  Kept only because the benchmark under
        ``perfbench/`` reads it; it goes with the benchmark change of ROADMAP
        item 5."""
        return _TermView(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.coeffs, other.coeffs)
                and np.array_equal(self.exponents, other.exponents))

    def __hash__(self):
        # Python floats hash 0.0 and -0.0 alike, as __eq__ compares them
        return hash((self.n, tuple(self.coeffs.tolist()),
                     tuple(map(tuple, self.exponents.tolist()))))

    def __repr__(self):
        return (f"Expr(coeffs={self.coeffs.tolist()!r}, "
                f"exponents={self.exponents.tolist()!r}, n={self.n!r})")

    def __reduce__(self):
        return (_wrap, (self.coeffs, self.exponents, self.n))

    @classmethod
    def zero(cls, n: int) -> "Expr":
        return _wrap(np.empty(0), np.empty((0, n)), n)

    @classmethod
    def constant(cls, c: float, n: int) -> "Expr":
        return _merged(np.array([float(c)]), np.zeros((1, n)), n)

    @classmethod
    def make(cls, pairs: Iterable[tuple[float, Sequence[float]]], n: int) -> "Expr":
        pairs = list(pairs)
        coeffs = np.array([c for c, _ in pairs], dtype=np.float64)
        try:
            exps = np.array([tuple(e) for _, e in pairs],
                            dtype=np.float64).reshape(len(pairs), n)
        except ValueError:
            raise ValueError("exponent vector length must match the context") from None
        return _merged(coeffs, exps, n)

    def take(self, keep: np.ndarray) -> "Expr":
        """The terms where the boolean mask ``keep`` is true, in order."""
        return _wrap(self.coeffs[keep], self.exponents[keep], self.n)

    def _check(self, other: "Expr"):
        if self.n != other.n:
            raise ValueError("expressions live over different contexts")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Expr.constant(float(other), self.n)
        if not isinstance(other, Expr):
            return NotImplemented
        self._check(other)
        if not len(other.coeffs):
            return self
        if not len(self.coeffs):
            return other
        coeffs = np.concatenate((self.coeffs, other.coeffs))
        exps = np.concatenate((self.exponents, other.exponents))
        if len(coeffs) > _SMALL_MERGE:
            return _wrap(*_merge_runs(coeffs, exps, len(self.coeffs)), self.n)
        return _merged(coeffs, exps, self.n)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(-self.coeffs, self.exponents, self.n)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Expr.constant(float(other), self.n)
        if not isinstance(other, Expr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            coeffs = self.coeffs * float(other)
            # scaling keeps keys and order; only the drop can change
            if not np.isfinite(coeffs).all():
                raise ValueError("term coefficient must be finite")
            keep = np.abs(coeffs) >= COEFF_DROP
            return _wrap(coeffs[keep], self.exponents[keep], self.n)
        if not isinstance(other, Expr):
            return NotImplemented
        self._check(other)
        # row-major: every term of self times every term of other, in turn
        coeffs = np.multiply.outer(self.coeffs, other.coeffs).ravel()
        exps = (self.exponents[:, None, :] + other.exponents[None, :, :]).reshape(-1, self.n)
        return _merged(coeffs, exps, self.n)

    __rmul__ = __mul__

    def pow(self, power: float) -> "Expr":
        """Raise to a real power; closed only for whole powers or monomials."""
        k = snap_int(power)
        if k is not None and k >= 0:
            out = Expr.constant(1.0, self.n)
            for _ in range(k):
                out = out * self
            return out
        if len(self.coeffs) == 1:
            c = float(self.coeffs[0])
            exps = self.exponents * power
            if k is not None:
                coeff = c ** k
            elif c <= 0.0:
                raise UnsupportedError(
                    "fractional power of a monomial needs a positive coefficient"
                )
            else:
                coeff = c ** power
            return _merged(np.array([coeff]), exps, self.n)
        raise UnsupportedError(
            "fractional powers are only defined for single-term power products"
        )


def _merge_one(coeffs: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical merge of a single term: snap and drop, nothing to sort."""
    (c,), (row,) = coeffs.tolist(), exponents.tolist()
    if not (math.isfinite(c) and math.isfinite(sum(row))):
        _check_finite(coeffs, exponents)
    if abs(c) < COEFF_DROP:
        return coeffs[:0], exponents[:0]
    for p in row:
        # only a small nonzero or a -0.0 snaps to something else than itself
        if abs(p) <= EXP_TOL and (p or math.copysign(1.0, p) < 0):
            return coeffs, np.array([[0.0 if abs(p) <= EXP_TOL else p for p in row]])
    return coeffs, exponents


def _merge_loop(coeffs: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical merge as a dict loop, for a few terms."""
    cs, rows = coeffs.tolist(), exponents.tolist()
    if not (math.isfinite(sum(cs)) and math.isfinite(sum(map(sum, rows)))):
        _check_finite(coeffs, exponents)  # else only the sum overflowed
    buckets: dict[tuple[float, ...], list] = {}
    for c, row in zip(cs, rows):
        exps = tuple([0.0 if abs(p) <= EXP_TOL else p for p in row])
        bucket = tuple(map(key, exps))
        slot = buckets.get(bucket)
        if slot is None:
            buckets[bucket] = [exps, c]
        else:
            # keep, per coordinate, whichever exponent sits closer to the key
            slot[0] = tuple(
                p if abs(p - k) <= abs(old - k) else old
                for old, p, k in zip(slot[0], exps, bucket)
            )
            slot[1] += c
    kept = [slot for _, slot in sorted(buckets.items()) if abs(slot[1]) >= COEFF_DROP]
    out_c = [c for _, c in kept]
    if not math.isfinite(sum(out_c)) and not all(map(math.isfinite, out_c)):
        raise ValueError("term coefficient must be finite")
    return (np.array(out_c, dtype=np.float64),
            np.array([e for e, _ in kept], dtype=np.float64).reshape(len(kept), exponents.shape[1]))


def _merge_arrays(coeffs: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical merge, vectorized: the same doubles as :func:`_merge_loop`."""
    _check_finite(coeffs, exponents)
    m, n = exponents.shape
    snapped = np.where(np.abs(exponents) <= EXP_TOL, 0.0, exponents)
    ks = keys(snapped)
    order = np.lexsort(ks.T[::-1])  # stable: input order within a key
    ks, snapped = ks[order], snapped[order]
    first = np.empty(m, dtype=bool)
    first[:1] = True
    np.any(ks[1:] != ks[:-1], axis=1, out=first[1:])
    if first.all():
        out_c, out_e = coeffs[order], snapped
    else:
        group = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        in_group = np.empty(m, dtype=np.intp)
        in_group[order] = group
        # bincount adds the weights one by one in input order: the left fold
        out_c = np.bincount(in_group, weights=coeffs, minlength=len(starts))
        dist = np.abs(snapped - ks)
        closest = dist == np.minimum.reduceat(dist, starts, axis=0)[group]
        last = np.maximum.reduceat(np.where(closest, np.arange(m)[:, None], -1), starts, axis=0)
        out_e = snapped[last, np.arange(n)]
    keep = np.abs(out_c) >= COEFF_DROP
    out_c = out_c[keep]
    if not np.isfinite(out_c).all():
        raise ValueError("term coefficient must be finite")
    return out_c, out_e[keep]


def _sort_rows(ks: np.ndarray) -> np.ndarray:
    """The stable lexicographic order of the key rows ``ks``."""
    return np.lexsort(ks.T[::-1])


def _merge_runs(coeffs: np.ndarray, exponents: np.ndarray,
                m: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical merge of the rows of two canonical expressions, the
    first one's ``m`` rows before the second one's: the same doubles, and the
    same error, as :func:`_merge_arrays` on them.

    Canonical rows are finite and snapped, so neither is checked again, and
    each expression holds a key at most once.  A group is therefore a row of
    the first expression paired with the row of the second that has its key.
    When both expressions have m rows and their keys agree row by row, they
    are aligned: row i pairs with row m + i, the pair the stable sort would
    form, and nothing is sorted.  Otherwise the pairs are the neighbours
    with equal keys after the stable sort (:func:`_sort_rows`).  Each pair's
    coefficient is ``c_a + c_b``, the left fold, and per coordinate it keeps
    the second row's exponent when that sits at least as close to the key,
    the last-closest rule.
    """
    ks = keys(exponents)
    if 2 * m == len(coeffs) and (ks[:m] == ks[m:]).all():
        first, second = slice(0, m), slice(m, None)
    else:
        order = _sort_rows(ks)
        ks, coeffs, exponents = ks[order], coeffs[order], exponents[order]
        first = np.flatnonzero((ks[1:] == ks[:-1]).all(axis=1))
        second = first + 1
    with np.errstate(over="ignore"):  # an overflow raises below, as in the general merge
        coeffs[first] += coeffs[second]
    k, ea, eb = ks[first], exponents[first], exponents[second]
    exponents[first] = np.where(np.abs(eb - k) <= np.abs(ea - k), eb, ea)
    keep = np.abs(coeffs) >= COEFF_DROP
    keep[second] = False
    coeffs = coeffs[keep]
    if not np.isfinite(coeffs).all():
        raise ValueError("term coefficient must be finite")
    return coeffs, exponents[keep]


def canonicalize(e: Expr) -> Expr:
    """``e`` itself, as every :class:`Expr` is canonical.  Kept only because
    the benchmark under ``perfbench/`` traces it by name; it goes with the
    benchmark change of ROADMAP item 5."""
    return e


def _wrap(coeffs: np.ndarray, exponents: np.ndarray, n: int) -> Expr:
    """The :class:`Expr` of two arrays that are already canonical, made
    read-only and not checked: the constructor of this module's merges and
    fast paths, imported by no other module."""
    e = object.__new__(Expr)
    coeffs.setflags(write=False)
    exponents.setflags(write=False)
    e.coeffs, e.exponents, e.n = coeffs, exponents, n
    return e


def _merged(coeffs: np.ndarray, exponents: np.ndarray, n: int) -> Expr:
    """The canonical expression of the terms held in two arrays (the arrays
    are frozen if the merge returns them)."""
    m = len(coeffs)
    if m == 1:
        merge = _merge_one
    else:
        merge = _merge_loop if m <= _SMALL_MERGE else _merge_arrays
    return _wrap(*merge(coeffs, exponents), n)


def is_zero(e: Expr) -> bool:
    return not len(e.coeffs)


def exprs_close(e1: Expr, e2: Expr, tol: float = COEFF_DROP) -> bool:
    """True when e1 - e2 holds no coefficient above ``tol``."""
    return bool((np.abs((e1 - e2).coeffs) <= tol).all())


def max_abs_coeff(e: Expr) -> float:
    return float(np.abs(e.coeffs).max()) if len(e.coeffs) else 0.0


def monomial(ctx: Context, coeff: float, powers: dict[int | str, float] | None = None) -> Expr:
    """Convenience builder: coeff * prod (x_i - a_i)^(p_i)."""
    exps = [0.0] * ctx.n
    for coord, p in (powers or {}).items():
        exps[ctx.index(coord)] = float(p)
    return Expr.make([(coeff, exps)], ctx.n)


# --- text front end -------------------------------------------------------

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_SIGNED = rf"[-+]?\s*{_NUM}"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_FACTOR = rf"{_NAME}(?:\s*\^\s*{_SIGNED})?"
_DIFF = rf"d\s*\(\s*{_NAME}\s*,\s*{_SIGNED}\s*\)"
# error path only, compiled on first use: a differential cut short, and one
# token at a time with group 1 the first character no token starts with
_DIFF_HEAD = rf"d\s*\(\s*({_NAME})?"
_TOKEN = rf"\s*(?:{_NUM}|{_NAME}|[-+*^(),&]|(\S))"


def _term_re(form: bool) -> re.Pattern:
    """One whole term and the sign after it.  A form term may start with its
    wedge, so there ``d(`` does not start a coefficient factor."""
    lead = r"(?!d\s*\()" if form else ""
    wedge = rf"\s*{_DIFF}(?:\s*&\s*{_DIFF})*(?:\s*&)?" if form else ""
    return re.compile(
        rf"\s*(?P<body>(?:(?P<coef>{_SIGNED})(?P<facs>(?:\s*\*\s*{_FACTOR})*)"
        rf"|{lead}(?P<lead>{_FACTOR}(?:\s*\*\s*{_FACTOR})*))?"
        rf"(?P<wedge>(?:{wedge})?))\s*(?P<sep>[-+])?")


@functools.cache
def _expr_patterns() -> re.Pattern:
    """The expression-term pattern, compiled when a text is first read, so
    importing the package compiles no pattern."""
    return _term_re(False)


@functools.cache
def _form_patterns() -> re.Pattern:
    """The form-term pattern, compiled when a text is first read as a form
    (a form literal, or coordinate inference on any input), so a process
    that reads only expressions never compiles it."""
    return _term_re(True)


def _number(text: str) -> float:
    """A signed number as written; whitespace may follow the sign."""
    return -float(text[1:]) if text[0] == "-" else float(text.lstrip("+"))


def scan_terms(text: str, index: Callable[[str], int], n: int,
               differential: Callable[[int, float], object] | None = None
               ) -> tuple[list[float], list[list[float]], list[tuple]]:
    """Read an expression or, given ``differential``, a form literal.

    The one reader of the text grammar.  It returns three lists with one
    entry per term, in text order: the coefficients, the dense exponent rows
    of length ``n`` (``index`` maps a coordinate name to its column) and the
    differentials as a tuple, each built as ``differential(index(coord),
    order)`` (empty for an expression).  Terms whose wedges are the same text
    share one tuple.

    One regular-expression match per term validates the text.  The factor
    run and the wedge it matched are then cut at ``*`` and ``&``, and each
    distinct factor text (``x2^0.75``) and wedge text is read once per call.

    Errors come in the order of the text: a :class:`ParseError` where the
    text leaves the grammar, or whatever ``index`` or ``differential`` raise
    on an earlier factor.  A character no token starts with is reported
    before anything else.
    """
    form = differential is not None
    term_re = _form_patterns() if form else _expr_patterns()
    coeffs, rows, diffs = [], [], []
    # factor and wedge texts repeat across terms: each distinct text, as
    # written, is read once
    factors: dict[str, tuple[int, float]] = {}
    wedges: dict[str, tuple] = {"": ()}
    pos, sign = 0, 1.0
    try:
        while True:
            m = term_re.match(text, pos)
            body, coef, facs, lead, wedge, sep = m.group(
                "body", "coef", "facs", "lead", "wedge", "sep")
            if not body:
                break
            # the pattern validated the run: "*" only separates factors
            run = facs.split("*")[1:] if coef else lead.split("*") if lead else ()
            row = [0.0] * n
            for f in run:
                read = factors.get(f)
                if read is None:  # an unknown name raises here, at its first use
                    name, caret, p = f.partition("^")
                    read = factors[f] = (index(name.strip()), _number(p.strip()) if caret else 1.0)
                row[read[0]] += read[1]
            coeffs.append(sign * _number(coef) if coef else sign)
            rows.append(row)
            ws = wedges.get(wedge)
            if ws is None:  # "&" only joins differentials; a dangling one is ignored
                ws = wedges[wedge] = tuple([_differential(d, index, differential)
                                            for d in wedge.split("&") if d.strip()])
            diffs.append(ws)
            if sep is None:
                if m.end() == len(text):
                    return coeffs, rows, diffs
                break
            sign = -1.0 if sep == "-" else 1.0
            pos = m.end()
        # reading stopped at j, inside the text
        j = m.end() if body else m.start("body")
        head = form and not wedge.endswith(")") and re.compile(_DIFF_HEAD).match(text, j)
        if head:  # a differential cut short names an unknown coordinate first
            if head.group(1):
                index(head.group(1))
            raise ParseError("expected d(coordinate, order)", j)
        if not body:
            raise ParseError(f"expected a term, found {text[j:j + 1] or 'end of input'!r}", j)
        if text[j] == "*" or (text[j] == "^" and run and "^" not in run[-1] and not wedge):
            what = "a coordinate" if text[j] == "*" else "a number"
            raise ParseError(f"expected {what} after {text[j]!r}", j)
        if differential is None:  # an overflow in the terms read outranks trailing input
            Expr.make(zip(coeffs, rows), n)
        raise ParseError(f"trailing input {text[j:]!r}", j)
    except (ParseError, ValueError):
        for tok in re.finditer(_TOKEN, text):
            if tok.group(1):
                raise ParseError(f"unexpected character {tok.group(1)!r}", tok.start()) from None
        raise


def _differential(d: str, index: Callable[[str], int],
                  differential: Callable[[int, float], object]) -> object:
    """What the validated text ``d(coord, order)`` in ``d`` reads as."""
    name, _, order = d.partition("(")[2].rpartition(")")[0].partition(",")
    return differential(index(name.strip()), _number(order.strip()))


def parse_expr(text: str, ctx: Context) -> Expr:
    coeffs, rows, _ = scan_terms(text, ctx.index, ctx.n)
    return Expr.make(zip(coeffs, rows), ctx.n)


def term_text(coeff: float, exps: Sequence[float], ctx: Context, digits: int | None = None,
              first: bool = True, word: str = "") -> str:
    """One term in the input grammar, with its sign and an optional wedge
    ``word``: " - 2*x^3 d(x,0.5)".  A leading minus needs a number after it,
    and a coordinate stands bare only when its exponent prints as 1."""
    powers = [(name, fmt_number(p, digits)) for name, p in zip(ctx.names, exps) if p != 0.0]
    facs = [name if power == "1" else f"{name}^{power}" for name, power in powers]
    mag = abs(coeff)
    if mag != 1.0 or (first and coeff < 0) or not (facs or word):
        facs.insert(0, fmt_number(mag, digits))
    body = " ".join(filter(None, ("*".join(facs), word)))
    if first:
        return "-" + body if coeff < 0 else body
    return (" - " if coeff < 0 else " + ") + body


def print_expr(e: Expr, ctx: Context, digits: int | None = None) -> str:
    """Render in the input grammar; parse(print(e)) == e."""
    if not len(e.coeffs):
        return "0"
    return "".join(term_text(c, exps, ctx, digits, i == 0)
                   for i, (c, exps) in enumerate(zip(e.coeffs.tolist(), e.exponents.tolist())))


# --- evaluation and classical calculus -------------------------------------

def term_values(e: Expr, ctx: Context, point: Sequence[float]) -> list[float]:
    """Value of each term of ``e`` at the float coordinates ``point``, in
    term order.

    The one evaluator of power products on the symbolic path.  An exponent
    within ``EXP_TOL`` of a whole number is taken as that whole power, so a
    negative base is allowed under it.  A non-integer power of a
    non-positive base, or a zero base under a negative exponent, raises
    :class:`EvalDomainError`.  Array evaluation, where such entries become
    nan for the quadrature to police, is the oracle's
    :func:`fracforms.oracle.expr_evaluable`.
    """
    a = ctx.initial_points
    vals = []
    for c, row in zip(e.coeffs.tolist(), e.exponents.tolist()):
        v = c
        for i, p in enumerate(row):
            if p == 0.0:
                continue
            k = snap_int(p)
            base = float(point[i]) - a[i]
            if base == 0.0 and p < 0:
                raise EvalDomainError(
                    f"({ctx.names[i]} - a) is zero under a negative exponent"
                )
            if k is None and base <= 0.0:
                raise EvalDomainError(
                    f"({ctx.names[i]} - a) = {base} is not positive under exponent {p}"
                )
            v = v * base ** (p if k is None else k)
        vals.append(v)
    return vals


def eval_expr(e: Expr, ctx: Context, point: Sequence[float]) -> float:
    """Evaluate at a point; bases (x_i - a_i) must be positive wherever a
    non-integer exponent touches them."""
    if len(point) != ctx.n or e.n != ctx.n:
        raise ValueError("point length must match the context")
    return math.fsum(term_values(e, ctx, point))


def classical_derivative(e: Expr, coord: int, order: int = 1) -> Expr:
    """Whole-order partial derivative by the power rule.

    A term dies exactly when its exponent hits a whole number below ``order``
    (the factor chain reaches zero); near-integer exponents are snapped so
    float dust cannot keep a dead term alive.  Past the largest exponent no
    step kills a term, so the loop stops, checking every 64 steps, once every
    live coefficient has overflowed: the outcome is then decided (no term
    left, or the overflow error), and any order returns in bounded time.
    """
    if order < 0 or order != int(order):
        raise ValueError("classical derivative order must be a whole number >= 0")
    p = e.exponents[:, coord]
    coeffs = e.coeffs
    alive = np.ones(len(p), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # dead terms may overflow
        for step in range(int(order)):
            f = p - step
            alive &= ~(np.abs(f) <= EXP_TOL)
            coeffs = coeffs * f
            if step & 63 == 63 and step > p.max(initial=0.0) and np.isinf(coeffs[alive]).all():
                break
    if not alive.all():
        e, coeffs = e.take(alive), coeffs[alive]
    return shift_column(e, coord, -float(order), coeffs)


def restrict_at_initial(e: Expr, coord: int, ctx: Context) -> Expr:
    """Evaluate the ``coord`` factor at its initial point, keeping the rest.

    Positive exponents vanish, zero exponents drop out, and a negative
    exponent is a non-removable singularity.
    """
    p = e.exponents[:, coord]
    zero = p == 0.0  # canonical exponents within EXP_TOL of 0 are 0
    singular = ~zero & ~(p > 0)
    if singular.any():
        raise BoundarySingularityError(
            f"exponent {float(p[np.argmax(singular)])} on {ctx.names[coord]} is singular "
            "at the initial point"
        )
    return e.take(zero)


def shift_exponent(e: Expr, coord: int, delta: float) -> Expr:
    """Multiply by (x_coord - a_coord)^delta (exponent shift on every term)."""
    return shift_column(e, coord, delta, e.coeffs)


def shift_column(e: Expr, coord: int, delta: float, coeffs: np.ndarray,
                 values: list[float] | None = None) -> Expr:
    """``e`` with ``delta`` added to every exponent in column ``coord`` and
    the coefficients replaced by ``coeffs``, canonicalized.

    ``values``, when given, are the distinct exponents of that column in
    ascending order, from a caller that already has them.  The shifted
    arrays are canonical as they are, and no merge runs, if every new
    coefficient is finite and not below ``COEFF_DROP`` in magnitude and
    :func:`_shift_keeps_keys` holds for the column.  A single term is
    merged, which costs less than the check.
    """
    exps = e.exponents.copy()
    exps[:, coord] += delta
    if len(coeffs) > 1:
        mags = np.abs(coeffs)
        if mags.min() >= COEFF_DROP and mags.max() < math.inf:
            if values is None:
                values = sorted(set(e.exponents[:, coord].tolist()))
            if _shift_keeps_keys(values, delta):
                return _wrap(coeffs, exps, e.n)
    return _merged(coeffs, exps, e.n)


def _shift_keeps_keys(values: list[float], delta: float) -> bool:
    """Does adding ``delta`` to the distinct ascending exponents ``values``
    keep them finite, snap none of them, and keep every equality and every
    strict inequality between the merge keys of neighbouring values?

    Keys are monotone in p, so neighbours suffice.  Then the rows of an
    expression keep distinct keys in the same lexicographic order
    after the shift, and the merge would return them unchanged.
    """
    delta = float(delta)  # Python floats, which key rounds fastest
    new = [p + delta for p in values]
    if not math.isfinite(sum(new)):  # also when only the sum overflows
        return False
    if any(0.0 < abs(p) <= EXP_TOL for p in new):  # would snap to 0
        return False
    old_keys = list(map(key, values))
    new_keys = list(map(key, new))
    for a, b, c, d in zip(old_keys, old_keys[1:], new_keys, new_keys[1:]):
        if a != b and c == d:  # two keys would merge into one
            return False
        if a == b and c != d:  # one key would split, reordering its rows
            return False
    return True


def degree_in(e: Expr, coord: int) -> float:
    return max(e.exponents[:, coord].tolist(), default=0.0)


def is_polynomial_in(e: Expr, coord: int) -> bool:
    for p in e.exponents[:, coord].tolist():
        k = snap_int(p)
        if k is None or k < 0:
            return False
    return True
