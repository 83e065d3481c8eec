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
expression reads a whole term.

An :class:`Expr` over n coordinates holds its m terms as two read-only
float64 arrays: the coefficient vector ``coeffs`` of shape (m,) and the
exponent matrix ``exponents`` of shape (m, n).  The operators work on those
arrays directly; ``Expr.terms``, the tuple of :class:`PowerTerm` objects, is a
view built on first use.

Canonicalization snaps exponents within 1e-9 of 0 to 0, merges terms whose
exponent vectors round to the same key ``round(p, 9)`` in every coordinate,
drops coefficients below 1e-12 in magnitude, and sorts terms
lexicographically by key, so equal expressions have identical
representations.  A merged coefficient is the left fold of the merged terms'
coefficients in input order (first + second + ...), and each merged exponent
is, per coordinate, the last one in input order among those closest to the
key.  The result does not depend on how the merge is carried out: the
vectorized merge used for larger expressions and the loop used for small ones
give the same doubles.  A canonical expression carries a mark, so
canonicalizing it again returns the same object.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
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

EXP_TOL = 1e-9      # exponent merge / snap tolerance
COEFF_DROP = 1e-12  # coefficients strictly below this are dropped

# Up to this many terms canonicalize merges in a dict loop; above it, with
# lexsort and bincount.  Both give the same doubles (a property test checks
# them against one reference).  The cut is the measured crossover: on a 2-vCPU
# Xeon with numpy 2.4 the loop is faster up to 12 terms and the vectorized
# merge from about 14, and chart algebra lives on 1-3 term expressions.
_SMALL_MERGE = 12


def fmt_number(x: float, digits: int | None = None) -> str:
    """Format a double so the grammar can read it back.

    With ``digits`` set this is a display format (CLI uses 10 significant
    digits); without it the shortest exact representation is used, in
    positional notation.
    """
    if digits is not None:
        return f"{x:.{digits}g}"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    r = repr(float(x))
    if "e" in r or "E" in r:
        return format(Decimal(r), "f")
    return r


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

    def at_origin(self) -> bool:
        return all(a == 0.0 for a in self.initial_points)


@dataclass(frozen=True)
class PowerTerm:
    """One term c * prod_i (x_i - a_i)^(p_i); exponents are dense over the context."""

    coeff: float
    exponents: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "exponents", tuple(float(p) for p in self.exponents))
        if not math.isfinite(self.coeff):
            raise ValueError("term coefficient must be finite")
        for p in self.exponents:
            if not math.isfinite(p):
                raise ValueError("term exponent must be finite")

    def key(self) -> tuple[float, ...]:
        return tuple(round(p, 9) for p in self.exponents)


def _check_finite(coeffs: np.ndarray, exponents: np.ndarray) -> None:
    """Raise as :class:`PowerTerm` would for the first term holding a
    non-finite coefficient or exponent."""
    ok_c = np.isfinite(coeffs)
    ok = ok_c & np.isfinite(exponents).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError("term exponent must be finite" if ok_c[i]
                         else "term coefficient must be finite")


def _fill(e, coeffs, exponents, n, canonical, terms):
    e.coeffs = coeffs
    e.exponents = exponents
    e.n = n
    e._canonical = canonical
    e._terms = terms
    return e


class Expr:
    """Finite sum of power products as a coefficient vector and an exponent
    matrix, both read-only.  Build via the helpers below; ``Expr(terms, n)``
    takes a tuple of :class:`PowerTerm` and leaves it uncanonicalized."""

    __slots__ = ("coeffs", "exponents", "n", "_canonical", "_terms")

    def __init__(self, terms: Iterable[PowerTerm], n: int):
        terms = tuple(terms)
        try:
            exps = np.array([t.exponents for t in terms], dtype=np.float64).reshape(len(terms), n)
        except ValueError:
            raise ValueError("exponent vector length must match the context") from None
        coeffs = np.array([t.coeff for t in terms], dtype=np.float64)
        coeffs.setflags(write=False)
        exps.setflags(write=False)
        _fill(self, coeffs, exps, n, False, terms)

    @classmethod
    def _of(cls, coeffs: np.ndarray, exponents: np.ndarray, n: int,
            canonical: bool = False) -> "Expr":
        """Wrap arrays as an expression and make them read-only."""
        coeffs.setflags(write=False)
        exponents.setflags(write=False)
        return _fill(object.__new__(cls), coeffs, exponents, n, canonical, None)

    @classmethod
    def _draft(cls, coeffs: np.ndarray, exponents: np.ndarray, n: int) -> "Expr":
        """Wrap arrays without freezing them, for a result handed straight to
        :func:`canonicalize`, which checks its values and freezes its output."""
        return _fill(object.__new__(cls), coeffs, exponents, n, False, None)

    @property
    def terms(self) -> tuple[PowerTerm, ...]:
        """The terms as :class:`PowerTerm` objects (built once, on first use)."""
        if self._terms is None:
            out = []
            for c, exps in zip(self.coeffs.tolist(), map(tuple, self.exponents.tolist())):
                t = object.__new__(PowerTerm)  # the values are finite floats already
                d = t.__dict__
                d["coeff"] = c
                d["exponents"] = exps
                out.append(t)
            self._terms = tuple(out)
        return self._terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.coeffs, other.coeffs)
                and np.array_equal(self.exponents, other.exponents))

    def __hash__(self):
        return hash((self.terms, self.n))

    def __repr__(self):
        return f"Expr(terms={self.terms!r}, n={self.n!r})"

    def __reduce__(self):
        return (Expr, (self.terms, self.n))

    @classmethod
    def zero(cls, n: int) -> "Expr":
        return cls._of(np.empty(0), np.empty((0, n)), n, canonical=True)

    @classmethod
    def constant(cls, c: float, n: int) -> "Expr":
        c = float(c)
        if not math.isfinite(c):
            raise ValueError("term coefficient must be finite")
        if abs(c) < COEFF_DROP:
            return cls.zero(n)
        return cls._of(np.array([c]), np.zeros((1, n)), n, canonical=True)

    @classmethod
    def make(cls, pairs: Iterable[tuple[float, Sequence[float]]], n: int) -> "Expr":
        pairs = list(pairs)
        coeffs = np.array([c for c, _ in pairs], dtype=np.float64)
        try:
            exps = np.array([tuple(e) for _, e in pairs],
                            dtype=np.float64).reshape(len(pairs), n)
        except ValueError:
            raise ValueError("exponent vector length must match the context") from None
        return canonicalize(cls._draft(coeffs, exps, n))

    def take(self, keep: np.ndarray) -> "Expr":
        """The terms where the boolean mask ``keep`` is true, in order; a
        subset of a canonical expression is canonical."""
        return Expr._of(self.coeffs[keep], self.exponents[keep], self.n, self._canonical)

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
            return canonicalize(self)
        if not len(self.coeffs):
            return canonicalize(other)
        return canonicalize(Expr._draft(np.concatenate((self.coeffs, other.coeffs)),
                                       np.concatenate((self.exponents, other.exponents)),
                                       self.n))

    __radd__ = __add__

    def __neg__(self):
        return Expr._of(-self.coeffs, self.exponents, self.n, self._canonical)

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
            if self._canonical:
                # scaling keeps keys and order; only the drop can change
                if not np.isfinite(coeffs).all():
                    raise ValueError("term coefficient must be finite")
                keep = np.abs(coeffs) >= COEFF_DROP
                return Expr._of(coeffs[keep], self.exponents[keep], self.n, True)
            return canonicalize(Expr._draft(coeffs, self.exponents, self.n))
        if not isinstance(other, Expr):
            return NotImplemented
        self._check(other)
        # row-major: every term of self times every term of other, in turn
        coeffs = np.multiply.outer(self.coeffs, other.coeffs).ravel()
        exps = (self.exponents[:, None, :] + other.exponents[None, :, :]).reshape(-1, self.n)
        return canonicalize(Expr._draft(coeffs, exps, self.n))

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
            return canonicalize(Expr._draft(np.array([coeff]), exps, self.n))
        raise UnsupportedError(
            "fractional powers are only defined for single-term power products"
        )


def _round9(p: np.ndarray) -> np.ndarray:
    """Elementwise ``round(p, 9)``, the same doubles as Python's round.

    ``rint(p*1e9)/1e9`` is Python's answer whenever the rounded product sits
    clearly off a half-integer and is small enough for exact integers; the
    few entries where that is not certain go through Python's round.
    """
    y = p * 1e9
    keys = np.rint(y) / 1e9
    doubt = (np.abs(p) >= 2.0 ** 20) | (np.abs(y - np.floor(y) - 0.5) <= np.abs(y) * 2.0 ** -52)
    if doubt.any():
        keys[doubt] = [round(v, 9) for v in p[doubt].tolist()]
    return keys


def _merge_one(coeffs: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical merge of a single term: snap and drop, nothing to sort."""
    c = float(coeffs[0])
    row = exponents[0].tolist()
    if not (math.isfinite(c) and math.isfinite(sum(row))):
        _check_finite(coeffs, exponents)
    if abs(c) < COEFF_DROP:
        return coeffs[:0], exponents[:0]
    if min(map(abs, row)) > EXP_TOL:
        return coeffs, exponents
    return coeffs, np.array([[0.0 if abs(p) <= EXP_TOL else p for p in row]])


def _merge_loop(coeffs: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical merge as a dict loop, for a few terms."""
    cs, rows = coeffs.tolist(), exponents.tolist()
    if not (math.isfinite(sum(cs)) and math.isfinite(sum(map(sum, rows)))):
        _check_finite(coeffs, exponents)  # else only the sum overflowed
    buckets: dict[tuple[float, ...], list] = {}
    for c, row in zip(cs, rows):
        exps = tuple([0.0 if abs(p) <= EXP_TOL else p for p in row])
        key = tuple([round(p, 9) if p else 0.0 for p in exps])
        slot = buckets.get(key)
        if slot is None:
            buckets[key] = [exps, c]
        else:
            # keep, per coordinate, whichever exponent sits closer to the key
            slot[0] = tuple(
                p if abs(p - k) <= abs(old - k) else old
                for old, p, k in zip(slot[0], exps, key)
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
    keys = _round9(snapped)
    order = np.lexsort(keys.T[::-1])  # stable: input order within a key
    keys, snapped = keys[order], snapped[order]
    first = np.empty(m, dtype=bool)
    first[:1] = True
    np.any(keys[1:] != keys[:-1], axis=1, out=first[1:])
    if first.all():
        out_c, out_e = coeffs[order], snapped
    else:
        group = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        in_group = np.empty(m, dtype=np.intp)
        in_group[order] = group
        # bincount adds the weights one by one in input order: the left fold
        out_c = np.bincount(in_group, weights=coeffs, minlength=len(starts))
        dist = np.abs(snapped - keys)
        closest = dist == np.minimum.reduceat(dist, starts, axis=0)[group]
        last = np.maximum.reduceat(np.where(closest, np.arange(m)[:, None], -1), starts, axis=0)
        out_e = snapped[last, np.arange(n)]
    keep = np.abs(out_c) >= COEFF_DROP
    out_c = out_c[keep]
    if not np.isfinite(out_c).all():
        raise ValueError("term coefficient must be finite")
    return out_c, out_e[keep]


def canonicalize(e: Expr) -> Expr:
    """Merge like terms, drop negligible ones, sort; idempotent.

    Raises ``ValueError`` as :class:`PowerTerm` does when a coefficient or
    exponent, or a merged coefficient, is not finite.
    """
    if e._canonical:
        return e
    m = len(e.coeffs)
    if m == 1:
        merge = _merge_one
    else:
        merge = _merge_loop if m <= _SMALL_MERGE else _merge_arrays
    coeffs, exps = merge(e.coeffs, e.exponents)
    return Expr._of(coeffs, exps, e.n, canonical=True)


def is_zero(e: Expr) -> bool:
    return not len(canonicalize(e).coeffs)


def exprs_close(e1: Expr, e2: Expr, tol: float = COEFF_DROP) -> bool:
    """True when e1 - e2 canonicalizes to nothing above ``tol``."""
    diff = canonicalize(e1 - e2)
    return bool((np.abs(diff.coeffs) <= tol).all())


def max_abs_coeff(e: Expr) -> float:
    coeffs = canonicalize(e).coeffs
    return float(np.abs(coeffs).max()) if len(coeffs) else 0.0


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
_FACTOR = rf"({_NAME})(?:\s*\^\s*({_SIGNED}))?"
_DIFF = rf"d\s*\(\s*({_NAME})\s*,\s*({_SIGNED})\s*\)"
_FACTOR_RE = re.compile(_FACTOR)
_DIFF_RE = re.compile(_DIFF)
# error path only, compiled on first use: the start of a differential, and
# one token at a time with group 1 the first character no token starts with
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


_EXPR_TERM = _term_re(False)
_FORM_TERM = _term_re(True)


def _number(text: str) -> float:
    """A signed number as written; whitespace may follow the sign."""
    return -float(text[1:]) if text[0] == "-" else float(text.lstrip("+"))


def _expr_of(coeffs: list, rows: list, n: int) -> Expr:
    return canonicalize(Expr._draft(np.array(coeffs, dtype=np.float64),
                                    np.array(rows, dtype=np.float64).reshape(len(rows), n), n))


def scan_terms(text: str, index: Callable[[str], int], n: int,
               differential: Callable[[int, float], object] | None = None
               ) -> tuple[list[float], list[list[float]], list[list]]:
    """Read an expression or, given ``differential``, a form literal.

    The one reader of the text grammar.  It returns three lists with one
    entry per term, in text order: the coefficients, the dense exponent rows
    of length ``n`` (``index`` maps a coordinate name to its column) and the
    differentials, each built as ``differential(index(coord), order)`` (empty
    for an expression).

    Errors come in the order of the text: a :class:`ParseError` where the
    text leaves the grammar, or whatever ``index`` or ``differential`` raise
    on an earlier factor.  A character no token starts with is reported
    before anything else.
    """
    term_re = _EXPR_TERM if differential is None else _FORM_TERM
    coeffs, rows, diffs = [], [], []
    pos, sign = 0, 1.0
    try:
        while True:
            m = term_re.match(text, pos)
            body, coef, wedge, sep = m.group("body", "coef", "wedge", "sep")
            if not body:
                break
            row = [0.0] * n
            factors = _FACTOR_RE.findall(m.group("facs") or m.group("lead") or "")
            for name, p in factors:
                row[index(name)] += _number(p) if p else 1.0
            coeffs.append(sign * _number(coef) if coef else sign)
            rows.append(row)
            diffs.append([differential(index(name), _number(order))
                          for name, order in _DIFF_RE.findall(wedge)] if wedge else [])
            if sep is None:
                if m.end() == len(text):
                    return coeffs, rows, diffs
                break
            sign = -1.0 if sep == "-" else 1.0
            pos = m.end()
        # reading stopped at j, inside the text
        j = m.end() if body else m.start("body")
        head = (differential is not None and not wedge.endswith(")")
                and re.compile(_DIFF_HEAD).match(text, j))
        if head:  # a differential cut short names an unknown coordinate first
            if head.group(1):
                index(head.group(1))
            raise ParseError("expected d(coordinate, order)", j)
        if not body:
            raise ParseError(f"expected a term, found {text[j:j + 1] or 'end of input'!r}", j)
        if text[j] == "*" or (text[j] == "^" and factors and not factors[-1][1] and not wedge):
            what = "a coordinate" if text[j] == "*" else "a number"
            raise ParseError(f"expected {what} after {text[j]!r}", j)
        if differential is None:  # an overflow in the terms read outranks trailing input
            _expr_of(coeffs, rows, n)
        raise ParseError(f"trailing input {text[j:]!r}", j)
    except (ParseError, ValueError):
        for tok in re.finditer(_TOKEN, text):
            if tok.group(1):
                raise ParseError(f"unexpected character {tok.group(1)!r}", tok.start()) from None
        raise


def parse_expr(text: str, ctx: Context) -> Expr:
    coeffs, rows, _ = scan_terms(text, ctx.index, ctx.n)
    return _expr_of(coeffs, rows, ctx.n)


def term_text(coeff: float, exps: Sequence[float], ctx: Context, digits: int | None = None,
              first: bool = True, word: str = "") -> str:
    """One term in the input grammar, with its sign and an optional wedge
    ``word``: " - 2*x^3 d(x,0.5)".  A leading minus needs a number after it."""
    facs = [ctx.names[i] if round(p, 9) == 1.0 else f"{ctx.names[i]}^{fmt_number(p, digits)}"
            for i, p in enumerate(exps) if p != 0.0]
    mag = abs(coeff)
    if mag != 1.0 or (first and coeff < 0) or not (facs or word):
        facs.insert(0, fmt_number(mag, digits))
    body = " ".join(filter(None, ("*".join(facs), word)))
    if first:
        return "-" + body if coeff < 0 else body
    return (" - " if coeff < 0 else " + ") + body


def print_expr(e: Expr, ctx: Context, digits: int | None = None) -> str:
    """Render in the input grammar; parse(print(e)) == e for canonical e."""
    e = canonicalize(e)
    if not len(e.coeffs):
        return "0"
    return "".join(term_text(c, exps, ctx, digits, i == 0)
                   for i, (c, exps) in enumerate(zip(e.coeffs.tolist(), e.exponents.tolist())))


# --- evaluation and classical calculus -------------------------------------

def term_values(e: Expr, ctx: Context, point: Sequence, strict: bool = True) -> list:
    """Value of each term of ``e`` at ``point``, in term order.

    The one evaluator of power products.  An exponent within ``POLE_TOL`` of
    a whole number is taken as that whole power, so a negative base is
    allowed under it.  With ``strict`` the coordinates are floats and a
    non-integer power of a non-positive base, or a zero base under a negative
    exponent, raises :class:`EvalDomainError`.  Otherwise the coordinates may
    be numpy arrays that broadcast together, evaluated elementwise, and such
    entries come out nan or inf (numpy warns unless the caller silences it).
    """
    a = ctx.initial_points
    vals = []
    for c, row in zip(e.coeffs.tolist(), e.exponents.tolist()):
        v = c
        for i, p in enumerate(row):
            if p == 0.0:
                continue
            k = snap_int(p)
            if strict:
                base = float(point[i]) - a[i]
                if base == 0.0 and p < 0:
                    raise EvalDomainError(
                        f"({ctx.names[i]} - a) is zero under a negative exponent"
                    )
                if k is None and base <= 0.0:
                    raise EvalDomainError(
                        f"({ctx.names[i]} - a) = {base} is not positive under exponent {p}"
                    )
            else:
                base = np.asarray(point[i], dtype=np.float64) - a[i]
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
    float dust cannot keep a dead term alive.
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
    exps = e.exponents[alive]
    exps[:, coord] = p[alive] - order
    return canonicalize(Expr._draft(coeffs[alive], exps, e.n))


def restrict_at_initial(e: Expr, coord: int, ctx: Context) -> Expr:
    """Evaluate the ``coord`` factor at its initial point, keeping the rest.

    Positive exponents vanish, zero exponents drop out, and a negative
    exponent is a non-removable singularity.
    """
    p = e.exponents[:, coord]
    zero = np.abs(p) <= EXP_TOL
    singular = ~zero & ~(p > 0)
    if singular.any():
        raise BoundarySingularityError(
            f"exponent {float(p[np.argmax(singular)])} on {ctx.names[coord]} is singular "
            "at the initial point"
        )
    exps = e.exponents[zero]
    exps[:, coord] = 0.0
    return canonicalize(Expr._draft(e.coeffs[zero], exps, e.n))


def shift_exponent(e: Expr, coord: int, delta: float) -> Expr:
    """Multiply by (x_coord - a_coord)^delta (exponent shift on every term)."""
    exps = e.exponents.copy()
    exps[:, coord] += delta
    return canonicalize(Expr._draft(e.coeffs, exps, e.n))


def degree_in(e: Expr, coord: int) -> float:
    return max(e.exponents[:, coord].tolist(), default=0.0)


def is_polynomial_in(e: Expr, coord: int) -> bool:
    for p in e.exponents[:, coord].tolist():
        k = snap_int(p)
        if k is None or k < 0:
            return False
    return True
