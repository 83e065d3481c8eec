"""Fractional differential forms over the power-product expression class.

A form of grade k is a finite sum of coefficient expressions attached to
wedge words, where each word is an ordered product of differential factors
``d(coord, order)`` with positive real order.  Words anticommute factor by
factor: swapping two adjacent factors flips the sign, a word containing two
factors with the same coordinate *and* the same order is zero, and order-0
factors are identified with the scalar unit and removed (that is the only
reading under which an order-0 exterior derivative of a scalar stays a
scalar).  Every word in one form must carry the same number of factors and
the same total order; the factor orders themselves may differ word to word.

The :class:`Form` constructor, which takes a mapping or (word, coefficient)
pairs, is the one place that sums the coefficients of equal words.  A form
owns its order: :meth:`Form.has_order` is the one test of whether an order
is the form's, that is within ``EXP_TOL`` of ``total_order``, and
closedness, exactness and chart transforms ask it rather than compare.

The text syntax of form literals is in :mod:`fracforms.symbolic`, whose
scanner reads them; a sum-valued coefficient is written by repeating the
wedge word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import ParseError
from .rl import rl_deriv
from .symbolic import (
    Context,
    Expr,
    exprs_close,
    fmt_number,
    parse_expr,
    print_expr,
    scan_terms,
    term_text,
)
from .tolerances import COEFF_DROP, EXP_TOL, key as merge_key


@dataclass(frozen=True)
class DiffFactor:
    """One differential factor d(coord, order) with order > 0, keyed once."""

    coord: int
    order: float
    key: tuple[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "order", float(self.order))
        if not -EXP_TOL <= self.order < math.inf:
            raise ValueError(f"differential order must be >= 0 and finite, got {self.order}")
        object.__setattr__(self, "key", (self.coord, merge_key(self.order)))


@dataclass(frozen=True)
class WedgeWord:
    """Factors sorted ascending by (coord, order); equality is by their keys."""

    factors: tuple[DiffFactor, ...] = field(compare=False)
    key: tuple[tuple[int, float], ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", tuple(f.key for f in self.factors))

    @property
    def grade(self) -> int:
        return len(self.factors)

    @property
    def order_sum(self) -> float:
        return sum(f.order for f in self.factors)


def canonical_word(factors: Iterable[DiffFactor]) -> tuple[int, WedgeWord | None]:
    """Sort factors, returning (permutation sign, word) or (0, None) for zero.

    Order-0 factors are dropped before sorting.  The sign is the parity of
    the sorting permutation; a repeated (coord, order) pair makes the word
    the zero word.
    """
    fs = [f for f in factors if abs(f.order) > EXP_TOL]
    keys = [f.key for f in fs]
    sign = 1
    # insertion sort, counting transpositions of adjacent factors
    for i in range(1, len(fs)):
        j = i
        while j > 0 and keys[j - 1] > keys[j]:
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(keys, keys[1:]):
        if a == b:
            return 0, None
    return sign, WedgeWord(tuple(fs))


def _same_order(order: float, total_order: float, grade: int = 1) -> bool:
    """Is ``order``, a word's order sum or an order asked of a form, the total
    order: equal to it (so an order sum that overflows to inf matches
    itself), or within ``EXP_TOL`` per factor of a grade-``grade`` word?"""
    return order == total_order or abs(order - total_order) <= EXP_TOL * max(1, grade)


class Form:
    """A uniform-grade, uniform-total-order sum of coefficient-weighted words.

    ``terms`` (a mapping or (word, coefficient) pairs) is summed here alone:
    equal words add in the order given and zero sums drop.  A grade-1 word's
    order, within ``EXP_TOL`` of the total order, is that order."""

    __slots__ = ("grade", "total_order", "terms")

    def __init__(self, grade: int, total_order: float,
                 terms: Mapping[WedgeWord, Expr] | Iterable[tuple[WedgeWord, Expr]]):
        summed: dict[WedgeWord, Expr] = {}
        for word, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if word.grade != grade:
                raise ValueError(
                    f"word of grade {word.grade} inside a grade-{grade} form"
                )
            if not _same_order(word.order_sum, total_order, grade):
                raise ValueError(
                    f"word order sum {word.order_sum} != form total order {total_order}"
                )
            if grade == 1 and word.factors[0].order != total_order:
                word = WedgeWord((DiffFactor(word.factors[0].coord, total_order),))
            summed[word] = summed[word] + coeff if word in summed else coeff
        self.grade = grade
        self.total_order = float(total_order)
        self.terms = dict(sorted(((w, c) for w, c in summed.items() if len(c.coeffs)),
                                 key=lambda kv: kv[0].key))

    @classmethod
    def zero(cls, grade: int = 0, total_order: float = 0.0) -> "Form":
        return cls(grade, total_order, {})

    @classmethod
    def scalar(cls, e: Expr) -> "Form":
        return cls(0, 0.0, {WedgeWord(()): e})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: WedgeWord, n: int) -> Expr:
        return self.terms.get(word, Expr.zero(n))

    def component(self, coord: int, n: int) -> Expr:
        """Grade-1 coefficient attached to d(coord, total_order)."""
        if self.grade != 1:
            raise ValueError(f"expected a grade-1 form, got grade {self.grade}")
        return self.coefficient(WedgeWord((DiffFactor(coord, self.total_order),)), n)

    def has_order(self, order: float) -> bool:
        """Is ``order`` this form's order: ``total_order`` or within
        ``EXP_TOL`` of it?"""
        return _same_order(order, self.total_order)

    def _binary_check(self, other: "Form"):
        if self.grade != other.grade or not self.has_order(other.total_order):
            raise ValueError("forms of different grade or total order cannot be combined")

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        if self.is_zero and not other.is_zero:
            return other
        if other.is_zero:
            return self
        self._binary_check(other)
        return Form(self.grade, self.total_order,
                    [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "Form":
        return Form(self.grade, self.total_order,
                    {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scale) -> "Form":
        if not isinstance(scale, (int, float, Expr)):
            return NotImplemented
        return Form(self.grade, self.total_order,
                    {w: c * scale for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.grade == other.grade and self.has_order(other.total_order)
                and self.terms == other.terms)

    def __repr__(self):
        return f"Form(grade={self.grade}, total_order={self.total_order}, words={len(self.terms)})"


def forms_close(a: Form, b: Form, tol: float = COEFF_DROP) -> bool:
    """Canonical equality up to a coefficient tolerance."""
    if a.grade != b.grade or not a.has_order(b.total_order):
        return False
    for w in set(a.terms) | set(b.terms):
        ca, cb = a.terms.get(w), b.terms.get(w)
        n = (ca or cb).n  # a word missing on one side has coefficient zero there
        if not exprs_close(ca or Expr.zero(n), cb or Expr.zero(n), tol):
            return False
    return True


def wedge(a: Form, b: Form) -> Form:
    """Graded exterior product; bilinear over coefficient expressions."""
    def products():
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                sign, word = canonical_word(wa.factors + wb.factors)
                if word is not None:
                    yield word, (ca * cb) * float(sign)

    return Form(a.grade + b.grade, a.total_order + b.total_order, products())


def frac_exterior_deriv(a: Form | Expr, nu: float, ctx: Context) -> Form:
    """Fractional exterior derivative of order nu >= 0.

    Each coefficient is differintegrated along every coordinate whose factor
    d(coord, nu) is not in the word yet, and that factor is prepended to the
    word.  At nu = 0 the new factors collapse into the scalar unit, so the
    grade does not change and each coefficient picks up one copy per coordinate.
    """
    nu = float(nu)
    if not 0 <= nu < math.inf:
        raise ValueError(f"exterior derivative order must be >= 0 and finite, got {nu}")
    if isinstance(a, Expr):
        a = Form.scalar(a)

    prefixes = [(j, (DiffFactor(j, nu),)) for j in range(ctx.n)]  # each d(j, nu) once

    def derivatives():
        for word, coeff in a.terms.items():
            for j, prefix in prefixes:
                sign, new_word = canonical_word(prefix + word.factors)
                if new_word is not None:  # else d(j, nu) is already in the word
                    dc = rl_deriv(coeff, j, nu, ctx)
                    yield new_word, -dc if sign < 0 else dc

    grade = a.grade + (1 if nu > EXP_TOL else 0)
    return Form(grade, a.total_order + nu, derivatives())


# --- text and JSON front ends ----------------------------------------------

def parse_form(text: str, ctx: Context) -> Form:
    """Parse a form literal; a bare expression is a grade-0 form.

    The terms of one wedge word are summed once, as
    :func:`fracforms.symbolic.parse_expr` sums an expression, and each
    distinct wedge is put in canonical order once.
    """
    coeffs, rows, factors = scan_terms(text, ctx.index, ctx.n, DiffFactor)
    grades = {len(fs) for fs in factors}
    if len(grades) != 1:
        raise ParseError("every term of a form must carry the same number of differentials")
    grade = grades.pop()
    words: dict[WedgeWord, list] = {}
    # scan_terms shares one tuple between the terms of one wedge text
    canon: dict[tuple, tuple[int, WedgeWord | None]] = {}
    total_order = None
    for c, row, fs in zip(coeffs, rows, factors):
        sw = canon.get(fs)
        if sw is None:
            sw = canon[fs] = canonical_word(fs)
        sign, word = sw
        if word is None:
            continue
        if total_order is None:
            total_order = word.order_sum
        elif not _same_order(word.order_sum, total_order, grade):
            for pairs in words.values():  # an earlier term that is not finite outranks this
                Expr.make(pairs, ctx.n)
            raise ParseError("every term of a form must carry the same total order")
        words.setdefault(word, []).append((c * sign, row))
    return Form(grade, 0.0 if total_order is None else total_order,
                {word: Expr.make(pairs, ctx.n) for word, pairs in words.items()})


def print_form(form: Form, ctx: Context, digits: int | None = None) -> str:
    """Render in the form-literal syntax (sum coefficients are expanded)."""
    chunks: list[str] = []
    for word, coeff in form.terms.items():
        wtxt = " & ".join(
            f"d({ctx.names[f.coord]},{fmt_number(f.order, digits)})" for f in word.factors)
        for c, exps in zip(coeff.coeffs.tolist(), coeff.exponents.tolist()):
            chunks.append(term_text(c, exps, ctx, digits, not chunks, wtxt))
    return "".join(chunks) or "0"


def form_to_json(form: Form, ctx: Context) -> dict:
    terms = []
    for word, coeff in form.terms.items():
        terms.append({
            "sign": 1,
            "factors": [
                {"coord": ctx.names[f.coord], "order": f.order} for f in word.factors
            ],
            "coeff": print_expr(coeff, ctx),
        })
    return {"grade": form.grade, "total_order": form.total_order, "terms": terms}


def form_from_json(obj: dict, ctx: Context) -> Form:
    pairs = []
    for item in obj["terms"]:
        factors = [DiffFactor(ctx.index(f["coord"]), float(f["order"]))
                   for f in item["factors"]]
        sign, word = canonical_word(factors)
        if word is not None:
            coeff = parse_expr(item["coeff"], ctx) * float(item.get("sign", 1)) * float(sign)
            pairs.append((word, coeff))
    return Form(int(obj["grade"]), float(obj["total_order"]), pairs)
