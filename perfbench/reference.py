"""Reference answers computed without fracforms.

Every check in the benchmark compares the library against the plain-``math``
code in this module, so a reference never shares the code path being timed.
A power product is a list of ``(coeff, exponents)`` pairs over coordinates
anchored at the origin.
"""

from __future__ import annotations

import math
import re


def rgamma(x: float) -> float:
    """1/gamma(x), exactly 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def power_rule(terms, coord: int, q: float):
    """Order-q Riemann-Liouville differintegral along ``coord`` (q < 0 integrates)."""
    out = []
    for c, exps in terms:
        p = exps[coord]
        factor = math.gamma(p + 1.0) * rgamma(p - q + 1.0)
        if factor == 0.0:
            continue
        moved = list(exps)
        moved[coord] = p - q
        out.append((c * factor, tuple(moved)))
    return out


def evaluate(terms, point) -> tuple[float, float]:
    """Value of a power product at a point, and the sum of |term| as its scale."""
    vals = []
    for c, exps in terms:
        v = c
        for x, p in zip(point, exps):
            if p:
                v *= x ** p
        vals.append(v)
    return math.fsum(vals), math.fsum(abs(v) for v in vals)


def close(got: float, want: float, rel: float, scale: float | None = None) -> bool:
    """|got - want| within ``rel`` of ``scale`` (default |want|), NaN-safe."""
    ref = abs(want) if scale is None else scale
    return abs(got - want) <= rel * max(ref, 1e-300)


def polar_radial(k: int, nu: float, r: float, theta: float) -> float:
    """Closed form of the dr^nu entry of row k of the fractional polar matrix.

    gamma(2nu-m+1) / (gamma(nu+1) gamma(nu-m+1)) * trig^nu * cotrig^(nu-m)
    * r^(nu-m), with (trig, cotrig) = (cos, sin) in row 0 and (sin, cos) in
    row 1 and m the ceiling of nu.
    """
    m = math.ceil(nu)
    coeff = math.gamma(2 * nu - m + 1) / (math.gamma(nu + 1) * math.gamma(nu - m + 1))
    tr, co = (math.cos(theta), math.sin(theta)) if k == 0 else (math.sin(theta), math.cos(theta))
    return coeff * tr ** nu * co ** (nu - m) * r ** (nu - m)


# --- text in the library's input grammar -------------------------------------

def term_text(c: float, exps, names, sign: bool = False) -> str:
    """One term, unsigned unless ``sign``; exponents and coefficients in repr form."""
    facs = [f"{name}^{p!r}" for name, p in zip(names, exps) if p != 0.0]
    body = "*".join([repr(abs(c))] + facs)
    return ("-" if c < 0 else "") + body if sign else body


def expr_text(terms, names) -> str:
    parts = [term_text(terms[0][0], terms[0][1], names, sign=True)]
    for c, exps in terms[1:]:
        parts.append(("- " if c < 0 else "+ ") + term_text(c, exps, names))
    return " ".join(parts)


def form_text(components, names, nu: float) -> str:
    """Grade-1 form literal: ``components[j]`` multiplies d(names[j], nu)."""
    pieces = []
    for j, terms in enumerate(components):
        for c, exps in terms:
            pieces.append((c, f"{term_text(c, exps, names)} d({names[j]},{nu!r})"))
    first_c, first = pieces[0]
    parts = [("-" if first_c < 0 else "") + first]
    parts += [("- " if c < 0 else "+ ") + body for c, body in pieces[1:]]
    return " ".join(parts)


_SPLIT = re.compile(r" ([+-]) ")


def parse_terms(text: str, names) -> list[tuple[float, tuple[float, ...]]]:
    """Read back the library's printed sums, e.g. ``-2*x1^-0.5*x2 + 3``."""
    text = text.strip()
    if text == "0":
        return []
    index = {name: i for i, name in enumerate(names)}
    chunks = _SPLIT.split(text)
    signed = [(1.0, chunks[0])] + [
        (-1.0 if s == "-" else 1.0, body) for s, body in zip(chunks[1::2], chunks[2::2])]
    terms = []
    for sign, body in signed:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        c = sign
        exps = [0.0] * len(names)
        for fac in body.split("*"):
            name, _, power = fac.partition("^")
            if name in index:
                exps[index[name]] += float(power) if power else 1.0
            else:
                c *= float(fac)
        terms.append((c, tuple(exps)))
    return terms


def same_terms(got, want, rel: float) -> bool:
    """Equal power products: the same exponent vectors, coefficients within ``rel``."""
    if len(got) != len(want):
        return False
    def keyed(terms):
        return sorted((tuple(round(p, 9) for p in e), c) for c, e in terms)
    return all(k1 == k2 and close(c1, c2, rel)
               for (k1, c1), (k2, c2) in zip(keyed(got), keyed(want)))
