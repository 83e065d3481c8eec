"""The text grammar: the term scanner against the recursive-descent parser it
replaced, parse_form against parse_expr, and coordinate inference."""

import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracforms
from fracforms import (
    Context,
    DiffFactor,
    Expr,
    Form,
    ParseError,
    UnknownCoordinateError,
    WedgeWord,
    canonical_word,
    canonicalize,
    parse_expr,
    parse_form,
)
from fracforms import symbolic
from fracforms.cli import infer_coords, main
from fracforms.tolerances import EXP_TOL

XY = Context.of(("x", "y"))
X12 = Context.of(("x1", "x2"))
DX = Context.of(("d", "x"))  # a coordinate named like the wedge marker


# ---------------------------------------------------------------------------
# reference: the tokenizer and recursive-descent parser the scanner replaced,
# ported unchanged except where marked

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^(),&])"
    r")"
)


def ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class RefParser:
    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.tokens = ref_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def at_op(self, op):
        kind, val, _ = self.peek()
        return kind == "op" and val == op

    def parse_signed_number(self):
        sign = 1.0
        if self.at_op("+") or self.at_op("-"):
            _, val, _ = self.next()
            sign = -1.0 if val == "-" else 1.0
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError(f"expected a number, found {val or 'end of input'!r}", pos)
        return sign * float(val)

    def parse_factor(self):
        kind, val, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected a coordinate, found {val or 'end of input'!r}", pos)
        try:
            idx = self.ctx.index(val)
        except UnknownCoordinateError:
            raise UnknownCoordinateError(
                f"unknown coordinate {val!r} (declared: {', '.join(self.ctx.names)})"
            ) from None
        power = 1.0
        if self.at_op("^"):
            self.next()
            power = self.parse_signed_number()
        return idx, power

    def parse_term(self, sign):
        exps = [0.0] * self.ctx.n
        kind, val, _ = self.peek()
        if kind == "num" or (kind == "op" and val in "+-"):
            coeff = sign * self.parse_signed_number()
            while self.at_op("*"):
                self.next()
                idx, p = self.parse_factor()
                exps[idx] += p
        else:
            coeff = sign
            idx, p = self.parse_factor()
            exps[idx] += p
            while self.at_op("*"):
                self.next()
                idx, p = self.parse_factor()
                exps[idx] += p
        return coeff, exps

    def parse_expr(self):
        terms = []
        sign = 1.0
        while True:
            terms.append(self.parse_term(sign))
            if not (self.at_op("+") or self.at_op("-")):
                break
            _, val, _ = self.next()
            sign = -1.0 if val == "-" else 1.0
        return Expr.make(terms, self.ctx.n)  # canonicalize of the arrays, as before

    def expect_end(self):
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)


def ref_parse_expr(text, ctx):
    p = RefParser(text, ctx)
    e = p.parse_expr()
    p.expect_end()
    return e


def _ref_parse_wedge(p):
    factors = []
    while True:
        kind, val, pos = p.peek()
        if kind == "ident" and val == "d":
            save = p.i
            p.next()
            if not p.at_op("("):
                p.i = save
                break
            p.next()
            kind, cname, cpos = p.next()
            if kind != "ident":
                raise ParseError(f"expected a coordinate inside d(...), found {cname!r}", cpos)
            idx = p.ctx.index(cname)
            p.expect_op(",")
            order = p.parse_signed_number()
            p.expect_op(")")
            factors.append(DiffFactor(idx, order))
            if p.at_op("&"):
                p.next()
                continue
            break
        break
    return factors


def _ref_looks_like_diff(p):
    kind, val, _ = p.peek()
    if kind != "ident" or val != "d":
        return False
    nxt = p.tokens[p.i + 1]
    return nxt[0] == "op" and nxt[1] == "("


def _term(c, exps):
    """One term as a (coefficient, exponent tuple) pair of floats; a value
    that is not finite raises where the parent's term objects raised."""
    c, exps = float(c), tuple(float(p) for p in exps)
    if not math.isfinite(c):
        raise ValueError("term coefficient must be finite")
    if not all(map(math.isfinite, exps)):
        raise ValueError("term exponent must be finite")
    return c, exps


def _expr(terms, n):
    """The (c, exps) pairs ``terms`` as an expression, uncanonicalized."""
    return Expr(np.array([c for c, _ in terms], dtype=np.float64),
                np.array([p for _, p in terms], dtype=np.float64).reshape(len(terms), n), n)


def ref_parse_form(text, ctx, per_word=False):
    """The parent's parse_form.  It canonicalized the running sum of a word
    after every term, so a partial sum under 1e-12 was dropped; ``per_word``
    sums each word once instead, which is what parse_form does now."""
    p = RefParser(text, ctx)
    pieces = []
    sign = 1.0
    while True:
        if _ref_looks_like_diff(p):
            coeff_term = (sign, [0.0] * ctx.n)
        else:
            coeff_term = p.parse_term(sign)
        factors = _ref_parse_wedge(p) if _ref_looks_like_diff(p) else []
        pieces.append((coeff_term, factors))
        if p.at_op("+") or p.at_op("-"):
            _, val, _ = p.next()
            sign = -1.0 if val == "-" else 1.0
            continue
        break
    p.expect_end()

    # a grade counts the factors of order above EXP_TOL: an order-0 factor is the unit
    grades = {sum(abs(f.order) > EXP_TOL for f in fs) for _, fs in pieces}
    if len(grades) != 1:
        raise ParseError("every term of a form must carry the same number of differentials")
    grade = grades.pop()
    accum = {}
    total_order = None
    for coeff_term, factors in pieces:
        wsign, word = canonical_word(factors)
        if word is None:
            continue
        if total_order is None:
            total_order = word.order_sum
        elif abs(word.order_sum - total_order) > EXP_TOL * max(1, grade):
            raise ParseError("every term of a form must carry the same total order")
        c, exps = coeff_term
        term = _term(c * wsign, exps)
        if per_word:  # changed: collect, sum once below
            accum.setdefault(word, []).append(term)
            continue
        coeff = _expr([term], ctx.n)
        accum[word] = accum[word] + coeff if word in accum else canonicalize(coeff)
    if per_word:
        accum = {w: canonicalize(_expr(ts, ctx.n)) for w, ts in accum.items()}
    if total_order is None:
        total_order = 0.0
        if grade:
            return Form(grade, 0.0, {})
    return Form(grade, total_order, accum)


def ref_infer_coords(text):
    toks = ref_tokenize(text)
    names = set()
    for idx, (kind, val, _) in enumerate(toks):
        if kind != "ident":
            continue
        nxt = toks[idx + 1] if idx + 1 < len(toks) else ("end", "", 0)
        if val == "d" and nxt[0] == "op" and nxt[1] == "(":
            continue
        names.add(val)
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# comparison helpers: bit for bit, -0.0 apart from 0.0


def expr_bits(e):
    return (e.n, e.coeffs.shape, e.exponents.shape, e.coeffs.tobytes(), e.exponents.tobytes())


def form_bits(f):
    return (f.grade, f.total_order.hex(),
            [(tuple((d.coord, d.order.hex()) for d in w.factors), expr_bits(e))
             for w, e in f.terms.items()])


def outcome(parse, text, ctx):
    """The parsed value as bits, or the class of the exception raised."""
    try:
        value = parse(text, ctx)
    except (ParseError, ValueError) as exc:
        return type(exc)
    return form_bits(value) if isinstance(value, Form) else expr_bits(value)


# ---------------------------------------------------------------------------
# texts in the grammar, and near misses
#
# Texts are drawn from random.Random(seed), one Hypothesis draw per text:
# drawing every space and sign through Hypothesis costs ~30x more per text.

SPACES = ["", "", "", " ", "  ", "\t", "\n "]
NUMBERS = ["0", "1", "2", "3", "0.5", ".25", "3.", "007", "1e-13", "6e-13", "1.5e-2", "2E+3",
           "1.e5", "0.1", "4.75"]
HUGE = ["1e308", "1e999"]  # overflow: a ValueError to be raised in text order
ORDER_SIGNS = ("",) * 18 + ("+", "-")  # a negative order raises ValueError
ORDERS = ["0", "0.5", "1", "0.25", "0.75", "1.5", "2", "1e-10", "-0.5", "0.5000000001", ".5"]
MUTANT_CHARS = "+-*^(),&.d ex0129z$_"
CONTEXTS = [(XY, ["x", "y"]), (DX, ["d", "x"]), (XY, ["x", "y", "z"])]
SEEDS = st.integers(min_value=0, max_value=2 ** 64)


def ws(rng):
    return rng.choice(SPACES)


def signed(rng, number=None, signs=("", "", "-", "+")):
    if number is None:
        u = rng.random()
        number = (rng.choice(HUGE) if u < 0.02 else rng.choice(NUMBERS) if u < 0.7
                  else repr(rng.uniform(0.0, 1e6)))
    sign = rng.choice(signs)
    return sign + (ws(rng) if sign else "") + number


def factor(rng, names):
    name = rng.choice(names)
    return f"{name}{ws(rng)}^{ws(rng)}{signed(rng)}" if rng.random() < 0.5 else name


def coefficient(rng, names):
    """A product term: a signed number and factors, or factors alone, with
    repeated factors allowed."""
    facs = [factor(rng, names) for _ in range(rng.randrange(4))]
    if rng.random() < 0.5 or not facs:
        facs.insert(0, signed(rng))
    return "".join(f if i == 0 else f"{ws(rng)}*{ws(rng)}{f}" for i, f in enumerate(facs))


def wedge(rng, names, grade, orders):
    diffs = [f"d{ws(rng)}({ws(rng)}{rng.choice(names)}{ws(rng)},{ws(rng)}"
             f"{signed(rng, rng.choice(orders), ORDER_SIGNS)}{ws(rng)})" for _ in range(grade)]
    return "".join(d if i == 0 else f"{ws(rng)}&{ws(rng)}{d}" for i, d in enumerate(diffs))


def make_text(rng, names, form=True):
    grade = rng.randrange(3) if form else 0
    orders = ORDERS if rng.random() < 0.3 else [rng.choice(ORDERS)]  # mostly one total order
    parts = []
    for i in range(rng.randrange(1, 6)):
        term = coefficient(rng, names) if not grade or rng.random() < 0.5 else ""
        if grade:
            term += (rng.choice([" ", "", "  "]) if term else ws(rng)) + wedge(rng, names, grade, orders)
        sep = f"{ws(rng)}{rng.choice('+-')}{ws(rng)}" if i else ""
        parts.append(sep + term)
    return ws(rng) + "".join(parts) + ws(rng)


def mutate(rng, text):
    """One to three characters inserted, deleted, replaced or duplicated."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(MUTANT_CHARS)
        edit = rng.choice(["insert", "delete", "replace", "duplicate"])
        if edit == "insert" or not text:
            text = text[:i] + c + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "replace":
            text = text[:i] + c + text[i + 1:]
        else:
            text = text[:i] + text[i:i + 1] * 2 + text[i + 1:]
    return text


def check_against_reference(text, ctx):
    want = outcome(ref_parse_expr, text, ctx)
    assert outcome(parse_expr, text, ctx) == want, text
    want_form = outcome(ref_parse_form, text, ctx)
    got_form = outcome(parse_form, text, ctx)
    if isinstance(want_form, type):
        assert got_form is want_form, text
    else:
        assert got_form == outcome(lambda t, c: ref_parse_form(t, c, per_word=True), text, ctx), text
        assert infer_coords(text) == ref_infer_coords(text), text


@given(SEEDS, st.sampled_from(CONTEXTS), st.booleans())
@settings(max_examples=500, deadline=None)
def test_scanner_matches_recursive_descent_parser(seed, context, form):
    check_against_reference(make_text(random.Random(seed), context[1], form), context[0])


@given(SEEDS, st.sampled_from(CONTEXTS), st.booleans())
@settings(max_examples=1500, deadline=None)
def test_scanner_rejects_like_recursive_descent_parser(seed, context, form):
    rng = random.Random(seed)
    check_against_reference(mutate(rng, make_text(rng, context[1], form)), context[0])


@pytest.mark.parametrize("ctx, text", [
    (XY, "x ^ - 2 * y"),
    (XY, "d (x, 0.5) - 2*y d(y ,+ .5)"),
    (XY, "x - -2*y"),
    (XY, "x*x^0.5*x^-1.5 + 1.5e-2*x"),
    (XY, "x d(y,0.5) & d(x,0.5) + y d(x,0.5)&d(y,0.5)"),
    (DX, "d^2 d(x,1) + d d(d,1)"),
    (XY, "x d(x,1) &"),
    (XY, "x d(x,1) & + y d(y,1)"),
    (XY, "1e999 d(x,1) & d(x,1)"),  # the only word is zero, so its overflow is never read
    # rejected, most with two faults: the class of the first one read is raised
    (XY, "z*^"),
    (XY, "1e999*x y"),
    (XY, "1e999*^"),
    (XY, "1e999*x^2^3"),
    (XY, "d(x,-1) & d(y"),
    (XY, "x d(x,1) d(z,1)"),
    (XY, "x d(z 1)"),
    (DX, "d(z 1)"),
    (XY, "z + x $"),
    (XY, "1e999 d(x,1) + x d(y,2)"),
    (XY, "1e308 d(x,1) + 1e308 d(x,1) + x d(y,2)"),
])
def test_scanner_examples_match_recursive_descent_parser(ctx, text):
    check_against_reference(text, ctx)


def test_infer_coords_reads_exponent_literals():
    assert infer_coords("1.5e-2*x") == ("x",)
    assert infer_coords("2E+3*y^1e-2 d(x1,1.5e-1)") == ("x1", "y")


def test_parse_error_positions():
    for text, pos in [("2*x + ^", 6), ("x y", 2), ("x +", 3), ("x $", 1), ("", 0)]:
        with pytest.raises(ParseError) as exc:
            parse_expr(text, XY)
        assert exc.value.position == pos, text


def test_form_differential_names_declared_coordinates(capsys):
    with pytest.raises(UnknownCoordinateError, match=r"'z' \(declared: x1, x2\)"):
        parse_form("x1 d(z,0.5)", X12)
    assert main(["dv", "x1 d(z,0.5)", "--coords", "x1,x2", "--order", "0.5"]) == 2
    assert "declared: x1, x2" in capsys.readouterr().err


def test_form_patterns_compile_when_a_form_is_first_read():
    # in a fresh process: importing fracforms compiles no term pattern, and
    # reading an expression and a verb given its coordinates compile no form
    # pattern; coordinate inference reads its input as a form
    code = "\n".join((
        "import fracforms",
        "from fracforms import cli, symbolic",
        "assert symbolic._expr_patterns.cache_info().currsize == 0",
        "assert symbolic._form_patterns.cache_info().currsize == 0",
        "ctx = fracforms.Context.of(('x',))",
        "fracforms.parse_expr('2*x^0.5 - x', ctx)",
        "assert symbolic._expr_patterns.cache_info().currsize == 1",
        "assert cli.main(['deriv', 'x^2', '--var', 'x', '--order', '0.5', '--coords', 'x']) == 0",
        "assert symbolic._form_patterns.cache_info().currsize == 0",
        "fracforms.parse_form('x d(x,0.5)', ctx)",
        "assert symbolic._form_patterns.cache_info().currsize == 1",
        "assert cli.main(['deriv', 'x^2', '--var', 'x', '--order', '0.5']) == 0",
    ))
    src = str(Path(fracforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _pinned(text, want):
    return pytest.param(text, want, id=text)


@pytest.mark.parametrize("text, want", [
    # an overflow does not outrank trailing input when inferring
    _pinned("1e999*x )", (ParseError, "trailing input ')' (at position 8)", 8)),
    # both names share inference's one column
    _pinned("x^1e308*y^1e308 )", (ParseError, "trailing input ')' (at position 16)", 16)),
    _pinned("d^2*x - d*d", ("d", "x")),
    _pinned("x^", (ParseError, "expected a number after '^' (at position 1)", 1)),
    _pinned("2*x^2^3", (ParseError, "trailing input '^3' (at position 5)", 5)),
    _pinned("x*", (ParseError, "expected a coordinate after '*' (at position 1)", 1)),
    _pinned("x ^ - 2 * y $", (ParseError, "unexpected character '$' (at position 11)", 11)),
    _pinned("", (ParseError, "expected a term, found 'end of input' (at position 0)", 0)),
    _pinned("d (", (ParseError, "expected d(coordinate, order) (at position 0)", 0)),
])
def test_inference_reads_expressions_like_forms_examples(text, want):
    # coordinate inference on text with no differential: the names, or the
    # type, message and position of the error
    try:
        got = infer_coords(text)
    except (ParseError, ValueError) as exc:
        got = type(exc), str(exc), getattr(exc, "position", None)
    assert got == want


# ---------------------------------------------------------------------------
# texts that repeat a few spellings: the keys of the scanner's per-call caches

# each list ends with its rare spellings: an overflow or an unknown name, and
# another order, a negative order or an unknown name
FACTOR_SPELLINGS = ["{n}^2", "{n} ^ - 2", "{n}^2.0", "{n}*{n}", "{n}", "{n}^ 0.5", "{n}\t^\n+.5",
                    "{n} ^ -  007  ", "{n}^1e999", "z^2"]
DIFF_SPELLINGS = ["d({n},0.5)", "d ({n}, 0.5)", "d( {n} ,.5 )", "d({n} , 5e-1)", "d\n({n},+0.5)",
                  "d({n},1)", "d({n},-0.5)", "d(z,0.5)"]


def spelling(rng, spellings, names, rare):
    """One spelling, one of the last ``rare`` ones with probability 1/20."""
    k = len(spellings) - rare
    pick = rng.choice(spellings[k:] if rng.random() < 0.05 else spellings[:k])
    return pick.format(n=rng.choice(names))


@st.composite
def repeated_texts(draw):
    """A context and a text of many terms drawn from a palette of two to four
    factor spellings and, in a form, one to three wedge spellings."""
    rng = random.Random(draw(SEEDS))
    ctx, names = draw(st.sampled_from(CONTEXTS[:2]))
    form = draw(st.booleans())
    factors = [spelling(rng, FACTOR_SPELLINGS, names, 2) for _ in range(rng.randrange(2, 5))]
    grade = rng.randrange(1, 3)
    wedges = [f"{ws(rng)}&{ws(rng)}".join(spelling(rng, DIFF_SPELLINGS, names, 3) for _ in range(grade))
              for _ in range(rng.randrange(1, 4))]
    parts = []
    for i in range(rng.randrange(5, 40)):
        facs = rng.sample(factors, rng.randrange(1, len(factors) + 1))
        if rng.random() < 0.5:
            facs.insert(0, signed(rng))
        term = f"{ws(rng)}*{ws(rng)}".join(facs)
        if form:
            term += rng.choice([" ", "  ", "\t"]) + rng.choice(wedges)
        parts.append((f"{ws(rng)}{rng.choice('+-')}{ws(rng)}" if i else "") + term)
    text = ws(rng) + "".join(parts) + ws(rng)
    return ctx, mutate(rng, text) if rng.random() < 0.3 else text


@given(repeated_texts())
@example((XY, "-  618368.9966753316\t*\n y\n ^\n -  007  *x"))
@settings(max_examples=300, deadline=None)
def test_repeated_spellings_match_recursive_descent_parser(case):
    ctx, text = case
    check_against_reference(text, ctx)


# ---------------------------------------------------------------------------
# a form literal sums each word like an expression


def test_parse_form_sums_each_word_once():
    text = "1e-13*x + x"
    assert parse_form(text, XY) == Form.scalar(parse_expr(text, XY))
    assert parse_expr(text, XY).coeffs.tolist() == [1.0000000000001]
    assert ref_parse_form(text, XY).terms[WedgeWord(())].coeffs.tolist() == [1.0]  # was
    form = parse_form("6e-13 d(x,1) + 6e-13 d(x,1)", XY)
    assert form.component(0, 2).coeffs.tolist() == [1.2e-12]
    assert form.component(0, 2) == parse_expr("6e-13 + 6e-13", XY)
    assert ref_parse_form("6e-13 d(x,1) + 6e-13 d(x,1)", XY).is_zero  # was


def check_scalar_form(text):
    try:
        want = Form.scalar(parse_expr(text, XY))
    except (ParseError, ValueError) as exc:
        with pytest.raises(type(exc)):
            parse_form(text, XY)
        return
    assert form_bits(parse_form(text, XY)) == form_bits(want)


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_scalar_form_is_its_expression(seed):
    check_scalar_form(make_text(random.Random(seed), ["x", "y"], form=False))


@pytest.mark.parametrize("text", ["1e-13*x + x", "6e-13*x + 6e-13*x"])
def test_scalar_form_is_its_expression_examples(text):
    check_scalar_form(text)


def check_components(terms, nu):
    # a leading "0" term per word keeps every separator in both texts
    form_text = " + ".join(f"0 d({c},{nu})" for c in ("x", "y")) + "".join(
        f" {sep} {t} d({c},{nu})" for sep, t, c in terms)
    expr_texts = ["0" + "".join(f" {sep} {t}" for sep, t, cc in terms if cc == c)
                  for c in ("x", "y")]
    try:
        form = parse_form(form_text, XY)
    except ValueError:  # a number overflowed: so does the sum of its word
        with pytest.raises(ValueError):
            [parse_expr(t, XY) for t in expr_texts]
        return
    for j, text in enumerate(expr_texts):
        assert expr_bits(form.component(j, 2)) == expr_bits(parse_expr(text, XY)), text


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_one_form_components_are_their_expressions(seed):
    rng = random.Random(seed)
    terms = [(rng.choice("+-"), coefficient(rng, ["x", "y"]), rng.choice("xy"))
             for _ in range(rng.randrange(1, 9))]
    check_components(terms, rng.choice(["0.5", "1", "0.3"]))


@pytest.mark.parametrize("terms, nu", [
    ([("+", "6e-13", "x"), ("+", "6e-13", "x")], "1"),
    ([("+", "1e-13*y", "y"), ("+", "y", "y")], "0.5"),
])
def test_one_form_components_are_their_expressions_examples(terms, nu):
    check_components(terms, nu)
