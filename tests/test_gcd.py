"""The gcd layer of exactalg (mpoly_gcd, RatFunc reduction and arithmetic,
the common-factor helper behind content stripping, the PRS content step)
against sympy as an independent oracle, plus hand-built cases for each
branch of the common-factor helper."""
import json
import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gkpfrac import exactalg
from gkpfrac.cfrac import _strip_content
from gkpfrac.cli import main
from gkpfrac.exactalg import (
    MPoly, RatFunc, _common_factor, _coprime, _scalar_primitive, divide_exact,
    felem_div, mpoly_gcd, mpoly_lcm, num_den, variables,
)

NAMES = ("a", "b", "c", "d")


@st.composite
def planted(draw, count=2):
    """``count`` random MPoly over one tuple of 2-4 variables, each times a
    common nonconstant factor, which is returned last."""
    vars = NAMES[:draw(st.integers(2, 4))]
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))

    def poly(min_size, max_size):
        return MPoly(vars, {e: int(c) if c.denominator == 1 else c for e, c in
                            draw(st.dictionaries(exps, coeffs, min_size=min_size,
                                                 max_size=max_size)).items()})

    factor = poly(1, 3)
    if factor.is_constant():
        factor = factor + MPoly.variable(vars[0], vars)
    return [poly(1, 3) * factor for _ in range(count)] + [factor]


def to_sympy(p):
    gens = sympy.symbols(p.vars)
    return sympy.Poly.from_dict(
        {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
         for e, c in p.terms.items()} or {(0,) * len(gens): 0}, gens, domain="QQ")


def from_sympy(P, vars):
    return MPoly(vars, {e: int(c.p) if c.q == 1 else Fraction(int(c.p), int(c.q))
                        for e, c in P.as_dict().items() if c})


def normalized(P):
    """sympy Poly scaled to integer coefficients with content 1 and a positive
    graded-lex leading coefficient: the form mpoly_gcd and RatFunc use."""
    _, P = P.clear_denoms()
    _, P = P.primitive()
    return -P if P.LC(order="grlex") < 0 else P


def is_normalized(p):
    lead = max(p.terms, key=lambda e: (sum(e), e))
    coeffs = list(p.terms.values())
    return (all(isinstance(c, int) for c in coeffs)
            and reduce(gcd, coeffs) == 1 and p.terms[lead] > 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planted())
def test_mpoly_gcd_agrees_with_sympy(polys):
    a, b, _ = polys
    g = mpoly_gcd(a, b)
    assert divide_exact(a, g) is not None and divide_exact(b, g) is not None
    assert is_normalized(g)
    want = normalized(sympy.gcd(to_sympy(a), to_sympy(b)))
    assert g == from_sympy(want, a.vars)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planted())
def test_ratfunc_matches_sympy_cancel(polys):
    num, den, _ = polys
    r = RatFunc(num, den)
    gens = sympy.symbols(num.vars)
    cancelled = sympy.cancel(to_sympy(num).as_expr() / to_sympy(den).as_expr())
    n, d = (sympy.Poly(e, *gens, domain="QQ") for e in sympy.fraction(cancelled))
    want_den = normalized(d)
    scale = want_den.LC(order="grlex") / d.LC(order="grlex")
    assert r.den == from_sympy(want_den, num.vars)
    assert r.num == from_sympy(n * scale, num.vars)
    again = RatFunc(r.num, r.den)
    assert again.num.terms == r.num.terms and again.den.terms == r.den.terms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: planted(n)))
def test_common_factor_returns_gcd_and_cofactors(polys):
    *entries, _ = polys
    g, quos = _common_factor(entries)
    assert len(quos) == len(entries)
    assert all(q * g == p for q, p in zip(quos, entries))
    want = reduce(sympy.gcd, map(to_sympy, entries))
    assert g == from_sympy(normalized(want), g.vars)


def test_common_factor_when_fewest_terms_is_not_the_content():
    x, y = variables("x y")
    content = x + 1
    p0 = content * (y + 1) * (x - y)           # 6 terms
    p1 = Fraction(-3, 2) * content * (y + 1)   # 4 terms: the first candidate
    p2 = content * (x ** 2 + y ** 2 + 3)       # 6 terms: not divisible by p1
    g, quos = _common_factor([p0, p1, p2])
    assert g == content
    # p0 and p1 were divided before p2 shrank g: their quotients are rescaled
    assert quos == [(y + 1) * (x - y), Fraction(-3, 2) * (y + 1),
                    x ** 2 + y ** 2 + 3]


def test_common_factor_of_one_nonzero_entry():
    x, y = variables("x y")
    zero = MPoly.zero(x.vars)
    p = Fraction(-3, 2) * (x * y + 2 * y)
    g, quos = _common_factor([zero, p, zero])
    assert g == x * y + 2 * y and is_normalized(g)
    assert quos == [zero, MPoly.constant(Fraction(-3, 2), x.vars), zero]
    A, B = _strip_content([zero, p], [zero])
    assert A == [zero, Fraction(-3, 2)] and B == [zero]


def test_strip_content_keeps_a_nonzero_scalar_entry():
    x, y = variables("x y")
    A, B = [(x + 1) * y, 3], [(x + 1) * x]
    got = _strip_content(A, B)
    assert got[0] is A and got[1] is B
    g, quos = _common_factor([(x + 1) * y, MPoly.constant(3, x.vars)])
    assert g == 1 and quos == [(x + 1) * y, 3]


def test_mpoly_lcm_is_divisible_by_every_entry():
    x, y = variables("x y")
    dens = [(x + 1) * y, (x + 1) ** 2, 2 * y ** 2]
    L = mpoly_lcm(dens, x.vars)
    assert all(divide_exact(L, d) is not None for d in dens)
    assert L.total_degree() == 4
    assert mpoly_lcm([], x.vars) == 1


def test_wrong_divisibility_raises_instead_of_running_on(monkeypatch):
    # a divisibility test that ignores borrows lets quotients carry exponent
    # fields of 2^16 - 1; the gcd must stop on them, not run a PRS through
    # 65535 degrees (without the check, this product runs past the alarm)
    a, g, gp = variables("alpha gamma gammap")
    x = MPoly.variable("x", ("alpha", "gamma", "gammap", "x"))
    monkeypatch.setattr(exactalg, "_divides", lambda kb, ka, guards: ka >= kb)

    def too_slow(signum, frame):
        raise TimeoutError("the gcd kept going")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(30)
    try:
        with pytest.raises(ArithmeticError, match="out of range"):
            (g + 2 * a) * (1 + RatFunc(gp, a + g) * x)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@contextmanager
def alarm_window(seconds, what):
    def too_slow(signum, frame):
        raise TimeoutError(what)

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_wrong_divisibility_stops_the_heap_division(monkeypatch):
    # the same fault inside divide_exact: past the first quotient key that
    # borrows, the heap loop walks down through the packed keys below it
    # (over 45 s on this pair before the quotient keys were checked)
    x, y = variables("x y")
    m = 400
    b = MPoly(x.vars, {(i, m - i): 1 for i in range(m + 1)})
    a = MPoly(x.vars, {(m + 1000, 0): 1, (0, 0): 1})
    monkeypatch.setattr(exactalg, "_divides", lambda kb, ka, guards: ka >= kb)
    with alarm_window(10, "the division kept going"):
        with pytest.raises(ArithmeticError, match="out of range"):
            divide_exact(a, b)


def test_common_factor_gcd_that_does_not_shrink_raises(monkeypatch):
    # the fallback's gcd must be a proper factor of g, since g failed to
    # divide p; a gcd that hands g back is an inconsistent kernel
    a, b = variables("a b")
    monkeypatch.setattr(exactalg, "_gcd_nonzero", lambda p, g, **kw: g)
    with pytest.raises(ArithmeticError, match="did not shrink"):
        _common_factor([a + b, a * a + b])


def test_common_factor_gcd_of_out_of_range_degree_raises(monkeypatch):
    # a gcd whose degree the packed keys cannot hold (a borrow from a wrong
    # divisibility test makes one) is rejected before any other check
    a, b = variables("a b")
    limit = exactalg.EXPONENT_LIMIT
    key = limit << (2 * exactalg.FIELD_BITS) | limit << exactalg.FIELD_BITS
    huge = exactalg._mpoly(a.vars, {key: 1, 0: 1})
    monkeypatch.setattr(exactalg, "_gcd_nonzero", lambda p, g: huge)
    with pytest.raises(ArithmeticError, match="out of range"):
        _common_factor([a + b, a * a + b])


# -- the common factor against the divide-every-entry loop ------------------

def divided_common_factor(polys):
    """Test-only oracle: the former ``_common_factor``, which divided the
    entry that g was taken from by g as well, and normalized g again when
    handed one."""
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return MPoly.zero(polys[0].vars if polys else ()), list(polys)
    g = exactalg._normalize_gcd(min(nonzero, key=lambda p: len(p._terms)))
    if g.is_constant():
        return g, list(polys)
    quos = []
    for p in polys:
        q = divide_exact(p, g)
        if q is None:
            h = exactalg._gcd_nonzero(*p._coerce(g))
            if h.is_constant():
                return MPoly.one(h.vars), list(polys)
            ratio = divide_exact(g, h)
            quos = [x * ratio for x in quos]
            g = h
            q = divide_exact(p, g)
        quos.append(q)
    return g, quos


def typed_terms(p):
    return p.vars, [(e, c, type(c)) for e, c in p.sorted_terms()]


def same_split(got, want):
    """Equal gcd and cofactors, with their variable tuples and the types
    of their coefficients."""
    (g, quos), (wg, wquos) = got, want
    assert typed_terms(g) == typed_terms(wg)
    assert [typed_terms(q) for q in quos] == [typed_terms(q) for q in wquos]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: planted(n)),
       st.lists(st.sampled_from([1, -1, 3, Fraction(-2, 3), 0]), min_size=4, max_size=4))
def test_common_factor_matches_the_divide_every_entry_loop(polys, scales):
    # scaled entries have a lead content other than 1, the start entry's
    # cofactor; zero entries are skipped when g is chosen
    *entries, factor = polys
    entries = [s * p for s, p in zip(scales, entries)]
    same_split(_common_factor(entries), divided_common_factor(entries))
    # a start entry that the caller knows to be normalized, as in a sum
    g = exactalg._normalize_gcd(factor)
    for p in entries:
        same_split(_common_factor([g, p], start=0), divided_common_factor([g, p]))


def test_a_shrink_after_the_start_entry_rescales_its_cofactor():
    # g starts as b(ab + b + 1), with lead content 3, and shrinks to
    # ab + b + 1 at the second entry: the start cofactor 3 becomes 3b
    a, b = variables("a b")
    f = a * b + b + 1
    got = _common_factor([3 * b * f, Fraction(-1, 2) * a * f])
    assert got[0] == f and got[1] == [3 * b, Fraction(-1, 2) * a]
    same_split(got, divided_common_factor([3 * b * f, Fraction(-1, 2) * a * f]))
    same_split(_common_factor([b * f, a * f], start=0),
               divided_common_factor([b * f, a * f]))


# -- RatFunc arithmetic on canonical operands ---------------------------------

def product_route(op, a, b=None):
    """Test-only oracle: the full products of the parts, reduced afterwards by
    ``RatFunc(num, den)``.  ``b`` is a RatFunc or, for ``**``, an int."""
    if op == "+":
        return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)
    if op == "-":
        return RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)
    if op == "*":
        return RatFunc(a.num * b.num, a.den * b.den)
    if op == "/":
        return RatFunc(a.num * b.den, a.den * b.num)
    if op == "inv":
        return RatFunc(a.den, a.num)
    if b < 0:
        return product_route("**", product_route("inv", a), -b)
    return RatFunc(a.num ** b, a.den ** b)


def felem_div_route(a, b):
    an, ad = num_den(a)
    bn, bd = num_den(b)
    num, den = an * bd, ad * bn
    num = num if isinstance(num, MPoly) else MPoly.constant(num)
    den = den if isinstance(den, MPoly) else MPoly.constant(den, num.vars)
    q = RatFunc(num, den)
    return q.as_mpoly() if q.is_poly() else q


def same_form(got, want):
    """Equal type, variable tuple and terms: byte-identical output."""
    assert type(got) is type(want)
    if isinstance(want, MPoly):
        assert got.vars == want.vars and got.sorted_terms() == want.sorted_terms()
        return
    assert got.vars == want.vars
    assert got.num.vars == got.den.vars == want.vars
    assert got.num.sorted_terms() == want.num.sorted_terms()
    assert got.den.sorted_terms() == want.den.sorted_terms()


def sympy_expr(x):
    if isinstance(x, (int, Fraction)):
        return sympy.Rational(x.numerator, x.denominator)
    n, d = num_den(x)
    d = d if isinstance(d, MPoly) else MPoly.constant(d, n.vars)
    return to_sympy(n).as_expr() / to_sympy(d).as_expr()


def agrees_with_cancel(got, expr):
    """``got`` is sympy's cancelled ``expr``, scaled to our normal form."""
    vars = got.vars
    gens = sympy.symbols(vars)
    cancelled = sympy.cancel(expr)
    if cancelled == 0:
        assert num_den(got)[0].is_zero()
        return
    n, d = (sympy.Poly(e, *gens, domain="QQ") for e in sympy.fraction(cancelled))
    want_den = normalized(d)
    scale = want_den.LC(order="grlex") / d.LC(order="grlex")
    num, den = num_den(got)
    den = den if isinstance(den, MPoly) else MPoly.constant(den, vars)
    assert den == from_sympy(want_den, vars)
    assert num == from_sympy(n * scale, vars)


@st.composite
def operand_pairs(draw):
    """Two canonical RatFuncs over 2-3 variables with planted common factors.
    Either f sits in a's numerator and b's denominator and h in b's
    numerator and a's denominator, so that a product needs both cross gcds;
    or a = n/g and b = (g w - n e)/(g e), so that a + b = w/e needs the gcd
    of t = n e + (g w - n e) = g w with the common denominator factor g.
    Sometimes b lives on the reversed variable tuple."""
    vars = NAMES[:draw(st.integers(2, 3))]
    exps = st.tuples(*[st.integers(0, 1)] * len(vars))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 2))

    def poly():
        return MPoly(vars, {e: int(c) if c.denominator == 1 else c for e, c in
                            draw(st.dictionaries(exps, coeffs, min_size=1,
                                                 max_size=2)).items()})

    def factor():
        p = poly()
        return p + MPoly.variable(vars[-1], vars) if p.is_constant() else p

    if draw(st.booleans()):
        f, h = factor(), factor()
        a = RatFunc(poly() * f, poly() * h)
        b = RatFunc(poly() * h, poly() * f)
    else:
        n, g, w, e = poly(), factor(), poly(), factor()
        a = RatFunc(n, g)
        b = RatFunc(g * w - n * e, g * e)
    if b.is_zero():
        b = RatFunc(MPoly.one(vars), factor())
    if draw(st.booleans()):
        rev = vars[::-1]
        b = RatFunc(b.num.in_vars(rev), b.den.in_vars(rev))
    return a, b


@settings(max_examples=40, deadline=None, derandomize=True)
@given(operand_pairs(), st.integers(-2, 2))
def test_ratfunc_arithmetic_matches_the_product_route(pair, k):
    a, b = pair
    cases = [("+", a + b, b), ("-", a - b, b), ("*", a * b, b), ("/", a / b, b),
             ("inv", a.inv(), None), ("**", a ** k, k)]
    for op, got, arg in cases:
        same_form(got, product_route(op, a, arg))
    ea, eb = sympy_expr(a), sympy_expr(b)
    for got, expr in zip((got for _, got, _ in cases),
                         (ea + eb, ea - eb, ea * eb, ea / eb, 1 / ea, ea ** k)):
        agrees_with_cancel(got, expr)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(operand_pairs(), st.integers(0, 3))
def test_felem_div_matches_the_product_route(pair, shape):
    a, b = pair
    # RatFunc, MPoly and int operands in every position
    a = (a, a.num, 3, a)[shape]
    b = (b, b, b.den, Fraction(-2, 3))[shape]
    got = felem_div(a, b)
    same_form(got, felem_div_route(a, b))
    agrees_with_cancel(got, sympy_expr(a) / sympy_expr(b))


def test_a_cofactor_division_that_fails_raises(monkeypatch, tmp_path):
    # a gcd kernel that hands back a non-divisor is inconsistent: every entry
    # point must raise, never return a wrong gcd or fail on a missing cofactor.
    # The inputs reach the kernel: both have two or more terms and neither
    # divides the other.  The fallback gets (den, num), and a - c divides num
    # but not den.  The coprimality certificate answers "undecided", which is
    # always a legal answer, so that every pair reaches the faulty PRS.
    a, b, c = variables("a b c")
    num, den = (a + b) * (a - c), (a + b) * (b + c) * (a * b + c + 1)
    x, y = RatFunc(num, c + 2), RatFunc(b, den)
    u, v = RatFunc(MPoly.one(num.vars), num), RatFunc(MPoly.one(num.vars), den)
    monkeypatch.setattr(exactalg, "_content_prs_gcd", lambda p, q: a - c)
    monkeypatch.setattr(exactalg, "_coprime", lambda p, q: False)
    entry_points = [
        lambda: mpoly_gcd(num, den),
        lambda: RatFunc(num, den),
        lambda: x * y,
        lambda: u + v,
        lambda: _common_factor([num, den]),
        lambda: mpoly_lcm([num, den], num.vars),
    ]
    for entry in entry_points:
        with pytest.raises(ArithmeticError, match="does not divide"):
            entry()
    # through the CLI, the same fault is an internal error (exit 3)
    out = tmp_path / "internal.json"
    code = main(["jfrac", "--mu", "1,2,3,1,1,1", "--levels", "2",
                 "--out", str(out)])
    data = json.loads(out.read_text())
    assert code == 3 and data["exit"] == 3 and data["ok"] is False
    assert data["internal"].startswith("ArithmeticError: ")


# -- integer content in the PRS -------------------------------------------------

def test_scalar_primitive_divides_by_the_content_of_the_whole_list():
    x, = variables("x")
    zero = MPoly.zero(x.vars)
    assert _scalar_primitive([6 * x + 4, zero, MPoly.constant(10, x.vars)]) == \
        [3 * x + 2, zero, 5]
    got = _scalar_primitive([x * Fraction(1, 2) + Fraction(1, 3),
                             MPoly.constant(Fraction(2, 3), x.vars)])
    assert got == [3 * x + 2, 4]
    assert all(type(c) is int for p in got for c in p.terms.values())
    kept = [2 * x + 3, MPoly.constant(4, x.vars)]
    assert _scalar_primitive(kept) is kept


def test_prs_coefficients_stay_small_at_numeric_mu(monkeypatch, capsys):
    # at numeric mu the polynomials are in x alone, and a pseudo-remainder
    # keeps every integer factor its leading coefficients bring in unless the
    # PRS divides it out: without that step the coefficients below pass 2000
    # bits within seconds (the command then takes about 40 s); with it they
    # stay under 400 bits
    widest = []
    pseudo_rem = exactalg._pseudo_rem

    def spy(F, G, vars):
        bits = max(Fraction(c).numerator.bit_length()
                   for p in list(F) + list(G) for c in p.terms.values())
        assert bits <= 1024, "pseudo-remainder input of %d bits" % bits
        widest.append(bits)
        return pseudo_rem(F, G, vars)

    monkeypatch.setattr(exactalg, "_pseudo_rem", spy)
    assert main(["sfrac", "--mu", "1,2,3,1,1,1", "--depth", "6"]) == 0
    assert widest and max(widest) > 64


# -- the coprimality certificate ----------------------------------------------

def certificate_calls(a, b):
    """mpoly_gcd(a, b), with every call of the certificate that it makes
    recorded as (p, q, answer)."""
    calls = []
    coprime = exactalg._coprime

    def spy(p, q):
        answer = coprime(p, q)
        calls.append((p, q, answer))
        return answer

    exactalg._coprime = spy
    try:
        mpoly_gcd(a, b)
    finally:
        exactalg._coprime = coprime
    return calls


def occurring(p):
    return {v for e in p.terms for v, k in zip(p.vars, e) if k}


def test_the_certificate_never_proves_a_common_factor_away():
    # on planted common factors and on the drawn cofactors alone, at every
    # call that mpoly_gcd makes (the PRS's content steps included)
    by_images = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planted(), st.booleans())
    def check(polys, plant):
        a, b, factor = polys
        if not plant:
            a, b = divide_exact(a, factor), divide_exact(b, factor)
        for p, q, answer in certificate_calls(a, b):
            if answer:
                assert sympy.gcd(to_sympy(p), to_sympy(q)).total_degree() == 0
                by_images.append(bool(occurring(p) & occurring(q))
                                 and min(p.total_degree(), q.total_degree()) > 1)

    check()
    assert any(by_images)


def test_the_certificate_decides_each_branch():
    u, v, w = variables("u v w")
    # no shared variable; a total degree 1 operand
    assert _coprime(u + 1, v * w + 2)
    assert _coprime(u + v + 1, u * v + 2)
    # coprime images in u and in v
    assert _coprime(u * v + 1, u * u + v + 3)
    assert not _coprime((u + v) * (u - w + 1), (u + v) * (v * w + 2))
    # a denominator that vanishes mod the prime gives no image
    p = exactalg._IMAGE_PRIME
    assert _coprime(u * v + Fraction(1, p + 1), u * u + v + 3)
    assert not _coprime(u * v + Fraction(1, p), u * u + v + 3)


def test_every_shared_variable_gets_an_image():
    # only the image in f shows the common factor f + 1: a certificate
    # that skips any one shared variable proves one of these pairs coprime
    vs = variables("u v w")
    for f in vs:
        y, z = [x for x in vs if x is not f]
        assert not _coprime((f + 1) * (y + z + 2), (f + 1) * (y * z + 3))


def test_an_image_whose_degree_drops_is_not_accepted():
    # lc_v(f) = u - r_u and lc_u(f) = v - r_v vanish at the points r, so
    # both images of f are 1, and the images of a and b are coprime
    # although f divides both
    u, v = variables("u v")
    r_u, r_v = exactalg._image_points(2)[:2]
    f = (u - r_u) * (v - r_v) + 1
    assert not _coprime(f * (u + v + 2), f * (u + v + 5))


def test_a_gcd_operand_with_a_guard_bit_set_raises():
    # a borrow from a wrong divisibility test sets the guard bit of a
    # field; here it sits in u, which b lacks, so without the check the
    # pair shares no variable and passes as coprime
    u, v = variables("u v")
    key = exactalg.EXPONENT_LIMIT << exactalg.FIELD_BITS
    a = exactalg._mpoly(u.vars, {key: 1, 0: 1})
    with pytest.raises(ArithmeticError, match="out of range"):
        _coprime(a, v + 1)
