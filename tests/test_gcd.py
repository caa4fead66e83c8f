"""The gcd layer of exactalg (mpoly_gcd, RatFunc reduction, the common-factor
helper behind content stripping) against sympy as an independent oracle,
plus hand-built cases for each branch of the common-factor helper."""
import signal
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gkpfrac import exactalg
from gkpfrac.cfrac import _strip_content
from gkpfrac.exactalg import (
    MPoly, RatFunc, _common_factor, divide_exact, mpoly_gcd, mpoly_lcm,
    variables,
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


def test_common_factor_gcd_that_does_not_shrink_raises(monkeypatch):
    # the fallback's gcd must be a proper factor of g, since g failed to
    # divide p; a gcd that hands g back is an inconsistent kernel
    a, b = variables("a b")
    monkeypatch.setattr(exactalg, "_gcd_nonzero", lambda p, g, **kw: g)
    with pytest.raises(ArithmeticError, match="did not shrink"):
        _common_factor([a + b, a * a + b])
