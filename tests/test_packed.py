"""The packed monomial layout of MPoly against plain exponent-tuple oracles.

Every oracle here works on the exponent-tuple dict a polynomial was built
from, never on a packed key, so a fault in the layout (field order, the
guard bits, the overflow check) shows as a disagreement.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkpfrac.exactalg import (
    EXPONENT_LIMIT, MPoly, _divides, _guards, _monomial_gcd, _pack, _unpack,
    divide_exact, mpoly_to_json, rat_str,
)

NAMES = ("a", "b", "c", "d")
EXAMPLES = settings(max_examples=120, deadline=None, derandomize=True)


def glex(e):
    return (sum(e), *e)


@st.composite
def term_dicts(draw, count=1, min_size=0, max_exp=3):
    """``count`` exponent-tuple dicts over one shared tuple of 2-4 variables."""
    vars = NAMES[:draw(st.integers(2, 4))]
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3))
    dicts = [{e: int(c) if c.denominator == 1 else c for e, c in
              draw(st.dictionaries(exps, coeffs, min_size=min_size, max_size=6)).items()}
             for _ in range(count)]
    return vars, dicts


def polys(vars, dicts):
    return [MPoly(vars, d) for d in dicts]


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + Fraction(ca) * cb
    return {e: c for e, c in out.items() if c}


@EXAMPLES
@given(term_dicts(count=3))
def test_ring_axioms(case):
    a, b, c = polys(*case)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a


@EXAMPLES
@given(term_dicts(count=2))
def test_product_matches_tuple_reference(case):
    vars, (da, db) = case
    a, b = polys(vars, (da, db))
    got = a * b
    assert dict(got.terms) == ref_mul(da, db)
    assert len(got.terms) == len(ref_mul(da, db))
    # integral coefficients come back as int, never as Fraction(n, 1)
    assert all(type(c) is int for c in got.terms.values()
               if Fraction(c).denominator == 1)


@EXAMPLES
@given(term_dicts())
def test_term_order_is_graded_lex(case):
    vars, (d,) = case
    p = MPoly(vars, d)
    want = sorted(d.items(), key=lambda t: glex(t[0]), reverse=True)
    assert p.sorted_terms() == want
    if d:
        assert p.total_degree() == max(map(sum, d))
    assert mpoly_to_json(p) == {"vars": list(vars),
                                "terms": [[list(e), rat_str(c)] for e, c in want]}


@st.composite
def divisibility_pairs(draw):
    """(e, f): f is e with nonnegative increments, except that at most one
    variable of f may instead fall below e.  Values reach into the top of
    the field range, where a field that borrows reaches its guard bit."""
    n = draw(st.integers(2, 4))
    top = (EXPONENT_LIMIT - 1) // (2 * n)
    e = draw(st.tuples(*[st.integers(0, top)] * n))
    f = [x + draw(st.integers(0, 2)) for x in e]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        f[i] = draw(st.integers(0, top))
    return e, tuple(f)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(divisibility_pairs())
def test_divisibility_check_matches_exponentwise(pair):
    e, f = pair
    want = all(x >= y for x, y in zip(e, f))
    assert _divides(_pack(f), _pack(e), _guards(len(e))) == want
    vars = NAMES[:len(e)]
    q = divide_exact(MPoly(vars, {e: 3}), MPoly(vars, {f: 1}))
    assert (q is not None) == want
    if want:
        assert dict(q.terms) == {tuple(x - y for x, y in zip(e, f)): 3}


def test_product_at_the_field_limit_raises():
    top = EXPONENT_LIMIT - 1
    x_top = MPoly(("x", "y"), {(top, 0): 1})
    y = MPoly.variable("y", ("x", "y"))
    assert (MPoly(("x", "y"), {(top - 1, 0): 1}) * y).terms == {(top - 1, 1): 1}
    with pytest.raises(OverflowError):
        x_top * y
    with pytest.raises(OverflowError):
        x_top * x_top
    with pytest.raises(OverflowError):
        MPoly(("x", "y"), {(top, 1): 1})
    with pytest.raises(ValueError):
        MPoly(("x", "y"), {(-1, 1): 1})


@EXAMPLES
@given(term_dicts(), st.randoms(use_true_random=False))
def test_views_match_tuple_reference(case, rng):
    vars, (d,) = case
    p = MPoly(vars, d)
    assert p.terms == d and len(p.terms) == len(d)
    # embedding into a shuffled, larger variable tuple moves every exponent
    wide = list(vars) + ["z"]
    rng.shuffle(wide)
    moved = p.in_vars(wide)
    assert moved.terms == {tuple(dict(zip(vars, e)).get(v, 0) for v in wide): c
                           for e, c in d.items()}
    assert hash(moved) == hash(p) and moved == p
    for i, v in enumerate(vars):
        assert p.degree_in(v) == max((e[i] for e in d), default=0)
        assert p.deriv(v).terms == {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                    for e, c in d.items() if e[i]}
        split = {}
        for e, c in d.items():
            split.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
        assert {k: dict(q.terms) for k, q in p.coeffs_in(v).items()} == split
    if d:
        n = len(vars)
        assert _unpack(_monomial_gcd(n, p._terms), n) == tuple(map(min, zip(*d)))
