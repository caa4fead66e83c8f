import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from gkpfrac.exactalg import (
    EXPONENT_LIMIT, FIELD_BITS, DivisionByZeroPolynomial, MPoly,
    NonInvertibleSeries, RatFunc, TruncSeries, _mpoly, as_field, as_mpoly,
    clear_denominators, divide_exact, felem_div, felem_eq, felem_to_json,
    first_mismatch, generalized_binomial_series, mismatch_report, mpoly_gcd,
    num_den, ratfunc, rational, variables, x_coeffs,
)
from helpers import series_exp


def rand_poly(rng, gens, nterms=3, maxdeg=2, maxc=4):
    p = MPoly.zero(gens[0].vars)
    for _ in range(nterms):
        term = MPoly.constant(rng.randint(-maxc, maxc), gens[0].vars)
        for g in gens:
            term = term * g ** rng.randint(0, maxdeg)
        p = p + term
    return p


def test_ring_axioms_randomized():
    rng = random.Random(0)
    gens = variables("a b c")
    for _ in range(200):
        p = rand_poly(rng, gens)
        q = rand_poly(rng, gens)
        assert p * q == q * p
        assert (p + q) - q == p


def test_canonical_form_no_zero_coeffs():
    a, b = variables("a b")
    p = (a + b) - a - b
    assert p.is_zero() and p.terms == {}
    q = (a + 1) * (a - 1) - a * a
    assert q == -1


def test_ratfunc_normalize_idempotent_and_cross_mult():
    rng = random.Random(1)
    gens = variables("a b")
    for _ in range(200):
        num = rand_poly(rng, gens, nterms=2)
        den = rand_poly(rng, gens, nterms=2)
        if den.is_zero():
            den = den + 1
        r = RatFunc(num, den)
        r2 = RatFunc(r.num, r.den)
        assert r2.num == r.num and r2.den == r.den
        # equality via normalization agrees with cross-multiplication
        s = RatFunc(num * (gens[0] + 1), den * (gens[0] + 1))
        assert r == s
        assert r.num * s.den == s.num * r.den


def test_ratfunc_zero_denominator():
    a, = variables("a")
    with pytest.raises(DivisionByZeroPolynomial):
        ratfunc(a, a - a)


def test_gcd_basic():
    a, b, g = variables("a b g")
    f1 = (a + b) ** 2 * (a - g)
    f2 = (a + b) * (a + g)
    assert mpoly_gcd(f1, f2) == a + b
    assert divide_exact(f1, (a + b) ** 2) == a - g
    assert divide_exact(f1, a + g) is None


def test_x_coeffs_reads_scalars_polynomials_and_x_free_denominators():
    a, x = variables("a x")
    assert x_coeffs(Fraction(3, 2)) == {0: Fraction(3, 2)}
    assert x_coeffs(0) == {}
    got = x_coeffs(a * x * x + 3 * x - a)
    assert sorted(got) == [0, 1, 2]
    assert all(type(c) is MPoly for c in got.values())
    assert felem_eq(got[2], a) and felem_eq(got[1], 3) and felem_eq(got[0], -a)
    alone = MPoly.variable("a", ("a",))
    assert x_coeffs(alone) == {0: alone}
    assert x_coeffs(alone, "a").keys() == {1}
    got = x_coeffs(ratfunc(a * x + 1, a + 1))
    assert sorted(got) == [0, 1]
    assert all(type(c) is RatFunc for c in got.values())
    assert felem_eq(got[1], ratfunc(a, a + 1)) and felem_eq(got[0], ratfunc(1, a + 1))
    with pytest.raises(ValueError, match="free of x"):
        x_coeffs(ratfunc(a, a + x))


def test_as_mpoly_places_values_on_exactly_the_given_tuple():
    a, b = variables("a b")
    vars = ("x", "b", "a")
    foreign_zero = ratfunc(MPoly.zero(("y", "z")), 1)
    cases = [(3, 3), (Fraction(1, 2), Fraction(1, 2)), (a * b, a * b),
             (ratfunc(2 * a * b, 4), a * b * Fraction(1, 2)),
             (MPoly.zero(("y",)), 0), (foreign_zero, 0)]
    for value, want in cases:
        got = as_mpoly(value, vars)
        assert type(got) is MPoly and got.vars == vars, value
        assert felem_eq(got, want), value
    assert as_mpoly(a) is a
    assert as_mpoly(ratfunc(a, 2)).vars == a.vars
    for bad in (ratfunc(a, b), "a"):
        with pytest.raises(TypeError):
            as_mpoly(bad, vars)
        with pytest.raises(TypeError):
            as_mpoly(bad)


def test_series_reciprocal_geometric():
    s = TruncSeries(6, [1, -1])
    assert s.reciprocal().coeffs == [1] * 7
    x, = variables("x")
    s = TruncSeries(2, [1, x])
    assert s.reciprocal() == TruncSeries(2, [1, -x, x * x])


def test_series_reciprocal_factorials_long_division_oracle():
    fac = [1, 1, 2, 6]

    # independent long-division oracle for 1/f
    def long_division(coeffs, order):
        out = [Fraction(1) / coeffs[0]]
        for n in range(1, order + 1):
            acc = Fraction(0)
            for j in range(1, n + 1):
                cj = coeffs[j] if j < len(coeffs) else 0
                acc += cj * out[n - j]
            out.append(-acc / coeffs[0])
        return out

    oracle = long_division(fac, 3)
    got = TruncSeries(3, fac).reciprocal()
    assert got.coeffs == oracle == [1, -1, -1, -3]


def test_series_reciprocal_involution():
    rng = random.Random(2)
    for _ in range(20):
        coeffs = [1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(6)]
        s = TruncSeries(6, coeffs)
        assert s.reciprocal().reciprocal() == s


def test_series_reciprocal_zero_constant_term():
    with pytest.raises(NonInvertibleSeries):
        TruncSeries(3, [0, 1]).reciprocal()


def test_generalized_binomial_examples():
    assert generalized_binomial_series(TruncSeries(4, [1, -1]), -1).coeffs \
        == [1, 1, 1, 1, 1]
    got = generalized_binomial_series(TruncSeries(2, [1, -2]), Fraction(-1, 2))
    assert got.coeffs == [1, 1, Fraction(3, 2)]
    # (1 - y t)^(-w/y) at w = y = 1 is the geometric series
    got = generalized_binomial_series(TruncSeries(5, [1, -1]), Fraction(-1))
    assert got.coeffs == [1] * 6


def test_generalized_binomial_integer_exponent_is_repeated_product():
    x, = variables("x")
    base = TruncSeries(5, [1, x, 2 * x])
    for m in range(4):
        direct = TruncSeries.one(5)
        for _ in range(m):
            direct = direct * base
        assert generalized_binomial_series(base, m) == direct


# -- series powers against two test-only oracles -----------------------------

def series_log(s):
    """log of a series with constant term 1: L' = f'/f, so
    k l_k = k f_k - sum_{j=1}^{k-1} j l_j f_{k-j}."""
    assert felem_eq(s.coeffs[0], 1)
    f, l = s.coeffs, [0]
    for k in range(1, s.order + 1):
        acc = k * f[k]
        for j in range(1, k):
            acc = acc - (j * l[j]) * f[k - j]
        l.append(acc * Fraction(1, k))
    return TruncSeries(s.order, l)


def power_exp_log(base, e):
    """base**e as exp(e log base)."""
    return series_exp(series_log(base).scale(e))


def power_binomial_sum(base, e):
    """base**e as sum_k C(e, k) (base - 1)^k, C(e, k) = prod_i (e - i)/(i + 1)."""
    w = base - 1
    acc = power = TruncSeries.one(base.order)
    binom = 1
    for k in range(1, base.order + 1):
        power = power * w
        binom = binom * (e - (k - 1)) * Fraction(1, k)
        acc = acc + power.scale(binom)
    return acc


def test_exp_log_roundtrip():
    x, = variables("x")
    s = TruncSeries(6, [0, x, 1, x * x])
    assert series_log(series_exp(s)) == s


X_ONLY = ("x",)
small_q = st.fractions(-3, 3, max_denominator=3)


@st.composite
def x_polys(draw, nonzero=False):
    """A polynomial of degree <= 2 in x with small rational coefficients."""
    x = MPoly.variable("x", X_ONLY)
    p = sum((draw(small_q) * x ** k for k in range(3)), MPoly.zero(X_ONLY))
    if nonzero and p.is_zero():
        p = p + 1
    return p


@st.composite
def power_cases(draw):
    """(base, exponent): [t^0] base = 1, other coefficients scalars or
    polynomials in x; the exponent a rational or a RatFunc in x."""
    order = draw(st.integers(1, 4))
    coeff = st.one_of(small_q, x_polys())
    base = TruncSeries(order, [1] + [draw(coeff) for _ in range(order)])
    e = draw(st.one_of(small_q, st.builds(felem_div, x_polys(), x_polys(nonzero=True))))
    return base, e


@settings(max_examples=60, deadline=None, derandomize=True)
@given(power_cases())
def test_power_agrees_with_exp_log_and_binomial_sum(case):
    base, e = case
    got = generalized_binomial_series(base, e)
    assert got == power_exp_log(base, e)
    assert got == power_binomial_sum(base, e)


def test_power_at_a_ratfunc_exponent():
    # (1 - t)^(-x/(1+x)): [t^1] = x/(1+x), [t^2] = e(e+1)/2
    x = MPoly.variable("x", X_ONLY)
    e = ratfunc(x, 1 + x)
    got = generalized_binomial_series(TruncSeries(3, [1, -1]), -e)
    assert felem_eq(got[1], e)
    assert felem_eq(got[2], e * (e + 1) * Fraction(1, 2))
    assert got == power_exp_log(TruncSeries(3, [1, -1]), -e)


# -- canonical division and denominator clearing ------------------------------

def test_felem_div_returns_the_canonical_form():
    a, b = variables("a b")
    cases = [
        (3, 6, Fraction, Fraction(1, 2)),
        (Fraction(1, 2), -2, Fraction, Fraction(-1, 4)),
        (a * a - b * b, a - b, MPoly, a + b),           # polynomial quotient
        (2 * a, 4, MPoly, a * Fraction(1, 2)),
        (a, MPoly.constant(2, a.vars), MPoly, a * Fraction(1, 2)),
        (1, MPoly.constant(2, a.vars), MPoly, Fraction(1, 2)),
        (0, a + b, MPoly, 0),
        (a, a + b, RatFunc, ratfunc(a, a + b)),         # not a polynomial
        (3, a, RatFunc, ratfunc(3, a)),
        (ratfunc(a, a + b), ratfunc(a, b * (a + b)), MPoly, b),
        (ratfunc(a * a, b), ratfunc(a, b), MPoly, a),
        (ratfunc(a, a + b), a, RatFunc, ratfunc(1, a + b)),
        (ratfunc(a, a + b), 2, RatFunc, ratfunc(a, 2 * (a + b))),
    ]
    for num, den, kind, want in cases:
        got = felem_div(num, den)
        assert type(got) is kind, (num, den, got)
        assert felem_eq(got, want), (num, den, got)
    with pytest.raises(ZeroDivisionError):
        felem_div(a, 0)
    # a zero numerator gives the zero over both variable tuples, as any
    # other numerator would; a zero denominator still raises
    zero = felem_div(MPoly.zero(("b",)), a + b)
    assert type(zero) is MPoly and zero.is_zero() and zero.vars == ("b", "a")
    with pytest.raises(ZeroDivisionError):
        felem_div(0 * a, 0 * a)


def test_num_den():
    a, b = variables("a b")
    assert num_den(Fraction(3, 4)) == (Fraction(3, 4), 1)
    n, d = num_den(a + b)
    assert n == a + b and d == 1
    # the reduced parts: the denominator integer-primitive, positive lead
    n, d = num_den(ratfunc(2 * a * b, -4 * b * (a + b)))
    assert n == -a * Fraction(1, 2) and d == a + b
    with pytest.raises(TypeError):
        num_den(0.5)


def test_clear_denominators_without_denominators():
    a, b = variables("a b")
    nums, L = clear_denominators([a, 2, ratfunc(a * b, b), Fraction(1, 3)], a.vars)
    assert type(L) is MPoly and L == 1 and L.vars == ("a", "b")
    assert nums == [a, 2, a, Fraction(1, 3)]
    assert type(nums[2]) is MPoly


def test_clear_denominators_with_one_shared_denominator():
    a, b = variables("a b")
    values = [ratfunc(a, a + b), ratfunc(b, a + b), 3]
    nums, L = clear_denominators(values, a.vars)
    assert L == a + b
    assert nums == [a, b, 3 * (a + b)]
    assert all(type(n) is MPoly for n in nums)


def test_clear_denominators_with_distinct_denominators():
    a, b = variables("a b")
    values = [ratfunc(1, a * (a + b)), ratfunc(a, b * (a + b)), b, ratfunc(1, a)]
    nums, L = clear_denominators(values, a.vars)
    assert L == a * b * (a + b)
    for v, n in zip(values, nums):
        assert type(n) is MPoly and felem_eq(felem_div(n, L), v)


def test_json_roundtrip():
    from gkpfrac.exactalg import mpoly_to_json, rational
    a, b = variables("a b")
    p = 3 * a * a - Fraction(1, 2) * b + 7
    d = mpoly_to_json(p)
    assert MPoly(d["vars"], {tuple(e): rational(c) for e, c in d["terms"]}) == p


def test_first_mismatch_returns_first_bad_key():
    x, y = variables("x y")
    cases = [("a", x + y, y + x), ("b", (x + y) ** 2, x * x + 2 * x * y + y * y),
             ("c", Fraction(1, 2), Fraction(2, 4))]
    assert first_mismatch(cases) is None
    assert mismatch_report(first_mismatch(cases)) == {"ok": True, "first_mismatch": None}
    # a rational function equal to a polynomial is no mismatch
    assert first_mismatch([("q", ratfunc(x * x - y * y, x - y), x + y)]) is None

    perturbed = list(cases)
    perturbed[1] = ("b", (x + y) ** 2, x * x + 2 * x * y + y * y + 1)
    perturbed[2] = ("c", Fraction(1, 2), Fraction(1, 3))
    assert first_mismatch(perturbed) == perturbed[1]
    assert mismatch_report(first_mismatch(perturbed)) == {"ok": False, "first_mismatch": "b"}


def test_first_mismatch_stops_at_the_mismatch():
    def cases():
        yield 0, 1, 1
        yield 1, 2, 3
        raise AssertionError("consumed past the first mismatch")

    assert first_mismatch(cases()) == (1, 2, 3)


def test_first_mismatch_refuses_a_float():
    # equal or not, a float on either side is no field element; the
    # comparison raises instead of deciding it
    x, = variables("x")
    for got, want in [(1.0, 1), (Fraction(1, 2), 0.5), (0.0, 0), (1.5, 2),
                      (0.5, x), (x, 0.5), (0.5, ratfunc(1, x))]:
        with pytest.raises(TypeError):
            first_mismatch([("k", got, want)])


# -- exact division against sympy as an independent oracle ---------------

NAMES = ("a", "b", "c", "d")


@st.composite
def mpoly_triples(draw):
    """Three random MPoly over one shared tuple of 2-4 variables."""
    vars = NAMES[:draw(st.integers(2, 4))]
    exps = st.tuples(*[st.integers(0, 3)] * len(vars))
    coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))

    def poly(min_size):
        return MPoly(vars, {e: int(c) if c.denominator == 1 else c for e, c in
                            draw(st.dictionaries(exps, coeffs, min_size=min_size,
                                                 max_size=5)).items()})

    return poly(0), poly(1), poly(0)


def sympy_div(num, den):
    """(quotient terms, remainder is zero) from sympy's division over QQ."""
    gens = sympy.symbols(num.vars)
    to_sympy = lambda p: sympy.Poly.from_dict(
        {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
         for e, c in p.terms.items()} or {(0,) * len(gens): 0}, gens, domain="QQ")
    q, r = sympy.div(to_sympy(num), to_sympy(den))
    terms = {e: Fraction(int(c.p), int(c.q)) for e, c in q.as_dict().items() if c}
    return terms, r.is_zero


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mpoly_triples())
def test_divide_exact_recovers_factor(polys):
    a, b, _ = polys
    assert divide_exact(a * b, b) == a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mpoly_triples())
def test_divide_exact_agrees_with_sympy(polys):
    a, b, r = polys
    num = a * b + r
    want, exact = sympy_div(num, b)
    got = divide_exact(num, b)
    if exact:
        assert got is not None and got.terms == want
    else:
        assert got is None


def test_divide_exact_term_that_cancels_and_reappears():
    # Dividing by y^2 + y + 2: the first step cancels the y^2 term of the
    # remainder, the second brings y^2 back, so y^2 is queued twice and the
    # older entry is stale when it comes up.
    x, y = variables("x y")
    b = y ** 2 + y + 2
    q = 2 * y ** 2 + y - 1
    assert divide_exact(b * q, b) == q
    assert divide_exact(b * q * x, b * x) == q


def test_divide_exact_fails_after_several_quotient_steps():
    x, y = variables("x y")
    b = y ** 2 + y + 2
    a = b * (2 * y ** 2 + y - 1) + x
    # the leading terms divide, so the failure comes at the stray x term
    (ea, _), (eb, _) = a.sorted_terms()[0], b.sorted_terms()[0]
    assert all(i >= j for i, j in zip(ea, eb))
    assert divide_exact(a, b) is None
    assert divide_exact(a - x, b) == 2 * y ** 2 + y - 1


# -- operands that need no pair loop, against the general loop -------------

def pair_loop(a, b):
    """The general product of MPoly ``a`` and a scalar or MPoly ``b``: every
    pair of terms collected, zeros dropped, n/1 back to an int."""
    a, b = a._coerce(b)
    ta, tb = a._terms, b._terms
    if ta and tb and (max(ta) + max(tb)) >> (len(a.vars) * FIELD_BITS) >= EXPONENT_LIMIT:
        raise OverflowError
    out = {}
    for kb, cb in tb.items():
        for ka, ca in ta.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return _mpoly(a.vars, {k: c if Fraction(c).denominator != 1 else Fraction(c).numerator
                           for k, c in out.items() if c})


def general_sum(x, y):
    """x + y with a scalar operand taken as a constant MPoly, so that the
    sum of two MPoly values does the work."""
    if isinstance(x, MPoly) and isinstance(y, MPoly):
        return x + y
    if isinstance(x, MPoly):
        return x + MPoly.constant(y, x.vars)
    if isinstance(y, MPoly):
        return y + MPoly.constant(x, y.vars)
    return x + y


def general_product(x, y):
    if isinstance(x, MPoly):
        return pair_loop(x, y)
    if isinstance(y, MPoly):
        return pair_loop(y, x)
    return x * y


def general_subs(p, mapping):
    """The substitution as the sum of the terms' products, with every
    variable built and every product and sum taken by the general path."""
    if not p._terms:
        return MPoly.zero(p.vars)
    vals = [mapping.get(v, MPoly.variable(v, p.vars)) for v in p.vars]
    acc = 0
    for e, c in p.terms.items():
        term = c
        for x, k in zip(vals, e):
            power = 1
            for _ in range(k):
                power = general_product(power, x)
            if k:
                term = general_product(term, power)
        acc = general_sum(term, acc)
    return acc


def assert_same(got, want):
    """Equal values of one type; for an MPoly also the same variable tuple,
    the same packed keys and the same coefficient types."""
    assert type(got) is type(want)
    if isinstance(want, MPoly):
        assert got.vars == want.vars
        assert got._terms == want._terms
        assert ({k: type(c) for k, c in got._terms.items()}
                == {k: type(c) for k, c in want._terms.items()})
    else:
        assert got == want


# Fraction(n, 1) stays a Fraction when stored by the constructor
COEFFS = st.one_of(st.integers(-4, 4).filter(bool),
                   st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)))
SCALARS = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4),
                                                   st.integers(1, 3)))
TUPLES = [("a", "b"), ("b", "a", "c"), ("c",)]


@st.composite
def operands(draw, scalars=True):
    """A scalar, or an MPoly that is zero, constant, a single term or a sum
    of two to four terms, over one of a few variable tuples."""
    kinds = ["zero", "constant", "term", "term", "poly", "poly"]
    kind = draw(st.sampled_from(kinds + ["scalar"] * scalars))
    if kind == "scalar":
        return draw(SCALARS)
    if kind in ("zero", "constant"):
        vars = draw(st.sampled_from(TUPLES + [()]))
        return MPoly(vars, {} if kind == "zero" else {(0,) * len(vars): draw(COEFFS)})
    vars = draw(st.sampled_from(TUPLES))
    exps = st.tuples(*[st.integers(0, 3)] * len(vars))
    n = 1 if kind == "term" else draw(st.integers(2, 4))
    return MPoly(vars, draw(st.dictionaries(exps, COEFFS, min_size=n, max_size=n)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(operands(), operands())
def test_products_match_the_pair_loop(x, y):
    assume(isinstance(x, MPoly) or isinstance(y, MPoly))
    assert_same(x * y, general_product(x, y))
    if isinstance(x, MPoly) and isinstance(y, Fraction) and y.denominator != 1:
        assert_same(x / y, pair_loop(x, 1 / y))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operands(scalars=False), SCALARS, st.booleans())
def test_scalar_sums_match_the_general_sum(p, s, cancel):
    if cancel:
        # the sum cancels the constant term, the difference leaves -2c
        s = -p._terms.get(0, 1)
    assert_same(p + s, general_sum(p, s))
    assert_same(s + p, general_sum(s, p))
    assert_same(p - s, general_sum(p, -s))
    assert_same(s - p, general_sum(s, -p))
    if cancel and 0 in p._terms:
        assert 0 not in (p + s)._terms



@settings(max_examples=300, deadline=None, derandomize=True)
@given(operands(scalars=False), operands(scalars=False))
def test_squares_and_differences_match_the_general_paths(p, q):
    # a square is taken when both operands share one term dict: the same
    # object, another MPoly over the same dict, or the base in __pow__
    square = pair_loop(p, p)
    assert_same(p * p, square)
    assert_same(p * _mpoly(p.vars, p._terms), square)
    assert_same(p ** 2, square)
    assert_same(p ** 3, pair_loop(square, p))
    # one-pass differences against the sum with the negation
    assert_same(p - q, general_sum(p, -q))
    assert_same(q - p, general_sum(q, -p))
    assert_same(p - p, general_sum(p, -p))

VALUES = st.one_of(SCALARS, operands(scalars=False),
                   st.sampled_from([MPoly.variable("x", ("x", "a")),
                                    MPoly.variable("a", ("a", "d"))]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operands(scalars=False), st.dictionaries(st.sampled_from("abd"), VALUES))
def test_subs_matches_the_general_sum(p, mapping):
    # mapped variables that are absent, that occur, or none at all
    assert_same(p.subs(mapping), general_subs(p, mapping))


def test_subs_of_a_constant_is_a_scalar():
    for c in (3, Fraction(-1, 2), Fraction(4, 1)):
        p = MPoly(("a", "b"), {(0, 0): c})
        for mapping in ({}, {"a": 2}, {"c": MPoly.variable("c", ("c",))}):
            assert_same(p.subs(mapping), c)
    a, b = variables("a b")
    assert_same((a + 1).subs({"b": 2}), a + 1)


def test_ratfunc_subs_to_scalars_is_a_fraction():
    a, x = variables("a x")
    got = ratfunc(a * x + 1, a + 1).subs({"x": 0, "a": 1})
    assert type(got) is Fraction and got == Fraction(1, 2)


def test_ratfunc_subs_with_a_zero_numerator_is_zero():
    a, c = variables("a c")
    got = ratfunc(a, c + 1).subs({"a": 0})
    assert isinstance(got, MPoly) and got.is_zero()


def test_ratfunc_subs_of_a_ratfunc_value():
    a, b, c = variables("a b c")
    value = ratfunc(a, c + 1)
    want = ratfunc((a + 1) * (c + 1), a + c + 1)
    assert felem_eq(ratfunc(a + 1, b + 1).subs({"b": value}), want)
    # MPoly / RatFunc is answered by RatFunc.__rtruediv__
    assert felem_eq((a + 1) / value, ratfunc((a + 1) * (c + 1), a))
    assert felem_eq(2 / value, ratfunc(2 * c + 2, a))


def test_single_term_factor_at_the_exponent_limit():
    top = EXPONENT_LIMIT - 1
    vars = ("x", "y")
    y = MPoly.variable("y", vars)
    near = MPoly(vars, {(top - 1, 0): 2, (1, 1): Fraction(1, 2)})
    assert_same(near * y, pair_loop(near, y))
    assert_same(y * near, pair_loop(near, y))
    at = MPoly(vars, {(top, 0): 2, (1, 1): Fraction(1, 2)})
    for factor in (y, MPoly(vars, {(0, 1): Fraction(3, 2)}),
                   MPoly(("y", "z"), {(1, 0): 5})):
        with pytest.raises(OverflowError):
            pair_loop(at, factor)
        with pytest.raises(OverflowError):
            at * factor
        with pytest.raises(OverflowError):
            factor * at
    # a constant factor leaves every degree where it is
    assert_same(at * MPoly.constant(Fraction(2, 3), vars),
                pair_loop(at, Fraction(2, 3)))


def test_bool_operands_are_rejected():
    a, b = variables("a b")
    for p in (a + b, a, MPoly.constant(2, ("a",)), MPoly.zero(("a",))):
        for flag in (True, False):
            for op in (lambda: p * flag, lambda: flag * p, lambda: p + flag,
                       lambda: flag + p, lambda: p - flag, lambda: flag - p):
                with pytest.raises(TypeError):
                    op()


# Input from outside and operands of the wrong kind: each guard raises its
# own exception, and a foreign operand gets Python's TypeError.
def _guard_cases():
    a, b = variables("a b")
    r = ratfunc(a, b)
    s = TruncSeries(2, [1, a, 0])
    return [
        (lambda: MPoly.constant(0.5, ("a",)), TypeError, "scalar must be int or Fraction"),
        (lambda: rational(0.5), TypeError, "floats are not accepted"),
        (lambda: MPoly(("a", "b"), {(1,): 1}), ValueError, "does not match 2 variables"),
        (lambda: a.terms[(1,)], KeyError, r"\(1,\)"),
        (lambda: a.terms[(-1, 0)], KeyError, r"\(-1, 0\)"),
        (lambda: a.terms[(EXPONENT_LIMIT, 0)], KeyError, str(EXPONENT_LIMIT)),
        (lambda: (a + b).constant_value(), ValueError, "not a constant polynomial"),
        (lambda: (a ** (EXPONENT_LIMIT - 1) + 1) * (a + 1), OverflowError,
         "product degree reaches"),
        (lambda: a ** -1, ValueError, "exponent must be a nonnegative int"),
        (lambda: a / 0, ZeroDivisionError, "^$"),
        (lambda: divide_exact(a, MPoly.zero(a.vars)), DivisionByZeroPolynomial,
         "division by zero polynomial"),
        (lambda: r.as_mpoly(), ValueError, "not a polynomial"),
        (lambda: RatFunc(MPoly.zero(a.vars), b).inv(), DivisionByZeroPolynomial,
         "inverse of zero"),
        (lambda: r / s, TypeError, "unsupported operand"),
        (lambda: s + 0.5, TypeError, "unsupported operand"),
        (lambda: s - 0.5, TypeError, "unsupported operand"),
        (lambda: s * 0.5, TypeError, "unsupported operand"),
        (lambda: s.compose(s), ValueError, "inner series must have zero constant term"),
        (lambda: series_exp(s), ValueError, "exp requires zero constant term"),
        (lambda: generalized_binomial_series(s.shift_up(), 2), ValueError,
         "base must have constant term 1"),
        (lambda: felem_to_json(0.5), TypeError, "float"),
    ]


@pytest.mark.parametrize("call, error, message", _guard_cases())
def test_guards_reject_what_they_cannot_take(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_scalar_forms_of_public_entry_points():
    a, b = variables("a b")
    zero = MPoly.zero(a.vars)
    assert rational(3) == Fraction(3) and type(rational(3)) is Fraction
    assert rational(Fraction(2, 6)) == Fraction(1, 3)
    assert zero.constant_value() == 0
    assert zero.content() == 1 and type(zero.content()) is Fraction
    for p, c in [(6 * a - 4 * b, 2), (a / 2 - Fraction(2, 3) * b, Fraction(1, 6))]:
        assert p.content() == c and type(p.content()) is Fraction
    assert mpoly_gcd(zero, zero) == zero


def test_ratfunc_compares_hashes_and_prints_like_its_value():
    a, b = variables("a b")
    r = ratfunc(a * b, b)                 # reduces to a, a RatFunc with den 1
    assert isinstance(r, RatFunc) and r.den == 1
    # MPoly == RatFunc is answered by the reflected RatFunc.__eq__
    assert a == r and r == a and r == RatFunc(a, MPoly.one(a.vars))
    assert ratfunc(a, b) != a and RatFunc(2 * b, b) == 2
    assert (r == "a") is False and (a == "a") is False
    assert hash(ratfunc(2 * a, 2 * b)) == hash(ratfunc(a, b))
    assert repr(r) == repr(a) == "a"
    assert repr(ratfunc(a, b)) == "(a)/(b)"


def test_ratfunc_minus_series_goes_to_the_series():
    a, b = variables("a b")
    s = TruncSeries(2, [1, a, 0])
    got = ratfunc(a, b) - s
    assert isinstance(got, TruncSeries)
    assert got == TruncSeries(2, [ratfunc(a, b) - 1, -a, 0])
    assert (s == "s") is False


def test_series_division_and_reciprocal():
    a, b = variables("a b")
    num = TruncSeries(3, [1, a, b, 0])
    den = TruncSeries(3, [2, 0, a, 1])
    quo = num / den
    assert quo == num * den.reciprocal()
    assert quo * den == num
    assert quo.coeffs[:2] == [Fraction(1, 2), a / 2]
    # a scalar divisor is a constant series
    assert num / 2 == num.scale(Fraction(1, 2))


def test_series_derivative_in_a_coefficient_variable():
    a, b = variables("a b")
    s = TruncSeries(3, [1, Fraction(1, 2), a * a * b, ratfunc(a, a + b)])
    got = s.deriv_coeff("a")
    assert got.coeffs[:3] == [0, 0, 2 * a * b]
    assert felem_eq(got.coeffs[3], ratfunc(b, (a + b) ** 2))
