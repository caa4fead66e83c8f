"""``row_polys`` places each entry T(n,k) by shifting its packed keys by k
times the key of x.  The summation it replaced, T(n,k) * x**k added up
entry by entry, is kept below as a test-only oracle: every row must come
out with the same type, variable tuple, terms and coefficient types."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gkpfrac import gkpcore
from gkpfrac.exactalg import (
    MPoly, RatFunc, TruncSeries, as_field, felem_eq, felem_is_zero, ratfunc,
    variables,
)
from gkpfrac.gkpcore import (
    GKPParams, Triangle, egf_trunc, gkp_triangle, gkpz_triangle, residual_checks,
    row_polys,
)

TUPLES = [(), ("a",), ("a", "b"), ("b", "a"), ("a", "b", "x"), ("x", "a"),
          ("b", "x", "a"), ("x",)]


def summed_row_polys(t):
    """Test-only oracle: the former summation of T(n,k) * x**k."""
    vars = gkpcore._xvar_for([c for row in t.rows for c in row])
    x = MPoly.variable("x", vars)
    out = []
    for row in t.rows:
        p = 0
        for k, c in enumerate(row):
            if felem_is_zero(as_field(c)):
                continue
            p = p + c * x ** k
        out.append(p if not isinstance(p, int) else MPoly.constant(p, vars))
    return out


def form(p):
    """Type, variable tuple and typed terms: what a JSON report shows."""
    def terms(q):
        return [(e, c, type(c)) for e, c in q.sorted_terms()]
    if isinstance(p, RatFunc):
        return RatFunc, p.vars, terms(p.num), p.den.vars, terms(p.den)
    return type(p), p.vars, terms(p)


# scalar entries: int, Fraction, and Fraction with denominator 1, which the
# products normalize to int
fracs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).map(
    lambda q: q.numerator if q.denominator == 1 and q.numerator % 2 else q)


@st.composite
def polys(draw, with_x=True):
    vars = draw(st.sampled_from([v for v in TUPLES if with_x or "x" not in v]))
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    coeffs = fracs.filter(bool).map(lambda q: int(q) if q.denominator == 1 else q)
    return MPoly(vars, draw(st.dictionaries(exps, coeffs, max_size=3)))


@st.composite
def entries(draw, rational):
    kinds = ["int", "fraction", "poly", "zero"] + (["ratfunc"] if rational else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return draw(st.integers(-4, 4))
    if kind == "fraction":
        return draw(fracs)
    if kind == "zero":
        return draw(st.sampled_from([0, Fraction(0), MPoly.zero(("a", "b"))]))
    if kind == "poly":
        return draw(polys())
    num, den = draw(polys()), draw(polys(with_x=False))
    return RatFunc(num, den if den else den + 1)


@st.composite
def triangles(draw):
    order = draw(st.integers(0, 4))
    rational = draw(st.integers(0, 2)) == 0
    return Triangle([[draw(entries(rational)) for _ in range(n + 1)]
                     for n in range(order + 1)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(triangles())
def test_key_shift_matches_the_summation(t):
    got, want = row_polys(t), summed_row_polys(t)
    assert len(got) == len(want) == t.order + 1
    assert [form(p) for p in got] == [form(p) for p in want]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2), "a", "b"]),
                min_size=8, max_size=8),
       st.integers(1, 6))
def test_four_term_triangles_match_the_summation(params, N):
    a, b = variables(("a", "b"), extra=("x",))
    mu = [{"a": a, "b": b}.get(p, p) if isinstance(p, str) else p for p in params]
    t = gkpz_triangle(mu, N)
    assert [form(p) for p in row_polys(t)] == [form(p) for p in summed_row_polys(t)]


def test_rows_over_other_variable_tuples_keep_the_summed_tuple():
    a, b = variables("a b")
    ba = MPoly.variable("b", ("b", "a"))
    t = Triangle([[1], [a, Fraction(2, 4)], [0, ba * a, MPoly.zero(("c",))]])
    got = row_polys(t)
    assert [p.vars for p in got] == [("a", "b", "x")] * 2 + [("b", "a", "x")]
    assert [form(p) for p in got] == [form(p) for p in summed_row_polys(t)]


def egf_pde_residual(mu, N):
    """Test-only oracle: the PDE residual computed on the egf itself, whose
    coefficients P_n/n! come from ``egf_trunc``."""
    a, b, g, ap, bp, gp = GKPParams.of(mu)
    t = gkpcore.gkp_triangle(mu, N)
    x = MPoly.variable("x", row_polys(t)[1].vars)
    F = egf_trunc(t)
    lhs = TruncSeries(N - 1, [1, -(a + ap * x)]) * F.deriv_t()
    rhs = F.truncate(N - 1).scale(a + g + (ap + bp + gp) * x) \
        + F.deriv_coeff("x").truncate(N - 1).scale(b * x + bp * x * x)
    return lhs - rhs


def same_series(got, want):
    """Equal orders and, coefficient by coefficient, equal values, types and
    variable tuples."""
    return got.order == want.order and all(
        type(c) is type(w) and getattr(c, "vars", None) == getattr(w, "vars", None)
        and felem_eq(c, w) for c, w in zip(got.coeffs, want.coeffs))


def test_residual_checks_read_the_unrolled_triangle(monkeypatch):
    # the rows come from the triangle, not from the recurrence being
    # checked: one wrong entry must leave a nonzero residual, in the ODE
    # and in the PDE, and the PDE residual is the egf's own
    mu = GKPParams.symbolic()
    odes, _ = residual_checks(mu, 5)
    assert all(r.is_zero() for r in odes)
    _, pde = residual_checks(mu, 6)
    assert pde.is_zero() and same_series(pde, egf_pde_residual(mu, 6))
    unrolled = gkp_triangle

    def wrong(mu, N):
        t = unrolled(mu, N)
        rows = [list(r) for r in t.rows]
        rows[3][1] = rows[3][1] + 1
        return Triangle(rows)

    monkeypatch.setattr(gkpcore, "gkp_triangle", wrong)
    odes, pde = residual_checks(mu, 5)
    assert [n for n, r in enumerate(odes, 1) if not r.is_zero()] == [3, 4]
    assert not pde.is_zero() and same_series(pde, egf_pde_residual(mu, 5))


def test_residual_checks_take_rational_function_rows():
    # a RatFunc parameter makes the rows P_n, n >= 1, RatFunc values, which
    # the ODE step and the PDE differentiate by the quotient rule
    a, b = variables("a b")
    mu = (ratfunc(a, b), 1, 0, 2, b, 1)
    assert all(isinstance(p, RatFunc) for p in row_polys(gkp_triangle(mu, 4))[1:])
    odes, pde = residual_checks(mu, 4)
    assert len(odes) == 4 and all(felem_is_zero(r) for r in odes)
    assert pde.order == 3 and pde.is_zero()
