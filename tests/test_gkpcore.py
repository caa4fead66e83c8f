import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from gkpfrac.exactalg import (
    EXPONENT_LIMIT, MPoly, as_field, felem_eq, felem_is_zero, felem_to_json, ratfunc, variables,
)
from gkpfrac.gkpcore import (
    CLOSED_FORMS, TWO_TERM, GKPParams, Triangle, UnknownFamily, _gkp_row_rule, _unroll_rows,
    binomial_like_triangle, closed_form_check,
    egf_trunc, gkp_triangle, gkpz_triangle, ogf_trunc,
    rescale_weight, residual_checks, row_polys, tilde_params,
    triangle_mismatch,
)

from helpers import gkp_rule


def test_stirling_subset_row():
    t = gkp_triangle((0, 1, 0, 0, 0, 1), 3)
    assert t.rows[3] == [0, 1, 3, 1]


def test_factorial_column():
    t = gkp_triangle((1, 0, 0, 0, 0, 0), 4)
    assert [t.rows[n][0] for n in range(5)] == [1, 1, 2, 6, 24]
    assert all(t.rows[n][k] == 0 for n in range(5) for k in range(1, n + 1))


def test_symbolic_first_row_and_P2():
    mu = GKPParams.symbolic()
    a, b, g, ap, bp, gp = mu
    t = gkp_triangle(mu, 2)
    assert t.entry(1, 0) == a + g
    assert t.entry(1, 1) == ap + bp + gp
    ps = row_polys(t)
    x = MPoly.variable("x", ps[1].vars)
    want = (a + g) * (2 * a + g) \
        + (4 * a * ap + b * ap + 3 * a * bp + b * bp + 3 * g * ap
           + 2 * g * bp + 3 * a * gp + b * gp + 2 * g * gp) * x \
        + (ap + bp + gp) * (2 * ap + 2 * bp + gp) * x ** 2
    assert ps[2] == want


def test_structural_triangularity_symbolic():
    mu = GKPParams.symbolic()
    t = gkp_triangle(mu, 8)
    for n in range(9):
        assert len(t.rows[n]) == n + 1
        assert t.entry(n, -1) == 0 and t.entry(n, n + 1) == 0


def test_row_polys_bell_and_trivial():
    t = gkp_triangle((0, 1, 0, 0, 0, 1), 3)
    ps = row_polys(t)
    x = MPoly.variable("x", ps[2].vars)
    assert ps[2] == x + x * x
    assert ogf_trunc(gkp_triangle((0, 1, 0, 0, 0, 1), 0)).coeffs == [1]


def test_egf_scaling():
    t = gkp_triangle((1, 0, 0, 0, 0, 0), 5)
    egf = egf_trunc(t)
    assert all(felem_eq(as_field(c), 1) for c in egf.coeffs)


def test_gkpz_degenerate_and_reductions():
    t1 = gkpz_triangle((0, 1, 2, 3, 4, 5, 0, 0), 6)
    t2 = gkp_triangle((0, 1, 2, 3, 4, 5), 6)
    assert t1 == t2

    # Zhu parameters with kappa = 0 agree with the self-dual J-family
    b, g, ap, gp = variables("beta gamma alphap gammap")
    z = gkpz_triangle((0, b, g, ap, -ap + 0 * b, gp, 0 * ap, 0), 8)
    f1c = gkp_triangle((0, b, g, ap, -ap, gp), 8)
    assert z == f1c

    # with alphap = 0 they reduce to the k-weighted family
    b, g, gp, kp = variables("beta gamma gammap kappa")
    z = gkpz_triangle((0, b, g, 0 * b, kp * b, gp, 0 * b, 0), 8)
    f7a = gkp_triangle((0, b, g, 0, kp * b, gp), 8)
    assert z == f7a


def test_binomial_like_pascal_and_gkp_rule():
    t = binomial_like_triangle(lambda n, k: (1, 1), 4)
    assert t.rows[4] == [1, 4, 6, 4, 1]
    mu = GKPParams.symbolic()
    assert binomial_like_triangle(gkp_rule(mu), 8) == gkp_triangle(mu, 8)


@pytest.mark.parametrize("kind", ["int", "Fraction", "MPoly", "RatFunc"])
def test_stepped_gkp_rows_match_the_direct_formula(kind):
    # gkp_triangle steps the weights along each row; binomial_like_triangle
    # evaluates gkp_rule's a*n + b*k + g at every entry
    a, b, g, ap, bp = variables("a b g ap bp", extra=("x",))
    mu = {"int": (1, -2, 3, 0, 2, -1),
          "Fraction": (Fraction(1, 2), 1, Fraction(-3, 2), 2, Fraction(1, 3), -1),
          "MPoly": (0, b, 1, ap, -ap, g),
          "RatFunc": (ratfunc(a, b), 1, 0, ratfunc(1, a), Fraction(1, 2), b)}[kind]
    got = gkp_triangle(mu, 6)
    want = binomial_like_triangle(gkp_rule(mu), 6)
    for n in range(7):
        for k in range(n + 1):
            x, y = got.entry(n, k), want.entry(n, k)
            assert type(x) is type(y), (n, k)
            assert getattr(x, "vars", None) == getattr(y, "vars", None), (n, k)
            assert json.dumps(felem_to_json(x)) == json.dumps(felem_to_json(y)), (n, k)



@st.composite
def rational_mus(draw):
    """Six int or Fraction parameters, zeros and negatives included, with
    integral and proper Fractions mixed within each triple, and N <= 10."""
    value = st.integers(-5, 5) | st.builds(Fraction, st.integers(-5, 5)) \
        | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return tuple(draw(value) for _ in range(6)), draw(st.integers(0, 10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_mus())
@example(((Fraction(2), 1, 0, 3, Fraction(-1), 0), 4))
@example(((1, 2, 3, Fraction(1, 2), 0, -1), 5))
@example(((Fraction(1, 2), 0, Fraction(-3, 4), 2, Fraction(5, 3), 0), 10))
def test_fraction_free_unroll_matches_the_fraction_unroll(case):
    # gkp_triangle unrolls rational mu on integers and divides each entry
    # once; the Fraction unroll fixes every value and every type
    mu, N = case
    got = gkp_triangle(mu, N).rows
    want = _unroll_rows(N, TWO_TERM, _gkp_row_rule(mu)).rows
    assert [[(type(c), c) for c in row] for row in got] == \
        [[(type(c), c) for c in row] for row in want]

def test_rescaling_product_formula_symbolic():
    # fully symbolic weight sequences at depth 5
    N = 5
    names = (["a%d%d" % (n, k) for n in range(1, N + 1) for k in range(n + 1)]
             + ["ad%d%d" % (n, k) for n in range(1, N + 1) for k in range(n + 1)]
             + ["c%d" % j for j in range(1, N + 1)]
             + ["d%d" % j for j in range(1, N + 1)]
             + ["e%d" % j for j in range(1, N + 1)])
    gens = dict(zip(names, variables(names)))

    def base(n, k):
        return gens["a%d%d" % (n, k)], gens["ad%d%d" % (n, k)]

    c = lambda j: gens["c%d" % j]
    d = lambda j: gens["d%d" % j]
    e = lambda j: gens["e%d" % j]
    def rescaled(n, k):
        # the weights (c_{n-k} e_n a_{n,k}, d_k e_n a'_{n,k})
        a_nk, ap_nk = base(n, k)
        return (c(n - k) * e(n) * a_nk if k <= n - 1 else 0,
                d(k) * e(n) * ap_nk if k >= 1 else 0)

    T = binomial_like_triangle(base, N)
    T2 = binomial_like_triangle(rescaled, N)
    for n in range(N + 1):
        for k in range(n + 1):
            want = rescale_weight(c, d, e, n, k) * T.entry(n, k)
            assert felem_eq(as_field(T2.entry(n, k)), as_field(want)), (n, k)


def test_residuals_symbolic():
    mu = GKPParams.symbolic()
    odes, pde = residual_checks(mu, 6)
    assert all(felem_is_zero(as_field(r)) for r in odes)
    assert pde.is_zero()


def test_residuals_numeric_and_trivial():
    odes, pde = residual_checks((0, 1, 0, 0, 0, 1), 10)
    assert all(felem_is_zero(as_field(r)) for r in odes)
    assert pde.is_zero()
    mu = GKPParams.symbolic()
    odes, _ = residual_checks(mu, 1)
    assert felem_is_zero(as_field(odes[0]))


def test_closed_forms():
    a, b, g, bp = variables("a b g bp")
    assert closed_form_check("2b", (a, b, g, bp), 8)["ok"]
    al, ap, bp2, gp = variables("al ap bp gp")
    assert closed_form_check("2a", (al, ap, bp2, gp), 8)["ok"]
    ap, bp, gp, kp = variables("ap bp gp kp")
    assert closed_form_check("6", (ap, bp, gp, kp), 6)["ok"]
    assert closed_form_check("stirling-cycle", (), 7)["ok"]
    t = gkp_triangle((1, 0, -1, 0, 0, 1), 3)
    assert t.rows[3] == [0, 2, 3, 1]
    s, = variables("s")
    assert closed_form_check("6-eulerian-s", (s,), 8)["ok"]
    nu, rho = variables("nu rho")
    assert closed_form_check("multifactorial-c", (nu, rho), 6)["ok"]
    assert closed_form_check("multifactorial-b", (nu, rho), 6)["ok"]
    a, g, ap, gp = variables("a g ap gp")
    assert closed_form_check("5", (a, g, ap, gp), 6)["ok"]
    assert closed_form_check("ordered-subset-shift", (), 8)["ok"]
    with pytest.raises(UnknownFamily):
        closed_form_check("nope", (), 3)


def test_closed_form_check_reports_first_wrong_entry(monkeypatch):
    def perturbed(params):
        mu, entry = CLOSED_FORMS["stirling-cycle"](params)
        # wrong from (3, 1) on; (4, 2) is wrong too but comes later
        return mu, lambda n, k: entry(n, k) + (1 if (n, k) in ((3, 1), (4, 2)) else 0)

    monkeypatch.setitem(CLOSED_FORMS, "perturbed", perturbed)
    rep = closed_form_check("perturbed", (), 6)
    assert rep == {"id": "perturbed", "ok": False, "first_mismatch": {"n": 3, "k": 1}}
    assert closed_form_check("perturbed", (), 2)["ok"]


def test_triangle_mismatch_reads_rows_first_to_n_and_stops_at_the_first_failure():
    t = gkp_triangle((1, 2, 3, 1, 1, 1), 4)
    read, asked = [], []

    class Spy:
        def entry(self, n, k):
            read.append((n, k))
            return t.entry(n, k)

    def off_at(*cells):
        def want(n, k):
            asked.append((n, k))
            return t.entry(n, k) + (1 if (n, k) in cells else 0)
        return want

    # row 0 is wrong, but first=1 never reads it
    assert triangle_mismatch(Spy(), off_at((0, 0)), 4, first=1) \
        == {"ok": True, "first_mismatch": None}
    every = [(n, k) for n in range(1, 5) for k in range(n + 1)]
    assert read == asked == every
    assert triangle_mismatch(Spy(), off_at((0, 0)), 4) \
        == {"ok": False, "first_mismatch": {"n": 0, "k": 0}}
    # the last row is compared; nothing after (3, 1) is computed
    assert triangle_mismatch(Spy(), off_at((4, 4)), 4, first=1)["first_mismatch"] \
        == {"n": 4, "k": 4}
    read.clear(), asked.clear()
    assert triangle_mismatch(Spy(), off_at((3, 1), (4, 2)), 4, first=1) \
        == {"ok": False, "first_mismatch": {"n": 3, "k": 1}}
    assert read == asked == every[:every.index((3, 1)) + 1]


def test_duality_consistency():
    from gkpfrac.symmetry import D, apply_map
    mu = GKPParams.symbolic()
    t = gkp_triangle(mu, 8)
    td = gkp_triangle(apply_map(D, mu), 8)
    for n in range(9):
        for k in range(n + 1):
            assert felem_eq(as_field(td.entry(n, k)), as_field(t.entry(n, n - k)))


def test_tilde_reparametrization():
    tilde = variables("ta tb tg tap tbp tgp")
    mu = tilde_params(tilde)
    t = gkp_triangle(mu, 6)
    ta, tb, tg, tap, tbp, tgp = tilde

    def shifted_rule(n, k):
        return (ta * (n - 1) + tb * k + tg,
                tap * (n - 1) + tbp * (k - 1) + tgp)

    t2 = binomial_like_triangle(shifted_rule, 6)
    assert t == t2


def test_row_polynomial_closed_forms():
    # diagonal and column families, and the two self-dual product forms
    from math import prod
    al, ap, bp, gp = variables("al ap bp gp")
    ps = row_polys(gkp_triangle((al, -al, -al, ap, bp, gp), 6))
    x = MPoly.variable("x", ps[1].vars)
    for n in range(7):
        want = x ** n * prod(gp + j * (ap + bp) for j in range(1, n + 1))
        assert felem_eq(as_field(ps[n]), as_field(want))
    a, b, g, bp2 = variables("a b g bp")
    ps = row_polys(gkp_triangle((a, b, g, 0, bp2, -bp2), 6))
    for n in range(7):
        want = prod(g + j * a for j in range(1, n + 1))
        assert felem_eq(as_field(ps[n]), as_field(want))
    a, g, ap, gp = variables("a g ap gp")
    ps = row_polys(gkp_triangle((a, 0, g, ap, 0, gp), 6))
    x = MPoly.variable("x", ps[1].vars)
    for n in range(7):
        want = prod((g + gp * x) + k * (a + ap * x) for k in range(1, n + 1))
        assert felem_eq(as_field(ps[n]), as_field(want))
    ap, bp, gp, kp = variables("ap bp gp kp")
    ps = row_polys(gkp_triangle((kp * (ap + bp), kp * bp, kp * gp,
                                 ap, bp, gp), 6))
    x = MPoly.variable("x", ps[1].vars)
    for n in range(7):
        want = (kp + x) ** n * prod(gp + j * (ap + bp)
                                    for j in range(1, n + 1))
        assert felem_eq(as_field(ps[n]), as_field(want))


def test_guards_reject_what_they_cannot_take():
    a, = variables("a")
    with pytest.raises(ValueError, match="need 6 parameters"):
        GKPParams.of((1, 2, 3))
    with pytest.raises(ValueError, match="row 1 must have 2 entries"):
        Triangle([[1], [1]])
    # T(1,1) = a^(limit-1) fits a key; its row-polynomial term a^(limit-1) x
    # does not
    t = gkp_triangle((0, 0, 1, 0, 0, a ** (EXPONENT_LIMIT - 1)), 1)
    with pytest.raises(OverflowError, match="product degree reaches %d" % EXPONENT_LIMIT):
        row_polys(t)


def test_triangle_equality_and_repr():
    t = gkp_triangle((0, 0, 1, 0, 0, 1), 3)
    assert t == gkp_triangle((0, 0, 1, 0, 0, 1), 3)
    assert t != gkp_triangle((0, 0, 1, 0, 0, 1), 2)
    assert (t == t.rows) is False
    assert repr(t) == "Triangle(order=3)"
