from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from gkpfrac.exactalg import (
    MPoly, TruncSeries, as_field, felem_eq, first_mismatch, variables,
)
from gkpfrac.gkpcore import gkp_triangle, ogf_trunc
from gkpfrac.cfrac import (
    CFrac, InsufficientDepth, NonExtractableSeries, NotContractible,
    binomial_transform_seq, contract, eval_cfrac, eval_jr,
    eval_sr, eval_tr, extract_jfrac, extract_sfrac, transform_laws,
)
from helpers import cfrac_confirms


def sym_c(m, extra=()):
    names = ["c%d" % i for i in range(1, m + 1)]
    return variables(names, extra=extra)


def test_factorial_sfrac():
    fac = TruncSeries(6, [1, 1, 2, 6, 24, 120, 720])
    cf = extract_sfrac(fac, 5)
    assert list(cf.c) == [1, 1, 2, 2, 3]
    assert cf.terminated_at is None


def test_bell_sfrac():
    ogf = ogf_trunc(gkp_triangle((0, 1, 0, 0, 0, 1), 7))
    cf = extract_sfrac(ogf, 6)
    x = MPoly.variable("x", ("x",))
    want = [x, 1, x, 2, x, 3]
    assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(cf.c, want))


def test_terminated_extraction():
    cf = extract_sfrac(TruncSeries(5, [1]), 5)
    assert cf.terminated_at == 1 and cf.c == ()
    with pytest.raises(NonExtractableSeries):
        extract_sfrac(TruncSeries(4, [1, 0, 1]), 4)
    with pytest.raises(InsufficientDepth):
        extract_sfrac(TruncSeries(3, [1, 1, 2, 6]), 5)


def test_eval_sr_factorials_and_S3():
    s = eval_sr([1, 1, 2, 2, 3, 3], 6)
    assert s.coeffs == [1, 1, 2, 6, 24, 120, 720]
    c = sym_c(3)
    s = eval_sr(c, 3)
    c1, c2, c3 = c
    assert felem_eq(as_field(s.coeffs[3]),
                    c1 ** 3 + 2 * c1 ** 2 * c2 + c1 * c2 ** 2 + c1 * c2 * c3)


def test_eval_sr_dyck_path_oracle():
    # independent oracle: weighted Dyck paths, weight c_i on a fall from
    # height i
    def dyck_sum(c, n):
        paths = []

        def walk(h, steps, weight):
            if steps == 2 * n:
                if h == 0:
                    paths.append(weight)
                return
            if 2 * n - steps < h:
                return
            walk(h + 1, steps + 1, weight)
            if h > 0:
                walk(h - 1, steps + 1, weight * c[h - 1])

        walk(0, 0, MPoly.one(c[0].vars))
        acc = 0
        for w in paths:
            acc = acc + w
        return acc

    c = sym_c(4)
    s = eval_sr(c, 4)
    for n in range(5):
        assert felem_eq(as_field(s.coeffs[n]), as_field(dyck_sum(c, n))), n


def test_eval_tr_zero_d_is_sr():
    c = sym_c(6)
    assert eval_tr(c, [0] * 6, 6) == eval_sr(c, 6)


def test_jfrac_factorials_and_geometric():
    cf = extract_jfrac(TruncSeries(6, [1, 1, 2, 6, 24, 120, 720]), 3)
    assert list(cf.e) == [1, 3, 5] and list(cf.f) == [1, 4, 9]
    geo = TruncSeries(6, [1] * 7)
    cf = extract_jfrac(geo, 3)
    assert list(cf.e) == [1] and cf.terminated_at == 1
    assert eval_cfrac(cf, 6) == geo


def test_roundtrip_symbolic_S_depth8():
    c = sym_c(8)
    back = extract_sfrac(eval_sr(c, 8), 8)
    assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(back.c, c))


def test_roundtrip_symbolic_J_depth4():
    enames = ["e%d" % i for i in range(4)]
    fnames = ["f%d" % i for i in range(1, 5)]
    gens = variables(enames + fnames)
    e, f = gens[:4], gens[4:]
    back = extract_jfrac(eval_jr(e, f, 8), 4)
    assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(back.e, e))
    assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(back.f, f))


def test_contraction_identities():
    c = sym_c(12)
    j = contract(CFrac("S", c=c[:6]))
    c1, c2, c3, c4 = c[:4]
    assert felem_eq(as_field(j.e[0]), c1)
    assert felem_eq(as_field(j.e[1]), c2 + c3)
    assert felem_eq(as_field(j.f[0]), c1 * c2)
    assert felem_eq(as_field(j.f[1]), c3 * c4)
    for m in (4, 6):
        jf = contract(CFrac("S", c=c[: 2 * m]))
        assert eval_cfrac(jf, 2 * m) == eval_sr(c[: 2 * m], 2 * m)


def test_contraction_T_variant():
    c = sym_c(12, extra=["d%d" % i for i in range(1, 13)])
    reg = c[0].vars
    d = tuple(MPoly.variable("d%d" % i, reg) if i % 2 == 1 else 0
              for i in range(1, 13))
    j = contract(CFrac("T", c=c, d=d))
    assert felem_eq(as_field(j.e[0]), c[0] + d[0])
    assert eval_cfrac(j, 12) == eval_tr(c, d, 12)
    bad = tuple(MPoly.variable("d%d" % i, reg) for i in range(1, 13))
    with pytest.raises(NotContractible):
        contract(CFrac("T", c=c, d=bad))


@pytest.mark.parametrize("length", range(1, 8))
def test_contraction_of_ragged_bundles(length):
    # odd and even len(c); d shorter than c, as long, or longer
    c = sym_c(8, extra=["d%d" % i for i in range(1, 10)])[:length]
    reg = c[0].vars
    ds = [MPoly.variable("d%d" % i, reg) if i % 2 else 0 for i in range(1, 10)]
    for dlen in range(1, length + 2):
        d = ds[:dlen]
        j = contract(CFrac("T", c=c, d=d))
        # 1-based: f_n = c_{2n-1} c_{2n}, e_0 = c_1 + d_1,
        # e_n = c_{2n} + c_{2n+1} + d_{2n+1} (d_{2n+1} = 0 past the end of d)
        cc = lambda i: c[i - 1]
        dd = lambda i: d[i - 1] if i <= dlen else 0
        want_f = [cc(2 * n - 1) * cc(2 * n) for n in range(1, length // 2 + 1)]
        want_e = [cc(1) + dd(1)] + [cc(2 * n) + cc(2 * n + 1) + dd(2 * n + 1)
                                    for n in range(1, (length + 1) // 2)]
        assert len(j.e) == len(want_e) and len(j.f) == len(want_f)
        assert all(felem_eq(as_field(g), as_field(w)) for g, w in zip(j.e, want_e))
        assert all(felem_eq(as_field(g), as_field(w)) for g, w in zip(j.f, want_f))
    s = contract(CFrac("S", c=c))
    assert (len(s.e), len(s.f)) == ((length + 1) // 2, length // 2)


def test_contract_empty():
    assert contract(CFrac("S", c=())).kind == "J"


def test_binomial_transform():
    fac = TruncSeries(4, [1, 1, 2, 6, 24])
    assert binomial_transform_seq(fac, 1).coeffs == [1, 2, 5, 16, 65]
    a = variables(["a%d" % i for i in range(4)], extra=("xi",))
    xi = MPoly.variable("xi", a[0].vars)
    bt = binomial_transform_seq(TruncSeries(3, list(a)), xi)
    a0, a1, a2, a3 = a
    assert felem_eq(as_field(bt.coeffs[3]),
                    a0 * xi ** 3 + 3 * a1 * xi ** 2 + 3 * a2 * xi + a3)
    assert binomial_transform_seq(fac, 0) == fac


def test_euler_substitution_law_symbolic_order12():
    a = variables(["a%d" % i for i in range(13)], extra=("xi",))
    xi = MPoly.variable("xi", a[0].vars)
    # binomial_transform_seq raises if summation and substitution disagree
    binomial_transform_seq(TruncSeries(12, list(a)), xi)


def test_transform_laws():
    c = sym_c(6, extra=("xi",))
    xi = MPoly.variable("xi", c[0].vars)
    t = transform_laws("S->T", c, xi, verify_order=6)
    assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(t.c, c))
    assert felem_eq(as_field(t.d[0]), xi) and felem_eq(as_field(t.d[1]), 0)

    j = transform_laws("J->J", (c[:3], c[3:]), xi, verify_order=6)
    assert felem_eq(as_field(j.e[0]), c[0] + xi)

    s2j = transform_laws("S->J", c, xi, verify_order=6)
    assert felem_eq(as_field(s2j.e[0]), c[0] + xi)

    d = tuple(MPoly.variable("xi", c[0].vars) * 0 + (c[i] if i % 2 == 0 else 0)
              for i in range(6))
    t2 = transform_laws("T->T", (c, d), xi, verify_order=6)
    assert felem_eq(as_field(t2.d[0]), d[0] + xi)
    t2j = transform_laws("T->J", (c, d), xi, verify_order=6)
    assert felem_eq(as_field(t2j.e[0]), c[0] + d[0] + xi)

    # xi = 0 leaves everything unchanged
    t0 = transform_laws("S->T", c, 0)
    assert all(felem_eq(as_field(v), 0) for v in t0.d)


def _off_at(series, n):
    """``series`` with 1 added to its t^n coefficient."""
    coeffs = list(series.coeffs)
    coeffs[n] = coeffs[n] + 1
    return TruncSeries(series.order, coeffs)


def test_binomial_cross_checks_name_the_first_differing_power(monkeypatch):
    from gkpfrac import cfrac
    compose = TruncSeries.compose
    with monkeypatch.context() as patch:
        patch.setattr(TruncSeries, "compose", lambda a, inner: _off_at(compose(a, inner), 3))
        with pytest.raises(ArithmeticError,
                           match=r"^binomial transform laws disagree at t\^3$"):
            binomial_transform_seq(TruncSeries(5, [1, 1, 2, 6, 24, 120]), 2)
    c = sym_c(6, extra=("xi",))
    xi = MPoly.variable("xi", c[0].vars)
    monkeypatch.setattr(cfrac, "binomial_transform_seq",
                        lambda a, x: _off_at(binomial_transform_seq(a, x), 2))
    with pytest.raises(ArithmeticError,
                       match=r"^J->J transform law failed verification at t\^2$"):
        transform_laws("J->J", (c[:3], c[3:]), xi, verify_order=6)


def test_transform_commutes_with_contraction():
    c = sym_c(9, extra=("xi",))
    xi = MPoly.variable("xi", c[0].vars)
    via_T = contract(transform_laws("S->T", c, xi))
    direct = transform_laws("S->J", c, xi)
    for a, b in zip(via_T.e, direct.e):
        assert felem_eq(as_field(a), as_field(b))
    for a, b in zip(via_T.f, direct.f):
        assert felem_eq(as_field(a), as_field(b))


def test_insufficient_depth_eval():
    with pytest.raises(InsufficientDepth, match=r"order 5 needs 5 levels, got 2$"):
        eval_sr([1, 2], 5)
    with pytest.raises(InsufficientDepth,
                       match=r"order 5 needs 5 levels, got 2 c and 1 d$"):
        eval_tr([1, 2], [1], 5)
    with pytest.raises(InsufficientDepth,
                       match=r"order 5 needs 3 e and 2 f levels, got 1 and 1$"):
        eval_jr([1], [1], 5)


def test_cfrac_json():
    cf = CFrac("S", c=(1, Fraction(1, 2)), terminated_at=None)
    d = cf.to_json()
    assert d["kind"] == "S" and d["c"] == ["1", "1/2"]
    assert d["terminated_at"] is None


def test_extraction_with_rational_function_coefficients():
    # series whose coefficients carry a parameter denominator: the
    # extraction clears it and still reproduces the polynomial-in-x rule
    from gkpfrac.exactalg import RatFunc, ratfunc
    from gkpfrac.gkpcore import gkp_triangle, ogf_trunc
    a, g, gp = variables("alpha gamma gammap")
    mu = (a, -a, g, a * gp / (a + g), -a * gp / (a + g), gp)
    ogf = ogf_trunc(gkp_triangle(mu, 4))
    assert any(isinstance(c, RatFunc) for c in ogf.coeffs)
    cf = extract_sfrac(ogf, 4)
    kappa = ratfunc(gp, a + g)
    x = MPoly.variable("x", ("alpha", "gamma", "gammap", "x"))
    for i, got in enumerate(cf.c, start=1):
        k = (i + 1) // 2
        want = (g + k * a) * (1 + kappa * x) if i % 2 else k * a
        assert felem_eq(as_field(got), as_field(want)), i


def test_extraction_with_coefficients_over_different_variables():
    # TruncSeries keeps each coefficient's own variable tuple, so the
    # content strip must bring them to one tuple before any gcd
    y1 = MPoly(("y",), {(1,): 1, (0,): 1})
    x1 = MPoly(("x", "y"), {(1, 0): 1, (0, 0): 1})
    cf = extract_sfrac(TruncSeries(2, [1, y1, x1]), 1)
    assert felem_eq(as_field(cf.c[0]), as_field(y1))
    xy = ("x", "y")
    mixed = [1, y1, x1 * y1, y1 * y1 * x1 + 1]
    same = [c.in_vars(xy) if isinstance(c, MPoly) else c for c in mixed]
    got = extract_sfrac(TruncSeries(4, mixed), 3).c
    want = extract_sfrac(TruncSeries(4, same), 3).c
    assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(got, want))


def test_jfrac_inconsistent_tail():
    with pytest.raises(NonExtractableSeries):
        extract_jfrac(TruncSeries(4, [1, 0, 0, 1]), 2)


# -- S-fraction round trip as a property -------------------------------------

@st.composite
def sfrac_coefficients(draw):
    """1-4 nonzero polynomial coefficients over 2-3 shared variables."""
    vars = ("p", "q", "r")[:draw(st.integers(2, 3))]
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    terms = st.dictionaries(exps, coeffs, min_size=1, max_size=3)
    return [MPoly(vars, {e: int(c) if c.denominator == 1 else c
                         for e, c in draw(terms).items()})
            for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sfrac_coefficients())
def test_sfrac_roundtrip_property(c):
    # exact division, gcd and RatFunc reduction all sit on this path
    m = len(c)
    back = extract_sfrac(eval_sr(c, m), m)
    assert back.terminated_at is None and len(back.c) == m
    assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(back.c, c))


# -- deciding a predicted S-fraction on the series ---------------------------

def first_difference(a, b):
    """The first n at which the series a and b differ, or None."""
    bad = first_mismatch(zip(count(), a.coeffs, b.coeffs))
    return None if bad is None else bad[0]


@st.composite
def nonzero_sfracs(draw):
    """(c, j, delta): 1-6 nonzero Fraction coefficients or 1-4 nonzero MPoly
    coefficients over 2-3 variables, a level j and a nonzero change."""
    fracs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    if draw(st.booleans()):
        coeff, size = fracs, 6
    else:
        vars = ("p", "q", "r")[:draw(st.integers(2, 3))]
        exps = st.tuples(*[st.integers(0, 1)] * len(vars))
        coeff = st.builds(MPoly, st.just(vars),
                          st.dictionaries(exps, fracs, min_size=1, max_size=2))
        size = 4
    c = draw(st.lists(coeff, min_size=1, max_size=size))
    return c, draw(st.integers(1, len(c))), draw(coeff)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(nonzero_sfracs())
def test_series_decides_a_nonzero_prediction(case):
    # [t^n] = c_1...c_n + (terms in c_1..c_{n-1}), so a change of c_j moves
    # t^j first, by c_1...c_{j-1} * delta
    c, j, delta = case
    N = len(c)
    a = eval_sr(c, N)
    back = extract_sfrac(a, N)
    assert back.terminated_at is None
    assert all(felem_eq(as_field(x), as_field(y)) for x, y in zip(back.c, c))
    assert cfrac_confirms(a, CFrac("S", c=tuple(c)))
    bent = c[:j - 1] + [c[j - 1] + delta] + c[j:]
    assert first_difference(a, eval_sr(bent, N)) == j
    assert not cfrac_confirms(a, CFrac("S", c=tuple(bent)))


def test_a_predicted_zero_is_left_to_extraction():
    # 1, 2, 0, 7 has the series of the finite fraction 1, 2: the series
    # agrees at every order, and extraction stops at level 3, where the
    # prediction, which states no end, ends at its first zero
    a = eval_sr([1, 2, 0, 0, 0], 5)
    assert first_difference(a, eval_sr([1, 2, 0, 7, 1], 5)) is None
    assert extract_sfrac(a, 5).terminated_at == 3
    assert cfrac_confirms(a, CFrac("S", c=(1, 2, 0, 7, 1)))
    assert cfrac_confirms(a, CFrac("S", c=(1, 2), terminated_at=3))
    # the same finite fraction claimed to end one level late, at level 4:
    # a zero before a stated end is left to extraction
    assert not cfrac_confirms(a, CFrac("S", c=(1, 2, 0), terminated_at=4))
    # a list shorter than its termination point cannot be decided either
    assert not cfrac_confirms(a, CFrac("S", c=(1,), terminated_at=3))
    # a termination point beyond the order is not claimed: c_1, c_2 agree
    assert cfrac_confirms(a.truncate(2), CFrac("S", c=(1, 2), terminated_at=3))
    assert not cfrac_confirms(a.truncate(2), CFrac("S", c=(1, 3), terminated_at=3))
    # a nonzero c_3 moves t^3 first; the terminated claim sees it
    assert first_difference(a, eval_sr([1, 2, 3, 0, 0], 5)) == 3
    assert not cfrac_confirms(a, CFrac("S", c=(1, 2, 3), terminated_at=4))
    assert not cfrac_confirms(a, CFrac("S", c=(1, 2, 3)))


# -- the path evaluator against the bottom-up reciprocal loops ---------------

def _bottom_up_sr(c, order):
    """Test-only copy of the former evaluators: one reciprocal per level."""
    h = TruncSeries.one(order)
    for ci in reversed(c[:order]):
        h = (TruncSeries.one(order) - h.shift_up().scale(ci)).reciprocal()
    return h


def _bottom_up_tr(c, d, order):
    h = TruncSeries.one(order)
    t = TruncSeries(order, [0, 1])
    for ci, di in reversed(list(zip(c[:order], d[:order]))):
        h = (TruncSeries.one(order) - t.scale(di) - h.shift_up().scale(ci)).reciprocal()
    return h


def _bottom_up_jr(e, f, order):
    h = TruncSeries.one(order)
    t = TruncSeries(order, [0, 1])
    for j in range((order + 1) // 2 - 1, -1, -1):
        u = TruncSeries.one(order) - t.scale(e[j])
        if j < len(f):
            u = u - h.shift_up(2).scale(f[j])
        h = u.reciprocal()
    return h


@st.composite
def cfrac_bundles(draw):
    """(kind, coefficient lists, order): Fraction coefficients up to order 9
    or MPoly coefficients over 2-3 variables up to order 5; zeros (int and
    the zero polynomial) included, lists possibly longer than needed."""
    fracs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).map(
        lambda q: q.numerator if q.denominator == 1 else q)
    if draw(st.booleans()):
        coeff, order = fracs, draw(st.integers(0, 9))
    else:
        vars = ("p", "q", "r")[:draw(st.integers(2, 3))]
        exps = st.tuples(*[st.integers(0, 1)] * len(vars))
        terms = st.dictionaries(exps, fracs.filter(bool), max_size=2)
        coeff = st.one_of(st.just(0), st.builds(MPoly, st.just(vars), terms))
        order = draw(st.integers(0, 5))

    def seq(n):
        return draw(st.lists(coeff, min_size=n, max_size=n + 1))

    kind = draw(st.sampled_from("STJ"))
    if kind == "S":
        return kind, (seq(order),), order
    if kind == "T":
        return kind, (seq(order), seq(order)), order
    return kind, (seq((order + 1) // 2), seq(order // 2)), order


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfrac_bundles())
def test_path_evaluator_matches_bottom_up_loops(bundle):
    kind, coeffs, order = bundle
    path = {"S": eval_sr, "T": eval_tr, "J": eval_jr}[kind]
    oracle = {"S": _bottom_up_sr, "T": _bottom_up_tr, "J": _bottom_up_jr}[kind]
    got, want = path(*coeffs, order), oracle(*coeffs, order)
    assert got.order == want.order == order
    assert got == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from("SJ"), st.integers(1, 9),
       st.lists(st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)),
                max_size=5))
def test_terminated_bundles_match_bottom_up_loops(kind, order, coeffs):
    # eval_cfrac pads a finite fraction with zero coefficients
    if kind == "S":
        cf = CFrac("S", c=tuple(coeffs), terminated_at=len(coeffs) + 1)
        c = coeffs + [0] * max(order - len(coeffs), 0)
        want = _bottom_up_sr(c, order)
    else:
        e, f = coeffs[::2], coeffs[1::2][:max(len(coeffs[::2]) - 1, 0)]
        cf = CFrac("J", e=tuple(e), f=tuple(f), terminated_at=len(e))
        want = _bottom_up_jr(e + [0] * max((order + 1) // 2 - len(e), 0),
                             f + [0] * max(order // 2 - len(f), 0), order)
    assert eval_cfrac(cf, order) == want


@pytest.mark.parametrize("call, error, message", [
    (lambda: CFrac("Q", c=(1,)), ValueError, "kind must be S, T or J"),
    (lambda: extract_sfrac(TruncSeries(2, [2, 1, 1]), 2), ValueError,
     "series must have constant term 1"),
    (lambda: contract(CFrac("J", e=(1,), f=(1,))), NotContractible,
     "input must be S or T kind"),
    (lambda: transform_laws("J->S", [1, 2], 1), ValueError,
     "unknown transform kind 'J->S'"),
])
def test_guards_reject_what_they_cannot_take(call, error, message):
    with pytest.raises(error, match=message):
        call()
