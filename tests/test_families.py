from dataclasses import replace
from fractions import Fraction

import pytest

from gkpfrac import families as F
from gkpfrac.exactalg import MPoly, as_field, felem_eq, variables
from gkpfrac.gkpcore import UnknownFamily, gkp_triangle
from gkpfrac.families import (
    ArityMismatch, NonRationalExponent, SFRAC_FAMILY_IDS, VanishingDenominator,
    egf_closed_form, family_ids, family_params, get_family, predicted_cfrac,
    verify_binomial_relations, verify_egf_closed_forms, verify_family,
)
from hand_egfs import HAND_EGF_IDS, hand_egf

TERMINATING_IDS = ("s0", "s1a", "s1b", "s2a", "s2b", "s3a", "s3b",
                   "s4a", "s4b", "s5a", "s5b", "s6a", "s6b")


def test_family_params_examples():
    a, g, kp = variables("alpha gamma kappa", extra=("x",))
    t = family_params("F4b", (a, g, kp))
    assert felem_eq(as_field(t.beta), -a)
    assert felem_eq(as_field(t.alphap), kp * a)
    assert felem_eq(as_field(t.gammap), kp * (a + g))

    b, ah, kp = variables("beta alphaphat kappa", extra=("x",))
    t = family_params("F9a", (b, ah, kp))
    assert felem_eq(as_field(t.gamma), (kp + 1) * b)
    assert felem_eq(as_field(t.alphap), -ah)
    assert felem_eq(as_field(t.betap), 2 * ah)

    g, ap = variables("gamma alphap", extra=("x",))
    t = family_params("s1a", (g, ap))
    assert felem_eq(as_field(t.beta), -2 * g)
    assert felem_eq(as_field(t.betap), -2 * ap)

    with pytest.raises(UnknownFamily):
        family_params("F99")
    with pytest.raises(ArityMismatch):
        family_params("F5", (1, 2))


def test_predicted_examples():
    cf = predicted_cfrac("F1a", None, 4)
    b, ap, gp, x = (MPoly.variable(n, ("beta", "alphap", "gammap", "x"))
                    for n in ("beta", "alphap", "gammap", "x"))
    want = [gp * x, b, (gp + ap) * x, 2 * b]
    assert all(felem_eq(as_field(u), as_field(w)) for u, w in zip(cf.c, want))

    cf = predicted_cfrac("F6", None, 4)
    names = ("alphap", "betap", "gammap", "kappa", "x")
    ap, bp, gp, kp, x = (MPoly.variable(n, names) for n in names)
    assert felem_eq(as_field(cf.c[0]), (gp + (ap + bp)) * (kp + x))
    assert felem_eq(as_field(cf.c[1]), (ap + bp) * (kp + x))

    cf = predicted_cfrac("F7a", None, 2, kind="J")
    names = ("beta", "gamma", "betap", "gammap", "x")
    b, g, bp, gp, x = (MPoly.variable(n, names) for n in names)
    assert felem_eq(as_field(cf.e[1]), (g + (bp + gp) * x) + (b + 2 * bp * x))
    assert felem_eq(as_field(cf.f[0]), (gp + bp) * x * (b + bp * x))


def test_sfrac_families_symbolic():
    for fid in SFRAC_FAMILY_IDS:
        rep = verify_family(fid, None, 8)
        assert rep["first_mismatch"] is None, rep


def test_t_and_j_families_symbolic():
    for fid in ("F7a", "F7b", "F8a", "F8b"):
        rep = verify_family(fid, None, 8, kind="T")
        assert rep["first_mismatch"] is None, rep
    for fid, N in (("F7a", 8), ("F7b", 8), ("F1c", 8), ("GKPZ", 8)):
        rep = verify_family(fid, None, N, kind="J")
        assert rep["first_mismatch"] is None, rep


def test_a_bent_t_prediction_names_the_first_order_it_moves(monkeypatch):
    # c_2 + 1 moves t^2 by c_1 = alphap x: the witness holds the ogf's
    # coefficient as "got" and the prediction's as "expected", as for S and J
    f8a = get_family("F8a")
    monkeypatch.setitem(F.CATALOG, "F8a", replace(f8a, even=lambda v, k: (
        f8a.even(v, k)[0] + (1 if k == 1 else 0), f8a.even(v, k)[1])))
    row = "3*alphap^2*x^2 + beta*alphap*x + 3*gamma*alphap*x + gamma^2"
    assert verify_family("F8a", None, 6, kind="T")["first_mismatch"] == {
        "level": 2, "expected": row + " + alphap*x", "got": row}


def test_conjectured_families():
    for fid in ("F9a", "F9b"):
        spec = get_family(fid)
        assert spec.status == "conjectured"
        rep = verify_family(fid, None, 8, kind="T")
        assert rep["status"] == "conjectured"
        assert rep["first_mismatch"] is None, rep
        # the equivalent J-form, by even contraction of the T-form
        rep = verify_family(fid, None, 8, kind="J")
        assert rep["first_mismatch"] is None, rep


def test_conjectured_numeric_samples():
    import random
    rng = random.Random(9)
    for fid in ("F9a", "F9b"):
        spec = get_family(fid)
        for _ in range(2):
            params = {p: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                      for p in spec.params}
            rep = verify_family(fid, params, 14, kind="T")
            assert rep["first_mismatch"] is None, (fid, params, rep)


def test_terminating_families():
    for fid in TERMINATING_IDS:
        rep = verify_family(fid, None, 8)
        assert rep["first_mismatch"] is None, (fid, rep)


def test_degenerate_family_equivalences():
    # the two doubly-degenerate families coincide with specializations of
    # the k-weight / (n-k)-weight families at the matrix level
    al, ap, bp, gp = variables("al ap bp gp")
    t2a = gkp_triangle((al, -al, -al, ap, bp, gp), 8)
    t3a = gkp_triangle((0, 0, 0, 0, ap + bp, gp), 8)
    assert t2a == t3a
    a, b, g, bp2 = variables("a b g bp")
    t2b = gkp_triangle((a, b, g, 0, bp2, -bp2), 8)
    t3b = gkp_triangle((a, -a, g, 0, 0, 0), 8)
    assert t2b == t3b


def test_binomial_relations():
    for pair in ("7a/3a", "7b/3b", "6/2a"):
        rep = verify_binomial_relations(pair, 6)
        assert rep["ok"], rep
    # gamma = 0 collapses the transform to the identity
    b, bp, gp = variables("beta betap gammap", extra=("x",))
    t7 = gkp_triangle(family_params("F7a", (b, 0 * b, bp, gp)), 6)
    t3 = gkp_triangle(family_params("F3a", (b, bp, gp)), 6)
    assert t7 == t3


def test_egf_closed_forms():
    cases = [
        ("F1a", {"beta": 1, "alphap": 2, "gammap": 3}),
        ("F1b", {"beta": 2, "gamma": 1, "alphap": 3}),
        ("F2a", {"alpha": 5, "alphap": 1, "betap": 2, "gammap": 1}),
        ("F2b", {"alpha": 1, "beta": 7, "gamma": 0, "betap": 3}),
        ("F3a", {"beta": 2, "betap": 1, "gammap": 3}),
        ("F3b", {"alpha": 1, "gamma": 2, "alphap": 3}),
        ("F4a", {"betap": 1, "gammap": 2, "kappa": 3}),
        ("F4b", {"alpha": 2, "gamma": 1, "kappa": 2}),
        ("F5", {"alpha": 1, "gamma": 0, "alphap": 0, "gammap": 1}),
        ("F6", {"alphap": 1, "betap": 2, "gammap": 1, "kappa": 2}),
        ("F7a", {"beta": 1, "gamma": 2, "betap": 3, "gammap": 1}),
        ("F7b", {"alpha": 2, "gamma": 1, "alphap": 1, "gammap": 3}),
        ("F1c", {"beta": 2, "gamma": 3, "alphap": 1, "gammap": 5}),
        ("GKPZ", {"beta": 1, "gamma": 2, "alphap": 3, "gammap": 1, "kappa": 2}),
    ]
    for fid, params in cases:
        rep = verify_egf_closed_forms(fid, params, 8)
        assert rep["ok"], (fid, rep)


def test_gkpz_parametrizations_name_the_first_order_they_differ(monkeypatch):
    from gkpfrac import families
    params = {"beta": 1, "gamma": 2, "alphap": 3, "gammap": 1, "kappa": 2}
    real = families.egf_closed_form

    def perturbed_alt(id, vals, order):
        s = real(id, vals, order)
        if id == "GKPZ-ALT" and order >= 4:
            s.coeffs[4] = s.coeffs[4] + 1
        return s

    monkeypatch.setattr(families, "egf_closed_form", perturbed_alt)
    assert verify_egf_closed_forms("GKPZ", params, 6) == {
        "id": "GKPZ", "ok": False,
        "first_mismatch": {"order": 4, "against": "GKPZ-ALT"}}
    # below that order the two agree, and both agree with the triangle
    assert verify_egf_closed_forms("GKPZ", params, 3)["ok"]


def test_egf_factorial_special_case():
    s = egf_closed_form("F2b", {"alpha": 1, "beta": 0, "gamma": 0, "betap": 1}, 6)
    assert all(felem_eq(as_field(c), 1) for c in s.coeffs)


def test_egf_exponent_guard():
    with pytest.raises(NonRationalExponent, match="^F1a: exponent denominator vanishes$"):
        egf_closed_form("F1a", {"beta": 1, "alphap": 0, "gammap": 3}, 4)
    # F5's exponent denominator is alpha + alpha' x
    with pytest.raises(NonRationalExponent, match="^F5: exponent denominator vanishes$"):
        egf_closed_form("F5", {"alpha": 0, "gamma": 1, "alphap": 0, "gammap": 1}, 4)
    # F1b binds F1a's alphap to its beta
    with pytest.raises(NonRationalExponent) as err:
        egf_closed_form("F1b", {"beta": 0, "gamma": 1, "alphap": 1}, 4)
    assert str(err.value) == "F1b: exponent denominator vanishes in F1a's form under D"


TRANSPORTED_MESSAGES = {
    "F1b": "F1b: denominator vanishes in F1a's form under D",
    "F3a": "F3a: denominator beta vanishes",
    "F3b": "F3b: denominator alpha*alphap vanishes",
    "F4a": "F4a: denominator kappa vanishes",
    "F4b": "F4b: denominator kappa vanishes",
    "F7b": "F7b: denominator vanishes in F7a's form under D",
}


@pytest.mark.parametrize("fid, vals, expr", [
    ("F1a", {"beta": 0, "alphap": 0, "gammap": 1}, "beta - alphap*x"),
    ("F1b", {"beta": 0, "gamma": 1, "alphap": 0}, "alphap*x - beta"),
    ("F3a", {"beta": 0, "betap": 1, "gammap": 1}, "beta"),
    ("F3b", {"alpha": 1, "gamma": 1, "alphap": 0}, "alphap*x"),
    ("F4a", {"betap": 1, "gammap": 1, "kappa": 0}, "kappa"),
    ("F4b", {"alpha": 1, "gamma": 1, "kappa": 0}, "kappa*x"),
    # the binomial shifts name themselves, not the family they shift
    ("F7a", {"beta": 0, "gamma": 1, "betap": 1, "gammap": 1}, "beta"),
    ("F7b", {"alpha": 1, "gamma": 1, "alphap": 0, "gammap": 1}, "alphap*x"),
])
def test_egf_denominator_guard(fid, vals, expr):
    # every denominator outside the exponent of the stated and hand-written
    # forms, at a point where only it vanishes (the exponent's denominator
    # does not); a transported egf states the word's w there, or names the
    # representative whose form it is and the word
    want = "%s: denominator %s vanishes" % (fid, expr)
    if fid in HAND_EGF_IDS:
        with pytest.raises(VanishingDenominator) as err:
            hand_egf(fid, vals, 4)
        assert str(err.value) == want
        want = TRANSPORTED_MESSAGES[fid]
    with pytest.raises(VanishingDenominator) as err:
        egf_closed_form(fid, vals, 4)
    assert str(err.value) == want


def test_catalog_listing():
    ids = family_ids()
    for fid in SFRAC_FAMILY_IDS + TERMINATING_IDS + ("F7a", "F8b", "F9a",
                                                     "F1c", "GKPZ"):
        assert fid in ids


def test_predicted_coefficients_have_nonnegative_integer_coefficients():
    from gkpfrac.hankel import coeffwise_nonneg
    for fid in SFRAC_FAMILY_IDS:
        cf = predicted_cfrac(fid, None, 12)
        for c in cf.c:
            ok, wit = coeffwise_nonneg(c)
            assert ok, (fid, c, wit)
            if isinstance(c, MPoly):
                assert all(isinstance(v, int) for v in c.terms.values()), \
                    (fid, c)


def test_extraction_yields_rational_coefficients_off_family():
    # away from the classified submanifolds the coefficients are honest
    # rational functions of x, and the extractor returns them as such
    from gkpfrac.exactalg import RatFunc
    from gkpfrac.cfrac import extract_sfrac
    from gkpfrac.gkpcore import ogf_trunc
    ogf = ogf_trunc(gkp_triangle((1, 1, 1, 1, 1, 1), 4))
    cf = extract_sfrac(ogf, 3)
    assert isinstance(cf.c[1], RatFunc) and not cf.c[1].is_poly()


def test_predicted_kind_mismatch():
    with pytest.raises(UnknownFamily):
        predicted_cfrac("F5", None, 4, kind="T")
    with pytest.raises(UnknownFamily):
        predicted_cfrac("F1c", None, 4, kind="S")


def test_cli_style_mixed_parameters():
    from gkpfrac.exactalg import MPoly
    names = ("alpha", "gamma", "x")
    a = MPoly.variable("alpha", names)
    g = MPoly.variable("gamma", names)
    rep = verify_family("F2b", {"alpha": a, "beta": 2, "gamma": g,
                                "betap": 1}, 6)
    assert rep["first_mismatch"] is None


def _f7a_J_entry(v, n):
    """The published closed J-form of F7a: (e_n, f_n)."""
    b, g, bp, gp, x = v
    return ((g + (bp + gp) * x) + n * (b + 2 * bp * x),
            n * (gp + n * bp) * x * (b + bp * x))


def _f7b_J_entry(v, n):
    """The published closed J-form of F7b: (e_n, f_n)."""
    a, g, ap, gp, x = v
    return ((a + g + gp * x) + n * (2 * a + ap * x),
            n * (g + n * a) * (a + ap * x))


@pytest.mark.parametrize("fid, entry", [("F7a", _f7a_J_entry),
                                        ("F7b", _f7b_J_entry)])
def test_contracted_j_form_equals_the_published_one(fid, entry):
    m = 8
    v = variables(get_family(fid).params, extra=("x",))
    v = v + (MPoly.variable("x", v[0].vars),)
    cf = predicted_cfrac(fid, None, m, kind="J")
    assert len(cf.e) == len(cf.f) == m
    for n in range(m):
        assert felem_eq(as_field(cf.e[n]), as_field(entry(v, n)[0])), (fid, n)
        assert felem_eq(as_field(cf.f[n]), as_field(entry(v, n + 1)[1])), (fid, n)


@pytest.mark.parametrize("call, error, message", [
    (lambda: family_params("F3a", {"beta": 1, "betap": 2}), ArityMismatch,
     "family F3a takes"),
    (lambda: predicted_cfrac("F3a", None, 2, kind="J"), UnknownFamily, "F3a has no J-form"),
    (lambda: predicted_cfrac("F3a", None, 2, kind="Q"), ValueError, "^Q$"),
    (lambda: verify_family("F3a", None, 2, kind="Q"), ValueError, "^Q$"),
    (lambda: verify_binomial_relations("3a/7a", 2), ValueError,
     "pair must be 7a/3a, 7b/3b or 6/2a"),
    (lambda: egf_closed_form("GKPZ", {"beta": 0, "gamma": 1, "alphap": 1,
                                      "gammap": 1, "kappa": 1}, 2),
     NonRationalExponent, "exponent denominator vanishes"),
    (lambda: egf_closed_form("F8a", {"beta": 1, "gamma": 1, "alphap": 1}, 2),
     UnknownFamily, "F8a"),
])
def test_guards_reject_what_they_cannot_take(call, error, message):
    with pytest.raises(error, match=message):
        call()
