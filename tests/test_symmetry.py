import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gkpfrac import cli, gkpcore, symmetry
from gkpfrac.exactalg import (
    MPoly, RatFunc, as_field, as_mpoly, clear_denominators, divide_exact,
    felem_div, felem_eq, felem_is_zero, first_mismatch, mismatch_report,
    variables,
)
from gkpfrac.gkpcore import PARAM_NAMES, GKPParams, gkp_triangle, row_polys
from gkpfrac.symmetry import (
    CaseMismatch, D, EXPECTED_CLASS_PROFILE, IDENT, R, S, SPRIME,
    ScalingMap, SingularMap, X, Z, all_elements, apply_map,
    apply_map_letters, group_table, map_equal, parse_word, rescale_gkp,
    transport, verify_action, verify_actions, verify_relations,
)
from helpers import expected_classes, transported


def test_normal_forms_unique_and_closed():
    elems = all_elements()
    assert len(elems) == len(set(elems)) == 48
    for a in elems[:8]:
        for b in elems:
            assert a * b in set(elems)


def test_associativity_spot_check():
    rng = random.Random(5)
    elems = all_elements()
    for _ in range(1000):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_orders_divide_twelve():
    for e in all_elements():
        assert 12 % e.order() == 0


def test_exact_class_membership():
    _, _, classes, _ = group_table()
    got = {frozenset(c["elements"]) for c in classes}
    want = set(expected_classes())
    assert got == want


def test_group_table_profile():
    elems, mult, classes, center = group_table()
    assert len(elems) == 48
    assert center == [IDENT, X ** 6]
    assert sorted((c["order"], c["size"]) for c in classes) \
        == EXPECTED_CLASS_PROFILE
    for c in classes:
        if Z in c["elements"]:
            assert (c["order"], c["size"]) == (2, 6)
        if X in c["elements"]:
            assert (c["order"], c["size"]) == (12, 4)
        if S in c["elements"]:
            assert (c["order"], c["size"]) == (2, 2)


def test_duality_formula():
    mu = GKPParams.symbolic()
    a, b, g, ap, bp, gp = mu
    assert map_equal(apply_map(D, mu), (ap + bp, -bp, gp, a + b, -b, g))


def test_shift_involution_example_and_identity():
    assert map_equal(apply_map(Z, (1, 1, 0, 0, 1, 0)), (1, -1, -1, 0, 1, 0))
    mu = GKPParams.symbolic()
    assert map_equal(apply_map(IDENT, mu), mu)


def test_involutions_as_maps():
    mu = GKPParams.symbolic()
    assert map_equal(apply_map(Z * Z, mu), mu)
    assert map_equal(apply_map(R * R, mu), mu)
    assert map_equal(apply_map(D * D, mu), mu)


def test_singular_map():
    with pytest.raises(SingularMap):
        apply_map(Z, (1, 1, 0, 0, 0, 1))
    with pytest.raises(SingularMap):
        apply_map(R, (1, 0, 0, 0, 1, 1))


def test_relations_report():
    rep = verify_relations()
    assert rep["ok"]
    assert all(rep["abstract"].values())
    assert all(rep["maps"].values())
    assert all(rep["presentation"].values())


def test_parse_word():
    assert parse_word("S*Z*X^3") == S * Z * X ** 3
    assert parse_word("D") == D
    assert parse_word("1") == IDENT
    assert parse_word("R") == D * Z * D
    assert parse_word("") == IDENT and parse_word("S**Z*") == S * Z
    assert X ** -1 == X ** 11 == X.inv() and (S * X) ** -2 == ((S * X) ** 2).inv()
    assert repr(S * Z * X ** 3) == "S*Z*X^3" and repr(IDENT) == "1"


@pytest.mark.parametrize("letter, wrong", [
    ("S", lambda mu: tuple(2 * v for v in symmetry._act_S(mu))),
    ("Z", lambda mu: tuple(2 * v for v in symmetry._act_Z(mu))),
])
def test_each_involution_map_check_can_fail(monkeypatch, letter, wrong):
    monkeypatch.setitem(symmetry._GEN_ACTS, letter, wrong)
    rep = verify_relations()
    assert rep["ok"] is False
    assert rep["maps"][letter + "^2"] is False
    # the abstract group does not know the parameter actions
    assert all(rep["abstract"].values()) and all(rep["presentation"].values())


def test_actions_of_letter_lists():
    mu = GKPParams.symbolic()
    assert verify_action(["S", "D"], mu, 3) == {"map": "S*D", "ok": True,
                                                "first_mismatch": None}
    assert verify_action(["D"], mu, 3) == {"map": "D", "ok": True,
                                           "first_mismatch": None}


def test_actions_small():
    mu = GKPParams.symbolic()
    kl = variables("kp lm", extra=("alpha", "beta", "gamma", "alphap",
                                   "betap", "gammap"))
    words = ["S", "D", "Z", ScalingMap(*kl), "X"]
    reps = verify_actions(words, mu, 5)
    assert [rep["ok"] for rep in reps] == [True] * 5
    assert verify_action(["R"], mu, 5)["ok"]
    assert verify_action("S*Z*X^3", mu, 3)["ok"]


RATIONAL_MU = tuple(map(Fraction, ["1/2", "2/3", "-1", "3/4", "1/5", "2"]))


@pytest.mark.parametrize("mu", [GKPParams.symbolic(), RATIONAL_MU],
                         ids=["symbolic", "rational"])
def test_scaling_maps_at_rational_and_rational_function_kappa_lambda(mu):
    kp, = variables("kp", extra=PARAM_NAMES + ("x",))
    for kappa, lam in [(Fraction(2, 3), Fraction(-3, 7)),
                       (felem_div(1, kp), felem_div(1, 1 + kp))]:
        assert verify_action(ScalingMap(kappa, lam), mu, 5) == {
            "map": "S_{kappa,lambda}", "ok": True, "first_mismatch": None}


def test_kappa_and_lambda_swapped_in_the_scaling_matrix_fail(monkeypatch):
    # the witness of a scaling map is a row, as every word's
    real = symmetry._letter_matrix
    monkeypatch.setattr(symmetry, "_letter_matrix", lambda g, mu, vars: real(
        ScalingMap(g.lam, g.kappa), mu, vars))
    for mu in (GKPParams.symbolic(), RATIONAL_MU):
        assert verify_action(ScalingMap(Fraction(2, 3), Fraction(-3, 7)), mu, 4) \
            == {"map": "S_{kappa,lambda}", "ok": False, "first_mismatch": {"n": 1}}


def test_no_words_unroll_no_triangle(monkeypatch):
    monkeypatch.setattr(symmetry, "cleared_triangle", None)
    assert verify_actions([], GKPParams.symbolic(), 5) == []


def test_duality_on_stirling_triangle():
    t = gkp_triangle((0, 1, 0, 0, 0, 1), 6)
    t2 = gkp_triangle(apply_map(D, (0, 1, 0, 0, 0, 1)), 6)
    for n in range(7):
        assert [t2.entry(n, k) for k in range(n + 1)] \
            == [t.entry(n, n - k) for k in range(n + 1)]


def test_rescale_cases():
    kp, lm, g, ap, bp, gp, a, b = variables("kp lm g ap bp gp a b")
    assert rescale_gkp("a", (0, 0, g, ap, bp, gp), kp, lm, 6)["ok"]
    assert rescale_gkp("b", (a, b, g, 0, 0, gp), kp, lm, 6)["ok"]
    assert rescale_gkp("c", (0, 0, g, 0, 0, gp), kp, lm, 6)["ok"]
    # kappa = lambda = 1 trivially
    assert rescale_gkp("c", (0, 0, g, 0, 0, gp), 1, 1, 5)["ok"]
    for case, mu, message in [
            ("a", (1, 0, g, ap, bp, gp), "case a needs alpha = beta = 0"),
            ("b", (a, b, g, 1, 0, gp), "case b needs alpha' = beta' = 0"),
            ("c", (0, 0, g, 0, bp, gp), "case c needs alpha = beta = alpha' = beta' = 0"),
            ("d", (0, 0, g, 0, 0, gp), "unknown case 'd'")]:
        with pytest.raises(CaseMismatch, match=message):
            rescale_gkp(case, mu, kp, lm, 4)


def test_rescale_factorials_and_semifactorials():
    assert rescale_gkp("c", (0, 0, 1, 0, 0, 0), 1, 0, 6)["ok"]
    t = gkp_triangle((1, 0, 0, 0, 0, 0), 6)
    assert [t.rows[n][0] for n in range(7)] == [1, 1, 2, 6, 24, 120, 720]
    assert rescale_gkp("c", (0, 0, 1, 0, 0, 0), 2, -1, 6)["ok"]
    t = gkp_triangle((2, 0, -1, 0, 0, 0), 6)
    assert [t.rows[n][0] for n in range(7)] == [1, 1, 3, 15, 105, 945, 10395]


def is_polynomial_action(word):
    """The word's action on a symbolic mu has denominator 1."""
    return not any(isinstance(v, RatFunc) and not v.is_poly()
                   for v in apply_map(word, GKPParams.symbolic()))


def test_polynomial_subgroup():
    # G0 = {1, S, S', SS', D, SD, S'D, SS'D}
    G0 = [IDENT, S, SPRIME, S * SPRIME, D, S * D, SPRIME * D, S * SPRIME * D]
    assert len(set(G0)) == 8
    assert all(x * y in set(G0) for x in G0 for y in G0)
    assert sorted(e.order() for e in G0) == [1, 2, 2, 2, 2, 2, 4, 4]
    for e in G0:
        assert is_polynomial_action(e)
    for e in (Z, X, R, X ** 2):
        assert not is_polynomial_action(e)


def test_sprime_is_scaling():
    mu = GKPParams.symbolic()
    assert map_equal(apply_map(SPRIME, mu), apply_map(ScalingMap(1, -1), mu))
    assert SPRIME == D * S * D


def test_family_orbit_facts():
    # the 48 elements map each S family's point into an S family wherever
    # the map is defined, and each terminating family's into a terminating
    # one; the families fall into six orbits
    from gkpfrac.families import (
        SFRAC_FAMILY_IDS, family_binding, family_ids, family_params,
        get_family,
    )
    terminating = tuple(f for f in family_ids()
                        if get_family(f).status == "terminating")
    orbit = {}
    singular = 0
    for kind in (SFRAC_FAMILY_IDS, terminating):
        for src in kind:
            mu = family_params(src)
            orbit.setdefault(src, {src})
            for g in symmetry.WORDS:
                try:
                    image = apply_map(g, mu)
                except SingularMap:
                    singular += kind is SFRAC_FAMILY_IDS
                    continue
                dst = [f for f in kind if family_binding(f, image) is not None]
                assert dst, "%s mapped by %s lies in no family of its kind" \
                    % (src, g.name())
                for f in dst:
                    merged = orbit[src] | orbit.setdefault(f, {f})
                    for member in merged:
                        orbit[member] = merged
    assert singular == 40
    orbits = sorted(sorted(o) for o in {frozenset(o) for o in orbit.values()})
    assert orbits == sorted([
        ["F1a", "F1b", "F3a", "F3b", "F4a", "F4b"], ["F2a", "F2b", "F6"],
        ["F5"], ["s0"], ["s1a", "s1b", "s2a", "s2b", "s3a", "s3b"],
        ["s4a", "s4b", "s5a", "s5b", "s6a", "s6b"]])
    # the catalog derives each orbit from one representative: its sources
    # generate the same partition, and each word maps its representative's
    # point into the family
    by_source = {}
    for fid in orbit:
        source = get_family(fid).source
        by_source.setdefault(source[0] if source else fid, []).append(fid)
        if source:
            image = apply_map_letters(source[1], family_params(source[0]))
            assert family_binding(fid, image) is not None, \
                "%s mapped by %s lies outside %s" % (source[0], source[1], fid)
    assert sorted(sorted(o) for o in by_source.values()) == orbits


def test_coset_denominators():
    mu = GKPParams.symbolic()
    # the X-coset needs only 1/betap; the R-coset only 1/beta
    for w in (X, Z, S * Z):
        out = apply_map(w, mu)
        for v in out:
            if isinstance(v, RatFunc) and not v.is_poly():
                assert v.den.degree_in("betap") > 0
                assert v.den.degree_in("beta") == 0
    for w in (R, X ** 5):
        out = apply_map(w, mu)
        for v in out:
            if isinstance(v, RatFunc) and not v.is_poly():
                assert v.den.degree_in("beta") > 0
                assert v.den.degree_in("betap") == 0


def _divisors(letters, mu):
    """What each division of the word divides by, along the orbit of mu:
    beta' before a Z or an X, beta before an R."""
    orbit = symmetry._orbit(letters, mu)
    return [p[1] if letter == "R" else p[4]
            for letter, p in zip(reversed(letters), orbit) if letter in "ZXR"]


def _reduced_denominator(g, mu):
    """The lcm of the denominators of the reduced image of mu under g."""
    vars = mu.alpha.vars
    return as_mpoly(clear_denominators(tuple(apply_map(g, mu)), vars)[1], vars)


def test_words_multiply_out_and_divide_at_most_three_times():
    words = {g: g.letters() for g in all_elements()}
    assert all(parse_word("*".join(w)) == g for g, w in words.items())
    divisions = [sum(letter in "ZXR" for letter in w) for w in words.values()]
    assert sum(divisions) == 72 and max(divisions) == 3
    assert words[IDENT] == [] and words[R] == ["R"] and words[S * D] == ["S", "D"]


def test_every_division_divides_the_reduced_denominator():
    mu = GKPParams.symbolic()
    for g in all_elements():
        den = _reduced_denominator(g, mu)
        for d in _divisors(g.letters(), mu):
            assert divide_exact(den, as_mpoly(d, den.vars)) is not None, (g, d)


def test_a_word_raises_only_where_its_map_is_undefined():
    # beta, beta' in {0, 1, -2}: each word gives its reduced map's value
    # where that map's denominator does not vanish, and raises where it does
    sym = GKPParams.symbolic()
    for g in all_elements():
        image, den = apply_map(g, sym), _reduced_denominator(g, sym)
        for b, bp in product((0, 1, -2), repeat=2):
            mu = (1, b, 2, -1, bp, 3)
            point = dict(zip(PARAM_NAMES, mu))
            if felem_is_zero(den.subs(point)):
                with pytest.raises(SingularMap):
                    apply_map(g, mu)
            else:
                assert map_equal(apply_map(g, mu),
                                 [as_field(v).subs(point) for v in image]), (g, mu)


# ---------------------------------------------------------------------------
# the transport law of fraction coefficients against substitution
# ---------------------------------------------------------------------------

_s, _t, _x = variables("s t x")
_ENTRY = st.builds(lambda i, j, k: i + j * _s + k * _t, *[st.integers(-2, 2)] * 3)
# polynomials of x-degree 0-3, and rational coefficients with x in the
# denominator: the power of v moves to either side of the quotient
_COEFF = st.one_of(
    st.lists(_ENTRY, min_size=1, max_size=4).map(
        lambda cs: sum(c * _x ** i for i, c in enumerate(cs))),
    st.sampled_from([felem_div(1, 1 + _x), felem_div(_x * _x, 2 - _x)]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.tuples(*[_ENTRY] * 5), _COEFF)
@example((1 + _s, _t, 2 * _t, 1 - _s, 2 + _s), Fraction(-1, 3))
@example((2 + _s, 1, _s, 1, 2), felem_div(1, 1 + _x))
@example((1, _t - 1, 2, _s, -2), felem_div(_x * _x, 2 - _x))
@example((_s, 1, -1, 2, 1 + _t), _s * _x ** 3 + _x - _t)
def test_transport_matches_substitution(m, c):
    m = tuple(as_mpoly(e, _x.vars) for e in m)
    a, b, cx, d, w = m
    assume(not felem_is_zero(w * (a * d - b * cx)))
    assert felem_eq(transport(c, m), transported(c, m))


# ---------------------------------------------------------------------------
# test-only oracle: the action folded one letter at a time over RatFunc rows
# ---------------------------------------------------------------------------

def _oracle_mobius(p, n, u, v, w):
    """(1/w^n) * sum_k C_k u^k v^(n-k) for p = sum_k C_k x^k."""
    if isinstance(p, RatFunc):
        den, pnum = p.den, p.num
    else:
        den, pnum = None, p
    coeffs = pnum.coeffs_in("x")
    acc = 0
    for k, C in coeffs.items():
        acc = C * u ** k * v ** (n - k) + acc
    if den is not None:
        acc = acc * RatFunc(MPoly.one(den.vars), den)
    if n and not (isinstance(w, int) and w == 1):
        acc = acc * RatFunc(MPoly.one(w.vars), w ** n)
    return acc


def _oracle_letter(letter, mu, polys):
    """Row polynomials of (letter . mu) from those of mu (mu: the
    parameters the letter acts on), per the cited identities."""
    a, b, g, ap, bp, gp = (as_field(v) for v in tuple(mu))
    vars = next((p.vars for p in polys if isinstance(p, (MPoly, RatFunc))), ())
    vars = vars if "x" in vars else vars + ("x",)
    x = MPoly.variable("x", vars)
    one = MPoly.one(vars)

    def cleared(val):
        if isinstance(val, RatFunc):
            return val.num.in_vars(vars), val.den.in_vars(vars)
        if isinstance(val, (int, Fraction)):
            return MPoly.constant(val, vars), one
        return val.in_vars(vars), one

    if letter == "S":
        u, v, w = x, -one, one
    elif letter == "D":
        u, v, w = one, x, one
    elif letter == "Z":
        if felem_is_zero(bp):
            raise SingularMap(letter)
        bn, bd = cleared(b)
        pn, pd = cleared(bp)
        u = pn * bd * x - bn * pd
        v = w = pn * bd
    else:
        if felem_is_zero(b):
            raise SingularMap(letter)
        bn, bd = cleared(b)
        pn, pd = cleared(bp)
        u = bn * pd * x
        v = bn * pd - pn * bd * x
        w = bn * pd
    return [_oracle_mobius(p, n, u, v, w) for n, p in enumerate(polys)]


def _oracle_fold(letters, mu, polys):
    if not letters:
        return list(polys)
    inner = _oracle_fold(letters[1:], mu, polys)
    return _oracle_letter(letters[0], tuple(apply_map_letters(letters[1:], mu)), inner)


def oracle_verify(word, mu, N):
    """verify_action's report, from the letter fold; a list is the letters."""
    if isinstance(word, list):
        name, letters = "*".join(word), word
    else:
        name, letters = word.name(), word.letters()
    lhs = row_polys(gkp_triangle(apply_map_letters(letters, mu), N))
    rhs = _oracle_fold(letters, mu, row_polys(gkp_triangle(mu, N)))
    bad = first_mismatch(({"n": n}, p, q) for n, (p, q) in enumerate(zip(lhs, rhs)))
    return {"map": name, **mismatch_report(bad)}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularMap as exc:
        return "SingularMap: %s" % exc


def _wrong_D(mu):
    """The duality with gamma' off by beta: a wrong parameter action."""
    a, b, g, ap, bp, gp = mu
    return (ap + bp, -bp, gp, a + b, -b, g + b)


# letter lists, reported under their letters: R, X = D*Z, and X*S*X written
# out, which is not its element's cheapest word (D*S*D*R*Z)
WORDS = all_elements() + [["R"], ["D", "Z"], ["D", "Z", "S", "D", "Z"]]


def test_composed_substitution_matches_letter_fold_symbolic():
    mu = GKPParams.symbolic()
    for word in WORDS:
        want = oracle_verify(word, mu, 4)
        assert want["ok"], word
        assert verify_action(word, mu, 4) == want, word


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(WORDS),
       st.tuples(*[st.fractions(-2, 2, max_denominator=2)] * 6),
       st.booleans())
@example(Z, (1, 1, 0, 1, 0, 1), False)          # beta' = 0
@example(X ** 5, (1, 0, 1, 1, 1, 1), False)     # beta = 0
@example(["R"], (1, 0, 1, 1, 1, 1), True)
@example(["D", "Z"], (1, 0, 1, 1, 0, 1), True)
def test_composed_substitution_matches_letter_fold_numeric(word, mu, wrong_d):
    with pytest.MonkeyPatch.context() as mp:
        if wrong_d:
            mp.setitem(symmetry._GEN_ACTS, "D", _wrong_D)
        want = _outcome(oracle_verify, word, mu, 5)
        got = _outcome(verify_action, word, mu, 5)
    assert got == want
    if isinstance(want, str):
        assert want.startswith("SingularMap: map ")


@pytest.mark.parametrize("mu", [
    tuple(map(Fraction, ["1/2", "2/3", "-1", "3/4", "1/5", "2"])),
    tuple(map(Fraction, ["-3/2", "1", "5/6", "2", "-1/3", "1/4"]))])
@pytest.mark.parametrize("wrong_d", [False, True])
def test_every_word_matches_the_letter_fold_at_rational_mu(mu, wrong_d, monkeypatch):
    # both triples have denominators: each side of every check is a cleared
    # triangle with d1, d2 != 1
    if wrong_d:
        monkeypatch.setitem(symmetry._GEN_ACTS, "D", _wrong_D)
    words = all_elements()
    for N in (1, 3, 5):
        want = [oracle_verify(w, mu, N) for w in words]
        assert verify_actions(words, mu, N) == want
        assert {r["ok"] for r in want} == ({True, False} if wrong_d else {True})


def test_parameters_with_the_row_variable_are_rejected():
    a, b, x = variables("a b x")
    for mu in [(x, b, 0, 0, 1, 0), (a, b, 1, 1, b, b / x)]:
        with pytest.raises(ValueError, match="x-free"):
            verify_action("D", mu, 3)
    with pytest.raises(ValueError, match="x-free"):
        verify_action(["R"], (a, b, x, 1, b, 0), 3)


def test_wrong_parameter_action_is_reported(monkeypatch, tmp_path):
    monkeypatch.setitem(symmetry._GEN_ACTS, "D", _wrong_D)
    mu = GKPParams.symbolic()
    want = oracle_verify(D, mu, 3)
    assert want == {"map": "Z*X^11", "ok": False, "first_mismatch": {"n": 1}}
    assert verify_action(D, mu, 3) == want
    assert verify_action("S*D", mu, 3)["first_mismatch"] == {"n": 1}
    out = tmp_path / "d.json"
    assert cli.main(["symmetry", "--map", "D", "--depth", "3", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert not data["ok"] and data["exit"] == 1
    assert data["action"] == want


_ODE_STEP = gkpcore._ode_step


def _ode_fault(index):
    """``_ode_step`` less c x prev, c the parameter at ``index``: beta' (4)
    dropped from the multiplier of x, or n alpha' written as (n - 1) alpha'
    (3)."""
    def step(mu, n, prev):
        c = tuple(GKPParams.of(mu))[index]
        return _ODE_STEP(mu, n, prev) - c * MPoly.variable("x", prev.vars) * prev
    return step


@pytest.mark.parametrize("index", [4, 3], ids=["beta'-dropped", "n-1-alpha'"])
def test_a_wrong_row_ode_fails_the_actions(monkeypatch, index):
    # the rows of g.mu are decided by the row ODE: a fault in it fails each
    # word at the first row it touches, while the letter fold, which unrolls
    # both triangles, still holds
    fault = _ode_fault(index)
    monkeypatch.setattr(gkpcore, "_ode_step", fault)
    monkeypatch.setattr(symmetry, "_ode_step", fault)
    mu, N = GKPParams.symbolic(), 4
    for word in (S, Z, R, X ** 5):
        rows = row_polys(gkp_triangle(apply_map(word, mu), N))
        first = next(n for n in range(1, N + 1)
                     if not felem_eq(fault(apply_map(word, mu), n, rows[n - 1]), rows[n]))
        assert verify_action(word, mu, N) == {
            "map": word.name(), "ok": False, "first_mismatch": {"n": first}}
        assert oracle_verify(word, mu, N)["ok"], word


def test_verify_actions_reports_each_word_as_verify_action(monkeypatch):
    # one shared right-side triangle, yet each report is the one-word report,
    # failures included
    monkeypatch.setitem(symmetry._GEN_ACTS, "D", _wrong_D)
    mu = GKPParams.symbolic()
    words = all_elements()
    reps = verify_actions(words, mu, 3)
    assert reps == [verify_action(w, mu, 3) for w in words]
    assert {r["ok"] for r in reps} == {True, False}
    # a singular word raises before any row is checked
    with pytest.raises(SingularMap):
        verify_actions(["D", Z], (1, 1, 0, 1, 0, 1), 3)
