import os
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from gkpfrac import cli, hankel
from gkpfrac.exactalg import (
    MPoly, RatFunc, as_field, felem_eq, least_negative, variables,
)
from gkpfrac.gkpcore import gkp_triangle, row_polys
from gkpfrac.hankel import (
    RequiresNumeric, _as_mpoly_list, bareiss_det, coeffwise_nonneg, cofactor_det,
    gkp_tilde_polys, hankel_tp, hypothesis_check, log_convexity,
)


def test_coeffwise_nonneg():
    x, = variables("x")
    assert coeffwise_nonneg(x + 2)[0]
    assert coeffwise_nonneg(0) == (True, None)
    assert coeffwise_nonneg(Fraction(0)) == (True, None)
    ok, wit = coeffwise_nonneg(x - 1)
    assert not ok and wit["coeff"] == -1
    t = gkp_triangle((0, 1, 0, 0, 0, 1), 7)
    ps = row_polys(t)
    assert coeffwise_nonneg(ps[2] * ps[4] - ps[3] * ps[3])[0]


def test_factorial_hankel():
    assert bareiss_det([[1, 1, 2], [1, 2, 6], [2, 6, 24]]) == 4
    rep = hankel_tp([1, 1, 2, 6, 24], 3, 3)
    assert rep.ok


def test_failing_hankel_witness():
    x, = variables("x")
    rep = hankel_tp([MPoly.one(("x",)), x, x * x - 1], 2, 2)
    assert not rep.ok
    assert rep.witness is not None
    # the full 2x2 determinant is -1, the documented failing minor
    det = bareiss_det([[MPoly.one(("x",)), x], [x, x * x - 1]])
    assert det == -1


def test_bell_hankel_order2():
    ps = row_polys(gkp_triangle((0, 1, 0, 0, 0, 1), 7))
    assert hankel_tp(ps, 4, 2).ok


def test_bareiss_matches_cofactor_on_random_matrices():
    rng = random.Random(7)
    u, v = variables("u v")

    def rand_poly():
        p = MPoly.zero(("u", "v"))
        for _ in range(3):
            p = p + rng.randint(-3, 3) * u ** rng.randint(0, 2) \
                * v ** rng.randint(0, 2)
        return p if not p.is_zero() else p + 1

    for _ in range(50):
        M = [[rand_poly() for _ in range(4)] for _ in range(4)]
        assert felem_eq(as_field(bareiss_det(M)), as_field(cofactor_det(M)))


def test_bareiss_swaps_rows_at_a_zero_pivot():
    rng = random.Random(11)
    u, v = variables("u v")
    entries = [lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               lambda: rng.randint(-2, 2) * u + rng.randint(-2, 2) * v
               + rng.randint(-2, 2)]
    for n in (4, 5):
        for entry in entries:
            M = [[entry() for _ in range(n)] for _ in range(n)]
            M[0][0] = 0 * M[0][0]
            M[1][0] = 1 + M[1][0] * M[1][0]      # a nonzero pivot below
            want = cofactor_det(M)
            assert not felem_eq(as_field(want), 0)
            assert felem_eq(as_field(bareiss_det(M)), as_field(want))
    # the step-0 elimination leaves m[1][1] = 4 * 1 - 2 * 2 = 0
    M = [[1, 2, 3, 4], [2, 4, 5, 7], [3, 1, 2, 2], [1, 1, 1, 5]]
    assert bareiss_det(M) == cofactor_det(M) != 0
    # singular: with a zero leading entry and row 3 = row 1 + row 2; and with
    # column 2 zero below the pivot after two steps, so no row swaps in
    M = [[0, 1, 2, 3], [1, 0, 2, 1], [2, 1, 0, 1], [3, 1, 2, 2]]
    assert bareiss_det(M) == cofactor_det(M) == 0
    M = [[1, 2, 3, 4, 5], [2, 4, 6, 1, 1], [3, 6, 9, 2, 7], [1, 2, 3, 3, 1],
         [5, 1, 2, 4, 3]]
    assert bareiss_det(M) == cofactor_det(M) == 0


def test_bareiss_divides_polynomial_entries_by_a_scalar_pivot():
    # a scalar first pivot other than 1 over polynomial entries: the next
    # step divides polynomials by that scalar
    rng = random.Random(5)
    u, v = variables("u v")
    for n in (4, 5):
        for pivot in (2, -3, Fraction(3, 2)):
            M = [[rng.randint(-2, 2) * u + rng.randint(-2, 2) * v + rng.randint(-2, 2)
                  for _ in range(n)] for _ in range(n)]
            M[0][0] = pivot
            want = cofactor_det(M)
            assert isinstance(want, MPoly) and not want.is_constant()
            assert felem_eq(as_field(bareiss_det(M)), as_field(want))


def test_log_convexity_basics():
    assert log_convexity([1] * 13, 10)["ok"]
    rep = log_convexity([1, 2, 3, 4], 1)
    assert not rep["ok"] and rep["first_failure"]["m"] == 0
    ps = row_polys(gkp_triangle((0, 1, 0, 0, 0, 1), 12))
    assert log_convexity(ps, 10)["ok"]


def test_tilde_strong_log_convexity_small():
    ps = gkp_tilde_polys(7)
    assert log_convexity(ps, 5, strong=True)["ok"]


def test_order3_tp_on_random_nonneg_samples():
    rng = random.Random(11)
    for _ in range(3):
        mu = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3))
                   for _ in range(6))
        ps = row_polys(gkp_triangle(mu, 8))
        assert hankel_tp(ps, 5, 3).ok, mu


def test_size_cap():
    with pytest.raises(ValueError):
        hankel_tp([1] * 17, 9, 2)


def test_hankel_tp_needs_every_entry_of_the_matrix():
    with pytest.raises(ValueError, match="need 5 sequence entries for size 3"):
        hankel_tp([1, 1, 2, 6], 3, 2)


def test_coeffwise_nonneg_on_scalars():
    # a scalar zero is nonnegative
    assert coeffwise_nonneg(0) == (True, None)
    assert coeffwise_nonneg(Fraction(0)) == (True, None)
    assert coeffwise_nonneg(Fraction(1, 2)) == (True, None)
    assert coeffwise_nonneg(-1) == (False, {"monomial": (), "coeff": -1})


def test_chen_wang_yang_set_admits_a_failing_point():
    # the set asks alpha + beta + gamma >= 0, but T(1,0) = alpha + gamma:
    # this point lies inside it, has a negative entry and fails both checks
    mu = (0, 2, -1, Fraction(1, 2), 1, 2)
    assert hypothesis_check(mu, "ChenWangYang")
    t = gkp_triangle(mu, 8)
    assert t.entry(1, 0) == -1
    rows = row_polys(t)
    assert not hankel_tp(rows, 5, 3).ok
    assert not log_convexity(rows, 6, strong=True)["ok"]


def test_hypothesis_sets():
    assert hypothesis_check((1, 0, 0, 0, 0, 1), "LiuWang")
    assert hypothesis_check((1, 0, 0, 0, 0, 1), "ChenWangYang")
    assert hypothesis_check((0, 1, 0, 1, -1, 0), "LiuWang")
    assert not hypothesis_check((-1, 0, 0, 0, 0, 0), "LiuWang")
    assert not hypothesis_check((0, -1, 0, 0, 0, 0), "ChenWangYang")
    with pytest.raises(RequiresNumeric):
        a = variables("a")[0]
        hypothesis_check((a, 0, 0, 0, 0, 0), "LiuWang")
    with pytest.raises(ValueError):
        hypothesis_check((1, 0, 0, 0, 0, 0), "nope")


# -- log-convexity against sympy-expanded differences ----------------------

def sympy_first_failure(ps, n_max, strong):
    """The first (m, n) whose P_m P_{n+2} - P_{m+1} P_{n+1}, expanded by
    sympy, has a negative coefficient, with its graded-lex least one."""
    gens = sympy.symbols(ps[0].vars)
    P = [sympy.Poly.from_dict({e: sympy.Rational(Fraction(c).numerator,
                                                 Fraction(c).denominator)
                               for e, c in p.terms.items()}, gens) for p in ps]
    pairs = [(m, n) for m in range(n_max + 1) for n in range(m, n_max + 1)] \
        if strong else [(n, n) for n in range(n_max + 1)]
    for m, n in pairs:
        diff = P[m] * P[n + 2] - P[m + 1] * P[n + 1]
        neg = [(e, c) for e, c in diff.terms(order="grlex") if c < 0]
        if neg:
            e, c = neg[-1]
            return {"m": m, "n": n,
                    "monomial": repr(MPoly(ps[0].vars, {tuple(e): 1})),
                    "coeff": Fraction(int(c.p), int(c.q))}
    return None


def test_log_convexity_matches_sympy_on_tilde_polys():
    ps = gkp_tilde_polys(6)
    assert sympy_first_failure(ps, 4, True) is None
    assert log_convexity(ps, 4, strong=True) == {
        "ok": True, "strong": True, "n_max": 4, "first_failure": None}
    # a perturbed entry makes some difference fail; the witness is sympy's
    ta, x = MPoly.variable("ta", ps[0].vars), MPoly.variable("x", ps[0].vars)
    bent = ps[:3] + [ps[3] + 5 * ta * x ** 2] + ps[4:]
    want = sympy_first_failure(bent, 4, True)
    assert want is not None
    rep = log_convexity(bent, 4, strong=True)
    assert not rep["ok"] and rep["first_failure"] == want


def test_log_convexity_witness_with_fraction_coefficients():
    x, y = variables("x y")
    h = Fraction(1, 2)
    ps = [MPoly.one(("x", "y")), x + h * y, x * x + Fraction(2, 3) * x * y + y * y,
          x ** 3 + h * y ** 3 + Fraction(1, 5) * x * y, (x + y) ** 4 * h]
    for strong in (False, True):
        want = sympy_first_failure(ps, 2, strong)
        assert want is not None and Fraction(want["coeff"]).denominator != 1
        rep = log_convexity(ps, 2, strong=strong)
        assert not rep["ok"] and rep["first_failure"] == want


# -- the Kronecker-packed check against the unpacked product loop -----------

def unpacked_log_convexity(seq, n_max, strong=False):
    """Test-only copy of the former check: every difference formed from
    plain MPoly products."""
    polys = _as_mpoly_list(seq)
    if len(polys) < n_max + 3:
        raise ValueError("need sequence entries through index %d" % (n_max + 2))
    pairs = [(m, n) for m in range(n_max + 1)
             for n in range(m, n_max + 1)] if strong \
        else [(n, n) for n in range(n_max + 1)]
    uses = Counter(key for m, n in pairs for key in ((m, n + 2), (m + 1, n + 1)))
    live = {}

    def prod(key):
        p = live.get(key)
        if p is None:
            p = live[key] = polys[key[0]] * polys[key[1]]
        uses[key] -= 1
        if not uses[key]:
            del live[key]
        return p

    for m, n in pairs:
        diff = prod((m, n + 2)) - prod((m + 1, n + 1))
        bad = least_negative(diff)
        if bad is not None:
            e, c = bad
            return {"ok": False, "strong": strong,
                    "first_failure": {"m": m, "n": n,
                                      "monomial": repr(MPoly(diff.vars, {e: 1})),
                                      "coeff": c}}
    return {"ok": True, "strong": strong, "n_max": n_max,
            "first_failure": None}


@st.composite
def log_convexity_cases(draw):
    """Sequences over 1-4 variables with signed int or Fraction
    coefficients, zero and constant entries, and, when ``determined``, a
    last exponent that is an affine function of the index and the others.
    A geometric sequence c * A^i passes when the c_i do, so passing
    sequences with nontrivial products are drawn as well as failing ones."""
    nvars = draw(st.integers(1, 4))
    names = ("x", "y", "z", "w")[:nvars]
    determined = nvars > 1 and draw(st.booleans())
    free = nvars - 1 if determined else nvars
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    w = draw(st.lists(st.integers(0, 2), min_size=free, max_size=free))
    if draw(st.booleans()):
        coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    else:
        coeffs = st.integers(-9, 9).filter(bool)
    n_max = draw(st.integers(0, 3))

    def poly(i, const):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * free),
                                     coeffs, min_size=1, max_size=4))
        if determined:
            terms = {e + (const + b * i + sum(map(int.__mul__, w, e)),): c
                     for e, c in terms.items()}
        return MPoly(names, terms)

    if draw(st.booleans()):
        base = poly(1, 0)
        scale = st.sampled_from([1, 1, 1, 2, -1, Fraction(1, 2)])
        seq = [draw(scale) * base ** i for i in range(n_max + 3)]
    else:
        seq = [draw(st.sampled_from([
            lambda i: 0, lambda i: MPoly.zero(names), lambda i: draw(coeffs),
            lambda i: poly(i, a), lambda i: poly(i, a), lambda i: poly(i, a)]))(i)
            for i in range(n_max + 3)]
    return seq, n_max, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_convexity_cases())
def test_packed_log_convexity_matches_unpacked(case):
    seq, n_max, strong = case
    assert log_convexity(seq, n_max, strong) == \
        unpacked_log_convexity(seq, n_max, strong)


def test_packed_check_sees_negative_slot_in_positive_integer():
    # y^2 - 1 packs to the positive 2^(2W) - 1; only its lowest slot is negative
    y, = variables("y")
    seq = [1, 0, y * y - 1]
    assert log_convexity(seq, 0) == unpacked_log_convexity(seq, 0)
    assert log_convexity(seq, 0)["first_failure"]["coeff"] == -1


def test_packed_slot_width_holds_the_attained_bound():
    # with A = C * (1 + y + ... + y^(T-1)): P_0 P_3 - P_1 P_2 = 2 A^2 has
    # the coefficient 2 T C^2 at y^(T-1), the largest a slot may hold
    C, T = 3, 3
    y, = variables("y")
    A = C * sum((y ** k for k in range(T)), MPoly.zero(("y",)))
    seq = [-A, A, -A, -A]
    rep = log_convexity(seq, 1, strong=True)
    assert rep == unpacked_log_convexity(seq, 1, strong=True)
    assert rep["first_failure"]["m"] == rep["first_failure"]["n"] == 1


def test_packed_compression_keeps_free_variables_apart():
    # x*y - x: y is free, and dropping it would merge the two terms
    x, y = variables("x y")
    seq = [1, 0, x * y - x]
    assert log_convexity(seq, 0) == unpacked_log_convexity(seq, 0)
    assert log_convexity(seq, 0)["first_failure"]["monomial"] == "x"


def test_packed_compression_drops_determined_exponents():
    ps = gkp_tilde_polys(4)
    packed, _ = hankel._kronecker_pack(ps)
    # tgp and x follow from the index and the other exponents; tg is packed
    assert packed[4].vars == ("ta", "tb", "tap", "tbp")


def test_flagged_difference_without_negative_coefficient_raises(monkeypatch):
    # a mask with every bit set flags each nonzero packed coefficient, also
    # on the tilde polynomials, which pass
    pack = hankel._kronecker_pack
    monkeypatch.setattr(hankel, "_kronecker_pack", lambda ps: (pack(ps)[0], -1))
    with pytest.raises(ArithmeticError, match="no negative coefficient"):
        log_convexity(gkp_tilde_polys(4), 1)


# -- minors built level by level against a determinant per minor ------------

def minorwise_hankel_tp(seq, m, r):
    """Test-only copy of the former enumeration: every minor computed on
    its own by ``bareiss_det`` over the original entries."""
    H = [[seq[i + j] for j in range(m)] for i in range(m)]
    for s in range(1, r + 1):
        for rows in combinations(range(m), s):
            for cols in combinations(range(m), s):
                minor = bareiss_det([[H[i][j] for j in cols] for i in rows])
                ok, wit = coeffwise_nonneg(minor)
                if not ok:
                    return hankel.TPReport(order=r, ok=False, witness={
                        "rows": rows, "cols": cols, "minor": minor,
                        "offending": wit})
    return hankel.TPReport(order=r, ok=True)


def tp_summary(rep):
    w = rep.witness
    if w is None:
        return rep.order, rep.ok, None
    return rep.order, rep.ok, w["rows"], w["cols"], repr(w["minor"]), w["offending"]


@st.composite
def hankel_tp_cases(draw):
    """Hankel sizes m <= 5 and orders 1 <= r <= m over signed ints,
    Fractions, zeros and MPolys in 1-3 variables (over varying variable
    tuples) with small or large (up to 10^12) Fraction coefficients of
    either sign.  Moment sequences sum_k w_k l_k^n
    with positive numeric w_k, l_k pass at every order, and with
    polynomial l_k usually fail only at order 2 or above; a random
    perturbation of one entry moves the first failure around."""
    m = draw(st.integers(1, 5))
    r = draw(st.integers(1, m))
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    numerators = st.integers(-3, 6) | st.integers(-10 ** 12, 10 ** 12)
    coeffs = st.builds(Fraction, numerators.filter(bool), st.integers(1, 3))

    def poly(coeffs):
        vars = names[:draw(st.integers(1, len(names)))]
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(vars)),
                                     coeffs, min_size=1, max_size=3))
        return MPoly(vars, terms)

    n = 2 * m - 1
    kind = draw(st.sampled_from(["entries", "moments", "polymoments"]))
    if kind == "entries":
        seq = [draw(st.sampled_from([
            lambda: 0, lambda: MPoly.zero(names), lambda: draw(st.integers(-2, 9)),
            lambda: draw(coeffs), lambda: poly(coeffs), lambda: poly(coeffs)]))()
            for _ in range(n)]
    else:
        positive = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))
        node = (lambda: poly(positive)) if kind == "polymoments" \
            else (lambda: draw(positive))
        atoms = [(draw(positive), node()) for _ in range(draw(st.integers(1, 3)))]
        seq = [sum((w * l ** i for w, l in atoms), 0) for i in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        seq[i] = seq[i] + draw(st.sampled_from([-1, Fraction(-1, 2), 1, -10 ** 9]))
    return seq, m, r


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hankel_tp_cases())
def test_leveled_minors_match_minorwise_determinants(case):
    seq, m, r = case
    assert tp_summary(hankel_tp(seq, m, r)) == tp_summary(minorwise_hankel_tp(seq, m, r))


def test_flagged_minor_without_negative_coefficient_raises(monkeypatch):
    # negated integer entries make the check flag the first minor, a
    # positive entry of the factorial sequence
    as_list = hankel._as_mpoly_list
    monkeypatch.setattr(hankel, "_as_mpoly_list", lambda seq: [-p for p in as_list(seq)])
    with pytest.raises(ArithmeticError, match="no negative coefficient"):
        hankel_tp([1, 1, 2, 6, 24], 3, 3)


def test_hankel_tp_rejects_non_polynomial_entries():
    x, = variables("x")
    one = MPoly.one(("x",))
    with pytest.raises(TypeError, match="coefficientwise order applies to polynomials"):
        hankel_tp([one, RatFunc(one, x + 1), x], 2, 2)


def test_flagged_minor_under_a_full_mask_raises(monkeypatch):
    # a mask with every bit set flags the first nonzero packed minor of a
    # sequence that passes
    pack = hankel._kronecker_pack
    monkeypatch.setattr(hankel, "_kronecker_pack", lambda ps, r=2: (pack(ps, r)[0], -1))
    with pytest.raises(ArithmeticError, match="no negative coefficient"):
        hankel_tp([1, 1, 2, 6, 24], 3, 3)



@st.composite
def numeric_mu_cases(draw):
    """int or Fraction mu, all nonnegative half of the time, with Hankel
    sizes m <= 6, orders r <= 3 and n_max <= 6."""
    value = st.integers(0, 4) | st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))
    if draw(st.booleans()):
        value = value | st.integers(-3, -1) \
            | st.builds(Fraction, st.integers(-6, -1), st.integers(1, 3))
    mu = tuple(draw(value) for _ in range(6))
    return mu, draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(0, 6))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(numeric_mu_cases())
# first failures at order 3: the leading 3 x 3 minor, and rows (0, 1, 4)
@example(((Fraction(1, 2), Fraction(-1, 2), 2, 0, 3, Fraction(1, 2)), 3, 3, 4))
@example(((Fraction(3, 2), 1, 2, -1, 3, 0), 5, 3, 6))
def test_int_packed_checks_on_numeric_rows_match_the_unpacked_ones(case):
    # the row polynomials of numeric mu pack into one int each: the minors
    # and the differences are int products decided by one slot test
    mu, m, r, n_max = case
    ps = row_polys(gkp_triangle(mu, max(2 * m - 2, n_max + 2)))
    assert all(type(a) is int for a in hankel._kronecker_pack(ps, r)[0])
    assert tp_summary(hankel_tp(ps, m, r)) == tp_summary(minorwise_hankel_tp(ps, m, r))
    for strong in (False, True):
        assert log_convexity(ps, n_max, strong) == unpacked_log_convexity(ps, n_max, strong)

def test_order3_slot_width_holds_a_minor_past_the_order2_width():
    # a_n = C A (1 + 2^n + 3^n), A = 1 + y + y^2: a moment sequence, so every
    # minor is nonnegative; the 3 x 3 one is 4 C^3 A^3, whose coefficient
    # 28 C^3 at y^3 needs more bits than 2 T top^2.  The bound r! T^(r-1)
    # top^r is not attained at r = 3 (a 3 x 3 matrix of signs has
    # determinant at most 4), so this is the largest minor such entries give.
    C = 1 << 20
    y, = variables("y")
    A = 1 + y + y * y
    seq = [C * A * (1 + 2 ** n + 3 ** n) for n in range(5)]
    minor = bareiss_det([[seq[i + j] for j in range(3)] for i in range(3)])
    T, top = 3, max(seq[4].terms.values())
    assert max(minor.terms.values()) == 28 * C ** 3 > 2 * T * top ** 2
    # y is packed whole: each entry is one integer, and the slots of the
    # determinant of those integers are the coefficients of the minor
    packed, tops = hankel._kronecker_pack(seq, 3)
    width = (tops & -tops).bit_length()
    assert all(type(a) is int for a in packed)
    D = cofactor_det([[packed[i + j] for j in range(3)] for i in range(3)])
    slots = []
    for _ in range(7):
        s = D & ((1 << width) - 1)
        s -= (s >> (width - 1)) << width
        slots.append(s)
        D = (D - s) >> width
    assert D == 0 and slots == [minor.terms.get((j,), 0) for j in range(7)]
    assert tp_summary(hankel_tp(seq, 3, 3)) == tp_summary(minorwise_hankel_tp(seq, 3, 3)) \
        == (3, True, None)


def test_minor_check_sees_negative_slot_in_positive_integer():
    # every entry has y-degree 2, and every minor of order 1 and 2 passes;
    # the 3 x 3 minor has its only negative coefficient at y^5, above the
    # degree 4 of a product of two entries, and a positive top coefficient,
    # so its packed integer is positive
    y, = variables("y")
    seq = [7 * y ** 2 + 2 * y + 7, 10 * y ** 2 + 3 * y + 9, 22 * y ** 2 + 3 * y + 21,
           58 * y ** 2 + 3 * y + 57, 166 * y ** 2 + 3 * y + 165]
    packed, tops = hankel._kronecker_pack(seq, 3)
    D = cofactor_det([[packed[i + j] for j in range(3)] for i in range(3)])
    assert type(D) is int and D > 0 and hankel._negative_slot(D, tops)
    rep = hankel_tp(seq, 3, 3)
    assert tp_summary(rep) == tp_summary(minorwise_hankel_tp(seq, 3, 3))
    assert rep.witness["rows"] == rep.witness["cols"] == (0, 1, 2)
    assert rep.witness["offending"] == {"monomial": {"y": 5}, "coeff": -72}
    assert hankel_tp(seq, 3, 2).ok


def test_negative_packed_integer_is_flagged_whatever_the_mask():
    # a negative integer flags by its sign alone, also when its negative
    # slot lies above every slot the mask covers
    assert hankel._negative_slot(-(1 << 64), 1 << 7)
    assert not hankel._negative_slot(1 << 64, 1 << 7)
    assert not hankel._negative_slot(0, 1 << 7)


def test_empty_ranges_raise():
    with pytest.raises(ValueError, match="n_max"):
        log_convexity([1, 1, 1], -1)
    for m, r in ((0, 2), (2, 0), (3, -1)):
        with pytest.raises(ValueError, match="at least 1"):
            hankel_tp([1] * 5, m, r)


# -- the sign-only last level split across forked workers -------------------

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def cpus(n, min_work=0):
    """``n`` usable CPUs and a split threshold of ``min_work``; the forks
    made inside are counted in the list it yields, and none outlives it."""
    forks = []
    fork = os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "SPLIT_MIN_WORK", min_work)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        yield forks
    assert_no_child_left()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_convexity_cases(), hankel_tp_cases(), numeric_mu_cases())
def test_split_last_level_matches_the_serial_walk(lc, tp, numeric):
    seq, n_max, strong = lc
    tseq, m, r = tp
    mu, nm, nr, nn = numeric
    ps = row_polys(gkp_triangle(mu, max(2 * nm - 2, nn + 2)))

    def reports():
        return (log_convexity(seq, n_max, strong), tp_summary(hankel_tp(tseq, m, r)),
                log_convexity(ps, nn, True), tp_summary(hankel_tp(ps, nm, nr)))

    with cpus(1) as forks:
        want = reports()
    assert not forks
    with cpus(2):
        assert reports() == want


def test_split_runs_on_the_tilde_polynomials():
    ps = gkp_tilde_polys(6)
    with cpus(1):
        want = log_convexity(ps, 4, strong=True), hankel_tp(ps, 4, 3), hankel_tp(ps, 3, 2)
    for n in (2, 3):
        with cpus(n) as forks:
            got = log_convexity(ps, 4, strong=True), hankel_tp(ps, 4, 3), hankel_tp(ps, 3, 2)
        assert got == want and len(forks) == 3 * (n - 1)


def first_flagged(n, flagged, child=None):
    """``_first_flagged`` over the keys 0..n-1, one group each, of which
    ``flagged`` have a negative value; in a forked worker, ``child(key)``
    runs before each value."""
    parent = os.getpid()

    def values(keys):
        for k in keys:
            if child is not None and os.getpid() != parent:
                child(k)
            yield -1 if k in flagged else 1

    return hankel._first_flagged(list(range(n)), values, 0,
                                 [(1 + k % 3, [k]) for k in range(n)])


def test_split_finds_the_least_flag_of_every_worker():
    with cpus(2) as forks:
        for flagged in [()] + [(p,) for p in range(7)] + list(combinations(range(7), 2)):
            assert first_flagged(7, set(flagged)) == min(flagged, default=None), flagged
            assert_no_child_left()
    assert len(forks) == 1 + 7 + 21


def test_failing_child_falls_back_to_the_serial_walk():
    def boom(key):
        raise RuntimeError("child")

    with cpus(2) as forks:
        for p in range(7):
            assert first_flagged(7, {p}, boom) == p
        # the same on a real check: a child that raises changes no report
        ps = gkp_tilde_polys(6)
        ta, x = MPoly.variable("ta", ps[0].vars), MPoly.variable("x", ps[0].vars)
        bent = ps[:3] + [ps[3] + 5 * ta * x ** 2] + ps[4:]
        with cpus(1):
            want = log_convexity(bent, 4, strong=True), hankel_tp(ps, 4, 3)
        assert not want[0]["ok"] and want[1].ok
        parent = os.getpid()
        slot = hankel._negative_slot

        def child_raises(p, tops):
            if os.getpid() != parent:
                raise MemoryError
            return slot(p, tops)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hankel, "_negative_slot", child_raises)
            assert (log_convexity(bent, 4, strong=True), hankel_tp(ps, 4, 3)) == want
    assert len(forks) == 9


def test_exception_in_the_parent_share_is_the_serial_one():
    parent = os.getpid()

    def values(keys):
        for k in keys:
            if k == 4 and os.getpid() == parent:
                raise ArithmeticError("no value for key %d" % k)
            yield 1

    groups = [(1, [k]) for k in range(6)]
    with cpus(1):
        with pytest.raises(ArithmeticError, match="^no value for key 4$"):
            hankel._first_flagged(list(range(6)), values, 0, groups)
    with cpus(2) as forks:
        with pytest.raises(ArithmeticError, match="^no value for key 4$"):
            hankel._first_flagged(list(range(6)), values, 0, groups)
    assert len(forks) == 1


def test_interrupt_kills_and_reaps_the_children():
    parent = os.getpid()

    def values(keys):
        for k in keys:
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(10)
            yield 1

    start = time.perf_counter()
    with cpus(2) as forks:
        with pytest.raises(KeyboardInterrupt):
            hankel._first_flagged([0, 1], values, 0, [(1, [0]), (1, [1])])
    assert forks and time.perf_counter() - start < 5


def test_no_fork_without_a_second_cpu_or_fork():
    ps = gkp_tilde_polys(6)
    with cpus(1) as forks:
        want = log_convexity(ps, 4, strong=True), hankel_tp(ps, 4, 3)
    assert not forks
    for name in ("fork", "sched_getaffinity"):
        with cpus(2) as forks, pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, name)
            assert (log_convexity(ps, 4, strong=True), hankel_tp(ps, 4, 3)) == want
        assert not forks


def test_small_levels_stay_serial():
    # numeric rows never split; the threshold keeps the symbolic-mu
    # differences of the benchmark's logconvex job (25 162 term products) in
    # one process, and splits the tilde differences (223 849)
    mu = cli._parse_mu("1,sym,1,1,sym,1")
    numeric = row_polys(gkp_triangle((1, 2, Fraction(1, 2), 3, 1, 4), 8))
    with cpus(2, hankel.SPLIT_MIN_WORK) as forks:
        log_convexity(row_polys(cli.triangle(mu, 10)), 8, strong=True)
        hankel_tp(numeric, 5, 3)
        assert not forks
        log_convexity(gkp_tilde_polys(8), 6, strong=True)
        assert len(forks) == 1
