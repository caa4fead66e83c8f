import random
from fractions import Fraction

import pytest

from gkpfrac.exactalg import MPoly, as_field, felem_eq, variables
from gkpfrac.gkpcore import Triangle, gkp_triangle, gkpz_triangle
from gkpfrac.combinat import binom
from gkpfrac import matprod
from gkpfrac.matprod import (
    PRODUCT_CASES, SizeMismatch, binomial_inverse_identity, binomial_matrix,
    case_A13_remark_defect, inverse_pair_check, inverse_pair_from_b,
    nearly_binomial_identities, triangle_product, verify_eq_family6_gkpz,
    verify_product_case, xshift_smalln_check, xshift_symbolic_check,
)


def test_binomial_matrix_group_law():
    xi1, xi2 = variables("xi1 xi2")
    N = 6
    ident = binomial_matrix(0 * xi1, N)
    B1 = binomial_matrix(xi1, N)
    assert triangle_product(B1, ident) == B1
    assert triangle_product(B1, binomial_matrix(xi2, N)) \
        == binomial_matrix(xi1 + xi2, N)


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        triangle_product(binomial_matrix(1, 3), binomial_matrix(1, 4))


def test_family_product_relation():
    al, ap, bp, gp, kp = variables("al ap bp gp kp")
    N = 6
    t2a = gkp_triangle((al, -al, -al, ap, bp, gp), N)
    t6 = gkp_triangle((kp * (ap + bp), kp * bp, kp * gp, ap, bp, gp), N)
    assert triangle_product(t2a, binomial_matrix(kp, N)) == t6


def test_product_associativity_random():
    rng = random.Random(5)
    N = 5

    def rand_triangle():
        return Triangle([[Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
                         for n in range(N + 1)])

    for _ in range(5):
        A, B, C = rand_triangle(), rand_triangle(), rand_triangle()
        assert triangle_product(triangle_product(A, B), C) \
            == triangle_product(A, triangle_product(B, C))


def test_all_product_cases():
    for cid in sorted(PRODUCT_CASES):
        n = 4 if cid in ("A.3", "A.4") else 5
        rep = verify_product_case(cid, n)
        assert rep["ok"], (cid, rep)
    with pytest.raises(KeyError):
        verify_product_case("A.99")


def test_a13_remark_defect_factor():
    assert case_A13_remark_defect(5) == {"ok": True, "first_mismatch": None}


def test_a13_remark_defect_names_its_cell(monkeypatch):
    # one wrong product entry leaves a defect the factor does not divide
    real = matprod.triangle_product

    def off(A, B):
        rows = real(A, B).rows
        rows[3][1] = rows[3][1] + 1
        return Triangle(rows)

    monkeypatch.setattr(matprod, "triangle_product", off)
    assert case_A13_remark_defect(5) == {"ok": False, "first_mismatch": {"n": 3, "k": 1}}


def test_a17_reduces_to_a15():
    a, b, g, ap, bp, gp = variables("a b g ap bp gp")
    assert gkpz_triangle((a, b, g, ap, bp, gp, 0, 0), 5) \
        == gkp_triangle((a, b, g, ap, bp, gp), 5)


def test_family6_gkpz_recurrence_alpha_free():
    assert verify_eq_family6_gkpz(6)["ok"]


def test_nearly_binomial():
    for part in ("a", "b"):
        assert nearly_binomial_identities(part, 2, 6)["ok"]
    # r = 0 is trivial
    assert nearly_binomial_identities("a", 0, 4)["ok"]


def test_inverse_pair_identity_and_delta():
    al, = variables("al")
    N = 6
    ident = Triangle([[1 if k == n else 0 for k in range(n + 1)]
                      for n in range(N + 1)])
    rep = inverse_pair_check(ident, ident, 0 * al)
    assert rep["all"]
    B = Triangle([[1 if k == 0 else 0 for k in range(n + 1)]
                  for n in range(N + 1)])
    A = inverse_pair_from_b(B, al)
    for n in range(N + 1):
        for k in range(n + 1):
            assert felem_eq(as_field(A.entry(n, k)),
                            as_field(binom(n, k) * al ** k))
    rep = inverse_pair_check(A, B, al)
    assert rep["all"]


def test_inverse_pair_randomized_e_implies_all():
    rng = random.Random(3)
    for _ in range(20):
        N = 5
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n + 1)]
                for n in range(N + 1)]
        B = Triangle(rows)
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        A = inverse_pair_from_b(B, alpha)
        rep = inverse_pair_check(A, B, alpha)
        assert rep["all"], rep


def test_binomial_inverse_identity():
    assert binomial_inverse_identity(5)["ok"]
    # the k = l + 1 case telescopes to zero: check one instance directly
    p, al = variables("p al")
    k, l = 3, 2
    acc = 0
    for j in range(l, k + 1):
        cjk = MPoly.one(p.vars)
        for i in range(k - j):
            cjk = cjk * (p - j - i)
        cjl = MPoly.one(p.vars)
        for i in range(j - l):
            cjl = cjl * (p - l - i)
        acc = acc + al ** (k - j) * cjk * (-1 * al) ** (j - l) * cjl
    assert felem_eq(as_field(acc), 0)


def test_xshift_symbolic():
    assert xshift_symbolic_check(3)["ok"]


def test_xshift_numeric_samples():
    rep = xshift_smalln_check(samples=8, seed=0)
    assert rep["ok"], rep
    assert all(c == 2 for c in rep["counts"])
    assert rep["dropped"] == {"beta = 0": 1} and rep["unconfirmed"] == []


def test_xshift_genericity_is_decided_from_mu():
    assert matprod._xshift_degenerate((1, 0, 1, 1, 1, 1)) == "beta = 0"
    assert matprod._xshift_degenerate((1, 1, 1, 1, 0, 1)) == "beta' = 0"
    # T(1,1) = alpha' + beta' + gamma' = 0, T(1,0) = alpha + gamma
    assert matprod._xshift_degenerate((1, 1, 1, 1, 1, -2)) == "s11 = 0"
    assert matprod._xshift_degenerate((1, 1, -1, 1, 1, -2)) == "p10 = 0"
    assert matprod._xshift_degenerate((1, 2, 3, 1, -1, 2)) is None


def test_xshift_oracle_fails_when_some_samples_break(monkeypatch):
    # a fault that rejects the shift involution only where beta' < 0: the
    # samples it hits stay in the report instead of being redrawn
    real = matprod._verify_xshift_solution
    monkeypatch.setattr(matprod, "_verify_xshift_solution",
                        lambda mu, xi: real(mu, xi) and not (xi and mu[4] < 0))
    rep = xshift_smalln_check(samples=20, seed=0)
    assert not rep["ok"] and rep["samples"] == 20
    hit = rep["unconfirmed"]
    assert 0 < len(hit) < 20
    assert all(Fraction(u["mu"][4]) < 0 and Fraction(u["xi"]) != 0 for u in hit)


def test_inverse_pair_check_reports_a_broken_pair():
    rng = random.Random(4)
    N = 4
    B = Triangle([[Fraction(rng.randint(-4, 4)) for _ in range(n + 1)]
                  for n in range(N + 1)])
    alpha = Fraction(2, 3)
    A = inverse_pair_from_b(B, alpha)
    rows = [list(r) for r in A.rows]
    rows[3][1] += 1
    rep = inverse_pair_check(Triangle(rows), B, alpha)
    assert rep == {**{key: False for key in "abcdefgh"}, "all": False, "any": False}
    assert list(rep) == list("abcdefgh") + ["all", "any"]


def test_a6_remark_names_the_first_mismatching_cell(monkeypatch):
    assert verify_product_case("A.6-remark", 4) == {
        "ok": True, "first_mismatch": None, "case": "A.6-remark"}
    binomial = matprod.binomial_matrix
    monkeypatch.setattr(matprod, "binomial_matrix",
                        lambda xi, N: binomial(2 * xi, N))
    for case in ("A.6-remark", "A.10"):
        rep = verify_product_case(case, 4)
        assert rep["ok"] is False
        assert rep["first_mismatch"] == {"n": 1, "k": 0}, case
    monkeypatch.undo()
    # every case, and each sub-case of A.6 and A.13, sees C(2,1) off by one
    product = matprod.triangle_product

    def perturbed(A, B):
        C = product(A, B)
        C.rows[2][1] = C.rows[2][1] + 1
        return C

    monkeypatch.setattr(matprod, "triangle_product", perturbed)
    sub_reports = {"A.6": ("alphap=0", "hatbeta=0"),
                   "A.13": ("hatalpha=0", "gphatalpha=a")}
    for case in PRODUCT_CASES:
        rep = verify_product_case(case, 3)
        assert rep["ok"] is False, case
        for r in [rep[sub] for sub in sub_reports.get(case, ())] or [rep]:
            assert r["ok"] is False and r["first_mismatch"] == {"n": 2, "k": 1}, case


def test_symbols_declares_one_generator_per_prefix_and_index():
    xi, hA, hGd = matprod._symbols(3, "xi", ("hA", 0), ("hGd", 1))
    names = ("xi", "hA0", "hA1", "hA2", "hA3", "hGd1", "hGd2", "hGd3")
    gens = [xi] + [hA(i) for i in range(4)] + [hGd(i) for i in range(1, 4)]
    assert [g.vars for g in gens] == [names] * len(names)
    assert gens == [MPoly.variable(v, names) for v in names]
    for f, lo in ((hA, 0), (hGd, 1)):
        for i in (lo - 1, 4):
            with pytest.raises(KeyError):
                f(i)


def test_guards_reject_what_they_cannot_take():
    with pytest.raises(ValueError, match="part must be 'a' or 'b'"):
        nearly_binomial_identities("c")
    with pytest.raises(SizeMismatch, match="orders differ"):
        inverse_pair_check(gkp_triangle((0, 0, 1, 0, 0, 1), 2),
                           gkp_triangle((0, 0, 1, 0, 0, 1), 3), 1)


def test_xshift_oracle_stops_when_the_symbolic_check_fails(monkeypatch):
    monkeypatch.setattr(matprod, "xshift_symbolic_check", lambda n_max: {"ok": False})
    assert xshift_smalln_check(samples=1) == {"ok": False, "symbolic": {"ok": False}}


def test_xshift_count_is_none_when_the_constraints_vanish():
    # the gcd of the three elimination constraints is the zero polynomial:
    # no xi is singled out
    mu = tuple(Fraction(v) for v in (-1, -1, -1, 0, -1, -1))
    assert matprod._xshift_solution_count(mu) == (None, [])
