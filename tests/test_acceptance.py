"""Acceptance suite: thirteen end-to-end criteria, each printing one
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see the
lines stream).  Every comparison is exact; there are no tolerances."""
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from gkpfrac.exactalg import MPoly, as_field, felem_eq, variables
from gkpfrac.gkpcore import GKPParams, gkp_triangle, residual_checks, row_polys
from gkpfrac import cfrac as cfr
from gkpfrac import combinat
from gkpfrac import families
from gkpfrac import hankel as hk
from gkpfrac import matprod
from gkpfrac import search
from gkpfrac import symmetry
from helpers import expected_classes


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d: FAIL - %s" % (number, text))
        sys.stdout.flush()
        raise
    print("ACCEPTANCE %2d: PASS - %s" % (number, text))
    sys.stdout.flush()


def test_criterion_01_sfrac_families_depth12():
    with criterion(1, "ten S-fraction families, symbolic coefficients "
                      "c_1..c_12 exact"):
        for fid in families.SFRAC_FAMILY_IDS:
            rep = families.verify_family(fid, None, 12)
            assert rep["first_mismatch"] is None, (fid, rep)


def test_criterion_02_group_structure():
    with criterion(2, "48-element group: center, class profile, relations "
                      "and direct-product presentation (abstract + maps)"):
        elems, mult, classes, center = symmetry.group_table()
        assert len(elems) == 48
        assert center == [symmetry.IDENT, symmetry.X ** 6]
        assert sorted((c["order"], c["size"]) for c in classes) \
            == symmetry.EXPECTED_CLASS_PROFILE
        sizes = sorted(c["size"] for c in classes)
        assert sizes == [1, 1, 2, 2, 2, 2, 2, 3, 3, 4, 4, 4, 6, 6, 6]
        got = {frozenset(c["elements"]) for c in classes}
        assert got == set(expected_classes())
        rep = symmetry.verify_relations()
        assert rep["ok"], rep


def test_criterion_03_symmetry_actions_n8():
    with criterion(3, "scaling/duality/shift/inverse-pair/X actions on row "
                      "polynomials, symbolic, n <= 8"):
        mu = GKPParams.symbolic()
        kl = variables("kp lm", extra=("alpha", "beta", "gamma", "alphap",
                                       "betap", "gammap"))
        words = [symmetry.ScalingMap(*kl), "D", "Z", "X"]
        for word, rep in zip(words, symmetry.verify_actions(words, mu, 8)):
            assert rep["ok"], word
        assert symmetry.verify_action(["R"], mu, 8)["ok"]
        # the row-reversal identity at the matrix level, entrywise
        t = gkp_triangle(mu, 8)
        td = gkp_triangle(symmetry.apply_map(symmetry.D, mu), 8)
        for n in range(9):
            for k in range(n + 1):
                assert felem_eq(as_field(td.entry(n, k)),
                                as_field(t.entry(n, n - k)))


def test_criterion_04_cfrac_engine():
    with criterion(4, "round trips (S depth 8, J depth 4), contraction "
                      "identities, binomial-transform laws, commutation"):
        c = variables(["c%d" % i for i in range(1, 13)], extra=("xi",))
        xi = MPoly.variable("xi", c[0].vars)
        back = cfr.extract_sfrac(cfr.eval_sr(c[:8], 8), 8)
        assert all(felem_eq(as_field(a), as_field(b))
                   for a, b in zip(back.c, c))
        e = variables(["e%d" % i for i in range(4)],
                      extra=["f%d" % i for i in range(1, 5)])
        f = tuple(MPoly.variable("f%d" % i, e[0].vars) for i in range(1, 5))
        back = cfr.extract_jfrac(cfr.eval_jr(e, f, 8), 4)
        assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(back.e, e))
        assert all(felem_eq(as_field(a), as_field(b)) for a, b in zip(back.f, f))
        # contraction identities for S and for T with vanishing even levels
        j = cfr.contract(cfr.CFrac("S", c=c))
        assert cfr.eval_cfrac(j, 12) == cfr.eval_sr(c, 12)
        d = tuple(MPoly.variable("xi", c[0].vars) if i % 2 == 0 else 0
                  for i in range(12))
        jt = cfr.contract(cfr.CFrac("T", c=c, d=d))
        assert cfr.eval_cfrac(jt, 12) == cfr.eval_tr(c, d, 12)
        # the five transform laws, each verified against the summation
        cfr.transform_laws("S->T", c[:8], xi, verify_order=8)
        cfr.transform_laws("T->T", (c[:8], d[:8]), xi, verify_order=8)
        cfr.transform_laws("J->J", (e, f), xi, verify_order=8)
        cfr.transform_laws("S->J", c[:8], xi, verify_order=8)
        cfr.transform_laws("T->J", (c[:8], d[:8]), xi, verify_order=8)
        via_T = cfr.contract(cfr.transform_laws("S->T", c, xi))
        direct = cfr.transform_laws("S->J", c, xi)
        assert all(felem_eq(as_field(a), as_field(b))
                   for a, b in zip(via_T.e, direct.e))
        assert all(felem_eq(as_field(a), as_field(b))
                   for a, b in zip(via_T.f, direct.f))


def test_criterion_05_master_polynomial():
    with criterion(5, "master permutation polynomial: brute force over S_n "
                      "matches the S-fraction through n = 7, plus the three "
                      "explicit summation identities"):
        rep = combinat.verify_master_sfrac(7)
        assert rep["ok"], rep
        w, y, u, v = variables(combinat.MASTER_VARS)
        for n in range(8):
            brute = combinat.master_poly_bruteforce(n).subs({"v": y})
            assert felem_eq(as_field(brute), combinat.master_poly_vy_formula(n))
        for n in range(8):
            counts = combinat.cyc_exc_count_bruteforce(n)
            for i in range(n + 1):
                for l in range(n + 1):
                    assert counts.get((i, l), 0) \
                        == combinat.cyc_exc_count_formula(n, i, l)
        rep = combinat.explicit_formula_checks(8)
        assert rep["eulerian_ordered_bell"], rep


def test_criterion_06_tj_families():
    with criterion(6, "T/J families: J and T forms at depth 12, binomial "
                      "relations at n <= 8, diagonal-dual T-pair, "
                      "self-dual J-family at depth 10"):
        for fid in ("F7a", "F7b"):
            assert families.verify_family(fid, None, 12, kind="J")[
                "first_mismatch"] is None
            assert families.verify_family(fid, None, 12, kind="T")[
                "first_mismatch"] is None
        for pair in ("7a/3a", "7b/3b", "6/2a"):
            assert families.verify_binomial_relations(pair, 8)["ok"]
        for fid in ("F8a", "F8b"):
            assert families.verify_family(fid, None, 12, kind="T")[
                "first_mismatch"] is None
        assert families.verify_family("F1c", None, 10, kind="J")[
            "first_mismatch"] is None


def test_criterion_07_conjectured_families_paper_scale():
    with criterion(7, "conjectured T-fractions (and their contracted "
                      "J-forms): five random positive rational samples "
                      "through n = 20 and symbolic through n = 12"):
        rng = random.Random(20)
        for fid in ("F9a", "F9b"):
            spec = families.get_family(fid)
            for _ in range(5):
                params = {p: Fraction(rng.randint(1, 6), rng.randint(1, 4))
                          for p in spec.params}
                rep = families.verify_family(fid, params, 20, kind="T")
                assert rep["first_mismatch"] is None, (fid, params, rep)
            for kind in ("T", "J"):
                rep = families.verify_family(fid, None, 12, kind=kind)
                assert rep["first_mismatch"] is None, (fid, kind, rep)


def test_criterion_08_gkpz():
    with criterion(8, "four-term recurrence: J-fraction symbolic through "
                      "n = 10; closed-form egf with both parameter sets at "
                      "three numeric samples, order 8"):
        rep = families.verify_family("GKPZ", None, 10, kind="J")
        assert rep["first_mismatch"] is None, rep
        samples = [
            {"beta": 1, "gamma": 2, "alphap": 3, "gammap": 1, "kappa": 2},
            {"beta": 2, "gamma": 1, "alphap": 1, "gammap": 3,
             "kappa": Fraction(1, 2)},
            {"beta": 3, "gamma": Fraction(2, 3), "alphap": 2, "gammap": 1,
             "kappa": 1},
        ]
        for params in samples:
            rep = families.verify_egf_closed_forms("GKPZ", params, 8)
            assert rep["ok"], (params, rep)


def test_criterion_09_decision_tree():
    with criterion(9, "decision-tree replay: 10 red leaves = the ten "
                      "families, 12 gray leaves, terminating set s0-s6b, "
                      "all 28 documented remainders reproduced"):
        summary = search.run_tree()
        assert summary["ok"], summary["counts"]
        assert summary["counts"]["red"] == 10
        assert summary["counts"]["gray"] == 12
        assert summary["red_families"] == sorted(search.RED_FAMILIES)
        assert summary["terminating_families"] \
            == sorted(search.TERMINATING_FAMILIES)
        assert len(summary["remainder_checks"]) == 28
        assert all(summary["remainder_checks"].values())


def test_criterion_10_hankel_positivity():
    with criterion(10, "order-2 Hankel positivity via strong log-convexity "
                       "through n = 10 with all seven indeterminates; "
                       "order-3 minors at ten random nonnegative samples; "
                       "factorial 3x3 determinant = 4"):
        ps = hk.gkp_tilde_polys(12)
        rep = hk.log_convexity(ps, 10, strong=True)
        assert rep["ok"], rep
        rng = random.Random(11)
        for _ in range(10):
            mu = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3))
                       for _ in range(6))
            rows = row_polys(gkp_triangle(mu, 8))
            assert hk.hankel_tp(rows, 5, 3).ok, mu
        assert hk.bareiss_det([[1, 1, 2], [1, 2, 6], [2, 6, 24]]) == 4


def test_criterion_11_matrix_products():
    with criterion(11, "all registered product-recurrence cases at N = 5-6 "
                       "including the double-sum identity and the "
                       "four-term family-6 recurrence; falling-factorial "
                       "identities; inverse-pair equivalences and the "
                       "binomial inverse identity"):
        depths = {"A.3": 4, "A.4": 4, "A.9": 5, "A.12": 5, "A.16": 5,
                  "A.17": 5, "A.13": 5, "A.14": 5, "A.10": 5, "A.2": 5}
        for cid in sorted(matprod.PRODUCT_CASES):
            n = depths.get(cid, 6)
            rep = matprod.verify_product_case(cid, n)
            assert rep["ok"], (cid, rep)
        assert matprod.case_A13_remark_defect(5)["ok"]
        assert matprod.verify_eq_family6_gkpz(6)["ok"]
        for part in ("a", "b"):
            assert matprod.nearly_binomial_identities(part, 2, 6)["ok"]
        rng = random.Random(13)
        al = variables("al")[0]
        from gkpfrac.gkpcore import Triangle
        for _ in range(20):
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n + 1)]
                    for n in range(6)]
            B = Triangle(rows)
            alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            A = matprod.inverse_pair_from_b(B, alpha)
            assert matprod.inverse_pair_check(A, B, alpha)["all"]
        ident = Triangle([[1 if k == n else 0 for k in range(n + 1)]
                          for n in range(7)])
        assert matprod.inverse_pair_check(ident, ident, al)["all"]
        B = Triangle([[1 if k == 0 else 0 for k in range(n + 1)]
                      for n in range(7)])
        A = matprod.inverse_pair_from_b(B, al)
        assert matprod.inverse_pair_check(A, B, al)["all"]
        assert matprod.binomial_inverse_identity(8)["ok"]


def test_criterion_12_residuals():
    with criterion(12, "differential recurrence and PDE residuals "
                       "identically zero, fully symbolic, order 8"):
        from gkpfrac.exactalg import felem_is_zero
        mu = GKPParams.symbolic()
        odes, pde = residual_checks(mu, 8)
        assert all(felem_is_zero(as_field(r)) for r in odes)
        assert pde.is_zero()


def test_criterion_13_xshift_uniqueness():
    with criterion(13, "x-shift transforms at n <= 3: identity and the "
                       "shift involution verified symbolically; the linear "
                       "system from the row ODE has exactly 2 solutions at "
                       "20 generic samples"):
        assert matprod.xshift_symbolic_check(3)["ok"]
        rep = matprod.xshift_smalln_check(samples=20, seed=0)
        assert rep["ok"], rep
        assert rep["samples"] == 20 and all(c == 2 for c in rep["counts"])
