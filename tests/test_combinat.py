from fractions import Fraction
from math import factorial

import pytest

from gkpfrac.exactalg import (
    MPoly, TruncSeries, as_field, exp_series, felem_eq, first_mismatch,
    generalized_binomial_series, variables,
)
from gkpfrac.gkpcore import gkp_triangle
from gkpfrac.cfrac import eval_sr
from gkpfrac.combinat import (
    InvalidPermutation, SizeLimit, _cyc_exc_cases, cyc_exc_count_bruteforce,
    cyc_exc_count_formula, eulerian, explicit_formula_checks,
    master_poly_bruteforce, master_poly_vy_formula, perm_stats, stirling_cycle,
    stirling_subset, verify_master_sfrac, x_stirling_transform,
)
from helpers import series_exp


def test_perm_stats_examples():
    st = perm_stats((1, 2, 3))
    assert (st.cyc, st.exc, st.erec) == (3, 0, 0)
    st = perm_stats((2, 1))
    assert (st.cyc, st.exc, st.erec) == (1, 1, 1)
    st = perm_stats((2, 3, 1))
    assert (st.exc, st.cyc) == (2, 1)
    with pytest.raises(InvalidPermutation):
        perm_stats((1, 1, 2))


def test_record_structure_facts():
    from itertools import permutations
    for n in range(1, 7):
        for sigma in permutations(range(1, n + 1)):
            st = perm_stats(sigma)
            # index 1 is a record, index n is an antirecord
            assert st.rec >= 1 and st.arec >= 1
            assert st.erec <= st.rec and st.erec <= st.exc
            assert st.exc + st.cyc <= n


def test_master_poly_small():
    w, y, u, v = variables("w y u v")
    assert master_poly_bruteforce(0) == 1
    assert master_poly_bruteforce(1) == w
    assert master_poly_bruteforce(2) == w * w + w * y
    with pytest.raises(SizeLimit):
        master_poly_bruteforce(10)


def test_master_sfrac():
    rep = verify_master_sfrac(6)
    assert rep["ok"]


def test_master_specializations():
    w, y, u, v = variables("w y u v")
    # all weights 1 counts permutations
    assert master_poly_bruteforce(5).subs({"w": 1, "y": 1, "u": 1, "v": 1}) == 120
    # u = y gives homogenized cycle products
    for n in range(6):
        lhs = master_poly_bruteforce(n).subs({"u": y, "v": y})
        prod = MPoly.one(w.vars)
        for k in range(n):
            prod = prod * (w + k * y)
        assert felem_eq(as_field(lhs), prod)
    # u = w, v = y matches the excedance S-fraction
    cs = []
    for i in range(1, 7):
        k = (i + 1) // 2
        cs.append(k * w if i % 2 else k * y)
    s = eval_sr(cs, 6)
    for n in range(7):
        brute = master_poly_bruteforce(n).subs({"u": w, "v": y})
        assert felem_eq(as_field(s.coeffs[n]), as_field(brute))


def test_classical_numbers():
    assert stirling_subset(3, 2) == 3
    assert stirling_cycle(4, 2) == 11
    assert eulerian(3, 1) == 4
    assert sum(eulerian(5, k) for k in range(5)) == 120


def test_classical_triangles_match_recurrence_arrays():
    t = gkp_triangle((0, 1, 0, 0, 0, 1), 7)
    for n in range(8):
        for k in range(n + 1):
            assert t.entry(n, k) == stirling_subset(n, k)
    t = gkp_triangle((1, 0, -1, 0, 0, 1), 7)
    for n in range(8):
        for k in range(n + 1):
            assert t.entry(n, k) == stirling_cycle(n, k)
    # the two Eulerian indexings
    t = gkp_triangle((0, 1, 1, 1, -1, 0), 7)
    for n in range(8):
        for k in range(n + 1):
            assert t.entry(n, k) == eulerian(n, k), (n, k)
    t = gkp_triangle((0, 1, 0, 1, -1, 1), 7)
    for n in range(1, 8):  # the classical indexing: row n >= 1 starts at k = 1
        for k in range(n + 1):
            assert t.entry(n, k) == eulerian(n, k - 1), (n, k)
    # ordered set partitions
    t = gkp_triangle((0, 1, 0, 0, 1, 0), 7)
    for n in range(8):
        for k in range(n + 1):
            assert t.entry(n, k) == factorial(k) * stirling_subset(n, k)
    # shifted ordered set partitions
    t = gkp_triangle((0, 1, 1, 0, 1, 0), 7)
    for n in range(8):
        for k in range(n + 1):
            assert t.entry(n, k) == factorial(k) * stirling_subset(n + 1, k + 1)
    # injections and the dual ratio array
    t = gkp_triangle((0, 0, 1, 0, 1, 0), 7)
    for n in range(8):
        for k in range(n + 1):
            assert t.entry(n, k) == factorial(n) // factorial(n - k)
    t = gkp_triangle((1, -1, 0, 0, 0, 1), 7)
    for n in range(8):
        for k in range(n + 1):
            assert t.entry(n, k) == factorial(n) // factorial(k)


def test_explicit_formulas():
    # the cyc/exc cases first, so a failure shows its (n, i, l)
    assert first_mismatch(_cyc_exc_cases(6)) is None
    rep = explicit_formula_checks(6)
    assert rep["ok"], rep
    counts = cyc_exc_count_bruteforce(2)
    assert counts[(2, 0)] == 1 and counts[(1, 1)] == 1
    assert cyc_exc_count_formula(2, 2, 0) == 1
    assert cyc_exc_count_formula(2, 1, 1) == 1
    # n = 3 with all weights 1 counts the six permutations
    assert master_poly_vy_formula(3).subs({"w": 1, "y": 1, "u": 1, "v": 1}) == 6


def _off_at(real, args, delta=1):
    """``real`` with ``delta`` added to its value at ``args``."""
    return lambda *a: real(*a) + (delta if a == args else 0)


# one injected formula per sub-check; none of the patched functions caches
@pytest.mark.parametrize("check, patches", [
    ("stirling_expansion_v=y", {"master_poly_bruteforce": (2,)}),
    ("cyc_exc_counts", {"cyc_exc_count_formula": (3, 1, 1)}),
    ("eulerian_ordered_bell", {"factorial": (2,)}),
    # a master polynomial wrong on both routes passes the v = y expansion;
    # its u = 1 specialization catches it
    ("u1_specialization", {"master_poly_bruteforce": (2,),
                           "master_poly_vy_formula": (2,)}),
])
def test_each_explicit_formula_check_can_fail(monkeypatch, check, patches):
    from gkpfrac import combinat
    for name, args in patches.items():
        monkeypatch.setattr(combinat, name, _off_at(getattr(combinat, name), args))
    rep = explicit_formula_checks(4)
    assert rep.pop("ok") is False
    assert rep == {key: key != check for key in rep}


def _counted(calls, real, args=None):
    """``real`` recording each call's arguments in ``calls``, one more than
    ``real`` at ``args``."""
    def spy(*a):
        calls.append(a)
        out = real(*a)
        return out + 1 if a == args else out
    return spy


def test_cyc_exc_check_stops_at_its_first_failure(monkeypatch):
    from gkpfrac import combinat
    formula, brute = [], []
    monkeypatch.setattr(combinat, "cyc_exc_count_formula",
                        _counted(formula, combinat.cyc_exc_count_formula, (3, 1, 1)))
    monkeypatch.setattr(combinat, "cyc_exc_count_bruteforce",
                        _counted(brute, cyc_exc_count_bruteforce))
    assert first_mismatch(_cyc_exc_cases(6))[0] == (3, 1, 1)
    # nothing after the failing case is computed: no later (i, l), no n = 4
    assert formula[-1] == (3, 1, 1) and len(formula) == 1 + 4 + 9 + 4 + 2
    assert brute == [(0,), (1,), (2,), (3,)]
    formula.clear()
    brute.clear()
    assert explicit_formula_checks(6)["cyc_exc_counts"] is False
    assert formula[-1] == (3, 1, 1) and brute[-1] == (3,)


def test_master_check_names_its_first_failing_n(monkeypatch):
    from gkpfrac import combinat
    calls = []
    monkeypatch.setattr(combinat, "master_poly_bruteforce",
                        _counted(calls, combinat.master_poly_bruteforce, (3,)))
    assert verify_master_sfrac(6) == {"ok": False, "first_mismatch": 3}
    assert calls == [(0,), (1,), (2,), (3,)]


def test_one_brute_force_cap(monkeypatch):
    from gkpfrac import combinat
    assert combinat.BRUTE_FORCE_CAP == 9
    monkeypatch.setattr(combinat, "BRUTE_FORCE_CAP", 3)
    assert verify_master_sfrac(3) == {"ok": True, "verified_to": 3, "first_mismatch": None}
    assert explicit_formula_checks(3)["ok"]
    for check in (verify_master_sfrac, explicit_formula_checks,
                  master_poly_bruteforce, cyc_exc_count_bruteforce):
        with pytest.raises(SizeLimit, match=r"^n=4 exceeds the brute-force cap 3$"):
            check(4)


def x_stirling_egf_check(order: int) -> bool:
    """egf law B(t) = A((e^{xt}-1)/x) with symbolic a_0..a_order and x."""
    names = ["a%d" % i for i in range(order + 1)]
    syms = variables(names, extra=("x",))
    x = MPoly.variable("x", syms[0].vars)
    b = x_stirling_transform(list(syms), x)
    B = TruncSeries(order, [bi * Fraction(1, factorial(n)) for n, bi in enumerate(b)])
    A = TruncSeries(order, [ai * Fraction(1, factorial(n)) for n, ai in enumerate(syms)])
    # (e^{xt}-1)/x = sum_{m>=1} x^(m-1) t^m / m!
    inner = TruncSeries(order, [0] + [x ** (m - 1) * Fraction(1, factorial(m))
                                      for m in range(1, order + 1)])
    return A.compose(inner) == B


def master_egf(w, u, y, order: int) -> TruncSeries:
    """((y-u)/(y-u e^{(y-u)t}))^(w/u) at numeric weights (w/u rational)."""
    w, u, y = Fraction(w), Fraction(u), Fraction(y)
    c = y - u
    num = TruncSeries(order, [y] + [0] * order) - exp_series(c, order).scale(u)
    base = num.scale(1 / c)  # (y - u e^{ct})/(y - u), constant term 1
    return generalized_binomial_series(base, -w / u)


def stirling_cycle_egf(w, y, order: int) -> TruncSeries:
    """(1 - y t)^(-w/y) = exp(sum_{n>=1} w y^(n-1) t^n / n), polynomial in
    both weights."""
    return series_exp(TruncSeries(order, [0] + [w * y ** (n - 1) * Fraction(1, n)
                                                for n in range(1, order + 1)]))


def test_x_stirling_transform():
    assert x_stirling_transform([1, 0, 0, 0, 0], 1) == [1, 0, 0, 0, 0]
    assert x_stirling_transform([1] * 5, 1) == [1, 1, 2, 5, 15]
    assert x_stirling_egf_check(4)


def test_master_egf_numeric():
    for (wv, uv, yv) in [(1, 2, 3), (Fraction(1, 2), 1, 2), (2, 3, 5)]:
        F = master_egf(wv, uv, yv, 8)
        for n in range(9):
            want = master_poly_bruteforce(n).subs(
                {"w": wv, "y": yv, "u": uv, "v": yv}) * Fraction(1, factorial(n))
            assert F.coeffs[n] == want


def test_stirling_cycle_egf_symbolic():
    w, y = variables("w y")
    F = stirling_cycle_egf(w, y, 6)
    for n in range(7):
        prod = MPoly.one(w.vars)
        for k in range(n):
            prod = prod * (w + k * y)
        assert felem_eq(as_field(F.coeffs[n] * factorial(n)), prod)


def test_record_facts_through_n7():
    from itertools import permutations
    n = 7
    for sigma in permutations(range(1, n + 1)):
        st = perm_stats(sigma)
        assert st.rec >= 1 and st.arec >= 1
        assert st.erec <= st.rec


def test_master_specialization_chain_n7():
    w, y, u, v = variables("w y u v")
    for n in range(8):
        lhs = master_poly_bruteforce(n).subs({"u": y, "v": y})
        prod = MPoly.one(w.vars)
        for k in range(n):
            prod = prod * (w + k * y)
        assert felem_eq(as_field(lhs), prod)
