"""Products of triangular arrays and the product-recurrence corollaries:
left/right multiplication by shifted-binomial matrices, nearly-binomial
identities with falling-factorial weights, inverse pairs of lower-triangular
arrays, and the small-n uniqueness check for x-shift transforms.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations
from math import factorial
from typing import Callable

from .exactalg import (
    MPoly, as_mpoly, divide_exact, felem_div, felem_eq, felem_is_zero,
    first_mismatch, mismatch_report, mpoly_gcd, variables,
)
from .gkpcore import (
    CLOSED_FORMS, FOUR_TERM, GKPParams, TWO_TERM, Triangle, _ode_step, _unroll,
    _xvar_for, binomial_like_triangle, gkp_triangle, gkpz_triangle, row_polys,
    triangle_mismatch,
)
from .combinat import binom
from .hankel import cofactor_det
from .symmetry import Z as Z_WORD, substitute, verify_action


class SizeMismatch(ValueError):
    pass


def triangle_product(A: Triangle, B: Triangle) -> Triangle:
    """C(n,k) = sum_j A(n,j) B(j,k)."""
    if A.order != B.order:
        raise SizeMismatch("orders %d vs %d" % (A.order, B.order))
    rows = []
    for n in range(A.order + 1):
        row = []
        for k in range(n + 1):
            acc = 0
            for j in range(k, n + 1):
                a = A.entry(n, j)
                b = B.entry(j, k)
                if felem_is_zero(a) or felem_is_zero(b):
                    continue
                acc = acc + a * b
            row.append(acc)
        rows.append(row)
    return Triangle(rows)


def binomial_matrix(xi, N: int) -> Triangle:
    """B_xi(n,k) = C(n,k) xi^(n-k)."""
    rows = []
    for n in range(N + 1):
        row = []
        for k in range(n + 1):
            c = binom(n, k)
            row.append(c * xi ** (n - k) if n - k else c)
        rows.append(row)
    return Triangle(rows)


# neighbour offsets of the claimed product recurrences, besides TWO_TERM
# and FOUR_TERM
THREE_TERM = ((1, 0), (1, 1), (1, -1))
TWO_ROWS = ((1, 0), (1, 1), (2, 0), (2, 1))
THREE_ROWS = TWO_ROWS + ((3, 0), (3, 1))


def _claim(C: Triangle, N: int, offsets, weights: Callable) -> dict:
    """The verdict of C(n,k) = sum_i w_i C(n - dn_i, k - dk_i) for
    1 <= n <= N, where ``weights(n, k)`` lists the w_i in the order of the
    (dn_i, dk_i) in ``offsets``.  C is compared with the triangle this rule
    unrolls from T(0,0) = 1: every dn_i >= 1, so the first cell where the
    two differ is the first cell where C breaks the rule."""
    return triangle_mismatch(C, _unroll(N, offsets, weights).entry, N, first=1)


def _symbols(N, *specs):
    """Generators over one shared registry, in spec order.  A spec is a
    name, for one generator, or a ``(prefix, lo)`` pair, for the function
    i -> prefix<i> on lo <= i <= N (a KeyError elsewhere)."""
    indices = [None if isinstance(s, str) else range(s[1], N + 1) for s in specs]
    names = []
    for s, r in zip(specs, indices):
        names += [s] if r is None else ["%s%d" % (s[0], i) for i in r]
    gens = iter(variables(names))
    # zip stops on the exhausted range before it draws from gens
    return [next(gens) if r is None else dict(zip(r, gens)).__getitem__
            for r in indices]


def _case_A2(N):
    a, ad, b, bd = _symbols(N, ("a", 1), ("ad", 1), ("b", 0), ("bd", 0))
    A = binomial_like_triangle(lambda n, k: (a(n), ad(n)), N)
    B = binomial_like_triangle(lambda n, k: (b(k), bd(k)), N)
    return _claim(triangle_product(A, B), N, TWO_TERM, lambda n, k: (
        a(n) + ad(n) * b(k), ad(n) * bd(k)))


def _case_A3(N):
    al, be, gam, de1, phi, psi = _symbols(
        N, ("al", 1), ("be", 1), ("gam", 0), ("de", 1), ("phi", 0), ("psi", 0))
    de = lambda k: de1(max(k, 1))
    A = binomial_like_triangle(
        lambda n, k: (al(n) + be(n) * gam(k), be(n) * de(k)), N)
    B = binomial_like_triangle(
        lambda n, k: (felem_div(phi(k) - gam(n - 1), de(n)),
                      felem_div(psi(k), de(n))), N)
    return _claim(triangle_product(A, B), N, TWO_TERM, lambda n, k: (
        al(n) + be(n) * phi(k), be(n) * psi(k)))


def _case_A4(N):
    mu = variables("a b g ap bp gp",
                   extra=("ha", "hb", "hg", "hap", "hbp", "hgp"))
    a, b, g, ap, bp, gp = mu
    reg = a.vars
    ha, hb, hg, hap, hbp, hgp = (MPoly.variable(n, reg)
                                 for n in ("ha", "hb", "hg", "hap", "hbp", "hgp"))
    A = gkp_triangle((a, b, g, ap, bp, gp), N)
    B = gkp_triangle((ha, hb, hg, hap, hbp, hgp), N)
    C = triangle_product(A, B)

    def rhs(n, k):
        # A(n-1,j) [B(j,k) w1 + B(j,k-1) w2 w3], one product by A(n-1,j)
        acc = 0
        for j in range(n):
            w2 = ap * n + bp * (j + 1) + gp
            inner = B.entry(j, k) * ((a * n + b * j + g) + w2 * (ha * (j + 1) + hb * k + hg))
            if k >= 1:
                inner = inner + B.entry(j, k - 1) * (w2 * (hap * (j + 1) + hbp * k + hgp))
            acc = acc + A.entry(n - 1, j) * inner
        return acc

    return triangle_mismatch(C, rhs, N, first=1)


def _case_A5(N):
    a, g, ap, gp, hb, hg, hbp, hgp = variables("a g ap gp hb hg hbp hgp")
    A = gkp_triangle((a, 0, g, ap, 0, gp), N)
    B = gkp_triangle((0, hb, hg, 0, hbp, hgp), N)
    return _claim(triangle_product(A, B), N, TWO_TERM, lambda n, k: (
        (a * n + g) + (ap * n + gp) * (hb * k + hg),
        (ap * n + gp) * (hbp * k + hgp)))


def _case_A6(N):
    # C = A * B is of two-term form when alpha' = 0 or hat-beta = hat-beta' = 0
    out = {}
    a, g, gp, hb, hg, hbp, hgp = variables("a g gp hb hg hbp hgp")
    A = gkp_triangle((a, 0, g, 0, 0, gp), N)
    B = gkp_triangle((0, hb, hg, 0, hbp, hgp), N)
    out["alphap=0"] = _claim(triangle_product(A, B), N, TWO_TERM, lambda n, k: (
        a * n + gp * hb * k + (g + gp * hg), gp * hbp * k + gp * hgp))

    a2, g2, ap2, gp2, hg2, hgp2 = variables("a2 g2 ap2 gp2 hg2 hgp2")
    A = gkp_triangle((a2, 0, g2, ap2, 0, gp2), N)
    B = gkp_triangle((0, 0, hg2, 0, 0, hgp2), N)
    out["hatbeta=0"] = _claim(triangle_product(A, B), N, TWO_TERM, lambda n, k: (
        (a2 + ap2 * hg2) * n + (g2 + gp2 * hg2), ap2 * hgp2 * n + gp2 * hgp2))
    out["ok"] = out["alphap=0"]["ok"] and out["hatbeta=0"]["ok"]
    return out


def _case_A6_remark(N):
    """B_xi times the k-dependent family shifts its constant weight by xi."""
    xi, hb, hg, hbp, hgp = variables("xi hb hg hbp hgp")
    B = gkp_triangle((0, hb, hg, 0, hbp, hgp), N)
    C = triangle_product(binomial_matrix(xi, N), B)
    return triangle_mismatch(C, gkp_triangle((0, hb, hg + xi, 0, hbp, hgp), N).entry, N)


def _case_A7(N):
    a, b, g, gp, hb, hbp, hgp = variables("a b g gp hb hbp hgp")
    r = felem_div(b, gp)
    A = gkp_triangle((a, b, g, 0, 0, gp), N)
    B = binomial_like_triangle(
        lambda n, k: (-r * n + hb * k + r,
                      hbp * k + hgp), N)
    return _claim(triangle_product(A, B), N, TWO_TERM, lambda n, k: (
        a * n + gp * hb * k + g, gp * (hbp * k + hgp)))


def _case_A9(N):
    g, bp, gp, hA, hG, hAd, hGd = _symbols(
        N, "g", "bp", "gp", ("hA", 0), ("hG", 0), ("hAd", 0), ("hGd", 0))
    A = binomial_like_triangle(lambda n, k: (g, bp * k + gp), N)
    B = binomial_like_triangle(
        lambda n, k: (hA(k) * n + hG(k), hAd(k) * n + hGd(k)), N)
    return _claim(triangle_product(A, B), N, THREE_ROWS, lambda n, k: (
        (bp * n + gp) * (hA(k) * n + hG(k)) + g,
        (bp * n + gp) * (hAd(k) * n + hGd(k)),
        -(n - 1) * g * (gp * hA(k) + bp * (hG(k) + (2 * n - 1) * hA(k))),
        -(n - 1) * g * (gp * hAd(k) + bp * (hGd(k) + (2 * n - 1) * hAd(k))),
        (n - 1) * (n - 2) * g ** 2 * bp * hA(k),
        (n - 1) * (n - 2) * g ** 2 * bp * hAd(k)))


def _case_A10(N):
    xi, hA, hG, hAd, hGd = _symbols(
        N, "xi", ("hA", 0), ("hG", 0), ("hAd", 0), ("hGd", 0))
    B = binomial_like_triangle(
        lambda n, k: (hA(k) * n + hG(k), hAd(k) * n + hGd(k)), N)
    C = triangle_product(binomial_matrix(xi, N), B)
    return _claim(C, N, TWO_ROWS, lambda n, k: (
        hA(k) * n + hG(k) + xi, hAd(k) * n + hGd(k),
        -(n - 1) * xi * hA(k), -(n - 1) * xi * hAd(k)))


def _case_A11(N):
    xi, ha, hb, hg, hap, hbp, hgp = variables("xi ha hb hg hap hbp hgp")
    B = gkp_triangle((ha, hb, hg, hap, hbp, hgp), N)
    C = triangle_product(binomial_matrix(xi, N), B)
    return _claim(C, N, TWO_ROWS, lambda n, k: (
        ha * n + hb * k + hg + xi, hap * n + hbp * k + hgp,
        -(n - 1) * xi * ha, -(n - 1) * xi * hap))


def _case_A12(N):
    xi, hA, hG, hAd, hGd, hD, hDd = _symbols(
        N, "xi", ("hA", 0), ("hG", 0), ("hAd", 0), ("hGd", 0), ("hD", 0), ("hDd", 0))

    B = _unroll(N, TWO_ROWS, lambda n, k: (
        hA(k) * n + hG(k), hAd(k) * n + hGd(k), (n - 1) * hD(k), (n - 1) * hDd(k)))
    C = triangle_product(binomial_matrix(xi, N), B)
    return _claim(C, N, TWO_ROWS, lambda n, k: (
        hA(k) * n + hG(k) + xi, hAd(k) * n + hGd(k),
        (n - 1) * (hD(k) - xi * hA(k)), (n - 1) * (hDd(k) - xi * hAd(k))))


def _case_A13(N):
    out = {}
    # sub-case hat-alpha_k = 0
    a, g, gp, hG, hGd = _symbols(N, "a", "g", "gp", ("hG", 0), ("hGd", 0))
    A = binomial_like_triangle(lambda n, k: (a * (n - k) + g, gp), N)
    B = binomial_like_triangle(lambda n, k: (hG(k), hGd(k)), N)
    out["hatalpha=0"] = _claim(triangle_product(A, B), N, TWO_ROWS, lambda n, k: (
        a * n + g + gp * hG(k), gp * hGd(k),
        -(n - 1) * gp * a * hG(k), -(n - 1) * gp * a * hGd(k)))

    # sub-case gp * hat-alpha = a (constant hat-alpha)
    g, gp, hAc, hG, hGd = _symbols(N, "g", "gp", "hAc", ("hG", 0), ("hGd", 0))
    a_val = gp * hAc
    A = binomial_like_triangle(lambda n, k: (a_val * (n - k) + g, gp), N)
    B = binomial_like_triangle(lambda n, k: (hAc * n + hG(k), hGd(k)), N)
    out["gphatalpha=a"] = _claim(triangle_product(A, B), N, TWO_TERM, lambda n, k: (
        a_val * n + g + gp * (hAc + hG(k)), gp * hGd(k)))
    out["ok"] = out["hatalpha=0"]["ok"] and out["gphatalpha=a"]["ok"]
    return out


def case_A13_remark_defect(N=5):
    """With constant hat-alpha and no hypothesis, the two-term recurrence
    defect carries gp*hA*(gp*hA - a) as an overall factor: each cell's
    defect must equal the factor times its exact quotient (0 if none)."""
    a, g, gp, hA, hG, hGd = _symbols(N, "a", "g", "gp", "hA", ("hG", 0), ("hGd", 0))
    A = binomial_like_triangle(lambda n, k: (a * (n - k) + g, gp), N)
    B = binomial_like_triangle(lambda n, k: (hA * n + hG(k), hGd(k)), N)
    C = triangle_product(A, B)
    factor = gp * hA * (gp * hA - a)

    def cases():
        for n in range(1, N + 1):
            for k in range(n + 1):
                want = (a * n + g + gp * (hA + hG(k))) * C.entry(n - 1, k) \
                    + gp * hGd(k) * (C.entry(n - 1, k - 1) if k else 0) \
                    + (n - 1) * gp * (gp * hA - a) * hG(k) * C.entry(n - 2, k) \
                    + (n - 1) * gp * (gp * hA - a) * hGd(k) * C.entry(n - 2, k - 1)
                defect = as_mpoly(C.entry(n, k) - want)
                yield {"n": n, "k": k}, defect, factor * (divide_exact(defect, factor) or 0)
    return mismatch_report(first_mismatch(cases()))


def _case_A14(N):
    xi, be, gaN, bed, gad = _symbols(
        N, "xi", ("be", 1), ("gaN", 1), ("bed", 1), ("gad", 1))
    A = binomial_like_triangle(
        lambda n, k: (be(n) * k + gaN(n), bed(n) * k + gad(n)), N)
    C = triangle_product(A, binomial_matrix(xi, N))
    return _claim(C, N, THREE_TERM, lambda n, k: (
        (be(n) + 2 * xi * bed(n)) * k + gaN(n) + xi * (bed(n) + gad(n)),
        bed(n) * k + gad(n),
        xi * (be(n) + xi * bed(n)) * (k + 1)))


def _case_A15(N):
    xi, a, b, g, ap, bp, gp = variables("xi a b g ap bp gp")
    A = gkp_triangle((a, b, g, ap, bp, gp), N)
    C = triangle_product(A, binomial_matrix(xi, N))
    return _claim(C, N, THREE_TERM, lambda n, k: (
        (a + xi * ap) * n + (b + 2 * xi * bp) * k + g + xi * (bp + gp),
        ap * n + bp * k + gp,
        xi * (b + xi * bp) * (k + 1)))


def _case_A16(N):
    xi, be_, gaN_, bed_, gad_, sg_, tu_ = _symbols(
        N, "xi", ("be", 1), ("gaN", 1), ("bed", 1), ("gad", 1), ("sg", 1), ("tu", 1))

    A = _unroll(N, FOUR_TERM, lambda n, k: (
        be_(n) * k + gaN_(n), bed_(n) * k + gad_(n),
        sg_(n) * (n - k + 1), tu_(n) * (k + 1)))
    C = triangle_product(A, binomial_matrix(xi, N))

    def weights(n, k):
        be, bed, gaN, gad = be_(n), bed_(n), gaN_(n), gad_(n)
        sg, tu = sg_(n), tu_(n)
        return (((be + 2 * xi * bed - 3 * xi ** 2 * sg) * k + gaN
                 + xi * (bed + gad) + xi ** 2 * sg * (n - 1)),
                (bed - 3 * xi * sg) * k + gad + xi * sg * (2 * n + 1),
                sg * (n - k + 1),
                (tu + xi * be + xi ** 2 * bed - xi ** 3 * sg) * (k + 1))

    return _claim(C, N, FOUR_TERM, weights)


def _case_A17(N):
    xi, a, b, g, ap, bp, gp, sg, tu = variables("xi a b g ap bp gp sg tu")
    A = gkpz_triangle((a, b, g, ap, bp, gp, sg, tu), N)
    C = triangle_product(A, binomial_matrix(xi, N))
    return _claim(C, N, FOUR_TERM, lambda n, k: (
        ((a + xi * ap + xi ** 2 * sg) * n
         + (b + 2 * xi * bp - 3 * xi ** 2 * sg) * k
         + g + xi * (bp + gp) - xi ** 2 * sg),
        (ap + 2 * xi * sg) * n + (bp - 3 * xi * sg) * k + gp + xi * sg,
        sg * (n - k + 1),
        (tu + xi * b + xi ** 2 * bp - xi ** 3 * sg) * (k + 1)))


# right-multiplication by a column-constant-weight array with a nonzero
# level weight leads to an unbounded regress of cross terms; no finite
# recurrence for the product is known, so no verify case exists for it
PRODUCT_CASES_OUT_OF_SCOPE = {
    "right-constant-weights": "no finite recurrence known for the product",
}

PRODUCT_CASES = {
    "A.2": _case_A2, "A.3": _case_A3, "A.4": _case_A4, "A.5": _case_A5,
    "A.6": _case_A6, "A.6-remark": _case_A6_remark, "A.7": _case_A7,
    "A.9": _case_A9, "A.10": _case_A10, "A.11": _case_A11, "A.12": _case_A12,
    "A.13": _case_A13, "A.14": _case_A14, "A.15": _case_A15, "A.16": _case_A16,
    "A.17": _case_A17,
}


def verify_product_case(case_id: str, N: int = 5) -> dict:
    if case_id not in PRODUCT_CASES:
        raise KeyError("unknown product case %r" % case_id)
    report = PRODUCT_CASES[case_id](N)
    report["case"] = case_id
    return report


def verify_eq_family6_gkpz(N: int = 6) -> dict:
    """The family-6 triangle also satisfies the four-term recurrence obtained
    by right-multiplying the diagonal family by a binomial matrix, and the
    result does not depend on the free weight alpha."""
    al, kp, ap, bp, gp = variables("al kp ap bp gp")
    t6 = gkp_triangle((kp * (ap + bp), kp * bp, kp * gp, ap, bp, gp), N)
    return _claim(t6, N, THREE_TERM, lambda n, k: (
        (al + kp * ap) * n + (-al + 2 * kp * bp) * k - al + kp * (bp + gp),
        ap * n + bp * k + gp,
        kp * (-al + kp * bp) * (k + 1)))


# ---------------------------------------------------------------------------
# nearly-binomial identities (falling-factorial weights)
# ---------------------------------------------------------------------------

def falling(x, r: int):
    acc = 1
    for i in range(r):
        acc = acc * (x - i)
    return acc


def nearly_binomial_identities(part: str, r_max: int = 2, N: int = 6) -> dict:
    """part "a": (n-k)^(r) T(n,k) = gamma^r n^(r) T(n-r,k) for the purely
    column-weighted family; part "b": k^(r) T(n,k) = gamma'^r n^(r)
    T(n-r,k-r) for its dual."""
    if part not in ("a", "b"):
        raise ValueError("part must be 'a' or 'b'")
    params = variables("g bp gp" if part == "a" else "a g gp")
    mu, closed_form = CLOSED_FORMS["nearly-binomial-" + part](params)
    T = gkp_triangle(mu, N)

    def falling_pair(r, n, k):
        if part == "a":
            return (falling(n - k, r) * T.entry(n, k),
                    params[0] ** r * falling(n, r) * T.entry(n - r, k))
        return (falling(k, r) * T.entry(n, k),
                params[2] ** r * falling(n, r) * T.entry(n - r, k - r))

    cells = [(n, k) for n in range(N + 1) for k in range(n + 1)]
    bad = first_mismatch(chain(
        (({"r": r, "n": n, "k": k}, *falling_pair(r, n, k))
         for r in range(r_max + 1) for n, k in cells),
        (({"closed_form": (n, k)}, T.entry(n, k), closed_form(n, k))
         for n, k in cells)))
    return {"part": part, **mismatch_report(bad)}


# ---------------------------------------------------------------------------
# inverse pairs
# ---------------------------------------------------------------------------

def inverse_pair_check(A: Triangle, B: Triangle, alpha) -> dict:
    """Evaluate the eight equivalent statements linking an inverse pair of
    lower-triangular arrays through the weight alpha: (a), (c), (e), (g) for
    (A, B, alpha) and their partners (b), (d), (f), (h) for (B, A, -alpha)."""
    if A.order != B.order:
        raise SizeMismatch("orders differ")
    x = MPoly.variable("x", _xvar_for(chain(*A.rows, *B.rows, [alpha])))
    # each statement next to its partner: (a, b), (c, d), (e, f), (g, h)
    pairs = zip(_inverse_pair_statements(A, B, alpha, x),
                _inverse_pair_statements(B, A, -1 * alpha, x))
    results = dict(zip("abcdefgh", chain.from_iterable(pairs)))
    results["all"] = all(results.values())
    results["any"] = any(results.values())
    return results


def _inverse_pair_statements(A, B, alpha, x):
    """Statements (a), (c), (e), (g) of A against B under alpha."""
    N = A.order
    partner = inverse_pair_from_b(B, alpha)
    cells = [(n, k) for n in range(N + 1) for k in range(n + 1)]
    # (a) A_n(x) = sum_k b_nk x^k (1 + alpha x)^(n-k) = H_n^B(x, 1 + alpha x)
    a = all(map(felem_eq, row_polys(A), substitute(B.rows, (1, 0, alpha, 1), x)))
    # (c) the reversed row polynomials are x-shifts of each other
    c = all(map(felem_eq, row_polys(Triangle([r[::-1] for r in A.rows])),
                substitute([r[::-1] for r in B.rows], (1, alpha, 0, 1), x)))
    # (e) A(n,k) = sum_j alpha^(k-j) C(n-j, k-j) B(n,j)
    e = all(felem_eq(A.entry(n, k), partner.entry(n, k))
            for n, k in cells)
    # (g) A(n,n-k) = sum_{j>=k} B(n,n-j) C(j,k) alpha^(j-k)
    g = all(felem_eq(A.entry(n, n - k),
                     sum(B.entry(n, n - j) * binom(j, k) * alpha ** (j - k)
                         for j in range(k, n + 1)))
            for n, k in cells)
    return a, c, e, g


def inverse_pair_from_b(B: Triangle, alpha) -> Triangle:
    """The partner array defined by statement (e)."""
    N = B.order
    rows = []
    for n in range(N + 1):
        row = []
        for k in range(n + 1):
            acc = 0
            for j in range(k + 1):
                acc = acc + alpha ** (k - j) * binom(n - j, k - j) * B.entry(n, j)
            row.append(acc)
        rows.append(row)
    return Triangle(rows)


def binomial_inverse_identity(k_max: int = 8) -> dict:
    """The two-weight binomial convolution identity
    sum_j alpha^(k-j) C(p-j, k-j) (-alpha)^(j-l) C(p-l, j-l) = delta_kl,
    symbolically in p and alpha."""
    p, al = variables("p al")

    def C(top, r):
        return falling(top, r) * Fraction(1, factorial(r))

    def convolution(k, l):
        acc = 0
        for j in range(l, k + 1):
            acc = acc + al ** (k - j) * C(p - j, k - j) \
                * (-1 * al) ** (j - l) * C(p - l, j - l)
        return acc

    return mismatch_report(first_mismatch(
        ({"k": k, "l": l}, convolution(k, l), 1 if k == l else 0)
        for k in range(k_max + 1) for l in range(k_max + 1)))


# ---------------------------------------------------------------------------
# x-shift uniqueness at small n
# ---------------------------------------------------------------------------

def xshift_symbolic_check(n_max: int = 3) -> dict:
    """The shift involution xi = -beta/beta' satisfies
    P_n(x; mu') = P_n(x + xi; mu) symbolically for n <= n_max: the action
    of Z on row polynomials (``symmetry.verify_action``).  xi = 0, the
    identity, satisfies it trivially."""
    return verify_action(Z_WORD, GKPParams.symbolic(), n_max)


def xshift_smalln_check(samples: int = 20, seed: int = 0) -> dict:
    """Linear-algebra oracle: for random generic mu, the system
    P_n(x; mu') = P_n(x + xi; mu), n <= 3 (``_xshift_system``), has exactly
    two solutions xi: 0 and the shift involution's -beta/beta'.

    Genericity is decided from mu alone, before solving; the draws that fail
    it are replaced and counted in ``dropped`` by reason.  Every generic
    sample is kept: its count is the true number of solutions, and a known
    solution that the count misses is listed in ``unconfirmed``."""
    sym = xshift_symbolic_check(3)
    if not sym["ok"]:
        return {"ok": False, "symbolic": sym}
    rng = random.Random(seed)
    counts, dropped, unconfirmed = [], {}, []
    attempts = 0
    while len(counts) < samples and attempts < samples * 10:
        attempts += 1
        mu = tuple(Fraction(rng.randint(-6, 6)) for _ in range(6))
        system = _xshift_system(mu)
        reason = _xshift_degenerate(mu, system)
        if reason:
            dropped[reason] = dropped.get(reason, 0) + 1
            continue
        count, missed = _xshift_solution_count(mu, system)
        counts.append(count)
        unconfirmed += [{"mu": [str(v) for v in mu], "xi": str(r)} for r in missed]
    ok = len(counts) == samples and all(c == 2 for c in counts) and not unconfirmed
    return {"ok": ok, "samples": len(counts), "counts": counts,
            "dropped": dropped, "unconfirmed": unconfirmed}


def _xshift_system(mu):
    """Rows [M | q] over Q[xi]: P_n(x; mu') = Q_n = P_n(x + xi; mu), n <= 3,
    iff Q_n = _ode_step(mu', n, Q_{n-1}) at each x^j, j <= n (row ODE).  The
    n = 1 equations fix gamma~, gamma~'; the other seven read M u = q in
    u = (alpha~, beta~, alpha~', beta~'), mu' = base + sum_i u_i dirs_i."""
    x, xi = variables("x xi")
    zero = MPoly.zero(xi.vars)
    qs = substitute(gkp_triangle(mu, 3).rows, (1, xi, 0, 1), x)
    q1 = qs[1].coeffs_in("x")
    base = (0, 0, q1.get(0, zero), 0, 0, q1.get(1, zero))
    dirs = ((1, 0, -1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1))
    rows = []
    for n in (2, 3):
        cols = [_ode_step(d, n, qs[n - 1]).coeffs_in("x") for d in dirs]
        cols.append((qs[n] - _ode_step(base, n, qs[n - 1])).coeffs_in("x"))
        rows += [[c.get(j, zero) for c in cols] for j in range(n + 1)]
    return rows


def _minor_gcd(rows):
    """gcd of the maximal minors of a tall matrix over Q[xi] (0 if all are);
    stops at a constant, which the last rows' minors reach soonest."""
    g = MPoly.zero(rows[0][0].vars)
    for pick in combinations(rows[::-1], len(rows[0])):
        g = mpoly_gcd(g, as_mpoly(cofactor_det(pick), g.vars))
        if g and g.is_constant():
            break
    return g


def _xshift_degenerate(mu, system):
    """Why mu is not generic, or None: 0 and -beta/beta' must be defined and
    distinct, and M(xi) of full column rank at every xi (its 4 x 4 minors
    coprime).  Where the rank drops, the minors of [M | q] vanish whether or
    not xi is a solution (rows that are powers of one linear form: all are)."""
    if mu[1] == 0:
        return "beta = 0"
    if mu[4] == 0:
        return "beta' = 0"
    g = _minor_gcd([row[:4] for row in system])
    return None if g and g.is_constant() else "rank-deficient M(xi)"


def _xshift_solution_count(mu, system):
    """(count, missed) for a generic mu.  xi is a solution iff all 5 x 5
    minors of [M | q] vanish there: count is the xi-degree of the squarefree
    part of their gcd g, None when g = 0.  missed lists the known solutions
    0 and -beta/beta' that are not roots of g or not reproduced by a mu'."""
    g = _minor_gcd(system)
    missed = [r for r in (Fraction(0), -mu[1] / mu[4])
              if g.subs({"xi": r}) != 0 or not _verify_xshift_solution(mu, r)]
    if g.is_zero():
        return None, missed
    squarefree = divide_exact(g, mpoly_gcd(g, g.deriv("xi")))
    return squarefree.degree_in("xi"), missed


def _verify_xshift_solution(mu, xi):
    """Check that some mu' reproduces P_n(x+xi) for n <= 3 at numeric mu:
    mu itself at xi = 0, its image under the shift involution otherwise
    (``symmetry.verify_action``)."""
    return xi == 0 or verify_action(Z_WORD, mu, 3)["ok"]
