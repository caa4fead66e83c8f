"""Hankel matrices of polynomial sequences, coefficientwise total
positivity of bounded order, log-convexity, and the two published
sufficient-condition hypothesis sets.

Determinants over the polynomial ring use fraction-free (Bareiss) elimination
with cofactor expansion below 4x4.  The big order-2 check multiplies the
sequence's polynomials with ``MPoly`` products, each distinct product once
and kept only until its last use.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exactalg import (
    MPoly, RatFunc, as_field, divide_exact, felem_is_zero, least_negative,
)
from .gkpcore import GKPParams, gkp_triangle, row_polys, tilde_params


class RequiresNumeric(TypeError):
    pass


@dataclass
class HankelMatrix:
    size: int
    entries: list

    @staticmethod
    def from_sequence(seq, m: int) -> "HankelMatrix":
        if len(seq) < 2 * m - 1:
            raise ValueError("need %d sequence entries for size %d"
                             % (2 * m - 1, m))
        return HankelMatrix(m, [[seq[i + j] for j in range(m)] for i in range(m)])


@dataclass
class TPReport:
    order: int
    ok: bool
    witness: Optional[dict] = None


def coeffwise_nonneg(p) -> tuple:
    """(True, None) iff every stored coefficient is >= 0; otherwise the
    first offending monomial in graded-lex order."""
    p = as_field(p)
    if isinstance(p, (int, Fraction)):
        return (p >= 0, None if p >= 0 else {"monomial": (), "coeff": p})
    if isinstance(p, RatFunc):
        if not p.is_poly():
            raise TypeError("coefficientwise order applies to polynomials")
        p = p.as_mpoly()
    bad = least_negative(p)
    if bad is None:
        return True, None
    e, c = bad
    return False, {"monomial": dict(zip(p.vars, e)), "coeff": c}


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = 0
    for j in range(n):
        a = rows[0][j]
        if felem_is_zero(as_field(a)):
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def bareiss_det(rows):
    """Fraction-free determinant; entries int/Fraction/MPoly."""
    n = len(rows)
    if n < 4:
        return cofactor_det(rows)
    m = [[as_field(c) for c in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if felem_is_zero(as_field(m[k][k])):
            for i in range(k + 1, n):
                if not felem_is_zero(as_field(m[i][k])):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_div(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _exact_div(num, den):
    if isinstance(den, (int, Fraction)):
        if den == 1:
            return num
        if isinstance(num, (int, Fraction)):
            return Fraction(num) / Fraction(den)
        return num / den
    num = as_field(num)
    if isinstance(num, (int, Fraction)):
        if num == 0:
            return 0
        raise ArithmeticError("non-exact Bareiss division")
    q = divide_exact(num, den)
    if q is None:
        raise ArithmeticError("non-exact Bareiss division")
    return q


# desk-scale guard: full minor enumeration on symbolic entries grows very
# fast with the matrix size; callers may raise the cap deliberately
SIZE_CAP = 6


def hankel_tp(seq: Sequence, m: int, r: int, size_cap: Optional[int] = None) -> TPReport:
    """All s x s minors, s <= r, of the m x m Hankel matrix of ``seq``;
    passes iff every minor has nonnegative coefficients.  The witness is the
    lexicographically first failure by (size, rows, cols)."""
    cap = SIZE_CAP if size_cap is None else size_cap
    if m > cap:
        raise ValueError("Hankel size %d exceeds the cap %d; pass size_cap "
                         "to raise it" % (m, cap))
    H = HankelMatrix.from_sequence(list(seq), m)
    for s in range(1, r + 1):
        for rows in combinations(range(m), s):
            for cols in combinations(range(m), s):
                sub = [[H.entries[i][j] for j in cols] for i in rows]
                minor = bareiss_det(sub)
                ok, wit = coeffwise_nonneg(minor)
                if not ok:
                    return TPReport(order=r, ok=False, witness={
                        "rows": rows, "cols": cols, "minor": minor,
                        "offending": wit})
    return TPReport(order=r, ok=True)


def _as_mpoly_list(seq):
    out = []
    vars = None
    for p in seq:
        p = as_field(p)
        if isinstance(p, RatFunc):
            p = p.as_mpoly()
        if isinstance(p, MPoly):
            vars = p.vars
        out.append(p)
    if vars is None:
        vars = ("x",)
    return [p if isinstance(p, MPoly) else MPoly.constant(p, vars) for p in out]


def log_convexity(seq: Sequence, n_max: int, strong: bool = False) -> dict:
    """Coefficientwise log-convexity P_n P_{n+2} - P_{n+1}^2 >= 0 for
    n <= n_max; with ``strong``, P_m P_{n+2} - P_{m+1} P_{n+1} >= 0 for all
    n >= m >= 0 up to n_max.  Equivalent to Hankel total positivity of order
    2 in the strong case.  A failure reports the graded-lex least monomial
    with a negative coefficient."""
    polys = _as_mpoly_list(seq)
    if len(polys) < n_max + 3:
        raise ValueError("need sequence entries through index %d" % (n_max + 2))
    pairs = [(m, n) for m in range(n_max + 1)
             for n in range(m, n_max + 1)] if strong \
        else [(n, n) for n in range(n_max + 1)]
    # each product P_i P_j is computed once and dropped after its last use
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


def gkp_tilde_polys(N: int):
    """Row polynomials of the shifted parametrization with all six weights
    symbolic; every entry has nonnegative integer coefficients."""
    names = ("ta", "tb", "tg", "tap", "tbp", "tgp")
    from .exactalg import variables
    gens = variables(names, extra=("x",))
    mu = tilde_params(gens)
    return row_polys(gkp_triangle(mu, N))


def hypothesis_check(mu, which: str) -> bool:
    """Exact evaluation of the published nonnegativity hypothesis sets on a
    concrete parameter tuple."""
    vals = []
    for v in tuple(GKPParams.of(mu)):
        v = as_field(v)
        if isinstance(v, MPoly):
            if not v.is_constant():
                raise RequiresNumeric("hypothesis sets need numeric parameters")
            v = v.constant_value()
        elif isinstance(v, RatFunc):
            raise RequiresNumeric("hypothesis sets need numeric parameters")
        vals.append(Fraction(v))
    a, b, g, ap, bp, gp = vals
    if which == "LiuWang":
        conds = [a >= 0, a + b >= 0, a + g >= 0,
                 ap >= 0, ap + bp >= 0, ap + bp + gp >= 0,
                 b * ap - a * bp >= 0,
                 b * (ap + bp) - a * bp >= 0,
                 b * (ap + bp + gp) - (a + g) * bp >= 0]
    elif which == "ChenWangYang":
        conds = [a >= 0, b >= 0, a + b + g >= 0,
                 ap >= 0, bp >= 0, ap + bp + gp >= 0]
    else:
        raise ValueError("which must be LiuWang or ChenWangYang")
    return all(conds)
