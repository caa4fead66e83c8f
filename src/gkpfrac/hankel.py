"""Hankel matrices of polynomial sequences, coefficientwise total
positivity of bounded order, log-convexity, and the two published
sufficient-condition hypothesis sets.

Determinants over the polynomial ring use fraction-free (Bareiss) elimination
with cofactor expansion below 4x4.  The big order-2 check runs on a packed
integer kernel: exponent vectors are packed into machine integers so that
monomial products become integer additions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exactalg import MPoly, RatFunc, as_field, divide_exact, felem_is_zero
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
    for e, c in reversed(p.sorted_terms()):
        if c < 0:
            return False, {"monomial": dict(zip(p.vars, e)), "coeff": c}
    return True, None


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


# ---------------------------------------------------------------------------
# packed-integer kernel for big products of integer-coefficient polynomials
# ---------------------------------------------------------------------------

class _Packed:
    """Polynomials as {packed exponent int: int coeff} over a fixed frame."""

    def __init__(self, vars, bits):
        self.vars = tuple(vars)
        self.bits = bits
        self.mask = (1 << bits) - 1

    def pack(self, p: MPoly) -> dict:
        pos = [p.vars.index(v) for v in self.vars]
        out = {}
        bits = self.bits
        for e, c in p.terms.items():
            if not isinstance(c, int):
                if isinstance(c, Fraction) and c.denominator == 1:
                    c = int(c)
                else:
                    raise TypeError("packed kernel needs integer coefficients")
            key = 0
            for slot, i in enumerate(pos):
                key |= e[i] << (slot * bits)
            out[key] = c
        return out

    def unpack(self, d: dict) -> MPoly:
        bits, mask = self.bits, self.mask
        n = len(self.vars)
        terms = {}
        for key, c in d.items():
            if c:
                e = tuple((key >> (slot * bits)) & mask for slot in range(n))
                terms[e] = c
        return MPoly(self.vars, terms)

    @staticmethod
    def mul(a: dict, b: dict) -> dict:
        if len(a) < len(b):
            a, b = b, a
        out = {}
        get = out.get
        ai = list(a.items())
        for kb, cb in b.items():
            for ka, ca in ai:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return out

    @staticmethod
    def sub_nonneg(a: dict, b: dict):
        """First negative coefficient of a - b, or None if all >= 0."""
        keys = set(a) | set(b)
        worst = None
        for k in keys:
            v = a.get(k, 0) - b.get(k, 0)
            if v < 0:
                if worst is None or k < worst[0]:
                    worst = (k, v)
        return worst


def _poly_frame(polys):
    vars = None
    for p in polys:
        if isinstance(p, MPoly):
            vars = p.vars
            break
    if vars is None:
        raise TypeError("expected polynomial entries")
    maxdeg = 0
    for p in polys:
        if isinstance(p, MPoly):
            maxdeg = max(maxdeg, p.total_degree())
    bits = max(4, (2 * maxdeg + 1).bit_length())
    return _Packed(vars, bits)


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
    2 in the strong case."""
    polys = _as_mpoly_list(seq)
    if len(polys) < n_max + 3:
        raise ValueError("need sequence entries through index %d" % (n_max + 2))
    try:
        frame = _poly_frame(polys)
        packed = [frame.pack(p) for p in polys]
        return _log_convexity_packed(frame, packed, n_max, strong)
    except TypeError:
        return _log_convexity_generic(polys, n_max, strong)


def _log_convexity_packed(frame, packed, n_max, strong):
    cache = {}

    def prod(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in cache:
            cache[key] = _Packed.mul(packed[key[0]], packed[key[1]])
        return cache[key]

    pairs = [(m, n) for m in range(n_max + 1)
             for n in range(m, n_max + 1)] if strong \
        else [(n, n) for n in range(n_max + 1)]
    for m, n in pairs:
        bad = _Packed.sub_nonneg(prod(m, n + 2), prod(m + 1, n + 1))
        if bad is not None:
            key, coeff = bad
            mono = frame.unpack({key: 1})
            return {"ok": False, "strong": strong,
                    "first_failure": {"m": m, "n": n,
                                      "monomial": repr(mono),
                                      "coeff": coeff}}
    return {"ok": True, "strong": strong, "n_max": n_max,
            "first_failure": None}


def _log_convexity_generic(polys, n_max, strong):
    pairs = [(m, n) for m in range(n_max + 1)
             for n in range(m, n_max + 1)] if strong \
        else [(n, n) for n in range(n_max + 1)]
    for m, n in pairs:
        diff = polys[m] * polys[n + 2] - polys[m + 1] * polys[n + 1]
        ok, wit = coeffwise_nonneg(diff)
        if not ok:
            return {"ok": False, "strong": strong,
                    "first_failure": {"m": m, "n": n, "offending": wit}}
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
