"""Triangular arrays from two-term and four-term linear recurrences, their
row-generating polynomials, truncated generating functions, and residual
checks for the differential recurrence / PDE satisfied by them.

Rows come two ways.  ``gkp_rows`` steps the row ODE (``_ode_step``) on
whole rows, and every caller that reads only GKP rows takes them from it:
the search nodes and leaves, ``families.verify_family``, the symbolic
Hankel rows and the CLI's ``polys``, ``sfrac``, ``jfrac``, ``hankel`` and
``logconvex`` (``triangle_rows``).  The unroll stays where T(n,k) itself
is read: the product recurrences of ``matprod``, the group actions of
``symmetry``, ``triangle_mismatch`` and the four-term GKPZ triangle.
``residual_checks`` keeps it too, so that the ODE is checked against an
independent route.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import factorial, lcm, prod
from typing import Callable, Sequence

from .exactalg import (
    MPoly, RatFunc, TruncSeries, as_mpoly, clear_denominators, felem_eq,
    felem_is_zero, felem_to_json, first_mismatch, mismatch_report,
    mpoly_from_powers, variables,
)
from .combinat import binom, stirling_cycle, stirling_subset

PARAM_NAMES = ("alpha", "beta", "gamma", "alphap", "betap", "gammap")


class UnknownFamily(KeyError):
    pass


@dataclass(frozen=True)
class GKPParams:
    """Coefficient tuple mu = (alpha, beta, gamma, alpha', beta', gamma')."""
    alpha: object
    beta: object
    gamma: object
    alphap: object
    betap: object
    gammap: object

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma,
                self.alphap, self.betap, self.gammap)

    def __iter__(self):
        return iter(self.as_tuple())

    @staticmethod
    def of(*vals) -> "GKPParams":
        if len(vals) == 1 and isinstance(vals[0], (tuple, list, GKPParams)):
            vals = tuple(vals[0])
        if len(vals) != 6:
            raise ValueError("need 6 parameters")
        return GKPParams(*vals)

    @staticmethod
    def symbolic(extra=("x",)) -> "GKPParams":
        return GKPParams(*variables(PARAM_NAMES, extra=extra))


@dataclass(frozen=True)
class GKPZParams:
    """GKP coefficients plus the two extra weights sigma, tau."""
    alpha: object
    beta: object
    gamma: object
    alphap: object
    betap: object
    gammap: object
    sigma: object
    tau: object

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma, self.alphap, self.betap,
                self.gammap, self.sigma, self.tau)

    def __iter__(self):
        return iter(self.as_tuple())


class Triangle:
    """Lower-triangular array T(n,k), 0 <= k <= n <= order."""

    __slots__ = ("order", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [list(r) for r in rows]
        self.order = len(self.rows) - 1
        for n, r in enumerate(self.rows):
            if len(r) != n + 1:
                raise ValueError("row %d must have %d entries" % (n, n + 1))

    def entry(self, n: int, k: int):
        if k < 0 or k > n or n > self.order:
            return 0
        return self.rows[n][k]

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(
            felem_eq(a, b)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def to_json(self):
        return {"order": self.order,
                "rows": [[felem_to_json(c) for c in row] for row in self.rows]}

    def __repr__(self):
        return "Triangle(order=%d)" % self.order


TWO_TERM = ((1, 0), (1, 1))
FOUR_TERM = ((1, 0), (1, 1), (1, 2), (1, -1))


def _unroll(N: int, offsets, rule: Callable) -> Triangle:
    """Rows 0..N of T(0,0) = 1, T(n,k) = sum_i w_i T(n - dn_i, k - dk_i)
    for n >= 1, where ``offsets`` lists the (dn_i, dk_i) and ``rule(n, k)``
    returns the weights w_i in the same order."""
    return _unroll_rows(N, offsets,
                        lambda n: [rule(n, k) for k in range(n + 1)])


def _unroll_rows(N: int, offsets, row_rule: Callable) -> Triangle:
    """``_unroll`` with the weights of a whole row at once: ``row_rule(n)``
    lists the weight tuples for k = 0..n.

    A neighbour outside the triangle is skipped rather than multiplied by
    zero, and each sum starts from its first term, so rational-function
    entries are never reduced for a zero summand."""
    rows = [[1]]
    for n in range(1, N + 1):
        row = []
        for k, weights in enumerate(row_rule(n)):
            acc = None
            for (dn, dk), w in zip(offsets, weights):
                m, j = n - dn, k - dk
                if 0 <= j <= m:
                    term = w * rows[m][j]
                    acc = term if acc is None else acc + term
            row.append(0 if acc is None else acc)
        rows.append(row)
    return Triangle(rows)


def gkp_triangle(mu, N: int) -> Triangle:
    """Unroll T(n,k) = (an+bk+g)T(n-1,k) + (a'n+b'k+g')T(n-1,k-1).

    Rational mu is unrolled on the integer triples of ``cleared_triangle``,
    and entry (n,k) is divided once by d1^(n-k) d2^k.  The types are those
    of the ``Fraction`` unroll: row 0 is the int 1, and T(n,k) is a
    ``Fraction`` iff k < n and (a,b,g) holds a ``Fraction``, or k > 0 and
    (a',b',g') does."""
    mu = tuple(GKPParams.of(mu))
    f1, f2 = (any(isinstance(v, Fraction) for v in vs) for vs in (mu[:3], mu[3:]))
    if not (f1 or f2) or not all(isinstance(v, (int, Fraction)) for v in mu):
        return _unroll_rows(N, TWO_TERM, _gkp_row_rule(mu))
    nums, d1, d2 = _cleared(mu)
    t = _unroll_rows(N, TWO_TERM, _gkp_row_rule(nums))
    for n, row in enumerate(t.rows):
        for k in range(n + 1):
            if k < n and f1 or k and f2:
                row[k] = Fraction(row[k], d1 ** (n - k) * d2 ** k)
    return t


def cleared_triangle(mu, N: int, vars=None):
    """(T', d1, d2): ``gkp_triangle`` on d1 (a,b,g) and d2 (a',b',g'), d1 and
    d2 the lcms of the triples' denominators (ints, or ``MPoly`` values over
    ``vars``, which holds every variable of mu).  A path to (n,k) takes n-k
    weights linear in (a,b,g) and k in (a',b',g'), so T'(n,k) =
    d1^(n-k) d2^k T(n,k) (Bareiss, Math. Comp. 22, 1968)."""
    nums, d1, d2 = _cleared(tuple(GKPParams.of(mu)), vars)
    return gkp_triangle(nums, N), d1, d2


def _cleared(mu, vars=None):
    """The six cleared parameters of ``cleared_triangle``, d1 and d2."""
    triples = mu[:3], mu[3:]
    if all(isinstance(v, (int, Fraction)) for v in mu):
        ds = [lcm(*(v.denominator for v in vs)) for vs in triples]
        return [v.numerator * (d // v.denominator)
                for vs, d in zip(triples, ds) for v in vs], *ds
    (n1, d1), (n2, d2) = (clear_denominators(vs, vars) for vs in triples)
    return [as_mpoly(v, vars) for v in n1 + n2], as_mpoly(d1, vars), as_mpoly(d2, vars)


def gkpz_triangle(mu8, N: int) -> Triangle:
    """Four-term extension: extra sigma*(n-k+1)*T(n-1,k-2) and
    tau*(k+1)*T(n-1,k+1) terms; stays lower-triangular."""
    a, b, g, ap, bp, gp, sg, tu = tuple(mu8)
    return _unroll(N, FOUR_TERM, lambda n, k: (
        a * n + b * k + g, ap * n + bp * k + gp, sg * (n - k + 1), tu * (k + 1)))


def binomial_like_triangle(coeff_rule: Callable, N: int) -> Triangle:
    """T(n,k) = a_{n,k} T(n-1,k) + a'_{n,k} T(n-1,k-1), T(0,k) = delta_k0.

    ``coeff_rule(n, k)`` returns the pair (a_{n,k}, a'_{n,k})."""
    return _unroll(N, TWO_TERM, coeff_rule)


def triangle(mu, N: int) -> Triangle:
    """The four-term triangle of eight parameters, else the GKP triangle."""
    mu = tuple(mu)
    return gkpz_triangle(mu, N) if len(mu) == 8 else gkp_triangle(mu, N)


def triangle_rows(mu, N: int) -> list:
    """``row_polys(triangle(mu, N))``, by ``gkp_rows`` for six parameters."""
    mu = tuple(mu)
    return row_polys(gkpz_triangle(mu, N)) if len(mu) == 8 else gkp_rows(mu, N)


def gkp_rule(mu) -> Callable:
    """The GKP specialization of the binomial-like coefficient rule."""
    a, b, g, ap, bp, gp = GKPParams.of(mu)

    def rule(n, k):
        return a * n + b * k + g, ap * n + bp * k + gp

    return rule


def _gkp_row_rule(mu) -> Callable:
    """Row n of ``gkp_rule(mu)`` for k = 0..n, stepped along the row: the
    weights grow by b and b' from one k to the next."""
    a, b, g, ap, bp, gp = GKPParams.of(mu)

    def row_rule(n):
        # the k = 0 weights written as in gkp_rule, so that every entry has
        # the value type and variable tuple of the direct formula
        w, wp = a * n + b * 0 + g, ap * n + bp * 0 + gp
        weights = [(w, wp)]
        for _ in range(n):
            w, wp = w + b, wp + bp
            weights.append((w, wp))
        return weights

    return row_rule


def _xvar_for(entries):
    for c in entries:
        if isinstance(c, (MPoly, RatFunc)):
            return c.vars if "x" in c.vars else c.vars + ("x",)
    return ("x",)


def row_polys(t: Triangle) -> list:
    """P_n(x) = sum_k T(n,k) x^k for n = 0..N.

    The variable tuple is that of the first polynomial entry with x
    appended (x alone when there is none), extended in each row as the
    products T(n,k) x^k and their sum would extend it.  Scalar and MPoly
    entries are placed by key shift (``exactalg.mpoly_from_powers``): no
    power of x is formed and no product taken.  A row with a nonzero
    ``RatFunc`` entry is summed as T(n,k) x^k and is a ``RatFunc``."""
    xvars = _xvar_for([c for row in t.rows for c in row])
    out = []
    for row in t.rows:
        if any(isinstance(c, RatFunc) and c for c in row):
            out.append(_rational_row(row, xvars))
            continue
        vars = xvars
        if any(isinstance(c, MPoly) and c.vars != xvars for c in row):
            vars = tuple(dict.fromkeys(chain.from_iterable(
                c.vars + xvars if isinstance(c, MPoly) else xvars
                for c in row if not felem_is_zero(c)))) or xvars
        out.append(mpoly_from_powers([as_mpoly(c, vars) for c in row], "x", vars))
    return out


def _rational_row(row, vars):
    x = MPoly.variable("x", vars)
    p, xk = 0, MPoly.one(vars)
    for c in row:
        if not felem_is_zero(c):
            p = p + c * xk
        xk = xk * x
    return p


def ogf_trunc(t: Triangle) -> TruncSeries:
    ps = row_polys(t)
    return TruncSeries(t.order, list(ps))


def egf_trunc(t: Triangle) -> TruncSeries:
    ps = row_polys(t)
    return TruncSeries(
        t.order, [p * Fraction(1, factorial(n)) for n, p in enumerate(ps)])


def _ode_step(mu, n: int, prev):
    """The right side of the row ODE,
    [(n alpha + gamma) + (n alpha' + beta' + gamma') x] prev
    + x (beta + beta' x) prev', which maps P_{n-1}(x; mu) to P_n(x; mu).
    It is linear in mu; prev is an MPoly or RatFunc over a tuple with x."""
    a, b, g, ap, bp, gp = GKPParams.of(mu)
    x = MPoly.variable("x", prev.vars)
    return (n * (a + ap * x) + g + (bp + gp) * x) * prev \
        + x * (b + bp * x) * prev.deriv("x")


def gkp_rows(mu, N: int) -> list:
    """P_0..P_N of ``gkp_triangle(mu, N)`` by the row ODE: P_0 = 1 and
    P_n = ``_ode_step(mu, n, P_(n-1))``, equal to
    ``row_polys(gkp_triangle(mu, N))`` in value, row type and variable
    tuple.  Each step multiplies whole rows, and no entry of T is built.

    The ODE runs on polynomial mu, free of x, whose ``MPoly`` values share
    one tuple.  Any other mu reads the unrolled triangle: scalar mu, as
    its int unroll is faster than the ODE over Q[x]; ``RatFunc`` mu, as
    the ODE differentiates rational rows (ten times slower at N = 6); and
    mu over several tuples, as its rows take the tuples that the unroll's
    products give them."""
    mu = tuple(GKPParams.of(mu))
    polys = [v for v in mu if isinstance(v, MPoly)]
    tuples = {p.vars for p in polys}
    if N < 1 or len(tuples) != 1 or any(isinstance(v, RatFunc) for v in mu) \
            or any("x" in p.vars and p.degree_in("x") for p in polys):
        return row_polys(gkp_triangle(mu, N))
    (vars,) = tuples
    rows = [MPoly.one(vars if "x" in vars else vars + ("x",))]
    for n in range(1, N + 1):
        rows.append(_ode_step(mu, n, rows[-1]))
    return rows


def residual_checks(mu, N: int):
    """Residuals of the linear differential recurrence for P_n and of the
    first-order linear PDE for the egf F; both vanish identically for every
    mu.  The PDE is linear in F, so it is checked on N! F, whose
    coefficients P_n N!/n! are integral where the P_n are, and the residual
    is divided by N! once: the egf's own residual, of the same types."""
    a, b, g, ap, bp, gp = GKPParams.of(mu)
    t = gkp_triangle(mu, N)
    ps = row_polys(t)
    vars = ps[1].vars if N >= 1 else ("x",)
    x = MPoly.variable("x", vars)

    ode_residuals = [ps[n] - _ode_step(mu, n, ps[n - 1]) for n in range(1, N + 1)]

    F = TruncSeries(N, [p * (factorial(N) // factorial(n)) for n, p in enumerate(ps)])
    lhs = TruncSeries(N - 1, [1, -(a + ap * x)]) * F.deriv_t()
    rhs = F.truncate(N - 1).scale(a + g + (ap + bp + gp) * x) \
        + F.deriv_coeff("x").truncate(N - 1).scale(b * x + bp * x * x)
    return ode_residuals, (lhs - rhs).scale(Fraction(1, factorial(N)))


# ---------------------------------------------------------------------------
# entrywise identities and closed-form entry checks
# ---------------------------------------------------------------------------

def triangle_mismatch(t: Triangle, want: Callable, N: int, first: int = 0) -> dict:
    """The verdict of T(n,k) = want(n, k) at every cell with
    first <= n <= N, 0 <= k <= n, row by row, and the first cell that
    differs, {"n", "k"}, as witness.  Neither side is computed after it."""
    return mismatch_report(first_mismatch(
        ({"n": n, "k": k}, t.entry(n, k), want(n, k))
        for n in range(first, N + 1) for k in range(n + 1)))


def closed_form_check(family_id: str, params, N: int) -> dict:
    """Compare gkp_triangle output against a catalogued closed form.

    Returns {"id", "ok", "first_mismatch"}: symbolic comparison whenever the
    template parameters are symbolic.
    """
    if family_id not in CLOSED_FORMS:
        raise UnknownFamily(family_id)
    mu, entry = CLOSED_FORMS[family_id](params)
    return {"id": family_id, **triangle_mismatch(gkp_triangle(mu, N), entry, N)}


def make_closed_forms():
    forms = {}

    def f2a(params):
        alpha, ap, bp, gp = params
        mu = GKPParams(alpha, -alpha, -alpha, ap, bp, gp)

        def entry(n, k):
            if k != n:
                return 0
            return prod(gp + j * (ap + bp) for j in range(1, n + 1))

        return mu, entry

    def f2b(params):
        alpha, beta, gamma, bp = params
        mu = GKPParams(alpha, beta, gamma, 0, bp, -bp)

        def entry(n, k):
            if k != 0:
                return 0
            return prod(gamma + j * alpha for j in range(1, n + 1))

        return mu, entry

    def f5(params):
        a, g, ap, gp = params
        mu = GKPParams(a, 0, g, ap, 0, gp)

        def entry(n, k):
            acc = 0
            for t in range(n + 1):
                for s in range(t + 1):
                    c = stirling_cycle(n, t) * binom(t, s) * binom(n - t, k - s)
                    if c == 0:
                        continue
                    acc = acc + c * (a + g) ** (t - s) * (ap + gp) ** s \
                        * a ** (n - k + s - t) * ap ** (k - s)
            return acc

        return mu, entry

    def f6(params):
        ap, bp, gp, kappa = params
        mu = GKPParams(kappa * (ap + bp), kappa * bp, kappa * gp, ap, bp, gp)

        def entry(n, k):
            return kappa ** (n - k) * binom(n, k) \
                * prod(gp + j * (ap + bp) for j in range(1, n + 1))

        return mu, entry

    def f6_eulerian_s(params):
        (s,) = params
        mu = GKPParams(0, 1, s, 1, -1, -s)

        def entry(n, k):
            return (-1) ** k * s ** n * binom(n, k)

        return mu, entry

    def multifactorial_c(params):
        nu, rho = params
        mu = GKPParams(nu, 0, -rho, 0, 0, 0)

        def entry(n, k):
            if k != 0:
                return 0
            return prod(n * nu - rho - j * nu for j in range(n))

        return mu, entry

    def multifactorial_b(params):
        nu, rho = params
        mu = GKPParams(nu, -nu, -rho, 0, 0, 0)

        def entry(n, k):
            if k != 0:
                return 0
            return prod(j * nu - rho for j in range(1, n + 1))

        return mu, entry

    def nearly_binom_a(params):
        g, bp, gp = params
        mu = GKPParams(0, 0, g, 0, bp, gp)

        def entry(n, k):
            return binom(n, k) * g ** (n - k) * prod(gp + j * bp for j in range(1, k + 1))

        return mu, entry

    def nearly_binom_b(params):
        a, g, gp = params
        mu = GKPParams(a, -a, g, 0, 0, gp)

        def entry(n, k):
            return binom(n, k) * gp ** k * prod(g + j * a for j in range(1, n - k + 1))

        return mu, entry

    def ordered_subset_shift(params):
        mu = GKPParams(0, 1, 1, 0, 1, 0)

        def entry(n, k):
            return factorial(k) * stirling_subset(n + 1, k + 1)

        return mu, entry

    def stirling_cycle_numbers(params):
        mu = GKPParams(1, 0, -1, 0, 0, 1)

        def entry(n, k):
            return stirling_cycle(n, k)

        return mu, entry

    forms["2a"] = f2a
    forms["2b"] = f2b
    forms["5"] = f5
    forms["6"] = f6
    forms["6-eulerian-s"] = f6_eulerian_s
    forms["multifactorial-c"] = multifactorial_c
    forms["multifactorial-b"] = multifactorial_b
    forms["nearly-binomial-a"] = nearly_binom_a
    forms["nearly-binomial-b"] = nearly_binom_b
    forms["ordered-subset-shift"] = ordered_subset_shift
    forms["stirling-cycle"] = stirling_cycle_numbers
    return forms


CLOSED_FORMS = make_closed_forms()


def tilde_params(tilde) -> GKPParams:
    """Translate the shifted parametrization
    T(n,k) = [ta(n-1)+tb k+tg] T(n-1,k) + [ta'(n-1)+tb'(k-1)+tg'] T(n-1,k-1)
    into standard coefficients."""
    ta, tb, tg, tap, tbp, tgp = tuple(tilde)
    return GKPParams(ta, tb, tg - ta, tap, tbp, tgp - tap - tbp)


def rescale_weight(c_seq, d_seq, e_seq, n, k):
    """Accumulated product c_1..c_{n-k} d_1..d_k e_1..e_n."""
    acc = 1
    for j in range(1, n - k + 1):
        acc = acc * c_seq(j)
    for j in range(1, k + 1):
        acc = acc * d_seq(j)
    for j in range(1, n + 1):
        acc = acc * e_seq(j)
    return acc
