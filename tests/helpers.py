"""Names that only the tests call, kept out of the package: the membership
table of the group's conjugacy classes, the yes/no form of the series
check of a predicted fraction, the substitution route of the transport
law, the exponential of a series and the GKP coefficient rule."""
from fractions import Fraction

from gkpfrac.cfrac import _departure
from gkpfrac.exactalg import MPoly, RatFunc, TruncSeries, felem_div, felem_is_zero
from gkpfrac.gkpcore import GKPParams
from gkpfrac.symmetry import IDENT, S, X, Z


def expected_classes():
    """The full membership table of the fifteen conjugacy classes."""
    def c(*words):
        return frozenset(words)

    SZ = S * Z
    return [
        c(IDENT),
        c(X ** 6),
        c(S, S * X ** 6),
        c(S * X ** 3, S * X ** 9),
        c(SZ, SZ * X ** 4, SZ * X ** 8),
        c(SZ * X ** 2, SZ * X ** 6, SZ * X ** 10),
        c(*(Z * X ** m for m in range(0, 12, 2))),
        c(*(Z * X ** m for m in range(1, 12, 2))),
        c(X ** 4, X ** 8),
        c(X ** 3, X ** 9),
        c(*(SZ * X ** m for m in range(1, 12, 2))),
        c(X ** 2, X ** 10),
        c(S * X, S * X ** 5, S * X ** 7, S * X ** 11),
        c(S * X ** 2, S * X ** 4, S * X ** 8, S * X ** 10),
        c(X, X ** 5, X ** 7, X ** 11),
    ]


def cfrac_confirms(a, want) -> bool:
    """Whether extraction from ``a`` returns the S or J prediction
    ``want``, decided on the series without extraction, as
    ``cfrac.cfrac_refutation`` decides it.  True is certain; False means
    that extraction differs, or that the series cannot tell."""
    return _departure(a, want)[1] is None


def transported(c, m):
    """lambda c(m(x)) for the matrix m = (a, b, c, d, w), with
    lambda = (c x + d)/w and m(x) = (a x + b)/(c x + d), by ``MPoly.subs``
    with a field value and one ``felem_div``: a route that shares no binary
    form with ``symmetry.transport``."""
    a, b, cx, d, w = m
    x = MPoly.variable("x", a.vars)
    v = cx * x + d
    if isinstance(c, (MPoly, RatFunc)):
        c = c.subs({"x": felem_div(a * x + b, v)})
    return felem_div(v * c, w)


def series_exp(s):
    """exp(s) for a series s with zero constant term, by E' = s' E:
    (k+1) e_{k+1} = sum_j (j+1) s_{j+1} e_{k-j}."""
    if not felem_is_zero(s.coeffs[0]):
        raise ValueError("exp requires zero constant term")
    e = [1]
    for k in range(s.order):
        acc = None
        for j in range(k + 1):
            f = s.coeffs[j + 1]
            if felem_is_zero(f):
                continue
            term = ((j + 1) * f) * e[k - j]
            acc = term if acc is None else acc + term
        e.append(0 if acc is None else acc * Fraction(1, k + 1))
    return TruncSeries(s.order, e)


def gkp_rule(mu):
    """The GKP specialization of the binomial-like coefficient rule: the
    weights (a n + b k + g, a' n + b' k + g') of entry (n, k)."""
    a, b, g, ap, bp, gp = GKPParams.of(mu)

    def rule(n, k):
        return a * n + b * k + g, ap * n + bp * k + gp

    return rule
