"""The closed-form egfs that the catalog wrote out by hand for eight derived
families before their egfs were transported from their representatives'
(``families._transported``): F1b, F2b, F3a, F3b, F4a, F4b and F6, and F7b
as the (gammap x)-binomial shift of F3b.  They are kept here as a test-only
oracle, with the messages they raised.
"""
from fractions import Fraction

from gkpfrac.exactalg import (
    MPoly, TruncSeries, exp_series, felem_div, felem_is_zero,
    generalized_binomial_series,
)
from gkpfrac.families import NonRationalExponent, VanishingDenominator

HAND_EGF_IDS = ("F1b", "F2b", "F3a", "F3b", "F4a", "F4b", "F6", "F7b")


def hand_egf(id, vals, order, family=None):
    """The hand-written egf of ``id`` at numeric ``vals``; a
    VanishingDenominator names ``family`` (default ``id``), which for the
    shift F7b is F7b."""
    family = family or id
    x = MPoly.variable("x", ("x",))
    one = MPoly.one(("x",))
    v = {k: Fraction(val) for k, val in vals.items()}

    def rf(num, den):
        if felem_is_zero(den):
            raise NonRationalExponent("exponent denominator vanishes")
        return felem_div(num, den)

    def over(num, den, expr):
        if felem_is_zero(den):
            raise VanishingDenominator("%s: denominator %s vanishes" % (family, expr))
        return felem_div(num, den)

    if id == "F1b":
        b, g, ap = v["beta"], v["gamma"], v["alphap"]
        c = ap * x - b
        base = (TruncSeries(order, [ap * x] + [0] * order)
                - exp_series(c, order).scale(b)) * over(one, c, "alphap*x - beta")
        return generalized_binomial_series(base, rf(-g, b))
    if id == "F2b":
        a, g = v["alpha"], v["gamma"]
        return generalized_binomial_series(TruncSeries(order, [1, -a]), rf(-(a + g), a))
    if id == "F3a":
        b, bp, gp = v["beta"], v["betap"], v["gammap"]
        u = exp_series(b, order)
        base = 1 + (1 - u).scale(bp * x) * over(one, b, "beta")
        return generalized_binomial_series(base, rf(-(bp + gp), bp))
    if id == "F3b":
        a, g, ap = v["alpha"], v["gamma"], v["alphap"]
        u = exp_series(ap * x, order)
        base = 1 + (1 - u).scale(a) * over(one, ap * x, "alphap*x")
        return generalized_binomial_series(base, rf(-(a + g), a))
    if id == "F4a":
        bp, gp, kp = v["betap"], v["gammap"], v["kappa"]
        u = exp_series(-kp * bp, order)
        base = 1 - (1 - u).scale((kp + x) * over(1, kp, "kappa"))
        return generalized_binomial_series(base, rf(-(bp + gp), bp))
    if id == "F4b":
        a, g, kp = v["alpha"], v["gamma"], v["kappa"]
        u = exp_series(-kp * a * x, order)
        base = 1 - (1 - u).scale(over(1 + kp * x, kp * x, "kappa*x"))
        return generalized_binomial_series(base, rf(-(a + g), a))
    if id == "F6":
        ap, bp, gp, kp = v["alphap"], v["betap"], v["gammap"], v["kappa"]
        base = TruncSeries(order, [1, -(ap + bp) * (kp + x)])
        return generalized_binomial_series(base, rf(-(ap + bp + gp), ap + bp))
    if id == "F7b":
        inner = {p: v[p] for p in ("alpha", "gamma", "alphap")}
        return exp_series(v["gammap"] * x, order) * hand_egf("F3b", inner, order, family)
    raise KeyError(id)
