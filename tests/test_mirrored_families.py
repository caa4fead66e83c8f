"""The thirteen ``b`` families are predicted from their ``a`` twins through
the row reversal D (``families._mirrored``).  Their hand-written coefficient
formulas and lists, which the catalog stated before the derivation, are kept
below as a test-only oracle: the derived predictions must equal them at the
symbolic point and at seeded numeric points, zero parameters included.
"""
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from gkpfrac import families as F
from gkpfrac.cfrac import CFrac, contract
from gkpfrac.exactalg import MPoly, felem_eq
from gkpfrac.gkpcore import GKPParams


def _x(v):
    any_poly = next(iter(v.values()))
    if isinstance(any_poly, MPoly) and "x" in any_poly.vars:
        return MPoly.variable("x", any_poly.vars)
    return MPoly.variable("x", ("x",))


def _pair(odd, even):
    """The level-i rule whose coefficients at levels 2k-1 and 2k are
    ``odd(v, k)`` and ``even(v, k)``."""
    return lambda v, i: odd(v, (i + 1) // 2) if i % 2 else even(v, (i + 1) // 2)


# the S and T coefficient rules (v, level) -> c or (c, d)
HAND_RULES = {
    "F1b": _pair(lambda v, k: v["gamma"] + (k - 1) * v["beta"],
                 lambda v, k: k * v["alphap"] * _x(v)),
    "F2b": _pair(lambda v, k: k * v["alpha"] + v["gamma"],
                 lambda v, k: k * v["alpha"]),
    "F3b": _pair(lambda v, k: k * v["alpha"] + v["gamma"],
                 lambda v, k: k * (v["alpha"] + v["alphap"] * _x(v))),
    "F4b": _pair(lambda v, k: (v["gamma"] + k * v["alpha"]) * (1 + v["kappa"] * _x(v)),
                 lambda v, k: k * v["alpha"]),
    "F7b": _pair(lambda v, k: (v["gamma"] + k * v["alpha"], v["gammap"] * _x(v)),
                 lambda v, k: (k * (v["alpha"] + v["alphap"] * _x(v)), 0)),
    "F8b": lambda v, i: (i * v["alphahat"],
                         (v["gammap"] + (i - 1) * v["alphap"]) * _x(v)),
    "F9b": _pair(lambda v, k: ((v["kappa"] + k) * v["alpha"],
                               (v["kappa"] + 2 * k - 1) * v["alphap"] * _x(v)),
                 lambda v, k: (k * v["alpha"], 0)),
}

# the terminating lists v -> [c_1, ...], and the level at which each ends
HAND_LISTS = {
    "s1b": (lambda v: [v["gammap"] * _x(v), -v["alpha"],
                       v["alpha"] - v["gammap"] * _x(v)], 4),
    "s2b": (lambda v: [-v["alpha"] + v["gammap"] * _x(v), v["alpha"],
                       -v["gammap"] * _x(v)], 4),
    "s3b": (lambda v: [v["alphap"] * _x(v), -v["alpha"] - v["alphap"] * _x(v),
                       v["alpha"]], 4),
    "s4b": (lambda v: [-v["alphap"] * _x(v), -v["alpha"], v["alpha"],
                       v["alphap"] * _x(v)], 5),
    "s5b": (lambda v: [2 * v["alphap"] * _x(v), -v["alpha"] - v["alphap"] * _x(v),
                       v["alpha"] + v["alphap"] * _x(v),
                       -2 * v["alphap"] * _x(v)], 5),
    "s6b": (lambda v: [-v["beta"] + 2 * v["alphap"] * _x(v),
                       -v["alphap"] * _x(v), v["alphap"] * _x(v),
                       v["beta"] - 2 * v["alphap"] * _x(v)], 5),
}

TWINS = sorted(HAND_RULES) + sorted(HAND_LISTS)


def hand_prediction(fid, v, m):
    """The prediction of ``fid`` at the values ``v`` from its hand-written
    formulas: an S or T fraction through m levels, or the terminating list."""
    if fid in HAND_LISTS:
        clist, level = HAND_LISTS[fid]
        return {"c": clist(v), "terminated_at": level}
    rows = [HAND_RULES[fid](v, i) for i in range(1, m + 1)]
    if F.get_family(fid).kind == "S":
        return {"c": rows, "d": [], "terminated_at": None}
    return {"c": [r[0] for r in rows], "d": [r[1] for r in rows],
            "terminated_at": None}


def agrees(got, want):
    return all(len(getattr(got, k)) == len(want[k])
               and all(map(felem_eq, getattr(got, k), want[k]))
               for k in want if k != "terminated_at") \
        and got.terminated_at == want["terminated_at"]


def test_the_b_families_are_the_twins():
    twins = {fid: spec.twin for fid, spec in F.CATALOG.items() if spec.twin}
    assert sorted(twins) == sorted(TWINS)
    for fid, twin in twins.items():
        spec, a = F.get_family(fid), F.get_family(twin)
        assert twin == fid[:-1] + "a" and a.twin is None
        assert (spec.kind, spec.status) == (a.kind, a.status)
        assert spec.coeffs is spec.terminating_cs is spec.terminates_at is None


@pytest.mark.parametrize("fid", TWINS)
def test_derived_prediction_equals_the_hand_formulas(fid):
    v = F._sym(F.get_family(fid))
    got = F.predicted_cfrac(fid, None, 12)
    want = hand_prediction(fid, v, 12)
    assert agrees(got, want), (fid, got, want)
    if fid in ("F7b", "F9b"):
        # d vanishes at even levels: the J-form is the even contraction
        j = F.predicted_cfrac(fid, None, 6, kind="J")
        hand_j = contract(CFrac("T", c=tuple(want["c"]), d=tuple(want["d"])))
        assert len(j.e) == len(j.f) == 6
        assert all(map(felem_eq, j.e + j.f, hand_j.e + hand_j.f)), fid


def _draw(rng):
    return rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9),
                                                        rng.randint(1, 5))))


def test_derived_prediction_equals_the_hand_formulas_at_numeric_points():
    rng = random.Random(3701)
    points = with_zero = 0
    for fid in TWINS:
        names = F.get_family(fid).params
        for _ in range(80):
            p = [_draw(rng) for _ in names]
            v = dict(zip(names, p))
            got = F.predicted_cfrac(fid, v, 8)
            assert agrees(got, hand_prediction(fid, v, 8)), (fid, p)
            points += 1
            with_zero += not all(p)
    assert points == 1040 and with_zero > 400


def test_a_template_off_its_d_image_raises(monkeypatch):
    # F2b written with gamma' = +beta' instead of -beta'
    f2b = F.get_family("F2b")
    monkeypatch.setitem(F.CATALOG, "F2b", replace(f2b, template=lambda v: GKPParams(
        v["alpha"], v["beta"], v["gamma"], 0, v["betap"], v["betap"])))
    with pytest.raises(ArithmeticError,
                       match="^F2b: the D-image of the point is not inside F2a$"):
        F.predicted_cfrac("F2b")


def test_a_twin_coefficient_of_x_degree_two_raises(monkeypatch):
    f1a = F.get_family("F1a")
    monkeypatch.setitem(F.CATALOG, "F1a", replace(
        f1a, coeffs=lambda v, i: f1a.coeffs(v, i) * (1 + _x(v))))
    assert F.predicted_cfrac("F1a", None, 2).c  # the twin itself is fine
    with pytest.raises(ArithmeticError, match="^F1b: coefficient .* of F1a "
                                              "has x-degree above 1$"):
        F.predicted_cfrac("F1b", None, 2)
