"""The twenty derived families are predicted from their representatives
through the transport law of the symmetry group (``families._derived``):
the thirteen ``b`` families, F3a, F4a, F6, s2a, s3a, s5a and s6a.  Their
hand-written coefficient formulas and lists, which the catalog stated
before the derivation, are kept below as a test-only oracle: the derived
predictions must equal them at the symbolic point with the level index k
symbolic, and at seeded numeric points, zero parameters included.
"""
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from gkpfrac import families as F
from gkpfrac.cfrac import CFrac, cfrac_refutation, contract
from gkpfrac.exactalg import MPoly, felem_eq
from gkpfrac.gkpcore import GKPParams, ogf_trunc, triangle
from gkpfrac.symmetry import D, apply_map


def _x(v):
    any_poly = next(iter(v.values()))
    if isinstance(any_poly, MPoly) and "x" in any_poly.vars:
        return MPoly.variable("x", any_poly.vars)
    return MPoly.variable("x", ("x",))


# the S and T coefficient rules: (odd, even), each (v, k) -> c or (c, d) at
# levels 2k - 1 and 2k
HAND_RULES = {
    "F1b": (lambda v, k: v["gamma"] + (k - 1) * v["beta"],
            lambda v, k: k * v["alphap"] * _x(v)),
    "F2b": (lambda v, k: k * v["alpha"] + v["gamma"],
            lambda v, k: k * v["alpha"]),
    "F3a": (lambda v, k: (v["gammap"] + k * v["betap"]) * _x(v),
            lambda v, k: k * (v["beta"] + v["betap"] * _x(v))),
    "F3b": (lambda v, k: k * v["alpha"] + v["gamma"],
            lambda v, k: k * (v["alpha"] + v["alphap"] * _x(v))),
    "F4a": (lambda v, k: (v["gammap"] + k * v["betap"]) * (v["kappa"] + _x(v)),
            lambda v, k: k * v["betap"] * _x(v)),
    "F4b": (lambda v, k: (v["gamma"] + k * v["alpha"]) * (1 + v["kappa"] * _x(v)),
            lambda v, k: k * v["alpha"]),
    "F6": (lambda v, k: (v["gammap"] + k * (v["alphap"] + v["betap"]))
           * (v["kappa"] + _x(v)),
           lambda v, k: k * (v["alphap"] + v["betap"]) * (v["kappa"] + _x(v))),
    "F7b": (lambda v, k: (v["gamma"] + k * v["alpha"], v["gammap"] * _x(v)),
            lambda v, k: (k * (v["alpha"] + v["alphap"] * _x(v)), 0)),
    "F8b": (lambda v, k: ((2 * k - 1) * v["alphahat"],
                          (v["gammap"] + (2 * k - 2) * v["alphap"]) * _x(v)),
            lambda v, k: (2 * k * v["alphahat"],
                          (v["gammap"] + (2 * k - 1) * v["alphap"]) * _x(v))),
    "F9b": (lambda v, k: ((v["kappa"] + k) * v["alpha"],
                          (v["kappa"] + 2 * k - 1) * v["alphap"] * _x(v)),
            lambda v, k: (k * v["alpha"], 0)),
}

# the terminating lists v -> [c_1, ...], and the level at which each ends
HAND_LISTS = {
    "s1b": (lambda v: [v["gammap"] * _x(v), -v["alpha"],
                       v["alpha"] - v["gammap"] * _x(v)], 4),
    "s2a": (lambda v: [v["gamma"] + v["alphap"] * _x(v),
                       -v["alphap"] * _x(v), -v["gamma"]], 4),
    "s2b": (lambda v: [-v["alpha"] + v["gammap"] * _x(v), v["alpha"],
                       -v["gammap"] * _x(v)], 4),
    "s3a": (lambda v: [-v["alpha"], v["alpha"] + v["alphap"] * _x(v),
                       -v["alphap"] * _x(v)], 4),
    "s3b": (lambda v: [v["alphap"] * _x(v), -v["alpha"] - v["alphap"] * _x(v),
                       v["alpha"]], 4),
    "s4b": (lambda v: [-v["alphap"] * _x(v), -v["alpha"], v["alpha"],
                       v["alphap"] * _x(v)], 5),
    "s5a": (lambda v: [-2 * v["alpha"], v["alpha"] + v["alphap"] * _x(v),
                       -v["alpha"] - v["alphap"] * _x(v), 2 * v["alpha"]], 5),
    "s5b": (lambda v: [2 * v["alphap"] * _x(v), -v["alpha"] - v["alphap"] * _x(v),
                       v["alpha"] + v["alphap"] * _x(v),
                       -2 * v["alphap"] * _x(v)], 5),
    "s6a": (lambda v: [-2 * v["alpha"] - v["alphap"] * _x(v), v["alpha"],
                       -v["alpha"], 2 * v["alpha"] + v["alphap"] * _x(v)], 5),
    "s6b": (lambda v: [-v["beta"] + 2 * v["alphap"] * _x(v),
                       -v["alphap"] * _x(v), v["alphap"] * _x(v),
                       v["beta"] - 2 * v["alphap"] * _x(v)], 5),
}

TWINS = sorted(HAND_RULES) + sorted(HAND_LISTS)
REPRESENTATIVES = ("F1a", "F2a", "F5", "F7a", "F8a", "F9a", "F1c", "GKPZ",
                   "s0", "s1a", "s4a")


def hand_prediction(fid, v, m):
    """The prediction of ``fid`` at the values ``v`` from its hand-written
    formulas: an S or T fraction through m levels, or the terminating list."""
    if fid in HAND_LISTS:
        clist, level = HAND_LISTS[fid]
        return {"c": clist(v), "terminated_at": level}
    odd, even = HAND_RULES[fid]
    rows = [odd(v, (i + 1) // 2) if i % 2 else even(v, i // 2)
            for i in range(1, m + 1)]
    if F.get_family(fid).kind == "S":
        return {"c": rows, "d": [], "terminated_at": None}
    return {"c": [r[0] for r in rows], "d": [r[1] for r in rows],
            "terminated_at": None}


def agrees(got, want):
    return all(len(getattr(got, k)) == len(want[k])
               and all(map(felem_eq, getattr(got, k), want[k]))
               for k in want if k != "terminated_at") \
        and got.terminated_at == want["terminated_at"]


def derived(fid, vals):
    spec = F.get_family(fid)
    return F._derived(spec, F.get_family(spec.source[0]))(vals)


def test_the_b_families_are_the_twins():
    # only the representatives state coefficients; each b family is the
    # D-image of its a family, of the same kind and status
    assert sorted(fid for fid, spec in F.CATALOG.items() if spec.source) \
        == sorted(TWINS)
    for fid, spec in F.CATALOG.items():
        stated = (spec.odd, spec.even, spec.coeffs, spec.terminating_cs,
                  spec.terminates_at)
        if spec.source:
            assert spec.source[0] in REPRESENTATIVES
            assert stated == (None,) * 5, fid
        else:
            assert fid in REPRESENTATIVES and any(stated), fid
    for fid in (f for f in TWINS if f.endswith("b")):
        a = F.get_family(fid[:-1] + "a")
        spec = F.get_family(fid)
        assert (spec.kind, spec.status) == (a.kind, a.status)
        assert F.family_binding(a.id, apply_map(D, F.family_params(fid))) is not None


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


@pytest.mark.parametrize("fid", sorted(HAND_RULES))
def test_derived_rules_equal_the_hand_rules_at_symbolic_k(fid):
    # the rules as polynomials in the level index: every level at once
    names = F.get_family(fid).params
    vars = names + ("k", "x")
    v = {p: MPoly.variable(p, vars) for p in names}
    k = MPoly.variable("k", vars)
    spec = derived(fid, v)
    for rule, hand in zip((spec.odd, spec.even), HAND_RULES[fid]):
        got, want = rule(v, k), hand(v, k)
        pairs = zip(got, want) if isinstance(want, tuple) else [(got, want)]
        assert all(felem_eq(g, w) for g, w in pairs), (fid, got, want)


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
    assert points == 1600 and with_zero > 600


TERMINATING_PAIRS = [fid for fid in F.family_ids()
                     if F.get_family(fid).status == "terminating"
                     and len(F.get_family(fid).params) == 2]


def test_terminating_sweep_agrees_with_the_hand_lists():
    # every parameter in {-1, 0, 1, 2}: the derived list is the hand list,
    # and the report is the one the hand list gets from the series
    assert len(TERMINATING_PAIRS) == 12
    depth = 8
    points = refuted = 0
    for fid in TERMINATING_PAIRS:
        names = F.get_family(fid).params
        for vals in itertools.product((-1, 0, 1, 2), repeat=2):
            v = dict(zip(names, vals))
            got = F.predicted_cfrac(fid, v)
            if fid in HAND_LISTS:
                want = hand_prediction(fid, v, depth)
                assert agrees(got, want), (fid, v)
                want = CFrac("S", c=tuple(want["c"]), terminated_at=want["terminated_at"])
            else:
                want = got
            ogf = ogf_trunc(triangle(F.family_params(fid, v), depth))
            report = F.verify_family(fid, v, depth)
            assert report["first_mismatch"] == cfrac_refutation(ogf, want, fid), (fid, v)
            points += 1
            refuted += report["first_mismatch"] is not None
    assert points == 192 and refuted > 20


def test_a_bent_representative_bends_its_derived_families(monkeypatch):
    # derived once before the bend: the derivation is cached per source
    family = [fid for fid in TWINS if F.get_family(fid).source[0] == "F1a"]
    assert all(F.verify_family(fid, None, 6)["first_mismatch"] is None for fid in family)
    f1a = F.get_family("F1a")
    # the rules are derived with k symbolic, so a bend is a form in k too:
    # c_2k + c_2k-1 moves to c_2k + c_2k-1 of each image, which departs at
    # level 2
    monkeypatch.setitem(F.CATALOG, "F1a", replace(
        f1a, even=lambda v, k: f1a.even(v, k) + f1a.odd(v, k)))
    for fid in family:
        assert F.verify_family(fid, None, 6)["first_mismatch"]["level"] == 2, fid


def test_a_template_off_its_d_image_raises(monkeypatch):
    # F2b written with gamma' = +beta' instead of -beta'
    f2b = F.get_family("F2b")
    monkeypatch.setitem(F.CATALOG, "F2b", replace(f2b, template=lambda v: GKPParams(
        v["alpha"], v["beta"], v["gamma"], 0, v["betap"], v["betap"])))
    with pytest.raises(ArithmeticError, match="^F2b: the preimage of the point "
                                              "under D is not inside F2a$"):
        F.predicted_cfrac("F2b")


def test_a_twin_coefficient_of_x_degree_two_raises(monkeypatch):
    # x c(1/x) of a c of x-degree 2 has a pole at x = 0
    f1a = F.get_family("F1a")
    monkeypatch.setitem(F.CATALOG, "F1a", replace(
        f1a, odd=lambda v, k: f1a.odd(v, k) * (1 + _x(v))))
    assert F.predicted_cfrac("F1a", None, 2).c  # the representative itself is fine
    with pytest.raises(ArithmeticError, match="^F1b: coefficient .* of F1a is "
                                              "not a polynomial under D$"):
        F.predicted_cfrac("F1b", None, 2)
