"""Predictions decided on an evaluation image (``families.evaluation_image``).

The image sets graded variables to 1 and one more variable to 2^W.  It must
leave a prediction's first departure where the original values put it, and
a refuted prediction must keep the witness that the original values give.
"""
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from gkpfrac import families as F
from gkpfrac.cfrac import _path_series, cfrac_refutation
from gkpfrac.exactalg import MPoly, TruncSeries
from gkpfrac.gkpcore import triangle_rows

DEPTH = 8
JOBS = [(fid, kind) for fid in F.family_ids()
        for kind in {"S": "S", "T": "TJ", "J": "J"}[F.get_family(fid).kind]
        if fid not in ("F8a", "F8b") or kind == "T"]


def original(mu, want, N, name):
    """The decision on the original values, without the image:
    ``cfrac_refutation`` for S and J, the first differing t^n for T."""
    series = TruncSeries(N, triangle_rows(tuple(mu), N))
    if want.kind != "T":
        return series, cfrac_refutation(series, want, name)
    bad = F._t_mismatch(series, want)
    return series, None if bad is None else {
        "level": bad[0], "expected": repr(bad[2]), "got": repr(bad[1])}


def bent(want, level, delta):
    """``want`` with ``delta`` added to its last coefficient list at
    ``level`` (c for S, d for T, f for J), when it has that level."""
    name = {"S": "c", "T": "d", "J": "f"}[want.kind]
    vals = list(getattr(want, name))
    if level < len(vals):
        v = vals[level]
        vals[level] = v + (delta(MPoly.variable("x", v.vars)) if isinstance(v, MPoly)
                           else delta(MPoly.variable("x", ("x",))))
    return replace(want, **{name: tuple(vals)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(JOBS), st.integers(0, DEPTH - 1),
       st.sampled_from([lambda x: 1, lambda x: x, lambda x: -x * x, lambda x: 0]),
       st.one_of(st.none(), st.lists(st.fractions(-3, 3, max_denominator=3),
                                     min_size=5, max_size=5)))
def test_the_image_departs_where_the_original_values_do(job, level, delta, values):
    fid, kind = job
    spec = F.get_family(fid)
    params = None if values is None else dict(zip(spec.params, values))
    mu = spec.template(F._resolve_params(spec, params))
    want = bent(F.predicted_cfrac(fid, params, DEPTH // 2 if kind == "J" else DEPTH, kind),
                level, delta)
    series, bad = original(mu, want, DEPTH, fid)
    image = F.evaluation_image(mu, want, DEPTH)
    assert image is not None
    assert F._departs(*image[:2]) == F._departs(series, want)
    assert F.prediction_refutation(mu, want, DEPTH, fid) == bad


@pytest.mark.parametrize("fid,kind", JOBS)
def test_every_catalog_prediction_is_confirmed_on_its_image(fid, kind):
    spec = F.get_family(fid)
    mu = F.family_params(fid)
    want = F.predicted_cfrac(fid, None, 5 if kind == "J" else 10, kind)
    series, want_image, W = F.evaluation_image(mu, want, 10)
    assert F._departs(series, want_image) is None
    # a symbolic image keeps x: its rows, or for a numeric image of mu the
    # rows' integers, differ at x = 1
    rows = series.coeffs
    if isinstance(rows[-1], MPoly):
        assert "x" in rows[-1].vars
    assert W > 1


def test_an_off_grade_term_is_graded_with_the_prediction():
    # F5 drops gamma and gammap; gamma^2 - gamma is not graded like the
    # rest, and would vanish if gamma were set to 1 anyway
    mu = F.family_params("F5")
    want = F.predicted_cfrac("F5", None, 10)
    g = MPoly.variable("gamma", want.c[2].vars)
    wrong = replace(want, c=want.c[:2] + (want.c[2] + g * g - g,) + want.c[3:])
    _, bad = original(mu, wrong, 10, "F5")
    assert bad is not None and bad["level"] == 3
    assert F.prediction_refutation(mu, wrong, 10, "F5") == bad
    assert F.verify_family("F5", None, 10)["first_mismatch"] is None


@pytest.mark.parametrize("fid,kind,params", [
    ("F6", "S", None), ("GKPZ", "J", None), ("F7a", "J", None), ("s1a", "S", None),
    ("F9a", "T", {"beta": Fraction(3, 2), "alphaphat": Fraction(2, 3), "kappa": 4}),
    ("F1c", "J", {"beta": Fraction(1, 2), "gamma": 3, "alphap": Fraction(-2, 3),
                  "gammap": 1}),
])
def test_the_slot_width_covers_twice_the_documented_bound(fid, kind, params):
    """W = bitlen(2 (B_P + B_F)) + 1, B_P from the recurrence run on the l1
    norms of the integral entries and B_F the path sum of the coefficients'
    norms, here recomputed from the integer entries of the image's scaling."""
    N = 10
    spec = F.get_family(fid)
    mu = tuple(spec.template(F._resolve_params(spec, params)))
    want = F.predicted_cfrac(fid, params, N // 2 if kind == "J" else N, kind)
    *_, W = F.evaluation_image(mu, want, N)
    values = list(mu) + [c for c, _ in F._coefficients(want)]
    terms = lambda v: v.terms.values() if isinstance(v, MPoly) else [v]
    den = lcm(*(Fraction(c).denominator for v in values for c in terms(v)))
    norm = lambda v, w: sum(abs(int(c * den ** w)) for c in terms(v))
    a, b, g, ap, bp, gp, sg, tu = [norm(v, 1) for v in mu] + [0] * (8 - len(mu))
    P, bounds = 1, [1]
    for n in range(1, N + 1):
        P *= n * (a + ap + bp) + (n - 1) * (b + sg + tu) + g + gp
        bounds.append(P)
    at = F._mapped(want, norm)
    pad = lambda cs: list(cs) + [0] * (N + 1 - len(cs))
    paths = _path_series(pad(at.f), pad(at.e), 1, N) if kind == "J" \
        else _path_series(pad(at.c), pad(at.d), 2, N)
    top = max([p + f for p, f in zip(bounds, paths.coeffs)]
              + [norm(c, w) for c, w in F._coefficients(want)])
    assert W == (2 * top).bit_length() + 1


def test_a_j_fraction_f_spans_two_steps_of_the_scaling():
    # with mu's denominators cleared by K, f must gain K^2: one power short
    # moves every f and the image departs at once
    params = {"beta": Fraction(1, 2), "gamma": Fraction(1, 3),
              "alphap": Fraction(2, 5), "gammap": 1}
    mu = F.family_params("F1c", params)
    want = F.predicted_cfrac("F1c", params, 5, "J")
    series, want_image, _ = F.evaluation_image(mu, want, 10)
    assert F._departs(series, want_image) is None
    assert F.verify_family("F1c", params, 10)["first_mismatch"] is None


def test_a_parameter_with_x_keeps_the_original_values():
    x = MPoly.variable("x", ("beta", "x"))
    beta = MPoly.variable("beta", ("beta", "x"))
    mu = (0, beta, x, 1, -1, 1)
    want = F.predicted_cfrac("F1a", {"beta": 1, "alphap": 1, "gammap": 1}, 4)
    assert F.evaluation_image(mu, want, 4) is None
    series, bad = original(mu, want, 4, "x in mu")
    assert F.prediction_refutation(mu, want, 4, "x in mu") == bad


def test_an_image_that_refutes_a_confirmed_prediction_is_an_error(monkeypatch):
    # the image must never refute what the original values confirm
    image = F.evaluation_image
    monkeypatch.setattr(F, "evaluation_image",
                        lambda mu, want, N: image(mu, bent(want, 3, lambda x: 1), N))
    mu = F.family_params("F5")
    want = F.predicted_cfrac("F5", None, 10)
    with pytest.raises(ArithmeticError, match="F5: the evaluation image refutes"):
        F.prediction_refutation(mu, want, 10, "F5")
