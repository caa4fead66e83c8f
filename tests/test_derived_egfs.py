"""The egfs of F1b, F2b, F3a, F3b, F4a, F4b, F6 and F7b are transported from
their representatives' closed forms by the group law
F_{g.mu}(x, t) = F_mu(m(x), lambda t) (``families._transported``).  The
hand-written forms that the catalog stated before are the oracle
(``hand_egfs``): at seeded numeric points, zero coordinates included, the
transported series equals the hand one wherever the hand one exists, and
raises a usage error exactly where the hand one raises.
"""
import random
from fractions import Fraction

import pytest

from gkpfrac import families as F
from gkpfrac.exactalg import felem_eq
from gkpfrac.gkpcore import UnknownFamily
from hand_egfs import HAND_EGF_IDS, hand_egf


def _draw(rng):
    if rng.random() < 0.2:
        return 0
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _outcome(route, fid, v, order):
    try:
        return route(fid, v, order), None
    except (F.NonRationalExponent, F.VanishingDenominator) as err:
        return None, err


def test_transported_egfs_equal_the_hand_forms_at_seeded_points():
    rng = random.Random(4811)
    counts = {}
    for fid in HAND_EGF_IDS:
        names = F.get_family(fid).params
        for _ in range(40):
            v = dict(zip(names, (_draw(rng) for _ in names)))
            got, err = _outcome(F.egf_closed_form, fid, v, 5)
            want, hand_err = _outcome(hand_egf, fid, v, 5)
            assert (err is None) == (hand_err is None), (fid, v, err, hand_err)
            if got is not None:
                assert all(map(felem_eq, got.coeffs, want.coeffs)), (fid, v)
            key = fid, got is not None, all(v.values())
            counts[key] = counts.get(key, 0) + 1
    # every family has series at points with a zero coordinate and without
    assert all(counts.get((fid, True, nz), 0) >= 3
               for fid in HAND_EGF_IDS for nz in (True, False)), counts
    assert sum(n for (_, series, _), n in counts.items() if not series) > 80, counts


def test_f6_at_betap_zero_is_transported():
    # F6 = Z.F2a has the matrix (betap, betap*kappa, 0, betap, betap): with
    # its common factor betap left in, beta' = 0 would have no series
    v = {"alphap": 2, "betap": 0, "gammap": 1, "kappa": 3}
    got = F.egf_closed_form("F6", v, 6)
    assert all(map(felem_eq, got.coeffs, hand_egf("F6", v, 6).coeffs))
    assert F.verify_egf_closed_forms("F6", v, 6)["ok"]


def test_a_vanishing_denominator_of_the_binding_is_stated(monkeypatch):
    # F3b binds F1a's gammap to -alphap (alpha + gamma) / alpha, and its w
    # (-alpha alphap) vanishes with alpha; with w put to 1 the binding's
    # denominator is the one that vanishes
    binding, m = F._pullback(F.get_family("F3b"))
    monkeypatch.setattr(F, "_pullback", lambda spec: (binding, m[:4] + (m[4] ** 0,)))
    with pytest.raises(F.VanishingDenominator, match="^F3b: denominator alpha vanishes$"):
        F.egf_closed_form("F3b", {"alpha": 0, "gamma": 1, "alphap": 1}, 3)


@pytest.mark.parametrize("fid", ["F8b", "F9b", "s1b", "s6b"])
def test_a_derived_family_without_a_form_is_named_before_any_pullback(fid, monkeypatch):
    def no_pullback(spec):
        raise AssertionError("pullback of %s" % spec.id)

    monkeypatch.setattr(F, "_pullback", no_pullback)
    vals = dict.fromkeys(F.get_family(fid).params, 1)
    with pytest.raises(UnknownFamily, match="^'%s'$" % fid):
        F.egf_closed_form(fid, vals, 2)


def test_the_pullback_is_shared_with_the_fraction_rules():
    F._pullback.cache_clear()
    F._derived.cache_clear()
    F.predicted_cfrac("F4a", None, 4)
    F.egf_closed_form("F4a", {"betap": 1, "gammap": 2, "kappa": 3}, 4)
    info = F._pullback.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("fid, v, message", [
    ("F3b", {"alpha": 0, "gamma": 1, "alphap": 1}, "F3b: denominator alpha*alphap vanishes"),
    ("F4a", {"betap": 0, "gammap": 1, "kappa": 1},
     "F4a: denominator vanishes in F1a's form under DZ"),
    ("F4b", {"alpha": 0, "gamma": 1, "kappa": 1},
     "F4b: denominator vanishes in F1a's form under Z"),
])
def test_where_the_hand_exponent_failed_first(fid, v, message):
    # the hand form raised NonRationalExponent at these 60 points of the
    # 5^3 grids over {-2, -1, 0, 1, 3}; both are usage errors (exit 2)
    with pytest.raises(F.NonRationalExponent):
        hand_egf(fid, v, 3)
    with pytest.raises(F.VanishingDenominator) as err:
        F.egf_closed_form(fid, v, 3)
    assert str(err.value) == message
