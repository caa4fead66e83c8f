"""Family membership read off the catalog templates
(``families.family_binding``) against an independent test-only oracle: the
implicit equations of each S family, which the tree replay used before
membership was derived.

The equations are necessary conditions only.  They cut out the closure of a
family's image, which for F4a, F4b and F6 also holds points at kappa =
infinity that no parameter values produce.
"""
import random
from fractions import Fraction

import pytest

from gkpfrac import families as F, search as S
from gkpfrac.exactalg import as_field, felem_eq, felem_is_zero
from gkpfrac.symmetry import WORDS, SingularMap, apply_map

# the defining polynomial relations of each S family on the six-tuple mu
RELATIONS = {
    "F1a": lambda m: [m[0], m[2], m[3] + m[4]],
    "F1b": lambda m: [m[0], m[5], m[3] + m[4]],
    "F2a": lambda m: [m[0] + m[1], m[0] + m[2]],
    "F2b": lambda m: [m[3], m[4] + m[5]],
    "F3a": lambda m: [m[0], m[2], m[3]],
    "F3b": lambda m: [m[0] + m[1], m[3] + m[4], m[5]],
    "F4a": lambda m: [m[0], m[3], m[1] * (m[4] + m[5]) - m[2] * m[4]],
    "F4b": lambda m: [m[0] + m[1], m[3] + m[4],
                      m[5] * m[0] - m[3] * (m[0] + m[2])],
    "F5": lambda m: [m[1], m[4]],
    "F6": lambda m: [m[0] * m[4] - m[1] * (m[3] + m[4]),
                     m[0] * m[5] - m[2] * (m[3] + m[4]),
                     m[1] * m[5] - m[2] * m[4]],
}


def on_relations(fid, mu):
    m = [as_field(v) for v in mu]
    return all(felem_is_zero(r) for r in RELATIONS[fid](m))


def member(fid, mu):
    return F.family_binding(fid, mu) is not None


def test_the_oracle_covers_the_s_families():
    assert sorted(RELATIONS) == sorted(F.SFRAC_FAMILY_IDS)


def test_derived_membership_implies_the_relations():
    # family points at small integer parameters, half of them moved off
    # the family in one coordinate
    rng = random.Random(3601)
    members = outside = 0
    for _ in range(300):
        src = rng.choice(F.SFRAC_FAMILY_IDS)
        params = [rng.randint(-2, 2) for _ in F.get_family(src).params]
        mu = list(F.family_params(src, params))
        if rng.random() < 0.5:
            mu[rng.randrange(6)] += rng.choice((-1, 1))
        for fid in RELATIONS:
            if member(fid, mu):
                members += 1
                assert on_relations(fid, mu), (fid, mu)
            else:
                outside += 1
    assert members > 300 and outside > 1000


@pytest.fixture(scope="module")
def tree_calls():
    """(family, mu, binding) of every membership call of one replay."""
    calls = []
    binding = F.family_binding

    def noting(fid, mu):
        out = binding(fid, mu)
        calls.append((fid, tuple(mu), out))
        return out

    # each derived family binds its representative once, symbolically
    for fid, spec in F.CATALOG.items():
        if spec.source:
            F.predicted_cfrac(fid, None, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "family_binding", noting)
        assert S.run_tree()["ok"]
    return calls


def test_agreement_on_the_tree_calls(tree_calls):
    # 21 discards and 10 red leaves in S families, and 13 terminating
    # leaves: a leaf of a derived family is predicted by its rules, derived
    # before the replay, and binds no other family
    s_calls = [c for c in tree_calls if c[0] in RELATIONS]
    assert (len(s_calls), len(tree_calls)) == (31, 44)
    for fid, mu, binding in tree_calls:
        assert binding is not None, fid
        if fid in RELATIONS:
            assert on_relations(fid, mu), fid


def test_agreement_on_the_symbolic_images():
    # each S family's point under the 48 elements, against every S family
    pairs = singular = 0
    for src in F.SFRAC_FAMILY_IDS:
        mu = F.family_params(src)
        for g in WORDS:
            try:
                image = apply_map(g, mu)
            except SingularMap:
                singular += 1
                continue
            for fid in RELATIONS:
                pairs += 1
                assert member(fid, image) == on_relations(fid, image), \
                    (src, g, fid)
    assert (pairs, singular) == (4400, 40)


def test_points_where_kappa_is_read_from_a_later_coordinate():
    # beta' = 0 leaves kappa beta' no slope; kappa (beta' + gamma') gives it
    assert F.family_binding("F4a", (0, 0, 1, 0, 0, 1)) == {
        "betap": 0, "gammap": 1, "kappa": 1}
    assert on_relations("F4a", (0, 0, 1, 0, 0, 1))
    # no coordinate has a slope: kappa is free and reads as 0
    assert F.family_binding("F4a", (0,) * 6) == {
        "betap": 0, "gammap": 0, "kappa": 0}


def test_points_at_kappa_infinity_are_outside():
    # F6 at alpha' = beta' = gamma' = 0 is the zero tuple, yet the closure
    # of its image holds (-1, -1, -1, 0, 0, 0)
    mu = (-1, -1, -1, 0, 0, 0)
    assert on_relations("F6", mu)
    assert F.family_binding("F6", mu) is None


def _draw(rng, n):
    return [rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9),
                                                         rng.randint(1, 5))))
            for _ in range(n)]


def test_binding_round_trips_on_every_catalog_family():
    rng = random.Random(3602)
    draws = 0
    for fid in F.family_ids():
        names = F.get_family(fid).params
        for _ in range(40):
            p = _draw(rng, len(names))
            mu = F.family_params(fid, p)
            binding = F.family_binding(fid, mu)
            assert binding is not None, (fid, p)
            assert all(map(felem_eq, F.family_params(fid, binding), mu)), \
                (fid, p)
            if all(p):
                assert binding == dict(zip(names, p)), (fid, p)
            draws += 1
    assert draws == 1240


def test_a_tuple_of_the_wrong_length_is_in_no_family():
    assert F.family_binding("F5", (1, 0, 2, 3, 0)) is None
    assert F.family_binding("F5", (1, 0, 2, 3, 0, 4, 0, 0)) is None
    assert F.family_binding("GKPZ", tuple(F.family_params("F1c"))) is None
