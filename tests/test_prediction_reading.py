"""How a predicted S- or J-fraction is read and refuted (``cfrac``).

A prediction is read through the levels that extraction reads: with no
stated end it ends at its first zero coefficient, S as well as J, and a
stated end beyond those levels is not claimed.  A refuted prediction is
extracted only up to the level where the series leaves it, and the witness
is the earliest departure: the first differing coefficient, else the
unexpected or missing end.
"""
import itertools
import json
from dataclasses import replace

import pytest

from gkpfrac import cfrac, families as F, search as S
from gkpfrac.cfrac import CFrac, cfrac_refutation, eval_cfrac, eval_jr
from gkpfrac.cli import main
from gkpfrac.exactalg import as_field, felem_eq, felem_is_zero
from gkpfrac.gkpcore import GKPParams, ogf_trunc, triangle
from helpers import cfrac_confirms

SWEEP_DEPTH = 8


def sweep_points():
    """(family, params) for the ten S families with every free parameter in
    {-1, 0, 1, 2}: 1408 points."""
    for fid in F.SFRAC_FAMILY_IDS:
        names = F.get_family(fid).params
        for vals in itertools.product((-1, 0, 1, 2), repeat=len(names)):
            yield fid, dict(zip(names, vals))


def bent_at(want, j):
    c = list(want.c)
    c[j - 1] = c[j - 1] + 1
    return replace(want, c=tuple(c))


def test_a_sweep_passes_exactly_where_the_series_agree():
    # many points make some c_k vanish; the fraction then ends there
    points = ended = 0
    for fid, params in sweep_points():
        points += 1
        want = F.predicted_cfrac(fid, params, SWEEP_DEPTH, kind="S")
        ogf = ogf_trunc(triangle(F.family_params(fid, params), SWEEP_DEPTH))
        agree = all(felem_eq(as_field(u), as_field(v)) for u, v in
                    zip(ogf.coeffs, eval_cfrac(want, SWEEP_DEPTH).coeffs))
        report = F.verify_family(fid, params, SWEEP_DEPTH)
        assert (report["first_mismatch"] is None) == agree, (fid, params, report)
        # bent at level 1, and at the level where the prediction ends (its
        # first zero, else the last level read): t^j moves by c_1...c_{j-1}
        end = next((k for k, c in enumerate(want.c, 1) if felem_is_zero(c)), None)
        ended += end is not None
        for j in {1, end or SWEEP_DEPTH}:
            assert not cfrac_confirms(ogf, bent_at(want, j)), (fid, params, j)
    assert points == 1408 and ended > 400


def run_cli(tmp_path, *args):
    out = tmp_path / "out.json"
    code = main(["verify-family", *args, "--out", str(out)])
    return code, json.loads(out.read_text())["report"]


def test_a_vanishing_coefficient_ends_an_s_prediction(tmp_path):
    # c_1 = x and c_2 = 0: the rows are x^n, the fraction x/(1 - x t)
    code, report = run_cli(tmp_path, "--id", "F2a", "--params",
                           "alpha=1,alphap=0,betap=0,gammap=1", "--depth", "4")
    assert code == 0 and report["first_mismatch"] is None


@pytest.mark.parametrize("fid, depth", [("s1a", 1), ("s1a", 2), ("s1a", 3), ("s4a", 4)])
def test_an_end_beyond_the_depth_is_not_claimed(tmp_path, fid, depth):
    assert F.get_family(fid).terminates_at > depth
    code, report = run_cli(tmp_path, "--id", fid, "--symbolic", "--depth", str(depth))
    assert code == 0 and report["first_mismatch"] is None
    assert report["verified_to"] == depth


def counted_extractions(monkeypatch, most):
    """The list to which every extraction appends the levels it reads; one
    that would read more than ``most`` fails at once instead."""
    real, seen = cfrac._extract, []

    def spy(b, m, name):
        seen.append(m)
        assert m <= most, seen
        return real(b, m, name)

    monkeypatch.setattr(cfrac, "_extract", spy)
    return seen


def test_a_wrong_template_is_extracted_only_to_its_departure(monkeypatch):
    # F1a with alpha = beta departs at t^1: one level names it, where the
    # whole fraction took minutes from depth 8 on (F3a with alpha = beta
    # did; a derived family's wrong template is a catalog fault now)
    f1a = F.get_family("F1a")
    monkeypatch.setitem(F.CATALOG, "F1a", replace(f1a, template=lambda v: GKPParams(
        v["beta"], v["beta"], 0, v["alphap"], -v["alphap"], v["gammap"])))
    seen = counted_extractions(monkeypatch, 1)
    report = F.verify_family("F1a", None, 10)
    assert report["first_mismatch"]["level"] == 1
    assert seen == [1]


def test_a_correct_family_never_reports_a_missing_end():
    for fid in F.family_ids():
        if F.get_family(fid).kind in ("S", "J"):
            for depth in range(1, 9):
                assert F.verify_family(fid, None, depth)["first_mismatch"] is None, (fid, depth)


def test_an_earlier_coefficient_is_reported_before_an_unexpected_end(monkeypatch):
    # the fraction ends at level 3; the prediction goes on and is off at
    # e_2 already, which t^5 shows before the end at t^6
    a = eval_jr([1, 2, 3, 0], [2, 5, 0], 7)
    seen = counted_extractions(monkeypatch, 3)
    want = CFrac("J", e=(1, 2, 4), f=(2, 5, 7))
    assert cfrac_refutation(a, want, "early")["level"] == ("e", 2)
    assert seen == [3]
    # with e_2 right the end is the departure
    assert cfrac_refutation(a, replace(want, e=(1, 2, 3)), "end") == {
        "level": 3, "expected": "nonterminating"}


def test_a_leaf_reports_a_coefficient_before_a_missed_end(monkeypatch):
    # s1a with c_2 = 0 and claimed to end at 5: a zero before a stated end
    # is left to extraction, which ends at 4 and differs at c_2 already
    s1a = F.get_family("s1a")

    def cs(v):
        # the appended c_4 is a form of degree 1, as the law needs for the
        # families derived from s1a
        c = list(s1a.terminating_cs(v))
        return [c[0], 0, c[2], c[0]]

    monkeypatch.setitem(F.CATALOG, "s1a", replace(s1a, terminates_at=5, terminating_cs=cs))
    report = F.verify_family("s1a", None, 8)
    assert report["first_mismatch"]["level"] == 2
    assert report["first_mismatch"]["expected"] == "0"
    # the replay reaches a leaf of s2a, derived from s1a, first
    with pytest.raises(S.InconsistentNode, match=r": terminating c_2 mismatch vs s2a$"):
        S.run_tree()
