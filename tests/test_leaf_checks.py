"""The red and terminating leaf checks of the tree replay and the S and
terminating cases of ``verify_family`` decide success on the series.

Injected faults must fail with the messages and witnesses that the former
extraction-based comparison produced, and that comparison, kept below as a
test-only oracle, must agree with the series route on every leaf and every
S or terminating family.
"""
import json
from dataclasses import replace
from fractions import Fraction
from itertools import count

import pytest

from gkpfrac import cfrac, families as F, search as S
from gkpfrac.cfrac import extract_sfrac
from gkpfrac.cli import main
from gkpfrac.exactalg import (
    TruncSeries, as_field, as_mpoly, divide_exact, felem_div, felem_eq,
    felem_is_zero, first_mismatch, num_den, x_coeffs,
)
from gkpfrac.gkpcore import PARAM_NAMES, cleared_triangle, ogf_trunc, triangle
from gkpfrac.hintbook import VARS, x

DEPTH = 10
S_OR_TERMINATING = [fid for fid in F.family_ids()
                    if F.get_family(fid).kind == "S"]


# -- test-only oracles: the extraction comparison the checks used to run -----

def extraction_leaf_check(node, fid, want, order):
    """None, or the InconsistentNode message of the former leaf check, with
    the earliest departure first: a differing coefficient before a
    termination level that differs."""
    cs, terminated = S.node_cs(node, order)
    template = "%s: c_%d does not match family %s" if want.terminated_at is None \
        else "%s: terminating c_%d mismatch vs %s"
    for i, (got, exp) in enumerate(zip(cs, want.c), start=1):
        if not felem_eq(as_field(got), as_field(exp)):
            return template % (node.name(), i, fid)
    if terminated == want.terminated_at:
        return None
    if want.terminated_at is None:
        return "%s: unexpectedly terminating" % node.name()
    return "%s: expected termination at %d, got %s" % (
        node.name(), want.terminated_at, terminated)


def extraction_family_witness(fid, N):
    """The former ``verify_family`` first_mismatch of an S or terminating
    family with symbolic parameters, with the earliest departure first."""
    spec = F.get_family(fid)
    got = extract_sfrac(ogf_trunc(triangle(F.family_params(fid), N)), N)
    if spec.status == "terminating":
        want = F.predicted_cfrac(fid)
    else:
        want = F.predicted_cfrac(fid, None, N, kind="S")
    bad = first_mismatch(zip(count(1), got.c, want.c))
    if bad is not None:
        level, g, w = bad
        return {"level": level, "expected": repr(w), "got": repr(g)}
    if got.terminated_at == want.terminated_at:
        return None
    return {"level": got.terminated_at, "expected": "nonterminating"
            if want.terminated_at is None else "termination at %s" % want.terminated_at}


def series_leaf_check(node, fid, want, order):
    """None, or the InconsistentNode message of the series route."""
    try:
        S._check_leaf(node, fid, want)
    except S.InconsistentNode as exc:
        return str(exc)
    return None


def bent(want, j):
    """``want`` with 1 added to c_j, or, when c_j lies at or past the
    termination point, claimed to end one level later with c_j = 1."""
    c = list(want.c)
    if want.terminated_at is None or j < want.terminated_at:
        c[j - 1] = c[j - 1] + 1
        return replace(want, c=tuple(c))
    return replace(want, c=tuple(c[:j - 1]) + (1,), terminated_at=j + 1)


@pytest.fixture(scope="module")
def leaves():
    """(node, family, prediction, order) of every leaf check in one replay."""
    seen = []
    check = S._check_leaf

    def record(node, fid, want):
        order = S.RED_DEPTH if want.terminated_at is None else want.terminated_at + 3
        seen.append((node, fid, want, order))
        return check(node, fid, want)

    mp = pytest.MonkeyPatch()
    mp.setattr(S, "_check_leaf", record)
    try:
        assert S.run_tree()["ok"]
    finally:
        mp.undo()
    return seen


def test_every_leaf_agrees_with_the_extraction_oracle(leaves):
    red = [leaf for leaf in leaves if leaf[2].terminated_at is None]
    assert {fid for _, fid, _, _ in red} == set(S.RED_FAMILIES)
    assert {fid for _, fid, want, _ in leaves if want.terminated_at} \
        == set(S.TERMINATING_FAMILIES)
    for node, fid, want, order in leaves:
        assert extraction_leaf_check(node, fid, want, order) is None, node.name()
        assert series_leaf_check(node, fid, want, order) is None, node.name()
        # one coefficient off, at the second level and at the last known one
        known = len(want.c) if want.terminated_at is None else want.terminated_at - 1
        for j in sorted({min(2, known + 1), max(known, 1)}):
            bad = bent(want, j)
            msg = extraction_leaf_check(node, fid, bad, order)
            assert msg is not None, (node.name(), j)
            assert series_leaf_check(node, fid, bad, order) == msg


def test_a_c_1_of_any_form_is_refuted_alike_at_every_leaf(leaves):
    # a leaf whose triples have denominators decides on F(d2 x/d1, d1 t) and
    # maps each predicted c to d1 c(d2 x/d1); no form of c is special there
    forms = (x * x, felem_div(1, 1 + x), Fraction(-1, 3))
    # the forms in turn, separately over the leaves with and without clearing
    turn = {False: 0, True: 0}
    seen = set()
    for node, fid, want, order in leaves:
        if not want.c:
            continue
        _, d1, d2 = cleared_triangle(node.mu(), 0, VARS)
        cleared = (d1, d2) != (1, 1)
        i, turn[cleared] = turn[cleared] % 3, turn[cleared] + 1
        seen.add((i, cleared))
        template = "%s: c_%d does not match family %s" if want.terminated_at is None \
            else "%s: terminating c_%d mismatch vs %s"
        bad = replace(want, c=(forms[i],) + want.c[1:])
        msg = template % (node.name(), 1, fid)
        assert extraction_leaf_check(node, fid, bad, order) == msg, node.name()
        assert series_leaf_check(node, fid, bad, order) == msg, node.name()
    assert seen == {(j, cleared) for j in range(3) for cleared in (False, True)}


@pytest.mark.parametrize("fid", S_OR_TERMINATING)
def test_every_family_agrees_with_the_extraction_oracle(fid, monkeypatch):
    assert F.verify_family(fid, None, DEPTH)["first_mismatch"] is None
    assert extraction_family_witness(fid, DEPTH) is None
    # a derived family states no coefficients: the fault goes into its
    # representative, whose c_2 + c_1 the transport law, which is linear,
    # moves to the family's c_2 + c_1; the rules are derived with the level
    # index k symbolic, so an S family is bent at every even level
    source = F.get_family(fid).source
    spec = F.get_family(source[0] if source else fid)
    if spec.status == "terminating" and spec.id == fid:
        # symbolic parameters: the bent list is the same for every call
        bad = bent(F.predicted_cfrac(fid), 2)
        spec = replace(spec, terminating_cs=lambda v: bad.c,
                       terminates_at=bad.terminated_at)
    elif spec.status == "terminating":
        cs = spec.terminating_cs
        spec = replace(spec, terminating_cs=lambda v: [
            c + cs(v)[0] if i == 1 else c for i, c in enumerate(cs(v))])
    else:
        odd, even = spec.odd, spec.even
        spec = replace(spec, even=lambda v, k: even(v, k) + odd(v, k))
    monkeypatch.setitem(F.CATALOG, spec.id, spec)
    report = F.verify_family(fid, None, DEPTH)
    assert report["first_mismatch"] is not None
    assert report["first_mismatch"] == extraction_family_witness(fid, DEPTH)


def test_every_leaf_inequation_is_used_by_its_fraction(leaves):
    # under the leaf's solve, each of its atoms divides a nonzero
    # x-coefficient of one of its predicted c_1..c_10, so a leaf states no
    # inequation that its fraction does not use
    checked = 0
    for node, fid, want, _ in leaves:
        solved = {p: node.subs[p] for p in PARAM_NAMES if p not in node.free}
        parts = [as_mpoly(num_den(e)[0], VARS) for c in want.c
                 for e in x_coeffs(c).values() if not felem_is_zero(e)]
        for atom in node.atoms:
            atom = as_mpoly(S._subst_field(atom, solved), VARS)
            assert any(divide_exact(p, atom) is not None for p in parts), \
                (node.name(), fid, str(atom))
            checked += 1
    assert checked == 54


def test_red_prediction_of_a_terminating_leaf(leaves):
    node, fid, want, _ = next(leaf for leaf in leaves if leaf[2].terminated_at)
    red = replace(want, c=want.c + (1,) * (S.RED_DEPTH - len(want.c)),
                  terminated_at=None)
    msg = "%s: unexpectedly terminating" % node.name()
    assert extraction_leaf_check(node, fid, red, S.RED_DEPTH) == msg
    assert series_leaf_check(node, fid, red, S.RED_DEPTH) == msg


# -- injected faults, with the messages the extraction comparison gave -------

def _replay_message(monkeypatch, label, edit):
    hint = dict(S.HINT_BOOK[label])
    edit(hint)
    monkeypatch.setitem(S.HINT_BOOK, label, hint)
    with pytest.raises(S.InconsistentNode) as exc:
        S.run_tree()
    return str(exc.value)


def test_red_binding_with_a_swapped_parameter(monkeypatch):
    # F5's c_2 written with alpha and gamma swapped: the leaf 0,0,1b,1b
    # still lies in F5, and its series refutes the prediction at c_2
    f5 = F.get_family("F5")

    def swapped(v, k):
        return f5.even(dict(v, alpha=v["gamma"], gamma=v["alpha"])
                       if k == 1 else v, k)

    monkeypatch.setitem(F.CATALOG, "F5", replace(f5, even=swapped))
    with pytest.raises(S.InconsistentNode) as exc:
        S.run_tree()
    assert str(exc.value) == "0,0,1b,1b: c_2 does not match family F5"


def test_terminating_binding_that_ends_one_level_late(monkeypatch):
    # s1a ends at level 4 and s4a at level 5; the c=0 leaf of s1a is not a
    # point of s4a, which is caught before any fraction is predicted (a
    # prediction that ends one level late is
    # test_prediction_with_a_zero_coefficient)
    def late(hint):
        kind, token, solve, (_, atoms) = hint["c_zero"]
        hint["c_zero"] = (kind, token, solve, ("s4a", atoms))

    assert _replay_message(monkeypatch, ("0", "0", "0", "1a", "1b"), late) \
        == "0,0,0,1a,1b,c=0: parameters not inside family s4a"


def test_prediction_with_a_zero_coefficient(monkeypatch):
    # s1a padded with c_4 = 0 and claimed to end at 5: the series of the
    # claim is that of the node, so only the nonzero guard sends it to
    # extraction, which finds the termination at 4.  s1b, s2a, s2b, s3a and
    # s3b are derived from s1a, and the replay reaches the s2a leaf first
    s1a = F.get_family("s1a")
    monkeypatch.setitem(F.CATALOG, "s1a", replace(
        s1a, terminates_at=5,
        terminating_cs=lambda v: list(s1a.terminating_cs(v)) + [0]))
    with pytest.raises(S.InconsistentNode) as exc:
        S.run_tree()
    assert str(exc.value) == "0,0,1b,1a,0,c=0: expected termination at 5, got 4"


def test_corrupted_s_coefficient_report(monkeypatch):
    f5 = F.get_family("F5")
    monkeypatch.setitem(F.CATALOG, "F5", replace(
        f5, odd=lambda v, k: f5.odd(v, k) + (1 if k == 2 else 0)))
    assert F.verify_family("F5", None, DEPTH)["first_mismatch"] == {
        "level": 3, "expected": "2*alphap*x + gammap*x + 2*alpha + gamma + 1",
        "got": "2*alphap*x + gammap*x + 2*alpha + gamma"}


def test_corrupted_terminating_list_report(monkeypatch):
    s4a = F.get_family("s4a")
    monkeypatch.setitem(F.CATALOG, "s4a", replace(
        s4a, terminating_cs=lambda v: [2 * c if i == 2 else c for i, c
                                       in enumerate(s4a.terminating_cs(v))]))
    assert F.verify_family("s4a", None, DEPTH)["first_mismatch"] == {
        "level": 3, "expected": "-2*alphap*x", "got": "-alphap*x"}


def test_terminating_list_with_a_zero_coefficient_report(monkeypatch):
    s4a = F.get_family("s4a")
    monkeypatch.setitem(F.CATALOG, "s4a", replace(
        s4a, terminates_at=6,
        terminating_cs=lambda v: list(s4a.terminating_cs(v)) + [0]))
    assert F.verify_family("s4a", None, DEPTH)["first_mismatch"] == {
        "level": 5, "expected": "termination at 6"}


# -- a refutation that extraction does not confirm is an internal error -----

def test_an_unconfirmed_refutation_raises(monkeypatch, tmp_path):
    # the path sums of every claim wrong in their last coefficient: a fault
    # of the series check that extraction does not share
    real = cfrac.eval_cfrac

    def off(cf, order):
        s = real(cf, order)
        return TruncSeries(order, s.coeffs[:-1] + [s.coeffs[-1] + 1])

    monkeypatch.setattr(cfrac, "eval_cfrac", off)
    with pytest.raises(ArithmeticError, match="refutes"):
        S.run_tree()
    with pytest.raises(ArithmeticError, match="refutes"):
        F.verify_family("F5", None, 6)
    out = tmp_path / "out.json"
    code = main(["verify-family", "--id", "s1a", "--symbolic", "--depth", "6",
                 "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 3 and "refutes" in report["internal"]
