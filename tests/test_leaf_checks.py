"""The red and terminating leaf checks of the tree replay and the S and
terminating cases of ``verify_family`` decide success on the series.

Injected faults must fail with the messages and witnesses that the former
extraction-based comparison produced, and that comparison, kept below as a
test-only oracle, must agree with the series route on every leaf and every
S or terminating family.
"""
import json
from dataclasses import replace
from itertools import count

import pytest

from gkpfrac import cfrac, families as F, search as S
from gkpfrac.cfrac import extract_sfrac
from gkpfrac.cli import main
from gkpfrac.exactalg import as_field, felem_eq, first_mismatch
from gkpfrac.gkpcore import ogf_trunc, triangle

DEPTH = 10
S_OR_TERMINATING = [fid for fid in F.family_ids()
                    if F.get_family(fid).kind == "S"]


# -- test-only oracles: the extraction comparison the checks used to run -----

def extraction_leaf_check(node, fid, want, order):
    """None, or the InconsistentNode message of the former leaf check."""
    cs, terminated = S.node_cs(node, order)
    if want.terminated_at is None:
        if terminated is not None:
            return "%s: unexpectedly terminating" % node.name()
        template = "%s: c_%d does not match family %s"
    else:
        if terminated != want.terminated_at:
            return "%s: expected termination at %d, got %s" % (
                node.name(), want.terminated_at, terminated)
        template = "%s: terminating c_%d mismatch vs %s"
    for i, (got, exp) in enumerate(zip(cs, want.c), start=1):
        if not felem_eq(as_field(got), as_field(exp)):
            return template % (node.name(), i, fid)
    return None


def extraction_family_witness(fid, N):
    """The former ``verify_family`` first_mismatch of an S or terminating
    family with symbolic parameters."""
    spec = F.get_family(fid)
    got = extract_sfrac(ogf_trunc(triangle(F.family_params(fid), N)), N)
    tail = None
    if spec.status == "terminating":
        want = F.predicted_cfrac(fid)
        if got.terminated_at != want.terminated_at:
            return {"level": got.terminated_at,
                    "expected": "termination at %s" % want.terminated_at}
    else:
        want = F.predicted_cfrac(fid, None, N, kind="S")
        if got.terminated_at is not None:
            tail = {"level": got.terminated_at, "expected": "nonterminating"}
    bad = first_mismatch(zip(count(1), got.c, want.c))
    if bad is None:
        return tail
    level, g, w = bad
    return {"level": level, "expected": repr(w), "got": repr(g)}


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


@pytest.mark.parametrize("fid", S_OR_TERMINATING)
def test_every_family_agrees_with_the_extraction_oracle(fid, monkeypatch):
    assert F.verify_family(fid, None, DEPTH)["first_mismatch"] is None
    assert extraction_family_witness(fid, DEPTH) is None
    spec = F.get_family(fid)
    if spec.status == "terminating":
        # symbolic parameters: the bent list is the same for every call
        bad = bent(F.predicted_cfrac(fid), 2)
        spec = replace(spec, terminating_cs=lambda v: bad.c,
                       terminates_at=bad.terminated_at)
    else:
        coeffs = spec.coeffs
        spec = replace(spec, coeffs=lambda v, i: coeffs(v, i) + (1 if i == 2 else 0))
    monkeypatch.setitem(F.CATALOG, fid, spec)
    report = F.verify_family(fid, None, DEPTH)
    assert report["first_mismatch"] is not None
    assert report["first_mismatch"] == extraction_family_witness(fid, DEPTH)


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
    def swap(hint):
        factors = [dict(f) for f in hint["factors"]]
        kind, token, solve, (fid, _, atoms) = factors[1]["actions"][0]
        assert fid == "F5"

        def binding(v):
            return {"alpha": v.g, "gamma": v.a, "alphap": v.ap, "gammap": v.gp}

        factors[1]["actions"] = [(kind, token, solve, (fid, binding, atoms))]
        hint["factors"] = factors

    assert _replay_message(monkeypatch, ("0", "0", "1b"), swap) \
        == "0,0,1b,1b: c_2 does not match family F5"


def test_terminating_binding_that_ends_one_level_late(monkeypatch):
    # s1a ends at level 4; s4a, with the same values, at level 5
    def late(hint):
        kind, token, solve, (_, _, atoms) = hint["c_zero"]
        hint["c_zero"] = (kind, token, solve, (
            "s4a", lambda v: {"beta": v.g, "alphap": v.ap}, atoms))

    assert _replay_message(monkeypatch, ("0", "0", "0", "1a", "1b"), late) \
        == "0,0,0,1a,1b,c=0: expected termination at 5, got 4"


def test_prediction_with_a_zero_coefficient(monkeypatch):
    # s1a padded with c_4 = 0 and claimed to end at 5: the series of the
    # claim is that of the node, so only the nonzero guard sends it to
    # extraction, which finds the termination at 4
    s1a = F.get_family("s1a")
    monkeypatch.setitem(F.CATALOG, "s1a", replace(
        s1a, terminates_at=5,
        terminating_cs=lambda v: list(s1a.terminating_cs(v)) + [0]))
    with pytest.raises(S.InconsistentNode) as exc:
        S.run_tree()
    assert str(exc.value) == "0,0,0,1a,1b,c=0: expected termination at 5, got 4"


def test_corrupted_s_coefficient_report(monkeypatch):
    f5 = F.get_family("F5")
    monkeypatch.setitem(F.CATALOG, "F5", replace(
        f5, coeffs=lambda v, i: f5.coeffs(v, i) + (1 if i == 3 else 0)))
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
    monkeypatch.setattr(cfrac, "cfrac_confirms", lambda a, want: False)
    with pytest.raises(ArithmeticError, match="refutes"):
        S.run_tree()
    with pytest.raises(ArithmeticError, match="refutes"):
        F.verify_family("F5", None, 6)
    out = tmp_path / "out.json"
    code = main(["verify-family", "--id", "s1a", "--symbolic", "--depth", "6",
                 "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 3 and "refutes" in report["internal"]
