from functools import reduce
from operator import mul

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from gkpfrac import search as S
from gkpfrac.exactalg import (
    MPoly, RatFunc, as_field, as_mpoly, felem_div, felem_eq, felem_is_zero,
    ratfunc, variables, x_coeffs,
)
from gkpfrac.gkpcore import PARAM_NAMES
from gkpfrac.hintbook import VARS, a, ap, b, bp, g, gp, x
from gkpfrac.search import (
    InconsistentNode, RED_FAMILIES, TERMINATING_FAMILIES, get_node,
    node_coefficient, node_cs, run_tree, tree_dot,
)


def test_root_first_coefficient():
    node = get_node("0,0")
    cs, term = node_cs(node, 1)
    assert felem_eq(as_field(cs[0]), (a + g) + (ap + bp + gp) * x)


def test_root_split_three_children():
    node = get_node("0,0")
    rep = node_coefficient(node)
    kinds = sorted(ch[0] for ch in rep.children)
    assert kinds == ["node", "node", "node"]
    labels = sorted(ch[1].name() for ch in rep.children)
    assert labels == ["0,0,0", "0,0,1a", "0,0,1b"]
    assert rep.rem_matches_doc is True
    assert rep.degQ <= 2 and rep.degR <= 1


def test_documented_remainders_level3():
    rep = node_coefficient(get_node("0,0,0"))
    assert felem_eq(as_field(rep.remainder),
                    ratfunc(a * (a * bp - b * ap), ap))
    rep = node_coefficient(get_node("0,0,1a"))
    assert felem_eq(as_field(rep.remainder),
                    ratfunc((a + b) * (a * bp - b * ap), ap + bp))


def _at_x(p, v):
    """p with x := v.  A RatFunc's denominator is free of x, so only its
    numerator is evaluated (``RatFunc.subs`` would divide two int results
    with ``/``)."""
    if isinstance(p, RatFunc):
        return felem_div(_at_x(p.num, v), p.den)
    return p.subs({"x": v}) if isinstance(p, MPoly) else p


def _remainder_by_evaluation(Q, R):
    """Test-only oracle for Q mod R in x, deg_x R <= 1, by the remainder
    theorem: Q(-r0/r1) for R = r0 + r1 x with r1 nonzero, else 0.  It reads
    no x-coefficient and takes no division step."""
    r0 = _at_x(R, 0)
    r1 = _at_x(R, 1) - r0
    if felem_is_zero(r1):
        return 0
    return _at_x(Q, felem_div(-r0, r1))


def test_every_tree_split_remainder_is_q_at_the_root_of_r(monkeypatch):
    reports = []

    def recording(node, k=None):
        rep = node_coefficient(node, k)
        reports.append(rep)
        return rep

    monkeypatch.setattr(S, "node_coefficient", recording)
    assert run_tree()["ok"] and reports
    for rep in reports:
        want = _remainder_by_evaluation(rep.Q, rep.R)
        assert felem_eq(rep.remainder, want), rep.label
    # the oracle is not vacuous: most splits divide by a linear R and leave
    # a nonzero remainder
    assert sum(rep.degR == 1 and not felem_is_zero(rep.remainder)
               for rep in reports) >= len(reports) // 2


_A, _B, _C, _X = variables("a b c x")


@st.composite
def _x_coefficients(draw):
    """A RatFunc in two or three of a, b, c whose denominator is never zero,
    or a zero."""
    params = draw(st.sampled_from([(_A, _B), (_A, _C), (_A, _B, _C)]))

    def poly():
        terms = draw(st.lists(st.tuples(st.integers(-3, 3),
                                        st.lists(st.sampled_from(params),
                                                 max_size=2)),
                              max_size=3))
        return sum((c * reduce(mul, vs, MPoly.one(_A.vars))
                    for c, vs in terms), MPoly.zero(_A.vars))
    num, den = poly(), poly()
    return ratfunc(num, den if den else den + 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_x_coefficients(), min_size=3, max_size=3),
       st.lists(_x_coefficients(), min_size=2, max_size=2))
def test_split_remainder_matches_evaluation_at_the_root(qs, rs):
    Q = sum((q * _X ** k for k, q in enumerate(qs)), MPoly.zero(_X.vars))
    R = rs[0] + rs[1] * _X
    assume(not felem_is_zero(R))
    got = S._x_remainder(x_coeffs(Q), x_coeffs(R))
    assert felem_eq(got, _remainder_by_evaluation(Q, R))


def test_split_remainder_on_the_documented_node_values():
    # the two documented polynomial remainders over the parameter field
    P1 = (a + g) + (ap + bp + gp) * x
    Q = a * (a + g) \
        + (2 * a * ap + ap * b + a * bp + b * bp + ap * g + a * gp + b * gp) * x \
        + (ap + bp) * (ap + bp + gp) * x ** 2
    want = ratfunc((a + g) * ((a + g) * bp - (ap + bp + gp) * b), ap + bp + gp)
    assert felem_eq(S._x_remainder(x_coeffs(Q), x_coeffs(P1)), want)

    Q2 = a * (2 * a + g) + ap * (3 * a + b + g) * x + ap * (ap + bp) * x ** 2
    R2 = a + ap * x
    assert felem_eq(S._x_remainder(x_coeffs(Q2), x_coeffs(R2)),
                    ratfunc(a * (a * bp - b * ap), ap))
    # R free of x divides every Q
    assert S._x_remainder(x_coeffs(Q2), x_coeffs(a * ap)) == 0


def test_split_examples():
    rep = node_coefficient(get_node("0,0,1a"))
    kinds = sorted(ch[0] for ch in rep.children)
    assert kinds == ["node", "node", "red", "red"]
    rep = node_coefficient(get_node("0,0,0,1a,1b"))
    # pass-through node: a single white child
    assert [ch[0] for ch in rep.children] == ["node"]


def test_family_membership_predicates():
    from gkpfrac.families import family_binding, family_params
    for fid in RED_FAMILIES + TERMINATING_FAMILIES:
        assert family_binding(fid, family_params(fid)) is not None, fid
    assert family_binding("F5", (1, 2, 3, 4, 5, 6)) is None


def test_get_node_unknown():
    # only "0" names the root; no other label is replayed to it
    for label in ("0,0,zz", "", ",", "1", "5", "1,0", ("0", "zz")):
        with pytest.raises(InconsistentNode, match="^no documented node "):
            get_node(label)


@pytest.mark.parametrize("level", [0, -1, -3])
def test_a_level_below_one_is_refused(level):
    with pytest.raises(ValueError) as exc:
        node_coefficient(get_node("0,0"), level)
    assert exc.type is ValueError
    assert str(exc.value) == "level must be at least 1, got %d" % level


def test_full_tree(monkeypatch):
    summary = run_tree()
    assert summary["ok"]
    assert summary["counts"]["red"] == 10
    assert summary["counts"]["gray"] == 12
    assert summary["red_families"] == sorted(RED_FAMILIES)
    assert summary["terminating_families"] == sorted(TERMINATING_FAMILIES)
    assert len(summary["remainder_checks"]) == 28
    assert all(summary["remainder_checks"].values())
    # the red leaves sit at their documented labels
    assert summary["red"]["0,0,0,0"] == "F2b"
    assert summary["red"]["0,0,1a,1c"] == "F3a"
    assert summary["red"]["0,0,1b,1c"] == "F6"
    assert summary["red"]["0,0,0,1a,0"] == "F1b"
    assert summary["red"]["0,0,1a,0,1a"] == "F1a"
    assert summary["red"]["0,0,1b,1a,1a"] == "F4a"
    # the six shallow and six deep childless nodes
    deep_gray = [g for g in summary["gray"] if g.count(",") == 6]
    assert len(deep_gray) == 6
    dot = tree_dot(summary)
    assert dot.startswith("digraph") and "fillcolor" in dot
    # without a summary, tree_dot replays the tree itself
    monkeypatch.setattr(S, "run_tree", lambda: summary)
    assert tree_dot() == dot


def _solved_factors(label):
    """(parent, factor) for each solve on the path from the root to
    ``label``, read from the hint book alone: the factor whose action opens
    the next token (a passthrough solves nothing)."""
    out = []
    for depth in range(1, len(label)):
        parent, token = label[:depth], label[depth]
        hint = S.HINT_BOOK[parent]
        if hint.get("passthrough") == token:
            continue
        found = [item["f"] for rec in (hint, hint["deg0"])
                 for item in rec["factors"] for action in item["actions"]
                 if action[0] != "atom" and action[0] != "discard"
                 and action[1] == token]
        assert len(found) == 1, (label, depth)
        out.append((parent, as_mpoly(found[0], VARS)))
    return out


def _leaf_labels():
    return [label + (action[1],) for label, hint in S.HINT_BOOK.items()
            for rec in (hint, hint.get("deg0", {}))
            for item in rec.get("factors", ()) for action in item["actions"]
            if action[0] in ("red", "terminating")]


def test_every_solved_factor_vanishes_at_every_node_below_its_solve():
    # the replay checks a factor only where it is solved; written in the
    # solving node's free parameters, it stays zero at every descendant
    labels = list(S.HINT_BOOK) + _leaf_labels()
    nodes = {label: get_node(label) for label in labels}
    assert len(nodes) == 35 + 16
    solves = 0
    for label, node in nodes.items():
        for parent, factor in _solved_factors(label):
            free = nodes[parent].free
            assert all(factor.degree_in(p) == 0
                       for p in PARAM_NAMES if p not in free)
            assert not factor.is_zero()
            assert felem_is_zero(factor.subs(node.subs)), (label, parent)
            solves += 1
    assert solves == 142
    # atoms are nonzero field elements
    for node in nodes.values():
        assert not any(felem_is_zero(atom) for atom in node.atoms)


def test_degree_collapse_everywhere():
    for label in ("0,0", "0,0,0", "0,0,1a", "0,0,1b", "0,0,0,1a",
                  "0,0,1b,1a", "0,0,0,1b,1b", "0,0,1b,1a,0,0"):
        rep = node_coefficient(get_node(label))
        assert rep.degQ <= 2 and rep.degR <= 1, label


def test_replay_detects_corrupted_remainder():
    from gkpfrac import search as S
    node = get_node("0,0,0")
    hint = dict(S.HINT_BOOK[node.label])
    hint["rem_doc"] = ratfunc(a * (a * bp + b * ap), ap)
    rep_ok = node_coefficient(node)
    assert rep_ok.rem_matches_doc is True
    # a wrong documented remainder is reported, not silently accepted
    saved = S.HINT_BOOK[node.label]
    S.HINT_BOOK[node.label] = hint
    try:
        rep = node_coefficient(node)
        assert rep.rem_matches_doc is False
    finally:
        S.HINT_BOOK[node.label] = saved


def test_replay_detects_bad_factor_hint():
    from gkpfrac import search as S
    node = get_node("0,0,0")
    hint = dict(S.HINT_BOOK[node.label])
    bad = [dict(f) for f in hint["factors"]]
    bad[0] = dict(bad[0])
    bad[0]["f"] = b  # not a factor of the remainder
    hint["factors"] = bad
    saved = S.HINT_BOOK[node.label]
    S.HINT_BOOK[node.label] = hint
    try:
        with pytest.raises(S.BadFactorHint):
            node_coefficient(node)
    finally:
        S.HINT_BOOK[node.label] = saved


def test_replay_detects_wrong_child_substitution():
    from gkpfrac import search as S
    node = get_node("0,0,0")
    hint = dict(S.HINT_BOOK[node.label])
    bad = [dict(f) for f in hint["factors"]]
    bad[1] = dict(bad[1])
    # solve the factor with the wrong value: the child system then fails
    bad[1]["actions"] = [("child", "1b", [("beta", a * bp / ap + 1)])]
    hint["factors"] = bad
    saved = S.HINT_BOOK[node.label]
    S.HINT_BOOK[node.label] = hint
    try:
        with pytest.raises(S.InconsistentNode):
            node_coefficient(node)
    finally:
        S.HINT_BOOK[node.label] = saved


def test_terminating_branch_keeps_its_constant_atoms(monkeypatch):
    # an extra constant atom that the degree-0 solve (betap = -2 alphap)
    # sets to zero must be caught on the terminating branch, also when it
    # is given with the solve already applied
    from gkpfrac import search as S
    label = ("0", "0", "0", "1a", "1a")
    atom = (bp + 2 * ap).subs({"betap": -2 * ap})
    deg0 = _with_deg0_atom(monkeypatch, label, atom)
    assert _deg0_kind(deg0) == "terminating"
    with pytest.raises(InconsistentNode,
                       match="^0,0,0,1a,1a,0: inequation violated by substitution$"):
        run_tree()


def _deg0_kind(deg0):
    """The kind of the branch that a deg-0 record opens."""
    return next(action[0] for factor in deg0["factors"]
                for action in factor["actions"] if action[0] != "atom")


def _with_deg0_atom(monkeypatch, label, atom):
    hint = dict(S.HINT_BOOK[label])
    deg0 = dict(hint["deg0"])
    deg0["const_atoms"] = list(deg0["const_atoms"]) + [atom]
    hint["deg0"] = deg0
    monkeypatch.setitem(S.HINT_BOOK, label, hint)
    return deg0


def test_atoms_are_checked_under_the_solved_parameters(monkeypatch):
    # written in the base parameters, the atom is nonzero; the branch's
    # solve (betap = -2 alphap) sets it to zero
    deg0 = _with_deg0_atom(monkeypatch, ("0", "0", "0", "1a", "1a"),
                           bp + 2 * ap)
    assert _deg0_kind(deg0) == "terminating"
    with pytest.raises(InconsistentNode,
                       match="^0,0,0,1a,1a,0: inequation violated by substitution$"):
        node_coefficient(get_node("0,0,0,1a,1a"))


@pytest.mark.parametrize("label, kind, atom", [
    # red record (F2b), solve alphap = 0
    ("0,0,0", "red", ap),
    # child record, solve gammap = -alphap - betap
    ("0,0", "child", ap + bp + gp),
])
def test_constant_atoms_of_every_degree0_kind_are_checked(monkeypatch, label,
                                                          kind, atom):
    node = get_node(label)
    deg0 = _with_deg0_atom(monkeypatch, node.label, atom)
    assert kind == _deg0_kind(deg0)
    with pytest.raises(InconsistentNode,
                       match="^%s,0: inequation violated by substitution$" % label):
        node_coefficient(node)


def test_child_action_without_a_hint(monkeypatch):
    from gkpfrac import search as S
    node = get_node("0,0,0")
    hint = dict(S.HINT_BOOK[node.label])
    bad = [dict(f) for f in hint["factors"]]
    bad[0]["actions"] = [("child", "9z", [("alpha", 0)])]
    hint["factors"] = bad
    monkeypatch.setitem(S.HINT_BOOK, node.label, hint)
    with pytest.raises(S.BadFactorHint, match="no hint for child 0,0,0,9z"):
        node_coefficient(node)


# -- every documented assertion of a node can fail ---------------------------

def _coefficient(label):
    return lambda: node_coefficient(get_node(label))


def _c_zero(label):
    return lambda: S._verify_c_zero(get_node(label),
                                    S.HINT_BOOK[tuple(label.split(","))])


def _actions(i, *actions):
    def edit(hint):
        factors = [dict(f) for f in hint["factors"]]
        factors[i]["actions"] = list(actions)
        hint["factors"] = factors
    return edit


def _resolve(i, solve):
    """Factor i's one branch action, with ``solve`` in place of its own."""
    def edit(hint):
        factors = [dict(f) for f in hint["factors"]]
        (kind, token, _, *leaf), = factors[i]["actions"]
        factors[i]["actions"] = [(kind, token, solve, *leaf)]
        hint["factors"] = factors
    return edit


def _split_the_root(hint):
    # the root's coefficient is a polynomial: its remainder is zero
    del hint["passthrough"]
    hint.update(rfactor=1, factors=[{"f": a, "actions": [("atom",)]}])


def _c_zero_edit(action):
    return lambda hint: hint.update(c_zero=action)


def _deg0_edit(**kw):
    return lambda hint: hint.update(deg0=dict(hint["deg0"], **kw))


def _deg0_factor(i, **kw):
    def edit(hint):
        factors = [dict(f) for f in hint["deg0"]["factors"]]
        factors[i].update(kw)
        hint["deg0"] = dict(hint["deg0"], factors=factors)
    return edit


_ASSERTION_FAULTS = [
    ("0,0,0", lambda h: h.update(Q_doc=a), _coefficient("0,0,0"),
     "0,0,0: documented Q mismatch"),
    ("0,0,0", lambda h: h.update(R_doc=ap * x),
     _coefficient("0,0,0"), "0,0,0: documented R mismatch"),
    ("0,0,0", lambda h: h.update(rfactor=x), _coefficient("0,0,0"),
     "0,0,0: degree collapse fails (degQ=3, degR=2)"),
    ("0,0,0", lambda h: h.update(rfactor=ratfunc(1, x)),
     _coefficient("0,0,0"), "0,0,0: R is not the declared multiple of c_2"),
    ("0,0,0", lambda h: h.update(own_c=a), _coefficient("0,0,0"),
     "0,0,0: documented c_2 mismatch"),
    ("0,0,0", lambda h: h.update(passthrough="0"),
     _coefficient("0,0,0"), "0,0,0: expected a polynomial coefficient"),
    ("0,0,0", _deg0_factor(0, f=a), _coefficient("0,0,0"),
     "0,0,0: deg-0 leading-coefficient factorization mismatch"),
    # an atom factor replaced by a polynomial that does not divide the lead:
    # beside a branch, and where the degree-0 branch is impossible (alpha is
    # itself an atom of 0,0,1a,0,0, so only the factorization catches it)
    ("0,0,1b", _deg0_factor(1, f=b), _coefficient("0,0,1b"),
     "0,0,1b: deg-0 leading-coefficient factorization mismatch"),
    ("0,0,1a,0,0", _deg0_factor(0, f=a), _coefficient("0,0,1a,0,0"),
     "0,0,1a,0,0: deg-0 leading-coefficient factorization mismatch"),
    # the lead is (alphap + betap)^2
    ("0,0,1b,1a,0,0", _deg0_factor(0, mult=1), _coefficient("0,0,1b,1a,0,0"),
     "0,0,1b,1a,0,0: deg-0 leading-coefficient factorization mismatch"),
    # the degree-0 branch declared impossible where it is not
    ("0,0,0", _deg0_edit(factors=[{"f": ap, "actions": [("atom",)]}]),
     _coefficient("0,0,0"),
     "0,0,0: deg-0 leading-coefficient factor not excluded by the inequations"),
    ("0,0,0", _actions(0, ("atom",)), _coefficient("0,0,0"),
     "0,0,0: remainder factor not excluded by the inequations"),
    ("0,0,0,1b", _actions(0, ("discard", [("betap", 0)], "F1a")),
     _coefficient("0,0,0,1b"),
     "0,0,0,1b: discarded branch is not inside F1a (remainder)"),
    ("0,0,0", _actions(0, ("bogus",)), _coefficient("0,0,0"),
     "unknown hint kind 'bogus'"),
    ("0", _split_the_root, _coefficient("0"),
     "0: remainder factorization mismatch"),
    # a solve that does not kill its factor, on each kind that solves: a
    # child, a red leaf (a + b), a remainder terminating leaf (2 a + b) and,
    # below, a c=0 discard and a c=0 terminating leaf
    ("0,0", _resolve(0, [("gamma", 1 - a)]), _coefficient("0,0"),
     "0,0: documented vanishing submanifold does not kill the remainder factor"),
    ("0,0,1a", _resolve(0, [("beta", 0)]), _coefficient("0,0,1a"),
     "0,0,1a: documented vanishing submanifold does not kill the remainder "
     "factor"),
    ("0,0,1a,0,0", _resolve(1, [("beta", -a)]),
     _coefficient("0,0,1a,0,0"),
     "0,0,1a,0,0: documented vanishing submanifold does not kill the "
     "remainder factor"),
    # the parent's edits reach the child through get_node's replay
    ("0,0", _deg0_factor(0, actions=[
        ("child", "0", [("alpha", 0), ("alphap", 0), ("gammap", -bp)])]),
     _coefficient("0,0,0"), "0,0,0: series terminated at level 2"),
    ("0,0,0", _c_zero_edit(("discard", [("alpha", 0)], "F2b")),
     _c_zero("0,0,0"),
     "0,0,0: documented vanishing submanifold does not kill the c=0 factor"),
    ("0,0,0", _c_zero_edit(("discard", [("alpha", 0), ("alphap", 0)], "F2a")),
     _c_zero("0,0,0"), "0,0,0: discarded branch is not inside F2a (c=0)"),
    ("0,0,0,1a,1b",
     _c_zero_edit(("terminating", "c=0", [("beta", -g)], ("s1a", []))),
     _c_zero("0,0,0,1a,1b"),
     "0,0,0,1a,1b: documented vanishing submanifold does not kill the c=0 "
     "factor"),
    ("0,0,0", lambda h: h.update(c_zero=None), _c_zero("0,0,0"),
     "0,0,0: coefficient could vanish but no action documented"),
    # run_tree raises at its second node, 0,0
    ("0,0", lambda h: h.update(rem_doc=a), run_tree,
     "0,0: documented remainder mismatch"),
]


@pytest.mark.parametrize("label, edit, drive, message", _ASSERTION_FAULTS,
                         ids=[fault[-1] for fault in _ASSERTION_FAULTS])
def test_each_documented_assertion_can_fail(monkeypatch, label, edit, drive,
                                            message):
    key = tuple(label.split(","))
    hint = dict(S.HINT_BOOK[key])
    edit(hint)
    monkeypatch.setitem(S.HINT_BOOK, key, hint)
    with pytest.raises((InconsistentNode, S.BadFactorHint)) as exc:
        drive()
    assert str(exc.value) == message


def test_red_leaf_outside_its_family(monkeypatch):
    # the leaf 0,0,0,0 (F2b: alpha' = 0, gamma' = -beta') claimed for F2a
    hint = dict(S.HINT_BOOK[("0", "0", "0")])
    factor = dict(hint["deg0"]["factors"][0])
    (kind, token, solve, (fid, atoms)), = factor["actions"]
    assert (kind, token, fid) == ("red", "0", "F2b")
    factor["actions"] = [(kind, token, solve, ("F2a", atoms))]
    hint["deg0"] = dict(hint["deg0"], factors=[factor])
    monkeypatch.setitem(S.HINT_BOOK, ("0", "0", "0"), hint)
    with pytest.raises(InconsistentNode,
                       match="^0,0,0,0: parameters not inside family F2a$"):
        node_coefficient(get_node("0,0,0"))


def test_a_node_without_a_record(monkeypatch):
    monkeypatch.delitem(S.HINT_BOOK, ("0",))
    with pytest.raises(InconsistentNode,
                       match="^node 0 is not in the documented tree$"):
        node_coefficient(S.root_node())


# -- every documented entry is read -------------------------------------------

class _Tracked(dict):
    """A hint record that notes each key the engine looks up."""

    def __init__(self, items, path, read):
        super().__init__(items)
        self.path, self.read = path, read

    def __getitem__(self, key):
        self.read.add(self.path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            self.read.add(self.path + (key,))
        return super().get(key, default)


class _TrackedItems:
    """A hint list or tuple that notes each element the engine reads, by
    index, slice or iteration (unpacking and ``tuple()`` included)."""

    def __getitem__(self, i):
        span = range(len(self))
        for j in (span[i] if isinstance(i, slice) else [span[i]]):
            self.read.add(self.path + (j,))
        return super().__getitem__(i)

    def __iter__(self):
        for i, v in enumerate(super().__iter__()):
            self.read.add(self.path + (i,))
            yield v


class _TrackedList(_TrackedItems, list):
    def __init__(self, items, path, read):
        super().__init__(items)
        self.path, self.read = path, read


class _TrackedTuple(_TrackedItems, tuple):
    def __new__(cls, items, path, read):
        self = super().__new__(cls, items)
        self.path, self.read = path, read
        return self


def _track(value, path, entries, read):
    """``value`` with every record key and every list or tuple element
    (each solve, solve value, atom, const_atom, factor and action field)
    registered in ``entries`` and noted in ``read`` when the engine reads
    it."""
    if isinstance(value, dict):
        entries.update(path + (key,) for key in value)
        return _Tracked({k: _track(v, path + (k,), entries, read)
                         for k, v in value.items()}, path, read)
    if isinstance(value, (list, tuple)):
        entries.update(path + (i,) for i in range(len(value)))
        tracked = _TrackedList if isinstance(value, list) else _TrackedTuple
        return tracked([_track(v, path + (i,), entries, read)
                        for i, v in enumerate(value)], path, read)
    return value


def _action_kinds(record):
    actions = [record["c_zero"]] if record.get("c_zero") else []
    for rec in (record, record.get("deg0", {})):
        actions += [a for f in rec.get("factors", ()) for a in f["actions"]]
    return {a[0] for a in actions}


def test_every_hint_entry_and_action_kind_is_read(monkeypatch):
    entries, read, taken = set(), set(), set()
    book = {label: _track(record, label, entries, read)
            for label, record in S.HINT_BOOK.items()}
    take = S._take

    def noting_take(node, record, action, *args):
        taken.add(action[0])
        return take(node, record, action, *args)

    monkeypatch.setattr(S, "HINT_BOOK", book)
    monkeypatch.setattr(S, "_take", noting_take)
    assert run_tree()["ok"]
    assert sorted(entries - read) == []
    kinds = set().union(*map(_action_kinds, book.values()))
    assert kinds == taken


def test_split_node_defaults_to_the_documented_split():
    node = get_node("0,0")
    names = [[c if isinstance(c, str) else c.name() for c in child]
             for child in S.split_node(node)]
    assert names == [[c if isinstance(c, str) else c.name() for c in child]
                      for child in node_coefficient(node).children]
    assert len(names) == 3


def test_x_remainder_drops_a_cancelled_term():
    # Q = x^2 + x + 3 = (x + 1) x + 3
    assert S._x_remainder({2: 1, 1: 1, 0: 3}, {1: 1, 0: 1}) == 3
    assert S._x_remainder({2: 1, 1: 1}, {1: 1, 0: 1}) == 0


def test_zero_is_not_certified_nonzero():
    a, = variables("a")
    assert S._nonzero_certified(MPoly.zero(a.vars), [a]) is False
    assert S._nonzero_certified(a * a, [a]) is True


# -- the documented factors against sympy as an independent oracle ---------

def test_every_documented_factor_is_irreducible_over_q():
    gens = sympy.symbols(VARS)
    factors = [(label, record, item["f"])
               for label, hint in S.HINT_BOOK.items()
               for record, rec in (("remainder", hint),
                                   ("deg-0", hint.get("deg0", {})))
               for item in rec.get("factors", ())]
    assert len(factors) == 105
    for label, record, f in factors:
        expr = sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in f.terms.items()}, gens, domain="QQ")
        _, parts = sympy.factor_list(expr)
        assert [(p.total_degree() > 0, m) for p, m in parts] == [(True, 1)], \
            (",".join(label), record, str(f))


def test_every_reported_label_is_rebuilt():
    # the c=0 terminating leaves come from their parent's own coefficient
    # vanishing, not from its split
    summary = S.run_tree()
    labels = [*summary["red"], *summary["terminating"], *summary["white"],
              *summary["gray"]]
    assert sum(lab.endswith(",c=0") for lab in labels) == 7
    for lab in labels:
        assert get_node(lab).name() == lab
    with pytest.raises(InconsistentNode):
        get_node("0,0,0,c=0")
