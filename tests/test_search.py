from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkpfrac import search as S
from gkpfrac.exactalg import (
    MPoly, RatFunc, as_field, felem_div, felem_eq, felem_is_zero, ratfunc,
    variables, x_coeffs,
)
from gkpfrac.search import (
    InconsistentNode, RED_FAMILIES, TERMINATING_FAMILIES, V, family_member,
    get_node, node_coefficient, node_cs, run_tree, tree_dot,
)


def test_root_first_coefficient():
    node = get_node("0,0")
    cs, term = node_cs(node, 1)
    v = V
    assert felem_eq(as_field(cs[0]), (v.a + v.g) + (v.ap + v.bp + v.gp) * v.x)


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
    v = V
    rep = node_coefficient(get_node("0,0,0"))
    assert felem_eq(as_field(rep.remainder),
                    ratfunc(v.a * (v.a * v.bp - v.b * v.ap), v.ap))
    rep = node_coefficient(get_node("0,0,1a"))
    assert felem_eq(as_field(rep.remainder),
                    ratfunc((v.a + v.b) * (v.a * v.bp - v.b * v.ap),
                            v.ap + v.bp))


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
    a, b, g, ap, bp, gp, x = variables("alpha beta gamma alphap betap gammap x")
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
    from gkpfrac.families import family_params
    for fid in RED_FAMILIES:
        assert family_member(fid, family_params(fid)), fid
    assert not family_member("F5", (1, 2, 3, 4, 5, 6))


def test_get_node_unknown():
    with pytest.raises(InconsistentNode):
        get_node("0,0,zz")


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


def test_ancestor_consistency_and_inequations():
    node = get_node("0,0,1b,1a")
    mu = [node.subs[p] for p in
          ("alpha", "beta", "gamma", "alphap", "betap", "gammap")]
    # all solved factor equations vanish under the composed substitution
    for eq in node.equations:
        val = eq.subs({p: node.subs[p] for p in
                       ("alpha", "beta", "gamma", "alphap", "betap", "gammap")})
        assert felem_eq(as_field(val), 0)
    # atoms are nonzero field elements
    for atom in node.atoms:
        assert not felem_eq(as_field(atom), 0)


def test_degree_collapse_everywhere():
    for label in ("0,0", "0,0,0", "0,0,1a", "0,0,1b", "0,0,0,1a",
                  "0,0,1b,1a", "0,0,0,1b,1b", "0,0,1b,1a,0,0"):
        rep = node_coefficient(get_node(label))
        assert rep.degQ <= 2 and rep.degR <= 1, label


def test_replay_detects_corrupted_remainder():
    from gkpfrac import search as S
    node = get_node("0,0,0")
    hint = dict(S.HINT_BOOK[node.label])
    hint["rem_doc"] = lambda v: ratfunc(v.a * (v.a * v.bp + v.b * v.ap), v.ap)
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
    bad[0]["f"] = lambda v: v.b           # not a factor of the remainder
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
    bad[1]["actions"] = [("child", "1b",
                          [("beta", lambda v: v.a * v.bp / v.ap + 1)])]
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
    deg0 = _with_deg0_atom(monkeypatch, label, lambda v: (v.bp + 2 * v.ap)
                           .subs({"betap": -2 * v.ap}))
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
                           lambda v: v.bp + 2 * v.ap)
    assert _deg0_kind(deg0) == "terminating"
    with pytest.raises(InconsistentNode,
                       match="^0,0,0,1a,1a,0: inequation violated by substitution$"):
        node_coefficient(get_node("0,0,0,1a,1a"))


@pytest.mark.parametrize("label, kind, atom", [
    # red record (F2b), solve alphap = 0
    ("0,0,0", "red", lambda v: v.ap),
    # child record, solve gammap = -alphap - betap
    ("0,0", "child", lambda v: v.ap + v.bp + v.gp),
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
    bad[0]["actions"] = [("child", "9z", [("alpha", lambda v: 0)])]
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


def _split_the_root(hint):
    # the root's coefficient is a polynomial: its remainder is zero
    del hint["passthrough"]
    hint.update(rfactor=lambda v: 1,
                factors=[{"f": lambda v: v.a, "actions": [("atom",)]}])


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
    ("0,0,0", lambda h: h.update(Q_doc=lambda v: v.a), _coefficient("0,0,0"),
     "0,0,0: documented Q mismatch"),
    ("0,0,0", lambda h: h.update(R_doc=lambda v: v.ap * v.x),
     _coefficient("0,0,0"), "0,0,0: documented R mismatch"),
    ("0,0,0", lambda h: h.update(rfactor=lambda v: v.x), _coefficient("0,0,0"),
     "0,0,0: degree collapse fails (degQ=3, degR=2)"),
    ("0,0,0", lambda h: h.update(rfactor=lambda v: ratfunc(1, v.x)),
     _coefficient("0,0,0"), "0,0,0: R is not the declared multiple of c_2"),
    ("0,0,0", lambda h: h.update(own_c=lambda v: v.a), _coefficient("0,0,0"),
     "0,0,0: documented c_2 mismatch"),
    ("0,0,0", lambda h: h.update(passthrough="0"),
     _coefficient("0,0,0"), "0,0,0: expected a polynomial coefficient"),
    ("0,0,0", _deg0_factor(0, f=lambda v: v.a), _coefficient("0,0,0"),
     "0,0,0: deg-0 leading-coefficient factorization mismatch"),
    # an atom factor replaced by a polynomial that does not divide the lead:
    # beside a branch, and where the degree-0 branch is impossible (alpha is
    # itself an atom of 0,0,1a,0,0, so only the factorization catches it)
    ("0,0,1b", _deg0_factor(1, f=lambda v: v.b), _coefficient("0,0,1b"),
     "0,0,1b: deg-0 leading-coefficient factorization mismatch"),
    ("0,0,1a,0,0", _deg0_factor(0, f=lambda v: v.a),
     _coefficient("0,0,1a,0,0"),
     "0,0,1a,0,0: deg-0 leading-coefficient factorization mismatch"),
    # the lead is (alphap + betap)^2
    ("0,0,1b,1a,0,0", _deg0_factor(0, mult=1), _coefficient("0,0,1b,1a,0,0"),
     "0,0,1b,1a,0,0: deg-0 leading-coefficient factorization mismatch"),
    # the degree-0 branch declared impossible where it is not
    ("0,0,0", _deg0_edit(factors=[{"f": lambda v: v.ap,
                                   "actions": [("atom",)]}]),
     _coefficient("0,0,0"),
     "0,0,0: deg-0 leading-coefficient factor not excluded by the inequations"),
    ("0,0,0", _actions(0, ("atom",)), _coefficient("0,0,0"),
     "0,0,0: remainder factor not excluded by the inequations"),
    ("0,0,0,1b", _actions(0, ("discard", [("betap", lambda v: 0)], "F1a")),
     _coefficient("0,0,0,1b"),
     "0,0,0,1b: discarded branch is not inside F1a (remainder)"),
    ("0,0,0", _actions(0, ("bogus",)), _coefficient("0,0,0"),
     "unknown hint kind 'bogus'"),
    ("0", _split_the_root, _coefficient("0"),
     "0: remainder factorization mismatch"),
    # the parent's edits reach the child through get_node's replay
    ("0,0", _actions(0, ("child", "1a", [("gamma", lambda v: 1 - v.a)])),
     _coefficient("0,0,1a"), "0,0,1a: ancestor equation fails to vanish"),
    ("0,0", _deg0_factor(0, actions=[("child", "0", [
        ("alpha", lambda v: 0), ("alphap", lambda v: 0),
        ("gammap", lambda v: -v.bp)])]),
     _coefficient("0,0,0"), "0,0,0: series terminated at level 2"),
    ("0,0,0", _c_zero_edit(("discard", [("alpha", lambda v: 0)], "F2b")),
     _c_zero("0,0,0"),
     "0,0,0: documented vanishing submanifold does not kill the c=0 factor"),
    ("0,0,0", _c_zero_edit(("discard", [("alpha", lambda v: 0),
                                        ("alphap", lambda v: 0)], "F2a")),
     _c_zero("0,0,0"), "0,0,0: discarded branch is not inside F2a (c=0)"),
    # the c=0 leaf carries the coefficient as its equation
    ("0,0,0,1a,1b", _c_zero_edit((
        "terminating", "c=0", [("beta", lambda v: -v.g)],
        ("s1a", lambda v: {"gamma": v.g, "alphap": v.ap}, lambda v: []))),
     _c_zero("0,0,0,1a,1b"),
     "0,0,0,1a,1b,c=0: ancestor equation fails to vanish"),
    ("0,0,0", lambda h: h.update(c_zero=None), _c_zero("0,0,0"),
     "0,0,0: coefficient could vanish but no action documented"),
    # run_tree raises at its second node, 0,0
    ("0,0", lambda h: h.update(rem_doc=lambda v: v.a), run_tree,
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
    # the leaf check before it pins the child's series, which fixes mu, so
    # no hint edit was found that keeps the prediction and leaves the
    # family; the family's relations are edited instead
    relations = S.FAMILY_RELATIONS["F2b"]
    monkeypatch.setitem(S.FAMILY_RELATIONS, "F2b",
                        lambda m: relations(m) + [m[0]])
    with pytest.raises(InconsistentNode,
                       match="^0,0,0,0: parameters not inside family F2b$"):
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


def _track(value, path, entries, read):
    """``value`` with every record key and every builder registered in
    ``entries`` and noted in ``read`` when the engine looks it up or calls
    it."""
    if isinstance(value, dict):
        entries.update(path + (key,) for key in value)
        return _Tracked({k: _track(v, path + (k,), entries, read)
                         for k, v in value.items()}, path, read)
    if isinstance(value, (list, tuple)):
        return type(value)(_track(v, path + (i,), entries, read)
                           for i, v in enumerate(value))
    if callable(value):
        entries.add(path)

        def builder(v):
            read.add(path)
            return value(v)
        return builder
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
