"""Replay of the computer-assisted classification of parameter submanifolds
whose generating function has an S-fraction with polynomial-in-x
coefficients.

The tree is driven by the hint book (one record per documented node): the
engine recomputes all fraction coefficients from scratch, then verifies
every documented assertion exactly -- the substitutions, the inequations,
the remainder and its factorization, the degree collapse of the numerator
and denominator polynomials, the family membership of every classified
branch -- and raises instead of silently accepting a violation.

Each node's own split coefficient is extracted from its series.  A leaf's
claimed S-fraction (the ten red families, the thirteen terminating ones) is
decided on the series instead: the ogf agrees with the predicted fraction
through the checked order exactly when extraction would return the
prediction, so ``cfrac.cfrac_refutation`` extracts only a refuted leaf, to
name its failing coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from typing import Optional

from .exactalg import (
    MPoly, RatFunc, as_field, as_mpoly, clear_denominators, divide_exact,
    felem_div, felem_eq, felem_is_zero, first_mismatch, num_den,
    remainder_in_x, variables, x_coeffs,
)
from .gkpcore import GKPParams, gkp_triangle, ogf_trunc
from .cfrac import cfrac_refutation, extract_sfrac
from . import families
from .hintbook import make_hint_book


class InconsistentNode(ValueError):
    pass


class BadFactorHint(ValueError):
    pass


BASE = ("alpha", "beta", "gamma", "alphap", "betap", "gammap")
RED_DEPTH = 10


class _Ns:
    """Generator namespace with short Greek-style attribute names."""

    def __init__(self):
        gens = variables(BASE, extra=("x",))
        (self.a, self.b, self.g, self.ap, self.bp, self.gp) = gens
        self.x = MPoly.variable("x", gens[0].vars)


V = _Ns()
HINT_BOOK = make_hint_book(V)

# family membership: defining polynomial relations on the six-tuple
FAMILY_RELATIONS = {
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

RED_FAMILIES = families.SFRAC_FAMILY_IDS
TERMINATING_FAMILIES = tuple(fid for fid in families.family_ids()
                             if families.get_family(fid).status == "terminating")


def family_member(family_id: str, mu) -> bool:
    m = [as_field(v) for v in tuple(mu)]
    return all(felem_is_zero(as_field(r)) for r in FAMILY_RELATIONS[family_id](m))


@dataclass(frozen=True)
class SearchNode:
    label: tuple
    subs: dict                     # base parameter -> value in the survivors
    free: tuple                    # surviving parameter names
    atoms: tuple                   # known-nonzero side conditions
    disjunctions: tuple = ()       # documented "A != 0 or B != 0" records
    equations: tuple = ()          # factor expressions solved along the path

    @property
    def depth(self) -> int:
        return len(self.label) - 1

    def mu(self) -> GKPParams:
        return GKPParams(*[self.subs[p] for p in BASE])

    def name(self) -> str:
        return ",".join(self.label)


@dataclass
class NodeReport:
    label: tuple
    level: int
    c: object
    Q: object
    R: object
    quotient: object
    remainder: object
    rem_matches_doc: Optional[bool]
    degQ: int
    degR: int
    children: list


# ---------------------------------------------------------------------------
# node construction
# ---------------------------------------------------------------------------

def _subst_field(value, mapping):
    value = as_field(value)
    if isinstance(value, (int, Fraction)) or not mapping:
        return value
    return value.subs(mapping)


def root_node() -> SearchNode:
    subs = {p: MPoly.variable(p, V.a.vars) for p in BASE}
    return SearchNode(label=("0",), subs=subs, free=BASE, atoms=())


def _solve_mapping(solve):
    mapping = {}
    for var, value_fn in solve:
        mapping[var] = _subst_field(value_fn(V), mapping)
    return mapping


def _child_node(node: SearchNode, token: str, solve, atoms_fn, disj=(),
                factor_exprs=(), const_atoms=()) -> SearchNode:
    mapping = _solve_mapping(solve)
    subs = {p: _subst_field(node.subs[p], mapping) for p in BASE}
    free = tuple(p for p in node.free if p not in mapping)
    child = SearchNode(
        label=node.label + (token,),
        subs=subs,
        free=free,
        atoms=tuple(atoms_fn(V)) if atoms_fn else node.atoms,
        disjunctions=tuple(disj),
        equations=node.equations + tuple(f for f in factor_exprs
                                         if f is not None),
    )
    _check_consistency(child, const_atoms)
    return child


def _check_consistency(node: SearchNode, extra_atoms=()):
    """Every ancestor equation vanishes and every inequation (the node's
    atoms and ``extra_atoms``) stays nonzero under the node's solved
    parameters (a free parameter stands for itself)."""
    mapping = {p: node.subs[p] for p in BASE if p not in node.free}
    for eq in node.equations:
        if not felem_is_zero(as_field(_subst_field(eq, mapping))):
            raise InconsistentNode(
                "%s: ancestor equation fails to vanish" % node.name())
    for atom in node.atoms + tuple(extra_atoms):
        if felem_is_zero(as_field(_subst_field(atom, mapping))):
            raise InconsistentNode(
                "%s: inequation violated by substitution" % node.name())


# ---------------------------------------------------------------------------
# coefficient computation
# ---------------------------------------------------------------------------

def _cleared_ogf(node: SearchNode, order: int):
    """(ogf, D): the series to t^order of the triangle on the cleared
    parameters D*mu, which are polynomials.  Every S-fraction coefficient
    is homogeneous of degree one in mu, so those of D*mu are D*c_i."""
    nums, D = clear_denominators([node.subs[p] for p in BASE], V.a.vars)
    t = gkp_triangle(GKPParams(*(as_mpoly(v, V.a.vars) for v in nums)), order)
    return ogf_trunc(t), D


def node_cs(node: SearchNode, depth: int):
    """c_1..c_depth of the node's series, exactly, as field elements,
    extracted on the cleared parameters with D divided out again."""
    ogf, D = _cleared_ogf(node, depth)
    cf = extract_sfrac(ogf, depth)
    cs = list(cf.c) if D == 1 else [felem_div(ci, D) for ci in cf.c]
    return cs, cf.terminated_at


def _deg_x(p) -> int:
    """The x-degree of p's numerator."""
    p = num_den(p)[0]
    if isinstance(p, (int, Fraction)) or "x" not in p.vars:
        return 0
    return p.degree_in("x")


def _x_free(p) -> bool:
    return _deg_x(p) == 0


def _nonzero_certified(expr, atoms) -> bool:
    """expr is a nonzero rational constant times a product of atoms."""
    expr = as_field(expr)
    if isinstance(expr, (int, Fraction)):
        return expr != 0
    num, den = (as_mpoly(p) for p in num_den(expr))
    if num.is_zero():
        return False

    def strip(p):
        changed = True
        while changed and not p.is_constant():
            changed = False
            for a in atoms:
                q = divide_exact(p, a)
                if q is not None:
                    p = q
                    changed = True
                    break
        return p

    return strip(num).is_constant() and strip(den).is_constant()


def _ratio_constant(a, b) -> bool:
    a, b = as_field(a), as_field(b)
    if felem_is_zero(a) or felem_is_zero(b):
        return False
    r = felem_div(a, b)
    if isinstance(r, MPoly):
        return r.is_constant()
    return not isinstance(r, RatFunc)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def node_coefficient(node: SearchNode, k: Optional[int] = None) -> NodeReport:
    """Split data at the node: the next coefficient c_k written as Q/R with
    R the declared multiple of c_{k-1}, the polynomial remainder, the degree
    collapse, and the verified children."""
    hint = HINT_BOOK.get(node.label)
    if hint is None:
        raise InconsistentNode("node %s is not in the documented tree"
                               % node.name())
    if k is None:
        k = node.depth + 1
    cs, terminated = node_cs(node, k)
    if len(cs) < k:
        raise InconsistentNode("%s: series terminated at level %s"
                               % (node.name(), terminated))
    c_prev = cs[k - 2] if k >= 2 else 1
    c_k = cs[k - 1]

    own = hint.get("own_c")
    if own is not None and k >= 2:
        if not felem_eq(as_field(c_prev), as_field(own(V))):
            raise InconsistentNode("%s: documented c_%d mismatch"
                                   % (node.name(), k - 1))
    if k != node.depth + 1:
        return NodeReport(node.label, k, c_k, None, None, None, None, None,
                          _deg_x(c_k), 0, [])

    if "passthrough" in hint:
        if not _x_free(num_den(c_k)[1]):
            raise InconsistentNode("%s: expected a polynomial coefficient"
                                   % node.name())
        token, extra_atoms, disj = hint["passthrough"]
        child_hint = HINT_BOOK.get(node.label + (token,), {})
        atoms_fn = child_hint.get("atoms") or (
            lambda v: list(node.atoms) + extra_atoms(v))
        child = _child_node(node, token, [], atoms_fn,
                            disj=tuple(child_hint.get("disj", disj)))
        return NodeReport(node.label, k, c_k, as_field(c_k), 1,
                          as_field(c_k), 0, None, _deg_x(c_k), 0,
                          [("node", child)])

    g = hint["rfactor"](V)
    R = g * as_field(c_prev) if k >= 2 else as_field(g)
    Q = as_field(c_k) * R
    if not _x_free(num_den(Q)[1]) or not _x_free(num_den(R)[1]):
        raise InconsistentNode("%s: R is not the declared multiple of c_%d"
                               % (node.name(), k - 1))
    quot, rem = remainder_in_x(Q, R, "x")
    if not felem_eq(as_field(quot * R + rem), as_field(Q)):
        raise InconsistentNode("%s: division reconstruction failed"
                               % node.name())
    rem = x_coeffs(rem).get(0, 0)
    degQ, degR = _deg_x(Q), _deg_x(R)
    if degQ > 2 or degR > 1:
        raise InconsistentNode("%s: degree collapse fails (degQ=%d, degR=%d)"
                               % (node.name(), degQ, degR))
    rem_ok = None
    if hint.get("rem_doc") is not None:
        rem_ok = felem_eq(as_field(rem), as_field(hint["rem_doc"](V)))
    if hint.get("Q_doc") is not None:
        if not felem_eq(as_field(Q), as_field(hint["Q_doc"](V))):
            raise InconsistentNode("%s: documented Q mismatch" % node.name())
    if hint.get("R_doc") is not None:
        if not felem_eq(as_field(R), as_field(hint["R_doc"](V))):
            raise InconsistentNode("%s: documented R mismatch" % node.name())

    children = split_node(node, hint, rem, R)
    return NodeReport(node.label, k, c_k, Q, R, quot, rem, rem_ok,
                      degQ, degR, children)


def split_node(node: SearchNode, factor_hints=None, rem=None, R=None) -> list:
    """Construct and verify the node's children from the documented factor
    hints.  A factor marked "atom" is certified to contradict an inequation
    (pruned branch); "discard" branches are certified to lie inside the
    named earlier family."""
    hint = factor_hints if factor_hints is not None else HINT_BOOK[node.label]
    if rem is None:
        return node_coefficient(node).children
    children = []

    # the factor product must reproduce the remainder numerator exactly
    num_poly = as_mpoly(num_den(rem)[0], V.a.vars)
    fac_list = hint.get("factors", ())
    prod = MPoly.one(V.a.vars)
    for item in fac_list:
        prod = prod * item["f"](V) ** item.get("mult", 1)
    if num_poly.is_zero():
        if fac_list:
            raise BadFactorHint("%s: remainder vanished but factors given"
                                % node.name())
    else:
        q = divide_exact(num_poly, prod)
        if q is None or not q.is_constant() or q.is_zero():
            raise BadFactorHint("%s: factor product does not match the "
                                "remainder numerator" % node.name())

    # degree-0 branch (vanishing leading coefficient of R)
    deg0 = hint.get("deg0")
    if deg0 is not None:
        lead = x_coeffs(R).get(1, 0)
        if "impossible" in deg0:
            if not _nonzero_certified(lead, node.atoms):
                raise InconsistentNode(
                    "%s: deg-0 branch declared impossible but the leading "
                    "coefficient is not certified nonzero" % node.name())
        else:
            fprod = MPoly.one(V.a.vars)
            solve_factor = None
            for kind, f in deg0["lead_factors"]:
                fprod = fprod * f(V)
                if kind == "atom":
                    if not _nonzero_certified(f(V), node.atoms):
                        raise InconsistentNode("%s: deg-0 atom not certified"
                                               % node.name())
                else:
                    solve_factor = f(V)
            if not _ratio_constant(lead, fprod):
                raise BadFactorHint("%s: deg-0 leading-coefficient "
                                    "factorization mismatch" % node.name())
            kind = next((k for k in ("red", "terminating") if k in deg0),
                        "child")
            children.append(_branch(
                node, kind, deg0["token"], deg0["solve"], deg0.get(kind),
                [solve_factor], deg0.get("const_atoms", ())))

    # degree-1 branches (remainder factors)
    for item in fac_list:
        f_expr = item["f"](V)
        for action in item["actions"]:
            kind = action[0]
            if kind == "atom":
                if not _nonzero_certified(f_expr, node.atoms):
                    raise InconsistentNode(
                        "%s: remainder factor not excluded by the "
                        "inequations" % node.name())
            elif kind == "discard":
                _, solve, family = action
                mapping = _solve_mapping(solve)
                mu = [_subst_field(node.subs[p], mapping) for p in BASE]
                if not family_member(family, mu):
                    raise InconsistentNode(
                        "%s: discarded branch is not inside %s"
                        % (node.name(), family))
                children.append(("discard", family, tuple(mu)))
            elif kind in ("child", "red", "terminating"):
                children.append(_branch(node, *action, factor_exprs=[f_expr]))
            else:
                raise BadFactorHint("unknown hint kind %r" % (kind,))
    return children


def _branch(node, kind, token, solve, leaf=None, factor_exprs=(),
            const_atoms=()):
    """The ``child``, ``red`` or ``terminating`` branch of ``node`` reached by
    ``solve``, verified.  ``leaf`` is the family record of a leaf: (id,
    binding, documented atoms) for red, (id, binding) for terminating.  A
    terminating leaf keeps the node's inequations.  The ``const_atoms`` of a
    degree-0 record must stay nonzero on the branch, whatever its kind."""
    disj = ()
    if kind == "child":
        child_hint = HINT_BOOK.get(node.label + (token,))
        if child_hint is None:
            raise BadFactorHint("no hint for child %s,%s" % (node.name(), token))
        atoms_fn, disj = child_hint.get("atoms"), child_hint.get("disj", ())
    elif kind == "red":
        fid, binding, atoms_fn = leaf
    else:
        fid, binding = leaf
        atoms_fn = None
    child = _child_node(node, token, solve, atoms_fn, disj=tuple(disj),
                        factor_exprs=factor_exprs,
                        const_atoms=[f(V) for f in const_atoms])
    if kind == "child":
        return ("node", child)
    _check_leaf(child, fid, families.predicted_cfrac(fid, binding(V), RED_DEPTH,
                                                     kind="S"))
    if kind == "red" and not family_member(fid, child.mu()):
        raise InconsistentNode("%s: parameters not inside family %s"
                               % (child.name(), fid))
    return (kind, fid, child)


# ---------------------------------------------------------------------------
# leaf verification
# ---------------------------------------------------------------------------

def _check_leaf(node: SearchNode, fid: str, want):
    """The node's series has family ``fid``'s S-fraction ``want``: a red
    prediction through c_10, a terminating one three levels past its end.
    Decided on the cleared series; a refuted prediction raises
    ``InconsistentNode`` naming the level at which extraction departs.
    Scaling every c_i by D moves no level."""
    level = want.terminated_at
    ogf, D = _cleared_ogf(node, RED_DEPTH if level is None else level + 3)
    if D != 1:
        want = replace(want, c=tuple(felem_div(D * n, d)
                                     for n, d in map(num_den, want.c)))
    got = cfrac_refutation(ogf, want, "%s (%s)" % (node.name(), fid))
    if got is None:
        return
    if level is None:
        if got.terminated_at is not None:
            raise InconsistentNode("%s: unexpectedly terminating" % node.name())
        template = "%s: c_%d does not match family %s"
    else:
        if got.terminated_at != level:
            raise InconsistentNode("%s: expected termination at %d, got %s"
                                   % (node.name(), level, got.terminated_at))
        template = "%s: terminating c_%d mismatch vs %s"
    i = first_mismatch(zip(count(1), got.c, want.c))[0]
    raise InconsistentNode(template % (node.name(), i, fid))


def _verify_c_zero(node: SearchNode, hint):
    """The submanifold where the node's own coefficient vanishes: certified
    impossible, or a nontrivial terminating family, or contained in one of
    the red families (trivial, dropped)."""
    cz = hint.get("c_zero")
    own = hint.get("own_c")
    if node.depth == 0:
        return None
    if cz is None:
        c = own(V)
        cx = x_coeffs(c)
        if not (_nonzero_certified(cx.get(0, 0), node.atoms)
                or _nonzero_certified(cx.get(1, 0), node.atoms)):
            raise InconsistentNode(
                "%s: coefficient could vanish but no action documented"
                % node.name())
        return None
    mapping = _solve_mapping(cz["solve"])
    if not felem_is_zero(as_field(_subst_field(own(V), mapping))):
        raise InconsistentNode("%s: documented vanishing submanifold does "
                               "not kill the coefficient" % node.name())
    mu = [_subst_field(node.subs[p], mapping) for p in BASE]
    action = cz["action"]
    if action[0] == "discard":
        if not family_member(action[1], mu):
            raise InconsistentNode("%s: trivial terminating case is not in %s"
                                   % (node.name(), action[1]))
        return ("discard", action[1])
    s_id, binding = action[1], action[2]
    sub = SearchNode(label=node.label + ("c=0",), subs=dict(zip(BASE, mu)),
                     free=tuple(p for p in node.free if p not in mapping),
                     atoms=())
    _check_leaf(sub, s_id, families.predicted_cfrac(s_id, binding(V)))
    return ("terminating", s_id)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def run_tree() -> dict:
    """Full replay with classification counts.

    red -> polynomial, generically nonzero coefficients through c_10;
    gray -> no viable children; white -> internal; terminating -> rational
    generating functions (the s-families)."""
    root = root_node()
    white, red, gray, term, discards = [], {}, [], {}, []
    rem_checks = {}
    reports = {}
    stack = [root]
    while stack:
        node = stack.pop()
        hint = HINT_BOOK[node.label]
        cz = _verify_c_zero(node, hint)
        if cz is not None:
            if cz[0] == "terminating":
                term[node.label + ("c=0",)] = cz[1]
            else:
                discards.append((node.label + ("c=0",), cz[1]))
        rep = node_coefficient(node)
        reports[node.label] = rep
        if rep.rem_matches_doc is False:
            raise InconsistentNode("%s: documented remainder mismatch"
                                   % node.name())
        if rep.rem_matches_doc is not None:
            rem_checks[node.label] = rep.rem_matches_doc
        viable = 0
        for child in rep.children:
            kind = child[0]
            if kind == "node":
                stack.append(child[1])
                viable += 1
            elif kind == "red":
                red[child[2].label] = child[1]
                viable += 1
            elif kind == "terminating":
                term[child[2].label] = child[1]
            elif kind == "discard":
                discards.append((node.label, child[1]))
        if viable:
            white.append(node.label)
        else:
            gray.append(node.label)
    summary = {
        "red": {",".join(k): v for k, v in sorted(red.items())},
        "gray": sorted(",".join(k) for k in gray),
        "white": sorted(",".join(k) for k in white),
        "terminating": {",".join(k): v for k, v in sorted(term.items())},
        "discards": sorted((",".join(k), f) for k, f in discards),
        "remainder_checks": {",".join(k): v for k, v in sorted(rem_checks.items())},
        "counts": {"red": len(red), "gray": len(gray), "white": len(white),
                   "terminating": len(term)},
        "red_families": sorted(set(red.values())),
        "terminating_families": sorted(set(term.values())),
    }
    summary["ok"] = (
        summary["counts"]["red"] == 10
        and summary["counts"]["gray"] == 12
        and summary["red_families"] == sorted(RED_FAMILIES)
        and summary["terminating_families"] == sorted(TERMINATING_FAMILIES)
        and all(summary["remainder_checks"].values())
    )
    return summary


def get_node(label) -> SearchNode:
    """Rebuild a documented node by replaying the path from the root."""
    if isinstance(label, str):
        label = tuple(tok for tok in label.split(",") if tok)
    node = root_node()
    if tuple(label) == node.label:
        return node
    for depth in range(1, len(label)):
        want = tuple(label[: depth + 1])
        nxt = None
        for child in node_coefficient(node).children:
            if child[0] in ("node", "red", "terminating") \
                    and child[-1].label == want:
                nxt = child[-1]
                break
        if nxt is None:
            raise InconsistentNode("no documented node %s" % (want,))
        node = nxt
    return node


def tree_dot(summary=None) -> str:
    """Graphviz text mirroring the red/gray/white coloring."""
    if summary is None:
        summary = run_tree()
    lines = ["digraph decision_tree {", "  node [style=filled];"]
    names = {}

    def nm(label_str):
        if label_str not in names:
            names[label_str] = "n%d" % len(names)
        return names[label_str]

    def emit(label_str, color, text):
        lines.append('  %s [label="%s" fillcolor="%s"];'
                     % (nm(label_str), text, color))

    for lab in summary["white"]:
        emit(lab, "white", lab)
    for lab in summary["gray"]:
        emit(lab, "gray", lab)
    for lab, fam in summary["red"].items():
        emit(lab, "red", "%s\\n%s" % (lab, fam))
    for lab, fam in summary["terminating"].items():
        emit(lab, "lightblue", "%s\\n%s" % (lab, fam))
    for lab in list(names):
        parts = lab.split(",")
        if len(parts) > 1:
            parent = ",".join(parts[:-1])
            if parent in names:
                lines.append("  %s -> %s;" % (nm(parent), nm(lab)))
    lines.append("}")
    return "\n".join(lines)
