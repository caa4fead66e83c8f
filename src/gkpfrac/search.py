"""Replay of the computer-assisted classification of parameter submanifolds
whose generating function has an S-fraction with polynomial-in-x
coefficients.

The tree is driven by the hint book (``hintbook.HINT_BOOK``, one record per
documented node, its entries values over the generators of
``GKPParams.symbolic()``): the engine recomputes all fraction coefficients
from scratch, then verifies every documented assertion exactly -- the
substitutions, the inequations, the remainder and its factorization, the
degree collapse of the numerator and denominator polynomials, the family
membership of every discarded branch and every leaf
(``families.family_binding``) -- and raises instead of silently accepting a
violation.  Every branch (a factor of the remainder numerator or of the
deg-0 leading coefficient, or the node's own coefficient vanishing) goes
through one action interpreter, ``_take``: the one step that applies a
documented solve to the node's parameters and checks, there, that it kills
its factor.  A node's parameters are its parent's with that solve composed
in, so a factor killed at the node that solved it stays zero at every
descendant and is not checked again.

Each node's own split coefficient is extracted from its series, whose rows
come from ``gkpcore.gkp_rows``, which steps the row ODE on whole rows and
builds no triangle.  A leaf's claimed S-fraction (the ten red families, the
thirteen terminating ones) is decided as ``families.verify_family`` decides
a family's, by ``families.prediction_refutation``: on the parameters
cleared per triple, and there on an evaluation image where graded
variables are set to 1 and one more to 2^W.  Only a refuted leaf is
recomputed on the cleared values and extracted up to its departure
(``cfrac.cfrac_refutation``); the leaf's message is built from that
witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import (
    MPoly, TruncSeries, as_field, as_mpoly, clear_denominators, divide_exact,
    felem_div, felem_eq, felem_is_zero, num_den, x_coeffs,
)
from .gkpcore import PARAM_NAMES, GKPParams, gkp_rows
from .cfrac import extract_sfrac
from . import families
from .hintbook import HINT_BOOK, VARS


class InconsistentNode(ValueError):
    pass


class BadFactorHint(ValueError):
    pass


RED_DEPTH = 10
RED_FAMILIES = families.SFRAC_FAMILY_IDS
TERMINATING_FAMILIES = tuple(fid for fid in families.family_ids()
                             if families.get_family(fid).status == "terminating")


@dataclass(frozen=True)
class SearchNode:
    label: tuple
    subs: dict                     # base parameter -> value in the survivors
    free: tuple                    # surviving parameter names
    atoms: tuple                   # known-nonzero side conditions

    @property
    def depth(self) -> int:
        return len(self.label) - 1

    def mu(self) -> GKPParams:
        return GKPParams(*[self.subs[p] for p in PARAM_NAMES])

    def name(self) -> str:
        return ",".join(self.label)


@dataclass
class NodeReport:
    label: tuple
    level: int
    c: object
    Q: object
    R: object
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
    subs = {p: MPoly.variable(p, VARS) for p in PARAM_NAMES}
    return SearchNode(label=("0",), subs=subs, free=PARAM_NAMES, atoms=())


def _solve_mapping(solve):
    mapping = {}
    for var, value in solve:
        mapping[var] = _subst_field(value, mapping)
    return mapping


# ---------------------------------------------------------------------------
# coefficient computation
# ---------------------------------------------------------------------------

def node_cs(node: SearchNode, depth: int):
    """c_1..c_depth of the node's series, extracted on D mu, D the lcm of
    all six denominators, and divided by D: each c_i has degree one in mu.
    The rows of D mu come from ``gkp_rows``.  Per-triple clearing would
    need x mapped back, at 7-11 % more time."""
    nums, D = clear_denominators([node.subs[p] for p in PARAM_NAMES], VARS)
    rows = gkp_rows([as_mpoly(v, VARS) for v in nums], depth)
    cf = extract_sfrac(TruncSeries(depth, rows), depth)
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


def _check_factors(node: SearchNode, record: str, value, factors):
    """``value`` is a nonzero constant times the product of its documented
    ``factors``, each to its multiplicity."""
    num, den = num_den(as_field(value))
    prod = MPoly.one(VARS)
    for item in factors:
        prod = prod * item["f"] ** item.get("mult", 1)
    q = divide_exact(as_mpoly(num, VARS), prod)
    if q is None or q.is_zero() or not q.is_constant() \
            or not as_mpoly(den).is_constant():
        raise BadFactorHint("%s: %s factorization mismatch"
                            % (node.name(), record))


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
    if k < 1:
        raise ValueError("level must be at least 1, got %d" % k)
    cs, terminated = node_cs(node, k)
    if len(cs) < k:
        raise InconsistentNode("%s: series terminated at level %s"
                               % (node.name(), terminated))
    c_prev = cs[k - 2] if k >= 2 else 1
    c_k = cs[k - 1]

    own = hint.get("own_c")
    if own is not None and k >= 2:
        if not felem_eq(c_prev, own):
            raise InconsistentNode("%s: documented c_%d mismatch"
                                   % (node.name(), k - 1))
    if k != node.depth + 1:
        return NodeReport(node.label, k, c_k, None, None, None, None,
                          _deg_x(c_k), 0, [])

    if "passthrough" in hint:
        if not _x_free(num_den(c_k)[1]):
            raise InconsistentNode("%s: expected a polynomial coefficient"
                                   % node.name())
        return NodeReport(node.label, k, c_k, as_field(c_k), 1, 0, None,
                          _deg_x(c_k), 0,
                          [_branch(node, ("child", hint["passthrough"]),
                                   node.subs, node.free)])

    g = hint["rfactor"]
    R = g * as_field(c_prev) if k >= 2 else as_field(g)
    Q = as_field(c_k) * R
    if not _x_free(num_den(Q)[1]) or not _x_free(num_den(R)[1]):
        raise InconsistentNode("%s: R is not the declared multiple of c_%d"
                               % (node.name(), k - 1))
    Qc, Rc = x_coeffs(Q), x_coeffs(R)
    degQ, degR = max(Qc, default=0), max(Rc, default=0)
    if degQ > 2 or degR > 1:
        raise InconsistentNode("%s: degree collapse fails (degQ=%d, degR=%d)"
                               % (node.name(), degQ, degR))
    rem = _x_remainder(Qc, Rc)
    rem_ok = None
    if hint.get("rem_doc") is not None:
        rem_ok = felem_eq(rem, hint["rem_doc"])
    if hint.get("Q_doc") is not None:
        if not felem_eq(Q, hint["Q_doc"]):
            raise InconsistentNode("%s: documented Q mismatch" % node.name())
    if hint.get("R_doc") is not None:
        if not felem_eq(R, hint["R_doc"]):
            raise InconsistentNode("%s: documented R mismatch" % node.name())

    children = split_node(node, hint, rem, R)
    return NodeReport(node.label, k, c_k, Q, R, rem, rem_ok,
                      degQ, degR, children)


def _x_remainder(Qc: dict, Rc: dict):
    """The remainder of Q on division by R in x, both given by their
    x-coefficients (``x_coeffs``), with deg_x Q <= 2 and R nonzero of
    deg_x R <= 1: 0 when R is free of x, otherwise [x^0] of what is left
    after one long-division step on the x^2 term of Q and one on the x^1
    term.  Zero coefficients are dropped, so a vanishing remainder is 0."""
    if 1 not in Rc:
        return 0
    rem = dict(Qc)
    for top in (2, 1):
        if top in rem:
            factor = felem_div(rem.pop(top), Rc[1])
            if 0 in Rc:
                low = rem.get(top - 1, 0) - factor * Rc[0]
                if felem_is_zero(low):
                    rem.pop(top - 1, None)
                else:
                    rem[top - 1] = low
    return rem.get(0, 0)


def split_node(node: SearchNode, factor_hints=None, rem=None, R=None) -> list:
    """Construct and verify the node's children from its two documented
    factor lists: the ``deg0`` record's factors of the x^1 coefficient of R
    (the branch on which R loses its degree) and the node's ``factors`` of
    the remainder numerator.  Each list must multiply out to its
    polynomial up to a nonzero constant; then every action of every factor
    is taken, the degree-0 ones first."""
    hint = factor_hints if factor_hints is not None else HINT_BOOK[node.label]
    if rem is None:
        return node_coefficient(node).children
    _check_factors(node, "remainder", num_den(rem)[0], hint["factors"])
    deg0 = hint["deg0"]
    _check_factors(node, "deg-0 leading-coefficient", x_coeffs(R).get(1, 0),
                   deg0["factors"])
    children = []
    for record, rec in (("deg-0 leading-coefficient", deg0),
                        ("remainder", hint)):
        const_atoms = rec.get("const_atoms", ())
        for item in rec["factors"]:
            for action in item["actions"]:
                child = _take(node, record, action, item["f"], const_atoms)
                if child is not None:
                    children.append(child)
    return children


def _take(node: SearchNode, record: str, action, factor, const_atoms=()):
    """The one interpreter of a documented action on ``factor`` of the
    node's ``record`` (a factor of the deg-0 leading coefficient or of the
    remainder numerator, or the node's own coefficient for c=0).  An
    ``atom`` factor is certified to contradict an inequation (no branch).
    Every other action solves: its solve is applied to the node's
    parameters here, once, and the factor must vanish under the solved
    parameters.  A ``discard`` then lies inside the named earlier family;
    a ``child``, ``red`` or ``terminating`` branch is built and verified by
    ``_branch``."""
    kind = action[0]
    if kind == "atom":
        if not _nonzero_certified(factor, node.atoms):
            raise InconsistentNode("%s: %s factor not excluded by the "
                                   "inequations" % (node.name(), record))
        return None
    if kind not in ("discard", "child", "red", "terminating"):
        raise BadFactorHint("unknown hint kind %r" % (kind,))
    mapping = _solve_mapping(action[1] if kind == "discard" else action[2])
    subs = {p: _subst_field(node.subs[p], mapping) for p in PARAM_NAMES}
    free = tuple(p for p in node.free if p not in mapping)
    solved = {p: subs[p] for p in PARAM_NAMES if p not in free}
    if not felem_is_zero(_subst_field(factor, solved)):
        raise InconsistentNode("%s: documented vanishing submanifold "
                               "does not kill the %s factor"
                               % (node.name(), record))
    if kind == "discard":
        family = action[2]
        mu = tuple(subs[p] for p in PARAM_NAMES)
        if families.family_binding(family, mu) is None:
            raise InconsistentNode("%s: discarded branch is not inside %s "
                                   "(%s)" % (node.name(), family, record))
        return ("discard", family, mu)
    return _branch(node, action, subs, free, const_atoms)


def _branch(node, action, subs, free, const_atoms=()):
    """The ``child``, ``red`` or ``terminating`` branch of ``node`` at the
    parameters ``subs`` that ``_take`` solved by ``action`` (a passthrough
    child keeps its node's), verified.  A child takes the atoms of its own
    record.  A leaf's family record is (id, atoms): a terminating leaf
    without documented atoms keeps the node's inequations.  Every atom, and
    every ``const_atoms`` of a degree-0 record, must stay nonzero under the
    solved parameters (a free parameter stands for itself).  A leaf's point
    must lie in its family, whose parameter values there feed the predicted
    fraction."""
    kind, token = action[:2]
    if kind == "child":
        child_hint = HINT_BOOK.get(node.label + (token,))
        if child_hint is None:
            raise BadFactorHint("no hint for child %s,%s" % (node.name(), token))
        atoms = child_hint.get("atoms")
    else:
        fid, *atoms = action[3]
        atoms = atoms[0] if atoms else None
    child = SearchNode(label=node.label + (token,), subs=subs, free=free,
                       atoms=node.atoms if atoms is None else tuple(atoms))
    solved = {p: subs[p] for p in PARAM_NAMES if p not in free}
    for atom in child.atoms + tuple(const_atoms):
        if felem_is_zero(_subst_field(atom, solved)):
            raise InconsistentNode("%s: inequation violated by substitution"
                                   % child.name())
    if kind == "child":
        return ("node", child)
    binding = families.family_binding(fid, child.mu())
    if binding is None:
        raise InconsistentNode("%s: parameters not inside family %s"
                               % (child.name(), fid))
    _check_leaf(child, fid, families.predicted_cfrac(fid, binding, RED_DEPTH,
                                                     kind="S"))
    return (kind, fid, child)


# ---------------------------------------------------------------------------
# leaf verification
# ---------------------------------------------------------------------------

def _check_leaf(node: SearchNode, fid: str, want):
    """The node's series has family ``fid``'s S-fraction ``want``: a red
    prediction through c_10, a terminating one three levels past its end.
    Decided by ``families.prediction_refutation`` on the parameters
    cleared per triple and on an evaluation image; a refuted prediction
    raises ``InconsistentNode`` naming the level at which extraction
    departs."""
    level = want.terminated_at
    order = RED_DEPTH if level is None else level + 3
    bad = families.prediction_refutation(node.mu(), want, order,
                                         "%s (%s)" % (node.name(), fid))
    if bad is None:
        return
    if "got" in bad:
        template = "%s: c_%d does not match family %s" if level is None \
            else "%s: terminating c_%d mismatch vs %s"
        raise InconsistentNode(template % (node.name(), bad["level"], fid))
    if bad["expected"] == "nonterminating":
        raise InconsistentNode("%s: unexpectedly terminating" % node.name())
    raise InconsistentNode("%s: expected %s, got %s"
                           % (node.name(), bad["expected"], bad["level"]))


def _verify_c_zero(node: SearchNode, hint):
    """The submanifold where the node's own coefficient vanishes: without a
    ``c_zero`` action it is certified impossible (one of the coefficient's
    two x-coefficients is a product of atoms), otherwise the action is
    taken on the coefficient as its factor: a ``discard`` into one of the
    red families, or a ``terminating`` leaf labelled ``c=0``."""
    own = hint["own_c"]
    action = hint["c_zero"]
    if action is not None:
        return _take(node, "c=0", action, own)
    cx = x_coeffs(own)
    if not (_nonzero_certified(cx.get(0, 0), node.atoms)
            or _nonzero_certified(cx.get(1, 0), node.atoms)):
        raise InconsistentNode(
            "%s: coefficient could vanish but no action documented"
            % node.name())
    return None


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
    stack = [root]
    while stack:
        node = stack.pop()
        hint = HINT_BOOK[node.label]
        cz = _verify_c_zero(node, hint)
        if cz is not None:
            if cz[0] == "terminating":
                term[cz[2].label] = cz[1]
            else:
                discards.append((node.label + ("c=0",), cz[1]))
        rep = node_coefficient(node)
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
            else:
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
    """Rebuild a documented node, or a leaf that its parent's split opens
    or that its parent's own coefficient vanishing opens (a ``c=0`` label,
    ``_verify_c_zero``), by replaying the path from the root; any other
    label raises ``InconsistentNode``."""
    if isinstance(label, str):
        label = tuple(tok for tok in label.split(",") if tok)
    node = root_node()
    if tuple(label[:1]) != node.label:
        raise InconsistentNode("no documented node %s" % (tuple(label),))
    for depth in range(1, len(label)):
        want = tuple(label[: depth + 1])
        hint = HINT_BOOK.get(node.label)
        if want[-1] == "c=0" and hint is not None:
            children = [_verify_c_zero(node, hint)]
        else:
            children = node_coefficient(node).children
        nxt = None
        for child in children:
            if child is not None and child[0] in ("node", "red", "terminating") \
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
