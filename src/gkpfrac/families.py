"""Catalog of the named parameter families and their predicted continued
fractions, with end-to-end verification harnesses.

Each family record carries a parameter template, its fraction (S, T or J
kind) and an epistemic status flag (the S families' inequations are their
red leaves' atoms in the hint book).  Eleven representatives state their
coefficients: F1a, F2a, F5, F7a, F8a, F9a, F1c, GKPZ, s0, s1a and s4a.  Each
of the other twenty families is the image of a representative's point under
a word of the symmetry group (``FamilySpec.source``).  Since
P_n(x; g mu) = lambda(x)^n P_n(m(x); mu), each coefficient c of the
representative's S- or T-fraction becomes lambda c(m(x))
(``symmetry.transport``).  That law is applied once per family, at its
symbolic point with the level index k symbolic, and must give polynomials
(``_derived``).  Closed-form egfs obey F_{g mu}(x, t) = F_mu(m(x), lambda t):
F1a, F2a, F5, F1c and GKPZ state theirs, F7a's is a binomial shift of F3a's,
and a derived family's is its representative's, transported (``_transported``).
Verification regenerates the triangle and compares its ogf with the
prediction, symbolically in all free parameters; an S or J prediction is
read and refuted by ``cfrac.cfrac_refutation`` alone.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from typing import Callable, Optional

from .exactalg import (
    MPoly, RatFunc, TruncSeries, _common_factor, _lead_content, as_mpoly,
    exp_series, felem_div, felem_eq, felem_is_zero, first_mismatch,
    generalized_binomial_series, mismatch_report, variables, x_coeffs,
)
from .gkpcore import (
    GKPParams, GKPZParams, UnknownFamily, egf_trunc, gkp_triangle, row_polys,
    triangle, triangle_mismatch, triangle_rows,
)
from .cfrac import (
    CFrac, binomial_transform_seq, cfrac_refutation, contract, eval_tr,
)
from .matprod import binomial_matrix, triangle_product
from .symmetry import _orbit, substitute, transport, word_matrix


class ArityMismatch(ValueError):
    pass


class NonRationalExponent(ValueError):
    what = "exponent denominator"


class VanishingDenominator(ValueError):
    """A closed form's denominator outside the exponent is zero at the
    given parameters."""
    what = "denominator"


@dataclass(frozen=True)
class FamilySpec:
    """A representative states its fraction; a derived family states its
    ``source`` instead: its point is the word (letters S, D, Z, R as in
    ``symmetry.apply_map_letters``) applied to the representative's."""
    id: str
    params: tuple                       # free-parameter names, in order
    kind: str                           # "S", "T" or "J"
    status: str                         # proven | conjectured | terminating
    template: Callable                  # params dict -> GKPParams/GKPZParams
    odd: Optional[Callable] = None      # S, T: (vals, k) -> c_2k-1, or (c, d)
    even: Optional[Callable] = None     # S, T: (vals, k) -> c_2k, or (c, d)
    coeffs: Optional[Callable] = None   # J: (vals, n) -> (e_n, f_n)
    terminating_cs: Optional[Callable] = None   # vals -> [c_1, ...]
    terminates_at: Optional[int] = None
    source: Optional[tuple] = None      # (representative, word)


def _sym(spec: FamilySpec) -> dict:
    names = spec.params
    gens = variables(names, extra=("x",))
    return dict(zip(names, gens))


def _xvar(vals: dict) -> MPoly:
    any_poly = next(iter(vals.values()))
    if isinstance(any_poly, MPoly) and "x" in any_poly.vars:
        return MPoly.variable("x", any_poly.vars)
    return MPoly.variable("x", ("x",))


def _make_catalog():
    cat = {}

    def add(spec):
        cat[spec.id] = spec

    def derive(id, source, word, names, template):
        rep = cat[source]
        add(FamilySpec(id, names, rep.kind, rep.status, template,
                       source=(source, word)))

    # ---- the ten S-fraction families --------------------------------------
    add(FamilySpec(
        "F1a", ("beta", "alphap", "gammap"), "S", "proven",
        lambda v: GKPParams(0, v["beta"], 0, v["alphap"], -v["alphap"], v["gammap"]),
        odd=lambda v, k: (v["gammap"] + (k - 1) * v["alphap"]) * _xvar(v),
        even=lambda v, k: k * v["beta"]))
    derive("F1b", "F1a", "D", ("beta", "gamma", "alphap"),
           lambda v: GKPParams(0, v["beta"], v["gamma"], v["alphap"], -v["alphap"], 0))
    add(FamilySpec(
        "F2a", ("alpha", "alphap", "betap", "gammap"), "S", "proven",
        lambda v: GKPParams(v["alpha"], -v["alpha"], -v["alpha"],
                            v["alphap"], v["betap"], v["gammap"]),
        odd=lambda v, k: (v["gammap"] + k * (v["alphap"] + v["betap"])) * _xvar(v),
        even=lambda v, k: k * (v["alphap"] + v["betap"]) * _xvar(v)))
    derive("F2b", "F2a", "D", ("alpha", "beta", "gamma", "betap"),
           lambda v: GKPParams(v["alpha"], v["beta"], v["gamma"], 0,
                               v["betap"], -v["betap"]))
    derive("F3a", "F1a", "R", ("beta", "betap", "gammap"),
           lambda v: GKPParams(0, v["beta"], 0, 0, v["betap"], v["gammap"]))
    derive("F3b", "F1a", "RZ", ("alpha", "gamma", "alphap"),
           lambda v: GKPParams(v["alpha"], -v["alpha"], v["gamma"],
                               v["alphap"], -v["alphap"], 0))
    derive("F4a", "F1a", "DZ", ("betap", "gammap", "kappa"),
           lambda v: GKPParams(0, v["kappa"] * v["betap"],
                               v["kappa"] * (v["betap"] + v["gammap"]),
                               0, v["betap"], v["gammap"]))
    derive("F4b", "F1a", "Z", ("alpha", "gamma", "kappa"),
           lambda v: GKPParams(v["alpha"], -v["alpha"], v["gamma"],
                               v["kappa"] * v["alpha"], -v["kappa"] * v["alpha"],
                               v["kappa"] * (v["alpha"] + v["gamma"])))
    add(FamilySpec(
        "F5", ("alpha", "gamma", "alphap", "gammap"), "S", "proven",
        lambda v: GKPParams(v["alpha"], 0, v["gamma"], v["alphap"], 0, v["gammap"]),
        odd=lambda v, k: (v["gamma"] + v["gammap"] * _xvar(v))
        + k * (v["alpha"] + v["alphap"] * _xvar(v)),
        even=lambda v, k: k * (v["alpha"] + v["alphap"] * _xvar(v))))
    derive("F6", "F2a", "Z", ("alphap", "betap", "gammap", "kappa"),
           lambda v: GKPParams(v["kappa"] * (v["alphap"] + v["betap"]),
                               v["kappa"] * v["betap"], v["kappa"] * v["gammap"],
                               v["alphap"], v["betap"], v["gammap"]))

    # ---- T / J families ----------------------------------------------------
    # F7a, F7b, F9a and F9b have d = 0 at even levels: their J-forms are
    # the even contraction of their T-forms (predicted_cfrac)
    add(FamilySpec(
        "F7a", ("beta", "gamma", "betap", "gammap"), "T", "proven",
        lambda v: GKPParams(0, v["beta"], v["gamma"], 0, v["betap"], v["gammap"]),
        odd=lambda v, k: ((v["gammap"] + k * v["betap"]) * _xvar(v), v["gamma"]),
        even=lambda v, k: (k * (v["beta"] + v["betap"] * _xvar(v)), 0)))
    derive("F7b", "F7a", "D", ("alpha", "gamma", "alphap", "gammap"),
           lambda v: GKPParams(v["alpha"], -v["alpha"], v["gamma"],
                               v["alphap"], -v["alphap"], v["gammap"]))

    add(FamilySpec(
        "F8a", ("beta", "gamma", "alphap"), "T", "proven",
        lambda v: GKPParams(0, v["beta"], v["gamma"],
                            v["alphap"], v["alphap"], -v["alphap"]),
        odd=lambda v, k: ((2 * k - 1) * v["alphap"] * _xvar(v),
                          v["gamma"] + (2 * k - 2) * v["beta"]),
        even=lambda v, k: (2 * k * v["alphap"] * _xvar(v),
                           v["gamma"] + (2 * k - 1) * v["beta"])))
    derive("F8b", "F8a", "D", ("alphahat", "alphap", "gammap"),
           lambda v: GKPParams(2 * v["alphahat"], -v["alphahat"], -v["alphahat"],
                               v["alphap"], -v["alphap"], v["gammap"]))

    add(FamilySpec(
        "F9a", ("beta", "alphaphat", "kappa"), "T", "conjectured",
        lambda v: GKPParams(0, v["beta"], (v["kappa"] + 1) * v["beta"],
                            -v["alphaphat"], 2 * v["alphaphat"],
                            v["kappa"] * v["alphaphat"]),
        odd=lambda v, k: ((v["kappa"] + k) * v["alphaphat"] * _xvar(v),
                          (v["kappa"] + 2 * k - 1) * v["beta"]),
        even=lambda v, k: (k * v["alphaphat"] * _xvar(v), 0)))
    derive("F9b", "F9a", "D", ("alpha", "alphap", "kappa"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], v["kappa"] * v["alpha"],
                               v["alphap"], -v["alphap"],
                               (v["kappa"] + 1) * v["alphap"]))

    def f1c_J(vals, n):
        x = _xvar(vals)
        e = (vals["gamma"] + n * vals["beta"]) \
            + (vals["gammap"] + n * vals["alphap"]) * x
        f = n * (vals["beta"] * vals["gammap"] + vals["gamma"] * vals["alphap"]
                 + (n - 1) * vals["beta"] * vals["alphap"]) * x
        return e, f

    add(FamilySpec(
        "F1c", ("beta", "gamma", "alphap", "gammap"), "J", "proven",
        lambda v: GKPParams(0, v["beta"], v["gamma"],
                            v["alphap"], -v["alphap"], v["gammap"]),
        coeffs=f1c_J))

    def gkpz_template(v):
        return GKPZParams(0, v["beta"], v["gamma"], v["alphap"],
                          -v["alphap"] + v["kappa"] * v["beta"], v["gammap"],
                          v["kappa"] * v["alphap"], 0)

    def gkpz_J(vals, n):
        x = _xvar(vals)
        b, g, ap, gp, kp = (vals["beta"], vals["gamma"], vals["alphap"],
                            vals["gammap"], vals["kappa"])
        e = (g + n * b) * (1 + kp * x) \
            + (gp + kp * (b - g) + n * (ap + kp * b)) * x
        f = n * (b * gp + g * ap + kp * b * b + (n - 1) * b * (ap + kp * b)) \
            * x * (1 + kp * x)
        return e, f

    add(FamilySpec(
        "GKPZ", ("beta", "gamma", "alphap", "gammap", "kappa"), "J", "proven",
        gkpz_template, coeffs=gkpz_J))

    # ---- terminating families (rational ogfs) ------------------------------
    def term(id, names, template, clist, level):
        add(FamilySpec(id, names, "S", "terminating", template,
                       terminating_cs=clist, terminates_at=level))

    term("s0", ("alpha", "beta", "alphap", "betap"),
         lambda v: GKPParams(v["alpha"], v["beta"], -v["alpha"],
                             v["alphap"], v["betap"], -v["alphap"] - v["betap"]),
         lambda v: [], 1)
    term("s1a", ("gamma", "alphap"),
         lambda v: GKPParams(0, -2 * v["gamma"], v["gamma"],
                             v["alphap"], -2 * v["alphap"], v["alphap"]),
         lambda v: [v["gamma"], v["alphap"] * _xvar(v),
                    -v["gamma"] - v["alphap"] * _xvar(v)], 4)
    derive("s1b", "s1a", "D", ("alpha", "gammap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -v["alpha"],
                               -2 * v["gammap"], 2 * v["gammap"], v["gammap"]))
    derive("s2a", "s1a", "R", ("gamma", "alphap"),
           lambda v: GKPParams(0, -2 * v["gamma"], v["gamma"],
                               v["alphap"], -2 * v["alphap"], 2 * v["alphap"]))
    derive("s2b", "s1a", "RZ", ("alpha", "gammap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -2 * v["alpha"],
                               -2 * v["gammap"], 2 * v["gammap"], v["gammap"]))
    derive("s3a", "s1a", "Z", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -2 * v["alpha"],
                               v["alphap"], -2 * v["alphap"], v["alphap"]))
    derive("s3b", "s1a", "DZ", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -v["alpha"],
                               v["alphap"], -2 * v["alphap"], 2 * v["alphap"]))
    term("s4a", ("beta", "alphap"),
         lambda v: GKPParams(0, v["beta"], -v["beta"],
                             v["alphap"], -2 * v["alphap"], v["alphap"]),
         lambda v: [-v["beta"], v["alphap"] * _xvar(v),
                    -v["alphap"] * _xvar(v), v["beta"]], 5)
    derive("s4b", "s4a", "D", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -v["alpha"],
                               v["alphap"], -v["alphap"], -v["alphap"]))
    derive("s5a", "s4a", "Z", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -3 * v["alpha"],
                               v["alphap"], -2 * v["alphap"], v["alphap"]))
    derive("s5b", "s4a", "DZ", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -v["alpha"],
                               v["alphap"], -2 * v["alphap"], 3 * v["alphap"]))
    derive("s6a", "s4a", "RZ", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -3 * v["alpha"],
                               v["alphap"], -v["alphap"], -v["alphap"]))
    derive("s6b", "s4a", "R", ("beta", "alphap"),
           lambda v: GKPParams(0, v["beta"], -v["beta"],
                               v["alphap"], -2 * v["alphap"], 3 * v["alphap"]))
    return cat


CATALOG = _make_catalog()
SFRAC_FAMILY_IDS = tuple(fid for fid, spec in CATALOG.items()
                         if spec.kind == "S" and spec.status != "terminating")


def family_ids():
    return sorted(CATALOG)


def _resolve_params(spec: FamilySpec, params):
    if params is None:
        return _sym(spec)
    if isinstance(params, dict):
        vals = dict(params)
        missing = [p for p in spec.params if p not in vals]
        extra = [p for p in vals if p not in spec.params]
        if missing or extra:
            raise ArityMismatch("family %s takes %s" % (spec.id, spec.params))
        return vals
    params = tuple(params)
    if len(params) != len(spec.params):
        raise ArityMismatch("family %s takes %d parameters %s"
                            % (spec.id, len(spec.params), spec.params))
    return dict(zip(spec.params, params))


def get_family(id: str) -> FamilySpec:
    if id not in CATALOG:
        raise UnknownFamily(id)
    return CATALOG[id]


def family_params(id: str, params=None):
    """Instantiate the family's parameter tuple (symbolic by default)."""
    spec = get_family(id)
    return spec.template(_resolve_params(spec, params))


@lru_cache(maxsize=None)
def _reader(spec: FamilySpec):
    """(arity, [(parameter, i, 1/c)]): the template's number of coordinates
    and, for each parameter but kappa, the first coordinate i that is a
    constant c times it."""
    coords = tuple(spec.template(_sym(spec)))
    found = {}
    for i, t in enumerate(coords):
        if isinstance(t, MPoly) and len(t.terms) == 1:
            (e, c), = t.terms.items()
            if sum(e) == 1:
                found.setdefault(t.vars[e.index(1)], (i, 1 / Fraction(c)))
    return len(coords), [(p,) + found[p] for p in spec.params if p != "kappa"]


def family_binding(id: str, mu) -> Optional[dict]:
    """The parameter values at which family ``id``'s template is ``mu``, or
    None when no values give ``mu``.  Each parameter but kappa is read off
    its coordinate of ``_reader``; the template is affine in kappa, so
    kappa solves mu_i = T_i(0) + kappa (T_i(1) - T_i(0)) at the first
    coordinate whose slope is nonzero, and is 0 when none is.  The
    template at the values read must then be ``mu``."""
    spec = get_family(id)
    mu = tuple(mu)
    arity, reads = _reader(spec)
    if len(mu) != arity:
        return None
    vals = {p: mu[i] * inv for p, i, inv in reads}
    if "kappa" in spec.params:
        at0 = spec.template({**vals, "kappa": 0})
        at1 = spec.template({**vals, "kappa": 1})
        vals["kappa"] = next(
            (felem_div(m - t0, t1 - t0) for m, t0, t1 in zip(mu, at0, at1)
             if not felem_eq(t0, t1)), 0)
    return vals if all(map(felem_eq, mu, spec.template(vals))) else None


def predicted_cfrac(id: str, params=None, m: int = 8, kind: Optional[str] = None) -> CFrac:
    """Predicted coefficient bundle through m levels.

    For T families ``kind`` may also be "J": the even contraction of the
    T-form.  Terminating families have only an S-form, their full finite
    c-list.  A family with a ``source`` is predicted by its derived rules
    (``_derived``)."""
    spec = get_family(id)
    vals = _resolve_params(spec, params)
    kind = kind or spec.kind
    if kind not in ("S", "T", "J"):
        raise ValueError(kind)
    if kind == "J" and spec.kind == "T":
        # 2m T levels contract to e_0..e_{m-1} and f_1..f_m
        return contract(predicted_cfrac(id, params, 2 * m, kind="T"))
    if kind != spec.kind:
        raise UnknownFamily("%s has no %s-form" % (id, kind))
    if spec.source is not None:
        spec = _derived(spec, get_family(spec.source[0]))(vals)
    if spec.status == "terminating":
        return CFrac("S", c=tuple(spec.terminating_cs(vals)),
                     terminated_at=spec.terminates_at)
    if kind == "J":
        e, f = zip(*(spec.coeffs(vals, n) for n in range(m + 1)))
        return CFrac("J", e=e[:m], f=f[1:])
    rows = tuple(spec.odd(vals, (i + 1) // 2) if i % 2 else spec.even(vals, i // 2)
                 for i in range(1, m + 1))
    if kind == "S":
        return CFrac("S", c=rows)
    return CFrac("T", c=tuple(r[0] for r in rows), d=tuple(r[1] for r in rows))


@lru_cache(maxsize=None)
def _pullback(spec: FamilySpec):
    """(binding, m) of a derived family: its representative bound at the
    symbolic point mapped back by the word (each letter is an involution),
    and the word's matrix (``symmetry.word_matrix``) over the parameters,
    the level index k and x."""
    rep, word = spec.source
    *gens, k, _ = variables(spec.params + ("k", "x"))
    point = spec.template(dict(zip(spec.params, gens)))
    orbit = _orbit(word[::-1], point)[::-1]
    binding = family_binding(rep, orbit[0])
    if binding is None:
        raise ArithmeticError("%s: the preimage of the point under %s is not "
                              "inside %s" % (spec.id, word, rep))
    return binding, word_matrix(word, orbit, k.vars)


@lru_cache(maxsize=None)
def _derived(spec: FamilySpec, rep: FamilySpec) -> Callable:
    """The function of a point vals that gives ``spec`` with its rules
    stated there.  They are derived once, at ``_pullback(spec)``: each
    coefficient c becomes lambda c(m(x)) (``symmetry.transport``), which
    must be a polynomial in the parameters, k and x; ArithmeticError, naming
    both families and the word, is a catalog fault, as is a rule of ``rep``
    whose value at k = 1 or 2 is not its form in k put there.  At vals, the
    parameters and x are substituted once and k at each level."""
    word = spec.source[1]
    binding, m = _pullback(spec)
    k = MPoly.variable("k", m[0].vars)

    def moved(c):
        if isinstance(c, tuple):
            return tuple(map(moved, c))
        out = transport(c, m)
        if isinstance(out, RatFunc) and not out.is_poly():
            raise ArithmeticError("%s: coefficient %r of %s is not a polynomial "
                                  "under %s" % (spec.id, c, rep.id, word))
        return as_mpoly(out, k.vars).coeffs_in("k")

    def at(c, j):
        if isinstance(c, tuple):
            return tuple(at(q, j) for q in c)
        return c.subs({"k": j}) if isinstance(c, (MPoly, RatFunc)) else c

    def form(name):
        # a rule that branches on k in Python is no form in k
        rule = getattr(rep, name)
        c = rule(binding, k)
        for j in (1, 2):
            if rule(binding, j) != at(c, j):
                raise ArithmeticError("%s: rule %s at k = %d is not its form "
                                      "in k" % (rep.id, name, j))
        return moved(c)

    terminating = rep.status == "terminating"
    rules = [moved(tuple(rep.terminating_cs(binding)))] if terminating \
        else [form("odd"), form("even")]

    def stated(vals):
        x = _xvar(vals)
        at = {**vals, "x": x}

        def bound(rule):
            if isinstance(rule, tuple):
                parts = [bound(r) for r in rule]
                return lambda k: tuple(f(k) for f in parts)
            # a scalar value is a constant over x's variables
            parts = [(j, q.subs(at)) for j, q in rule.items()]
            return lambda k: sum((q * k ** j for j, q in parts), MPoly.zero(x.vars))

        rules_at = [bound(r) for r in rules]
        if terminating:
            return replace(spec, terminating_cs=lambda v: rules_at[0](0),
                           terminates_at=rep.terminates_at, source=None)
        return replace(spec, odd=lambda v, k: rules_at[0](k),
                       even=lambda v, k: rules_at[1](k), source=None)

    return stated


def verify_family(id: str, params=None, N: int = 12, kind: Optional[str] = None) -> dict:
    """Generate, compare; symbolic in all free parameters.

    S, terminating and J kinds are decided on the series by
    ``cfrac.cfrac_refutation``, which reads the prediction through the
    levels that extraction from the ogf through t^N reads: a prediction
    ends at its first zero coefficient unless it states an end, and an end
    beyond those levels is not claimed.  Only a refuted prediction is
    extracted, up to the level where the series leaves it, and that
    extraction gives the ``first_mismatch`` witness.  T kinds are verified
    by evaluating the predicted fraction.
    """
    spec = get_family(id)
    vals = _resolve_params(spec, params)
    kind = kind or spec.kind
    ogf = TruncSeries(N, triangle_rows(spec.template(vals), N))
    report = {"id": id, "kind": kind, "status": spec.status,
              "verified_to": N, "first_mismatch": None}

    if kind == "T":
        want = predicted_cfrac(id, params, N, kind="T")
        bad = first_mismatch(zip(count(), ogf.coeffs,
                                 eval_tr(list(want.c), list(want.d), N).coeffs))
        if bad is not None:
            level, g, w = bad
            report["first_mismatch"] = {"level": level, "expected": repr(w), "got": repr(g)}
        return report
    want = predicted_cfrac(id, params, N // 2 if kind == "J" else N, kind)
    report["first_mismatch"] = cfrac_refutation(ogf, want, id)
    return report


# ---------------------------------------------------------------------------
# binomial-transform relations between families
# ---------------------------------------------------------------------------

# family -> (family, xi(vals, x)) of which it is the xi-binomial transform
_BINOMIAL_SHIFTS = {"F7a": ("F3a", lambda v, x: v["gamma"]),
                    "F7b": ("F3b", lambda v, x: v["gammap"] * x)}


def verify_binomial_relations(pair: str, N: int = 8) -> dict:
    """The three documented matrix/binomial relations between families:
    7a = gamma-transform of 3a, 7b = (gammap*x)-transform of 3b, and
    T(family 6) = T(family 2a) * binomial matrix.  A row-polynomial
    transform is ``cfrac.binomial_transform_seq``, which also checks it
    against the ogf substitution law."""
    if pair in ("7a/3a", "7b/3b"):
        fid = "F" + pair[:2]
        inner, xi = _BINOMIAL_SHIFTS[fid]
        vals = _sym(CATALOG[fid])
        inner_vals = {p: vals[p] for p in CATALOG[inner].params}
        p7 = row_polys(gkp_triangle(family_params(fid, vals), N))
        p3 = row_polys(gkp_triangle(family_params(inner, inner_vals), N))
        want = binomial_transform_seq(TruncSeries(N, p3), xi(vals, _xvar(vals)))
        report = mismatch_report(first_mismatch(
            ({"n": n}, p, w) for n, (p, w) in enumerate(zip(p7, want.coeffs))))
    elif pair == "6/2a":
        ap, bp, gp, kp, al = variables("alphap betap gammap kappa alpha", extra=("x",))
        t6 = gkp_triangle(family_params("F6", (ap, bp, gp, kp)), N)
        t2a = gkp_triangle(family_params("F2a", (al, ap, bp, gp)), N)
        want = triangle_product(t2a, binomial_matrix(kp, N))
        report = triangle_mismatch(t6, want.entry, N)
    else:
        raise ValueError("pair must be 7a/3a, 7b/3b or 6/2a")
    return {"pair": pair, **report}


# ---------------------------------------------------------------------------
# closed-form exponential generating functions at numeric parameters
# ---------------------------------------------------------------------------

def egf_closed_form(id: str, vals: dict, order: int) -> TruncSeries:
    """The closed-form egf of the family at numeric parameters (x stays
    symbolic): the published one of F1a, F2a, F5, F1c and GKPZ, F3a's
    gamma-shift for F7a, and for F1b, F2b, F3a, F3b, F4a, F4b, F6 and F7b
    their representative's, transported (``_transported``).  Each error
    names the family: NonRationalExponent when a denominator in the
    exponent vanishes, VanishingDenominator when one outside it does."""
    return _closed_form(id, id, vals, order)


def _closed_form(id: str, family: str, vals: dict, order: int) -> TruncSeries:
    """``egf_closed_form`` of ``id``; an error names ``family``, which for
    a binomial shift is the outer family."""
    v = {k: Fraction(val) for k, val in vals.items()}
    source = getattr(CATALOG.get(id), "source", None)
    if source is not None and source[0] in ("F1a", "F2a", "F7a"):  # stated below
        return _transported(CATALOG[id], family, v, order)
    x = MPoly.variable("x", ("x",))

    def rf(num, den):
        if felem_is_zero(den):
            raise NonRationalExponent("%s: exponent denominator vanishes" % family)
        return felem_div(num, den)

    def f1a_base(b, ap):
        c = b - ap * x
        if felem_is_zero(c):
            raise VanishingDenominator("%s: denominator beta - alphap*x vanishes" % family)
        return (TruncSeries(order, [b] + [0] * order)
                - exp_series(c, order).scale(ap * x)) * felem_div(1, c)

    if id == "F1a":
        b, ap, gp = v["beta"], v["alphap"], v["gammap"]
        return generalized_binomial_series(f1a_base(b, ap), rf(-gp, ap))
    if id == "F2a":
        ap, bp, gp = v["alphap"], v["betap"], v["gammap"]
        base = TruncSeries(order, [1, -(ap + bp) * x])
        return generalized_binomial_series(base, rf(-(ap + bp + gp), ap + bp))
    if id == "F5":
        a, g, ap, gp = v["alpha"], v["gamma"], v["alphap"], v["gammap"]
        base = TruncSeries(order, [1, -(a + ap * x)])
        return generalized_binomial_series(
            base, rf(-((a + g) + (ap + gp) * x), a + ap * x))
    if id == "F7a":
        inner, xi = _BINOMIAL_SHIFTS[id]
        inner_vals = {p: v[p] for p in CATALOG[inner].params}
        return exp_series(xi(v, x), order) * _closed_form(inner, family, inner_vals, order)
    if id == "F1c":
        b, g, ap, gp = v["beta"], v["gamma"], v["alphap"], v["gammap"]
        pre = exp_series((b - ap * x) * rf(g, b), order)
        expo = rf(-g, b) + rf(-gp, ap)
        return pre * generalized_binomial_series(f1a_base(b, ap), expo)
    if id in ("GKPZ", "GKPZ-ALT"):
        b, g, ap, gp, kp = (v["beta"], v["gamma"], v["alphap"], v["gammap"],
                            v["kappa"])
        r, M = rf(g, b), rf(gp + kp * (b - g), ap + kp * b)
        if id == "GKPZ":
            a_val, c_val = (b - ap * x) * r, b - ap * x
            b_val = felem_div((ap + kp * b) * x, b - ap * x)
        else:
            a_val, c_val = (b - ap * x) * (-M), -(b - ap * x)
            b_val = felem_div(-b * (1 + kp * x), b - ap * x)
        pre = exp_series(a_val, order)
        bracket = 1 - (exp_series(c_val, order) - 1) * b_val
        return pre * generalized_binomial_series(bracket, -(r + M))
    raise UnknownFamily(id)


def _transported(spec: FamilySpec, family: str, vals: dict, order: int) -> TruncSeries:
    """The egf of a derived family at numeric vals, F_mu(m(x), lambda t):
    [t^n] of the representative's egf at the binding of ``_pullback`` maps
    as a form of degree n, P -> H_n(ax + b, cx + d) / w^n, once m's common
    factor is divided out.  Errors name ``family``, and the representative
    and the word where its form fails."""
    rep, word = spec.source
    binding, m = _pullback(spec)
    m = _common_factor(list(m))[1]
    at = lambda e: Fraction(e.subs(vals) or 0)
    for den in (m[4], *(e.den for e in binding.values() if isinstance(e, RatFunc))):
        if not at(den):
            raise VanishingDenominator("%s: denominator %r vanishes"
                                       % (family, den / _lead_content(den)))
    try:
        series = _closed_form(rep, rep, {p: at(e) for p, e in binding.items()}, order)
    except (NonRationalExponent, VanishingDenominator) as err:
        raise type(err)("%s: %s vanishes in %s's form under %s"
                        % (family, err.what, rep, word)) from None
    a, b, c, d, w = map(at, m)
    forms = [[x_coeffs(p).get(i, 0) for i in range(n + 1)]
             for n, p in enumerate(series.coeffs)]
    rows = substitute(forms, (a, b, c, d), MPoly.variable("x", ("x",)))
    return TruncSeries(order, [h / w ** n for n, h in enumerate(rows)])


def verify_egf_closed_forms(id: str, numeric_params, N: int = 8) -> dict:
    """Expand the cited closed-form egf and compare with the triangle egf.
    GKPZ is first compared with its GKPZ-ALT parametrization: a failure
    names the first order where the two differ."""
    spec = get_family(id)
    vals = _resolve_params(spec, numeric_params)
    mu = spec.template({k: Fraction(v) for k, v in vals.items()})
    want = egf_trunc(triangle(mu, N))
    got = egf_closed_form(id, vals, N)
    alt = egf_closed_form("GKPZ-ALT", vals, N).coeffs if id == "GKPZ" else ()
    bad = first_mismatch(chain(
        (({"order": n, "against": "GKPZ-ALT"}, g, a)
         for n, g, a in zip(count(), got.coeffs, alt)),
        (({"order": n}, g, w) for n, g, w in zip(count(), got.coeffs, want.coeffs))))
    return {"id": id, **mismatch_report(bad)}
