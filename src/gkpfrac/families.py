"""Catalog of the named parameter families and their predicted continued
fractions, with end-to-end verification harnesses.

Each family record carries a parameter template, the closed-form fraction
coefficients (S, T or J kind), an epistemic status flag, and the side
conditions under which the first few coefficients are nonzero.  The thirteen
``b`` families F1b-F4b, F7b-F9b and s1b-s6b state no coefficients: each is
the image of its ``a`` twin under the row reversal D of ``symmetry``, which
sends T(n, k) to T(n, n-k).  Since P_n(x; D mu) = x^n P_n(1/x; mu), each of
their coefficients is x c(1/x), where c is the twin's coefficient at the
D-image of the point.  Verification regenerates the triangle and compares
its ogf with the prediction, symbolically in all free parameters; an S or J
prediction is read and refuted by ``cfrac.cfrac_refutation`` alone.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from typing import Callable, Optional

from .exactalg import (
    MPoly, TruncSeries, exp_series, felem_div, felem_eq,
    felem_is_zero, first_mismatch, generalized_binomial_series, mismatch_report,
    variables, x_coeffs,
)
from .gkpcore import (
    GKPParams, GKPZParams, UnknownFamily, egf_trunc, gkp_triangle, ogf_trunc,
    row_polys, triangle, triangle_mismatch,
)
from .cfrac import (
    CFrac, binomial_transform_seq, cfrac_refutation, contract, eval_tr,
)
from .matprod import binomial_matrix, triangle_product
from .symmetry import D, apply_map


class ArityMismatch(ValueError):
    pass


class NonRationalExponent(ValueError):
    pass


class VanishingDenominator(ValueError):
    """A closed form's denominator outside the exponent is zero at the
    given parameters."""


@dataclass(frozen=True)
class FamilySpec:
    id: str
    params: tuple                       # free-parameter names, in order
    kind: str                           # "S", "T" or "J"
    status: str                         # proven | conjectured | terminating
    template: Callable                  # params dict -> GKPParams/GKPZParams
    coeffs: Optional[Callable] = None   # (vals, level) -> coefficient(s)
    side_conditions: tuple = ()         # inequations (strings, documentation)
    terminating_cs: Optional[Callable] = None
    terminates_at: Optional[int] = None
    twin: Optional[str] = None          # the a family this is the D-image
                                        # of, which states its coefficients


def _sym(spec: FamilySpec) -> dict:
    names = spec.params
    gens = variables(names, extra=("x",))
    return dict(zip(names, gens))


def _xvar(vals: dict) -> MPoly:
    any_poly = next(iter(vals.values()))
    if isinstance(any_poly, MPoly) and "x" in any_poly.vars:
        return MPoly.variable("x", any_poly.vars)
    return MPoly.variable("x", ("x",))


# --- family coefficient formulas -------------------------------------------

def _s_pair(odd: Callable, even: Callable) -> Callable:
    """The level-i rule of an S family, or of a T family split by parity,
    whose coefficients at levels 2k-1 and 2k are ``odd(vals, k)`` and
    ``even(vals, k)``."""
    def coeffs(vals, i):
        k = (i + 1) // 2
        return odd(vals, k) if i % 2 else even(vals, k)
    return coeffs


def _make_catalog():
    cat = {}

    def add(spec):
        cat[spec.id] = spec

    def mirror(id, twin, names, template, side_conditions=()):
        a = cat[twin]
        add(FamilySpec(id, names, a.kind, a.status, template,
                       side_conditions=side_conditions, twin=twin))

    # ---- the ten S-fraction families --------------------------------------
    add(FamilySpec(
        "F1a", ("beta", "alphap", "gammap"), "S", "proven",
        lambda v: GKPParams(0, v["beta"], 0, v["alphap"], -v["alphap"], v["gammap"]),
        _s_pair(lambda v, k: (v["gammap"] + (k - 1) * v["alphap"]) * _xvar(v),
                lambda v, k: k * v["beta"]),
        side_conditions=("alphap+gammap != 0", "beta*gammap != 0")))
    mirror("F1b", "F1a", ("beta", "gamma", "alphap"),
           lambda v: GKPParams(0, v["beta"], v["gamma"], v["alphap"], -v["alphap"], 0),
           ("beta+gamma != 0", "gamma*alphap != 0"))
    add(FamilySpec(
        "F2a", ("alpha", "alphap", "betap", "gammap"), "S", "proven",
        lambda v: GKPParams(v["alpha"], -v["alpha"], -v["alpha"],
                            v["alphap"], v["betap"], v["gammap"]),
        _s_pair(lambda v, k: (v["gammap"] + k * (v["alphap"] + v["betap"])) * _xvar(v),
                lambda v, k: k * (v["alphap"] + v["betap"]) * _xvar(v)),
        side_conditions=("alphap+betap != 0", "alphap+betap+gammap != 0",
                         "2alphap+2betap+gammap != 0")))
    mirror("F2b", "F2a", ("alpha", "beta", "gamma", "betap"),
           lambda v: GKPParams(v["alpha"], v["beta"], v["gamma"], 0,
                               v["betap"], -v["betap"]),
           ("alpha != 0", "alpha+gamma != 0", "2alpha+gamma != 0"))
    add(FamilySpec(
        "F3a", ("beta", "betap", "gammap"), "S", "proven",
        lambda v: GKPParams(0, v["beta"], 0, 0, v["betap"], v["gammap"]),
        _s_pair(lambda v, k: (v["gammap"] + k * v["betap"]) * _xvar(v),
                lambda v, k: k * (v["beta"] + v["betap"] * _xvar(v))),
        side_conditions=("betap != 0", "betap+gammap != 0", "2betap+gammap != 0")))
    mirror("F3b", "F3a", ("alpha", "gamma", "alphap"),
           lambda v: GKPParams(v["alpha"], -v["alpha"], v["gamma"],
                               v["alphap"], -v["alphap"], 0),
           ("alphap != 0", "alpha+gamma != 0", "2alpha+gamma != 0"))
    add(FamilySpec(
        "F4a", ("betap", "gammap", "kappa"), "S", "proven",
        lambda v: GKPParams(0, v["kappa"] * v["betap"],
                            v["kappa"] * (v["betap"] + v["gammap"]),
                            0, v["betap"], v["gammap"]),
        _s_pair(lambda v, k: (v["gammap"] + k * v["betap"]) * (v["kappa"] + _xvar(v)),
                lambda v, k: k * v["betap"] * _xvar(v)),
        side_conditions=("betap+gammap != 0", "2betap+gammap != 0",
                         "kappa*betap != 0")))
    mirror("F4b", "F4a", ("alpha", "gamma", "kappa"),
           lambda v: GKPParams(v["alpha"], -v["alpha"], v["gamma"],
                               v["kappa"] * v["alpha"], -v["kappa"] * v["alpha"],
                               v["kappa"] * (v["alpha"] + v["gamma"])),
           ("alpha+gamma != 0", "2alpha+gamma != 0", "alpha*kappa != 0"))
    add(FamilySpec(
        "F5", ("alpha", "gamma", "alphap", "gammap"), "S", "proven",
        lambda v: GKPParams(v["alpha"], 0, v["gamma"], v["alphap"], 0, v["gammap"]),
        _s_pair(lambda v, k: (v["gamma"] + v["gammap"] * _xvar(v))
                + k * (v["alpha"] + v["alphap"] * _xvar(v)),
                lambda v, k: k * (v["alpha"] + v["alphap"] * _xvar(v))),
        side_conditions=("alphap+gammap != 0", "alpha+gamma != 0", "alphap != 0")))
    add(FamilySpec(
        "F6", ("alphap", "betap", "gammap", "kappa"), "S", "proven",
        lambda v: GKPParams(v["kappa"] * (v["alphap"] + v["betap"]),
                            v["kappa"] * v["betap"], v["kappa"] * v["gammap"],
                            v["alphap"], v["betap"], v["gammap"]),
        _s_pair(lambda v, k: (v["gammap"] + k * (v["alphap"] + v["betap"]))
                * (v["kappa"] + _xvar(v)),
                lambda v, k: k * (v["alphap"] + v["betap"]) * (v["kappa"] + _xvar(v))),
        side_conditions=("alphap+betap != 0", "alphap+betap+gammap != 0",
                         "2alphap+2betap+gammap != 0", "alphap != 0")))

    # ---- T / J families ----------------------------------------------------
    # F7a, F7b, F9a and F9b have d = 0 at even levels: their J-forms are
    # the even contraction of their T-forms (predicted_cfrac)
    add(FamilySpec(
        "F7a", ("beta", "gamma", "betap", "gammap"), "T", "proven",
        lambda v: GKPParams(0, v["beta"], v["gamma"], 0, v["betap"], v["gammap"]),
        _s_pair(lambda v, k: ((v["gammap"] + k * v["betap"]) * _xvar(v),
                              v["gamma"]),
                lambda v, k: (k * (v["beta"] + v["betap"] * _xvar(v)), 0))))
    mirror("F7b", "F7a", ("alpha", "gamma", "alphap", "gammap"),
           lambda v: GKPParams(v["alpha"], -v["alpha"], v["gamma"],
                               v["alphap"], -v["alphap"], v["gammap"]))

    add(FamilySpec(
        "F8a", ("beta", "gamma", "alphap"), "T", "proven",
        lambda v: GKPParams(0, v["beta"], v["gamma"],
                            v["alphap"], v["alphap"], -v["alphap"]),
        lambda v, i: (i * v["alphap"] * _xvar(v),
                      v["gamma"] + (i - 1) * v["beta"])))
    mirror("F8b", "F8a", ("alphahat", "alphap", "gammap"),
           lambda v: GKPParams(2 * v["alphahat"], -v["alphahat"], -v["alphahat"],
                               v["alphap"], -v["alphap"], v["gammap"]))

    add(FamilySpec(
        "F9a", ("beta", "alphaphat", "kappa"), "T", "conjectured",
        lambda v: GKPParams(0, v["beta"], (v["kappa"] + 1) * v["beta"],
                            -v["alphaphat"], 2 * v["alphaphat"],
                            v["kappa"] * v["alphaphat"]),
        _s_pair(lambda v, k: ((v["kappa"] + k) * v["alphaphat"] * _xvar(v),
                              (v["kappa"] + 2 * k - 1) * v["beta"]),
                lambda v, k: (k * v["alphaphat"] * _xvar(v), 0))))
    mirror("F9b", "F9a", ("alpha", "alphap", "kappa"),
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
        f1c_J))

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
        gkpz_template, gkpz_J))

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
    mirror("s1b", "s1a", ("alpha", "gammap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -v["alpha"],
                               -2 * v["gammap"], 2 * v["gammap"], v["gammap"]))
    term("s2a", ("gamma", "alphap"),
         lambda v: GKPParams(0, -2 * v["gamma"], v["gamma"],
                             v["alphap"], -2 * v["alphap"], 2 * v["alphap"]),
         lambda v: [v["gamma"] + v["alphap"] * _xvar(v),
                    -v["alphap"] * _xvar(v), -v["gamma"]], 4)
    mirror("s2b", "s2a", ("alpha", "gammap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -2 * v["alpha"],
                               -2 * v["gammap"], 2 * v["gammap"], v["gammap"]))
    term("s3a", ("alpha", "alphap"),
         lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -2 * v["alpha"],
                             v["alphap"], -2 * v["alphap"], v["alphap"]),
         lambda v: [-v["alpha"], v["alpha"] + v["alphap"] * _xvar(v),
                    -v["alphap"] * _xvar(v)], 4)
    mirror("s3b", "s3a", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -v["alpha"],
                               v["alphap"], -2 * v["alphap"], 2 * v["alphap"]))
    term("s4a", ("beta", "alphap"),
         lambda v: GKPParams(0, v["beta"], -v["beta"],
                             v["alphap"], -2 * v["alphap"], v["alphap"]),
         lambda v: [-v["beta"], v["alphap"] * _xvar(v),
                    -v["alphap"] * _xvar(v), v["beta"]], 5)
    mirror("s4b", "s4a", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -v["alpha"],
                               v["alphap"], -v["alphap"], -v["alphap"]))
    term("s5a", ("alpha", "alphap"),
         lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -3 * v["alpha"],
                             v["alphap"], -2 * v["alphap"], v["alphap"]),
         lambda v: [-2 * v["alpha"], v["alpha"] + v["alphap"] * _xvar(v),
                    -v["alpha"] - v["alphap"] * _xvar(v), 2 * v["alpha"]], 5)
    mirror("s5b", "s5a", ("alpha", "alphap"),
           lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -v["alpha"],
                               v["alphap"], -2 * v["alphap"], 3 * v["alphap"]))
    term("s6a", ("alpha", "alphap"),
         lambda v: GKPParams(v["alpha"], -2 * v["alpha"], -3 * v["alpha"],
                             v["alphap"], -v["alphap"], -v["alphap"]),
         lambda v: [-2 * v["alpha"] - v["alphap"] * _xvar(v), v["alpha"],
                    -v["alpha"], 2 * v["alpha"] + v["alphap"] * _xvar(v)], 5)
    mirror("s6b", "s6a", ("beta", "alphap"),
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
    c-list.  A family with a ``twin`` is predicted from it (``_mirrored``)."""
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
    if spec.twin is not None:
        return _mirrored(spec, vals, m)
    if spec.status == "terminating":
        return CFrac("S", c=tuple(spec.terminating_cs(vals)),
                     terminated_at=spec.terminates_at)
    if kind == "S":
        return CFrac("S", c=tuple(spec.coeffs(vals, i) for i in range(1, m + 1)))
    if kind == "T":
        pairs = [spec.coeffs(vals, i) for i in range(1, m + 1)]
        return CFrac("T", c=tuple(p[0] for p in pairs), d=tuple(p[1] for p in pairs))
    pairs = [spec.coeffs(vals, n) for n in range(m + 1)]
    return CFrac("J", e=tuple(p[0] for p in pairs[:m]),
                 f=tuple(pairs[n][1] for n in range(1, m + 1)))


def _mirrored(spec: FamilySpec, vals: dict, m: int) -> CFrac:
    """The S or T prediction of ``spec`` at ``vals``: its twin's at the
    D-image of the point, bound once, with each coefficient c turned into
    x c(1/x) by swapping its x^0 and x^1 coefficients.  ArithmeticError,
    naming both families, means the catalog is at fault: the D-image is
    not a point of the twin, or a coefficient has x-degree above 1."""
    binding = family_binding(spec.twin, apply_map(D, spec.template(vals)))
    if binding is None:
        raise ArithmeticError("%s: the D-image of the point is not inside %s"
                              % (spec.id, spec.twin))
    want = predicted_cfrac(spec.twin, binding, m, spec.kind)
    x = _xvar(vals)

    def flipped(c):
        cx = x_coeffs(c)
        if max(cx, default=0) > 1:
            raise ArithmeticError("%s: coefficient %r of %s has x-degree above 1"
                                  % (spec.id, c, spec.twin))
        return cx.get(1, 0) + cx.get(0, 0) * x

    return replace(want, c=tuple(map(flipped, want.c)),
                   d=tuple(map(flipped, want.d)))


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
    ogf = ogf_trunc(triangle(spec.template(vals), N))
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
    """The published closed-form egf of the family at numeric parameters
    (x stays symbolic).  Raises NonRationalExponent when a parameter
    denominator in the exponent vanishes, and VanishingDenominator, naming
    the family and the expression, when one outside it does."""
    return _closed_form(id, id, vals, order)


def _closed_form(id: str, family: str, vals: dict, order: int) -> TruncSeries:
    """``egf_closed_form`` of ``id``; a VanishingDenominator names
    ``family``, which for a binomial shift is the outer family."""
    x = MPoly.variable("x", ("x",))
    one = MPoly.one(("x",))
    v = {k: Fraction(val) for k, val in vals.items()}

    def rf(num, den):
        if felem_is_zero(den):
            raise NonRationalExponent("exponent denominator vanishes")
        return felem_div(num, den)

    def over(num, den, expr):
        if felem_is_zero(den):
            raise VanishingDenominator("%s: denominator %s vanishes" % (family, expr))
        return felem_div(num, den)

    def f1a_base(b, ap):
        c = b - ap * x
        return (TruncSeries(order, [b] + [0] * order)
                - exp_series(c, order).scale(ap * x)) * over(one, c, "beta - alphap*x")

    if id == "F1a":
        b, ap, gp = v["beta"], v["alphap"], v["gammap"]
        return generalized_binomial_series(f1a_base(b, ap), rf(-gp, ap))
    if id == "F1b":
        b, g, ap = v["beta"], v["gamma"], v["alphap"]
        c = ap * x - b
        base = (TruncSeries(order, [ap * x] + [0] * order)
                - exp_series(c, order).scale(b)) * over(one, c, "alphap*x - beta")
        return generalized_binomial_series(base, rf(-g, b))
    if id == "F2a":
        a, ap, bp, gp = v["alpha"], v["alphap"], v["betap"], v["gammap"]
        y = (ap + bp) * x
        base = TruncSeries(order, [1, -y])
        return generalized_binomial_series(base, rf(-(ap + bp + gp), ap + bp))
    if id == "F2b":
        a, b, g, bp = v["alpha"], v["beta"], v["gamma"], v["betap"]
        base = TruncSeries(order, [1, -a])
        return generalized_binomial_series(base, rf(-(a + g), a))
    if id == "F3a":
        b, bp, gp = v["beta"], v["betap"], v["gammap"]
        u = exp_series(b, order)
        base = 1 + (1 - u).scale(bp * x) * over(one, b, "beta")
        return generalized_binomial_series(base, rf(-(bp + gp), bp))
    if id == "F3b":
        a, g, ap = v["alpha"], v["gamma"], v["alphap"]
        u = exp_series(ap * x, order)
        base = 1 + (1 - u).scale(a) * over(one, ap * x, "alphap*x")
        return generalized_binomial_series(base, rf(-(a + g), a))
    if id == "F4a":
        bp, gp, kp = v["betap"], v["gammap"], v["kappa"]
        u = exp_series(-kp * bp, order)
        base = 1 - (1 - u).scale((kp + x) * over(1, kp, "kappa"))
        return generalized_binomial_series(base, rf(-(bp + gp), bp))
    if id == "F4b":
        a, g, kp = v["alpha"], v["gamma"], v["kappa"]
        u = exp_series(-kp * a * x, order)
        base = 1 - (1 - u).scale(over(1 + kp * x, kp * x, "kappa*x"))
        return generalized_binomial_series(base, rf(-(a + g), a))
    if id == "F5":
        a, g, ap, gp = v["alpha"], v["gamma"], v["alphap"], v["gammap"]
        base = TruncSeries(order, [1, -(a + ap * x)])
        return generalized_binomial_series(
            base, rf(-((a + g) + (ap + gp) * x), a + ap * x))
    if id == "F6":
        ap, bp, gp, kp = v["alphap"], v["betap"], v["gammap"], v["kappa"]
        base = TruncSeries(order, [1, -(ap + bp) * (kp + x)])
        return generalized_binomial_series(base, rf(-(ap + bp + gp), ap + bp))
    if id in _BINOMIAL_SHIFTS:
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
        if felem_is_zero(b) or felem_is_zero(ap + kp * b):
            raise NonRationalExponent("exponent denominator vanishes")
        delta = Fraction(g, 1) / b + Fraction(gp + kp * (b - g), 1) / (ap + kp * b)
        if id == "GKPZ":
            a_val = (b - ap * x) * (Fraction(g, 1) / b)
            c_val = b - ap * x
            b_val = felem_div((ap + kp * b) * x, b - ap * x)
        else:
            M = Fraction(gp + kp * (b - g), 1) / (ap + kp * b)
            a_val = (b - ap * x) * (-M)
            c_val = -(b - ap * x)
            b_val = felem_div(-b * (1 + kp * x), b - ap * x)
        pre = exp_series(a_val, order)
        bracket = 1 - (exp_series(c_val, order) - 1) * b_val
        return pre * generalized_binomial_series(bracket, -delta)
    raise UnknownFamily(id)


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
