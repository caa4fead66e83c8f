"""Continued-fraction machinery for ordinary generating functions:

* extraction of S-type and J-type coefficients from a truncated series,
* the one reading and refutation of a predicted S- or J-fraction: it is
  read through the levels that extraction reads (with no stated end it
  ends at its first zero coefficient, and a stated end beyond those levels
  is not claimed), evaluated as a path sum and compared with the series
  coefficient by coefficient; only a refuted prediction is extracted, up
  to the level where the series leaves it, and the witness is its earliest
  departure: the first differing coefficient, else the unexpected or
  missing end,
* evaluation of S-, T- and J-fractions as weighted Dyck, Schroeder and
  Motzkin path sums (Flajolet, Discrete Math. 32, 1980), tabulated as in
  the production matrices of Petreolle-Sokal-Zhu (arXiv:1807.03271),
* even contraction (S or special T -> J),
* the shifted binomial transform and its coefficient laws.

One J iteration does all extraction, and one J path sum all confirmation:
the S-fraction c_1, c_2, ... of a(t) is the J-fraction of a(t^2) with every
e_k = 0 and f_k = c_k, as Dyck paths are the Motzkin paths without level
steps.  The iteration runs on a pair of polynomial-coefficient series
representing the current convergent as a quotient, so only one
rational-function reduction is needed per level.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Optional, Sequence

from .exactalg import (
    MPoly, TruncSeries, _common_factor, clear_denominators,
    felem_div, felem_eq, felem_is_zero, felem_to_json, first_mismatch, num_den,
)


class InsufficientDepth(ValueError):
    pass


class NotContractible(ValueError):
    pass


class NonExtractableSeries(ValueError):
    """A t-coefficient vanished while the tail did not: no S-/J-fraction."""


@dataclass(frozen=True)
class CFrac:
    """Tagged coefficient bundle for S-, T- or J-type continued fractions.

    ``terminated_at`` records the level i at which extraction found an
    identically zero coefficient (the fraction is then finite)."""
    kind: str
    c: tuple = ()
    d: tuple = ()
    e: tuple = ()
    f: tuple = ()
    terminated_at: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("S", "T", "J"):
            raise ValueError("kind must be S, T or J")

    def to_json(self):
        return {
            "kind": self.kind,
            "c": [felem_to_json(v) for v in self.c],
            "d": [felem_to_json(v) for v in self.d],
            "e": [felem_to_json(v) for v in self.e],
            "f": [felem_to_json(v) for v in self.f],
            "terminated_at": self.terminated_at,
        }


# ---------------------------------------------------------------------------
# extraction: one J iteration, S as the J-fraction of a(t^2)
# ---------------------------------------------------------------------------

def _strip_content(A, B):
    """Remove a common polynomial factor of all coefficients of A and B,
    which are MPoly values or scalars.  Zero entries take no part in the
    gcd and stay as they are."""
    entries = A + B
    if any(c and not isinstance(c, MPoly) for c in entries):
        return A, B
    polys = [i for i, c in enumerate(entries) if c]
    g, quos = _common_factor([entries[i] for i in polys])
    if g.is_constant():
        return A, B
    for i, q in zip(polys, quos):
        entries[i] = q
    return entries[:len(A)], entries[len(A):]


def _check_series(a: TruncSeries, order: int):
    if not felem_eq(a.coeffs[0], 1):
        raise ValueError("series must have constant term 1")
    if order > a.order:
        raise InsufficientDepth("need order >= %d, have %d" % (order, a.order))


def _in_t_squared(a: TruncSeries) -> TruncSeries:
    """a(t^2), to order 2 * a.order: its J-fraction is e = 0, f = the S
    coefficients of a(t)."""
    coeffs = [0] * (2 * a.order + 1)
    coeffs[::2] = a.coeffs
    return TruncSeries(2 * a.order, coeffs)


def _extract(a: TruncSeries, m: int, name: str) -> CFrac:
    """e_0..e_{m-1}, f_1..f_m of a series with [t^0] = 1 and order >= 2m,
    ``name`` naming the f in the error of a series that is not extractable.

    Level step: 1 - 1/g_k = e_k t + f_{k+1} t^2 g_{k+1} on g_k = A/B; stops
    early when some f vanishes identically, which requires the whole tail
    to vanish."""
    A, L = clear_denominators(a.coeffs, ())
    B = [L] + [0] * a.order
    es, fs = [], []
    for k in range(m):
        C = [x - y for x, y in zip(A, B)]
        ek = felem_div(C[1], A[0])
        es.append(ek)
        p, q = num_den(ek)
        if not felem_is_zero(ek):
            # C = q*(A - B) - p*t*A  has zero t^0 and t^1 coefficients; with
            # e_k = 0, as at every level of a(t^2), p = 0, q = 1 and C = A - B
            C = [q * C[j] - (p * A[j - 1] if j >= 1 else 0) for j in range(len(A))]
        fk = felem_div(C[2], q * A[0])
        if felem_is_zero(fk):
            if any(not felem_is_zero(x) for x in C[2:]):
                raise NonExtractableSeries(
                    "%s_%d vanishes but the series continues" % (name, k + 1))
            return CFrac("J", e=tuple(es), f=tuple(fs), terminated_at=k + 1)
        fs.append(fk)
        p2, q2 = num_den(fk)
        A, B = _strip_content([q2 * x for x in C[2:]],
                              [(p2 * q) * x for x in A[:-2]])
    return CFrac("J", e=tuple(es), f=tuple(fs))


def extract_sfrac(a: TruncSeries, m: int) -> CFrac:
    """S-fraction coefficients c_1..c_m of a series with [t^0] = 1.

    They are f_1..f_m of the J-fraction of a(t^2), whose e_k all vanish;
    ``terminated_at`` is set when some c_k vanishes identically."""
    _check_series(a, m)
    j = _extract(_in_t_squared(a), m, "c")
    return CFrac("S", c=j.f, terminated_at=j.terminated_at)


def extract_jfrac(a: TruncSeries, m: int) -> CFrac:
    """J-fraction coefficients e_0..e_{m-1}, f_1..f_m of a series with
    [t^0] = 1; needs order >= 2m."""
    _check_series(a, 2 * m)
    return _extract(a, m, "f")


# ---------------------------------------------------------------------------
# evaluation by weighted lattice paths
# ---------------------------------------------------------------------------

def _add_product(acc, a, b):
    """acc + a*b, skipping the product when a factor is zero."""
    if felem_is_zero(a) or felem_is_zero(b):
        return acc
    return acc + a * b


def _path_series(down: Sequence, level: Sequence, step: int, order: int) -> TruncSeries:
    """Flajolet's path sums ("Combinatorial aspects of continued fractions"),
    without division.

    M[s][h] is the total weight of the paths from height 0 to height h in s
    steps: an up step weighs 1, a down step from h+1 to h weighs down[h],
    and a level step of length ``step`` at height h weighs level[h].
    [t^n] of the fraction is M[step*n][0].  Heights are capped at
    min(s, S - s) with S = step*order: no higher path returns to 0 by S."""
    length = step * order
    rows = [[1]]
    for s in range(1, length + 1):
        prev = rows[s - 1]
        back = rows[s - step] if s >= step else ()
        row = []
        for h in range(min(s, length - s) + 1):
            acc = prev[h - 1] if h else 0
            if h + 1 < len(prev):
                acc = _add_product(acc, down[h], prev[h + 1])
            if h < len(back):
                acc = _add_product(acc, level[h], back[h])
            row.append(acc)
        rows.append(row)
    return TruncSeries(order, [rows[step * n][0] for n in range(order + 1)])


def eval_sr(c: Sequence, order: int) -> TruncSeries:
    """Truncated series of the S-fraction with coefficients c_1..c_m:
    Dyck paths, c_{h+1} on a fall from height h+1."""
    if len(c) < order:
        raise InsufficientDepth("S-fraction to order %d needs %d levels, got %d"
                                % (order, order, len(c)))
    return _path_series(c, [0] * order, 2, order)


def _departure(a: TruncSeries, want: CFrac):
    """(claim, m): the J claim that ``want`` reads as, and the levels m
    that extraction reads to reach the first t^n at which the series leaves
    it: None when the series confirms it, all of them when it cannot tell.
    An S prediction c on a is read as the J prediction e = 0, f = c on
    a(t^2), e one zero longer for an end, as it is extracted.

    The only Motzkin paths that reach height k in 2k or 2k + 1 steps rise
    and fall straight, once with a level step at height k: [t^{2k}] of a
    J-fraction is f_1 ... f_k plus a polynomial in e_<k, f_<k, and
    [t^{2k+1}] is f_1 ... f_k e_k plus one in e_<k, f_<=k.  So when the
    claimed f_i before its end L are nonzero, the series agrees with the
    claim (coefficients from L on taken as zero) exactly when extraction
    returns it: through t^N, or through t^{2m} for a fraction that does not
    end, as extraction of m levels reads no further; and the first t^n at
    which they differ is the first that extraction of (n + 1) // 2 levels
    reads differently.  The series cannot tell when a claimed f before L is
    zero (a zero before a stated end) or when the lists are shorter than
    the levels they claim."""
    if want.kind == "S":
        a = _in_t_squared(a)
        want = CFrac("J", e=(0,) * (len(want.c) + 1), f=want.c,
                     terminated_at=want.terminated_at)
    levels = a.order // 2
    L = want.terminated_at
    if L is None:
        L = next((k for k, v in enumerate(want.f[:levels], 1) if felem_is_zero(v)), None)
    elif L > levels:
        L = None
    known, e_known = (levels, levels) if L is None else (L - 1, L)
    claim = CFrac("J", e=want.e[:e_known], f=want.f[:known], terminated_at=L)
    if len(claim.f) < known or len(claim.e) < e_known or \
            any(felem_is_zero(v) for v in claim.f):
        return claim, levels
    order = 2 * levels if L is None else a.order
    bad = first_mismatch(zip(count(), a.coeffs, eval_cfrac(claim, order).coeffs))
    return claim, None if bad is None else min((bad[0] + 1) // 2, levels)


def cfrac_refutation(a: TruncSeries, want: CFrac, name: str) -> Optional[dict]:
    """None when the series confirms the S or J prediction ``want``, read
    through the levels that extraction reads (``_departure``): with no
    stated end it ends at its first zero c or f, and a stated end beyond
    those levels is not claimed.  Otherwise the ``first_mismatch`` witness
    of its earliest departure from extraction, which reads only up to the
    level where the series leaves the prediction (all levels where the
    series cannot tell): the first differing coefficient, c_i at level i of
    an S prediction and e_n, f_n at ("e", n), ("f", n) of a J one, else the
    unexpected or missing end.  If the extraction agrees after all, the
    series check is at fault and ``ArithmeticError`` is raised."""
    claim, m = _departure(a, want)
    if m is None:
        return None
    s = want.kind == "S"
    got = extract_sfrac(a, m) if s else extract_jfrac(a, m)
    # each coefficient at the first t^n that it moves: e_n at 2n + 1 and f_n
    # at 2n (an S prediction has no e to compare)
    pairs = [(2 * n + 1, ("e", n), g, w) for n, (g, w) in enumerate(zip(got.e, claim.e))]
    pairs += [(2 * n, n if s else ("f", n), g, w)
              for n, (g, w) in enumerate(zip(got.c if s else got.f, claim.f), 1)]
    bad = first_mismatch(p[1:] for p in sorted(pairs))
    if bad is not None:
        level, g, w = bad
        return {"level": level, "expected": repr(w), "got": repr(g)}
    if got.terminated_at != claim.terminated_at:
        return {"level": got.terminated_at, "expected": "nonterminating"
                if claim.terminated_at is None else "termination at %d" % claim.terminated_at}
    raise ArithmeticError("%s: the series refutes the prediction but "
                          "extraction confirms it" % name)


def eval_tr(c: Sequence, d: Sequence, order: int) -> TruncSeries:
    """Truncated series of the T-fraction with coefficients (c_i, d_i):
    Schroeder paths, d_{h+1} on a level step of length 2 at height h."""
    if len(c) < order or len(d) < order:
        raise InsufficientDepth("T-fraction to order %d needs %d levels, got %d c"
                                " and %d d" % (order, order, len(c), len(d)))
    return _path_series(c, d, 2, order)


def eval_jr(e: Sequence, f: Sequence, order: int) -> TruncSeries:
    """Truncated series of the J-fraction with coefficients (e_i, f_i):
    Motzkin paths, e_h on a level step at height h, f_{h+1} on a fall
    from height h+1."""
    levels = (order + 1) // 2
    if len(e) < levels or len(f) < order // 2:
        raise InsufficientDepth("J-fraction to order %d needs %d e and %d f levels,"
                                " got %d and %d" % (order, levels, order // 2, len(e), len(f)))
    return _path_series(f, e, 1, order)


def eval_cfrac(cf: CFrac, order: int) -> TruncSeries:
    if cf.kind == "S":
        c = list(cf.c)
        if cf.terminated_at is not None:
            c = c + [0] * (order - len(c))
        return eval_sr(c, order)
    if cf.kind == "T":
        return eval_tr(list(cf.c), list(cf.d), order)
    e = list(cf.e)
    f = list(cf.f)
    if cf.terminated_at is not None:
        e = e + [0] * ((order + 1) // 2 - len(e))
        f = f + [0] * (order // 2 - len(f))
    return eval_jr(e, f, order)


# ---------------------------------------------------------------------------
# contraction and binomial transform
# ---------------------------------------------------------------------------

def _check_odd(d):
    """Even contraction and the T laws need the even-level d_i to vanish."""
    for i in range(2, len(d) + 1, 2):
        if not felem_is_zero(d[i - 1]):
            raise NotContractible("d_%d must vanish for even contraction" % i)


def contract(cf: CFrac) -> CFrac:
    """Even contraction of an S-fraction, or of a T-fraction whose even-level
    d coefficients vanish, into a J-fraction."""
    if cf.kind == "S":
        c = list(cf.c)
        d = [0] * len(c)
    elif cf.kind == "T":
        c = list(cf.c)
        d = list(cf.d)
        _check_odd(d)
    else:
        raise NotContractible("input must be S or T kind")
    if not c:
        return CFrac("J")
    # 0-based lists: f_n = c_{2n-1} c_{2n}, e_0 = c_1 + d_1 and
    # e_n = c_{2n} + c_{2n+1} + d_{2n+1}, the d term only where it is given
    f = [c[2 * n - 2] * c[2 * n - 1] for n in range(1, len(c) // 2 + 1)]
    e = [c[0] + d[0]] + [
        c[2 * n - 1] + c[2 * n] + d[2 * n] if 2 * n < len(d)
        else c[2 * n - 1] + c[2 * n]
        for n in range(1, (len(c) + 1) // 2)]
    return CFrac("J", e=tuple(e), f=tuple(f))


def binomial_transform_seq(a: TruncSeries, xi) -> TruncSeries:
    """b_n = sum_k C(n,k) a_k xi^{n-k}, cross-checked against the ogf
    substitution law b(t) = (1-xi t)^{-1} a(t/(1-xi t)) (``_cross_check``)."""
    n = a.order
    out = []
    for i in range(n + 1):
        acc = None
        binom = 1
        for k in range(i, -1, -1):
            # binom = C(i, k)
            term = binom * a.coeffs[k]
            if i - k:
                term = term * xi ** (i - k)
            acc = term if acc is None else acc + term
            binom = binom * k // (i - k + 1)
        out.append(acc)
    direct = TruncSeries(n, out)
    geom = TruncSeries(n, [1] + [xi ** j for j in range(1, n + 1)])  # 1/(1-xi t)
    inner = geom.shift_up()  # t/(1-xi t)
    _cross_check(direct, a.compose(inner) * geom, "binomial transform laws disagree")
    return direct


def _cross_check(got: TruncSeries, want: TruncSeries, what: str) -> None:
    """Raise ArithmeticError naming the first t^n at which the two sides of
    an internal cross-check differ."""
    bad = first_mismatch(zip(count(), got.coeffs, want.coeffs))
    if bad is not None:
        raise ArithmeticError("%s at t^%d" % (what, bad[0]))


def transform_laws(kind: str, coeffs, xi, verify_order: Optional[int] = None) -> CFrac:
    """Coefficient bundle of the xi-binomial transform.

    kind: "S->T", "T->T", "J->J", "S->J", "T->J".  For T inputs the even-
    level d's must vanish.  With ``verify_order`` set, the output is checked
    against binomial_transform_seq applied to the evaluated input
    (``_cross_check``)."""
    def oddpattern(m):
        return tuple(xi if i % 2 == 0 else 0 for i in range(m))

    def shift_e(j):  # the J->J law
        return CFrac("J", e=tuple(ei + xi for ei in j.e), f=j.f)

    if kind == "S->T":
        c = tuple(coeffs)
        out = CFrac("T", c=c, d=oddpattern(len(c)))
        src = CFrac("S", c=c)
    elif kind == "T->T":
        c, d = (tuple(coeffs[0]), tuple(coeffs[1]))
        _check_odd(d)
        out = CFrac("T", c=c, d=tuple(di + xi if i % 2 == 0 else di
                                      for i, di in enumerate(d)))
        src = CFrac("T", c=c, d=d)
    elif kind == "J->J":
        src = CFrac("J", e=tuple(coeffs[0]), f=tuple(coeffs[1]))
        out = shift_e(src)
    elif kind == "S->J":
        # S->J and T->J: the J->J law applied to the even contraction
        src = CFrac("S", c=tuple(coeffs))
        out = shift_e(contract(src))
    elif kind == "T->J":
        src = CFrac("T", c=tuple(coeffs[0]), d=tuple(coeffs[1]))
        out = shift_e(contract(src))
    else:
        raise ValueError("unknown transform kind %r" % kind)

    if verify_order is not None:
        _cross_check(eval_cfrac(out, verify_order),
                     binomial_transform_seq(eval_cfrac(src, verify_order), xi),
                     "%s transform law failed verification" % kind)
    return out

