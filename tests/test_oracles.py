"""Independent scalar oracles cross-validating the symbolic pipeline.

Everything here avoids the polynomial engine on purpose: triangles are
rebuilt as weighted lattice-path sums, and continued-fraction coefficients
are extracted with plain Fraction arithmetic after substituting random
rational values for every indeterminate (including x).  The one exception
are the extraction oracles: the former iteration of ``extract_sfrac`` on
a(t) itself, which checks the J iteration on a(t^2) that replaced it, and
its J counterpart, which removes no content from the tails.
"""
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gkpfrac import cfrac
from gkpfrac.cfrac import (
    CFrac, NonExtractableSeries, eval_jr, eval_sr, extract_jfrac, extract_sfrac,
)
from gkpfrac.exactalg import (
    MPoly, RatFunc, TruncSeries, as_field, clear_denominators, felem_div,
    felem_is_zero, num_den, variables,
)
from gkpfrac.gkpcore import GKPParams, gkp_triangle
from gkpfrac.families import SFRAC_FAMILY_IDS, family_params, get_family
from gkpfrac.search import BASE, HINT_BOOK, get_node, node_cs


def scalar_sfrac(seq, m):
    """Textbook extraction over plain rationals: c_k = [t^1](1 - 1/f),
    f <- (1 - 1/f)/(c_k t)."""
    f = [Fraction(v) for v in seq]
    assert f[0] == 1
    cs = []
    for _ in range(m):
        # g = 1 - 1/f
        inv = [Fraction(1)]
        for n in range(1, len(f)):
            inv.append(-sum(f[j] * inv[n - j] for j in range(1, n + 1)))
        g = [-v for v in inv]
        g[0] += 1
        if g[1] == 0:
            return cs, True
        cs.append(g[1])
        f = [v / g[1] for v in g[1:]]
    return cs, False


def path_triangle_entry(mu, n, k):
    """T(n,k) as a sum over lattice paths from (0,0) to (n,k): a step
    (i-1,j) -> (i,j) carries weight alpha*i + beta*j + gamma, a step
    (i-1,j-1) -> (i,j) carries alpha'*i + beta'*j + gamma'."""
    a, b, g, ap, bp, gp = (Fraction(v) for v in mu)
    total = Fraction(0)
    for bits in range(1 << n):
        path = [(bits >> i) & 1 for i in range(n)]
        if sum(path) != k:
            continue
        w = Fraction(1)
        h = 0
        for i, step in enumerate(path, start=1):
            h += step
            w *= (ap * i + bp * h + gp) if step else (a * i + b * h + g)
        total += w
    return total


def test_triangle_against_path_sums():
    rng = random.Random(17)
    for _ in range(5):
        mu = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(6))
        t = gkp_triangle(mu, 6)
        for n in range(7):
            for k in range(n + 1):
                assert t.entry(n, k) == path_triangle_entry(mu, n, k), (mu, n, k)


def _eval_felem(value, point):
    value = as_field(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)

    def ev(p):
        # variables absent from the point never occur with a nonzero
        # exponent in a node's substitution values
        out = Fraction(0)
        for e, c in p.terms.items():
            t = Fraction(c)
            for v, k in zip(p.vars, e):
                t *= point.get(v, Fraction(0)) ** k
            out += t
        return out

    if isinstance(value, RatFunc):
        return ev(value.num) / ev(value.den)
    return ev(value)


def _scalar_rowpoly_seq(mu_vals, x0, N):
    t = gkp_triangle(mu_vals, N)
    out = []
    for n in range(N + 1):
        out.append(sum(Fraction(t.entry(n, k)) * x0 ** k
                       for k in range(n + 1)))
    return out


def test_family_coefficients_against_scalar_extraction():
    rng = random.Random(23)
    for fid in SFRAC_FAMILY_IDS:
        spec = get_family(fid)
        for _ in range(2):
            params = {p: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                      for p in spec.params}
            x0 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            mu = tuple(Fraction(v) for v in family_params(fid, params))
            seq = _scalar_rowpoly_seq(mu, x0, 8)
            cs, terminated = scalar_sfrac(seq, 8)
            if terminated:
                continue
            from gkpfrac.families import predicted_cfrac
            want = predicted_cfrac(fid, params, 8)
            point = dict(params)
            point["x"] = x0
            for got, pred in zip(cs, want.c):
                assert got == _eval_felem(pred, point), (fid, params)


def test_search_nodes_against_scalar_extraction():
    """Every documented node: the symbolic coefficients, evaluated at a
    random rational point of the node's manifold, agree with the scalar
    extraction from the numerically generated sequence."""
    rng = random.Random(31)
    for label in sorted(HINT_BOOK):
        node = get_node(",".join(label))
        depth = min(node.depth + 1, 6)
        cs, terminated = node_cs(node, depth)
        for attempt in range(40):
            point = {p: Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                     for p in node.free}
            point["x"] = Fraction(rng.randint(1, 5), rng.randint(1, 2))
            if any(_eval_felem(a, point) == 0 for a in node.atoms):
                continue
            mu_vals = tuple(_eval_felem(node.subs[p], point) for p in BASE)
            seq = _scalar_rowpoly_seq(mu_vals, point["x"], depth)
            got, term2 = scalar_sfrac(seq, depth)
            if term2 or len(got) < len(cs):
                continue
            for sym, val in zip(cs, got):
                assert _eval_felem(sym, point) == val, (label, point)
            break
        else:
            raise AssertionError("no usable sample for %s" % (label,))


X, Y = variables("x y")


def quotient_sfrac(a, m):
    """The former S iteration on a(t): f_0 = a, c_k = [t^1](1 - 1/f_{k-1}),
    f_k = (1 - 1/f_{k-1})/(c_k t), with f_k kept as a quotient A/B of
    polynomial-coefficient series.  No content is removed: that rescales A
    and B alike and leaves every c_k as it is."""
    A, L = clear_denominators(a.coeffs, ())
    B = [L] + [0] * a.order
    cs = []
    for k in range(1, m + 1):
        diff = [x - y for x, y in zip(A, B)]
        ck = felem_div(diff[1], A[0])
        if felem_is_zero(ck):
            if any(not felem_is_zero(as_field(x)) for x in diff[1:]):
                raise NonExtractableSeries(
                    "c_%d vanishes but the series continues" % k)
            return CFrac("S", c=tuple(cs), terminated_at=k)
        cs.append(ck)
        p, q = num_den(ck)
        A, B = [q * x for x in diff[1:]], [p * x for x in A[:-1]]
    return CFrac("S", c=tuple(cs))


@st.composite
def series_with_constant_term_1(draw):
    """Order 1-5, coefficients all scalar, all MPoly or partly RatFunc over
    x, y, a quarter of them zero: the S-fraction of drawn coefficients,
    which a zero makes terminate, or the coefficients drawn outright, where
    a zero t-coefficient with a nonzero tail makes the series not
    extractable."""
    kind = draw(st.sampled_from(["scalar", "mpoly", "ratfunc"]))
    small = st.integers(-2, 2)

    def value():
        if draw(st.integers(0, 3)) == 0:
            return 0 * X if kind != "scalar" else 0
        if kind == "scalar":
            return Fraction(draw(small), draw(st.integers(1, 3)))
        p = draw(small) + draw(small) * X + draw(small) * Y
        return p if kind == "mpoly" else felem_div(p, draw(small) * X + Y + 1)

    order = draw(st.integers(1, 5))
    values = [value() for _ in range(order)]
    if draw(st.booleans()):
        return eval_sr(values, order)
    return TruncSeries(order, [1] + values)


def quotient_jfrac(a, m):
    """The J counterpart of ``quotient_sfrac``: g_0 = a, e_k = [t^1] of
    1 - 1/g_k and g_{k+1} = (1 - 1/g_k - e_k t)/(f_{k+1} t^2), f_{k+1} its
    [t^2], with g_k kept as a quotient A/B of polynomial-coefficient series
    and no content removed."""
    A, L = clear_denominators(a.coeffs, ())
    B = [L] + [0] * a.order
    es, fs = [], []
    for k in range(1, m + 1):
        # 1 - 1/g_k - e_k t = (q (A - B) - p t A)/(q A), with e_k = p/q
        ek = felem_div(A[1] - B[1], A[0])
        es.append(ek)
        p, q = num_den(ek)
        diff = [q * (x - y) - (p * A[j - 1] if j else 0)
                for j, (x, y) in enumerate(zip(A, B))]
        fk = felem_div(diff[2], q * A[0])
        if felem_is_zero(fk):
            if any(not felem_is_zero(as_field(x)) for x in diff[2:]):
                raise NonExtractableSeries(
                    "f_%d vanishes but the series continues" % k)
            return CFrac("J", e=tuple(es), f=tuple(fs), terminated_at=k)
        fs.append(fk)
        p2, q2 = num_den(fk)
        A, B = [q2 * x for x in diff[2:]], [p2 * q * x for x in A[:-2]]
    return CFrac("J", e=tuple(es), f=tuple(fs))


def extraction_outcome(extract, a, m=None):
    try:
        return extract(a, a.order if m is None else m).to_json()
    except NonExtractableSeries as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(series_with_constant_term_1())
@example(TruncSeries(4, [1, 0, 1]))
@example(TruncSeries(3, [1, 0 * X, X, Y]))
@example(TruncSeries(3, [1, X, X * X, felem_div(X, Y + 1)]))
@example(eval_sr([felem_div(X, Y + 1), 0 * X, 0 * X], 3))
def test_sfrac_extraction_against_the_quotient_iteration(a):
    assert extraction_outcome(extract_sfrac, a) == \
        extraction_outcome(quotient_sfrac, a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(series_with_constant_term_1())
@example(TruncSeries(6, [1, X, X + Y, X * Y + 1, Y, X, 1]))
def test_jfrac_extraction_against_the_quotient_iteration(a):
    m = a.order // 2
    assert extraction_outcome(extract_jfrac, a, m) == \
        extraction_outcome(quotient_jfrac, a, m)


# Series on which every level's f_k = p_k/q_k has a numerator p_k that
# divides the whole tail, so that the next tail is divided by p_k and no
# content gcd is taken; series on which p_k does not divide it at the
# first level, so that ``_strip_content`` takes the gcd; and series whose
# first tail divides by p_k = x up to a nonzero scalar entry.
KNOWN_FACTOR = {"S": eval_sr([X + 1, X + Y, 2 * X, Y + 1, X - Y], 5),
                "J": eval_jr([X, Y, X + Y, 1], [X + 1, Y + 2, X * Y], 6)}
CONTENT_GCD = {"S": TruncSeries(4, [1, X, X + Y, X * Y + 1, Y]),
               "J": TruncSeries(6, [1, X, X + Y, X * Y + 1, Y, X, 1])}
SCALAR_ENTRY = {"S": TruncSeries(3, [1, X, X * X + X, 1]),
                "J": TruncSeries(6, [1, 0, X, 0, X * X + X, 0, 1])}


@pytest.mark.parametrize("kind", ["S", "J"])
@pytest.mark.parametrize("series, strips", [(KNOWN_FACTOR, False),
                                            (CONTENT_GCD, True),
                                            (SCALAR_ENTRY, True)],
                         ids=["known-factor", "content-gcd", "scalar-entry"])
def test_both_tail_branches_against_the_quotient_iteration(kind, series, strips,
                                                           monkeypatch):
    stripped = []
    strip = cfrac._strip_content
    monkeypatch.setattr(cfrac, "_strip_content",
                        lambda A, B: stripped.append(len(A)) or strip(A, B))
    a = series[kind]
    if kind == "S":
        got, want = extract_sfrac(a, a.order), quotient_sfrac(a, a.order)
    else:
        got, want = extract_jfrac(a, a.order // 2), quotient_jfrac(a, a.order // 2)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert bool(stripped) is strips
