"""The 48-element symmetry group of the two-term triangular recurrence.

Elements are stored in the normal form S^s Z^z X^m (s, z in {0,1}, m mod 12)
derived from the defining relations

    X^12 = S^2 = Z^2 = 1,   SZ = ZS,   SXS = X^7,   ZXZ = X^-1,

and act on parameter tuples mu = (alpha, beta, gamma, alpha', beta', gamma')
through the generator actions: sign flip of the unprimed triple (S), the
row-reversal duality (D), the shift involution (Z) and the inverse-pair
involution (R); X = D*Z.

An element acts through its cheapest word over the letters S, D, Z and R
(``WORDS``), found at import by Dijkstra's search from 1 over the Cayley
graph: S and D are polynomial and cost 0, Z divides by beta' and R by beta
and cost 1 each, and ties go to fewer letters.  The 48 words divide 72 times,
at most 3 times in one word, and each divisor is a factor of the denominator
of the element's reduced map, so a word raises ``SingularMap`` only where
its element's map is undefined.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from .exactalg import (
    MPoly, RatFunc, _common_factor, as_mpoly, felem_div, felem_eq,
    felem_is_zero, first_mismatch, mismatch_report, num_den, x_coeffs,
)
from .gkpcore import (
    GKPParams, _cleared, _ode_step, cleared_triangle, gkp_triangle,
    rescale_weight, triangle_mismatch,
)


class SingularMap(ZeroDivisionError):
    """A generator needed to invert a parameter that is identically zero."""

    def __init__(self, generator, detail=""):
        super().__init__("map %s is singular here %s" % (generator, detail))
        self.generator = generator


class CaseMismatch(ValueError):
    pass


@dataclass(frozen=True)
class GroupWord:
    """Normal form S^s Z^z X^m with s, z in {0,1} and 0 <= m < 12."""
    s: int = 0
    z: int = 0
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "s", self.s & 1)
        object.__setattr__(self, "z", self.z & 1)
        object.__setattr__(self, "m", self.m % 12)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        # X^m * S^a Z^b = S^a Z^b X^(sigma m) with sigma = 7^a * (-1)^b
        sigma = (7 ** other.s) * (-1) ** other.z
        return GroupWord(self.s ^ other.s, self.z ^ other.z,
                         sigma * self.m + other.m)

    def inv(self) -> "GroupWord":
        # solve g * h = 1
        sigma = (7 ** self.s) * (-1) ** self.z
        return GroupWord(self.s, self.z, -sigma * self.m)

    def order(self) -> int:
        e = self
        n = 1
        while e != IDENT:
            e = e * self
            n += 1
        return n

    def __pow__(self, n: int) -> "GroupWord":
        if n < 0:
            return self.inv() ** (-n)
        out = IDENT
        for _ in range(n):
            out = out * self
        return out

    def letters(self):
        """Generator letters, leftmost acting last on parameters: the
        element's cheapest word in ``WORDS``."""
        return list(WORDS[self])

    def name(self) -> str:
        bits = []
        if self.s:
            bits.append("S")
        if self.z:
            bits.append("Z")
        if self.m:
            bits.append("X^%d" % self.m if self.m > 1 else "X")
        return "*".join(bits) if bits else "1"

    def __repr__(self):
        return self.name()


IDENT = GroupWord(0, 0, 0)
S = GroupWord(1, 0, 0)
Z = GroupWord(0, 1, 0)
X = GroupWord(0, 0, 1)
D = X * Z                     # row reversal; equals Z X^11 in normal form
SPRIME = S * X ** 6           # the (1,-1) scaling, also D*S*D
R = D * Z * D                 # inverse-pair involution

NAMED = {"1": IDENT, "S": S, "Z": Z, "X": X, "D": D, "R": R, "S'": SPRIME}


def _cheapest_words(letters):
    """{element: word} for each element that ``letters``, a map from a
    letter to its (element, cost), reach from 1: Dijkstra's search over the
    Cayley graph, ties going to fewer letters, then to the first word in
    letter order.  A word is a tuple of letters, leftmost acting last."""
    words, heap = {}, [(0, 0, (), IDENT)]
    while heap:
        cost, n, word, g = heappop(heap)
        if g not in words:
            words[g] = word
            for name, (h, c) in letters.items():
                heappush(heap, (cost + c, n + 1, word + (name,), g * h))
    return words


# S and D are polynomial maps; Z divides by beta' and R by beta
WORDS = _cheapest_words({"S": (S, 0), "D": (D, 0), "Z": (Z, 1), "R": (R, 1)})


def _factors(text: str):
    """(name, exponent) of each factor of a product like "S*Z*X^3"."""
    for tok in text.replace(" ", "").split("*"):
        if tok:
            base, sep, exp = tok.partition("^")
            yield base, int(exp) if sep else 1


def parse_word(text: str) -> GroupWord:
    """Parse products like "S*Z*X^3" (left factor acts last)."""
    out = IDENT
    for base, exp in _factors(text):
        out = out * NAMED[base] ** exp
    return out


@dataclass(frozen=True)
class ScalingMap:
    kappa: object
    lam: object


def all_elements():
    return [GroupWord(s, z, m) for s in (0, 1) for z in (0, 1) for m in range(12)]


# ---------------------------------------------------------------------------
# parameter actions
# ---------------------------------------------------------------------------

def _act_S(mu):
    a, b, g, ap, bp, gp = mu
    return (-a, -b, -g, ap, bp, gp)


def _act_D(mu):
    a, b, g, ap, bp, gp = mu
    return (ap + bp, -bp, gp, a + b, -b, g)


def _act_Z(mu):
    a, b, g, ap, bp, gp = mu
    if felem_is_zero(bp):
        raise SingularMap("Z", "(beta' = 0)")
    r = felem_div(b, bp)
    return (a - r * ap, -b, -b + g - r * gp, ap, bp, gp)


def _act_R(mu):
    a, b, g, ap, bp, gp = mu
    if felem_is_zero(b):
        raise SingularMap("R", "(beta = 0)")
    r = felem_div(bp, b)
    return (a, b, g, ap + bp - r * a, -bp, gp + bp - r * g)


_GEN_ACTS = {"S": _act_S, "Z": _act_Z, "D": _act_D, "R": _act_R}


def apply_map(g, mu) -> GKPParams:
    """Transformed parameter tuple (entries possibly rational functions)."""
    if isinstance(g, ScalingMap):
        a, b, gam, ap, bp, gp = GKPParams.of(mu)
        k, l = g.kappa, g.lam
        return GKPParams(k * a, k * b, k * gam, l * ap, l * bp, l * gp)
    if isinstance(g, str):
        g = parse_word(g)
    return apply_map_letters(g.letters(), mu)


def _orbit(letters, mu):
    """mu followed by its images under the letters, innermost (last) first."""
    out = [tuple(GKPParams.of(mu))]
    for letter in reversed(list(letters)):
        out.append(_GEN_ACTS[letter](out[-1]))
    return out


def apply_map_letters(letters, mu):
    return GKPParams(*_orbit(letters, mu)[-1])


def map_equal(mu1, mu2) -> bool:
    return all(felem_eq(u, v)
               for u, v in zip(GKPParams.of(mu1), GKPParams.of(mu2)))


# ---------------------------------------------------------------------------
# group table, classes, relations
# ---------------------------------------------------------------------------

def group_table():
    """Elements, multiplication map, conjugacy classes and center."""
    elems = all_elements()
    mult = {(a, b): a * b for a in elems for b in elems}
    remaining = set(elems)
    classes = []
    while remaining:
        rep = min(remaining, key=lambda e: (e.s, e.z, e.m))
        cls = {h * rep * h.inv() for h in elems}
        remaining -= cls
        classes.append({
            "order": rep.order(),
            "size": len(cls),
            "elements": sorted(cls, key=lambda e: (e.s, e.z, e.m)),
        })
    classes.sort(key=lambda c: (c["order"], c["size"],
                                (c["elements"][0].s, c["elements"][0].z, c["elements"][0].m)))
    center = [e for e in elems if all(e * h == h * e for h in elems)]
    center.sort(key=lambda e: e.m)
    return elems, mult, classes, center


EXPECTED_CLASS_PROFILE = sorted([
    (1, 1), (2, 1), (2, 2), (2, 2), (2, 3), (2, 3), (2, 6), (2, 6),
    (3, 2), (4, 2), (4, 6), (6, 2), (6, 4), (6, 4), (12, 4),
])


# (name, lhs, rhs) of the relations checked both in the abstract group and
# as parameter maps, each side written as a word over the generators
_RELATIONS = (
    ("S^2", "S*S", "1"),
    ("Z^2", "Z*Z", "1"),
    ("D^2", "D*D", "1"),
    ("SZ=ZS", "S*Z", "Z*S"),
    ("S'Z=ZS'", "S*X^6*Z", "Z*S*X^6"),
    ("SS'=S'S", "S*S*X^6", "S*X^6*S"),
    ("(DS)^2=SS'", "D*S*D*S", "S*S*X^6"),
    ("(SD)^2=SS'", "S*D*S*D", "S*S*X^6"),
    ("(DZ)^6=SS'", "D*Z*D*Z*D*Z*D*Z*D*Z*D*Z", "S*S*X^6"),
    ("(ZD)^6=SS'", "Z*D*Z*D*Z*D*Z*D*Z*D*Z*D", "S*S*X^6"),
    ("SXS=X^7", "S*X*S", "X^7"),
    ("ZXZ=X^11", "Z*X*Z", "X^11"),
)

# the direct-product presentation, with a = X^4, b = SZ, c = X^3, d = S
_GENERATORS = {"a": (X ** 4, 1), "b": (S * Z, 1), "c": (X ** 3, 1), "d": (S, 1)}
_PRESENTATION = (
    ("a^3", "X^4*X^4*X^4", "1"),
    ("b^2", "S*Z*S*Z", "1"),
    ("c^4", "X^3*X^3*X^3*X^3", "1"),
    ("d^2", "S*S", "1"),
    ("bab=a^-1", "S*Z*X^4*S*Z", "X^8"),
    ("dcd=c^-1", "S*X^3*S", "X^9"),
    ("ac=ca", "X^4*X^3", "X^3*X^4"),
    ("ad=da", "X^4*S", "S*X^4"),
    ("bc=cb", "S*Z*X^3", "X^3*S*Z"),
    ("bd=db", "S*Z*S", "S*S*Z"),
)


def _word_letters(text):
    """The generator letters of a written word, in the order written, with
    each X written out as D*Z."""
    return tuple(chain.from_iterable((("D", "Z") if base == "X" else (base,)) * exp
                                     for base, exp in _factors(text) if base != "1"))


def verify_relations() -> dict:
    """All stated relations, both abstractly and as parameter maps over the
    rational-function field in mu.  Each is written once, as two words: the
    abstract half compares their normal forms, the map half composes the
    generator actions of each word in the order written."""
    mu = GKPParams.symbolic()
    images = {(): tuple(mu)}  # letters -> image of mu, shared by the words

    def image(letters):
        if letters not in images:
            images[letters] = _GEN_ACTS[letters[0]](image(letters[1:]))
        return images[letters]

    def abstract(relations):
        return {name: parse_word(u) == parse_word(w) for name, u, w in relations}

    def maps(relations):
        return {name: map_equal(image(_word_letters(u)), image(_word_letters(w)))
                for name, u, w in relations}

    report = {
        "abstract": abstract(_RELATIONS + (
            ("X^12", "X^12", "1"), ("X=DZ", "X", "D*Z"),
            ("S'=DSD", "S'", "D*S*D"), ("R=DZD", "R", "D*Z*D"))),
        "maps": {**maps(_RELATIONS + (("X^12=1", "X^12", "1"), ("R^2=1", "R*R", "1"))),
                 "S'=S_{1,-1}": map_equal(apply_map(SPRIME, mu),
                                          apply_map(ScalingMap(1, -1), mu)),
                 "X action (2.20)": _check_x_formula(mu)},
        "presentation": {**abstract(_PRESENTATION),
                         "<a,b,c,d> = G": len(_cheapest_words(_GENERATORS)) == 48},
        "presentation_maps": maps(_PRESENTATION),
    }
    report["ok"] = all(all(part.values()) for part in report.values())
    return report


def _check_x_formula(mu) -> bool:
    a, b, g, ap, bp, gp = tuple(mu)
    r = felem_div(b, bp)
    want = (ap + bp, -bp, gp, a - b - r * ap, b, g - b - r * gp)
    return map_equal(apply_map(X, mu), want)


# ---------------------------------------------------------------------------
# action on triangles and row polynomials
# ---------------------------------------------------------------------------

# A word acts on row polynomials by one substitution
#     P_n(x)  ->  H_n(a x + b, c x + d) / w^n,   H_n(X, Y) = sum_k T(n,k) X^k Y^(n-k),
# held as the x-free matrix m = (a, b, c, d, w), which is defined up to a
# common factor.  Substitutions compose by the 2x2 matrix product (GL_2
# acting on binary forms of degree n), so a word costs one substitution per
# row of mu, all of it polynomial.  The rows of g.mu are decided by their
# row ODE applied to the substituted rows of mu: exact, since the rows are
# unique from P_0 = 1 and L_n is linear in the parameters.

def _letter_matrix(letter, mu, vars):
    """The substitution of one letter acting on the parameters mu."""
    one, zero = MPoly.one(vars), MPoly.zero(vars)
    if letter == "S":
        return one, zero, zero, -one, one
    if letter == "D":
        return zero, one, one, zero, one
    # mu has passed the letter's parameter action (``_orbit``), which raises
    # SingularMap where the b' (for R, the b) divided by here is zero
    _, b, _, _, bp, _ = mu
    bn, bd = (as_mpoly(v, vars) for v in num_den(b))
    pn, pd = (as_mpoly(v, vars) for v in num_den(bp))
    p, q = pn * bd, bn * pd             # b / b' = q / p
    if letter == "Z":                   # x - b/b'
        return p, -q, zero, p, p
    return q, zero, -p, q, q            # R: b x / (b - b' x)


def _compose(inner, outer):
    """The substitution of ``outer`` followed by ``inner``, i.e. the matrix
    product inner * outer, with the common factor of its entries divided out."""
    a1, b1, c1, d1, w1 = inner
    a2, b2, c2, d2, w2 = outer
    return tuple(_common_factor([a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                                 c1 * a2 + d1 * c2, c1 * b2 + d1 * d2,
                                 w1 * w2])[1])


def word_matrix(letters, orbit, vars, m=None):
    """The x-free matrix (a, b, c, d, w) of the nonempty word ``letters`` on
    mu = orbit[0], along its ``_orbit``, composed after ``m`` if given: the
    rows of g.mu are lambda^n P_n(m(x); mu), with m(x) = (a x + b)/(c x + d)
    and lambda = (c x + d)/w."""
    for letter, inner in zip(reversed(letters), orbit):
        step = _letter_matrix(letter, inner, vars)
        m = step if m is None else _compose(m, step)
    return m


def transport(coeff, m):
    """The law of a word with matrix ``m`` on S- and T-fraction
    coefficients: since the ogf of g.mu is F(m(x), lambda t), each
    coefficient c of mu's fraction becomes lambda c(m(x)).  For c of
    x-degree e <= E = max(e, 1) that is the form sum_i c_i u^i v^(E-i) in
    u = a x + b and v = c x + d, over w v^(E-1): one division."""
    a, b, c, d, w = m
    x = MPoly.variable("x", a.vars)
    u, v = a * x + b, c * x + d
    cx = x_coeffs(coeff)
    E = max(1, max(cx, default=0))
    return felem_div(sum(q * u ** i * v ** (E - i) for i, q in cx.items()),
                     w * v ** (E - 1))


def _substituted_rows(rows, m, x):
    """H_n(a x + b, c x + d) for the triangle rows ``rows``, one row at a
    time."""
    a, b, c, d, _ = m
    u, v = a * x + b, c * x + d
    upow, vpow = [MPoly.one(x.vars)], [MPoly.one(x.vars)]
    for _ in range(len(rows) - 1):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    for n, row in enumerate(rows):
        acc = MPoly.zero(x.vars)
        for k, t in enumerate(row):
            if not felem_is_zero(t):
                acc = acc + t * (upow[k] * vpow[n - k])
        yield acc


def _substitution_check(mu, moved, N):
    """The check of one word against the x-free parameters mu = orbit[0],
    for words whose images of mu are among ``moved``.  The triangle of the
    cleared mu is unrolled here, once for every word the check is run on.

    With mu cleared by (e1, e2) and g.mu by (d1, d2) into (n1, n2), let
    q_n = H_n(u, v), (u, v, w) composing diag(e1, e2) with the letters'
    matrices.  Row 0 holds iff q_0 == 1, and row n, given the rows below,
    iff w L_n(d2 n1, d1 n2) q_(n-1) == d1 d2 q_n, L_n the row ODE
    (``_ode_step``): exact, as the rows are unique from P_0 = 1 and L_n is
    linear in the parameters."""
    vars = tuple(dict.fromkeys(v for p in chain(mu, *moved)
                               if isinstance(p, (MPoly, RatFunc)) for v in p.vars))
    vars += () if "x" in vars else ("x",)
    # x is the row variable: the substitution does not reach x inside mu
    for p in mu:
        for part in num_den(p):
            if isinstance(part, MPoly) and "x" in part.vars and part.degree_in("x"):
                raise ValueError("parameters must be x-free")
    rhs, e1, e2 = cleared_triangle(mu, N, vars)
    x, zero = MPoly.variable("x", vars), MPoly.zero(vars)
    clear = e1, zero, zero, e2, e1 * e2

    def check(name, letters, orbit, moved):
        """Row n of ``moved`` by its row ODE against row n of mu under the
        word ``letters``, whose parameters along the way are ``orbit``."""
        nums, d1, d2 = _cleared(moved, vars)
        scaled = [d2 * v for v in nums[:3]] + [d1 * v for v in nums[3:]]
        m = word_matrix(letters, orbit, vars, clear)

        def rows():
            qs = _substituted_rows(rhs.rows, m, x)
            prev = next(qs)
            yield {"n": 0}, 1, prev
            for n, q in enumerate(qs, 1):
                yield {"n": n}, m[4] * _ode_step(scaled, n, prev), d1 * d2 * q
                prev = q

        return {"map": name, **mismatch_report(first_mismatch(rows()))}

    return check


def _word(g):
    """(name, letters) of a word given as text, a GroupWord or letters."""
    word = parse_word(g) if isinstance(g, str) else g
    if isinstance(word, GroupWord):
        return word.name(), word.letters()
    letters = list(word)
    return "*".join(letters), letters


def verify_actions(words, mu, N: int) -> list:
    """The report of ``verify_action`` for each of ``words`` on one mu, in
    order.  For the group words only mu's cleared triangle is unrolled,
    once; each g.mu is decided by its row ODE on mu's substituted rows, exact
    as the rows are unique from P_0 = 1 and L_n is linear in mu.  Nothing is
    kept between calls."""
    words = [g if isinstance(g, ScalingMap) else _word(g) for g in words]
    # the parameters come first: a singular map raises before any row work
    orbits = [None if isinstance(w, ScalingMap) else _orbit(w[1], mu) for w in words]
    moved = [o[-1] for o in orbits if o]
    check = _substitution_check(tuple(GKPParams.of(mu)), moved, N) if moved else None
    return [_verify_scaling(w, mu, N) if o is None else check(*w, o, o[-1])
            for w, o in zip(words, orbits)]


def _verify_scaling(g, mu, N):
    t = gkp_triangle(mu, N)
    kappa, lam = g.kappa, g.lam
    return {"map": "S_{kappa,lambda}", **triangle_mismatch(
        gkp_triangle(apply_map(g, mu), N),
        lambda n, k: kappa ** (n - k) * lam ** k * t.entry(n, k), N)}


def verify_action(g, mu, N: int) -> dict:
    """Check the rows of g.mu, decided by their row ODE applied to the
    substituted rows of mu (exact: the rows are unique from P_0 = 1 and L_n
    is linear in mu), symbolically for all n <= N."""
    return verify_actions([g], mu, N)[0]


# ---------------------------------------------------------------------------
# rescaling (three GKP-compatible cases of the product lemma)
# ---------------------------------------------------------------------------

def rescale_gkp(case: str, mu, kappa, lam, N: int) -> dict:
    """Verify the three rescaling identities.

    case "a" (alpha = beta = 0):
        T(n,k; kg, -kg, lg, a', b', g') = prod_{j=1}^{n-k}(j kappa + lam) T(n,k; mu)
    case "b" (alpha' = beta' = 0):
        T(n,k; a, b, g, 0, kg', lg') = prod_{j=1}^{k}(j kappa + lam) T(n,k; mu)
    case "c" (all four vanish):
        T(n,k; kg, 0, lg, kg', 0, lg') = prod_{j=1}^{n}(j kappa + lam) T(n,k; mu)
    """
    a, b, g, ap, bp, gp = GKPParams.of(mu)
    z = felem_is_zero
    lin = lambda j: j * kappa + lam
    one = lambda j: 1
    if case == "a":
        if not (z(a) and z(b)):
            raise CaseMismatch("case a needs alpha = beta = 0")
        mu2 = GKPParams(kappa * g, -kappa * g, lam * g, ap, bp, gp)
        weight = lambda n, k: rescale_weight(lin, one, one, n, k)
    elif case == "b":
        if not (z(ap) and z(bp)):
            raise CaseMismatch("case b needs alpha' = beta' = 0")
        mu2 = GKPParams(a, b, g, 0, kappa * gp, lam * gp)
        weight = lambda n, k: rescale_weight(one, lin, one, n, k)
    elif case == "c":
        if not (z(a) and z(b) and z(ap) and z(bp)):
            raise CaseMismatch("case c needs alpha = beta = alpha' = beta' = 0")
        mu2 = GKPParams(kappa * g, 0, lam * g, kappa * gp, 0, lam * gp)
        weight = lambda n, k: rescale_weight(one, one, lin, n, k)
    else:
        raise CaseMismatch("unknown case %r" % case)

    t = gkp_triangle(mu, N)
    return {"case": case, **triangle_mismatch(
        gkp_triangle(mu2, N), lambda n, k: weight(n, k) * t.entry(n, k), N)}

