"""The 48-element symmetry group of the two-term triangular recurrence.

Elements are stored in the normal form S^s Z^z X^m (s, z in {0,1}, m mod 12)
derived from the defining relations

    X^12 = S^2 = Z^2 = 1,   SZ = ZS,   SXS = X^7,   ZXZ = X^-1,

and act on parameter tuples mu = (alpha, beta, gamma, alpha', beta', gamma')
through the generator actions: sign flip of the unprimed triple (S), the
shift involution (Z) and X = D*Z built from the row-reversal duality D.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from .exactalg import (
    MPoly, RatFunc, _common_factor, as_mpoly, clear_denominators,
    felem_div, felem_eq, felem_is_zero, first_mismatch, mismatch_report,
    num_den,
)
from .gkpcore import GKPParams, gkp_triangle, rescale_weight, triangle_mismatch


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
        """Generator letters, leftmost acting last on parameters.

        Elements of the polynomial subgroup decompose over the total maps
        {S, D}; the coset that only inverts beta goes through R; high powers
        of X are rewritten through Z X^(12-m) Z = X^m so that a word never
        composes more than six X actions."""
        key = (self.s, self.z, self.m)
        if key in _G0_WORDS:
            return list(_G0_WORDS[key])
        g = self * GroupWord(0, 0, 7)          # self * X^-5
        gkey = (g.s, g.z, g.m)
        if gkey in _G0_WORDS:
            return list(_G0_WORDS[gkey]) + ["S", "D", "S", "R"]
        pre = ["S"] * self.s
        m = self.m
        if m <= 6:
            return pre + ["Z"] * self.z + ["X"] * m
        if self.z:
            return pre + ["X"] * (12 - m) + ["Z"]
        return pre + ["Z"] + ["X"] * (12 - m) + ["Z"]

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


# normal forms of the polynomial subgroup, with words over the total maps
_G0_WORDS = {
    (0, 0, 0): [], (1, 0, 0): ["S"], (0, 1, 11): ["D"],
    (1, 1, 11): ["S", "D"], (1, 0, 6): ["D", "S", "D"],
    (0, 0, 6): ["S", "D", "S", "D"], (1, 1, 5): ["D", "S"],
    (0, 1, 5): ["S", "D", "S"],
}

IDENT = GroupWord(0, 0, 0)
S = GroupWord(1, 0, 0)
Z = GroupWord(0, 1, 0)
X = GroupWord(0, 0, 1)
D = X * Z                     # row reversal; equals Z X^11 in normal form
SPRIME = S * X ** 6           # the (1,-1) scaling, also D*S*D
R = D * Z * D                 # inverse-pair involution

NAMED = {"1": IDENT, "S": S, "Z": Z, "X": X, "D": D, "R": R, "S'": SPRIME}


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


def _act_X(mu):
    return _act_D(_act_Z(mu))


def _act_R(mu):
    a, b, g, ap, bp, gp = mu
    if felem_is_zero(b):
        raise SingularMap("R", "(beta = 0)")
    r = felem_div(bp, b)
    return (a, b, g, ap + bp - r * a, -bp, gp + bp - r * g)


_GEN_ACTS = {"S": _act_S, "Z": _act_Z, "X": _act_X, "D": _act_D, "R": _act_R}


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


def expected_classes():
    """The full membership table of the fifteen conjugacy classes."""
    def c(*words):
        return frozenset(words)

    SZ = S * Z
    return [
        c(IDENT),
        c(X ** 6),
        c(S, S * X ** 6),
        c(S * X ** 3, S * X ** 9),
        c(SZ, SZ * X ** 4, SZ * X ** 8),
        c(SZ * X ** 2, SZ * X ** 6, SZ * X ** 10),
        c(*(Z * X ** m for m in range(0, 12, 2))),
        c(*(Z * X ** m for m in range(1, 12, 2))),
        c(X ** 4, X ** 8),
        c(X ** 3, X ** 9),
        c(*(SZ * X ** m for m in range(1, 12, 2))),
        c(X ** 2, X ** 10),
        c(S * X, S * X ** 5, S * X ** 7, S * X ** 11),
        c(S * X ** 2, S * X ** 4, S * X ** 8, S * X ** 10),
        c(X, X ** 5, X ** 7, X ** 11),
    ]


def symbolic_mu() -> GKPParams:
    return GKPParams.symbolic(extra=("x",))


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
    """The generator letters of a written word, in the order written."""
    return tuple(chain.from_iterable([base] * exp for base, exp in _factors(text)
                                     if base != "1"))


def verify_relations() -> dict:
    """All stated relations, both abstractly and as parameter maps over the
    rational-function field in mu.  Each is written once, as two words: the
    abstract half compares their normal forms, the map half composes the
    generator actions of each word in the order written."""
    mu = symbolic_mu()
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
                         "<a,b,c,d> = G": _generates_all([X ** 4, S * Z, X ** 3, S])},
        "presentation_maps": maps(_PRESENTATION),
    }
    report["ok"] = all(all(part.values()) for part in report.values())
    return report


def _check_x_formula(mu) -> bool:
    a, b, g, ap, bp, gp = tuple(mu)
    r = felem_div(b, bp)
    want = (ap + bp, -bp, gp, a - b - r * ap, b, g - b - r * gp)
    return map_equal(apply_map(X, mu), want)


def _generates_all(gens) -> bool:
    seen = {IDENT}
    frontier = [IDENT]
    gens = list(gens) + [g.inv() for g in gens]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = e * g
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen) == 48


# ---------------------------------------------------------------------------
# action on triangles and row polynomials
# ---------------------------------------------------------------------------

# A word acts on row polynomials by one substitution
#     P_n(x)  ->  H_n(a x + b, c x + d) / w^n,   H_n(X, Y) = sum_k T(n,k) X^k Y^(n-k),
# held as the x-free matrix m = (a, b, c, d, w), which is defined up to a
# common factor.  Substitutions compose by the 2x2 matrix product (GL_2
# acting on binary forms of degree n), so a word costs one substitution per
# row, all of it polynomial.

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
    if letter == "X":                   # 1/x - b/b'
        return -q, p, p, zero, p
    return q, zero, -p, q, q            # R: b x / (b - b' x)


def _compose(inner, outer):
    """The substitution of ``outer`` followed by ``inner``, i.e. the matrix
    product inner * outer, with the common factor of its entries divided out."""
    a1, b1, c1, d1, w1 = inner
    a2, b2, c2, d2, w2 = outer
    return tuple(_common_factor([a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                                 c1 * a2 + d1 * c2, c1 * b2 + d1 * d2,
                                 w1 * w2])[1])


def _cleared_params(mu, vars):
    """mu with each triple multiplied by the lcm d of its denominators, and
    the substitution (d1, 0, 0, d2, d1 d2) that takes the rows of the cleared
    parameters back to the rows of mu."""
    out, dens = [], []
    for triple in (mu[:3], mu[3:]):
        nums, d = clear_denominators(triple, vars)
        out += [as_mpoly(v, vars) for v in nums]
        dens.append(as_mpoly(d, vars))
    d1, d2 = dens
    zero = MPoly.zero(vars)
    return out, (d1, zero, zero, d2, d1 * d2)


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

    With a word's image cleared by (d1, d2) and mu by (e1, e2), both sides
    are polynomial: row n holds iff w^n H'_n(d1 x, d2) == (d1 d2)^n H_n(u, v),
    where (u, v, w) composes diag(e1, e2) with the letters' matrices."""
    vars = tuple(dict.fromkeys(v for p in chain(mu, *moved)
                               if isinstance(p, (MPoly, RatFunc)) for v in p.vars))
    vars += () if "x" in vars else ("x",)
    # x is the row variable: the substitution does not reach x inside mu
    for p in mu:
        for part in num_den(p):
            if isinstance(part, MPoly) and "x" in part.vars and part.degree_in("x"):
                raise ValueError("parameters must be x-free")
    rhs_mu, clear = _cleared_params(mu, vars)
    rhs_rows = gkp_triangle(rhs_mu, N).rows
    x = MPoly.variable("x", vars)

    def check(name, letters, orbit, moved):
        """Row n of the triangle of ``moved`` against row n of mu under the
        word ``letters``, whose parameters along the way are ``orbit``."""
        lhs_mu, lhs_m = _cleared_params(tuple(moved), vars)
        m = clear
        for letter, inner in zip(reversed(letters), orbit):
            m = _compose(m, _letter_matrix(letter, inner, vars))

        def rows():
            lhs_w = rhs_w = MPoly.one(vars)
            pairs = zip(_substituted_rows(gkp_triangle(lhs_mu, N).rows, lhs_m, x),
                        _substituted_rows(rhs_rows, m, x))
            for n, (p, q) in enumerate(pairs):
                yield {"n": n}, rhs_w * p, lhs_w * q
                lhs_w, rhs_w = lhs_w * lhs_m[4], rhs_w * m[4]

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
    order.  The cleared triangle of mu is unrolled once and is the right
    side of every word's check; nothing is kept between calls."""
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
    """Check the identity linking the triangle of g.mu with the transformed
    triangle of mu, symbolically for all n <= N."""
    return verify_actions([g], mu, N)[0]


def verify_action_letter(letter: str, mu, N: int) -> dict:
    """Single-generator version, used for the cited identities directly;
    for R the left side comes from the group word R."""
    if letter != "R":
        return verify_action([letter], mu, N)
    orbit, moved = _orbit(["R"], mu), apply_map(R, mu)
    return _substitution_check(orbit[0], [moved], N)("R", ["R"], orbit, moved)


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

