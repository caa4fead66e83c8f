"""``cleared_triangle`` against ``gkp_triangle``: T'(n,k) = d1^(n-k) d2^k
T(n,k), d1 and d2 the lcms of the denominators of the two parameter
triples, at numeric, polynomial and rational-function mu, the points of the
documented tree nodes included; ``node_cs`` against extraction on the
uncleared series; and pinned CLI reports at rational mu."""
import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from gkpfrac import search as S
from gkpfrac.cfrac import extract_sfrac
from gkpfrac.cli import main
from gkpfrac.exactalg import MPoly, felem_eq, num_den, variables
from gkpfrac.gkpcore import cleared_triangle, gkp_triangle, ogf_trunc
from gkpfrac.hintbook import VARS


def assert_cleared(mu, N, vars=None):
    """T' = d1^(n-k) d2^k T entry by entry, every T' entry past the int 1
    of row 0 of the type of d1 and d2 (int, or MPoly over ``vars``);
    returns (d1, d2)."""
    t, d1, d2 = cleared_triangle(mu, N, vars)
    want = gkp_triangle(mu, N)
    kind = type(d1)
    assert type(d2) is kind
    assert t.rows[0] == [1] and type(t.rows[0][0]) is int
    for n in range(1, N + 1):
        for k in range(n + 1):
            got = t.entry(n, k)
            assert type(got) is kind, (n, k)
            if kind is MPoly:
                assert got.vars == d1.vars == d2.vars, (n, k)
            assert felem_eq(got, d1 ** (n - k) * d2 ** k * want.entry(n, k)), (n, k)
    return d1, d2


@st.composite
def rational_mus(draw):
    """Six int or Fraction parameters, zeros and negatives included, and
    N <= 9."""
    value = st.integers(-5, 5) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return tuple(draw(value) for _ in range(6)), draw(st.integers(0, 9))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rational_mus())
@example(((Fraction(1, 2), 0, Fraction(-3, 4), 2, Fraction(5, 3), 0), 8))
@example(((1, 2, 3, Fraction(1, 2), 0, -1), 6))
def test_numeric_mu_is_cleared_by_integer_lcms(case):
    mu, N = case
    d1, d2 = assert_cleared(mu, N)
    assert (d1, d2) == tuple(lcm(*(Fraction(v).denominator for v in vs))
                             for vs in (mu[:3], mu[3:]))


def random_field_mu(rng, gens, rational):
    """Six small polynomials in ``gens``, or with ``rational`` some of them
    quotients of two, so that one triple or both have denominators."""
    def poly():
        return sum((rng.randint(-2, 2) * g for g in rng.sample(gens, 2)),
                   MPoly.constant(rng.randint(-2, 2), gens[0].vars))

    def value():
        p = poly()
        if rational and rng.random() < 0.4:
            q = poly()
            return p / q if q else p
        return p

    return tuple(value() for _ in range(6))


@pytest.mark.parametrize("rational", [False, True])
def test_symbolic_mu_is_cleared_per_triple(rational):
    gens = variables("p q r", extra=("x",))
    rng = random.Random(42)
    seen = set()
    for _ in range(12):
        mu = random_field_mu(rng, gens, rational)
        d1, d2 = assert_cleared(mu, 5, gens[0].vars)
        for d, vs in ((d1, mu[:3]), (d2, mu[3:])):
            assert all(num_den(d * v)[1] == 1 for v in vs)
        seen.add((d1 != 1, d2 != 1))
    # polynomial mu needs no clearing; rational draws clear one triple or both
    assert seen == ({(False, False)} if not rational
                    else {(True, False), (False, True), (True, True)})


@pytest.fixture(scope="module")
def tree_nodes():
    """Every documented node of the decision tree."""
    return {label: S.get_node(label) for label in S.HINT_BOOK}


def test_tree_points_are_cleared_per_triple(tree_nodes):
    one_triple = []
    for label, node in tree_nodes.items():
        d1, d2 = assert_cleared(node.mu(), 5, VARS)
        if (d1, d2) != (1, 1):
            one_triple.append(label)
            # the triple without denominators is left as it is
            assert d1 == 1 or d2 == 1, label
    assert len(one_triple) == 19


def test_node_coefficients_match_the_uncleared_series(tree_nodes):
    # node_cs clears all six parameters by one D and divides D out again
    for label, node in tree_nodes.items():
        cs, terminated = S.node_cs(node, len(label))
        want = extract_sfrac(ogf_trunc(gkp_triangle(node.mu(), len(label))), len(label))
        assert terminated == want.terminated_at and len(cs) == len(want.c), label
        assert all(felem_eq(c, w) for c, w in zip(cs, want.c)), label


# -- hankel --mu and logconvex --mu at rational mu, whose rows come from the
# fraction-free unroll: each report, witness included, is the one pinned here
# by the SHA-256 of its text -------------------------------------------------

# passing, and failing at an entry, a 2 x 2 minor and a 3 x 3 one
HANKEL = [
    ("1/2,2/3,1,3/4,1/5,2", 4, 3, 0,
     "90a1563f59501e07fcdcdb534fcd454d365e5d94a77c65df85ed3e6511765120"),
    ("1/2,1/3,1/5,1/7,2/3,1/4", 5, 2, 0,
     "fc23b75b21cf3824127290b984fd6654512519d205e35128fa66acb6ececa43c"),
    ("-1/2,2/3,1,3/4,1/5,2", 4, 3, 1,
     "0dc57a3013a569b8e28f7f4014d00c86e9f4fc4fd6d0530bad87d766260bf8d7"),
    ("-1/2,1,1/2,2,1/3,2", 4, 3, 1,
     "f14e389c959ed0784b895d796b151807236591c3d5abf8de7198669a6531f3c8"),
    ("0,-1/2,1,4,-1/2,1", 4, 3, 1,
     "1075aa735055bfa27131fe667f4fdd61d3b1cad6f940805e610016252bc6d946"),
]

LOGCONVEX = [
    ("1/2,2/3,1,3/4,1/5,2", 6, True, 0,
     "8e375da047d41597f6b559217b8a034ff08fc94ffe7f357671cfb195d7beb882"),
    ("1,-1/2,1/3,1/2,1/2,-3/4", 6, True, 0,
     "8e375da047d41597f6b559217b8a034ff08fc94ffe7f357671cfb195d7beb882"),
    ("-1/2,1,1/2,2,1/3,2", 4, False, 1,
     "ad71f3a4f7ea00a2dc8dfcfc294c76e4859b10339602c53c036fdced2d33813e"),
    ("-1/2,1,1/2,2,1/3,2", 4, True, 1,
     "e521db840acb6fab55e867aeed0e5b4ded9bc5a79a0afa7de17e6d4dd5e07032"),
    ("0,2,-1,1/2,1,2", 4, True, 1,
     "9c6de48de46337521af39c6f8b3fe0b62b1d601a54f3a83a39dbb0edac72b0d4"),
]


def cli_digest(argv, tmp_path):
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("mu, size, order, code, digest", HANKEL)
def test_hankel_mu_report_is_pinned(mu, size, order, code, digest, tmp_path):
    assert cli_digest(["hankel", "--mu=" + mu, "--size", str(size),
                       "--order", str(order)], tmp_path) == (code, digest)


@pytest.mark.parametrize("mu, nmax, strong, code, digest", LOGCONVEX)
def test_logconvex_mu_report_is_pinned(mu, nmax, strong, code, digest, tmp_path):
    assert cli_digest(["logconvex", "--mu=" + mu, "--nmax", str(nmax)]
                      + ["--strong"] * strong, tmp_path) == (code, digest)
