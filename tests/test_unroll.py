"""The banded unroller against a memoised recursion written straight from
each recurrence.

The oracle shares no code with the unroller: it recurses from (n, k) down
to the corner instead of filling rows upward, and a neighbour outside the
triangle contributes an explicit zero instead of being skipped.
"""
import random
from fractions import Fraction
from functools import lru_cache

from gkpfrac.exactalg import variables
from gkpfrac.gkpcore import (
    GKPParams, Triangle, _unroll, binomial_like_triangle, gkp_triangle,
    gkpz_triangle,
)


def recursive_triangle(step, N):
    """Rows 0..N of T with T(0,0) = 1, T = 0 outside 0 <= k <= n, and
    T(n,k) = step(T, n, k) for n >= 1."""
    @lru_cache(maxsize=None)
    def T(n, k):
        if k < 0 or k > n:
            return 0
        if n == 0:
            return 1
        return step(T, n, k)

    return Triangle([[T(n, k) for k in range(n + 1)] for n in range(N + 1)])


def two_term_step(mu):
    a, b, g, ap, bp, gp = mu

    def step(T, n, k):
        return (a * n + b * k + g) * T(n - 1, k) \
            + (ap * n + bp * k + gp) * T(n - 1, k - 1)

    return step


def four_term_step(mu8):
    a, b, g, ap, bp, gp, sg, tu = mu8

    def step(T, n, k):
        return (a * n + b * k + g) * T(n - 1, k) \
            + (ap * n + bp * k + gp) * T(n - 1, k - 1) \
            + sg * (n - k + 1) * T(n - 1, k - 2) \
            + tu * (k + 1) * T(n - 1, k + 1)

    return step


def two_row_step(w):
    """The shape of product case A.12: two rows back, column-dependent."""
    def step(T, n, k):
        return (w("A", k) * n + w("G", k)) * T(n - 1, k) \
            + (w("Ad", k) * n + w("Gd", k)) * T(n - 1, k - 1) \
            + (n - 1) * w("D", k) * T(n - 2, k) \
            + (n - 1) * w("Dd", k) * T(n - 2, k - 1)

    return step


def two_row_weights(w):
    return lambda n, k: (w("A", k) * n + w("G", k), w("Ad", k) * n + w("Gd", k),
                         (n - 1) * w("D", k), (n - 1) * w("Dd", k))


TWO_ROW_OFFSETS = ((1, 0), (1, 1), (2, 0), (2, 1))


def random_rationals(rng, count):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(count))


def test_two_term_symbolic():
    mu = GKPParams.symbolic()
    assert gkp_triangle(mu, 6) == recursive_triangle(two_term_step(tuple(mu)), 6)


def test_four_term_symbolic():
    mu8 = variables("a b g ap bp gp sg tu")
    assert gkpz_triangle(mu8, 6) == recursive_triangle(four_term_step(mu8), 6)


def test_binomial_like_rule_symbolic():
    # row- and column-dependent weights that no GKP tuple produces
    N = 5
    names = ["u%d" % n for n in range(N + 1)] + ["v%d" % k for k in range(N + 1)]
    gens = dict(zip(names, variables(names)))
    u = lambda n: gens["u%d" % n]
    v = lambda k: gens["v%d" % k]

    def step(T, n, k):
        return (u(n) + v(k)) * T(n - 1, k) + u(n) * v(k) * T(n - 1, k - 1)

    got = binomial_like_triangle(lambda n, k: (u(n) + v(k), u(n) * v(k)), N)
    assert got == recursive_triangle(step, N)


def test_two_row_symbolic():
    N = 5
    names = ["%s%d" % (p, k) for p in ("A", "G", "Ad", "Gd", "D", "Dd")
             for k in range(N + 1)]
    gens = dict(zip(names, variables(names)))
    w = lambda p, k: gens["%s%d" % (p, k)]
    got = _unroll(N, TWO_ROW_OFFSETS, two_row_weights(w))
    assert got == recursive_triangle(two_row_step(w), N)


def test_seeded_rationals():
    rng = random.Random(2024)
    N = 8
    for _ in range(5):
        mu = random_rationals(rng, 6)
        assert gkp_triangle(mu, N) == recursive_triangle(two_term_step(mu), N)
        mu8 = random_rationals(rng, 8)
        assert gkpz_triangle(mu8, N) == recursive_triangle(four_term_step(mu8), N)
        table = {(p, k): r for p in ("A", "G", "Ad", "Gd", "D", "Dd")
                 for k, r in zip(range(N + 1), random_rationals(rng, N + 1))}
        w = lambda p, k: table[p, k]
        got = _unroll(N, TWO_ROW_OFFSETS, two_row_weights(w))
        assert got == recursive_triangle(two_row_step(w), N)


def test_outside_neighbours_are_skipped_and_sums_start_at_the_first_term():
    class Weight:
        """Supports only weight * entry and weight + weight: a zero summand
        (0 + w) or a weight for a neighbour outside the triangle (None)
        that got multiplied would raise TypeError."""

        def __init__(self, v):
            self.v = v

        def __mul__(self, entry):
            return Weight(self.v * (entry.v if isinstance(entry, Weight) else entry))

        def __add__(self, other):
            return Weight(self.v + other.v)

    def rule(n, k):
        return (Weight(n + k) if k < n else None, Weight(n) if k > 0 else None)

    def step(T, n, k):
        return (n + k) * T(n - 1, k) + n * T(n - 1, k - 1)

    got = binomial_like_triangle(rule, 6)
    want = recursive_triangle(step, 6)
    assert [[c.v for c in row] for row in got.rows[1:]] == want.rows[1:]
