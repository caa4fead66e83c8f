"""Brute-force permutation-statistic oracles and classical number triangles.

These provide the independent side of the dual-route checks: the master
permutation polynomial summed over the full symmetric group, Stirling and
Eulerian numbers from their own recurrences, and the explicit summation
formulas they satisfy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

from .exactalg import MPoly, first_mismatch, mismatch_report, variables
from .cfrac import eval_sr


class InvalidPermutation(ValueError):
    pass


class SizeLimit(ValueError):
    pass


# the largest n whose n! permutations any oracle here enumerates
BRUTE_FORCE_CAP = 9


def _capped(n: int) -> int:
    if n > BRUTE_FORCE_CAP:
        raise SizeLimit("n=%d exceeds the brute-force cap %d" % (n, BRUTE_FORCE_CAP))
    return n


@dataclass(frozen=True)
class PermStats:
    cyc: int
    exc: int
    rec: int
    arec: int
    erec: int
    earec: int


def perm_stats(sigma) -> PermStats:
    """Cycle, excedance and record statistics of a permutation of [n],
    given as the value sequence (sigma(1), ..., sigma(n))."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise InvalidPermutation(sigma)
    return _perm_stats(sigma)


def _perm_stats(sigma) -> PermStats:
    """``perm_stats`` of a tuple known to be a permutation of [n]."""
    n = len(sigma)
    rec = arec = erec = earec = exc = 0
    is_rec = [False] * n
    is_arec = [False] * n
    best = 0
    for i, v in enumerate(sigma):
        if v > best:
            best = v
            is_rec[i] = True
    best = n + 1
    for i in range(n - 1, -1, -1):
        if sigma[i] < best:
            best = sigma[i]
            is_arec[i] = True
    for i in range(n):
        if is_rec[i]:
            rec += 1
            if not is_arec[i]:
                erec += 1
        if is_arec[i]:
            arec += 1
            if not is_rec[i]:
                earec += 1
        if sigma[i] > i + 1:
            exc += 1
    cyc = 0
    seen = [False] * n
    for i in range(n):
        if not seen[i]:
            cyc += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = sigma[j] - 1
    return PermStats(cyc=cyc, exc=exc, rec=rec, arec=arec, erec=erec, earec=earec)


MASTER_VARS = ("w", "y", "u", "v")


def master_poly_bruteforce(n: int) -> MPoly:
    """Sum over all permutations of [n] of
    w^cyc y^erec u^(n-exc-cyc) v^(exc-erec)."""
    return MPoly(MASTER_VARS, _master_counts(_capped(n)))


@lru_cache(maxsize=None)
def _master_counts(n: int) -> dict:
    """(cyc, erec, n-exc-cyc, exc-erec) -> number of permutations of [n]:
    the one enumeration of S_n that both brute-force oracles read."""
    out = {}
    for sigma in permutations(range(1, n + 1)):
        st = _perm_stats(sigma)
        key = (st.cyc, st.erec, n - st.exc - st.cyc, st.exc - st.erec)
        out[key] = out.get(key, 0) + 1
    return out


def master_sfrac_coeffs(m: int):
    """The S-fraction coefficients c_{2k-1} = w+(k-1)u, c_{2k} = y+(k-1)v."""
    w, y, u, v = variables(MASTER_VARS)
    cs = []
    for i in range(1, m + 1):
        k = (i + 1) // 2
        cs.append(w + (k - 1) * u if i % 2 else y + (k - 1) * v)
    return cs


def verify_master_sfrac(n_max: int) -> dict:
    """eval of the master S-fraction == brute-force sum over permutations,
    symbolically in all four weights; the witness is the first failing n."""
    series = eval_sr(master_sfrac_coeffs(_capped(n_max)), n_max)
    report = mismatch_report(first_mismatch(
        (n, series.coeffs[n], master_poly_bruteforce(n)) for n in range(n_max + 1)))
    if report["ok"]:
        report["verified_to"] = n_max
    return report


# ---------------------------------------------------------------------------
# classical triangles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def stirling_subset(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return k * stirling_subset(n - 1, k) + stirling_subset(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling_cycle(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return (n - 1) * stirling_cycle(n - 1, k) + stirling_cycle(n - 1, k - 1)


@lru_cache(maxsize=None)
def eulerian(n: int, k: int) -> int:
    """Number of permutations of [n] with k excedances (book indexing)."""
    if k < 0 or k > max(n - 1, 0):
        return 0 if n else (1 if k == 0 else 0)
    if n == 0:
        return 1 if k == 0 else 0
    return (k + 1) * eulerian(n - 1, k) + (n - k) * eulerian(n - 1, k - 1)


def binom(n, k) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# ---------------------------------------------------------------------------
# explicit formulas
# ---------------------------------------------------------------------------

def _sum(terms) -> MPoly:
    return sum(terms, MPoly.zero(MASTER_VARS))


def master_poly_vy_formula(n: int) -> MPoly:
    """Stirling-subset expansion of the v=y specialization:
    sum_r {n r} (y-u)^(n-r) prod_{k=0}^{r-1}(w+ku)."""
    w, y, u, v = variables(MASTER_VARS)
    return _sum(stirling_subset(n, r) * (y - u) ** (n - r) * prod(w + k * u for k in range(r))
                for r in range(n + 1))


def cyc_exc_count_bruteforce(n: int) -> dict:
    """(cyc, exc) -> count over all permutations of [n]."""
    out = {}
    for (cyc, erec, _, rest), count in _master_counts(_capped(n)).items():
        out[cyc, erec + rest] = out.get((cyc, erec + rest), 0) + count
    return out


def cyc_exc_count_formula(n: int, i: int, l: int) -> int:
    """Alternating Stirling double sum for #{cyc = i, exc = l}."""
    acc = 0
    for r in range(i, n - l + 1):
        acc += (-1) ** (n - r - l) * stirling_subset(n, r) \
            * stirling_cycle(r, i) * binom(n - r, l)
    return acc


def _cyc_exc_cases(n_max: int):
    """((n, i, l), formula, brute-force count), one n at a time."""
    for n in range(n_max + 1):
        counts = cyc_exc_count_bruteforce(n)
        for i in range(n + 1):
            for l in range(n + 1):
                yield (n, i, l), cyc_exc_count_formula(n, i, l), counts.get((i, l), 0)


def explicit_formula_checks(n_max: int) -> dict:
    """The four summation identities at once, each True iff it holds for
    every n <= n_max; see the per-item keys."""
    w, y, u, v = variables(MASTER_VARS)
    ns = range(_capped(n_max) + 1)
    cases = {
        "stirling_expansion_v=y": (
            (n, master_poly_bruteforce(n).subs({"v": y}), master_poly_vy_formula(n))
            for n in ns),
        "cyc_exc_counts": _cyc_exc_cases(n_max),
        "eulerian_ordered_bell": (
            (n, _sum(eulerian(n, k) * y ** k * w ** (n - k) for k in range(n + 1)),
             _sum(factorial(r) * stirling_subset(n, r) * (y - w) ** (n - r) * w ** r
                  for r in range(n + 1)))
            for n in ns),
        "u1_specialization": (
            (n, master_poly_vy_formula(n).subs({"u": 1}),
             _sum(stirling_subset(n, r) * (y - 1) ** (n - r) * prod(w + k for k in range(r))
                  for r in range(n + 1)))
            for n in ns),
    }
    report = {key: first_mismatch(c) is None for key, c in cases.items()}
    report["ok"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# Stirling subset transform
# ---------------------------------------------------------------------------

def x_stirling_transform(a, x) -> list:
    """b_n = sum_k {n k} a_k x^(n-k)."""
    out = []
    for n in range(len(a)):
        acc = 0
        for k in range(n + 1):
            c = stirling_subset(n, k)
            if c == 0:
                continue
            term = c * a[k]
            if n - k:
                term = term * x ** (n - k)
            acc = acc + term
        out.append(acc)
    return out
