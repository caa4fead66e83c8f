"""Hankel matrices of polynomial sequences, coefficientwise total
positivity of bounded order, log-convexity, and two published parameter
hypothesis sets (``hypothesis_check``).

Both checks run on one compressed copy of the sequence (``_kronecker_pack``):
the entries are scaled to integer coefficients, exponents that are affine
functions of the index and of the other exponents are dropped (found by
``exactalg._pivot_columns``, the grading detector that
``families.evaluation_image`` shares), and one more variable is packed
into the integer coefficients by Kronecker substitution, so that each ``MPoly`` product of two entries multiplies whole columns of
terms as single big integers; for numeric entries in x alone each entry is
literally one ``int``, and the minors and differences are int arithmetic;
both kinds of entry go through the same code.  The 2 x 2 minors and the
strong log-convexity differences P_m P_{n+2} - P_{m+1} P_{n+1} are
differences of pair products from one table (``_differences``).  A
minor or difference has a negative coefficient iff one of its packed slots
is negative, which one test over its integers shows (``_negative_slot``).
Only the first failing minor or difference is expanded again from the
original entries, for its witness, the minor with ``bareiss_det``.

The last level of either check is only tested, never kept: every
difference of ``log_convexity``, and the minors of the top order of
``hankel_tp``.  On Linux, when that level is large enough
(``SPLIT_MIN_WORK``) and the process may run on two or more CPUs, it is
split across forked workers (``_first_flagged``); elsewhere, and for small
levels such as numeric entries, it runs in this process.  The split changes
no result, witness or exception.
"""
from __future__ import annotations

import os
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from heapq import heappop, heappush
from itertools import combinations
from math import factorial, lcm
from operator import or_
from typing import Optional, Sequence

from .exactalg import (
    MPoly, RatFunc, _pivot_columns, as_field, as_mpoly, divide_exact,
    felem_is_zero, least_negative,
)
from .gkpcore import GKPParams, gkp_rows, tilde_params


class RequiresNumeric(TypeError):
    pass


@dataclass
class TPReport:
    order: int
    ok: bool
    witness: Optional[dict] = None


def coeffwise_nonneg(p) -> tuple:
    """(True, None) iff every stored coefficient is >= 0; otherwise the
    first offending monomial in graded-lex order."""
    p = as_field(p)
    if isinstance(p, (int, Fraction)):
        return (True, None) if p >= 0 else (False, {"monomial": (), "coeff": p})
    p = _polynomial(p)
    bad = least_negative(p)
    if bad is None:
        return True, None
    e, c = bad
    return False, {"monomial": dict(zip(p.vars, e)), "coeff": c}


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = 0
    for j in range(n):
        a = rows[0][j]
        if felem_is_zero(a):
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def bareiss_det(rows):
    """Fraction-free determinant; entries int/Fraction/MPoly."""
    n = len(rows)
    if n < 4:
        return cofactor_det(rows)
    m = [[as_field(c) for c in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if felem_is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not felem_is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_div(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _exact_div(num, den):
    if isinstance(den, (int, Fraction)):
        if den == 1:
            return num
        if isinstance(num, (int, Fraction)):
            return Fraction(num) / Fraction(den)
        return num / den
    num = as_field(num)
    if isinstance(num, (int, Fraction)):
        if num == 0:
            return 0
        raise ArithmeticError("non-exact Bareiss division")
    q = divide_exact(num, den)
    if q is None:
        raise ArithmeticError("non-exact Bareiss division")
    return q


# desk-scale guard: full minor enumeration on symbolic entries grows very
# fast with the matrix size
SIZE_CAP = 6


def hankel_tp(seq: Sequence, m: int, r: int) -> TPReport:
    """All s x s minors, s <= r, of the m x m Hankel matrix of ``seq``;
    passes iff every minor has nonnegative coefficients.  The witness is the
    lexicographically first failure by (size, rows, cols).

    The matrix is symmetric, M(R, C) = M(C, R): only the minors with
    R <= C are formed, and the first failure is among them.  Order 2 takes
    a_{i+k} a_{j+l} - a_{i+l} a_{j+k} from ``_differences``; each higher
    order expands along the first row over the order below,
    M(R, C) = sum_t (-1)^t H[R_0][C_t] M(R[1:], C - C_t).  The minors are
    built on the entries of ``_kronecker_pack`` for products of min(r, m)
    entries: every term of one minor is a product of as many entries with
    the same index sum sum(R) + sum(C), so dropping determined exponents
    merges no two of its terms.  The entries are scaled by the lcm L of all
    coefficient denominators; an s x s minor is then L^s times the true
    one, with the same signs (the fraction-free idea of Bareiss, Math.
    Comp. 22, 1968).  Only the first failing minor is recomputed from the
    original entries, for its witness."""
    if m < 1 or r < 1:
        raise ValueError("Hankel size and order must be at least 1, got size %d, "
                         "order %d" % (m, r))
    if m > SIZE_CAP:
        raise ValueError("Hankel size %d exceeds the cap %d" % (m, SIZE_CAP))
    seq = list(seq)
    if len(seq) < 2 * m - 1:
        raise ValueError("need %d sequence entries for size %d" % (2 * m - 1, m))
    levels = min(r, m)
    packed, tops = _kronecker_pack(_as_mpoly_list(seq[:2 * m - 1]), levels)
    below = {}
    for s in range(1, levels + 1):
        subsets = list(combinations(range(m), s))
        pairs = [(R, C) for i, R in enumerate(subsets) for C in subsets[i:]]
        if s == 2:
            keys = [((i + k, j + l), (i + l, j + k)) for (i, j), (k, l) in pairs]
            minors = partial(_differences, packed)
        else:
            keys, minors = pairs, partial(_minors, packed, below)
        if s < levels:
            level = []
            flag = _first_negative(keys, minors, tops, level)
            below = dict(zip(pairs, level))
        elif s == 1 or isinstance(packed[0], int):  # no products, or cheap int ones
            flag = _first_negative(keys, minors, tops)
        else:
            flag = _first_flagged(keys, minors, tops, _difference_groups(packed, keys)
                                  if s == 2 else _laplace_groups(packed, below, pairs))
        if flag is not None:
            R, C = pairs[flag]
            minor = bareiss_det([[seq[i + j] for j in C] for i in R])
            ok, wit = coeffwise_nonneg(minor)
            if ok:
                raise ArithmeticError(
                    "packed check flags the minor with rows %r, cols %r, which "
                    "has no negative coefficient" % (R, C))
            return TPReport(order=r, ok=False, witness={
                "rows": R, "cols": C, "minor": minor, "offending": wit})
    return TPReport(order=r, ok=True)


def _minors(packed, below, pairs):
    """The packed minors M(R, C) of ``pairs``, all of one size, in turn: the
    entries themselves, or expansions along the first row over ``below``."""
    return (packed[R[0] + C[0]] if len(R) == 1 else _laplace(packed, below, R, C)
            for R, C in pairs)


def _laplace(packed, below, R, C):
    """M(R, C) along its first row; ``below`` holds only keys with R <= C."""
    head, tail = R[0], R[1:]
    minor = 0
    for t, c in enumerate(C):
        a = packed[head + c]
        if not a:
            continue
        rest = C[:t] + C[t + 1:]
        term = a * below[(tail, rest) if tail <= rest else (rest, tail)]
        minor = minor + term if t % 2 == 0 else minor - term
    return minor


def _laplace_groups(packed, below, pairs):
    """Each minor of ``pairs`` (of order 3 or more) on its own, with its
    work: sum |H[R_0][C_t]| |M(R[1:], C - C_t)| over its expansion."""
    groups = []
    for i, (R, C) in enumerate(pairs):
        tail, work = R[1:], 0
        for t, c in enumerate(C):
            rest = C[:t] + C[t + 1:]
            work += _size(packed[R[0] + c]) * _size(
                below[(tail, rest) if tail <= rest else (rest, tail)])
        groups.append((work, [i]))
    return groups


def _difference_groups(packed, keys):
    """The positions of the differences ``keys`` (as for ``_differences``)
    grouped by index sum a + b, which two differences sharing a product
    share, each group with its work: the term pairs that ``MPoly.__mul__``
    visits for its products, |P_i| |P_j|, or |P_i| (|P_i| + 1) / 2 for a
    square."""
    groups = {}
    for i, ((a, b), _) in enumerate(keys):
        groups.setdefault(a + b, []).append(i)
    return [(sum(_size(packed[i]) * _size(packed[j]) if i != j
                 else _size(packed[i]) * (_size(packed[i]) + 1) // 2
                 for i, j in {tuple(sorted(q)) for k in ks for q in keys[k]}), ks)
            for ks in groups.values()]


def _size(p):
    return len(p.terms) if isinstance(p, MPoly) else 1


def _differences(packed, keys):
    """P_a P_b - P_c P_d on the packed entries, for each ((a, b), (c, d)) of
    ``keys`` in turn.  Each product P_i P_j and each difference is formed
    once and dropped after its last use."""
    keys = [tuple((a, b) if a <= b else (b, a) for a, b in k) for k in keys]
    prods = _shared([p for k in dict.fromkeys(keys) for p in k],
                    lambda p: packed[p[0]] * packed[p[1]])
    return _shared(keys, lambda k: next(prods) - next(prods))


def _shared(keys, make):
    """make(key) for each of ``keys`` in turn: a value is made at the first
    use of its key and kept only until the last."""
    uses = Counter(keys)
    live = {}
    for key in keys:
        value = live.pop(key) if key in live else make(key)
        uses[key] -= 1
        if uses[key]:
            live[key] = value
        yield value


def _polynomial(p, vars=None) -> MPoly:
    """``as_mpoly``, with the coefficientwise order's own message for an
    entry that is not a polynomial."""
    try:
        return as_mpoly(p, vars)
    except TypeError:
        raise TypeError("coefficientwise order applies to polynomials") from None


def _as_mpoly_list(seq):
    """The entries as MPoly values; a scalar entry takes the variable tuple
    of the last polynomial entry (x when there is none)."""
    seq = [as_field(p) for p in seq]
    scalar = lambda p: isinstance(p, (int, Fraction))
    vars = next((p.vars for p in reversed(seq) if not scalar(p)), ("x",))
    return [_polynomial(p, vars if scalar(p) else None) for p in seq]


def _kronecker_pack(polys, r=2):
    """The entries of ``polys`` as ``MPoly`` values with packed integer
    coefficients, for minors of at most r x r (a log-convexity difference
    has the shape of a 2 x 2 one), and the mask of the top bit of every
    slot.  When no variable is left after packing, as for numeric entries
    in x alone, each entry is the packed integer itself, a plain ``int``.

    All entries are put on the union of their variable tuples and scaled by
    the lcm L of their coefficient denominators, c to the int
    c.numerator (L // c.denominator).  An exponent that is an affine
    function of the entry's index and of the other exponents, on every
    term of every entry, is dropped: every product of a minor has as
    many factors and the same index sum, so the dropped exponents of a
    minor's term follow from its kept ones.  One kept variable y is packed
    into the coefficient, c * y^e as c * 2^(W*e) (Kronecker substitution, in
    the packed layout of Monagan & Pearce, CASC 2007).  A coefficient of an
    r x r minor is a sum of r! signed products of r entries, each adding at
    most T^(r-1) products of r entry coefficients, T the largest entry size
    and top the largest coefficient: W leaves each slot one bit above
    r! T^(r-1) top^r for the sign, and a minor's y-degree is at most r
    times the largest one of an entry."""
    vars = tuple(dict.fromkeys(v for p in polys for v in p.vars))
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    terms = [[(e, c.numerator * (den // c.denominator)) for e, c in p.in_vars(vars).terms.items()]
             for p in polys]
    keep = [j - 2 for j in _pivot_columns(
        ((1, i) + e for i, ts in enumerate(terms) for e, _ in ts), len(vars) + 2)
        if j >= 2]
    largest = max(terms, key=len)
    # the packed variable is the one whose removal leaves the fewest sparse
    # keys, hence the fewest (and longest) integer products
    y = min(keep, key=lambda k: len({tuple(e[j] for j in keep if j != k)
                                     for e, _ in largest}), default=None)
    rest = [j for j in keep if j != y]

    def slot(e):
        return e[y] if y is not None else 0

    top = max((abs(c) for ts in terms for _, c in ts), default=0)
    width = (factorial(r) * len(largest) ** (r - 1) * top ** r).bit_length() + 1
    packed = []
    for ts in terms:
        out = {}
        for e, c in ts:
            k = tuple(e[j] for j in rest)
            out[k] = out.get(k, 0) + (c << width * slot(e))
        packed.append(MPoly([vars[j] for j in rest], out) if rest else out.get((), 0))
    slots = r * max((slot(e) for ts in terms for e, _ in ts), default=0) + 1
    tops = ((1 << width * slots) - 1) // ((1 << width) - 1) << (width - 1)
    return packed, tops


def _negative_slot(p, tops) -> bool:
    """Some packed slot of ``p`` (a packed ``int`` or ``MPoly``) is
    negative: one of its integers is negative, and then so is their bitwise
    or, or sets the top bit of a slot.  The lowest negative slot of a
    nonnegative integer always does, since every slot below it is
    nonnegative and borrows nothing."""
    v = p if isinstance(p, int) else reduce(or_, p.terms.values(), 0)
    return v < 0 or bool(v & tops)


def _first_negative(keys, values, tops, keep=None):
    """Position of the first of ``keys`` whose value has a negative packed
    slot, or None; ``values(keys)`` yields the values in turn, and ``keep``,
    when given, collects the values before that one."""
    for i, value in enumerate(values(keys)):
        if _negative_slot(value, tops):
            return i
        if keep is not None:
            keep.append(value)
    return None


# Least estimated work (term products, see ``_first_flagged``) for which the
# sign-only level is split across processes.  A fork round trip took 2.5-4 ms
# on a 2-CPU Linux host, on which packed products ran at 0.8-1.7 million term
# products per second: below this a level takes well under 100 ms, and half
# of it would not be worth a fork.
SPLIT_MIN_WORK = 100_000


def _first_flagged(keys, values, tops, groups):
    """``_first_negative`` over the whole last level of a check, whose
    values are only tested, never kept.  ``groups`` partitions the positions
    of ``keys`` into lists that share pair products, each with its work, the
    sum of |P_i| |P_j| over the products it forms.

    With W = min(usable CPUs, groups) >= 2 and at least ``SPLIT_MIN_WORK``
    of work, the groups go longest first to the least loaded of W shares.
    This process walks one share and a forked child each other one, every
    worker in order up to its first flag; the level's first flag is the
    least of theirs.  It stays serial where ``os.fork`` or
    ``os.sched_getaffinity`` is missing (outside Linux).  When a child does
    not report or anything raises here, the children are reaped and the
    whole level is walked serially, so results and exceptions are those of
    the serial walk."""
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(groups))
    if workers > 1 and sum(work for work, _ in groups) >= SPLIT_MIN_WORK:
        loads = [(0, 0, w) for w in range(workers)]
        shares = [[] for _ in range(workers)]
        for work, positions in sorted(groups, key=lambda g: -g[0]):
            load, _, w = heappop(loads)
            shares[w] += positions
            heappush(loads, (load + work, len(shares[w]), w))

        def walk(share):
            share.sort()
            i = _first_negative([keys[p] for p in share], values, tops)
            return None if i is None else share[i]

        flag = _forked_first(shares, walk)
        if flag is not False:
            return flag
    return _first_negative(keys, values, tops)


def _forked_first(shares, walk):
    """The least of walk(share) over ``shares``, walking the first share in
    this process and each other one in a forked child that reports on a
    pipe; False when a child fails to report or this process raises."""
    import signal  # here, not at start-up: only a split needs it
    pids, pipes = [], []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        flag = walk(share)
                        os.write(write, b"%d" % (-1 if flag is None else flag))
                        status = 0
                    finally:
                        os._exit(status)
                pids.append(pid)
            finally:
                os.close(write)
        flags = [walk(shares[0])]
        # a child that reports nothing is told apart by its exit status
        flags += [int(pipe.read() or -1) for pipe in pipes]
        while pids:
            status = os.waitpid(pids[-1], 0)[1]
            pids.pop()
            if status:
                return False
    except Exception:  # any failure here: the caller walks serially
        return False
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return min((f for f in flags if f is not None and f >= 0), default=None)


def log_convexity(seq: Sequence, n_max: int, strong: bool = False) -> dict:
    """Coefficientwise log-convexity P_n P_{n+2} - P_{n+1}^2 >= 0 for
    n <= n_max; with ``strong``, P_m P_{n+2} - P_{m+1} P_{n+1} >= 0 for all
    n >= m >= 0 up to n_max.  With nonnegative entries P_0..P_{n_max+2},
    the strong case implies order-2 total positivity of the Hankel matrix of
    size n_max/2 + 2, every 2 x 2 minor of which is a sum of the
    differences; the converse fails, since not every difference is a minor
    of that matrix.  A failure reports the graded-lex least monomial with a
    negative coefficient.

    The differences are formed by ``_differences`` on the packed entries
    of ``_kronecker_pack`` and decided by ``_negative_slot``.  Only the first
    failing difference is recomputed unpacked, for its witness."""
    if n_max < 0:
        raise ValueError("log-convexity needs n_max >= 0, got %d" % n_max)
    polys = _as_mpoly_list(seq)
    if len(polys) < n_max + 3:
        raise ValueError("need sequence entries through index %d" % (n_max + 2))
    pairs = [(m, n) for m in range(n_max + 1)
             for n in range(m, n_max + 1)] if strong \
        else [(n, n) for n in range(n_max + 1)]
    packed, tops = _kronecker_pack(polys[:n_max + 3])
    keys = [((m, n + 2), (m + 1, n + 1)) for m, n in pairs]
    differences = partial(_differences, packed)
    if isinstance(packed[0], int):  # numeric rows: one cheap int product per pair
        flag = _first_negative(keys, differences, tops)
    else:
        flag = _first_flagged(keys, differences, tops, _difference_groups(packed, keys))
    if flag is not None:
        m, n = pairs[flag]
        diff = polys[m] * polys[n + 2] - polys[m + 1] * polys[n + 1]
        bad = least_negative(diff)
        if bad is None:
            raise ArithmeticError(
                "packed check flags P_%d P_%d - P_%d P_%d, which has no "
                "negative coefficient" % (m, n + 2, m + 1, n + 1))
        e, c = bad
        return {"ok": False, "strong": strong,
                "first_failure": {"m": m, "n": n,
                                  "monomial": repr(MPoly(diff.vars, {e: 1})),
                                  "coeff": c}}
    return {"ok": True, "strong": strong, "n_max": n_max,
            "first_failure": None}


def gkp_tilde_polys(N: int):
    """Row polynomials of the shifted parametrization with all six weights
    symbolic; every entry has nonnegative integer coefficients."""
    names = ("ta", "tb", "tg", "tap", "tbp", "tgp")
    from .exactalg import variables
    gens = variables(names, extra=("x",))
    return gkp_rows(tilde_params(gens), N)


def hypothesis_check(mu, which: str) -> bool:
    """Exact evaluation of two published parameter hypothesis sets on a
    concrete parameter tuple.  Neither is a tested sufficient condition for
    the checks of this module: ``ChenWangYang`` admits mu = (0, 2, -1, 1/2,
    1, 2), whose entry T(1,0) = alpha + gamma is -1 and whose Hankel minors
    and strong log-convexity both fail, and what ``LiuWang`` implies is
    not checked here."""
    vals = []
    for v in tuple(GKPParams.of(mu)):
        v = as_field(v)
        if isinstance(v, MPoly):
            if not v.is_constant():
                raise RequiresNumeric("hypothesis sets need numeric parameters")
            v = v.constant_value()
        elif isinstance(v, RatFunc):
            raise RequiresNumeric("hypothesis sets need numeric parameters")
        vals.append(Fraction(v))
    a, b, g, ap, bp, gp = vals
    if which == "LiuWang":
        conds = [a >= 0, a + b >= 0, a + g >= 0,
                 ap >= 0, ap + bp >= 0, ap + bp + gp >= 0,
                 b * ap - a * bp >= 0,
                 b * (ap + bp) - a * bp >= 0,
                 b * (ap + bp + gp) - (a + g) * bp >= 0]
    elif which == "ChenWangYang":
        conds = [a >= 0, b >= 0, a + b + g >= 0,
                 ap >= 0, bp >= 0, ap + bp + gp >= 0]
    else:
        raise ValueError("which must be LiuWang or ChenWangYang")
    return all(conds)
