"""Exact scalar, multivariate-polynomial, rational-function and truncated
power-series arithmetic.

Everything downstream (triangles, continued fractions, the decision-tree
search, Hankel minors) runs on the three value types defined here:

* ``MPoly``     -- multivariate polynomial over Q in a declared, ordered
                   variable tuple, canonical under graded-lex term order.
* ``RatFunc``   -- reduced quotient of two MPoly values.
* ``TruncSeries`` -- truncated formal power series in an abstract variable t
                   whose coefficients are scalars, MPoly or RatFunc.

Scalars are plain ``int`` or ``fractions.Fraction``; no value is ever built
from a float.

An ``MPoly`` keys each term by one int that packs its exponent vector
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): fields of ``FIELD_BITS`` bits hold,
from the most significant end, the total degree and then the exponent of
each variable in order, each field topped by a clear guard bit.  Graded-lex
order is int order, a monomial product is a sum of keys, and divisibility is
one subtraction that leaves every guard bit set.  Exponents and total
degrees must stay below ``EXPONENT_LIMIT`` (2^15); a product that would
reach it raises ``OverflowError`` instead of carrying into the next field.
``MPoly.terms`` shows the terms keyed by exponent tuples.

Only a product of two operands that both have two or more terms runs the
pair loop over all pairs of terms.  A factor that is a scalar or a constant
multiplies every coefficient, and a single-term factor also adds its key to
every key (``_scaled``): distinct keys stay distinct, so nothing is
collected.  A scalar sum touches only the constant key, and ``subs`` returns
at once when no mapped variable occurs.  Each of these returns what the
general route returns: the same variable tuple, keys and coefficient types
(n/1 as an int), and the same ``OverflowError`` and ``TypeError``.

Every multivariate gcd goes through ``_common_factor``, which returns the
gcd of a list together with the cofactors p/g and checks the fallback
kernel's answer (``_gcd_nonzero``: common monomial, one trial division,
a coprimality certificate from modular images, then a primitive PRS) once
for all callers: ``mpoly_gcd``, ``mpoly_lcm``, ``RatFunc`` reduction and
arithmetic, and the content steps.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd as _int_gcd
from operator import or_
from random import Random
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
_INT_ONLY = frozenset((int,))


class DivisionByZeroPolynomial(ZeroDivisionError):
    pass


class NonInvertibleSeries(ZeroDivisionError):
    pass


# the packed monomial layout described in the module docstring
FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD = (1 << FIELD_BITS) - 1


def _guards(n):
    """Every guard bit of an n-variable key."""
    return ((1 << ((n + 1) * FIELD_BITS)) - 1) // _FIELD << (FIELD_BITS - 1)


def _divides(kb, ka, guards):
    """Monomial kb divides ka: no field of ka - kb borrows its guard bit."""
    return ((ka | guards) - kb) & guards == guards


def _var_shift(n, i):
    return (n - 1 - i) * FIELD_BITS


def _pack(e):
    if min(e, default=0) < 0:
        raise ValueError("negative exponent in %r" % (e,))
    k = sum(e)
    if k >= EXPONENT_LIMIT:
        raise OverflowError("total degree of %r reaches %d" % (e, EXPONENT_LIMIT))
    for x in e:
        k = (k << FIELD_BITS) | x
    return k


def _unpack(k, n):
    return tuple((k >> s) & _FIELD for s in range((n - 1) * FIELD_BITS, -1, -FIELD_BITS))


def _monomial_gcd(n, *terms):
    """The key of the componentwise minimum of the monomials of one or more
    packed term dicts, not all empty."""
    if any(0 in t for t in terms):
        return 0
    low = (1 << (n * FIELD_BITS)) - 1
    guards = _guards(n) & low
    it = chain(*terms)
    m = next(it) & low
    for k in it:
        if not m:
            return 0
        k &= low
        # one in the lowest bit of each field where m >= k
        ge = (((m | guards) - k) & guards) >> (FIELD_BITS - 1)
        m ^= (m ^ k) & ((ge << FIELD_BITS) - ge)
    return m | sum(_unpack(m, n)) << (n * FIELD_BITS)


def _split_var(terms, n, i):
    """Map x-power -> packed terms with vars[i]'s exponent (and its share
    of the degree) taken out."""
    s = _var_shift(n, i)
    step = (1 << s) + (1 << (n * FIELD_BITS))
    out = {}
    for k, c in terms.items():
        x = (k >> s) & _FIELD
        out.setdefault(x, {})[k - x * step] = c
    return out


def _norm_scalar(c):
    """Collapse Fraction with denominator 1 to int; reject floats."""
    if isinstance(c, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError("scalar must be int or Fraction, got %r" % type(c))


def rational(text) -> Fraction:
    """Parse an exact rational from 'num/den' or integer text."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, float):
        raise TypeError("floats are not accepted")
    text = str(text).strip()
    if any(ch in text for ch in ".eE"):
        raise ValueError("decimal notation is not accepted: %r" % text)
    return Fraction(text)


def rat_str(c) -> str:
    f = Fraction(c)
    return "%d/%d" % (f.numerator, f.denominator) if f.denominator != 1 else str(f.numerator)


class _ExponentView(Mapping):
    """Read-only view of packed terms as {exponent tuple: coefficient}."""

    __slots__ = ("_terms", "_n")

    def __init__(self, terms, n):
        self._terms = terms
        self._n = n

    def __getitem__(self, e):
        if len(e) != self._n:
            raise KeyError(e)
        try:
            return self._terms[_pack(e)]
        except (OverflowError, ValueError):
            raise KeyError(e) from None

    def __iter__(self):
        n = self._n
        return (_unpack(k, n) for k in self._terms)

    def __len__(self):
        return len(self._terms)

    def values(self):
        return self._terms.values()

    def items(self):
        n = self._n
        return [(_unpack(k, n), c) for k, c in self._terms.items()]


def _mpoly(vars, terms):
    """An MPoly over the tuple ``vars`` that owns the packed ``terms``."""
    p = object.__new__(MPoly)
    p.vars = vars
    p._terms = terms
    return p


def _scaled(vars, terms, s, shift=0):
    """The packed ``terms`` times the scalar ``s`` and the monomial with key
    ``shift`` (negative: a monomial that divides every term is taken out),
    over ``vars``.  Distinct keys stay distinct, so nothing is collected.
    The result is the pair loop's: zeros dropped and n/1 back to an int."""
    out = {}
    if s:
        for k, c in terms.items():
            c *= s
            if c:
                out[k + shift] = c if type(c) is int or c.denominator != 1 else c.numerator
    return _mpoly(vars, out)


class MPoly:
    """Multivariate polynomial with exact rational coefficients.

    ``vars`` is the ordered variable tuple.  The constructor takes a map
    from exponent tuples (length == len(vars)) to nonzero int/Fraction
    coefficients and stores it with packed monomial keys; ``terms`` reads
    it back as exponent tuples.  Instances are immutable by convention.
    """

    __slots__ = ("vars", "_terms")

    def __init__(self, vars: Sequence[str], terms=None):
        self.vars = tuple(vars)
        n = len(self.vars)
        packed = {}
        for e, c in (terms or {}).items():
            if len(e) != n:
                raise ValueError("exponent %r does not match %d variables" % (e, n))
            packed[_pack(e)] = c
        self._terms = packed

    @property
    def terms(self):
        return _ExponentView(self._terms, len(self.vars))

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c, vars=()) -> "MPoly":
        c = _norm_scalar(c)
        return _mpoly(tuple(vars), {0: c} if c else {})

    @staticmethod
    def variable(name: str, vars: Sequence[str]) -> "MPoly":
        vars = tuple(vars)
        n = len(vars)
        return _mpoly(vars, {1 << (n * FIELD_BITS) | 1 << _var_shift(n, vars.index(name)): 1})

    @staticmethod
    def zero(vars=()) -> "MPoly":
        return _mpoly(tuple(vars), {})

    @staticmethod
    def one(vars=()) -> "MPoly":
        return MPoly.constant(1, vars)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        t = self._terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self):
        t = self._terms
        if not t:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return t[0]

    def total_degree(self) -> int:
        return max(self._terms, default=0) >> (len(self.vars) * FIELD_BITS)

    def degree_in(self, name: str) -> int:
        s = _var_shift(len(self.vars), self.vars.index(name))
        return max(((k >> s) & _FIELD for k in self._terms), default=0)

    def in_vars(self, vars: Sequence[str]) -> "MPoly":
        """Re-express over a variable tuple containing all current vars."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        n, m = len(self.vars), len(vars)
        if vars[:n] == self.vars:
            # new variables at the end: every field moves up as one block
            up = (m - n) * FIELD_BITS
            return _mpoly(vars, {k << up: c for k, c in self._terms.items()})
        moves = [(_var_shift(n, i), _var_shift(m, vars.index(v)))
                 for i, v in enumerate(self.vars)]
        top, newtop = n * FIELD_BITS, m * FIELD_BITS
        out = {}
        for k, c in self._terms.items():
            nk = k >> top << newtop
            for s, d in moves:
                nk |= ((k >> s) & _FIELD) << d
            out[nk] = c
        return _mpoly(vars, out)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.vars == self.vars:
                return self, other
            merged = tuple(dict.fromkeys(self.vars + other.vars))
            return self.in_vars(merged), other.in_vars(merged)
        return self, MPoly.constant(other, self.vars)

    # Operands that need no pair loop or key merge come first.  Their
    # results are the general ones: the same tuple, keys and coefficient
    # types.  Here and in the field-element helpers below, the MPoly test
    # runs first: isinstance(x, Fraction) on anything else goes through
    # ABCMeta.__instancecheck__, which costs several times more.

    def _plus_scalar(self, s):
        """self + s for a normalized scalar s: only the constant key moves."""
        out = dict(self._terms)
        if s:
            c = out.get(0, 0) + s
            if c:
                out[0] = c if type(c) is int or c.denominator != 1 else c.numerator
            else:
                del out[0]
        return _mpoly(self.vars, out)

    def __add__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction)):
                return self._plus_scalar(_norm_scalar(other))
            return NotImplemented
        a, b = self._coerce(other)
        out = dict(a._terms)
        get = out.get
        for k, c in b._terms.items():
            s = get(k, 0) + c
            if s:
                out[k] = s if type(s) is int or s.denominator != 1 else s.numerator
            elif k in out:
                del out[k]
        return _mpoly(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _mpoly(self.vars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction)):
                return self._plus_scalar(-_norm_scalar(other))
            return NotImplemented
        a, b = self._coerce(other)
        out = dict(a._terms)
        get = out.get
        for k, c in b._terms.items():
            s = get(k, 0) - c
            if s:
                out[k] = s if type(s) is int or s.denominator != 1 else s.numerator
            elif k in out:
                del out[k]
        return _mpoly(a.vars, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction)):
                return _scaled(self.vars, self._terms, _norm_scalar(other))
            return NotImplemented
        a, b = self._coerce(other)
        ta, tb = a._terms, b._terms
        if not ta or not tb:
            return _mpoly(a.vars, {})
        if len(ta) < len(tb):
            ta, tb = tb, ta
        if len(tb) == 1:
            # a constant or single-term factor: scale and shift, no pair loop
            (kb, cb), = tb.items()
            if kb and (max(ta) + kb) >> (len(a.vars) * FIELD_BITS) >= EXPONENT_LIMIT:
                raise OverflowError("product degree reaches %d" % EXPONENT_LIMIT)
            return _scaled(a.vars, ta, cb, kb)
        if (max(ta) + max(tb)) >> (len(a.vars) * FIELD_BITS) >= EXPONENT_LIMIT:
            raise OverflowError("product degree reaches %d" % EXPONENT_LIMIT)
        # branch-free accumulation; one pass afterwards drops the zeros and,
        # only when an input had a Fraction, turns n/1 back into an int
        out = {}
        get = out.get
        pairs = list(ta.items())
        if ta is tb:
            # a square: each unordered pair of terms once, cross terms doubled
            for i, (ka, ca) in enumerate(pairs):
                k = ka + ka
                out[k] = get(k, 0) + ca * ca
                ca += ca
                for kb, cb in pairs[i + 1:]:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        else:
            for kb, cb in tb.items():
                for ka, ca in pairs:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        if _INT_ONLY.issuperset(map(type, ta.values())) and \
                _INT_ONLY.issuperset(map(type, tb.values())):
            if 0 in out.values():
                out = {k: c for k, c in out.items() if c}
        else:
            out = {k: c if c.denominator != 1 else c.numerator
                   for k, c in out.items() if c}
        return _mpoly(a.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = MPoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            if type(other) is int or other.denominator == 1:
                # an int quotient that is exact stays an int
                d = int(other)
                return _mpoly(self.vars, {
                    k: c // d if type(c) is int and not c % d
                    else _norm_scalar(Fraction(c) / d)
                    for k, c in self._terms.items()})
            return _scaled(self.vars, self._terms, _norm_scalar(1 / Fraction(other)))
        if isinstance(other, RatFunc):
            return NotImplemented
        return ratfunc(self, other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, MPoly):
            a, b = self._coerce(other)
            return a._terms == b._terms
        return NotImplemented

    def __hash__(self):
        # canonical modulo variable embedding and order: hash only the
        # nonzero-support of each monomial, as a set
        items = frozenset(
            (frozenset((v, k) for v, k in zip(self.vars, e) if k), Fraction(c))
            for e, c in self.terms.items()
        )
        return hash(items)

    def __bool__(self):
        return bool(self._terms)

    # -- calculus / views ----------------------------------------------

    def deriv(self, name: str) -> "MPoly":
        n = len(self.vars)
        s = _var_shift(n, self.vars.index(name))
        step = (1 << s) + (1 << (n * FIELD_BITS))
        # distinct monomials keep distinct derivatives: nothing to collect
        return _mpoly(self.vars, {k - step: c * ((k >> s) & _FIELD)
                                  for k, c in self._terms.items() if (k >> s) & _FIELD})

    def coeffs_in(self, name: str) -> dict:
        """Map x-power -> MPoly coefficient (x-exponent stripped to 0)."""
        split = _split_var(self._terms, len(self.vars), self.vars.index(name))
        return {x: _mpoly(self.vars, t) for x, t in sorted(split.items())}

    def subs(self, mapping: dict):
        """Substitute values (scalar / MPoly / RatFunc) for variables.

        Variables absent from ``mapping`` stay themselves; the result lives
        in the arithmetic closure of the substituted values.  It is the sum
        over the terms, in order, of the coefficient times the powers of the
        values; a value is built only when a power of it is needed.
        """
        t, vars = self._terms, self.vars
        if not t:
            return MPoly.zero(vars)
        n = len(vars)
        # a field of the OR of all keys is nonzero iff that variable occurs
        occurring = reduce(or_, t)
        if not any(v in mapping and occurring >> _var_shift(n, i) & _FIELD
                   for i, v in enumerate(vars)):
            # the sum would rebuild self: a scalar for a constant, else the
            # same terms with n/1 back to an int
            return _scaled(vars, t, 1) if occurring else t[0]
        vals = {}
        powers = {}

        def pw(i, k):
            if k == 0:
                return 1
            if (i, k) not in powers:
                if i not in vals:
                    v = vars[i]
                    vals[i] = mapping[v] if v in mapping else MPoly.variable(v, vars)
                powers[i, k] = pw(i, k - 1) * vals[i]
            return powers[i, k]

        acc = 0
        for key, c in t.items():
            term = c
            for i, k in enumerate(_unpack(key, n)):
                if k:
                    term = term * pw(i, k)
            acc = term + acc
        return acc

    # -- integer/monomial content --------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer, primitive."""
        if not self._terms:
            return Fraction(1)
        return _rational_content(self._terms.values())

    # -- display --------------------------------------------------------

    def sorted_terms(self):
        t, n = self._terms, len(self.vars)
        return [(_unpack(k, n), t[k]) for k in sorted(t, reverse=True)]

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mon = "*".join(
                "%s^%d" % (v, k) if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            if mon:
                if c == 1:
                    bits.append(mon)
                elif c == -1:
                    bits.append("-" + mon)
                else:
                    bits.append("%s*%s" % (rat_str(c), mon))
            else:
                bits.append(rat_str(c))
        s = " + ".join(bits).replace("+ -", "- ")
        return s


def least_negative(p: MPoly):
    """(exponents, coeff) of the graded-lex least term of p with a negative
    coefficient, or None."""
    neg = [k for k, c in p._terms.items() if c < 0]
    if not neg:
        return None
    k = min(neg)
    return _unpack(k, len(p.vars)), p._terms[k]


def variables(names, extra=()) -> tuple:
    """Generators over one shared registry: variables('a b c') -> (a, b, c)."""
    if isinstance(names, str):
        names = names.split()
    allnames = tuple(names) + tuple(extra)
    return tuple(MPoly.variable(n, allnames) for n in names)


def as_mpoly(x, vars=None) -> MPoly:
    """A scalar, an MPoly or a polynomial RatFunc as an MPoly.  Without
    ``vars`` an MPoly keeps its own tuple and a scalar has none.  With
    ``vars`` the value lies over exactly that tuple, which must hold every
    variable of a nonzero MPoly's tuple; a zero is ``MPoly.zero(vars)``."""
    if isinstance(x, RatFunc) and x.is_poly():
        x = x.as_mpoly()
    if not isinstance(x, MPoly):
        if isinstance(x, (int, Fraction)):
            return MPoly.constant(x, () if vars is None else vars)
        raise TypeError("not a polynomial: %r" % (x,))
    if vars is None:
        return x
    return x.in_vars(vars) if x else MPoly.zero(vars)


# ---------------------------------------------------------------------------
# exact division and multivariate gcd
# ---------------------------------------------------------------------------

def divide_exact(a: MPoly, b: MPoly):
    """Return a/b if b divides a exactly over Q[vars], else None.

    Heap division (Monagan & Pearce, J. Symbolic Comput. 46, 2011): the
    remainder's keys sit in a max-heap, so each step pops the leading term
    instead of scanning the whole remainder.
    """
    if b.is_zero():
        raise DivisionByZeroPolynomial("division by zero polynomial")
    a, b = a._coerce(b)
    if a.is_zero():
        return MPoly.zero(a.vars)
    if b.is_constant():
        return a / b.constant_value()
    tb = b._terms
    kb = max(tb)
    guards = _guards(len(a.vars))
    # most failing divisions fail here, before any heap is built
    if not _divides(kb, max(a._terms), guards):
        return None
    cb = tb[kb]
    rem = dict(a._terms)
    # a key is pushed when it enters rem; one popped after leaving rem is stale
    heap = [-k for k in rem]
    heapify(heap)
    quo = {}
    while heap:
        ka = -heappop(heap)
        if ka not in rem:
            continue
        if not _divides(kb, ka, guards):
            return None
        d = ka - kb
        # a borrow sets a guard bit; the keys below it need not run out
        if d & guards:
            raise ArithmeticError("exponent field of a quotient term out of range")
        r = rem[ka]
        if type(r) is int and type(cb) is int and not r % cb:
            q = r // cb
        else:
            q = _norm_scalar(Fraction(r) / cb)
        quo[d] = q
        for k2, c2 in tb.items():
            key = d + k2
            if key in rem:
                s = rem[key] - q * c2
                if s:
                    rem[key] = s
                else:
                    del rem[key]
            else:
                rem[key] = -(q * c2)
                heappush(heap, -key)
    return _mpoly(a.vars, quo)


def _poly_in_main(p: MPoly, i: int):
    """View nonzero p as univariate in vars[i]: list of MPoly coefficients
    (low->high).  ``_coprime`` has range-checked the exponents of p."""
    split = _split_var(p._terms, len(p.vars), i)
    return [_mpoly(p.vars, split.get(x, {})) for x in range(max(split) + 1)]


def mpoly_from_powers(coeffs, name: str, vars) -> MPoly:
    """sum_j coeffs[j] * name^j for MPoly coefficients over ``vars``,
    without forming a power or taking a product: the keys of coeffs[j] move
    up by j times the key of ``name``.  When no coefficient holds ``name``
    no two moved keys meet; otherwise the moved polynomials are added in
    order, as the products would be."""
    n, i = len(vars), vars.index(name)
    if max((p.total_degree() + j for j, p in enumerate(coeffs) if p),
           default=0) >= EXPONENT_LIMIT:
        raise OverflowError("product degree reaches %d" % EXPONENT_LIMIT)
    s = _var_shift(n, i)
    step = (1 << s) + (1 << (n * FIELD_BITS))
    if not any(reduce(or_, p._terms, 0) >> s & _FIELD for p in coeffs):
        return _mpoly(vars, {k + j * step: c for j, p in enumerate(coeffs)
                             for k, c in p._terms.items()})
    return sum((_mpoly(vars, {k + j * step: c for k, c in p._terms.items()})
                for j, p in enumerate(coeffs)), MPoly.zero(vars))


def _common_factor(polys, start=None):
    """Normalized gcd g of a list of MPoly values, and the cofactors p/g:
    the one gcd route of this module.

    Divide-first: g starts as the normalized entry with the fewest terms,
    or as polys[start] when the caller knows that entry to be normalized.
    That entry's cofactor is its lead content, taken without a division;
    every other entry is divided by g once.  Only a failed division shrinks
    g to gcd(g, p) by the fallback kernel ``_gcd_nonzero``; the cofactors
    already kept, the start entry's first among them, are then multiplied
    by the exact ratio old g / new g.  Once g is constant it is 1 and the
    entries come back unchanged.

    The kernel's answer is checked here and nowhere else: every other
    cofactor comes from an exact division, a fallback gcd must be a proper
    factor of g, and its degree must be one the packed keys can hold.  A
    failed check means inconsistent kernels, and going on need not
    terminate.
    """
    nonzero = [i for i, p in enumerate(polys) if not p.is_zero()]
    if not nonzero:
        return MPoly.zero(polys[0].vars if polys else ()), list(polys)
    if start is None:
        start = min(nonzero, key=lambda i: len(polys[i]._terms))
        c = _lead_content(polys[start])
        g = polys[start] / c
    else:
        c, g = 1, polys[start]
    if g.is_constant():
        return g, list(polys)
    quos = {start: MPoly.constant(c, g.vars)}
    for i, p in enumerate(polys):
        if i == start:
            continue
        q = divide_exact(p, g)
        if q is None:
            h = _gcd_nonzero(*p._coerce(g))
            if h.total_degree() >= EXPONENT_LIMIT:
                raise ArithmeticError("degree of gcd %r out of range" % (h,))
            if h.is_constant():
                return MPoly.one(h.vars), list(polys)
            # h divides g and p, and g does not divide p: h is a proper
            # factor of g
            ratio = divide_exact(g, h) if h.total_degree() < g.total_degree() else None
            if ratio is None:
                raise ArithmeticError("gcd fallback did not shrink %r" % (g,))
            quos = {j: x * ratio for j, x in quos.items()}
            g = h
            q = _cofactor(p, g)
        quos[i] = q
    return g, [quos[i] for i in range(len(polys))]


def _cofactor(p: MPoly, g: MPoly) -> MPoly:
    """p / g for a gcd g of p; a failed division means inconsistent
    kernels, and going on would compute with garbage."""
    q = divide_exact(p, g)
    if q is None:
        raise ArithmeticError("gcd %r does not divide %r" % (g, p))
    return q


def mpoly_lcm(polys, vars):
    """A least common multiple of nonzero MPoly values (1 over ``vars`` for
    none), built left to right as L * (p / gcd(L, p))."""
    it = iter(polys)
    L = next(it, MPoly.one(vars))
    for p in it:
        _, (_, q) = _common_factor([L, p])
        L = L * q
    return L


def mpoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """gcd over Q[vars], normalized primitive-integer with positive lead:
    the gcd that ``_common_factor`` returns for the pair."""
    return _common_factor(a._coerce(b))[0]


def _gcd_nonzero(a: MPoly, b: MPoly) -> MPoly:
    """The fallback kernel of ``_common_factor``: gcd of nonzero a and b,
    where b does not divide a.  The common monomial, times the gcd of what
    is left after it is stripped: 1 when the certificate ``_coprime``
    proves it, else the PRS."""
    ta, tb = a._terms, b._terms
    mg = _monomial_gcd(len(a.vars), ta, tb)
    if mg:
        a, b = _scaled(a.vars, ta, 1, -mg), _scaled(b.vars, tb, 1, -mg)
        ta, tb = a._terms, b._terms
    # after stripping the common monomial, a monomial (or constant) is
    # coprime to the rest
    if len(ta) == 1 or len(tb) == 1:
        g = MPoly.one(a.vars)
    elif divide_exact(b, a) is not None:
        g = _normalize_gcd(a)
    elif _coprime(a, b):
        g = MPoly.one(a.vars)
    else:
        g = _content_prs_gcd(a, b)
    return _scaled(g.vars, g._terms, 1, mg) if mg else g


# Images for the coprimality certificate: every variable but one at a fixed
# point mod a prime
_IMAGE_PRIME = (1 << 61) - 1
_IMAGE_POINTS = []
_IMAGE_INVERSES = []
_POINT_SOURCE = Random(1971)


def _image_points(n):
    """The points of the first n variables of a tuple, drawn once, in
    order, from a seeded generator."""
    while len(_IMAGE_POINTS) < n:
        r = _POINT_SOURCE.randrange(2, _IMAGE_PRIME)
        _IMAGE_POINTS.append(r)
        _IMAGE_INVERSES.append(pow(r, -1, _IMAGE_PRIME))
    return _IMAGE_POINTS


def _coprime(a: MPoly, b: MPoly) -> bool:
    """True when a and b, over one tuple, with two or more terms each, no
    common monomial and neither dividing the other, are proven coprime;
    False means undecided.

    Coprime when no variable occurs in both, or when one of them has total
    degree 1 (it is irreducible and does not divide the other).  Otherwise,
    for each shared variable v, every other variable goes to its point mod
    ``_IMAGE_PRIME`` (Brown, JACM 18, 1971).  An image counts only if both
    degrees in v survive.  Then lc_v(gcd) divides lc_v(a), so the gcd keeps
    its degree in v under the evaluation; when every image gcd is constant,
    the gcd has degree 0 in every variable."""
    n = len(a.vars)
    occ_a, occ_b = reduce(or_, a._terms), reduce(or_, b._terms)
    # a valid key has every guard bit clear; a set one comes from a borrow
    if (occ_a | occ_b) & _guards(n):
        raise ArithmeticError("exponent field of a gcd operand out of range")
    both = occ_a & occ_b
    shifts = [_var_shift(n, i) for i in range(n)]
    shared = [i for i, s in enumerate(shifts) if both >> s & _FIELD]
    if not shared or a.total_degree() == 1 or b.total_degree() == 1:
        return True
    _image_points(n)
    fa = _images(a, occ_a, shared, shifts)
    fb = _images(b, occ_b, shared, shifts) if fa else None
    return fb is not None and not any(map(_image_gcd_degree, fa, fb))


def _images(p: MPoly, occ, shared, shifts):
    """For each index i in ``shared``, p mod ``_IMAGE_PRIME`` with every
    variable but vars[i] at its point, as a coefficient list in vars[i]
    (low to high); None if a denominator vanishes mod the prime or a
    degree drops.  ``occ`` is the OR of p's keys.  Each term is evaluated
    at every point once; the image in vars[i] then takes the power of
    vars[i]'s point back out."""
    P = _IMAGE_PRIME
    occurring = [(_IMAGE_POINTS[j], s) for j, s in enumerate(shifts)
                 if occ >> s & _FIELD]
    back = [(shifts[i], _IMAGE_INVERSES[i]) for i in shared]
    rows = [{} for _ in shared]
    for k, c in p._terms.items():
        if type(c) is not int:
            d = c.denominator % P
            if not d:
                return None
            c = c.numerator * pow(d, -1, P)
        for r, s in occurring:
            e = k >> s & _FIELD
            if e:
                c = c * pow(r, e, P) % P
        for row, (s, inv) in zip(rows, back):
            e = k >> s & _FIELD
            row[e] = (row.get(e, 0) + (c * pow(inv, e, P) if e else c)) % P
    images = []
    for row in rows:
        top = max(row)
        if not row[top]:
            return None
        images.append([row.get(e, 0) for e in range(top + 1)])
    return images


def _image_gcd_degree(f, g) -> int:
    """Degree of the gcd of two coefficient lists (low to high, nonzero
    leading entries) over the integers mod ``_IMAGE_PRIME``: Euclid."""
    P = _IMAGE_PRIME
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        dg = len(g) - 1
        inv = pow(g[-1], -1, P)
        f = list(f)
        for k in range(len(f) - 1 - dg, -1, -1):
            q = f[k + dg] * inv % P
            if q:
                for j in range(dg):
                    f[k + j] = (f[k + j] - q * g[j]) % P
        f = f[:dg]
        while f and not f[-1]:
            f.pop()
        if not f:
            return dg
        f, g = g, f
    return 0


def _content_prs_gcd(a: MPoly, b: MPoly) -> MPoly:
    """gcd of a and b, with two or more terms each, no common monomial factor
    and a shared variable: content gcd times primitive PRS in the first one."""
    n = len(a.vars)
    # a field of the OR of all keys is nonzero iff that variable occurs
    both = reduce(or_, a._terms) & reduce(or_, b._terms)
    main = next(i for i in range(n) if both >> _var_shift(n, i) & _FIELD)
    ca, fa = _common_factor(_poly_in_main(a, main))
    cb, fb = _common_factor(_poly_in_main(b, main))
    cont = mpoly_gcd(ca, cb)
    prim = _prs_gcd(fa, fb, main, a.vars)
    return _normalize_gcd(cont * prim)


def _lead_content(p: MPoly) -> Fraction:
    """The content of nonzero p with the sign of its graded-lex leading
    coefficient: p divided by it is integer-primitive with a positive
    lead."""
    c = p.content()
    return -c if p._terms[max(p._terms)] < 0 else c


def _normalize_gcd(p: MPoly) -> MPoly:
    return p / _lead_content(p) if p else p


def _prs_gcd(F, G, main, vars):
    """Primitive PRS on univariate-in-main coefficient lists."""
    if len(F) - 1 < len(G) - 1:
        F, G = G, F
    while True:
        dG = len(G) - 1
        if dG == 0:
            return MPoly.one(vars)
        R = _pseudo_rem(F, G, vars)
        while R and R[-1].is_zero():
            R.pop()
        if not R:
            return mpoly_from_powers(_common_factor(G)[1], vars[main], vars)
        R = _scalar_primitive(_common_factor(R)[1])
        F, G = G, R


def _scalar_primitive(polys):
    """The coefficient list ``polys``, not all zero, divided by the content
    of all its coefficients together.  Without this step a pseudo-remainder
    keeps every integer factor that the leading coefficients multiply in,
    and on polynomials in one variable their size grows exponentially with
    the number of steps."""
    c = _rational_content([c for p in polys for c in p._terms.values()])
    return polys if c == 1 else [p / c for p in polys]


def _rational_content(coeffs) -> Fraction:
    """The gcd of the numerators of ``coeffs`` over the lcm of their
    denominators; ``coeffs`` is read twice."""
    if _INT_ONLY.issuperset(map(type, coeffs)):
        return Fraction(_int_gcd(*coeffs))
    num, den = 0, 1
    for f in map(Fraction, coeffs):
        num = _int_gcd(num, f.numerator)
        den = den * f.denominator // _int_gcd(den, f.denominator)
    return Fraction(num, den)


def _pseudo_rem(F, G, vars):
    """Pseudo-remainder of coefficient lists (univariate over MPoly)."""
    F = list(F)
    dF, dG = len(F) - 1, len(G) - 1
    lg = G[-1]
    for k in range(dF - dG, -1, -1):
        top = F[dG + k]
        if top.is_zero():
            continue
        F = [c * lg for c in F]
        for j, gj in enumerate(G):
            F[j + k] = F[j + k] - top * gj
        # after multiplying by lg and cancelling, top slot is zero
        F[dG + k] = MPoly.zero(vars)
    return F[:dG]


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced quotient num/den of two MPoly over one variable tuple.

    Canonical form: gcd(num, den) constant, den integer-primitive with
    positive graded-lex leading coefficient.  Equality is structural.

    ``RatFunc(num, den)`` reduces arbitrary parts (``_reduce_fraction``):
    it divides both by their gcd.  Arithmetic instead relies on both
    operands being canonical (Henrici, JACM 3, 1956; Knuth, TAOCP vol. 2,
    4.5.1): only gcds of the factors can cancel, so it never takes the gcd
    of a full product.  Both take the gcd and its cofactors from
    ``_common_factor``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise DivisionByZeroPolynomial("zero denominator")
        num, den = _reduce_fraction(*num._coerce(den))
        self.num = num
        self.den = den

    # -- basics ---------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_constant()

    def as_mpoly(self) -> MPoly:
        if not self.is_poly():
            raise ValueError("not a polynomial: %r" % self)
        return self.num / self.den.constant_value()

    @property
    def vars(self):
        return self.num.vars

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MPoly):
            return _ratfunc(other, MPoly.one(other.vars))
        if isinstance(other, (int, Fraction)):
            return _ratfunc(MPoly.constant(other, self.vars), MPoly.one(self.vars))
        return None

    def _parts(self, other):
        """(n1, d1, n2, d2) of self and other over one variable tuple, or
        None when other is not a field element."""
        o = self._coerce(other)
        if o is None:
            return None
        parts = (self.num, self.den, o.num, o.den)
        if o.vars == self.vars:
            return parts
        vars = tuple(dict.fromkeys(self.vars + o.vars))
        return tuple(p.in_vars(vars) for p in parts)

    def __add__(self, other):
        parts = self._parts(other)
        return NotImplemented if parts is None else _rf_add(*parts)

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self.num, self.den)

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        n1, d1, n2, d2 = parts
        return _rf_add(n1, d1, -n2, d2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._parts(other)
        return NotImplemented if parts is None else _rf_mul(*parts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        n1, d1, n2, d2 = parts
        if n2.is_zero():
            raise DivisionByZeroPolynomial("division by zero rational function")
        return _rf_mul(n1, d1, d2, n2)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def inv(self):
        if self.num.is_zero():
            raise DivisionByZeroPolynomial("inverse of zero")
        return _normalize_den(self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        # powers of coprime parts stay coprime
        return _normalize_den(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            other = self._coerce(other)
        if isinstance(other, RatFunc):
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def subs(self, mapping: dict):
        return felem_div(self.num.subs(mapping), self.den.subs(mapping))

    def __repr__(self):
        if self.den == 1:
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


def _ratfunc(num: MPoly, den: MPoly) -> RatFunc:
    """A RatFunc that owns parts already in canonical form."""
    r = object.__new__(RatFunc)
    r.num = num
    r.den = den
    return r


def _normalize_den(num: MPoly, den: MPoly) -> RatFunc:
    """num/den for coprime parts over one variable tuple, scaled so that den
    is integer-primitive with a positive leading coefficient."""
    c = _lead_content(den)
    if c != 1:
        den, num = den / c, num / c
    return _ratfunc(num, den)


def _cancel(a: MPoly, b: MPoly):
    """[a/g, b/g] for g = gcd(a, b), a and b nonzero."""
    if a.is_constant() or b.is_constant():
        return a, b
    return _common_factor([a, b])[1]


def _rf_mul(n1: MPoly, d1: MPoly, n2: MPoly, d2: MPoly) -> RatFunc:
    """(n1/d1)(n2/d2) for coprime pairs (n1, d1) and (n2, d2): only
    gcd(n1, d2) and gcd(n2, d1) can cancel."""
    if n1.is_zero() or n2.is_zero():
        return _ratfunc(MPoly.zero(n1.vars), MPoly.one(n1.vars))
    n1, d2 = _cancel(n1, d2)
    n2, d1 = _cancel(n2, d1)
    return _normalize_den(n1 * n2, d1 * d2)


def _rf_add(n1: MPoly, d1: MPoly, n2: MPoly, d2: MPoly) -> RatFunc:
    """n1/d1 + n2/d2 for coprime pairs with canonical denominators: with
    g = gcd(d1, d2) and t = n1 (d2/g) + n2 (d1/g), only h = gcd(t, g) can
    cancel, and the sum is (t/h) / ((d1/g)(d2/h)) with d2/h = (d2/g)(g/h).
    A constant canonical denominator is 1, and then the other one is the
    sum's."""
    if d2.is_constant():
        return _ratfunc(n1 + (n2 if d1.is_constant() else n2 * d1), d1)
    if d1.is_constant():
        return _ratfunc(n1 * d2 + n2, d2)
    g, (e1, e2) = _common_factor([d1, d2])
    t = n1 * e2 + n2 * e1
    if t.is_zero():
        return _ratfunc(t, MPoly.one(t.vars))
    h, (gh, t) = _common_factor([g, t], start=0)
    return _normalize_den(t, e1 * (d2 if h.is_constant() else e2 * gh))


def _reduce_fraction(num: MPoly, den: MPoly):
    """Canonical (num, den) for arbitrary parts over one variable tuple."""
    if num.is_zero():
        return num, MPoly.one(den.vars)
    r = _normalize_den(*_cancel(num, den))
    return r.num, r.den


def ratfunc(num, den) -> RatFunc:
    num = num if isinstance(num, MPoly) else MPoly.constant(num)
    den = den if isinstance(den, MPoly) else MPoly.constant(den, num.vars)
    return RatFunc(num, den)


def as_field(x):
    """Promote to a field element usable in series coefficients."""
    if isinstance(x, (MPoly, RatFunc, int, Fraction)):
        return x
    raise TypeError("not a field element: %r" % type(x))


def felem_is_zero(x) -> bool:
    if isinstance(x, (MPoly, RatFunc)):
        return x.is_zero()
    if isinstance(x, (int, Fraction)):
        return x == 0
    raise TypeError(type(x))


def num_den(c):
    """(numerator, denominator) of a field element: a RatFunc's reduced
    parts, or (c, 1) for a scalar or an MPoly."""
    if isinstance(c, RatFunc):
        return c.num, c.den
    return as_field(c), 1


def felem_div(a, b):
    """a / b in canonical form: a Fraction when both are scalars, otherwise
    an MPoly when the quotient is a polynomial and a reduced RatFunc when it
    is not."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    if isinstance(a, (int, Fraction)):
        a = MPoly.constant(a, b.vars)
    if a.is_zero() and not felem_is_zero(b):
        # the zero that the quotient below gives, without building it
        return MPoly.zero(dict.fromkeys(a.vars + getattr(b, "vars", ())))
    if isinstance(a, MPoly):
        a = _ratfunc(a, MPoly.one(a.vars))
    q = a / b
    return q.as_mpoly() if q.is_poly() else q


def clear_denominators(values, vars):
    """(numerators, L): L is the lcm of the denominators of the field
    elements ``values`` and values[i] == numerators[i] / L.  When no value
    has a denominator, L is 1 over ``vars`` and the numerators are the values
    themselves (a polynomial RatFunc as its MPoly); otherwise every
    numerator is an MPoly."""
    parts = [num_den(v) for v in values]
    L = mpoly_lcm([d for _, d in parts if d != 1], vars)
    if L == 1:
        return [n for n, _ in parts], L
    return [n * L if d == 1 else n * divide_exact(L, d) for n, d in parts], L


def felem_eq(a, b) -> bool:
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a == b
    return felem_is_zero(a - b)


def first_mismatch(cases):
    """The first ``(key, got, want)`` of ``cases`` whose two sides differ,
    or None.  ``cases`` is consumed lazily: nothing after the first
    mismatch is computed."""
    for case in cases:
        if not felem_eq(case[1], case[2]):
            return case
    return None


def mismatch_report(bad) -> dict:
    """The verdict of a ``first_mismatch`` result, with the mismatching key
    as the witness."""
    return {"ok": bad is None, "first_mismatch": None if bad is None else bad[0]}


def x_coeffs(p, x: str = "x") -> dict:
    """{k: [x^k] p} over the nonzero coefficients of a field element whose
    denominator is free of ``x``: a scalar is its own x^0 coefficient, an
    MPoly's coefficients are MPoly values over its tuple and a RatFunc's
    are RatFunc values over its denominator."""
    if isinstance(p, (int, Fraction)):
        return {0: p} if p else {}
    if isinstance(p, RatFunc):
        if x in p.den.vars and p.den.degree_in(x) > 0:
            raise ValueError("denominator must be free of %s" % x)
        return {k: RatFunc(v, p.den) for k, v in x_coeffs(p.num, x).items()}
    p = as_mpoly(p)
    if x not in p.vars:
        return {0: p} if p else {}
    return {k: v for k, v in p.coeffs_in(x).items() if v}


# ---------------------------------------------------------------------------
# truncated formal power series
# ---------------------------------------------------------------------------

class TruncSeries:
    """Power series in t truncated at a fixed order N (inclusive)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable):
        coeffs = list(coeffs)
        if len(coeffs) < order + 1:
            coeffs += [0] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs[: order + 1]

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries(order, [1] + [0] * order)

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncSeries":
        return TruncSeries(order, self.coeffs[: order + 1])

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction, MPoly, RatFunc)):
            return TruncSeries(self.order, [other] + [0] * self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return TruncSeries(n, [self.coeffs[i] + o.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return TruncSeries(n, [self.coeffs[i] - o.coeffs[i] for i in range(n + 1)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        out = []
        for k in range(n + 1):
            acc = None
            for i in range(k + 1):
                a = self.coeffs[i]
                b = o.coeffs[k - i]
                if felem_is_zero(a) or felem_is_zero(b):
                    continue
                term = a * b
                acc = term if acc is None else acc + term
            out.append(0 if acc is None else acc)
        return TruncSeries(n, out)

    __rmul__ = __mul__

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(self.order, [c * x for x in self.coeffs])

    def shift_up(self, k: int = 1) -> "TruncSeries":
        """Multiply by t^k."""
        return TruncSeries(self.order, [0] * k + self.coeffs[: self.order + 1 - k])

    def reciprocal(self) -> "TruncSeries":
        c0 = self.coeffs[0]
        if felem_is_zero(c0):
            raise NonInvertibleSeries("zero constant term")
        inv0 = None if felem_eq(c0, 1) else felem_div(1, c0)
        out = [1 if inv0 is None else inv0]
        for k in range(1, self.order + 1):
            acc = None
            for j in range(1, k + 1):
                a = self.coeffs[j]
                if felem_is_zero(a):
                    continue
                term = a * out[k - j]
                acc = term if acc is None else acc + term
            if acc is None:
                out.append(0)
            else:
                out.append(-acc if inv0 is None else -(inv0 * acc))
        return TruncSeries(self.order, out)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.reciprocal()

    def deriv_t(self) -> "TruncSeries":
        return TruncSeries(self.order - 1,
                           [(i + 1) * self.coeffs[i + 1] for i in range(self.order)])

    def deriv_coeff(self, name: str) -> "TruncSeries":
        out = []
        for c in self.coeffs:
            if isinstance(c, (int, Fraction)):
                out.append(0)
            elif isinstance(c, MPoly):
                out.append(c.deriv(name))
            else:
                num, den = c.num, c.den
                out.append(RatFunc(num.deriv(name) * den - num * den.deriv(name), den * den))
        return TruncSeries(self.order, out)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        if not felem_is_zero(inner.coeffs[0]):
            raise ValueError("inner series must have zero constant term")
        n = min(self.order, inner.order)
        acc = TruncSeries(n, [self.coeffs[0]] + [0] * n)
        power = TruncSeries.one(n)
        for k in range(1, n + 1):
            power = power * inner
            c = self.coeffs[k]
            if not felem_is_zero(c):
                acc = acc + power.scale(c)
        return acc

    def exp(self) -> "TruncSeries":
        if not felem_is_zero(self.coeffs[0]):
            raise ValueError("exp requires zero constant term")
        n = self.order
        # E' = f' E  =>  (k+1) e_{k+1} = sum_j (j+1) f_{j+1} e_{k-j}
        e = [1]
        for k in range(n):
            acc = None
            for j in range(k + 1):
                f = self.coeffs[j + 1]
                if felem_is_zero(f):
                    continue
                term = ((j + 1) * f) * e[k - j]
                acc = term if acc is None else acc + term
            e.append(0 if acc is None else acc * Fraction(1, k + 1))
        return TruncSeries(n, e)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return all(felem_eq(self.coeffs[i], o.coeffs[i]) for i in range(n + 1))

    def is_zero(self) -> bool:
        return all(felem_is_zero(c) for c in self.coeffs)

    def __repr__(self):
        return "TruncSeries(order=%d, %s)" % (
            self.order, ", ".join("[t^%d] %r" % (i, c) for i, c in enumerate(self.coeffs)))


def generalized_binomial_series(base: TruncSeries, exponent) -> TruncSeries:
    """base**exponent for a field-element exponent e (a scalar, an MPoly or
    a RatFunc), [t^0]base = 1.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) for g = f^e:
    n g_n = sum_{k=1..n} ((e+1)k - n) f_k g_{n-k}, summed as
    (e+1) sum k f_k g_{n-k} - n sum f_k g_{n-k}, so e enters two products
    per coefficient and the whole series costs O(order^2) products.
    """
    if not felem_eq(base.coeffs[0], 1):
        raise ValueError("base must have constant term 1")
    f = base.coeffs
    e1 = exponent + 1
    g = [1]
    for n in range(1, base.order + 1):
        weighted = plain = 0
        for k in range(1, n + 1):
            if felem_is_zero(f[k]) or felem_is_zero(g[n - k]):
                continue
            term = f[k] * g[n - k]
            weighted = weighted + k * term
            plain = plain + term
        g.append((e1 * weighted - n * plain) * Fraction(1, n))
    return TruncSeries(base.order, g)


def exp_series(a, order: int) -> TruncSeries:
    """e^{a t} truncated: coefficients a^n / n!."""
    coeffs = [1]
    fact = 1
    pw = 1
    for n in range(1, order + 1):
        pw = pw * a
        fact = fact * n
        coeffs.append(pw * Fraction(1, fact))
    return TruncSeries(order, coeffs)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def mpoly_to_json(p: MPoly) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [[list(e), rat_str(c)] for e, c in p.sorted_terms()],
    }


def felem_to_json(c):
    if isinstance(c, (int, Fraction)):
        return rat_str(c)
    if isinstance(c, MPoly):
        return mpoly_to_json(c)
    if isinstance(c, RatFunc):
        if c.is_poly():
            return mpoly_to_json(c.as_mpoly())
        return {"num": mpoly_to_json(c.num), "den": mpoly_to_json(c.den)}
    raise TypeError(type(c))


def series_to_json(s: TruncSeries) -> dict:
    return {"order": s.order, "coeffs": [felem_to_json(c) for c in s.coeffs]}
