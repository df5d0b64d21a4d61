"""Exact univariate arithmetic in the formal variable w.

Every generating function downstream is naturally a function of u = w**2
(one unit of geodesic length is one power of u), but half-integer
u-exponents occur along glide axes, so the whole stack computes in w; a
function of u is reduced and expanded in u, at the reporting layer.

Every zeta function, correction factor and L-polynomial is a finite
cycle product prod (1 - w**e)**k_e, held as a CycleProduct exponent
dict: identities between them are dict equalities, decided in integer
arithmetic.  One kernel, _expand, multiplies such a product out as a
power series truncated at a given order.  CycleProduct.expanded gives
the reduced num and den as int coefficient lists through it, in u for a
function of u, and spread carries a list to w.  Those lists are the only
dense polynomials in the package: it has no polynomial class, and a
product of two polynomials is the expansion of their merged factor
dicts.  The Moebius exponents are peeled from the traces in increasing
d, at a cost that follows the nonzero ones (_moebius_exponents).  A
product whose k_e have one sign is its own reduced form; other reduced
forms write each Phi_m through the squarefree divisors of m, found from
its primes by trial division: nothing here sieves primes or tabulates
mu.  The rational polynomials and power series and det(I - wT) that the
tests compare these integer paths against live in the tests' reference
module.  Nothing in this package uses rationals or floating point.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from typing import Optional, Sequence


class NotPolynomialWithinBound(ValueError):
    """A reconstructed polynomial has a nonzero coefficient above its degree bound."""

    def __init__(self, exponent: int):
        super().__init__(
            f"not polynomial within bound: nonzero coefficient at w^{exponent}"
        )
        self.exponent = exponent


# ---------------------------------------------------------------------------
# Cycle products
# ---------------------------------------------------------------------------


class NotCycleProduct(ValueError):
    """A trace sequence is not the logarithm of a finite cycle product."""


def _divisors(n: int) -> list:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _mobius_divisors(m: int) -> list:
    """(s, mu(s)) for the squarefree divisors s of m.

    The distinct primes of m are found by trial division; each doubles
    the list, with the sign flipped on the new half.
    """
    terms = [(1, 1)]
    p = 2
    while p * p <= m:
        if m % p == 0:
            terms += [(s * p, -mu) for s, mu in terms]
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        terms += [(s * m, -mu) for s, mu in terms]
    return terms


def _cyclotomic_exponents(k: dict) -> dict:
    """{m: c_m}, c_m != 0, with prod (1 - x**e)**k_e = prod_m Phi_m(x)**c_m:
    c_m sums the k_e over the multiples e of m (Phi_1 is taken as 1 - x)."""
    c: dict = {}
    for e, x in k.items():
        for m in _divisors(e):
            c[m] = c.get(m, 0) + x
    return {m: x for m, x in c.items() if x}


def _lowest_terms(k: dict) -> tuple:
    """({d: x_d} of num, {d: x_d} of den), x_d != 0, for prod (1 - x**e)**k_e.

    num is the product of the Phi_m**c_m with c_m > 0, den that of the
    Phi_m**-c_m with c_m < 0, each Phi_m written as
    prod (1 - x**(m / s))**mu(s) over the squarefree divisors s of m.
    When the k_e have one sign, so do the c_m, and these sums give k back.
    """
    if min(k.values(), default=1) > 0:
        return k, {}
    if max(k.values()) < 0:
        return {}, {e: -x for e, x in k.items()}
    parts: tuple = ({}, {})
    for m, cm in _cyclotomic_exponents(k).items():
        part, x = parts[cm < 0], abs(cm)
        for s, mu in _mobius_divisors(m):
            part[m // s] = part.get(m // s, 0) + mu * x
    return tuple({d: x for d, x in part.items() if x} for part in parts)


def spread(coeffs: Sequence[int], v: int) -> list:
    """The coefficients of c(w**v) from those c_0, c_1, ... of c(x)."""
    out = [0] * (v * len(coeffs) - v + 1)
    out[::v] = coeffs
    return out


def _expand(factors: dict, top: int) -> list:
    """The power series of prod (1 - w**d)**x_d truncated after w**top, as
    its integer coefficients [c_0, ..., c_top].

    Each factor costs at most top // d passes over the list.  A factor is
    multiplied through its binomial series, one pass per term after the
    first below the truncation: min(x_d, top // d) passes for x_d > 0 and
    top // d for x_d < 0, each over the support reached so far.  The
    positive powers go first, so that support grows from one term.  The
    exception is a negative power with |x_d| <= top // d: it is |x_d|
    divisions by 1 - w**d, each a running sum along the residue classes
    mod d.
    """
    c = [1] + [0] * top
    hi = 0  # c[i] == 0 for i > hi
    for d, x in sorted(factors.items(), key=lambda f: (f[1] < 0, f[0])):
        terms = top // d
        if not (x and terms):
            continue
        if -terms <= x < 0:
            for _ in range(-x):
                for r in range(d):
                    c[r::d] = accumulate(c[r::d])
            hi = top
            continue
        last = min(x, terms) if x > 0 else terms
        src, b = c[: hi + 1], 1
        for k in range(1, last + 1):
            b = b * (k - 1 - x) // k  # (-1)**k * binomial(x, k), exactly
            lo = k * d
            hi_k = min(top, lo + hi)
            c[lo : hi_k + 1] = [a + b * y for a, y in zip(c[lo : hi_k + 1], src)]
        hi = min(top, hi + last * d)
    return c


class CycleProduct:
    """The rational function prod_e (1 - w**e)**k_e, stored as {e: k_e}.

    Every zeta function, correction factor and L-polynomial of a flat
    quotient has this form.  Since 1 - w**e = prod_{m | e} Phi_m(w) and
    the divisibility matrix (m | e) is unitriangular, distinct exponent
    dicts are distinct rational functions: equality is dict equality,
    and products, powers and the substitutions w -> w**m and u -> -u are
    integer arithmetic on the exponents.  The reduced form is made on
    first use and kept.  Dense coefficients appear only in expanded.
    Instances are immutable.
    """

    __slots__ = ("_k", "_form")

    def __init__(self, exponents=()):
        k = {}
        for e, x in dict(exponents).items():
            if e < 1:
                raise ValueError(f"cycle exponent must be positive, got {e}")
            if x:
                k[e] = x
        self._k = k

    def items(self) -> tuple:
        """The (e, k_e) pairs with k_e != 0, by increasing e."""
        return tuple(sorted(self._k.items()))

    def is_even_in_w(self) -> bool:
        """True when the function is one of u = w**2: exactly when every e is even."""
        return all(e % 2 == 0 for e in self._k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleProduct):
            return NotImplemented
        return self._k == other._k

    def __hash__(self):
        return hash(frozenset(self._k.items()))

    def __mul__(self, other: "CycleProduct") -> "CycleProduct":
        k = dict(self._k)
        for e, x in other._k.items():
            k[e] = k.get(e, 0) + x
        return CycleProduct(k)

    def __pow__(self, p: int) -> "CycleProduct":
        return CycleProduct({e: p * x for e, x in self._k.items()})

    def inverse(self) -> "CycleProduct":
        return self ** -1

    def __truediv__(self, other: "CycleProduct") -> "CycleProduct":
        return self * other.inverse()

    def substitute(self, m: int) -> "CycleProduct":
        """Replace w by w**m (u by u**m on functions of u)."""
        if m < 1:
            raise ValueError("exponent multiplier must be positive")
        return CycleProduct({m * e: x for e, x in self._k.items()})

    def negate_u(self) -> "CycleProduct":
        """Replace u by -u on a function of u.

        1 - u**j is fixed for even j; for odd j it becomes
        1 + u**j = (1 - u**(2j)) / (1 - u**j).
        """
        if not self.is_even_in_w():
            raise ValueError("u-negation requires a function of u = w**2")
        k: dict = {}
        for e, x in self._k.items():
            if e % 4 == 2:
                k[2 * e] = k.get(2 * e, 0) + x
                x = -x
            k[e] = k.get(e, 0) + x
        return CycleProduct(k)

    def _reduced_form(self) -> tuple:
        """(v, num, den): the reduced num and den as factor dicts in
        x = w**v, v = 2 for a function of u and 1 otherwise; made on
        first use and kept, so the dicts must not be changed."""
        try:
            return self._form
        except AttributeError:  # first use: the slot is still empty
            v = 2 if self.is_even_in_w() else 1
            self._form = (v, *_lowest_terms({e // v: x for e, x in self._k.items()}))
            return self._form

    def degrees(self) -> tuple:
        """(deg num, deg den) of the reduced form in w, without expanding it."""
        v, num, den = self._reduced_form()
        return tuple(v * sum(d * x for d, x in part.items()) for part in (num, den))

    def is_polynomial_within(self, degree: int) -> bool:
        """Whether the function is a polynomial of degree at most degree:
        an empty reduced denominator and a numerator no longer than that.
        Nothing is expanded."""
        num, den = self.degrees()
        return den == 0 and num <= degree

    def expanded(self, memo: Optional[dict] = None) -> tuple:
        """(v, num, den): the reduced num and den as coefficient lists in
        x = w**v, as in _reduced_form, each expanded exactly to its degree.
        num and den are coprime with constant term 1 (num the product of
        the Phi_m**c_m with c_m > 0, den of the others), and a function of
        u is reduced in u, so spread(num, v) over spread(den, v) is the
        reduced form in w.  memo maps the frozenset of a factor dict's items
        to its list, so equal polynomials share one; the lists must not be
        changed."""
        v, *parts = self._reduced_form()
        memo = {} if memo is None else memo
        out = [v]
        for part in parts:
            key = frozenset(part.items())
            c = memo.get(key)
            if c is None:
                c = memo[key] = _expand(part, sum(d * x for d, x in part.items()))
            out.append(c)
        return tuple(out)

    def __repr__(self):
        return f"CycleProduct({dict(self.items())})"


def _moebius_exponents(traces: Sequence[int]) -> tuple:
    """({d: a_d}, bad) with traces[n-1] = N_n = sum_{d | n} d * a_d.

    The exponents are peeled off in increasing d: once the terms of every
    d' < d are subtracted, s[d] is d * a_d, and a nonzero one is
    subtracted from every proper multiple of d with one slice.  The cost
    is O(n + sum of n / d over the d with a_d != 0), so sparse counts,
    such as those of a product over a few cycle lengths, cost one pass.
    The dict holds the nonzero a_d up to the first d whose a_d is not an
    integer; bad is that d, or None when every a_d is an integer.
    """
    n = len(traces)
    s = [0, *traces]
    exponents = {}
    for d in range(1, n + 1):
        t = s[d]
        if t:
            a, r = divmod(t, d)
            if r:
                return exponents, d
            exponents[d] = a
            s[2 * d :: d] = [x - t for x in s[2 * d :: d]]
    return exponents, None
