"""Exact univariate arithmetic in the formal variable w.

Every generating function downstream is naturally a function of u = w**2
(one unit of geodesic length is one power of u), but half-integer
u-exponents occur along glide axes, so the whole stack computes in w and
only reinterprets even-exponent objects as functions of u at the
reporting layer.

Every zeta function, correction factor and L-polynomial is a finite
cycle product prod (1 - w**e)**k_e, held as a CycleProduct exponent
dict: identities between them are dict equalities, decided in integer
arithmetic.  Dense polynomials remain for the L-polynomial, the
det(I - wT) cross-check and the reduced num/den forms printed at the
edges.  No production path uses the truncated series (Series,
series_exp, series_log): they are the reference the tests compare the
integer paths against.  Coefficients are exact rationals throughout;
nothing in this package touches floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence, Union

RatLike = Union[int, Fraction]


class NotPolynomialWithinBound(ValueError):
    """A reconstructed polynomial has a nonzero coefficient above its degree bound."""

    def __init__(self, exponent: int):
        super().__init__(
            f"not polynomial within bound: nonzero coefficient at w^{exponent}"
        )
        self.exponent = exponent


def _frac(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial in w over the rationals.

    Trailing zero coefficients are stripped; the zero polynomial stores
    an empty tuple and reports degree -1.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        c = [_frac(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs: tuple = tuple(c)

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient: RatLike = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent")
        return cls([0] * exponent + [coefficient])

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_even_in_w(self) -> bool:
        """True when only even powers of w occur (the object is a function of u)."""
        return all(c == 0 for c in self.coeffs[1::2])

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_int_coeffs(self) -> list:
        if not self.is_integer():
            raise ValueError("polynomial has non-integer coefficients")
        return [c.numerator for c in self.coeffs]

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c: RatLike) -> "Poly":
        c = _frac(c)
        if c == 0:
            return Poly()
        return Poly([x * c for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out_f = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    if bv:
                        out_f[i + j] += av * bv
        return Poly(out_f)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


class Series:
    """Power series in w truncated at a fixed order (inclusive).

    Binary arithmetic truncates to the smaller of the two orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[RatLike], order: int):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        c = [_frac(x) for x in coeffs]
        if len(c) < order + 1:
            c.extend([Fraction(0)] * (order + 1 - len(c)))
        self.order = order
        self.coeffs: tuple = tuple(c[: order + 1])

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls((1,), order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        return cls(p.coeffs, order)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k <= self.order:
            return self.coeffs[k]
        raise IndexError(f"coefficient w^{k} beyond series order {self.order}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs], self.order)
        k = min(self.order, other.order)
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self.coeffs[: k + 1]):
            if a:
                for j in range(k + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return Series(out, k)

    __rmul__ = __mul__

    def reciprocal(self) -> "Series":
        if self.coeffs[0] != 1:
            raise ValueError("reciprocal requires constant term 1")
        k = self.order
        nz = [(i, c) for i, c in enumerate(self.coeffs) if i >= 1 and c]
        out = [Fraction(0)] * (k + 1)
        out[0] = Fraction(1)
        for n in range(1, k + 1):
            s = Fraction(0)
            for i, c in nz:
                if i > n:
                    break
                if out[n - i]:
                    s += c * out[n - i]
            out[n] = -s
        return Series(out, k)

    def __repr__(self):
        return f"Series(order={self.order}, {[str(c) for c in self.coeffs]})"


def series_exp(s: Series) -> Series:
    """exp of a series with zero constant term, truncated to the same order."""
    if s.coeffs[0] != 0:
        raise ValueError("series_exp requires zero constant term")
    k = s.order
    # g' = f' g  =>  n g_n = sum_{i<=n} i f_i g_{n-i}
    weighted = [(i, i * c) for i, c in enumerate(s.coeffs) if i >= 1 and c]
    g = [Fraction(0)] * (k + 1)
    g[0] = Fraction(1)
    for n in range(1, k + 1):
        acc = Fraction(0)
        for i, ic in weighted:
            if i > n:
                break
            if g[n - i]:
                acc += ic * g[n - i]
        g[n] = acc / n
    return Series(g, k)


def series_log(s: Series) -> Series:
    """log of a series with constant term 1, truncated to the same order."""
    if s.coeffs[0] != 1:
        raise ValueError("series_log requires constant term 1")
    k = s.order
    h = [Fraction(0)] * (k + 1)
    for n in range(1, k + 1):
        acc = Fraction(0)
        # sum_{i=1}^{n-1} i h_i s_{n-i}, iterating over nonzero s terms
        for j in range(1, n):
            c = s.coeffs[j]
            if c:
                i = n - j
                if h[i]:
                    acc += i * h[i] * c
        h[n] = s.coeffs[n] - acc / n
    return Series(h, k)


# ---------------------------------------------------------------------------
# Integer matrices and det(I - wT)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with arbitrary-precision integer entries, row-major."""

    dim: int
    entries: tuple

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.entries) != self.dim or any(
            len(row) != self.dim for row in self.entries
        ):
            raise ValueError("entries must form a square dim x dim matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(len(rows), tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_permutation(cls, successor: Sequence[int]) -> "IntMatrix":
        """0/1 matrix M with M[j][i] = 1 iff successor[i] = j."""
        n = len(successor)
        rows = [[0] * n for _ in range(n)]
        for i, j in enumerate(successor):
            rows[j][i] = 1
        return cls.from_rows(rows)


def det_identity_minus_wT(T: IntMatrix) -> Poly:
    """det(I - w*T) as an integer-coefficient polynomial.

    Division-free Berkowitz recursion on leading principal blocks; the
    coefficient vector of the characteristic polynomial (from the leading
    term) is exactly the coefficient list of det(I - wT).  Sparse rows are
    skipped, so permutation matrices cost O(n^2) rather than O(n^4).
    """
    n = T.dim
    if n == 0:
        return Poly.one()
    A = T.entries
    rows_nz = [tuple((j, v) for j, v in enumerate(row) if v) for row in A]
    vec = [1, -A[0][0]]
    for r in range(2, n + 1):
        m = r - 1
        d = A[m][m]
        row_nz = tuple((j, v) for j, v in rows_nz[m] if j < m)
        q = [1, -d]
        v = [A[i][m] for i in range(m)]
        q.append(-sum(val * v[j] for j, val in row_nz))
        for _ in range(m - 1):
            nxt = [0] * m
            for i in range(m):
                s = 0
                for j, val in rows_nz[i]:
                    if j < m:
                        s += val * v[j]
                nxt[i] = s
            v = nxt
            q.append(-sum(val * v[j] for j, val in row_nz))
        new = [0] * (r + 1)
        for i, qi in enumerate(q):
            if qi:
                top = r + 1 - i
                for j, vj in enumerate(vec[:top]):
                    if vj:
                        new[i + j] += qi * vj
        vec = new
    return Poly(vec)


# ---------------------------------------------------------------------------
# Cycle products
# ---------------------------------------------------------------------------


class NotCycleProduct(ValueError):
    """A trace sequence is not the logarithm of a finite cycle product."""


def _divisors(n: int) -> list:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _mobius_table(n: int) -> list:
    """mu(0..n) by a sieve; mu(0) is 0."""
    mu = [1] * (n + 1)
    mu[0] = 0
    composite = [False] * (n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        for j in range(p, n + 1, p):
            composite[j] = True
            mu[j] = -mu[j]
        for j in range(p * p, n + 1, p * p):
            mu[j] = 0
    return mu


def _expand(factors: dict) -> list:
    """Integer coefficients of prod (1 - w**d)**x_d, known to be a polynomial.

    Returns [c_0, ..., c_deg] with deg = sum d * x_d and c_deg != 0: the
    exact coefficient list, [1] for the empty product, never with trailing
    zeros.  The positive powers are multiplied out first, each factor over
    the support reached so far, so every later division by 1 - w**d is
    exact; the divisions then run only up to deg, since no coefficient
    above deg reaches one below it.
    """
    c = [1]
    for d, x in sorted(factors.items()):
        for _ in range(x):
            padded = c + [0] * d
            c = padded[:d] + [a - b for a, b in zip(padded[d:], c)]
    del c[1 + sum(d * x for d, x in factors.items()) :]
    for d, x in sorted(factors.items()):
        for _ in range(-x):
            for i in range(d, len(c)):
                c[i] += c[i - d]
    return c


class CycleProduct:
    """The rational function prod_e (1 - w**e)**k_e, stored as {e: k_e}.

    Every zeta function, correction factor and L-polynomial of a flat
    quotient has this form.  Since 1 - w**e = prod_{m | e} Phi_m(w) and
    the divisibility matrix (m | e) is unitriangular, distinct exponent
    dicts are distinct rational functions: equality is dict equality,
    and products, powers and the substitutions w -> w**m and u -> -u are
    integer arithmetic on the exponents.  Dense polynomials appear only
    in num_den.  Instances are immutable.
    """

    __slots__ = ("_k",)

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

    @property
    def is_one(self) -> bool:
        return not self._k

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
        k = Counter(self._k)
        k.update(other._k)
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
        k: Counter = Counter()
        for e, x in self._k.items():
            if e % 4 == 2:
                k[2 * e] += x
                x = -x
            k[e] += x
        return CycleProduct(k)

    def _cyclotomic_exponents(self) -> dict:
        """{m: c_m}, c_m != 0, with the function equal to prod_m Phi_m**c_m.

        c_m is the sum of k_e over the multiples e of m.  Phi_1 is taken
        as 1 - w, so that every factor has constant term 1.
        """
        c: Counter = Counter()
        for e, x in self._k.items():
            for m in _divisors(e):
                c[m] += x
        return {m: x for m, x in c.items() if x}

    def _part(self, sign: int) -> dict:
        """{d: x_d} with prod_d (1 - w**d)**x_d = prod_{sign*c_m > 0} Phi_m**|c_m|."""
        c = self._cyclotomic_exponents()
        mu = _mobius_table(max(c, default=0))
        x: Counter = Counter()
        for m, cm in c.items():
            if sign * cm > 0:
                for d in _divisors(m):
                    x[d] += mu[m // d] * abs(cm)
        return x

    def degrees(self) -> tuple:
        """(deg num, deg den) of the reduced form, without expanding it."""
        return tuple(
            sum(d * x for d, x in self._part(sign).items()) for sign in (1, -1)
        )

    def expands_to(self, coeffs: list) -> bool:
        """Whether the function is the polynomial with these integer
        coefficients (no trailing zeros).

        The reduced numerator and denominator are taken once; the empty
        denominator and the degree are checked before anything is expanded.
        """
        num, den = self._part(1), self._part(-1)
        if any(den.values()) or sum(d * x for d, x in num.items()) != len(coeffs) - 1:
            return False
        return _expand(num) == coeffs

    def num_den(self) -> tuple:
        """The reduced form (num, den) as integer polynomials.

        num and den are coprime and both have constant term 1: num is the
        product of the Phi_m**c_m with c_m > 0, den of those with c_m < 0.
        This is the unique lowest-terms form with den(0) = 1.
        """
        return tuple(Poly(_expand(self._part(sign))) for sign in (1, -1))

    def __repr__(self):
        return f"CycleProduct({dict(self.items())})"


def cycle_product_from_traces(traces: Sequence[int], step: int = 1) -> CycleProduct:
    """The product P = prod_d (1 - w**(step*d))**a_d over d <= len(traces)
    with 1/P = exp(sum_n traces[n-1] w**(step*n) / n) through that length.

    Since -log(1 - x) = sum_j x**j / j, the traces are N_n = sum_{d | n}
    d*a_d, and Moebius inversion gives d*a_d = sum_{d' | d} mu(d/d') N_{d'}.
    Raises NotCycleProduct when some a_d is not an integer.
    """
    n = len(traces)
    mu = _mobius_table(n)
    s = [0] * (n + 1)
    for d, t in enumerate(traces, start=1):
        if t:
            for j in range(1, n // d + 1):
                if mu[j]:
                    s[d * j] += mu[j] * t
    out = {}
    for d in range(1, n + 1):
        a, r = divmod(s[d], d)
        if r:
            raise NotCycleProduct(
                f"exponent of (1 - w^{step * d}) is {s[d]}/{d}, not an integer"
            )
        out[step * d] = a
    return CycleProduct(out)
