"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are rational-coefficient polynomials in the primitive N-th root
of unity, reduced modulo the N-th cyclotomic polynomial.  N = 1 gives
plain rationals.  Division is supported through the extended Euclidean
algorithm; the modulus is irreducible, so every nonzero element is a
unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

_ZERO = Fraction(0)


def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_divmod(num, den):
    num = [Fraction(x) for x in num]
    den = _poly_trim([Fraction(x) for x in den])
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    r = list(num)
    inv = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        if len(r) >= i + len(den) and r[i + len(den) - 1] != 0:
            c = r[i + len(den) - 1] * inv
            q[i] = c
            for j, y in enumerate(den):
                r[i + j] -= c * y
    return _poly_trim(q), _poly_trim(r)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int):
    """Coefficients of the N-th cyclotomic polynomial, ascending, monic."""
    if N < 1:
        raise ValueError("N must be positive")
    poly = [Fraction(-1)] + [Fraction(0)] * (N - 1) + [Fraction(1)]  # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            q, r = _poly_divmod(poly, cyclotomic_polynomial(d))
            if r:
                raise AssertionError("cyclotomic division must be exact")
            poly = q
    return tuple(poly)


class Scalar:
    """An element of Q(zeta_N) in reduced polynomial form.

    ``coeffs`` always holds exactly deg Phi_N Fractions.  The arithmetic
    below builds its results directly whenever they are reduced by
    construction (sums, negations, and products with a rational factor);
    only a product of two irrational elements goes through the general
    reducing constructor.
    """

    __slots__ = ("N", "coeffs")

    def __init__(self, N, coeffs):
        N = int(N)
        phi = cyclotomic_polynomial(N)
        deg = len(phi) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) >= len(phi):
            _, cs = _poly_divmod(cs, list(phi))
        cs = cs + [Fraction(0)] * (deg - len(cs))
        self.N = N
        self.coeffs = tuple(cs[:deg])

    @staticmethod
    def _reduced(N, coeffs):
        """An element from an already reduced, full-length Fraction tuple."""
        out = object.__new__(Scalar)
        out.N = N
        out.coeffs = coeffs
        return out

    @staticmethod
    def rational(q, N=1):
        q = q if type(q) is Fraction else Fraction(q)
        deg = len(cyclotomic_polynomial(int(N))) - 1
        return Scalar._reduced(int(N), (q,) + (_ZERO,) * (deg - 1))

    @staticmethod
    def zero(N=1):
        return Scalar(N, [])

    @staticmethod
    def one(N=1):
        return Scalar(N, [Fraction(1)])

    @staticmethod
    def root_of_unity(N, k=1):
        """zeta_N^k as an element of Q(zeta_N)."""
        k %= N
        mono = [Fraction(0)] * k + [Fraction(1)]
        return Scalar(N, mono)

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.N == self.N:
                return self, other
            if other.N == 1:
                return self, Scalar(self.N, other.coeffs)
            if self.N == 1:
                return Scalar(other.N, self.coeffs), other
            raise ValueError(f"mixed cyclotomic orders {self.N} and {other.N}")
        return self, Scalar(self.N, [Fraction(other)])

    def _scaled(self, q):
        """self * q for a rational q.  A coefficient of 1 or -1 (the only
        nonzero coefficients of zeta_N^e for N < 105) gives q or -q
        without a Fraction multiply."""
        q = q if type(q) is Fraction else Fraction(q)
        return Scalar._reduced(self.N, tuple([
            c if not c else q if c == 1 else -q if c == -1 else c * q
            for c in self.coeffs]))

    def _shifted(self, q):
        """self + q for a rational q: only the constant coefficient moves."""
        cs = self.coeffs
        return Scalar._reduced(self.N, (cs[0] + q,) + cs[1:])

    def __add__(self, other):
        if isinstance(other, Scalar):
            if other.N == self.N:
                return Scalar._reduced(self.N, tuple([
                    x + y for x, y in zip(self.coeffs, other.coeffs)]))
            if other.N == 1:
                return self._shifted(other.coeffs[0])
            if self.N == 1:
                return other._shifted(self.coeffs[0])
        elif type(other) is Fraction or type(other) is int:
            return self._shifted(other)
        a, b = self._coerce(other)
        return Scalar(a.N, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Scalar._reduced(self.N, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return self + (-other)
        if type(other) is Fraction or type(other) is int:
            return self._shifted(-other)
        a, b = self._coerce(other)
        return Scalar(a.N, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):
            if other.N == 1 or (other.N == self.N and other.is_rational()):
                return self._scaled(other.coeffs[0])
            if self.N == 1 or (self.N == other.N and self.is_rational()):
                return other._scaled(self.coeffs[0])
        elif type(other) is Fraction or type(other) is int:
            return self._scaled(other)
        a, b = self._coerce(other)
        return Scalar(a.N, _poly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.N == 1:
            return Scalar(1, [1 / self.coeffs[0]])
        # extended Euclid: s * self + t * Phi_N = 1
        phi = list(cyclotomic_polynomial(self.N))
        r0, r1 = phi, _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r2 = _poly_divmod(r0, r1)
            r0, r1 = r1, r2
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if len(r0) != 1:
            raise AssertionError("cyclotomic polynomial must be irreducible over Q")
        lead = r0[0]
        return Scalar(self.N, [c / lead for c in s0])

    def __truediv__(self, other):
        if type(other) is Fraction or type(other) is int:
            a, q = self, Fraction(other)
        else:
            a, b = self._coerce(other)
            if not b.is_rational():
                return a * b.inverse()
            q = b.coeffs[0]
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return a._scaled(1 / q)

    def __rtruediv__(self, other):
        return Scalar(self.N, [Fraction(other)]) / self

    def __eq__(self, other):
        """Equality of reduced forms.  Elements of two different orders,
        neither of them 1, are equal only when both are rational with one
        value, as ``__hash__`` assumes: zeta_4 and zeta_8^2 compare unequal
        although Q(zeta_8) contains Q(zeta_4)."""
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == Fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.N != other.N and self.N != 1 and other.N != 1:
            return (self.is_rational() and other.is_rational()
                    and self.as_rational() == other.as_rational())
        a, b = self._coerce(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.N, self.coeffs))

    def __repr__(self):
        if self.is_rational():
            return str(self.as_rational())
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{i}")
        return " + ".join(parts) if parts else "0"
