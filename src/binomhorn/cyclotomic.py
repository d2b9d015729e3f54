"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are rational-coefficient polynomials in the primitive N-th root
of unity, reduced modulo the N-th cyclotomic polynomial.  N = 1 gives
plain rationals.  An element is stored as one integer form: deg Phi_N
integer numerators over one positive denominator, coprime to all of
them.  The form is canonical, so equal elements have equal forms, and
sums, negations and rational scalings are integer work reduced by one
gcd.  Division goes through the extended Euclidean algorithm on
Fraction polynomials; the modulus is irreducible, so every nonzero
element is a unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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

    ``nums`` holds exactly deg Phi_N integers and ``den`` one positive
    integer with gcd(den, *nums) = 1, so zero is all zeros over 1; the
    coefficients are nums[i] / den, and ``coeffs`` yields them as
    Fractions.  Sums, negations and products with a rational factor
    work on the integers and reduce with one gcd; only a product of two
    irrational elements and the inverse of an irrational element go
    through the general constructor, which reduces a Fraction
    polynomial modulo Phi_N.
    """

    __slots__ = ("N", "nums", "den")

    def __init__(self, N, coeffs):
        N = int(N)
        phi = cyclotomic_polynomial(N)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) >= len(phi):
            _, cs = _poly_divmod(cs, list(phi))
        cs += [_ZERO] * (len(phi) - 1 - len(cs))
        # the lcm of reduced denominators is coprime to the numerators
        # it scales: a prime power it takes from one denominator does
        # not divide that coefficient's scaled numerator
        den = lcm(*[c.denominator for c in cs])
        self.N = N
        self.nums = tuple([c.numerator * (den // c.denominator) for c in cs])
        self.den = den

    @staticmethod
    def _canonical(N, nums, den):
        """An element from a form that is canonical as it stands: a tuple
        of deg Phi_N integers over a positive den coprime to them all."""
        out = object.__new__(Scalar)
        out.N = N
        out.nums = nums
        out.den = den
        return out

    @staticmethod
    def _reduced(N, nums, den):
        """An element from deg Phi_N integers over a positive den,
        divided by their one gcd; built in place, as verification runs
        it once per residual term."""
        g = gcd(den, *nums)
        out = object.__new__(Scalar)
        out.N = N
        if g == 1:
            out.nums = tuple(nums)
            out.den = den
        else:
            out.nums = tuple([x // g for x in nums])
            out.den = den // g
        return out

    @property
    def coeffs(self):
        """The deg Phi_N coefficients as Fractions."""
        return tuple([Fraction(x, self.den) for x in self.nums])

    @staticmethod
    def rational(q, N=1):
        q = q if type(q) is Fraction else Fraction(q)
        N = int(N)
        pad = (0,) * (len(cyclotomic_polynomial(N)) - 2)
        return Scalar._canonical(N, (q.numerator,) + pad, q.denominator)

    @staticmethod
    def zero(N=1):
        return Scalar.rational(0, N)

    @staticmethod
    def one(N=1):
        return Scalar.rational(1, N)

    @staticmethod
    def root_of_unity(N, k=1):
        """zeta_N^k as an element of Q(zeta_N)."""
        k %= N
        mono = [Fraction(0)] * k + [Fraction(1)]
        return Scalar(N, mono)

    def _times_coprime(self, a, d):
        """self * a/d for coprime integers a and d > 0, where self has
        den 1 and numerators of gcd 1.  Every root of unity qualifies (it
        is a unit of Z[zeta_N]), and the product's form is then canonical
        as it stands: no gcd is taken.  Built in place, as it runs once
        per term of every solution."""
        out = object.__new__(Scalar)
        out.N = self.N
        out.nums = tuple([a * x for x in self.nums])
        out.den = d
        return out

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.nums[0], self.den)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.N == self.N:
                return self, other
            if other.N == 1:
                return self, Scalar.rational(other.as_rational(), self.N)
            if self.N == 1:
                return Scalar.rational(self.as_rational(), other.N), other
            raise ValueError(f"mixed cyclotomic orders {self.N} and {other.N}")
        return self, Scalar.rational(other, self.N)

    def _plus(self, nums, den):
        """self + nums / den for a form of the same order."""
        a = self.den
        if a == den:
            out = [x + y for x, y in zip(self.nums, nums)]
        else:
            g = gcd(a, den)
            ma, mb = den // g, a // g
            out = [x * ma + y * mb for x, y in zip(self.nums, nums)]
            a *= ma
        return Scalar._reduced(self.N, out, a)

    def _scaled(self, n, d):
        """self * n/d for integers n and d > 0."""
        return Scalar._reduced(self.N, [x * n for x in self.nums], self.den * d)

    def __add__(self, other):
        a, b = self._coerce(other)
        return a._plus(b.nums, b.den)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._canonical(self.N, tuple([-x for x in self.nums]),
                                 self.den)

    def __sub__(self, other):
        a, b = self._coerce(other)
        return a._plus([-x for x in b.nums], b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b.is_rational():
            return a._scaled(b.nums[0], b.den)
        if a.is_rational():
            return b._scaled(a.nums[0], a.den)
        return Scalar(a.N, _poly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            n = self.nums[0]
            return Scalar._canonical(self.N, (self.den if n > 0 else -self.den,)
                                     + self.nums[1:], abs(n))
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
        a, b = self._coerce(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Scalar.rational(other, self.N) * self.inverse()

    def __eq__(self, other):
        """Equality of canonical forms.  Elements of two different orders
        are equal only when both are rational with one value, as
        ``__hash__`` assumes: zeta_4 and zeta_8^2 compare unequal
        although Q(zeta_8) contains Q(zeta_4)."""
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.N != other.N:
            return (self.is_rational() and other.is_rational()
                    and self.nums[0] == other.nums[0]
                    and self.den == other.den)
        return self.nums == other.nums and self.den == other.den

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
