"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are polynomials in the primitive N-th root of unity, reduced
modulo the N-th cyclotomic polynomial Phi_N; N = 1 gives the rationals.
An element is one canonical integer form: deg Phi_N integer numerators
over one positive denominator coprime to them all.  Phi_N is monic with
integer coefficients, so the arithmetic is integer work: reduction is
long division by Phi_N (``_divmod_monic``), and multiplication by an
element is one integer matrix (``_mul_matrix``), which products,
inverses and the series operators all read.  Phi_N is irreducible, so
every nonzero element is a unit; an inverse solves that matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .exact_linalg import frac_solve


def _divmod_monic(p, phi):
    """(q, r) with p = q phi + r, for integer coefficient lists in
    ascending order and a monic phi; r has exactly deg phi entries."""
    d = len(phi) - 1
    r = list(p) + [0] * (d - len(p))
    q = [0] * max(0, len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            q[i - d] = c
            for j in range(d):
                r[i - d + j] -= c * phi[j]
    return q, r[:d]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int):
    """Integer coefficients of the N-th cyclotomic polynomial, ascending,
    monic: x^N - 1 divided by Phi_d for every proper divisor d of N."""
    if N < 1:
        raise ValueError("N must be positive")
    poly = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            poly, r = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(r):
                raise AssertionError("cyclotomic division must be exact")
    return tuple(poly)


def _mul_matrix(nums, N):
    """The integer columns nums * zeta_N^i, i < deg Phi_N, on the power
    basis: column i + 1 is column i shifted up one degree, with the top
    coefficient folded back through Phi_N."""
    phi = cyclotomic_polynomial(N)
    col = list(nums)
    cols = [col]
    for _ in range(len(col) - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [x - top * f for x, f in zip(col, phi)]
        cols.append(col)
    return cols


class Scalar:
    """An element of Q(zeta_N) in reduced polynomial form.

    ``nums`` holds exactly deg Phi_N integers and ``den`` one positive
    integer with gcd(den, *nums) = 1, so zero is all zeros over 1; the
    coefficients are nums[i] / den (``coeffs`` makes them Fractions).
    The constructor scales ints or Fractions to integers over their lcm,
    reduces those mod Phi_N and divides by one gcd, as every operation
    does; irrational products and inverses read ``_mul_matrix``.
    """

    __slots__ = ("N", "nums", "den")

    def __init__(self, N, coeffs):
        N = int(N)
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
              for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        _, nums = _divmod_monic([c.numerator * (den // c.denominator)
                                 for c in cs], cyclotomic_polynomial(N))
        form = Scalar._reduced(N, nums, den)
        self.N, self.nums, self.den = N, form.nums, form.den

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
        return Scalar(N, [0] * (k % N) + [1])

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
        rows = zip(*_mul_matrix(a.nums, a.N))
        return Scalar._reduced(
            a.N, [sum(map(mul, row, b.nums)) for row in rows], a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            n = self.nums[0]
            return Scalar._canonical(self.N, (self.den if n > 0 else -self.den,)
                                     + self.nums[1:], abs(n))
        rows = list(zip(*_mul_matrix(self.nums, self.N)))
        unit = [self.den] + [0] * (len(rows) - 1)
        return Scalar(self.N, frac_solve(rows, unit))

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
        return hash((self.N, self.nums, self.den))

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
