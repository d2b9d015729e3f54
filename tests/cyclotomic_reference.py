"""Reference arithmetic in Q(zeta_N) over Fraction polynomials.

Kept apart from the library's integer-only ``cyclotomic`` module so that
no oracle reads the code it checks.  Elements are lists of Fraction
coefficients, ascending, reduced modulo the cyclotomic polynomial by
Fraction long division (``poly_divmod``).  A product multiplies the two
polynomials and reduces; an inverse runs the extended Euclidean
algorithm against Phi_N.  Every routine returns the canonical integer
form (nums, den) that the library stores: deg Phi_N numerators over one
positive denominator coprime to them all.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm


def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return poly_trim([x - y for x, y in zip(a, b)])


def poly_divmod(num, den):
    """(quotient, remainder) of Fraction polynomials, both trimmed."""
    num = [Fraction(x) for x in num]
    den = poly_trim([Fraction(x) for x in den])
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    r = list(num)
    for i in range(len(num) - len(den), -1, -1):
        c = r[i + len(den) - 1] / den[-1]
        if c:
            q[i] = c
            for j, y in enumerate(den):
                r[i + j] -= c * y
    return poly_trim(q), poly_trim(r)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N):
    """Phi_N as Fractions, ascending: x^N - 1 over Phi_d, d | N, d < N."""
    poly = [Fraction(-1)] + [Fraction(0)] * (N - 1) + [Fraction(1)]
    for d in range(1, N):
        if N % d == 0:
            poly, r = poly_divmod(poly, cyclotomic_polynomial(d))
            assert not r
    return tuple(poly)


def reduce(N, coeffs):
    """(nums, den) of the element with these coefficients."""
    phi = cyclotomic_polynomial(N)
    _, r = poly_divmod([Fraction(c) for c in coeffs], phi)
    r += [Fraction(0)] * (len(phi) - 1 - len(r))
    den = lcm(*[c.denominator for c in r])
    return tuple(c.numerator * (den // c.denominator) for c in r), den


def coefficients(form):
    nums, den = form
    return [Fraction(x, den) for x in nums]


def multiply(N, a, b):
    """(nums, den) of the product of two forms."""
    return reduce(N, poly_mul(coefficients(a), coefficients(b)))


def inverse(N, a):
    """(nums, den) of the inverse of a nonzero form, by extended Euclid:
    s a + t Phi_N = 1."""
    r0 = list(cyclotomic_polynomial(N))
    r1 = poly_trim(coefficients(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r2 = poly_divmod(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    assert len(r0) == 1, "Phi_N is irreducible over Q"
    return reduce(N, [c / r0[0] for c in s0])


def root_of_unity(N, k):
    """(nums, den) of zeta_N^k."""
    return reduce(N, [0] * (k % N) + [1])
