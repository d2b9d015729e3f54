"""The integer-only Q(zeta_N) arithmetic against the Fraction-polynomial
reference in ``cyclotomic_reference``: the same canonical (nums, den),
equality and hash for the constructor, products, inverses, roots of
unity and the cyclotomic polynomials themselves."""

import random
import time
from fractions import Fraction as F

import pytest

import cyclotomic_reference as ref
from binomhorn import Scalar, cyclotomic, cyclotomic_polynomial

ORDERS = list(range(1, 13)) + [15, 16, 20, 105]


def check(got, N, form):
    """got is exactly the reference form, and equal to it with one hash."""
    assert got.N == N
    assert (got.nums, got.den) == form
    want = Scalar._canonical(N, *form)
    assert got == want and hash(got) == hash(want)
    if got.is_rational():
        assert hash(got) == hash(got.as_rational())


def random_coeffs(rng, length):
    return [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(length)]


@pytest.mark.parametrize("N", ORDERS)
def test_cyclotomic_polynomial_matches_fraction_division(N):
    got = cyclotomic_polynomial(N)
    assert all(type(c) is int for c in got)
    assert list(got) == list(ref.cyclotomic_polynomial(N))


@pytest.mark.parametrize("N", ORDERS)
def test_scalars_match_the_fraction_reference(N):
    rng = random.Random(2200 + N)
    deg = len(cyclotomic_polynomial(N)) - 1
    rounds = 2 if N == 105 else 40
    check(Scalar(N, []), N, ref.reduce(N, []))
    for k in range(-N, 2 * N):
        check(Scalar.root_of_unity(N, k), N, ref.root_of_unity(N, k))
    for _ in range(rounds):
        # unreduced input up to twice the degree, ints mixed in, and the
        # rational, zero and content-carrying shapes
        length = rng.randint(0, 2 * deg + 1)
        coeffs = random_coeffs(rng, length)
        coeffs = [int(c) if c.denominator == 1 else c for c in coeffs]
        kind = rng.random()
        if kind < 0.2:
            coeffs = coeffs[:1]
        elif kind < 0.3:
            coeffs = [6 * F(c) for c in coeffs]
        a = Scalar(N, coeffs)
        check(a, N, ref.reduce(N, coeffs))
        b = Scalar(N, random_coeffs(rng, rng.randint(1, deg)))
        check(a * b, N, ref.multiply(N, (a.nums, a.den), (b.nums, b.den)))
        check(b * a, N, ref.multiply(N, (b.nums, b.den), (a.nums, a.den)))
        if not a.is_zero():
            inv = a.inverse()
            check(inv, N, ref.inverse(N, (a.nums, a.den)))
            assert a * inv == 1


def test_cyclotomic_wall_at_N105(monkeypatch):
    # degree 48: 100 products and 10 inverses, each inverse checked by
    # x * x^-1 = 1, every one through the one multiplication matrix; the
    # Fraction-polynomial path took about 18 times as long (5.4 s on a
    # 2-vCPU host where this takes 0.3 s)
    built = []
    real = cyclotomic._mul_matrix
    monkeypatch.setattr(cyclotomic, "_mul_matrix",
                        lambda nums, N: built.append(N) or real(nums, N))
    rng = random.Random(105)
    deg = len(cyclotomic_polynomial(105)) - 1
    xs = [Scalar(105, [rng.randint(-9, 9) for _ in range(deg)])
          for _ in range(20)]
    start = time.perf_counter()
    for i in range(100):
        p = xs[i % 20] * xs[(7 * i + 3) % 20]
        assert not p.is_rational()
    for x in xs[:10]:
        assert x * x.inverse() == 1
    assert time.perf_counter() - start < 3.0
    assert built == [105] * 120
