import random
from fractions import Fraction as F

import pytest

from binomhorn import (
    BinomialOp,
    EulerOp,
    IntMatrix,
    PuiseuxSeries,
    Scalar,
    apply_operator,
    horn_classical_operators,
    verify_annihilation,
)
from binomhorn.cyclotomic import cyclotomic_polynomial
from binomhorn.series import Support, Truncation


# -- cyclotomic scalars ----------------------------------------------------------

def test_cyclotomic_polynomials():
    def coeffs(n):
        return [int(c) for c in cyclotomic_polynomial(n)]
    assert coeffs(1) == [-1, 1]
    assert coeffs(2) == [1, 1]
    assert coeffs(3) == [1, 1, 1]
    assert coeffs(4) == [1, 0, 1]
    assert coeffs(6) == [1, -1, 1]
    assert coeffs(12) == [1, 0, -1, 0, 1]
    # degree phi(105) = 48, and the famous first -2 coefficient at x^7
    c105 = coeffs(105)
    assert len(c105) == 49 and c105[7] == -2


def test_root_of_unity_order():
    w = Scalar.root_of_unity(3)
    assert not w.is_rational()
    assert (w * w * w) == 1
    assert (w * w + w + 1).is_zero()  # 1 + w + w^2 = 0


def test_scalar_field_ops():
    w = Scalar.root_of_unity(5, 2)
    x = w * 3 - F(1, 2)
    y = x * x.inverse()
    assert y == 1
    assert (x - x).is_zero()
    assert (x / x) == 1


def test_scalar_promotion():
    a = Scalar.rational(F(2, 3))
    b = Scalar.root_of_unity(4)
    c = a + b
    assert c.N == 4
    assert c - b == F(2, 3)


def test_rational_scaling_matches_the_generic_product():
    # scaling skips the multiplication matrix; the general reducing
    # constructor on the scaled coefficients is the reference
    rng = random.Random(12)
    qs = [F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(20)]
    qs += [0, 1, -1, 3, F(-2, 7)]
    for N in range(1, 13):
        elements = [Scalar.root_of_unity(N, e) for e in range(N)]
        elements += [Scalar(N, [rng.randint(-3, 3) * F(1, rng.randint(1, 4))
                                for _ in range(N)]) for _ in range(3)]
        for x in elements:
            for q in qs:
                want = Scalar(N, [c * q for c in x.coeffs])
                for got in (x * q, q * x, x * Scalar.rational(q)):
                    assert got.coeffs == want.coeffs
                    assert all(type(c) is F for c in got.coeffs)


# -- series and operators ---------------------------------------------------------

def test_euler_kills_homogeneous_monomial():
    # row (3,2,1,0) with value 1 annihilates x1^(1/3)
    s = PuiseuxSeries.monomial(4, (F(1, 3), 0, 0, 0))
    op = EulerOp(row=(F(3), F(2), F(1), F(0)), value=F(1))
    assert apply_operator(op, s).is_zero()
    op2 = EulerOp(row=(F(3), F(2), F(1), F(0)), value=F(2))
    assert not apply_operator(op2, s).is_zero()


def test_binomial_op_polynomial():
    # (d1 d3 - d2^2) applied to x1 x3 gives the constant 1
    s = PuiseuxSeries.monomial(4, (1, 0, 1, 0))
    op = BinomialOp(u_plus=(1, 0, 1, 0), u_minus=(0, 2, 0, 0))
    out = apply_operator(op, s)
    assert {out.exponent(z): c for z, c in out.terms.items()} == \
        {(F(0),) * 4: Scalar.one()}
    # and x1 x3 - ... plus x2^2 is annihilated
    s2 = PuiseuxSeries(4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): F(1, 2)})
    assert apply_operator(op, s2).is_zero()


def test_binomial_monomial_operator():
    # lam = 0 degenerates to a plain monomial derivative
    op = BinomialOp(u_plus=(2, 0), u_minus=(0, 0), lam=Scalar.zero())
    s = PuiseuxSeries.monomial(2, (F(5, 2), 1))
    out = apply_operator(op, s)
    assert {out.exponent(z): c for z, c in out.terms.items()} == \
        {(F(1, 2), F(1)): Scalar.rational(F(15, 4))}


def test_binomial_rejects_overlapping_supports():
    with pytest.raises(ValueError):
        BinomialOp(u_plus=(1, 0), u_minus=(1, 1))


def test_horn_ops_gauss_expansion(B_gauss):
    c1, c2, c3, c4 = F(1, 3), F(1, 5), F(2, 5), F(3, 7)
    op = horn_classical_operators(B_gauss, [c1, c2, c3, c4])[0]
    # q = (theta + c1)(theta + c4), p = (-theta + c2)(-theta + c3)
    assert op.expanded_q() == {(0,): c1 * c4, (1,): c1 + c4, (2,): F(1)}
    assert op.expanded_p() == {(0,): c2 * c3, (1,): -(c2 + c3), (2,): F(1)}


def test_horn_ops_erdelyi_degrees(B_erd):
    ops = horn_classical_operators(B_erd, [F(0)] * 4)
    assert len(ops) == 2
    assert len(ops[0].q_factors) == 2 and len(ops[0].p_factors) == 2
    assert len(ops[1].q_factors) == 2 and len(ops[1].p_factors) == 2
    # column 1: q = theta1 (theta1 - 2 theta2)
    assert ops[0].expanded_q() == {(2, 0): F(1), (1, 1): F(-2)}


def test_horn_ops_single_column_paper_formula():
    # B = (1,-1)^t at c = 0: q = theta, p = -theta, so the operator is
    # theta - z(-theta) = theta + z theta
    op = horn_classical_operators(IntMatrix([[1], [-1]]), [F(0), F(0)])[0]
    assert op.expanded_q() == {(1,): F(1)}
    assert op.expanded_p() == {(1,): F(-1)}


def test_coefficient_rejects_a_wrong_length():
    # zip would cut a long exponent to nvars and read the term there
    s = PuiseuxSeries(2, {(1, 2): 5})
    assert s.coefficient((1, 2)) == 5
    assert s.coefficient((F(1, 2), 2)) == 0
    for bad in ((1, 2, 99), (1,), ()):
        with pytest.raises(ValueError, match="expected 2"):
            s.coefficient(bad)


def test_classical_horn_operators_do_not_act_on_a_series(B_gauss):
    # horn-ops prints them; apply and verify take only the binomial and
    # Euler operators of the Horn system, here on a truncated series so
    # that verify would otherwise reach its coverage split
    op = horn_classical_operators(B_gauss, [F(1, 3)] * 4)[0]
    s = PuiseuxSeries(4, {(0, 0, 0, 0): 1},
                      truncation=Truncation(basis=((1, -1, -1, 1),), bound=1,
                                            dim=4),
                      support=Support(alpha=(F(1, 2),) * 4,
                                      translates=((0, 0, 0, 0),)))
    with pytest.raises(TypeError, match="unknown operator type"):
        apply_operator(op, s)
    with pytest.raises(TypeError, match="unknown operator type"):
        verify_annihilation([op], s)
