"""The per-term operator loops that the column-wise series code replaced.

``per_term_apply`` applies a binomial or Euler operator one term at a
time, the way the library did before it worked on integer columns: the
terms are put over one common denominator D, the lcm of their Scalars'
denominators, with one integer division per term (``integer_form``);
a binomial operator pairs each term with its partner through a dict of
offsets and scales the integer vectors term by term
(``binomial_action``); an Euler operator takes one dot product per
term (``euler_action``).  A result whose vector is all zero is left
out, as the library does.  Nothing is cached, so every call reads the
series afresh.  Tests compare ``apply_operator`` and
``verify_annihilation`` with these loops, key order included.
"""

from math import lcm, prod
from operator import add, mul, sub

from binomhorn import BinomialOp, EulerOp, Scalar
from binomhorn.cyclotomic import _mul_matrix, cyclotomic_polynomial


def integer_form(s):
    """(N, D, vectors): the cyclotomic order N of the coefficients of s,
    the lcm D of their denominators and, in the order of ``s.terms``,
    the deg Phi_N integers whose quotients by D are each coefficient."""
    orders = {c.N for c in s.terms.values()}
    if len(orders - {1}) > 1:
        raise ValueError(f"mixed cyclotomic orders {sorted(orders - {1})}")
    order = max(orders, default=1)
    den = lcm(*{c.den for c in s.terms.values()})
    vecs = [tuple(den // c.den * x for x in c.nums) for c in s.terms.values()]
    return order, den, lift(vecs, order)


def lift(vecs, order):
    """Integer vectors, those of order 1 among them, padded with zeros
    to vectors of Q(zeta_order)."""
    deg = len(cyclotomic_polynomial(order)) - 1
    return [v + (0,) * (deg - len(v)) for v in vecs]


def falling_column(base, zs, u):
    """For each offset z, the integer numerator of prod_j
    ff(base_j + z_j, u_j) over prod_j q_j^u_j, q_j the denominator of
    base_j."""
    nums = []
    for z in zs:
        num = 1
        for b, x, k in zip(base, z, u):
            p, q = b.numerator, b.denominator
            for i in range(k):
                num *= p + x * q - i * q
        nums.append(num)
    return nums


def binomial_action(base, zs, vecs, order, u_plus, u_minus, lam):
    """(common denominator, {offset: vector}) of partial^u_plus -
    lam partial^u_minus (lam None: the first part alone) on the integer
    vectors ``vecs`` at the offsets ``zs``: one term at a time, a first
    part alone, then the pairs and the second parts alone."""
    parts, matrix = [(u_plus, 1, 1)], None
    if lam is not None:
        if lam.is_rational():
            parts.append((u_minus, lam.den, -lam.nums[0]))
        else:
            if lam.N != order:
                raise ValueError(f"mixed cyclotomic orders {lam.N} and {order}")
            matrix = list(zip(*_mul_matrix(lam.nums, order)))
            parts.append((u_minus, lam.den, -1))
    parts = [(u, den * prod([b.denominator ** k for b, k in zip(base, u)]),
              factor) for u, den, factor in parts]
    common = lcm(*(den for _, den, _ in parts))
    cols = [[factor * (common // den) * n for n in falling_column(base, zs, u)]
            for u, den, factor in parts]
    ns, ms = cols[0], cols[-1]
    ys = vecs if matrix is None else \
        [[sum(map(mul, row, v)) for row in matrix] for v in vecs]
    out = {}
    if lam is None:
        for z, a, x in zip(zs, ns, vecs):
            if a and any(x):
                out[tuple(map(sub, z, u_plus))] = [a * c for c in x]
        return common, out
    index = {z: i for i, z in enumerate(zs)}
    shift = tuple(map(sub, u_plus, u_minus))
    paired = set()
    pairs, seconds = [], []
    for j, z in enumerate(zs):
        y = tuple(map(sub, z, u_minus))
        i = index.get(tuple(map(add, z, shift)))
        if i is None:
            seconds.append((y, j))
        else:
            pairs.append((y, i, j))
            paired.add(i)
    for i, z in enumerate(zs):
        if i not in paired and ns[i] and any(vecs[i]):
            out[tuple(map(sub, z, u_plus))] = [ns[i] * x for x in vecs[i]]
    for z, i, j in pairs:
        w = [ns[i] * x + ms[j] * y for x, y in zip(vecs[i], ys[j])]
        if any(w):
            out[z] = w
    for z, j in seconds:
        if ms[j] and any(ys[j]):
            out[z] = [ms[j] * y for y in ys[j]]
    return common, out


def euler_action(base, zs, vecs, op):
    """(e, {offset: vector}) of the Euler operator ``op``: each term
    times its integer factor over e, the lcm of the denominators of the
    row and of the constant."""
    const = sum(r * b for r, b in zip(op.row, base)) - op.value
    e = lcm(const.denominator, *(r.denominator for r in op.row))
    ints = [r.numerator * (e // r.denominator) for r in op.row]
    c = const.numerator * (e // const.denominator)
    out = {}
    for z, v in zip(zs, vecs):
        f = sum(map(mul, ints, z)) + c
        if f and any(v):
            out[z] = [f * x for x in v]
    return e, out


def per_term_apply(op, s):
    """{offset: Scalar}: the action of a binomial or Euler operator on
    the series s, term by term, in the order the loops reach the keys."""
    order, den, vecs = integer_form(s)
    zs = list(s.terms)
    if isinstance(op, BinomialOp):
        lam = None if op.lam.is_zero() else op.lam
        if lam is not None and lam.N != order and order == 1:
            order, vecs = lam.N, lift(vecs, lam.N)
        common, out = binomial_action(s.base, zs, vecs, order, op.u_plus,
                                      op.u_minus, lam)
    elif isinstance(op, EulerOp):
        common, out = euler_action(s.base, zs, vecs, op)
    else:
        raise TypeError(f"unknown operator type {type(op)!r}")
    return {z: Scalar._reduced(order, v, den * common) for z, v in out.items()}
