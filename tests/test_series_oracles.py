"""Oracles for the fast paths of the series layer.

Each fast routine is compared, on seeded random inputs, with a direct
reference kept here: the per-term rising/falling factorial formula for
gamma_series, a fresh elimination per call for characters and word
coordinates, and the general reducing constructor for Scalar arithmetic.
"""

import random
from fractions import Fraction as F

import pytest

from binomhorn import (
    BinomHornError,
    IntMatrix,
    LatticeBasis,
    ResonanceError,
    Scalar,
    enumerate_decompositions,
    gamma_series,
    kernel_basis,
    make_horn_input,
    solution_basis,
)
from binomhorn.cyclotomic import cyclotomic_polynomial
from binomhorn.exact_linalg import (
    _ff,
    _rising,
    coordinate_map,
    smith_normal_form,
)
from binomhorn.series import PuiseuxSeries, Support, Truncation
from binomhorn.solutions import _l1_ball, component_characters


# -- references ----------------------------------------------------------------------

def reference_gamma_series(A_J, L, v, T, character=None, field_order=1,
                           offset=None):
    """gamma_series with every coefficient rebuilt from full factorials."""
    nj = A_J.ncols
    v = tuple(F(x) for x in v)
    w = tuple(int(x) for x in offset) if offset is not None else (0,) * nj
    terms = {}
    for k in sorted(_l1_ball(L.rank, T)):
        u = tuple(sum(k[i] * L.vectors[i][t] for i in range(L.rank))
                  for t in range(nj))
        num = F(1)
        den = F(1)
        for j in range(nj):
            t = w[j] + u[j]
            if t > 0:
                f = _rising(v[j] + 1, t)
                if f == 0:
                    raise ResonanceError(
                        "rising factorial vanished at coordinate "
                        f"{j + 1} for offset {list(u)}",
                        term=u, coordinate=j)
                den *= f
            elif t < 0:
                num *= _ff(v[j], -t)
        if num == 0:
            continue
        c = Scalar.rational(num / den, field_order)
        if character is not None:
            c = c * character(u)
        if not c.is_zero():
            terms[tuple(a + b + x for a, b, x in zip(v, w, u))] = c
    base = tuple(a + b for a, b in zip(v, w))
    return PuiseuxSeries(
        nj, terms, field_order=field_order,
        truncation=Truncation(basis=L.vectors, bound=T),
        support=Support(alpha=base, translates=((0,) * nj,)))


def reference_characters(dec, N):
    """Characters through a fresh elimination and Smith form per call."""
    L = dec.L_basis
    r = L.rank
    C = IntMatrix.from_columns([L.coordinates(col)
                                for col in dec.B_J.columns()], nrows=r)
    U, D, _ = smith_normal_form(C)
    ds = [D.data[i][i] for i in range(r)]
    nontrivial = [i for i, x in enumerate(ds) if x > 1]
    indices = [()]
    for i in nontrivial:
        indices = [t + (k,) for t in indices for k in range(ds[i])]

    def make(t):
        def char(u):
            y = L.coordinates(u)
            if y is None:
                raise BinomHornError("outside")
            z = U.mul_vec(y)
            exp = sum(t[pos] * z[i] * (N // ds[i])
                      for pos, i in enumerate(nontrivial))
            return Scalar(N, [F(0)] * (exp % N) + [F(1)])
        return char

    return {t: make(t) for t in indices}


def gamma_outcome(fn, *args, **kwargs):
    """The series, or the resonance witness, of one call."""
    try:
        s = fn(*args, **kwargs)
    except ResonanceError as exc:
        return ("resonance", str(exc), exc.term, exc.coordinate)
    return (list(s.terms.items()), s.truncation, s.support, s.field_order)


def random_v(rng, nj):
    out = []
    for _ in range(nj):
        kind = rng.random()
        if kind < 0.25:
            out.append(F(rng.randint(-4, -1)))       # may resonate
        elif kind < 0.4:
            out.append(F(rng.randint(0, 3)))         # integer, no pole
        else:
            out.append(F(rng.randint(-12, 12), rng.choice([2, 3, 5, 7])))
    return tuple(out)


# -- gamma_series -----------------------------------------------------------------

def test_gamma_series_matches_factorial_reference():
    rng = random.Random(20240611)
    resonant = plain = 0
    for _ in range(60):
        d, nj = rng.choice([(1, 3), (2, 4), (1, 4), (2, 3)])
        A = IntMatrix([[rng.randint(-2, 3) for _ in range(nj)]
                       for _ in range(d)])
        L = kernel_basis(A)
        T = rng.randint(0, 4 if L.rank < 3 else 3)
        v = random_v(rng, nj)
        w = tuple(rng.randint(-3, 3) for _ in range(nj)) \
            if rng.random() < 0.6 else None
        got = gamma_outcome(gamma_series, A, L, v, T, offset=w)
        want = gamma_outcome(reference_gamma_series, A, L, v, T, offset=w)
        assert got == want
        if got[0] == "resonance":
            resonant += 1
        else:
            plain += 1
    # the draws must exercise both outcomes
    assert resonant >= 5 and plain >= 20


def test_gamma_series_resonance_witness_matches_reference():
    A = IntMatrix([[1, 1, 1]])
    L = kernel_basis(A)
    for v in [(F(-1), F(1, 2), F(1, 3)), (F(1, 2), F(-3), F(-2)),
              (F(-2), F(-1), F(-1, 2))]:
        for w in [None, (2, -1, 0), (0, 3, 1)]:
            got = gamma_outcome(gamma_series, A, L, v, 3, offset=w)
            want = gamma_outcome(reference_gamma_series, A, L, v, 3,
                                 offset=w)
            assert got[0] == "resonance"
            assert got == want


def test_gamma_series_ds06_characters_match_reference(B_ds, A_ds):
    hi = make_horn_input(B_ds, A_ds)
    dec = next(d for d in enumerate_decompositions(hi) if d.g > 1)
    chars = component_characters(dec, 3)
    refs = reference_characters(dec, 3)
    assert sorted(refs) == [t for t, _ in chars]
    rng = random.Random(7)
    for t, fn in chars:
        for _ in range(3):
            v = tuple(F(rng.randint(-9, 9), rng.choice([5, 7]))
                      for _ in range(len(dec.J)))
            got = gamma_outcome(gamma_series, dec.A_J, dec.L_basis, v, 5,
                                character=fn, field_order=3)
            want = gamma_outcome(reference_gamma_series, dec.A_J,
                                 dec.L_basis, v, 5, character=refs[t],
                                 field_order=3)
            assert got == want


# -- characters ------------------------------------------------------------------

def test_characters_match_reference_and_reject_outside(B_ds, A_ds):
    hi = make_horn_input(B_ds, A_ds)
    dec = next(d for d in enumerate_decompositions(hi) if d.g > 1)
    refs = reference_characters(dec, 3)
    rng = random.Random(11)
    vecs = dec.L_basis.vectors
    for t, fn in component_characters(dec, 3):
        for _ in range(20):
            u = [0] * len(dec.J)
            for vec in vecs:
                c = rng.randint(-4, 4)
                u = [a + c * b for a, b in zip(u, vec)]
            assert fn(tuple(u)) == refs[t](tuple(u))
        outside = list(vecs[0])
        outside[0] += 1     # breaks A_J u = 0
        with pytest.raises(BinomHornError):
            fn(tuple(outside))
        with pytest.raises(BinomHornError):
            fn(tuple(F(x, 2) for x in vecs[0]))


# -- word coordinates ---------------------------------------------------------------

def test_coordinate_map_matches_elimination():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        r = rng.randint(0, n - 1)
        while True:
            vecs = [tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(r)]
            try:
                L = LatticeBasis(n, vecs)
            except ValueError:
                continue
            break
        coords = coordinate_map(L.vectors)
        for _ in range(15):
            kind = rng.random()
            if kind < 0.5 and r:
                k = [rng.randint(-5, 5) for _ in range(r)]
                y = [sum(c * vec[t] for c, vec in zip(k, L.vectors))
                     for t in range(n)]
            else:
                y = [rng.randint(-5, 5) for _ in range(n)]
            if rng.random() < 0.3:
                y = [F(x, rng.choice([1, 2])) for x in y]
            assert coords(y) == L.coordinates(y)


def test_word_coordinates_are_reused_per_truncation():
    tr = Truncation(basis=((1, -2, 1, 0), (0, 1, -2, 1)), bound=3)
    assert tr.word_coordinates((F(2), F(-3), F(0), F(1))) == (2, 1)
    assert tr.word_length((F(2), F(-3), F(0), F(1))) == 3
    assert tr.word_coordinates((F(1, 2), 0, 0, 0)) is None
    assert tr.word_coordinates((1, 0, 0, 0)) is None
    assert Truncation(basis=(), bound=2).word_coordinates((0, 0)) == ()


# -- Scalar arithmetic ----------------------------------------------------------------

def reference_mul(a, b):
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Scalar(a.N, out)


def lift(x, N):
    """x in Q(zeta_N) through the general constructor."""
    if isinstance(x, Scalar):
        return Scalar(N, x.coeffs)
    return Scalar(N, [F(x)])


def random_scalar(rng, N):
    deg = len(cyclotomic_polynomial(N)) - 1
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
    kind = rng.random()
    if kind < 0.3:
        coeffs = coeffs[:1]          # rational
    elif kind < 0.4:
        coeffs = []                  # zero
    return Scalar(N, coeffs)


def assert_reduced(s, N):
    assert s.N == N
    assert len(s.coeffs) == len(cyclotomic_polynomial(N)) - 1
    assert all(type(c) is F for c in s.coeffs)


@pytest.mark.parametrize("N", [1, 3, 4, 5, 6])
def test_scalar_arithmetic_matches_general_constructor(N):
    rng = random.Random(1000 + N)
    for _ in range(200):
        a = random_scalar(rng, N)
        others = [random_scalar(rng, N), random_scalar(rng, 1),
                  F(rng.randint(-7, 7), rng.randint(1, 5)),
                  rng.randint(-4, 4)]
        neg = -a
        assert_reduced(neg, N)
        assert neg.coeffs == Scalar(N, [-x for x in a.coeffs]).coeffs
        for b in others:
            bb = lift(b, N)
            cases = [
                (a + b, Scalar(N, [x + y for x, y in zip(a.coeffs, bb.coeffs)])),
                (b + a, Scalar(N, [x + y for x, y in zip(a.coeffs, bb.coeffs)])),
                (a - b, Scalar(N, [x - y for x, y in zip(a.coeffs, bb.coeffs)])),
                (b - a, Scalar(N, [y - x for x, y in zip(a.coeffs, bb.coeffs)])),
                (a * b, reference_mul(a, bb)),
                (b * a, reference_mul(bb, a)),
            ]
            if not bb.is_zero():
                cases.append((a / b, reference_mul(a, bb.inverse())))
            for got, want in cases:
                assert_reduced(got, N)
                assert got.coeffs == want.coeffs
                assert got == want and hash(got) == hash(want)
        if isinstance(others[1], Scalar) and N > 1:
            # a rational element of Q(zeta_N) equals its N = 1 copy
            r = others[1]
            assert lift(r, N) == r and hash(lift(r, N)) == hash(r)


def test_scalar_mixed_orders_still_rejected():
    a = Scalar.root_of_unity(3)
    b = Scalar.root_of_unity(4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(ZeroDivisionError):
        a / Scalar.zero(3)


def test_scalar_equality_across_orders():
    a = Scalar.root_of_unity(3)
    b = Scalar.root_of_unity(4)
    assert not a == b and a != b
    assert a not in [b] and b in [a, b]
    table = {b: "b", Scalar.rational(F(2, 3), 3): "two thirds"}
    assert a not in table and table.get(b) == "b"
    # rational elements compare by value across orders, as they hash
    for x, y in ((Scalar.rational(F(2, 3), 3), Scalar.rational(F(2, 3), 4)),
                 (Scalar.rational(F(2, 3), 5), Scalar.rational(F(2, 3)))):
        assert x == y and hash(x) == hash(y)
        assert table[y] == "two thirds"
    assert Scalar.rational(1, 3) != Scalar.rational(2, 4)
    assert Scalar.rational(1, 3) != Scalar.root_of_unity(4, 0) + 1


# -- input checks ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [{"T": -1}, {"field_root": 0},
                                    {"field_root": -2}])
def test_solution_basis_rejects_bad_bounds(B_erd, A_erd, kwargs):
    hi = make_horn_input(B_erd, A_erd)
    with pytest.raises(ValueError):
        solution_basis(hi, (F(1, 2), F(1, 3)), **kwargs)
