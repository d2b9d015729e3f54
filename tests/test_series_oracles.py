"""Oracles for the fast paths of the series layer.

Each fast routine is compared, on seeded random inputs, with a direct
reference kept here: the per-term rising/falling factorial formula for
gamma_series, a fresh elimination per call for characters and word
coordinates, the general reducing constructor for Scalar arithmetic,
and the earlier series layer that keyed every term by its rational
exponent (operator action, residual split, solution assembly and
character twists on lattice offsets).
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd
from operator import add, mul, sub

import pytest

from binomhorn import (
    BinomHornError,
    BinomialOp,
    EulerOp,
    IntMatrix,
    LatticeBasis,
    ResonanceError,
    Scalar,
    bounded_atlas,
    component_polynomial,
    enumerate_decompositions,
    horn_system_operators,
    kernel_basis,
    make_horn_input,
    solution_basis,
    verify_annihilation,
)
from binomhorn.cyclotomic import cyclotomic_polynomial
from binomhorn.decomp import _l1_ball
from binomhorn.series import PuiseuxSeries, Support, Truncation, apply_operator
from binomhorn.solutions import _ratio_tables
from linalg_reference import (
    frac_solve,
    lattice_coordinates,
    smith_character_weights,
    smith_saturated_span,
)
from pipeline_reference import (
    column_terms,
    covered,
    forms_coordinates,
    gamma_series,
    gamma_terms,
    sheet_bases,
    twist_characters,
    word_coordinates,
    word_length,
)
from series_reference import per_term_apply


# -- references ----------------------------------------------------------------------

def _rising(a, k):
    """Rising factorial a (a+1) ... (a+k-1) of a rational a; k >= 0."""
    p, q = a.numerator, a.denominator
    num = 1
    for i in range(k):
        num *= p + i * q
    return F(num, q ** k)


def _falling(a, k):
    """Falling factorial a (a-1) ... (a-k+1) of a rational a; k >= 0."""
    return (-1) ** k * _rising(-a, k)


def reference_gamma_series(A_J, L, v, T, character=None, field_order=1,
                           offset=None):
    """gamma_series with every coefficient rebuilt from full factorials,
    as (terms keyed by rational exponent, truncation, support); an
    optional character takes the lattice offset u of a term."""
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
                num *= _falling(v[j], -t)
        if num == 0:
            continue
        c = Scalar.rational(num / den, field_order)
        if character is not None:
            c = c * character(u)
        if not c.is_zero():
            terms[tuple(a + b + x for a, b, x in zip(v, w, u))] = c
    base = tuple(a + b for a, b in zip(v, w))
    return (terms, Truncation(basis=L.vectors, bound=T, dim=nj),
            Support(alpha=base, translates=((0,) * nj,)))


def reference_characters(dec, N):
    """Characters on lattice offsets u, through a fresh elimination and
    the Smith form's row transform per call."""
    L = dec.L_basis
    C = IntMatrix.from_columns([lattice_coordinates(L.vectors, col)
                                for col in dec.B_J.columns()], nrows=L.rank)

    def make(w):
        def char(u):
            y = lattice_coordinates(L.vectors, u)
            if y is None:
                raise BinomHornError("outside")
            exp = sum(map(mul, w, y))
            return Scalar(N, [F(0)] * (exp % N) + [F(1)])
        return char

    return {t: make(w) for t, w in smith_character_weights(C, N)}


def reference_assembly(dec, gamma, n, v_local, T, character, N):
    """One solution keyed by rational exponent, assembled piece by piece
    from reference_gamma_series with the character on lattice offsets;
    returns (terms, truncation basis, sheet bases)."""
    gamma = tuple(gamma)
    comp = component_polynomial(
        dec.M, gamma, next(c for c in bounded_atlas(dec.M).bounded_components
                           if gamma in c.points))
    terms, sheets = {}, []
    for pt, c in sorted(comp.terms.items()):
        nv = None
        if dec.q:
            sol = frac_solve([list(r) for r in dec.M.data],
                             [pt[t] - gamma[t] for t in range(dec.q)])
            nv = dec.N.mul_vec(tuple(int(x) for x in sol))
        local, _, _ = reference_gamma_series(
            dec.A_J, dec.L_basis, v_local, T, character=character,
            field_order=N, offset=nv)
        full = [F(0)] * n
        for t, j in enumerate(dec.rowset_Jbar):
            full[j] = F(pt[t])
        for e_local, coeff in local.items():
            for pos, j in enumerate(dec.J):
                full[j] = e_local[pos]
            e = tuple(full)
            terms[e] = terms.get(e, Scalar.zero(N)) + coeff * c
        sheet = list(full)
        for pos, j in enumerate(dec.J):
            sheet[j] = F(v_local[pos]) + (nv[pos] if dec.q else 0)
        sheets.append(tuple(sheet))
    basis = []
    for vec in dec.L_basis.vectors:
        full = [0] * n
        for pos, j in enumerate(dec.J):
            full[j] = vec[pos]
        basis.append(tuple(full))
    return ({e: c for e, c in terms.items() if not c.is_zero()},
            Truncation(basis=tuple(basis), bound=T, dim=n), sorted(sheets))


def _acc(d, key, val):
    new = val if key not in d else d[key] + val
    if new.is_zero():
        d.pop(key, None)
    else:
        d[key] = new


def _derivative_coeff(e, u):
    out = F(1)
    for x, k in zip(e, u):
        out *= _falling(x, k)
    return out


def reference_apply(op, terms):
    """The action of op on a series keyed by rational exponent."""
    out = {}
    if isinstance(op, BinomialOp):
        for e, c in terms.items():
            fp = _derivative_coeff(e, op.u_plus)
            if fp:
                _acc(out, tuple(a - b for a, b in zip(e, op.u_plus)), c * fp)
            if not op.lam.is_zero():
                fm = _derivative_coeff(e, op.u_minus)
                if fm:
                    _acc(out, tuple(a - b for a, b in zip(e, op.u_minus)),
                         c * (-op.lam * fm))
    else:
        for e, c in terms.items():
            f = sum(r * x for r, x in zip(op.row, e)) - op.value
            if f != 0 and not c.is_zero():
                out[e] = c * f
    return out


def reference_verify(ops, terms, trunc, sheets):
    """Per operator: (interior, boundary) residual terms keyed by rational
    exponent, each sorted, split by word length against every sheet."""
    out = []
    for op in ops:
        applied = sorted(reference_apply(op, terms).items())
        nvars = len(sheets[0])
        if isinstance(op, BinomialOp):
            shifts = [op.u_plus] + ([] if op.lam.is_zero() else [op.u_minus])
        else:
            shifts = [(0,) * nvars]
        interior, boundary = [], []
        for y, c in applied:
            known = all(covered(trunc, sheets,
                                tuple(a + s for a, s in zip(y, sh)))
                        for sh in shifts)
            (interior if known else boundary).append((y, c))
        out.append((interior, boundary))
    return out


def by_exponent(s):
    """The terms of a series as a list of (rational exponent, coefficient)
    pairs, in the series' own order."""
    return [(s.exponent(z), c) for z, c in s.terms.items()]


def gamma_outcome(fn, *args, **kwargs):
    """The series, or the resonance witness, of one call."""
    try:
        s = fn(*args, **kwargs)
    except ResonanceError as exc:
        return ("resonance", str(exc), exc.term, exc.coordinate)
    if isinstance(s, PuiseuxSeries):
        return (by_exponent(s), s.truncation, s.support)
    terms, trunc, support = s
    return (list(terms.items()), trunc, support)


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
            # the key of every term is its lattice offset from the base
            s = gamma_series(A, L, v, T, offset=w)
            words = {tuple(sum(map(mul, k, row)) for row in zip(*L.vectors))
                     for k in _l1_ball(L.rank, T)} if L.rank else {(0,) * nj}
            assert set(s.terms) <= words
    # the draws must exercise both outcomes
    assert resonant >= 5 and plain >= 20



def terms_outcome(fn, *args):
    """The (z, numerator, denominator) rows, or the resonance witness."""
    try:
        return list(fn(*args))
    except ResonanceError as exc:
        return ("resonance", str(exc), exc.term, exc.coordinate)


def test_gamma_terms_match_the_word_by_word_reference():
    # the column-wise products against the word-at-a-time generator on
    # seeded tables: resonant ones (a negative integer exponent), ones
    # with zeros (a nonnegative integer exponent) and plain ones, and
    # words reaching either end of each table
    rng = random.Random(1717)
    seen = Counter()
    for _ in range(400):
        nj = rng.randint(1, 4)
        v = random_v(rng, nj)
        reach = tuple(rng.randint(0, 4) for _ in range(nj))
        offsets = [tuple(rng.randint(-3, 3) for _ in range(nj))
                   for _ in range(rng.randint(1, 3))]
        tables = _ratio_tables(v, offsets, reach)
        words = [((i,), tuple(rng.randint(-r, r) for r in reach))
                 for i in range(rng.randint(0, 30))]
        trunc = Truncation(basis=(), bound=0, dim=nj)
        for w in offsets:
            got = terms_outcome(column_terms, words, reach, trunc, tables, w)
            want = terms_outcome(gamma_terms, words, tables, w)
            assert got == want, (v, reach, w, words)
            if got and got[0] == "resonance":
                seen["resonance"] += 1
            else:
                seen["dropped" if len(got) < len(words) else "full"] += 1
    assert seen["resonance"] >= 50 and seen["dropped"] >= 50 \
        and seen["full"] >= 50, seen

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
    # a character applied at the word coordinates of each term of the
    # untwisted series reproduces the twist on lattice offsets
    hi = make_horn_input(B_ds, A_ds)
    dec = next(d for d in enumerate_decompositions(hi) if d.g > 1)
    chars = twist_characters(dec, 3)
    refs = reference_characters(dec, 3)
    assert sorted(refs) == [t for t, _ in chars]
    L = dec.L_basis

    def coords(u):
        return lattice_coordinates(L.vectors, u)
    rng = random.Random(7)
    for t, fn in chars:
        for _ in range(3):
            v = tuple(F(rng.randint(-9, 9), rng.choice([5, 7]))
                      for _ in range(len(dec.J)))
            got = gamma_outcome(gamma_series, dec.A_J, L, v, 5)
            if got[0] != "resonance":
                s = gamma_series(dec.A_J, L, v, 5)
                got = ([(s.exponent(u), c * fn(coords(u)))
                        for u, c in s.terms.items()], s.truncation, s.support)
            want = gamma_outcome(reference_gamma_series, dec.A_J, L, v, 5,
                                 character=refs[t], field_order=3)
            assert got == want


# -- solutions and verification against the exponent-keyed layer ------------------

def oracle_betas(count, seed):
    """Rational parameters (p/5, r/7) and (p/7, r/5) as in the series
    benchmark's pool, drawn without replacement."""
    pool = [(F(p, q1), F(r, q2)) for q1, q2 in ((5, 7), (7, 5))
            for p in range(1, 2 * q1) for r in range(1, 2 * q2)
            if p % q1 and r % q2]
    return random.Random(seed).sample(pool, count)


@pytest.mark.parametrize("fixture, N, rank", [("erdelyi", 1, 4),
                                              ("ds06", 3, 9)])
def test_solutions_match_exponent_keyed_reference(fixture, N, rank, B_erd,
                                                   A_erd, B_ds, A_ds):
    # every solution (every twist on ds06) at T = 12, for 8 betas: the
    # series, and the interior and boundary residuals of every operator,
    # term for term at exponent base + z
    B, A = (B_erd, A_erd) if fixture == "erdelyi" else (B_ds, A_ds)
    hi = make_horn_input(B, A)
    decs = {d.label: d for d in enumerate_decompositions(hi)}
    refs = {label: reference_characters(d, N) for label, d in decs.items()
            if d.is_toral}
    T = 12
    seen_boundary = 0
    for beta in oracle_betas(8, 12 + N):
        sols = solution_basis(hi, beta, T=T, field_root=N)
        assert len(sols) == rank
        ops = horn_system_operators(hi, beta, field_order=N)
        for sol in sols:
            dec = decs[sol.decomposition]
            v = tuple(sol.series.base[j] for j in dec.J)
            char = refs[dec.label][sol.character] if sol.character else None
            terms, trunc, sheets = reference_assembly(
                dec, sol.gamma, hi.n, v, T, char, N)
            assert sorted(by_exponent(sol.series)) == sorted(terms.items())
            assert sol.series.truncation == trunc
            assert sorted(sheet_bases(sol.series.support)) == sheets
            got = verify_annihilation(ops, sol.series)
            want = reference_verify(ops, terms, trunc, sheets)
            assert len(got.checks) == len(want)
            for check, (interior, boundary) in zip(got.checks, want):
                exps = sol.series.exponent
                assert [(exps(z), c) for z, c in check.interior_residual] \
                    == interior == []
                assert [(exps(z), c) for z, c in check.boundary_residual] \
                    == boundary
                seen_boundary += len(boundary)
    assert seen_boundary > 0


def test_operators_match_exponent_keyed_reference():
    # seeded twin of the property test below, so the comparison also runs
    # where hypothesis is not installed
    rng = random.Random(99)
    for _ in range(150):
        check_operator_against_reference(*random_operator_case(rng.randint))


def random_operator_case(pick):
    """A random series on a rational base, with a truncation and sheets,
    and random Binomial and Euler operators; ``pick(lo, hi)``
    draws an integer in [lo, hi]."""
    n = pick(1, 3)
    N = (1, 3, 4)[pick(0, 2)]
    base = tuple(F(pick(-6, 6), pick(1, 4)) for _ in range(n))
    terms = {}
    for _ in range(pick(0, 12)):
        z = tuple(pick(-3, 3) for _ in range(n))
        terms[z] = Scalar(N, [F(pick(-5, 5), pick(1, 3))
                              for _ in range(pick(1, 2))])
    vec = tuple(pick(-2, 2) for _ in range(n))
    trunc = Truncation(basis=(vec,) if any(vec) else (), bound=pick(0, 3),
                       dim=n)
    translates = tuple({tuple(pick(-1, 1) for _ in range(n))
                        for _ in range(pick(1, 2))})
    s = PuiseuxSeries(n, terms, field_order=N, truncation=trunc,
                      support=Support(alpha=base, translates=translates))
    ops = []
    for _ in range(pick(1, 3)):
        if pick(0, 1) == 0:
            up = tuple(pick(0, 2) for _ in range(n))
            um = tuple(0 if a else pick(0, 2) for a in up)
            lam = Scalar(N, [F(pick(-2, 2)), F(pick(-1, 1))])
            ops.append(BinomialOp(u_plus=up, u_minus=um, lam=lam))
        else:
            ops.append(EulerOp(row=tuple(F(pick(-3, 3), pick(1, 2))
                                         for _ in range(n)),
                               value=F(pick(-4, 4), pick(1, 3))))
    return s, ops


def check_operator_against_reference(s, ops):
    terms = dict(by_exponent(s))
    for op in ops:
        got = apply_operator(op, s)
        assert got.base == s.base
        assert sorted(by_exponent(got)) == sorted(
            reference_apply(op, terms).items())
    got = verify_annihilation(ops, s)
    want = reference_verify(ops, terms, s.truncation,
                            sheet_bases(s.support))
    for check, (interior, boundary) in zip(got.checks, want):
        assert [(s.exponent(z), c) for z, c in check.interior_residual] \
            == interior
        assert [(s.exponent(z), c) for z, c in check.boundary_residual] \
            == boundary
        assert check.ok == (not interior)


def test_operators_match_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        case = random_operator_case(
            lambda lo, hi: data.draw(st.integers(lo, hi)))
        check_operator_against_reference(*case)

    prop()


@pytest.mark.parametrize("lam, N", [
    (F(0), 1), (F(1), 1), (F(-1), 1), (F(2, 3), 1),
    (F(0), 3), (F(1), 3), (F(-1), 3), (F(2, 3), 3),
    ("zeta_3", 3)])
def test_rational_lam_folds_into_the_scale(lam, N, monkeypatch):
    # a rational lam scales the second part; only zeta_3 builds a
    # multiplication matrix
    from binomhorn import series
    built = []
    real = series._multiplication_matrix
    monkeypatch.setattr(series, "_multiplication_matrix",
                        lambda x, order: built.append(x) or real(x, order))
    lam = Scalar.root_of_unity(3) if lam == "zeta_3" \
        else Scalar.rational(lam, N)
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 3)
        base = tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(n))
        terms = {tuple(rng.randint(-3, 3) for _ in range(n)):
                 Scalar(N, [F(rng.randint(-5, 5), rng.randint(1, 3))
                            for _ in range(rng.randint(1, 2))])
                 for _ in range(rng.randint(1, 10))}
        s = PuiseuxSeries(n, terms, field_order=N, base=base)
        up = tuple(rng.randint(0, 2) for _ in range(n))
        um = tuple(0 if a else rng.randint(0, 2) for a in up)
        op = BinomialOp(u_plus=up, u_minus=um, lam=lam)
        assert sorted(by_exponent(apply_operator(op, s))) == sorted(
            reference_apply(op, dict(by_exponent(s))).items())
    assert built == ([lam] * 20 if not lam.is_rational() else [])


# large primes: products of them make coefficient denominators that share
# no factor, so a cancellation is exact only over their common multiple
BIG_PRIMES = (10007, 65537, 999983, 1000003, 2147483647)


def random_cancelling_case(pick):
    """A series over Q(zeta_N), N in {1, 3, 4, 5, 6, 12}, with large
    coprime coefficient denominators, and a binomial operator whose lam
    has coefficients over denominators 2 to 9, plus an Euler operator
    with large denominators.  Some terms get a partner chosen so that the two parts
    of the binomial operator cancel at one key, and the Euler value is
    often the weight of one term, so both operators cancel terms whose
    contributions have unrelated denominators.  ``pick(lo, hi)`` draws
    an integer in [lo, hi]."""
    n = pick(1, 3)
    N = (1, 3, 4, 5, 6, 12)[pick(0, 5)]
    deg = len(cyclotomic_polynomial(N)) - 1

    def big():
        return BIG_PRIMES[pick(0, 4)] * pick(1, 6)

    base = tuple(F(pick(-6, 6), pick(1, 5)) for _ in range(n))
    up = tuple(pick(0, 2) for _ in range(n))
    um = tuple(0 if a else pick(0, 2) for a in up)
    lam = Scalar(N, [F(pick(-4, 4), pick(2, 9)) for _ in range(pick(1, deg))])
    if lam.is_zero():
        lam = Scalar(N, [F(1, pick(2, 9))])
    binomial = BinomialOp(u_plus=up, u_minus=um, lam=lam)
    # rational coefficients of order 1 in a series over Q(zeta_N)
    rational = not pick(0, 3)
    terms = {}
    for _ in range(pick(1, 8)):
        z = tuple(pick(-3, 3) for _ in range(n))
        c = Scalar(1, [F(pick(-9, 9), big())]) if rational else \
            Scalar(N, [F(pick(-9, 9), big()) for _ in range(pick(1, deg))])
        if z in terms or c.is_zero():
            continue
        terms[z] = c
        # the partner z' = z - u_plus + u_minus cancels the image of z
        # under partial^u_plus against lam partial^u_minus of its own term
        zp = tuple(a - b + d for a, b, d in zip(z, up, um))
        fp = _derivative_coeff(tuple(b + x for b, x in zip(base, z)), up)
        fm = _derivative_coeff(tuple(b + x for b, x in zip(base, zp)), um)
        if zp != z and zp not in terms and fp and fm and pick(0, 3) \
                and (not rational or pick(0, 1)):
            terms[zp] = c * fp / (lam * fm)
    row = tuple(F(pick(-3, 3), big()) for _ in range(n))
    z0 = sorted(terms)[pick(0, len(terms) - 1)] if terms else (0,) * n
    value = sum(r * (b + x) for r, b, x in zip(row, base, z0))
    if not pick(0, 2):
        value += F(pick(-4, 4), big())
    vec = tuple(pick(-2, 2) for _ in range(n))
    trunc = Truncation(basis=(vec,) if any(vec) else (), bound=pick(0, 3),
                       dim=n)
    translates = tuple({tuple(pick(-1, 1) for _ in range(n))
                        for _ in range(pick(1, 2))})
    s = PuiseuxSeries(n, terms, field_order=N, truncation=trunc,
                      support=Support(alpha=base, translates=translates))
    return s, [binomial, EulerOp(row=row, value=value)]


def cancelled_keys(op, s):
    """Keys that receive a nonzero contribution from s but hold no term
    of apply_operator(op, s)."""
    terms = dict(by_exponent(s))
    if isinstance(op, BinomialOp):
        touched = {tuple(a - b for a, b in zip(e, u))
                   for e in terms for u in (op.u_plus, op.u_minus)
                   if _derivative_coeff(e, u)}
    else:
        touched = set(terms)
    got = apply_operator(op, s)
    return touched - {got.exponent(z) for z in got.terms}


def test_cancelling_operators_match_reference():
    # seeded twin of the property test below: the draws must cancel terms
    # under both operator kinds, and over every cyclotomic order
    rng = random.Random(2718)
    cancelled = {BinomialOp: 0, EulerOp: 0}
    orders, mixed = set(), Counter()
    for _ in range(200):
        s, ops = random_cancelling_case(rng.randint)
        check_operator_against_reference(s, ops)
        orders.add(s.field_order)
        if s.field_order > 1:
            # order-1 coefficients alone (lam lifts them), or beside others
            mixed[frozenset(c.N for c in s.terms.values())] += 1
        for op in ops:
            cancelled[type(op)] += len(cancelled_keys(op, s))
    assert orders == {1, 3, 4, 5, 6, 12}
    assert mixed[frozenset({1})] >= 5
    assert sum(v for k, v in mixed.items() if len(k) == 2) >= 5
    assert cancelled[BinomialOp] >= 200 and cancelled[EulerOp] >= 100


def test_cancelling_operators_match_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        case = random_cancelling_case(
            lambda lo, hi: data.draw(st.integers(lo, hi)))
        check_operator_against_reference(*case)

    prop()


# -- column actions against the per-term loops ---------------------------------------

def random_column_case(pick):
    """A series and operators that reach every branch of the column-wise
    actions, with the features each draw has; ``pick(lo, hi)`` draws an
    integer in [lo, hi].

    Half the draws are random series over Q(zeta_N), N in {1, 3, 4, 5}:
    a base whose numerators are mostly negative, so falling factorial
    columns go negative; none, one, two or up to ten terms, the second
    often the partner of the first under the binomial operator, so the
    pairing holds a single pair; order-1 coefficients among order-N ones;
    now and then a zero coefficient, which no constructor keeps but an
    edit of ``terms`` can put in; and a lam that is zero, rational or, for
    N > 1, irrational.  The other half are Gamma-ratio series of a random
    A_J at a v with negative numerators (``gamma_series``), so rising
    factorials go negative in the tables, with the binomials of the
    kernel lattice's basis and the Euler operators of A's rows.
    """
    if pick(0, 1):
        return random_gamma_case(pick)
    n = pick(1, 3)
    N = (1, 3, 4, 5)[pick(0, 3)]
    deg = len(cyclotomic_polynomial(N)) - 1
    base = tuple(F(pick(-9, 3), pick(1, 4)) for _ in range(n))
    up = tuple(pick(0, 2) for _ in range(n))
    um = tuple(0 if a else pick(0, 2) for a in up)
    kind = pick(0, 2) if N > 1 else pick(0, 1)
    if kind == 0:
        lam = Scalar.zero(N)
    elif kind == 1:
        lam = Scalar.rational(F(pick(-3, 3) or 1, pick(1, 3)), N)
    else:
        lam = Scalar(N, [F(pick(-2, 2), pick(1, 3)), F(pick(1, 2), pick(1, 3))])
    ops = [BinomialOp(u_plus=up, u_minus=um, lam=lam)]

    def coefficient():
        if not pick(0, 9):
            return Scalar.zero(N)
        if N > 1 and not pick(0, 2):
            return Scalar.rational(F(pick(-9, 9) or 1, pick(1, 50)))
        return Scalar(N, [F(pick(-9, 9), pick(1, 50))
                          for _ in range(pick(1, deg))])

    size = (0, 1, 2, pick(3, 10))[pick(0, 3)]
    terms = {}
    for k in range(size):
        z = tuple(pick(-3, 3) for _ in range(n))
        if k == 1 and pick(0, 2):
            # the partner whose second-part term meets the first term's
            z = tuple(a - b + c for a, b, c in zip(next(iter(terms)), up, um))
        terms[z] = coefficient()
    z0 = next(iter(terms), (0,) * n)
    row = tuple(F(pick(-3, 3), pick(1, 2)) for _ in range(n))
    value = sum(r * (b + x) for r, b, x in zip(row, base, z0)) if pick(0, 1) \
        else F(pick(-4, 4), pick(1, 3))
    ops.append(EulerOp(row=row, value=value))
    vec = tuple(pick(-2, 2) for _ in range(n))
    trunc = Truncation(basis=(vec,) if any(vec) else (), bound=pick(0, 3),
                       dim=n)
    translates = tuple({tuple(pick(-1, 1) for _ in range(n))
                        for _ in range(pick(1, 2))})
    s = PuiseuxSeries(n, field_order=N, base=base)._with_terms(
        terms, trunc, Support(alpha=base, translates=translates))
    return s, ops, None


def random_gamma_case(pick):
    d, nj = ((1, 3), (2, 4), (1, 4))[pick(0, 2)]
    A = IntMatrix([[pick(-2, 3) for _ in range(nj)] for _ in range(d)])
    L = kernel_basis(A)
    v = tuple(F(pick(-9, -1), pick(1, 4)) if pick(0, 2) else
              F(pick(-9, 9), pick(2, 5)) for _ in range(nj))
    w = tuple(pick(-2, 2) for _ in range(nj))
    try:
        s = gamma_series(A, L, v, pick(0, 3), offset=w)
    except ResonanceError:
        return random_gamma_case(pick)
    lam = Scalar.rational(F(pick(-2, 2) or 1, pick(1, 2)))
    ops = [BinomialOp(u_plus=tuple(max(x, 0) for x in vec),
                      u_minus=tuple(max(-x, 0) for x in vec), lam=lam)
           for vec in L.vectors]
    ops += [EulerOp(row=tuple(F(x) for x in row),
                    value=sum(x * (a + b) for x, a, b in zip(row, v, w))
                    + F(pick(0, 1), pick(1, 3)))
            for row in A.data]
    return s, ops, (v, w)


def column_features(s, ops, gamma):
    """The branches of the column-wise actions that (s, ops) reaches;
    ``gamma`` is (v, w) for a Gamma-ratio series, else None."""
    out = set()
    if not s.terms:
        out.add("empty")
    if len(s.terms) == 1:
        out.add("one term")
    if len({c.N for c in s.terms.values()}) == 2:
        out.add("order 1 inside order N")
    if any(c.is_zero() for c in s.terms.values()):
        out.add("zero term")
    for op in ops:
        if not isinstance(op, BinomialOp):
            continue
        if not op.lam.is_rational():
            out.add("irrational lam")
        if any(b + x < 0 for z in s.terms for u in (op.u_plus, op.u_minus)
               for b, x, k in zip(s.base, z, u) if k):
            out.add("negative falling factor")
        shift = tuple(map(sub, op.u_plus, op.u_minus))
        partners = [z for z in s.terms if tuple(map(add, z, shift)) in s.terms]
        if not op.lam.is_zero() and len(partners) == 1:
            out.add("single pair")
    if gamma is not None:
        v, w = gamma
        # a rising factorial factor v_j + t with t = w_j + u_j >= 1
        if any(x + a + b < 0 for u in s.terms for x, a, b in zip(v, w, u)
               if a + b >= 1):
            out.add("negative rising factor")
    return out


def check_column_case(s, ops):
    """apply_operator and verify_annihilation of s against the per-term
    loops, key order included, and verify against the exponent-keyed
    reference; no result is ever an all-zero term."""
    applied = []
    for op in ops:
        got = apply_operator(op, s)
        want = per_term_apply(op, s)
        assert list(got.terms.items()) == list(want.items())
        assert not any(c.is_zero() for c in got.terms.values())
        applied.append(sorted(want.items()))
    rep = check_verify_against_reference(ops, s)
    for check, want in zip(rep.checks, applied):
        assert sorted(check.interior_residual + check.boundary_residual) \
            == want
        assert check.boundary_terms == len(check.boundary_residual)


def test_column_actions_match_per_term_loops():
    # seeded twin of the property test below: every branch the draws
    # must reach is counted, so a generator that stops reaching one
    # fails here by name
    rng = random.Random(4242)
    seen = Counter()
    for _ in range(300):
        s, ops, gamma = random_column_case(rng.randint)
        check_column_case(s, ops)
        seen.update(column_features(s, ops, gamma))
    for feature in ("empty", "one term", "order 1 inside order N",
                    "zero term", "irrational lam", "negative falling factor",
                    "single pair", "negative rising factor"):
        assert seen[feature] >= 10, (feature, seen)


def test_column_actions_match_per_term_loops_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        s, ops, _ = random_column_case(
            lambda lo, hi: data.draw(st.integers(lo, hi)))
        check_column_case(s, ops)

    prop()


def test_zero_term_is_no_residual(B_erd, A_erd):
    # a zero Scalar put into the terms of a solution, by an edit of
    # terms or through _with_terms, is no residual: erdelyi at T = 6,
    # the second solution, with a zero 100 steps past its last key
    hi = make_horn_input(B_erd, A_erd)
    beta = (F(1, 2), F(1, 3))
    s = solution_basis(hi, beta, T=6)[1].series
    ops = horn_system_operators(hi, beta)
    clean = verify_annihilation(ops, s)
    assert clean.ok
    far = tuple(x + 100 for x in max(s.terms))
    padded = s._with_terms({**s.terms, far: Scalar.zero(1)}, s.truncation,
                           s.support)
    edited = s._with_terms(dict(s.terms), s.truncation, s.support)
    edited.terms[far] = Scalar.zero(1)
    for t in (padded, edited):
        rep = check_verify_against_reference(ops, t)
        assert rep == clean and len(rep.checks) == 4
        for op in ops:
            assert far not in apply_operator(op, t).terms
            assert apply_operator(op, t) == apply_operator(op, s)


# -- characters ------------------------------------------------------------------

def test_characters_match_reference_and_reject_outside(B_ds, A_ds):
    # the callables take word coordinates k in dec.L_basis, so no argument
    # lies outside the lattice; the per-offset reference still rejects
    # offsets outside it, and agrees with the callables at u = L k
    hi = make_horn_input(B_ds, A_ds)
    dec = next(d for d in enumerate_decompositions(hi) if d.g > 1)
    refs = reference_characters(dec, 3)
    rng = random.Random(11)
    L = dec.L_basis
    cols = [lattice_coordinates(L.vectors, col) for col in dec.B_J.columns()]
    for t, fn in twist_characters(dec, 3):
        for _ in range(20):
            k = tuple(rng.randint(-4, 4) for _ in range(L.rank))
            u = tuple(sum(map(mul, k, row)) for row in zip(*L.vectors))
            assert fn(k) == refs[t](u)
            for col in cols:  # trivial on the column span of B_J
                assert fn(tuple(a + b for a, b in zip(k, col))) == fn(k)
        outside = list(L.vectors[0])
        outside[0] += 1     # breaks A_J u = 0
        with pytest.raises(BinomHornError):
            refs[t](tuple(outside))


# -- word coordinates ---------------------------------------------------------------

def test_truncation_forms_match_elimination():
    # the coordinates a truncation's integer forms give, as its coverage
    # test reads them, against Fraction elimination
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
        forms = Truncation(basis=L.vectors, bound=0, dim=n)._forms
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
            assert forms_coordinates(forms, y) == \
                lattice_coordinates(L.vectors, y)


def test_word_coordinates_are_reused_per_truncation():
    # the reference word coordinates, and the coverage test that a
    # truncation answers from integer forms built on its first use
    tr = Truncation(basis=((1, -2, 1, 0), (0, 1, -2, 1)), bound=3, dim=4)
    assert word_coordinates(tr, (F(2), F(-3), F(0), F(1))) == (2, 1)
    assert word_length(tr, (F(2), F(-3), F(0), F(1))) == 3
    assert word_coordinates(tr, (F(1, 2), 0, 0, 0)) is None
    assert word_coordinates(tr, (1, 0, 0, 0)) is None
    assert word_coordinates(Truncation(basis=(), bound=2, dim=2),
                            (0, 0)) == ()
    with pytest.raises(ValueError):
        word_coordinates(Truncation(basis=(), bound=2, dim=3), (0, 0))
    test = tr.coverage([(0, 0, 0, 0)], [(0, 0, 0, 0)])
    forms = tr._forms
    assert test((2, -3, 0, 1))              # word length 3 = bound
    assert not test((3, -5, 1, 1))          # word length 4
    assert test((4, 0, 0, 0))               # off the lattice
    # a sheet translate t and a shift sh move the tested point to z + sh - t
    assert not tr.coverage([(1, 0, 0, 0)], [(0, 0, 0, 0)])((4, -5, 1, 1))
    assert not tr.coverage([(0, 0, 0, 0)], [(1, 0, 0, 0)])((2, -5, 1, 1))
    assert tr.coverage([(1, 0, 0, 0)], [(1, 0, 0, 0)])((2, -3, 0, 1))
    assert tr._forms is forms


def random_coverage_case(rng):
    """A truncation of rank 0 to n - 1 in Z^n, 1-3 sheets, 1-2 shifts
    and one offset z; and w = z + sh - t for one of the sheets t and
    shifts sh, with the kind it was drawn as: a lattice point of word
    length bound or bound + 1 (the origin at rank 0), a point of the
    rational span (often with coordinates that are not integers), or a
    point off the span."""
    n = rng.randint(1, 5)
    r = rng.randint(0, n - 1)
    while True:
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(r)]
        try:
            L = LatticeBasis(n, vecs)
        except ValueError:
            continue
        break
    # the drawn vectors, not L's Hermite basis, so d has either sign
    trunc = Truncation(basis=tuple(vecs), bound=rng.randint(0, 4), dim=n)
    sheets = [tuple(rng.randint(-2, 2) for _ in range(n))
              for _ in range(rng.randint(1, 3))]
    shifts = [tuple(rng.randint(0, 2) for _ in range(n))
              for _ in range(rng.randint(1, 2))]
    t, sh = rng.choice(sheets), rng.choice(shifts)
    kind = rng.choice(["bound", "bound + 1", "fraction", "off"])
    if kind.startswith("bound") and r:
        length = trunc.bound + (kind == "bound + 1")
        k = [0] * r
        for _ in range(length):
            k[rng.randrange(r)] += rng.choice([-1, 1])
        if sum(map(abs, k)) != length:      # a step cancelled: re-sign
            k = [abs(x) for x in k]
            k[0] += length - sum(k)
        w = [sum(c * vec[i] for c, vec in zip(k, vecs)) for i in range(n)]
    elif kind == "fraction" and r:
        # the saturation holds every integer point of the rational span;
        # its points outside L have non-integer coordinates in L
        S = smith_saturated_span(IntMatrix.from_columns(L.vectors, nrows=n))
        w = [sum(rng.randint(-3, 3) * vec[i] for vec in S.vectors)
             for i in range(n)]
    elif kind != "off":
        kind, w = "origin", [0] * n     # the only point of a rank-0 lattice
    else:
        w = [rng.randint(-6, 6) for _ in range(n)]
    z = tuple(a + b - c for a, b, c in zip(w, t, sh))
    return trunc, sheets, shifts, z, kind, tuple(w)


def test_coverage_matches_reference():
    # Truncation.coverage (integer forms, one constant per sheet and
    # shift) against the per-offset, per-sheet Fraction elimination
    rng = random.Random(4141)
    seen = Counter()
    for _ in range(1200):
        trunc, sheets, shifts, z, kind, w = random_coverage_case(rng)
        got = trunc.coverage(sheets, shifts)(z)
        want = all(covered(trunc, sheets, tuple(a + b for a, b in zip(z, sh)))
                   for sh in shifts)
        assert got == want, (trunc, sheets, shifts, z)
        seen[kind, want] += 1
        seen["rank", len(trunc.basis), trunc.dim] += 1
        seen["sheets", len(sheets)] += 1
        if kind == "fraction" and word_coordinates(trunc, w) is None:
            seen["non-integer coordinates"] += 1
    # every kind of point and both verdicts, every rank 0..n-1 up to
    # n = 5, and 1, 2 and 3 sheets; a lattice point past the bound is
    # never covered
    assert seen["bound", True] >= 100 and seen["bound + 1", False] >= 100
    assert seen["bound + 1", True] == 0
    assert seen["fraction", True] >= 100 and seen["off", True] >= 100
    assert seen["origin", True] >= 100
    assert seen["non-integer coordinates"] >= 100
    assert all(seen["rank", r, n] for n in range(1, 6) for r in range(n))
    assert all(seen["sheets", c] >= 100 for c in (1, 2, 3))


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
    # the canonical integer form: deg Phi_N numerators over a positive
    # denominator coprime to them all, zero as zeros over 1
    assert type(s.nums) is tuple and len(s.nums) == len(s.coeffs)
    assert all(type(x) is int for x in s.nums) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert s.coeffs == tuple(F(x, s.den) for x in s.nums)
    if s.is_zero():
        assert s.nums == (0,) * len(s.nums) and s.den == 1


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


def test_twisted_ds06_terms_match_the_general_product(B_ds, A_ds):
    # every term of every twisted ds06 solution (T = 6, field root 3) is
    # zeta_3^e times the coefficient q of the character-trivial solution
    # on the same support, with e the character at the term's word
    # coordinates; the general reducing constructor is the reference
    hi = make_horn_input(B_ds, A_ds)
    solved, twisted = check_twisted_terms(hi, 6, 12)
    # 216 terms per basis, about 88 of them twisted by zeta_3 or zeta_3^2
    assert solved >= 5 and twisted >= 64 * solved


def test_twisted_ds06_sum_terms_match_the_general_product(B_ds, A_ds):
    # the same on ds06 + ds06 at T = 4, where each support has nine
    # twists and each row's three root multiples are shared among them
    from test_solutions import block_diagonal
    hi = make_horn_input(block_diagonal(B_ds, B_ds),
                         block_diagonal(A_ds, A_ds))
    solved, twisted = check_twisted_terms(hi, 4, 3)
    # about 1200 twisted terms per basis
    assert solved >= 2 and twisted >= 1000 * solved


def check_twisted_terms(hi, T, draws):
    """(bases solved, terms twisted by a nontrivial root): every term of
    every solution at field root 3, for (1/5, 2/7, ...) and ``draws``
    seeded parameters, against the character-trivial solution on the
    same support times the root of the character at the term's word
    coordinates."""
    rng = random.Random(16)
    betas = [(F(1, 5), F(2, 7)) * (hi.d // 2)] + [
        tuple(F(rng.randint(-20, 20), rng.choice((5, 7, 11)))
              for _ in range(hi.d)) for _ in range(draws)]
    roots = [Scalar.root_of_unity(3, e) for e in range(3)]
    solved = twisted = 0
    for beta in betas:
        try:
            sols = solution_basis(hi, beta, T=T, field_root=3)
        except BinomHornError:
            continue  # resonant or not very generic
        solved += 1
        plain = {(s.rowset, s.gamma, s.series.support.alpha): s.series
                 for s in solution_basis(hi, beta, T=T)}
        decs = {tuple(i + 1 for i in d.rowset_Jbar): d
                for d in enumerate_decompositions(hi)}
        for sol in sols:
            dec = decs[sol.rowset]
            L = dec.L_basis
            fn = dict(twist_characters(dec, 3))[sol.character]
            base = plain[sol.rowset, sol.gamma, sol.series.support.alpha]
            assert set(sol.series.terms) == set(base.terms)
            for z, got in sol.series.terms.items():
                # the sheet translate of z agrees with it off J
                t = next(t for t in sol.series.support.translates
                         if all(z[j] == t[j] for j in dec.rowset_Jbar))
                k = lattice_coordinates(L.vectors,
                                        [z[j] - t[j] for j in dec.J])
                e = roots.index(fn(k))
                q = base.terms[z].as_rational()
                want = Scalar(3, [c * q for c in roots[e].coeffs])
                assert_reduced(got, 3)
                assert (got.nums, got.den) == (want.nums, want.den)
                assert got == roots[e] * Scalar.rational(q, 3) == want
                twisted += e != 0
    return solved, twisted


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



# -- the offset store shared by the character twists of one support ---------------

def check_verify_against_reference(ops, s):
    """verify_annihilation of s against reference_verify on the terms of
    s as they are now, every interior and boundary residual in order;
    the sheets sit at base + t, as verify reads the translates."""
    got = verify_annihilation(ops, s)
    want = reference_verify(ops, dict(by_exponent(s)), s.truncation,
                            [s.exponent(t) for t in s.support.translates])
    assert len(got.checks) == len(want)
    for check, (interior, boundary) in zip(got.checks, want):
        assert [(s.exponent(z), c) for z, c in check.interior_residual] \
            == interior
        assert [(s.exponent(z), c) for z, c in check.boundary_residual] \
            == boundary
        assert check.ok == (not interior)
    return got


@pytest.mark.parametrize("T", [4, 6])
def test_twists_sharing_a_support_match_reference(T, B_ds, A_ds):
    # every ds06 twist, verified right after the twists before it that
    # share its support and offsets, so all but the first read the store
    hi = make_horn_input(B_ds, A_ds)
    for beta in oracle_betas(3, 50 + T):
        sols = solution_basis(hi, beta, T=T, field_root=3)
        ops = horn_system_operators(hi, beta, field_order=3)
        assert len({id(sol.series.support) for sol in sols}) * 3 == len(sols)
        for sol in sols:
            assert check_verify_against_reference(ops, sol.series).ok


def test_ds06_cubed_twists_match_reference(B_ds, A_ds):
    # the ds06 + ds06 + ds06 basis, where 27 twists share each support:
    # every report equals that of the same terms on a fresh Support and
    # a fresh Truncation, which share nothing, and on a seeded sample of
    # supports the last twist, verified after its 26 siblings, equals
    # the reference (the reference takes about 0.3 s per solution here)
    from test_solutions import block_diagonal
    hi = make_horn_input(block_diagonal(B_ds, B_ds, B_ds),
                         block_diagonal(A_ds, A_ds, A_ds))
    beta = (F(1, 5), F(2, 7), F(3, 5), F(4, 7), F(6, 5), F(9, 7))
    sols = solution_basis(hi, beta, T=2, field_root=3)
    ops = horn_system_operators(hi, beta, field_order=3)
    assert len(sols) == 729
    last = {}
    for sol in sols:
        s = sol.series
        last[id(s.support)] = s
        alone = PuiseuxSeries(s.nvars, field_order=3, base=s.base)._with_terms(
            dict(s.terms), dataclasses.replace(s.truncation),
            dataclasses.replace(s.support))
        assert verify_annihilation(ops, s) == verify_annihilation(ops, alone)
    assert len(last) * 27 == 729
    for s in random.Random(27).sample(list(last.values()), 3):
        assert check_verify_against_reference(ops, s).ok


@pytest.mark.parametrize("case", ["ds06+ds06", "erdelyi"])
def test_lazy_boundary_matches_reference(case, B_ds, A_ds, B_erd, A_erd):
    # verify keeps each boundary residual as integer vectors, counts it
    # without reducing and reduces it when first read: ds06 + ds06 at
    # field root 3 and T = 4, erdelyi at T = 20, three betas each.  Read,
    # every residual equals the reference term for term, on every
    # erdelyi solution and on a seeded sample of nine ds06 + ds06 twists
    # per beta (the reference takes about 60 ms per twist there)
    from test_solutions import block_diagonal
    if case == "erdelyi":
        hi, T, N = make_horn_input(B_erd, A_erd), 20, 1
    else:
        hi, T, N = make_horn_input(block_diagonal(B_ds, B_ds),
                                   block_diagonal(A_ds, A_ds)), 4, 3
    rng = random.Random(61)
    seen = 0
    for draw in zip(*(oracle_betas(3, 60 + i) for i in range(hi.d // 2))):
        beta = sum(draw, ())
        sols = solution_basis(hi, beta, T=T, field_root=N)
        ops = horn_system_operators(hi, beta, field_order=N)
        reports = [verify_annihilation(ops, sol.series) for sol in sols]
        for rep in reports:
            for check in rep.checks:
                assert "boundary_residual" not in vars(check)
                assert check.boundary_terms == len(check.boundary_residual)
                seen += check.boundary_terms
        pick = range(len(sols)) if N == 1 else rng.sample(range(len(sols)), 9)
        for i in pick:
            assert check_verify_against_reference(ops, sols[i].series) \
                == reports[i]
    assert seen > 0


def test_offset_store_sees_every_edit(B_ds, A_ds):
    # after one twist has filled its support's store, a second twist
    # with an edited coefficient, an added key, a removed key, or a new
    # base on the same Support object must each match a fresh reference;
    # a fresh Support on the same truncation with a key added or removed
    # misses the truncation's pairings and matches a fresh reference too
    hi = make_horn_input(B_ds, A_ds)
    beta = (F(1, 5), F(2, 7))
    sols = solution_basis(hi, beta, T=6, field_root=3)
    ops = horn_system_operators(hi, beta, field_order=3)
    support = sols[0].series.support
    first, twin = [sol.series for sol in sols
                   if sol.series.support is support][:2]
    assert first.terms is not twin.terms and set(first.terms) == set(twin.terms)
    assert verify_annihilation(ops, first).ok
    z = min(twin.terms, key=lambda y: min(
        sum(abs(a - b) for a, b in zip(y, t)) for t in support.translates))

    def edited(change, base=None):
        shell = twin if base is None else PuiseuxSeries(
            twin.nvars, field_order=3, base=base)
        s = shell._with_terms(dict(twin.terms), twin.truncation, support)
        change(s.terms)
        return check_verify_against_reference(ops, s)

    def times_seven(terms):
        terms[z] = terms[z] * 7

    assert not edited(times_seven).ok
    far = tuple(x + 50 for x in z)
    assert far not in twin.terms
    assert not edited(lambda terms: terms.update({far: Scalar.one(3)})).ok
    assert not edited(lambda terms: terms.pop(z)).ok
    moved = twin.base[:1] + (twin.base[1] + F(1, 2),) + twin.base[2:]
    assert not edited(lambda terms: None, base=moved).ok
    assert check_verify_against_reference(ops, twin).ok
    stores = twin.truncation._offset_work
    assert tuple(twin.terms) in stores
    farther = tuple(x + 70 for x in z)
    other = max(y for y in twin.terms if y != z)
    for change in (lambda terms: terms.update({farther: Scalar.one(3)}),
                   lambda terms: terms.pop(other)):
        s = twin._with_terms(dict(twin.terms), twin.truncation,
                             dataclasses.replace(support))
        change(s.terms)
        before = len(stores)
        assert tuple(s.terms) not in stores
        check_verify_against_reference(ops, s)
        assert len(stores) == before + 1 and tuple(s.terms) in stores

# -- input checks ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [{"T": -1}, {"field_root": 0},
                                    {"field_root": -2}])
def test_solution_basis_rejects_bad_bounds(B_erd, A_erd, kwargs):
    hi = make_horn_input(B_erd, A_erd)
    with pytest.raises(ValueError):
        solution_basis(hi, (F(1, 2), F(1, 3)), **kwargs)
