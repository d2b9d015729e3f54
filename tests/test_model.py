import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from operator import mul

import pytest

from binomhorn import (
    ConventionError,
    IntMatrix,
    compute_A,
    is_pointed,
    kernel_basis,
    make_horn_input,
    validate_B,
)
from binomhorn import model
from binomhorn.cli import main
from binomhorn.exact_linalg import (LatticeBasis, bareiss_det, coordinate_map,
                                    int_rank, row_hnf)
from linalg_reference import (fm_feasible, frac_rank, frac_solve,
                              invariant_factors, is_pointed_by_fraction_ratios,
                              lattice_index)


def test_validate_accepts_fixtures(B_erd, B_gauss, B_ds, B_nh, B_him):
    for B in (B_erd, B_gauss, B_ds, B_nh, B_him):
        assert validate_B(B).ok


def test_validate_rejects_unmixed_column():
    vr = validate_B(IntMatrix([[1], [0], [0]]))
    assert not vr.ok
    assert vr.certificate == (1, 0, 0)


def test_validate_rejects_rank_deficient():
    vr = validate_B(IntMatrix([[1, 2], [-1, -2], [1, 2]]))
    assert not vr.ok
    assert "rank" in vr.reason


def test_validate_rejects_hidden_unmixed_combination():
    # each column is mixed but their sum is (1, 0, 1) >= 0
    B = IntMatrix([[2, -1], [-1, 1], [1, 0]])
    vr = validate_B(B)
    assert not vr.ok
    v = vr.certificate
    assert any(x > 0 for x in v) and not any(x < 0 for x in v)
    assert frac_solve([list(r) for r in B.data], list(v)) is not None


def test_validate_rejects_square_full_rank():
    # m = n: the rational column span is everything, never mixed
    vr = validate_B(IntMatrix([[1, 0], [0, 1]]))
    assert not vr.ok


def seeded_valid_B():
    """40 seeded random B that validate, half of them kernels of an A."""
    rng = random.Random(808)
    randoms = []
    while len(randoms) < 40:
        B = random_B(rng, ("kernel", "random")[len(randoms) % 2])
        if validate_B(B).ok:
            randoms.append(B)
    return randoms


def test_compute_a_defining_property(B_erd, B_nh, B_ds, B_gauss):
    # the fixtures and seeded random valid B
    for B in (B_erd, B_nh, B_ds, B_gauss, *seeded_valid_B()):
        A = compute_A(B)
        # make_horn_input records the spanning without computing it; the
        # same A supplied explicitly has its index computed
        for hi in (make_horn_input(B), make_horn_input(B, A)):
            assert hi.a_column_index == 1 and hi.a_spans_standard_lattice
        assert A.mul(B).is_zero()
        assert int_rank(A) == B.nrows - B.ncols
        # columns span the full standard lattice
        assert invariant_factors(A) == (1,) * A.nrows
        # and the kernel of A contains every column of B
        ker = kernel_basis(A)
        for k in range(B.ncols):
            assert coordinate_map(ker.vectors, ker.ambient_dim)(
                B.column(k)) is not None


def test_compute_a_b_nh_is_row_equivalent_to_published(B_nh, A_nh):
    A = compute_A(B_nh)
    mine = LatticeBasis(4, [tuple(r) for r in A.data])
    published = LatticeBasis(4, [tuple(r) for r in A_nh.data])
    assert mine == published  # same row lattice, hence unimodularly equivalent


def test_compute_a_b_erd_vs_published(B_erd, A_erd):
    # the published matrix spans an index-3 sublattice of the left kernel,
    # so it is rationally but not unimodularly row-equivalent to compute_A
    A = compute_A(B_erd)
    mine = LatticeBasis(4, [tuple(r) for r in A.data])
    for r in A_erd.data:
        assert coordinate_map(mine.vectors, mine.ambient_dim)(
            tuple(r)) is not None
    published = LatticeBasis(4, [tuple(r) for r in A_erd.data])
    assert None in map(coordinate_map(published.vectors,
                                      published.ambient_dim), mine.vectors)
    assert int_rank(A_erd) == int_rank(A) == 2


def test_compute_a_deterministic(B_erd):
    assert compute_A(B_erd) == compute_A(B_erd)
    assert repr(compute_A(B_erd)) == repr(compute_A(B_erd))


def test_is_pointed_a_erd(A_erd):
    pr = is_pointed(A_erd)
    assert pr.pointed
    h = pr.functional
    for j in range(4):
        assert sum(h[i] * A_erd.data[i][j] for i in range(2)) > 0
    # h = (1,1) works and gives the value 3 on every column
    assert all(sum(A_erd.data[i][j] for i in range(2)) == 3 for j in range(4))


def test_is_pointed_opposite_vectors():
    pr = is_pointed(IntMatrix([[1, -1], [0, 0]]))
    assert not pr.pointed
    lam = pr.combination
    assert any(x > 0 for x in lam) and all(x >= 0 for x in lam)
    # the combination really sums to zero
    assert lam[0] * 1 + lam[1] * (-1) == 0


def test_is_pointed_a_him(A_him):
    assert is_pointed(A_him).pointed


def test_mixedness_pointedness_equivalence():
    # random pointed A: its kernel B always validates
    rng = random.Random(5)
    produced = 0
    while produced < 20:
        d = rng.randint(1, 2)
        n = rng.randint(d + 1, d + 3)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(n)]
                       for _ in range(d)])
        if int_rank(A) != d or not is_pointed(A).pointed:
            continue
        B = IntMatrix.from_columns(kernel_basis(A).vectors, nrows=n)
        if B.ncols != n - d:
            continue
        assert validate_B(B).ok
        produced += 1


def test_make_horn_input_accepts_published_pairs(B_erd, A_erd, B_ds, A_ds,
                                                 B_nh, A_nh, B_him, A_him):
    for B, A in ((B_erd, A_erd), (B_ds, A_ds), (B_nh, A_nh), (B_him, A_him)):
        hi = make_horn_input(B, A)
        assert hi.d == B.nrows - B.ncols
        assert hi.A == A
    # the published Erdelyi A spans an index 3 column lattice
    assert make_horn_input(B_erd, A_erd).a_column_index == 3
    assert not make_horn_input(B_erd, A_erd).a_spans_standard_lattice
    assert make_horn_input(B_ds, A_ds).a_column_index == 1


def test_supplied_a_index_matches_the_smith_reference():
    # A = T A_c for the canonical A_c and a random nonsingular T: its
    # column index in Z^d is |det T|, and the product of the invariant
    # factors of A, read here from its row Hermite form
    rng = random.Random(1502)
    indices = Counter()
    for B in seeded_valid_B():
        A_c = compute_A(B)
        d = A_c.nrows
        for _ in range(5):
            while True:
                T = IntMatrix([[rng.randint(-3, 3) for _ in range(d)]
                               for _ in range(d)])
                if bareiss_det(T):
                    break
            A = T.mul(A_c)
            hi = make_horn_input(B, A)
            assert hi.a_column_index == abs(bareiss_det(T)), (B, T)
            assert hi.a_column_index == prod(invariant_factors(row_hnf(A)))
            assert hi.a_spans_standard_lattice == (hi.a_column_index == 1)
            indices[hi.a_column_index > 1] += 1
    assert sum(indices.values()) == 200 and indices[True] >= 100, indices


def test_make_horn_input_rejects_bad_a(B_erd):
    with pytest.raises(ConventionError):
        make_horn_input(B_erd, IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0]]))
    with pytest.raises(ConventionError):
        make_horn_input(B_erd, IntMatrix([[3, 2, 1, 0]]))


def test_make_horn_input_rejects_bad_b():
    with pytest.raises(ConventionError):
        make_horn_input(IntMatrix([[1], [0]]))


def test_validate_square_certificate_is_e1(M3):
    # d = 0: the column span is all of Q^n
    assert validate_B(M3).certificate == (1, 0, 0)
    assert validate_B(IntMatrix([[1, 0], [0, 1]])).certificate == (1, 0)
    with pytest.raises(ConventionError) as exc:
        make_horn_input(M3)
    assert exc.value.certificate == (1, 0, 0)


# -- pointedness against Fourier-Motzkin elimination --------------------------

def dot(h, col):
    return sum(map(mul, h, col))


def check_pointed_report(A, pr):
    """Every certificate exactly: a pointed A has h . a_j >= 1 on every
    column, tight on columns spanning the column space (h is a vertex of
    the dual); otherwise mu is a primitive nonnegative integer vector,
    not zero, with A mu = 0."""
    cols = A.columns()
    if pr.pointed:
        assert pr.combination is None and len(pr.functional) == A.nrows
        values = [dot(pr.functional, c) for c in cols]
        assert all(v >= 1 for v in values)
        tight = [c for c, v in zip(cols, values) if v == 1]
        assert frac_rank(tight) == frac_rank(cols)
    else:
        mu = pr.combination
        assert pr.functional is None and len(mu) == A.ncols
        assert all(isinstance(x, int) and x >= 0 for x in mu) and any(mu)
        assert gcd(*mu) == 1
        assert not any(A.mul_vec(mu))


def fm_pointed(A):
    """The Fourier-Motzkin verdict: some h has h . a_j >= 1 on every column."""
    return fm_feasible([list(c) for c in A.columns()], [1] * A.ncols)[0]


POINTED_KINDS = ("random", "positive-row", "rank-deficient", "zero-column",
                 "duplicate-column", "opposite-column")


def random_A(rng, kind):
    """A d x n matrix, d <= 4 and n <= 8, with entries in [-3, 3]."""
    d = rng.randint(2 if kind == "rank-deficient" else 1, 4)
    n = rng.randint(2, 8) if kind.endswith("-column") else rng.randint(1, 8)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
    if kind == "positive-row" or (kind != "random" and rng.random() < 0.5):
        rows[0] = [rng.randint(1, 3) for _ in range(n)]  # pointed, so far
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    if kind == "rank-deficient":
        f, g = rng.choice((-2, -1, 1, 2)), rng.randint(-1, 1)
        other = rows[1] if d > 2 else [0] * n
        rows[-1] = [f * x + g * y for x, y in zip(rows[0], other)]
    for row in rows:
        if kind == "zero-column":
            row[j] = 0
        elif kind == "duplicate-column":
            row[j] = row[i]
        elif kind == "opposite-column":
            row[j] = -row[i]
    return IntMatrix(rows)


def test_is_pointed_matches_fourier_motzkin():
    rng = random.Random(1977)
    seen = Counter()
    for t in range(2100):
        kind = POINTED_KINDS[t % len(POINTED_KINDS)]
        A = random_A(rng, kind)
        pr = is_pointed(A)
        assert pr.pointed == fm_pointed(A), A.tolist()
        check_pointed_report(A, pr)
        seen[kind, pr.pointed, int_rank(A) < A.nrows] += 1
    verdicts = Counter()
    for (kind, pointed, _), v in seen.items():
        verdicts[kind, pointed] += v
    # both verdicts where both can occur, and only the possible one elsewhere
    for kind in ("random", "duplicate-column"):
        assert verdicts[kind, True] >= 20 and verdicts[kind, False] >= 20
    assert verdicts["positive-row", False] == 0
    assert verdicts["zero-column", True] == verdicts["opposite-column", True] == 0
    assert seen["rank-deficient", True, True] >= 20
    assert seen["rank-deficient", False, True] >= 20
    assert sum(verdicts[k, True] for k in POINTED_KINDS) >= 500


def test_is_pointed_matches_fourier_motzkin_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        d, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        A = IntMatrix(data.draw(st.lists(row, min_size=d, max_size=d)))
        pr = is_pointed(A)
        assert pr.pointed == fm_pointed(A)
        check_pointed_report(A, pr)

    prop()


def test_is_pointed_matches_the_fraction_ratio_test():
    # the cross-multiplied ratio test against the Fraction-keyed copy in
    # linalg_reference: the same verdict, functional and combination on
    # seeded draws of every kind, with and without ties in the least
    # ratio, where Bland's rule picks the least basic index
    rng = random.Random(2027)
    ties, seen = [], Counter()
    for t in range(1200):
        A = random_A(rng, POINTED_KINDS[t % len(POINTED_KINDS)])
        before = len(ties)
        want = is_pointed_by_fraction_ratios(A, ties)
        assert is_pointed(A) == want, A.tolist()
        seen[want.pointed, len(ties) > before] += 1
    assert min(seen[v, tie] for v in (True, False)
               for tie in (True, False)) >= 20, seen


def test_is_pointed_degenerate_shapes():
    # no columns: pointed by the zero functional; no rows: every column is
    # the zero vector
    assert is_pointed(IntMatrix.zero(2, 0)).functional == (0, 0)
    pr = is_pointed(IntMatrix.zero(0, 3))
    assert not pr.pointed and pr.combination == (1, 0, 0)
    # a zero row leaves its artificial in the basis
    A = IntMatrix([[1, 2, 1], [0, 0, 0]])
    check_pointed_report(A, is_pointed(A))


# -- the per-row Fourier-Motzkin validation, kept as a reference -------------

def reference_validate_B(B):
    """(verdict, reason kind): the rank check, then one Fourier-Motzkin
    problem per row i asking for c with B c >= 0 and (B c)_i >= 1."""
    n, m = B.nrows, B.ncols
    if m == 0:
        return True, None
    if int_rank(B) != m:
        return False, "rank"
    rows = [list(B.row(i)) for i in range(n)]
    for i in range(n):
        feasible, witness = fm_feasible(rows + [rows[i]], [0] * n + [1])
        if feasible:
            v = [sum(B.data[r][j] * witness[j] for j in range(m))
                 for r in range(n)]
            assert all(x >= 0 for x in v) and v[i] >= 1
            return False, "unmixed"
    return True, None


def random_B(rng, kind):
    """One random B of the given kind; the verdict is left to the oracles."""
    n = rng.randint(2, 6)
    if kind == "square":
        m = n = rng.randint(1, 4)
    elif kind == "one-column":
        m = 1
    else:
        m = rng.randint(1, n - 1)
    if kind == "kernel":
        # the kernel of a random A: mixed exactly when A is pointed
        d = n - m
        while True:
            A = IntMatrix([[rng.randint(-3, 4) for _ in range(n)]
                           for _ in range(d)])
            if int_rank(A) == d:
                break
        cols = [[rng.randint(1, 2) * x for x in v]
                for v in kernel_basis(A).vectors]
        return IntMatrix.from_columns(cols, nrows=n)
    cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if kind == "rank-deficient" and m > 1:
        f = rng.choice((-2, -1, 1, 2))
        cols[-1] = [f * x for x in cols[0]]
    elif kind == "unmixed":
        # a nonnegative vector inside the span, hidden by a mixed column
        w = [rng.randint(0, 2) for _ in range(n)]
        w[rng.randrange(n)] = 1
        cols[0] = [x + y for x, y in zip(w, cols[-1])] if m > 1 else w
    return IntMatrix.from_columns(cols, nrows=n)


def check_certificate(B, v):
    assert len(v) == B.nrows
    assert all(isinstance(x, int) and x >= 0 for x in v)
    assert any(v)
    g = 0
    for x in v:
        g = gcd(g, x)
    assert g == 1
    assert frac_solve([list(r) for r in B.data], list(v)) is not None


def assert_positive(h, A):
    assert all(sum(h[i] * A.data[i][j] for i in range(A.nrows)) > 0
               for j in range(A.ncols))


KINDS = ("random", "kernel", "rank-deficient", "unmixed", "square",
         "one-column")


def test_validate_matches_per_row_reference_on_random_B():
    rng = random.Random(2024)
    seen = set()
    for t in range(240):
        kind = KINDS[t % len(KINDS)]
        B = random_B(rng, kind)
        want, why = reference_validate_B(B)
        vr = validate_B(B)
        assert vr.ok == want, B.tolist()
        seen.add((kind, want, why))
        if vr.ok:
            assert vr.certificate is None
            A = vr.A
            assert A == compute_A(B)
            assert A.mul(B).is_zero()
            assert int_rank(A) == B.nrows - B.ncols
            assert_positive(vr.functional, A)
            # any other A with A B = 0 and full rank is pointed as well
            A2 = other_A(A, rng)
            assert_positive(make_horn_input(B, A2).pointed_functional, A2)
        elif why == "rank":
            assert "rank" in vr.reason and vr.certificate is None
        else:
            check_certificate(B, vr.certificate)
            assert str(list(vr.certificate)) in vr.reason
    # every kind of input and every verdict is exercised
    assert {(k, ok) for k, ok, _ in seen} >= {
        ("random", True), ("random", False), ("kernel", True),
        ("kernel", False), ("unmixed", False), ("square", False),
        ("one-column", True), ("one-column", False)}
    assert ("rank-deficient", False, "rank") in seen


@pytest.fixture
def count_lp(monkeypatch):
    """The shapes of the matrices given to the pointedness program."""
    calls = []
    inner = model.is_pointed

    def counting(A):
        calls.append(A.shape)
        return inner(A)

    monkeypatch.setattr(model, "is_pointed", counting)
    return calls


def test_make_horn_input_runs_one_feasibility_problem(count_lp, B_erd, A_erd,
                                                      B_him, A_him):
    for B in (B_erd, B_him):
        count_lp.clear()
        hi = make_horn_input(B)
        assert len(count_lp) == 1
        assert hi.A == compute_A(B)
    # a supplied A reads its functional off the canonical one
    for B, A in ((B_erd, A_erd), (B_him, A_him)):
        count_lp.clear()
        make_horn_input(B, A)
        assert count_lp == [A.shape]


def other_A(A, rng):
    """A with its rows scaled by 1 to 3 and sheared by the first row: the
    same rational row space, another lattice."""
    d = A.nrows
    rows = [[x * f for x in r]
            for r, f in zip(A.data, rng.choices((1, 2, 3), k=d))]
    for i in range(1, d):
        f = rng.randint(-2, 2)
        rows[i] = [x + f * y for x, y in zip(rows[i], rows[0])]
    return IntMatrix(rows)


def test_supplied_a_functional_has_the_canonical_values(
        B_erd, A_erd, B_ds, A_ds, B_nh, A_nh, B_him, A_him):
    # h_s . a^s_j = h_c . a^c_j on every column j
    rng = random.Random(12)
    pairs = [(B_erd, A_erd), (B_ds, A_ds), (B_nh, A_nh), (B_him, A_him)]
    for B in seeded_valid_B():
        A = compute_A(B)
        pairs += [(B, A), (B, other_A(A, rng))]
    for B, A in pairs:
        vr = validate_B(B)
        h = make_horn_input(B, A).pointed_functional
        assert all(isinstance(x, Fraction) for x in h)
        for j in range(B.nrows):
            assert dot(h, A.column(j)) == dot(vr.functional, vr.A.column(j))


def reference_supplied_A(B, A):
    """(functional, a_column_index) of a supplied A by the route that
    ``make_horn_input`` took before it read both off the coordinates of
    A's rows in the canonical A: A B = 0 and rank(A) = d checked on A
    itself, h from the n equations h A = h_c A_c, and the index as a
    determinant ratio on the Hermite pivots of the canonical A.  Raises
    ConventionError with the library's texts, in the library's order."""
    vr = validate_B(B)
    n, m = B.shape
    d = n - m
    if A.shape != (d, n):
        raise ConventionError(f"A has shape {A.shape}, expected {(d, n)}")
    if not A.mul(B).is_zero():
        raise ConventionError("A B != 0")
    if frac_rank(A.data) != d:
        raise ConventionError(f"rank(A) != {d}")
    values = [dot(vr.functional, col) for col in vr.A.columns()]
    return (frac_solve(A.columns(), values),
            lattice_index(LatticeBasis._of_hermite(n, vr.A.data), A.data))


def outcome(call):
    try:
        hi = call()
    except ConventionError as exc:
        return "error", str(exc)
    if isinstance(hi, tuple):
        return "ok", hi
    return "ok", (hi.pointed_functional, hi.a_column_index)


def test_supplied_a_matches_the_route_it_replaced(
        B_erd, A_erd, B_ds, A_ds, B_nh, A_nh, B_him, A_him):
    # on the fixtures and seeded valid B, each with its canonical A times
    # a unimodular U and a U with |det U| > 1, and with three corrupted
    # copies: a row off the left kernel, a dependent row, a wrong shape
    rng = random.Random(2030)
    cases = [(B_erd, A_erd), (B_ds, A_ds), (B_nh, A_nh), (B_him, A_him)]
    for B in seeded_valid_B():
        A = compute_A(B)
        d, n = A.shape
        while True:
            U = IntMatrix([[rng.randint(-2, 2) for _ in range(d)]
                           for _ in range(d)])
            if abs(bareiss_det(U)) > 1:
                break
        shear = IntMatrix([[int(i == j) + (j == i + 1) * rng.randint(-3, 3)
                            for j in range(d)] for i in range(d)])
        rows = [list(r) for r in A.data]
        off = [r[:] for r in rows]
        off[-1][rng.choice([j for j in range(n) if any(B.data[j])])] += 1
        dependent = [r[:] for r in rows]
        dependent[-1] = [2 * x for x in rows[0]] if d > 1 else [0] * n
        cases += [(B, A), (B, U.mul(A)), (B, shear.mul(A)),
                  (B, other_A(A, rng)), (B, IntMatrix(off)),
                  (B, IntMatrix(dependent)),
                  (B, IntMatrix([r[:-1] for r in rows]))]
    seen = Counter()
    for B, A in cases:
        got = outcome(lambda: make_horn_input(B, A))
        assert got == outcome(lambda: reference_supplied_A(B, A)), \
            (B.tolist(), A.tolist())
        if got[0] == "ok":
            seen["index > 1" if got[1][1] > 1 else "index 1"] += 1
        else:
            seen["shape" if "shape" in got[1] else got[1].split(" !=")[0]] += 1
    assert min(seen.values()) >= 40, seen
    assert set(seen) == {"index 1", "index > 1", "A B", "rank(A)", "shape"}


def random_pointed_rows(rng, d, n, first, rest):
    """Rows of a rank-d pointed A: the first row positive."""
    while True:
        rows = [[rng.randint(*first) for _ in range(n)]]
        rows += [[rng.randint(*rest) for _ in range(n)] for _ in range(d - 1)]
        if int_rank(IntMatrix(rows)) == d:
            return IntMatrix(rows)


def test_validation_past_the_fm_wall():
    # inputs on which Fourier-Motzkin ran from seconds to minutes; each must
    # be accepted with a functional positive on every column
    for n, m in ((16, 8), (20, 10), (24, 12)):
        for seed in range(3):
            A = random_pointed_rows(random.Random(f"{n}x{m}/{seed}"),
                                    n - m, n, (1, 2), (-1, 1))
            B = IntMatrix.from_columns(kernel_basis(A).vectors, nrows=n)
            vr = validate_B(B)
            assert vr.ok, (n, m, seed)
            assert_positive(vr.functional, vr.A)
    for d, n in ((4, 16), (5, 12)):
        for seed in range(3):
            A = random_pointed_rows(random.Random(f"A{d}x{n}/{seed}"),
                                    d, n, (1, 3), (-3, 3))
            assert_positive(is_pointed(A).functional, A)
            B = IntMatrix.from_columns(kernel_basis(A).vectors, nrows=n)
            assert_positive(make_horn_input(B, A).pointed_functional, A)


def write_matrices(tmp_path, **mats):
    out = {}
    for name, rows in mats.items():
        p = tmp_path / f"{name}.mat"
        p.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        out[name] = str(p)
    return out


def test_cli_validate_runs_one_feasibility_problem(count_lp, tmp_path, capsys):
    paths = write_matrices(tmp_path, erd=[[1, 0], [-2, 1], [1, -2], [0, 1]])
    assert main(["validate", "--B", paths["erd"]]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(count_lp) == 1


@pytest.mark.parametrize("B, A", [
    ([[1], [0], [0]], [[0, 1, 0], [0, 0, 1]]),
    ([[2, -1], [-1, 1], [1, 0]], [[2, 2, -2]]),
    ([[1, -1], [-1, 1], [1, 1], [0, 0]], [[1, 1, 0, 1], [0, 0, 0, 2]]),
])
def test_cli_validate_rejection_ignores_supplied_A(tmp_path, capsys, B, A):
    paths = write_matrices(tmp_path, B=B, A=A)
    assert IntMatrix(A).mul(IntMatrix(B)).is_zero()
    assert main(["validate", "--B", paths["B"]]) == 2
    alone = capsys.readouterr().out
    assert main(["validate", "--B", paths["B"], "--A", paths["A"]]) == 2
    assert capsys.readouterr().out == alone
    rep = json.loads(alone)
    assert rep["ok"] is False
    check_certificate(IntMatrix(B), tuple(rep["certificate"]))


@pytest.mark.parametrize("rows", [
    [[1, 2], [-1, -2], [1, 2]],             # dependent columns
    [[1, 0], [-1, 0], [0, 0]],              # a zero column
    [[1, -1, 0], [-1, 0, 1], [0, 1, -1]],   # square, columns summing to 0
    [[1, -1, 2], [-1, 1, -2]],              # more columns than rows
    [[0, 0]],                               # one zero row
])
def test_rank_deficient_B_is_rejected_with_its_reason_and_exit_2(
        tmp_path, capsys, rows):
    # the rank is read off the left kernel: rank(B) < m exactly when it
    # has more than n - m vectors; the reason, the missing certificate
    # and the exit code are those of the rank check it replaced
    B = IntMatrix(rows)
    reason = f"rank(B) < {B.ncols}"
    assert int_rank(B) < B.ncols
    vr = validate_B(B)
    assert (vr.ok, vr.reason, vr.certificate, vr.A) == (False, reason,
                                                         None, None)
    with pytest.raises(ConventionError, match=re.escape(reason)):
        make_horn_input(B)
    paths = write_matrices(tmp_path, B=rows)
    assert main(["validate", "--B", paths["B"]]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["ok"], rep["reason"], rep["certificate"]) == (False, reason,
                                                              None)
