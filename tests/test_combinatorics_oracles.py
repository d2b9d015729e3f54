"""Oracles for the fast paths of the combinatorics layer.

``enumerate_decompositions`` is compared with the plain loop over all 2^n
row masks that computes every field eagerly, and its row-set walk with
the same loop on masks alone and each of its full_rank flags with an
echelon rank of the set's rows; each certificate of an infinite rank is
checked exactly; each class is checked against the rank
criterion rank(A_J) = |J| - rank(B_J), ``andean_report`` with the
saturation of an independent column subset of A_J picked by growing rank,
and ``bounded_atlas`` with the level-by-level search that explores every
unclassified point of every level, all kept here as references; each
certificate of infinite mu is checked exactly, and the reference walk
must not close on its block.  The
decompose reports on every fixture are compared byte for byte with
goldens recorded from the eager enumeration.  The consequences of the
toral class (a square invertible block, a full-rank A_J and the full
kernel as lattice) are checked here too, on the fixtures and on the same
chains and random inputs.
"""

import contextlib
import io
import json
import random
from collections import Counter, deque
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from binomhorn import (
    BinomHornError,
    CapExceededError,
    InfiniteRankError,
    IntMatrix,
    Scalar,
    andean_report,
    bounded_atlas,
    enumerate_decompositions,
    generic_rank,
    int_rank,
    make_horn_input,
    solution_basis,
)
from binomhorn.cli import main, read_matrix
from binomhorn.decomp import _admissible_rowsets
from binomhorn.exact_linalg import (
    LatticeBasis,
    bareiss_det,
    column_hnf,
    coordinate_map,
    kernel_basis,
    left_kernel_basis,
    saturated_span,
)
from binomhorn.geometry import own_lattice_coordinates
from binomhorn.solutions import _character_weights, _twists
from binomhorn.subgraph import Component, _dominates, _steps
from linalg_reference import lattice_index, smith_index, smith_saturated_span
from test_model import other_A, random_pointed_rows

ROOT = Path(__file__).resolve().parent.parent


# -- references ----------------------------------------------------------------------

def reference_decompositions(hi):
    """Every row mask in turn, with the lattice data computed eagerly, as
    dicts of all fields sorted by (|Jbar|, Jbar)."""
    B, A = hi.B, hi.A
    n, m, d = hi.n, hi.m, hi.d
    out = []
    for mask in range(1 << n):
        jbar = tuple(i for i in range(n) if mask >> i & 1)
        q = len(jbar)
        if q == 1:
            continue
        colset = tuple(k for k in range(m)
                       if any(B.data[i][k] != 0 for i in jbar))
        p = len(colset)
        if q > p:
            continue
        M = B.submatrix(jbar, colset)
        if not all(any(x > 0 for x in M.column(j))
                   and any(x < 0 for x in M.column(j)) for j in range(p)):
            continue
        J = tuple(i for i in range(n) if i not in jbar)
        other_cols = tuple(k for k in range(m) if k not in colset)
        B_J = B.submatrix(J, other_cols)
        A_J = A.submatrix(range(d), J)
        rank_AJ = int_rank(A_J)
        klass = ("toral" if rank_AJ == len(J) - int_rank(B_J) else "andean")
        L = smith_saturated_span(B_J)
        if klass == "toral":
            assert q == p and (q == 0 or bareiss_det(M) != 0)
            assert L == kernel_basis(A_J)
        out.append({
            "rowset_Jbar": jbar, "colset_M": colset, "J": J, "M": M,
            "N": B.submatrix(J, colset), "B_J": B_J, "A_J": A_J,
            "A_Jbar": A.submatrix(range(d), jbar), "q": q, "p": p,
            "klass": klass, "L_basis": L,
            "g": smith_index(B_J)})
    out.sort(key=lambda dec: (len(dec["rowset_Jbar"]), dec["rowset_Jbar"]))
    return out


def reference_rowsets(B):
    """Every row mask in turn, kept with the mask of the columns its rows
    meet when every one of those columns is mixed and q != 1, q <= p."""
    n, m = B.nrows, B.ncols
    pos = [sum(1 << k for k in range(m) if B.data[i][k] > 0) for i in range(n)]
    neg = [sum(1 << k for k in range(m) if B.data[i][k] < 0) for i in range(n)]
    out = set()
    for mask in range(1 << n):
        rows = [i for i in range(n) if mask >> i & 1]
        pcols = ncols = 0
        for i in rows:
            pcols |= pos[i]
            ncols |= neg[i]
        if pcols == ncols and len(rows) != 1 and len(rows) <= pcols.bit_count():
            out.add((mask, pcols))
    return out


def reference_saturation(l):
    """sat(L) as the integer kernel of the left kernel of a basis of L."""
    if not l.vectors:
        return l
    t = left_kernel_basis(IntMatrix.from_columns(l.vectors,
                                                 nrows=l.ambient_dim))
    if not t.vectors:
        return LatticeBasis(l.ambient_dim,
                            IntMatrix.identity(l.ambient_dim).columns())
    return kernel_basis(IntMatrix([list(v) for v in t.vectors]))


def reference_andean_report(decomps, d):
    """(directions, verdict): each Andean A_J cut down to an independent
    subset of its columns, picked by growing rank, then saturated."""
    dirs = {}
    for dec in decomps:
        if dec.is_toral:
            continue
        cols = []
        for col in dec.A_J.columns():
            if int_rank(IntMatrix.from_columns(cols + [col], nrows=d)) > len(cols):
                cols.append(col)
        span = reference_saturation(LatticeBasis(d, cols))
        dirs[span.vectors] = span
    directions = tuple(dirs[k] for k in sorted(dirs))
    return directions, all(len(b.vectors) < d for b in directions)


def points_of_degree(q, t):
    """All points of N^q with coordinate sum exactly t, lexicographic;
    built by a loop, since a recursive closure leaves a reference cycle."""
    if q == 0:
        return [()] if t == 0 else []
    layer = [((), t)]
    for _ in range(q - 1):
        layer = [(p + (v,), r - v) for p, r in layer for v in range(r + 1)]
    return [p + (r,) for p, r in layer]


def reference_explore(M, gamma, known_unbounded):
    """Breadth-first component search, steps recomputed on every call."""
    steps = _steps(M)
    seen = {gamma}
    order = [gamma]
    queue = deque([gamma])
    while queue:
        u = queue.popleft()
        for s in steps:
            v = tuple(a + b for a, b in zip(u, s))
            if any(x < 0 for x in v) or v in seen:
                continue
            if v in known_unbounded or any(
                    _dominates(v, w) or _dominates(w, v) for w in order):
                return Component(bounded=False,
                                 points=tuple(sorted(seen | {v})))
            seen.add(v)
            order.append(v)
            queue.append(v)
    return Component(bounded=True, points=tuple(sorted(seen)))


def reference_atlas(M, cap):
    """(mu, representatives, component points, unbounded minimal
    generators, closure level, classification up to that level), found
    by exploring every unclassified point level by level."""
    q = M.nrows
    classification = {}
    unbounded = set()
    bounded = []
    level = 0
    while True:
        if level > cap:
            raise CapExceededError("reference cap")
        all_unbounded = True
        for p in points_of_degree(q, level):
            if p not in classification:
                comp = reference_explore(M, p, unbounded)
                for w in comp.points:
                    classification[w] = comp.bounded
                    if not comp.bounded:
                        unbounded.add(w)
                if comp.bounded:
                    bounded.append(comp)
            if classification[p]:
                all_unbounded = False
        if level > 0 and all_unbounded:
            break
        level += 1
    low = {p: b for p, b in classification.items() if sum(p) <= level}
    gens = tuple(
        p for p in sorted(low) if not low[p]
        and not any(p[i] and low.get(p[:i] + (p[i] - 1,) + p[i + 1:]) is False
                    for i in range(q)))
    bounded.sort(key=lambda c: (sum(c.points[0]), c.points[0]))
    return (len(bounded), tuple(min(c.points) for c in bounded),
            tuple(c.points for c in bounded), gens, level, low)


def atlas_outcome(M, cap):
    """The fields of ``reference_atlas``, with ``is_bounded`` asked on
    every point up to the closure level for the classification."""
    try:
        atlas = bounded_atlas(M, cap=cap)
    except CapExceededError:
        return "cap exceeded"
    low = {p: atlas.is_bounded(p) for t in range(atlas.closure_level + 1)
           for p in points_of_degree(M.nrows, t)}
    return (atlas.mu, atlas.representatives,
            tuple(c.points for c in atlas.bounded_components),
            atlas.unbounded_min_gens, atlas.closure_level, low)


def reference_atlas_outcome(M, cap):
    try:
        return reference_atlas(M, cap)
    except CapExceededError:
        return "cap exceeded"


# -- inputs --------------------------------------------------------------------------

def chain_rows(n, rng):
    """The chain B (column k is e_2k - e_2k+1 + e_2k+2 - e_2k+3, indices
    mod n) under a joint row/column permutation and column negations."""
    cols = []
    for k in range(n // 2):
        col = [0] * n
        for off, sign in ((0, 1), (1, -1), (2, 1), (3, -1)):
            col[(2 * k + off) % n] += sign
        cols.append(col)
    m = len(cols)
    rows_perm = rng.sample(range(n), n)
    cols_perm = rng.sample(range(m), m)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    return [[signs[j] * cols[cols_perm[j]][rows_perm[i]] for j in range(m)]
            for i in range(n)]


def random_inputs(rng, count):
    """Valid HornInputs with a zero row and a duplicated row in B."""
    out = []
    while len(out) < count:
        m = rng.choice((2, 3))
        rows = [[rng.randint(-2, 2) for _ in range(m)]
                for _ in range(rng.randint(m + 1, 5))]
        rows.insert(rng.randrange(len(rows) + 1), [0] * m)
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        try:
            out.append(make_horn_input(IntMatrix(rows)))
        except BinomHornError:
            continue
    return out


WALK_KINDS = ("random", "zero-row", "zero-column", "duplicate-row",
              "opposite-row", "sparse")


def random_walk_B(rng, kind):
    """An n x m matrix, m <= n <= 12, with entries in [-2, 2]; a sparse
    one has 1 to 3 nonzero entries per row, where the walk's bound on
    the columns a completion can add rules out most states."""
    n = rng.randint(0, 12) if kind == "random" else rng.randint(2, 12)
    m = rng.randint(1 if kind in ("zero-column", "sparse") else 0, n)
    if kind == "sparse":
        rows = [[0] * m for _ in range(n)]
        for row in rows:
            for k in rng.sample(range(m), rng.randint(1, min(3, m))):
                row[k] = rng.choice((-2, -1, 1, 2))
        return IntMatrix(rows)
    rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    if kind == "zero-column":
        k = rng.randrange(m)
        for row in rows:
            row[k] = 0
    elif kind == "zero-row":
        rows[i] = [0] * m
    elif kind == "duplicate-row":
        rows[j] = list(rows[i])
    elif kind == "opposite-row":
        rows[j] = [-x for x in rows[i]]
    return IntMatrix(rows) if n else IntMatrix.zero(0, m)


def row_rank(B):
    """The rank of the rows of B in a row mask, which is rank M for the
    mask of a decomposition, as a memoized function of the mask: the
    echelon rows of a mask are those of the mask without its highest
    row, plus that row reduced against them when anything is left."""
    memo = {0: ()}

    def echelon(mask):
        rows = memo.get(mask)
        if rows is None:
            top = mask.bit_length() - 1
            rows = echelon(mask ^ 1 << top)
            v = B.data[top]
            for pivot, r in rows:
                if v[pivot]:
                    v = [r[pivot] * x - v[pivot] * y for x, y in zip(v, r)]
            pivot = next((k for k, x in enumerate(v) if x), None)
            if pivot is not None:
                rows += ((pivot, v),)
            memo[mask] = rows
        return rows

    return lambda mask: len(echelon(mask))


def check_walk(B):
    """The walk's (row mask, column mask) pairs, checked against the mask
    reference, each with its full_rank flag checked against the rank of
    its M."""
    got = list(_admissible_rowsets(B))
    masks = [(jmask, cmask) for jmask, cmask, _ in got]
    assert len(masks) == len(set(masks)), B.tolist()
    assert set(masks) == reference_rowsets(B), B.tolist()
    rank = row_rank(B)
    for jmask, _, full_rank in got:
        assert full_rank == (rank(jmask) == jmask.bit_count()), B.tolist()
    return masks


def check_infinite_certificate(hi, cert):
    """An infinite-rank certificate, exactly: the 1-based (Jbar, columns
    of M) of an admissible Andean block with rank M = q < p, whose A_J
    has rank d.  Returns it 0-based."""
    rows, cols = ([x - 1 for x in part] for part in cert)
    assert rows == sorted(set(rows)) and min(rows) >= 0 and max(rows) < hi.n
    assert cols == [k for k in range(hi.m)
                    if any(hi.B.data[i][k] for i in rows)]
    M = hi.B.submatrix(rows, cols)
    assert all(max(c) > 0 > min(c) for c in M.columns())
    assert int_rank(M) == len(rows) < len(cols)
    J = [j for j in range(hi.n) if j not in rows]
    A_J = hi.A.submatrix(range(hi.d), J)
    B_J = hi.B.submatrix(J, [k for k in range(hi.m) if k not in cols])
    assert int_rank(A_J) == hi.d != len(J) - int_rank(B_J)
    return tuple(rows), tuple(cols)


def infinite_certificate(hi):
    """The certificate that ``solution_basis`` raises on hi."""
    with pytest.raises(InfiniteRankError) as exc:
        solution_basis(hi, [Fraction(1, 2)] * hi.d, T=2)
    return exc.value.certificate


def fields(dec):
    return {name: getattr(dec, name) for name in (
        "rowset_Jbar", "colset_M", "J", "M", "N", "B_J", "A_J", "A_Jbar",
        "q", "p", "klass", "L_basis", "g")}


# -- decompositions ------------------------------------------------------------------

def test_decompositions_match_reference_on_random_B():
    rng = random.Random(3)
    inputs = random_inputs(rng, 40)
    assert all(any(not any(row) for row in hi.B.tolist()) for hi in inputs)
    andean = 0
    for hi in inputs:
        got = [fields(dec) for dec in enumerate_decompositions(hi)]
        want = reference_decompositions(hi)
        assert got == want, hi.B.tolist()
        andean += sum(dec["klass"] == "andean" for dec in want)
    assert andean > 0  # the lazy fields are compared on Andean blocks too


@pytest.mark.parametrize("n", [6, 10])
def test_decompositions_match_reference_on_permuted_chains(n):
    rng = random.Random(n)
    for _ in range(3):
        hi = make_horn_input(IntMatrix(chain_rows(n, rng)))
        got = [fields(dec) for dec in enumerate_decompositions(hi)]
        assert got == reference_decompositions(hi)


def test_walk_matches_the_mask_reference():
    rng = random.Random(2010)
    seen = Counter()
    for t in range(1500):
        kind = WALK_KINDS[t % len(WALK_KINDS)]
        B = random_walk_B(rng, kind)
        got = check_walk(B)
        rows = B.tolist()
        seen[kind] += 1
        seen["nonempty sets"] += len(got) - 1
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += any(not any(col) for col in B.columns())
        seen["repeated row"] += len({tuple(row) for row in rows}) < B.nrows
        seen["opposite rows"] += any(
            any(row) and [-x for x in row] in rows for row in rows)
        seen["m = 0 < n"] += B.ncols == 0 < B.nrows
        seen["n = 0"] += B.nrows == 0
        seen["three-entry rows"] += any(
            sum(1 for x in row if x) == 3 for row in rows)
    for shape in ((0, 0), (0, 3), (4, 0), (12, 0)):
        assert check_walk(IntMatrix.zero(*shape)) == [(0, 0)]
    assert seen["nonempty sets"] >= 100000
    assert min(seen[k] for k in ("zero row", "zero column", "repeated row",
                                 "opposite rows")) >= 250
    assert seen["m = 0 < n"] >= 10 and seen["n = 0"] >= 1
    # a sparse B with a row of three entries takes the bound's exact sum
    assert seen["sparse"] == 250 and seen["three-entry rows"] >= 250


def test_walk_matches_the_mask_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        n = data.draw(st.integers(0, 10))
        m = data.draw(st.integers(0, n))
        row = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        check_walk(IntMatrix(rows) if n else IntMatrix.zero(0, m))

    prop()


def test_zero_rows_past_the_mask_wall():
    # 28 zero rows beside one mixed pair, m = 15: every set with a zero
    # row has more rows than columns and every completion keeps it so,
    # so the walk ends each such branch at once; kept, they are the
    # C(30, <= 14) row sets of up to m - 1 rows, about 2^29 states
    rows = [[0] * 15 for _ in range(30)]
    rows[0][:2], rows[1][:2] = [1, -1], [-1, 1]
    assert list(_admissible_rowsets(IntMatrix(rows))) == [
        (0, 0, True), (0b11, 0b11, False)]


def test_walk_inherits_dependence_on_chains(monkeypatch):
    # every nonempty block of a chain lies above one of n/2 recorded row
    # pairs, each of rank 1, so the walk computes one rank per pair and
    # none above them; only the empty set has rank M = q
    from binomhorn import decomp
    ranked = []
    inner = decomp._bareiss_rank

    def counting(rows):
        ranked.append(rows)
        return inner(rows)

    monkeypatch.setattr(decomp, "_bareiss_rank", counting)
    for n, sets in ((10, 11), (14, 29), (26, 521)):
        ranked.clear()
        hi = make_horn_input(IntMatrix(chain_rows(n, random.Random(n))))
        assert len(hi.decompositions) == sets
        assert len(ranked) == n // 2 and all(len(r) == 2 for r in ranked)
        assert [dec.q for dec in hi.decompositions if dec.full_rank] == [0]


@pytest.mark.parametrize("n, count", [(26, 521), (30, 1364)])
def test_decomposition_walk_past_the_mask_wall(n, count):
    # a walk over every row set of at most m rows took 8 s or more at
    # n = 26; no clock assertion here: CI runs this test as its own step
    # with a time limit
    for seed in (n, n + 1):
        hi = make_horn_input(IntMatrix(chain_rows(n, random.Random(seed))))
        assert len(hi.decompositions) == count
        assert generic_rank(hi).total == 2


@pytest.mark.parametrize("seed, ranks", [(0, [8, 7, 7, 7]), (1, [8])])
def test_rank_past_the_andean_wall(tmp_path, seed, ranks):
    # B of 16 x 8, the kernel of a random pointed 8 x 16 A: over 21k Andean
    # blocks, nearly all with rank M = q, on which saturating every A_J
    # took about 10 s; no clock assertion here: CI runs this test as its
    # own step with a time limit
    A = random_pointed_rows(random.Random(seed), 8, 16, (1, 3), (-3, 3))
    B = IntMatrix.from_columns(kernel_basis(A).vectors, nrows=16)
    path = tmp_path / "B.mat"
    path.write_text("".join(" ".join(map(str, r)) + "\n" for r in B.tolist()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["rank", "--B", str(path)])
    rep = json.loads(out.getvalue())
    assert (code, err.getvalue()) == (3, "")
    assert rep["generically_holonomic"] is False
    assert [len(b) for b in rep["andean_directions"]] == ranks


@pytest.mark.parametrize("d, n, seed", [(10, 24, 0), (10, 24, 1),
                                        (15, 30, 0), (15, 30, 1)])
def test_verdict_past_the_andean_wall(tmp_path, d, n, seed):
    # B of 24 x 14 and 30 x 15, the kernel of a random pointed A: neither
    # generic_rank nor solve gave a verdict within 60 s when they walked
    # every set first; the walk's second set is the certificate.  No
    # clock assertion here: CI runs this test as its own step with a
    # time limit
    A = random_pointed_rows(random.Random(seed), d, n, (1, 3), (-3, 3))
    B = IntMatrix.from_columns(kernel_basis(A).vectors, nrows=n)
    hi = make_horn_input(B)
    assert generic_rank(hi).infinite
    cert = infinite_certificate(hi)
    assert check_infinite_certificate(hi, cert) == (
        hi.andean.certificate.rowset_Jbar, hi.andean.certificate.colset_M)
    assert "decompositions" not in vars(hi)  # nothing was enumerated
    path = tmp_path / "B.mat"
    path.write_text("".join(" ".join(map(str, r)) + "\n" for r in B.tolist()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--B", str(path), "--beta", ",".join(
            ["1/2"] * d)])
    message = ("generically non-holonomic: a full-dimensional Andean "
               "direction is present")
    assert (code, err.getvalue()) == (3, f"error: {message}\n")
    assert json.loads(out.getvalue()) == {
        "command": "solve", "error": message, "infinite": True, "schema": "1"}


def test_infinite_certificates_on_the_andean_inputs():
    # every generically non-holonomic input of the Andean oracles, each
    # also with a sheared supplied A, raises a certificate that checks
    # out, and it is the first Andean block with rank M = q in walk order
    rng = random.Random(53)
    certified = 0
    for hi in andean_inputs():
        for hi2 in (hi, make_horn_input(hi.B, other_A(hi.A, rng))):
            if hi2.andean.generically_holonomic:
                continue
            cert = check_infinite_certificate(hi2, infinite_certificate(hi2))
            first = next(dec for dec in hi2._walk
                         if not dec.is_toral and int_rank(dec.M) == dec.q)
            assert cert == (first.rowset_Jbar, first.colset_M)
            certified += 1
    assert certified == 8


def test_toral_blocks_are_square_invertible_with_the_full_kernel():
    # enumerate_decompositions classifies by q = p = rank(M); each
    # class must match the rank criterion rank(A_J) = |J| - rank(B_J), and
    # the toral ones must have the consequences the rank formula and the
    # solution basis rely on
    fixtures = ROOT / "fixtures"
    inputs = [make_horn_input(read_matrix(fixtures / f"{name}.mat"),
                              read_matrix(fixtures / f"{name}_A.mat"))
              for name in ("erdelyi", "ds06", "himalayan", "nonholonomic")]
    inputs.append(make_horn_input(read_matrix(fixtures / "gauss.mat")))
    for n in (6, 10, 14):
        rng = random.Random(n)
        inputs += [make_horn_input(IntMatrix(chain_rows(n, rng)))
                   for _ in range(3)]
    inputs += random_inputs(random.Random(3), 40)
    torals = andean = 0
    for hi in inputs:
        for dec in enumerate_decompositions(hi):
            # the columns outside colset_M are zero on Jbar, so B_J keeps
            # the full column rank of B on them
            assert int_rank(dec.B_J) == hi.B.ncols - dec.p, dec.label
            rank_formula = (int_rank(dec.A_J)
                            == len(dec.J) - int_rank(dec.B_J))
            assert dec.is_toral == rank_formula, (hi.B.tolist(), dec.label)
            if not dec.is_toral:
                andean += 1
                continue
            assert dec.q == dec.p
            assert dec.q == 0 or bareiss_det(dec.M) != 0
            assert int_rank(dec.A_J) == hi.d
            assert dec.L_basis == kernel_basis(dec.A_J)
            assert all(not any(dec.A_J.mul_vec(v)) for v in dec.L_basis.vectors)
            torals += 1
    assert torals > len(inputs) and andean > len(inputs)


def test_lattice_fields_are_computed_when_read(B_him, B_nh, B_ds):
    andean = 0
    for B in (B_him, B_nh, B_ds):
        decs = enumerate_decompositions(make_horn_input(B))
        assert all("g" not in vars(dec) for dec in decs)
        for dec in decs:
            assert dec.g == smith_index(dec.B_J)
            assert dec.L_basis == smith_saturated_span(dec.B_J)
            assert dec.g is vars(dec)["g"]  # read once, then kept
            andean += not dec.is_toral
    assert andean > 0


# -- lattice facts read off one Hermite form --------------------------------------

def reference_own_lattice_coordinates(A_J):
    """The cone's lattice and coordinates by the route the library
    replaced: the nonzero columns of the column Hermite form reduced
    again by ``LatticeBasis``, and the coordinates from
    ``coordinate_map``."""
    lattice = LatticeBasis(A_J.nrows, [c for c in column_hnf(A_J).columns()
                                       if any(c)])
    return lattice, list(map(coordinate_map(lattice.vectors, A_J.nrows),
                             A_J.columns()))


def reference_twists(dec, order):
    """``solutions._twists`` with the coordinates of the columns of B_J
    in ``L_basis`` from ``coordinate_map``."""
    L = dec.L_basis
    if L.rank == 0 or dec.g == 1:
        return [Scalar.one(order)], [((), ())]
    coords = list(map(coordinate_map(L.vectors, L.ambient_dim),
                      dec.B_J.columns()))
    weights = _character_weights(IntMatrix.from_columns(coords,
                                                        nrows=L.rank), order)
    step = gcd(order, *(x for _, w in weights for x in w))
    return ([Scalar.root_of_unity(order, step * e)
             for e in range(order // step)],
            [(t, tuple(x // step for x in w)) for t, w in weights])


def times_nonunimodular(rng, hi, diagonal):
    """The input on B U for a seeded integer U with |det U| > 1, dense
    or diagonal.  B U spans the same rational columns, so it is valid,
    and the index of B_J in its saturation exceeds 1 far more often.  A
    dense U changes the blocks; a diagonal one, with entries in
    {1, 2, 3}, keeps them and scales their columns."""
    m = hi.m
    while True:
        if diagonal:
            U = IntMatrix([[rng.choice((1, 2, 3)) * (i == j)
                            for j in range(m)] for i in range(m)])
        else:
            U = IntMatrix([[rng.randint(-2, 2) for _ in range(m)]
                           for _ in range(m)])
        if abs(bareiss_det(U)) > 1:
            return make_horn_input(hi.B.mul(U))


def lattice_oracle_inputs():
    """Every fixture (with and without its published A), 30 seeded
    random valid B and two permuted chains, and each of those times a
    dense and a diagonal nonunimodular U."""
    fixtures = ROOT / "fixtures"
    inputs = []
    for name in ("erdelyi", "ds06", "himalayan", "nonholonomic", "gauss"):
        B = read_matrix(fixtures / f"{name}.mat")
        inputs.append(make_horn_input(B))
        if name != "gauss":
            inputs.append(make_horn_input(
                B, read_matrix(fixtures / f"{name}_A.mat")))
    rng = random.Random(2027)
    inputs += random_inputs(rng, 30)
    inputs += [make_horn_input(IntMatrix(chain_rows(n, rng))) for n in (6, 10)]
    return inputs + [times_nonunimodular(rng, hi, diagonal)
                     for hi in inputs for diagonal in (False, True)]


def check_lattice_facts(hi, seen):
    """g, the cone's lattice and coordinates, and the twists' coordinates
    of every decomposition of hi against the routes they replaced."""
    for dec in hi.decompositions:
        B_J = dec.B_J
        want = lattice_index(saturated_span(B_J), B_J.columns())
        assert dec.g == want, (hi.B.tolist(), dec.label)
        assert own_lattice_coordinates(dec.A_J) == \
            reference_own_lattice_coordinates(dec.A_J), (hi.B.tolist(),
                                                         dec.label)
        L = dec.L_basis
        assert list(map(L.coordinates, B_J.columns())) == list(map(
            coordinate_map(L.vectors, L.ambient_dim), B_J.columns()))
        if dec.is_toral and want > 1:
            assert _twists(dec, want) == reference_twists(dec, want)
        seen[dec.klass, want > 1] += 1


def test_lattice_facts_match_the_routes_they_replaced():
    # g from the row Hermite form of B_J against the saturated span's
    # index, the cone over A_J against its twice-reduced Hermite basis
    # and coordinate_map, and the twists against coordinate_map, on
    # every decomposition of the fixtures, of random valid B and of
    # those times a nonunimodular U
    seen = Counter()
    for hi in lattice_oracle_inputs():
        check_lattice_facts(hi, seen)
    # g > 1 on Andean blocks is rarer: their M takes most columns
    assert seen["andean", True] >= 5, seen
    assert min(seen[k] for k in (("toral", True), ("toral", False),
                                 ("andean", False))) >= 50, seen


def test_lattice_facts_match_the_routes_they_replaced_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        # a valid B, n <= 8, as in the Andean report's property, times
        # a drawn nonsingular U when one is drawn
        n = data.draw(st.integers(2, 8))
        d = data.draw(st.integers(1, n - 1))
        first = st.lists(st.integers(1, 2), min_size=n, max_size=n)
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        A = IntMatrix([data.draw(first)]
                      + data.draw(st.lists(row, min_size=d - 1,
                                           max_size=d - 1)))
        hypothesis.assume(int_rank(A) == d)
        B = IntMatrix.from_columns(kernel_basis(A).vectors, nrows=n)
        if data.draw(st.booleans()):
            m = B.ncols
            entry = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
            U = IntMatrix(data.draw(st.lists(entry, min_size=m, max_size=m)))
            hypothesis.assume(bareiss_det(U) != 0)
            B = B.mul(U)
        check_lattice_facts(make_horn_input(B), Counter())

    prop()


def test_decompose_reports_match_goldens(monkeypatch):
    monkeypatch.chdir(ROOT)
    goldens = json.loads((ROOT / "tests" / "goldens" / "decompose.json")
                         .read_text(encoding="utf-8"))
    assert len(goldens) == 10
    for args, want in goldens.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["decompose"] + args.split())
        assert (code, out.getvalue()) == (want["exit"], want["stdout"]), args


# -- Andean directions ---------------------------------------------------------------

def andean_inputs():
    """Every fixture B (computed A, and the published A where there is
    one), permuted chains at n = 6, 10, 14, and 40 random valid B."""
    out = []
    for path in sorted((ROOT / "fixtures").glob("*.mat")):
        if path.stem.endswith("_A"):
            continue
        B = read_matrix(str(path))
        if B.nrows == B.ncols:
            continue  # a square B is rejected, so it has no decompositions
        out.append(make_horn_input(B))
        a_path = path.with_name(path.stem + "_A.mat")
        if a_path.exists():
            out.append(make_horn_input(B, read_matrix(str(a_path))))
    assert len(out) == 9
    rng = random.Random(41)
    for n in (6, 10, 14):
        out.append(make_horn_input(IntMatrix(chain_rows(n, rng))))
    return out + random_inputs(random.Random(43), 40)


def test_andean_directions_match_reference():
    dependent = 0
    for hi in andean_inputs():
        decs = enumerate_decompositions(hi)
        rep = andean_report(decs, hi.d)
        want, verdict = reference_andean_report(decs, hi.d)
        assert (rep.directions, rep.generically_holonomic) == (want, verdict)
        andean = [dec for dec in decs if not dec.is_toral]
        for b in rep.directions:
            # saturated, of rank rank(A_J), inside the span of some A_J
            assert smith_index(IntMatrix.from_columns(b.vectors)) == 1
            assert any(int_rank(dec.A_J) == b.rank == int_rank(
                IntMatrix.from_columns(dec.A_J.columns() + list(b.vectors)))
                for dec in andean)
        dependent += sum(dec.A_J.ncols > int_rank(dec.A_J) for dec in andean)
    assert dependent > 0  # directions from dependent columns are compared


def test_rank_of_M_gives_the_rank_of_A_J():
    # the verdict rests on rank(A_J) = d - q + rank(M), with rank(M) stored
    # once per decomposition; checked on the Andean inputs, each also with
    # a sheared supplied A = T A_c (same rational row space), on which the
    # directions must match the reference too
    rng = random.Random(47)
    full = partial = 0
    for hi in andean_inputs():
        for hi2 in (hi, make_horn_input(hi.B, other_A(hi.A, rng))):
            decs = enumerate_decompositions(hi2)
            for dec in decs:
                rank_M = int_rank(dec.M)
                assert dec.full_rank == (rank_M == dec.q), dec.label
                assert int_rank(dec.A_J) == hi2.d - dec.q + rank_M
                if not dec.is_toral:
                    full += dec.full_rank
                    partial += not dec.full_rank
            rep = andean_report(decs, hi2.d)
            want = reference_andean_report(decs, hi2.d)
            assert (rep.directions, rep.generically_holonomic) == want
    assert full > 0 and partial > 0  # both kinds of Andean block occur


def test_andean_report_matches_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        # a valid B: an integer kernel basis of a pointed A (first row
        # positive), n <= 8
        n = data.draw(st.integers(2, 8))
        d = data.draw(st.integers(1, n - 1))
        first = st.lists(st.integers(1, 2), min_size=n, max_size=n)
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        A = IntMatrix([data.draw(first)]
                      + data.draw(st.lists(row, min_size=d - 1,
                                           max_size=d - 1)))
        hypothesis.assume(int_rank(A) == d)
        hi = make_horn_input(IntMatrix.from_columns(kernel_basis(A).vectors,
                                                    nrows=n))
        decs = enumerate_decompositions(hi)
        rep = andean_report(decs, hi.d)
        want = reference_andean_report(decs, hi.d)
        assert (rep.directions, rep.generically_holonomic) == want, \
            hi.B.tolist()

    prop()


# -- atlases -------------------------------------------------------------------------

def random_M(rng, q):
    ncols = rng.randint(1, q + 1)
    cols = [[rng.randint(-2, 2) for _ in range(q)] for _ in range(ncols)]
    return IntMatrix.from_columns(cols, nrows=q)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("cap", [5, 20])
def test_atlas_matches_reference(q, cap):
    rng = random.Random(100 * q + cap)
    verdicts = set()
    for _ in range(25 if q < 4 else 8):
        M = random_M(rng, q)
        got = atlas_outcome(M, cap)
        assert got == reference_atlas_outcome(M, cap), M.tolist()
        verdicts.add(got == "cap exceeded")
    assert verdicts == {True, False}  # both outcomes are compared


def test_atlas_matches_reference_on_mixed_invertible_blocks():
    rng = random.Random(7)
    done = 0
    while done < 30:
        q = rng.choice((2, 3))
        M = random_M(rng, q)
        if M.ncols != q or bareiss_det(M) == 0 or not all(
                min(c) < 0 < max(c) for c in M.columns()):
            continue
        assert atlas_outcome(M, 20) == reference_atlas_outcome(M, 20)
        done += 1


def test_atlas_rejects_a_negative_cap(M3):
    with pytest.raises(ValueError):
        bounded_atlas(M3, cap=-1)


def rank_deficient_M(rng, q):
    """A random M with q rows and rank below q: fewer than q columns, or
    a last row that combines the others, with the rows shuffled."""
    ncols = rng.randint(0, q + 1)
    rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(q - 1)]
    c = [rng.randint(-2, 2) for _ in range(q - 1)]
    rows.append([sum(a * row[j] for a, row in zip(c, rows))
                 for j in range(ncols)])
    rng.shuffle(rows)
    return IntMatrix(rows, ncols=ncols)


def certificate_of(M, cap):
    """The certificate bounded_atlas raises with, or None."""
    try:
        bounded_atlas(M, cap=cap)
    except CapExceededError as exc:
        return exc.certificate
    return None


def assert_face_certificate(M, y):
    """y is a primitive nonzero vector of N^q; with S its zero set, every
    nonzero column of M that is nonzero on S has both signs on S, and
    every other column c has y.c = 0."""
    assert len(y) == M.nrows
    assert all(type(x) is int and x >= 0 for x in y) and any(y)
    assert gcd(*y) == 1
    S = [i for i, x in enumerate(y) if x == 0]
    for c in M.columns():
        on_S = [c[i] for i in S]
        if any(on_S):
            assert min(on_S) < 0 < max(on_S), (M.tolist(), y)
        else:
            assert sum(a * b for a, b in zip(y, c)) == 0, (M.tolist(), y)


def test_infinite_mu_certificate_matches_reference():
    # a certified M has infinitely many bounded components, so the
    # reference walk never closes; full-rank M are certified by faces
    rng = random.Random(59)
    certified = positive = 0
    for _ in range(150):
        M = rank_deficient_M(rng, rng.randint(1, 3))
        assert int_rank(M) < M.nrows
        y = certificate_of(M, 8)
        if y is None:
            continue
        certified += 1
        positive += all(y)
        assert_face_certificate(M, y)
        assert reference_atlas_outcome(M, 8) == "cap exceeded", M.tolist()
    assert 0 < positive < certified < 150  # every outcome is drawn
    full = faces = 0
    while full < 60:
        q = rng.randint(1, 3)
        M = random_M(rng, q)
        if int_rank(M) == q:
            y = certificate_of(M, 8)
            if y is not None:
                faces += 1
                assert not all(y)
                assert_face_certificate(M, y)
                assert reference_atlas_outcome(M, 8) == "cap exceeded", \
                    M.tolist()
            full += 1
    assert 0 < faces < full


ORACLE_KINDS = ("square", "non-square", "rank-deficient", "zero-column")


def oracle_M(rng, q, kind):
    """A random M with q rows: q columns, another number of them, a rank
    below q, or one zero column."""
    if kind == "rank-deficient":
        return rank_deficient_M(rng, q)
    ncols = q
    if kind == "non-square":
        ncols = rng.choice([k for k in range(q + 3) if k != q])
    elif kind == "zero-column":
        ncols = rng.randint(1, q + 1)
    cols = [[rng.randint(-2, 2) for _ in range(q)] for _ in range(ncols)]
    if kind == "zero-column":
        cols[rng.randrange(ncols)] = [0] * q
    return IntMatrix.from_columns(cols, nrows=q)


def face_verdict(M, cap):
    """'certified', 'closed' or 'open' (the walk hit the cap without a
    certificate) for ``bounded_atlas`` at ``cap``.  A certificate must
    be exact and the reference walk must not close within the cap; a
    closed atlas must equal the reference."""
    try:
        bounded_atlas(M, cap=cap)
    except CapExceededError as exc:
        if exc.certificate is None:
            return "open"
        assert_face_certificate(M, exc.certificate)
        assert reference_atlas_outcome(M, cap) == "cap exceeded", M.tolist()
        return "certified"
    assert atlas_outcome(M, cap) == reference_atlas_outcome(M, cap), \
        M.tolist()
    return "closed"


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_face_certificates_match_the_reference_walk(q):
    # whether an uncertified block always closes is open, so "open" is
    # counted and not asserted on
    rng = random.Random(2800 + q)
    seen = Counter()
    for kind in ORACLE_KINDS:
        for _ in range(20):
            seen[kind, face_verdict(oracle_M(rng, q, kind), 6)] += 1
    assert seen["square", "certified"] and seen["square", "closed"]
    assert sum(n for (_, v), n in seen.items() if v == "certified") >= 10
    assert sum(n for (_, v), n in seen.items() if v == "closed") >= 10


def test_face_certificates_match_the_reference_walk_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        q = data.draw(st.integers(1, 4))
        ncols = data.draw(st.integers(0, q + 2))
        col = st.lists(st.integers(-2, 2), min_size=q, max_size=q)
        cols = data.draw(st.lists(col, min_size=ncols, max_size=ncols))
        face_verdict(IntMatrix.from_columns(cols, nrows=q), 6)

    prop()
