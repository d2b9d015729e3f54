import gc
import json
import random
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from binomhorn import CapExceededError, IntMatrix, bounded_atlas
from linalg_reference import bareiss_det
from pipeline_reference import component_of
from test_combinatorics_oracles import assert_face_certificate, points_of_degree

ROOT = Path(__file__).resolve().parents[1]


# -- independent oracle: component search restricted to a box -------------------

def box_component(M, seed, hi):
    """BFS component of seed within [0, hi]^q; exact when the true component
    stays strictly inside the box."""
    q = M.nrows
    cols = [M.column(j) for j in range(M.ncols)]
    steps = [c for c in cols] + [tuple(-x for x in c) for c in cols]
    seen = {seed}
    queue = [seed]
    while queue:
        u = queue.pop()
        for s in steps:
            v = tuple(a + b for a, b in zip(u, s))
            if all(0 <= x <= hi for x in v) and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def has_comparable_pair(points):
    pts = sorted(points)
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            if all(a <= b for a, b in zip(u, v)):
                return True
    return False


def random_mixed_invertible(rng, q):
    while True:
        m = [[rng.randint(-3, 3) for _ in range(q)] for _ in range(q)]
        M = IntMatrix(m)
        ok = all(any(M.data[i][j] > 0 for i in range(q))
                 and any(M.data[i][j] < 0 for i in range(q))
                 for j in range(q))
        if ok and bareiss_det(M) != 0:
            return M


def test_component_m3_degree_one(M3):
    c = component_of(M3, (0, 0, 1))
    assert c.bounded
    assert set(c.points) == {p for p in product(range(2), repeat=3)
                             if sum(p) == 1}


def test_component_m3_degree_four_unbounded(M3):
    c = component_of(M3, (4, 0, 0))
    assert not c.bounded
    u, v = c.witness
    assert u != v and all(a <= b for a, b in zip(u, v))
    assert u in c.points and v in c.points


def test_component_m_erd23_witness(M_erd23):
    c = component_of(M_erd23, (1, 0))
    assert not c.bounded
    assert c.witness == ((1, 0), (2, 1))


def test_atlas_m3(M3):
    atlas = bounded_atlas(M3)
    assert atlas.mu == 4
    assert [c.size for c in atlas.bounded_components] == [1, 3, 6, 10]
    for n, comp in enumerate(atlas.bounded_components):
        assert set(comp.points) == {p for p in product(range(n + 1), repeat=3)
                                    if sum(p) == n}


def test_atlas_m_erd23(M_erd23):
    atlas = bounded_atlas(M_erd23)
    assert atlas.mu == 1
    assert atlas.representatives == ((0, 0),)
    assert atlas.unbounded_min_gens == ((0, 1), (1, 0))


def test_atlas_empty_matrix():
    atlas = bounded_atlas(IntMatrix.zero(0, 0))
    assert atlas.mu == 1
    assert atlas.representatives == ((),)


def test_atlas_cap_error():
    # columns (1,-1) and (-1,1): every antidiagonal is a bounded component,
    # so there are infinitely many and closure never certifies
    M = IntMatrix([[1, -1], [-1, 1]])
    with pytest.raises(CapExceededError):
        bounded_atlas(M, cap=12)


def assert_infinite_mu_certificate(M, y):
    """y is a primitive integer vector, y > 0 and yM = 0."""
    assert len(y) == M.nrows
    assert all(type(x) is int and x > 0 for x in y)
    assert gcd(*y) == 1
    assert all(sum(a * b for a, b in zip(y, col)) == 0 for col in M.columns())


def test_infinite_mu_certified_without_walking():
    M = IntMatrix([[1, -1], [-1, 1]])
    with pytest.raises(CapExceededError, match=r"y = \[1, 1\]") as info:
        bounded_atlas(M, cap=10**9)
    assert info.value.certificate == (1, 1)
    assert_infinite_mu_certificate(M, info.value.certificate)


@pytest.mark.parametrize("ncols", [0, 2])
def test_infinite_mu_certified_for_zero_columns(ncols):
    # no step at all: every point of N^3 is its own bounded component
    M = IntMatrix.zero(3, ncols)
    with pytest.raises(CapExceededError) as info:
        bounded_atlas(M, cap=10**9)
    assert_infinite_mu_certificate(M, info.value.certificate)


def test_cap_exceeded_by_the_walk_carries_no_certificate():
    # a pool block that closes at level 5 has no certificate, so at cap 3
    # the walk gives up
    M = IntMatrix.from_columns([[-1, 0, 2], [2, -2, -2], [1, -2, 1]])
    assert bounded_atlas(M, cap=5).closure_level == 5
    with pytest.raises(CapExceededError, match="within 3 levels") as info:
        bounded_atlas(M, cap=3)
    assert info.value.certificate is None


def test_himalayan_block_certified_by_a_face():
    # full rank, so no y > 0 has yM = 0, but every column is mixed on the
    # first two rows: each point (0, 0, k) is its own bounded component
    M = IntMatrix.from_columns([[1, -1, 1], [1, -2, 0], [1, -3, 0]])
    with pytest.raises(CapExceededError,
                       match=r"mu is infinite: y = \[0, 0, 1\] >= 0") as info:
        bounded_atlas(M, cap=10**9)
    assert info.value.certificate == (0, 0, 1)
    assert_face_certificate(M, info.value.certificate)


def test_atlas_pool_verdicts_at_the_default_cap():
    # every block of the benchmark's atlas pool gets its recorded verdict
    # (None: the cap is exceeded) at cap 1000, not just at the recorded
    # cap, and every capped block is certified infinite without a walk
    goldens = json.loads((ROOT / "perfbench" / "goldens" / "atlas_blocks.json")
                         .read_text(encoding="utf-8"))["blocks"]
    assert len(goldens) == 257
    certified = 0
    for golden in goldens:
        M = IntMatrix.from_columns([tuple(c) for c in golden["columns"]],
                                   nrows=3)
        try:
            atlas = bounded_atlas(M, cap=1000)
        except CapExceededError as exc:
            assert_face_certificate(M, exc.certificate)
            certified += 1
            verdict = None
        else:
            verdict = {"mu": atlas.mu,
                       "representatives": [list(r)
                                           for r in atlas.representatives],
                       "sizes": [c.size for c in atlas.bounded_components]}
        assert verdict == golden["verdict"], golden["columns"]
    assert certified == 112


def test_dickson_equivalence_against_box_oracle():
    # acceptance 7(a): bounded <=> no comparable pair, cross-checked in a box.
    # A standalone mixed invertible M may still have infinitely many bounded
    # components (only blocks of valid systems are guaranteed finiteness), so
    # capped instances are accepted as the documented error path and skipped.
    rng = random.Random(101)
    checked = 0
    done = 0
    atlases = []
    while done < 50:
        q = rng.choice([2, 3])
        M = random_mixed_invertible(rng, q)
        try:
            atlas = bounded_atlas(M, cap=25)
        except CapExceededError:
            continue
        done += 1
        atlases.append((M, atlas))
        for comp in atlas.bounded_components:
            assert not has_comparable_pair(comp.points)
            if max(max(p) for p in comp.points) <= 8:
                # component fits well inside the box: oracle sees it whole
                assert box_component(M, comp.points[0], 12) == set(comp.points)
                checked += 1
        seed = tuple(rng.randint(0, 2) for _ in range(q))
        c = component_of(M, seed)
        if not c.bounded:
            u, v = c.witness
            assert u != v and all(a <= b for a, b in zip(u, v))
    assert checked >= 50  # the singleton at the origin alone gives one per M
    # acceptance 7(e): up-closure of the unbounded union in the explored box
    for M, atlas in atlases:
        q = M.nrows
        level = atlas.closure_level
        for p, is_bounded in atlas.classification.items():
            assert atlas.is_bounded(p) is is_bounded
            if is_bounded:
                continue
            for i in range(q):
                up = p[:i] + (p[i] + 1,) + p[i + 1:]
                if sum(up) <= level and up in atlas.classification:
                    assert atlas.classification[up] is False


def test_partition_inside_box(M3, M_erd23):
    # bounded components are disjoint and cover exactly the complement of
    # the staircase over the minimal generators
    for M in (M3, M_erd23):
        atlas = bounded_atlas(M)
        q = M.nrows
        level = atlas.closure_level
        union = {}
        for ci, comp in enumerate(atlas.bounded_components):
            for p in comp.points:
                assert p not in union
                union[p] = ci
        for p in (pt for pt in product(range(level + 1), repeat=q)
                  if sum(pt) <= level):
            in_upset = any(all(a >= b for a, b in zip(p, g))
                           for g in atlas.unbounded_min_gens)
            assert in_upset == (p not in union)


def test_mu_invariance_row_permutation_and_column_negation():
    rng = random.Random(17)
    for _ in range(12):
        q = rng.choice([2, 3])
        M = random_mixed_invertible(rng, q)
        try:
            mu = bounded_atlas(M, cap=25).mu
        except CapExceededError:
            continue
        perm = list(range(q))
        rng.shuffle(perm)
        Mp = IntMatrix([[M.data[perm[i]][j] for j in range(q)]
                        for i in range(q)])
        assert bounded_atlas(Mp, cap=25).mu == mu
        j = rng.randrange(q)
        Mn = IntMatrix([[(-1 if k == j else 1) * M.data[i][k]
                         for k in range(q)] for i in range(q)])
        assert bounded_atlas(Mn, cap=25).mu == mu


def test_points_of_degree_match_brute_force():
    assert points_of_degree(0, 0) == [()]
    assert points_of_degree(0, 3) == []
    for q in range(1, 5):
        for t in range(9):
            want = [p for p in product(range(t + 1), repeat=q) if sum(p) == t]
            assert points_of_degree(q, t) == want


def test_atlases_leave_no_cyclic_garbage(M3, M_erd23):
    # the himalayan block is certified infinite; the others close below
    # the cap
    blocks = [M3, M_erd23, IntMatrix.from_columns(
        [[1, -1, 1], [1, -2, 0], [1, -3, 0]])]
    gc.collect()
    gc.disable()
    try:
        exceeded = 0
        for _ in range(3):
            for M in blocks:
                try:
                    bounded_atlas(M, cap=20)
                except CapExceededError:
                    exceeded += 1
        assert exceeded == 3
        assert gc.collect() == 0
    finally:
        gc.enable()
