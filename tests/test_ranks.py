import random
from collections import Counter

from binomhorn import (
    IntMatrix,
    degree_cross_check,
    generic_rank,
    int_rank,
    make_horn_input,
)


def test_rank_erdelyi(B_erd, A_erd):
    rep = generic_rank(make_horn_input(B_erd, A_erd))
    assert rep.total == 4
    assert not rep.infinite
    parts = {s.rowset: s.product for s in rep.summands}
    assert parts == {(): 3, (2, 3): 1}


def test_rank_ds(B_ds, A_ds):
    hi = make_horn_input(B_ds, A_ds)
    rep = generic_rank(hi)
    assert rep.total == 9
    assert len(rep.summands) == 1
    s = rep.summands[0]
    assert (s.mu, s.g, s.vol) == (1, 3, 3)
    assert degree_cross_check(hi) == 9


def test_rank_him_infinite(B_him, A_him):
    rep = generic_rank(make_horn_input(B_him, A_him))
    assert rep.infinite
    assert rep.total is None
    assert not rep.generically_holonomic
    assert rep.summands == ()


def test_rank_nh(B_nh, A_nh):
    hi = make_horn_input(B_nh, A_nh)
    rep = generic_rank(hi)
    assert rep.total == 2
    assert rep.generically_holonomic
    assert len(hi.andean.directions) == 1
    # not standard Z-graded (column sums are 1), so no cross-check
    assert degree_cross_check(hi) is None


def test_rank_gauss(B_gauss):
    rep = generic_rank(make_horn_input(B_gauss))
    assert rep.total == 2


def test_cross_check_erd(B_erd, A_erd):
    # column sums vanish and there is no Andean block: degrees are 2 and 2
    hi = make_horn_input(B_erd, A_erd)
    assert degree_cross_check(hi) == 4 == generic_rank(hi).total


def test_cross_check_him_absent(B_him, A_him):
    assert degree_cross_check(make_horn_input(B_him, A_him)) is None


def test_cross_check_agrees_with_rank_randomized():
    # whenever the cross-check applies it must equal the rank formula
    rng = random.Random(73)
    hits = 0
    trials = 0
    while hits < 8 and trials < 400:
        trials += 1
        n, m = 4, 2
        cols = []
        for _ in range(m):
            col = [rng.randint(-2, 2) for _ in range(n - 1)]
            col.append(-sum(col))  # force zero column sum
            cols.append(col)
        B = IntMatrix([[cols[k][j] for k in range(m)] for j in range(n)])
        from binomhorn import validate_B
        if not validate_B(B).ok:
            continue
        hi = make_horn_input(B)
        cross = degree_cross_check(hi)
        if cross is None:
            continue
        rep = generic_rank(hi)
        assert not rep.infinite
        assert rep.total == cross
        hits += 1
    assert hits >= 8


def test_rank_invariance_column_ops(B_erd):
    base = generic_rank(make_horn_input(B_erd)).total
    # column permutation
    Bp = IntMatrix([[row[1], row[0]] for row in B_erd.data])
    assert generic_rank(make_horn_input(Bp)).total == base
    # column negation
    Bn = IntMatrix([[row[0], -row[1]] for row in B_erd.data])
    assert generic_rank(make_horn_input(Bn)).total == base
    # row permutation (A recomputed from scratch)
    order = [2, 0, 3, 1]
    Br = IntMatrix([list(B_erd.data[i]) for i in order])
    assert generic_rank(make_horn_input(Br)).total == base


def test_summands_all_positive(B_erd, B_ds, B_nh, B_gauss):
    for B in (B_erd, B_ds, B_nh, B_gauss):
        rep = generic_rank(make_horn_input(B))
        for s in rep.summands:
            assert s.mu >= 1 and s.g >= 1 and s.vol >= 1
            assert s.product >= 1


def test_rank_five_row_mellin_variant():
    # 5x3 companion of the Mellin example: same index-3 column lattice,
    # same rank 9, via a third column coupling a fifth variable
    B = IntMatrix([[-2, -1, 0], [3, 0, 1], [0, 3, 0], [-1, -2, 0],
                   [0, 0, -1]])
    A = IntMatrix([[1, 1, 1, 1, 1], [0, 1, 2, 3, 1]])
    hi = make_horn_input(B, A)
    rep = generic_rank(hi)
    assert rep.total == 9
    assert len(rep.summands) == 1
    assert (rep.summands[0].mu, rep.summands[0].g, rep.summands[0].vol) \
        == (1, 3, 3)
    assert degree_cross_check(hi) == 9  # degrees 3, 3, 1


def test_andean_report_is_computed_once_per_input(monkeypatch, B_him):
    # two rank evaluations of one input saturate nothing: g is read off
    # the row Hermite form of each toral B_J, and the verdict reads
    # rank M; reading the directions then saturates each Andean A_J
    # once, and a second read saturates nothing
    from binomhorn import decomp
    from test_combinatorics_oracles import chain_rows
    spans = []
    inner = decomp.saturated_span

    def counting(m):
        spans.append(m)
        return inner(m)

    monkeypatch.setattr(decomp, "saturated_span", counting)
    hi = make_horn_input(IntMatrix(chain_rows(10, random.Random(10))))
    first, second = generic_rank(hi), generic_rank(hi)
    assert first == second
    andean = [dec.A_J for dec in hi.decompositions if not dec.is_toral]
    toral = [dec.B_J for dec in hi.decompositions if dec.is_toral]
    assert len(andean) == 10 and len(toral) == 1
    assert spans == []
    directions = hi.andean.directions
    assert Counter(spans) == Counter(andean)
    spans.clear()
    assert hi.andean.directions is directions
    assert spans == []
    # himalayan is generically non-holonomic through blocks with
    # rank M = q, whose direction is Z^d without a saturation
    hi = make_horn_input(B_him)
    spans.clear()
    assert generic_rank(hi).infinite
    assert spans == []
    # the verdict stopped at its certificate: nothing was enumerated
    assert "decompositions" not in vars(hi)
    andean = [dec for dec in hi.decompositions if not dec.is_toral]
    assert all(dec.full_rank == (int_rank(dec.M) == dec.q) for dec in andean)
    assert any(dec.full_rank for dec in andean)
    assert any(b.rank == hi.d for b in hi.andean.directions)
    assert Counter(spans) == Counter(dec.A_J for dec in andean
                                     if int_rank(dec.M) < dec.q)
